//! Truncation and version-negotiation hardening for the binary formats.
//!
//! The contract: a truncated `.ftb` file is an **error**, never a
//! silently shortened trace. v1 ends with an end marker, so any strict
//! prefix fails; v2 additionally carries a footer and a fixed 12-byte
//! trailer, so the only cuts a *streaming* reader can survive are
//! inside the trailer it does not need — and the seeking reader
//! ([`SegmentedTraceFile`]) rejects even those.

use std::io::Read;

use freshtrack_trace::{
    is_binary_trace, write_trace_binary, write_trace_binary_v2, BinaryEventReader, Event,
    EventReader, EventSource, SegmentOptions, SegmentedTraceFile, Trace, TraceBuilder,
};

mod common;
use common::{Chunked, CHUNK_SIZES};

fn sample_trace() -> Trace {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let y = b.var("y");
    let l = b.lock("l");
    for t in 0..3u32 {
        b.acquire(t, l).write(t, x).release(t, l);
        b.read(t, y);
        b.write(t, y);
    }
    b.fork(0, 3);
    b.write(3, x);
    b.join(0, 3);
    b.build()
}

/// Streams every event out of a byte prefix, or the first error.
fn stream_all(bytes: &[u8]) -> Result<Vec<Event>, String> {
    stream_from(bytes)
}

/// [`stream_all`] over any reader; errors carry text and byte offset.
fn stream_from<R: Read>(input: R) -> Result<Vec<Event>, String> {
    let mut reader = BinaryEventReader::new(input).map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    loop {
        match reader.next_event() {
            Ok(Some(event)) => events.push(event),
            Ok(None) => return Ok(events),
            Err(e) => return Err(e.to_string()),
        }
    }
}

#[test]
fn v1_truncated_at_every_byte_is_an_error() {
    let trace = sample_trace();
    let mut bytes = Vec::new();
    write_trace_binary(&trace, &mut bytes).unwrap();

    assert_eq!(stream_all(&bytes).unwrap(), trace.events());
    for cut in 0..bytes.len() {
        assert!(
            stream_all(&bytes[..cut]).is_err(),
            "v1 prefix of {cut}/{} bytes must not decode",
            bytes.len()
        );
    }
}

#[test]
fn v2_truncated_at_every_byte_is_an_error_or_the_complete_trace() {
    let trace = sample_trace();
    let mut bytes = Vec::new();
    write_trace_binary_v2(
        &trace,
        &mut bytes,
        &SegmentOptions {
            events_per_segment: 4,
        },
    )
    .unwrap();

    assert_eq!(stream_all(&bytes).unwrap(), trace.events());
    // [TAG_END][8-byte footer offset][`FTBi`] — 13 trailing bytes the
    // streaming reader does not consult.
    let trailer_start = bytes.len() - 13;
    for cut in 0..bytes.len() {
        match stream_all(&bytes[..cut]) {
            Err(_) => {}
            Ok(events) => {
                assert_eq!(
                    events,
                    trace.events(),
                    "a surviving cut must still yield the complete trace (cut {cut})"
                );
                assert!(
                    cut > trailer_start,
                    "only trailer cuts may survive streaming, got {cut}/{}",
                    bytes.len()
                );
            }
        }
        // The seeking reader needs the trailer, so *every* strict
        // prefix is rejected at open.
        assert!(
            SegmentedTraceFile::open(std::io::Cursor::new(&bytes[..cut])).is_err(),
            "v2 prefix of {cut}/{} bytes must not open",
            bytes.len()
        );
    }
}

/// Each prefix `bytes[..cut]` streams to the same events, or the same
/// error text and byte offset, for every read size.
fn assert_same_result_for_every_read_size(bytes: &[u8], cuts: impl IntoIterator<Item = usize>) {
    for cut in cuts {
        let one_shot = stream_all(&bytes[..cut]);
        for k in CHUNK_SIZES {
            let chunked = stream_from(Chunked {
                bytes: &bytes[..cut],
                k,
            });
            assert_eq!(
                chunked,
                one_shot,
                "cut {cut}/{}, {k}-byte reads",
                bytes.len()
            );
        }
    }
}

/// Where a truncation is reported must not depend on how the input
/// arrived: reads that split a record, and reads around the refill
/// buffer size, report every cut exactly like one whole read.
#[test]
fn truncations_report_the_same_error_for_every_read_size() {
    let trace = sample_trace();
    let mut v1 = Vec::new();
    write_trace_binary(&trace, &mut v1).unwrap();
    let mut v2 = Vec::new();
    write_trace_binary_v2(
        &trace,
        &mut v2,
        &SegmentOptions {
            events_per_segment: 4,
        },
    )
    .unwrap();
    assert_same_result_for_every_read_size(&v1, 0..=v1.len());
    assert_same_result_for_every_read_size(&v2, 0..=v2.len());

    // A name longer than the refill buffer, cut inside and around it.
    let mut b = TraceBuilder::new();
    let long = b.var(&"n".repeat(100_000));
    b.write(0, long);
    let mut bytes = Vec::new();
    write_trace_binary(&b.build(), &mut bytes).unwrap();
    let len = bytes.len();
    let cuts = [9, 10, 11, 12, 50_000, 65_535, 65_536, 65_537, len - 1, len];
    assert_same_result_for_every_read_size(&bytes, cuts);
}

#[test]
fn unsupported_future_versions_are_named_not_garbled() {
    for digit in [b'3', b'7', b'9'] {
        let mut bytes = vec![b'F', b'T', b'B', digit, b'\r', b'\n', 0x1a, b'\n'];
        bytes.push(0xF6); // whatever follows, the magic decides
        let err = BinaryEventReader::new(&bytes[..]).unwrap_err();
        assert!(
            err.to_string().contains(&format!(
                "unsupported binary trace version {}",
                digit - b'0'
            )),
            "{err}"
        );
        assert!(
            is_binary_trace(&bytes),
            "future versions still sniff as binary so they reach the reader"
        );
    }
}

#[test]
fn non_magic_inputs_are_not_binary_traces() {
    let err = BinaryEventReader::new(&b"T0|w(x)\n"[..]).unwrap_err();
    assert!(err.to_string().contains("not a binary trace"), "{err}");
    assert!(!is_binary_trace(b"T0|w(x)\n"));
    assert!(!is_binary_trace(b"FTBx\r\n\x1a\n"));
    assert!(!is_binary_trace(b"FTB"));

    let mut v1 = Vec::new();
    write_trace_binary(&sample_trace(), &mut v1).unwrap();
    assert!(is_binary_trace(&v1));
    let mut v2 = Vec::new();
    write_trace_binary_v2(&sample_trace(), &mut v2, &SegmentOptions::default()).unwrap();
    assert!(is_binary_trace(&v2));
}

#[test]
fn from_source_reports_malformed_input_by_line() {
    let mut reader = EventReader::new(&b"T0|w(x)\nbogus\n"[..]);
    let err = Trace::from_source(&mut reader).unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
}
