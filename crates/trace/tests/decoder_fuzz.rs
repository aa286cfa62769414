//! The decoders fail with an error, never a panic, on any input.
//!
//! The record decoder indexes its input slice directly, in the
//! streaming reader's refill buffer and in [`decode_segment`]. These
//! properties throw arbitrary bytes at both, including
//! segments whose checksum has been made to match so decoding is
//! actually reached. Each case must return `Ok` or `Err`.

use std::io::Cursor;

use freshtrack_trace::{
    decode_segment, write_trace_binary_v2, BinaryEventReader, EventSource, SegmentMeta,
    SegmentOptions, SegmentedTraceFile, Trace, TraceBuilder, BINARY_MAGIC, BINARY_MAGIC_V2,
};
use proptest::prelude::*;

/// CRC-32 (IEEE), bit by bit: the segment checksum, recomputed so a
/// corrupted segment still reaches the record decoder.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Drains a reader to its end or first error.
fn drain(bytes: &[u8]) {
    if let Ok(mut reader) = BinaryEventReader::new(bytes) {
        while let Ok(Some(_)) = reader.next_event() {}
    }
}

/// A segment meta that matches `bytes` (length and checksum).
fn meta_for(bytes: &[u8], locks_before: usize, vars_before: usize, events: u64) -> SegmentMeta {
    SegmentMeta {
        offset: 8,
        byte_len: bytes.len() as u64,
        event_count: events,
        first_event_id: 0,
        locks_before,
        vars_before,
        threads_before: 0,
        checkpoint_offset: 0,
        checkpoint_len: 0,
        crc32: crc32(bytes),
    }
}

/// A small valid trace whose segments carry definitions, events with
/// and without the same-thread bit, and escaped operands.
fn sample_v2(events_per_segment: usize) -> Vec<u8> {
    let mut b = TraceBuilder::new();
    let vars: Vec<_> = (0..34).map(|v| b.var(&format!("v{v}"))).collect();
    let l = b.lock("l");
    for (i, &v) in vars.iter().enumerate() {
        let t = (i % 3) as u32;
        b.acquire(t, l).write(t, v).release(t, l).read(t + 1, v);
    }
    let trace: Trace = b.build();
    let mut bytes = Vec::new();
    write_trace_binary_v2(&trace, &mut bytes, &SegmentOptions { events_per_segment })
        .expect("in-memory write");
    bytes
}

proptest! {
    /// Arbitrary bytes after either magic, optionally behind a valid
    /// lock and var definition so event records can get further.
    #[test]
    fn streaming_reader_never_panics(
        body in prop::collection::vec(any::<u8>(), 0..256),
        v2 in any::<bool>(),
        defined in any::<bool>(),
    ) {
        let mut bytes = if v2 { BINARY_MAGIC_V2.to_vec() } else { BINARY_MAGIC.to_vec() };
        if defined {
            bytes.extend_from_slice(&[0xF0, 1, b'l', 0xF1, 1, b'x']);
        }
        bytes.extend_from_slice(&body);
        drain(&bytes);
    }

    /// Arbitrary segment bytes with a matching checksum, against
    /// arbitrary name watermarks and event counts.
    #[test]
    fn segment_decoder_never_panics_on_arbitrary_bytes(
        body in prop::collection::vec(any::<u8>(), 0..256),
        locks_before in any::<usize>(),
        vars_before in any::<usize>(),
        small in any::<bool>(),
        events in any::<u64>(),
    ) {
        // Half the cases use small watermarks, so operands resolve.
        let (locks_before, vars_before) = if small {
            (locks_before % 40, vars_before % 40)
        } else {
            (locks_before, vars_before)
        };
        let _ = decode_segment(&body, &meta_for(&body, locks_before, vars_before, events));
    }

    /// One byte of a valid segment flipped, checksum recomputed, so the
    /// corruption reaches the record decoder; the streaming reader gets
    /// the same flip in the whole file.
    #[test]
    fn single_byte_flips_never_panic(
        per_segment in 1usize..40,
        segment in any::<usize>(),
        position in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let file_bytes = sample_v2(per_segment);
        let mut file = SegmentedTraceFile::open(Cursor::new(&file_bytes)).expect("valid file");
        let k = segment % file.segment_count();
        let meta = file.meta(k).clone();
        let mut bytes = file.read_segment_bytes(k).expect("in range");
        prop_assume!(!bytes.is_empty());
        let at = position % bytes.len();
        bytes[at] ^= flip;
        let meta = SegmentMeta { crc32: crc32(&bytes), ..meta };
        let _ = decode_segment(&bytes, &meta);

        let mut whole = file_bytes.clone();
        whole[meta.offset as usize + at] ^= flip;
        drain(&whole);
    }
}
