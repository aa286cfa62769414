//! Cross-format round-trip tests: the text format and the binary
//! (`.ftb`) format are both *identities* under `read ∘ write`, on every
//! pattern the workload generator produces (fork/join desugaring, token
//! locks, many threads) **and** on arbitrary fuzzed builder traces —
//! and converting between the formats never changes the trace.
//!
//! The matrix each trace goes through:
//!
//! * text:   `read_trace(write_trace(t)) == t` (plus normal-form
//!   idempotence of the writer),
//! * binary: `read_trace_binary(write_trace_binary(t)) == t`,
//! * cross:  text → binary → text and binary → text → binary are both
//!   identities (streamed through the lazy converters, not
//!   re-materialized),
//! * stream: decoding the binary event by event yields exactly the
//!   batch decoding, however short the reads that deliver the bytes.

use freshtrack_trace::{
    read_trace, read_trace_binary, write_source, write_source_binary, write_source_binary_v2,
    write_trace, write_trace_binary, write_trace_binary_v2, BinaryEventReader, Event, EventReader,
    EventSource, SegmentOptions, Trace, TraceBuilder,
};
use freshtrack_workloads::{generate, Pattern, WorkloadConfig};
use proptest::prelude::*;

mod common;
use common::{Chunked, CHUNK_SIZES};

const PATTERNS: [Pattern; 6] = [
    Pattern::Mixed,
    Pattern::ProducerConsumer,
    Pattern::Pipeline,
    Pattern::ForkJoin,
    Pattern::BarrierPhases,
    Pattern::LockLadder,
];

fn assert_traces_equal(label: &str, a: &Trace, b: &Trace) {
    assert_eq!(a.len(), b.len(), "[{label}] length");
    assert_eq!(a.events(), b.events(), "[{label}] events");
    assert_eq!(a.thread_count(), b.thread_count(), "[{label}] threads");
    assert_eq!(a.lock_count(), b.lock_count(), "[{label}] locks");
    assert_eq!(a.var_count(), b.var_count(), "[{label}] vars");
    for v in 0..a.var_count() {
        assert_eq!(a.var_name(v), b.var_name(v), "[{label}] var {v}");
    }
    for l in 0..a.lock_count() {
        assert_eq!(a.lock_name(l), b.lock_name(l), "[{label}] lock {l}");
    }
    assert_eq!(a.stats(), b.stats(), "[{label}] stats");
}

fn assert_identity_roundtrip(label: &str, trace: &Trace) {
    // Text: read ∘ write = id, and the writer is a normal form.
    let text = write_trace(trace);
    let parsed = read_trace(&text).unwrap_or_else(|e| panic!("[{label}] reparse failed: {e:?}"));
    assert_traces_equal(&format!("{label}/text"), trace, &parsed);
    assert_eq!(text, write_trace(&parsed), "[{label}] normal form");
    assert!(parsed.validate().is_ok(), "[{label}] validity");

    // Binary: read ∘ write = id, same entity-table guarantees.
    let mut bytes = Vec::new();
    write_trace_binary(trace, &mut bytes).expect("in-memory write");
    let decoded = read_trace_binary(&bytes)
        .unwrap_or_else(|e| panic!("[{label}] binary decode failed: {e:?}"));
    assert_traces_equal(&format!("{label}/binary"), trace, &decoded);

    // Cross-format, streamed through the converters (never
    // re-materialized): text → binary → text reproduces the normal
    // form byte for byte, binary → text → binary likewise.
    let mut bin_from_text = Vec::new();
    write_source_binary(&mut EventReader::new(text.as_bytes()), &mut bin_from_text)
        .unwrap_or_else(|e| panic!("[{label}] text→binary failed: {e}"));
    let mut text_again = Vec::new();
    write_source(
        &mut BinaryEventReader::new(&bin_from_text[..]).expect("magic"),
        &mut text_again,
    )
    .unwrap_or_else(|e| panic!("[{label}] binary→text failed: {e}"));
    assert_eq!(
        text,
        String::from_utf8(text_again).expect("utf8"),
        "[{label}] text→binary→text"
    );
    assert_traces_equal(
        &format!("{label}/cross"),
        trace,
        &read_trace_binary(&bin_from_text).expect("cross decode"),
    );

    // Streaming the binary event by event matches batch decoding.
    let mut reader = BinaryEventReader::new(&bytes[..]).expect("magic");
    let mut streamed: Vec<Event> = Vec::new();
    while let Some(event) = reader.next_event().expect("stream decode") {
        streamed.push(event);
    }
    assert_eq!(trace.events(), &streamed[..], "[{label}] streamed events");
    assert_eq!(reader.threads(), trace.thread_count() as u32, "[{label}]");
    assert_eq!(reader.lock_count(), trace.lock_count(), "[{label}]");
    assert_eq!(reader.var_count(), trace.var_count(), "[{label}]");
}

#[test]
fn generated_workloads_roundtrip_identically() {
    for pattern in PATTERNS {
        for seed in [3u64, 77, 123_456] {
            let trace = generate(
                &WorkloadConfig::named("roundtrip")
                    .pattern(pattern)
                    .events(1_500)
                    .threads(6)
                    .seed(seed),
            );
            assert_identity_roundtrip(&format!("{pattern:?}/{seed}"), &trace);
        }
    }
}

#[test]
fn corpus_and_benchbase_shaped_configs_roundtrip() {
    // Configs exercising the extremes: many locks, high sync ratio, hot
    // location contention, and an all-unprotected free-for-all.
    let configs = [
        WorkloadConfig::named("locky").locks(32).sync_ratio(0.8),
        WorkloadConfig::named("hot").vars(4).hot_fraction(0.9),
        WorkloadConfig::named("wild").unprotected(1.0),
        WorkloadConfig::named("wide").threads(32).events(3_000),
    ];
    for config in configs {
        let trace = generate(&config.events(2_000).seed(9));
        assert_identity_roundtrip(&trace.stats().events.to_string(), &trace);
    }
}

#[test]
fn empty_trace_roundtrips() {
    let trace = generate(&WorkloadConfig::named("empty").events(0));
    assert_identity_roundtrip("empty", &trace);
}

#[test]
fn wide_operand_spaces_roundtrip() {
    // Operand ids beyond the binary format's inline window (0..=28) and
    // a sparse, large thread space.
    let mut b = TraceBuilder::new();
    let vars: Vec<_> = (0..100).map(|v| b.var(&format!("wide-var-{v}"))).collect();
    let locks: Vec<_> = (0..40).map(|l| b.lock(&format!("wide-lock-{l}"))).collect();
    for i in 0..200u32 {
        let t = (i * 37) % 300;
        b.acquire(t, locks[(i as usize * 7) % locks.len()]);
        b.write(t, vars[(i as usize * 13) % vars.len()]);
        b.release(t, locks[(i as usize * 7) % locks.len()]);
    }
    let trace = b.build();
    assert_identity_roundtrip("wide-operands", &trace);
}

/// Decodes `bytes` through `k`-byte reads: every read size must give
/// the one-shot decoding — events, name tables and thread count.
fn assert_chunked_reads_decode_identically(label: &str, bytes: &[u8]) {
    let one_shot = read_trace_binary(bytes)
        .unwrap_or_else(|e| panic!("[{label}] one-shot decode failed: {e}"));
    for k in CHUNK_SIZES {
        let mut reader = BinaryEventReader::new(Chunked { bytes, k }).expect("magic");
        let chunked = Trace::from_source(&mut reader)
            .unwrap_or_else(|e| panic!("[{label}] {k}-byte reads failed: {e}"));
        assert_traces_equal(&format!("{label}/{k}-byte reads"), &one_shot, &chunked);
    }
}

#[test]
fn a_name_longer_than_the_refill_buffer_decodes_in_chunks() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let long = b.var(&"n".repeat(100_000));
    let l = b.lock(&"m".repeat(70_000));
    b.acquire(0, l).write(0, long).release(0, l).read(1, x);
    let trace = b.build();
    let mut v1 = Vec::new();
    write_trace_binary(&trace, &mut v1).expect("in-memory write");
    assert_chunked_reads_decode_identically("long-name/v1", &v1);
    let mut v2 = Vec::new();
    write_trace_binary_v2(
        &trace,
        &mut v2,
        &SegmentOptions {
            events_per_segment: 2,
        },
    )
    .expect("in-memory write");
    assert_chunked_reads_decode_identically("long-name/v2", &v2);
    assert_traces_equal(
        "long-name",
        &trace,
        &read_trace_binary(&v2).expect("decode"),
    );
}

/// Raw fuel interpreted into a valid trace (same scheme as the core
/// crate's equivalence tests): arbitrary builder traces with fork/join,
/// silent declared threads, and odd-but-legal name usage.
fn build_fuel_trace(fuel: &[(u8, u8, u8)], threads: u8, locks: u8, vars: u8) -> Trace {
    let mut b = TraceBuilder::new();
    let var_ids: Vec<_> = (0..vars).map(|v| b.var(&format!("v{v}"))).collect();
    let lock_ids: Vec<_> = (0..locks).map(|l| b.lock(&format!("m{l}"))).collect();
    let mut holder: Vec<Option<u8>> = vec![None; locks as usize];
    let mut forked: Vec<bool> = vec![false; threads as usize];

    for &(t, action, operand) in fuel {
        let t = t % threads;
        match action % 6 {
            0 => {
                let l = (operand % locks) as usize;
                if holder[l].is_none() {
                    holder[l] = Some(t);
                    b.acquire(t as u32, lock_ids[l]);
                } else {
                    b.read(t as u32, var_ids[(operand % vars) as usize]);
                }
            }
            1 => {
                if let Some(l) = holder.iter().position(|&h| h == Some(t)) {
                    holder[l] = None;
                    b.release(t as u32, lock_ids[l]);
                } else {
                    b.write(t as u32, var_ids[(operand % vars) as usize]);
                }
            }
            2 => {
                b.read(t as u32, var_ids[(operand % vars) as usize]);
            }
            3 => {
                b.write(t as u32, var_ids[(operand % vars) as usize]);
            }
            4 => {
                let child = operand % threads;
                if child != t && !forked[child as usize] {
                    forked[child as usize] = true;
                    b.fork(t as u32, child as u32);
                } else {
                    b.read(t as u32, var_ids[(operand % vars) as usize]);
                }
            }
            _ => {
                let child = operand % threads;
                if child != t && forked[child as usize] {
                    forked[child as usize] = false;
                    b.join(t as u32, child as u32);
                } else {
                    b.write(t as u32, var_ids[(operand % vars) as usize]);
                }
            }
        }
    }
    if fuel.first().map(|&(t, _, _)| t % 2 == 0).unwrap_or(false) {
        // Half the cases carry a silent declared-thread surplus, so the
        // round trips must preserve thread counts events alone cannot.
        b.declare_threads(threads as u32 + 3);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The full conformance matrix (text, binary, cross-format,
    /// streamed decode) over arbitrary fuzzed builder traces.
    #[test]
    fn arbitrary_traces_roundtrip_across_formats(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..200),
    ) {
        let trace = build_fuel_trace(&fuel, 5, 4, 3);
        assert_identity_roundtrip("fuzz", &trace);
    }

    /// Short reads never change what the streaming reader decodes:
    /// the v1 and v2 encodings of a fuzzed trace, delivered a few
    /// bytes at a time, decode exactly like the whole input at once.
    #[test]
    fn chunked_reads_decode_like_one_shot(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..200),
        seg_raw in any::<u16>(),
    ) {
        let trace = build_fuel_trace(&fuel, 5, 4, 3);
        let mut v1 = Vec::new();
        write_trace_binary(&trace, &mut v1).expect("v1 encode");
        assert_chunked_reads_decode_identically("fuzz/v1", &v1);
        let events_per_segment = (seg_raw as usize % 64).max(1);
        let mut v2 = Vec::new();
        write_trace_binary_v2(&trace, &mut v2, &SegmentOptions { events_per_segment })
            .expect("v2 encode");
        assert_chunked_reads_decode_identically("fuzz/v2", &v2);
    }

    /// text → v2 → text byte-identity, in process: the segmented v2
    /// encoding (checksummed segments + checkpoints + footer) streams
    /// back out as exactly the text normal form it came from, at
    /// several segment sizes including mid-trace and degenerate ones.
    /// (Before this test only the CI `cmp` smoke covered the path.)
    #[test]
    fn text_to_v2_to_text_is_byte_identical(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..200),
        seg_raw in any::<u16>(),
    ) {
        let trace = build_fuel_trace(&fuel, 5, 4, 3);
        let text = write_trace(&trace);
        let events_per_segment = (seg_raw as usize % 64).max(1);
        let mut v2 = Vec::new();
        write_source_binary_v2(
            &mut EventReader::new(text.as_bytes()),
            &mut v2,
            &SegmentOptions { events_per_segment },
        )
        .expect("text→v2 encode");
        let mut text_again = Vec::new();
        write_source(
            &mut BinaryEventReader::new(&v2[..]).expect("v2 magic"),
            &mut text_again,
        )
        .expect("v2→text decode");
        prop_assert_eq!(
            text.as_bytes(),
            &text_again[..],
            "text→v2({})→text drifted", events_per_segment
        );
    }

    /// v1 → v2 → v1 byte-identity, in process: re-encoding a v1 `.ftb`
    /// stream through the segmented v2 format and back reproduces the
    /// original v1 bytes exactly — the two binary containers carry the
    /// same event stream and entity tables.
    #[test]
    fn v1_to_v2_to_v1_is_byte_identical(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..200),
        seg_raw in any::<u16>(),
    ) {
        let trace = build_fuel_trace(&fuel, 5, 4, 3);
        let mut v1 = Vec::new();
        write_trace_binary(&trace, &mut v1).expect("v1 encode");
        let events_per_segment = (seg_raw as usize % 64).max(1);
        let mut v2 = Vec::new();
        write_source_binary_v2(
            &mut BinaryEventReader::new(&v1[..]).expect("v1 magic"),
            &mut v2,
            &SegmentOptions { events_per_segment },
        )
        .expect("v1→v2 encode");
        prop_assert!(v1 != v2, "v2 container must differ from v1");
        let mut v1_again = Vec::new();
        write_source_binary(
            &mut BinaryEventReader::new(&v2[..]).expect("v2 magic"),
            &mut v1_again,
        )
        .expect("v2→v1 encode");
        prop_assert_eq!(
            &v1,
            &v1_again,
            "v1→v2({})→v1 drifted", events_per_segment
        );
    }

    /// Streaming a binary file event-by-event through `next_event`
    /// yields exactly the batch decoding — metadata included — even
    /// when the binary was produced by the *lazy* writer (interleaved
    /// definition records) rather than the full-header writer.
    #[test]
    fn lazy_and_batch_binary_encodings_decode_identically(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..150),
    ) {
        let trace = build_fuel_trace(&fuel, 4, 3, 3);
        // Batch encoding: full header first.
        let mut batch_bytes = Vec::new();
        write_trace_binary(&trace, &mut batch_bytes).expect("in-memory write");
        // Lazy encoding: headerless text streamed through the binary
        // writer, so definitions interleave with events.
        let headerless: String = write_trace(&trace)
            .lines()
            .filter(|l| !l.starts_with("#!"))
            .map(|l| format!("{l}\n"))
            .collect();
        let mut lazy_bytes = Vec::new();
        write_source_binary(&mut EventReader::new(headerless.as_bytes()), &mut lazy_bytes)
            .expect("lazy encode");
        let batch = read_trace_binary(&batch_bytes).expect("batch decode");
        let lazy = read_trace_binary(&lazy_bytes).expect("lazy decode");
        prop_assert_eq!(trace.events(), batch.events());
        // The headerless re-encoding interns ids in first-use order, so
        // ids may be renamed — but the *name-resolved* event streams
        // must be identical.
        prop_assert_eq!(batch.len(), lazy.len());
        for (a, b) in batch.events().iter().zip(lazy.events()) {
            prop_assert_eq!(a.tid, b.tid);
            let resolve = |t: &Trace, e: &freshtrack_trace::Event| match e.kind {
                freshtrack_trace::EventKind::Read(v) => format!("r:{}", t.var_name(v.index())),
                freshtrack_trace::EventKind::Write(v) => format!("w:{}", t.var_name(v.index())),
                freshtrack_trace::EventKind::Acquire(l) => format!("a:{}", t.lock_name(l.index())),
                freshtrack_trace::EventKind::Release(l) => format!("q:{}", t.lock_name(l.index())),
            };
            prop_assert_eq!(resolve(&batch, a), resolve(&lazy, b));
        }
    }
}
