//! Trace I/O microbenchmarks: text vs binary (`.ftb`) parse and write
//! throughput over a corpus-shaped trace.
//!
//! The machine-readable counterpart (events/s + file sizes, recorded as
//! `BENCH_trace_io.json`) is `record_baseline --trace-io`; this bench
//! exists for interactive before/after work on the codecs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use freshtrack_trace::{
    decode_segment, read_trace, read_trace_binary, write_trace, write_trace_binary,
    write_trace_binary_v2, BinaryEventReader, EventReader, EventSource, SegmentOptions,
    SegmentedTraceFile,
};
use freshtrack_workloads::corpus;

fn bench_trace_io(c: &mut Criterion) {
    let trace = corpus::by_name("derby")
        .expect("derby is in the corpus")
        .trace(0.25, 0);
    let text = write_trace(&trace);
    let mut binary = Vec::new();
    write_trace_binary(&trace, &mut binary).expect("in-memory write");
    let mut v2 = Vec::new();
    write_trace_binary_v2(&trace, &mut v2, &SegmentOptions::default()).expect("in-memory write");
    let mut file = SegmentedTraceFile::open(std::io::Cursor::new(&v2)).expect("valid v2");
    let segments: Vec<_> = (0..file.segment_count())
        .map(|k| {
            (
                file.meta(k).clone(),
                file.read_segment_bytes(k).expect("in range"),
            )
        })
        .collect();

    let mut g = c.benchmark_group("trace_io");
    g.throughput(Throughput::Elements(trace.len() as u64));

    g.bench_function("text_parse", |b| {
        b.iter(|| black_box(read_trace(&text).expect("well-formed")))
    });
    g.bench_function("binary_decode", |b| {
        b.iter(|| black_box(read_trace_binary(&binary).expect("well-formed")))
    });
    // Streaming decode without materialization: the cost a streaming
    // `analyze` pays per event before detector work starts.
    g.bench_function("text_stream", |b| {
        b.iter(|| {
            let mut reader = EventReader::new(text.as_bytes());
            let mut n = 0usize;
            while let Some(e) = reader.next_event().expect("well-formed") {
                black_box(e);
                n += 1;
            }
            n
        })
    });
    g.bench_function("binary_stream", |b| {
        b.iter(|| {
            let mut reader = BinaryEventReader::new(&binary[..]).expect("magic");
            let mut n = 0usize;
            while let Some(e) = reader.next_event().expect("well-formed") {
                black_box(e);
                n += 1;
            }
            n
        })
    });
    // The segment decoder the `--jobs` reader thread runs: every
    // segment of the v2 encoding, checksum included.
    g.bench_function("binary_segments", |b| {
        b.iter(|| {
            segments
                .iter()
                .map(|(meta, bytes)| {
                    black_box(decode_segment(bytes, meta).expect("well-formed"))
                        .events
                        .len()
                })
                .sum::<usize>()
        })
    });
    g.bench_function("text_write", |b| b.iter(|| black_box(write_trace(&trace))));
    g.bench_function("binary_write", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(binary.len());
            write_trace_binary(&trace, &mut out).expect("in-memory write");
            black_box(out)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_trace_io);
criterion_main!(benches);
