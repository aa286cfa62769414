//! The traced run: each end-to-end operation again, composed from
//! timed calls into the public functions of each layer.
//!
//! Per family of operations the untraced wall time `E` comes from the
//! same round's measured run, the traced time `T` is the root span, and
//! the root's own time (bench glue between layer calls) is reported as
//! `unaccounted`. Two numbers are derived rather than spanned, because
//! no span can be opened inside them from outside: the CLI's output
//! time (`cli::run` minus the library call beneath it) and the online
//! detector's share of dbsim time (callback time per worker).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use freshtrack_core::{
    analyze_segments, analyze_segments_cached, encode_delta, CheckpointState, Counters, Detector,
    OracleConfig, StreamingOracle,
};
use freshtrack_trace::{
    decode_segment, AnalysisCache, BinaryEventReader, EventId, SegmentData, SegmentedTraceFile,
    Validated,
};

use crate::offline::{self, Times};
use crate::online::{self, Txns};
use crate::spans::Tracer;
use crate::{ms, sys, Checks, Samples};

/// Each layer's self-time metric; spans are named after the layer.
const LAYERS: [(&str, &str); 9] = [
    ("trace.segmented", "self_ms.trace.segmented"),
    ("trace.cache", "self_ms.trace.cache"),
    ("core.detector", "self_ms.core.detector"),
    ("core.parallel", "self_ms.core.parallel"),
    ("core.stream_oracle", "self_ms.core.stream_oracle"),
    ("core.online", "self_ms.core.online"),
    ("core.shard", "self_ms.core.shard"),
    ("dbsim", "self_ms.dbsim"),
    ("cli", "self_ms.cli"),
];

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Per-round totals of the breakdown, in milliseconds.
#[derive(Default)]
struct Breakdown {
    e2e: f64,
    traced: f64,
    unaccounted: f64,
    layers: BTreeMap<&'static str, f64>,
}

impl Breakdown {
    /// Adds one operation: its untraced time and its traced spans.
    fn add(&mut self, tracer: &Tracer, root: usize, e2e: Duration) {
        self.e2e += ms(e2e);
        self.traced += ms(tracer.elapsed(root));
        for (name, d) in tracer.self_times(root) {
            if name.starts_with("op.") {
                self.unaccounted += ms(d);
            } else {
                *self.layers.entry(name).or_default() += ms(d);
            }
        }
    }

    /// Adds a derived, unspanned share of time to `layer`, taking it
    /// from `from` when the span it hides in is known.
    fn attribute(&mut self, layer: &'static str, from: Option<&'static str>, ms: f64) {
        *self.layers.entry(layer).or_default() += ms;
        if let Some(from) = from {
            *self.layers.entry(from).or_default() -= ms;
        }
    }

    fn report(&self, samples: &mut Samples) {
        for (layer, metric) in LAYERS {
            samples.add(metric, "ms", self.layers.get(layer).copied().unwrap_or(0.0));
        }
        samples.add("self_ms.unaccounted", "ms", self.unaccounted);
        let parts = self.layers.values().sum::<f64>() + self.unaccounted;
        samples.add("tracing.e2e_ms", "ms", self.e2e);
        samples.add("tracing.traced_ms", "ms", self.traced);
        samples.add("tracing.overhead_ms", "ms", self.traced - self.e2e);
        samples.add(
            "tracing.unaccounted_share",
            "ratio",
            self.unaccounted / self.e2e,
        );
        samples.add("tracing.gap_share", "ratio", (parts - self.e2e) / self.e2e);
    }
}

/// Decodes segment `k` inside a `trace.segmented` span.
fn decode(
    tracer: &mut Tracer,
    file: &mut SegmentedTraceFile<std::fs::File>,
    k: usize,
) -> Result<SegmentData, String> {
    let meta = file.meta(k).clone();
    tracer.span("trace.segmented", |_| {
        let bytes = file.read_segment_bytes(k).map_err(err)?;
        decode_segment(&bytes, &meta).map_err(err)
    })
}

fn first_count(stdout: &[u8]) -> Option<usize> {
    let line = String::from_utf8_lossy(stdout).lines().next()?.to_owned();
    let head = line.rsplit_once(": ").map_or(line.as_str(), |(_, t)| t);
    head.split_whitespace().next()?.parse().ok()
}

fn same(what: &str, got: usize, want: Option<usize>) -> Result<(), String> {
    match want {
        Some(w) if w == got => Ok(()),
        _ => Err(format!("{what}: {got}, CLI printed {want:?}")),
    }
}

/// One traced round, after the untraced round that produced `e2e` and
/// `txn`.
pub fn round(
    tracer: &mut Tracer,
    off: &offline::Bench,
    on: &mut online::Bench,
    e2e: &Times,
    txn: &Txns,
    checks: &mut Checks,
    samples: &mut Samples,
) -> Result<(), String> {
    let events = off.inputs.events as f64;
    let reported = first_count(&off.reference);
    let mut breakdown = Breakdown::default();

    // The library call beneath `analyze --jobs 1`, untraced: what the
    // CLI adds on top of it is output formatting.
    let (lib, lib_time) = timed(|| -> Result<usize, String> {
        let file = std::fs::File::open(&off.inputs.full).map_err(err)?;
        let mut source = Validated::new(BinaryEventReader::new(file).map_err(err)?);
        Ok(off.detector().run_source(&mut source).map_err(err)?.len())
    });
    checks.record(
        "library analyze matches the CLI",
        same("reports", lib?, reported),
    );
    let cli_output = ms(e2e.analyze) - ms(lib_time);
    samples.add("cli.output_ms", "ms", cli_output);
    samples.add("cli.stdout_bytes", "B", off.reference.len() as f64);

    // analyze --jobs 1: open, then decode and detect segment by segment.
    let mut open_time = Duration::ZERO;
    let (composed, root) = tracer.op("op.analyze", |tr| -> Result<(usize, Counters), String> {
        let (file, t) = timed(|| tr.span("trace.segmented", |_| off.open()));
        open_time = t;
        let mut file = file?;
        let mut detector = off.detector();
        let mut reports = 0;
        for k in 0..file.segment_count() {
            let data = decode(tr, &mut file, k)?;
            let first = file.meta(k).first_event_id;
            tr.span("core.detector", |_| {
                for (i, &event) in data.events.iter().enumerate() {
                    let id = EventId::new(first + i as u64);
                    reports += usize::from(detector.process(id, event).is_some());
                }
            });
        }
        Ok((reports, *detector.counters()))
    });
    let (reports, counters) = composed?;
    checks.record(
        "composed analyze matches the CLI",
        same("reports", reports, reported),
    );
    breakdown.add(tracer, root, e2e.analyze);
    breakdown.attribute("cli", None, cli_output);
    let spans = tracer.self_times(root);
    let decode_time = spans["trace.segmented"].saturating_sub(open_time);
    samples.add("trace.open_us", "us", open_time.as_secs_f64() * 1e6);
    samples.add(
        "trace.decode_ns_per_event",
        "ns",
        decode_time.as_nanos() as f64 / events,
    );
    samples.add(
        "trace.bytes_per_event",
        "B",
        off.inputs.trace_bytes as f64 / events,
    );
    samples.add(
        "trace.decode_share",
        "ratio",
        ms(decode_time) / ms(e2e.analyze),
    );
    samples.add("trace.decode_share.base_ms", "ms", ms(e2e.analyze));
    samples.add(
        "core.detect_ns_per_event",
        "ns",
        spans["core.detector"].as_nanos() as f64 / events,
    );
    samples.add("core.reports", "count", reports as f64);
    samples.add("sampling.skip_ratio", "ratio", counters.skip_ratio());
    samples.add("clock.vc_ops", "count", counters.vc_ops as f64);
    samples.add(
        "clock.entries_traversed",
        "count",
        counters.entries_traversed as f64,
    );
    samples.add(
        "clock.entries_saved",
        "count",
        counters.entries_saved as f64,
    );
    samples.add("clock.deep_copies", "count", counters.deep_copies as f64);
    samples.add(
        "clock.acquires_skipped_ratio",
        "ratio",
        counters.acquire_skip_ratio(),
    );
    samples.add(
        "clock.releases_processed_ratio",
        "ratio",
        counters.release_processed_ratio(),
    );
    samples.add(
        "clock.traversals_per_acquire",
        "count",
        counters.traversals_per_acquire(),
    );

    // Checkpoint probe: the detector state exported at every segment
    // boundary, as parallel and cached replay ship it. No end-to-end
    // operation runs this composition, so it stays out of the breakdown.
    let (probe, root) = tracer.op("probe.checkpoint", |tr| -> Result<(usize, usize), String> {
        let mut file = tr.span("trace.segmented", |_| off.open())?;
        let mut detector = off.detector();
        let (mut prev, mut curr) = (Vec::new(), Vec::new());
        let (mut bytes, mut delta_bytes) = (0, 0);
        for k in 0..file.segment_count() {
            let data = decode(tr, &mut file, k)?;
            let first = file.meta(k).first_event_id;
            tr.span("core.detector", |_| {
                for (i, &event) in data.events.iter().enumerate() {
                    detector.process(EventId::new(first + i as u64), event);
                }
            });
            tr.span("core.checkpoint", |_| {
                curr.clear();
                detector.export_state(&mut curr);
                delta_bytes += encode_delta(&prev, &curr).len();
            });
            bytes += curr.len();
            std::mem::swap(&mut prev, &mut curr);
        }
        Ok((bytes, delta_bytes))
    });
    let (bytes, delta_bytes) = probe?;
    let segments = off.inputs.segments as f64;
    let export = tracer.self_times(root)["core.checkpoint"];
    samples.add(
        "checkpoint.export_us_per_segment",
        "us",
        export.as_secs_f64() * 1e6 / segments,
    );
    samples.add("checkpoint.bytes_per_segment", "B", bytes as f64 / segments);
    samples.add(
        "checkpoint.delta_bytes_per_segment",
        "B",
        delta_bytes as f64 / segments,
    );

    // analyze --jobs 2.
    let cpu_before = sys::usage().cpu;
    let (parallel, root) = tracer.op("op.analyze_jobs2", |tr| -> Result<usize, String> {
        let mut file = tr.span("trace.segmented", |_| off.open())?;
        let analysis = tr.span("core.parallel", |_| {
            analyze_segments(&mut file, &off.detector(), &off.sampler(), 2)
        });
        Ok(analysis.map_err(err)?.reports.len())
    });
    let cpu = sys::usage().cpu - cpu_before;
    checks.record(
        "traced jobs-2 matches the CLI",
        same("reports", parallel?, reported),
    );
    breakdown.add(tracer, root, e2e.jobs2);
    breakdown.attribute("cli", None, cli_output);
    samples.add(
        "parallel.cores_busy",
        "cores",
        cpu.as_secs_f64() / tracer.elapsed(root).as_secs_f64(),
    );
    samples.add(
        "parallel.speedup",
        "x",
        e2e.analyze.as_secs_f64() / e2e.jobs2.as_secs_f64(),
    );
    samples.add("parallel.speedup.base_ms", "ms", ms(e2e.analyze));

    // analyze --cache from the prefix sidecar.
    off.reset_sidecar()?;
    let mut cache_times = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (cached, root) = tracer.op("op.reanalyze", |tr| -> Result<_, String> {
        let (prior, t) = timed(|| {
            tr.span("trace.cache", |_| {
                let bytes = std::fs::read(&off.sidecar).map_err(err)?;
                AnalysisCache::decode(&bytes).map_err(err)
            })
        });
        cache_times.0 = t;
        let prior = prior?;
        let mut file = tr.span("trace.segmented", |_| off.open())?;
        let (run, t) = timed(|| {
            tr.span("core.parallel", |_| {
                analyze_segments_cached(
                    &mut file,
                    &off.detector(),
                    &off.sampler(),
                    1,
                    &off.cache_config(),
                    Some(&prior),
                )
            })
        });
        cache_times.1 = t;
        let run = run.map_err(err)?;
        let (sidecar_bytes, t) = timed(|| {
            tr.span("trace.cache", |_| {
                let bytes = run.cache.encode();
                std::fs::write(&off.sidecar, &bytes).map(|()| bytes.len())
            })
        });
        cache_times.2 = t;
        Ok((
            run.analysis.reports.len(),
            run.reused_segments,
            run.total_segments,
            sidecar_bytes.map_err(err)?,
        ))
    });
    let (reports, reused, total, sidecar_bytes) = cached?;
    checks.record(
        "traced cached run matches the CLI",
        same("reports", reports, reported),
    );
    breakdown.add(tracer, root, e2e.reanalyze);
    breakdown.attribute("cli", None, cli_output);
    samples.add("cache.decode_ms", "ms", ms(cache_times.0));
    samples.add("cache.replay_ms", "ms", ms(cache_times.1));
    samples.add("cache.encode_ms", "ms", ms(cache_times.2));
    samples.add("cache.reused_segments", "count", reused as f64);
    samples.add("cache.total_segments", "count", total as f64);
    samples.add("cache.sidecar_bytes", "B", sidecar_bytes as f64);
    samples.add(
        "cache.sidecar_ratio",
        "ratio",
        sidecar_bytes as f64 / off.inputs.trace_bytes as f64,
    );
    samples.add(
        "cache.sidecar_ratio.base_bytes",
        "B",
        off.inputs.trace_bytes as f64,
    );

    // oracle --window 16.
    let (outcome, root) = tracer.op("op.oracle", |tr| {
        tr.span("core.stream_oracle", |_| -> Result<_, String> {
            let file = std::fs::File::open(&off.inputs.full).map_err(err)?;
            let mut source = Validated::new(BinaryEventReader::new(file).map_err(err)?);
            let config = OracleConfig {
                window: 16,
                reservoir: 0,
                seed: off.seed,
            };
            StreamingOracle::new(off.sampler(), config)
                .run_source(&mut source)
                .map_err(err)
        })
    });
    let outcome = outcome?;
    breakdown.add(tracer, root, e2e.oracle);
    samples.add("oracle.state_bytes", "B", outcome.stats.state_bytes as f64);
    samples.add(
        "oracle.window_checks",
        "count",
        outcome.stats.window_checks as f64,
    );
    samples.add("oracle.evictions", "count", outcome.stats.evictions as f64);

    // Online: dbsim with every callback timed, and the NT baseline.
    let ((traced_txn, callbacks), root) =
        tracer.op("op.online", |tr| tr.span("dbsim", |_| on.run_traced()));
    on.check(&traced_txn, checks);
    breakdown.add(tracer, root, txn.wall);
    let busy = (callbacks.access_ns + callbacks.sync_ns) as f64 / 1e6 / f64::from(on.workers());
    let layer = match on.path() {
        online::Path::SingleMutexSo => "core.online",
        online::Path::ShardedFt => "core.shard",
    };
    breakdown.attribute(layer, Some("dbsim"), busy);
    let nt = on.run_uninstrumented();
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    samples.add(
        "online.access_ns",
        "ns",
        per(callbacks.access_ns, callbacks.accesses),
    );
    samples.add(
        "online.sync_ns",
        "ns",
        per(callbacks.sync_ns, callbacks.syncs),
    );
    samples.add(
        "online.events_per_txn",
        "count",
        txn.counters.events as f64 / txn.stats.transactions as f64,
    );
    samples.add("online.skip_ratio", "ratio", txn.counters.skip_ratio());
    samples.add("online.nt_txn_mean_us", "us", nt.mean_us());
    samples.add("online.overhead_x", "x", txn.stats.mean_us() / nt.mean_us());
    samples.add(
        "online.txn_p50_us",
        "us",
        txn.stats.percentile_us(50.0) as f64,
    );
    samples.add(
        "online.txn_p99_us",
        "us",
        txn.stats.percentile_us(99.0) as f64,
    );

    breakdown.report(samples);
    Ok(())
}
