//! Offline half of a workload: a generated `.ftb` v2 trace analyzed
//! through the `freshtrack` CLI entry point with stdout captured.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use freshtrack_core::{analyze_segments_cached, OrderedListDetector, CACHE_STATE_VERSION};
use freshtrack_sampling::BernoulliSampler;
use freshtrack_trace::{
    write_source_binary_v2, write_trace_binary_v2, AnalysisCache, CacheConfig, Event, EventSource,
    SegmentOptions, SegmentedTraceFile, SourceError,
};
use freshtrack_workloads::{generate, WorkloadConfig};

use crate::{Checks, Samples, Workload};

/// The generated input files.
pub struct Inputs {
    pub full: PathBuf,
    pub prefix: PathBuf,
    pub events: u64,
    pub trace_bytes: u64,
    pub segments: usize,
    pub prefix_segments: usize,
}

impl Inputs {
    /// Set-up: generates the trace (as `freshtrack generate` does) and
    /// writes it, and a segment-aligned ~95% prefix of it, as `.ftb` v2.
    pub fn generate(w: &Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
        let config = WorkloadConfig::named("cli")
            .events(w.events)
            .threads(w.threads)
            .locks(w.locks)
            .vars(w.vars)
            .sync_ratio(w.sync_ratio)
            .unprotected(w.unprotected)
            .seed(seed);
        let trace = generate(&config);
        let options = SegmentOptions {
            events_per_segment: w.segment_events,
        };
        let mut full = Vec::new();
        write_trace_binary_v2(&trace, &mut full, &options).map_err(|e| e.to_string())?;
        let prefix_segments = trace.len() * 95 / 100 / w.segment_events;
        let mut prefix = Vec::new();
        let mut cut = Prefix {
            inner: trace.source(),
            left: prefix_segments * w.segment_events,
        };
        write_source_binary_v2(&mut cut, &mut prefix, &options).map_err(|e| e.to_string())?;

        let inputs = Inputs {
            full: dir.join("full.ftb"),
            prefix: dir.join("prefix.ftb"),
            events: trace.len() as u64,
            trace_bytes: full.len() as u64,
            segments: trace.len().div_ceil(w.segment_events),
            prefix_segments,
        };
        for (path, bytes) in [(&inputs.full, full), (&inputs.prefix, prefix)] {
            std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(inputs)
    }
}

/// The first `left` events of a source, with the source's declarations.
struct Prefix<S> {
    inner: S,
    left: usize,
}

impl<S: EventSource> EventSource for Prefix<S> {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        self.inner.next_event()
    }
    fn declared_threads(&self) -> u32 {
        self.inner.declared_threads()
    }
    fn observed_threads(&self) -> u32 {
        self.inner.observed_threads()
    }
    fn lock_count(&self) -> usize {
        self.inner.lock_count()
    }
    fn var_count(&self) -> usize {
        self.inner.var_count()
    }
    fn lock_name(&self, index: usize) -> &str {
        self.inner.lock_name(index)
    }
    fn var_name(&self, index: usize) -> &str {
        self.inner.var_name(index)
    }
}

/// Runs the CLI in-process on `args`, capturing stdout into `out`.
pub fn cli(args: &[String], out: &mut Vec<u8>) -> Result<Duration, String> {
    out.clear();
    let start = Instant::now();
    let code = freshtrack_cli::run(args, out);
    let elapsed = start.elapsed();
    if code == 0 {
        Ok(elapsed)
    } else {
        let first = String::from_utf8_lossy(out)
            .lines()
            .next()
            .unwrap_or("")
            .to_owned();
        Err(format!(
            "`freshtrack {}` exited {code}: {first}",
            args.join(" ")
        ))
    }
}

/// Wall times of one round's offline operations.
#[derive(Default)]
pub struct Times {
    pub analyze: Duration,
    pub jobs2: Duration,
    pub reanalyze: Duration,
    pub oracle: Duration,
}

pub struct Bench {
    pub inputs: Inputs,
    pub rate: f64,
    pub seed: u64,
    pub sidecar: PathBuf,
    /// The sidecar `analyze --cache` leaves behind on the prefix file;
    /// every re-analysis starts from it.
    pub prefix_sidecar: Vec<u8>,
    /// `analyze --jobs 1` stdout, the output every mode must reproduce.
    pub reference: Vec<u8>,
    oracle_reference: Vec<u8>,
    analyze_args: Vec<String>,
    jobs2_args: Vec<String>,
    cached_args: Vec<String>,
    oracle_args: Vec<String>,
    buf: Vec<u8>,
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn path_arg(path: &Path) -> Result<&str, String> {
    path.to_str()
        .ok_or_else(|| format!("{} is not UTF-8", path.display()))
}

impl Bench {
    /// Builds the prefix sidecar and the reference outputs, and checks
    /// the reports against the oracle (Lemmas 4, 7, 8).
    pub fn prepare(
        w: &Workload,
        seed: u64,
        inputs: Inputs,
        checks: &mut Checks,
    ) -> Result<Bench, String> {
        let rate = w.rate.to_string();
        let seed_arg = seed.to_string();
        let full = path_arg(&inputs.full)?;
        let prefix = path_arg(&inputs.prefix)?;
        let sidecar = inputs.full.with_extension("ftc");
        let cache_flag = format!("--cache={}", path_arg(&sidecar)?);
        let analyze = |path: &str| {
            strings(&[
                "analyze", path, "--engine", "so", "--rate", &rate, "--seed", &seed_arg,
            ])
        };
        let analyze_args = analyze(full);
        let mut jobs2_args = analyze(full);
        jobs2_args.extend(strings(&["--jobs", "2"]));
        let mut cached_args = analyze(full);
        cached_args.push(cache_flag.clone());
        let mut prefix_args = analyze(prefix);
        prefix_args.push(cache_flag);
        let oracle_args = strings(&[
            "oracle", full, "--window", "16", "--rate", &rate, "--seed", &seed_arg,
        ]);

        let mut buf = Vec::new();
        cli(&prefix_args, &mut buf)?;
        let prefix_sidecar =
            std::fs::read(&sidecar).map_err(|e| format!("{}: {e}", sidecar.display()))?;
        let mut reference = Vec::new();
        cli(&analyze_args, &mut reference)?;
        let mut oracle_reference = Vec::new();
        cli(&oracle_args, &mut oracle_reference)?;
        checks.record(
            "reports lie in the oracle's racy set",
            reports_within_oracle(&reference, &oracle_reference),
        );
        let bench = Bench {
            inputs,
            rate: w.rate,
            seed,
            sidecar,
            prefix_sidecar,
            reference,
            oracle_reference,
            analyze_args,
            jobs2_args,
            cached_args,
            oracle_args,
            buf,
        };
        checks.record("sidecar prefix is reused", bench.check_prefix_reuse());
        Ok(bench)
    }

    /// The sidecar the prefix left behind must cover every prefix
    /// segment, or re-analysis would silently run cold.
    fn check_prefix_reuse(&self) -> Result<(), String> {
        let prior = AnalysisCache::decode(&self.prefix_sidecar).map_err(|e| e.to_string())?;
        let mut file = self.open()?;
        let run = analyze_segments_cached(
            &mut file,
            &self.detector(),
            &self.sampler(),
            1,
            &self.cache_config(),
            Some(&prior),
        )
        .map_err(|e| e.to_string())?;
        if run.reused_segments == self.inputs.prefix_segments {
            Ok(())
        } else {
            Err(format!(
                "reused {} of {} prefix segments",
                run.reused_segments, self.inputs.prefix_segments
            ))
        }
    }

    pub fn open(&self) -> Result<SegmentedTraceFile<std::fs::File>, String> {
        let file = std::fs::File::open(&self.inputs.full).map_err(|e| e.to_string())?;
        SegmentedTraceFile::open(file).map_err(|e| e.to_string())
    }

    pub fn sampler(&self) -> BernoulliSampler {
        BernoulliSampler::new(self.rate, self.seed)
    }

    pub fn detector(&self) -> OrderedListDetector<BernoulliSampler> {
        OrderedListDetector::new(self.sampler())
    }

    /// The cache fingerprint `analyze --engine so --cache` writes.
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            engine: "so".to_owned(),
            sampler: format!("bernoulli:{}:{}", self.rate, self.seed),
            options: String::new(),
            state_version: CACHE_STATE_VERSION,
            jobs: 1,
        }
    }

    /// Restores the sidecar the prefix analysis left behind.
    pub fn reset_sidecar(&self) -> Result<(), String> {
        std::fs::write(&self.sidecar, &self.prefix_sidecar)
            .map_err(|e| format!("{}: {e}", self.sidecar.display()))
    }

    /// Runs `args` through the CLI and checks stdout against `expected`.
    fn timed(&mut self, args: Args, checks: &mut Checks) -> Option<Duration> {
        let (args, expected, what) = match args {
            Args::Analyze => (
                &self.analyze_args,
                &self.reference,
                "analyze --jobs 1 stdout",
            ),
            Args::Jobs2 => (&self.jobs2_args, &self.reference, "analyze --jobs 2 stdout"),
            Args::Cached => (&self.cached_args, &self.reference, "analyze --cache stdout"),
            Args::Oracle => (&self.oracle_args, &self.oracle_reference, "oracle stdout"),
        };
        let result = cli(args, &mut self.buf);
        let verdict = match &result {
            Ok(_) if self.buf == *expected => Ok(()),
            Ok(_) => Err("differs from the jobs-1 reference".to_owned()),
            Err(e) => Err(e.clone()),
        };
        checks.record(what, verdict);
        result.ok()
    }

    /// One round: each offline operation once, timed, output checked.
    pub fn round(&mut self, checks: &mut Checks, samples: &mut Samples) -> Times {
        let mev = self.inputs.events as f64 / 1e6;
        let mut times = Times::default();
        if let Some(t) = self.timed(Args::Analyze, checks) {
            samples.add("analyze_mev_s", "Mev/s", mev / t.as_secs_f64());
            times.analyze = t;
        }
        // Two threads on a shared host suffer most from preemption, so
        // the parallel run is sampled twice per round.
        for _ in 0..2 {
            if let Some(t) = self.timed(Args::Jobs2, checks) {
                samples.add("analyze_jobs2_mev_s", "Mev/s", mev / t.as_secs_f64());
                times.jobs2 = t;
            }
        }
        match self.reset_sidecar() {
            Ok(()) => {
                if let Some(t) = self.timed(Args::Cached, checks) {
                    samples.add("reanalyze_ms", "ms", crate::ms(t));
                    times.reanalyze = t;
                }
            }
            Err(e) => checks.record("restore prefix sidecar", Err(e)),
        }
        if let Some(t) = self.timed(Args::Oracle, checks) {
            samples.add("oracle_mev_s", "Mev/s", mev / t.as_secs_f64());
            times.oracle = t;
        }
        times
    }
}

#[derive(Clone, Copy)]
enum Args {
    Analyze,
    Jobs2,
    Cached,
    Oracle,
}

/// Every reported event must be racy by the oracle, and the first
/// report must be the first racy event.
fn reports_within_oracle(analyze: &[u8], oracle: &[u8]) -> Result<(), String> {
    let analyze = String::from_utf8_lossy(analyze);
    let oracle = String::from_utf8_lossy(oracle);
    let reported: Vec<&str> = analyze
        .lines()
        .filter_map(|l| l.split_once(" at event ")?.1.split(':').next())
        .collect();
    let racy: Vec<&str> = oracle
        .lines()
        .filter(|l| l.starts_with("  "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let racy_set: HashSet<&str> = racy.iter().copied().collect();
    if let Some(e) = reported.iter().find(|e| !racy_set.contains(*e)) {
        return Err(format!("reported event {e} is not racy by the oracle"));
    }
    if reported.first() != racy.first() {
        return Err(format!(
            "first report {:?} is not the first racy event {:?}",
            reported.first(),
            racy.first()
        ));
    }
    Ok(())
}
