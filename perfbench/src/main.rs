//! freshtrack end-to-end benchmark.
//!
//! `perfbench --workload <sampled|full> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Each workload pairs an offline trace (analyzed through the
//! `freshtrack` CLI entry point, in-process, stdout captured) with an
//! online dbsim mix at the same sampling rate. Inputs are generated from
//! the seed; the measured operations run round-robin for `--seconds`
//! and every metric is a median over rounds. With `--trace 1` a
//! separate run times the calls into each layer and prints the
//! per-layer metrics instead. The last stdout line is the JSON result.

mod offline;
mod online;
mod spans;
mod sys;
mod traced;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One benchmark workload: an offline trace and an online mix that
/// share a sampling rate.
pub struct Workload {
    pub name: &'static str,
    /// `generate` parameters of the offline trace.
    pub events: usize,
    pub threads: u32,
    pub locks: u32,
    pub vars: u32,
    pub sync_ratio: f64,
    pub unprotected: f64,
    pub segment_events: usize,
    /// Offline engine is SO at this rate.
    pub rate: f64,
    /// Online engine and ingestion path.
    pub online: online::Path,
    pub workers: u32,
    pub txns_per_worker: u32,
}

/// `sampled`: the paper's deployment rate, where 97% of accesses are
/// sampled out, so decode, the sync plane and the skip path carry the
/// time. `full`: every access admitted, so the access plane, report
/// output, shard locks and seqlock publication carry it.
const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "sampled",
        events: 4_000_000,
        threads: 32,
        locks: 16,
        vars: 512,
        sync_ratio: 0.4,
        unprotected: 0.02,
        segment_events: 8192,
        rate: 0.03,
        online: online::Path::SingleMutexSo,
        workers: 2,
        txns_per_worker: 100_000,
    },
    Workload {
        name: "full",
        events: 1_000_000,
        threads: 8,
        locks: 8,
        vars: 64,
        sync_ratio: 0.3,
        unprotected: 0.02,
        segment_events: 8192,
        rate: 1.0,
        online: online::Path::ShardedFt,
        workers: 2,
        txns_per_worker: 50_000,
    },
];

/// Untimed offline rounds before measuring. Re-analysis (which
/// allocates and writes a sidecar about twice the trace's size) runs
/// ~20% slower in the first rounds of a process, until the allocator
/// reuses its buffers.
const WARM_UP_ROUNDS: usize = 3;

/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 5;

struct Options {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload `{name}`"))?;
    let number = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag} `{v}`: {e}"));
    let seed = number("--seed", get("--seed")?)?;
    let seconds = number("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Per-metric samples, one per round, reported as medians.
#[derive(Default)]
pub struct Samples {
    values: BTreeMap<&'static str, (Vec<f64>, &'static str)>,
}

impl Samples {
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.values
            .entry(name)
            .or_insert_with(|| (Vec::new(), unit))
            .0
            .push(value);
    }

    /// Every sample, one metric per line, for stderr.
    fn dump(&self) -> String {
        let mut out = String::new();
        for (name, (v, _)) in &self.values {
            let v: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            out += &format!("{name}: {}\n", v.join(" "));
        }
        out
    }

    fn medians(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.values
            .iter()
            .map(|(name, (v, unit))| (*name, median(v), *unit))
            .collect()
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Operations attempted and failed; a failed correctness check fails
/// the operation it checks.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    pub fn record(&mut self, what: &str, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            eprintln!("check failed: {what}: {e}");
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The run's input directory, removed when the run ends, failed or not.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            eprintln!("perfbench: cannot remove {}: {e}", self.0.display());
        }
    }
}

fn run(opts: &Options) -> Result<(Checks, Samples), String> {
    let w = opts.workload;
    let out_dir = PathBuf::from(".perfbench");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let work = WorkDir(work);

    let mut samples = Samples::default();
    let mut setup_times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        inputs = Some(offline::Inputs::generate(w, opts.seed, &work.0)?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran at least once");
    let mut checks = Checks::default();
    let mut offline = offline::Bench::prepare(w, opts.seed, inputs, &mut checks)?;
    let mut online = online::Bench::new(w, opts.seed);

    // Warm-up rounds, checked but not timed, let lazy set-up finish.
    // Peak memory is read after them: set-up plus the warm-up work.
    // Later rounds repeat the same work, so their peak differs only by
    // allocator reuse, which varies run to run.
    let mut warm_up = Samples::default();
    for _ in 0..WARM_UP_ROUNDS {
        offline.round(&mut checks, &mut warm_up);
    }
    online.round(&mut checks, &mut warm_up);
    samples.add(
        "peak_rss_mib",
        "MiB",
        sys::usage().max_rss_kib as f64 / 1024.0,
    );

    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let mut tracer = opts.trace.then(spans::Tracer::new);
    // At least one round, then more until the budget is spent.
    loop {
        let e2e = offline.round(&mut checks, &mut samples);
        let txn = online.round(&mut checks, &mut samples);
        if let Some(tracer) = tracer.as_mut() {
            traced::round(
                tracer,
                &offline,
                &mut online,
                &e2e,
                &txn,
                &mut checks,
                &mut samples,
            )?;
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    if let Some(tracer) = &tracer {
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name, opts.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }

    samples.add("setup_s", "s", median(&setup_times));
    Ok((checks, samples))
}

const END_TO_END: [&str; 8] = [
    "setup_s",
    "analyze_mev_s",
    "analyze_jobs2_mev_s",
    "reanalyze_ms",
    "oracle_mev_s",
    "txn_per_s",
    "txn_mean_us",
    "peak_rss_mib",
];

fn main() -> ExitCode {
    let opts = match parse_options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (checks, samples) = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", samples.dump());
    let mut metrics = Vec::new();
    for (name, value, unit) in samples.medians() {
        if END_TO_END.contains(&name) == opts.trace {
            continue;
        }
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite ({value}); left out");
            continue;
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
