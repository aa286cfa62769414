//! End-to-end smoke tests for the `freshtrack` CLI: every subcommand is
//! driven through the library entry point ([`freshtrack_cli::run`]) on a
//! tiny generated trace, exactly as `main` would.

use std::path::PathBuf;

use freshtrack_cli::run;
use freshtrack_trace::read_trace;

fn run_cli(args: &[&str]) -> (i32, String) {
    let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let code = run(&raw, &mut out);
    (code, String::from_utf8(out).expect("CLI output is UTF-8"))
}

/// A temp file that cleans up after itself (no tempfile dependency).
struct TempTrace(PathBuf);

impl TempTrace {
    fn write(name: &str, contents: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "freshtrack-smoke-{}-{name}.trace",
            std::process::id()
        ));
        std::fs::write(&path, contents).expect("write temp trace");
        TempTrace(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Generates the tiny shared workload through the CLI itself.
fn tiny_trace(name: &str) -> TempTrace {
    let (code, text) = run_cli(&[
        "generate",
        "--events",
        "400",
        "--threads",
        "4",
        "--unprotected",
        "0.1",
        "--seed",
        "7",
    ]);
    assert_eq!(code, 0, "generate failed:\n{text}");
    let trace = read_trace(&text).expect("generated trace parses");
    assert!(trace.validate().is_ok(), "generated trace validates");
    assert!(trace.len() >= 400, "asked for 400 events");
    TempTrace::write(name, &text)
}

#[test]
fn help_and_error_paths() {
    let (code, text) = run_cli(&["help"]);
    assert_eq!(code, 0);
    assert!(text.contains("USAGE"), "{text}");

    let (code, text) = run_cli(&[]);
    assert_eq!(code, 0, "bare invocation prints usage");
    assert!(text.contains("USAGE"));

    let (code, text) = run_cli(&["frobnicate"]);
    assert_eq!(code, 1);
    assert!(text.contains("unknown command"), "{text}");

    let (code, text) = run_cli(&["analyze", "/no/such/file.trace"]);
    assert_eq!(code, 1);
    assert!(text.contains("cannot read"), "{text}");
}

#[test]
fn stats_reports_the_trace_shape() {
    let trace = tiny_trace("stats");
    let (code, text) = run_cli(&["stats", trace.path()]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("sync ratio"), "{text}");
}

#[test]
fn analyze_runs_every_engine_and_engines_agree() {
    let trace = tiny_trace("analyze");
    let mut sampling_reports: Vec<(String, String)> = Vec::new();
    for engine in ["ft", "st", "sam", "su", "so"] {
        let (code, text) = run_cli(&[
            "analyze",
            trace.path(),
            "--engine",
            engine,
            "--rate",
            "1.0",
            "--counters",
        ]);
        assert_eq!(code, 0, "engine {engine} failed:\n{text}");
        assert!(text.contains("race report(s)"), "{engine}: {text}");
        let first = text.lines().next().unwrap_or("").to_string();
        let count = first.split(": ").nth(1).unwrap_or("").to_string();
        if engine != "ft" {
            sampling_reports.push((engine.to_string(), count));
        }
    }
    // The CLI surfaces the same equivalence the differential harness
    // asserts in-process: all sampling engines report identically.
    let (_, reference) = &sampling_reports[0];
    for (engine, count) in &sampling_reports {
        assert_eq!(count, reference, "engine {engine} disagrees");
    }
}

#[test]
fn oracle_lists_ground_truth_races() {
    let trace = tiny_trace("oracle");
    let (code, text) = run_cli(&["oracle", trace.path(), "--rate", "1.0"]);
    assert_eq!(code, 0, "{text}");
    assert!(
        text.contains("racy event(s) among the sampled set"),
        "{text}"
    );
}

#[test]
fn oracle_streaming_modes_match_exact_mode() {
    let trace = tiny_trace("oracle-stream");
    let (code, exact) = run_cli(&["oracle", trace.path(), "--rate", "1.0"]);
    assert_eq!(code, 0, "{exact}");
    // Racy events are exact at every window size, so windowed and
    // reservoir runs reproduce the default run's output verbatim.
    for extra in [
        &["--window", "0"][..],
        &["--window", "64"][..],
        &["--window", "1", "--reservoir", "8"][..],
    ] {
        let args = [&["oracle", trace.path(), "--rate", "1.0"], extra].concat();
        let (code, streamed) = run_cli(&args);
        assert_eq!(code, 0, "{streamed}");
        assert_eq!(streamed, exact, "{extra:?} diverged from the default run");
    }
    // `--stats` appends diagnostics after the identical body.
    let (code, with_stats) = run_cli(&["oracle", trace.path(), "--window", "64", "--stats"]);
    assert_eq!(code, 0, "{with_stats}");
    assert!(with_stats.starts_with(&exact), "{with_stats}");
    assert!(with_stats.contains("state:"), "{with_stats}");
}

#[test]
fn corpus_lists_and_emits_benchmarks() {
    let (code, text) = run_cli(&["corpus", "--list"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("wronglock"), "{text}");

    let (code, text) = run_cli(&[
        "corpus",
        "--bench",
        "wronglock",
        "--scale",
        "0.05",
        "--seed",
        "1",
    ]);
    assert_eq!(code, 0, "{text}");
    let trace = read_trace(&text).expect("corpus trace parses");
    assert!(trace.validate().is_ok());

    let (code, text) = run_cli(&["corpus", "--bench", "nonexistent"]);
    assert_eq!(code, 1);
    assert!(text.contains("unknown corpus benchmark"), "{text}");
}

#[test]
fn dbsim_runs_a_small_online_benchmark() {
    let (code, text) = run_cli(&[
        "dbsim",
        "--mix",
        "ycsb",
        "--engine",
        "su",
        "--rate",
        "0.1",
        "--workers",
        "2",
        "--txns",
        "10",
        "--seed",
        "3",
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("txns"), "{text}");
    assert!(text.contains("sampled="), "{text}");
}
