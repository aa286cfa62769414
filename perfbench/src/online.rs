//! Online half of a workload: a closed-loop dbsim mix, each worker a
//! client that issues its next transaction when the last one commits.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use freshtrack_core::{
    Counters, Detector, FastTrackDetector, OrderedListDetector, RaceReport, SyncMode,
};
use freshtrack_dbsim::{
    run_benchmark, run_detector, run_sharded, DetectorInstrument, Instrument, LatencyStats,
    NoInstrument, RunOptions, ShardedInstrument,
};
use freshtrack_sampling::BernoulliSampler;
use freshtrack_workloads::{benchbase, DbWorkload};

use crate::{Checks, Samples, Workload};

/// Access shards of the sharded path.
const SHARDS: usize = 2;

/// How instrumentation callbacks reach the detector.
#[derive(Clone, Copy)]
pub enum Path {
    /// SO at the workload rate behind the paper-faithful single mutex
    /// (`run_detector`): sampled-out accesses take the lock-free skip path.
    SingleMutexSo,
    /// FastTrack at rate 1.0 over `SHARDS` access shards, seqlock sync
    /// plane, batch 1 (`run_sharded`): every access is admitted.
    ShardedFt,
}

/// One online run's outcome.
pub struct Txns {
    pub wall: Duration,
    pub stats: LatencyStats,
    pub counters: Counters,
    reports: Vec<RaceReport>,
}

/// Callback time per worker, written only by that worker's thread.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    access_ns: AtomicU64,
    accesses: AtomicU64,
    sync_ns: AtomicU64,
    syncs: AtomicU64,
}

fn bump(sum: &AtomicU64, count: &AtomicU64, start: Instant) {
    let ns = start.elapsed().as_nanos() as u64;
    // Single writer per slot: load + store needs no atomic RMW.
    sum.store(sum.load(Relaxed) + ns, Relaxed);
    count.store(count.load(Relaxed) + 1, Relaxed);
}

/// Times every callback into the wrapped instrument.
struct Timed<I> {
    inner: I,
    slots: Vec<Slot>,
}

impl<I: Instrument> Instrument for Timed<I> {
    fn read(&self, tid: u32, var: u32) {
        let start = Instant::now();
        self.inner.read(tid, var);
        let s = &self.slots[tid as usize];
        bump(&s.access_ns, &s.accesses, start);
    }
    fn write(&self, tid: u32, var: u32) {
        let start = Instant::now();
        self.inner.write(tid, var);
        let s = &self.slots[tid as usize];
        bump(&s.access_ns, &s.accesses, start);
    }
    fn acquire(&self, tid: u32, lock: u32) {
        let start = Instant::now();
        self.inner.acquire(tid, lock);
        let s = &self.slots[tid as usize];
        bump(&s.sync_ns, &s.syncs, start);
    }
    fn release(&self, tid: u32, lock: u32) {
        let start = Instant::now();
        self.inner.release(tid, lock);
        let s = &self.slots[tid as usize];
        bump(&s.sync_ns, &s.syncs, start);
    }
}

/// Callback totals of a traced run.
pub struct Callbacks {
    pub access_ns: u64,
    pub accesses: u64,
    pub sync_ns: u64,
    pub syncs: u64,
}

pub struct Bench {
    workload: DbWorkload,
    options: RunOptions,
    path: Path,
    rate: f64,
    /// Event count of the first run; the seed fixes every run's events.
    events: Option<u64>,
}

impl Bench {
    pub fn new(w: &Workload, seed: u64) -> Bench {
        Bench {
            workload: benchbase::by_name("ycsb").expect("ycsb is a built-in mix"),
            options: RunOptions {
                workers: w.workers,
                txns_per_worker: w.txns_per_worker,
                seed,
            },
            path: w.online,
            rate: w.rate,
            events: None,
        }
    }

    pub fn workers(&self) -> u32 {
        self.options.workers
    }

    pub fn path(&self) -> Path {
        self.path
    }

    fn sampler(&self) -> BernoulliSampler {
        BernoulliSampler::new(self.rate, self.options.seed)
    }

    /// The measured run, through dbsim's own entry points.
    fn run(&self) -> Txns {
        let start = Instant::now();
        let (stats, reports, counters) = match self.path {
            Path::SingleMutexSo => {
                let detector = OrderedListDetector::new(self.sampler());
                let (stats, detector, reports) =
                    run_detector(&self.workload, &self.options, detector);
                (stats, reports, *detector.counters())
            }
            Path::ShardedFt => run_sharded(
                &self.workload,
                &self.options,
                FastTrackDetector::new(self.sampler()),
                SHARDS,
                SyncMode::Seqlock,
                1,
            ),
        };
        Txns {
            wall: start.elapsed(),
            stats,
            counters,
            reports,
        }
    }

    /// The same run with every callback timed.
    pub fn run_traced(&self) -> (Txns, Callbacks) {
        let start = Instant::now();
        let (stats, reports, counters, slots) = match self.path {
            Path::SingleMutexSo => {
                let inst = DetectorInstrument::new(OrderedListDetector::new(self.sampler()));
                let (stats, timed) = self.run_timed(inst);
                let (detector, reports) = timed
                    .inner
                    .try_finish()
                    .unwrap_or_else(|e| panic!("workers are joined: {e}"));
                (stats, reports, *detector.counters(), timed.slots)
            }
            Path::ShardedFt => {
                let inst = ShardedInstrument::with_options(
                    FastTrackDetector::new(self.sampler()),
                    SHARDS,
                    SyncMode::Seqlock,
                    1,
                );
                inst.reserve_threads(self.options.workers as usize);
                let (stats, timed) = self.run_timed(inst);
                let (reports, counters) = timed
                    .inner
                    .try_finish()
                    .unwrap_or_else(|e| panic!("workers are joined: {e}"));
                (stats, reports, counters, timed.slots)
            }
        };
        let total = |f: fn(&Slot) -> &AtomicU64| slots.iter().map(|s| f(s).load(Relaxed)).sum();
        let callbacks = Callbacks {
            access_ns: total(|s| &s.access_ns),
            accesses: total(|s| &s.accesses),
            sync_ns: total(|s| &s.sync_ns),
            syncs: total(|s| &s.syncs),
        };
        let txns = Txns {
            wall: start.elapsed(),
            stats,
            counters,
            reports,
        };
        (txns, callbacks)
    }

    fn run_timed<I: Instrument + 'static>(&self, inner: I) -> (LatencyStats, Timed<I>) {
        let timed = Arc::new(Timed {
            inner,
            slots: (0..self.options.workers).map(|_| Slot::default()).collect(),
        });
        let stats = run_benchmark(&self.workload, &self.options, timed.clone());
        let timed = Arc::try_unwrap(timed)
            .ok()
            .expect("run_benchmark joins every worker before returning");
        (stats, timed)
    }

    /// The uninstrumented baseline (the paper's NT) on the same seed.
    pub fn run_uninstrumented(&self) -> LatencyStats {
        run_benchmark(&self.workload, &self.options, Arc::new(NoInstrument))
    }

    pub fn check(&mut self, txns: &Txns, checks: &mut Checks) {
        let c = &txns.counters;
        let first = *self.events.get_or_insert(c.events);
        checks.record(
            "online event count repeats for the seed",
            if c.events == first {
                Ok(())
            } else {
                Err(format!("{} events, first run had {first}", c.events))
            },
        );
        checks.record(
            "sampled + skipped == reads + writes",
            if c.sampled_accesses + c.skipped_accesses() == c.reads + c.writes {
                Ok(())
            } else {
                Err(format!("{c:?}"))
            },
        );
        if let Path::ShardedFt = self.path {
            checks.record(
                "sharded FT finds a seeded race",
                if txns.reports.is_empty() {
                    Err("no race reported".to_owned())
                } else {
                    Ok(())
                },
            );
        }
    }

    /// One measured run, checked.
    pub fn round(&mut self, checks: &mut Checks, samples: &mut Samples) -> Txns {
        let txns = self.run();
        self.check(&txns, checks);
        samples.add(
            "txn_per_s",
            "1/s",
            txns.stats.transactions as f64 / txns.wall.as_secs_f64(),
        );
        samples.add("txn_mean_us", "us", txns.stats.mean_us());
        txns
    }
}
