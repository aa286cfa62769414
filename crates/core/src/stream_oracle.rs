//! A bounded-memory streaming ground-truth oracle.
//!
//! [`HbOracle`](crate::HbOracle) materializes the whole trace and pays
//! `O(N²)` bits for its ancestor bitsets, so the conformance story used
//! to stop exactly where the streaming pipeline begins. The
//! [`StreamingOracle`] closes that gap: it consumes any
//! [`EventSource`], keeps exact per-thread / per-lock vector-clock
//! frontiers, and holds a **sliding window** of the most recent sampled
//! accesses per variable (full clock snapshots included). An access
//! evicted from the window is not dropped — its timestamp is folded
//! into a per-`(variable, thread, kind)` **clock checkpoint**, so race
//! *existence* remains exactly decidable after eviction.
//!
//! # Guarantees (tested in `crates/core/tests/stream_oracle.rs`)
//!
//! * **Racy events are exact, for every window size** — even `0`.
//!   [`OracleOutcome::racy_events`] equals
//!   [`HbOracle::racy_events`](crate::HbOracle::racy_events) on any
//!   trace both can run on. This is stronger than the sound-subset
//!   minimum a windowed checker must provide, and it follows from two
//!   classical facts: (1) for an event `a` by thread `u`, `a ≤HB b` iff
//!   `C_a(u) ≤ C_b(u)` (the epoch lemma — `u`'s component only
//!   advances at `u`'s releases, so the scalar comparison decides the
//!   full vector order); and (2) accesses of one `(thread, kind)` pair
//!   to one variable are totally ordered by program order, so if the
//!   *latest* one is ordered before the current access, every older one
//!   is too. The checkpoint keeps exactly that latest expired epoch per
//!   `(variable, thread, kind)`, and FIFO eviction guarantees the
//!   checkpoint's maximum is the latest expired access.
//! * **Racy pairs are windowed**: [`OracleOutcome::window_pairs`]
//!   contains exactly the racy pairs whose earlier access was still in
//!   the window — always a subset of
//!   [`HbOracle::racy_pairs`](crate::HbOracle::racy_pairs), and equal
//!   to it (same order) whenever the window covers the trace.
//! * **Reservoir pairs are sound**: in reservoir mode a uniform sample
//!   of `K` accesses is retained with full clock snapshots and every
//!   new sampled access is checked against all of them — exact checks
//!   over a probabilistic pair population, giving full-trace pair
//!   coverage in expectation on corpus-scale inputs where no window
//!   fits. Reservoir selection is a deterministic function of the
//!   configured seed.
//!
//! Memory is `O(T² + L·T + V·(W·T + T) + K·T)` for `T` threads, `L`
//! locks, `V` variables, window `W` and reservoir `K` — independent of
//! the trace length `N`, which is what lets the differential suites run
//! over corpus-scale `.ftb` traces. The `freshtrack oracle` command
//! runs it with `W = 0` unless `--window` is given: racy events need no
//! window, and `O(T² + L·T + V·T)` state fits any input length.
//!
//! The oracle is deliberately *independent* of the production engines:
//! it uses plain [`VectorClock`]s (no copy-on-write sharing, no epochs,
//! no freshness or ordered-list machinery) and decides order by full
//! component-wise comparison ([`VectorClock::leq`]) rather than the
//! engines' scalar epoch tests, so a bug in the optimized timestamp
//! representations cannot hide in the ground truth.
//!
//! # Example
//!
//! ```
//! use freshtrack_core::{OracleConfig, StreamingOracle};
//! use freshtrack_sampling::AlwaysSampler;
//! use freshtrack_trace::TraceBuilder;
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! b.write(0, x);
//! b.write(1, x); // unsynchronized conflicting write
//! let trace = b.build();
//!
//! let oracle = StreamingOracle::new(AlwaysSampler::new(), OracleConfig::default());
//! let outcome = oracle.run_source(&mut trace.source()).unwrap();
//! assert_eq!(outcome.racy_events.len(), 1);
//! assert_eq!(outcome.window_pairs.len(), 1);
//! ```

use std::collections::VecDeque;

use freshtrack_clock::{ThreadId, VectorClock};
use freshtrack_sampling::Sampler;
use freshtrack_trace::{Event, EventId, EventKind, EventSource, LockId, SourceError, VarId};

/// Configuration for a [`StreamingOracle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleConfig {
    /// Maximum number of recent sampled accesses retained per variable
    /// with full clock snapshots. Accesses beyond the window are
    /// summarized into the per-variable clock checkpoint (racy *events*
    /// stay exact; racy *pairs* are only reported while the earlier
    /// access is still windowed). The default is `usize::MAX` — full
    /// pair coverage, memory proportional to the sampled access count.
    pub window: usize,
    /// Reservoir capacity `K`: keep a uniform sample of `K` sampled
    /// accesses (across all variables) and check every new sampled
    /// access against all of them. `0` (the default) disables the
    /// reservoir.
    pub reservoir: usize,
    /// Seed for the deterministic reservoir-replacement RNG.
    pub seed: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            window: usize::MAX,
            reservoir: 0,
            seed: 0,
        }
    }
}

/// Counters describing one oracle run, reported in
/// [`OracleOutcome::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Total events consumed.
    pub events: u64,
    /// Access events admitted to the sample set by the sampler.
    pub sampled_accesses: u64,
    /// Synchronization events processed.
    pub sync_events: u64,
    /// Accesses evicted from a window into a clock checkpoint.
    pub evictions: u64,
    /// Exact pair checks performed against windowed accesses.
    pub window_checks: u64,
    /// Exact pair checks performed against reservoir entries.
    pub reservoir_checks: u64,
    /// Racy events whose every racing partner had already been
    /// summarized — detected by the clock checkpoint alone, so no pair
    /// could be reported. Always `0` when the window covers the trace.
    pub summarized_races: u64,
    /// Largest number of entries any one variable's window held.
    pub peak_window_len: usize,
    /// Approximate bytes of live oracle state at the end of the run
    /// (clock frontiers + windows + checkpoints + reservoir).
    pub state_bytes: usize,
}

/// The result of draining a stream through a [`StreamingOracle`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleOutcome {
    /// Every sampled access that races with *some* earlier sampled
    /// access — exact (equal to [`HbOracle::racy_events`]) for every
    /// window size, in ascending [`EventId`] order, with the event
    /// itself attached so reports can be rendered without the trace.
    ///
    /// [`HbOracle::racy_events`]: crate::HbOracle::racy_events
    pub racy_events: Vec<(EventId, Event)>,
    /// Racy pairs `(earlier, later)` whose earlier access was still in
    /// the window: a subset of [`HbOracle::racy_pairs`], equal to it
    /// (same order) when the window covers the trace.
    ///
    /// [`HbOracle::racy_pairs`]: crate::HbOracle::racy_pairs
    pub window_pairs: Vec<(EventId, EventId)>,
    /// Racy pairs found against reservoir entries (exact checks over a
    /// uniform sample of earlier accesses). May overlap
    /// [`OracleOutcome::window_pairs`] when a reservoir entry is still
    /// windowed; [`OracleOutcome::pairs`] merges and deduplicates.
    pub reservoir_pairs: Vec<(EventId, EventId)>,
    /// Run statistics.
    pub stats: OracleStats,
}

impl OracleOutcome {
    /// All distinct racy pairs found (window ∪ reservoir), sorted by
    /// `(later, earlier)` — [`HbOracle::racy_pairs`]'s order.
    ///
    /// [`HbOracle::racy_pairs`]: crate::HbOracle::racy_pairs
    pub fn pairs(&self) -> Vec<(EventId, EventId)> {
        let mut all: Vec<(EventId, EventId)> = self
            .window_pairs
            .iter()
            .chain(self.reservoir_pairs.iter())
            .copied()
            .collect();
        all.sort_by_key(|&(a, b)| (b, a));
        all.dedup();
        all
    }

    /// The racy event ids alone, for comparison against
    /// [`HbOracle::racy_events`](crate::HbOracle::racy_events).
    pub fn racy_ids(&self) -> Vec<EventId> {
        self.racy_events.iter().map(|&(id, _)| id).collect()
    }
}

/// One retained access: identity plus the full clock snapshot of its
/// thread at access time.
#[derive(Clone, Debug)]
struct Retained {
    id: EventId,
    tid: ThreadId,
    var: VarId,
    write: bool,
    clock: VectorClock,
}

impl Retained {
    /// `self ≤HB current`, by full component-wise comparison of the
    /// retained snapshot against the current thread's frontier.
    fn ordered_before(&self, current: &VectorClock) -> bool {
        self.clock.leq(current)
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Retained>() + self.clock.len() * 8
    }
}

/// Per-variable window + clock checkpoint.
#[derive(Clone, Debug, Default)]
struct VarState {
    /// FIFO of the most recent sampled accesses (both kinds, all
    /// threads), capacity [`OracleConfig::window`].
    recent: VecDeque<Retained>,
    /// Clock checkpoint over evicted accesses: `expired_writes(u)` is
    /// the largest `u`-component epoch of any evicted sampled write by
    /// `u` — i.e. the epoch of the *latest* evicted write by `u`, since
    /// eviction is FIFO and epochs are monotone per thread.
    expired_writes: VectorClock,
    /// Same checkpoint for evicted reads.
    expired_reads: VectorClock,
}

/// A bounded-memory ground-truth race checker over any [`EventSource`].
///
/// See the module docs above for the exactness and soundness
/// guarantees, and [`OracleConfig`] for the window / reservoir knobs.
/// The sampler decides the sample set exactly as it does for the
/// detectors, so outcomes are directly comparable with both
/// [`HbOracle`](crate::HbOracle) masks and engine reports.
#[derive(Clone, Debug)]
pub struct StreamingOracle<S> {
    sampler: S,
    config: OracleConfig,
    threads: Vec<VectorClock>,
    locks: Vec<VectorClock>,
    vars: Vec<VarState>,
    reservoir: Vec<Retained>,
    /// Sampled accesses seen so far — the reservoir's population size.
    reservoir_seen: u64,
    rng: u64,
    next_id: u64,
    racy_events: Vec<(EventId, Event)>,
    window_pairs: Vec<(EventId, EventId)>,
    reservoir_pairs: Vec<(EventId, EventId)>,
    stats: OracleStats,
}

impl<S: Sampler> StreamingOracle<S> {
    /// Creates an oracle with the given sampler and configuration.
    pub fn new(sampler: S, config: OracleConfig) -> Self {
        StreamingOracle {
            sampler,
            config,
            threads: Vec::new(),
            locks: Vec::new(),
            vars: Vec::new(),
            reservoir: Vec::new(),
            reservoir_seen: 0,
            rng: splitmix64(config.seed ^ 0x9e37_79b9_7f4a_7c15),
            next_id: 0,
            racy_events: Vec::new(),
            window_pairs: Vec::new(),
            reservoir_pairs: Vec::new(),
            stats: OracleStats::default(),
        }
    }

    /// Consumes one event. `id` must be the event's stream position,
    /// strictly increasing across calls — the same numbering the
    /// detectors and [`HbOracle`](crate::HbOracle) use.
    pub fn on_event(&mut self, id: EventId, event: Event) {
        self.stats.events += 1;
        self.ensure_thread(event.tid);
        match event.kind {
            EventKind::Acquire(l) => self.acquire(event.tid, l),
            EventKind::Release(l) => self.release(event.tid, l),
            EventKind::Read(v) | EventKind::Write(v) => {
                if self.sampler.sample(id, event) {
                    self.stats.sampled_accesses += 1;
                    let write = matches!(event.kind, EventKind::Write(_));
                    self.access(id, event, v, write);
                }
            }
        }
    }

    /// Drains `source`, numbering events by stream position (continuing
    /// from any events already fed), and returns the outcome.
    ///
    /// # Errors
    ///
    /// Propagates the first error the source reports; partial findings
    /// are dropped with it, as for
    /// [`Detector::run_source`](crate::Detector::run_source).
    pub fn run_source(
        mut self,
        source: &mut dyn EventSource,
    ) -> Result<OracleOutcome, SourceError> {
        self.feed_source(source)?;
        Ok(self.finish())
    }

    /// Feeds every remaining event of `source`, numbering by stream
    /// position, without finishing — the resumable half of
    /// [`run_source`](StreamingOracle::run_source).
    ///
    /// # Errors
    ///
    /// Propagates the first error the source reports.
    pub fn feed_source(&mut self, source: &mut dyn EventSource) -> Result<(), SourceError> {
        while let Some(event) = source.next_event()? {
            let id = EventId::new(self.next_id);
            self.next_id += 1;
            self.on_event(id, event);
        }
        Ok(())
    }

    /// Finalizes the run: computes the end-of-run state footprint and
    /// returns everything found.
    pub fn finish(mut self) -> OracleOutcome {
        self.stats.state_bytes = self.approx_state_bytes();
        OracleOutcome {
            racy_events: self.racy_events,
            window_pairs: self.window_pairs,
            reservoir_pairs: self.reservoir_pairs,
            stats: self.stats,
        }
    }

    fn ensure_thread(&mut self, tid: ThreadId) {
        while self.threads.len() <= tid.index() {
            let next = ThreadId::new(self.threads.len() as u32);
            // C_t ← ⊥[t ↦ 1], matching the sync engines so retained
            // epochs line up with the frontier components.
            self.threads.push(VectorClock::bottom_with(next, 1));
        }
    }

    fn ensure_lock(&mut self, lock: LockId) {
        if self.locks.len() <= lock.index() {
            self.locks.resize_with(lock.index() + 1, VectorClock::new);
        }
    }

    fn acquire(&mut self, tid: ThreadId, lock: LockId) {
        self.stats.sync_events += 1;
        self.ensure_lock(lock);
        let lock_clock = &self.locks[lock.index()];
        if !lock_clock.is_empty() {
            self.threads[tid.index()].join(lock_clock);
        }
    }

    fn release(&mut self, tid: ThreadId, lock: LockId) {
        self.stats.sync_events += 1;
        self.ensure_lock(lock);
        // Cℓ ← C_t, then bump the local component so later events of
        // `tid` are distinguishable from the released frontier.
        let clock = &mut self.threads[tid.index()];
        self.locks[lock.index()].assign_from(clock);
        clock.increment(tid);
    }

    fn access(&mut self, id: EventId, event: Event, var: VarId, write: bool) {
        if self.vars.len() <= var.index() {
            self.vars.resize_with(var.index() + 1, VarState::default);
        }
        let tid = event.tid;
        let current = &self.threads[tid.index()];
        let state = &mut self.vars[var.index()];

        // 1. Exact pair checks against the window.
        let mut racy = false;
        for earlier in &state.recent {
            if earlier.tid == tid || !(earlier.write || write) {
                continue;
            }
            self.stats.window_checks += 1;
            if !earlier.ordered_before(current) {
                racy = true;
                self.window_pairs.push((earlier.id, id));
            }
        }

        // 2. Clock-checkpoint test over evicted accesses: a race with
        // some evicted access by `u` exists iff the checkpoint's
        // `u`-component exceeds the current frontier's (the epoch
        // lemma). Writes always conflict; reads only against a write.
        let mut summarized = checkpoint_races(&state.expired_writes, current, tid);
        if write {
            summarized |= checkpoint_races(&state.expired_reads, current, tid);
        }
        if summarized && !racy {
            self.stats.summarized_races += 1;
        }
        racy |= summarized;

        // 3. Exact checks against the cross-variable reservoir: entries
        // carry their variable, so conflict needs matching variables,
        // differing threads, and at least one write. A hit is an exact
        // race over a uniformly sampled pair population; it is reported
        // as a pair but does NOT mark the event racy — `racy_events`
        // stays exactly `HbOracle::racy_events` regardless of K.
        let current_clock = current.clone();
        if self.config.reservoir > 0 {
            for earlier in &self.reservoir {
                if earlier.var != var || earlier.tid == tid || !(earlier.write || write) {
                    continue;
                }
                self.stats.reservoir_checks += 1;
                if !earlier.ordered_before(&current_clock) {
                    self.reservoir_pairs.push((earlier.id, id));
                }
            }
        }

        // 4. Record the racy event (at most once per event, like the
        // detectors), then retain the access.
        if racy {
            self.racy_events.push((id, event));
        }
        let state = &mut self.vars[var.index()];
        let retained = Retained {
            id,
            tid,
            var,
            write,
            clock: current_clock,
        };
        state.recent.push_back(retained.clone());
        while state.recent.len() > self.config.window {
            let evicted = state.recent.pop_front().expect("len > window ≥ 0");
            self.stats.evictions += 1;
            let target = if evicted.write {
                &mut state.expired_writes
            } else {
                &mut state.expired_reads
            };
            let epoch = evicted.clock.get(evicted.tid);
            if epoch > target.get(evicted.tid) {
                target.set(evicted.tid, epoch);
            }
        }
        self.stats.peak_window_len = self.stats.peak_window_len.max(state.recent.len());

        // 5. Reservoir maintenance (algorithm R, deterministic RNG).
        if self.config.reservoir > 0 {
            self.reservoir_seen += 1;
            if self.reservoir.len() < self.config.reservoir {
                self.reservoir.push(retained);
            } else {
                self.rng = splitmix64(self.rng);
                let j = (self.rng % self.reservoir_seen) as usize;
                if j < self.reservoir.len() {
                    self.reservoir[j] = retained;
                }
            }
        }
    }

    fn approx_state_bytes(&self) -> usize {
        let clock_bytes = |c: &VectorClock| std::mem::size_of::<VectorClock>() + c.len() * 8;
        let mut bytes = 0;
        for c in self.threads.iter().chain(self.locks.iter()) {
            bytes += clock_bytes(c);
        }
        for v in &self.vars {
            bytes += clock_bytes(&v.expired_writes) + clock_bytes(&v.expired_reads);
            bytes += v.recent.iter().map(Retained::approx_bytes).sum::<usize>();
        }
        bytes += self
            .reservoir
            .iter()
            .map(Retained::approx_bytes)
            .sum::<usize>();
        bytes
    }
}

/// Does the current access race with any summarized (evicted) access
/// recorded in `checkpoint`? True iff some component of the checkpoint
/// (other than the acting thread's) exceeds the current frontier.
fn checkpoint_races(checkpoint: &VectorClock, current: &VectorClock, tid: ThreadId) -> bool {
    checkpoint
        .iter()
        .any(|(u, epoch)| u != tid && epoch > 0 && epoch > current.get(u))
}

/// SplitMix64 — the deterministic reservoir RNG (no external deps; the
/// core crate stays dependency-free below `sampling`).
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
