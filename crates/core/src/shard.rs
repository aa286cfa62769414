use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use freshtrack_clock::{PublishedClock, ThreadId, Time};
use freshtrack_trace::{Event, EventId, EventKind, LockId, VarId};

use crate::counters::SkipCells;
use crate::plane::{AccessEngine, PublishedView, SplitDetector, SyncEngine, ViewSource};
use crate::{Counters, HoistedDecider, RaceReport};

/// How sharded ingestion keeps the happens-before (sync) skeleton.
///
/// There is one construction, [`SyncMode::Seqlock`], which
/// [`ShardedOnlineDetector`] always uses. The type survives only so
/// the dbsim entry points `run_sharded` and
/// `ShardedInstrument::with_options`, which benchmark code calls with
/// an explicit mode, keep their signatures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// One [`SyncEngine`] owns every thread/lock clock behind a
    /// sync-only lock. Each sync event writes the issuing thread's
    /// spliced race-check clock in place into a
    /// [`PublishedClock`](freshtrack_clock::PublishedClock) under an
    /// even/odd version word; accesses snapshot it lock-free and retry
    /// on torn reads.
    Seqlock,
}

/// A sharded ingestion façade: per-variable access analysis across `N`
/// independently-locked shards around one sync plane, whose per-thread
/// clock views are published through seqlocks.
///
/// The single-mutex [`OnlineDetector`](crate::OnlineDetector)
/// reproduces the paper's Fig. 5 contention model faithfully — every
/// event serializes through one analysis lock — but that same lock
/// bounds throughput once per-event clock work is cheap. This type is
/// the standard sanitizer-runtime answer (ThreadSanitizer's shadow
/// memory is per-location; its thread/sync clocks are kept once):
/// shard the *access* analysis by variable and keep synchronization
/// state global.
///
/// # Routing rule
///
/// * **Access events** (`Read`/`Write` of variable `v`) draw their
///   ticket and their sampling verdict *before any lock* (see the skip
///   path below). A sampled-out access returns immediately; a sampled
///   access goes to exactly one shard, `hash(v) mod N`, under that
///   shard's lock only. With a batch capacity `B > 1` sampled accesses
///   are first buffered in a per-shard batch; one shard-lock
///   acquisition then amortizes over up to `B` events at flush time.
/// * **Sync events** (`Acquire`/`Release`) first flush every pending
///   batch (a thread's buffered accesses must be analyzed against the
///   view preceding its sync event), then update the single
///   [`SyncEngine`] behind its sync-only lock and republish the issuing
///   thread's clock view into its seqlock slot.
///
/// # The lock-free skip path
///
/// When the wrapped detector exposes a
/// [`hoisted_decider`](crate::Detector::hoisted_decider) — a pure
/// function of `(EventId, Event)`, which every engine in this crate
/// does (invariant 4 in `ARCHITECTURE.md`) — an access event touches
/// **no lock at all** until it is known to be sampled:
///
/// 1. draw a ticket from the atomic event counter (`fetch_add`),
/// 2. evaluate the decider on `(ticket, event)`,
/// 3. if sampled out: bump a cache-line-striped thread-local skip cell
///    and return — no shard routing, no shard or batch lock, no batch
///    enqueue, no clock-view snapshot.
///
/// Only sampled accesses proceed to slot admission, the `RelAfter_S`
/// flag, and the shard (or batch) lock. At a sampling rate `r` the
/// expected locked work per access is `O(r)`; the skip path itself is
/// two relaxed atomic RMWs. The skipped tallies are folded into the
/// merged [`Counters`] bit-exactly at
/// [`finish_merged`](ShardedOnlineDetector::finish_merged). Detectors
/// that do not expose a decider fall back to the pre-hoist behavior:
/// every access takes its shard lock and the engine decides inline.
///
/// # Why verdicts are preserved (invariant 10)
///
/// Event ids come from one atomic ticket, drawn at the top of
/// [`on_event`](ShardedOnlineDetector::on_event) *outside every lock*.
/// Three observations make this sound:
///
/// * **Sampled-out accesses mutate nothing.** Their processing is a
///   counter bump; they commute with every other event, so their
///   position in any processing order is irrelevant — only their
///   ticket (which feeds the pure sampler) matters, and that is fixed
///   at draw time.
/// * **Causally ordered events keep ticket order.** An instrumentation
///   call returns before the same thread issues its next event, and
///   cross-thread ordering is only established through the
///   application's own synchronization — which likewise orders the
///   corresponding `on_event` calls in real time. `fetch_add` on a
///   single atomic is coherent, so an event that *happens before*
///   another always draws the smaller ticket. A thread's accesses
///   therefore draw tickets after its past sync events and before its
///   future ones, which is exactly what the view argument below needs.
/// * **Concurrent analyzed events may invert ticket order** inside a
///   shard (the ticket is no longer drawn under the shard lock). Such
///   events are unordered by happens-before, so either analysis order
///   is a valid linearization — the race verdict for a concurrent
///   conflicting pair is reported whichever side is analyzed second.
///   Per-shard report lists are consequently no longer guaranteed
///   ticket-sorted; the merge sorts once at
///   [`finish`](ShardedOnlineDetector::finish) and the published order
///   is deterministic for any sequentially fed stream.
///
/// An access's verdict depends only on (a) the issuing thread's clock —
/// which changes *only* at that thread's own sync events, all
/// ticket-ordered around the access by the causal argument above — and
/// (b) its variable's history inside one shard. The view published at
/// the thread's latest sync event is therefore precisely the clock a
/// monolithic detector would consult at the access's ticket position.
/// Samplers are deterministic in `(seed, EventId)` (invariant 4), so
/// the sample set is identical too — hoisting the decision changes
/// *where* it is computed, never *what* it returns. The one access→sync
/// feedback, the `RelAfter_S` bit, is maintained on the hoisted side:
/// set by the issuing thread itself the moment its access is admitted,
/// consumed at the same thread's next release — sequenced by that
/// thread's own program order, with no lock in between.
///
/// Batching preserves this argument because views are resolved at
/// *flush* time and every sync event flushes all batches before it
/// mutates any clock: a buffered access's thread cannot have passed a
/// sync event between its ticket draw and its flush (its own sync event
/// would have flushed it first), so the flush-time view equals the
/// draw-time view. Buffered accesses report their verdict at flush
/// (`on_event` returns `false` for them); the merged report list is
/// unchanged, which `crates/core/tests/sharding.rs` pins differentially
/// across batch sizes.
///
/// Per-thread clock views are only ever read by their own thread's
/// accesses and written by the same thread's sync events; callers must
/// issue each thread id's events from one thread at a time (which every
/// real instrumentation source does — a thread's events *are* its
/// program order).
///
/// # Cost model
///
/// A sampled-out access pays two relaxed atomic RMWs and nothing else
/// (measured in `BENCH_access_cost.json`). A sampled access pays one
/// `1/N`-contended shard lock (or `1/B` of one, with batching); access
/// analysis for different shards runs in parallel. A sync event pays
/// one sync-lock acquisition plus **one** copy of the engine's sync
/// clock work and a publication — flat in `N` (measured in
/// `BENCH_sync_cost.json`). The publication is a version-word bump
/// around the changed words — no lock, no allocation, no refcount
/// traffic. The two planes partition the event space, so the merged
/// [`Counters`] are a plain sum and equal the monolith's exactly.
///
/// # Example
///
/// ```
/// use freshtrack_core::{DjitDetector, ShardedOnlineDetector};
/// use freshtrack_sampling::AlwaysSampler;
/// use std::sync::Arc;
///
/// let sharded = Arc::new(ShardedOnlineDetector::new(
///     DjitDetector::new(AlwaysSampler::new()),
///     4,
/// ));
/// let handles: Vec<_> = (0..2)
///     .map(|t| {
///         let sharded = Arc::clone(&sharded);
///         std::thread::spawn(move || sharded.write(t, 0))
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// let races = Arc::try_unwrap(sharded).ok().unwrap().finish();
/// assert_eq!(races.len(), 1); // the two writes race
/// ```
pub struct ShardedOnlineDetector<D: SplitDetector> {
    /// The sync plane: every thread/lock clock, exactly once, behind a
    /// lock only sync events (and new-thread admission) take.
    sync: Mutex<SyncPlane<D::Sync>>,
    /// One seqlock publication slot per thread, in a grow-only chunked
    /// table that is never reallocated — readers hold plain references
    /// with no lock at all.
    slots: SeqSlots,
    /// The access plane: per-variable histories, sharded.
    shards: Vec<Mutex<AccessShard<D::Access>>>,
    batch: BatchPlane,
    next_id: AtomicU64,
    /// The hoisted sampling decision (see the skip-path docs); `None`
    /// only for detectors that cannot expose one, which keeps the
    /// pre-hoist locked inline path.
    decider: Option<HoistedDecider>,
    /// Striped skip tallies for the lock-free path, folded into the
    /// merged counters at `finish_merged`.
    skip: SkipCells,
    /// Access-plane shard-lock acquisitions, for regression tests that
    /// pin the skip path lock-free (debug builds only).
    #[cfg(debug_assertions)]
    shard_locks: AtomicU64,
}

struct SyncPlane<E> {
    engine: E,
    counters: Counters,
    publisher: Publisher,
}

struct AccessShard<A> {
    engine: A,
    counters: Counters,
    reports: Vec<RaceReport>,
    /// The decoded snapshot one access's race check reads through a
    /// [`PublishedView`]. Lives with the shard so the hot path never
    /// allocates.
    scratch: Vec<Time>,
}

impl<A> AccessShard<A> {
    fn new(engine: A) -> Self {
        AccessShard {
            engine,
            counters: Counters::new(),
            reports: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// Seqlock publication.
// ---------------------------------------------------------------------

/// One thread's seqlock publication slot.
struct SeqSlot {
    /// The thread's spliced race-check clock (`C_t[t ↦ e_t]`), written
    /// in place by the thread's own sync events (serialized under the
    /// sync lock), snapshot lock-free by the same thread's accesses.
    clock: PublishedClock,
    /// The `RelAfter_S` bit: set by the thread's sampled accesses,
    /// consumed (and reset) by its next release.
    sampled: AtomicBool,
}

/// Slots in chunk 0; chunk `c` holds `SLOT_CHUNK0 << c` slots.
const SLOT_CHUNK0: usize = 8;
/// Chunk count; capacity `SLOT_CHUNK0 * (2^SLOT_CHUNKS - 1)` threads.
const SLOT_CHUNKS: usize = 24;

/// A grow-only, lock-free slot table: doubling chunks behind
/// `OnceLock`, so admitted slots never move and the read fast path is
/// one atomic load plus a chunk lookup. Admission (chunk init + bump of
/// `admitted`) happens under the sync lock.
struct SeqSlots {
    /// Slots `0..admitted` are initialized and published (the bump is a
    /// release store after the slot's first publication).
    admitted: AtomicUsize,
    chunks: [OnceLock<Box<[SeqSlot]>>; SLOT_CHUNKS],
}

impl SeqSlots {
    fn new() -> Self {
        SeqSlots {
            admitted: AtomicUsize::new(0),
            chunks: [const { OnceLock::new() }; SLOT_CHUNKS],
        }
    }

    fn chunk_of(index: usize) -> (usize, usize) {
        let c = (index / SLOT_CHUNK0 + 1).ilog2() as usize;
        (c, index - SLOT_CHUNK0 * ((1usize << c) - 1))
    }

    /// Lock-free lookup; `None` until the thread has been admitted.
    fn get(&self, index: usize) -> Option<&SeqSlot> {
        if index >= self.admitted.load(Ordering::Acquire) {
            return None;
        }
        let (c, off) = Self::chunk_of(index);
        let chunk = self.chunks[c]
            .get()
            .expect("admitted slots live in initialized chunks");
        Some(&chunk[off])
    }

    /// The next index to admit. Call under the sync lock.
    fn admitted(&self) -> usize {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Initializes (if needed) the chunk holding `index` and returns
    /// the slot, not yet visible to `get`. Call under the sync lock.
    fn slot_for_admission(&self, index: usize) -> &SeqSlot {
        let (c, off) = Self::chunk_of(index);
        let chunk = self.chunks[c].get_or_init(|| {
            (0..SLOT_CHUNK0 << c)
                .map(|_| SeqSlot {
                    clock: PublishedClock::new(),
                    sampled: AtomicBool::new(false),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        &chunk[off]
    }

    /// Makes slots `0..len` visible to `get`. Call under the sync lock,
    /// after the new slot's first publication.
    fn publish_admission(&self, len: usize) {
        self.admitted.store(len, Ordering::Release);
    }
}

/// Writer-private seqlock publication state: the dense scratch a sync
/// event linearizes into, plus a copy of the last image actually
/// published per thread. Both live with the sync plane — there is one
/// writer at a time, under the sync mutex — so the change diff below
/// runs on plain memory (no atomic loads, vectorizable) and the
/// seqlock is only touched for the words that actually moved.
struct Publisher {
    /// Dense clock the engine memcpys into
    /// ([`SyncEngine::publish_dense`]); reused across events.
    scratch: Vec<Time>,
    /// `cache[t]` mirrors slot `t`'s published words exactly:
    /// [`Publisher::publish`] is the sole writer of both.
    cache: Vec<Vec<Time>>,
    /// All-zero slice the idle-tail trim compares against, so the
    /// check compiles to a vectorized memcmp instead of a scalar
    /// early-exit scan.
    zeros: Vec<Time>,
    /// One past the highest thread id that has had a *sync event*
    /// (admissions do not count). Epochs circulate between clocks only
    /// through releases — themselves sync events serialized by the same
    /// mutex — so no spliced clock has a non-zero entry at or above
    /// this bound; it is the `width_cap` event publications pass to
    /// [`SyncEngine::publish_dense`].
    active: usize,
}

impl Publisher {
    fn new() -> Self {
        Publisher {
            scratch: Vec::new(),
            cache: Vec::new(),
            zeros: Vec::new(),
            active: 0,
        }
    }

    /// Publishes at one of `tid`'s sync events: the hot path. The
    /// engine linearizes at most [`active`](Publisher::active) entries.
    fn publish_event<E: SyncEngine>(
        &mut self,
        engine: &mut E,
        tid: ThreadId,
        clock: &PublishedClock,
    ) {
        self.active = self.active.max(tid.index() + 1);
        self.publish(engine, tid, clock, self.active);
    }

    /// Publishes at `tid`'s admission (or a reservation republish):
    /// makes no activity assumption, so the engine's full width is
    /// linearized and the idle tail trimmed by scan. Cold path — runs
    /// once per admitted slot, not per event.
    fn publish_admission<E: SyncEngine>(
        &mut self,
        engine: &mut E,
        tid: ThreadId,
        clock: &PublishedClock,
    ) {
        self.publish(engine, tid, clock, usize::MAX);
    }

    /// Publishes `tid`'s current spliced race-check view into `clock`.
    ///
    /// Dense fast path: the engine memcpys its contiguous clock into
    /// scratch ([`SyncEngine::publish_dense`]), capped at `width_cap`
    /// entries — no typed view is materialized, no refcount is
    /// touched, and the engine's clock never leaves sole ownership.
    /// The scratch is then diffed against the writer-private copy of
    /// the last publication: an identical image (sync events that did
    /// not move the clock) publishes nothing at all, and a changed one
    /// stores only the changed word range — for the common case (an
    /// epoch bump, a join touching one entry) that is one or two
    /// seqlock stores, not a full clock.
    fn publish<E: SyncEngine>(
        &mut self,
        engine: &mut E,
        tid: ThreadId,
        clock: &PublishedClock,
        width_cap: usize,
    ) {
        if self.cache.len() <= tid.index() {
            self.cache.resize_with(tid.index() + 1, Vec::new);
        }
        if let Some(img) = engine.publish_dense_ref(tid, width_cap) {
            // Zero-copy: the engine's clock storage is the dense image
            // (no splice needed), so nothing is materialized at all.
            publish_image(
                &mut self.cache[tid.index()],
                &mut self.zeros,
                img,
                tid,
                clock,
            );
            return;
        }
        engine.publish_dense(tid, width_cap, &mut self.scratch);
        publish_image(
            &mut self.cache[tid.index()],
            &mut self.zeros,
            &self.scratch,
            tid,
            clock,
        );
    }
}

/// Diffs one dense image `img` (already capped by the caller's
/// `width_cap` promise) against `prev` — the writer-private copy of the
/// last publication — and republishes only what changed.
///
/// Trims the idle tail before diffing: entries past the previous
/// publication that are still zero are a reservation tail no reader can
/// distinguish from absent entries ([`PublishedView`]'s `time_of` reads
/// past-the-end as 0, and 0 ⊑ anything), so after a wide
/// `reserve_threads` the publication stays proportional to the *active*
/// width. Clock entries are monotone, so a published width never
/// shrinks — the trim point only grows when a new thread's epoch
/// actually reaches this clock (the rare rescan branch). The all-zero
/// check compares against `zeros` so it compiles to a vectorized
/// memcmp, not a scalar early-exit scan.
fn publish_image(
    prev: &mut Vec<Time>,
    zeros: &mut Vec<Time>,
    img: &[Time],
    tid: ThreadId,
    clock: &PublishedClock,
) {
    let keep = (tid.index() + 1).max(prev.len()).min(img.len());
    if zeros.len() < img.len() {
        zeros.resize(img.len(), 0);
    }
    let trimmed = if img[keep..] == zeros[..img.len() - keep] {
        keep
    } else {
        let last = img.iter().rposition(|&t| t != 0).expect("tail is non-zero");
        (last + 1).max(keep)
    };
    let img = &img[..trimmed];
    if prev.len() == trimmed {
        let a = prev.as_slice();
        let mut first = 0;
        while first < trimmed && a[first] == img[first] {
            first += 1;
        }
        if first == trimmed {
            return; // the clock did not move: publish nothing at all
        }
        let mut last = trimmed - 1;
        while a[last] == img[last] {
            last -= 1;
        }
        clock.store_changed(img, first, last);
        prev[first..=last].copy_from_slice(&img[first..=last]);
    } else {
        // Width changed (thread admission / reservation regrow): take
        // the general path, which also handles chunk growth.
        clock.store_slice(img);
        prev.clear();
        prev.extend_from_slice(img);
    }
}

// ---------------------------------------------------------------------
// Batched ingestion.
// ---------------------------------------------------------------------

/// A bounded per-shard buffer of ticketed access events awaiting
/// analysis. Filled and drained under the shard's batch lock, so the
/// FIFO order *is* ticket order restricted to the shard.
struct AccessBatch {
    events: Vec<(EventId, Event)>,
}

struct BatchPlane {
    /// Events buffered per shard before an inline flush; `1` disables
    /// buffering (every access is analyzed inside its own call).
    capacity: usize,
    /// Total buffered events across all shards — lets the sync path
    /// skip the flush sweep with a single load when nothing is pending.
    pending: AtomicU64,
    /// One batch per access shard (lock order: batch(k) → shard(k)).
    batches: Vec<Mutex<AccessBatch>>,
}

/// [`ViewSource`] over the seqlock slot table: decodes the thread's
/// publication into the shard's scratch buffer, lock-free.
struct SeqViews<'a> {
    slots: &'a SeqSlots,
    scratch: &'a mut Vec<Time>,
}

impl ViewSource for SeqViews<'_> {
    type View<'b>
        = PublishedView<'b>
    where
        Self: 'b;

    fn view(&mut self, tid: ThreadId) -> PublishedView<'_> {
        let slot = self
            .slots
            .get(tid.index())
            .expect("buffered accesses come from admitted threads");
        slot.clock.read_into(self.scratch);
        PublishedView::new(self.scratch)
    }
}

impl<D: SplitDetector> std::fmt::Debug for ShardedOnlineDetector<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedOnlineDetector")
            .field("shards", &self.shard_count())
            .field("events", &self.events_processed())
            .field("hoisted", &self.decider.is_some())
            .finish_non_exhaustive()
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().expect("detector shard mutex poisoned")
}

impl<D: SplitDetector> ShardedOnlineDetector<D> {
    /// Builds a sharded detector with unbatched ingestion.
    ///
    /// `detector` must be in its initial state: it seeds the engine
    /// configuration of both planes; a detector that has already
    /// processed events would give the planes inconsistent views of
    /// the happens-before skeleton.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(detector: D, shards: usize) -> Self {
        Self::with_options(detector, shards, 1)
    }

    /// Builds a sharded detector with a per-shard access-batch
    /// capacity.
    ///
    /// `batch == 1` analyzes every access inside its own `on_event`
    /// call (and reports its verdict through the return value);
    /// `batch > 1` buffers up to `batch` access events per shard so one
    /// shard-lock acquisition amortizes over the whole batch — buffered
    /// accesses return `false` from `on_event` and surface their
    /// reports at flush time (next full batch, next sync event, or
    /// [`finish`](ShardedOnlineDetector::finish)). Merged reports and
    /// counters are identical across batch capacities.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `batch` is zero.
    pub fn with_options(detector: D, shards: usize, batch: usize) -> Self {
        assert!(shards > 0, "at least one shard is required");
        assert!(batch > 0, "at least a batch capacity of one is required");
        ShardedOnlineDetector {
            sync: Mutex::new(SyncPlane {
                engine: detector.split_sync(),
                counters: Counters::new(),
                publisher: Publisher::new(),
            }),
            slots: SeqSlots::new(),
            shards: (0..shards)
                .map(|_| Mutex::new(AccessShard::new(detector.split_access())))
                .collect(),
            batch: BatchPlane {
                capacity: batch,
                pending: AtomicU64::new(0),
                batches: (0..shards)
                    .map(|_| {
                        Mutex::new(AccessBatch {
                            events: Vec::with_capacity(if batch > 1 { batch } else { 0 }),
                        })
                    })
                    .collect(),
            },
            next_id: AtomicU64::new(0),
            decider: detector.hoisted_decider(),
            skip: SkipCells::new(),
            #[cfg(debug_assertions)]
            shard_locks: AtomicU64::new(0),
        }
    }

    /// Number of access shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard access-batch capacity (`1` = unbatched).
    pub fn batch_capacity(&self) -> usize {
        self.batch.capacity
    }

    /// Pre-sizes per-thread clock state for `n` application threads
    /// (see [`Detector::reserve_threads`](crate::Detector::reserve_threads)).
    /// Call once before the
    /// workers start so the event hot path never grows a clock while a
    /// lock is held.
    pub fn reserve_threads(&self, n: usize) {
        let mut sync = lock(&self.sync);
        let SyncPlane {
            engine, publisher, ..
        } = &mut *sync;
        engine.reserve_threads(n);
        for idx in 0..n {
            let tid = ThreadId::new(idx as u32);
            if idx < self.slots.admitted() {
                // Republish: reservation may have regrown the
                // clock behind an already-published view.
                let slot = self.slots.get(idx).expect("index below admitted");
                publisher.publish_admission(engine, tid, &slot.clock);
            } else {
                engine.ensure_thread(tid);
                let slot = self.slots.slot_for_admission(idx);
                publisher.publish_admission(engine, tid, &slot.clock);
                self.slots.publish_admission(idx + 1);
            }
        }
    }

    /// The shard that owns variable `var`.
    ///
    /// Fibonacci multiplicative hashing spreads the dense, often
    /// sequential variable-id space evenly across shards.
    #[inline]
    pub fn shard_of(&self, var: VarId) -> usize {
        let h = (var.index() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((h >> 32) as usize) % self.shard_count()
    }

    /// Draws the event's globally unique, totally ordered ticket id.
    ///
    /// Called at the top of [`on_event`](ShardedOnlineDetector::on_event),
    /// **outside every lock** — the skip path's sampling verdict is a
    /// pure function of this ticket, so sampled-out accesses never
    /// touch a lock at all. Soundness does not need a lock here:
    /// causally ordered events draw tickets in causal order (each
    /// `on_event` call returns before any call it happens-before
    /// begins, and `fetch_add` on one atomic is coherent), while
    /// concurrent events may be analyzed out of ticket order inside a
    /// shard — harmless, because they are unordered by happens-before
    /// (invariant 10 in `ARCHITECTURE.md`; see the type-level docs).
    #[inline]
    fn take_ticket(&self) -> EventId {
        EventId::new(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Counts one access-plane shard-lock acquisition (debug builds
    /// only; see
    /// [`debug_shard_lock_acquisitions`](ShardedOnlineDetector::debug_shard_lock_acquisitions)).
    #[inline]
    fn note_shard_lock(&self) {
        #[cfg(debug_assertions)]
        self.shard_locks.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of shard-lock acquisitions performed so far (access
    /// analysis and batch flushes).
    ///
    /// Exists so regression tests can pin the skip path lock-free — a
    /// fully sampled-out stream must never take a shard lock. Debug
    /// builds only.
    #[cfg(debug_assertions)]
    pub fn debug_shard_lock_acquisitions(&self) -> u64 {
        self.shard_locks.load(Ordering::Relaxed)
    }

    /// Returns thread `tid`'s seqlock publication slot, admitting the
    /// thread (initial clock state + first publication, under the sync
    /// lock) on first sight. The fast path is one atomic load plus a
    /// chunk lookup — no lock of any kind.
    fn slot(&self, tid: ThreadId) -> &SeqSlot {
        if let Some(slot) = self.slots.get(tid.index()) {
            return slot;
        }
        // Slow path (once per thread): admit under the sync lock.
        let mut sync = lock(&self.sync);
        while self.slots.admitted() <= tid.index() {
            let index = self.slots.admitted();
            let next = ThreadId::new(index as u32);
            let SyncPlane {
                engine, publisher, ..
            } = &mut *sync;
            engine.ensure_thread(next);
            let slot = self.slots.slot_for_admission(index);
            publisher.publish_admission(engine, next, &slot.clock);
            self.slots.publish_admission(index + 1);
        }
        self.slots.get(tid.index()).expect("just admitted")
    }

    /// Feeds one event; returns `true` if it was reported as racing.
    ///
    /// Every event first draws its ticket from the atomic counter, with
    /// no lock held. An access is then decided by the hoisted sampler:
    /// sampled-out accesses return after a striped counter bump (the
    /// lock-free skip path); sampled ones lock one shard (or, with
    /// batching, one batch lock and only every `B`th event the shard
    /// lock too). Sync events lock the sync plane. A sync event never
    /// races, and a *buffered* access reports only at flush time, so
    /// both return `false`.
    pub fn on_event(&self, tid: u32, kind: EventKind) -> bool {
        let event = Event::new(ThreadId::new(tid), kind);
        match event.kind {
            EventKind::Read(var) | EventKind::Write(var) => {
                // Hoisted ticket + decision: no lock held (invariant 10).
                let id = self.take_ticket();
                if let Some(decider) = &self.decider {
                    if !decider(id, event) {
                        match event.kind {
                            EventKind::Read(_) => self.skip.bump_read(tid),
                            _ => self.skip.bump_write(tid),
                        }
                        return false;
                    }
                    if self.batch.capacity > 1 {
                        // Admission + `RelAfter_S` at buffer time, still
                        // on the issuing thread's side of any shard lock
                        // (a flush may run on another thread). Unbatched
                        // accesses raise the bit in their handler, on
                        // the slot it already resolved — same thread, so
                        // still sequenced before this thread's release.
                        self.slot(event.tid).sampled.store(true, Ordering::Relaxed);
                        return self.buffer_access(id, event, var);
                    }
                } else if self.batch.capacity > 1 {
                    return self.buffer_access(id, event, var);
                }
                self.analyze_access(id, event, var)
            }
            EventKind::Acquire(lock_id) | EventKind::Release(lock_id) => {
                // Flush-before-any-sync: buffered accesses must be
                // analyzed against the pre-sync views (see the
                // type-level batching argument).
                if self.batch.capacity > 1 {
                    self.flush_pending();
                }
                // The sync plane needs no id; the ticket keeps
                // `events_processed` counting every event.
                self.take_ticket();
                self.apply_sync(event, lock_id);
                false
            }
        }
    }

    /// Buffers one ticketed access event in its shard's batch, flushing
    /// inline when the batch reaches capacity. With a hoisted decider
    /// the caller has already admitted the event into the sample set —
    /// batches then hold *only sampled* accesses.
    fn buffer_access(&self, id: EventId, event: Event, var: VarId) -> bool {
        // Without a decider the thread has not been admitted yet; do it
        // before buffering so flushes (possibly run by other threads'
        // sync events) resolve slots on the fast path.
        if self.decider.is_none() {
            self.slot(event.tid);
        }
        let k = self.shard_of(var);
        let mut batch = lock(&self.batch.batches[k]);
        batch.events.push((id, event));
        self.batch.pending.fetch_add(1, Ordering::Relaxed);
        if batch.events.len() >= self.batch.capacity {
            self.flush_shard(k, &mut batch);
        }
        false
    }

    /// Drains every non-empty batch (one batch+shard lock pair at a
    /// time). A single relaxed load skips the sweep when nothing is
    /// buffered, so a pure sync stream pays one load per event.
    fn flush_pending(&self) {
        if self.batch.capacity <= 1 || self.batch.pending.load(Ordering::Relaxed) == 0 {
            return;
        }
        for k in 0..self.batch.batches.len() {
            let mut batch = lock(&self.batch.batches[k]);
            if !batch.events.is_empty() {
                self.flush_shard(k, &mut batch);
            }
        }
    }

    /// Analyzes shard `k`'s buffered events in buffer order under one
    /// shard-lock acquisition. Caller holds the batch lock (lock order:
    /// batch(k) → shard(k)).
    ///
    /// With a hoisted decider the batch holds only sampled accesses and
    /// goes straight through [`AccessEngine::feed_batch`]; their
    /// `RelAfter_S` flags were raised on the hoisted side at buffer
    /// time, so the flush sink only collects reports. Without one, each
    /// event is decided inline ([`AccessEngine::access`]) and the flag
    /// is raised here, at flush — the pre-hoist behavior.
    fn flush_shard(&self, k: usize, batch: &mut AccessBatch) {
        if batch.events.is_empty() {
            return;
        }
        let mut shard = lock(&self.shards[k]);
        self.note_shard_lock();
        let AccessShard {
            engine,
            counters,
            reports,
            scratch,
        } = &mut *shard;
        counters.events += batch.events.len() as u64;
        let mut views = SeqViews {
            slots: &self.slots,
            scratch,
        };
        if self.decider.is_some() {
            engine.feed_batch(&batch.events, &mut views, counters, |_, outcome| {
                if let Some(report) = outcome.report {
                    reports.push(report);
                }
            });
        } else {
            for &(id, event) in &batch.events {
                let view = views.view(event.tid);
                let outcome = engine.access(id, event, &view, counters);
                if outcome.sampled {
                    self.slots
                        .get(event.tid.index())
                        .expect("buffered accesses come from admitted threads")
                        .sampled
                        .store(true, Ordering::Relaxed);
                }
                if let Some(report) = outcome.report {
                    reports.push(report);
                }
            }
        }
        self.batch
            .pending
            .fetch_sub(batch.events.len() as u64, Ordering::Relaxed);
        batch.events.clear();
    }

    /// Analyzes one unbatched sampled access. With a hoisted decider
    /// the engine's own decision is skipped
    /// ([`AccessEngine::access_sampled`]); without one the engine
    /// decides inline and maintains `RelAfter_S` here.
    fn analyze_access(&self, id: EventId, event: Event, var: VarId) -> bool {
        let slot = self.slot(event.tid);
        let mut shard = lock(&self.shards[self.shard_of(var)]);
        self.note_shard_lock();
        let AccessShard {
            engine,
            counters,
            reports,
            scratch,
        } = &mut *shard;
        // Lock-free view: decode the thread's publication into the
        // shard's scratch buffer (retrying on torn reads).
        slot.clock.read_into(scratch);
        let view = PublishedView::new(scratch);
        counters.events += 1;
        let outcome = if self.decider.is_some() {
            // Already admitted: raise `RelAfter_S` on the slot in hand
            // and skip the engine's redundant re-decide.
            slot.sampled.store(true, Ordering::Relaxed);
            engine.access_sampled(id, event, &view, counters)
        } else {
            let outcome = engine.access(id, event, &view, counters);
            if outcome.sampled {
                slot.sampled.store(true, Ordering::Relaxed);
            }
            outcome
        };
        if let Some(report) = outcome.report {
            reports.push(report);
            true
        } else {
            false
        }
    }

    /// Applies one sync event on lock `lock_id` to the sync plane and
    /// republishes the issuing thread's view.
    fn apply_sync(&self, event: Event, lock_id: LockId) {
        let tid = event.tid;
        let slot = self.slot(tid);
        let mut sync = lock(&self.sync);
        let SyncPlane {
            engine,
            counters,
            publisher,
        } = &mut *sync;
        counters.events += 1;
        match event.kind {
            EventKind::Acquire(_) => engine.acquire(tid, lock_id, counters),
            EventKind::Release(_) => {
                // Check before consuming: the bit is set by this
                // thread's own sampled accesses (program-order
                // sequenced with this release), so a false load
                // is stable and the usual unsampled release
                // skips the read-modify-write entirely.
                let sampled = slot.sampled.load(Ordering::Relaxed)
                    && slot.sampled.swap(false, Ordering::Relaxed);
                engine.release(tid, lock_id, sampled, counters);
            }
            _ => unreachable!("on_event routes only sync events here"),
        }
        // Republish in place through the seqlock: a version-word
        // bump around `width` plain stores — or nothing at all,
        // when the publication is unchanged.
        publisher.publish_event(engine, tid, &slot.clock);
    }

    /// Records a read of variable `var` by thread `tid`.
    pub fn read(&self, tid: u32, var: u32) -> bool {
        self.on_event(tid, EventKind::Read(VarId::new(var)))
    }

    /// Records a write of variable `var` by thread `tid`.
    pub fn write(&self, tid: u32, var: u32) -> bool {
        self.on_event(tid, EventKind::Write(VarId::new(var)))
    }

    /// Records an acquire of lock `lock` by thread `tid`.
    pub fn acquire(&self, tid: u32, lock: u32) {
        self.on_event(tid, EventKind::Acquire(LockId::new(lock)));
    }

    /// Records a release of lock `lock` by thread `tid`.
    pub fn release(&self, tid: u32, lock: u32) {
        self.on_event(tid, EventKind::Release(LockId::new(lock)));
    }

    /// Number of event tickets drawn so far. Every event — including a
    /// sampled-out access, whose processing is just its skip tally —
    /// draws exactly one ticket at the top of `on_event`, so after all
    /// workers quiesce this equals events observed.
    pub fn events_processed(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Races reported so far, across all shards (excluding any still
    /// buffered in unflushed batches).
    pub fn race_count(&self) -> usize {
        self.shards.iter().map(|s| lock(s).reports.len()).sum()
    }

    /// Consumes the façade, returning the merged race reports.
    ///
    /// Reports are **strictly sorted by racing [`EventId`]** — the same
    /// deterministic global order
    /// [`OnlineDetector::finish`](crate::OnlineDetector::finish)
    /// guarantees, so sharded and unsharded runs over the same event
    /// stream are directly comparable (`crates/core/tests/sharding.rs`
    /// pins this for `N > 1`).
    pub fn finish(self) -> Vec<RaceReport> {
        self.finish_merged().0
    }

    /// [`finish`](ShardedOnlineDetector::finish) plus the aggregated
    /// [`Counters`].
    ///
    /// The sync plane and the access shards partition the event space
    /// (each sync observation exists once, each access lives in one
    /// shard), so the counters combine with plain `+=`.
    pub fn finish_merged(self) -> (Vec<RaceReport>, Counters) {
        // Residual batches: accesses buffered since the last sync event
        // (or over the whole run, if there was none).
        self.flush_pending();
        let (skipped_reads, skipped_writes) = self.skip.totals();
        let mut reports = Vec::new();
        let mut counters = self
            .sync
            .into_inner()
            .expect("sync plane mutex poisoned")
            .counters;
        // Per-shard report lists are *not* ticket-sorted in general —
        // concurrent analyzed events may invert ticket order under the
        // hoisted draw (invariant 10) — so ordering is established only
        // by the merged sort below.
        for shard in self.shards {
            let shard = shard.into_inner().expect("detector shard mutex poisoned");
            counters += shard.counters;
            reports.extend(shard.reports);
        }
        // Skip-path tallies never entered a shard's counters: fold them
        // in once, bit-exactly, after the plane merge.
        counters.fold_skipped_accesses(skipped_reads, skipped_writes);
        reports.sort_unstable_by_key(|r| r.event);
        debug_assert!(
            reports.windows(2).all(|w| w[0].event < w[1].event),
            "merged reports must be strictly sorted by EventId"
        );
        (reports, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, DjitDetector, OnlineDetector, OrderedListDetector};
    use freshtrack_sampling::{AlwaysSampler, BernoulliSampler};
    use std::sync::Arc;

    #[test]
    fn sync_cost_is_counted_once() {
        // One acquire/release pair and 32 partitioned writes. In Djit+
        // every sync event performs exactly one vector-clock op, so the
        // merged `vc_ops` pins the sync work to once per event, not once
        // per shard.
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 4);
        sharded.acquire(0, 0);
        for v in 0..32 {
            sharded.write(0, v);
        }
        sharded.release(0, 0);
        let (reports, merged) = sharded.finish_merged();
        assert!(reports.is_empty());
        assert_eq!(merged.acquires, 1);
        assert_eq!(merged.releases, 1);
        assert_eq!(merged.writes, 32);
        assert_eq!(merged.events, 34);
        assert_eq!(merged.vc_ops, 2);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 7);
        for v in 0..1000 {
            let s = sharded.shard_of(VarId::new(v));
            assert!(s < 7);
            assert_eq!(s, sharded.shard_of(VarId::new(v)));
        }
    }

    #[test]
    fn sequential_feed_matches_unsharded_in_all_modes() {
        // A small lock-ladder-ish stream with genuine races, fed at every
        // shard count and batch capacity.
        let script: Vec<(u32, EventKind)> = (0..200u32)
            .map(|i| {
                let t = i % 3;
                match i % 5 {
                    0 => (t, EventKind::Acquire(LockId::new((i / 5) % 2))),
                    1 => (t, EventKind::Write(VarId::new(i % 7))),
                    2 => (t, EventKind::Read(VarId::new(i % 7))),
                    3 => (t, EventKind::Release(LockId::new((i / 5) % 2))),
                    _ => (t, EventKind::Write(VarId::new(3))),
                }
            })
            .collect();
        // The script must obey the locking discipline to be a valid
        // event stream; rebuild it with a holder map.
        let mut held = [None::<u32>; 2];
        let valid: Vec<(u32, EventKind)> = script
            .into_iter()
            .map(|(t, kind)| match kind {
                EventKind::Acquire(l) if held[l.index()].is_none() => {
                    held[l.index()] = Some(t);
                    (t, kind)
                }
                EventKind::Release(l) if held[l.index()] == Some(t) => {
                    held[l.index()] = None;
                    (t, kind)
                }
                EventKind::Acquire(_) | EventKind::Release(_) => {
                    (t, EventKind::Read(VarId::new(t)))
                }
                access => (t, access),
            })
            .collect();

        let sampler = BernoulliSampler::new(0.6, 9);
        let unsharded = OnlineDetector::new(OrderedListDetector::new(sampler));
        for &(t, kind) in &valid {
            unsharded.on_event(t, kind);
        }
        let (baseline, baseline_reports) = unsharded.finish();

        for shards in [1usize, 2, 3, 5] {
            for batch in [1usize, 4, 256] {
                let sharded = ShardedOnlineDetector::with_options(
                    OrderedListDetector::new(sampler),
                    shards,
                    batch,
                );
                for &(t, kind) in &valid {
                    sharded.on_event(t, kind);
                }
                assert_eq!(sharded.shard_count(), shards);
                assert_eq!(sharded.batch_capacity(), batch);
                let (reports, merged) = sharded.finish_merged();
                assert_eq!(reports, baseline_reports, "{shards} shards B={batch}");
                assert_eq!(merged.events, baseline.counters().events);
                assert_eq!(merged.reads, baseline.counters().reads);
                assert_eq!(merged.writes, baseline.counters().writes);
                assert_eq!(
                    merged.sampled_accesses,
                    baseline.counters().sampled_accesses
                );
                assert_eq!(merged.acquires, baseline.counters().acquires);
                assert_eq!(merged.releases, baseline.counters().releases);
                assert_eq!(merged.races, baseline.counters().races);
            }
        }
    }

    #[test]
    fn concurrent_ingestion_obeys_locking_discipline() {
        let sharded = Arc::new(ShardedOnlineDetector::new(
            OrderedListDetector::new(AlwaysSampler::new()),
            4,
        ));
        sharded.reserve_threads(4);
        let app_lock = Arc::new(std::sync::Mutex::new(()));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let sharded = Arc::clone(&sharded);
                let app_lock = Arc::clone(&app_lock);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        let guard = app_lock.lock().unwrap();
                        sharded.acquire(t, 0);
                        sharded.write(t, i % 13);
                        sharded.release(t, 0);
                        drop(guard);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sharded.events_processed(), 4 * 100 * 3);
        let (reports, merged) = Arc::try_unwrap(sharded).ok().unwrap().finish_merged();
        // All accesses are lock-protected: no races, on any shard.
        assert!(reports.is_empty(), "{reports:?}");
        assert_eq!(merged.events, 1200);
        assert_eq!(merged.acquires, 400);
        assert_eq!(merged.releases, 400);
    }

    #[test]
    fn concurrent_races_are_found_and_sorted() {
        let sharded = Arc::new(ShardedOnlineDetector::new(
            DjitDetector::new(AlwaysSampler::new()),
            3,
        ));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let sharded = Arc::clone(&sharded);
                std::thread::spawn(move || {
                    for v in 0..8u32 {
                        sharded.write(t, v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(sharded.race_count() > 0);
        let reports = Arc::try_unwrap(sharded).ok().unwrap().finish();
        assert!(reports.windows(2).all(|w| w[0].event < w[1].event));
    }

    #[test]
    fn late_thread_admission_publishes_a_fresh_view() {
        // Thread 5 appears mid-run with no prior sync events: its first
        // access must see its initial clock, not garbage, and still
        // race against the earlier unsynchronized write.
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 2);
        sharded.write(0, 9);
        assert!(sharded.write(5, 9), "unsynchronized write must race");
        let (reports, merged) = sharded.finish_merged();
        assert_eq!(reports.len(), 1);
        assert_eq!(merged.writes, 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 0);
    }

    #[test]
    #[should_panic(expected = "batch capacity")]
    fn zero_batch_is_rejected() {
        let _ = ShardedOnlineDetector::with_options(DjitDetector::new(AlwaysSampler::new()), 2, 0);
    }

    #[test]
    fn buffered_accesses_report_at_flush_not_inline() {
        // Batch capacity larger than the stream: nothing flushes
        // until finish, so the racing write returns false inline
        // but the merged report list still contains it.
        let sharded =
            ShardedOnlineDetector::with_options(DjitDetector::new(AlwaysSampler::new()), 2, 64);
        assert!(!sharded.write(0, 9));
        assert!(!sharded.write(5, 9), "buffered access reports at flush");
        assert_eq!(sharded.race_count(), 0, "still buffered");
        let (reports, merged) = sharded.finish_merged();
        assert_eq!(reports.len(), 1);
        assert_eq!(merged.writes, 2);
    }

    #[test]
    fn full_batch_flushes_inline_and_sync_flushes_residuals() {
        // One shard so the batch fills deterministically at B=2.
        let sharded =
            ShardedOnlineDetector::with_options(DjitDetector::new(AlwaysSampler::new()), 1, 2);
        assert!(!sharded.write(0, 1));
        // Second buffered access fills the batch: the racing pair
        // is analyzed inside this call (though reported via the
        // shard, not the return value).
        assert!(!sharded.write(5, 1));
        assert_eq!(sharded.race_count(), 1, "batch flushed at B");
        assert!(!sharded.write(6, 1));
        // A sync event flushes the half-full batch first.
        sharded.acquire(6, 0);
        assert_eq!(sharded.race_count(), 2, "sync flushed residual");
        sharded.release(6, 0);
        let (reports, _) = sharded.finish_merged();
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn concurrent_batched_ingestion_matches_event_count() {
        let sharded = Arc::new(ShardedOnlineDetector::with_options(
            OrderedListDetector::new(AlwaysSampler::new()),
            4,
            8,
        ));
        sharded.reserve_threads(4);
        let app_lock = Arc::new(std::sync::Mutex::new(()));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let sharded = Arc::clone(&sharded);
                let app_lock = Arc::clone(&app_lock);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        let guard = app_lock.lock().unwrap();
                        sharded.acquire(t, 0);
                        sharded.write(t, i % 13);
                        sharded.release(t, 0);
                        drop(guard);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sharded.events_processed(), 4 * 100 * 3);
        let (reports, merged) = Arc::try_unwrap(sharded).ok().unwrap().finish_merged();
        // All accesses are lock-protected: no races, on any shard.
        assert!(reports.is_empty(), "{reports:?}");
        assert_eq!(merged.events, 1200);
        assert_eq!(merged.acquires, 400);
        assert_eq!(merged.releases, 400);
    }
}
