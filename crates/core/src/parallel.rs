//! Pipelined, checkpointed, and incremental analysis of segmented
//! `.ftb` v2 trace files.
//!
//! [`analyze_segments`] replays a [`SegmentedTraceFile`] with one
//! sequential *coordinator* and `jobs` *worker* replicas, producing
//! reports and counters **byte-identical** to a sequential
//! [`Detector::run_source`](crate::Detector::run_source) pass over the
//! same stream (the differential suite in `tests/parallel.rs` pins
//! this). The design follows the two-plane seam of [`crate::plane`]:
//!
//! * A **reader** thread streams segment bytes off the file ahead of
//!   everyone else and decodes them ([`decode_segment_indexed`] is
//!   pure), so I/O and record decoding overlap the analysis behind a
//!   small bounded channel.
//! * The **coordinator** walks decoded segments in order, driving the
//!   one authoritative sync engine (`D::Sync`) over every
//!   acquire/release — exactly the operation sequence the monolithic
//!   detector performs, so the sync-side counters match to the last
//!   `deep_copy`. At each segment boundary it exports the engine via
//!   [`CheckpointState::export_state`]; the export seeds the segment's
//!   worker replicas — the first replayed segment as the full byte
//!   image, every later one as an
//!   [`encode_delta`](crate::checkpoint::encode_delta) diff against the
//!   previous boundary (consecutive exports share most of their bytes,
//!   so the chain is far smaller than per-segment full checkpoints). It
//!   also runs the cross-segment duplicate-name check and the locking
//!   discipline check the sequential path gets from
//!   [`Validated`](freshtrack_trace::Validated).
//! * Each **worker** owns the variables with `var.index() % jobs ==
//!   worker_index` plus one access-plane shard
//!   ([`SplitDetector::split_access`]), and runs behind the coordinator
//!   on its own bounded queue — segment `k+1` is being read and walked
//!   while segment `k` replays. Per segment it advances the seed chain,
//!   and, if the segment touches any owned variable, builds a fresh
//!   sync replica from the seed and replays *all* of the segment's
//!   events — sync events mutate the replica (work counted into
//!   discarded scratch counters), owned accesses are analyzed against
//!   the replica's published view, unowned accesses only feed the
//!   sampler so the per-thread `RelAfter_S` bits stay exact. Imports
//!   sever all clock sharing, but sharing never changes clock *values*,
//!   so verdicts are unaffected; replica-side sharing counters are
//!   scratch precisely because they are the one thing import skews.
//!
//! With `jobs == 1` the split is pointless overhead, so the pipeline
//! short-circuits to a **single-pass** coordinator that drives the sync
//! *and* access halves of one engine pair directly — no per-segment
//! export/import round-trip, no double replay — while the reader thread
//! still decodes ahead. Published views are taken per sampled access
//! and dropped before the owner's next sync mutation, so lazy-copy
//! counters stay identical to the monolith's (take-before-mutate,
//! invariant 7).
//!
//! Every event is sampler-evaluated once per party that needs its bit,
//! which is sound because sampling is a pure function of `(seed,
//! EventId)` — invariant 4 in `ARCHITECTURE.md`. Final counters are
//! `coordinator + Σ workers`: the coordinator contributes `events` and
//! all sync-plane work, workers contribute all access-plane work, and
//! the two partitions are exactly the monolith's split of the same
//! fields.
//!
//! # Incremental analysis
//!
//! [`analyze_segments_cached`] makes re-analysis of a growing trace
//! *O(appended)*: alongside the analysis it fills an
//! [`AnalysisCache`] sidecar (the `.ftc` format of
//! `freshtrack-trace`) recording, per segment, the segment's byte
//! identity and the complete analysis state at its end boundary —
//! coordinator sync checkpoint and per-worker access checkpoints
//! (delta-encoded along the segment chain), name/thread/pending/
//! discipline tables, cumulative counters, and the segment's reports.
//! On the next run the sidecar's entry prefix is validated against the
//! file (fingerprint equality, footer identity, and a CRC-32 re-hash of
//! every reused segment's bytes — corruption demotes the cache, it is
//! never silently trusted); analysis state is rebuilt from the last
//! valid entry and only the segments past the prefix are replayed.
//! Because the seeded state is checkpoint-exact — including the
//! sharing-topology alias marks of
//! [`OrderedSyncEngine`](crate::OrderedSyncEngine) — the resumed run's
//! reports *and counters* are byte-identical to a cold run over the
//! full file (invariant 11; `tests/cache.rs` pins it across engines ×
//! samplers × append points).

use std::io::{Read, Seek};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

use freshtrack_clock::wire::{self, WireError, WireReader};
use freshtrack_sampling::Sampler;
use freshtrack_trace::{
    decode_segment_indexed, AnalysisCache, BinaryTraceError, CacheConfig, CacheEntry,
    DisciplineChecker, EventId, EventKind, SegmentData, SegmentMeta, SegmentedTraceFile,
    SourceError, ThreadId, VarId,
};

use crate::checkpoint::{self, apply_delta, encode_delta, CheckpointError, CheckpointState};
use crate::plane::{AccessEngine, SplitDetector, SyncEngine};
use crate::{AccessKind, Counters, RaceReport};

/// Version of the opaque checkpoint/counter/report payloads this crate
/// writes into `.ftc` sidecar entries
/// ([`CacheConfig::state_version`]). Bump whenever any
/// [`CheckpointState`] wire format, the counter field list, or the
/// report encoding changes shape — older sidecars then fail the
/// fingerprint check and are rebuilt instead of misdecoded.
pub const CACHE_STATE_VERSION: u32 = 1;

/// Decoded segments the reader keeps in flight ahead of the
/// coordinator.
const READ_AHEAD: usize = 4;

/// Dispatched segments each worker may queue behind the coordinator.
const WORKER_QUEUE: usize = 4;

/// The merged result of a parallel segmented analysis.
#[derive(Clone, Debug)]
pub struct SegmentedAnalysis {
    /// All race reports, strictly sorted by racing
    /// [`EventId`](freshtrack_trace::EventId) — the same order the
    /// sequential pass produces.
    pub reports: Vec<RaceReport>,
    /// Coordinator plus worker counters, field-identical to a
    /// sequential run's.
    pub counters: Counters,
    /// Threads in the trace (declared or observed, whichever is
    /// larger).
    pub threads: u32,
    /// The merged lock name table.
    pub lock_names: Vec<String>,
    /// The merged variable name table.
    pub var_names: Vec<String>,
}

/// The result of an incremental ([`analyze_segments_cached`]) run: the
/// analysis, the rewritten sidecar, and how much of the previous
/// sidecar was reusable.
#[derive(Clone, Debug)]
pub struct CachedAnalysis {
    /// The analysis — byte-identical to what a cold
    /// [`analyze_segments`] run over the full file produces.
    pub analysis: SegmentedAnalysis,
    /// The rewritten sidecar covering every segment of the file;
    /// persist it next to the trace for the next run.
    pub cache: AnalysisCache,
    /// Segments whose cached state was reused (the validated prefix).
    pub reused_segments: usize,
    /// Segments in the file.
    pub total_segments: usize,
}

/// A segment's seed: the authoritative engine state and pending
/// `RelAfter_S` bits as of the segment's first event.
struct Seed {
    sync: SeedSync,
    pending: Vec<bool>,
}

/// The sync half of a seed. Consecutive boundary exports differ only
/// where clocks moved during one segment, so only the first dispatched
/// segment ships the full checkpoint; the rest carry
/// [`encode_delta`](crate::checkpoint::encode_delta) diffs against the
/// previous segment's export, and every worker replays the chain in
/// order (cheap byte splicing) while importing only the segments it
/// owns.
enum SeedSync {
    /// A full [`CheckpointState::export_state`] image.
    Full(Vec<u8>),
    /// A delta against the previous segment's export.
    Delta(Vec<u8>),
}

/// One segment's work order, shared by all workers.
struct Dispatch {
    first_event_id: u64,
    data: Arc<SegmentData>,
    seed: Arc<Seed>,
}

struct Worker<D: SplitDetector, S> {
    detector: D,
    access: D::Access,
    sampler: S,
    access_counters: Counters,
    reports: Vec<RaceReport>,
}

/// Everything a resumed run starts from; [`Resume::cold`] is the empty
/// initial state a full replay uses.
struct Resume {
    /// First segment to replay.
    start: usize,
    lock_names: Vec<String>,
    var_names: Vec<String>,
    threads: u32,
    pending: Vec<bool>,
    checker: DisciplineChecker,
    /// Merged cumulative counters at the boundary.
    counters: Counters,
    /// Coordinator sync checkpoint (empty = fresh engine).
    sync_state: Vec<u8>,
    /// Per-worker access checkpoints (empty = fresh shard).
    access_states: Vec<Vec<u8>>,
    /// Reports for segments `0..start`.
    reports: Vec<RaceReport>,
}

impl Resume {
    fn cold(jobs: usize) -> Self {
        Resume {
            start: 0,
            lock_names: Vec::new(),
            var_names: Vec::new(),
            threads: 0,
            pending: Vec::new(),
            checker: DisciplineChecker::new(),
            counters: Counters::new(),
            sync_state: Vec::new(),
            access_states: vec![Vec::new(); jobs],
            reports: Vec::new(),
        }
    }

    /// Rebuilds the boundary state after `prefix` validated sidecar
    /// entries: names and reports by concatenation, checkpoint bytes by
    /// folding the delta chains, the rest from the last entry.
    ///
    /// Any decode failure means the sidecar lies about its own contents
    /// (possible only across a format drift the fingerprint missed) —
    /// the caller falls back to a cold run.
    fn from_cache(
        prior: &AnalysisCache,
        prefix: usize,
        jobs: usize,
    ) -> Result<Self, CheckpointError> {
        let mut sync_state: Vec<u8> = Vec::new();
        let mut access_states: Vec<Vec<u8>> = vec![Vec::new(); jobs];
        let mut lock_names = Vec::new();
        let mut var_names = Vec::new();
        let mut reports = Vec::new();
        for entry in &prior.entries[..prefix] {
            sync_state = apply_delta(&sync_state, &entry.sync_delta)?;
            if entry.access_deltas.len() != jobs {
                return Err(WireError::Invalid("cache entry has the wrong worker count").into());
            }
            for (state, delta) in access_states.iter_mut().zip(&entry.access_deltas) {
                *state = apply_delta(state, delta)?;
            }
            lock_names.extend(entry.new_locks.iter().cloned());
            var_names.extend(entry.new_vars.iter().cloned());
            reports.extend(decode_reports(&entry.reports)?);
        }
        let last = &prior.entries[prefix - 1];
        let checker = DisciplineChecker::import_wire(&last.discipline)?;
        let mut r = WireReader::new(&last.counters);
        let counters = checkpoint::get_counters(&mut r)?;
        r.finish()?;
        Ok(Resume {
            start: prefix,
            lock_names,
            var_names,
            threads: last.threads,
            pending: last.pending.clone(),
            checker,
            counters,
            sync_state,
            access_states,
            reports,
        })
    }
}

/// Per-segment record the coordinator keeps when building a sidecar.
struct CoordRecord {
    meta: SegmentMeta,
    new_locks: Vec<String>,
    new_vars: Vec<String>,
    threads: u32,
    pending: Vec<bool>,
    discipline: Vec<u8>,
    /// Coordinator-side cumulative counters at the boundary.
    counters: Counters,
    /// Sync checkpoint delta along the segment chain.
    sync_delta: Vec<u8>,
}

/// Per-segment record each worker keeps when building a sidecar.
struct WorkerRecord {
    /// Worker-side cumulative counters at the boundary.
    counters: Counters,
    /// Access checkpoint delta along this worker's segment chain.
    access_delta: Vec<u8>,
    /// The segment's reports from this worker's owned variables.
    reports: Vec<RaceReport>,
}

struct PipelineOutput {
    analysis: SegmentedAnalysis,
    coord: Vec<CoordRecord>,
    workers: Vec<Vec<WorkerRecord>>,
}

/// Why a pipeline run stopped: a real analysis error (what a sequential
/// pass would report), or resume state that failed to import (cache
/// fallback, never surfaced to callers as an analysis failure).
enum RunError {
    Source(SourceError),
    // The payload documents *what* failed to import; callers only
    // branch on the variant (fall back to a cold run).
    Resume(#[allow(dead_code)] CheckpointError),
}

impl From<SourceError> for RunError {
    fn from(e: SourceError) -> Self {
        RunError::Source(e)
    }
}

/// Replays a segmented trace file on the pipelined scheduler; see the
/// module docs for the architecture and the equivalence argument.
///
/// `detector` must be in its initial state (it supplies configuration —
/// engine options and sampler seed — via [`SplitDetector`], never
/// accumulated state), and `sampler` must make the same decisions as
/// the detector's own sampler (same seed); the CLI constructs both from
/// one `--seed`. `jobs` is clamped to at least 1; `jobs == 1` takes the
/// single-pass short circuit without losing the byte-identity
/// guarantee.
///
/// # Errors
///
/// Any [`SourceError`] a sequential pass over the same file would hit:
/// corrupt segment bytes or checksums ([`SourceError::Binary`], naming
/// the failing segment's index and start offset), cross-segment
/// duplicate name definitions (`Binary`, anchored at the offending
/// segment's offset), or locking-discipline violations
/// ([`SourceError::Discipline`]). Reports gathered before the error are
/// dropped with it, exactly like
/// [`Detector::run_source`](crate::Detector::run_source).
///
/// # Panics
///
/// Panics if a worker thread panics (a bug in an engine, never an input
/// property), or if a coordinator-exported seed fails to import (the
/// export/import pair is exercised by the checkpoint suite).
pub fn analyze_segments<D, S, R>(
    file: &mut SegmentedTraceFile<R>,
    detector: &D,
    sampler: &S,
    jobs: usize,
) -> Result<SegmentedAnalysis, SourceError>
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: CheckpointState,
    S: Sampler + Clone + Send,
    R: Read + Seek + Send,
{
    let jobs = jobs.max(1);
    match run_pipeline(file, detector, sampler, jobs, Resume::cold(jobs), false) {
        Ok(out) => Ok(out.analysis),
        Err(RunError::Source(e)) => Err(e),
        Err(RunError::Resume(_)) => unreachable!("cold runs import no state"),
    }
}

/// Incremental [`analyze_segments`]: validates `prior` (a decoded
/// `.ftc` sidecar) against the file and `config`, replays only the
/// segments past the longest valid prefix, and returns the analysis
/// together with a rewritten sidecar covering the whole file.
///
/// The prefix-validation rule: the cache is reusable only under an
/// *exactly equal* [`CacheConfig`] (engine, sampler identity and seed,
/// segment options, payload format version, worker count — build it
/// with `state_version:` [`CACHE_STATE_VERSION`] and `jobs` equal to
/// the `jobs` argument), and an entry extends the prefix only if it
/// matches the footer's identity for its segment *and* the segment's
/// bytes still hash to the recorded CRC-32. The first mismatch ends the
/// prefix; everything after it is replayed and rewritten. A cache is
/// advisory — malformed resume payloads demote to a cold run, never to
/// an error — and the analysis output is byte-identical to a cold
/// [`analyze_segments`] run either way (invariant 11).
///
/// # Errors
///
/// Exactly the [`SourceError`]s [`analyze_segments`] can return; cache
/// problems are handled by falling back, not reported.
pub fn analyze_segments_cached<D, S, R>(
    file: &mut SegmentedTraceFile<R>,
    detector: &D,
    sampler: &S,
    jobs: usize,
    config: &CacheConfig,
    prior: Option<&AnalysisCache>,
) -> Result<CachedAnalysis, SourceError>
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: CheckpointState,
    S: Sampler + Clone + Send,
    R: Read + Seek + Send,
{
    let jobs = jobs.max(1);
    let total = file.segment_count();
    let mut prefix = validated_prefix(file, config, prior, jobs)?;
    let resume = match prior {
        Some(prior) if prefix > 0 => match Resume::from_cache(prior, prefix, jobs) {
            Ok(resume) => resume,
            Err(_) => {
                prefix = 0;
                Resume::cold(jobs)
            }
        },
        _ => Resume::cold(jobs),
    };

    let out = match run_pipeline(file, detector, sampler, jobs, resume, true) {
        Ok(out) => out,
        Err(RunError::Resume(_)) => {
            // The folded checkpoints would not import — discard the
            // cache and run cold.
            prefix = 0;
            match run_pipeline(file, detector, sampler, jobs, Resume::cold(jobs), true) {
                Ok(out) => out,
                Err(RunError::Source(e)) => return Err(e),
                Err(RunError::Resume(_)) => unreachable!("cold runs import no state"),
            }
        }
        Err(RunError::Source(e)) => return Err(e),
    };

    let mut entries: Vec<CacheEntry> = match prior {
        Some(prior) if prefix > 0 => prior.entries[..prefix].to_vec(),
        _ => Vec::new(),
    };
    for (i, cr) in out.coord.iter().enumerate() {
        let mut cumulative = cr.counters;
        let mut seg_reports: Vec<RaceReport> = Vec::new();
        let mut access_deltas = Vec::with_capacity(out.workers.len());
        for records in &out.workers {
            cumulative += records[i].counters;
            seg_reports.extend(records[i].reports.iter().copied());
            access_deltas.push(records[i].access_delta.clone());
        }
        seg_reports.sort_by_key(|r| r.event);
        let mut counters = Vec::new();
        checkpoint::put_counters(&mut counters, &cumulative);
        let mut reports = Vec::new();
        encode_reports(&mut reports, &seg_reports);
        entries.push(CacheEntry {
            crc32: cr.meta.crc32,
            offset: cr.meta.offset,
            byte_len: cr.meta.byte_len,
            event_count: cr.meta.event_count,
            first_event_id: cr.meta.first_event_id,
            locks_before: cr.meta.locks_before,
            vars_before: cr.meta.vars_before,
            new_locks: cr.new_locks.clone(),
            new_vars: cr.new_vars.clone(),
            threads: cr.threads,
            pending: cr.pending.clone(),
            discipline: cr.discipline.clone(),
            counters,
            sync_delta: cr.sync_delta.clone(),
            access_deltas,
            reports,
        });
    }

    Ok(CachedAnalysis {
        analysis: out.analysis,
        cache: AnalysisCache {
            config: config.clone(),
            entries,
        },
        reused_segments: prefix,
        total_segments: total,
    })
}

/// The longest sidecar prefix that is safe to reuse: fingerprint
/// equality, then per segment the footer identity *and* a CRC re-hash
/// of the segment's actual bytes.
fn validated_prefix<R: Read + Seek>(
    file: &mut SegmentedTraceFile<R>,
    config: &CacheConfig,
    prior: Option<&AnalysisCache>,
    jobs: usize,
) -> Result<usize, SourceError> {
    let Some(prior) = prior else { return Ok(0) };
    if prior.config != *config || config.jobs as usize != jobs {
        return Ok(0);
    }
    let n = prior.entries.len().min(file.segment_count());
    let mut prefix = 0;
    while prefix < n {
        let meta = file.meta(prefix).clone();
        if !prior.entries[prefix].matches(&meta) || file.segment_crc32(prefix)? != meta.crc32 {
            break;
        }
        prefix += 1;
    }
    Ok(prefix)
}

type ReadItem = Result<(SegmentMeta, Arc<SegmentData>), SourceError>;

/// The reader stage: sequential byte reads plus record decoding, kept
/// [`READ_AHEAD`] segments in front of the coordinator. Stops at the
/// first failure (the coordinator surfaces it in stream order) or when
/// the coordinator hangs up.
fn read_segments<R: Read + Seek>(
    file: &mut SegmentedTraceFile<R>,
    start: usize,
    tx: SyncSender<ReadItem>,
) {
    for k in start..file.segment_count() {
        let item = (|| {
            let meta = file.meta(k).clone();
            let bytes = file.read_segment_bytes(k)?;
            let data = decode_segment_indexed(k, &bytes, &meta)?;
            Ok((meta, Arc::new(data)))
        })();
        let stop = item.is_err();
        if tx.send(item.map_err(SourceError::Binary)).is_err() || stop {
            return;
        }
    }
}

fn run_pipeline<D, S, R>(
    file: &mut SegmentedTraceFile<R>,
    detector: &D,
    sampler: &S,
    jobs: usize,
    resume: Resume,
    record: bool,
) -> Result<PipelineOutput, RunError>
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: CheckpointState,
    S: Sampler + Clone + Send,
    R: Read + Seek + Send,
{
    if jobs == 1 {
        run_single(file, detector, sampler, resume, record)
    } else {
        run_workers(file, detector, sampler, jobs, resume, record)
    }
}

/// The `jobs == 1` short circuit: one engine pair driven directly by
/// the coordinator — the monolith's event loop with a reader thread
/// decoding ahead. No checkpoint round-trip, no second replay of sync
/// events; throughput recovers to within I/O overhead of
/// [`Detector::run_source`](crate::Detector::run_source).
fn run_single<D, S, R>(
    file: &mut SegmentedTraceFile<R>,
    detector: &D,
    sampler: &S,
    resume: Resume,
    record: bool,
) -> Result<PipelineOutput, RunError>
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: CheckpointState,
    S: Sampler + Clone + Send,
    R: Read + Seek + Send,
{
    let mut sync = detector.split_sync();
    let mut access = detector.split_access();
    if !resume.sync_state.is_empty() {
        sync.import_state(&resume.sync_state)
            .map_err(RunError::Resume)?;
    }
    let Resume {
        start,
        mut lock_names,
        mut var_names,
        mut threads,
        mut pending,
        mut checker,
        mut counters,
        sync_state,
        access_states,
        mut reports,
    } = resume;
    let mut cache_prev_access = access_states.into_iter().next().unwrap_or_default();
    if !cache_prev_access.is_empty() {
        access
            .import_state(&cache_prev_access)
            .map_err(RunError::Resume)?;
    }
    let mut cache_prev_sync = sync_state;
    let mut sampler = sampler.clone();
    let mut coord: Vec<CoordRecord> = Vec::new();
    let mut records: Vec<WorkerRecord> = Vec::new();
    let segment_count = file.segment_count();

    let outcome = std::thread::scope(|scope| -> Result<(), SourceError> {
        let (tx, rx) = sync_channel::<ReadItem>(READ_AHEAD);
        scope.spawn(move || read_segments(file, start, tx));

        for _ in start..segment_count {
            let (meta, data) = match rx.recv() {
                Ok(item) => item?,
                Err(_) => break,
            };
            check_watermarks(&lock_names, &var_names, &meta)?;
            merge_names(&mut lock_names, &data.new_locks, "lock", meta.offset)?;
            merge_names(&mut var_names, &data.new_vars, "var", meta.offset)?;
            threads = threads
                .max(data.declared_threads)
                .max(data.observed_threads);

            let seg_report_start = reports.len();
            for (i, &event) in data.events.iter().enumerate() {
                let id = EventId::new(meta.first_event_id + i as u64);
                checker.check(id, event)?;
                counters.events += 1;
                let tid = event.tid;
                // Deferred admission, mirroring the monolithic engines:
                // only sync events and *sampled* accesses widen the
                // sync plane (invariant 10).
                match event.kind {
                    EventKind::Acquire(lock) => {
                        sync.ensure_thread(tid);
                        sync.acquire(tid, lock, &mut counters);
                    }
                    EventKind::Release(lock) => {
                        sync.ensure_thread(tid);
                        if pending.len() <= tid.index() {
                            pending.resize(tid.index() + 1, false);
                        }
                        let sampled = std::mem::take(&mut pending[tid.index()]);
                        sync.release(tid, lock, sampled, &mut counters);
                    }
                    EventKind::Read(_) | EventKind::Write(_) => {
                        if sampler.sample(id, event) {
                            sync.ensure_thread(tid);
                            if pending.len() <= tid.index() {
                                pending.resize(tid.index() + 1, false);
                            }
                            pending[tid.index()] = true;
                            // Take-before-mutate: the view dies inside
                            // this arm, before `tid`'s next sync
                            // mutation, so it never forces a deep copy
                            // the monolith would not pay.
                            let view = sync.publish(tid);
                            let outcome = access.access_sampled(id, event, &view, &mut counters);
                            debug_assert!(outcome.sampled, "hoisted decision admitted this");
                            if let Some(report) = outcome.report {
                                reports.push(report);
                            }
                        } else {
                            crate::plane::tally_access(&event, &mut counters);
                        }
                    }
                }
            }

            if record {
                let mut export = Vec::new();
                sync.export_state(&mut export);
                let sync_delta = encode_delta(&cache_prev_sync, &export);
                cache_prev_sync = export;
                let mut export = Vec::new();
                access.export_state(&mut export);
                let access_delta = encode_delta(&cache_prev_access, &export);
                cache_prev_access = export;
                let mut discipline = Vec::new();
                checker.export_wire(&mut discipline);
                coord.push(CoordRecord {
                    meta,
                    new_locks: data.new_locks.clone(),
                    new_vars: data.new_vars.clone(),
                    threads,
                    pending: pending.clone(),
                    discipline,
                    counters,
                    sync_delta,
                });
                records.push(WorkerRecord {
                    // The single pass books everything into the
                    // coordinator's counters; the worker column is
                    // zero so the merged cumulative stays exact.
                    counters: Counters::new(),
                    access_delta,
                    reports: reports[seg_report_start..].to_vec(),
                });
            }
        }
        Ok(())
    });
    outcome?;

    Ok(PipelineOutput {
        analysis: SegmentedAnalysis {
            reports,
            counters,
            threads,
            lock_names,
            var_names,
        },
        coord,
        workers: vec![records],
    })
}

/// The `jobs >= 2` pipeline: reader ahead, coordinator in the middle,
/// workers behind on bounded queues.
fn run_workers<D, S, R>(
    file: &mut SegmentedTraceFile<R>,
    detector: &D,
    sampler: &S,
    jobs: usize,
    resume: Resume,
    record: bool,
) -> Result<PipelineOutput, RunError>
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: CheckpointState,
    S: Sampler + Clone + Send,
    R: Read + Seek + Send,
{
    let mut workers: Vec<Worker<D, S>> = (0..jobs)
        .map(|_| Worker {
            detector: detector.clone(),
            access: detector.split_access(),
            sampler: sampler.clone(),
            access_counters: Counters::new(),
            reports: Vec::new(),
        })
        .collect();
    for (worker, state) in workers.iter_mut().zip(&resume.access_states) {
        if !state.is_empty() {
            worker
                .access
                .import_state(state)
                .map_err(RunError::Resume)?;
        }
    }
    let mut sync = detector.split_sync();
    if !resume.sync_state.is_empty() {
        sync.import_state(&resume.sync_state)
            .map_err(RunError::Resume)?;
    }
    let Resume {
        start,
        mut lock_names,
        mut var_names,
        mut threads,
        mut pending,
        mut checker,
        mut counters,
        sync_state,
        mut access_states,
        reports: prior_reports,
    } = resume;
    let mut sampler = sampler.clone();
    let mut coord: Vec<CoordRecord> = Vec::new();
    let segment_count = file.segment_count();

    let (outcome, mut workers, worker_records) = std::thread::scope(|scope| {
        let (tx, rx) = sync_channel::<ReadItem>(READ_AHEAD);
        scope.spawn(move || read_segments(file, start, tx));

        let mut worker_txs: Vec<SyncSender<Dispatch>> = Vec::with_capacity(jobs);
        let mut handles = Vec::with_capacity(jobs);
        for (idx, mut worker) in workers.into_iter().enumerate() {
            let (wtx, wrx) = sync_channel::<Dispatch>(WORKER_QUEUE);
            worker_txs.push(wtx);
            let chain_base = std::mem::take(&mut access_states[idx]);
            handles.push(scope.spawn(move || {
                let records = worker_run(&mut worker, wrx, idx, jobs, chain_base, record);
                (worker, records)
            }));
        }

        // The coordinator: exports at every boundary feed both the seed
        // chain (state at segment *start*, for workers) and, when
        // recording, the sidecar chain (state at segment *end* — the
        // same export, one iteration later).
        let coordinate = || -> Result<(), SourceError> {
            let mut start_export = Vec::new();
            sync.export_state(&mut start_export);
            let mut prev_seed_export: Vec<u8> = Vec::new();
            let mut cache_prev = sync_state;
            let mut first = true;
            for _ in start..segment_count {
                let (meta, data) = match rx.recv() {
                    Ok(item) => item?,
                    Err(_) => break,
                };
                check_watermarks(&lock_names, &var_names, &meta)?;
                merge_names(&mut lock_names, &data.new_locks, "lock", meta.offset)?;
                merge_names(&mut var_names, &data.new_vars, "var", meta.offset)?;
                threads = threads
                    .max(data.declared_threads)
                    .max(data.observed_threads);

                let seed = Arc::new(Seed {
                    sync: if first {
                        SeedSync::Full(start_export.clone())
                    } else {
                        SeedSync::Delta(encode_delta(&prev_seed_export, &start_export))
                    },
                    pending: pending.clone(),
                });
                first = false;
                prev_seed_export = std::mem::take(&mut start_export);
                for wtx in &worker_txs {
                    wtx.send(Dispatch {
                        first_event_id: meta.first_event_id,
                        data: Arc::clone(&data),
                        seed: Arc::clone(&seed),
                    })
                    .expect("worker thread exited before its queue closed");
                }

                for (i, &event) in data.events.iter().enumerate() {
                    let id = EventId::new(meta.first_event_id + i as u64);
                    checker.check(id, event)?;
                    counters.events += 1;
                    let tid = event.tid;
                    // Deferred admission, mirroring the monolithic
                    // engines: only sync events and *sampled* accesses
                    // widen the sync plane (invariant 10) — a skipped
                    // access must leave the thread table, and with it
                    // the traversal counters of later sync events,
                    // untouched.
                    match event.kind {
                        EventKind::Acquire(lock) => {
                            sync.ensure_thread(tid);
                            sync.acquire(tid, lock, &mut counters);
                        }
                        EventKind::Release(lock) => {
                            sync.ensure_thread(tid);
                            if pending.len() <= tid.index() {
                                pending.resize(tid.index() + 1, false);
                            }
                            let sampled = std::mem::take(&mut pending[tid.index()]);
                            sync.release(tid, lock, sampled, &mut counters);
                        }
                        EventKind::Read(_) | EventKind::Write(_) => {
                            if sampler.sample(id, event) {
                                sync.ensure_thread(tid);
                                if pending.len() <= tid.index() {
                                    pending.resize(tid.index() + 1, false);
                                }
                                pending[tid.index()] = true;
                            }
                        }
                    }
                }

                sync.export_state(&mut start_export);
                if record {
                    let sync_delta = encode_delta(&cache_prev, &start_export);
                    cache_prev = start_export.clone();
                    let mut discipline = Vec::new();
                    checker.export_wire(&mut discipline);
                    coord.push(CoordRecord {
                        meta,
                        new_locks: data.new_locks.clone(),
                        new_vars: data.new_vars.clone(),
                        threads,
                        pending: pending.clone(),
                        discipline,
                        counters,
                        sync_delta,
                    });
                }
            }
            Ok(())
        };
        let outcome = coordinate();
        drop(worker_txs);

        let mut workers = Vec::with_capacity(jobs);
        let mut worker_records = Vec::with_capacity(jobs);
        for handle in handles {
            let (worker, records) = handle.join().expect("worker replay panicked");
            workers.push(worker);
            worker_records.push(records);
        }
        (outcome, workers, worker_records)
    });
    outcome?;

    // Merge. Report sets are disjoint (each worker owns its variables)
    // with at most one report per event, so sorting by EventId
    // reproduces the sequential order exactly; prefix reports all
    // precede replayed ones.
    let mut new_reports: Vec<RaceReport> = Vec::new();
    for worker in &mut workers {
        counters += std::mem::take(&mut worker.access_counters);
        new_reports.append(&mut worker.reports);
    }
    new_reports.sort_by_key(|r| r.event);
    debug_assert!(
        new_reports.windows(2).all(|w| w[0].event < w[1].event),
        "owned-variable partitioning must keep reports unique per event"
    );
    let mut reports = prior_reports;
    reports.extend(new_reports);

    Ok(PipelineOutput {
        analysis: SegmentedAnalysis {
            reports,
            counters,
            threads,
            lock_names,
            var_names,
        },
        coord,
        workers: worker_records,
    })
}

/// One worker's queue loop: advance the seed chain for every dispatched
/// segment, replay the ones that touch an owned variable, and (when
/// recording) export the access shard at every boundary.
fn worker_run<D, S>(
    worker: &mut Worker<D, S>,
    rx: Receiver<Dispatch>,
    worker_idx: usize,
    jobs: usize,
    chain_base: Vec<u8>,
    record: bool,
) -> Vec<WorkerRecord>
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: CheckpointState,
    S: Sampler,
{
    let owned = |var: VarId| var.index() % jobs == worker_idx;
    let mut records = Vec::new();
    let mut prev_access_export = chain_base;
    let mut seed_bytes: Vec<u8> = Vec::new();
    while let Ok(item) = rx.recv() {
        // Every item advances the chain (byte splicing, no engine
        // work) so skipped segments still keep `seed_bytes` aligned
        // with the coordinator's export at each boundary.
        seed_bytes = match &item.seed.sync {
            SeedSync::Full(bytes) => bytes.clone(),
            SeedSync::Delta(delta) => apply_delta(&seed_bytes, delta)
                .expect("coordinator-encoded delta must apply to its own chain"),
        };
        let seg_report_start = worker.reports.len();
        let has_owned_access = item.data.events.iter().any(|event| match event.kind {
            EventKind::Read(var) | EventKind::Write(var) => owned(var),
            _ => false,
        });
        if has_owned_access {
            let mut replica = worker.detector.split_sync();
            replica
                .import_state(&seed_bytes)
                .expect("coordinator-exported seed must import");
            let mut pending = item.seed.pending.clone();
            let mut scratch = Counters::new();

            for (i, &event) in item.data.events.iter().enumerate() {
                let id = EventId::new(item.first_event_id + i as u64);
                let tid = event.tid;
                // Same deferred admission as the coordinator: the
                // replica must track the authoritative engine's width
                // exactly, or published view widths would drift from
                // the monolith's.
                match event.kind {
                    EventKind::Acquire(lock) => {
                        replica.ensure_thread(tid);
                        replica.acquire(tid, lock, &mut scratch);
                    }
                    EventKind::Release(lock) => {
                        replica.ensure_thread(tid);
                        if pending.len() <= tid.index() {
                            pending.resize(tid.index() + 1, false);
                        }
                        let sampled = std::mem::take(&mut pending[tid.index()]);
                        replica.release(tid, lock, sampled, &mut scratch);
                    }
                    EventKind::Read(var) | EventKind::Write(var) => {
                        if !worker.sampler.sample(id, event) {
                            // Sampled-out: for an owned access, tally
                            // the observation the way the monolith's
                            // skip path does; unowned skipped accesses
                            // belong to another worker entirely.
                            if owned(var) {
                                crate::plane::tally_access(&event, &mut worker.access_counters);
                            }
                            continue;
                        }
                        replica.ensure_thread(tid);
                        if pending.len() <= tid.index() {
                            pending.resize(tid.index() + 1, false);
                        }
                        pending[tid.index()] = true;
                        if owned(var) {
                            let view = replica.publish(tid);
                            let outcome = worker.access.access_sampled(
                                id,
                                event,
                                &view,
                                &mut worker.access_counters,
                            );
                            debug_assert!(outcome.sampled, "hoisted decision admitted this");
                            if let Some(report) = outcome.report {
                                worker.reports.push(report);
                            }
                        }
                    }
                }
            }
        }
        if record {
            let mut export = Vec::new();
            worker.access.export_state(&mut export);
            let access_delta = encode_delta(&prev_access_export, &export);
            prev_access_export = export;
            records.push(WorkerRecord {
                counters: worker.access_counters,
                access_delta,
                reports: worker.reports[seg_report_start..].to_vec(),
            });
        }
    }
    records
}

/// Rejects a segment whose name-table watermarks disagree with the
/// segments already walked.
fn check_watermarks(
    lock_names: &[String],
    var_names: &[String],
    meta: &SegmentMeta,
) -> Result<(), SourceError> {
    if lock_names.len() != meta.locks_before || var_names.len() != meta.vars_before {
        return Err(BinaryTraceError::new(
            meta.offset,
            "segment name-table watermark disagrees with the preceding segments",
        )
        .into());
    }
    Ok(())
}

/// Appends a segment's name delta, rejecting names already defined by
/// an earlier segment — the cross-segment half of the v1 reader's
/// duplicate check (the in-segment half lives in
/// [`decode_segment`](freshtrack_trace::decode_segment)).
fn merge_names(
    table: &mut Vec<String>,
    fresh: &[String],
    what: &str,
    offset: u64,
) -> Result<(), SourceError> {
    for name in fresh {
        if table.iter().any(|existing| existing == name) {
            return Err(BinaryTraceError::new(
                offset,
                format!("duplicate definition of {what} {name:?}"),
            )
            .into());
        }
        table.push(name.clone());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Report wire codec (sidecar payloads).
// ---------------------------------------------------------------------

/// Serializes a segment's report slice for a sidecar entry.
fn encode_reports(out: &mut Vec<u8>, reports: &[RaceReport]) {
    wire::put_varint(out, reports.len() as u64);
    for report in reports {
        wire::put_varint(out, report.event.as_u64());
        wire::put_varint(out, u64::from(report.tid.as_u32()));
        wire::put_varint(out, report.var.index() as u64);
        wire::put_bool(out, matches!(report.access, AccessKind::Write));
        wire::put_bool(out, report.with_write);
        wire::put_bool(out, report.with_read);
    }
}

/// Decodes a sidecar entry's report slice.
fn decode_reports(bytes: &[u8]) -> Result<Vec<RaceReport>, WireError> {
    let mut r = WireReader::new(bytes);
    let n = {
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(WireError::Truncated);
        }
        n
    };
    let mut reports = Vec::with_capacity(n);
    for _ in 0..n {
        let event = EventId::new(r.get_varint()?);
        let tid = ThreadId::new(r.get_u32()?);
        let var = VarId::new(r.get_u32()?);
        let access = if r.get_bool()? {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let with_write = r.get_bool()?;
        let with_read = r.get_bool()?;
        if !with_write && !with_read {
            return Err(WireError::Invalid("race report with no conflict"));
        }
        reports.push(RaceReport::new(
            event, tid, var, access, with_write, with_read,
        ));
    }
    r.finish()?;
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_codec_round_trips() {
        let reports = vec![
            RaceReport::new(
                EventId::new(7),
                ThreadId::new(2),
                VarId::new(5),
                AccessKind::Write,
                true,
                true,
            ),
            RaceReport::new(
                EventId::new(1_000_000),
                ThreadId::new(0),
                VarId::new(0),
                AccessKind::Read,
                true,
                false,
            ),
        ];
        let mut bytes = Vec::new();
        encode_reports(&mut bytes, &reports);
        assert_eq!(decode_reports(&bytes).unwrap(), reports);
        assert_eq!(
            decode_reports(&{
                let mut b = Vec::new();
                encode_reports(&mut b, &[]);
                b
            })
            .unwrap(),
            Vec::new()
        );
    }

    #[test]
    fn report_codec_rejects_truncation_and_trailing_bytes() {
        let reports = vec![RaceReport::new(
            EventId::new(3),
            ThreadId::new(1),
            VarId::new(4),
            AccessKind::Read,
            false,
            true,
        )];
        let mut bytes = Vec::new();
        encode_reports(&mut bytes, &reports);
        for cut in 0..bytes.len() {
            assert!(decode_reports(&bytes[..cut]).is_err(), "cut={cut}");
        }
        bytes.push(0);
        assert!(decode_reports(&bytes).is_err());
    }
}
