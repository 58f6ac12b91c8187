//! The race detector: Eraser-style locksets combined with vector-clock
//! happens-before, per the paper's Section IV-D.
//!
//! [`StreamDetector`] consumes a run's events one at a time, in recording
//! order per rank (it implements both [`EventSink`] and
//! [`home_trace::TraceSink`], so a simulation feeds it live through
//! `interp::run_with_sink`); [`detect`] runs it over a finished [`Trace`].
//! Per MPI process it reconstructs the happens-before partial order from
//! synchronization events (region fork/join, barriers with epochs, lock
//! release→acquire) and maintains per-thread locksets alongside. Depending
//! on [`DetectorMode`], a conflicting access pair (same location, different
//! logical threads, at least one write) is reported when it is
//! HB-concurrent, lockset-disjoint, or both (the paper's hybrid — fewer
//! false positives than either alone).
//!
//! The single pass relies on two recording-order facts guaranteed by the
//! runtime: (1) all pre-barrier events of every participant have smaller
//! sequence numbers than every barrier event of that epoch, and (2) a
//! region's fork event precedes all events of the region's threads, whose
//! events in turn precede the join event. Under them the detector needs no
//! look-ahead:
//!
//! - **Region teams and barrier participants** are learned as events
//!   arrive: region membership accumulates in first-seen order, and a
//!   barrier epoch's participants are *synthesized* from the region's
//!   `Fork` event as threads `0..nthreads`. The runtime releases a barrier
//!   only when the full team arrived, so that is exactly the set of
//!   threads that pass it, and a never-seen participant contributes a
//!   fresh singleton clock.
//! - **Epoch-based retirement.** When a region joins, the join folds its
//!   segments' final clocks into the master spine, so every later access
//!   happens-after every access they made and can never be HB-concurrent
//!   with one. Their clocks, locksets and history records are dropped,
//!   bounding live state by the *widest* region instead of the whole
//!   trace. Retirement is off in `LocksetOnly` mode, which has no
//!   happens-before edges to make it sound.
//! - **Per-rank sharding.** Ranks share nothing (the analysis is
//!   per-process); state lives in `RANK_SHARDS` mutex-guarded shards keyed
//!   by rank, so concurrent producers contend only within a rank.
//!
//! `tests/detector_oracle.rs` checks the detector against an all-pairs
//! oracle written from the paper's definitions.

use crate::races::{Race, RaceAccess};
use home_trace::{
    AccessKind, BarrierId, Event, EventKind, FxHashMap, FxHashSet, HomeError, LockId, LocksetId,
    LocksetTable, MemLoc, Rank, RegionId, Tid, Trace, TraceSink, VectorClock,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Which predicate flags a conflicting access pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorMode {
    /// Lockset-disjoint **and** HB-concurrent (the paper's combination).
    Hybrid,
    /// Lockset-disjoint only (classic Eraser — over-reports across
    /// fork/join and barriers).
    LocksetOnly,
    /// HB-concurrent only (pure happens-before — misses nothing it sees but
    /// depends entirely on sync edges).
    HappensBeforeOnly,
}

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Flagging predicate.
    pub mode: DetectorMode,
    /// Per-location access-history cap (bounds the O(n²) pair check; the
    /// earliest accesses are kept since later duplicates rarely add
    /// distinct pairs).
    pub history_cap: usize,
    /// Ignore lock acquire/release events entirely (used to model the
    /// Intel-Thread-Checker baseline's blindness to `omp critical`).
    pub ignore_locks: bool,
    /// Report at most one race per (location, thread-pair) — keeps reports
    /// readable; disable for exhaustive counting.
    pub dedupe_pairs: bool,
    /// Worker-thread hint carried for callers that size their own fan-out
    /// from it. Detection ignores it: the detector runs on the threads that
    /// feed it, and its output is the same for every value.
    pub jobs: usize,
}

/// The machine's available parallelism (used as the default `jobs` value).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl DetectorConfig {
    /// The paper's hybrid configuration.
    pub fn hybrid() -> Self {
        DetectorConfig {
            mode: DetectorMode::Hybrid,
            history_cap: 512,
            ignore_locks: false,
            dedupe_pairs: true,
            jobs: default_jobs(),
        }
    }

    /// Lockset-only (ablation).
    pub fn lockset_only() -> Self {
        DetectorConfig {
            mode: DetectorMode::LocksetOnly,
            ..DetectorConfig::hybrid()
        }
    }

    /// HB-only (ablation).
    pub fn hb_only() -> Self {
        DetectorConfig {
            mode: DetectorMode::HappensBeforeOnly,
            ..DetectorConfig::hybrid()
        }
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig::hybrid()
    }
}

/// A consumer of live events, one at a time, in recording order.
///
/// The streaming counterpart of scanning `Trace::events()`: implementors
/// must tolerate concurrent calls from multiple producer threads (the
/// simulator's collector is shared). [`StreamDetector`] implements this
/// and also `home_trace::TraceSink`, so it plugs directly into
/// `interp::run_with_sink`.
pub trait EventSink: Send + Sync {
    /// Consume one event.
    fn on_event(&self, event: &Event);
}

/// A consumer of race candidates, invoked by [`StreamDetector`] the moment
/// each race is discovered (the same races, in the same per-rank order, as
/// the list [`StreamDetector::finish`] returns).
///
/// The callback fires while the detector holds the rank-shard lock, so
/// implementations must be quick and must **not** re-enter the detector
/// (no `consume`/`finish` from inside `on_race`). Multiple producer
/// threads may trigger callbacks concurrently for different ranks.
pub trait RaceSink: Send + Sync {
    /// One freshly discovered race.
    fn on_race(&self, race: &Race);
}

/// Number of rank shards (ranks map to shards by `rank % RANK_SHARDS`).
const RANK_SHARDS: usize = 16;

/// A logical thread segment: the sequential master spine is
/// `(None, Tid(0))`; each thread of a region instance is `(Some(r), t)`.
type SegKey = (Option<RegionId>, Tid);

/// Statistics from one streaming detection run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Events consumed.
    pub events: u64,
    /// Sum over ranks of the peak number of simultaneously live segments
    /// (segments whose vector clocks were resident). With pruning this
    /// stays proportional to the widest region, not the trace length.
    pub peak_live_segments: usize,
    /// Total distinct segments ever observed across ranks.
    pub total_segments: usize,
    /// Segments retired (clocks dropped) by region-join pruning.
    pub retired_segments: usize,
    /// Of those, segments retired while at least one *other* region was
    /// still live — the per-segment reachability check proved their records
    /// unreachable without waiting for the overlap to end.
    pub retired_while_overlapping: usize,
    /// True if some location's access history hit the configured cap.
    pub history_overflow: bool,
    /// Consumption throughput, measured from the first event to
    /// [`StreamDetector::finish`].
    pub events_per_sec: f64,
}

/// One remembered access, stored FastTrack-style.
///
/// Instead of a full vector-clock snapshot, a record keeps only its
/// segment's *epoch* — `(slot, clock)`, the segment's own component at the
/// access. That is enough to decide HB-concurrency against any later
/// access exactly, because the detector's clocks obey two invariants:
///
/// 1. A slot's component only ever increases at its owning segment's
///    `tick`; every cross-clock flow (fork snapshot, release→acquire,
///    barrier join, region join, lazy fork inheritance) joins *full*
///    snapshots of whole clocks. Hence any clock `C` with
///    `C[slot] ≥ clock` has absorbed a snapshot of the owning segment
///    taken at-or-after the access, so `C ≥` the access's full clock.
///    Therefore `prev ≤ cur ⟺ prev.clock ≤ cur[prev.slot]`.
/// 2. The later access's own component was freshly ticked, so no earlier
///    record's clock can dominate it: `cur ≤ prev` is never true.
///
/// Together: `concurrent(prev, cur) ⟺ prev.clock > cur[prev.slot]` — an
/// O(1) comparison with no per-access clock clone. Locksets are interned
/// ids in the rank's [`LocksetTable`] for the same reason.
struct AccessRecord {
    seg: SegKey,
    /// The accessing segment's clock slot.
    slot: usize,
    /// The segment's own clock component at the access (post-tick).
    clock: u64,
    lockset: LocksetId,
    kind: AccessKind,
    access: RaceAccess,
}

/// Per-location access history. `pushed` counts records ever pushed and is
/// never decremented by retirement, so the history cap bounds the accesses
/// a location is ever compared against, not just the live ones.
#[derive(Default)]
struct LocHistory {
    records: Vec<AccessRecord>,
    pushed: usize,
}

/// All per-segment analysis state, held in one map entry so the hot path
/// pays one hash lookup per event instead of one per parallel map.
struct SegState {
    /// The segment's clock slot (unique per segment, never reused — even
    /// across retirement, so remembered epochs can never alias another
    /// segment's component).
    slot: usize,
    vc: VectorClock,
    lockset: LocksetId,
}

/// A joined segment awaiting retirement. Only the final `(slot, clock)`
/// epoch is kept (the vector clock is already dropped): a later sweep
/// retires the segment's history records once every possible future access
/// provably happens-after this epoch.
struct PendingSeg {
    seg: SegKey,
    slot: usize,
    clock: u64,
}

/// All mutable analysis state of one rank.
struct RankStream {
    segs: FxHashMap<SegKey, SegState>,
    /// Next clock slot to assign (monotone, never reused).
    next_slot: usize,
    lockset_table: LocksetTable,
    release_vc: FxHashMap<LockId, VectorClock>,
    fork_vc: FxHashMap<RegionId, VectorClock>,
    barrier_join: FxHashMap<(RegionId, BarrierId, u64), VectorClock>,
    /// Team width announced by each region's `Fork` event; source of the
    /// synthesized barrier participant set.
    region_nthreads: FxHashMap<RegionId, u32>,
    /// Segments seen per region so far, in first-seen order.
    region_threads: FxHashMap<RegionId, Vec<SegKey>>,
    history: FxHashMap<MemLoc, LocHistory>,
    history_overflow: bool,
    reported: FxHashSet<(MemLoc, SegKey, SegKey, u32, u32)>,
    races: Vec<Race>,
    last_seq: Option<u64>,
    peak_live: usize,
    retired: usize,
    /// Joined segments whose history records are not yet provably
    /// unreachable (another region was live at join time).
    pending: Vec<PendingSeg>,
    retired_overlapping: usize,
}

impl RankStream {
    fn new() -> Self {
        RankStream {
            segs: FxHashMap::default(),
            next_slot: 0,
            lockset_table: LocksetTable::new(),
            release_vc: FxHashMap::default(),
            fork_vc: FxHashMap::default(),
            barrier_join: FxHashMap::default(),
            region_nthreads: FxHashMap::default(),
            region_threads: FxHashMap::default(),
            history: FxHashMap::default(),
            history_overflow: false,
            reported: FxHashSet::default(),
            races: Vec::new(),
            last_seq: None,
            peak_live: 0,
            retired: 0,
            pending: Vec::new(),
            retired_overlapping: 0,
        }
    }

    /// The segment's state, lazily initialized on first sight (region
    /// threads inherit the fork clock when one was recorded, and the fresh
    /// clock counts one local step). Unknown segment ids — possible in
    /// hand-built or corrupted offline traces — therefore get a fresh clock
    /// instead of a lookup failure.
    fn seg_mut(&mut self, seg: SegKey) -> &mut SegState {
        let RankStream {
            segs,
            next_slot,
            fork_vc,
            ..
        } = self;
        segs.entry(seg).or_insert_with(|| {
            let slot = *next_slot;
            *next_slot += 1;
            let mut vc = match seg.0.and_then(|region| fork_vc.get(&region)) {
                Some(fork_vc) => fork_vc.clone(),
                None => VectorClock::new(),
            };
            vc.tick(slot);
            SegState {
                slot,
                vc,
                lockset: LocksetTable::EMPTY,
            }
        })
    }

    /// Advance the segment's clock one local step, returning
    /// `(slot, new own component)`.
    fn advance(&mut self, seg: SegKey) -> (usize, u64) {
        let state = self.seg_mut(seg);
        let value = state.vc.tick(state.slot);
        (state.slot, value)
    }

    /// Consume one event of this rank. A join of a region that was never
    /// forked and never populated, or a sequence number going backwards,
    /// is a [`HomeError::CorruptTrace`].
    fn on_event(
        &mut self,
        rank: Rank,
        e: &Event,
        config: &DetectorConfig,
        sink: Option<&dyn RaceSink>,
    ) -> Result<(), HomeError> {
        if let Some(prev) = self.last_seq {
            if e.seq < prev {
                return Err(HomeError::corrupt_trace(format!(
                    "out-of-order event stream on {rank}: seq {} after seq {prev}",
                    e.seq
                )));
            }
        }
        self.last_seq = Some(e.seq);

        let seg: SegKey = (e.region, e.tid);
        if let Some(region) = e.region {
            let v = self.region_threads.entry(region).or_default();
            if !v.contains(&seg) {
                v.push(seg);
            }
        }

        match &e.kind {
            EventKind::Fork { region, nthreads } => {
                self.region_nthreads.insert(*region, *nthreads);
                let vc = self.seg_mut(seg).vc.clone();
                self.fork_vc.insert(*region, vc);
                self.advance(seg);
            }
            EventKind::JoinRegion { region } => {
                if !self.fork_vc.contains_key(region) && !self.region_threads.contains_key(region) {
                    return Err(HomeError::corrupt_trace(format!(
                        "join event at seq {} on {rank} references unknown segment {region} \
                         (no fork recorded and no thread events)",
                        e.seq
                    )));
                }
                // Detach the spine state so the sibling clocks can be
                // borrowed in place instead of cloned.
                self.seg_mut(seg);
                if let Some(mut state) = self.segs.remove(&seg) {
                    for s in self.region_threads.get(region).into_iter().flatten() {
                        if let Some(j) = self.segs.get(s) {
                            state.vc.join(&j.vc);
                        }
                    }
                    self.segs.insert(seg, state);
                }
                self.advance(seg);
                // The join folded the region's final clocks into the spine,
                // so its segments are candidates for retirement. With no
                // other region live they retire in this very sweep; under
                // overlapping/nested regions they wait in `pending` until
                // the per-segment reachability check proves every possible
                // future access happens-after their final epoch.
                if config.mode != DetectorMode::LocksetOnly {
                    self.begin_retire(*region);
                    self.sweep_retired();
                }
            }
            EventKind::Barrier { barrier, epoch } => {
                if let Some(region) = e.region {
                    let key = (region, *barrier, *epoch);
                    if !self.barrier_join.contains_key(&key) {
                        // First arrival processed: the runtime emits
                        // barrier events only after the whole team
                        // arrived, so every participant's pre-barrier
                        // events are already folded into its clock and
                        // the epoch join is computable now, from borrowed
                        // participant clocks. The team is synthesized from
                        // the fork's width; a trace missing the fork
                        // (hand-built) falls back to the threads seen so
                        // far.
                        let participants: Vec<SegKey> = match self.region_nthreads.get(&region) {
                            Some(&n) => (0..n).map(|t| (Some(region), Tid(t))).collect(),
                            None => self
                                .region_threads
                                .get(&region)
                                .cloned()
                                .unwrap_or_default(),
                        };
                        let mut join = VectorClock::new();
                        for p in participants {
                            join.join(&self.seg_mut(p).vc);
                        }
                        self.barrier_join.insert(key, join);
                    }
                    self.seg_mut(seg);
                    let RankStream {
                        segs, barrier_join, ..
                    } = self;
                    if let (Some(join), Some(state)) = (barrier_join.get(&key), segs.get_mut(&seg))
                    {
                        state.vc.join(join);
                    }
                    self.advance(seg);
                    // Barriers fold whole-team clocks, the strongest
                    // ordering edge inside a region — the natural moment a
                    // pending segment from an overlapped region becomes
                    // provably unreachable.
                    self.sweep_retired();
                }
            }
            EventKind::Acquire { lock } => {
                if !config.ignore_locks {
                    self.seg_mut(seg);
                    let RankStream {
                        segs,
                        release_vc,
                        lockset_table,
                        ..
                    } = self;
                    if let Some(state) = segs.get_mut(&seg) {
                        if let Some(rvc) = release_vc.get(lock) {
                            state.vc.join(rvc);
                        }
                        state.lockset = lockset_table.with_insert(state.lockset, *lock);
                        state.vc.tick(state.slot);
                    }
                }
            }
            EventKind::Release { lock } => {
                if !config.ignore_locks {
                    self.seg_mut(seg);
                    let RankStream {
                        segs,
                        release_vc,
                        lockset_table,
                        ..
                    } = self;
                    if let Some(state) = segs.get_mut(&seg) {
                        state.lockset = lockset_table.with_remove(state.lockset, *lock);
                        release_vc.insert(*lock, state.vc.clone());
                        state.vc.tick(state.slot);
                    }
                }
            }
            kind => {
                if let Some((loc, akind)) = kind.access() {
                    let state = self.seg_mut(seg);
                    let clock = state.vc.tick(state.slot);
                    let record = AccessRecord {
                        seg,
                        slot: state.slot,
                        clock,
                        lockset: state.lockset,
                        kind: akind,
                        access: race_access(e, akind),
                    };
                    self.check_and_insert(rank, loc, record, config, sink);
                } else {
                    self.advance(seg);
                }
            }
        }
        self.peak_live = self.peak_live.max(self.segs.len());
        Ok(())
    }

    /// Begin retiring a joined region: drop its bookkeeping (fork clock,
    /// barrier joins, team roster) and move its segments' final epochs to
    /// the pending list. The vector clocks and locksets are freed here —
    /// only the scalar `(slot, clock)` epoch survives, which is all
    /// [`RankStream::sweep_retired`] needs to decide reachability, and all
    /// the race check needs to test remembered records (slots are never
    /// reused, so the epochs stay exact).
    fn begin_retire(&mut self, region: RegionId) {
        let mut keys: Vec<SegKey> = self.region_threads.remove(&region).unwrap_or_default();
        if let Some(n) = self.region_nthreads.remove(&region) {
            for t in 0..n {
                let seg = (Some(region), Tid(t));
                if !keys.contains(&seg) {
                    keys.push(seg);
                }
            }
        }
        self.fork_vc.remove(&region);
        self.barrier_join.retain(|(r, _, _), _| *r != region);
        for seg in keys {
            if let Some(state) = self.segs.remove(&seg) {
                self.pending.push(PendingSeg {
                    seg,
                    slot: state.slot,
                    clock: state.vc.get(state.slot),
                });
            }
        }
    }

    /// Per-segment reachability sweep: a pending segment retires once every
    /// possible future access happens-after its final epoch `(slot, clock)`
    /// — at which point no future access can be HB-concurrent with any of
    /// its remembered records, and they can be dropped.
    ///
    /// "Every possible future access" decomposes into (a) accesses by
    /// currently live segments, covered iff each live clock dominates the
    /// epoch (new regions they fork later inherit a dominating clock
    /// transitively), and (b) first accesses of live regions' *not yet
    /// materialized* team members, whose initial clock is the region's fork
    /// clock — covered iff that fork clock dominates the epoch, or the team
    /// is already fully materialized (fork width known and every member
    /// seen), leaving no such future member.
    ///
    /// With no region live this fires immediately for every pending segment
    /// (the join fold makes the spine dominate), reproducing the old
    /// serial-region behaviour; under overlap it is the reachability check
    /// that replaces the old "never retire" pessimism.
    fn sweep_retired(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut live_regions: FxHashSet<RegionId> = self.fork_vc.keys().copied().collect();
        live_regions.extend(self.region_nthreads.keys().copied());
        live_regions.extend(self.region_threads.keys().copied());
        let overlapping = !live_regions.is_empty();
        let materialized: FxHashSet<RegionId> = live_regions
            .iter()
            .copied()
            .filter(
                |r| match (self.region_nthreads.get(r), self.region_threads.get(r)) {
                    (Some(&n), Some(seen)) => (0..n).all(|t| seen.contains(&(Some(*r), Tid(t)))),
                    _ => false,
                },
            )
            .collect();

        let mut retired_now: Vec<SegKey> = Vec::new();
        let mut still_pending: Vec<PendingSeg> = Vec::new();
        for p in std::mem::take(&mut self.pending) {
            let live_segs_dominate = self.segs.values().all(|t| t.vc.get(p.slot) >= p.clock);
            let future_members_dominate = live_regions.iter().all(|r| {
                materialized.contains(r)
                    || self
                        .fork_vc
                        .get(r)
                        .is_some_and(|f| f.get(p.slot) >= p.clock)
            });
            if live_segs_dominate && future_members_dominate {
                retired_now.push(p.seg);
            } else {
                still_pending.push(p);
            }
        }
        self.pending = still_pending;
        if retired_now.is_empty() {
            return;
        }
        self.retired += retired_now.len();
        if overlapping {
            self.retired_overlapping += retired_now.len();
        }
        let retired_set: FxHashSet<SegKey> = retired_now.into_iter().collect();
        for h in self.history.values_mut() {
            h.records.retain(|r| !retired_set.contains(&r.seg));
        }
    }

    fn check_and_insert(
        &mut self,
        rank: Rank,
        loc: MemLoc,
        record: AccessRecord,
        config: &DetectorConfig,
        sink: Option<&dyn RaceSink>,
    ) {
        let same_physical = |a: SegKey, b: SegKey| a.1 == b.1 && (a.1 == Tid(0) || a.0 == b.0);
        let RankStream {
            history,
            lockset_table,
            history_overflow,
            reported,
            races,
            segs,
            ..
        } = self;
        let Some(cur_vc) = segs.get(&record.seg).map(|s| &s.vc) else {
            return; // unreachable: the access arm just advanced this clock
        };
        let entry = history.entry(loc).or_default();
        for prev in entry.records.iter() {
            if prev.seg == record.seg || same_physical(prev.seg, record.seg) {
                continue;
            }
            if prev.kind == AccessKind::Read && record.kind == AccessKind::Read {
                continue;
            }
            // The FastTrack epoch check (see [`AccessRecord`]): `prev` is
            // HB-concurrent with the current access iff its own clock
            // component exceeds the current clock's entry for its slot.
            let hb_concurrent = || prev.clock > cur_vc.get(prev.slot);
            let is_race = match config.mode {
                DetectorMode::Hybrid => {
                    hb_concurrent() && lockset_table.disjoint(prev.lockset, record.lockset)
                }
                DetectorMode::LocksetOnly => lockset_table.disjoint(prev.lockset, record.lockset),
                DetectorMode::HappensBeforeOnly => hb_concurrent(),
            };
            if is_race {
                let line = |a: &RaceAccess| a.loc.as_ref().map(|l| l.line).unwrap_or(0);
                let (la, lb) = (line(&prev.access), line(&record.access));
                let key = (
                    loc,
                    prev.seg.min(record.seg),
                    prev.seg.max(record.seg),
                    la.min(lb),
                    la.max(lb),
                );
                if config.dedupe_pairs && !reported.insert(key) {
                    continue;
                }
                let race = Race {
                    rank,
                    loc,
                    first: prev.access.clone(),
                    second: record.access.clone(),
                };
                if let Some(sink) = sink {
                    sink.on_race(&race);
                }
                races.push(race);
            }
        }
        if entry.pushed < config.history_cap {
            entry.records.push(record);
            entry.pushed += 1;
        } else {
            *history_overflow = true;
        }
    }
}

fn race_access(e: &Event, kind: AccessKind) -> RaceAccess {
    RaceAccess {
        seq: e.seq,
        tid: e.tid,
        region: e.region,
        kind,
        loc: e.loc.clone(),
        mpi: e.kind.mpi_call().cloned(),
    }
}

#[derive(Default)]
struct Shard {
    ranks: HashMap<Rank, RankStream>,
}

/// The online detector. Feed it events (in recording order per rank) via
/// [`EventSink::on_event`] or [`home_trace::TraceSink::record`], then call
/// [`StreamDetector::finish`] once to collect races and statistics.
pub struct StreamDetector {
    config: DetectorConfig,
    shards: Vec<Mutex<Shard>>,
    events: AtomicU64,
    failed: AtomicBool,
    error: Mutex<Option<HomeError>>,
    start: OnceLock<Instant>,
    race_sink: Option<Arc<dyn RaceSink>>,
}

impl StreamDetector {
    /// Create a detector with the given configuration (`config.jobs` is
    /// ignored — streaming parallelism comes from the producers).
    pub fn new(config: DetectorConfig) -> Self {
        StreamDetector {
            config,
            shards: (0..RANK_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            events: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
            start: OnceLock::new(),
            race_sink: None,
        }
    }

    /// Create a detector that reports each race to `sink` the moment it is
    /// discovered (see [`RaceSink`] for the re-entrancy contract). The
    /// races are still accumulated and returned by
    /// [`StreamDetector::finish`] as usual.
    pub fn with_race_sink(config: DetectorConfig, sink: Arc<dyn RaceSink>) -> Self {
        StreamDetector {
            race_sink: Some(sink),
            ..StreamDetector::new(config)
        }
    }

    /// Consume one event. Infallible at the call site; the first structural
    /// error (corrupt stream) is stashed and surfaced by `finish`, and all
    /// further events are ignored.
    pub fn consume(&self, e: &Event) {
        self.consume_batch(std::slice::from_ref(e));
    }

    /// Consume a batch of events, resolving the shard lock and rank-state
    /// lookup once per run of same-rank events instead of once per event.
    /// HBT sections are rank-clustered, so a batch typically dissolves
    /// into a handful of long runs. Byte-identical to calling
    /// [`StreamDetector::consume`] per event: per-rank event order is
    /// preserved, and on a structural error the events up to and
    /// including the failing one are counted, none after (the error is
    /// stashed for `finish`, and every later event is ignored).
    pub fn consume_batch(&self, events: &[Event]) {
        let mut rest = events;
        while let Some(first) = rest.first() {
            if self.failed.load(Ordering::Relaxed) {
                return;
            }
            self.start.get_or_init(Instant::now);
            let rank = first.rank;
            let run_len = rest
                .iter()
                .position(|e| e.rank != rank)
                .unwrap_or(rest.len());
            let (run, tail) = rest.split_at(run_len);
            rest = tail;
            let shard = &self.shards[rank.index() % RANK_SHARDS];
            let mut guard = shard.lock();
            let st = guard.ranks.entry(rank).or_insert_with(RankStream::new);
            let mut consumed = 0u64;
            let mut failure = None;
            for e in run {
                consumed += 1;
                if let Err(err) = st.on_event(rank, e, &self.config, self.race_sink.as_deref()) {
                    failure = Some(err);
                    break;
                }
            }
            drop(guard);
            self.events.fetch_add(consumed, Ordering::Relaxed);
            if let Some(err) = failure {
                self.failed.store(true, Ordering::Relaxed);
                let mut slot = self.error.lock();
                if slot.is_none() {
                    *slot = Some(err);
                }
                return;
            }
        }
    }

    /// Finalize: drain all rank states and return the races (concatenated
    /// in ascending rank order) plus run statistics. Call once; a second
    /// call sees an empty detector.
    pub fn finish(&self) -> Result<(Vec<Race>, StreamStats), HomeError> {
        if let Some(err) = self.error.lock().take() {
            return Err(err);
        }
        let elapsed = self.start.get().map(Instant::elapsed).unwrap_or_default();
        let mut per_rank: Vec<(Rank, RankStream)> = Vec::new();
        for shard in &self.shards {
            per_rank.extend(shard.lock().ranks.drain());
        }
        per_rank.sort_by_key(|(rank, _)| *rank);
        let mut races = Vec::new();
        let mut stats = StreamStats {
            events: self.events.load(Ordering::Relaxed),
            ..StreamStats::default()
        };
        for (_, st) in per_rank {
            races.extend(st.races);
            stats.peak_live_segments += st.peak_live;
            stats.total_segments += st.next_slot;
            stats.retired_segments += st.retired;
            stats.retired_while_overlapping += st.retired_overlapping;
            stats.history_overflow |= st.history_overflow;
        }
        let secs = elapsed.as_secs_f64();
        stats.events_per_sec = if secs > 0.0 {
            stats.events as f64 / secs
        } else {
            0.0
        };
        Ok((races, stats))
    }
}

impl EventSink for StreamDetector {
    fn on_event(&self, event: &Event) {
        self.consume(event);
    }
}

impl TraceSink for StreamDetector {
    fn record(&self, event: Event) {
        self.consume(&event);
    }
}

/// Run the detector over a trace.
///
/// Structurally inconsistent input — e.g. a join event referencing a
/// region no fork ever announced, which a hand-built or corrupted offline
/// trace can contain — yields [`HomeError::CorruptTrace`], never a panic.
///
/// ```
/// use home_dynamic::{detect, DetectorConfig};
/// use home_trace::{AccessKind, Event, EventKind, MemLoc, Rank, RegionId, Tid, Trace, VarId};
///
/// // Two threads of one region write the same variable, unsynchronized.
/// let write = |seq, tid| Event {
///     seq,
///     rank: Rank(0),
///     tid: Tid(tid),
///     region: Some(RegionId(0)),
///     time_ns: seq,
///     loc: None,
///     kind: EventKind::Access { loc: MemLoc::Var(VarId(0)), kind: AccessKind::Write },
/// };
/// let trace = Trace::from_events(vec![write(0, 0), write(1, 1)]);
/// let races = detect(&trace, &DetectorConfig::hybrid()).unwrap();
/// assert_eq!(races.len(), 1);
/// ```
pub fn detect(trace: &Trace, config: &DetectorConfig) -> Result<Vec<Race>, HomeError> {
    Ok(detect_stream(trace, config)?.0)
}

/// [`detect`], also returning the run's [`StreamStats`] (history-cap
/// overflow, segment retirement, throughput).
pub fn detect_stream(
    trace: &Trace,
    config: &DetectorConfig,
) -> Result<(Vec<Race>, StreamStats), HomeError> {
    let detector = StreamDetector::new(config.clone());
    for e in trace.events() {
        detector.consume(e);
    }
    detector.finish()
}

/// [`detect_stream`] over the amortized batch feed path: events go
/// through [`StreamDetector::consume_batch`] in chunks of `batch`
/// events (the whole trace at once when `batch` is 0). Byte-identical
/// results for every batch size.
pub fn detect_stream_batched(
    trace: &Trace,
    config: &DetectorConfig,
    batch: usize,
) -> Result<(Vec<Race>, StreamStats), HomeError> {
    let detector = StreamDetector::new(config.clone());
    let events = trace.events();
    if batch == 0 {
        detector.consume_batch(events);
    } else {
        for chunk in events.chunks(batch) {
            detector.consume_batch(chunk);
        }
    }
    detector.finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use home_trace::{MonitoredVar, MpiCallKind, MpiCallRecord, SrcLoc, VarId};

    /// Tiny trace builder for handcrafted scenarios.
    struct TB {
        events: Vec<Event>,
        seq: u64,
    }

    impl TB {
        fn new() -> TB {
            TB {
                events: Vec::new(),
                seq: 0,
            }
        }

        fn ev(&mut self, tid: u32, region: Option<u64>, kind: EventKind) -> &mut Self {
            self.events.push(Event {
                seq: self.seq,
                rank: Rank(0),
                tid: Tid(tid),
                region: region.map(RegionId),
                time_ns: self.seq,
                loc: Some(SrcLoc::new("t.hmp", self.seq as u32 + 1)),
                kind,
            });
            self.seq += 1;
            self
        }

        fn write(&mut self, tid: u32, region: Option<u64>, var: u32) -> &mut Self {
            self.ev(
                tid,
                region,
                EventKind::Access {
                    loc: MemLoc::Var(VarId(var)),
                    kind: AccessKind::Write,
                },
            )
        }

        /// A write whose event carries a fixed source line (same call site
        /// across repetitions).
        fn write_at(&mut self, tid: u32, region: Option<u64>, var: u32, line: u32) -> &mut Self {
            self.events.push(Event {
                seq: self.seq,
                rank: Rank(0),
                tid: Tid(tid),
                region: region.map(RegionId),
                time_ns: self.seq,
                loc: Some(SrcLoc::new("t.hmp", line)),
                kind: EventKind::Access {
                    loc: MemLoc::Var(VarId(var)),
                    kind: AccessKind::Write,
                },
            });
            self.seq += 1;
            self
        }

        fn read(&mut self, tid: u32, region: Option<u64>, var: u32) -> &mut Self {
            self.ev(
                tid,
                region,
                EventKind::Access {
                    loc: MemLoc::Var(VarId(var)),
                    kind: AccessKind::Read,
                },
            )
        }

        fn fork(&mut self, region: u64, n: u32) -> &mut Self {
            self.ev(
                0,
                None,
                EventKind::Fork {
                    region: RegionId(region),
                    nthreads: n,
                },
            )
        }

        fn join(&mut self, region: u64) -> &mut Self {
            self.ev(
                0,
                None,
                EventKind::JoinRegion {
                    region: RegionId(region),
                },
            )
        }

        fn acquire(&mut self, tid: u32, region: Option<u64>, lock: u32) -> &mut Self {
            self.ev(tid, region, EventKind::Acquire { lock: LockId(lock) })
        }

        fn release(&mut self, tid: u32, region: Option<u64>, lock: u32) -> &mut Self {
            self.ev(tid, region, EventKind::Release { lock: LockId(lock) })
        }

        fn barrier(&mut self, tid: u32, region: u64, epoch: u64) -> &mut Self {
            self.ev(
                tid,
                Some(region),
                EventKind::Barrier {
                    barrier: BarrierId(region as u32),
                    epoch,
                },
            )
        }

        fn trace(&self) -> Trace {
            Trace::from_events(self.events.clone())
        }
    }

    fn hybrid(trace: &Trace) -> Vec<Race> {
        detect(trace, &DetectorConfig::hybrid()).unwrap()
    }

    #[test]
    fn unsynchronized_concurrent_writes_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .write(1, Some(0), 7)
            .join(0);
        let races = hybrid(&tb.trace());
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].loc, MemLoc::Var(VarId(7)));
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .read(0, Some(0), 7)
            .read(1, Some(0), 7)
            .join(0);
        assert!(hybrid(&tb.trace()).is_empty());
    }

    #[test]
    fn write_read_is_a_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .read(1, Some(0), 7)
            .join(0);
        assert_eq!(hybrid(&tb.trace()).len(), 1);
    }

    #[test]
    fn different_locations_do_not_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .write(1, Some(0), 8)
            .join(0);
        assert!(hybrid(&tb.trace()).is_empty());
    }

    #[test]
    fn common_lock_prevents_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .acquire(0, Some(0), 1)
            .write(0, Some(0), 7)
            .release(0, Some(0), 1)
            .acquire(1, Some(0), 1)
            .write(1, Some(0), 7)
            .release(1, Some(0), 1)
            .join(0);
        assert!(hybrid(&tb.trace()).is_empty());
    }

    #[test]
    fn disjoint_locks_still_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .acquire(0, Some(0), 1)
            .write(0, Some(0), 7)
            .release(0, Some(0), 1)
            .acquire(1, Some(0), 2)
            .write(1, Some(0), 7)
            .release(1, Some(0), 2)
            .join(0);
        assert_eq!(hybrid(&tb.trace()).len(), 1);
    }

    #[test]
    fn fork_join_orders_spine_accesses() {
        // Spine writes before fork and after join must not race with the
        // region's writes.
        let mut tb = TB::new();
        tb.write(0, None, 7)
            .fork(0, 2)
            .write(1, Some(0), 7)
            .join(0)
            .write(0, None, 7);
        assert!(hybrid(&tb.trace()).is_empty());
    }

    #[test]
    fn barrier_separates_phases() {
        // t0 writes before the barrier, t1 writes after: ordered.
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .barrier(0, 0, 0)
            .barrier(1, 0, 0)
            .write(1, Some(0), 7)
            .join(0);
        assert!(hybrid(&tb.trace()).is_empty());
    }

    #[test]
    fn writes_within_same_barrier_phase_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .barrier(0, 0, 0)
            .barrier(1, 0, 0)
            .write(0, Some(0), 7)
            .write(1, Some(0), 7)
            .join(0);
        assert_eq!(hybrid(&tb.trace()).len(), 1);
    }

    #[test]
    fn lockset_only_overreports_across_barrier() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .barrier(0, 0, 0)
            .barrier(1, 0, 0)
            .write(1, Some(0), 7)
            .join(0);
        let t = tb.trace();
        assert!(detect(&t, &DetectorConfig::hybrid()).unwrap().is_empty());
        assert_eq!(
            detect(&t, &DetectorConfig::lockset_only()).unwrap().len(),
            1
        );
    }

    #[test]
    fn hb_only_flags_lock_protected_unordered_writes_the_same_as_lock_edges_allow() {
        // With release→acquire edges, lock-protected writes are ordered, so
        // HB-only agrees with hybrid here.
        let mut tb = TB::new();
        tb.fork(0, 2)
            .acquire(0, Some(0), 1)
            .write(0, Some(0), 7)
            .release(0, Some(0), 1)
            .acquire(1, Some(0), 1)
            .write(1, Some(0), 7)
            .release(1, Some(0), 1)
            .join(0);
        let t = tb.trace();
        assert!(detect(&t, &DetectorConfig::hb_only()).unwrap().is_empty());
    }

    #[test]
    fn ignore_locks_reintroduces_critical_race() {
        // The ITC model: blind to omp critical → reports a false positive.
        let mut tb = TB::new();
        tb.fork(0, 2)
            .acquire(0, Some(0), 1)
            .write(0, Some(0), 7)
            .release(0, Some(0), 1)
            .acquire(1, Some(0), 1)
            .write(1, Some(0), 7)
            .release(1, Some(0), 1)
            .join(0);
        let t = tb.trace();
        let cfg = DetectorConfig {
            ignore_locks: true,
            ..DetectorConfig::hybrid()
        };
        assert_eq!(
            detect(&t, &cfg).unwrap().len(),
            1,
            "critical-blind detector flags it"
        );
    }

    #[test]
    fn monitored_writes_race_and_carry_mpi_records() {
        let mut tb = TB::new();
        let call = |tag: i32| MpiCallRecord {
            kind: MpiCallKind::Recv,
            peer: Some(0),
            tag: Some(tag),
            comm: home_trace::COMM_WORLD,
            request: None,
            is_main_thread: false,
            thread_level: Some(home_trace::ThreadLevel::Multiple),
        };
        tb.fork(0, 2)
            .ev(
                0,
                Some(0),
                EventKind::MonitoredWrite {
                    var: MonitoredVar::Tag,
                    call: call(0),
                },
            )
            .ev(
                1,
                Some(0),
                EventKind::MonitoredWrite {
                    var: MonitoredVar::Tag,
                    call: call(0),
                },
            )
            .join(0);
        let races = hybrid(&tb.trace());
        assert_eq!(races.len(), 1);
        assert!(races[0].is_monitored());
        assert_eq!(races[0].loc, MemLoc::Monitored(MonitoredVar::Tag));
    }

    #[test]
    fn races_in_different_regions_are_separated_by_spine() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(1, Some(0), 7)
            .join(0)
            .fork(1, 2)
            .write(1, Some(1), 7)
            .join(1);
        assert!(hybrid(&tb.trace()).is_empty());
    }

    #[test]
    fn dedupe_reports_one_race_per_call_site_pair() {
        // The same two call sites (fixed lines) race repeatedly: one report.
        let mut tb = TB::new();
        tb.fork(0, 2);
        for _ in 0..5 {
            tb.write_at(0, Some(0), 7, 100).write_at(1, Some(0), 7, 200);
        }
        tb.join(0);
        let t = tb.trace();
        assert_eq!(hybrid(&t).len(), 1);
        let cfg = DetectorConfig {
            dedupe_pairs: false,
            ..DetectorConfig::hybrid()
        };
        assert!(detect(&t, &cfg).unwrap().len() > 1);
    }

    #[test]
    fn distinct_call_sites_each_report() {
        // Two independent racy pairs at different lines in one region must
        // both be reported (regression: an earlier dedupe keyed only on the
        // thread pair and shadowed the second site).
        let mut tb = TB::new();
        tb.fork(0, 2);
        tb.write_at(0, Some(0), 7, 10).write_at(1, Some(0), 7, 10);
        tb.write_at(0, Some(0), 7, 20).write_at(1, Some(0), 7, 20);
        tb.join(0);
        let races = hybrid(&tb.trace());
        let mut lines: Vec<u32> = races
            .iter()
            .flat_map(|r| [&r.first, &r.second])
            .filter_map(|a| a.loc.as_ref().map(|l| l.line))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert!(lines.contains(&10) && lines.contains(&20), "{races:?}");
    }

    #[test]
    fn history_cap_overflow_is_reported_not_silent() {
        let mut tb = TB::new();
        tb.fork(0, 2);
        for _ in 0..20 {
            tb.write(0, Some(0), 7);
        }
        tb.join(0);
        let t = tb.trace();
        let tight = DetectorConfig {
            history_cap: 4,
            ..DetectorConfig::hybrid()
        };
        let (_, stats) = detect_stream(&t, &tight).unwrap();
        assert!(stats.history_overflow, "cap of 4 must overflow");
        let (_, stats) = detect_stream(&t, &DetectorConfig::hybrid()).unwrap();
        assert!(!stats.history_overflow);
        assert_eq!(stats.events, 22);
    }

    #[test]
    fn join_of_unknown_segment_is_a_typed_error_not_a_panic() {
        // A hand-built (or corrupted) offline trace whose join event
        // references a region that was never forked and has no thread
        // events: the detector must degrade to a CorruptTrace error.
        let mut tb = TB::new();
        tb.write(0, None, 7).ev(
            0,
            None,
            EventKind::JoinRegion {
                region: RegionId(42),
            },
        );
        let err = detect(&tb.trace(), &DetectorConfig::hybrid()).unwrap_err();
        assert_eq!(err.category(), "corrupt-trace");
        assert!(err.to_string().contains("unknown segment"), "{err}");
        assert!(err.to_string().contains("region42"), "{err}");
    }

    #[test]
    fn join_of_forked_empty_region_is_fine() {
        // Fork immediately followed by join (no thread events) is a legal
        // recording of an empty region — not corruption.
        let mut tb = TB::new();
        tb.fork(3, 2).join(3);
        assert!(hybrid(&tb.trace()).is_empty());
    }

    #[test]
    fn ranks_interleaved_in_one_stream_match_each_rank_alone() {
        // A multi-rank trace with a real race on each rank, ranks
        // interleaved event by event: the races are those of each rank's
        // events alone, concatenated in rank order, whatever `jobs` says.
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut push = |rank: u32, tid: u32, region: Option<u64>, kind: EventKind| {
            events.push(Event {
                seq,
                rank: Rank(rank),
                tid: Tid(tid),
                region: region.map(RegionId),
                time_ns: seq,
                loc: Some(SrcLoc::new("p.hmp", seq as u32 + 1)),
                kind,
            });
            seq += 1;
        };
        for rank in (0..4u32).rev() {
            push(
                rank,
                0,
                None,
                EventKind::Fork {
                    region: RegionId(0),
                    nthreads: 2,
                },
            );
        }
        for tid in 0..2u32 {
            for rank in 0..4u32 {
                push(
                    rank,
                    tid,
                    Some(0),
                    EventKind::Access {
                        loc: MemLoc::Var(VarId(rank)),
                        kind: AccessKind::Write,
                    },
                );
            }
        }
        let t = Trace::from_events(events);
        let races = detect(&t, &DetectorConfig::hybrid()).unwrap();
        assert_eq!(races.len(), 4, "one race per rank");
        let mut alone = Vec::new();
        for &rank in t.ranks() {
            let own = Trace::from_events(t.by_rank(rank).cloned().collect());
            alone.extend(detect(&own, &DetectorConfig::hybrid()).unwrap());
        }
        assert_eq!(races, alone);
        for jobs in [1, 2, 8] {
            let cfg = DetectorConfig {
                jobs,
                ..DetectorConfig::hybrid()
            };
            assert_eq!(detect(&t, &cfg).unwrap(), races, "jobs={jobs}");
        }
    }

    #[test]
    fn ranks_are_analyzed_independently() {
        // Same variable written by threads of *different ranks* — not a
        // shared-memory race.
        let mut events = Vec::new();
        for (seq, rank) in [(0u64, 0u32), (1, 1)] {
            events.push(Event {
                seq,
                rank: Rank(rank),
                tid: Tid(0),
                region: Some(RegionId(0)),
                time_ns: 0,
                loc: None,
                kind: EventKind::Access {
                    loc: MemLoc::Var(VarId(7)),
                    kind: AccessKind::Write,
                },
            });
        }
        let t = Trace::from_events(events);
        assert!(hybrid(&t).is_empty());
    }

    #[test]
    fn joined_region_retires_its_segments() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .write(1, Some(0), 7)
            .join(0);
        let (races, stats) = detect_stream(&tb.trace(), &DetectorConfig::hybrid()).unwrap();
        assert_eq!(races.len(), 1);
        assert_eq!(stats.events, 4);
        assert!(stats.retired_segments >= 2, "{stats:?}");
    }

    #[test]
    fn pruning_keeps_live_below_total_across_regions() {
        let mut tb = TB::new();
        for r in 0..4u64 {
            tb.fork(r, 2)
                .write(0, Some(r), r as u32)
                .write(1, Some(r), r as u32)
                .join(r);
        }
        let (races, stats) = detect_stream(&tb.trace(), &DetectorConfig::hybrid()).unwrap();
        assert_eq!(races.len(), 4);
        assert!(stats.peak_live_segments < stats.total_segments, "{stats:?}");
        assert_eq!(stats.retired_segments, 8, "{stats:?}");
    }

    #[test]
    fn no_pruning_in_lockset_only_mode() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .write(1, Some(0), 7)
            .join(0);
        let (_, stats) = detect_stream(&tb.trace(), &DetectorConfig::lockset_only()).unwrap();
        assert_eq!(stats.retired_segments, 0);
    }

    /// The reachability sweep retires a region joined *while another region
    /// is still live*, once lock-release edges and a barrier make every
    /// live clock dominate its final epoch.
    #[test]
    fn overlapping_region_retires_via_reachability_sweep() {
        let mut tb = TB::new();
        tb.fork(1, 2)
            .write(0, Some(1), 10)
            .write(1, Some(1), 10) // race inside R1
            .fork(2, 1) // spine forks R2 while R1 is live
            .write(0, Some(2), 20)
            .join(2) // R2 joins under overlap -> pending, not retired
            // Publish the spine's post-join clock (which covers R2) to both
            // R1 workers through a lock-release chain...
            .acquire(0, None, 9)
            .release(0, None, 9)
            .acquire(0, Some(1), 9)
            .release(0, Some(1), 9)
            .acquire(1, Some(1), 9)
            .release(1, Some(1), 9)
            // ...and let the barrier's sweep observe full domination.
            .barrier(0, 1, 0)
            .barrier(1, 1, 0)
            .write(0, Some(1), 30)
            .write(1, Some(1), 30) // post-barrier race, still detected
            .join(1);
        let (races, stats) = detect_stream(&tb.trace(), &DetectorConfig::hybrid()).unwrap();
        assert_eq!(races.len(), 2, "{races:?}");
        assert_eq!(stats.retired_while_overlapping, 1, "{stats:?}");
        assert_eq!(stats.retired_segments, 3, "{stats:?}");
    }

    /// A region joined under overlap stays pending while a live segment's
    /// clock does not dominate it (no ordering edge was recorded).
    #[test]
    fn unreachable_overlap_is_not_retired() {
        let mut tb = TB::new();
        tb.fork(1, 2)
            .write(0, Some(1), 10)
            .write(1, Some(1), 10)
            .fork(2, 1)
            .write(0, Some(2), 20)
            .join(2) // R1 workers never see R2's clock
            .join(1);
        let (_, stats) = detect_stream(&tb.trace(), &DetectorConfig::hybrid()).unwrap();
        assert_eq!(stats.retired_while_overlapping, 0, "{stats:?}");
        // R1's own segments still retire at its (non-overlapped) join; the
        // R2 segment is sweepable then too, since R1's bookkeeping is gone.
        assert!(stats.retired_segments >= 2, "{stats:?}");
    }

    #[test]
    fn race_sink_sees_each_race_at_discovery_time() {
        struct Collect(Mutex<Vec<Race>>);
        impl RaceSink for Collect {
            fn on_race(&self, race: &Race) {
                self.0.lock().push(race.clone());
            }
        }
        let mut tb = TB::new();
        tb.fork(0, 2)
            .write(0, Some(0), 7)
            .write(1, Some(0), 7)
            .join(0);
        let events = tb.trace().events().to_vec();
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        let d = StreamDetector::with_race_sink(DetectorConfig::hybrid(), sink.clone());
        d.consume(&events[0]);
        d.consume(&events[1]);
        assert!(sink.0.lock().is_empty(), "no race after one access");
        d.consume(&events[2]);
        assert_eq!(sink.0.lock().len(), 1, "race reported before finish");
        d.consume(&events[3]);
        let (races, _) = d.finish().unwrap();
        assert_eq!(*sink.0.lock(), races);
    }

    #[test]
    fn out_of_order_stream_is_a_typed_error() {
        let mut tb = TB::new();
        tb.write(0, None, 1).write(0, None, 1);
        let events = tb.trace().events().to_vec();
        let d = StreamDetector::new(DetectorConfig::hybrid());
        d.consume(&events[1]);
        d.consume(&events[0]);
        let err = d.finish().unwrap_err();
        assert!(matches!(err, HomeError::CorruptTrace { .. }), "{err:?}");
    }

    #[test]
    fn batched_feed_matches_event_at_a_time() {
        let mut tb = TB::new();
        tb.fork(0, 2);
        for i in 0..6 {
            tb.write(i % 2, Some(0), 7).read(1 - i % 2, Some(0), 8);
        }
        tb.join(0);
        let t = tb.trace();
        let (races, stats) = detect_stream(&t, &DetectorConfig::hybrid()).unwrap();
        for batch in [0, 1, 3, 64] {
            let (b_races, b_stats) =
                detect_stream_batched(&t, &DetectorConfig::hybrid(), batch).unwrap();
            assert_eq!(b_races, races, "batch={batch}");
            assert_eq!(b_stats.events, stats.events, "batch={batch}");
        }
    }
}
