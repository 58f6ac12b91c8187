//! The dynamic concurrency detector: Eraser-style locksets combined with
//! vector-clock happens-before, per the paper's Section IV-D.
//!
//! The detector runs offline over a recorded [`Trace`], per MPI process.
//! It reconstructs the happens-before partial order from synchronization
//! events (region fork/join, barriers with epochs, lock release→acquire)
//! and simultaneously maintains per-thread locksets. Depending on
//! [`DetectorMode`], a conflicting access pair (same location, different
//! logical threads, at least one write) is reported when it is
//! HB-concurrent, lockset-disjoint, or both (the paper's hybrid — fewer
//! false positives than either alone).
//!
//! Correctness of the single-pass algorithm relies on two recording-order
//! facts guaranteed by the runtime: (1) all pre-barrier events of every
//! participant have smaller sequence numbers than every barrier event of
//! that epoch, and (2) a region's fork event precedes all events of the
//! region's threads, whose events in turn precede the join event.

use crate::races::{Race, RaceAccess};
use home_trace::{
    AccessKind, BarrierId, Event, EventKind, FxHashMap, FxHashSet, HomeError, LockId, LocksetId,
    LocksetTable, MemLoc, Rank, RegionId, Tid, Trace, VectorClock,
};

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
    /// Worker threads for per-rank detection. Ranks are independent (the
    /// detector is offline and shares nothing across ranks), so they fan
    /// out over up to `jobs` threads; results merge back in rank order, so
    /// the output is identical for every value. `1` is exactly the serial
    /// path; the default is the machine's available parallelism.
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

/// A logical thread segment: the sequential master spine is
/// `(None, Tid(0))`; each thread of a region instance is `(Some(r), t)`.
type SegKey = (Option<RegionId>, Tid);

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

/// All per-segment analysis state, held in one map entry so the hot path
/// pays one hash lookup per event instead of one per parallel map.
struct SegState {
    /// The segment's clock slot (unique per segment, never reused).
    slot: usize,
    vc: VectorClock,
    lockset: LocksetId,
}

struct RankState {
    segs: FxHashMap<SegKey, SegState>,
    /// Next clock slot to assign (monotone — slots are never reused, so
    /// remembered epochs can never alias another segment's component).
    next_slot: usize,
    lockset_table: LocksetTable,
    /// VC stored at the last release of each lock.
    release_vc: FxHashMap<LockId, VectorClock>,
    /// Master's VC at each region fork.
    fork_vc: FxHashMap<RegionId, VectorClock>,
    /// Join VC per barrier epoch, computed lazily on first arrival event.
    barrier_join: FxHashMap<(RegionId, BarrierId, u64), VectorClock>,
    history: FxHashMap<MemLoc, Vec<AccessRecord>>,
    history_overflow: bool,
}

impl RankState {
    fn new() -> Self {
        RankState {
            segs: FxHashMap::default(),
            next_slot: 0,
            lockset_table: LocksetTable::new(),
            release_vc: FxHashMap::default(),
            fork_vc: FxHashMap::default(),
            barrier_join: FxHashMap::default(),
            history: FxHashMap::default(),
            history_overflow: false,
        }
    }

    /// The segment's state, lazily initialized on first sight (region
    /// threads inherit the fork VC when one was recorded, and the fresh
    /// clock counts one local step). Unknown segment ids — possible in
    /// hand-built or corrupted offline traces — therefore get a fresh
    /// clock instead of a lookup failure.
    fn seg_mut(&mut self, seg: SegKey) -> &mut SegState {
        let RankState {
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
}

/// Aggregate statistics from one detection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectStats {
    /// True if some location's access history hit the configured cap —
    /// pair coverage beyond the cap was dropped (raise
    /// [`DetectorConfig::history_cap`] to widen it).
    pub history_overflow: bool,
    /// Locations tracked across all ranks.
    pub locations: usize,
    /// Access events analyzed.
    pub accesses: usize,
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
    Ok(detect_with_stats(trace, config)?.0)
}

/// [`detect`], additionally returning coverage statistics (so harnesses can
/// check that the history cap did not silently truncate pair coverage).
///
/// Ranks are analyzed independently (per the paper the detector is an
/// offline per-process pass), so with `config.jobs > 1` they fan out over
/// scoped worker threads. Each rank's result lands in its own indexed slot
/// and the slots are merged in rank order, so the returned races and stats
/// are identical for every `jobs` value.
pub fn detect_with_stats(
    trace: &Trace,
    config: &DetectorConfig,
) -> Result<(Vec<Race>, DetectStats), HomeError> {
    let ranks = trace.ranks();
    let jobs = config.jobs.max(1).min(ranks.len().max(1));

    type RankResult = Result<(Vec<Race>, DetectStats), HomeError>;
    let per_rank: Vec<RankResult> = if jobs <= 1 {
        ranks
            .iter()
            .map(|&rank| detect_rank(trace, rank, config))
            .collect()
    } else {
        let mut slots: Vec<Option<RankResult>> = Vec::new();
        slots.resize_with(ranks.len(), || None);
        let chunk = ranks.len().div_ceil(jobs);
        std::thread::scope(|scope| {
            for (slot_chunk, rank_chunk) in slots.chunks_mut(chunk).zip(ranks.chunks(chunk)) {
                // A worker the OS refuses to start leaves its chunk empty.
                let _ = std::thread::Builder::new().spawn_scoped(scope, move || {
                    for (slot, &rank) in slot_chunk.iter_mut().zip(rank_chunk) {
                        *slot = Some(detect_rank(trace, rank, config));
                    }
                });
            }
        });
        // Every started worker fills its whole chunk before the scope
        // joins; the chunks of workers that never started are analyzed
        // here instead.
        slots
            .into_iter()
            .zip(ranks)
            .map(|(slot, &rank)| slot.unwrap_or_else(|| detect_rank(trace, rank, config)))
            .collect()
    };

    let mut races = Vec::new();
    let mut stats = DetectStats::default();
    for rank_result in per_rank {
        let (rank_races, rank_stats) = rank_result?;
        races.extend(rank_races);
        stats.history_overflow |= rank_stats.history_overflow;
        stats.locations += rank_stats.locations;
        stats.accesses += rank_stats.accesses;
    }
    Ok((races, stats))
}

/// Participants of each barrier epoch and of each region, gathered in a
/// pre-scan (needed to compute barrier joins on first arrival).
struct PreScan {
    barrier_participants: FxHashMap<(RegionId, BarrierId, u64), Vec<SegKey>>,
    region_threads: FxHashMap<RegionId, Vec<SegKey>>,
}

fn pre_scan(trace: &Trace, rank: Rank) -> PreScan {
    let mut barrier_participants: FxHashMap<(RegionId, BarrierId, u64), Vec<SegKey>> =
        FxHashMap::default();
    let mut region_threads: FxHashMap<RegionId, Vec<SegKey>> = FxHashMap::default();
    for e in trace.by_rank(rank) {
        let seg: SegKey = (e.region, e.tid);
        if let Some(region) = e.region {
            let v = region_threads.entry(region).or_default();
            if !v.contains(&seg) {
                v.push(seg);
            }
        }
        if let (Some(region), EventKind::Barrier { barrier, epoch }) = (e.region, &e.kind) {
            let v = barrier_participants
                .entry((region, *barrier, *epoch))
                .or_default();
            if !v.contains(&seg) {
                v.push(seg);
            }
        }
    }
    PreScan {
        barrier_participants,
        region_threads,
    }
}

/// Analyze one rank's events, returning its races and coverage stats.
/// Pure in `trace` — callers may run ranks on separate threads. A trace
/// that violates the recording-order invariants (join of a region never
/// forked and never populated) is reported as [`HomeError::CorruptTrace`].
fn detect_rank(
    trace: &Trace,
    rank: Rank,
    config: &DetectorConfig,
) -> Result<(Vec<Race>, DetectStats), HomeError> {
    let mut races = Vec::new();
    let scan = pre_scan(trace, rank);
    let mut st = RankState::new();
    let mut reported: FxHashSet<(MemLoc, SegKey, SegKey, u32, u32)> = FxHashSet::default();

    for e in trace.by_rank(rank) {
        let seg: SegKey = (e.region, e.tid);
        match &e.kind {
            EventKind::Fork { region, .. } => {
                let vc = st.seg_mut(seg).vc.clone();
                st.fork_vc.insert(*region, vc);
                st.advance(seg);
            }
            EventKind::JoinRegion { region } => {
                // A join must refer to a region the trace knows about —
                // either its fork was recorded or some thread ran in it.
                // Anything else is a hand-built/corrupted trace.
                if !st.fork_vc.contains_key(region) && !scan.region_threads.contains_key(region) {
                    return Err(HomeError::corrupt_trace(format!(
                        "join event at seq {} on {rank} references unknown segment {region} \
                         (no fork recorded and no thread events)",
                        e.seq
                    )));
                }
                // Join all region threads' final VCs into the spine. The
                // spine state is temporarily detached so the sibling clocks
                // can be borrowed in place instead of cloned.
                st.seg_mut(seg);
                if let Some(mut state) = st.segs.remove(&seg) {
                    for s in scan.region_threads.get(region).into_iter().flatten() {
                        if let Some(j) = st.segs.get(s) {
                            state.vc.join(&j.vc);
                        }
                    }
                    st.segs.insert(seg, state);
                }
                st.advance(seg);
            }
            EventKind::Barrier { barrier, epoch } => {
                if let Some(region) = e.region {
                    let key = (region, *barrier, *epoch);
                    if !st.barrier_join.contains_key(&key) {
                        // First arrival processed: every participant's
                        // pre-barrier events are already folded into its
                        // current VC (recording-order guarantee), so the
                        // epoch join is computable now, from borrowed
                        // participant clocks.
                        let mut join = VectorClock::new();
                        for p in scan.barrier_participants.get(&key).into_iter().flatten() {
                            join.join(&st.seg_mut(*p).vc);
                        }
                        st.barrier_join.insert(key, join);
                    }
                    st.seg_mut(seg);
                    let RankState {
                        segs, barrier_join, ..
                    } = &mut st;
                    if let (Some(join), Some(state)) = (barrier_join.get(&key), segs.get_mut(&seg))
                    {
                        state.vc.join(join);
                    }
                    st.advance(seg);
                }
            }
            EventKind::Acquire { lock } => {
                if !config.ignore_locks {
                    st.seg_mut(seg);
                    let RankState {
                        segs,
                        release_vc,
                        lockset_table,
                        ..
                    } = &mut st;
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
                    st.seg_mut(seg);
                    let RankState {
                        segs,
                        release_vc,
                        lockset_table,
                        ..
                    } = &mut st;
                    if let Some(state) = segs.get_mut(&seg) {
                        state.lockset = lockset_table.with_remove(state.lockset, *lock);
                        release_vc.insert(*lock, state.vc.clone());
                        state.vc.tick(state.slot);
                    }
                }
            }
            kind => {
                if let Some((loc, akind)) = kind.access() {
                    let state = st.seg_mut(seg);
                    let clock = state.vc.tick(state.slot);
                    let record = AccessRecord {
                        seg,
                        slot: state.slot,
                        clock,
                        lockset: state.lockset,
                        kind: akind,
                        access: race_access(e, akind),
                    };
                    let RankState {
                        history,
                        lockset_table,
                        history_overflow,
                        segs,
                        ..
                    } = &mut st;
                    if let Some(state) = segs.get(&seg) {
                        check_and_insert(
                            history,
                            lockset_table,
                            history_overflow,
                            rank,
                            loc,
                            record,
                            &state.vc,
                            config,
                            &mut reported,
                            &mut races,
                        );
                    }
                } else {
                    // MpiCall / MpiInit entries advance program order only.
                    st.advance(seg);
                }
            }
        }
    }
    let stats = DetectStats {
        history_overflow: st.history_overflow,
        locations: st.history.len(),
        accesses: st.history.values().map(Vec::len).sum::<usize>(),
    };
    Ok((races, stats))
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

#[allow(clippy::too_many_arguments)]
fn check_and_insert(
    all_history: &mut FxHashMap<MemLoc, Vec<AccessRecord>>,
    lockset_table: &mut LocksetTable,
    history_overflow: &mut bool,
    rank: Rank,
    loc: MemLoc,
    record: AccessRecord,
    cur_vc: &VectorClock,
    config: &DetectorConfig,
    reported: &mut FxHashSet<(MemLoc, SegKey, SegKey, u32, u32)>,
    races: &mut Vec<Race>,
) {
    // Segments of the same physical thread: the spine (None, 0) and any
    // region-master segment (Some(_), 0) share tid 0 of this process and
    // are ordered by fork/join edges anyway; explicit exclusion guards the
    // lockset-only mode.
    let same_physical = |a: SegKey, b: SegKey| a.1 == b.1 && (a.1 == Tid(0) || a.0 == b.0);

    let history = all_history.entry(loc).or_default();
    for prev in history.iter() {
        if prev.seg == record.seg || same_physical(prev.seg, record.seg) {
            continue;
        }
        if prev.kind == AccessKind::Read && record.kind == AccessKind::Read {
            continue;
        }
        // The FastTrack epoch check (see [`AccessRecord`]): `prev` is
        // HB-concurrent with the current access iff its own clock component
        // exceeds the current clock's entry for its slot.
        let hb_concurrent = || prev.clock > cur_vc.get(prev.slot);
        let is_race = match config.mode {
            DetectorMode::Hybrid => {
                hb_concurrent() && lockset_table.disjoint(prev.lockset, record.lockset)
            }
            DetectorMode::LocksetOnly => lockset_table.disjoint(prev.lockset, record.lockset),
            DetectorMode::HappensBeforeOnly => hb_concurrent(),
        };
        if is_race {
            // Dedupe per (location, segment pair, call-site pair): repeated
            // executions of one racy pair report once, but distinct racy
            // call sites each get their own report.
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
            races.push(Race {
                rank,
                loc,
                first: prev.access.clone(),
                second: record.access.clone(),
            });
        }
    }
    if history.len() < config.history_cap {
        history.push(record);
    } else {
        *history_overflow = true;
    }
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

        fn acquire(&mut self, tid: u32, region: u64, lock: u32) -> &mut Self {
            self.ev(tid, Some(region), EventKind::Acquire { lock: LockId(lock) })
        }

        fn release(&mut self, tid: u32, region: u64, lock: u32) -> &mut Self {
            self.ev(tid, Some(region), EventKind::Release { lock: LockId(lock) })
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
            .acquire(0, 0, 1)
            .write(0, Some(0), 7)
            .release(0, 0, 1)
            .acquire(1, 0, 1)
            .write(1, Some(0), 7)
            .release(1, 0, 1)
            .join(0);
        assert!(hybrid(&tb.trace()).is_empty());
    }

    #[test]
    fn disjoint_locks_still_race() {
        let mut tb = TB::new();
        tb.fork(0, 2)
            .acquire(0, 0, 1)
            .write(0, Some(0), 7)
            .release(0, 0, 1)
            .acquire(1, 0, 2)
            .write(1, Some(0), 7)
            .release(1, 0, 2)
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
            .acquire(0, 0, 1)
            .write(0, Some(0), 7)
            .release(0, 0, 1)
            .acquire(1, 0, 1)
            .write(1, Some(0), 7)
            .release(1, 0, 1)
            .join(0);
        let t = tb.trace();
        assert!(detect(&t, &DetectorConfig::hb_only()).unwrap().is_empty());
    }

    #[test]
    fn ignore_locks_reintroduces_critical_race() {
        // The ITC model: blind to omp critical → reports a false positive.
        let mut tb = TB::new();
        tb.fork(0, 2)
            .acquire(0, 0, 1)
            .write(0, Some(0), 7)
            .release(0, 0, 1)
            .acquire(1, 0, 1)
            .write(1, Some(0), 7)
            .release(1, 0, 1)
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
        let (_, stats) = detect_with_stats(&t, &tight).unwrap();
        assert!(stats.history_overflow, "cap of 4 must overflow");
        let (_, stats) = detect_with_stats(&t, &DetectorConfig::hybrid()).unwrap();
        assert!(!stats.history_overflow);
        assert!(stats.locations >= 1);
        assert!(stats.accesses >= 4);
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
    fn parallel_rank_detection_matches_serial() {
        // A multi-rank trace with real races on each rank: results must be
        // identical whatever the jobs count, including the stats.
        let mut events = Vec::new();
        let mut seq = 0u64;
        for rank in 0..4u32 {
            events.push(Event {
                seq,
                rank: Rank(rank),
                tid: Tid(0),
                region: None,
                time_ns: seq,
                loc: None,
                kind: EventKind::Fork {
                    region: RegionId(0),
                    nthreads: 2,
                },
            });
            seq += 1;
            for tid in 0..2u32 {
                events.push(Event {
                    seq,
                    rank: Rank(rank),
                    tid: Tid(tid),
                    region: Some(RegionId(0)),
                    time_ns: seq,
                    loc: Some(SrcLoc::new("p.hmp", seq as u32 + 1)),
                    kind: EventKind::Access {
                        loc: MemLoc::Var(VarId(rank)),
                        kind: AccessKind::Write,
                    },
                });
                seq += 1;
            }
        }
        let t = Trace::from_events(events);
        let serial = DetectorConfig {
            jobs: 1,
            ..DetectorConfig::hybrid()
        };
        let (races_1, stats_1) = detect_with_stats(&t, &serial).unwrap();
        for jobs in [2, 3, 4, 8] {
            let parallel = DetectorConfig {
                jobs,
                ..DetectorConfig::hybrid()
            };
            let (races_n, stats_n) = detect_with_stats(&t, &parallel).unwrap();
            assert_eq!(stats_1, stats_n, "stats differ at jobs={jobs}");
            assert_eq!(races_1.len(), races_n.len(), "race count at jobs={jobs}");
            for (a, b) in races_1.iter().zip(&races_n) {
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "order at jobs={jobs}");
            }
        }
        assert_eq!(races_1.len(), 4, "one race per rank");
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
}
