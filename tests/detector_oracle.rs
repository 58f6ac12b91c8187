//! The race detector against a naive reference oracle, plus golden report
//! hashes that pin what `check` prints.
//!
//! The oracle is written straight from the paper's definitions (§IV-D) and
//! shares no code with the detector. Per rank it gives every event a full
//! vector clock — one component per logical thread segment — built from
//! the program order of each segment and the three synchronization edges:
//! region fork → the team's events → region join, every participant's
//! pre-barrier events → every barrier event of that epoch, and a lock's
//! release → its next acquire. It then checks *all pairs* of accesses to
//! each location: a pair conflicts when the segments differ, the two are
//! not both the master thread (tid 0 runs the sequential spine and thread
//! 0 of every region), and at least one side writes. A conflicting pair is
//! a race when it is unordered, lockset-disjoint, or both, per
//! [`DetectorMode`]; `ignore_locks` drops both the locksets and the
//! release → acquire edges.
//!
//! The detector keeps only FastTrack epochs, retires joined segments and
//! deduplicates per call-site pair, so the comparison is on deduplicated
//! race keys (rank, location, segment pair, source-line pair), or on the
//! exact (first, second) access pairs when `dedupe_pairs` is off. The
//! inputs are the bundled programs and injected NPB-MZ benchmarks run
//! under HOME's and ITC's instrumentation, plus seeded random recordings
//! that put conflicting accesses on both sides of barriers and locks,
//! which the program corpus rarely does.

use home::npb::build_injected;
use home::prelude::*;
use home::trace::{
    AccessKind, BarrierId, Event, EventKind, LockId, MemLoc, Rank, RegionId, SrcLoc, Tid, VarId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A logical thread segment: `(None, tid0)` is the sequential spine,
/// `(Some(r), t)` thread `t` of region instance `r`.
type Seg = (Option<RegionId>, Tid);

/// A full vector clock: segment → number of its events that
/// happen-before-or-equal the clock's owner.
type Clock = BTreeMap<Seg, u64>;

/// Deduplicated race identity: rank, location, ordered segment pair,
/// ordered source-line pair (0 when an access has no source location).
type RaceKey = (u32, MemLoc, Seg, Seg, u32, u32);

fn join(into: &mut Clock, other: &Clock) {
    for (seg, &n) in other {
        let slot = into.entry(*seg).or_insert(0);
        *slot = (*slot).max(n);
    }
}

fn leq(a: &Clock, b: &Clock) -> bool {
    a.iter()
        .all(|(seg, &n)| b.get(seg).copied().unwrap_or(0) >= n)
}

/// One access with everything the pair check needs.
struct Access {
    seq: u64,
    seg: Seg,
    loc: MemLoc,
    kind: AccessKind,
    line: u32,
    clock: Clock,
    locks: BTreeSet<LockId>,
}

/// Vector clocks and locksets for every access of one rank's events
/// (given in recording order).
fn rank_accesses(events: &[&Event], ignore_locks: bool) -> Vec<Access> {
    // Who passes each barrier epoch (a look-ahead the oracle can afford).
    let mut participants: BTreeMap<(RegionId, BarrierId, u64), BTreeSet<Seg>> = BTreeMap::new();
    for e in events {
        if let (Some(region), EventKind::Barrier { barrier, epoch }) = (e.region, &e.kind) {
            participants
                .entry((region, *barrier, *epoch))
                .or_default()
                .insert((e.region, e.tid));
        }
    }

    let mut current: BTreeMap<Seg, Clock> = BTreeMap::new();
    let mut held: BTreeMap<Seg, BTreeSet<LockId>> = BTreeMap::new();
    let mut fork: BTreeMap<RegionId, Clock> = BTreeMap::new();
    let mut last_release: BTreeMap<LockId, Clock> = BTreeMap::new();
    let mut barrier_release: BTreeMap<(RegionId, BarrierId, u64), Clock> = BTreeMap::new();
    // Participants released by a barrier's first arrival whose own arrival
    // is still due: their next event must be that arrival.
    let mut due: BTreeMap<Seg, (RegionId, BarrierId, u64)> = BTreeMap::new();
    let mut out = Vec::new();

    for e in events {
        let seg: Seg = (e.region, e.tid);
        let mut clock = match current.get(&seg) {
            Some(c) => c.clone(),
            None => e
                .region
                .and_then(|r| fork.get(&r))
                .cloned()
                .unwrap_or_default(),
        };
        let arrival = match (e.region, &e.kind) {
            (Some(region), EventKind::Barrier { barrier, epoch }) => {
                Some((region, *barrier, *epoch))
            }
            _ => None,
        };
        if let Some(expected) = due.remove(&seg) {
            assert_eq!(
                arrival,
                Some(expected),
                "recording order broken at seq {}: {seg:?} acts between a barrier's \
                 first arrival and its own",
                e.seq
            );
        }
        match &e.kind {
            EventKind::JoinRegion { region } => {
                for (s, c) in &current {
                    if s.0 == Some(*region) {
                        join(&mut clock, c);
                    }
                }
            }
            EventKind::Barrier { .. } => {
                if let Some(key) = arrival {
                    let release = barrier_release.entry(key).or_insert_with(|| {
                        // First arrival: every participant's pre-barrier
                        // events are behind it.
                        let mut release = Clock::new();
                        for p in &participants[&key] {
                            if let Some(c) = current.get(p) {
                                join(&mut release, c);
                            }
                            if *p != seg {
                                due.insert(*p, key);
                            }
                        }
                        release
                    });
                    join(&mut clock, release);
                }
            }
            EventKind::Acquire { lock } if !ignore_locks => {
                if let Some(c) = last_release.get(lock) {
                    join(&mut clock, c);
                }
                held.entry(seg).or_default().insert(*lock);
            }
            EventKind::Release { lock } if !ignore_locks => {
                held.entry(seg).or_default().remove(lock);
            }
            _ => {}
        }
        *clock.entry(seg).or_insert(0) += 1;
        match &e.kind {
            EventKind::Fork { region, .. } => {
                fork.insert(*region, clock.clone());
            }
            EventKind::Release { lock } if !ignore_locks => {
                last_release.insert(*lock, clock.clone());
            }
            _ => {}
        }
        if let Some((loc, kind)) = e.kind.access() {
            out.push(Access {
                seq: e.seq,
                seg,
                loc,
                kind,
                line: e.loc.as_ref().map_or(0, |l| l.line),
                clock: clock.clone(),
                locks: held.get(&seg).cloned().unwrap_or_default(),
            });
        }
        current.insert(seg, clock);
    }
    assert!(due.is_empty(), "barrier arrivals never recorded: {due:?}");
    out
}

/// Every racing access pair of `trace` under `config`, as
/// `(rank, first seq, second seq)` plus its deduplication key.
fn oracle_races(trace: &Trace, config: &DetectorConfig) -> Vec<((u32, u64, u64), RaceKey)> {
    let mut by_rank: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
    for e in trace.events() {
        by_rank.entry(e.rank.0).or_default().push(e);
    }
    let mut races = Vec::new();
    for (rank, mut events) in by_rank {
        events.sort_by_key(|e| e.seq);
        let accesses = rank_accesses(&events, config.ignore_locks);
        let mut by_loc: BTreeMap<MemLoc, Vec<&Access>> = BTreeMap::new();
        for a in &accesses {
            by_loc.entry(a.loc).or_default().push(a);
        }
        for (loc, list) in by_loc {
            for (j, b) in list.iter().enumerate() {
                for a in &list[..j] {
                    let both_master = a.seg.1 == Tid(0) && b.seg.1 == Tid(0);
                    let both_read = a.kind == AccessKind::Read && b.kind == AccessKind::Read;
                    if a.seg == b.seg || both_master || both_read {
                        continue;
                    }
                    let unordered = !leq(&a.clock, &b.clock) && !leq(&b.clock, &a.clock);
                    let disjoint = a.locks.is_disjoint(&b.locks);
                    let race = match config.mode {
                        DetectorMode::Hybrid => unordered && disjoint,
                        DetectorMode::LocksetOnly => disjoint,
                        DetectorMode::HappensBeforeOnly => unordered,
                    };
                    if race {
                        let key = (
                            rank,
                            loc,
                            a.seg.min(b.seg),
                            a.seg.max(b.seg),
                            a.line.min(b.line),
                            a.line.max(b.line),
                        );
                        races.push(((rank, a.seq, b.seq), key));
                    }
                }
            }
        }
    }
    races
}

fn race_key(race: &Race) -> RaceKey {
    let seg = |a: &home::dynamic::RaceAccess| (a.region, a.tid);
    let line = |a: &home::dynamic::RaceAccess| a.loc.as_ref().map_or(0, |l| l.line);
    let (sa, sb) = (seg(&race.first), seg(&race.second));
    let (la, lb) = (line(&race.first), line(&race.second));
    (
        race.rank.0,
        race.loc,
        sa.min(sb),
        sa.max(sb),
        la.min(lb),
        la.max(lb),
    )
}

/// The detector configurations of the matrix.
fn configs() -> Vec<(&'static str, DetectorConfig)> {
    vec![
        ("hybrid", DetectorConfig::hybrid()),
        ("lockset-only", DetectorConfig::lockset_only()),
        ("hb-only", DetectorConfig::hb_only()),
        (
            "ignore-locks",
            DetectorConfig {
                ignore_locks: true,
                ..DetectorConfig::hybrid()
            },
        ),
        (
            "no-dedupe",
            DetectorConfig {
                dedupe_pairs: false,
                ..DetectorConfig::hybrid()
            },
        ),
    ]
}

/// Every bundled program plus injected NPB-MZ LU/BT/SP class S.
fn corpus() -> Vec<(String, Program)> {
    let mut paths: Vec<_> = std::fs::read_dir("programs")
        .expect("programs dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "hmp"))
        .collect();
    paths.sort();
    let mut out: Vec<(String, Program)> = paths
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("read program");
            (
                p.display().to_string(),
                parse(&src).expect("program parses"),
            )
        })
        .collect();
    for bench in [Benchmark::LuMz, Benchmark::BtMz, Benchmark::SpMz] {
        out.push((
            format!("{bench:?} class S"),
            build_injected(bench, Class::S).program,
        ));
    }
    out
}

/// Per-mode totals of oracle race keys, so the caller can check the matrix
/// is not vacuous.
type Totals = BTreeMap<&'static str, usize>;

/// Run the detector and the oracle over `trace` in every configuration and
/// require the same races, adding each mode's count to `totals`.
fn check_trace(trace: &Trace, at: &str, totals: &mut Totals) {
    for (mode, config) in configs() {
        let at = format!("{at} {mode}");
        let (races, stats) = detect_stream(trace, &config).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert!(!stats.history_overflow, "{at}: history cap overflowed");
        let expected = oracle_races(trace, &config);
        let found = if config.dedupe_pairs {
            let got: BTreeSet<RaceKey> = races.iter().map(race_key).collect();
            assert_eq!(got.len(), races.len(), "{at}: duplicate race keys");
            let want: BTreeSet<RaceKey> = expected.iter().map(|(_, k)| *k).collect();
            assert_eq!(got, want, "{at}: race keys differ from the oracle");
            want.len()
        } else {
            let got: BTreeSet<(u32, u64, u64)> = races
                .iter()
                .map(|r| (r.rank.0, r.first.seq, r.second.seq))
                .collect();
            assert_eq!(got.len(), races.len(), "{at}: a pair reported twice");
            let want: BTreeSet<(u32, u64, u64)> = expected.iter().map(|(pair, _)| *pair).collect();
            assert_eq!(got, want, "{at}: race pairs differ from the oracle");
            want.len()
        };
        *totals.entry(mode).or_default() += found;
    }
}

/// Run the matrix for one instrumentation profile: corpus × seeds 1–4 ×
/// {2×2, 4×3} × every detector configuration.
fn check_matrix(instrumentation: Instrumentation) -> Totals {
    let mut totals = Totals::new();
    for (name, program) in corpus() {
        let checklist = Arc::new(analyze(&program).checklist.clone());
        for (procs, threads) in [(2usize, 2usize), (4, 3)] {
            for seed in 1u64..=4 {
                let mut cfg = RunConfig::test(procs, seed)
                    .with_instrumentation(instrumentation.clone())
                    .with_checklist(Arc::clone(&checklist));
                cfg.threads_per_proc = threads;
                let trace = run(&program, &cfg).trace;
                let at = format!("{name} {procs}x{threads} seed {seed}");
                check_trace(&trace, &at, &mut totals);
            }
        }
    }
    totals
}

fn assert_not_vacuous(totals: &Totals) {
    assert!(totals["hybrid"] > 0, "{totals:?}");
    assert!(totals["lockset-only"] > totals["hybrid"], "{totals:?}");
    assert!(totals["no-dedupe"] > totals["hybrid"], "{totals:?}");
}

#[test]
fn detector_matches_the_oracle_under_home_instrumentation() {
    assert_not_vacuous(&check_matrix(Instrumentation::home()));
}

#[test]
fn detector_matches_the_oracle_under_itc_instrumentation() {
    let totals = check_matrix(Tool::Itc.instrumentation());
    assert_not_vacuous(&totals);
    assert!(totals["ignore-locks"] > totals["hybrid"], "{totals:?}");
}

/// Random recordings of one region after another per rank, each obeying
/// the runtime's recording order: a fork precedes its team's events and
/// the join follows them, a barrier's arrivals are recorded back to back
/// once every thread has arrived, and a lock is held by one thread at a
/// time. Threads interleave at random, access four shared variables from a
/// few source lines, and take two locks — the cross-barrier and
/// lock-protected pairs the program corpus rarely produces.
fn random_trace(seed: u64) -> Trace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut events = Vec::new();
    let mut seq = 0u64;
    let mut push = |rank: u32, seg: Seg, kind: EventKind, line: u32| {
        events.push(Event {
            seq,
            rank: Rank(rank),
            tid: seg.1,
            region: seg.0,
            time_ns: seq,
            loc: Some(SrcLoc::new("random.hmp", line)),
            kind,
        });
        seq += 1;
    };
    let access = |rng: &mut ChaCha8Rng| EventKind::Access {
        loc: MemLoc::Var(VarId(rng.gen_range(0u32..4))),
        kind: if rng.gen_bool(0.5) {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
    };
    let ranks = rng.gen_range(1u32..3);
    let mut next_region = 0u64;
    for rank in 0..ranks {
        let spine: Seg = (None, Tid(0));
        for _ in 0..rng.gen_range(1u32..4) {
            let kind = access(&mut rng);
            push(rank, spine, kind, rng.gen_range(1u32..4));
            let region = RegionId(next_region);
            next_region += 1;
            let nthreads = rng.gen_range(2u32..4);
            push(rank, spine, EventKind::Fork { region, nthreads }, 10);
            let mut holder: [Option<u32>; 2] = [None, None];
            let mut epoch = 0u64;
            for _ in 0..rng.gen_range(4u32..24) {
                let t = rng.gen_range(0..nthreads);
                let seg = (Some(region), Tid(t));
                let l = rng.gen_range(0usize..2);
                let lock = LockId(l as u32);
                match rng.gen_range(0u32..10) {
                    0 if holder.iter().all(Option::is_none) => {
                        let barrier = BarrierId(0);
                        for t in 0..nthreads {
                            let seg = (Some(region), Tid(t));
                            push(rank, seg, EventKind::Barrier { barrier, epoch }, 20);
                        }
                        epoch += 1;
                    }
                    1 | 2 if holder[l].is_none() => {
                        holder[l] = Some(t);
                        push(rank, seg, EventKind::Acquire { lock }, 30);
                    }
                    3 | 4 if holder[l] == Some(t) => {
                        holder[l] = None;
                        push(rank, seg, EventKind::Release { lock }, 31);
                    }
                    _ => {
                        let kind = access(&mut rng);
                        push(rank, seg, kind, rng.gen_range(1u32..4));
                    }
                }
            }
            for (l, h) in holder.iter().enumerate() {
                if let Some(t) = h {
                    let lock = LockId(l as u32);
                    push(
                        rank,
                        (Some(region), Tid(*t)),
                        EventKind::Release { lock },
                        31,
                    );
                }
            }
            push(rank, spine, EventKind::JoinRegion { region }, 11);
        }
    }
    Trace::from_events(events)
}

#[test]
fn detector_matches_the_oracle_on_random_traces() {
    let mut totals = Totals::new();
    for seed in 0..400u64 {
        check_trace(
            &random_trace(seed),
            &format!("random trace {seed}"),
            &mut totals,
        );
    }
    assert_not_vacuous(&totals);
    assert!(totals["ignore-locks"] > totals["hybrid"], "{totals:?}");
}

/// The detector must actually stream: on a program whose parallel regions
/// run one after another (pipeline.hmp has four region instances per
/// iteration), dead segments are retired at every join, so the peak number
/// of live segments stays strictly below the total ever created.
#[test]
fn streaming_peak_live_segments_stay_below_total_on_pipeline() {
    let src = std::fs::read_to_string("programs/pipeline.hmp").expect("read pipeline");
    let program = parse(&src).expect("parse pipeline");
    let checklist = Arc::new(analyze(&program).checklist.clone());
    let mut cfg = RunConfig::test(2, 1)
        .with_instrumentation(Instrumentation::home())
        .with_checklist(checklist);
    cfg.threads_per_proc = 2;
    let result = run(&program, &cfg);
    let (_, stats) = detect_stream(&result.trace, &DetectorConfig::hybrid()).expect("detect");
    assert_eq!(stats.events as usize, result.trace.len());
    assert!(
        stats.retired_segments > 0,
        "joined regions retire: {stats:?}"
    );
    assert!(
        stats.peak_live_segments < stats.total_segments,
        "live state must stay bounded: {stats:?}"
    );
}

/// FNV-1a, 64-bit: a stable hash with no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn bundled(name: &str) -> Program {
    let src = std::fs::read_to_string(format!("programs/{name}")).expect("read program");
    parse(&src).expect("program parses")
}

/// Rendered `check` reports, hashed: program × seed, each identical for
/// `--jobs` 1, 2 and 4. Recorded before the batch detector was removed.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("figure1.hmp", 1, 0x2dd78bdc078806df),
    ("figure1.hmp", 2, 0x998bbe0ec57f8fbc),
    ("figure1.hmp", 3, 0xec356dc8f689351d),
    ("figure1.hmp", 4, 0xb43856d71d40ad72),
    ("figure1.hmp", 5, 0x1ee922bd062f20fb),
    ("figure2.hmp", 1, 0x2ac7f67e0fff7d83),
    ("figure2.hmp", 2, 0xf486b221e554f2f0),
    ("figure2.hmp", 3, 0x78d4050f843b596d),
    ("figure2.hmp", 4, 0x64826630460460f2),
    ("figure2.hmp", 5, 0x9a1411cbb1cfd6bf),
    ("figure2_fixed.hmp", 1, 0xcde899899951137c),
    ("figure2_fixed.hmp", 2, 0x13b8b9ddbe4ed57f),
    ("figure2_fixed.hmp", 3, 0x5611bdd64d7815d2),
    ("figure2_fixed.hmp", 4, 0xc0a78ff251999155),
    ("figure2_fixed.hmp", 5, 0x0599a847dc99f5c0),
    ("hidden.hmp", 1, 0x5a77724fed446b2f),
    ("hidden.hmp", 2, 0x01b45e1bd0c62cec),
    ("hidden.hmp", 3, 0x17ec8aca6555e1c1),
    ("hidden.hmp", 4, 0xc0c41f97eaacbfc6),
    ("hidden.hmp", 5, 0x1ee0f04762fd29b3),
    ("interproc.hmp", 1, 0x6534f76cb87eb441),
    ("interproc.hmp", 2, 0x0792c794a6b7ff0e),
    ("interproc.hmp", 3, 0x54b12382a2baab3b),
    ("interproc.hmp", 4, 0x85a4a2fe9e820748),
    ("interproc.hmp", 5, 0xbad5517a8d777f25),
    ("interproc2.hmp", 1, 0xef0ccbe785a90055),
    ("interproc2.hmp", 2, 0x43cdf32c69e3fcea),
    ("interproc2.hmp", 3, 0xc2fcced041f903f3),
    ("interproc2.hmp", 4, 0xc74320100962f208),
    ("interproc2.hmp", 5, 0xf1482d96b5d1b9e1),
    ("pipeline.hmp", 1, 0xe716430be81d3a98),
    ("pipeline.hmp", 2, 0xcb077b2493c057fb),
    ("pipeline.hmp", 3, 0x615c314a2b590566),
    ("pipeline.hmp", 4, 0x168d8e62c1a52db9),
    ("pipeline.hmp", 5, 0x71d9b7b73416d944),
];

/// Per program: seeds 1–5 in one report (`--jobs 2`); seeds 2 and 9 under
/// the time-faithful scheduler (`--jobs` 1 and 4); and seeds 1–4 with seed
/// 2 made to fail (`--jobs 2`). Recorded with [`GOLDEN`].
const GOLDEN_MERGED: &[(&str, u64, u64, u64)] = &[
    (
        "figure1.hmp",
        0x22e8362a67c43411,
        0x36acd41b834486b0,
        0x0c9dbf4233f48d3f,
    ),
    (
        "figure2.hmp",
        0x80d55dde00c8060c,
        0xab6bf804a2e85bc7,
        0x7939bf0b92a85b21,
    ),
    (
        "figure2_fixed.hmp",
        0x85f73c04379e0193,
        0xa88cc5ca688c14fe,
        0x5da694b2126141e6,
    ),
    (
        "hidden.hmp",
        0x72b111a742f070f8,
        0xa2e172681d9792f1,
        0xd3cffe2fbd2aec95,
    ),
    (
        "interproc.hmp",
        0xb6c06d8fe7e75041,
        0xef68ba2d54fc414e,
        0xbad5619d452fc806,
    ),
    (
        "interproc2.hmp",
        0xc109b56e00d0dd6c,
        0x1fd9fd1cfef45930,
        0x06d4ef12014863e0,
    ),
    (
        "pipeline.hmp",
        0x47ead6bc653a9dfe,
        0x297991689c070adb,
        0x8e91b4640dabf829,
    ),
];

#[test]
fn check_reports_match_the_golden_hashes() {
    for &(name, seed, want) in GOLDEN {
        let program = bundled(name);
        for jobs in [1, 2, 4] {
            let options = CheckOptions::default()
                .with_seeds(vec![seed])
                .with_jobs(jobs);
            let report = check(&program, &options).render();
            assert_eq!(
                fnv1a(report.as_bytes()),
                want,
                "{name} seed {seed} jobs {jobs}:\n{report}"
            );
        }
    }
}

#[test]
fn merged_seed_reports_match_the_golden_hashes() {
    for &(name, merged, _, _) in GOLDEN_MERGED {
        let program = bundled(name);
        let options = CheckOptions::default()
            .with_seeds(vec![1, 2, 3, 4, 5])
            .with_jobs(2);
        let report = check(&program, &options).render();
        assert_eq!(fnv1a(report.as_bytes()), merged, "{name} merged:\n{report}");
    }
}

#[test]
fn faithful_scheduling_reports_match_the_golden_hashes() {
    for &(name, _, faithful, _) in GOLDEN_MERGED {
        let program = bundled(name);
        for jobs in [1, 4] {
            let mut options = CheckOptions::default()
                .with_seeds(vec![2, 9])
                .with_jobs(jobs);
            options.sched_policy = SchedPolicy::EarliestClockFirst;
            let report = check(&program, &options).render();
            assert_eq!(
                fnv1a(report.as_bytes()),
                faithful,
                "{name} faithful jobs {jobs}:\n{report}"
            );
        }
    }
}

#[test]
fn failing_seed_reports_match_the_golden_hashes() {
    for &(name, _, _, partial) in GOLDEN_MERGED {
        let program = bundled(name);
        let options = CheckOptions::default()
            .with_seeds(vec![1, 2, 3, 4])
            .with_fail_seeds(vec![2])
            .with_jobs(2);
        let report = check(&program, &options);
        assert!(report.partial, "{name}: seed 2 must fail");
        let text = report.render();
        assert_eq!(fnv1a(text.as_bytes()), partial, "{name} partial:\n{text}");
    }
}
