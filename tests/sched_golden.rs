//! Golden schedules: the exact decisions the deterministic scheduler takes
//! for fixed seeds, pinned against values recorded before the scheduler's
//! handoff was rewritten. Any change to how a grant is chosen or counted
//! shows up here as a different log or step count, not just as a run that
//! disagrees with itself.

use home::prelude::*;
use home::sched::{current_vtid, BlockReason, PRIORITY_BASE_MAX};
use std::sync::{Arc, Mutex};

/// FNV-1a, 64-bit: a hash whose value does not depend on the toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Six virtual threads mixing every scheduler primitive: yields,
/// block/unblock (with and without a wake token delivered first), a join
/// from one virtual thread on another, and a spawn from a virtual thread.
/// Each thread appends its label to the log at the start of every step it
/// is granted, so the log is the sequence of scheduling decisions.
fn mix(config: SchedConfig) -> (String, u64) {
    let rt = Runtime::new(config);
    let log = Arc::new(Mutex::new(String::new()));
    let note = {
        let rt = rt.clone();
        let log = Arc::clone(&log);
        move |label: char, cost: u64| {
            log.lock().unwrap().push(label);
            rt.advance_ns(cost);
        }
    };

    let t0 = rt.spawn("t0", {
        let (rt, note) = (rt.clone(), note.clone());
        move || {
            for _ in 0..4 {
                note('0', 10);
                rt.yield_now().unwrap();
            }
        }
    });
    let t1 = rt.spawn("t1", {
        let (rt, note) = (rt.clone(), note.clone());
        move || {
            note('1', 20);
            rt.block_current(BlockReason::Other("t2's unblock".into()))
                .unwrap();
            note('1', 20);
            rt.yield_now().unwrap();
            note('1', 20);
        }
    });
    let t1_id = t1.vtid();
    let t2 = rt.spawn("t2", {
        let (rt, note) = (rt.clone(), note.clone());
        move || {
            note('2', 30);
            rt.yield_now().unwrap();
            note('2', 30);
            rt.unblock(t1_id);
            rt.yield_now().unwrap();
            note('2', 30);
        }
    });
    let t3 = rt.spawn("t3", {
        let (rt, note) = (rt.clone(), note.clone());
        move || {
            note('3', 15);
            let child = rt.spawn("c", {
                let (rt, note) = (rt.clone(), note.clone());
                move || {
                    for _ in 0..2 {
                        note('c', 5);
                        rt.yield_now().unwrap();
                    }
                    note('c', 5);
                }
            });
            rt.yield_now().unwrap();
            note('3', 15);
            child.join().unwrap();
            note('3', 15);
        }
    });
    let t4 = rt.spawn("t4", {
        let (rt, note) = (rt.clone(), note.clone());
        move || {
            note('4', 25);
            t0.join().unwrap();
            note('4', 25);
            rt.yield_now().unwrap();
            note('4', 25);
        }
    });
    let t5 = rt.spawn("t5", {
        let (rt, note) = (rt.clone(), note.clone());
        move || {
            note('5', 35);
            // A wake token delivered before blocking turns the block into
            // a reschedule.
            rt.unblock(current_vtid().unwrap());
            rt.block_current(BlockReason::Other("own token".into()))
                .unwrap();
            note('5', 35);
            rt.yield_now().unwrap();
            note('5', 35);
        }
    });

    rt.run().unwrap();
    for h in [t1, t2, t3, t4, t5] {
        h.join().unwrap();
    }
    let log = log.lock().unwrap().clone();
    (log, rt.steps())
}

fn policies() -> Vec<(&'static str, SchedConfig)> {
    let base = |seed: u64| SchedConfig::deterministic(seed);
    let mut cases = Vec::new();
    for seed in [1, 2] {
        cases.push(("random", base(seed)));
        cases.push((
            "round-robin",
            base(seed).with_policy(SchedPolicy::RoundRobin),
        ));
        cases.push((
            "earliest-clock",
            base(seed).with_policy(SchedPolicy::EarliestClockFirst),
        ));
        cases.push((
            "priority",
            base(seed)
                .with_policy(SchedPolicy::Priority { depth: 3 })
                .with_pct_horizon(32)
                .with_priority_pins(vec![("t2".into(), PRIORITY_BASE_MAX + 1)]),
        ));
    }
    cases
}

/// (policy, seed, decision log, `Runtime::steps`), recorded before the
/// handoff was rewritten. Never regenerate them from the code under test.
const GOLDEN: [(&str, u64, &str, u64); 8] = [
    ("random", 1, "530c30c14222155c301044", 23),
    ("round-robin", 1, "012345c0235c0125c01344", 23),
    ("earliest-clock", 1, "012345cc0c330021541425", 22),
    ("priority", 1, "22200041115553ccc33044", 22),
    ("random", 2, "2531450003c25110c2c344", 23),
    ("round-robin", 2, "012345c0235c0125c01344", 23),
    ("earliest-clock", 2, "012345cc0c330021541425", 22),
    ("priority", 2, "22211153cc3000044455c3", 22),
];

#[test]
fn every_policy_takes_the_recorded_decisions() {
    let got: Vec<_> = policies()
        .into_iter()
        .map(|(name, cfg)| {
            let seed = cfg.seed;
            let (log, steps) = mix(cfg);
            (name, seed, log, steps)
        })
        .collect();
    for ((name, seed, log, steps), (g_name, g_seed, g_log, g_steps)) in got.iter().zip(GOLDEN) {
        assert_eq!((*name, *seed), (g_name, g_seed));
        assert_eq!(
            (log.as_str(), *steps),
            (g_log, g_steps),
            "{name} seed {seed} took different decisions"
        );
    }
}

#[test]
fn pipeline_16x4_seed_1_takes_the_recorded_steps() {
    let src = std::fs::read_to_string("programs/pipeline.hmp").unwrap();
    let program = parse(&src).unwrap();
    let checklist = Arc::new(analyze(&program).checklist.clone());
    // The configuration `home check --procs 16 --threads 4` gives seed 1.
    let mut cfg = RunConfig::test(16, 1)
        .with_instrumentation(Instrumentation::home())
        .with_checklist(checklist);
    cfg.threads_per_proc = 4;
    let result = run(&program, &cfg);
    assert!(result.clean());
    assert_eq!(result.sched_steps, 2582);
    assert_eq!(result.trace.len(), 640);
    assert_eq!(
        fnv1a(result.trace.to_json().as_bytes()),
        0x65f2_8365_ee4f_7e25
    );
}
