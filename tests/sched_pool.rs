//! The pooled OS-thread backend of `home-sched`, seen from whole checks:
//! workers are reused across runs, and a finished run (deadlocked or
//! panicked) leaves nothing behind on them. One test in its own binary,
//! since it reads the process-wide spawn counter.

use home::prelude::*;
use home_sched::{os_threads_spawned, Runtime, SchedConfig};

/// The same-tag variant of the paper's Figure 2 that deadlocks: one
/// message, two receiving threads.
const FIGURE_2_DEADLOCK: &str = r#"
    program stuck {
        mpi_init_thread(multiple);
        if (rank == 0) { mpi_send(to: 1, tag: 0, count: 1); }
        if (rank == 1) {
            omp parallel num_threads(2) {
                mpi_recv(from: 0, tag: 0);
            }
        }
        mpi_finalize();
    }
"#;

fn check_pipeline() -> String {
    let src = std::fs::read_to_string("programs/pipeline.hmp").unwrap();
    // One job: seeds run one after another, so each run needs exactly as
    // many workers as its peak count of live virtual threads.
    let options = CheckOptions::new(16, 4).with_jobs(1);
    check(&parse(&src).unwrap(), &options).render()
}

#[test]
fn workers_are_reused_and_left_clean_across_runs() {
    let first = check_pipeline();

    let deadlocked = check(
        &parse(FIGURE_2_DEADLOCK).unwrap(),
        &CheckOptions::default().with_jobs(1),
    );
    assert!(!deadlocked.deadlocks.is_empty(), "{}", deadlocked.render());

    let rt = Runtime::new(SchedConfig::deterministic(3));
    let weak = rt.downgrade();
    let rt2 = rt.clone();
    let bad = rt.spawn("bad", move || {
        rt2.yield_now().unwrap();
        panic!("boom")
    });
    let rt3 = rt.clone();
    let good = rt.spawn("good", move || rt3.yield_now().is_ok());
    rt.run().unwrap();
    assert!(bad.join().is_err());
    assert!(good.join().unwrap());
    drop(rt);
    assert!(
        weak.upgrade().is_none(),
        "a pooled worker still holds the finished runtime"
    );

    let spawned = os_threads_spawned();
    let second = check_pipeline();
    assert_eq!(first, second, "reports differ between pooled runs");
    assert_eq!(
        os_threads_spawned(),
        spawned,
        "the second run created OS threads instead of reusing idle ones"
    );
}
