//! Batch-feed parity: the amortized batch pipeline — `consume_batch` on
//! the streaming detector, `feed_batch` on the session, and the
//! batch-at-a-time section analyzers — must be observably byte-identical
//! to the event-at-a-time paths for every bundled program, every seed,
//! and every batch granularity (single event, small odd chunks, large
//! chunks, and whole-section feeds).

use home::prelude::*;
use home::serve::{analyze_sections_batched, analyze_stream};
use home::stream::{detect_stream_batched, HbtWriter, TraceIncident};
use std::sync::Arc;

/// Every bundled sample program, in stable name order.
fn programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("programs").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "hmp") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).unwrap();
            out.push((name, parse(&src).unwrap()));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(!out.is_empty(), "no bundled programs found");
    out
}

/// Record one instrumented run of `program` under `seed`.
fn recorded(program: &Program, seed: u64) -> home::interp::RunResult {
    let checklist = Arc::new(analyze(program).checklist.clone());
    let mut cfg = RunConfig::test(2, seed)
        .with_instrumentation(Instrumentation::home())
        .with_checklist(checklist);
    cfg.threads_per_proc = 2;
    run(program, &cfg)
}

/// The batch granularities under test: single event, a small odd chunk
/// that never divides a section evenly, a large chunk, and the whole
/// trace in one feed (`0` selects the whole-trace/whole-section path).
const BATCHES: [usize; 4] = [1, 7, 256, 0];

/// Detector-level parity: `consume_batch` run-length rank grouping must
/// reproduce the event-at-a-time streaming verdict — races and stats —
/// for every program, seed, and batch size.
#[test]
fn detect_stream_batched_matches_detect_stream_on_every_program() {
    let config = DetectorConfig::hybrid();
    for (name, program) in &programs() {
        for seed in [1u64, 2, 3] {
            let result = recorded(program, seed);
            let (baseline, base_stats) = detect_stream(&result.trace, &config).unwrap();
            for batch in BATCHES {
                let (races, stats) = detect_stream_batched(&result.trace, &config, batch).unwrap();
                assert_eq!(
                    format!("{baseline:?}"),
                    format!("{races:?}"),
                    "{name} seed {seed} batch {batch}: races must be byte-identical"
                );
                assert_eq!(
                    base_stats.events, stats.events,
                    "{name} seed {seed} batch {batch}: every event must be counted"
                );
            }
        }
    }
}

/// The batch-fed detector matches `detect` over the whole trace (the entry
/// `analyze` and the baselines use), so batching cannot open a gap between
/// the live and the offline paths.
#[test]
fn detect_stream_batched_matches_offline_detect() {
    let config = DetectorConfig::hybrid();
    for (name, program) in &programs() {
        let result = recorded(program, 1);
        let offline = detect(&result.trace, &config).unwrap();
        for batch in BATCHES {
            let (races, _) = detect_stream_batched(&result.trace, &config, batch).unwrap();
            assert_eq!(
                format!("{offline:?}"),
                format!("{races:?}"),
                "{name} batch {batch}: batch-fed stream vs offline detect"
            );
        }
    }
}

/// Session-level parity through the collector analyzers: for every
/// program, the record-at-a-time `analyze_stream` verdict (the original
/// ingest path) equals `analyze_sections_batched` at every granularity,
/// including the whole-section default (`None`).
#[test]
fn analyze_sections_batched_matches_record_at_a_time_ingest() {
    for (name, program) in &programs() {
        let mut writer = HbtWriter::new(Vec::new()).unwrap();
        for seed in [1u64, 2] {
            writer.begin_run(seed).unwrap();
            let result = recorded(program, seed);
            for e in result.trace.events() {
                writer.write_event(e).unwrap();
            }
            for i in &result.mpi_errors {
                writer
                    .write_incident(&TraceIncident {
                        rank: i.rank,
                        line: i.line,
                        call: i.call.clone(),
                        error: i.error.clone(),
                    })
                    .unwrap();
            }
        }
        let bytes = writer.finish().unwrap();
        let baseline = analyze_stream(std::io::Cursor::new(&bytes)).unwrap();
        let sections = home::stream::decode_sections(&bytes).unwrap();
        for batch in [Some(1), Some(7), Some(256), None] {
            let outcome = analyze_sections_batched(&sections, batch).unwrap();
            assert_eq!(
                format!("{baseline:?}"),
                format!("{outcome:?}"),
                "{name} batch {batch:?}: collector outcome must be byte-identical"
            );
        }
    }
}

/// Frame-batch decode parity end to end: a compressed v2 stream decoded
/// through `decode_trace` (the frame→batch path at every `--jobs` value)
/// and analyzed batch-wise reaches the record-at-a-time verdict.
#[test]
fn v2_frame_batch_replay_matches_record_at_a_time_ingest() {
    let (name, program) = &programs()[0];
    let mut writer = HbtWriter::new_compressed(Vec::new()).unwrap();
    for seed in [1u64, 2, 3] {
        writer.begin_run(seed).unwrap();
        let result = recorded(program, seed);
        for e in result.trace.events() {
            writer.write_event(e).unwrap();
        }
    }
    let bytes = writer.finish().unwrap();
    let baseline = analyze_stream(std::io::Cursor::new(&bytes)).unwrap();
    for jobs in [1usize, 2, 4] {
        let sections = home::core::decode_trace(&bytes, jobs).unwrap();
        for batch in [Some(1), Some(7), None] {
            let outcome = analyze_sections_batched(&sections, batch).unwrap();
            assert_eq!(
                format!("{baseline:?}"),
                format!("{outcome:?}"),
                "{name} jobs {jobs} batch {batch:?}: v2 replay verdict"
            );
        }
    }
}
