//! `replay_npb`: what `home replay` runs — `home_core::decode_trace` then
//! `home_serve::analyze_sections` — over one in-memory HBT v2 stream.
//!
//! Set-up records NPB-MZ LU, BT and SP (class S, six injected violations
//! each, from `home_npb::build_injected`) at 8 procs x 2 threads, faithful
//! policy, 32 seeds per benchmark: ~74K events, ~660 KB encoded, ~8.8 MB
//! decoded. No simulation happens in an op; decode and streaming detection
//! do all the work. Known answer: for each benchmark, taken from its own
//! sections, all six injections are reported and nothing else (the
//! paper's HOME row, 6/6/6 with no false positive).

use crate::harness::{derive, sampled_run, Workload};
use crate::spans::Ctx;
use home_core::{
    check, decode_trace, fan_out_indexed, violation_identity, CheckOptions, HomeReport, Session,
    Violation, ViolationIdentity,
};
use home_dynamic::DetectorConfig;
use home_interp::{Instrumentation, MpiIncident, RunConfig};
use home_npb::{build_injected, score, Benchmark, Class, InjectedProgram};
use home_sched::SchedPolicy;
use home_serve::{analyze_sections, TraceOutcome};
use home_stream::{detect_stream, scan_layout, HbtSection, HbtWriter, TraceIncident};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const BENCHMARKS: [Benchmark; 3] = [Benchmark::LuMz, Benchmark::BtMz, Benchmark::SpMz];
const PROCS: usize = 8;
const THREADS: usize = 2;
const SEEDS_PER_BENCHMARK: u64 = 32;

pub struct ReplayNpb {
    programs: Vec<InjectedProgram>,
    /// Recording seeds, per benchmark.
    seeds: Vec<Vec<u64>>,
    /// Recording seed -> index into `programs`.
    benchmark_of: BTreeMap<u64, usize>,
    /// The recorded HBT v2 stream.
    bytes: Vec<u8>,
    /// Events recorded into `bytes`.
    events: u64,
    jobs: usize,
    detector: DetectorConfig,
}

/// The rendered replay verdict, the outcome it came from, and the decoded
/// sections (kept for the traced run's calibration calls).
pub struct Verdict {
    outcome: TraceOutcome,
    sections: Vec<HbtSection>,
    text: String,
}

/// What `home replay` prints for an outcome.
fn render(outcome: &TraceOutcome) -> String {
    let mut text = format!(
        "replay: {} run(s), {} events, {} monitored race(s), {} violation(s)\n",
        outcome.sections.len(),
        outcome.events,
        outcome.races,
        outcome.violations.len()
    );
    if outcome.unclassified > 0 {
        text += &format!(
            "warning: {} monitored race(s) lacked MPI call metadata and were not classified\n",
            outcome.unclassified
        );
    }
    for v in &outcome.violations {
        text += &format!("  - {v}\n");
    }
    text
}

fn to_incident(i: &TraceIncident) -> MpiIncident {
    MpiIncident {
        rank: i.rank,
        line: i.line,
        call: i.call.clone(),
        error: i.error.clone(),
    }
}

impl ReplayNpb {
    fn run_config(&self, seed: u64, checklist: &Arc<home_static::Checklist>) -> RunConfig {
        let mut cfg = RunConfig::test(PROCS, seed)
            .with_instrumentation(Instrumentation::home())
            .with_checklist(Arc::clone(checklist));
        cfg.threads_per_proc = THREADS;
        cfg.sched.policy = SchedPolicy::EarliestClockFirst;
        cfg
    }

    /// Record every benchmark under every one of its seeds into one HBT v2
    /// stream, as `home record --compress` does.
    fn record(&mut self, ctx: Ctx) -> Result<(), String> {
        let io = |e: std::io::Error| format!("cannot encode the replay corpus: {e}");
        let mut writer = HbtWriter::new_compressed(Vec::new()).map_err(io)?;
        let mut events = 0;
        for (b, injected) in self.programs.iter().enumerate() {
            let report = ctx.span("static.analyze", |_| {
                home_static::analyze(&injected.program)
            });
            ctx.count(
                "static.sites_instrumented",
                report.stats.instrumented as f64,
            );
            let checklist = Arc::new(report.checklist);
            for &seed in &self.seeds[b] {
                let cfg = self.run_config(seed, &checklist);
                let result = ctx.span("interp.run", |_| sampled_run(ctx, &injected.program, &cfg));
                if let Some(d) = &result.deadlock {
                    return Err(format!("recording seed {seed} deadlocked: {d}"));
                }
                ctx.count("interp.runs", 1.0);
                ctx.count("interp.events", result.events_recorded as f64);
                events += result.trace.events().len() as u64;
                ctx.span("stream.encode", |_| {
                    writer.begin_run(seed)?;
                    for e in result.trace.events() {
                        writer.write_event(e)?;
                    }
                    for i in &result.mpi_errors {
                        writer.write_incident(&TraceIncident {
                            rank: i.rank,
                            line: i.line,
                            call: i.call.clone(),
                            error: i.error.clone(),
                        })?;
                    }
                    Ok(())
                })
                .map_err(io)?;
            }
        }
        self.bytes = ctx.span("stream.encode", |_| writer.finish()).map_err(io)?;
        self.events = events;
        ctx.count("stream.bytes", self.bytes.len() as f64);
        ctx.count("stream.encoded_events", events as f64);
        Ok(())
    }

    /// The violations of benchmark `b`'s own sections, deduplicated by
    /// identity (first occurrence wins).
    fn violations_of(&self, b: usize, outcome: &TraceOutcome) -> Vec<Violation> {
        let mut seen = BTreeSet::new();
        outcome
            .sections
            .iter()
            .filter(|s| s.seed.and_then(|seed| self.benchmark_of.get(&seed)) == Some(&b))
            .flat_map(|s| &s.violations)
            .filter(|kv| seen.insert(violation_identity(&kv.violation)))
            .map(|kv| kv.violation.clone())
            .collect()
    }
}

impl Workload for ReplayNpb {
    type Verdict = Verdict;

    fn setup(seed: u64, jobs: usize, ctx: Ctx) -> Result<Self, String> {
        let programs: Vec<InjectedProgram> = BENCHMARKS
            .iter()
            .map(|&b| ctx.span("npb.build", |_| build_injected(b, Class::S)))
            .collect();
        let seeds: Vec<Vec<u64>> = (0..BENCHMARKS.len() as u64)
            .map(|b| {
                (0..SEEDS_PER_BENCHMARK)
                    .map(|i| derive(seed, b * SEEDS_PER_BENCHMARK + i))
                    .collect()
            })
            .collect();
        let mut benchmark_of = BTreeMap::new();
        for (b, list) in seeds.iter().enumerate() {
            for &s in list {
                if benchmark_of.insert(s, b).is_some() {
                    return Err(format!("recording seed {s} derived twice"));
                }
            }
        }
        let mut detector = DetectorConfig::hybrid();
        detector.jobs = jobs;
        let mut replay = ReplayNpb {
            programs,
            seeds,
            benchmark_of,
            bytes: Vec::new(),
            events: 0,
            jobs,
            detector,
        };
        replay.record(ctx)?;
        Ok(replay)
    }

    fn op(&self, _k: u64, ctx: Ctx) -> Result<Verdict, String> {
        let sections = ctx
            .span("stream.decode", |_| decode_trace(&self.bytes, self.jobs))
            .map_err(|e| e.to_string())?;
        let decoded: usize = sections.iter().map(|s| s.trace.events().len()).sum();
        ctx.count("stream.events", decoded as f64);
        let outcome = ctx
            .span("serve.analyze", |_| analyze_sections(&sections))
            .map_err(|e| e.to_string())?;
        ctx.count("serve.events", outcome.events as f64);
        let emitted: usize = outcome.sections.iter().map(|s| s.violations.len()).sum();
        ctx.count("core.violations", emitted as f64);
        ctx.count(
            "core.violations_deduped",
            emitted.saturating_sub(outcome.violations.len()) as f64,
        );
        let text = ctx.span("core.render", |_| render(&outcome));
        Ok(Verdict {
            outcome,
            sections,
            text,
        })
    }

    fn verify(&self, _k: u64, v: &Verdict) -> Result<(), String> {
        let expected_sections = self.benchmark_of.len();
        if v.outcome.sections.len() != expected_sections || v.outcome.events != self.events {
            return Err(format!(
                "expected {expected_sections} sections and {} events, got:\n{}",
                self.events, v.text
            ));
        }
        for (b, injected) in self.programs.iter().enumerate() {
            let report = HomeReport {
                violations: self.violations_of(b, &v.outcome),
                ..HomeReport::default()
            };
            let s = score("HOME", &report, &injected.injections);
            if s.detected != s.injected || s.false_positives != 0 {
                return Err(format!(
                    "{}: expected {}/{} injections and no false positive, got {} detected, {} false positive(s)",
                    BENCHMARKS[b].name(),
                    s.injected,
                    s.injected,
                    s.detected,
                    s.false_positives
                ));
            }
        }
        Ok(())
    }

    /// The detectors and the rules on each decoded section, outside the
    /// op: `analyze_sections` runs them fused and cannot be split from
    /// outside. `dynamic.detect` is the detector `check` uses;
    /// `stream.detect` the one replay uses.
    fn calibrate(&self, _k: u64, v: &Verdict, ctx: Ctx) {
        if let Ok(Some(layout)) = ctx.span("stream.scan", |_| scan_layout(&self.bytes)) {
            ctx.count("stream.frames", layout.frames.len() as f64);
        }
        for section in &v.sections {
            let trace = &section.trace;
            let Ok(races) = ctx.span("dynamic.detect", |_| {
                home_dynamic::detect(trace, &self.detector)
            }) else {
                continue;
            };
            ctx.count("dynamic.events", trace.events().len() as f64);
            ctx.count("dynamic.races", races.len() as f64);
            let _ = ctx.span("stream.detect", |_| detect_stream(trace, &self.detector));
            let _ = ctx.span("core.rules", |_| {
                let session = Session::classifier(
                    section.seed.unwrap_or_default(),
                    Arc::new(home_core::NullViolationSink),
                );
                for e in trace.events() {
                    session.feed_event(e);
                }
                for race in &races {
                    session.feed_race(race);
                }
                for i in &section.incidents {
                    session.feed_incident(&to_incident(i));
                }
                session.finish()
            });
        }
    }

    /// Replay promises `check`'s verdict: every recorded section must carry
    /// the violations `home_core::check` finds on the same program and seed.
    fn cross_check(&self) -> Result<(), String> {
        let sections = decode_trace(&self.bytes, self.jobs).map_err(|e| e.to_string())?;
        let outcome = analyze_sections(&sections).map_err(|e| e.to_string())?;
        let slots = fan_out_indexed(&outcome.sections, self.jobs, |_, section| {
            let seed = section.seed.ok_or("a replayed section carries no seed")?;
            let b = *self
                .benchmark_of
                .get(&seed)
                .ok_or_else(|| format!("a replayed section carries unrecorded seed {seed}"))?;
            let mut options = CheckOptions::new(PROCS, THREADS)
                .with_seeds(vec![seed])
                .with_jobs(1);
            options.sched_policy = SchedPolicy::EarliestClockFirst;
            let report = check(&self.programs[b].program, &options);
            let replayed: BTreeSet<ViolationIdentity> = section
                .violations
                .iter()
                .map(|kv| violation_identity(&kv.violation))
                .collect();
            let checked: BTreeSet<ViolationIdentity> =
                report.violations.iter().map(violation_identity).collect();
            if report.partial || replayed != checked || report.races.len() != section.races {
                return Err(format!(
                    "{} seed {seed}: replay found {} violation(s) and {} race(s), check {} and {}",
                    BENCHMARKS[b].name(),
                    replayed.len(),
                    section.races,
                    checked.len(),
                    report.races.len()
                ));
            }
            Ok(())
        });
        for slot in slots {
            slot.ok_or("a cross-check worker produced no result")??;
        }
        Ok(())
    }
}
