//! `check_pipeline`: `home_core::check` on `programs/pipeline.hmp`,
//! 16 procs x 4 threads, 8 random-policy seeds per op.
//!
//! Every seed runs 64 virtual threads through ~2.6K scheduler steps, so the
//! simulator's thread handoff is almost the whole op. Known answer: clean
//! (no violation, no deadlock, no failed seed), 640 events per seed.

use crate::harness::{derive, read_program, sampled_run, Workload};
use crate::spans::Ctx;
use home_core::{
    check, fan_out_indexed, violation_identity, CheckOptions, HomeReport, SeedRun, SeedStatus,
    Session,
};
use home_interp::{run, RunConfig};
use home_ir::Program;
use std::collections::BTreeSet;
use std::sync::Arc;

const PROGRAM: &str = "programs/pipeline.hmp";
const PROCS: usize = 16;
const THREADS: usize = 4;
const SEEDS_PER_OP: u64 = 8;
const EVENTS_PER_SEED: u64 = 640;

pub struct CheckPipeline {
    program: Program,
    seed: u64,
    options: CheckOptions,
}

/// A rendered `check` verdict and the report it came from.
pub struct Verdict {
    report: HomeReport,
    text: String,
}

impl CheckPipeline {
    fn options(&self, k: u64) -> CheckOptions {
        let seeds = (0..SEEDS_PER_OP)
            .map(|i| derive(self.seed, k * SEEDS_PER_OP + i))
            .collect();
        self.options.clone().with_seeds(seeds)
    }

    fn run_config(&self, seed: u64, checklist: &Arc<home_static::Checklist>) -> RunConfig {
        let mut cfg = RunConfig::test(PROCS, seed)
            .with_instrumentation(self.options.instrumentation.clone())
            .with_checklist(Arc::clone(checklist));
        cfg.threads_per_proc = THREADS;
        cfg.sched.policy = self.options.sched_policy;
        cfg
    }

    /// `check`'s composition, call by call, with a span around each call
    /// into a layer: static analysis, then per seed (fanned out with the
    /// same `fan_out_indexed` and `jobs` as `check`) simulate, detect and
    /// classify, then merge, cross-check and render.
    fn traced_check(&self, options: &CheckOptions, ctx: Ctx) -> Result<HomeReport, String> {
        let static_report = ctx.span("static.analyze", |_| home_static::analyze(&self.program));
        ctx.count(
            "static.sites_instrumented",
            static_report.stats.instrumented as f64,
        );
        let checklist = Arc::new(static_report.checklist.clone());
        let slots = fan_out_indexed(&options.seeds, options.jobs, |_, &seed| {
            let cfg = self.run_config(seed, &checklist);
            let result = ctx.span("interp.run", |_| run(&self.program, &cfg));
            ctx.count("interp.runs", 1.0);
            ctx.count("interp.events", result.events_recorded as f64);
            let races = ctx
                .span("dynamic.detect", |_| {
                    home_dynamic::detect(&result.trace, &options.detector)
                })
                .map_err(|e| e.to_string())?;
            ctx.count("dynamic.events", result.trace.events().len() as f64);
            ctx.count("dynamic.races", races.len() as f64);
            let outcome = ctx
                .span("core.rules", |_| {
                    let session = Session::classifier(seed, Arc::new(home_core::NullViolationSink));
                    for e in result.trace.events() {
                        session.feed_event(e);
                    }
                    for race in &races {
                        session.feed_race(race);
                    }
                    for incident in &result.mpi_errors {
                        session.feed_incident(incident);
                    }
                    session.finish()
                })
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((seed, result, races, outcome))
        });
        let mut report = HomeReport {
            static_stats: static_report.stats,
            ..HomeReport::default()
        };
        for slot in slots {
            let (seed, result, races, outcome) =
                slot.ok_or_else(|| "a seed worker produced no result".to_string())??;
            report.runs += 1;
            report.total_events += result.events_recorded;
            report.seed_runs.push(SeedRun {
                seed,
                status: SeedStatus::Ok {
                    events: result.events_recorded,
                    races: races.len(),
                    violations: outcome.violations.len(),
                },
            });
            if let Some(d) = result.deadlock {
                report.deadlocks.push((seed, d));
            }
            report.incidents.extend(result.mpi_errors);
            report.races.extend(races);
            report.unclassified.extend(outcome.unclassified);
            report.violations.extend(outcome.violations);
        }
        let emitted = report.violations.len();
        let mut seen = BTreeSet::new();
        report
            .violations
            .retain(|v| seen.insert(violation_identity(v)));
        ctx.count("core.violations", emitted as f64);
        ctx.count(
            "core.violations_deduped",
            (emitted - report.violations.len()) as f64,
        );
        report.cross_check(&static_report.candidates);
        Ok(report)
    }
}

impl Workload for CheckPipeline {
    type Verdict = Verdict;

    fn setup(seed: u64, jobs: usize, ctx: Ctx) -> Result<Self, String> {
        let program = read_program(PROGRAM, ctx)?;
        let options = CheckOptions::new(PROCS, THREADS).with_jobs(jobs);
        Ok(CheckPipeline {
            program,
            seed,
            options,
        })
    }

    fn op(&self, k: u64, ctx: Ctx) -> Result<Verdict, String> {
        let options = self.options(k);
        let report = if ctx.traced() {
            self.traced_check(&options, ctx)?
        } else {
            check(&self.program, &options)
        };
        let text = ctx.span("core.render", |_| report.render());
        Ok(Verdict { report, text })
    }

    fn verify(&self, _k: u64, v: &Verdict) -> Result<(), String> {
        let r = &v.report;
        if r.partial || !r.violations.is_empty() || !r.deadlocks.is_empty() {
            return Err(format!("expected a clean full run, got:\n{}", v.text));
        }
        if r.runs as u64 != SEEDS_PER_OP || r.seed_runs.len() as u64 != SEEDS_PER_OP {
            return Err(format!("expected {SEEDS_PER_OP} seed runs, got {}", r.runs));
        }
        for s in &r.seed_runs {
            match s.status {
                SeedStatus::Ok { events, .. } if events == EVENTS_PER_SEED => {}
                ref other => {
                    return Err(format!(
                        "seed {}: expected {EVENTS_PER_SEED} events, got {other:?}",
                        s.seed
                    ))
                }
            }
        }
        if !v.text.contains("no thread-safety violations detected") {
            return Err(format!("rendered verdict is not clean:\n{}", v.text));
        }
        Ok(())
    }

    fn serial_runs(&self, k: u64, ctx: Ctx) {
        let checklist = Arc::new(home_static::analyze(&self.program).checklist);
        for seed in self.options(k).seeds {
            sampled_run(ctx, &self.program, &self.run_config(seed, &checklist));
        }
    }
}
