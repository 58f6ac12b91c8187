//! `explore_hidden`: `home_explore::explore` on `programs/hidden.hmp`,
//! 2 procs x 2 threads, budget 1024, strategy `all`, a fresh base seed
//! per op.
//!
//! 1024 short runs of 4 virtual threads each: per-run set-up and the
//! fingerprint dedup dominate, not the handoffs inside a run. Known
//! answer: exactly one `isConcurrentRecvViolation`, on rank 1, at
//! `hidden.hmp:31` and `hidden.hmp:36`, and no failed schedule.

use crate::harness::{derive, read_program, sampled_run, Workload};
use crate::spans::Ctx;
use home_core::{fan_out_indexed, ViolationKind};
use home_explore::{
    explore, schedule_fingerprint, ExploreOptions, ExploreReport, ScheduleToken, Strategy,
};
use home_interp::{run, RunConfig};
use home_ir::Program;
use std::sync::Arc;

const PROGRAM: &str = "programs/hidden.hmp";
const BUDGET: usize = 1024;
const EXPECTED_LINES: [u32; 2] = [31, 36];

pub struct ExploreHidden {
    program: Program,
    seed: u64,
    options: ExploreOptions,
}

/// A rendered exploration report and the report it came from.
pub struct Verdict {
    report: ExploreReport,
    text: String,
}

impl ExploreHidden {
    fn options(&self, k: u64) -> ExploreOptions {
        ExploreOptions {
            base_seed: derive(self.seed, k),
            ..self.options.clone()
        }
    }

    fn run_config(
        &self,
        token: &ScheduleToken,
        checklist: &Arc<home_static::Checklist>,
    ) -> RunConfig {
        let mut cfg =
            RunConfig::test(self.options.nprocs, token.seed).with_checklist(Arc::clone(checklist));
        cfg.threads_per_proc = self.options.threads_per_proc;
        cfg.sched.policy = token.policy();
        cfg.sched.priority_pins = token.pins.clone();
        cfg
    }

    /// The priority schedules explore starts from: seeds counting up from
    /// op `k`'s base seed.
    fn tokens(&self, k: u64, count: usize) -> Vec<ScheduleToken> {
        let base = self.options(k).base_seed;
        (0..count as u64)
            .map(|i| ScheduleToken::pct(base.wrapping_add(i), self.options.depth))
            .collect()
    }
}

impl Workload for ExploreHidden {
    type Verdict = Verdict;

    fn setup(seed: u64, jobs: usize, ctx: Ctx) -> Result<Self, String> {
        let program = read_program(PROGRAM, ctx)?;
        let mut options = ExploreOptions {
            nprocs: 2,
            threads_per_proc: 2,
            budget: BUDGET,
            strategy: Strategy::All,
            jobs,
            ..ExploreOptions::default()
        };
        options.detector.jobs = jobs;
        Ok(ExploreHidden {
            program,
            seed,
            options,
        })
    }

    fn op(&self, k: u64, ctx: Ctx) -> Result<Verdict, String> {
        let report = ctx.span("explore.explore", |_| {
            explore(&self.program, &self.options(k))
        });
        let text = ctx.span("explore.render", |_| report.render(PROGRAM));
        let c = &report.coverage;
        ctx.count("explore.attempted", c.attempted as f64);
        ctx.count("explore.analyzed", c.analyzed as f64);
        ctx.count("explore.deduped", c.deduped as f64);
        ctx.count("explore.directed_launched", c.directed_launched as f64);
        if let Some(first) = report.violations.first() {
            ctx.count(
                "explore.first_violation_schedule",
                first.schedule_index as f64,
            );
        }
        Ok(Verdict { report, text })
    }

    fn verify(&self, _k: u64, v: &Verdict) -> Result<(), String> {
        let r = &v.report;
        let c = &r.coverage;
        if r.partial || c.failed > 0 || c.attempted != BUDGET {
            return Err(format!(
                "expected {BUDGET} schedules and none failed, got:\n{}",
                v.text
            ));
        }
        let [found] = r.violations.as_slice() else {
            return Err(format!("expected exactly one violation, got:\n{}", v.text));
        };
        let viol = &found.violation;
        let lines: Vec<u32> = viol.locations.iter().map(|l| l.line).collect();
        let files_ok = viol.locations.iter().all(|l| l.file == "hidden.hmp");
        if viol.kind != ViolationKind::ConcurrentRecv
            || viol.rank.0 != 1
            || lines != EXPECTED_LINES
            || !files_ok
        {
            return Err(format!(
                "expected isConcurrentRecvViolation on rank 1 at hidden.hmp:31/:36, got: {viol}"
            ));
        }
        Ok(())
    }

    /// Simulate and fingerprint as many schedules as the op attempted,
    /// fanned out like explore's rounds, so `explore.self_ms` can subtract
    /// the runs from the explore call that hides them.
    fn calibrate(&self, k: u64, v: &Verdict, ctx: Ctx) {
        let report = ctx.span("static.analyze", |_| home_static::analyze(&self.program));
        ctx.count(
            "static.sites_instrumented",
            report.stats.instrumented as f64,
        );
        let checklist = Arc::new(report.checklist);
        let tokens = self.tokens(k, v.report.coverage.attempted);
        ctx.span("calib.runs", |ctx| {
            fan_out_indexed(&tokens, self.options.jobs, |_, token| {
                let cfg = self.run_config(token, &checklist);
                let result = ctx.span("interp.run", |_| run(&self.program, &cfg));
                ctx.count("interp.runs", 1.0);
                ctx.count("interp.events", result.events_recorded as f64);
                ctx.span("explore.fingerprint", |_| schedule_fingerprint(&result))
            })
        });
    }

    fn serial_runs(&self, k: u64, ctx: Ctx) {
        let checklist = Arc::new(home_static::analyze(&self.program).checklist);
        for token in self.tokens(k, BUDGET) {
            sampled_run(ctx, &self.program, &self.run_config(&token, &checklist));
        }
    }
}
