//! What the three workloads share: the workload interface, seed
//! derivation, program loading, and the counter-sampled simulator run.

use crate::rusage::Usage;
use crate::spans::Ctx;
use home_interp::{run, RunConfig, RunResult};
use home_ir::Program;
use std::time::Instant;

/// One workload: its set-up, its op, and the op's known answer.
pub trait Workload: Sized {
    /// What one op returns: the rendered verdict and what it came from.
    type Verdict;

    /// Everything before the warm-up op: parsing, generation, recording.
    fn setup(seed: u64, jobs: usize, ctx: Ctx) -> Result<Self, String>;

    /// One op, from the call into the entry point to the rendered verdict.
    /// Untraced (`Ctx::OFF`) it calls the library entry point a command
    /// uses; traced it makes the same calls with a span around each call
    /// into a layer. An `Err` is an error the entry point returned.
    fn op(&self, k: u64, ctx: Ctx) -> Result<Self::Verdict, String>;

    /// Check op `k`'s verdict against the workload's known answer.
    fn verify(&self, k: u64, v: &Self::Verdict) -> Result<(), String>;

    /// After a traced op, outside it: time the calls the op's entry point
    /// makes internally and cannot be split from outside.
    fn calibrate(&self, _k: u64, _v: &Self::Verdict, _ctx: Ctx) {}

    /// The simulator runs of op `k`, made one at a time through
    /// [`sampled_run`], so process-wide counters attribute to each run.
    /// Workloads whose runs happen only in set-up sample them there.
    fn serial_runs(&self, _k: u64, _ctx: Ctx) {}

    /// Once per run, after the timed ops: compare the verdicts with those
    /// of another entry point that promises the same answer.
    fn cross_check(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Seed `i` of the stream derived from the workload seed (SplitMix64).
pub fn derive(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(i.wrapping_add(1)))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Read and parse one of the repository's sample programs.
pub fn read_program(path: &str, ctx: Ctx) -> Result<Program, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ctx.span("ir.parse", |_| home_ir::parse(&source))
        .map_err(|e| format!("{path}: {e}"))
}

/// `home_interp::run`, with process-wide counters sampled around it and
/// recorded as counts. Only meaningful when nothing else runs meanwhile.
pub fn sampled_run(ctx: Ctx, program: &Program, cfg: &RunConfig) -> RunResult {
    let before = Usage::now();
    let start = Instant::now();
    let result = run(program, cfg);
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    let used = Usage::now().since(before);
    ctx.count("interp.serial_wall_us", wall_us);
    ctx.count("interp.cpu_us", used.cpu_us as f64);
    ctx.count("interp.vcsw", used.vcsw as f64);
    ctx.count("interp.ivcsw", used.ivcsw as f64);
    result
}
