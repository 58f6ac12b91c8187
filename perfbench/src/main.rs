//! Time-to-verdict benchmark for HOME's `check`, `explore` and `replay`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload check_pipeline --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run from the repository root. One process runs one workload as a
//! closed loop with one client: the next op starts when the previous
//! verdict is rendered and checked. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` prints the per-layer metrics from a traced run.
//! The last line of standard output is one JSON object; see `NOTES.md`.

mod check;
mod explore;
mod harness;
mod replay;
mod rusage;
mod spans;

use harness::Workload;
use rusage::Usage;
use spans::{Ctx, Groups, Tracer, SETUP};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Fresh-process set-ups per untraced run; `setup_s` and `peak_rss_mb`
/// are their medians.
const SETUP_PROBES: usize = 5;
/// Ops whose simulator runs the traced run repeats one at a time for the
/// process counters.
const COUNTER_OPS: u64 = 3;
/// Op ids of the counter pass start here, apart from the traced ops.
const COUNTER_BASE: u64 = 1 << 62;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: set up once in this process and report (see [`probe`]).
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut probe = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--probe" => probe = value == "1",
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        probe,
    })
}

/// One timed op.
struct Sample {
    wall_ms: f64,
    cpu_ms: f64,
    traced: bool,
}

/// Ops attempted and the reasons of those that failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: impl std::fmt::Display, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("{what} failed: {e}");
            self.failures.push(e);
        }
    }
}

/// `q`-quantile of `sorted` by linear interpolation.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Run ops `1..` back to back until `seconds` have passed, timing
/// each from the call into the entry point to the rendered verdict, then
/// checking it against the known answer outside the timing. A failed op
/// keeps its sample. With a tracer, every other op runs traced, so traced
/// and untraced ops share the host's drift, and each traced op's
/// calibration calls follow it, outside it.
fn measure<W: Workload>(
    w: &W,
    seconds: f64,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut k: u64 = 1;
    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let traced = tracer.filter(|_| k.is_multiple_of(2));
        let ctx = traced.map_or(Ctx::OFF, |t| Ctx::root(t, k));
        let before = Usage::now();
        let began = Instant::now();
        let verdict = ctx.span("op", |ctx| w.op(k, ctx));
        let wall_ms = began.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = Usage::now().since(before).cpu_us as f64 / 1e3;
        samples.push(Sample {
            wall_ms,
            cpu_ms,
            traced: traced.is_some(),
        });
        let checked = verdict.and_then(|v| {
            w.verify(k, &v)?;
            if traced.is_some() {
                ctx.span("calib", |ctx| w.calibrate(k, &v, ctx));
            }
            Ok(())
        });
        tally.record(format_args!("op {k}"), checked);
        k += 1;
    }
    samples
}

/// Set up, then run one untraced op as warm-up; returns the workload and
/// the seconds it took.
fn setup<W: Workload>(
    args: &Args,
    jobs: usize,
    ctx: Ctx,
    tally: &mut Tally,
) -> Result<(W, f64), String> {
    let began = Instant::now();
    let w = W::setup(args.seed, jobs, ctx)?;
    let warm = w.op(0, Ctx::OFF).and_then(|v| w.verify(0, &v));
    tally.record("warm-up op", warm);
    Ok((w, began.elapsed().as_secs_f64()))
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The timing's median and its tail: the highest percentile with at least
/// ten samples beyond it (the 11th-slowest sample).
fn wall_metrics<'a>(samples: impl Iterator<Item = &'a Sample>) -> (f64, f64, String) {
    let mut walls: Vec<f64> = samples.map(|s| s.wall_ms).collect();
    walls.sort_by(f64::total_cmp);
    let n = walls.len();
    let p50 = quantile(&walls, 0.5);
    let (tail, note) = if n > 10 {
        let pct = 100.0 * (n - 10) as f64 / n as f64;
        (
            walls[n - 11],
            format!("p{pct:.1} of {n} samples, 10 beyond it"),
        )
    } else {
        (walls[n - 1], format!("max of {n} samples (fewer than 11)"))
    };
    (p50, tail, note)
}

/// Start a fresh process of this benchmark that sets the workload up,
/// runs the warm-up op and exits; returns its set-up seconds, its peak
/// RSS in KiB, and whether its warm-up verdict matched the known answer.
fn probe(args: &Args) -> Result<(f64, f64, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", &args.seconds.to_string(), "--probe", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let fields: Vec<&str> = line.split_whitespace().collect();
    match (out.status.success(), fields.as_slice()) {
        (true, ["probe", secs, kb, ok]) => Ok((
            secs.parse()
                .map_err(|_| format!("bad probe line `{line}`"))?,
            kb.parse().map_err(|_| format!("bad probe line `{line}`"))?,
            *ok == "ok",
        )),
        _ => Err(format!("set-up probe failed ({}): {line}", out.status)),
    }
}

/// The probe process's body: set up, warm up, report.
fn run_probe<W: Workload>(args: &Args, jobs: usize) -> Result<(), String> {
    let mut tally = Tally::default();
    let (_w, secs) = setup::<W>(args, jobs, Ctx::OFF, &mut tally)?;
    let ok = if tally.failures.is_empty() {
        "ok"
    } else {
        "wrong"
    };
    println!("probe {secs} {} {ok}", Usage::now().max_rss_kb);
    Ok(())
}

fn end_to_end<W: Workload>(args: &Args, jobs: usize) -> Result<(Vec<Metric>, Tally), String> {
    let mut tally = Tally::default();
    // A user's command sets up once per process. Set-up time and peak RSS
    // are therefore taken from fresh processes that set up and run one op:
    // a long-lived process's peak keeps stepping up as the simulator's
    // short-lived threads land on fresh malloc arenas, and says more about
    // how long the loop ran than about the workload. The probes start
    // before this process sets anything up: a process's peak RSS also
    // carries the footprint of whatever started it (here `cargo run`, for
    // the probes this process while it is still small).
    let mut setup_s = Vec::new();
    let mut rss_mb = Vec::new();
    for _ in 0..SETUP_PROBES {
        let (secs, kb, ok) = probe(args)?;
        setup_s.push(secs);
        rss_mb.push(kb / 1024.0);
        let verdict = if ok {
            Ok(())
        } else {
            Err("see its stderr above".into())
        };
        tally.record("set-up probe's warm-up op", verdict);
    }
    let (w, _) = setup::<W>(args, jobs, Ctx::OFF, &mut tally)?;
    let samples = measure(&w, args.seconds, None, &mut tally);
    tally.record("cross-check", w.cross_check());

    let (p50, tail, tail_note) = wall_metrics(samples.iter());
    let cpu: Vec<f64> = samples.iter().map(|s| s.cpu_ms).collect();
    let rounded = |v: &[f64]| {
        v.iter()
            .map(|x| (x * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    };
    println!(
        "setup_s: median of {SETUP_PROBES} fresh-process set-ups {:?}",
        rounded(&setup_s)
    );
    println!(
        "peak_rss_mb: median of the same {SETUP_PROBES} processes {:?}",
        rounded(&rss_mb)
    );
    println!("verdict_ms_tail: {tail_note}");
    println!(
        "fail_ratio: {} of {} attempted",
        tally.failures.len(),
        tally.attempted
    );
    Ok((
        vec![
            ("verdict_ms_p50", p50, "ms"),
            ("verdict_ms_tail", tail, "ms"),
            ("cpu_ms_per_verdict", median(&cpu), "ms"),
            ("peak_rss_mb", median(&rss_mb), "MB"),
            ("setup_s", median(&setup_s), "s"),
        ],
        tally,
    ))
}

/// The layers, by crate name, in pipeline order, with their self-time
/// metric.
const LAYERS: [(&str, &str); 9] = [
    ("ir", "self.ir_ms"),
    ("npb", "self.npb_ms"),
    ("static", "self.static_ms"),
    ("interp", "self.interp_ms"),
    ("dynamic", "self.dynamic_ms"),
    ("core", "self.core_ms"),
    ("stream", "self.stream_ms"),
    ("serve", "self.serve_ms"),
    ("explore", "self.explore_ms"),
];

/// Median over the groups (ops, or set-up) for which `f` is defined; 0
/// when no group is (the layer is not on this workload's path).
fn over(groups: &Groups, f: impl Fn(&BTreeMap<String, f64>) -> Option<f64>) -> f64 {
    let values: Vec<f64> = groups.values().filter_map(f).collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

fn get(g: &BTreeMap<String, f64>, key: &str) -> Option<f64> {
    g.get(key).copied()
}

/// One traced run's numbers: every group (traced ops, set-up, counter
/// pass), the traced ops alone, and the untraced ops' median for the
/// tracing overhead.
struct Traced {
    groups: Groups,
    ops: Groups,
    spans_per_op: f64,
    untraced_p50: f64,
}

impl Traced {
    fn ms(&self, key: &str) -> f64 {
        over(&self.groups, |g| Some(get(g, key)? / 1e6))
    }

    fn count(&self, key: &str) -> f64 {
        over(&self.groups, |g| get(g, key))
    }

    fn ratio(&self, num: &str, den: &str, scale: f64) -> f64 {
        over(&self.groups, |g| Some(get(g, num)? * scale / get(g, den)?))
    }

    /// The part of a traced op covered by `key`'s spans.
    fn share(&self, key: &str) -> f64 {
        over(&self.ops, |g| Some(get(g, key)? / get(g, "op_ns")?))
    }

    fn op_ms(&self, key: &str) -> f64 {
        over(&self.ops, |g| Some(get(g, key)? / 1e6))
    }

    fn metrics(&self) -> Vec<Metric> {
        let traced_ms = self.op_ms("op_ns");
        let mut m: Vec<Metric> = vec![
            ("ir.parse_ms", self.ms("span:ir.parse"), "ms"),
            ("npb.build_ms", self.ms("span:npb.build"), "ms"),
            ("static.analyze_ms", self.ms("span:static.analyze"), "ms"),
            (
                "static.sites_instrumented",
                self.count("static.sites_instrumented"),
                "count",
            ),
            ("interp.run_ms", self.ms("span:interp.run"), "ms"),
            ("interp.cpu_ms", self.count("interp.cpu_us") / 1e3, "ms"),
            (
                "interp.wait_share",
                1.0 - self.ratio("interp.cpu_us", "interp.serial_wall_us", 1.0),
                "ratio",
            ),
            ("interp.runs", self.count("interp.runs"), "count"),
            ("interp.events", self.count("interp.events"), "count"),
            (
                "interp.us_per_event",
                self.ratio("span:interp.run", "interp.events", 1e-3),
                "us",
            ),
            ("interp.vcsw", self.count("interp.vcsw"), "count"),
            ("interp.ivcsw", self.count("interp.ivcsw"), "count"),
            ("interp.op_share", self.share("cover:interp.run"), "ratio"),
            ("dynamic.detect_ms", self.ms("span:dynamic.detect"), "ms"),
            ("dynamic.races", self.count("dynamic.races"), "count"),
            (
                "dynamic.events_per_s",
                self.ratio("dynamic.events", "span:dynamic.detect", 1e9),
                "1/s",
            ),
            ("core.rules_ms", self.ms("span:core.rules"), "ms"),
            ("core.render_ms", self.ms("span:core.render"), "ms"),
            ("core.violations", self.count("core.violations"), "count"),
            (
                "core.violations_deduped",
                self.count("core.violations_deduped"),
                "count",
            ),
            ("stream.decode_ms", self.ms("span:stream.decode"), "ms"),
            (
                "stream.decode_events_per_s",
                self.ratio("stream.events", "span:stream.decode", 1e9),
                "1/s",
            ),
            ("stream.frames", self.count("stream.frames"), "count"),
            (
                "stream.bytes_per_event",
                self.ratio("stream.bytes", "stream.encoded_events", 1.0),
                "B",
            ),
            ("stream.detect_ms", self.ms("span:stream.detect"), "ms"),
            ("stream.encode_ms", self.ms("span:stream.encode"), "ms"),
            (
                "stream.decode_op_share",
                self.share("cover:stream.decode"),
                "ratio",
            ),
            ("serve.analyze_ms", self.ms("span:serve.analyze"), "ms"),
            (
                "serve.events_per_s",
                self.ratio("serve.events", "span:serve.analyze", 1e9),
                "1/s",
            ),
            ("serve.op_share", self.share("cover:serve.analyze"), "ratio"),
            ("explore.explore_ms", self.ms("span:explore.explore"), "ms"),
            (
                "explore.self_ms",
                over(&self.groups, |g| {
                    Some((get(g, "span:explore.explore")? - get(g, "span:calib.runs")?) / 1e6)
                }),
                "ms",
            ),
            (
                "explore.us_per_schedule",
                self.ratio("span:explore.explore", "explore.attempted", 1e-3),
                "us",
            ),
            (
                "explore.attempted",
                self.count("explore.attempted"),
                "count",
            ),
            ("explore.analyzed", self.count("explore.analyzed"), "count"),
            ("explore.deduped", self.count("explore.deduped"), "count"),
            (
                "explore.analyzed_ratio",
                self.ratio("explore.analyzed", "explore.attempted", 1.0),
                "ratio",
            ),
            (
                "explore.directed_launched",
                self.count("explore.directed_launched"),
                "count",
            ),
            (
                "explore.first_violation_schedule",
                self.count("explore.first_violation_schedule"),
                "count",
            ),
            ("op.traced_ms", traced_ms, "ms"),
            ("op.unattributed_ms", self.op_ms("op_self_ns"), "ms"),
            ("trace.overhead_ms", traced_ms - self.untraced_p50, "ms"),
            ("trace.spans_per_op", self.spans_per_op, "count"),
        ];
        for (layer, name) in LAYERS {
            m.push((name, self.ms(&format!("self:{layer}")), "ms"));
        }
        m
    }

    /// The layer split of an op, as text.
    fn print_layers(&self) {
        println!("per op (per set-up for layers that run only in set-up); share_of_op counts only");
        println!("spans inside the op, not the calibration calls made after it:");
        println!("layer     total_ms   self_ms  share_of_op");
        for (layer, _) in LAYERS {
            println!(
                "{layer:<9} {:>9.3} {:>9.3} {:>11.1}%",
                self.ms(&format!("layer:{layer}")),
                self.ms(&format!("self:{layer}")),
                self.share(&format!("cover:{layer}")) * 100.0
            );
        }
        let traced_ms = self.op_ms("op_ns");
        println!(
            "unattributed {:.3} ms of a {traced_ms:.3} ms traced op; untraced p50 {:.3} ms; \
             tracing overhead {:.3} ms",
            self.op_ms("op_self_ns"),
            self.untraced_p50,
            traced_ms - self.untraced_p50
        );
    }
}

fn per_layer<W: Workload>(args: &Args, jobs: usize) -> Result<(Vec<Metric>, Tally), String> {
    let mut tally = Tally::default();
    let tracer = Tracer::new();
    let (w, _) = setup::<W>(args, jobs, Ctx::root(&tracer, SETUP), &mut tally)?;
    let samples = measure(&w, args.seconds, Some(&tracer), &mut tally);
    let traced = samples.iter().filter(|s| s.traced).count();
    // Process counters cannot be split per call while two workers run, so
    // the simulator runs of a few traced ops are repeated one at a time.
    for k in (1..=COUNTER_OPS).map(|i| 2 * i) {
        w.serial_runs(k, Ctx::root(&tracer, COUNTER_BASE + k));
    }
    tally.record("cross-check", w.cross_check());

    let spans = tracer.spans();
    let path = std::path::PathBuf::from(format!(
        "perfbench/spans/{}-seed{}.tsv",
        args.workload, args.seed
    ));
    spans::write_tsv(&path, &spans).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let groups = spans::group(&spans, &tracer.counts());
    let ops: Groups = groups
        .iter()
        .filter(|(_, g)| g.contains_key("op_ns"))
        .map(|(&op, g)| (op, g.clone()))
        .collect();
    let spans_per_op =
        spans.iter().filter(|s| ops.contains_key(&s.op)).count() as f64 / ops.len().max(1) as f64;
    let run = Traced {
        groups,
        ops,
        spans_per_op,
        untraced_p50: wall_metrics(samples.iter().filter(|s| !s.traced)).0,
    };
    println!(
        "traced run: {} untraced and {} traced op(s), alternating; process counters from a jobs-1 pass \
         over {COUNTER_OPS} op(s), or over set-up where the simulator runs only there; spans in {}",
        samples.len() - traced,
        traced,
        path.display()
    );
    run.print_layers();
    Ok((run.metrics(), tally))
}

/// Run the workload as `args` ask and print its result; the last line is
/// the JSON object.
fn run<W: Workload>(args: &Args, jobs: usize) -> Result<(), String> {
    if args.probe {
        return run_probe::<W>(args, jobs);
    }
    let (metrics, tally) = if args.trace {
        per_layer::<W>(args, jobs)?
    } else {
        end_to_end::<W>(args, jobs)?
    };
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    println!("{}", json(&metrics, &tally));
    Ok(())
}

fn json(metrics: &[Metric], tally: &Tally) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failures.is_empty(),
        tally.attempted,
        tally.failures.len(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <check_pipeline|explore_hidden|replay_npb> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = nproc.min(2);
    if !args.probe {
        println!(
            "workload {} seed {} seconds {} trace {} jobs {jobs} nproc {nproc}",
            args.workload, args.seed, args.seconds, args.trace as u8
        );
    }
    let result = match args.workload.as_str() {
        "check_pipeline" => run::<check::CheckPipeline>(&args, jobs),
        "explore_hidden" => run::<explore::ExploreHidden>(&args, jobs),
        "replay_npb" => run::<replay::ReplayNpb>(&args, jobs),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
