//! In-memory spans and counts recorded around calls into the layers.
//!
//! A [`Ctx`] names the op a call belongs to and the span that caused it.
//! With no tracer attached every method is a plain call, so one
//! composition serves both the untraced and the traced run. Spans are kept
//! in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Op id under which set-up work is recorded.
pub const SETUP: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, or a structural name without a layer (`op`, `calib`).
    pub name: &'static str,
    /// The op this span belongs to ([`SETUP`] for set-up).
    pub op: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: the crate name before the dot.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

/// Span and count store shared by every thread of a run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<(u64, &'static str, f64)>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned")[id].end_ns = end_ns;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Every count recorded so far, as `(op, name, value)`.
    pub fn counts(&self) -> Vec<(u64, &'static str, f64)> {
        self.counts.lock().expect("count store poisoned").clone()
    }
}

/// Where a call sits: which tracer (if any), which op, which parent span.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    tracer: Option<&'a Tracer>,
    op: u64,
    parent: Option<usize>,
}

impl<'a> Ctx<'a> {
    /// Tracing off: spans and counts are not recorded.
    pub const OFF: Ctx<'static> = Ctx {
        tracer: None,
        op: 0,
        parent: None,
    };

    /// A root context for op `op`.
    pub fn root(tracer: &'a Tracer, op: u64) -> Ctx<'a> {
        Ctx {
            tracer: Some(tracer),
            op,
            parent: None,
        }
    }

    /// True when spans are being recorded.
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Run `f` inside a span named `name`; calls `f` makes through the
    /// context it receives become the span's children.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        let Some(tracer) = self.tracer else {
            return f(self);
        };
        let id = tracer.open(name, self.op, self.parent);
        let out = f(Ctx {
            parent: Some(id),
            ..self
        });
        tracer.close(id);
        out
    }

    /// Add `value` to the op's count `name`.
    pub fn count(self, name: &'static str, value: f64) {
        if let Some(tracer) = self.tracer {
            tracer
                .counts
                .lock()
                .expect("count store poisoned")
                .push((self.op, name, value));
        }
    }
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-op sums derived from the spans and counts of one run. Keys:
///
/// * `span:<name>` — summed duration of the spans named `<name>`, ns;
/// * `self:<layer>` — the layer's self time: each of its spans' duration
///   minus the part covered by the span's children, summed, ns;
/// * `layer:<layer>` — summed duration of the layer's spans, ns;
/// * `cover:<name>`, `cover:<layer>` — the union of the intervals of the
///   spans named `<name>` (of the layer's spans) that sit under the op's
///   `op` span, ns: parallel spans count once;
/// * `op_ns`, `op_self_ns` — the `op` span's duration, and what of it no
///   child span covers (the unattributed remainder);
/// * every count, summed, under its own name.
pub type Groups = BTreeMap<u64, BTreeMap<String, f64>>;

/// Sum the spans and counts of a run per op.
pub fn group(spans: &[Span], counts: &[(u64, &'static str, f64)]) -> Groups {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let under_op = |mut i: usize| loop {
        match spans[i].parent {
            Some(p) => i = p,
            None => return spans[i].name == "op",
        }
    };
    let mut groups = Groups::new();
    let mut covers: BTreeMap<(u64, String), Vec<(u64, u64)>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let kids = children[i]
            .iter()
            .map(|&c| {
                let c = &spans[c];
                (
                    c.start_ns.max(s.start_ns),
                    c.end_ns.min(s.end_ns).max(s.start_ns),
                )
            })
            .collect();
        let self_ns = s.dur() - union_len(kids).min(s.dur());
        let g = groups.entry(s.op).or_default();
        *g.entry(format!("span:{}", s.name)).or_default() += s.dur() as f64;
        if let Some(layer) = s.layer() {
            *g.entry(format!("layer:{layer}")).or_default() += s.dur() as f64;
            *g.entry(format!("self:{layer}")).or_default() += self_ns as f64;
            if under_op(i) {
                for key in [s.name, layer] {
                    covers
                        .entry((s.op, format!("cover:{key}")))
                        .or_default()
                        .push((s.start_ns, s.end_ns));
                }
            }
        }
        if s.name == "op" {
            *g.entry("op_ns".into()).or_default() += s.dur() as f64;
            *g.entry("op_self_ns".into()).or_default() += self_ns as f64;
        }
    }
    for ((op, key), intervals) in covers {
        groups
            .entry(op)
            .or_default()
            .insert(key, union_len(intervals) as f64);
    }
    for &(op, name, value) in counts {
        *groups
            .entry(op)
            .or_default()
            .entry(name.into())
            .or_default() += value;
    }
    groups
}

/// Write the spans as tab-separated lines: id, parent, op, name, start,
/// end (ns since the run's tracer was created).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let op = if s.op == SETUP {
            "setup".to_string()
        } else {
            s.op.to_string()
        };
        writeln!(
            out,
            "{i}\t{parent}\t{op}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![]), 0);
    }
}
