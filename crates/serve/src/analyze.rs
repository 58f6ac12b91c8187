//! Session-driven offline analysis of decoded HBT sections.
//!
//! One [`Session`](home_core::Session) per recorded section, fed
//! event-at-a-time, exactly like the daemon's ingest loop — so `home
//! replay`, `home analyze`, and `home serve` share one verdict path and
//! are byte-identical by construction. Violations are deduplicated across
//! sections by identity `(kind, rank, locations)`, first occurrence wins,
//! with each kept violation carrying the minimum [`EmitOrder`] it was
//! emitted under (the canonical batch-evaluation position).

use home_core::{EmitOrder, Session, Violation, ViolationCollector};
use home_dynamic::DetectorConfig;
use home_interp::MpiIncident;
use home_stream::{HbtReader, HbtRecord, HbtSection, ManifestCheck, TraceIncident};
use home_trace::HomeError;
use std::collections::BTreeMap;
use std::sync::Arc;

// The identity keying lives in `home_core` (it is also the check pipeline's
// and the exploration engine's dedup key); re-exported here because serve's
// public API grew it first.
pub use home_core::{violation_identity, ViolationIdentity};

/// One violation with its canonical emission key.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedViolation {
    /// The minimum canonical batch-order position this violation was
    /// emitted under within its section.
    pub order: EmitOrder,
    /// The classified violation.
    pub violation: Violation,
}

/// The verdict over one recorded section (one run).
#[derive(Debug, Clone, Default)]
pub struct SectionVerdict {
    /// Scheduler seed, when the section was opened by a `RUN` record.
    pub seed: Option<u64>,
    /// Events the section contained.
    pub events: u64,
    /// Monitored races the detector found.
    pub races: usize,
    /// Races the rules could not classify.
    pub unclassified: usize,
    /// Canonical per-section violation list (batch order), keyed.
    pub violations: Vec<KeyedViolation>,
}

/// The combined verdict over all sections of one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceOutcome {
    /// Per-section verdicts, in stream order.
    pub sections: Vec<SectionVerdict>,
    /// Total events across sections.
    pub events: u64,
    /// Total monitored races across sections.
    pub races: usize,
    /// Total unclassified races across sections.
    pub unclassified: usize,
    /// Violations deduplicated across sections: first occurrence wins,
    /// section order then canonical order within a section.
    pub violations: Vec<Violation>,
}

fn to_incident(i: &TraceIncident) -> MpiIncident {
    MpiIncident {
        rank: i.rank,
        line: i.line,
        call: i.call.clone(),
        error: i.error.clone(),
    }
}

/// One section's detection in flight: a streaming [`Session`] plus the
/// emission collector that recovers each violation's canonical position.
///
/// Events are fed the moment they arrive (bounded memory — nothing is
/// buffered but the detector's own live state); incidents are buffered and
/// fed at [`SectionSession::finish`], so a stream that interleaves
/// incidents with events reaches the exact verdict the offline path
/// computes from the decoded section.
#[derive(Debug)]
pub struct SectionSession {
    seed: Option<u64>,
    session: Session,
    collector: Arc<ViolationCollector>,
    incidents: Vec<MpiIncident>,
}

impl SectionSession {
    /// Open a session for a section recorded under `seed` (or the implicit
    /// anonymous section).
    pub fn open(seed: Option<u64>) -> SectionSession {
        let collector = Arc::new(ViolationCollector::new());
        let session = Session::streaming(
            seed.unwrap_or(0),
            DetectorConfig::hybrid(),
            Arc::clone(&collector) as Arc<dyn home_core::ViolationSink>,
        );
        SectionSession {
            seed,
            session,
            collector,
            incidents: Vec::new(),
        }
    }

    /// Feed one event into the live detector + rule engine.
    pub fn feed_event(&self, e: &home_trace::Event) {
        self.session.feed_event(e);
    }

    /// Feed a batch of events through the amortized lock-once path
    /// ([`Session::feed_batch`]). Byte-identical to feeding each event
    /// individually, for every batch size.
    pub fn feed_batch(&self, events: &[home_trace::Event]) {
        self.session.feed_batch(events);
    }

    /// Buffer one incident for end-of-section classification.
    pub fn push_incident(&mut self, i: &TraceIncident) {
        self.incidents.push(to_incident(i));
    }

    /// Finish: feed the buffered incidents, run the end-of-run evaluation,
    /// and key each canonical violation by its minimum emission position.
    pub fn finish(self) -> Result<SectionVerdict, HomeError> {
        for i in &self.incidents {
            self.session.feed_incident(i);
        }
        let outcome = self.session.finish()?;

        // Minimum canonical emission position per violation identity.
        let mut first: BTreeMap<ViolationIdentity, EmitOrder> = BTreeMap::new();
        for e in self.collector.emissions() {
            let key = violation_identity(&e.violation);
            match first.get_mut(&key) {
                Some(order) => {
                    if e.order < *order {
                        *order = e.order;
                    }
                }
                None => {
                    first.insert(key, e.order);
                }
            }
        }
        let violations = outcome
            .violations
            .into_iter()
            .map(|violation| {
                let order = first
                    .get(&violation_identity(&violation))
                    .copied()
                    .unwrap_or(EmitOrder::new(u8::MAX, u8::MAX, u64::MAX, u64::MAX));
                KeyedViolation { order, violation }
            })
            .collect();
        Ok(SectionVerdict {
            seed: self.seed,
            events: outcome.events,
            races: outcome.races.len(),
            unclassified: outcome.unclassified.len(),
            violations,
        })
    }
}

/// Analyze one decoded section with a streaming [`Session`]: feed every
/// event in order, then the section's incidents, then finish. This is the
/// single verdict path shared by `replay`, `analyze`, and the serve daemon
/// (which drives [`SectionSession`] record-at-a-time instead).
pub fn analyze_section(section: &HbtSection) -> Result<SectionVerdict, HomeError> {
    analyze_section_batched(section, None)
}

/// [`analyze_section`] with an explicit feed granularity: events go
/// through [`SectionSession::feed_batch`] in chunks of `batch` events
/// (the whole section at once for `None`). Every granularity produces
/// byte-identical verdicts; the parity suite pins it.
pub fn analyze_section_batched(
    section: &HbtSection,
    batch: Option<usize>,
) -> Result<SectionVerdict, HomeError> {
    let mut session = SectionSession::open(section.seed);
    let events = section.trace.events();
    match batch {
        Some(n) if n > 0 => {
            for chunk in events.chunks(n) {
                session.feed_batch(chunk);
            }
        }
        _ => session.feed_batch(events),
    }
    for i in &section.incidents {
        session.push_incident(i);
    }
    session.finish()
}

/// Combine per-section verdicts into one trace outcome, deduplicating
/// violations across sections (first occurrence wins; within a section the
/// canonical order is already sorted by emission key).
pub fn combine_verdicts(verdicts: Vec<SectionVerdict>) -> TraceOutcome {
    let mut out = TraceOutcome::default();
    let mut seen: BTreeMap<ViolationIdentity, ()> = BTreeMap::new();
    for verdict in verdicts {
        out.events += verdict.events;
        out.races += verdict.races;
        out.unclassified += verdict.unclassified;
        for kv in &verdict.violations {
            if seen.insert(violation_identity(&kv.violation), ()).is_none() {
                out.violations.push(kv.violation.clone());
            }
        }
        out.sections.push(verdict);
    }
    out
}

/// Analyze every section of a decoded trace and combine the verdicts.
pub fn analyze_sections(sections: &[HbtSection]) -> Result<TraceOutcome, HomeError> {
    analyze_sections_batched(sections, None)
}

/// [`analyze_sections`] with an explicit feed granularity (see
/// [`analyze_section_batched`]); `None` feeds each section as one batch.
pub fn analyze_sections_batched(
    sections: &[HbtSection],
    batch: Option<usize>,
) -> Result<TraceOutcome, HomeError> {
    let mut verdicts = Vec::with_capacity(sections.len());
    for section in sections {
        verdicts.push(analyze_section_batched(section, batch)?);
    }
    Ok(combine_verdicts(verdicts))
}

/// Analyze an HBT stream record-at-a-time without materializing it: one
/// [`SectionSession`] per recorded section, manifest-validated, bounded
/// memory (nothing is buffered but the detector's own live state).
///
/// This is the daemon's ingest loop, shared with `replay`/`analyze` on
/// piped stdin — a multi-gigabyte trace streams through the chunked
/// [`HbtReader`] instead of being read whole into memory, and the verdict
/// is byte-identical to the decoded-sections path by construction.
pub fn analyze_stream(input: impl std::io::Read) -> Result<TraceOutcome, HomeError> {
    let mut reader = HbtReader::new(input)?;
    let mut check = ManifestCheck::new();
    let mut current: Option<SectionSession> = None;
    let mut verdicts = Vec::new();
    while let Some(record) = reader.next_record()? {
        check.on_record(&record, reader.offset())?;
        match record {
            HbtRecord::Run { seed } => {
                if let Some(session) = current.take() {
                    verdicts.push(session.finish()?);
                }
                current = Some(SectionSession::open(Some(seed)));
            }
            HbtRecord::Event(e) => {
                current
                    .get_or_insert_with(|| SectionSession::open(None))
                    .feed_event(&e);
            }
            HbtRecord::Incident(i) => {
                current
                    .get_or_insert_with(|| SectionSession::open(None))
                    .push_incident(&i);
            }
            HbtRecord::Manifest { .. } | HbtRecord::Index { .. } => {}
        }
    }
    check.finish(reader.offset())?;
    if let Some(session) = current.take() {
        verdicts.push(session.finish()?);
    }
    Ok(combine_verdicts(verdicts))
}
