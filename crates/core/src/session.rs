//! The per-seed engine lifecycle as a standalone, independently drivable
//! object.
//!
//! [`check_with_sink`](crate::check_with_sink) runs one
//! simulate→detect→classify chain per scheduler seed. Everything after
//! "simulate" — the incremental [`RuleEngine`], the optional online
//! [`StreamDetector`], and the live [`ViolationSink`] tee — is the same
//! machinery whether the events come from a live simulation, a replayed
//! HBT recording, or a socket. [`Session`] packages that machinery behind
//! a four-step lifecycle:
//!
//! 1. **open** — [`Session::streaming`] (events flow through the online
//!    detector, races classify the moment they are discovered) or
//!    [`Session::classifier`] (no detector; the caller supplies races it
//!    detected itself, as the schedule explorer does).
//! 2. **feed** — [`Session::feed_event`], [`Session::feed_race`],
//!    [`Session::feed_incident`], any number of times, from any thread
//!    (all methods take `&self`).
//! 3. **drain** — every violation whose evidence completes is forwarded to
//!    the [`ViolationSink`] immediately, while feeding continues.
//! 4. **finish** — [`Session::finish`] runs the end-of-run evaluation and
//!    returns the canonical [`SessionOutcome`]; call it exactly once.
//!
//! The check pipeline drives one `Session` per seed; `home serve` opens
//! one per HBT trace section arriving on a connection; `home replay` and
//! `home analyze` open one per recorded section. Their violations equal
//! those of the offline rule matcher ([`crate::match_rules`]) over the same
//! events, races and incidents; `tests/session_parity.rs` checks it.

use crate::report::EmittedViolation;
use crate::rules::{RuleEngine, RuleOutcome};
use crate::sink::ViolationSink;
use home_dynamic::{DetectorConfig, Race, RaceSink, StreamDetector, StreamStats};
use home_interp::MpiIncident;
use home_trace::{Event, HomeError, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One seed's rule engine plus the violation sink its emissions go to.
///
/// The tap sits at the junction of the online pipeline: trace events and
/// runtime incidents are fed in directly, races arrive through the
/// [`RaceSink`] callback from the streaming detector, and every emission
/// the engine produces is forwarded to the [`ViolationSink`] immediately.
/// A classifier session drives the same tap with races fed from outside,
/// so both kinds of session share one classification path.
///
/// Lock order: the engine mutex is only ever taken *inside* a tap call and
/// released before the call returns, while the detector's shard lock is
/// held *across* the `RaceSink` callback — the tap never calls back into
/// the detector, so the two locks nest in one fixed order (shard → engine)
/// and cannot deadlock.
struct EngineTap {
    engine: Mutex<RuleEngine>,
    out: Arc<dyn ViolationSink>,
}

impl EngineTap {
    fn new(seed: u64, out: Arc<dyn ViolationSink>) -> EngineTap {
        EngineTap {
            engine: Mutex::new(RuleEngine::for_seed(seed)),
            out,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RuleEngine> {
        self.engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn observe_event(&self, e: &Event) {
        let fresh = self.lock().observe_event(e);
        self.forward(&fresh);
    }

    /// Observe a batch of events with one lock acquisition — or none at
    /// all when every event in the batch is inert (the common case for
    /// monitored access/sync streams).
    fn observe_batch(&self, events: &[Event]) {
        if events.iter().all(RuleEngine::event_is_inert) {
            return;
        }
        let fresh = self.lock().observe_batch(events);
        self.forward(&fresh);
    }

    fn observe_incident(&self, incident: &MpiIncident) {
        let fresh = self.lock().observe_incident(incident);
        self.forward(&fresh);
    }

    /// End-of-run: run the end-of-run rule evaluation, forward whatever
    /// was not already emitted live, and return the canonical outcome.
    fn finish(&self) -> RuleOutcome {
        let fin = self.lock().finish();
        self.forward(&fin.remaining);
        fin.outcome
    }

    fn forward(&self, emissions: &[EmittedViolation]) {
        for v in emissions {
            self.out.violation(v);
        }
    }
}

impl RaceSink for EngineTap {
    fn on_race(&self, race: &Race) {
        let fresh = self.lock().observe_race(race);
        self.forward(&fresh);
    }
}

/// Everything one finished session produced.
#[derive(Debug, Clone, Default)]
pub struct SessionOutcome {
    /// The seed the session was opened with (provenance, not behavior).
    pub seed: u64,
    /// Events fed through [`Session::feed_event`].
    pub events: u64,
    /// Races: the online detector's result list for streaming sessions
    /// (ascending rank order); empty for classifier sessions, whose races
    /// the caller already holds.
    pub races: Vec<Race>,
    /// Classified violations in canonical rule order, deduplicated within
    /// the run — identical to [`crate::match_rules`]' list.
    pub violations: Vec<crate::report::Violation>,
    /// Monitored races the rules could not classify (missing MPI call
    /// metadata on one side).
    pub unclassified: Vec<Race>,
    /// Detector statistics, for streaming sessions.
    pub stream_stats: Option<StreamStats>,
}

/// A reusable per-run detection + classification engine: open it, feed it
/// evidence, let it drain violations into a sink, finish it. See the
/// module docs for the lifecycle.
pub struct Session {
    seed: u64,
    tap: Arc<EngineTap>,
    detector: Option<StreamDetector>,
    events: AtomicU64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("seed", &self.seed)
            .field("streaming", &self.detector.is_some())
            .field("events", &self.events.load(Ordering::Relaxed))
            .finish()
    }
}

impl Session {
    /// Open a streaming session: events are classified *and* race-detected
    /// online. Races discovered by the detector re-enter the rule engine
    /// through its race callback, so violations whose evidence is a race
    /// also fire mid-run.
    pub fn streaming(seed: u64, detector: DetectorConfig, sink: Arc<dyn ViolationSink>) -> Session {
        let tap = Arc::new(EngineTap::new(seed, sink));
        let race_tap = Arc::clone(&tap) as Arc<dyn RaceSink>;
        Session {
            seed,
            tap,
            detector: Some(StreamDetector::with_race_sink(detector, race_tap)),
            events: AtomicU64::new(0),
        }
    }

    /// Open a classifier session: no online detector. The caller runs race
    /// detection itself (e.g. [`home_dynamic::detect`] over a finished
    /// trace) and feeds the results in via [`Session::feed_race`].
    pub fn classifier(seed: u64, sink: Arc<dyn ViolationSink>) -> Session {
        Session {
            seed,
            tap: Arc::new(EngineTap::new(seed, sink)),
            detector: None,
            events: AtomicU64::new(0),
        }
    }

    /// The seed this session stamps onto emissions.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Events fed so far.
    pub fn events_fed(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Feed one event: the rule engine observes it first (and releases its
    /// lock), then the online detector consumes it — the detector's race
    /// callback re-enters the engine, so this order is load-bearing.
    pub fn feed_event(&self, e: &Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.tap.observe_event(e);
        if let Some(detector) = &self.detector {
            detector.consume(e);
        }
    }

    /// Feed a batch of events through the amortized path: the rule engine
    /// observes the whole batch under one lock (or none, when every event
    /// is inert), then the detector consumes it with per-rank-run shard
    /// resolution. Byte-identical to feeding each event individually —
    /// the engine-before-detector order of [`Session::feed_event`] holds
    /// batch-wise, and every rule emission key is position-derived, so
    /// moving engine observations ahead of detector callbacks within a
    /// batch changes no emitted bytes.
    pub fn feed_batch(&self, events: &[Event]) {
        if events.is_empty() {
            return;
        }
        self.events
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        self.tap.observe_batch(events);
        if let Some(detector) = &self.detector {
            detector.consume_batch(events);
        }
    }

    /// Feed one externally detected race (classifier sessions; a streaming
    /// session's races arrive through its own detector instead).
    pub fn feed_race(&self, race: &Race) {
        self.tap.on_race(race);
    }

    /// Feed one runtime MPI incident.
    pub fn feed_incident(&self, incident: &MpiIncident) {
        self.tap.observe_incident(incident);
    }

    /// Finalize: drain the detector (streaming sessions), run the
    /// end-of-run rule evaluation, forward the remaining emissions, and
    /// return the canonical outcome. Call exactly once; a structural error
    /// stashed by the detector surfaces here as a typed [`HomeError`].
    pub fn finish(&self) -> Result<SessionOutcome, HomeError> {
        let (races, stream_stats) = match &self.detector {
            Some(detector) => {
                let (races, stats) = detector.finish()?;
                (races, Some(stats))
            }
            None => (Vec::new(), None),
        };
        let outcome = self.tap.finish();
        Ok(SessionOutcome {
            seed: self.seed,
            events: self.events.load(Ordering::Relaxed),
            races,
            violations: outcome.violations,
            unclassified: outcome.unclassified,
            stream_stats,
        })
    }
}

/// A streaming session plugs directly into `interp::run_with_sink`: every
/// simulator event is fed the moment it is recorded.
impl TraceSink for Session {
    fn record(&self, event: Event) {
        self.feed_event(&event);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::sink::{NullViolationSink, ViolationCollector};
    use crate::ViolationKind;
    use home_interp::{run, RunConfig};
    use home_ir::parse;

    fn collective_program() -> home_ir::Program {
        parse(
            r#"
            program sess {
                mpi_init_thread(multiple);
                omp parallel num_threads(2) { mpi_barrier(); }
                mpi_finalize();
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn streaming_session_matches_offline_classification() {
        let program = collective_program();
        let cfg = RunConfig::test(2, 1);
        let result = run(&program, &cfg);

        // Streaming session fed event-at-a-time.
        let session = Session::streaming(
            1,
            home_dynamic::DetectorConfig::hybrid(),
            Arc::new(NullViolationSink),
        );
        for e in result.trace.events() {
            session.feed_event(e);
        }
        for i in &result.mpi_errors {
            session.feed_incident(i);
        }
        let streamed = session.finish().unwrap();

        // Offline reference: detect over the whole trace, then classify.
        let races =
            home_dynamic::detect(&result.trace, &home_dynamic::DetectorConfig::hybrid()).unwrap();
        let outcome = crate::rules::match_rules(&result.trace, &races, &result.mpi_errors);

        assert_eq!(streamed.violations, outcome.violations);
        assert_eq!(
            format!("{:?}", streamed.races),
            format!("{:?}", races),
            "race lists must match"
        );
        assert_eq!(streamed.events, result.trace.events().len() as u64);
        assert!(streamed
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::CollectiveCall));
    }

    #[test]
    fn classifier_session_accepts_external_races() {
        let program = collective_program();
        let cfg = RunConfig::test(2, 1);
        let result = run(&program, &cfg);
        let races =
            home_dynamic::detect(&result.trace, &home_dynamic::DetectorConfig::hybrid()).unwrap();

        let collector = Arc::new(ViolationCollector::new());
        let session = Session::classifier(7, collector.clone());
        for e in result.trace.events() {
            session.feed_event(e);
        }
        for race in &races {
            session.feed_race(race);
        }
        for i in &result.mpi_errors {
            session.feed_incident(i);
        }
        let out = session.finish().unwrap();
        assert!(out.races.is_empty(), "classifier sessions own no detector");
        assert!(out.stream_stats.is_none());

        // Every canonical violation was also delivered to the sink, with
        // the session's seed stamped on.
        let emitted = collector.emissions();
        for v in &out.violations {
            assert!(
                emitted.iter().any(|e| &e.violation == v && e.seed == 7),
                "missing emission for {v}"
            );
        }
    }
}
