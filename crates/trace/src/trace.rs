//! A finished trace and query helpers.

use crate::error::HomeError;
use crate::event::{Event, EventKind, MonitoredVar};
use crate::ids::Rank;
use serde::{Deserialize, Error, Serialize, Value};
use std::sync::OnceLock;

/// An immutable, sequence-ordered recording of one run.
///
/// Every constructor sorts the events by `seq`, including deserialization,
/// so a reordered JSON document yields the same trace as the original.
///
/// The rank list is computed lazily on first use and cached: traces are
/// immutable after construction, so the sort+dedup pass behind
/// [`Trace::ranks`] happens once per trace, not once per call.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
    ranks: OnceLock<Vec<Rank>>,
}

// Hand-written (de)serialization: the cache field is derived state and must
// stay out of the wire format, so the JSON shape is exactly what
// `#[derive]` produced before the cache existed: `{"events": [...]}`.
impl Serialize for Trace {
    fn serialize(&self) -> Value {
        Value::Object(vec![("events".to_string(), self.events.serialize())])
    }
}

impl Deserialize for Trace {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let object = value
            .as_object()
            .ok_or_else(|| Error::expected("object", "Trace", value))?;
        let events: Vec<Event> = serde::field(object, "events", "Trace")?;
        Ok(Trace::from_events(events))
    }
}

impl Trace {
    /// Build from events (will be sorted by sequence number).
    pub fn from_events(mut events: Vec<Event>) -> Self {
        events.sort_by_key(|e| e.seq);
        Trace {
            events,
            ranks: OnceLock::new(),
        }
    }

    /// All events, in observation order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ranks that appear in the trace, ascending and deduplicated.
    /// Computed once and cached (the trace is immutable).
    pub fn ranks(&self) -> &[Rank] {
        self.ranks.get_or_init(|| {
            let mut rs: Vec<Rank> = self.events.iter().map(|e| e.rank).collect();
            rs.sort_unstable();
            rs.dedup();
            rs
        })
    }

    /// Events of one rank, in observation order.
    pub fn by_rank(&self, rank: Rank) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.rank == rank)
    }

    /// All monitored-variable writes (the HOME wrappers' output).
    pub fn monitored_writes(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::MonitoredWrite { .. }))
    }

    /// Monitored writes touching one specific variable.
    pub fn monitored_writes_of(&self, var: MonitoredVar) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(
            move |e| matches!(&e.kind, EventKind::MonitoredWrite { var: v, .. } if *v == var),
        )
    }

    /// All MPI call-entry events.
    pub fn mpi_calls(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| {
            matches!(
                e.kind,
                EventKind::MpiCall { .. } | EventKind::MpiInit { .. }
            )
        })
    }

    /// Serialize to pretty JSON (for EXPERIMENTS.md artifacts and debugging).
    pub fn to_json(&self) -> String {
        match serde_json::to_string_pretty(self) {
            Ok(json) => json,
            // Every Trace field serializes infallibly (no non-string map
            // keys, no custom Serialize impls that can error).
            Err(_) => unreachable!("trace serialization cannot fail"),
        }
    }

    /// Parse a trace back from JSON. Malformed or truncated input yields a
    /// typed [`HomeError::TraceParse`] carrying the byte offset when the
    /// parser knows it — never a panic.
    pub fn from_json(s: &str) -> Result<Trace, HomeError> {
        serde_json::from_str(s).map_err(|e| HomeError::trace_parse(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, MemLoc, MpiCallKind, MpiCallRecord};
    use crate::ids::{Tid, VarId};

    fn ev(seq: u64, rank: u32, kind: EventKind) -> Event {
        Event {
            seq,
            rank: Rank(rank),
            tid: Tid(0),
            region: None,
            time_ns: 0,
            loc: None,
            kind,
        }
    }

    fn sample() -> Trace {
        Trace::from_events(vec![
            ev(
                2,
                1,
                EventKind::MonitoredWrite {
                    var: MonitoredVar::Tag,
                    call: MpiCallRecord::of_kind(MpiCallKind::Recv),
                },
            ),
            ev(
                0,
                0,
                EventKind::Access {
                    loc: MemLoc::Var(VarId(0)),
                    kind: AccessKind::Read,
                },
            ),
            ev(
                1,
                0,
                EventKind::MpiCall {
                    call: MpiCallRecord::of_kind(MpiCallKind::Send),
                },
            ),
        ])
    }

    #[test]
    fn events_sorted_by_seq() {
        let t = sample();
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn rank_queries() {
        let t = sample();
        assert_eq!(t.ranks(), vec![Rank(0), Rank(1)]);
        assert_eq!(t.by_rank(Rank(0)).count(), 2);
        assert_eq!(t.by_rank(Rank(1)).count(), 1);
    }

    #[test]
    fn kind_queries() {
        let t = sample();
        assert_eq!(t.monitored_writes().count(), 1);
        assert_eq!(t.monitored_writes_of(MonitoredVar::Tag).count(), 1);
        assert_eq!(t.monitored_writes_of(MonitoredVar::Src).count(), 0);
        assert_eq!(t.mpi_calls().count(), 1);
    }

    #[test]
    fn truncated_json_is_a_typed_parse_error() {
        let t = sample();
        let json = t.to_json();
        let truncated = &json[..json.len() / 2];
        let err = Trace::from_json(truncated).unwrap_err();
        assert_eq!(err.category(), "trace-parse");
        assert!(err.byte_offset().is_some(), "{err}");
    }

    #[test]
    fn json_roundtrip() {
        let t = sample();
        let json = t.to_json();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.events()[2], t.events()[2]);
    }

    #[test]
    fn deserialized_events_are_sorted_by_seq() {
        let t = sample();
        let mut reversed = t.events().to_vec();
        reversed.reverse();
        let json = serde_json::to_string(&serde::Value::Object(vec![(
            "events".to_string(),
            reversed.serialize(),
        )]))
        .unwrap();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(back.events(), t.events());
    }
}
