//! # home-dynamic — the runtime phase of HOME
//!
//! Race detection per the paper's Section IV-D: classic **Eraser
//! locksets** and **vector-clock happens-before** are maintained
//! simultaneously; the hybrid combination flags a conflicting access pair
//! only when it is both HB-concurrent *and* lockset-disjoint, which keeps
//! false positives low without requiring the race to actually manifest in
//! the observed schedule.
//!
//! There is one detector, [`StreamDetector`]. It consumes events as they
//! are recorded — live from a simulation, from a replayed HBT trace, or
//! from a socket — with bounded memory, and [`detect`] runs it over a
//! finished [`home_trace::Trace`].
//!
//! The same engine powers the ablation modes
//! ([`DetectorMode::LocksetOnly`], [`DetectorMode::HappensBeforeOnly`]) and
//! the Intel-Thread-Checker baseline's `omp critical` blindness
//! ([`DetectorConfig::ignore_locks`]).

// Fallible paths return `HomeError` instead of panicking: a structurally
// inconsistent trace must become a typed error the pipeline can attach to
// a partial report. Tests are exempt (the attribute is off under cfg(test)).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod detector;
mod races;

pub use detector::{
    default_jobs, detect, detect_stream, detect_stream_batched, DetectorConfig, DetectorMode,
    EventSink, RaceSink, StreamDetector, StreamStats,
};
pub use races::{Race, RaceAccess};
