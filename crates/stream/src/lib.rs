//! The HBT compact binary trace format.
//!
//! [`hbt`] is a varint-encoded, length-prefixed binary trace format with a
//! magic/version header and an explicit end marker, readable and writable
//! as a stream (`io::Read`/`io::Write`) or decoded straight from an
//! in-memory slice, with typed truncation/corruption errors. `home record`
//! writes it, `home replay` and `home analyze` consume it. Version 2
//! (`record --compress`) packs sections into [`lz`]-compressed frames
//! behind a writer-emitted seek index, so replay can decode frames in
//! parallel ([`scan_layout`] / [`decode_frame_records`]).
//!
//! The online detector that replays feed lives in `home_dynamic`; its names
//! are re-exported here so `home_stream::detect_stream` keeps resolving.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod hbt;
pub mod lz;

pub use hbt::{
    decode_frame_into, decode_frame_records, decode_sections, encode_trace, is_hbt, scan_layout,
    sections_from_batches, sections_from_records, FrameBatch, FrameLoc, FrameScratch, HbtLayout,
    HbtReader, HbtRecord, HbtSection, HbtSliceReader, HbtWriter, IndexEntry, ManifestCheck,
    TraceIncident, HBT_MAGIC, HBT_V2, HBT_VERSION, MAX_RECORD_LEN,
};
pub use home_dynamic::{
    detect_stream, detect_stream_batched, EventSink, Race, RaceSink, StreamDetector, StreamStats,
};
