//! Adversarial HBT corpus: every byte of an HBT stream is untrusted, so
//! every reader must return a typed error (with a byte offset) or the
//! identical report — never panic, never allocate unbounded memory.
//!
//! Three families of hostile input:
//!
//! * seeded random byte mutations of a real recorded trace, checked for
//!   streaming-reader vs slice-reader parity (same records or the same
//!   error string);
//! * crafted records — giant varint lengths, lying lengths, varint
//!   overflow, oversized manifest counts — against all three readers;
//! * section-boundary attacks — truncation at a `RUN` boundary with a
//!   forged end marker, spliced manifests from a different recording,
//!   records appended after the manifest — caught by the manifest check.

use home::prelude::*;
use home::stream::{
    decode_sections, scan_layout, HbtReader, HbtRecord, HbtSliceReader, HbtWriter, IndexEntry,
    ManifestCheck, HBT_MAGIC, HBT_V2, HBT_VERSION, MAX_RECORD_LEN,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::Cursor;
use std::sync::Arc;

const FIGURE2: &str = "programs/figure2.hmp";

/// Record `program` under `seeds` exactly like `home record`: one `RUN`
/// record per seed, the instrumented events, then the run's incidents.
fn record_bytes(path: &str, seeds: &[u64]) -> Vec<u8> {
    record_into(
        HbtWriter::new(Vec::new()).expect("header write"),
        path,
        seeds,
    )
}

/// Same recording through the v2 path (`home record --compress`):
/// LZ-compressed frames plus the trailing seek index.
fn record_bytes_v2(path: &str, seeds: &[u64]) -> Vec<u8> {
    record_into(
        HbtWriter::new_compressed(Vec::new()).expect("header write"),
        path,
        seeds,
    )
}

fn record_into(mut writer: HbtWriter<Vec<u8>>, path: &str, seeds: &[u64]) -> Vec<u8> {
    let source = std::fs::read_to_string(path).expect("test program exists");
    let program = parse(&source).expect("test program parses");
    let checklist = Arc::new(analyze(&program).checklist.clone());
    for &seed in seeds {
        writer.begin_run(seed).expect("run record");
        let mut cfg = RunConfig::test(2, seed)
            .with_instrumentation(Instrumentation::home())
            .with_checklist(Arc::clone(&checklist));
        cfg.threads_per_proc = 2;
        cfg.sched.policy = SchedPolicy::Random;
        let result = run(&program, &cfg);
        for e in result.trace.events() {
            writer.write_event(e).expect("event record");
        }
        for i in &result.mpi_errors {
            writer
                .write_incident(&home::stream::TraceIncident {
                    rank: i.rank,
                    line: i.line,
                    call: i.call.clone(),
                    error: i.error.clone(),
                })
                .expect("incident record");
        }
    }
    writer.finish().expect("trailer write")
}

fn header() -> Vec<u8> {
    let mut out = HBT_MAGIC.to_vec();
    out.push(HBT_VERSION);
    out
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Drain the streaming reader, running the manifest check like
/// `decode_sections` does. Ok(records) or the first error's message.
fn stream_read(bytes: &[u8]) -> Result<Vec<HbtRecord>, String> {
    let mut reader = HbtReader::new(Cursor::new(bytes)).map_err(|e| e.to_string())?;
    let mut check = ManifestCheck::new();
    let mut records = Vec::new();
    loop {
        match reader.next_record() {
            Ok(Some(record)) => {
                check
                    .on_record(&record, reader.offset())
                    .map_err(|e| e.to_string())?;
                records.push(record);
            }
            Ok(None) => break,
            Err(e) => return Err(e.to_string()),
        }
    }
    check.finish(reader.offset()).map_err(|e| e.to_string())?;
    Ok(records)
}

/// Same drive over the zero-copy slice reader.
fn slice_read(bytes: &[u8]) -> Result<Vec<HbtRecord>, String> {
    let mut reader = HbtSliceReader::new(bytes).map_err(|e| e.to_string())?;
    let mut check = ManifestCheck::new();
    let mut records = Vec::new();
    loop {
        match reader.next_record() {
            Ok(Some(record)) => {
                check
                    .on_record(&record, reader.offset())
                    .map_err(|e| e.to_string())?;
                records.push(record);
            }
            Ok(None) => break,
            Err(e) => return Err(e.to_string()),
        }
    }
    check.finish(reader.offset()).map_err(|e| e.to_string())?;
    Ok(records)
}

/// Byte offsets at which each record of a well-formed stream begins,
/// plus each record. Walked with the streaming reader.
fn record_starts(bytes: &[u8]) -> Vec<(u64, HbtRecord)> {
    let mut reader = HbtReader::new(Cursor::new(bytes)).expect("valid header");
    let mut out = Vec::new();
    loop {
        let start = reader.offset();
        match reader.next_record().expect("valid record") {
            Some(record) => out.push((start, record)),
            None => break,
        }
    }
    out
}

#[test]
fn random_byte_mutations_never_panic_and_readers_agree() {
    let base = record_bytes(FIGURE2, &[1, 2]);
    assert!(base.len() > 64, "recording is non-trivial");
    for case in 0u64..200 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xADE5_0000 + case);
        let mut bytes = base.clone();
        if rng.gen_bool(0.25) {
            // Truncate somewhere (including inside the header).
            let cut = rng.gen_range(0u64..bytes.len() as u64) as usize;
            bytes.truncate(cut);
        } else {
            let flips = 1 + rng.gen_range(0u64..4) as usize;
            for _ in 0..flips {
                let at = rng.gen_range(0u64..bytes.len() as u64) as usize;
                bytes[at] = rng.gen_range(0u64..256) as u8;
            }
        }

        let streamed = stream_read(&bytes);
        let sliced = slice_read(&bytes);
        assert_eq!(
            streamed, sliced,
            "case {case}: streaming and slice readers disagree"
        );
        if let Err(msg) = &streamed {
            assert!(
                msg.contains("byte"),
                "case {case}: error lacks a byte offset: {msg}"
            );
        }

        // The full decode + analyze path must never panic either: a typed
        // error or a verdict, nothing else.
        let outcome = std::panic::catch_unwind(|| {
            decode_sections(&bytes).and_then(|s| home::serve::analyze_sections(&s))
        });
        assert!(outcome.is_ok(), "case {case}: decode/analyze panicked");
    }
}

#[test]
fn giant_record_length_is_a_typed_error_on_every_reader() {
    let mut bytes = header();
    put_varint(&mut bytes, MAX_RECORD_LEN + 1);

    for result in [stream_read(&bytes), slice_read(&bytes)] {
        let msg = result.expect_err("oversized length must be rejected");
        assert!(
            msg.contains("exceeds limit") && msg.contains("byte"),
            "unexpected error: {msg}"
        );
    }
    let msg = decode_sections(&bytes)
        .expect_err("decode_sections must reject it")
        .to_string();
    assert!(msg.contains("exceeds limit"), "unexpected error: {msg}");
}

#[test]
fn lying_record_length_truncates_without_oom() {
    // The record claims ~256 MiB but only 64 bytes follow. The streaming
    // reader must report truncation after at most one bounded chunk — not
    // allocate the full claimed length up front.
    let mut bytes = header();
    put_varint(&mut bytes, MAX_RECORD_LEN - 1);
    bytes.extend_from_slice(&[2u8; 64]);

    for result in [stream_read(&bytes), slice_read(&bytes)] {
        let msg = result.expect_err("lying length must truncate");
        assert!(
            msg.contains("truncated") && msg.contains("byte"),
            "unexpected error: {msg}"
        );
    }
}

#[test]
fn varint_overflow_is_a_typed_error() {
    let mut bytes = header();
    bytes.extend_from_slice(&[0xFF; 10]);
    for result in [stream_read(&bytes), slice_read(&bytes)] {
        let msg = result.expect_err("varint overflow must be rejected");
        assert!(
            msg.contains("varint") && msg.contains("byte"),
            "unexpected error: {msg}"
        );
    }
}

#[test]
fn giant_manifest_count_is_bounded_by_record_size() {
    // A manifest record whose declared section count dwarfs its payload
    // must be rejected before any allocation sized from it.
    let mut payload = vec![4u8]; // REC_MANIFEST
    put_varint(&mut payload, u64::MAX >> 2);
    let mut bytes = header();
    put_varint(&mut bytes, payload.len() as u64);
    bytes.extend_from_slice(&payload);
    bytes.push(0);

    for result in [stream_read(&bytes), slice_read(&bytes)] {
        let msg = result.expect_err("oversized manifest count must be rejected");
        assert!(
            msg.contains("manifest section count") && msg.contains("exceeds record size"),
            "unexpected error: {msg}"
        );
    }
}

#[test]
fn truncation_at_a_section_boundary_is_detected() {
    // Cut a two-run recording right where the second RUN record begins and
    // forge a clean end marker. Without the manifest this parsed as a
    // one-run trace; the manifest check must now reject it.
    let base = record_bytes(FIGURE2, &[1, 2]);
    let starts = record_starts(&base);
    let second_run = starts
        .iter()
        .filter(|(_, r)| matches!(r, HbtRecord::Run { .. }))
        .nth(1)
        .map(|(at, _)| *at)
        .expect("two RUN records");

    let mut forged = base[..second_run as usize].to_vec();
    forged.push(0); // forged end marker
    for result in [stream_read(&forged), slice_read(&forged)] {
        let msg = result.expect_err("boundary truncation must be rejected");
        assert!(
            msg.contains("ends without a section manifest"),
            "unexpected error: {msg}"
        );
    }
    let msg = decode_sections(&forged)
        .expect_err("decode_sections must reject it")
        .to_string();
    assert!(msg.contains("ends without a section manifest"));
}

#[test]
fn spliced_manifest_with_wrong_section_count_is_detected() {
    // Body of a one-run recording + manifest of a two-run recording.
    let one = record_bytes(FIGURE2, &[1]);
    let two = record_bytes(FIGURE2, &[1, 2]);
    let manifest_at = |bytes: &[u8]| {
        record_starts(bytes)
            .iter()
            .find(|(_, r)| matches!(r, HbtRecord::Manifest { .. }))
            .map(|(at, _)| *at)
            .expect("recording ends with a manifest") as usize
    };
    let mut spliced = one[..manifest_at(&one)].to_vec();
    spliced.extend_from_slice(&two[manifest_at(&two)..]);

    for result in [stream_read(&spliced), slice_read(&spliced)] {
        let msg = result.expect_err("section-count mismatch must be rejected");
        assert!(
            msg.contains("declares 2 section(s)") && msg.contains("contains 1"),
            "unexpected error: {msg}"
        );
    }
}

#[test]
fn spliced_manifest_with_wrong_seed_is_detected() {
    // Same section count, different seed list: run seed 2's body under a
    // manifest recorded for seed 9.
    let real = record_bytes(FIGURE2, &[2]);
    let decoy = record_bytes(FIGURE2, &[9]);
    let manifest_at = |bytes: &[u8]| {
        record_starts(bytes)
            .iter()
            .find(|(_, r)| matches!(r, HbtRecord::Manifest { .. }))
            .map(|(at, _)| *at)
            .expect("recording ends with a manifest") as usize
    };
    let mut spliced = real[..manifest_at(&real)].to_vec();
    spliced.extend_from_slice(&decoy[manifest_at(&decoy)..]);

    for result in [stream_read(&spliced), slice_read(&spliced)] {
        let msg = result.expect_err("seed mismatch must be rejected");
        assert!(
            msg.contains("seed list disagrees"),
            "unexpected error: {msg}"
        );
    }
}

#[test]
fn records_after_the_manifest_are_rejected() {
    // Append a copy of the first event record after the manifest and
    // re-terminate: the manifest must be the final record.
    let base = record_bytes(FIGURE2, &[1]);
    let starts = record_starts(&base);
    let (event_start, _) = starts
        .iter()
        .find(|(_, r)| matches!(r, HbtRecord::Event(_)))
        .expect("recording has events");
    let event_end = starts
        .iter()
        .map(|(at, _)| *at)
        .chain(std::iter::once(base.len() as u64 - 1))
        .find(|&at| at > *event_start)
        .expect("next record start");

    let mut forged = base[..base.len() - 1].to_vec(); // drop end marker
    forged.extend_from_slice(&base[*event_start as usize..event_end as usize]);
    forged.push(0);

    for result in [stream_read(&forged), slice_read(&forged)] {
        let msg = result.expect_err("record after manifest must be rejected");
        assert!(
            msg.contains("record after the section manifest"),
            "unexpected error: {msg}"
        );
    }
}

#[test]
fn mutated_traces_share_one_verdict_across_offline_readers() {
    // For every mutation, the slice path (`decode_sections`, what `replay`
    // runs on a file) and the chunked `io::Read` path (`analyze_stream`,
    // what it runs on a pipe) must agree: the same verdict, or both a
    // typed error.
    let base = record_bytes(FIGURE2, &[3, 4]);
    for case in 0u64..40 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x9A17_0000 + case);
        let mut bytes = base.clone();
        let at = rng.gen_range(0u64..bytes.len() as u64) as usize;
        bytes[at] = rng.gen_range(0u64..256) as u8;

        let from_slice = decode_sections(&bytes).and_then(|s| home::serve::analyze_sections(&s));
        let from_stream = home::serve::analyze_stream(Cursor::new(&bytes));
        match (from_slice, from_stream) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "case {case}: verdicts differ"
                );
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "case {case}: readers disagree on validity: slice={:?} stream={:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// v2 family: compressed frames and the seek index are attacker-controlled too
// ---------------------------------------------------------------------------

/// Physical records of a well-formed stream: (record start, kind byte,
/// payload range). Unlike [`record_starts`] this walks the raw framing, so
/// v2 `FRAME`/`INDEX` records appear as themselves rather than as the
/// logical records they inflate into.
fn physical_records(bytes: &[u8]) -> Vec<(usize, u8, std::ops::Range<usize>)> {
    let mut pos = 5; // magic + version
    let mut out = Vec::new();
    loop {
        let start = pos;
        let mut len: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = bytes[pos];
            pos += 1;
            len |= u64::from(b & 0x7f) << shift;
            shift += 7;
            if b & 0x80 == 0 {
                break;
            }
        }
        if len == 0 {
            return out;
        }
        let payload = pos..pos + len as usize;
        out.push((start, bytes[payload.start], payload.clone()));
        pos = payload.end;
    }
}

/// Encode a seek-index record (length prefix + payload) from entries, the
/// writer's wire format re-implemented so tests can forge variants.
fn encode_index_record(entries: &[IndexEntry]) -> Vec<u8> {
    const REC_INDEX: u8 = 6;
    const FRAME_HAS_SEED: u8 = 1;
    const FRAME_CONTINUATION: u8 = 4;
    let mut payload = vec![REC_INDEX];
    put_varint(&mut payload, entries.len() as u64);
    for e in entries {
        let mut flags = 0u8;
        if e.seed.is_some() {
            flags |= FRAME_HAS_SEED;
        }
        if e.continuation {
            flags |= FRAME_CONTINUATION;
        }
        payload.push(flags);
        if let Some(s) = e.seed {
            put_varint(&mut payload, s);
        }
        put_varint(&mut payload, e.offset);
        put_varint(&mut payload, e.events);
        put_varint(&mut payload, e.incidents);
        put_varint(&mut payload, e.raw_len);
    }
    let mut record = Vec::with_capacity(payload.len() + 2);
    put_varint(&mut record, payload.len() as u64);
    record.extend_from_slice(&payload);
    record
}

/// Splice a forged seek index into a real v2 recording, keeping the
/// manifest and end marker that follow the genuine index.
fn with_forged_index(base: &[u8], entries: &[IndexEntry]) -> Vec<u8> {
    let records = physical_records(base);
    let (index_start, _, _) = *records
        .iter()
        .find(|(_, kind, _)| *kind == 6)
        .expect("v2 recording carries a seek index");
    let (tail_start, _, _) = *records
        .iter()
        .find(|(start, _, _)| *start > index_start)
        .expect("manifest follows the index");
    let mut forged = base[..index_start].to_vec();
    forged.extend_from_slice(&encode_index_record(entries));
    forged.extend_from_slice(&base[tail_start..]);
    forged
}

/// Seek-index entries of a v2 recording, via the validated layout scan.
fn index_entries(bytes: &[u8]) -> Vec<IndexEntry> {
    scan_layout(bytes)
        .expect("recording is well-formed")
        .expect("recording is v2 with frames")
        .frames
        .iter()
        .map(|f| f.entry)
        .collect()
}

#[test]
fn v2_random_mutations_never_panic_and_readers_agree() {
    let base = record_bytes_v2(FIGURE2, &[1, 2]);
    assert!(base.len() > 64, "v2 recording is non-trivial");
    for case in 0u64..200 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB2AD_0000 + case);
        let mut bytes = base.clone();
        if rng.gen_bool(0.25) {
            let cut = rng.gen_range(0u64..bytes.len() as u64) as usize;
            bytes.truncate(cut);
        } else {
            let flips = 1 + rng.gen_range(0u64..4) as usize;
            for _ in 0..flips {
                let at = rng.gen_range(0u64..bytes.len() as u64) as usize;
                bytes[at] = rng.gen_range(0u64..256) as u8;
            }
        }

        let streamed = stream_read(&bytes);
        let sliced = slice_read(&bytes);
        assert_eq!(
            streamed, sliced,
            "case {case}: streaming and slice readers disagree on a v2 mutation"
        );
        if let Err(msg) = &streamed {
            assert!(
                msg.contains("byte"),
                "case {case}: error lacks a byte offset: {msg}"
            );
        }

        // The frame-parallel decoder must reach the same conclusion as the
        // serial one — same sections, or a typed error on both sides.
        let outcome = std::panic::catch_unwind(|| {
            let serial = decode_sections(&bytes);
            let parallel = home::core::decode_trace(&bytes, 4);
            match (serial, parallel) {
                (Ok(a), Ok(b)) => assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "case {case}: parallel decode diverges from serial"
                ),
                (Err(a), Err(b)) => {
                    for msg in [a.to_string(), b.to_string()] {
                        assert!(
                            msg.contains("byte"),
                            "case {case}: error lacks a byte offset: {msg}"
                        );
                    }
                }
                (a, b) => panic!(
                    "case {case}: decoders disagree on validity: serial={:?} parallel={:?}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        });
        assert!(outcome.is_ok(), "case {case}: v2 decode panicked");
    }
}

#[test]
fn v2_truncation_at_many_byte_positions_is_typed() {
    let base = record_bytes_v2(FIGURE2, &[1]);
    // Every cut in the header and trailer neighborhoods, strided through
    // the frame bodies (each body byte behaves like its neighbors).
    let cuts: Vec<usize> = (0..base.len().min(64))
        .chain((64..base.len()).step_by(13))
        .chain(base.len().saturating_sub(200)..base.len())
        .collect();
    for cut in cuts {
        let bytes = &base[..cut];
        let streamed = stream_read(bytes);
        let sliced = slice_read(bytes);
        assert_eq!(streamed, sliced, "cut {cut}: readers disagree");
        let msg = streamed.expect_err("every truncation must be an error");
        assert!(msg.contains("byte"), "cut {cut}: no byte offset: {msg}");
        let parallel = home::core::decode_trace(bytes, 4)
            .map(|s| s.len())
            .map_err(|e| e.to_string());
        assert!(parallel.is_err(), "cut {cut}: parallel decoder accepted it");
    }
}

#[test]
fn v2_forged_index_offset_is_rejected() {
    let base = record_bytes_v2(FIGURE2, &[1, 2]);
    let mut entries = index_entries(&base);
    assert!(entries.len() >= 2, "two seeds record at least two frames");
    entries[1].offset += 1;
    let forged = with_forged_index(&base, &entries);

    for result in [stream_read(&forged), slice_read(&forged)] {
        let msg = result.expect_err("lying index offset must be rejected");
        assert!(
            msg.contains("disagrees with the stream") && msg.contains("byte"),
            "unexpected error: {msg}"
        );
    }
    let msg = home::core::decode_trace(&forged, 4)
        .expect_err("parallel decode must reject a lying offset before decompressing")
        .to_string();
    assert!(
        msg.contains("disagrees with the stream") && msg.contains("byte"),
        "unexpected error: {msg}"
    );
}

#[test]
fn v2_forged_index_count_and_counters_are_rejected() {
    let base = record_bytes_v2(FIGURE2, &[1, 2]);
    let entries = index_entries(&base);

    // Dropped entry: the index under-declares the frame population.
    let dropped = with_forged_index(&base, &entries[..entries.len() - 1]);
    // Inflated event counter: per-frame accounting must match.
    let mut inflated = entries.clone();
    inflated[0].events += 1;
    let inflated = with_forged_index(&base, &inflated);

    for (what, forged, needle) in [
        ("dropped entry", dropped, "seek index declares"),
        ("inflated events", inflated, "disagrees with the stream"),
    ] {
        for result in [stream_read(&forged), slice_read(&forged)] {
            match result {
                Ok(_) => panic!("{what}: forged index must be rejected"),
                Err(msg) => assert!(
                    msg.contains(needle) && msg.contains("byte"),
                    "{what}: unexpected error: {msg}"
                ),
            }
        }
    }
}

#[test]
fn v2_frame_raw_len_lie_is_rejected() {
    // Hand-built v2 stream: one uncompressed frame whose header declares
    // more raw bytes than it stores.
    let mut payload = vec![5u8, 1u8]; // REC_FRAME, flags = HAS_SEED
    put_varint(&mut payload, 7); // seed
    put_varint(&mut payload, 0); // events
    put_varint(&mut payload, 0); // incidents
    put_varint(&mut payload, 99); // raw_len lie: nothing follows
    let mut bytes = HBT_MAGIC.to_vec();
    bytes.push(HBT_V2);
    put_varint(&mut bytes, payload.len() as u64);
    bytes.extend_from_slice(&payload);
    bytes.push(0);

    for result in [stream_read(&bytes), slice_read(&bytes)] {
        let msg = result.expect_err("raw-length lie must be rejected");
        assert!(
            msg.contains("declares 99 uncompressed byte(s) but stores 0") && msg.contains("byte"),
            "unexpected error: {msg}"
        );
    }
}

/// Hand-built v2 stream: one empty *anonymous* frame (no seed flag), a
/// matching one-entry seek index, and a manifest declaring `declared`
/// sections — each declared section anonymous. The frame walk counts the
/// frame as a section while record inflation produces none, so no declared
/// count can satisfy both; what matters is that the contradiction is a
/// typed error at every fan-out width, never an accept-at-one-width skew.
fn empty_anonymous_frame_stream(declared: u64) -> Vec<u8> {
    let mut bytes = HBT_MAGIC.to_vec();
    bytes.push(HBT_V2);
    // frame: kind 5, flags 0 (anonymous), events 0, incidents 0, raw_len 0
    let frame = [5u8, 0, 0, 0, 0];
    put_varint(&mut bytes, frame.len() as u64);
    bytes.extend_from_slice(&frame);
    bytes.extend_from_slice(&encode_index_record(&[IndexEntry {
        offset: 5,
        seed: None,
        continuation: false,
        events: 0,
        incidents: 0,
        raw_len: 0,
    }]));
    let mut manifest = vec![4u8]; // REC_MANIFEST
    put_varint(&mut manifest, declared);
    // one flag byte per declared section: 0 = anonymous, no seed
    manifest.extend(std::iter::repeat_n(0u8, declared as usize));
    put_varint(&mut bytes, manifest.len() as u64);
    bytes.extend_from_slice(&manifest);
    bytes.push(0);
    bytes
}

/// `decode_trace` verdict (sections or error string) at one width.
fn decode_at(bytes: &[u8], jobs: usize) -> Result<String, String> {
    home::core::decode_trace(bytes, jobs)
        .map(|s| format!("{s:?}"))
        .map_err(|e| e.to_string())
}

#[test]
fn v2_empty_anonymous_frame_under_empty_manifest_is_jobs_invariant() {
    // The frame walk sees one (anonymous) section, the manifest declares
    // zero: rejected with the same byte-anchored diagnostic at every width.
    let bytes = empty_anonymous_frame_stream(0);
    let verdict = decode_at(&bytes, 1);
    assert_eq!(
        verdict,
        decode_at(&bytes, 4),
        "verdict diverges across jobs"
    );
    let msg = verdict.expect_err("declared/contained mismatch must be rejected");
    assert!(
        msg.contains("declares 0 section(s)") && msg.contains("byte"),
        "unexpected error: {msg}"
    );
}

#[test]
fn v2_manifest_declared_anonymous_section_is_jobs_invariant() {
    // The mirror image: the manifest declares one anonymous section but the
    // empty frame inflates to no records at all.
    let bytes = empty_anonymous_frame_stream(1);
    let verdict = decode_at(&bytes, 1);
    assert_eq!(
        verdict,
        decode_at(&bytes, 4),
        "verdict diverges across jobs"
    );
    let msg = verdict.expect_err("declared/contained mismatch must be rejected");
    assert!(
        msg.contains("declares 1 section(s)") && msg.contains("byte"),
        "unexpected error: {msg}"
    );
}

#[test]
fn v2_corrupt_compressed_frame_is_typed_on_every_path() {
    let base = record_bytes_v2(FIGURE2, &[1, 2]);
    let layout = scan_layout(&base).expect("valid").expect("v2 layout");
    // Flip a byte in the middle of the first frame's stored body (past the
    // header fields, so the LZ payload itself is what breaks).
    let entry = layout.frames[0].entry;
    let records = physical_records(&base);
    let (_, _, payload) = records
        .iter()
        .find(|(start, kind, _)| *start as u64 == entry.offset && *kind == 5)
        .expect("first frame record");
    let mut bytes = base.clone();
    let mid = payload.start + (payload.len() / 2).max(16);
    bytes[mid] ^= 0x5A;

    let streamed = stream_read(&bytes);
    let sliced = slice_read(&bytes);
    assert_eq!(streamed, sliced, "readers disagree on the corrupt frame");
    // A mid-body flip can land in an event payload and still parse; what is
    // forbidden is a panic or a silent readers/paths divergence.
    if let Err(msg) = &streamed {
        assert!(msg.contains("byte"), "no byte offset: {msg}");
    }
    let serial = decode_sections(&bytes).map(|s| format!("{s:?}"));
    let parallel = home::core::decode_trace(&bytes, 4).map(|s| format!("{s:?}"));
    match (serial, parallel) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "paths diverge on the corrupt frame"),
        (Err(a), Err(b)) => {
            assert!(a.to_string().contains("byte"), "{a}");
            assert!(b.to_string().contains("byte"), "{b}");
        }
        (a, b) => panic!(
            "paths disagree on validity: serial={:?} parallel={:?}",
            a.is_ok(),
            b.is_ok()
        ),
    }
}

#[test]
fn version_byte_confusion_is_handled_on_both_sides() {
    // A v2 body labeled v1: the first FRAME record is an unknown kind in a
    // version-1 stream — typed error, not a misparse.
    let mut v2_as_v1 = record_bytes_v2(FIGURE2, &[1]);
    v2_as_v1[4] = HBT_VERSION;
    for result in [stream_read(&v2_as_v1), slice_read(&v2_as_v1)] {
        let msg = result.expect_err("v2 kinds under a v1 label must be rejected");
        assert!(
            msg.contains("HBT v2 record kind") && msg.contains("byte"),
            "unexpected error: {msg}"
        );
    }

    // A v1 body labeled v2: plain records are legal in a v2 stream (the
    // format is a superset), so this decodes to the identical sections.
    let v1 = record_bytes(FIGURE2, &[1]);
    let mut v1_as_v2 = v1.clone();
    v1_as_v2[4] = HBT_V2;
    let original = decode_sections(&v1).expect("v1 recording decodes");
    let relabeled = decode_sections(&v1_as_v2).expect("plain records are legal v2");
    assert_eq!(
        format!("{original:?}"),
        format!("{relabeled:?}"),
        "relabeling a plain stream must not change its sections"
    );
    assert!(
        scan_layout(&v1_as_v2).expect("still well-formed").is_none(),
        "a frameless stream has no parallel layout"
    );
}
