//! Total ingestion frontends: every byte stream entering the suite
//! from outside — artifact JSON, merged traces, store envelopes, raw
//! images, programs to execute — passes through a typed, bounded
//! decoder here. The contract is *totality*: each frontend terminates,
//! never panics, never allocates past a configured ceiling, and
//! returns an [`IngestError`] for anything it refuses. A hostile
//! artifact submitted to the batch frontend therefore lands as a clean
//! `error` outcome row, never a crashed worker (the fuzz campaign in
//! `wyt-fuzz` drives arbitrary bytes through exactly these functions).

use crate::artifact::{image_from_json, trace_from_json};
use std::fmt;
use wyt_emu::{Machine, RunResult};
use wyt_isa::image::Image;
use wyt_isa::{DecodeLimits, LimitError};
use wyt_lifter::Trace;
use wyt_obs::{Json, JsonLimits, ParseError};

/// Any rejection by a total ingestion frontend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The bytes are not JSON within the parser limits.
    Json(ParseError),
    /// The JSON is well-formed but not a valid codec document.
    Decode(String),
    /// The decoded image violates the [`DecodeLimits`].
    Limit(LimitError),
    /// A store envelope failed integrity validation.
    Envelope(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Json(e) => write!(f, "ingest: {e}"),
            IngestError::Decode(e) => write!(f, "ingest: bad document: {e}"),
            IngestError::Limit(e) => write!(f, "ingest: {e}"),
            IngestError::Envelope(e) => write!(f, "ingest: bad envelope: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl IngestError {
    /// Counter-key suffix classifying the rejection.
    fn class(&self) -> &'static str {
        match self {
            IngestError::Json(_) => "ingest.err.json",
            IngestError::Decode(_) => "ingest.err.decode",
            IngestError::Limit(_) => "ingest.err.limit",
            IngestError::Envelope(_) => "ingest.err.envelope",
        }
    }
}

/// Count one frontend outcome (`ingest.ok` / `ingest.err.*`).
fn note<T>(r: Result<T, IngestError>) -> Result<T, IngestError> {
    match &r {
        Ok(_) => wyt_obs::counter("ingest.ok", 1),
        Err(e) => {
            wyt_obs::counter("ingest.err", 1);
            wyt_obs::counter(e.class(), 1);
        }
    }
    r
}

/// Parse arbitrary text as JSON under the default [`JsonLimits`]
/// (depth and total-size ceilings).
///
/// # Errors
/// Returns [`IngestError::Json`] for malformed or oversized input.
pub fn json_text(text: &str) -> Result<Json, IngestError> {
    note(wyt_obs::json::parse_limited(text, &JsonLimits::default()).map_err(IngestError::Json))
}

/// Validate an already-decoded image against the default
/// [`DecodeLimits`] (total size, non-wrapping segments, entry in text).
///
/// # Errors
/// Returns [`IngestError::Limit`] for an image outside the limits.
pub fn check_image(img: &Image) -> Result<(), IngestError> {
    note(DecodeLimits::default().validate_image(img).map_err(IngestError::Limit))
}

/// Decode an image from arbitrary JSON text: parser limits, structural
/// codec, then [`DecodeLimits`] — the full ingestion ladder.
///
/// # Errors
/// Returns the first rung's [`IngestError`].
pub fn image_json(text: &str) -> Result<Image, IngestError> {
    note(image_json_inner(text))
}

fn image_json_inner(text: &str) -> Result<Image, IngestError> {
    let j =
        wyt_obs::json::parse_limited(text, &JsonLimits::default()).map_err(IngestError::Json)?;
    let img = image_from_json(&j).map_err(IngestError::Decode)?;
    DecodeLimits::default().validate_image(&img).map_err(IngestError::Limit)?;
    Ok(img)
}

/// Decode a merged trace from arbitrary JSON text.
///
/// # Errors
/// Returns [`IngestError::Json`] or [`IngestError::Decode`].
pub fn trace_json(text: &str) -> Result<Trace, IngestError> {
    note(
        wyt_obs::json::parse_limited(text, &JsonLimits::default())
            .map_err(IngestError::Json)
            .and_then(|j| trace_from_json(&j).map_err(IngestError::Decode)),
    )
}

/// Validate arbitrary text as a store envelope for `(kind, key)` —
/// the exact checks `Store::get` applies (format version, identity,
/// payload checksum), behind the same parser limits.
///
/// # Errors
/// Returns [`IngestError::Envelope`] for any integrity failure.
pub fn envelope_text(kind: &str, key: &str, text: &str) -> Result<Json, IngestError> {
    note(wyt_store::validate_entry_text(kind, key, text).map_err(IngestError::Envelope))
}

/// Decode-limit profile for *executing* untrusted images: tighter
/// module-size cap than the decode default because the emulator's
/// per-text-byte icache amplifies text bytes by an order of magnitude
/// of host memory.
pub fn exec_limits() -> DecodeLimits {
    DecodeLimits { max_module_bytes: 8 << 20, ..DecodeLimits::default() }
}

/// Execute an untrusted image to completion: [`exec_limits`]
/// validation, then the emulator under an explicit fuel budget and the
/// resident-memory ceiling (`Trap::MemLimit`). Total: every hostile
/// program ends in a clean exit or a typed trap inside the
/// [`RunResult`].
///
/// # Errors
/// Returns [`IngestError::Limit`] for images refused before execution.
pub fn hostile_run(img: &Image, input: Vec<u8>, fuel: u64) -> Result<RunResult, IngestError> {
    note(exec_limits().validate_image(img).map_err(IngestError::Limit))?;
    let mut m = Machine::new(img, input);
    m.set_fuel(fuel);
    // Bulk external calls charge cycles proportional to bytes touched
    // while retiring one instruction, so bound cycles too; 8×fuel keeps
    // honest programs (≲ a few cycles/inst) unaffected.
    m.set_cycle_budget(fuel.saturating_mul(8));
    // 4096 pages = 16 MiB resident guest memory.
    m.mem.set_page_cap(4096);
    Ok(m.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_isa::image::TEXT_BASE;

    #[test]
    fn json_frontend_is_total() {
        assert!(json_text("{\"a\": [1, 2, 3]}").is_ok());
        assert!(matches!(json_text("{\"a\": "), Err(IngestError::Json(_))));
        let bomb = "[".repeat(1 << 12);
        assert!(matches!(json_text(&bomb), Err(IngestError::Json(_))));
    }

    #[test]
    fn image_frontend_applies_all_rungs() {
        assert!(matches!(image_json("]"), Err(IngestError::Json(_))));
        assert!(matches!(image_json("{}"), Err(IngestError::Decode(_))));
        // Structurally valid image whose text wraps the address space.
        let mut img = Image::new();
        img.text = vec![0u8; 8];
        img.text_base = u32::MAX - 2;
        img.entry = img.text_base;
        let text = crate::artifact::image_to_json(&img).to_string();
        assert!(matches!(image_json(&text), Err(IngestError::Limit(_))));
    }

    #[test]
    fn envelope_frontend_rejects_garbage() {
        assert!(matches!(envelope_text("artifact", "00", "junk"), Err(IngestError::Envelope(_))));
    }

    #[test]
    fn hostile_run_is_total() {
        // Empty text: entry outside text is refused up front.
        let img = Image::new();
        assert!(matches!(hostile_run(&img, vec![], 1000), Err(IngestError::Limit(_))));
        // A runaway self-jump burns fuel, not wall-clock.
        let mut img = Image::new();
        wyt_isa::encode(&wyt_isa::Inst::Jmp { target: TEXT_BASE }, &mut img.text);
        img.entry = TEXT_BASE;
        let r = hostile_run(&img, vec![], 10_000).unwrap();
        assert_eq!(r.trap, Some(wyt_emu::Trap::OutOfFuel));
    }
}
