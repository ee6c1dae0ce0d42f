//! In-tree deterministic mutation fuzzer for the ingestion frontends.
//!
//! Every byte stream the suite accepts from outside — encoded
//! instructions, image/trace/input JSON, store envelopes, arbitrary
//! JSON documents, programs handed to the emulator — has a *total*
//! frontend in `wyt_core::ingest`. This module proves totality by
//! construction-free brute force: a corpus of valid artifacts is built
//! in-process, mutated with classic operators (bit flips, truncation,
//! splice, length-field boosting, chunk repeat) and driven through the
//! frontend under `catch_unwind`. Any panic is a **finding**: the case
//! is minimized byte-wise and reported with the per-case seed that
//! reproduces it.
//!
//! Everything is deterministic. Case `i` of a campaign with seed `s`
//! derives its bytes purely from `mix(s, i)`, the campaign fans out
//! over [`wyt_par::par_indexed`] (which reports results in index
//! order), and minimization runs serially afterwards — so serial and
//! `WYT_PAR=4` runs produce byte-identical findings, and any finding
//! replays from `WYT_FUZZ=<seed>` alone.

use crate::rng::{mix, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use wyt_isa::image::{Image, TEXT_BASE};
use wyt_obs::Json;

/// Environment variable that overrides the campaign seed (decimal or
/// `0x`-prefixed hex), mirroring `WYT_PROP_SEED` for property tests.
pub const FUZZ_ENV: &str = "WYT_FUZZ";

/// Default campaign seed when neither the caller nor [`FUZZ_ENV`]
/// provides one.
pub const DEFAULT_SEED: u64 = 0xf0cc_5eed_0000_0001;

/// Hard ceiling on a mutated case, so the fuzzer itself never
/// amplifies a small corpus into unbounded allocation.
pub const MAX_CASE_BYTES: usize = 1 << 20;

/// Fixed key used for the envelope surface (both when building the
/// corpus entry and when validating mutants, so identity checks can
/// pass on the unmutated input).
pub const ENVELOPE_KEY: &str = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff";

/// Fuel budget for the hostile-execution surface. Small: the point is
/// decode/exec robustness, not long program runs.
const EMU_FUEL: u64 = 200_000;

/// Seed override from [`FUZZ_ENV`], if set and parseable.
pub fn env_seed() -> Option<u64> {
    let raw = std::env::var(FUZZ_ENV).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// One fuzzable ingestion surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// Raw instruction decoding: a linear `wyt_isa::decode` walk.
    Isa,
    /// Image JSON ingestion plus a bounded decode walk of the result.
    Image,
    /// Merged-trace JSON ingestion.
    Trace,
    /// Store envelope validation.
    Envelope,
    /// Arbitrary JSON under the parser limits.
    Json,
    /// Hostile program execution under fuel/cycle/memory budgets.
    Emu,
}

impl Surface {
    /// All surfaces, in the order campaigns and CLIs enumerate them.
    pub const ALL: [Surface; 6] = [
        Surface::Isa,
        Surface::Image,
        Surface::Trace,
        Surface::Envelope,
        Surface::Json,
        Surface::Emu,
    ];

    /// Stable lowercase name (CLI flag value, crash-file prefix,
    /// counter-key segment).
    pub fn name(self) -> &'static str {
        match self {
            Surface::Isa => "isa",
            Surface::Image => "image",
            Surface::Trace => "trace",
            Surface::Envelope => "envelope",
            Surface::Json => "json",
            Surface::Emu => "emu",
        }
    }

    /// Inverse of [`Surface::name`].
    pub fn parse(s: &str) -> Option<Surface> {
        Surface::ALL.iter().copied().find(|k| k.name() == s)
    }
}

/// A panic discovered by a campaign, minimized and replayable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Case index within the campaign.
    pub index: usize,
    /// The per-case seed (`mix(campaign_seed, index)`).
    pub case_seed: u64,
    /// Minimized input that still panics the frontend.
    pub bytes: Vec<u8>,
}

/// Build the deterministic seed corpus for a surface: small *valid*
/// artifacts produced by the suite's own toolchain, so mutants start
/// near the interesting boundary instead of in uniform noise.
pub fn corpus(surface: Surface) -> Vec<Vec<u8>> {
    match surface {
        Surface::Isa | Surface::Emu => seed_images().into_iter().map(|img| img.text).collect(),
        Surface::Image => seed_images()
            .iter()
            .map(|img| wyt_core::artifact::image_to_json(img).to_string().into_bytes())
            .collect(),
        Surface::Trace => seed_images()
            .iter()
            .map(|img| {
                let (trace, _) = wyt_lifter::trace_image(img, &[vec![]]);
                wyt_core::artifact::trace_to_json(&trace).to_string().into_bytes()
            })
            .collect(),
        Surface::Envelope => seed_images()
            .iter()
            .map(|img| {
                let payload = wyt_core::artifact::image_to_json(img);
                let checksum = wyt_store::sha256_hex(payload.to_string().as_bytes());
                Json::obj(vec![
                    ("wyt_store", Json::from(wyt_store::FORMAT_VERSION)),
                    ("kind", Json::from("artifact")),
                    ("key", Json::from(ENVELOPE_KEY)),
                    ("stamp", Json::from(7u64)),
                    ("checksum", Json::from(checksum.as_str())),
                    ("payload", payload),
                ])
                .to_string()
                .into_bytes()
            })
            .collect(),
        Surface::Json => vec![
            br#"{"counters": {"a": 1, "b": [1, 2, 3]}, "spans": []}"#.to_vec(),
            br#"[{"k": "x", "v": -12.5e3, "t": true, "n": null}, "tail"]"#.to_vec(),
            br#"{"deep": {"deep": {"deep": {"deep": [0, "A\n"]}}}}"#.to_vec(),
        ],
    }
}

/// The fixed set of tiny programs the corpora derive from. Compiled
/// in-process by `wyt-minicc`, so the corpus needs no checked-in
/// binary blobs and tracks the toolchain.
fn seed_images() -> Vec<Image> {
    const SOURCES: [&str; 3] = [
        "int main() { return 41 + 1; }",
        "int f(int n) { int a[4]; a[n & 3] = n; return a[0] + a[3]; }\n\
         int main() { int s = 0; for (int i = 0; i < 5; i = i + 1) s = s + f(i); return s; }",
        "int main() { char *p = malloc(16); memset(p, 7, 16); return p[3]; }",
    ];
    SOURCES
        .iter()
        .map(|src| {
            wyt_minicc::compile(src, &wyt_minicc::Profile::gcc12_o3())
                .expect("seed corpus program compiles")
                .stripped()
        })
        .collect()
}

/// Produce one mutated case from the corpus. Applies 1–3 operators
/// drawn from: bit flips, truncation, splice, length-field boosting,
/// chunk repeat. Output is capped at [`MAX_CASE_BYTES`].
pub fn mutate(rng: &mut Rng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = rng.choose(corpus).clone();
    for _ in 0..rng.range_u32(1, 4) {
        match rng.range_u32(0, 5) {
            0 => bit_flips(rng, &mut bytes),
            1 => truncate(rng, &mut bytes),
            2 => {
                let donor = rng.choose(corpus).clone();
                splice(rng, &mut bytes, &donor);
            }
            3 => length_boost(rng, &mut bytes),
            _ => chunk_repeat(rng, &mut bytes),
        }
    }
    bytes.truncate(MAX_CASE_BYTES);
    bytes
}

/// Flip 1–8 random bits.
fn bit_flips(rng: &mut Rng, bytes: &mut [u8]) {
    if bytes.is_empty() {
        return;
    }
    for _ in 0..rng.range_u32(1, 9) {
        let i = rng.range_usize(0, bytes.len());
        bytes[i] ^= 1 << rng.range_u32(0, 8);
    }
}

/// Cut the tail at a random point (possibly to empty).
fn truncate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    let at = rng.range_usize(0, bytes.len() + 1);
    bytes.truncate(at);
}

/// Overwrite or insert a random window copied from another corpus
/// entry — moves whole fields/structures between documents.
fn splice(rng: &mut Rng, bytes: &mut Vec<u8>, donor: &[u8]) {
    if donor.is_empty() {
        return;
    }
    let ds = rng.range_usize(0, donor.len());
    let de = rng.range_usize(ds, donor.len() + 1);
    let window = &donor[ds..de];
    let at = rng.range_usize(0, bytes.len() + 1);
    if rng.next_bool() && at + window.len() <= bytes.len() {
        bytes[at..at + window.len()].copy_from_slice(window);
    } else {
        bytes.splice(at..at, window.iter().copied());
    }
}

/// Boost a "length field": either write an extreme 32-bit LE value
/// over a random window (binary surfaces), or, on JSON surfaces,
/// replace a run of ASCII digits with a huge number or stretch a string
/// literal to at least [`STRETCH_BYTES`]. Targets the classic
/// trust-the-length overflow class and any scan that is super-linear
/// in a string's length.
fn length_boost(rng: &mut Rng, bytes: &mut Vec<u8>) {
    const BOOST: [u32; 6] = [u32::MAX, i32::MAX as u32, 1 << 31, 1 << 24, 0x8000_0001, 65_536];
    if bytes.len() >= 4 && rng.next_bool() {
        let at = rng.range_usize(0, bytes.len() - 3);
        bytes[at..at + 4].copy_from_slice(&rng.choose(&BOOST).to_le_bytes());
        return;
    }
    if bytes.is_empty() {
        return;
    }
    let start = rng.range_usize(0, bytes.len());
    if rng.next_bool() {
        stretch_string(bytes, start);
        return;
    }
    // Find a digit run starting at/after a random point and inflate it.
    if let Some(d0) = (start..bytes.len()).find(|&i| bytes[i].is_ascii_digit()) {
        let d1 = (d0..bytes.len()).take_while(|&i| bytes[i].is_ascii_digit()).last().unwrap_or(d0);
        let huge = format!("{}", u64::from(*rng.choose(&BOOST)) * 1_000_000_007);
        bytes.splice(d0..=d1, huge.bytes());
    }
}

/// Minimum length a stretched string literal reaches.
const STRETCH_BYTES: usize = 256 << 10;

/// Stretch the string literal opened by the first `"` at/after `start`:
/// repeat its body (up to 64 bytes of it, or `a` when it is empty or
/// holds an escape) right after the quote until [`STRETCH_BYTES`] have
/// been inserted. Hex blobs stay hex, so the result still reaches the
/// decoders behind the parser.
fn stretch_string(bytes: &mut Vec<u8>, start: usize) {
    let Some(q) = (start..bytes.len()).find(|&i| bytes[i] == b'"') else {
        return;
    };
    let body: Vec<u8> =
        bytes[q + 1..].iter().take_while(|&&b| b != b'"').take(64).copied().collect();
    let unit: &[u8] = if body.is_empty() || body.contains(&b'\\') { b"a" } else { &body };
    let fill: Vec<u8> = unit.iter().copied().cycle().take(STRETCH_BYTES).collect();
    bytes.splice(q + 1..q + 1, fill);
}

/// Repeat a random chunk k times in place (bounded by the case cap) —
/// stresses element-count loops and depth limits.
fn chunk_repeat(rng: &mut Rng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    let cs = rng.range_usize(0, bytes.len());
    let ce = rng.range_usize(cs, bytes.len() + 1);
    let chunk = bytes[cs..ce].to_vec();
    if chunk.is_empty() {
        return;
    }
    let reps = rng.range_usize(2, 65).min(MAX_CASE_BYTES.saturating_sub(bytes.len()) / chunk.len());
    let mut insert = Vec::with_capacity(chunk.len() * reps);
    for _ in 0..reps {
        insert.extend_from_slice(&chunk);
    }
    bytes.splice(ce..ce, insert);
}

/// Drive `bytes` through one frontend. This is the totality contract
/// under test: for arbitrary input the call must return (with a typed
/// error or a clean result) — any panic escaping here is a finding.
pub fn drive(surface: Surface, bytes: &[u8]) {
    match surface {
        Surface::Isa => {
            let mut off = 0usize;
            while off < bytes.len() {
                match wyt_isa::decode(&bytes[off..]) {
                    Ok((_, len)) => off += len.max(1),
                    Err(_) => off += 1,
                }
            }
        }
        Surface::Image => {
            if let Ok(img) = wyt_core::ingest::image_json(&String::from_utf8_lossy(bytes)) {
                // A structurally valid image must also decode totally.
                let mut addr = img.text_base;
                let end = addr.saturating_add(img.text.len() as u32);
                while addr < end {
                    match img.decode_at(addr) {
                        Ok((_, len)) => addr = addr.saturating_add(len.max(1) as u32),
                        Err(_) => addr = addr.saturating_add(1),
                    }
                }
            }
        }
        Surface::Trace => {
            let _ = wyt_core::ingest::trace_json(&String::from_utf8_lossy(bytes));
        }
        Surface::Envelope => {
            let _ = wyt_core::ingest::envelope_text(
                "artifact",
                ENVELOPE_KEY,
                &String::from_utf8_lossy(bytes),
            );
        }
        Surface::Json => {
            let _ = wyt_core::ingest::json_text(&String::from_utf8_lossy(bytes));
        }
        Surface::Emu => {
            let mut img = Image::new();
            img.text = bytes.to_vec();
            img.entry = TEXT_BASE;
            let _ = wyt_core::ingest::hostile_run(&img, vec![], EMU_FUEL);
        }
    }
}

/// Whether driving `bytes` through `surface` panics.
fn panics(surface: Surface, bytes: &[u8]) -> bool {
    catch_unwind(AssertUnwindSafe(|| drive(surface, bytes))).is_err()
}

/// Replay one input: `Ok` when the frontend returns (totality holds),
/// `Err` when it panics. Used by the crash-corpus regression gate.
pub fn replay(surface: Surface, bytes: &[u8]) -> Result<(), String> {
    if panics(surface, bytes) {
        Err(format!("{} frontend panicked on {} bytes", surface.name(), bytes.len()))
    } else {
        Ok(())
    }
}

/// Greedy byte-level minimization of a panicking input: drop
/// exponentially shrinking chunks, then zero individual bytes, as long
/// as the panic survives. Bounded by `max_steps` driver calls.
pub fn minimize(surface: Surface, bytes: Vec<u8>, max_steps: usize) -> Vec<u8> {
    let mut cur = bytes;
    let mut steps = 0usize;
    let mut chunk = (cur.len() / 2).max(1);
    while chunk >= 1 && steps < max_steps {
        let mut i = 0;
        let mut progressed = false;
        while i + chunk <= cur.len() && steps < max_steps {
            let mut cand = cur.clone();
            cand.drain(i..i + chunk);
            steps += 1;
            if panics(surface, &cand) {
                cur = cand;
                progressed = true;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 && !progressed {
            break;
        }
        if !progressed {
            chunk /= 2;
        }
    }
    for i in 0..cur.len() {
        if steps >= max_steps {
            break;
        }
        if cur[i] != 0 {
            let mut cand = cur.clone();
            cand[i] = 0;
            steps += 1;
            if panics(surface, &cand) {
                cur = cand;
            }
        }
    }
    cur
}

/// Run a campaign: `iters` mutated cases against one surface.
///
/// Case `i` is derived purely from `mix(seed, i)` and cases fan out
/// over [`wyt_par::par_indexed`], so serial and parallel runs return
/// byte-identical findings in index order. Findings are minimized
/// (serially) before being returned. Emits `fuzz.cases` /
/// `fuzz.findings` counters.
pub fn campaign(surface: Surface, iters: usize, seed: u64) -> Vec<Finding> {
    let corpus = corpus(surface);
    let hits = wyt_par::par_indexed(iters, |i| {
        let case_seed = mix(seed, i as u64);
        let mut rng = Rng::new(case_seed);
        let bytes = mutate(&mut rng, &corpus);
        if panics(surface, &bytes) {
            Some((i, case_seed, bytes))
        } else {
            None
        }
    });
    wyt_obs::counter("fuzz.cases", iters as u64);
    let findings: Vec<Finding> = hits
        .into_iter()
        .flatten()
        .map(|(index, case_seed, bytes)| Finding {
            index,
            case_seed,
            bytes: minimize(surface, bytes, 2000),
        })
        .collect();
    wyt_obs::counter("fuzz.findings", findings.len() as u64);
    findings
}

/// Re-derive the exact mutated input of case `index` in a campaign —
/// the replay path behind `WYT_FUZZ=<seed>`.
pub fn case_bytes(surface: Surface, seed: u64, index: usize) -> Vec<u8> {
    let corpus = corpus(surface);
    let mut rng = Rng::new(mix(seed, index as u64));
    mutate(&mut rng, &corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surfaces_round_trip_names() {
        for s in Surface::ALL {
            assert_eq!(Surface::parse(s.name()), Some(s));
        }
        assert_eq!(Surface::parse("bogus"), None);
    }

    #[test]
    fn corpus_is_valid_and_deterministic() {
        for s in Surface::ALL {
            let a = corpus(s);
            assert!(!a.is_empty(), "{} corpus empty", s.name());
            assert_eq!(a, corpus(s), "{} corpus nondeterministic", s.name());
            // Unmutated corpus entries must drive cleanly.
            for entry in &a {
                assert!(replay(s, entry).is_ok(), "{} corpus entry panics", s.name());
            }
        }
        // The envelope corpus is not just *driven* cleanly — it
        // actually validates, so mutants explore the accept path too.
        for entry in corpus(Surface::Envelope) {
            assert!(wyt_core::ingest::envelope_text(
                "artifact",
                ENVELOPE_KEY,
                &String::from_utf8_lossy(&entry)
            )
            .is_ok());
        }
    }

    #[test]
    fn mutation_is_seed_deterministic_and_bounded() {
        let corpus = corpus(Surface::Json);
        for i in 0..50u64 {
            let a = mutate(&mut Rng::new(mix(1, i)), &corpus);
            let b = mutate(&mut Rng::new(mix(1, i)), &corpus);
            assert_eq!(a, b);
            assert!(a.len() <= MAX_CASE_BYTES);
        }
    }

    #[test]
    fn length_boost_stretches_string_literals() {
        fn longest_str(j: &Json) -> usize {
            match j {
                Json::Str(s) => s.len(),
                Json::Arr(items) => items.iter().map(longest_str).max().unwrap_or(0),
                Json::Obj(members) => {
                    members.iter().map(|(k, v)| k.len().max(longest_str(v))).max().unwrap_or(0)
                }
                _ => 0,
            }
        }
        let corpus = corpus(Surface::Json);
        let stretched = (0..200u64).any(|i| {
            let mut bytes = corpus[0].clone();
            length_boost(&mut Rng::new(mix(7, i)), &mut bytes);
            let text = String::from_utf8(bytes).unwrap_or_default();
            wyt_obs::json::parse(&text).is_ok_and(|j| longest_str(&j) >= STRETCH_BYTES)
        });
        assert!(stretched, "no seed stretched a string literal into valid JSON");
    }

    #[test]
    fn minimize_preserves_the_panic() {
        // A synthetic panicking "surface": the Isa walk cannot panic,
        // so test minimize's own mechanics against a trip-wire byte.
        let hay: Vec<u8> = (0..200u8).collect();
        let needle = 0x7fu8;
        let still_trips = |b: &[u8]| b.contains(&needle);
        // Inline re-implementation of the chunk loop against a plain
        // predicate to pin the shrinking behavior itself.
        let mut cur = hay;
        let mut chunk = cur.len() / 2;
        while chunk >= 1 {
            let mut i = 0;
            let mut progressed = false;
            while i + chunk <= cur.len() {
                let mut cand = cur.clone();
                cand.drain(i..i + chunk);
                if still_trips(&cand) {
                    cur = cand;
                    progressed = true;
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 && !progressed {
                break;
            }
            if !progressed {
                chunk /= 2;
            }
        }
        assert_eq!(cur, vec![needle]);
    }

    #[test]
    fn small_campaigns_find_nothing() {
        for s in Surface::ALL {
            let findings = campaign(s, 40, DEFAULT_SEED);
            assert!(findings.is_empty(), "{}: {:?}", s.name(), findings);
        }
    }
}
