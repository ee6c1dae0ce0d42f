//! Codecs between pipeline artifacts and `wyt-store` JSON payloads.
//!
//! `wyt-store` moves opaque validated [`Json`]; this module is where the
//! pipeline's types — images, merged traces, lifted modules, refinement
//! facts, healing results — gain a stable on-disk encoding. Three rules:
//!
//! - **Canonical bytes.** Every encoder orders collections (the sources
//!   are `BTreeMap`/`BTreeSet`, or are sorted here) so the same artifact
//!   always serializes identically — the store's determinism guarantee
//!   rests on this.
//! - **Paranoid decode.** Decoders validate structure field by field and
//!   return `Err` on anything unexpected; the caller treats that exactly
//!   like a corrupt entry and recompiles cold. Version skew inside a
//!   payload can therefore never smuggle a wrong image out of the store.
//! - **Address-keyed facts.** Refinement facts are keyed by original
//!   entry address — the only function identity stable across re-lifts
//!   *and* across processes — mirroring [`ReusePlan`].

use crate::layout::{FuncLayout, StackSlotVar};
use crate::pipeline::{Mode, Recompiled, ReusePlan};
use crate::regsave::{RegClass, NUM_CELLS};
use crate::spfold::FoldedFunc;
use std::collections::{BTreeMap, BTreeSet};
use wyt_emu::TransferKind;
use wyt_ir::InstId;
use wyt_isa::image::{CodeReloc, FrameLayout, GtVar, GtVarKind, Image, Symbol};
use wyt_isa::{GuardKind, GuardSite};
use wyt_lifter::{ExtCall, Trace};
use wyt_obs::{GuardEvent, HealingReport, Json};
use wyt_opt::OptLevel;
use wyt_store::{sha256_hex, Store};

/// Decode failures carry a human-readable reason; callers fall back to a
/// cold recompile and count the entry as corrupt.
pub type DecodeResult<T> = Result<T, String>;

fn want<T>(v: Option<T>, what: &str) -> DecodeResult<T> {
    v.ok_or_else(|| format!("artifact decode: missing or invalid {what}"))
}

fn get<'a>(j: &'a Json, key: &str) -> DecodeResult<&'a Json> {
    want(j.get(key), key)
}

fn get_u64(j: &Json, key: &str) -> DecodeResult<u64> {
    want(j.get(key).and_then(Json::as_u64), key)
}

fn get_u32(j: &Json, key: &str) -> DecodeResult<u32> {
    u32::try_from(get_u64(j, key)?).map_err(|_| format!("artifact decode: {key} out of range"))
}

fn get_i32(j: &Json, key: &str) -> DecodeResult<i32> {
    want(j.get(key).and_then(Json::as_i64), key)?
        .try_into()
        .map_err(|_| format!("artifact decode: {key} out of range"))
}

fn get_str<'a>(j: &'a Json, key: &str) -> DecodeResult<&'a str> {
    want(j.get(key).and_then(Json::as_str), key)
}

fn get_arr<'a>(j: &'a Json, key: &str) -> DecodeResult<&'a [Json]> {
    want(j.get(key).and_then(Json::as_arr), key)
}

fn hex_of(bytes: &[u8]) -> Json {
    Json::Str(wyt_store::to_hex(bytes))
}

fn bytes_of(j: &Json, what: &str) -> DecodeResult<Vec<u8>> {
    let s = want(j.as_str(), what)?;
    // Decode over raw bytes, not string slices: indexing a &str can
    // split a multi-byte character and panic on hostile documents.
    let b = s.as_bytes();
    if b.len() % 2 != 0 {
        return Err(format!("artifact decode: odd-length hex in {what}"));
    }
    fn nibble(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    }
    b.chunks_exact(2)
        .map(|p| match (nibble(p[0]), nibble(p[1])) {
            (Some(hi), Some(lo)) => Ok(hi << 4 | lo),
            _ => Err(format!("artifact decode: bad hex in {what}")),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Image

fn gt_kind_name(k: GtVarKind) -> &'static str {
    match k {
        GtVarKind::Named => "named",
        GtVarKind::Spill => "spill",
    }
}

/// Encode an [`Image`] losslessly (including the debug sidecar and the
/// guard-site table — a stored recompiled image must stay attributable).
pub fn image_to_json(img: &Image) -> Json {
    Json::obj(vec![
        ("text_base", Json::from(u64::from(img.text_base))),
        ("text", hex_of(&img.text)),
        ("data_base", Json::from(u64::from(img.data_base))),
        ("data", hex_of(&img.data)),
        ("bss_size", Json::from(u64::from(img.bss_size))),
        ("entry", Json::from(u64::from(img.entry))),
        ("imports", Json::Arr(img.imports.iter().map(|s| Json::from(s.as_str())).collect())),
        (
            "symbols",
            Json::Arr(
                img.symbols
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::from(s.name.as_str())),
                            ("addr", Json::from(u64::from(s.addr))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "frame_layouts",
            Json::Arr(
                img.frame_layouts
                    .iter()
                    .map(|fl| {
                        Json::obj(vec![
                            ("func", Json::from(u64::from(fl.func))),
                            ("func_name", Json::from(fl.func_name.as_str())),
                            (
                                "vars",
                                Json::Arr(
                                    fl.vars
                                        .iter()
                                        .map(|v| {
                                            Json::obj(vec![
                                                ("name", Json::from(v.name.as_str())),
                                                ("sp0_offset", Json::from(i64::from(v.sp0_offset))),
                                                ("size", Json::from(u64::from(v.size))),
                                                ("kind", Json::from(gt_kind_name(v.kind))),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "code_relocs",
            Json::Arr(
                img.code_relocs.iter().map(|r| Json::from(u64::from(r.data_offset))).collect(),
            ),
        ),
        ("pic", Json::Bool(img.pic)),
        (
            "guard_sites",
            Json::Arr(
                img.guard_sites
                    .iter()
                    .map(|g| {
                        Json::obj(vec![
                            ("pc", Json::from(u64::from(g.pc))),
                            ("func", Json::from(u64::from(g.func))),
                            ("kind", Json::from(g.kind.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode an [`Image`], validating every field.
///
/// # Errors
/// A description of the first structural problem.
pub fn image_from_json(j: &Json) -> DecodeResult<Image> {
    let mut img = Image {
        text_base: get_u32(j, "text_base")?,
        text: bytes_of(get(j, "text")?, "text")?,
        data_base: get_u32(j, "data_base")?,
        data: bytes_of(get(j, "data")?, "data")?,
        bss_size: get_u32(j, "bss_size")?,
        entry: get_u32(j, "entry")?,
        pic: want(j.get("pic").and_then(Json::as_bool), "pic")?,
        ..Image::default()
    };
    for imp in get_arr(j, "imports")? {
        img.imports.push(want(imp.as_str(), "import name")?.to_string());
    }
    for s in get_arr(j, "symbols")? {
        img.symbols
            .push(Symbol { name: get_str(s, "name")?.to_string(), addr: get_u32(s, "addr")? });
    }
    for fl in get_arr(j, "frame_layouts")? {
        let mut vars = Vec::new();
        for v in get_arr(fl, "vars")? {
            vars.push(GtVar {
                name: get_str(v, "name")?.to_string(),
                sp0_offset: get_i32(v, "sp0_offset")?,
                size: get_u32(v, "size")?,
                kind: match get_str(v, "kind")? {
                    "named" => GtVarKind::Named,
                    "spill" => GtVarKind::Spill,
                    other => return Err(format!("artifact decode: bad var kind `{other}`")),
                },
            });
        }
        img.frame_layouts.push(FrameLayout {
            func: get_u32(fl, "func")?,
            func_name: get_str(fl, "func_name")?.to_string(),
            vars,
        });
    }
    for r in get_arr(j, "code_relocs")? {
        let off = want(r.as_u64(), "code reloc")?;
        img.code_relocs.push(CodeReloc {
            data_offset: u32::try_from(off)
                .map_err(|_| "artifact decode: code reloc out of range".to_string())?,
        });
    }
    for g in get_arr(j, "guard_sites")? {
        img.guard_sites.push(GuardSite {
            pc: get_u32(g, "pc")?,
            func: get_u32(g, "func")?,
            kind: want(GuardKind::from_name(get_str(g, "kind")?), "guard kind")?,
        });
    }
    Ok(img)
}

/// SHA-256 of the canonical image encoding — the image half of every
/// store key.
pub fn image_digest(img: &Image) -> String {
    sha256_hex(image_to_json(img).to_string().as_bytes())
}

// ---------------------------------------------------------------------------
// Trace

fn kind_code(k: TransferKind) -> u64 {
    match k {
        TransferKind::Jump => 0,
        TransferKind::CondTaken => 1,
        TransferKind::CondFall => 2,
        TransferKind::IndJump => 3,
        TransferKind::Call => 4,
        TransferKind::IndCall => 5,
        TransferKind::Ret => 6,
    }
}

fn kind_of(c: u64) -> DecodeResult<TransferKind> {
    Ok(match c {
        0 => TransferKind::Jump,
        1 => TransferKind::CondTaken,
        2 => TransferKind::CondFall,
        3 => TransferKind::IndJump,
        4 => TransferKind::Call,
        5 => TransferKind::IndCall,
        6 => TransferKind::Ret,
        other => return Err(format!("artifact decode: bad transfer kind {other}")),
    })
}

/// Encode a merged [`Trace`]: edges as `[from, to, kind]` triples in
/// `BTreeSet` order, external call sites as `[pc, import_index, arity]`
/// triples.
pub fn trace_to_json(t: &Trace) -> Json {
    Json::obj(vec![
        (
            "edges",
            Json::Arr(
                t.edges
                    .iter()
                    .map(|(f, to, k)| {
                        Json::Arr(vec![
                            Json::from(u64::from(*f)),
                            Json::from(u64::from(*to)),
                            Json::from(kind_code(*k)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "ext_calls",
            Json::Arr(
                t.ext_calls
                    .iter()
                    .map(|(pc, call)| {
                        Json::Arr(vec![
                            Json::from(u64::from(*pc)),
                            Json::from(u64::from(call.import)),
                            Json::from(u64::from(call.arity)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode a merged [`Trace`].
///
/// # Errors
/// A description of the first structural problem.
pub fn trace_from_json(j: &Json) -> DecodeResult<Trace> {
    let mut t = Trace::default();
    for e in get_arr(j, "edges")? {
        let e = want(e.as_arr(), "trace edge")?;
        if e.len() != 3 {
            return Err("artifact decode: trace edge arity".to_string());
        }
        let from = want(e[0].as_u64(), "edge from")?;
        let to = want(e[1].as_u64(), "edge to")?;
        let kind = kind_of(want(e[2].as_u64(), "edge kind")?)?;
        t.edges.insert((
            u32::try_from(from).map_err(|_| "artifact decode: edge from range".to_string())?,
            u32::try_from(to).map_err(|_| "artifact decode: edge to range".to_string())?,
            kind,
        ));
    }
    for e in get_arr(j, "ext_calls")? {
        let e = want(e.as_arr(), "ext call")?;
        if e.len() != 3 {
            return Err("artifact decode: ext call arity".to_string());
        }
        let pc = want(e[0].as_u64(), "ext call pc")?;
        let idx = want(e[1].as_u64(), "ext call idx")?;
        let arity = want(e[2].as_u64(), "ext call args")?;
        t.ext_calls.insert(
            u32::try_from(pc).map_err(|_| "artifact decode: ext pc range".to_string())?,
            ExtCall {
                import: u16::try_from(idx)
                    .map_err(|_| "artifact decode: ext idx range".to_string())?,
                arity: u16::try_from(arity)
                    .map_err(|_| "artifact decode: ext args range".to_string())?,
            },
        );
    }
    Ok(t)
}

// ---------------------------------------------------------------------------
// Input sets

/// Encode an input set as hex strings, order-preserving.
pub fn inputs_to_json(inputs: &[Vec<u8>]) -> Json {
    Json::Arr(inputs.iter().map(|i| hex_of(i)).collect())
}

/// Decode an input set.
///
/// # Errors
/// A description of the first structural problem.
pub fn inputs_from_json(j: &Json) -> DecodeResult<Vec<Vec<u8>>> {
    want(j.as_arr(), "inputs")?.iter().map(|i| bytes_of(i, "input")).collect()
}

// ---------------------------------------------------------------------------
// Store keys

fn mode_str(mode: Mode) -> String {
    format!("{mode:?}")
}

fn opt_str(opt: OptLevel) -> String {
    format!("{opt:?}")
}

/// Content-address of a plain recompilation: (image, input set, mode,
/// opt level).
pub fn artifact_key(img: &Image, inputs: &[Vec<u8>], mode: Mode, opt: OptLevel) -> String {
    Store::derive_key(
        "artifact",
        vec![
            ("image", Json::Str(image_digest(img))),
            ("inputs", inputs_to_json(inputs)),
            ("mode", Json::Str(mode_str(mode))),
            ("opt", Json::Str(opt_str(opt))),
        ],
    )
}

/// Content-address of a healing run: (image, traced set, held-out set,
/// opt level). Healing is always `Mode::Wytiwyg`.
pub fn heal_key(img: &Image, traced: &[Vec<u8>], held_out: &[Vec<u8>], opt: OptLevel) -> String {
    Store::derive_key(
        "healed",
        vec![
            ("image", Json::Str(image_digest(img))),
            ("traced", inputs_to_json(traced)),
            ("held_out", inputs_to_json(held_out)),
            ("opt", Json::Str(opt_str(opt))),
        ],
    )
}

/// Content-address of the accumulated-facts entry for an image: unlike
/// result entries it is keyed by (image, opt) only, so every run of the
/// same binary — whatever its input set — reads and grows the same
/// knowledge.
pub fn facts_key(img: &Image, opt: OptLevel) -> String {
    Store::derive_key(
        wyt_store::FACTS_KIND,
        vec![("image", Json::Str(image_digest(img))), ("opt", Json::Str(opt_str(opt)))],
    )
}

// ---------------------------------------------------------------------------
// Recompilation artifacts

/// A decoded `"artifact"` entry: everything needed to serve a warm
/// recompile (plus the trace and lifted module for inspection and
/// incremental reuse).
#[derive(Debug)]
pub struct StoredArtifact {
    /// The recompiled image (behaviourally validated before use).
    pub image: Image,
    /// The merged trace the module was lifted from.
    pub trace: Trace,
    /// The lifted module, in IR text form.
    pub module_text: String,
    /// Pipeline mode (`"{Mode:?}"`).
    pub mode: String,
    /// Re-optimization level (`"{OptLevel:?}"`).
    pub opt: String,
    /// Degraded-function count of the producing run.
    pub degradations: u64,
}

/// Encode a finished recompilation as an `"artifact"` payload.
pub fn artifact_payload(rec: &Recompiled) -> Json {
    let module_text = wyt_ir::print::module_to_string(&rec.module);
    Json::obj(vec![
        ("image", image_to_json(&rec.image)),
        ("trace", trace_to_json(&rec.trace)),
        (
            "module",
            Json::obj(vec![
                ("text", Json::from(module_text.as_str())),
                ("sha256", Json::Str(sha256_hex(module_text.as_bytes()))),
            ]),
        ),
        (
            "summary",
            Json::obj(vec![
                ("mode", Json::from(rec.report.mode.as_str())),
                ("opt", Json::from(rec.report.opt.as_str())),
                ("degradations", Json::from(rec.report.degradations.len() as u64)),
            ]),
        ),
    ])
}

/// Decode an `"artifact"` payload.
///
/// # Errors
/// A description of the first structural problem (including a module
/// text/digest mismatch).
pub fn artifact_from_json(j: &Json) -> DecodeResult<StoredArtifact> {
    let module = get(j, "module")?;
    let module_text = get_str(module, "text")?.to_string();
    if get_str(module, "sha256")? != sha256_hex(module_text.as_bytes()) {
        return Err("artifact decode: module digest mismatch".to_string());
    }
    let summary = get(j, "summary")?;
    Ok(StoredArtifact {
        image: image_from_json(get(j, "image")?)?,
        trace: trace_from_json(get(j, "trace")?)?,
        module_text,
        mode: get_str(summary, "mode")?.to_string(),
        opt: get_str(summary, "opt")?.to_string(),
        degradations: get_u64(summary, "degradations")?,
    })
}

// ---------------------------------------------------------------------------
// Healing results

/// A decoded `"healed"` entry.
#[derive(Debug)]
pub struct StoredHealResult {
    /// The healed image.
    pub image: Image,
    /// The union input set the image was validated against (traced
    /// inputs plus every healed offender, in healing order).
    pub inputs: Vec<Vec<u8>>,
    /// Whether the producing run converged.
    pub converged: bool,
    /// Rounds the producing run took.
    pub rounds: u64,
    /// Guard sites healed by the producing run.
    pub sites_healed: u64,
    /// Guard sites the producing run gave up on.
    pub sites_unhealed: u64,
    /// Lifted functions in the final module.
    pub funcs_total: u64,
    /// Guard-trap attribution from the producing run, in firing order.
    pub events: Vec<GuardEvent>,
}

/// Encode a healed recompilation (one whose `report.healing` is set) as
/// a `"healed"` payload.
pub fn heal_payload(healed: &Recompiled) -> Json {
    let none = HealingReport::default();
    let r = healed.report.healing.as_ref().unwrap_or(&none);
    Json::obj(vec![
        ("image", image_to_json(&healed.image)),
        ("inputs", inputs_to_json(&healed.inputs)),
        (
            "summary",
            Json::obj(vec![
                ("converged", Json::Bool(r.converged)),
                ("rounds", Json::from(r.rounds)),
                ("sites_healed", Json::from(r.sites_healed)),
                ("sites_unhealed", Json::from(r.sites_unhealed)),
                ("funcs_total", Json::from(r.funcs_total)),
            ]),
        ),
        (
            "events",
            Json::Arr(
                r.events
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("round", Json::from(e.round)),
                            ("input", Json::from(e.input)),
                            ("func", Json::from(u64::from(e.func))),
                            ("name", Json::from(e.name.as_str())),
                            ("kind", Json::from(e.kind.as_str())),
                            ("pc", Json::from(u64::from(e.pc))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode a `"healed"` payload.
///
/// # Errors
/// A description of the first structural problem.
pub fn heal_from_json(j: &Json) -> DecodeResult<StoredHealResult> {
    let summary = get(j, "summary")?;
    let mut events = Vec::new();
    for e in get_arr(j, "events")? {
        events.push(GuardEvent {
            round: get_u64(e, "round")?,
            input: get_u64(e, "input")?,
            func: get_u32(e, "func")?,
            name: get_str(e, "name")?.to_string(),
            kind: get_str(e, "kind")?.to_string(),
            pc: get_u32(e, "pc")?,
        });
    }
    Ok(StoredHealResult {
        image: image_from_json(get(j, "image")?)?,
        inputs: inputs_from_json(get(j, "inputs")?)?,
        converged: want(summary.get("converged").and_then(Json::as_bool), "converged")?,
        rounds: get_u64(summary, "rounds")?,
        sites_healed: get_u64(summary, "sites_healed")?,
        sites_unhealed: get_u64(summary, "sites_unhealed")?,
        funcs_total: get_u64(summary, "funcs_total")?,
        events,
    })
}

// ---------------------------------------------------------------------------
// Accumulated refinement facts

/// The cross-run knowledge entry for one image: the union input set ever
/// observed, the merged trace those inputs produced, and the
/// address-keyed refinement facts of the last validated recompilation.
#[derive(Debug, Clone, Default)]
pub struct StoredFacts {
    /// Union input set (sorted, deduplicated — canonical form).
    pub inputs: Vec<Vec<u8>>,
    /// Merged trace of the producing run (used to diff function CFGs
    /// before seeding a [`ReusePlan`] into a fresh recompilation).
    pub trace: Trace,
    /// Address-keyed refinement facts.
    pub plan: ReusePlan,
}

impl StoredFacts {
    /// Build the facts entry for a finished recompilation over `inputs`,
    /// merging with `prior` (an earlier entry for the same image) so the
    /// union input set only ever grows.
    pub fn of(rec: &Recompiled, inputs: &[Vec<u8>], prior: Option<&StoredFacts>) -> StoredFacts {
        let plan = crate::healing::full_reuse_plan(rec);
        let mut all: BTreeSet<Vec<u8>> = inputs.iter().cloned().collect();
        if let Some(p) = prior {
            all.extend(p.inputs.iter().cloned());
        }
        StoredFacts { inputs: all.into_iter().collect(), trace: rec.trace.clone(), plan }
    }
}

fn cells_str(cells: &[RegClass; NUM_CELLS]) -> String {
    cells
        .iter()
        .map(|c| match c {
            RegClass::Saved => 'S',
            RegClass::Argument => 'A',
            RegClass::Clobbered => 'C',
        })
        .collect()
}

fn cells_of(s: &str) -> DecodeResult<[RegClass; NUM_CELLS]> {
    if s.len() != NUM_CELLS {
        return Err("artifact decode: regsave row arity".to_string());
    }
    let mut out = [RegClass::Clobbered; NUM_CELLS];
    for (i, c) in s.chars().enumerate() {
        out[i] = match c {
            'S' => RegClass::Saved,
            'A' => RegClass::Argument,
            'C' => RegClass::Clobbered,
            other => return Err(format!("artifact decode: bad reg class `{other}`")),
        };
    }
    Ok(out)
}

fn inst_pairs_json(m: &BTreeMap<InstId, i32>) -> Json {
    Json::Arr(
        m.iter()
            .map(|(i, off)| {
                Json::Arr(vec![Json::from(u64::from(i.0)), Json::from(i64::from(*off))])
            })
            .collect(),
    )
}

fn inst_pairs_of(j: &Json, what: &str) -> DecodeResult<BTreeMap<InstId, i32>> {
    let mut out = BTreeMap::new();
    for p in want(j.as_arr(), what)? {
        let p = want(p.as_arr(), what)?;
        if p.len() != 2 {
            return Err(format!("artifact decode: {what} arity"));
        }
        let inst = want(p[0].as_u64(), what)?;
        let off = want(p[1].as_i64(), what)?;
        out.insert(
            InstId(u32::try_from(inst).map_err(|_| format!("artifact decode: {what} range"))?),
            i32::try_from(off).map_err(|_| format!("artifact decode: {what} range"))?,
        );
    }
    Ok(out)
}

fn layout_entry_json(addr: u32, fold: &FoldedFunc, layout: &FuncLayout) -> Json {
    Json::obj(vec![
        ("addr", Json::from(u64::from(addr))),
        (
            "fold",
            Json::obj(vec![
                ("sp0", fold.sp0.map_or(Json::Null, |i| Json::from(u64::from(i.0)))),
                ("base_ptrs", inst_pairs_json(&fold.base_ptrs)),
                ("call_esp_off", inst_pairs_json(&fold.call_esp_off)),
            ]),
        ),
        (
            "layout",
            Json::obj(vec![
                (
                    "vars",
                    Json::Arr(
                        layout
                            .vars
                            .iter()
                            .map(|v| {
                                Json::obj(vec![
                                    ("lo", Json::from(i64::from(v.lo))),
                                    ("hi", Json::from(i64::from(v.hi))),
                                    ("align", Json::from(u64::from(v.align))),
                                    (
                                        "members",
                                        Json::Arr(
                                            v.members
                                                .iter()
                                                .map(|i| Json::from(u64::from(i.0)))
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "assignment",
                    Json::Arr(
                        layout
                            .assignment
                            .iter()
                            .map(|(i, (var, delta))| {
                                Json::Arr(vec![
                                    Json::from(u64::from(i.0)),
                                    Json::from(*var as u64),
                                    Json::from(i64::from(*delta)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("stack_args", Json::from(u64::from(layout.stack_args))),
                (
                    "reg_args",
                    Json::Arr(layout.reg_args.iter().map(|r| Json::from(*r as u64)).collect()),
                ),
            ]),
        ),
    ])
}

fn layout_entry_of(j: &Json) -> DecodeResult<(u32, FoldedFunc, FuncLayout)> {
    let addr = get_u32(j, "addr")?;
    let f = get(j, "fold")?;
    let sp0 = match get(f, "sp0")? {
        Json::Null => None,
        v => Some(InstId(
            u32::try_from(want(v.as_u64(), "sp0")?)
                .map_err(|_| "artifact decode: sp0 range".to_string())?,
        )),
    };
    let fold = FoldedFunc {
        sp0,
        base_ptrs: inst_pairs_of(get(f, "base_ptrs")?, "base_ptrs")?,
        call_esp_off: inst_pairs_of(get(f, "call_esp_off")?, "call_esp_off")?,
    };
    let l = get(j, "layout")?;
    let mut vars = Vec::new();
    for v in get_arr(l, "vars")? {
        let mut members = Vec::new();
        for m in get_arr(v, "members")? {
            members.push(InstId(
                u32::try_from(want(m.as_u64(), "member")?)
                    .map_err(|_| "artifact decode: member range".to_string())?,
            ));
        }
        vars.push(StackSlotVar {
            lo: get_i32(v, "lo")?,
            hi: get_i32(v, "hi")?,
            align: get_u32(v, "align")?,
            members,
        });
    }
    let mut assignment = BTreeMap::new();
    for a in get_arr(l, "assignment")? {
        let a = want(a.as_arr(), "assignment")?;
        if a.len() != 3 {
            return Err("artifact decode: assignment arity".to_string());
        }
        let inst = want(a[0].as_u64(), "assignment inst")?;
        let var = want(a[1].as_u64(), "assignment var")?;
        let delta = want(a[2].as_i64(), "assignment delta")?;
        assignment.insert(
            InstId(
                u32::try_from(inst).map_err(|_| "artifact decode: assignment range".to_string())?,
            ),
            (
                var as usize,
                i32::try_from(delta)
                    .map_err(|_| "artifact decode: assignment range".to_string())?,
            ),
        );
    }
    let mut reg_args = Vec::new();
    for r in get_arr(l, "reg_args")? {
        reg_args.push(want(r.as_u64(), "reg arg")? as usize);
    }
    let layout = FuncLayout { vars, assignment, stack_args: get_u32(l, "stack_args")?, reg_args };
    Ok((addr, fold, layout))
}

/// Encode a [`StoredFacts`] as a `"facts"` payload.
pub fn facts_to_json(f: &StoredFacts) -> Json {
    Json::obj(vec![
        ("inputs", inputs_to_json(&f.inputs)),
        ("trace", trace_to_json(&f.trace)),
        ("reuse", Json::Arr(f.plan.reuse.iter().map(|a| Json::from(u64::from(*a))).collect())),
        (
            "regsave",
            Json::Arr(
                f.plan
                    .regsave
                    .iter()
                    .map(|(addr, cells)| {
                        Json::Arr(vec![Json::from(u64::from(*addr)), Json::Str(cells_str(cells))])
                    })
                    .collect(),
            ),
        ),
        (
            "layouts",
            Json::Arr(
                f.plan
                    .layouts
                    .iter()
                    .map(|(addr, (fold, layout))| layout_entry_json(*addr, fold, layout))
                    .collect(),
            ),
        ),
    ])
}

/// Decode a `"facts"` payload.
///
/// # Errors
/// A description of the first structural problem.
pub fn facts_from_json(j: &Json) -> DecodeResult<StoredFacts> {
    let mut plan = ReusePlan::default();
    for a in get_arr(j, "reuse")? {
        plan.reuse.insert(
            u32::try_from(want(a.as_u64(), "reuse addr")?)
                .map_err(|_| "artifact decode: reuse addr range".to_string())?,
        );
    }
    for r in get_arr(j, "regsave")? {
        let r = want(r.as_arr(), "regsave fact")?;
        if r.len() != 2 {
            return Err("artifact decode: regsave fact arity".to_string());
        }
        let addr = want(r[0].as_u64(), "regsave addr")?;
        plan.regsave.insert(
            u32::try_from(addr).map_err(|_| "artifact decode: regsave range".to_string())?,
            cells_of(want(r[1].as_str(), "regsave cells")?)?,
        );
    }
    for l in get_arr(j, "layouts")? {
        let (addr, fold, layout) = layout_entry_of(l)?;
        plan.layouts.insert(addr, (fold, layout));
    }
    Ok(StoredFacts {
        inputs: inputs_from_json(get(j, "inputs")?)?,
        trace: trace_from_json(get(j, "trace")?)?,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_minicc::{compile, Profile};

    const SRC: &str = r#"
        int helper(int a, int b) { return a * b + 3; }
        int main() {
            int x = helper(6, 7);
            printf("%d %d\n", x, helper(x, 2));
            return x & 0x7f;
        }
    "#;

    #[test]
    fn image_round_trips_bit_for_bit() {
        let img = compile(SRC, &Profile::gcc12_o3()).unwrap();
        let back = image_from_json(&image_to_json(&img)).unwrap();
        assert_eq!(img, back);
        // Digest is stable and sensitive.
        assert_eq!(image_digest(&img), image_digest(&back));
        let stripped = img.stripped();
        assert_ne!(image_digest(&img), image_digest(&stripped));
    }

    #[test]
    fn recompiled_image_with_guard_sites_round_trips() {
        // Trace only one side of a branch so the other side compiles to
        // a guard trap — the guard-site table must survive the codec.
        let src = r#"
            int main() {
                if (getchar() == 'x') return 7;
                return 1;
            }
        "#;
        let img = compile(src, &Profile::gcc12_o3()).unwrap().stripped();
        let rec =
            crate::recompile(&crate::Request::new(&img, &[b"q".to_vec()], crate::Mode::Wytiwyg))
                .unwrap();
        assert!(!rec.image.guard_sites.is_empty(), "untraced side must be guarded");
        let back = image_from_json(&image_to_json(&rec.image)).unwrap();
        assert_eq!(rec.image, back);
    }

    #[test]
    fn trace_and_inputs_round_trip() {
        let img = compile(SRC, &Profile::gcc12_o3()).unwrap().stripped();
        let (trace, _) = wyt_lifter::trace_image(&img, &[vec![], b"x".to_vec()]);
        assert_eq!(trace_from_json(&trace_to_json(&trace)).unwrap(), trace);
        let inputs = vec![vec![], b"ab\x00\xff".to_vec()];
        assert_eq!(inputs_from_json(&inputs_to_json(&inputs)).unwrap(), inputs);
    }

    #[test]
    fn artifact_and_facts_round_trip() {
        let img = compile(SRC, &Profile::gcc12_o3()).unwrap().stripped();
        let inputs = vec![Vec::new()];
        let rec =
            crate::recompile(&crate::Request::new(&img, &inputs, crate::Mode::Wytiwyg)).unwrap();

        let payload = artifact_payload(&rec);
        let art = artifact_from_json(&payload).unwrap();
        assert_eq!(art.image, rec.image);
        assert_eq!(art.trace, rec.trace);
        assert_eq!(art.mode, "Wytiwyg");
        assert!(art.module_text.contains("fn "), "module text is printed IR");

        let facts = StoredFacts::of(&rec, &inputs, None);
        assert!(!facts.plan.reuse.is_empty(), "every lifted function contributes facts");
        assert!(!facts.plan.regsave.is_empty());
        let back = facts_from_json(&facts_to_json(&facts)).unwrap();
        // Canonical encoding: re-encoding the decoded value is identical.
        assert_eq!(facts_to_json(&back).to_string(), facts_to_json(&facts).to_string());
        assert_eq!(back.inputs, facts.inputs);
        assert_eq!(back.trace, facts.trace);
    }

    #[test]
    fn decoders_reject_structural_damage() {
        let img = compile(SRC, &Profile::gcc12_o3()).unwrap();
        let mut j = image_to_json(&img);
        assert!(image_from_json(&j).is_ok());
        if let Json::Obj(members) = &mut j {
            members.retain(|(k, _)| k != "entry");
        }
        assert!(image_from_json(&j).is_err(), "missing field must be rejected");
        assert!(image_from_json(&Json::Null).is_err());
        assert!(trace_from_json(&Json::obj(vec![("edges", Json::Null)])).is_err());
        let ext_call = |arity: u64| {
            let call = Json::Arr(vec![Json::from(16u64), Json::from(0u64), Json::from(arity)]);
            Json::obj(vec![("edges", Json::Arr(vec![])), ("ext_calls", Json::Arr(vec![call]))])
        };
        assert!(trace_from_json(&ext_call(3)).is_ok());
        assert!(trace_from_json(&ext_call(1 << 40)).is_err(), "an arity past u16 is refused");
        assert!(facts_from_json(&Json::obj(vec![])).is_err());
        assert!(bytes_of(&Json::from("xyz"), "t").is_err(), "odd/invalid hex rejected");
    }
}
