//! # wyt-bench — regenerating the paper's evaluation
//!
//! Shared measurement harness for the report binaries:
//!
//! - `table1` — normalized runtime of recompiled binaries relative to
//!   their input binaries, per benchmark × compiler configuration ×
//!   {no-symbolize, symbolize}, plus the SecondWrite baseline (paper
//!   Table 1);
//! - `figure6` — runtimes normalized to the native GCC 12.2 -O3 build
//!   (paper Fig. 6);
//! - `figure7` — stack-recovery accuracy per benchmark (paper Fig. 7).
//!
//! "Runtime" is the deterministic cycle count of `wyt-emu` (see
//! DESIGN.md §5): the paper uses wall-clock purely as an IR-quality
//! proxy, and a deterministic cost model preserves the comparisons while
//! making them exactly reproducible.

pub mod diff;
pub mod timing;

use std::sync::atomic::{AtomicU64, Ordering};
use wyt_core::{recompile, validate, Mode, Request};
use wyt_emu::run_image;
use wyt_isa::image::Image;
use wyt_minicc::{compile, Profile};
use wyt_spec::Benchmark;

/// Cycle measurements for one benchmark under one compiler profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigMeasurement {
    /// Profile name.
    pub config: &'static str,
    /// Native input-binary cycles on the ref input.
    pub native: u64,
    /// Recompiled without symbolization.
    pub nosym: Result<u64, String>,
    /// Recompiled with full WYTIWYG.
    pub wyt: Result<u64, String>,
}

impl ConfigMeasurement {
    /// nosym / native.
    pub fn nosym_ratio(&self) -> Option<f64> {
        self.nosym.as_ref().ok().map(|c| *c as f64 / self.native as f64)
    }

    /// wyt / native.
    pub fn wyt_ratio(&self) -> Option<f64> {
        self.wyt.as_ref().ok().map(|c| *c as f64 / self.native as f64)
    }
}

/// Build the input binary for a benchmark under a profile.
pub fn build_input(bench: &Benchmark, profile: &Profile) -> Image {
    compile(bench.source, profile)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", bench.name, profile.name))
}

/// Run the ref input natively and return cycles (panics on trap).
pub fn native_cycles(img: &Image, bench: &Benchmark) -> u64 {
    let r = run_image(img, bench.ref_input());
    assert!(r.ok(), "{}: native trap {:?}", bench.name, r.trap);
    r.cycles
}

/// Recompile in `mode` and measure the ref input, validating behaviour on
/// every traced input first.
pub fn recompiled_cycles(img: &Image, bench: &Benchmark, mode: Mode) -> Result<u64, String> {
    let stripped = img.stripped();
    let inputs = bench.trace_inputs();
    let out = recompile(&Request::new(&stripped, &inputs, mode)).map_err(|e| e.to_string())?;
    note_degradations(out.report.degradations.len());
    note_healing(&out.report);
    validate(&stripped, &out.image, &inputs).map_err(|e| e.to_string())?;
    let r = run_image(&out.image, bench.ref_input());
    if !r.ok() {
        return Err(format!("recompiled trap: {:?}", r.trap));
    }
    Ok(r.cycles)
}

/// Functions demoted down the degradation ladder across every recompile
/// this harness drove. Zero on the clean benchmark corpus — the ladder
/// only engages under corrupted inputs, and the bench JSONs record the
/// count so a regression here is visible in `results/`.
static DEGRADATIONS: AtomicU64 = AtomicU64::new(0);

fn note_degradations(n: usize) {
    DEGRADATIONS.fetch_add(n as u64, Ordering::Relaxed);
}

/// Total degraded functions observed since startup (or the last reset).
pub fn degradations_observed() -> u64 {
    DEGRADATIONS.load(Ordering::Relaxed)
}

/// Reset the degradation accumulator (report binaries call this once at
/// startup so the JSON reflects exactly their own run).
pub fn reset_degradations() {
    DEGRADATIONS.store(0, Ordering::Relaxed);
}

/// Self-healing activity across every recompile this harness drove:
/// healing rounds run and guard sites healed. Zero on the clean
/// benchmark corpus — every ref input is also traced, so no guard ever
/// fires; the bench JSONs record the pair so a coverage regression (a
/// bench suddenly needing healing) is visible in `results/`.
static HEALING_ROUNDS: AtomicU64 = AtomicU64::new(0);
static HEALING_SITES: AtomicU64 = AtomicU64::new(0);

fn note_healing(rep: &wyt_obs::PipelineReport) {
    if let Some(h) = &rep.healing {
        HEALING_ROUNDS.fetch_add(h.rounds, Ordering::Relaxed);
        HEALING_SITES.fetch_add(h.sites_healed, Ordering::Relaxed);
    }
}

/// Healing `(rounds, sites healed)` observed since startup or last reset.
pub fn healing_observed() -> (u64, u64) {
    (HEALING_ROUNDS.load(Ordering::Relaxed), HEALING_SITES.load(Ordering::Relaxed))
}

/// Reset the healing accumulators (report binaries call this once at
/// startup so the JSON reflects exactly their own run).
pub fn reset_healing() {
    HEALING_ROUNDS.store(0, Ordering::Relaxed);
    HEALING_SITES.store(0, Ordering::Relaxed);
}

/// SecondWrite-baseline cycles (errors reproduce the paper's "—" cells).
pub fn secondwrite_cycles(img: &Image, bench: &Benchmark) -> Result<u64, String> {
    let stripped = img.stripped();
    let inputs = bench.trace_inputs();
    let out = wyt_core::recompile_secondwrite(&stripped, &inputs).map_err(|e| e.to_string())?;
    note_degradations(out.report.degradations.len());
    note_healing(&out.report);
    validate(&stripped, &out.image, &inputs).map_err(|e| e.to_string())?;
    let r = run_image(&out.image, bench.ref_input());
    if !r.ok() {
        return Err(format!("recompiled trap: {:?}", r.trap));
    }
    Ok(r.cycles)
}

/// Measure one benchmark under one profile in both modes.
pub fn measure(bench: &Benchmark, profile: &Profile) -> ConfigMeasurement {
    let img = build_input(bench, profile);
    let native = native_cycles(&img, bench);
    ConfigMeasurement {
        config: profile.name,
        native,
        nosym: recompiled_cycles(&img, bench, Mode::NoSymbolize),
        wyt: recompiled_cycles(&img, bench, Mode::Wytiwyg),
    }
}

/// Thread count and wall-clock record for one bench grid, emitted under
/// the `"par"` key of the bench JSON.
#[derive(Debug, Clone)]
pub struct ParMeta {
    /// Worker threads the measured grid ran on (1 = serial).
    pub threads: usize,
    /// Wall time of the measured (possibly parallel) grid.
    pub wall_ns: u64,
    /// Wall time of the serial verification re-run, when one happened.
    pub serial_wall_ns: Option<u64>,
}

impl ParMeta {
    /// `{threads, wall_ns, serial_wall_ns|null, speedup|null}`.
    pub fn to_json(&self) -> wyt_obs::Json {
        use wyt_obs::Json;
        let speedup = self.serial_wall_ns.map(|s| s as f64 / self.wall_ns.max(1) as f64);
        Json::obj(vec![
            ("threads", Json::from(self.threads as u64)),
            ("wall_ns", Json::from(self.wall_ns)),
            ("serial_wall_ns", self.serial_wall_ns.map_or(Json::Null, Json::from)),
            ("speedup", speedup.map_or(Json::Null, Json::from)),
        ])
    }
}

/// Run a benchmark×config grid through `f` on the `wyt-par` pool and
/// return index-ordered results plus the timing record for the JSON
/// emitters.
///
/// With more than one thread the grid is then re-run fully serially
/// (thread count forced to 1 for the duration, observability routed to
/// a discarded thread-local scope so nothing is double-counted) and the
/// two result vectors are asserted equal — the in-binary determinism
/// gate, which also yields an honest serial wall-clock baseline.
pub fn timed_grid<J, R>(jobs: &[J], f: impl Fn(usize, &J) -> R + Sync) -> (Vec<R>, ParMeta)
where
    J: Sync,
    R: Send + PartialEq,
{
    let threads = wyt_par::threads();
    let t0 = std::time::Instant::now();
    let results = wyt_par::par_map(jobs, &f);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut serial_wall_ns = None;
    if threads > 1 {
        wyt_par::set_threads(1);
        // The verification re-run must not double-count demotions or
        // healing activity either.
        let degradations_before = DEGRADATIONS.load(Ordering::Relaxed);
        let healing_before = healing_observed();
        let t1 = std::time::Instant::now();
        let (serial, _discarded_obs) = wyt_obs::with_local(|| {
            jobs.iter().enumerate().map(|(i, j)| f(i, j)).collect::<Vec<R>>()
        });
        serial_wall_ns = Some(t1.elapsed().as_nanos() as u64);
        DEGRADATIONS.store(degradations_before, Ordering::Relaxed);
        HEALING_ROUNDS.store(healing_before.0, Ordering::Relaxed);
        HEALING_SITES.store(healing_before.1, Ordering::Relaxed);
        wyt_par::set_threads(threads);
        assert!(serial == results, "parallel grid diverged from its serial re-run");
    }
    (results, ParMeta { threads, wall_ns, serial_wall_ns })
}

/// Assemble the standard bench-JSON body: the bench's own rows, the
/// stage-time breakdown (span totals and counters) accumulated in the
/// observability sink over the run, the thread/wall-time record of the
/// grid, the degradation/healing accumulators, and any bench-specific
/// `extra` sections appended after the standard keys.
///
/// Report binaries call [`wyt_obs::set_enabled`] at startup so the
/// recompiles they drive populate the sink; this serializes it.
pub fn bench_json_body(
    name: &str,
    rows: wyt_obs::Json,
    par: &ParMeta,
    extra: Vec<(&str, wyt_obs::Json)>,
) -> wyt_obs::Json {
    let mut members = vec![
        ("bench", wyt_obs::Json::from(name)),
        ("rows", rows),
        ("obs", wyt_obs::snapshot().to_json()),
        ("par", par.to_json()),
        ("degradations", wyt_obs::Json::from(degradations_observed())),
        ("healing", {
            let (rounds, healed) = healing_observed();
            wyt_obs::Json::obj(vec![
                ("rounds", wyt_obs::Json::from(rounds)),
                ("sites_healed", wyt_obs::Json::from(healed)),
            ])
        }),
    ];
    members.extend(extra);
    wyt_obs::Json::obj(members)
}

/// Write `<dir>/BENCH_<name>.json` (pretty, newline-terminated),
/// creating `dir` as needed. Returns the path written.
pub fn write_bench_json(
    dir: &std::path::Path,
    name: &str,
    body: &wyt_obs::Json,
) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{}\n", body.pretty()))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Output-directory override for the bench binaries. CI points this at
/// a scratch directory so a fresh run can be diffed against the
/// committed `results/` without clobbering them.
pub const OUT_ENV: &str = "WYT_BENCH_OUT";

/// The directory bench JSONs go to: `$WYT_BENCH_OUT` or `results/`.
pub fn bench_out_dir() -> std::path::PathBuf {
    std::env::var(OUT_ENV).map_or_else(|_| "results".into(), std::path::PathBuf::from)
}

/// Write `BENCH_<name>.json` with the standard body (no extra sections)
/// to [`bench_out_dir`]. Returns the path written.
pub fn emit_bench_json(name: &str, rows: wyt_obs::Json, par: &ParMeta) -> std::path::PathBuf {
    let body = bench_json_body(name, rows, par, Vec::new());
    write_bench_json(&bench_out_dir(), name, &body)
}

/// A ratio as JSON: failures become `null` (the paper's "—" cells).
pub fn ratio_json(r: Option<f64>) -> wyt_obs::Json {
    r.map_or(wyt_obs::Json::Null, wyt_obs::Json::from)
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Format a ratio cell, using "—" for failures like the paper.
pub fn cell(r: &Result<u64, String>, native: u64) -> String {
    match r {
        Ok(c) => format!("{:.2}", *c as f64 / native as f64),
        Err(_) => "   —".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_behaves() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn cell_formats_failures_as_dash() {
        assert_eq!(cell(&Ok(150), 100), "1.50");
        assert_eq!(cell(&Err("x".into()), 100), "   —");
    }
}
