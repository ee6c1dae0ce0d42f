//! # wyt-bench — regenerating the paper's evaluation
//!
//! Shared measurement harness for three binaries:
//!
//! - `paper` — runs the evaluation's job grid ([`grid`]) once and
//!   renders Table 1 (normalized runtime of recompiled binaries per
//!   benchmark × compiler configuration × {no-symbolize, symbolize},
//!   plus the SecondWrite baseline), Figure 6 (runtimes normalized to
//!   the native GCC 12.2 -O3 build), Figure 7 (stack-recovery accuracy
//!   per benchmark) and the recovery-vs-optimization ablation from it;
//! - `report` — the observability report and the bench JSON gates
//!   (`--check`, `--check-trace`, `--diff`);
//! - `wyt-batch` — the store-backed batch frontend and its smoke, chaos
//!   and `BENCH_store.json` runs.
//!
//! "Runtime" is the deterministic cycle count of `wyt-emu` (see
//! DESIGN.md §5): the paper uses wall-clock purely as an IR-quality
//! proxy, and a deterministic cost model preserves the comparisons while
//! making them exactly reproducible.

pub mod diff;
pub mod grid;
pub mod timing;

use std::sync::atomic::{AtomicU64, Ordering};

/// Functions demoted down the degradation ladder across every recompile
/// this harness drove. Zero on the clean benchmark corpus — the ladder
/// only engages under corrupted inputs, and the bench JSONs record the
/// count so a regression here is visible in `results/`.
static DEGRADATIONS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn note_degradations(n: usize) {
    DEGRADATIONS.fetch_add(n as u64, Ordering::Relaxed);
}

/// Total degraded functions observed since startup.
pub fn degradations_observed() -> u64 {
    DEGRADATIONS.load(Ordering::Relaxed)
}

/// Self-healing activity across every recompile this harness drove:
/// healing rounds run and guard sites healed. Zero on the clean
/// benchmark corpus — every ref input is also traced, so no guard ever
/// fires; the bench JSONs record the pair so a coverage regression (a
/// bench suddenly needing healing) is visible in `results/`.
static HEALING_ROUNDS: AtomicU64 = AtomicU64::new(0);
static HEALING_SITES: AtomicU64 = AtomicU64::new(0);

pub(crate) fn note_healing(rep: &wyt_obs::PipelineReport) {
    if let Some(h) = &rep.healing {
        HEALING_ROUNDS.fetch_add(h.rounds, Ordering::Relaxed);
        HEALING_SITES.fetch_add(h.sites_healed, Ordering::Relaxed);
    }
}

/// Healing `(rounds, sites healed)` observed since startup.
pub fn healing_observed() -> (u64, u64) {
    (HEALING_ROUNDS.load(Ordering::Relaxed), HEALING_SITES.load(Ordering::Relaxed))
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

/// A ratio as JSON: failures become `null` (the paper's "—" cells).
pub fn ratio_json(r: Option<f64>) -> wyt_obs::Json {
    r.map_or(wyt_obs::Json::Null, wyt_obs::Json::from)
}

/// Geometric mean of a column's successful cells (failures are `None`);
/// `None` when every cell failed.
pub fn geomean(cells: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    let ok: Vec<f64> = cells.into_iter().flatten().collect();
    (!ok.is_empty()).then(|| (ok.iter().map(|x| x.ln()).sum::<f64>() / ok.len() as f64).exp())
}

/// Format a ratio cell to two decimals, with "—" for a failure like the
/// paper.
pub fn fmt_ratio(r: Option<f64>) -> String {
    r.map_or_else(|| "—".to_string(), |x| format!("{x:.2}"))
}

/// Format a column's geomean cell: "—" when no cell of it succeeded.
pub fn fmt_geomean(cells: impl IntoIterator<Item = Option<f64>>) -> String {
    fmt_ratio(geomean(cells))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_behaves() {
        assert!((geomean([Some(1.0), None, Some(4.0)]).unwrap() - 2.0).abs() < 1e-9);
        assert!((geomean([Some(2.0); 3]).unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(geomean([None, None]), None);
    }

    #[test]
    fn cell_formats_failures_as_dash() {
        assert_eq!(fmt_ratio(Some(1.5)), "1.50");
        assert_eq!(fmt_ratio(None), "—");
        assert_eq!(fmt_geomean([Some(1.0), Some(4.0)]), "2.00");
        assert_eq!(fmt_geomean([None]), "—");
    }
}
