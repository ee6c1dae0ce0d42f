//! The untraced phase: set-up, timed `run_batch` passes with tracing
//! off, then the output checks and the end-to-end metrics.
//!
//! Nothing but `run_batch` runs inside a timed pass. The checks (store
//! entry digests, the original binary's reference runs, cycle counts)
//! run between passes and are excluded from every timing.

use crate::report::{geomean, median, quantile, Metric};
use crate::workload::Workload;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wyt_core::artifact::artifact_from_json;
use wyt_core::{run_batch, BatchJob, BatchJobResult, JobOutcome};
use wyt_emu::run_image;
use wyt_obs::Json;
use wyt_store::{sha256_hex, Lookup, Store};

/// Set-up repeats until both floors are met (at most [`SETUP_MAX`]);
/// the reported `setup_s` is their median. A millisecond set-up repeated
/// over a whole second samples the machine's speed over that second, not
/// over one instant. A warm fill of seconds runs [`SETUP_MIN`] times:
/// a process's first `run_batch` pass is often its slowest, and the
/// median of five leaves it out.
const SETUP_MIN: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX: usize = 2000;

/// A per-process scratch directory for stores, removed on drop.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Create `<dir>/<pid>`.
    ///
    /// # Errors
    /// Directory creation failures.
    pub fn new(dir: &Path) -> std::io::Result<Scratch> {
        let root = dir.join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A fresh, empty store under `tag`.
    pub fn fresh_store(&self, tag: &str) -> Store {
        let dir = self.root.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(&dir).unwrap_or_else(|e| panic!("open scratch store {}: {e}", dir.display()))
    }

    /// Delete the store under `tag`.
    pub fn remove(&self, tag: &str) {
        let _ = std::fs::remove_dir_all(self.root.join(tag));
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The store's on-disk path of the `"artifact"` entry for `key`.
pub fn entry_path(store: &Store, key: &str) -> PathBuf {
    let shard = key.get(..2).unwrap_or("xx");
    store.root().join("objects").join(shard).join(format!("{key}.artifact.json"))
}

/// SHA-256 of the raw `"artifact"` entry file for `key`, or `None` if
/// it is missing. Entries are a pure function of (key, stamp, payload),
/// so equal digests mean equal payloads.
pub fn entry_digest(store: &Store, key: &str) -> Option<String> {
    std::fs::read(entry_path(store, key)).ok().map(|b| sha256_hex(&b))
}

/// A job's stored artifact, checked against the original binary.
pub struct Checked {
    /// Digest of the rest of the payload: lifted module, trace, summary.
    pub rest_digest: String,
    /// Recompiled text bytes.
    pub text_bytes: u64,
    /// Σ recompiled ÷ Σ original `wyt-emu` cycles over the job's inputs.
    pub cycles_ratio: f64,
}

/// Decode the artifact stored for `job` under `key` and replay its image
/// against the *original* binary on every traced input: exit code and
/// output must match. The reference is the original's own run,
/// independent of the recompiler.
///
/// # Errors
/// What was missing, malformed or different.
pub fn check_job(store: &Store, key: &str, job: &BatchJob) -> Result<Checked, String> {
    let Lookup::Hit(payload) = store.get("artifact", key) else {
        return Err("no readable store entry".to_string());
    };
    let art = artifact_from_json(&payload).map_err(|e| format!("entry does not decode: {e}"))?;
    let (mut native, mut recompiled) = (0u64, 0u64);
    for (k, input) in job.inputs.iter().enumerate() {
        let a = run_image(&job.image, input.clone());
        let b = run_image(&art.image, input.clone());
        if !a.ok() || !b.ok() || a.exit_code != b.exit_code || a.output != b.output {
            return Err(format!(
                "input {k}: recompiled run differs from the original (exit {} vs {}, trap {:?} vs {:?})",
                a.exit_code, b.exit_code, a.trap, b.trap
            ));
        }
        native += a.cycles;
        recompiled += b.cycles;
    }
    let part = |k: &str| payload.get(k).map_or(String::new(), Json::to_string);
    let rest = format!("{}\n{}\n{}", part("module"), part("trace"), part("summary"));
    Ok(Checked {
        rest_digest: sha256_hex(rest.as_bytes()),
        text_bytes: art.image.text.len() as u64,
        cycles_ratio: recompiled as f64 / native.max(1) as f64,
    })
}

/// Hold `store`'s entry for job `i` (`job`) to the reference: it must be
/// byte-identical, or differ only in the image's instruction order.
/// `wyt-backend` emits the loads of register-pinned parameters in
/// `HashMap` order (`lower_function`'s `pinned_params` loop), so the same
/// module can lower to images that differ in instruction order. Such an
/// entry is accepted only if the lifted module, trace and summary are
/// identical and its image still behaves like the original. Returns
/// `true` for a reordered image.
///
/// # Errors
/// Why the entry is neither.
pub fn check_entry(store: &Store, i: usize, job: &BatchJob, r: &Reference) -> Result<bool, String> {
    let want = r.checked[i].as_ref().ok_or("the reference output failed its checks")?;
    if entry_digest(store, &r.keys[i]).as_ref() == Some(&r.entry_digests[i]) {
        return Ok(false);
    }
    let got = check_job(store, &r.keys[i], job)?;
    if got.rest_digest != want.rest_digest {
        return Err("entry differs from the reference beyond its image".to_string());
    }
    Ok(true)
}

/// One timed pass: its wall time and `run_batch`'s rows.
pub struct Pass {
    /// Wall time of the `run_batch` call.
    pub wall_ns: u64,
    /// One row per job, in queue order.
    pub rows: Vec<BatchJobResult>,
}

/// What `run_batch` produced for each job: the reference the later
/// passes and the traced phase are held to.
pub struct Reference {
    /// Content key of each job.
    pub keys: Vec<String>,
    /// Digest of each job's raw store entry.
    pub entry_digests: Vec<String>,
    /// Each job's checked output; `None` if it failed a check.
    pub checked: Vec<Option<Checked>>,
}

impl Reference {
    /// Check every job's entry in `store`, which holds the reference.
    fn of(store: &Store, jobs: &[BatchJob], keys: Vec<String>) -> Reference {
        let entry_digests =
            keys.iter().map(|k| entry_digest(store, k).unwrap_or_default()).collect();
        let checked = wyt_par::par_map(jobs, |i, job| {
            check_job(store, &keys[i], job)
                .map_err(|e| eprintln!("wyt-benchmark: job {}: {e}", job.name))
                .ok()
        });
        Reference { keys, entry_digests, checked }
    }
}

/// Job executions and what their checks found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Job executions, the warm fills included.
    pub attempted: u64,
    /// Job executions that failed a check.
    pub failed: u64,
    /// Job executions whose image differed from the reference only in
    /// instruction order (see [`check_entry`]).
    pub reordered: u64,
}

impl Tally {
    /// Check one `run_batch` call's rows against `store` and `r`. Every
    /// row must have `want` as its outcome (a cold pass misses on every
    /// job, a warm one hits) and a store entry that passes
    /// [`check_entry`].
    fn check(
        &mut self,
        store: &Store,
        jobs: &[BatchJob],
        rows: &[BatchJobResult],
        want: JobOutcome,
        r: &Reference,
    ) {
        for (i, row) in rows.iter().enumerate() {
            let verdict = if row.outcome == want {
                check_entry(store, i, &jobs[i], r)
            } else {
                Err(format!("outcome {} ({:?})", row.outcome.name(), row.error))
            };
            match verdict {
                Ok(reordered) => self.reordered += u64::from(reordered),
                Err(e) => {
                    eprintln!("wyt-benchmark: job {}: {e}", row.name);
                    self.failed += 1;
                }
            }
            self.attempted += 1;
        }
    }
}

/// The untraced phase's result.
pub struct Untraced {
    /// The job queue (from the last set-up).
    pub jobs: Vec<BatchJob>,
    /// Each set-up's wall time, seconds.
    pub setup_s: Vec<f64>,
    /// The timed passes.
    pub passes: Vec<Pass>,
    /// The store set-up filled (warm workloads only).
    pub warm_store: Option<Store>,
    /// The reference outputs (the first fill's, or the first pass's).
    pub reference: Reference,
    /// What the checks of every pass and fill found.
    pub tally: Tally,
}

fn keys(rows: &[BatchJobResult]) -> Vec<String> {
    rows.iter().map(|r| r.key.clone()).collect()
}

/// Run set-up and the timed passes of `w`, checking every output.
/// Passes run while another one still fits in `seconds`, at least one;
/// a smoke-sized run makes exactly one.
///
/// Set-up builds the job queue and, for a warm workload, fills a fresh
/// store with one cold `run_batch` pass, so `setup_s` gates that fill.
/// It repeats (see [`SETUP_MIN`]); the first fill's store serves the
/// passes and is the reference, and the other fills are held to it.
pub fn run(w: Workload, seed: u64, smoke: bool, seconds: f64, scratch: &Scratch) -> Untraced {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut jobs = Vec::new();
    let mut fills = Vec::new();
    let min_s = if smoke { 0.0 } else { SETUP_MIN_S };
    while setup_s.len() < SETUP_MAX
        && (setup_s.len() < SETUP_MIN || setup_s.iter().sum::<f64>() < min_s)
    {
        let t = Instant::now();
        jobs = w.jobs(seed, smoke);
        let fill = w.warm().then(|| {
            let tag = format!("fill-{}", setup_s.len());
            let store = scratch.fresh_store(&tag);
            let rows = run_batch(&store, &jobs).jobs;
            (tag, store, rows)
        });
        setup_s.push(t.elapsed().as_secs_f64());
        fills.extend(fill);
    }

    // Checks, untimed. A cold workload's reference is its first pass.
    let mut tally = Tally::default();
    let mut reference = None;
    let mut warm_store = None;
    for (k, (tag, store, rows)) in fills.into_iter().enumerate() {
        let r = reference.get_or_insert_with(|| Reference::of(&store, &jobs, keys(&rows)));
        tally.check(&store, &jobs, &rows, JobOutcome::Cold, r);
        if k == 0 {
            warm_store = Some(store);
        } else {
            drop(store);
            scratch.remove(&tag);
        }
    }
    let mut passes: Vec<Pass> = Vec::new();
    let mut measured_ns = 0u64;
    loop {
        let tag = format!("pass-{}", passes.len());
        let fresh = (!w.warm()).then(|| scratch.fresh_store(&tag));
        let store = fresh.as_ref().or(warm_store.as_ref()).expect("a store for every pass");
        let t = Instant::now();
        let rep = run_batch(store, &jobs);
        let wall_ns = t.elapsed().as_nanos() as u64;
        measured_ns += wall_ns;

        let r = reference.get_or_insert_with(|| Reference::of(store, &jobs, keys(&rep.jobs)));
        let want = if w.warm() { JobOutcome::Warm } else { JobOutcome::Cold };
        tally.check(store, &jobs, &rep.jobs, want, r);
        drop(fresh);
        scratch.remove(&tag);
        passes.push(Pass { wall_ns, rows: rep.jobs });
        let mean = measured_ns as f64 / passes.len() as f64;
        if smoke || (measured_ns as f64 + mean) / 1e9 > seconds {
            break;
        }
    }
    Untraced {
        jobs,
        setup_s,
        passes,
        warm_store,
        reference: reference.expect("the first fill or pass sets the reference"),
        tally,
    }
}

/// The end-to-end metrics of `u`: the `BENCHMARK.json` list, then the
/// counts that gate correctness.
pub fn end_to_end(w: Workload, u: &Untraced) -> Vec<Metric> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_pass_rate: Vec<f64> =
        u.passes.iter().map(|p| p.rows.len() as f64 / (p.wall_ns as f64 / 1e9)).collect();
    let all_ms: Vec<f64> =
        u.passes.iter().flat_map(|p| p.rows.iter().map(|r| ms(r.wall_ns))).collect();
    let pct = |name: &str, q: f64| {
        let per_pass = u
            .passes
            .iter()
            .map(|p| quantile(&p.rows.iter().map(|r| ms(r.wall_ns)).collect::<Vec<_>>(), q))
            .collect();
        Metric {
            n: Some(all_ms.len()),
            ..Metric::timed(name, quantile(&all_ms, q), "ms", per_pass)
        }
    };
    let checked: Vec<&Checked> = u.reference.checked.iter().flatten().collect();
    let cycles_ratio = geomean(&checked.iter().map(|c| c.cycles_ratio).collect::<Vec<_>>());
    let text_bytes: u64 = checked.iter().map(|c| c.text_bytes).sum();
    let rows = || u.passes.iter().flat_map(|p| &p.rows);
    // Passes repeat the same deterministic work, so a pass slower than
    // the fastest was slowed from outside the program: by the other
    // tenants of a shared machine, whose load comes in spells that can
    // cover several passes. Over ten runs the fastest pass's rate spread
    // about half as much as the median pass's on the suites (README.md).
    let best_rate = per_pass_rate.iter().copied().fold(0.0, f64::max);
    let mut out = vec![
        Metric::timed("setup_s", median(&u.setup_s), "s", u.setup_s.clone()),
        Metric {
            n: Some(u.passes.len()),
            ..Metric::timed("jobs_per_s", best_rate, "jobs/s", per_pass_rate)
        },
        pct("job_p50_ms", 0.5),
        pct("job_p90_ms", 0.9),
        pct("job_p99_ms", 0.99),
        Metric::exact("cycles_ratio_geomean", cycles_ratio, "ratio"),
        Metric::exact("text_bytes", text_bytes as f64, "bytes"),
        Metric::exact("fail_frac", u.tally.failed as f64 / u.tally.attempted.max(1) as f64, "frac"),
    ];
    if w.warm() {
        let hits = rows().filter(|r| r.warm).count() as f64;
        out.push(Metric::exact("warm_hit_frac", hits / rows().count() as f64, "frac"));
    }
    let degraded = u.passes[0].rows.iter().map(|r| r.degradations).sum::<u64>();
    out.push(Metric::exact("degraded_funcs", degraded as f64, "count"));
    out.push(Metric::timed("reordered_images", u.tally.reordered as f64, "count", Vec::new()));
    out
}

/// `par.busy_frac` per pass: Σ job wall ÷ (threads × pass wall).
pub fn busy_frac(u: &Untraced, threads: usize) -> Vec<f64> {
    u.passes
        .iter()
        .map(|p| {
            let busy: u64 = p.rows.iter().map(|r| r.wall_ns).sum();
            busy as f64 / (threads as f64 * p.wall_ns as f64)
        })
        .collect()
}
