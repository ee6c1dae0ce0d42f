//! Batch recompilation frontend over the content-addressed artifact
//! store (`wyt-store`): feed the SPEC-shaped suite through
//! [`wyt_core::run_batch`] twice against one store and record how much
//! the second, warm pass costs relative to the first, cold one.
//!
//! ```sh
//! cargo run --release -p wyt-bench --bin wyt-batch               # full suite
//! WYT_STORE=/tmp/s cargo run ... --bin wyt-batch -- --smoke cold --out /tmp/c
//! WYT_STORE=/tmp/s cargo run ... --bin wyt-batch -- --smoke warm --out /tmp/w
//! ```
//!
//! **Default mode** builds every `wyt_spec` benchmark under GCC 12 -O3,
//! runs the queue cold and then warm against a scratch store (or
//! `WYT_STORE` if set), and writes `results/BENCH_store.json`: per-job
//! cold/warm timings, their phase breakdowns and hit flags plus the
//! store's counter totals.
//! `report --check` gates the schema.
//!
//! **Smoke mode** (`--smoke cold|warm --out DIR`) runs a small fixed
//! job subset once against the store named by `WYT_STORE` and writes
//! `DIR/BENCH_store.json` plus `DIR/images.sha` (one content digest per
//! produced image). `scripts/ci.sh` runs `cold` then `warm` against the
//! same store and `cmp`s the two digest files — the warm path must
//! serve byte-identical images. `warm` exits nonzero unless every job
//! was served from the store; both modes exit nonzero on any job error
//! or store corruption.
//!
//! **Chaos mode** (`--chaos SEED --out DIR`) is the CI supervision
//! gate: the smoke queue runs once on a clean scratch store
//! (`DIR/images.sha`) and once on a scratch store whose filesystem
//! injects seeded transient faults (`DIR/images_chaos.sha`) — every
//! fault must be absorbed by the store's retries, so `scripts/ci.sh`
//! `cmp`s the two digest files. The binary then walks the kill-point
//! matrix: a `put` interrupted at every filesystem-operation boundary
//! must leave a store that fsck-at-reopen repairs to a correct
//! cold-serving state, byte-identical to a never-crashed reference.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use wyt_bench::{bench_json_body, write_bench_json, ParMeta};
use wyt_core::{image_digest, recompile_stored, run_batch, BatchJob, BatchReport, Mode};
use wyt_minicc::{compile, Profile};
use wyt_obs::Json;
use wyt_opt::OptLevel;
use wyt_store::{FaultFs, FaultPlan, Lookup, Store};

/// The benchmarks the CI smoke gate runs: the three cheapest of the
/// suite, so a cold+warm double pass stays fast on one core.
const SMOKE_BENCHES: [&str; 3] = ["mcf", "sjeng", "libquantum"];

/// Build the batch queue. Smoke jobs trace only the train inputs (the
/// ref inputs are the expensive part and add nothing to a cache gate).
fn build_jobs(smoke: bool) -> Vec<BatchJob> {
    let profile = Profile::gcc12_o3();
    wyt_spec::suite()
        .into_iter()
        .filter(|b| !smoke || SMOKE_BENCHES.contains(&b.name))
        .map(|b| BatchJob {
            name: b.name.to_string(),
            image: compile(b.source, &profile)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name))
                .stripped(),
            inputs: if smoke { b.train_inputs() } else { b.trace_inputs() },
            mode: Mode::Wytiwyg,
            opt: OptLevel::Full,
        })
        .collect()
}

/// `true` if any job row carries an error (printed to stderr).
fn report_errors(pass: &str, rep: &BatchReport) -> bool {
    let mut any = false;
    for row in &rep.jobs {
        if let Some(e) = &row.error {
            eprintln!("wyt-batch: {pass} {}: {e}", row.name);
            any = true;
        }
    }
    any
}

/// Full-suite mode: cold pass, warm pass, `BENCH_store.json`.
fn full_run() -> ExitCode {
    let (store, scratch) = match Store::open_env() {
        Some(r) => (r.expect("WYT_STORE must be usable"), None),
        None => {
            let dir = std::env::temp_dir().join(format!("wyt-batch-{}", std::process::id()));
            (Store::open(&dir).expect("scratch store"), Some(dir))
        }
    };
    let counters_base = store.counters();
    let jobs = build_jobs(false);
    let t0 = Instant::now();
    let cold = run_batch(&store, &jobs);
    let warm = run_batch(&store, &jobs);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let failed = report_errors("cold", &cold) | report_errors("warm", &warm);

    println!("wyt-batch: {} jobs, cold then warm ({} threads)\n", jobs.len(), warm.threads);
    println!("{:<12} {:>12} {:>12} {:>8}  key", "job", "cold_ms", "warm_ms", "hit");
    let mut rows: Vec<Json> = Vec::new();
    for (c, w) in cold.jobs.iter().zip(&warm.jobs) {
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>8}  {}…",
            c.name,
            c.wall_ns as f64 / 1e6,
            w.wall_ns as f64 / 1e6,
            if w.warm { "warm" } else { "COLD" },
            &c.key[..12]
        );
        rows.push(Json::obj(vec![
            ("name", Json::from(c.name.as_str())),
            ("key", Json::from(c.key.as_str())),
            ("cold_ns", Json::from(c.wall_ns)),
            ("warm_ns", Json::from(w.wall_ns)),
            ("warm_hit", Json::Bool(w.warm)),
            ("cold_phases", c.phases_json()),
            ("warm_phases", w.phases_json()),
        ]));
    }
    // Counter deltas over exactly this run, so a pre-warmed WYT_STORE
    // does not leak earlier traffic into the report.
    let counters = store.counters().delta_since(&counters_base);
    println!(
        "\nstore: {} hits / {} misses / {} puts / {} corrupt / {} evicted",
        counters.hits, counters.misses, counters.puts, counters.corrupt, counters.evictions
    );

    let par = ParMeta { threads: warm.threads, wall_ns, serial_wall_ns: None };
    let body = bench_json_body("store", Json::Arr(rows), &par, vec![("store", counters.to_json())]);
    let path = write_bench_json(&wyt_bench::bench_out_dir(), "store", &body);
    println!("wrote {}", path.display());
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(dir);
    }
    let all_warm = warm.jobs.iter().all(|r| r.warm);
    if failed || !all_warm || counters.corrupt != 0 {
        eprintln!(
            "wyt-batch: FAILED (errors={failed}, all_warm={all_warm}, corrupt={})",
            counters.corrupt
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Smoke mode: one pass of the small queue against `WYT_STORE`, then a
/// per-job re-serve to digest the images the store hands out.
fn smoke_run(which: &str, out_dir: &Path) -> ExitCode {
    let store = match Store::open_env() {
        Some(Ok(s)) => s,
        Some(Err(e)) => {
            eprintln!("wyt-batch: WYT_STORE unusable: {e}");
            return ExitCode::FAILURE;
        }
        None => {
            eprintln!("wyt-batch: --smoke requires WYT_STORE to name the shared store");
            return ExitCode::FAILURE;
        }
    };
    let counters_base = store.counters();
    let jobs = build_jobs(true);
    let t0 = Instant::now();
    let rep = run_batch(&store, &jobs);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let failed = report_errors(which, &rep);

    // Every job's entry is on disk now; re-serving each (warm) yields
    // the exact image bytes the store vouches for, digested for the
    // cold-vs-warm `cmp` gate in scripts/ci.sh.
    let mut sha_lines = String::new();
    let mut rows: Vec<Json> = Vec::new();
    for (i, (job, row)) in jobs.iter().zip(&rep.jobs).enumerate() {
        let served = recompile_stored(&store, &job.request(), i as u64)
            .unwrap_or_else(|e| panic!("{}: re-serve: {e}", job.name));
        sha_lines.push_str(&format!("{}  {}\n", image_digest(served.image()), job.name));
        rows.push(Json::obj(vec![
            ("name", Json::from(row.name.as_str())),
            ("key", Json::from(row.key.as_str())),
            ("warm", Json::Bool(row.warm)),
            ("wall_ns", Json::from(row.wall_ns)),
        ]));
    }
    // Deltas over this smoke pass only: the warm smoke reuses the cold
    // pass's WYT_STORE, whose earlier traffic must not be re-counted.
    let counters = store.counters().delta_since(&counters_base);
    std::fs::create_dir_all(out_dir)
        .unwrap_or_else(|e| panic!("create {}: {e}", out_dir.display()));
    let sha_path = out_dir.join("images.sha");
    std::fs::write(&sha_path, &sha_lines).unwrap_or_else(|e| panic!("write images.sha: {e}"));
    let par = ParMeta { threads: rep.threads, wall_ns, serial_wall_ns: None };
    let body = bench_json_body("store", Json::Arr(rows), &par, vec![("store", counters.to_json())]);
    write_bench_json(out_dir, "store", &body);

    let warm_hits = rep.jobs.iter().filter(|r| r.warm).count();
    println!(
        "wyt-batch --smoke {which}: {} jobs, {warm_hits} warm, store {} hits / {} misses / {} corrupt",
        jobs.len(),
        counters.hits,
        counters.misses,
        counters.corrupt
    );
    if failed || counters.corrupt != 0 {
        return ExitCode::FAILURE;
    }
    if which == "warm" && warm_hits != jobs.len() {
        eprintln!(
            "wyt-batch: warm smoke expected every job to hit, got {warm_hits}/{}",
            jobs.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One batch pass of the smoke queue against a fresh scratch store on
/// `fs`, digesting every re-served image into `DIR/<sha_name>`.
/// Returns the store's counter deltas, or `None` if any job failed.
fn chaos_pass(
    tag: &str,
    fs: Box<dyn wyt_store::StoreFs>,
    jobs: &[BatchJob],
    out_dir: &Path,
    sha_name: &str,
) -> Option<wyt_store::StoreCounters> {
    let dir = std::env::temp_dir().join(format!("wyt-batch-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open_with(&dir, fs).expect("scratch store");
    let rep = run_batch(&store, jobs);
    let failed = report_errors(tag, &rep);
    let mut sha_lines = String::new();
    for (i, (job, _)) in jobs.iter().zip(&rep.jobs).enumerate() {
        let served = recompile_stored(&store, &job.request(), i as u64)
            .unwrap_or_else(|e| panic!("{}: re-serve: {e}", job.name));
        sha_lines.push_str(&format!("{}  {}\n", image_digest(served.image()), job.name));
    }
    std::fs::write(out_dir.join(sha_name), &sha_lines)
        .unwrap_or_else(|e| panic!("write {sha_name}: {e}"));
    let counters = store.counters();
    let _ = std::fs::remove_dir_all(&dir);
    (!failed).then_some(counters)
}

/// Kill-point matrix: interrupt a direct `put` at every filesystem
/// operation, reopen, and demand fsck leaves a correct cold-serving
/// store byte-identical to a never-crashed reference. Returns the
/// number of kill points that violated the contract.
fn kill_matrix(seed: u64, key: &str, payload: &Json) -> u64 {
    let scratch = |tag: &str| {
        let d = std::env::temp_dir().join(format!("wyt-batch-kill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    // Reference entry bytes from a put that never crashed.
    let ref_dir = scratch("ref");
    let ref_store = Store::open(&ref_dir).expect("reference store");
    ref_store.put("artifact", key, 0, payload.clone()).expect("reference put");
    let entry_rel = Path::new("objects").join(&key[..2]).join(format!("{key}.artifact.json"));
    let reference = std::fs::read(ref_dir.join(&entry_rel)).expect("reference entry");
    let _ = std::fs::remove_dir_all(&ref_dir);

    // Measure the matrix width: how many fs ops one put performs.
    let probe_dir = scratch("probe");
    let probe = FaultFs::new(seed, FaultPlan::none());
    let handle = probe.clone();
    let store = Store::open_with(&probe_dir, Box::new(probe)).expect("probe store");
    handle.reset_ops();
    store.put("artifact", key, 0, payload.clone()).expect("probe put");
    let width = handle.ops();
    drop(store);
    let _ = std::fs::remove_dir_all(&probe_dir);

    let mut violations = 0u64;
    for k in 0..=width {
        let dir = scratch(&format!("k{k}"));
        let fs = FaultFs::new(seed, FaultPlan::none());
        let handle = fs.clone();
        let store = Store::open_with(&dir, Box::new(fs)).expect("kill store");
        handle.reset_ops();
        handle.arm_kill(k);
        let put = store.put("artifact", key, 0, payload.clone());
        handle.disarm();
        drop(store);

        // The restarted process: fsck sweeps, then the entry either
        // serves the exact payload or cleanly misses — never corrupt —
        // and a recovery put restores the byte-identical entry.
        let store = Store::open(&dir).expect("reopen after kill");
        let fsck = store.fsck_report();
        let ok = match store.get("artifact", key) {
            Lookup::Hit(p) => put.is_ok() && p == *payload,
            Lookup::Miss => {
                put.is_err()
                    && store.put("artifact", key, 0, payload.clone()).is_ok()
                    && matches!(store.get("artifact", key), Lookup::Hit(p) if p == *payload)
            }
            Lookup::Corrupt(why) => {
                eprintln!("wyt-batch: kill at op {k}: served corrupt: {why}");
                false
            }
        };
        let recovered = std::fs::read(dir.join(&entry_rel)).ok();
        let identical = recovered.as_deref() == Some(reference.as_slice());
        if !ok || !identical || store.counters().corrupt != 0 {
            eprintln!(
                "wyt-batch: kill at op {k}/{width}: VIOLATION (ok={ok}, identical={identical}, \
                 fsck tmp_swept={} quarantined={})",
                fsck.tmp_swept, fsck.quarantined
            );
            violations += 1;
        } else {
            println!(
                "wyt-batch: kill at op {k}/{width}: recovered \
                 (put={}, fsck tmp_swept={} quarantined={})",
                if put.is_ok() { "landed" } else { "died" },
                fsck.tmp_swept,
                fsck.quarantined
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    violations
}

/// Chaos mode: clean vs faulty-weather digests plus the kill matrix.
fn chaos_run(seed: u64, out_dir: &Path) -> ExitCode {
    std::fs::create_dir_all(out_dir)
        .unwrap_or_else(|e| panic!("create {}: {e}", out_dir.display()));
    let jobs = build_jobs(true);

    let Some(clean) =
        chaos_pass("clean", Box::new(wyt_store::RealFs), &jobs, out_dir, "images.sha")
    else {
        return ExitCode::FAILURE;
    };
    let fs = FaultFs::new(seed, FaultPlan::transient_only());
    let Some(chaos) = chaos_pass("faulty", Box::new(fs), &jobs, out_dir, "images_chaos.sha") else {
        return ExitCode::FAILURE;
    };
    println!(
        "wyt-batch --chaos {seed:#x}: {} jobs clean, {} transient faults absorbed \
         ({} retries, {} fatal, {} corrupt)",
        jobs.len(),
        chaos.io_transient,
        chaos.io_retry,
        chaos.io_fatal,
        chaos.corrupt
    );
    if clean.corrupt != 0 || chaos.corrupt != 0 || chaos.io_fatal != 0 {
        eprintln!("wyt-batch: chaos weather must be absorbed, never misfiled as corruption");
        return ExitCode::FAILURE;
    }
    if chaos.io_transient == 0 {
        eprintln!("wyt-batch: the chaos pass injected nothing; the gate is vacuous");
        return ExitCode::FAILURE;
    }

    let key = Store::derive_key("artifact", vec![("probe", Json::from("kill-matrix"))]);
    let payload = Json::obj(vec![("image", Json::from("feedfacecafebeef"))]);
    let violations = kill_matrix(seed, &key, &payload);
    if violations != 0 {
        eprintln!("wyt-batch: {violations} kill point(s) violated crash consistency");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    wyt_obs::set_enabled(true);
    let _trace = wyt_obs::trace::flush_guard_from_env();
    wyt_bench::reset_degradations();
    wyt_bench::reset_healing();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke: Option<String> = None;
    let mut chaos: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                smoke = args.get(i + 1).cloned();
                i += 2;
            }
            "--chaos" => {
                chaos = args.get(i + 1).cloned();
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            other => {
                eprintln!("wyt-batch: unknown argument `{other}`");
                eprintln!(
                    "usage: wyt-batch [--smoke cold|warm --out DIR | --chaos SEED --out DIR]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(seed) = chaos {
        let raw = seed.trim();
        let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        };
        let Ok(seed) = parsed else {
            eprintln!("wyt-batch: --chaos takes a u64 seed (decimal or 0x-hex), got `{raw}`");
            return ExitCode::FAILURE;
        };
        let Some(dir) = out else {
            eprintln!("wyt-batch: --chaos requires --out DIR");
            return ExitCode::FAILURE;
        };
        return chaos_run(seed, &dir);
    }
    match smoke.as_deref() {
        None => full_run(),
        Some(which @ ("cold" | "warm")) => {
            let Some(dir) = out else {
                eprintln!("wyt-batch: --smoke requires --out DIR");
                return ExitCode::FAILURE;
            };
            smoke_run(which, &dir)
        }
        Some(other) => {
            eprintln!("wyt-batch: --smoke takes `cold` or `warm`, got `{other}`");
            ExitCode::FAILURE
        }
    }
}
