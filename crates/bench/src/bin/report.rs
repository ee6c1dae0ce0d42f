//! Emit the [`wyt_obs::PipelineReport`] for one full WYTIWYG
//! recompilation of a small sample program: per-stage wall time and IR
//! size deltas, lifter observation counts, recovery quality, and dynamic
//! symbolization coverage.
//!
//! ```sh
//! WYT_OBS=json   cargo run --release -p wyt-bench --bin report   # JSON (default)
//! WYT_OBS=pretty cargo run --release -p wyt-bench --bin report   # stage tree
//! ```
//!
//! With `--check`, the binary re-parses its own JSON and asserts that
//! every pipeline stage is present, that the coverage counts are
//! consistent, and that the `degradations` section is well-formed (and
//! empty — the sample is clean) — the CI smoke test for the
//! observability layer and the degradation-ladder report schema. The
//! check also drives one self-healing run (a branch side withheld from
//! the trace) and validates the `healing` section of its report. Of the
//! committed `results/BENCH_*.json` it checks that every span entry's
//! quantiles are ordered, schema-checks the store bench and holds every
//! serial grid run's job spans to its wall time.
//!
//! Two further subcommands back the CI observability gates:
//!
//! - `--check-trace <path>` — parse a Chrome trace-event JSON written
//!   via `WYT_OBS_TRACE` and validate it (array shape, per-track
//!   monotone timestamps, balanced begin/end span nesting);
//! - `--diff <old.json> <new.json> [--timing-ratio R]` — compare two
//!   bench JSONs key by key, tolerating wall-clock drift on timing keys
//!   while hard-failing on counter or schema drift (exit 1).

use std::process::ExitCode;
use wyt_bench::diff::{diff_bench, render, DiffOptions};
use wyt_bench::grid::JOB_SPANS;
use wyt_core::batch::JOB_PHASES;
use wyt_core::{recompile, Mode, Request};
use wyt_minicc::{compile, Profile};
use wyt_obs::OutputFormat;

/// Sample program: locals, a helper call, a loop and a variadic printf —
/// enough to exercise every refinement stage.
const SAMPLE: &str = r#"
int sq(int x) { return x * x; }
int main() {
    int i;
    int acc = 0;
    for (i = 0; i < 9; i++) acc += sq(i) - i / 3;
    printf("%d\n", acc);
    return acc & 0x7f;
}
"#;

/// Stages a Wytiwyg recompile must report, in order.
const EXPECTED_STAGES: [&str; 11] = [
    "lift",
    "vararg",
    "regsave",
    "spfold",
    "bounds",
    "layout",
    "symbolize",
    "optimize",
    "dead_cell_stores",
    "optimize2",
    "lower",
];

/// Schema gate for `results/BENCH_store.json` (written by the
/// `wyt-batch` binary): every row records a cold and a warm timing for
/// one suite job whose phases add up to it, every warm pass must have
/// hit, and the store counters must show cache traffic with zero
/// corruption — a committed artifact claiming corrupt entries (or no
/// hits at all) means the store broke.
fn check_store_json(j: &wyt_obs::Json) {
    assert_eq!(
        j.get("bench").and_then(|v| v.as_str()),
        Some("store"),
        "BENCH_store.json: bench key must be \"store\""
    );
    let rows = j.get("rows").and_then(|r| r.as_arr()).expect("BENCH_store.json: rows array");
    assert!(!rows.is_empty(), "BENCH_store.json: empty rows");
    for r in rows {
        let name = r.get("name").and_then(|v| v.as_str()).expect("store row has name");
        let key = r.get("key").and_then(|v| v.as_str()).expect("store row has key");
        assert!(
            key.len() == 64 && key.bytes().all(|b| b.is_ascii_hexdigit()),
            "store row `{name}`: key is not a sha-256 hex digest: {key}"
        );
        let cold_ns = r.get("cold_ns").and_then(|v| v.as_u64()).expect("store row has cold_ns");
        let warm_ns = r.get("warm_ns").and_then(|v| v.as_u64()).expect("store row has warm_ns");
        assert_eq!(
            r.get("warm_hit").and_then(|v| v.as_bool()),
            Some(true),
            "store row `{name}`: the second pass must be a warm hit"
        );
        // Per-phase breakdown: the phases are disjoint spans inside the
        // job, so they add up to at most its wall time and `other_ns`
        // holds exactly the rest; a warm pass recompiles and writes
        // nothing.
        for (pk, wall) in [("cold_phases", cold_ns), ("warm_phases", warm_ns)] {
            let p = r.get(pk).unwrap_or_else(|| panic!("store row `{name}` has {pk}"));
            let field = |f: &str| {
                p.get(f)
                    .and_then(|v| v.as_u64())
                    .unwrap_or_else(|| panic!("store row `{name}`: {pk}.{f}"))
            };
            let named: u64 = JOB_PHASES.iter().map(|&(_, key)| field(key)).sum();
            assert!(
                named <= wall,
                "store row `{name}`: {pk} sum to {named} ns, more than the job's {wall} ns"
            );
            assert_eq!(
                field("other_ns"),
                wall - named,
                "store row `{name}`: {pk}.other_ns must hold the remainder"
            );
            if pk == "warm_phases" {
                assert_eq!(
                    (field("cold_ns"), field("put_ns")),
                    (0, 0),
                    "store row `{name}`: a warm hit must not recompile or write"
                );
            }
        }
    }
    // Store latencies: the suite runs cold + warm, so every job looks
    // up, the cold pass writes and recompiles, and each span has
    // samples (its quantiles are ordered: `check_span_quantiles`).
    let spans = j.get("obs").and_then(|o| o.get("spans")).expect("BENCH_store.json: obs.spans");
    for name in ["store.get", "store.put", "store.recompile"] {
        let count = spans.get(name).and_then(|s| s.get("count")).and_then(|v| v.as_u64());
        assert!(count >= Some(1), "BENCH_store.json: obs.spans.{name} has no samples");
    }
    let s = j.get("store").expect("BENCH_store.json: store counter section");
    let count = |k: &str| {
        s.get(k).and_then(|v| v.as_u64()).unwrap_or_else(|| panic!("store counters have {k}"))
    };
    let (hits, corrupt) = (count("hits"), count("corrupt"));
    for k in ["misses", "puts", "evictions", "io_retry", "io_transient"] {
        count(k);
    }
    assert_eq!(corrupt, 0, "BENCH_store.json: committed run saw corrupt entries");
    assert_eq!(count("io_fatal"), 0, "BENCH_store.json: committed run exhausted I/O retries");
    assert!(hits >= 1, "BENCH_store.json: warm pass never hit the store");
}

/// Every `obs.spans` entry of a bench JSON carries ordered exact
/// quantiles of its spans' durations: `p50 ≤ p90 ≤ p99 ≤ max`.
fn check_span_quantiles(name: &str, j: &wyt_obs::Json) {
    let Some(wyt_obs::Json::Obj(spans)) = j.get("obs").and_then(|o| o.get("spans")) else {
        panic!("{name}: missing obs.spans object");
    };
    for (span, s) in spans {
        let get = |k: &str| {
            s.get(k)
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("{name}: obs.spans.{span} has no {k}"))
        };
        let (p50, p90, p99, max) = (get("p50_ns"), get("p90_ns"), get("p99_ns"), get("max_ns"));
        assert!(
            p50 <= p90 && p90 <= p99 && p99 <= max,
            "{name}: obs.spans.{span} quantiles out of order ({p50}, {p90}, {p99}, {max})"
        );
    }
}

/// Span gate for a grid's bench JSON (`paper`'s `BENCH_paper.json` or
/// a one-table `BENCH_<table>.json`): on a serial run the jobs' disjoint
/// [`JOB_SPANS`] must account for at least 95% of the grid's wall time,
/// so the committed profile says where the evaluation's time goes.
/// Parallel runs are skipped: their spans overlap in wall time.
fn check_grid_spans(name: &str, j: &wyt_obs::Json) {
    let par = j.get("par").unwrap_or_else(|| panic!("{name}: missing par key"));
    if par.get("threads").and_then(|v| v.as_u64()) != Some(1) {
        return;
    }
    let wall = par.get("wall_ns").and_then(|v| v.as_u64()).expect("par.wall_ns");
    let spans = j.get("obs").and_then(|o| o.get("spans")).expect("obs.spans");
    let covered: u64 = JOB_SPANS
        .iter()
        .filter_map(|s| spans.get(s).and_then(|v| v.get("total_ns")).and_then(|v| v.as_u64()))
        .sum();
    assert!(
        covered as f64 >= 0.95 * wall as f64,
        "{name}: the grid spans {JOB_SPANS:?} cover {covered} of {wall} wall ns (< 95%)"
    );
}

/// Load and parse a JSON file, exiting with a message on failure.
fn load_json(path: &str) -> Result<wyt_obs::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    wyt_obs::json::parse(&text).map_err(|e| format!("{path}: bad JSON: {e}"))
}

/// `--diff old.json new.json [--timing-ratio R]`: compare two bench
/// JSONs; exit nonzero on counter or schema drift.
fn run_diff(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut opts = DiffOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--timing-ratio" {
            let r = it.next().and_then(|v| v.parse::<f64>().ok());
            match r {
                Some(r) if r >= 1.0 => opts.timing_ratio = Some(r),
                _ => {
                    eprintln!("--timing-ratio needs a number >= 1.0");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            paths.push(a.clone());
        }
    }
    let [old_path, new_path] = &paths[..] else {
        eprintln!("usage: report --diff <old.json> <new.json> [--timing-ratio R]");
        return ExitCode::FAILURE;
    };
    let (old, new) = match (load_json(old_path), load_json(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("report --diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let d = diff_bench(&old, &new, &opts);
    eprint!("{}", render(old_path, new_path, &d));
    if d.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--check-trace trace.json`: validate a Chrome trace-event export.
fn run_check_trace(path: &str) -> ExitCode {
    let j = match load_json(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("report --check-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    match wyt_obs::trace::validate_chrome(&j) {
        Ok(stats) => {
            eprintln!(
                "trace check: {path}: {} event(s) on {} track(s), max span depth {} — ok",
                stats.events, stats.tracks, stats.max_depth
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace check: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--diff") {
        return run_diff(&args[i + 1..]);
    }
    if let Some(i) = args.iter().position(|a| a == "--check-trace") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("usage: report --check-trace <trace.json>");
            return ExitCode::FAILURE;
        };
        return run_check_trace(path);
    }

    let check = args.iter().any(|a| a == "--check");
    let fmt = match wyt_obs::init_from_env() {
        OutputFormat::Off => OutputFormat::Json,
        f => f,
    };
    // Collect regardless of WYT_OBS: this binary's whole job is the report
    // (including the coverage counts, which are sink-gated).
    wyt_obs::set_enabled(true);
    // Flight recorder: honor WYT_OBS_TRACE and flush on exit.
    let _trace = wyt_obs::trace::flush_guard_from_env();

    let img = compile(SAMPLE, &Profile::gcc12_o3()).expect("sample compiles").stripped();
    let inputs = vec![Vec::new()];
    let out = recompile(&Request::new(&img, &inputs, Mode::Wytiwyg)).expect("sample recompiles");
    let rep = &out.report;

    match fmt {
        OutputFormat::Pretty => print!("{}", rep.render_pretty()),
        _ => println!("{}", rep.to_json(true).pretty()),
    }

    if check {
        let text = rep.to_json(true).to_string();
        let parsed = wyt_obs::json::parse(&text).expect("report JSON must parse");
        let stages =
            parsed.get("stages").and_then(|s| s.as_arr()).expect("report must have a stages array");
        for want in EXPECTED_STAGES {
            let s = stages
                .iter()
                .find(|s| s.get("name").and_then(|n| n.as_str()) == Some(want))
                .unwrap_or_else(|| panic!("stage `{want}` missing from report"));
            s.get("wall_ns").and_then(|v| v.as_u64()).expect("stage has wall_ns");
            s.get("before").and_then(|v| v.get("insts")).expect("stage has before.insts");
            s.get("after").and_then(|v| v.get("insts")).expect("stage has after.insts");
        }
        let cov = parsed
            .get("quality")
            .and_then(|q| q.get("coverage"))
            .expect("quality.coverage present");
        let sym = cov.get("symbolized").and_then(|v| v.as_u64()).unwrap();
        let res = cov.get("residual").and_then(|v| v.as_u64()).unwrap();
        let total = cov.get("total").and_then(|v| v.as_u64()).unwrap();
        assert_eq!(sym + res, total, "coverage counts must partition stack references");
        assert!(total > 0, "sample program must touch its stack");
        let deg = parsed
            .get("degradations")
            .and_then(|d| d.as_arr())
            .expect("report must have a degradations array");
        for d in deg {
            d.get("func").and_then(|v| v.as_u64()).expect("degradation has func");
            d.get("name").and_then(|v| v.as_str()).expect("degradation has name");
            d.get("rung").and_then(|v| v.as_str()).expect("degradation has rung");
            d.get("reason").and_then(|v| v.as_str()).expect("degradation has reason");
        }
        assert!(deg.is_empty(), "clean sample must not hit the degradation ladder");
        assert!(
            parsed.get("healing").map(|h| h.is_null()).unwrap_or(false),
            "a recompile without healing must report `healing: null`"
        );

        // One self-healing run: trace one branch side, hold the other
        // out, and validate the `healing` report section end to end.
        let heal_src = r#"
        int main() {
            int c = getchar();
            if (c == 'x') return 7;
            printf("%d\n", c);
            return 3;
        }
        "#;
        let himg =
            compile(heal_src, &Profile::gcc12_o3()).expect("heal sample compiles").stripped();
        let (traced, held_out) = ([b"q".to_vec()], [b"x".to_vec()]);
        let healing =
            Request { held_out: Some(&held_out), ..Request::new(&himg, &traced, Mode::Wytiwyg) };
        let healed = recompile(&healing).expect("heal sample heals");
        let htext = healed.report.to_json(true).to_string();
        let hparsed = wyt_obs::json::parse(&htext).expect("healing report JSON must parse");
        let h = hparsed.get("healing").expect("healed report must have a healing section");
        let rounds = h.get("rounds").and_then(|v| v.as_u64()).expect("healing has rounds");
        let healed_n =
            h.get("sites_healed").and_then(|v| v.as_u64()).expect("healing has sites_healed");
        let unhealed =
            h.get("sites_unhealed").and_then(|v| v.as_u64()).expect("healing has sites_unhealed");
        h.get("funcs_total").and_then(|v| v.as_u64()).expect("healing has funcs_total");
        assert_eq!(h.get("converged").and_then(|v| v.as_bool()), Some(true), "sample must heal");
        assert!(rounds >= 1 && rounds <= 2, "one withheld branch, {rounds} rounds");
        assert_eq!((healed_n, unhealed), (1, 0), "one site healed, none unhealed");
        let events = h.get("events").and_then(|e| e.as_arr()).expect("healing has an events array");
        for ev in events {
            for key in ["round", "input", "func", "pc"] {
                ev.get(key).and_then(|v| v.as_u64()).unwrap_or_else(|| panic!("event has {key}"));
            }
            for key in ["name", "kind"] {
                ev.get(key).and_then(|v| v.as_str()).unwrap_or_else(|| panic!("event has {key}"));
            }
        }
        assert_eq!(events.len(), 1, "one guard event expected");

        // The committed bench JSONs carry a `healing` accumulator;
        // validate every one that is present. The benchmark corpus is
        // clean (every ref input is traced), so both counts must be 0.
        let mut bench_jsons = 0usize;
        let mut store_json = false;
        if let Ok(entries) = std::fs::read_dir("results") {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                    continue;
                }
                let text =
                    std::fs::read_to_string(e.path()).unwrap_or_else(|err| panic!("{name}: {err}"));
                let j = wyt_obs::json::parse(&text)
                    .unwrap_or_else(|err| panic!("{name}: bad JSON: {err}"));
                let bh = j.get("healing").unwrap_or_else(|| panic!("{name}: missing healing key"));
                let br = bh.get("rounds").and_then(|v| v.as_u64()).expect("healing.rounds");
                let bs =
                    bh.get("sites_healed").and_then(|v| v.as_u64()).expect("healing.sites_healed");
                assert_eq!((br, bs), (0, 0), "{name}: the clean bench corpus must not heal");
                check_span_quantiles(&name, &j);
                if name == "BENCH_store.json" {
                    check_store_json(&j);
                    store_json = true;
                }
                if name == "BENCH_paper.json" || name == "BENCH_figure7.json" {
                    check_grid_spans(&name, &j);
                }
                bench_jsons += 1;
            }
        }
        assert!(store_json, "results/BENCH_store.json missing (run the wyt-batch binary)");

        // Ingestion/fuzz counter schema: the sample recompile above
        // passed through the ingest frontend, a rejected document must
        // land in the typed-error counters, and a micro fuzz campaign
        // must emit the `fuzz.*` keys the CI fuzz gate relies on.
        assert!(wyt_core::ingest::json_text("{nope").is_err());
        let fuzz_findings =
            wyt_testkit::fuzz::campaign(wyt_testkit::fuzz::Surface::Json, 8, 0x0b5_c4ec).len();
        let counters = wyt_obs::snapshot().counters;
        for key in ["ingest.ok", "ingest.err", "ingest.err.json", "fuzz.cases"] {
            assert!(
                counters.contains_key(key),
                "counter `{key}` missing from the observability snapshot"
            );
        }
        // Zero-delta counters are elided, so a clean campaign means no
        // `fuzz.findings` key — and a present key means real findings.
        assert_eq!(fuzz_findings, 0, "the micro fuzz campaign must be clean");
        assert!(
            !counters.contains_key("fuzz.findings"),
            "clean campaign must not record fuzz.findings"
        );

        eprintln!(
            "report check: {} stages ok, coverage {sym}+{res}={total}, degradations {}, \
             healing {rounds} round(s) / {healed_n} healed, {bench_jsons} bench JSONs clean \
             (store schema ok)",
            stages.len(),
            deg.len()
        );
    }
    ExitCode::SUCCESS
}
