//! # wyt-benchmark — batch recompilation, end to end and layer by layer
//!
//! One process, two `wyt-par` worker threads, three closed-loop batch
//! workloads (see `workload.rs` and README.md):
//!
//! - **Untraced phase** (`batch.rs`): timed passes through the public
//!   service entry point `wyt_core::run_batch` with all observability
//!   off, then output checks; prints the end-to-end metrics.
//! - **Traced phase** (`layered.rs`): one more pass per workload that
//!   calls the layers' public entry points itself (store, lifter, the
//!   pipeline's `recompile_from_lifted`, emulator), times them into
//!   in-memory spans together with the pipeline's own stage times,
//!   prints the per-layer metrics and writes the spans as a Chrome
//!   trace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path wyt-benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1] [--out DIR] [--smoke]
//! cargo run ... -- --compare A/benchmark.json[,A2/...] B/benchmark.json[,B2/...]
//! ```
//!
//! Every metric prints as `<workload> <metric> <value> <unit>`; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and one of the `BENCHMARK.json` metric lists:
//! end-to-end with `--trace 0`, per-layer with `--trace 1` (the
//! default). The exit code is nonzero if any job failed.

mod batch;
mod layered;
mod report;
mod workload;

use batch::Scratch;
use report::{benchmark_json, RunMeta, WorkloadReport};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;
use wyt_obs::Json;

/// The benchmark's contract: metric lists, units and regression bounds.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Variables that change what the measured code does: `WYT_OBS` adds a
/// coverage replay and the interpreter's access classification,
/// `WYT_STREAM` switches the lifter's code path, and the rest inject
/// faults, redirect or evict the store, or cap job fuel.
const REFUSED_ENV: [&str; 7] = [
    "WYT_OBS",
    "WYT_OBS_TRACE",
    "WYT_STREAM",
    "WYT_FAULT",
    "WYT_STORE",
    "WYT_STORE_CAP",
    "WYT_JOB_BUDGET",
];

/// Worker threads: the 2 CPUs of the machine the bounds were set on.
const THREADS: usize = 2;

const DEFAULT_SEED: u64 = 0x5eed;

/// Scratch stores live here, relative to the working directory.
const SCRATCH_DIR: &str = ".wyt-benchmark-tmp";

/// What one run measures.
#[derive(Debug, Clone)]
struct Config {
    workloads: Vec<Workload>,
    seed: u64,
    smoke: bool,
    /// How long the untraced passes of each workload measure.
    seconds: f64,
    /// Run the traced phase, and end with the per-layer metrics rather
    /// than the end-to-end ones.
    traced: bool,
}

/// Everything one run produced.
struct RunOutput {
    meta: RunMeta,
    reports: Vec<WorkloadReport>,
    attempted: u64,
    failed: u64,
    /// The Chrome trace of every traced pass.
    trace: Json,
    /// `wyt_obs::trace::validate_chrome`'s verdict on `trace`.
    trace_valid: Result<(), String>,
}

/// Run `cfg`'s workloads: untraced phase, then (if asked) traced phase.
fn run(cfg: &Config) -> RunOutput {
    wyt_par::set_threads(THREADS);
    let scratch = Scratch::new(Path::new(SCRATCH_DIR))
        .unwrap_or_else(|e| panic!("create {SCRATCH_DIR}: {e}"));
    let origin = Instant::now();
    let (mut reports, mut events) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for (k, &w) in cfg.workloads.iter().enumerate() {
        eprintln!("wyt-benchmark: {}: untraced phase", w.name());
        let mut u = batch::run(w, cfg.seed, cfg.smoke, cfg.seconds, &scratch);
        let mut per_layer = Vec::new();
        if cfg.traced {
            eprintln!("wyt-benchmark: {}: traced phase", w.name());
            let fresh = u.warm_store.is_none().then(|| scratch.fresh_store("traced"));
            let store = fresh.as_ref().or(u.warm_store.as_ref()).expect("a traced-pass store");
            let t = layered::run(store, &u.jobs, origin);
            let (bad, reordered) = layered::fidelity(&t, store, &u.jobs, &u.reference);
            u.tally.attempted += u.jobs.len() as u64;
            u.tally.failed += bad;
            u.tally.reordered += reordered;
            let job_ns: Vec<f64> =
                u.passes.iter().map(|p| p.rows.iter().map(|r| r.wall_ns as f64).sum()).collect();
            per_layer = layered::per_layer(&t, &job_ns, &batch::busy_frac(&u, THREADS));
            events.extend(layered::chrome_events(k as u64 + 1, w.name(), &t, &u.jobs));
            drop(fresh);
            scratch.remove("traced");
        }
        attempted += u.tally.attempted;
        failed += u.tally.failed;
        reports.push(WorkloadReport {
            name: w.name(),
            jobs: u.jobs.len(),
            pass_wall_s: u.passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect(),
            end_to_end: batch::end_to_end(w, &u),
            per_layer,
        });
    }
    let trace =
        Json::obj(vec![("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::from("ms"))]);
    let trace_valid = wyt_obs::trace::validate_chrome(&trace).map(|_| ());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = RunMeta {
        seed: cfg.seed,
        threads: wyt_par::threads(),
        nproc,
        smoke: cfg.smoke,
        seconds: cfg.seconds,
    };
    RunOutput { meta, reports, attempted, failed, trace, trace_valid }
}

fn bench_json() -> Json {
    wyt_obs::json::parse(BENCHMARK).expect("BENCHMARK.json parses")
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<String> {
    bench_json()
        .get(key)
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(|m| m.get("name")?.as_str().map(str::to_string)).collect())
        .unwrap_or_default()
}

/// The last line of standard output: the per-layer metrics after a
/// traced run, else the end-to-end ones. With one workload the metrics
/// keep their names; with several, each is prefixed `<workload>.`.
fn result_line(out: &RunOutput, traced: bool) -> (String, bool) {
    let names = listed(if traced { "per_layer" } else { "end_to_end" });
    let mut complete = true;
    let mut metrics = Vec::new();
    for r in &out.reports {
        for name in &names {
            let list = if traced { &r.per_layer } else { &r.end_to_end };
            match list.iter().find(|m| &m.name == name) {
                Some(m) if m.value.is_finite() => {
                    let key = if out.reports.len() == 1 {
                        name.clone()
                    } else {
                        format!("{}.{name}", r.name)
                    };
                    let v = Json::obj(vec![
                        ("value", Json::from(m.value)),
                        ("unit", Json::from(m.unit)),
                    ]);
                    metrics.push((key, v));
                }
                _ => {
                    eprintln!("wyt-benchmark: {} {name}: missing or not finite", r.name);
                    complete = false;
                }
            }
        }
    }
    let correct = complete && out.failed == 0 && out.trace_valid.is_ok();
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    (line.to_string(), correct)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

const USAGE: &str = "usage: wyt-benchmark [--workload NAME|all] [--seed S] [--seconds N] \
                     [--trace 0|1] [--out DIR] [--smoke]\n       \
                     wyt-benchmark --compare A.json[,A2.json...] B.json[,B2.json...]\n\
                     workloads: cold-suite, warm-suite, many-small";

/// Parsed command line.
enum Command {
    Run {
        cfg: Config,
        out: Option<PathBuf>,
    },
    /// The two sides' `benchmark.json` files.
    Compare(Vec<PathBuf>, Vec<PathBuf>),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let seconds = bench_json().get("run_seconds").and_then(Json::as_f64);
    let mut cfg = Config {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        smoke: false,
        seconds: seconds.expect("BENCHMARK.json has run_seconds"),
        traced: true,
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cfg.workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => {
                        vec![Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?]
                    }
                };
            }
            "--seed" => {
                let v = value()?;
                cfg.seed = parse_seed(v).ok_or(format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds `{v}`"));
                }
                cfg.seconds = s;
            }
            "--trace" => {
                cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                };
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--smoke" => cfg.smoke = true,
            "--compare" => {
                let list = |s: &str| s.split(',').map(PathBuf::from).collect();
                let a = list(value()?);
                let b = list(it.next().ok_or("--compare needs two sides")?);
                return Ok(Command::Compare(a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run { cfg, out })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, out) = match parse_args(&args) {
        Ok(Command::Run { cfg, out }) => (cfg, out),
        Ok(Command::Compare(a, b)) => {
            return match report::compare(&bench_json(), &a, &b) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(_) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("wyt-benchmark: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Err(e) => {
            eprintln!("wyt-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "wyt-benchmark: refusing to run with {var} set: it changes what the measured code \
             does. Unset it and run again."
        );
        return ExitCode::from(2);
    }

    let out_run = run(&cfg);
    let m = &out_run.meta;
    println!("# wyt-benchmark seed={:#x} threads={} nproc={}", m.seed, m.threads, m.nproc);
    for r in &out_run.reports {
        for metric in r.end_to_end.iter().chain(&r.per_layer) {
            println!("{}", metric.line(r.name));
        }
    }
    if let Err(e) = &out_run.trace_valid {
        eprintln!("wyt-benchmark: trace does not validate: {e}");
    }
    let (line, correct) = result_line(&out_run, cfg.traced);
    let mut ok = correct;
    if let Some(dir) = out {
        let doc = benchmark_json(m, &out_run.reports, out_run.attempted, out_run.failed, correct);
        let written = std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create {}: {e}", dir.display()))
            .and_then(|()| write(&dir.join("benchmark.json"), &(doc.pretty() + "\n")))
            .and_then(|()| {
                if cfg.traced {
                    write(&dir.join("trace.json"), &out_run.trace.to_string())
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            eprintln!("wyt-benchmark: {e}");
            ok = false;
        }
    }
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> RunOutput {
        run(&Config {
            workloads: Workload::ALL.to_vec(),
            seed: DEFAULT_SEED,
            smoke: true,
            seconds: 1.0,
            traced: true,
        })
    }

    fn exact(out: &RunOutput) -> Vec<(String, String, f64)> {
        out.reports
            .iter()
            .flat_map(|r| {
                r.end_to_end
                    .iter()
                    .chain(&r.per_layer)
                    .filter(|m| m.exact)
                    .map(|m| (r.name.to_string(), m.name.clone(), m.value))
            })
            .collect()
    }

    /// The smoke-sized run exercises the full code path: every listed
    /// metric is emitted and finite for every workload, no job fails, the
    /// fidelity gate and the trace hold, and counts repeat exactly.
    #[test]
    fn smoke_run_is_complete_correct_and_repeatable() {
        let a = smoke();
        for traced in [false, true] {
            let (line, correct) = result_line(&a, traced);
            assert!(correct, "smoke run must be correct: {line}");
            wyt_obs::json::parse(&line).expect("result line is JSON");
        }
        assert_eq!(a.failed, 0);
        assert!(a.trace_valid.is_ok(), "{:?}", a.trace_valid);
        for r in &a.reports {
            let listed_in = |key: &str, ms: &[report::Metric]| {
                for name in listed(key) {
                    let m = ms.iter().find(|m| m.name == name);
                    assert!(m.is_some_and(|m| m.value.is_finite()), "{} {name}", r.name);
                }
            };
            listed_in("end_to_end", &r.end_to_end);
            listed_in("per_layer", &r.per_layer);
            let get = |n: &str| r.end_to_end.iter().find(|m| m.name == n).map(|m| m.value);
            assert_eq!(get("fail_frac"), Some(0.0), "{}", r.name);
            assert_eq!(get("degraded_funcs"), Some(0.0), "{}", r.name);
            if r.name == "warm-suite" {
                assert_eq!(get("warm_hit_frac"), Some(1.0));
            }
        }
        let b = smoke();
        assert_eq!(b.failed, 0);
        assert_eq!(exact(&a), exact(&b), "exact metrics must repeat");
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let Ok(Command::Run { cfg, .. }) =
            parse_args(&args("--workload many-small --seed 7 --seconds 10 --trace 0"))
        else {
            panic!("valid arguments must parse");
        };
        assert_eq!(cfg.workloads, vec![Workload::ManySmall]);
        assert_eq!((cfg.seed, cfg.seconds, cfg.traced), (7, 10.0, false));
        assert!(
            matches!(parse_args(&args("--seed 0x5eed")), Ok(Command::Run { cfg, .. }) if cfg.seed == 0x5eed)
        );
        for bad in ["--workload nope", "--trace 2", "--seconds -1", "--seed", "--bogus"] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} must be rejected");
        }
    }
}
