//! Determinism gate for the `wyt-par` executor: every parallelized layer
//! must produce byte-identical artifacts at any thread count.
//!
//! Serial (1 thread) and parallel (4 threads) runs are compared on the
//! three artifacts the pipeline ships: the recompiled [`Image`], the
//! timing-stripped [`wyt_obs::PipelineReport`] JSON, and the bench
//! harness's measurement rows. The thread count is process-global state,
//! so every test here serializes on one lock (as does the obs sink).

use std::sync::Mutex;
use wyt_bench::grid::{run_job, Pipeline};
use wyt_core::{recompile, Mode, Request};
use wyt_minicc::{compile, Profile};

static PAR_LOCK: Mutex<()> = Mutex::new(());

const SRC: &str = r#"
int sq(int x) { return x * x; }
int main() {
    int i;
    int acc = 0;
    for (i = 0; i < 9; i++) acc += sq(i) - i / 3;
    printf("%d\n", acc);
    return acc & 0x7f;
}
"#;

/// Run `f` with the pool pinned to `n` workers, then drop back to serial.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    wyt_par::set_threads(n);
    let r = f();
    wyt_par::set_threads(1);
    r
}

#[test]
fn serial_and_parallel_recompiles_are_byte_identical() {
    let _l = PAR_LOCK.lock().unwrap();
    let img = compile(SRC, &Profile::gcc44_o3()).unwrap().stripped();

    // Enable the sink so the validation replays classify stack accesses
    // and the coverage counts land in the report.
    wyt_obs::set_enabled(true);
    wyt_obs::reset();
    let serial =
        with_threads(1, || recompile(&Request::new(&img, &[vec![]], Mode::Wytiwyg)).unwrap());
    let serial_obs = wyt_obs::snapshot();
    wyt_obs::reset();
    let par = with_threads(4, || recompile(&Request::new(&img, &[vec![]], Mode::Wytiwyg)).unwrap());
    let par_obs = wyt_obs::snapshot();
    wyt_obs::set_enabled(false);
    wyt_obs::reset();

    assert_eq!(serial.image, par.image, "recompiled image must not depend on thread count");
    assert_eq!(
        serial.report.to_json_deterministic().to_string(),
        par.report.to_json_deterministic().to_string(),
        "timing-stripped pipeline report must be byte-identical"
    );
    assert_eq!(
        serial_obs.counters, par_obs.counters,
        "sink counters must fold to the serial totals"
    );
    let names =
        |s: &wyt_obs::Snapshot| s.spans.iter().map(|e| (e.name, e.phase)).collect::<Vec<_>>();
    assert_eq!(
        names(&serial_obs),
        names(&par_obs),
        "span stream must replay in serial order under parallel folding"
    );
}

#[test]
fn bench_measurement_rows_match_serial_run() {
    let _l = PAR_LOCK.lock().unwrap();
    wyt_obs::set_enabled(false);
    let suite = wyt_spec::suite();
    let bench = &suite[0];
    let pipelines = [Pipeline::Native, Pipeline::NoSym, Pipeline::Wyt];
    let job = || run_job(bench, &Profile::gcc12_o3(), &pipelines);
    let serial = with_threads(1, job);
    let par = with_threads(4, job);
    assert_eq!(serial, par, "bench rows must not depend on thread count");
}

#[test]
fn timed_grid_verifies_against_serial_and_records_threads() {
    let _l = PAR_LOCK.lock().unwrap();
    wyt_obs::set_enabled(false);
    with_threads(4, || {
        let jobs: Vec<u64> = (0..16).collect();
        let (results, meta) = wyt_bench::timed_grid(&jobs, |i, &j| i as u64 * 100 + j * j);
        let expect: Vec<u64> = (0..16).map(|j| j * 100 + j * j).collect();
        assert_eq!(results, expect, "grid results come back in job order");
        assert_eq!(meta.threads, 4);
        assert!(meta.wall_ns > 0);
        assert!(
            meta.serial_wall_ns.is_some(),
            "multi-threaded grids must record the serial verification wall time"
        );
    });
    // Serial grids skip the re-run (nothing to verify against).
    let jobs = [1u32, 2, 3];
    let (_, meta) = wyt_bench::timed_grid(&jobs, |_, &j| j + 1);
    assert_eq!(meta.threads, 1);
    assert!(meta.serial_wall_ns.is_none());
}
