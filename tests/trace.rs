//! Trace-export gates: the deterministic-tick Chrome export of the span
//! list must be byte-identical between a serial and a `WYT_PAR=4` run of
//! the same recompilation, and the wall-clock export must validate
//! (monotone per-track timestamps, balanced span nesting) with
//! per-worker tracks and stage spans in the order the `PipelineReport`
//! records.
//!
//! The span list is process-global, so every test serializes on one
//! lock (same discipline as `tests/par.rs`).

use std::sync::Mutex;
use wyt_core::{recompile, Mode, Recompiled, Request};
use wyt_minicc::{compile, Profile};
use wyt_obs::{trace, Span};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

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

fn clean() {
    wyt_obs::set_enabled(false);
    trace::set_enabled(false);
    wyt_obs::reset();
}

/// One traced recompile at `threads` workers, starting from an empty
/// span list: returns the recorded span events and the recompilation
/// they came from.
fn traced_recompile(threads: usize) -> (Vec<trace::TraceEvent>, Recompiled) {
    wyt_obs::reset();
    let img = compile(SRC, &Profile::gcc12_o3()).unwrap().stripped();
    let rec = with_threads(threads, || {
        recompile(&Request::new(&img, &[vec![], b"x".to_vec()], Mode::Wytiwyg)).unwrap()
    });
    (wyt_obs::snapshot().spans, rec)
}

#[test]
fn deterministic_tick_export_is_byte_identical_serial_vs_parallel() {
    let _l = TRACE_LOCK.lock().unwrap();
    clean();
    trace::set_enabled(true);

    let (serial_events, _) = traced_recompile(1);
    let serial = trace::to_chrome_json(&serial_events, true).to_string();
    let (par_events, _) = traced_recompile(4);
    let par = trace::to_chrome_json(&par_events, true).to_string();
    clean();

    assert!(!serial_events.is_empty(), "a traced recompile must record events");
    assert_eq!(serial, par, "logical-tick trace export must not depend on thread count");
    let j = wyt_obs::json::parse(&serial).unwrap();
    let stats = trace::validate_chrome(&j).expect("deterministic export is a valid Chrome trace");
    assert_eq!(stats.events, serial_events.len());
    assert_eq!(stats.tracks, 1, "deterministic mode puts every event on one track");
}

#[test]
fn wall_clock_export_validates_with_worker_tracks_and_stage_order() {
    let _l = TRACE_LOCK.lock().unwrap();
    clean();
    // Sink + span events: the full pipeline (including the sink-gated
    // coverage classification) runs, and worker profiling is live.
    wyt_obs::set_enabled(true);
    trace::set_enabled(true);

    let (_, rec) = traced_recompile(4);
    // A broad fan-out so several pool workers execute at least one
    // task span each on their per-worker tracks.
    with_threads(4, || {
        wyt_par::par_indexed(256, |i| {
            let _s = Span::enter("task");
            let mut acc = i as u64;
            for _ in 0..2_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        })
    });
    let events = wyt_obs::snapshot().spans;
    clean();

    let j = trace::to_chrome_json(&events, false);
    let stats = trace::validate_chrome(&j).expect("wall-clock export is a valid Chrome trace");
    assert!(stats.events >= events.len(), "every recorded event exports");
    assert!(stats.tracks >= 2, "expected per-worker tracks, got {}", stats.tracks);
    assert!(stats.max_depth >= 2, "stage spans nest under the pipeline");

    // The begin-event order of stage spans matches the report's stage
    // list (first occurrence per name: the backend nests its own
    // same-named `lower` span inside the `lower` stage span).
    let stage_names: Vec<&str> = rec.report.stages.iter().map(|s| s.name).collect();
    let mut seen = std::collections::BTreeSet::new();
    let begins: Vec<&str> = events
        .iter()
        .filter(|e| e.phase == trace::Phase::Begin && stage_names.contains(&e.name))
        .map(|e| e.name)
        .filter(|n| seen.insert(*n))
        .collect();
    assert_eq!(begins, stage_names, "trace stage spans must mirror PipelineReport.stages");
}

#[test]
fn flush_guard_writes_a_validating_trace_file() {
    let _l = TRACE_LOCK.lock().unwrap();
    clean();
    trace::set_enabled(true);
    {
        let _g = Span::enter("outer");
        let _m = Span::enter("mark");
    }
    let dir = std::env::temp_dir().join(format!("wyt-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    trace::write_chrome(&path).unwrap();
    clean();

    let text = std::fs::read_to_string(&path).unwrap();
    let j = wyt_obs::json::parse(&text).expect("trace file parses");
    let stats = trace::validate_chrome(&j).expect("trace file validates");
    assert_eq!(stats.events, 4);
    assert_eq!(stats.max_depth, 2);
    assert_eq!(
        j.get("otherData").and_then(|o| o.get("deterministic")).and_then(|d| d.as_bool()),
        Some(false),
        "the file export carries wall-clock timestamps"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
