//! Ingestion-hardening gate: total frontends + deterministic fuzzing.
//!
//! The contract under test (ISSUE PR 10):
//!
//! - (a) every ingestion frontend is **total**: for arbitrary bytes it
//!   returns a typed error or a clean result — a fuzz campaign over
//!   each surface finds zero panics;
//! - (b) campaigns are deterministic: the same `WYT_FUZZ` seed yields
//!   byte-identical findings serially and under `WYT_PAR=4`, so any
//!   finding replays from the seed alone;
//! - (c) every minimized repro in `tests/crashes/` replays as a typed
//!   error forever — the standing crash-corpus regression gate;
//! - (d) a hostile artifact submitted to the supervised batch frontend
//!   lands as a clean typed `error` row: the pool keeps draining, the
//!   store stays intact and serves the next batch.

use std::path::Path;
use wyt_core::{
    recompile, run_batch, run_batch_supervised, BatchJob, FaultInjector, IngestError, JobOutcome,
    Mode, RecompileError, Request, SuperviseConfig,
};
use wyt_isa::image::Image;
use wyt_minicc::{compile, Profile};
use wyt_opt::OptLevel;
use wyt_store::Store;
use wyt_testkit::fuzz::{self, Surface};

/// Pinned campaign seed (distinct from every other corpus seed so a
/// failure here always means an ingestion change).
const SEED: u64 = 0x1d_6e_57_f0cc;

/// Cases per surface for the in-test campaigns. Small: the 10k-iter
/// sweep runs in CI via `wyt-fuzz`; this gate checks the machinery.
const ITERS: usize = 150;

struct TempRoot {
    root: std::path::PathBuf,
}

impl TempRoot {
    fn new(tag: &str) -> TempRoot {
        let root = std::env::temp_dir().join(format!("wyt-fuzz-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        TempRoot { root }
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// (a) No surface panics on a campaign of mutated corpus inputs.
#[test]
fn campaigns_find_no_panics() {
    for s in Surface::ALL {
        let findings = fuzz::campaign(s, ITERS, SEED);
        assert!(
            findings.is_empty(),
            "{}: frontend panicked; replay with WYT_FUZZ={:#x} (cases {:?})",
            s.name(),
            SEED,
            findings.iter().map(|f| f.index).collect::<Vec<_>>()
        );
    }
}

/// (b) Same seed ⇒ byte-identical findings, serial vs `WYT_PAR=4`.
/// Exercised on the *case bytes* too, which must derive purely from
/// `mix(seed, index)` regardless of scheduling.
#[test]
fn campaigns_are_deterministic_across_thread_counts() {
    for s in [Surface::Json, Surface::Isa, Surface::Envelope] {
        wyt_par::set_threads(1);
        let serial = fuzz::campaign(s, ITERS, SEED);
        let serial_case = fuzz::case_bytes(s, SEED, ITERS / 2);
        wyt_par::set_threads(4);
        let par = fuzz::campaign(s, ITERS, SEED);
        let par_case = fuzz::case_bytes(s, SEED, ITERS / 2);
        wyt_par::set_threads(1);
        assert_eq!(serial, par, "{}: findings differ across thread counts", s.name());
        assert_eq!(serial_case, par_case, "{}: case bytes differ", s.name());
    }
}

/// (c) The committed crash corpus replays clean: every file drives its
/// frontend to a typed result, never a panic.
#[test]
fn crash_corpus_replays_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/crashes");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/crashes exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "crash corpus must not be empty");
    for path in entries {
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let prefix = stem.split('-').next().unwrap();
        let surface = Surface::parse(prefix)
            .unwrap_or_else(|| panic!("{stem}: unknown surface prefix `{prefix}`"));
        let bytes = std::fs::read(&path).unwrap();
        fuzz::replay(surface, &bytes).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

/// The representative hostile inputs in the corpus hit the *intended*
/// rung of the ladder, not merely any error.
#[test]
fn crash_corpus_errors_are_typed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/crashes");
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap();

    let json = String::from_utf8(read("json-seed-0.bin")).unwrap();
    assert!(matches!(
        wyt_core::ingest::json_text(&json),
        Err(IngestError::Json(e)) if matches!(e.kind, wyt_obs::ParseErrorKind::TooDeep { .. })
    ));

    let img = String::from_utf8(read("image-seed-0.bin")).unwrap();
    assert!(matches!(wyt_core::ingest::image_json(&img), Err(IngestError::Limit(_))));

    let env = String::from_utf8(read("envelope-seed-0.bin")).unwrap();
    assert!(matches!(
        wyt_core::ingest::envelope_text("artifact", fuzz::ENVELOPE_KEY, &env),
        Err(IngestError::Envelope(_))
    ));

    let trace = String::from_utf8(read("trace-seed-0.bin")).unwrap();
    assert!(matches!(wyt_core::ingest::trace_json(&trace), Err(IngestError::Decode(_))));
}

/// (d) A hostile image in a supervised batch produces a typed `error`
/// row while the rest of the queue completes, and the store it ran
/// against still serves a clean follow-up batch.
#[test]
fn hostile_image_yields_typed_error_row() {
    // Text segment wrapping the top of the address space: refused by
    // the ingestion rung of the recompile pipeline.
    let mut hostile = Image::new();
    hostile.text = vec![0u8; 16];
    hostile.text_base = u32::MAX - 7;
    hostile.entry = hostile.text_base;

    // Sanity: the refusal is the typed ingest error, not a panic — and
    // a healing request passes the same ingestion rung before lifting.
    let inputs = [vec![]];
    let plain = Request::new(&hostile, &inputs, Mode::Wytiwyg);
    let err = recompile(&plain).unwrap_err();
    assert!(matches!(err, RecompileError::Ingest(IngestError::Limit(_))), "{err}");
    let err = recompile(&Request { held_out: Some(&[vec![1]]), ..plain }).unwrap_err();
    assert!(matches!(err, RecompileError::Ingest(IngestError::Limit(_))), "healing: {err}");

    let good = compile("int main() { return 7; }", &Profile::gcc12_o3())
        .expect("good job compiles")
        .stripped();
    let job = |name: &str, image: Image| BatchJob {
        name: name.to_string(),
        image,
        inputs: vec![vec![]],
        mode: Mode::Wytiwyg,
        opt: OptLevel::Full,
    };
    let jobs =
        vec![job("good-a", good.clone()), job("hostile", hostile), job("good-b", good.clone())];

    let tr = TempRoot::new("hostile-batch");
    let store = Store::open(&tr.root).unwrap();
    let report = run_batch_supervised(&store, &jobs, &SuperviseConfig::default(), &|_| {
        FaultInjector::default()
    });

    assert_eq!(report.jobs.len(), 3);
    assert_eq!(report.jobs[0].outcome, JobOutcome::Cold, "{:?}", report.jobs[0].error);
    // good-b is the same artifact as good-a, so it must warm-serve
    // right past the hostile job — proof the store stayed intact.
    assert_eq!(report.jobs[2].outcome, JobOutcome::Warm, "{:?}", report.jobs[2].error);
    let row = &report.jobs[1];
    assert_eq!(row.outcome, JobOutcome::Error);
    let msg = row.error.as_deref().unwrap_or("");
    assert!(msg.contains("ingest"), "error row must carry the typed ingest error: {msg}");

    // The store survived: the same good job now serves warm.
    let follow = run_batch(&store, &[job("good-a", good)]);
    assert_eq!(follow.jobs[0].outcome, JobOutcome::Warm, "{:?}", follow.jobs[0].error);
}
