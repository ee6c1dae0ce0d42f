//! Self-healing loop integration gate: guard-trap attribution must name
//! the right function and site kind, healed images must keep passing
//! everything that already passed, and the whole loop must be
//! deterministic — idempotent on a healed image and byte-identical at
//! any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use wyt_core::{recompile, FaultInjector, Mode, RecompileError, Recompiled, Request};
use wyt_emu::Machine;
use wyt_minicc::{compile, Profile};
use wyt_testkit::{check_source, OracleConfig};

static SINK_LOCK: Mutex<()> = Mutex::new(());

/// Three functions; the traced input never takes the `== 'x'` branch, so
/// only `main`'s CFG changes when the held-out input arrives.
const SRC: &str = r#"
int leaf(int x) {
    int i;
    int s = 1;
    for (i = 0; i < x; i++) s += i * x;
    return s;
}
int helper(int x) { return leaf(x) + leaf(x + 1); }
int main() {
    int c = getchar();
    if (c == 'x') return 77;
    printf("%d\n", helper(c & 7));
    return helper(c & 7) & 0x7f;
}
"#;

const TRACED: &[u8] = b"q";
const HELD_OUT: &[u8] = b"x";

/// Recompile `img` traced on `traced`, then heal it on `held_out`.
fn heal(
    img: &wyt_isa::image::Image,
    traced: &[Vec<u8>],
    held_out: &[Vec<u8>],
) -> Result<Recompiled, RecompileError> {
    recompile(&Request { held_out: Some(held_out), ..Request::new(img, traced, Mode::Wytiwyg) })
}

fn run(img: &wyt_isa::image::Image, input: &[u8]) -> wyt_emu::RunResult {
    let mut m = Machine::new(img, input.to_vec());
    m.set_fuel(8_000_000);
    m.run()
}

#[test]
fn heals_untraced_branch_with_incremental_relift() {
    let _l = wyt_obs::lock_ok(&SINK_LOCK);
    wyt_obs::set_enabled(false);

    let img = compile(SRC, &Profile::gcc12_o3()).unwrap();
    let healed = heal(&img, &[TRACED.to_vec()], &[HELD_OUT.to_vec()]).unwrap();
    let r = healed.report.healing.as_ref().expect("a healing request reports healing");

    // Converged within the smoke budget, with nothing left unhealed and
    // no degradation-ladder demotions.
    assert!(r.converged, "healing must converge: {r:?}");
    assert!(r.rounds >= 1 && r.rounds <= 2, "one guard site, {} rounds", r.rounds);
    assert_eq!((r.sites_healed, r.sites_unhealed), (1, 0), "{r:?}");
    assert!(
        healed.report.degradations.is_empty(),
        "healing this program needs no demotions: {:?}",
        healed.report.degradations
    );

    // (a) The guard event is attributed to the function that owns the
    // untraced branch side, with the right site kind.
    let ev = &r.events[0];
    assert_eq!(ev.kind, "branch", "untraced `== 'x'` side is a branch guard");
    assert_eq!(ev.name, "lifted_main", "guard must be attributed to main: {ev:?}");
    assert!(ev.pc != 0, "guard site carries the machine address");

    // (b) Every lifted function survives the re-lift.
    assert_eq!(r.funcs_total, 3, "leaf, helper, main");

    // (c) The healed image matches the original on the union input set.
    for input in [TRACED, HELD_OUT] {
        let native = run(&img, input);
        let rec = run(&healed.image, input);
        assert!(native.ok(), "{:?}", native.trap);
        assert!(rec.ok(), "healed image trapped on {input:?}: {:?}", rec.trap);
        assert_eq!((rec.exit_code, &rec.output), (native.exit_code, &native.output));
    }
    assert_eq!(run(&healed.image, HELD_OUT).exit_code, 77);

    // The union input set is the traced set plus the healed offender;
    // the last round's gate ran the healed image on both, and its cycles
    // line up with them. The three-way oracle accepts the program on
    // both inputs.
    assert_eq!(healed.inputs, vec![TRACED.to_vec(), HELD_OUT.to_vec()]);
    let fresh: Vec<u64> = healed.inputs.iter().map(|i| run(&healed.image, i).cycles).collect();
    assert_eq!(healed.replay_cycles, fresh);
    let oracle = OracleConfig { modes: vec![Mode::Wytiwyg], ..OracleConfig::default() };
    for input in [TRACED, HELD_OUT] {
        check_source(SRC, &Profile::gcc12_o3(), input, &oracle).unwrap();
    }
}

#[test]
fn healing_preserves_previously_passing_inputs_byte_identically() {
    let _l = wyt_obs::lock_ok(&SINK_LOCK);
    wyt_obs::set_enabled(false);

    let img = compile(SRC, &Profile::gcc12_o3()).unwrap();
    let before = recompile(&Request::new(&img, &[TRACED.to_vec()], Mode::Wytiwyg)).unwrap();
    let pre = run(&before.image, TRACED);
    assert!(pre.ok());

    let healed = heal(&img, &[TRACED.to_vec()], &[HELD_OUT.to_vec()]).unwrap();
    let post = run(&healed.image, TRACED);
    assert!(post.ok());
    assert_eq!(
        (post.exit_code, &post.output),
        (pre.exit_code, &pre.output),
        "inputs that passed before healing must pass identically after"
    );
}

#[test]
fn healing_is_idempotent_and_deterministic() {
    let _l = wyt_obs::lock_ok(&SINK_LOCK);
    wyt_obs::set_enabled(false);

    let img = compile(SRC, &Profile::gcc12_o3()).unwrap();
    let first = heal(&img, &[TRACED.to_vec()], &[HELD_OUT.to_vec()]).unwrap();

    // Same arguments → byte-identical deterministic report (and image).
    let again = heal(&img, &[TRACED.to_vec()], &[HELD_OUT.to_vec()]).unwrap();
    assert_eq!(first.image, again.image);
    assert_eq!(
        first.report.to_json_deterministic().to_string(),
        again.report.to_json_deterministic().to_string(),
        "healing must be deterministic"
    );

    // A second pass over the already-healed input set sees no guard
    // events: zero rounds, nothing healed.
    let second = heal(&img, &first.inputs, &[HELD_OUT.to_vec()]).unwrap();
    let r = second.report.healing.as_ref().unwrap();
    assert!(r.converged);
    assert_eq!((r.rounds, r.sites_healed, r.sites_unhealed), (0, 0, 0), "{r:?}");
    assert!(r.events.is_empty());
    assert_eq!(second.image, first.image, "re-healing a healed trace set is a no-op on the image");
}

#[test]
fn healing_reports_identical_serial_vs_parallel() {
    let _l = wyt_obs::lock_ok(&SINK_LOCK);
    wyt_obs::set_enabled(false);

    let img = compile(SRC, &Profile::gcc12_o3()).unwrap();
    wyt_par::set_threads(1);
    let serial = heal(&img, &[TRACED.to_vec()], &[HELD_OUT.to_vec()]).unwrap();
    wyt_par::set_threads(4);
    let par = heal(&img, &[TRACED.to_vec()], &[HELD_OUT.to_vec()]).unwrap();
    wyt_par::set_threads(1);

    assert_eq!(serial.image, par.image);
    assert_eq!(
        serial.report.to_json_deterministic().to_string(),
        par.report.to_json_deterministic().to_string(),
        "healing reports must be byte-identical at any thread count"
    );
}

#[test]
fn held_out_input_that_misbehaves_natively_is_rejected() {
    let _l = wyt_obs::lock_ok(&SINK_LOCK);
    wyt_obs::set_enabled(false);

    // An input the *original* binary cannot handle is not healable.
    let src = r#"
    int main() {
        int c = getchar();
        int d = c - 'x';
        return 100 / d;
    }
    "#;
    let img = compile(src, &Profile::gcc12_o3()).unwrap();
    let err = heal(&img, &[b"q".to_vec()], &[b"x".to_vec()]);
    assert!(
        matches!(err, Err(RecompileError::Validate(_))),
        "native misbehaviour must be a structured error: {err:?}"
    );
}

/// The held-out input both reaches an untraced guard (in `main`) and
/// picks, at run time, a wider format string for the `printf` in
/// `show` — a function two call hops from `main` whose CFG healing
/// leaves unchanged. The re-lifted `printf` site must take its arity
/// from the merged trace, which saw both formats; an arity kept from
/// the first recompile would print garbage for the held-out input and
/// push the module down the degradation ladder.
#[test]
fn healing_widens_a_reused_printf_from_the_merged_trace() {
    let _l = wyt_obs::lock_ok(&SINK_LOCK);
    wyt_obs::set_enabled(false);

    let src = r#"
        int show(char *fmt, int x) {
            int i;
            int s = 1;
            for (i = 0; i < x; i++) s += i * x;
            printf(fmt, s, x, s ^ x);
            return s;
        }
        int helper(char *fmt, int x) { return show(fmt, x) + show(fmt, x + 1); }
        int main() {
            int c = getchar();
            char *fmt = "%d\n";
            if (c == 'x') {
                putchar(33);
                fmt = "%d %d %d\n";
            }
            return (helper(fmt, c & 7) + helper(fmt, c & 3)) & 0x7f;
        }
    "#;
    let img = compile(src, &Profile::gcc12_o3()).unwrap();
    let healed = heal(&img, &[TRACED.to_vec()], &[HELD_OUT.to_vec()]).unwrap();
    let r = healed.report.healing.as_ref().expect("a healing request reports healing");

    assert!(r.converged, "healing must converge: {r:?}");
    assert_eq!(r.events[0].name, "lifted_main", "the guard sits in main: {r:?}");
    assert!(
        healed.report.degradations.is_empty(),
        "a widened printf needs no demotions: {:?}",
        healed.report.degradations
    );
    for input in [TRACED, HELD_OUT] {
        let native = run(&img, input);
        let rec = run(&healed.image, input);
        assert!(native.ok(), "{:?}", native.trap);
        assert!(rec.ok(), "healed image trapped on {input:?}: {:?}", rec.trap);
        assert_eq!((rec.exit_code, &rec.output), (native.exit_code, &native.output));
    }
    let wide = run(&img, HELD_OUT).output;
    assert_eq!(wide.iter().filter(|&&b| b == b' ').count(), 8, "four three-value lines");
}

/// A facts-seeded heal runs each facts input on the original image
/// once: the probe that checks the original handles the input cleanly
/// traces it, and that run is also healing's reference run for it and
/// its trace the coverage the healing round merges. So the heal makes
/// as many emulator runs as a direct heal with the same input held out:
/// a trace and a gate run of the traced input, one trace of the held-out
/// input, its replay on the first image, the healing round's gate on
/// both inputs and the held-out input's passing replay on the healed
/// image. The program is the store gate's healing program
/// (`tests/store.rs`).
#[test]
fn facts_seeded_heal_runs_each_input_on_the_original_once() {
    let _l = wyt_obs::lock_ok(&SINK_LOCK);
    wyt_obs::set_enabled(false);

    let src = r#"
        int leaf(int x) {
            int i;
            int s = 2;
            for (i = 0; i < x; i++) s += i * x + 1;
            return s;
        }
        int helper(int x) { return leaf(x) + leaf(x + 2); }
        int main() {
            int c = getchar();
            if (c == 'x') return 55;
            printf("%d\n", helper(c & 7));
            return helper(c & 3) & 0x7f;
        }
    "#;
    let img = compile(src, &Profile::gcc12_o3()).unwrap().stripped();
    let traced = vec![TRACED.to_vec()];
    let held = vec![HELD_OUT.to_vec()];
    let root = std::env::temp_dir().join(format!("wyt-heal-runs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = wyt_store::Store::open(&root).expect("temp store");
    let stored_heal = |held: &[Vec<u8>], stamp| {
        let req = Request { held_out: Some(held), ..Request::new(&img, &traced, Mode::Wytiwyg) };
        wyt_core::recompile_stored(&store, &req, stamp).unwrap()
    };
    // The first heal records its input union, held-out input included,
    // as the image's facts.
    stored_heal(&held, 1);

    wyt_obs::set_enabled(true);
    let (direct, direct_obs) = wyt_obs::with_local(|| heal(&img, &traced, &held).unwrap());
    let (seeded, seeded_obs) = wyt_obs::with_local(|| stored_heal(&[], 2));
    wyt_obs::set_enabled(false);
    let _ = std::fs::remove_dir_all(&root);

    assert!(!seeded.warm(), "only the facts tier matches a request with nothing held out");
    assert_eq!(seeded.image(), &direct.image, "the facts reproduce the direct heal");
    let runs = |snap: &wyt_obs::Snapshot| snap.counters.get("emu.runs").copied();
    assert_eq!(runs(&seeded_obs), runs(&direct_obs), "{:?}", seeded_obs.counters);
    assert_eq!(runs(&direct_obs), Some(7), "{:?}", direct_obs.counters);
}

/// Every healing round runs under one `healing.round` span, however it
/// ends: a round that heals the guard, and a round whose re-trace adds
/// no coverage and stops the loop unhealed.
#[test]
fn every_healing_round_is_one_span() {
    let _l = wyt_obs::lock_ok(&SINK_LOCK);
    let img = compile(SRC, &Profile::gcc12_o3()).unwrap();
    let (traced, held_out) = ([TRACED.to_vec()], [HELD_OUT.to_vec()]);
    // Pass the initial lift's trace through and empty every re-trace
    // delta, so the one guard can never heal.
    let calls = AtomicUsize::new(0);
    let starve = FaultInjector {
        trace: Some(Box::new(move |t| {
            if calls.fetch_add(1, Ordering::SeqCst) > 0 {
                t.edges.clear();
                t.ext_calls.clear();
            }
        })),
        ..FaultInjector::default()
    };
    let starved = Request {
        faults: &starve,
        held_out: Some(&held_out),
        ..Request::new(&img, &traced, Mode::Wytiwyg)
    };

    wyt_obs::set_enabled(true);
    let (healed, healed_obs) = wyt_obs::with_local(|| heal(&img, &traced, &held_out).unwrap());
    let (stuck, stuck_obs) = wyt_obs::with_local(|| recompile(&starved).unwrap());
    wyt_obs::set_enabled(false);

    for (rec, obs, converged) in [(healed, healed_obs, true), (stuck, stuck_obs, false)] {
        let r = rec.report.healing.expect("a healing request reports healing");
        assert_eq!(r.converged, converged, "{r:?}");
        assert!(r.rounds >= 1, "{r:?}");
        let spans = obs.span_stats().get("healing.round").map_or(0, |s| s.count);
        assert_eq!(spans, r.rounds, "one healing.round span per round: {r:?}");
    }
}
