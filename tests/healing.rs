//! Self-healing loop integration gate: guard-trap attribution must name
//! the right function and site kind, re-lifting must stay incremental
//! (strictly fewer functions re-refined than the program has), healed
//! images must keep passing everything that already passed, and the
//! whole loop must be deterministic — idempotent on a healed image and
//! byte-identical at any thread count.

use std::sync::Mutex;
use wyt_core::{recompile, Mode, RecompileError, Recompiled, Request};
use wyt_emu::Machine;
use wyt_minicc::{compile, Profile};
use wyt_testkit::{check_source, OracleConfig};

static SINK_LOCK: Mutex<()> = Mutex::new(());

/// Three functions; the traced input never takes the `== 'x'` branch, so
/// only `main` changes when the held-out input arrives: `helper` is its
/// one-hop call neighbour (re-refined), `leaf` is untouched (reused).
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
    let _l = SINK_LOCK.lock().unwrap();
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

    // (b) The re-lift is incremental: only main's call component was
    // re-refined; at least one function's cached facts were reused.
    assert_eq!(r.funcs_total, 3, "leaf, helper, main");
    assert!(
        r.funcs_relifted < r.funcs_total,
        "re-lift must be partial: {} of {}",
        r.funcs_relifted,
        r.funcs_total
    );
    assert!(r.funcs_reused >= 1, "leaf's facts must be reused: {r:?}");

    // (c) The healed image matches the original on the union input set.
    for input in [TRACED, HELD_OUT] {
        let native = run(&img, input);
        let rec = run(&healed.image, input);
        assert!(native.ok(), "{:?}", native.trap);
        assert!(rec.ok(), "healed image trapped on {input:?}: {:?}", rec.trap);
        assert_eq!((rec.exit_code, &rec.output), (native.exit_code, &native.output));
    }
    assert_eq!(run(&healed.image, HELD_OUT).exit_code, 77);

    // The union input set is the traced set plus the healed offender,
    // and the three-way oracle accepts the program on both inputs.
    assert_eq!(healed.inputs, vec![TRACED.to_vec(), HELD_OUT.to_vec()]);
    let oracle = OracleConfig { modes: vec![Mode::Wytiwyg], ..OracleConfig::default() };
    for input in [TRACED, HELD_OUT] {
        check_source(SRC, &Profile::gcc12_o3(), input, &oracle).unwrap();
    }
}

#[test]
fn healing_preserves_previously_passing_inputs_byte_identically() {
    let _l = SINK_LOCK.lock().unwrap();
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
    let _l = SINK_LOCK.lock().unwrap();
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
    // events: zero rounds, nothing healed, nothing re-lifted.
    let second = heal(&img, &first.inputs, &[HELD_OUT.to_vec()]).unwrap();
    let r = second.report.healing.as_ref().unwrap();
    assert!(r.converged);
    assert_eq!((r.rounds, r.sites_healed, r.sites_unhealed), (0, 0, 0), "{r:?}");
    assert_eq!(r.funcs_relifted, 0, "no guard event → no re-lift");
    assert!(r.events.is_empty());
    assert_eq!(second.image, first.image, "re-healing a healed trace set is a no-op on the image");
}

#[test]
fn healing_reports_identical_serial_vs_parallel() {
    let _l = SINK_LOCK.lock().unwrap();
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
    let _l = SINK_LOCK.lock().unwrap();
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
/// `show` — a function two call hops from `main`, which healing leaves
/// unchanged and reuses. The re-lifted `printf` site must take its
/// arity from the merged trace, which saw both formats; an arity
/// cached from the first recompile would print garbage for the
/// held-out input and push the module down the degradation ladder.
#[test]
fn healing_widens_a_reused_printf_from_the_merged_trace() {
    let _l = SINK_LOCK.lock().unwrap();
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
    assert!(r.funcs_reused >= 1, "show is outside the relift closure: {r:?}");
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
