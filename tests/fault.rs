//! Fault-injection gate: the pipeline must *degrade*, never break.
//!
//! The same 128-program corpus that `tests/differential.rs` pins is
//! replayed here with `wyt_testkit::fault` corrupting the pipeline's
//! stage inputs (merged trace, vararg observations, saved-register
//! classification). For every program and every fault plan the contract
//! is:
//!
//! 1. `recompile` on a `Request` carrying a `FaultInjector` never
//!    panics;
//! 2. it returns `Ok` — possibly with functions demoted down the
//!    degradation ladder — or a structured `RecompileError`;
//! 3. any image it does produce reproduces the native behaviour on the
//!    traced input (the differential oracle applied to degraded output);
//! 4. the degradation report is deterministic: byte-identical between a
//!    serial run and a 4-thread run.
//!
//! Fault plans derive from pinned seeds; override with
//! `WYT_FAULT=<seed>` (decimal or 0x-hex) to explore or replay others.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wyt_core::{recompile, FaultInjector, Mode, RecompileError, Recompiled, Request};
use wyt_isa::image::Image;
use wyt_minicc::{compile, Profile};
use wyt_testkit::fault::env_seed;
use wyt_testkit::progen::gen_prog;
use wyt_testkit::rng::{mix, Rng};
use wyt_testkit::{check_prog_under_fault, FaultPlan, OracleConfig};

/// Corpus seed shared with nothing else: the programs are pinned so a
/// fault-report diff always means a pipeline change, not a corpus change.
const CORPUS_SEED: u64 = 0xfa_017_c0de;

/// Pinned fault-plan seeds (ISSUE acceptance: at least three).
const PINNED: [u64; 3] = [0x1, 0xc0_ffee, 0xdead_beef_0bad_f00d];

/// Replay `cases` corpus programs under fault plans derived from `base`,
/// returning the concatenated canonical reports.
fn run_corpus(base: u64, cases: usize) -> String {
    let oracle = OracleConfig::default();
    let mut all = String::new();
    for i in 0..cases {
        let mut rng = Rng::new(mix(CORPUS_SEED, i as u64));
        let p = gen_prog(&mut rng);
        let plan = FaultPlan::new(mix(base, i as u64));
        let sum = check_prog_under_fault(&p, &plan, &oracle)
            .unwrap_or_else(|e| panic!("case {i} (WYT_FAULT={:#x}): {e}", plan.seed));
        all.push_str(&format!("case {i} plan {:#x}\n{sum}", plan.seed));
    }
    all
}

/// The corpus must exercise every outcome class: clean recompiles,
/// per-function demotions, and structured errors. (Skipped under a
/// `WYT_FAULT` override — an exploratory seed need not hit all three.)
fn assert_all_outcomes(report: &str) {
    if env_seed().is_some() {
        return;
    }
    let mut clean = 0usize;
    let mut degraded = 0usize;
    let mut errors = 0usize;
    for line in report.lines() {
        if line.contains("error:") {
            errors += 1;
        } else if line.contains("ok degraded=0") {
            clean += 1;
        } else if line.contains("ok degraded=") {
            degraded += 1;
        }
    }
    assert!(clean > 0, "some faulted recompiles should still come out clean:\n{report}");
    assert!(degraded > 0, "the degradation ladder never engaged:\n{report}");
    assert!(errors > 0, "no fault ever produced a structured error:\n{report}");
    // The withheld-input family (mask bit 8) fires for roughly half the
    // plans, and since PR 6 it carries the injector into the healing
    // loop itself — every corpus run must exercise that path.
    assert!(report.contains("healing:"), "no plan ever exercised faulted healing:\n{report}");
}

#[test]
fn fault_corpus_pinned_seed_0() {
    assert_all_outcomes(&run_corpus(env_seed().unwrap_or(PINNED[0]), 128));
}

#[test]
fn fault_corpus_pinned_seed_1() {
    assert_all_outcomes(&run_corpus(env_seed().unwrap_or(PINNED[1]), 128));
}

#[test]
fn fault_corpus_pinned_seed_2() {
    assert_all_outcomes(&run_corpus(env_seed().unwrap_or(PINNED[2]), 128));
}

/// Small pinned subset for the CI smoke gate (`scripts/ci.sh` runs this
/// with an explicit `WYT_FAULT` seed).
#[test]
fn fault_smoke() {
    let report = run_corpus(env_seed().unwrap_or(PINNED[0]), 8);
    assert!(!report.is_empty());
}

/// Degradation decisions (which functions land on which rung, and why)
/// must not depend on the executor's thread count.
#[test]
fn fault_reports_identical_serial_vs_parallel() {
    let base = env_seed().unwrap_or(PINNED[0]);
    wyt_par::set_threads(1);
    let serial = run_corpus(base, 16);
    wyt_par::set_threads(4);
    let par = run_corpus(base, 16);
    wyt_par::set_threads(1);
    assert_eq!(serial, par, "fault reports must be byte-identical at any thread count");
}

/// Source with a branch healing must discover: tracing only `"q"` leaves
/// the `'x'` side guarded, and the held-out input walks straight into it.
const HEAL_SRC: &str = r#"
    int leaf(int v) { return v * 3 + 1; }
    int pick(int c) {
        if (c == 'x') return leaf(c);
        return c + 2;
    }
    int main() {
        int c = getchar();
        printf("%d\n", pick(c));
        return 0;
    }
"#;

/// Recompile `img` traced on `"q"` under `injector`, then heal it on the
/// held-out `"x"`.
fn heal_faulted(img: &Image, injector: &FaultInjector) -> Result<Recompiled, RecompileError> {
    let traced = [b"q".to_vec()];
    let held_out = [b"x".to_vec()];
    recompile(&Request {
        faults: injector,
        held_out: Some(&held_out),
        ..Request::new(img, &traced, Mode::Wytiwyg)
    })
}

/// A trace hook that passes the initial lift through untouched and then
/// empties every incremental re-trace delta. Healing sees "no new
/// coverage" for a guard the input demonstrably reaches: it must stop
/// unconverged — structured, no panic — and the last good image must
/// still reproduce the traced behaviour.
#[test]
fn healing_with_starved_retrace_stops_unconverged() {
    let img = compile(HEAL_SRC, &Profile::gcc12_o3()).unwrap().stripped();
    let calls = Arc::new(AtomicUsize::new(0));
    let hook_calls = Arc::clone(&calls);
    let mut injector = FaultInjector::default();
    injector.trace = Some(Box::new(move |t| {
        if hook_calls.fetch_add(1, Ordering::SeqCst) > 0 {
            t.edges.clear();
            t.ext_calls.clear();
        }
    }));
    let healed =
        heal_faulted(&img, &injector).expect("starved healing must end structurally, not error");
    assert!(calls.load(Ordering::SeqCst) >= 2, "the delta hook never fired");
    let r = healed.report.healing.as_ref().expect("a healing request reports healing");
    assert!(!r.converged, "an empty delta cannot heal a reachable guard");
    assert!(r.sites_unhealed >= 1);
    assert_eq!(r.sites_healed, 0);
    assert!(!r.events.is_empty(), "the guard trap must still be attributed");
    // The surviving image is the pre-healing one: exact on the traced
    // input, guard-trapping (not silently wrong) on the held-out one.
    let native = wyt_emu::run_image(&img, b"q".to_vec());
    let got = wyt_emu::run_image(&healed.image, b"q".to_vec());
    assert!(got.ok(), "traced input must still run clean: {:?}", got.trap);
    assert_eq!(got.exit_code, native.exit_code);
    assert_eq!(got.output, native.output);
    let held = wyt_emu::run_image(&healed.image, b"x".to_vec());
    assert!(!held.ok(), "the unhealed path must trap, never diverge silently");
}

/// A trace hook that poisons every re-trace delta with a bogus call edge
/// on top of the real coverage. Whatever healing and the degradation
/// ladder make of it, the contract holds: no panic, and any converged
/// image is exact on the held-out input.
#[test]
fn healing_with_poisoned_retrace_degrades_or_errors() {
    let img = compile(HEAL_SRC, &Profile::gcc12_o3()).unwrap().stripped();
    let calls = Arc::new(AtomicUsize::new(0));
    let hook_calls = Arc::clone(&calls);
    let mut injector = FaultInjector::default();
    injector.trace = Some(Box::new(move |t| {
        if hook_calls.fetch_add(1, Ordering::SeqCst) == 0 {
            return;
        }
        if let Some(&(from, to, _)) = t.edges.iter().next() {
            // Mid-instruction target masquerading as a function entry.
            t.edges.insert((from, to + 1, wyt_emu::TransferKind::Call));
        }
    }));
    match heal_faulted(&img, &injector) {
        Err(e) => {
            // A structured lift failure is an acceptable outcome.
            assert!(!e.to_string().is_empty());
        }
        Ok(healed) => {
            if healed.report.healing.as_ref().is_some_and(|h| h.converged) {
                let native = wyt_emu::run_image(&img, b"x".to_vec());
                let got = wyt_emu::run_image(&healed.image, b"x".to_vec());
                assert!(got.ok(), "converged image trapped: {:?}", got.trap);
                assert_eq!(got.exit_code, native.exit_code);
                assert_eq!(got.output, native.output);
            } else {
                let native = wyt_emu::run_image(&img, b"q".to_vec());
                let got = wyt_emu::run_image(&healed.image, b"q".to_vec());
                assert!(got.ok());
                assert_eq!(got.exit_code, native.exit_code);
                assert_eq!(got.output, native.output);
            }
        }
    }
    assert!(calls.load(Ordering::SeqCst) >= 2, "the delta hook never fired");
}

/// The ladder is invisible on a healthy pipeline: a clean recompile
/// records zero degradations in both modes.
#[test]
fn clean_recompile_has_no_degradations() {
    let src = r#"
        int acc(int n) {
            int i;
            int s = 0;
            for (i = 0; i < n; i++) s += i * i;
            return s;
        }
        int main() {
            printf("%d\n", acc(10));
            return acc(5) & 0x7f;
        }
    "#;
    let img = compile(src, &Profile::gcc12_o3()).unwrap().stripped();
    for mode in [Mode::NoSymbolize, Mode::Wytiwyg] {
        let out = recompile(&Request::new(&img, &[vec![]], mode)).unwrap();
        assert!(
            out.report.degradations.is_empty(),
            "{mode:?}: clean corpus must not degrade: {:?}",
            out.report.degradations
        );
    }
}
