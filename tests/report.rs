//! Observability-layer integration tests: the [`wyt_obs::PipelineReport`]
//! attached to every recompilation must be deterministic for a fixed
//! program and input set, its coverage counts (taken from the validation
//! replays of the shipped image) must partition the dynamic stack
//! references without any extra interpreter replay, and both execution
//! engines must agree on guard-trap counters.
//!
//! The obs sink is process-global, so tests that toggle it serialize on
//! one lock (the rest of this binary's tests never enable it).

use std::collections::BTreeMap;
use std::sync::Mutex;
use wyt_core::{recompile, Mode, Recompiled, Request};
use wyt_emu::Machine;
use wyt_ir::interp::{Interp, NoHooks};
use wyt_minicc::{compile, Profile};

static SINK_LOCK: Mutex<()> = Mutex::new(());

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

fn recompiled(mode: Mode) -> Recompiled {
    let img = compile(SRC, &Profile::gcc44_o3()).unwrap().stripped();
    recompile(&Request::new(&img, &[vec![]], mode)).unwrap()
}

#[test]
fn wytiwyg_report_is_deterministic_and_pins_stage_schema() {
    let _l = SINK_LOCK.lock().unwrap();
    wyt_obs::set_enabled(false);

    let a = recompiled(Mode::Wytiwyg).report;
    let b = recompiled(Mode::Wytiwyg).report;
    assert_eq!(
        a.to_json_deterministic().to_string(),
        b.to_json_deterministic().to_string(),
        "timing-stripped report must be byte-identical for a fixed program"
    );

    let stages: Vec<&str> = a.stages.iter().map(|s| s.name).collect();
    assert_eq!(
        stages,
        [
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
            "lower"
        ],
        "Wytiwyg stage list is part of the report contract"
    );
    for s in &a.stages {
        assert!(s.after.insts > 0 || s.before.insts > 0, "stage {} saw an empty module", s.name);
    }
    // The optimizer must shrink the symbolized module.
    let sym = a.stage("symbolize").unwrap().after.insts;
    let opt = a.stage("optimize2").unwrap().after.insts;
    assert!(opt < sym, "re-optimization must shrink symbolized IR ({opt} !< {sym})");
    // Lift counts are populated, not discarded.
    assert!(a.lift.trace_edges > 0 && a.lift.cfg_blocks > 0 && a.lift.funcs_recovered > 0);
    // Quality metrics see the printf call and the recovered frame.
    assert!(a.quality.vararg_sites >= 1, "printf site must be recovered");
    assert!(a.quality.vars_recovered >= 1);
    assert!(!a.quality.funcs.is_empty());
    // With the sink disabled, the validation replays do not classify.
    assert!(a.quality.coverage.is_none(), "coverage costs range checks; it is sink-gated");
}

#[test]
fn nosymbolize_report_keeps_emulated_stack_roots() {
    let _l = SINK_LOCK.lock().unwrap();
    wyt_obs::set_enabled(false);

    let r = recompiled(Mode::NoSymbolize).report;
    let stages: Vec<&str> = r.stages.iter().map(|s| s.name).collect();
    assert_eq!(stages, ["lift", "optimize", "lower"]);
    assert!(
        r.quality.emu_refs_before > 0 && r.quality.emu_refs_after > 0,
        "without symbolization the optimizer cannot remove emulated-stack roots \
         ({} -> {})",
        r.quality.emu_refs_before,
        r.quality.emu_refs_after
    );
}

#[test]
fn coverage_counts_partition_stack_references() {
    let _l = SINK_LOCK.lock().unwrap();
    for mode in [Mode::NoSymbolize, Mode::Wytiwyg] {
        wyt_obs::set_enabled(true);
        wyt_obs::reset();
        let a = recompiled(mode).report;
        let snap = wyt_obs::snapshot();
        let b = recompiled(mode).report;
        wyt_obs::set_enabled(false);
        wyt_obs::reset();

        let ca = a.quality.coverage.expect("enabled sink must collect coverage");
        let cb = b.quality.coverage.unwrap();
        assert_eq!(
            (ca.symbolized, ca.residual, ca.total, ca.runs),
            (cb.symbolized, cb.residual, cb.total, cb.runs),
            "{mode:?}: coverage is deterministic"
        );
        assert_eq!(ca.runs, 1, "{mode:?}: one validation replay per traced input");
        assert_eq!(
            ca.symbolized + ca.residual,
            ca.total,
            "{mode:?}: symbolized + residual must equal all observed stack references"
        );
        assert!(ca.total > 0, "{mode:?}: the program uses its stack");
        // Coverage rides on the validation replay: no span of its own.
        assert!(!snap.span_totals().contains_key("coverage"), "{mode:?}: no coverage replay");
        match mode {
            // The emulated stack survives recompilation without symbols.
            Mode::NoSymbolize => assert!(ca.residual > 0, "residual traffic expected"),
            Mode::Wytiwyg => {
                assert!(ca.symbolized > 0, "the sample's locals must symbolize");
                assert_eq!(
                    a.quality.emu_refs_after, 0,
                    "full symbolization leaves no static emulated-stack roots"
                );
                // The sink adds no interpreter replay: only regsave and
                // bounds run the interpreter on the one traced input.
                assert_eq!(snap.counters.get("interp.runs"), Some(&2), "{:?}", snap.counters);
            }
        }
    }
}

/// The `lift` stage row times the lift itself: it can never be shorter
/// than the trace replay nested inside the lift.
#[test]
fn lift_stage_row_covers_the_traced_lift() {
    let _l = SINK_LOCK.lock().unwrap();
    wyt_obs::set_enabled(true);
    wyt_obs::reset();
    let rep = recompiled(Mode::Wytiwyg).report;
    let totals = wyt_obs::snapshot().span_totals();
    wyt_obs::set_enabled(false);
    wyt_obs::reset();

    let (trace_ns, traces) = totals["lift.trace"];
    assert_eq!(traces, 1, "one recompile traces once");
    let lift_ns = rep.stage("lift").expect("lift row").wall_ns;
    assert!(lift_ns >= trace_ns, "lift row {lift_ns} ns < its lift.trace span {trace_ns} ns");
}

/// Guard-trap counters under `prefix` (`emu` / `interp`), e.g.
/// `{"branch": 1}` — the names are part of the obs contract.
fn guard_counters(snap: &wyt_obs::Snapshot, prefix: &str) -> BTreeMap<String, u64> {
    let head = format!("{prefix}.trap.guard.");
    snap.counters
        .iter()
        .filter_map(|(k, &v)| k.strip_prefix(&head).map(|kind| (kind.to_string(), v)))
        .collect()
}

/// Both engines must classify the same untraced site the same way: the
/// machine's `emu.trap.guard.{branch,indirect}` counters and the
/// interpreter's `interp.trap.guard.*` counters agree per kind.
#[test]
fn machine_and_interp_guard_counters_agree_per_kind() {
    let _l = SINK_LOCK.lock().unwrap();

    // One untraced branch side, one untraced indirect target.
    let cases: [(&str, &[u8], &[u8], &str); 2] = [
        (
            r#"
            int main() {
                int c = getchar();
                if (c == 'x') return 7;
                return 3;
            }
            "#,
            b"q",
            b"x",
            "branch",
        ),
        (
            r#"
            int a() { return 1; }
            int b() { return 2; }
            int main() {
                int d = getchar() - 'a';
                int t = (int)&a + d * ((int)&b - (int)&a);
                return __icall(t);
            }
            "#,
            b"a",
            b"b",
            "indirect",
        ),
    ];

    for (src, traced, held_out, kind) in cases {
        let img = compile(src, &Profile::gcc12_o3()).unwrap().stripped();
        wyt_obs::set_enabled(false);
        let out = recompile(&Request::new(&img, &[traced.to_vec()], Mode::Wytiwyg)).unwrap();

        wyt_obs::set_enabled(true);
        wyt_obs::reset();
        let mut m = Machine::new(&out.image, held_out.to_vec());
        m.set_fuel(1_000_000);
        let mr = m.run();
        let emu = guard_counters(&wyt_obs::snapshot(), "emu");

        wyt_obs::reset();
        let mut it = Interp::new(&out.module, held_out.to_vec(), NoHooks);
        it.set_fuel(1_000_000);
        let io = it.run();
        let interp = guard_counters(&wyt_obs::snapshot(), "interp");
        wyt_obs::set_enabled(false);
        wyt_obs::reset();

        assert!(mr.trap.is_some(), "{kind}: held-out input must hit the guard");
        assert_eq!(
            emu.get(kind),
            Some(&1),
            "{kind}: machine guard counter must fire once: {emu:?}"
        );
        assert_eq!(
            emu, interp,
            "{kind}: engines must agree on guard-kind counters (machine {mr:?}, interp {io:?})"
        );
    }
}
