//! The three-way differential execution oracle.
//!
//! For a mini-C program the oracle compiles it to an [`Image`] and
//! demands *observable-behaviour equality* — exit code, output bytes and
//! trap class, under a bounded fuel budget — across three executions:
//!
//! 1. **native** — the input binary on the machine emulator
//!    ([`wyt_emu::Machine`]);
//! 2. **lifted** — the dynamically lifted IR on the IR interpreter
//!    ([`wyt_ir::interp::Interp`]);
//! 3. **recompiled** — the full `wyt_core::pipeline::recompile`
//!    round-trip (per [`Mode`]), run again on the machine emulator.
//!
//! This is the semantic-preservation claim of the paper (§4–§6) stated as
//! an executable property. Observations are normalized through
//! [`TrapClass`] because the engines report abnormal termination with
//! different types ([`Trap`] vs [`InterpError`]); the class partition is
//! exactly the behaviour the paper considers observable.

use wyt_core::{recompile, Mode, Request};
use wyt_emu::{Machine, RunResult, Trap};
use wyt_ir::interp::{Interp, InterpError, InterpOutput, NoHooks};
use wyt_ir::Module;
use wyt_isa::image::Image;
use wyt_isa::TrapCode;
use wyt_lifter::lift_image;
use wyt_minicc::Profile;

/// Normalized termination behaviour, comparable across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapClass {
    /// Clean exit.
    Exit,
    /// Instruction/step budget exhausted.
    Fuel,
    /// Signed division by zero or overflow.
    Divide,
    /// `abort()` called.
    Abort,
    /// A recompiler guard fired (untraced path reached).
    Guard,
    /// Any other fatal condition (bad pc, bad decode, bad indirect, ...).
    Other,
}

/// Classify a machine-level run. Only the recompiler's reserved guard
/// codes ([`TrapCode::is_guard`]) count as [`TrapClass::Guard`];
/// original-program traps and `Unreachable` stay [`TrapClass::Other`].
pub fn classify_machine(r: &RunResult) -> TrapClass {
    match &r.trap {
        None => TrapClass::Exit,
        Some(Trap::OutOfFuel) => TrapClass::Fuel,
        Some(Trap::DivideError(_)) => TrapClass::Divide,
        Some(Trap::Aborted) => TrapClass::Abort,
        Some(Trap::TrapInst { code, .. }) if TrapCode::is_guard(*code) => TrapClass::Guard,
        Some(_) => TrapClass::Other,
    }
}

/// Classify an IR-interpreter run, with the same code partition as
/// [`classify_machine`]. `BadIndirect` is the IR-level form of the
/// backend's indirect-dispatch-miss guard, so it classifies as Guard.
pub fn classify_interp(o: &InterpOutput) -> TrapClass {
    match &o.error {
        None => TrapClass::Exit,
        Some(InterpError::Fuel) => TrapClass::Fuel,
        Some(InterpError::DivideError(..)) => TrapClass::Divide,
        Some(InterpError::Aborted) => TrapClass::Abort,
        Some(InterpError::Trap(c)) if TrapCode::is_guard(*c) => TrapClass::Guard,
        Some(InterpError::BadIndirect(_)) => TrapClass::Guard,
        Some(_) => TrapClass::Other,
    }
}

/// One engine's observable behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obs {
    /// Normalized termination class.
    pub class: TrapClass,
    /// Exit code (0 for abnormal termination, by both engines' contract).
    pub exit_code: i32,
    /// Bytes written to the output stream.
    pub output: Vec<u8>,
}

impl std::fmt::Display for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} exit={} output={:?}",
            self.class,
            self.exit_code,
            String::from_utf8_lossy(&self.output)
        )
    }
}

/// Run `img` on the machine emulator under `fuel` and observe it.
pub fn observe_native(img: &Image, input: &[u8], fuel: u64) -> Obs {
    let mut m = Machine::new(img, input.to_vec());
    m.set_fuel(fuel);
    let r = m.run();
    Obs { class: classify_machine(&r), exit_code: r.exit_code, output: r.output }
}

/// Run `module` on the IR interpreter under `fuel` and observe it.
pub fn observe_interp(module: &Module, input: &[u8], fuel: u64) -> Obs {
    let mut it = Interp::new(module, input.to_vec(), NoHooks);
    it.set_fuel(fuel);
    let o = it.run();
    Obs { class: classify_interp(&o), exit_code: o.exit_code, output: o.output }
}

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Instruction budget for the native run. Derived executions (the
    /// interpreter and the recompiled binary) get 4x this budget: step
    /// counts are not comparable across abstraction levels, and the
    /// emulated-stack `NoSymbolize` round-trip legitimately retires more
    /// instructions than its input binary.
    pub fuel: u64,
    /// Recompilation modes to check.
    pub modes: Vec<Mode>,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig { fuel: 2_000_000, modes: vec![Mode::NoSymbolize, Mode::Wytiwyg] }
    }
}

/// Compile `src` under `profile` and check three-way equivalence on
/// `input`.
///
/// # Errors
/// A human-readable description of the first divergence (or of a
/// compile/lift/recompile failure, which the oracle also treats as a
/// property violation — generated programs are valid by construction).
pub fn check_source(
    src: &str,
    profile: &Profile,
    input: &[u8],
    cfg: &OracleConfig,
) -> Result<(), String> {
    let full = wyt_minicc::compile(src, profile)
        .map_err(|e| format!("[{}] compile failed: {e}", profile.name))?;
    let img = full.stripped();
    let derived_fuel = cfg.fuel.saturating_mul(4);

    let native = observe_native(&img, input, cfg.fuel);
    if native.class != TrapClass::Exit {
        return Err(format!("[{}] program misbehaves natively: {native}", profile.name));
    }

    // Leg 2: lift and interpret. The lift traces the same input, so the
    // lifted module covers every path the check executes.
    let lifted = lift_image(&img, &[input.to_vec()])
        .map_err(|e| format!("[{}] lift failed: {e}", profile.name))?;
    wyt_ir::verify::verify_module(&lifted.module)
        .map_err(|e| format!("[{}] lifted module fails verification: {e}", profile.name))?;
    let interp = observe_interp(&lifted.module, input, derived_fuel);
    if interp != native {
        return Err(format!(
            "[{}] lifted-IR interpreter diverges:\n  native: {native}\n  lifted: {interp}",
            profile.name
        ));
    }

    // Leg 3: the full recompile round-trip, per mode.
    for mode in &cfg.modes {
        let out = recompile(&Request::new(&img, &[input.to_vec()], *mode))
            .map_err(|e| format!("[{}] recompile ({mode:?}) failed: {e}", profile.name))?;
        let recompiled = observe_native(&out.image, input, derived_fuel);
        if recompiled != native {
            return Err(format!(
                "[{}] recompiled binary ({mode:?}) diverges:\n  native:     {native}\n  recompiled: {recompiled}",
                profile.name
            ));
        }
    }
    Ok(())
}

/// [`check_source`] for a generated [`crate::progen::Prog`]: renders it,
/// picks its embedded profile and input.
pub fn check_prog(p: &crate::progen::Prog, cfg: &OracleConfig) -> Result<(), String> {
    let src = crate::progen::render(p);
    check_source(&src, &crate::progen::profile(p.profile), &p.input, cfg)
        .map_err(|e| format!("{e}\nsource:\n{src}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_known_good_programs() {
        let srcs = [
            "int main() { return 41 + 1; }",
            r#"
            int sq(int x) { return x * x; }
            int main() {
                int i;
                int acc = 0;
                for (i = 0; i < 9; i++) acc += sq(i) - i / 3;
                printf("%d\n", acc);
                return acc & 0x7f;
            }
            "#,
        ];
        for src in srcs {
            for p in [Profile::gcc12_o3(), Profile::gcc12_o0()] {
                check_source(src, &p, b"", &OracleConfig::default())
                    .unwrap_or_else(|e| panic!("oracle must accept correct program: {e}"));
            }
        }
    }

    #[test]
    fn oracle_consumes_input_consistently() {
        let src = r#"
            int main() {
                int a = getchar();
                int b = getchar();
                printf("%d\n", a * 100 + b);
                return (a + b) & 0x7f;
            }
        "#;
        check_source(src, &Profile::gcc44_o3(), b"hi", &OracleConfig::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn trap_classes_partition_both_engines_the_same_way() {
        // The pairs that must coincide for the oracle to be sound.
        let r = |trap| RunResult {
            exit_code: 0,
            trap,
            cycles: 0,
            inst_count: 0,
            mem: Default::default(),
            output: vec![],
        };
        let o = |error| InterpOutput { exit_code: 0, output: vec![], error, guard: None, steps: 0 };
        assert_eq!(classify_machine(&r(None)), classify_interp(&o(None)));
        assert_eq!(
            classify_machine(&r(Some(Trap::OutOfFuel))),
            classify_interp(&o(Some(InterpError::Fuel)))
        );
        assert_eq!(
            classify_machine(&r(Some(Trap::Aborted))),
            classify_interp(&o(Some(InterpError::Aborted)))
        );
        // Same code, same class — for every trap code, guard or not.
        for code in [1u8, TrapCode::UntracedBranch.code(), TrapCode::UntracedIndirect.code()] {
            assert_eq!(
                classify_machine(&r(Some(Trap::TrapInst { pc: 0, code }))),
                classify_interp(&o(Some(InterpError::Trap(code)))),
                "code {code:#x}"
            );
        }
        assert_eq!(
            classify_machine(&r(Some(Trap::TrapInst { pc: 0, code: 0xfe }))),
            TrapClass::Guard
        );
        assert_eq!(
            classify_machine(&r(Some(Trap::TrapInst {
                pc: 0,
                code: TrapCode::Unreachable.code()
            }))),
            TrapClass::Other
        );
        // The interpreter's bad-indirect is the machine's dispatch-miss
        // guard: both must be Guard or healing cannot see interp-side
        // misses.
        assert_eq!(classify_interp(&o(Some(InterpError::BadIndirect(0x9999)))), TrapClass::Guard);
        assert_eq!(classify_machine(&r(Some(Trap::DivideError(0)))), TrapClass::Divide);
    }
}
