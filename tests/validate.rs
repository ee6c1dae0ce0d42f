//! Tests for `wyt_core::pipeline::validate`, the final behavioral gate of
//! the pipeline: a correct recompilation passes, and every kind of
//! miscompilation — wrong exit code, wrong output, or an outright trap —
//! is rejected with a diagnostic naming the offending input.

use wyt_core::{recompile, validate, MismatchKind, Mode, Request};
use wyt_emu::{run_image, Trap};
use wyt_minicc::{compile, Profile};

const SRC: &str = r#"
int main() {
    int x = getchar();
    printf("%d\n", x * 3);
    return (x + 1) & 0x7f;
}
"#;

fn inputs() -> Vec<Vec<u8>> {
    vec![vec![5], vec![40], vec![0]]
}

#[test]
fn correct_recompilation_is_accepted() {
    let img = compile(SRC, &Profile::gcc12_o3()).expect("compile").stripped();
    let ins = inputs();
    for mode in [Mode::NoSymbolize, Mode::Wytiwyg] {
        let out = recompile(&Request::new(&img, &ins, mode)).expect("recompile");
        validate(&img, &out.image, &ins)
            .unwrap_or_else(|e| panic!("{mode:?} roundtrip must validate: {e}"));
    }
}

#[test]
fn wrong_exit_code_is_rejected() {
    let img = compile(SRC, &Profile::gcc12_o3()).expect("compile").stripped();
    // "Miscompile" by pairing against a program that differs only in its
    // exit code; outputs agree on every input.
    let bad = compile(
        r#"
int main() {
    int x = getchar();
    printf("%d\n", x * 3);
    return (x + 2) & 0x7f;
}
"#,
        &Profile::gcc12_o3(),
    )
    .expect("compile")
    .stripped();
    let err = validate(&img, &bad, &inputs()).expect_err("must reject exit mismatch");
    assert_eq!(err.input, 0, "the first diverging input is blamed");
    assert!(
        matches!(err.kind, MismatchKind::Exit { original: 6, recompiled: 7 }),
        "structured kind carries both exit codes: {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("exit"), "diagnostic should name the exit mismatch: {msg}");
    assert!(msg.contains("input 0"), "diagnostic should name the input: {msg}");
}

#[test]
fn wrong_output_is_rejected() {
    let img = compile(SRC, &Profile::gcc12_o3()).expect("compile").stripped();
    // Same exit codes; the output diverges one byte in ("15" vs "16").
    let bad = compile(
        r#"
int main() {
    int x = getchar();
    printf("%d\n", x * 3 + 1);
    return (x + 1) & 0x7f;
}
"#,
        &Profile::gcc12_o3(),
    )
    .expect("compile")
    .stripped();
    let err = validate(&img, &bad, &inputs()).expect_err("must reject output mismatch");
    let MismatchKind::Output { first_diff, .. } = err.kind else {
        panic!("structured kind classifies the mismatch: {err:?}");
    };
    let input = inputs()[err.input].clone();
    let (a, b) = (run_image(&img, input.clone()).output, run_image(&bad, input).output);
    let expected = a.iter().zip(&b).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
    assert_eq!(first_diff, expected, "first_diff names the first divergent byte");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("output mismatch at byte {expected}")),
        "diagnostic should name the output and the byte: {msg}"
    );
}

#[test]
fn trapping_recompilation_is_rejected() {
    let img = compile(SRC, &Profile::gcc12_o3()).expect("compile").stripped();
    // An image whose text is a single undecodable byte traps immediately.
    let mut bad = img.clone();
    bad.text = vec![0xff];
    bad.entry = bad.text_base;
    let err = validate(&img, &bad, &inputs()).expect_err("must reject trapping image");
    assert!(
        matches!(err.kind, MismatchKind::RecompiledTrapped(Some(_))),
        "structured kind carries the trap: {err:?}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("recompiled trapped"),
        "diagnostic should blame the recompiled side: {msg}"
    );
}

#[test]
fn validate_only_checks_supplied_inputs() {
    // Behavioral validation is exactly as strong as the input set: a
    // program that diverges only on an input we never run passes. This is
    // the paper's central caveat — traced coverage bounds the guarantee.
    let img = compile(SRC, &Profile::gcc12_o3()).expect("compile").stripped();
    let diverges_on_seven = compile(
        r#"
int main() {
    int x = getchar();
    printf("%d\n", x * 3);
    if (x == 7) { return 99; }
    return (x + 1) & 0x7f;
}
"#,
        &Profile::gcc12_o3(),
    )
    .expect("compile")
    .stripped();
    validate(&img, &diverges_on_seven, &inputs()).expect("divergence outside inputs is invisible");
    let err = validate(&img, &diverges_on_seven, &[vec![7]]).expect_err("input 7 exposes it");
    assert!(matches!(err.kind, MismatchKind::Exit { .. }), "{err}");
}

#[test]
fn looping_recompilation_runs_out_of_fuel() {
    // A candidate that never exits gets the pipeline's replay budget —
    // scaled from the original's run — not the emulator's default one.
    let img = compile(SRC, &Profile::gcc12_o3()).expect("compile").stripped();
    let spins = compile(
        r#"
int main() {
    int n = 0;
    while (getchar() != 1000) n++;
    return n & 0x7f;
}
"#,
        &Profile::gcc12_o3(),
    )
    .expect("compile")
    .stripped();
    let err = validate(&img, &spins, &inputs()).expect_err("must reject a looping image");
    assert_eq!(err.input, 0);
    assert_eq!(err.kind, MismatchKind::RecompiledTrapped(Some(Trap::OutOfFuel)), "{err}");
}
