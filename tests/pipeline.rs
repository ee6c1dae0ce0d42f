//! Cross-crate integration tests: the full WYTIWYG pipeline — compile a
//! binary, strip it, trace, lift, refine, symbolize, re-optimize, lower —
//! then validate the recompiled binary behaves identically and check the
//! paper's headline properties (functionality, performance ordering,
//! accuracy).

use wyt_core::{recompile, validate, Mode, Request};
use wyt_emu::run_image;
use wyt_minicc::{compile, Profile};

fn profiles() -> Vec<Profile> {
    vec![Profile::gcc12_o3(), Profile::gcc12_o0(), Profile::clang16_o3(), Profile::gcc44_o3()]
}

/// Compile, recompile in both modes, and check functional equivalence on
/// all `check` inputs.
fn roundtrip(src: &str, train: &[&[u8]], check: &[&[u8]]) {
    for p in profiles() {
        let img = compile(src, &p).unwrap().stripped();
        let train: Vec<Vec<u8>> = train.iter().map(|i| i.to_vec()).collect();
        let check: Vec<Vec<u8>> = check.iter().map(|i| i.to_vec()).collect();
        for mode in [Mode::NoSymbolize, Mode::Wytiwyg] {
            let out = recompile(&Request::new(&img, &train, mode))
                .unwrap_or_else(|e| panic!("{} / {mode:?}: {e}", p.name));
            validate(&img, &out.image, &check)
                .unwrap_or_else(|e| panic!("{} / {mode:?}: {e}", p.name));
        }
    }
}

#[test]
fn roundtrips_arithmetic_and_locals() {
    roundtrip(
        r#"
        int compute(int a, int b) {
            int x = a * 3;
            int y = b - a;
            int arr[4];
            arr[0] = x;
            arr[1] = y;
            arr[2] = x + y;
            arr[3] = x * y;
            return arr[0] + arr[1] + arr[2] + arr[3];
        }
        int main() { return compute(5, 9) & 0xff; }
        "#,
        &[b""],
        &[b""],
    );
}

#[test]
fn roundtrips_recursion_and_io() {
    roundtrip(
        r#"
        int fib(int n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main() {
            int c = getchar() - '0';
            printf("fib=%d\n", fib(c + 5));
            return 0;
        }
        "#,
        &[b"3", b"7"],
        &[b"3", b"7"],
    );
}

#[test]
fn roundtrips_structs_pointers_and_externals() {
    roundtrip(
        r#"
        struct item { int weight; int value; };
        int knap(struct item *items, int n, int cap) {
            int best[64];
            int i;
            int c;
            for (c = 0; c <= cap; c++) best[c] = 0;
            for (i = 0; i < n; i++) {
                for (c = cap; c >= items[i].weight; c--) {
                    int cand = best[c - items[i].weight] + items[i].value;
                    if (cand > best[c]) best[c] = cand;
                }
            }
            return best[cap];
        }
        int main() {
            struct item items[5];
            char buf[16];
            int n = read_bytes(buf, 16);
            int i;
            for (i = 0; i < 5; i++) {
                items[i].weight = (buf[i % n] & 7) + 1;
                items[i].value = (buf[(i + 1) % n] & 15) + 1;
            }
            printf("best=%d\n", knap(items, 5, 20));
            return 0;
        }
        "#,
        &[b"abcdef", b"zzz"],
        &[b"abcdef", b"zzz"],
    );
}

#[test]
fn roundtrips_switch_tables_and_indirect_calls() {
    roundtrip(
        r#"
        int op_add(int a, int b) { return a + b; }
        int op_sub(int a, int b) { return a - b; }
        int op_mul(int a, int b) { return a * b; }
        int dispatch(int kind, int a, int b) {
            switch (kind) {
                case 0: return op_add(a, b);
                case 1: return op_sub(a, b);
                case 2: return op_mul(a, b);
                case 3: return a;
                case 4: return b;
                default: return -1;
            }
        }
        int main() {
            int table[2];
            int c;
            int acc = 0;
            table[0] = (int)&op_add;
            table[1] = (int)&op_mul;
            while ((c = getchar()) >= 0) {
                int k = c - '0';
                acc += dispatch(k % 6, acc + 1, k + 2);
                acc += __icall(table[k & 1], acc, 3);
            }
            return acc & 0x7f;
        }
        "#,
        &[b"0123", b"45"],
        &[b"0123", b"45"],
    );
}

#[test]
fn symbolization_beats_no_symbolization_on_o0() {
    // The paper's strongest effect: unoptimized binaries double in speed
    // (0.76x -> 0.48x of native in Table 1).
    let src = r#"
        int main() {
            int acc = 0;
            int i;
            int j;
            for (i = 0; i < 60; i++) {
                for (j = 0; j < 40; j++) {
                    acc += i * j + (acc >> 5);
                    acc ^= j;
                }
            }
            printf("%d\n", acc);
            return acc & 0x7f;
        }
    "#;
    let img = compile(src, &Profile::gcc12_o0()).unwrap().stripped();
    let input: Vec<Vec<u8>> = vec![vec![]];
    let native = run_image(&img, vec![]);
    let nosym = recompile(&Request::new(&img, &input, Mode::NoSymbolize)).unwrap();
    let wyt = recompile(&Request::new(&img, &input, Mode::Wytiwyg)).unwrap();
    let r_nosym = run_image(&nosym.image, vec![]);
    let r_wyt = run_image(&wyt.image, vec![]);
    assert_eq!(r_wyt.output, native.output);
    assert!(
        r_wyt.cycles < r_nosym.cycles,
        "symbolized {} should beat non-symbolized {}",
        r_wyt.cycles,
        r_nosym.cycles
    );
    assert!(
        r_wyt.cycles < native.cycles,
        "symbolized {} should beat native -O0 {}",
        r_wyt.cycles,
        native.cycles
    );
}

#[test]
fn legacy_binaries_get_reoptimized() {
    // GCC 4.4 -O3 inputs speed up (1.22x average in the paper).
    let src = r#"
        int kernel(int n) {
            int acc = 0;
            int i;
            int tmp[8];
            for (i = 0; i < n; i++) {
                tmp[i & 7] = i * 3;
                acc += tmp[i & 7] + (acc >> 7);
            }
            return acc;
        }
        int main() {
            printf("%d\n", kernel(500));
            return 0;
        }
    "#;
    let img = compile(src, &Profile::gcc44_o3()).unwrap().stripped();
    let native = run_image(&img, vec![]);
    let wyt = recompile(&Request::new(&img, &[vec![]], Mode::Wytiwyg)).unwrap();
    let r = run_image(&wyt.image, vec![]);
    assert_eq!(r.output, native.output);
    assert!(
        r.cycles < native.cycles,
        "recompiled {} should beat legacy native {}",
        r.cycles,
        native.cycles
    );
}

#[test]
fn accuracy_report_on_known_layout() {
    let src = r#"
        int work(int seed) {
            int a;
            int b;
            int arr[8];
            int i;
            a = seed * 3;
            b = seed - 7;
            for (i = 0; i < 8; i++) arr[i] = a + i * b;
            return arr[0] + arr[7] + a + b;
        }
        int main() { return work(11) & 0x7f; }
    "#;
    let full = compile(src, &Profile::gcc44_o3()).unwrap();
    let out = recompile(&Request::new(&full.stripped(), &[vec![]], Mode::Wytiwyg)).unwrap();
    let report = wyt_core::evaluate_accuracy(
        &full,
        &out.lifted_meta,
        out.layout.as_ref().unwrap(),
        out.bounds.as_ref().unwrap(),
        out.fold.as_ref().unwrap(),
    );
    assert!(report.total() > 0, "ground truth objects present");
    let (matched, oversized, undersized, missed) = report.ratios();
    // The array is fully traced; expect strong recovery.
    assert!(
        matched + oversized >= 0.5,
        "most objects should be safely recovered: m={matched} o={oversized} u={undersized} x={missed}"
    );
}

#[test]
fn untraced_paths_trap_in_recompiled_binary() {
    let src = r#"
        int main() {
            int c = getchar();
            if (c == 'x') return 42;
            return 1;
        }
    "#;
    let img = compile(src, &Profile::gcc44_o3()).unwrap().stripped();
    let out = recompile(&Request::new(&img, &[b"a".to_vec()], Mode::Wytiwyg)).unwrap();
    // Traced input fine:
    assert_eq!(run_image(&out.image, b"b".to_vec()).exit_code, 1);
    // Untraced branch traps (functionality is guaranteed for traced
    // inputs only — the paper's contract):
    let r = run_image(&out.image, b"x".to_vec());
    assert!(r.trap.is_some(), "untraced path must trap, got {r:?}");
    // Incremental re-lifting fixes it:
    let out2 =
        recompile(&Request::new(&img, &[b"a".to_vec(), b"x".to_vec()], Mode::Wytiwyg)).unwrap();
    assert_eq!(run_image(&out2.image, b"x".to_vec()).exit_code, 42);
}

#[test]
fn secondwrite_baseline_behaves_like_the_paper() {
    let src = r#"
        int sum(int *xs, int n) {
            int acc = 0;
            int i;
            for (i = 0; i < n; i++) acc += xs[i];
            return acc;
        }
        int main() {
            int arr[10];
            int i;
            for (i = 0; i < 10; i++) arr[i] = i * i;
            printf("%d\n", sum(arr, 10));
            return 0;
        }
    "#;
    // Rejects modern binaries (SIMD/vmov)...
    let modern_src = r#"
        struct big { int w[6]; };
        int main() {
            struct big a;
            struct big b;
            a.w[0] = 1;
            b = a;
            return b.w[0];
        }
    "#;
    let modern = compile(modern_src, &Profile::gcc12_o3()).unwrap().stripped();
    let err = wyt_core::recompile_secondwrite(&modern, &[vec![]]).unwrap_err();
    assert!(
        matches!(err, wyt_core::SecondWriteError::SimdUnsupported(_)),
        "modern binaries are rejected: {err}"
    );

    // ...works on GCC 4.4 -fno-pic and preserves behaviour.
    let legacy = compile(src, &Profile::gcc44_o3_nopic()).unwrap().stripped();
    let native = run_image(&legacy, vec![]);
    let sw = wyt_core::recompile_secondwrite(&legacy, &[vec![]]).unwrap();
    let r = run_image(&sw.image, vec![]);
    assert!(r.ok(), "{:?}", r.trap);
    assert_eq!(r.output, native.output);
}
