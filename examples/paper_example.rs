//! The paper's running example (Fig. 2): `f1` builds a frame holding
//! `ptr`, `a` (a two-field struct) and `b` (an array of three structs);
//! `f2` returns one of its pointer arguments; `f3` returns a value less
//! than its argument. The interesting part is the indexed store
//! `b[f3(sizeof b) / 8] = a`, whose bounds cannot be derived statically.
//!
//! This example lifts the binary, runs the refinements, and prints the
//! recovered stack layout of `f1` next to the compiler's ground truth —
//! showing the dynamic analysis discovering `b`'s true extent from the
//! traced execution, exactly as §2.2/§4.2 describe.
//!
//! ```sh
//! cargo run --release --example paper_example
//! ```

use wyt_core::{recompile, Mode, Request};
use wyt_minicc::{compile, Profile};

const FIG2: &str = r#"
    struct p { int x; int y; };

    struct p *f2(struct p *one, struct p *two) {
        if (two->x > one->x) return two;
        return one;
    }

    int f3(int limit) {
        int c = getchar();
        int v = (c - '0') * 8;
        if (v < 0) v = 0;
        if (v >= limit) v = limit - 8;
        return v;
    }

    int f1() {
        struct p *ptr;
        struct p a;
        struct p b[3];
        int idx;
        int j;
        int s;
        a.x = 3;
        a.y = 4;
        ptr = f2(&a, b);
        idx = f3(sizeof(struct p[3])) / 8;
        b[idx] = a;                      /* the paper's indexed store   */
        s = 0;
        for (j = 0; j <= idx; j++) {     /* observed extent = traced f3 */
            s += b[j].x + b[j].y;
        }
        ptr->y = s;
        return ptr->y + b[idx].y;
    }

    int main() { return f1(); }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = compile(FIG2, &Profile::gcc44_o3())?;
    println!("=== ground truth (compiler frame layout of f1) ===");
    let f1_addr = full.symbol("f1").expect("f1 symbol");
    for v in &full.frame_layout_at(f1_addr).expect("layout").vars {
        println!(
            "  {:>10}  sp0{:+} .. sp0{:+}",
            v.name,
            v.sp0_offset,
            v.sp0_offset + v.size as i32
        );
    }

    // Trace with an input where f3 selects the *last* element, so the
    // dynamic analysis observes the array's full extent; trace index 0
    // only and the recovered variable shrinks to the touched prefix —
    // §4.2's "if f3 returns 0 in every invocation, the array is split".
    for (desc, inputs) in [
        ("traced with f3 -> index 2 (full coverage)", vec![b"2".to_vec()]),
        ("traced with f3 -> index 0 only (partial coverage)", vec![b"0".to_vec()]),
    ] {
        let out = recompile(&Request::new(&full.stripped(), &inputs, Mode::Wytiwyg))?;
        let layout = out.layout.as_ref().unwrap();
        let fid = out.lifted_meta.func_by_addr.get(&f1_addr).expect("f1 lifted");
        println!("\n=== recovered layout of f1: {desc} ===");
        let mut vars = layout.funcs[fid].vars.clone();
        vars.sort_by_key(|v| v.lo);
        for v in &vars {
            // Only show variables observed at runtime (the rest are
            // bookkeeping candidates that were never dereferenced).
            let touched = v.members.iter().any(|m| {
                out.bounds
                    .as_ref()
                    .unwrap()
                    .vars
                    .get(&(*fid, *m))
                    .map(|d| d.defined())
                    .unwrap_or(false)
            });
            if touched {
                println!("  var  sp0{:+} .. sp0{:+}  ({} bytes)", v.lo, v.hi, v.size());
            }
        }
        // Behaviour check on the traced input.
        let native = wyt_emu::run_image(&full, inputs[0].clone());
        let recompiled = wyt_emu::run_image(&out.image, inputs[0].clone());
        assert_eq!(native.exit_code, recompiled.exit_code);
        println!("  (recompiled exit code {} == native)", recompiled.exit_code);
    }
    println!("\nWith full coverage the three-element array coalesces into one");
    println!("24-byte variable; tracing only index 0 leaves the tail");
    println!("unobserved — \"what you trace is what you get\".");
    Ok(())
}
