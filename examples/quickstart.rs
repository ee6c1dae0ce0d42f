//! Quickstart: compile a small "legacy" binary, strip it, recompile it
//! with WYTIWYG, and compare behaviour and runtime.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wyt_core::{recompile, Mode, Request};
use wyt_emu::run_image;
use wyt_minicc::{compile, Profile};

const PROGRAM: &str = r#"
    int checksum(int *data, int n) {
        int acc = 0;
        int i;
        for (i = 0; i < n; i++) {
            acc = acc * 31 + data[i];
        }
        return acc;
    }

    int main() {
        int block[32];
        int i;
        int c;
        int n = 0;
        while ((c = getchar()) >= 0 && n < 32) {
            block[n] = c;
            n++;
        }
        for (i = n; i < 32; i++) block[i] = i;
        printf("checksum=%x\n", checksum(block, 32));
        return 0;
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Produce a "commercial off-the-shelf" binary with an old compiler
    //    and strip it — WYTIWYG never sees symbols or ground truth.
    let image = compile(PROGRAM, &Profile::gcc44_o3())?;
    let stripped = image.stripped();
    println!("input binary: {} bytes of text, stripped", stripped.text.len());

    // 2. The user provides representative inputs; tracing + refinement
    //    lifting + symbolization + re-optimization run automatically.
    let inputs: Vec<Vec<u8>> = vec![b"hello world".to_vec(), b"wytiwyg".to_vec()];
    let out = recompile(&Request::new(&stripped, &inputs, Mode::Wytiwyg))?;
    println!("recompiled binary: {} bytes of text", out.image.text.len());

    // 3. Same behaviour on fresh inputs that exercise the traced paths.
    let test_input = b"another input".to_vec();
    let before = run_image(&stripped, test_input.clone());
    let after = run_image(&out.image, test_input);
    assert_eq!(before.output, after.output);
    assert_eq!(before.exit_code, after.exit_code);
    println!("output identical: {:?}", String::from_utf8_lossy(&before.output).trim_end());

    // 4. The recovered stack layouts are available for inspection.
    let layout = out.layout.as_ref().expect("wytiwyg mode recovers layouts");
    for (fid, fl) in &layout.funcs {
        let name = &out.module.funcs[fid.index()].name;
        if fl.vars.is_empty() {
            continue;
        }
        println!("{name}: {} recovered stack variables", fl.vars.len());
        for v in &fl.vars {
            println!("  sp0{:+} .. sp0{:+}  ({} bytes)", v.lo, v.hi, v.size());
        }
    }

    // 5. And the paper's point: the reoptimized binary is faster.
    println!(
        "cycles: original {} -> recompiled {} ({:.2}x)",
        before.cycles,
        after.cycles,
        before.cycles as f64 / after.cycles as f64
    );
    Ok(())
}
