//! Artifact-store gate: warm results must be byte-identical to cold
//! ones, every corruption must degrade to a correct cold recompile, and
//! the batch driver must be deterministic at any thread count.
//!
//! The contract under test (ISSUE PR 6):
//!
//! - (a) a warm hit serves exactly the image the cold run produced,
//!   across a pinned generated corpus;
//! - (b) bit-flipped, truncated, version-skewed and logically poisoned
//!   entries are rejected, counted in `store.corrupt`, and the request
//!   falls back to a cold recompile with the correct result;
//! - (c) healing facts written by one run are reused by the next —
//!   a repeated heal is a warm hit, and a differently-shaped request
//!   against the same image heals over the accumulated inputs, while
//!   no stored fact can change what those inputs compile to;
//! - (d) a serial and a `WYT_PAR=4` batch run of the same queue produce
//!   byte-identical stores and canonical reports.

use std::fs;
use std::path::{Path, PathBuf};
use wyt_core::{recompile_stored, run_batch, BatchJob, Mode, Request, StoredOutcome};
use wyt_ir::InstKind;
use wyt_minicc::{compile, Profile};
use wyt_obs::Json;
use wyt_opt::OptLevel;
use wyt_store::{sha256_hex, Lookup, Store, FACTS_KIND};
use wyt_testkit::progen::{gen_prog, profile, render};
use wyt_testkit::rng::{mix, Rng};

/// Corpus seed for store tests (distinct from every other pinned seed).
const CORPUS_SEED: u64 = 0x57_0e_c0de;

/// A scratch store rooted in a unique temp directory, removed on drop.
struct TempStore {
    root: PathBuf,
    store: Store,
}

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let root =
            std::env::temp_dir().join(format!("wyt-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let store = Store::open(&root).expect("temp store");
        TempStore { root, store }
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Recompile `img` through `store` in WYTIWYG mode.
fn stored(
    store: &Store,
    img: &wyt_isa::image::Image,
    inputs: &[Vec<u8>],
    stamp: u64,
) -> StoredOutcome {
    recompile_stored(store, &Request::new(img, inputs, Mode::Wytiwyg), stamp).unwrap()
}

/// Heal `img` through `store`.
fn stored_heal(
    store: &Store,
    img: &wyt_isa::image::Image,
    traced: &[Vec<u8>],
    held_out: &[Vec<u8>],
    stamp: u64,
) -> StoredOutcome {
    let req = Request { held_out: Some(held_out), ..Request::new(img, traced, Mode::Wytiwyg) };
    recompile_stored(store, &req, stamp).unwrap()
}

/// Compile the `i`-th pinned corpus program. Returns the stripped image
/// and its input.
fn corpus_image(i: u64) -> (wyt_isa::image::Image, Vec<u8>) {
    let mut rng = Rng::new(mix(CORPUS_SEED, i));
    let p = gen_prog(&mut rng);
    let img = compile(&render(&p), &profile(p.profile)).expect("corpus compiles").stripped();
    (img, p.input.clone())
}

/// (a) Cold-then-warm over a pinned corpus: the second recompile must be
/// a hit and serve the byte-identical image.
#[test]
fn warm_hits_serve_cold_images_across_corpus() {
    let ts = TempStore::new("warm-corpus");
    for i in 0..12u64 {
        let (img, input) = corpus_image(i);
        let inputs = vec![input];
        let cold = stored(&ts.store, &img, &inputs, i);
        assert!(!cold.warm(), "case {i}: first run must miss");
        let warm = stored(&ts.store, &img, &inputs, i);
        assert!(warm.warm(), "case {i}: second run must hit");
        assert!(
            matches!(warm, StoredOutcome::Warm(_)),
            "case {i}: warm outcome carries the stored artifact"
        );
        assert_eq!(cold.image(), warm.image(), "case {i}: warm image must equal cold");
        assert_eq!(cold.degradations(), warm.degradations(), "case {i}: summary must survive");
    }
    let c = ts.store.counters();
    assert_eq!(c.misses, 12);
    assert_eq!(c.hits, 12);
    assert_eq!(c.puts, 12);
    assert_eq!(c.corrupt, 0);
}

/// Path of the single `"artifact"` entry in `store`.
fn sole_artifact_path(store: &Store) -> PathBuf {
    let entries = store.entries().unwrap();
    let e = entries.iter().find(|e| e.kind == "artifact").expect("one artifact entry");
    store.root().join("objects").join(&e.key[..2]).join(format!("{}.{}.json", e.key, e.kind))
}

/// Re-run after `damage` mutated the stored entry: the request must fall
/// back to a cold recompile with the correct image and bump `corrupt`.
fn assert_falls_back_cold(
    ts: &TempStore,
    img: &wyt_isa::image::Image,
    inputs: &[Vec<u8>],
    good_image: &wyt_isa::image::Image,
    damage: impl FnOnce(&Path),
    what: &str,
) {
    let path = sole_artifact_path(&ts.store);
    let pristine = fs::read(&path).unwrap();
    let corrupt_before = ts.store.counters().corrupt;
    damage(&path);
    let out = stored(&ts.store, img, inputs, 0);
    assert!(!out.warm(), "{what}: damaged entry must not serve warm");
    assert_eq!(out.image(), good_image, "{what}: cold fallback must still be correct");
    assert!(
        ts.store.counters().corrupt > corrupt_before,
        "{what}: rejection must be counted in store.corrupt"
    );
    // The cold fallback re-put a good entry; restore the pristine bytes
    // is unnecessary, but verify the heal: the next run hits warm again.
    let again = stored(&ts.store, img, inputs, 0);
    assert!(again.warm(), "{what}: the fallback must overwrite the damaged entry");
    drop(pristine);
}

/// (b) Every corruption family degrades to a correct cold run.
#[test]
fn corrupted_entries_degrade_to_cold() {
    let src = r#"
        int twist(int x) { return (x << 2) ^ (x + 9); }
        int main() {
            int c = getchar();
            printf("%d\n", twist(c) & 0xff);
            return 0;
        }
    "#;
    let img = compile(src, &Profile::gcc12_o3()).unwrap().stripped();
    let inputs = vec![b"k".to_vec()];
    let ts = TempStore::new("corruption");
    let cold = stored(&ts.store, &img, &inputs, 0);
    let good = cold.image().clone();

    // Bit flip inside the payload (the checksum catches it).
    assert_falls_back_cold(
        &ts,
        &img,
        &inputs,
        &good,
        |p| {
            let mut bytes = fs::read(p).unwrap();
            let pos = bytes.len() / 2;
            bytes[pos] ^= 0x01;
            fs::write(p, bytes).unwrap();
        },
        "bit flip",
    );

    // Truncation (the parser catches it).
    assert_falls_back_cold(
        &ts,
        &img,
        &inputs,
        &good,
        |p| {
            let bytes = fs::read(p).unwrap();
            fs::write(p, &bytes[..bytes.len() / 3]).unwrap();
        },
        "truncation",
    );

    // Version skew (the format gate catches it).
    assert_falls_back_cold(
        &ts,
        &img,
        &inputs,
        &good,
        |p| {
            let text = fs::read_to_string(p).unwrap();
            let current = format!("\"wyt_store\": {}", wyt_store::FORMAT_VERSION);
            let next = format!("\"wyt_store\": {}", wyt_store::FORMAT_VERSION + 1);
            assert!(text.contains(&current));
            fs::write(p, text.replacen(&current, &next, 1)).unwrap();
        },
        "version skew",
    );

    // Logical poisoning: a structurally valid entry whose payload is the
    // artifact of a *different* program, re-checksummed so only the
    // replay validation can catch it. This is the strongest case: the
    // store layer sees nothing wrong.
    let other_src = "int main() { return getchar() == 'k' ? 3 : 4; }";
    let other_img = compile(other_src, &Profile::gcc12_o3()).unwrap().stripped();
    let other_ts = TempStore::new("poison-donor");
    stored(&other_ts.store, &other_img, &inputs, 0);
    let donor = fs::read_to_string(sole_artifact_path(&other_ts.store)).unwrap();
    let donor_payload = wyt_obs::json::parse(&donor).unwrap().get("payload").unwrap().clone();
    assert_falls_back_cold(
        &ts,
        &img,
        &inputs,
        &good,
        |p| {
            let entry = wyt_obs::json::parse(&fs::read_to_string(p).unwrap()).unwrap();
            let Json::Obj(members) = entry else { panic!("entry is an object") };
            let rebuilt = Json::Obj(
                members
                    .into_iter()
                    .map(|(k, v)| match k.as_str() {
                        "payload" => (k, donor_payload.clone()),
                        "checksum" => {
                            (k, Json::Str(sha256_hex(donor_payload.to_string().as_bytes())))
                        }
                        _ => (k, v),
                    })
                    .collect(),
            );
            fs::write(p, rebuilt.pretty() + "\n").unwrap();
        },
        "logical poisoning",
    );
}

/// (c) Healing results and facts accumulate: an identical request is a
/// warm hit; a differently-shaped request against the same image seeds
/// from the persisted facts and converges to the same image.
#[test]
fn healing_facts_are_reused_across_runs() {
    // Same shape as the healing gate's program: the untraced branch sits
    // in `main`, which calls `helper`, which calls `leaf` (too big to
    // inline).
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
    let traced = vec![b"q".to_vec()];
    let held = vec![b"x".to_vec()];
    let ts = TempStore::new("healing");

    let run1 = stored_heal(&ts.store, &img, &traced, &held, 1);
    let heal1 = run1.healing().expect("a healing request reports healing");
    assert!(!run1.warm(), "first heal must run cold");
    assert!(heal1.converged, "the held-out branch must heal");
    assert!(heal1.sites_healed >= 1);

    let run2 = stored_heal(&ts.store, &img, &traced, &held, 2);
    let heal2 = run2.healing().expect("a healed hit reports healing");
    assert!(run2.warm(), "identical heal request must be a warm hit");
    assert!(matches!(run2, StoredOutcome::WarmHealed(_)), "served from the healed tier");
    assert_eq!(run2.image(), run1.image(), "warm heal must serve the cold image");
    assert_eq!(heal2.rounds, 0, "a warm hit runs no healing rounds");
    assert_eq!(heal2.events.len(), heal1.events.len(), "attribution provenance survives the store");

    // A different request shape — nothing held out — misses the result
    // entry but finds the facts: the recorded inputs extend coverage,
    // reconverging on the same image.
    let run3 = stored_heal(&ts.store, &img, &traced, &[], 3);
    let heal3 = run3.healing().expect("an empty held-out set still heals");
    assert!(!run3.warm());
    assert!(heal3.converged);
    assert_eq!(
        run3.image(),
        run1.image(),
        "facts-seeded recompile must reproduce the accumulated-coverage image"
    );
    let inputs3 = run3.inputs().expect("a cold heal records its union input set");
    assert!(
        inputs3.contains(&b"x".to_vec()),
        "persisted facts must extend the held-out set: {inputs3:?}"
    );
}

/// A forged facts entry in the format older writers used: a `"vararg"`
/// arity array claiming 2^40 arguments at every real external call site
/// (`leaf`'s `printf` among them), the merged `trace` the clean heal
/// recorded, every function listed under `"reuse"`, an all-clobbered
/// `"regsave"` row for each of them, and a `"layouts"` array. The
/// entry's inputs are the only part a heal reads: it re-traces them and
/// recomputes every fact, so nothing else the entry claims reaches the
/// rewrite. The heal runs with nothing held out, so only the entry's
/// inputs can add the `'x'` path, and it must yield the clean cold
/// heal's image with no demotions.
#[test]
fn forged_vararg_facts_cannot_reach_the_rewrite() {
    let src = r#"
        int leaf(int x) {
            int i;
            int s = 2;
            for (i = 0; i < x; i++) s += i * x + 1;
            printf("leaf %d\n", s);
            return s;
        }
        int helper(int x) { return leaf(x) + leaf(x + 2); }
        int main() {
            int c = getchar();
            if (c == 'x') return 55;
            return helper(c & 7) & 0x7f;
        }
    "#;
    let img = compile(src, &Profile::gcc12_o3()).unwrap().stripped();
    let traced = vec![b"q".to_vec()];
    let held = vec![b"x".to_vec()];

    let clean = TempStore::new("forged-clean");
    let cold = stored_heal(&clean.store, &img, &traced, &held, 1);
    assert_eq!(cold.degradations(), 0, "the clean heal needs no demotions");
    let fkey = wyt_core::facts_key(&img, OptLevel::Full);
    let Lookup::Hit(mut facts) = clean.store.get(FACTS_KIND, &fkey) else {
        panic!("a cold heal persists its facts");
    };

    let lifted = wyt_lifter::lift_image(&img, &traced).unwrap();
    let mut forged = Vec::new();
    for f in &lifted.module.funcs {
        for b in &f.blocks {
            for &i in &b.insts {
                if let (InstKind::CallExtRaw { .. }, Some(addr)) = (f.inst(i), f.orig_addr) {
                    let site = [u64::from(addr), u64::from(i.0), 1 << 40];
                    forged.push(Json::Arr(site.into_iter().map(Json::from).collect()));
                }
            }
        }
    }
    assert!(forged.len() >= 2, "getchar and leaf's printf at least");
    let addrs: Vec<u64> = lifted.meta.func_by_addr.keys().map(|&a| u64::from(a)).collect();
    assert_eq!(addrs.len(), 3, "leaf, helper, main");
    let clobbered = "C".repeat(wyt_core::regsave::NUM_CELLS);
    let empty_layout = |addr: u64| {
        Json::obj(vec![
            ("addr", Json::from(addr)),
            (
                "fold",
                Json::obj(vec![
                    ("sp0", Json::Null),
                    ("base_ptrs", Json::Arr(vec![])),
                    ("call_esp_off", Json::Arr(vec![])),
                ]),
            ),
            (
                "layout",
                Json::obj(vec![
                    ("vars", Json::Arr(vec![])),
                    ("assignment", Json::Arr(vec![])),
                    ("stack_args", Json::from(0u64)),
                    ("reg_args", Json::Arr(vec![])),
                ]),
            ),
        ])
    };
    let (merged, _) = wyt_lifter::trace_image(&img, &[traced[0].clone(), held[0].clone()]);
    let Json::Obj(members) = &mut facts else { panic!("facts payload is an object") };
    let legacy = ["vararg", "trace", "reuse", "regsave", "layouts"];
    members.retain(|(k, _)| !legacy.contains(&k.as_str()));
    members.push(("vararg".to_string(), Json::Arr(forged)));
    members.push(("trace".to_string(), wyt_core::artifact::trace_to_json(&merged)));
    members.push(("reuse".to_string(), Json::Arr(addrs.iter().map(|&a| Json::from(a)).collect())));
    let rows =
        addrs.iter().map(|&a| Json::Arr(vec![Json::from(a), Json::from(clobbered.as_str())]));
    members.push(("regsave".to_string(), Json::Arr(rows.collect())));
    members
        .push(("layouts".to_string(), Json::Arr(addrs.iter().map(|&a| empty_layout(a)).collect())));

    let ts = TempStore::new("forged");
    ts.store.put(FACTS_KIND, &fkey, 1, facts).unwrap();
    let run = stored_heal(&ts.store, &img, &traced, &[], 2);
    assert!(!run.warm(), "only the facts tier exists");
    let heal = run.healing().expect("a healing request reports healing");
    assert!(heal.converged, "{heal:?}");
    let inputs = run.inputs().expect("a cold heal records its union input set");
    assert!(inputs.contains(&held[0]), "the entry's inputs seed the heal: {inputs:?}");
    assert_eq!(run.degradations(), 0, "forged facts must not demote anything");
    assert_eq!(run.image(), cold.image(), "forged facts must not change the image");
}

/// Every run of the original shares one budget: an input that retires
/// well over 2 M steps traces, and it must heal both as a held-out
/// input and as an input a previous run traced and left in the facts
/// entry.
#[test]
fn long_running_inputs_heal_held_out_and_from_facts() {
    let src = r#"
        int main() {
            int c = getchar();
            int i;
            int s = 1;
            if (c == 'L') {
                for (i = 0; i < 160000; i++) s = s * 3 + (i & 5);
                printf("%d\n", s & 0xff);
            }
            return s & 0x7f;
        }
    "#;
    let img = compile(src, &Profile::gcc12_o3()).unwrap().stripped();
    let (short, long) = (vec![b"q".to_vec()], vec![b"L".to_vec()]);
    let native = wyt_emu::run_image(&img, long[0].clone());
    assert!(native.ok(), "{:?}", native.trap);
    assert!(native.inst_count > 2_000_000, "{} steps", native.inst_count);

    // Held out: the original's run of the long input is the reference.
    let ts = TempStore::new("long-held");
    let run = stored_heal(&ts.store, &img, &short, &long, 1);
    let heal = run.healing().expect("a healing request reports healing");
    assert!(heal.converged, "{heal:?}");
    assert_eq!(wyt_emu::run_image(run.image(), long[0].clone()).output, native.output);

    // Traced by one run, then held out by the next through the facts.
    let ts = TempStore::new("long-facts");
    stored_heal(&ts.store, &img, &long, &[], 1);
    let run = stored_heal(&ts.store, &img, &short, &[], 2);
    assert!(!run.warm(), "a different request shape misses the result tier");
    assert!(run.inputs().expect("cold heal").contains(&long[0]), "the facts add the long input");
    assert!(run.healing().expect("a healing request reports healing").converged);
    assert_eq!(wyt_emu::run_image(run.image(), long[0].clone()).output, native.output);
}

/// Collect `(relative path, bytes)` of every file under a store root.
fn store_files(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(dir: &Path, base: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for e in fs::read_dir(dir).unwrap() {
            let p = e.unwrap().path();
            if p.is_dir() {
                walk(&p, base, out);
            } else {
                let rel = p.strip_prefix(base).unwrap().to_string_lossy().into_owned();
                out.push((rel, fs::read(&p).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

/// (d) Serial vs 4-thread batch: same queue, two fresh stores — the
/// stores and the canonical reports must be byte-identical, and the
/// duplicate jobs must be resolved as warm hits in both.
#[test]
fn batch_runs_identically_serial_and_parallel() {
    let mut jobs = Vec::new();
    for i in 0..6u64 {
        let (img, input) = corpus_image(100 + i);
        jobs.push(BatchJob {
            name: format!("job-{i}"),
            image: img,
            inputs: vec![input],
            mode: Mode::Wytiwyg,
            opt: OptLevel::Full,
        });
    }
    // Two duplicates of earlier jobs: the scheduler must dedup them and
    // resolve them as warm hits.
    jobs.push(BatchJob { name: "dup-of-0".to_string(), ..jobs[0].clone() });
    jobs.push(BatchJob { name: "dup-of-3".to_string(), ..jobs[3].clone() });

    let serial_ts = TempStore::new("batch-serial");
    wyt_par::set_threads(1);
    let serial = run_batch(&serial_ts.store, &jobs);

    let par_ts = TempStore::new("batch-par");
    wyt_par::set_threads(4);
    let par = run_batch(&par_ts.store, &jobs);
    wyt_par::set_threads(1);

    assert_eq!(
        serial.to_json_deterministic().pretty(),
        par.to_json_deterministic().pretty(),
        "canonical batch reports must be byte-identical at any thread count"
    );
    assert_eq!(
        store_files(serial_ts.store.root()),
        store_files(par_ts.store.root()),
        "store contents must be byte-identical at any thread count"
    );
    for r in &serial.jobs {
        assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
        let expect_warm = r.name.starts_with("dup-of-");
        assert_eq!(r.warm, expect_warm, "{}: warm={}", r.name, r.warm);
    }
    assert_eq!(serial.counters.misses, 6);
    assert_eq!(serial.counters.hits, 2);
    assert_eq!(serial.counters.puts, 6);
    assert_eq!(serial.counters.corrupt, 0);
}
