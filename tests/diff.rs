//! `report --diff` gate semantics over realistically-shaped bench
//! bodies: identical runs pass, pure timing drift passes (or fails only
//! past an explicit ratio bound), and counter or schema drift hard-fails.

use wyt_bench::diff::{diff_bench, render, DiffOptions};
use wyt_bench::{bench_json_body, ParMeta};
use wyt_obs::Json;

/// A bench body shaped like the committed `BENCH_*.json` artifacts.
fn body(wall_ns: u64, cold_ns: u64, degradations: u64) -> Json {
    let rows = Json::Arr(vec![Json::obj(vec![
        ("name", Json::from("mcf")),
        ("cold_ns", Json::from(cold_ns)),
        ("warm_hit", Json::Bool(true)),
    ])]);
    let par = ParMeta { threads: 1, wall_ns, serial_wall_ns: None };
    let mut b = bench_json_body("store", rows, &par, vec![]);
    // The accumulator-backed `degradations` member reflects process
    // state; rewrite it so each test controls it exactly.
    if let Json::Obj(members) = &mut b {
        for (k, v) in members.iter_mut() {
            if k == "degradations" {
                *v = Json::from(degradations);
            }
        }
    }
    b
}

#[test]
fn identical_bodies_pass() {
    let a = body(1_000, 500, 0);
    let d = diff_bench(&a, &a.clone(), &DiffOptions::default());
    assert!(d.ok(), "{:?}", d.failures);
    assert!(d.keys > 0);
    assert!(render("a", "b", &d).contains("diff: PASS"));
}

#[test]
fn timing_drift_alone_passes() {
    let a = body(1_000_000_000, 5_000_000, 0);
    let b = body(3_000_000_000, 9_000_000, 0);
    let d = diff_bench(&a, &b, &DiffOptions::default());
    assert!(d.ok(), "{:?}", d.failures);
    assert_eq!(d.timing_notes.len(), 2, "both _ns keys moved: {:?}", d.timing_notes);
}

#[test]
fn counter_drift_fails() {
    let a = body(1_000, 500, 0);
    let b = body(1_000, 500, 1);
    let d = diff_bench(&a, &b, &DiffOptions::default());
    assert!(!d.ok());
    assert!(d.failures.iter().any(|f| f.contains("degradations")), "{:?}", d.failures);
    assert!(render("a", "b", &d).contains("diff: FAIL"));
}

#[test]
fn timing_ratio_bound_catches_large_regressions() {
    let a = body(1_000_000_000, 500, 0);
    let b = body(9_000_000_000, 500, 0);
    let opts = DiffOptions { timing_ratio: Some(3.0) };
    let d = diff_bench(&a, &b, &opts);
    assert!(!d.ok(), "9x wall-time regression must trip a 3x bound");
    // The same bodies pass when no bound is configured.
    assert!(diff_bench(&a, &b, &DiffOptions::default()).ok());
}

#[test]
fn schema_drift_fails() {
    let a = body(1_000, 500, 0);
    // Row gains a member: key sequences no longer match.
    let mut b = body(1_000, 500, 0);
    if let Json::Obj(members) = &mut b {
        for (k, v) in members.iter_mut() {
            if k == "rows" {
                if let Json::Arr(rows) = v {
                    if let Json::Obj(row) = &mut rows[0] {
                        row.push(("extra".to_string(), Json::Null));
                    }
                }
            }
        }
    }
    let d = diff_bench(&a, &b, &DiffOptions::default());
    assert!(!d.ok());
    assert!(d.failures.iter().any(|f| f.contains("key set differs")), "{:?}", d.failures);
}

#[test]
fn key_set_change_still_compares_shared_keys() {
    let a = body(1_000, 500, 0);
    // One added key and one changed counter that both sides share.
    let mut b = body(1_000, 500, 2);
    if let Json::Obj(members) = &mut b {
        members.push(("extra".to_string(), Json::from(0u64)));
    }
    let d = diff_bench(&a, &b, &DiffOptions::default());
    assert!(d.failures.iter().any(|f| f.contains("key set differs")), "{:?}", d.failures);
    assert!(
        d.failures.iter().any(|f| f.contains("$.degradations: number 0 vs number 2")),
        "shared-key drift must be reported next to the schema change: {:?}",
        d.failures
    );
    assert_eq!(d.failures.len(), 2, "{:?}", d.failures);
}
