//! Bench-regression diffing: key-by-key comparison of two bench JSONs.
//!
//! `report --diff old.json new.json` feeds two `BENCH_*.json` documents
//! through [`diff_bench`]. Every key path is classified:
//!
//! - **timing** — leaf keys ending in `_ns`, plus `speedup` and
//!   `threads` (and everything nested under a timing key). Wall-clock
//!   noise: ignored by default, or bounded by a configurable ratio
//!   ([`DiffOptions::timing_ratio`]).
//! - **counter** — everything else: degradation and healing counts,
//!   store hit/miss/corrupt counters, coverage partitions, cycle
//!   ratios, row names/keys/warm flags, span counts.
//!   Compared exactly; any drift is a hard failure.
//!
//! Schema drift (a key present on one side only, arrays of different
//! length, type mismatches) is also a hard failure: a bench whose shape
//! changed must be consciously regenerated, not silently waved through.
//! A key-set mismatch does not stop the walk: the keys both sides share
//! are still compared.

use wyt_obs::Json;

/// Tolerances for [`diff_bench`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffOptions {
    /// When set, a timing pair additionally fails if `max/min` exceeds
    /// this ratio and both sides are above 1ms (tiny spans are pure
    /// noise). `None` ignores timing values entirely.
    pub timing_ratio: Option<f64>,
}

/// The outcome of one [`diff_bench`] run.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// Hard failures: counter drift, schema drift, type mismatches,
    /// timing pairs beyond the configured ratio. One line each.
    pub failures: Vec<String>,
    /// Informational notes on timing keys that moved (never failures
    /// on their own).
    pub timing_notes: Vec<String>,
    /// Leaf keys compared.
    pub keys: usize,
}

impl Diff {
    /// Did the comparison pass?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Timing keys carry wall-clock measurements that legitimately vary
/// run-over-run.
fn is_timing_key(k: &str) -> bool {
    k.ends_with("_ns") || k == "speedup" || k == "threads"
}

/// Ignore timing drift below this floor — quantizing noise on
/// micro-scale spans.
const TIMING_FLOOR_NS: f64 = 1e6;

/// Compare two bench JSON documents key by key (see module docs).
pub fn diff_bench(old: &Json, new: &Json, opts: &DiffOptions) -> Diff {
    let mut d = Diff::default();
    walk("$", old, new, false, opts, &mut d);
    d
}

fn type_name(j: &Json) -> &'static str {
    match j {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn walk(path: &str, old: &Json, new: &Json, timing: bool, opts: &DiffOptions, d: &mut Diff) {
    match (old, new) {
        (Json::Obj(a), Json::Obj(b)) => {
            let ka: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
            let kb: Vec<&str> = b.iter().map(|(k, _)| k.as_str()).collect();
            if ka != kb {
                d.failures.push(format!("{path}: key set differs ({ka:?} vs {kb:?})"));
            }
            // Keys both sides share are still compared, by name, so value
            // drift next to a schema change is reported too.
            for (k, va) in a {
                if let Some(vb) = new.get(k) {
                    let sub = format!("{path}.{k}");
                    walk(&sub, va, vb, timing || is_timing_key(k), opts, d);
                }
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            if a.len() != b.len() {
                d.failures.push(format!("{path}: array length {} vs {}", a.len(), b.len()));
                return;
            }
            for (i, (va, vb)) in a.iter().zip(b.iter()).enumerate() {
                walk(&format!("{path}[{i}]"), va, vb, timing, opts, d);
            }
        }
        (Json::Num(x), Json::Num(y)) if timing => {
            d.keys += 1;
            if x != y {
                let (lo, hi) = if x < y { (*x, *y) } else { (*y, *x) };
                let ratio = if lo <= 0.0 { f64::INFINITY } else { hi / lo };
                let over =
                    opts.timing_ratio.is_some_and(|r| ratio > r && hi.abs() >= TIMING_FLOOR_NS);
                if over {
                    d.failures.push(format!(
                        "{path}: timing moved {x} -> {y} ({ratio:.2}x, limit {:.2}x)",
                        opts.timing_ratio.unwrap_or(f64::INFINITY)
                    ));
                } else {
                    d.timing_notes.push(format!("{path}: {x} -> {y}"));
                }
            }
        }
        // Timing keys may legitimately flip between null (not measured)
        // and a number across configurations; tolerate the mix.
        (Json::Null, Json::Num(_)) | (Json::Num(_), Json::Null) if timing => d.keys += 1,
        (x, y) => {
            d.keys += 1;
            if x != y {
                d.failures.push(format!(
                    "{path}: {} {} vs {} {}",
                    type_name(x),
                    x.to_string(),
                    type_name(y),
                    y.to_string()
                ));
            }
        }
    }
}

/// Render a human summary; one line per failure and a final verdict.
pub fn render(old_name: &str, new_name: &str, d: &Diff) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "diff {old_name} vs {new_name}: {} key(s), {} timing note(s), {} failure(s)\n",
        d.keys,
        d.timing_notes.len(),
        d.failures.len()
    ));
    for f in &d.failures {
        out.push_str(&format!("  FAIL {f}\n"));
    }
    out.push_str(if d.ok() { "diff: PASS\n" } else { "diff: FAIL\n" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_obs::json::parse;

    fn j(s: &str) -> Json {
        parse(s).unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let a = j(r#"{"bench":"x","rows":[{"n":1}],"degradations":0}"#);
        let d = diff_bench(&a, &a.clone(), &DiffOptions::default());
        assert!(d.ok());
        assert_eq!(d.keys, 3);
    }

    #[test]
    fn timing_drift_is_tolerated_by_default() {
        let a = j(r#"{"wall_ns":1000000000,"rows":[{"cold_ns":5000000}]}"#);
        let b = j(r#"{"wall_ns":3000000000,"rows":[{"cold_ns":9000000}]}"#);
        let d = diff_bench(&a, &b, &DiffOptions::default());
        assert!(d.ok(), "{:?}", d.failures);
        assert_eq!(d.timing_notes.len(), 2);
    }

    #[test]
    fn timing_ratio_bound_fails_large_drift() {
        let a = j(r#"{"wall_ns":1000000000}"#);
        let b = j(r#"{"wall_ns":9000000000}"#);
        let bounded = DiffOptions { timing_ratio: Some(3.0) };
        assert!(!diff_bench(&a, &b, &bounded).ok());
        // Below the 1ms floor the same ratio passes.
        let small_a = j(r#"{"wall_ns":100}"#);
        let small_b = j(r#"{"wall_ns":900}"#);
        assert!(diff_bench(&small_a, &small_b, &bounded).ok());
    }

    #[test]
    fn counter_drift_is_a_hard_failure() {
        let a = j(r#"{"degradations":0,"healing":{"rounds":0}}"#);
        let b = j(r#"{"degradations":1,"healing":{"rounds":0}}"#);
        let d = diff_bench(&a, &b, &DiffOptions::default());
        assert!(!d.ok());
        assert!(d.failures[0].contains("$.degradations"));
    }

    #[test]
    fn schema_drift_is_a_hard_failure() {
        let a = j(r#"{"rows":[1,2,3]}"#);
        assert!(!diff_bench(&a, &j(r#"{"rows":[1,2]}"#), &DiffOptions::default()).ok());
        assert!(!diff_bench(&a, &j(r#"{"rows":[1,2,3],"extra":0}"#), &DiffOptions::default()).ok());
        assert!(!diff_bench(&a, &j(r#"{"rows":"three"}"#), &DiffOptions::default()).ok());
    }

    #[test]
    fn nested_timing_subtrees_inherit_the_classification() {
        // "threads" differs but is timing-classified; everything under
        // a *_ns key (none here) would be too.
        let a = j(r#"{"par":{"threads":1,"wall_ns":5,"serial_wall_ns":null,"speedup":null}}"#);
        let b = j(r#"{"par":{"threads":4,"wall_ns":9,"serial_wall_ns":7,"speedup":0.5}}"#);
        let d = diff_bench(&a, &b, &DiffOptions::default());
        assert!(d.ok(), "{:?}", d.failures);
    }
}
