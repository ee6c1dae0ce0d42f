//! Metrics, their statistics, the `benchmark.json` document and the
//! `--compare` verdicts.

use std::path::{Path, PathBuf};
use wyt_obs::Json;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, unique within its workload.
    pub name: String,
    /// The reported value: a median of `samples` where it holds
    /// several, except `jobs_per_s`, the best pass's rate.
    pub value: f64,
    /// Unit, as printed.
    pub unit: &'static str,
    /// The per-pass (or per-set-up) values `value` summarises; their
    /// spread is what `--compare` weighs a change against.
    pub samples: Vec<f64>,
    /// How many job samples a percentile was taken over.
    pub n: Option<usize>,
    /// A deterministic value: the same seed must reproduce it exactly.
    pub exact: bool,
}

impl Metric {
    /// A measured value with the samples it summarises.
    pub fn timed(name: &str, value: f64, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric { name: name.to_string(), value, unit, samples, n: None, exact: false }
    }

    /// A value that must repeat exactly for a given seed.
    pub fn exact(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit, samples: Vec::new(), n: None, exact: true }
    }

    /// The per-metric line: `<workload> <metric> <value> <unit> [n=<samples>]`.
    pub fn line(&self, workload: &str) -> String {
        let mut s = format!("{workload} {} {} {}", self.name, self.value, self.unit);
        if let Some(n) = self.n {
            s.push_str(&format!(" n={n}"));
        }
        s
    }

    fn to_json(&self) -> Json {
        let mut m = vec![("value", Json::from(self.value)), ("unit", Json::from(self.unit))];
        if !self.samples.is_empty() {
            m.push(("samples", Json::Arr(self.samples.iter().map(|&v| Json::from(v)).collect())));
        }
        if let Some(n) = self.n {
            m.push(("n", Json::from(n as u64)));
        }
        m.push(("exact", Json::Bool(self.exact)));
        Json::obj(m)
    }
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted values;
/// 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted values; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Everything one workload reported.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Jobs in the workload's queue.
    pub jobs: usize,
    /// Wall time of each timed untraced pass, seconds.
    pub pass_wall_s: Vec<f64>,
    /// End-to-end metrics (untraced phase).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced phase); empty when it did not run.
    pub per_layer: Vec<Metric>,
}

/// Run-wide facts recorded next to the metrics.
#[derive(Debug, Clone, Copy)]
pub struct RunMeta {
    /// Workload seed.
    pub seed: u64,
    /// `wyt-par` worker threads.
    pub threads: usize,
    /// Available parallelism of the machine.
    pub nproc: usize,
    /// Smoke-sized run.
    pub smoke: bool,
    /// How long each workload's untraced passes measured.
    pub seconds: f64,
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::Obj(ms.iter().map(|m| (m.name.clone(), m.to_json())).collect())
}

/// The `benchmark.json` document.
pub fn benchmark_json(
    meta: &RunMeta,
    reports: &[WorkloadReport],
    attempted: u64,
    failed: u64,
    correct: bool,
) -> Json {
    Json::obj(vec![
        ("benchmark", Json::from("wyt-benchmark")),
        ("seed", Json::from(meta.seed)),
        ("threads", Json::from(meta.threads as u64)),
        ("nproc", Json::from(meta.nproc as u64)),
        ("smoke", Json::Bool(meta.smoke)),
        ("seconds", Json::from(meta.seconds)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "workloads",
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::from(r.name)),
                            ("jobs", Json::from(r.jobs as u64)),
                            (
                                "pass_wall_s",
                                Json::Arr(r.pass_wall_s.iter().map(|&v| Json::from(v)).collect()),
                            ),
                            ("end_to_end", metrics_json(&r.end_to_end)),
                            ("per_layer", metrics_json(&r.per_layer)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// An end-to-end metric's contract, as `BENCHMARK.json` states it.
struct Bound {
    name: String,
    lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    bound: f64,
}

/// The `end_to_end` entries of a `BENCHMARK.json` document.
fn bounds_from_json(j: &Json) -> Result<Vec<Bound>, String> {
    let list = j.get("end_to_end").and_then(Json::as_arr).ok_or("missing end_to_end array")?;
    list.iter()
        .map(|m| {
            let name =
                m.get("name").and_then(Json::as_str).ok_or("end_to_end entry without name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("entry without better")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("entry without bound")?;
            Ok(Bound { name: name.to_string(), lower_is_better: better == "lower", bound })
        })
        .collect()
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    wyt_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One side of a comparison: a metric's value, samples and exactness.
struct Side {
    value: f64,
    samples: Vec<f64>,
    exact: bool,
}

fn side_of(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    let w = doc
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?;
    let m = w.get("end_to_end")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        samples: m
            .get("samples")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
        exact: m.get("exact").and_then(Json::as_bool).unwrap_or(false),
    })
}

/// One side from one run or several. With several, the value is the
/// median over runs and the samples are the runs' values, so the spread
/// is run to run; with one, it is the run's own per-pass spread.
fn side(docs: &[Json], workload: &str, metric: &str) -> Option<Side> {
    let mut per: Vec<Side> =
        docs.iter().map(|d| side_of(d, workload, metric)).collect::<Option<_>>()?;
    if per.len() == 1 {
        return per.pop();
    }
    let values: Vec<f64> = per.iter().map(|s| s.value).collect();
    Some(Side { value: median(&values), samples: values, exact: per[0].exact })
}

/// Interquartile range as a share of the median; 0 with fewer than two
/// samples.
fn spread(s: &Side) -> f64 {
    if s.samples.len() < 2 || s.value == 0.0 {
        return 0.0;
    }
    (quantile(&s.samples, 0.75) - quantile(&s.samples, 0.25)) / s.value.abs()
}

/// The verdict for one (metric, workload) pair: `ok`, `worse` or
/// `unresolved`, with the reason. An exact metric has no spread, so only
/// the bound applies to it; a bound of 0 tolerates no worsening at all.
fn verdict(a: &Side, b: &Side, lower_is_better: bool, bound: f64) -> (&'static str, String) {
    let signed = if lower_is_better { 1.0 } else { -1.0 };
    // Any change from a zero baseline is an unbounded share of it.
    let change = match (a.value, b.value) {
        (x, y) if x == y => 0.0,
        (x, y) if x == 0.0 => (y - x).signum() * f64::INFINITY,
        (x, y) => (y - x) / x.abs(),
    };
    let worse_by = signed * change;
    if a.exact || b.exact {
        let why = format!(
            "A={} B={} change={:+.2}% exact bound={}%",
            a.value,
            b.value,
            change * 100.0,
            bound * 100.0
        );
        return (if worse_by > bound { "worse" } else { "ok" }, why);
    }
    let sp = spread(a).max(spread(b));
    let why = format!(
        "A={} B={} change={:+.2}% spread={:.2}% bound={:.0}%",
        a.value,
        b.value,
        change * 100.0,
        sp * 100.0,
        bound * 100.0
    );
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_b_better =
        !a.samples.is_empty() && b.samples.iter().all(|&y| a.samples.iter().all(|&x| better(y, x)));
    if sp > bound {
        return (if all_b_better { "ok" } else { "unresolved" }, why);
    }
    (if worse_by > bound { "worse" } else { "ok" }, why)
}

/// Metrics `--compare` checks for exact equality in addition to the
/// `BENCHMARK.json` list: counts of failures, hits and degradations.
const EXACT_EXTRA: [(&str, bool); 3] =
    [("fail_frac", true), ("warm_hit_frac", false), ("degraded_funcs", true)];

/// `--compare A B` under the bounds of the `BENCHMARK.json` document
/// `bench`, where each side is one or more runs' `benchmark.json`: print
/// a verdict for every (metric, workload) pair and return how many came
/// out `worse`.
///
/// # Errors
/// Unreadable or malformed input documents.
pub fn compare(bench: &Json, a_paths: &[PathBuf], b_paths: &[PathBuf]) -> Result<usize, String> {
    let mut bounds = bounds_from_json(bench)?;
    for (name, lower) in EXACT_EXTRA {
        bounds.push(Bound { name: name.to_string(), lower_is_better: lower, bound: 0.0 });
    }
    let read_all = |ps: &[PathBuf]| ps.iter().map(|p| read_json(p)).collect::<Result<Vec<_>, _>>();
    let (a, b) = (read_all(a_paths)?, read_all(b_paths)?);
    let names: Vec<String> = a[0]
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no workloads", a_paths[0].display()))?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let (mut worse, mut unresolved) = (0, 0);
    for w in &names {
        for bd in &bounds {
            let (verdict, why) = match (side(&a, w, &bd.name), side(&b, w, &bd.name)) {
                (Some(x), Some(y)) => verdict(&x, &y, bd.lower_is_better, bd.bound),
                (None, None) => continue,
                _ => ("unresolved", "reported on one side only".to_string()),
            };
            worse += usize::from(verdict == "worse");
            unresolved += usize::from(verdict == "unresolved");
            println!("{w} {} {verdict} {why}", bd.name);
        }
    }
    println!("compare: {worse} worse, {unresolved} unresolved");
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, samples: &[f64]) -> Side {
        Side { value, samples: samples.to_vec(), exact: false }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts_apply_bound_and_spread() {
        // Within the bound.
        assert_eq!(
            verdict(&s(100.0, &[99.0, 100.0, 101.0]), &s(105.0, &[104.0, 105.0, 106.0]), true, 0.1)
                .0,
            "ok"
        );
        // Beyond the bound with a tight spread.
        assert_eq!(
            verdict(&s(100.0, &[99.0, 100.0, 101.0]), &s(120.0, &[119.0, 120.0, 121.0]), true, 0.1)
                .0,
            "worse"
        );
        // Higher-is-better metrics flip the sign.
        assert_eq!(
            verdict(
                &s(100.0, &[99.0, 100.0, 101.0]),
                &s(120.0, &[119.0, 120.0, 121.0]),
                false,
                0.1
            )
            .0,
            "ok"
        );
        // A spread wider than the bound cannot resolve a change...
        assert_eq!(
            verdict(&s(100.0, &[60.0, 100.0, 140.0]), &s(120.0, &[70.0, 120.0, 170.0]), true, 0.1)
                .0,
            "unresolved"
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            verdict(&s(100.0, &[60.0, 100.0, 140.0]), &s(20.0, &[10.0, 20.0, 30.0]), true, 0.1).0,
            "ok"
        );
        // Exact metrics get their bound and no spread; a bound of 0
        // (the correctness counts) tolerates no worsening.
        let e = |v| Side { value: v, samples: vec![], exact: true };
        assert_eq!(verdict(&e(3.0), &e(3.0), true, 0.0).0, "ok");
        assert_eq!(verdict(&e(3.0), &e(4.0), true, 0.0).0, "worse");
        assert_eq!(verdict(&e(3.0), &e(2.0), true, 0.0).0, "ok");
        assert_eq!(verdict(&e(100.0), &e(101.0), true, 0.1).0, "ok");
        assert_eq!(verdict(&e(100.0), &e(111.0), true, 0.1).0, "worse");
        // From a zero baseline any worsening exceeds every bound.
        assert_eq!(verdict(&e(0.0), &e(0.01), true, 0.25).0, "worse");
        assert_eq!(verdict(&e(0.0), &e(0.0), true, 0.0).0, "ok");
        assert_eq!(verdict(&e(1.0), &e(0.0), false, 0.0).0, "worse");
    }
}
