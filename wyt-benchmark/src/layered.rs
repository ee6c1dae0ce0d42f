//! The traced phase: one pass per workload that calls each layer's
//! public entry points itself, in the order `run_batch` calls them, and
//! times every call into an in-memory span. Nothing inside the program
//! is instrumented; the observability sink stays off.
//!
//! A cold job is traced and lifted here (`trace_image`, then
//! `lift_from_trace`) and handed to the pipeline's own
//! `recompile_from_lifted`, which is the rest of what `run_batch` runs.
//! The pipeline times its stages with observability off too
//! (`Recompiled::report.stages`); those times become child spans of the
//! `recompile` span. A job the degradation ladder demoted keeps one
//! `ladder` span instead, because its stage list covers only the last
//! attempt.
//!
//! Jobs are scheduled the way `run_batch` schedules them — a `par_map`
//! over the queue whose nested parallel calls run inline — so each job
//! runs on one thread and its spans nest.
//!
//! The fidelity gate ([`fidelity`]) holds the traced pass to `run_batch`:
//! every job must end with the same store entry.

use crate::batch::{check_entry, entry_path, Reference};
use crate::report::{median, Metric};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wyt_core::artifact::{artifact_from_json, artifact_key, artifact_payload};
use wyt_core::{recompile_from_lifted, BatchJob, FaultInjector, Recompiled};
use wyt_emu::run_image;
use wyt_ir::interp::{Interp, NoHooks};
use wyt_isa::image::Image;
use wyt_lifter::{lift_from_trace, trace_image};
use wyt_obs::Json;
use wyt_store::{Lookup, Store};

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Trace-event track of the current thread.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer call name.
    pub name: &'static str,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span within the job, if any.
    pub parent: Option<usize>,
}

/// A job's span list, in the order spans opened.
struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let i = self.spans.len();
        let start_ns = self.now();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(i);
        i
    }

    fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now();
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }
}

/// Work counts gathered alongside the spans. They must repeat exactly.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Interpreter steps of the bare replays of the lifted modules.
    pub bare_steps: u64,
    /// Emulator steps of the tracing runs.
    pub trace_steps: u64,
    /// Emulator steps of the warm validation runs.
    pub emu_steps: u64,
    /// IR instructions entering the optimizer.
    pub insts_in: u64,
    /// IR instructions leaving the optimizer.
    pub insts_out: u64,
    /// Lowered text bytes.
    pub text_bytes: u64,
    /// Store entry bytes read.
    pub get_bytes: u64,
    /// Store entry bytes written.
    pub put_bytes: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.bare_steps += o.bare_steps;
        self.trace_steps += o.trace_steps;
        self.emu_steps += o.emu_steps;
        self.insts_in += o.insts_in;
        self.insts_out += o.insts_out;
        self.text_bytes += o.text_bytes;
        self.get_bytes += o.get_bytes;
        self.put_bytes += o.put_bytes;
    }
}

/// One job of the traced pass.
pub struct TracedJob {
    /// Track (thread) the job ran on.
    pub tid: u64,
    /// Its spans; the first is the `job` span enclosing the rest.
    pub spans: Vec<SpanRec>,
    /// Its work counts.
    pub counts: Counts,
    /// Why it failed, if it did.
    pub error: Option<String>,
}

/// A traced pass.
pub struct Traced {
    /// One entry per job, in queue order.
    pub jobs: Vec<TracedJob>,
}

/// Run one traced pass of `jobs` against `store`.
pub fn run(store: &Store, jobs: &[BatchJob], origin: Instant) -> Traced {
    Traced { jobs: wyt_par::par_map(jobs, |i, job| run_job(store, job, i as u64, origin)) }
}

fn entry_len(store: &Store, key: &str) -> u64 {
    std::fs::metadata(entry_path(store, key)).map_or(0, |m| m.len())
}

/// `recompile_stored`, from its layers: key, lookup, and either a
/// validated warm serve or a cold recompile that is then stored.
fn run_job(store: &Store, job: &BatchJob, stamp: u64, origin: Instant) -> TracedJob {
    let mut rec = Recorder { origin, spans: Vec::new(), open: Vec::new() };
    let mut counts = Counts::default();
    rec.enter("job");
    let key = rec.time("store.key", || artifact_key(&job.image, &job.inputs, job.mode, job.opt));
    let mut served = false;
    if let Lookup::Hit(payload) = rec.time("store.get", || store.get("artifact", &key)) {
        counts.get_bytes += entry_len(store, &key);
        served = match rec.time("artifact.decode", || artifact_from_json(&payload)) {
            Ok(a) => {
                a.mode == format!("{:?}", job.mode)
                    && a.opt == format!("{:?}", job.opt)
                    && validate(&mut rec, &mut counts, &job.image, &a.image, &job.inputs)
            }
            Err(_) => false,
        };
        if !served {
            store.note_corrupt();
        }
    }
    let mut error = None;
    if !served {
        match cold(&mut rec, &mut counts, job) {
            Ok(r) => {
                let payload = rec.time("artifact.encode", || artifact_payload(&r));
                // `run_batch` ignores a failed put too: the job still
                // returns its image.
                let _ = rec.time("store.put", || store.put("artifact", &key, stamp, payload));
                counts.put_bytes += entry_len(store, &key);
            }
            Err(e) => error = Some(e),
        }
    }
    rec.exit();
    TracedJob { tid: TID.with(|t| *t), spans: rec.spans, counts, error }
}

/// `wyt_core::validate` with each run timed: the original and the
/// recompiled image must agree on every input.
fn validate(
    rec: &mut Recorder,
    c: &mut Counts,
    original: &Image,
    recompiled: &Image,
    inputs: &[Vec<u8>],
) -> bool {
    for input in inputs {
        let a = rec.time("validate.original", || run_image(original, input.clone()));
        let b = rec.time("validate.recompiled", || run_image(recompiled, input.clone()));
        c.emu_steps += a.inst_count + b.inst_count;
        if !a.ok() || !b.ok() || a.exit_code != b.exit_code || a.output != b.output {
            return false;
        }
    }
    true
}

/// The layer span a pipeline stage of `report.stages` is reported under.
/// `lift` (unpacking the lifted program) stays in the `recompile` span's
/// self time.
fn stage_layer(stage: &str) -> Option<&'static str> {
    Some(match stage {
        "vararg" => "vararg",
        "regsave" => "regsave",
        "spfold" => "spfold",
        "bounds" => "bounds",
        "layout" => "layout",
        "symbolize" | "dead_cell_stores" => "symbolize",
        "optimize" | "optimize2" => "opt",
        "lower" => "lower",
        _ => return None,
    })
}

/// `recompile_with`: tracing and lifting are called here so that each
/// is timed; the rest is the pipeline's `recompile_from_lifted`.
fn cold(rec: &mut Recorder, c: &mut Counts, job: &BatchJob) -> Result<Recompiled, String> {
    let (img, inputs) = (&job.image, &job.inputs[..]);
    wyt_core::ingest::check_image(img).map_err(|e| e.to_string())?;
    let (trace, baseline_runs) = rec.time("lifter.trace", || trace_image(img, inputs));
    c.trace_steps += baseline_runs.iter().map(|r| r.inst_count).sum::<u64>();
    let lifted = rec
        .time("lifter.lift", || lift_from_trace(img, trace, baseline_runs))
        .map_err(|e| format!("lift: {e}"))?;
    // Reference work `run_batch` never does: the step count the hooked
    // replays' ns_per_step divide by.
    c.bare_steps += rec.time("interp.bare", || {
        inputs
            .iter()
            .map(|i| Interp::new(&lifted.module, i.clone(), NoHooks).run().steps)
            .sum::<u64>()
    });

    let span = rec.enter("recompile");
    let r = recompile_from_lifted(
        img,
        inputs,
        job.mode,
        job.opt,
        &FaultInjector::default(),
        lifted,
        None,
    );
    rec.exit();
    let r = r.map_err(|e| e.to_string())?;
    if r.report.degradations.is_empty() {
        // Stage times laid end to end from the call's start; the gaps
        // (the baseline replay, IR verification) are its self time.
        let (mut at, end) = (rec.spans[span].start_ns, rec.spans[span].end_ns);
        for s in &r.report.stages {
            if let Some(name) = stage_layer(s.name) {
                let stop = (at + s.wall_ns).min(end);
                rec.spans.push(SpanRec { name, start_ns: at, end_ns: stop, parent: Some(span) });
                at = stop;
            }
        }
    } else {
        rec.spans[span].name = "ladder";
    }
    let insts = |stage: &str, after: bool| {
        r.report.stage(stage).map_or(0, |s| if after { s.after.insts } else { s.before.insts })
    };
    c.insts_in += insts("optimize", false);
    c.insts_out += insts("optimize2", true);
    c.text_bytes += r.image.text.len() as u64;
    Ok(r)
}

/// The fidelity gate: hold each traced job to `run_batch`'s reference
/// store entry (see [`check_entry`]). Returns `(failed, reordered)`;
/// each failure is reported on stderr.
pub fn fidelity(t: &Traced, store: &Store, jobs: &[BatchJob], reference: &Reference) -> (u64, u64) {
    let (mut failed, mut reordered) = (0, 0);
    for (i, (tj, job)) in t.jobs.iter().zip(jobs).enumerate() {
        let verdict = match &tj.error {
            Some(e) => Err(format!("traced path failed: {e}")),
            None => check_entry(store, i, job, reference),
        };
        match verdict {
            Ok(r) => reordered += u64::from(r),
            Err(why) => {
                eprintln!("wyt-benchmark: fidelity: job {}: {why}", job.name);
                failed += 1;
            }
        }
    }
    (failed, reordered)
}

/// Span names whose self time `share.*` reports, in report order; the
/// job span's own self time is `share.other`.
const LAYERS: [&str; 19] = [
    "lifter.trace",
    "lifter.lift",
    "recompile",
    "vararg",
    "regsave",
    "spfold",
    "bounds",
    "layout",
    "symbolize",
    "opt",
    "lower",
    "validate.original",
    "validate.recompiled",
    "store.key",
    "store.get",
    "artifact.decode",
    "artifact.encode",
    "store.put",
    "ladder",
];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of a traced pass. `untraced_job_ns` is Σ job
/// wall of each untraced pass and `busy` each untraced pass's
/// `par.busy_frac`.
pub fn per_layer(t: &Traced, untraced_job_ns: &[f64], busy: &[f64]) -> Vec<Metric> {
    // Self time per span name: its duration minus its children's.
    let mut self_ns: BTreeMap<&str, f64> = BTreeMap::new();
    let mut counts = Counts::default();
    for j in &t.jobs {
        let mut child_ns = vec![0u64; j.spans.len()];
        for s in &j.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, kids) in j.spans.iter().zip(&child_ns) {
            *self_ns.entry(s.name).or_default() += (s.end_ns - s.start_ns - kids) as f64;
        }
        counts.add(&j.counts);
    }
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0.0);
    let job_ns: f64 = t.jobs.iter().map(|j| (j.spans[0].end_ns - j.spans[0].start_ns) as f64).sum();
    // The bare replays are reference work `run_batch` never does.
    let served_ns = job_ns - ns("interp.bare");
    let emu_ns = ns("validate.original") + ns("validate.recompiled");

    let s = |name: &str, span: &str| Metric::timed(name, ns(span) / 1e9, "s", Vec::new());
    let count = |name: &str, v: u64, unit: &'static str| Metric::exact(name, v as f64, unit);
    let per_step = |name: &str, span_ns: f64, steps: u64| {
        Metric::timed(name, ratio(span_ns, steps as f64), "ns/step", Vec::new())
    };
    let mut out = vec![
        s("interp.bare.s", "interp.bare"),
        count("interp.bare.steps", counts.bare_steps, "count"),
        per_step("interp.bare.ns_per_step", ns("interp.bare"), counts.bare_steps),
    ];
    for hook in ["vararg", "regsave", "bounds"] {
        out.push(s(&format!("{hook}.s"), hook));
        out.push(per_step(&format!("{hook}.ns_per_step"), ns(hook), counts.bare_steps));
    }
    out.extend([
        s("lifter.trace.s", "lifter.trace"),
        count("lifter.trace.steps", counts.trace_steps, "count"),
        per_step("lifter.trace.ns_per_step", ns("lifter.trace"), counts.trace_steps),
        s("lifter.lift.s", "lifter.lift"),
        s("spfold.s", "spfold"),
        s("layout.s", "layout"),
        s("symbolize.s", "symbolize"),
        s("opt.s", "opt"),
        count("opt.insts_in", counts.insts_in, "count"),
        count("opt.insts_out", counts.insts_out, "count"),
        s("lower.s", "lower"),
        count("lower.text_bytes", counts.text_bytes, "bytes"),
        s("validate.original.s", "validate.original"),
        s("validate.recompiled.s", "validate.recompiled"),
        count("emu.steps", counts.emu_steps, "count"),
        per_step("emu.ns_per_step", emu_ns, counts.emu_steps),
        s("store.key.s", "store.key"),
        s("store.get.s", "store.get"),
        count("store.get.bytes", counts.get_bytes, "bytes"),
        Metric::timed(
            "store.get.mb_per_s",
            ratio(counts.get_bytes as f64 / 1e6, ns("store.get") / 1e9),
            "MB/s",
            Vec::new(),
        ),
        s("artifact.decode.s", "artifact.decode"),
        s("artifact.encode.s", "artifact.encode"),
        s("store.put.s", "store.put"),
        count("store.put.bytes", counts.put_bytes, "bytes"),
        Metric::timed("par.busy_frac", median(busy), "frac", busy.to_vec()),
    ]);
    for layer in LAYERS {
        out.push(Metric::timed(
            &format!("share.{layer}"),
            ratio(ns(layer), served_ns),
            "frac",
            Vec::new(),
        ));
    }
    out.push(Metric::timed("share.other", ratio(ns("job"), served_ns), "frac", Vec::new()));
    out.push(Metric::timed(
        "trace.overhead",
        ratio(served_ns, median(untraced_job_ns)) - 1.0,
        "frac",
        Vec::new(),
    ));
    out
}

/// Chrome trace events of a traced pass under process `pid`: one track
/// per worker thread, spans nested in the order they opened.
pub fn chrome_events(pid: u64, workload: &str, t: &Traced, jobs: &[BatchJob]) -> Vec<Json> {
    let mut events = vec![Json::obj(vec![
        ("name", Json::from("process_name")),
        ("ph", Json::from("M")),
        ("pid", Json::from(pid)),
        ("tid", Json::from(0u64)),
        ("args", Json::obj(vec![("name", Json::from(workload))])),
    ])];
    let mut by_tid: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, j) in t.jobs.iter().enumerate() {
        by_tid.entry(j.tid).or_default().push(i);
    }
    let ev = |name: &str, ph: &str, tid: u64, ns: u64| {
        Json::obj(vec![
            ("name", Json::from(name)),
            ("ph", Json::from(ph)),
            ("pid", Json::from(pid)),
            ("tid", Json::from(tid)),
            ("ts", Json::from(ns as f64 / 1e3)),
        ])
    };
    for (tid, mut idx) in by_tid {
        idx.sort_by_key(|&i| t.jobs[i].spans[0].start_ns);
        for i in idx {
            let spans = &t.jobs[i].spans;
            let mut open: Vec<usize> = Vec::new();
            for (k, s) in spans.iter().enumerate() {
                while open.last().copied() != s.parent {
                    let o = open.pop().expect("a span's parent is open");
                    events.push(ev(spans[o].name, "E", tid, spans[o].end_ns));
                }
                let mut b = ev(s.name, "B", tid, s.start_ns);
                if k == 0 {
                    if let Json::Obj(m) = &mut b {
                        m.push((
                            "args".into(),
                            Json::obj(vec![("job", Json::from(jobs[i].name.as_str()))]),
                        ));
                    }
                }
                events.push(b);
                open.push(k);
            }
            while let Some(o) = open.pop() {
                events.push(ev(spans[o].name, "E", tid, spans[o].end_ns));
            }
        }
    }
    events
}
