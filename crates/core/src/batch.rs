//! Recompilation-as-a-service: the store-backed pipeline frontend.
//!
//! [`recompile_stored`] puts a content-addressed [`Store`] in front of
//! [`crate::recompile`]: a second recompilation of the same (image,
//! inputs, config) is a warm hit that skips tracing, lifting and
//! refinement entirely, and healing runs persist their accumulated input
//! set so later heals of the same image cover every input any previous
//! run saw.
//!
//! The safety contract is uniform: **a stored result is never trusted,
//! only checked**. A warm candidate must decode structurally *and*
//! replay-validate behaviourally against the original image before it is
//! served; any failure marks the entry corrupt and falls through to a
//! cold recompile. A poisoned store can cost time, never correctness.
//!
//! [`run_batch`] schedules a queue of jobs over `wyt-par` with one
//! shared store. Keys are derived and deduplicated serially before the
//! parallel phase and duplicate jobs are resolved after it, so the store
//! contents, counters and canonical report are identical whatever
//! `WYT_PAR` says.

use crate::artifact::{
    artifact_from_json, artifact_key, artifact_payload, facts_from_json, facts_key, facts_to_json,
    heal_from_json, heal_key, heal_payload, StoredArtifact, StoredFacts, StoredHealResult,
};
use crate::pipeline::{
    recompile, recompile_probed, validate, FaultInjector, Mode, RecompileError, Recompiled, Request,
};
use std::collections::BTreeMap;
use wyt_isa::image::Image;
use wyt_obs::{mono_ns, HealingReport, Json, Span};
use wyt_opt::OptLevel;
use wyt_par::supervise::{run_supervised, Budget, Supervised};
use wyt_store::{FsckReport, Lookup, Store, StoreCounters};

/// The outcome of a store-backed recompilation.
#[derive(Debug)]
pub enum StoredOutcome {
    /// Cache miss (or rejected entry): the pipeline ran cold and the
    /// result was persisted.
    Cold(Box<Recompiled>),
    /// Cache hit: the stored image decoded and replay-validated; no
    /// tracing, lifting or refinement ran.
    Warm(Box<StoredArtifact>),
    /// Cache hit for a healing request: the stored healed image
    /// replay-validated over its recorded union input set.
    WarmHealed(Box<StoredHealResult>),
}

impl StoredOutcome {
    /// The recompiled image, however it was obtained.
    pub fn image(&self) -> &Image {
        match self {
            StoredOutcome::Cold(r) => &r.image,
            StoredOutcome::Warm(a) => &a.image,
            StoredOutcome::WarmHealed(h) => &h.image,
        }
    }

    /// `true` on a cache hit.
    pub fn warm(&self) -> bool {
        !matches!(self, StoredOutcome::Cold(_))
    }

    /// Degraded-function count (a warm hit reports the producing run's;
    /// a `"healed"` entry does not record it, so a healed hit reports 0).
    pub fn degradations(&self) -> u64 {
        match self {
            StoredOutcome::Cold(r) => r.report.degradations.len() as u64,
            StoredOutcome::Warm(a) => a.degradations,
            StoredOutcome::WarmHealed(_) => 0,
        }
    }

    /// The input set the image was validated against. `None` on a plain
    /// warm hit, which was validated against the request's own inputs.
    pub fn inputs(&self) -> Option<&[Vec<u8>]> {
        match self {
            StoredOutcome::Cold(r) => Some(&r.inputs),
            StoredOutcome::Warm(_) => None,
            StoredOutcome::WarmHealed(h) => Some(&h.inputs),
        }
    }

    /// What healing did; `None` for a plain request. On a healed hit it
    /// is synthesized from the stored summary: `rounds` is 0 (nothing
    /// re-ran); `converged`, the site counts, `funcs_total` and the event
    /// log are the producing run's.
    pub fn healing(&self) -> Option<HealingReport> {
        match self {
            StoredOutcome::Cold(r) => r.report.healing.clone(),
            StoredOutcome::Warm(_) => None,
            StoredOutcome::WarmHealed(h) => Some(HealingReport {
                rounds: 0,
                converged: h.converged,
                sites_healed: h.sites_healed,
                sites_unhealed: h.sites_unhealed,
                funcs_total: h.funcs_total,
                events: h.events.clone(),
            }),
        }
    }
}

/// The disjoint child spans [`recompile_stored`] opens, each with the
/// key it takes in a batch row's phase breakdown
/// ([`BatchJobResult::phases_json`]): deriving the content key, fetching
/// and decoding store entries, replay-validating a warm candidate, the
/// cold pipeline, and persisting its result.
pub const JOB_PHASES: [(&str, &str); 5] = [
    ("job.key", "key_ns"),
    ("job.lookup", "lookup_ns"),
    ("job.validate", "validate_ns"),
    ("job.cold", "cold_ns"),
    ("job.put", "put_ns"),
];

/// Fetch-decode-validate one store entry of `kind` at `key`, handing the
/// decoded value to `check` for behavioural validation. Every failure
/// path marks the entry corrupt and returns `None` (recompile cold).
fn warm_candidate<T>(
    store: &Store,
    kind: &str,
    key: &str,
    decode: impl Fn(&Json) -> Result<T, String>,
    check: impl Fn(&T) -> bool,
) -> Option<T> {
    let decoded = {
        let _p = Span::enter("job.lookup");
        match store.get(kind, key) {
            Lookup::Hit(payload) => Some(decode(&payload)),
            Lookup::Miss | Lookup::Corrupt(_) => None,
        }
    }?;
    let _p = Span::enter("job.validate");
    match decoded {
        Ok(v) if check(&v) => Some(v),
        // `Ok` here is structurally sound but behaviourally wrong — a
        // logically poisoned entry. Either way: count it and recompile.
        Ok(_) | Err(_) => {
            store.note_corrupt();
            None
        }
    }
}

/// Recompile `req` through `store`: serve a validated warm hit if one
/// exists, else run [`recompile`] cold and persist the result under
/// `stamp` (the FIFO eviction rank — callers use a job index or run
/// counter). Each step runs under one of the disjoint [`JOB_PHASES`]
/// spans, so a warm hit's overhead (key + lookup + replay) is
/// attributable from the span list.
///
/// A plain request has one tier, the `"artifact"` entry. A healing
/// request (`held_out` set) has three, best first:
///
/// 1. **Warm result** — a `"healed"` entry for this exact request whose
///    image replay-validates over its recorded union input set.
/// 2. **Warm facts** — no result entry, but a `"facts"` entry for this
///    image: its inputs (those the original image still runs cleanly)
///    extend the held-out set of the cold heal, so coverage accumulates
///    across runs and across processes. Every fact is then recomputed
///    from the merged trace, so the entry can add inputs but never
///    change what an input set compiles to.
/// 3. **Cold** — plain [`recompile`] semantics.
///
/// Cold heals persist both the `"healed"` result and a merged `"facts"`
/// entry (union of the run's inputs with any prior facts). Neither key
/// includes the mode: heal through the store in [`Mode::Wytiwyg`].
///
/// # Errors
/// Returns a [`RecompileError`] only from the cold pipeline; store
/// failures of any kind degrade to a colder tier.
pub fn recompile_stored(
    store: &Store,
    req: &Request,
    stamp: u64,
) -> Result<StoredOutcome, RecompileError> {
    let _s = Span::enter(if req.held_out.is_some() { "store.heal" } else { "store.recompile" });
    let key = {
        let _p = Span::enter("job.key");
        match req.held_out {
            None => artifact_key(req.image, req.inputs, req.mode, req.opt),
            Some(held_out) => heal_key(req.image, req.inputs, held_out, req.opt),
        }
    };
    let replays = |image: &Image, inputs: &[Vec<u8>]| validate(req.image, image, inputs).is_ok();
    let cand = match req.held_out {
        None => {
            let (want_mode, want_opt) = (format!("{:?}", req.mode), format!("{:?}", req.opt));
            warm_candidate(store, "artifact", &key, artifact_from_json, |a: &StoredArtifact| {
                a.mode == want_mode && a.opt == want_opt && replays(&a.image, req.inputs)
            })
            .map(|a| StoredOutcome::Warm(Box::new(a)))
        }
        Some(_) => {
            warm_candidate(store, "healed", &key, heal_from_json, |h| replays(&h.image, &h.inputs))
                .map(|h| StoredOutcome::WarmHealed(Box::new(h)))
        }
    };
    if let Some(warm) = cand {
        wyt_obs::counter("store.warm_serve", 1);
        return Ok(warm);
    }
    let rec = match req.held_out {
        None => {
            let rec = {
                let _p = Span::enter("job.cold");
                recompile(req)?
            };
            let _p = Span::enter("job.put");
            let _ = store.put("artifact", &key, stamp, artifact_payload(&rec));
            rec
        }
        Some(held_out) => {
            let fkey = facts_key(req.image, req.opt);
            let prior: Option<StoredFacts> =
                warm_candidate(store, wyt_store::FACTS_KIND, &fkey, facts_from_json, |_| true);
            let rec = {
                let _p = Span::enter("job.cold");
                heal_seeded(req, held_out, prior.as_ref())?
            };
            let _p = Span::enter("job.put");
            let _ = store.put("healed", &key, stamp, heal_payload(&rec));
            let facts = StoredFacts::of(&rec.inputs, prior.as_ref());
            let _ = store.put(wyt_store::FACTS_KIND, &fkey, stamp, facts_to_json(&facts));
            rec
        }
    };
    Ok(StoredOutcome::Cold(Box::new(rec)))
}

/// The facts and cold tiers of a stored heal: `prior`'s inputs (those
/// the original image still handles cleanly) extend the held-out set of
/// an otherwise ordinary [`recompile`]. Each is traced on the original
/// once, as a direct heal traces its held-out inputs: the probe's run is
/// also healing's reference behaviour for it, and its trace healing's
/// coverage should it offend.
fn heal_seeded(
    req: &Request,
    held_out: &[Vec<u8>],
    prior: Option<&StoredFacts>,
) -> Result<Recompiled, RecompileError> {
    let mut all_held: Vec<Vec<u8>> = held_out.to_vec();
    let mut probed = Vec::new();
    for i in prior.map_or(&[][..], |f| &f.inputs) {
        if req.inputs.contains(i) || all_held.contains(i) {
            continue;
        }
        // Only inputs the *original* image still handles cleanly may
        // extend coverage — a poisoned input list must not be able to
        // fail the run.
        let (trace, r) = crate::healing::trace_original(req.image, i);
        if r.ok() {
            all_held.push(i.clone());
            probed.push((trace, r));
        }
    }
    recompile_probed(&Request { held_out: Some(&all_held), ..*req }, probed)
}

/// One batch-queue entry: a binary plus the inputs to trace it with.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Display name (job identity is the content key, not the name).
    pub name: String,
    /// The binary to recompile.
    pub image: Image,
    /// Inputs to trace and validate with.
    pub inputs: Vec<Vec<u8>>,
    /// Recompilation mode.
    pub mode: Mode,
    /// Re-optimization level.
    pub opt: OptLevel,
}

impl BatchJob {
    /// The job as a plain [`Request`].
    pub fn request(&self) -> Request<'_> {
        Request { opt: self.opt, ..Request::new(&self.image, &self.inputs, self.mode) }
    }
}

/// Typed terminal state of one batch job under supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran the pipeline cold and persisted the result.
    Cold,
    /// Served warm from the store (replay-validated).
    Warm,
    /// The pipeline returned its typed error.
    Error,
    /// The job panicked. It is quarantined — reported with its payload
    /// — while the rest of the batch completed.
    Crashed,
    /// The job exceeded its deterministic fuel budget and was cancelled
    /// at a preemption point.
    Timeout,
}

impl JobOutcome {
    /// Canonical lower-case name (the report schema value).
    pub fn name(self) -> &'static str {
        match self {
            JobOutcome::Cold => "cold",
            JobOutcome::Warm => "warm",
            JobOutcome::Error => "error",
            JobOutcome::Crashed => "crashed",
            JobOutcome::Timeout => "timeout",
        }
    }
}

/// Per-job outcome row of a batch run.
#[derive(Debug, Clone)]
pub struct BatchJobResult {
    /// Job name.
    pub name: String,
    /// Content key of the job's artifact entry.
    pub key: String,
    /// Typed terminal state.
    pub outcome: JobOutcome,
    /// `true` if the job was served from the store
    /// (`outcome == JobOutcome::Warm`, kept as a field for direct use).
    pub warm: bool,
    /// `true` if the supervisor re-ran the job after a crash or
    /// timeout (the row records the final attempt).
    pub retried: bool,
    /// Wall time of the job (excluded from the canonical report).
    pub wall_ns: u64,
    /// Total time under each [`JOB_PHASES`] span, by span name, summed
    /// over the job's attempts (excluded from the canonical report).
    /// Read off the job's own span list, so empty when the run was not
    /// observed.
    pub phases: BTreeMap<&'static str, u64>,
    /// Degraded-function count.
    pub degradations: u64,
    /// Pipeline error, if the job failed.
    pub error: Option<String>,
}

impl BatchJobResult {
    /// The phase breakdown as `{key_ns, lookup_ns, validate_ns, cold_ns,
    /// put_ns, other_ns}`: the phases are disjoint spans inside the job,
    /// so they sum to at most `wall_ns`, and `other_ns` is the rest.
    /// `null` when the run was not observed.
    pub fn phases_json(&self) -> Json {
        if self.phases.is_empty() {
            return Json::Null;
        }
        let mut members = Vec::new();
        let mut named = 0;
        for (span, key) in JOB_PHASES {
            let ns = self.phases.get(span).copied().unwrap_or(0);
            named += ns;
            members.push((key.to_string(), Json::from(ns)));
        }
        members.push(("other_ns".to_string(), Json::from(self.wall_ns.saturating_sub(named))));
        Json::Obj(members)
    }
}

/// What a batch run did: per-job rows in queue order plus the store's
/// counter deltas.
#[derive(Debug)]
pub struct BatchReport {
    /// One row per submitted job, in submission order.
    pub jobs: Vec<BatchJobResult>,
    /// Store counter deltas over exactly this batch (snapshotted at
    /// entry, subtracted at exit — a shared long-lived store does not
    /// leak earlier runs into this report).
    pub counters: StoreCounters,
    /// What fsck found when the batch's store was opened.
    pub fsck: FsckReport,
    /// Worker threads used (excluded from the canonical report).
    pub threads: usize,
}

impl BatchReport {
    /// Full report, including timings and thread count.
    pub fn to_json(&self) -> Json {
        let mut j = self.to_json_deterministic();
        if let Json::Obj(members) = &mut j {
            members.push(("threads".to_string(), Json::from(self.threads as u64)));
            if let Some(Json::Arr(rows)) =
                members.iter_mut().find(|(k, _)| k == "jobs").map(|(_, v)| v)
            {
                for (row, job) in rows.iter_mut().zip(&self.jobs) {
                    if let Json::Obj(m) = row {
                        m.push(("wall_ns".to_string(), Json::from(job.wall_ns)));
                        m.push(("phases".to_string(), job.phases_json()));
                    }
                }
            }
        }
        j
    }

    /// Totals over [`BatchReport::jobs`] by terminal state, plus how
    /// many jobs the supervisor retried.
    /// `(cold, warm, error, crashed, timeout, retried)`.
    pub fn outcome_totals(&self) -> (u64, u64, u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0, 0, 0);
        for r in &self.jobs {
            match r.outcome {
                JobOutcome::Cold => t.0 += 1,
                JobOutcome::Warm => t.1 += 1,
                JobOutcome::Error => t.2 += 1,
                JobOutcome::Crashed => t.3 += 1,
                JobOutcome::Timeout => t.4 += 1,
            }
            t.5 += u64::from(r.retried);
        }
        t
    }

    /// Canonical timing-free form: byte-identical across serial and
    /// parallel runs of the same queue against equal stores.
    pub fn to_json_deterministic(&self) -> Json {
        let (cold, warm, error, crashed, timeout, retried) = self.outcome_totals();
        Json::obj(vec![
            (
                "jobs",
                Json::Arr(
                    self.jobs
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("name", Json::from(r.name.as_str())),
                                ("key", Json::from(r.key.as_str())),
                                ("outcome", Json::from(r.outcome.name())),
                                ("warm", Json::Bool(r.warm)),
                                ("retried", Json::Bool(r.retried)),
                                ("degradations", Json::from(r.degradations)),
                                ("error", r.error.as_deref().map_or(Json::Null, Json::from)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "outcomes",
                Json::obj(vec![
                    ("cold", Json::from(cold)),
                    ("warm", Json::from(warm)),
                    ("error", Json::from(error)),
                    ("crashed", Json::from(crashed)),
                    ("timeout", Json::from(timeout)),
                    ("retried", Json::from(retried)),
                ]),
            ),
            ("store", self.counters.to_json()),
            ("fsck", self.fsck.to_json()),
        ])
    }
}

/// Supervision policy for [`run_batch`].
#[derive(Debug, Clone, Copy)]
pub struct SuperviseConfig {
    /// Per-job fuel budget (see [`wyt_par::supervise`]).
    pub budget: Budget,
    /// Retry a crashed or timed-out job once before quarantining it —
    /// absorbs one-shot environmental failures while deterministic
    /// faults still surface (they fail identically twice).
    pub retry: bool,
}

impl Default for SuperviseConfig {
    fn default() -> SuperviseConfig {
        SuperviseConfig { budget: Budget::from_env(), retry: true }
    }
}

/// Run a queue of jobs against one shared store, scheduling the distinct
/// jobs over [`wyt_par::par_map`] with default supervision (per-job
/// panic isolation, fuel watchdog, one retry).
///
/// Determinism: keys are derived serially up front; jobs with equal keys
/// are deduplicated (first submission wins the slot and its FIFO stamp)
/// and the remainder are resolved *after* the parallel phase, when the
/// winner's entry is already on disk. Distinct jobs touch distinct entry
/// paths, so parallel writers never collide. If `WYT_STORE_CAP` is set,
/// the store is evicted down to that many entries at the end.
pub fn run_batch(store: &Store, jobs: &[BatchJob]) -> BatchReport {
    run_batch_supervised(store, jobs, &SuperviseConfig::default(), &|_| FaultInjector::default())
}

/// [`run_batch`] with an explicit supervision policy and a per-job
/// [`FaultInjector`] factory (`inject(i)` is the submission index) —
/// the chaos harness's entry point. A job that panics or overruns its
/// budget becomes a typed [`JobOutcome::Crashed`]/[`JobOutcome::Timeout`]
/// row while every other job completes normally; nothing escapes to the
/// caller.
pub fn run_batch_supervised(
    store: &Store,
    jobs: &[BatchJob],
    cfg: &SuperviseConfig,
    inject: &(dyn Fn(usize) -> FaultInjector + Sync),
) -> BatchReport {
    let _s = Span::enter("store.batch");
    let counters_base = store.counters();
    let keys: Vec<String> =
        jobs.iter().map(|j| artifact_key(&j.image, &j.inputs, j.mode, j.opt)).collect();
    let mut first_of: BTreeMap<&str, usize> = BTreeMap::new();
    let mut unique: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        first_of.entry(key.as_str()).or_insert_with(|| {
            unique.push(i);
            i
        });
    }

    let run_job = |i: usize| -> BatchJobResult {
        let job = &jobs[i];
        let t0 = mono_ns();
        let attempt = || {
            run_supervised(cfg.budget, || {
                let faults = inject(i);
                recompile_stored(store, &Request { faults: &faults, ..job.request() }, i as u64)
            })
        };
        let mut sup = attempt();
        let mut retried = false;
        if cfg.retry && !matches!(sup, Supervised::Ok(_)) {
            wyt_obs::counter("batch.job.retried", 1);
            retried = true;
            sup = attempt();
        }
        let wall_ns = mono_ns() - t0;
        let mut row = BatchJobResult {
            name: job.name.clone(),
            key: keys[i].clone(),
            outcome: JobOutcome::Error,
            warm: false,
            retried,
            wall_ns,
            phases: BTreeMap::new(),
            degradations: 0,
            error: None,
        };
        match sup {
            Supervised::Ok(Ok(o)) => {
                row.outcome = if o.warm() { JobOutcome::Warm } else { JobOutcome::Cold };
                row.warm = o.warm();
                row.degradations = o.degradations();
            }
            Supervised::Ok(Err(e)) => row.error = Some(e.to_string()),
            Supervised::Timeout(b) => {
                wyt_obs::counter("batch.job.timeout", 1);
                row.outcome = JobOutcome::Timeout;
                row.error = Some(b.to_string());
            }
            Supervised::Crashed(payload) => {
                wyt_obs::counter("batch.job.crashed", 1);
                row.outcome = JobOutcome::Crashed;
                row.error = Some(payload);
            }
        }
        row
    };
    // While observing, each job records into its own scope so its phase
    // breakdown is read off its own spans; the scope then folds back.
    let run_one = |i: usize| -> BatchJobResult {
        if !wyt_obs::observing() {
            return run_job(i);
        }
        let (mut row, snap) = wyt_obs::with_local(|| run_job(i));
        let stats = snap.span_stats();
        for (span, _) in JOB_PHASES {
            row.phases.insert(span, stats.get(span).map_or(0, |s| s.total_ns));
        }
        wyt_obs::fold(snap);
        row
    };

    let unique_results = wyt_par::par_map(&unique, |_, &i| run_one(i));
    let mut rows: Vec<Option<BatchJobResult>> = vec![None; jobs.len()];
    for (slot, r) in unique.iter().zip(unique_results) {
        rows[*slot] = Some(r);
    }
    // Duplicates resolve serially against the now-populated store.
    for i in 0..jobs.len() {
        if rows[i].is_none() {
            rows[i] = Some(run_one(i));
        }
    }
    if let Some(cap) = wyt_obs::env::env_usize_opt(wyt_store::CAP_ENV) {
        let _ = store.evict_to(cap);
    }
    BatchReport {
        jobs: rows.into_iter().map(|r| r.expect("every slot resolved")).collect(),
        counters: store.counters().delta_since(&counters_base),
        fsck: store.fsck_report(),
        threads: wyt_par::threads(),
    }
}
