//! Structured per-recompilation telemetry: the [`PipelineReport`] that
//! `wyt_core::recompile` attaches to every `Recompiled`, mirroring the
//! paper's per-stage evidence (Fig. 7 / Table 1): how long each stage
//! took, how much IR it created or deleted, what the lifter saw, and how
//! much of the stack the refinements actually symbolized.

use crate::json::Json;
use crate::span::fmt_ns;

/// Size of an IR module at a stage boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IrSize {
    /// Functions.
    pub funcs: u64,
    /// Basic blocks across all functions.
    pub blocks: u64,
    /// Instructions resident in blocks.
    pub insts: u64,
}

impl IrSize {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("funcs", Json::from(self.funcs)),
            ("blocks", Json::from(self.blocks)),
            ("insts", Json::from(self.insts)),
        ])
    }
}

/// One pipeline stage: wall time plus the IR size delta it caused.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Stage name (`lift`, `vararg`, ..., `lower`).
    pub name: &'static str,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Module size entering the stage.
    pub before: IrSize,
    /// Module size leaving the stage.
    pub after: IrSize,
}

impl StageStats {
    fn to_json(&self, with_timings: bool) -> Json {
        Json::obj(vec![
            ("name", Json::from(self.name)),
            ("wall_ns", Json::from(if with_timings { self.wall_ns } else { 0 })),
            ("before", self.before.to_json()),
            ("after", self.after.to_json()),
        ])
    }
}

/// What the lifter observed — the trace/CFG/function-recovery counts that
/// used to be discarded on the pipeline floor.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiftCounts {
    /// Distinct traced control-transfer edges.
    pub trace_edges: u64,
    /// Distinct traced external-call sites.
    pub trace_ext_calls: u64,
    /// Machine CFG blocks reconstructed.
    pub cfg_blocks: u64,
    /// Machine CFG edges reconstructed.
    pub cfg_edges: u64,
    /// Functions recovered.
    pub funcs_recovered: u64,
    /// Tail-call edges identified during function recovery.
    pub tail_calls: u64,
}

impl LiftCounts {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("trace_edges", Json::from(self.trace_edges)),
            ("trace_ext_calls", Json::from(self.trace_ext_calls)),
            ("cfg_blocks", Json::from(self.cfg_blocks)),
            ("cfg_edges", Json::from(self.cfg_edges)),
            ("funcs_recovered", Json::from(self.funcs_recovered)),
            ("tail_calls", Json::from(self.tail_calls)),
        ])
    }
}

/// Memory-access counters for one `wyt_emu::Machine` run, classified by
/// address region. Loads and stores are always counted; the three stack
/// counters only when the caller gave the machine an emulated-stack
/// range (the pipeline does so for its validation replays while the obs
/// sink is on).
///
/// `native_slot` and `emu_stack` are each maintained by their own range
/// check, and `stack_total` by an independent membership check, so the
/// identity `stack_total == native_slot + emu_stack` is a real invariant
/// of the classification — not true by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Accesses to the machine stack — symbolized accesses, after
    /// recovery.
    pub native_slot: u64,
    /// Accesses to the emulated-stack region — residual un-symbolized
    /// stack traffic.
    pub emu_stack: u64,
    /// Accesses that hit either stack region.
    pub stack_total: u64,
}

impl MemStats {
    /// Fold another run's counters into this one.
    pub fn merge(&mut self, other: &MemStats) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.native_slot += other.native_slot;
        self.emu_stack += other.emu_stack;
        self.stack_total += other.stack_total;
    }

    /// Loads plus stores.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }
}

/// Symbolization coverage of the shipped image, measured on the
/// validation gate's replays of the lowered image over the traced inputs:
/// every dynamic stack reference either hits the machine stack
/// (symbolized: recovered slots, plus the pushes, pops and spills the
/// backend emits) or still goes through the emulated-stack global
/// (residual).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoverageStats {
    /// Dynamic stack references hitting the machine stack.
    pub symbolized: u64,
    /// Dynamic stack references still hitting the emulated stack.
    pub residual: u64,
    /// All dynamic stack references observed (independent count).
    pub total: u64,
    /// Validation replays summed (one per traced input).
    pub runs: u64,
}

impl CoverageStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("symbolized", Json::from(self.symbolized)),
            ("residual", Json::from(self.residual)),
            ("total", Json::from(self.total)),
            ("runs", Json::from(self.runs)),
        ])
    }
}

/// Recovery quality for one lifted function (paper Fig. 7's raw
/// material).
#[derive(Debug, Clone)]
pub struct FuncQuality {
    /// IR function index.
    pub func: u32,
    /// Function name.
    pub name: String,
    /// Callee-saved registers recovered for this function.
    pub saved_regs: u64,
    /// Stack variables recovered into the layout.
    pub vars: u64,
    /// Stack-passed arguments in the recovered signature.
    pub stack_args: u64,
    /// Register-passed arguments in the recovered signature.
    pub reg_args: u64,
}

impl FuncQuality {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("func", Json::from(u64::from(self.func))),
            ("name", Json::from(self.name.as_str())),
            ("saved_regs", Json::from(self.saved_regs)),
            ("vars", Json::from(self.vars)),
            ("stack_args", Json::from(self.stack_args)),
            ("reg_args", Json::from(self.reg_args)),
        ])
    }
}

/// Recovery-quality metrics mirroring the paper's evaluation axes.
#[derive(Debug, Clone, Default)]
pub struct QualityStats {
    /// External call sites whose signatures (incl. variadic) were
    /// recovered and rewritten to explicit arguments.
    pub vararg_sites: u64,
    /// Direct stack references folded to canonical `sp0 + offset` base
    /// pointers.
    pub base_ptrs_folded: u64,
    /// Stack variables recovered across all functions.
    pub vars_recovered: u64,
    /// Instructions taking the emulated-stack global's address before
    /// symbolization.
    pub emu_refs_before: u64,
    /// ... and remaining after symbolization (residual roots).
    pub emu_refs_after: u64,
    /// Per-function breakdown, ordered by function index.
    pub funcs: Vec<FuncQuality>,
    /// Dynamic symbolization coverage of the validated image (collected
    /// only when the obs sink is enabled — classifying accesses costs
    /// range checks on every load and store).
    pub coverage: Option<CoverageStats>,
}

impl QualityStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("vararg_sites", Json::from(self.vararg_sites)),
            ("base_ptrs_folded", Json::from(self.base_ptrs_folded)),
            ("vars_recovered", Json::from(self.vars_recovered)),
            ("emu_refs_before", Json::from(self.emu_refs_before)),
            ("emu_refs_after", Json::from(self.emu_refs_after)),
            (
                "coverage",
                match &self.coverage {
                    Some(c) => c.to_json(),
                    None => Json::Null,
                },
            ),
            ("funcs", Json::Arr(self.funcs.iter().map(FuncQuality::to_json).collect())),
        ])
    }
}

/// One function demoted down the degradation ladder: which rung it ended
/// on and why the pipeline gave up on the rung above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// IR function index.
    pub func: u32,
    /// Function name.
    pub name: String,
    /// Ladder rung the function landed on (`"spfold-only"` or
    /// `"emulated-stack"`).
    pub rung: &'static str,
    /// Human-readable demotion reason (the stage error or validation
    /// mismatch that triggered it).
    pub reason: String,
}

impl Degradation {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("func", Json::from(u64::from(self.func))),
            ("name", Json::from(self.name.as_str())),
            ("rung", Json::from(self.rung)),
            ("reason", Json::from(self.reason.as_str())),
        ])
    }
}

/// One guard trap observed while running the recompiled image on a
/// held-out input: which input fired it, and the attribution the guard
/// side table produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardEvent {
    /// Healing round (1-based) in which the guard fired.
    pub round: u64,
    /// Index of the offending input within the held-out set.
    pub input: u64,
    /// IR function index the guard site belongs to.
    pub func: u32,
    /// Function name.
    pub name: String,
    /// Site kind: `"branch"` or `"indirect"`.
    pub kind: String,
    /// Machine address of the trap instruction in the recompiled image.
    pub pc: u32,
}

impl GuardEvent {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("round", Json::from(self.round)),
            ("input", Json::from(self.input)),
            ("func", Json::from(u64::from(self.func))),
            ("name", Json::from(self.name.as_str())),
            ("kind", Json::from(self.kind.as_str())),
            ("pc", Json::from(u64::from(self.pc))),
        ])
    }
}

/// What a self-healing run did: how many re-trace/re-lift rounds it
/// took, which guard sites fired, and how much prior work it reused.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealingReport {
    /// Healing rounds executed (0 if no guard ever fired).
    pub rounds: u64,
    /// `true` if every held-out input ran cleanly in the end.
    pub converged: bool,
    /// Guard sites healed (re-traced and covered by a later image).
    pub sites_healed: u64,
    /// Guard sites the loop gave up on (no new coverage, or rounds
    /// exhausted).
    pub sites_unhealed: u64,
    /// Lifted functions in the final module (synthetic entry excluded).
    pub funcs_total: u64,
    /// Functions re-lifted in at least one round.
    pub funcs_relifted: u64,
    /// Functions whose refinement facts were reused unchanged across
    /// every round they survived.
    pub funcs_reused: u64,
    /// Every guard trap observed, in firing order.
    pub events: Vec<GuardEvent>,
}

impl HealingReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rounds", Json::from(self.rounds)),
            ("converged", Json::Bool(self.converged)),
            ("sites_healed", Json::from(self.sites_healed)),
            ("sites_unhealed", Json::from(self.sites_unhealed)),
            ("funcs_total", Json::from(self.funcs_total)),
            ("funcs_relifted", Json::from(self.funcs_relifted)),
            ("funcs_reused", Json::from(self.funcs_reused)),
            ("events", Json::Arr(self.events.iter().map(GuardEvent::to_json).collect())),
        ])
    }
}

/// Utilization of one `wyt-par` worker over a recompilation: how many
/// tasks it executed, how often it stole work, and how its wall time
/// split between running tasks and waiting for them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Worker index (0 = the calling thread).
    pub worker: u32,
    /// Tasks this worker executed.
    pub tasks: u64,
    /// Successful steals from sibling workers.
    pub steals: u64,
    /// Nanoseconds spent inside tasks.
    pub busy_ns: u64,
    /// Nanoseconds spent outside tasks (claiming, stealing, waiting).
    pub idle_ns: u64,
}

impl WorkerStat {
    /// `busy / (busy + idle)`, or 0 for a worker that recorded nothing.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }

    /// `{worker, tasks, steals, busy_ns, idle_ns}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("worker", Json::from(u64::from(self.worker))),
            ("tasks", Json::from(self.tasks)),
            ("steals", Json::from(self.steals)),
            ("busy_ns", Json::from(self.busy_ns)),
            ("idle_ns", Json::from(self.idle_ns)),
        ])
    }
}

/// Everything one recompilation measured about itself.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Recompilation mode (`NoSymbolize` / `Wytiwyg`).
    pub mode: String,
    /// Re-optimization level (`Clean` / `Full`).
    pub opt: String,
    /// Stages in execution order.
    pub stages: Vec<StageStats>,
    /// Lifting-stage observation counts.
    pub lift: LiftCounts,
    /// Recovery-quality metrics.
    pub quality: QualityStats,
    /// Functions demoted down the degradation ladder, ordered by function
    /// index. Empty on a clean recompilation.
    pub degradations: Vec<Degradation>,
    /// Self-healing telemetry; `None` for a plain (non-healing)
    /// recompilation.
    pub healing: Option<HealingReport>,
    /// Per-worker executor utilization over this recompilation
    /// (empty when nothing was profiled). Wall-clock data, so it is
    /// timing-gated in [`PipelineReport::to_json`] and never appears in
    /// the deterministic form.
    pub workers: Vec<WorkerStat>,
}

impl PipelineReport {
    /// Look up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Sum of per-stage wall times.
    pub fn total_wall_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.wall_ns).sum()
    }

    /// Render as JSON. With `with_timings == false` every wall-clock
    /// field is zeroed, making the output deterministic for a fixed
    /// program and input set.
    pub fn to_json(&self, with_timings: bool) -> Json {
        Json::obj(vec![
            ("mode", Json::from(self.mode.as_str())),
            ("opt", Json::from(self.opt.as_str())),
            ("total_wall_ns", Json::from(if with_timings { self.total_wall_ns() } else { 0 })),
            ("stages", Json::Arr(self.stages.iter().map(|s| s.to_json(with_timings)).collect())),
            ("lift", self.lift.to_json()),
            ("quality", self.quality.to_json()),
            (
                "degradations",
                Json::Arr(self.degradations.iter().map(Degradation::to_json).collect()),
            ),
            (
                "healing",
                match &self.healing {
                    Some(h) => h.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "par",
                if with_timings && !self.workers.is_empty() {
                    Json::obj(vec![(
                        "workers",
                        Json::Arr(self.workers.iter().map(WorkerStat::to_json).collect()),
                    )])
                } else {
                    // Worker busy/idle splits are wall-clock data: the
                    // deterministic form always renders null here so the
                    // serial-vs-parallel byte-identity gates stay exact.
                    Json::Null
                },
            ),
        ])
    }

    /// [`PipelineReport::to_json`] with timings zeroed: byte-for-byte
    /// reproducible for a fixed program and input set (snapshot tests pin
    /// this form).
    pub fn to_json_deterministic(&self) -> Json {
        self.to_json(false)
    }

    /// Human-readable stage tree.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "pipeline [{} / {}] — {} total\n",
            self.mode,
            self.opt,
            fmt_ns(self.total_wall_ns())
        ));
        let n = self.stages.len();
        for (i, s) in self.stages.iter().enumerate() {
            let tee = if i + 1 == n { "└─" } else { "├─" };
            let delta = s.after.insts as i64 - s.before.insts as i64;
            out.push_str(&format!(
                "{tee} {:<12} {:>10}   insts {:>5} → {:<5} ({:+})   blocks {} → {}   funcs {} → {}\n",
                s.name,
                fmt_ns(s.wall_ns),
                s.before.insts,
                s.after.insts,
                delta,
                s.before.blocks,
                s.after.blocks,
                s.before.funcs,
                s.after.funcs,
            ));
        }
        let l = &self.lift;
        out.push_str(&format!(
            "lift: {} trace edges, {} ext-call sites, {} cfg blocks / {} edges, {} funcs ({} tail calls)\n",
            l.trace_edges, l.trace_ext_calls, l.cfg_blocks, l.cfg_edges, l.funcs_recovered, l.tail_calls
        ));
        let q = &self.quality;
        out.push_str(&format!(
            "quality: {} vararg sites, {} base ptrs folded, {} vars, emu-stack roots {} → {}\n",
            q.vararg_sites,
            q.base_ptrs_folded,
            q.vars_recovered,
            q.emu_refs_before,
            q.emu_refs_after
        ));
        for f in &q.funcs {
            out.push_str(&format!(
                "  fn {:<20} saved regs {}, vars {}, args {}+{}r\n",
                f.name, f.saved_regs, f.vars, f.stack_args, f.reg_args
            ));
        }
        if let Some(c) = &q.coverage {
            out.push_str(&format!(
                "coverage: {} symbolized + {} residual = {} stack refs over {} run(s)\n",
                c.symbolized, c.residual, c.total, c.runs
            ));
        }
        if !self.degradations.is_empty() {
            out.push_str(&format!("degraded: {} function(s)\n", self.degradations.len()));
            for d in &self.degradations {
                out.push_str(&format!("  fn {:<20} → {} ({})\n", d.name, d.rung, d.reason));
            }
        }
        if !self.workers.is_empty() {
            out.push_str(&format!("par: {} worker(s)\n", self.workers.len()));
            for w in &self.workers {
                out.push_str(&format!(
                    "  worker {:<3} {:>5} task(s), {:>4} steal(s), busy {} / idle {} ({:.0}% util)\n",
                    w.worker,
                    w.tasks,
                    w.steals,
                    fmt_ns(w.busy_ns),
                    fmt_ns(w.idle_ns),
                    w.utilization() * 100.0,
                ));
            }
        }
        if let Some(h) = &self.healing {
            out.push_str(&format!(
                "healing: {} round(s), {} healed / {} unhealed, relifted {} of {} funcs ({} reused){}\n",
                h.rounds,
                h.sites_healed,
                h.sites_unhealed,
                h.funcs_relifted,
                h.funcs_total,
                h.funcs_reused,
                if h.converged { "" } else { " — NOT converged" },
            ));
            for e in &h.events {
                out.push_str(&format!(
                    "  round {} input {}: {} guard at {:#x} in fn {}\n",
                    e.round, e.input, e.kind, e.pc, e.name
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineReport {
        PipelineReport {
            mode: "Wytiwyg".into(),
            opt: "Full".into(),
            stages: vec![
                StageStats {
                    name: "lift",
                    wall_ns: 1000,
                    before: IrSize::default(),
                    after: IrSize { funcs: 2, blocks: 5, insts: 40 },
                },
                StageStats {
                    name: "optimize",
                    wall_ns: 2000,
                    before: IrSize { funcs: 2, blocks: 5, insts: 40 },
                    after: IrSize { funcs: 2, blocks: 4, insts: 22 },
                },
            ],
            lift: LiftCounts { trace_edges: 10, funcs_recovered: 2, ..Default::default() },
            quality: QualityStats {
                vararg_sites: 1,
                coverage: Some(CoverageStats { symbolized: 9, residual: 1, total: 10, runs: 1 }),
                ..Default::default()
            },
            degradations: Vec::new(),
            healing: None,
            workers: vec![WorkerStat {
                worker: 0,
                tasks: 4,
                steals: 1,
                busy_ns: 900,
                idle_ns: 100,
            }],
        }
    }

    #[test]
    fn worker_stats_are_timing_gated() {
        let r = sample();
        // Deterministic form: always null, whatever was profiled.
        assert!(matches!(r.to_json_deterministic().get("par"), Some(Json::Null)));
        // Timed form: full utilization section.
        let timed = r.to_json(true);
        let workers = timed.get("par").unwrap().get("workers").unwrap().as_arr().unwrap();
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].get("tasks").unwrap().as_u64(), Some(4));
        assert!((r.workers[0].utilization() - 0.9).abs() < 1e-9);
        assert!(r.render_pretty().contains("worker 0"));
    }

    #[test]
    fn deterministic_json_zeroes_timings() {
        let r = sample();
        let j = r.to_json_deterministic();
        assert_eq!(j.get("total_wall_ns").unwrap().as_u64(), Some(0));
        let stages = j.get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages[0].get("wall_ns").unwrap().as_u64(), Some(0));
        // ...but the structural counts survive.
        assert_eq!(stages[1].get("after").unwrap().get("insts").unwrap().as_u64(), Some(22));
        // And the timed form keeps them.
        let timed = r.to_json(true);
        assert_eq!(timed.get("total_wall_ns").unwrap().as_u64(), Some(3000));
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let r = sample();
        let text = r.to_json(true).to_string();
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(parsed.get("mode").unwrap().as_str(), Some("Wytiwyg"));
        assert_eq!(
            parsed.get("quality").unwrap().get("coverage").unwrap().get("total").unwrap().as_u64(),
            Some(10)
        );
    }

    #[test]
    fn pretty_render_mentions_each_stage() {
        let text = sample().render_pretty();
        assert!(text.contains("lift"));
        assert!(text.contains("optimize"));
        assert!(text.contains("coverage: 9 symbolized + 1 residual"));
    }

    #[test]
    fn degradations_serialize_and_render() {
        let mut r = sample();
        let j = r.to_json_deterministic();
        // The key is always present — an empty array on the clean path,
        // so `report --check` can assert the schema unconditionally.
        assert_eq!(j.get("degradations").unwrap().as_arr().unwrap().len(), 0);
        r.degradations.push(Degradation {
            func: 3,
            name: "fn_0x1000".into(),
            rung: "spfold-only",
            reason: "symbolize: raw external call survived".into(),
        });
        let j = r.to_json_deterministic();
        let arr = j.get("degradations").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].get("func").unwrap().as_u64(), Some(3));
        assert_eq!(arr[0].get("rung").unwrap().as_str(), Some("spfold-only"));
        let text = r.render_pretty();
        assert!(text.contains("degraded: 1 function(s)"));
        assert!(text.contains("spfold-only"));
    }

    #[test]
    fn healing_serializes_and_renders() {
        let mut r = sample();
        // The key is always present: null on a plain recompilation, so
        // `report --check` can assert the schema unconditionally.
        assert!(matches!(r.to_json_deterministic().get("healing"), Some(Json::Null)));
        r.healing = Some(HealingReport {
            rounds: 2,
            converged: true,
            sites_healed: 1,
            sites_unhealed: 0,
            funcs_total: 3,
            funcs_relifted: 2,
            funcs_reused: 1,
            events: vec![GuardEvent {
                round: 1,
                input: 0,
                func: 1,
                name: "main".into(),
                kind: "branch".into(),
                pc: 0x10_0040,
            }],
        });
        let j = r.to_json_deterministic();
        let h = j.get("healing").unwrap();
        assert_eq!(h.get("rounds").unwrap().as_u64(), Some(2));
        assert_eq!(h.get("funcs_reused").unwrap().as_u64(), Some(1));
        let ev = &h.get("events").unwrap().as_arr().unwrap()[0];
        assert_eq!(ev.get("kind").unwrap().as_str(), Some("branch"));
        assert_eq!(ev.get("name").unwrap().as_str(), Some("main"));
        let text = r.render_pretty();
        assert!(text.contains("healing: 2 round(s), 1 healed / 0 unhealed"));
        assert!(text.contains("branch guard"));
        // Round-trips through the parser like the rest of the report.
        let parsed = crate::json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed.get("healing").unwrap().get("sites_healed").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn memstats_merge_and_accessors() {
        let mut a = MemStats { loads: 1, stores: 2, native_slot: 1, emu_stack: 1, stack_total: 2 };
        let b = MemStats { loads: 3, stores: 4, native_slot: 0, emu_stack: 2, stack_total: 2 };
        a.merge(&b);
        assert_eq!(a.accesses(), 10);
        assert_eq!(a.stack_total, 4);
        assert_eq!(a.native_slot + a.emu_stack, a.stack_total);
    }
}
