//! The three batch workloads and the job queues they submit.
//!
//! Every workload is a closed loop over one queue: `run_batch` hands the
//! queue to two `wyt-par` workers and each worker takes its next job
//! when the current one finishes. What differs is what the queue holds
//! and what the store holds when a pass starts.

use wyt_core::{BatchJob, Mode};
use wyt_minicc::{compile, Profile};
use wyt_opt::OptLevel;
use wyt_testkit::{progen, Rng};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's use: SPEC-shaped binaries recompiled against an empty
    /// store, so every job traces, lifts, refines, lowers and writes.
    ColdSuite,
    /// The service's repeat request: the same queue served from a store
    /// that set-up filled, so every job reads, decodes and validates.
    WarmSuite,
    /// A batch of many small seeded random binaries against an empty
    /// store, where per-job fixed costs and the optimizer show.
    ManySmall,
}

/// The suite programs a pass recompiles. Left out: sjeng, h264ref, hmmer
/// and astar, whose single cold job (10–46 s on a 2-CPU machine) is
/// longer than a whole pass of the rest, so a pass would time one
/// straggler; and libquantum, so that the program count is odd and the
/// median job is one program's, not the midpoint of the gap between two.
///
/// The order matters: `wyt-par` first splits the queue evenly, `[0, 2)`
/// and `[2, 5)`. Each half then starts with a long cold job (mcf 2.8 s,
/// bzip2 2.3 s) and only gcc (0.4 s) is left for the steal race at the
/// end, so the pass time does not jump with which worker wins it.
const SUITE: [&str; 5] = ["mcf", "gobmk", "bzip2", "xalancbmk", "gcc"];

/// The smoke-sized suite: the two cheapest programs, train inputs only.
const SMOKE_SUITE: [&str; 2] = ["gcc", "libquantum"];

/// Random programs per many-small queue.
const SMALL_PROGRAMS: usize = 1500;

/// The most native instructions a "small" program may run on its input.
const SMALL_MAX_STEPS: u64 = 20_000;

/// Random programs per smoke-sized many-small queue.
const SMOKE_PROGRAMS: usize = 20;

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [Workload::ColdSuite, Workload::WarmSuite, Workload::ManySmall];

    /// The workload's command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSuite => "cold-suite",
            Workload::WarmSuite => "warm-suite",
            Workload::ManySmall => "many-small",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` if passes run against the store set-up filled (every job
    /// must hit); otherwise each pass gets a fresh empty store.
    pub fn warm(self) -> bool {
        self == Workload::WarmSuite
    }

    /// Build the workload's job queue. The suite workloads ignore `seed`
    /// (their programs and inputs are fixed); many-small draws its
    /// programs from it.
    pub fn jobs(self, seed: u64, smoke: bool) -> Vec<BatchJob> {
        match self {
            Workload::ColdSuite | Workload::WarmSuite => suite_jobs(smoke),
            Workload::ManySmall => {
                small_jobs(seed, if smoke { SMOKE_PROGRAMS } else { SMALL_PROGRAMS })
            }
        }
    }
}

fn job(name: String, image: wyt_isa::image::Image, inputs: Vec<Vec<u8>>) -> BatchJob {
    BatchJob { name, image: image.stripped(), inputs, mode: Mode::Wytiwyg, opt: OptLevel::Full }
}

/// The suite queue: GCC 12.2 -O3, stripped, traced with the train and
/// ref inputs together (train only when smoke-sized). Built on the
/// `wyt-par` workers, like the passes: one thread's time would swing
/// with the speed of whichever CPU it landed on.
fn suite_jobs(smoke: bool) -> Vec<BatchJob> {
    let names: &[&str] = if smoke { &SMOKE_SUITE } else { &SUITE };
    let profile = Profile::gcc12_o3();
    wyt_par::par_map(names, |_, name| {
        let b = wyt_spec::by_name(name).expect("suite program exists");
        let image = compile(b.source, &profile)
            .unwrap_or_else(|e| panic!("suite program {} must compile: {e}", b.name));
        let inputs = if smoke { b.train_inputs() } else { b.trace_inputs() };
        job(b.name.to_string(), image, inputs)
    })
}

/// `n` distinct small random programs drawn from `seed` across every
/// compiler profile, each with its own single input. Programs are drawn
/// serially, so the seed alone fixes them, and built on the `wyt-par`
/// workers.
///
/// Two kinds of draw are skipped. Duplicates: `run_batch` would serve a
/// repeated job from the store, and a cold pass must miss on every job.
/// Programs running more than [`SMALL_MAX_STEPS`] native instructions:
/// about 5% of draws, yet the top 1% alone run 30–54% of all steps, so
/// keeping them would make a pass's work swing with the seed.
fn small_jobs(seed: u64, n: usize) -> Vec<BatchJob> {
    let mut rng = Rng::new(seed);
    let mut seen = std::collections::BTreeSet::new();
    let mut jobs = Vec::with_capacity(n);
    while jobs.len() < n {
        let mut draws = Vec::new();
        while draws.len() < n - jobs.len() {
            let p = progen::gen_prog(&mut rng);
            let source = progen::render(&p);
            if seen.insert((p.profile, source.clone(), p.input.clone())) {
                draws.push((p, source));
            }
        }
        let built = wyt_par::par_map(&draws, |_, (p, source)| {
            let image = compile(source, &progen::profile(p.profile))
                .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{source}"));
            let steps = wyt_emu::run_image(&image, p.input.clone()).inst_count;
            (steps <= SMALL_MAX_STEPS).then_some(image)
        });
        for ((p, _), image) in draws.into_iter().zip(built) {
            if let Some(image) = image {
                jobs.push(job(format!("small-{:04}", jobs.len()), image, vec![p.input]));
            }
        }
    }
    jobs
}
