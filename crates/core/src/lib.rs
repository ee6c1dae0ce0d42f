//! # wyt-core — WYTIWYG: dynamic stack-layout recovery
//!
//! The paper's primary contribution, reproduced end to end:
//!
//! - [`vararg`] — refinement 1: exact signatures for external and
//!   `printf`-style calls, from the arities the tracer records by
//!   inspecting format strings as they execute (paper §5.2).
//! - [`regsave`] — refinement 2a: the dynamic saved-register analysis with
//!   symbolic register tokens and deferred forwarding constraints (§4.1).
//! - [`spfold`] — refinement 2b: explicit save/restore insertion and
//!   folding of every direct stack reference into canonical `sp0 + offset`
//!   base pointers (§4.1).
//! - [`runtime`] — refinement 3: the bounds-recovery tracing runtime with
//!   `StackVar`s, `PointerInfo`s, the address map, linked sets, frame and
//!   call-site descriptors, and external-function effects (§4.2, Fig. 5).
//! - [`shadowmem`] — the paged address → shadow map both refinement hooks
//!   keep for values that round-trip through guest memory.
//! - [`layout`] — interval/link coalescing into per-function stack layouts
//!   and super signatures (§4.2.6).
//! - [`symbolize`] — base-pointer replacement with allocas, signature
//!   materialization, registers-to-SSA, emulated-stack removal (§4.2.6).
//! - [`pipeline`] — the refinement-lifting driver (Fig. 4): [`recompile`]
//!   runs one [`Request`] through trace → lift → refine → symbolize →
//!   re-optimize → lower, and [`recompile_from_lifted`] runs everything
//!   after the lift.
//! - [`accuracy`] — the §6.3 evaluation: recovered layouts vs ground
//!   truth, classified matched / oversized / undersized / missed.
//! - [`baseline`] — a SecondWrite-like conservative *static* symbolizer
//!   used as the comparison point in Table 1 / Fig. 6.
//! - [`healing`] — the self-healing loop: guard-trap attribution,
//!   re-trace of the offending input, re-lift and re-refinement of the
//!   merged trace on the union input set, bounded re-validation (a
//!   [`Request`] with `held_out` set).
//! - [`ingest`] — total ingestion frontends: typed, bounded decoders
//!   for every byte stream entering the suite (fuzzed continuously by
//!   the in-tree `wyt-fuzz` campaign).
//! - [`artifact`] — stable JSON codecs between pipeline artifacts
//!   (images, traces, accumulated input sets, healing results) and the
//!   content-addressed `wyt-store`.
//! - [`batch`] — recompilation-as-a-service: the store-backed warm/cold
//!   frontend for plain and healing requests ([`recompile_stored`]) and
//!   the deterministic batch driver ([`run_batch`]).
//!
//! ```no_run
//! use wyt_core::{recompile, Mode, Request};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let image = wyt_minicc::compile("int main() { return 0; }",
//!     &wyt_minicc::Profile::gcc12_o3())?.stripped();
//! let out = recompile(&Request::new(&image, &[vec![]], Mode::Wytiwyg))?;
//! assert_eq!(wyt_emu::run_image(&out.image, vec![]).exit_code, 0);
//! # Ok(())
//! # }
//! ```

pub mod accuracy;
pub mod artifact;
pub mod baseline;
pub mod batch;
mod flat;
pub mod healing;
pub mod ingest;
pub mod layout;
pub mod pipeline;
pub mod regsave;
pub mod runtime;
pub mod shadowmem;
pub mod spfold;
pub mod symbolize;
pub mod vararg;

pub use accuracy::{evaluate_accuracy, AccuracyReport, MatchKind};
pub use artifact::{artifact_key, facts_key, heal_key, image_digest, StoredFacts};
pub use baseline::{recompile_secondwrite, SecondWriteError};
pub use batch::{
    recompile_stored, run_batch, run_batch_supervised, BatchJob, BatchJobResult, BatchReport,
    JobOutcome, StoredOutcome, SuperviseConfig,
};
pub use ingest::IngestError;
pub use pipeline::{
    recompile, recompile_from_lifted, validate, FaultInjector, MismatchKind, Mode, RecompileError,
    Recompiled, Request, ValidateError,
};
