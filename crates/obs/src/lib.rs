//! # wyt-obs — zero-dependency observability
//!
//! The measurement substrate for the whole recompiler: a lightweight
//! span/counter API feeding a process-global sink ([`sink`]), structured
//! per-recompilation telemetry ([`report::PipelineReport`]), and a
//! dependency-free JSON value type with writer and parser ([`json`]) so
//! bench runs and CI produce machine-diffable output.
//!
//! Spans are the one timing record: per-name totals and exact latency
//! quantiles are computed from span durations ([`Snapshot::span_stats`]),
//! and the trace export ([`trace`]) renders the same events.
//!
//! Design rules, in priority order:
//!
//! 1. **Disabled means free.** Every hot-path entry point
//!    ([`Span::enter`], [`counter`]) first checks one relaxed atomic and
//!    returns immediately when the sink is off — no clock reads, no lock,
//!    no allocation. Instrumented crates may therefore call these
//!    unconditionally.
//! 2. **No dependencies.** Like `wyt-testkit`, this crate must build
//!    `--offline` forever; JSON, the monotonic clock wrapper and the
//!    registry are all in-tree.
//! 3. **Deterministic reports.** [`report::PipelineReport`] orders every
//!    collection and can render itself with timings zeroed
//!    ([`report::PipelineReport::to_json_deterministic`]) so tests can pin
//!    its JSON byte-for-byte.
//!
//! Enabling: call [`set_enabled`] directly, or [`init_from_env`] which
//! reads the `WYT_OBS` environment variable (`json`, `pretty`, or `1`).

pub mod env;
pub mod json;
pub mod report;
pub mod sink;
pub mod span;
pub mod trace;

pub use env::{env_u64, env_usize, env_usize_opt};
pub use json::{Json, JsonLimits, ParseError, ParseErrorKind};
pub use report::{
    CoverageStats, Degradation, FuncQuality, GuardEvent, HealingReport, IrSize, LiftCounts,
    MemStats, PipelineReport, QualityStats, StageStats,
};
pub use sink::{
    counter, enabled, fold, init_from_env, observing, reset, set_enabled, snapshot, with_local,
    OutputFormat, Snapshot, SpanStats,
};
pub use span::{fmt_ns, mono_ns, Span};

/// Lock a mutex, recovering the guard when the lock is poisoned.
///
/// With panic isolation (`wyt_par::supervise`) a task may unwind while
/// holding a shared lock; every value guarded this way is either
/// replaced wholesale or append-only telemetry, so the poisoned state
/// is still well-formed and the service must keep running rather than
/// cascade the panic into every later locker.
pub fn lock_ok<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
pub(crate) mod testalloc {
    //! A counting global allocator for the "disabled means free" test:
    //! every allocation on the calling thread bumps a thread-local, so
    //! a test can assert a code region allocated nothing without being
    //! perturbed by other test threads.
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    pub struct Counting;

    // SAFETY: defers entirely to `System`; the counter is a plain
    // thread-local bump guarded by `try_with` against TLS teardown.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// Allocations made by the calling thread so far.
    pub fn allocations() -> u64 {
        ALLOCS.try_with(Cell::get).unwrap_or(0)
    }
}
