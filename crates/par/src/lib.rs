//! # wyt-par — zero-dependency deterministic parallel execution
//!
//! A scoped-thread, work-stealing executor for the recompile pipeline,
//! the optimizer, the bench suite and the differential oracle. Std-only
//! and `--offline`-safe, like every other crate in the workspace.
//!
//! ## Determinism contract
//!
//! Parallel execution must be **observationally identical** to serial
//! execution — same recompiled image bytes, same reports, same bench
//! rows — regardless of `WYT_PAR`. The executor guarantees its half of
//! the contract structurally:
//!
//! - results are returned **in task-index order**, never in completion
//!   order ([`par_indexed`] reassembles before returning);
//! - each task's observability stream is captured in a thread-local
//!   sink scope ([`wyt_obs::with_local`]) and folded into the enclosing
//!   sink **in task-index order** after the join, so counters and span
//!   streams match a serial run exactly (timings aside);
//! - tasks spawned from inside a worker run **serially inline**
//!   ([`in_pool`]), so nested parallelism cannot reorder anything and
//!   cannot oversubscribe the machine.
//!
//! Callers own the other half: tasks must be independent (no shared
//! mutable state), and any cross-task merge must be done on the
//! returned, index-ordered results.
//!
//! ## Scheduling
//!
//! Each [`par_indexed`] call splits `0..n` into one contiguous range
//! per worker, packed into a single atomic word (`lo`,`hi`). Owners
//! claim from the front of their range; a worker that runs dry steals
//! the upper half of the fullest remaining range (classic lazy range
//! splitting). All transitions are CAS except an owner refilling its
//! own empty range, so every index is executed exactly once. Workers
//! are scoped threads (`std::thread::scope`), so tasks may freely
//! borrow from the caller's stack; nothing outlives the call.
//!
//! ## Profiling
//!
//! While any `wyt-obs` collector is on, each worker tallies tasks
//! executed, successful steals, and busy/idle nanoseconds into a
//! process-global per-slot accumulator ([`worker_profile`] /
//! [`worker_profile_delta`]); the pipeline brackets a recompile and
//! reports the delta as the `par.workers` utilization section of its
//! report. Workers also pin their slot id as their span track
//! ([`wyt_obs::trace::track_guard`]), so the wall-clock trace export
//! shows one track per worker.
//!
//! ## Configuration
//!
//! `WYT_PAR=<n>` pins the worker count; `WYT_PAR=0` (or `1`) forces
//! serial execution; unset defaults to the machine's available
//! parallelism. [`set_threads`] overrides in-process (tests use it to
//! compare serial and parallel runs byte-for-byte).

pub mod supervise;

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable selecting the worker count (`0`/`1` = serial).
pub const ENV: &str = "WYT_PAR";

/// Hard cap on workers; beyond this, coordination costs dominate.
const MAX_THREADS: usize = 64;

/// Resolved worker count; 0 = not yet resolved from the environment.
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread is executing tasks for a pool, to force
    /// nested parallel calls to run serially inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn resolve_threads() -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Unrecognized values warn once and fall back to the hardware
    // default, like an unset variable; `0` means serial.
    let n = match wyt_obs::env::env_usize(ENV, hw) {
        0 => 1,
        n => n,
    };
    n.clamp(1, MAX_THREADS)
}

/// The configured worker count (resolved from `WYT_PAR` once, then
/// cached; 1 means serial).
pub fn threads() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let r = resolve_threads();
    THREADS.store(r, Ordering::Relaxed);
    r
}

/// Override the worker count in-process (tests compare `set_threads(1)`
/// vs `set_threads(4)` runs for byte equality). Clamped to `1..=64`.
pub fn set_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Is this thread currently a pool worker? Parallel entry points check
/// this and run inline when nested.
pub fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Would a parallel entry point actually fan out right now?
pub fn parallel() -> bool {
    threads() > 1 && !in_pool()
}

/// One worker's claimable index range, packed `hi << 32 | lo`. Owners
/// claim `lo`; thieves CAS the upper half away. An empty range stays
/// empty for everyone but its owner, which makes the owner's refill
/// (after a successful steal) a plain store.
struct Range(AtomicU64);

const fn pack(lo: u32, hi: u32) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

fn unpack(v: u64) -> (u32, u32) {
    ((v & 0xffff_ffff) as u32, (v >> 32) as u32)
}

impl Range {
    fn new(lo: usize, hi: usize) -> Range {
        Range(AtomicU64::new(pack(lo as u32, hi as u32)))
    }

    /// Take the next index from the front, if any.
    fn claim(&self) -> Option<usize> {
        loop {
            let cur = self.0.load(Ordering::Acquire);
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            if self
                .0
                .compare_exchange_weak(cur, pack(lo + 1, hi), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(lo as usize);
            }
        }
    }

    /// Atomically remove and return the upper half `[mid, hi)` (the
    /// whole range when only one index remains).
    fn steal(&self) -> Option<(usize, usize)> {
        loop {
            let cur = self.0.load(Ordering::Acquire);
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let mid = lo + (hi - lo) / 2;
            if self
                .0
                .compare_exchange_weak(cur, pack(lo, mid), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some((mid as usize, hi as usize));
            }
        }
    }

    fn remaining(&self) -> usize {
        let (lo, hi) = unpack(self.0.load(Ordering::Acquire));
        hi.saturating_sub(lo) as usize
    }

    /// Owner-only refill of an empty range with freshly stolen work.
    fn refill(&self, lo: usize, hi: usize) {
        debug_assert_eq!(self.remaining(), 0, "refill requires an empty range");
        self.0.store(pack(lo as u32, hi as u32), Ordering::Release);
    }
}

/// Marks the current thread as a pool worker for the guard's lifetime
/// (the main thread participates as worker 0 and must be restored).
struct PoolGuard {
    prev: bool,
}

impl PoolGuard {
    fn enter() -> PoolGuard {
        PoolGuard { prev: IN_POOL.with(|c| c.replace(true)) }
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL.with(|c| c.set(prev));
    }
}

/// One executed task, tagged for deterministic reassembly.
struct Done<R> {
    index: usize,
    result: R,
    obs: Option<wyt_obs::Snapshot>,
}

/// Per-worker-slot utilization accumulated across every pool run since
/// startup. Indexed by worker id; updated once per worker per
/// [`par_indexed`] call (never on the task hot path) and only while
/// some collector is on, so the lock is uncontended and profiling off
/// costs nothing.
static PROFILE: Mutex<Vec<wyt_obs::WorkerStat>> = Mutex::new(Vec::new());

/// Snapshot of the per-worker utilization accumulators (empty until a
/// pool runs with observability on).
pub fn worker_profile() -> Vec<wyt_obs::WorkerStat> {
    wyt_obs::lock_ok(&PROFILE).clone()
}

/// The per-worker utilization accumulated since `base` (a
/// [`worker_profile`] snapshot): callers bracket a region and get just
/// that region's tasks/steals/busy/idle per worker.
pub fn worker_profile_delta(base: &[wyt_obs::WorkerStat]) -> Vec<wyt_obs::WorkerStat> {
    worker_profile()
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let b = base.get(i).copied().unwrap_or_default();
            wyt_obs::WorkerStat {
                worker: w.worker,
                tasks: w.tasks - b.tasks,
                steals: w.steals - b.steals,
                busy_ns: w.busy_ns - b.busy_ns,
                idle_ns: w.idle_ns - b.idle_ns,
            }
        })
        .collect()
}

/// Run `f(i)` for every `i in 0..n` and return the results **in index
/// order**. Runs inline (serially, on the caller's thread, with no sink
/// scoping) when `n <= 1`, the configured worker count is 1, or the
/// caller is itself a pool worker.
pub fn par_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let t = threads().min(n);
    if t <= 1 || in_pool() {
        return (0..n).map(&f).collect();
    }

    let obs = wyt_obs::observing();
    let run_one = |i: usize| -> Done<R> {
        if obs {
            let (result, snap) = wyt_obs::with_local(|| f(i));
            Done { index: i, result, obs: Some(snap) }
        } else {
            Done { index: i, result: f(i), obs: None }
        }
    };

    // Deterministic initial split: worker w owns [w*n/t, (w+1)*n/t).
    let ranges: Vec<Range> = (0..t).map(|w| Range::new(w * n / t, (w + 1) * n / t)).collect();

    let mut done: Vec<Done<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..t)
            .map(|id| {
                let ranges = &ranges;
                let run_one = &run_one;
                std::thread::Builder::new()
                    .name(format!("wyt-par-{id}"))
                    .spawn_scoped(s, move || worker(id, ranges, run_one))
                    .expect("spawn pool worker")
            })
            .collect();
        // The caller participates as worker 0.
        let mut all = worker(0, &ranges, &run_one);
        for h in handles {
            match h.join() {
                Ok(v) => all.extend(v),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        all
    });

    done.sort_unstable_by_key(|d| d.index);
    debug_assert!(done.iter().enumerate().all(|(i, d)| i == d.index));
    assert_eq!(done.len(), n, "every index must be executed exactly once");
    done.into_iter()
        .map(|d| {
            // Fold each task's observations in index order: the merged
            // stream is identical to what a serial run records.
            if let Some(snap) = d.obs {
                wyt_obs::fold(snap);
            }
            d.result
        })
        .collect()
}

fn worker<R>(
    id: usize,
    ranges: &[Range],
    run_one: &(impl Fn(usize) -> Done<R> + Sync),
) -> Vec<Done<R>> {
    let _g = PoolGuard::enter();
    // The worker's slot id is its span track, so the trace export gets
    // one Chrome track per worker.
    let _track = wyt_obs::trace::track_guard(id as u32);
    let prof = wyt_obs::observing();
    let t_start = prof.then(wyt_obs::mono_ns);
    let mut tasks = 0u64;
    let mut steals = 0u64;
    let mut busy = 0u64;
    let mut out = Vec::new();
    loop {
        while let Some(i) = ranges[id].claim() {
            if prof {
                let t0 = wyt_obs::mono_ns();
                out.push(run_one(i));
                busy += wyt_obs::mono_ns() - t0;
                tasks += 1;
            } else {
                out.push(run_one(i));
            }
        }
        // Dry: steal the upper half of the fullest victim. Exit only
        // when every range is empty (in-flight tasks are owned by the
        // workers executing them; the scope join waits for those).
        let victim = (0..ranges.len())
            .filter(|&v| v != id)
            .map(|v| (ranges[v].remaining(), v))
            .max()
            .filter(|&(len, _)| len > 0);
        let Some((_, v)) = victim else { break };
        if let Some((lo, hi)) = ranges[v].steal() {
            ranges[id].refill(lo, hi);
            steals += 1;
        }
        // A failed steal means the victim drained meanwhile; rescan.
    }
    if let Some(t0) = t_start {
        let idle = (wyt_obs::mono_ns() - t0).saturating_sub(busy);
        let mut profile = wyt_obs::lock_ok(&PROFILE);
        if profile.len() <= id {
            let next = profile.len()..=id;
            profile.extend(
                next.map(|w| wyt_obs::WorkerStat { worker: w as u32, ..Default::default() }),
            );
        }
        let slot = &mut profile[id];
        slot.tasks += tasks;
        slot.steals += steals;
        slot.busy_ns += busy;
        slot.idle_ns += idle;
    }
    out
}

/// [`par_indexed`] over a slice: `f(i, &items[i])`, results in order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_indexed(items.len(), |i| f(i, &items[i]))
}

/// [`par_indexed`] over owned items: each is moved into exactly one
/// task (the way `wyt-opt` shards `Module::funcs` across workers).
pub fn par_map_take<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if !parallel() || items.len() <= 1 {
        return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    par_indexed(slots.len(), |i| {
        let item = wyt_obs::lock_ok(&slots[i]).take().expect("each slot is claimed exactly once");
        f(i, item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Tests mutate the process-global thread count; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct ThreadCount;
    impl ThreadCount {
        fn set(n: usize) -> ThreadCount {
            set_threads(n);
            ThreadCount
        }
    }
    impl Drop for ThreadCount {
        fn drop(&mut self) {
            // Back to "unresolved" semantics: re-pin to the env default.
            THREADS.store(0, Ordering::Relaxed);
        }
    }

    #[test]
    fn results_come_back_in_index_order() {
        let _l = TEST_LOCK.lock().unwrap();
        let _t = ThreadCount::set(4);
        // Uneven task costs force heavy interleaving and stealing.
        let out = par_indexed(97, |i| {
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            let mut acc = i as u64;
            for _ in 0..(i % 13) * 500 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(acc);
            i * 3
        });
        assert_eq!(out, (0..97).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let _l = TEST_LOCK.lock().unwrap();
        let _t = ThreadCount::set(8);
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        par_indexed(500, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_calls_run_inline() {
        let _l = TEST_LOCK.lock().unwrap();
        let _t = ThreadCount::set(4);
        let out = par_indexed(8, |i| {
            assert!(in_pool(), "tasks must know they are on the pool");
            // The nested call must not deadlock, spawn, or reorder.
            let inner = par_indexed(5, |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        assert!(!in_pool(), "the caller's flag is restored after the join");
        let expect: Vec<usize> = (0..8).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let _l = TEST_LOCK.lock().unwrap();
        let task = |i: usize| (i as u64).wrapping_mul(2654435761) % 1013;
        let serial = {
            let _t = ThreadCount::set(1);
            par_indexed(256, task)
        };
        let par = {
            let _t = ThreadCount::set(6);
            par_indexed(256, task)
        };
        assert_eq!(serial, par);
    }

    #[test]
    fn par_map_take_moves_each_item_once() {
        let _l = TEST_LOCK.lock().unwrap();
        let _t = ThreadCount::set(4);
        let items: Vec<String> = (0..64).map(|i| format!("v{i}")).collect();
        let out = par_map_take(items, |i, s| format!("{i}:{s}"));
        assert_eq!(out.len(), 64);
        assert_eq!(out[63], "63:v63");
        assert_eq!(out[0], "0:v0");
    }

    #[test]
    fn obs_counters_fold_deterministically() {
        let _l = TEST_LOCK.lock().unwrap();
        let run = |threads: usize| {
            let _t = ThreadCount::set(threads);
            wyt_obs::set_enabled(true);
            wyt_obs::reset();
            par_indexed(40, |i| wyt_obs::counter("par.test", (i as u64) + 1));
            let snap = wyt_obs::snapshot();
            wyt_obs::set_enabled(false);
            wyt_obs::reset();
            snap
        };
        let serial = run(1);
        let par = run(4);
        assert_eq!(serial.counters.get("par.test"), Some(&820));
        assert_eq!(serial.counters, par.counters);
    }

    #[test]
    fn env_parsing_semantics() {
        // Resolution is cached; test the resolver's contract indirectly
        // via set_threads clamping.
        let _l = TEST_LOCK.lock().unwrap();
        set_threads(0);
        assert_eq!(threads(), 1, "0 clamps to serial");
        set_threads(1_000_000);
        assert_eq!(threads(), MAX_THREADS);
        THREADS.store(0, Ordering::Relaxed);
        assert!(threads() >= 1);
    }

    #[test]
    fn worker_profile_accumulates_when_observing() {
        let _l = TEST_LOCK.lock().unwrap();
        let _t = ThreadCount::set(4);
        wyt_obs::set_enabled(true);
        let base = worker_profile();
        par_indexed(64, |i| std::hint::black_box(i * 2));
        let delta = worker_profile_delta(&base);
        wyt_obs::set_enabled(false);
        wyt_obs::reset();
        assert_eq!(delta.iter().map(|w| w.tasks).sum::<u64>(), 64);
        assert!(!delta.is_empty());
        assert_eq!(delta[0].worker, 0);
        assert!(delta[0].busy_ns + delta[0].idle_ns > 0);
    }

    #[test]
    fn worker_profile_is_off_when_not_observing() {
        let _l = TEST_LOCK.lock().unwrap();
        let _t = ThreadCount::set(4);
        wyt_obs::set_enabled(false);
        let base = worker_profile();
        par_indexed(64, |i| std::hint::black_box(i));
        let delta = worker_profile_delta(&base);
        assert!(delta.iter().all(|w| w.tasks == 0), "profiling off records nothing");
    }

    #[test]
    fn task_trace_events_match_serial_vs_parallel() {
        let _l = TEST_LOCK.lock().unwrap();
        let run = |threads: usize| {
            let _t = ThreadCount::set(threads);
            wyt_obs::trace::set_enabled(true);
            wyt_obs::reset();
            par_indexed(24, |i| {
                let _s = wyt_obs::Span::enter("task");
                std::hint::black_box(i)
            });
            let evs = wyt_obs::snapshot().spans;
            wyt_obs::trace::set_enabled(false);
            wyt_obs::reset();
            evs.iter().map(|e| (e.name, e.phase)).collect::<Vec<_>>()
        };
        let serial = run(1);
        let par = run(4);
        assert_eq!(serial.len(), 48, "begin+end per task");
        assert_eq!(serial, par, "folded event stream matches the serial stream");
    }

    #[test]
    fn range_steal_takes_upper_half() {
        let r = Range::new(0, 8);
        assert_eq!(r.claim(), Some(0));
        assert_eq!(r.steal(), Some((4, 8)), "upper half of [1,8)");
        assert_eq!(r.remaining(), 3);
        let single = Range::new(5, 6);
        assert_eq!(single.steal(), Some((5, 6)), "a lone index is stealable");
        assert_eq!(single.claim(), None);
    }
}
