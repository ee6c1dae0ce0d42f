//! The process-global sink: one state word, one registry of counters
//! and span events.
//!
//! The state is a single relaxed atomic `u32` with two bits — bit 0
//! turns on the whole sink, bit 1 ([`crate::trace::set_enabled`]) span
//! events alone — so instrumentation sites in hot loops (the emulator's
//! fetch/execute loop, the IR interpreter) pay one load and a
//! predictable branch when everything is off. The registry behind it is
//! a plain mutex: it is only ever touched when enabled, and contention
//! stays negligible because parallel workers observe into
//! **thread-local scopes** instead: `wyt-par` wraps each task in
//! [`with_local`] and [`fold`]s the captured snapshots back into the
//! global registry in task order, keeping parallel observation streams
//! deterministic.
//!
//! Spans are kept one way only: as the begin/end event list
//! [`Snapshot::spans`]. Per-name totals and exact latency quantiles
//! ([`Snapshot::span_stats`]) and the Chrome export
//! ([`crate::trace::to_chrome_json`]) are all computed from that list.

use crate::span::mono_ns;
use crate::trace::{Phase, TraceEvent};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// State bit: the counter/span sink is collecting.
pub(crate) const SINK_ON: u32 = 1;
/// State bit: span events are collecting, without counters
/// ([`crate::trace`]).
pub(crate) const TRACE_ON: u32 = 1 << 1;

static STATE: AtomicU32 = AtomicU32::new(0);

/// The combined collector state word (one relaxed load).
#[inline]
pub(crate) fn state() -> u32 {
    STATE.load(Ordering::Relaxed)
}

pub(crate) fn set_state_bit(bit: u32, on: bool) {
    if on {
        STATE.fetch_or(bit, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!bit, Ordering::Relaxed);
    }
}

struct Registry {
    counters: BTreeMap<String, u64>,
    spans: Vec<TraceEvent>,
}

impl Registry {
    const fn empty() -> Registry {
        Registry { counters: BTreeMap::new(), spans: Vec::new() }
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry::empty());

thread_local! {
    /// Innermost local observation scope on this thread, if any. When
    /// installed, counters and span events land here
    /// instead of the global registry (see [`with_local`]).
    static LOCAL: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

/// Is the global sink collecting?
#[inline]
pub fn enabled() -> bool {
    state() & SINK_ON != 0
}

/// Turn the global sink on or off (span events alone have their own
/// switch, [`crate::trace::set_enabled`]).
pub fn set_enabled(on: bool) {
    set_state_bit(SINK_ON, on);
}

/// Is anything — the sink or span events alone — being collected?
/// `wyt-par` uses this to decide whether tasks need local observation
/// scopes.
#[inline]
pub fn observing() -> bool {
    state() != 0
}

/// Requested output rendering, from the `WYT_OBS` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// `WYT_OBS` unset or unrecognized: sink stays off.
    Off,
    /// `WYT_OBS=json`: machine-readable reports.
    Json,
    /// `WYT_OBS=pretty` (or `1`): human-readable tree.
    Pretty,
}

/// Read `WYT_OBS`, enable the sink accordingly, and return the requested
/// format (`json` → JSON, `pretty`/`1` → tree, anything else → off).
pub fn init_from_env() -> OutputFormat {
    let fmt = match std::env::var("WYT_OBS").as_deref() {
        Ok("json") => OutputFormat::Json,
        Ok("pretty") | Ok("1") => OutputFormat::Pretty,
        _ => OutputFormat::Off,
    };
    set_enabled(fmt != OutputFormat::Off);
    fmt
}

/// Add `delta` to the named counter (no-op when disabled).
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    let local = LOCAL.with(|l| {
        if let Some(reg) = l.borrow_mut().as_mut() {
            *reg.counters.entry(name.to_string()).or_insert(0) += delta;
            true
        } else {
            false
        }
    });
    if !local {
        let mut reg = crate::lock_ok(&REGISTRY);
        *reg.counters.entry(name.to_string()).or_insert(0) += delta;
    }
}

/// Append one span event, stamped now on this thread's track (called
/// by [`crate::Span`], which has already checked the state word).
pub(crate) fn record_span_event(name: &'static str, phase: Phase) {
    let ev = TraceEvent { name, phase, ts_ns: mono_ns(), track: crate::trace::current_track() };
    let local = LOCAL.with(|l| {
        if let Some(reg) = l.borrow_mut().as_mut() {
            reg.spans.push(ev);
            true
        } else {
            false
        }
    });
    if !local {
        crate::lock_ok(&REGISTRY).spans.push(ev);
    }
}

/// Run `f` with a fresh **local** observation scope on this thread:
/// every counter and span event it records is
/// captured privately and returned as a [`Snapshot`] instead of
/// entering the global registry. Scopes nest; the innermost wins. The
/// caller decides when (and in what order) to [`fold`] the snapshot
/// back — `wyt-par` folds worker snapshots in task-index order so
/// parallel runs observe exactly what the serial run would.
///
/// When every collector is disabled the snapshot comes back empty and
/// `f` runs with only the usual single-atomic overhead.
pub fn with_local<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    struct Scope {
        prev: Option<Registry>,
    }
    impl Drop for Scope {
        fn drop(&mut self) {
            // Restores the outer scope even if `f` unwinds.
            LOCAL.with(|l| *l.borrow_mut() = self.prev.take());
        }
    }
    let mut scope = Scope { prev: LOCAL.with(|l| l.borrow_mut().replace(Registry::empty())) };
    let r = f();
    let mine = LOCAL
        .with(|l| std::mem::replace(&mut *l.borrow_mut(), scope.prev.take()))
        .expect("local observation scope vanished");
    std::mem::forget(scope); // already restored
    (r, Snapshot { counters: mine.counters, spans: mine.spans })
}

/// Merge a snapshot captured by [`with_local`] into the current sink:
/// the innermost local scope if one is installed on this thread,
/// otherwise the global registry. Counter values add; span events
/// append in the snapshot's order. No-op when nothing is being
/// collected.
pub fn fold(snap: Snapshot) {
    if state() == 0 {
        return;
    }
    let mut pending = Some(snap);
    LOCAL.with(|l| {
        if let Some(reg) = l.borrow_mut().as_mut() {
            merge(reg, pending.take().unwrap());
        }
    });
    if let Some(snap) = pending {
        merge(&mut crate::lock_ok(&REGISTRY), snap);
    }
}

fn merge(reg: &mut Registry, Snapshot { counters, spans }: Snapshot) {
    for (k, v) in counters {
        *reg.counters.entry(k).or_insert(0) += v;
    }
    reg.spans.extend(spans);
}

/// A copy of everything the sink has collected.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals, ordered by name.
    pub counters: BTreeMap<String, u64>,
    /// Span begin/end events in record order (folded scopes in fold
    /// order).
    pub spans: Vec<TraceEvent>,
}

/// The completed spans of one name: how many, their summed duration,
/// and exact nearest-rank quantiles of their durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Summed duration.
    pub total_ns: u64,
    /// Completed spans.
    pub count: u64,
    /// Median duration.
    pub p50_ns: u64,
    /// 90th-percentile duration.
    pub p90_ns: u64,
    /// 99th-percentile duration.
    pub p99_ns: u64,
    /// Longest duration.
    pub max_ns: u64,
}

impl SpanStats {
    /// Stats of a non-empty set of durations (sorted in place).
    fn of(durations: &mut [u64]) -> SpanStats {
        durations.sort_unstable();
        let n = durations.len() as u64;
        // Nearest rank: the smallest duration that at least `pct`% of
        // the durations do not exceed.
        let rank = |pct: u64| durations[((n * pct).div_ceil(100).max(1) - 1) as usize];
        SpanStats {
            total_ns: durations.iter().sum(),
            count: n,
            p50_ns: rank(50),
            p90_ns: rank(90),
            p99_ns: rank(99),
            max_ns: rank(100),
        }
    }

    /// `{total_ns, count, p50_ns, p90_ns, p99_ns, max_ns}`.
    fn to_json(self) -> crate::Json {
        use crate::Json;
        Json::obj(vec![
            ("total_ns", Json::from(self.total_ns)),
            ("count", Json::from(self.count)),
            ("p50_ns", Json::from(self.p50_ns)),
            ("p90_ns", Json::from(self.p90_ns)),
            ("p99_ns", Json::from(self.p99_ns)),
            ("max_ns", Json::from(self.max_ns)),
        ])
    }
}

impl Snapshot {
    /// Aggregate completed spans by name, ordered by name. Each end
    /// event closes the innermost open begin on its track; a span still
    /// open at snapshot time is not counted.
    pub fn span_stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut open: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for ev in &self.spans {
            let stack = open.entry(ev.track).or_default();
            match ev.phase {
                Phase::Begin => stack.push(ev.ts_ns),
                Phase::End => {
                    if let Some(start) = stack.pop() {
                        durations.entry(ev.name).or_default().push(ev.ts_ns.saturating_sub(start));
                    }
                }
            }
        }
        durations.into_iter().map(|(name, mut d)| (name, SpanStats::of(&mut d))).collect()
    }

    /// Render counters and per-name [`SpanStats`] as a JSON object (the
    /// span events themselves export through
    /// [`crate::trace::to_chrome_json`]).
    pub fn to_json(&self) -> crate::Json {
        use crate::Json;
        let counters =
            self.counters.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect::<Vec<_>>();
        let spans = self
            .span_stats()
            .into_iter()
            .map(|(name, s)| (name.to_string(), s.to_json()))
            .collect::<Vec<_>>();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("spans".into(), Json::Obj(spans)),
        ])
    }
}

/// Copy out the current registry contents.
pub fn snapshot() -> Snapshot {
    let reg = crate::lock_ok(&REGISTRY);
    Snapshot { counters: reg.counters.clone(), spans: reg.spans.clone() }
}

/// Clear the registry (the state word is untouched).
pub fn reset() {
    let mut reg = crate::lock_ok(&REGISTRY);
    reg.counters.clear();
    reg.spans.clear();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Json, Span};

    /// The whole suite shares the process-global sink, so
    /// every test module that pokes them serializes on this lock.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// A snapshot holding one `name` span per duration in `durs`, laid
    /// end to end on track 0.
    fn spans_of(name: &'static str, durs: &[u64]) -> Snapshot {
        let mut spans = Vec::new();
        let mut ts = 0;
        for &d in durs {
            spans.push(TraceEvent { name, phase: Phase::Begin, ts_ns: ts, track: 0 });
            ts += d;
            spans.push(TraceEvent { name, phase: Phase::End, ts_ns: ts, track: 0 });
        }
        Snapshot { spans, ..Snapshot::default() }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        counter("x", 5);
        {
            let _s = Span::enter("quiet");
        }
        let snap = snapshot();
        assert!(snap.counters.is_empty(), "disabled counter must not accumulate");
        assert!(snap.spans.is_empty(), "disabled span must not record");
    }

    #[test]
    fn enabled_sink_accumulates_and_resets() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        counter("a", 2);
        counter("a", 3);
        counter("b", 1);
        {
            let _outer = Span::enter("outer");
            let _inner = Span::enter("inner");
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counters.get("a"), Some(&5));
        assert_eq!(snap.counters.get("b"), Some(&1));
        // Begin outer, begin inner, end inner, end outer.
        let names: Vec<_> = snap.spans.iter().map(|e| (e.name, e.phase)).collect();
        assert_eq!(
            names,
            [
                ("outer", Phase::Begin),
                ("inner", Phase::Begin),
                ("inner", Phase::End),
                ("outer", Phase::End)
            ]
        );
        let stats = snap.span_stats();
        assert_eq!(stats.get("outer").map(|s| s.count), Some(1));
        assert_eq!(stats.get("inner").map(|s| s.count), Some(1));
        assert!(stats["outer"].total_ns >= stats["inner"].total_ns, "outer encloses inner");
        reset();
        assert!(snapshot().counters.is_empty());
        assert!(snapshot().spans.is_empty());
    }

    #[test]
    fn span_quantiles_are_exact_nearest_rank() {
        let hundred: Vec<u64> = (1..=100).rev().collect();
        let s = spans_of("d", &hundred).span_stats()["d"];
        assert_eq!(
            s,
            SpanStats {
                total_ns: 5050,
                count: 100,
                p50_ns: 50,
                p90_ns: 90,
                p99_ns: 99,
                max_ns: 100
            }
        );
        // Three samples: rank ⌈1.5⌉ = 2 for p50, ⌈2.7⌉ = 3 for p90.
        let s = spans_of("d", &[30, 10, 20]).span_stats()["d"];
        assert_eq!((s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns), (20, 30, 30, 30));
        let s = spans_of("d", &[7]).span_stats()["d"];
        assert_eq!((s.count, s.p50_ns, s.p99_ns, s.max_ns), (1, 7, 7, 7));
    }

    #[test]
    fn unclosed_span_is_not_counted() {
        let mut snap = spans_of("done", &[5, 9]);
        snap.spans.insert(0, TraceEvent { name: "open", phase: Phase::Begin, ts_ns: 0, track: 0 });
        // A closed span on another track is paired independently.
        snap.spans.push(TraceEvent { name: "other", phase: Phase::Begin, ts_ns: 1, track: 1 });
        snap.spans.push(TraceEvent { name: "other", phase: Phase::End, ts_ns: 4, track: 1 });
        let stats = snap.span_stats();
        assert_eq!(stats.keys().copied().collect::<Vec<_>>(), ["done", "other"]);
        assert_eq!((stats["done"].count, stats["done"].max_ns), (2, 9));
        assert_eq!(stats["other"].total_ns, 3);

        // The same through the live sink: a guard still held at
        // snapshot time contributes nothing.
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        let held = Span::enter("held");
        let live = snapshot();
        drop(held);
        set_enabled(false);
        reset();
        assert_eq!(live.spans.len(), 1);
        assert!(live.span_stats().is_empty());
    }

    #[test]
    fn local_scope_captures_and_folds() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        counter("global", 1);
        let ((), snap) = with_local(|| {
            counter("inner", 2);
            for _ in 0..3 {
                let _s = Span::enter("scoped");
            }
        });
        // Nothing from the scope leaked into the registry...
        assert!(snapshot().counters.contains_key("global"));
        assert!(!snapshot().counters.contains_key("inner"));
        assert!(snapshot().spans.is_empty());
        // ...until the caller folds it, additively.
        assert_eq!(snap.counters.get("inner"), Some(&2));
        assert_eq!(snap.spans.len(), 6);
        let local = snap.span_stats()["scoped"];
        fold(snap.clone());
        let once = snapshot().span_stats()["scoped"];
        fold(snap);
        let merged = snapshot();
        set_enabled(false);
        reset();
        assert_eq!(merged.counters.get("inner"), Some(&4));
        assert_eq!(merged.counters.get("global"), Some(&1));
        // Folded spans give the quantiles the scope recorded; folding
        // the same durations twice doubles count and total only.
        assert_eq!(once, local);
        let twice = merged.span_stats()["scoped"];
        assert_eq!((twice.count, twice.total_ns), (2 * local.count, 2 * local.total_ns));
        assert_eq!(
            (twice.p50_ns, twice.p90_ns, twice.p99_ns, twice.max_ns),
            (local.p50_ns, local.p90_ns, local.p99_ns, local.max_ns)
        );
    }

    #[test]
    fn local_scopes_nest_innermost_wins() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        let ((), outer) = with_local(|| {
            counter("outer", 1);
            let ((), inner) = with_local(|| counter("inner", 1));
            assert_eq!(inner.counters.get("inner"), Some(&1));
            assert!(!inner.counters.contains_key("outer"));
            // Folding inside an outer scope lands in the outer scope.
            fold(inner);
        });
        let empty = snapshot();
        set_enabled(false);
        reset();
        assert_eq!(outer.counters.get("outer"), Some(&1));
        assert_eq!(outer.counters.get("inner"), Some(&1));
        assert!(empty.counters.is_empty(), "nothing reached the global registry");
    }

    #[test]
    fn disabled_local_scope_is_empty() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        let ((), snap) = with_local(|| counter("x", 9));
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn snapshot_json_spans_carry_quantiles() {
        let j = spans_of("store.get", &[10, 40]).to_json();
        let Json::Obj(top) = &j else { panic!("snapshot JSON is an object") };
        assert_eq!(top.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), ["counters", "spans"]);
        let s = j.get("spans").and_then(|s| s.get("store.get")).expect("store.get span entry");
        let get = |k: &str| s.get(k).and_then(|v| v.as_u64());
        assert_eq!(get("total_ns"), Some(50));
        assert_eq!(get("count"), Some(2));
        assert_eq!(get("p50_ns"), Some(10));
        assert_eq!(get("p90_ns"), Some(40));
        assert_eq!(get("p99_ns"), Some(40));
        assert_eq!(get("max_ns"), Some(40));
    }

    #[test]
    fn disabled_paths_do_not_allocate() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        crate::trace::set_enabled(false);
        let before = crate::testalloc::allocations();
        for _ in 0..1000 {
            let _s = Span::enter("quiet");
            counter("c", 1);
        }
        let after = crate::testalloc::allocations();
        assert_eq!(after, before, "disabled instrumentation must not allocate");
    }
}
