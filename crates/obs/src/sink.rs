//! The process-global sink: one state word, one registry of counters,
//! span events and latency histograms.
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
//! [`Snapshot::spans`]. Per-name totals ([`Snapshot::span_totals`]) and
//! the Chrome export ([`crate::trace::to_chrome_json`]) are both
//! computed from that list.

use crate::hist::Hist;
use crate::span::mono_ns;
use crate::trace::{Phase, TraceEvent};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// State bit: the counter/span/histogram sink is collecting.
pub(crate) const SINK_ON: u32 = 1;
/// State bit: span events are collecting, without counters or
/// histograms ([`crate::trace`]).
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
    hists: BTreeMap<String, Hist>,
}

impl Registry {
    const fn empty() -> Registry {
        Registry { counters: BTreeMap::new(), spans: Vec::new(), hists: BTreeMap::new() }
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry::empty());

thread_local! {
    /// Innermost local observation scope on this thread, if any. When
    /// installed, counters, span events and histogram samples land here
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

/// Record a latency sample into the named log-bucketed histogram
/// (no-op when disabled).
#[inline]
pub fn record_hist(name: &str, ns: u64) {
    if !enabled() {
        return;
    }
    let local = LOCAL.with(|l| {
        if let Some(reg) = l.borrow_mut().as_mut() {
            reg.hists.entry(name.to_string()).or_default().record(ns);
            true
        } else {
            false
        }
    });
    if !local {
        crate::lock_ok(&REGISTRY).hists.entry(name.to_string()).or_default().record(ns);
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
/// every counter, span event and histogram sample it records is
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
    (r, Snapshot { counters: mine.counters, spans: mine.spans, hists: mine.hists })
}

/// Merge a snapshot captured by [`with_local`] into the current sink:
/// the innermost local scope if one is installed on this thread,
/// otherwise the global registry. Counter values add, histograms merge
/// bucket-exactly; span events append in the snapshot's order. No-op
/// when nothing is being collected.
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

fn merge(reg: &mut Registry, Snapshot { counters, spans, hists }: Snapshot) {
    for (k, v) in counters {
        *reg.counters.entry(k).or_insert(0) += v;
    }
    reg.spans.extend(spans);
    for (k, h) in hists {
        reg.hists.entry(k).or_default().merge(&h);
    }
}

/// A copy of everything the sink has collected.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals, ordered by name.
    pub counters: BTreeMap<String, u64>,
    /// Span begin/end events in record order (folded scopes in fold
    /// order).
    pub spans: Vec<TraceEvent>,
    /// Latency histograms, ordered by name.
    pub hists: BTreeMap<String, Hist>,
}

impl Snapshot {
    /// Aggregate completed spans by name: `name → (total ns, count)`,
    /// ordered by name. Each end event closes the innermost open begin
    /// on its track; a span still open at snapshot time is not counted.
    pub fn span_totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut open: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for ev in &self.spans {
            let stack = open.entry(ev.track).or_default();
            match ev.phase {
                Phase::Begin => stack.push(ev.ts_ns),
                Phase::End => {
                    if let Some(start) = stack.pop() {
                        let e = out.entry(ev.name).or_insert((0, 0));
                        e.0 += ev.ts_ns.saturating_sub(start);
                        e.1 += 1;
                    }
                }
            }
        }
        out
    }

    /// Render counters, aggregated spans and histograms as a JSON
    /// object (the span events themselves export through
    /// [`crate::trace::to_chrome_json`]).
    pub fn to_json(&self) -> crate::Json {
        use crate::Json;
        let counters =
            self.counters.iter().map(|(k, &v)| (k.clone(), Json::from(v))).collect::<Vec<_>>();
        let spans = self
            .span_totals()
            .into_iter()
            .map(|(name, (ns, n))| {
                (
                    name.to_string(),
                    Json::obj(vec![("total_ns", Json::from(ns)), ("count", Json::from(n))]),
                )
            })
            .collect::<Vec<_>>();
        let hists = self.hists.iter().map(|(k, h)| (k.clone(), h.to_json())).collect::<Vec<_>>();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("spans".into(), Json::Obj(spans)),
            ("hists".into(), Json::Obj(hists)),
        ])
    }
}

/// Copy out the current registry contents.
pub fn snapshot() -> Snapshot {
    let reg = crate::lock_ok(&REGISTRY);
    Snapshot { counters: reg.counters.clone(), spans: reg.spans.clone(), hists: reg.hists.clone() }
}

/// Clear the registry (the state word is untouched).
pub fn reset() {
    let mut reg = crate::lock_ok(&REGISTRY);
    reg.counters.clear();
    reg.spans.clear();
    reg.hists.clear();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Span;

    /// The whole suite shares the process-global sink, so
    /// every test module that pokes them serializes on this lock.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_sink_records_nothing() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        counter("x", 5);
        record_hist("h", 7);
        {
            let _s = Span::enter("quiet");
        }
        let snap = snapshot();
        assert!(snap.counters.is_empty(), "disabled counter must not accumulate");
        assert!(snap.spans.is_empty(), "disabled span must not record");
        assert!(snap.hists.is_empty(), "disabled histogram must not record");
    }

    #[test]
    fn enabled_sink_accumulates_and_resets() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        counter("a", 2);
        counter("a", 3);
        counter("b", 1);
        record_hist("lat", 100);
        record_hist("lat", 200);
        {
            let _outer = Span::enter("outer");
            let _inner = Span::enter("inner");
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counters.get("a"), Some(&5));
        assert_eq!(snap.counters.get("b"), Some(&1));
        assert_eq!(snap.hists.get("lat").map(crate::Hist::count), Some(2));
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
        let totals = snap.span_totals();
        assert_eq!(totals.get("outer").map(|t| t.1), Some(1));
        assert_eq!(totals.get("inner").map(|t| t.1), Some(1));
        assert!(totals["outer"].0 >= totals["inner"].0, "outer encloses inner");
        reset();
        assert!(snapshot().counters.is_empty());
        assert!(snapshot().hists.is_empty());
    }

    #[test]
    fn local_scope_captures_and_folds() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        counter("global", 1);
        let ((), snap) = with_local(|| {
            counter("inner", 2);
            record_hist("lat", 50);
            let _s = Span::enter("scoped");
        });
        // Nothing from the scope leaked into the registry...
        assert!(snapshot().counters.contains_key("global"));
        assert!(!snapshot().counters.contains_key("inner"));
        assert!(snapshot().spans.is_empty());
        assert!(snapshot().hists.is_empty());
        // ...until the caller folds it, additively.
        assert_eq!(snap.counters.get("inner"), Some(&2));
        assert_eq!(snap.spans.len(), 2);
        fold(snap.clone());
        fold(snap);
        let merged = snapshot();
        set_enabled(false);
        reset();
        assert_eq!(merged.counters.get("inner"), Some(&4));
        assert_eq!(merged.counters.get("global"), Some(&1));
        assert_eq!(merged.span_totals().get("scoped").map(|t| t.1), Some(2));
        assert_eq!(merged.hists.get("lat").map(crate::Hist::count), Some(2));
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
    fn snapshot_json_has_hists_section() {
        let _l = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        record_hist("store.lookup", 1234);
        let j = snapshot().to_json();
        set_enabled(false);
        reset();
        let hists = j.get("hists").expect("hists key");
        assert!(hists.get("store.lookup").and_then(|h| h.get("count")).is_some());
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
            record_hist("h", 1);
        }
        let after = crate::testalloc::allocations();
        assert_eq!(after, before, "disabled instrumentation must not allocate");
    }
}
