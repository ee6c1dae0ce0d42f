//! The span timeline: every [`crate::Span`] writes a begin/end event
//! pair into the sink's one span list ([`crate::Snapshot::spans`]), and
//! this module exports that list as Chrome trace-event JSON.
//!
//! There is no second collector. The `TRACE_ON` bit of the sink's state
//! word ([`set_enabled`]) turns on span events without counters, so a
//! trace export does not pay for the sink; with the sink on, spans are
//! recorded anyway. Spans recorded inside a
//! [`crate::with_local`] scope — which is how `wyt-par` wraps every
//! task — are folded back in task-index order, so the list is the same
//! for a serial run and a `WYT_PAR=4` run.
//!
//! Two export modes ([`to_chrome_json`]):
//!
//! - wall-clock: real `ts` microseconds, one Chrome track per recorded
//!   track id (`wyt-par` workers claim their worker index via
//!   [`track_guard`]), with `thread_name` metadata per track;
//! - deterministic: logical ticks — `ts` is the event's index in the
//!   list, every event on track 0 — so two runs with identical span
//!   lists export byte-identical JSON.

use crate::json::Json;
use crate::sink;
use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// Environment variable naming the Chrome-trace output path.
pub const ENV: &str = "WYT_OBS_TRACE";

/// Event kind, mapping onto Chrome trace-event phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"ph": "B"`).
    Begin,
    /// Span end (`"ph": "E"`).
    End,
}

impl Phase {
    fn ph(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
        }
    }
}

/// One span event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name as passed to [`crate::Span::enter`].
    pub name: &'static str,
    /// Begin or end.
    pub phase: Phase,
    /// Nanoseconds since the process epoch at record time.
    pub ts_ns: u64,
    /// Track id: the first thread to record gets 0, `wyt-par` workers
    /// use their worker index, other threads get fresh ids.
    pub track: u32,
}

static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TRACK: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Turn span events on or off independently of the sink.
pub fn set_enabled(on: bool) {
    sink::set_state_bit(sink::TRACE_ON, on);
}

/// The calling thread's track id, assigning a fresh one on first use.
pub(crate) fn current_track() -> u32 {
    TRACK.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// Pin the calling thread to track `id` until the guard drops,
/// restoring the previous assignment. `wyt-par` workers use this so the
/// wall-clock export gets one Chrome track per worker index.
pub fn track_guard(id: u32) -> TrackGuard {
    TrackGuard { prev: TRACK.with(|t| t.replace(Some(id))) }
}

/// RAII restore for [`track_guard`].
pub struct TrackGuard {
    prev: Option<u32>,
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        TRACK.with(|t| t.set(self.prev));
    }
}

fn track_name(track: u32) -> String {
    if track == 0 {
        "main".to_string()
    } else {
        format!("worker-{track}")
    }
}

/// Render span events as a Chrome trace-event JSON object
/// (`chrome://tracing` / Perfetto compatible).
///
/// Wall-clock mode groups events by track (one Chrome `tid` per track,
/// named via `thread_name` metadata), stable-sorting each track by
/// timestamp so per-track `ts` is monotone. Deterministic mode keeps
/// the list order, substitutes the list index for `ts`, puts everything
/// on track 0 and emits no metadata — byte-identical across runs with
/// identical span lists.
pub fn to_chrome_json(events: &[TraceEvent], deterministic: bool) -> Json {
    let mut out: Vec<Json> = Vec::new();
    if deterministic {
        for (i, ev) in events.iter().enumerate() {
            out.push(event_json(ev.name, ev.phase, Json::from(i as u64), 0));
        }
    } else {
        let mut tracks: Vec<u32> = events.iter().map(|e| e.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for &t in &tracks {
            out.push(Json::obj(vec![
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(u64::from(t))),
                ("args", Json::obj(vec![("name", Json::from(track_name(t).as_str()))])),
            ]));
        }
        for &t in &tracks {
            let mut evs: Vec<&TraceEvent> = events.iter().filter(|e| e.track == t).collect();
            evs.sort_by_key(|e| e.ts_ns);
            for ev in evs {
                out.push(event_json(ev.name, ev.phase, Json::from(ev.ts_ns as f64 / 1e3), t));
            }
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::from("ms")),
        ("otherData", Json::obj(vec![("deterministic", Json::Bool(deterministic))])),
    ])
}

fn event_json(name: &str, phase: Phase, ts: Json, track: u32) -> Json {
    Json::obj(vec![
        ("name", Json::from(name)),
        ("ph", Json::from(phase.ph())),
        ("ts", ts),
        ("pid", Json::from(0u64)),
        ("tid", Json::from(u64::from(track))),
    ])
}

/// Write the sink's span list to `path` as wall-clock Chrome trace JSON
/// (pretty-printed, newline-terminated).
///
/// # Errors
///
/// Propagates the underlying filesystem write error.
pub fn write_chrome(path: &Path) -> io::Result<()> {
    let j = to_chrome_json(&crate::snapshot().spans, false);
    std::fs::write(path, format!("{}\n", j.pretty()))
}

/// Read `WYT_OBS_TRACE`, turn span events on when a path is set, and
/// return that path.
pub fn init_from_env() -> Option<PathBuf> {
    let path = std::env::var_os(ENV).map(PathBuf::from)?;
    set_enabled(true);
    Some(path)
}

/// [`init_from_env`] wrapped in a guard that writes the trace on drop —
/// report binaries install one at the top of `main` so the export
/// happens however they exit. Inert when `WYT_OBS_TRACE` is unset.
pub fn flush_guard_from_env() -> FlushGuard {
    FlushGuard { path: init_from_env() }
}

/// See [`flush_guard_from_env`].
pub struct FlushGuard {
    path: Option<PathBuf>,
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else { return };
        match write_chrome(&path) {
            Ok(()) => eprintln!("wyt-obs: trace written to {}", path.display()),
            Err(e) => eprintln!("wyt-obs: trace write to {} failed: {e}", path.display()),
        }
    }
}

/// Summary statistics from [`validate_chrome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeStats {
    /// Non-metadata events.
    pub events: usize,
    /// Distinct `tid` values.
    pub tracks: usize,
    /// Deepest begin/end nesting seen on any track.
    pub max_depth: usize,
}

/// Validate a parsed Chrome trace JSON object: `traceEvents` must be an
/// array of well-formed events, per-track timestamps must be monotone
/// non-decreasing, and begin/end events must nest (every `E` matches
/// the innermost open `B` of the same name on its track).
///
/// # Errors
///
/// Returns a description of the first malformation found.
pub fn validate_chrome(j: &Json) -> Result<ChromeStats, String> {
    let events = match j.get("traceEvents") {
        Some(Json::Arr(evs)) => evs,
        _ => return Err("missing traceEvents array".to_string()),
    };
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> =
        std::collections::BTreeMap::new();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut count = 0usize;
    let mut max_depth = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let name = match ev.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(format!("event {i}: missing name")),
        };
        let ph = match ev.get("ph") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(format!("event {i}: missing ph")),
        };
        let tid = match ev.get("tid") {
            Some(Json::Num(n)) => *n as u64,
            _ => return Err(format!("event {i}: missing tid")),
        };
        if ph == "M" {
            continue;
        }
        let ts = match ev.get("ts") {
            Some(Json::Num(n)) => *n,
            _ => return Err(format!("event {i}: missing ts")),
        };
        count += 1;
        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!("event {i} ({name}): ts {ts} < {prev} on track {tid}"));
            }
        }
        last_ts.insert(tid, ts);
        let stack = stacks.entry(tid).or_default();
        match ph.as_str() {
            "B" => {
                stack.push(name);
                max_depth = max_depth.max(stack.len());
            }
            "E" => match stack.pop() {
                Some(open) if open == name => {}
                Some(open) => {
                    return Err(format!(
                        "event {i}: end of {name} but innermost open span is {open} (track {tid})"
                    ));
                }
                None => {
                    return Err(format!(
                        "event {i}: end of {name} with no open span (track {tid})"
                    ));
                }
            },
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("track {tid}: span {open} never ended"));
        }
    }
    Ok(ChromeStats { events: count, tracks: last_ts.len(), max_depth })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::tests::TEST_LOCK;
    use crate::Span;

    fn clean() {
        crate::set_enabled(false);
        set_enabled(false);
        crate::reset();
    }

    /// Record spans with only the trace bit on; return the span list.
    fn traced(f: impl FnOnce()) -> Vec<TraceEvent> {
        clean();
        set_enabled(true);
        f();
        let evs = crate::snapshot().spans;
        clean();
        evs
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = TEST_LOCK.lock().unwrap();
        clean();
        {
            let _s = Span::enter("quiet");
        }
        assert!(crate::snapshot().spans.is_empty());
    }

    #[test]
    fn span_emits_begin_and_end_without_the_sink() {
        let _l = TEST_LOCK.lock().unwrap();
        let evs = traced(|| {
            let _outer = Span::enter("outer");
            let _inner = Span::enter("inner");
        });
        let got: Vec<_> = evs.iter().map(|e| (e.name, e.phase)).collect();
        assert_eq!(
            got,
            [
                ("outer", Phase::Begin),
                ("inner", Phase::Begin),
                ("inner", Phase::End),
                ("outer", Phase::End)
            ]
        );
        assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn trace_bit_records_spans_but_no_counters() {
        let _l = TEST_LOCK.lock().unwrap();
        clean();
        set_enabled(true);
        crate::counter("c", 1);
        let ((), snap) = crate::with_local(|| {
            let _s = Span::enter("scoped");
            crate::counter("c", 1);
        });
        assert!(crate::snapshot().spans.is_empty(), "scoped spans stay out until folded");
        crate::fold(snap);
        let snap = crate::snapshot();
        clean();
        assert_eq!(snap.spans.len(), 2);
        assert!(snap.counters.is_empty());
    }

    /// Far more nested spans than any fixed-size buffer would hold: the
    /// export stays balanced because nothing is ever dropped.
    #[test]
    fn many_nested_spans_export_balanced() {
        let _l = TEST_LOCK.lock().unwrap();
        let evs = traced(|| {
            let _outer = Span::enter("outer");
            for _ in 0..40_000 {
                let _inner = Span::enter("inner");
            }
        });
        assert_eq!(evs.len(), 80_002);
        for det in [false, true] {
            let stats = validate_chrome(&to_chrome_json(&evs, det)).expect("export validates");
            assert_eq!(stats.max_depth, 2);
        }
    }

    #[test]
    fn deterministic_export_uses_logical_ticks() {
        let _l = TEST_LOCK.lock().unwrap();
        let evs = traced(|| {
            let _a = Span::enter("a");
        });
        let j = to_chrome_json(&evs, true);
        let arr = match j.get("traceEvents") {
            Some(Json::Arr(a)) => a,
            _ => panic!("no traceEvents"),
        };
        assert_eq!(arr.len(), 2);
        for (i, ev) in arr.iter().enumerate() {
            assert_eq!(ev.get("ts"), Some(&Json::Num(i as f64)), "logical tick");
            assert_eq!(ev.get("tid"), Some(&Json::Num(0.0)), "single track");
        }
        validate_chrome(&j).expect("deterministic export validates");
    }

    #[test]
    fn wall_clock_export_validates_with_metadata() {
        let _l = TEST_LOCK.lock().unwrap();
        let evs = traced(|| {
            let _g = Span::enter("outer");
            let _h = Span::enter("inner");
        });
        let j = to_chrome_json(&evs, false);
        let stats = validate_chrome(&j).expect("wall-clock export validates");
        assert_eq!(stats.events, 4);
        assert_eq!(stats.max_depth, 2);
    }

    #[test]
    fn validate_chrome_rejects_bad_nesting_and_backwards_time() {
        let bad_nest = Json::obj(vec![(
            "traceEvents",
            Json::Arr(vec![
                event_json("a", Phase::Begin, Json::from(0u64), 0),
                event_json("b", Phase::End, Json::from(1u64), 0),
            ]),
        )]);
        assert!(validate_chrome(&bad_nest).is_err());
        let orphan_end = Json::obj(vec![(
            "traceEvents",
            Json::Arr(vec![event_json("a", Phase::End, Json::from(0u64), 0)]),
        )]);
        assert!(validate_chrome(&orphan_end).is_err());
        let backwards = Json::obj(vec![(
            "traceEvents",
            Json::Arr(vec![
                event_json("m", Phase::Begin, Json::from(5u64), 0),
                event_json("m", Phase::End, Json::from(1u64), 0),
            ]),
        )]);
        assert!(validate_chrome(&backwards).is_err());
        assert!(validate_chrome(&Json::obj(vec![])).is_err());
    }
}
