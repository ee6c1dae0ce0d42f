//! Dynamic tracing: run the input binary on the emulator with a set of
//! user-provided inputs and merge the observed control transfers (paper
//! Fig. 4: trace → merge CFGs).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use wyt_emu::{call_arity, ExtId, Machine, Memory, RunResult, TraceSink, TransferKind};
use wyt_isa::image::Image;

/// Merged dynamic control-flow observations from one or more runs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Trace {
    /// All observed `(from, to, kind)` transfers.
    pub edges: BTreeSet<(u32, u32, TransferKind)>,
    /// External call sites by instruction address.
    pub ext_calls: BTreeMap<u32, ExtCall>,
}

/// One traced external call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtCall {
    /// Import-table index the instruction calls.
    pub import: u16,
    /// Most arguments any traced execution of the site read
    /// ([`wyt_emu::call_arity`]): the recovered signature of paper §5.2.
    /// Saturates at `u16::MAX`, which also bounds what a decoded trace
    /// can ask the vararg rewrite to emit per site.
    pub arity: u16,
}

impl ExtCall {
    /// Fold one more execution's arity into the site.
    fn observe(&mut self, arity: u16) {
        self.arity = self.arity.max(arity);
    }
}

/// What [`Trace::merge`] added: how many of the other trace's edges and
/// external-call bindings were new to this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeDelta {
    /// Edges not previously present.
    pub new_edges: usize,
    /// External-call sites not previously bound.
    pub new_ext_calls: usize,
}

impl Trace {
    /// All observed targets of the transfer instruction at `from` with a
    /// kind accepted by `pred`.
    ///
    /// The edge set is ordered by `(from, to, kind)`, so this is a range
    /// scan over just the `from` prefix — not a walk of the whole set.
    /// The `lift.trace.query_visited` counter records how many entries
    /// each query actually touched (the old full-scan cost would have
    /// been `edges.len()` per query).
    pub fn targets_from(&self, from: u32, pred: impl Fn(TransferKind) -> bool) -> Vec<u32> {
        let mut visited = 0u64;
        let targets = self
            .edges
            .range((from, u32::MIN, TransferKind::MIN)..=(from, u32::MAX, TransferKind::MAX))
            .inspect(|_| visited += 1)
            .filter(|(_, _, k)| pred(*k))
            .map(|(_, t, _)| *t)
            .collect();
        wyt_obs::counter("lift.trace.queries", 1);
        wyt_obs::counter("lift.trace.query_visited", visited);
        targets
    }

    /// Addresses that were entered by a (direct or indirect) call.
    pub fn call_targets(&self) -> BTreeSet<u32> {
        self.edges.iter().filter(|(_, _, k)| k.is_call()).map(|(_, t, _)| *t).collect()
    }

    /// All transfer-target addresses (block-start candidates).
    pub fn all_targets(&self) -> BTreeSet<u32> {
        self.edges.iter().map(|(_, t, _)| *t).collect()
    }

    /// Fold another trace's observations into this one (the incremental
    /// merge step of the healing loop). Returns how many of `other`'s
    /// edges and ext-call bindings were new. A site both traces saw keeps
    /// the larger arity.
    ///
    /// A site that is already bound must rebind to the same import: the
    /// instruction at a pc calls whatever import its bytes name, so a
    /// same-pc different-import merge is trace corruption and trips a
    /// debug assertion instead of being silently masked.
    pub fn merge(&mut self, other: &Trace) -> MergeDelta {
        let before = self.edges.len();
        self.edges.extend(other.edges.iter().copied());
        let mut new_ext_calls = 0;
        for (pc, call) in &other.ext_calls {
            match self.ext_calls.entry(*pc) {
                Entry::Vacant(v) => {
                    v.insert(*call);
                    new_ext_calls += 1;
                }
                Entry::Occupied(mut o) => {
                    debug_assert_eq!(
                        o.get().import,
                        call.import,
                        "ext call at {pc:#x} rebound from import {} to {}",
                        o.get().import,
                        call.import
                    );
                    o.get_mut().observe(call.arity);
                }
            }
        }
        MergeDelta { new_edges: self.edges.len() - before, new_ext_calls }
    }
}

/// Ring size of [`EdgeCache`]: big enough to hold the edge working set
/// of a nested hot loop, small enough that the linear probe stays in one
/// cache line's worth of entries.
const CACHE_EDGES: usize = 16;

/// A last-N cache of `(from, to, kind)` transfer records. Every hot loop
/// replays the same few control transfers millions of times, and the
/// set-backed [`Trace`] pays a tree probe for each replay; an edge seen
/// in the last N transfers is guaranteed to already be in the set, so the
/// recorder can skip re-inserting it. The set never needs invalidation —
/// a hit only ever suppresses a redundant insert.
struct EdgeCache {
    ring: [(u32, u32, TransferKind); CACHE_EDGES],
    len: usize,
    cursor: usize,
    hits: u64,
}

impl Default for EdgeCache {
    fn default() -> EdgeCache {
        EdgeCache { ring: [(0, 0, TransferKind::Jump); CACHE_EDGES], len: 0, cursor: 0, hits: 0 }
    }
}

impl EdgeCache {
    /// Note one transfer. Returns `true` when the edge was *not* among
    /// the last N seen — the caller must record it; `false` means it was
    /// recorded moments ago and the (set-semantics) store already has it.
    fn note(&mut self, from: u32, to: u32, kind: TransferKind) -> bool {
        let e = (from, to, kind);
        if self.ring[..self.len].contains(&e) {
            self.hits += 1;
            return false;
        }
        self.ring[self.cursor] = e;
        self.cursor = (self.cursor + 1) % CACHE_EDGES;
        self.len = (self.len + 1).min(CACHE_EDGES);
        true
    }
}

/// The tracing sink: records straight into a [`Trace`], with a last-N
/// [`EdgeCache`] in front so steady-state hot loops skip the tree probe.
/// Suppressed edges are by definition already in the set, so the
/// resulting trace is identical with or without the cache.
struct Recorder<'t> {
    trace: &'t mut Trace,
    cache: EdgeCache,
}

impl TraceSink for Recorder<'_> {
    fn transfer(&mut self, from: u32, to: u32, kind: TransferKind) {
        if self.cache.note(from, to, kind) {
            self.trace.edges.insert((from, to, kind));
        }
    }

    fn ext_call(&mut self, pc: u32, idx: u16, ext: ExtId, esp: u32, mem: &Memory) {
        // The emulator's externals read at most 16 argument words (later
        // ones read as zero), so saturating changes no machine behaviour.
        let arity = u16::try_from(call_arity(ext, mem, esp)).unwrap_or(u16::MAX);
        self.trace.ext_calls.entry(pc).or_insert(ExtCall { import: idx, arity: 0 }).observe(arity);
    }
}

/// Run `img` once per input, merging all traces. Returns the merged trace
/// and the per-input run results (used to validate recompiled binaries
/// against the original, as the paper does with the ref datasets).
pub fn trace_image(img: &Image, inputs: &[Vec<u8>]) -> (Trace, Vec<RunResult>) {
    let mut trace = Trace::default();
    let mut results = Vec::new();
    let mut dedup_hits = 0;
    for input in inputs {
        let mut m = Machine::new(img, input.clone());
        let mut rec = Recorder { trace: &mut trace, cache: EdgeCache::default() };
        let r = m.run_with(&mut rec);
        dedup_hits += rec.cache.hits;
        results.push(r);
    }
    wyt_obs::counter("lift.trace.dedup_hits", dedup_hits);
    (trace, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_minicc::{compile, Profile};

    #[test]
    fn merged_traces_cover_both_paths() {
        let src = r#"
            int f(int x) { if (x > 5) return 1; return 2; }
            int main() {
                int c = getchar();
                return f(c);
            }
        "#;
        let img = compile(src, &Profile::gcc44_o3()).unwrap();
        let (one_path, _) = trace_image(&img, &[b"\x01".to_vec()]);
        let (both_paths, results) = trace_image(&img, &[b"\x01".to_vec(), b"Z".to_vec()]);
        assert!(results.iter().all(|r| r.ok()));
        assert!(both_paths.edges.len() > one_path.edges.len());
        assert!(!both_paths.call_targets().is_empty());
        assert!(!both_paths.ext_calls.is_empty());
    }

    #[test]
    fn indirect_call_targets_recorded() {
        let src = r#"
            int a() { return 1; }
            int b() { return 2; }
            int main() {
                int t = getchar() == 'a' ? (int)&a : (int)&b;
                return __icall(t);
            }
        "#;
        let img = compile(src, &Profile::gcc12_o3()).unwrap();
        let (t, _) = trace_image(&img, &[b"a".to_vec(), b"b".to_vec()]);
        let a_addr = img.symbol("a").unwrap();
        let b_addr = img.symbol("b").unwrap();
        let calls = t.call_targets();
        assert!(calls.contains(&a_addr) && calls.contains(&b_addr));
    }

    /// The edge cache only suppresses inserts that would have been
    /// set-level no-ops: the trace a cached recorder produces is
    /// byte-identical to one recorded edge by edge with no cache.
    #[test]
    fn edge_cache_leaves_the_trace_unchanged() {
        struct Plain<'t>(&'t mut Trace);
        impl TraceSink for Plain<'_> {
            fn transfer(&mut self, from: u32, to: u32, kind: TransferKind) {
                self.0.edges.insert((from, to, kind));
            }
            fn ext_call(&mut self, pc: u32, idx: u16, ext: ExtId, esp: u32, mem: &Memory) {
                let arity = u16::try_from(call_arity(ext, mem, esp)).unwrap_or(u16::MAX);
                self.0.ext_calls.entry(pc).or_insert(ExtCall { import: idx, arity }).observe(arity);
            }
        }
        let src = r#"
            int main() {
                int i;
                int acc = 0;
                for (i = 0; i < 200; i++) acc += i & 7;
                printf("%d\n", acc);
                return 0;
            }
        "#;
        for profile in [Profile::gcc12_o3(), Profile::gcc44_o3()] {
            let img = compile(src, &profile).unwrap();
            let (cached, _) = trace_image(&img, &[vec![]]);
            let mut plain = Trace::default();
            let r = Machine::new(&img, vec![]).run_with(&mut Plain(&mut plain));
            assert!(r.ok());
            assert_eq!(cached, plain, "cache must not change the merged trace");
        }
        // And the cache actually fires on the hot loop.
        let img = compile(src, &Profile::gcc12_o3()).unwrap();
        let mut trace = Trace::default();
        let mut rec = Recorder { trace: &mut trace, cache: EdgeCache::default() };
        assert!(Machine::new(&img, vec![]).run_with(&mut rec).ok());
        assert!(rec.cache.hits > 100, "hot loop should hit the cache");
    }

    #[test]
    fn edge_cache_repeats_hit_and_fresh_edges_miss() {
        let mut c = EdgeCache::default();
        assert!(c.note(10, 20, TransferKind::Jump));
        assert!(!c.note(10, 20, TransferKind::Jump));
        assert!(c.note(10, 20, TransferKind::Call), "kind is part of the key");
        assert!(c.note(10, 24, TransferKind::Jump), "target is part of the key");
        assert_eq!(c.hits, 1);
    }

    #[test]
    fn edge_cache_evicts_after_capacity_distinct_edges() {
        let mut c = EdgeCache::default();
        assert!(c.note(0, 1, TransferKind::Jump));
        for i in 1..=CACHE_EDGES as u32 {
            assert!(c.note(i, i + 1, TransferKind::Jump));
        }
        // The first edge was evicted; re-noting it is a miss again.
        assert!(c.note(0, 1, TransferKind::Jump));
        assert_eq!(c.hits, 0);
    }

    #[test]
    fn edge_cache_keeps_hot_loop_working_set() {
        let mut c = EdgeCache::default();
        let loop_edges = [
            (100, 120, TransferKind::CondTaken),
            (130, 100, TransferKind::Jump),
            (120, 130, TransferKind::CondFall),
        ];
        let mut inserts = 0;
        for _ in 0..1000 {
            for &(f, t, k) in &loop_edges {
                if c.note(f, t, k) {
                    inserts += 1;
                }
            }
        }
        assert_eq!(inserts, loop_edges.len(), "steady state skips the store");
        assert_eq!(c.hits, 999 * loop_edges.len() as u64);
    }

    /// An input whose run traps (divide by zero on input "A") still
    /// contributes its transfers, the lift completes, and the trap lands
    /// in that input's `baseline_runs` slot while the other input exits
    /// cleanly in its own.
    #[test]
    fn trapping_input_still_lifts_with_trap_in_its_baseline_slot() {
        let src = r#"
            int main() {
                int c = getchar();
                int i;
                int acc = 0;
                for (i = 0; i < 40; i++) acc += i * c;
                return acc / (c - 65);
            }
        "#;
        let img = compile(src, &Profile::gcc12_o3()).unwrap().stripped();
        let inputs = vec![b"A".to_vec(), b"B".to_vec()];
        let (alone, _) = trace_image(&img, &inputs[..1]);
        let lifted = crate::lift_image(&img, &inputs).expect("a trapping input must still lift");
        assert_eq!(lifted.baseline_runs.len(), 2);
        assert!(
            lifted.baseline_runs[0].trap.is_some(),
            "input A must trap (got {:?})",
            lifted.baseline_runs[0]
        );
        assert!(lifted.baseline_runs[1].ok(), "input B must exit cleanly");
        assert!(!alone.edges.is_empty() && alone.edges.is_subset(&lifted.trace.edges));
    }

    /// The range-bounded `targets_from` visits only the queried `from`
    /// prefix of the edge set, not the whole set.
    #[test]
    fn targets_from_is_a_range_scan() {
        let mut t = Trace::default();
        for from in 0..64u32 {
            for to in 0..4u32 {
                t.edges.insert((from * 16, 1000 + to, TransferKind::IndJump));
            }
        }
        let ((), snap) = wyt_obs::with_local(|| {
            wyt_obs::set_enabled(true);
            let ts = t.targets_from(16, |k| k == TransferKind::IndJump);
            wyt_obs::set_enabled(false);
            assert_eq!(ts, vec![1000, 1001, 1002, 1003]);
        });
        let visited = snap.counters.get("lift.trace.query_visited").copied().unwrap_or(0);
        assert_eq!(visited, 4, "query must touch only its own prefix");
        assert!((visited as usize) < t.edges.len());
    }

    fn site(import: u16, arity: u16) -> ExtCall {
        ExtCall { import, arity }
    }

    #[test]
    fn merge_reports_edge_and_ext_call_deltas() {
        let mut a = Trace::default();
        a.edges.insert((1, 2, TransferKind::Jump));
        a.ext_calls.insert(10, site(0, 1));
        let mut b = Trace::default();
        b.edges.insert((1, 2, TransferKind::Jump));
        b.edges.insert((3, 4, TransferKind::Call));
        b.ext_calls.insert(10, site(0, 1));
        b.ext_calls.insert(20, site(1, 2));
        let d = a.merge(&b);
        assert_eq!(d, MergeDelta { new_edges: 1, new_ext_calls: 1 });
        assert_eq!(a.ext_calls.len(), 2);
        // Merging again adds nothing.
        let d2 = a.merge(&b);
        assert_eq!(d2, MergeDelta { new_edges: 0, new_ext_calls: 0 });
    }

    /// A site both traces saw keeps the wider arity, in either merge
    /// order, without counting as a new binding.
    #[test]
    fn merge_keeps_the_max_arity_per_site() {
        let narrow = Trace { ext_calls: [(10, site(0, 2))].into(), ..Trace::default() };
        let wide = Trace { ext_calls: [(10, site(0, 4))].into(), ..Trace::default() };
        for (mut into, from) in [(narrow.clone(), &wide), (wide.clone(), &narrow)] {
            let d = into.merge(from);
            assert_eq!(d.new_ext_calls, 0);
            assert_eq!(into.ext_calls[&10], site(0, 4));
        }
    }

    #[test]
    #[should_panic(expected = "rebound")]
    #[cfg(debug_assertions)]
    fn merge_rejects_rebound_ext_call() {
        let mut a = Trace::default();
        a.ext_calls.insert(10, site(0, 1));
        let mut b = Trace::default();
        b.ext_calls.insert(10, site(3, 1));
        let _ = a.merge(&b);
    }
}
