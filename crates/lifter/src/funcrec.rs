//! Function recovery over the machine CFG (paper §5.1, Nucleus-style).
//!
//! Call targets seed function entries; jumps to known entries are tail
//! calls; remaining jump/branch/fallthrough edges are intra-procedural.
//! Blocks reachable from more entries than any of their predecessors are
//! promoted to entries (splitting shared tails), so every function has
//! exactly one entry — the representation the lifter needs for
//! function-local variables.

use crate::cfg::{BlockEnd, MachCfg};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use wyt_isa::DecodeLimits;

/// A recovered machine function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachFunc {
    /// Entry block address.
    pub entry: u32,
    /// All member block addresses (entry included).
    pub blocks: BTreeSet<u32>,
    /// Bytes popped by this function's `ret` instructions (must agree).
    pub ret_pop: u16,
    /// Jump-terminator addresses classified as tail calls, with targets.
    pub tail_calls: BTreeMap<u32, u32>,
}

/// Result of function recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncMap {
    /// Functions keyed by entry address.
    pub funcs: BTreeMap<u32, MachFunc>,
    /// Block address → owning function entry.
    pub owner: BTreeMap<u32, u32>,
}

/// A recovery failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuncRecError {
    /// A function mixes `ret n` with different pop counts.
    MixedRetPop(u32),
    /// A traced block is reachable from no entry.
    OrphanBlock(u32),
    /// A reachable block decoded to zero instructions (malformed trace).
    EmptyBlock(u32),
    /// Recovery produced more function entries than the decode limits
    /// allow (hostile input defense; see [`wyt_isa::DecodeLimits`]).
    TooManyFuncs {
        /// The configured ceiling.
        limit: usize,
    },
}

impl fmt::Display for FuncRecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuncRecError::MixedRetPop(e) => {
                write!(f, "function {e:#x} mixes ret immediates")
            }
            FuncRecError::OrphanBlock(b) => write!(f, "block {b:#x} unreachable from any entry"),
            FuncRecError::EmptyBlock(b) => write!(f, "block {b:#x} has no instructions"),
            FuncRecError::TooManyFuncs { limit } => {
                write!(f, "recovery exceeds decode limit: more than {limit} functions")
            }
        }
    }
}

impl std::error::Error for FuncRecError {}

/// Recover function boundaries under the default [`DecodeLimits`].
///
/// # Errors
/// Returns a [`FuncRecError`] on inconsistent frames or orphan blocks.
pub fn recover_functions(cfg: &MachCfg) -> Result<FuncMap, FuncRecError> {
    recover_functions_limited(cfg, &DecodeLimits::default())
}

/// Recover function boundaries, refusing to promote past
/// `limits.max_funcs` entries (hostile traces can otherwise seed an
/// entry per byte of text).
///
/// # Errors
/// Returns a [`FuncRecError`] on inconsistent frames, orphan blocks, or
/// limit exhaustion.
pub fn recover_functions_limited(
    cfg: &MachCfg,
    limits: &DecodeLimits,
) -> Result<FuncMap, FuncRecError> {
    let mut entries: BTreeSet<u32> = cfg.call_targets.clone();
    entries.insert(cfg.entry);

    loop {
        if entries.len() > limits.max_funcs {
            return Err(FuncRecError::TooManyFuncs { limit: limits.max_funcs });
        }
        // Membership count per block given current entries.
        let mut member_of: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for &e in &entries {
            for b in reach(cfg, e, &entries) {
                member_of.entry(b).or_default().insert(e);
            }
        }
        // Split rule: a block contained in more functions than any of its
        // intra-procedural predecessors becomes an entry.
        let mut preds: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (addr, b) in &cfg.blocks {
            for s in cfg.successors(b) {
                if !entries.contains(&s) {
                    preds.entry(s).or_default().push(*addr);
                }
            }
        }
        let mut new_entries = Vec::new();
        for (b, owners) in &member_of {
            if entries.contains(b) {
                continue;
            }
            let my = owners.len();
            let pred_max = preds
                .get(b)
                .map(|ps| {
                    ps.iter()
                        .map(|p| member_of.get(p).map(|s| s.len()).unwrap_or(0))
                        .max()
                        .unwrap_or(0)
                })
                .unwrap_or(0);
            if my > pred_max {
                new_entries.push(*b);
            }
        }
        if new_entries.is_empty() {
            break;
        }
        entries.extend(new_entries);
    }

    // Final assignment.
    let mut map = FuncMap::default();
    for &e in &entries {
        let blocks = reach(cfg, e, &entries);
        // Determine ret pop and tail calls.
        let mut ret_pop: Option<u16> = None;
        let mut tail_calls = BTreeMap::new();
        for &b in &blocks {
            // `reach` only returns decoded blocks, but a malformed trace
            // must degrade to a structured error, never a panic.
            let Some(blk) = cfg.blocks.get(&b) else {
                return Err(FuncRecError::OrphanBlock(b));
            };
            match &blk.end {
                BlockEnd::Ret(p) => match ret_pop {
                    None => ret_pop = Some(*p),
                    Some(prev) if prev != *p => return Err(FuncRecError::MixedRetPop(e)),
                    _ => {}
                },
                // Jumps to entries are tail calls (including tail
                // recursion, where the target is this entry).
                BlockEnd::Jmp(t) if entries.contains(t) => {
                    let Some(&(jaddr, _)) = blk.insts.last() else {
                        return Err(FuncRecError::EmptyBlock(b));
                    };
                    tail_calls.insert(jaddr, *t);
                }
                _ => {}
            }
        }
        for &b in &blocks {
            map.owner.insert(b, e);
        }
        map.funcs
            .insert(e, MachFunc { entry: e, blocks, ret_pop: ret_pop.unwrap_or(0), tail_calls });
    }

    for b in cfg.blocks.keys() {
        if !map.owner.contains_key(b) {
            return Err(FuncRecError::OrphanBlock(*b));
        }
    }
    Ok(map)
}

/// Blocks reachable from `entry` without crossing another entry (jumps to
/// entries are tail calls, not edges).
fn reach(cfg: &MachCfg, entry: u32, entries: &BTreeSet<u32>) -> BTreeSet<u32> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![entry];
    while let Some(b) = stack.pop() {
        // Only decoded blocks join the function: a truncated trace can
        // leave a jump whose target was never traced, and that target must
        // not become a phantom member (it traps at runtime instead).
        let Some(blk) = cfg.blocks.get(&b) else { continue };
        if !seen.insert(b) {
            continue;
        }
        for s in cfg.successors(blk) {
            // Jump edges to entries are tail calls; conditional and
            // fallthrough edges never target entries in compiler output.
            let is_tail =
                entries.contains(&s) && matches!(blk.end, BlockEnd::Jmp(_) | BlockEnd::JmpInd(_));
            if !is_tail && !seen.contains(&s) {
                stack.push(s);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use crate::trace::trace_image;
    use wyt_minicc::{compile, Profile};

    fn recover(
        src: &str,
        profile: &Profile,
        inputs: &[Vec<u8>],
    ) -> (FuncMap, wyt_isa::image::Image) {
        let img = compile(src, profile).unwrap();
        let (trace, results) = trace_image(&img, inputs);
        assert!(results.iter().all(|r| r.ok()));
        let cfg = build_cfg(&img, &trace).unwrap();
        (recover_functions(&cfg).unwrap(), img)
    }

    #[test]
    fn func_limit_is_a_typed_error() {
        let src = r#"
            int helper(int x) { return x * 3; }
            int main() { return helper(5); }
        "#;
        let img = compile(src, &Profile::gcc44_o3()).unwrap();
        let (trace, _) = trace_image(&img, &[vec![]]);
        let cfg = build_cfg(&img, &trace).unwrap();
        let tight = wyt_isa::DecodeLimits { max_funcs: 1, ..Default::default() };
        assert_eq!(
            recover_functions_limited(&cfg, &tight),
            Err(FuncRecError::TooManyFuncs { limit: 1 })
        );
    }

    #[test]
    fn finds_called_functions() {
        let src = r#"
            int helper(int x) { return x * 3; }
            int twice(int x) { return helper(x) + helper(x + 1); }
            int main() { return twice(5); }
        "#;
        let (map, img) = recover(src, &Profile::gcc44_o3(), &[vec![]]);
        for name in ["helper", "twice", "main"] {
            let addr = img.symbol(name).unwrap();
            assert!(map.funcs.contains_key(&addr), "{name} not recovered");
        }
        // No false entries beyond the three functions.
        assert_eq!(map.funcs.len(), 3);
    }

    #[test]
    fn blocks_owned_by_exactly_one_function() {
        let src = r#"
            int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
            int main() { return fib(8); }
        "#;
        let (map, _) = recover(src, &Profile::gcc44_o3(), &[vec![]]);
        let mut seen = BTreeSet::new();
        for f in map.funcs.values() {
            for b in &f.blocks {
                assert!(seen.insert(*b), "block {b:#x} in two functions");
            }
        }
    }

    #[test]
    fn tail_calls_identified() {
        // gcc12 O3 emits a tail call for `return count(...)`.
        let src = r#"
            int count(int n, int acc) {
                if (n == 0) return acc;
                return count(n - 1, acc + n);
            }
            int main() { return count(10, 0); }
        "#;
        let (map, img) = recover(src, &Profile::gcc12_o3(), &[vec![]]);
        let count_addr = img.symbol("count").unwrap();
        let f = &map.funcs[&count_addr];
        assert!(!f.tail_calls.is_empty(), "tail recursion should be classified as a tail call");
        assert!(f.tail_calls.values().all(|t| *t == count_addr));
    }

    #[test]
    fn cross_function_tail_call() {
        // `target` also has a regular call site, so it stays a function and
        // hop's jump to it is a tail call. The loop keeps `target` from
        // being inlined.
        let src = r#"
            int target(int a, int b) {
                int i;
                int acc = 0;
                for (i = 0; i < a; i++) acc += b;
                return acc;
            }
            int hop(int a, int b) { return target(a + 1, b); }
            int main() {
                int x = hop(5, 2);
                int y = target(1, 1);
                return x + y;
            }
        "#;
        let (map, img) = recover(src, &Profile::gcc12_o3(), &[vec![]]);
        let hop = img.symbol("hop").unwrap();
        let target = img.symbol("target").unwrap();
        assert!(map.funcs.contains_key(&target));
        let f = &map.funcs[&hop];
        assert!(f.tail_calls.values().any(|t| *t == target));
    }

    #[test]
    fn exclusively_tail_called_function_is_merged() {
        // Paper §5.1: a function reachable only through tail calls and with
        // no regular call sites is merged into its caller.
        let src = r#"
            int target(int a, int b) {
                int i;
                int acc = 0;
                for (i = 0; i < a; i++) acc += b;
                return acc;
            }
            int hop(int a, int b) { return target(a + 1, b); }
            int main() {
                int x = hop(5, 2);
                return x;
            }
        "#;
        let (map, img) = recover(src, &Profile::gcc12_o3(), &[vec![]]);
        let target = img.symbol("target").unwrap();
        assert!(
            !map.funcs.contains_key(&target),
            "exclusively tail-called function should be merged"
        );
        let hop = img.symbol("hop").unwrap();
        assert!(map.funcs[&hop].blocks.contains(&target));
    }
}
