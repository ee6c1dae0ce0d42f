//! Machine-level CFG reconstruction from the merged trace.
//!
//! Block starts are the program entry plus every observed transfer target;
//! blocks extend linearly until a terminator or until they run into another
//! block start (implicit fallthrough edge). Only traced territory becomes
//! blocks — "what you trace is what you get".

use crate::trace::Trace;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use wyt_emu::TransferKind;
use wyt_isa::image::Image;
use wyt_isa::{DecodeLimits, Inst};

/// How one machine block ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockEnd {
    /// `jmp target` (target may be a tail call; classified later).
    Jmp(u32),
    /// Conditional branch: taken target and fallthrough address, each
    /// `Some` only if that edge was traced.
    Jcc {
        /// Taken target, if observed.
        taken: Option<u32>,
        /// Fallthrough address, if observed.
        fall: Option<u32>,
        /// Taken target address even if untraced (for trap generation).
        taken_addr: u32,
        /// Fallthrough address even if untraced.
        fall_addr: u32,
    },
    /// Indirect jump with the observed target set.
    JmpInd(Vec<u32>),
    /// Return.
    Ret(u16),
    /// `halt`.
    Halt,
    /// Explicit trap instruction.
    Trap(u8),
    /// Falls into the block that starts at the given address.
    FallInto(u32),
}

/// A reconstructed machine basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachBlock {
    /// Start address.
    pub addr: u32,
    /// Decoded instructions with their addresses (terminator included for
    /// non-fallthrough ends).
    pub insts: Vec<(u32, Inst)>,
    /// How the block ends.
    pub end: BlockEnd,
}

/// The reconstructed CFG.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachCfg {
    /// Blocks keyed by start address.
    pub blocks: BTreeMap<u32, MachBlock>,
    /// Observed call targets (function-entry seeds).
    pub call_targets: BTreeSet<u32>,
    /// Program entry.
    pub entry: u32,
}

/// A CFG reconstruction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// Undecodable bytes inside traced territory.
    BadDecode(u32),
    /// A traced target lies outside the text segment.
    TargetOutsideText(u32),
    /// A terminator instruction the CFG builder does not model.
    UnsupportedTerminator(u32),
    /// The trace implies a CFG larger than the decode limits allow
    /// (hostile input defense; see [`wyt_isa::DecodeLimits`]).
    LimitExceeded {
        /// Which resource ran out ("blocks" or "instructions").
        what: &'static str,
        /// The configured ceiling.
        limit: usize,
    },
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::BadDecode(a) => write!(f, "cannot decode traced code at {a:#x}"),
            CfgError::TargetOutsideText(a) => write!(f, "traced target {a:#x} outside text"),
            CfgError::UnsupportedTerminator(a) => {
                write!(f, "unmodeled terminator at {a:#x}")
            }
            CfgError::LimitExceeded { what, limit } => {
                write!(f, "cfg exceeds decode limit: more than {limit} {what}")
            }
        }
    }
}

impl std::error::Error for CfgError {}

/// Build the machine CFG from a merged trace, under the default
/// [`DecodeLimits`].
///
/// # Errors
/// Returns a [`CfgError`] if traced addresses cannot be decoded.
pub fn build_cfg(img: &Image, trace: &Trace) -> Result<MachCfg, CfgError> {
    build_cfg_limited(img, trace, &DecodeLimits::default())
}

/// Build the machine CFG from a merged trace, refusing to grow past the
/// given [`DecodeLimits`] (hostile images can otherwise make the walk
/// decode unboundedly — e.g. a text segment wrapping the address space).
///
/// # Errors
/// Returns a [`CfgError`] if traced addresses cannot be decoded or the
/// CFG would exceed `limits`.
pub fn build_cfg_limited(
    img: &Image,
    trace: &Trace,
    limits: &DecodeLimits,
) -> Result<MachCfg, CfgError> {
    let mut starts: BTreeSet<u32> = BTreeSet::new();
    starts.insert(img.entry);
    for (_, to, _) in &trace.edges {
        if !img.contains_code(*to) {
            return Err(CfgError::TargetOutsideText(*to));
        }
        starts.insert(*to);
    }
    if starts.len() > limits.max_blocks {
        return Err(CfgError::LimitExceeded { what: "blocks", limit: limits.max_blocks });
    }

    let mut cfg =
        MachCfg { blocks: BTreeMap::new(), call_targets: trace.call_targets(), entry: img.entry };

    let mut total_insts = 0usize;
    for &start in &starts {
        let mut insts = Vec::new();
        let mut pc = start;
        let end = loop {
            let (inst, len) = img.decode_at(pc).map_err(|_| CfgError::BadDecode(pc))?;
            total_insts += 1;
            if total_insts > limits.max_insts {
                return Err(CfgError::LimitExceeded {
                    what: "instructions",
                    limit: limits.max_insts,
                });
            }
            let next = pc.wrapping_add(len as u32);
            if inst.is_terminator() {
                insts.push((pc, inst));
                break match inst {
                    Inst::Jmp { target } => BlockEnd::Jmp(target),
                    Inst::Jcc { target, .. } => {
                        let taken = trace
                            .edges
                            .contains(&(pc, target, TransferKind::CondTaken))
                            .then_some(target);
                        let fall = trace
                            .edges
                            .contains(&(pc, next, TransferKind::CondFall))
                            .then_some(next);
                        BlockEnd::Jcc { taken, fall, taken_addr: target, fall_addr: next }
                    }
                    Inst::JmpInd { .. } => {
                        BlockEnd::JmpInd(trace.targets_from(pc, |k| k == TransferKind::IndJump))
                    }
                    Inst::Ret { pop } => BlockEnd::Ret(pop),
                    Inst::Halt => BlockEnd::Halt,
                    Inst::Trap { code } => BlockEnd::Trap(code),
                    _ => return Err(CfgError::UnsupportedTerminator(pc)),
                };
            }
            insts.push((pc, inst));
            if starts.contains(&next) {
                break BlockEnd::FallInto(next);
            }
            pc = next;
        };
        cfg.blocks.insert(start, MachBlock { addr: start, insts, end });
    }
    Ok(cfg)
}

impl MachCfg {
    /// Intra-procedural successor addresses of a block (tail-call edges
    /// included; the caller classifies them).
    pub fn successors(&self, b: &MachBlock) -> Vec<u32> {
        match &b.end {
            BlockEnd::Jmp(t) => vec![*t],
            BlockEnd::Jcc { taken, fall, .. } => taken.iter().chain(fall.iter()).copied().collect(),
            BlockEnd::JmpInd(ts) => ts.clone(),
            BlockEnd::FallInto(n) => vec![*n],
            BlockEnd::Ret(_) | BlockEnd::Halt | BlockEnd::Trap(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::trace_image;
    use wyt_minicc::{compile, Profile};

    #[test]
    fn cfg_covers_traced_blocks_and_splits_at_targets() {
        let src = r#"
            int main() {
                int i;
                int acc = 0;
                for (i = 0; i < 4; i++) {
                    if (i % 2 == 0) acc += i;
                    else acc += 2 * i;
                }
                return acc;
            }
        "#;
        let img = compile(src, &Profile::gcc44_o3()).unwrap();
        let (trace, results) = trace_image(&img, &[vec![]]);
        assert!(results[0].ok());
        let cfg = build_cfg(&img, &trace).unwrap();
        assert!(cfg.blocks.len() >= 5, "loop + two arms + exit expected");
        // Every block's traced successors exist as blocks.
        for b in cfg.blocks.values() {
            for s in cfg.successors(b) {
                assert!(cfg.blocks.contains_key(&s), "missing successor {s:#x}");
            }
        }
        // The entry block exists.
        assert!(cfg.blocks.contains_key(&img.entry));
    }

    #[test]
    fn untraced_branch_side_is_none() {
        let src = r#"
            int main() {
                int c = getchar();
                if (c == 'x') return 1;
                return 2;
            }
        "#;
        let img = compile(src, &Profile::gcc44_o3()).unwrap();
        // Only trace the not-taken path.
        let (trace, _) = trace_image(&img, &[b"q".to_vec()]);
        let cfg = build_cfg(&img, &trace).unwrap();
        let has_half_jcc = cfg.blocks.values().any(|b| {
            matches!(
                b.end,
                BlockEnd::Jcc { taken: None, fall: Some(_), .. }
                    | BlockEnd::Jcc { taken: Some(_), fall: None, .. }
            )
        });
        assert!(has_half_jcc, "one branch side should be untraced");
    }

    #[test]
    fn limits_bound_cfg_growth() {
        let src = "int main() { return 42; }";
        let img = compile(src, &Profile::gcc44_o3()).unwrap();
        let (trace, _) = trace_image(&img, &[vec![]]);
        // Generous limits: fine.
        assert!(build_cfg_limited(&img, &trace, &DecodeLimits::default()).is_ok());
        // One-instruction budget: typed error, no panic, no runaway walk.
        let tight = DecodeLimits { max_insts: 1, ..DecodeLimits::default() };
        assert_eq!(
            build_cfg_limited(&img, &trace, &tight),
            Err(CfgError::LimitExceeded { what: "instructions", limit: 1 })
        );
        // Zero-block budget trips the start-count check.
        let none = DecodeLimits { max_blocks: 0, ..DecodeLimits::default() };
        assert!(matches!(
            build_cfg_limited(&img, &trace, &none),
            Err(CfgError::LimitExceeded { what: "blocks", .. })
        ));
    }

    #[test]
    fn jump_table_targets_enumerated() {
        let src = r#"
            int main() {
                int c = getchar() - '0';
                switch (c) {
                    case 0: return 10;
                    case 1: return 11;
                    case 2: return 12;
                    case 3: return 13;
                    case 4: return 14;
                    default: return -1;
                }
            }
        "#;
        let img = compile(src, &Profile::gcc44_o3()).unwrap();
        let (trace, _) = trace_image(&img, &[b"0".to_vec(), b"2".to_vec(), b"4".to_vec()]);
        let cfg = build_cfg(&img, &trace).unwrap();
        let ind = cfg
            .blocks
            .values()
            .find_map(|b| match &b.end {
                BlockEnd::JmpInd(ts) => Some(ts.clone()),
                _ => None,
            })
            .expect("switch should compile to a jump table");
        assert_eq!(ind.len(), 3, "three traced table targets");
    }
}
