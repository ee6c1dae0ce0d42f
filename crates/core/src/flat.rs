//! What the refinement replays share: dense per-instruction indexes
//! over a module for the hooks' tables (instruction `i` of function `f`
//! has flat index `off[f] + i`, so flat order is `(FuncId, InstId)`
//! order), the per-input replay driver, and the out-of-line path of the
//! hooks' cell stores. A cell load needs none: [`ShadowMem::get`]
//! answers any address, a register cell's or not.
//!
//! [`ShadowMem::get`]: crate::shadowmem::ShadowMem::get

use wyt_ir::interp::{Hooks, Interp, InterpError, Tagged};
use wyt_ir::{FuncId, InstId, Module, Ty};

/// The first flat index of each function, then the total.
pub(crate) struct FlatIndex(Vec<u32>);

impl FlatIndex {
    pub(crate) fn new(module: &Module) -> FlatIndex {
        let mut off = vec![0];
        for f in &module.funcs {
            off.push(off[off.len() - 1] + f.insts.len() as u32);
        }
        FlatIndex(off)
    }

    /// Number of functions.
    pub(crate) fn funcs(&self) -> usize {
        self.0.len() - 1
    }

    /// Number of instructions, over all functions.
    pub(crate) fn insts(&self) -> usize {
        self.0[self.funcs()] as usize
    }

    #[inline]
    pub(crate) fn flat(&self, f: FuncId, i: InstId) -> usize {
        self.0[f.index()] as usize + i.index()
    }

    /// The instruction at flat index `flat`.
    pub(crate) fn key(&self, flat: usize) -> (FuncId, InstId) {
        let f = self.0.partition_point(|&o| o as usize <= flat) - 1;
        (FuncId(f as u32), InstId((flat - self.0[f] as usize) as u32))
    }
}

/// Replay `module` on every input, fanned out on the pool, each under a
/// fresh hook from `hook`; `finish` turns each finished hook into its
/// result. Returns the results in input order, or the first failing
/// input's error.
pub(crate) fn replay<H: Hooks, R: Send>(
    module: &Module,
    inputs: &[Vec<u8>],
    hook: impl Fn() -> H + Sync,
    finish: impl Fn(H) -> R + Sync,
) -> Result<Vec<R>, InterpError> {
    let runs = wyt_par::par_map(inputs, |_, input| {
        let mut interp = Interp::new(module, input.clone(), hook());
        match interp.run().error {
            None => Ok(finish(interp.hooks)),
            Some(e) => Err(e),
        }
    });
    runs.into_iter().collect()
}

/// A cell store as the generic store it replaces: what
/// [`Hooks::cell_store`] does by default. The hooks take this path only
/// for a cell outside the lifter's register cells, so it stays out of
/// their inlined fast path.
#[cold]
#[inline(never)]
pub(crate) fn unpromoted_store<H: Hooks>(hooks: &mut H, addr: u32, val: Tagged) {
    hooks.store(Ty::I32, (addr, None), val)
}
