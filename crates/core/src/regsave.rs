//! Refinement 2a: dynamic saved-register analysis (paper §4.1).
//!
//! At every function entry each virtual register cell is assigned a fresh
//! symbolic token. A register is *saved* by a function iff, in every traced
//! invocation, (1) its token is only stored into the function's own stack
//! frame and loaded back (never used in an operation or written anywhere
//! else), and (2) the register cell again holds the token when the function
//! returns. Registers whose token is passed untouched to a callee are
//! *forwarded*: their classification is resolved after tracing with the
//! constraint "if it is an argument anywhere downstream, it is an argument
//! here" — exactly the paper's deferred constraint scheme.

use crate::flat::{replay, FlatIndex};
use crate::shadowmem::ShadowMem;
use std::collections::{BTreeSet, HashMap};
use wyt_emu::{ExtId, Memory};
use wyt_ir::interp::{ExtArgs, Hooks, InterpError, Shadow, Tagged};
use wyt_ir::{BinOp, FuncId, InstId, Module, Ty};
use wyt_lifter::{vcpu_reg_addr, LiftedMeta, VCPU_BASE};

/// Number of tracked register cells (8 GPRs + 2 vector halves).
pub const NUM_CELLS: usize = 10;

/// Index of the `esp` cell.
pub const ESP_CELL: usize = 4;

/// Cell index of a vcpu cell address, if it is one. The cells are
/// consecutive words from [`VCPU_BASE`]: the eight GPRs in register-index
/// order, then the two vector halves.
#[inline]
pub fn cell_of_addr(addr: u32) -> Option<usize> {
    let off = addr.wrapping_sub(VCPU_BASE);
    (off < 4 * NUM_CELLS as u32 && off.is_multiple_of(4)).then_some(off as usize / 4)
}

/// Final classification of a register with respect to one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegClass {
    /// Preserved: the caller's value is intact after the call.
    Saved,
    /// Consumed as an input to the function.
    Argument,
    /// Overwritten without reading the caller's value (includes the return
    /// value register).
    Clobbered,
}

/// Aggregated per-(function, cell) facts across all traced invocations.
#[derive(Debug, Default, Clone)]
struct CellFacts {
    entered: bool,
    used_in_op: bool,
    stored_outside: bool,
    not_restored: bool,
    forwarded_to: BTreeSet<(FuncId, usize)>,
}

/// Observed callees per call site.
pub type CallTargets = HashMap<(FuncId, InstId), BTreeSet<FuncId>>;

/// Result of the analysis.
#[derive(Debug, Clone)]
pub struct RegSaveInfo {
    /// Classification per function per cell.
    pub class: HashMap<FuncId, [RegClass; NUM_CELLS]>,
    /// Observed callees per indirect call site.
    pub indirect_targets: CallTargets,
}

impl RegSaveInfo {
    /// Cells classified [`RegClass::Saved`] for `f`.
    pub fn saved_cells(&self, f: FuncId) -> Vec<usize> {
        match self.class.get(&f) {
            Some(cs) => (0..NUM_CELLS).filter(|&i| cs[i] == RegClass::Saved).collect(),
            None => Vec::new(),
        }
    }

    /// Cells classified [`RegClass::Argument`] for `f` (the register part
    /// of its recovered signature).
    pub fn arg_cells(&self, f: FuncId) -> Vec<usize> {
        match self.class.get(&f) {
            Some(cs) => (0..NUM_CELLS).filter(|&i| cs[i] == RegClass::Argument).collect(),
            None => Vec::new(),
        }
    }
}

/// Index of `(f, cell)` in the dense per-(function, cell) fact table.
fn fact_slot(f: FuncId, cell: usize) -> usize {
    f.index() * NUM_CELLS + cell
}

/// What one call instruction (by flat index) has reached.
#[derive(Debug, Clone, Copy)]
struct CallSeen {
    /// The first callee, or `u32::MAX` before the first call. Further
    /// distinct callees go to [`RegSaveHook::more_callees`].
    first: u32,
    /// Cells whose forwarding edge to `first` is already recorded.
    forwarded: u16,
}

/// [`RegSaveHook::bases`] entry of a frame that has returned.
const DEAD: u32 = u32::MAX;

/// The token `fn_enter` mints for `cell` of the frame with `serial`. A
/// call takes at least two steps, so the interpreter's default fuel
/// (500 M steps) keeps every token below `u32::MAX`.
#[inline]
fn token(serial: u32, cell: usize) -> Shadow {
    serial * NUM_CELLS as u32 + cell as u32
}

struct Frame {
    func: FuncId,
    serial: u32,
    sp0: u32,
    caller_shadows: [Option<Shadow>; NUM_CELLS],
}

/// The analysis hook. A shadow is a token: `fn_enter` mints one per cell
/// of each frame it opens, see [`token`].
pub struct RegSaveHook<'a> {
    index: &'a FlatIndex,
    /// Per [`fact_slot`].
    facts: Vec<CellFacts>,
    frames: Vec<Frame>,
    /// Per frame serial: the frame's [`fact_slot`] base while it is on the
    /// stack, then [`DEAD`]. Serials are handed out in order by `fn_enter`.
    bases: Vec<u32>,
    /// Shadow currently stored in each vcpu cell.
    cell_shadows: [Option<Shadow>; NUM_CELLS],
    /// Address → shadow for spilled tokens (4-byte entries).
    addr_map: ShadowMem,
    cur_esp: u32,
    /// Per call instruction (flat index).
    calls: Vec<CallSeen>,
    /// `(flat call instruction, callee)` for every callee after a call
    /// site's first.
    more_callees: BTreeSet<(u32, FuncId)>,
}

impl<'a> RegSaveHook<'a> {
    fn new(index: &'a FlatIndex) -> RegSaveHook<'a> {
        RegSaveHook {
            index,
            facts: vec![CellFacts::default(); index.funcs() * NUM_CELLS],
            frames: Vec::new(),
            bases: Vec::new(),
            cell_shadows: [None; NUM_CELLS],
            addr_map: ShadowMem::new(),
            cur_esp: 0,
            calls: vec![CallSeen { first: u32::MAX, forwarded: 0 }; index.insts()],
            more_callees: BTreeSet::new(),
        }
    }

    /// The replay's facts, and its observed callees keyed for
    /// [`RegSaveInfo`].
    fn finish(self) -> (Vec<CellFacts>, CallTargets) {
        let key = |flat: usize| self.index.key(flat);
        let mut targets = CallTargets::new();
        for (flat, seen) in self.calls.iter().enumerate() {
            if seen.first != u32::MAX {
                targets.entry(key(flat)).or_default().insert(FuncId(seen.first));
            }
        }
        for &(flat, callee) in &self.more_callees {
            targets.entry(key(flat as usize)).or_default().insert(callee);
        }
        (self.facts, targets)
    }

    /// A shadow is meaningful only while its owning frame is live.
    #[inline]
    fn live(&self, s: Shadow) -> bool {
        self.bases[s as usize / NUM_CELLS] != DEAD
    }

    /// The facts of the function and cell a live token was minted for.
    #[inline]
    fn fact(&mut self, s: Shadow) -> &mut CellFacts {
        let base = self.bases[s as usize / NUM_CELLS] as usize;
        &mut self.facts[base + s as usize % NUM_CELLS]
    }

    #[inline]
    fn mark_op_use(&mut self, s: Option<Shadow>) {
        if let Some(s) = s {
            if self.live(s) {
                self.fact(s).used_in_op = true;
            }
        }
    }
}

impl Hooks for RegSaveHook<'_> {
    fn fn_enter(&mut self, f: FuncId, callsite: Option<(FuncId, InstId)>, mem: &Memory) {
        if let Some((cf, ci)) = callsite {
            // Record the observed callee of the call site (used for
            // indirect calls), then the forwarding edges: cells of the
            // (still current) parent frame that hold its entry token pass
            // it untouched to this callee. An edge from this call site to
            // its first callee is inserted only once.
            let at = self.index.flat(cf, ci);
            let seen = &mut self.calls[at];
            if seen.first == u32::MAX {
                seen.first = f.0;
            } else if seen.first != f.0 {
                self.more_callees.insert((at as u32, f));
            }
            if let Some(parent) = self.frames.last() {
                let mut cells = 0u16;
                for cell in 0..NUM_CELLS {
                    if self.cell_shadows[cell] == Some(token(parent.serial, cell)) {
                        cells |= 1 << cell;
                    }
                }
                let (parent, seen) = (parent.func, &mut self.calls[at]);
                if seen.first == f.0 {
                    cells &= !seen.forwarded;
                    seen.forwarded |= cells;
                }
                for cell in (0..NUM_CELLS).filter(|c| cells & (1 << c) != 0) {
                    self.facts[fact_slot(parent, cell)].forwarded_to.insert((f, cell));
                }
            }
        }
        let serial = self.bases.len() as u32;
        self.bases.push(fact_slot(f, 0) as u32);
        let sp0 = mem.read_u32(vcpu_reg_addr(wyt_isa::Reg::Esp));
        self.cur_esp = sp0;
        let mut caller_shadows = [None; NUM_CELLS];
        for cell in 0..NUM_CELLS {
            caller_shadows[cell] = self.cell_shadows[cell];
            self.cell_shadows[cell] = Some(token(serial, cell));
            self.facts[fact_slot(f, cell)].entered = true;
        }
        self.frames.push(Frame { func: f, serial, sp0, caller_shadows });
    }

    fn fn_exit(&mut self, f: FuncId) {
        let Some(frame) = self.frames.pop() else { return };
        debug_assert_eq!(frame.func, f);
        self.bases[frame.serial as usize] = DEAD;
        for cell in 0..NUM_CELLS {
            let restored = self.cell_shadows[cell] == Some(token(frame.serial, cell));
            if restored {
                // The caller's tracking resumes seamlessly.
                self.cell_shadows[cell] = frame.caller_shadows[cell];
            } else {
                self.facts[fact_slot(f, cell)].not_restored = true;
                self.cell_shadows[cell] = None;
            }
        }
        // Restore the caller's stack-pointer view.
        if let Some(parent) = self.frames.last() {
            self.cur_esp = parent.sp0;
        }
    }

    #[inline]
    fn bin(
        &mut self,
        _f: FuncId,
        _i: InstId,
        _op: BinOp,
        a: Tagged,
        b: Tagged,
        _res: u32,
    ) -> Option<Shadow> {
        self.mark_op_use(a.1);
        self.mark_op_use(b.1);
        None
    }

    #[inline]
    fn cmp(&mut self, a: Tagged, b: Tagged) {
        self.mark_op_use(a.1);
        self.mark_op_use(b.1);
    }

    #[inline]
    fn load(&mut self, _f: FuncId, _i: InstId, ty: Ty, addr: Tagged) -> Option<Shadow> {
        self.mark_op_use(addr.1);
        if let Some(cell) = cell_of_addr(addr.0) {
            return self.cell_shadows[cell].filter(|s| self.live(*s));
        }
        if ty == Ty::I32 {
            return self.addr_map.get(addr.0).filter(|s| self.live(*s));
        }
        None
    }

    #[inline]
    fn store(&mut self, ty: Ty, addr: Tagged, val: Tagged) {
        self.mark_op_use(addr.1);
        if let Some(cell) = cell_of_addr(addr.0) {
            if cell == ESP_CELL {
                self.cur_esp = val.0;
            }
            self.cell_shadows[cell] = val.1.filter(|s| self.live(*s));
            return;
        }
        let spill = val.1.filter(|s| self.live(*s)).and_then(|s| {
            // Is the destination inside the current frame?
            let in_frame = self.frames.last().is_some_and(|fr| {
                addr.0 < fr.sp0 && addr.0 >= self.cur_esp.min(fr.sp0.saturating_sub(1 << 20))
            });
            if in_frame && ty == Ty::I32 {
                return Some(s);
            }
            self.fact(s).stored_outside = true;
            None
        });
        self.addr_map.store(addr.0, ty.bytes(), spill);
    }

    #[inline]
    fn transparent(&mut self, s: Option<Shadow>) -> Option<Shadow> {
        s.filter(|s| self.live(*s))
    }

    fn ext_call(&mut self, _e: ExtId, args: &ExtArgs<'_>, _mem: &Memory) {
        // Explicit argument values carrying tokens are operand uses.
        if let ExtArgs::Explicit(vals) = args {
            for (_, s) in vals.iter() {
                self.mark_op_use(*s);
            }
        }
    }
}

/// Run the saved-register analysis over all inputs and classify.
///
/// # Errors
/// Returns the interpreter error if a traced input fails to execute.
pub fn analyze(
    module: &Module,
    meta: &LiftedMeta,
    inputs: &[Vec<u8>],
) -> Result<RegSaveInfo, InterpError> {
    // Per-input replays are independent; their facts merge in input
    // order (the merge is a monotone union per (FuncId, cell), so the
    // result equals a serial sweep).
    let index = FlatIndex::new(module);
    let runs = replay(module, inputs, || RegSaveHook::new(&index), RegSaveHook::finish)?;
    let mut facts = vec![CellFacts::default(); index.funcs() * NUM_CELLS];
    let mut indirect = CallTargets::new();
    for (hook_facts, targets) in runs {
        for (e, v) in facts.iter_mut().zip(hook_facts) {
            e.entered |= v.entered;
            e.used_in_op |= v.used_in_op;
            e.stored_outside |= v.stored_outside;
            e.not_restored |= v.not_restored;
            e.forwarded_to.extend(v.forwarded_to);
        }
        for (k, v) in targets {
            indirect.entry(k).or_default().extend(v);
        }
    }

    // Fixpoint: argument-ness propagates backwards along forwarding edges.
    let mut argument: Vec<bool> = facts.iter().map(|f| f.used_in_op || f.stored_outside).collect();
    loop {
        let mut changed = false;
        for (k, f) in facts.iter().enumerate() {
            if !argument[k] && f.forwarded_to.iter().any(|&(tf, tc)| argument[fact_slot(tf, tc)]) {
                argument[k] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut class: HashMap<FuncId, [RegClass; NUM_CELLS]> = HashMap::new();
    for (fid, _) in meta.func_by_addr.iter().map(|(a, f)| (*f, a)) {
        let mut cs = [RegClass::Clobbered; NUM_CELLS];
        for (cell, c) in cs.iter_mut().enumerate() {
            let (fact, is_arg) = (&facts[fact_slot(fid, cell)], argument[fact_slot(fid, cell)]);
            *c = if is_arg {
                RegClass::Argument
            } else if fact.entered && !fact.not_restored {
                RegClass::Saved
            } else {
                RegClass::Clobbered
            };
        }
        // The stack pointer is handled structurally by sp0 folding, never
        // as data.
        cs[ESP_CELL] = RegClass::Saved;
        class.insert(fid, cs);
    }
    // The entry wrapper.
    class.entry(meta.start).or_insert([RegClass::Clobbered; NUM_CELLS]);

    Ok(RegSaveInfo { class, indirect_targets: indirect })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_lifter::lift_image;
    use wyt_minicc::{compile, Profile};

    fn analyze_src(
        src: &str,
        profile: &Profile,
        inputs: &[&[u8]],
    ) -> (RegSaveInfo, wyt_lifter::Lifted, wyt_isa::image::Image) {
        let img = compile(src, profile).unwrap();
        let stripped = img.stripped();
        let inputs: Vec<Vec<u8>> = inputs.iter().map(|i| i.to_vec()).collect();
        let lifted = lift_image(&stripped, &inputs).unwrap();
        let info = analyze(&lifted.module, &lifted.meta, &inputs).unwrap();
        (info, lifted, img)
    }

    #[test]
    fn cell_addresses_are_the_vcpu_register_cells() {
        let mut cells: Vec<(u32, usize)> =
            wyt_isa::Reg::ALL.iter().map(|&r| (vcpu_reg_addr(r), r.index())).collect();
        cells.extend([(wyt_lifter::vcpu_vreg_addr(0), 8), (wyt_lifter::vcpu_vreg_addr(1), 9)]);
        for addr in VCPU_BASE - 8..VCPU_BASE + 48 {
            let expect = cells.iter().find(|c| c.0 == addr).map(|c| c.1);
            assert_eq!(cell_of_addr(addr), expect, "{addr:#x}");
        }
    }

    #[test]
    fn frame_pointer_is_saved_not_argument() {
        // GCC 4.4 profile uses ebp as a frame pointer with push/pop.
        let src = r#"
            int leaf(int a, int b) {
                int arr[4];
                arr[0] = a;
                arr[1] = b;
                return arr[0] * arr[1];
            }
            int main() { return leaf(6, 7); }
        "#;
        let (info, lifted, img) = analyze_src(src, &Profile::gcc44_o3(), &[b""]);
        let leaf = lifted.meta.func_by_addr[&img.symbol("leaf").unwrap()];
        let cs = &info.class[&leaf];
        assert_eq!(cs[wyt_isa::Reg::Ebp.index()], RegClass::Saved, "ebp saved");
        assert_eq!(cs[wyt_isa::Reg::Eax.index()], RegClass::Clobbered, "eax is the return");
    }

    #[test]
    fn callee_saved_register_locals_are_saved() {
        // GCC 12 allocates hot locals into ebx/esi/edi and saves them.
        let src = r#"
            int work(int n) {
                int acc = 0;
                int i;
                for (i = 0; i < n; i++) acc += i * 3;
                return acc;
            }
            int main() { return work(9) & 0xff; }
        "#;
        let (info, lifted, img) = analyze_src(src, &Profile::gcc12_o3(), &[b""]);
        let work = lifted.meta.func_by_addr[&img.symbol("work").unwrap()];
        let cs = &info.class[&work];
        let saved_count = [wyt_isa::Reg::Ebx, wyt_isa::Reg::Esi, wyt_isa::Reg::Edi]
            .iter()
            .filter(|r| cs[r.index()] == RegClass::Saved)
            .count();
        assert!(saved_count >= 1, "register locals imply saved callee regs: {cs:?}");
    }

    #[test]
    fn regparm_arguments_are_classified_as_arguments() {
        // Custom convention: static functions take args in ecx/edx under
        // GCC 12 -O3 — the heuristic-defeating case of §4.1.
        let src = r#"
            static int mix(int a, int b) {
                int i;
                int acc = b;
                for (i = 0; i < a; i++) acc += i * 10;
                return acc;
            }
            int main() { return mix(4, 2); }
        "#;
        let (info, lifted, img) = analyze_src(src, &Profile::gcc12_o3(), &[b""]);
        let mix = lifted.meta.func_by_addr[&img.symbol("mix").unwrap()];
        let cs = &info.class[&mix];
        assert_eq!(cs[wyt_isa::Reg::Ecx.index()], RegClass::Argument, "{cs:?}");
        assert_eq!(cs[wyt_isa::Reg::Edx.index()], RegClass::Argument, "{cs:?}");
    }

    #[test]
    fn forwarded_registers_resolve_through_the_chain() {
        // `outer` forwards its regparm args untouched to `inner`, which
        // uses them: both must classify as arguments (the edx example of
        // §4.1).
        let src = r#"
            static int inner(int a, int b) {
                int i;
                int acc = 0;
                for (i = 0; i < a; i++) acc += b + i;
                return acc;
            }
            static int outer(int a, int b) { return inner(a, b); }
            int main() { return outer(9, 4); }
        "#;
        let (info, lifted, img) = analyze_src(src, &Profile::gcc12_o3(), &[b""]);
        let outer = lifted.meta.func_by_addr[&img.symbol("outer").unwrap()];
        let cs = &info.class[&outer];
        // outer loads its args to re-pass them, so they are used in ops or
        // at least forwarded-to-argument.
        assert_eq!(cs[wyt_isa::Reg::Ecx.index()], RegClass::Argument, "{cs:?}");
    }

    #[test]
    fn indirect_call_targets_recorded() {
        let src = r#"
            int one() { return 1; }
            int two() { return 2; }
            int main() {
                int t = getchar() == '1' ? (int)&one : (int)&two;
                return __icall(t);
            }
        "#;
        let (info, _lifted, _img) = analyze_src(src, &Profile::gcc44_o3(), &[b"1", b"2"]);
        let all: BTreeSet<FuncId> =
            info.indirect_targets.values().flat_map(|s| s.iter().copied()).collect();
        assert!(all.len() >= 2, "both indirect targets observed");
    }
}
