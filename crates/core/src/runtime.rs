//! Refinement 3: the object-bounds tracing runtime (paper §4.2, Fig. 5).
//!
//! Every canonical base pointer (`sp0 + k`) is a candidate `StackVar`.
//! During execution the runtime tracks, per value, a `PointerInfo` —
//! which variable the value points into and at what offset — through the
//! paper's core operations (`derive`, `derive2`, `link`, `load`, `store`,
//! `copy`) plus an address map for pointers that round-trip through
//! memory, frame descriptors for recursion, call-site argument recording,
//! and the external-function effect constraints of §5.3.
//!
//! Faithful details:
//! - bounds update **only at dereference** (false derives, §4.2.3);
//! - bounds are **undefined until the first access** (out-of-bounds base
//!   pointers, §4.2.4);
//! - accesses at or above the current frame's `sp0` are recorded in the
//!   call-site descriptor, not as callee variables (§4.2.5);
//! - linked variables merge only when both have defined bounds (§4.2.4).

use crate::flat::{replay, FlatIndex};
use crate::shadowmem::ShadowMem;
use crate::spfold::FoldInfo;
use std::collections::{BTreeSet, HashMap};
use wyt_emu::{ExtId, Memory};
use wyt_ir::interp::{ExtArgs, Hooks, InterpError, Shadow, Tagged};
use wyt_ir::{BinOp, FuncId, InstId, Module, Ty};
use wyt_lifter::{ext_sig, ExtEffect, SizeSpec};

/// Identity of a stack variable candidate: the static base pointer.
pub type VarKey = (FuncId, InstId);

/// Recorded facts about one candidate variable.
#[derive(Debug, Clone, Default)]
pub struct VarData {
    /// Static sp0-relative position of the base pointer.
    pub sp0_off: i32,
    /// Lowest accessed offset relative to the base pointer (defined on
    /// first dereference).
    pub low: Option<i32>,
    /// One past the highest accessed offset.
    pub high: Option<i32>,
    /// Observed alignment mask, if the pointer went through `and`.
    pub align: Option<u32>,
}

impl VarData {
    /// Extend the bounds with an access at `off` of `size` bytes.
    pub fn access(&mut self, off: i32, size: u32) {
        let hi = off + size as i32;
        self.low = Some(self.low.map_or(off, |l| l.min(off)));
        self.high = Some(self.high.map_or(hi, |h| h.max(hi)));
    }

    /// `true` once the variable has been dereferenced.
    pub fn defined(&self) -> bool {
        self.low.is_some()
    }
}

/// Argument-slot observations for one call site.
#[derive(Debug, Clone, Default)]
pub struct CallSiteArgs {
    /// Accessed byte interval relative to the callee's `sp0 + 4`
    /// (i.e. 0 = first argument word).
    pub lo: Option<i32>,
    /// One past the highest accessed byte.
    pub hi: Option<i32>,
}

impl CallSiteArgs {
    fn access(&mut self, off: i32, size: u32) {
        let hi = off + size as i32;
        self.lo = Some(self.lo.map_or(off, |l| l.min(off)));
        self.hi = Some(self.hi.map_or(hi, |h| h.max(hi)));
    }
}

/// Everything the tracing runtime learned.
#[derive(Debug, Clone, Default)]
pub struct BoundsInfo {
    /// Per candidate variable.
    pub vars: HashMap<VarKey, VarData>,
    /// Linked pairs (pointer differences / comparisons, §4.2.2).
    pub links: BTreeSet<(VarKey, VarKey)>,
    /// Per call site: observed argument accesses from the callee side.
    pub callsite_args: HashMap<(FuncId, InstId), CallSiteArgs>,
    /// Functions whose frames were entered at runtime.
    pub entered: BTreeSet<FuncId>,
}

#[derive(Debug, Clone, Copy)]
enum PiVar {
    /// The candidate variable whose base pointer is the instruction at
    /// this flat index (see [`Tables`]).
    Var(u32),
    /// The argument area of the frame entered through the call
    /// instruction at this flat index.
    Args(u32),
}

#[derive(Debug, Clone, Copy)]
struct Pi {
    var: PiVar,
    /// Offset from the base pointer (Var) or from `sp0 + 4` (Args).
    off: i32,
    /// Owning frame serial (validity check for recursion / stale memory).
    serial: u32,
}

struct Frame {
    serial: u32,
    /// Flat index of the call instruction that entered this frame.
    callsite: Option<u32>,
}

/// The fold as dense per-instruction tables, built once per
/// [`trace_bounds`] and shared by its replays. Flat order is [`VarKey`]
/// order.
struct Tables {
    index: FlatIndex,
    /// Per instruction: the sp0 offset of the base pointer it defines.
    base: Vec<Option<i32>>,
    /// Per function: its entry `sp0` load.
    sp0: Vec<Option<InstId>>,
}

impl Tables {
    fn new(module: &Module, fold: &FoldInfo) -> Tables {
        let index = FlatIndex::new(module);
        let base = vec![None; index.insts()];
        let mut tables = Tables { index, base, sp0: vec![None; module.funcs.len()] };
        for (&f, folded) in &fold.funcs {
            tables.sp0[f.index()] = folded.sp0;
            for (&i, &k) in &folded.base_ptrs {
                let at = tables.index.flat(f, i);
                tables.base[at] = Some(k);
            }
        }
        tables
    }
}

/// The tracing runtime hook.
struct BoundsHook<'a> {
    tables: &'a Tables,
    /// Every `PointerInfo` handed out; a shadow is an index into it.
    pis: Vec<Pi>,
    frames: Vec<Frame>,
    /// Per frame serial: still on the stack. Serials are handed out in
    /// order by `fn_enter`.
    active: Vec<bool>,
    addr_map: ShadowMem,
    /// Per instruction (flat): the variable it is the base pointer of.
    vars: Vec<Option<VarData>>,
    /// Per call instruction (flat): argument accesses from the callee.
    callsite_args: Vec<Option<CallSiteArgs>>,
    /// Linked variable pairs by flat index (flat order is [`VarKey`] order).
    links: BTreeSet<(u32, u32)>,
    /// Per function: entered at least once.
    entered: Vec<bool>,
}

impl<'a> BoundsHook<'a> {
    /// New runtime over the folded module's tables.
    fn new(tables: &'a Tables) -> BoundsHook<'a> {
        let insts = tables.index.insts();
        BoundsHook {
            tables,
            pis: Vec::new(),
            frames: Vec::new(),
            active: Vec::new(),
            addr_map: ShadowMem::new(),
            vars: vec![None; insts],
            callsite_args: vec![None; insts],
            links: BTreeSet::new(),
            entered: vec![false; tables.sp0.len()],
        }
    }

    #[inline]
    fn mk(&mut self, pi: Pi) -> Shadow {
        self.pis.push(pi);
        self.pis.len() as Shadow - 1
    }

    #[inline]
    fn pi(&self, s: Shadow) -> Pi {
        self.pis[s as usize]
    }

    #[inline]
    fn live(&self, s: Shadow) -> bool {
        self.active[self.pi(s).serial as usize]
    }

    #[inline]
    fn live_pi(&self, s: Option<Shadow>) -> Option<Pi> {
        let pi = self.pi(s?);
        self.active[pi.serial as usize].then_some(pi)
    }

    #[inline]
    fn var_data(&mut self, var: u32) -> &mut VarData {
        self.vars[var as usize].get_or_insert_with(VarData::default)
    }

    /// Record a dereference at `pi` covering `size` bytes.
    #[inline]
    fn deref(&mut self, pi: Pi, size: u32) {
        match pi.var {
            PiVar::Var(var) => self.var_data(var).access(pi.off, size),
            PiVar::Args(call) => self.callsite_args[call as usize]
                .get_or_insert_with(CallSiteArgs::default)
                .access(pi.off, size),
        }
    }

    #[inline]
    fn link(&mut self, a: Pi, b: Pi) {
        if let (PiVar::Var(ka), PiVar::Var(kb)) = (a.var, b.var) {
            if ka != kb {
                self.links.insert((ka.min(kb), ka.max(kb)));
            }
        }
    }

    /// The `(value, shadow)` of the first eight stack words at `sp`: the
    /// arguments of an unrecovered external call.
    fn raw_args(&self, sp: u32, mem: &Memory) -> [Tagged; 8] {
        std::array::from_fn(|k| {
            let a = sp.wrapping_add(4 * k as u32);
            (mem.read_u32(a), self.addr_map.get(a))
        })
    }

    fn apply_ext_effects(&mut self, ext: ExtId, argv: &[(u32, Option<Shadow>)], mem: &Memory) {
        let sig = ext_sig(ext);
        let size_of = |spec: SizeSpec, argv: &[(u32, Option<Shadow>)]| -> u32 {
            match spec {
                SizeSpec::Const(c) => c,
                SizeSpec::Arg(i) => argv.get(i).map(|a| a.0).unwrap_or(0),
                SizeSpec::ArgProduct(i, j) => argv
                    .get(i)
                    .map(|a| a.0)
                    .unwrap_or(0)
                    .wrapping_mul(argv.get(j).map(|a| a.0).unwrap_or(0)),
            }
        };
        for eff in &sig.effects {
            match *eff {
                ExtEffect::ObjectSize { ptr, size } => {
                    if let Some(pi) = self.live_pi(argv.get(ptr).and_then(|a| a.1)) {
                        let sz = size_of(size, argv);
                        self.deref(pi, sz.max(1));
                    }
                }
                ExtEffect::ZeroTerminated { ptr } => {
                    if let Some(pi) = self.live_pi(argv.get(ptr).and_then(|a| a.1)) {
                        let p = argv[ptr].0;
                        let len = mem.read_cstr(p).len() as u32 + 1;
                        self.deref(pi, len);
                    }
                }
                ExtEffect::Clear { ptr, size } => {
                    let p = argv.get(ptr).map(|a| a.0).unwrap_or(0);
                    let sz = size_of(size, argv);
                    self.addr_map.invalidate_range(p, sz);
                }
                ExtEffect::Copy { dst, src, size } => {
                    let d = argv.get(dst).map(|a| a.0).unwrap_or(0);
                    let s = argv.get(src).map(|a| a.0).unwrap_or(0);
                    let sz = size_of(size, argv);
                    self.addr_map.copy(d, s, sz);
                }
                // DeriveRet needs the return value: handled in ext_ret.
                ExtEffect::DeriveRet { .. } | ExtEffect::FormatStr { .. } => {}
            }
        }
    }

    /// Everything this replay learned, keyed for [`BoundsInfo`].
    fn into_info(self) -> BoundsInfo {
        let tables = self.tables;
        let keyed = |flat: usize| tables.index.key(flat);
        BoundsInfo {
            vars: (self.vars.into_iter().enumerate())
                .filter_map(|(i, v)| Some((keyed(i), v?)))
                .collect(),
            links: (self.links.into_iter())
                .map(|(a, b)| (keyed(a as usize), keyed(b as usize)))
                .collect(),
            callsite_args: (self.callsite_args.into_iter().enumerate())
                .filter_map(|(i, v)| Some((keyed(i), v?)))
                .collect(),
            entered: (self.entered.iter().enumerate())
                .filter(|(_, &e)| e)
                .map(|(f, _)| FuncId(f as u32))
                .collect(),
        }
    }
}

impl Hooks for BoundsHook<'_> {
    fn fn_enter(&mut self, f: FuncId, callsite: Option<(FuncId, InstId)>, _mem: &Memory) {
        let serial = self.active.len() as u32;
        self.active.push(true);
        self.entered[f.index()] = true;
        let callsite = callsite.map(|(cf, ci)| self.tables.index.flat(cf, ci) as u32);
        self.frames.push(Frame { serial, callsite });
    }

    fn fn_exit(&mut self, _f: FuncId) {
        if let Some(fr) = self.frames.pop() {
            self.active[fr.serial as usize] = false;
        }
    }

    #[inline]
    fn bin(
        &mut self,
        f: FuncId,
        inst: InstId,
        op: BinOp,
        a: Tagged,
        b: Tagged,
        res: u32,
    ) -> Option<Shadow> {
        // Is this instruction a registered base pointer?
        let at = self.tables.index.flat(f, inst);
        if let Some(k) = self.tables.base[at] {
            let frame = self.frames.last()?;
            let serial = frame.serial;
            let callsite = frame.callsite;
            // Pointers at or above sp0 refer to the caller's frame — they
            // are this invocation's *arguments* (§4.2.5). The
            // return-address slot occupies [0, 4).
            if k >= 4 {
                let pi = Pi { var: PiVar::Args(callsite?), off: k - 4, serial };
                return Some(self.mk(pi));
            }
            if k >= 0 {
                return None; // the return-address slot: untracked
            }
            self.var_data(at as u32).sp0_off = k;
            let pi = Pi { var: PiVar::Var(at as u32), off: 0, serial };
            return Some(self.mk(pi));
        }
        match op {
            BinOp::Add | BinOp::Sub => {
                let (pa, pb) = (self.live_pi(a.1), self.live_pi(b.1));
                match (pa, pb) {
                    // derive: pointer ± value (offset = other operand).
                    (Some(p), None) => {
                        let delta = b.0 as i32;
                        let off = if op == BinOp::Add { p.off + delta } else { p.off - delta };
                        Some(self.mk(Pi { off, ..p }))
                    }
                    (None, Some(p)) if op == BinOp::Add => {
                        let off = p.off + a.0 as i32;
                        Some(self.mk(Pi { off, ..p }))
                    }
                    // Pointer difference: link (§4.2.2).
                    (Some(p), Some(q)) if op == BinOp::Sub => {
                        self.link(p, q);
                        None
                    }
                    _ => None,
                }
            }
            BinOp::And => {
                // Alignment operation: record the mask, keep tracking.
                if let Some(p) = self.live_pi(a.1) {
                    let mask = b.0;
                    if mask.leading_zeros() == 0 || mask > 0xffff {
                        if let PiVar::Var(var) = p.var {
                            self.var_data(var).align = Some(!mask + 1);
                        }
                        let off = (res as i32) - ((a.0 as i32) - p.off);
                        return Some(self.mk(Pi { off, ..p }));
                    }
                }
                None
            }
            _ => None,
        }
    }

    #[inline]
    fn cmp(&mut self, a: Tagged, b: Tagged) {
        if let (Some(p), Some(q)) = (self.live_pi(a.1), self.live_pi(b.1)) {
            self.link(p, q);
        }
    }

    #[inline]
    fn load(&mut self, f: FuncId, inst: InstId, ty: Ty, addr: Tagged) -> Option<Shadow> {
        // The entry sp0 load re-reads the stack pointer: as the frame's
        // own pointer it is never dereferenced, so it is not tracked.
        if self.tables.sp0[f.index()] == Some(inst) {
            return None;
        }
        if let Some(pi) = self.live_pi(addr.1) {
            self.deref(pi, ty.bytes());
        }
        if ty == Ty::I32 {
            return self.addr_map.get(addr.0).filter(|s| self.live(*s));
        }
        None
    }

    #[inline]
    fn store(&mut self, ty: Ty, addr: Tagged, val: Tagged) {
        if let Some(pi) = self.live_pi(addr.1) {
            self.deref(pi, ty.bytes());
        }
        let kept = val.1.filter(|s| ty == Ty::I32 && self.live(*s));
        self.addr_map.store(addr.0, ty.bytes(), kept);
    }

    #[inline]
    fn transparent(&mut self, s: Option<Shadow>) -> Option<Shadow> {
        s.filter(|s| self.live(*s))
    }

    fn ext_call(&mut self, ext: ExtId, args: &ExtArgs<'_>, mem: &Memory) {
        let raw;
        let argv = match args {
            ExtArgs::Explicit(vals) => vals,
            ExtArgs::Raw { sp } => {
                raw = self.raw_args(*sp, mem);
                &raw[..]
            }
        };
        self.apply_ext_effects(ext, argv, mem);
    }

    fn ext_ret(
        &mut self,
        ext: ExtId,
        args: &ExtArgs<'_>,
        ret: u32,
        mem: &Memory,
    ) -> Option<Shadow> {
        let sig = ext_sig(ext);
        for eff in &sig.effects {
            if let ExtEffect::DeriveRet { base } = *eff {
                let arg = match args {
                    ExtArgs::Explicit(vals) => vals.get(base).copied(),
                    ExtArgs::Raw { sp } => self.raw_args(*sp, mem).get(base).copied(),
                };
                let Some((base_val, shadow)) = arg else { continue };
                if let Some(pi) = self.live_pi(shadow) {
                    if ret == 0 {
                        return None; // e.g. strchr miss
                    }
                    let delta = ret.wrapping_sub(base_val) as i32;
                    let off = pi.off + delta;
                    return Some(self.mk(Pi { off, ..pi }));
                }
            }
        }
        None
    }
}

/// Run the bounds-recovery runtime over all inputs, merging observations.
///
/// # Errors
/// Returns the interpreter error if any traced input fails.
pub fn trace_bounds(
    module: &Module,
    fold: &FoldInfo,
    inputs: &[Vec<u8>],
) -> Result<BoundsInfo, InterpError> {
    let tables = Tables::new(module, fold);
    // Independent per-input replays; observations merge **in input
    // order**, because parts of the merge (`sp0_off`, `align` overwrites)
    // are order-sensitive and the result must be byte-identical to the
    // serial sweep.
    let runs = replay(module, inputs, || BoundsHook::new(&tables), BoundsHook::into_info)?;
    let mut merged = BoundsInfo::default();
    for info in runs {
        for (k, v) in info.vars {
            let e = merged.vars.entry(k).or_default();
            e.sp0_off = v.sp0_off;
            if let (Some(l), Some(h)) = (v.low, v.high) {
                e.access(l, (h - l) as u32);
            }
            if v.align.is_some() {
                e.align = v.align;
            }
        }
        merged.links.extend(info.links);
        for (k, v) in info.callsite_args {
            let e = merged.callsite_args.entry(k).or_default();
            if let (Some(l), Some(h)) = (v.lo, v.hi) {
                e.access(l, (h - l) as u32);
            }
        }
        merged.entered.extend(info.entered);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regsave;
    use crate::spfold;
    use wyt_lifter::lift_image;
    use wyt_minicc::{compile, Profile};

    fn bounds_for(
        src: &str,
        profile: &Profile,
        inputs: &[&[u8]],
    ) -> (BoundsInfo, FoldInfo, wyt_lifter::LiftedMeta, wyt_isa::image::Image) {
        let img = compile(src, profile).unwrap();
        let inputs: Vec<Vec<u8>> = inputs.iter().map(|i| i.to_vec()).collect();
        let lifted = lift_image(&img.stripped(), &inputs).unwrap();
        let mut module = lifted.module;
        crate::vararg::apply(&mut module, &crate::vararg::from_trace(&lifted.trace, &lifted.meta));
        let info = regsave::analyze(&module, &lifted.meta, &inputs).unwrap();
        let none = std::collections::BTreeSet::new();
        spfold::insert_save_restore(&mut module, &lifted.meta, &info, &none);
        let (fold, errs) = spfold::fold(&mut module, &lifted.meta, &info, &none);
        assert!(errs.is_empty(), "clean corpus must fold: {errs:?}");
        let bounds = trace_bounds(&module, &fold, &inputs).unwrap();
        (bounds, fold, lifted.meta, img)
    }

    fn vars_of(bounds: &BoundsInfo, f: FuncId) -> Vec<(i32, i32, i32)> {
        // (sp0_off, low, high) for defined vars of f
        bounds
            .vars
            .iter()
            .filter(|((vf, _), v)| *vf == f && v.defined())
            .map(|(_, v)| (v.sp0_off, v.low.unwrap(), v.high.unwrap()))
            .collect()
    }

    #[test]
    fn array_accesses_grow_bounds() {
        let src = r#"
            int main() {
                int arr[6];
                int i;
                int acc = 0;
                for (i = 0; i < 6; i++) arr[i] = i;
                for (i = 0; i < 6; i++) acc += arr[i];
                return acc;
            }
        "#;
        let (bounds, _fold, meta, img) = bounds_for(src, &Profile::gcc44_o3(), &[b""]);
        let main = meta.func_by_addr[&img.symbol("main").unwrap()];
        let vars = vars_of(&bounds, main);
        // Some variable spans the full 24-byte array.
        assert!(
            vars.iter().any(|(_, l, h)| h - l >= 24),
            "array extent should be discovered: {vars:?}"
        );
    }

    #[test]
    fn partial_traces_give_partial_bounds() {
        // Only indices 0..3 accessed: the interval must not cover the whole
        // array (this is the f3-returns-0 example of §4.2).
        let src = r#"
            int main() {
                int arr[8];
                int n = getchar() - '0';
                int i;
                int acc = 0;
                for (i = 0; i < n; i++) arr[i] = i;
                for (i = 0; i < n; i++) acc += arr[i];
                return acc;
            }
        "#;
        let (bounds, _f, meta, img) = bounds_for(src, &Profile::gcc44_o3(), &[b"3"]);
        let main = meta.func_by_addr[&img.symbol("main").unwrap()];
        let vars = vars_of(&bounds, main);
        let max_extent = vars.iter().map(|(_, l, h)| h - l).max().unwrap_or(0);
        assert!(max_extent <= 12, "only 3 elements were traced: {vars:?}");
    }

    #[test]
    fn callsite_arguments_recorded_from_callee_side() {
        let src = r#"
            int take(int a, int b, int c) { return a + b + c; }
            int main() { return take(1, 2, 3); }
        "#;
        let (bounds, _f, meta, img) = bounds_for(src, &Profile::gcc44_o3(), &[b""]);
        let main = meta.func_by_addr[&img.symbol("main").unwrap()];
        let args: Vec<&CallSiteArgs> = bounds
            .callsite_args
            .iter()
            .filter(|((cf, _), _)| *cf == main)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(args.len(), 1, "one traced call site in main");
        assert_eq!(args[0].lo, Some(0));
        assert_eq!(args[0].hi, Some(12), "three argument words accessed");
    }

    #[test]
    fn linked_pointers_via_comparison() {
        // A pointer loop compares p against the one-past-end pointer; the
        // two base pointers must be linked (Fig. 3 handling).
        let src = r#"
            int main() {
                int arr[8];
                int i;
                for (i = 0; i < 8; i++) arr[i] = 1;
                return arr[7];
            }
        "#;
        let (bounds, _f, _meta, _img) = bounds_for(src, &Profile::gcc12_o3(), &[b""]);
        // The gcc12 profile rewrites this to a p != end loop.
        assert!(!bounds.links.is_empty(), "end-pointer comparison should link variables");
    }

    #[test]
    fn external_effects_extend_bounds() {
        let src = r#"
            int main() {
                char buf[16];
                memset(buf, 0, 16);
                return buf[9];
            }
        "#;
        let (bounds, _f, meta, img) = bounds_for(src, &Profile::gcc44_o3(), &[b""]);
        let main = meta.func_by_addr[&img.symbol("main").unwrap()];
        let vars = vars_of(&bounds, main);
        assert!(
            vars.iter().any(|(_, l, h)| h - l >= 16),
            "ObjectSize(memset) must cover the buffer: {vars:?}"
        );
    }

    #[test]
    fn memcpy_carries_pointers_across_a_page_boundary() {
        use crate::spfold::FoldedFunc;
        use wyt_ir::{Function, InstKind, Term, Val};
        // main: two pointers into one variable are spilled to a buffer that
        // straddles a page, `memcpy`'d to another straddling buffer — one
        // word of it split across the page boundary — then reloaded from
        // the copy and dereferenced. Only the copied shadows can tie those
        // dereferences back to the variable.
        let (src, dst) = (0x0020_0ff8, 0x0030_0ffa);
        let mut module = Module::new();
        let memcpy = module.extern_index("memcpy");
        let mut f = Function::new("main");
        let e = f.entry;
        let mut push = |k| f.push_inst(e, k);
        let base =
            push(InstKind::Bin { op: BinOp::Add, a: Val::Const(0x10_0000), b: Val::Const(0) });
        let derived = push(InstKind::Bin { op: BinOp::Add, a: Val::Inst(base), b: Val::Const(8) });
        for (at, v) in [(src + 4, base), (src + 8, derived)] {
            push(InstKind::Store { ty: Ty::I32, addr: Val::Const(at), val: Val::Inst(v) });
        }
        let args = vec![Val::Const(dst), Val::Const(src), Val::Const(12)];
        push(InstKind::CallExt { ext: memcpy, args });
        for (at, ty) in [(dst + 4, Ty::I32), (dst + 8, Ty::I8)] {
            let p = push(InstKind::Load { ty: Ty::I32, addr: Val::Const(at) });
            push(InstKind::Load { ty, addr: Val::Inst(p) });
        }
        f.blocks[e.index()].term = Term::Ret(Some(Val::Const(0)));
        let main = module.add_func(f);
        module.entry = Some(main);
        let folded = FoldedFunc {
            sp0: None,
            base_ptrs: [(base, -16)].into_iter().collect(),
            call_esp_off: Default::default(),
        };
        let fold = FoldInfo { funcs: [(main, folded)].into_iter().collect() };
        let bounds = trace_bounds(&module, &fold, &[Vec::new()]).unwrap();
        let var = &bounds.vars[&(main, base)];
        assert_eq!((var.sp0_off, var.low, var.high), (-16, Some(0), Some(9)), "{var:?}");
        assert!(bounds.entered.contains(&main));
    }

    #[test]
    fn undefined_until_dereferenced() {
        // A pointer is computed but never dereferenced on the traced path:
        // its variable must stay undefined (deferred initialization,
        // §4.2.4).
        let src = r#"
            int main() {
                int x;
                int *p = &x;
                int c = getchar();
                x = 5;
                if (c == 'd') return *p;
                return x;
            }
        "#;
        let (bounds, _f, meta, img) = bounds_for(src, &Profile::gcc12_o0(), &[b"n"]);
        let main = meta.func_by_addr[&img.symbol("main").unwrap()];
        // x itself is accessed directly (store), so one var is defined; the
        // important property is that nothing crashes and undefined vars are
        // permitted to exist.
        let _ = vars_of(&bounds, main);
    }
}
