//! # wyt-backend — IR to machine-code generation
//!
//! Lowers an optimized [`wyt_ir::Module`] back to an executable
//! [`wyt_isa::image::Image`], so "runtime of the recompiled binary" is
//! measured on the same emulator and cost model as the input binary.
//!
//! Design, sized to the reproduction's needs:
//! - **Hybrid register allocation**: the hottest cross-block values (loop
//!   phis and long-lived temporaries, weighted by loop depth) are pinned
//!   to the callee-saved registers `ebx`/`esi`/`edi`/`ebp`; everything
//!   else lives in an SSA slot in the frame with write-through caching in
//!   the scratch registers `eax`/`ecx`/`edx` inside a block.
//! - **Branch fusion**: a single-use `icmp` feeding a `condbr` lowers to
//!   `cmp` + `jcc` directly.
//! - **Address folding**: single-use `add base, const` address arithmetic
//!   folds into `[reg+disp]` operands.
//! - **Edge-split phi moves** with staging slots when parallel copies
//!   overlap.
//! - **Stack switching for `callext_raw`** (paper §5.2): the hardware
//!   stack pointer is temporarily pointed at the emulated stack so
//!   unrecovered external calls still find their arguments — exactly
//!   BinRec's trick, and exactly what symbolization later removes.
//! - **Indirect-call dispatch**: function addresses keep their *original*
//!   values (they flow through data structures the recompiler cannot
//!   rewrite), and each indirect call site compares against the known
//!   lifted functions' original entries — untraced targets trap, faithful
//!   to "what you trace is what you get".

use std::collections::{BTreeMap, HashMap};
use wyt_ir::interp::layout_globals;
use wyt_ir::{BinOp, BlockId, CmpOp, Function, InstId, InstKind, Module, Term, Val};
use wyt_isa::asm::{Asm, Label};
use wyt_isa::image::{Image, Symbol};
use wyt_isa::{
    AluOp, Cc, GuardKind, GuardSite, Inst, Mem, Operand, Reg, ShiftAmount, ShiftOp, Size, TrapCode,
};

/// A lowering failure.
#[derive(Debug, Clone)]
pub struct BackendError {
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for BackendError {}

type BResult<T> = Result<T, BackendError>;

fn berr<T>(msg: impl Into<String>) -> BResult<T> {
    Err(BackendError { msg: msg.into() })
}

const SCRATCH: [Reg; 3] = [Reg::Eax, Reg::Ecx, Reg::Edx];
const PINNABLE: [Reg; 4] = [Reg::Ebx, Reg::Esi, Reg::Edi, Reg::Ebp];

const EAX: Operand = Operand::Reg(Reg::Eax);

fn movd(dst: Operand, src: Operand) -> Inst {
    Inst::Mov { size: Size::D, dst, src }
}

fn ir_ty_size(ty: wyt_ir::Ty) -> Size {
    match ty {
        wyt_ir::Ty::I8 => Size::B,
        wyt_ir::Ty::I16 => Size::W,
        wyt_ir::Ty::I32 => Size::D,
    }
}

fn cmp_cc(op: CmpOp) -> Cc {
    match op {
        CmpOp::Eq => Cc::E,
        CmpOp::Ne => Cc::Ne,
        CmpOp::SLt => Cc::L,
        CmpOp::SLe => Cc::Le,
        CmpOp::SGt => Cc::G,
        CmpOp::SGe => Cc::Ge,
        CmpOp::ULt => Cc::B,
        CmpOp::ULe => Cc::Be,
        CmpOp::UGt => Cc::A,
        CmpOp::UGe => Cc::Ae,
    }
}

/// Per-function lowering context.
struct FnLower<'m> {
    f: &'m Function,
    asm: &'m mut Asm,
    func_labels: &'m [Label],
    global_addrs: &'m [u32],
    /// Functions callable indirectly: (original entry, function index).
    indirect_targets: &'m [(u32, usize)],
    /// Original entry addresses per function (for `funcaddr`).
    orig_addrs: &'m [Option<u32>],
    block_labels: HashMap<BlockId, Label>,
    pinned: HashMap<InstId, Reg>,
    pinned_params: BTreeMap<u32, Reg>,
    alloca_off: HashMap<InstId, u32>,
    slot_base: u32,
    stage_base: u32,
    /// Frame size including saved pinned registers (for param addressing).
    frame_and_saved: u32,
    depth: u32,
    scratch: [Option<Val>; 3],
    remaining: HashMap<Val, u32>,
    fused: Vec<bool>,
    /// Values used outside their defining block (write-through at def).
    cross_block: Vec<bool>,
    /// Block-local values spilled to their slot in the current block.
    spilled: std::collections::HashSet<InstId>,
    epilogue: Label,
    /// Index of the function being lowered (for guard-site attribution).
    fidx: usize,
    /// Guard trap sites emitted so far: label bound at the trap
    /// instruction, owning function index, and site kind. Resolved to
    /// addresses once the whole module is assembled.
    guards: &'m mut Vec<(Label, usize, GuardKind)>,
}

impl<'m> FnLower<'m> {
    fn slot_mem_of_inst(&self, i: InstId) -> Mem {
        Mem::base_disp(Reg::Esp, (self.slot_base + 4 * i.0 + self.depth) as i32)
    }

    fn param_mem(&self, p: u32) -> Mem {
        Mem::base_disp(Reg::Esp, (self.frame_and_saved + 4 + 4 * p + self.depth) as i32)
    }

    fn stage_mem(&self, k: u32) -> Mem {
        Mem::base_disp(Reg::Esp, (self.stage_base + 4 * k + self.depth) as i32)
    }

    fn alloca_mem(&self, i: InstId) -> Mem {
        Mem::base_disp(Reg::Esp, (self.alloca_off[&i] + self.depth) as i32)
    }

    fn push_op(&mut self, src: Operand) {
        self.asm.emit(Inst::Push { src });
        self.depth += 4;
    }

    /// Emit a guard trap and record its site for attribution.
    fn emit_guard_trap(&mut self, kind: GuardKind) {
        let site = self.asm.here();
        self.guards.push((site, self.fidx, kind));
        self.asm.emit(Inst::Trap { code: kind.trap_code().code() });
    }

    fn add_esp(&mut self, n: u32) {
        if n > 0 {
            self.asm.emit(Inst::Alu {
                op: AluOp::Add,
                size: Size::D,
                dst: Operand::Reg(Reg::Esp),
                src: Operand::Imm(n as i32),
            });
            self.depth -= n;
        }
    }

    /// Current home operand of a value (no code emitted). Every executed
    /// value has one: constants are immediates, params and spilled values
    /// are frame slots, pinned values are registers, and scratch hits are
    /// preferred.
    fn loc_of(&self, v: Val) -> Operand {
        match v {
            Val::Const(c) => Operand::Imm(c),
            Val::Param(p) => match self.pinned_params.get(&p) {
                Some(r) => Operand::Reg(*r),
                None => Operand::Mem(self.param_mem(p)),
            },
            Val::Inst(i) => {
                if let Some(r) = self.pinned.get(&i) {
                    return Operand::Reg(*r);
                }
                for (k, s) in self.scratch.iter().enumerate() {
                    if *s == Some(v) {
                        return Operand::Reg(SCRATCH[k]);
                    }
                }
                debug_assert!(
                    self.cross_block[i.index()] || self.spilled.contains(&i),
                    "block-local value {i} lost without a spill"
                );
                Operand::Mem(self.slot_mem_of_inst(i))
            }
        }
    }

    fn forget_scratch(&mut self, r: Reg) {
        for (k, s) in self.scratch.iter_mut().enumerate() {
            if SCRATCH[k] == r {
                *s = None;
            }
        }
    }

    /// Forget all scratch contents, spilling live block-local values.
    fn clear_scratch(&mut self) {
        for r in SCRATCH {
            self.evict(r);
        }
    }

    /// Forget scratch contents without spilling (control-flow joins where
    /// the values are no longer needed or already consistent).
    fn reset_scratch(&mut self) {
        self.scratch = [None, None, None];
    }

    fn free_scratch(&mut self, avoid: &[Reg]) -> Reg {
        for (k, s) in self.scratch.iter().enumerate() {
            if s.is_none() && !avoid.contains(&SCRATCH[k]) {
                return SCRATCH[k];
            }
        }
        for (k, s) in self.scratch.iter().enumerate() {
            let dead = match s {
                Some(v) => self.remaining.get(v).copied().unwrap_or(0) == 0,
                None => true,
            };
            if dead && !avoid.contains(&SCRATCH[k]) {
                let r = SCRATCH[k];
                self.forget_scratch(r);
                return r;
            }
        }
        for r in SCRATCH {
            if !avoid.contains(&r) {
                self.evict(r);
                return r;
            }
        }
        unreachable!("three scratch registers, at most two avoided")
    }

    /// Evict a scratch register, spilling a live block-local value first.
    fn evict(&mut self, r: Reg) {
        let k = SCRATCH.iter().position(|x| *x == r).expect("scratch");
        if let Some(Val::Inst(i)) = self.scratch[k] {
            let live = self.remaining.get(&Val::Inst(i)).copied().unwrap_or(0) > 0;
            if live
                && !self.cross_block[i.index()]
                && !self.spilled.contains(&i)
                && !self.pinned.contains_key(&i)
            {
                let m = self.slot_mem_of_inst(i);
                self.asm.emit(movd(Operand::Mem(m), Operand::Reg(r)));
                self.spilled.insert(i);
            }
        }
        self.scratch[k] = None;
    }

    fn set_scratch(&mut self, r: Reg, v: Val) {
        for (k, s) in self.scratch.iter_mut().enumerate() {
            if SCRATCH[k] == r {
                *s = Some(v);
            } else if *s == Some(v) {
                *s = None;
            }
        }
    }

    fn val_to_reg(&mut self, v: Val, want: Option<Reg>, avoid: &[Reg]) -> Reg {
        let loc = self.loc_of(v);
        match (loc, want) {
            (Operand::Reg(r), None) if !avoid.contains(&r) => r,
            (loc, want) => {
                let dst = match want {
                    Some(r) => {
                        // Forcing a specific register: spill whatever live
                        // value it may hold first.
                        if SCRATCH.contains(&r) && loc != Operand::Reg(r) {
                            self.evict(r);
                        }
                        r
                    }
                    None => self.free_scratch(avoid),
                };
                if loc != Operand::Reg(dst) {
                    self.asm.emit(movd(Operand::Reg(dst), loc));
                }
                if SCRATCH.contains(&dst) {
                    self.set_scratch(dst, v);
                }
                dst
            }
        }
    }

    fn consume(&mut self, v: Val) {
        if let Some(c) = self.remaining.get_mut(&v) {
            *c = c.saturating_sub(1);
        }
    }

    fn finish_result(&mut self, id: InstId, r: Reg) {
        if let Some(&p) = self.pinned.get(&id) {
            if p != r {
                self.asm.emit(movd(Operand::Reg(p), Operand::Reg(r)));
            }
            if SCRATCH.contains(&r) {
                self.set_scratch(r, Val::Inst(id));
            }
            return;
        }
        // Write through only values that other blocks will read; purely
        // block-local values stay in scratch (spilled on demand).
        if self.cross_block[id.index()] {
            let m = self.slot_mem_of_inst(id);
            self.asm.emit(movd(Operand::Mem(m), Operand::Reg(r)));
        }
        if SCRATCH.contains(&r) {
            self.set_scratch(r, Val::Inst(id));
        }
    }

    fn addr_operand(&mut self, addr: Val) -> Mem {
        if let Val::Const(c) = addr {
            return Mem::abs(c);
        }
        if let Val::Inst(i) = addr {
            if self.fused[i.index()] {
                if let InstKind::Bin { op, a, b } = self.f.inst(i) {
                    let (base, disp) = match (op, a, b) {
                        (BinOp::Add, x, Val::Const(c)) => (*x, *c),
                        (BinOp::Add, Val::Const(c), x) => (*x, *c),
                        (BinOp::Sub, x, Val::Const(c)) => (*x, -*c),
                        _ => unreachable!("fused non-foldable"),
                    };
                    if let Val::Const(cb) = base {
                        return Mem::abs(cb.wrapping_add(disp));
                    }
                    let r = self.val_to_reg(base, None, &[]);
                    self.consume(base);
                    return Mem::base_disp(r, disp);
                }
            }
        }
        let r = self.val_to_reg(addr, None, &[]);
        Mem::base_disp(r, 0)
    }
}

/// Compute loop-depth-weighted scores and pick pinned values. Pinned
/// params come back ordered by index, because the prologue loads them in
/// map order and the emitted code must not depend on hash seeds.
fn pick_pinned(f: &Function) -> (HashMap<InstId, Reg>, BTreeMap<u32, Reg>, Vec<Reg>, Vec<bool>) {
    let rpo = f.rpo();
    let mut order = HashMap::new();
    for (i, b) in rpo.iter().enumerate() {
        order.insert(*b, i);
    }
    let mut depth = vec![0u32; f.blocks.len()];
    for &b in &rpo {
        f.blocks[b.index()].term.for_each_succ(|s| {
            if let (Some(&lo), Some(&hi)) = (order.get(&s), order.get(&b)) {
                if lo <= hi {
                    for &x in &rpo[lo..=hi] {
                        depth[x.index()] += 1;
                    }
                }
            }
        });
    }

    let mut def_block: HashMap<InstId, BlockId> = HashMap::new();
    for &b in &rpo {
        for &i in &f.blocks[b.index()].insts {
            def_block.insert(i, b);
        }
    }
    let mut cross = vec![false; f.insts.len()];
    let mut score: HashMap<Val, u64> = HashMap::new();
    for &b in &rpo {
        let w = 1u64 << (2 * depth[b.index()].min(8));
        let mut uses: Vec<Val> = Vec::new();
        for &i in &f.blocks[b.index()].insts {
            f.inst(i).for_each_operand(|v| uses.push(v));
            if matches!(f.inst(i), InstKind::Phi { .. }) {
                cross[i.index()] = true;
                *score.entry(Val::Inst(i)).or_insert(0) += w;
            }
        }
        f.blocks[b.index()].term.for_each_operand(|v| uses.push(v));
        for v in uses {
            if let Val::Inst(i) = v {
                if def_block.get(&i) != Some(&b) {
                    cross[i.index()] = true;
                }
            }
            *score.entry(v).or_insert(0) += w;
        }
    }

    let mut cands: Vec<(Val, u64)> = score
        .into_iter()
        .filter(|(v, _)| match v {
            Val::Inst(i) => cross[i.index()] && !matches!(f.inst(*i), InstKind::Alloca { .. }),
            Val::Param(_) => true,
            Val::Const(_) => false,
        })
        .collect();
    cands.sort_by(|a, b| {
        b.1.cmp(&a.1).then_with(|| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)))
    });

    let mut pinned = HashMap::new();
    let mut pinned_params = BTreeMap::new();
    let mut used = Vec::new();
    for (v, s) in cands {
        if used.len() >= PINNABLE.len() {
            break;
        }
        if s < 8 {
            continue;
        }
        let r = PINNABLE[used.len()];
        match v {
            Val::Inst(i) => {
                pinned.insert(i, r);
            }
            Val::Param(p) => {
                pinned_params.insert(p, r);
            }
            Val::Const(_) => continue,
        }
        used.push(r);
    }
    (pinned, pinned_params, used, cross)
}

#[allow(clippy::too_many_arguments)]
fn lower_function(
    module: &Module,
    fidx: usize,
    asm: &mut Asm,
    func_labels: &[Label],
    global_addrs: &[u32],
    indirect_targets: &[(u32, usize)],
    orig_addrs: &[Option<u32>],
    guards: &mut Vec<(Label, usize, GuardKind)>,
) -> BResult<()> {
    let f = &module.funcs[fidx];
    let rpo = f.rpo();
    let (pinned, pinned_params, used_pinned, cross_block) = pick_pinned(f);

    let use_counts = f.use_counts();
    let mut fused = vec![false; f.insts.len()];
    let mut def_block: HashMap<InstId, BlockId> = HashMap::new();
    for &b in &rpo {
        for &i in &f.blocks[b.index()].insts {
            def_block.insert(i, b);
        }
    }
    for &b in &rpo {
        for &i in &f.blocks[b.index()].insts {
            let addr_of = match f.inst(i) {
                InstKind::Load { addr, .. } => Some(*addr),
                InstKind::Store { addr, .. } => Some(*addr),
                _ => None,
            };
            if let Some(Val::Inst(a)) = addr_of {
                if use_counts[a.index()] == 1
                    && def_block.get(&a) == Some(&b)
                    && !pinned.contains_key(&a)
                    && matches!(
                        f.inst(a),
                        InstKind::Bin { op: BinOp::Add, b: Val::Const(_), .. }
                            | InstKind::Bin { op: BinOp::Add, a: Val::Const(_), .. }
                            | InstKind::Bin { op: BinOp::Sub, b: Val::Const(_), .. }
                    )
                {
                    fused[a.index()] = true;
                }
            }
        }
        if let Term::CondBr { c: Val::Inst(ci), .. } = f.blocks[b.index()].term {
            if use_counts[ci.index()] == 1
                && def_block.get(&ci) == Some(&b)
                && matches!(f.inst(ci), InstKind::Cmp { .. })
                && !pinned.contains_key(&ci)
            {
                fused[ci.index()] = true;
            }
        }
    }

    let mut alloca_off = HashMap::new();
    let mut off = 0u32;
    let mut max_phis = 0usize;
    for &b in &rpo {
        let mut phis = 0;
        for &i in &f.blocks[b.index()].insts {
            if let InstKind::Alloca { size, align, .. } = f.inst(i) {
                let a = (*align).max(4);
                off = (off + a - 1) & !(a - 1);
                alloca_off.insert(i, off);
                off += (*size).max(1);
            }
            if matches!(f.inst(i), InstKind::Phi { .. }) {
                phis += 1;
            }
        }
        max_phis = max_phis.max(phis);
    }
    off = (off + 3) & !3;
    let slot_base = off;
    off += 4 * f.insts.len() as u32;
    let stage_base = off;
    off += 4 * max_phis as u32;
    let frame_size = (off + 3) & !3;

    let mut block_labels = HashMap::new();
    for &b in &rpo {
        block_labels.insert(b, asm.fresh_label());
    }
    let epilogue = asm.fresh_label();

    asm.bind(func_labels[fidx]);
    for r in &used_pinned {
        asm.emit(Inst::Push { src: Operand::Reg(*r) });
    }
    if frame_size > 0 {
        asm.emit(Inst::Alu {
            op: AluOp::Sub,
            size: Size::D,
            dst: Operand::Reg(Reg::Esp),
            src: Operand::Imm(frame_size as i32),
        });
    }
    let saved_bytes = 4 * used_pinned.len() as u32;

    let mut lw = FnLower {
        f,
        asm,
        func_labels,
        global_addrs,
        indirect_targets,
        orig_addrs,
        block_labels,
        pinned,
        pinned_params: pinned_params.clone(),
        alloca_off,
        slot_base,
        stage_base,
        frame_and_saved: frame_size + saved_bytes,
        depth: 0,
        scratch: [None, None, None],
        remaining: HashMap::new(),
        fused,
        cross_block,
        spilled: std::collections::HashSet::new(),
        epilogue,
        fidx,
        guards,
    };

    for (p, r) in pinned_params {
        let m = lw.param_mem(p);
        lw.asm.emit(movd(Operand::Reg(r), Operand::Mem(m)));
    }

    for (bi, &b) in rpo.iter().enumerate() {
        let l = lw.block_labels[&b];
        lw.asm.bind(l);
        lw.reset_scratch();
        lw.spilled.clear();
        debug_assert_eq!(lw.depth, 0);

        lw.remaining.clear();
        for &i in &f.blocks[b.index()].insts {
            f.inst(i).for_each_operand(|v| {
                *lw.remaining.entry(v).or_insert(0) += 1;
            });
        }
        f.blocks[b.index()].term.for_each_operand(|v| {
            *lw.remaining.entry(v).or_insert(0) += 1;
        });
        // Successor phis read values at this block's edges.
        f.blocks[b.index()].term.for_each_succ(|succ| {
            for &i in &f.blocks[succ.index()].insts {
                match f.inst(i) {
                    InstKind::Phi { incomings } => {
                        for (p, v) in incomings {
                            if *p == b {
                                *lw.remaining.entry(*v).or_insert(0) += 1;
                            }
                        }
                    }
                    _ => break,
                }
            }
        });

        for &i in &f.blocks[b.index()].insts {
            if lw.fused[i.index()] {
                continue;
            }
            lower_inst(&mut lw, i)?;
        }
        let next = rpo.get(bi + 1).copied();
        lower_term(&mut lw, b, next)?;
    }

    lw.asm.bind(epilogue);
    if frame_size > 0 {
        lw.asm.emit(Inst::Alu {
            op: AluOp::Add,
            size: Size::D,
            dst: Operand::Reg(Reg::Esp),
            src: Operand::Imm(frame_size as i32),
        });
    }
    for r in used_pinned.iter().rev() {
        lw.asm.emit(Inst::Pop { dst: Operand::Reg(*r) });
    }
    lw.asm.emit(Inst::Ret { pop: 0 });
    Ok(())
}

fn alu_of(op: BinOp) -> Option<AluOp> {
    Some(match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::And => AluOp::And,
        BinOp::Or => AluOp::Or,
        BinOp::Xor => AluOp::Xor,
        _ => return None,
    })
}

fn lower_inst(lw: &mut FnLower<'_>, id: InstId) -> BResult<()> {
    let kind = lw.f.inst(id).clone();
    match kind {
        InstKind::Bin { op, a, b } => {
            if let Some(aluop) = alu_of(op) {
                let bop0 = lw.loc_of(b);
                let avoid = operand_regs(&bop0);
                // Reuse a's register as the destination when this is its
                // last use and it does not clash with b.
                let dst = match lw.loc_of(a) {
                    Operand::Reg(r)
                        if SCRATCH.contains(&r)
                            && !avoid.contains(&r)
                            && a != b
                            && lw.remaining.get(&a).copied().unwrap_or(0) == 1 =>
                    {
                        r
                    }
                    aop => {
                        let d = lw.free_scratch(&avoid);
                        lw.asm.emit(movd(Operand::Reg(d), aop));
                        d
                    }
                };
                let bop = lw.loc_of(b);
                lw.asm.emit(Inst::Alu {
                    op: aluop,
                    size: Size::D,
                    dst: Operand::Reg(dst),
                    src: bop,
                });
                lw.consume(a);
                lw.consume(b);
                lw.finish_result(id, dst);
            } else if op == BinOp::Mul {
                let bop0 = lw.loc_of(b);
                let dst = lw.free_scratch(&operand_regs(&bop0));
                let aop = lw.loc_of(a);
                lw.asm.emit(movd(Operand::Reg(dst), aop));
                match lw.loc_of(b) {
                    Operand::Imm(c) => {
                        lw.asm.emit(Inst::ImulI { dst, src: Operand::Reg(dst), imm: c })
                    }
                    other => lw.asm.emit(Inst::Imul { dst, src: other }),
                }
                lw.consume(a);
                lw.consume(b);
                lw.finish_result(id, dst);
            } else if op == BinOp::DivS || op == BinOp::RemS {
                // Stage: dividend in eax; divisor somewhere idiv-safe.
                let _ = lw.val_to_reg(a, Some(Reg::Eax), &[]);
                match lw.loc_of(b) {
                    Operand::Reg(Reg::Eax) | Operand::Reg(Reg::Edx) | Operand::Imm(_) => {
                        let _ = lw.val_to_reg(b, Some(Reg::Ecx), &[Reg::Eax]);
                    }
                    _ => {}
                }
                lw.consume(a);
                lw.consume(b);
                // idiv clobbers eax and edx: spill anything live there
                // (physical contents remain valid for the instruction).
                lw.evict(Reg::Eax);
                lw.evict(Reg::Edx);
                let bop = lw.loc_of(b);
                lw.asm.emit(Inst::Idiv { src: bop });
                let res = if op == BinOp::DivS { Reg::Eax } else { Reg::Edx };
                lw.finish_result(id, res);
            } else {
                let sop = match op {
                    BinOp::Shl => ShiftOp::Shl,
                    BinOp::ShrL => ShiftOp::Shr,
                    BinOp::ShrA => ShiftOp::Sar,
                    _ => unreachable!(),
                };
                if let Val::Const(c) = b {
                    let dst = lw.free_scratch(&[]);
                    let aop = lw.loc_of(a);
                    lw.asm.emit(movd(Operand::Reg(dst), aop));
                    lw.asm.emit(Inst::Shift {
                        op: sop,
                        size: Size::D,
                        dst: Operand::Reg(dst),
                        amount: ShiftAmount::Imm((c & 31) as u8),
                    });
                    lw.consume(a);
                    lw.consume(b);
                    lw.finish_result(id, dst);
                } else {
                    let _ = lw.val_to_reg(b, Some(Reg::Ecx), &[]);
                    let dst = lw.free_scratch(&[Reg::Ecx]);
                    let aop = lw.loc_of(a);
                    lw.asm.emit(movd(Operand::Reg(dst), aop));
                    lw.asm.emit(Inst::Shift {
                        op: sop,
                        size: Size::D,
                        dst: Operand::Reg(dst),
                        amount: ShiftAmount::Cl,
                    });
                    lw.consume(a);
                    lw.consume(b);
                    lw.finish_result(id, dst);
                }
            }
        }
        InstKind::Cmp { op, a, b } => {
            let bop0 = lw.loc_of(b);
            let ra = lw.val_to_reg(a, None, &operand_regs(&bop0));
            let bop = lw.loc_of(b);
            lw.asm.emit(Inst::Cmp { size: Size::D, a: Operand::Reg(ra), b: bop });
            lw.consume(a);
            lw.consume(b);
            let dst = lw.free_scratch(&[]);
            lw.asm.emit(Inst::Setcc { cc: cmp_cc(op), dst });
            lw.asm.emit(Inst::Movzx { from: Size::B, dst, src: Operand::Reg(dst) });
            lw.finish_result(id, dst);
        }
        InstKind::Ext { signed, from, v } => {
            let r = lw.val_to_reg(v, None, &[]);
            let dst = lw.free_scratch(&[]);
            let fr = ir_ty_size(from);
            if signed {
                lw.asm.emit(Inst::Movsx { from: fr, dst, src: Operand::Reg(r) });
            } else {
                lw.asm.emit(Inst::Movzx { from: fr, dst, src: Operand::Reg(r) });
            }
            lw.consume(v);
            lw.finish_result(id, dst);
        }
        InstKind::Load { ty, addr } => {
            let m = lw.addr_operand(addr);
            lw.consume(addr);
            let dst = lw.free_scratch(&mem_regs(&m));
            match ir_ty_size(ty) {
                Size::D => lw.asm.emit(movd(Operand::Reg(dst), Operand::Mem(m))),
                s => lw.asm.emit(Inst::Movzx { from: s, dst, src: Operand::Mem(m) }),
            }
            lw.finish_result(id, dst);
        }
        InstKind::Store { ty, addr, val } => {
            let m = lw.addr_operand(addr);
            let avoid = mem_regs(&m);
            let size = ir_ty_size(ty);
            match lw.loc_of(val) {
                Operand::Imm(c) => {
                    lw.asm.emit(Inst::Mov { size, dst: Operand::Mem(m), src: Operand::Imm(c) });
                }
                _ => {
                    let rv = lw.val_to_reg(val, None, &avoid);
                    lw.asm.emit(Inst::Mov { size, dst: Operand::Mem(m), src: Operand::Reg(rv) });
                }
            }
            lw.consume(addr);
            lw.consume(val);
        }
        InstKind::Alloca { .. } => {
            let m = lw.alloca_mem(id);
            let dst = lw.free_scratch(&[]);
            lw.asm.emit(Inst::Lea { dst, mem: m });
            lw.finish_result(id, dst);
        }
        InstKind::GlobalAddr { g } => {
            let dst = lw.free_scratch(&[]);
            lw.asm.emit(movd(Operand::Reg(dst), Operand::Imm(lw.global_addrs[g.index()] as i32)));
            lw.finish_result(id, dst);
        }
        InstKind::FuncAddr { f: target } => {
            let dst = lw.free_scratch(&[]);
            // Function addresses keep their original values so they stay
            // consistent with address tables in the (unrewritten) data.
            match lw.orig_addrs[target.index()] {
                Some(orig) => lw.asm.emit(movd(Operand::Reg(dst), Operand::Imm(orig as i32))),
                None => {
                    let l = lw.func_labels[target.index()];
                    lw.asm.mov_label(dst, l);
                }
            }
            lw.finish_result(id, dst);
        }
        InstKind::Call { f: target, ref args } => {
            for a in args.iter().rev() {
                let op = lw.loc_of(*a);
                lw.push_op(op);
                lw.consume(*a);
            }
            lw.clear_scratch();
            let l = lw.func_labels[target.index()];
            lw.asm.call(l);
            lw.add_esp(4 * args.len() as u32);
            lw.finish_result(id, Reg::Eax);
        }
        InstKind::CallInd { target, ref args } => {
            for a in args.iter().rev() {
                let op = lw.loc_of(*a);
                lw.push_op(op);
                lw.consume(*a);
            }
            let rt = lw.val_to_reg(target, None, &[]);
            lw.consume(target);
            // Spill live scratch values *before* the call chain clobbers
            // the caller-saved registers (rt keeps its physical value).
            lw.clear_scratch();
            // Dispatch over the known lifted entries (original addresses).
            let done = lw.asm.fresh_label();
            let mut arms: Vec<(Label, usize)> = Vec::new();
            for (orig, fidx) in lw.indirect_targets.iter() {
                let l = lw.asm.fresh_label();
                lw.asm.emit(Inst::Cmp {
                    size: Size::D,
                    a: Operand::Reg(rt),
                    b: Operand::Imm(*orig as i32),
                });
                lw.asm.jcc(Cc::E, l);
                arms.push((l, *fidx));
            }
            lw.emit_guard_trap(GuardKind::UntracedIndirect); // untraced indirect target
            for (l, fidx) in arms {
                lw.asm.bind(l);
                let fl = lw.func_labels[fidx];
                lw.asm.call(fl);
                lw.asm.jmp(done);
            }
            lw.asm.bind(done);
            lw.reset_scratch();
            lw.add_esp(4 * args.len() as u32);
            lw.finish_result(id, Reg::Eax);
        }
        InstKind::CallExt { ext, ref args } => {
            for a in args.iter().rev() {
                let op = lw.loc_of(*a);
                lw.push_op(op);
                lw.consume(*a);
            }
            lw.clear_scratch();
            lw.asm.emit(Inst::CallExt { idx: ext });
            lw.add_esp(4 * args.len() as u32);
            lw.finish_result(id, Reg::Eax);
        }
        InstKind::CallExtRaw { ext, sp } => {
            let rsp = lw.val_to_reg(sp, None, &[Reg::Edx]);
            lw.consume(sp);
            // Spill live scratch values before the stack switch clobbers
            // edx/eax (the physical rsp register keeps its value).
            lw.clear_scratch();
            lw.asm.emit(movd(Operand::Reg(Reg::Edx), Operand::Reg(Reg::Esp)));
            lw.asm.emit(movd(Operand::Reg(Reg::Esp), Operand::Reg(rsp)));
            lw.asm.emit(Inst::CallExt { idx: ext });
            lw.asm.emit(movd(Operand::Reg(Reg::Esp), Operand::Reg(Reg::Edx)));
            lw.finish_result(id, Reg::Eax);
        }
        InstKind::Select { c, a, b } => {
            let rc = lw.val_to_reg(c, None, &[]);
            lw.consume(c);
            let aop = lw.loc_of(a);
            let bop_pre = lw.loc_of(b);
            let mut avoid = operand_regs(&aop);
            avoid.extend(operand_regs(&bop_pre));
            avoid.push(rc);
            let dst = lw.free_scratch(&avoid);
            // The internal branch invalidates the scratch model; make all
            // live block-locals addressable first.
            lw.clear_scratch();
            lw.asm.emit(movd(Operand::Reg(dst), aop));
            lw.asm.emit(Inst::Test { size: Size::D, a: Operand::Reg(rc), b: Operand::Reg(rc) });
            let done = lw.asm.fresh_label();
            lw.asm.jcc(Cc::Ne, done);
            lw.asm.emit(movd(Operand::Reg(dst), bop_pre));
            lw.asm.bind(done);
            lw.consume(a);
            lw.consume(b);
            lw.finish_result(id, dst);
        }
        InstKind::Phi { .. } => {}
        InstKind::Copy { v } => {
            let r = lw.val_to_reg(v, None, &[]);
            lw.consume(v);
            lw.finish_result(id, r);
        }
    }
    Ok(())
}

fn operand_regs(op: &Operand) -> Vec<Reg> {
    match op {
        Operand::Reg(r) => vec![*r],
        Operand::Mem(m) => mem_regs(m),
        Operand::Imm(_) => vec![],
    }
}

fn mem_regs(m: &Mem) -> Vec<Reg> {
    let mut v = Vec::new();
    if let Some(b) = m.base {
        v.push(b);
    }
    if let Some((i, _)) = m.index {
        v.push(i);
    }
    v
}

fn emit_edge(lw: &mut FnLower<'_>, from: BlockId, to: BlockId, then_jump: bool) -> BResult<()> {
    let mut pending: Vec<(InstId, Val)> = lw.f.blocks[to.index()]
        .insts
        .iter()
        .map_while(|&i| match lw.f.inst(i) {
            InstKind::Phi { incomings } => {
                incomings.iter().find(|(p, _)| *p == from).map(|(_, v)| (i, *v))
            }
            _ => None,
        })
        .collect();

    let write_phi = |lw: &mut FnLower<'_>, phi: InstId, v: Val| match lw.pinned.get(&phi).copied() {
        Some(p) => {
            let loc = lw.loc_of(v);
            if loc != Operand::Reg(p) {
                lw.asm.emit(movd(Operand::Reg(p), loc));
            }
        }
        None => {
            let sm = lw.slot_mem_of_inst(phi);
            match lw.loc_of(v) {
                Operand::Imm(c) => lw.asm.emit(movd(Operand::Mem(sm), Operand::Imm(c))),
                _ => {
                    let r = lw.val_to_reg(v, None, &[]);
                    lw.asm.emit(movd(Operand::Mem(sm), Operand::Reg(r)));
                }
            }
        }
    };

    // Ordered parallel copy: repeatedly emit a move whose target is not
    // read by any remaining incoming; stage the residual cycle, if any.
    while !pending.is_empty() {
        let pos = pending.iter().position(|(phi, _)| {
            !pending.iter().any(|(other, v)| *v == Val::Inst(*phi) && *other != *phi)
        });
        match pos {
            Some(k) => {
                let (phi, v) = pending.remove(k);
                if v != Val::Inst(phi) {
                    write_phi(lw, phi, v);
                    // A scratch entry claiming the phi now refers to its
                    // *old* value; drop it so later code reloads.
                    for slot in lw.scratch.iter_mut() {
                        if *slot == Some(Val::Inst(phi)) {
                            *slot = None;
                        }
                    }
                }
            }
            None => {
                // A genuine cycle: two-phase through staging slots.
                for (k, (_, v)) in pending.iter().enumerate() {
                    let r = lw.val_to_reg(*v, None, &[]);
                    let m = lw.stage_mem(k as u32);
                    lw.asm.emit(movd(Operand::Mem(m), Operand::Reg(r)));
                }
                let staged: Vec<InstId> = pending.iter().map(|(p, _)| *p).collect();
                // eax is the staging shuttle: spill whatever lives there.
                lw.evict(Reg::Eax);
                for (k, phi) in staged.into_iter().enumerate() {
                    let m = lw.stage_mem(k as u32);
                    match lw.pinned.get(&phi).copied() {
                        Some(p) => lw.asm.emit(movd(Operand::Reg(p), Operand::Mem(m))),
                        None => {
                            let sm = lw.slot_mem_of_inst(phi);
                            lw.asm.emit(movd(Operand::Reg(Reg::Eax), Operand::Mem(m)));
                            lw.asm.emit(movd(Operand::Mem(sm), EAX));
                        }
                    }
                    for slot in lw.scratch.iter_mut() {
                        if *slot == Some(Val::Inst(phi)) {
                            *slot = None;
                        }
                    }
                }
                pending.clear();
            }
        }
    }
    if then_jump {
        let l = lw.block_labels[&to];
        lw.asm.jmp(l);
    }
    Ok(())
}

fn has_phis(f: &Function, b: BlockId) -> bool {
    f.blocks[b.index()]
        .insts
        .first()
        .map(|&i| matches!(f.inst(i), InstKind::Phi { .. }))
        .unwrap_or(false)
}

fn lower_term(lw: &mut FnLower<'_>, b: BlockId, next_in_layout: Option<BlockId>) -> BResult<()> {
    let term = lw.f.blocks[b.index()].term.clone();
    match term {
        Term::Br(t) => {
            let fall = next_in_layout == Some(t);
            emit_edge(lw, b, t, !fall)?;
        }
        Term::CondBr { c, t, f: fe } => {
            let mut emitted_cmp = false;
            let mut cc = Cc::Ne;
            if let Val::Inst(ci) = c {
                if lw.fused[ci.index()] {
                    let InstKind::Cmp { op, a, b: bb } = lw.f.inst(ci).clone() else {
                        unreachable!()
                    };
                    let bop0 = lw.loc_of(bb);
                    let ra = lw.val_to_reg(a, None, &operand_regs(&bop0));
                    let bop = lw.loc_of(bb);
                    lw.asm.emit(Inst::Cmp { size: Size::D, a: Operand::Reg(ra), b: bop });
                    cc = cmp_cc(op);
                    emitted_cmp = true;
                }
            }
            if !emitted_cmp {
                let rc = lw.val_to_reg(c, None, &[]);
                lw.asm.emit(Inst::Test { size: Size::D, a: Operand::Reg(rc), b: Operand::Reg(rc) });
                cc = Cc::Ne;
            }
            let t_needs = has_phis(lw.f, t);
            let f_needs = has_phis(lw.f, fe);
            if !t_needs && !f_needs {
                let tl = lw.block_labels[&t];
                lw.asm.jcc(cc, tl);
                if next_in_layout != Some(fe) {
                    let fl = lw.block_labels[&fe];
                    lw.asm.jmp(fl);
                }
            } else {
                let ttramp = lw.asm.fresh_label();
                lw.asm.jcc(cc, ttramp);
                let snap_scratch = lw.scratch;
                let snap_spilled = lw.spilled.clone();
                emit_edge(lw, b, fe, true)?;
                lw.asm.bind(ttramp);
                // The taken path branches from the jcc: restore the
                // register/spill model as of that point.
                lw.scratch = snap_scratch;
                lw.spilled = snap_spilled;
                emit_edge(lw, b, t, true)?;
            }
        }
        Term::Switch { v, cases, default } => {
            let rv = lw.val_to_reg(v, None, &[]);
            let mut tramps: Vec<(Label, BlockId)> = Vec::new();
            for (cv, target) in &cases {
                lw.asm.emit(Inst::Cmp { size: Size::D, a: Operand::Reg(rv), b: Operand::Imm(*cv) });
                if has_phis(lw.f, *target) {
                    let tl = lw.asm.fresh_label();
                    lw.asm.jcc(Cc::E, tl);
                    tramps.push((tl, *target));
                } else {
                    let bl = lw.block_labels[target];
                    lw.asm.jcc(Cc::E, bl);
                }
            }
            let snap_scratch = lw.scratch;
            let snap_spilled = lw.spilled.clone();
            emit_edge(lw, b, default, true)?;
            for (tl, target) in tramps {
                lw.asm.bind(tl);
                lw.scratch = snap_scratch;
                lw.spilled = snap_spilled.clone();
                emit_edge(lw, b, target, true)?;
            }
        }
        Term::Ret(v) => {
            if let Some(v) = v {
                let _ = lw.val_to_reg(v, Some(Reg::Eax), &[]);
            }
            lw.asm.jmp(lw.epilogue);
        }
        Term::Trap(c) => match TrapCode::guard_kind(c) {
            Some(kind) => lw.emit_guard_trap(kind),
            None => lw.asm.emit(Inst::Trap { code: c }),
        },
        Term::Unreachable => lw.asm.emit(Inst::Trap { code: TrapCode::Unreachable.code() }),
    }
    Ok(())
}

/// Lower a module to an executable image.
///
/// The module's entry function becomes the image entry; globals keep their
/// fixed addresses (via the same layout as the interpreter) and
/// initialized data must live at or above the data base.
///
/// # Errors
/// Returns a [`BackendError`] for malformed modules.
pub fn lower_module(module: &Module) -> Result<Image, BackendError> {
    let _s = wyt_obs::Span::enter("lower");
    let Some(entry) = module.entry else {
        return berr("module has no entry function");
    };
    let global_addrs = layout_globals(&module.globals);

    let mut image = Image::new();
    let mut data_end = image.data_base;
    for (g, &addr) in module.globals.iter().zip(&global_addrs) {
        if !g.init.is_empty() {
            if addr < image.data_base {
                return berr(format!("initialized global {} below data base", g.name));
            }
            data_end = data_end.max(addr + g.init.len() as u32);
        }
    }
    let mut data = vec![0u8; (data_end - image.data_base) as usize];
    for (g, &addr) in module.globals.iter().zip(&global_addrs) {
        if !g.init.is_empty() {
            let off = (addr - image.data_base) as usize;
            data[off..off + g.init.len()].copy_from_slice(&g.init);
        }
    }
    image.data = data;
    image.imports = module.externs.clone();

    let orig_addrs: Vec<Option<u32>> = module.funcs.iter().map(|f| f.orig_addr).collect();
    let indirect_targets: Vec<(u32, usize)> =
        module.funcs.iter().enumerate().filter_map(|(i, f)| f.orig_addr.map(|a| (a, i))).collect();

    let mut asm = Asm::new();
    let func_labels: Vec<Label> = module.funcs.iter().map(|_| asm.fresh_label()).collect();
    let mut guards: Vec<(Label, usize, GuardKind)> = Vec::new();
    for fidx in 0..module.funcs.len() {
        lower_function(
            module,
            fidx,
            &mut asm,
            &func_labels,
            &global_addrs,
            &indirect_targets,
            &orig_addrs,
            &mut guards,
        )?;
    }
    let assembled = asm.finish(image.text_base);
    image.entry = assembled.addr_of(func_labels[entry.index()]);
    image.guard_sites = guards
        .into_iter()
        .map(|(l, fidx, kind)| GuardSite { pc: assembled.addr_of(l), func: fidx as u32, kind })
        .collect();
    image.guard_sites.sort_by_key(|s| s.pc);
    for (fidx, f) in module.funcs.iter().enumerate() {
        image
            .symbols
            .push(Symbol { name: f.name.clone(), addr: assembled.addr_of(func_labels[fidx]) });
    }
    image.text = assembled.bytes;
    if wyt_obs::enabled() {
        wyt_obs::counter("lower.text_bytes", image.text.len() as u64);
        wyt_obs::counter("lower.data_bytes", image.data.len() as u64);
        wyt_obs::counter("lower.funcs", module.funcs.len() as u64);
    }
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wyt_emu::run_image;
    use wyt_ir::{Global, GlobalKind, Ty};

    fn run_module(m: &Module, input: &[u8]) -> wyt_emu::RunResult {
        let img = lower_module(m).unwrap();
        run_image(&img, input.to_vec())
    }

    #[test]
    fn lowers_arithmetic() {
        let mut m = Module::new();
        let mut f = Function::new("main");
        let a = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Mul, a: Val::Const(6), b: Val::Const(7) },
        );
        f.blocks[0].term = Term::Ret(Some(Val::Inst(a)));
        let id = m.add_func(f);
        m.entry = Some(id);
        assert_eq!(run_module(&m, b"").exit_code, 42);
    }

    #[test]
    fn lowers_loop_with_phis() {
        let mut m = Module::new();
        let mut f = Function::new("main");
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        f.blocks[0].term = Term::Br(header);
        let phi_i = f.add_inst(InstKind::Phi { incomings: vec![] });
        let phi_s = f.add_inst(InstKind::Phi { incomings: vec![] });
        f.blocks[header.index()].insts = vec![phi_i, phi_s];
        let c = f.push_inst(
            header,
            InstKind::Cmp { op: CmpOp::SLt, a: Val::Inst(phi_i), b: Val::Const(10) },
        );
        f.blocks[header.index()].term = Term::CondBr { c: Val::Inst(c), t: body, f: exit };
        let s2 = f.push_inst(
            body,
            InstKind::Bin { op: BinOp::Add, a: Val::Inst(phi_s), b: Val::Inst(phi_i) },
        );
        let i2 = f.push_inst(
            body,
            InstKind::Bin { op: BinOp::Add, a: Val::Inst(phi_i), b: Val::Const(1) },
        );
        f.blocks[body.index()].term = Term::Br(header);
        *f.inst_mut(phi_i) =
            InstKind::Phi { incomings: vec![(BlockId(0), Val::Const(0)), (body, Val::Inst(i2))] };
        *f.inst_mut(phi_s) =
            InstKind::Phi { incomings: vec![(BlockId(0), Val::Const(0)), (body, Val::Inst(s2))] };
        f.blocks[exit.index()].term = Term::Ret(Some(Val::Inst(phi_s)));
        let id = m.add_func(f);
        m.entry = Some(id);
        wyt_ir::verify::verify_module(&m).unwrap();
        assert_eq!(run_module(&m, b"").exit_code, 45);
    }

    #[test]
    fn lowers_calls_allocas_and_memory() {
        let mut m = Module::new();
        let mut callee = Function::new("sq");
        callee.num_params = 1;
        let r = callee.push_inst(
            callee.entry,
            InstKind::Bin { op: BinOp::Mul, a: Val::Param(0), b: Val::Param(0) },
        );
        callee.blocks[0].term = Term::Ret(Some(Val::Inst(r)));
        let cid = m.add_func(callee);

        let mut f = Function::new("main");
        let slot = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "x".into() });
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I32, addr: Val::Inst(slot), val: Val::Const(5) },
        );
        let l = f.push_inst(f.entry, InstKind::Load { ty: Ty::I32, addr: Val::Inst(slot) });
        let c = f.push_inst(f.entry, InstKind::Call { f: cid, args: vec![Val::Inst(l)] });
        let sum = f
            .push_inst(f.entry, InstKind::Bin { op: BinOp::Add, a: Val::Inst(c), b: Val::Inst(l) });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(sum)));
        let id = m.add_func(f);
        m.entry = Some(id);
        assert_eq!(run_module(&m, b"").exit_code, 30);
    }

    #[test]
    fn lowers_globals_and_externs() {
        let mut m = Module::new();
        let g = m.add_global(Global {
            name: "fmt".into(),
            size: 6,
            init: b"v=%d\n\0".to_vec(),
            fixed_addr: Some(wyt_isa::image::DATA_BASE),
            kind: GlobalKind::Data,
        });
        let printf = m.extern_index("printf");
        let mut f = Function::new("main");
        let ga = f.push_inst(f.entry, InstKind::GlobalAddr { g });
        f.push_inst(
            f.entry,
            InstKind::CallExt { ext: printf, args: vec![Val::Inst(ga), Val::Const(9)] },
        );
        f.blocks[0].term = Term::Ret(Some(Val::Const(0)));
        let id = m.add_func(f);
        m.entry = Some(id);
        let img = lower_module(&m).unwrap();
        let r = run_image(&img, vec![]);
        assert!(r.ok(), "{:?}", r.trap);
        assert_eq!(r.output, b"v=9\n");
    }

    #[test]
    fn lowers_narrow_memory_and_ext() {
        let mut m = Module::new();
        let mut f = Function::new("main");
        let slot = f.push_inst(f.entry, InstKind::Alloca { size: 4, align: 4, name: "b".into() });
        f.push_inst(
            f.entry,
            InstKind::Store { ty: Ty::I8, addr: Val::Inst(slot), val: Val::Const(0x99) },
        );
        let l = f.push_inst(f.entry, InstKind::Load { ty: Ty::I8, addr: Val::Inst(slot) });
        let se =
            f.push_inst(f.entry, InstKind::Ext { signed: true, from: Ty::I8, v: Val::Inst(l) });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(se)));
        let id = m.add_func(f);
        m.entry = Some(id);
        assert_eq!(run_module(&m, b"").exit_code, 0x99u8 as i8 as i32);
    }

    #[test]
    fn lowers_indirect_calls_via_dispatch() {
        let mut m = Module::new();
        let mut t = Function::new("t");
        t.orig_addr = Some(0x5555);
        t.blocks[0].term = Term::Ret(Some(Val::Const(33)));
        let tid = m.add_func(t);
        let mut f = Function::new("main");
        let fa = f.push_inst(f.entry, InstKind::FuncAddr { f: tid });
        let c = f.push_inst(f.entry, InstKind::CallInd { target: Val::Inst(fa), args: vec![] });
        f.blocks[0].term = Term::Ret(Some(Val::Inst(c)));
        let id = m.add_func(f);
        m.entry = Some(id);
        assert_eq!(run_module(&m, b"").exit_code, 33);

        // Unknown target traps.
        let mut f2 = Function::new("main2");
        let c2 =
            f2.push_inst(f2.entry, InstKind::CallInd { target: Val::Const(0x9999), args: vec![] });
        f2.blocks[0].term = Term::Ret(Some(Val::Inst(c2)));
        let id2 = m.add_func(f2);
        m.entry = Some(id2);
        let r = run_module(&m, b"");
        match r.trap {
            Some(wyt_emu::Trap::TrapInst { pc, code }) => {
                assert_eq!(code, TrapCode::UntracedIndirect.code());
                // The side table attributes the trap to the calling
                // function and the indirect site kind.
                let img = lower_module(&m).unwrap();
                let site = img.guard_sites.iter().find(|s| s.pc == pc).expect("guard site");
                assert_eq!(site.kind, GuardKind::UntracedIndirect);
                assert_eq!(site.func, id2.index() as u32);
            }
            other => panic!("expected a guard trap, got {other:?}"),
        }
    }

    /// Lowering is a pure function of the module: a function whose
    /// parameters are pinned to registers emits its parameter loads in
    /// the same order on every call, whatever the hash seeds of the maps
    /// each call builds.
    #[test]
    fn pinned_param_loads_lower_deterministically() {
        let mut m = Module::new();
        let mut f = Function::new("mix");
        f.num_params = 3;
        let mut acc = Val::Const(1);
        for _ in 0..8 {
            for p in 0..3 {
                let x = f
                    .push_inst(f.entry, InstKind::Bin { op: BinOp::Add, a: acc, b: Val::Param(p) });
                acc = Val::Inst(x);
            }
        }
        f.blocks[0].term = Term::Ret(Some(acc));
        let mix = m.add_func(f);
        let mut main = Function::new("main");
        let args = vec![Val::Const(1), Val::Const(2), Val::Const(3)];
        let c = main.push_inst(main.entry, InstKind::Call { f: mix, args });
        main.blocks[0].term = Term::Ret(Some(Val::Inst(c)));
        let id = m.add_func(main);
        m.entry = Some(id);

        let (_, pinned_params, _, _) = pick_pinned(&m.funcs[mix.index()]);
        assert!(pinned_params.len() >= 2, "test premise: several params are pinned");
        let first = lower_module(&m).unwrap();
        assert_eq!(run_image(&first, vec![]).exit_code, 1 + 8 * (1 + 2 + 3));
        for _ in 0..64 {
            assert_eq!(
                lower_module(&m).unwrap().text,
                first.text,
                "lowering must be deterministic"
            );
        }
    }

    #[test]
    fn lowers_division_and_shifts() {
        let mut m = Module::new();
        let mut f = Function::new("main");
        let q = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::DivS, a: Val::Const(-17), b: Val::Const(5) },
        );
        let r = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::RemS, a: Val::Const(-17), b: Val::Const(5) },
        );
        let s = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::ShrA, a: Val::Const(-64), b: Val::Const(3) },
        );
        let t1 = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Mul, a: Val::Inst(q), b: Val::Const(100) },
        );
        let t2 = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Add, a: Val::Inst(t1), b: Val::Inst(r) },
        );
        let t3 = f.push_inst(
            f.entry,
            InstKind::Bin { op: BinOp::Add, a: Val::Inst(t2), b: Val::Inst(s) },
        );
        f.blocks[0].term = Term::Ret(Some(Val::Inst(t3)));
        let id = m.add_func(f);
        m.entry = Some(id);
        assert_eq!(run_module(&m, b"").exit_code, -300 - 2 - 8);
    }
}
