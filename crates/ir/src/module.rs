//! IR containers: modules, functions, blocks and instructions.

use crate::types::{BinOp, BlockId, CmpOp, FuncId, GlobalId, InstId, Ty, Val};

/// Distinguishes lifter-created globals so refinement passes can find them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlobalKind {
    /// Ordinary data (e.g. the original binary's data segment).
    Data,
    /// A virtual CPU register cell (one per machine register).
    VcpuReg(u8),
    /// The emulated stack byte array (paper Fig. 1).
    EmuStack,
}

/// A module-level global variable.
#[derive(Debug, Clone)]
pub struct Global {
    /// Name (for printing).
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Initial contents (zero-filled if shorter than `size`).
    pub init: Vec<u8>,
    /// Fixed load address, if the global must live at a specific place
    /// (the original data segment keeps its address so absolute pointers
    /// embedded in lifted code stay valid).
    pub fixed_addr: Option<u32>,
    /// What the global represents.
    pub kind: GlobalKind,
}

/// An instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum InstKind {
    /// Binary ALU operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Val,
        /// Right operand.
        b: Val,
    },
    /// Comparison producing 0/1.
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Left operand.
        a: Val,
        /// Right operand.
        b: Val,
    },
    /// Zero-extending (`signed == false`) or sign-extending load of the low
    /// `from` bytes of a value.
    Ext {
        /// Interpret low bits as signed.
        signed: bool,
        /// Source width.
        from: Ty,
        /// Operand.
        v: Val,
    },
    /// Load `ty` bytes at `addr` (zero-extended to 32 bits).
    Load {
        /// Access width.
        ty: Ty,
        /// Address.
        addr: Val,
    },
    /// Store the low `ty` bytes of `val` to `addr`. No result.
    Store {
        /// Access width.
        ty: Ty,
        /// Address.
        addr: Val,
        /// Value to store.
        val: Val,
    },
    /// Reserve `size` bytes of stack in this function's frame; the result
    /// is the address. Symbolization introduces these (one per recovered
    /// stack variable).
    Alloca {
        /// Object size in bytes.
        size: u32,
        /// Required alignment (power of two).
        align: u32,
        /// Debug name.
        name: String,
    },
    /// Address of a global.
    GlobalAddr {
        /// The global.
        g: GlobalId,
    },
    /// Address of a function (for indirect-call tables). Evaluates to the
    /// function's original entry address.
    FuncAddr {
        /// The function.
        f: FuncId,
    },
    /// Direct call.
    Call {
        /// Callee.
        f: FuncId,
        /// Arguments.
        args: Vec<Val>,
    },
    /// Indirect call through a code address (resolved via the module's
    /// address→function map).
    CallInd {
        /// Target code address.
        target: Val,
        /// Arguments.
        args: Vec<Val>,
    },
    /// Call of an external with *unrecovered* arguments: the callee reads
    /// them from memory at `sp` (BinRec's stack switching, §5.2). The
    /// variadic-call refinement replaces these with [`InstKind::CallExt`].
    CallExtRaw {
        /// Import index.
        ext: u16,
        /// Stack pointer at the call (arguments at `[sp]`, `[sp+4]`, ...).
        sp: Val,
    },
    /// Call of an external with explicit arguments.
    CallExt {
        /// Import index.
        ext: u16,
        /// Arguments.
        args: Vec<Val>,
    },
    /// `c ? a : b` (c compared against 0).
    Select {
        /// Condition.
        c: Val,
        /// Value if nonzero.
        a: Val,
        /// Value if zero.
        b: Val,
    },
    /// SSA phi node.
    Phi {
        /// `(predecessor block, incoming value)` pairs.
        incomings: Vec<(BlockId, Val)>,
    },
    /// Identity (used as a placeholder during transforms; DCE removes it).
    Copy {
        /// The forwarded value.
        v: Val,
    },
}

impl InstKind {
    /// `true` if the instruction produces a value some other instruction
    /// may use.
    pub fn has_result(&self) -> bool {
        !matches!(self, InstKind::Store { .. })
    }

    /// `true` if the instruction has side effects and must not be removed
    /// even when its result is unused.
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            InstKind::Store { .. }
                | InstKind::Call { .. }
                | InstKind::CallInd { .. }
                | InstKind::CallExtRaw { .. }
                | InstKind::CallExt { .. }
        )
    }

    /// `true` if removing the instruction can change observable behaviour
    /// through memory or control (loads are included: a hoisted/deleted
    /// load is fine for DCE but not for reordering passes).
    pub fn is_call(&self) -> bool {
        matches!(
            self,
            InstKind::Call { .. }
                | InstKind::CallInd { .. }
                | InstKind::CallExtRaw { .. }
                | InstKind::CallExt { .. }
        )
    }

    /// Visit every value operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(Val)) {
        match self {
            InstKind::Bin { a, b, .. } | InstKind::Cmp { a, b, .. } => {
                f(*a);
                f(*b);
            }
            InstKind::Ext { v, .. } | InstKind::Copy { v } => f(*v),
            InstKind::Load { addr, .. } => f(*addr),
            InstKind::Store { addr, val, .. } => {
                f(*addr);
                f(*val);
            }
            InstKind::Alloca { .. } | InstKind::GlobalAddr { .. } | InstKind::FuncAddr { .. } => {}
            InstKind::Call { args, .. } | InstKind::CallExt { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            InstKind::CallInd { target, args } => {
                f(*target);
                for a in args {
                    f(*a);
                }
            }
            InstKind::CallExtRaw { sp, .. } => f(*sp),
            InstKind::Select { c, a, b } => {
                f(*c);
                f(*a);
                f(*b);
            }
            InstKind::Phi { incomings } => {
                for (_, v) in incomings {
                    f(*v);
                }
            }
        }
    }

    /// Visit every value operand mutably.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Val)) {
        match self {
            InstKind::Bin { a, b, .. } | InstKind::Cmp { a, b, .. } => {
                f(a);
                f(b);
            }
            InstKind::Ext { v, .. } | InstKind::Copy { v } => f(v),
            InstKind::Load { addr, .. } => f(addr),
            InstKind::Store { addr, val, .. } => {
                f(addr);
                f(val);
            }
            InstKind::Alloca { .. } | InstKind::GlobalAddr { .. } | InstKind::FuncAddr { .. } => {}
            InstKind::Call { args, .. } | InstKind::CallExt { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            InstKind::CallInd { target, args } => {
                f(target);
                for a in args {
                    f(a);
                }
            }
            InstKind::CallExtRaw { sp, .. } => f(sp),
            InstKind::Select { c, a, b } => {
                f(c);
                f(a);
                f(b);
            }
            InstKind::Phi { incomings } => {
                for (_, v) in incomings {
                    f(v);
                }
            }
        }
    }
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way branch on `c != 0`.
    CondBr {
        /// Condition.
        c: Val,
        /// Target if nonzero.
        t: BlockId,
        /// Target if zero.
        f: BlockId,
    },
    /// Multi-way branch on an exact value match.
    Switch {
        /// Scrutinee.
        v: Val,
        /// `(value, target)` cases.
        cases: Vec<(i32, BlockId)>,
        /// Fallback target.
        default: BlockId,
    },
    /// Return from the function.
    Ret(Option<Val>),
    /// Abort execution (recompiled guard for untraced paths).
    Trap(u8),
    /// Statically unreachable.
    Unreachable,
}

impl Term {
    /// Visit every successor block.
    pub fn for_each_succ(&self, mut f: impl FnMut(BlockId)) {
        match self {
            Term::Br(b) => f(*b),
            Term::CondBr { t, f: fl, .. } => {
                f(*t);
                f(*fl);
            }
            Term::Switch { cases, default, .. } => {
                for (_, b) in cases {
                    f(*b);
                }
                f(*default);
            }
            Term::Ret(_) | Term::Trap(_) | Term::Unreachable => {}
        }
    }

    /// Visit every successor block mutably.
    pub fn for_each_succ_mut(&mut self, mut f: impl FnMut(&mut BlockId)) {
        match self {
            Term::Br(b) => f(b),
            Term::CondBr { t, f: fl, .. } => {
                f(t);
                f(fl);
            }
            Term::Switch { cases, default, .. } => {
                for (_, b) in cases {
                    f(b);
                }
                f(default);
            }
            Term::Ret(_) | Term::Trap(_) | Term::Unreachable => {}
        }
    }

    /// Visit every value operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(Val)) {
        match self {
            Term::CondBr { c, .. } => f(*c),
            Term::Switch { v, .. } => f(*v),
            Term::Ret(Some(v)) => f(*v),
            _ => {}
        }
    }

    /// Visit every value operand mutably.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Val)) {
        match self {
            Term::CondBr { c, .. } => f(c),
            Term::Switch { v, .. } => f(v),
            Term::Ret(Some(v)) => f(v),
            _ => {}
        }
    }
}

/// A basic block: an instruction list and a terminator.
#[derive(Debug, Clone)]
pub struct Block {
    /// Instruction ids in execution order.
    pub insts: Vec<InstId>,
    /// The terminator.
    pub term: Term,
    /// Address of the original machine block this was lifted from, if any.
    pub orig_addr: Option<u32>,
}

impl Block {
    /// An empty block ending in [`Term::Unreachable`].
    pub fn new() -> Block {
        Block { insts: Vec::new(), term: Term::Unreachable, orig_addr: None }
    }
}

impl Default for Block {
    fn default() -> Block {
        Block::new()
    }
}

/// A function.
#[derive(Debug, Clone)]
pub struct Function {
    /// Name.
    pub name: String,
    /// Entry address of the machine function this was lifted from.
    pub orig_addr: Option<u32>,
    /// Number of 32-bit parameters.
    pub num_params: u32,
    /// Entry block.
    pub entry: BlockId,
    /// Blocks (indexed by [`BlockId`]). Unreferenced blocks may linger
    /// after transforms; reachability is what matters.
    pub blocks: Vec<Block>,
    /// Instruction arena (indexed by [`InstId`]). Entries removed from all
    /// blocks are simply orphaned.
    pub insts: Vec<InstKind>,
}

impl Function {
    /// An empty function with one (entry) block.
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            orig_addr: None,
            num_params: 0,
            entry: BlockId(0),
            blocks: vec![Block::new()],
            insts: Vec::new(),
        }
    }

    /// Append a new empty block and return its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::new());
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Add an instruction to the arena (not yet placed in a block).
    pub fn add_inst(&mut self, kind: InstKind) -> InstId {
        self.insts.push(kind);
        InstId(self.insts.len() as u32 - 1)
    }

    /// Append an instruction to the end of `block`.
    pub fn push_inst(&mut self, block: BlockId, kind: InstKind) -> InstId {
        let id = self.add_inst(kind);
        self.blocks[block.index()].insts.push(id);
        id
    }

    /// The instruction kind of `id`.
    pub fn inst(&self, id: InstId) -> &InstKind {
        &self.insts[id.index()]
    }

    /// Mutable access to the instruction kind of `id`.
    pub fn inst_mut(&mut self, id: InstId) -> &mut InstKind {
        &mut self.insts[id.index()]
    }

    /// Blocks reachable from the entry, in reverse postorder.
    pub fn rpo(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::new();
        // Iterative DFS with an explicit stack (functions can be large).
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        let succs: Vec<Vec<BlockId>> = self
            .blocks
            .iter()
            .map(|b| {
                let mut s = Vec::new();
                b.term.for_each_succ(|x| s.push(x));
                s
            })
            .collect();
        while let Some((b, i)) = stack.pop() {
            if i < succs[b.index()].len() {
                stack.push((b, i + 1));
                let s = succs[b.index()][i];
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
            }
        }
        post.reverse();
        post
    }

    /// Predecessor lists for every block (unreachable blocks included as
    /// predecessors only if they branch somewhere).
    pub fn preds(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            b.term.for_each_succ(|s| preds[s.index()].push(BlockId(i as u32)));
        }
        preds
    }

    /// Number of instruction uses of each instruction result.
    pub fn use_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.insts.len()];
        let mut bump = |v: Val| {
            if let Val::Inst(i) = v {
                counts[i.index()] += 1;
            }
        };
        for b in &self.blocks {
            for &i in &b.insts {
                self.insts[i.index()].for_each_operand(&mut bump);
            }
            b.term.for_each_operand(&mut bump);
        }
        counts
    }
}

/// The value substitutions of one sweep of a function pass, applied
/// lazily: a pass that replaces an instruction's result records it here
/// instead of rewriting every use at once, resolves the operands of each
/// instruction and terminator through the map as it visits them
/// ([`Subst::apply`], [`Subst::apply_term`]), and rewrites the whole
/// function once at the end ([`Subst::finish`]). One sweep then costs one
/// pass over the function however many values it replaces; the result is
/// the same function as rewriting every use at each replacement.
#[derive(Debug)]
pub struct Subst {
    /// Replacement of each instruction's result, indexed by [`InstId`].
    to: Vec<Option<Val>>,
    /// `true` once anything has been recorded.
    any: bool,
}

impl Subst {
    /// An empty substitution sized for `f`'s instruction arena.
    pub fn new(f: &Function) -> Subst {
        Subst { to: vec![None; f.insts.len()], any: false }
    }

    /// What `v` stands for: its replacement, followed transitively. The
    /// chain cannot cycle, because [`Subst::replace`] never records a
    /// value that resolves back to the replaced instruction.
    #[inline]
    pub fn resolve(&self, mut v: Val) -> Val {
        while let Val::Inst(i) = v {
            match self.to.get(i.index()) {
                Some(Some(r)) => v = *r,
                _ => break,
            }
        }
        v
    }

    /// Record that every use of `id` now means `to`. A `to` that resolves
    /// to `id` itself (a self-referencing copy) records nothing. `id` must
    /// have been in the arena when the sweep began.
    pub fn replace(&mut self, id: InstId, to: Val) {
        let to = self.resolve(to);
        if to == Val::Inst(id) {
            return;
        }
        self.to[id.index()] = Some(to);
        self.any = true;
    }

    /// Resolve every operand of `kind` in place. Returns `true` if any
    /// operand changed.
    #[inline]
    pub fn apply(&self, kind: &mut InstKind) -> bool {
        let mut changed = false;
        if self.any {
            kind.for_each_operand_mut(|v| changed |= self.rewrite(v));
        }
        changed
    }

    /// Resolve every operand of `term` in place. Returns `true` if any
    /// operand changed.
    #[inline]
    pub fn apply_term(&self, term: &mut Term) -> bool {
        let mut changed = false;
        if self.any {
            term.for_each_operand_mut(|v| changed |= self.rewrite(v));
        }
        changed
    }

    /// End the sweep: resolve every operand of every arena entry (orphaned
    /// ones included) and of every block's terminator (unreachable blocks
    /// included). Returns `true` if any operand changed.
    pub fn finish(self, f: &mut Function) -> bool {
        let mut changed = false;
        if self.any {
            for kind in &mut f.insts {
                changed |= self.apply(kind);
            }
            for block in &mut f.blocks {
                changed |= self.apply_term(&mut block.term);
            }
        }
        changed
    }

    #[inline]
    fn rewrite(&self, v: &mut Val) -> bool {
        let r = self.resolve(*v);
        let changed = r != *v;
        *v = r;
        changed
    }
}

/// A whole program in IR form.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Functions.
    pub funcs: Vec<Function>,
    /// Globals.
    pub globals: Vec<Global>,
    /// Imported external function names (indexed by the `ext` field of
    /// call instructions).
    pub externs: Vec<String>,
    /// The function executed first.
    pub entry: Option<FuncId>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Add a function, returning its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        self.funcs.push(f);
        FuncId(self.funcs.len() as u32 - 1)
    }

    /// Add a global, returning its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        self.globals.push(g);
        GlobalId(self.globals.len() as u32 - 1)
    }

    /// The function with original entry address `addr`, if any.
    pub fn func_by_addr(&self, addr: u32) -> Option<FuncId> {
        self.funcs.iter().position(|f| f.orig_addr == Some(addr)).map(|i| FuncId(i as u32))
    }

    /// The function named `name`, if any.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
    }

    /// Find or add an extern by name, returning its index.
    pub fn extern_index(&mut self, name: &str) -> u16 {
        if let Some(i) = self.externs.iter().position(|e| e == name) {
            return i as u16;
        }
        self.externs.push(name.to_string());
        self.externs.len() as u16 - 1
    }

    /// Total instruction count across all reachable blocks (diagnostics).
    pub fn inst_count(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| f.rpo().iter().map(|b| f.blocks[b.index()].insts.len()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BinOp;

    fn diamond() -> Function {
        // entry -> (t, f) -> join
        let mut f = Function::new("diamond");
        let t = f.add_block();
        let e = f.add_block();
        let join = f.add_block();
        let c = f.push_inst(
            f.entry,
            InstKind::Cmp { op: CmpOp::Eq, a: Val::Param(0), b: Val::Const(0) },
        );
        f.blocks[f.entry.index()].term = Term::CondBr { c: Val::Inst(c), t, f: e };
        f.blocks[t.index()].term = Term::Br(join);
        f.blocks[e.index()].term = Term::Br(join);
        let phi = f.push_inst(
            join,
            InstKind::Phi { incomings: vec![(t, Val::Const(1)), (e, Val::Const(2))] },
        );
        f.blocks[join.index()].term = Term::Ret(Some(Val::Inst(phi)));
        f.num_params = 1;
        f
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = diamond();
        let rpo = f.rpo();
        assert_eq!(rpo[0], f.entry);
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn preds_of_join() {
        let f = diamond();
        let preds = f.preds();
        assert_eq!(preds[3].len(), 2);
        assert_eq!(preds[f.entry.index()].len(), 0);
    }

    #[test]
    fn subst_rewrites_everything_once() {
        let mut f = diamond();
        // An orphaned arena entry and an unreachable block still get
        // rewritten at the end of the sweep.
        let dead = f.add_inst(InstKind::Copy { v: Val::Inst(InstId(1)) });
        let lost = f.add_block();
        f.blocks[lost.index()].term = Term::Ret(Some(Val::Inst(InstId(1))));
        let mut s = Subst::new(&f);
        // The phi (inst 1) becomes the cmp (inst 0), which becomes 7.
        s.replace(InstId(1), Val::Inst(InstId(0)));
        s.replace(InstId(0), Val::Const(7));
        assert_eq!(s.resolve(Val::Inst(InstId(1))), Val::Const(7));
        let mut term = f.blocks[3].term.clone();
        assert!(s.apply_term(&mut term));
        assert_eq!(term, Term::Ret(Some(Val::Const(7))));
        assert!(s.finish(&mut f));
        assert_eq!(f.blocks[3].term, Term::Ret(Some(Val::Const(7))));
        assert_eq!(f.blocks[lost.index()].term, Term::Ret(Some(Val::Const(7))));
        assert_eq!(*f.inst(dead), InstKind::Copy { v: Val::Const(7) });
    }

    #[test]
    fn subst_refuses_self_reference() {
        let mut f = diamond();
        let mut s = Subst::new(&f);
        s.replace(InstId(1), Val::Inst(InstId(0)));
        // 0 := 1 resolves to 0 := 0: recorded as nothing, so no cycle.
        s.replace(InstId(0), Val::Inst(InstId(1)));
        assert_eq!(s.resolve(Val::Inst(InstId(0))), Val::Inst(InstId(0)));
        assert_eq!(s.resolve(Val::Inst(InstId(1))), Val::Inst(InstId(0)));
        assert!(!Subst::new(&f).finish(&mut f), "an empty sweep rewrites nothing");
    }

    #[test]
    fn use_counts_count_terminator_uses() {
        let f = diamond();
        let counts = f.use_counts();
        assert_eq!(counts[0], 1); // cmp used by condbr
        assert_eq!(counts[1], 1); // phi used by ret
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        let mut f = Function::new("main");
        f.orig_addr = Some(0x1000);
        let id = m.add_func(f);
        assert_eq!(m.func_by_addr(0x1000), Some(id));
        assert_eq!(m.func_by_name("main"), Some(id));
        assert_eq!(m.func_by_name("nope"), None);
        assert_eq!(m.extern_index("printf"), 0);
        assert_eq!(m.extern_index("memcpy"), 1);
        assert_eq!(m.extern_index("printf"), 0);
    }

    #[test]
    fn side_effect_classification() {
        assert!(InstKind::Store { ty: Ty::I32, addr: Val::Const(0), val: Val::Const(0) }
            .has_side_effect());
        assert!(
            !InstKind::Bin { op: BinOp::Add, a: Val::Const(1), b: Val::Const(2) }.has_side_effect()
        );
        assert!(InstKind::Call { f: FuncId(0), args: vec![] }.is_call());
        assert!(
            !InstKind::Store { ty: Ty::I32, addr: Val::Const(0), val: Val::Const(0) }.has_result()
        );
    }
}
