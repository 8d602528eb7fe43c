//! Functions, basic blocks, modules, and the instruction builder.

use crate::inst::{
    BinKind, BlockId, IcmpPred, IdMap, InstData, InstId, Op, Terminator, Ty, ValueRef,
};
use std::fmt;

/// A basic block: an ordered list of instruction ids plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockData {
    /// Instructions in execution order (ids into the function's arena).
    pub insts: Vec<InstId>,
    /// The block terminator. Freshly created blocks start as [`Terminator::Trap`]
    /// until the builder seals them.
    pub term: Terminator,
}

impl Default for BlockData {
    fn default() -> Self {
        BlockData {
            insts: Vec::new(),
            term: Terminator::Trap,
        }
    }
}

/// An SSA function.
///
/// Instructions live in a grow-only arena ([`Function::inst`]); a block's
/// `insts` list gives execution order. Detached instructions (removed by
/// passes) simply stop being referenced — iteration always goes through
/// blocks.
///
/// **Arena invariant.** [`Function::replace_uses`] rewrites the operands of
/// *attached* instructions (and terminators) only, so its cost follows the
/// live IR, not the arena. A detached instruction's operands are therefore
/// stale after any `replace_uses`, and re-attaching one is a bug: an
/// instruction is either attached before the `replace_uses` that must see
/// it (as the phis `mem2reg` and `inline` allocate are), or moved between
/// blocks with no `replace_uses` in between (as `licm` hoists).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name, unique within its module (unqualified).
    pub name: String,
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type; `None` for void functions.
    pub ret: Option<Ty>,
    insts: Vec<InstData>,
    blocks: Vec<BlockData>,
}

/// The entry block of every function.
pub const ENTRY: BlockId = BlockId(0);

impl Function {
    /// Creates a function with a single empty entry block terminated by `trap`.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Option<Ty>) -> Self {
        Function {
            name: name.into(),
            params,
            ret,
            insts: Vec::new(),
            blocks: vec![BlockData::default()],
        }
    }

    /// Appends a new empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(BlockData::default());
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Number of blocks (including ones unreachable after CFG edits).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// All block ids in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Immutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn block(&self, id: BlockId) -> &BlockData {
        &self.blocks[id.0 as usize]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BlockData {
        &mut self.blocks[id.0 as usize]
    }

    /// Immutable access to an instruction.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn inst(&self, id: InstId) -> &InstData {
        &self.insts[id.0 as usize]
    }

    /// Mutable access to an instruction.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn inst_mut(&mut self, id: InstId) -> &mut InstData {
        &mut self.insts[id.0 as usize]
    }

    /// Total instructions ever allocated (including detached ones).
    pub fn inst_arena_len(&self) -> usize {
        self.insts.len()
    }

    /// Number of instructions currently attached to blocks.
    pub fn live_inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Allocates a new instruction in the arena *without* attaching it.
    pub fn alloc_inst(&mut self, data: InstData) -> InstId {
        self.insts.push(data);
        InstId(self.insts.len() as u32 - 1)
    }

    /// Allocates an instruction and appends it to `block`.
    pub fn append_inst(&mut self, block: BlockId, data: InstData) -> InstId {
        let id = self.alloc_inst(data);
        self.block_mut(block).insts.push(id);
        id
    }

    /// Iterates `(block, inst)` pairs in layout order.
    pub fn iter_insts(&self) -> impl Iterator<Item = (BlockId, InstId)> + '_ {
        self.block_ids()
            .flat_map(move |b| self.block(b).insts.iter().map(move |&i| (b, i)))
    }

    /// The type of a value reference in this function.
    pub fn value_ty(&self, v: ValueRef) -> Ty {
        match v {
            ValueRef::Const(ty, _) => ty,
            ValueRef::Param(i) => self.params[i as usize],
            ValueRef::Inst(id) => self.inst(id).ty,
        }
    }

    /// Rewrites every operand of every attached instruction (phi inputs
    /// included) and every terminator operand using `map`: an operand
    /// naming a key becomes the key's value, chains `a→b→c` resolved.
    ///
    /// This is the IR's replace-all-uses primitive; passes batch their
    /// replacements and apply them in one sweep over the live IR. Detached
    /// instructions are left alone (see the arena invariant on [`Function`]).
    pub fn replace_uses(&mut self, map: &IdMap<InstId, ValueRef>) {
        if map.is_empty() {
            return;
        }
        let Function { insts, blocks, .. } = self;
        for block in blocks.iter_mut() {
            for &iid in &block.insts {
                for arg in &mut insts[iid.0 as usize].args {
                    *arg = resolve(map, *arg);
                }
            }
            match &mut block.term {
                Terminator::CondBr { cond, .. } => *cond = resolve(map, *cond),
                Terminator::Ret(Some(v)) => *v = resolve(map, *v),
                _ => {}
            }
        }
    }

    /// Removes instruction `id` from whatever block contains it (the arena
    /// entry remains as a tombstone). Returns whether it was attached.
    ///
    /// This searches every block; a pass that knows the block edits its
    /// `insts` directly, and one that removes many instructions sweeps once.
    pub fn detach_inst(&mut self, id: InstId) -> bool {
        for block in &mut self.blocks {
            if let Some(pos) = block.insts.iter().position(|&i| i == id) {
                block.insts.remove(pos);
                return true;
            }
        }
        false
    }
}

/// Follows `v` through a replacement map to its final value, as
/// [`Function::replace_uses`] does for every operand.
pub fn resolve(map: &IdMap<InstId, ValueRef>, mut v: ValueRef) -> ValueRef {
    let mut hops = 0;
    while let ValueRef::Inst(id) = v {
        let Some(&next) = map.get(&id) else { break };
        v = next;
        hops += 1;
        debug_assert!(hops <= map.len(), "cycle in replacement map");
        if hops > map.len() {
            break;
        }
    }
    v
}

/// A compiled module: a set of functions with an index by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Functions in definition order.
    pub functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
        }
    }

    /// Adds a function, returning its index.
    pub fn add_function(&mut self, f: Function) -> usize {
        self.functions.push(f);
        self.functions.len() - 1
    }

    /// Finds a function by unqualified name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Finds a function by unqualified name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// The linker-visible qualified name of a contained function.
    pub fn qualified_name(&self, func: &Function) -> String {
        format!("{}.{}", self.name, func.name)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::print::write_module(f, self)
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::print::write_function(f, self)
    }
}

/// A cursor-style instruction builder for one function.
///
/// # Examples
///
/// ```
/// use sfcc_ir::{Function, FuncBuilder, Ty, ValueRef, BinKind, Terminator};
///
/// let mut f = Function::new("double", vec![Ty::I64], Some(Ty::I64));
/// let mut b = FuncBuilder::at_entry(&mut f);
/// let two = ValueRef::int(2);
/// let result = b.bin(BinKind::Mul, ValueRef::Param(0), two);
/// b.ret(Some(result));
/// assert_eq!(f.live_inst_count(), 1);
/// ```
#[derive(Debug)]
pub struct FuncBuilder<'f> {
    func: &'f mut Function,
    cursor: BlockId,
}

impl<'f> FuncBuilder<'f> {
    /// Positions a builder at the function's entry block.
    pub fn at_entry(func: &'f mut Function) -> Self {
        FuncBuilder {
            func,
            cursor: ENTRY,
        }
    }

    /// Positions a builder at `block`.
    pub fn at(func: &'f mut Function, block: BlockId) -> Self {
        FuncBuilder {
            func,
            cursor: block,
        }
    }

    /// The block instructions are currently appended to.
    pub fn cursor(&self) -> BlockId {
        self.cursor
    }

    /// Moves the cursor to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.cursor = block;
    }

    /// Creates a new empty block (cursor unchanged).
    pub fn new_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Underlying function access.
    pub fn func(&mut self) -> &mut Function {
        self.func
    }

    fn push(&mut self, op: Op, args: Vec<ValueRef>, ty: Ty) -> ValueRef {
        let id = self
            .func
            .append_inst(self.cursor, InstData::new(op, args, ty));
        ValueRef::Inst(id)
    }

    /// Emits a binary operation; the result type follows the left operand.
    pub fn bin(&mut self, kind: BinKind, lhs: ValueRef, rhs: ValueRef) -> ValueRef {
        let ty = self.func.value_ty(lhs);
        self.push(Op::Bin(kind), vec![lhs, rhs], ty)
    }

    /// Emits an integer comparison producing `i1`.
    pub fn icmp(&mut self, pred: IcmpPred, lhs: ValueRef, rhs: ValueRef) -> ValueRef {
        self.push(Op::Icmp(pred), vec![lhs, rhs], Ty::I1)
    }

    /// Emits `select cond, a, b`.
    pub fn select(&mut self, cond: ValueRef, a: ValueRef, b: ValueRef) -> ValueRef {
        let ty = self.func.value_ty(a);
        self.push(Op::Select, vec![cond, a, b], ty)
    }

    /// Emits a stack allocation of `size` elements.
    pub fn alloca(&mut self, size: u32) -> ValueRef {
        self.push(Op::Alloca(size), vec![], Ty::Ptr)
    }

    /// Emits a typed load through `ptr`.
    pub fn load(&mut self, ptr: ValueRef, ty: Ty) -> ValueRef {
        self.push(Op::Load, vec![ptr], ty)
    }

    /// Emits a store of `value` through `ptr`.
    pub fn store(&mut self, ptr: ValueRef, value: ValueRef) {
        self.push(Op::Store, vec![ptr, value], Ty::Void);
    }

    /// Emits element-address arithmetic `base + index`.
    pub fn gep(&mut self, base: ValueRef, index: ValueRef) -> ValueRef {
        self.push(Op::Gep, vec![base, index], Ty::Ptr)
    }

    /// Emits a call; `ret` of `None` produces a void instruction.
    pub fn call(
        &mut self,
        callee: impl Into<String>,
        args: Vec<ValueRef>,
        ret: Option<Ty>,
    ) -> ValueRef {
        self.push(Op::Call(callee.into()), args, ret.unwrap_or(Ty::Void))
    }

    /// Emits an empty phi of type `ty`; incoming edges are added with
    /// [`FuncBuilder::add_phi_incoming`].
    pub fn phi(&mut self, ty: Ty) -> ValueRef {
        self.push(Op::Phi(Vec::new()), vec![], ty)
    }

    /// Adds an incoming `(block, value)` edge to a phi built by
    /// [`FuncBuilder::phi`].
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not a phi instruction.
    pub fn add_phi_incoming(&mut self, phi: ValueRef, block: BlockId, value: ValueRef) {
        let id = phi.as_inst().expect("phi must be an instruction");
        let inst = self.func.inst_mut(id);
        match &mut inst.op {
            Op::Phi(blocks) => {
                blocks.push(block);
                inst.args.push(value);
            }
            other => panic!("add_phi_incoming on non-phi {other:?}"),
        }
    }

    /// Terminates the cursor block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.func.block_mut(self.cursor).term = Terminator::Br(target);
    }

    /// Terminates the cursor block with a conditional branch.
    pub fn cond_br(&mut self, cond: ValueRef, then_bb: BlockId, else_bb: BlockId) {
        self.func.block_mut(self.cursor).term = Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        };
    }

    /// Terminates the cursor block with a return.
    pub fn ret(&mut self, value: Option<ValueRef>) {
        self.func.block_mut(self.cursor).term = Terminator::Ret(value);
    }

    /// Terminates the cursor block with a trap.
    pub fn trap(&mut self) {
        self.func.block_mut(self.cursor).term = Terminator::Trap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Function {
        let mut f = Function::new("t", vec![Ty::I64], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut f);
        let v = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::int(1));
        b.ret(Some(v));
        f
    }

    #[test]
    fn builder_appends_in_order() {
        let mut f = Function::new("t", vec![], None);
        let mut b = FuncBuilder::at_entry(&mut f);
        b.alloca(4);
        b.alloca(8);
        b.ret(None);
        let entry = f.block(ENTRY);
        assert_eq!(entry.insts.len(), 2);
        assert_eq!(f.inst(entry.insts[0]).op, Op::Alloca(4));
        assert_eq!(f.inst(entry.insts[1]).op, Op::Alloca(8));
    }

    #[test]
    fn value_types() {
        let f = sample();
        assert_eq!(f.value_ty(ValueRef::Param(0)), Ty::I64);
        assert_eq!(f.value_ty(ValueRef::bool(true)), Ty::I1);
        let id = f.block(ENTRY).insts[0];
        assert_eq!(f.value_ty(ValueRef::Inst(id)), Ty::I64);
    }

    #[test]
    fn replace_uses_rewrites_args_and_terminators() {
        let mut f = Function::new("t", vec![Ty::I64], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut f);
        let v = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::int(0));
        b.ret(Some(v));
        let mut map = IdMap::default();
        map.insert(v.as_inst().unwrap(), ValueRef::Param(0));
        f.replace_uses(&map);
        assert_eq!(
            f.block(ENTRY).term,
            Terminator::Ret(Some(ValueRef::Param(0)))
        );
    }

    #[test]
    fn replace_uses_resolves_chains() {
        let mut f = Function::new("t", vec![Ty::I64], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut f);
        let a = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::int(0));
        let c = b.bin(BinKind::Add, a, ValueRef::int(0));
        b.ret(Some(c));
        let mut map = IdMap::default();
        map.insert(c.as_inst().unwrap(), a);
        map.insert(a.as_inst().unwrap(), ValueRef::Param(0));
        f.replace_uses(&map);
        assert_eq!(
            f.block(ENTRY).term,
            Terminator::Ret(Some(ValueRef::Param(0)))
        );
    }

    #[test]
    fn replace_uses_leaves_detached_instructions_alone() {
        let mut f = Function::new("t", vec![Ty::I64], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut f);
        let v = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::int(0));
        let gone = b.bin(BinKind::Mul, v, ValueRef::int(2));
        let kept = b.bin(BinKind::Sub, v, ValueRef::int(1));
        b.ret(Some(kept));
        let gone = gone.as_inst().unwrap();
        assert!(f.detach_inst(gone));
        let mut map = IdMap::default();
        map.insert(v.as_inst().unwrap(), ValueRef::Param(0));
        f.replace_uses(&map);
        // The attached user is rewritten; the detached one keeps a stale
        // operand, which is why re-attaching it would be a bug.
        assert_eq!(f.inst(kept.as_inst().unwrap()).args[0], ValueRef::Param(0));
        assert_eq!(f.inst(gone).args[0], v);
    }

    #[test]
    fn detach_inst_removes_from_block() {
        let mut f = sample();
        let id = f.block(ENTRY).insts[0];
        assert!(f.detach_inst(id));
        assert_eq!(f.live_inst_count(), 0);
        assert_eq!(f.inst_arena_len(), 1); // tombstone remains
        assert!(!f.detach_inst(id));
    }

    #[test]
    fn phi_incoming_stays_parallel() {
        let mut f = Function::new("t", vec![Ty::I64], Some(Ty::I64));
        let b1 = f.add_block();
        let b2 = f.add_block();
        let mut b = FuncBuilder::at(&mut f, b2);
        let phi = b.phi(Ty::I64);
        b.add_phi_incoming(phi, ENTRY, ValueRef::int(1));
        b.add_phi_incoming(phi, b1, ValueRef::int(2));
        let inst = f.inst(phi.as_inst().unwrap());
        let Op::Phi(blocks) = &inst.op else { panic!() };
        assert_eq!(blocks.len(), 2);
        assert_eq!(inst.args.len(), 2);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new("demo");
        m.add_function(sample());
        assert!(m.function("t").is_some());
        assert!(m.function("nope").is_none());
        let q = m.qualified_name(m.function("t").unwrap());
        assert_eq!(q, "demo.t");
    }
}
