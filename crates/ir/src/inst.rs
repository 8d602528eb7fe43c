//! Instruction set of the sfcc SSA IR.
//!
//! The IR is a conventional SSA form over three value types (`i64`, `i1`,
//! `ptr`). Each basic block holds a list of ordinary instructions followed by
//! exactly one [`Terminator`]. Non-SSA storage (arrays, and scalars before
//! `mem2reg`) lives in stack slots created by [`Op::Alloca`] and accessed via
//! [`Op::Load`]/[`Op::Store`] with [`Op::Gep`] address arithmetic.

use std::fmt;

/// A value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer.
    I64,
    /// 1-bit boolean.
    I1,
    /// Pointer into a stack slot.
    Ptr,
    /// No value (result type of `store` and void calls).
    Void,
}

impl Ty {
    /// The IR spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Ty::I64 => "i64",
            Ty::I1 => "i1",
            Ty::Ptr => "ptr",
            Ty::Void => "void",
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Identifies an instruction within its function's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// Identifies a basic block within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A hasher for dense ids ([`InstId`], [`BlockId`] and tuples of them): one
/// multiply per `u32` word instead of SipHash's rounds.
///
/// Ids are allocated by the compiler, never chosen by a source file, so no
/// input can force collisions. Anything a source derives — constants,
/// names, [`ValueRef`]s — must keep std's `RandomState`: to hold that, the
/// hasher takes `u32` words only, and hashing any other key panics.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, _bytes: &[u8]) {
        panic!("IdHasher hashes dense ids only (u32 words)");
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by dense ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

/// A hash set of dense ids, hashed with [`IdHasher`].
pub type IdSet<K> = std::collections::HashSet<K, std::hash::BuildHasherDefault<IdHasher>>;

/// An operand: a constant, a function parameter, or an instruction result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueRef {
    /// A typed integer constant (`i1` constants are 0 or 1).
    Const(Ty, i64),
    /// The `n`-th function parameter.
    Param(u32),
    /// The result of an instruction.
    Inst(InstId),
}

impl ValueRef {
    /// Convenience constructor for an `i64` constant.
    pub fn int(v: i64) -> Self {
        ValueRef::Const(Ty::I64, v)
    }

    /// Convenience constructor for an `i1` constant.
    pub fn bool(b: bool) -> Self {
        ValueRef::Const(Ty::I1, b as i64)
    }

    /// Returns the constant payload when this is a constant.
    pub fn as_const(self) -> Option<(Ty, i64)> {
        match self {
            ValueRef::Const(ty, v) => Some((ty, v)),
            _ => None,
        }
    }

    /// Returns the instruction id when this is an instruction result.
    pub fn as_inst(self) -> Option<InstId> {
        match self {
            ValueRef::Inst(id) => Some(id),
            _ => None,
        }
    }
}

impl From<InstId> for ValueRef {
    fn from(id: InstId) -> Self {
        ValueRef::Inst(id)
    }
}

/// Integer binary operations (both `i64` arithmetic and `i1` logic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinKind {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; traps at runtime on division by zero or
    /// `i64::MIN / -1`.
    Sdiv,
    /// Signed remainder; traps like [`BinKind::Sdiv`].
    Srem,
    /// Bitwise and (valid on `i64` and `i1`).
    And,
    /// Bitwise or (valid on `i64` and `i1`).
    Or,
    /// Bitwise xor (valid on `i64` and `i1`).
    Xor,
    /// Shift left; the shift amount is masked to 6 bits.
    Shl,
    /// Arithmetic shift right; the shift amount is masked to 6 bits.
    Ashr,
}

impl BinKind {
    /// Whether `a op b == b op a` for all inputs.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinKind::Add | BinKind::Mul | BinKind::And | BinKind::Or | BinKind::Xor
        )
    }

    /// Whether the operation can trap at run time.
    pub fn can_trap(self) -> bool {
        matches!(self, BinKind::Sdiv | BinKind::Srem)
    }

    /// The IR mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinKind::Add => "add",
            BinKind::Sub => "sub",
            BinKind::Mul => "mul",
            BinKind::Sdiv => "sdiv",
            BinKind::Srem => "srem",
            BinKind::And => "and",
            BinKind::Or => "or",
            BinKind::Xor => "xor",
            BinKind::Shl => "shl",
            BinKind::Ashr => "ashr",
        }
    }

    /// Evaluates the operation on constants, mirroring VM semantics.
    ///
    /// Returns `None` for trapping inputs (division by zero / overflow).
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            BinKind::Add => a.wrapping_add(b),
            BinKind::Sub => a.wrapping_sub(b),
            BinKind::Mul => a.wrapping_mul(b),
            BinKind::Sdiv => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    return None;
                }
                a / b
            }
            BinKind::Srem => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    return None;
                }
                a % b
            }
            BinKind::And => a & b,
            BinKind::Or => a | b,
            BinKind::Xor => a ^ b,
            BinKind::Shl => a.wrapping_shl((b & 63) as u32),
            BinKind::Ashr => a.wrapping_shr((b & 63) as u32),
        })
    }
}

impl fmt::Display for BinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Signed comparison predicates for [`Op::Icmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Slt,
    /// Signed less than or equal.
    Sle,
    /// Signed greater than.
    Sgt,
    /// Signed greater than or equal.
    Sge,
}

impl IcmpPred {
    /// The IR mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IcmpPred::Eq => "eq",
            IcmpPred::Ne => "ne",
            IcmpPred::Slt => "slt",
            IcmpPred::Sle => "sle",
            IcmpPred::Sgt => "sgt",
            IcmpPred::Sge => "sge",
        }
    }

    /// Evaluates the predicate on constants.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            IcmpPred::Eq => a == b,
            IcmpPred::Ne => a != b,
            IcmpPred::Slt => a < b,
            IcmpPred::Sle => a <= b,
            IcmpPred::Sgt => a > b,
            IcmpPred::Sge => a >= b,
        }
    }

    /// The predicate with operands swapped (`a pred b == b swapped(pred) a`).
    pub fn swapped(self) -> IcmpPred {
        match self {
            IcmpPred::Eq => IcmpPred::Eq,
            IcmpPred::Ne => IcmpPred::Ne,
            IcmpPred::Slt => IcmpPred::Sgt,
            IcmpPred::Sle => IcmpPred::Sge,
            IcmpPred::Sgt => IcmpPred::Slt,
            IcmpPred::Sge => IcmpPred::Sle,
        }
    }

    /// The logically negated predicate.
    pub fn negated(self) -> IcmpPred {
        match self {
            IcmpPred::Eq => IcmpPred::Ne,
            IcmpPred::Ne => IcmpPred::Eq,
            IcmpPred::Slt => IcmpPred::Sge,
            IcmpPred::Sle => IcmpPred::Sgt,
            IcmpPred::Sgt => IcmpPred::Sle,
            IcmpPred::Sge => IcmpPred::Slt,
        }
    }
}

impl fmt::Display for IcmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Non-terminator instruction opcodes.
///
/// Operand arity and meaning (operands live in [`InstData::args`]):
///
/// | Op       | args                       | result |
/// |----------|----------------------------|--------|
/// | `Bin`    | `[lhs, rhs]`               | same as operands |
/// | `Icmp`   | `[lhs, rhs]`               | `i1` |
/// | `Select` | `[cond, if_true, if_false]`| operand type |
/// | `Alloca` | `[]`                       | `ptr` (size in the variant) |
/// | `Load`   | `[ptr]`                    | loaded type |
/// | `Store`  | `[ptr, value]`             | `void` |
/// | `Gep`    | `[base, index]`            | `ptr` |
/// | `Call`   | arguments                  | callee return type or `void` |
/// | `Phi`    | one per incoming edge      | merged type |
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Integer/boolean binary operation.
    Bin(BinKind),
    /// Signed integer comparison producing `i1`.
    Icmp(IcmpPred),
    /// Conditional move: `select cond, a, b`.
    Select,
    /// Stack slot of `size` 64-bit elements; result is its address.
    Alloca(u32),
    /// Memory read through a `ptr`.
    Load,
    /// Memory write through a `ptr`.
    Store,
    /// Element address: `base + index` (in elements, bounds-checked by VM).
    Gep,
    /// Direct call to `callee` (a linked symbol such as `util.helper` or the
    /// builtin `print`).
    Call(String),
    /// SSA phi; `Phi(blocks)` lists the incoming predecessor of each operand.
    Phi(Vec<BlockId>),
}

impl Op {
    /// Whether this instruction writes memory or performs I/O and therefore
    /// must not be removed even when its result is unused.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Op::Store | Op::Call(_))
    }

    /// Whether this instruction can trap at run time (making speculative
    /// hoisting unsafe without dominance of the original position).
    pub fn can_trap(&self) -> bool {
        match self {
            Op::Bin(k) => k.can_trap(),
            // Loads/stores are bounds-checked by the VM and trap when out
            // of range (gep only computes an address and never traps);
            // calls may trap transitively.
            Op::Load | Op::Call(_) => true,
            _ => false,
        }
    }

    /// Whether the instruction is a pure function of its operands (safe to
    /// CSE/GVN).
    pub fn is_pure(&self) -> bool {
        match self {
            Op::Bin(_) | Op::Icmp(_) | Op::Select | Op::Gep => true,
            Op::Alloca(_) | Op::Load | Op::Store | Op::Call(_) | Op::Phi(_) => false,
        }
    }
}

/// An instruction: opcode, operands, and result type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstData {
    /// The opcode.
    pub op: Op,
    /// Operands; see [`Op`] for the expected arity.
    pub args: Vec<ValueRef>,
    /// Result type ([`Ty::Void`] when the instruction produces no value).
    pub ty: Ty,
}

impl InstData {
    /// Creates an instruction.
    pub fn new(op: Op, args: Vec<ValueRef>, ty: Ty) -> Self {
        InstData { op, args, ty }
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way branch on an `i1` condition.
    CondBr {
        /// The branch condition.
        cond: ValueRef,
        /// Successor when the condition is true.
        then_bb: BlockId,
        /// Successor when the condition is false.
        else_bb: BlockId,
    },
    /// Function return, with a value unless the function returns `void`.
    Ret(Option<ValueRef>),
    /// A runtime trap (unreachable code, failed bounds check fallthrough).
    Trap,
}

/// The successor blocks of a [`Terminator`], in branch order: at most two,
/// held inline, since every CFG analysis asks for them block by block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Successors {
    blocks: [BlockId; 2],
    len: usize,
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        &self.blocks[..self.len]
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().take(self.len)
    }
}

impl Terminator {
    /// Successor blocks, in branch order.
    pub fn successors(&self) -> Successors {
        let (blocks, len) = match *self {
            Terminator::Br(b) => ([b, b], 1),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => ([then_bb, else_bb], 2),
            Terminator::Ret(_) | Terminator::Trap => ([BlockId(0); 2], 0),
        };
        Successors { blocks, len }
    }

    /// Applies `f` to every successor block id in place.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br(b) => *b = f(*b),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            Terminator::Ret(_) | Terminator::Trap => {}
        }
    }

    /// The operand value the terminator uses, if any.
    pub fn operand(&self) -> Option<ValueRef> {
        match *self {
            Terminator::CondBr { cond, .. } => Some(cond),
            Terminator::Ret(v) => v,
            Terminator::Br(_) | Terminator::Trap => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutativity() {
        assert!(BinKind::Add.is_commutative());
        assert!(!BinKind::Sub.is_commutative());
        assert!(!BinKind::Shl.is_commutative());
    }

    #[test]
    fn binkind_eval_matches_semantics() {
        assert_eq!(BinKind::Add.eval(i64::MAX, 1), Some(i64::MIN));
        assert_eq!(BinKind::Sdiv.eval(7, 2), Some(3));
        assert_eq!(BinKind::Sdiv.eval(1, 0), None);
        assert_eq!(BinKind::Sdiv.eval(i64::MIN, -1), None);
        assert_eq!(BinKind::Srem.eval(-7, 2), Some(-1));
        assert_eq!(BinKind::Shl.eval(1, 64), Some(1)); // masked shift
        assert_eq!(BinKind::Ashr.eval(-8, 1), Some(-4));
    }

    #[test]
    fn icmp_eval_and_negation() {
        for (a, b) in [(1, 2), (2, 2), (3, 2), (i64::MIN, i64::MAX)] {
            for pred in [
                IcmpPred::Eq,
                IcmpPred::Ne,
                IcmpPred::Slt,
                IcmpPred::Sle,
                IcmpPred::Sgt,
                IcmpPred::Sge,
            ] {
                assert_eq!(pred.eval(a, b), !pred.negated().eval(a, b));
                assert_eq!(pred.eval(a, b), pred.swapped().eval(b, a));
            }
        }
    }

    #[test]
    fn op_purity_and_effects() {
        assert!(Op::Bin(BinKind::Add).is_pure());
        assert!(!Op::Load.is_pure());
        assert!(Op::Store.has_side_effects());
        assert!(Op::Call("f".into()).has_side_effects());
        assert!(!Op::Bin(BinKind::Add).can_trap());
        assert!(Op::Bin(BinKind::Sdiv).can_trap());
        assert!(Op::Load.can_trap());
        assert!(!Op::Gep.can_trap());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondBr {
            cond: ValueRef::bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(*t.successors(), [BlockId(1), BlockId(2)]);
        assert!(Terminator::Ret(None).successors().is_empty());
    }

    #[test]
    fn valueref_helpers() {
        assert_eq!(ValueRef::int(5).as_const(), Some((Ty::I64, 5)));
        assert_eq!(ValueRef::bool(true).as_const(), Some((Ty::I1, 1)));
        assert_eq!(ValueRef::Param(0).as_const(), None);
        assert_eq!(ValueRef::from(InstId(3)).as_inst(), Some(InstId(3)));
    }
}
