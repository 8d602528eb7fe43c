//! IR verifier: structural and SSA-dominance well-formedness checks.
//!
//! The pass manager (in `sfcc-passes`) runs the verifier after every
//! transform in debug builds, so a broken pass fails loudly and close to the
//! mistake instead of producing miscompiled output.

use crate::cfg::Predecessors;
use crate::dom::DomTree;
use crate::function::{Function, Module};
use crate::inst::{BinKind, BlockId, InstId, Op, Terminator, Ty, ValueRef};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the failure occurred.
    pub function: String,
    /// Description of the violated invariant.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ir verify failed in '{}': {}",
            self.function, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every function of `module`.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    for f in &module.functions {
        verify_function(f)?;
    }
    Ok(())
}

/// Verifies a single function.
///
/// Checked invariants:
/// - every block id referenced by terminators and phis is in range;
/// - instruction ids are attached to exactly one block;
/// - operand types match opcode expectations;
/// - phis appear only at the start of a block, with exactly one incoming
///   value per reachable predecessor;
/// - every use is dominated by its definition (SSA dominance);
/// - terminator conditions are `i1` and return arity matches the signature.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify_function(func: &Function) -> Result<(), VerifyError> {
    let v = Verifier { func };
    v.run()
}

struct Verifier<'f> {
    func: &'f Function,
}

impl<'f> Verifier<'f> {
    fn fail(&self, message: impl Into<String>) -> VerifyError {
        VerifyError {
            function: self.func.name.clone(),
            message: message.into(),
        }
    }

    fn check_block_id(&self, b: BlockId, what: &str) -> Result<(), VerifyError> {
        if (b.0 as usize) < self.func.block_count() {
            Ok(())
        } else {
            Err(self.fail(format!("{what} references out-of-range block {b}")))
        }
    }

    fn run(&self) -> Result<(), VerifyError> {
        let func = self.func;

        // 1. Each attached instruction id appears exactly once, and is in range.
        let mut owner: HashMap<InstId, BlockId> = HashMap::new();
        for b in func.block_ids() {
            for &i in &func.block(b).insts {
                if (i.0 as usize) >= func.inst_arena_len() {
                    return Err(self.fail(format!("block {b} lists out-of-range inst {i}")));
                }
                if let Some(prev) = owner.insert(i, b) {
                    return Err(self.fail(format!("inst {i} attached to both {prev} and {b}")));
                }
            }
        }

        // 2. Terminator and phi block references are in range.
        for b in func.block_ids() {
            for s in func.block(b).term.successors() {
                self.check_block_id(s, "terminator")?;
            }
            for &i in &func.block(b).insts {
                if let Op::Phi(blocks) = &func.inst(i).op {
                    for &pb in blocks {
                        self.check_block_id(pb, "phi")?;
                    }
                }
            }
        }

        let dom = DomTree::compute(func);
        let preds = Predecessors::compute(func);

        // 3. Per-instruction structural checks (reachable blocks only; passes
        //    may leave unreachable husks that DCE will collect).
        for &b in dom.rpo() {
            let data = func.block(b);
            let mut seen_non_phi = false;
            for &i in &data.insts {
                let inst = func.inst(i);
                match &inst.op {
                    Op::Phi(_) => {
                        if seen_non_phi {
                            return Err(self.fail(format!(
                                "phi {i} in {b} appears after a non-phi instruction"
                            )));
                        }
                    }
                    _ => seen_non_phi = true,
                }
                self.check_inst(b, i, &preds, &dom)?;
            }
            self.check_terminator(b)?;
        }

        // 4. SSA dominance for non-phi uses.
        self.check_dominance(&dom, &owner)?;
        Ok(())
    }

    fn operand_ty(&self, v: ValueRef) -> Result<Ty, VerifyError> {
        match v {
            ValueRef::Const(ty, c) => {
                if ty == Ty::I1 && !(0..=1).contains(&c) {
                    return Err(self.fail(format!("i1 constant {c} out of range")));
                }
                if matches!(ty, Ty::Ptr | Ty::Void) {
                    return Err(self.fail(format!("constant of type {ty} is not allowed")));
                }
                Ok(ty)
            }
            ValueRef::Param(i) => self
                .func
                .params
                .get(i as usize)
                .copied()
                .ok_or_else(|| self.fail(format!("parameter p{i} out of range"))),
            ValueRef::Inst(id) => {
                if (id.0 as usize) >= self.func.inst_arena_len() {
                    return Err(self.fail(format!("use of out-of-range inst {id}")));
                }
                let ty = self.func.inst(id).ty;
                if ty == Ty::Void {
                    return Err(self.fail(format!("use of void instruction {id} as a value")));
                }
                Ok(ty)
            }
        }
    }

    fn expect_args(&self, i: InstId, n: usize) -> Result<(), VerifyError> {
        let got = self.func.inst(i).args.len();
        if got == n {
            Ok(())
        } else {
            Err(self.fail(format!("inst {i} expects {n} operand(s), has {got}")))
        }
    }

    fn check_inst(
        &self,
        b: BlockId,
        i: InstId,
        preds: &Predecessors,
        dom: &DomTree,
    ) -> Result<(), VerifyError> {
        let inst = self.func.inst(i);
        match &inst.op {
            Op::Bin(kind) => {
                self.expect_args(i, 2)?;
                let lt = self.operand_ty(inst.args[0])?;
                let rt = self.operand_ty(inst.args[1])?;
                if lt != rt || lt != inst.ty {
                    return Err(self.fail(format!(
                        "bin {i}: operand/result types {lt}/{rt}/{} disagree",
                        inst.ty
                    )));
                }
                let logical_ok = matches!(kind, BinKind::And | BinKind::Or | BinKind::Xor);
                match inst.ty {
                    Ty::I64 => {}
                    Ty::I1 if logical_ok => {}
                    other => {
                        return Err(self.fail(format!("bin {i}: {kind} not defined on {other}")))
                    }
                }
            }
            Op::Icmp(_) => {
                self.expect_args(i, 2)?;
                let lt = self.operand_ty(inst.args[0])?;
                let rt = self.operand_ty(inst.args[1])?;
                if lt != Ty::I64 || rt != Ty::I64 {
                    return Err(self.fail(format!("icmp {i}: operands must be i64")));
                }
                if inst.ty != Ty::I1 {
                    return Err(self.fail(format!("icmp {i}: result must be i1")));
                }
            }
            Op::Select => {
                self.expect_args(i, 3)?;
                let ct = self.operand_ty(inst.args[0])?;
                let at = self.operand_ty(inst.args[1])?;
                let bt = self.operand_ty(inst.args[2])?;
                if ct != Ty::I1 {
                    return Err(self.fail(format!("select {i}: condition must be i1")));
                }
                if at != bt || at != inst.ty {
                    return Err(self.fail(format!("select {i}: arm types disagree")));
                }
            }
            Op::Alloca(size) => {
                self.expect_args(i, 0)?;
                if *size == 0 {
                    return Err(self.fail(format!("alloca {i}: zero size")));
                }
                if inst.ty != Ty::Ptr {
                    return Err(self.fail(format!("alloca {i}: result must be ptr")));
                }
            }
            Op::Load => {
                self.expect_args(i, 1)?;
                if self.operand_ty(inst.args[0])? != Ty::Ptr {
                    return Err(self.fail(format!("load {i}: operand must be ptr")));
                }
                if !matches!(inst.ty, Ty::I64 | Ty::I1) {
                    return Err(self.fail(format!("load {i}: result must be i64 or i1")));
                }
            }
            Op::Store => {
                self.expect_args(i, 2)?;
                if self.operand_ty(inst.args[0])? != Ty::Ptr {
                    return Err(self.fail(format!("store {i}: address must be ptr")));
                }
                let vt = self.operand_ty(inst.args[1])?;
                if !matches!(vt, Ty::I64 | Ty::I1) {
                    return Err(self.fail(format!("store {i}: value must be i64 or i1")));
                }
                if inst.ty != Ty::Void {
                    return Err(self.fail(format!("store {i}: must be void")));
                }
            }
            Op::Gep => {
                self.expect_args(i, 2)?;
                if self.operand_ty(inst.args[0])? != Ty::Ptr {
                    return Err(self.fail(format!("gep {i}: base must be ptr")));
                }
                if self.operand_ty(inst.args[1])? != Ty::I64 {
                    return Err(self.fail(format!("gep {i}: index must be i64")));
                }
                if inst.ty != Ty::Ptr {
                    return Err(self.fail(format!("gep {i}: result must be ptr")));
                }
            }
            Op::Call(name) => {
                if name.is_empty() {
                    return Err(self.fail(format!("call {i}: empty callee name")));
                }
                for &a in &inst.args {
                    let t = self.operand_ty(a)?;
                    if !matches!(t, Ty::I64 | Ty::I1) {
                        return Err(
                            self.fail(format!("call {i}: argument of type {t} not allowed"))
                        );
                    }
                }
            }
            Op::Phi(blocks) => {
                if blocks.len() != inst.args.len() {
                    return Err(self.fail(format!(
                        "phi {i}: {} blocks vs {} values",
                        blocks.len(),
                        inst.args.len()
                    )));
                }
                // One incoming per reachable predecessor, no extras.
                let reachable_preds: HashSet<BlockId> = preds
                    .of(b)
                    .iter()
                    .copied()
                    .filter(|p| dom.is_reachable(*p))
                    .collect();
                let incoming: HashSet<BlockId> = blocks
                    .iter()
                    .copied()
                    .filter(|p| dom.is_reachable(*p))
                    .collect();
                if incoming != reachable_preds {
                    return Err(self.fail(format!(
                        "phi {i} in {b}: incoming blocks {incoming:?} != predecessors {reachable_preds:?}"
                    )));
                }
                let mut seen = HashSet::new();
                for &pb in blocks {
                    if dom.is_reachable(pb) && !seen.insert(pb) {
                        return Err(self.fail(format!("phi {i}: duplicate incoming block {pb}")));
                    }
                }
                for &v in &inst.args {
                    let t = self.operand_ty(v)?;
                    if t != inst.ty {
                        return Err(
                            self.fail(format!("phi {i}: incoming type {t} != result {}", inst.ty))
                        );
                    }
                }
            }
        }
        Ok(())
    }

    fn check_terminator(&self, b: BlockId) -> Result<(), VerifyError> {
        match &self.func.block(b).term {
            Terminator::CondBr { cond, .. } => {
                if self.operand_ty(*cond)? != Ty::I1 {
                    return Err(self.fail(format!("condbr in {b}: condition must be i1")));
                }
            }
            Terminator::Ret(v) => match (self.func.ret, v) {
                (None, Some(_)) => {
                    return Err(self.fail(format!("ret in {b}: void function returns a value")))
                }
                (Some(_), None) => {
                    return Err(self.fail(format!("ret in {b}: missing return value")))
                }
                (Some(rt), Some(v)) => {
                    let t = self.operand_ty(*v)?;
                    if t != rt {
                        return Err(self.fail(format!("ret in {b}: returns {t}, expected {rt}")));
                    }
                }
                (None, None) => {}
            },
            Terminator::Br(_) | Terminator::Trap => {}
        }
        Ok(())
    }

    /// Every non-phi use must be dominated by its definition; phi uses must
    /// be dominated at the end of the incoming block.
    fn check_dominance(
        &self,
        dom: &DomTree,
        owner: &HashMap<InstId, BlockId>,
    ) -> Result<(), VerifyError> {
        let func = self.func;
        // Position of each instruction within its block for same-block checks.
        let mut position: HashMap<InstId, usize> = HashMap::new();
        for b in func.block_ids() {
            for (idx, &i) in func.block(b).insts.iter().enumerate() {
                position.insert(i, idx);
            }
        }

        let check_use =
            |user_block: BlockId, user_pos: usize, used: ValueRef| -> Result<(), VerifyError> {
                let ValueRef::Inst(def) = used else {
                    return Ok(());
                };
                let Some(&def_block) = owner.get(&def) else {
                    return Err(self.fail(format!("use of detached inst {def}")));
                };
                if !dom.is_reachable(user_block) {
                    return Ok(());
                }
                if def_block == user_block {
                    if position[&def] >= user_pos {
                        return Err(
                            self.fail(format!("inst {def} used before definition in {user_block}"))
                        );
                    }
                } else if !dom.dominates(def_block, user_block) {
                    return Err(self.fail(format!(
                        "def of {def} in {def_block} does not dominate use in {user_block}"
                    )));
                }
                Ok(())
            };

        for b in func.block_ids() {
            if !dom.is_reachable(b) {
                continue;
            }
            for (idx, &i) in func.block(b).insts.iter().enumerate() {
                let inst = func.inst(i);
                if let Op::Phi(blocks) = &inst.op {
                    for (&pb, &v) in blocks.iter().zip(&inst.args) {
                        if !dom.is_reachable(pb) {
                            continue;
                        }
                        // A phi use must be available at the end of the
                        // incoming block.
                        check_use(pb, usize::MAX, v)?;
                    }
                } else {
                    for &a in &inst.args {
                        check_use(b, idx, a)?;
                    }
                }
            }
            let term_pos = func.block(b).insts.len();
            if let Some(v) = func.block(b).term.operand() {
                check_use(b, term_pos, v)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{FuncBuilder, ENTRY};
    use crate::inst::{BinKind, IcmpPred, InstData};

    fn ok(func: &Function) {
        verify_function(func).unwrap_or_else(|e| panic!("{e}\n{func}"));
    }

    fn bad(func: &Function, needle: &str) {
        let err = verify_function(func).expect_err("expected verify failure");
        assert!(err.message.contains(needle), "got: {err}");
    }

    #[test]
    fn accepts_valid_function() {
        let mut f = Function::new("f", vec![Ty::I64], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut f);
        let v = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::int(1));
        b.ret(Some(v));
        ok(&f);
    }

    #[test]
    fn rejects_type_mismatch_in_bin() {
        let mut f = Function::new("f", vec![Ty::I64], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut f);
        let v = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::bool(true));
        b.ret(Some(v));
        bad(&f, "disagree");
    }

    #[test]
    fn rejects_i1_arithmetic() {
        let mut f = Function::new("f", vec![Ty::I1], Some(Ty::I1));
        let mut b = FuncBuilder::at_entry(&mut f);
        let v = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::bool(true));
        b.ret(Some(v));
        bad(&f, "not defined on i1");
    }

    #[test]
    fn accepts_i1_logic() {
        let mut f = Function::new("f", vec![Ty::I1], Some(Ty::I1));
        let mut b = FuncBuilder::at_entry(&mut f);
        let v = b.bin(BinKind::Xor, ValueRef::Param(0), ValueRef::bool(true));
        b.ret(Some(v));
        ok(&f);
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        let mut f = Function::new("f", vec![], Some(Ty::I64));
        // Manually attach in the wrong order.
        let second = f.alloc_inst(InstData::new(
            Op::Bin(BinKind::Add),
            vec![ValueRef::int(1), ValueRef::int(2)],
            Ty::I64,
        ));
        let first = f.alloc_inst(InstData::new(
            Op::Bin(BinKind::Add),
            vec![ValueRef::Inst(second), ValueRef::int(1)],
            Ty::I64,
        ));
        f.block_mut(ENTRY).insts.push(first);
        f.block_mut(ENTRY).insts.push(second);
        f.block_mut(ENTRY).term = Terminator::Ret(Some(ValueRef::Inst(first)));
        bad(&f, "used before definition");
    }

    #[test]
    fn rejects_use_not_dominating() {
        // entry → (b1|b2) → b3; def in b1, use in b3 without phi.
        let mut f = Function::new("f", vec![Ty::I1], Some(Ty::I64));
        let b1 = f.add_block();
        let b2 = f.add_block();
        let b3 = f.add_block();
        let mut b = FuncBuilder::at_entry(&mut f);
        b.cond_br(ValueRef::Param(0), b1, b2);
        b.switch_to(b1);
        let v = b.bin(BinKind::Add, ValueRef::int(1), ValueRef::int(2));
        b.br(b3);
        b.switch_to(b2);
        b.br(b3);
        b.switch_to(b3);
        b.ret(Some(v));
        bad(&f, "does not dominate");
    }

    #[test]
    fn rejects_phi_pred_mismatch() {
        let mut f = Function::new("f", vec![Ty::I1], Some(Ty::I64));
        let b1 = f.add_block();
        let b2 = f.add_block();
        let b3 = f.add_block();
        let mut b = FuncBuilder::at_entry(&mut f);
        b.cond_br(ValueRef::Param(0), b1, b2);
        b.switch_to(b1);
        b.br(b3);
        b.switch_to(b2);
        b.br(b3);
        b.switch_to(b3);
        let phi = b.phi(Ty::I64);
        b.add_phi_incoming(phi, b1, ValueRef::int(1));
        // Missing incoming for b2.
        b.ret(Some(phi));
        bad(&f, "predecessors");
    }

    #[test]
    fn rejects_phi_after_non_phi() {
        let mut f = Function::new("f", vec![], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut f);
        b.bin(BinKind::Add, ValueRef::int(1), ValueRef::int(2));
        let phi = b.phi(Ty::I64);
        let _ = phi;
        b.ret(Some(ValueRef::int(0)));
        bad(&f, "after a non-phi");
    }

    #[test]
    fn rejects_condbr_on_i64() {
        let mut f = Function::new("f", vec![Ty::I64], None);
        let t = f.add_block();
        let e = f.add_block();
        let mut b = FuncBuilder::at_entry(&mut f);
        b.cond_br(ValueRef::Param(0), t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        bad(&f, "condition must be i1");
    }

    #[test]
    fn rejects_wrong_return_type() {
        let mut f = Function::new("f", vec![], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut f);
        b.ret(Some(ValueRef::bool(true)));
        bad(&f, "returns i1");
    }

    #[test]
    fn rejects_missing_return_value() {
        let mut f = Function::new("f", vec![], Some(Ty::I64));
        FuncBuilder::at_entry(&mut f).ret(None);
        bad(&f, "missing return value");
    }

    #[test]
    fn rejects_void_value_use() {
        let mut f = Function::new("f", vec![Ty::I64], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut f);
        let ptr = b.alloca(1);
        b.store(ptr, ValueRef::Param(0));
        let store_id = f.block(ENTRY).insts[1];
        f.block_mut(ENTRY).term = Terminator::Ret(Some(ValueRef::Inst(store_id)));
        bad(&f, "void instruction");
    }

    #[test]
    fn rejects_out_of_range_param() {
        let mut f = Function::new("f", vec![], Some(Ty::I64));
        FuncBuilder::at_entry(&mut f).ret(Some(ValueRef::Param(3)));
        bad(&f, "out of range");
    }

    #[test]
    fn rejects_branch_to_missing_block() {
        let mut f = Function::new("f", vec![], None);
        f.block_mut(ENTRY).term = Terminator::Br(BlockId(9));
        bad(&f, "out-of-range block");
    }

    #[test]
    fn rejects_double_attached_inst() {
        let mut f = Function::new("f", vec![], None);
        let b1 = f.add_block();
        let id = f.append_inst(
            ENTRY,
            InstData::new(
                Op::Bin(BinKind::Add),
                vec![ValueRef::int(1), ValueRef::int(1)],
                Ty::I64,
            ),
        );
        f.block_mut(b1).insts.push(id);
        f.block_mut(ENTRY).term = Terminator::Br(b1);
        f.block_mut(b1).term = Terminator::Ret(None);
        bad(&f, "attached to both");
    }

    #[test]
    fn rejects_gep_on_non_ptr() {
        let mut f = Function::new("f", vec![Ty::I64], None);
        let mut b = FuncBuilder::at_entry(&mut f);
        b.gep(ValueRef::Param(0), ValueRef::int(0));
        b.ret(None);
        bad(&f, "base must be ptr");
    }

    #[test]
    fn ignores_unreachable_garbage() {
        let mut f = Function::new("f", vec![], None);
        let orphan = f.add_block();
        let mut b = FuncBuilder::at_entry(&mut f);
        b.ret(None);
        // Unreachable block with a nonsense terminator target that is in
        // range but never executed: the verifier still checks block-id
        // ranges, but not dominance inside it.
        b.switch_to(orphan);
        b.ret(None);
        ok(&f);
    }

    #[test]
    fn loop_phi_verifies() {
        // i = phi [entry: 0], [body: i+1]
        let mut f = Function::new("f", vec![], Some(Ty::I64));
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let mut b = FuncBuilder::at_entry(&mut f);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I64);
        let c = b.icmp(IcmpPred::Slt, i, ValueRef::int(10));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let next = b.bin(BinKind::Add, i, ValueRef::int(1));
        b.br(header);
        b.add_phi_incoming(i, ENTRY, ValueRef::int(0));
        b.add_phi_incoming(i, body, next);
        b.switch_to(exit);
        b.ret(Some(i));
        ok(&f);
    }
}
