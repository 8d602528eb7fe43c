//! Promotion of single-element stack slots to SSA registers.
//!
//! The lowerer emits every scalar local as an `alloca` with loads and stores
//! (Clang-style). This pass promotes those slots to SSA values, inserting
//! phis at iterated dominance frontiers and renaming uses along the
//! dominator tree — the textbook SSA-construction algorithm.

use crate::Pass;
use sfcc_ir::{
    BlockId, DomTree, Function, IdMap, InstData, InstId, ModuleSnapshot, Op, Ty, ValueRef, ENTRY,
};

/// The `mem2reg` pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mem2Reg;

impl Pass for Mem2Reg {
    fn name(&self) -> &'static str {
        "mem2reg"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        promote(func)
    }
}

/// A promotable alloca and its classified uses.
struct Candidate {
    alloca: InstId,
    elem: Ty,
    loads: Vec<InstId>,
    stores: Vec<InstId>,
}

/// Marks an arena slot that is no candidate in the dense per-instruction
/// tables below.
const NONE: usize = usize::MAX;

/// The promotable allocas in arena order, and `index[id.0]`, each one's
/// position in that list ([`NONE`] for every other instruction).
fn find_candidates(func: &Function) -> (Vec<Candidate>, Vec<usize>) {
    // First collect every single-slot alloca.
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut index = vec![NONE; func.inst_arena_len()];
    for (_, iid) in func.iter_insts() {
        if let Op::Alloca(1) = func.inst(iid).op {
            index[iid.0 as usize] = candidates.len();
            candidates.push(Candidate {
                alloca: iid,
                elem: Ty::Void,
                loads: Vec::new(),
                stores: Vec::new(),
            });
        }
    }
    if candidates.is_empty() {
        return (candidates, index);
    }

    // Classify uses; any escaping use disqualifies the slot.
    let mut disqualified = vec![false; candidates.len()];
    for (_, iid) in func.iter_insts() {
        let inst = func.inst(iid);
        for (argpos, arg) in inst.args.iter().enumerate() {
            let ValueRef::Inst(target) = arg else {
                continue;
            };
            let ci = index[target.0 as usize];
            if ci == NONE {
                continue;
            }
            let cand = &mut candidates[ci];
            match (&inst.op, argpos) {
                (Op::Load, 0) => {
                    cand.loads.push(iid);
                    if cand.elem == Ty::Void {
                        cand.elem = inst.ty;
                    } else if cand.elem != inst.ty {
                        disqualified[ci] = true;
                    }
                }
                (Op::Store, 0) => {
                    cand.stores.push(iid);
                    let vty = func.value_ty(inst.args[1]);
                    if cand.elem == Ty::Void {
                        cand.elem = vty;
                    } else if cand.elem != vty {
                        disqualified[ci] = true;
                    }
                }
                // Address escapes: gep, call argument, stored as a value, …
                _ => disqualified[ci] = true,
            }
        }
    }
    // Terminator uses of an alloca address (returning a ptr) disqualify too —
    // cannot happen in verified IR, but stay defensive.
    for b in func.block_ids() {
        if let Some(ValueRef::Inst(id)) = func.block(b).term.operand() {
            if index[id.0 as usize] != NONE {
                disqualified[index[id.0 as usize]] = true;
            }
        }
    }

    for cand in &candidates {
        index[cand.alloca.0 as usize] = NONE;
    }
    let mut kept: Vec<Candidate> = candidates
        .into_iter()
        .zip(disqualified)
        .filter_map(|(cand, dq)| (!dq).then_some(cand))
        .collect();
    // Stable order keeps output deterministic.
    kept.sort_by_key(|c| c.alloca);
    for (ci, cand) in kept.iter().enumerate() {
        index[cand.alloca.0 as usize] = ci;
    }
    (kept, index)
}

fn promote(func: &mut Function) -> bool {
    let (candidates, cand_index) = find_candidates(func);
    if candidates.is_empty() {
        return false;
    }

    let dom = DomTree::compute(func);
    let frontiers = dom.frontiers(func);

    // Block of every attached instruction.
    let mut block_of = vec![BlockId(u32::MAX); func.inst_arena_len()];
    for (b, i) in func.iter_insts() {
        block_of[i.0 as usize] = b;
    }

    // 1. Phi placement at iterated dominance frontiers of store blocks.
    //    placed[block] = (cand_idx, phi inst id), in candidate order; the
    //    phis head their block in the opposite order.
    let mut placed: Vec<Vec<(usize, InstId)>> = vec![Vec::new(); func.block_count()];
    // has_phi[block] = the last candidate that placed a phi there.
    let mut has_phi = vec![NONE; func.block_count()];
    for (ci, cand) in candidates.iter().enumerate() {
        if cand.loads.is_empty() {
            continue; // store-only slot: no phis needed.
        }
        let mut work: Vec<BlockId> = cand.stores.iter().map(|s| block_of[s.0 as usize]).collect();
        while let Some(db) = work.pop() {
            if !dom.is_reachable(db) {
                continue;
            }
            for &fb in &frontiers[db.0 as usize] {
                if has_phi[fb.0 as usize] != ci {
                    has_phi[fb.0 as usize] = ci;
                    let phi =
                        func.alloc_inst(InstData::new(Op::Phi(Vec::new()), Vec::new(), cand.elem));
                    placed[fb.0 as usize].push((ci, phi));
                    work.push(fb); // a phi is itself a definition
                }
            }
        }
    }

    let mut phi_to_cand = vec![NONE; func.inst_arena_len()];
    for (b, phis) in placed.iter().enumerate() {
        if phis.is_empty() {
            continue;
        }
        let block = func.block_mut(BlockId(b as u32));
        let rest = std::mem::take(&mut block.insts);
        block.insts = phis.iter().rev().map(|&(_, phi)| phi).chain(rest).collect();
        for &(ci, phi) in phis {
            phi_to_cand[phi.0 as usize] = ci;
        }
    }

    // 2. Renaming along the dominator tree.
    let undef = |elem: Ty| ValueRef::Const(if elem == Ty::Void { Ty::I64 } else { elem }, 0);
    let slot_of = |v: ValueRef| match v {
        ValueRef::Inst(a) if cand_index[a.0 as usize] != NONE => Some(cand_index[a.0 as usize]),
        _ => None,
    };

    let mut replacements: IdMap<InstId, ValueRef> = IdMap::default();
    let mut dead: Vec<InstId> = Vec::new();

    // Iterative preorder DFS over the dominator tree carrying per-candidate
    // definition stacks; `pushed` logs which stack each definition went
    // on, and leaving a block pops its definitions.
    enum Step {
        Enter(BlockId),
        Exit(usize), // `pushed` length on entry
    }
    let mut stacks: Vec<Vec<ValueRef>> = vec![Vec::new(); candidates.len()];
    let mut pushed: Vec<usize> = Vec::new();
    let mut agenda = vec![Step::Enter(ENTRY)];
    while let Some(step) = agenda.pop() {
        match step {
            Step::Exit(len) => {
                for ci in pushed.drain(len..) {
                    stacks[ci].pop();
                }
            }
            Step::Enter(b) => {
                let entry_len = pushed.len();
                for &iid in &func.block(b).insts {
                    // A placed phi defines its candidate.
                    let ci = phi_to_cand[iid.0 as usize];
                    if ci != NONE {
                        pushed.push(ci);
                        stacks[ci].push(ValueRef::Inst(iid));
                        continue;
                    }
                    let inst = func.inst(iid);
                    match &inst.op {
                        Op::Load => {
                            if let Some(ci) = slot_of(inst.args[0]) {
                                let cur = stacks[ci]
                                    .last()
                                    .copied()
                                    .unwrap_or_else(|| undef(candidates[ci].elem));
                                replacements.insert(iid, cur);
                                dead.push(iid);
                            }
                        }
                        Op::Store => {
                            if let Some(ci) = slot_of(inst.args[0]) {
                                pushed.push(ci);
                                stacks[ci].push(inst.args[1]);
                                dead.push(iid);
                            }
                        }
                        _ => {}
                    }
                }
                // Fill successor phis with the current definitions (each
                // distinct successor once, even if both condbr edges target
                // the same block).
                let succs = func.block(b).term.successors();
                for (k, &succ) in succs.iter().enumerate() {
                    if k > 0 && succs[k - 1] == succ {
                        continue;
                    }
                    for &(ci, phi) in &placed[succ.0 as usize] {
                        let cur = stacks[ci]
                            .last()
                            .copied()
                            .unwrap_or_else(|| undef(candidates[ci].elem));
                        let inst = func.inst_mut(phi);
                        let Op::Phi(blocks) = &mut inst.op else {
                            unreachable!()
                        };
                        blocks.push(b);
                        inst.args.push(cur);
                    }
                }
                agenda.push(Step::Exit(entry_len));
                for &child in dom.children(b) {
                    agenda.push(Step::Enter(child));
                }
            }
        }
    }

    // 3. Resolve phi-input chains (a load that fed a phi was itself replaced)
    //    and sweep the dead memory operations plus the allocas.
    for cand in &candidates {
        dead.push(cand.alloca);
    }
    func.replace_uses(&replacements);
    crate::util::detach_all(func, &dead);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_frontend::{parse_and_check, Diagnostics, ModuleEnv};
    use sfcc_ir::{module_to_string, parse_function, verify_function};

    fn promote_src(src: &str) -> String {
        let mut d = Diagnostics::new();
        let checked = parse_and_check("m", src, &ModuleEnv::new(), &mut d).expect("valid program");
        let mut module = sfcc_ir::lower_module(&checked, &ModuleEnv::new());
        let mut changed_any = false;
        for f in &mut module.functions {
            changed_any |= promote(f);
            verify_function(f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        }
        assert!(changed_any, "expected promotion to fire");
        module_to_string(&module)
    }

    #[test]
    fn promotes_straightline_scalars() {
        let text = promote_src("fn f(a: int) -> int { let x: int = a + 1; return x * 2; }");
        assert!(!text.contains("alloca"), "{text}");
        assert!(!text.contains("load"), "{text}");
        assert!(!text.contains("store"), "{text}");
    }

    #[test]
    fn inserts_phi_at_join() {
        let text = promote_src(
            "fn f(c: bool) -> int { let x: int = 0; if (c) { x = 1; } else { x = 2; } return x; }",
        );
        assert!(text.contains("phi i64"), "{text}");
        assert!(!text.contains("alloca"), "{text}");
    }

    #[test]
    fn loop_variable_becomes_phi() {
        let text = promote_src(
            "fn f(n: int) -> int { let s: int = 0; let i: int = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
        );
        assert!(text.contains("phi i64"), "{text}");
        assert!(!text.contains("alloca"), "{text}");
    }

    #[test]
    fn arrays_are_not_promoted() {
        let text = promote_src(
            "fn f() -> int { let x: int = 1; let a: [int; 4]; a[0] = x; return a[0]; }",
        );
        // The scalar x goes away but the array stays in memory form.
        assert!(text.contains("alloca 4"), "{text}");
        assert!(text.contains("gep"), "{text}");
    }

    #[test]
    fn dormant_when_nothing_to_promote() {
        let mut f =
            parse_function("fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 1\n  ret v0\n}").unwrap();
        assert!(!promote(&mut f));
    }

    #[test]
    fn load_before_store_yields_zero_undef() {
        // Manufactured IR: load from a slot never stored to.
        let mut f = parse_function(
            "fn @f() -> i64 {\nbb0:\n  v0 = alloca 1\n  v1 = load i64 v0\n  ret v1\n}",
        )
        .unwrap();
        assert!(promote(&mut f));
        verify_function(&f).unwrap();
        let text = sfcc_ir::function_to_string(&f);
        assert!(text.contains("ret 0"), "{text}");
    }

    #[test]
    fn bool_slots_promote_with_i1_phi() {
        let text = promote_src(
            "fn f(c: bool) -> bool { let b: bool = false; if (c) { b = true; } return b; }",
        );
        assert!(text.contains("phi i1"), "{text}");
    }

    #[test]
    fn short_circuit_temp_promotes() {
        let text = promote_src("fn f(a: int, b: int) -> bool { return a > 0 && b > 0; }");
        assert!(!text.contains("alloca"), "{text}");
        assert!(text.contains("phi i1"), "{text}");
    }
}
