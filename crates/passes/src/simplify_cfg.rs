//! CFG cleanup: constant branch folding, unreachable-block elimination,
//! single-entry block merging, and empty-block jump threading.

use crate::Pass;
use sfcc_ir::{
    BlockId, Function, IdMap, InstId, ModuleSnapshot, Op, Predecessors, Reachability, Terminator,
    Ty, ValueRef, ENTRY,
};

/// The `simplify-cfg` pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimplifyCfg;

impl Pass for SimplifyCfg {
    fn name(&self) -> &'static str {
        "simplify-cfg"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        let mut changed = false;
        // Iterate to a fixpoint: each sub-transform can expose more work.
        loop {
            let mut round = false;
            round |= fold_constant_branches(func);
            round |= prune_unreachable(func);
            round |= merge_straightline(func);
            round |= thread_empty_blocks(func);
            if !round {
                break;
            }
            changed = true;
        }
        changed
    }
}

/// `condbr true/false` → `br`; `condbr c, X, X` → `br X`.
fn fold_constant_branches(func: &mut Function) -> bool {
    let mut changed = false;
    for b in func.block_ids().collect::<Vec<_>>() {
        let new_term = match func.block(b).term {
            Terminator::CondBr {
                cond: ValueRef::Const(Ty::I1, c),
                then_bb,
                else_bb,
            } => Some(Terminator::Br(if c != 0 { then_bb } else { else_bb })),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } if then_bb == else_bb => Some(Terminator::Br(then_bb)),
            _ => None,
        };
        if let Some(t) = new_term {
            // The removed edge may feed phis in the no-longer-branched-to
            // block; prune_unreachable and phi fixing below handle blocks
            // that become unreachable, but a still-reachable target that
            // lost one of two edges from `b` needs its phi inputs from `b`
            // deduplicated. Since phi verification keys on predecessor sets
            // and `b` remains a predecessor of the surviving target, only
            // the *other* target's phis lose an input.
            let old_succs = func.block(b).term.successors();
            func.block_mut(b).term = t.clone();
            let Terminator::Br(kept) = t else {
                unreachable!()
            };
            for lost in old_succs {
                if lost != kept {
                    remove_phi_incoming(func, lost, b);
                }
            }
            changed = true;
        }
    }
    changed
}

/// Removes `pred`'s incoming entries from every phi in `block`.
fn remove_phi_incoming(func: &mut Function, block: BlockId, pred: BlockId) {
    for iid in func.block(block).insts.clone() {
        let inst = func.inst_mut(iid);
        if let Op::Phi(blocks) = &mut inst.op {
            while let Some(pos) = blocks.iter().position(|&p| p == pred) {
                blocks.remove(pos);
                inst.args.remove(pos);
            }
        }
    }
}

/// Clears unreachable blocks and drops their phi contributions.
fn prune_unreachable(func: &mut Function) -> bool {
    let reach = Reachability::compute(func);
    let mut changed = false;
    let ids: Vec<BlockId> = func.block_ids().collect();
    for b in ids {
        if reach.is_reachable(b) {
            // Drop phi inputs that come from unreachable predecessors.
            for iid in func.block(b).insts.clone() {
                let inst = func.inst_mut(iid);
                if let Op::Phi(blocks) = &mut inst.op {
                    let mut i = 0;
                    while i < blocks.len() {
                        if !reach.is_reachable(blocks[i]) {
                            blocks.remove(i);
                            inst.args.remove(i);
                            changed = true;
                        } else {
                            i += 1;
                        }
                    }
                }
            }
        } else {
            let block = func.block_mut(b);
            if !block.insts.is_empty() || block.term != Terminator::Trap {
                block.insts.clear();
                block.term = Terminator::Trap;
                changed = true;
            }
        }
    }
    if changed {
        resolve_trivial_phis(func);
    }
    changed
}

/// Replaces single-input phis with their input (repeatedly).
fn resolve_trivial_phis(func: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let mut map: IdMap<InstId, ValueRef> = IdMap::default();
        let mut dead = Vec::new();
        for (_, iid) in func.iter_insts() {
            let inst = func.inst(iid);
            if let Op::Phi(blocks) = &inst.op {
                if blocks.len() == 1 {
                    map.insert(iid, inst.args[0]);
                    dead.push(iid);
                }
            }
        }
        if map.is_empty() {
            return changed;
        }
        // A single-input phi may feed itself through a cycle with another;
        // chains are resolved by replace_uses. A self-referential single-input
        // phi (`v = phi [b: v]`) only arises in unreachable code, which was
        // pruned before this call.
        func.replace_uses(&map);
        crate::util::detach_all(func, &dead);
        changed = true;
    }
}

/// Merges `b → s` when `s` is `b`'s unique successor and `b` is `s`'s unique
/// predecessor.
///
/// One forward sweep: a block absorbs its whole chain before the sweep
/// moves on, and the predecessor lists are updated per merge instead of
/// recomputed. This is the merge order of a restart-from-the-first-block
/// loop — a merge into `b` makes no earlier block mergeable, since it only
/// renames `s` to `b` in the lists of `s`'s successors. The single-input
/// phis of absorbed blocks are replaced in one `replace_uses` at the end;
/// no merge decision reads an operand.
fn merge_straightline(func: &mut Function) -> bool {
    let mut preds = Predecessors::compute(func);
    let reach = Reachability::compute(func);
    let mut phis: IdMap<InstId, ValueRef> = IdMap::default();
    let mut changed = false;
    for b in func.block_ids().collect::<Vec<_>>() {
        if !reach.is_reachable(b) {
            continue;
        }
        while let Terminator::Br(s) = func.block(b).term {
            if s == b || s == ENTRY || preds.of(s) != [b] {
                break;
            }
            // Phis in `s` have exactly one predecessor: they stand for their
            // input, and do not move.
            let mut moved = std::mem::take(&mut func.block_mut(s).insts);
            moved.retain(|&iid| {
                let inst = func.inst(iid);
                let Op::Phi(blocks) = &inst.op else {
                    return true;
                };
                debug_assert_eq!(blocks.len(), 1);
                phis.insert(iid, inst.args[0]);
                false
            });
            // Move instructions and take over the terminator.
            let term = std::mem::replace(&mut func.block_mut(s).term, Terminator::Trap);
            let bb = func.block_mut(b);
            bb.insts.extend(moved);
            bb.term = term;
            // Phis in s's successors referred to s; they now come from b.
            let succs = func.block(b).term.successors();
            for &succ in succs.iter() {
                retarget_phi_incoming(func, succ, s, b);
            }
            preds.redirect(s, b, &succs);
            changed = true;
        }
    }
    func.replace_uses(&phis);
    changed
}

/// Rewrites phi incoming blocks `from` → `to` in `block`.
fn retarget_phi_incoming(func: &mut Function, block: BlockId, from: BlockId, to: BlockId) {
    for iid in func.block(block).insts.clone() {
        let inst = func.inst_mut(iid);
        if let Op::Phi(blocks) = &mut inst.op {
            for pb in blocks.iter_mut() {
                if *pb == from {
                    *pb = to;
                }
            }
        }
    }
}

/// Redirects branches through empty forwarding blocks (`bb: br target`),
/// when the target has no phis (phi-bearing targets would need incoming
/// rewrites that can collide with existing edges).
fn thread_empty_blocks(func: &mut Function) -> bool {
    let reach = Reachability::compute(func);
    // forward[b] = the target `b` forwards to, or `b` itself.
    let mut forward: Vec<BlockId> = func.block_ids().collect();
    let mut forwarding = 0;
    for b in func.block_ids() {
        if b == ENTRY || !reach.is_reachable(b) {
            continue;
        }
        if !func.block(b).insts.is_empty() {
            continue;
        }
        let Terminator::Br(t) = func.block(b).term else {
            continue;
        };
        if t == b {
            continue;
        }
        let target_has_phis = func
            .block(t)
            .insts
            .iter()
            .any(|&i| matches!(func.inst(i).op, Op::Phi(_)));
        if !target_has_phis {
            forward[b.0 as usize] = t;
            forwarding += 1;
        }
    }
    if forwarding == 0 {
        return false;
    }
    // Resolve forwarding chains (a → b → c) with cycle protection.
    let resolve = |mut b: BlockId| {
        let mut hops = 0;
        while forward[b.0 as usize] != b {
            b = forward[b.0 as usize];
            hops += 1;
            if hops > forwarding {
                break;
            }
        }
        b
    };
    let mut changed = false;
    for b in func.block_ids().collect::<Vec<_>>() {
        let mut term = func.block(b).term.clone();
        let mut this_changed = false;
        term.map_successors(|s| {
            let r = resolve(s);
            if r != s {
                this_changed = true;
            }
            r
        });
        if this_changed {
            func.block_mut(b).term = term;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_ir::{function_to_string, parse_function, verify_function};

    fn run(text: &str) -> (bool, String) {
        let mut f = parse_function(text).unwrap();
        let changed = SimplifyCfg.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (changed, function_to_string(&f))
    }

    #[test]
    fn folds_constant_condbr() {
        let (changed, text) = run(r"
fn @f() -> i64 {
bb0:
  condbr true, bb1, bb2
bb1:
  ret 1
bb2:
  ret 2
}");
        assert!(changed);
        assert!(!text.contains("condbr"), "{text}");
        assert!(text.contains("ret 1"), "{text}");
        assert!(!text.contains("ret 2"), "{text}");
    }

    #[test]
    fn removes_unreachable_phi_inputs() {
        let (changed, text) = run(r"
fn @f(i64) -> i64 {
bb0:
  condbr false, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  v0 = phi i64 [bb1: 1], [bb2: 2]
  ret v0
}");
        assert!(changed);
        // Only the bb2 path survives; the phi resolves to 2.
        assert!(text.contains("ret 2"), "{text}");
        assert!(!text.contains("phi"), "{text}");
    }

    #[test]
    fn merges_straightline_chain() {
        let (changed, text) = run(r"
fn @f(i64) -> i64 {
bb0:
  v0 = add i64 p0, 1
  br bb1
bb1:
  v1 = add i64 v0, 2
  br bb2
bb2:
  ret v1
}");
        assert!(changed);
        // Everything collapses into the entry block.
        assert_eq!(text.matches("bb").count(), 1, "{text}");
    }

    #[test]
    fn threads_empty_blocks() {
        let (changed, text) = run(r"
fn @f(i1) -> i64 {
bb0:
  condbr p0, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  ret 7
}");
        assert!(changed);
        assert!(
            text.contains("condbr p0, bb1, bb1") || !text.contains("condbr"),
            "{text}"
        );
    }

    #[test]
    fn dormant_on_clean_cfg() {
        let (changed, _) = run(r"
fn @f(i1) -> i64 {
bb0:
  condbr p0, bb1, bb2
bb1:
  v0 = add i64 1, 2
  br bb3
bb2:
  v1 = add i64 3, 4
  br bb3
bb3:
  v2 = phi i64 [bb1: v0], [bb2: v1]
  ret v2
}");
        assert!(!changed);
    }

    #[test]
    fn same_target_condbr_becomes_br() {
        let (changed, text) = run(r"
fn @f(i1) -> i64 {
bb0:
  condbr p0, bb1, bb1
bb1:
  ret 3
}");
        assert!(changed);
        assert!(!text.contains("condbr"), "{text}");
    }

    #[test]
    fn loop_is_preserved() {
        let src = r"
fn @f(i64) -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v2 = icmp slt v0, p0
  condbr v2, bb2, bb3
bb2:
  v1 = add i64 v0, 1
  br bb1
bb3:
  ret v0
}";
        let (_, text) = run(src);
        assert!(text.contains("phi"), "{text}");
        assert!(text.contains("condbr"), "{text}");
    }

    #[test]
    fn folding_then_merging_cascades() {
        // After folding the constant branch, bb1 has a single pred and merges.
        let (changed, text) = run(r"
fn @f(i64) -> i64 {
bb0:
  v0 = add i64 p0, 1
  condbr true, bb1, bb2
bb1:
  v1 = mul i64 v0, 2
  ret v1
bb2:
  ret 0
}");
        assert!(changed);
        assert_eq!(text.matches("bb").count(), 1, "{text}");
        assert!(text.contains("mul"), "{text}");
    }
}
