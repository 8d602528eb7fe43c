//! Loop-invariant code motion.
//!
//! Hoists pure, non-trapping instructions whose operands are defined outside
//! the loop into the loop preheader. Loads, stores, calls, and potentially
//! trapping arithmetic (`sdiv`, `srem`) are never hoisted — executing them
//! speculatively could introduce traps or reorder side effects.

use crate::Pass;
use sfcc_ir::{BlockId, DomTree, Function, InstId, LoopForest, ModuleSnapshot, Op, ValueRef};

/// The `licm` pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Licm;

fn hoistable(op: &Op) -> bool {
    match op {
        Op::Bin(k) => !k.can_trap(),
        Op::Icmp(_) | Op::Select | Op::Gep => true,
        _ => false,
    }
}

impl Pass for Licm {
    fn name(&self) -> &'static str {
        "licm"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        // Hoisting moves instructions, never edges: the CFG analyses hold
        // for the whole run, and only the instruction → block table moves.
        let dom = DomTree::compute(func);
        let preds = dom.preds();
        let forest = LoopForest::compute(func, &dom);
        if forest.loops.is_empty() {
            return false;
        }
        let mut inst_block = vec![NOWHERE; func.inst_arena_len()];
        for (b, i) in func.iter_insts() {
            inst_block[i.0 as usize] = b;
        }
        // in_loop[b] == visit: `b` belongs to the loop being visited.
        let mut in_loop = vec![0u32; func.block_count()];
        let mut visit = 0u32;
        let mut changed = false;
        loop {
            let mut moved_any = false;
            // Innermost-last ordering lets outer loops pick up what inner
            // loops exposed on the next fixpoint iteration.
            for l in &forest.loops {
                let Some(preheader) = l.preheader(func, preds) else {
                    continue;
                };
                visit += 1;
                for &b in &l.blocks {
                    in_loop[b.0 as usize] = visit;
                }

                // A value is invariant if defined outside the loop (hoisted
                // instructions are: they sit in the preheader).
                let is_invariant = |v: ValueRef, inst_block: &[BlockId]| match v {
                    ValueRef::Const(..) | ValueRef::Param(_) => true,
                    ValueRef::Inst(i) => {
                        let b = inst_block[i.0 as usize];
                        b != NOWHERE && in_loop[b.0 as usize] != visit
                    }
                };

                // Iterate within the loop until no more hoists (a hoisted
                // value can make its users invariant).
                loop {
                    let mut this_round: Vec<InstId> = Vec::new();
                    for &b in &l.blocks {
                        for &iid in &func.block(b).insts {
                            let inst = func.inst(iid);
                            if !hoistable(&inst.op) {
                                continue;
                            }
                            if inst.args.iter().all(|&a| is_invariant(a, &inst_block)) {
                                this_round.push(iid);
                            }
                        }
                    }
                    if this_round.is_empty() {
                        break;
                    }
                    // Detach from the known blocks, then append in order.
                    for &iid in &this_round {
                        inst_block[iid.0 as usize] = preheader;
                    }
                    for &b in &l.blocks {
                        func.block_mut(b)
                            .insts
                            .retain(|i| inst_block[i.0 as usize] != preheader);
                    }
                    func.block_mut(preheader).insts.extend(this_round);
                    moved_any = true;
                }
                if moved_any {
                    changed = true;
                    // Restart from the first loop, as outer loops may now
                    // hoist what this one exposed.
                    break;
                }
            }
            if !moved_any {
                return changed;
            }
        }
    }
}

/// Marks an instruction that is in no block.
const NOWHERE: BlockId = BlockId(u32::MAX);

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_ir::{function_to_string, parse_function, verify_function};

    fn run(text: &str) -> (bool, String) {
        let mut f = parse_function(text).unwrap();
        let changed = Licm.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (changed, function_to_string(&f))
    }

    const LOOP_WITH_INVARIANT: &str = r"
fn @f(i64, i64) -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v2 = icmp slt v0, p0
  condbr v2, bb2, bb3
bb2:
  v3 = mul i64 p1, 7
  v1 = add i64 v0, v3
  br bb1
bb3:
  ret v0
}";

    #[test]
    fn hoists_invariant_mul_to_preheader() {
        let (c, text) = run(LOOP_WITH_INVARIANT);
        assert!(c);
        // The mul now sits in bb0 (the preheader).
        let entry: String = text
            .lines()
            .skip_while(|l| !l.starts_with("bb0"))
            .take_while(|l| !l.starts_with("bb1"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(entry.contains("mul"), "{text}");
    }

    #[test]
    fn hoists_dependent_chain() {
        let (c, text) = run(r"
fn @f(i64, i64) -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v2 = icmp slt v0, p0
  condbr v2, bb2, bb3
bb2:
  v3 = mul i64 p1, 7
  v4 = add i64 v3, 9
  v1 = add i64 v0, v4
  br bb1
bb3:
  ret v0
}");
        assert!(c);
        let entry: String = text
            .lines()
            .skip_while(|l| !l.starts_with("bb0"))
            .take_while(|l| !l.starts_with("bb1"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(entry.contains("mul") && entry.contains("add i64"), "{text}");
    }

    #[test]
    fn does_not_hoist_variant_values() {
        let (c, _) = run(r"
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
}");
        assert!(!c);
    }

    #[test]
    fn does_not_hoist_trapping_div() {
        let (c, _) = run(r"
fn @f(i64, i64) -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v2 = icmp slt v0, p0
  condbr v2, bb2, bb3
bb2:
  v3 = sdiv i64 100, p1
  v1 = add i64 v0, v3
  br bb1
bb3:
  ret v0
}");
        assert!(!c, "sdiv may trap and must not be hoisted");
    }

    #[test]
    fn does_not_hoist_loads() {
        let (c, _) = run(r"
fn @f(i64) -> i64 {
bb0:
  v9 = alloca 4
  store v9, 5
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v2 = icmp slt v0, p0
  condbr v2, bb2, bb3
bb2:
  v3 = load i64 v9
  v1 = add i64 v0, v3
  br bb1
bb3:
  ret v0
}");
        assert!(!c, "loads must not be hoisted without alias analysis");
    }

    #[test]
    fn idempotent_after_hoisting() {
        let mut f = parse_function(LOOP_WITH_INVARIANT).unwrap();
        assert!(Licm.run(&mut f, &ModuleSnapshot::empty("t")));
        assert!(!Licm.run(&mut f, &ModuleSnapshot::empty("t")));
    }
}
