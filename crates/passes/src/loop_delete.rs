//! Deletion of dead loops.
//!
//! A loop is removable when it has no side effects (no stores or calls), a
//! unique preheader, a single exit target reached from the header, and no
//! value defined inside it is used outside. MiniC loops are assumed to make
//! progress (the `mustprogress` convention in C++/LLVM), so an infinite
//! side-effect-free loop may be deleted.

use crate::Pass;
use sfcc_ir::{DomTree, Function, LoopForest, ModuleSnapshot, Op, Terminator, ValueRef};

/// The `loop-delete` pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopDelete;

impl Pass for LoopDelete {
    fn name(&self) -> &'static str {
        "loop-delete"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        let mut changed = false;
        // Stamps of the loop being visited: in_loop[block] and
        // inside_def[inst] equal `visit` for its blocks and instructions.
        let mut in_loop = vec![0u32; func.block_count()];
        let mut inside_def = vec![0u32; func.inst_arena_len()];
        let mut visit = 0u32;
        loop {
            let dom = DomTree::compute(func);
            let preds = dom.preds();
            let forest = LoopForest::compute(func, &dom);
            let mut deleted = false;

            'loops: for l in &forest.loops {
                let Some(preheader) = l.preheader(func, preds) else {
                    continue;
                };
                // Exit structure: header conditionally exits to a single
                // outside target.
                let exits = l.exit_targets(func);
                let [exit] = exits.as_slice() else { continue };
                let exit = *exit;
                if !l.exiting_blocks(func).contains(&l.header) {
                    continue;
                }
                visit += 1;
                for &b in &l.blocks {
                    in_loop[b.0 as usize] = visit;
                }

                // No side effects inside.
                for &b in &l.blocks {
                    for &iid in &func.block(b).insts {
                        if func.inst(iid).op.has_side_effects() {
                            continue 'loops;
                        }
                    }
                }

                // No inside-defined value used outside the loop.
                for &b in &l.blocks {
                    for &iid in &func.block(b).insts {
                        inside_def[iid.0 as usize] = visit;
                    }
                }
                let defined_inside = |v: &ValueRef| matches!(v, ValueRef::Inst(i) if inside_def[i.0 as usize] == visit);
                for b in func.block_ids() {
                    if in_loop[b.0 as usize] == visit {
                        continue;
                    }
                    for &iid in &func.block(b).insts {
                        if func.inst(iid).args.iter().any(defined_inside) {
                            continue 'loops;
                        }
                    }
                    if func.block(b).term.operand().iter().any(defined_inside) {
                        continue 'loops;
                    }
                }

                // Redirect the preheader straight to the exit; exit phis that
                // named the header as predecessor now come from the
                // preheader (their values were checked to be loop-outside).
                func.block_mut(preheader).term = Terminator::Br(exit);
                for iid in func.block(exit).insts.clone() {
                    let inst = func.inst_mut(iid);
                    if let Op::Phi(blocks) = &mut inst.op {
                        for pb in blocks.iter_mut() {
                            if *pb == l.header {
                                *pb = preheader;
                            }
                        }
                    }
                }
                deleted = true;
                changed = true;
                break;
            }
            if !deleted {
                return changed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify_cfg::SimplifyCfg;
    use sfcc_ir::{function_to_string, parse_function, verify_function};

    fn run(text: &str) -> (bool, String) {
        let mut f = parse_function(text).unwrap();
        let changed = LoopDelete.run(&mut f, &ModuleSnapshot::empty("t"));
        // Clean up the now-unreachable loop body before verifying phis.
        SimplifyCfg.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (changed, function_to_string(&f))
    }

    const DEAD_LOOP: &str = r"
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
  ret 42
}";

    #[test]
    fn deletes_effect_free_loop() {
        let (c, text) = run(DEAD_LOOP);
        assert!(c);
        assert!(!text.contains("phi"), "{text}");
        assert!(text.contains("ret 42"), "{text}");
    }

    #[test]
    fn keeps_loop_with_store() {
        let (c, _) = run(r"
fn @f(i64) -> i64 {
bb0:
  v9 = alloca 1
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v2 = icmp slt v0, p0
  condbr v2, bb2, bb3
bb2:
  v1 = add i64 v0, 1
  store v9, v1
  br bb1
bb3:
  ret 42
}");
        assert!(!c);
    }

    #[test]
    fn keeps_loop_whose_result_is_used() {
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
    fn exit_phi_from_outside_value_is_retargeted() {
        let (c, text) = run(r"
fn @f(i64, i64) -> i64 {
bb0:
  v9 = add i64 p1, 5
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v2 = icmp slt v0, p0
  condbr v2, bb2, bb3
bb2:
  v1 = add i64 v0, 1
  br bb1
bb3:
  v3 = phi i64 [bb1: v9]
  ret v3
}");
        assert!(c);
        assert!(text.contains("ret"), "{text}");
        verify_after(&text);
    }

    fn verify_after(text: &str) {
        let f = parse_function(text).unwrap();
        verify_function(&f).unwrap();
    }
}
