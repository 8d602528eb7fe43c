//! Late peephole cleanups on branches and selects.
//!
//! Runs at the end of the pipeline: inverts branches on negated conditions,
//! folds branches on constants, and forms selects from two-constant diamonds
//! whose arms are empty.

use crate::Pass;
use sfcc_ir::{
    BinKind, BlockId, Function, IdMap, InstData, InstId, ModuleSnapshot, Op, Predecessors,
    Terminator, Ty, ValueRef,
};

/// The `peephole` pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Peephole;

impl Pass for Peephole {
    fn name(&self) -> &'static str {
        "peephole"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        let mut changed = false;
        changed |= invert_negated_branches(func);
        changed |= form_selects(func);
        changed
    }
}

/// `condbr (xor c, true), T, E` → `condbr c, E, T`.
fn invert_negated_branches(func: &mut Function) -> bool {
    let mut changed = false;
    for b in func.block_ids().collect::<Vec<_>>() {
        let Terminator::CondBr {
            cond: ValueRef::Inst(c),
            then_bb,
            else_bb,
        } = func.block(b).term
        else {
            continue;
        };
        let inst = func.inst(c);
        if inst.op == Op::Bin(BinKind::Xor)
            && inst.ty == Ty::I1
            && inst.args[1] == ValueRef::bool(true)
        {
            let inner = inst.args[0];
            func.block_mut(b).term = Terminator::CondBr {
                cond: inner,
                then_bb: else_bb,
                else_bb: then_bb,
            };
            // Phi inputs keyed by predecessor block are unaffected: the
            // predecessor is still `b`, only which edge is taken changes.
            changed = true;
        }
    }
    changed
}

/// Rewrites the two-arm empty diamond
///
/// ```text
/// b:  condbr c, t, e        t: br j        e: br j
/// j:  x = phi [t: v1], [e: v2]
/// ```
///
/// into `x = select c, v1, v2` followed by `br j`, leaving `t`/`e` for
/// `simplify-cfg` to collect. Fires only when `t` and `e` are empty blocks
/// with `b` as their sole predecessor.
fn form_selects(func: &mut Function) -> bool {
    let preds = Predecessors::compute(func);
    // Each rewritten phi → its select, applied in one `replace_uses` at the
    // end. No check below reads an operand, and a select's arms, which
    // dominate `b`, are never phis of its own join.
    let mut selects: IdMap<InstId, ValueRef> = IdMap::default();
    let mut changed = false;
    for b in func.block_ids().collect::<Vec<_>>() {
        let Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } = func.block(b).term
        else {
            continue;
        };
        if then_bb == else_bb {
            continue;
        }
        let arm_ok = |arm: BlockId| {
            func.block(arm).insts.is_empty()
                && preds.of(arm) == [b]
                && matches!(func.block(arm).term, Terminator::Br(_))
        };
        if !arm_ok(then_bb) || !arm_ok(else_bb) {
            continue;
        }
        let Terminator::Br(j1) = func.block(then_bb).term else {
            continue;
        };
        let Terminator::Br(j2) = func.block(else_bb).term else {
            continue;
        };
        if j1 != j2 {
            continue;
        }
        let join = j1;
        // Every phi in the join must have exactly the two arms as inputs.
        let phi_ids: Vec<_> = func
            .block(join)
            .insts
            .iter()
            .copied()
            .filter(|&i| matches!(func.inst(i).op, Op::Phi(_)))
            .collect();
        if phi_ids.is_empty() {
            continue; // nothing to gain; simplify-cfg threads this shape
        }
        let mut rewirable = true;
        let mut arms: Vec<(InstId, ValueRef, ValueRef)> = Vec::new();
        for &pid in &phi_ids {
            let inst = func.inst(pid);
            let Op::Phi(blocks) = &inst.op else {
                unreachable!()
            };
            if blocks.len() != 2 {
                rewirable = false;
                break;
            }
            let mut v_then = None;
            let mut v_else = None;
            for (pb, v) in blocks.iter().zip(&inst.args) {
                if *pb == then_bb {
                    v_then = Some(*v);
                } else if *pb == else_bb {
                    v_else = Some(*v);
                }
            }
            match (v_then, v_else) {
                (Some(a), Some(bv)) => arms.push((pid, a, bv)),
                _ => {
                    rewirable = false;
                    break;
                }
            }
        }
        if !rewirable {
            continue;
        }
        // Phi inputs must be computable at `b` (they already dominate the
        // arms, whose only predecessor is `b`, so they dominate `b`'s end —
        // except values defined *in* the arms, which are impossible since
        // the arms are empty).
        for (pid, v_then, v_else) in arms {
            let ty = func.inst(pid).ty;
            let sel =
                func.append_inst(b, InstData::new(Op::Select, vec![cond, v_then, v_else], ty));
            selects.insert(pid, ValueRef::Inst(sel));
        }
        func.block_mut(join).insts.retain(|i| !phi_ids.contains(i));
        func.block_mut(b).term = Terminator::Br(join);
        changed = true;
    }
    func.replace_uses(&selects);
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify_cfg::SimplifyCfg;
    use sfcc_ir::{function_to_string, parse_function, verify_function};

    fn run(text: &str) -> (bool, String) {
        let mut f = parse_function(text).unwrap();
        let changed = Peephole.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        SimplifyCfg.run(&mut f, &ModuleSnapshot::empty("t"));
        (changed, function_to_string(&f))
    }

    #[test]
    fn inverts_negated_branch() {
        let (c, text) = run(r"
fn @f(i1) -> i64 {
bb0:
  v0 = xor i1 p0, true
  condbr v0, bb1, bb2
bb1:
  ret 1
bb2:
  ret 2
}");
        assert!(c);
        assert!(text.contains("condbr p0"), "{text}");
        // True path now returns 2: extract the first target of the condbr
        // and check that its block returns 2.
        let cond_line = text.lines().find(|l| l.contains("condbr")).unwrap();
        let then_target = cond_line
            .split("condbr p0, ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .unwrap()
            .trim()
            .to_string();
        let then_body: String = text
            .lines()
            .skip_while(|l| !l.starts_with(&format!("{then_target}:")))
            .take(2)
            .collect::<Vec<_>>()
            .join(" ");
        assert!(then_body.contains("ret 2"), "{text}");
    }

    #[test]
    fn forms_select_from_diamond() {
        let (c, text) = run(r"
fn @f(i1, i64, i64) -> i64 {
bb0:
  condbr p0, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  v0 = phi i64 [bb1: p1], [bb2: p2]
  ret v0
}");
        assert!(c);
        assert!(text.contains("select i64 p0, p1, p2"), "{text}");
        assert!(!text.contains("phi"), "{text}");
        assert!(!text.contains("condbr"), "{text}");
    }

    #[test]
    fn no_select_when_arm_has_instructions() {
        let (c, text) = run(r"
fn @f(i1, i64) -> i64 {
bb0:
  condbr p0, bb1, bb2
bb1:
  v1 = add i64 p1, 1
  br bb3
bb2:
  br bb3
bb3:
  v0 = phi i64 [bb1: v1], [bb2: p1]
  ret v0
}");
        assert!(!c);
        assert!(text.contains("phi"), "{text}");
    }

    #[test]
    fn dormant_on_plain_code() {
        let (c, _) = run("fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 1\n  ret v0\n}");
        assert!(!c);
    }

    #[test]
    fn multiple_phis_all_become_selects() {
        let (c, text) = run(r"
fn @f(i1, i64, i64) -> i64 {
bb0:
  condbr p0, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  v0 = phi i64 [bb1: p1], [bb2: p2]
  v1 = phi i64 [bb1: p2], [bb2: p1]
  v2 = add i64 v0, v1
  ret v2
}");
        assert!(c);
        assert_eq!(text.matches("select").count(), 2, "{text}");
    }
}
