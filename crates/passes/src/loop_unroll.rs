//! Full unrolling of small constant-trip-count loops.
//!
//! Recognizes the canonical shape produced by lowering + `simplify-cfg` +
//! `mem2reg`:
//!
//! ```text
//! preheader: ... br header
//! header:    i  = phi [preheader: C0], [latch: next]
//!            …other phis…
//!            cond = icmp pred i, K        ; K constant
//!            condbr cond, latch|exit, exit|latch
//! latch:     ... next = add i, STEP ...   ; STEP constant
//!            br header
//! exit:      ...
//! ```
//!
//! When the trip count is a compile-time constant within budget, the loop is
//! replaced by a straight-line chain of cloned iterations. Cross-iteration
//! data flows only through the header phis (guaranteed by SSA dominance), so
//! cloning one iteration at a time with a phi-value environment is sound.

use crate::Pass;
use sfcc_ir::{
    BinKind, BlockId, DomTree, Function, IcmpPred, IdMap, InstData, InstId, LoopForest,
    ModuleSnapshot, Op, Predecessors, Terminator, ValueRef,
};

/// Maximum trip count eligible for full unrolling.
pub const MAX_TRIPS: i64 = 8;
/// Maximum instructions in header + latch eligible for unrolling.
pub const MAX_BODY_INSTS: usize = 24;

/// The `loop-unroll` pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopUnroll;

impl Pass for LoopUnroll {
    fn name(&self) -> &'static str {
        "loop-unroll"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        let mut changed = false;
        // Unroll the first candidate in forest order, again and again. The
        // unroll of a top-level loop leaves every other loop's blocks, and
        // so the forest, as they were; only the exit's predecessor changes.
        // A nested loop's unroll reshapes its parent: recompute then.
        'analyses: loop {
            let dom = DomTree::compute(func);
            let forest = LoopForest::compute(func, &dom);
            let mut preds = dom.preds().clone();
            let mut unrolled = vec![false; forest.loops.len()];
            loop {
                let Some((i, cand)) = find_candidate(func, &forest, &preds, &unrolled) else {
                    return changed;
                };
                let (header, exit) = (cand.header, cand.exit);
                let final_block = apply(func, cand);
                changed = true;
                if forest.loops[i].parent.is_some() {
                    continue 'analyses;
                }
                unrolled[i] = true;
                preds.redirect(header, final_block, &[exit]);
            }
        }
    }
}

/// A matched unrollable loop.
struct Candidate {
    preheader: BlockId,
    header: BlockId,
    latch: BlockId,
    exit: BlockId,
    /// Header phis: `(phi id, init from preheader, next from latch)`.
    phis: Vec<(InstId, ValueRef, ValueRef)>,
    trips: i64,
}

/// The first unrollable loop in forest order that is not `unrolled`
/// already, with its index; `None` also when a loop before it has no
/// unique latch or preheader, or a trip count beyond [`MAX_TRIPS`].
fn find_candidate(
    func: &Function,
    forest: &LoopForest,
    preds: &Predecessors,
    unrolled: &[bool],
) -> Option<(usize, Candidate)> {
    'outer: for (i, l) in forest.loops.iter().enumerate() {
        if unrolled[i] || l.blocks.len() != 2 {
            continue;
        }
        let header = l.header;
        let latch = l.latch(preds)?;
        if latch == header || !l.contains(latch) {
            continue;
        }
        let preheader = l.preheader(func, preds)?;
        // Latch must branch straight back to the header.
        if func.block(latch).term != Terminator::Br(header) {
            continue;
        }
        // Header exits with a two-way branch: one edge into the latch, one out.
        let Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } = func.block(header).term
        else {
            continue;
        };
        let (exit, exit_on_true) = if then_bb == latch && !l.contains(else_bb) {
            (else_bb, false)
        } else if else_bb == latch && !l.contains(then_bb) {
            (then_bb, true)
        } else {
            continue;
        };

        if func.block(header).insts.len() + func.block(latch).insts.len() > MAX_BODY_INSTS {
            continue;
        }

        // Collect header phis; everything else in the header must be pure
        // (it will be re-evaluated once more for the final exit check).
        let mut phis: Vec<(InstId, ValueRef, ValueRef)> = Vec::new();
        for &iid in &func.block(header).insts {
            let inst = func.inst(iid);
            match &inst.op {
                Op::Phi(blocks) => {
                    if blocks.len() != 2 {
                        continue 'outer;
                    }
                    let mut init = None;
                    let mut next = None;
                    for (pb, v) in blocks.iter().zip(&inst.args) {
                        if *pb == preheader {
                            init = Some(*v);
                        } else if *pb == latch {
                            next = Some(*v);
                        }
                    }
                    let (Some(init), Some(next)) = (init, next) else {
                        continue 'outer;
                    };
                    phis.push((iid, init, next));
                }
                op if op.has_side_effects() || op.can_trap() => continue 'outer,
                _ => {}
            }
        }

        // The branch condition must be `icmp pred, iv, K`.
        let ValueRef::Inst(cond_id) = cond else {
            continue;
        };
        let cond_inst = func.inst(cond_id);
        let Op::Icmp(pred) = cond_inst.op else {
            continue;
        };
        let Some((_, bound)) = cond_inst.args[1].as_const() else {
            continue;
        };
        let iv = cond_inst.args[0];
        let Some(&(_, init, next)) = phis.iter().find(|(p, _, _)| ValueRef::Inst(*p) == iv) else {
            continue;
        };
        let Some((_, start)) = init.as_const() else {
            continue;
        };
        // `next` must be `add iv, STEP` with constant step.
        let ValueRef::Inst(next_id) = next else {
            continue;
        };
        let next_inst = func.inst(next_id);
        if next_inst.op != Op::Bin(BinKind::Add) || next_inst.args[0] != iv {
            continue;
        }
        let Some((_, step)) = next_inst.args[1].as_const() else {
            continue;
        };

        let trips = simulate(pred, start, step, bound, exit_on_true)?;
        return Some((
            i,
            Candidate {
                preheader,
                header,
                latch,
                exit,
                phis,
                trips,
            },
        ));
    }
    None
}

/// Simulates the induction variable to a constant trip count, or `None` when
/// it exceeds [`MAX_TRIPS`].
fn simulate(pred: IcmpPred, start: i64, step: i64, bound: i64, exit_on_true: bool) -> Option<i64> {
    let mut i = start;
    let mut trips = 0i64;
    loop {
        let stay = pred.eval(i, bound) != exit_on_true;
        if !stay {
            return Some(trips);
        }
        trips += 1;
        if trips > MAX_TRIPS {
            return None;
        }
        i = i.wrapping_add(step);
    }
}

/// Unrolls `cand`; returns the block that now branches to the exit.
fn apply(func: &mut Function, cand: Candidate) -> BlockId {
    let header_insts: Vec<InstId> = func.block(cand.header).insts.clone();
    let latch_insts: Vec<InstId> = func.block(cand.latch).insts.clone();

    // Environment: current value of each phi.
    let mut cur: IdMap<InstId, ValueRef> =
        cand.phis.iter().map(|&(p, init, _)| (p, init)).collect();

    // Global replacements applied at the end: original header values → their
    // final-evaluation clones (for uses in/after the exit block).
    let mut final_map: IdMap<InstId, ValueRef> = IdMap::default();

    let mut chain_start: Option<BlockId> = None;
    let mut prev_block: Option<BlockId> = None;

    let clone_insts = |func: &mut Function,
                       into: BlockId,
                       insts: &[InstId],
                       cur: &IdMap<InstId, ValueRef>,
                       iter_map: &mut IdMap<InstId, ValueRef>| {
        for &iid in insts {
            if cur.contains_key(&iid) {
                continue; // phis are the environment, not cloned
            }
            let data = func.inst(iid).clone();
            let mapped_args: Vec<ValueRef> = data
                .args
                .iter()
                .map(|&a| match a {
                    ValueRef::Inst(d) => cur
                        .get(&d)
                        .copied()
                        .or_else(|| iter_map.get(&d).copied())
                        .unwrap_or(a),
                    other => other,
                })
                .collect();
            let clone = func.append_inst(into, InstData::new(data.op, mapped_args, data.ty));
            iter_map.insert(iid, ValueRef::Inst(clone));
        }
    };

    for _ in 0..cand.trips {
        let block = func.add_block();
        if chain_start.is_none() {
            chain_start = Some(block);
        }
        if let Some(prev) = prev_block {
            func.block_mut(prev).term = Terminator::Br(block);
        }
        let mut iter_map: IdMap<InstId, ValueRef> = IdMap::default();
        clone_insts(func, block, &header_insts, &cur, &mut iter_map);
        clone_insts(func, block, &latch_insts, &cur, &mut iter_map);
        // Advance the phi environment.
        let mut next_cur = IdMap::default();
        for &(p, _, next) in &cand.phis {
            let v = match next {
                ValueRef::Inst(d) => cur
                    .get(&d)
                    .copied()
                    .or_else(|| iter_map.get(&d).copied())
                    .unwrap_or(next),
                other => other,
            };
            next_cur.insert(p, v);
        }
        cur = next_cur;
        prev_block = Some(block);
    }

    // Final evaluation of the header (the iteration that takes the exit).
    let final_block = func.add_block();
    if chain_start.is_none() {
        chain_start = Some(final_block);
    }
    if let Some(prev) = prev_block {
        func.block_mut(prev).term = Terminator::Br(final_block);
    }
    let mut final_iter: IdMap<InstId, ValueRef> = IdMap::default();
    clone_insts(func, final_block, &header_insts, &cur, &mut final_iter);
    func.block_mut(final_block).term = Terminator::Br(cand.exit);

    for (&orig, &clone) in &final_iter {
        final_map.insert(orig, clone);
    }
    for (&phi, &val) in &cur {
        final_map.insert(phi, val);
    }

    // Rewire: preheader enters the chain; exit phis now come from the final
    // block with final values.
    func.block_mut(cand.preheader).term =
        Terminator::Br(chain_start.expect("at least the final block"));
    for iid in func.block(cand.exit).insts.clone() {
        let inst = func.inst_mut(iid);
        if let Op::Phi(blocks) = &mut inst.op {
            for pb in blocks.iter_mut() {
                if *pb == cand.header {
                    *pb = final_block;
                }
            }
        }
    }

    // Redirect remaining uses of the original loop's values (exit-block phi
    // inputs and anything dominated by the exit).
    func.replace_uses(&final_map);

    // Turn the old loop blocks into unreachable husks; nothing references
    // them after the rewiring above.
    for b in [cand.header, cand.latch] {
        let block = func.block_mut(b);
        block.insts.clear();
        block.term = Terminator::Trap;
    }
    final_block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constfold::ConstFold;
    use crate::simplify_cfg::SimplifyCfg;
    use sfcc_ir::{function_to_string, parse_function, verify_function};

    fn run(text: &str) -> (bool, String) {
        let mut f = parse_function(text).unwrap();
        let changed = LoopUnroll.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        SimplifyCfg.run(&mut f, &ModuleSnapshot::empty("t"));
        ConstFold.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (changed, function_to_string(&f))
    }

    const SUM_0_TO_3: &str = r"
fn @f() -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v5 = phi i64 [bb0: 0], [bb2: v6]
  v2 = icmp slt v0, 4
  condbr v2, bb2, bb3
bb2:
  v6 = add i64 v5, v0
  v1 = add i64 v0, 1
  br bb1
bb3:
  ret v5
}";

    #[test]
    fn unrolls_and_folds_constant_sum() {
        let (c, text) = run(SUM_0_TO_3);
        assert!(c);
        // 0+1+2+3 = 6, fully folded.
        assert!(text.contains("ret 6"), "{text}");
        assert!(!text.contains("phi"), "{text}");
        assert!(!text.contains("condbr"), "{text}");
    }

    #[test]
    fn zero_trip_loop_unrolls_to_fallthrough() {
        let (c, text) = run(r"
fn @f() -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 5], [bb2: v1]
  v2 = icmp slt v0, 3
  condbr v2, bb2, bb3
bb2:
  v1 = add i64 v0, 1
  br bb1
bb3:
  ret v0
}");
        assert!(c);
        assert!(text.contains("ret 5"), "{text}");
    }

    #[test]
    fn large_trip_count_not_unrolled() {
        let (c, _) = run(r"
fn @f() -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v2 = icmp slt v0, 1000
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
    fn dynamic_bound_not_unrolled() {
        let (c, _) = run(r"
fn @f(i64) -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v2 = icmp slt v0, p0
  condbr v2, bb2, bb3
bb3:
  ret v0
bb2:
  v1 = add i64 v0, 1
  br bb1
}");
        assert!(!c);
    }

    #[test]
    fn unrolled_side_effects_stay_in_order() {
        let (c, text) = run(r"
fn @f() {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v2 = icmp slt v0, 3
  condbr v2, bb2, bb3
bb2:
  call @print(v0)
  v1 = add i64 v0, 1
  br bb1
bb3:
  ret
}");
        assert!(c);
        // Three print calls with the concrete induction values.
        assert_eq!(text.matches("call @print").count(), 3, "{text}");
        assert!(text.contains("call @print(0)"), "{text}");
        assert!(text.contains("call @print(2)"), "{text}");
    }

    #[test]
    fn exit_uses_of_header_values_resolve() {
        // `ret v0` in the exit uses the induction variable after the loop.
        let (c, text) = run(r"
fn @f() -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v2 = icmp slt v0, 4
  condbr v2, bb2, bb3
bb2:
  v1 = add i64 v0, 2
  br bb1
bb3:
  ret v0
}");
        assert!(c);
        assert!(text.contains("ret 4"), "{text}");
    }

    #[test]
    fn negative_step_downward_loop() {
        let (c, text) = run(r"
fn @f() -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 5], [bb2: v1]
  v5 = phi i64 [bb0: 0], [bb2: v6]
  v2 = icmp sgt v0, 0
  condbr v2, bb2, bb3
bb2:
  v6 = add i64 v5, v0
  v1 = add i64 v0, -1
  br bb1
bb3:
  ret v5
}");
        assert!(c);
        // 5+4+3+2+1 = 15
        assert!(text.contains("ret 15"), "{text}");
    }
}
