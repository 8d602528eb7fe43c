//! Sparse conditional constant propagation.
//!
//! Classic SCCP over the lattice ⊤ (unknown) → constant → ⊥ (overdefined),
//! tracking executable CFG edges. Values proven constant are materialized;
//! conditional branches with proven-constant conditions are rewritten to
//! unconditional branches (the unreachable side is left for `simplify-cfg`).

use crate::util::detach_all;
use crate::Pass;
use sfcc_ir::{
    BlockId, Function, IdMap, IdSet, InstId, ModuleSnapshot, Op, Terminator, Ty, ValueRef, ENTRY,
};
use std::collections::VecDeque;

/// The `sccp` pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sccp;

/// Lattice value per SSA value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lattice {
    /// Not yet known (optimistically assumed constant).
    Top,
    /// Known to be this constant.
    Const(Ty, i64),
    /// Known to vary.
    Bottom,
}

impl Lattice {
    fn meet(self, other: Lattice) -> Lattice {
        match (self, other) {
            (Lattice::Top, x) | (x, Lattice::Top) => x,
            (Lattice::Const(t1, a), Lattice::Const(_, b)) if a == b => Lattice::Const(t1, a),
            _ => Lattice::Bottom,
        }
    }
}

impl Pass for Sccp {
    fn name(&self) -> &'static str {
        "sccp"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        Solver::new(func).solve_and_apply(func)
    }
}

/// The solver's tables are indexed by `InstId`/`BlockId`.
struct Solver {
    values: Vec<Lattice>,
    executable_edges: IdSet<(BlockId, BlockId)>,
    executable_blocks: Vec<bool>,
    block_work: VecDeque<BlockId>,
    inst_work: VecDeque<InstId>,
    /// Users of each instruction result (for sparse propagation): those of
    /// `i` are `users[user_start[i]..user_start[i + 1]]`, in layout order.
    user_start: Vec<usize>,
    users: Vec<InstId>,
    /// Blocks whose terminators use a value.
    term_users: Vec<Vec<BlockId>>,
    /// Owning block per attached instruction.
    owner: Vec<BlockId>,
}

impl Solver {
    fn new(func: &Function) -> Self {
        let arena = func.inst_arena_len();
        let mut user_start = vec![0usize; arena + 1];
        let mut owner = vec![BlockId(u32::MAX); arena];
        for (b, iid) in func.iter_insts() {
            owner[iid.0 as usize] = b;
            for arg in &func.inst(iid).args {
                if let ValueRef::Inst(d) = arg {
                    user_start[d.0 as usize + 1] += 1;
                }
            }
        }
        for i in 0..arena {
            user_start[i + 1] += user_start[i];
        }
        let mut users = vec![InstId(0); user_start[arena]];
        let mut fill = user_start.clone();
        for (_, iid) in func.iter_insts() {
            for arg in &func.inst(iid).args {
                if let ValueRef::Inst(d) = arg {
                    users[fill[d.0 as usize]] = iid;
                    fill[d.0 as usize] += 1;
                }
            }
        }
        let mut term_users: Vec<Vec<BlockId>> = vec![Vec::new(); arena];
        for b in func.block_ids() {
            if let Some(ValueRef::Inst(d)) = func.block(b).term.operand() {
                term_users[d.0 as usize].push(b);
            }
        }
        Solver {
            values: vec![Lattice::Top; arena],
            executable_edges: IdSet::default(),
            executable_blocks: vec![false; func.block_count()],
            block_work: VecDeque::new(),
            inst_work: VecDeque::new(),
            user_start,
            users,
            term_users,
            owner,
        }
    }

    fn value_of(&self, v: ValueRef) -> Lattice {
        match v {
            ValueRef::Const(ty, c) => Lattice::Const(ty, c),
            ValueRef::Param(_) => Lattice::Bottom,
            ValueRef::Inst(i) => self.values[i.0 as usize],
        }
    }

    fn set(&mut self, i: InstId, new: Lattice) {
        let old = self.values[i.0 as usize];
        let merged = old.meet(new);
        if merged != old {
            self.values[i.0 as usize] = merged;
            let (start, end) = (
                self.user_start[i.0 as usize],
                self.user_start[i.0 as usize + 1],
            );
            self.inst_work.extend(&self.users[start..end]);
            self.block_work.extend(&self.term_users[i.0 as usize]);
        }
    }

    fn mark_edge(&mut self, from: BlockId, to: BlockId) {
        if self.executable_edges.insert((from, to)) {
            // A newly live block is visited; a new edge into an already-live
            // block re-meets its phis.
            self.executable_blocks[to.0 as usize] = true;
            self.block_work.push_back(to);
        }
    }

    fn solve_and_apply(mut self, func: &mut Function) -> bool {
        self.executable_blocks[ENTRY.0 as usize] = true;
        self.block_work.push_back(ENTRY);

        while !self.block_work.is_empty() || !self.inst_work.is_empty() {
            while let Some(i) = self.inst_work.pop_front() {
                let b = self.owner[i.0 as usize];
                if self.executable_blocks[b.0 as usize] {
                    self.visit_inst(func, i);
                }
            }
            if let Some(b) = self.block_work.pop_front() {
                if self.executable_blocks[b.0 as usize] {
                    for &i in &func.block(b).insts {
                        self.visit_inst(func, i);
                    }
                    self.visit_terminator(func, b);
                }
            }
        }

        self.apply(func)
    }

    fn visit_inst(&mut self, func: &Function, iid: InstId) {
        let inst = func.inst(iid);
        let lat = match &inst.op {
            Op::Bin(kind) => match (self.value_of(inst.args[0]), self.value_of(inst.args[1])) {
                (Lattice::Const(ty, a), Lattice::Const(_, b)) => match kind.eval(a, b) {
                    Some(v) => Lattice::Const(ty, if ty == Ty::I1 { v & 1 } else { v }),
                    None => Lattice::Bottom, // traps at runtime: not constant
                },
                (Lattice::Bottom, _) | (_, Lattice::Bottom) => Lattice::Bottom,
                _ => Lattice::Top,
            },
            Op::Icmp(pred) => match (self.value_of(inst.args[0]), self.value_of(inst.args[1])) {
                (Lattice::Const(_, a), Lattice::Const(_, b)) => {
                    Lattice::Const(Ty::I1, pred.eval(a, b) as i64)
                }
                (Lattice::Bottom, _) | (_, Lattice::Bottom) => Lattice::Bottom,
                _ => Lattice::Top,
            },
            Op::Select => match self.value_of(inst.args[0]) {
                Lattice::Const(_, c) => {
                    self.value_of(if c != 0 { inst.args[1] } else { inst.args[2] })
                }
                Lattice::Bottom => self
                    .value_of(inst.args[1])
                    .meet(self.value_of(inst.args[2])),
                Lattice::Top => Lattice::Top,
            },
            Op::Phi(blocks) => {
                let me = self.owner[iid.0 as usize];
                let mut lat = Lattice::Top;
                for (pb, v) in blocks.iter().zip(&inst.args) {
                    if self.executable_edges.contains(&(*pb, me)) {
                        lat = lat.meet(self.value_of(*v));
                    }
                }
                lat
            }
            // Memory, calls, allocas: never constant.
            Op::Alloca(_) | Op::Load | Op::Store | Op::Gep | Op::Call(_) => Lattice::Bottom,
        };
        self.set(iid, lat);
    }

    fn visit_terminator(&mut self, func: &Function, b: BlockId) {
        match &func.block(b).term {
            Terminator::Br(t) => self.mark_edge(b, *t),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => match self.value_of(*cond) {
                Lattice::Const(_, c) => {
                    self.mark_edge(b, if c != 0 { *then_bb } else { *else_bb });
                }
                Lattice::Bottom => {
                    self.mark_edge(b, *then_bb);
                    self.mark_edge(b, *else_bb);
                }
                Lattice::Top => {}
            },
            Terminator::Ret(_) | Terminator::Trap => {}
        }
    }

    fn apply(self, func: &mut Function) -> bool {
        let mut map: IdMap<InstId, ValueRef> = IdMap::default();
        let mut dead: Vec<InstId> = Vec::new();
        for (i, lat) in self.values.iter().enumerate() {
            if let Lattice::Const(ty, c) = *lat {
                let iid = InstId(i as u32);
                if func.inst(iid).op.has_side_effects() {
                    continue;
                }
                map.insert(iid, ValueRef::Const(ty, c));
                dead.push(iid);
            }
        }
        let mut changed = !map.is_empty();
        func.replace_uses(&map);
        detach_all(func, &dead);

        // Rewrite branches whose condition was proven constant (either
        // replaced above, or never marked executable on one side).
        for b in func.block_ids().collect::<Vec<_>>() {
            if !self.executable_blocks[b.0 as usize] {
                continue;
            }
            if let Terminator::CondBr {
                cond: ValueRef::Const(_, c),
                then_bb,
                else_bb,
            } = func.block(b).term
            {
                let (kept, dropped) = if c != 0 {
                    (then_bb, else_bb)
                } else {
                    (else_bb, then_bb)
                };
                func.block_mut(b).term = Terminator::Br(kept);
                changed = true;
                // Phis in the dropped successor lose this predecessor.
                if dropped != kept {
                    remove_phi_incoming(func, dropped, b);
                }
            }
        }
        changed
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify_cfg::SimplifyCfg;
    use sfcc_ir::{function_to_string, parse_function, verify_function};

    fn run(text: &str) -> (bool, String) {
        let mut f = parse_function(text).unwrap();
        let changed = Sccp.run(&mut f, &ModuleSnapshot::empty("t"));
        SimplifyCfg.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (changed, function_to_string(&f))
    }

    #[test]
    fn propagates_through_branches() {
        // x is 7 on both paths; sccp proves the merged phi constant.
        let (c, text) = run(r"
fn @f(i1) -> i64 {
bb0:
  condbr p0, bb1, bb2
bb1:
  v0 = add i64 3, 4
  br bb3
bb2:
  v1 = add i64 5, 2
  br bb3
bb3:
  v2 = phi i64 [bb1: v0], [bb2: v1]
  v3 = mul i64 v2, 2
  ret v3
}");
        assert!(c);
        assert!(text.contains("ret 14"), "{text}");
    }

    #[test]
    fn kills_never_executed_path() {
        // The condition is constant, so the phi only sees one input.
        let (c, text) = run(r"
fn @f(i64) -> i64 {
bb0:
  v9 = icmp slt 1, 2
  condbr v9, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  v2 = phi i64 [bb1: 10], [bb2: p0]
  ret v2
}");
        assert!(c);
        assert!(text.contains("ret 10"), "{text}");
    }

    #[test]
    fn conditional_constants_beat_simple_folding() {
        // Classic SCCP example: x = 1; while/if structure keeps x constant
        // even though a naive folder gives up at the phi.
        let (c, text) = run(r"
fn @f(i1) -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 1], [bb2: v1]
  condbr p0, bb2, bb3
bb2:
  v1 = add i64 v0, 0
  br bb1
bb3:
  ret v0
}");
        assert!(c);
        assert!(text.contains("ret 1"), "{text}");
    }

    #[test]
    fn dormant_on_dynamic_values() {
        let (c, _) = run("fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 1\n  ret v0\n}");
        assert!(!c);
    }

    #[test]
    fn trapping_fold_goes_bottom() {
        let (c, text) = run("fn @f() -> i64 {\nbb0:\n  v0 = sdiv i64 5, 0\n  ret v0\n}");
        assert!(!c);
        assert!(text.contains("sdiv"), "{text}");
    }

    #[test]
    fn loads_are_bottom() {
        let (c, _) = run(
            "fn @f() -> i64 {\nbb0:\n  v0 = alloca 1\n  store v0, 3\n  v1 = load i64 v0\n  ret v1\n}",
        );
        assert!(!c);
    }
}
