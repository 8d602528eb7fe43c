//! Control-flow-graph utilities: predecessors, reachability, orderings.

use crate::function::{Function, ENTRY};
use crate::inst::BlockId;

/// Predecessor lists for every block of a function, computed in one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predecessors {
    preds: Vec<Vec<BlockId>>,
}

impl Predecessors {
    /// Computes predecessors for `func`.
    pub fn compute(func: &Function) -> Self {
        let mut preds = vec![Vec::new(); func.block_count()];
        for b in func.block_ids() {
            for succ in func.block(b).term.successors() {
                preds[succ.0 as usize].push(b);
            }
        }
        Predecessors { preds }
    }

    /// Predecessors of `block` in terminator order.
    pub fn of(&self, block: BlockId) -> &[BlockId] {
        &self.preds[block.0 as usize]
    }

    /// Number of predecessors of `block`.
    pub fn count(&self, block: BlockId) -> usize {
        self.of(block).len()
    }

    /// Updates the lists for a CFG edit that leaves nothing branching to
    /// `from`, and moves `from`'s edges into `succs` to `to`: a block
    /// merged into its only predecessor `to`, or a loop header replaced by
    /// the unrolled block `to` before the loop exit. `to` may be a block
    /// added after the lists were computed; its own list is not tracked.
    pub fn redirect(&mut self, from: BlockId, to: BlockId, succs: &[BlockId]) {
        self.preds[from.0 as usize].clear();
        for &succ in succs {
            for p in &mut self.preds[succ.0 as usize] {
                if *p == from {
                    *p = to;
                }
            }
        }
    }
}

/// Blocks reachable from the entry, as a dense bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reachability {
    reachable: Vec<bool>,
}

impl Reachability {
    /// Computes reachability from the entry block.
    pub fn compute(func: &Function) -> Self {
        let mut reachable = vec![false; func.block_count()];
        let mut stack = vec![ENTRY];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut reachable[b.0 as usize], true) {
                continue;
            }
            stack.extend(func.block(b).term.successors());
        }
        Reachability { reachable }
    }

    /// Whether `block` is reachable from the entry.
    pub fn is_reachable(&self, block: BlockId) -> bool {
        self.reachable[block.0 as usize]
    }

    /// Iterates reachable block ids in layout order.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.reachable
            .iter()
            .enumerate()
            .filter(|(_, &r)| r)
            .map(|(i, _)| BlockId(i as u32))
    }

    /// Number of reachable blocks.
    pub fn count(&self) -> usize {
        self.reachable.iter().filter(|&&r| r).count()
    }
}

/// Computes a post-order of the blocks reachable from entry.
pub fn post_order(func: &Function) -> Vec<BlockId> {
    let n = func.block_count();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Iterative DFS with an explicit phase marker to emit post-order.
    let mut stack: Vec<(BlockId, bool)> = vec![(ENTRY, false)];
    while let Some((b, processed)) = stack.pop() {
        if processed {
            order.push(b);
            continue;
        }
        if std::mem::replace(&mut visited[b.0 as usize], true) {
            continue;
        }
        stack.push((b, true));
        // Push successors in reverse so the first successor is visited first.
        let succs = func.block(b).term.successors();
        for s in succs.into_iter().rev() {
            if !visited[s.0 as usize] {
                stack.push((s, false));
            }
        }
    }
    order
}

/// Computes a reverse post-order (a topological-ish order for forward
/// dataflow) of reachable blocks.
pub fn reverse_post_order(func: &Function) -> Vec<BlockId> {
    let mut order = post_order(func);
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FuncBuilder;
    use crate::inst::{Ty, ValueRef};

    /// Builds a diamond CFG: entry → (b1 | b2) → b3.
    fn diamond() -> Function {
        let mut f = Function::new("d", vec![Ty::I1], Some(Ty::I64));
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
        b.ret(Some(ValueRef::int(0)));
        f
    }

    #[test]
    fn preds_of_diamond() {
        let f = diamond();
        let preds = Predecessors::compute(&f);
        assert_eq!(preds.count(ENTRY), 0);
        assert_eq!(preds.of(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert_eq!(preds.of(BlockId(1)), &[ENTRY]);
    }

    #[test]
    fn reachability_ignores_orphan_blocks() {
        let mut f = diamond();
        let orphan = f.add_block();
        let r = Reachability::compute(&f);
        assert!(!r.is_reachable(orphan));
        assert_eq!(r.count(), 4);
        assert_eq!(r.iter().count(), 4);
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_dominance() {
        let f = diamond();
        let rpo = reverse_post_order(&f);
        assert_eq!(rpo[0], ENTRY);
        assert_eq!(rpo.len(), 4);
        // b3 (the join) must come after both b1 and b2.
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(BlockId(3)) > pos(BlockId(1)));
        assert!(pos(BlockId(3)) > pos(BlockId(2)));
    }

    #[test]
    fn post_order_ends_at_entry() {
        let f = diamond();
        let po = post_order(&f);
        assert_eq!(*po.last().unwrap(), ENTRY);
    }

    #[test]
    fn single_block_orderings() {
        let mut f = Function::new("s", vec![], None);
        FuncBuilder::at_entry(&mut f).ret(None);
        assert_eq!(post_order(&f), vec![ENTRY]);
        assert_eq!(reverse_post_order(&f), vec![ENTRY]);
    }

    #[test]
    fn loop_cfg_orders_header_before_body() {
        // entry → header; header → (body | exit); body → header.
        let mut f = Function::new("l", vec![Ty::I1], None);
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let mut b = FuncBuilder::at_entry(&mut f);
        b.br(header);
        b.switch_to(header);
        b.cond_br(ValueRef::Param(0), body, exit);
        b.switch_to(body);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let rpo = reverse_post_order(&f);
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(header) < pos(body));
        assert!(pos(ENTRY) == 0);
    }
}
