//! Dominator tree construction (Cooper–Harvey–Kennedy) and dominance
//! frontiers, used by `mem2reg`, LICM, and the verifier.

use crate::cfg::{post_order, Predecessors};
use crate::function::{Function, ENTRY};
use crate::inst::BlockId;

/// The dominator tree of a function's reachable CFG.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block; `idom[entry] == entry`;
    /// `None` for unreachable blocks.
    idom: Vec<Option<BlockId>>,
    /// Children lists of the dominator tree.
    children: Vec<Vec<BlockId>>,
    /// Position of each block in the post-order used for intersection
    /// (`usize::MAX` for unreachable blocks).
    po_index: Vec<usize>,
    /// Reverse post-order of reachable blocks (entry first).
    rpo: Vec<BlockId>,
    /// Preorder number of each reachable block in the dominator tree, and
    /// the largest number in its subtree: `a` dominates `b` exactly when
    /// `pre[a] <= pre[b] <= last[a]`.
    pre: Vec<u32>,
    last: Vec<u32>,
    /// The predecessor lists the tree was built from.
    preds: Predecessors,
}

impl DomTree {
    /// Builds the dominator tree using the Cooper–Harvey–Kennedy iterative
    /// algorithm on reverse post-order.
    pub fn compute(func: &Function) -> Self {
        let preds = Predecessors::compute(func);
        let po = post_order(func);
        let n = func.block_count();
        let mut po_index = vec![usize::MAX; n];
        for (i, &b) in po.iter().enumerate() {
            po_index[b.0 as usize] = i;
        }
        let mut rpo = po.clone();
        rpo.reverse();

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[ENTRY.0 as usize] = Some(ENTRY);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| {
            while a != b {
                while po_index[a.0 as usize] < po_index[b.0 as usize] {
                    a = idom[a.0 as usize].expect("processed");
                }
                while po_index[b.0 as usize] < po_index[a.0 as usize] {
                    b = idom[b.0 as usize].expect("processed");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds.of(b) {
                    if po_index[p.0 as usize] == usize::MAX {
                        continue; // unreachable predecessor
                    }
                    if idom[p.0 as usize].is_none() {
                        continue; // not yet processed this round
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b.0 as usize] != new_idom {
                    idom[b.0 as usize] = new_idom;
                    changed = true;
                }
            }
        }

        let mut children = vec![Vec::new(); n];
        for b in func.block_ids() {
            if b == ENTRY {
                continue;
            }
            if let Some(parent) = idom[b.0 as usize] {
                children[parent.0 as usize].push(b);
            }
        }

        // Number the tree in preorder; a block's subtree is the range from
        // its own number to the last one handed out below it.
        let (mut pre, mut last) = (vec![0u32; n], vec![0u32; n]);
        let mut next = 0u32;
        let mut stack = vec![(ENTRY, false)];
        while let Some((b, done)) = stack.pop() {
            if done {
                last[b.0 as usize] = next - 1;
                continue;
            }
            pre[b.0 as usize] = next;
            next += 1;
            stack.push((b, true));
            stack.extend(children[b.0 as usize].iter().map(|&c| (c, false)));
        }

        DomTree {
            idom,
            children,
            po_index,
            rpo,
            pre,
            last,
            preds,
        }
    }

    /// The predecessor lists of the function the tree was computed for.
    pub fn preds(&self) -> &Predecessors {
        &self.preds
    }

    /// The immediate dominator of `block` (`entry`'s idom is itself);
    /// `None` when `block` is unreachable.
    pub fn idom(&self, block: BlockId) -> Option<BlockId> {
        self.idom[block.0 as usize]
    }

    /// Whether `block` is reachable from the entry.
    pub fn is_reachable(&self, block: BlockId) -> bool {
        self.po_index[block.0 as usize] != usize::MAX
    }

    /// Whether `a` dominates `b` (reflexive: every block dominates itself).
    ///
    /// Unreachable blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let (a, b) = (a.0 as usize, b.0 as usize);
        self.pre[a] <= self.pre[b] && self.pre[b] <= self.last[a]
    }

    /// Children of `block` in the dominator tree.
    pub fn children(&self, block: BlockId) -> &[BlockId] {
        &self.children[block.0 as usize]
    }

    /// Reverse post-order of reachable blocks (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Computes dominance frontiers for phi placement.
    pub fn frontiers(&self, func: &Function) -> Vec<Vec<BlockId>> {
        let preds = &self.preds;
        let n = func.block_count();
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for b in func.block_ids() {
            if !self.is_reachable(b) || preds.count(b) < 2 {
                continue;
            }
            let idom_b = self.idom[b.0 as usize].expect("reachable");
            for &p in preds.of(b) {
                if !self.is_reachable(p) {
                    continue;
                }
                let mut runner = p;
                while runner != idom_b {
                    if !df[runner.0 as usize].contains(&b) {
                        df[runner.0 as usize].push(b);
                    }
                    if runner == ENTRY {
                        break;
                    }
                    runner = self.idom[runner.0 as usize].expect("reachable");
                }
            }
        }
        df
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FuncBuilder;
    use crate::inst::{Ty, ValueRef};

    /// entry → (b1 | b2); b1 → b3; b2 → b3; b3 → ret
    fn diamond() -> (Function, BlockId, BlockId, BlockId) {
        let mut f = Function::new("d", vec![Ty::I1], None);
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
        b.ret(None);
        (f, b1, b2, b3)
    }

    #[test]
    fn idoms_of_diamond() {
        let (f, b1, b2, b3) = diamond();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(ENTRY), Some(ENTRY));
        assert_eq!(dt.idom(b1), Some(ENTRY));
        assert_eq!(dt.idom(b2), Some(ENTRY));
        assert_eq!(dt.idom(b3), Some(ENTRY)); // join dominated by entry, not branches
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let (f, b1, _, b3) = diamond();
        let dt = DomTree::compute(&f);
        assert!(dt.dominates(ENTRY, b3));
        assert!(dt.dominates(b1, b1));
        assert!(!dt.dominates(b1, b3));
        assert!(!dt.dominates(b3, ENTRY));
    }

    #[test]
    fn frontier_of_diamond_branches_is_join() {
        let (f, b1, b2, b3) = diamond();
        let dt = DomTree::compute(&f);
        let df = dt.frontiers(&f);
        assert_eq!(df[b1.0 as usize], vec![b3]);
        assert_eq!(df[b2.0 as usize], vec![b3]);
        assert!(df[b3.0 as usize].is_empty());
    }

    #[test]
    fn loop_header_in_own_frontier() {
        // entry → header; header → (body | exit); body → header
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
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(body), Some(header));
        assert_eq!(dt.idom(exit), Some(header));
        let df = dt.frontiers(&f);
        // The body's frontier is the header (back edge target).
        assert_eq!(df[body.0 as usize], vec![header]);
        assert_eq!(df[header.0 as usize], vec![header]);
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let (mut f, ..) = diamond();
        let orphan = f.add_block();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(orphan), None);
        assert!(!dt.is_reachable(orphan));
        assert!(!dt.dominates(ENTRY, orphan));
    }

    #[test]
    fn children_partition_reachable_blocks() {
        let (f, ..) = diamond();
        let dt = DomTree::compute(&f);
        let total_children: usize = f.block_ids().map(|b| dt.children(b).len()).sum();
        // every reachable non-entry block is someone's child
        assert_eq!(total_children, 3);
    }

    #[test]
    fn rpo_matches_block_count() {
        let (f, ..) = diamond();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.rpo().len(), 4);
        assert_eq!(dt.rpo()[0], ENTRY);
    }
}
