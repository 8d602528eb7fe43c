//! Natural-loop detection, used by LICM, loop unrolling and loop deletion.

use crate::cfg::Predecessors;
use crate::dom::DomTree;
use crate::function::Function;
use crate::inst::BlockId;

/// One natural loop: a header plus the set of blocks that reach a back edge
/// without leaving the header's dominance region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// The loop header (the target of the back edge(s)).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: Vec<BlockId>,
    /// Loop depth: 1 for outermost loops, 2 for loops nested once, …
    pub depth: u32,
    /// Index of the enclosing loop in [`LoopForest::loops`], if nested.
    pub parent: Option<usize>,
}

impl Loop {
    /// Whether `block` belongs to this loop.
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.contains(&block)
    }

    /// Blocks inside the loop that have a successor outside it.
    pub fn exiting_blocks(&self, func: &Function) -> Vec<BlockId> {
        self.blocks
            .iter()
            .copied()
            .filter(|&b| {
                func.block(b)
                    .term
                    .successors()
                    .iter()
                    .any(|s| !self.contains(*s))
            })
            .collect()
    }

    /// Blocks outside the loop targeted from inside it.
    pub fn exit_targets(&self, func: &Function) -> Vec<BlockId> {
        let mut out = Vec::new();
        for &b in &self.blocks {
            for s in func.block(b).term.successors() {
                if !self.contains(s) && !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// The unique loop *preheader*: the single predecessor of the header from
    /// outside the loop, when it exists and only branches to the header.
    pub fn preheader(&self, func: &Function, preds: &Predecessors) -> Option<BlockId> {
        let outside: Vec<BlockId> = preds
            .of(self.header)
            .iter()
            .copied()
            .filter(|p| !self.contains(*p))
            .collect();
        match outside.as_slice() {
            [single] if *func.block(*single).term.successors() == [self.header] => Some(*single),
            _ => None,
        }
    }

    /// The single back-edge source (latch), when unique.
    pub fn latch(&self, preds: &Predecessors) -> Option<BlockId> {
        let latches: Vec<BlockId> = preds
            .of(self.header)
            .iter()
            .copied()
            .filter(|p| self.contains(*p))
            .collect();
        match latches.as_slice() {
            [single] => Some(*single),
            _ => None,
        }
    }
}

/// All natural loops of a function.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// Loops sorted outermost-first (parents before children).
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Finds natural loops via back edges (`tail → header` where the header
    /// dominates the tail) and computes nesting.
    pub fn compute(func: &Function, dom: &DomTree) -> Self {
        let mut headers: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for b in func.block_ids() {
            if !dom.is_reachable(b) {
                continue;
            }
            for succ in func.block(b).term.successors() {
                if dom.dominates(succ, b) {
                    // back edge b → succ
                    match headers.iter_mut().find(|(h, _)| *h == succ) {
                        Some((_, tails)) => tails.push(b),
                        None => headers.push((succ, vec![b])),
                    }
                }
            }
        }

        let preds = dom.preds();
        let mut loops: Vec<Loop> = Vec::new();
        // in_body[b] == k + 1: `b` is in the body of the k-th header's loop.
        let mut in_body = vec![0usize; func.block_count()];
        for (k, (header, tails)) in headers.into_iter().enumerate() {
            // Collect the loop body: header plus everything that reaches a
            // tail backwards without passing through the header.
            let mut blocks = vec![header];
            in_body[header.0 as usize] = k + 1;
            let mut stack = tails;
            while let Some(b) = stack.pop() {
                if in_body[b.0 as usize] != k + 1 {
                    in_body[b.0 as usize] = k + 1;
                    blocks.push(b);
                    for &p in preds.of(b) {
                        if dom.is_reachable(p) {
                            stack.push(p);
                        }
                    }
                }
            }
            blocks.sort();
            loops.push(Loop {
                header,
                blocks,
                depth: 0,
                parent: None,
            });
        }

        // Sort outermost first (larger body first; ties by header id).
        loops.sort_by(|a, b| {
            b.blocks
                .len()
                .cmp(&a.blocks.len())
                .then(a.header.cmp(&b.header))
        });

        // Nesting: a loop's parent is the smallest strictly-larger loop
        // containing its header.
        for i in 0..loops.len() {
            let mut parent: Option<usize> = None;
            for j in 0..i {
                if loops[j].header != loops[i].header && loops[j].contains(loops[i].header) {
                    parent = Some(j); // loops are sorted largest-first, so the
                                      // last match is the tightest enclosing one
                }
            }
            loops[i].parent = parent;
            loops[i].depth = match parent {
                Some(p) => loops[p].depth + 1,
                None => 1,
            };
        }

        LoopForest { loops }
    }

    /// The innermost loop containing `block`, if any.
    pub fn innermost_containing(&self, block: BlockId) -> Option<&Loop> {
        self.loops
            .iter()
            .filter(|l| l.contains(block))
            .max_by_key(|l| l.depth)
    }

    /// The loop depth of `block` (0 when not in any loop).
    pub fn depth_of(&self, block: BlockId) -> u32 {
        self.innermost_containing(block).map_or(0, |l| l.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{FuncBuilder, ENTRY};
    use crate::inst::{Ty, ValueRef};

    /// entry → header; header → (body | exit); body → header; exit: ret
    fn simple_loop() -> (Function, BlockId, BlockId, BlockId) {
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
        (f, header, body, exit)
    }

    #[test]
    fn finds_simple_loop() {
        let (f, header, body, exit) = simple_loop();
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, header);
        assert!(l.contains(body));
        assert!(!l.contains(exit));
        assert!(!l.contains(ENTRY));
        assert_eq!(l.depth, 1);
    }

    #[test]
    fn preheader_latch_exits() {
        let (f, header, body, exit) = simple_loop();
        let dom = DomTree::compute(&f);
        let preds = Predecessors::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        let l = &forest.loops[0];
        assert_eq!(l.preheader(&f, &preds), Some(ENTRY));
        assert_eq!(l.latch(&preds), Some(body));
        assert_eq!(l.exiting_blocks(&f), vec![header]);
        assert_eq!(l.exit_targets(&f), vec![exit]);
    }

    #[test]
    fn nested_loops_get_depths() {
        // entry → h1; h1 → (h2|exit); h2 → (body|h1_latch); body → h2;
        // h1_latch → h1; exit: ret
        let mut f = Function::new("n", vec![Ty::I1], None);
        let h1 = f.add_block();
        let h2 = f.add_block();
        let body = f.add_block();
        let latch1 = f.add_block();
        let exit = f.add_block();
        let mut b = FuncBuilder::at_entry(&mut f);
        b.br(h1);
        b.switch_to(h1);
        b.cond_br(ValueRef::Param(0), h2, exit);
        b.switch_to(h2);
        b.cond_br(ValueRef::Param(0), body, latch1);
        b.switch_to(body);
        b.br(h2);
        b.switch_to(latch1);
        b.br(h1);
        b.switch_to(exit);
        b.ret(None);

        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.loops.len(), 2);
        let outer = forest.loops.iter().find(|l| l.header == h1).unwrap();
        let inner = forest.loops.iter().find(|l| l.header == h2).unwrap();
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert!(outer.contains(h2));
        assert!(inner.contains(body));
        assert!(!inner.contains(latch1));
        assert_eq!(forest.depth_of(body), 2);
        assert_eq!(forest.depth_of(latch1), 1);
        assert_eq!(forest.depth_of(exit), 0);
    }

    #[test]
    fn no_loops_in_straight_line() {
        let mut f = Function::new("s", vec![], None);
        FuncBuilder::at_entry(&mut f).ret(None);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert!(forest.loops.is_empty());
        assert_eq!(forest.depth_of(ENTRY), 0);
    }

    #[test]
    fn self_loop_detected() {
        let mut f = Function::new("self", vec![Ty::I1], None);
        let l = f.add_block();
        let exit = f.add_block();
        let mut b = FuncBuilder::at_entry(&mut f);
        b.br(l);
        b.switch_to(l);
        b.cond_br(ValueRef::Param(0), l, exit);
        b.switch_to(exit);
        b.ret(None);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.loops.len(), 1);
        assert_eq!(forest.loops[0].blocks, vec![l]);
        let preds = Predecessors::compute(&f);
        assert_eq!(forest.loops[0].latch(&preds), Some(l));
    }
}
