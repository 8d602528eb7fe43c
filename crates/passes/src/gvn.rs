//! Dominator-scoped global value numbering.
//!
//! Walks the dominator tree keeping a scoped table of available pure
//! expressions; an instruction whose key is already available in a
//! dominating block is replaced by the earlier result. Subsumes local CSE
//! across block boundaries.

use crate::cse::{expr_key, ExprKey};
use crate::util::detach_all;
use crate::Pass;
use sfcc_ir::{BlockId, DomTree, Function, IdMap, InstId, ModuleSnapshot, ValueRef, ENTRY};
use std::collections::HashMap;

/// The `gvn` pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gvn;

impl Pass for Gvn {
    fn name(&self) -> &'static str {
        "gvn"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        let dom = DomTree::compute(func);
        let mut map: IdMap<InstId, ValueRef> = IdMap::default();
        let mut dead: Vec<InstId> = Vec::new();

        // Preorder DFS over the dominator tree with scope restoration. An
        // instruction is keyed with its operands read through the
        // replacements made so far: each operand's definition dominates it
        // and was visited first, so one walk reaches the fixpoint that
        // re-walking the rewritten function would.
        enum Step {
            Enter(BlockId),
            Exit(Vec<ExprKey>),
        }
        let mut table: HashMap<ExprKey, InstId> = HashMap::new();
        let mut agenda = vec![Step::Enter(ENTRY)];
        while let Some(step) = agenda.pop() {
            match step {
                Step::Exit(keys) => {
                    for k in keys {
                        table.remove(&k);
                    }
                }
                Step::Enter(b) => {
                    let mut added = Vec::new();
                    for &iid in &func.block(b).insts {
                        let inst = func.inst(iid);
                        let Some(key) = expr_key(&inst.op, &inst.args, &map) else {
                            continue;
                        };
                        match table.get(&key) {
                            Some(&prev) => {
                                map.insert(iid, ValueRef::Inst(prev));
                                dead.push(iid);
                            }
                            None => {
                                table.insert(key.clone(), iid);
                                added.push(key);
                            }
                        }
                    }
                    agenda.push(Step::Exit(added));
                    for &child in dom.children(b) {
                        agenda.push(Step::Enter(child));
                    }
                }
            }
        }

        if map.is_empty() {
            return false;
        }
        func.replace_uses(&map);
        detach_all(func, &dead);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_ir::{function_to_string, parse_function, verify_function};

    fn run(text: &str) -> (bool, String) {
        let mut f = parse_function(text).unwrap();
        let changed = Gvn.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (changed, function_to_string(&f))
    }

    #[test]
    fn merges_across_dominating_blocks() {
        let (c, text) = run(r"
fn @f(i64) -> i64 {
bb0:
  v0 = add i64 p0, 1
  br bb1
bb1:
  v1 = add i64 p0, 1
  v2 = add i64 v0, v1
  ret v2
}");
        assert!(c);
        assert_eq!(text.matches("add i64 p0, 1").count(), 1, "{text}");
    }

    #[test]
    fn sibling_branches_not_merged() {
        // The same expression in two non-dominating branches must stay.
        let (c, _) = run(r"
fn @f(i1, i64) -> i64 {
bb0:
  condbr p0, bb1, bb2
bb1:
  v0 = add i64 p1, 1
  br bb3
bb2:
  v1 = add i64 p1, 1
  br bb3
bb3:
  v2 = phi i64 [bb1: v0], [bb2: v1]
  ret v2
}");
        assert!(!c);
    }

    #[test]
    fn branch_reuses_dominating_value() {
        let (c, text) = run(r"
fn @f(i1, i64) -> i64 {
bb0:
  v0 = mul i64 p1, 3
  condbr p0, bb1, bb2
bb1:
  v1 = mul i64 p1, 3
  ret v1
bb2:
  ret v0
}");
        assert!(c);
        assert_eq!(text.matches("mul").count(), 1, "{text}");
    }

    #[test]
    fn loop_body_reuses_header_value() {
        let (c, text) = run(r"
fn @f(i64) -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v2 = mul i64 p0, 5
  v3 = icmp slt v0, v2
  condbr v3, bb2, bb3
bb2:
  v4 = mul i64 p0, 5
  v1 = add i64 v0, v4
  br bb1
bb3:
  ret v0
}");
        assert!(c);
        assert_eq!(text.matches("mul").count(), 1, "{text}");
    }

    #[test]
    fn dormant_without_redundancy() {
        let (c, _) = run(
            "fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 1\n  v1 = mul i64 v0, 2\n  ret v1\n}",
        );
        assert!(!c);
    }
}
