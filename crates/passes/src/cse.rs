//! Local (per-block) common-subexpression elimination over pure operations.

use crate::util::detach_all;
use crate::Pass;
use sfcc_ir::function::resolve;
use sfcc_ir::{Function, IdMap, InstId, ModuleSnapshot, Op, ValueRef};
use std::collections::HashMap;

/// The `cse` pass: within each block, replaces a pure instruction whose
/// (opcode, operands) key was already computed with the earlier result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cse;

/// A hashable expression key: the opcode and up to three operands, with
/// commutative operands order-normalized. It holds constants from the
/// source, so its maps keep std's `RandomState`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ExprKey {
    op: Op,
    args: [Option<ValueRef>; 3],
}

/// The key of a pure instruction, its operands read through `map`;
/// `None` for anything else.
pub(crate) fn expr_key(
    op: &Op,
    args: &[ValueRef],
    map: &IdMap<InstId, ValueRef>,
) -> Option<ExprKey> {
    if !op.is_pure() || args.len() > 3 {
        return None;
    }
    let mut key = ExprKey {
        op: op.clone(),
        args: [None; 3],
    };
    for (slot, &arg) in key.args.iter_mut().zip(args) {
        *slot = Some(resolve(map, arg));
    }
    if let Op::Bin(k) = op {
        if k.is_commutative() {
            // Any injective order normalizes `a op b` and `b op a` alike.
            key.args[..2].sort_by_key(|v| match v {
                Some(ValueRef::Const(ty, c)) => (0, *ty as u8, *c),
                Some(ValueRef::Param(i)) => (1, 0, i64::from(*i)),
                Some(ValueRef::Inst(id)) => (2, 0, i64::from(id.0)),
                None => (3, 0, 0),
            });
        }
    }
    Some(key)
}

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        let mut changed = false;
        loop {
            let mut map: IdMap<InstId, ValueRef> = IdMap::default();
            let mut dead: Vec<InstId> = Vec::new();
            for b in func.block_ids().collect::<Vec<_>>() {
                let mut seen: HashMap<ExprKey, InstId> = HashMap::new();
                for &iid in &func.block(b).insts {
                    let inst = func.inst(iid);
                    let Some(key) = expr_key(&inst.op, &inst.args, &map) else {
                        continue;
                    };
                    match seen.get(&key) {
                        Some(&prev) => {
                            map.insert(iid, ValueRef::Inst(prev));
                            dead.push(iid);
                        }
                        None => {
                            seen.insert(key, iid);
                        }
                    }
                }
            }
            if map.is_empty() {
                return changed;
            }
            func.replace_uses(&map);
            detach_all(func, &dead);
            changed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_ir::{function_to_string, parse_function, verify_function};

    fn run(text: &str) -> (bool, String) {
        let mut f = parse_function(text).unwrap();
        let changed = Cse.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (changed, function_to_string(&f))
    }

    #[test]
    fn dedups_identical_adds() {
        let (c, text) = run(
            "fn @f(i64, i64) -> i64 {\nbb0:\n  v0 = add i64 p0, p1\n  v1 = add i64 p0, p1\n  v2 = add i64 v0, v1\n  ret v2\n}",
        );
        assert!(c);
        assert_eq!(text.matches("add").count(), 2, "{text}");
    }

    #[test]
    fn commutative_operands_normalize() {
        let (c, text) = run(
            "fn @f(i64, i64) -> i64 {\nbb0:\n  v0 = add i64 p0, p1\n  v1 = add i64 p1, p0\n  v2 = add i64 v0, v1\n  ret v2\n}",
        );
        assert!(c);
        assert_eq!(text.matches("add").count(), 2, "{text}");
    }

    #[test]
    fn noncommutative_not_merged() {
        let (c, _) = run(
            "fn @f(i64, i64) -> i64 {\nbb0:\n  v0 = sub i64 p0, p1\n  v1 = sub i64 p1, p0\n  v2 = add i64 v0, v1\n  ret v2\n}",
        );
        assert!(!c);
    }

    #[test]
    fn loads_not_merged() {
        // Loads are not pure (memory may change between them).
        let (c, _) = run(
            "fn @f(i64) -> i64 {\nbb0:\n  v0 = alloca 1\n  store v0, p0\n  v1 = load i64 v0\n  store v0, 9\n  v2 = load i64 v0\n  v3 = add i64 v1, v2\n  ret v3\n}",
        );
        assert!(!c);
    }

    #[test]
    fn geps_are_merged() {
        let (c, text) = run(
            "fn @f(i64) -> i64 {\nbb0:\n  v0 = alloca 8\n  v1 = gep v0, p0\n  v2 = gep v0, p0\n  store v1, 1\n  v3 = load i64 v2\n  ret v3\n}",
        );
        assert!(c);
        assert_eq!(text.matches("gep").count(), 1, "{text}");
    }

    #[test]
    fn different_blocks_not_merged() {
        let (c, _) = run(r"
fn @f(i64) -> i64 {
bb0:
  v0 = add i64 p0, 1
  br bb1
bb1:
  v1 = add i64 p0, 1
  v2 = add i64 v0, v1
  ret v2
}");
        assert!(!c); // local CSE only; gvn handles cross-block
    }

    #[test]
    fn cascading_cse() {
        let (c, text) = run(
            "fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 1\n  v1 = add i64 p0, 1\n  v2 = mul i64 v0, 2\n  v3 = mul i64 v1, 2\n  v4 = add i64 v2, v3\n  ret v4\n}",
        );
        assert!(c);
        assert_eq!(text.matches("mul").count(), 1, "{text}");
    }
}
