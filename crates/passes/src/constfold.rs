//! Constant folding of pure instructions with all-constant operands.

use crate::util::detach_all;
use crate::Pass;
use sfcc_ir::function::resolve;
use sfcc_ir::{Function, IdMap, InstId, ModuleSnapshot, Op, Ty, ValueRef};

/// The `const-fold` pass: folds `bin`/`icmp`/`select` over constants.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstFold;

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        let mut changed = false;
        // Operands resolve through the fold map as the sweep goes, so a
        // chain laid out in dominance order folds in one sweep; another
        // sweep picks up uses laid out before their definitions.
        loop {
            let mut map: IdMap<InstId, ValueRef> = IdMap::default();
            let mut dead = Vec::new();
            for (_, iid) in func.iter_insts() {
                let inst = func.inst(iid);
                let arg = |i: usize| resolve(&map, inst.args[i]);
                let folded = match &inst.op {
                    Op::Bin(kind) => match (arg(0).as_const(), arg(1).as_const()) {
                        (Some((ty, a)), Some((_, b))) => kind
                            .eval(a, b)
                            .map(|v| ValueRef::Const(ty, if ty == Ty::I1 { v & 1 } else { v })),
                        _ => None,
                    },
                    Op::Icmp(pred) => match (arg(0).as_const(), arg(1).as_const()) {
                        (Some((_, a)), Some((_, b))) => Some(ValueRef::bool(pred.eval(a, b))),
                        _ => None,
                    },
                    Op::Select => arg(0)
                        .as_const()
                        .map(|(_, c)| if c != 0 { arg(1) } else { arg(2) }),
                    _ => None,
                };
                if let Some(v) = folded {
                    map.insert(iid, v);
                    dead.push(iid);
                }
            }
            if map.is_empty() {
                break;
            }
            func.replace_uses(&map);
            detach_all(func, &dead);
            changed = true;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_ir::{function_to_string, parse_function, verify_function};

    fn run(text: &str) -> (bool, String) {
        let mut f = parse_function(text).unwrap();
        let changed = ConstFold.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (changed, function_to_string(&f))
    }

    #[test]
    fn folds_arith_chain() {
        let (changed, text) =
            run("fn @f() -> i64 {\nbb0:\n  v0 = add i64 2, 3\n  v1 = mul i64 v0, 4\n  ret v1\n}");
        assert!(changed);
        assert!(text.contains("ret 20"), "{text}");
        assert!(!text.contains("add"), "{text}");
    }

    #[test]
    fn folds_icmp_and_select() {
        let (changed, text) = run(
            "fn @f() -> i64 {\nbb0:\n  v0 = icmp slt 1, 2\n  v1 = select i64 v0, 10, 20\n  ret v1\n}",
        );
        assert!(changed);
        assert!(text.contains("ret 10"), "{text}");
    }

    #[test]
    fn division_by_zero_not_folded() {
        let (changed, text) = run("fn @f() -> i64 {\nbb0:\n  v0 = sdiv i64 1, 0\n  ret v0\n}");
        assert!(!changed);
        assert!(text.contains("sdiv"), "{text}");
    }

    #[test]
    fn i64_min_div_minus_one_not_folded() {
        let (changed, _) = run(&format!(
            "fn @f() -> i64 {{\nbb0:\n  v0 = sdiv i64 {}, -1\n  ret v0\n}}",
            i64::MIN
        ));
        assert!(!changed);
    }

    #[test]
    fn dormant_without_constants() {
        let (changed, _) = run("fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 1\n  ret v0\n}");
        assert!(!changed);
    }

    #[test]
    fn i1_xor_folds_in_range() {
        let (changed, text) = run("fn @f() -> i1 {\nbb0:\n  v0 = xor i1 true, true\n  ret v0\n}");
        assert!(changed);
        assert!(text.contains("ret false"), "{text}");
    }

    #[test]
    fn wrapping_add_folds() {
        let (changed, text) = run(&format!(
            "fn @f() -> i64 {{\nbb0:\n  v0 = add i64 {}, 1\n  ret v0\n}}",
            i64::MAX
        ));
        assert!(changed);
        assert!(text.contains(&i64::MIN.to_string()), "{text}");
    }
}
