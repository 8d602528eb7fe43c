//! Algebraic instruction combining and canonicalization.
//!
//! Rewrites individual instructions using local algebraic identities
//! (`x + 0 → x`, `x * 2^k → x << k`, `x ^ x → 0`, …) and canonicalizes
//! commutative operations so constants sit on the right — which unlocks the
//! hash-based redundancy passes (`cse`, `gvn`).

use crate::util::{detach_all, power_of_two_shift};
use crate::Pass;
use sfcc_ir::{BinKind, Function, IdMap, InstData, InstId, ModuleSnapshot, Op, Ty, ValueRef};

/// The `instcombine` pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct InstCombine;

impl Pass for InstCombine {
    fn name(&self) -> &'static str {
        "instcombine"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        let mut changed = false;
        loop {
            let mut round = false;
            round |= canonicalize(func);
            round |= simplify(func);
            if !round {
                break;
            }
            changed = true;
        }
        changed
    }
}

/// Moves constants to the right of commutative operations and swaps
/// constant-on-left comparisons.
fn canonicalize(func: &mut Function) -> bool {
    let mut changed = false;
    let ids: Vec<InstId> = func.iter_insts().map(|(_, i)| i).collect();
    for iid in ids {
        let inst = func.inst_mut(iid);
        match inst.op {
            Op::Bin(kind)
                if kind.is_commutative()
                    && inst.args[0].as_const().is_some()
                    && inst.args[1].as_const().is_none() =>
            {
                inst.args.swap(0, 1);
                changed = true;
            }
            Op::Icmp(pred)
                if inst.args[0].as_const().is_some() && inst.args[1].as_const().is_none() =>
            {
                inst.args.swap(0, 1);
                inst.op = Op::Icmp(pred.swapped());
                changed = true;
            }
            _ => {}
        }
    }
    changed
}

/// One round of pattern-based simplification; returns whether anything fired.
fn simplify(func: &mut Function) -> bool {
    let mut map: IdMap<InstId, ValueRef> = IdMap::default();
    let mut dead: Vec<InstId> = Vec::new();
    let mut rewrites: Vec<(InstId, InstData)> = Vec::new();

    for (_, iid) in func.iter_insts() {
        let inst = func.inst(iid);
        let replace = |v: ValueRef, map: &mut IdMap<InstId, ValueRef>, dead: &mut Vec<InstId>| {
            map.insert(iid, v);
            dead.push(iid);
        };
        match &inst.op {
            Op::Bin(kind) => {
                let (a, b) = (inst.args[0], inst.args[1]);
                let bc = b.as_const().map(|(_, c)| c);
                match kind {
                    BinKind::Add if bc == Some(0) => replace(a, &mut map, &mut dead),
                    BinKind::Sub if bc == Some(0) => replace(a, &mut map, &mut dead),
                    BinKind::Sub if a == b => replace(ValueRef::int(0), &mut map, &mut dead),
                    BinKind::Mul if bc == Some(1) => replace(a, &mut map, &mut dead),
                    BinKind::Mul if bc == Some(0) => replace(ValueRef::int(0), &mut map, &mut dead),
                    BinKind::Mul => {
                        if let Some(sh) = bc.and_then(power_of_two_shift) {
                            rewrites.push((
                                iid,
                                InstData::new(
                                    Op::Bin(BinKind::Shl),
                                    vec![a, ValueRef::int(sh)],
                                    Ty::I64,
                                ),
                            ));
                        }
                    }
                    BinKind::Sdiv if bc == Some(1) => replace(a, &mut map, &mut dead),
                    BinKind::Srem if bc == Some(1) => {
                        replace(ValueRef::int(0), &mut map, &mut dead)
                    }
                    BinKind::And if a == b => replace(a, &mut map, &mut dead),
                    BinKind::And if bc == Some(0) => {
                        replace(ValueRef::Const(inst.ty, 0), &mut map, &mut dead)
                    }
                    BinKind::And if bc == Some(-1) && inst.ty == Ty::I64 => {
                        replace(a, &mut map, &mut dead)
                    }
                    BinKind::Or if a == b => replace(a, &mut map, &mut dead),
                    BinKind::Or if bc == Some(0) => replace(a, &mut map, &mut dead),
                    BinKind::Xor if a == b => {
                        replace(ValueRef::Const(inst.ty, 0), &mut map, &mut dead)
                    }
                    BinKind::Xor if bc == Some(0) => replace(a, &mut map, &mut dead),
                    BinKind::Xor if inst.ty == Ty::I1 && bc == Some(1) => {
                        // not(not x) → x
                        if let ValueRef::Inst(inner) = a {
                            let in_inst = func.inst(inner);
                            if in_inst.op == Op::Bin(BinKind::Xor)
                                && in_inst.args[1] == ValueRef::bool(true)
                            {
                                replace(in_inst.args[0], &mut map, &mut dead);
                            }
                        }
                    }
                    BinKind::Shl | BinKind::Ashr if bc == Some(0) => {
                        replace(a, &mut map, &mut dead)
                    }
                    _ => {}
                }
            }
            Op::Icmp(pred) => {
                // Note: `icmp(x - y, 0) → icmp(x, y)` is deliberately NOT
                // done — it is unsound under MiniC's wrapping arithmetic.
                let (a, b) = (inst.args[0], inst.args[1]);
                if a == b {
                    let v = pred.eval(0, 0); // reflexive result
                    replace(ValueRef::bool(v), &mut map, &mut dead);
                }
            }
            Op::Select => {
                let (c, a, b) = (inst.args[0], inst.args[1], inst.args[2]);
                if a == b {
                    replace(a, &mut map, &mut dead);
                } else if inst.ty == Ty::I1
                    && a == ValueRef::bool(true)
                    && b == ValueRef::bool(false)
                {
                    replace(c, &mut map, &mut dead);
                }
            }
            _ => {}
        }
    }

    let changed = !map.is_empty() || !rewrites.is_empty();
    for (iid, data) in rewrites {
        *func.inst_mut(iid) = data;
    }
    func.replace_uses(&map);
    detach_all(func, &dead);
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_ir::{function_to_string, parse_function, verify_function};

    fn run(text: &str) -> (bool, String) {
        let mut f = parse_function(text).unwrap();
        let changed = InstCombine.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (changed, function_to_string(&f))
    }

    #[test]
    fn add_zero_identity() {
        let (c, text) = run("fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 0\n  ret v0\n}");
        assert!(c);
        assert!(text.contains("ret p0"), "{text}");
    }

    #[test]
    fn constant_moves_right() {
        let (c, text) = run("fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 5, p0\n  ret v0\n}");
        assert!(c);
        assert!(text.contains("add i64 p0, 5"), "{text}");
    }

    #[test]
    fn icmp_swap_flips_predicate() {
        let (c, text) = run("fn @f(i64) -> i1 {\nbb0:\n  v0 = icmp slt 5, p0\n  ret v0\n}");
        assert!(c);
        assert!(text.contains("icmp sgt p0, 5"), "{text}");
    }

    #[test]
    fn mul_power_of_two_becomes_shift() {
        let (c, text) = run("fn @f(i64) -> i64 {\nbb0:\n  v0 = mul i64 p0, 8\n  ret v0\n}");
        assert!(c);
        assert!(text.contains("shl i64 p0, 3"), "{text}");
    }

    #[test]
    fn sub_self_is_zero() {
        let (c, text) = run("fn @f(i64) -> i64 {\nbb0:\n  v0 = sub i64 p0, p0\n  ret v0\n}");
        assert!(c);
        assert!(text.contains("ret 0"), "{text}");
    }

    #[test]
    fn double_not_cancels() {
        let (c, text) = run(
            "fn @f(i1) -> i1 {\nbb0:\n  v0 = xor i1 p0, true\n  v1 = xor i1 v0, true\n  ret v1\n}",
        );
        assert!(c);
        assert!(text.contains("ret p0"), "{text}");
    }

    #[test]
    fn icmp_self_folds() {
        let (c, text) = run("fn @f(i64) -> i1 {\nbb0:\n  v0 = icmp sle p0, p0\n  ret v0\n}");
        assert!(c);
        assert!(text.contains("ret true"), "{text}");
    }

    #[test]
    fn select_same_arms() {
        let (c, text) =
            run("fn @f(i1, i64) -> i64 {\nbb0:\n  v0 = select i64 p0, p1, p1\n  ret v0\n}");
        assert!(c);
        assert!(text.contains("ret p1"), "{text}");
    }

    #[test]
    fn select_true_false_is_cond() {
        let (c, text) =
            run("fn @f(i1) -> i1 {\nbb0:\n  v0 = select i1 p0, true, false\n  ret v0\n}");
        assert!(c);
        assert!(text.contains("ret p0"), "{text}");
    }

    #[test]
    fn dormant_on_already_canonical() {
        let (c, _) = run("fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 5\n  ret v0\n}");
        assert!(!c);
    }

    #[test]
    fn mul_zero_annihilates() {
        let (c, text) = run("fn @f(i64) -> i64 {\nbb0:\n  v0 = mul i64 p0, 0\n  ret v0\n}");
        assert!(c);
        assert!(text.contains("ret 0"), "{text}");
    }

    #[test]
    fn xor_self_is_zero() {
        let (c, text) = run("fn @f(i64) -> i64 {\nbb0:\n  v0 = xor i64 p0, p0\n  ret v0\n}");
        assert!(c);
        assert!(text.contains("ret 0"), "{text}");
    }
}
