//! Dead-code elimination passes.
//!
//! [`Dce`] removes instructions whose results are unused, through a
//! worklist: removing one releases its operands' uses. [`Adce`] is the aggressive variant: it assumes everything is
//! dead and only keeps what is transitively reachable from *roots* (side
//! effects and terminator operands), which also collects dead cycles such as
//! unused induction-variable phis.

use crate::util::{detach_all, is_removable_when_dead, use_counts};
use crate::Pass;
use sfcc_ir::{Function, InstId, ModuleSnapshot, ValueRef};

/// Trivial dead-code elimination. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        let mut counts = use_counts(func);
        let mut attached = vec![false; func.inst_arena_len()];
        let mut work: Vec<InstId> = Vec::new();
        for (_, i) in func.iter_insts() {
            attached[i.0 as usize] = true;
            if counts[i.0 as usize] == 0 && is_removable_when_dead(&func.inst(i).op) {
                work.push(i);
            }
        }
        let mut dead = Vec::new();
        while let Some(i) = work.pop() {
            dead.push(i);
            for arg in &func.inst(i).args {
                let ValueRef::Inst(d) = *arg else { continue };
                let count = &mut counts[d.0 as usize];
                *count -= 1;
                if *count == 0 && attached[d.0 as usize] && is_removable_when_dead(&func.inst(d).op)
                {
                    work.push(d);
                }
            }
        }
        detach_all(func, &dead) > 0
    }
}

/// Aggressive dead-code elimination. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Adce;

impl Pass for Adce {
    fn name(&self) -> &'static str {
        "adce"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        // Roots: side-effecting instructions and terminator operands.
        let mut live = vec![false; func.inst_arena_len()];
        let mut work: Vec<InstId> = Vec::new();
        let mark = |v: ValueRef, live: &mut Vec<bool>, work: &mut Vec<InstId>| {
            if let ValueRef::Inst(i) = v {
                if !std::mem::replace(&mut live[i.0 as usize], true) {
                    work.push(i);
                }
            }
        };
        for (_, iid) in func.iter_insts() {
            if func.inst(iid).op.has_side_effects() {
                mark(ValueRef::Inst(iid), &mut live, &mut work);
            }
        }
        for b in func.block_ids() {
            if let Some(v) = func.block(b).term.operand() {
                mark(v, &mut live, &mut work);
            }
        }
        while let Some(i) = work.pop() {
            for &arg in &func.inst(i).args {
                mark(arg, &mut live, &mut work);
            }
        }
        let dead: Vec<InstId> = func
            .iter_insts()
            .map(|(_, i)| i)
            .filter(|i| !live[i.0 as usize])
            .collect();
        // Stores and calls are always live (they are roots), so everything in
        // `dead` is safely removable; still assert in debug builds.
        debug_assert!(dead.iter().all(|&i| !func.inst(i).op.has_side_effects()));
        detach_all(func, &dead) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_ir::{function_to_string, parse_function, verify_function};

    fn run_pass(pass: &dyn Pass, text: &str) -> (bool, String) {
        let mut f = parse_function(text).unwrap();
        let changed = pass.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (changed, function_to_string(&f))
    }

    #[test]
    fn dce_removes_unused_chain() {
        let (changed, text) = run_pass(
            &Dce,
            "fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 1\n  v1 = mul i64 v0, 2\n  ret p0\n}",
        );
        assert!(changed);
        assert!(!text.contains("add") && !text.contains("mul"), "{text}");
    }

    #[test]
    fn dce_keeps_side_effects() {
        let (changed, text) = run_pass(
            &Dce,
            "fn @f(i64) {\nbb0:\n  v0 = alloca 1\n  store v0, p0\n  call @print(p0)\n  ret\n}",
        );
        assert!(!changed);
        assert!(text.contains("store") && text.contains("call"), "{text}");
    }

    #[test]
    fn dce_removes_dead_trapping_ops() {
        // Dead sdiv (potentially trapping) is removable — UB semantics.
        let (changed, text) = run_pass(
            &Dce,
            "fn @f(i64) -> i64 {\nbb0:\n  v0 = sdiv i64 1, p0\n  ret p0\n}",
        );
        assert!(changed);
        assert!(!text.contains("sdiv"), "{text}");
    }

    #[test]
    fn dce_dormant_when_all_used() {
        let (changed, _) = run_pass(
            &Dce,
            "fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 1\n  ret v0\n}",
        );
        assert!(!changed);
    }

    #[test]
    fn adce_removes_dead_phi_cycle() {
        // A dead induction variable: v0/v1 feed only each other.
        let (changed, text) = run_pass(
            &Adce,
            r"
fn @f(i64) -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v1]
  v3 = phi i64 [bb0: 0], [bb2: v4]
  v5 = icmp slt v3, p0
  condbr v5, bb2, bb3
bb2:
  v1 = add i64 v0, 7
  v4 = add i64 v3, 1
  br bb1
bb3:
  ret v3
}",
        );
        assert!(changed);
        assert!(!text.contains("7"), "dead cycle should be gone: {text}");
        assert!(text.contains("v"), "{text}");
    }

    #[test]
    fn adce_keeps_live_computation() {
        let (changed, _) = run_pass(
            &Adce,
            "fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 1\n  ret v0\n}",
        );
        assert!(!changed);
    }

    #[test]
    fn adce_keeps_call_arguments() {
        let (changed, text) = run_pass(
            &Adce,
            "fn @f(i64) {\nbb0:\n  v0 = mul i64 p0, 3\n  call @print(v0)\n  ret\n}",
        );
        assert!(!changed);
        assert!(text.contains("mul"), "{text}");
    }
}
