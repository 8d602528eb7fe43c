//! Store-to-load forwarding within basic blocks.
//!
//! Tracks the most recent store per block; a load through the *same* address
//! value with no intervening call or conflicting store is replaced by the
//! stored value. Deliberately conservative (no alias analysis): any store to
//! a different address value or any call invalidates the tracked state.
//! Catches array accesses that `mem2reg` cannot promote, once `cse`/`gvn`
//! have unified identical `gep`s.

use crate::util::detach_all;
use crate::Pass;
use sfcc_ir::{Function, IdMap, InstId, ModuleSnapshot, Op, ValueRef};

/// The `memfwd` pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemFwd;

impl Pass for MemFwd {
    fn name(&self) -> &'static str {
        "memfwd"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        let mut map: IdMap<InstId, ValueRef> = IdMap::default();
        let mut dead: Vec<InstId> = Vec::new();
        for b in func.block_ids().collect::<Vec<_>>() {
            // Last known (address → value) fact; at most one is tracked.
            let mut known: Option<(ValueRef, ValueRef)> = None;
            for &iid in &func.block(b).insts {
                let inst = func.inst(iid);
                match &inst.op {
                    Op::Store => {
                        known = Some((inst.args[0], inst.args[1]));
                    }
                    Op::Load => {
                        if let Some((addr, value)) = known {
                            if addr == inst.args[0] && func.value_ty(value) == inst.ty {
                                map.insert(iid, value);
                                dead.push(iid);
                                continue;
                            }
                        }
                        // The loaded value becomes the new known fact: a
                        // second identical load forwards from the first.
                        known = Some((inst.args[0], ValueRef::Inst(iid)));
                    }
                    Op::Call(_) => {
                        // Calls may write memory (another function's slots
                        // are unreachable here, but stay conservative).
                        known = None;
                    }
                    _ => {}
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
        let changed = MemFwd.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (changed, function_to_string(&f))
    }

    #[test]
    fn forwards_store_to_load() {
        let (c, text) = run(
            "fn @f(i64) -> i64 {\nbb0:\n  v0 = alloca 4\n  v1 = gep v0, 2\n  store v1, p0\n  v2 = load i64 v1\n  ret v2\n}",
        );
        assert!(c);
        assert!(text.contains("ret p0"), "{text}");
    }

    #[test]
    fn intervening_store_blocks_forwarding() {
        let (c, text) = run(
            "fn @f(i64, i64) -> i64 {\nbb0:\n  v0 = alloca 4\n  v1 = gep v0, 0\n  v2 = gep v0, p1\n  store v1, p0\n  store v2, 9\n  v3 = load i64 v1\n  ret v3\n}",
        );
        assert!(!c);
        assert!(text.contains("load"), "{text}");
    }

    #[test]
    fn call_invalidates() {
        let (c, _) = run(
            "fn @f(i64) -> i64 {\nbb0:\n  v0 = alloca 1\n  store v0, p0\n  call @print(p0)\n  v1 = load i64 v0\n  ret v1\n}",
        );
        assert!(!c);
    }

    #[test]
    fn load_to_load_forwarding() {
        let (c, text) = run(
            "fn @f() -> i64 {\nbb0:\n  v0 = alloca 1\n  v1 = load i64 v0\n  v2 = load i64 v0\n  v3 = add i64 v1, v2\n  ret v3\n}",
        );
        assert!(c);
        assert_eq!(text.matches("load").count(), 1, "{text}");
    }

    #[test]
    fn does_not_cross_blocks() {
        let (c, _) = run(r"
fn @f(i64) -> i64 {
bb0:
  v0 = alloca 1
  store v0, p0
  br bb1
bb1:
  v1 = load i64 v0
  ret v1
}");
        assert!(!c);
    }
}
