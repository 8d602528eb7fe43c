//! Copy propagation: removes phi nodes that are congruent to a single value
//! (all incoming values equal, possibly via self-references).

use crate::util::detach_all;
use crate::Pass;
use sfcc_ir::{Function, IdMap, InstId, ModuleSnapshot, Op, ValueRef};

/// The `copy-prop` pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CopyProp;

impl Pass for CopyProp {
    fn name(&self) -> &'static str {
        "copy-prop"
    }

    fn run(&self, func: &mut Function, _snapshot: &ModuleSnapshot) -> bool {
        let mut changed = false;
        // Removing one phi may make another trivial; iterate.
        loop {
            let mut map: IdMap<InstId, ValueRef> = IdMap::default();
            let mut dead: Vec<InstId> = Vec::new();
            for (_, iid) in func.iter_insts() {
                let inst = func.inst(iid);
                let Op::Phi(_) = &inst.op else { continue };
                let me = ValueRef::Inst(iid);
                // The phi is trivial if every incoming is either itself or a
                // single other value.
                let mut unique: Option<ValueRef> = None;
                let mut trivial = true;
                for &v in &inst.args {
                    if v == me {
                        continue;
                    }
                    match unique {
                        None => unique = Some(v),
                        Some(u) if u == v => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial {
                    if let Some(u) = unique {
                        map.insert(iid, u);
                        dead.push(iid);
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
        let changed = CopyProp.run(&mut f, &ModuleSnapshot::empty("t"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        (changed, function_to_string(&f))
    }

    #[test]
    fn removes_phi_with_equal_inputs() {
        let (c, text) = run(r"
fn @f(i1, i64) -> i64 {
bb0:
  condbr p0, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  v0 = phi i64 [bb1: p1], [bb2: p1]
  ret v0
}");
        assert!(c);
        assert!(text.contains("ret p1"), "{text}");
        assert!(!text.contains("phi"), "{text}");
    }

    #[test]
    fn removes_self_referential_loop_phi() {
        // A loop-carried value that never actually changes.
        let (c, text) = run(r"
fn @f(i64) -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: p0], [bb2: v0]
  v1 = phi i64 [bb0: 0], [bb2: v2]
  v3 = icmp slt v1, 10
  condbr v3, bb2, bb3
bb2:
  v2 = add i64 v1, 1
  br bb1
bb3:
  ret v0
}");
        assert!(c);
        assert!(text.contains("ret p0"), "{text}");
    }

    #[test]
    fn keeps_real_phi() {
        let (c, _) = run(r"
fn @f(i1) -> i64 {
bb0:
  condbr p0, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  v0 = phi i64 [bb1: 1], [bb2: 2]
  ret v0
}");
        assert!(!c);
    }

    #[test]
    fn cascading_trivial_phis() {
        // v1 becomes trivial only after v0 resolves.
        let (c, text) = run(r"
fn @f(i1, i64) -> i64 {
bb0:
  condbr p0, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  v0 = phi i64 [bb1: p1], [bb2: p1]
  condbr p0, bb4, bb5
bb4:
  br bb6
bb5:
  br bb6
bb6:
  v1 = phi i64 [bb4: v0], [bb5: p1]
  ret v1
}");
        assert!(c);
        assert!(text.contains("ret p1"), "{text}");
    }
}
