//! Function inlining.
//!
//! Replaces calls to small same-module functions with a clone of the callee
//! body, read from the module *snapshot* taken when the inlining stage
//! started (so all functions observe the same pre-stage world, independent
//! of module iteration order). Cross-module calls and the `print` builtin
//! are never inlined — there is no LTO in this compiler, mirroring the
//! per-TU compilation model of the paper's Clang prototype.

use crate::Pass;
use sfcc_ir::{
    BlockId, Function, IdMap, InstData, InstId, ModuleSnapshot, Op, Terminator, Ty, ValueRef,
};

/// Callee size limit (live instructions) for inlining.
pub const INLINE_THRESHOLD: usize = 25;
/// Maximum number of call sites inlined per function per run.
pub const MAX_INLINED_SITES: usize = 8;

/// The `inline` pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inline;

impl Pass for Inline {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn run(&self, func: &mut Function, snapshot: &ModuleSnapshot) -> bool {
        let mut changed = false;
        let mut budget = MAX_INLINED_SITES;
        while budget > 0 {
            let Some((block, pos, callee)) = find_site(func, snapshot) else {
                break;
            };
            inline_site(func, block, pos, &callee);
            changed = true;
            budget -= 1;
        }
        changed
    }
}

/// Finds the first inlinable call site: `(block, index, callee clone)`.
fn find_site(func: &Function, snapshot: &ModuleSnapshot) -> Option<(BlockId, usize, Function)> {
    for b in func.block_ids() {
        for (pos, &iid) in func.block(b).insts.iter().enumerate() {
            let inst = func.inst(iid);
            let Op::Call(target) = &inst.op else { continue };
            // Only same-module, qualified `module.function` targets.
            let Some((module_name, fn_name)) = target.split_once('.') else {
                continue;
            };
            if module_name != snapshot.name {
                continue;
            }
            if fn_name == func.name {
                continue; // no self-inlining
            }
            let Some(callee) = snapshot.function(fn_name) else {
                continue;
            };
            if callee.live_inst_count() > INLINE_THRESHOLD {
                continue;
            }
            // Callees that may not return along some path (trap husks are
            // fine) are still inlinable; recursion inside the callee is fine
            // too (the clone keeps calling the original symbol).
            return Some((b, pos, callee.clone()));
        }
    }
    None
}

/// Splices `callee` in place of the call at `func[block].insts[pos]`.
fn inline_site(func: &mut Function, block: BlockId, pos: usize, callee: &Function) {
    let call_id = func.block(block).insts[pos];
    let call_args = func.inst(call_id).args.clone();
    let call_ty = func.inst(call_id).ty;

    // Split the host block: everything after the call moves to `cont`.
    let cont = func.add_block();
    let tail: Vec<InstId> = func.block_mut(block).insts.split_off(pos + 1);
    func.block_mut(block).insts.pop(); // drop the call itself
    let host_term = std::mem::replace(&mut func.block_mut(block).term, Terminator::Trap);
    {
        let cont_data = func.block_mut(cont);
        cont_data.insts = tail;
        cont_data.term = host_term;
    }
    // Phi edges in the host's old successors now come from `cont`.
    for succ in func.block(cont).term.successors() {
        for iid in func.block(succ).insts.clone() {
            let inst = func.inst_mut(iid);
            if let Op::Phi(blocks) = &mut inst.op {
                for pb in blocks.iter_mut() {
                    if *pb == block {
                        *pb = cont;
                    }
                }
            }
        }
    }

    // Clone callee blocks: block_map[callee block] = its clone.
    let block_map: Vec<BlockId> = callee.block_ids().map(|_| func.add_block()).collect();
    let clone_of = |b: &BlockId| block_map[b.0 as usize];
    // inst_map[callee instruction] = its clone.
    let mut inst_map: Vec<Option<InstId>> = vec![None; callee.inst_arena_len()];
    // Two passes: allocate clone ids first (so phis can forward-reference),
    // then fill operands.
    for cb in callee.block_ids() {
        for &ci in &callee.block(cb).insts {
            let data = callee.inst(ci);
            let placeholder = InstData::new(data.op.clone(), Vec::new(), data.ty);
            let nid = func.append_inst(clone_of(&cb), placeholder);
            inst_map[ci.0 as usize] = Some(nid);
        }
    }
    let map_value = |v: ValueRef| match v {
        ValueRef::Param(i) => call_args[i as usize],
        ValueRef::Inst(i) => ValueRef::Inst(inst_map[i.0 as usize].expect("operand is attached")),
        c => c,
    };
    // Collect return edges: (cloned pred block, returned value).
    let mut returns: Vec<(BlockId, Option<ValueRef>)> = Vec::new();
    for cb in callee.block_ids() {
        let nb = clone_of(&cb);
        // Fill instruction operands and phi blocks.
        let src_insts = callee.block(cb).insts.clone();
        for &ci in &src_insts {
            let src = callee.inst(ci);
            let args: Vec<ValueRef> = src.args.iter().map(|&a| map_value(a)).collect();
            let nid = inst_map[ci.0 as usize].expect("cloned above");
            let dst = func.inst_mut(nid);
            dst.args = args;
            if let (Op::Phi(dst_blocks), Op::Phi(src_blocks)) = (&mut dst.op, &src.op) {
                *dst_blocks = src_blocks.iter().map(clone_of).collect();
            }
        }
        // Terminators.
        let term = match &callee.block(cb).term {
            Terminator::Br(t) => Terminator::Br(clone_of(t)),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => Terminator::CondBr {
                cond: map_value(*cond),
                then_bb: clone_of(then_bb),
                else_bb: clone_of(else_bb),
            },
            Terminator::Ret(v) => {
                returns.push((nb, v.map(map_value)));
                Terminator::Br(cont)
            }
            Terminator::Trap => Terminator::Trap,
        };
        func.block_mut(nb).term = term;
    }

    // Route the host block into the callee's entry clone.
    func.block_mut(block).term = Terminator::Br(clone_of(&sfcc_ir::ENTRY));

    // Replace the call's result with the merged return value.
    let mut replacements: IdMap<InstId, ValueRef> = IdMap::default();
    if call_ty != Ty::Void {
        let result = match returns.as_slice() {
            [] => ValueRef::Const(call_ty, 0), // callee always traps
            [(_, Some(v))] => *v,
            _ => {
                // Multiple returns: merge with a phi at the continuation.
                let phi = func.alloc_inst(InstData::new(
                    Op::Phi(returns.iter().map(|(b, _)| *b).collect()),
                    returns
                        .iter()
                        .map(|(_, v)| v.expect("non-void callee returns a value"))
                        .collect(),
                    call_ty,
                ));
                func.block_mut(cont).insts.insert(0, phi);
                ValueRef::Inst(phi)
            }
        };
        replacements.insert(call_id, result);
        func.replace_uses(&replacements);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify_cfg::SimplifyCfg;
    use sfcc_frontend::{parse_and_check, Diagnostics, ModuleEnv};
    use sfcc_ir::{function_to_string, parse_function, verify_function};

    /// Lowers a MiniC module, promotes memory, and returns it.
    fn build_module(src: &str) -> sfcc_ir::Module {
        let mut d = Diagnostics::new();
        let checked = parse_and_check("m", src, &ModuleEnv::new(), &mut d).expect("valid program");
        let mut module = sfcc_ir::lower_module(&checked, &ModuleEnv::new());
        for f in &mut module.functions {
            crate::mem2reg::Mem2Reg.run(f, &ModuleSnapshot::empty("m"));
            SimplifyCfg.run(f, &ModuleSnapshot::empty("m"));
        }
        module
    }

    fn inline_in(module: &mut sfcc_ir::Module, func_name: &str) -> bool {
        let snapshot = ModuleSnapshot::of(module);
        let f = module.function_mut(func_name).unwrap();
        let changed = Inline.run(f, &snapshot);
        verify_function(f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        changed
    }

    #[test]
    fn inlines_simple_callee() {
        let mut m = build_module(
            "fn double(x: int) -> int { return x * 2; }\nfn f(a: int) -> int { return double(a) + 1; }",
        );
        assert!(inline_in(&mut m, "f"));
        let f = m.function("f").unwrap();
        let text = function_to_string(f);
        assert!(!text.contains("call"), "{text}");
        assert!(text.contains("mul") || text.contains("shl"), "{text}");
    }

    #[test]
    fn inlines_branching_callee_with_phi_merge() {
        let mut m = build_module(
            "fn clamp(x: int) -> int { if (x > 10) { return 10; } return x; }\nfn f(a: int) -> int { return clamp(a); }",
        );
        assert!(inline_in(&mut m, "f"));
        let f = m.function("f").unwrap();
        let text = function_to_string(f);
        assert!(!text.contains("call"), "{text}");
        assert!(text.contains("phi"), "{text}");
    }

    #[test]
    fn does_not_inline_print() {
        let mut m = build_module("fn f(a: int) { print(a); }");
        assert!(!inline_in(&mut m, "f"));
    }

    #[test]
    fn does_not_inline_self_recursion() {
        let mut m =
            build_module("fn f(n: int) -> int { if (n < 1) { return 0; } return f(n - 1); }");
        assert!(!inline_in(&mut m, "f"));
    }

    #[test]
    fn does_not_inline_large_callee() {
        // A callee with a long chain of adds exceeding the threshold.
        let body: String = (0..30).map(|i| format!("s = s + {i};")).collect();
        let src = format!(
            "fn big(x: int) -> int {{ let s: int = x; {body} return s; }}\nfn f(a: int) -> int {{ return big(a); }}"
        );
        let mut m = build_module(&src);
        assert!(!inline_in(&mut m, "f"));
    }

    #[test]
    fn inlines_void_callee() {
        let mut m = build_module(
            "fn tell(x: int) { print(x); print(x + 1); }\nfn f(a: int) { tell(a); print(0); }",
        );
        assert!(inline_in(&mut m, "f"));
        let f = m.function("f").unwrap();
        let text = function_to_string(f);
        // tell's two prints plus f's own print remain; call to tell is gone.
        assert_eq!(text.matches("call @print").count(), 3, "{text}");
        assert!(!text.contains("@m.tell"), "{text}");
    }

    #[test]
    fn inline_preserves_following_code() {
        let mut m = build_module(
            "fn g(x: int) -> int { return x + 5; }\nfn f(a: int) -> int { let t: int = g(a); return t * 3; }",
        );
        assert!(inline_in(&mut m, "f"));
        let f = m.function("f").unwrap();
        let text = function_to_string(f);
        assert!(text.contains("add"), "{text}");
        assert!(text.contains("mul") || text.contains("shl"), "{text}");
    }

    #[test]
    fn respects_site_budget() {
        let calls: String = (0..12).map(|_| "s = s + g(a);".to_string()).collect();
        let src = format!(
            "fn g(x: int) -> int {{ return x + 1; }}\nfn f(a: int) -> int {{ let s: int = 0; {calls} return s; }}"
        );
        let mut m = build_module(&src);
        assert!(inline_in(&mut m, "f"));
        let f = m.function("f").unwrap();
        let text = function_to_string(f);
        let remaining = text.matches("@m.g").count();
        assert_eq!(remaining, 12 - MAX_INLINED_SITES, "{text}");
    }

    #[test]
    fn inlined_function_in_loop_verifies() {
        let mut m = build_module(
            "fn inc(x: int) -> int { return x + 1; }\nfn f(n: int) -> int { let s: int = 0; let i: int = 0; while (i < n) { s = s + inc(i); i = inc(i); } return s; }",
        );
        assert!(inline_in(&mut m, "f"));
    }

    #[test]
    fn cross_module_call_not_inlined() {
        let mut f =
            parse_function("fn @f(i64) -> i64 {\nbb0:\n  v0 = call i64 @other.g(p0)\n  ret v0\n}")
                .unwrap();
        let snapshot = ModuleSnapshot::empty("m");
        assert!(!Inline.run(&mut f, &snapshot));
    }
}
