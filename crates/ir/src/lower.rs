//! AST → IR lowering.
//!
//! Lowering is deliberately naive, mirroring how Clang emits LLVM IR: every
//! local variable becomes a stack slot ([`crate::inst::Op::Alloca`]) accessed
//! with loads and stores, short-circuit operators become control flow through
//! a temporary slot, and no SSA phis are created here. The `mem2reg` pass
//! then promotes slots to SSA values — which makes the optimization pipeline
//! (and its dormancy profile) realistic.

use crate::function::{FuncBuilder, Function, Module};
use crate::inst::{BinKind, BlockId, IcmpPred, Ty, ValueRef};
use sfcc_frontend::ast;
use sfcc_frontend::sema::{CheckedModule, ModuleEnv, BUILTIN_PRINT};
use std::collections::HashMap;

/// Lowers a checked module to IR.
///
/// Function calls are emitted against qualified names (`module.function`);
/// the builtin `print` keeps its unqualified name.
pub fn lower_module(checked: &CheckedModule, env: &ModuleEnv) -> Module {
    let mut module = Module::new(checked.ast.name.clone());
    for func in &checked.ast.functions {
        module.add_function(lower_function(checked, env, func));
    }
    module
}

/// Lowers a single function definition to IR.
///
/// `checked` only needs to carry what lowering actually consults for `def`:
/// the module name, evaluated globals, and the signatures of `def`'s local
/// callees in `interface.functions` (`env` supplies cross-module ones). The
/// function-granular pipeline exploits this by lowering against a pruned
/// [`CheckedModule`] — the emitted IR is identical to the corresponding
/// function of [`lower_module`] on the full module.
pub fn lower_function_def(
    checked: &CheckedModule,
    env: &ModuleEnv,
    def: &ast::FunctionDef,
) -> Function {
    lower_function(checked, env, def)
}

fn type_of(ast_ty: ast::TypeAst) -> Ty {
    match ast_ty {
        ast::TypeAst::Int => Ty::I64,
        ast::TypeAst::Bool => Ty::I1,
        ast::TypeAst::IntArray(_) | ast::TypeAst::BoolArray(_) => Ty::Ptr,
    }
}

/// A lowered variable: its stack slot and element type.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ptr: ValueRef,
    elem: Ty,
}

struct Lowerer<'a> {
    checked: &'a CheckedModule,
    env: &'a ModuleEnv,
    scopes: Vec<HashMap<String, Slot>>,
    /// `(continue_target, break_target)` stack.
    loop_stack: Vec<(BlockId, BlockId)>,
    /// Whether the cursor block already has a real terminator.
    terminated: bool,
}

fn lower_function(checked: &CheckedModule, env: &ModuleEnv, def: &ast::FunctionDef) -> Function {
    let params: Vec<Ty> = def.params.iter().map(|p| type_of(p.ty)).collect();
    let ret = def.ret.map(type_of);
    let mut func = Function::new(def.name.clone(), params, ret);
    let mut b = FuncBuilder::at_entry(&mut func);

    let mut lowerer = Lowerer {
        checked,
        env,
        scopes: vec![HashMap::new()],
        loop_stack: Vec::new(),
        terminated: false,
    };

    // Spill parameters into stack slots so assignments to parameters work
    // and mem2reg has uniform material.
    for (i, p) in def.params.iter().enumerate() {
        let ptr = b.alloca(1);
        b.store(ptr, ValueRef::Param(i as u32));
        lowerer.declare(
            &p.name,
            Slot {
                ptr,
                elem: type_of(p.ty),
            },
        );
    }

    lowerer.block(&mut b, &def.body);

    // Fall-through: void functions return implicitly; non-void functions are
    // guaranteed by sema to have returned on every path, so a fall-through
    // block is unreachable and keeps its trap terminator.
    if !lowerer.terminated && def.ret.is_none() {
        b.ret(None);
    }
    func
}

impl<'a> Lowerer<'a> {
    fn declare(&mut self, name: &str, slot: Slot) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), slot);
    }

    fn lookup(&self, name: &str) -> Option<Slot> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    /// Ensures the cursor is an unterminated block, creating a fresh
    /// (unreachable) one after `return`/`break`/`continue` so later source
    /// statements still have somewhere to go.
    fn ensure_open(&mut self, b: &mut FuncBuilder<'_>) {
        if self.terminated {
            let fresh = b.new_block();
            b.switch_to(fresh);
            self.terminated = false;
        }
    }

    fn block(&mut self, b: &mut FuncBuilder<'_>, block: &ast::Block) {
        self.scopes.push(HashMap::new());
        for stmt in &block.stmts {
            self.stmt(b, stmt);
        }
        self.scopes.pop();
    }

    fn stmt(&mut self, b: &mut FuncBuilder<'_>, stmt: &ast::Stmt) {
        use ast::StmtKind;
        self.ensure_open(b);
        match &stmt.kind {
            StmtKind::Let { name, ty, init } => {
                let (elem, len) = match ty {
                    ast::TypeAst::Int => (Ty::I64, 1),
                    ast::TypeAst::Bool => (Ty::I1, 1),
                    ast::TypeAst::IntArray(n) => (Ty::I64, *n),
                    ast::TypeAst::BoolArray(n) => (Ty::I1, *n),
                };
                let ptr = b.alloca(len);
                if let Some(init) = init {
                    let v = self.expr(b, init);
                    b.store(ptr, v);
                }
                self.declare(name, Slot { ptr, elem });
            }
            StmtKind::Assign(lv, value) => {
                let v = self.expr(b, value);
                match lv {
                    ast::LValue::Var(name, _) => {
                        let slot = self.lookup(name).expect("sema resolved lvalue");
                        b.store(slot.ptr, v);
                    }
                    ast::LValue::Index(name, idx, _) => {
                        let slot = self.lookup(name).expect("sema resolved lvalue");
                        let i = self.expr(b, idx);
                        let addr = b.gep(slot.ptr, i);
                        b.store(addr, v);
                    }
                }
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                let c = self.expr(b, cond);
                let then_bb = b.new_block();
                let join_bb = b.new_block();
                let else_bb = if else_block.is_some() {
                    b.new_block()
                } else {
                    join_bb
                };
                b.cond_br(c, then_bb, else_bb);

                b.switch_to(then_bb);
                self.terminated = false;
                self.block(b, then_block);
                if !self.terminated {
                    b.br(join_bb);
                }

                if let Some(eb) = else_block {
                    b.switch_to(else_bb);
                    self.terminated = false;
                    self.block(b, eb);
                    if !self.terminated {
                        b.br(join_bb);
                    }
                }

                b.switch_to(join_bb);
                self.terminated = false;
            }
            StmtKind::While { cond, body } => {
                let header = b.new_block();
                let body_bb = b.new_block();
                let exit = b.new_block();
                b.br(header);

                b.switch_to(header);
                self.terminated = false;
                let c = self.expr(b, cond);
                b.cond_br(c, body_bb, exit);

                b.switch_to(body_bb);
                self.terminated = false;
                self.loop_stack.push((header, exit));
                self.block(b, body);
                self.loop_stack.pop();
                if !self.terminated {
                    b.br(header);
                }

                b.switch_to(exit);
                self.terminated = false;
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.stmt(b, init);
                }
                let header = b.new_block();
                let body_bb = b.new_block();
                let step_bb = b.new_block();
                let exit = b.new_block();
                b.br(header);

                b.switch_to(header);
                self.terminated = false;
                match cond {
                    Some(c) => {
                        let v = self.expr(b, c);
                        b.cond_br(v, body_bb, exit);
                    }
                    None => b.br(body_bb),
                }

                b.switch_to(body_bb);
                self.terminated = false;
                self.loop_stack.push((step_bb, exit));
                self.block(b, body);
                self.loop_stack.pop();
                if !self.terminated {
                    b.br(step_bb);
                }

                b.switch_to(step_bb);
                self.terminated = false;
                if let Some(step) = step {
                    self.stmt(b, step);
                }
                if !self.terminated {
                    b.br(header);
                }

                b.switch_to(exit);
                self.terminated = false;
                self.scopes.pop();
            }
            StmtKind::Return(value) => {
                let v = value.as_ref().map(|e| self.expr(b, e));
                b.ret(v);
                self.terminated = true;
            }
            StmtKind::Break => {
                let (_, exit) = *self.loop_stack.last().expect("sema checked loop context");
                b.br(exit);
                self.terminated = true;
            }
            StmtKind::Continue => {
                let (cont, _) = *self.loop_stack.last().expect("sema checked loop context");
                b.br(cont);
                self.terminated = true;
            }
            StmtKind::Expr(e) => {
                self.expr_maybe_void(b, e);
            }
            StmtKind::Block(inner) => self.block(b, inner),
        }
    }

    fn expr(&mut self, b: &mut FuncBuilder<'_>, expr: &ast::Expr) -> ValueRef {
        self.expr_maybe_void(b, expr)
            .expect("sema rejected void value uses")
    }

    fn expr_maybe_void(&mut self, b: &mut FuncBuilder<'_>, expr: &ast::Expr) -> Option<ValueRef> {
        use ast::ExprKind;
        match &expr.kind {
            ExprKind::Int(v) => Some(ValueRef::int(*v)),
            ExprKind::Bool(v) => Some(ValueRef::bool(*v)),
            ExprKind::Var(name) => match self.lookup(name) {
                Some(slot) => Some(b.load(slot.ptr, slot.elem)),
                None => {
                    // Module constant, folded at lowering time.
                    let value = self.checked.global_values[name];
                    let ty = type_of(self.checked.global_types[name]);
                    Some(ValueRef::Const(ty, value))
                }
            },
            ExprKind::Index(name, idx) => {
                let slot = self.lookup(name).expect("sema resolved array");
                let i = self.expr(b, idx);
                let addr = b.gep(slot.ptr, i);
                Some(b.load(addr, slot.elem))
            }
            ExprKind::Unary(op, inner) => {
                let v = self.expr(b, inner);
                Some(match op {
                    ast::UnOp::Neg => b.bin(BinKind::Sub, ValueRef::int(0), v),
                    ast::UnOp::Not => b.bin(BinKind::Xor, v, ValueRef::bool(true)),
                })
            }
            ExprKind::Binary(op, lhs, rhs) if op.is_logical() => {
                Some(self.short_circuit(b, *op, lhs, rhs))
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let l = self.expr(b, lhs);
                let r = self.expr(b, rhs);
                use ast::BinOp::*;
                Some(match op {
                    Add => b.bin(BinKind::Add, l, r),
                    Sub => b.bin(BinKind::Sub, l, r),
                    Mul => b.bin(BinKind::Mul, l, r),
                    Div => b.bin(BinKind::Sdiv, l, r),
                    Rem => b.bin(BinKind::Srem, l, r),
                    BitAnd => b.bin(BinKind::And, l, r),
                    BitOr => b.bin(BinKind::Or, l, r),
                    BitXor => b.bin(BinKind::Xor, l, r),
                    Shl => b.bin(BinKind::Shl, l, r),
                    Shr => b.bin(BinKind::Ashr, l, r),
                    Eq => b.icmp(IcmpPred::Eq, l, r),
                    Ne => b.icmp(IcmpPred::Ne, l, r),
                    Lt => b.icmp(IcmpPred::Slt, l, r),
                    Le => b.icmp(IcmpPred::Sle, l, r),
                    Gt => b.icmp(IcmpPred::Sgt, l, r),
                    Ge => b.icmp(IcmpPred::Sge, l, r),
                    And | Or => unreachable!("handled by short_circuit"),
                })
            }
            ExprKind::Call { module, name, args } => {
                let arg_values: Vec<ValueRef> = args.iter().map(|a| self.expr(b, a)).collect();
                if module.is_none() && name == BUILTIN_PRINT {
                    b.call(BUILTIN_PRINT, arg_values, None);
                    return None;
                }
                let callee = match module {
                    Some(m) => format!("{m}.{name}"),
                    None => format!("{}.{}", self.checked.ast.name, name),
                };
                let sig = match module {
                    Some(m) => &self.env.get(m).expect("sema checked import").functions[name],
                    None => &self.checked.interface.functions[name],
                };
                let ret = sig.ret.map(type_of);
                let call = b.call(callee, arg_values, ret);
                if ret.is_some() {
                    Some(call)
                } else {
                    None
                }
            }
        }
    }

    /// Lowers `a && b` / `a || b` through a temporary slot (no phis before
    /// mem2reg).
    fn short_circuit(
        &mut self,
        b: &mut FuncBuilder<'_>,
        op: ast::BinOp,
        lhs: &ast::Expr,
        rhs: &ast::Expr,
    ) -> ValueRef {
        let tmp = b.alloca(1);
        let l = self.expr(b, lhs);
        b.store(tmp, l);
        let rhs_bb = b.new_block();
        let join_bb = b.new_block();
        match op {
            ast::BinOp::And => b.cond_br(l, rhs_bb, join_bb),
            ast::BinOp::Or => b.cond_br(l, join_bb, rhs_bb),
            _ => unreachable!("short_circuit only handles && and ||"),
        }
        b.switch_to(rhs_bb);
        let r = self.expr(b, rhs);
        b.store(tmp, r);
        b.br(join_bb);
        b.switch_to(join_bb);
        b.load(tmp, Ty::I1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_module;
    use sfcc_frontend::{parse_and_check, Diagnostics, ModuleEnv};

    fn lower_src(src: &str) -> Module {
        let mut d = Diagnostics::new();
        let checked = parse_and_check("m", src, &ModuleEnv::new(), &mut d)
            .unwrap_or_else(|| panic!("frontend errors: {d:?}"));
        let module = lower_module(&checked, &ModuleEnv::new());
        verify_module(&module).unwrap_or_else(|e| panic!("{e}\n{module}"));
        module
    }

    /// The deepest nesting the parser accepts — of parentheses, blocks,
    /// unary chains, `else if` chains and left-deep operator chains — goes
    /// through parse, check and lower (and drops) on a thread with the
    /// 2 MiB stack Rust gives a spawned thread; one level more is a
    /// diagnostic, not a crash.
    #[test]
    fn the_deepest_accepted_nesting_fits_a_spawned_threads_stack() {
        use sfcc_frontend::parser::MAX_NESTING;
        type Shape = fn(usize) -> String;
        let shapes: [(&str, Shape); 5] = [
            ("parens", |k| {
                format!(
                    "fn f(x: int) -> int {{ return {}x{}; }}",
                    "(".repeat(k),
                    ")".repeat(k)
                )
            }),
            ("blocks", |k| {
                format!(
                    "fn f(x: int) -> int {{ {}x = 1;{} return x; }}",
                    "{".repeat(k),
                    "}".repeat(k)
                )
            }),
            ("unary", |k| {
                format!("fn f(x: int) -> int {{ return {}x; }}", "- ".repeat(k))
            }),
            ("else-if", |k| {
                let chain = vec!["if (x < 1) { x = 1; }"; k].join(" else ");
                format!("fn f(x: int) -> int {{ {chain} return x; }}")
            }),
            ("chain", |k| {
                format!("fn f(x: int) -> int {{ return x{}; }}", " + 1".repeat(k))
            }),
        ];
        let accepts = |src: &str| {
            let mut d = Diagnostics::new();
            let checked = parse_and_check("m", src, &ModuleEnv::new(), &mut d);
            let refused = d
                .iter()
                .any(|diag| diag.message.contains("nesting exceeds the limit"));
            (checked, refused)
        };
        for (name, shape) in shapes {
            let over = shape(MAX_NESTING as usize);
            let deepest = (1..MAX_NESTING as usize)
                .rev()
                .map(shape)
                .find(|src| !accepts(src).1)
                .unwrap();
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || {
                    let (checked, refused) = accepts(&deepest);
                    assert!(!refused);
                    let checked = checked.unwrap_or_else(|| panic!("{name}: check failed"));
                    let module = lower_module(&checked, &ModuleEnv::new());
                    verify_module(&module).unwrap();
                    let (checked, refused) = accepts(&over);
                    assert!(refused && checked.is_none(), "{name}: not refused");
                })
                .unwrap()
                .join()
                .unwrap_or_else(|_| panic!("{name}: overflowed a 2 MiB stack"));
        }
    }

    #[test]
    fn lowers_arithmetic() {
        let m = lower_src("fn f(a: int, b: int) -> int { return a * b + 1; }");
        let text = m.to_string();
        assert!(text.contains("mul i64"), "{text}");
        assert!(text.contains("add i64"), "{text}");
    }

    #[test]
    fn params_are_spilled_to_slots() {
        let m = lower_src("fn f(a: int) -> int { a = a + 1; return a; }");
        let text = m.to_string();
        assert!(text.contains("alloca 1"), "{text}");
        assert!(text.contains("store"), "{text}");
    }

    #[test]
    fn lowers_if_else_with_join() {
        let m = lower_src(
            "fn f(x: int) -> int { let r: int = 0; if (x > 0) { r = 1; } else { r = 2; } return r; }",
        );
        let f = m.function("f").unwrap();
        assert!(f.block_count() >= 4, "{f}");
    }

    #[test]
    fn lowers_while_loop() {
        let m = lower_src(
            "fn f(n: int) -> int { let s: int = 0; while (s < n) { s = s + 1; } return s; }",
        );
        let text = m.to_string();
        assert!(text.contains("condbr"), "{text}");
    }

    #[test]
    fn lowers_for_with_continue_and_break() {
        lower_src(
            "fn f(n: int) -> int {
                let s: int = 0;
                for (let i: int = 0; i < n; i = i + 1) {
                    if (i == 3) { continue; }
                    if (i == 7) { break; }
                    s = s + i;
                }
                return s;
            }",
        );
    }

    #[test]
    fn lowers_arrays_with_gep() {
        let m = lower_src("fn f() -> int { let a: [int; 8]; a[2] = 5; return a[2]; }");
        let text = m.to_string();
        assert!(text.contains("alloca 8"), "{text}");
        assert!(text.contains("gep"), "{text}");
    }

    #[test]
    fn lowers_short_circuit_and() {
        let m = lower_src("fn f(a: int, b: int) -> bool { return a > 0 && b > 0; }");
        let f = m.function("f").unwrap();
        // Short circuit introduces extra blocks.
        assert!(f.block_count() >= 3, "{f}");
        let text = f.to_string();
        assert!(text.contains("condbr"), "{text}");
    }

    #[test]
    fn short_circuit_skips_rhs_effects() {
        // Division by zero on the rhs must be behind control flow.
        let m = lower_src("fn f(a: int, b: int) -> bool { return b != 0 && a / b > 1; }");
        let f = m.function("f").unwrap();
        let text = f.to_string();
        // sdiv must not be in the entry block.
        let entry_text: String = text.lines().take_while(|l| !l.starts_with("bb1")).collect();
        assert!(!entry_text.contains("sdiv"), "{text}");
    }

    #[test]
    fn globals_fold_to_constants() {
        let m = lower_src("const K: int = 6 * 7;\nfn f() -> int { return K; }");
        let text = m.to_string();
        assert!(text.contains("ret 42"), "{text}");
    }

    #[test]
    fn builtin_print_lowered_unqualified() {
        let m = lower_src("fn f() { print(1); }");
        let text = m.to_string();
        assert!(text.contains("call @print(1)"), "{text}");
    }

    #[test]
    fn local_calls_are_qualified() {
        let m = lower_src("fn g() -> int { return 1; }\nfn f() -> int { return g(); }");
        let text = m.to_string();
        assert!(text.contains("call i64 @m.g()"), "{text}");
    }

    #[test]
    fn unreachable_code_after_return_is_tolerated() {
        lower_src("fn f() -> int { return 1; print(2); return 3; }");
    }

    #[test]
    fn negation_and_not() {
        let m = lower_src("fn f(a: int, b: bool) -> int { if (!b) { return -a; } return a; }");
        let text = m.to_string();
        assert!(text.contains("xor i1"), "{text}");
        assert!(text.contains("sub i64 0,"), "{text}");
    }

    #[test]
    fn void_function_gets_implicit_return() {
        let m = lower_src("fn f() { print(1); }");
        let text = m.function("f").unwrap().to_string();
        assert!(text.contains("  ret\n"), "{text}");
    }

    #[test]
    fn per_function_lowering_matches_whole_module() {
        let src = "const K: int = 3;\n\
                   fn g(x: int) -> int { return x * K; }\n\
                   fn f(x: int) -> int { return g(x) + 1; }";
        let mut d = Diagnostics::new();
        let checked = parse_and_check("m", src, &ModuleEnv::new(), &mut d).unwrap();
        let whole = lower_module(&checked, &ModuleEnv::new());
        for def in &checked.ast.functions {
            let solo = lower_function_def(&checked, &ModuleEnv::new(), def);
            assert_eq!(
                solo.to_string(),
                whole.function(&def.name).unwrap().to_string()
            );
        }
    }

    #[test]
    fn bool_array_loads_are_i1() {
        let m = lower_src("fn f() -> bool { let a: [bool; 2]; a[0] = true; return a[0]; }");
        let text = m.to_string();
        assert!(text.contains("load i1"), "{text}");
    }
}
