//! Span-free structural fingerprints and callee discovery over the AST.
//!
//! The incremental build keys per-function work on *structure*: editing one
//! function's body shifts the source offsets of every later definition in
//! the file, so any fingerprint that folds in [`crate::source::Span`]s would
//! invalidate the whole module on each keystroke. The walkers here serialize
//! definitions to a canonical text form that carries no location data.

use crate::ast::*;
use sfcc_codec::fnv64;
use std::fmt::Write as _;

/// A deterministic, span-free fingerprint of one function definition.
///
/// Two definitions fingerprint equal iff they are structurally identical
/// (same name, parameters, return type, and body) regardless of where they
/// sit in the file or what surrounds them.
pub fn def_fingerprint(def: &FunctionDef) -> u64 {
    fnv64(def_repr(def).as_bytes())
}

/// The canonical text form backing [`def_fingerprint`] (exposed for tests).
pub fn def_repr(def: &FunctionDef) -> String {
    let mut out = String::new();
    out.push_str("fn ");
    out.push_str(&def.name);
    out.push('(');
    for (i, p) in def.params.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", p.name, p.ty);
    }
    out.push(')');
    if let Some(ret) = def.ret {
        let _ = write!(out, "->{ret}");
    }
    block_repr(&def.body, &mut out);
    out
}

fn block_repr(block: &Block, out: &mut String) {
    out.push('{');
    for stmt in &block.stmts {
        stmt_repr(stmt, out);
    }
    out.push('}');
}

fn stmt_repr(stmt: &Stmt, out: &mut String) {
    match &stmt.kind {
        StmtKind::Let { name, ty, init } => {
            let _ = write!(out, "let {name}:{ty}");
            if let Some(e) = init {
                out.push('=');
                expr_repr(e, out);
            }
            out.push(';');
        }
        StmtKind::Assign(lv, value) => {
            lvalue_repr(lv, out);
            out.push('=');
            expr_repr(value, out);
            out.push(';');
        }
        StmtKind::If {
            cond,
            then_block,
            else_block,
        } => {
            out.push_str("if(");
            expr_repr(cond, out);
            out.push(')');
            block_repr(then_block, out);
            if let Some(eb) = else_block {
                out.push_str("else");
                block_repr(eb, out);
            }
        }
        StmtKind::While { cond, body } => {
            out.push_str("while(");
            expr_repr(cond, out);
            out.push(')');
            block_repr(body, out);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            out.push_str("for(");
            if let Some(init) = init {
                stmt_repr(init, out);
            }
            out.push(';');
            if let Some(cond) = cond {
                expr_repr(cond, out);
            }
            out.push(';');
            if let Some(step) = step {
                stmt_repr(step, out);
            }
            out.push(')');
            block_repr(body, out);
        }
        StmtKind::Return(value) => {
            out.push_str("return");
            if let Some(e) = value {
                out.push(' ');
                expr_repr(e, out);
            }
            out.push(';');
        }
        StmtKind::Break => out.push_str("break;"),
        StmtKind::Continue => out.push_str("continue;"),
        StmtKind::Expr(e) => {
            expr_repr(e, out);
            out.push(';');
        }
        StmtKind::Block(b) => block_repr(b, out),
    }
}

fn lvalue_repr(lv: &LValue, out: &mut String) {
    match lv {
        LValue::Var(name, _) => out.push_str(name),
        LValue::Index(name, idx, _) => {
            out.push_str(name);
            out.push('[');
            expr_repr(idx, out);
            out.push(']');
        }
    }
}

fn expr_repr(expr: &Expr, out: &mut String) {
    match &expr.kind {
        ExprKind::Int(v) => {
            let _ = write!(out, "{v}");
        }
        ExprKind::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        ExprKind::Var(name) => out.push_str(name),
        ExprKind::Index(name, idx) => {
            out.push_str(name);
            out.push('[');
            expr_repr(idx, out);
            out.push(']');
        }
        ExprKind::Unary(op, inner) => {
            let _ = write!(out, "{op}");
            out.push('(');
            expr_repr(inner, out);
            out.push(')');
        }
        ExprKind::Binary(op, lhs, rhs) => {
            out.push('(');
            expr_repr(lhs, out);
            let _ = write!(out, "{op}");
            expr_repr(rhs, out);
            out.push(')');
        }
        ExprKind::Call { module, name, args } => {
            if let Some(m) = module {
                out.push_str(m);
                out.push_str("::");
            }
            out.push_str(name);
            out.push('(');
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                expr_repr(arg, out);
            }
            out.push(')');
        }
    }
}

/// Every function call site in `def`, as `(module qualifier, callee name)`,
/// sorted and deduplicated. The builtin `print` (unqualified) is omitted —
/// it has no signature to depend on.
///
/// This is purely syntactic: the set is an over-approximation of resolvable
/// callees (unknown names still appear) and is exactly the set of signatures
/// semantic analysis of `def` can consult.
pub fn callees_of(def: &FunctionDef) -> Vec<(Option<String>, String)> {
    let mut out = Vec::new();
    block_callees(&def.body, &mut out);
    out.sort();
    out.dedup();
    out
}

fn block_callees(block: &Block, out: &mut Vec<(Option<String>, String)>) {
    for stmt in &block.stmts {
        stmt_callees(stmt, out);
    }
}

fn stmt_callees(stmt: &Stmt, out: &mut Vec<(Option<String>, String)>) {
    match &stmt.kind {
        StmtKind::Let { init, .. } => {
            if let Some(e) = init {
                expr_callees(e, out);
            }
        }
        StmtKind::Assign(lv, value) => {
            if let LValue::Index(_, idx, _) = lv {
                expr_callees(idx, out);
            }
            expr_callees(value, out);
        }
        StmtKind::If {
            cond,
            then_block,
            else_block,
        } => {
            expr_callees(cond, out);
            block_callees(then_block, out);
            if let Some(eb) = else_block {
                block_callees(eb, out);
            }
        }
        StmtKind::While { cond, body } => {
            expr_callees(cond, out);
            block_callees(body, out);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(init) = init {
                stmt_callees(init, out);
            }
            if let Some(cond) = cond {
                expr_callees(cond, out);
            }
            if let Some(step) = step {
                stmt_callees(step, out);
            }
            block_callees(body, out);
        }
        StmtKind::Return(value) => {
            if let Some(e) = value {
                expr_callees(e, out);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Expr(e) => expr_callees(e, out),
        StmtKind::Block(b) => block_callees(b, out),
    }
}

fn expr_callees(expr: &Expr, out: &mut Vec<(Option<String>, String)>) {
    match &expr.kind {
        ExprKind::Int(_) | ExprKind::Bool(_) | ExprKind::Var(_) => {}
        ExprKind::Index(_, idx) => expr_callees(idx, out),
        ExprKind::Unary(_, inner) => expr_callees(inner, out),
        ExprKind::Binary(_, lhs, rhs) => {
            expr_callees(lhs, out);
            expr_callees(rhs, out);
        }
        ExprKind::Call { module, name, args } => {
            if !(module.is_none() && name == crate::sema::BUILTIN_PRINT) {
                out.push((module.clone(), name.clone()));
            }
            for arg in args {
                expr_callees(arg, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::parser::parse;

    fn parse_module(src: &str) -> Module {
        let mut d = Diagnostics::new();
        let m = parse("test", src, &mut d);
        assert!(!d.has_errors(), "parse errors: {d:?}");
        m
    }

    #[test]
    fn fingerprint_ignores_position_in_file() {
        let a = parse_module("fn f(x: int) -> int { return x + 1; }");
        let b = parse_module("fn pad() { print(0); }\n\n\nfn f(x: int) -> int { return x + 1; }");
        let fa = a.function("f").unwrap();
        let fb = b.function("f").unwrap();
        assert_ne!(fa.span, fb.span, "spans must differ for the test to bite");
        assert_eq!(def_fingerprint(fa), def_fingerprint(fb));
    }

    #[test]
    fn fingerprint_ignores_whitespace_but_not_structure() {
        let a = parse_module("fn f(x: int) -> int { return x + 1; }");
        let b = parse_module("fn f(x: int) -> int {\n    return x + 1;\n}");
        let c = parse_module("fn f(x: int) -> int { return x + 2; }");
        let fp = |m: &Module| def_fingerprint(m.function("f").unwrap());
        assert_eq!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&c));
    }

    #[test]
    fn fingerprint_covers_signature_parts() {
        let a = parse_module("fn f(x: int) -> int { return x; }");
        let b = parse_module("fn f(y: int) -> int { return y; }");
        let fp = |m: &Module| def_fingerprint(m.function("f").unwrap());
        assert_ne!(fp(&a), fp(&b), "parameter names are structure");
    }

    #[test]
    fn callees_found_in_every_position() {
        let m = parse_module(
            "import util;\n\
             fn g(x: int) -> int { return x; }\n\
             fn h() -> bool { return true; }\n\
             fn f(n: int) -> int {\n\
                 let a: int = g(n);\n\
                 let arr: [int; 4];\n\
                 arr[g(0)] = util::helper(a);\n\
                 for (let i: int = g(1); h(); i = g(i)) { print(i); }\n\
                 while (h()) { break; }\n\
                 if (h()) { return util::helper(a); } else { return g(a); }\n\
             }",
        );
        let callees = callees_of(m.function("f").unwrap());
        assert_eq!(
            callees,
            vec![
                (None, "g".to_string()),
                (None, "h".to_string()),
                (Some("util".to_string()), "helper".to_string()),
            ]
        );
    }

    #[test]
    fn builtin_print_is_not_a_callee() {
        let m = parse_module("fn f() { print(1); }");
        assert!(callees_of(m.function("f").unwrap()).is_empty());
    }

    #[test]
    fn recursive_call_lists_self() {
        let m = parse_module("fn f(n: int) -> int { if (n < 1) { return 0; } return f(n - 1); }");
        assert_eq!(
            callees_of(m.function("f").unwrap()),
            vec![(None, "f".to_string())]
        );
    }
}
