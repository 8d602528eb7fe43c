//! Recursive-descent parser for MiniC with panic-mode error recovery.

use crate::ast::*;
use crate::diag::Diagnostics;
use crate::lexer::lex;
use crate::source::Span;
use crate::token::{Token, TokenKind};

/// Parses `text` into a [`Module`] named `module_name`.
///
/// Parsing always produces a module; syntax errors are recorded in `diags`
/// and the parser recovers at the next statement or item boundary, so a
/// partially valid file still yields the valid parts.
pub fn parse(module_name: &str, text: &str, diags: &mut Diagnostics) -> Module {
    let tokens = lex(text, diags);
    Parser {
        source: text,
        tokens,
        pos: 0,
        depth: 0,
        diags,
    }
    .module(module_name)
}

/// How deep blocks and expressions may nest. The parser, the checker, the
/// lowering and the AST's own drop all recurse once per level, so past a
/// budget a hostile file would overflow the stack — here a diagnostic. The
/// budget keeps the deepest accepted file well inside the 2 MiB stack of a
/// spawned thread (a daemon connection's) at every one of those stages.
pub const MAX_NESTING: u32 = 256;

struct Parser<'a, 'd> {
    source: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    /// Blocks and expressions open around the current token.
    depth: u32,
    diags: &'d mut Diagnostics,
}

/// Binding powers for binary operators (higher binds tighter).
fn binop_power(kind: TokenKind) -> Option<(BinOp, u8)> {
    use TokenKind::*;
    Some(match kind {
        PipePipe => (BinOp::Or, 1),
        AmpAmp => (BinOp::And, 2),
        EqEq => (BinOp::Eq, 3),
        BangEq => (BinOp::Ne, 3),
        Lt => (BinOp::Lt, 4),
        Le => (BinOp::Le, 4),
        Gt => (BinOp::Gt, 4),
        Ge => (BinOp::Ge, 4),
        Pipe => (BinOp::BitOr, 5),
        Caret => (BinOp::BitXor, 6),
        Amp => (BinOp::BitAnd, 7),
        Shl => (BinOp::Shl, 8),
        Shr => (BinOp::Shr, 8),
        Plus => (BinOp::Add, 9),
        Minus => (BinOp::Sub, 9),
        Star => (BinOp::Mul, 10),
        Slash => (BinOp::Div, 10),
        Percent => (BinOp::Rem, 10),
        _ => return None,
    })
}

impl<'a, 'd> Parser<'a, 'd> {
    fn peek(&self) -> Token {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> TokenKind {
        self.peek().kind
    }

    fn bump(&mut self) -> Token {
        let t = self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Option<Token> {
        if self.at(kind) {
            Some(self.bump())
        } else {
            let got = self.peek();
            self.diags.error(
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    got.kind.describe()
                ),
                got.span,
            );
            None
        }
    }

    fn ident_text(&mut self) -> Option<(String, Span)> {
        if self.at(TokenKind::Ident) {
            let t = self.bump();
            Some((self.snippet(t.span), t.span))
        } else {
            let got = self.peek();
            self.diags.error(
                format!("expected identifier, found {}", got.kind.describe()),
                got.span,
            );
            None
        }
    }

    fn snippet(&self, span: Span) -> String {
        self.source[span.start as usize..span.end as usize].to_string()
    }

    /// Opens one more nesting level, or — past [`MAX_NESTING`] — reports
    /// the level it would open and refuses.
    fn descend(&mut self) -> bool {
        if self.depth >= MAX_NESTING {
            let at = self.peek().span;
            self.diags.error(
                format!("nesting exceeds the limit of {MAX_NESTING} levels"),
                at,
            );
            return false;
        }
        self.depth += 1;
        true
    }

    /// Runs `parse` one nesting level deeper (it may [descend](Self::descend)
    /// further), closing every level it opened afterwards.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let outer = self.depth;
        let parsed = if self.descend() { parse(self) } else { None };
        self.depth = outer;
        parsed
    }

    // --- items ---------------------------------------------------------

    fn module(mut self, name: &str) -> Module {
        let mut module = Module {
            name: name.to_string(),
            ..Module::default()
        };
        while !self.at(TokenKind::Eof) {
            match self.peek_kind() {
                TokenKind::KwImport => {
                    let start = self.bump().span;
                    if let Some((m, span)) = self.ident_text() {
                        self.expect(TokenKind::Semi);
                        module.imports.push(Import {
                            module: m,
                            span: start.merge(span),
                        });
                    } else {
                        self.recover_to_item();
                    }
                }
                TokenKind::KwConst => {
                    if let Some(g) = self.global() {
                        module.globals.push(g);
                    } else {
                        self.recover_to_item();
                    }
                }
                TokenKind::KwFn => {
                    if let Some(f) = self.function() {
                        module.functions.push(std::sync::Arc::new(f));
                    } else {
                        self.recover_to_item();
                    }
                }
                _ => {
                    let got = self.peek();
                    self.diags.error(
                        format!(
                            "expected 'fn', 'const' or 'import', found {}",
                            got.kind.describe()
                        ),
                        got.span,
                    );
                    self.recover_to_item();
                }
            }
        }
        module
    }

    fn recover_to_item(&mut self) {
        while !matches!(
            self.peek_kind(),
            TokenKind::Eof | TokenKind::KwFn | TokenKind::KwConst | TokenKind::KwImport
        ) {
            self.bump();
        }
    }

    fn global(&mut self) -> Option<GlobalDef> {
        let start = self.expect(TokenKind::KwConst)?.span;
        let (name, _) = self.ident_text()?;
        self.expect(TokenKind::Colon)?;
        let ty = self.type_ast()?;
        self.expect(TokenKind::Eq)?;
        let init = self.expr()?;
        let end = self.expect(TokenKind::Semi)?.span;
        Some(GlobalDef {
            name,
            ty,
            init,
            span: start.merge(end),
        })
    }

    fn function(&mut self) -> Option<FunctionDef> {
        let start = self.expect(TokenKind::KwFn)?.span;
        let (name, _) = self.ident_text()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        while !self.at(TokenKind::RParen) && !self.at(TokenKind::Eof) {
            let (pname, pspan) = self.ident_text()?;
            self.expect(TokenKind::Colon)?;
            let ty = self.type_ast()?;
            params.push(Param {
                name: pname,
                ty,
                span: pspan,
            });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        let ret = if self.eat(TokenKind::Arrow) {
            Some(self.type_ast()?)
        } else {
            None
        };
        let body = self.block()?;
        let span = start.merge(body.span);
        Some(FunctionDef {
            name,
            params,
            ret,
            body,
            span,
        })
    }

    fn type_ast(&mut self) -> Option<TypeAst> {
        match self.peek_kind() {
            TokenKind::KwInt => {
                self.bump();
                Some(TypeAst::Int)
            }
            TokenKind::KwBool => {
                self.bump();
                Some(TypeAst::Bool)
            }
            TokenKind::LBracket => {
                self.bump();
                let elem_is_int = match self.peek_kind() {
                    TokenKind::KwInt => true,
                    TokenKind::KwBool => false,
                    other => {
                        let span = self.peek().span;
                        self.diags.error(
                            format!(
                                "expected 'int' or 'bool' array element, found {}",
                                other.describe()
                            ),
                            span,
                        );
                        return None;
                    }
                };
                self.bump();
                self.expect(TokenKind::Semi)?;
                let len_tok = self.expect(TokenKind::IntLit)?;
                self.expect(TokenKind::RBracket)?;
                let len = len_tok.value;
                if !(1..=1 << 20).contains(&len) {
                    self.diags
                        .error("array length must be between 1 and 2^20", len_tok.span);
                    return None;
                }
                Some(if elem_is_int {
                    TypeAst::IntArray(len as u32)
                } else {
                    TypeAst::BoolArray(len as u32)
                })
            }
            other => {
                let span = self.peek().span;
                self.diags
                    .error(format!("expected type, found {}", other.describe()), span);
                None
            }
        }
    }

    // --- statements ----------------------------------------------------

    fn block(&mut self) -> Option<Block> {
        self.nested(Self::block_body)
    }

    fn block_body(&mut self) -> Option<Block> {
        let start = self.expect(TokenKind::LBrace)?.span;
        let mut stmts = Vec::new();
        while !self.at(TokenKind::RBrace) && !self.at(TokenKind::Eof) {
            match self.stmt() {
                Some(s) => stmts.push(s),
                None => self.recover_to_stmt(),
            }
        }
        let end = self.expect(TokenKind::RBrace)?.span;
        Some(Block {
            stmts,
            span: start.merge(end),
        })
    }

    fn recover_to_stmt(&mut self) {
        loop {
            match self.peek_kind() {
                TokenKind::Eof | TokenKind::RBrace => return,
                TokenKind::Semi => {
                    self.bump();
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn stmt(&mut self) -> Option<Stmt> {
        let start = self.peek().span;
        match self.peek_kind() {
            TokenKind::KwLet => self.let_stmt(),
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.block()?;
                let span = start.merge(body.span);
                Some(Stmt {
                    kind: StmtKind::While { cond, body },
                    span,
                })
            }
            TokenKind::KwFor => self.for_stmt(),
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.at(TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                let end = self.expect(TokenKind::Semi)?.span;
                Some(Stmt {
                    kind: StmtKind::Return(value),
                    span: start.merge(end),
                })
            }
            TokenKind::KwBreak => {
                self.bump();
                let end = self.expect(TokenKind::Semi)?.span;
                Some(Stmt {
                    kind: StmtKind::Break,
                    span: start.merge(end),
                })
            }
            TokenKind::KwContinue => {
                self.bump();
                let end = self.expect(TokenKind::Semi)?.span;
                Some(Stmt {
                    kind: StmtKind::Continue,
                    span: start.merge(end),
                })
            }
            TokenKind::LBrace => {
                let b = self.block()?;
                let span = b.span;
                Some(Stmt {
                    kind: StmtKind::Block(b),
                    span,
                })
            }
            _ => self.assign_or_expr_stmt(),
        }
    }

    fn let_stmt(&mut self) -> Option<Stmt> {
        let start = self.expect(TokenKind::KwLet)?.span;
        let (name, _) = self.ident_text()?;
        self.expect(TokenKind::Colon)?;
        let ty = self.type_ast()?;
        let init = if self.eat(TokenKind::Eq) {
            Some(self.expr()?)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Some(Stmt {
            kind: StmtKind::Let { name, ty, init },
            span: start.merge(end),
        })
    }

    fn if_stmt(&mut self) -> Option<Stmt> {
        let start = self.expect(TokenKind::KwIf)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_block = self.block()?;
        let mut span = start.merge(then_block.span);
        let else_block = if self.eat(TokenKind::KwElse) {
            if self.at(TokenKind::KwIf) {
                // `else if` chains: wrap the nested if in a synthetic block.
                let nested = self.nested(Self::if_stmt)?;
                let nspan = nested.span;
                span = span.merge(nspan);
                Some(Block {
                    stmts: vec![nested],
                    span: nspan,
                })
            } else {
                let b = self.block()?;
                span = span.merge(b.span);
                Some(b)
            }
        } else {
            None
        };
        Some(Stmt {
            kind: StmtKind::If {
                cond,
                then_block,
                else_block,
            },
            span,
        })
    }

    fn for_stmt(&mut self) -> Option<Stmt> {
        let start = self.expect(TokenKind::KwFor)?.span;
        self.expect(TokenKind::LParen)?;
        let init = if self.at(TokenKind::Semi) {
            self.bump();
            None
        } else if self.at(TokenKind::KwLet) {
            Some(Box::new(self.let_stmt()?))
        } else {
            let s = self.simple_assign()?;
            self.expect(TokenKind::Semi)?;
            Some(Box::new(s))
        };
        let cond = if self.at(TokenKind::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(TokenKind::Semi)?;
        let step = if self.at(TokenKind::RParen) {
            None
        } else {
            Some(Box::new(self.simple_assign()?))
        };
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.merge(body.span);
        Some(Stmt {
            kind: StmtKind::For {
                init,
                cond,
                step,
                body,
            },
            span,
        })
    }

    /// Parses `lvalue = expr` without the trailing semicolon (for `for` headers).
    fn simple_assign(&mut self) -> Option<Stmt> {
        let start = self.peek().span;
        let lv = self.lvalue()?;
        self.expect(TokenKind::Eq)?;
        let value = self.expr()?;
        let span = start.merge(value.span);
        Some(Stmt {
            kind: StmtKind::Assign(lv, value),
            span,
        })
    }

    fn lvalue(&mut self) -> Option<LValue> {
        let (name, span) = self.ident_text()?;
        if self.eat(TokenKind::LBracket) {
            let idx = self.expr()?;
            let end = self.expect(TokenKind::RBracket)?.span;
            Some(LValue::Index(name, Box::new(idx), span.merge(end)))
        } else {
            Some(LValue::Var(name, span))
        }
    }

    fn assign_or_expr_stmt(&mut self) -> Option<Stmt> {
        let start = self.peek().span;
        // Distinguish `x = ..` / `x[i] = ..` from a call expression by
        // parsing a full expression and inspecting what follows.
        let expr = self.expr()?;
        if self.at(TokenKind::Eq) {
            // Reinterpret the parsed expression as an lvalue.
            let lv = match expr.kind {
                ExprKind::Var(name) => LValue::Var(name, expr.span),
                ExprKind::Index(name, idx) => LValue::Index(name, idx, expr.span),
                _ => {
                    self.diags.error("invalid assignment target", expr.span);
                    self.recover_to_stmt();
                    return None;
                }
            };
            self.bump(); // `=`
            let value = self.expr()?;
            let end = self.expect(TokenKind::Semi)?.span;
            Some(Stmt {
                kind: StmtKind::Assign(lv, value),
                span: start.merge(end),
            })
        } else {
            let end = self.expect(TokenKind::Semi)?.span;
            if !matches!(expr.kind, ExprKind::Call { .. }) {
                self.diags
                    .warning("expression statement has no effect", expr.span);
            }
            Some(Stmt {
                kind: StmtKind::Expr(expr),
                span: start.merge(end),
            })
        }
    }

    // --- expressions -----------------------------------------------------

    fn expr(&mut self) -> Option<Expr> {
        self.expr_bp(0)
    }

    fn expr_bp(&mut self, min_bp: u8) -> Option<Expr> {
        self.nested(|p| {
            let mut lhs = p.unary()?;
            while let Some((op, bp)) = binop_power(p.peek_kind()) {
                if bp <= min_bp {
                    break;
                }
                // A left-deep chain (`1 + 1 + …`) nests its tree one level
                // per operator, though the parser only loops.
                if !p.descend() {
                    return None;
                }
                p.bump();
                let rhs = p.expr_bp(bp)?;
                let span = lhs.span.merge(rhs.span);
                lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
            }
            Some(lhs)
        })
    }

    fn unary(&mut self) -> Option<Expr> {
        let start = self.peek().span;
        match self.peek_kind() {
            TokenKind::Minus | TokenKind::Bang => self.nested(|p| {
                let op = if p.bump().kind == TokenKind::Minus {
                    UnOp::Neg
                } else {
                    UnOp::Not
                };
                let e = p.unary()?;
                let span = start.merge(e.span);
                Some(Expr::new(ExprKind::Unary(op, Box::new(e)), span))
            }),
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Option<Expr> {
        let tok = self.peek();
        match tok.kind {
            TokenKind::IntLit => {
                self.bump();
                Some(Expr::new(ExprKind::Int(tok.value), tok.span))
            }
            TokenKind::KwTrue => {
                self.bump();
                Some(Expr::new(ExprKind::Bool(true), tok.span))
            }
            TokenKind::KwFalse => {
                self.bump();
                Some(Expr::new(ExprKind::Bool(false), tok.span))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Some(e)
            }
            TokenKind::Ident => {
                let (name, span) = self.ident_text()?;
                match self.peek_kind() {
                    TokenKind::LParen => self.call(None, name, span),
                    TokenKind::PathSep => {
                        self.bump();
                        let (fname, fspan) = self.ident_text()?;
                        if !self.at(TokenKind::LParen) {
                            self.diags
                                .error("module path must be followed by a call", span.merge(fspan));
                            return None;
                        }
                        self.call(Some(name), fname, span.merge(fspan))
                    }
                    TokenKind::LBracket => {
                        self.bump();
                        let idx = self.expr()?;
                        let end = self.expect(TokenKind::RBracket)?.span;
                        Some(Expr::new(
                            ExprKind::Index(name, Box::new(idx)),
                            span.merge(end),
                        ))
                    }
                    _ => Some(Expr::new(ExprKind::Var(name), span)),
                }
            }
            other => {
                self.diags.error(
                    format!("expected expression, found {}", other.describe()),
                    tok.span,
                );
                None
            }
        }
    }

    fn call(&mut self, module: Option<String>, name: String, start: Span) -> Option<Expr> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        while !self.at(TokenKind::RParen) && !self.at(TokenKind::Eof) {
            args.push(self.expr()?);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        let end = self.expect(TokenKind::RParen)?.span;
        Some(Expr::new(
            ExprKind::Call { module, name, args },
            start.merge(end),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Module {
        let mut d = Diagnostics::new();
        let m = parse("test", src, &mut d);
        assert!(!d.has_errors(), "unexpected errors:\n{d:?}");
        m
    }

    fn parse_err(src: &str) -> Diagnostics {
        let mut d = Diagnostics::new();
        parse("test", src, &mut d);
        assert!(d.has_errors(), "expected errors for {src:?}");
        d
    }

    #[test]
    fn parses_empty_module() {
        let m = parse_ok("");
        assert!(m.functions.is_empty());
    }

    #[test]
    fn parses_simple_function() {
        let m = parse_ok("fn add(a: int, b: int) -> int { return a + b; }");
        assert_eq!(m.functions.len(), 1);
        let f = &m.functions[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Some(TypeAst::Int));
    }

    #[test]
    fn parses_imports_and_globals() {
        let m = parse_ok("import util;\nconst N: int = 8;\nfn f() { return; }");
        assert_eq!(m.imports.len(), 1);
        assert_eq!(m.imports[0].module, "util");
        assert_eq!(m.globals.len(), 1);
        assert_eq!(m.globals[0].name, "N");
    }

    #[test]
    fn precedence_mul_over_add() {
        let m = parse_ok("fn f() -> int { return 1 + 2 * 3; }");
        let body = &m.functions[0].body.stmts[0];
        let StmtKind::Return(Some(e)) = &body.kind else {
            panic!()
        };
        let ExprKind::Binary(BinOp::Add, _, rhs) = &e.kind else {
            panic!("expected add at top: {e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn precedence_cmp_over_logic() {
        let m = parse_ok("fn f(a: int, b: int) -> bool { return a < b && b < 10; }");
        let StmtKind::Return(Some(e)) = &m.functions[0].body.stmts[0].kind else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::And, _, _)));
    }

    #[test]
    fn parses_else_if_chain() {
        let m = parse_ok(
            "fn f(x: int) -> int { if (x < 0) { return 0; } else if (x < 10) { return 1; } else { return 2; } }",
        );
        let StmtKind::If {
            else_block: Some(eb),
            ..
        } = &m.functions[0].body.stmts[0].kind
        else {
            panic!()
        };
        assert!(matches!(eb.stmts[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn parses_for_loop() {
        let m = parse_ok(
            "fn f() -> int { let s: int = 0; for (let i: int = 0; i < 10; i = i + 1) { s = s + i; } return s; }",
        );
        let StmtKind::For {
            init, cond, step, ..
        } = &m.functions[0].body.stmts[1].kind
        else {
            panic!()
        };
        assert!(init.is_some() && cond.is_some() && step.is_some());
    }

    #[test]
    fn parses_for_with_empty_parts() {
        let m = parse_ok("fn f() { for (;;) { break; } }");
        let StmtKind::For {
            init, cond, step, ..
        } = &m.functions[0].body.stmts[0].kind
        else {
            panic!()
        };
        assert!(init.is_none() && cond.is_none() && step.is_none());
    }

    #[test]
    fn parses_arrays() {
        let m = parse_ok("fn f() -> int { let a: [int; 4]; a[0] = 7; return a[0]; }");
        let f = &m.functions[0];
        assert!(matches!(
            f.body.stmts[0].kind,
            StmtKind::Let {
                ty: TypeAst::IntArray(4),
                init: None,
                ..
            }
        ));
        assert!(matches!(
            f.body.stmts[1].kind,
            StmtKind::Assign(LValue::Index(..), _)
        ));
    }

    #[test]
    fn parses_cross_module_call() {
        let m = parse_ok("import util;\nfn f() -> int { return util::g(1, 2); }");
        let StmtKind::Return(Some(e)) = &m.functions[0].body.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Call { module, name, args } = &e.kind else {
            panic!()
        };
        assert_eq!(module.as_deref(), Some("util"));
        assert_eq!(name, "g");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn parses_unary_chain() {
        let m = parse_ok("fn f(x: int) -> int { return --x; }");
        let StmtKind::Return(Some(e)) = &m.functions[0].body.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Unary(UnOp::Neg, inner) = &e.kind else {
            panic!()
        };
        assert!(matches!(inner.kind, ExprKind::Unary(UnOp::Neg, _)));
    }

    #[test]
    fn error_recovery_keeps_later_functions() {
        let mut d = Diagnostics::new();
        let m = parse(
            "test",
            "fn broken( { }\nfn ok() -> int { return 1; }",
            &mut d,
        );
        assert!(d.has_errors());
        assert!(m.function("ok").is_some());
    }

    #[test]
    fn error_recovery_within_block() {
        let mut d = Diagnostics::new();
        let m = parse(
            "test",
            "fn f() -> int { let x: int = ; let y: int = 2; return y; }",
            &mut d,
        );
        assert!(d.has_errors());
        // The second let survived recovery.
        assert!(m.functions[0].body.stmts.iter().any(|s| matches!(
            &s.kind,
            StmtKind::Let { name, .. } if name == "y"
        )));
    }

    #[test]
    fn rejects_bad_assignment_target() {
        parse_err("fn f() { 1 + 2 = 3; }");
    }

    #[test]
    fn rejects_zero_length_array() {
        parse_err("fn f() { let a: [int; 0]; }");
    }

    #[test]
    fn warns_on_pure_expression_statement() {
        let mut d = Diagnostics::new();
        parse("test", "fn f(x: int) { x + 1; }", &mut d);
        assert!(!d.has_errors());
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn parses_bare_return() {
        let m = parse_ok("fn f() { return; }");
        assert!(matches!(
            m.functions[0].body.stmts[0].kind,
            StmtKind::Return(None)
        ));
    }

    #[test]
    fn parses_nested_blocks() {
        let m = parse_ok("fn f() { { { return; } } }");
        assert!(matches!(
            m.functions[0].body.stmts[0].kind,
            StmtKind::Block(_)
        ));
    }
}
