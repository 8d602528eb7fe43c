//! Abstract syntax tree for MiniC.
//!
//! A MiniC source file defines one *module*: a list of imports, global
//! constants, and functions. The grammar is C-like with Rust-flavoured
//! syntax:
//!
//! ```text
//! import util;
//!
//! const LIMIT: int = 64;
//!
//! fn clamp(x: int) -> int {
//!     if (x > LIMIT) { return LIMIT; }
//!     return x;
//! }
//! ```

use crate::source::Span;
use std::fmt;
use std::sync::Arc;

/// A type written in source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeAst {
    /// 64-bit signed integer.
    Int,
    /// Boolean.
    Bool,
    /// Fixed-size array of `int`, e.g. `[int; 16]`.
    IntArray(u32),
    /// Fixed-size array of `bool`, e.g. `[bool; 16]`.
    BoolArray(u32),
}

impl fmt::Display for TypeAst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeAst::Int => f.write_str("int"),
            TypeAst::Bool => f.write_str("bool"),
            TypeAst::IntArray(n) => write!(f, "[int; {n}]"),
            TypeAst::BoolArray(n) => write!(f, "[bool; {n}]"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (traps on division by zero)
    Div,
    /// `%` (traps on division by zero)
    Rem,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<` (shift amount masked to 0..63)
    Shl,
    /// `>>` (arithmetic; shift amount masked to 0..63)
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

impl BinOp {
    /// Whether this is a comparison producing `bool` from two `int`s.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether this is short-circuit boolean logic.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// The operator's source spelling.
    pub fn symbol(self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            BitAnd => "&",
            BitOr => "|",
            BitXor => "^",
            Shl => "<<",
            Shr => ">>",
            Eq => "==",
            Ne => "!=",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            And => "&&",
            Or => "||",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical not `!b`.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
        })
    }
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression's payload.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// Variable or global-constant reference.
    Var(String),
    /// Array element read: `name[index]`.
    Index(String, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Function call; `module` is `None` for same-module or builtin calls.
    Call {
        /// Imported module qualifier, as in `util::helper(x)`.
        module: Option<String>,
        /// Callee name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Creates an expression with the given kind and span.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Number of nodes in this expression tree (used by workload statistics).
    pub fn node_count(&self) -> usize {
        1 + match &self.kind {
            ExprKind::Int(_) | ExprKind::Bool(_) | ExprKind::Var(_) => 0,
            ExprKind::Index(_, e) | ExprKind::Unary(_, e) => e.node_count(),
            ExprKind::Binary(_, l, r) => l.node_count() + r.node_count(),
            ExprKind::Call { args, .. } => args.iter().map(Expr::node_count).sum(),
        }
    }
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A scalar variable.
    Var(String, Span),
    /// An array element: `name[index]`.
    Index(String, Box<Expr>, Span),
}

impl LValue {
    /// The source span of the whole lvalue.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var(_, s) => *s,
            LValue::Index(_, _, s) => *s,
        }
    }

    /// The root variable name.
    pub fn name(&self) -> &str {
        match self {
            LValue::Var(n, _) => n,
            LValue::Index(n, _, _) => n,
        }
    }
}

/// A statement node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The statement's payload.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `let name: ty = init;` — `init` is `None` for array declarations.
    Let {
        /// Declared variable name.
        name: String,
        /// Declared type.
        ty: TypeAst,
        /// Initializer (required for scalars, absent for arrays).
        init: Option<Expr>,
    },
    /// `lvalue = expr;`
    Assign(LValue, Expr),
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition (must be `bool`).
        cond: Expr,
        /// Taken when the condition is true.
        then_block: Block,
        /// Taken when the condition is false, if present.
        else_block: Option<Block>,
    },
    /// `while (cond) { .. }`
    While {
        /// Loop condition (must be `bool`).
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `for (init; cond; step) { .. }` — desugared by the lowerer.
    For {
        /// Loop-scoped init statement (a `Let` or `Assign`), if present.
        init: Option<Box<Stmt>>,
        /// Loop condition, if present (absent means `true`).
        cond: Option<Expr>,
        /// Step statement (an `Assign`), if present.
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Block,
    },
    /// `return expr;` or bare `return;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// An expression evaluated for effect (must be a call).
    Expr(Expr),
    /// A nested `{ .. }` scope.
    Block(Block),
}

/// A brace-delimited statement list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// Span of the whole block including braces.
    pub span: Span,
}

impl Block {
    /// Counts every statement, recursing into nested blocks and bodies.
    pub fn stmt_count(&self) -> usize {
        fn count(stmt: &Stmt) -> usize {
            1 + match &stmt.kind {
                StmtKind::If {
                    then_block,
                    else_block,
                    ..
                } => then_block.stmt_count() + else_block.as_ref().map_or(0, Block::stmt_count),
                StmtKind::While { body, .. } => body.stmt_count(),
                StmtKind::For {
                    body, init, step, ..
                } => {
                    body.stmt_count()
                        + init.as_deref().map_or(0, count)
                        + step.as_deref().map_or(0, count)
                }
                StmtKind::Block(b) => b.stmt_count(),
                _ => 0,
            }
        }
        self.stmts.iter().map(count).sum()
    }
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type (scalars only — arrays cannot be parameters).
    pub ty: TypeAst,
    /// Source location.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Function name, unique within its module.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Return type; `None` means the function returns nothing.
    pub ret: Option<TypeAst>,
    /// Function body.
    pub body: Block,
    /// Span of the whole definition.
    pub span: Span,
}

/// A module-level constant: `const NAME: int = <const expr>;`.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Constant name, unique within its module.
    pub name: String,
    /// Declared type.
    pub ty: TypeAst,
    /// Initializer, restricted by sema to a constant expression.
    pub init: Expr,
    /// Span of the whole definition.
    pub span: Span,
}

/// An `import other_module;` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// Name of the imported module.
    pub module: String,
    /// Source location.
    pub span: Span,
}

/// A parsed MiniC source file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Module name (derived from the file name by the driver).
    pub name: String,
    /// Imports in source order.
    pub imports: Vec<Import>,
    /// Global constants in source order.
    pub globals: Vec<GlobalDef>,
    /// Functions in source order, each shared: the build's per-function
    /// tasks and the checked shells they lower hold the parsed definition,
    /// not a copy of it.
    pub functions: Vec<Arc<FunctionDef>>,
}

impl Module {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Arc<FunctionDef>> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total statement count across all functions.
    pub fn stmt_count(&self) -> usize {
        self.functions.iter().map(|f| f.body.stmt_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::BitAnd.is_logical());
    }

    #[test]
    fn type_display() {
        assert_eq!(TypeAst::Int.to_string(), "int");
        assert_eq!(TypeAst::IntArray(8).to_string(), "[int; 8]");
    }

    #[test]
    fn expr_node_count() {
        let s = Span::point(0);
        let e = Expr::new(
            ExprKind::Binary(
                BinOp::Add,
                Box::new(Expr::new(ExprKind::Int(1), s)),
                Box::new(Expr::new(ExprKind::Var("x".into()), s)),
            ),
            s,
        );
        assert_eq!(e.node_count(), 3);
    }

    #[test]
    fn block_stmt_count_recurses() {
        let s = Span::point(0);
        let inner = Block {
            stmts: vec![Stmt {
                kind: StmtKind::Break,
                span: s,
            }],
            span: s,
        };
        let b = Block {
            stmts: vec![Stmt {
                kind: StmtKind::While {
                    cond: Expr::new(ExprKind::Bool(true), s),
                    body: inner,
                },
                span: s,
            }],
            span: s,
        };
        assert_eq!(b.stmt_count(), 2);
    }
}
