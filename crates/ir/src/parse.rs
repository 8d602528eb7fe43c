//! Parser for the textual IR form produced by [`crate::print`].
//!
//! Primarily a testing tool: pass unit tests write small functions as text
//! instead of builder call chains. The parser accepts exactly the printer's
//! output grammar (round-trip property-tested in the crate tests).

use crate::function::Function;
use crate::inst::{BinKind, BlockId, IcmpPred, InstData, InstId, Op, Terminator, Ty, ValueRef};
use std::collections::HashMap;
use std::fmt;

/// An IR-text parse error with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrParseError {
    /// 1-based line of the offending text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for IrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ir parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for IrParseError {}

/// Parses one function from its textual form.
///
/// # Errors
///
/// Returns an [`IrParseError`] describing the first malformed line.
///
/// # Examples
///
/// ```
/// let f = sfcc_ir::parse_function(r"
/// fn @inc(i64) -> i64 {
/// bb0:
///   v0 = add i64 p0, 1
///   ret v0
/// }
/// ").unwrap();
/// assert_eq!(f.name, "inc");
/// ```
pub fn parse_function(text: &str) -> Result<Function, IrParseError> {
    FnParser::new(text).parse()
}

struct FnParser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
    /// Labels and value names are slices of the input text.
    blocks: HashMap<&'a str, BlockId>,
    values: HashMap<&'a str, ValueRef>,
    /// Phi operands that referenced values before their definition.
    pending: Vec<(InstId, usize, &'a str, usize)>,
}

impl<'a> FnParser<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with(';'))
            .collect();
        FnParser {
            lines,
            pos: 0,
            blocks: HashMap::new(),
            values: HashMap::new(),
            pending: Vec::new(),
        }
    }

    fn err(&self, line: usize, message: impl Into<String>) -> IrParseError {
        IrParseError {
            line,
            message: message.into(),
        }
    }

    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        let l = self.lines.get(self.pos).copied();
        self.pos += 1;
        l
    }

    fn parse(mut self) -> Result<Function, IrParseError> {
        let (ln, header) = self.next_line().ok_or_else(|| self.err(0, "empty input"))?;
        let mut func = self.parse_header(ln, header)?;

        // Pre-scan block labels so forward branches resolve.
        let mut label_count = 0;
        for &(ln, line) in self.lines.iter().skip(self.pos) {
            if let Some(label) = line.strip_suffix(':') {
                if !label.contains(' ') {
                    let id = if label_count == 0 {
                        crate::function::ENTRY
                    } else {
                        func.add_block()
                    };
                    label_count += 1;
                    if self.blocks.insert(label, id).is_some() {
                        return Err(self.err(ln, format!("duplicate label '{label}'")));
                    }
                }
            }
        }
        if label_count == 0 {
            return Err(self.err(ln, "function has no blocks"));
        }

        let mut current: Option<BlockId> = None;
        while let Some((ln, line)) = self.next_line() {
            if line == "}" {
                self.resolve_pending(&mut func)?;
                return Ok(func);
            }
            if let Some(label) = line.strip_suffix(':') {
                current = Some(self.blocks[label]);
                continue;
            }
            let block = current.ok_or_else(|| self.err(ln, "instruction before any label"))?;
            self.parse_line(&mut func, block, ln, line)?;
        }
        Err(self.err(0, "missing closing '}'"))
    }

    fn parse_header(&self, ln: usize, line: &str) -> Result<Function, IrParseError> {
        let rest = line
            .strip_prefix("fn @")
            .ok_or_else(|| self.err(ln, "expected 'fn @name(..)'"))?;
        let open = rest.find('(').ok_or_else(|| self.err(ln, "missing '('"))?;
        let name = &rest[..open];
        let close = rest.find(')').ok_or_else(|| self.err(ln, "missing ')'"))?;
        let params_text = &rest[open + 1..close];
        let mut params = Vec::new();
        for p in params_text
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
        {
            params.push(self.parse_ty(ln, p)?);
        }
        let tail = rest[close + 1..].trim().trim_end_matches('{').trim();
        let ret = if let Some(rt) = tail.strip_prefix("->") {
            Some(self.parse_ty(ln, rt.trim())?)
        } else if tail.is_empty() {
            None
        } else {
            return Err(self.err(ln, format!("unexpected trailing '{tail}'")));
        };
        Ok(Function::new(name, params, ret))
    }

    fn parse_ty(&self, ln: usize, s: &str) -> Result<Ty, IrParseError> {
        match s {
            "i64" => Ok(Ty::I64),
            "i1" => Ok(Ty::I1),
            "ptr" => Ok(Ty::Ptr),
            other => Err(self.err(ln, format!("unknown type '{other}'"))),
        }
    }

    fn parse_value(&self, ln: usize, s: &str, want: Option<Ty>) -> Result<ValueRef, IrParseError> {
        let s = s.trim();
        if s == "true" {
            return Ok(ValueRef::bool(true));
        }
        if s == "false" {
            return Ok(ValueRef::bool(false));
        }
        if let Some(idx) = s.strip_prefix('p') {
            if let Ok(i) = idx.parse::<u32>() {
                return Ok(ValueRef::Param(i));
            }
        }
        if s.starts_with('v') {
            return self.values.get(s).copied().ok_or_else(|| {
                self.err(
                    ln,
                    format!("unknown value '{s}' (forward refs only allowed in phi)"),
                )
            });
        }
        if let Ok(c) = s.parse::<i64>() {
            let ty = want.unwrap_or(Ty::I64);
            let ty = if ty == Ty::Ptr { Ty::I64 } else { ty };
            return Ok(ValueRef::Const(ty, c));
        }
        Err(self.err(ln, format!("cannot parse operand '{s}'")))
    }

    fn parse_block_ref(&self, ln: usize, s: &str) -> Result<BlockId, IrParseError> {
        self.blocks
            .get(s.trim())
            .copied()
            .ok_or_else(|| self.err(ln, format!("unknown block '{}'", s.trim())))
    }

    fn parse_line(
        &mut self,
        func: &mut Function,
        block: BlockId,
        ln: usize,
        line: &'a str,
    ) -> Result<(), IrParseError> {
        // Terminators.
        if let Some(rest) = line.strip_prefix("br ") {
            func.block_mut(block).term = Terminator::Br(self.parse_block_ref(ln, rest)?);
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix("condbr ") {
            let [c, t, e] =
                three(rest).ok_or_else(|| self.err(ln, "condbr needs 'cond, bb, bb'"))?;
            func.block_mut(block).term = Terminator::CondBr {
                cond: self.parse_value(ln, c, Some(Ty::I1))?,
                then_bb: self.parse_block_ref(ln, t)?,
                else_bb: self.parse_block_ref(ln, e)?,
            };
            return Ok(());
        }
        if line == "ret" {
            func.block_mut(block).term = Terminator::Ret(None);
            return Ok(());
        }
        if let Some(rest) = line.strip_prefix("ret ") {
            let v = self.parse_value(ln, rest, func.ret)?;
            func.block_mut(block).term = Terminator::Ret(Some(v));
            return Ok(());
        }
        if line == "trap" {
            func.block_mut(block).term = Terminator::Trap;
            return Ok(());
        }

        // `vN = <op>` or a void `call`/`store`.
        let (result_name, body) = match line.split_once('=') {
            Some((lhs, rhs)) if lhs.trim().starts_with('v') => (Some(lhs.trim()), rhs.trim()),
            _ => (None, line),
        };

        let (data, defines) = self.parse_inst_body(func, ln, body)?;
        let id = func.append_inst(block, data);
        if let Some(name) = result_name {
            if !defines {
                return Err(self.err(ln, "void instruction cannot define a value"));
            }
            if self.values.insert(name, ValueRef::Inst(id)).is_some() {
                return Err(self.err(ln, format!("redefinition of '{name}'")));
            }
        } else if defines {
            return Err(self.err(ln, "value-producing instruction needs 'vN = '"));
        }
        // Fix up pending phi self/forward references recorded during body parse.
        for p in &mut self.pending {
            if p.0 == InstId(u32::MAX) {
                p.0 = id;
            }
        }
        Ok(())
    }

    /// Parses an instruction body; returns the instruction and whether it
    /// produces a value.
    fn parse_inst_body(
        &mut self,
        func: &Function,
        ln: usize,
        body: &'a str,
    ) -> Result<(InstData, bool), IrParseError> {
        let (mnemonic, rest) = body.split_once(' ').unwrap_or((body, ""));
        let rest = rest.trim();

        let bin = |k: BinKind| -> Result<(InstData, bool), IrParseError> {
            let (ty_s, ops) = rest
                .split_once(' ')
                .ok_or_else(|| self.err(ln, "missing type"))?;
            let ty = self.parse_ty(ln, ty_s)?;
            let (a, b) = ops
                .split_once(',')
                .ok_or_else(|| self.err(ln, "need two operands"))?;
            let lhs = self.parse_value(ln, a, Some(ty))?;
            let rhs = self.parse_value(ln, b, Some(ty))?;
            Ok((InstData::new(Op::Bin(k), vec![lhs, rhs], ty), true))
        };

        match mnemonic {
            "add" => bin(BinKind::Add),
            "sub" => bin(BinKind::Sub),
            "mul" => bin(BinKind::Mul),
            "sdiv" => bin(BinKind::Sdiv),
            "srem" => bin(BinKind::Srem),
            "and" => bin(BinKind::And),
            "or" => bin(BinKind::Or),
            "xor" => bin(BinKind::Xor),
            "shl" => bin(BinKind::Shl),
            "ashr" => bin(BinKind::Ashr),
            "icmp" => {
                let (pred_s, ops) = rest
                    .split_once(' ')
                    .ok_or_else(|| self.err(ln, "missing predicate"))?;
                let pred = match pred_s {
                    "eq" => IcmpPred::Eq,
                    "ne" => IcmpPred::Ne,
                    "slt" => IcmpPred::Slt,
                    "sle" => IcmpPred::Sle,
                    "sgt" => IcmpPred::Sgt,
                    "sge" => IcmpPred::Sge,
                    p => return Err(self.err(ln, format!("unknown predicate '{p}'"))),
                };
                let (a, b) = ops
                    .split_once(',')
                    .ok_or_else(|| self.err(ln, "need two operands"))?;
                let lhs = self.parse_value(ln, a, Some(Ty::I64))?;
                let rhs = self.parse_value(ln, b, Some(Ty::I64))?;
                Ok((InstData::new(Op::Icmp(pred), vec![lhs, rhs], Ty::I1), true))
            }
            "select" => {
                let (ty_s, ops) = rest
                    .split_once(' ')
                    .ok_or_else(|| self.err(ln, "missing type"))?;
                let ty = self.parse_ty(ln, ty_s)?;
                let [c, a, b] =
                    three(ops).ok_or_else(|| self.err(ln, "select needs three operands"))?;
                let c = self.parse_value(ln, c, Some(Ty::I1))?;
                let a = self.parse_value(ln, a, Some(ty))?;
                let b = self.parse_value(ln, b, Some(ty))?;
                Ok((InstData::new(Op::Select, vec![c, a, b], ty), true))
            }
            "alloca" => {
                let size: u32 = rest
                    .parse()
                    .map_err(|_| self.err(ln, "alloca needs a size"))?;
                Ok((InstData::new(Op::Alloca(size), vec![], Ty::Ptr), true))
            }
            "load" => {
                let (ty_s, ptr_s) = rest
                    .split_once(' ')
                    .ok_or_else(|| self.err(ln, "missing type"))?;
                let ty = self.parse_ty(ln, ty_s)?;
                let ptr = self.parse_value(ln, ptr_s, Some(Ty::Ptr))?;
                Ok((InstData::new(Op::Load, vec![ptr], ty), true))
            }
            "store" => {
                let (p, v) = rest
                    .split_once(',')
                    .ok_or_else(|| self.err(ln, "need two operands"))?;
                let ptr = self.parse_value(ln, p, Some(Ty::Ptr))?;
                let val = self.parse_value(ln, v, Some(Ty::I64))?;
                Ok((InstData::new(Op::Store, vec![ptr, val], Ty::Void), false))
            }
            "gep" => {
                let (p, i) = rest
                    .split_once(',')
                    .ok_or_else(|| self.err(ln, "need two operands"))?;
                let base = self.parse_value(ln, p, Some(Ty::Ptr))?;
                let idx = self.parse_value(ln, i, Some(Ty::I64))?;
                Ok((InstData::new(Op::Gep, vec![base, idx], Ty::Ptr), true))
            }
            "call" => {
                // `call [ty] @name(args)`
                let (ty, rest) = if rest.starts_with('@') {
                    (Ty::Void, rest)
                } else {
                    let (ty_s, r) = rest
                        .split_once(' ')
                        .ok_or_else(|| self.err(ln, "malformed call"))?;
                    (self.parse_ty(ln, ty_s)?, r.trim())
                };
                let rest = rest
                    .strip_prefix('@')
                    .ok_or_else(|| self.err(ln, "call needs '@callee'"))?;
                let open = rest.find('(').ok_or_else(|| self.err(ln, "missing '('"))?;
                let close = rest.rfind(')').ok_or_else(|| self.err(ln, "missing ')'"))?;
                let callee = rest[..open].to_string();
                let mut args = Vec::new();
                for a in rest[open + 1..close]
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                {
                    args.push(self.parse_value(ln, a, Some(Ty::I64))?);
                }
                let defines = ty != Ty::Void;
                Ok((InstData::new(Op::Call(callee), args, ty), defines))
            }
            "phi" => {
                let (ty_s, rest) = rest
                    .split_once(' ')
                    .ok_or_else(|| self.err(ln, "missing type"))?;
                let ty = self.parse_ty(ln, ty_s)?;
                let mut blocks = Vec::new();
                let mut args = Vec::new();
                for (slot, edge) in rest.split("],").enumerate() {
                    let edge = edge.trim().trim_start_matches('[').trim_end_matches(']');
                    let (b, v) = edge
                        .split_once(':')
                        .ok_or_else(|| self.err(ln, "phi edge needs '[bb: value]'"))?;
                    blocks.push(self.parse_block_ref(ln, b)?);
                    let v = v.trim();
                    if v.starts_with('v') && !self.values.contains_key(v) {
                        // Forward reference (loop phi): placeholder now,
                        // patched in resolve_pending. InstId::MAX marks
                        // "the instruction being parsed".
                        args.push(ValueRef::Const(ty, 0));
                        self.pending.push((InstId(u32::MAX), slot, v, ln));
                    } else {
                        args.push(self.parse_value(ln, v, Some(ty))?);
                    }
                }
                let _ = func;
                Ok((InstData::new(Op::Phi(blocks), args, ty), true))
            }
            other => Err(self.err(ln, format!("unknown instruction '{other}'"))),
        }
    }

    fn resolve_pending(&mut self, func: &mut Function) -> Result<(), IrParseError> {
        for (inst, slot, name, ln) in std::mem::take(&mut self.pending) {
            let v =
                self.values.get(name).copied().ok_or_else(|| {
                    self.err(ln, format!("unresolved forward reference '{name}'"))
                })?;
            func.inst_mut(inst).args[slot] = v;
        }
        Ok(())
    }
}

/// Splits `s` at commas into exactly three trimmed parts.
fn three(s: &str) -> Option<[&str; 3]> {
    let mut parts = s.split(',').map(str::trim);
    let three = [parts.next()?, parts.next()?, parts.next()?];
    parts.next().is_none().then_some(three)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::function_to_string;
    use crate::verify::verify_function;

    fn roundtrip(text: &str) {
        let f = parse_function(text).unwrap_or_else(|e| panic!("{e}"));
        verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        let printed = function_to_string(&f);
        let f2 = parse_function(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(function_to_string(&f2), printed);
    }

    #[test]
    fn parses_simple_function() {
        let f = parse_function("fn @inc(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 1\n  ret v0\n}")
            .unwrap();
        assert_eq!(f.name, "inc");
        assert_eq!(f.params, vec![Ty::I64]);
        assert_eq!(f.live_inst_count(), 1);
    }

    #[test]
    fn roundtrips_arith_and_memory() {
        roundtrip(
            r"
fn @f(i64, i64) -> i64 {
bb0:
  v0 = alloca 4
  v1 = gep v0, p1
  store v1, p0
  v2 = load i64 v1
  v3 = mul i64 v2, 3
  v4 = sdiv i64 v3, p1
  ret v4
}",
        );
    }

    #[test]
    fn roundtrips_control_flow_with_phi() {
        roundtrip(
            r"
fn @max(i64, i64) -> i64 {
bb0:
  v0 = icmp sgt p0, p1
  condbr v0, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  v1 = phi i64 [bb1: p0], [bb2: p1]
  ret v1
}",
        );
    }

    #[test]
    fn roundtrips_loop_with_forward_phi_ref() {
        roundtrip(
            r"
fn @sum(i64) -> i64 {
bb0:
  br bb1
bb1:
  v0 = phi i64 [bb0: 0], [bb2: v2]
  v1 = phi i64 [bb0: 0], [bb2: v3]
  v4 = icmp slt v1, p0
  condbr v4, bb2, bb3
bb2:
  v2 = add i64 v0, v1
  v3 = add i64 v1, 1
  br bb1
bb3:
  ret v0
}",
        );
    }

    #[test]
    fn roundtrips_calls() {
        roundtrip(
            r"
fn @f(i64) -> i64 {
bb0:
  call @print(p0)
  v0 = call i64 @m.helper(p0, 7)
  ret v0
}",
        );
    }

    #[test]
    fn roundtrips_select_and_bools() {
        roundtrip(
            r"
fn @f(i1) -> i64 {
bb0:
  v0 = xor i1 p0, true
  v1 = select i64 v0, 10, 20
  ret v1
}",
        );
    }

    #[test]
    fn rejects_unknown_value() {
        let err = parse_function("fn @f() -> i64 {\nbb0:\n  ret v9\n}").unwrap_err();
        assert!(err.message.contains("unknown value"), "{err}");
    }

    #[test]
    fn rejects_unknown_block() {
        let err = parse_function("fn @f() {\nbb0:\n  br bb7\n}").unwrap_err();
        assert!(err.message.contains("unknown block"), "{err}");
    }

    #[test]
    fn rejects_duplicate_value_name() {
        let err = parse_function(
            "fn @f() -> i64 {\nbb0:\n  v0 = add i64 1, 1\n  v0 = add i64 2, 2\n  ret v0\n}",
        )
        .unwrap_err();
        assert!(err.message.contains("redefinition"), "{err}");
    }

    #[test]
    fn rejects_missing_close_brace() {
        let err = parse_function("fn @f() {\nbb0:\n  ret").unwrap_err();
        assert!(err.message.contains("closing"), "{err}");
    }

    #[test]
    fn trap_and_void_ret() {
        let f = parse_function("fn @f() {\nbb0:\n  trap\n}").unwrap();
        assert_eq!(f.block(crate::function::ENTRY).term, Terminator::Trap);
        let f = parse_function("fn @f() {\nbb0:\n  ret\n}").unwrap();
        assert_eq!(f.block(crate::function::ENTRY).term, Terminator::Ret(None));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let f =
            parse_function("\n; a comment\nfn @f() -> i64 {\n\nbb0:\n  ; another\n  ret 4\n}\n")
                .unwrap();
        assert_eq!(f.name, "f");
    }
}
