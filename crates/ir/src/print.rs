//! Canonical textual form of the IR.
//!
//! The printer renumbers blocks in reverse post-order and instructions in
//! traversal order, so two structurally identical functions print
//! identically regardless of arena history. It is the one canonical form:
//! function fingerprints ([`mod@crate::fingerprint`]) stream it into a hash
//! without building the text, so it writes names and integers straight into
//! its sink and allocates nothing per operand.

use crate::cfg::reverse_post_order;
use crate::function::{Function, Module};
use crate::inst::{BlockId, Op, Terminator, Ty, ValueRef};
use std::fmt::{self, Write};

/// Renders a whole module.
pub fn module_to_string(module: &Module) -> String {
    let mut s = String::new();
    write_module(&mut s, module).expect("fmt to String cannot fail");
    s
}

/// Renders one function.
pub fn function_to_string(func: &Function) -> String {
    let mut s = String::new();
    write_function(&mut s, func).expect("fmt to String cannot fail");
    s
}

/// Renders the function body with the name replaced by `@`, producing the
/// exact text hashed by [`crate::fingerprint::fingerprint`].
pub fn function_to_canonical_string(func: &Function) -> String {
    let mut s = String::new();
    write_function_impl(&mut s, func, None).expect("fmt to String cannot fail");
    s
}

/// Writes a module to a formatter; used by its `Display` impl.
pub fn write_module(w: &mut impl Write, module: &Module) -> fmt::Result {
    writeln!(w, "module {} {{", module.name)?;
    for (i, f) in module.functions.iter().enumerate() {
        if i > 0 {
            writeln!(w)?;
        }
        write_function(w, f)?;
    }
    writeln!(w, "}}")
}

/// Writes a function to a formatter or any other `fmt::Write` sink; used by
/// its `Display` impl.
pub fn write_function(w: &mut impl Write, func: &Function) -> fmt::Result {
    write_function_impl(w, func, Some(&func.name))
}

/// Writes `func` with `name` after its `@`, or with no name: the canonical
/// form fingerprints hash.
pub(crate) fn write_function_impl(
    w: &mut impl Write,
    func: &Function,
    name: Option<&str>,
) -> fmt::Result {
    write_all(w, &["fn @", name.unwrap_or(""), "("])?;
    for (i, p) in func.params.iter().enumerate() {
        if i > 0 {
            w.write_str(", ")?;
        }
        w.write_str(p.as_str())?;
    }
    w.write_char(')')?;
    if let Some(rt) = func.ret {
        write_all(w, &[" -> ", rt.as_str()])?;
    }
    w.write_str(" {\n")?;

    let rpo = reverse_post_order(func);
    let names = Names::number(func, &rpo);
    let mut edges: Vec<(Token, Token)> = Vec::new();
    for &bid in &rpo {
        names.block(w, bid)?;
        w.write_str(":\n")?;
        for &iid in &func.block(bid).insts {
            let inst = func.inst(iid);
            let (ty, args) = (inst.ty.as_str(), inst.args.as_slice());
            w.write_str("  ")?;
            if inst.ty != Ty::Void {
                names.value(w, ValueRef::Inst(iid))?;
                w.write_str(" = ")?;
            }
            match &inst.op {
                Op::Bin(k) => {
                    write_all(w, &[k.mnemonic(), " ", ty, " "])?;
                    names.list(w, &args[..2])?;
                }
                Op::Icmp(p) => {
                    write_all(w, &["icmp ", p.mnemonic(), " "])?;
                    names.list(w, &args[..2])?;
                }
                Op::Select => {
                    write_all(w, &["select ", ty, " "])?;
                    names.list(w, &args[..3])?;
                }
                Op::Alloca(size) => {
                    w.write_str("alloca ")?;
                    write_decimal(w, u64::from(*size))?;
                }
                Op::Load => {
                    write_all(w, &["load ", ty, " "])?;
                    names.value(w, args[0])?;
                }
                Op::Store => {
                    w.write_str("store ")?;
                    names.list(w, &args[..2])?;
                }
                Op::Gep => {
                    w.write_str("gep ")?;
                    names.list(w, &args[..2])?;
                }
                Op::Call(callee) => {
                    w.write_str("call")?;
                    if inst.ty != Ty::Void {
                        write_all(w, &[" ", ty])?;
                    }
                    write_all(w, &[" @", callee, "("])?;
                    names.list(w, args)?;
                    w.write_char(')')?;
                }
                Op::Phi(blocks) => {
                    write_all(w, &["phi ", ty, " "])?;
                    // Canonical order: incoming edges sorted by their printed
                    // text, block first (`bb10` before `bb2`), so predecessor
                    // order does not affect the text. Every persisted
                    // fingerprint hashes this order.
                    edges.clear();
                    for (&b, &v) in blocks.iter().zip(args) {
                        let (mut bt, mut vt) = (Token::default(), Token::default());
                        names.block(&mut bt, b)?;
                        names.value(&mut vt, v)?;
                        edges.push((bt, vt));
                    }
                    edges.sort_unstable_by(|x, y| {
                        (x.0.text(), x.1.text()).cmp(&(y.0.text(), y.1.text()))
                    });
                    for (i, (b, v)) in edges.iter().enumerate() {
                        let open = if i > 0 { ", [" } else { "[" };
                        write_all(w, &[open, b.text(), ": ", v.text(), "]"])?;
                    }
                }
            }
            w.write_char('\n')?;
        }
        match &func.block(bid).term {
            Terminator::Br(t) => {
                w.write_str("  br ")?;
                names.block(w, *t)?;
            }
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                w.write_str("  condbr ")?;
                names.value(w, *cond)?;
                w.write_str(", ")?;
                names.block(w, *then_bb)?;
                w.write_str(", ")?;
                names.block(w, *else_bb)?;
            }
            Terminator::Ret(Some(v)) => {
                w.write_str("  ret ")?;
                names.value(w, *v)?;
            }
            Terminator::Ret(None) => w.write_str("  ret")?,
            Terminator::Trap => w.write_str("  trap")?,
        }
        w.write_char('\n')?;
    }
    w.write_str("}\n")
}

/// Marks a block outside the reverse post-order or a detached instruction;
/// those print by arena id (`bb?N`, `v?N`).
const UNNAMED: u32 = u32::MAX;

/// Printed numbers of blocks and values, indexed by arena id.
struct Names {
    blocks: Vec<u32>,
    insts: Vec<u32>,
}

impl Names {
    fn number(func: &Function, rpo: &[BlockId]) -> Self {
        let mut blocks = vec![UNNAMED; func.block_count()];
        for (i, &b) in rpo.iter().enumerate() {
            blocks[b.0 as usize] = i as u32;
        }
        let mut insts = vec![UNNAMED; func.inst_arena_len()];
        let mut next = 0;
        for &b in rpo {
            for &i in &func.block(b).insts {
                if func.inst(i).ty != Ty::Void {
                    insts[i.0 as usize] = next;
                    next += 1;
                }
            }
        }
        Names { blocks, insts }
    }

    fn block(&self, w: &mut impl Write, b: BlockId) -> fmt::Result {
        match named(&self.blocks, b.0) {
            Some(n) => write_numbered(w, "bb", n),
            None => write_numbered(w, "bb?", b.0),
        }
    }

    fn value(&self, w: &mut impl Write, v: ValueRef) -> fmt::Result {
        match v {
            ValueRef::Const(Ty::I1, 0) => w.write_str("false"),
            ValueRef::Const(Ty::I1, _) => w.write_str("true"),
            ValueRef::Const(_, c) => {
                if c < 0 {
                    w.write_char('-')?;
                }
                write_decimal(w, c.unsigned_abs())
            }
            ValueRef::Param(i) => write_numbered(w, "p", i),
            ValueRef::Inst(id) => match named(&self.insts, id.0) {
                Some(n) => write_numbered(w, "v", n),
                None => write_numbered(w, "v?", id.0),
            },
        }
    }

    /// Writes `args` separated by `, `.
    fn list(&self, w: &mut impl Write, args: &[ValueRef]) -> fmt::Result {
        for (i, &a) in args.iter().enumerate() {
            if i > 0 {
                w.write_str(", ")?;
            }
            self.value(w, a)?;
        }
        Ok(())
    }
}

fn named(table: &[u32], id: u32) -> Option<u32> {
    table.get(id as usize).copied().filter(|&n| n != UNNAMED)
}

fn write_all(w: &mut impl Write, parts: &[&str]) -> fmt::Result {
    parts.iter().try_for_each(|p| w.write_str(p))
}

fn write_numbered(w: &mut impl Write, prefix: &str, n: u32) -> fmt::Result {
    w.write_str(prefix)?;
    write_decimal(w, u64::from(n))
}

/// Writes `n` in decimal without going through `fmt::Arguments`.
fn write_decimal(w: &mut impl Write, mut n: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    w.write_str(std::str::from_utf8(&digits[at..]).map_err(|_| fmt::Error)?)
}

/// A printed block name or operand held on the stack, so phi edges sort by
/// their text without allocating. The longest, `-9223372036854775808`,
/// fills it.
#[derive(Clone, Copy, Default)]
struct Token {
    bytes: [u8; 20],
    len: usize,
}

impl Token {
    fn text(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).unwrap_or_default()
    }
}

impl Write for Token {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        let dst = self.bytes.get_mut(self.len..end).ok_or(fmt::Error)?;
        dst.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{FuncBuilder, ENTRY};
    use crate::inst::{BinKind, IcmpPred};

    fn sample() -> Function {
        let mut f = Function::new("clamp", vec![Ty::I64], Some(Ty::I64));
        let big = f.add_block();
        let done = f.add_block();
        let mut b = FuncBuilder::at_entry(&mut f);
        let c = b.icmp(IcmpPred::Sgt, ValueRef::Param(0), ValueRef::int(100));
        b.cond_br(c, big, done);
        b.switch_to(big);
        b.br(done);
        b.switch_to(done);
        let phi = b.phi(Ty::I64);
        b.add_phi_incoming(phi, ENTRY, ValueRef::Param(0));
        b.add_phi_incoming(phi, big, ValueRef::int(100));
        b.ret(Some(phi));
        f
    }

    #[test]
    fn prints_expected_shape() {
        let text = function_to_string(&sample());
        assert!(text.contains("fn @clamp(i64) -> i64 {"), "{text}");
        assert!(text.contains("icmp sgt p0, 100"), "{text}");
        assert!(text.contains("condbr v0, bb1, bb2"), "{text}");
        assert!(text.contains("phi i64 [bb0: p0], [bb1: 100]"), "{text}");
        assert!(text.contains("ret v1"), "{text}");
    }

    #[test]
    fn canonical_form_hides_name() {
        let a = function_to_canonical_string(&sample());
        let mut renamed = sample();
        renamed.name = "other".to_string();
        let b = function_to_canonical_string(&renamed);
        assert_eq!(a, b);
        assert!(a.starts_with("fn @(i64)"), "{a}");
    }

    #[test]
    fn renumbering_hides_tombstones() {
        let mut f = Function::new("t", vec![Ty::I64], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut f);
        let dead = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::int(1));
        let live = b.bin(BinKind::Mul, ValueRef::Param(0), ValueRef::int(2));
        b.ret(Some(live));
        let before = function_to_string(&f);
        assert!(before.contains("v1 = mul"), "{before}");

        f.detach_inst(dead.as_inst().unwrap());
        let after = function_to_string(&f);
        // After detaching, `mul` renumbers to v0.
        assert!(after.contains("v0 = mul"), "{after}");
        assert!(!after.contains("add"), "{after}");
    }

    #[test]
    fn void_instructions_have_no_result_name() {
        let mut f = Function::new("t", vec![Ty::I64], None);
        let mut b = FuncBuilder::at_entry(&mut f);
        b.call("print", vec![ValueRef::Param(0)], None);
        b.ret(None);
        let text = function_to_string(&f);
        assert!(text.contains("  call @print(p0)"), "{text}");
        assert!(!text.contains("= call"), "{text}");
    }

    #[test]
    fn module_display_wraps_functions() {
        let mut m = Module::new("demo");
        m.add_function(sample());
        let text = module_to_string(&m);
        assert!(text.starts_with("module demo {"), "{text}");
        assert!(text.trim_end().ends_with('}'), "{text}");
    }

    #[test]
    fn negative_constants_print_with_sign() {
        let mut f = Function::new("neg", vec![Ty::I64], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut f);
        let v = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::int(-1));
        let w = b.bin(BinKind::Mul, v, ValueRef::int(i64::MIN));
        b.ret(Some(w));
        assert_eq!(
            function_to_string(&f),
            "fn @neg(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, -1\n  \
             v1 = mul i64 v0, -9223372036854775808\n  ret v1\n}\n"
        );
    }

    #[test]
    fn phi_edges_sort_by_printed_text() {
        // Eleven arms plus the entry feed one phi, so block names reach two
        // digits: `bb10` sorts before `bb2`, as the persisted format has it.
        let mut f = Function::new("fan", vec![Ty::I1], Some(Ty::I64));
        let arms: Vec<BlockId> = (0..11).map(|_| f.add_block()).collect();
        let join = f.add_block();
        let mut b = FuncBuilder::at_entry(&mut f);
        b.cond_br(ValueRef::Param(0), arms[0], join);
        for (i, &arm) in arms.iter().enumerate() {
            b.switch_to(arm);
            match arms.get(i + 1) {
                Some(&next) => b.cond_br(ValueRef::Param(0), next, join),
                None => b.br(join),
            }
        }
        b.switch_to(join);
        let phi = b.phi(Ty::I64);
        b.add_phi_incoming(phi, ENTRY, ValueRef::int(0));
        for (i, &arm) in arms.iter().enumerate() {
            b.add_phi_incoming(phi, arm, ValueRef::int(i as i64 + 1));
        }
        b.ret(Some(phi));
        let text = function_to_string(&f);
        assert!(
            text.contains(
                "bb12:\n  v0 = phi i64 [bb0: 0], [bb1: 1], [bb10: 10], [bb11: 11], [bb2: 2], \
                 [bb3: 3], [bb4: 4], [bb5: 5], [bb6: 6], [bb7: 7], [bb8: 8], [bb9: 9]\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn detached_values_and_unreachable_blocks_print_arena_ids() {
        let mut f = Function::new("ghost", vec![Ty::I64], Some(Ty::I64));
        let dead = f.add_block();
        let exit = f.add_block();
        let mut b = FuncBuilder::at_entry(&mut f);
        let gone = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::int(1));
        let kept = b.bin(BinKind::Mul, gone, ValueRef::int(2));
        b.br(exit);
        b.switch_to(dead);
        b.br(exit);
        b.switch_to(exit);
        let phi = b.phi(Ty::I64);
        b.add_phi_incoming(phi, ENTRY, kept);
        b.add_phi_incoming(phi, dead, gone);
        b.ret(Some(phi));
        f.detach_inst(gone.as_inst().unwrap());
        assert_eq!(
            function_to_string(&f),
            "fn @ghost(i64) -> i64 {\nbb0:\n  v0 = mul i64 v?0, 2\n  br bb1\nbb1:\n  \
             v1 = phi i64 [bb0: v0], [bb?1: v?0]\n  ret v1\n}\n"
        );
    }

    #[test]
    fn void_calls_and_zero_parameter_functions() {
        let mut f = Function::new("tick", vec![], None);
        let mut b = FuncBuilder::at_entry(&mut f);
        b.call("print", vec![ValueRef::int(7)], None);
        let v = b.call("m.next", vec![], Some(Ty::I64));
        b.call("m.sink", vec![v, ValueRef::bool(true)], None);
        b.ret(None);
        let text = "fn @tick() {\nbb0:\n  call @print(7)\n  v0 = call i64 @m.next()\n  \
                    call @m.sink(v0, true)\n  ret\n}\n";
        assert_eq!(function_to_string(&f), text);
        assert_eq!(function_to_canonical_string(&f), text.replace("@tick", "@"));
    }

    #[test]
    fn bool_constants_print_as_keywords() {
        let mut f = Function::new("t", vec![], Some(Ty::I1));
        let mut b = FuncBuilder::at_entry(&mut f);
        let v = b.bin(BinKind::And, ValueRef::bool(true), ValueRef::bool(false));
        b.ret(Some(v));
        let text = function_to_string(&f);
        assert!(text.contains("and i1 true, false"), "{text}");
    }
}
