//! # sfcc-ir
//!
//! The SSA intermediate representation of the `sfcc` stateful compiler:
//! instructions, functions, CFG/dominance/loop analyses, a verifier, a
//! canonical printer with a matching parser, structural fingerprints, and
//! AST → IR lowering.
//!
//! # Examples
//!
//! Build a function programmatically and fingerprint it:
//!
//! ```
//! use sfcc_ir::{Function, FuncBuilder, Ty, ValueRef, BinKind, fingerprint};
//!
//! let mut f = Function::new("inc", vec![Ty::I64], Some(Ty::I64));
//! let mut b = FuncBuilder::at_entry(&mut f);
//! let v = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::int(1));
//! b.ret(Some(v));
//!
//! sfcc_ir::verify_function(&f)?;
//! let fp = fingerprint(&f);
//! assert_eq!(fp, fingerprint(&f));
//! # Ok::<(), sfcc_ir::VerifyError>(())
//! ```
//!
//! Or parse the textual form:
//!
//! ```
//! let f = sfcc_ir::parse_function(r"
//! fn @inc(i64) -> i64 {
//! bb0:
//!   v0 = add i64 p0, 1
//!   ret v0
//! }
//! ").unwrap();
//! assert_eq!(f.live_inst_count(), 1);
//! ```

pub mod cfg;
pub mod dom;
pub mod fingerprint;
pub mod function;
pub mod inst;
pub mod loops;
pub mod lower;
pub mod parse;
pub mod print;
pub mod snapshot;
pub mod verify;

pub use cfg::{post_order, reverse_post_order, Predecessors, Reachability};
pub use dom::DomTree;
pub use fingerprint::{fingerprint, Fingerprint};
pub use function::{BlockData, FuncBuilder, Function, Module, ENTRY};
pub use inst::{
    BinKind, BlockId, IcmpPred, IdHasher, IdMap, IdSet, InstData, InstId, Op, Terminator, Ty,
    ValueRef,
};
pub use loops::{Loop, LoopForest};
pub use lower::{lower_function_def, lower_module};
pub use parse::{parse_function, IrParseError};
pub use print::{function_to_string, module_to_string};
pub use snapshot::ModuleSnapshot;
pub use verify::{verify_function, verify_module, VerifyError};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Generates small random (but well-formed) straight-line functions.
    fn arb_function() -> impl Strategy<Value = Function> {
        // A sequence of binary ops over previously defined values.
        let op = prop_oneof![
            Just(BinKind::Add),
            Just(BinKind::Sub),
            Just(BinKind::Mul),
            Just(BinKind::And),
            Just(BinKind::Or),
            Just(BinKind::Xor),
            Just(BinKind::Shl),
            Just(BinKind::Ashr),
        ];
        proptest::collection::vec((op, 0usize..8, 0usize..8, -100i64..100), 1..20).prop_map(
            |steps| {
                let mut f = Function::new("p", vec![Ty::I64, Ty::I64], Some(Ty::I64));
                let mut b = FuncBuilder::at_entry(&mut f);
                let mut defined: Vec<ValueRef> = vec![ValueRef::Param(0), ValueRef::Param(1)];
                for (kind, l, r, c) in steps {
                    let lhs = defined[l % defined.len()];
                    let rhs = if r % 3 == 0 {
                        ValueRef::int(c)
                    } else {
                        defined[r % defined.len()]
                    };
                    let v = b.bin(kind, lhs, rhs);
                    defined.push(v);
                }
                let last = *defined.last().expect("at least params");
                b.ret(Some(last));
                f
            },
        )
    }

    proptest! {
        /// Printed text parses back to a function that prints identically.
        #[test]
        fn print_parse_roundtrip(f in arb_function()) {
            verify_function(&f).unwrap();
            let text = function_to_string(&f);
            let parsed = parse_function(&text).unwrap();
            verify_function(&parsed).unwrap();
            prop_assert_eq!(function_to_string(&parsed), text);
        }

        /// Fingerprints survive the print/parse roundtrip.
        #[test]
        fn fingerprint_stable_across_roundtrip(f in arb_function()) {
            let text = function_to_string(&f);
            let parsed = parse_function(&text).unwrap();
            prop_assert_eq!(fingerprint(&f), fingerprint(&parsed));
        }

        /// The streamed fingerprint hashes exactly the canonical text.
        #[test]
        fn fingerprint_hashes_the_canonical_text(f in arb_function()) {
            let text = print::function_to_canonical_string(&f);
            prop_assert_eq!(fingerprint(&f), Fingerprint::of_str(&text));
        }

        /// Dominator facts: entry dominates every reachable block.
        #[test]
        fn entry_dominates_everything(f in arb_function()) {
            let dom = DomTree::compute(&f);
            for b in f.block_ids() {
                if dom.is_reachable(b) {
                    prop_assert!(dom.dominates(ENTRY, b));
                }
            }
        }
    }

    proptest! {
        /// The IR text parser never panics, whatever the input.
        #[test]
        fn ir_parser_never_panics(src in ".{0,300}") {
            let _ = parse_function(&src);
        }

        /// Same for inputs biased toward the IR grammar's alphabet.
        #[test]
        fn ir_parser_never_panics_on_grammarish_text(
            src in "[a-z0-9@ \\t\\nbv:p,\\->(){}\\[\\]=]{0,300}"
        ) {
            let _ = parse_function(&src);
        }
    }
}
