//! Shape tests: inputs on which a pass that costs more than O(live IR) per
//! run — a rescan per fold, a CFG recompute per merge, a full analysis per
//! hoisting loop — takes minutes instead of milliseconds. Each test asserts
//! the pass's result, so a quadratic pass fails by timing out and a wrong
//! one fails outright.

use sfcc_ir::{
    verify_function, BinKind, BlockId, FuncBuilder, Function, IcmpPred, ModuleSnapshot, Op,
    Reachability, Terminator, Ty, ValueRef, ENTRY,
};
use sfcc_passes::{constfold::ConstFold, licm::Licm, simplify_cfg::SimplifyCfg, Pass};

fn run(pass: &dyn Pass, f: &mut Function) -> bool {
    let changed = pass.run(f, &ModuleSnapshot::empty("shapes"));
    verify_function(f).unwrap_or_else(|e| panic!("{} broke the IR: {e}", pass.name()));
    changed
}

/// `v0 = add 1, 1; v1 = add v0, 1; …` — 20 000 levels of constants.
#[test]
fn const_fold_collapses_a_deep_chain_to_one_constant() {
    const DEPTH: i64 = 20_000;
    let mut f = Function::new("chain", vec![], Some(Ty::I64));
    let mut b = FuncBuilder::at_entry(&mut f);
    let mut v = ValueRef::int(1);
    for _ in 0..DEPTH {
        v = b.bin(BinKind::Add, v, ValueRef::int(1));
    }
    b.ret(Some(v));
    assert!(run(&ConstFold, &mut f));
    assert_eq!(f.live_inst_count(), 0);
    assert_eq!(
        f.block(ENTRY).term,
        Terminator::Ret(Some(ValueRef::int(DEPTH + 1)))
    );
}

/// `bb0 → bb1 → … → bb5000`, each block a single-input phi of the previous
/// block's value plus one `add`.
#[test]
fn simplify_cfg_merges_a_long_straight_line_into_one_block() {
    const BLOCKS: usize = 5_000;
    let mut f = Function::new("line", vec![Ty::I64], Some(Ty::I64));
    let mut b = FuncBuilder::at_entry(&mut f);
    let mut v = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::int(1));
    let mut prev = ENTRY;
    for _ in 0..BLOCKS {
        let next = b.new_block();
        b.br(next);
        b.switch_to(next);
        let phi = b.phi(Ty::I64);
        b.add_phi_incoming(phi, prev, v);
        v = b.bin(BinKind::Add, phi, ValueRef::int(1));
        prev = next;
    }
    b.ret(Some(v));
    assert!(run(&SimplifyCfg, &mut f));
    assert_eq!(Reachability::compute(&f).count(), 1);
    let entry = f.block(ENTRY);
    assert_eq!(
        entry.insts.len(),
        BLOCKS + 1,
        "the phis are gone, the adds stay"
    );
    assert!(entry
        .insts
        .iter()
        .all(|&i| f.inst(i).op == Op::Bin(BinKind::Add)));
    assert!(matches!(entry.term, Terminator::Ret(Some(_))));
}

/// 500 loops one after another, each body computing `p1 * 7` afresh.
#[test]
fn licm_hoists_the_body_of_every_sibling_loop() {
    const LOOPS: usize = 500;
    let mut f = Function::new("siblings", vec![Ty::I64, Ty::I64], Some(Ty::I64));
    let mut b = FuncBuilder::at_entry(&mut f);
    let mut preheader = ENTRY;
    let mut bodies: Vec<(BlockId, BlockId)> = Vec::new();
    for _ in 0..LOOPS {
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Ty::I64);
        let more = b.icmp(IcmpPred::Slt, i, ValueRef::Param(0));
        b.cond_br(more, body, exit);
        b.switch_to(body);
        let step = b.bin(BinKind::Mul, ValueRef::Param(1), ValueRef::int(7));
        let next = b.bin(BinKind::Add, i, step);
        b.br(header);
        b.add_phi_incoming(i, preheader, ValueRef::int(0));
        b.add_phi_incoming(i, body, next);
        b.switch_to(exit);
        bodies.push((preheader, body));
        preheader = exit;
    }
    b.ret(Some(ValueRef::int(0)));
    verify_function(&f).unwrap();
    assert!(run(&Licm, &mut f));
    for (preheader, body) in bodies {
        let hoisted = f.block(preheader).insts.last().copied();
        assert!(
            hoisted.is_some_and(|h| f.inst(h).op == Op::Bin(BinKind::Mul)),
            "{preheader} should end with the hoisted mul"
        );
        assert_eq!(f.block(body).insts.len(), 1, "{body} keeps only its add");
    }
}
