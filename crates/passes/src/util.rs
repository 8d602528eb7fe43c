//! Shared helpers for transform passes.

use sfcc_ir::{BlockId, Function, InstId, Op, ValueRef};

/// Counts uses of every instruction result across the operands of attached
/// instructions, phi inputs, and terminator operands: `counts[id.0]` is the
/// count of instruction `id`.
pub fn use_counts(func: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; func.inst_arena_len()];
    for b in func.block_ids() {
        let block = func.block(b);
        for &iid in &block.insts {
            for arg in &func.inst(iid).args {
                if let ValueRef::Inst(d) = arg {
                    counts[d.0 as usize] += 1;
                }
            }
        }
        if let Some(ValueRef::Inst(d)) = block.term.operand() {
            counts[d.0 as usize] += 1;
        }
    }
    counts
}

/// Whether `inst` may be deleted when its result is unused.
///
/// Side-effecting instructions (stores, calls) are never removable. Trapping
/// but otherwise pure instructions (`sdiv`, out-of-bounds loads) *are*
/// removable: like C/LLVM, MiniC treats the trap conditions as undefined
/// behaviour, so eliminating a dead trapping instruction is allowed.
pub fn is_removable_when_dead(op: &Op) -> bool {
    !op.has_side_effects()
}

/// Returns `Some(log2(c))` when `c` is a power of two greater than 1.
pub fn power_of_two_shift(c: i64) -> Option<i64> {
    if c > 1 && (c & (c - 1)) == 0 {
        Some(c.trailing_zeros() as i64)
    } else {
        None
    }
}

/// Removes, in one sweep, every instruction in `dead` from its block.
/// Returns how many were detached.
pub fn detach_all(func: &mut Function, dead: &[InstId]) -> usize {
    if dead.is_empty() {
        return 0;
    }
    let mut is_dead = vec![false; func.inst_arena_len()];
    for &i in dead {
        is_dead[i.0 as usize] = true;
    }
    let mut removed = 0;
    for b in 0..func.block_count() as u32 {
        let block = func.block_mut(BlockId(b));
        let before = block.insts.len();
        block.insts.retain(|i| !is_dead[i.0 as usize]);
        removed += before - block.insts.len();
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_ir::{parse_function, BinKind};

    #[test]
    fn use_counts_cover_terminators() {
        let f = parse_function(
            "fn @f(i64) -> i64 {\nbb0:\n  v0 = add i64 p0, 1\n  v1 = add i64 v0, v0\n  ret v1\n}",
        )
        .unwrap();
        let counts = use_counts(&f);
        assert_eq!(counts, vec![2, 1]); // v0 used twice, v1 once (ret)
    }

    #[test]
    fn removability() {
        assert!(is_removable_when_dead(&Op::Bin(BinKind::Sdiv)));
        assert!(is_removable_when_dead(&Op::Load));
        assert!(!is_removable_when_dead(&Op::Store));
        assert!(!is_removable_when_dead(&Op::Call("f".into())));
    }

    #[test]
    fn power_of_two() {
        assert_eq!(power_of_two_shift(8), Some(3));
        assert_eq!(power_of_two_shift(1), None);
        assert_eq!(power_of_two_shift(6), None);
        assert_eq!(power_of_two_shift(-8), None);
        assert_eq!(power_of_two_shift(1 << 40), Some(40));
    }

    #[test]
    fn detach_all_sweeps() {
        let mut f = parse_function(
            "fn @f() -> i64 {\nbb0:\n  v0 = add i64 1, 1\n  v1 = add i64 2, 2\n  ret v1\n}",
        )
        .unwrap();
        let ids: Vec<InstId> = f.iter_insts().map(|(_, i)| i).collect();
        assert_eq!(detach_all(&mut f, &ids[..1]), 1);
        assert_eq!(f.live_inst_count(), 1);
        assert_eq!(detach_all(&mut f, &[]), 0);
    }
}
