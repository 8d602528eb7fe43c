//! Structural function fingerprints.
//!
//! A fingerprint is a 128-bit FNV-1a hash of a function's canonical textual
//! form with the name removed ([`crate::print::function_to_canonical_string`]),
//! hashed as the printer streams it: the text is never built.
//! Two functions with identical structure — regardless of arena history,
//! block numbering, or name — share a fingerprint. The stateful compiler keys
//! its pass-dormancy database on fingerprints, so the hash must be
//! deterministic across processes (which rules out `std`'s randomized
//! hashers).

use crate::function::Function;
use std::fmt;

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// A 128-bit structural hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Hashes raw bytes with FNV-1a/128.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let mut h = Fnv128(FNV128_OFFSET);
        h.update(bytes);
        Fingerprint(h.0)
    }

    /// Hashes a string.
    pub fn of_str(s: &str) -> Self {
        Self::of_bytes(s.as_bytes())
    }

    /// Combines two fingerprints order-dependently (for context hashes).
    pub fn combine(self, other: Fingerprint) -> Fingerprint {
        let mut h = self.0;
        for chunk in other.0.to_le_bytes() {
            h ^= chunk as u128;
            h = h.wrapping_mul(FNV128_PRIME);
        }
        Fingerprint(h)
    }

    /// The low 64 bits, for compact displays.
    pub fn short(self) -> u64 {
        self.0 as u64
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::LowerHex for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// FNV-1a/128 state, also a `fmt::Write` sink so the printer can stream
/// into it.
struct Fnv128(u128);

impl Fnv128 {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }
}

impl fmt::Write for Fnv128 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Computes the structural fingerprint of `func`.
///
/// The hash covers the signature and the canonically printed body but not
/// the function name, so the dormancy history of a renamed-but-unchanged
/// function remains valid.
pub fn fingerprint(func: &Function) -> Fingerprint {
    let mut h = Fnv128(FNV128_OFFSET);
    crate::print::write_function_impl(&mut h, func, None).expect("hashing cannot fail");
    Fingerprint(h.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FuncBuilder;
    use crate::inst::{BinKind, Ty, ValueRef};

    fn make(name: &str, k: BinKind) -> Function {
        let mut f = Function::new(name, vec![Ty::I64], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut f);
        let v = b.bin(k, ValueRef::Param(0), ValueRef::int(3));
        b.ret(Some(v));
        f
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            fingerprint(&make("a", BinKind::Add)),
            fingerprint(&make("a", BinKind::Add))
        );
    }

    #[test]
    fn name_independent() {
        assert_eq!(
            fingerprint(&make("a", BinKind::Add)),
            fingerprint(&make("b", BinKind::Add))
        );
    }

    #[test]
    fn structure_sensitive() {
        assert_ne!(
            fingerprint(&make("a", BinKind::Add)),
            fingerprint(&make("a", BinKind::Mul))
        );
    }

    #[test]
    fn arena_history_independent() {
        // Build the same function, once directly and once with a detached
        // leftover instruction; fingerprints must match.
        let clean = make("a", BinKind::Add);
        let mut dirty = Function::new("a", vec![Ty::I64], Some(Ty::I64));
        let mut b = FuncBuilder::at_entry(&mut dirty);
        let junk = b.bin(BinKind::Mul, ValueRef::Param(0), ValueRef::int(9));
        let v = b.bin(BinKind::Add, ValueRef::Param(0), ValueRef::int(3));
        b.ret(Some(v));
        dirty.detach_inst(junk.as_inst().unwrap());
        assert_eq!(fingerprint(&clean), fingerprint(&dirty));
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a 128 of the empty input is the offset basis.
        assert_eq!(Fingerprint::of_bytes(b"").0, FNV128_OFFSET);
        // Single byte 'a'.
        let a = Fingerprint::of_bytes(b"a");
        assert_ne!(a.0, FNV128_OFFSET);
        assert_eq!(a, Fingerprint::of_str("a"));
    }

    #[test]
    fn combine_is_order_dependent() {
        let x = Fingerprint::of_str("x");
        let y = Fingerprint::of_str("y");
        assert_ne!(x.combine(y), y.combine(x));
        assert_eq!(x.combine(y), x.combine(y));
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let s = Fingerprint(0xabc).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.ends_with("abc"));
    }
}
