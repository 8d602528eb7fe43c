//! On-disk persistence of the [`StateDb`].
//!
//! Format: `"SFCCST\0" + version + payload + fnv64(payload)`
//! ([`sfcc_codec::armor`]). The file is committed as the `state` entry of
//! the state directory's manifest (`sfcc::persist`). Any decoding problem —
//! truncation, corruption, version skew — degrades to a cold start rather
//! than an error the user sees, because losing dormancy state only costs
//! speed, never correctness.
//!
//! Versions: 2 added the per-slot outcome-history window; 3 dropped the
//! module build counter and the per-record last-build number, which no skip
//! decision or stamp read.

use crate::codec::{DecodeError, Reader, Writer};
use crate::records::{FunctionRecord, ModuleState, SlotRecord, StateDb};
use sfcc_ir::Fingerprint;
use std::collections::HashMap;

const MAGIC: &[u8; 7] = b"SFCCST\0";
/// Current format version; a file of any other version is rejected and the
/// compiler cold-starts.
pub const FORMAT_VERSION: u32 = 3;

/// Serializes the database to bytes.
pub fn to_bytes(db: &StateDb) -> Vec<u8> {
    sfcc_codec::armor(MAGIC, FORMAT_VERSION, |payload| {
        // Deterministic ordering: sort module and function names.
        let mut module_names: Vec<&String> = db.modules.keys().collect();
        module_names.sort();
        payload.usize(module_names.len());
        for name in module_names {
            let module = &db.modules[name];
            payload.str(name);
            payload.u128(module.pipeline_hash.0);
            let mut fn_names: Vec<&String> = module.functions.keys().collect();
            fn_names.sort();
            payload.usize(fn_names.len());
            for fname in fn_names {
                write_function(payload, fname, &module.functions[fname]);
            }
        }
    })
}

fn write_function(payload: &mut Writer, name: &str, rec: &FunctionRecord) {
    payload.str(name);
    payload.u128(rec.fingerprint.0);
    payload.u128(rec.exit_fingerprint.0);
    payload.usize(rec.slots.len());
    for slot in &rec.slots {
        payload.u8(slot.dormant as u8);
        payload.u32(slot.dormant_streak);
        payload.u32(slot.times_skipped);
        payload.u8(slot.history);
        payload.u8(slot.observations);
    }
}

/// Deserializes a database from bytes.
///
/// # Errors
///
/// Returns a [`DecodeError`] on any malformed input; callers should treat
/// that as a cold start.
pub fn from_bytes(bytes: &[u8]) -> Result<StateDb, DecodeError> {
    sfcc_codec::unarmor(bytes, MAGIC, FORMAT_VERSION, |r| {
        let mut modules = HashMap::new();
        for _ in 0..r.count()? {
            let name = r.str()?;
            let pipeline_hash = Fingerprint(r.u128()?);
            let mut functions = HashMap::new();
            for _ in 0..r.count()? {
                let fname = r.str()?;
                functions.insert(fname, read_function(r)?);
            }
            modules.insert(
                name,
                ModuleState {
                    pipeline_hash,
                    functions,
                },
            );
        }
        Ok(StateDb { modules })
    })
}

fn read_function(r: &mut Reader<'_>) -> Result<FunctionRecord, DecodeError> {
    let fingerprint = Fingerprint(r.u128()?);
    let exit_fingerprint = Fingerprint(r.u128()?);
    let slot_count = r.count()?;
    let mut slots = Vec::with_capacity(slot_count);
    for _ in 0..slot_count {
        slots.push(SlotRecord {
            dormant: r.u8()? != 0,
            dormant_streak: r.u32()?,
            times_skipped: r.u32()?,
            history: r.u8()?,
            observations: r.u8()?,
        });
    }
    Ok(FunctionRecord {
        fingerprint,
        exit_fingerprint,
        slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_db() -> StateDb {
        let mut db = StateDb::new();
        let mut functions = HashMap::new();
        functions.insert(
            "f".to_string(),
            FunctionRecord {
                fingerprint: Fingerprint(42),
                exit_fingerprint: Fingerprint(43),
                slots: vec![
                    SlotRecord {
                        dormant: true,
                        dormant_streak: 3,
                        times_skipped: 1,
                        history: 0b0111,
                        observations: 4,
                    },
                    SlotRecord {
                        dormant: false,
                        dormant_streak: 0,
                        times_skipped: 0,
                        history: 0,
                        observations: 1,
                    },
                ],
            },
        );
        db.modules.insert(
            "m".to_string(),
            ModuleState {
                pipeline_hash: Fingerprint(11),
                functions,
            },
        );
        db
    }

    #[test]
    fn roundtrip() {
        let db = sample_db();
        let bytes = to_bytes(&db);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn empty_db_roundtrips() {
        let db = StateDb::new();
        assert_eq!(from_bytes(&to_bytes(&db)).unwrap(), db);
    }

    #[test]
    fn serialization_is_deterministic() {
        let db = sample_db();
        assert_eq!(to_bytes(&db), to_bytes(&db));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&sample_db());
        bytes[0] = b'X';
        assert_eq!(from_bytes(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = to_bytes(&sample_db());
        bytes[7] = 99; // version varint
        assert_eq!(from_bytes(&bytes), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn flipped_payload_byte_detected() {
        let mut bytes = to_bytes(&sample_db());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_detected() {
        let bytes = to_bytes(&sample_db());
        for cut in [bytes.len() - 1, bytes.len() / 2, 8] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} not detected"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            streaks in proptest::collection::vec((any::<bool>(), 0u32..100, 0u32..100), 0..30),
            fp in any::<u128>(),
        ) {
            let mut db = StateDb::new();
            let mut functions = HashMap::new();
            functions.insert("f".to_string(), FunctionRecord {
                fingerprint: Fingerprint(fp),
                exit_fingerprint: Fingerprint(fp ^ 1),
                slots: streaks.iter().map(|&(d, s, k)| SlotRecord {
                    dormant: d,
                    dormant_streak: s,
                    times_skipped: k,
                    history: (s % 251) as u8,
                    observations: (k % 9) as u8,
                }).collect(),
            });
            db.modules.insert("m".to_string(), ModuleState {
                pipeline_hash: Fingerprint(fp ^ 2),
                functions,
            });
            prop_assert_eq!(from_bytes(&to_bytes(&db)).unwrap(), db);
        }
    }
}
