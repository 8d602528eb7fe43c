//! Skip policies: how dormancy history turns into skip decisions.
//!
//! [`DbOracle`] implements the pass manager's [`SkipOracle`] against a
//! [`StateDb`], under a configurable [`SkipPolicy`]. The paper's design
//! point is [`SkipPolicy::PreviousBuild`]; the others exist for the
//! ablation study (experiment E10), whose never-skip baseline is a
//! stateless session, which builds no oracle.

use crate::records::StateDb;
use sfcc_ir::Fingerprint;
use sfcc_passes::{PassQuery, SkipOracle};

/// Which dormant passes may be skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkipPolicy {
    /// Skip a pass that was dormant in the previous build (the paper's
    /// design point).
    PreviousBuild,
    /// Skip a pass only after it has been dormant `k` builds in a row —
    /// a more conservative bet.
    Consecutive(u32),
    /// Skip a pass that was dormant in a strict majority of the last
    /// `window` observed builds (window capped at 8) — tolerant of one-off
    /// activity, unlike the streak policies.
    MajorityDormant(u8),
    /// Skip every pass with *any* record (upper bound on time savings; used
    /// only to bound the ablation, not a correct design).
    AlwaysSkipKnown,
}

impl SkipPolicy {
    /// A short stable label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            SkipPolicy::PreviousBuild => "prev-build".to_string(),
            SkipPolicy::Consecutive(k) => format!("consec-{k}"),
            SkipPolicy::MajorityDormant(w) => format!("majority-{w}"),
            SkipPolicy::AlwaysSkipKnown => "always".to_string(),
        }
    }
}

/// A [`SkipOracle`] backed by a [`StateDb`].
///
/// Holds the database by reference for the duration of one compilation; the
/// driver ingests the resulting trace afterwards.
#[derive(Debug)]
pub struct DbOracle<'a> {
    db: &'a StateDb,
    /// Hash of the pipeline being run: a module recorded under another
    /// pipeline has records for other passes at the same slots.
    pipeline: Fingerprint,
    policy: SkipPolicy,
}

impl<'a> DbOracle<'a> {
    /// Creates an oracle over `db` for the pipeline whose
    /// [`StateDb::pipeline_hash`] is `pipeline`, with `policy`.
    pub fn new(db: &'a StateDb, pipeline: Fingerprint, policy: SkipPolicy) -> Self {
        DbOracle {
            db,
            pipeline,
            policy,
        }
    }
}

impl<'a> SkipOracle for DbOracle<'a> {
    fn should_skip(&self, query: &PassQuery<'_>) -> bool {
        let Some(module) = self
            .db
            .module(query.module)
            .filter(|module| module.pipeline_hash == self.pipeline)
        else {
            return false;
        };
        let Some(record) = module.functions.get(query.function) else {
            return false;
        };
        if query.slot >= record.slots.len() {
            return false; // pipeline grew; unknown slot must run
        }
        match self.policy {
            SkipPolicy::PreviousBuild => record.is_dormant(query.slot),
            SkipPolicy::Consecutive(k) => {
                record.is_dormant(query.slot) && record.streak(query.slot) >= k
            }
            SkipPolicy::MajorityDormant(window) => {
                let slot = record.slots[query.slot];
                let n = slot.window_len(window);
                n > 0 && slot.dormant_in_window(window) * 2 > n as u32
            }
            SkipPolicy::AlwaysSkipKnown => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_passes::{FunctionTrace, PassOutcome, PassRecord, PipelineTrace};

    fn db_with(outcome_rounds: &[&[PassOutcome]]) -> StateDb {
        let mut db = StateDb::new();
        for outcomes in outcome_rounds {
            let trace = PipelineTrace {
                module: "m".into(),
                functions: vec![FunctionTrace {
                    function: "f".into(),
                    entry_fingerprint: Fingerprint(1),
                    exit_fingerprint: Fingerprint(1),
                    records: outcomes
                        .iter()
                        .enumerate()
                        .map(|(slot, &outcome)| PassRecord {
                            pass: format!("p{slot}"),
                            slot,
                            outcome,
                            nanos: 0,
                            cost_units: 0,
                        })
                        .collect(),
                }],
                snapshot_clones: 0,
                snapshot_cost_units: 0,
                snapshot_reused: 0,
                batch_count: 0,
                batch_max_cost: 0,
                snapshot_wall_ns: 0,
            };
            db.ingest(&trace, Fingerprint(9));
        }
        db
    }

    fn query<'a>(slot: usize) -> PassQuery<'a> {
        PassQuery {
            module: "m",
            function: "f",
            entry_fingerprint: Fingerprint(1),
            pass: "p",
            slot,
        }
    }

    #[test]
    fn previous_build_skips_dormant_only() {
        let db = db_with(&[&[PassOutcome::Dormant, PassOutcome::Active]]);
        let oracle = DbOracle::new(&db, Fingerprint(9), SkipPolicy::PreviousBuild);
        assert!(oracle.should_skip(&query(0)));
        assert!(!oracle.should_skip(&query(1)));
    }

    #[test]
    fn consecutive_policy_requires_streak() {
        let one = db_with(&[&[PassOutcome::Dormant]]);
        let oracle = DbOracle::new(&one, Fingerprint(9), SkipPolicy::Consecutive(2));
        assert!(!oracle.should_skip(&query(0)));

        let two = db_with(&[&[PassOutcome::Dormant], &[PassOutcome::Dormant]]);
        let oracle = DbOracle::new(&two, Fingerprint(9), SkipPolicy::Consecutive(2));
        assert!(oracle.should_skip(&query(0)));
    }

    #[test]
    fn unknown_function_never_skips() {
        let db = db_with(&[&[PassOutcome::Dormant]]);
        let oracle = DbOracle::new(&db, Fingerprint(9), SkipPolicy::PreviousBuild);
        let q = PassQuery {
            module: "m",
            function: "brand_new",
            entry_fingerprint: Fingerprint(5),
            pass: "p",
            slot: 0,
        };
        assert!(!oracle.should_skip(&q));
    }

    #[test]
    fn another_pipelines_records_never_skip() {
        let db = db_with(&[&[PassOutcome::Dormant]]);
        let oracle = DbOracle::new(&db, Fingerprint(8), SkipPolicy::AlwaysSkipKnown);
        assert!(!oracle.should_skip(&query(0)));
    }

    #[test]
    fn unknown_slot_never_skips() {
        let db = db_with(&[&[PassOutcome::Dormant]]);
        let oracle = DbOracle::new(&db, Fingerprint(9), SkipPolicy::PreviousBuild);
        assert!(!oracle.should_skip(&query(5)));
    }

    #[test]
    fn always_policy_skips_known_functions() {
        let db = db_with(&[&[PassOutcome::Active]]);
        let oracle = DbOracle::new(&db, Fingerprint(9), SkipPolicy::AlwaysSkipKnown);
        assert!(oracle.should_skip(&query(0)));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SkipPolicy::PreviousBuild.label(), "prev-build");
        assert_eq!(SkipPolicy::Consecutive(3).label(), "consec-3");
        assert_eq!(SkipPolicy::MajorityDormant(4).label(), "majority-4");
        assert_eq!(SkipPolicy::AlwaysSkipKnown.label(), "always");
    }

    #[test]
    fn majority_policy_tolerates_one_off_activity() {
        // D D A D: 3 of 4 dormant — majority-4 skips, prev-build also skips
        // (last was dormant), but consec-2 does not (streak reset by A).
        let db = db_with(&[
            &[PassOutcome::Dormant],
            &[PassOutcome::Dormant],
            &[PassOutcome::Active],
            &[PassOutcome::Dormant],
        ]);
        assert!(
            DbOracle::new(&db, Fingerprint(9), SkipPolicy::MajorityDormant(4))
                .should_skip(&query(0))
        );
        assert!(
            !DbOracle::new(&db, Fingerprint(9), SkipPolicy::Consecutive(2)).should_skip(&query(0))
        );
    }

    #[test]
    fn majority_policy_resists_mostly_active_slots() {
        // A A D: 1 of 3 dormant — last outcome dormant, so prev-build would
        // skip, but majority-4 (3 observed) does not.
        let db = db_with(&[
            &[PassOutcome::Active],
            &[PassOutcome::Active],
            &[PassOutcome::Dormant],
        ]);
        assert!(
            !DbOracle::new(&db, Fingerprint(9), SkipPolicy::MajorityDormant(4))
                .should_skip(&query(0))
        );
        assert!(
            DbOracle::new(&db, Fingerprint(9), SkipPolicy::PreviousBuild).should_skip(&query(0))
        );
    }

    #[test]
    fn majority_policy_with_no_observations_never_skips() {
        let db = StateDb::new();
        let oracle = DbOracle::new(&db, Fingerprint(9), SkipPolicy::MajorityDormant(4));
        assert!(!oracle.should_skip(&query(0)));
    }
}
