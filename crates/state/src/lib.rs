//! # sfcc-state
//!
//! The statefulness layer of the `sfcc` compiler — the primary contribution
//! of *"Enabling Fine-Grained Incremental Builds by Making Compiler
//! Stateful"* (CGO 2024):
//!
//! * [`StateDb`] — per-(function, pass-slot) dormancy records retained
//!   across builds, with streak tracking and garbage collection;
//! * [`SkipPolicy`] / [`DbOracle`] — turning history into skip decisions
//!   for the pass manager;
//! * [`statefile`] — a versioned, checksummed binary state file with
//!   cold-start fallback on any corruption;
//! * [`stats`] — dormancy-rate and stability aggregation for the
//!   evaluation harness.
//!
//! # Examples
//!
//! ```
//! use sfcc_state::{StateDb, SkipPolicy, DbOracle, statefile};
//! use sfcc_passes::SkipOracle;
//!
//! let db = StateDb::new(); // cold start: nothing is ever skipped
//! let oracle = DbOracle::new(&db, SkipPolicy::PreviousBuild);
//! let query = sfcc_passes::PassQuery {
//!     module: "m",
//!     function: "f",
//!     entry_fingerprint: sfcc_ir::Fingerprint(0),
//!     pass: "dce",
//!     slot: 4,
//! };
//! assert!(!oracle.should_skip(&query));
//!
//! // Round-trip through the on-disk format.
//! let bytes = statefile::to_bytes(&db);
//! assert_eq!(statefile::from_bytes(&bytes).unwrap(), db);
//! ```

pub mod codec;
pub mod policy;
pub mod records;
pub mod statefile;
pub mod stats;

pub use codec::DecodeError;
pub use policy::{DbOracle, SkipPolicy};
pub use records::{FunctionRecord, ModuleState, SlotRecord, StateDb};
pub use stats::{DormancyProfile, PassDormancy, StabilityTracker};

#[cfg(test)]
mod integration {
    use super::*;
    use sfcc_ir::Fingerprint;
    use sfcc_passes::{
        FunctionTrace, PassOutcome, PassQuery, PassRecord, PipelineTrace, SkipOracle,
    };

    fn trace(func: &str, outcomes: &[PassOutcome]) -> PipelineTrace {
        PipelineTrace {
            module: "m".into(),
            functions: vec![FunctionTrace {
                function: func.into(),
                entry_fingerprint: Fingerprint(1),
                exit_fingerprint: Fingerprint(2),
                records: outcomes
                    .iter()
                    .enumerate()
                    .map(|(slot, &outcome)| PassRecord {
                        pass: format!("pass{slot}"),
                        slot,
                        outcome,
                        nanos: 1,
                        cost_units: 1,
                    })
                    .collect(),
            }],
            snapshot_clones: 0,
            snapshot_cost_units: 0,
            snapshot_reused: 0,
            batch_count: 0,
            batch_max_cost: 0,
            snapshot_wall_ns: 0,
        }
    }

    #[test]
    fn record_then_skip_then_persist() {
        let hash = StateDb::pipeline_hash(&["pass0", "pass1"]);
        let mut db = StateDb::new();
        db.ingest(
            &trace("f", &[PassOutcome::Dormant, PassOutcome::Active]),
            hash,
        );

        // The oracle now advises skipping slot 0 but not slot 1.
        let oracle = DbOracle::new(&db, SkipPolicy::PreviousBuild);
        let q0 = PassQuery {
            module: "m",
            function: "f",
            entry_fingerprint: Fingerprint(1),
            pass: "pass0",
            slot: 0,
        };
        let q1 = PassQuery {
            slot: 1,
            pass: "pass1",
            ..q0
        };
        assert!(oracle.should_skip(&q0));
        assert!(!oracle.should_skip(&q1));

        // Ingest the skipped build and survive a disk round-trip.
        db.ingest(
            &trace("f", &[PassOutcome::Skipped, PassOutcome::Active]),
            hash,
        );
        let back = statefile::from_bytes(&statefile::to_bytes(&db)).unwrap();
        assert_eq!(back, db);
        assert_eq!(
            back.module("m").unwrap().functions["f"].slots[0].times_skipped,
            1
        );
    }
}
