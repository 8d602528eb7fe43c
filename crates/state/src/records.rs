//! Dormancy records: what the stateful compiler remembers between builds.
//!
//! The paper's central data structure. For every function the compiler
//! keeps, per pipeline *slot* (pass position), whether the pass was active
//! or dormant in the previous build and how many consecutive builds it has
//! been dormant — enough to drive every skip policy in the evaluation.

use sfcc_codec::Fnv64;
use sfcc_ir::Fingerprint;
use sfcc_passes::{FunctionTrace, PassOutcome, PipelineTrace};
use std::collections::HashMap;

/// Per-(function, slot) dormancy state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotRecord {
    /// Outcome of the most recent *executed* run of this slot
    /// (`true` = dormant). Skipped slots keep their previous value — a skip
    /// is a bet that the pass is still dormant.
    pub dormant: bool,
    /// Number of consecutive builds (executed or skipped) this slot has been
    /// dormant; reset to zero when the pass fires.
    pub dormant_streak: u32,
    /// Total times this slot was skipped for this function (statistics).
    pub times_skipped: u32,
    /// Sliding window of the last up-to-8 builds' outcomes, newest in bit 0
    /// (`1` = dormant or skipped-as-dormant). Drives the majority policy.
    pub history: u8,
    /// How many builds have contributed to `history` (saturates at 8).
    pub observations: u8,
}

impl SlotRecord {
    /// Number of dormant outcomes among the last `window` observed builds.
    pub fn dormant_in_window(&self, window: u8) -> u32 {
        let n = window.min(self.observations).min(8);
        if n == 0 {
            return 0;
        }
        let mask = if n >= 8 { u8::MAX } else { (1u8 << n) - 1 };
        (self.history & mask).count_ones()
    }

    /// Builds actually observed within `window` (≤ 8).
    pub fn window_len(&self, window: u8) -> u8 {
        window.min(self.observations).min(8)
    }
}

/// What the compiler remembers about one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FunctionRecord {
    /// Structural fingerprint at pipeline entry in the recorded build.
    pub fingerprint: Fingerprint,
    /// Fingerprint after the pipeline (used to detect output changes).
    pub exit_fingerprint: Fingerprint,
    /// One record per pipeline slot.
    pub slots: Vec<SlotRecord>,
}

impl FunctionRecord {
    /// A deterministic stamp of this record's content: equal stamps mean
    /// the record would drive identical skip decisions for this one
    /// function. It reads nothing of the module or its siblings, so it is
    /// independent of the order in which sibling functions were
    /// re-optimized — the property the per-function
    /// `state:module::function` build input relies on.
    ///
    /// The value is FNV-64 of the text `{fp:x}/{exit:x}` followed by
    /// `|{dormant}{streak}s{skipped}h{history}o{observations}` per slot,
    /// streamed rather than formatted: every no-op build stamps every
    /// function.
    pub fn content_stamp(&self) -> u64 {
        let mut h = Fnv64::new();
        h.hex(self.fingerprint.0)
            .str("/")
            .hex(self.exit_fingerprint.0);
        for slot in &self.slots {
            h.str("|")
                .dec(u64::from(slot.dormant))
                .dec(slot.dormant_streak.into())
                .str("s")
                .dec(slot.times_skipped.into())
                .str("h")
                .dec(slot.history.into())
                .str("o")
                .dec(slot.observations.into());
        }
        h.finish()
    }

    /// Whether the slot at `index` is recorded dormant.
    pub fn is_dormant(&self, index: usize) -> bool {
        self.slots.get(index).is_some_and(|s| s.dormant)
    }

    /// The dormant streak of the slot at `index` (0 when unknown).
    pub fn streak(&self, index: usize) -> u32 {
        self.slots.get(index).map_or(0, |s| s.dormant_streak)
    }
}

/// Per-module dormancy state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModuleState {
    /// Hash of the pipeline's slot names; a mismatch invalidates the state.
    pub pipeline_hash: Fingerprint,
    /// Function name → record. Keyed by *name* so that an edited function
    /// inherits its predecessor's dormancy profile (the paper's transfer
    /// assumption: small edits rarely change which passes matter).
    pub functions: HashMap<String, FunctionRecord>,
}

/// The complete on-disk state: one entry per module.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StateDb {
    /// Module name → state.
    pub modules: HashMap<String, ModuleState>,
}

impl StateDb {
    /// Creates an empty database (a cold start).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total function records across all modules.
    pub fn function_count(&self) -> usize {
        self.modules.values().map(|m| m.functions.len()).sum()
    }

    /// Read access to a module's state.
    pub fn module(&self, name: &str) -> Option<&ModuleState> {
        self.modules.get(name)
    }

    /// Slots currently believed dormant, across all modules and functions
    /// (telemetry gauge for the metrics registry).
    pub fn dormant_slot_count(&self) -> u64 {
        self.modules
            .values()
            .flat_map(|m| m.functions.values())
            .flat_map(|f| f.slots.iter())
            .filter(|s| s.dormant)
            .count() as u64
    }

    /// Lifetime skip decisions recorded across all slots (telemetry gauge
    /// for the metrics registry).
    pub fn total_recorded_skips(&self) -> u64 {
        self.modules
            .values()
            .flat_map(|m| m.functions.values())
            .flat_map(|f| f.slots.iter())
            .map(|s| u64::from(s.times_skipped))
            .sum()
    }

    /// Hash of a pipeline's slot names, for invalidation.
    pub fn pipeline_hash(slot_names: &[&str]) -> Fingerprint {
        Fingerprint::of_str(&slot_names.join("\u{1f}"))
    }

    /// Folds one build's [`PipelineTrace`] into the database: each traced
    /// function as [`StateDb::ingest_function`] does, then the records of
    /// functions absent from the trace are dropped (garbage collection of
    /// deleted functions). A pipeline-hash mismatch resets the module, even
    /// for an empty trace.
    pub fn ingest(&mut self, trace: &PipelineTrace, pipeline_hash: Fingerprint) {
        self.module_under(&trace.module, pipeline_hash);
        for ftrace in &trace.functions {
            self.ingest_function(&trace.module, ftrace, pipeline_hash);
        }
        self.retain_functions(&trace.module, |name| {
            trace.functions.iter().any(|f| f.function == name)
        });
    }

    /// Folds a single function's trace into `module_name`'s state, leaving
    /// every sibling record untouched (no garbage collection — callers that
    /// ingest function-by-function GC deleted functions explicitly with
    /// [`StateDb::retain_functions`]).
    ///
    /// * Skipped slots extend their dormant streak (the skip presumed
    ///   dormancy) and bump the skip counter.
    /// * A pipeline-hash mismatch resets the module before ingesting.
    pub fn ingest_function(
        &mut self,
        module_name: &str,
        ftrace: &FunctionTrace,
        pipeline_hash: Fingerprint,
    ) {
        let module = self.module_under(module_name, pipeline_hash);
        let fresh = merge(module.functions.get(&ftrace.function), ftrace);
        module.functions.insert(ftrace.function.clone(), fresh);
    }

    /// `module_name`'s state, created when absent and emptied when it was
    /// recorded under another pipeline than `pipeline_hash`.
    fn module_under(&mut self, module_name: &str, pipeline_hash: Fingerprint) -> &mut ModuleState {
        let module = self.modules.entry(module_name.to_string()).or_default();
        if module.pipeline_hash != pipeline_hash {
            module.functions.clear();
            module.pipeline_hash = pipeline_hash;
        }
        module
    }

    /// Drops function records of `module_name` whose names fail `keep` —
    /// the garbage-collection companion to [`StateDb::ingest_function`].
    pub fn retain_functions(&mut self, module_name: &str, mut keep: impl FnMut(&str) -> bool) {
        if let Some(module) = self.modules.get_mut(module_name) {
            module.functions.retain(|name, _| keep(name));
        }
    }

    /// The stamp of one function's record, or `None` when the module or
    /// function has no state yet.
    pub fn function_stamp(&self, module_name: &str, function: &str) -> Option<u64> {
        self.modules
            .get(module_name)?
            .functions
            .get(function)
            .map(FunctionRecord::content_stamp)
    }
}

/// Merges one function's new trace into its previous record.
fn merge(old: Option<&FunctionRecord>, trace: &FunctionTrace) -> FunctionRecord {
    let mut slots = Vec::with_capacity(trace.records.len());
    for (i, rec) in trace.records.iter().enumerate() {
        let prev = old
            .and_then(|o| o.slots.get(i))
            .copied()
            .unwrap_or_default();
        let push_history = |dormant_bit: bool| -> (u8, u8) {
            (
                (prev.history << 1) | dormant_bit as u8,
                prev.observations.saturating_add(1).min(8),
            )
        };
        let slot = match rec.outcome {
            PassOutcome::Active => {
                let (history, observations) = push_history(false);
                SlotRecord {
                    dormant: false,
                    dormant_streak: 0,
                    times_skipped: prev.times_skipped,
                    history,
                    observations,
                }
            }
            PassOutcome::Dormant => {
                let (history, observations) = push_history(true);
                SlotRecord {
                    dormant: true,
                    dormant_streak: prev.dormant_streak.saturating_add(1),
                    times_skipped: prev.times_skipped,
                    history,
                    observations,
                }
            }
            // A skip presumes dormancy; record it as such so the window
            // reflects the compiler's acted-upon belief.
            PassOutcome::Skipped => {
                let (history, observations) = push_history(true);
                SlotRecord {
                    dormant: prev.dormant,
                    dormant_streak: prev.dormant_streak.saturating_add(1),
                    times_skipped: prev.times_skipped.saturating_add(1),
                    history,
                    observations,
                }
            }
        };
        slots.push(slot);
    }
    FunctionRecord {
        fingerprint: trace.entry_fingerprint,
        exit_fingerprint: trace.exit_fingerprint,
        slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_passes::PassRecord;

    /// `content_stamp` of fixed records — empty, all-zero, saturated
    /// (`u32::MAX` streaks and skips, `history` 255) and a full 28-slot
    /// pipeline — pinned: the stamp is the `state:m::f` build input every
    /// persisted query graph records, so its value is a file format.
    #[test]
    fn content_stamps_are_pinned() {
        let slot = |dormant, dormant_streak, times_skipped, history, observations| SlotRecord {
            dormant,
            dormant_streak,
            times_skipped,
            history,
            observations,
        };
        let record = |slots: Vec<SlotRecord>| FunctionRecord {
            fingerprint: Fingerprint(0x0123_4567_89ab_cdef_0011_2233_4455_6677),
            exit_fingerprint: Fingerprint(u128::MAX),
            slots,
        };
        let stamps = [
            record(Vec::new()).content_stamp(),
            record(vec![slot(false, 0, 0, 0, 0)]).content_stamp(),
            record(vec![
                slot(true, u32::MAX, u32::MAX, 255, 8),
                slot(false, 7, 123_456, 0b1010_1010, 3),
            ])
            .content_stamp(),
            FunctionRecord {
                fingerprint: Fingerprint(0),
                exit_fingerprint: Fingerprint(10),
                slots: vec![slot(true, 1, 20, 3, 4); 28],
            }
            .content_stamp(),
        ];
        assert_eq!(
            stamps,
            [
                221_771_041_768_449_180,
                12_576_969_660_059_526_276,
                6_101_417_885_781_391_886,
                4_860_921_546_078_158_467,
            ]
        );
    }

    fn trace_of(module: &str, func: &str, outcomes: &[PassOutcome]) -> PipelineTrace {
        PipelineTrace {
            module: module.to_string(),
            functions: vec![FunctionTrace {
                function: func.to_string(),
                entry_fingerprint: Fingerprint(1),
                exit_fingerprint: Fingerprint(2),
                records: outcomes
                    .iter()
                    .enumerate()
                    .map(|(slot, &outcome)| PassRecord {
                        pass: format!("p{slot}"),
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

    const HASH: Fingerprint = Fingerprint(99);

    #[test]
    fn ingest_creates_records() {
        let mut db = StateDb::new();
        db.ingest(
            &trace_of("m", "f", &[PassOutcome::Active, PassOutcome::Dormant]),
            HASH,
        );
        let rec = &db.module("m").unwrap().functions["f"];
        assert!(!rec.is_dormant(0));
        assert!(rec.is_dormant(1));
        assert_eq!(rec.streak(1), 1);
        assert_eq!(db.function_count(), 1);
    }

    #[test]
    fn streaks_accumulate_and_reset() {
        let mut db = StateDb::new();
        for _ in 0..3 {
            db.ingest(&trace_of("m", "f", &[PassOutcome::Dormant]), HASH);
        }
        assert_eq!(db.module("m").unwrap().functions["f"].streak(0), 3);
        db.ingest(&trace_of("m", "f", &[PassOutcome::Active]), HASH);
        assert_eq!(db.module("m").unwrap().functions["f"].streak(0), 0);
    }

    #[test]
    fn skip_extends_streak_and_counts() {
        let mut db = StateDb::new();
        db.ingest(&trace_of("m", "f", &[PassOutcome::Dormant]), HASH);
        db.ingest(&trace_of("m", "f", &[PassOutcome::Skipped]), HASH);
        let rec = &db.module("m").unwrap().functions["f"];
        assert!(rec.is_dormant(0));
        assert_eq!(rec.streak(0), 2);
        assert_eq!(rec.slots[0].times_skipped, 1);
    }

    #[test]
    fn deleted_functions_are_garbage_collected() {
        let mut db = StateDb::new();
        db.ingest(&trace_of("m", "f", &[PassOutcome::Dormant]), HASH);
        db.ingest(&trace_of("m", "g", &[PassOutcome::Dormant]), HASH);
        assert!(!db.module("m").unwrap().functions.contains_key("f"));
        assert!(db.module("m").unwrap().functions.contains_key("g"));
    }

    #[test]
    fn pipeline_change_resets_module() {
        let mut db = StateDb::new();
        db.ingest(&trace_of("m", "f", &[PassOutcome::Dormant]), HASH);
        assert_eq!(db.module("m").unwrap().functions["f"].streak(0), 1);
        db.ingest(&trace_of("m", "f", &[PassOutcome::Dormant]), Fingerprint(7));
        // Reset: streak restarts at 1, not 2.
        assert_eq!(db.module("m").unwrap().functions["f"].streak(0), 1);
        // An empty trace under another pipeline resets the module too.
        let mut empty = trace_of("m", "f", &[]);
        empty.functions.clear();
        db.ingest(&empty, HASH);
        assert_eq!(db.module("m").unwrap().pipeline_hash, HASH);
        assert!(db.module("m").unwrap().functions.is_empty());
    }

    #[test]
    fn pipeline_hash_distinguishes_orders() {
        let a = StateDb::pipeline_hash(&["x", "y"]);
        let b = StateDb::pipeline_hash(&["y", "x"]);
        let c = StateDb::pipeline_hash(&["x", "y"]);
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn ingest_function_leaves_siblings_alone() {
        let mut db = StateDb::new();
        db.ingest(&trace_of("m", "f", &[PassOutcome::Dormant]), HASH);
        let g = trace_of("m", "g", &[PassOutcome::Active]);
        db.ingest_function("m", &g.functions[0], HASH);
        let module = db.module("m").unwrap();
        assert!(module.functions.contains_key("f"), "sibling survives");
        assert!(module.functions.contains_key("g"));
    }

    #[test]
    fn ingest_function_merges_like_whole_module_ingest() {
        let mut whole = StateDb::new();
        let mut fngrain = StateDb::new();
        for outcome in [PassOutcome::Dormant, PassOutcome::Skipped] {
            let t = trace_of("m", "f", &[outcome]);
            whole.ingest(&t, HASH);
            fngrain.ingest_function("m", &t.functions[0], HASH);
        }
        assert_eq!(whole.module("m"), fngrain.module("m"));
    }

    #[test]
    fn ingest_function_pipeline_mismatch_resets_module() {
        let mut db = StateDb::new();
        db.ingest(&trace_of("m", "f", &[PassOutcome::Dormant]), HASH);
        let g = trace_of("m", "g", &[PassOutcome::Dormant]);
        db.ingest_function("m", &g.functions[0], Fingerprint(7));
        let module = db.module("m").unwrap();
        assert!(!module.functions.contains_key("f"), "old pipeline cleared");
        assert_eq!(module.functions["g"].streak(0), 1);
    }

    #[test]
    fn retain_functions_gcs_deleted_names() {
        let mut db = StateDb::new();
        let f = trace_of("m", "f", &[PassOutcome::Dormant]);
        let g = trace_of("m", "g", &[PassOutcome::Dormant]);
        db.ingest_function("m", &f.functions[0], HASH);
        db.ingest_function("m", &g.functions[0], HASH);
        db.retain_functions("m", |name| name == "g");
        assert!(!db.module("m").unwrap().functions.contains_key("f"));
        assert!(db.module("m").unwrap().functions.contains_key("g"));
    }

    #[test]
    fn function_stamp_tracks_slot_content() {
        let mut db = StateDb::new();
        let t = trace_of("m", "f", &[PassOutcome::Dormant]);
        db.ingest_function("m", &t.functions[0], HASH);
        let before = db.function_stamp("m", "f").unwrap();
        db.ingest_function("m", &t.functions[0], HASH);
        let after = db.function_stamp("m", "f").unwrap();
        assert_ne!(before, after, "streak growth is skip-relevant content");
        assert!(db.function_stamp("m", "nope").is_none());
        assert!(db.function_stamp("other", "f").is_none());
    }

    #[test]
    fn modules_are_independent() {
        let mut db = StateDb::new();
        db.ingest(&trace_of("a", "f", &[PassOutcome::Dormant]), HASH);
        db.ingest(&trace_of("b", "f", &[PassOutcome::Active]), HASH);
        assert!(db.module("a").unwrap().functions["f"].is_dormant(0));
        assert!(!db.module("b").unwrap().functions["f"].is_dormant(0));
    }
}
