//! Dormancy statistics used by the experiment harness.
//!
//! Aggregates pass outcomes across pipeline traces into the quantities the
//! paper's evaluation reports: per-pass dormancy rates (Fig. 2), the overall
//! dormancy profile (Fig. 1), and the build-to-build dormancy *stability*
//! that makes skipping profitable (Fig. 5).

use sfcc_passes::{PassOutcome, PipelineTrace};
use std::collections::HashMap;

/// Dormancy counts for one pass name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassDormancy {
    /// Executions that changed the IR.
    pub active: u64,
    /// Executions that changed nothing.
    pub dormant: u64,
    /// Skipped executions.
    pub skipped: u64,
    /// Wall time spent in executed runs (ns).
    pub nanos: u64,
    /// Deterministic cost units of executed runs.
    pub cost_units: u64,
}

impl PassDormancy {
    /// Fraction of executed runs that were dormant (0 when never executed).
    pub fn dormancy_rate(&self) -> f64 {
        let executed = self.active + self.dormant;
        if executed == 0 {
            0.0
        } else {
            self.dormant as f64 / executed as f64
        }
    }
}

/// Aggregated dormancy over any number of traces.
#[derive(Debug, Clone, Default)]
pub struct DormancyProfile {
    /// Per-pass-name counters.
    pub per_pass: HashMap<String, PassDormancy>,
}

impl DormancyProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one trace into the profile.
    pub fn add_trace(&mut self, trace: &PipelineTrace) {
        for f in &trace.functions {
            for r in &f.records {
                let entry = self.per_pass.entry(r.pass.clone()).or_default();
                match r.outcome {
                    PassOutcome::Active => entry.active += 1,
                    PassOutcome::Dormant => entry.dormant += 1,
                    PassOutcome::Skipped => entry.skipped += 1,
                }
                if r.outcome != PassOutcome::Skipped {
                    entry.nanos += r.nanos;
                    entry.cost_units += r.cost_units;
                }
            }
        }
    }

    /// Totals across all passes: `(active, dormant, skipped)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.per_pass.values().fold((0, 0, 0), |acc, p| {
            (acc.0 + p.active, acc.1 + p.dormant, acc.2 + p.skipped)
        })
    }

    /// Overall dormancy rate across executed (function, pass) pairs.
    pub fn overall_dormancy_rate(&self) -> f64 {
        let (a, d, _) = self.totals();
        if a + d == 0 {
            0.0
        } else {
            d as f64 / (a + d) as f64
        }
    }

    /// Pass names sorted by descending dormancy rate.
    pub fn ranked(&self) -> Vec<(&str, PassDormancy)> {
        let mut rows: Vec<(&str, PassDormancy)> = self
            .per_pass
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        rows.sort_by(|a, b| {
            b.1.dormancy_rate()
                .partial_cmp(&a.1.dormancy_rate())
                .expect("rates are finite")
                .then(a.0.cmp(b.0))
        });
        rows
    }
}

/// Compilation-over-compilation dormancy stability: given a pass was
/// dormant the last time a function was compiled, how often is it dormant
/// the next time?
///
/// This conditional probability is the empirical justification of the whole
/// technique — a skip is exactly a bet that dormancy persists from one
/// compilation of a function to the next.
#[derive(Debug, Clone, Default)]
pub struct StabilityTracker {
    /// Most recent executed outcome per (function, slot). `true` = dormant.
    prev: HashMap<(String, usize), bool>,
    /// Per-pass-name `(dormant_then_dormant, dormant_then_any)` counters.
    counts: HashMap<String, (u64, u64)>,
}

impl StabilityTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one compilation's trace. Skipped slots are excluded (their
    /// true outcome is unknown); outcomes for functions not recompiled this
    /// build carry over untouched, so samples pair *consecutive
    /// compilations* of each function.
    pub fn observe(&mut self, trace: &PipelineTrace) {
        for f in &trace.functions {
            for r in &f.records {
                let dormant_now = match r.outcome {
                    PassOutcome::Active => false,
                    PassOutcome::Dormant => true,
                    // A skip carries the previous belief forward unchanged.
                    PassOutcome::Skipped => continue,
                };
                let key = (f.function.clone(), r.slot);
                if let Some(&was_dormant) = self.prev.get(&key) {
                    if was_dormant {
                        let c = self.counts.entry(r.pass.clone()).or_default();
                        c.1 += 1;
                        if dormant_now {
                            c.0 += 1;
                        }
                    }
                }
                self.prev.insert(key, dormant_now);
            }
        }
    }

    /// Stability per pass name: `P(dormant_n | dormant_{n-1})`, with the
    /// sample count. Passes never observed dormant twice are omitted.
    pub fn per_pass(&self) -> Vec<(String, f64, u64)> {
        let mut rows: Vec<(String, f64, u64)> = self
            .counts
            .iter()
            .filter(|(_, (_, total))| *total > 0)
            .map(|(k, (hit, total))| (k.clone(), *hit as f64 / *total as f64, *total))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Overall stability across all passes; `None` before two observations.
    pub fn overall(&self) -> Option<f64> {
        let (hit, total) = self
            .counts
            .values()
            .fold((0u64, 0u64), |acc, (h, t)| (acc.0 + h, acc.1 + t));
        if total == 0 {
            None
        } else {
            Some(hit as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfcc_ir::Fingerprint;
    use sfcc_passes::{FunctionTrace, PassRecord};

    fn trace(outcomes: &[(&str, PassOutcome)]) -> PipelineTrace {
        PipelineTrace {
            module: "m".into(),
            functions: vec![FunctionTrace {
                function: "f".into(),
                entry_fingerprint: Fingerprint(0),
                exit_fingerprint: Fingerprint(0),
                records: outcomes
                    .iter()
                    .enumerate()
                    .map(|(slot, (pass, outcome))| PassRecord {
                        pass: pass.to_string(),
                        slot,
                        outcome: *outcome,
                        nanos: 10,
                        cost_units: 5,
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
    fn profile_counts_outcomes() {
        let mut p = DormancyProfile::new();
        p.add_trace(&trace(&[
            ("a", PassOutcome::Active),
            ("b", PassOutcome::Dormant),
            ("b", PassOutcome::Dormant),
            ("c", PassOutcome::Skipped),
        ]));
        assert_eq!(p.totals(), (1, 2, 1));
        assert_eq!(p.per_pass["b"].dormancy_rate(), 1.0);
        assert_eq!(p.per_pass["a"].dormancy_rate(), 0.0);
        assert!((p.overall_dormancy_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn skipped_runs_do_not_accrue_cost() {
        let mut p = DormancyProfile::new();
        p.add_trace(&trace(&[("a", PassOutcome::Skipped)]));
        assert_eq!(p.per_pass["a"].nanos, 0);
        assert_eq!(p.per_pass["a"].cost_units, 0);
    }

    #[test]
    fn ranked_orders_by_rate() {
        let mut p = DormancyProfile::new();
        p.add_trace(&trace(&[
            ("hot", PassOutcome::Active),
            ("cold", PassOutcome::Dormant),
        ]));
        let ranked = p.ranked();
        assert_eq!(ranked[0].0, "cold");
        assert_eq!(ranked[1].0, "hot");
    }

    #[test]
    fn stability_tracks_dormant_persistence() {
        let mut t = StabilityTracker::new();
        t.observe(&trace(&[("p", PassOutcome::Dormant)]));
        assert_eq!(t.overall(), None);
        t.observe(&trace(&[("p", PassOutcome::Dormant)]));
        assert_eq!(t.overall(), Some(1.0));
        t.observe(&trace(&[("p", PassOutcome::Active)]));
        assert_eq!(t.overall(), Some(0.5));
        let rows = t.per_pass();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].2, 2);
    }

    #[test]
    fn stability_ignores_skips_but_carries_state() {
        let mut t = StabilityTracker::new();
        t.observe(&trace(&[("p", PassOutcome::Dormant)]));
        t.observe(&trace(&[("p", PassOutcome::Skipped)]));
        // The skip itself is not a sample.
        assert_eq!(t.overall(), None);
        // But dormancy carried through: the next executed dormant counts.
        t.observe(&trace(&[("p", PassOutcome::Dormant)]));
        assert_eq!(t.overall(), Some(1.0));
    }

    #[test]
    fn active_previous_build_is_not_a_sample() {
        let mut t = StabilityTracker::new();
        t.observe(&trace(&[("p", PassOutcome::Active)]));
        t.observe(&trace(&[("p", PassOutcome::Dormant)]));
        assert_eq!(t.overall(), None);
    }
}
