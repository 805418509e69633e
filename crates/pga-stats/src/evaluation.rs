//! Empirical evaluation of multiple-testing procedures against ground truth.
//!
//! Experiment E5 measures what the paper claims qualitatively: FDR control
//! "significantly reduces the number of false alarms" relative to
//! uncorrected testing while retaining far more detection power than
//! FWER-style corrections. These helpers compute the standard confusion
//! quantities given known fault labels.

use serde::{Deserialize, Serialize};

use crate::multiple::{Procedure, Rejections};

/// Confusion-matrix summary of one procedure application against truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcedureOutcome {
    /// Procedure that produced this outcome.
    pub procedure: Procedure,
    /// Hypotheses tested.
    pub tested: usize,
    /// True anomalies present in the family.
    pub true_anomalies: usize,
    /// Rejections (flags raised).
    pub rejections: usize,
    /// Flags raised on genuinely anomalous hypotheses.
    pub true_positives: usize,
    /// Flags raised on null hypotheses — the false alarms the paper fights.
    pub false_positives: usize,
    /// Anomalies missed.
    pub false_negatives: usize,
}

impl ProcedureOutcome {
    /// False discovery proportion: FP / max(1, rejections).
    pub fn false_discovery_proportion(&self) -> f64 {
        if self.rejections == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.rejections as f64
        }
    }

    /// Detection power: TP / true anomalies, undefined (`None`) for a
    /// family that holds none.
    pub fn power(&self) -> Option<f64> {
        (self.true_anomalies > 0).then(|| self.true_positives as f64 / self.true_anomalies as f64)
    }

    /// Whether at least one false alarm occurred (the FWER event).
    pub fn any_false_alarm(&self) -> bool {
        self.false_positives > 0
    }
}

/// Score one rejection mask against ground-truth anomaly labels.
///
/// # Panics
/// Panics if the mask and truth lengths differ.
pub fn evaluate_procedure(
    procedure: Procedure,
    rejections: &Rejections,
    truth: &[bool],
) -> ProcedureOutcome {
    assert_eq!(
        rejections.rejected.len(),
        truth.len(),
        "rejection mask and truth must align"
    );
    let mut tp = 0;
    let mut fp = 0;
    let mut fnn = 0;
    for (&r, &t) in rejections.rejected.iter().zip(truth) {
        match (r, t) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fnn += 1,
            (false, false) => {}
        }
    }
    ProcedureOutcome {
        procedure,
        tested: truth.len(),
        true_anomalies: truth.iter().filter(|&&t| t).count(),
        rejections: tp + fp,
        true_positives: tp,
        false_positives: fp,
        false_negatives: fnn,
    }
}

/// Aggregate of repeated trials: averages the per-trial false discovery
/// proportion (the empirical FDR) and the FWER indicator over every
/// trial, and the power over the trials that hold a true anomaly.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrialAggregate {
    /// Trials accumulated.
    pub trials: usize,
    /// Mean false discovery proportion across trials (empirical FDR).
    pub empirical_fdr: f64,
    /// Fraction of trials with at least one false alarm (empirical FWER).
    pub empirical_fwer: f64,
    /// Trials whose family held at least one true anomaly.
    pub anomalous_trials: usize,
    /// Mean detection power over the `anomalous_trials` (0 while there
    /// are none).
    pub mean_power: f64,
    /// Mean raw false alarms per trial.
    pub mean_false_positives: f64,
}

impl TrialAggregate {
    /// Fold one trial outcome into the running means.
    pub fn add(&mut self, outcome: &ProcedureOutcome) {
        let n = self.trials as f64;
        let w = 1.0 / (n + 1.0);
        self.empirical_fdr += (outcome.false_discovery_proportion() - self.empirical_fdr) * w;
        self.empirical_fwer += ((outcome.any_false_alarm() as u8 as f64) - self.empirical_fwer) * w;
        if let Some(power) = outcome.power() {
            self.anomalous_trials += 1;
            let w = 1.0 / self.anomalous_trials as f64;
            self.mean_power += (power - self.mean_power) * w;
        }
        self.mean_false_positives +=
            (outcome.false_positives as f64 - self.mean_false_positives) * w;
        self.trials += 1;
    }
}

/// Analytic probability of at least one false alarm among `m` independent
/// tests at per-test level `alpha`: `1 − (1 − alpha)^m`.
///
/// The paper's §IV walks through exactly this: α = 0.05, m = 10 → 40%.
pub fn family_wise_false_alarm_probability(alpha: f64, m: usize) -> f64 {
    assert!((0.0..=1.0).contains(&alpha));
    1.0 - (1.0 - alpha).powi(m as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiple::benjamini_hochberg;

    #[test]
    fn paper_worked_example_forty_percent() {
        // §IV: "if we increase the number of sensors to 10 sensors each with
        // α = 0.05, that probability jumps to 40%".
        let p = family_wise_false_alarm_probability(0.05, 10);
        assert!((p - 0.4013).abs() < 1e-3);
        let single = family_wise_false_alarm_probability(0.05, 1);
        assert!((single - 0.05).abs() < 1e-12);
    }

    #[test]
    fn evaluation_counts_confusion_cells() {
        let rej = Rejections {
            rejected: vec![true, true, false, false],
            threshold: 0.05,
        };
        let truth = vec![true, false, true, false];
        let o = evaluate_procedure(Procedure::Uncorrected, &rej, &truth);
        assert_eq!(o.true_positives, 1);
        assert_eq!(o.false_positives, 1);
        assert_eq!(o.false_negatives, 1);
        assert_eq!(o.rejections, 2);
        assert!((o.false_discovery_proportion() - 0.5).abs() < 1e-12);
        assert_eq!(o.power(), Some(0.5));
        assert!(o.any_false_alarm());
    }

    #[test]
    fn zero_rejections_has_zero_fdp() {
        let rej = Rejections {
            rejected: vec![false, false],
            threshold: 0.0,
        };
        let o = evaluate_procedure(Procedure::Bonferroni, &rej, &[true, false]);
        assert_eq!(o.false_discovery_proportion(), 0.0);
        assert_eq!(o.power(), Some(0.0));
        assert!(!o.any_false_alarm());
    }

    #[test]
    fn power_is_undefined_without_anomalies() {
        let rej = Rejections {
            rejected: vec![false, false],
            threshold: 0.0,
        };
        let o = evaluate_procedure(Procedure::Holm, &rej, &[false, false]);
        assert_eq!(o.power(), None);
    }

    /// An anomaly-free family has no power to average in: one such trial
    /// beside one that finds half its anomalies reads 0.5, not 0.75.
    #[test]
    fn mean_power_skips_anomaly_free_trials() {
        let mut agg = TrialAggregate::default();
        let none_found = Rejections {
            rejected: vec![false, false],
            threshold: 0.05,
        };
        let one_found = Rejections {
            rejected: vec![true, false],
            threshold: 0.05,
        };
        agg.add(&evaluate_procedure(
            Procedure::Uncorrected,
            &none_found,
            &[false, false],
        ));
        agg.add(&evaluate_procedure(
            Procedure::Uncorrected,
            &one_found,
            &[true, true],
        ));
        assert_eq!(agg.trials, 2);
        assert_eq!(agg.anomalous_trials, 1);
        assert!((agg.mean_power - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_running_means() {
        let mut agg = TrialAggregate::default();
        let truth = vec![true, false];
        let r1 = Rejections {
            rejected: vec![true, true],
            threshold: 0.05,
        };
        let r2 = Rejections {
            rejected: vec![true, false],
            threshold: 0.05,
        };
        agg.add(&evaluate_procedure(Procedure::Uncorrected, &r1, &truth));
        agg.add(&evaluate_procedure(Procedure::Uncorrected, &r2, &truth));
        assert_eq!(agg.trials, 2);
        assert_eq!(agg.anomalous_trials, 2);
        assert!((agg.empirical_fdr - 0.25).abs() < 1e-12); // (0.5 + 0)/2
        assert!((agg.empirical_fwer - 0.5).abs() < 1e-12);
        assert!((agg.mean_power - 1.0).abs() < 1e-12);
        assert!((agg.mean_false_positives - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bh_controls_fdr_in_null_family() {
        // All-null family of uniform-ish p-values: BH should rarely reject.
        let p: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        let r = benjamini_hochberg(&p, 0.05);
        assert_eq!(r.count(), 0);
    }

    #[test]
    #[should_panic(expected = "rejection mask and truth must align")]
    fn mismatched_lengths_panic() {
        let rej = Rejections {
            rejected: vec![true],
            threshold: 0.0,
        };
        evaluate_procedure(Procedure::Uncorrected, &rej, &[true, false]);
    }
}
