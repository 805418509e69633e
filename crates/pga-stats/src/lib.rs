//! Statistical substrate for the PGA anomaly-detection platform.
//!
//! The paper frames anomaly detection as multiple hypothesis testing: each
//! sensor window yields a test of "has the sampling distribution shifted?",
//! and with thousands of sensors per asset the per-test type-I error rate
//! compounds into an unacceptable false-alarm rate (§IV: α = 0.05 over 10
//! sensors already gives a 40% family-wise false-alarm probability). This
//! crate provides, from scratch:
//!
//! * [`distributions`] — normal and Student-t CDFs and quantiles, plus
//!   sampling helpers (Box–Muller / Marsaglia polar) used by the generator.
//! * [`tests`] — z-tests and t-tests that convert a sensor window's mean
//!   into a p-value against the sensor's trained mean and σ.
//! * [`multiple`] — the multiple-testing procedures the paper discusses:
//!   uncorrected testing, Bonferroni and Šidák (FWER), Holm and Hochberg
//!   step procedures, and the Benjamini–Hochberg / Benjamini–Yekutieli FDR
//!   procedures the system is built around.
//! * [`evaluation`] — empirical measurement of FDR, FWER and detection
//!   power against known ground truth, used by experiment E5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributions;
pub mod evaluation;
pub mod multiple;
pub mod tests;

pub use distributions::{
    normal_cdf, normal_pdf, normal_quantile, standard_normal, students_t_cdf, Normal,
};
pub use evaluation::{
    evaluate_procedure, family_wise_false_alarm_probability, ProcedureOutcome, TrialAggregate,
};
pub use multiple::{
    benjamini_hochberg, benjamini_yekutieli, bh_adjusted_p_values, bonferroni, hochberg, holm,
    sidak, storey_bh, uncorrected, Procedure, Rejections,
};
pub use tests::{mean_shift_p_value, two_sided_p_from_z, ZTest};
