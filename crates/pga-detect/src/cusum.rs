//! CUSUM — the classical Statistical Process Control baseline.
//!
//! The paper positions its FDR approach against the traditional SPC
//! toolbox ("a multitude of detection algorithms … applied in the
//! manufacturing domain for what has become known as Statistical Process
//! Control", §I refs [1][2]). The tabular two-sided CUSUM is the canonical
//! member of that toolbox: per sensor, accumulate standardised deviations
//! exceeding a slack `k` and alarm when either cumulative sum crosses `h`.
//! It detects small persistent shifts quickly but offers **no multiplicity
//! control** — its fleet-wide false-alarm behaviour is exactly the problem
//! §IV describes.

use serde::{Deserialize, Serialize};

use crate::model::UnitModel;

/// Tabular two-sided CUSUM state for one sensor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CusumState {
    /// Upper cumulative sum (detects upward shifts).
    pub high: f64,
    /// Lower cumulative sum (detects downward shifts).
    pub low: f64,
}

/// A per-unit CUSUM detector over all sensors, parameterised in units of
/// each sensor's baseline standard deviation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CusumDetector {
    model: UnitModel,
    /// Slack parameter `k` in σ (typically half the shift to detect).
    pub k: f64,
    /// Decision threshold `h` in σ (typically 4–5).
    pub h: f64,
    states: Vec<CusumState>,
}

impl CusumDetector {
    /// Build from a trained baseline model with slack `k` and threshold
    /// `h`, both in units of σ.
    pub fn new(model: UnitModel, k: f64, h: f64) -> Self {
        assert!(k >= 0.0 && h > 0.0, "need k >= 0 and h > 0");
        model.validate().expect("valid model");
        let n = model.sensors();
        CusumDetector {
            model,
            k,
            h,
            states: vec![CusumState::default(); n],
        }
    }

    /// Feed one observation row; returns the sensors whose CUSUM crossed
    /// `h` on this step.
    pub fn update(&mut self, row: &[f64]) -> Vec<u32> {
        assert_eq!(row.len(), self.model.sensors(), "row width mismatch");
        let mut alarms = Vec::new();
        for (j, (&x, state)) in row.iter().zip(self.states.iter_mut()).enumerate() {
            let std = self.model.stds[j];
            if std == 0.0 {
                continue;
            }
            let z = (x - self.model.means[j]) / std;
            state.high = (state.high + z - self.k).max(0.0);
            state.low = (state.low - z - self.k).max(0.0);
            if state.high > self.h || state.low > self.h {
                alarms.push(j as u32);
            }
        }
        alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train_unit;
    use pga_sensorgen::{FaultClass, Fleet, FleetConfig};

    fn detector(fleet: &Fleet, unit: u32, k: f64, h: f64) -> CusumDetector {
        let obs = fleet.observation_window(unit, 149, 150);
        CusumDetector::new(train_unit(unit, &obs).unwrap(), k, h)
    }

    #[test]
    fn detects_sharp_shift_quickly() {
        let fleet = Fleet::new(FleetConfig::paper_scale(71));
        let unit = fleet.units_with_class(FaultClass::SharpShift)[0];
        let spec = *fleet.fault(unit);
        let mut det = detector(&fleet, unit, 0.5, 5.0);
        let mut first_alarm = None;
        for t in spec.onset..spec.onset + 50 {
            let row: Vec<f64> = (0..fleet.config().sensors_per_unit)
                .map(|s| fleet.sample(unit, s, t))
                .collect();
            let alarms = det.update(&row);
            if alarms.iter().any(|&s| spec.affects(s)) {
                first_alarm = Some(t - spec.onset);
                break;
            }
        }
        // A 3σ shift with k=0.5, h=5: expected delay ≈ h/(δ−k) = 2 steps.
        let delay = first_alarm.expect("shift must be detected");
        assert!(delay <= 6, "CUSUM delay {delay} too long");
    }

    #[test]
    fn per_sensor_cusum_floods_a_large_fleet_with_false_alarms() {
        // The paper's §IV motivation, demonstrated: textbook CUSUM
        // parameters (k=0.5, h=5) are tuned for ONE chart. Across 1000
        // sensors the per-sensor false-alarm rate compounds — hundreds of
        // healthy sensors alarm within a few hundred ticks, exactly the
        // multiplicity problem FDR control addresses.
        let fleet = Fleet::new(FleetConfig::paper_scale(73));
        let unit = fleet.units_with_class(FaultClass::Healthy)[0];
        let mut det = detector(&fleet, unit, 0.5, 5.0);
        let mut alarmed_sensors = std::collections::HashSet::new();
        for t in 200..500u64 {
            let row: Vec<f64> = (0..fleet.config().sensors_per_unit)
                .map(|s| fleet.sample(unit, s, t))
                .collect();
            for s in det.update(&row) {
                alarmed_sensors.insert(s);
            }
        }
        assert!(
            alarmed_sensors.len() > 100,
            "expected the multiplicity flood, got {}",
            alarmed_sensors.len()
        );
        // Raising h to 8σ damps the flood dramatically — the classical
        // (but power-sapping) fix, analogous to Bonferroni's tradeoff.
        let mut strict = detector(&fleet, unit, 0.5, 8.0);
        let mut strict_alarms = std::collections::HashSet::new();
        for t in 200..500u64 {
            let row: Vec<f64> = (0..fleet.config().sensors_per_unit)
                .map(|s| fleet.sample(unit, s, t))
                .collect();
            for s in strict.update(&row) {
                strict_alarms.insert(s);
            }
        }
        assert!(
            strict_alarms.len() * 4 < alarmed_sensors.len(),
            "h=8 should cut alarms sharply: {} vs {}",
            strict_alarms.len(),
            alarmed_sensors.len()
        );
    }

    #[test]
    fn detects_slow_drift_that_single_windows_miss() {
        let fleet = Fleet::new(FleetConfig::paper_scale(79));
        let unit = fleet.units_with_class(FaultClass::GradualDegradation)[0];
        let spec = *fleet.fault(unit);
        let mut det = detector(&fleet, unit, 0.25, 5.0);
        let mut detected = false;
        for t in spec.onset..spec.onset + 600 {
            let row: Vec<f64> = (0..fleet.config().sensors_per_unit)
                .map(|s| fleet.sample(unit, s, t))
                .collect();
            if det.update(&row).iter().any(|&s| spec.affects(s)) {
                detected = true;
                break;
            }
        }
        assert!(detected, "drift must eventually trip the CUSUM");
    }

    #[test]
    #[should_panic(expected = "need k >= 0 and h > 0")]
    fn invalid_parameters_rejected() {
        let fleet = Fleet::new(FleetConfig::small(97));
        let obs = fleet.observation_window(0, 99, 100);
        let model = train_unit(0, &obs).unwrap();
        CusumDetector::new(model, 0.5, 0.0);
    }
}
