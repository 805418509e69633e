//! The fleet generator proper.
//!
//! Every cell `(unit, sensor, t)` is a *pure function* of the fleet seed:
//! noise is produced by a counter-based construction (splitmix64 hashing of
//! the cell coordinates feeding a Box–Muller transform) instead of a
//! stateful RNG. That buys three things the experiments need: streams can
//! be replayed from any offset, ground truth can be queried without
//! generating everything before it, and parallel generation needs no
//! coordination.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pga_linalg::{equicorrelation, CholeskyFactor, Matrix};

use crate::config::{FleetConfig, FAULT_GROUP_SIZE};
use crate::fault::{FaultClass, FaultSpec};

/// One sensor reading, the unit of ingestion. Matches the paper's OpenTSDB
/// schema: metric "energy" with tags "unit" and "sensor" (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorSample {
    /// Unit (machine) identifier.
    pub unit: u32,
    /// Sensor identifier within the unit.
    pub sensor: u32,
    /// Timestamp in seconds since the stream epoch.
    pub timestamp: u64,
    /// Measured value.
    pub value: f64,
}

/// A deterministic synthetic fleet.
///
/// ```
/// use pga_sensorgen::{Fleet, FleetConfig};
///
/// let fleet = Fleet::new(FleetConfig::small(42));
/// // Pure function of (seed, unit, sensor, t): replayable anywhere.
/// assert_eq!(fleet.sample(0, 3, 100), fleet.sample(0, 3, 100));
/// // One tick = one sample per sensor of every unit.
/// assert_eq!(fleet.tick(0).len() as u64, fleet.config().total_sensors());
/// ```
#[derive(Debug, Clone)]
pub struct Fleet {
    config: FleetConfig,
    faults: Vec<FaultSpec>,
    group_chol: CholeskyFactor,
}

impl Fleet {
    /// Build a fleet from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`FleetConfig::validate`].
    pub fn new(config: FleetConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid fleet config: {e}");
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Deterministically assign fault classes to units.
        let n_deg = (config.units as f64 * config.degradation_fraction).round() as u32;
        let n_shift = (config.units as f64 * config.shift_fraction).round() as u32;
        let mut unit_order: Vec<u32> = (0..config.units).collect();
        unit_order.shuffle(&mut rng);
        let mut faults = vec![FaultSpec::healthy(); config.units as usize];
        let group_len = (FAULT_GROUP_SIZE as u32).min(config.sensors_per_unit);
        for (i, &u) in unit_order.iter().enumerate() {
            let class = if (i as u32) < n_deg {
                FaultClass::GradualDegradation
            } else if (i as u32) < n_deg + n_shift {
                FaultClass::SharpShift
            } else {
                continue;
            };
            let onset = rng.gen_range(200..=500u64);
            let max_start = config.sensors_per_unit - group_len;
            let group_start = if max_start == 0 {
                0
            } else {
                rng.gen_range(0..=max_start)
            };
            faults[u as usize] = FaultSpec {
                class,
                onset,
                group_start,
                group_len,
                slope: match class {
                    FaultClass::GradualDegradation => {
                        config.degradation_slope_per_100 * config.noise_std / 100.0
                    }
                    _ => 0.0,
                },
                step: match class {
                    FaultClass::SharpShift => config.shift_magnitude * config.noise_std,
                    _ => 0.0,
                },
            };
        }
        let group_chol = CholeskyFactor::new(&equicorrelation(
            group_len.max(1) as usize,
            config.group_correlation,
        ))
        .expect("validated correlation is positive definite");
        Fleet {
            config,
            faults,
            group_chol,
        }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The fault assigned to `unit`.
    pub fn fault(&self, unit: u32) -> &FaultSpec {
        &self.faults[unit as usize]
    }

    /// Value of one cell. Pure in `(seed, unit, sensor, t)`.
    pub fn sample(&self, unit: u32, sensor: u32, t: u64) -> f64 {
        let fault = &self.faults[unit as usize];
        let noise = if fault.affects(sensor) {
            // Correlated noise: colour the group's i.i.d. draws with the
            // Cholesky factor; this cell is row (sensor - group_start).
            let row = (sensor - fault.group_start) as usize;
            let l = self.group_chol.lower();
            let mut acc = 0.0;
            for k in 0..=row {
                let z = cell_normal(self.config.seed, unit, fault.group_start + k as u32, t, 1);
                acc += l.get(row, k) * z;
            }
            acc
        } else {
            cell_normal(self.config.seed, unit, sensor, t, 0)
        };
        self.config.baseline_mean + self.config.noise_std * noise + fault.signal(sensor, t)
    }

    /// All samples of the fleet at sample index `t`, appended to `out`.
    ///
    /// The timestamp is `t * sample_period_secs`. Each value equals
    /// [`Fleet::sample`]'s bit for bit; a faulted unit's group draws its
    /// i.i.d. normals once for the tick, where `sample` redraws the
    /// group's first `row + 1` for every cell it colours.
    pub fn tick_into(&self, t: u64, out: &mut Vec<SensorSample>) {
        let ts = t * self.config.sample_period_secs;
        let l = self.group_chol.lower();
        let mut draws = Vec::new();
        for (unit, fault) in (0..self.config.units).zip(&self.faults) {
            draws.clear();
            if fault.class != FaultClass::Healthy {
                let group = fault.group_start..fault.group_start + fault.group_len;
                draws.extend(group.map(|s| cell_normal(self.config.seed, unit, s, t, 1)));
            }
            for sensor in 0..self.config.sensors_per_unit {
                let noise = if fault.affects(sensor) {
                    let row = (sensor - fault.group_start) as usize;
                    let mut acc = 0.0;
                    for (k, z) in draws.iter().enumerate().take(row + 1) {
                        acc += l.get(row, k) * z;
                    }
                    acc
                } else {
                    cell_normal(self.config.seed, unit, sensor, t, 0)
                };
                out.push(SensorSample {
                    unit,
                    sensor,
                    timestamp: ts,
                    value: self.config.baseline_mean
                        + self.config.noise_std * noise
                        + fault.signal(sensor, t),
                });
            }
        }
    }

    /// Convenience wrapper over [`Fleet::tick_into`].
    pub fn tick(&self, t: u64) -> Vec<SensorSample> {
        let mut out = Vec::with_capacity(self.config.total_sensors() as usize);
        self.tick_into(t, &mut out);
        out
    }

    /// An iterator of per-tick batches starting at sample index `start`.
    pub fn stream(&self, start: u64) -> FleetStream<'_> {
        FleetStream {
            fleet: self,
            next_t: start,
        }
    }

    /// Observation window for one unit: `len` rows (time steps ending at
    /// `t_end` inclusive) × `sensors_per_unit` columns. This is the shape
    /// the detector trains on and evaluates.
    pub fn observation_window(&self, unit: u32, t_end: u64, len: usize) -> Matrix {
        assert!(len > 0, "window must be non-empty");
        assert!(t_end + 1 >= len as u64, "window would precede the epoch");
        let p = self.config.sensors_per_unit as usize;
        let mut m = Matrix::zeros(len, p);
        let t0 = t_end + 1 - len as u64;
        for (r, t) in (t0..=t_end).enumerate() {
            for sensor in 0..p {
                m.set(r, sensor, self.sample(unit, sensor as u32, t));
            }
        }
        m
    }

    /// Ground-truth anomaly label for `(unit, sensor, t)`.
    ///
    /// `threshold_sigmas` is the detectability floor: the injected signal
    /// must reach that many noise standard deviations before the cell
    /// counts as a true anomaly (a drift of 0.001σ is not a reasonable miss).
    pub fn truth(&self, unit: u32, sensor: u32, t: u64, threshold_sigmas: f64) -> bool {
        self.faults[unit as usize].is_anomalous(sensor, t, threshold_sigmas * self.config.noise_std)
    }

    /// Ground-truth labels for every sensor of a unit at time `t`.
    pub fn truth_row(&self, unit: u32, t: u64, threshold_sigmas: f64) -> Vec<bool> {
        (0..self.config.sensors_per_unit)
            .map(|s| self.truth(unit, s, t, threshold_sigmas))
            .collect()
    }

    /// Units whose fault class matches `class`.
    pub fn units_with_class(&self, class: FaultClass) -> Vec<u32> {
        self.faults
            .iter()
            .enumerate()
            .filter_map(|(u, f)| (f.class == class).then_some(u as u32))
            .collect()
    }
}

/// Iterator over per-tick sample batches.
pub struct FleetStream<'a> {
    fleet: &'a Fleet,
    next_t: u64,
}

impl Iterator for FleetStream<'_> {
    type Item = Vec<SensorSample>;

    fn next(&mut self) -> Option<Self::Item> {
        let batch = self.fleet.tick(self.next_t);
        self.next_t += 1;
        Some(batch)
    }
}

/// splitmix64 — the standard 64-bit finalizer; good avalanche, trivially
/// counter-based.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One standard-normal draw, pure in the cell coordinates.
///
/// `lane` separates independent streams for the same cell (the correlated
/// path consumes lane 1 so that group-noise draws never collide with the
/// independent-noise draws of lane 0).
#[inline]
fn cell_normal(seed: u64, unit: u32, sensor: u32, t: u64, lane: u32) -> f64 {
    let key = splitmix64(
        seed ^ splitmix64(((unit as u64) << 32) | sensor as u64)
            ^ splitmix64(t.wrapping_mul(0xA24BAED4963EE407) ^ ((lane as u64) << 56)),
    );
    let h1 = splitmix64(key ^ 0xD6E8FEB86659FD93);
    let h2 = splitmix64(key ^ 0xCAF649A9E3B8C7E5);
    // Box–Muller: u1 in (0,1], u2 in [0,1).
    let u1 = ((h1 >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let u2 = (h2 >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet() -> Fleet {
        Fleet::new(FleetConfig::small(42))
    }

    #[test]
    fn samples_are_deterministic() {
        let a = small_fleet();
        let b = small_fleet();
        for t in 0..5 {
            assert_eq!(a.tick(t), b.tick(t));
        }
        assert_eq!(a.sample(1, 3, 77), b.sample(1, 3, 77));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Fleet::new(FleetConfig::small(1));
        let b = Fleet::new(FleetConfig::small(2));
        assert_ne!(a.sample(0, 0, 0), b.sample(0, 0, 0));
    }

    #[test]
    fn tick_covers_every_cell_once() {
        let f = small_fleet();
        let batch = f.tick(3);
        assert_eq!(batch.len(), f.config().total_sensors() as usize);
        let mut seen = std::collections::HashSet::new();
        for s in &batch {
            assert!(seen.insert((s.unit, s.sensor)), "duplicate cell");
            assert_eq!(s.timestamp, 3 * f.config().sample_period_secs);
        }
    }

    #[test]
    fn fault_classes_assigned_in_paper_proportions() {
        let f = Fleet::new(FleetConfig::paper_scale(7));
        let deg = f.units_with_class(FaultClass::GradualDegradation).len();
        let shift = f.units_with_class(FaultClass::SharpShift).len();
        let healthy = f.units_with_class(FaultClass::Healthy).len();
        assert_eq!(deg + shift + healthy, 100);
        assert_eq!(deg, 33);
        assert_eq!(shift, 33);
        assert_eq!(healthy, 34);
    }

    #[test]
    fn healthy_units_stay_near_baseline() {
        let f = Fleet::new(FleetConfig::paper_scale(11));
        let unit = f.units_with_class(FaultClass::Healthy)[0];
        let n = 2000u64;
        let mut sum = 0.0;
        for t in 0..n {
            sum += f.sample(unit, 5, t);
        }
        let mean = sum / n as f64;
        let cfg = f.config();
        assert!(
            (mean - cfg.baseline_mean).abs() < 5.0 * cfg.noise_std / (n as f64).sqrt() + 0.05,
            "mean {mean} too far from baseline"
        );
    }

    #[test]
    fn shifted_unit_moves_after_onset() {
        let f = Fleet::new(FleetConfig::paper_scale(11));
        let unit = f.units_with_class(FaultClass::SharpShift)[0];
        let spec = *f.fault(unit);
        let sensor = spec.group_start;
        let window = 200;
        let before: f64 =
            (0..window).map(|t| f.sample(unit, sensor, t)).sum::<f64>() / window as f64;
        let after: f64 = (spec.onset..spec.onset + window)
            .map(|t| f.sample(unit, sensor, t))
            .sum::<f64>()
            / window as f64;
        let cfg = f.config();
        assert!(
            after - before > 0.8 * cfg.shift_magnitude * cfg.noise_std,
            "shift not visible: before {before}, after {after}"
        );
    }

    #[test]
    fn degrading_unit_drifts() {
        let f = Fleet::new(FleetConfig::paper_scale(11));
        let unit = f.units_with_class(FaultClass::GradualDegradation)[0];
        let spec = *f.fault(unit);
        let sensor = spec.group_start;
        let far = spec.onset + 2000;
        let drift_expected = spec.slope * 2001.0;
        let window = 100;
        let late: f64 = (far..far + window)
            .map(|t| f.sample(unit, sensor, t))
            .sum::<f64>()
            / window as f64;
        let base = f.config().baseline_mean;
        assert!(
            late - base > 0.7 * drift_expected,
            "drift not visible: late {late}, expected base {base} + {drift_expected}"
        );
    }

    #[test]
    fn faulted_group_noise_is_correlated() {
        let f = Fleet::new(FleetConfig::paper_scale(13));
        let unit = f.units_with_class(FaultClass::SharpShift)[0];
        let spec = *f.fault(unit);
        let (s0, s1) = (spec.group_start, spec.group_start + 1);
        let n = 4000u64;
        // Sample both sensors before onset (pure correlated noise).
        let xs: Vec<f64> = (0..n.min(spec.onset))
            .map(|t| f.sample(unit, s0, t))
            .collect();
        let ys: Vec<f64> = (0..n.min(spec.onset))
            .map(|t| f.sample(unit, s1, t))
            .collect();
        let m = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / m;
        let my = ys.iter().sum::<f64>() / m;
        let mut cxy = 0.0;
        let mut cx = 0.0;
        let mut cy = 0.0;
        for (x, y) in xs.iter().zip(&ys) {
            cxy += (x - mx) * (y - my);
            cx += (x - mx).powi(2);
            cy += (y - my).powi(2);
        }
        let rho = cxy / (cx * cy).sqrt();
        let target = f.config().group_correlation;
        assert!(
            (rho - target).abs() < 0.15,
            "group correlation {rho}, expected ~{target}"
        );
        // An unrelated sensor is uncorrelated.
        let other = spec.group_start.wrapping_add(100) % f.config().sensors_per_unit;
        let zs: Vec<f64> = (0..xs.len() as u64)
            .map(|t| f.sample(unit, other, t))
            .collect();
        let mz = zs.iter().sum::<f64>() / m;
        let mut cxz = 0.0;
        let mut cz = 0.0;
        for (x, z) in xs.iter().zip(&zs) {
            cxz += (x - mx) * (z - mz);
            cz += (z - mz).powi(2);
        }
        let rho_z = cxz / (cx * cz).sqrt();
        assert!(rho_z.abs() < 0.1, "unrelated sensor correlated: {rho_z}");
    }

    /// `tick_into` draws a faulted group's normals once per tick;
    /// `sample` is the per-cell oracle it must equal bit for bit, on
    /// faulted and healthy units, full and short groups (3 × 5), at the
    /// first and last ticks and on both sides of every onset.
    #[test]
    fn tick_into_equals_sample_bit_for_bit() {
        for seed in [7, 11, 31] {
            for (units, sensors) in [(2, 16), (4, 32), (7, 75), (3, 5)] {
                let f = Fleet::new(FleetConfig {
                    units,
                    sensors_per_unit: sensors,
                    ..FleetConfig::paper_scale(seed)
                });
                let mut ticks = vec![0, 1, 199, 700];
                for unit in 0..units {
                    let onset = f.fault(unit).onset;
                    if onset != u64::MAX {
                        ticks.extend([onset - 1, onset, onset + 1]);
                    }
                }
                assert!(ticks.len() > 4, "seed {seed}: no faulted unit");
                let mut batch = Vec::new();
                for t in ticks {
                    batch.clear();
                    f.tick_into(t, &mut batch);
                    assert_eq!(batch.len() as u64, f.config().total_sensors());
                    for s in &batch {
                        assert_eq!(
                            s.value.to_bits(),
                            f.sample(s.unit, s.sensor, t).to_bits(),
                            "seed {seed}, {units}x{sensors}, unit {} sensor {} t {t}",
                            s.unit,
                            s.sensor
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn observation_window_matches_samples() {
        let f = small_fleet();
        let w = f.observation_window(2, 9, 10);
        assert_eq!(w.shape(), (10, f.config().sensors_per_unit as usize));
        assert_eq!(w.get(0, 0), f.sample(2, 0, 0));
        assert_eq!(w.get(9, 3), f.sample(2, 3, 9));
    }

    #[test]
    #[should_panic(expected = "window would precede the epoch")]
    fn window_before_epoch_panics() {
        small_fleet().observation_window(0, 3, 10);
    }

    #[test]
    fn stream_yields_consecutive_ticks() {
        let f = small_fleet();
        let mut s = f.stream(5);
        let b0 = s.next().unwrap();
        let b1 = s.next().unwrap();
        assert_eq!(b0[0].timestamp, 5 * f.config().sample_period_secs);
        assert_eq!(b1[0].timestamp, 6 * f.config().sample_period_secs);
    }

    #[test]
    fn truth_respects_onset_and_group() {
        let f = Fleet::new(FleetConfig::paper_scale(29));
        let unit = f.units_with_class(FaultClass::SharpShift)[0];
        let spec = *f.fault(unit);
        assert!(!f.truth(unit, spec.group_start, spec.onset - 1, 1.0));
        assert!(f.truth(unit, spec.group_start, spec.onset, 1.0));
        assert!(!f.truth(
            unit,
            spec.group_start + spec.group_len,
            spec.onset + 10,
            1.0
        ));
        let healthy = f.units_with_class(FaultClass::Healthy)[0];
        assert!(!f.truth(healthy, 0, 10_000, 1.0));
    }

    #[test]
    fn noise_moments_are_standard() {
        // The counter-based normal should have mean ~0 and var ~1.
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let n = 100_000;
        for i in 0..n {
            let z = super::cell_normal(99, 0, 0, i, 0);
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
