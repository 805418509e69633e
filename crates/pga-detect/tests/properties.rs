//! Property tests for the detector: model well-formedness, evaluator
//! calibration invariants, and streaming/batch equivalence on arbitrary
//! fleets.

use proptest::prelude::*;

use pga_detect::{train_unit, OnlineEvaluator, StreamingTrainer};
use pga_sensorgen::{Fleet, FleetConfig};
use pga_stats::Procedure;

fn fleet_strategy() -> impl Strategy<Value = (Fleet, usize)> {
    (1u32..5, 4u32..48, any::<u64>(), 10usize..60).prop_map(|(units, sensors, seed, window)| {
        (
            Fleet::new(FleetConfig {
                units,
                sensors_per_unit: sensors,
                ..FleetConfig::paper_scale(seed)
            }),
            window,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trained_models_validate((fleet, window) in fleet_strategy()) {
        let obs = fleet.observation_window(0, window as u64 - 1, window.max(2));
        let model = train_unit(0, &obs).unwrap();
        prop_assert!(model.validate().is_ok());
        prop_assert_eq!(model.sensors(), fleet.config().sensors_per_unit as usize);
        prop_assert!(model.stds.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn p_values_are_probabilities((fleet, window) in fleet_strategy()) {
        let w = window.max(2);
        let obs = fleet.observation_window(0, w as u64 - 1, w);
        let model = train_unit(0, &obs).unwrap();
        let ev = OnlineEvaluator::new(model, Procedure::BenjaminiHochberg, 0.05);
        let eval_w = fleet.observation_window(0, w as u64 * 3, w);
        let out = ev.evaluate(&eval_w);
        prop_assert!(out.p_values.iter().all(|p| (0.0..=1.0).contains(p)));
        // Flags agree with the rejection mask.
        let from_mask: Vec<u32> = out
            .rejected
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| r.then_some(i as u32))
            .collect();
        let from_flags: Vec<u32> = out.flags.iter().map(|f| f.sensor).collect();
        prop_assert_eq!(from_mask, from_flags);
    }

    #[test]
    fn stricter_alpha_flags_no_more((fleet, window) in fleet_strategy()) {
        let w = window.max(2);
        let obs = fleet.observation_window(0, w as u64 - 1, w);
        let model = train_unit(0, &obs).unwrap();
        let eval_w = fleet.observation_window(0, 2000, w);
        let loose = OnlineEvaluator::new(model.clone(), Procedure::BenjaminiHochberg, 0.10)
            .evaluate(&eval_w);
        let strict = OnlineEvaluator::new(model, Procedure::BenjaminiHochberg, 0.01)
            .evaluate(&eval_w);
        prop_assert!(strict.flags.len() <= loose.flags.len());
    }

    #[test]
    fn streaming_equals_batch_for_any_fleet((fleet, window) in fleet_strategy()) {
        let w = window.max(2);
        let obs = fleet.observation_window(0, w as u64 - 1, w);
        let batch = train_unit(0, &obs).unwrap();
        let mut st = StreamingTrainer::new(0, obs.cols());
        for r in 0..obs.rows() {
            st.update(obs.row(r));
        }
        let streaming = st.finish().unwrap();
        for (a, b) in streaming.means.iter().zip(&batch.means) {
            prop_assert!((a - b).abs() < 1e-8, "means {a} vs {b}");
        }
        for (a, b) in streaming.stds.iter().zip(&batch.stds) {
            prop_assert!((a - b).abs() < 1e-8, "stds {a} vs {b}");
        }
    }

    #[test]
    fn merge_is_associative_enough(
        (fleet, window) in fleet_strategy(),
        split1 in 0.2f64..0.8,
    ) {
        let w = window.max(6);
        let obs = fleet.observation_window(0, w as u64 - 1, w);
        let cut = ((w as f64) * split1) as usize;
        // (A ∪ B) vs (B ∪ A).
        let mut left = StreamingTrainer::new(0, obs.cols());
        let mut right = StreamingTrainer::new(0, obs.cols());
        for r in 0..cut {
            left.update(obs.row(r));
        }
        for r in cut..w {
            right.update(obs.row(r));
        }
        let mut ab = left.clone();
        ab.merge(&right);
        let mut ba = right;
        ba.merge(&left);
        let ma = ab.finish().unwrap();
        let mb = ba.finish().unwrap();
        for (a, b) in ma.means.iter().zip(&mb.means) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        for (a, b) in ma.stds.iter().zip(&mb.stds) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}
