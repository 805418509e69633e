//! Synthetic power-generating-asset fleet generator.
//!
//! Reproduces the paper's evaluation dataset (§II-A): real turbine data is
//! proprietary, so the authors generated a fleet of **100 simulated units,
//! each with 1000 sensors** (on the order of the ~3000 sensors in a Siemens
//! SGT5-8000H), with three fault classes:
//!
//! 1. pure random noise (healthy baseline / control),
//! 2. noise **plus a gradual degradation signal** (slow drift), and
//! 3. noise **plus a sharp shift** (step change in the mean),
//!
//! where "injected faults are correlated across sensors" — a fault touches a
//! *group* of sensors simultaneously (think pressure and temperature moving
//! together), and the group's noise is coloured with an equicorrelation
//! structure via a Cholesky factor.
//!
//! The generator is fully deterministic for a given [`FleetConfig::seed`]
//! and exposes:
//!
//! * [`Fleet::sample`] — the value of one `(unit, sensor, t)` cell,
//! * [`Fleet::tick`] / [`FleetStream`] — batched samples per time step, the
//!   shape the ingestion pipeline consumes,
//! * [`Fleet::observation_window`] — a time × sensor matrix for training
//!   and evaluation,
//! * [`Fleet::truth`] — ground-truth anomaly labels for scoring E5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod fault;
mod fleet;

pub use config::{FleetConfig, FAULT_GROUP_SIZE};
pub use fault::{FaultClass, FaultSpec};
pub use fleet::{Fleet, FleetStream, SensorSample};
