// R8 fixture: serde back-compat of PlatformConfig-reachable structs,
// lexed with origin pga-platform::fx_config. Lines tagged `V:<rule>`
// must be flagged. This file is never compiled — it is raw input for
// the analyzer tests; the struct names reuse the real BASELINE keys so
// the founding-field table applies.

use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlatformConfig {
    // Founding fields (named in BASELINE): present since day one, clean.
    pub fleet: FleetConfig,
    pub batch_size: usize,
    // Defaulted addition: old configs still parse, clean.
    #[serde(default)]
    pub new_knob: u64,
    // Option absorbs absence on its own, clean.
    pub opt_knob: Option<u64>,
    // Defaulted addition pulling another struct into reachability.
    #[serde(default)]
    pub query: QueryConfig,
    // Bare addition: an old on-disk config is missing it and fails to parse.
    pub bare_knob: u64, // V:config-compat
    // Waived addition: the operator migration rewrites configs in lockstep.
    // pga-allow(config-compat): 0.9 -> 1.0 migration rewrites every stored config in the same release
    pub forced_knob: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetConfig {
    pub units: usize,
    // Reachable through PlatformConfig.fleet, so the same contract applies.
    pub added_rate: f64, // V:config-compat
}

// Container-level default: every field is defaulted at once, clean.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct QueryConfig {
    pub rollups_enabled: bool,
    pub brand_new: u64,
}

// Not reachable from PlatformConfig and absent from BASELINE: treated as
// founding-complete, never checked.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScratchConfig {
    pub anything: u64,
}
