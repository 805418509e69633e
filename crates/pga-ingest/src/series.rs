//! The proxy's series table: each sensor's series resolved once per
//! proxy.
//!
//! A fleet sample names its series by two numbers, `(unit, sensor)`. The
//! store names it by `(metric, tags)` strings, resolved through the codec's
//! series table into a [`Series`] (OpenTSDB's UID cache and TSUID). Doing
//! that for every sample spells both numbers in decimal, hashes the
//! strings and takes the table's shared lock each time, for a set of
//! series that never changes. A [`SensorSeries`] does it once per sensor
//! and keeps the entry under the two numbers.

use std::sync::Arc;

use pga_sensorgen::SensorSample;
use pga_tsdb::{KeyCodec, Series, SeriesPoint};

/// The metric every fleet sample is stored under (§III-A: "a metric called
/// 'energy' with tags for 'unit' and 'sensor'").
const METRIC: &str = "energy";

/// `(unit, sensor) → Series` for fleet samples, dense by unit then
/// sensor; one per proxy, which resolves every sample it is submitted.
///
/// The first lookup of a sensor resolves its name through the codec,
/// spelled as every sample always was: metric `energy`, tags
/// `[("unit", u), ("sensor", s)]` in decimal. Every later lookup indexes
/// two vectors: no lock, no hashing, no allocation. The ids are a fleet's
/// dense indices; a vector grows to the largest one seen.
pub struct SensorSeries {
    codec: KeyCodec,
    units: Vec<Vec<Option<Arc<Series>>>>,
}

impl SensorSeries {
    /// An empty table resolving through `codec`. The series it returns are
    /// valid on every TSD built on `codec` or a clone of it.
    pub fn new(codec: KeyCodec) -> Self {
        SensorSeries {
            codec,
            units: Vec::new(),
        }
    }

    /// The series of sensor `sensor` of unit `unit`.
    pub fn get(&mut self, unit: u32, sensor: u32) -> &Arc<Series> {
        let (u, s) = (unit as usize, sensor as usize);
        if self.units.len() <= u {
            self.units.resize_with(u + 1, Vec::new);
        }
        let sensors = &mut self.units[u];
        if sensors.len() <= s {
            sensors.resize(s + 1, None);
        }
        let codec = &self.codec;
        sensors[s].get_or_insert_with(|| {
            let (unit, sensor) = (unit.to_string(), sensor.to_string());
            codec.resolve(METRIC, &[("unit", &unit), ("sensor", &sensor)])
        })
    }

    /// `sample` as [`pga_tsdb::Tsd::put_series_batch`] takes it.
    pub fn point(&mut self, sample: &SensorSample) -> SeriesPoint {
        let series = self.get(sample.unit, sample.sensor).clone();
        (series, sample.timestamp, sample.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_tsdb::{KeyCodecConfig, UidTable};

    #[test]
    fn a_sensor_resolves_to_the_series_its_tag_strings_name() {
        let codec = KeyCodec::new(KeyCodecConfig::default(), UidTable::new());
        let mut table = SensorSeries::new(codec.clone());
        let first = table.get(12, 3).clone();
        assert_eq!(first.metric(), METRIC);
        let by_name = codec.resolve(METRIC, &[("sensor", "3"), ("unit", "12")]);
        assert!(Arc::ptr_eq(&first, &by_name));
        assert!(Arc::ptr_eq(table.get(12, 3), &first));
        // Lower ids after a higher one: the vectors only grow.
        let low = table.get(0, 0).clone();
        assert!(Arc::ptr_eq(
            &low,
            &codec.resolve(METRIC, &[("unit", "0"), ("sensor", "0")])
        ));
        assert_eq!(codec.series_count(), 2);
    }
}
