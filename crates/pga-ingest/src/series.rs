//! The proxy's series table: each sensor's series resolved once per
//! proxy.
//!
//! A fleet sample names its series by two numbers, `(unit, sensor)`. The
//! store names it by `(metric, tags)` strings, resolved through the codec's
//! series table into a [`Series`] (OpenTSDB's UID cache and TSUID). Doing
//! that for every sample spells both numbers in decimal, hashes the
//! strings and takes the table's shared lock each time, for a set of
//! series that never changes. A [`SensorSeries`] does it once per sensor
//! and keeps what a lane part needs of the entry under the two numbers:
//! the series' id and its lane.

use pga_sensorgen::SensorSample;
use pga_tsdb::{KeyCodec, Series, SeriesPoint};

/// The metric every fleet sample is stored under (§III-A: "a metric called
/// 'energy' with tags for 'unit' and 'sensor'").
const METRIC: &str = "energy";

/// The lane of `series` among `lanes`: its salt byte, modulo.
fn lane_of(series: &Series, lanes: usize) -> usize {
    series
        .tsuid()
        .first()
        .map_or(0, |&salt| salt as usize % lanes)
}

/// `(unit, sensor) → (series id, lane)` for fleet samples, dense by unit
/// then sensor; one per proxy, which looks up every sample it is
/// submitted.
///
/// The first lookup of a sensor resolves its name through the codec,
/// spelled as every sample always was: metric `energy`, tags
/// `[("unit", u), ("sensor", s)]` in decimal, and keeps the series' id in
/// the codec's series table and its lane among the proxy's lanes. Every
/// later lookup indexes two vectors: no lock, no hashing, no allocation,
/// and no reference count. The ids are a fleet's dense indices; a vector
/// grows to the largest one seen.
pub struct SensorSeries {
    codec: KeyCodec,
    lanes: usize,
    units: Vec<Vec<Option<(u32, usize)>>>,
}

impl SensorSeries {
    /// An empty table resolving through `codec`, for a proxy of `lanes`
    /// lanes (at least one). Its series ids name series on every TSD built
    /// on `codec` or a clone of it.
    pub fn new(codec: KeyCodec, lanes: usize) -> Self {
        SensorSeries {
            codec,
            lanes: lanes.max(1),
            units: Vec::new(),
        }
    }

    /// The codec the table resolves through: the one to group its points
    /// with ([`pga_tsdb::SeriesRuns::group`]).
    pub fn codec(&self) -> &KeyCodec {
        &self.codec
    }

    /// The series id and lane of sensor `sensor` of unit `unit`.
    pub fn get(&mut self, unit: u32, sensor: u32) -> (u32, usize) {
        let (u, s) = (unit as usize, sensor as usize);
        if self.units.len() <= u {
            self.units.resize_with(u + 1, Vec::new);
        }
        let sensors = &mut self.units[u];
        if sensors.len() <= s {
            sensors.resize(s + 1, None);
        }
        let (codec, lanes) = (&self.codec, self.lanes);
        *sensors[s].get_or_insert_with(|| {
            let (unit, sensor) = (unit.to_string(), sensor.to_string());
            let series = codec.resolve(METRIC, &[("unit", &unit), ("sensor", &sensor)]);
            (series.id(), lane_of(&series, lanes))
        })
    }

    /// `sample`'s lane, and the point a lane part carries of it.
    pub fn point(&mut self, sample: &SensorSample) -> (usize, SeriesPoint) {
        let (id, lane) = self.get(sample.unit, sample.sensor);
        (lane, (id, sample.timestamp, sample.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_tsdb::{KeyCodecConfig, UidTable};

    #[test]
    fn a_sensor_resolves_to_the_series_its_tag_strings_name() {
        let codec = KeyCodec::new(
            KeyCodecConfig {
                salt_buckets: 8,
                ..KeyCodecConfig::default()
            },
            UidTable::new(),
        );
        let mut table = SensorSeries::new(codec.clone(), 3);
        let first = table.get(12, 3);
        let by_name = codec.resolve(METRIC, &[("sensor", "3"), ("unit", "12")]);
        assert_eq!(first, (by_name.id(), by_name.tsuid()[0] as usize % 3));
        assert_eq!(table.get(12, 3), first);
        // Lower ids after a higher one: the vectors only grow.
        let low = codec.resolve(METRIC, &[("unit", "0"), ("sensor", "0")]);
        assert_eq!(table.get(0, 0), (low.id(), low.tsuid()[0] as usize % 3));
        assert_eq!(codec.series_count(), 2);
        let sample = SensorSample {
            unit: 12,
            sensor: 3,
            timestamp: 7,
            value: 0.5,
        };
        assert_eq!(table.point(&sample), (first.1, (first.0, 7, 0.5)));
    }
}
