//! Virtual-time-driven metrics time-series sampler.
//!
//! A [`TimeSeriesSampler`] snapshots a fixed set of columns every N
//! virtual nanoseconds into a bounded ring. Counter columns record the
//! delta since the previous sample (per-interval rates); gauge columns
//! record the raw value. Because samples are stamped with virtual time
//! and fed from virtual-time counters only, two same-seed runs export
//! byte-identical CSV/JSON — the determinism quarantine of DESIGN.md
//! §14 applies to the wall-clock profiler, not to this sampler.
//!
//! The ring is bounded: once `capacity` samples are held, recording a
//! new one evicts the oldest (drop-oldest) and bumps [`TimeSeriesSampler::evicted`]
//! (`TimeSeriesSampler::evicted`), so week-long fleet runs cannot grow
//! memory without bound.

use kite_sim::Nanos;
use std::collections::VecDeque;

use crate::metrics::json_escape;

/// How a column's raw input turns into the recorded value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Monotonic counter: the sample records the delta since the last
    /// sample (first sample records the delta from zero).
    Counter,
    /// Instantaneous value: recorded as-is.
    Gauge,
}

#[derive(Debug, Clone)]
struct Column {
    name: String,
    kind: SampleKind,
    /// Last raw value seen, for counter deltas.
    prev: u64,
}

/// One recorded sample row: virtual timestamp plus one value per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    pub at: Nanos,
    pub values: Vec<u64>,
}

/// Bounded, deterministic metrics time series. See the module docs.
#[derive(Debug, Clone)]
pub struct TimeSeriesSampler {
    interval: Nanos,
    capacity: usize,
    columns: Vec<Column>,
    ring: VecDeque<Sample>,
    evicted: u64,
}

impl TimeSeriesSampler {
    /// A sampler that expects a sample every `interval` of virtual time
    /// and keeps at most `capacity` samples (oldest evicted first).
    /// `capacity` is clamped to at least 1.
    pub fn new(interval: Nanos, capacity: usize) -> Self {
        TimeSeriesSampler {
            interval,
            capacity: capacity.max(1),
            columns: Vec::new(),
            ring: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Append a column. Builder-style; call once per column before the
    /// first [`record`](Self::record).
    #[must_use]
    pub fn with_column(mut self, name: &str, kind: SampleKind) -> Self {
        assert!(
            self.ring.is_empty(),
            "columns must be declared before the first sample"
        );
        self.columns.push(Column {
            name: name.to_string(),
            kind,
            prev: 0,
        });
        self
    }

    /// Column names, in declaration order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Record one sample at virtual time `at`. `raw` must supply one
    /// value per declared column, in declaration order.
    pub fn record(&mut self, at: Nanos, raw: &[u64]) {
        assert_eq!(
            raw.len(),
            self.columns.len(),
            "sample width must match declared columns"
        );
        let values = self
            .columns
            .iter_mut()
            .zip(raw)
            .map(|(col, &v)| match col.kind {
                SampleKind::Counter => {
                    let delta = v.wrapping_sub(col.prev);
                    col.prev = v;
                    delta
                }
                SampleKind::Gauge => v,
            })
            .collect();
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(Sample { at, values });
    }

    /// Number of samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no samples have been recorded (or all were evicted and
    /// none re-recorded — impossible with drop-oldest, kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Samples evicted from the ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Iterate over held samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.ring.iter()
    }

    /// Render the series as CSV: a `t_ns` column plus one column per
    /// declared name. Deterministic: integer values, declaration order,
    /// `\n` line endings.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_ns");
        for c in &self.columns {
            out.push(',');
            out.push_str(&c.name);
        }
        out.push('\n');
        for s in &self.ring {
            out.push_str(&s.at.as_nanos().to_string());
            for v in &s.values {
                out.push(',');
                out.push_str(&v.to_string());
            }
            out.push('\n');
        }
        out
    }

    /// Render the series as JSON:
    /// `{"interval_ns":..,"evicted":..,"columns":[..],"samples":[{"t_ns":..,"v":[..]},..]}`.
    /// Deterministic for the same recorded samples.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"interval_ns\":{},\"evicted\":{},\"columns\":[",
            self.interval.as_nanos(),
            self.evicted
        ));
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", json_escape(&c.name)));
        }
        out.push_str("],\"samples\":[");
        for (i, s) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"t_ns\":{},\"v\":[", s.at.as_nanos()));
            for (j, v) in s.values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> TimeSeriesSampler {
        TimeSeriesSampler::new(Nanos::from_millis(1), 4)
            .with_column("bytes", SampleKind::Counter)
            .with_column("depth", SampleKind::Gauge)
    }

    #[test]
    fn counters_record_deltas_gauges_record_raw() {
        let mut s = mk();
        s.record(Nanos::from_millis(1), &[100, 7]);
        s.record(Nanos::from_millis(2), &[250, 3]);
        let rows: Vec<_> = s.samples().collect();
        assert_eq!(rows[0].values, vec![100, 7]);
        assert_eq!(rows[1].values, vec![150, 3]);
    }

    #[test]
    fn ring_is_bounded_drop_oldest() {
        let mut s = mk();
        for i in 1..=10u64 {
            s.record(Nanos::from_millis(i), &[i * 10, i]);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.evicted(), 6);
        let first = s.samples().next().unwrap();
        assert_eq!(first.at, Nanos::from_millis(7));
        // Counter deltas survive eviction: prev tracks the raw value.
        assert_eq!(first.values, vec![10, 7]);
    }

    #[test]
    fn csv_and_json_are_stable() {
        let mut s = mk();
        s.record(Nanos::from_millis(1), &[100, 7]);
        s.record(Nanos::from_millis(2), &[250, 3]);
        assert_eq!(
            s.to_csv(),
            "t_ns,bytes,depth\n1000000,100,7\n2000000,150,3\n"
        );
        assert_eq!(
            s.to_json(),
            "{\"interval_ns\":1000000,\"evicted\":0,\"columns\":[\"bytes\",\"depth\"],\
             \"samples\":[{\"t_ns\":1000000,\"v\":[100,7]},{\"t_ns\":2000000,\"v\":[150,3]}]}"
        );
    }

    #[test]
    fn json_parses_with_the_local_parser() {
        let mut s = mk();
        s.record(Nanos::from_millis(1), &[1, 2]);
        let parsed = crate::json::parse(&s.to_json()).expect("sampler JSON must parse");
        assert!(parsed.get("samples").is_some());
        assert!(parsed.get("columns").is_some());
    }

    #[test]
    fn json_escapes_column_names() {
        let name = "a\"b\\c";
        let s =
            TimeSeriesSampler::new(Nanos::from_millis(1), 1).with_column(name, SampleKind::Gauge);
        let parsed = crate::json::parse(&s.to_json()).expect("sampler JSON must parse");
        let columns = parsed.get("columns").and_then(|c| c.as_array());
        assert_eq!(columns.and_then(|c| c[0].as_str()), Some(name));
    }

    #[test]
    #[should_panic(expected = "sample width")]
    fn wrong_width_panics() {
        let mut s = mk();
        s.record(Nanos::from_millis(1), &[1]);
    }
}
