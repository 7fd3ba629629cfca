//! Virtual-time-driven metrics time-series sampler.
//!
//! A [`TimeSeriesSampler`] snapshots a fixed set of columns at the
//! virtual instants its caller picks. Counter columns record the delta
//! since the previous sample (per-interval rates); gauge columns record
//! the raw value. Because samples are stamped with virtual time and fed
//! from virtual-time counters only, two runs of one build export
//! byte-identical CSV — the determinism quarantine of DESIGN.md §14
//! applies to the wall-clock profiler, not to this sampler.
//!
//! The series is unbounded: every run that samples is a bounded
//! scenario (the shipped one holds 32 rows), so it keeps every row.

use kite_sim::Nanos;

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
#[derive(Debug, Clone)]
struct Sample {
    at: Nanos,
    values: Vec<u64>,
}

/// Deterministic metrics time series. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesSampler {
    columns: Vec<Column>,
    rows: Vec<Sample>,
}

impl TimeSeriesSampler {
    /// A sampler with no columns and no samples.
    pub fn new() -> Self {
        TimeSeriesSampler::default()
    }

    /// Append a column. Builder-style; call once per column before the
    /// first [`record`](Self::record).
    #[must_use]
    pub fn with_column(mut self, name: &str, kind: SampleKind) -> Self {
        assert!(
            self.rows.is_empty(),
            "columns must be declared before the first sample"
        );
        self.columns.push(Column {
            name: name.to_string(),
            kind,
            prev: 0,
        });
        self
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
        self.rows.push(Sample { at, values });
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
        for s in &self.rows {
            out.push_str(&s.at.as_nanos().to_string());
            for v in &s.values {
                out.push(',');
                out.push_str(&v.to_string());
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> TimeSeriesSampler {
        TimeSeriesSampler::new()
            .with_column("bytes", SampleKind::Counter)
            .with_column("depth", SampleKind::Gauge)
    }

    #[test]
    fn counters_record_deltas_gauges_record_raw() {
        let mut s = mk();
        s.record(Nanos::from_millis(1), &[100, 7]);
        s.record(Nanos::from_millis(2), &[250, 3]);
        // The counter's second row is 250 - 100; the gauge's is raw.
        assert_eq!(
            s.to_csv(),
            "t_ns,bytes,depth\n1000000,100,7\n2000000,150,3\n"
        );
    }

    #[test]
    #[should_panic(expected = "sample width")]
    fn wrong_width_panics() {
        let mut s = mk();
        s.record(Nanos::from_millis(1), &[1]);
    }
}
