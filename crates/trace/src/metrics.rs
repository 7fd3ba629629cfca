//! Named metric snapshots with one stable text and JSON rendering.
//!
//! Every reporter in the workspace — examples, tests, `repro --json` —
//! goes through [`MetricsSnapshot`], so what a run prints and what the
//! machine-readable results file holds cannot drift apart. Renderings
//! are deterministic: metrics appear in insertion order and floats are
//! formatted with a fixed number of decimals.

use std::fmt::Write as _;

/// A metric's value: integral counters or fixed-point-rendered floats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// An exact counter (events, bytes, virtual nanoseconds).
    Int(u64),
    /// A derived ratio or mean; rendered with three decimals.
    Float(f64),
}

/// One named, unit-annotated measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, e.g. `"crash_to_first_byte"`.
    pub name: String,
    /// Unit label, e.g. `"ns"`, `"bytes"`, `"count"`.
    pub unit: &'static str,
    /// The measured value.
    pub value: MetricValue,
}

/// A named collection of metrics from one scenario run.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Scenario label, e.g. `"mechanisms/grant_copy"`.
    pub scenario: String,
    /// Metrics in insertion order (renderings preserve it).
    pub metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// An empty snapshot for `scenario`.
    pub fn new(scenario: impl Into<String>) -> MetricsSnapshot {
        MetricsSnapshot {
            scenario: scenario.into(),
            metrics: Vec::new(),
        }
    }

    /// Appends an integer-valued metric.
    pub fn push_int(&mut self, name: impl Into<String>, unit: &'static str, value: u64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value: MetricValue::Int(value),
        });
    }

    /// Appends a float-valued metric.
    pub fn push_float(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value: MetricValue::Float(value),
        });
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Renders the snapshot as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "[{}]", self.scenario);
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:width$}  {} {}",
                m.name,
                render_value(m.value),
                m.unit,
            );
        }
        out
    }
}

fn render_value(v: MetricValue) -> String {
    match v {
        MetricValue::Int(i) => i.to_string(),
        MetricValue::Float(f) => format!("{f:.3}"),
    }
}

/// Escapes `s` for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders snapshots as the machine-readable results format: a JSON
/// array of `{"scenario", "metric", "unit", "value"}` rows.
pub fn render_json(snapshots: &[MetricsSnapshot]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for snap in snapshots {
        for m in &snap.metrics {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "  {{\"scenario\":\"{}\",\"metric\":\"{}\",\"unit\":\"{}\",\"value\":{}}}",
                json_escape(&snap.scenario),
                json_escape(&m.name),
                json_escape(m.unit),
                render_value(m.value),
            );
        }
    }
    out.push_str("\n]\n");
    out
}

/// Validates a `render_json`-shaped document: it must parse and every
/// row must carry the four required keys with a numeric value.
pub fn validate_json(doc: &str) -> Result<usize, String> {
    let value = crate::json::parse(doc)?;
    let rows = value.as_array().ok_or("results root must be an array")?;
    for (i, row) in rows.iter().enumerate() {
        for key in ["scenario", "metric", "unit"] {
            row.get(key)
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("row {i}: missing string key {key:?}"))?;
        }
        row.get("value")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("row {i}: missing numeric key \"value\""))?;
    }
    Ok(rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new("mechanisms/grant_copy");
        s.push_int("batched_cost", "ns", 41_804);
        s.push_int("hypercalls_saved", "count", 31);
        s.push_float("bytes_per_hypercall", "bytes", 48_448.0);
        s
    }

    #[test]
    fn text_rendering_is_stable() {
        // Golden rendering: any change here is a deliberate format break.
        let expected = "\
[mechanisms/grant_copy]
  batched_cost         41804 ns
  hypercalls_saved     31 count
  bytes_per_hypercall  48448.000 bytes
";
        assert_eq!(sample().render_text(), expected);
    }

    #[test]
    fn json_rendering_is_stable_and_validates() {
        let expected = "\
[
  {\"scenario\":\"mechanisms/grant_copy\",\"metric\":\"batched_cost\",\"unit\":\"ns\",\"value\":41804},
  {\"scenario\":\"mechanisms/grant_copy\",\"metric\":\"hypercalls_saved\",\"unit\":\"count\",\"value\":31},
  {\"scenario\":\"mechanisms/grant_copy\",\"metric\":\"bytes_per_hypercall\",\"unit\":\"bytes\",\"value\":48448.000}
]
";
        let doc = render_json(&[sample()]);
        assert_eq!(doc, expected);
        assert_eq!(validate_json(&doc), Ok(3));
    }

    #[test]
    fn validation_rejects_malformed_rows() {
        assert!(validate_json("{\"not\":\"an array\"}").is_err());
        assert!(validate_json("[{\"scenario\":\"s\",\"metric\":\"m\",\"unit\":\"u\"}]").is_err());
        assert!(validate_json("[").is_err());
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
