//! Metric records and the JSON the ledger prints and writes.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What one workload pass produced.
#[derive(Clone, Debug, Default)]
pub struct Run {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Run {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} emitted twice"
        );
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A finite number as JSON (non-finite values become `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A string as a JSON literal.
pub fn string(s: &str) -> String {
    let mut out = String::from('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The single result line the ledger prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf_telemetry::JsonValue;

    #[test]
    fn result_line_is_valid_json_with_full_digits() {
        let mut run = Run::default();
        run.put("latency_ms", "ms", 1.203_456_789_123);
        run.put("setup_s", "s", 0.8127);
        let line = result_line(true, 1000, 0, &metrics_object(&run.metrics));
        let v = JsonValue::parse(&line).expect("valid JSON");
        let m = v.get("metrics").unwrap().get("latency_ms").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.203_456_789_123));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(1000));
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(string("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
