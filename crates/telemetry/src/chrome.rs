//! Chrome trace-event export and a dependency-free validator.
//!
//! [`write_chrome_trace`] serialises a [`TraceLog`] as a Chrome
//! trace-event JSON array (one event per line) that loads directly into
//! `chrome://tracing` / Perfetto:
//!
//! - every span becomes a `"ph": "X"` complete event with `ts`/`dur` in
//!   **virtual microseconds** (the deterministic axis); the wall-clock
//!   duration rides along in `args.wall_us`;
//! - driver-side spans live on `pid` 0, worker-side task/kernel spans on
//!   `pid` = worker + 1, with `tid` lanes assigned greedily (first free
//!   lane in span order) so concurrent tasks of one worker stack nicely;
//! - trace counters become `"ph": "C"` events on `pid` 0.
//!
//! [`validate_chrome_trace`] re-parses an emitted file with the built-in
//! mini JSON parser ([`JsonValue::parse`]) and checks every event against
//! the trace-event schema — the CI smoke job and `dbtf stats --trace`
//! both go through it, so a malformed export fails loudly.

use crate::span::{SpanKind, TraceLog};
use std::io::{self, Write};

fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` for JSON: finite shortest-roundtrip, never NaN/inf.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Greedy lane assignment: first lane whose last end is `<=` the span's
/// start, in span order — deterministic because span order is.
#[derive(Default)]
struct Lanes {
    ends: Vec<f64>,
}

impl Lanes {
    fn assign(&mut self, start: f64, end: f64) -> usize {
        for (i, lane_end) in self.ends.iter_mut().enumerate() {
            if *lane_end <= start {
                *lane_end = end;
                return i;
            }
        }
        self.ends.push(end);
        self.ends.len() - 1
    }
}

/// Writes `log` as Chrome trace-event JSON. See the module docs for the
/// mapping. Events are emitted one per line so the file diffs cleanly.
pub fn write_chrome_trace(log: &TraceLog, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "[")?;
    let mut first = true;
    let mut line = String::new();

    // Per-worker lane state for task spans; kernel spans inherit the lane
    // of their parent task.
    let mut worker_lanes: Vec<Lanes> = Vec::new();
    // span id -> (pid, tid) for lane inheritance.
    let mut placed: Vec<(u64, i64, usize)> = Vec::new();

    for span in &log.spans {
        let us = |secs: f64| secs * 1e6;
        let (pid, tid) = match span.kind {
            SpanKind::Task => {
                let worker = span.worker.unwrap_or(0);
                if worker_lanes.len() <= worker {
                    worker_lanes.resize_with(worker + 1, Lanes::default);
                }
                let lane = worker_lanes[worker].assign(span.virtual_start, span.virtual_end);
                (worker as i64 + 1, lane)
            }
            SpanKind::Kernel => {
                let inherited = span.parent.and_then(|p| {
                    placed
                        .iter()
                        .find(|(id, _, _)| *id == p)
                        .map(|&(_, pid, tid)| (pid, tid))
                });
                inherited.unwrap_or((span.worker.map_or(0, |w| w as i64 + 1), 0))
            }
            _ => (0, 0),
        };
        placed.push((span.id, pid, tid));

        line.clear();
        line.push_str("  {\"name\": ");
        escape_json(span.name, &mut line);
        line.push_str(", \"cat\": ");
        escape_json(&span.kind.to_string(), &mut line);
        line.push_str(&format!(
            ", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {pid}, \"tid\": {tid}",
            fmt_f64(us(span.virtual_start)),
            fmt_f64(us(span.virtual_secs())),
        ));
        line.push_str(", \"args\": {");
        let mut first_arg = true;
        let mut push_arg = |line: &mut String, key: &str, val: String| {
            if !first_arg {
                line.push_str(", ");
            }
            first_arg = false;
            escape_json(key, line);
            line.push_str(": ");
            line.push_str(&val);
        };
        push_arg(&mut line, "wall_us", fmt_f64(us(span.wall_secs())));
        if let Some(p) = span.partition {
            push_arg(&mut line, "partition", p.to_string());
        }
        for (k, v) in &span.args {
            push_arg(&mut line, k, v.to_string());
        }
        line.push_str("}}");

        if !first {
            writeln!(w, ",")?;
        }
        first = false;
        w.write_all(line.as_bytes())?;
    }

    // Counters: one "C" event each, stamped at the end of the trace on
    // the virtual axis so they summarise the run.
    let trace_end = log
        .spans
        .iter()
        .map(|s| s.virtual_end)
        .fold(0.0f64, f64::max);
    for (name, value) in &log.counters {
        line.clear();
        line.push_str("  {\"name\": ");
        escape_json(name, &mut line);
        line.push_str(&format!(
            ", \"ph\": \"C\", \"ts\": {}, \"pid\": 0, \"tid\": 0, \"args\": {{\"value\": {}}}}}",
            fmt_f64(trace_end * 1e6),
            fmt_f64(*value),
        ));
        if !first {
            writeln!(w, ",")?;
        }
        first = false;
        w.write_all(line.as_bytes())?;
    }

    if !first {
        writeln!(w)?;
    }
    writeln!(w, "]")?;
    Ok(())
}

/// A parsed JSON value — the subset of JSON the trace format uses, parsed
/// by the built-in dependency-free parser.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, fields in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: a number that is whole,
    /// non-negative, and at most 2⁵³ (losslessly representable in the
    /// `f64` the parser stores). `12.5`, `-3`, and `1e300` are all `None`.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::String),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("invalid number at byte {start}"))?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("invalid escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape as one slice.
                // Both are ASCII, so the run ends on a character boundary,
                // and every byte is validated once: parsing stays linear.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| "invalid utf-8 in string".to_string())?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            other => return Err(format!("expected ',' or ']', got {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

/// Summary of a validated trace file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Number of `"X"` complete events.
    pub complete_events: usize,
    /// Number of `"C"` counter events.
    pub counter_events: usize,
    /// Per-category `(cat, count, total dur µs)` rows, first-seen order.
    pub categories: Vec<(String, usize, f64)>,
    /// Per-name `(name, count, total dur µs)` rows for superstep/operator
    /// events, first-seen order — the `dbtf stats` breakdown table.
    pub breakdown: Vec<(String, usize, f64)>,
}

/// Parses `text` as a Chrome trace-event JSON array and checks each event
/// against the schema: `name`/`ph` strings, numeric `ts`/`pid`/`tid`,
/// `dur` present and non-negative on `"X"` events, `args` an object when
/// present. Returns a [`TraceSummary`] on success.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let root = JsonValue::parse(text)?;
    let events = root
        .as_array()
        .ok_or("trace root must be a JSON array".to_string())?;
    let mut summary = TraceSummary::default();
    for (i, event) in events.iter().enumerate() {
        let err = |what: &str| format!("event {i}: {what}");
        if !matches!(event, JsonValue::Object(_)) {
            return Err(err("not an object"));
        }
        let name = event
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err("missing string \"name\""))?;
        let ph = event
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| err("missing string \"ph\""))?;
        let ts = event
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| err("missing numeric \"ts\""))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(err("\"ts\" must be finite and non-negative"));
        }
        event
            .get("pid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| err("missing numeric \"pid\""))?;
        event
            .get("tid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| err("missing numeric \"tid\""))?;
        if let Some(args) = event.get("args") {
            if !matches!(args, JsonValue::Object(_)) {
                return Err(err("\"args\" must be an object"));
            }
        }
        match ph {
            "X" => {
                let dur = event
                    .get("dur")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| err("\"X\" event missing numeric \"dur\""))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(err("\"dur\" must be finite and non-negative"));
                }
                summary.complete_events += 1;
                let cat = event
                    .get("cat")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string();
                match summary.categories.iter_mut().find(|(c, _, _)| *c == cat) {
                    Some(row) => {
                        row.1 += 1;
                        row.2 += dur;
                    }
                    None => summary.categories.push((cat.clone(), 1, dur)),
                }
                if cat == "superstep" || cat == "operator" {
                    match summary.breakdown.iter_mut().find(|(n, _, _)| n == name) {
                        Some(row) => {
                            row.1 += 1;
                            row.2 += dur;
                        }
                        None => summary.breakdown.push((name.to_string(), 1, dur)),
                    }
                }
            }
            "C" => {
                let args = event
                    .get("args")
                    .ok_or_else(|| err("\"C\" event missing \"args\""))?;
                args.get("value")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| err("\"C\" event missing args.value"))?;
                summary.counter_events += 1;
            }
            other => return Err(err(&format!("unsupported phase {other:?}"))),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanKind, Tracer};

    fn sample_log() -> TraceLog {
        let t = Tracer::enabled();
        let run = t.begin(SpanKind::Run, "run", 0.0);
        let sweep = t.record(
            SpanKind::Superstep,
            "cp.update.sweep",
            None,
            (0.0, 2.0),
            (0.0, 0.1),
            None,
            None,
            vec![("ops", 100), ("tasks", 2)],
        );
        let task0 = t.record(
            SpanKind::Task,
            "task",
            Some(sweep),
            (0.0, 1.0),
            (0.0, 0.05),
            Some(0),
            Some(0),
            vec![("ops", 50)],
        );
        t.record(
            SpanKind::Kernel,
            "kernel.score",
            Some(task0),
            (0.0, 0.5),
            (0.0, 0.02),
            Some(0),
            Some(0),
            vec![("ops", 25)],
        );
        t.record(
            SpanKind::Task,
            "task",
            Some(sweep),
            (0.0, 1.0),
            (0.0, 0.05),
            Some(0),
            Some(1),
            vec![("ops", 50)],
        );
        t.end(run, 2.0);
        t.set_counter("net.bytes", 4096.0);
        t.finish()
    }

    #[test]
    fn export_roundtrips_through_validator() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_chrome_trace(&log, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let summary = validate_chrome_trace(&text).unwrap();
        assert_eq!(summary.complete_events, 5);
        assert_eq!(summary.counter_events, 1);
        assert_eq!(summary.breakdown.len(), 1);
        assert_eq!(summary.breakdown[0].0, "cp.update.sweep");
    }

    #[test]
    fn concurrent_tasks_get_distinct_lanes() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_chrome_trace(&log, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let root = JsonValue::parse(&text).unwrap();
        let events = root.as_array().unwrap();
        let task_tids: Vec<f64> = events
            .iter()
            .filter(|e| e.get("cat").and_then(JsonValue::as_str) == Some("task"))
            .map(|e| e.get("tid").and_then(JsonValue::as_f64).unwrap())
            .collect();
        // Both tasks overlap on the virtual axis → different lanes.
        assert_eq!(task_tids.len(), 2);
        assert_ne!(task_tids[0], task_tids[1]);
        // Kernel inherits its parent task's lane and pid.
        let kernel = events
            .iter()
            .find(|e| e.get("cat").and_then(JsonValue::as_str) == Some("kernel"))
            .unwrap();
        assert_eq!(
            kernel.get("tid").and_then(JsonValue::as_f64),
            Some(task_tids[0])
        );
        assert_eq!(kernel.get("pid").and_then(JsonValue::as_f64), Some(1.0));
    }

    #[test]
    fn validator_rejects_malformed_events() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(
            validate_chrome_trace(r#"[{"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}]"#)
                .is_err(),
            "X without dur must fail"
        );
        assert!(
            validate_chrome_trace(
                r#"[{"name": "x", "ph": "X", "ts": 0, "dur": -1, "pid": 0, "tid": 0}]"#
            )
            .is_err(),
            "negative dur must fail"
        );
        assert!(validate_chrome_trace("[]").unwrap().complete_events == 0);
    }

    #[test]
    fn json_parser_handles_escapes_and_numbers() {
        let v = JsonValue::parse(r#"{"a": "x\n\"yA", "b": [1, -2.5e1, true, null]}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_str), Some("x\n\"yA"));
        let b = v.get("b").and_then(JsonValue::as_array).unwrap();
        assert_eq!(b[0].as_f64(), Some(1.0));
        assert_eq!(b[1].as_f64(), Some(-25.0));
        assert_eq!(b[2], JsonValue::Bool(true));
        assert_eq!(b[3], JsonValue::Null);
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("[1] garbage").is_err());
        assert!(JsonValue::parse(r#"["unterminated"#).is_err());
    }

    /// String parsing is linear in the input: a 4 MiB string (multi-byte
    /// characters and escapes mixed in) parses in well under a second.
    #[test]
    fn json_parser_is_linear_in_string_length() {
        let chunk = "abcdefgh\\n\\\"é\\u00e9";
        let expect_chunk = "abcdefgh\n\"éé";
        let reps = (4 << 20) / chunk.len();
        let text = format!("[\"{}\"]", chunk.repeat(reps));
        let t = std::time::Instant::now();
        let v = JsonValue::parse(&text).unwrap();
        let elapsed = t.elapsed();
        let got = v.as_array().unwrap()[0].as_str().unwrap();
        assert_eq!(got.len(), expect_chunk.len() * reps);
        assert!(got.starts_with(expect_chunk) && got.ends_with(expect_chunk));
        assert!(elapsed.as_secs_f64() < 1.0, "4 MiB string took {elapsed:?}");
    }
}
