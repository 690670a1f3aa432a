//! The `dbtf serve` wire protocol: line-delimited JSON requests, typed
//! JSON replies.
//!
//! Each request line is either one JSON object or a JSON array of
//! objects (a batch); the reply mirrors the shape — one object, or an
//! array with one reply per element in order. Every request may carry a
//! numeric `"id"`, echoed verbatim in its reply so pipelined clients can
//! match responses.
//!
//! ```text
//! {"id":1,"q":"point","i":3,"j":0,"k":7}      → {"id":1,"ok":true,"value":true}
//! {"id":2,"q":"slice","mode":3,"i":3,"j":0}   → {"id":2,"ok":true,"indices":[2,7]}
//! {"id":3,"q":"topk","mode":1,"entity":3,"k":2}
//!                                             → {"id":3,"ok":true,"columns":[[4,121],[0,96]]}
//! {"q":"ping"} / {"q":"stats"} / {"q":"info"} / {"q":"shutdown"}
//! ```
//!
//! `slice` fixes two axes and leaves one free: `mode` names the free
//! axis (1 = i, 2 = j, 3 = k, the paper's unfolding-mode convention) and
//! the request carries the *fixed* axes by name — `mode:3` fixes `i` and
//! `j` and answers the fiber `X̃[i, j, :]`. `topk`'s `mode` names which
//! factor the entity indexes (1 = A rows, 2 = B, 3 = C).
//!
//! Failures follow the `crates/wire` discipline: every malformed input
//! maps to a typed [`RequestError`] with a stable machine-readable
//! `code` — `parse`, `bad_request`, `unknown_query`, `out_of_range`,
//! `oversized`, `batch_limit`, `draining`, `busy` — returned as
//! `{"ok":false,"code":...,"error":...}`, and hard limits
//! ([`ServeLimits`]) fail fast before any large allocation.

use dbtf_telemetry::JsonValue;

use crate::engine::QueryError;

/// Hard input limits, enforced before parsing.
#[derive(Clone, Copy, Debug)]
pub struct ServeLimits {
    /// Longest accepted request line in bytes (newline excluded). A
    /// connection that exceeds it gets an `oversized` error and is
    /// closed — the remainder of the line is never buffered.
    pub max_line_bytes: usize,
    /// Most requests accepted in one batch array.
    pub max_batch: usize,
}

impl Default for ServeLimits {
    fn default() -> ServeLimits {
        ServeLimits {
            max_line_bytes: 1 << 20,
            max_batch: 256,
        }
    }
}

/// One decoded query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `point`: is cell `X̃[i, j, k]` set?
    Point {
        /// Mode-1 index.
        i: usize,
        /// Mode-2 index.
        j: usize,
        /// Mode-3 index.
        k: usize,
    },
    /// `slice`: the nonzero indices of one fiber.
    Slice {
        /// The free axis, 0-based (already converted from wire `mode`).
        free_mode: usize,
        /// Fixed index on the lower fixed mode.
        lo: usize,
        /// Fixed index on the higher fixed mode.
        hi: usize,
    },
    /// `topk`: strongest factor columns for one entity.
    Topk {
        /// Which factor the entity indexes, 0-based.
        mode: usize,
        /// The entity's row index.
        entity: usize,
        /// How many columns to return.
        k: usize,
    },
    /// Liveness probe.
    Ping,
    /// Counter snapshot.
    Stats,
    /// Store metadata (dims, rank, set version, source).
    Info,
    /// `reload`: hot-swap a new factor-set generation into the server.
    Reload {
        /// Path (on the server's filesystem) of the `DBTFFSET` store or
        /// checkpoint to load.
        path: String,
        /// Optional storage source override (`"ram"` or `"mmap"`);
        /// defaults to how the serving store was opened.
        source: Option<String>,
    },
    /// Begin graceful drain; this reply is the connection's last.
    Shutdown,
}

/// A typed protocol failure: stable `code` plus human message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// Machine-readable error class (`parse`, `bad_request`, ...).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    /// The line or element was not valid JSON.
    pub fn parse(message: impl Into<String>) -> RequestError {
        RequestError {
            code: "parse",
            message: message.into(),
        }
    }
    /// Valid JSON, but fields are missing or mistyped.
    pub fn bad_request(message: impl Into<String>) -> RequestError {
        RequestError {
            code: "bad_request",
            message: message.into(),
        }
    }
    /// The `q` field names no known query.
    pub fn unknown_query(q: &str) -> RequestError {
        RequestError {
            code: "unknown_query",
            message: format!(
                "unknown query {q:?} (expected point, slice, topk, ping, stats, info, reload, \
                 or shutdown)"
            ),
        }
    }
    /// A reload could not be applied (unopenable store, dims
    /// mismatch). The serving generation is unchanged.
    pub fn reload(message: impl Into<String>) -> RequestError {
        RequestError {
            code: "reload",
            message: message.into(),
        }
    }
    /// An index or mode is outside the served factor set.
    pub fn out_of_range(message: impl Into<String>) -> RequestError {
        RequestError {
            code: "out_of_range",
            message: message.into(),
        }
    }
    /// The request line exceeded [`ServeLimits::max_line_bytes`].
    pub fn oversized(limit: usize) -> RequestError {
        RequestError {
            code: "oversized",
            message: format!("request line exceeds {limit} bytes; connection closing"),
        }
    }
    /// The batch array exceeded [`ServeLimits::max_batch`].
    pub fn batch_limit(got: usize, limit: usize) -> RequestError {
        RequestError {
            code: "batch_limit",
            message: format!("batch of {got} requests exceeds the limit of {limit}"),
        }
    }
    /// The server is draining and takes no new work.
    pub fn draining() -> RequestError {
        RequestError {
            code: "draining",
            message: "server is draining; connection closing".into(),
        }
    }
    /// The server already holds `limit` open connections; this one is
    /// refused and closed.
    pub fn busy(limit: usize) -> RequestError {
        RequestError {
            code: "busy",
            message: format!("server is at its limit of {limit} connections; connection closing"),
        }
    }
}

impl From<QueryError> for RequestError {
    fn from(err: QueryError) -> RequestError {
        match err {
            QueryError::OutOfRange(msg) => RequestError::out_of_range(msg),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for RequestError {}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedLine {
    /// Whether the line was a batch array (reply must be an array too).
    pub batch: bool,
    /// Per-request outcomes with their echoed ids, in request order.
    pub items: Vec<(Option<u64>, Result<Request, RequestError>)>,
}

/// Parses one request line (already length-checked by the reader).
pub fn parse_line(line: &str, limits: &ServeLimits) -> ParsedLine {
    let value = match JsonValue::parse(line.trim()) {
        Ok(value) => value,
        Err(err) => {
            return ParsedLine {
                batch: false,
                items: vec![(
                    None,
                    Err(RequestError::parse(format!("invalid JSON: {err}"))),
                )],
            }
        }
    };
    match value {
        JsonValue::Array(elements) => {
            if elements.len() > limits.max_batch {
                return ParsedLine {
                    batch: false,
                    items: vec![(
                        None,
                        Err(RequestError::batch_limit(elements.len(), limits.max_batch)),
                    )],
                };
            }
            ParsedLine {
                batch: true,
                items: elements.iter().map(parse_request).collect(),
            }
        }
        other => ParsedLine {
            batch: false,
            items: vec![parse_request(&other)],
        },
    }
}

/// Pulls a required non-negative integer field.
fn field(obj: &JsonValue, name: &str) -> Result<usize, RequestError> {
    match obj.get(name) {
        None => Err(RequestError::bad_request(format!("missing field {name:?}"))),
        Some(v) => v.as_u64().map(|n| n as usize).ok_or_else(|| {
            RequestError::bad_request(format!("field {name:?} must be a non-negative integer"))
        }),
    }
}

/// Pulls a required string field.
fn string_field(obj: &JsonValue, name: &str) -> Result<String, RequestError> {
    match obj.get(name) {
        None => Err(RequestError::bad_request(format!("missing field {name:?}"))),
        Some(v) => v
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| RequestError::bad_request(format!("field {name:?} must be a string"))),
    }
}

/// Pulls an optional string field (present ⇒ must be a string).
fn optional_string_field(obj: &JsonValue, name: &str) -> Result<Option<String>, RequestError> {
    match obj.get(name) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| RequestError::bad_request(format!("field {name:?} must be a string"))),
    }
}

/// The wire `mode` (1-based, per the paper's unfolding convention) as a
/// 0-based axis.
fn mode_field(obj: &JsonValue) -> Result<usize, RequestError> {
    let mode = field(obj, "mode")?;
    if (1..=3).contains(&mode) {
        Ok(mode - 1)
    } else {
        Err(RequestError::out_of_range(format!(
            "mode = {mode} out of range (1, 2, or 3)"
        )))
    }
}

fn parse_request(value: &JsonValue) -> (Option<u64>, Result<Request, RequestError>) {
    if !matches!(value, JsonValue::Object(_)) {
        return (
            None,
            Err(RequestError::bad_request("request must be a JSON object")),
        );
    }
    let id = value.get("id").and_then(JsonValue::as_u64);
    let request = (|| {
        let q = value
            .get("q")
            .ok_or_else(|| RequestError::bad_request("missing field \"q\""))?
            .as_str()
            .ok_or_else(|| RequestError::bad_request("field \"q\" must be a string"))?;
        match q {
            "point" => Ok(Request::Point {
                i: field(value, "i")?,
                j: field(value, "j")?,
                k: field(value, "k")?,
            }),
            "slice" => {
                let free_mode = mode_field(value)?;
                // The request names the *fixed* axes; the lower-mode one
                // is `lo` (matching the engine's convention).
                let (lo_name, hi_name) = match free_mode {
                    0 => ("j", "k"),
                    1 => ("i", "k"),
                    _ => ("i", "j"),
                };
                Ok(Request::Slice {
                    free_mode,
                    lo: field(value, lo_name)?,
                    hi: field(value, hi_name)?,
                })
            }
            "topk" => Ok(Request::Topk {
                mode: mode_field(value)?,
                entity: field(value, "entity")?,
                k: field(value, "k")?,
            }),
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "info" => Ok(Request::Info),
            "reload" => Ok(Request::Reload {
                path: string_field(value, "path")?,
                source: optional_string_field(value, "source")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(RequestError::unknown_query(other)),
        }
    })();
    (id, request)
}

/// Appends `s` as a JSON string literal (quotes included).
pub fn push_json_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn open_reply(id: Option<u64>, ok: bool) -> String {
    match id {
        Some(id) => format!("{{\"id\":{id},\"ok\":{ok}"),
        None => format!("{{\"ok\":{ok}"),
    }
}

/// `point` reply.
pub fn reply_point(id: Option<u64>, value: bool) -> String {
    format!("{},\"value\":{value}}}", open_reply(id, true))
}

/// `slice` reply.
pub fn reply_slice(id: Option<u64>, indices: &[usize]) -> String {
    let mut out = open_reply(id, true);
    out.push_str(",\"indices\":[");
    for (n, idx) in indices.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str(&idx.to_string());
    }
    out.push_str("]}");
    out
}

/// `topk` reply: `[[column, weight], ...]` strongest first.
pub fn reply_topk(id: Option<u64>, columns: &[(usize, u64)]) -> String {
    let mut out = open_reply(id, true);
    out.push_str(",\"columns\":[");
    for (n, (col, weight)) in columns.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{col},{weight}]"));
    }
    out.push_str("]}");
    out
}

/// `ping` reply.
pub fn reply_ping(id: Option<u64>) -> String {
    format!("{},\"pong\":true}}", open_reply(id, true))
}

/// `info` reply.
pub fn reply_info(
    id: Option<u64>,
    dims: [usize; 3],
    rank: usize,
    set_version: u64,
    source: &str,
) -> String {
    let mut out = open_reply(id, true);
    out.push_str(&format!(
        ",\"dims\":[{},{},{}],\"rank\":{rank},\"set_version\":{set_version},\"source\":",
        dims[0], dims[1], dims[2]
    ));
    push_json_string(source, &mut out);
    out.push('}');
    out
}

/// `stats` reply: the counter snapshot as one flat object.
pub fn reply_stats(id: Option<u64>, counters: &[(&'static str, f64)]) -> String {
    let mut out = open_reply(id, true);
    out.push_str(",\"counters\":{");
    for (n, (name, value)) in counters.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        push_json_string(name, &mut out);
        out.push_str(&format!(":{value}"));
    }
    out.push_str("}}");
    out
}

/// `reload` reply: the new generation's identity.
pub fn reply_reload(id: Option<u64>, set_version: u64, generation: u64) -> String {
    format!(
        "{},\"reloaded\":true,\"set_version\":{set_version},\"generation\":{generation}}}",
        open_reply(id, true)
    )
}

/// `shutdown` acknowledgment.
pub fn reply_shutdown(id: Option<u64>) -> String {
    format!("{},\"draining\":true}}", open_reply(id, true))
}

/// Any error, with its stable code.
pub fn reply_error(id: Option<u64>, err: &RequestError) -> String {
    let mut out = open_reply(id, false);
    out.push_str(",\"code\":");
    push_json_string(err.code, &mut out);
    out.push_str(",\"error\":");
    push_json_string(&err.message, &mut out);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> ServeLimits {
        ServeLimits::default()
    }

    fn parse_one(line: &str) -> (Option<u64>, Result<Request, RequestError>) {
        let parsed = parse_line(line, &limits());
        assert!(!parsed.batch);
        assert_eq!(parsed.items.len(), 1);
        parsed.items.into_iter().next().unwrap()
    }

    #[test]
    fn parses_every_query_kind() {
        assert_eq!(
            parse_one(r#"{"id":7,"q":"point","i":1,"j":2,"k":3}"#),
            (Some(7), Ok(Request::Point { i: 1, j: 2, k: 3 }))
        );
        assert_eq!(
            parse_one(r#"{"q":"slice","mode":3,"i":4,"j":5}"#),
            (
                None,
                Ok(Request::Slice {
                    free_mode: 2,
                    lo: 4,
                    hi: 5
                })
            )
        );
        assert_eq!(
            parse_one(r#"{"q":"slice","mode":1,"j":4,"k":5}"#),
            (
                None,
                Ok(Request::Slice {
                    free_mode: 0,
                    lo: 4,
                    hi: 5
                })
            )
        );
        assert_eq!(
            parse_one(r#"{"q":"slice","mode":2,"i":4,"k":5}"#),
            (
                None,
                Ok(Request::Slice {
                    free_mode: 1,
                    lo: 4,
                    hi: 5
                })
            )
        );
        assert_eq!(
            parse_one(r#"{"id":0,"q":"topk","mode":2,"entity":9,"k":4}"#),
            (
                Some(0),
                Ok(Request::Topk {
                    mode: 1,
                    entity: 9,
                    k: 4
                })
            )
        );
        for (q, want) in [
            ("ping", Request::Ping),
            ("stats", Request::Stats),
            ("info", Request::Info),
            ("shutdown", Request::Shutdown),
        ] {
            assert_eq!(parse_one(&format!(r#"{{"q":"{q}"}}"#)), (None, Ok(want)));
        }
        assert_eq!(
            parse_one(r#"{"id":4,"q":"reload","path":"/tmp/f.dbtfs"}"#),
            (
                Some(4),
                Ok(Request::Reload {
                    path: "/tmp/f.dbtfs".into(),
                    source: None,
                })
            )
        );
        assert_eq!(
            parse_one(r#"{"q":"reload","path":"f.dbtfs","source":"mmap","delta":"d.delta"}"#),
            (
                None,
                Ok(Request::Reload {
                    path: "f.dbtfs".into(),
                    source: Some("mmap".into()),
                })
            )
        );
    }

    #[test]
    fn malformed_inputs_get_stable_codes() {
        let code = |line: &str| parse_one(line).1.unwrap_err().code;
        assert_eq!(code("not json at all"), "parse");
        assert_eq!(code(r#"{"q":"point","i":1,"j":2}"#), "bad_request"); // missing k
        assert_eq!(code(r#"{"q":"point","i":-1,"j":2,"k":3}"#), "bad_request");
        assert_eq!(code(r#"{"q":"point","i":1.5,"j":2,"k":3}"#), "bad_request");
        assert_eq!(code(r#"{"q":"frobnicate"}"#), "unknown_query");
        assert_eq!(code(r#"{"i":1,"j":2,"k":3}"#), "bad_request"); // missing q
        assert_eq!(code(r#"{"q":17}"#), "bad_request");
        assert_eq!(
            code(r#"{"q":"slice","mode":4,"i":0,"j":0}"#),
            "out_of_range"
        );
        assert_eq!(
            code(r#"{"q":"slice","mode":0,"i":0,"j":0}"#),
            "out_of_range"
        );
        assert_eq!(code("3"), "bad_request"); // JSON, but not an object
                                              // slice mode 3 fixes i and j; sending k instead is a bad request.
        assert_eq!(code(r#"{"q":"slice","mode":3,"i":0,"k":0}"#), "bad_request");
        assert_eq!(code(r#"{"q":"reload"}"#), "bad_request"); // missing path
        assert_eq!(code(r#"{"q":"reload","path":7}"#), "bad_request");
        // Keys the parser does not read are ignored whatever their type
        // (older clients still send a `delta` path with `reload`).
        assert!(parse_one(r#"{"q":"reload","path":"f","delta":3}"#)
            .1
            .is_ok());
    }

    #[test]
    fn batches_parse_element_wise() {
        let line =
            r#"[{"id":1,"q":"ping"},{"id":2,"q":"nope"},{"id":3,"q":"point","i":0,"j":0,"k":0}]"#;
        let parsed = parse_line(line, &limits());
        assert!(parsed.batch);
        assert_eq!(parsed.items.len(), 3);
        assert_eq!(parsed.items[0], (Some(1), Ok(Request::Ping)));
        assert_eq!(
            parsed.items[1].1.as_ref().unwrap_err().code,
            "unknown_query"
        );
        assert!(parsed.items[2].1.is_ok());
    }

    #[test]
    fn oversize_batches_fail_as_one_error() {
        let limits = ServeLimits {
            max_batch: 2,
            ..ServeLimits::default()
        };
        let parsed = parse_line(r#"[{"q":"ping"},{"q":"ping"},{"q":"ping"}]"#, &limits);
        assert!(!parsed.batch, "limit violation answers as a single object");
        assert_eq!(parsed.items.len(), 1);
        assert_eq!(parsed.items[0].1.as_ref().unwrap_err().code, "batch_limit");
    }

    #[test]
    fn replies_are_valid_json_with_ids_echoed() {
        for (reply, probe) in [
            (reply_point(Some(9), true), ("value", "true")),
            (reply_slice(Some(9), &[1, 5, 7]), ("indices", "[1,5,7]")),
            (
                reply_topk(Some(9), &[(4, 121), (0, 96)]),
                ("columns", "[[4,121],[0,96]]"),
            ),
            (reply_ping(Some(9)), ("pong", "true")),
            (reply_shutdown(Some(9)), ("draining", "true")),
            (reply_reload(Some(9), 3, 2), ("set_version", "3")),
        ] {
            let parsed = JsonValue::parse(&reply).expect(&reply);
            assert_eq!(parsed.get("id").unwrap().as_u64(), Some(9), "{reply}");
            assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(true));
            assert!(parsed.get(probe.0).is_some(), "{reply} has {}", probe.0);
            assert!(reply.contains(probe.1), "{reply} contains {}", probe.1);
        }
        let info = reply_info(None, [2, 3, 4], 5, 17, "mmap");
        let parsed = JsonValue::parse(&info).unwrap();
        assert!(parsed.get("id").is_none());
        assert_eq!(parsed.get("rank").unwrap().as_u64(), Some(5));
        assert_eq!(parsed.get("source").unwrap().as_str(), Some("mmap"));
        let stats = reply_stats(Some(1), &[("serve.point.queries", 3.0)]);
        let parsed = JsonValue::parse(&stats).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("serve.point.queries")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn error_replies_escape_messages() {
        let err = RequestError::bad_request("quote \" backslash \\ newline \n end");
        let reply = reply_error(None, &err);
        let parsed = JsonValue::parse(&reply).expect("error replies stay valid JSON");
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("code").unwrap().as_str(), Some("bad_request"));
        assert_eq!(
            parsed.get("error").unwrap().as_str(),
            Some("quote \" backslash \\ newline \n end")
        );
    }
}
