//! Serving counters: per-request-class volumes and latencies, and
//! typed error counts.
//!
//! One [`ServeMetrics`] instance is shared by the engine, every
//! connection thread, and the admin `stats` query, so everything is a
//! relaxed [`AtomicU64`] — the counters are monotonic tallies, not
//! synchronization. [`ServeMetrics::named_counters`] exports them under
//! stable dotted names (the `crates/cluster` `MetricsSnapshot` idiom).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Shared atomic counters for one serving process.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// `point` queries answered (ok or error).
    pub point_queries: AtomicU64,
    /// `slice` queries answered.
    pub slice_queries: AtomicU64,
    /// `topk` queries answered.
    pub topk_queries: AtomicU64,
    /// Admin queries answered (`ping`, `stats`, `info`, `shutdown`).
    pub admin_queries: AtomicU64,
    /// Total wall-ns spent answering `point` queries.
    pub point_nanos: AtomicU64,
    /// Total wall-ns spent answering `slice` queries.
    pub slice_nanos: AtomicU64,
    /// Total wall-ns spent answering `topk` queries.
    pub topk_nanos: AtomicU64,
    /// Connections accepted.
    pub connections_opened: AtomicU64,
    /// Connections fully closed.
    pub connections_closed: AtomicU64,
    /// Request lines read (single or batch).
    pub lines_total: AtomicU64,
    /// Batch (JSON array) lines among [`ServeMetrics::lines_total`].
    pub batches_total: AtomicU64,
    /// Individual requests answered.
    pub requests_total: AtomicU64,
    /// Lines cut off by a disconnect before their newline.
    pub lines_truncated: AtomicU64,
    /// `parse` errors returned (line or element was not valid JSON).
    pub parse_errors: AtomicU64,
    /// `bad_request` errors returned (valid JSON, missing/mistyped fields).
    pub bad_request_errors: AtomicU64,
    /// `unknown_query` errors returned.
    pub unknown_query_errors: AtomicU64,
    /// `out_of_range` errors returned.
    pub out_of_range_errors: AtomicU64,
    /// `oversized` errors returned (line exceeded the limit).
    pub oversized_errors: AtomicU64,
    /// `batch_limit` errors returned (array exceeded the limit).
    pub batch_limit_errors: AtomicU64,
    /// `draining` errors returned (request arrived during shutdown).
    pub draining_errors: AtomicU64,
    /// `busy` errors returned (connection refused at the connection cap).
    pub busy_errors: AtomicU64,
    /// `reload` requests received (ok or error).
    pub reload_requests: AtomicU64,
    /// `reload` errors returned (unopenable store, dims mismatch).
    pub reload_errors: AtomicU64,
}

impl ServeMetrics {
    /// A fresh all-zero counter set.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Adds `n` to `counter` (relaxed; these are tallies).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `elapsed` in whole nanoseconds to a `*_nanos` counter, so a
    /// sub-microsecond query still counts.
    pub fn add_elapsed(counter: &AtomicU64, elapsed: Duration) {
        ServeMetrics::add(counter, elapsed.as_nanos() as u64);
    }

    /// Bumps the error counter matching a protocol error `code`; codes
    /// come from [`crate::protocol::RequestError`], so an unknown code is
    /// a bug — counted under `parse` rather than dropped.
    pub fn count_error(&self, code: &str) {
        let counter = match code {
            "parse" => &self.parse_errors,
            "bad_request" => &self.bad_request_errors,
            "unknown_query" => &self.unknown_query_errors,
            "out_of_range" => &self.out_of_range_errors,
            "oversized" => &self.oversized_errors,
            "batch_limit" => &self.batch_limit_errors,
            "draining" => &self.draining_errors,
            "busy" => &self.busy_errors,
            "reload" => &self.reload_errors,
            _ => &self.parse_errors,
        };
        ServeMetrics::add(counter, 1);
    }

    /// Every counter under its stable dotted export name. The
    /// `serve.*.micros` totals are exported as nanoseconds / 1000, so
    /// they carry fractions of a microsecond.
    pub fn named_counters(&self) -> Vec<(&'static str, f64)> {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
        let micros = |c: &AtomicU64| get(c) / 1000.0;
        vec![
            ("serve.point.queries", get(&self.point_queries)),
            ("serve.point.micros", micros(&self.point_nanos)),
            ("serve.slice.queries", get(&self.slice_queries)),
            ("serve.slice.micros", micros(&self.slice_nanos)),
            ("serve.topk.queries", get(&self.topk_queries)),
            ("serve.topk.micros", micros(&self.topk_nanos)),
            ("serve.admin.queries", get(&self.admin_queries)),
            ("serve.conns.opened", get(&self.connections_opened)),
            ("serve.conns.closed", get(&self.connections_closed)),
            ("serve.lines.total", get(&self.lines_total)),
            ("serve.lines.batches", get(&self.batches_total)),
            ("serve.lines.truncated", get(&self.lines_truncated)),
            ("serve.requests.total", get(&self.requests_total)),
            ("serve.errors.parse", get(&self.parse_errors)),
            ("serve.errors.bad_request", get(&self.bad_request_errors)),
            (
                "serve.errors.unknown_query",
                get(&self.unknown_query_errors),
            ),
            ("serve.errors.out_of_range", get(&self.out_of_range_errors)),
            ("serve.errors.oversized", get(&self.oversized_errors)),
            ("serve.errors.batch_limit", get(&self.batch_limit_errors)),
            ("serve.errors.draining", get(&self.draining_errors)),
            ("serve.errors.busy", get(&self.busy_errors)),
            ("serve.reload.requests", get(&self.reload_requests)),
            ("serve.reload.errors", get(&self.reload_errors)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_route_to_their_counters() {
        let m = ServeMetrics::new();
        for code in [
            "parse",
            "bad_request",
            "unknown_query",
            "out_of_range",
            "oversized",
            "batch_limit",
            "draining",
            "busy",
            "reload",
        ] {
            m.count_error(code);
        }
        let counters: std::collections::HashMap<_, _> = m.named_counters().into_iter().collect();
        for name in [
            "serve.errors.parse",
            "serve.errors.bad_request",
            "serve.errors.unknown_query",
            "serve.errors.out_of_range",
            "serve.errors.oversized",
            "serve.errors.batch_limit",
            "serve.errors.draining",
            "serve.errors.busy",
            "serve.reload.errors",
        ] {
            assert_eq!(counters[name], 1.0, "{name}");
        }
    }

    #[test]
    fn sub_microsecond_latencies_are_not_truncated() {
        let m = ServeMetrics::new();
        ServeMetrics::add_elapsed(&m.point_nanos, Duration::from_nanos(600));
        let counters: std::collections::HashMap<_, _> = m.named_counters().into_iter().collect();
        assert_eq!(counters["serve.point.micros"], 0.6);
    }

    #[test]
    fn names_are_unique_and_dotted() {
        let m = ServeMetrics::new();
        let names: Vec<_> = m.named_counters().into_iter().map(|(n, _)| n).collect();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.iter().all(|n| n.starts_with("serve.")));
    }
}
