//! Span-based tracing for the DBTF engine.
//!
//! This crate is dependency-free and engine-agnostic: the cluster and
//! core crates push spans/counters in, the CLI and CI pull Chrome
//! trace-event JSON and breakdown tables out. See `DESIGN.md` §1.2.4 for
//! the observability model (span hierarchy, virtual vs wall axes, and the
//! determinism contract).

#![warn(missing_docs)]

mod chrome;
mod span;

pub use chrome::{
    push_json_string, validate_chrome_trace, write_chrome_trace, JsonValue, TraceSummary,
};
pub use span::{KernelEvent, SpanId, SpanKind, SpanRecord, TraceLog, Tracer};
