//! Span-based tracing and unified counters for the DBTF engine.
//!
//! This crate is dependency-free and engine-agnostic: the cluster and
//! core crates push spans/counters in, the CLI and CI pull Chrome
//! trace-event JSON and breakdown tables out. See `DESIGN.md` §1.2.4 for
//! the observability model (span hierarchy, virtual vs wall axes, and the
//! determinism contract).

#![warn(missing_docs)]

mod chrome;
mod counters;
mod span;

pub use chrome::{validate_chrome_trace, write_chrome_trace, JsonValue, TraceSummary};
pub use counters::CounterRegistry;
pub use span::{BreakdownRow, KernelEvent, SpanId, SpanKind, SpanRecord, TraceLog, Tracer};
