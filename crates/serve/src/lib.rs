//! The DBTF serving layer: read-path workload on top of finished
//! factorizations.
//!
//! The factorization side of this repository ends with a set of Boolean CP
//! factors `(A, B, C)` in a `DBTFFSET` factor-set file — the checkpoint a
//! run writes, or the store `dbtf export-factors` writes from it. This
//! crate opens those factors for *queries*: a long-running `dbtf serve`
//! process loads a [`FactorStore`] and answers reconstruction questions
//! over a line-delimited JSON protocol on TCP:
//!
//! - **point** — was `X̃[i,j,k] = 1` in the reconstruction?
//! - **slice** — the nonzero indices of one fiber (e.g. `X̃[i,j,:]`);
//! - **topk** — the strongest factor columns for one entity, ranked by
//!   the size of the rank-1 block each column contributes.
//!
//! Answers never materialize the reconstruction, and nothing is
//! memoized: a point is one bitwise AND over three `R`-bit factor rows,
//! a fiber is one masked scan over a single factor, and both are
//! computed from the factor rows on every query ([`QueryEngine`]). The
//! store itself reads from the heap or from a read-only memory map of
//! the file ([`SourceKind`]), so a serving process can stay
//! far smaller than the factors it would need for a dense
//! reconstruction.
//!
//! The protocol follows the discipline of `crates/wire` and the
//! `crates/cluster/net` listener: hard limits fail fast ([`ServeLimits`];
//! an oversized line or a corrupt frame is a typed error, never an
//! allocation storm), every malformed input is answered with a typed
//! error object instead of a dropped connection, and each connection is a
//! serial request/reply conversation. Graceful shutdown drains: the
//! listener stops accepting, in-flight requests are answered, idle
//! connections close.
//!
//! Everything here is continuously verified against `crates/oracle`'s
//! cell-by-cell CP reconstruction: the differential tests replay seeded
//! query sweeps ([`sweep`]) through a real server ([`ServeHarness`]) and
//! require bit-exact agreement for stores and checkpoints from both
//! sources, on the first pass and on replay.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod harness;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod store;
pub mod sweep;

pub use engine::{QueryEngine, QueryError, ReloadOutcome};
pub use harness::{ClientError, ServeClient, ServeHarness, StoreInfo};
pub use metrics::ServeMetrics;
pub use protocol::{ParsedLine, Request, RequestError, ServeLimits};
pub use server::{Server, ServerConfig, ServerHandle};
pub use store::{FactorStore, ServeError, SourceKind};
pub use sweep::{QueryMix, SeededQueries};
