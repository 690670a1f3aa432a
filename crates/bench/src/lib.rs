//! Shared harness for regenerating every table and figure of the DBTF
//! paper's evaluation (Section IV).
//!
//! Each experiment is a binary under `src/bin/` (run with
//! `cargo run --release -p dbtf-bench --bin <name>`); this library holds
//! the common pieces: method runners with out-of-time/out-of-memory caps,
//! scaled memory budgets, ASCII table formatting and a tiny flag parser.
//!
//! **Time semantics**: DBTF rows report *virtual cluster seconds* — the
//! simulated running time of the paper's 16-worker cluster under the
//! engine's cost model. Baseline rows report host wall-clock seconds on
//! this single machine, matching the paper's single-machine baseline runs.
//! Absolute values are therefore not comparable to the paper's; the shapes
//! (who completes, who blows up, slopes and crossovers) are what
//! EXPERIMENTS.md tracks.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::Instant;

use dbtf::{factorize, DbtfConfig};
use dbtf_baselines::{bcp_als, walk_n_merge, BaselineError, BcpAlsConfig, Deadline, WnmConfig};
use dbtf_cluster::{Cluster, ClusterConfig};
use dbtf_datagen::proxies::DatasetSpec;
use dbtf_tensor::BoolTensor;

/// Outcome of running one method on one workload.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Finished; carries `(reported_seconds, reconstruction_error)`.
    Done {
        /// Virtual seconds for DBTF, wall seconds for the baselines.
        secs: f64,
        /// `|X ⊕ X̃|`.
        error: u64,
    },
    /// Exceeded the time cap (the paper's O.O.T.).
    OutOfTime,
    /// Exceeded the modeled memory budget (the paper's O.O.M.).
    OutOfMemory,
}

impl Outcome {
    /// Formats like the paper's figures: a time, `O.O.T.` or `O.O.M.`.
    pub fn cell(&self) -> String {
        match self {
            Outcome::Done { secs, .. } => format!("{secs:10.3}"),
            Outcome::OutOfTime => format!("{:>10}", "O.O.T."),
            Outcome::OutOfMemory => format!("{:>10}", "O.O.M."),
        }
    }

    /// The reported seconds, if the run completed.
    pub fn secs(&self) -> Option<f64> {
        match self {
            Outcome::Done { secs, .. } => Some(*secs),
            _ => None,
        }
    }

    /// The reconstruction error, if the run completed.
    pub fn error(&self) -> Option<u64> {
        match self {
            Outcome::Done { error, .. } => Some(*error),
            _ => None,
        }
    }
}

/// Runs DBTF on a fresh paper-shaped cluster (16 workers × 8 cores by
/// default) and reports **virtual** seconds.
pub fn run_dbtf(x: &BoolTensor, config: &DbtfConfig, workers: usize) -> Outcome {
    run_dbtf_threads(x, config, workers, None)
}

/// Like [`run_dbtf`] but pinning the number of *real* compute threads per
/// worker (`None` = one per simulated core). Results and virtual-time
/// metrics are identical for every setting; only host wall-clock changes.
pub fn run_dbtf_threads(
    x: &BoolTensor,
    config: &DbtfConfig,
    workers: usize,
    compute_threads: Option<usize>,
) -> Outcome {
    let cluster = Cluster::new(ClusterConfig {
        workers,
        compute_threads,
        ..ClusterConfig::paper_cluster()
    });
    match factorize(&cluster, x, config) {
        Ok(result) => Outcome::Done {
            secs: result.stats.virtual_secs,
            error: result.error,
        },
        Err(e) => panic!("DBTF failed: {e}"),
    }
}

/// Runs BCP_ALS with the paper's O.O.T./O.O.M. caps; reports wall seconds.
pub fn run_bcp_als(
    x: &BoolTensor,
    rank: usize,
    oot_secs: f64,
    memory_budget: Option<u64>,
) -> Outcome {
    let config = BcpAlsConfig {
        rank,
        memory_budget_bytes: memory_budget,
        ..BcpAlsConfig::default()
    };
    let deadline = Deadline::in_secs(oot_secs);
    let start = Instant::now();
    match bcp_als(x, &config, Some(&deadline)) {
        Ok(result) => Outcome::Done {
            secs: start.elapsed().as_secs_f64(),
            error: result.error,
        },
        Err(BaselineError::OutOfTime) => Outcome::OutOfTime,
        Err(BaselineError::OutOfMemory { .. }) => Outcome::OutOfMemory,
        Err(e) => panic!("BCP_ALS failed: {e}"),
    }
}

/// Runs Walk'n'Merge with the paper's parameter choices
/// (`t = 1 − n_d`, 4×4×4 minimum blocks, length-5 walks); reports wall
/// seconds and the error of its top-`rank` blocks.
pub fn run_walk_n_merge(
    x: &BoolTensor,
    rank: usize,
    destructive_noise: f64,
    oot_secs: f64,
) -> Outcome {
    let config = WnmConfig {
        merge_threshold: (1.0 - destructive_noise).clamp(0.0, 1.0),
        ..WnmConfig::default()
    };
    let deadline = Deadline::in_secs(oot_secs);
    let start = Instant::now();
    match walk_n_merge(x, &config, Some(&deadline)) {
        Ok(result) => Outcome::Done {
            secs: start.elapsed().as_secs_f64(),
            error: result.error(x, rank),
        },
        Err(BaselineError::OutOfTime) => Outcome::OutOfTime,
        Err(e) => panic!("Walk'n'Merge failed: {e}"),
    }
}

/// The paper's single-machine memory budget (32 GB), rescaled so a scaled
/// proxy trips it exactly when the original dataset would: the budget
/// shrinks by the same factor as BCP_ALS's modeled peak requirement
/// (dominated by ASSO's `O(cols²)` association structures).
pub fn scaled_memory_budget(spec: &DatasetSpec, scale: f64, rank: usize) -> u64 {
    const PAPER_BUDGET: f64 = 32e9;
    let orig = dbtf_baselines::bcp_als::bcp_memory_estimate(spec.dims, rank) as f64;
    let scaled = dbtf_baselines::bcp_als::bcp_memory_estimate(spec.scaled_dims(scale), rank) as f64;
    (PAPER_BUDGET * scaled / orig.max(1.0)).max(1.0) as u64
}

/// Prints one row of an experiment table.
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<24}");
    for c in cells {
        print!(" {c}");
    }
    println!();
}

/// Prints a table header followed by a separator.
pub fn print_header(title: &str, label: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    print!("{label:<24}");
    for c in columns {
        print!(" {c:>10}");
    }
    println!();
    println!("{}", "-".repeat(24 + 11 * columns.len()));
}

/// A tiny `--flag value` parser for the experiment binaries.
pub struct Args {
    args: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Self {
        Args {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// The value of `--name <value>` parsed as `T`, or `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let flag = format!("--{name}");
        self.args
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether the bare flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.args.iter().any(|a| a == &flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf_datagen::proxies::proxy_specs;

    #[test]
    fn outcome_cells() {
        assert!(Outcome::Done {
            secs: 1.5,
            error: 3
        }
        .cell()
        .contains("1.500"));
        assert!(Outcome::OutOfTime.cell().contains("O.O.T."));
        assert!(Outcome::OutOfMemory.cell().contains("O.O.M."));
    }

    #[test]
    fn scaled_budget_preserves_verdicts() {
        use dbtf_baselines::bcp_als::bcp_memory_estimate;
        const PAPER_BUDGET: u64 = 32_000_000_000;
        for spec in proxy_specs() {
            for scale in [0.002f64, 0.01, 0.05] {
                for rank in [10usize, 30] {
                    let budget = scaled_memory_budget(&spec, scale, rank);
                    let orig_ooms = bcp_memory_estimate(spec.dims, rank) > PAPER_BUDGET;
                    let scaled_ooms = bcp_memory_estimate(spec.scaled_dims(scale), rank) > budget;
                    assert_eq!(orig_ooms, scaled_ooms, "{} at scale {scale}", spec.name);
                }
            }
        }
    }

    #[test]
    fn args_parse() {
        let args = Args {
            args: vec!["--scale".into(), "0.5".into(), "--paper-scale".into()],
        };
        assert_eq!(args.get("scale", 1.0f64), 0.5);
        assert_eq!(args.get("missing", 7u32), 7);
        assert!(args.has("paper-scale"));
        assert!(!args.has("other"));
    }
}
