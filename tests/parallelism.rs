//! Real intra-worker parallelism must be invisible in every output: the
//! same factorization run with 1, 2 and 4 compute threads per worker has
//! to produce bit-identical factors, errors and virtual-time metrics (only
//! host wall-clock may differ). The trace variant checks the same
//! invariant one level deeper: the executed dataflow plan — every operator
//! with its byte/op annotations — is identical too.

use dbtf::{factorize, factorize_traced, DbtfConfig, DbtfResult};
use dbtf_cluster::{Cluster, ClusterConfig, PlanTrace};
use dbtf_datagen::uniform_random;
use dbtf_tensor::BoolTensor;

fn config() -> DbtfConfig {
    DbtfConfig {
        rank: 4,
        max_iters: 3,
        initial_sets: 2,
        seed: 7,
        ..DbtfConfig::default()
    }
}

fn cluster_with_threads(threads: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        workers: 3,
        compute_threads: Some(threads),
        ..ClusterConfig::default()
    })
}

fn run_with_threads(x: &BoolTensor, threads: usize) -> DbtfResult {
    factorize(&cluster_with_threads(threads), x, &config()).unwrap()
}

/// Asserts every deterministic field of `run` equals `baseline`.
/// (`MetricsSnapshot` equality deliberately excludes the pool
/// observability counters, which depend on the host schedule.)
fn assert_same_result(run: &DbtfResult, baseline: &DbtfResult, what: &str) {
    assert_eq!(run.factors, baseline.factors, "{what}");
    assert_eq!(run.error, baseline.error, "{what}");
    assert_eq!(run.iteration_errors, baseline.iteration_errors, "{what}");
    assert_eq!(run.iterations, baseline.iterations, "{what}");
    assert_eq!(run.converged, baseline.converged, "{what}");
    // Virtual time and communication metrics come from the simulated
    // cost model, not the real schedule: exact equality required.
    assert_eq!(
        run.stats.virtual_secs.to_bits(),
        baseline.stats.virtual_secs.to_bits(),
        "{what}"
    );
    assert_eq!(run.stats.comm, baseline.stats.comm, "{what}");
    assert_eq!(
        run.stats.peak_cache_bytes, baseline.stats.peak_cache_bytes,
        "{what}"
    );
}

#[test]
fn factorization_identical_across_compute_threads() {
    let x = uniform_random([18, 15, 12], 0.15, 3);
    let baseline = run_with_threads(&x, 1);
    for threads in [2usize, 4] {
        let run = run_with_threads(&x, threads);
        assert_same_result(&run, &baseline, &format!("{threads} threads"));
    }
}

#[test]
fn executed_plan_identical_across_compute_threads() {
    let x = uniform_random([18, 15, 12], 0.15, 3);
    let trace_with = |threads: usize| -> PlanTrace {
        let (_, trace) = factorize_traced(&cluster_with_threads(threads), &x, &config()).unwrap();
        trace
    };
    let baseline = trace_with(1);
    assert!(!baseline.is_empty());
    for threads in [2usize, 4] {
        let trace = trace_with(threads);
        assert_eq!(trace.len(), baseline.len(), "{threads} threads");
        assert_eq!(
            trace.fingerprint(),
            baseline.fingerprint(),
            "{threads} threads"
        );
        // With no fault plan, threading must never surface as recovery.
        assert_eq!(trace.recovery_events(), 0, "{threads} threads");
    }
}
