//! Golden determinism tests for span traces.
//!
//! The telemetry contract (DESIGN.md §1.2.4) has two layers:
//!
//! - the **virtual-axis fingerprint** (span structure plus the exact f64
//!   bits of every virtual timestamp) is invariant across real
//!   `compute_threads` settings on the same backend — threads change host
//!   wall-clock only, never the simulated timeline;
//! - the **structural fingerprint** (spans, parents, workers, partitions,
//!   op counts — no timestamps) is additionally invariant across
//!   execution backends, whose virtual clocks legitimately differ (the
//!   local backend charges no network time).

use dbtf::tucker::TuckerConfig;
use dbtf::tucker_distributed::tucker_factorize_distributed_instrumented;
use dbtf::{factorize_instrumented, DbtfConfig};
use dbtf_cluster::{Cluster, ClusterConfig, ExecutionBackend, LocalBackend};
use dbtf_telemetry::{SpanKind, TraceLog, Tracer};
use dbtf_tensor::BoolTensor;

fn tensor() -> BoolTensor {
    dbtf_datagen::uniform_random([12, 12, 12], 0.15, 7)
}

fn cp_config() -> DbtfConfig {
    DbtfConfig {
        rank: 3,
        max_iters: 2,
        initial_sets: 2,
        seed: 42,
        ..DbtfConfig::default()
    }
}

fn cp_trace<B: ExecutionBackend>(backend: &B) -> TraceLog {
    let tracer = Tracer::enabled();
    factorize_instrumented(backend, &tensor(), &cp_config(), &tracer).expect("factorize");
    tracer.finish()
}

fn cluster_with_threads(threads: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        workers: 4,
        compute_threads: Some(threads),
        ..ClusterConfig::default()
    })
}

#[test]
fn cp_trace_virtual_fingerprint_invariant_across_compute_threads() {
    let t1 = cp_trace(&cluster_with_threads(1));
    let t4 = cp_trace(&cluster_with_threads(4));
    assert!(
        t1.spans.iter().any(|s| s.kind == SpanKind::Kernel),
        "trace must reach kernel depth"
    );
    assert_eq!(
        t1.fingerprint_virtual(),
        t4.fingerprint_virtual(),
        "virtual-axis trace must not depend on the real thread count"
    );
}

#[test]
fn cp_trace_structure_invariant_across_backends() {
    let cluster_log = cp_trace(&cluster_with_threads(2));
    let local = LocalBackend::new(4, ClusterConfig::default().cores_per_worker);
    let local_log = cp_trace(&local);
    assert_eq!(
        local_log.fingerprint(),
        cluster_log.fingerprint(),
        "span structure (incl. ops, workers, partitions) must be backend-independent"
    );
    // Every level of the hierarchy is present on both backends.
    for kind in [
        SpanKind::Run,
        SpanKind::Phase,
        SpanKind::Operator,
        SpanKind::Superstep,
        SpanKind::Task,
        SpanKind::Kernel,
    ] {
        assert!(
            cluster_log.spans.iter().any(|s| s.kind == kind),
            "missing {kind} spans"
        );
    }
}

#[test]
fn tucker_trace_fingerprints_invariant() {
    let config = TuckerConfig {
        ranks: [2, 2, 2],
        max_iters: 2,
        initial_sets: 1,
        seed: 5,
        ..TuckerConfig::default()
    };
    let x = tensor();
    let run = |backend: &dyn Fn(&Tracer)| {
        let tracer = Tracer::enabled();
        backend(&tracer);
        tracer.finish()
    };
    let t1 = run(&|tracer| {
        let c = cluster_with_threads(1);
        tucker_factorize_distributed_instrumented(&c, &x, &config, tracer).expect("tucker");
    });
    let t4 = run(&|tracer| {
        let c = cluster_with_threads(4);
        tucker_factorize_distributed_instrumented(&c, &x, &config, tracer).expect("tucker");
    });
    let local = run(&|tracer| {
        let l = LocalBackend::new(4, ClusterConfig::default().cores_per_worker);
        tucker_factorize_distributed_instrumented(&l, &x, &config, tracer).expect("tucker");
    });
    assert_eq!(t1.fingerprint_virtual(), t4.fingerprint_virtual());
    assert_eq!(local.fingerprint(), t1.fingerprint());
    assert!(t1.spans.iter().any(|s| s.kind == SpanKind::Task));
}

#[test]
fn disabled_tracer_records_nothing_and_results_match() {
    let tracer = Tracer::disabled();
    let cluster = cluster_with_threads(2);
    let (instrumented, _) =
        factorize_instrumented(&cluster, &tensor(), &cp_config(), &tracer).expect("factorize");
    assert!(tracer.finish().spans.is_empty());

    let cluster2 = cluster_with_threads(2);
    let plain = dbtf::factorize(&cluster2, &tensor(), &cp_config()).expect("factorize");
    assert_eq!(instrumented.factors, plain.factors);
    assert_eq!(instrumented.error, plain.error);
    // Tracing never perturbs the virtual clock: exact f64 bits.
    assert_eq!(
        instrumented.stats.virtual_secs.to_bits(),
        plain.stats.virtual_secs.to_bits()
    );

    // Same holds with tracing *enabled* — capture is observation-only.
    let enabled = Tracer::enabled();
    let cluster3 = cluster_with_threads(2);
    let (traced, _) =
        factorize_instrumented(&cluster3, &tensor(), &cp_config(), &enabled).expect("factorize");
    assert_eq!(
        traced.stats.virtual_secs.to_bits(),
        plain.stats.virtual_secs.to_bits()
    );
    assert_eq!(traced.error, plain.error);
}
