//! Golden plan-trace tests: the dataflow plans the CP and Tucker drivers
//! emit, and the results they produce, pinned against constants captured
//! from the pre-refactor (direct-`Cluster`-call) code.
//!
//! The invariant under test: for a fixed `(config, x)`, the executed plan
//! (operator sequence with byte/op annotations, compared via
//! [`PlanTrace::fingerprint`]) and every algorithmic output are
//! bit-identical across execution backends, runs, and fault plans.
//! Virtual time is pinned too — down to the exact `f64` bit pattern — on
//! the cluster backend, where the network model applies.

use dbtf::tucker::TuckerConfig;
use dbtf::tucker_distributed::tucker_factorize_distributed_traced;
use dbtf::{factorize_traced, DbtfConfig, DbtfResult};
use dbtf_cluster::{
    Cluster, ClusterConfig, FaultPlan, LocalBackend, MetricsSnapshot, OpKind, PlanTrace,
};
use dbtf_cluster::{ExecutionBackend, NetworkModel};
use dbtf_datagen::uniform_random;
use dbtf_tensor::{BitMatrix, BoolTensor};

/// FNV-style position-sensitive hash of a bit matrix (golden constants
/// below were captured with exactly this function on pre-refactor output).
fn hash_matrix(m: &BitMatrix) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            h ^= u64::from(m.get(r, c)) | ((r as u64) << 1) ^ ((c as u64) << 33);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

// ---- CP golden run: uniform_random([18,15,12], 0.15, seed 3), ----------
// rank 4, max_iters 3, initial_sets 2, seed 7, 3 workers × 8 cores.
const CP_ERROR: u64 = 460;
const CP_ITERATION_ERRORS: &[u64] = &[460, 460];
const CP_HASH_A: u64 = 0x325b3f0d545648eb;
const CP_HASH_B: u64 = 0xef97273bef2600ee;
const CP_HASH_C: u64 = 0xe81b35424f0271e8;
const CP_TOTAL_OPS: u64 = 36481;
const CP_BYTES_SHUFFLED: u64 = 22872;
const CP_BYTES_BROADCAST: u64 = 1737;
const CP_BYTES_COLLECTED: u64 = 210816;
const CP_TASKS: u64 = 1368;
const CP_SUPERSTEPS: u64 = 57;
/// Cluster-backend virtual time, as exact f64 bits (compute + network).
const CP_VIRTUAL_TIME_BITS: u64 = 0x3fba4742e614d894;
/// Local-backend virtual time (compute only), as exact f64 bits.
const CP_LOCAL_VIRTUAL_TIME_BITS: u64 = 0x3ee2fc8f90b4cc2f;

fn cp_tensor() -> BoolTensor {
    uniform_random([18, 15, 12], 0.15, 3)
}

fn cp_config() -> DbtfConfig {
    DbtfConfig {
        rank: 4,
        max_iters: 3,
        initial_sets: 2,
        seed: 7,
        ..DbtfConfig::default()
    }
}

fn cp_on_cluster(plan: Option<FaultPlan>) -> (DbtfResult, PlanTrace, MetricsSnapshot) {
    let cluster = Cluster::new(ClusterConfig {
        workers: 3,
        fault_plan: plan,
        ..ClusterConfig::default()
    });
    let (result, trace) = factorize_traced(&cluster, &cp_tensor(), &cp_config()).unwrap();
    let metrics = cluster.metrics();
    (result, trace, metrics)
}

fn assert_cp_golden(result: &DbtfResult, m: &MetricsSnapshot, what: &str) {
    assert_eq!(result.error, CP_ERROR, "{what}");
    assert_eq!(result.iteration_errors, CP_ITERATION_ERRORS, "{what}");
    assert_eq!(hash_matrix(&result.factors.a), CP_HASH_A, "{what}");
    assert_eq!(hash_matrix(&result.factors.b), CP_HASH_B, "{what}");
    assert_eq!(hash_matrix(&result.factors.c), CP_HASH_C, "{what}");
    assert_eq!(m.total_ops, CP_TOTAL_OPS, "{what}");
    assert_eq!(m.bytes_shuffled, CP_BYTES_SHUFFLED, "{what}");
    assert_eq!(m.bytes_broadcast, CP_BYTES_BROADCAST, "{what}");
    assert_eq!(m.bytes_collected, CP_BYTES_COLLECTED, "{what}");
    assert_eq!(m.tasks_run, CP_TASKS, "{what}");
    assert_eq!(m.supersteps, CP_SUPERSTEPS, "{what}");
}

#[test]
fn cp_cluster_matches_pre_refactor_golden() {
    let (result, trace, m) = cp_on_cluster(None);
    assert_cp_golden(&result, &m, "cluster");
    // Virtual time pinned to the bit: the plan path must charge exactly
    // the pre-refactor network + compute costs, in the same order.
    assert_eq!(m.virtual_time.as_secs_f64().to_bits(), CP_VIRTUAL_TIME_BITS);
    assert_eq!(trace.recovery_events(), 0);

    // The plan's structure: 2 iterations — the first updates 2 initial
    // sets — give 3 update rounds of 3 UpdateFactor calls each. Every
    // UpdateFactor is (R + 2) = 6 supersteps; plus 3 unfolding-organize
    // supersteps up front.
    let rounds = 3 * 3; // update_factor invocations
    assert_eq!(trace.count(OpKind::Distribute), 3);
    assert_eq!(trace.count(OpKind::MapPartitions), 3 + rounds * 6);
    assert_eq!(trace.count(OpKind::MapPartitions) as u64, CP_SUPERSTEPS);
    // Broadcasts: one factor broadcast + R decision broadcasts per update.
    assert_eq!(trace.count(OpKind::Broadcast), rounds * (1 + 4));
    // Driver compute: 3 unfolding maps + 1 init + R reduces per update.
    assert_eq!(trace.count(OpKind::DriverCompute), 3 + 1 + rounds * 4);
    assert_eq!(trace.count(OpKind::Checkpoint), 0);
}

#[test]
fn cp_local_backend_is_metering_identical_to_cluster() {
    let (cluster_result, cluster_trace, cluster_m) = cp_on_cluster(None);

    let backend = LocalBackend::new(3, 8); // same worker/core shape as the cluster above
    let (local_result, local_trace) =
        factorize_traced(&backend, &cp_tensor(), &cp_config()).unwrap();
    let local_m = backend.metrics();

    assert_cp_golden(&local_result, &local_m, "local");
    assert_eq!(local_result.factors, cluster_result.factors);
    // The executed plans are operator-for-operator identical.
    assert_eq!(local_trace.len(), cluster_trace.len());
    assert_eq!(local_trace.fingerprint(), cluster_trace.fingerprint());
    // The one sanctioned difference: the local backend charges no network
    // time, so its virtual clock reads strictly less (compute-only).
    assert!(local_m.virtual_time < cluster_m.virtual_time);
    assert!(local_m.virtual_time.as_secs_f64() > 0.0);
}

/// The local backend's compute-only clock, pinned to the bit on both
/// golden inputs.
#[test]
fn local_backend_virtual_time_matches_golden() {
    let backend = LocalBackend::new(3, 8);
    factorize_traced(&backend, &cp_tensor(), &cp_config()).unwrap();
    let bits = backend.metrics().virtual_time.as_secs_f64().to_bits();
    assert_eq!(bits, CP_LOCAL_VIRTUAL_TIME_BITS, "cp: {bits:#x}");

    let backend = LocalBackend::new(2, 2);
    tucker_factorize_distributed_traced(&backend, &tucker_tensor(), &tucker_config()).unwrap();
    let bits = backend.metrics().virtual_time.as_secs_f64().to_bits();
    assert_eq!(bits, TUCKER_LOCAL_VIRTUAL_TIME_BITS, "tucker: {bits:#x}");
}

/// The local backend meters exactly like a fault-free cluster of the same
/// shape whose network is free: every compared counter, the clock bits,
/// the idle meter and every operator's annotations agree.
#[test]
fn cp_local_backend_equals_a_free_network_cluster() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 3,
        cores_per_worker: 8,
        network: NetworkModel::free(),
        ..ClusterConfig::default()
    });
    let (cluster_result, cluster_trace) =
        factorize_traced(&cluster, &cp_tensor(), &cp_config()).unwrap();
    let cluster_m = cluster.metrics();

    let backend = LocalBackend::new(3, 8);
    let (local_result, local_trace) =
        factorize_traced(&backend, &cp_tensor(), &cp_config()).unwrap();
    let local_m = backend.metrics();

    assert_eq!(local_result.factors, cluster_result.factors);
    assert_eq!(local_m, cluster_m);
    assert_eq!(
        local_m.pool_idle_secs.to_bits(),
        cluster_m.pool_idle_secs.to_bits()
    );
    assert_eq!(local_trace, cluster_trace);
}

/// Each worker is one thread, and a superstep's replies reach the driver
/// in whatever order the host schedules those threads; the executed plan
/// must not depend on that order.
#[test]
fn cp_plan_is_invariant_across_reruns() {
    let (_, baseline, _) = cp_on_cluster(None);
    for run in 1..=2 {
        let (_, trace, _) = cp_on_cluster(None);
        assert_eq!(trace.fingerprint(), baseline.fingerprint(), "rerun {run}");
    }
}

#[test]
fn cp_plan_is_invariant_under_faults_with_recovery_visible_in_trace() {
    let (clean_result, clean_trace, _) = cp_on_cluster(None);
    let plan = FaultPlan {
        worker_crashes: vec![(20, 2), (45, 0)],
        task_failure_rate: 0.05,
        ..FaultPlan::with_seed(99)
    };
    let (faulty_result, faulty_trace, faulty_m) = cp_on_cluster(Some(plan));

    assert_cp_golden(&faulty_result, &faulty_m, "faulty");
    assert_eq!(faulty_result.factors, clean_result.factors);
    // The fingerprint excludes timing and recovery, so the faulty plan
    // reads identical to the clean one...
    assert_eq!(faulty_trace.fingerprint(), clean_trace.fingerprint());
    // ...while the per-op annotations expose where recovery happened.
    assert_eq!(clean_trace.recovery_events(), 0);
    assert!(faulty_trace.recovery_events() > 0);
    let respawn_ops: Vec<&str> = faulty_trace
        .ops
        .iter()
        .filter(|op| op.bytes_reshipped > 0)
        .map(|op| op.label)
        .collect();
    assert!(
        !respawn_ops.is_empty(),
        "some operator must have re-shipped partitions"
    );
    let recovery_secs: f64 = faulty_trace.ops.iter().map(|op| op.recovery_secs).sum();
    assert!(recovery_secs > 0.0);
}

// ---- Tucker golden run: uniform_random([12,10,8], 0.2, seed 11), -------
// ranks [3,3,3], max_iters 3, initial_sets 1, seed 5, 2 workers × 2 cores.
const TUCKER_ERROR: u64 = 162;
const TUCKER_ITERATION_ERRORS: &[u64] = &[164, 164, 162];
const TUCKER_HASH_A: u64 = 0xd8be5718a98bb6c2;
const TUCKER_HASH_B: u64 = 0x7789e71d86e1bc11;
const TUCKER_HASH_C: u64 = 0x2700c8dcd6475436;
const TUCKER_CORE_NNZ: usize = 3;
const TUCKER_TOTAL_OPS: u64 = 15769;
const TUCKER_BYTES_SHUFFLED: u64 = 7588;
const TUCKER_BYTES_BROADCAST: u64 = 9766;
const TUCKER_BYTES_COLLECTED: u64 = 22880;
const TUCKER_TASKS: u64 = 548;
const TUCKER_SUPERSTEPS: u64 = 137;
const TUCKER_VIRTUAL_TIME_BITS: u64 = 0x3fd0035daa4c9199;
const TUCKER_LOCAL_VIRTUAL_TIME_BITS: u64 = 0x3ed2939a3ff67eee;

fn tucker_tensor() -> BoolTensor {
    uniform_random([12, 10, 8], 0.2, 11)
}

fn tucker_config() -> TuckerConfig {
    TuckerConfig {
        ranks: [3, 3, 3],
        max_iters: 3,
        initial_sets: 1,
        seed: 5,
    }
}

#[test]
fn tucker_matches_golden_and_backends_agree() {
    let xt = uniform_random([12, 10, 8], 0.2, 11);
    let tcfg = TuckerConfig {
        ranks: [3, 3, 3],
        max_iters: 3,
        initial_sets: 1,
        seed: 5,
    };

    let cluster = Cluster::new(ClusterConfig {
        workers: 2,
        cores_per_worker: 2,
        ..ClusterConfig::default()
    });
    let (cr, ct) = tucker_factorize_distributed_traced(&cluster, &xt, &tcfg).unwrap();
    let cm = cluster.metrics();

    let backend = LocalBackend::new(2, 2);
    let (lr, lt) = tucker_factorize_distributed_traced(&backend, &xt, &tcfg).unwrap();
    let lm = backend.metrics();

    for (result, m, what) in [(&cr, &cm, "cluster"), (&lr, &lm, "local")] {
        assert_eq!(result.error, TUCKER_ERROR, "{what}");
        assert_eq!(result.iteration_errors, TUCKER_ITERATION_ERRORS, "{what}");
        assert_eq!(
            hash_matrix(&result.factorization.a),
            TUCKER_HASH_A,
            "{what}"
        );
        assert_eq!(
            hash_matrix(&result.factorization.b),
            TUCKER_HASH_B,
            "{what}"
        );
        assert_eq!(
            hash_matrix(&result.factorization.c),
            TUCKER_HASH_C,
            "{what}"
        );
        assert_eq!(result.factorization.core.nnz(), TUCKER_CORE_NNZ, "{what}");
        assert_eq!(m.total_ops, TUCKER_TOTAL_OPS, "{what}");
        assert_eq!(m.bytes_shuffled, TUCKER_BYTES_SHUFFLED, "{what}");
        assert_eq!(m.bytes_broadcast, TUCKER_BYTES_BROADCAST, "{what}");
        assert_eq!(m.bytes_collected, TUCKER_BYTES_COLLECTED, "{what}");
        assert_eq!(m.tasks_run, TUCKER_TASKS, "{what}");
        assert_eq!(m.supersteps, TUCKER_SUPERSTEPS, "{what}");
    }
    assert_eq!(
        cm.virtual_time.as_secs_f64().to_bits(),
        TUCKER_VIRTUAL_TIME_BITS
    );
    assert_eq!(lr.factorization, cr.factorization);
    assert_eq!(lt.fingerprint(), ct.fingerprint());
    assert!(lm.virtual_time < cm.virtual_time);

    // Tucker plans interleave factor sweeps with per-core-entry
    // supersteps; spot-check the operator mix rather than the exact
    // counts (pinned above through supersteps/tasks).
    assert_eq!(ct.count(OpKind::Distribute), 3);
    assert_eq!(ct.count(OpKind::MapPartitions) as u64, TUCKER_SUPERSTEPS);
    assert!(ct.count(OpKind::Broadcast) > 0);
    assert!(ct.ops.iter().any(|op| op.label == "tucker.core.count"));
    assert!(ct.ops.iter().any(|op| op.label == "tucker.update.sweep"));
}

/// The Tucker driver's plan trace (and its bit-exact outputs) must be
/// invariant across fault plans on the cluster backend — the same
/// contract `cp_*_invariant` pins for the CP driver.
#[test]
fn tucker_trace_invariant_across_faults() {
    let xt = uniform_random([12, 10, 8], 0.2, 11);
    let tcfg = TuckerConfig {
        ranks: [3, 3, 3],
        max_iters: 3,
        initial_sets: 1,
        seed: 5,
    };
    let run = |plan: Option<FaultPlan>| {
        let expect_respawns = plan.as_ref().is_some_and(|p| !p.worker_crashes.is_empty());
        let expect_retries = plan.as_ref().is_some_and(|p| p.task_failure_rate > 0.0);
        let cluster = Cluster::new(ClusterConfig {
            workers: 2,
            cores_per_worker: 2,
            fault_plan: plan,
            ..ClusterConfig::default()
        });
        let (result, trace) = tucker_factorize_distributed_traced(&cluster, &xt, &tcfg).unwrap();
        let m = cluster.metrics();
        if expect_respawns {
            assert!(m.worker_respawns > 0, "the injected crash must fire");
        } else {
            assert_eq!(m.worker_respawns, 0);
        }
        if expect_retries {
            assert!(m.task_retries > 0, "the transient failures must fire");
        }
        (result, trace)
    };

    let (base_result, base_trace) = run(None);
    assert_eq!(base_result.error, TUCKER_ERROR);
    let crashy = FaultPlan {
        worker_crashes: vec![(4, 1)],
        ..FaultPlan::with_seed(99)
    };
    let flaky = FaultPlan {
        task_failure_rate: 0.1,
        max_task_attempts: 16,
        ..FaultPlan::with_seed(3)
    };
    for (plan, what) in [(crashy, "worker crash"), (flaky, "transient task failures")] {
        let (result, trace) = run(Some(plan));
        assert_eq!(result.factorization, base_result.factorization, "{what}");
        assert_eq!(result.error, base_result.error, "{what}");
        assert_eq!(
            result.iteration_errors, base_result.iteration_errors,
            "{what}"
        );
        assert_eq!(trace.fingerprint(), base_trace.fingerprint(), "{what}");
    }
}

/// A checkpointed run records `Checkpoint` operators in its plan.
#[test]
fn checkpoint_writes_appear_in_the_trace() {
    let dir = std::env::temp_dir().join(format!("dbtf-plan-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("trace.ckpt");
    let cfg = DbtfConfig {
        checkpoint_every: Some(1),
        checkpoint_path: Some(path.to_str().unwrap().into()),
        ..cp_config()
    };
    let cluster = Cluster::new(ClusterConfig::with_workers(2));
    let (_, trace) = factorize_traced(&cluster, &cp_tensor(), &cfg).unwrap();
    assert!(trace.count(OpKind::Checkpoint) >= 1);
    assert!(trace
        .ops
        .iter()
        .any(|op| op.kind == OpKind::Checkpoint && op.label == "cp.checkpoint"));
    let _ = std::fs::remove_dir_all(&dir);
}
