//! Fault-tolerance integration tests: the full DBTF pipeline under an
//! injected fault plan (worker crashes, transient task failures, slow
//! tasks) must converge to **bit-identical** factors, errors, and op
//! counts as a fault-free run — only the virtual clock and the recovery
//! counters may differ. Plus checkpoint/resume round-trips through the
//! driver.

use dbtf::{factorize, factorize_traced, Checkpoint, DbtfConfig, DbtfError, DbtfResult};
use dbtf_cluster::{Cluster, ClusterConfig, ExecutionBackend, FaultPlan, PlanTrace};
use dbtf_datagen::{NoiseSpec, PlantedConfig, PlantedTensor};
use dbtf_tensor::BoolTensor;

fn planted_tensor() -> BoolTensor {
    PlantedTensor::generate(PlantedConfig {
        dims: [24, 20, 22],
        rank: 3,
        factor_density: 0.3,
        noise: NoiseSpec::additive(0.05),
        seed: 13,
    })
    .tensor
}

fn run(
    x: &BoolTensor,
    workers: usize,
    plan: Option<FaultPlan>,
) -> (DbtfResult, dbtf_cluster::MetricsSnapshot, PlanTrace) {
    let cluster = Cluster::new(ClusterConfig {
        workers,
        cores_per_worker: 4,
        fault_plan: plan,
        ..ClusterConfig::default()
    });
    let cfg = DbtfConfig {
        rank: 3,
        max_iters: 4,
        initial_sets: 2,
        seed: 7,
        ..DbtfConfig::default()
    };
    let (result, trace) = factorize_traced(&cluster, x, &cfg).unwrap();
    let metrics = cluster.metrics();
    (result, metrics, trace)
}

/// The headline invariant: a crash + 5% transient failure rate + slow
/// tasks leaves every algorithmic output bit-identical, across worker
/// counts.
#[test]
fn faulty_run_is_bit_identical_to_fault_free() {
    let x = planted_tensor();
    for workers in [2usize, 4] {
        let (clean, clean_m, clean_trace) = run(&x, workers, None);
        let plan = FaultPlan {
            // Kill a worker mid-run (superstep 20 is inside the column
            // sweeps) and another one later.
            worker_crashes: vec![(20, workers - 1), (45, 0)],
            task_failure_rate: 0.05,
            slow_task_rate: 0.02,
            ..FaultPlan::with_seed(99)
        };
        let (faulty, faulty_m, faulty_trace) = run(&x, workers, Some(plan));

        // Bit-identical algorithmic outputs.
        assert_eq!(clean.factors, faulty.factors, "workers={workers}");
        assert_eq!(clean.error, faulty.error, "workers={workers}");
        assert_eq!(clean.iteration_errors, faulty.iteration_errors);
        assert_eq!(clean.iterations, faulty.iterations);
        assert_eq!(clean.converged, faulty.converged);
        // Bit-identical work accounting.
        assert_eq!(clean_m.total_ops, faulty_m.total_ops, "workers={workers}");
        assert_eq!(clean_m.tasks_run, faulty_m.tasks_run);
        assert_eq!(clean_m.supersteps, faulty_m.supersteps);

        // Bit-identical executed plan: operator for operator, faults must
        // not change what the driver ran or what it cost in bytes/ops.
        assert_eq!(
            faulty_trace.fingerprint(),
            clean_trace.fingerprint(),
            "workers={workers}"
        );
        // The trace localizes recovery to the operators it happened in.
        assert_eq!(clean_trace.recovery_events(), 0);
        assert!(faulty_trace.recovery_events() > 0, "workers={workers}");

        // Recovery is visible in the metrics, and only there.
        assert_eq!(faulty_m.worker_respawns, 2, "workers={workers}");
        assert!(faulty_m.partitions_recomputed > 0);
        assert!(faulty_m.bytes_reshipped > 0);
        assert!(faulty_m.task_retries > 0, "5% over hundreds of tasks");
        assert!(faulty_m.recovery_time.as_secs_f64() > 0.0);
        assert!(
            faulty_m.virtual_time > clean_m.virtual_time,
            "recovery must cost virtual time (workers={workers})"
        );
        assert_eq!(clean_m.worker_respawns, 0);
        assert_eq!(clean_m.task_retries, 0);
        assert_eq!(clean_m.recovery_time.as_secs_f64(), 0.0);
    }
}

/// Crashing every worker (one at a time) over the run still recovers.
#[test]
fn serial_crashes_of_every_worker_recover() {
    let x = planted_tensor();
    let workers = 3;
    let (clean, _, _) = run(&x, workers, None);
    let plan = FaultPlan {
        worker_crashes: (0..workers).map(|w| (10 + 7 * w as u64, w)).collect(),
        ..FaultPlan::with_seed(3)
    };
    let (faulty, m, _) = run(&x, workers, Some(plan));
    assert_eq!(clean.factors, faulty.factors);
    assert_eq!(clean.error, faulty.error);
    assert_eq!(m.worker_respawns, workers as u64);
}

#[test]
fn checkpoint_resume_reproduces_uninterrupted_run() {
    let x = planted_tensor();
    let dir = std::env::temp_dir().join(format!("dbtf-ft-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    let path_str = path.to_str().unwrap().to_string();

    let base = DbtfConfig {
        rank: 3,
        max_iters: 5,
        initial_sets: 2,
        seed: 21,
        convergence_threshold: -1.0, // run all 5 iterations
        ..DbtfConfig::default()
    };

    // Uninterrupted reference run.
    let full = factorize(
        &Cluster::new(ClusterConfig::with_workers(2)),
        &x,
        &base.clone(),
    )
    .unwrap();

    // "Crashing" run: checkpoint every iteration, stop after 2.
    let partial_cfg = DbtfConfig {
        max_iters: 2,
        checkpoint_every: Some(1),
        checkpoint_path: Some(path_str.clone()),
        ..base.clone()
    };
    let partial = factorize(
        &Cluster::new(ClusterConfig::with_workers(2)),
        &x,
        &partial_cfg,
    )
    .unwrap();
    let ck = Checkpoint::read(&path).unwrap();
    assert_eq!(ck.iteration, 2);
    assert_eq!(ck.error, partial.error);
    assert_eq!(ck.factors, partial.factors);
    assert_eq!(ck.iteration_errors, partial.iteration_errors);

    // Resumed run: picks up at iteration 3, finishes the remaining 3.
    let resume_cfg = DbtfConfig {
        resume: true,
        checkpoint_every: Some(1),
        checkpoint_path: Some(path_str.clone()),
        ..base.clone()
    };
    let resumed = factorize(
        &Cluster::new(ClusterConfig::with_workers(2)),
        &x,
        &resume_cfg,
    )
    .unwrap();
    assert_eq!(resumed.factors, full.factors, "resume must be bit-exact");
    assert_eq!(resumed.error, full.error);
    assert_eq!(resumed.iteration_errors, full.iteration_errors);
    assert_eq!(resumed.iterations, full.iterations);

    // The final checkpoint now holds the full run's state; resuming again
    // is a no-op that returns the same answer.
    let again = factorize(
        &Cluster::new(ClusterConfig::with_workers(2)),
        &x,
        &resume_cfg,
    )
    .unwrap();
    assert_eq!(again.factors, full.factors);
    assert_eq!(again.iteration_errors, full.iteration_errors);

    // Resume with a missing file falls back to a fresh run.
    std::fs::remove_file(&path).unwrap();
    let fresh = factorize(
        &Cluster::new(ClusterConfig::with_workers(2)),
        &x,
        &DbtfConfig {
            resume: true,
            checkpoint_path: Some(path_str.clone()),
            ..base.clone()
        },
    )
    .unwrap();
    assert_eq!(fresh.factors, full.factors);

    // Resume over a corrupt file is a clean error, not a silent restart.
    std::fs::write(&path, "garbage").unwrap();
    let err = factorize(
        &Cluster::new(ClusterConfig::with_workers(2)),
        &x,
        &DbtfConfig {
            resume: true,
            checkpoint_path: Some(path_str),
            ..base
        },
    )
    .unwrap_err();
    assert!(matches!(err, DbtfError::Checkpoint(_)), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A task that exhausts its launch attempts after iteration 1 ends the run
/// with the typed engine error, and the degrade flush leaves the committed
/// iterations on disk, equal to the uninterrupted run's prefix.
#[test]
fn exhausted_task_degrades_to_the_committed_checkpoint() {
    let x = planted_tensor();
    let dir = std::env::temp_dir().join(format!("dbtf-ft-exhaust-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    let cluster = |fault_plan| {
        Cluster::new(ClusterConfig {
            workers: 2,
            cores_per_worker: 4,
            fault_plan,
            ..ClusterConfig::default()
        })
    };
    let base = DbtfConfig {
        rank: 3,
        max_iters: 4,
        initial_sets: 2,
        seed: 7,
        convergence_threshold: -1.0, // run all iterations
        ..DbtfConfig::default()
    };
    let full = factorize(&cluster(None), &x, &base).unwrap();

    // Eight partitions. Supersteps 0-2 organize the modes, 3-32 are
    // iteration 1 (two initial sets × three modes × begin, three columns
    // and finish) and each later iteration takes 15. At a 0.3 failure rate
    // with 5 attempts, the first task of seed 24 to fail all five is
    // partition 0 in superstep 68, inside iteration 4 (63-77), so three
    // iterations have committed when the run fails.
    let plan = FaultPlan {
        task_failure_rate: 0.3,
        max_task_attempts: 5,
        ..FaultPlan::with_seed(24)
    };
    let doomed = DbtfConfig {
        checkpoint_path: Some(path.to_str().unwrap().into()),
        // Periodic checkpoints effectively off: the file below is the
        // failure's flush.
        checkpoint_every: Some(100),
        ..base
    };
    match factorize(&cluster(Some(plan)), &x, &doomed) {
        Err(DbtfError::Engine(msg)) => assert!(
            msg.contains("partition 0 on worker 0: task exhausted 5 launch attempts"),
            "unexpected message: {msg}"
        ),
        other => panic!("expected a typed engine error, got {other:?}"),
    }
    let ck = Checkpoint::read(&path).expect("the failure flushed a checkpoint");
    assert_eq!(ck.iteration, 3);
    assert_eq!(ck.iteration_errors, full.iteration_errors[..3]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpointing composes with fault injection: a faulty, checkpointed,
/// resumed run still lands on the fault-free answer.
#[test]
fn checkpoint_resume_under_faults() {
    let x = planted_tensor();
    let dir = std::env::temp_dir().join(format!("dbtf-ft-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chaos.ckpt");
    let base = DbtfConfig {
        rank: 3,
        max_iters: 4,
        seed: 2,
        convergence_threshold: -1.0,
        ..DbtfConfig::default()
    };
    let full = factorize(
        &Cluster::new(ClusterConfig::with_workers(2)),
        &x,
        &base.clone(),
    )
    .unwrap();

    let plan = FaultPlan {
        worker_crashes: vec![(8, 1)],
        task_failure_rate: 0.05,
        ..FaultPlan::with_seed(40)
    };
    let faulty_cluster = |plan: FaultPlan| {
        Cluster::new(ClusterConfig {
            workers: 2,
            fault_plan: Some(plan),
            ..ClusterConfig::default()
        })
    };
    // Interrupted faulty run…
    factorize(
        &faulty_cluster(plan.clone()),
        &x,
        &DbtfConfig {
            max_iters: 2,
            checkpoint_every: Some(2),
            checkpoint_path: Some(path.to_str().unwrap().into()),
            ..base.clone()
        },
    )
    .unwrap();
    // …resumed on a different faulty cluster.
    let resumed = factorize(
        &faulty_cluster(plan),
        &x,
        &DbtfConfig {
            resume: true,
            checkpoint_path: Some(path.to_str().unwrap().into()),
            ..base
        },
    )
    .unwrap();
    assert_eq!(resumed.factors, full.factors);
    assert_eq!(resumed.error, full.error);
    let _ = std::fs::remove_dir_all(&dir);
}
