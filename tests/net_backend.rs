//! End-to-end tests of the networked backend: the full DBTF pipeline
//! with workers in separate execution domains speaking the TCP protocol
//! (thread-hosted here — the real-process SIGKILL path is exercised in
//! `crates/cli/tests/net.rs` against the built binary).
//!
//! The invariants under test:
//!
//! - a networked run is **bit-identical** to the simulated cluster and
//!   the local backend — factors, errors, byte meters, executed plan;
//! - the bytes *measured on the wire* equal the Lemma 6/7 cost-model
//!   meters exactly (no hidden payload, no slack);
//! - kill-riddled runs (the same seeded schedule the simulated backend
//!   uses) recover through respawn + lineage recompute and stay
//!   bit-identical;
//! - exhausting the respawn budget degrades to a typed error after
//!   flushing a final checkpoint, and a later resume from that
//!   checkpoint — even one that crashes again — is bit-exact.

use dbtf::net_tasks;
use dbtf::{factorize, factorize_traced, Checkpoint, DbtfConfig, DbtfError, DbtfResult};
use dbtf_cluster::{
    Cluster, ClusterConfig, ExecutionBackend, FaultPlan, LocalBackend, MetricsSnapshot, NetBackend,
    NetTuning, PlanTrace, WorkerHost,
};
use dbtf_datagen::{NoiseSpec, PlantedConfig, PlantedTensor};
use dbtf_oracle::{check_wire_meters, CommOracle};
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

fn config() -> DbtfConfig {
    DbtfConfig {
        rank: 3,
        max_iters: 4,
        initial_sets: 2,
        seed: 7,
        ..DbtfConfig::default()
    }
}

fn cluster_config(workers: usize, plan: Option<FaultPlan>) -> ClusterConfig {
    ClusterConfig {
        workers,
        cores_per_worker: 4,
        fault_plan: plan,
        ..ClusterConfig::default()
    }
}

/// A thread-hosted networked backend: real TCP protocol, real lineage
/// recovery, simulated kills (`Die` frames instead of `SIGKILL`).
fn net_backend(workers: usize, plan: Option<FaultPlan>, respawn_budget: u32) -> NetBackend {
    net_tasks::net_backend(
        cluster_config(workers, plan),
        WorkerHost::Thread(net_tasks::build_registry()),
        NetTuning { respawn_budget },
    )
    .expect("net backend binds and spawns")
}

fn run_net(
    workers: usize,
    plan: Option<FaultPlan>,
    cfg: &DbtfConfig,
) -> (DbtfResult, MetricsSnapshot, PlanTrace) {
    let backend = net_backend(workers, plan, 64);
    let (result, trace) = factorize_traced(&backend, &planted_tensor(), cfg).unwrap();
    let metrics = backend.metrics();
    (result, metrics, trace)
}

/// The headline parity invariant: one plan, three execution substrates —
/// in-process simulated cluster, in-process local, and TCP-networked
/// workers — all bit-identical in factors, errors, byte meters, and the
/// executed plan's fingerprint.
#[test]
fn net_run_is_bit_identical_to_cluster_and_local() {
    let x = planted_tensor();
    let cfg = config();

    let cluster = Cluster::new(cluster_config(3, None));
    let (sim, sim_trace) = factorize_traced(&cluster, &x, &cfg).unwrap();
    let sim_m = cluster.metrics();

    let local = LocalBackend::from_cluster_config(&cluster_config(3, None));
    let (loc, loc_trace) = factorize_traced(&local, &x, &cfg).unwrap();

    let (net, net_m, net_trace) = run_net(3, None, &cfg);

    for (name, other) in [("cluster", &sim), ("local", &loc)] {
        assert_eq!(net.factors, other.factors, "factors vs {name}");
        assert_eq!(net.error, other.error, "error vs {name}");
        assert_eq!(net.iteration_errors, other.iteration_errors);
        assert_eq!(net.converged, other.converged);
    }
    // Identical cost-model meters…
    assert_eq!(net_m.bytes_shuffled, sim_m.bytes_shuffled);
    assert_eq!(net_m.bytes_broadcast, sim_m.bytes_broadcast);
    assert_eq!(net_m.bytes_collected, sim_m.bytes_collected);
    assert_eq!(net_m.total_ops, sim_m.total_ops);
    assert_eq!(net_m.supersteps, sim_m.supersteps);
    assert_eq!(net_m.tasks_run, sim_m.tasks_run);
    // …and an identical executed plan, span for span.
    assert_eq!(net_trace.fingerprint(), sim_trace.fingerprint());
    assert_eq!(net_trace.fingerprint(), loc_trace.fingerprint());
}

/// Lemma 6/7 made physical: the payload bytes measured on the TCP wire
/// equal the cost-model meters *exactly* — which the closed-form oracle
/// in turn predicts from shape, rank, and partition count alone.
#[test]
fn measured_wire_bytes_equal_cost_model_meters() {
    let x = planted_tensor();
    let cfg = config();
    let (result, m, _) = run_net(3, None, &cfg);

    assert_eq!(
        check_wire_meters(&m),
        Vec::<String>::new(),
        "wire bytes must equal the lemma meters"
    );
    // Chain through the closed-form oracle: wire == meter == formula.
    let oracle = CommOracle::for_run(&x, &cfg, &result, 3);
    assert_eq!(oracle.check(&x, &m), Vec::<String>::new());

    // Framing (headers, acks, handshakes, task params) is accounted
    // separately and never leaks into the payload meters.
    assert!(m.net_wire_overhead_bytes > 0, "framing is metered");
    assert_eq!(m.net_wire_reship_bytes, 0, "no recovery on a clean run");
    assert_eq!(m.net_reconnects, 0);
}

/// Kill-riddled networked runs stay bit-identical: the same seeded kill
/// schedule (scheduled crashes plus a hashed kill rate, including two
/// crashes of one worker in back-to-back supersteps) drives real worker
/// deaths + respawns on the net backend and simulated ones on the
/// cluster, with identical results *and* identical recovery accounting.
#[test]
fn kill_riddled_net_run_is_bit_identical() {
    let cfg = config();
    let workers = 3;
    let plan = FaultPlan {
        // Worker 1 dies twice in one superstep window (its respawn dies
        // again before contributing), worker 0 later; the rate adds
        // seeded kills on top.
        worker_crashes: vec![(20, 1), (21, 1), (45, 0)],
        process_kill_rate: 0.02,
        ..FaultPlan::with_seed(99)
    };

    let (clean, clean_m, clean_trace) = run_net(workers, None, &cfg);
    let (killed, killed_m, killed_trace) = run_net(workers, Some(plan.clone()), &cfg);

    assert_eq!(clean.factors, killed.factors);
    assert_eq!(clean.error, killed.error);
    assert_eq!(clean.iteration_errors, killed.iteration_errors);
    assert_eq!(clean_trace.fingerprint(), killed_trace.fingerprint());
    // The lemma meters are unchanged by recovery, and the wire still
    // matches them exactly — reships are metered separately.
    assert_eq!(killed_m.bytes_shuffled, clean_m.bytes_shuffled);
    assert_eq!(killed_m.bytes_broadcast, clean_m.bytes_broadcast);
    assert_eq!(killed_m.bytes_collected, clean_m.bytes_collected);
    assert_eq!(check_wire_meters(&killed_m), Vec::<String>::new());
    assert!(killed_m.worker_respawns >= 3, "all scheduled kills fired");
    assert!(killed_m.net_wire_reship_bytes > 0, "state was re-shipped");
    assert!(killed_m.bytes_reshipped > 0);
    assert!(killed_m.partitions_recomputed > 0);

    // And the simulated cluster under the *same* plan agrees on every
    // recovery counter — same schedule, same lineage decisions.
    let cluster = Cluster::new(cluster_config(workers, Some(plan)));
    let (sim, _) = factorize_traced(&cluster, &planted_tensor(), &cfg).unwrap();
    let sim_m = cluster.metrics();
    assert_eq!(sim.factors, killed.factors);
    assert_eq!(sim_m.worker_respawns, killed_m.worker_respawns);
    assert_eq!(sim_m.partitions_recomputed, killed_m.partitions_recomputed);
    assert_eq!(sim_m.bytes_reshipped, killed_m.bytes_reshipped);
    assert_eq!(sim_m.virtual_time, killed_m.virtual_time);
}

/// Exhausting the respawn budget must not hang or panic through: the
/// driver flushes the last committed iteration to the checkpoint and
/// returns a typed engine error. Resuming from that checkpoint — under a
/// fresh backend that crashes *again* during the resumed run — still
/// reproduces the uninterrupted result bit for bit.
#[test]
fn respawn_exhaustion_degrades_then_resume_survives_another_crash() {
    let x = planted_tensor();
    let dir = std::env::temp_dir().join(format!("dbtf-net-degrade-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    let base = DbtfConfig {
        convergence_threshold: -1.0, // run all iterations
        ..config()
    };

    // Uninterrupted reference (any backend — they are bit-identical).
    let full = factorize(&Cluster::new(cluster_config(2, None)), &x, &base).unwrap();

    // Doomed run: worker 0 is killed three times late in the run (inside
    // iteration ≥ 2) with a budget of one respawn.
    let doomed_cfg = DbtfConfig {
        checkpoint_path: Some(path.to_str().unwrap().into()),
        // Periodic checkpoints effectively off: any file present below
        // was written by the degradation flush itself.
        checkpoint_every: Some(100),
        ..base.clone()
    };
    let plan = FaultPlan {
        worker_crashes: vec![(40, 0), (42, 0), (44, 0)],
        ..FaultPlan::with_seed(5)
    };
    let backend = net_backend(2, Some(plan), 1);
    let err = factorize(&backend, &x, &doomed_cfg).expect_err("budget of 1 cannot cover 3 kills");
    match &err {
        DbtfError::Engine(msg) => {
            assert!(msg.contains("respawn budget"), "unexpected message: {msg}")
        }
        other => panic!("expected a typed engine error, got {other:?}"),
    }

    // The degradation flush left a durable, committed prefix of the run.
    let ck = Checkpoint::read(&path).expect("degradation flushed a checkpoint");
    assert!(ck.iteration >= 1, "at least one iteration was committed");
    assert_eq!(ck.iteration_errors.len(), ck.iteration);
    assert_eq!(ck.iteration_errors, full.iteration_errors[..ck.iteration]);

    // Resume under faults again — two more kills, now within budget.
    let resume_cfg = DbtfConfig {
        resume: true,
        ..doomed_cfg
    };
    let resume_plan = FaultPlan {
        worker_crashes: vec![(10, 1), (11, 1)],
        ..FaultPlan::with_seed(6)
    };
    let backend = net_backend(2, Some(resume_plan), 64);
    let resumed = factorize(&backend, &x, &resume_cfg).unwrap();
    assert_eq!(resumed.factors, full.factors, "resume must be bit-exact");
    assert_eq!(resumed.error, full.error);
    assert_eq!(resumed.iteration_errors, full.iteration_errors);
    assert!(backend.metrics().worker_respawns >= 2);

    std::fs::remove_dir_all(&dir).ok();
}
