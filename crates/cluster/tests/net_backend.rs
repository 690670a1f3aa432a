//! Networked-backend integration tests: thread-hosted workers behind real
//! TCP sockets, exercised through the same `ExecutionBackend` surface as
//! the simulated cluster — asserting bit-identical results and metering,
//! measured-wire == Lemma-meter equality, fault recovery, and typed
//! respawn-budget degradation.

use std::sync::Arc;
use std::time::Duration;

use dbtf_cluster::{
    Broadcast, BroadcastStore, Cluster, ClusterConfig, ClusterError, ExecutionBackend, FaultPlan,
    MetricsSnapshot, NetBackend, NetRegistry, NetTuning, NetworkModel, TaskContext, WireTask,
    WorkerHost,
};
use dbtf_wire::{EncodedFrame, Wire, WireResult};

/// `v ← v · factor + delta` on a `u64` partition, with `delta` a
/// broadcast: the in-process backends run the value the test builds, the
/// networked workers the value they decode.
struct ScaleAdd {
    factor: u64,
    delta: Broadcast<u64>,
}

impl WireTask for ScaleAdd {
    const NAME: &'static str = "test.scale_add";
    type Part = u64;
    type Output = u64;

    fn encode(&self) -> EncodedFrame {
        let bid = self
            .delta
            .wire_id()
            .expect("the delta was broadcast over the wire");
        (self.factor, bid).to_frame()
    }

    fn decode(params: &[u8], broadcasts: &BroadcastStore) -> WireResult<Self> {
        let (factor, bid) = <(u64, u64)>::from_frame(params)?;
        Ok(ScaleAdd {
            factor,
            delta: broadcasts.get(bid),
        })
    }

    fn run(&self, v: &mut u64, ctx: &mut TaskContext) -> u64 {
        *v = v.wrapping_mul(self.factor).wrapping_add(*self.delta);
        ctx.charge(*v % 97 + 5);
        ctx.set_result_bytes(8);
        *v
    }
}

fn registry() -> Arc<NetRegistry> {
    let mut reg = NetRegistry::new();
    reg.register_part::<u64>()
        .register_broadcast::<u64>()
        .register_task::<ScaleAdd>();
    Arc::new(reg)
}

fn config(workers: usize, plan: Option<FaultPlan>) -> ClusterConfig {
    ClusterConfig {
        workers,
        cores_per_worker: 2,
        core_throughput_ops_per_sec: 1e6,
        network: NetworkModel {
            latency_secs: 1e-3,
            bandwidth_bytes_per_sec: 1e6,
        },
        fault_plan: plan,
    }
}

fn net_backend(workers: usize, plan: Option<FaultPlan>) -> NetBackend {
    // The simulated cluster respawns crashed workers without limit, so the
    // parity tests raise the budget; the exhaustion test uses the default.
    let tuning = NetTuning { respawn_budget: 64 };
    NetBackend::new(
        config(workers, plan),
        registry(),
        WorkerHost::Thread(registry()),
        tuning,
    )
    .expect("net backend boots")
}

/// Distributes 8 partitions with lineage, broadcasts a delta, and applies
/// the scale-add task for `rounds` supersteps; each round's outputs are the
/// partitions' new values, so the last round reads the final state.
/// Identical calls on every backend.
fn workload<B: ExecutionBackend>(backend: &B, rounds: usize) -> (Vec<Vec<u64>>, MetricsSnapshot) {
    paced_workload(backend, rounds, Duration::ZERO)
}

/// [`workload`], sleeping `pause` of wall time after every superstep.
fn paced_workload<B: ExecutionBackend>(
    backend: &B,
    rounds: usize,
    pause: Duration,
) -> (Vec<Vec<u64>>, MetricsSnapshot) {
    let data = backend
        .distribute_with_lineage((0..8u64).map(|v| (v * 3 + 1, 8)).collect(), |idx| {
            idx as u64 * 3 + 1
        });
    let delta = backend.broadcast(7u64, 8);
    let mut outputs = Vec::new();
    for _ in 0..rounds {
        let task = ScaleAdd {
            factor: 2,
            delta: delta.clone(),
        };
        let (out, _events) = backend.map_partitions_task(&data, task, false);
        outputs.push(out);
        std::thread::sleep(pause);
    }
    let metrics = backend.metrics();
    (outputs, metrics)
}

#[test]
fn networked_run_matches_simulated_cluster_bit_for_bit() {
    let cluster = Cluster::new(config(3, None));
    let net = net_backend(3, None);
    let (out_c, m_c) = workload(&cluster, 3);
    let (out_n, m_n) = workload(&net, 3);
    assert_eq!(out_c, out_n);
    // Snapshot equality covers every declared counter and the virtual
    // clock; the net_*/pool_* observability fields are outside `==`.
    assert_eq!(m_c, m_n);
}

#[test]
fn measured_wire_bytes_match_lemma_meters_exactly() {
    let net = net_backend(3, None);
    let (_, m) = workload(&net, 3);
    // Lemma 6/7 on the wire: every driver→worker payload byte is either
    // shuffle or broadcast; every worker→driver payload byte is collect.
    assert_eq!(m.net_wire_bytes_sent, m.bytes_shuffled + m.bytes_broadcast);
    assert_eq!(m.net_wire_bytes_received, m.bytes_collected);
    assert_eq!(m.net_wire_reship_bytes, 0);
    // Framing, params, acks, and handshakes are accounted, separately.
    assert!(m.net_wire_overhead_bytes > 0);
    assert!(m.bytes_shuffled > 0 && m.bytes_broadcast > 0 && m.bytes_collected > 0);
}

#[test]
fn framing_overhead_does_not_depend_on_wall_time() {
    // Idle wall time between supersteps puts nothing on the wire, so a run
    // that pauses after every superstep meters the same framing bytes.
    let brisk = workload(&net_backend(2, None), 2);
    let paced = paced_workload(&net_backend(2, None), 2, Duration::from_millis(1200));
    assert_eq!(brisk.0, paced.0);
    assert_eq!(
        brisk.1.net_wire_overhead_bytes,
        paced.1.net_wire_overhead_bytes
    );
}

#[test]
fn seeded_process_kills_recover_bit_identically_to_simulated_crashes() {
    // Same FaultPlan on both backends: `kills_at` gives them the same
    // crash schedule, lineage recovery must re-converge both to the
    // fault-free answer with identical recovery metering.
    let plan = FaultPlan {
        worker_crashes: vec![(1, 0), (2, 2)],
        process_kill_rate: 0.3,
        ..FaultPlan::with_seed(41)
    };
    let baseline = workload(&Cluster::new(config(3, None)), 4);
    let crashed = workload(&Cluster::new(config(3, Some(plan.clone()))), 4);
    let netted = workload(&net_backend(3, Some(plan)), 4);
    assert_eq!(baseline.0, crashed.0);
    assert_eq!(baseline.0, netted.0);
    assert_eq!(crashed.1, netted.1);
    assert!(netted.1.worker_respawns > 0, "plan must actually kill");
    assert_eq!(netted.1.worker_respawns, crashed.1.worker_respawns);
    assert!(netted.1.net_wire_reship_bytes > 0);
    // Recovery traffic never leaks into the Lemma-mirroring meters.
    assert_eq!(
        netted.1.net_wire_bytes_sent,
        netted.1.bytes_shuffled + netted.1.bytes_broadcast
    );
    assert_eq!(netted.1.net_wire_bytes_received, netted.1.bytes_collected);
}

#[test]
fn connection_drops_and_delays_change_nothing_but_reconnect_counters() {
    let plan = FaultPlan {
        connection_drop_rate: 0.4,
        response_delay_rate: 0.3,
        response_delay_ms: 5,
        ..FaultPlan::with_seed(11)
    };
    let baseline = workload(&Cluster::new(config(3, None)), 3);
    let dropped = workload(&net_backend(3, Some(plan)), 3);
    assert_eq!(baseline.0, dropped.0);
    assert_eq!(baseline.1, dropped.1);
    assert!(dropped.1.net_reconnects > 0, "seed must actually drop");
    assert_eq!(dropped.1.worker_respawns, 0, "drops alone never escalate");
    assert_eq!(
        dropped.1.net_wire_bytes_sent,
        dropped.1.bytes_shuffled + dropped.1.bytes_broadcast
    );
    assert_eq!(dropped.1.net_wire_bytes_received, dropped.1.bytes_collected);
}

#[test]
fn consecutive_kills_of_one_worker_recover_cleanly() {
    // Satellite: the same worker dies at two consecutive superstep
    // boundaries — recovery must rebuild twice and still be bit-identical.
    let plan = FaultPlan {
        worker_crashes: vec![(1, 1), (2, 1)],
        ..FaultPlan::with_seed(5)
    };
    let baseline = workload(&Cluster::new(config(3, None)), 4);
    let crashed = workload(&Cluster::new(config(3, Some(plan.clone()))), 4);
    let netted = workload(&net_backend(3, Some(plan)), 4);
    assert_eq!(baseline.0, netted.0);
    assert_eq!(crashed.1, netted.1);
    assert_eq!(netted.1.worker_respawns, 2);
    assert!(netted.1.partitions_recomputed >= 4, "both crashes rebuilt");
}

#[test]
fn respawn_budget_exhaustion_is_a_typed_error_not_a_hang() {
    // Every delivery attempt drops, so every request escalates to a kill,
    // and the respawn budget runs out: the run must degrade to a typed
    // ClusterError instead of looping or hanging.
    let plan = FaultPlan {
        connection_drop_rate: 1.0,
        ..FaultPlan::with_seed(3)
    };
    let net = NetBackend::new(
        config(2, Some(plan)),
        registry(),
        WorkerHost::Thread(registry()),
        NetTuning::default(),
    )
    .expect("net backend boots");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        workload(&net, 1);
    }));
    let payload = result.expect_err("must fail, not succeed");
    let err = payload
        .downcast_ref::<ClusterError>()
        .expect("panic payload is the typed ClusterError");
    match err {
        ClusterError::RespawnBudgetExhausted { respawns, .. } => {
            assert_eq!(*respawns, NetTuning::default().respawn_budget + 1);
        }
        other => panic!("expected RespawnBudgetExhausted, got {other}"),
    }
}

#[test]
fn plain_closures_are_rejected_with_instructions() {
    let net = net_backend(2, None);
    let data = net.distribute_with_lineage(vec![(1u64, 8), (2u64, 8)], |idx| idx as u64 + 1);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _: Vec<u64> = net.map_partitions(&data, |_idx, v: &mut u64, _ctx| *v);
    }));
    let payload = result.expect_err("closures cannot cross process boundaries");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("WireTask"), "actionable message, got: {msg}");
}
