//! Out-of-core golden tests: `storage = mmap` must be **bit-identical** to
//! the default heap path on every execution backend — factors, error,
//! iteration history, Lemma 6/7 byte meters, op counts, the virtual clock
//! down to the exact f64 bit, and the executed plan's fingerprint — and
//! must match the same pre-refactor golden constants `plan_golden.rs`
//! pins, including under injected faults (where a lost partition is
//! recomputed by re-opening the columnar file spilled from the cut
//! instead of re-cutting it from the tensor).

use dbtf::net_tasks;
use dbtf::{factorize_traced, DbtfConfig, DbtfResult, StorageKind};
use dbtf_cluster::{
    Cluster, ClusterConfig, ExecutionBackend, FaultPlan, LocalBackend, MetricsSnapshot, NetBackend,
    NetTuning, PlanTrace, WorkerHost,
};
use dbtf_datagen::uniform_random;
use dbtf_tensor::{BitMatrix, BoolTensor};

/// FNV-style position-sensitive hash of a bit matrix (same function and
/// golden constants as `plan_golden.rs` — captured on pre-refactor output).
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

fn cp_tensor() -> BoolTensor {
    uniform_random([18, 15, 12], 0.15, 3)
}

fn cp_config(storage: StorageKind) -> DbtfConfig {
    DbtfConfig {
        rank: 4,
        max_iters: 3,
        initial_sets: 2,
        seed: 7,
        storage,
        ..DbtfConfig::default()
    }
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

fn cp_on_cluster(
    storage: StorageKind,
    plan: Option<FaultPlan>,
) -> (DbtfResult, PlanTrace, MetricsSnapshot) {
    let cluster = Cluster::new(ClusterConfig {
        workers: 3,
        fault_plan: plan,
        ..ClusterConfig::default()
    });
    let (result, trace) = factorize_traced(&cluster, &cp_tensor(), &cp_config(storage)).unwrap();
    let metrics = cluster.metrics();
    (result, trace, metrics)
}

/// A thread-hosted networked backend: real TCP protocol, real lineage
/// recovery, simulated kills (`Die` frames instead of `SIGKILL`).
fn net_backend(plan: Option<FaultPlan>) -> NetBackend {
    net_tasks::net_backend(
        ClusterConfig {
            workers: 3,
            fault_plan: plan,
            ..ClusterConfig::default()
        },
        WorkerHost::Thread(net_tasks::build_registry()),
        NetTuning { respawn_budget: 64 },
    )
    .expect("net backend binds and spawns")
}

/// The headline invariant: the mmap run hits the exact same pinned
/// constants as the heap run — including the virtual clock to the f64
/// bit — and executes the identical plan.
#[test]
fn mmap_cluster_matches_pre_refactor_golden_bit_for_bit() {
    let (ram, ram_trace, ram_m) = cp_on_cluster(StorageKind::Ram, None);
    let (mmap, mmap_trace, mmap_m) = cp_on_cluster(StorageKind::Mmap, None);

    assert_cp_golden(&ram, &ram_m, "ram");
    assert_cp_golden(&mmap, &mmap_m, "mmap");
    assert_eq!(
        mmap_m.virtual_time.as_secs_f64().to_bits(),
        CP_VIRTUAL_TIME_BITS,
        "mmap virtual clock"
    );
    assert_eq!(mmap.factors, ram.factors);
    assert_eq!(mmap.converged, ram.converged);
    assert_eq!(mmap_trace.fingerprint(), ram_trace.fingerprint());
}

#[test]
fn mmap_local_backend_is_bit_identical_to_ram() {
    let x = cp_tensor();
    let local_ram = LocalBackend::new(3, 8);
    let (ram, ram_trace) = factorize_traced(&local_ram, &x, &cp_config(StorageKind::Ram)).unwrap();
    let local_mmap = LocalBackend::new(3, 8);
    let (mmap, mmap_trace) =
        factorize_traced(&local_mmap, &x, &cp_config(StorageKind::Mmap)).unwrap();

    assert_cp_golden(&mmap, &local_mmap.metrics(), "local mmap");
    assert_eq!(mmap.factors, ram.factors);
    assert_eq!(mmap.iteration_errors, ram.iteration_errors);
    assert_eq!(mmap_trace.fingerprint(), ram_trace.fingerprint());
}

#[test]
fn mmap_net_backend_is_bit_identical_to_ram() {
    let x = cp_tensor();
    let ram_backend = net_backend(None);
    let (ram, ram_trace) =
        factorize_traced(&ram_backend, &x, &cp_config(StorageKind::Ram)).unwrap();
    let ram_m = ram_backend.metrics();
    let mmap_backend = net_backend(None);
    let (mmap, mmap_trace) =
        factorize_traced(&mmap_backend, &x, &cp_config(StorageKind::Mmap)).unwrap();
    let mmap_m = mmap_backend.metrics();

    assert_cp_golden(&mmap, &mmap_m, "net mmap");
    assert_eq!(mmap.factors, ram.factors);
    assert_eq!(mmap.iteration_errors, ram.iteration_errors);
    assert_eq!(mmap_trace.fingerprint(), ram_trace.fingerprint());
    // The partitions a mmap run ships are byte-identical, so the measured
    // wire payload must match too.
    assert_eq!(mmap_m.net_wire_bytes_sent, ram_m.net_wire_bytes_sent);
    assert_eq!(
        mmap_m.net_wire_bytes_received,
        ram_m.net_wire_bytes_received
    );
}

/// Crash recovery over mmap storage: lost partitions are recomputed by
/// re-opening the spilled columnar file — the result, the meters, and the
/// executed plan must be exactly the clean run's, while the recovery
/// counters show the rebuild actually happened.
#[test]
fn mmap_survives_worker_crashes_bit_identically() {
    let plan = FaultPlan {
        worker_crashes: vec![(20, 2), (45, 0)],
        task_failure_rate: 0.05,
        ..FaultPlan::with_seed(99)
    };
    let (clean, clean_trace, _) = cp_on_cluster(StorageKind::Mmap, None);
    let (faulty, faulty_trace, faulty_m) = cp_on_cluster(StorageKind::Mmap, Some(plan.clone()));

    assert_cp_golden(&faulty, &faulty_m, "faulty mmap");
    assert_eq!(faulty.factors, clean.factors);
    assert_eq!(faulty_trace.fingerprint(), clean_trace.fingerprint());
    assert!(
        faulty_m.worker_respawns > 0,
        "the injected crashes must fire"
    );
    assert!(faulty_trace.recovery_events() > 0);

    // The same kills delivered over the networked substrate (Die frames on
    // the TCP protocol — the thread-hosted stand-in for SIGKILL) must
    // recover just as invisibly.
    let net = net_backend(Some(plan));
    let (net_result, net_trace) =
        factorize_traced(&net, &cp_tensor(), &cp_config(StorageKind::Mmap)).unwrap();
    let net_m = net.metrics();
    assert_cp_golden(&net_result, &net_m, "faulty net mmap");
    assert_eq!(net_result.factors, clean.factors);
    assert_eq!(net_trace.fingerprint(), clean_trace.fingerprint());
    assert!(net_m.worker_respawns > 0);
}

/// The spill directory is run-scoped: an explicit `--spill-dir` gets a
/// uniquely named subdirectory that is gone once the run's datasets (and
/// with them the lineage rebuild closures) are dropped.
#[test]
fn spill_directory_is_cleaned_up_after_the_run() {
    let base = std::env::temp_dir().join(format!("dbtf-ooc-test-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let cfg = DbtfConfig {
        spill_dir: Some(base.to_str().unwrap().to_string()),
        ..cp_config(StorageKind::Mmap)
    };
    let cluster = Cluster::new(ClusterConfig::with_workers(3));
    let (result, _) = factorize_traced(&cluster, &cp_tensor(), &cfg).unwrap();
    assert_eq!(result.error, CP_ERROR);
    let leftovers: Vec<_> = std::fs::read_dir(&base).unwrap().collect();
    assert!(
        leftovers.is_empty(),
        "spill dir not cleaned up: {leftovers:?}"
    );
    std::fs::remove_dir_all(&base).unwrap();
}
