//! End-to-end differential tests of the incremental-update pipeline
//! (`dbtf update`): seeded deltas applied to a fitted factorization,
//! re-swept through `dbtf::update_factors` on every execution substrate
//! (simulated cluster, local threads, TCP-networked workers) and both
//! storage kinds (heap unfoldings, mmap-backed out-of-core unfoldings).
//!
//! The invariants under test:
//!
//! - the bounded re-sweep is **bit-identical** across all
//!   backend × storage combinations — factors, errors, per-round error
//!   trajectory, and the executed plan's fingerprint;
//! - the affected-column bound matches the literal oracle rule, the
//!   columns outside it come back untouched, and the result is never
//!   worse than the pre-delta factors on the updated tensor
//!   ([`dbtf_oracle::check_bounded_resweep`]);
//! - the fast sorted-merge delta application agrees with the
//!   cell-by-cell oracle rebuild;
//! - kill-riddled networked delta runs recover through lineage
//!   recompute of the *overlaid* partitions (base unfolding + re-applied
//!   delta) and stay bit-identical to a clean run.

use dbtf::net_tasks;
use dbtf::{factorize, update_factors_traced, DbtfConfig, DeltaResult, FactorSet, StorageKind};
use dbtf_cluster::{
    Cluster, ClusterConfig, ExecutionBackend, FaultPlan, LocalBackend, NetBackend, NetTuning,
    PlanTrace, WorkerHost,
};
use dbtf_datagen::{NoiseSpec, PlantedConfig, PlantedTensor};
use dbtf_oracle::{check_bounded_resweep, cp_error, delta_affected_columns, delta_apply};
use dbtf_tensor::{BoolTensor, DeltaCell, TensorDelta};

const WORKERS: usize = 2;
const CORES: usize = 4;

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
        // The plan fingerprint meters per-worker broadcast bytes, so the
        // cross-backend invariant needs matched topologies and a pinned
        // partition count (exactly as for the full driver).
        partitions: Some(WORKERS * CORES),
        ..DbtfConfig::default()
    }
}

fn cluster_config(plan: Option<FaultPlan>) -> ClusterConfig {
    ClusterConfig {
        workers: WORKERS,
        cores_per_worker: CORES,
        fault_plan: plan,
        ..ClusterConfig::default()
    }
}

fn net_backend(plan: Option<FaultPlan>, respawn_budget: u32) -> NetBackend {
    net_tasks::net_backend(
        cluster_config(plan),
        WorkerHost::Thread(net_tasks::build_registry()),
        NetTuning {
            respawn_budget,
            ..NetTuning::default()
        },
    )
    .expect("net backend binds and spawns")
}

fn fitted(x: &BoolTensor) -> FactorSet {
    let cluster = Cluster::new(cluster_config(None));
    factorize(&cluster, x, &config()).unwrap().factors
}

/// A deterministic delta derived from the tensor and a small seed:
/// clears a spread of present cells (every `stride`-th entry) and sets a
/// few absent ones at seed-derived coordinates. Duplicate coordinates
/// are fine — the format is last-wins.
fn seeded_delta(x: &BoolTensor, seed: u32) -> TensorDelta {
    let [d0, d1, d2] = x.dims();
    let entries: Vec<[u32; 3]> = x.iter().collect();
    let stride = 89 + 7 * seed as usize;
    let mut cells: Vec<DeltaCell> = entries
        .iter()
        .step_by(stride)
        .take(4)
        .map(|&coord| DeltaCell { coord, set: false })
        .collect();
    for n in 0..3u32 {
        let coord = [
            (seed * 5 + n * 11) % d0 as u32,
            (seed * 3 + n * 7) % d1 as u32,
            (seed * 7 + n * 13) % d2 as u32,
        ];
        cells.push(DeltaCell { coord, set: true });
    }
    TensorDelta::new(x.dims(), cells).unwrap()
}

fn assert_same_run(name: &str, lhs: &(DeltaResult, PlanTrace), rhs: &(DeltaResult, PlanTrace)) {
    assert_eq!(lhs.0.factors, rhs.0.factors, "factors: {name}");
    assert_eq!(lhs.0.error, rhs.0.error, "error: {name}");
    assert_eq!(lhs.0.pre_error, rhs.0.pre_error, "pre_error: {name}");
    assert_eq!(
        lhs.0.affected_columns, rhs.0.affected_columns,
        "affected columns: {name}"
    );
    assert_eq!(
        lhs.0.iteration_errors, rhs.0.iteration_errors,
        "error trajectory: {name}"
    );
    assert_eq!(lhs.0.converged, rhs.0.converged, "convergence: {name}");
    assert_eq!(
        lhs.1.fingerprint(),
        rhs.1.fingerprint(),
        "plan fingerprint: {name}"
    );
}

/// The headline invariant: one bounded re-sweep, three execution
/// substrates × two storage kinds — six bit-identical runs, each checked
/// against the slow oracles, over several seeded deltas.
#[test]
fn seeded_deltas_are_bit_identical_across_backends_and_storage() {
    let x = planted_tensor();
    let before = fitted(&x);
    let ram = config();
    let mmap = DbtfConfig {
        storage: StorageKind::Mmap,
        ..ram.clone()
    };

    for seed in [1u32, 2, 3] {
        let delta = seeded_delta(&x, seed);
        let x_new = delta.apply(&x);
        assert_eq!(
            x_new,
            delta_apply(&x, &delta),
            "fast merge vs cell-by-cell oracle (seed {seed})"
        );

        let cluster = Cluster::new(cluster_config(None));
        let local = LocalBackend::from_cluster_config(&cluster_config(None));
        let reference = update_factors_traced(&cluster, &x, &delta, &before, &ram).unwrap();
        let runs = [
            (
                "local/ram",
                update_factors_traced(&local, &x, &delta, &before, &ram),
            ),
            (
                "net/ram",
                update_factors_traced(&net_backend(None, 64), &x, &delta, &before, &ram),
            ),
            (
                "cluster/mmap",
                update_factors_traced(&cluster, &x, &delta, &before, &mmap),
            ),
            (
                "local/mmap",
                update_factors_traced(&local, &x, &delta, &before, &mmap),
            ),
            (
                "net/mmap",
                update_factors_traced(&net_backend(None, 64), &x, &delta, &before, &mmap),
            ),
        ];
        for (name, run) in runs {
            assert_same_run(&format!("{name} (seed {seed})"), &run.unwrap(), &reference);
        }

        let (result, trace) = reference;
        assert!(
            trace.fingerprint().contains("delta."),
            "re-sweep meters under delta.* labels"
        );
        // The bound matches the literal oracle rule, the columns outside
        // it are untouched, and the error never regresses.
        assert_eq!(
            result.affected_columns,
            delta_affected_columns(&delta, &before),
            "affected-column rule (seed {seed})"
        );
        assert!(
            !result.affected_columns.is_empty(),
            "seeded deltas hit columns"
        );
        assert_eq!(
            check_bounded_resweep(&x_new, &before, &result.factors, &result.affected_columns),
            Vec::<String>::new(),
            "bounded-resweep oracle (seed {seed})"
        );
        assert!(result.error <= result.pre_error);
        assert_eq!(
            result.pre_error,
            cp_error(&x_new, &before.a, &before.b, &before.c),
            "baseline is the pre-delta factors on the updated tensor"
        );
        assert_eq!(
            result.error,
            cp_error(
                &x_new,
                &result.factors.a,
                &result.factors.b,
                &result.factors.c
            ),
            "reported error is the real reconstruction error"
        );
    }
}

/// Worker deaths mid-update recover through lineage recompute of the
/// updated tensor's partitions: the rebuild closure re-cuts the lost
/// partition from the updated tensor (ram) or re-opens the file spilled
/// from its cut (mmap), so a kill-riddled networked run stays
/// bit-identical to a clean one on both storage kinds.
#[test]
fn kill_riddled_net_delta_update_is_bit_identical() {
    let x = planted_tensor();
    let before = fitted(&x);
    let delta = seeded_delta(&x, 4);
    let plan = FaultPlan {
        worker_crashes: vec![(4, 1), (5, 1), (9, 0)],
        process_kill_rate: 0.02,
        ..FaultPlan::with_seed(23)
    };

    for storage in [StorageKind::Ram, StorageKind::Mmap] {
        let cfg = DbtfConfig {
            storage,
            ..config()
        };
        let clean_backend = net_backend(None, 64);
        let clean = update_factors_traced(&clean_backend, &x, &delta, &before, &cfg).unwrap();
        let killed_backend = net_backend(Some(plan.clone()), 64);
        let killed = update_factors_traced(&killed_backend, &x, &delta, &before, &cfg).unwrap();
        assert_same_run(&format!("clean vs killed ({storage:?})"), &killed, &clean);
        let m = killed_backend.metrics();
        assert!(
            m.worker_respawns >= 1,
            "scheduled kills fired ({storage:?})"
        );
        assert!(
            m.partitions_recomputed > 0,
            "lineage rebuilt overlays ({storage:?})"
        );
    }
}
