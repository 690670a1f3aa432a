//! The differential runner: one seed → one fully specified pipeline
//! configuration → every oracle and engine invariant checked at once.
//!
//! A [`SamplePoint`] pins a `(tensor family, rank, config, backend shape,
//! storage, fault plan)` tuple from a single `u64`. [`run_point`]
//! then executes the full DBTF pipeline several times over and returns
//! the list of violations:
//!
//! - the sequential reference, the cluster backend, the local backend,
//!   and (when sampled) a fault-injected cluster must agree
//!   **bit-for-bit** on factors, error and iteration history;
//! - all backends must execute the **same dataflow plan**
//!   ([`PlanTrace::fingerprint`](dbtf_cluster::PlanTrace::fingerprint))
//!   and produce the **same span trace** down to per-task/per-kernel
//!   structure ([`TraceLog::fingerprint`](dbtf_telemetry::TraceLog::fingerprint));
//! - the reported error must equal the cell-by-cell oracle
//!   [`cp_error`](crate::oracles::cp_error()), the iteration history must be
//!   monotone, and the communication meters must match the Lemma 6/7
//!   formulas ([`CommOracle`]);
//! - recovery counters must be zero without faults and consistent with
//!   the injected plan otherwise;
//! - on sampled subsets: checkpoint/resume must be bit-identical to an
//!   uninterrupted run, mode-permutation metamorphic relations must hold,
//!   the Tucker driver must agree across backends against its own oracle,
//!   and the production unfolding must match the literal index formulas.

use dbtf::reference::factorize_reference;
use dbtf::tucker::TuckerConfig;
use dbtf::tucker_distributed::tucker_factorize_distributed_traced;
use dbtf::{factorize_instrumented, factorize_traced, DbtfConfig, DbtfResult, StorageKind};
use dbtf_cluster::{
    Cluster, ClusterConfig, ExecutionBackend, FaultPlan, LocalBackend, MetricsSnapshot, PlanTrace,
};
use dbtf_datagen::Family;
use dbtf_telemetry::Tracer;
use dbtf_tensor::BoolTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::invariants::{check_recovery_counters, CommOracle};
use crate::oracles::{check_unfolding, cp_error, factors_equivalent, tucker_error};

/// One fully specified differential test point, derived from a seed.
#[derive(Clone, Debug)]
pub struct SamplePoint {
    /// The seed everything below is derived from.
    pub seed: u64,
    /// Input tensor family.
    pub family: Family,
    /// CP configuration (rank, iteration budget, init seed, partitions).
    pub config: DbtfConfig,
    /// Worker machines on the simulated cluster.
    pub workers: usize,
    /// Cores per worker (drives default partitioning and virtual time).
    pub cores_per_worker: usize,
    /// Fault plan for the fault-injected replica run (`None` on half the
    /// points; the fault-free runs never see it).
    pub fault_plan: Option<FaultPlan>,
    /// Whether this point also exercises checkpoint/resume.
    pub check_checkpoint: bool,
    /// Whether this point also runs the Tucker driver.
    pub check_tucker: bool,
}

impl SamplePoint {
    /// Derives every coordinate of the point from `seed`. Equal seeds give
    /// equal points; nearby seeds differ in most coordinates.
    pub fn from_seed(seed: u64) -> SamplePoint {
        let family = Family::from_seed(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0D1F_F3A1);
        let workers = rng.gen_range(1..=4usize);
        let cores_per_worker = rng.gen_range(1..=4usize);
        // Discarded draw: this slot once picked a compute-thread count.
        // Drawing it still keeps every later coordinate, and so every
        // seed's point, the same as before that axis went away.
        let _ = rng.gen_range(0..3usize);
        let partitions = *pick(&mut rng, &[None, Some(1), Some(2), Some(4), Some(8)]);
        let config = DbtfConfig {
            rank: rng.gen_range(2..=6),
            max_iters: rng.gen_range(2..=4),
            initial_sets: rng.gen_range(1..=2),
            partitions,
            seed: seed ^ 0xC0FF_EE00,
            ..DbtfConfig::default()
        };
        let fault_plan = if rng.gen_bool(0.5) {
            let mut plan = FaultPlan::with_seed(seed ^ 0xFA_0171);
            // Rate and attempt ceiling chosen so exhausting every launch
            // attempt (0.2^16 per task) is out of reach: injected faults
            // must always be *recoverable*, or the point tests the
            // unrecoverable-error path instead of recovery.
            plan.task_failure_rate = rng.gen_range(0.0..0.2);
            plan.max_task_attempts = 16;
            plan.slow_task_rate = rng.gen_range(0.0..0.2);
            if workers >= 2 && rng.gen_bool(0.5) {
                // Superstep < 3 + 3·(rank+2): always reached, so the
                // respawn counter must tick.
                plan.worker_crashes = vec![(rng.gen_range(0..10), rng.gen_range(0..workers))];
            }
            Some(plan)
        } else {
            None
        };
        // Storage axis, drawn after every other coordinate so adding it
        // did not perturb the historically sampled points: half the points
        // run the whole pipeline (including the fault-injected replica)
        // over out-of-core mmap unfoldings. run_point additionally runs
        // the opposite storage as a differential, so every point checks
        // ram-vs-mmap bit-identity regardless of which side it sampled.
        let config = DbtfConfig {
            storage: if rng.gen_bool(0.5) {
                StorageKind::Mmap
            } else {
                StorageKind::Ram
            },
            ..config
        };
        SamplePoint {
            seed,
            family,
            config,
            workers,
            cores_per_worker,
            fault_plan,
            check_checkpoint: seed.is_multiple_of(3),
            check_tucker: seed.is_multiple_of(4),
        }
    }

    /// Short human-readable descriptor for reports.
    pub fn describe(&self) -> String {
        format!(
            "{} rank={} iters={} sets={} parts={:?} {}w×{}c storage={} faults={} ckpt={} tucker={}",
            self.family.describe(),
            self.config.rank,
            self.config.max_iters,
            self.config.initial_sets,
            self.config.partitions,
            self.workers,
            self.cores_per_worker,
            self.config.storage,
            self.fault_plan.is_some(),
            self.check_checkpoint,
            self.check_tucker,
        )
    }
}

fn pick<'a, T>(rng: &mut StdRng, options: &'a [T]) -> &'a T {
    &options[rng.gen_range(0..options.len())]
}

/// The outcome of one differential point: the sampled coordinates plus
/// every violation found (empty = all oracles and invariants passed).
#[derive(Clone, Debug)]
pub struct PointReport {
    /// The point that ran.
    pub point: SamplePoint,
    /// Human-readable oracle violations; empty when the point passed.
    pub violations: Vec<String>,
}

impl PointReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Executes one differential point end to end. See the module docs for
/// the check list.
pub fn run_point(point: &SamplePoint) -> PointReport {
    let mut v = Vec::new();
    let x = point.family.generate();

    let reference = match factorize_reference(&x, &point.config) {
        Ok(r) => r,
        Err(e) => {
            v.push(format!("reference factorization failed: {e}"));
            return PointReport {
                point: point.clone(),
                violations: v,
            };
        }
    };

    let cluster = Cluster::new(ClusterConfig {
        workers: point.workers,
        cores_per_worker: point.cores_per_worker,
        ..ClusterConfig::default()
    });
    let tracer = Tracer::enabled();
    let (result, trace) = match factorize_instrumented(&cluster, &x, &point.config, &tracer) {
        Ok(r) => r,
        Err(e) => {
            v.push(format!("cluster factorization failed: {e}"));
            return PointReport {
                point: point.clone(),
                violations: v,
            };
        }
    };
    let span_log = tracer.finish();
    let metrics = cluster.metrics();

    check_against_reference(&mut v, "cluster", &result, &reference);
    check_result_oracles(&mut v, &x, &result);
    v.extend(CommOracle::for_run(&x, &point.config, &result, point.workers).check(&x, &metrics));
    v.extend(check_recovery_counters(&metrics, false));

    // Local backend: same plan, same bits, same span-trace structure.
    let local = LocalBackend::new(point.workers, point.cores_per_worker);
    let local_tracer = Tracer::enabled();
    match factorize_instrumented(&local, &x, &point.config, &local_tracer) {
        Ok((local_result, local_trace)) => {
            check_against_reference(&mut v, "local", &local_result, &reference);
            check_traces_agree(&mut v, "local vs cluster", &local_trace, &trace);
            let local_log = local_tracer.finish();
            if local_log.fingerprint() != span_log.fingerprint() {
                v.push("local vs cluster: span-trace fingerprints differ".into());
            }
            if span_log.spans.is_empty() {
                v.push("cluster span trace is empty".into());
            }
        }
        Err(e) => v.push(format!("local factorization failed: {e}")),
    }

    // Storage differential: the opposite unfolding storage must reproduce
    // the run bit for bit, down to the executed plan (DESIGN.md §1.2.7).
    check_storage_differential(&mut v, point, &x, &reference, &trace);

    // Fault-injected replica: recovery must be invisible in the results.
    // The replica inherits the point's sampled storage, so fault points
    // that drew mmap exercise lineage recompute through re-opened maps.
    if let Some(plan) = &point.fault_plan {
        run_faulty_replica(&mut v, point, plan, &x, &reference, &trace);
    }

    if point.check_checkpoint {
        check_checkpoint_resume(&mut v, point, &x);
    }

    check_metamorphic(&mut v, point, &x, &result);

    if point.seed.is_multiple_of(5) {
        v.extend(check_unfolding(&x));
    }

    if point.check_tucker {
        check_tucker(&mut v, point, &x);
    }

    PointReport {
        point: point.clone(),
        violations: v,
    }
}

/// Distributed result vs the sequential reference: bit-for-bit.
fn check_against_reference(
    v: &mut Vec<String>,
    what: &str,
    result: &DbtfResult,
    reference: &dbtf::reference::ReferenceResult,
) {
    if result.factors != reference.factors {
        v.push(format!("{what}: factors differ from sequential reference"));
    }
    if result.error != reference.error {
        v.push(format!(
            "{what}: error {} != reference error {}",
            result.error, reference.error
        ));
    }
    if result.iteration_errors != reference.iteration_errors {
        v.push(format!(
            "{what}: iteration history {:?} != reference {:?}",
            result.iteration_errors, reference.iteration_errors
        ));
    }
    if result.iterations != reference.iterations || result.converged != reference.converged {
        v.push(format!(
            "{what}: iterations/converged ({}, {}) != reference ({}, {})",
            result.iterations, result.converged, reference.iterations, reference.converged
        ));
    }
}

/// Self-consistency of one result against the slow oracles.
fn check_result_oracles(v: &mut Vec<String>, x: &BoolTensor, result: &DbtfResult) {
    let f = &result.factors;
    let oracle_error = cp_error(x, &f.a, &f.b, &f.c);
    if result.error != oracle_error {
        v.push(format!(
            "reported error {} != cell-by-cell oracle {}",
            result.error, oracle_error
        ));
    }
    if result.iteration_errors.windows(2).any(|w| w[1] > w[0]) {
        v.push(format!(
            "iteration errors not monotone non-increasing: {:?}",
            result.iteration_errors
        ));
    }
    match result.iteration_errors.last() {
        Some(&last) if last != result.error => v.push(format!(
            "final iteration error {last} != reported error {}",
            result.error
        )),
        None => v.push("empty iteration history".into()),
        _ => {}
    }
    let nnz = x.nnz() as f64;
    if nnz > 0.0 && (result.relative_error - result.error as f64 / nnz).abs() > 1e-12 {
        v.push(format!(
            "relative_error {} inconsistent with error {} / |X| {}",
            result.relative_error, result.error, nnz
        ));
    }
}

fn check_traces_agree(v: &mut Vec<String>, what: &str, lhs: &PlanTrace, rhs: &PlanTrace) {
    if lhs.fingerprint() != rhs.fingerprint() {
        v.push(format!("{what}: plan-trace fingerprints differ"));
    }
}

/// Runs the point once more with the *other* storage backend (ram if the
/// point sampled mmap and vice versa): factors, error, iteration history,
/// and plan-trace fingerprint must all match the main run, and under a
/// sampled fault plan the crash-recovery replica must match too — lineage
/// recompute through a re-opened mmap must be as invisible as a re-cut
/// from the tensor.
fn check_storage_differential(
    v: &mut Vec<String>,
    point: &SamplePoint,
    x: &BoolTensor,
    reference: &dbtf::reference::ReferenceResult,
    clean_trace: &PlanTrace,
) {
    let other = match point.config.storage {
        StorageKind::Ram => StorageKind::Mmap,
        StorageKind::Mmap => StorageKind::Ram,
    };
    let config = DbtfConfig {
        storage: other,
        ..point.config.clone()
    };
    let mut shapes: Vec<(&str, Option<FaultPlan>)> = vec![("", None)];
    if let Some(plan) = &point.fault_plan {
        shapes.push((" under faults", Some(plan.clone())));
    }
    for (suffix, fault_plan) in shapes {
        let cluster = Cluster::new(ClusterConfig {
            workers: point.workers,
            cores_per_worker: point.cores_per_worker,
            fault_plan,
            ..ClusterConfig::default()
        });
        match factorize_traced(&cluster, x, &config) {
            Ok((result, trace)) => {
                check_against_reference(v, &format!("storage={other}{suffix}"), &result, reference);
                check_traces_agree(
                    v,
                    &format!("storage {} vs {other}{suffix}", point.config.storage),
                    clean_trace,
                    &trace,
                );
            }
            Err(e) => v.push(format!("storage={other}{suffix} factorization failed: {e}")),
        }
    }
}

/// Runs the point once more with the sampled fault plan injected: the
/// results and the executed plan must be unchanged, and the recovery
/// meters must reflect the injected faults.
fn run_faulty_replica(
    v: &mut Vec<String>,
    point: &SamplePoint,
    plan: &FaultPlan,
    x: &BoolTensor,
    reference: &dbtf::reference::ReferenceResult,
    clean_trace: &PlanTrace,
) {
    let cluster = Cluster::new(ClusterConfig {
        workers: point.workers,
        cores_per_worker: point.cores_per_worker,
        fault_plan: Some(plan.clone()),
        ..ClusterConfig::default()
    });
    match factorize_traced(&cluster, x, &point.config) {
        Ok((result, trace)) => {
            check_against_reference(v, "faulty", &result, reference);
            check_traces_agree(v, "faulty vs clean", &trace, clean_trace);
            let metrics: MetricsSnapshot = cluster.metrics();
            if !plan.worker_crashes.is_empty() && metrics.worker_respawns == 0 {
                v.push(format!(
                    "injected worker crash {:?} but worker_respawns = 0",
                    plan.worker_crashes
                ));
            }
            if plan.worker_crashes.is_empty()
                && plan.task_failure_rate == 0.0
                && metrics.task_retries + metrics.worker_respawns != 0
            {
                v.push(format!(
                    "no failure modes enabled but retries={} respawns={}",
                    metrics.task_retries, metrics.worker_respawns
                ));
            }
        }
        Err(e) => v.push(format!("fault-injected factorization failed: {e}")),
    }
}

/// Interrupt-and-resume must reproduce the uninterrupted run bit for bit.
fn check_checkpoint_resume(v: &mut Vec<String>, point: &SamplePoint, x: &BoolTensor) {
    let path = std::env::temp_dir().join(format!(
        "dbtf-oracle-ckpt-{}-{}.bin",
        std::process::id(),
        point.seed
    ));
    let path_str = path.to_string_lossy().into_owned();
    // Force a fixed iteration count so "interrupt after iteration 1" is
    // well defined regardless of the sampled convergence behaviour.
    let full_config = DbtfConfig {
        convergence_threshold: -1.0,
        max_iters: 3,
        checkpoint_every: None,
        checkpoint_path: None,
        resume: false,
        ..point.config.clone()
    };
    let cluster = Cluster::new(ClusterConfig {
        workers: point.workers,
        cores_per_worker: point.cores_per_worker,
        ..ClusterConfig::default()
    });
    let full = match factorize_traced(&cluster, x, &full_config) {
        Ok((r, _)) => r,
        Err(e) => {
            v.push(format!("checkpoint baseline run failed: {e}"));
            return;
        }
    };
    let partial_config = DbtfConfig {
        max_iters: 1,
        checkpoint_every: Some(1),
        checkpoint_path: Some(path_str.clone()),
        ..full_config.clone()
    };
    if let Err(e) = factorize_traced(&cluster, x, &partial_config) {
        v.push(format!("checkpointed partial run failed: {e}"));
        let _ = std::fs::remove_file(&path);
        return;
    }
    let resume_config = DbtfConfig {
        checkpoint_path: Some(path_str),
        resume: true,
        ..full_config.clone()
    };
    match factorize_traced(&cluster, x, &resume_config) {
        Ok((resumed, _)) => {
            if resumed.factors != full.factors || resumed.error != full.error {
                v.push(format!(
                    "resumed run diverged from uninterrupted run: error {} vs {}",
                    resumed.error, full.error
                ));
            }
            if resumed.iteration_errors.last() != full.iteration_errors.last() {
                v.push(format!(
                    "resumed final iteration error {:?} != uninterrupted {:?}",
                    resumed.iteration_errors.last(),
                    full.iteration_errors.last()
                ));
            }
        }
        Err(e) => v.push(format!("resume run failed: {e}")),
    }
    let _ = std::fs::remove_file(&path);
}

/// Metamorphic relations on the computed solution: permuting the tensor's
/// modes and the factor triple together must leave the error invariant,
/// and the solution must be gauge-equivalent to itself under canonical
/// comparison.
fn check_metamorphic(
    v: &mut Vec<String>,
    point: &SamplePoint,
    x: &BoolTensor,
    result: &DbtfResult,
) {
    let f = &result.factors;
    for perm in dbtf_datagen::mode_permutations() {
        let y = x.permute_modes(perm);
        let [pa, pb, pc] = dbtf_datagen::permute_factors([&f.a, &f.b, &f.c], perm);
        let permuted_error = cp_error(&y, &pa, &pb, &pc);
        if permuted_error != result.error {
            v.push(format!(
                "metamorphic: error {} under mode permutation {:?} != {} (seed {})",
                permuted_error, perm, result.error, point.seed
            ));
        }
    }
    if !factors_equivalent((&f.a, &f.b, &f.c), (&f.a, &f.b, &f.c)) {
        v.push("gauge canonicalization is not reflexive".into());
    }
}

/// Tucker driver: backend agreement plus the quadruple-loop error oracle.
fn check_tucker(v: &mut Vec<String>, point: &SamplePoint, x: &BoolTensor) {
    let mut rng = StdRng::seed_from_u64(point.seed ^ 0x070C_4E12);
    let config = TuckerConfig {
        ranks: [
            rng.gen_range(2..=3),
            rng.gen_range(2..=3),
            rng.gen_range(2..=3),
        ],
        max_iters: 2,
        initial_sets: 1,
        seed: point.seed ^ 0x7CC,
        ..TuckerConfig::default()
    };
    let cluster = Cluster::new(ClusterConfig {
        workers: point.workers,
        cores_per_worker: point.cores_per_worker,
        ..ClusterConfig::default()
    });
    let (cluster_result, cluster_trace) =
        match tucker_factorize_distributed_traced(&cluster, x, &config) {
            Ok(r) => r,
            Err(e) => {
                v.push(format!("tucker cluster run failed: {e}"));
                return;
            }
        };
    let local = LocalBackend::new(point.workers, point.cores_per_worker);
    match tucker_factorize_distributed_traced(&local, x, &config) {
        Ok((local_result, local_trace)) => {
            check_traces_agree(v, "tucker local vs cluster", &local_trace, &cluster_trace);
            if local_result.factorization != cluster_result.factorization
                || local_result.error != cluster_result.error
            {
                v.push("tucker: local and cluster backends disagree".into());
            }
        }
        Err(e) => v.push(format!("tucker local run failed: {e}")),
    }
    let f = &cluster_result.factorization;
    let oracle = tucker_error(x, &f.core, &f.a, &f.b, &f.c);
    if cluster_result.error != oracle {
        v.push(format!(
            "tucker reported error {} != quadruple-loop oracle {}",
            cluster_result.error, oracle
        ));
    }
    if cluster_result
        .iteration_errors
        .windows(2)
        .any(|w| w[1] > w[0])
    {
        v.push(format!(
            "tucker iteration errors not monotone: {:?}",
            cluster_result.iteration_errors
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_points_are_deterministic() {
        for seed in 0..16 {
            let a = SamplePoint::from_seed(seed);
            let b = SamplePoint::from_seed(seed);
            assert_eq!(a.config, b.config);
            assert_eq!(a.family, b.family);
            assert_eq!(a.workers, b.workers);
            assert_eq!(a.describe(), b.describe());
        }
    }

    #[test]
    fn sample_points_cover_the_space() {
        let points: Vec<SamplePoint> = (0..64).map(SamplePoint::from_seed).collect();
        assert!(points.iter().any(|p| p.fault_plan.is_some()));
        assert!(points.iter().any(|p| p.fault_plan.is_none()));
        assert!(points.iter().any(|p| p.workers == 1));
        assert!(points.iter().any(|p| p.workers > 1));
        assert!(points.iter().any(|p| p.check_tucker));
        assert!(points.iter().any(|p| p.check_checkpoint));
        assert!(points.iter().any(|p| p.config.storage == StorageKind::Mmap));
        assert!(points.iter().any(|p| p.config.storage == StorageKind::Ram));
        assert!(points
            .iter()
            .any(|p| p.config.storage == StorageKind::Mmap && p.fault_plan.is_some()));
        assert!(points.iter().any(|p| p
            .fault_plan
            .as_ref()
            .is_some_and(|f| !f.worker_crashes.is_empty())));
        let ranks: std::collections::HashSet<usize> =
            points.iter().map(|p| p.config.rank).collect();
        assert!(ranks.len() >= 3, "rank diversity: {ranks:?}");
    }

    /// One full differential point end to end — the smoke test that the
    /// runner's own plumbing (not just the pipeline under test) works.
    #[test]
    fn a_fixed_point_passes_all_oracles() {
        let report = run_point(&SamplePoint::from_seed(1));
        assert!(report.passed(), "violations: {:#?}", report.violations);
    }
}
