//! Cluster and network configuration.

use crate::fault::FaultPlan;

/// A simple latency + bandwidth network cost model.
///
/// A transfer of `b` bytes is charged `latency_secs + b / bandwidth_bytes_per_sec`
/// of virtual time. Broadcasts are charged once per receiving worker (the
/// driver's uplink is the bottleneck, as in Spark's default non-torrent
/// broadcast of small variables).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Per-transfer fixed latency in seconds.
    pub latency_secs: f64,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
}

impl NetworkModel {
    /// 1 Gb/s Ethernet with 1 ms latency — the class of interconnect in the
    /// paper's cluster.
    pub fn gigabit() -> Self {
        NetworkModel {
            latency_secs: 1e-3,
            bandwidth_bytes_per_sec: 125e6,
        }
    }

    /// A free network (zero latency, infinite bandwidth); useful in unit
    /// tests that only exercise compute accounting.
    pub fn free() -> Self {
        NetworkModel {
            latency_secs: 0.0,
            bandwidth_bytes_per_sec: f64::INFINITY,
        }
    }

    /// Virtual seconds to move `bytes` across one link.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.latency_secs + bytes as f64 / self.bandwidth_bytes_per_sec
        }
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::gigabit()
    }
}

/// Configuration of a simulated cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker machines (the paper's experiments use 4–16).
    pub workers: usize,
    /// Cores per worker machine (the paper's machines have 8 hyper-threaded
    /// cores; its executors use 8).
    ///
    /// Drives both the virtual-time model (a worker retires
    /// `cores_per_worker × core_throughput` ops per virtual second) and,
    /// unless overridden by [`ClusterConfig::compute_threads`], the number
    /// of real OS threads each worker fans its partition tasks out to.
    pub cores_per_worker: usize,
    /// Override for the number of *real* compute threads per worker.
    ///
    /// `None` (the default) uses `cores_per_worker`, so the simulated and
    /// the actual parallelism agree. Setting it decouples wall-clock
    /// execution from the virtual-time model — e.g. `Some(1)` forces
    /// serial execution for debugging, without changing any virtual-time
    /// or ops metric (results and metrics are bit-identical for every
    /// setting). The `DBTF_COMPUTE_THREADS` environment variable, when
    /// set, takes precedence over `None`.
    pub compute_threads: Option<usize>,
    /// Abstract ops one core retires per virtual second. Calibrate against
    /// a real single-worker run to map ops to seconds; the default
    /// (2 × 10⁹) approximates one 64-bit Boolean word-op per cycle at 2 GHz.
    pub core_throughput_ops_per_sec: f64,
    /// The network cost model.
    pub network: NetworkModel,
    /// Number of *straggler* workers (the first `stragglers` worker ids)
    /// whose throughput is multiplied by [`ClusterConfig::straggler_slowdown`].
    /// Real clusters are rarely homogeneous; the virtual clock makes the
    /// impact of slow machines on the superstep makespan directly
    /// measurable.
    pub stragglers: usize,
    /// Throughput multiplier for straggler workers (1.0 = no effect;
    /// 0.5 = half speed).
    pub straggler_slowdown: f64,
    /// Deterministic fault-injection schedule (`None` = no faults). See
    /// [`FaultPlan`]: worker crashes, transient task failures with retry,
    /// and slow tasks with speculative re-execution — all recovered by the
    /// engine such that results stay bit-identical to a fault-free run.
    pub fault_plan: Option<FaultPlan>,
}

impl ClusterConfig {
    /// The paper's default cluster: 16 workers × 8 cores.
    pub fn paper_cluster() -> Self {
        ClusterConfig {
            workers: 16,
            cores_per_worker: 8,
            ..ClusterConfig::default()
        }
    }

    /// A cluster with `workers` machines and default everything else.
    pub fn with_workers(workers: usize) -> Self {
        ClusterConfig {
            workers,
            ..ClusterConfig::default()
        }
    }

    /// Peak ops/second of worker `worker_id`, accounting for stragglers.
    pub fn worker_throughput(&self, worker_id: usize) -> f64 {
        self.cores_per_worker as f64 * self.core_throughput(worker_id)
    }

    /// The number of real compute threads each worker runs its partition
    /// tasks on: [`ClusterConfig::compute_threads`] if set, else the
    /// `DBTF_COMPUTE_THREADS` environment variable, else
    /// [`ClusterConfig::cores_per_worker`].
    ///
    /// A malformed `DBTF_COMPUTE_THREADS` value is ignored, and a value of
    /// `0` (from either source) is clamped to one thread; both emit a
    /// one-time warning through the telemetry log layer naming the bad
    /// value and the resolution used — a worker never gets a zero-thread
    /// pool and never fails to boot over an env var.
    pub fn resolved_compute_threads(&self) -> usize {
        let (threads, warning) = resolve_compute_threads(
            self.compute_threads,
            std::env::var("DBTF_COMPUTE_THREADS").ok().as_deref(),
            self.cores_per_worker,
        );
        if let Some(msg) = warning {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| dbtf_telemetry::log::warn(msg));
        }
        threads
    }

    /// A cluster with the given fault plan and default everything else.
    pub fn with_fault_plan(workers: usize, plan: FaultPlan) -> Self {
        ClusterConfig {
            workers,
            fault_plan: Some(plan),
            ..ClusterConfig::default()
        }
    }

    /// Per-core ops/second of worker `worker_id`.
    pub fn core_throughput(&self, worker_id: usize) -> f64 {
        if worker_id < self.stragglers {
            self.core_throughput_ops_per_sec * self.straggler_slowdown
        } else {
            self.core_throughput_ops_per_sec
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            cores_per_worker: 8,
            compute_threads: None,
            core_throughput_ops_per_sec: 2e9,
            network: NetworkModel::default(),
            stragglers: 0,
            straggler_slowdown: 1.0,
            fault_plan: None,
        }
    }
}

/// Resolves the compute-thread count from the config field, the
/// `DBTF_COMPUTE_THREADS` environment value, and the `cores_per_worker`
/// fallback, returning `(threads, warning)`. Pure, so every branch —
/// including the warning text — is directly unit-testable;
/// [`ClusterConfig::resolved_compute_threads`] adds the env read and the
/// one-time emission through the telemetry log layer.
fn resolve_compute_threads(
    field: Option<usize>,
    env: Option<&str>,
    cores_per_worker: usize,
) -> (usize, Option<String>) {
    if let Some(n) = field {
        if n == 0 {
            return (
                1,
                Some(
                    "clamping compute_threads = 0 to 1 \
                     (a worker needs at least one compute thread)"
                        .to_string(),
                ),
            );
        }
        return (n, None);
    }
    match env {
        None => (cores_per_worker, None),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(0) => (
                1,
                Some(
                    "clamping DBTF_COMPUTE_THREADS=0 to 1 \
                     (a worker needs at least one compute thread)"
                        .to_string(),
                ),
            ),
            Ok(n) => (n, None),
            Err(_) => (
                cores_per_worker,
                Some(format!(
                    "ignoring malformed DBTF_COMPUTE_THREADS={raw:?} \
                     (not a non-negative integer); falling back to \
                     cores_per_worker = {cores_per_worker}"
                )),
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cost_is_latency_plus_bandwidth() {
        let net = NetworkModel {
            latency_secs: 0.5,
            bandwidth_bytes_per_sec: 100.0,
        };
        assert_eq!(net.transfer_secs(0), 0.0);
        assert!((net.transfer_secs(200) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn free_network_is_free() {
        let net = NetworkModel::free();
        assert_eq!(net.transfer_secs(1 << 30), 0.0);
    }

    #[test]
    fn paper_cluster_shape() {
        let cfg = ClusterConfig::paper_cluster();
        assert_eq!(cfg.workers, 16);
        assert_eq!(cfg.cores_per_worker, 8);
        assert!(cfg.worker_throughput(0) > cfg.core_throughput_ops_per_sec);
    }

    #[test]
    fn compute_threads_default_to_cores() {
        // (Only the field-driven paths: the DBTF_COMPUTE_THREADS fallback
        // is env-dependent and exercised by the CLI, not unit tests.)
        let cfg = ClusterConfig {
            cores_per_worker: 6,
            ..ClusterConfig::default()
        };
        if std::env::var("DBTF_COMPUTE_THREADS").is_err() {
            assert_eq!(cfg.resolved_compute_threads(), 6);
        }
        let pinned = ClusterConfig {
            compute_threads: Some(2),
            ..cfg.clone()
        };
        assert_eq!(pinned.resolved_compute_threads(), 2);
        let floor = ClusterConfig {
            compute_threads: Some(0),
            ..cfg
        };
        assert_eq!(floor.resolved_compute_threads(), 1);
    }

    #[test]
    fn env_compute_threads_parsing() {
        assert_eq!(resolve_compute_threads(None, None, 8), (8, None));
        assert_eq!(resolve_compute_threads(None, Some("6"), 8), (6, None));
        assert_eq!(resolve_compute_threads(None, Some(" 3 "), 8), (3, None));
        // The field wins over the environment.
        assert_eq!(resolve_compute_threads(Some(2), Some("6"), 8), (2, None));
        // Malformed values fall back to cores_per_worker with a warning
        // naming the raw value.
        for bad in ["lots", "", "-2"] {
            let (threads, warning) = resolve_compute_threads(None, Some(bad), 8);
            assert_eq!(threads, 8);
            let msg = warning.expect("malformed value must warn");
            assert!(
                msg.contains(&format!("{bad:?}")),
                "warning names value: {msg}"
            );
            assert!(
                msg.contains("cores_per_worker = 8"),
                "warning names fallback: {msg}"
            );
        }
    }

    /// Regression: a zero thread count (field or env) used to be clamped
    /// silently; it now clamps to 1 *with a warning*, so a zero-thread
    /// pool can neither be built nor requested unnoticed.
    #[test]
    fn zero_compute_threads_clamp_with_warning() {
        let (threads, warning) = resolve_compute_threads(None, Some("0"), 8);
        assert_eq!(threads, 1);
        assert!(warning
            .expect("zero must warn")
            .contains("DBTF_COMPUTE_THREADS=0"));
        let (threads, warning) = resolve_compute_threads(Some(0), None, 8);
        assert_eq!(threads, 1);
        assert!(warning
            .expect("zero must warn")
            .contains("compute_threads = 0"));
    }

    #[test]
    fn straggler_throughput() {
        let cfg = ClusterConfig {
            stragglers: 2,
            straggler_slowdown: 0.25,
            ..ClusterConfig::default()
        };
        assert_eq!(cfg.worker_throughput(0), cfg.worker_throughput(3) * 0.25);
        assert_eq!(cfg.worker_throughput(1), cfg.worker_throughput(0));
        assert_eq!(cfg.worker_throughput(2), cfg.worker_throughput(3));
    }
}
