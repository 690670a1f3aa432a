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
    /// Drives the virtual-time model (a worker retires
    /// `cores_per_worker × core_throughput` ops per virtual second) and
    /// the suggested partition count (`workers × cores_per_worker`). Each
    /// worker runs its tasks on one real thread whatever this says.
    pub cores_per_worker: usize,
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
            core_throughput_ops_per_sec: 2e9,
            network: NetworkModel::default(),
            stragglers: 0,
            straggler_slowdown: 1.0,
            fault_plan: None,
        }
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
