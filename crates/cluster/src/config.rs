//! Cluster and network configuration.

use crate::engine::ClusterError;
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

    /// Peak ops/second of one worker: all of its cores.
    pub fn worker_throughput(&self) -> f64 {
        self.cores_per_worker as f64 * self.core_throughput()
    }

    /// Ops/second of one core; every worker's cores run at this rate.
    pub fn core_throughput(&self) -> f64 {
        self.core_throughput_ops_per_sec
    }

    /// Checks the configuration every backend boots from: a
    /// [`ClusterError::InvalidConfig`] for zero workers or zero cores per
    /// worker, and a panic if the fault plan fails [`FaultPlan::validate`]
    /// (a malformed *test* plan is a programming error).
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.workers == 0 {
            return Err(ClusterError::InvalidConfig(
                "a cluster needs at least one worker".to_string(),
            ));
        }
        if self.cores_per_worker == 0 {
            return Err(ClusterError::InvalidConfig(
                "workers need at least one core".to_string(),
            ));
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate(self.workers);
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            cores_per_worker: 8,
            core_throughput_ops_per_sec: 2e9,
            network: NetworkModel::default(),
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
        assert!(cfg.worker_throughput() > cfg.core_throughput_ops_per_sec);
    }
}
