//! The front door of the driver commands (`factorize`, `update`, `tucker`
//! and `select-rank`): one reading of the backend options, one boot, one
//! run report, and the [`DbtfConfig`] fields `factorize` and `update` share.

use dbtf::{BackendKind, DbtfConfig, StorageKind};
use dbtf_cluster::{
    Cluster, ClusterConfig, ExecutionBackend, FaultPlan, LocalBackend, MetricsSnapshot, NetBackend,
    NetTuning, WorkerHost,
};

use crate::args::{split_list, ArgError, ParsedArgs};

/// The backend options of a driver command: `--backend`, `--workers`
/// (default 16, the paper's cluster), the `--fault-*` plan and, on
/// `--backend net` only, `--net-respawn-budget`.
pub struct BackendOptions {
    /// The backend `--backend` names.
    pub kind: BackendKind,
    config: ClusterConfig,
    tuning: NetTuning,
}

/// A booted backend; each command's `match` on it calls its driver.
/// Factors, errors and byte counters are identical on all three.
pub enum Backend {
    Cluster(Cluster),
    Local(LocalBackend),
    Net(NetBackend),
}

impl BackendOptions {
    /// Reads the backend options. A fault plan on the local backend is an
    /// argument error. The options only the net backend acts on are read
    /// on `--backend net` alone, so any other backend refuses them as
    /// unread.
    pub fn parse(parsed: &ParsedArgs) -> Result<BackendOptions, ArgError> {
        let kind = parsed.get("backend", BackendKind::default())?;
        let net = kind == BackendKind::Net;
        let fault_plan = parse_fault_plan(parsed, net)?;
        if kind == BackendKind::Local && fault_plan.is_some() {
            return Err(ArgError(
                "--fault-* options need --backend cluster or net \
                 (the local backend injects no faults)"
                    .into(),
            ));
        }
        Ok(BackendOptions {
            kind,
            config: ClusterConfig {
                workers: parsed.get("workers", 16)?,
                fault_plan,
                ..ClusterConfig::paper_cluster()
            },
            tuning: if net {
                NetTuning {
                    respawn_budget: parsed
                        .get("net-respawn-budget", NetTuning::default().respawn_budget)?,
                }
            } else {
                NetTuning::default()
            },
        })
    }

    /// The [`DbtfConfig`] fields `factorize` and `update` share:
    /// `--iters` (default 10), `--partitions`, `--v` (default 15),
    /// `--seed`, the backend, `--storage` and `--spill-dir`.
    pub fn dbtf_config(&self, parsed: &ParsedArgs) -> Result<DbtfConfig, ArgError> {
        Ok(DbtfConfig {
            max_iters: parsed.get("iters", 10)?,
            partitions: parsed.get_opt("partitions")?,
            cache_group_limit: parsed.get("v", 15)?,
            seed: parsed.get("seed", 0)?,
            backend: self.kind,
            storage: parsed.get("storage", StorageKind::default())?,
            spill_dir: parsed.get_str("spill-dir").map(str::to_string),
            ..DbtfConfig::default()
        })
    }

    /// Validates the cluster configuration and boots the backend.
    pub fn boot(self) -> Result<Backend, Box<dyn std::error::Error>> {
        self.config.validate()?;
        Ok(match self.kind {
            BackendKind::Cluster => Backend::Cluster(Cluster::try_new(self.config)?),
            BackendKind::Local => Backend::Local(LocalBackend::from_cluster_config(&self.config)),
            BackendKind::Net => {
                let host = WorkerHost::Process {
                    program: std::env::current_exe()?,
                    args: vec!["worker".into()],
                };
                let backend = dbtf::net_tasks::net_backend(self.config, host, self.tuning)?;
                Backend::Net(backend)
            }
        })
    }
}

impl Backend {
    /// The backend's meters so far.
    pub fn metrics(&self) -> MetricsSnapshot {
        match self {
            Backend::Cluster(b) => b.metrics(),
            Backend::Local(b) => b.metrics(),
            Backend::Net(b) => b.metrics(),
        }
    }

    /// Prints the run report: `run`'s virtual time and Lemma 6/7 bytes,
    /// the storage line when `config` spills to mmap, the `wire:` line on
    /// net, and `recovery:` whenever a fault plan is set or a worker
    /// respawned.
    pub fn report(&self, run: &MetricsSnapshot, config: Option<&DbtfConfig>) {
        let (name, workers, faults) = match self {
            Backend::Cluster(b) => ("cluster", b.workers(), b.config().fault_plan.is_some()),
            Backend::Local(b) => ("local", b.workers(), false),
            Backend::Net(b) => ("net", b.workers(), b.config().fault_plan.is_some()),
        };
        println!(
            "{name}: {:.3} virtual s on {workers} workers; shuffled {} B, broadcast {} B, \
             collected {} B",
            run.virtual_time.as_secs_f64(),
            run.bytes_shuffled,
            run.bytes_broadcast,
            run.bytes_collected
        );
        if let Some(config) = config.filter(|c| c.storage == StorageKind::Mmap) {
            println!(
                "storage: mmap (unfoldings spilled under {})",
                config.spill_dir.as_deref().unwrap_or("the system temp dir")
            );
        }
        let m = self.metrics();
        if let Backend::Net(_) = self {
            println!(
                "wire: {} B sent, {} B received (payload, equal to the meters \
                 above), {} B framing overhead, {} B re-shipped, {} reconnects",
                m.net_wire_bytes_sent,
                m.net_wire_bytes_received,
                m.net_wire_overhead_bytes,
                m.net_wire_reship_bytes,
                m.net_reconnects,
            );
        }
        if faults || m.worker_respawns > 0 {
            println!(
                "recovery: {} respawns, {} partitions recomputed, {} B re-shipped, \
                 {} task retries, {} speculative ({} won), {:.3} virtual s of {:.3} total",
                m.worker_respawns,
                m.partitions_recomputed,
                m.bytes_reshipped,
                m.task_retries,
                m.speculative_tasks,
                m.speculative_wins,
                m.recovery_time.as_secs_f64(),
                m.virtual_time.as_secs_f64(),
            );
        }
    }
}

/// Builds a [`FaultPlan`] from the `--fault-*` options, or `None` if no
/// fault option was given. The wire faults (`--fault-drop-rate`,
/// `--fault-delay-rate`, `--fault-delay-ms`) are read only when `net`.
fn parse_fault_plan(parsed: &ParsedArgs, net: bool) -> Result<Option<FaultPlan>, ArgError> {
    let worker_crashes = match parsed.get_str("fault-crash") {
        Some(spec) => spec
            .split(',')
            .map(|pair| {
                let v: Vec<u64> = split_list("fault-crash", pair, ':', Some(2))?;
                Ok((v[0], v[1] as usize))
            })
            .collect::<Result<_, ArgError>>()?,
        None => Vec::new(),
    };
    let mut plan = FaultPlan {
        worker_crashes,
        task_failure_rate: parsed.get("fault-task-failure-rate", 0.0)?,
        slow_task_rate: parsed.get("fault-slow-rate", 0.0)?,
        slow_task_factor: parsed.get("fault-slow-factor", 4.0)?,
        process_kill_rate: parsed.get("fault-kill-rate", 0.0)?,
        ..FaultPlan::with_seed(parsed.get("fault-seed", 0)?)
    };
    if net {
        plan.connection_drop_rate = parsed.get("fault-drop-rate", 0.0)?;
        plan.response_delay_rate = parsed.get("fault-delay-rate", 0.0)?;
        plan.response_delay_ms = parsed.get("fault-delay-ms", 5)?;
    }
    Ok(plan.is_active().then_some(plan))
}
