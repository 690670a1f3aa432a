//! `dbtf update` — incremental factor updates after a tensor delta:
//! bounded re-sweep of only the affected columns, a new `DBTFFSET`
//! generation on disk, and (optionally) a live hot-swap of a running
//! `dbtf serve` via the `reload` protocol request.

use std::path::Path;

use crate::args::{ArgError, ParsedArgs};
use crate::{parse_fault_plan, resolve_storage};
use dbtf::{update_factors, BackendKind, DbtfConfig, StorageKind};
use dbtf_cluster::{Cluster, ClusterConfig, ExecutionBackend, LocalBackend, NetTuning, WorkerHost};
use dbtf_serve::{FactorStore, ServeClient, SourceKind};
use dbtf_tensor::TensorDelta;

/// `dbtf update --input X.txt --delta DELTA.txt --factors STORE
/// --output FILE [--set-version N] [--workers 16] [--iters 10]
/// [--partitions N] [--v 15] [--backend cluster|local|net]
/// [--storage ram|mmap] [--spill-dir DIR] [--net-respawn-budget N]
/// [--fault-* …] [--reload ADDR [--reload-source ram|mmap]]`
///
/// `--input` is the *pre-delta* tensor; `--delta` lists the edits
/// (`+ i j k` to set, `- i j k` to clear, `#` comments). `--factors`
/// is the factor set fitted to the pre-delta tensor — a `DBTFFSET`
/// store or checkpoint; the rank comes from it. Only the
/// factor columns incident to the delta are re-swept, and the result
/// is never worse than the old factors on the updated tensor.
///
/// The updated factors are written to `--output` as a `DBTFFSET` store
/// whose set version defaults to the input store's version + 1. With
/// `--reload ADDR`, a running `dbtf serve` is then asked to hot-swap to
/// the new store. The server opens the path itself, so it is sent
/// absolute: a relative `--output` names a file in *this* process's
/// working directory, not the server's.
pub fn cmd_update(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let x = crate::load_tensor(parsed)?;
    let delta_path: String = parsed.require("delta")?;
    let delta_text = std::fs::read_to_string(&delta_path)
        .map_err(|e| format!("cannot read --delta {delta_path}: {e}"))?;
    let delta = TensorDelta::parse(&delta_text, x.dims())
        .map_err(|e| format!("invalid delta file {delta_path}: {e}"))?;
    let factors_path: String = parsed.require("factors")?;
    let store = FactorStore::open(Path::new(&factors_path), SourceKind::Ram)?;
    let factors = store.to_factor_set();
    let out_path: String = parsed.require("output")?;
    let set_version = parsed.get("set-version", store.set_version() + 1)?;

    let workers: usize = parsed.get("workers", 16)?;
    let config = DbtfConfig {
        rank: factors.rank(),
        max_iters: parsed.get("iters", 10)?,
        partitions: parsed
            .get_str("partitions")
            .map(str::parse)
            .transpose()
            .map_err(|_| ArgError("invalid value for --partitions".into()))?,
        cache_group_limit: parsed.get("v", 15)?,
        seed: parsed.get("seed", 0)?,
        backend: parsed.get("backend", BackendKind::default())?,
        storage: resolve_storage(parsed.get_str("storage"))?,
        spill_dir: parsed.get_str("spill-dir").map(str::to_string),
        ..DbtfConfig::default()
    };
    let fault_plan = parse_fault_plan(parsed)?;
    let cluster_config = ClusterConfig {
        workers,
        fault_plan: fault_plan.clone(),
        ..ClusterConfig::paper_cluster()
    };
    // The same backend triad as `dbtf factorize` — results are
    // bit-identical on all three (and for both storage kinds).
    let result = match config.backend {
        BackendKind::Cluster => {
            let cluster = Cluster::try_new(cluster_config)?;
            update_factors(&cluster, &x, &delta, &factors, &config)?
        }
        BackendKind::Local => {
            if fault_plan.is_some() {
                return Err(Box::new(ArgError(
                    "--fault-* options need --backend cluster or net \
                     (the local backend injects no faults)"
                        .into(),
                )));
            }
            let backend = LocalBackend::from_cluster_config(&cluster_config);
            update_factors(&backend, &x, &delta, &factors, &config)?
        }
        BackendKind::Net => {
            let tuning = NetTuning {
                respawn_budget: parsed
                    .get("net-respawn-budget", NetTuning::default().respawn_budget)?,
                ..NetTuning::default()
            };
            let host = WorkerHost::Process {
                program: std::env::current_exe()?,
                args: vec!["worker".into()],
            };
            let backend = dbtf::net_tasks::net_backend(cluster_config, host, tuning)?;
            let result = update_factors(&backend, &x, &delta, &factors, &config)?;
            let m = backend.metrics();
            if m.worker_respawns > 0 {
                println!(
                    "recovery: {} respawns, {} partitions recomputed, {} B re-shipped",
                    m.worker_respawns, m.partitions_recomputed, m.bytes_reshipped
                );
            }
            result
        }
    };

    let sets = delta.cells().iter().filter(|c| c.set).count();
    println!(
        "applied {} delta cells ({sets} set, {} cleared) to {:?}",
        delta.len(),
        delta.len() - sets,
        x,
    );
    println!(
        "re-swept {} of {} columns {:?}: |X ⊕ X̃| {} → {} over {} rounds{}",
        result.affected_columns.len(),
        factors.rank(),
        result.affected_columns,
        result.pre_error,
        result.error,
        result.iterations,
        if result.converged { " (converged)" } else { "" }
    );
    if config.storage == StorageKind::Mmap {
        println!(
            "storage: mmap (unfoldings spilled under {})",
            config.spill_dir.as_deref().unwrap_or("the system temp dir")
        );
    }
    FactorStore::write_store(Path::new(&out_path), set_version, &result.factors)?;
    println!("wrote factor set v{set_version} to {out_path}");

    if let Some(addr) = parsed.get_str("reload") {
        let mut client = ServeClient::connect(
            addr.parse()
                .map_err(|e| ArgError(format!("invalid --reload address {addr:?}: {e}")))?,
        )?;
        let source = parsed.get_str("reload-source");
        if let Some(raw) = source {
            // Validate locally so a typo fails before the server round-trip.
            raw.parse::<SourceKind>()
                .map_err(|e| ArgError(format!("invalid --reload-source: {e}")))?;
        }
        let store_path = std::fs::canonicalize(&out_path)
            .map_err(|e| format!("cannot resolve --output {out_path}: {e}"))?;
        let store_path = store_path
            .to_str()
            .ok_or_else(|| format!("--output {out_path} resolves to a non-UTF-8 path"))?;
        let (version, generation) = client.reload(store_path, source)?;
        println!("reloaded {addr}: serving v{version} (generation {generation})");
    }
    Ok(())
}
