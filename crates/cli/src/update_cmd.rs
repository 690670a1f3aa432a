//! `dbtf update` — incremental factor updates after a tensor delta:
//! bounded re-sweep of only the affected columns, a new `DBTFFSET`
//! generation on disk, and (optionally) a live hot-swap of a running
//! `dbtf serve` via the `reload` protocol request.

use std::net::SocketAddr;
use std::path::Path;

use crate::args::ParsedArgs;
use crate::backend::{Backend, BackendOptions};
use crate::CliResult;
use dbtf::{update_factors, DbtfConfig};
use dbtf_serve::{FactorStore, ServeClient, SourceKind};
use dbtf_tensor::{io as tio, TensorDelta};

/// `dbtf update --input X.txt --delta DELTA.txt --factors STORE
/// --output FILE [--set-version N] [run options]
/// [--reload ADDR [--reload-source ram|mmap]]`, the run options being
/// those of `dbtf factorize` (see [`BackendOptions`]).
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
pub fn cmd_update(parsed: &ParsedArgs) -> CliResult {
    let input: String = parsed.require("input")?;
    let delta_path: String = parsed.require("delta")?;
    let factors_path: String = parsed.require("factors")?;
    let out_path: String = parsed.require("output")?;
    let set_version: Option<u64> = parsed.get_opt("set-version")?;
    let opts = BackendOptions::parse(parsed)?;
    let base = opts.dbtf_config(parsed)?;
    let reload: Option<SocketAddr> = parsed.get_opt("reload")?;
    let reload_source: Option<SourceKind> = parsed.get_opt("reload-source")?;
    parsed.reject_unread()?;

    let x = tio::read_tensor_file(&input)?;
    let delta_text = std::fs::read_to_string(&delta_path)
        .map_err(|e| format!("cannot read --delta {delta_path}: {e}"))?;
    let delta = TensorDelta::parse(&delta_text, x.dims())
        .map_err(|e| format!("invalid delta file {delta_path}: {e}"))?;
    let store = FactorStore::open(Path::new(&factors_path), SourceKind::Ram)?;
    let factors = store.to_factor_set();
    let set_version = set_version.unwrap_or(store.set_version() + 1);
    let config = DbtfConfig {
        rank: factors.rank(),
        ..base
    };
    // Bit-identical on all three backends and both storage kinds.
    let backend = opts.boot()?;
    let result = match &backend {
        Backend::Cluster(b) => update_factors(b, &x, &delta, &factors, &config)?,
        Backend::Local(b) => update_factors(b, &x, &delta, &factors, &config)?,
        Backend::Net(b) => update_factors(b, &x, &delta, &factors, &config)?,
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
    backend.report(&result.stats.comm, Some(&config));
    FactorStore::write_store(Path::new(&out_path), set_version, &result.factors)?;
    println!("wrote factor set v{set_version} to {out_path}");

    if let Some(addr) = reload {
        let mut client = ServeClient::connect(addr)?;
        let store_path = std::fs::canonicalize(&out_path)
            .map_err(|e| format!("cannot resolve --output {out_path}: {e}"))?;
        let store_path = store_path
            .to_str()
            .ok_or_else(|| format!("--output {out_path} resolves to a non-UTF-8 path"))?;
        let source = reload_source.map(|s| s.to_string());
        let (version, generation) = client.reload(store_path, source.as_deref())?;
        println!("reloaded {addr}: serving v{version} (generation {generation})");
    }
    Ok(())
}
