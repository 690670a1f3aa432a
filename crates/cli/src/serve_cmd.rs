//! The serving-side subcommands: `dbtf serve`, `dbtf export-factors`,
//! and `dbtf query` (including the oracle-backed `--oracle-check` sweep
//! the CI smoke script runs against a live server).

use std::path::Path;
use std::time::Duration;

use crate::args::{ArgError, ParsedArgs};
use dbtf_oracle::{cp_reconstruct, serving_point, serving_slice, serving_topk};
use dbtf_serve::{
    FactorStore, QueryMix, Request, SeededQueries, ServeClient, ServeLimits, Server, ServerConfig,
    SourceKind,
};

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn source_arg(parsed: &ParsedArgs) -> Result<SourceKind, ArgError> {
    match parsed.get_str("source") {
        None => Ok(SourceKind::Ram),
        Some(raw) => raw.parse().map_err(|e: String| ArgError(e)),
    }
}

/// `dbtf serve --store FILE [--addr HOST:PORT] [--source ram|mmap]
/// [--max-line-bytes N] [--max-batch N]`
///
/// Loads a `DBTFFSET` factor-set file (a checkpoint or an exported store)
/// from either source and serves reconstruction queries until a client
/// sends `shutdown`.
pub fn cmd_serve(parsed: &ParsedArgs) -> CliResult {
    let store_path: String = parsed.require("store")?;
    let store = FactorStore::open(Path::new(&store_path), source_arg(parsed)?)?;
    let defaults = ServeLimits::default();
    let config = ServerConfig {
        addr: parsed.get("addr", "127.0.0.1:7450".to_string())?,
        limits: ServeLimits {
            max_line_bytes: parsed.get("max-line-bytes", defaults.max_line_bytes)?,
            max_batch: parsed.get("max-batch", defaults.max_batch)?,
        },
    };
    let [i, j, k] = store.dims();
    println!(
        "serving factor set v{} ({i} × {j} × {k}, rank {}, {} source)",
        store.set_version(),
        store.rank(),
        store.source(),
    );
    let handle = Server::start(store, config)?;
    println!("listening on {}", handle.addr());
    if handle.run_until_drained(Duration::from_secs(10)) {
        println!("drained cleanly");
        Ok(())
    } else {
        Err("drain deadline expired with connections still open".into())
    }
}

/// `dbtf export-factors --checkpoint CKPT --output FILE [--set-version N]`
///
/// Writes the factors of the factor-set file `CKPT` (a checkpoint, or any
/// store) to `FILE` as a plain store at set version `N`, which defaults to
/// `CKPT`'s own: a checkpoint's completed-iteration count.
pub fn cmd_export_factors(parsed: &ParsedArgs) -> CliResult {
    let ck_path: String = parsed.require("checkpoint")?;
    let out_path: String = parsed.require("output")?;
    let ck = FactorStore::open(Path::new(&ck_path), SourceKind::Ram)?;
    let set_version = parsed.get("set-version", ck.set_version())?;
    FactorStore::write_store(Path::new(&out_path), set_version, &ck.to_factor_set())?;
    let [i, j, k] = ck.dims();
    println!(
        "exported factor set v{set_version} ({i} × {j} × {k}, rank {}) to {out_path}",
        ck.rank()
    );
    Ok(())
}

/// `dbtf query --connect ADDR <--point i,j,k | --slice MODE:LO,HI |
/// --topk MODE:ENTITY:K | --ping | --info | --stats | --shutdown-server |
/// --oracle-check FACTORS [--seed N] [--count N]>`
///
/// One-shot client for a running `dbtf serve`. `--oracle-check` replays
/// a seeded query sweep and compares every answer against the oracle's
/// cell-by-cell reconstruction of the factors in the factor-set file
/// `FACTORS` — the CI smoke test's agreement gate.
pub fn cmd_query(parsed: &ParsedArgs) -> CliResult {
    let addr: String = parsed.require("connect")?;
    let mut client = ServeClient::connect(
        addr.parse()
            .map_err(|e| ArgError(format!("invalid --connect address {addr:?}: {e}")))?,
    )?;
    if let Some(cells) = parsed.get_str("point") {
        let [i, j, k] = parse_triple("point", cells)?;
        println!("{}", client.point(i, j, k)?);
    } else if let Some(spec) = parsed.get_str("slice") {
        let (mode, rest) = split_mode("slice", spec)?;
        let [lo, hi] = parse_pair("slice", rest)?;
        let ones = client.slice(mode, lo, hi)?;
        println!(
            "{}",
            ones.iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        );
    } else if let Some(spec) = parsed.get_str("topk") {
        let parts = parse_colon_list("topk", spec, 3)?;
        for (col, weight) in client.topk(parts[0], parts[1], parts[2])? {
            println!("{col} {weight}");
        }
    } else if parsed.has_flag("ping") {
        client.ping()?;
        println!("pong");
    } else if parsed.has_flag("info") {
        let info = client.info()?;
        println!(
            "factor set v{} {} × {} × {} rank {} ({})",
            info.set_version, info.dims[0], info.dims[1], info.dims[2], info.rank, info.source
        );
    } else if parsed.has_flag("stats") {
        for (name, value) in client.stats()? {
            println!("{name} {value}");
        }
    } else if parsed.has_flag("shutdown-server") {
        client.shutdown()?;
        println!("server draining");
    } else if let Some(factors_path) = parsed.get_str("oracle-check") {
        let seed = parsed.get("seed", 0u64)?;
        let count = parsed.get("count", 500usize)?;
        oracle_check(&mut client, Path::new(factors_path), seed, count)?;
    } else {
        return Err(Box::new(ArgError(
            "query needs one of --point/--slice/--topk/--ping/--info/--stats/\
             --shutdown-server/--oracle-check"
                .into(),
        )));
    }
    Ok(())
}

/// Replays `count` seeded queries against both the live server and the
/// oracle's materialized reconstruction; any disagreement is an error
/// naming the query.
fn oracle_check(
    client: &mut ServeClient,
    factors_path: &Path,
    seed: u64,
    count: usize,
) -> CliResult {
    let factors = FactorStore::open(factors_path, SourceKind::Ram)?.to_factor_set();
    let recon = cp_reconstruct(&factors.a, &factors.b, &factors.c);
    let dims = [factors.a.rows(), factors.b.rows(), factors.c.rows()];
    let served = client.info()?;
    if served.dims != dims {
        return Err(format!(
            "server dims {:?} do not match oracle factors {:?}",
            served.dims, dims
        )
        .into());
    }
    let sweep = SeededQueries::new(seed, dims, QueryMix::default_mix());
    for (n, request) in sweep.take(count).enumerate() {
        match request {
            Request::Point { i, j, k } => {
                let got = client.point(i, j, k)?;
                let want = serving_point(&recon, i, j, k);
                if got != want {
                    return Err(disagree(n, &format!("point {i},{j},{k}"), got, want));
                }
            }
            Request::Slice { free_mode, lo, hi } => {
                let got = client.slice(free_mode + 1, lo, hi)?;
                let want = serving_slice(&recon, free_mode, lo, hi);
                if got != want {
                    return Err(disagree(
                        n,
                        &format!("slice mode {} ({lo},{hi})", free_mode + 1),
                        got,
                        want,
                    ));
                }
            }
            Request::Topk { mode, entity, k } => {
                let got = client.topk(mode + 1, entity, k)?;
                let want = serving_topk(&factors.a, &factors.b, &factors.c, mode, entity, k);
                if got != want {
                    return Err(disagree(
                        n,
                        &format!("topk mode {} entity {entity} k {k}", mode + 1),
                        got,
                        want,
                    ));
                }
            }
            _ => unreachable!("sweeps generate only data queries"),
        }
    }
    println!("oracle-check: {count} queries agree (seed {seed})");
    Ok(())
}

fn disagree(
    n: usize,
    what: &str,
    got: impl std::fmt::Debug,
    want: impl std::fmt::Debug,
) -> Box<dyn std::error::Error> {
    format!("oracle disagreement at query {n} ({what}): served {got:?}, oracle {want:?}").into()
}

fn parse_triple(name: &str, raw: &str) -> Result<[usize; 3], ArgError> {
    let parts: Vec<usize> = raw
        .split(',')
        .map(|p| p.trim().parse())
        .collect::<Result<_, _>>()
        .map_err(|_| ArgError(format!("invalid --{name} {raw:?} (want i,j,k)")))?;
    if parts.len() != 3 {
        return Err(ArgError(format!(
            "--{name} needs three indices, got {raw:?}"
        )));
    }
    Ok([parts[0], parts[1], parts[2]])
}

fn parse_pair(name: &str, raw: &str) -> Result<[usize; 2], ArgError> {
    let parts: Vec<usize> = raw
        .split(',')
        .map(|p| p.trim().parse())
        .collect::<Result<_, _>>()
        .map_err(|_| ArgError(format!("invalid --{name} fixed indices {raw:?}")))?;
    if parts.len() != 2 {
        return Err(ArgError(format!(
            "--{name} needs two fixed indices, got {raw:?}"
        )));
    }
    Ok([parts[0], parts[1]])
}

/// Splits a `MODE:...` spec, validating the 1-based mode.
fn split_mode<'a>(name: &str, raw: &'a str) -> Result<(usize, &'a str), ArgError> {
    let (mode, rest) = raw
        .split_once(':')
        .ok_or_else(|| ArgError(format!("--{name} wants MODE:…, got {raw:?}")))?;
    let mode: usize = mode
        .parse()
        .map_err(|_| ArgError(format!("invalid mode in --{name} {raw:?}")))?;
    if !(1..=3).contains(&mode) {
        return Err(ArgError(format!("--{name} mode must be 1, 2, or 3")));
    }
    Ok((mode, rest))
}

fn parse_colon_list(name: &str, raw: &str, want: usize) -> Result<Vec<usize>, ArgError> {
    let parts: Vec<usize> = raw
        .split(':')
        .map(|p| p.trim().parse())
        .collect::<Result<_, _>>()
        .map_err(|_| ArgError(format!("invalid --{name} spec {raw:?}")))?;
    if parts.len() != want {
        return Err(ArgError(format!(
            "--{name} wants {want} colon-separated values, got {raw:?}"
        )));
    }
    if !(1..=3).contains(&parts[0]) {
        return Err(ArgError(format!("--{name} mode must be 1, 2, or 3")));
    }
    Ok(parts)
}
