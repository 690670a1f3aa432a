//! `dbtf` — command-line interface to the DBTF reproduction.
//!
//! ```text
//! dbtf factorize   --input X.txt --rank 10 [--workers 16] [--iters 10]
//!                  [--sets 1] [--seed 0] [--partitions N] [--v 15]
//!                  [--backend cluster|local|net] [--output PREFIX]
//!                  [--storage ram|mmap] [--spill-dir DIR]
//!                  [--net-respawn-budget N]
//!                  [--checkpoint FILE] [--checkpoint-every K] [--resume]
//!                  [--fault-crash S:W,…] [--fault-task-failure-rate F]
//!                  [--fault-slow-rate F] [--fault-slow-factor M]
//!                  [--fault-kill-rate F] [--fault-drop-rate F]
//!                  [--fault-delay-rate F] [--fault-delay-ms MS]
//!                  [--fault-seed N] [--no-speculation] [--trace-out FILE]
//! dbtf worker      --connect ADDR --id N [--incarnation N]
//! dbtf tucker      --input X.txt --ranks 4,4,4 [--iters 10] [--sets 1]
//!                  [--seed 0] [--output PREFIX] [--trace-out FILE]
//! dbtf select-rank --input X.txt --candidates 2,4,6,8 [--sets 4]
//! dbtf generate random  --dims I,J,K --density D --output X.txt
//! dbtf generate planted --dims I,J,K --rank R --factor-density D
//!                  [--additive A] [--destructive Dn] --output X.txt
//! dbtf generate proxy   --name Facebook --scale 0.01 --output X.txt
//! dbtf stats       --input X.txt
//! dbtf stats       --trace TRACE.json
//! ```
//!
//! Tensor files use the text format (`i j k` per line, `# dims` header) or
//! the `DBTFBIN1` binary format with `--binary`. Factors are written as
//! `PREFIX.A.txt`, `PREFIX.B.txt`, `PREFIX.C.txt` (and `PREFIX.core.txt`
//! for Tucker) in the sparse matrix text format.

mod args;
mod serve_cmd;
mod stats_cmd;
mod update_cmd;

use std::process::ExitCode;

use args::{ArgError, ParsedArgs};
use dbtf::model_selection::select_rank;
use dbtf::tucker::{tucker_factorize, TuckerConfig};
use dbtf::tucker_distributed::tucker_factorize_distributed_instrumented;
use dbtf::{factorize_instrumented, BackendKind, DbtfConfig, StorageKind};
use dbtf_cluster::{
    Cluster, ClusterConfig, ExecutionBackend, FaultPlan, LocalBackend, NetTuning, WorkerHost,
};
use dbtf_datagen::proxies::{generate_proxy, proxy_specs};
use dbtf_datagen::{stream_uniform_random, NoiseSpec, PlantedConfig, PlantedTensor};
use dbtf_telemetry::{write_chrome_trace, Tracer};
use dbtf_tensor::{io as tio, matrix_io, BoolTensor};

const USAGE: &str =
    "usage: dbtf <factorize|update|tucker|select-rank|generate|stats|serve|export-factors|query> [options]
run `dbtf help` for the full option list";

/// Rust ignores `SIGPIPE` by default, turning `dbtf stats | head` into a
/// broken-pipe panic; restore the default disposition so piped output
/// ends the process quietly like any Unix CLI.
#[cfg(unix)]
fn restore_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_sigpipe() {}

fn main() -> ExitCode {
    restore_sigpipe();
    // `ClusterError` panics are typed control flow: the engine unwinds to
    // the driver's catch, which flushes a final checkpoint and converts
    // them into `DbtfError`. The default hook's backtrace would dress
    // that graceful degradation up as a crash, so silence it for exactly
    // that payload type.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !info.payload().is::<dbtf_cluster::ClusterError>() {
            default_hook(info);
        }
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dbtf: {e}");
            // The usage banner only helps when the command line itself was
            // wrong. Runtime failures (I/O, algorithm errors) keep their
            // message and get a distinct exit code so scripts can tell the
            // two apart: 2 = bad invocation, 1 = the run itself failed.
            if e.is::<ArgError>() {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let parsed = ParsedArgs::parse(argv)?;
    match parsed.command.first().map(String::as_str) {
        Some("factorize") => cmd_factorize(&parsed),
        Some("update") => update_cmd::cmd_update(&parsed),
        Some("worker") => cmd_worker(&parsed),
        Some("tucker") => cmd_tucker(&parsed),
        Some("select-rank") => cmd_select_rank(&parsed),
        Some("generate") => cmd_generate(&parsed),
        Some("stats") => stats_cmd::cmd_stats(&parsed),
        Some("serve") => serve_cmd::cmd_serve(&parsed),
        Some("export-factors") => serve_cmd::cmd_export_factors(&parsed),
        Some("query") => serve_cmd::cmd_query(&parsed),
        Some("help") | None => {
            println!("{}", long_help());
            Ok(())
        }
        Some(other) => Err(Box::new(ArgError(format!("unknown command {other:?}")))),
    }
}

fn long_help() -> &'static str {
    "dbtf — distributed Boolean tensor factorization (DBTF, ICDE 2017)

commands:
  factorize    Boolean CP factorization on a simulated cluster
  update       incremental re-sweep after a tensor delta (and optional
               live reload of a running `dbtf serve`)
  worker       networked worker process (spawned by --backend net)
  tucker       Boolean Tucker factorization (single machine)
  select-rank  MDL sweep over candidate ranks
  generate     synthetic workloads: random | planted | proxy
  stats        shape/density summary of a tensor, checkpoint, or store file
  serve        answer reconstruction queries from a factor store over TCP
  export-factors  convert a checkpoint into a binary DBTFFSET factor store
  query        one-shot client for a running `dbtf serve`

common options:
  --input FILE     input tensor (text format; --binary for DBTFBIN1)
  --output PREFIX  where results are written
  --seed N         RNG seed (default 0)

factorize: --rank R [--workers 16] [--iters 10] [--sets 1]
           [--partitions N] [--v 15] [--output PREFIX]
           [--backend cluster|local|net]
                 cluster (default): simulated multi-worker engine with
                 network-model costing and optional fault injection;
                 local: same plan inline in one process — identical
                 factors/errors/byte counters, but virtual time excludes
                 all network costs and --fault-* options are rejected;
                 net: workers are separate OS processes (this binary's
                 `worker` subcommand) over TCP — identical factors/errors
                 and byte counters, with shuffle/broadcast bytes measured
                 on the wire and process kills delivered as real SIGKILLs
           [--net-respawn-budget N]
                 respawns per worker before a net run degrades to a typed
                 error with a final checkpoint flush (default 3)
           [--storage ram|mmap]
                 where the driver materializes the unfolded tensors.
                 ram (default): on the heap; mmap: spilled once to
                 on-disk columnar files (bounded sort buffer, see
                 DBTF_SPILL_BUDGET_MB) and partitioned through a
                 read-only memory map, so no heap unfolding exists.
                 The driver still holds the whole tensor and, while a
                 mode ships, that mode's partitions and their encoded
                 frames: a 2560×2560×640 net job with 1.4M ones peaks
                 near 60 MiB on mmap and 67 MiB on ram. Factors,
                 errors, and every meter are bit-identical either way.
           [--spill-dir DIR]
                 where --storage mmap spills its unfolding files
                 (default: the system temp dir); each run uses and
                 removes its own subdirectory
  checkpointing:
           [--checkpoint FILE]    write factors to FILE every K iterations
           [--checkpoint-every K] (default 1 when --checkpoint is given)
           [--resume]             continue from FILE if it exists
  fault injection (deterministic; results stay bit-identical):
           [--fault-crash S:W,…]          kill worker W at superstep S
           [--fault-task-failure-rate F]  transient task-launch failures
           [--fault-slow-rate F]          slow-task (hang) probability
           [--fault-slow-factor M]        slowdown multiplier (default 4)
           [--fault-kill-rate F]          per-worker-superstep kill rate
                 (simulated crash on cluster, real SIGKILL on net — same
                 seeded schedule, so results stay identical)
           [--fault-drop-rate F]          connection-drop rate (net only)
           [--fault-delay-rate F]         response-delay rate (net only)
           [--fault-delay-ms MS]          injected delay (default 5 ms)
           [--fault-seed N]               fault-decision seed (default 0)
           [--no-speculation]             disable speculative re-execution
  tracing:
           [--trace-out FILE]  record a span trace (driver phases, operator
                 supersteps, per-task and per-kernel spans on the virtual
                 clock) and write it as Chrome trace-event JSON — open in
                 chrome://tracing or Perfetto, or summarize with
                 `dbtf stats --trace FILE`
update:    --input X.txt --delta DELTA.txt --factors STORE --output FILE
           [--set-version N]  (default: input store's version + 1)
           [--workers 16] [--iters 10] [--partitions N] [--v 15]
           [--backend cluster|local|net] [--storage ram|mmap]
           [--spill-dir DIR] [--net-respawn-budget N] [--fault-* …]
                 X.txt is the *pre-delta* tensor; DELTA.txt lists edits
                 (`+ i j k` sets a cell, `- i j k` clears one, `#`
                 comments). STORE (DBTFFSET or DBTFCKPT) holds factors
                 fitted to the pre-delta tensor; the rank comes from it.
                 Only the factor columns the delta is incident to are
                 re-swept — through copy-on-write overlays of the old
                 unfoldings, never a rebuild — and the result is proven
                 no worse than the old factors on the updated tensor.
                 Bit-identical across backends and storage kinds
           [--reload ADDR [--reload-source ram|mmap]]
                 after writing --output, ask the `dbtf serve` at ADDR to
                 hot-swap to it (the absolute path is sent, so the server
                 may run in another working directory)
worker:    --connect ADDR --id N [--incarnation N]
                 connect to a --backend net driver and serve tasks; spawned
                 automatically, only useful directly for debugging
tucker:    --ranks R1,R2,R3 [--iters 10] [--sets 1] [--workers M]\n           [--output PREFIX]   (--workers runs the distributed driver)
select-rank: --candidates R1,R2,… [--sets 4]
stats:     --input X.txt | --trace TRACE.json
                 (--trace validates the trace file and prints a
                 per-superstep/operator time breakdown; tensor stats
                 stream the file in constant memory, and DBTFUNFD
                 columnar-unfolding files are summarized from the
                 header and row index alone)
serve:     --store FILE (DBTFFSET export or DBTFCKPT checkpoint)
           [--addr HOST:PORT]    listen address (default 127.0.0.1:7450)
           [--source ram|mmap]   factor rows on the heap or served from a
                 read-only map of the DBTFFSET file (checkpoints: ram only)
           [--max-line-bytes N] [--max-batch N]  protocol limits
                 the protocol is line-delimited JSON; each line is one
                 request object or an array of them (a batch), answered
                 in order with typed errors, never dropped connections.
                 at most 64 connections at once: one more gets a `busy`
                 error line and is closed.
                 every answer is computed from the factor rows (nothing
                 is cached).
                 a client `shutdown` request drains the server: in-flight
                 requests are answered, then every connection closes.
                 a `reload` request hot-swaps the factor set in place
                 (see `dbtf update --reload`): queries already in flight
                 finish against the old generation, new ones see the new
export-factors: --checkpoint CKPT --output FILE [--set-version N]
                 (default set version: the checkpoint's iteration count)
query:     --connect ADDR, plus exactly one of
           --point i,j,k         print true/false for cell X̃[i,j,k]
           --slice MODE:LO,HI    nonzero indices of a fiber; MODE is the
                 free axis (1=i 2=j 3=k), LO,HI the fixed indices in
                 ascending mode order
           --topk MODE:ENTITY:K  strongest factor columns for an entity
           --ping | --info | --stats | --shutdown-server
           --oracle-check FACTORS [--seed N] [--count N]
                 replay a seeded query sweep and compare every answer
                 against the oracle reconstruction of FACTORS
generate random:  --dims I,J,K --density D --output FILE
generate planted: --dims I,J,K --rank R --factor-density D
                  [--additive A] [--destructive D] --output FILE
generate proxy:   --name NAME --scale S --output FILE
                  (names: Facebook DBLP CAIDA-DDoS-S CAIDA-DDoS-L NELL-S NELL-L)"
}

fn load_tensor(parsed: &ParsedArgs) -> Result<BoolTensor, Box<dyn std::error::Error>> {
    let path = parsed
        .get_str("input")
        .ok_or_else(|| ArgError("missing required option --input".into()))?;
    let tensor = if parsed.has_flag("binary") || path.ends_with(".dbtf") {
        tio::read_tensor_binary_file(path)?
    } else {
        tio::read_tensor_file(path)?
    };
    Ok(tensor)
}

fn save_tensor(
    tensor: &BoolTensor,
    parsed: &ParsedArgs,
) -> Result<String, Box<dyn std::error::Error>> {
    let path = parsed
        .get_str("output")
        .ok_or_else(|| ArgError("missing required option --output".into()))?;
    if parsed.has_flag("binary") || path.ends_with(".dbtf") {
        tio::write_tensor_binary_file(tensor, path)?;
    } else {
        tio::write_tensor_file(tensor, path)?;
    }
    Ok(path.to_string())
}

fn cmd_factorize(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let x = load_tensor(parsed)?;
    let workers: usize = parsed.get("workers", 16)?;
    let checkpoint_path = parsed.get_str("checkpoint").map(str::to_string);
    let config = DbtfConfig {
        rank: parsed.require("rank")?,
        max_iters: parsed.get("iters", 10)?,
        initial_sets: parsed.get("sets", 1)?,
        partitions: parsed
            .get_str("partitions")
            .map(str::parse)
            .transpose()
            .map_err(|_| ArgError("invalid value for --partitions".into()))?,
        cache_group_limit: parsed.get("v", 15)?,
        seed: parsed.get("seed", 0)?,
        checkpoint_every: checkpoint_path
            .is_some()
            .then(|| parsed.get("checkpoint-every", 1))
            .transpose()?,
        checkpoint_path,
        resume: parsed.has_flag("resume"),
        backend: parsed.get("backend", BackendKind::default())?,
        storage: resolve_storage(parsed.get_str("storage"))?,
        spill_dir: parsed.get_str("spill-dir").map(str::to_string),
        ..DbtfConfig::default()
    };
    let trace_out = parsed.get_str("trace-out");
    let tracer = if trace_out.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let fault_plan = parse_fault_plan(parsed)?;
    let cluster_config = ClusterConfig {
        workers,
        fault_plan: fault_plan.clone(),
        ..ClusterConfig::paper_cluster()
    };
    // Factors/errors/byte counters are identical on all three backends;
    // the local one skips the network model (virtual time is compute-only)
    // and cannot inject faults; the net one runs workers as separate OS
    // processes over TCP and measures the Lemma 6/7 bytes on the wire.
    let (result, recovery, wire) = match config.backend {
        BackendKind::Cluster => {
            let cluster = Cluster::try_new(cluster_config)?;
            let result = factorize_instrumented(&cluster, &x, &config, &tracer)?.0;
            let recovery = fault_plan.is_some().then(|| cluster.metrics());
            (result, recovery, None)
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
            (
                factorize_instrumented(&backend, &x, &config, &tracer)?.0,
                None,
                None,
            )
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
            let result = factorize_instrumented(&backend, &x, &config, &tracer)?.0;
            let metrics = backend.metrics();
            let recovery = fault_plan.is_some().then(|| metrics.clone());
            (result, recovery, Some(metrics))
        }
    };
    if let Some(path) = trace_out {
        write_trace(&tracer, path)?;
        println!("wrote {path}");
    }
    println!(
        "factorized {:?} at rank {}: |X ⊕ X̃| = {} ({:.2}% of |X|), {} iterations{}",
        x,
        config.rank,
        result.error,
        100.0 * result.relative_error,
        result.iterations,
        if result.converged { " (converged)" } else { "" }
    );
    println!(
        "{}: {:.3} virtual s on {} workers; shuffled {} B, broadcast {} B, collected {} B",
        config.backend,
        result.stats.virtual_secs,
        workers,
        result.stats.comm.bytes_shuffled,
        result.stats.comm.bytes_broadcast,
        result.stats.comm.bytes_collected
    );
    if config.storage == StorageKind::Mmap {
        println!(
            "storage: mmap (unfoldings spilled under {})",
            config.spill_dir.as_deref().unwrap_or("the system temp dir")
        );
    }
    if let Some(m) = &wire {
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
    if let Some(m) = recovery {
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
    if let Some(prefix) = parsed.get_str("output") {
        for (name, m) in [
            ("A", &result.factors.a),
            ("B", &result.factors.b),
            ("C", &result.factors.c),
        ] {
            let path = format!("{prefix}.{name}.txt");
            matrix_io::write_matrix_file(m, &path)?;
            println!("wrote {path}");
        }
    }
    Ok(())
}

/// Parses the `--storage ram|mmap` flag (default `ram`); a malformed value
/// is an argument error.
fn resolve_storage(flag: Option<&str>) -> Result<StorageKind, ArgError> {
    flag.map_or(Ok(StorageKind::default()), |raw| {
        raw.parse()
            .map_err(|e| ArgError(format!("invalid value for --storage: {e}")))
    })
}

/// Builds a [`FaultPlan`] from the `--fault-*` options, or `None` if no
/// fault option was given.
fn parse_fault_plan(parsed: &ParsedArgs) -> Result<Option<FaultPlan>, Box<dyn std::error::Error>> {
    let crashes: Vec<(u64, usize)> = match parsed.get_str("fault-crash") {
        Some(spec) => spec
            .split(',')
            .map(|pair| {
                let (step, worker) = pair.split_once(':').ok_or_else(|| {
                    ArgError(format!(
                        "--fault-crash entries are SUPERSTEP:WORKER, got {pair:?}"
                    ))
                })?;
                Ok((
                    step.parse()
                        .map_err(|_| ArgError(format!("bad superstep in {pair:?}")))?,
                    worker
                        .parse()
                        .map_err(|_| ArgError(format!("bad worker in {pair:?}")))?,
                ))
            })
            .collect::<Result<_, ArgError>>()?,
        None => Vec::new(),
    };
    let plan = FaultPlan {
        worker_crashes: crashes,
        task_failure_rate: parsed.get("fault-task-failure-rate", 0.0)?,
        slow_task_rate: parsed.get("fault-slow-rate", 0.0)?,
        slow_task_factor: parsed.get("fault-slow-factor", 4.0)?,
        process_kill_rate: parsed.get("fault-kill-rate", 0.0)?,
        connection_drop_rate: parsed.get("fault-drop-rate", 0.0)?,
        response_delay_rate: parsed.get("fault-delay-rate", 0.0)?,
        response_delay_ms: parsed.get("fault-delay-ms", 5)?,
        speculation: !parsed.has_flag("no-speculation"),
        ..FaultPlan::with_seed(parsed.get("fault-seed", 0)?)
    };
    Ok(plan.is_active().then_some(plan))
}

/// `dbtf worker --connect ADDR --id N [--incarnation N]`: the networked
/// worker process. `--backend net` drivers spawn this subcommand (via
/// [`WorkerHost::Process`]) once per worker and again on every respawn;
/// it connects back to the driver, registers the same task bodies the
/// driver schedules (see `dbtf::net_tasks`), and serves supersteps until
/// told to exit or killed.
fn cmd_worker(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let addr: std::net::SocketAddr = parsed.require("connect")?;
    let id: usize = parsed.require("id")?;
    let incarnation: u64 = parsed.get("incarnation", 0)?;
    dbtf_cluster::worker_main(addr, id, incarnation, dbtf::net_tasks::build_registry())?;
    Ok(())
}

fn cmd_tucker(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let x = load_tensor(parsed)?;
    let config = TuckerConfig {
        ranks: parsed.require_triple("ranks")?,
        max_iters: parsed.get("iters", 10)?,
        initial_sets: parsed.get("sets", 1)?,
        seed: parsed.get("seed", 0)?,
        ..TuckerConfig::default()
    };
    let trace_out = parsed.get_str("trace-out");
    let tracer = if trace_out.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    // With --workers, run the distributed driver (identical results);
    // --backend local runs the same plan without the network model.
    let result = match parsed.get_str("workers") {
        Some(w) => {
            let cluster_config = ClusterConfig {
                workers: w
                    .parse()
                    .map_err(|_| ArgError(format!("invalid --workers {w:?}")))?,
                ..ClusterConfig::paper_cluster()
            };
            match parsed.get("backend", BackendKind::default())? {
                BackendKind::Cluster => {
                    let cluster = Cluster::try_new(cluster_config)?;
                    tucker_factorize_distributed_instrumented(&cluster, &x, &config, &tracer)?.0
                }
                BackendKind::Local => {
                    let backend = LocalBackend::from_cluster_config(&cluster_config);
                    tucker_factorize_distributed_instrumented(&backend, &x, &config, &tracer)?.0
                }
                // Tucker's supersteps are plain closures (its broadcast
                // tuples have no registered wire codecs), so they cannot
                // cross a process boundary.
                BackendKind::Net => {
                    return Err(Box::new(ArgError(
                        "tucker supports --backend cluster|local only \
                         (its tasks are not wire-encodable)"
                            .into(),
                    )))
                }
            }
        }
        None => {
            if trace_out.is_some() {
                return Err(Box::new(ArgError(
                    "--trace-out needs the distributed driver; add --workers N".into(),
                )));
            }
            tucker_factorize(&x, &config)?
        }
    };
    if let Some(path) = trace_out {
        write_trace(&tracer, path)?;
        println!("wrote {path}");
    }
    println!(
        "tucker-factorized {:?} with core {:?}: |X ⊕ X̃| = {} ({:.2}% of |X|), \
         {} core entries, {} iterations",
        x,
        config.ranks,
        result.error,
        100.0 * result.relative_error,
        result.factorization.core.nnz(),
        result.iterations
    );
    if let Some(prefix) = parsed.get_str("output") {
        for (name, m) in [
            ("A", &result.factorization.a),
            ("B", &result.factorization.b),
            ("C", &result.factorization.c),
        ] {
            let path = format!("{prefix}.{name}.txt");
            matrix_io::write_matrix_file(m, &path)?;
            println!("wrote {path}");
        }
        let core_path = format!("{prefix}.core.txt");
        tio::write_tensor_file(&result.factorization.core, &core_path)?;
        println!("wrote {core_path}");
    }
    Ok(())
}

fn cmd_select_rank(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let x = load_tensor(parsed)?;
    let candidates = parsed.require_list("candidates")?;
    let base = DbtfConfig {
        initial_sets: parsed.get("sets", 4)?,
        seed: parsed.get("seed", 0)?,
        ..DbtfConfig::default()
    };
    let cluster = Cluster::new(ClusterConfig::with_workers(parsed.get("workers", 8)?));
    let selection = select_rank(&cluster, &x, &candidates, &base)?;
    println!("{:>6} {:>12} {:>16}", "rank", "error", "DL (bits)");
    for c in &selection.candidates {
        let marker = if c.rank == selection.best_rank {
            "  ← best"
        } else {
            ""
        };
        println!(
            "{:>6} {:>12} {:>16.0}{marker}",
            c.rank, c.error, c.description_length
        );
    }
    Ok(())
}

fn cmd_generate(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = parsed.get("seed", 0)?;
    let tensor = match parsed.command.get(1).map(String::as_str) {
        Some("random") => {
            // Streamed straight to the output file: the entries go from the
            // gap sampler into the writer one at a time, so generating a
            // tensor far larger than memory works — and the bytes are
            // identical to materializing and saving (the sampler and the
            // writer both use strictly increasing lexicographic order).
            let dims = parsed.require_triple("dims")?;
            let density: f64 = parsed.require("density")?;
            let path = parsed
                .get_str("output")
                .ok_or_else(|| ArgError("missing required option --output".into()))?;
            let binary = parsed.has_flag("binary") || path.ends_with(".dbtf");
            let mut writer = tio::StreamingTensorWriter::create(path, dims, binary)?;
            let mut io_err: Option<std::io::Error> = None;
            stream_uniform_random(dims, density, seed, |e| {
                if io_err.is_none() {
                    if let Err(err) = writer.push(e) {
                        io_err = Some(err);
                    }
                }
            });
            if let Some(err) = io_err {
                return Err(err.into());
            }
            let count = writer.finish()?;
            println!(
                "wrote BoolTensor[{}×{}×{}, |X| = {count}] to {path}",
                dims[0], dims[1], dims[2]
            );
            return Ok(());
        }
        Some("planted") => {
            let planted = PlantedTensor::generate(PlantedConfig {
                dims: parsed.require_triple("dims")?,
                rank: parsed.require("rank")?,
                factor_density: parsed.require("factor-density")?,
                noise: NoiseSpec {
                    additive: parsed.get("additive", 0.0)?,
                    destructive: parsed.get("destructive", 0.0)?,
                },
                seed,
            });
            planted.tensor
        }
        Some("proxy") => {
            let name: String = parsed.require("name")?;
            let spec = proxy_specs()
                .into_iter()
                .find(|s| s.name.eq_ignore_ascii_case(&name))
                .ok_or_else(|| {
                    ArgError(format!(
                        "unknown proxy {name:?}; known: {}",
                        proxy_specs()
                            .iter()
                            .map(|s| s.name)
                            .collect::<Vec<_>>()
                            .join(" ")
                    ))
                })?;
            generate_proxy(&spec, parsed.get("scale", 0.01)?, seed)
        }
        other => {
            return Err(Box::new(ArgError(format!(
                "generate needs a kind (random|planted|proxy), got {other:?}"
            ))))
        }
    };
    let path = save_tensor(&tensor, parsed)?;
    println!("wrote {tensor:?} to {path}");
    Ok(())
}

/// Serializes the tracer's finished log as Chrome trace-event JSON.
fn write_trace(tracer: &Tracer, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let log = tracer.finish();
    let mut buf = Vec::new();
    write_chrome_trace(&log, &mut buf)?;
    std::fs::write(path, buf)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_flag_wins_over_env() {
        assert_eq!(resolve_storage(Some("mmap")).unwrap(), StorageKind::Mmap);
        assert_eq!(resolve_storage(Some("ram")).unwrap(), StorageKind::Ram);
        assert_eq!(resolve_storage(None).unwrap(), StorageKind::Ram);
    }

    #[test]
    fn malformed_env_warns_and_defaults_but_malformed_flag_errors() {
        let err = resolve_storage(Some("floppy")).unwrap_err();
        assert!(err.0.contains("--storage"), "{err}");
    }
}
