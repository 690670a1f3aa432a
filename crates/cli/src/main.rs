//! `dbtf` — command-line interface to the DBTF reproduction: factorize,
//! update, tucker, select-rank, worker, generate, stats, serve,
//! export-factors and query. `long_help`, printed by `dbtf help`, is the
//! one list of their options and defaults; an option a command does not
//! read is an error (exit 2).
//!
//! Tensor files use the text format (`i j k` per line, `# dims` header) or
//! the `DBTFBIN1` binary format, told apart by their first bytes; writers
//! write binary with `--binary` or a `.dbtf` name. Factors are written as
//! `PREFIX.A.txt`, `PREFIX.B.txt`, `PREFIX.C.txt` (and `PREFIX.core.txt`
//! for Tucker) in the sparse matrix text format.

mod args;
mod backend;
mod serve_cmd;
mod stats_cmd;
mod update_cmd;

use std::process::ExitCode;

use args::{ArgError, ParsedArgs};
use backend::{Backend, BackendOptions};
use dbtf::model_selection::select_rank;
use dbtf::tucker::{tucker_factorize, TuckerConfig};
use dbtf::tucker_distributed::{tucker_factorize_distributed_instrumented, MAX_DISTRIBUTED_RANK};
use dbtf::{factorize_instrumented, BackendKind, DbtfConfig};
use dbtf_datagen::proxies::{generate_proxy, proxy_specs};
use dbtf_datagen::{stream_uniform_random, NoiseSpec, PlantedConfig, PlantedTensor};
use dbtf_telemetry::{write_chrome_trace, Tracer};
use dbtf_tensor::{io as tio, matrix_io, BitMatrix};

/// What every command returns: a typed [`ArgError`] for a bad command
/// line, any other error for a failed run.
type CliResult = Result<(), Box<dyn std::error::Error>>;

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

fn run(argv: Vec<String>) -> CliResult {
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
  tucker       Boolean Tucker factorization
  select-rank  MDL sweep over candidate ranks
  generate     synthetic workloads: random | planted | proxy
  stats        shape/density summary of a tensor, unfolding, factor-set
               (checkpoint or store) or trace file
  serve        answer reconstruction queries from a factor set over TCP
  export-factors  write a checkpoint's factors as a plain DBTFFSET store
  query        one-shot client for a running `dbtf serve`

common options:
  --input FILE     input tensor, text or DBTFBIN1 binary (told apart by
                   the file's first bytes; `generate --binary` or a .dbtf
                   name writes binary)
  --output PREFIX  where results are written
  --seed N         RNG seed (default 0)
  an option a command does not read is an error (exit 2), never ignored
backend options (factorize, update, tucker, select-rank):
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
           [--workers 16]  logical workers (the paper's 16-machine cluster)
           [--net-respawn-budget 3]  (net only)
                 respawns per worker before a net run degrades to a typed
                 error with a final checkpoint flush
  fault injection (deterministic; results stay bit-identical):
           [--fault-crash S:W,…]          kill worker W at superstep S
           [--fault-task-failure-rate F]  transient task-launch failures
           [--fault-slow-rate F]          slow-task (hang) probability
           [--fault-slow-factor 4]        slowdown multiplier
           [--fault-kill-rate F]          per-worker-superstep kill rate
                 (simulated crash on cluster, real SIGKILL on net — same
                 seeded schedule, so results stay identical)
           [--fault-drop-rate F]          connection-drop rate (net only)
           [--fault-delay-rate F]         response-delay rate (net only)
           [--fault-delay-ms 5]           injected delay in ms (net only)
           [--fault-seed 0]               fault-decision seed
                 a task that fails every launch attempt ends the run
                 with an engine error (exit 1); on more than one worker
                 a slowed task gets a speculative copy
run options (factorize, update): the backend options, plus
           [--iters 10] [--partitions N] [--v 15] [--seed 0] [--storage ram|mmap]
                 where a lost partition is rebuilt from. Either way
                 the driver cuts each mode's partitions straight from
                 the in-memory tensor, with no unfolding built. ram
                 (default): cut again from the tensor; mmap: read back
                 from on-disk columnar files, one per mode, written
                 from that mode's partitions before they ship. The
                 driver holds the whole tensor either way and, while a
                 mode ships, that mode's partitions and their encoded
                 frames: a 2560×2560×640 net job with 1.4M ones peaks
                 near 46 MiB on either storage. Factors, errors, and
                 every meter are bit-identical either way.
           [--spill-dir DIR]
                 where --storage mmap writes its unfolding files
                 (default: the system temp dir); each run uses and
                 removes its own subdirectory
factorize: --rank R [--sets 1] [run options] [--output PREFIX]
  checkpointing:
           [--checkpoint FILE]    write factors and the error history to
                                  FILE (a DBTFFSET file) every K iterations
           [--checkpoint-every K] (default 1 when --checkpoint is given)
           [--resume]             continue from FILE if it exists
  tracing:
           [--trace-out FILE]  record a span trace (driver phases, operator
                 supersteps, per-task and per-kernel spans on the virtual
                 clock) and write it as Chrome trace-event JSON — open in
                 chrome://tracing or Perfetto, or summarize with
                 `dbtf stats --trace FILE`
update:    --input X.txt --delta DELTA.txt --factors STORE --output FILE
           [--set-version N]  (default: input store's version + 1)
           [run options]
                 X.txt is the *pre-delta* tensor; DELTA.txt lists edits
                 (`+ i j k` sets a cell, `- i j k` clears one, `#`
                 comments). STORE (a DBTFFSET store or checkpoint) holds
                 factors fitted to the pre-delta tensor; the rank comes
                 from it. Only the factor columns the delta is incident to are
                 re-swept, over partitions cut from the updated tensor,
                 and the result is proven no worse than the old factors
                 on the updated tensor.
                 Bit-identical across backends and storage kinds
           [--reload ADDR [--reload-source ram|mmap]]
                 after writing --output, ask the `dbtf serve` at ADDR to
                 hot-swap to it (the absolute path is sent, so the server
                 may run in another working directory)
worker:    --connect ADDR --id N [--incarnation N]
                 connect to a --backend net driver and serve tasks; spawned
                 automatically, only useful directly for debugging
tucker:    --ranks R1,R2,R3 [--iters 10] [--sets 1] [--seed 0]
           [backend options but net] [--output PREFIX] [--trace-out FILE]
                 ranks above 64 run the sequential driver: same factors,
                 but no backend options
select-rank: --candidates R1,R2,… [--sets 4] [--seed 0] [backend options]
stats:     --input X.txt | --trace TRACE.json
                 (--trace validates the trace file and prints a
                 per-superstep/operator time breakdown; tensor stats
                 stream the file in constant memory, and DBTFUNFD
                 columnar-unfolding files are summarized from the
                 header and row index alone; a DBTFFSET file prints its
                 shape and set version, and a checkpoint its iteration,
                 error and trajectory too)
serve:     --store FILE (a DBTFFSET store or checkpoint)
           [--addr HOST:PORT]    listen address (default 127.0.0.1:7450)
           [--source ram|mmap]   factor rows on the heap or served from a
                 read-only map of the file
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
                 writes the factors of CKPT (any DBTFFSET file) as a plain
                 store (default set version: CKPT's, which for a
                 checkpoint is its iteration count)
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

fn cmd_factorize(parsed: &ParsedArgs) -> CliResult {
    let input: String = parsed.require("input")?;
    let opts = BackendOptions::parse(parsed)?;
    let checkpoint_path = parsed.get_str("checkpoint").map(str::to_string);
    let config = DbtfConfig {
        rank: parsed.require("rank")?,
        initial_sets: parsed.get("sets", 1)?,
        checkpoint_every: parsed
            .get_opt("checkpoint-every")?
            .or(checkpoint_path.as_ref().map(|_| 1)),
        checkpoint_path,
        resume: parsed.has_flag("resume"),
        ..opts.dbtf_config(parsed)?
    };
    let trace_out = parsed.get_str("trace-out");
    let output = parsed.get_str("output");
    parsed.reject_unread()?;

    let x = tio::read_tensor_file(&input)?;
    let backend = opts.boot()?;
    let tracer = trace_out.map_or_else(Tracer::disabled, |_| Tracer::enabled());
    let result = match &backend {
        Backend::Cluster(b) => factorize_instrumented(b, &x, &config, &tracer)?.0,
        Backend::Local(b) => factorize_instrumented(b, &x, &config, &tracer)?.0,
        Backend::Net(b) => factorize_instrumented(b, &x, &config, &tracer)?.0,
    };
    write_trace(&tracer, trace_out)?;
    println!(
        "factorized {:?} at rank {}: |X ⊕ X̃| = {} ({:.2}% of |X|), {} iterations{}",
        x,
        config.rank,
        result.error,
        100.0 * result.relative_error,
        result.iterations,
        if result.converged { " (converged)" } else { "" }
    );
    backend.report(&result.stats.comm, Some(&config));
    write_factors(
        output,
        [&result.factors.a, &result.factors.b, &result.factors.c],
    )
}

/// Writes `A`, `B` and `C` to `PREFIX.{A,B,C}.txt` when `--output` gave a
/// prefix.
fn write_factors(prefix: Option<&str>, factors: [&BitMatrix; 3]) -> CliResult {
    let Some(prefix) = prefix else { return Ok(()) };
    for (name, m) in ["A", "B", "C"].into_iter().zip(factors) {
        let path = format!("{prefix}.{name}.txt");
        matrix_io::write_matrix_file(m, &path)?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `dbtf worker --connect ADDR --id N [--incarnation N]`: the networked
/// worker process. `--backend net` drivers spawn this subcommand (via
/// [`dbtf_cluster::WorkerHost::Process`]) once per worker and again on
/// every respawn; it connects back to the driver, registers the same task
/// bodies the driver schedules (see `dbtf::net_tasks`), and serves
/// supersteps until told to exit or killed.
fn cmd_worker(parsed: &ParsedArgs) -> CliResult {
    let addr: std::net::SocketAddr = parsed.require("connect")?;
    let id: usize = parsed.require("id")?;
    let incarnation: u64 = parsed.get("incarnation", 0)?;
    parsed.reject_unread()?;
    dbtf_cluster::worker_main(addr, id, incarnation, dbtf::net_tasks::build_registry())?;
    Ok(())
}

fn cmd_tucker(parsed: &ParsedArgs) -> CliResult {
    let input: String = parsed.require("input")?;
    let config = TuckerConfig {
        ranks: parsed.require_triple("ranks")?,
        max_iters: parsed.get("iters", 10)?,
        initial_sets: parsed.get("sets", 1)?,
        seed: parsed.get("seed", 0)?,
    };
    let output = parsed.get_str("output");
    // Core ranks past the distributed driver's limit run the sequential
    // reference, the only implementation there, which has no backend.
    let (opts, trace_out) = if config.ranks.iter().any(|&r| r > MAX_DISTRIBUTED_RANK) {
        parsed.reject_unread().map_err(|ArgError(msg)| {
            ArgError(format!(
                "{msg}: core ranks above {MAX_DISTRIBUTED_RANK} run the sequential \
                 Tucker, which takes no backend options"
            ))
        })?;
        (None, None)
    } else {
        let opts = BackendOptions::parse(parsed)?;
        // Tucker's supersteps are plain closures (its broadcast tuples have
        // no registered wire codecs), so they cannot cross a process boundary.
        if opts.kind == BackendKind::Net {
            return Err(Box::new(ArgError(
                "tucker supports --backend cluster|local only \
                 (its tasks are not wire-encodable)"
                    .into(),
            )));
        }
        let trace_out = parsed.get_str("trace-out");
        parsed.reject_unread()?;
        (Some(opts), trace_out)
    };

    let x = tio::read_tensor_file(&input)?;
    let backend = opts.map(BackendOptions::boot).transpose()?;
    let tracer = trace_out.map_or_else(Tracer::disabled, |_| Tracer::enabled());
    let result = match &backend {
        None => tucker_factorize(&x, &config)?,
        Some(Backend::Cluster(b)) => {
            tucker_factorize_distributed_instrumented(b, &x, &config, &tracer)?.0
        }
        Some(Backend::Local(b)) => {
            tucker_factorize_distributed_instrumented(b, &x, &config, &tracer)?.0
        }
        Some(Backend::Net(_)) => unreachable!("refused above"),
    };
    write_trace(&tracer, trace_out)?;
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
    if let Some(backend) = &backend {
        backend.report(&backend.metrics(), None);
    }
    let f = &result.factorization;
    write_factors(output, [&f.a, &f.b, &f.c])?;
    if let Some(prefix) = output {
        let core_path = format!("{prefix}.core.txt");
        tio::write_tensor_file(&f.core, &core_path)?;
        println!("wrote {core_path}");
    }
    Ok(())
}

fn cmd_select_rank(parsed: &ParsedArgs) -> CliResult {
    let input: String = parsed.require("input")?;
    let candidates: Vec<usize> = parsed.require_list("candidates", None)?;
    let opts = BackendOptions::parse(parsed)?;
    let base = DbtfConfig {
        initial_sets: parsed.get("sets", 4)?,
        seed: parsed.get("seed", 0)?,
        backend: opts.kind,
        ..DbtfConfig::default()
    };
    parsed.reject_unread()?;

    let x = tio::read_tensor_file(&input)?;
    let backend = opts.boot()?;
    let selection = match &backend {
        Backend::Cluster(b) => select_rank(b, &x, &candidates, &base)?,
        Backend::Local(b) => select_rank(b, &x, &candidates, &base)?,
        Backend::Net(b) => select_rank(b, &x, &candidates, &base)?,
    };
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
    backend.report(&backend.metrics(), None);
    Ok(())
}

fn cmd_generate(parsed: &ParsedArgs) -> CliResult {
    let kind = parsed.command.get(1).map(String::as_str);
    if !matches!(kind, Some("random" | "planted" | "proxy")) {
        return Err(Box::new(ArgError(format!(
            "generate needs a kind (random|planted|proxy), got {kind:?}"
        ))));
    }
    let seed: u64 = parsed.get("seed", 0)?;
    let path: String = parsed.require("output")?;
    let binary = parsed.has_flag("binary") || path.ends_with(".dbtf");
    let tensor = match kind {
        Some("random") => {
            // Streamed straight to the output file: the entries go from the
            // gap sampler into the writer one at a time, so generating a
            // tensor far larger than memory works — and the bytes are
            // identical to materializing and saving (the sampler and the
            // writer both use strictly increasing lexicographic order).
            let dims = parsed.require_triple("dims")?;
            let density: f64 = parsed.require("density")?;
            parsed.reject_unread()?;
            let mut writer = tio::StreamingTensorWriter::create(&path, dims, binary)?;
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
            let config = PlantedConfig {
                dims: parsed.require_triple("dims")?,
                rank: parsed.require("rank")?,
                factor_density: parsed.require("factor-density")?,
                noise: NoiseSpec {
                    additive: parsed.get("additive", 0.0)?,
                    destructive: parsed.get("destructive", 0.0)?,
                },
                seed,
            };
            parsed.reject_unread()?;
            PlantedTensor::generate(config).tensor
        }
        _ => {
            let name: String = parsed.require("name")?;
            let scale = parsed.get("scale", 0.01)?;
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
            parsed.reject_unread()?;
            generate_proxy(&spec, scale, seed)
        }
    };
    if binary {
        tio::write_tensor_binary_file(&tensor, &path)?;
    } else {
        tio::write_tensor_file(&tensor, &path)?;
    }
    println!("wrote {tensor:?} to {path}");
    Ok(())
}

/// Writes the tracer's finished log to `--trace-out`, if given, as Chrome
/// trace-event JSON.
fn write_trace(tracer: &Tracer, trace_out: Option<&str>) -> CliResult {
    if let Some(path) = trace_out {
        let mut buf = Vec::new();
        write_chrome_trace(&tracer.finish(), &mut buf)?;
        std::fs::write(path, buf)?;
        println!("wrote {path}");
    }
    Ok(())
}
