//! The end-to-end pass: the real `dbtf` binary as subprocesses, tracing
//! off. Every workload reports the same five metrics: the latency of its
//! user-facing operation (a `dbtf factorize` job, or one read against
//! `dbtf serve`), the wall time of its batch job, the job's or server's
//! peak RSS, its set-up time, and the relative error of the factors it
//! computes or serves.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dbtf::{Checkpoint, FactorSet};
use dbtf_serve::{FactorStore, Request, ServeClient, SourceKind};
use dbtf_tensor::{io as tio, BoolTensor};
use rand::rngs::StdRng;
use rand::Rng;

use crate::check::{factorize_error, update_report, Oracle};
use crate::gen;
use crate::loadgen::{self, Sink};
use crate::proc::{self, Exit};
use crate::report::Run;
use crate::stats::median;
use crate::workloads::{Kind, Workload};

/// Where and how one workload pass runs.
pub struct Ctx {
    pub dbtf: PathBuf,
    pub work: PathBuf,
    /// Where traces and `ledger.json` go.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl Ctx {
    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.out.join(format!("{workload}.trace.json"))
    }

    /// Runs `dbtf args` in the work directory, whatever its exit code.
    pub fn run(&self, args: &[String]) -> Result<Exit, String> {
        proc::run(&self.dbtf, args, &self.work)
            .map_err(|e| format!("cannot run {}: {e}", self.dbtf.display()))
    }

    /// Runs `dbtf args`, which must succeed.
    pub fn dbtf(&self, args: &[String]) -> Result<Exit, String> {
        let exit = self.run(args)?;
        if exit.ok() {
            Ok(exit)
        } else {
            Err(format!(
                "dbtf {} exited with {:?}: {}",
                args.first().map_or("", String::as_str),
                exit.code,
                exit.stderr.trim()
            ))
        }
    }

    /// Replies a serve phase must check against the oracle.
    pub fn min_checked(&self) -> usize {
        if self.smoke {
            100
        } else {
            1000
        }
    }

    /// How many distinct factorize seeds a `cp-*` pass cycles through. One
    /// job's relative error moves with its initial factor sets (from 0.21
    /// to 0.51 of |X| on one `cp-ooc-net` tensor); the mean over 16 moves
    /// by about a tenth of itself between input seeds.
    fn factorize_seeds(&self) -> usize {
        if self.smoke {
            4
        } else {
            16
        }
    }

    /// The `dbtf factorize --seed` of job `n` of the pass.
    pub fn factorize_seed(&self, n: usize) -> u64 {
        let n = (n % self.factorize_seeds()) as u64;
        self.seed.wrapping_mul(1000).wrapping_add(n)
    }
}

fn args(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

/// `dbtf factorize` arguments for `w` on `input`, with factorize seed
/// `seed`.
fn factorize_args(w: &Workload, input: &Path, seed: u64) -> Vec<String> {
    let f = &w.factorize;
    let mut a = args(&["factorize", "--input"]);
    a.push(input.display().to_string());
    for (flag, value) in [
        ("--rank", f.rank.to_string()),
        ("--sets", f.sets.to_string()),
        ("--iters", f.iters.to_string()),
        ("--workers", f.workers.to_string()),
        ("--backend", f.backend.to_string()),
        ("--storage", f.storage.to_string()),
        ("--seed", seed.to_string()),
    ] {
        a.push(flag.into());
        a.push(value);
    }
    a
}

/// Writes `x` to `x.dbtf`, the file every job reads; returns the seconds
/// that took, the set-up the cp workloads time. Generating `x` stays out:
/// `add_noise` tops up each collision among its added cells with a merge
/// over all of |X|, so its time swings by half between seeds. The old file
/// is unlinked first (untimed): ext4 flushes a file truncated and rewritten
/// in place when it is closed, which would put disk writeback into the
/// set-up time and beside the next timed job.
fn write_input(x: &BoolTensor, ctx: &Ctx) -> Result<f64, String> {
    let _ = std::fs::remove_file(ctx.path("x.dbtf"));
    let t0 = Instant::now();
    tio::write_tensor_binary_file(x, ctx.path("x.dbtf"))
        .map_err(|e| format!("write input: {e}"))?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Generates the workload tensor and writes it to `x.dbtf`; returns it,
/// its planted factors, and the seconds the write took.
fn build_input(w: &Workload, ctx: &Ctx) -> Result<(BoolTensor, FactorSet, f64), String> {
    let (x, truth) = gen::planted(&w.tensor, ctx.seed);
    let secs = write_input(&x, ctx)?;
    Ok((x, truth, secs))
}

pub fn run(w: &Workload, ctx: &Ctx) -> Result<Run, String> {
    if w.kind.serves() {
        serving(w, ctx)
    } else {
        cp(w, ctx)
    }
}

/// Reads the factors a factorize run wrote.
fn read_factors(ctx: &Ctx, checkpoint: bool) -> Result<FactorSet, String> {
    if checkpoint {
        return Checkpoint::read(&ctx.path("ck"))
            .map(|ck| ck.factors)
            .map_err(|e| e.to_string());
    }
    let m = |n: &str| {
        let path = ctx.path(&format!("f.{n}.txt"));
        dbtf_tensor::matrix_io::read_matrix_file(&path)
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    Ok(FactorSet {
        a: m("A")?,
        b: m("B")?,
        c: m("C")?,
    })
}

/// The factor files' bytes, compared across repetitions.
fn factor_bytes(ctx: &Ctx, checkpoint: bool) -> Vec<u8> {
    let names: &[&str] = if checkpoint {
        &["ck"]
    } else {
        &["f.A.txt", "f.B.txt", "f.C.txt"]
    };
    names
        .iter()
        .flat_map(|n| std::fs::read(ctx.path(n)).unwrap_or_default())
        .collect()
}

/// What the first job of one factorize seed printed and wrote; every later
/// job of that seed must repeat it bit for bit.
struct Reference {
    error: u64,
    bits: Vec<u8>,
}

/// Reads back the factors the job just wrote and requires them to give
/// the error it printed.
fn reference(
    w: &Workload,
    ctx: &Ctx,
    x: &BoolTensor,
    checkpoint: bool,
    exit: &Exit,
) -> Result<(Reference, FactorSet), String> {
    let error = factorize_error(&exit.stdout)?;
    let factors = read_factors(ctx, checkpoint)?;
    if factors.error(x) as u64 != error {
        return Err(format!(
            "{}: reloaded factors give |X ⊕ X̃| = {}, the CLI reported {error}",
            w.name,
            factors.error(x)
        ));
    }
    let bits = factor_bytes(ctx, checkpoint);
    Ok((Reference { error, bits }, factors))
}

fn cp(w: &Workload, ctx: &Ctx) -> Result<Run, String> {
    let (x, _, first_setup) = build_input(w, ctx)?;
    let mut setup = vec![first_setup];
    let checkpoint = w.kind == Kind::CpOocNet;
    let job = |n: usize| {
        let mut a = factorize_args(w, &ctx.path("x.dbtf"), ctx.factorize_seed(n));
        if checkpoint {
            a.extend(args(&["--spill-dir", "spill", "--checkpoint", "ck"]));
        } else {
            a.extend(args(&["--output", "f"]));
        }
        a
    };
    if checkpoint {
        std::fs::create_dir_all(ctx.path("spill")).map_err(|e| e.to_string())?;
    }

    // One untimed warm-up on the first factorize seed.
    let warm = ctx.dbtf(&job(0))?;
    let (first, warm_factors) = reference(w, ctx, &x, checkpoint, &warm)?;
    if checkpoint {
        // The networked, out-of-core run must equal the plain in-process
        // local run on the heap.
        let local = crate::traced::factorize_local(w, ctx.factorize_seed(0), &x)?;
        if local.error != first.error || local.factors != warm_factors {
            return Err(format!(
                "{}: net/mmap factors differ from the in-process local/ram run",
                w.name
            ));
        }
    }
    let mut refs = vec![first];

    let mut runs: Vec<Exit> = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while runs.len() < ctx.factorize_seeds() || start.elapsed().as_secs_f64() < ctx.seconds {
        // A set-up before every other job spreads the set-ups over the
        // whole window, so their median sees the same host as the jobs'.
        let n = runs.len();
        if n % 2 == 1 {
            setup.push(write_input(&x, ctx)?);
        }
        let exit = ctx.run(&job(n))?;
        if !exit.ok() {
            failed += 1;
            if failed > 3 {
                return Err(format!(
                    "{}: factorize keeps failing: {}",
                    w.name,
                    exit.stderr.trim()
                ));
            }
            continue;
        }
        match refs.get(n % ctx.factorize_seeds()) {
            Some(r) => {
                if factorize_error(&exit.stdout)? != r.error
                    || factor_bytes(ctx, checkpoint) != r.bits
                {
                    return Err(format!(
                        "{}: job {} changed the factors of its seed",
                        w.name,
                        n + 1
                    ));
                }
            }
            None => refs.push(reference(w, ctx, &x, checkpoint, &exit)?.0),
        }
        runs.push(exit);
    }

    let wall: Vec<f64> = runs.iter().map(|e| e.wall_s).collect();
    let rss: Vec<f64> = runs.iter().map(|e| e.maxrss_mib).collect();
    let errors: u64 = refs.iter().map(|r| r.error).sum();
    let mut run = Run {
        attempted: runs.len() as u64 + failed + 1,
        failed,
        ..Run::default()
    };
    run.put("op_p50_ms", "ms", median(&wall) * 1e3);
    run.put("job_s", "s", median(&wall));
    run.put("peak_rss_mib", "MiB", median(&rss));
    run.put("setup_s", "s", median(&setup));
    run.put(
        "relative_error",
        "ratio",
        errors as f64 / refs.len() as f64 / x.nnz() as f64,
    );
    Ok(run)
}

/// Writes `factors` to the checkpoint `ck`, which `dbtf export-factors`
/// turns into a store.
pub fn write_checkpoint(ctx: &Ctx, x: &BoolTensor, factors: &FactorSet) -> Result<(), String> {
    let error = factors.error(x) as u64;
    Checkpoint {
        iteration: 1,
        error,
        iteration_errors: vec![error],
        factors: factors.clone(),
    }
    .write(&ctx.path("ck"))
    .map_err(|e| e.to_string())
}

/// Generates the serving tensor and writes it to `x.dbtf`, and its planted
/// factors, the set the workload serves, to the checkpoint `ck` (untimed).
/// The factorize workloads cover how well `dbtf` finds factors; serving
/// the planted ones keeps the served set's error, and with it the work of
/// every query, nearly the same on every seed.
fn prepare_serving(w: &Workload, ctx: &Ctx) -> Result<(BoolTensor, FactorSet), String> {
    let (x, truth, _) = build_input(w, ctx)?;
    write_checkpoint(ctx, &x, &truth)?;
    Ok((x, truth))
}

/// A running `dbtf serve` and what setting it up took.
pub struct Started {
    pub server: proc::Server,
    /// The admin connection: `info`, `stats`, closed-loop checks, drain.
    pub admin: ServeClient,
    /// The `dbtf export-factors` that wrote its store.
    pub export: Exit,
    /// Seconds from the server's exec to its first answered `info`.
    pub setup_s: f64,
}

/// The serving set-up: export the checkpoint `ck` to the store `store`
/// (set version 1), then spawn `dbtf serve` on it with the workload's
/// cache, on an ephemeral port, mmap source, and wait for the first
/// answered `info`.
pub fn start_server(w: &Workload, ctx: &Ctx, store: &str) -> Result<Started, String> {
    let export = ctx.dbtf(&args(&[
        "export-factors",
        "--checkpoint",
        "ck",
        "--output",
        store,
        "--set-version",
        "1",
    ]))?;
    let t0 = Instant::now();
    let mut serve = args(&["serve", "--store", store, "--addr", "127.0.0.1:0"]);
    serve.extend(args(&["--source", "mmap", "--cache-fibers"]));
    serve.push(w.serve.cache_fibers.to_string());
    let server = proc::Server::spawn(&ctx.dbtf, &serve, &ctx.work)?;
    let mut admin = ServeClient::connect(server.addr).map_err(|e| e.to_string())?;
    let info = admin.info().map_err(|e| format!("info: {e:?}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    if info.set_version != 1 {
        return Err(format!("server reports set version {}", info.set_version));
    }
    Ok(Started {
        server,
        admin,
        export,
        setup_s,
    })
}

/// Asks the server to drain, then reaps it.
pub fn drain(server: proc::Server, mut admin: ServeClient) -> Result<Exit, String> {
    admin.shutdown().map_err(|e| format!("shutdown: {e:?}"))?;
    drop(admin);
    let exit = server.wait(Duration::from_secs(10))?;
    if !exit.ok() {
        return Err(format!(
            "serve exited with {:?}: {}",
            exit.code,
            exit.stderr.trim()
        ));
    }
    Ok(exit)
}

/// The read stream of a phase: requests, their lines, and which replies
/// to keep for the oracle (`keep_share` of them, seeded).
pub struct Stream {
    pub requests: Vec<Request>,
    pub lines: Vec<String>,
    pub keep: Vec<bool>,
}

impl Stream {
    pub fn new(w: &Workload, dims: [usize; 3], seed: u64, count: usize, keep_share: f64) -> Stream {
        let requests = gen::queries(seed, dims, w.serve.keys, count);
        let lines = requests
            .iter()
            .enumerate()
            .map(|(n, r)| gen::encode(r, n as u64))
            .collect();
        let mut rng = gen::rng(seed, 5);
        let keep = (0..count).map(|_| rng.gen::<f64>() < keep_share).collect();
        Stream {
            requests,
            lines,
            keep,
        }
    }
}

/// A serving workload: one read phase and, every period beside it, a
/// chained update (on `update-reload`) and an extra set-up, then every
/// gate.
fn serving(w: &Workload, ctx: &Ctx) -> Result<Run, String> {
    let (x, factors) = prepare_serving(w, ctx)?;
    let dims = x.dims();
    let mut nnz = x.nnz();
    let Started {
        server,
        mut admin,
        export,
        setup_s,
    } = start_server(w, ctx, "store1.dbtfs")?;
    let mut setup = vec![setup_s];
    let mut exports = vec![export.wall_s];
    let served = FactorStore::open(&ctx.path("store1.dbtfs"), SourceKind::Ram)
        .map_err(|e| e.to_string())?
        .to_factor_set();
    if served != factors {
        return Err(format!(
            "{}: the exported store differs from its checkpoint",
            w.name
        ));
    }
    let mut error = factors.error(&x) as u64;

    // Warm the cache with a stream the phase does not reuse.
    let warm = Stream::new(w, dims, ctx.seed ^ 0x77, (w.serve.rate * 0.5) as usize, 0.0);
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    let warm_out = loadgen::run(server.addr, &warm.lines, w.serve.rate, &warm.keep, &sink)
        .map_err(|e| format!("warm-up: {e}"))?;

    let count = (w.serve.rate * ctx.seconds) as usize;
    // Keep about three times the replies the gate needs: on
    // `update-reload` only those in stable generation windows count.
    let keep_share = (3.0 * ctx.min_checked() as f64 / count as f64).min(1.0);
    let stream = Stream::new(w, dims, ctx.seed, count, keep_share);
    let mut oracle = Oracle::new(factors.clone());
    let mut checked = 0usize;
    let mut updates: Vec<Exit> = Vec::new();
    let mut failed_updates = 0usize;

    let mut chain = (w.kind == Kind::UpdateReload).then(|| Chain {
        x,
        factors,
        error,
        version: 1,
        rng: gen::rng(ctx.seed, 11),
        stable_since: Instant::now(),
    });
    let outcome = std::thread::scope(|scope| -> Result<loadgen::Outcome, String> {
        let phase = scope.spawn(|| {
            loadgen::run(
                server.addr,
                &stream.lines,
                w.serve.rate,
                &stream.keep,
                &sink,
            )
        });
        let period = Duration::from_secs_f64(w.serve.period_s);
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(ctx.seconds);
        let mut next = start + period / 2;
        while next + Duration::from_secs_f64(0.5) < end {
            if let Some(wait) = next.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if let Some(chain) = chain.as_mut() {
                checked += chain.check_window(&oracle, &stream, &sink, Instant::now())?;
                match chain.update(w, ctx, &server.addr, &mut admin)? {
                    Ok((exit, next_oracle)) => {
                        oracle = next_oracle;
                        updates.push(exit);
                    }
                    // Which generation is serving is now unknown: count
                    // the failure and stop writing.
                    Err(_) => {
                        failed_updates += 1;
                        break;
                    }
                }
            }
            // Set-ups spread over the phase, so their median sees the
            // same host as the phase's operations.
            let extra = start_server(w, ctx, "setup.dbtfs")?;
            setup.push(extra.setup_s);
            exports.push(extra.export.wall_s);
            drain(extra.server, extra.admin)?;
            next += period;
        }
        let outcome = phase
            .join()
            .expect("phase thread")
            .map_err(|e| e.to_string())?;
        match &chain {
            Some(chain) if failed_updates == 0 => {
                checked += chain.check_window(&oracle, &stream, &sink, Instant::now())?;
            }
            Some(_) => {}
            None => {
                for s in loadgen::drain(&sink) {
                    oracle.check(&stream.requests[s.index], &s.reply)?;
                    checked += 1;
                }
            }
        }
        Ok(outcome)
    })?;

    if checked < ctx.min_checked() && failed_updates == 0 {
        return Err(format!("{}: only {checked} replies were checkable", w.name));
    }
    let exit = drain(server, admin)?;
    if outcome.latency_us.is_empty() {
        return Err(format!("{}: no replies", w.name));
    }

    let mut run = Run {
        attempted: (outcome.sent + warm_out.sent + updates.len() + failed_updates) as u64,
        failed: (outcome.failed() + warm_out.failed() + failed_updates) as u64,
        ..Run::default()
    };
    run.put("op_p50_ms", "ms", median(&outcome.latency_us) / 1e3);
    let (job_s, rss_mib) = match &chain {
        Some(chain) => {
            if updates.is_empty() {
                return Err(format!("{}: no update fit in {} s", w.name, ctx.seconds));
            }
            (error, nnz) = (chain.error, chain.x.nnz());
            let wall: Vec<f64> = updates.iter().map(|e| e.wall_s).collect();
            let rss: Vec<f64> = updates.iter().map(|e| e.maxrss_mib).collect();
            (median(&wall), median(&rss))
        }
        None => (median(&exports), exit.maxrss_mib),
    };
    run.put("job_s", "s", job_s);
    run.put("peak_rss_mib", "MiB", rss_mib);
    run.put("setup_s", "s", median(&setup));
    run.put("relative_error", "ratio", error as f64 / nnz as f64);
    Ok(run)
}

/// The `update-reload` write chain: the benchmark's copy of the tensor
/// and factors, advanced one bounded delta at a time.
struct Chain {
    x: BoolTensor,
    factors: FactorSet,
    /// `|X ⊕ X̃|` of the serving generation.
    error: u64,
    version: u64,
    rng: StdRng,
    /// When the serving generation last changed (update process reaped).
    stable_since: Instant,
}

impl Chain {
    /// Checks the kept replies that are unambiguous for the current
    /// generation: sent after it went live and read before `until`.
    fn check_window(
        &self,
        oracle: &Oracle,
        stream: &Stream,
        sink: &Sink,
        until: Instant,
    ) -> Result<usize, String> {
        let mut checked = 0;
        for s in loadgen::drain(sink) {
            if s.received <= until && s.scheduled >= self.stable_since {
                oracle.check(&stream.requests[s.index], &s.reply)?;
                checked += 1;
            }
        }
        Ok(checked)
    }

    /// One `dbtf update --reload`, then the untimed follow-up: gates,
    /// the benchmark's tensor copy, and 200 closed-loop oracle checks.
    /// The inner `Err` is a failed update process (counted, not fatal).
    fn update(
        &mut self,
        w: &Workload,
        ctx: &Ctx,
        addr: &std::net::SocketAddr,
        admin: &mut ServeClient,
    ) -> Result<Result<(Exit, Oracle), Exit>, String> {
        let delta = gen::bounded_delta(&self.x, &self.factors, w.serve.delta_cells, &mut self.rng)
            .ok_or_else(|| format!("{}: no column pair admits a bounded delta", w.name))?;
        let affected = dbtf::affected_columns(&delta, &self.factors);
        if affected.len() != 2 {
            return Err(format!("delta touches {} columns, not 2", affected.len()));
        }
        let (cur, next) = (self.version, self.version + 1);
        std::fs::write(ctx.path("delta.txt"), delta.to_text()).map_err(|e| e.to_string())?;
        let mut a = args(&[
            "update",
            "--input",
            "x.dbtf",
            "--delta",
            "delta.txt",
            "--factors",
        ]);
        a.push(format!("store{cur}.dbtfs"));
        a.push("--output".into());
        a.push(format!("store{next}.dbtfs"));
        // One re-sweep round, so every update does the same work.
        a.extend(args(&[
            "--iters",
            "1",
            "--backend",
            "local",
            "--reload-source",
            "mmap",
            "--reload",
        ]));
        a.push(addr.to_string());
        a.push("--workers".into());
        a.push(w.factorize.workers.to_string());
        let exit = ctx.run(&a)?;
        self.stable_since = Instant::now();
        if !exit.ok() {
            eprintln!("ledger: {}: update failed: {}", w.name, exit.stderr.trim());
            return Ok(Err(exit));
        }

        let report = update_report(&exit.stdout)?;
        if report.post > report.pre || report.resweep as usize != affected.len() {
            return Err(format!("{}: bad update {report:?}", w.name));
        }
        if report.served_version != next {
            return Err(format!(
                "reload served v{}, wanted v{next}",
                report.served_version
            ));
        }
        let info = admin.info().map_err(|e| format!("info: {e:?}"))?;
        if info.set_version != next {
            return Err(format!(
                "info shows v{} after reload to v{next}",
                info.set_version
            ));
        }
        self.x = delta.apply(&self.x);
        write_input(&self.x, ctx)?;
        let _ = std::fs::remove_file(ctx.path(&format!("store{cur}.dbtfs")));
        self.factors = FactorStore::open(&ctx.path(&format!("store{next}.dbtfs")), SourceKind::Ram)
            .map_err(|e| e.to_string())?
            .to_factor_set();
        if self.factors.error(&self.x) as u64 != report.post {
            return Err(format!(
                "{}: updated factors disagree with the CLI error",
                w.name
            ));
        }
        self.error = report.post;
        self.version = next;
        let oracle = Oracle::new(self.factors.clone());
        let probe = gen::queries(ctx.seed ^ next, self.x.dims(), w.serve.keys, 200);
        oracle.check_live(admin, &probe)?;
        Ok(Ok((exit, oracle)))
    }
}
