//! The traced pass: every layer timed by calling its public functions
//! in-process, on the workload's own inputs, under `ledger.<layer>` phase
//! spans that the program's own spans nest into. A short live phase
//! against a real `dbtf serve` adds the server's counters.
//!
//! Task and kernel spans are tiled on the virtual axis, so their wall
//! stamps are ignored; only Run, Phase and Superstep spans are read.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dbtf::partition::{partition_unfolding, ModePartition};
use dbtf::{
    factorize_instrumented, update_factors, BackendKind, Checkpoint, DbtfConfig, DbtfResult,
    FactorSet, StorageKind, WorkState,
};
use dbtf_cluster::{ClusterConfig, ExecutionBackend, LocalBackend, NetTuning, WorkerHost};
use dbtf_serve::protocol::{self, parse_line};
use dbtf_serve::{FactorStore, QueryEngine, Request, ServeLimits, ServeMetrics, SourceKind};
use dbtf_telemetry::{write_chrome_trace, SpanKind, TraceLog, Tracer};
use dbtf_tensor::{
    io as tio, BitMatrix, BoolTensor, MmapUnfolding, Mode, OverlayUnfolding, TensorDelta, Unfolding,
};

use crate::check::Oracle;
use crate::e2e::{self, Ctx, Started, Stream};
use crate::gen;
use crate::loadgen::{self, Sink, Step};
use crate::report::Run;
use crate::stats::MeanNs;
use crate::workloads::Workload;

/// The superstep labels whose wall/virtual ratio the ledger calibrates.
const SUPERSTEPS: [&str; 4] = [
    "cp.update.begin",
    "cp.update.sweep",
    "cp.update.finish",
    "unfold.organize",
];

/// Exact counters copied from the traced local run.
const EXEC_COUNTERS: [&str; 6] = [
    "exec.supersteps",
    "exec.tasks_run",
    "exec.total_ops",
    "net.bytes_shuffled",
    "net.bytes_broadcast",
    "net.bytes_collected",
];

/// Wire counters copied from the traced net run.
const WIRE_COUNTERS: [&str; 3] = [
    "net.wire_bytes_sent",
    "net.wire_bytes_received",
    "net.wire_overhead_bytes",
];

fn cluster_config(w: &Workload) -> ClusterConfig {
    ClusterConfig {
        workers: w.factorize.workers,
        ..ClusterConfig::paper_cluster()
    }
}

/// The configuration `dbtf factorize` builds from the workload's flags.
fn config(w: &Workload, seed: u64, backend: BackendKind) -> DbtfConfig {
    DbtfConfig {
        rank: w.factorize.rank,
        max_iters: w.factorize.iters,
        initial_sets: w.factorize.sets,
        seed,
        backend,
        storage: StorageKind::Ram,
        ..DbtfConfig::default()
    }
}

/// The plain in-process run: local backend, heap unfoldings, no tracing.
pub fn factorize_local(w: &Workload, seed: u64, x: &BoolTensor) -> Result<DbtfResult, String> {
    let backend = LocalBackend::from_cluster_config(&cluster_config(w));
    factorize_instrumented(
        &backend,
        x,
        &config(w, seed, BackendKind::Local),
        &Tracer::disabled(),
    )
    .map(|(r, _)| r)
    .map_err(|e| e.to_string())
}

/// Opens `ledger.<layer>` phase spans on one tracer. Their virtual stamps
/// come from the traced run's backend, so in the Chrome trace they enclose
/// the program's own spans.
struct Ledger<'a> {
    tracer: Tracer,
    backend: &'a LocalBackend,
}

impl Ledger<'_> {
    /// Runs `f` under a phase span; returns its result and wall seconds.
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let virtual_now = || self.backend.metrics().virtual_time.as_secs_f64();
        let id = self.tracer.begin(SpanKind::Phase, name, virtual_now());
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.tracer.end(id, virtual_now());
        (out, secs)
    }
}

pub fn run(w: &Workload, ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let x_path = ctx.path("x.dbtf");
    let (built, truth) = gen::planted(&w.tensor, ctx.seed);
    tio::write_tensor_binary_file(&built, &x_path).map_err(|e| e.to_string())?;
    drop(built);
    let seed = ctx.factorize_seed(0);
    let backend = LocalBackend::from_cluster_config(&cluster_config(w));
    let cfg = config(w, seed, BackendKind::Local);
    let ledger = Ledger {
        tracer: Tracer::enabled(),
        backend: &backend,
    };

    // ---- The traced in-process end-to-end: read → factorize →
    // checkpoint → store. Its layers should sum to its wall time.
    let e2e_start = Instant::now();
    let (x, read_s) = ledger.span("ledger.tensor.read", || {
        tio::read_tensor_binary_file(&x_path)
    });
    let x = x.map_err(|e| e.to_string())?;
    let (result, traced_s) = ledger.span("ledger.cluster.factorize", || {
        factorize_instrumented(&backend, &x, &cfg, &ledger.tracer)
    });
    let result = result.map_err(|e| e.to_string())?.0;
    let ck = Checkpoint {
        iteration: result.iterations,
        error: result.error,
        iteration_errors: result.iteration_errors.clone(),
        factors: result.factors.clone(),
    };
    let ck_path = ctx.path("ck");
    let (written, ck_s) = ledger.span("ledger.core.checkpoint", || ck.write(&ck_path));
    written.map_err(|e| e.to_string())?;
    let store_path = ctx.path("store1.dbtfs");
    let (written, store_write_s) = ledger.span("ledger.serve.store_write", || {
        FactorStore::write_store(&store_path, 1, &result.factors)
    });
    written.map_err(|e| e.to_string())?;
    let e2e_s = e2e_start.elapsed().as_secs_f64();
    let factors = result.factors.clone();
    if factors.error(&x) as u64 != result.error {
        return Err(format!(
            "{}: traced factors disagree with their error",
            w.name
        ));
    }

    run.put("tensor.read_s", "s", read_s);
    run.put("tensor.read_bytes", "bytes", file_len(&x_path));
    run.put("core.checkpoint_write_s", "s", ck_s);
    run.put("core.checkpoint_bytes", "bytes", file_len(&ck_path));
    run.put("serve.store.write_s", "s", store_write_s);

    let log = ledger.tracer.finish();
    let cluster = cluster_layers(&log, &mut run)?;
    run.put(
        "ledger.layer_sum_ratio",
        "ratio",
        (read_s + cluster.distribute_s + cluster.iterations_s + ck_s + store_write_s) / e2e_s,
    );
    for name in EXEC_COUNTERS {
        let unit = if name.starts_with("net.") {
            "bytes"
        } else {
            "count"
        };
        run.put(name, unit, counter(&log, name)?);
    }

    // ---- Tracing overhead and the wire: the same factorize untraced,
    // and traced on the two-worker net backend.
    let (untraced, untraced_s) = timed(|| factorize_local(w, seed, &x));
    if untraced?.factors != factors {
        return Err("untraced factorize differs from the traced one".into());
    }
    run.put("telemetry.overhead_ratio", "ratio", traced_s / untraced_s);
    let (net, _) = ledger.span("ledger.wire.factorize_net", || {
        factorize_net(w, ctx, &x, &factors)
    });
    let (net_log, net_s) = net?;
    for name in WIRE_COUNTERS {
        run.put(name, "bytes", counter(&net_log, name)?);
    }
    run.put("wire.net_minus_local_s", "s", net_s - traced_s);

    // ---- Tensor and core layers, one call each per mode.
    let (unfoldings, unfold_s) = ledger.span("ledger.tensor.unfold", || {
        Mode::ALL.map(|mode| Unfolding::new(&x, mode))
    });
    run.put("tensor.unfold_s", "s", unfold_s);
    spill_layer(&ledger, ctx, &unfoldings, &mut run)?;
    let n_parts = backend.suggested_partitions();
    let (parts, partition_s) = ledger.span("ledger.core.partition", || {
        unfoldings
            .each_ref()
            .map(|u| partition_unfolding(u, n_parts))
    });
    run.put("core.partition_s", "s", partition_s);
    run.put(
        "core.partition_bytes",
        "bytes",
        parts
            .iter()
            .flatten()
            .map(ModePartition::byte_size)
            .sum::<u64>() as f64,
    );
    let (probe, _) = ledger.span("ledger.core.kernel_probe", || {
        kernel_probe(&parts, &factors, cfg.cache_group_limit)
    });
    probe.put(&mut run);
    drop(parts);

    // What the rest of the pass updates and serves: the set the workload's
    // end-to-end pass serves (the planted factors) on the serving
    // workloads, the factorize result elsewhere.
    let served = if w.kind.serves() {
        e2e::write_checkpoint(ctx, &x, &truth)?;
        FactorStore::write_store(&store_path, 1, &truth).map_err(|e| e.to_string())?;
        truth
    } else {
        factors
    };

    // ---- Deltas: parse, overlay, bounded re-sweep.
    let delta = gen::bounded_delta(
        &x,
        &served,
        w.serve.delta_cells,
        &mut gen::rng(ctx.seed, 13),
    )
    .ok_or_else(|| format!("{}: no bounded delta", w.name))?;
    let text = delta.to_text();
    let (parsed, parse_s) = ledger.span("ledger.tensor.delta_parse", || {
        TensorDelta::parse(&text, x.dims())
    });
    let parsed = parsed?;
    run.put("tensor.delta_parse_s", "s", parse_s);
    let (_, overlay_s) = ledger.span("ledger.tensor.overlay", || {
        unfoldings
            .each_ref()
            .map(|u| OverlayUnfolding::new(u, &parsed).patched_rows().len())
    });
    run.put("tensor.overlay_s", "s", overlay_s);
    drop(unfoldings);
    let update_cfg = DbtfConfig {
        rank: w.factorize.rank,
        max_iters: 1,
        backend: BackendKind::Local,
        ..DbtfConfig::default()
    };
    let update_backend = LocalBackend::from_cluster_config(&cluster_config(w));
    let (updated, update_s) = ledger.span("ledger.core.update_factors", || {
        update_factors(&update_backend, &x, &parsed, &served, &update_cfg)
    });
    let updated = updated.map_err(|e| e.to_string())?;
    if updated.error > updated.pre_error || updated.affected_columns.len() != 2 {
        return Err(format!(
            "{}: update touched {:?}, {} → {}",
            w.name, updated.affected_columns, updated.pre_error, updated.error
        ));
    }
    run.put("core.update_factors_s", "s", update_s);
    run.put(
        "core.affected_columns",
        "count",
        updated.affected_columns.len() as f64,
    );

    // ---- Serving layers in-process, then a live phase.
    let dims = x.dims();
    drop(x);
    serve_layers(
        &ledger,
        w,
        ctx,
        &store_path,
        &parsed,
        &updated.factors,
        dims,
        &mut run,
    )?;
    live_phase(w, ctx, dims, served, &mut run)?;

    write_trace(&ledger.tracer.finish(), &ctx.trace_path(w.name))?;
    Ok(run)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

fn counter(log: &TraceLog, name: &str) -> Result<f64, String> {
    log.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("trace has no counter {name}"))
}

fn write_trace(log: &TraceLog, path: &Path) -> Result<(), String> {
    let mut buf = Vec::new();
    write_chrome_trace(log, &mut buf).map_err(|e| e.to_string())?;
    std::fs::write(path, buf).map_err(|e| format!("{}: {e}", path.display()))
}

/// The factorize traced on the two-worker net backend (workers are
/// `dbtf worker` processes); returns its trace log and the wall seconds
/// of the factorize call, worker start-up excluded.
fn factorize_net(
    w: &Workload,
    ctx: &Ctx,
    x: &BoolTensor,
    want: &FactorSet,
) -> Result<(TraceLog, f64), String> {
    let host = WorkerHost::Process {
        program: ctx.dbtf.clone(),
        args: vec!["worker".into()],
    };
    let backend = dbtf::net_tasks::net_backend(cluster_config(w), host, NetTuning::default())
        .map_err(|e| e.to_string())?;
    let tracer = Tracer::enabled();
    let cfg = config(w, ctx.factorize_seed(0), BackendKind::Net);
    let (result, secs) = timed(|| factorize_instrumented(&backend, x, &cfg, &tracer));
    if &result.map_err(|e| e.to_string())?.0.factors != want {
        return Err("net backend factors differ from the local run".into());
    }
    Ok((tracer.finish(), secs))
}

/// Walls of the driver's phases, for the layer sum.
struct ClusterWalls {
    distribute_s: f64,
    iterations_s: f64,
}

/// Phase and superstep walls of the (single) traced factorize in `log`.
fn cluster_layers(log: &TraceLog, run: &mut Run) -> Result<ClusterWalls, String> {
    let wall = |kind: SpanKind, name: &str| -> f64 {
        log.spans
            .iter()
            .filter(|s| s.kind == kind && s.name == name)
            .map(|s| s.wall_secs())
            .sum()
    };
    let distribute_s = wall(SpanKind::Phase, "cp.distribute");
    let iterations_s = wall(SpanKind::Phase, "cp.iteration");
    if iterations_s <= 0.0 {
        return Err("trace has no cp.iteration phases".into());
    }
    run.put("cluster.phase.distribute_s", "s", distribute_s);
    run.put("cluster.phase.iterations_s", "s", iterations_s);
    let mut superstep_wall_in_iterations = 0.0;
    let in_iteration = ancestors_named(log, "cp.iteration");
    for label in SUPERSTEPS {
        let spans: Vec<_> = log
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Superstep && s.name == label)
            .collect();
        let wall_s: f64 = spans.iter().map(|s| s.wall_secs()).sum();
        let virtual_s: f64 = spans.iter().map(|s| s.virtual_secs()).sum();
        superstep_wall_in_iterations += spans
            .iter()
            .filter(|s| in_iteration(s.id))
            .map(|s| s.wall_secs())
            .sum::<f64>();
        run.put(format!("cluster.superstep.{label}.wall_s"), "s", wall_s);
        run.put(
            format!("cluster.superstep.{label}.virtual_s"),
            "s",
            virtual_s,
        );
        run.put(
            format!("cluster.superstep.{label}.wall_per_virtual"),
            "ratio",
            if virtual_s > 0.0 {
                wall_s / virtual_s
            } else {
                0.0
            },
        );
    }
    // Everything an iteration spends outside its supersteps: the driver's
    // reduces, decisions and broadcasts.
    run.put(
        "cluster.driver_s",
        "s",
        iterations_s - superstep_wall_in_iterations,
    );
    Ok(ClusterWalls {
        distribute_s,
        iterations_s,
    })
}

/// Whether span `id` lies under a span named `name`.
fn ancestors_named<'a>(log: &'a TraceLog, name: &'a str) -> impl Fn(u64) -> bool + 'a {
    move |mut id| {
        while let Some(span) = log.spans.iter().find(|s| s.id == id) {
            if span.name == name && span.kind == SpanKind::Phase {
                return true;
            }
            match span.parent {
                Some(p) => id = p,
                None => return false,
            }
        }
        false
    }
}

/// Spill each heap unfolding to a columnar file, then map it back.
fn spill_layer(
    ledger: &Ledger,
    ctx: &Ctx,
    unfoldings: &[Unfolding; 3],
    run: &mut Run,
) -> Result<(), String> {
    let paths = [0, 1, 2].map(|m| ctx.path(&format!("unfold{m}.dbtfu")));
    let (written, spill_s) = ledger.span("ledger.tensor.spill", || {
        unfoldings
            .iter()
            .zip(&paths)
            .try_for_each(|(u, p)| MmapUnfolding::write_from_store(u, p).map(|_| ()))
    });
    written.map_err(|e| e.to_string())?;
    let (opened, open_s) = ledger.span("ledger.tensor.mmap_open", || {
        paths
            .iter()
            .map(|p| MmapUnfolding::open(p))
            .collect::<Result<Vec<_>, _>>()
    });
    let opened = opened.map_err(|e| e.to_string())?;
    for (u, m) in unfoldings.iter().zip(&opened) {
        if m.header().nnz != u.nnz() as u64 {
            return Err("spilled unfolding lost entries".into());
        }
    }
    run.put("tensor.spill_s", "s", spill_s);
    run.put(
        "tensor.spill_bytes",
        "bytes",
        paths.iter().map(|p| file_len(p)).sum(),
    );
    run.put("tensor.mmap_open_s", "s", open_s);
    drop(opened);
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    Ok(())
}

/// Totals of one full UpdateFactor per mode, kernel by kernel.
#[derive(Default)]
struct Probe {
    build_s: f64,
    builds: u64,
    cache_bytes: u64,
    column_errors_s: f64,
    column_errors: u64,
    computed_bytes: u64,
    apply_s: f64,
    applies: u64,
    partition_error_s: f64,
}

impl Probe {
    fn put(&self, run: &mut Run) {
        run.put("core.cache_build_s", "s", self.build_s);
        run.put("core.cache_build.calls", "count", self.builds as f64);
        run.put("core.cache_bytes", "bytes", self.cache_bytes as f64);
        run.put("core.column_errors_s", "s", self.column_errors_s);
        run.put(
            "core.column_errors.calls",
            "count",
            self.column_errors as f64,
        );
        run.put(
            "core.column_errors.ns_per_call",
            "ns",
            self.column_errors_s * 1e9 / self.column_errors.max(1) as f64,
        );
        run.put(
            "core.column_errors.computed_bytes",
            "bytes",
            self.computed_bytes as f64 / self.column_errors.max(1) as f64,
        );
        run.put("core.apply_column_s", "s", self.apply_s);
        run.put("core.apply_column.calls", "count", self.applies as f64);
        run.put("core.partition_error_s", "s", self.partition_error_s);
    }
}

/// Partition index bytes one `column_errors(col)` call streams: the
/// blocks whose `M_f` row has `col` set, as CSR rows or, for blocks dense
/// enough for the bitmap path, as the bitmap. Computed, not measured.
fn streamed_bytes(part: &ModePartition, mf: &BitMatrix, col: usize) -> u64 {
    part.blocks
        .iter()
        .filter(|b| mf.get(b.slab, col))
        .map(|b| {
            let words = (b.inner_len as usize).div_ceil(64);
            if b.nnz() >= b.nrows() * words {
                (b.nrows() * words * 8) as u64
            } else {
                (b.nnz() * 4 + (b.nrows() + 1) * 4) as u64
            }
        })
        .sum()
}

/// One full UpdateFactor per mode on the real partitions with the run's
/// final factors: build, then R rounds of column scoring and applying,
/// then the partition error.
fn kernel_probe(parts: &[Vec<ModePartition>; 3], f: &FactorSet, v_limit: usize) -> Probe {
    // X_(1) ≈ A ∘ (C ⊙ B)ᵀ, X_(2) ≈ B ∘ (C ⊙ A)ᵀ, X_(3) ≈ C ∘ (B ⊙ A)ᵀ.
    let operands = [(&f.a, &f.c, &f.b), (&f.b, &f.c, &f.a), (&f.c, &f.b, &f.a)];
    let mut p = Probe::default();
    for (mode_parts, (a, mf, ms)) in parts.iter().zip(operands) {
        let columns: Vec<_> = (0..a.cols()).map(|c| a.column(c)).collect();
        for part in mode_parts {
            let t = Instant::now();
            let (mut state, _) = WorkState::build(part, a, mf, ms, v_limit);
            p.build_s += t.elapsed().as_secs_f64();
            p.builds += 1;
            p.cache_bytes += state.cache_bytes();
            for (col, values) in columns.iter().enumerate() {
                let t = Instant::now();
                std::hint::black_box(state.column_errors(part, col));
                p.column_errors_s += t.elapsed().as_secs_f64();
                p.column_errors += 1;
                p.computed_bytes += streamed_bytes(part, mf, col);
                let t = Instant::now();
                state.apply_column(col, values);
                p.apply_s += t.elapsed().as_secs_f64();
                p.applies += 1;
            }
            let t = Instant::now();
            std::hint::black_box(state.partition_error(part));
            p.partition_error_s += t.elapsed().as_secs_f64();
        }
    }
    p
}

/// Store open, protocol parse/format, engine queries (cached and not)
/// and an engine reload, over the workload's own query stream.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    ledger: &Ledger,
    w: &Workload,
    ctx: &Ctx,
    store_path: &Path,
    delta: &TensorDelta,
    updated: &FactorSet,
    dims: [usize; 3],
    run: &mut Run,
) -> Result<(), String> {
    let (store, open_s) = ledger.span("ledger.serve.store_open", || {
        FactorStore::open(store_path, SourceKind::Mmap)
    });
    let store = store.map_err(|e| e.to_string())?;
    run.put("serve.store.open_s", "s", open_s);
    let count = if ctx.smoke { 2_000 } else { 40_000 };
    let stream = Stream::new(w, dims, ctx.seed, count, 0.0);
    let limits = ServeLimits::default();

    let cached = QueryEngine::new(store, w.serve.cache_fibers, Arc::new(ServeMetrics::new()));
    let bypass = QueryEngine::new(
        FactorStore::open(store_path, SourceKind::Mmap).map_err(|e| e.to_string())?,
        0,
        Arc::new(ServeMetrics::new()),
    );
    let (calls, _) = ledger.span("ledger.serve.protocol_engine", || {
        let mut h = ServeCalls::default();
        for (line, request) in stream.lines.iter().zip(&stream.requests) {
            let t = Instant::now();
            let parsed = parse_line(line, &limits);
            h.parse.record(t.elapsed().as_nanos());
            std::hint::black_box(parsed);
            for (engine, calls) in [(&cached, &mut h.cached), (&bypass, &mut h.bypass)] {
                let t = Instant::now();
                let reply = answer(engine, request);
                calls[kind_index(request)].record(t.elapsed().as_nanos());
                let t = Instant::now();
                std::hint::black_box(format_reply(request, &reply));
                h.format.record(t.elapsed().as_nanos());
            }
        }
        h
    });
    run.put("serve.protocol.parse_ns", "ns", calls.parse.mean());
    run.put("serve.protocol.format_ns", "ns", calls.format.mean());
    for (n, kind) in ["point", "slice", "topk"].iter().enumerate() {
        run.put(
            format!("serve.engine.{kind}_ns"),
            "ns",
            calls.cached[n].mean(),
        );
        run.put(
            format!("serve.engine.{kind}_ns.nocache"),
            "ns",
            calls.bypass[n].mean(),
        );
    }
    let (outcome, reload_s) = ledger.span("ledger.serve.engine_reload", || {
        cached.reload(FactorStore::from_factor_set(2, updated), Some(delta))
    });
    let outcome = outcome?;
    run.put("serve.engine.reload_s", "s", reload_s);
    run.put(
        "serve.reload.fibers_invalidated",
        "count",
        outcome.invalidated as f64,
    );
    Ok(())
}

/// Per-call means of the serve layers (timed per call, never one span
/// per query).
#[derive(Default)]
struct ServeCalls {
    parse: MeanNs,
    format: MeanNs,
    cached: [MeanNs; 3],
    bypass: [MeanNs; 3],
}

fn kind_index(request: &Request) -> usize {
    match request {
        Request::Point { .. } => 0,
        Request::Slice { .. } => 1,
        _ => 2,
    }
}

enum Answer {
    Point(bool),
    Slice(Vec<usize>),
    Topk(Vec<(usize, u64)>),
}

fn answer(engine: &QueryEngine, request: &Request) -> Answer {
    const IN_RANGE: &str = "stream queries are in range";
    match *request {
        Request::Point { i, j, k } => Answer::Point(engine.point(i, j, k).expect(IN_RANGE)),
        Request::Slice { free_mode, lo, hi } => {
            Answer::Slice(engine.slice(free_mode, lo, hi).expect(IN_RANGE))
        }
        Request::Topk { mode, entity, k } => {
            Answer::Topk(engine.topk(mode, entity, k).expect(IN_RANGE))
        }
        _ => unreachable!("streams hold only data queries"),
    }
}

fn format_reply(request: &Request, reply: &Answer) -> String {
    let id = Some(kind_index(request) as u64);
    match reply {
        Answer::Point(v) => protocol::reply_point(id, *v),
        Answer::Slice(ones) => protocol::reply_slice(id, ones),
        Answer::Topk(cols) => protocol::reply_topk(id, cols),
    }
}

/// A short open-loop phase, oracle-checked, plus a rate ladder against a
/// real `dbtf serve` on the traced run's factors, then its `stats`
/// counters.
fn live_phase(
    w: &Workload,
    ctx: &Ctx,
    dims: [usize; 3],
    factors: FactorSet,
    run: &mut Run,
) -> Result<(), String> {
    let Started {
        server, mut admin, ..
    } = e2e::start_server(w, ctx, "store1.dbtfs")?;
    let count = (w.serve.rate * ctx.seconds / 5.0) as usize;
    let keep_share = (3.0 * ctx.min_checked() as f64 / count as f64).min(1.0);
    let stream = Stream::new(w, dims, ctx.seed ^ 0x11, count, keep_share);
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    let out = loadgen::run(
        server.addr,
        &stream.lines,
        w.serve.rate,
        &stream.keep,
        &sink,
    )
    .map_err(|e| e.to_string())?;
    let oracle = Oracle::new(factors);
    let kept = loadgen::drain(&sink);
    if kept.len() < ctx.min_checked() {
        return Err(format!(
            "{}: only {} replies kept for the oracle",
            w.name,
            kept.len()
        ));
    }
    for s in kept {
        oracle.check(&stream.requests[s.index], &s.reply)?;
    }
    let stats = admin.stats().map_err(|e| format!("stats: {e:?}"))?;
    let c = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let queries = c("serve.point.queries") + c("serve.slice.queries") + c("serve.topk.queries");
    let micros = c("serve.point.micros") + c("serve.slice.micros") + c("serve.topk.micros");
    let (hits, misses) = (c("serve.cache.hits"), c("serve.cache.misses"));
    let p50 = out.p(0.5);
    run.put(
        "serve.cache.hit_ratio",
        "ratio",
        hits / (hits + misses).max(1.0),
    );
    run.put(
        "serve.cache.hit_ratio.per_query",
        "ratio",
        hits / queries.max(1.0),
    );
    run.put("serve.cache.evictions", "count", c("serve.cache.evictions"));
    let service_us = micros / queries.max(1.0);
    run.put("serve.service_us", "us", service_us);
    run.put("serve.outside_server_us", "us", p50 - service_us);
    run.put("gen.read_p50_us", "us", p50);
    run.put("gen.read_p99_us", "us", out.p(0.99));
    run.put("gen.lag_p99_us", "us", out.lag_p99_us());
    run.put("gen.sent", "count", out.sent as f64);
    run.put("gen.received", "count", out.received as f64);
    run.attempted = 1 + out.sent as u64;
    run.failed = out.failed() as u64;

    let steps = ladder(w, ctx, server.addr, dims)?;
    run.put(
        "gen.max_qps_p99_2ms",
        "1/s",
        loadgen::max_passing_rate(&steps),
    );
    e2e::drain(server, admin)?;
    Ok(())
}

/// Offered rates rising ×1.1 per step from 10k q/s (or the workload's
/// higher rate), each on a fresh connection, until a step fails the
/// ladder rule.
fn ladder(
    w: &Workload,
    ctx: &Ctx,
    addr: std::net::SocketAddr,
    dims: [usize; 3],
) -> Result<Vec<Step>, String> {
    let step_s = if ctx.smoke { 0.2 } else { 0.5 };
    // 48 steps reach 10k · 1.1^47 ≈ 880k q/s, past what one connection
    // carries, in at most 24 s.
    let max_steps = if ctx.smoke { 3 } else { 48 };
    let mut steps = Vec::new();
    let mut rate = if ctx.smoke {
        w.serve.rate
    } else {
        w.serve.rate.max(10_000.0)
    };
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    for n in 0..max_steps {
        let stream = Stream::new(
            w,
            dims,
            ctx.seed ^ (0x100 + n),
            (rate * step_s) as usize,
            0.0,
        );
        let out = loadgen::run(addr, &stream.lines, rate, &stream.keep, &sink)
            .map_err(|e| e.to_string())?;
        let step = Step::from_outcome(&out);
        steps.push(step);
        if !step.passes() {
            break;
        }
        rate *= 1.1;
    }
    Ok(steps)
}
