//! Serving-path traffic replay: drives a real in-process `dbtf serve`
//! endpoint (TCP loopback, line-delimited JSON) with seeded query mixes
//! and reports per-request-line latency percentiles and throughput over
//! a query-mix × batch-size grid.
//!
//! Two load shapes per cell:
//!
//! - **closed loop** — one outstanding line per connection; the next
//!   request is sent the moment the reply lands. Measures the server's
//!   native service latency and peak per-connection throughput.
//! - **open loop** — lines are sent on a fixed arrival schedule
//!   (`--rate` lines/sec) regardless of replies; latency is measured
//!   from the *scheduled* send time, so queueing delay shows up the way
//!   it would for real independent clients.
//!
//! Run with
//! `cargo run --release -p dbtf-bench --bin traffic_replay -- [--queries N]
//!  [--rate R] [--dims I,J,K] [--rank R] [--density D] [--seed S]
//!  [--out BENCH_serve.json]`.

use std::io::Write as _;
use std::time::{Duration, Instant};

use dbtf::{random_factor_sets, DbtfConfig};
use dbtf_bench::Args;
use dbtf_serve::{FactorStore, QueryMix, Request, SeededQueries, ServeClient, ServeHarness};

const BATCHES: [usize; 3] = [1, 16, 64];

fn encode(request: &Request, id: u64) -> String {
    match request {
        Request::Point { i, j, k } => {
            format!("{{\"id\":{id},\"q\":\"point\",\"i\":{i},\"j\":{j},\"k\":{k}}}")
        }
        Request::Slice { free_mode, lo, hi } => {
            let (lo_name, hi_name) = match free_mode {
                0 => ("j", "k"),
                1 => ("i", "k"),
                _ => ("i", "j"),
            };
            format!(
                "{{\"id\":{id},\"q\":\"slice\",\"mode\":{},\"{lo_name}\":{lo},\"{hi_name}\":{hi}}}",
                free_mode + 1
            )
        }
        Request::Topk { mode, entity, k } => format!(
            "{{\"id\":{id},\"q\":\"topk\",\"mode\":{},\"entity\":{entity},\"k\":{k}}}",
            mode + 1
        ),
        other => unreachable!("sweeps generate only data queries: {other:?}"),
    }
}

/// Pre-encoded request lines for one cell: `queries` requests grouped
/// into lines of `batch` (a lone request stays a bare object).
fn encode_lines(
    seed: u64,
    dims: [usize; 3],
    mix: &QueryMix,
    queries: usize,
    batch: usize,
) -> Vec<String> {
    let requests: Vec<Request> = SeededQueries::new(seed, dims, *mix).take(queries).collect();
    requests
        .chunks(batch)
        .enumerate()
        .map(|(n, chunk)| {
            if batch == 1 {
                encode(&chunk[0], n as u64)
            } else {
                let parts: Vec<String> = chunk
                    .iter()
                    .enumerate()
                    .map(|(j, r)| encode(r, j as u64))
                    .collect();
                format!("[{}]", parts.join(","))
            }
        })
        .collect()
}

struct CellResult {
    mix: &'static str,
    batch: usize,
    shape: &'static str,
    lines: usize,
    queries: usize,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    qps: f64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn summarize(
    mix: &'static str,
    batch: usize,
    shape: &'static str,
    queries: usize,
    mut latencies: Vec<u64>,
    elapsed: Duration,
) -> CellResult {
    latencies.sort_unstable();
    CellResult {
        mix,
        batch,
        shape,
        lines: latencies.len(),
        queries,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        qps: queries as f64 / elapsed.as_secs_f64(),
    }
}

/// Closed loop: send, wait for the reply, send the next line.
fn run_closed(client: &mut ServeClient, lines: &[String]) -> (Vec<u64>, Duration) {
    let mut latencies = Vec::with_capacity(lines.len());
    let start = Instant::now();
    for line in lines {
        let sent = Instant::now();
        client.raw_line(line).expect("closed-loop reply");
        latencies.push(sent.elapsed().as_micros() as u64);
    }
    (latencies, start.elapsed())
}

/// Open loop: lines leave on schedule; latency includes queueing from
/// the scheduled departure, not the actual (possibly late) send.
fn run_open(client: &mut ServeClient, lines: &[String], line_rate: f64) -> (Vec<u64>, Duration) {
    let gap = Duration::from_secs_f64(1.0 / line_rate);
    let mut latencies = Vec::with_capacity(lines.len());
    let start = Instant::now();
    for (n, line) in lines.iter().enumerate() {
        let scheduled = start + gap * n as u32;
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        client.raw_line(line).expect("open-loop reply");
        latencies.push(scheduled.elapsed().as_micros() as u64);
    }
    (latencies, start.elapsed())
}

fn json(results: &[CellResult], args: &GridArgs) -> String {
    let mut out = String::from("{\n  \"bench\": \"traffic_replay\",\n");
    out.push_str(&format!(
        "  \"dims\": [{}, {}, {}],\n  \"rank\": {},\n  \"density\": {},\n  \"seed\": {},\n",
        args.dims[0], args.dims[1], args.dims[2], args.rank, args.density, args.seed
    ));
    out.push_str(&format!(
        "  \"queries_per_cell\": {},\n  \"open_loop_rate\": {},\n  \"cells\": [\n",
        args.queries, args.rate
    ));
    for (n, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"mix\": \"{}\", \"batch\": {}, \"loop\": \"{}\", \"lines\": {}, \
             \"queries\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"qps\": {:.0} }}{}\n",
            r.mix,
            r.batch,
            r.shape,
            r.lines,
            r.queries,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.qps,
            if n + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

struct GridArgs {
    dims: [usize; 3],
    rank: usize,
    density: f64,
    seed: u64,
    queries: usize,
    rate: f64,
}

fn main() {
    let args = Args::parse();
    let dims_raw: String = args.get("dims", "96,80,64".to_string());
    let dims: Vec<usize> = dims_raw
        .split(',')
        .map(|p| p.trim().parse().expect("--dims i,j,k"))
        .collect();
    assert_eq!(dims.len(), 3, "--dims wants three values");
    let grid = GridArgs {
        dims: [dims[0], dims[1], dims[2]],
        rank: args.get("rank", 12),
        density: args.get("density", 0.3),
        seed: args.get("seed", 1),
        queries: args.get("queries", 20_000),
        rate: args.get("rate", 5_000.0),
    };
    let out_path: String = args.get("out", "BENCH_serve.json".to_string());

    let cfg = DbtfConfig {
        seed: grid.seed,
        ..DbtfConfig::with_rank(grid.rank)
    };
    let factors = random_factor_sets(grid.dims, grid.density, &cfg).remove(0);
    let harness = ServeHarness::start(FactorStore::from_factor_set(1, &factors));
    let addr = harness.addr();
    println!(
        "replaying {} queries/cell against {} ({} × {} × {}, rank {})",
        grid.queries, addr, grid.dims[0], grid.dims[1], grid.dims[2], grid.rank
    );
    println!(
        "{:<8} {:>6} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "mix", "batch", "loop", "p50 µs", "p95 µs", "p99 µs", "queries/s"
    );

    let mixes: [(&'static str, QueryMix); 2] = [
        ("points", QueryMix::points_only()),
        ("mixed", QueryMix::default_mix()),
    ];
    let mut results = Vec::new();
    for (mix_name, mix) in &mixes {
        for batch in BATCHES {
            let lines = encode_lines(grid.seed, grid.dims, mix, grid.queries, batch);
            for shape in ["closed", "open"] {
                let mut client = ServeClient::connect(addr).expect("connect");
                // One warm-up pass per connection, so every cell
                // measures the steady state.
                let (_, _) = run_closed(&mut client, &lines[..lines.len().min(256)]);
                let (latencies, elapsed) = match shape {
                    "closed" => run_closed(&mut client, &lines),
                    _ => run_open(&mut client, &lines, grid.rate / batch as f64),
                };
                let cell = summarize(mix_name, batch, shape, grid.queries, latencies, elapsed);
                println!(
                    "{:<8} {:>6} {:>8} {:>10} {:>10} {:>10} {:>12.0}",
                    cell.mix,
                    cell.batch,
                    cell.shape,
                    cell.p50_us,
                    cell.p95_us,
                    cell.p99_us,
                    cell.qps
                );
                results.push(cell);
            }
        }
    }

    let served: u64 = harness
        .metrics()
        .named_counters()
        .iter()
        .filter(|(name, _)| name.ends_with(".queries"))
        .map(|(_, v)| *v as u64)
        .sum();
    let payload = json(&results, &grid);
    let mut file = std::fs::File::create(&out_path).expect("create bench json");
    file.write_all(payload.as_bytes())
        .expect("write bench json");
    let drained = harness.shutdown();
    println!("server counted {served} queries; drained: {drained}");
    println!("wrote {out_path}");
}
