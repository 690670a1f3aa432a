//! Wall-clock scaling of the factor-update supersteps across real
//! per-worker compute threads.
//!
//! Runs the same factorization with `--threads 1,2,4` (default) compute
//! threads per worker and reports **host wall-clock** seconds side by
//! side with the (identical) virtual seconds, asserting that the final
//! error is bit-identical across settings — real parallelism must never
//! change results. Numbers land in EXPERIMENTS.md; note that speedup is
//! bounded by the host's physical core count, not the thread setting.
//!
//! With `--json FILE` the datapoints are also written as a
//! machine-readable report (same hand-rolled JSON as the chaos sweep),
//! so the perf trajectory can be tracked across commits.
//!
//! ```text
//! cargo run --release -p dbtf-bench --bin scaling_threads -- \
//!     --dim 96 --density 0.05 --rank 10 --workers 4 --threads 1,2,4 \
//!     [--json target/scaling_threads.json]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use dbtf::DbtfConfig;
use dbtf_bench::{print_header, print_row, run_dbtf_threads, Args};
use dbtf_datagen::uniform_random;

fn main() {
    let args = Args::parse();
    let dim = args.get("dim", 96usize);
    let density = args.get("density", 0.05f64);
    let rank = args.get("rank", 10usize);
    let workers = args.get("workers", 4usize);
    let seed = args.get("seed", 0u64);
    let threads_raw: String = args.get("threads", "1,2,4".to_string());
    let threads: Vec<usize> = threads_raw
        .split(',')
        .map(|t| t.trim().parse().expect("--threads takes integers"))
        .collect();

    let x = uniform_random([dim, dim, dim], density, seed);
    let config = DbtfConfig {
        rank,
        seed,
        ..DbtfConfig::default()
    };

    print_header(
        &format!(
            "Compute-thread scaling — {dim}^3, density {density}, rank {rank}, {workers} workers \
             (host cores: {})",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        "threads/worker",
        &["wall s", "virtual s", "error", "speedup"],
    );

    let mut base_wall = None;
    let mut base_result = None;
    let mut points: Vec<(usize, f64, f64, u64)> = Vec::new();
    for &t in &threads {
        let start = Instant::now();
        let outcome = run_dbtf_threads(&x, &config, workers, Some(t));
        let wall = start.elapsed().as_secs_f64();
        let (vsecs, error) = (
            outcome.secs().expect("run completed"),
            outcome.error().expect("run completed"),
        );
        match base_result {
            None => base_result = Some((vsecs, error)),
            Some(base) => assert_eq!(
                base,
                (vsecs, error),
                "thread count changed results — determinism broken"
            ),
        }
        let base = *base_wall.get_or_insert(wall);
        points.push((t, wall, vsecs, error));
        print_row(
            &format!("{t}"),
            &[
                format!("{wall:10.3}"),
                format!("{vsecs:10.3}"),
                format!("{error:10}"),
                format!("{:9.2}x", base / wall),
            ],
        );
    }
    println!("\nresults identical across all thread counts ✓");

    if let Some(path) = {
        let p = args.get("json", String::new());
        (!p.is_empty()).then_some(p)
    } {
        let mut json = format!(
            "{{\n  \"experiment\": \"scaling_threads\",\n  \"dim\": {dim}, \
             \"density\": {density}, \"rank\": {rank}, \"workers\": {workers},\n  \
             \"cells\": [\n"
        );
        for (i, (t, wall, vsecs, error)) in points.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{\"threads\": {t}, \"wall_secs\": {wall}, \
                 \"virtual_secs\": {vsecs}, \"error\": {error}, \
                 \"bit_identical\": true}}{}",
                if i + 1 < points.len() { "," } else { "" },
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write JSON report");
        println!("wrote {path}");
    }
}
