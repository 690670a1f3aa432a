//! Peak-RSS demonstration of the out-of-core unfolding path.
//!
//! Runs the full streaming pipeline — generate a tensor straight to a COO
//! file, external-sort it into the three on-disk columnar unfoldings with a
//! deliberately tiny sort budget, then mmap each unfolding and build its
//! vertical partitions one at a time (evicting pages in between) — and
//! reports the **peak resident set** of each phase against what the heap
//! path would have to hold (the materialized tensor plus all three heap
//! unfoldings). Nothing in the pipeline ever materializes the tensor, so
//! peak memory is bounded by the sort budget plus one partition, not by
//! `|X|`.
//!
//! Peaks are measured with `VmHWM` from `/proc/self/status`, reset between
//! phases via `/proc/self/clear_refs`; on kernels where the reset is
//! unavailable the numbers are reported but the bound is not enforced.
//!
//! With `--json FILE` the datapoints are also written as a machine-readable
//! report (same hand-rolled JSON as the chaos sweep) — `BENCH_ooc.json` in
//! the repo root tracks this across commits.
//!
//! ```text
//! cargo run --release -p dbtf-bench --bin scaling_memory -- \
//!     [--dim 384] [--density 0.05] [--seed 0] [--budget-mb 2] \
//!     [--partitions 16] [--json BENCH_ooc.json] [--scratch DIR] [--keep]
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use dbtf::partition::partition_unfolding_one;
use dbtf_bench::{print_header, print_row, Args};
use dbtf_datagen::stream_uniform_random;
use dbtf_tensor::stream::{write_unfolding_from_entries, SpillConfig};
use dbtf_tensor::{io as tio, MmapUnfolding, Mode, UnfoldingStore};

/// Current peak resident set (`VmHWM`) in bytes, if the kernel exposes it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets `VmHWM` to the current RSS so per-phase peaks are measurable.
/// Returns false when the kernel refuses (then peaks are cumulative).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

fn main() {
    let args = Args::parse();
    let dim = args.get("dim", 384usize);
    let density = args.get("density", 0.05f64);
    let seed = args.get("seed", 0u64);
    let budget_mb = args.get("budget-mb", 2usize);
    let n_partitions = args.get("partitions", 16usize);
    let json_path = args.get("json", String::new());

    let dims = [dim, dim, dim];
    let scratch = PathBuf::from(
        args.get(
            "scratch",
            std::env::temp_dir()
                .join(format!("dbtf-memscale-{}", std::process::id()))
                .display()
                .to_string(),
        ),
    );
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let resettable = reset_peak_rss();
    let measured = peak_rss_bytes().is_some();

    // Phase 1 — generate: entry stream straight to a binary COO file.
    let coo = scratch.join("x.coo");
    let t0 = Instant::now();
    let mut writer = tio::StreamingTensorWriter::create(&coo, dims, true).expect("create COO file");
    stream_uniform_random(dims, density, seed, |e| {
        writer.push(e).expect("write COO entry");
    });
    let nnz = writer.finish().expect("finish COO file");
    let gen_secs = t0.elapsed().as_secs_f64();

    // Phase 2 — ingest: external-sort each mode's unfolding onto disk under
    // a sort budget far below the tensor's size.
    reset_peak_rss();
    let spill = SpillConfig::new(scratch.join("spill")).with_chunk_bytes(budget_mb << 20);
    let t0 = Instant::now();
    let mut unfolding_paths: Vec<PathBuf> = Vec::new();
    let mut disk_bytes = 0u64;
    for mode in [Mode::One, Mode::Two, Mode::Three] {
        let path = scratch.join(format!("unfold_{}.dbtfu", mode.index() + 1));
        let entries = tio::TensorStream::open(&coo).expect("reopen COO stream");
        let written =
            write_unfolding_from_entries(entries, dims, mode, &path, &spill).expect("ingest");
        assert_eq!(written, nnz, "ingest must keep every distinct entry");
        disk_bytes += std::fs::metadata(&path).expect("stat unfolding").len();
        unfolding_paths.push(path);
    }
    let ingest_secs = t0.elapsed().as_secs_f64();
    let ingest_peak = peak_rss_bytes();

    // Phase 3 — sweep: mmap each unfolding and build its partitions one at
    // a time, evicting the mapped pages between partitions. This is the
    // access pattern the driver's distribute step and lineage recompute use.
    reset_peak_rss();
    let t0 = Instant::now();
    let mut part_bytes_max = 0u64;
    let mut part_nnz_total = 0u64;
    for path in &unfolding_paths {
        let store = MmapUnfolding::open(path).expect("open unfolding");
        assert_eq!(store.nnz(), nnz);
        for p in 0..n_partitions {
            let part = partition_unfolding_one(&store, p, n_partitions);
            part_bytes_max = part_bytes_max.max(part.byte_size());
            part_nnz_total += part.nnz() as u64;
            store.evict();
        }
    }
    let sweep_secs = t0.elapsed().as_secs_f64();
    let sweep_peak = peak_rss_bytes();
    assert_eq!(part_nnz_total, 3 * nnz, "partitions must cover every entry");

    // What the heap path holds at its peak: the materialized tensor
    // (12 B/entry) plus one CSR heap unfolding per mode (an 8-byte column
    // per entry and an 8-byte offset per row, plus one).
    let heap_estimate = nnz * 12 + 3 * (nnz * 8 + (dim as u64 + 1) * 8);

    print_header(
        &format!(
            "Out-of-core memory scaling — {dim}^3, density {density}, |X| = {nnz}, \
             sort budget {budget_mb} MiB, {n_partitions} partitions"
        ),
        "phase",
        &["secs", "peak MiB"],
    );
    let peak_cell =
        |p: Option<u64>| p.map_or_else(|| format!("{:>10}", "n/a"), |b| format!("{:>10}", mib(b)));
    print_row(
        "generate -> COO",
        &[format!("{gen_secs:10.3}"), format!("{:>10}", "-")],
    );
    print_row(
        "ingest (3 modes)",
        &[format!("{ingest_secs:10.3}"), peak_cell(ingest_peak)],
    );
    print_row(
        "partition sweep",
        &[format!("{sweep_secs:10.3}"), peak_cell(sweep_peak)],
    );
    println!(
        "\non-disk unfoldings: {} MiB | largest partition: {} MiB | heap path would hold: {} MiB",
        mib(disk_bytes),
        mib(part_bytes_max),
        mib(heap_estimate)
    );

    // The bound this bench exists to demonstrate: with the peak reset
    // working and a workload big enough to rise above allocator noise, the
    // out-of-core sweep must stay well under the heap path's footprint.
    let enforce = resettable && measured && heap_estimate >= 64 << 20;
    if enforce {
        let peak = sweep_peak.expect("measured");
        assert!(
            peak < heap_estimate / 2,
            "partition sweep peak RSS {} MiB is not under half the heap \
             path's {} MiB — the out-of-core bound regressed",
            mib(peak),
            mib(heap_estimate)
        );
        println!(
            "bound holds: sweep peak {} MiB < {} MiB (half the heap path)",
            mib(sweep_peak.unwrap_or(0)),
            mib(heap_estimate / 2)
        );
    } else {
        println!("bound not enforced (VmHWM reset unavailable or workload too small)");
    }

    if !json_path.is_empty() {
        let mut json = format!(
            "{{\n  \"bench\": \"scaling_memory\",\n  \"dim\": {dim},\n  \"density\": {density},\n  \
             \"seed\": {seed},\n  \"nnz\": {nnz},\n  \"sort_budget_mib\": {budget_mb},\n  \
             \"partitions\": {n_partitions},\n  \"enforced\": {enforce},\n  \"phases\": [\n"
        );
        let phases = [
            ("generate", gen_secs, None),
            ("ingest", ingest_secs, ingest_peak),
            ("sweep", sweep_secs, sweep_peak),
        ];
        for (i, (name, secs, peak)) in phases.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{ \"phase\": \"{name}\", \"secs\": {secs:.3}, \"peak_rss_bytes\": {} }}{}",
                peak.map_or_else(|| "null".to_string(), |b| b.to_string()),
                if i + 1 < phases.len() { "," } else { "" }
            );
        }
        let _ = write!(
            json,
            "  ],\n  \"disk_bytes\": {disk_bytes},\n  \"largest_partition_bytes\": \
             {part_bytes_max},\n  \"heap_estimate_bytes\": {heap_estimate}\n}}\n"
        );
        std::fs::write(&json_path, json).expect("write JSON report");
        println!("wrote {json_path}");
    }

    if args.has("keep") {
        println!("kept scratch dir: {}", scratch.display());
    } else {
        std::fs::remove_dir_all(&scratch).ok();
    }
}
