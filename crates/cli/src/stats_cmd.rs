//! `dbtf stats` — shape/density summaries for every on-disk artifact the
//! toolchain produces: tensors (text or binary, streamed in constant
//! memory), spilled `DBTFUNFD` columnar unfoldings, `DBTFFSET` factor
//! sets (checkpoints and stores), and Chrome trace-event JSON.

use std::path::Path;

use crate::args::{ArgError, ParsedArgs};
use dbtf::checkpoint::{is_factor_set_file, FactorSetFile};
use dbtf_telemetry::validate_chrome_trace;
use dbtf_tensor::{columnar, io as tio, MmapUnfolding};

pub fn cmd_stats(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = parsed.get_str("trace") {
        return trace_stats(path);
    }
    let path = parsed
        .get_str("input")
        .ok_or_else(|| ArgError("missing required option --input".into()))?;
    if is_unfolding_file(path) {
        return unfolding_stats(path);
    }
    // Factor-set files are self-describing; summarize them as what they
    // are instead of failing to parse them as tensors.
    if is_factor_set_file(Path::new(path)) {
        return factor_set_stats(path);
    }
    // One streaming pass in constant memory: the tensor is never
    // materialized. Three occupancy bitsets (one bit per index) replace
    // the hash sets a full load would need, and consecutive duplicates
    // are skipped so files written by this tool (sorted, unique) report
    // the exact non-zero count.
    let mut stream = tio::TensorStream::open(path)?;
    let [i, j, k] = stream.dims();
    let mut seen: [dbtf_tensor::BitVec; 3] = [
        dbtf_tensor::BitVec::zeros(i),
        dbtf_tensor::BitVec::zeros(j),
        dbtf_tensor::BitVec::zeros(k),
    ];
    let mut nnz = 0u64;
    let mut last: Option<[u32; 3]> = None;
    for entry in &mut stream {
        let e = entry?;
        if last == Some(e) {
            continue;
        }
        last = Some(e);
        nnz += 1;
        for m in 0..3 {
            seen[m].set(e[m] as usize, true);
        }
    }
    let cells = i as f64 * j as f64 * k as f64;
    println!("shape:    {i} × {j} × {k}");
    println!("non-zeros: {nnz}");
    println!(
        "density:  {:.3e}",
        if cells > 0.0 { nnz as f64 / cells } else { 0.0 }
    );
    println!("‖X‖_F:    {:.3}", (nnz as f64).sqrt());
    for (m, name) in ["i", "j", "k"].iter().enumerate() {
        let dim = [i, j, k][m];
        let distinct = seen[m].count_ones();
        println!(
            "mode {name}:   {} of {} indices used ({:.1}%)",
            distinct,
            dim,
            100.0 * distinct as f64 / dim.max(1) as f64
        );
    }
    Ok(())
}

/// `dbtf stats` on a `DBTFFSET` factor-set file: shape, rank and set
/// version, plus a checkpoint's iteration, error and trajectory.
fn factor_set_stats(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let file = FactorSetFile::open(Path::new(path), false)?;
    let [i, j, k] = file.dims();
    println!("factor store (DBTFFSET v{})", file.format_version());
    println!("factors:   {i} × {j} × {k}, rank {}", file.rank());
    println!("set version: {}", file.set_version());
    let rows = i + j + k;
    let bytes = rows * file.words_per_row() * 8;
    println!("payload:   {rows} packed rows, {bytes} bytes");
    let history = file.history();
    if let Some(error) = history.last() {
        println!("iteration: {}", history.len());
        println!("error:     {error}");
        println!(
            "trajectory: {}",
            history
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(" → ")
        );
    }
    Ok(())
}

/// Whether `path` starts with the `DBTFUNFD` columnar-unfolding magic.
fn is_unfolding_file(path: &str) -> bool {
    use std::io::Read;
    let mut magic = [0u8; 8];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .is_ok_and(|_| magic == columnar::UNFOLDING_MAGIC)
}

/// `dbtf stats` on a spilled columnar unfolding: everything below comes
/// from the 4 KiB header page and the row index — the column data is
/// mapped but never faulted in, so this is O(header + index) I/O no matter
/// how large the unfolding is.
fn unfolding_stats(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let store = MmapUnfolding::open(Path::new(path))?;
    let h = store.header();
    let [i, j, k] = h.dims;
    println!(
        "columnar unfolding (DBTFUNFD v{})",
        columnar::UNFOLDING_VERSION
    );
    println!("mode:     {}", h.mode.index() + 1);
    println!("tensor:   {i} × {j} × {k}");
    println!("unfolded: {} × {}", h.nrows, h.ncols);
    println!("non-zeros: {}", h.nnz);
    let cells = h.nrows as f64 * h.ncols as f64;
    println!(
        "density:  {:.3e}",
        if cells > 0.0 {
            h.nnz as f64 / cells
        } else {
            0.0
        }
    );
    let index = store.index();
    let lens = index.windows(2).map(|w| w[1] - w[0]);
    let longest = lens.clone().max().unwrap_or(0);
    let occupied = lens.filter(|&l| l > 0).count();
    println!(
        "rows:     {} of {} occupied ({:.1}%), longest {longest}",
        occupied,
        h.nrows,
        100.0 * occupied as f64 / h.nrows.max(1) as f64
    );
    println!(
        "layout:   index at {} B, data at {} B, file {} B",
        h.index_off,
        h.data_off,
        std::fs::metadata(path)?.len()
    );
    Ok(())
}

/// `dbtf stats --trace FILE`: validates the trace-event JSON and prints a
/// per-superstep/operator breakdown of virtual time.
fn trace_stats(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    let summary =
        validate_chrome_trace(&text).map_err(|e| format!("invalid trace {path:?}: {e}"))?;
    println!(
        "trace:    {} complete events, {} counters",
        summary.complete_events, summary.counter_events
    );
    for (cat, count, dur_us) in &summary.categories {
        println!(
            "  {:<12} {:>6} spans {:>14.3} virtual ms",
            cat,
            count,
            dur_us / 1e3
        );
    }
    if !summary.breakdown.is_empty() {
        println!("per-superstep/operator breakdown:");
        println!("  {:<28} {:>6} {:>16}", "operator", "count", "virtual ms");
        for (name, count, dur_us) in &summary.breakdown {
            println!("  {:<28} {:>6} {:>16.3}", name, count, dur_us / 1e3);
        }
    }
    Ok(())
}
