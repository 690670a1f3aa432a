//! Bounded-memory COO → columnar-unfolding conversion.
//!
//! [`write_unfolding_from_entries`] turns a stream of tensor entries into an
//! on-disk [`columnar`](crate::columnar) unfolding file without ever holding
//! the unfolding (or the entry list) in memory: entries are checked against
//! the tensor's dims and matricized into `(row, col)` pairs, gathered in
//! fixed-size chunks, and each chunk is row-bucket sorted into sorted,
//! duplicate-free rows. A lone chunk streams straight into the single-pass
//! [`UnfoldingWriter`]; otherwise each chunk spills to a run file in a spill
//! directory and the runs are k-way merged (with duplicate elimination)
//! into the writer. Peak memory is one chunk plus its bucket buffer and one
//! buffered reader per run — the configured [`SpillConfig::chunk_bytes`],
//! never the nonzero count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::columnar::UnfoldingWriter;
use crate::io::ParseError;
use crate::store::StoreError;
use crate::unfold::{bucket_rows, Mode};

/// Where and how large the external-sort scratch space is.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Directory run files are written to (created if absent, runs deleted
    /// after the merge).
    pub dir: PathBuf,
    /// In-memory sort buffer budget in bytes. Each buffered entry costs 24
    /// bytes (its `(row, col)` pair plus its slot in the row-bucket
    /// buffer); values below one page are rounded up to a small minimum.
    pub chunk_bytes: usize,
}

/// Default in-memory sort budget: 64 MiB, i.e. ~2.8M entries per chunk.
pub const DEFAULT_CHUNK_BYTES: usize = 64 << 20;

/// Sort memory per buffered entry: its 16-byte `(row, col)` pair in the
/// chunk plus its 8-byte column slot in the row-bucket buffer.
const BYTES_PER_ENTRY: usize = 24;

impl SpillConfig {
    /// A spill config with the default chunk budget.
    pub fn new<P: Into<PathBuf>>(dir: P) -> SpillConfig {
        SpillConfig {
            dir: dir.into(),
            chunk_bytes: DEFAULT_CHUNK_BYTES,
        }
    }

    /// Overrides the chunk budget (useful for tests and the memory bench).
    pub fn with_chunk_bytes(mut self, bytes: usize) -> SpillConfig {
        self.chunk_bytes = bytes;
        self
    }

    fn chunk_capacity(&self) -> usize {
        (self.chunk_bytes / BYTES_PER_ENTRY).max(64)
    }
}

/// Errors from the streaming ingest pipeline: either the entry source
/// failed to parse, or the unfolding writer / spill files failed.
#[derive(Debug)]
pub enum IngestError {
    /// The COO entry source produced an error.
    Parse(ParseError),
    /// Writing the unfolding file or the spill runs failed.
    Store(StoreError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Parse(e) => write!(f, "entry source: {e}"),
            IngestError::Store(e) => write!(f, "unfolding store: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<ParseError> for IngestError {
    fn from(e: ParseError) -> Self {
        IngestError::Parse(e)
    }
}

impl From<StoreError> for IngestError {
    fn from(e: StoreError) -> Self {
        IngestError::Store(e)
    }
}

fn spill_io(path: &Path, e: std::io::Error) -> IngestError {
    IngestError::Store(StoreError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// One spilled run of sorted `(row, col)` records, 12 bytes each.
struct Run {
    path: PathBuf,
    reader: BufReader<File>,
    remaining: u64,
}

impl Run {
    fn next(&mut self) -> Result<Option<(u32, u64)>, IngestError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut rec = [0u8; 12];
        self.reader
            .read_exact(&mut rec)
            .map_err(|e| spill_io(&self.path, e))?;
        self.remaining -= 1;
        Ok(Some((
            u32::from_le_bytes(rec[..4].try_into().unwrap()),
            u64::from_le_bytes(rec[4..].try_into().unwrap()),
        )))
    }
}

/// The spilled runs of one ingest; their files go when this drops, on
/// success and on every error path alike.
#[derive(Default)]
struct Runs(Vec<Run>);

impl Drop for Runs {
    fn drop(&mut self) {
        for run in &self.0 {
            let _ = std::fs::remove_file(&run.path);
        }
    }
}

/// One chunk's bucketed rows in CSR form (see [`bucket_rows`]).
#[derive(Default)]
struct Buckets {
    offsets: Vec<usize>,
    cols: Vec<u64>,
}

impl Buckets {
    fn entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.offsets
            .windows(2)
            .enumerate()
            .flat_map(move |(r, w)| self.cols[w[0]..w[1]].iter().map(move |&c| (r as u32, c)))
    }
}

/// Writes one chunk's sorted rows as run `seq`; a failed write removes
/// its own file.
fn spill_run(dir: &Path, tag: &str, seq: usize, rows: &Buckets) -> Result<Run, IngestError> {
    let path = dir.join(format!("{}-{}-{}.run", tag, std::process::id(), seq));
    let write = || -> std::io::Result<Run> {
        let mut w = BufWriter::new(File::create(&path)?);
        let mut count = 0u64;
        for (r, c) in rows.entries() {
            w.write_all(&r.to_le_bytes())?;
            w.write_all(&c.to_le_bytes())?;
            count += 1;
        }
        drop(w.into_inner().map_err(|e| e.into_error())?);
        Ok(Run {
            reader: BufReader::new(File::open(&path)?),
            path: path.clone(),
            remaining: count,
        })
    };
    write().map_err(|e| {
        let _ = std::fs::remove_file(&path);
        spill_io(&path, e)
    })
}

/// Streams COO entries into a columnar unfolding file for `mode`.
///
/// `entries` may arrive in any order and contain duplicates; the external
/// sort produces the same sorted, duplicate-free rows as
/// [`Unfolding::new`](crate::Unfolding::new), so the resulting file is
/// byte-identical to serializing the heap unfolding, whatever the chunk
/// budget. Returns the number of distinct entries written.
///
/// # Errors
///
/// A source error is returned as [`IngestError::Parse`]. An entry outside
/// `dims` is [`StoreError::Invalid`] naming the entry — checked before
/// matricizing, since an out-of-range index can alias another cell's
/// `(row, col)` in one mode and not in another. On any error no run file
/// and no partial `out` file is left behind.
pub fn write_unfolding_from_entries<I>(
    entries: I,
    dims: [usize; 3],
    mode: Mode,
    out: &Path,
    spill: &SpillConfig,
) -> Result<u64, IngestError>
where
    I: IntoIterator<Item = Result<[u32; 3], ParseError>>,
{
    std::fs::create_dir_all(&spill.dir).map_err(|e| spill_io(&spill.dir, e))?;
    let tag = out
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unfolding".to_string());
    let nrows = mode.nrows(dims);
    let cap = spill.chunk_capacity();
    let mut chunk: Vec<(u32, u64)> = Vec::with_capacity(cap.min(1 << 20));
    let mut rows = Buckets::default();
    let mut runs = Runs::default();
    for entry in entries {
        let e = entry?;
        if e.iter().zip(dims).any(|(&x, d)| x as usize >= d) {
            return Err(IngestError::Store(StoreError::Invalid {
                path: out.display().to_string(),
                detail: format!("entry {e:?} is out of range for dims {dims:?}"),
            }));
        }
        chunk.push(mode.matricize(dims, e));
        if chunk.len() >= cap {
            bucket_rows(
                chunk.iter().copied(),
                nrows,
                &mut rows.offsets,
                &mut rows.cols,
            );
            chunk.clear();
            let run = spill_run(&spill.dir, &tag, runs.0.len(), &rows)?;
            runs.0.push(run);
        }
    }
    bucket_rows(
        chunk.iter().copied(),
        nrows,
        &mut rows.offsets,
        &mut rows.cols,
    );
    drop(chunk);
    if !runs.0.is_empty() && !rows.cols.is_empty() {
        let run = spill_run(&spill.dir, &tag, runs.0.len(), &rows)?;
        runs.0.push(run);
    }

    let mut writer = UnfoldingWriter::create(out, mode, dims)?;
    let mut written = 0u64;
    let mut sink = |r: u32, c: u64| -> Result<(), StoreError> {
        writer.push(r, c)?;
        written += 1;
        Ok(())
    };
    let result = if runs.0.is_empty() {
        // Everything fit in one chunk: stream its rows straight out.
        rows.entries()
            .try_for_each(|(r, c)| sink(r, c))
            .map_err(IngestError::Store)
    } else {
        drop(rows);
        merge_runs(&mut runs.0, sink)
    };
    drop(runs);
    let result = result.and_then(|()| writer.finish().map_err(IngestError::Store));
    if result.is_err() {
        let _ = std::fs::remove_file(out);
    }
    result.map(|_| written)
}

/// K-way merge of sorted runs with duplicate elimination.
fn merge_runs<F>(runs: &mut [Run], mut sink: F) -> Result<(), IngestError>
where
    F: FnMut(u32, u64) -> Result<(), StoreError>,
{
    let mut heap: BinaryHeap<Reverse<(u32, u64, usize)>> = BinaryHeap::with_capacity(runs.len());
    for (i, run) in runs.iter_mut().enumerate() {
        if let Some((r, c)) = run.next()? {
            heap.push(Reverse((r, c, i)));
        }
    }
    let mut last: Option<(u32, u64)> = None;
    while let Some(Reverse((r, c, i))) = heap.pop() {
        if last != Some((r, c)) {
            sink(r, c).map_err(IngestError::Store)?;
            last = Some((r, c));
        }
        if let Some((nr, nc)) = runs[i].next()? {
            heap.push(Reverse((nr, nc, i)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::MmapUnfolding;
    use crate::store::UnfoldingStore;
    use crate::{BoolTensor, Unfolding};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dbtf-stream-{}-{}", tag, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn scrambled_entries() -> (BoolTensor, Vec<[u32; 3]>) {
        // Deterministic pseudo-random entries in arrival order, with
        // duplicates, covering a 9 x 11 x 7 tensor.
        let dims = [9usize, 11, 7];
        let mut raw = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = ((state >> 33) % dims[0] as u64) as u32;
            let j = ((state >> 13) % dims[1] as u64) as u32;
            let k = (state % dims[2] as u64) as u32;
            raw.push([i, j, k]);
        }
        (BoolTensor::from_entries(dims, raw.clone()), raw)
    }

    #[test]
    fn external_sort_matches_heap_unfolding_for_every_mode() {
        let (t, raw) = scrambled_entries();
        let dir = tmp_dir("extsort");
        for mode in Mode::ALL {
            // Budget small enough to force many runs (64-entry chunks).
            let spill = SpillConfig::new(&dir).with_chunk_bytes(1);
            let out = dir.join(format!("m{}.unf", mode.index()));
            let written = write_unfolding_from_entries(
                raw.iter().map(|&e| Ok(e)),
                t.dims(),
                mode,
                &out,
                &spill,
            )
            .unwrap();
            assert_eq!(written, t.nnz() as u64, "mode {mode:?}");
            let m = MmapUnfolding::open(&out).unwrap();
            let u = Unfolding::new(&t, mode);
            for r in 0..u.nrows() {
                assert_eq!(
                    UnfoldingStore::row(&m, r),
                    u.row(r),
                    "mode {mode:?} row {r}"
                );
            }
        }
    }

    #[test]
    fn in_memory_and_spilled_paths_produce_identical_files() {
        let (t, raw) = scrambled_entries();
        let dir = tmp_dir("identical");
        for mode in Mode::ALL {
            let m = mode.index();
            let (big, small) = (
                dir.join(format!("big{m}.unf")),
                dir.join(format!("small{m}.unf")),
            );
            write_unfolding_from_entries(
                raw.iter().map(|&e| Ok(e)),
                t.dims(),
                mode,
                &big,
                &SpillConfig::new(&dir), // default budget: single chunk
            )
            .unwrap();
            write_unfolding_from_entries(
                raw.iter().map(|&e| Ok(e)),
                t.dims(),
                mode,
                &small,
                &SpillConfig::new(&dir).with_chunk_bytes(1), // many runs
            )
            .unwrap();
            let big = std::fs::read(&big).unwrap();
            assert_eq!(big, std::fs::read(&small).unwrap(), "{mode:?}");
            // And identical to serializing the heap unfolding directly.
            let heap = dir.join(format!("heap{m}.unf"));
            MmapUnfolding::write_from_store(&Unfolding::new(&t, mode), &heap).unwrap();
            assert_eq!(big, std::fs::read(&heap).unwrap(), "{mode:?}");
        }
    }

    #[test]
    fn run_files_are_cleaned_up() {
        let (t, raw) = scrambled_entries();
        let dir = tmp_dir("cleanup");
        let out = dir.join("out.unf");
        write_unfolding_from_entries(
            raw.iter().map(|&e| Ok(e)),
            t.dims(),
            Mode::One,
            &out,
            &SpillConfig::new(&dir).with_chunk_bytes(1),
        )
        .unwrap();
        let leftover = files_with_ext(&dir, "run");
        assert!(leftover.is_empty(), "run files left behind: {leftover:?}");
    }

    #[test]
    fn source_errors_propagate() {
        let dir = tmp_dir("err");
        let out = dir.join("out.unf");
        let entries = vec![
            Ok([0u32, 0, 0]),
            Err(ParseError::Malformed(2, "bad".into())),
        ];
        assert!(matches!(
            write_unfolding_from_entries(
                entries,
                [2, 2, 2],
                Mode::One,
                &out,
                &SpillConfig::new(&dir)
            ),
            Err(IngestError::Parse(ParseError::Malformed(2, _)))
        ));
    }

    /// Files under `dir` whose extension is `ext`.
    fn files_with_ext(dir: &Path, ext: &str) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == ext))
            .collect()
    }

    /// The two budgets every error-path test runs at: the default (one
    /// in-memory chunk) and a 1-byte budget (64-entry chunks, so runs are
    /// spilled before the error arrives).
    fn both_budgets(dir: &Path) -> [SpillConfig; 2] {
        [
            SpillConfig::new(dir),
            SpillConfig::new(dir).with_chunk_bytes(1),
        ]
    }

    #[test]
    fn out_of_range_entries_are_rejected_in_every_mode() {
        // j = J = 3 is out of range. Unchecked, mode 1 would matricize it
        // to column 3 + 0·3 = 3 = (j 0, k 1): a different, valid cell.
        let dims = [2usize, 3, 4];
        let (_, raw) = scrambled_entries();
        let mut entries: Vec<[u32; 3]> = raw
            .iter()
            .map(|e| [e[0] % 2, e[1] % 3, e[2] % 4])
            .take(300)
            .collect();
        entries.push([0, 3, 0]);
        let dir = tmp_dir("alias");
        for (b, spill) in both_budgets(&dir).into_iter().enumerate() {
            for mode in Mode::ALL {
                let out = dir.join(format!("b{b}-m{}.unf", mode.index()));
                let got = write_unfolding_from_entries(
                    entries.iter().map(|&e| Ok(e)),
                    dims,
                    mode,
                    &out,
                    &spill,
                );
                match got {
                    Err(IngestError::Store(StoreError::Invalid { detail, .. })) => {
                        assert!(
                            detail.contains("[0, 3, 0]"),
                            "budget {b} {mode:?}: {detail}"
                        )
                    }
                    other => panic!("budget {b} {mode:?}: expected Invalid, got {other:?}"),
                }
                assert!(!out.exists(), "budget {b} {mode:?}: output left behind");
                assert!(
                    files_with_ext(&dir, "run").is_empty(),
                    "budget {b} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn source_error_after_spilled_runs_leaves_no_files() {
        let (t, raw) = scrambled_entries();
        let dir = tmp_dir("leak");
        for (b, spill) in both_budgets(&dir).into_iter().enumerate() {
            let out = dir.join(format!("b{b}.unf"));
            let entries = raw[..300].iter().map(|&e| Ok(e)).chain(std::iter::once(Err(
                ParseError::Malformed(301, "bad".into()),
            )));
            let got = write_unfolding_from_entries(entries, t.dims(), Mode::Two, &out, &spill);
            assert!(
                matches!(got, Err(IngestError::Parse(ParseError::Malformed(301, _)))),
                "budget {b}: {got:?}"
            );
            assert!(!out.exists(), "budget {b}: output left behind");
            let leftover = files_with_ext(&dir, "run");
            assert!(leftover.is_empty(), "budget {b}: runs left: {leftover:?}");
        }
    }

    #[test]
    fn empty_source_produces_valid_empty_file() {
        let dir = tmp_dir("empty");
        let out = dir.join("out.unf");
        let written = write_unfolding_from_entries(
            std::iter::empty(),
            [3, 4, 5],
            Mode::Three,
            &out,
            &SpillConfig::new(&dir),
        )
        .unwrap();
        assert_eq!(written, 0);
        let m = MmapUnfolding::open(&out).unwrap();
        assert_eq!(UnfoldingStore::nnz(&m), 0);
        assert_eq!(UnfoldingStore::nrows(&m), 5);
    }
}
