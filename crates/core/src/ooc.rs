//! Out-of-core run support (DESIGN.md §1.2.7).
//!
//! A [`crate::config::StorageKind::Mmap`] run keeps its lineage on disk:
//! the driver writes each mode's unfolding to an on-disk columnar file
//! ([`dbtf_tensor::columnar`]) straight from the N partitions it has just
//! cut for that mode, and a lost partition is rebuilt by re-opening the
//! file through a read-only memory map. This module owns those files — a
//! uniquely named spill subdirectory created per run and removed when the
//! last handle drops, so lineage-rebuild closures held by the execution
//! backend keep the files alive for exactly as long as a lost partition
//! could still need them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dbtf_tensor::{MmapUnfolding, Mode, StoreError, UnfoldingWriter};

use crate::config::DbtfError;
use crate::partition::{Block, ModePartition};

/// Rows [`RunStores::write`] gathers from the blocks at a time: one cache
/// line of each block's `u32` row offsets.
const ROW_TILE: usize = 16;

/// Distinguishes concurrent runs sharing one spill directory (and one
/// process — the test suite spins up many runs under a single PID).
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// A run-scoped spill directory, deleted (best-effort) when dropped.
///
/// Held behind an [`Arc`] by [`RunStores`], whose clones live in every
/// mmap lineage rebuild closure, so the files outlive any possible
/// recompute.
#[derive(Debug)]
struct SpillGuard {
    dir: PathBuf,
}

impl Drop for SpillGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The spilled unfolding files of one out-of-core run, one per mode. Clones
/// share the spill directory, which is removed when the last clone drops.
#[derive(Clone, Debug)]
pub(crate) struct RunStores {
    guard: Arc<SpillGuard>,
}

impl RunStores {
    /// A fresh, empty spill subdirectory of `spill_dir` (the system
    /// temporary directory if `None`).
    ///
    /// # Errors
    ///
    /// [`DbtfError::StorageIo`] if the directory cannot be created.
    pub(crate) fn create(spill_dir: Option<&str>) -> Result<RunStores, DbtfError> {
        let base = spill_dir
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "dbtf-spill-{}-{}",
            std::process::id(),
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| {
            DbtfError::StorageIo(format!("create spill directory {}: {e}", dir.display()))
        })?;
        Ok(RunStores {
            guard: Arc::new(SpillGuard { dir }),
        })
    }

    /// Writes mode `mode`'s unfolding of a tensor of shape `dims` from
    /// `parts`, all N partitions of that mode's cut in index order, and
    /// returns the number of entries written.
    ///
    /// No sort is needed: the partitions tile the columns in order, their
    /// blocks tile each partition in order, and every block row is sorted,
    /// so row `r` of the file is row `r` of every block laid end to end. The
    /// writer still checks each entry's range and order.
    ///
    /// # Errors
    ///
    /// The writer's [`StoreError`] if the file cannot be written or the
    /// partitions are not such a cut.
    pub(crate) fn write(
        &self,
        mode: Mode,
        dims: [usize; 3],
        parts: &[ModePartition],
    ) -> Result<u64, StoreError> {
        let mut w = UnfoldingWriter::create(&self.path(mode), mode, dims)?;
        let s = mode.slab_width(dims) as u64;
        // Every block of the cut in column order, with its first column.
        let blocks: Vec<(u64, &Block)> = parts
            .iter()
            .flat_map(|p| &p.blocks)
            .map(|b| (b.slab as u64 * s + u64::from(b.inner_lo), b))
            .collect();
        // Rows are gathered ROW_TILE at a time, block by block, so each
        // block's offsets and columns are read in runs rather than one row
        // at a time; the gathered rows then go through the writer in order.
        let nrows = mode.nrows(dims);
        let mut rows = vec![Vec::new(); ROW_TILE];
        for first in (0..nrows).step_by(ROW_TILE) {
            let tile = first..nrows.min(first + ROW_TILE);
            rows.iter_mut().for_each(Vec::clear);
            for &(lo, b) in &blocks {
                for (row, r) in rows.iter_mut().zip(tile.clone()) {
                    row.extend(b.row(r).iter().map(|&o| lo + u64::from(o)));
                }
            }
            for (row, r) in rows.iter().zip(tile) {
                for &col in row {
                    w.push(r as u32, col)?;
                }
            }
        }
        w.finish()
    }

    /// The file holding mode `mode`'s unfolding.
    pub(crate) fn path(&self, mode: Mode) -> PathBuf {
        self.guard
            .dir
            .join(format!("unfold_{}.dbtfu", mode.index() + 1))
    }

    /// Opens mode `mode`'s unfolding through a read-only map.
    pub(crate) fn open(&self, mode: Mode) -> Result<MmapUnfolding, StoreError> {
        MmapUnfolding::open(&self.path(mode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_tensor;
    use dbtf_tensor::{BoolTensor, Unfolding, UnfoldingStore};

    fn tiny_tensor() -> BoolTensor {
        let mut entries = Vec::new();
        for i in 0..5u32 {
            for j in 0..4u32 {
                if (i + j) % 2 == 0 {
                    entries.push([i, j, (i * j) % 3]);
                }
            }
        }
        BoolTensor::from_entries([5, 4, 3], entries)
    }

    /// A few hundred entries of a tensor of shape `dims`, so every cut of a
    /// small shape has edge blocks with ones in them.
    fn scattered_tensor(dims: [usize; 3]) -> BoolTensor {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let entries = (0..400)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                [
                    ((state >> 33) % dims[0] as u64) as u32,
                    ((state >> 13) % dims[1] as u64) as u32,
                    (state % dims[2] as u64) as u32,
                ]
            })
            .collect();
        BoolTensor::from_entries(dims, entries)
    }

    /// Every mode's file written from its N-way cut holds the very bytes
    /// its heap unfolding serializes to: for N = 1, 2, 3, 7 and more
    /// partitions than the widest mode has columns, on a small tensor, on
    /// one with more rows than a [`ROW_TILE`] in every mode, and on an
    /// empty tensor.
    #[test]
    fn builds_three_openable_unfoldings_matching_heap() {
        let base = std::env::temp_dir().join(format!("dbtf-ooc-heap-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let tensors = [
            scattered_tensor([9, 11, 7]),
            scattered_tensor([37, 18, 17]),
            BoolTensor::empty([9, 11, 7]),
        ];
        for x in tensors {
            let widest = Mode::ALL.iter().map(|m| m.ncols(x.dims())).max().unwrap();
            for n in [1, 2, 3, 7, widest as usize + 2] {
                let stores = RunStores::create(Some(base.to_str().unwrap())).expect("create");
                for mode in Mode::ALL {
                    let parts = partition_tensor(&x, mode, n);
                    let written = stores.write(mode, x.dims(), &parts).expect("write");
                    let mmap = stores.open(mode).expect("open");
                    let heap = Unfolding::new(&x, mode);
                    assert_eq!(written, heap.nnz() as u64, "N = {n} {mode:?}");
                    assert_eq!(mmap.nrows(), heap.nrows());
                    for r in 0..heap.nrows() {
                        assert_eq!(mmap.row(r), heap.row(r), "N = {n} {mode:?} row {r}");
                    }
                    let serialized = base.join(format!("heap-{n}-{}.dbtfu", mode.index()));
                    MmapUnfolding::write_from_store(&heap, &serialized).unwrap();
                    assert_eq!(
                        std::fs::read(stores.path(mode)).unwrap(),
                        std::fs::read(&serialized).unwrap(),
                        "|X| = {} N = {n} {mode:?}",
                        x.nnz()
                    );
                }
            }
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn spill_directory_removed_when_last_guard_drops() {
        let x = tiny_tensor();
        let stores = RunStores::create(None).expect("create");
        let parts = partition_tensor(&x, Mode::Three, 2);
        stores.write(Mode::Three, x.dims(), &parts).expect("write");
        let dir = stores.guard.dir.clone();
        let extra = stores.clone();
        assert!(dir.is_dir());
        drop(stores);
        // A surviving clone (as a lineage closure would hold) keeps the
        // files alive.
        assert!(dir.is_dir());
        assert!(extra.open(Mode::Three).is_ok());
        drop(extra);
        assert!(!dir.exists());
    }

    #[test]
    fn honors_explicit_spill_dir() {
        let base = std::env::temp_dir().join(format!("dbtf-ooc-base-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let stores = RunStores::create(Some(base.to_str().unwrap())).expect("create");
        assert!(stores.path(Mode::One).starts_with(&base));
        drop(stores);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn unwritable_spill_dir_is_a_storage_io_error() {
        let err = RunStores::create(Some("/proc/definitely/not/writable")).unwrap_err();
        assert!(matches!(err, DbtfError::StorageIo(_)), "{err:?}");
    }
}
