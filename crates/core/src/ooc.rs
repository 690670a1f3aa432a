//! Out-of-core run support (DESIGN.md §1.2.7).
//!
//! A [`crate::config::StorageKind::Mmap`] run never holds a heap
//! [`dbtf_tensor::Unfolding`]: each mode is spilled once into an on-disk
//! columnar file ([`dbtf_tensor::columnar`]) through the bounded-memory
//! external sort in [`dbtf_tensor::stream`], and the driver partitions the
//! rows through a read-only memory map. This module owns the lifecycle of
//! those files — a uniquely named spill subdirectory created per run and
//! removed when the last handle drops, so lineage-rebuild closures held by
//! the execution backend keep the files alive for exactly as long as a
//! lost partition could still need them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dbtf_tensor::stream::{write_unfolding_from_entries, SpillConfig, DEFAULT_CHUNK_BYTES};
use dbtf_tensor::{BoolTensor, MmapUnfolding, Mode, StoreError};

use crate::config::DbtfError;

/// Environment variable bounding the external-sort chunk buffer, in MiB.
/// Unset or malformed values fall back to
/// [`dbtf_tensor::stream::DEFAULT_CHUNK_BYTES`]. The buffer bounds *driver*
/// memory during the spill pass; it never affects the bytes written, so
/// results are identical for every budget.
pub const SPILL_BUDGET_ENV: &str = "DBTF_SPILL_BUDGET_MB";

/// Distinguishes concurrent runs sharing one spill directory (and one
/// process — the test suite spins up many runs under a single PID).
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// The sort-buffer size in bytes: `DBTF_SPILL_BUDGET_MB` MiB if set and
/// parseable, the default otherwise.
fn spill_chunk_bytes() -> usize {
    match std::env::var(SPILL_BUDGET_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(mib) if mib > 0 => mib.saturating_mul(1 << 20),
            _ => DEFAULT_CHUNK_BYTES,
        },
        Err(_) => DEFAULT_CHUNK_BYTES,
    }
}

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

/// The three spilled unfolding files of one out-of-core run. Clones share
/// the spill directory, which is removed when the last clone drops.
#[derive(Clone, Debug)]
pub(crate) struct RunStores {
    guard: Arc<SpillGuard>,
}

impl RunStores {
    /// Spills all three mode unfoldings of `x` into a fresh subdirectory of
    /// `spill_dir` (the system temporary directory if `None`), one
    /// streaming pass per mode with a bounded sort buffer
    /// ([`SPILL_BUDGET_ENV`]).
    pub(crate) fn build(x: &BoolTensor, spill_dir: Option<&str>) -> Result<RunStores, DbtfError> {
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
        let stores = RunStores {
            guard: Arc::new(SpillGuard { dir }),
        };
        let spill = SpillConfig::new(&stores.guard.dir).with_chunk_bytes(spill_chunk_bytes());
        let dims = x.dims();
        for mode in Mode::ALL {
            let entries = x.iter().map(Ok);
            write_unfolding_from_entries(entries, dims, mode, &stores.path(mode), &spill)?;
        }
        Ok(stores)
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
    use dbtf_tensor::{Unfolding, UnfoldingStore};

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

    #[test]
    fn builds_three_openable_unfoldings_matching_heap() {
        let x = tiny_tensor();
        let stores = RunStores::build(&x, None).expect("build");
        for mode in Mode::ALL {
            let mmap = stores.open(mode).expect("open");
            let heap = Unfolding::new(&x, mode);
            assert_eq!(mmap.nrows(), heap.nrows());
            assert_eq!(mmap.nnz(), heap.nnz() as u64);
            for r in 0..heap.nrows() {
                assert_eq!(mmap.row(r), heap.row(r), "mode {mode:?} row {r}");
            }
        }
    }

    #[test]
    fn spill_directory_removed_when_last_guard_drops() {
        let x = tiny_tensor();
        let stores = RunStores::build(&x, None).expect("build");
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
        let x = tiny_tensor();
        let stores = RunStores::build(&x, Some(base.to_str().unwrap())).expect("build");
        assert!(stores.path(Mode::One).starts_with(&base));
        drop(stores);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn unwritable_spill_dir_is_a_storage_io_error() {
        let x = tiny_tensor();
        let err = RunStores::build(&x, Some("/proc/definitely/not/writable")).unwrap_err();
        assert!(matches!(err, DbtfError::StorageIo(_)), "{err:?}");
    }
}
