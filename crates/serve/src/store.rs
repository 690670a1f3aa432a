//! The versioned factor store: load Boolean CP factors for serving.
//!
//! A [`FactorStore`] answers one access pattern — "give me factor row
//! `i` of mode `m` as packed words" — over factors loaded from a
//! `DBTFFSET` factor-set file: the checkpoint a run writes while
//! iterating, or the plain factor set `dbtf export-factors` and
//! `dbtf update` write. Either opens from either source: read onto the
//! heap ([`SourceKind::Ram`]) or served straight out of a read-only
//! memory map ([`SourceKind::Mmap`]).
//!
//! The format and its codec live in [`dbtf::checkpoint`] (format block
//! there): the store holds the verified file image, header, rows and
//! history, and both checksums are verified on open for both sources; a
//! served answer must never come from silently corrupt factors. A
//! `format_version` above this build's is a typed [`ServeError::Version`]
//! — a future-format file is reported as such, not as a parse failure.

use std::path::Path;

use dbtf::{FactorSet, FactorSetFile};

/// Failure to load or write a factor store: the factor-set codec's error.
pub use dbtf::FactorSetError as ServeError;

/// Where an opened store keeps its factor words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// Decode the file onto the heap.
    Ram,
    /// Serve straight out of a read-only memory map.
    Mmap,
}

impl std::str::FromStr for SourceKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ram" => Ok(SourceKind::Ram),
            "mmap" => Ok(SourceKind::Mmap),
            other => Err(format!("unknown source {other:?} (expected ram or mmap)")),
        }
    }
}

impl std::fmt::Display for SourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SourceKind::Ram => "ram",
            SourceKind::Mmap => "mmap",
        })
    }
}

/// An opened, verified set of factors ready to serve queries.
pub struct FactorStore {
    file: FactorSetFile,
    source: SourceKind,
    /// Per-factor column popcounts `[|a_:r|, |b_:r|, |c_:r|]`, built once
    /// at open; `topk` ranks columns by products of these.
    column_counts: [Vec<u64>; 3],
}

impl std::fmt::Debug for FactorStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [i, j, k] = self.dims();
        write!(
            f,
            "FactorStore[v{} {i}×{j}×{k} rank {} ({})]",
            self.set_version(),
            self.rank(),
            self.source
        )
    }
}

impl FactorStore {
    /// Wraps an in-memory [`FactorSet`] (the harness/bench path — no
    /// file involved): the image a store file of it would hold.
    pub fn from_factor_set(set_version: u64, factors: &FactorSet) -> FactorStore {
        FactorStore::new(
            FactorSetFile::encode(set_version, factors, &[]),
            SourceKind::Ram,
        )
    }

    /// Writes `factors` as a `DBTFFSET` file with no iteration history,
    /// atomically and durably (temp file + fsync + rename + directory
    /// fsync, the checkpoint discipline; a failed write leaves no
    /// `<path>.tmp` behind). A rank-0 set and a set with an empty mode are
    /// refused, as [`FactorStore::open`] would refuse the file.
    pub fn write_store(
        path: &Path,
        set_version: u64,
        factors: &FactorSet,
    ) -> Result<(), ServeError> {
        FactorSetFile::encode(set_version, factors, &[]).write(path)
    }

    /// Opens the `DBTFFSET` file at `path` — a checkpoint or a plain
    /// factor set — with the requested source.
    pub fn open(path: &Path, source: SourceKind) -> Result<FactorStore, ServeError> {
        let file = FactorSetFile::open(path, source == SourceKind::Mmap)?;
        Ok(FactorStore::new(file, source))
    }

    fn new(file: FactorSetFile, source: SourceKind) -> FactorStore {
        let mut store = FactorStore {
            file,
            source,
            column_counts: [Vec::new(), Vec::new(), Vec::new()],
        };
        store.column_counts = store.count_columns();
        store
    }

    fn count_columns(&self) -> [Vec<u64>; 3] {
        let rank = self.rank();
        let mut counts = [vec![0u64; rank], vec![0u64; rank], vec![0u64; rank]];
        for (mode, mode_counts) in counts.iter_mut().enumerate() {
            for idx in 0..self.dims()[mode] {
                let row = self.row(mode, idx);
                for (r, count) in mode_counts.iter_mut().enumerate() {
                    if row[r / 64] >> (r % 64) & 1 == 1 {
                        *count += 1;
                    }
                }
            }
        }
        counts
    }

    /// Tensor dimensions `[I, J, K]` (= factor row counts).
    pub fn dims(&self) -> [usize; 3] {
        self.file.dims()
    }

    /// The shared factor rank `R`.
    pub fn rank(&self) -> usize {
        self.file.rank()
    }

    /// The caller-assigned version of this factor set (a checkpoint's is
    /// its iteration count).
    pub fn set_version(&self) -> u64 {
        self.file.set_version()
    }

    /// Which source backs the rows (`ram` or `mmap`).
    pub fn source(&self) -> SourceKind {
        self.source
    }

    /// Words per factor row (`ceil(rank / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.file.words_per_row()
    }

    /// Factor row `idx` of `mode` (0 = A, 1 = B, 2 = C) as packed words.
    ///
    /// # Panics
    ///
    /// Panics if `mode > 2` or `idx` is out of range — callers bound-check
    /// against [`FactorStore::dims`] first (the engine turns violations
    /// into typed errors before ever reaching here).
    #[inline]
    pub fn row(&self, mode: usize, idx: usize) -> &[u64] {
        self.file.row(mode, idx)
    }

    /// Rebuilds the factors as an in-memory [`FactorSet`] (the
    /// oracle-check path: reference reconstructions want `BitMatrix`es).
    pub fn to_factor_set(&self) -> FactorSet {
        self.file.factors()
    }

    /// The weight `topk` ranks column `r` by for an entity of `mode`: the
    /// number of reconstruction cells the column contributes in that
    /// entity's slice — the product of the *other* two factors' column
    /// popcounts.
    pub fn column_weight(&self, mode: usize, r: usize) -> u64 {
        let [ca, cb, cc] = [
            self.column_counts[0][r],
            self.column_counts[1][r],
            self.column_counts[2][r],
        ];
        match mode {
            0 => cb.saturating_mul(cc),
            1 => ca.saturating_mul(cc),
            _ => ca.saturating_mul(cb),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf::{random_factor_sets, Checkpoint, DbtfConfig};
    use dbtf_tensor::columnar::fnv_words;
    use dbtf_tensor::BitMatrix;

    /// The multiplier `DBTFFSET` v1 fixed for both checksums.
    const V1_PRIME: u64 = 0x1000_0000_01b3;

    fn sample_factors(seed: u64) -> FactorSet {
        let cfg = DbtfConfig {
            seed,
            ..DbtfConfig::with_rank(5)
        };
        random_factor_sets([7, 6, 9], 0.4, &cfg).remove(0)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dbtf-serve-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn rows_equal(store: &FactorStore, factors: &FactorSet) {
        for (mode, m) in [&factors.a, &factors.b, &factors.c].into_iter().enumerate() {
            for idx in 0..m.rows() {
                assert_eq!(store.row(mode, idx), m.row(idx), "mode {mode} row {idx}");
            }
        }
    }

    fn to_words(bytes: &[u8]) -> Vec<u64> {
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Writes `words` to `path` after recomputing both checksums over
    /// them as v1 defined them, so only the check under test can object.
    fn write_sealed(path: &Path, mut words: Vec<u64>) {
        words[7] = fnv_words(&words[9..], V1_PRIME);
        words[8] = fnv_words(&words[..8], V1_PRIME);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(path, bytes).unwrap();
    }

    /// A `DBTFFSET` v1 image as earlier builds wrote it: the header, then
    /// the A, B and C rows, and nothing after them.
    fn v1_image(set_version: u64, factors: &FactorSet) -> Vec<u64> {
        let mut words = vec![
            u64::from_le_bytes(*b"DBTFFSET"),
            1,
            set_version,
            factors.a.rows() as u64,
            factors.b.rows() as u64,
            factors.c.rows() as u64,
            factors.rank() as u64,
            0,
            0,
        ];
        for m in [&factors.a, &factors.b, &factors.c] {
            for r in 0..m.rows() {
                words.extend_from_slice(m.row(r));
            }
        }
        words
    }

    #[test]
    fn roundtrip_ram_and_mmap_match_the_factors() {
        let factors = sample_factors(3);
        let path = tmp("roundtrip.dbtfs");
        FactorStore::write_store(&path, 42, &factors).unwrap();
        for source in [SourceKind::Ram, SourceKind::Mmap] {
            let store = FactorStore::open(&path, source).unwrap();
            assert_eq!(store.set_version(), 42);
            assert_eq!(store.dims(), [7, 6, 9]);
            assert_eq!(store.rank(), 5);
            assert_eq!(store.source(), source);
            rows_equal(&store, &factors);
            assert_eq!(store.to_factor_set(), factors, "{source}");
        }
        // The file is the image `from_factor_set` holds, word for word.
        let image = FactorSetFile::encode(42, &factors, &[]);
        assert_eq!(to_words(&std::fs::read(&path).unwrap()), image.words());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_files_open_from_both_sources() {
        let factors = sample_factors(5);
        let ck = Checkpoint {
            iteration: 2,
            error: 9,
            iteration_errors: vec![12, 9],
            factors: factors.clone(),
        };
        let path = tmp("from-checkpoint.dbtf");
        ck.write(&path).unwrap();
        for source in [SourceKind::Ram, SourceKind::Mmap] {
            let store = FactorStore::open(&path, source).unwrap();
            assert_eq!(store.set_version(), 2, "iteration doubles as set version");
            assert_eq!(store.source(), source);
            rows_equal(&store, &factors);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn column_counts_and_weights() {
        let factors = sample_factors(8);
        let store = FactorStore::from_factor_set(1, &factors);
        for r in 0..store.rank() {
            let counts = [
                factors.a.column(r).count_ones() as u64,
                factors.b.column(r).count_ones() as u64,
                factors.c.column(r).count_ones() as u64,
            ];
            assert_eq!(store.column_weight(0, r), counts[1] * counts[2]);
            assert_eq!(store.column_weight(1, r), counts[0] * counts[2]);
            assert_eq!(store.column_weight(2, r), counts[0] * counts[1]);
        }
    }

    #[test]
    fn corrupt_and_future_files_error_cleanly() {
        let factors = sample_factors(1);
        let path = tmp("corrupt.dbtfs");
        let ck = Checkpoint {
            iteration: 2,
            error: 4,
            iteration_errors: vec![6, 4],
            factors: factors.clone(),
        };
        ck.write(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        let rows_end = good.len() - 8 * 3;

        // Flip one factor-data byte, then one history byte → data
        // checksum mismatch.
        for at in [rows_end - 1, good.len() - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            for source in [SourceKind::Ram, SourceKind::Mmap] {
                let err = FactorStore::open(&path, source).unwrap_err();
                assert!(matches!(err, ServeError::Format(_)), "{source}: {err}");
                assert!(err.to_string().contains("data checksum"), "{err}");
            }
        }

        // Flip a header dim → header checksum mismatch.
        let mut bad = good.clone();
        bad[3 * 8] ^= 1;
        std::fs::write(&path, &bad).unwrap();
        let err = FactorStore::open(&path, SourceKind::Ram).unwrap_err();
        assert!(err.to_string().contains("header checksum"), "{err}");

        // Future format version (checksums recomputed so only the version
        // gate can object).
        let mut words = to_words(&good);
        words[1] = 3;
        write_sealed(&path, words);
        for source in [SourceKind::Ram, SourceKind::Mmap] {
            let err = FactorStore::open(&path, source).unwrap_err();
            assert!(
                matches!(&err, ServeError::Version { path: p, found: 3 }
                    if *p == path.display().to_string()),
                "{err}"
            );
            assert!(err
                .to_string()
                .starts_with(&format!("{}: ", path.display())));
            assert!(err.to_string().contains("newer than this build"), "{err}");
        }

        // Truncation → size mismatch, not a panic.
        std::fs::write(&path, &good[..good.len() - 8]).unwrap();
        assert!(FactorStore::open(&path, SourceKind::Mmap).is_err());

        // Not a factor-set file at all.
        std::fs::write(&path, b"what even is this").unwrap();
        let err = FactorStore::open(&path, SourceKind::Ram).unwrap_err();
        assert!(err.to_string().contains("not a word multiple"), "{err}");

        // An older build's text checkpoint → the typed old-format error.
        std::fs::write(&path, "DBTFCKPT v1\niteration 1\nerror 0\n").unwrap();
        for source in [SourceKind::Ram, SourceKind::Mmap] {
            let err = FactorStore::open(&path, source).unwrap_err();
            assert!(matches!(err, ServeError::TextCheckpoint(_)), "{err}");
            assert!(
                err.to_string().contains("DBTFCKPT text checkpoint"),
                "{err}"
            );
        }

        std::fs::remove_file(&path).unwrap();
    }

    /// Stores written by earlier builds are `DBTFFSET` v1, with no history
    /// and both checksums under the v1 multiplier; they keep opening from
    /// both sources.
    #[test]
    fn checksum_keeps_the_v1_multiplier() {
        assert_eq!(
            fnv_words(&[0x0123_4567_89ab_cdef], V1_PRIME),
            0xf0dc_8333_4776_1c55
        );
        let factors = sample_factors(2);
        let path = tmp("v1.dbtfs");
        write_sealed(&path, v1_image(6, &factors));
        for source in [SourceKind::Ram, SourceKind::Mmap] {
            let store = FactorStore::open(&path, source).unwrap();
            assert_eq!(store.set_version(), 6);
            assert_eq!(store.to_factor_set(), factors, "{source}");
        }
        let file = FactorSetFile::open(&path, false).unwrap();
        assert_eq!((file.format_version(), file.history()), (1, &[][..]));
        std::fs::remove_file(&path).unwrap();
    }

    /// A header-only v1 store with valid checksums claiming `dims` and
    /// `rank`.
    fn header_only_store(path: &Path, dims: [u64; 3], rank: u64) {
        let mut words = vec![u64::from_le_bytes(*b"DBTFFSET"), 1, 1, 0, 0, 0, rank, 0, 0];
        words[3..6].copy_from_slice(&dims);
        write_sealed(path, words);
    }

    /// A failed write (here: the destination is a directory, so the
    /// rename fails after the temp file was written) leaves no temp file.
    #[test]
    fn failed_write_store_leaves_no_temp_file() {
        let dest = tmp("dir-dest");
        let _ = std::fs::remove_dir_all(&dest);
        std::fs::create_dir_all(&dest).unwrap();
        let factors = FactorSet {
            a: BitMatrix::identity(3),
            b: BitMatrix::identity(3),
            c: BitMatrix::identity(3),
        };
        let err = FactorStore::write_store(&dest, 1, &factors).unwrap_err();
        assert!(matches!(err, ServeError::Io(_)), "{err}");
        assert!(!dest.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dest).unwrap();
    }

    #[test]
    fn crafted_headers_are_rejected_promptly() {
        let path = tmp("crafted.dbtfs");
        let start = std::time::Instant::now();
        for (dims, rank) in [
            // Rank 0 makes the length check vacuous for any dims.
            ([1 << 40, 1, 1], 0),
            // Mode sizes beyond u32, and dims whose row words overflow.
            ([1 << 33, 1, 1], 1),
            ([u32::MAX as u64; 3], u64::MAX),
            // All-zero mode sizes make it vacuous for any rank.
            ([0, 0, 0], u64::MAX),
            ([0, 0, 0], 1 << 40),
        ] {
            header_only_store(&path, dims, rank);
            for source in [SourceKind::Ram, SourceKind::Mmap] {
                let err = FactorStore::open(&path, source).unwrap_err();
                assert!(
                    matches!(err, ServeError::Format(_)),
                    "{dims:?} {rank}: {err}"
                );
            }
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        let empty = FactorSet {
            a: BitMatrix::zeros(3, 0),
            b: BitMatrix::zeros(2, 0),
            c: BitMatrix::zeros(4, 0),
        };
        assert!(matches!(
            FactorStore::write_store(&path, 1, &empty),
            Err(ServeError::Format(_))
        ));
        let no_rows = FactorSet {
            a: BitMatrix::zeros(0, 2),
            b: BitMatrix::zeros(2, 2),
            c: BitMatrix::zeros(4, 2),
        };
        assert!(matches!(
            FactorStore::write_store(&path, 1, &no_rows),
            Err(ServeError::Format(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
