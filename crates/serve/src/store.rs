//! The versioned factor store: load Boolean CP factors for serving.
//!
//! A [`FactorStore`] answers one access pattern — "give me factor row
//! `i` of mode `m` as packed words" — over factors loaded from either of
//! the two on-disk forms the factorization side produces:
//!
//! - the text `DBTFCKPT v1` checkpoint a run writes while iterating
//!   (parsed once, always heap-resident);
//! - the binary `DBTFFSET v1` store written by `dbtf export-factors`,
//!   which can be read onto the heap ([`SourceKind::Ram`]) or served
//!   straight out of a read-only memory map ([`SourceKind::Mmap`]).
//!
//! # The `DBTFFSET v1` file format
//!
//! Everything is a little-endian `u64` word, so the mapped file can be
//! viewed as one `&[u64]` (the same trick as the `DBTFUNFD` columnar
//! unfolding):
//!
//! ```text
//! word 0      magic            "DBTFFSET" (8 ASCII bytes)
//! word 1      format_version   1
//! word 2      set_version      caller-assigned factor-set version
//! word 3..=5  I, J, K          factor row counts (tensor dims)
//! word 6      R                rank (columns per factor)
//! word 7      data_checksum    FNV-1a over words 9.. (LE bytes)*
//! word 8      header_checksum  FNV-1a over words 0..=7 (LE bytes)*
//! word 9..    A rows, then B rows, then C rows — each row is
//!             ceil(R/64) packed words, row-major
//! ```
//!
//! \* With the v1 multiplier `0x1000_0000_01b3` in place of the FNV prime.
//!
//! Both checksums are verified on open for both sources; a served answer
//! must never come from silently corrupt factors. A `format_version`
//! above 1 is a typed [`ServeError::Version`] — a future-format file is
//! reported as such, not as a parse failure.

use std::io::{Read, Write};
use std::path::Path;

use dbtf::checkpoint::replace_via_temp;
use dbtf::{Checkpoint, FactorSet};
use dbtf_tensor::columnar::fnv_words;

/// Magic word: `b"DBTFFSET"` as a little-endian `u64`.
pub const STORE_MAGIC: u64 = u64::from_le_bytes(*b"DBTFFSET");
/// The format version this build writes and the newest it reads.
pub const STORE_FORMAT_VERSION: u64 = 1;
/// Words before the factor data begins.
const HEADER_WORDS: usize = 9;
/// The multiplier of both `DBTFFSET` v1 checksums. It is not the FNV
/// prime ([`dbtf_tensor::columnar::FNV_PRIME`], one hex digit shorter),
/// but v1 fixed it: every store written so far is checksummed with it.
const CHECKSUM_PRIME: u64 = 0x1000_0000_01b3;

/// The `DBTFFSET` v1 checksum of `words`.
fn checksum(words: &[u64]) -> u64 {
    fnv_words(words, CHECKSUM_PRIME)
}

/// Failure to load or write a factor store.
#[derive(Debug)]
pub enum ServeError {
    /// Underlying I/O failure, with the path for context.
    Io(String),
    /// The file exists but is not a well-formed store/checkpoint.
    Format(String),
    /// The file is a `DBTFFSET` store from a newer format version.
    Version {
        /// The version found in the file header.
        found: u64,
    },
    /// A `DBTFCKPT` checkpoint failed to parse (message from `dbtf`).
    Checkpoint(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "factor store I/O error: {msg}"),
            ServeError::Format(msg) => write!(f, "malformed factor store: {msg}"),
            ServeError::Version { found } => write!(
                f,
                "factor store format v{found} is newer than this build supports \
                 (max v{STORE_FORMAT_VERSION}); re-export it with a matching build"
            ),
            ServeError::Checkpoint(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Where an opened store keeps its factor words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// Decode the file onto the heap.
    Ram,
    /// Serve straight out of a read-only memory map (`DBTFFSET` only).
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

enum Backing {
    /// Factor words only (file words 9.., or packed from a `FactorSet`).
    Heap(Vec<u64>),
    /// The whole mapped file; factor words start at [`HEADER_WORDS`].
    #[cfg(all(unix, target_endian = "little"))]
    Map(dbtf_tensor::mmap_sys::Map),
}

impl Backing {
    fn factor_words(&self) -> &[u64] {
        match self {
            Backing::Heap(words) => words,
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Map(map) => &map.words()[HEADER_WORDS..],
        }
    }
}

/// An opened, verified set of factors ready to serve queries.
pub struct FactorStore {
    backing: Backing,
    dims: [usize; 3],
    rank: usize,
    /// Words per factor row: `ceil(rank / 64)`.
    wpr: usize,
    set_version: u64,
    source: SourceKind,
    /// Per-factor column popcounts `[|a_:r|, |b_:r|, |c_:r|]`, built once
    /// at open; `topk` ranks columns by products of these.
    column_counts: [Vec<u64>; 3],
}

impl std::fmt::Debug for FactorStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FactorStore[v{} {}×{}×{} rank {} ({})]",
            self.set_version, self.dims[0], self.dims[1], self.dims[2], self.rank, self.source
        )
    }
}

impl FactorStore {
    /// Wraps an in-memory [`FactorSet`] (the harness/bench path — no
    /// file involved).
    pub fn from_factor_set(set_version: u64, factors: &FactorSet) -> FactorStore {
        let rank = factors.rank();
        let wpr = rank.div_ceil(64);
        let dims = [factors.a.rows(), factors.b.rows(), factors.c.rows()];
        let mut words = Vec::with_capacity((dims[0] + dims[1] + dims[2]) * wpr);
        for m in [&factors.a, &factors.b, &factors.c] {
            debug_assert_eq!(m.words_per_row(), wpr);
            for r in 0..m.rows() {
                words.extend_from_slice(m.row(r));
            }
        }
        let mut store = FactorStore {
            backing: Backing::Heap(words),
            dims,
            rank,
            wpr,
            set_version,
            source: SourceKind::Ram,
            column_counts: [Vec::new(), Vec::new(), Vec::new()],
        };
        store.column_counts = store.count_columns();
        store
    }

    /// Writes `factors` as a `DBTFFSET v1` store file, atomically
    /// (temp file + fsync + rename, the checkpoint discipline; a failed
    /// write leaves no `<path>.tmp` behind). A rank-0 set and a set with
    /// an empty mode are refused, as [`FactorStore::open`] would refuse the
    /// file.
    pub fn write_store(
        path: &Path,
        set_version: u64,
        factors: &FactorSet,
    ) -> Result<(), ServeError> {
        let io_err = |e: std::io::Error| ServeError::Io(format!("{}: {e}", path.display()));
        if factors.rank() == 0 {
            return Err(ServeError::Format(format!(
                "{}: cannot store a rank-0 factor set",
                path.display()
            )));
        }
        if [&factors.a, &factors.b, &factors.c]
            .iter()
            .any(|m| m.rows() == 0)
        {
            return Err(ServeError::Format(format!(
                "{}: cannot store a factor set with an empty mode",
                path.display()
            )));
        }
        let store = FactorStore::from_factor_set(set_version, factors);
        let data = match &store.backing {
            Backing::Heap(words) => words.as_slice(),
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Map(_) => unreachable!("from_factor_set is heap-backed"),
        };
        let mut header = [0u64; HEADER_WORDS];
        header[0] = STORE_MAGIC;
        header[1] = STORE_FORMAT_VERSION;
        header[2] = set_version;
        header[3] = store.dims[0] as u64;
        header[4] = store.dims[1] as u64;
        header[5] = store.dims[2] as u64;
        header[6] = store.rank as u64;
        header[7] = checksum(data);
        header[8] = checksum(&header[..8]);
        replace_via_temp(path, |file| {
            let mut buf = std::io::BufWriter::new(file);
            for w in header.iter().chain(data.iter()) {
                buf.write_all(&w.to_le_bytes())?;
            }
            buf.into_inner().map_err(|e| e.into_error())?.sync_all()
        })
        .map_err(io_err)
    }

    /// Opens `path` — a `DBTFFSET` store or a `DBTFCKPT v1` checkpoint —
    /// with the requested source. Checkpoints are text and always load
    /// onto the heap; asking for [`SourceKind::Mmap`] on one is an error
    /// that points at `dbtf export-factors`.
    pub fn open(path: &Path, source: SourceKind) -> Result<FactorStore, ServeError> {
        let io_err = |e: std::io::Error| ServeError::Io(format!("{}: {e}", path.display()));
        let mut magic = [0u8; 8];
        let mut file = std::fs::File::open(path).map_err(io_err)?;
        let n = file.read(&mut magic).map_err(io_err)?;
        if n == 8 && u64::from_le_bytes(magic) == STORE_MAGIC {
            return FactorStore::open_binary(path, file, source);
        }
        if magic.starts_with(b"DBTFCKPT") {
            if source == SourceKind::Mmap {
                return Err(ServeError::Format(format!(
                    "{}: checkpoints are text and always load as ram; run \
                     `dbtf export-factors` to produce a DBTFFSET store for --source mmap",
                    path.display()
                )));
            }
            let ck = Checkpoint::read(path).map_err(|e| ServeError::Checkpoint(e.to_string()))?;
            // The checkpoint's completed-iteration count doubles as the
            // factor-set version: later checkpoints supersede earlier ones.
            return Ok(FactorStore::from_factor_set(
                ck.iteration as u64,
                &ck.factors,
            ));
        }
        Err(ServeError::Format(format!(
            "{}: neither a DBTFFSET store nor a DBTFCKPT checkpoint",
            path.display()
        )))
    }

    fn open_binary(
        path: &Path,
        mut file: std::fs::File,
        source: SourceKind,
    ) -> Result<FactorStore, ServeError> {
        let io_err = |e: std::io::Error| ServeError::Io(format!("{}: {e}", path.display()));
        let fmt_err = |msg: String| ServeError::Format(format!("{}: {msg}", path.display()));
        let len = file.metadata().map_err(io_err)?.len() as usize;
        if !len.is_multiple_of(8) || len < HEADER_WORDS * 8 {
            return Err(fmt_err(format!(
                "file is {len} bytes, not a word multiple with a header"
            )));
        }
        // The mmap source keeps only the map resident; ram decodes the
        // words onto the heap and drops the file. Non-unix builds have no
        // map and fall back to the heap read for both sources.
        let (backing, file_words): (Backing, Vec<u64>) = {
            #[cfg(all(unix, target_endian = "little"))]
            if source == SourceKind::Mmap {
                // SAFETY: stores are written once, by temp file and
                // rename, and never modified in place; `len` is the file's
                // length.
                let map = unsafe { dbtf_tensor::mmap_sys::Map::new(&file, len) };
                let map = map.map_err(io_err)?;
                (Backing::Map(map), Vec::new())
            } else {
                (
                    Backing::Heap(Vec::new()),
                    read_words(&mut file, len, io_err)?,
                )
            }
            #[cfg(not(all(unix, target_endian = "little")))]
            {
                (
                    Backing::Heap(Vec::new()),
                    read_words(&mut file, len, io_err)?,
                )
            }
        };
        let header: Vec<u64> = match &backing {
            Backing::Heap(_) => file_words[..HEADER_WORDS].to_vec(),
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Map(map) => map.words()[..HEADER_WORDS].to_vec(),
        };
        if header[0] != STORE_MAGIC {
            return Err(fmt_err("bad magic".into()));
        }
        if header[8] != checksum(&header[..8]) {
            return Err(fmt_err("header checksum mismatch".into()));
        }
        if header[1] != STORE_FORMAT_VERSION {
            return Err(ServeError::Version { found: header[1] });
        }
        // A rank-0 set has no factor words, so the length check alone
        // would let it claim any mode sizes and make `count_columns` walk
        // them all; `write_store` never produces one.
        if header[6] == 0 {
            return Err(fmt_err("rank 0".into()));
        }
        // Likewise an all-zero shape passes the length check for any rank,
        // and `count_columns` would then allocate three rank-long tables.
        if header[3..6].contains(&0) {
            return Err(fmt_err(format!(
                "mode size 0 in shape {}×{}×{}",
                header[3], header[4], header[5]
            )));
        }
        if let Some(size) = header[3..6].iter().find(|&&d| d > u64::from(u32::MAX)) {
            return Err(fmt_err(format!("mode size {size} exceeds u32 range")));
        }
        let dims = [header[3] as usize, header[4] as usize, header[5] as usize];
        let rank = header[6] as usize;
        let wpr = rank.div_ceil(64);
        let expect_words = (dims[0] + dims[1] + dims[2])
            .checked_mul(wpr)
            .and_then(|w| w.checked_add(HEADER_WORDS));
        if expect_words != Some(len / 8) {
            return Err(fmt_err(format!(
                "file has {} words but the header implies {}",
                len / 8,
                expect_words.map_or("more than usize::MAX".to_string(), |w| w.to_string())
            )));
        }
        let backing = match backing {
            Backing::Heap(_) => Backing::Heap(file_words[HEADER_WORDS..].to_vec()),
            #[cfg(all(unix, target_endian = "little"))]
            map => map,
        };
        if checksum(backing.factor_words()) != header[7] {
            return Err(fmt_err("data checksum mismatch".into()));
        }
        let mut store = FactorStore {
            backing,
            dims,
            rank,
            wpr,
            set_version: header[2],
            source,
            column_counts: [Vec::new(), Vec::new(), Vec::new()],
        };
        store.column_counts = store.count_columns();
        Ok(store)
    }

    fn count_columns(&self) -> [Vec<u64>; 3] {
        let mut counts = [
            vec![0u64; self.rank],
            vec![0u64; self.rank],
            vec![0u64; self.rank],
        ];
        for (mode, mode_counts) in counts.iter_mut().enumerate() {
            for idx in 0..self.dims[mode] {
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
        self.dims
    }

    /// The shared factor rank `R`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The caller-assigned version of this factor set.
    pub fn set_version(&self) -> u64 {
        self.set_version
    }

    /// Which source backs the rows (`ram` or `mmap`).
    pub fn source(&self) -> SourceKind {
        self.source
    }

    /// Words per factor row (`ceil(rank / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.wpr
    }

    /// Factor row `idx` of `mode` (0 = A, 1 = B, 2 = C) as packed words.
    ///
    /// # Panics
    ///
    /// Panics if `mode > 2` or `idx` is out of range — callers bound-check
    /// against [`FactorStore::dims`] first (the engine turns violations
    /// into typed errors before ever reaching here).
    pub fn row(&self, mode: usize, idx: usize) -> &[u64] {
        assert!(mode < 3 && idx < self.dims[mode], "row out of range");
        let base = match mode {
            0 => 0,
            1 => self.dims[0] * self.wpr,
            _ => (self.dims[0] + self.dims[1]) * self.wpr,
        };
        &self.backing.factor_words()[base + idx * self.wpr..][..base_len(self.wpr)]
    }

    /// Rebuilds the factors as an in-memory [`FactorSet`] (the
    /// oracle-check path: reference reconstructions want `BitMatrix`es).
    pub fn to_factor_set(&self) -> FactorSet {
        use dbtf_tensor::BitMatrix;
        let mut matrices = Vec::with_capacity(3);
        for mode in 0..3 {
            let mut m = BitMatrix::zeros(self.dims[mode], self.rank);
            for idx in 0..self.dims[mode] {
                m.row_mut(idx).copy_from_slice(self.row(mode, idx));
            }
            matrices.push(m);
        }
        let c = matrices.pop().unwrap();
        let b = matrices.pop().unwrap();
        let a = matrices.pop().unwrap();
        FactorSet { a, b, c }
    }

    /// Column popcount `|m_:r|` of factor `mode`.
    pub fn column_count(&self, mode: usize, r: usize) -> u64 {
        self.column_counts[mode][r]
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

/// `wpr`, spelled as a function so the slice expression in [`FactorStore::row`]
/// reads as a length.
fn base_len(wpr: usize) -> usize {
    wpr
}

fn read_words(
    file: &mut std::fs::File,
    len: usize,
    io_err: impl Fn(std::io::Error) -> ServeError,
) -> Result<Vec<u64>, ServeError> {
    use std::io::Seek;
    file.rewind().map_err(&io_err)?;
    let mut bytes = Vec::with_capacity(len);
    file.read_to_end(&mut bytes).map_err(&io_err)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf::{random_factor_sets, DbtfConfig};
    use dbtf_tensor::BitMatrix;

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
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_files_open_as_ram_only() {
        let factors = sample_factors(5);
        let ck = Checkpoint {
            iteration: 2,
            error: 9,
            iteration_errors: vec![12, 9],
            factors: factors.clone(),
        };
        let path = tmp("from-checkpoint.dbtf");
        ck.write(&path).unwrap();
        let store = FactorStore::open(&path, SourceKind::Ram).unwrap();
        assert_eq!(store.set_version(), 2, "iteration doubles as set version");
        rows_equal(&store, &factors);
        let err = FactorStore::open(&path, SourceKind::Mmap).unwrap_err();
        assert!(
            err.to_string().contains("export-factors"),
            "mmap on a checkpoint must point at the export path: {err}"
        );
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
            for (mode, &want) in counts.iter().enumerate() {
                assert_eq!(store.column_count(mode, r), want);
            }
            assert_eq!(store.column_weight(0, r), counts[1] * counts[2]);
            assert_eq!(store.column_weight(1, r), counts[0] * counts[2]);
            assert_eq!(store.column_weight(2, r), counts[0] * counts[1]);
        }
    }

    #[test]
    fn corrupt_and_future_files_error_cleanly() {
        let factors = sample_factors(1);
        let path = tmp("corrupt.dbtfs");
        FactorStore::write_store(&path, 7, &factors).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flip one factor-data byte → data checksum mismatch.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        for source in [SourceKind::Ram, SourceKind::Mmap] {
            let err = FactorStore::open(&path, source).unwrap_err();
            assert!(matches!(err, ServeError::Format(_)), "{source}: {err}");
            assert!(err.to_string().contains("data checksum"), "{err}");
        }

        // Flip a header dim → header checksum mismatch.
        let mut bad = good.clone();
        bad[3 * 8] ^= 1;
        std::fs::write(&path, &bad).unwrap();
        let err = FactorStore::open(&path, SourceKind::Ram).unwrap_err();
        assert!(err.to_string().contains("header checksum"), "{err}");

        // Future format version (header checksum recomputed so only the
        // version gate can object).
        let mut words: Vec<u64> = good
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        words[1] = 9;
        words[8] = checksum(&words[..8]);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(&path, &bytes).unwrap();
        let err = FactorStore::open(&path, SourceKind::Ram).unwrap_err();
        assert!(matches!(err, ServeError::Version { found: 9 }), "{err}");
        assert!(err.to_string().contains("newer than this build"), "{err}");

        // Truncation → size mismatch, not a panic.
        std::fs::write(&path, &good[..good.len() - 8]).unwrap();
        assert!(FactorStore::open(&path, SourceKind::Mmap).is_err());

        // Neither format at all.
        std::fs::write(&path, b"what even is this").unwrap();
        let err = FactorStore::open(&path, SourceKind::Ram).unwrap_err();
        assert!(err.to_string().contains("neither"), "{err}");

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_keeps_the_v1_multiplier() {
        // Pinned so stores written by earlier builds keep opening.
        assert_eq!(checksum(&[0x0123_4567_89ab_cdef]), 0xf0dc_8333_4776_1c55);
    }

    /// A header-only store with valid checksums claiming `dims` and `rank`.
    fn header_only_store(path: &Path, dims: [u64; 3], rank: u64) {
        let mut words = [STORE_MAGIC, STORE_FORMAT_VERSION, 1, 0, 0, 0, rank, 0, 0];
        words[3..6].copy_from_slice(&dims);
        words[7] = checksum(&[]);
        words[8] = checksum(&words[..8]);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(path, bytes).unwrap();
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
