//! On-disk columnar unfolding format (`DBTFUNFD` v1) and its mmap reader.
//!
//! The file holds one mode-n unfolding as a per-row offset index plus one
//! packed array of sorted `u64` column indices — the same CSR shape the
//! heap [`Unfolding`](crate::Unfolding) keeps in memory, so rows can be
//! served straight out of a read-only memory map without parsing:
//!
//! ```text
//! byte 0      magic            [u8; 8] = "DBTFUNFD"
//! byte 8      version          u32 LE  (currently 1)
//! byte 12     mode             u32 LE  (0, 1, 2)
//! byte 16     dims             3 × u64 LE (original tensor shape I, J, K)
//! byte 40     nrows            u64 LE  (= dims[mode])
//! byte 48     ncols            u64 LE  (= product of the other two dims)
//! byte 56     nnz              u64 LE
//! byte 64     index_off        u64 LE  (= 4096)
//! byte 72     data_off         u64 LE  (page-aligned)
//! byte 80     data_checksum    u64 LE  (FNV-1a over the data section)
//! byte 88     index_checksum   u64 LE  (FNV-1a over the index section)
//! byte 96     header_checksum  u64 LE  (FNV-1a over bytes 0..96)
//! byte 104    zero padding to 4096
//! index_off   row index        (nrows + 1) × u64 LE prefix counts
//! data_off    column data      nnz × u64 LE sorted column indices per row
//! ```
//!
//! Row `r` of the unfolding is `data[index[r] .. index[r + 1]]`. Both
//! sections start on a 4096-byte page boundary, so on a little-endian unix
//! the reader maps the file once and returns `&[u64]` row slices borrowed
//! directly from the page cache — zero copies, zero allocation, and the
//! kernel pages data in and out on demand (see [`MmapUnfolding::evict`]).
//! Elsewhere the reader falls back to decoding the file into a heap buffer,
//! which preserves every observable behaviour except the memory bound.
//!
//! Header and index checksums are verified on open (cheap: one page plus
//! `O(nrows)` words); the data checksum is verified on demand by
//! [`MmapUnfolding::verify_data`] so that opening a large file does not
//! fault in the whole data section.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::mmap_sys::FileWords;
use crate::store::{StoreError, UnfoldingStore};
use crate::unfold::Mode;

/// Magic bytes identifying a columnar unfolding file.
pub const UNFOLDING_MAGIC: [u8; 8] = *b"DBTFUNFD";
/// The single format version this build reads and writes.
pub const UNFOLDING_VERSION: u32 = 1;
/// Alignment of the index and data sections.
const PAGE: u64 = 4096;
/// Bytes of meaningful header before the zero padding.
const HEADER_BYTES: usize = 104;
/// The writer's buffer for the column data. A spilled mode is millions of
/// 8-byte pushes, which a 64 KiB buffer writes measurably faster than the
/// default 8 KiB (EXPERIMENTS.md, "One cut for both storages").
const WRITE_BUFFER: usize = 64 << 10;

#[inline]
fn align_page(x: u64) -> u64 {
    x.div_ceil(PAGE) * PAGE
}

/// The 64-bit FNV prime: the multiplier of every `DBTFUNFD` checksum.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Incremental 64-bit FNV-1a under multiplier `prime` ([`FNV_PRIME`]
/// gives the golden-test fingerprint hash).
#[derive(Clone)]
struct Fnv {
    hash: u64,
    /// `powers[n]` = `prime^n`, so `powers[1]` is the prime itself.
    powers: [u64; 9],
}

impl Fnv {
    fn new(prime: u64) -> Self {
        let mut powers = [1u64; 9];
        for n in 1..powers.len() {
            powers[n] = powers[n - 1].wrapping_mul(prime);
        }
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            powers,
        }
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(self.powers[1]);
        }
    }

    /// `update(&word.to_le_bytes())` with fewer dependent multiplies: a
    /// zero byte leaves the XOR unchanged, so the word's high zero bytes
    /// fold into one multiply by a power of the prime. Column indices and
    /// row offsets rarely need more than three or four bytes, so this
    /// halves the cost of a section checksum.
    fn update_word(&mut self, word: u64) {
        let len = 8 - (word.leading_zeros() / 8) as usize;
        let mut rest = word;
        for _ in 0..len {
            self.hash ^= rest & 0xff;
            self.hash = self.hash.wrapping_mul(self.powers[1]);
            rest >>= 8;
        }
        self.hash = self.hash.wrapping_mul(self.powers[8 - len]);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// FNV-1a over a word slice under multiplier `prime`, hashing each word's
/// little-endian bytes so the digest equals a byte-wise hash of the
/// on-disk section on any host. The checksum of both word-aligned file
/// formats: `DBTFUNFD` sections here (with [`FNV_PRIME`]) and the
/// `DBTFFSET` factor-set file of checkpoints and stores (with the
/// multiplier its v1 format fixed).
pub fn fnv_words(words: &[u64], prime: u64) -> u64 {
    let mut h = Fnv::new(prime);
    for &w in words {
        h.update_word(w);
    }
    h.finish()
}

/// The parsed, validated header of a columnar unfolding file.
///
/// Obtainable via [`read_header`] from the first page alone — `dbtf stats`
/// uses this to report shape/nnz/density without touching the data section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnfoldingHeader {
    /// The mode the stored unfolding was taken along.
    pub mode: Mode,
    /// Shape of the original tensor.
    pub dims: [usize; 3],
    /// Number of rows (= `dims[mode]`).
    pub nrows: usize,
    /// Number of columns (product of the other two dims).
    pub ncols: u64,
    /// Total number of ones.
    pub nnz: u64,
    /// Byte offset of the row index section.
    pub index_off: u64,
    /// Byte offset of the column data section.
    pub data_off: u64,
    /// Stored FNV-1a digest of the data section.
    pub data_checksum: u64,
    /// Stored FNV-1a digest of the index section.
    pub index_checksum: u64,
}

fn rd_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}

fn rd_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

/// Reads and validates the header page of a columnar unfolding file.
///
/// Touches only the first 4096 bytes. Returns the typed [`StoreError`]
/// variant describing the first problem found: [`StoreError::BadMagic`],
/// [`StoreError::Truncated`], [`StoreError::VersionSkew`],
/// [`StoreError::ChecksumMismatch`] or [`StoreError::Invalid`].
pub fn read_header(path: &Path) -> Result<UnfoldingHeader, StoreError> {
    let mut file = File::open(path).map_err(|e| StoreError::io(path, e))?;
    read_header_from(&mut file, path)
}

fn read_header_from(file: &mut File, path: &Path) -> Result<UnfoldingHeader, StoreError> {
    let p = || path.display().to_string();
    let mut buf = [0u8; HEADER_BYTES];
    let mut filled = 0;
    while filled < HEADER_BYTES {
        let n = file
            .read(&mut buf[filled..])
            .map_err(|e| StoreError::io(path, e))?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    if filled < UNFOLDING_MAGIC.len() || buf[..8] != UNFOLDING_MAGIC {
        return Err(StoreError::BadMagic { path: p() });
    }
    if filled < HEADER_BYTES {
        return Err(StoreError::Truncated {
            path: p(),
            section: "header",
        });
    }
    let version = rd_u32(&buf, 8);
    if version != UNFOLDING_VERSION {
        return Err(StoreError::VersionSkew {
            path: p(),
            found: version,
            supported: UNFOLDING_VERSION,
        });
    }
    let mut h = Fnv::new(FNV_PRIME);
    h.update(&buf[..96]);
    if h.finish() != rd_u64(&buf, 96) {
        return Err(StoreError::ChecksumMismatch {
            path: p(),
            section: "header",
        });
    }
    let mode = match rd_u32(&buf, 12) {
        0 => Mode::One,
        1 => Mode::Two,
        2 => Mode::Three,
        m => {
            return Err(StoreError::Invalid {
                path: p(),
                detail: format!("mode field is {m}, expected 0..3"),
            });
        }
    };
    let dims_u64 = [rd_u64(&buf, 16), rd_u64(&buf, 24), rd_u64(&buf, 32)];
    if dims_u64.iter().any(|&d| d > usize::MAX as u64) {
        return Err(StoreError::Invalid {
            path: p(),
            detail: "dimension exceeds usize".into(),
        });
    }
    let dims = [
        dims_u64[0] as usize,
        dims_u64[1] as usize,
        dims_u64[2] as usize,
    ];
    let header = UnfoldingHeader {
        mode,
        dims,
        nrows: rd_u64(&buf, 40) as usize,
        ncols: rd_u64(&buf, 48),
        nnz: rd_u64(&buf, 56),
        index_off: rd_u64(&buf, 64),
        data_off: rd_u64(&buf, 72),
        data_checksum: rd_u64(&buf, 80),
        index_checksum: rd_u64(&buf, 88),
    };
    let index_len = 8 * (header.nrows as u64 + 1);
    if header.nrows != mode.nrows(dims)
        || header.ncols != mode.ncols(dims)
        || header.index_off != PAGE
        || header.data_off != align_page(header.index_off + index_len)
    {
        return Err(StoreError::Invalid {
            path: p(),
            detail: "header geometry is inconsistent with dims/mode".into(),
        });
    }
    Ok(header)
}

/// Streaming single-pass writer for the columnar unfolding format.
///
/// Entries arrive as `(row, col)` pairs with rows non-decreasing and
/// columns strictly increasing within a row — exactly what the external
/// merge sort in [`crate::stream`] emits. Column data streams to disk as it
/// arrives; the `O(nrows)` offset index is the only in-memory state, so the
/// writer's footprint is bounded by the row count, never the nonzero count.
pub struct UnfoldingWriter {
    path: PathBuf,
    file: std::io::BufWriter<File>,
    mode: Mode,
    dims: [usize; 3],
    nrows: usize,
    ncols: u64,
    index_off: u64,
    data_off: u64,
    /// `offsets[r]` = number of entries in rows `0..r`; grown as rows close.
    offsets: Vec<u64>,
    nnz: u64,
    last: Option<(u32, u64)>,
    data_fnv: Fnv,
}

impl UnfoldingWriter {
    /// Creates `path` (truncating any existing file) and prepares to stream
    /// the mode-`mode` unfolding of a tensor with shape `dims`.
    pub fn create(path: &Path, mode: Mode, dims: [usize; 3]) -> Result<Self, StoreError> {
        let nrows = mode.nrows(dims);
        let index_off = PAGE;
        let data_off = align_page(index_off + 8 * (nrows as u64 + 1));
        let mut file = File::create(path).map_err(|e| StoreError::io(path, e))?;
        file.seek(SeekFrom::Start(data_off))
            .map_err(|e| StoreError::io(path, e))?;
        let mut offsets = Vec::with_capacity(nrows + 1);
        offsets.push(0);
        Ok(UnfoldingWriter {
            path: path.to_path_buf(),
            file: std::io::BufWriter::with_capacity(WRITE_BUFFER, file),
            mode,
            dims,
            nrows,
            ncols: mode.ncols(dims),
            index_off,
            data_off,
            offsets,
            nnz: 0,
            last: None,
            data_fnv: Fnv::new(FNV_PRIME),
        })
    }

    fn invalid(&self, detail: String) -> StoreError {
        StoreError::Invalid {
            path: self.path.display().to_string(),
            detail,
        }
    }

    /// Appends one `(row, col)` entry. Rows must be non-decreasing, columns
    /// strictly increasing within a row, and both in range.
    pub fn push(&mut self, row: u32, col: u64) -> Result<(), StoreError> {
        if (row as usize) >= self.nrows || col >= self.ncols {
            return Err(self.invalid(format!(
                "entry ({row}, {col}) out of range for {} x {}",
                self.nrows, self.ncols
            )));
        }
        match self.last {
            Some((r, c)) if row < r || (row == r && col <= c) => {
                return Err(self.invalid(format!(
                    "entry ({row}, {col}) arrived after ({r}, {c}); \
                     writer requires sorted, duplicate-free input"
                )));
            }
            _ => {}
        }
        // Close out any rows skipped between the previous entry and this one.
        while self.offsets.len() <= row as usize {
            self.offsets.push(self.nnz);
        }
        let bytes = col.to_le_bytes();
        self.file
            .write_all(&bytes)
            .map_err(|e| StoreError::io(&self.path, e))?;
        self.data_fnv.update_word(col);
        self.nnz += 1;
        self.last = Some((row, col));
        Ok(())
    }

    /// Flushes the data section, then writes the row index and header.
    /// Returns the total nonzero count written.
    pub fn finish(mut self) -> Result<u64, StoreError> {
        while self.offsets.len() <= self.nrows {
            self.offsets.push(self.nnz);
        }
        let mut file = self
            .file
            .into_inner()
            .map_err(|e| StoreError::io(&self.path, e.into_error()))?;
        // Exact length even when the last section is empty (nnz == 0).
        file.set_len(self.data_off + 8 * self.nnz)
            .map_err(|e| StoreError::io(&self.path, e))?;
        file.seek(SeekFrom::Start(self.index_off))
            .map_err(|e| StoreError::io(&self.path, e))?;
        let mut index_fnv = Fnv::new(FNV_PRIME);
        let mut w = std::io::BufWriter::new(&mut file);
        for &off in &self.offsets {
            let bytes = off.to_le_bytes();
            w.write_all(&bytes)
                .map_err(|e| StoreError::io(&self.path, e))?;
            index_fnv.update_word(off);
        }
        w.flush().map_err(|e| StoreError::io(&self.path, e))?;
        drop(w);

        let mut header = [0u8; HEADER_BYTES];
        header[..8].copy_from_slice(&UNFOLDING_MAGIC);
        header[8..12].copy_from_slice(&UNFOLDING_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(self.mode.index() as u32).to_le_bytes());
        for (d, off) in self.dims.iter().zip([16usize, 24, 32]) {
            header[off..off + 8].copy_from_slice(&(*d as u64).to_le_bytes());
        }
        header[40..48].copy_from_slice(&(self.nrows as u64).to_le_bytes());
        header[48..56].copy_from_slice(&self.ncols.to_le_bytes());
        header[56..64].copy_from_slice(&self.nnz.to_le_bytes());
        header[64..72].copy_from_slice(&self.index_off.to_le_bytes());
        header[72..80].copy_from_slice(&self.data_off.to_le_bytes());
        header[80..88].copy_from_slice(&self.data_fnv.finish().to_le_bytes());
        header[88..96].copy_from_slice(&index_fnv.finish().to_le_bytes());
        let mut h = Fnv::new(FNV_PRIME);
        h.update(&header[..96]);
        header[96..104].copy_from_slice(&h.finish().to_le_bytes());
        file.seek(SeekFrom::Start(0))
            .map_err(|e| StoreError::io(&self.path, e))?;
        file.write_all(&header)
            .map_err(|e| StoreError::io(&self.path, e))?;
        file.flush().map_err(|e| StoreError::io(&self.path, e))?;
        Ok(self.nnz)
    }
}

/// An on-disk mode-n unfolding served through [`UnfoldingStore`].
///
/// Opened read-only from a file written by [`UnfoldingWriter`]; rows are
/// `&[u64]` slices borrowed from the mapping, so reading a partition's
/// column window touches only the pages that hold it.
pub struct MmapUnfolding {
    path: PathBuf,
    header: UnfoldingHeader,
    backing: FileWords,
    index_word: usize,
    data_word: usize,
}

impl std::fmt::Debug for MmapUnfolding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapUnfolding")
            .field("path", &self.path)
            .field("mode", &self.header.mode)
            .field("dims", &self.header.dims)
            .field("nnz", &self.header.nnz)
            .finish()
    }
}

impl MmapUnfolding {
    /// Opens and validates a columnar unfolding file.
    ///
    /// Header and row-index checksums are verified here; the data section is
    /// left to on-demand paging (see [`MmapUnfolding::verify_data`]).
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::open(path).map_err(|e| StoreError::io(path, e))?;
        let header = read_header_from(&mut file, path)?;
        let p = || path.display().to_string();
        let file_len = file.metadata().map_err(|e| StoreError::io(path, e))?.len();
        let index_end = header.index_off + 8 * (header.nrows as u64 + 1);
        if file_len < index_end {
            return Err(StoreError::Truncated {
                path: p(),
                section: "row index",
            });
        }
        let needed = header.data_off + 8 * header.nnz;
        if file_len < needed {
            return Err(StoreError::Truncated {
                path: p(),
                section: "column data",
            });
        }
        // Unfolding files are written once (`UnfoldingWriter`) and never
        // modified in place, and the file holds `needed` bytes (checked
        // above), as the map requires.
        let backing =
            FileWords::map(&file, needed as usize).map_err(|e| StoreError::io(path, e))?;
        let store = MmapUnfolding {
            path: path.to_path_buf(),
            index_word: (header.index_off / 8) as usize,
            data_word: (header.data_off / 8) as usize,
            header,
            backing,
        };
        let index = store.index();
        if fnv_words(index, FNV_PRIME) != header.index_checksum {
            return Err(StoreError::ChecksumMismatch {
                path: p(),
                section: "row index",
            });
        }
        if index[0] != 0
            || index[header.nrows] != header.nnz
            || index.windows(2).any(|w| w[0] > w[1])
        {
            return Err(StoreError::Invalid {
                path: p(),
                detail: "row index is not a monotone prefix-count array".into(),
            });
        }
        Ok(store)
    }

    /// Streams an existing store into a new columnar file at `path` and
    /// returns the number of entries written.
    pub fn write_from_store<S: UnfoldingStore>(store: &S, path: &Path) -> Result<u64, StoreError> {
        let mut w = UnfoldingWriter::create(path, store.mode(), store.tensor_dims())?;
        for r in 0..store.nrows() {
            for &c in store.row(r) {
                w.push(r as u32, c)?;
            }
        }
        w.finish()
    }

    /// The file this store reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The validated header (shape, counts, offsets, checksums).
    pub fn header(&self) -> &UnfoldingHeader {
        &self.header
    }

    /// The row index: `index()[r]..index()[r + 1]` are the data-section
    /// word positions of row `r`'s columns (`nrows + 1` prefix counts).
    /// Reading it touches only the index pages, so header/index-level
    /// inspection (e.g. `dbtf stats`) never faults in the column data.
    pub fn index(&self) -> &[u64] {
        &self.backing.words()[self.index_word..self.index_word + self.header.nrows + 1]
    }

    fn data(&self) -> &[u64] {
        &self.backing.words()[self.data_word..self.data_word + self.header.nnz as usize]
    }

    /// Recomputes the data-section checksum (faults in the whole data
    /// section). Returns [`StoreError::ChecksumMismatch`] on corruption.
    pub fn verify_data(&self) -> Result<(), StoreError> {
        if fnv_words(self.data(), FNV_PRIME) != self.header.data_checksum {
            return Err(StoreError::ChecksumMismatch {
                path: self.path.display().to_string(),
                section: "column data",
            });
        }
        Ok(())
    }

    /// Drops the store's resident pages back to the kernel (best-effort;
    /// no-op on the heap fallback). Subsequent reads re-fault from the file.
    ///
    /// The `scaling_memory` harness calls this between partitions so its
    /// peak RSS tracks the partition being built, not the whole file. The
    /// driver does not call it: it cuts partitions from the tensor and
    /// only writes and re-reads the file.
    pub fn evict(&self) {
        self.backing.evict();
    }
}

impl UnfoldingStore for MmapUnfolding {
    #[inline]
    fn mode(&self) -> Mode {
        self.header.mode
    }

    #[inline]
    fn tensor_dims(&self) -> [usize; 3] {
        self.header.dims
    }

    #[inline]
    fn nrows(&self) -> usize {
        self.header.nrows
    }

    #[inline]
    fn ncols(&self) -> u64 {
        self.header.ncols
    }

    #[inline]
    fn nnz(&self) -> u64 {
        self.header.nnz
    }

    #[inline]
    fn row(&self, r: usize) -> &[u64] {
        let index = self.index();
        let (a, b) = (index[r] as usize, index[r + 1] as usize);
        &self.data()[a..b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BoolTensor, Unfolding};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dbtf-columnar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> BoolTensor {
        BoolTensor::from_entries(
            [5, 4, 3],
            vec![
                [0, 0, 0],
                [4, 3, 2],
                [0, 1, 2],
                [1, 0, 0],
                [0, 2, 1],
                [3, 3, 0],
                [3, 0, 2],
                [2, 2, 2],
            ],
        )
    }

    fn write_sample(mode: Mode, name: &str) -> PathBuf {
        let path = tmp(name);
        let u = Unfolding::new(&sample(), mode);
        MmapUnfolding::write_from_store(&u, &path).unwrap();
        path
    }

    #[test]
    fn roundtrips_all_modes_bit_for_bit() {
        let t = sample();
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            let path = tmp(&format!("roundtrip-{}.unf", mode.index()));
            let written = MmapUnfolding::write_from_store(&u, &path).unwrap();
            assert_eq!(written, t.nnz() as u64);
            let m = MmapUnfolding::open(&path).unwrap();
            assert_eq!(m.mode(), mode);
            assert_eq!(m.tensor_dims(), t.dims());
            assert_eq!(UnfoldingStore::nrows(&m), Unfolding::nrows(&u));
            assert_eq!(UnfoldingStore::ncols(&m), Unfolding::ncols(&u));
            assert_eq!(UnfoldingStore::nnz(&m), t.nnz() as u64);
            for r in 0..Unfolding::nrows(&u) {
                assert_eq!(UnfoldingStore::row(&m, r), Unfolding::row(&u, r));
                let probe = [0u64, 1, 2, Unfolding::ncols(&u)];
                for &lo in &probe {
                    for &hi in &probe {
                        assert_eq!(
                            UnfoldingStore::row_range(&m, r, lo, hi),
                            Unfolding::row_range(&u, r, lo, hi.max(lo)),
                            "mode {mode:?} row {r} [{lo}, {hi})"
                        );
                    }
                }
            }
            m.verify_data().unwrap();
            m.evict();
            assert_eq!(UnfoldingStore::row(&m, 0), Unfolding::row(&u, 0));
        }
    }

    /// The word form of the checksum equals the byte-wise FNV-1a of each
    /// word's little-endian bytes, for every count of significant bytes and
    /// under both multipliers in use (this format's and the serving store's).
    #[test]
    fn word_checksum_equals_bytewise_fnv() {
        let mut words = vec![0u64, u64::MAX];
        for shift in 0..64 {
            words.extend([1 << shift, (1 << shift) - 1, 0x9e37_79b9_7f4a_7c15 >> shift]);
        }
        for prime in [FNV_PRIME, 0x1000_0000_01b3] {
            let mut all = Fnv::new(prime);
            for &w in &words {
                let (mut word, mut bytes) = (Fnv::new(prime), Fnv::new(prime));
                word.update_word(w);
                bytes.update(&w.to_le_bytes());
                assert_eq!(word.finish(), bytes.finish(), "word {w:#x}");
                all.update(&w.to_le_bytes());
            }
            assert_eq!(fnv_words(&words, prime), all.finish());
        }
        // The published FNV-1a 64 test vector for "a".
        let mut a = Fnv::new(FNV_PRIME);
        a.update(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn empty_unfolding_roundtrips() {
        let t = BoolTensor::from_entries([3, 2, 2], vec![]);
        let u = Unfolding::new(&t, Mode::Two);
        let path = tmp("empty.unf");
        MmapUnfolding::write_from_store(&u, &path).unwrap();
        let m = MmapUnfolding::open(&path).unwrap();
        assert_eq!(UnfoldingStore::nnz(&m), 0);
        for r in 0..2 {
            assert!(UnfoldingStore::row(&m, r).is_empty());
        }
        m.verify_data().unwrap();
    }

    #[test]
    fn header_only_read_reports_shape() {
        let path = write_sample(Mode::Three, "header.unf");
        let h = read_header(&path).unwrap();
        assert_eq!(h.mode, Mode::Three);
        assert_eq!(h.dims, [5, 4, 3]);
        assert_eq!(h.nrows, 3);
        assert_eq!(h.ncols, 20);
        assert_eq!(h.nnz, 8);
    }

    #[test]
    fn writer_rejects_unsorted_and_out_of_range_input() {
        let path = tmp("reject.unf");
        let mut w = UnfoldingWriter::create(&path, Mode::One, [4, 3, 2]).unwrap();
        w.push(1, 3).unwrap();
        // Duplicate column in the same row.
        assert!(matches!(w.push(1, 3), Err(StoreError::Invalid { .. })));
        // Column going backwards within a row.
        assert!(matches!(w.push(1, 2), Err(StoreError::Invalid { .. })));
        // Row going backwards.
        assert!(matches!(w.push(0, 0), Err(StoreError::Invalid { .. })));
        // Out-of-range row and column (ncols = 3 * 2 = 6).
        assert!(matches!(w.push(4, 0), Err(StoreError::Invalid { .. })));
        assert!(matches!(w.push(2, 6), Err(StoreError::Invalid { .. })));
        // Still usable after rejections, and skipped rows close correctly.
        w.push(3, 5).unwrap();
        w.finish().unwrap();
        let m = MmapUnfolding::open(&path).unwrap();
        assert_eq!(UnfoldingStore::row(&m, 0), &[] as &[u64]);
        assert_eq!(UnfoldingStore::row(&m, 1), &[3]);
        assert_eq!(UnfoldingStore::row(&m, 2), &[] as &[u64]);
        assert_eq!(UnfoldingStore::row(&m, 3), &[5]);
    }

    fn corrupt(path: &Path, offset: u64, new: &[u8]) {
        use std::fs::OpenOptions;
        let mut f = OpenOptions::new().write(true).open(path).unwrap();
        f.seek(SeekFrom::Start(offset)).unwrap();
        f.write_all(new).unwrap();
    }

    #[test]
    fn corrupt_magic_is_bad_magic() {
        let path = write_sample(Mode::One, "badmagic.unf");
        corrupt(&path, 0, b"NOTDBTF!");
        assert!(matches!(
            MmapUnfolding::open(&path),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn tiny_garbage_file_is_bad_magic() {
        let path = tmp("garbage.unf");
        std::fs::write(&path, b"hi").unwrap();
        assert!(matches!(
            MmapUnfolding::open(&path),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_skew_is_typed() {
        let path = write_sample(Mode::One, "version.unf");
        corrupt(&path, 8, &99u32.to_le_bytes());
        match MmapUnfolding::open(&path) {
            Err(StoreError::VersionSkew {
                found, supported, ..
            }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, UNFOLDING_VERSION);
            }
            other => panic!("expected VersionSkew, got {other:?}"),
        }
    }

    #[test]
    fn header_bit_flip_is_checksum_mismatch() {
        let path = write_sample(Mode::One, "hdrflip.unf");
        // Flip a dims byte; the header checksum must catch it.
        corrupt(&path, 17, &[0xff]);
        assert!(matches!(
            MmapUnfolding::open(&path),
            Err(StoreError::ChecksumMismatch {
                section: "header",
                ..
            })
        ));
    }

    #[test]
    fn truncated_header_is_typed() {
        let path = write_sample(Mode::One, "trunchdr.unf");
        let f = File::options().write(true).open(&path).unwrap();
        f.set_len(40).unwrap();
        assert!(matches!(
            MmapUnfolding::open(&path),
            Err(StoreError::Truncated {
                section: "header",
                ..
            })
        ));
    }

    #[test]
    fn truncated_index_is_typed() {
        let path = write_sample(Mode::One, "truncidx.unf");
        let f = File::options().write(true).open(&path).unwrap();
        // Header page survives; the row index (5 rows -> 48 bytes) does not.
        f.set_len(PAGE + 16).unwrap();
        assert!(matches!(
            MmapUnfolding::open(&path),
            Err(StoreError::Truncated {
                section: "row index",
                ..
            })
        ));
    }

    #[test]
    fn truncated_data_is_typed() {
        let path = write_sample(Mode::One, "truncdata.unf");
        let h = read_header(&path).unwrap();
        let f = File::options().write(true).open(&path).unwrap();
        f.set_len(h.data_off + 8 * (h.nnz - 1)).unwrap();
        assert!(matches!(
            MmapUnfolding::open(&path),
            Err(StoreError::Truncated {
                section: "column data",
                ..
            })
        ));
    }

    #[test]
    fn index_bit_flip_is_checksum_mismatch() {
        let path = write_sample(Mode::One, "idxflip.unf");
        let h = read_header(&path).unwrap();
        corrupt(&path, h.index_off + 8, &[0xaa]);
        assert!(matches!(
            MmapUnfolding::open(&path),
            Err(StoreError::ChecksumMismatch {
                section: "row index",
                ..
            })
        ));
    }

    #[test]
    fn data_bit_flip_caught_by_verify_data() {
        let path = write_sample(Mode::One, "dataflip.unf");
        let h = read_header(&path).unwrap();
        corrupt(&path, h.data_off, &[0x55]);
        let m = MmapUnfolding::open(&path).unwrap();
        assert!(matches!(
            m.verify_data(),
            Err(StoreError::ChecksumMismatch {
                section: "column data",
                ..
            })
        ));
    }

    #[test]
    fn missing_file_is_io() {
        let path = tmp("does-not-exist.unf");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            MmapUnfolding::open(&path),
            Err(StoreError::Io { .. })
        ));
    }
}
