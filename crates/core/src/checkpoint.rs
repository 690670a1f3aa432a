//! Factor-set files: the checkpoints of crash-resumable runs, and the
//! stores `dbtf serve` loads.
//!
//! The paper's Spark implementation can lean on lineage for everything; a
//! long-running driver process, however, survives *driver* restarts only by
//! persisting the iteration state. [`factorize`](crate::factorize) writes a
//! [`Checkpoint`] every [`DbtfConfig::checkpoint_every`](crate::DbtfConfig)
//! completed iterations and can resume from it: because the RNG is consumed
//! only by initialization, iterations ≥ 2 are pure functions of the factor
//! state, so a resumed run reproduces the uninterrupted run bit for bit.
//!
//! # The `DBTFFSET` file format
//!
//! Every factor set on disk — a run's checkpoint, and the store that
//! `dbtf export-factors` or `dbtf update` writes — is one `DBTFFSET` file,
//! read and written by [`FactorSetFile`] alone. Everything is a
//! little-endian `u64` word, so a mapped file can be viewed as one
//! `&[u64]` (the same trick as the `DBTFUNFD` columnar unfolding):
//!
//! ```text
//! word 0      magic            "DBTFFSET" (8 ASCII bytes)
//! word 1      format_version   2 (1 is read too)
//! word 2      set_version      caller-assigned factor-set version
//! word 3..=5  I, J, K          factor row counts (tensor dims)
//! word 6      R                rank (columns per factor)
//! word 7      data_checksum    FNV-1a over every word after the header*
//! word 8      header_checksum  FNV-1a over words 0..=7*
//! word 9..    A rows, then B rows, then C rows — each row is
//!             ceil(R/64) packed words, row-major
//! then        n                length of the iteration-error history (v2)
//! then        n words          error after each completed iteration (v2)
//! ```
//!
//! \* Over the words' little-endian bytes, with the v1 multiplier
//! `0x1000_0000_01b3` in place of the FNV prime.
//!
//! Version 1 files end after the C rows: they have no `n` and no history,
//! so their data checksum covers just the rows. This build writes version
//! 2 only and reads both. A **checkpoint** is a file with `n ≥ 1`: its
//! iteration count is `n`, its error the last history entry, and its set
//! version `n`, so later checkpoints supersede earlier ones. A plain factor
//! set has `n = 0`. Both checksums are verified on open, and `n` is checked
//! against the file length before anything is sized from it. Files are
//! written atomically and durably, so a crash mid-write never corrupts the
//! previous file.
//!
//! Older builds wrote checkpoints as `DBTFCKPT v1` text. This build does
//! not read them: opening one is a typed
//! [`FactorSetError::TextCheckpoint`] naming the format.

use std::fs::File;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;

use dbtf_tensor::columnar::fnv_words;
use dbtf_tensor::mmap_sys::FileWords;
use dbtf_tensor::BitMatrix;

use crate::config::DbtfError;
use crate::factors::FactorSet;

/// Magic word: `b"DBTFFSET"` as a little-endian `u64`.
const FACTOR_SET_MAGIC: u64 = u64::from_le_bytes(*b"DBTFFSET");
/// The format version this build writes and the newest it reads.
const FACTOR_SET_VERSION: u64 = 2;
/// Words before the factor rows begin.
const HEADER_WORDS: usize = 9;
/// The multiplier of both `DBTFFSET` checksums. It is not the FNV prime
/// ([`dbtf_tensor::columnar::FNV_PRIME`], one hex digit shorter), but v1
/// fixed it: every store written so far is checksummed with it.
const CHECKSUM_PRIME: u64 = 0x1000_0000_01b3;
/// The leading bytes of the text checkpoints older builds wrote.
const TEXT_CHECKPOINT_MAGIC: &[u8; 8] = b"DBTFCKPT";

/// The `DBTFFSET` checksum of `words`.
fn checksum(words: &[u64]) -> u64 {
    fnv_words(words, CHECKSUM_PRIME)
}

/// Failure to read or write a factor-set file.
#[derive(Debug)]
pub enum FactorSetError {
    /// Underlying I/O failure, with the path for context.
    Io(String),
    /// The file exists but is not a well-formed `DBTFFSET` file, or the
    /// factor set cannot be stored as one.
    Format(String),
    /// The file is from a newer format version.
    Version {
        /// The file.
        path: String,
        /// The version found in the file header.
        found: u64,
    },
    /// The file (path given) is a `DBTFCKPT` text checkpoint from an older
    /// build.
    TextCheckpoint(String),
}

impl std::fmt::Display for FactorSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorSetError::Io(msg) => write!(f, "factor store I/O error: {msg}"),
            FactorSetError::Format(msg) => write!(f, "malformed factor store: {msg}"),
            FactorSetError::Version { path, found } => write!(
                f,
                "{path}: factor store format v{found} is newer than this build \
                 supports (max v{FACTOR_SET_VERSION}); re-export it with a matching build"
            ),
            FactorSetError::TextCheckpoint(path) => write!(
                f,
                "{path}: a DBTFCKPT text checkpoint, a format this build no longer \
                 reads; re-run the factorization, or export the file with an older \
                 build's `dbtf export-factors`"
            ),
        }
    }
}

impl std::error::Error for FactorSetError {}

/// The first (up to) eight bytes of `file`.
fn leading_bytes(file: &File) -> std::io::Result<Vec<u8>> {
    let mut head = Vec::with_capacity(8);
    file.take(8).read_to_end(&mut head)?;
    Ok(head)
}

/// Whether `path` starts with the `DBTFFSET` magic, or with the
/// `DBTFCKPT` one of older builds' text checkpoints, which
/// [`FactorSetFile::open`] refuses with its own typed error.
pub fn is_factor_set_file(path: &Path) -> bool {
    File::open(path)
        .and_then(|file| leading_bytes(&file))
        .is_ok_and(|head| head == FACTOR_SET_MAGIC.to_le_bytes() || head == TEXT_CHECKPOINT_MAGIC)
}

/// A verified `DBTFFSET` image: the whole file as words (header, factor
/// rows and history), mapped or on the heap, with its header decoded.
pub struct FactorSetFile {
    words: FileWords,
    format_version: u64,
    set_version: u64,
    dims: [usize; 3],
    rank: usize,
    /// Words per factor row: `ceil(rank / 64)`.
    wpr: usize,
    /// Word offset of the first row of each factor.
    row_base: [usize; 3],
    /// Word range of the iteration-error history.
    history: Range<usize>,
}

impl FactorSetFile {
    /// Lays out `factors` as a version-2 image with the given set version
    /// and iteration-error history (empty for a plain factor set).
    pub fn encode(set_version: u64, factors: &FactorSet, history: &[u64]) -> FactorSetFile {
        let rank = factors.rank();
        let wpr = rank.div_ceil(64);
        let matrices = [&factors.a, &factors.b, &factors.c];
        let dims = matrices.map(BitMatrix::rows);
        let rows_end = HEADER_WORDS + dims.iter().sum::<usize>() * wpr;
        let mut words = Vec::with_capacity(rows_end + 1 + history.len());
        words.extend([
            FACTOR_SET_MAGIC,
            FACTOR_SET_VERSION,
            set_version,
            dims[0] as u64,
            dims[1] as u64,
            dims[2] as u64,
            rank as u64,
            0,
            0,
        ]);
        for m in matrices {
            debug_assert_eq!(m.cols(), rank, "the three factors share one rank");
            for r in 0..m.rows() {
                words.extend_from_slice(m.row(r));
            }
        }
        words.push(history.len() as u64);
        words.extend_from_slice(history);
        words[7] = checksum(&words[HEADER_WORDS..]);
        words[8] = checksum(&words[..8]);
        let len = words.len();
        FactorSetFile {
            words: FileWords::from_vec(words),
            format_version: FACTOR_SET_VERSION,
            set_version,
            dims,
            rank,
            wpr,
            row_base: row_bases(dims, wpr),
            history: rows_end + 1..len,
        }
    }

    /// Opens and verifies the `DBTFFSET` file at `path`, mapped read-only
    /// if `map` (where the target has maps), else read onto the heap.
    ///
    /// # Errors
    ///
    /// [`FactorSetError::TextCheckpoint`] for an older build's text
    /// checkpoint, [`FactorSetError::Version`] for a newer format, and
    /// [`FactorSetError::Format`] for anything else that is not a
    /// complete, checksum-clean `DBTFFSET` file.
    pub fn open(path: &Path, map: bool) -> Result<FactorSetFile, FactorSetError> {
        let io_err = |e: std::io::Error| FactorSetError::Io(format!("{}: {e}", path.display()));
        let file = File::open(path).map_err(io_err)?;
        if leading_bytes(&file).map_err(io_err)? == TEXT_CHECKPOINT_MAGIC {
            return Err(FactorSetError::TextCheckpoint(path.display().to_string()));
        }
        // A length past `usize` fails the word-multiple check below.
        let len = usize::try_from(file.metadata().map_err(io_err)?.len()).unwrap_or(usize::MAX);
        if !len.is_multiple_of(8) || len < HEADER_WORDS * 8 {
            return Err(FactorSetError::Format(format!(
                "{}: file is {len} bytes, not a word multiple with a header",
                path.display()
            )));
        }
        // Factor-set files are written once, by temp file and rename, and
        // never modified in place, and `len` is the file's length, as the
        // map requires.
        let words = if map {
            FileWords::map(&file, len)
        } else {
            FileWords::read(&file, len)
        };
        FactorSetFile::verify(words.map_err(io_err)?, path)
    }

    /// Decodes and checks the header, the layout it implies and both
    /// checksums of the image `words` read from `path`.
    fn verify(words: FileWords, path: &Path) -> Result<FactorSetFile, FactorSetError> {
        let malformed =
            |msg: String| Err(FactorSetError::Format(format!("{}: {msg}", path.display())));
        let all = words.words();
        let header = &all[..HEADER_WORDS];
        if header[0] != FACTOR_SET_MAGIC {
            return malformed("not a DBTFFSET file (bad magic)".into());
        }
        if header[8] != checksum(&header[..8]) {
            return malformed("header checksum mismatch".into());
        }
        let format_version = header[1];
        if format_version > FACTOR_SET_VERSION {
            return Err(FactorSetError::Version {
                path: path.display().to_string(),
                found: format_version,
            });
        }
        if format_version == 0 {
            return malformed("format version 0".into());
        }
        // A rank-0 set has no factor words, so the length check alone
        // would let it claim any mode sizes and make a reader walk them
        // all; no writer produces one.
        if header[6] == 0 {
            return malformed("rank 0".into());
        }
        // Likewise an all-zero shape passes the length check for any rank,
        // and a reader would then size rank-long tables.
        if header[3..6].contains(&0) {
            return malformed(format!(
                "mode size 0 in shape {}×{}×{}",
                header[3], header[4], header[5]
            ));
        }
        if let Some(size) = header[3..6].iter().find(|&&d| d > u64::from(u32::MAX)) {
            return malformed(format!("mode size {size} exceeds u32 range"));
        }
        let dims = [header[3] as usize, header[4] as usize, header[5] as usize];
        // A rank past `usize` fails the length check below.
        let rank = usize::try_from(header[6]).unwrap_or(usize::MAX);
        let wpr = rank.div_ceil(64);
        let Some(rows_end) = (dims[0] + dims[1] + dims[2])
            .checked_mul(wpr)
            .and_then(|w| w.checked_add(HEADER_WORDS))
            .filter(|&end| end <= all.len())
        else {
            return malformed(format!(
                "file has {} words, too few for the {}×{}×{} rank-{rank} factors \
                 its header claims",
                all.len(),
                dims[0],
                dims[1],
                dims[2]
            ));
        };
        // The history count is checked against the file length before
        // anything is sized from it; the history is the rest of the file.
        let history = if format_version == 1 {
            if rows_end != all.len() {
                return malformed(format!(
                    "file has {} words but the header implies {rows_end}",
                    all.len()
                ));
            }
            rows_end..rows_end
        } else {
            let after = all.len() - rows_end;
            match all.get(rows_end) {
                Some(&n) if n == after as u64 - 1 => rows_end + 1..all.len(),
                Some(&n) => {
                    return malformed(format!(
                        "history count {n} disagrees with the {} words after the factor rows",
                        after - 1
                    ))
                }
                None => return malformed("file ends before the history count".into()),
            }
        };
        if checksum(&all[HEADER_WORDS..]) != header[7] {
            return malformed("data checksum mismatch".into());
        }
        let set_version = header[2];
        Ok(FactorSetFile {
            words,
            format_version,
            set_version,
            dims,
            rank,
            wpr,
            row_base: row_bases(dims, wpr),
            history,
        })
    }

    /// Writes the image to `path`, replacing any previous file atomically
    /// *and durably*: parent directories are created, the words go to
    /// `<path>.tmp` first, the temp file is fsynced before the rename (so
    /// the rename can never publish a torn file), and the parent directory
    /// is fsynced after it (so the rename itself survives a crash). Readers
    /// — `--resume` and `dbtf serve` included — always see either the old
    /// complete file or the new one, even across power loss. A failed
    /// write leaves no `<path>.tmp` behind.
    ///
    /// # Errors
    ///
    /// [`FactorSetError::Format`] for a rank-0 set or one with an empty
    /// mode, which [`FactorSetFile::open`] would refuse;
    /// [`FactorSetError::Io`] if the write fails.
    pub fn write(&self, path: &Path) -> Result<(), FactorSetError> {
        let refuse = |msg: &str| Err(FactorSetError::Format(format!("{}: {msg}", path.display())));
        if self.rank == 0 {
            return refuse("cannot store a rank-0 factor set");
        }
        if self.dims.contains(&0) {
            return refuse("cannot store a factor set with an empty mode");
        }
        let bytes: Vec<u8> = self.words().iter().flat_map(|w| w.to_le_bytes()).collect();
        replace_durably(path, &bytes)
            .map_err(|e| FactorSetError::Io(format!("{}: write failed: {e}", path.display())))
    }

    /// The whole image: header, factor rows and (v2) history.
    pub fn words(&self) -> &[u64] {
        self.words.words()
    }

    /// The file's format version (1 or 2).
    pub fn format_version(&self) -> u64 {
        self.format_version
    }

    /// The caller-assigned version of this factor set.
    pub fn set_version(&self) -> u64 {
        self.set_version
    }

    /// Tensor dimensions `[I, J, K]` (= factor row counts).
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// The shared factor rank `R`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Words per factor row (`ceil(rank / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.wpr
    }

    /// The error after each completed iteration: empty for a plain factor
    /// set and for every v1 file.
    pub fn history(&self) -> &[u64] {
        &self.words()[self.history.clone()]
    }

    /// Factor row `idx` of `mode` (0 = A, 1 = B, 2 = C) as packed words.
    ///
    /// # Panics
    ///
    /// Panics if `mode > 2` or `idx` is out of range.
    #[inline]
    pub fn row(&self, mode: usize, idx: usize) -> &[u64] {
        assert!(mode < 3 && idx < self.dims[mode], "row out of range");
        &self.words()[self.row_base[mode] + idx * self.wpr..][..self.wpr]
    }

    /// Rebuilds the factors as an in-memory [`FactorSet`].
    pub fn factors(&self) -> FactorSet {
        let [a, b, c] = [0, 1, 2].map(|mode| {
            let mut m = BitMatrix::zeros(self.dims[mode], self.rank);
            for idx in 0..self.dims[mode] {
                m.row_mut(idx).copy_from_slice(self.row(mode, idx));
            }
            m
        });
        FactorSet { a, b, c }
    }
}

/// Word offsets of the first A, B and C rows.
fn row_bases(dims: [usize; 3], wpr: usize) -> [usize; 3] {
    [
        HEADER_WORDS,
        HEADER_WORDS + dims[0] * wpr,
        HEADER_WORDS + (dims[0] + dims[1]) * wpr,
    ]
}

/// Fsyncs the directory containing `path`, making a just-completed rename
/// durable. On POSIX the rename updates the directory entry, and that
/// entry lives in the directory's own data — without this fsync a crash
/// can roll the rename back, leaving `--resume` pointing at the old (or
/// no) checkpoint despite the write having returned `Ok`.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        // Windows has no directory-fsync equivalent; the temp-file fsync
        // plus ReplaceFile-style rename is the best available.
        let _ = path;
    }
    Ok(())
}

/// Replaces `path` with `bytes` through `<path>.tmp`, creating parent
/// directories (a path like `runs/2026-08-06/ck` needs no pre-created
/// tree): the temp file is written and fsynced, renamed over `path`, and
/// the parent directory fsynced. If the write or the rename fails, the
/// temp file is removed again.
fn replace_durably(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("tmp");
    let replaced = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if replaced.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    replaced?;
    sync_parent_dir(path)
}

/// The resumable state of a [`crate::factorize`] run after a completed
/// iteration: a `DBTFFSET` file whose history is `iteration_errors`.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Number of completed iterations (1-based; the first, multi-set
    /// iteration counts as 1).
    pub iteration: usize,
    /// Reconstruction error after that iteration.
    pub error: u64,
    /// Error after each completed iteration (`len() == iteration`).
    pub iteration_errors: Vec<u64>,
    /// The factor matrices after that iteration.
    pub factors: FactorSet,
}

fn ck_err(path: &Path, msg: impl std::fmt::Display) -> DbtfError {
    DbtfError::Checkpoint(format!("{}: {msg}", path.display()))
}

impl Checkpoint {
    /// Writes the checkpoint to `path` as a `DBTFFSET` file with set
    /// version `iteration`, atomically and durably (see
    /// [`FactorSetFile::write`]). A failed write leaves no `<path>.tmp`
    /// behind.
    ///
    /// # Errors
    ///
    /// [`DbtfError::Checkpoint`] if the write fails, or if the checkpoint
    /// is inconsistent — `iteration_errors` must hold `iteration ≥ 1`
    /// entries, the last equal to `error` — since the file stores only the
    /// history.
    pub fn write(&self, path: &Path) -> Result<(), DbtfError> {
        if self.iteration_errors.len() != self.iteration
            || self.iteration_errors.last() != Some(&self.error)
        {
            return Err(ck_err(
                path,
                format!(
                    "inconsistent checkpoint: iteration {} with {} history entries, \
                     error {} against a last entry of {:?}",
                    self.iteration,
                    self.iteration_errors.len(),
                    self.error,
                    self.iteration_errors.last()
                ),
            ));
        }
        FactorSetFile::encode(self.iteration as u64, &self.factors, &self.iteration_errors)
            .write(path)
            .map_err(|e| DbtfError::Checkpoint(e.to_string()))
    }

    /// Reads a checkpoint back from `path`.
    ///
    /// # Errors
    ///
    /// [`DbtfError::Checkpoint`] if the file cannot be read, is not a
    /// complete `DBTFFSET` file, or has no iteration history to resume
    /// from. (Callers handle a *missing* file separately — see
    /// [`Checkpoint::read_if_exists`].)
    pub fn read(path: &Path) -> Result<Checkpoint, DbtfError> {
        let file =
            FactorSetFile::open(path, false).map_err(|e| DbtfError::Checkpoint(e.to_string()))?;
        let iteration_errors = file.history().to_vec();
        let Some(&error) = iteration_errors.last() else {
            return Err(ck_err(
                path,
                "a factor set with no iteration history, which a run cannot resume from",
            ));
        };
        Ok(Checkpoint {
            iteration: iteration_errors.len(),
            error,
            iteration_errors,
            factors: file.factors(),
        })
    }

    /// [`Checkpoint::read`], but a missing file yields `Ok(None)` (the
    /// resume-from-nothing case) while a present-but-invalid file is still
    /// an error — silently restarting over a corrupt checkpoint would mask
    /// data loss.
    pub fn read_if_exists(path: &Path) -> Result<Option<Checkpoint>, DbtfError> {
        if path.exists() {
            Checkpoint::read(path).map(Some)
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut a = BitMatrix::zeros(4, 3);
        a.set(0, 0, true);
        a.set(3, 2, true);
        let mut b = BitMatrix::zeros(2, 3);
        b.set(1, 1, true);
        let c = BitMatrix::zeros(5, 3);
        Checkpoint {
            iteration: 3,
            error: 17,
            iteration_errors: vec![40, 21, 17],
            factors: FactorSet { a, b, c },
        }
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dbtf-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn to_words(bytes: &[u8]) -> Vec<u64> {
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    fn to_bytes(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Recomputes both checksums, so only the check under test objects.
    fn reseal(words: &mut [u64]) {
        words[7] = checksum(&words[HEADER_WORDS..]);
        words[8] = checksum(&words[..8]);
    }

    #[test]
    fn roundtrip() {
        let path = tmp_path("roundtrip");
        let ck = sample();
        ck.write(&path).unwrap();
        assert_eq!(Checkpoint::read(&path).unwrap(), ck);
        // Overwrite with different content and read again.
        let mut ck2 = sample();
        ck2.iteration = 4;
        ck2.error = 5;
        ck2.iteration_errors.push(5);
        ck2.write(&path).unwrap();
        assert_eq!(Checkpoint::read(&path).unwrap(), ck2);
        std::fs::remove_file(&path).unwrap();
    }

    /// The header's version field round-trips: a written checkpoint
    /// carries version word 2 and its iteration as the set version, and
    /// reads back, while a future-versioned file is refused with a message
    /// naming both the file's version and this build's ceiling (not a
    /// generic parse error).
    #[test]
    fn version_field_round_trip_and_future_version_message() {
        let path = tmp_path("version");
        let ck = sample();
        ck.write(&path).unwrap();
        let mut words = to_words(&std::fs::read(&path).unwrap());
        assert_eq!(words[..3], [FACTOR_SET_MAGIC, FACTOR_SET_VERSION, 3]);
        assert_eq!(Checkpoint::read(&path).unwrap(), ck);

        // Same body, future version stamp → version-specific refusal.
        words[1] = 3;
        reseal(&mut words);
        std::fs::write(&path, to_bytes(&words)).unwrap();
        assert!(matches!(
            FactorSetFile::open(&path, false),
            Err(FactorSetError::Version { path: p, found: 3 }) if p == path.display().to_string()
        ));
        let err = Checkpoint::read(&path).unwrap_err();
        let DbtfError::Checkpoint(msg) = &err else {
            panic!("expected Checkpoint error, got {err:?}");
        };
        assert!(msg.contains("v3"), "{msg}");
        assert!(msg.contains("newer than this build"), "{msg}");
        assert!(msg.contains("max v2"), "{msg}");

        // v0 is *not* "newer" — a plain bad file.
        words[1] = 0;
        reseal(&mut words);
        std::fs::write(&path, to_bytes(&words)).unwrap();
        let err = Checkpoint::read(&path).unwrap_err();
        assert!(err.to_string().contains("format version 0"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_none_not_error() {
        let path = tmp_path("never-written");
        assert_eq!(Checkpoint::read_if_exists(&path).unwrap(), None);
        assert!(Checkpoint::read(&path).is_err());
    }

    #[test]
    fn corrupt_files_error_cleanly() {
        let path = tmp_path("corrupt");
        sample().write(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        let words = to_words(&good);
        let mut flipped_history = words.clone();
        *flipped_history.last_mut().unwrap() ^= 1;
        let no_history = FactorSetFile::encode(3, &sample().factors, &[]);
        for (what, bad, says) in [
            ("empty", Vec::new(), "not a word multiple"),
            ("garbage", b"BOGUS v9\n".to_vec(), "not a word multiple"),
            ("bad magic", to_bytes(&[0; 12]), "bad magic"),
            (
                "odd length",
                good[..good.len() - 3].to_vec(),
                "not a word multiple",
            ),
            ("truncated rows", good[..8 * 12].to_vec(), "too few"),
            (
                "truncated history",
                good[..good.len() - 8].to_vec(),
                "history count",
            ),
            (
                "flipped history word",
                to_bytes(&flipped_history),
                "data checksum",
            ),
            (
                "no history",
                to_bytes(no_history.words()),
                "no iteration history",
            ),
            (
                "old text format",
                b"DBTFCKPT v1\niteration 1\nerror 5\niteration_errors 5\n".to_vec(),
                "DBTFCKPT text checkpoint",
            ),
        ] {
            std::fs::write(&path, &bad).unwrap();
            let err = Checkpoint::read(&path).expect_err(what);
            let DbtfError::Checkpoint(msg) = &err else {
                panic!("{what}: expected Checkpoint error, got {err:?}");
            };
            assert!(msg.contains(says), "{what}: {msg}");
            assert!(
                Checkpoint::read_if_exists(&path).is_err(),
                "corrupt must not read as None: {what}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// The history is the layout: a checkpoint whose fields disagree with
    /// it cannot be written, and nothing is left on disk.
    #[test]
    fn inconsistent_checkpoints_are_refused_on_write() {
        let path = tmp_path("inconsistent");
        let _ = std::fs::remove_file(&path);
        let mut short = sample();
        short.iteration = 4;
        let mut wrong_error = sample();
        wrong_error.error = 21;
        let empty = Checkpoint {
            iteration: 0,
            error: 0,
            iteration_errors: Vec::new(),
            ..sample()
        };
        for ck in [short, wrong_error, empty] {
            let err = ck.write(&path).expect_err("inconsistent");
            assert!(err.to_string().contains("inconsistent checkpoint"), "{err}");
            assert!(!path.exists() && !path.with_extension("tmp").exists());
        }
    }

    #[test]
    fn write_creates_missing_parent_directories() {
        let dir = std::env::temp_dir().join(format!(
            "dbtf-checkpoint-tests-parents-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deeper").join("nested.ckpt");
        assert!(!dir.exists());
        let ck = sample();
        ck.write(&path).unwrap();
        assert_eq!(Checkpoint::read(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_is_atomic_no_tmp_left_behind() {
        let path = tmp_path("atomic");
        sample().write(&path).unwrap();
        assert!(path.exists());
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    /// Regression (durability fix): a failing write must surface a clean
    /// `DbtfError::Checkpoint` — including failures after the content was
    /// produced (rename / directory-sync stage) — and must never clobber
    /// an existing good checkpoint.
    #[test]
    fn write_error_paths_are_clean_and_preserve_previous() {
        // Parent "directory" is actually a file → create_dir_all fails.
        let blocker = tmp_path("error-parent");
        std::fs::write(&blocker, "not a directory").unwrap();
        let path = blocker.join("ck.dbtf");
        let err = sample().write(&path).expect_err("write must fail");
        match err {
            DbtfError::Checkpoint(msg) => {
                assert!(msg.contains("write failed"), "actionable message: {msg}");
            }
            other => panic!("expected Checkpoint error, got {other:?}"),
        }

        // Destination is a directory → the rename stage fails, after the
        // temp file was written and fsynced. The error is still clean, the
        // temp file is gone, and a sibling good checkpoint is untouched.
        let dir_dest = tmp_path("error-dest-dir");
        let _ = std::fs::remove_dir_all(&dir_dest);
        std::fs::create_dir_all(&dir_dest).unwrap();
        let good = tmp_path("error-good");
        sample().write(&good).unwrap();
        let err = sample().write(&dir_dest).expect_err("rename must fail");
        assert!(matches!(err, DbtfError::Checkpoint(_)));
        assert!(
            !dir_dest.with_extension("tmp").exists(),
            "a failed write must remove its temp file"
        );
        assert_eq!(Checkpoint::read(&good).unwrap(), sample());

        std::fs::remove_file(&blocker).unwrap();
        std::fs::remove_file(&good).unwrap();
        let _ = std::fs::remove_dir_all(&dir_dest);
    }

    /// A header cannot size anything beyond what the file holds: crafted
    /// terabyte-row, huge-rank and history-count claims, each with valid
    /// checksums, are refused at once.
    #[test]
    fn crafted_matrix_header_is_rejected_promptly() {
        let path = tmp_path("crafted");
        let good = FactorSetFile::encode(1, &sample().factors, &[9])
            .words()
            .to_vec();
        let start = std::time::Instant::now();
        for (what, patch) in [
            ("2^40 rows", (3, 1u64 << 40)),
            ("2^32 - 1 rows", (3, u64::from(u32::MAX))),
            ("huge rank", (6, u64::MAX)),
            ("2^40 rank", (6, 1 << 40)),
            ("history past the end", (good.len() - 2, 1 << 40)),
            ("history count u64::MAX", (good.len() - 2, u64::MAX)),
            ("history count short", (good.len() - 2, 0)),
        ] {
            let mut words = good.clone();
            words[patch.0] = patch.1;
            reseal(&mut words);
            std::fs::write(&path, to_bytes(&words)).unwrap();
            let err = FactorSetFile::open(&path, false).err().expect(what);
            assert!(matches!(err, FactorSetError::Format(_)), "{what}: {err}");
            assert!(matches!(
                Checkpoint::read(&path),
                Err(DbtfError::Checkpoint(_))
            ));
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        std::fs::remove_file(&path).unwrap();
    }
}
