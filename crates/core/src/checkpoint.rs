//! Factor-matrix checkpointing for crash-resumable runs.
//!
//! The paper's Spark implementation can lean on lineage for everything; a
//! long-running driver process, however, survives *driver* restarts only by
//! persisting the iteration state. [`factorize`](crate::factorize) writes a
//! [`Checkpoint`] every [`DbtfConfig::checkpoint_every`](crate::DbtfConfig)
//! completed iterations and can resume from it: because the RNG is consumed
//! only by initialization, iterations ≥ 2 are pure functions of the factor
//! state, so a resumed run reproduces the uninterrupted run bit for bit.
//!
//! # File format
//!
//! A small self-describing text file (`DBTFCKPT v1`), written atomically
//! (temp file + rename) so a crash mid-write never corrupts the previous
//! checkpoint:
//!
//! ```text
//! DBTFCKPT v1
//! iteration 4
//! error 123
//! iteration_errors 400 200 150 123
//! matrix a 6 2
//! 10
//! 01
//! ...            (one 0/1 row per line; then matrices b and c)
//! ```

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use dbtf_tensor::BitMatrix;

use crate::config::DbtfError;
use crate::factors::FactorSet;

const MAGIC: &str = "DBTFCKPT v1";

/// The checkpoint format version this build writes and the newest it
/// reads. Files announcing a higher version in their magic line are
/// refused with a version-specific [`DbtfError::Checkpoint`] message.
pub const CHECKPOINT_FORMAT_VERSION: u64 = 1;

/// The resumable state of a [`crate::factorize`] run after a completed
/// iteration.
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

/// Fsyncs the directory containing `path`, making a just-completed rename
/// durable. On POSIX the rename updates the directory entry, and that
/// entry lives in the directory's own data — without this fsync a crash
/// can roll the rename back, leaving `--resume` pointing at the old (or
/// no) checkpoint despite `write` having returned `Ok`.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        // Windows has no directory-fsync equivalent; the temp-file fsync
        // plus ReplaceFile-style rename is the best available.
        let _ = path;
    }
    Ok(())
}

/// Replaces `path` through `<path>.tmp`: `fill` writes the temp file,
/// which is then renamed over `path`, so readers see either the old file
/// or the complete new one. If `fill` or the rename fails, the temp file
/// is removed again. The factor-store writer shares this discipline.
pub fn replace_via_temp(
    path: &Path,
    fill: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    let replaced = fill(&mut file).and_then(|()| std::fs::rename(&tmp, path));
    if replaced.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    replaced
}

fn write_matrix<W: Write>(out: &mut W, name: &str, m: &BitMatrix) -> std::io::Result<()> {
    writeln!(out, "matrix {name} {} {}", m.rows(), m.cols())?;
    let mut row = String::with_capacity(m.cols());
    for r in 0..m.rows() {
        row.clear();
        for c in 0..m.cols() {
            row.push(if m.get(r, c) { '1' } else { '0' });
        }
        writeln!(out, "{row}")?;
    }
    Ok(())
}

impl Checkpoint {
    /// Writes the checkpoint to `path`, replacing any previous file
    /// atomically *and durably*: the bytes go to `<path>.tmp` first, the
    /// temp file is fsynced before the rename (so the rename can never
    /// publish a torn file), and the parent directory is fsynced after it
    /// (so the rename itself survives a crash) — readers, including
    /// `--resume`, always see either the old complete checkpoint or the
    /// new one, even across power loss. A failed write leaves no
    /// `<path>.tmp` behind.
    pub fn write(&self, path: &Path) -> Result<(), DbtfError> {
        let write_all = || -> std::io::Result<()> {
            // A checkpoint path like `runs/2026-08-06/ck.dbtf` should not
            // require the user to pre-create the directory tree.
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            replace_via_temp(path, |file| {
                let mut out = BufWriter::new(file);
                writeln!(out, "{MAGIC}")?;
                writeln!(out, "iteration {}", self.iteration)?;
                writeln!(out, "error {}", self.error)?;
                write!(out, "iteration_errors")?;
                for e in &self.iteration_errors {
                    write!(out, " {e}")?;
                }
                writeln!(out)?;
                write_matrix(&mut out, "a", &self.factors.a)?;
                write_matrix(&mut out, "b", &self.factors.b)?;
                write_matrix(&mut out, "c", &self.factors.c)?;
                out.into_inner().map_err(|e| e.into_error())?.sync_all()
            })?;
            sync_parent_dir(path)
        };
        write_all().map_err(|e| ck_err(path, format!("write failed: {e}")))
    }

    /// Reads a checkpoint back from `path`.
    ///
    /// # Errors
    ///
    /// [`DbtfError::Checkpoint`] if the file cannot be read or does not
    /// parse as a complete `DBTFCKPT v1` checkpoint. (Callers handle a
    /// *missing* file separately — see [`Checkpoint::read_if_exists`].)
    pub fn read(path: &Path) -> Result<Checkpoint, DbtfError> {
        let file = std::fs::File::open(path).map_err(|e| ck_err(path, e))?;
        let file_len = file.metadata().map_err(|e| ck_err(path, e))?.len();
        let mut lines = BufReader::new(file).lines();
        let mut next = |what: &str| -> Result<String, DbtfError> {
            match lines.next() {
                Some(Ok(line)) => Ok(line),
                Some(Err(e)) => Err(ck_err(path, e)),
                None => Err(ck_err(path, format!("truncated: missing {what}"))),
            }
        };
        let magic_line = next("magic header")?;
        if magic_line != MAGIC {
            // A future-versioned checkpoint ("DBTFCKPT v3") is a distinct
            // failure from a random file: the user needs a newer build,
            // not a different file.
            if let Some(version) = magic_line
                .strip_prefix("DBTFCKPT v")
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&v| v > CHECKPOINT_FORMAT_VERSION)
            {
                return Err(ck_err(
                    path,
                    format!(
                        "checkpoint format v{version} is newer than this build supports \
                         (max v{CHECKPOINT_FORMAT_VERSION}); upgrade dbtf to read it"
                    ),
                ));
            }
            return Err(ck_err(path, "not a DBTFCKPT v1 file"));
        }
        let field = |line: String, key: &str| -> Result<String, DbtfError> {
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| ck_err(path, format!("expected `{key} …`, got {line:?}")))
        };
        let iteration: usize = field(next("iteration")?, "iteration")?
            .parse()
            .map_err(|e| ck_err(path, format!("bad iteration: {e}")))?;
        let error: u64 = field(next("error")?, "error")?
            .parse()
            .map_err(|e| ck_err(path, format!("bad error: {e}")))?;
        let errs_line = next("iteration_errors")?;
        let errs_line = errs_line
            .strip_prefix("iteration_errors")
            .ok_or_else(|| ck_err(path, "expected `iteration_errors …`"))?;
        let iteration_errors: Vec<u64> = errs_line
            .split_whitespace()
            .map(|tok| {
                tok.parse()
                    .map_err(|e| ck_err(path, format!("bad iteration_errors entry {tok:?}: {e}")))
            })
            .collect::<Result<_, _>>()?;
        if iteration_errors.len() != iteration {
            return Err(ck_err(
                path,
                format!(
                    "iteration_errors has {} entries but iteration is {iteration}",
                    iteration_errors.len()
                ),
            ));
        }
        if iteration_errors.last() != Some(&error) {
            return Err(ck_err(path, "last iteration_errors entry must equal error"));
        }

        let mut read_matrix = |name: &str| -> Result<BitMatrix, DbtfError> {
            let header = next(&format!("matrix {name} header"))?;
            let mut toks = header.split_whitespace();
            if toks.next() != Some("matrix") || toks.next() != Some(name) {
                return Err(ck_err(path, format!("expected `matrix {name} R C`")));
            }
            let parse_dim = |tok: Option<&str>| -> Result<usize, DbtfError> {
                tok.and_then(|t| t.parse().ok())
                    .ok_or_else(|| ck_err(path, format!("bad dimensions for matrix {name}")))
            };
            let rows = parse_dim(toks.next())?;
            let cols = parse_dim(toks.next())?;
            // Each row line holds `cols` bits plus a newline, so a header
            // claiming more rows than the file can hold is refused before
            // it sizes the allocation. A matrix without rows may not claim
            // a row wider than the file either: the column count is the
            // rank, which readers size per-column tables by (`factorize`
            // never writes an empty factor matrix).
            let fits = (cols as u64)
                .checked_add(1)
                .and_then(|line| line.checked_mul(rows.max(1) as u64))
                .is_some_and(|bytes| bytes <= file_len);
            if !fits {
                return Err(ck_err(
                    path,
                    format!(
                        "matrix {name} header claims {rows} rows of {cols} bits, \
                         more than the {file_len}-byte file holds"
                    ),
                ));
            }
            let mut m = BitMatrix::zeros(rows, cols);
            for r in 0..rows {
                let line = next(&format!("row {r} of matrix {name}"))?;
                if line.len() != cols {
                    return Err(ck_err(
                        path,
                        format!(
                            "matrix {name} row {r}: expected {cols} bits, got {}",
                            line.len()
                        ),
                    ));
                }
                for (c, ch) in line.chars().enumerate() {
                    match ch {
                        '0' => {}
                        '1' => m.set(r, c, true),
                        other => {
                            return Err(ck_err(
                                path,
                                format!("matrix {name} row {r}: invalid bit {other:?}"),
                            ))
                        }
                    }
                }
            }
            Ok(m)
        };
        let a = read_matrix("a")?;
        let b = read_matrix("b")?;
        let c = read_matrix("c")?;
        if b.cols() != a.cols() || c.cols() != a.cols() {
            return Err(ck_err(
                path,
                format!(
                    "factor matrices disagree on the rank: a has {}, b {}, c {} columns",
                    a.cols(),
                    b.cols(),
                    c.cols()
                ),
            ));
        }
        Ok(Checkpoint {
            iteration,
            error,
            iteration_errors,
            factors: FactorSet { a, b, c },
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

    /// The magic line's version field round-trips: a written checkpoint
    /// opens with `DBTFCKPT v1` verbatim and reads back, while a
    /// future-versioned file is refused with a message naming both the
    /// file's version and this build's ceiling (not a generic parse
    /// error).
    #[test]
    fn version_field_round_trip_and_future_version_message() {
        let path = tmp_path("version");
        let ck = sample();
        ck.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().next(),
            Some(format!("DBTFCKPT v{CHECKPOINT_FORMAT_VERSION}").as_str())
        );
        assert_eq!(Checkpoint::read(&path).unwrap(), ck);

        // Same body, future version stamp → version-specific refusal.
        let future = text.replacen("DBTFCKPT v1", "DBTFCKPT v3", 1);
        std::fs::write(&path, &future).unwrap();
        let err = Checkpoint::read(&path).unwrap_err();
        let DbtfError::Checkpoint(msg) = &err else {
            panic!("expected Checkpoint error, got {err:?}");
        };
        assert!(msg.contains("v3"), "{msg}");
        assert!(msg.contains("newer than this build"), "{msg}");
        assert!(msg.contains("max v1"), "{msg}");

        // v0 and garbage suffixes are *not* "newer" — plain bad files.
        for bad in ["DBTFCKPT v0", "DBTFCKPT vX"] {
            std::fs::write(&path, text.replacen("DBTFCKPT v1", bad, 1)).unwrap();
            let err = Checkpoint::read(&path).unwrap_err();
            assert!(
                err.to_string().contains("not a DBTFCKPT v1 file"),
                "{bad}: {err}"
            );
        }
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
        for bad in [
            "",
            "BOGUS v9\n",
            "DBTFCKPT v1\niteration 2\nerror 5\niteration_errors 9 5\nmatrix a 2 2\n10\n", // truncated
            "DBTFCKPT v1\niteration 2\nerror 5\niteration_errors 9\nmatrix a 0 0\nmatrix b 0 0\nmatrix c 0 0\n", // count mismatch
            "DBTFCKPT v1\niteration 1\nerror 5\niteration_errors 9\nmatrix a 0 0\nmatrix b 0 0\nmatrix c 0 0\n", // last ≠ error
            "DBTFCKPT v1\niteration 1\nerror 5\niteration_errors 5\nmatrix a 1 2\n1x\nmatrix b 0 2\nmatrix c 0 2\n", // bad bit
            "DBTFCKPT v1\niteration 1\nerror 5\niteration_errors 5\nmatrix a 1 2\n10\nmatrix b 1 3\n100\nmatrix c 1 2\n01\n", // ranks disagree
        ] {
            std::fs::write(&path, bad).unwrap();
            let err = Checkpoint::read(&path).expect_err(bad);
            assert!(matches!(err, DbtfError::Checkpoint(_)), "input: {bad:?}");
            assert!(
                Checkpoint::read_if_exists(&path).is_err(),
                "corrupt must not read as None: {bad:?}"
            );
        }
        std::fs::remove_file(&path).unwrap();
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

    /// A `matrix NAME R C` header cannot size the allocation beyond what
    /// the file holds: a crafted terabyte-row claim is refused at once.
    #[test]
    fn crafted_matrix_header_is_rejected_promptly() {
        let path = tmp_path("crafted");
        let preamble = "DBTFCKPT v1\niteration 1\nerror 0\niteration_errors 0\n";
        let start = std::time::Instant::now();
        for header in [
            "matrix a 1099511627776 64",
            "matrix a 2 18446744073709551615",
            "matrix a 18446744073709551615 2",
            "matrix a 0 1099511627776",
        ] {
            std::fs::write(&path, format!("{preamble}{header}\n")).unwrap();
            let err = Checkpoint::read(&path).expect_err(header);
            let DbtfError::Checkpoint(msg) = &err else {
                panic!("expected Checkpoint error, got {err:?}");
            };
            assert!(msg.contains("matrix a"), "{header}: {msg}");
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        std::fs::remove_file(&path).unwrap();
    }
}
