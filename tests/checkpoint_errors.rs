//! Checkpoint error paths, end to end: a resume pointed at a corrupt,
//! truncated or config-mismatched checkpoint must surface a clear
//! [`DbtfError::Checkpoint`] from `factorize` — never a panic, and never
//! a silent fresh start that would mask data loss.

use dbtf::{factorize, DbtfConfig, DbtfError};
use dbtf_cluster::{Cluster, ClusterConfig};
use dbtf_datagen::uniform_random;
use dbtf_tensor::BoolTensor;

fn tensor() -> BoolTensor {
    uniform_random([10, 9, 8], 0.2, 42)
}

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::with_workers(2))
}

fn config(path: &std::path::Path) -> DbtfConfig {
    DbtfConfig {
        rank: 3,
        max_iters: 3,
        convergence_threshold: -1.0,
        seed: 7,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..DbtfConfig::default()
    }
}

/// A unique temp path per test (tests run concurrently in one process).
fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dbtf-ckpt-err-{tag}-{}.bin", std::process::id()))
}

/// Writes a genuine checkpoint by running one checkpointed iteration.
fn write_valid_checkpoint(path: &std::path::Path) {
    let cfg = DbtfConfig {
        max_iters: 1,
        checkpoint_every: Some(1),
        ..config(path)
    };
    factorize(&cluster(), &tensor(), &cfg).expect("checkpointed run succeeds");
    assert!(path.exists(), "run must have written the checkpoint");
}

fn resume_error(path: &std::path::Path) -> DbtfError {
    let cfg = DbtfConfig {
        resume: true,
        ..config(path)
    };
    let err =
        factorize(&cluster(), &tensor(), &cfg).expect_err("resume from a bad checkpoint must fail");
    let _ = std::fs::remove_file(path);
    err
}

#[test]
fn corrupt_magic_header_is_a_clear_error() {
    let path = temp_path("magic");
    write_valid_checkpoint(&path);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[..8].copy_from_slice(b"GARBAGE!");
    std::fs::write(&path, &bytes).unwrap();

    match resume_error(&path) {
        DbtfError::Checkpoint(msg) => {
            assert!(
                msg.contains("DBTFFSET"),
                "message should name the format: {msg}"
            );
            assert!(
                msg.contains(&path.to_string_lossy().into_owned()),
                "message should carry the path: {msg}"
            );
        }
        other => panic!("expected DbtfError::Checkpoint, got {other:?}"),
    }
}

#[test]
fn truncated_file_is_a_clear_error() {
    let path = temp_path("trunc");
    write_valid_checkpoint(&path);
    let bytes = std::fs::read(&path).unwrap();
    // Cut mid-rows at a word boundary: the header verifies, the factor
    // rows end early.
    std::fs::write(&path, &bytes[..bytes.len() / 8 * 2 / 3 * 8]).unwrap();

    match resume_error(&path) {
        DbtfError::Checkpoint(msg) => {
            assert!(msg.contains("too few"), "{msg}");
        }
        other => panic!("expected DbtfError::Checkpoint, got {other:?}"),
    }
}

#[test]
fn empty_file_is_a_clear_error() {
    let path = temp_path("empty");
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(resume_error(&path), DbtfError::Checkpoint(_)));
}

#[test]
fn resume_with_mismatched_rank_is_a_clear_error() {
    let path = temp_path("rank");
    write_valid_checkpoint(&path);
    let cfg = DbtfConfig {
        rank: 5, // checkpoint was written at rank 3
        resume: true,
        ..config(&path)
    };
    let err = factorize(&cluster(), &tensor(), &cfg).expect_err("rank mismatch must be rejected");
    let _ = std::fs::remove_file(&path);
    match err {
        DbtfError::Checkpoint(msg) => {
            assert!(
                msg.contains("shape") || msg.contains("rank") || msg.contains("mismatch"),
                "message should explain the mismatch: {msg}"
            );
        }
        other => panic!("expected DbtfError::Checkpoint, got {other:?}"),
    }
}

#[test]
fn resume_with_mismatched_tensor_shape_is_a_clear_error() {
    let path = temp_path("shape");
    write_valid_checkpoint(&path);
    let other_tensor = uniform_random([6, 6, 6], 0.2, 42); // dims ≠ checkpoint's
    let cfg = DbtfConfig {
        resume: true,
        ..config(&path)
    };
    let err = factorize(&cluster(), &other_tensor, &cfg)
        .expect_err("tensor-shape mismatch must be rejected");
    let _ = std::fs::remove_file(&path);
    assert!(matches!(err, DbtfError::Checkpoint(_)), "{err:?}");
}

/// A *missing* checkpoint on resume is not an error: the run starts
/// fresh (documented contract — distinguishes "never checkpointed" from
/// "checkpoint destroyed mid-format").
#[test]
fn missing_checkpoint_starts_fresh() {
    let path = temp_path("missing");
    let _ = std::fs::remove_file(&path);
    let cfg = DbtfConfig {
        resume: true,
        ..config(&path)
    };
    let result = factorize(&cluster(), &tensor(), &cfg).expect("fresh start");
    assert_eq!(result.iterations, 3);
}
