//! Quickstart: factorize a small Boolean tensor end-to-end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds an 16×16×16 binary tensor containing two overlapping
//! combinatorial blocks, runs DBTF at rank 2 on a 4-worker simulated
//! cluster, and prints the recovered factors, the reconstruction error and
//! the engine's accounting.

use dbtf::{factorize, DbtfConfig};
use dbtf_cluster::{Cluster, ClusterConfig};
use dbtf_tensor::{BitMatrix, BoolTensor};

fn main() {
    // 1. Build a tensor: X = (block A) ⊕ (block B), with a small overlap.
    let mut entries = Vec::new();
    for i in 0..7u32 {
        for j in 0..7u32 {
            for k in 0..7u32 {
                entries.push([i, j, k]); // block A: [0,7)³
                entries.push([i + 6, j + 6, k + 6]); // block B: [6,13)³
            }
        }
    }
    let x = BoolTensor::from_entries([16, 16, 16], entries);
    println!("input: {x:?} (density {:.3})", x.density());

    // 2. Boot a simulated cluster and factorize at rank 2.
    let cluster = Cluster::new(ClusterConfig::with_workers(4));
    let config = DbtfConfig {
        rank: 2,
        initial_sets: 4, // L > 1: keep the best of several random starts
        seed: 0,
        ..DbtfConfig::default()
    };
    let result = factorize(&cluster, &x, &config).expect("factorization succeeds");

    // 3. Inspect the result.
    println!(
        "rank-2 factorization: |X ⊕ X̃| = {} ({:.1}% of |X|), {} iterations{}",
        result.error,
        100.0 * result.relative_error,
        result.iterations,
        if result.converged { ", converged" } else { "" },
    );
    let column = |m: &BitMatrix, c: usize| -> String {
        (0..m.rows())
            .map(|r| if m.get(r, c) { '1' } else { '·' })
            .collect()
    };
    for r in 0..2 {
        println!(
            "component {r}: a = {}  b = {}  c = {}",
            column(&result.factors.a, r),
            column(&result.factors.b, r),
            column(&result.factors.c, r),
        );
    }

    // 4. The engine metered the run (the paper's Lemmas 6 & 7 quantities).
    let s = &result.stats;
    println!(
        "cluster: {:.3} virtual s on {} workers | shuffled {} B, broadcast {} B, collected {} B",
        s.virtual_secs,
        cluster.config().workers,
        s.comm.bytes_shuffled,
        s.comm.bytes_broadcast,
        s.comm.bytes_collected,
    );
}
