//! Criterion microbenchmarks for the factor-update hot kernel
//! (Algorithm 4's column superstep): `column_errors` and
//! `partition_error` on sparse (probe-path) and dense (bitmap-path)
//! blocks, single- and multi-group cache layouts, plus the incremental
//! `apply_column` and a whole simulated superstep.
//!
//! `WorkState` is built once per benchmark — the measured loops perform
//! no heap allocation beyond the per-call result vector.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dbtf::partition::partition_unfolding;
use dbtf::WorkState;
use dbtf_tensor::{BitMatrix, BitVec, Mode, Unfolding};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One benchmark fixture: a partitioned mode-1 unfolding plus factors.
struct Fixture {
    parts: Vec<dbtf::partition::ModePartition>,
    a: BitMatrix,
    b: BitMatrix,
    c: BitMatrix,
    rank: usize,
}

impl Fixture {
    fn new(dim: usize, density: f64, rank: usize, n_parts: usize, seed: u64) -> Self {
        let x = dbtf_datagen::uniform_random([dim, dim, dim], density, seed);
        let unf = Unfolding::new(&x, Mode::One);
        let parts = partition_unfolding(&unf, n_parts);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let a = BitMatrix::random(dim, rank, 0.3, &mut rng);
        let b = BitMatrix::random(dim, rank, 0.3, &mut rng);
        let c = BitMatrix::random(dim, rank, 0.3, &mut rng);
        Fixture {
            parts,
            a,
            b,
            c,
            rank,
        }
    }

    fn work_state(&self, part: usize, v_limit: usize) -> WorkState {
        let (ws, _) = WorkState::build(&self.parts[part], &self.a, &self.c, &self.b, v_limit);
        ws
    }
}

fn tensor_for(label: &str) -> Fixture {
    match label {
        // ~1.6M cells at density 0.005 → every block far below the dense
        // threshold: exercises the per-nonzero probe path.
        "sparse" => Fixture::new(96, 0.005, 10, 4, 40),
        // Density 0.4 → blocks cross nnz ≥ nrows × words: bitmap path.
        "dense" => Fixture::new(96, 0.4, 10, 4, 41),
        _ => unreachable!(),
    }
}

fn bench_column_errors(c: &mut Criterion) {
    for label in ["sparse", "dense"] {
        let fx = tensor_for(label);
        // Single-group layout (V = 15 ≥ R = 10): fetch_single fast path.
        let mut ws = fx.work_state(0, 15);
        c.bench_function(&format!("update/column_errors_{label}_v15"), |bench| {
            let mut col = 0;
            bench.iter(|| {
                let out = ws.column_errors(&fx.parts[0], col);
                col = (col + 1) % fx.rank;
                black_box(out)
            })
        });
        // Multi-group layout (V = 4 → ⌈10/4⌉ = 3 tables): shared-base OR.
        let mut ws = fx.work_state(0, 4);
        c.bench_function(&format!("update/column_errors_{label}_v4"), |bench| {
            let mut col = 0;
            bench.iter(|| {
                let out = ws.column_errors(&fx.parts[0], col);
                col = (col + 1) % fx.rank;
                black_box(out)
            })
        });
    }
}

fn bench_partition_error(c: &mut Criterion) {
    for label in ["sparse", "dense"] {
        let fx = tensor_for(label);
        let mut ws = fx.work_state(0, 15);
        c.bench_function(&format!("update/partition_error_{label}"), |bench| {
            bench.iter(|| black_box(ws.partition_error(&fx.parts[0])))
        });
    }
}

fn bench_apply_column(c: &mut Criterion) {
    let fx = tensor_for("sparse");
    let mut ws = fx.work_state(0, 4);
    let nrows = fx.parts[0].nrows;
    let mut vals = BitVec::zeros(nrows);
    for r in (0..nrows).step_by(3) {
        vals.set(r, true);
    }
    c.bench_function("update/apply_column_r10_v4", |bench| {
        let mut col = 0;
        bench.iter(|| {
            ws.apply_column(col, &vals);
            col = (col + 1) % fx.rank;
            black_box(col);
        })
    });
}

/// One full simulated superstep over all partitions: score a column,
/// decide per-row winners, apply the decision — the unit the cluster
/// engine spreads across its workers.
fn bench_superstep(c: &mut Criterion) {
    for label in ["sparse", "dense"] {
        let fx = tensor_for(label);
        let mut states: Vec<WorkState> =
            (0..fx.parts.len()).map(|p| fx.work_state(p, 15)).collect();
        let nrows = fx.parts[0].nrows;
        c.bench_function(&format!("update/superstep_{label}_all_parts"), |bench| {
            let mut col = 0;
            bench.iter(|| {
                let mut sums = vec![(0u64, 0u64); nrows];
                for (p, ws) in states.iter_mut().enumerate() {
                    let (errs, _) = ws.column_errors(&fx.parts[p], col);
                    for (r, (e0, e1)) in errs.into_iter().enumerate() {
                        sums[r].0 += e0;
                        sums[r].1 += e1;
                    }
                }
                let mut vals = BitVec::zeros(nrows);
                for (r, &(e0, e1)) in sums.iter().enumerate() {
                    vals.set(r, e1 < e0);
                }
                for ws in states.iter_mut() {
                    ws.apply_column(col, &vals);
                }
                col = (col + 1) % fx.rank;
                black_box(vals)
            })
        });
    }
}

/// End-to-end factor updates through the engine, with and without a
/// (disabled) tracer threaded through. Telemetry's disabled path is one
/// branch per kernel charge, so these two must be within noise of each
/// other — CI's trace smoke job compares them to assert the
/// zero-overhead-when-disabled contract.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let x = dbtf_datagen::uniform_random([48, 48, 48], 0.05, 11);
    let config = dbtf::DbtfConfig {
        rank: 4,
        max_iters: 2,
        initial_sets: 1,
        seed: 9,
        ..dbtf::DbtfConfig::default()
    };
    c.bench_function("update/factorize_local_plain", |bench| {
        bench.iter(|| {
            let backend = dbtf_cluster::LocalBackend::new(4, 2);
            black_box(dbtf::factorize(&backend, &x, &config).expect("factorize"))
        })
    });
    c.bench_function("update/factorize_local_telemetry_disabled", |bench| {
        bench.iter(|| {
            let backend = dbtf_cluster::LocalBackend::new(4, 2);
            let tracer = dbtf_telemetry::Tracer::disabled();
            black_box(
                dbtf::factorize_instrumented(&backend, &x, &config, &tracer).expect("factorize"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_column_errors, bench_partition_error, bench_apply_column, bench_superstep,
        bench_telemetry_overhead
}
criterion_main!(benches);
