//! Criterion microbenchmarks for the core Boolean-algebra and DBTF
//! primitives, including the headline caching ablation: fetching a cached
//! Boolean row summation vs recomputing it (paper Section III-C).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use dbtf::cache::{GroupLayout, RowSumCache};
use dbtf::partition::partition_unfolding;
use dbtf_tensor::ops::{bool_matmul, khatri_rao, or_selected_rows};
use dbtf_tensor::{BitMatrix, BitVec, BoolTensor, Mode, Unfolding};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tensor(dim: usize, density: f64, seed: u64) -> BoolTensor {
    dbtf_datagen::uniform_random([dim, dim, dim], density, seed)
}

fn bench_bitvec(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = BitMatrix::random(1, 4096, 0.3, &mut rng).row_bitvec(0);
    let b = BitMatrix::random(1, 4096, 0.3, &mut rng).row_bitvec(0);
    c.bench_function("bitvec/or_4096", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut v| {
                v.or_assign(&b);
                v
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("bitvec/xor_count_4096", |bench| {
        bench.iter(|| black_box(a.xor_count(&b)))
    });
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let a = BitMatrix::random(128, 64, 0.2, &mut rng);
    let b = BitMatrix::random(64, 512, 0.2, &mut rng);
    c.bench_function("ops/bool_matmul_128x64x512", |bench| {
        bench.iter(|| black_box(bool_matmul(&a, &b)))
    });
    let f1 = BitMatrix::random(64, 10, 0.2, &mut rng);
    let f2 = BitMatrix::random(64, 10, 0.2, &mut rng);
    c.bench_function("ops/khatri_rao_64x64_r10", |bench| {
        bench.iter(|| black_box(khatri_rao(&f1, &f2)))
    });
}

fn bench_unfold_partition(c: &mut Criterion) {
    let x = random_tensor(64, 0.02, 3);
    c.bench_function("unfold/mode1_64^3", |bench| {
        bench.iter(|| black_box(Unfolding::new(&x, Mode::One)))
    });
    let unf = Unfolding::new(&x, Mode::One);
    c.bench_function("partition/N32_64^3", |bench| {
        bench.iter(|| black_box(partition_unfolding(&unf, 32)))
    });
}

fn bench_cache(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let ms = BitMatrix::random(256, 10, 0.1, &mut rng); // S = 256, R = 10
    let layout = GroupLayout::new(10, 15);
    c.bench_function("cache/build_r10_s256", |bench| {
        bench.iter(|| black_box(RowSumCache::build(&ms, &layout)))
    });
    let layout20 = GroupLayout::new(20, 10); // two group tables
    let ms20 = BitMatrix::random(256, 20, 0.1, &mut rng);
    c.bench_function("cache/build_r20_v10_s256", |bench| {
        bench.iter(|| black_box(RowSumCache::build(&ms20, &layout20)))
    });

    // The Section III-C ablation: cached fetch vs naive recomputation of
    // the same Boolean row summation.
    let cache = RowSumCache::build(&ms, &layout);
    let mst = ms.transpose();
    let keys: Vec<u64> = (0..1024).map(|_| rng.gen_range(0..1u64 << 10)).collect();
    c.bench_function("rowsum/cached_fetch_x1024", |bench| {
        bench.iter(|| {
            let mut acc = 0usize;
            for &k in &keys {
                let (row, pop) = cache.fetch_single(k);
                acc += pop as usize + row[0] as usize % 2;
            }
            black_box(acc)
        })
    });
    c.bench_function("rowsum/naive_recompute_x1024", |bench| {
        bench.iter(|| {
            let mut acc = 0usize;
            for &k in &keys {
                let mask = BitVec::from_words(10, vec![k]);
                let row = or_selected_rows(&mst, &mask);
                acc += row.count_ones();
            }
            black_box(acc)
        })
    });
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let a = BitMatrix::random(64, 8, 0.2, &mut rng);
    let b = BitMatrix::random(64, 8, 0.2, &mut rng);
    let f = BitMatrix::random(64, 8, 0.2, &mut rng);
    c.bench_function("reconstruct/64^3_r8", |bench| {
        bench.iter(|| black_box(dbtf_tensor::reconstruct::reconstruct(&a, &b, &f)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_bitvec, bench_matmul, bench_unfold_partition, bench_cache, bench_reconstruct
}
criterion_main!(benches);
