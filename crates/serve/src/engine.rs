//! The reconstruction query engine: point / slice / topk computed from
//! a [`FactorStore`]'s factor rows.
//!
//! No query ever materializes the reconstruction `X̃ = ⋁_r a_r ∘ b_r ∘
//! c_r`. A **point** is the nonzero test of a three-way AND over `R`-bit
//! rows; a **slice** (one fiber) scans the free mode's factor once,
//! ANDing each row with the two fixed rows and pushing the matching
//! indices straight into the reply; **topk** never touches the tensor at
//! all — it ranks the columns set in one entity's factor row by the
//! precomputed column weights in the store. Nothing is memoized: a point
//! costs one word per 64 ranks, less than a cache lookup would.
//!
//! All index validation happens here, as typed [`QueryError`]s — the
//! store's row accessors are allowed to panic precisely because this
//! layer never forwards an out-of-range index.
//!
//! # Hot swap
//!
//! [`QueryEngine::reload`] swaps in a new factor set while queries are in
//! flight. The store lives behind one `RwLock` holding `(Arc<FactorStore>,
//! generation)`; every query clones the `Arc` once up front and answers
//! entirely from it, so a query that started before a reload finishes
//! against the old factors — never a mix of generations. A reload is a
//! dims check plus a swap of that pair under the write lock. Lock
//! poisoning is recovered rather than propagated: the lock guards a pair
//! that is only ever replaced whole, so a panic elsewhere cannot leave it
//! half-written, and one crashed connection thread must not wedge every
//! later query into an `unwrap()` panic.

use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

use dbtf_tensor::TensorDelta;

use crate::metrics::ServeMetrics;
use crate::store::FactorStore;

/// A query that cannot be answered for this factor set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// An index or mode is outside the store's dimensions.
    OutOfRange(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::OutOfRange(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// The store actually being served plus the engine-local generation it
/// was installed under. Kept in one `RwLock` so a reload replaces the
/// pair in one step.
struct Generation {
    store: Arc<FactorStore>,
    number: u64,
}

/// What a successful [`QueryEngine::reload`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// The new store's set version (from its header).
    pub set_version: u64,
    /// The engine-local generation the swap installed.
    pub generation: u64,
    /// Always 0: nothing is cached, so a reload invalidates nothing.
    /// Kept only because the ledger benchmark
    /// (`crates/bench/src/bin/ledger`) still reads it.
    pub invalidated: u64,
}

/// The serving engine: one store generation and shared metrics.
pub struct QueryEngine {
    current: RwLock<Generation>,
    metrics: Arc<ServeMetrics>,
}

/// The two fixed modes for a given free mode, in ascending order.
fn fixed_modes(free: usize) -> (usize, usize) {
    match free {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

/// Do three packed factor rows share a set bit?
fn intersects(x: &[u64], y: &[u64], z: &[u64]) -> bool {
    x.iter().zip(y).zip(z).any(|((x, y), z)| x & y & z != 0)
}

impl QueryEngine {
    /// Builds an engine over `store`.
    ///
    /// The `usize` argument is ignored; it stays only because the ledger
    /// benchmark (`crates/bench/src/bin/ledger`) still passes one.
    pub fn new(store: FactorStore, _: usize, metrics: Arc<ServeMetrics>) -> QueryEngine {
        QueryEngine {
            current: RwLock::new(Generation {
                store: Arc::new(store),
                number: 0,
            }),
            metrics,
        }
    }

    /// A snapshot of the factor store currently being served. The `Arc`
    /// keeps that generation alive even if a reload lands immediately
    /// after — which is exactly how in-flight queries finish against the
    /// factors they started with.
    pub fn store(&self) -> Arc<FactorStore> {
        let current = self.current.read().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&current.store)
    }

    /// The shared metrics sink.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Hot-swaps `store` in as the new serving generation.
    ///
    /// The swap is one write-lock critical section: queries already
    /// holding a snapshot finish against the old `Arc`; every later query
    /// snapshots the new one.
    ///
    /// Rejects a store whose dimensions differ from the serving one —
    /// clients hold entity indices, and silently changing the space under
    /// them would turn valid queries into out-of-range errors (or worse,
    /// silently reinterpret them). Of `delta`, only the dims are checked
    /// against the serving space; the argument stays only because the
    /// ledger benchmark (`crates/bench/src/bin/ledger`) still passes one.
    /// The server passes `None`.
    pub fn reload(
        &self,
        store: FactorStore,
        delta: Option<&TensorDelta>,
    ) -> Result<ReloadOutcome, String> {
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let dims = current.store.dims();
        if store.dims() != dims {
            return Err(format!(
                "dims mismatch: serving {dims:?}, reload has {:?}",
                store.dims()
            ));
        }
        if let Some(delta) = delta.filter(|d| d.dims() != dims) {
            return Err(format!(
                "delta dims mismatch: serving {dims:?}, delta has {:?}",
                delta.dims()
            ));
        }
        *current = Generation {
            store: Arc::new(store),
            number: current.number + 1,
        };
        Ok(ReloadOutcome {
            set_version: current.store.set_version(),
            generation: current.number,
            invalidated: 0,
        })
    }

    fn check_index(
        store: &FactorStore,
        name: &str,
        idx: usize,
        mode: usize,
    ) -> Result<(), QueryError> {
        let dim = store.dims()[mode];
        if idx >= dim {
            return Err(QueryError::OutOfRange(format!(
                "{name} = {idx} out of range (mode {mode} has {dim} entities)"
            )));
        }
        Ok(())
    }

    fn check_mode(mode: usize) -> Result<(), QueryError> {
        if mode > 2 {
            return Err(QueryError::OutOfRange(format!(
                "mode = {mode} out of range (0, 1, or 2)"
            )));
        }
        Ok(())
    }

    /// Was cell `X̃[i, j, k]` set in the reconstruction?
    pub fn point(&self, i: usize, j: usize, k: usize) -> Result<bool, QueryError> {
        let t0 = Instant::now();
        let store = self.store();
        Self::check_index(&store, "i", i, 0)?;
        Self::check_index(&store, "j", j, 1)?;
        Self::check_index(&store, "k", k, 2)?;
        let answer = intersects(store.row(0, i), store.row(1, j), store.row(2, k));
        ServeMetrics::add(&self.metrics.point_queries, 1);
        ServeMetrics::add_elapsed(&self.metrics.point_nanos, t0.elapsed());
        Ok(answer)
    }

    /// The nonzero indices of one reconstruction fiber: `free_mode` is
    /// the axis left free, `lo`/`hi` index the other two modes in
    /// ascending mode order (free 2 → `lo` = i, `hi` = j, answering
    /// `X̃[lo, hi, :]`).
    pub fn slice(&self, free_mode: usize, lo: usize, hi: usize) -> Result<Vec<usize>, QueryError> {
        let t0 = Instant::now();
        let store = self.store();
        Self::check_mode(free_mode)?;
        let (m1, m2) = fixed_modes(free_mode);
        Self::check_index(&store, "lo", lo, m1)?;
        Self::check_index(&store, "hi", hi, m2)?;
        let (row_lo, row_hi) = (store.row(m1, lo), store.row(m2, hi));
        let indices = (0..store.dims()[free_mode])
            .filter(|&t| intersects(row_lo, row_hi, store.row(free_mode, t)))
            .collect();
        ServeMetrics::add(&self.metrics.slice_queries, 1);
        ServeMetrics::add_elapsed(&self.metrics.slice_nanos, t0.elapsed());
        Ok(indices)
    }

    /// The strongest factor columns for entity `entity` of `mode`:
    /// columns set in that entity's factor row, as `(column, weight)`
    /// pairs ranked by weight descending (ties broken by column
    /// ascending) and truncated to `k`. The weight is the number of
    /// reconstruction cells the column contributes in the entity's slice
    /// — the product of the other two factors' column popcounts.
    pub fn topk(
        &self,
        mode: usize,
        entity: usize,
        k: usize,
    ) -> Result<Vec<(usize, u64)>, QueryError> {
        let t0 = Instant::now();
        let store = self.store();
        Self::check_mode(mode)?;
        Self::check_index(&store, "entity", entity, mode)?;
        let row = store.row(mode, entity);
        let mut ranked: Vec<(usize, u64)> = (0..store.rank())
            .filter(|r| row[r / 64] >> (r % 64) & 1 == 1)
            .map(|r| (r, store.column_weight(mode, r)))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ServeMetrics::add(&self.metrics.topk_queries, 1);
        ServeMetrics::add_elapsed(&self.metrics.topk_nanos, t0.elapsed());
        Ok(ranked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf::{random_factor_sets, DbtfConfig, FactorSet};

    fn engine() -> (QueryEngine, FactorSet) {
        let cfg = DbtfConfig {
            seed: 11,
            ..DbtfConfig::with_rank(6)
        };
        let factors = random_factor_sets([8, 7, 9], 0.4, &cfg).remove(0);
        let store = FactorStore::from_factor_set(1, &factors);
        (
            QueryEngine::new(store, 0, Arc::new(ServeMetrics::new())),
            factors,
        )
    }

    #[test]
    fn point_matches_reconstruction_cold_and_hot() {
        let (engine, factors) = engine();
        let recon = factors.reconstruct();
        for i in 0..8 {
            for j in 0..7 {
                for k in 0..9 {
                    // Ask twice: a repeat query must agree bit for bit.
                    for _ in 0..2 {
                        assert_eq!(
                            engine.point(i, j, k).unwrap(),
                            recon.contains(i as u32, j as u32, k as u32),
                            "cell ({i},{j},{k})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slice_matches_point_on_every_axis() {
        let (engine, _) = engine();
        let dims = engine.store().dims();
        for free in 0..3 {
            let (m1, m2) = super::fixed_modes(free);
            for lo in 0..dims[m1] {
                for hi in 0..dims[m2] {
                    let ones = engine.slice(free, lo, hi).unwrap();
                    for t in 0..dims[free] {
                        let mut ijk = [0; 3];
                        ijk[free] = t;
                        ijk[m1] = lo;
                        ijk[m2] = hi;
                        assert_eq!(
                            ones.contains(&t),
                            engine.point(ijk[0], ijk[1], ijk[2]).unwrap(),
                            "free {free} ({lo},{hi}) t {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn topk_ranks_by_weight_then_column() {
        let (engine, factors) = engine();
        let full = engine.topk(0, 3, usize::MAX).unwrap();
        let row_ones: Vec<usize> = factors.a.iter_row_ones(3).collect();
        assert_eq!(full.len(), row_ones.len(), "every set column appears");
        for pair in full.windows(2) {
            assert!(
                pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                "ordering violated: {pair:?}"
            );
        }
        for &(col, weight) in &full {
            assert!(row_ones.contains(&col));
            let expect = factors.b.column(col).count_ones() as u64
                * factors.c.column(col).count_ones() as u64;
            assert_eq!(weight, expect, "column {col}");
        }
        let top2 = engine.topk(0, 3, 2).unwrap();
        assert_eq!(top2, full[..full.len().min(2)].to_vec());
    }

    #[test]
    fn out_of_range_is_typed_never_a_panic() {
        let (engine, _) = engine();
        assert!(matches!(
            engine.point(8, 0, 0),
            Err(QueryError::OutOfRange(_))
        ));
        assert!(matches!(
            engine.point(0, 7, 0),
            Err(QueryError::OutOfRange(_))
        ));
        assert!(matches!(
            engine.point(0, 0, 9),
            Err(QueryError::OutOfRange(_))
        ));
        assert!(matches!(
            engine.slice(3, 0, 0),
            Err(QueryError::OutOfRange(_))
        ));
        assert!(matches!(
            engine.slice(2, 0, 7),
            Err(QueryError::OutOfRange(_))
        ));
        assert!(matches!(
            engine.topk(1, 7, 3),
            Err(QueryError::OutOfRange(_))
        ));
        let err = engine.point(usize::MAX, 0, 0).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn poisoned_cache_lock_recovers_instead_of_wedging() {
        let (engine, factors) = engine();
        let engine = Arc::new(engine);
        let recon = factors.reconstruct();
        let expect = |i: usize, j: usize, k: usize| recon.contains(i as u32, j as u32, k as u32);
        let slice_before = engine.slice(2, 1, 2).unwrap();
        let topk_before = engine.topk(0, 3, usize::MAX).unwrap();
        // Poison the store lock: a thread panicking while it holds the
        // write guard is what a bug in a future reload path would look
        // like.
        let poisoner = Arc::clone(&engine);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.current.write().unwrap();
            panic!("poison the store lock");
        })
        .join();
        assert!(engine.current.read().is_err(), "lock really is poisoned");
        // Every query path crosses the lock and must keep answering —
        // and keep answering the same bits.
        assert_eq!(engine.point(1, 2, 3).unwrap(), expect(1, 2, 3));
        assert_eq!(engine.point(0, 0, 0).unwrap(), expect(0, 0, 0));
        assert_eq!(engine.slice(2, 1, 2).unwrap(), slice_before);
        assert_eq!(engine.topk(0, 3, usize::MAX).unwrap(), topk_before);
        // Reload takes the write side and must survive poisoning too.
        let outcome = engine
            .reload(FactorStore::from_factor_set(2, &factors), None)
            .unwrap();
        assert_eq!((outcome.set_version, outcome.generation), (2, 1));
        assert_eq!(engine.point(1, 2, 3).unwrap(), expect(1, 2, 3));
        assert_eq!(engine.slice(2, 1, 2).unwrap(), slice_before);
        assert_eq!(engine.topk(0, 3, usize::MAX).unwrap(), topk_before);
    }

    #[test]
    fn reload_swaps_generations_atomically() {
        let (engine, factors) = engine();
        let recon = factors.reconstruct();
        let old_store = engine.store();
        assert_eq!(old_store.set_version(), 1);

        // New generation: an all-zeros factor set — every answer flips
        // to empty, so an answer from the old factors would be caught
        // immediately.
        let zero = FactorSet {
            a: dbtf_tensor::BitMatrix::zeros(8, 6),
            b: dbtf_tensor::BitMatrix::zeros(7, 6),
            c: dbtf_tensor::BitMatrix::zeros(9, 6),
        };
        let outcome = engine
            .reload(FactorStore::from_factor_set(9, &zero), None)
            .unwrap();
        assert_eq!(outcome.set_version, 9);
        assert_eq!(outcome.generation, 1);
        assert_eq!(outcome.invalidated, 0);

        // The old snapshot still answers from the old factors.
        assert_eq!(old_store.set_version(), 1);
        // New queries see only the new generation.
        for i in 0..8 {
            for j in 0..7 {
                for k in 0..9 {
                    for _ in 0..2 {
                        assert!(!engine.point(i, j, k).unwrap(), "({i},{j},{k})");
                    }
                }
            }
        }
        assert_eq!(engine.store().set_version(), 9);
        // Reloading the original factors brings the original bits back.
        engine
            .reload(FactorStore::from_factor_set(10, &factors), None)
            .unwrap();
        for (i, j, k) in [(0, 0, 0), (1, 2, 3), (7, 6, 8)] {
            assert_eq!(
                engine.point(i, j, k).unwrap(),
                recon.contains(i as u32, j as u32, k as u32)
            );
        }
    }

    #[test]
    fn reload_rejects_dims_mismatch() {
        let (engine, _) = engine();
        let cfg = DbtfConfig {
            seed: 5,
            ..DbtfConfig::with_rank(6)
        };
        let other = random_factor_sets([4, 4, 4], 0.4, &cfg).remove(0);
        let err = engine
            .reload(FactorStore::from_factor_set(3, &other), None)
            .unwrap_err();
        assert!(err.contains("dims mismatch"), "{err}");
        assert_eq!(engine.store().set_version(), 1, "serving store unchanged");

        let (engine2, factors2) = super::tests::engine();
        let delta = dbtf_tensor::TensorDelta::new(
            [4, 4, 4],
            vec![dbtf_tensor::DeltaCell {
                coord: [0, 0, 0],
                set: true,
            }],
        )
        .unwrap();
        let err = engine2
            .reload(FactorStore::from_factor_set(2, &factors2), Some(&delta))
            .unwrap_err();
        assert!(err.contains("delta dims mismatch"), "{err}");
    }
}
