//! Walk'n'Merge (Erdős & Miettinen, *Walk 'n' Merge: A Scalable Algorithm
//! for Boolean Tensor Factorization*, 2013) — the second baseline of the
//! DBTF paper.
//!
//! The tensor's non-zeros form a graph: two 1-cells are adjacent when they
//! agree in all but one mode (they lie on a common fiber). Short random
//! walks (length 5 in the paper's setup) stay inside dense regions, so the
//! cells a walk visits span a candidate *block* (a combinatorial box
//! `I_s × J_s × K_s`). Blocks dense enough (≥ the merging threshold
//! `t = 1 − n_d`, where `n_d` is the destructive noise level) survive, and
//! a merge phase greedily unions blocks whose combined box stays dense.
//! Each final block is a rank-1 tensor; the factorization takes the
//! largest `R`.
//!
//! The paper's observed behaviour that this reproduction preserves: the
//! walk count scales with `|X|` and the merge phase with the square of the
//! number of found blocks, so running time grows quickly with density
//! (Figure 1(b)) and tensor size (Figure 1(a)); a 4×4×4 minimum block size
//! filters noise.

use dbtf_tensor::reconstruct::reconstruct;
use dbtf_tensor::{BitMatrix, BoolTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use crate::{BaselineError, Deadline};

/// Walk'n'Merge parameters (defaults follow the DBTF paper's Section
/// IV-A2 setup).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WnmConfig {
    /// Merging/density threshold `t` (the paper sets `t = 1 − n_d`).
    pub merge_threshold: f64,
    /// Minimum block size per mode (paper: 4×4×4).
    pub min_block: [usize; 3],
    /// Random walk length (paper: 5).
    pub walk_length: usize,
    /// Number of walks; `None` starts one walk per non-zero.
    pub num_walks: Option<usize>,
    /// Threads for the walk phase (Walk'n'Merge is a *parallel* —
    /// though not distributed — algorithm; the paper runs the authors'
    /// parallel implementation on one machine). Results are deterministic
    /// for a fixed `(seed, threads)` pair; different thread counts
    /// partition the walk budget differently.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WnmConfig {
    fn default() -> Self {
        WnmConfig {
            merge_threshold: 0.9,
            min_block: [4, 4, 4],
            walk_length: 5,
            num_walks: None,
            threads: 1,
            seed: 0,
        }
    }
}

/// A dense block found by Walk'n'Merge: a combinatorial box with its
/// one-count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WnmBlock {
    /// Sorted mode-1 indices.
    pub is: Vec<u32>,
    /// Sorted mode-2 indices.
    pub js: Vec<u32>,
    /// Sorted mode-3 indices.
    pub ks: Vec<u32>,
    /// Number of ones of `X` inside the box.
    pub ones: usize,
}

impl WnmBlock {
    /// Cells in the box.
    pub fn volume(&self) -> usize {
        self.is.len() * self.js.len() * self.ks.len()
    }

    /// Fraction of ones in the box.
    pub fn density(&self) -> f64 {
        if self.volume() == 0 {
            0.0
        } else {
            self.ones as f64 / self.volume() as f64
        }
    }

    fn meets_min_size(&self, min: [usize; 3]) -> bool {
        self.is.len() >= min[0] && self.js.len() >= min[1] && self.ks.len() >= min[2]
    }
}

/// Outcome of a [`walk_n_merge()`] run.
#[derive(Clone, Debug)]
pub struct WnmResult {
    /// The merged dense blocks, largest (by ones) first.
    pub blocks: Vec<WnmBlock>,
}

impl WnmResult {
    /// Converts the top `rank` blocks into Boolean CP factors: each block
    /// is the rank-1 tensor `1_{I_s} ∘ 1_{J_s} ∘ 1_{K_s}`.
    ///
    /// If fewer than `rank` blocks were found, the remaining components are
    /// zero (the paper notes Walk'n'Merge returns however many blocks it
    /// finds — more than 60 on its synthetic rank test).
    pub fn to_factors(&self, dims: [usize; 3], rank: usize) -> (BitMatrix, BitMatrix, BitMatrix) {
        let mut a = BitMatrix::zeros(dims[0], rank);
        let mut b = BitMatrix::zeros(dims[1], rank);
        let mut c = BitMatrix::zeros(dims[2], rank);
        for (r, block) in self.blocks.iter().take(rank).enumerate() {
            for &i in &block.is {
                a.set(i as usize, r, true);
            }
            for &j in &block.js {
                b.set(j as usize, r, true);
            }
            for &k in &block.ks {
                c.set(k as usize, r, true);
            }
        }
        (a, b, c)
    }

    /// Reconstruction error of the top-`rank` factorization against `x`.
    pub fn error(&self, x: &BoolTensor, rank: usize) -> u64 {
        let (a, b, c) = self.to_factors(x.dims(), rank);
        x.xor_count(&reconstruct(&a, &b, &c)) as u64
    }
}

/// Runs Walk'n'Merge on `x`.
pub fn walk_n_merge(
    x: &BoolTensor,
    config: &WnmConfig,
    deadline: Option<&Deadline>,
) -> Result<WnmResult, BaselineError> {
    if !(0.0..=1.0).contains(&config.merge_threshold) {
        return Err(BaselineError::InvalidConfig(
            "merge_threshold must be in [0, 1]".into(),
        ));
    }
    if config.walk_length == 0 {
        return Err(BaselineError::InvalidConfig(
            "walk_length must be ≥ 1".into(),
        ));
    }
    if config.threads == 0 {
        return Err(BaselineError::InvalidConfig("threads must be ≥ 1".into()));
    }
    let entries = x.entries();
    if entries.is_empty() {
        return Ok(WnmResult { blocks: Vec::new() });
    }
    // --- Fiber index: neighbours of a 1-cell along each mode. -----------
    // Entries are sorted by (i, j, k), so the (i, j, :) fiber is a
    // contiguous range; the other two need explicit maps.
    let mut fiber_ik: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    let mut fiber_jk: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    for (idx, e) in entries.iter().enumerate() {
        fiber_ik.entry((e[0], e[2])).or_default().push(idx as u32);
        fiber_jk.entry((e[1], e[2])).or_default().push(idx as u32);
    }

    // --- Walk phase (parallel across `config.threads`). -------------------
    let num_walks = config.num_walks.unwrap_or(entries.len());
    let mut thread_results: Vec<Result<Vec<WnmBlock>, BaselineError>> = Vec::new();
    if config.threads == 1 {
        thread_results.push(walk_range(
            x,
            entries,
            &fiber_ik,
            &fiber_jk,
            config,
            num_walks,
            config.seed,
            deadline,
        ));
    } else {
        let threads = config.threads;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for t in 0..threads {
                let walks = num_walks / threads + usize::from(t < num_walks % threads);
                let seed = config.seed ^ (t as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
                let (fik, fjk) = (&fiber_ik, &fiber_jk);
                handles.push(scope.spawn(move || {
                    walk_range(x, entries, fik, fjk, config, walks, seed, deadline)
                }));
            }
            for h in handles {
                thread_results.push(h.join().expect("walker thread panicked"));
            }
        });
    }
    let mut raw_blocks: Vec<WnmBlock> = Vec::new();
    let mut seen_boxes: std::collections::HashSet<(Vec<u32>, Vec<u32>, Vec<u32>)> =
        std::collections::HashSet::new();
    for result in thread_results {
        for block in result? {
            let key = (block.is.clone(), block.js.clone(), block.ks.clone());
            if seen_boxes.insert(key) {
                raw_blocks.push(block);
            }
        }
    }

    // --- Merge phase. ------------------------------------------------------
    // Greedy passes: union any pair whose combined box stays dense.
    let mut blocks = raw_blocks;
    loop {
        if let Some(d) = deadline {
            if d.expired() {
                return Err(BaselineError::OutOfTime);
            }
        }
        let mut merged_any = false;
        let mut next: Vec<WnmBlock> = Vec::with_capacity(blocks.len());
        let mut used = vec![false; blocks.len()];
        for i in 0..blocks.len() {
            if used[i] {
                continue;
            }
            let mut current = blocks[i].clone();
            used[i] = true;
            for j in (i + 1)..blocks.len() {
                if used[j] {
                    continue;
                }
                if let Some(d) = deadline {
                    if d.expired() {
                        return Err(BaselineError::OutOfTime);
                    }
                }
                let union = union_box(x, &current, &blocks[j]);
                if union.density() >= config.merge_threshold {
                    current = union;
                    used[j] = true;
                    merged_any = true;
                }
            }
            next.push(current);
        }
        blocks = next;
        if !merged_any {
            break;
        }
    }

    // --- Size filter and ordering. ---------------------------------------
    blocks.retain(|b| b.meets_min_size(config.min_block));
    blocks.sort_by_key(|b| std::cmp::Reverse(b.ones));
    Ok(WnmResult { blocks })
}

/// One walker's share of the walk phase: runs `walks` random walks and
/// returns the dense candidate blocks it found.
#[allow(clippy::too_many_arguments)]
fn walk_range(
    x: &BoolTensor,
    entries: &[[u32; 3]],
    fiber_ik: &HashMap<(u32, u32), Vec<u32>>,
    fiber_jk: &HashMap<(u32, u32), Vec<u32>>,
    config: &WnmConfig,
    walks: usize,
    seed: u64,
    deadline: Option<&Deadline>,
) -> Result<Vec<WnmBlock>, BaselineError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut blocks = Vec::new();
    for w in 0..walks {
        if w % 256 == 0 {
            if let Some(d) = deadline {
                if d.expired() {
                    return Err(BaselineError::OutOfTime);
                }
            }
        }
        let mut node = rng.gen_range(0..entries.len());
        let mut visited = vec![node];
        for _ in 0..config.walk_length {
            let e = entries[node];
            let next = match rng.gen_range(0..3u8) {
                0 => {
                    // (i, j, :) fiber — contiguous range of `entries`.
                    let lo = entries.partition_point(|q| (q[0], q[1]) < (e[0], e[1]));
                    let hi = entries.partition_point(|q| (q[0], q[1]) <= (e[0], e[1]));
                    lo + rng.gen_range(0..hi - lo)
                }
                1 => {
                    let fiber = &fiber_ik[&(e[0], e[2])];
                    fiber[rng.gen_range(0..fiber.len())] as usize
                }
                _ => {
                    let fiber = &fiber_jk[&(e[1], e[2])];
                    fiber[rng.gen_range(0..fiber.len())] as usize
                }
            };
            node = next;
            visited.push(node);
        }
        let block = box_of(x, visited.iter().map(|&n| entries[n]));
        if block.density() >= config.merge_threshold {
            blocks.push(block);
        }
    }
    Ok(blocks)
}

/// The bounding box of a set of cells, with its one-count.
fn box_of(x: &BoolTensor, cells: impl Iterator<Item = [u32; 3]>) -> WnmBlock {
    let (mut is, mut js, mut ks) = (Vec::new(), Vec::new(), Vec::new());
    for e in cells {
        is.push(e[0]);
        js.push(e[1]);
        ks.push(e[2]);
    }
    is.sort_unstable();
    is.dedup();
    js.sort_unstable();
    js.dedup();
    ks.sort_unstable();
    ks.dedup();
    let ones = count_in_sets(x, &is, &js, &ks);
    WnmBlock { is, js, ks, ones }
}

fn union_box(x: &BoolTensor, a: &WnmBlock, b: &WnmBlock) -> WnmBlock {
    let merge = |u: &[u32], v: &[u32]| {
        let mut out = Vec::with_capacity(u.len() + v.len());
        out.extend_from_slice(u);
        out.extend_from_slice(v);
        out.sort_unstable();
        out.dedup();
        out
    };
    let is = merge(&a.is, &b.is);
    let js = merge(&a.js, &b.js);
    let ks = merge(&a.ks, &b.ks);
    let ones = count_in_sets(x, &is, &js, &ks);
    WnmBlock { is, js, ks, ones }
}

/// Ones of `x` inside the box `is × js × ks`. For small boxes, test each
/// cell; for large ones, scan the entries.
fn count_in_sets(x: &BoolTensor, is: &[u32], js: &[u32], ks: &[u32]) -> usize {
    let volume = is.len() * js.len() * ks.len();
    if volume <= 4096 || volume <= x.nnz() {
        let mut count = 0;
        for &i in is {
            for &j in js {
                for &k in ks {
                    if x.contains(i, j, k) {
                        count += 1;
                    }
                }
            }
        }
        count
    } else {
        let iset: std::collections::HashSet<u32> = is.iter().copied().collect();
        let jset: std::collections::HashSet<u32> = js.iter().copied().collect();
        let kset: std::collections::HashSet<u32> = ks.iter().copied().collect();
        x.iter()
            .filter(|e| iset.contains(&e[0]) && jset.contains(&e[1]) && kset.contains(&e[2]))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_tensor() -> BoolTensor {
        // Two disjoint 5×5×5 full blocks in a 12³ tensor.
        let mut entries = Vec::new();
        for i in 0..5u32 {
            for j in 0..5u32 {
                for k in 0..5u32 {
                    entries.push([i, j, k]);
                    entries.push([i + 6, j + 6, k + 6]);
                }
            }
        }
        BoolTensor::from_entries([12, 12, 12], entries)
    }

    #[test]
    fn finds_planted_dense_blocks() {
        let x = block_tensor();
        let cfg = WnmConfig {
            merge_threshold: 0.95,
            seed: 3,
            ..WnmConfig::default()
        };
        let res = walk_n_merge(&x, &cfg, None).unwrap();
        assert!(
            res.blocks.len() >= 2,
            "expected both blocks, got {:?}",
            res.blocks.len()
        );
        // The two largest blocks cover the tensor exactly.
        assert_eq!(res.error(&x, 2), 0);
    }

    #[test]
    fn respects_min_block_size() {
        // A single 2×2×2 block: below the 4×4×4 minimum → no blocks.
        let mut entries = Vec::new();
        for i in 0..2u32 {
            for j in 0..2u32 {
                for k in 0..2u32 {
                    entries.push([i, j, k]);
                }
            }
        }
        let x = BoolTensor::from_entries([8, 8, 8], entries);
        let res = walk_n_merge(&x, &WnmConfig::default(), None).unwrap();
        assert!(res.blocks.is_empty());
    }

    #[test]
    fn blocks_are_dense() {
        let x = block_tensor();
        let cfg = WnmConfig {
            merge_threshold: 0.9,
            seed: 1,
            ..WnmConfig::default()
        };
        let res = walk_n_merge(&x, &cfg, None).unwrap();
        for b in &res.blocks {
            assert!(b.density() >= 0.9, "block density {}", b.density());
        }
    }

    #[test]
    fn walks_scale_with_nnz_unless_overridden() {
        let x = block_tensor();
        let cfg = WnmConfig {
            num_walks: Some(10),
            seed: 5,
            ..WnmConfig::default()
        };
        // Just exercises the bounded-walk path.
        let res = walk_n_merge(&x, &cfg, None).unwrap();
        let _ = res.blocks;
    }

    #[test]
    fn empty_tensor_yields_no_blocks() {
        let x = BoolTensor::empty([4, 4, 4]);
        let res = walk_n_merge(&x, &WnmConfig::default(), None).unwrap();
        assert!(res.blocks.is_empty());
        assert_eq!(res.error(&x, 3), 0);
    }

    #[test]
    fn deadline_trips() {
        let x = block_tensor();
        let deadline = Deadline::in_secs(0.0);
        assert_eq!(
            walk_n_merge(&x, &WnmConfig::default(), Some(&deadline)).unwrap_err(),
            BaselineError::OutOfTime
        );
    }

    #[test]
    fn factors_shape() {
        let x = block_tensor();
        let res = walk_n_merge(
            &x,
            &WnmConfig {
                seed: 2,
                ..WnmConfig::default()
            },
            None,
        )
        .unwrap();
        let (a, b, c) = res.to_factors(x.dims(), 4);
        assert_eq!((a.rows(), a.cols()), (12, 4));
        assert_eq!((b.rows(), b.cols()), (12, 4));
        assert_eq!((c.rows(), c.cols()), (12, 4));
    }

    #[test]
    fn rejects_bad_config() {
        let x = block_tensor();
        let bad = WnmConfig {
            merge_threshold: 1.5,
            ..WnmConfig::default()
        };
        assert!(walk_n_merge(&x, &bad, None).is_err());
        let bad_threads = WnmConfig {
            threads: 0,
            ..WnmConfig::default()
        };
        assert!(walk_n_merge(&x, &bad_threads, None).is_err());
    }

    #[test]
    fn parallel_walk_phase_finds_the_blocks() {
        let x = block_tensor();
        let cfg = WnmConfig {
            merge_threshold: 0.95,
            threads: 4,
            seed: 3,
            ..WnmConfig::default()
        };
        let res = walk_n_merge(&x, &cfg, None).unwrap();
        assert!(res.blocks.len() >= 2);
        assert_eq!(res.error(&x, 2), 0);
        // Deterministic for fixed (seed, threads).
        let again = walk_n_merge(&x, &cfg, None).unwrap();
        assert_eq!(res.blocks, again.blocks);
    }

    #[test]
    fn parallel_deadline_trips() {
        let x = block_tensor();
        let cfg = WnmConfig {
            threads: 3,
            ..WnmConfig::default()
        };
        let deadline = Deadline::in_secs(0.0);
        assert_eq!(
            walk_n_merge(&x, &cfg, Some(&deadline)).unwrap_err(),
            BaselineError::OutOfTime
        );
    }
}
