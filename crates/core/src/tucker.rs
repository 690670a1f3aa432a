//! Boolean Tucker decomposition — the extension the DBTF line of work
//! grew into (the journal version of the paper generalizes the framework
//! from Boolean CP to Boolean Tucker).
//!
//! A Boolean Tucker decomposition of `X ∈ B^{I×J×K}` is a binary *core
//! tensor* `G ∈ B^{R₁×R₂×R₃}` plus three binary factor matrices
//! `A ∈ B^{I×R₁}`, `B ∈ B^{J×R₂}`, `C ∈ B^{K×R₃}` with
//!
//! ```text
//! x̃_ijk = ⋁_{p,q,r} g_pqr ∧ a_ip ∧ b_jq ∧ c_kr .
//! ```
//!
//! Boolean CP is the special case `R₁ = R₂ = R₃ = R` with a superdiagonal
//! core; Tucker can express interactions between factor columns with far
//! fewer factor columns per mode.
//!
//! The solver is the same alternating greedy framework as the CP path:
//!
//! - **Factor updates** reduce to the CP update with the Khatri-Rao rows
//!   replaced by per-column *patterns* assembled from the core: for mode 1,
//!   `pattern_p = ⋁_{(q,r): g_pqr} c_{:r} ⊗ b_{:q}` — updating `a_ip`
//!   toggles `pattern_p` in row `i` of `X_(1)`'s reconstruction. Rows are
//!   scored greedily per column, restricted to the pattern's support
//!   (cells outside it contribute equally to both candidates).
//! - **Core updates** flip each `g_pqr` greedily, maintaining a sparse
//!   cover-count over the reconstruction so the error delta of a flip is
//!   exact (a cell leaves the reconstruction only when its count drops to
//!   zero — Boolean sums don't subtract).
//!
//! This module is the single-machine implementation; the distributed
//! driver lives in [`crate::tucker_distributed`] and reproduces it
//! bit-for-bit on the cluster engine. Both reuse the same initialization
//! and convergence conventions as [`crate::factorize`] so results are
//! comparable.

use dbtf_tensor::{BitMatrix, BitVec, BoolTensor, Mode, TensorBuilder, Unfolding};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use crate::config::DbtfError;

/// A Tucker run stops when an iteration changes the error by at most
/// this fraction of `|X|`.
pub(crate) const CONVERGENCE_THRESHOLD: f64 = 1e-4;

/// Configuration of a Boolean Tucker run.
#[derive(Clone, Debug, PartialEq)]
pub struct TuckerConfig {
    /// Core ranks `[R₁, R₂, R₃]` (factor column counts per mode).
    pub ranks: [usize; 3],
    /// Maximum ALS iterations.
    pub max_iters: usize,
    /// Number of random initial sets; the best after one iteration is kept.
    pub initial_sets: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TuckerConfig {
    fn default() -> Self {
        TuckerConfig {
            ranks: [4, 4, 4],
            max_iters: 10,
            initial_sets: 1,
            seed: 0,
        }
    }
}

impl TuckerConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), DbtfError> {
        if self.ranks.contains(&0) {
            return Err(DbtfError::InvalidConfig(
                "all core ranks must be at least 1".into(),
            ));
        }
        if self.ranks.iter().any(|&r| r > u16::MAX as usize) {
            return Err(DbtfError::InvalidConfig("core ranks too large".into()));
        }
        if self.max_iters == 0 {
            return Err(DbtfError::InvalidConfig("max_iters must be ≥ 1".into()));
        }
        if self.initial_sets == 0 {
            return Err(DbtfError::InvalidConfig("initial_sets must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// A Boolean Tucker factorization: core plus factors.
#[derive(Clone, Debug, PartialEq)]
pub struct TuckerFactorization {
    /// The binary core tensor `G ∈ B^{R₁×R₂×R₃}`.
    pub core: BoolTensor,
    /// Mode-1 factor `A ∈ B^{I×R₁}`.
    pub a: BitMatrix,
    /// Mode-2 factor `B ∈ B^{J×R₂}`.
    pub b: BitMatrix,
    /// Mode-3 factor `C ∈ B^{K×R₃}`.
    pub c: BitMatrix,
}

impl TuckerFactorization {
    /// Materializes the Boolean reconstruction
    /// `x̃_ijk = ⋁_{p,q,r} g_pqr ∧ a_ip ∧ b_jq ∧ c_kr`.
    pub fn reconstruct(&self) -> BoolTensor {
        let mut builder = TensorBuilder::new([self.a.rows(), self.b.rows(), self.c.rows()]);
        for [p, q, r] in self.core.iter() {
            let is: Vec<usize> = self.a.column(p as usize).iter_ones().collect();
            let js: Vec<usize> = self.b.column(q as usize).iter_ones().collect();
            let ks: Vec<usize> = self.c.column(r as usize).iter_ones().collect();
            for &i in &is {
                for &j in &js {
                    for &k in &ks {
                        builder.insert(i as u32, j as u32, k as u32);
                    }
                }
            }
        }
        builder.build()
    }

    /// Reconstruction error `|X ⊕ X̃|`.
    pub fn error(&self, x: &BoolTensor) -> u64 {
        x.xor_count(&self.reconstruct()) as u64
    }

    /// Total ones across core and factors (model complexity diagnostic).
    pub fn total_ones(&self) -> usize {
        self.core.nnz() + self.a.count_ones() + self.b.count_ones() + self.c.count_ones()
    }
}

/// Outcome of [`tucker_factorize`].
#[derive(Clone, Debug)]
pub struct TuckerResult {
    /// The best factorization found.
    pub factorization: TuckerFactorization,
    /// Final reconstruction error `|X ⊕ X̃|`.
    pub error: u64,
    /// `error / |X|`.
    pub relative_error: f64,
    /// Error after each iteration.
    pub iteration_errors: Vec<u64>,
    /// Whether the convergence criterion fired.
    pub converged: bool,
    /// Iterations executed.
    pub iterations: usize,
}

/// Boolean Tucker-factorizes `x` with alternating greedy updates of
/// `A`, `B`, `C` and the core `G`.
///
/// # Errors
///
/// [`DbtfError::InvalidConfig`] for bad configurations,
/// [`DbtfError::EmptyTensor`] for zero-sized modes.
pub fn tucker_factorize(x: &BoolTensor, config: &TuckerConfig) -> Result<TuckerResult, DbtfError> {
    config.validate()?;
    let dims = x.dims();
    if dims.contains(&0) {
        return Err(DbtfError::EmptyTensor);
    }
    let unf1 = Unfolding::new(x, Mode::One);
    let unf2 = Unfolding::new(x, Mode::Two);
    let unf3 = Unfolding::new(x, Mode::Three);

    let mut best: Option<(TuckerFactorization, u64)> = None;
    for l in 0..config.initial_sets {
        let mut rng = StdRng::seed_from_u64(
            config.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(l as u64 + 1),
        );
        let set = init_set(x, config, &mut rng);
        let (set, error) = update_round(x, &unf1, &unf2, &unf3, set);
        if best.as_ref().is_none_or(|(_, be)| error < *be) {
            best = Some((set, error));
        }
    }
    let (mut factorization, mut error) = best.expect("initial_sets ≥ 1");
    let mut iteration_errors = vec![error];
    let mut converged = error == 0;
    let threshold = CONVERGENCE_THRESHOLD * x.nnz().max(1) as f64;
    for t in 2..=config.max_iters {
        if converged {
            break;
        }
        // Revive dead components before the round: an all-zero factor
        // column is an absorbing state (every core block through it is
        // empty, so neither the factor nor the core update can bring it
        // back). Reviving may transiently hurt, so the round's result is
        // kept only if it does not regress — reported errors stay
        // monotone.
        let mut rng = StdRng::seed_from_u64(config.seed ^ (t as u64).wrapping_mul(0xc0de));
        let revived = revive_dead_components(x, factorization.clone(), &mut rng);
        let (next, next_error) = update_round(x, &unf1, &unf2, &unf3, revived);
        if next_error > error {
            // This revival hurt: discard it and try a different
            // perturbation next iteration (the revival RNG is re-seeded
            // per iteration). Reported errors stay monotone.
            iteration_errors.push(error);
            continue;
        }
        let delta = error.abs_diff(next_error) as f64;
        let stalled = next == factorization;
        factorization = next;
        error = next_error;
        iteration_errors.push(error);
        if (delta <= threshold && stalled) || error == 0 {
            converged = true;
        }
    }
    let relative_error = if x.nnz() == 0 {
        if error == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        error as f64 / x.nnz() as f64
    };
    Ok(TuckerResult {
        iterations: iteration_errors.len(),
        converged,
        relative_error,
        error,
        factorization,
        iteration_errors,
    })
}

/// Fiber-sampled initialization (mirrors the CP path's default): `B`/`C`
/// columns seeded from fibers through random non-zeros, `A` zero, core
/// superdiagonal-ish (`g_{p, p mod R₂, p mod R₃} = 1` plus a sprinkle of
/// random couplings) so the first iteration behaves like CP and later
/// core updates discover cross-column interactions.
pub(crate) fn init_set(
    x: &BoolTensor,
    config: &TuckerConfig,
    rng: &mut StdRng,
) -> TuckerFactorization {
    let dims = x.dims();
    let [r1, r2, r3] = config.ranks;
    let mut b = BitMatrix::zeros(dims[1], r2);
    let mut c = BitMatrix::zeros(dims[2], r3);
    let entries = x.entries();
    if !entries.is_empty() {
        // Diverse sampling: re-draw (a few times) when a sampled fiber
        // duplicates an existing column — with few columns per mode,
        // duplicated seeds waste expressiveness the core can never
        // recover (e.g. two identical B columns can only reach half the
        // group interactions of a blocky tensor).
        for col in 0..r2.max(r3) {
            'attempts: for attempt in 0..8 {
                let [i, j, k] = entries[rng.gen_range(0..entries.len())];
                let lo = entries.partition_point(|e| e[0] < i);
                let hi = entries.partition_point(|e| e[0] <= i);
                let mut b_col = BitVec::zeros(dims[1]);
                let mut c_col = BitVec::zeros(dims[2]);
                for e in &entries[lo..hi] {
                    if e[2] == k {
                        b_col.set(e[1] as usize, true);
                    }
                    if e[1] == j {
                        c_col.set(e[2] as usize, true);
                    }
                }
                let dup = (0..col).any(|p| {
                    (col < r2 && p < r2 && b.column(p) == b_col)
                        || (col < r3 && p < r3 && c.column(p) == c_col)
                });
                if dup && attempt < 7 {
                    continue 'attempts;
                }
                if col < r2 {
                    for j2 in b_col.iter_ones() {
                        b.set(j2, col, true);
                    }
                }
                if col < r3 {
                    for k2 in c_col.iter_ones() {
                        c.set(k2, col, true);
                    }
                }
                break 'attempts;
            }
        }
    }
    let mut core_entries = Vec::new();
    for p in 0..r1 {
        core_entries.push([p as u32, (p % r2) as u32, (p % r3) as u32]);
    }
    // A few random couplings to let the core explore off-diagonal terms.
    for _ in 0..(r1 * r2 * r3 / 8).max(1) {
        core_entries.push([
            rng.gen_range(0..r1 as u32),
            rng.gen_range(0..r2 as u32),
            rng.gen_range(0..r3 as u32),
        ]);
    }
    TuckerFactorization {
        core: BoolTensor::from_entries([r1, r2, r3], core_entries),
        a: BitMatrix::zeros(dims[0], r1),
        b,
        c,
    }
}

/// Re-seeds *useless* factor columns — all-zero columns (absorbing: every
/// core block through them is empty) and duplicates of earlier columns
/// (redundant: they can only re-express wiring the earlier column already
/// provides) — from random fibers, coupling each revived column into the
/// core so the next round can evaluate it.
pub(crate) fn revive_dead_components(
    x: &BoolTensor,
    mut set: TuckerFactorization,
    rng: &mut StdRng,
) -> TuckerFactorization {
    let entries = x.entries();
    if entries.is_empty() {
        return set;
    }
    let [r1, r2, r3] = set.core.dims();
    let mut new_core: Vec<[u32; 3]> = set.core.iter().collect();
    let mut revived_any = false;
    for mode in 0..3usize {
        let cols = match mode {
            0 => set.a.cols(),
            1 => set.b.cols(),
            _ => set.c.cols(),
        };
        for col in 0..cols {
            let factor = match mode {
                0 => &set.a,
                1 => &set.b,
                _ => &set.c,
            };
            let dead = factor.column(col).count_ones() == 0
                || (0..col).any(|p| factor.column(p) == factor.column(col));
            if !dead {
                continue;
            }
            // Clear a duplicate before re-seeding.
            match mode {
                0 => (0..set.a.rows()).for_each(|r| set.a.set(r, col, false)),
                1 => (0..set.b.rows()).for_each(|r| set.b.set(r, col, false)),
                _ => (0..set.c.rows()).for_each(|r| set.c.set(r, col, false)),
            }
            // Seed from the fiber through a random non-zero along `mode`.
            let [i, j, k] = entries[rng.gen_range(0..entries.len())];
            for e in entries {
                match mode {
                    0 if e[1] == j && e[2] == k => set.a.set(e[0] as usize, col, true),
                    1 if e[0] == i && e[2] == k => set.b.set(e[1] as usize, col, true),
                    2 if e[0] == i && e[1] == j => set.c.set(e[2] as usize, col, true),
                    _ => {}
                }
            }
            // Couple it into the core at a random slot.
            let entry = match mode {
                0 => [
                    col as u32,
                    rng.gen_range(0..r2 as u32),
                    rng.gen_range(0..r3 as u32),
                ],
                1 => [
                    rng.gen_range(0..r1 as u32),
                    col as u32,
                    rng.gen_range(0..r3 as u32),
                ],
                _ => [
                    rng.gen_range(0..r1 as u32),
                    rng.gen_range(0..r2 as u32),
                    col as u32,
                ],
            };
            new_core.push(entry);
            revived_any = true;
        }
    }
    if revived_any {
        set.core = BoolTensor::from_entries([r1, r2, r3], new_core);
    }
    set
}

fn update_round(
    x: &BoolTensor,
    unf1: &Unfolding,
    unf2: &Unfolding,
    unf3: &Unfolding,
    set: TuckerFactorization,
) -> (TuckerFactorization, u64) {
    let TuckerFactorization { core, a, b, c } = set;
    // Core first: newly revived or re-seeded factor columns only become
    // useful once a core entry routes through them — running the (cheap)
    // core update before the factor updates lets the factors then adapt to
    // the new wiring instead of overwriting it.
    let core = update_core(x, &core, &a, &b, &c);
    // Mode-1 patterns live in X_(1)'s column space (j + k·J).
    let a = update_factor(unf1, &a, &patterns_mode1(&core, &b, &c));
    let b = update_factor(unf2, &b, &patterns_mode2(&core, &a, &c));
    let c = update_factor(unf3, &c, &patterns_mode3(&core, &a, &b));
    let core = update_core(x, &core, &a, &b, &c);
    let set = TuckerFactorization { core, a, b, c };
    let error = set.error(x);
    (set, error)
}

/// `pattern_p = ⋁_{(q,r): g_pqr} c_{:r} ⊗ b_{:q}` as a `J·K`-bit row
/// (column `j + k·J` — `X_(1)`'s layout).
fn patterns_mode1(core: &BoolTensor, b: &BitMatrix, c: &BitMatrix) -> Vec<BitVec> {
    let (j_dim, k_dim) = (b.rows(), c.rows());
    let r1 = core.dims()[0];
    let mut patterns = vec![BitVec::zeros(j_dim * k_dim); r1];
    for [p, q, r] in core.iter() {
        let pat = &mut patterns[p as usize];
        for k in c.column(r as usize).iter_ones() {
            for j in b.column(q as usize).iter_ones() {
                pat.set(j + k * j_dim, true);
            }
        }
    }
    patterns
}

/// `pattern_q = ⋁_{(p,r): g_pqr} c_{:r} ⊗ a_{:p}` (`X_(2)`: column `i + k·I`).
fn patterns_mode2(core: &BoolTensor, a: &BitMatrix, c: &BitMatrix) -> Vec<BitVec> {
    let (i_dim, k_dim) = (a.rows(), c.rows());
    let r2 = core.dims()[1];
    let mut patterns = vec![BitVec::zeros(i_dim * k_dim); r2];
    for [p, q, r] in core.iter() {
        let pat = &mut patterns[q as usize];
        for k in c.column(r as usize).iter_ones() {
            for i in a.column(p as usize).iter_ones() {
                pat.set(i + k * i_dim, true);
            }
        }
    }
    patterns
}

/// `pattern_r = ⋁_{(p,q): g_pqr} b_{:q} ⊗ a_{:p}` (`X_(3)`: column `i + j·I`).
fn patterns_mode3(core: &BoolTensor, a: &BitMatrix, b: &BitMatrix) -> Vec<BitVec> {
    let (i_dim, j_dim) = (a.rows(), b.rows());
    let r3 = core.dims()[2];
    let mut patterns = vec![BitVec::zeros(i_dim * j_dim); r3];
    for [p, q, r] in core.iter() {
        let pat = &mut patterns[r as usize];
        for j in b.column(q as usize).iter_ones() {
            for i in a.column(p as usize).iter_ones() {
                pat.set(i + j * i_dim, true);
            }
        }
    }
    patterns
}

/// Greedy per-column factor update against precomputed patterns.
///
/// For each column `p` and row `i`, both candidate values of the factor
/// entry are scored over the support of `pattern_p` (cells outside it
/// reconstruct identically under either candidate, so the comparison is
/// exact), then the whole column is applied at once — the same protocol as
/// the CP update.
fn update_factor(unf: &Unfolding, factor: &BitMatrix, patterns: &[BitVec]) -> BitMatrix {
    let ncols_rank = factor.cols();
    let nrows = factor.rows();
    debug_assert_eq!(patterns.len(), ncols_rank);
    let width = unf.ncols() as usize;
    let mut factor = factor.clone();
    let mut others = BitVec::zeros(width);
    for col in 0..ncols_rank {
        let pattern = &patterns[col];
        if pattern.count_ones() == 0 {
            // Dead pattern: both candidates reconstruct identically; prefer
            // the sparser factor.
            for r in 0..nrows {
                factor.set(r, col, false);
            }
            continue;
        }
        let mut decision = BitVec::zeros(nrows);
        for row in 0..nrows {
            // Reconstruction of this row from the *other* active columns.
            others.clear();
            for (p, other_pat) in patterns.iter().enumerate() {
                if p != col && factor.get(row, p) {
                    others.or_assign(other_pat);
                }
            }
            // Candidate 1 adds `pattern`; candidate 0 doesn't. Restrict the
            // comparison to pattern's support.
            let (mut err0, mut err1) = (0u64, 0u64);
            let actual = unf.row(row);
            // Support cells that are one in X.
            let mut ones_in_support = 0u64;
            let mut ones_covered_by_others = 0u64;
            for &cc in actual {
                if pattern.get(cc as usize) {
                    ones_in_support += 1;
                    if others.get(cc as usize) {
                        ones_covered_by_others += 1;
                    }
                }
            }
            // Support cells covered by `others` (zero or one in X alike).
            let support_covered_by_others = pattern.and_count(&others) as u64;
            let support = pattern.count_ones() as u64;
            // err0: support cells reconstruct as `others` there.
            //   mismatches = (ones in support not covered) +
            //                (covered support cells that are zero in X)
            err0 += ones_in_support - ones_covered_by_others;
            err0 +=
                support_covered_by_others - ones_covered_by_others.min(support_covered_by_others);
            // err1: the whole support reconstructs as 1.
            err1 += support - ones_in_support;
            if err1 < err0 {
                decision.set(row, true);
            }
        }
        for row in 0..nrows {
            factor.set(row, col, decision.get(row));
        }
    }
    factor
}

/// Greedy core update: flip each `g_pqr` if it reduces the error, with a
/// sparse cover-count so deltas are exact under Boolean sums.
fn update_core(
    x: &BoolTensor,
    core: &BoolTensor,
    a: &BitMatrix,
    b: &BitMatrix,
    c: &BitMatrix,
) -> BoolTensor {
    let [r1, r2, r3] = core.dims();
    // cover[cell] = number of active core entries whose block contains it.
    let mut cover: HashMap<[u32; 3], u32> = HashMap::new();
    let block = |p: usize, q: usize, r: usize| -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        (
            a.column(p).iter_ones().collect(),
            b.column(q).iter_ones().collect(),
            c.column(r).iter_ones().collect(),
        )
    };
    let mut active = vec![false; r1 * r2 * r3];
    for [p, q, r] in core.iter() {
        active[(p as usize * r2 + q as usize) * r3 + r as usize] = true;
        let (is, js, ks) = block(p as usize, q as usize, r as usize);
        for &i in &is {
            for &j in &js {
                for &k in &ks {
                    *cover.entry([i as u32, j as u32, k as u32]).or_insert(0) += 1;
                }
            }
        }
    }

    for p in 0..r1 {
        for q in 0..r2 {
            for r in 0..r3 {
                let idx = (p * r2 + q) * r3 + r;
                let (is, js, ks) = block(p, q, r);
                if is.is_empty() || js.is_empty() || ks.is_empty() {
                    // Empty block: flipping it cannot change the error
                    // now, but an active entry may become meaningful once
                    // the factor updates fill its columns (e.g. the
                    // superdiagonal init runs with a still-zero A) — leave
                    // it alone.
                    continue;
                }
                if active[idx] {
                    // Would removing this entry reduce the error? Cells
                    // whose count is exactly 1 leave the reconstruction.
                    let mut delta = 0i64;
                    for &i in &is {
                        for &j in &js {
                            for &k in &ks {
                                let cell = [i as u32, j as u32, k as u32];
                                if cover.get(&cell) == Some(&1) {
                                    delta += if x.contains(cell[0], cell[1], cell[2]) {
                                        1 // losing a correctly covered one
                                    } else {
                                        -1 // dropping an overcover
                                    };
                                }
                            }
                        }
                    }
                    if delta <= 0 {
                        active[idx] = false;
                        for &i in &is {
                            for &j in &js {
                                for &k in &ks {
                                    let cell = [i as u32, j as u32, k as u32];
                                    if let Some(v) = cover.get_mut(&cell) {
                                        *v -= 1;
                                        if *v == 0 {
                                            cover.remove(&cell);
                                        }
                                    }
                                }
                            }
                        }
                    }
                } else {
                    // Would adding this entry reduce the error? Cells with
                    // count 0 join the reconstruction.
                    let mut delta = 0i64;
                    for &i in &is {
                        for &j in &js {
                            for &k in &ks {
                                let cell = [i as u32, j as u32, k as u32];
                                if !cover.contains_key(&cell) {
                                    delta += if x.contains(cell[0], cell[1], cell[2]) {
                                        -1 // newly covering a one
                                    } else {
                                        1 // new overcover
                                    };
                                }
                            }
                        }
                    }
                    if delta < 0 {
                        active[idx] = true;
                        for &i in &is {
                            for &j in &js {
                                for &k in &ks {
                                    *cover.entry([i as u32, j as u32, k as u32]).or_insert(0) += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    let entries: Vec<[u32; 3]> = (0..r1)
        .flat_map(|p| {
            let active = &active;
            (0..r2).flat_map(move |q| {
                (0..r3).filter_map(move |r| {
                    active[(p * r2 + q) * r3 + r].then_some([p as u32, q as u32, r as u32])
                })
            })
        })
        .collect();
    BoolTensor::from_entries([r1, r2, r3], entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn planted_tucker(seed: u64) -> (BoolTensor, TuckerFactorization) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = BitMatrix::random(12, 3, 0.35, &mut rng);
        let b = BitMatrix::random(10, 3, 0.35, &mut rng);
        let c = BitMatrix::random(11, 3, 0.35, &mut rng);
        let core =
            BoolTensor::from_entries([3, 3, 3], vec![[0, 0, 0], [1, 1, 1], [2, 2, 2], [0, 1, 2]]);
        let f = TuckerFactorization { core, a, b, c };
        (f.reconstruct(), f)
    }

    #[test]
    fn reconstruction_matches_definition() {
        let (x, f) = planted_tucker(1);
        // Brute force the Tucker formula.
        for i in 0..12u32 {
            for j in 0..10u32 {
                for k in 0..11u32 {
                    let expect = f.core.iter().any(|[p, q, r]| {
                        f.a.get(i as usize, p as usize)
                            && f.b.get(j as usize, q as usize)
                            && f.c.get(k as usize, r as usize)
                    });
                    assert_eq!(x.contains(i, j, k), expect, "cell ({i},{j},{k})");
                }
            }
        }
        assert_eq!(f.error(&x), 0);
    }

    #[test]
    fn patterns_match_reconstruction_rows() {
        let (x, f) = planted_tucker(2);
        let unf1 = Unfolding::new(&x, Mode::One);
        let patterns = patterns_mode1(&f.core, &f.b, &f.c);
        // Row i of X_(1) must be the OR of patterns selected by a_i:.
        for i in 0..12usize {
            let mut expect = BitVec::zeros((10 * 11) as usize);
            for (p, pattern) in patterns.iter().enumerate().take(3) {
                if f.a.get(i, p) {
                    expect.or_assign(pattern);
                }
            }
            for col in 0..(10 * 11) as u64 {
                assert_eq!(unf1.get(i, col), expect.get(col as usize), "({i}, {col})");
            }
        }
    }

    #[test]
    fn factor_update_is_monotone() {
        let (x, f) = planted_tucker(3);
        let unf1 = Unfolding::new(&x, Mode::One);
        let mut rng = StdRng::seed_from_u64(4);
        let noisy_a = BitMatrix::random(12, 3, 0.5, &mut rng);
        let patterns = patterns_mode1(&f.core, &f.b, &f.c);
        let before = TuckerFactorization {
            a: noisy_a.clone(),
            ..f.clone()
        }
        .error(&x);
        let a2 = update_factor(&unf1, &noisy_a, &patterns);
        let after = TuckerFactorization { a: a2, ..f.clone() }.error(&x);
        assert!(
            after <= before,
            "update worsened the error: {before} → {after}"
        );
    }

    #[test]
    fn factor_update_recovers_planted_factor() {
        let (x, f) = planted_tucker(5);
        let unf1 = Unfolding::new(&x, Mode::One);
        let patterns = patterns_mode1(&f.core, &f.b, &f.c);
        // Starting from zero, with true B, C, G fixed, the update must
        // reach a zero-error A (the planted one is optimal).
        let a0 = BitMatrix::zeros(12, 3);
        let a2 = update_factor(&unf1, &a0, &patterns);
        let err = TuckerFactorization { a: a2, ..f.clone() }.error(&x);
        assert_eq!(err, 0);
    }

    #[test]
    fn core_update_is_monotone_and_prunes() {
        let (x, f) = planted_tucker(6);
        // Start from a full core: the update must prune it back down
        // without increasing the error.
        let full: Vec<[u32; 3]> = (0..3u32)
            .flat_map(|p| (0..3u32).flat_map(move |q| (0..3u32).map(move |r| [p, q, r])))
            .collect();
        let noisy = TuckerFactorization {
            core: BoolTensor::from_entries([3, 3, 3], full),
            ..f.clone()
        };
        let before = noisy.error(&x);
        let core2 = update_core(&x, &noisy.core, &noisy.a, &noisy.b, &noisy.c);
        let after = TuckerFactorization {
            core: core2.clone(),
            ..f.clone()
        }
        .error(&x);
        assert!(after <= before);
        assert!(core2.nnz() < 27, "full core should be pruned");
    }

    #[test]
    fn end_to_end_on_planted_tucker() {
        let (x, _) = planted_tucker(7);
        let config = TuckerConfig {
            ranks: [3, 3, 3],
            initial_sets: 6,
            seed: 1,
            ..TuckerConfig::default()
        };
        let res = tucker_factorize(&x, &config).unwrap();
        // Monotone per-iteration errors and a real improvement over zero.
        for w in res.iteration_errors.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert!(
            (res.error as f64) < 0.8 * x.nnz() as f64,
            "error {} vs |X| {}",
            res.error,
            x.nnz()
        );
        assert_eq!(res.factorization.error(&x), res.error);
    }

    #[test]
    fn tucker_subsumes_cp_blocks() {
        // Two disjoint blocks: Tucker with a 2×2×2 core must match CP.
        let mut entries = Vec::new();
        for i in 0..4u32 {
            for j in 0..4u32 {
                for k in 0..4u32 {
                    entries.push([i, j, k]);
                    entries.push([i + 5, j + 5, k + 5]);
                }
            }
        }
        let x = BoolTensor::from_entries([9, 9, 9], entries);
        let config = TuckerConfig {
            ranks: [2, 2, 2],
            initial_sets: 16,
            seed: 0,
            ..TuckerConfig::default()
        };
        let res = tucker_factorize(&x, &config).unwrap();
        assert_eq!(res.error, 0, "core: {:?}", res.factorization.core);
        assert_eq!(res.factorization.core.nnz(), 2, "one core entry per block");
    }

    #[test]
    fn rejects_bad_configs() {
        let x = BoolTensor::from_entries([2, 2, 2], vec![[0, 0, 0]]);
        let bad = TuckerConfig {
            ranks: [0, 2, 2],
            ..TuckerConfig::default()
        };
        assert!(tucker_factorize(&x, &bad).is_err());
        let empty = BoolTensor::empty([0, 2, 2]);
        assert!(tucker_factorize(&empty, &TuckerConfig::default()).is_err());
    }

    #[test]
    fn empty_tensor_gives_empty_model() {
        let x = BoolTensor::empty([4, 4, 4]);
        let res = tucker_factorize(&x, &TuckerConfig::default()).unwrap();
        assert_eq!(res.error, 0);
        assert_eq!(res.relative_error, 0.0);
    }
}
