//! Seeded input generation: planted tensors, bounded deltas and query
//! streams. Every input the ledger feeds the program comes from here and
//! is a pure function of the run's `--seed`.

use dbtf::FactorSet;
use dbtf_datagen::{add_noise, PlantedConfig};
use dbtf_serve::Request;
use dbtf_tensor::reconstruct::reconstruct;
use dbtf_tensor::{BitMatrix, BoolTensor, DeltaCell, TensorDelta};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A generator for `seed`, decorrelated from the other streams of the
/// same seed by `salt`.
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// A `rows × rank` factor with exactly `round(density · rows)` ones in
/// every column, at seeded rows.
fn exact_factor(rng: &mut StdRng, rows: usize, rank: usize, density: f64) -> BitMatrix {
    let ones = ((density * rows as f64).round() as usize).clamp(1, rows);
    let mut m = BitMatrix::zeros(rows, rank);
    let mut order: Vec<usize> = (0..rows).collect();
    for r in 0..rank {
        order.shuffle(rng);
        for &i in &order[..ones] {
            m.set(i, r, true);
        }
    }
    m
}

/// The noisy planted tensor of `spec` for `seed`, and the factors it was
/// planted from. The noise is `dbtf_datagen`'s, as in `dbtf generate
/// planted`, but every factor column holds exactly its share of ones
/// where that generator draws each bit: its |X| moves by ±7% between
/// seeds, and a run's time and memory with it, while here the rank-1
/// blocks, and so |X| and the work, are the same size on every seed.
pub fn planted(spec: &PlantedConfig, seed: u64) -> (BoolTensor, FactorSet) {
    let mut rng = rng(seed, 1);
    let [a, b, c] =
        [0, 1, 2].map(|m| exact_factor(&mut rng, spec.dims[m], spec.rank, spec.factor_density));
    let x = add_noise(&reconstruct(&a, &b, &c), spec.noise, rng.gen());
    (x, FactorSet { a, b, c })
}

/// Bits of factor row `r` as a mask over the first 64 columns (every
/// ledger workload has rank ≤ 64).
fn row_mask(m: &BitMatrix, r: usize) -> u64 {
    m.row(r)[0]
}

/// A delta of `cells` edits whose re-sweep touches exactly two factor
/// columns: every cell `(i, j, k)` has factor rows whose set columns all
/// lie in one pair `{r1, r2}`, and `a_i` has `r1` set for the first half
/// of the cells and `r2` for the second, so both columns are affected and
/// no cell is an orphan. Each chosen cell is toggled against `x`. Returns
/// `None` when no column pair admits such cells.
pub fn bounded_delta(
    x: &BoolTensor,
    factors: &FactorSet,
    cells: usize,
    rng: &mut StdRng,
) -> Option<TensorDelta> {
    let rank = factors.rank();
    assert!(rank <= 64, "bounded deltas assume rank ≤ 64");
    // Rows whose set columns lie within `pair` and include all of `need`.
    let rows_within = |m: &BitMatrix, pair: u64, need: u64| -> Vec<u32> {
        (0..m.rows())
            .filter(|&r| {
                let bits = row_mask(m, r);
                bits & !pair == 0 && bits & need == need
            })
            .map(|r| r as u32)
            .collect()
    };
    // Visit column pairs from a seeded offset; take the first that has
    // candidates in all three modes.
    let pairs: Vec<(usize, usize)> = (0..rank)
        .flat_map(|r1| (r1 + 1..rank).map(move |r2| (r1, r2)))
        .collect();
    let start = rng.gen_range(0..pairs.len());
    for n in 0..pairs.len() {
        let (r1, r2) = pairs[(start + n) % pairs.len()];
        let pair = (1u64 << r1) | (1u64 << r2);
        let ia = [
            rows_within(&factors.a, pair, 1 << r1),
            rows_within(&factors.a, pair, 1 << r2),
        ];
        let jb = rows_within(&factors.b, pair, 0);
        let kc = rows_within(&factors.c, pair, 0);
        if ia.iter().any(Vec::is_empty) || jb.is_empty() || kc.is_empty() {
            continue;
        }
        let edits: Vec<DeltaCell> = (0..cells)
            .map(|n| {
                let ia = &ia[usize::from(2 * n >= cells)];
                let coord = [
                    ia[rng.gen_range(0..ia.len())],
                    jb[rng.gen_range(0..jb.len())],
                    kc[rng.gen_range(0..kc.len())],
                ];
                DeltaCell {
                    coord,
                    set: !x.contains(coord[0], coord[1], coord[2]),
                }
            })
            .collect();
        return TensorDelta::new(x.dims(), edits).ok();
    }
    None
}

/// Zipf sampler over `0..n`: rank `t` (1-based) has weight `t^-s`. Ranks
/// map to indices through a seeded permutation, so the hot set differs
/// between seeds and modes.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64, rng: &mut StdRng) -> Zipf {
        assert!(n > 0, "zipf over an empty range");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for t in 1..=n {
            acc += (t as f64).powf(-exponent);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        Zipf { cdf, perm }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

/// How a query stream picks entity indices.
#[derive(Clone, Copy, Debug)]
pub enum Keys {
    Uniform,
    Zipf(f64),
}

/// `count` mixed queries (80/15/5 point/slice/topk) over `dims`.
pub fn queries(seed: u64, dims: [usize; 3], keys: Keys, count: usize) -> Vec<Request> {
    let mut rng = rng(seed, 3);
    let zipf: Option<[Zipf; 3]> = match keys {
        Keys::Uniform => None,
        Keys::Zipf(s) => Some([0, 1, 2].map(|m| Zipf::new(dims[m], s, &mut rng))),
    };
    let index = |rng: &mut StdRng, m: usize| match &zipf {
        None => rng.gen_range(0..dims[m]),
        Some(z) => z[m].sample(rng),
    };
    (0..count)
        .map(|_| {
            let draw = rng.gen_range(0..100);
            if draw < 80 {
                Request::Point {
                    i: index(&mut rng, 0),
                    j: index(&mut rng, 1),
                    k: index(&mut rng, 2),
                }
            } else if draw < 95 {
                let free_mode = rng.gen_range(0..3);
                let (m1, m2) = fixed_modes(free_mode);
                Request::Slice {
                    free_mode,
                    lo: index(&mut rng, m1),
                    hi: index(&mut rng, m2),
                }
            } else {
                let mode = rng.gen_range(0..3);
                Request::Topk {
                    mode,
                    entity: index(&mut rng, mode),
                    k: rng.gen_range(1..=8),
                }
            }
        })
        .collect()
}

/// The two fixed modes of a slice with free axis `free`, ascending.
fn fixed_modes(free: usize) -> (usize, usize) {
    match free {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

/// One request as a protocol line (no newline), tagged with `id`.
pub fn encode(request: &Request, id: u64) -> String {
    match request {
        Request::Point { i, j, k } => {
            format!("{{\"id\":{id},\"q\":\"point\",\"i\":{i},\"j\":{j},\"k\":{k}}}")
        }
        Request::Slice { free_mode, lo, hi } => {
            let (lo_name, hi_name) = match free_mode {
                0 => ("j", "k"),
                1 => ("i", "k"),
                _ => ("i", "j"),
            };
            format!(
                "{{\"id\":{id},\"q\":\"slice\",\"mode\":{},\"{lo_name}\":{lo},\"{hi_name}\":{hi}}}",
                free_mode + 1
            )
        }
        Request::Topk { mode, entity, k } => format!(
            "{{\"id\":{id},\"q\":\"topk\",\"mode\":{},\"entity\":{entity},\"k\":{k}}}",
            mode + 1
        ),
        other => unreachable!("query streams hold only data queries: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf_datagen::NoiseSpec;

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut rng = rng(seed, 9);
            let z = Zipf::new(500, 1.3, &mut rng);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(4), draw(4));
        assert_ne!(draw(4), draw(5));
        assert!(draw(4).iter().all(|&v| v < 500));
    }

    #[test]
    fn zipf_concentrates_on_its_head() {
        let mut rng = rng(1, 2);
        let z = Zipf::new(1000, 1.5, &mut rng);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let head: usize = counts[..10].iter().sum();
        assert!(
            head > 20_000 * 7 / 10,
            "top 10 of 1000 drew {head} of 20000"
        );
    }

    #[test]
    fn planted_inputs_are_seeded_with_exact_columns_and_bounded_deltas() {
        let spec = PlantedConfig {
            dims: [40, 40, 40],
            rank: 6,
            factor_density: 0.15,
            noise: NoiseSpec {
                additive: 0.01,
                destructive: 0.05,
            },
            seed: 0,
        };
        let (x, factors) = planted(&spec, 2);
        assert_eq!((x.clone(), factors.clone()), planted(&spec, 2));
        assert_ne!(x, planted(&spec, 3).0);
        for m in [&factors.a, &factors.b, &factors.c] {
            for r in 0..6 {
                assert_eq!(m.column(r).count_ones(), 6, "round(0.15 · 40) ones");
            }
        }
        let delta = bounded_delta(&x, &factors, 64, &mut rng(2, 7)).expect("a pair qualifies");
        assert!(!delta.is_empty());
        assert_eq!(dbtf::affected_columns(&delta, &factors).len(), 2);
    }
}
