//! Synthetic proxies for the paper's real-world datasets (Table III).
//!
//! The six datasets the paper evaluates on (Facebook temporal friendship,
//! DBLP publications, CAIDA-DDoS network attack traces, NELL knowledge
//! base) cannot be redistributed with this reproduction, so each gets a
//! seeded generator that matches the original's **mode sizes** (at a
//! configurable linear scale factor), scales its **non-zero count** by the
//! `s^1.5` law of [`DatasetSpec::scaled_nnz`], and mimics its **coarse
//! structure** — the properties that determine how long each factorization
//! method runs on it:
//!
//! - *Facebook*: user × user × time; blocky friend communities whose
//!   activity is bursty over time.
//! - *DBLP*: author × conference × year; power-law author degrees,
//!   authors publish in a few venues over contiguous year windows.
//! - *CAIDA-DDoS*: source IP × destination IP × time; a sparse scanning
//!   background plus dense attack waves (many sources × few victims ×
//!   short window).
//! - *NELL*: subject × object × relation; entities cluster into
//!   categories, each relation links a category pair.
//!
//! Mode sizes and non-zero counts follow Table III; where the paper's
//! table does not spell out a mode (time bins for Facebook, years for
//! DBLP) we use the natural value from the dataset descriptions.

use dbtf_tensor::{BoolTensor, TensorBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which structural generator a proxy uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProxyKind {
    /// Temporal communities (Facebook-like).
    TemporalCommunities,
    /// Power-law bipartite publications (DBLP-like).
    Publications,
    /// Scanning background plus dense attack waves (CAIDA-DDoS-like).
    AttackTraffic,
    /// Category-pair relations (NELL-like knowledge base).
    KnowledgeBase,
}

/// One Table III dataset: original shape, non-zero count and structure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name as in Table III.
    pub name: &'static str,
    /// Original mode sizes `[I, J, K]`.
    pub dims: [usize; 3],
    /// Original number of non-zeros.
    pub nnz: u64,
    /// Structural generator.
    pub kind: ProxyKind,
}

impl DatasetSpec {
    /// Density of the original dataset.
    pub fn density(&self) -> f64 {
        let cells = self.dims[0] as f64 * self.dims[1] as f64 * self.dims[2] as f64;
        self.nnz as f64 / cells
    }

    /// Mode sizes after applying a linear `scale` (each mode floored at 4).
    pub fn scaled_dims(&self, scale: f64) -> [usize; 3] {
        let f = |d: usize| ((d as f64 * scale).round() as usize).max(4);
        [f(self.dims[0]), f(self.dims[1]), f(self.dims[2])]
    }

    /// Target non-zeros at `scale`: `nnz · scale^1.5`, capped at 30% of
    /// the scaled cell count.
    ///
    /// Mode sizes scale linearly, so preserving density would shrink the
    /// non-zeros cubically and leave nothing to factorize (Facebook at
    /// scale 0.01 would keep 2 of its 1.5 M ones). The `s^1.5` law — between
    /// the `s²` of a tensor face and the `s³` of its volume — keeps scaled
    /// instances meaningfully populated while preserving the *relative*
    /// size ordering across datasets, which is what the Figure 6
    /// comparison depends on.
    pub fn scaled_nnz(&self, scale: f64) -> u64 {
        let d = self.scaled_dims(scale);
        let cells = d[0] as f64 * d[1] as f64 * d[2] as f64;
        let target = self.nnz as f64 * scale.powf(1.5);
        target.min(0.3 * cells).round().max(1.0) as u64
    }
}

/// The six Table III datasets.
///
/// Facebook's 870 time bins and DBLP's 50 publication years come from the
/// dataset descriptions (the table's K column for these rows is implicit
/// in the source).
pub fn proxy_specs() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "Facebook",
            dims: [64_000, 64_000, 870],
            nnz: 1_500_000,
            kind: ProxyKind::TemporalCommunities,
        },
        DatasetSpec {
            name: "DBLP",
            dims: [418_000, 3_500, 50],
            nnz: 1_300_000,
            kind: ProxyKind::Publications,
        },
        DatasetSpec {
            name: "CAIDA-DDoS-S",
            dims: [9_000, 9_000, 4_000],
            nnz: 22_000_000,
            kind: ProxyKind::AttackTraffic,
        },
        DatasetSpec {
            name: "CAIDA-DDoS-L",
            dims: [9_000, 9_000, 393_000],
            nnz: 331_000_000,
            kind: ProxyKind::AttackTraffic,
        },
        DatasetSpec {
            name: "NELL-S",
            dims: [15_000, 15_000, 29_000],
            nnz: 77_000_000,
            kind: ProxyKind::KnowledgeBase,
        },
        DatasetSpec {
            name: "NELL-L",
            dims: [112_000, 112_000, 213_000],
            nnz: 18_000_000,
            kind: ProxyKind::KnowledgeBase,
        },
    ]
}

/// Generates the proxy tensor for `spec` at linear `scale`.
///
/// The result has the scaled mode sizes and a non-zero count within a few
/// percent of [`DatasetSpec::scaled_nnz`] (structured entries are topped up
/// with background noise until the budget is met).
pub fn generate_proxy(spec: &DatasetSpec, scale: f64, seed: u64) -> BoolTensor {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let dims = spec.scaled_dims(scale);
    let target = spec.scaled_nnz(scale) as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0da7_a5e7);
    let mut builder = TensorBuilder::with_capacity(dims, target + target / 8 + 16);
    // Structured entries fill ~80% of the budget; background the rest.
    let structured_budget = target * 4 / 5;
    match spec.kind {
        ProxyKind::TemporalCommunities => {
            temporal_communities(&mut builder, dims, structured_budget, &mut rng)
        }
        ProxyKind::Publications => publications(&mut builder, dims, structured_budget, &mut rng),
        ProxyKind::AttackTraffic => attack_traffic(&mut builder, dims, structured_budget, &mut rng),
        ProxyKind::KnowledgeBase => knowledge_base(&mut builder, dims, structured_budget, &mut rng),
    }
    // Background noise up to the budget (duplicates collapse in build()).
    while builder.len() < target {
        builder.insert(
            rng.gen_range(0..dims[0] as u32),
            rng.gen_range(0..dims[1] as u32),
            rng.gen_range(0..dims[2] as u32),
        );
    }
    builder.build()
}

/// A Zipf-ish random size in `[lo, hi]` (mass concentrated near `lo`).
fn zipf_size(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
    let lo = lo.max(1);
    let hi = hi.max(lo);
    let u: f64 = rng.gen_range(0.0f64..1.0);
    // Inverse-power sampling with exponent ~2.
    let x = lo as f64 / (1.0 - u).sqrt();
    (x.round() as usize).clamp(lo, hi)
}

fn sample_subset(rng: &mut StdRng, n: usize, size: usize) -> Vec<u32> {
    let size = size.min(n);
    // BTreeSet: deterministic iteration order (HashSet's RandomState would
    // make proxy generation non-reproducible across processes).
    let mut set = std::collections::BTreeSet::new();
    while set.len() < size {
        set.insert(rng.gen_range(0..n as u32));
    }
    set.into_iter().collect()
}

fn temporal_communities(
    builder: &mut TensorBuilder,
    dims: [usize; 3],
    budget: usize,
    rng: &mut StdRng,
) {
    // Communities of users, each active in a contiguous time window with
    // bursty within-block density.
    while builder.len() < budget {
        let size = zipf_size(rng, 3, (dims[0] / 4).max(3));
        let users: Vec<u32> = sample_subset(rng, dims[0].min(dims[1]), size);
        let w = zipf_size(rng, 1, dims[2].max(1));
        let t0 = rng.gen_range(0..dims[2].saturating_sub(w).max(1)) as u32;
        let density = rng.gen_range(0.05f64..0.4);
        for &u in &users {
            for &v in &users {
                if u == v {
                    continue;
                }
                for t in t0..t0 + w as u32 {
                    if rng.gen_bool(density) {
                        builder.insert(u, v, t);
                    }
                    if builder.len() >= budget {
                        return;
                    }
                }
            }
        }
    }
}

fn publications(builder: &mut TensorBuilder, dims: [usize; 3], budget: usize, rng: &mut StdRng) {
    // Authors with power-law productivity publish in a few venues over a
    // contiguous year window.
    while builder.len() < budget {
        let author = rng.gen_range(0..dims[0] as u32);
        let npubs = zipf_size(rng, 1, 60);
        let nvenues = zipf_size(rng, 1, 3.min(dims[1]));
        let venues = sample_subset(rng, dims[1], nvenues);
        let span = zipf_size(rng, 1, dims[2].min(15));
        let y0 = rng.gen_range(0..dims[2].saturating_sub(span).max(1)) as u32;
        for _ in 0..npubs {
            let venue = venues[rng.gen_range(0..venues.len())];
            let year = y0 + rng.gen_range(0..span as u32);
            builder.insert(author, venue, year);
            if builder.len() >= budget {
                return;
            }
        }
    }
}

fn attack_traffic(builder: &mut TensorBuilder, dims: [usize; 3], budget: usize, rng: &mut StdRng) {
    // Dense attack waves: many sources hammer a few victims over a short
    // window — the dense blocks Walk'n'Merge mines.
    while builder.len() < budget {
        let nsrc = zipf_size(rng, dims[0] / 20 + 1, dims[0] / 2 + 1);
        let sources = sample_subset(rng, dims[0], nsrc);
        let nvictims = zipf_size(rng, 1, 4);
        let victims = sample_subset(rng, dims[1], nvictims);
        let w = zipf_size(rng, 1, (dims[2] / 8).max(1));
        let t0 = rng.gen_range(0..dims[2].saturating_sub(w).max(1)) as u32;
        // Flood traffic is near-saturation dense within a wave.
        let density = rng.gen_range(0.65f64..0.95);
        for &s in &sources {
            for &d in &victims {
                for t in t0..t0 + w as u32 {
                    if rng.gen_bool(density) {
                        builder.insert(s, d, t);
                    }
                    if builder.len() >= budget {
                        return;
                    }
                }
            }
        }
    }
}

fn knowledge_base(builder: &mut TensorBuilder, dims: [usize; 3], budget: usize, rng: &mut StdRng) {
    // Entities cluster into categories; each relation links one category
    // pair (subject-category × object-category).
    let ncats = (dims[0] as f64).sqrt().ceil() as usize;
    let cat_of = |e: u32, rng_seed: u64| -> usize {
        // Deterministic hash-based category assignment.
        let h = (e as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ rng_seed;
        (h % ncats as u64) as usize
    };
    let cat_seed: u64 = rng.gen();
    while builder.len() < budget {
        let relation = rng.gen_range(0..dims[2] as u32);
        let (cs, co) = (rng.gen_range(0..ncats), rng.gen_range(0..ncats));
        let tries = zipf_size(rng, 10, 4000);
        for _ in 0..tries {
            let s = rng.gen_range(0..dims[0] as u32);
            let o = rng.gen_range(0..dims[1] as u32);
            if cat_of(s, cat_seed) == cs && cat_of(o, cat_seed.rotate_left(7)) == co {
                builder.insert(s, o, relation);
                if builder.len() >= budget {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_specs_match_table3() {
        let specs = proxy_specs();
        assert_eq!(specs.len(), 6);
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "Facebook",
                "DBLP",
                "CAIDA-DDoS-S",
                "CAIDA-DDoS-L",
                "NELL-S",
                "NELL-L"
            ]
        );
        // Spot-check Table III numbers.
        assert_eq!(specs[0].dims, [64_000, 64_000, 870]);
        assert_eq!(specs[3].nnz, 331_000_000);
    }

    #[test]
    fn scaled_dims_and_nnz() {
        let spec = proxy_specs()[0];
        let d = spec.scaled_dims(0.01);
        assert_eq!(d, [640, 640, 9]);
        // nnz follows the s^1.5 law: 1.5M × 0.001 = 1500.
        assert_eq!(spec.scaled_nnz(0.01), 1500);
        // Relative ordering across datasets is preserved at any scale.
        let specs = proxy_specs();
        for s in [0.005f64, 0.02] {
            for a in &specs {
                for b in &specs {
                    if a.nnz < b.nnz && a.scaled_nnz(s) > 16 && b.scaled_nnz(s) > 16 {
                        assert!(
                            a.scaled_nnz(s) <= b.scaled_nnz(s),
                            "{} vs {} at {s}",
                            a.name,
                            b.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn generators_hit_their_budget() {
        for spec in proxy_specs() {
            let scale = 0.004;
            let t = generate_proxy(&spec, scale, 42);
            let target = spec.scaled_nnz(scale) as f64;
            let got = t.nnz() as f64;
            assert!(
                got >= target * 0.6 && got <= target * 1.05,
                "{}: got {got}, target {target}",
                spec.name
            );
            assert_eq!(t.dims(), spec.scaled_dims(scale));
        }
    }

    #[test]
    fn deterministic() {
        let spec = proxy_specs()[2];
        let a = generate_proxy(&spec, 0.003, 7);
        let b = generate_proxy(&spec, 0.003, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn attack_traffic_has_dense_blocks() {
        // The DDoS proxy must contain at least one reasonably dense
        // sub-block (what Walk'n'Merge exploits): find a victim column
        // with many sources.
        let spec = proxy_specs()[2];
        // 0.05 scale → ~2.7 K non-zeros; enough mass to see concentration.
        let t = generate_proxy(&spec, 0.05, 9);
        let mut per_victim = std::collections::HashMap::new();
        for e in t.iter() {
            *per_victim.entry(e[1]).or_insert(0usize) += 1;
        }
        let max = per_victim.values().max().copied().unwrap_or(0);
        let avg = t.nnz() / per_victim.len().max(1);
        assert!(max > 2 * avg, "no concentration: max {max}, avg {avg}");
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn rejects_bad_scale() {
        generate_proxy(&proxy_specs()[0], 0.0, 0);
    }
}
