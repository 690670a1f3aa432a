//! Slow, obviously-correct oracles for the incremental-update path.
//!
//! `dbtf::update_factors` applies a [`TensorDelta`], cuts the partitions
//! of the updated tensor and re-sweeps only the affected factor columns. The
//! oracles here re-derive each of those steps from first principles,
//! sharing no code with the fast path beyond element accessors:
//!
//! - [`delta_apply`] rebuilds the updated tensor cell by cell from a
//!   `HashSet` of coordinates — the fast path merges sorted entry lists.
//! - [`delta_affected_columns`] re-derives the affected-column rule with
//!   a literal triple lookup per `(cell, column)` pair — the fast path
//!   keeps a hit vector and an orphan flag.
//! - [`check_bounded_resweep`] verifies the bound *semantically*: columns
//!   the fast path did not list must come back bit-identical, and the
//!   re-swept result must reconstruct no worse than the pre-delta factors
//!   on the updated tensor (the greedy sweep's no-worse guarantee).

use std::collections::HashSet;

use dbtf::FactorSet;
use dbtf_tensor::{BoolTensor, TensorBuilder, TensorDelta};

use crate::oracles::cp_error;

/// Applies `delta` to `x` cell by cell: build the coordinate set, apply
/// each edit in order, rebuild the tensor. Last-wins semantics on
/// duplicate coordinates come straight from the in-order application.
pub fn delta_apply(x: &BoolTensor, delta: &TensorDelta) -> BoolTensor {
    assert_eq!(x.dims(), delta.dims(), "delta dims must match the tensor");
    let mut cells: HashSet<[u32; 3]> = x.iter().collect();
    for cell in delta.cells() {
        if cell.set {
            cells.insert(cell.coord);
        } else {
            cells.remove(&cell.coord);
        }
    }
    let mut builder = TensorBuilder::with_capacity(x.dims(), cells.len());
    for [i, j, k] in cells {
        builder.insert(i, j, k);
    }
    builder.build()
}

/// The affected-column rule, derived literally: column `r` is affected
/// iff some delta cell `(i, j, k)` has `a[i,r] ∨ b[j,r] ∨ c[k,r]`; a
/// *set* cell incident to no column at all widens the re-sweep to every
/// column (no existing column can explain the new one). Returns sorted
/// ascending.
pub fn delta_affected_columns(delta: &TensorDelta, factors: &FactorSet) -> Vec<usize> {
    let rank = factors.rank();
    let mut widen = false;
    let mut affected = vec![false; rank];
    for cell in delta.cells() {
        let [i, j, k] = cell.coord;
        let incident: Vec<usize> = (0..rank)
            .filter(|&r| {
                factors.a.get(i as usize, r)
                    || factors.b.get(j as usize, r)
                    || factors.c.get(k as usize, r)
            })
            .collect();
        if incident.is_empty() && cell.set {
            widen = true;
        }
        for r in incident {
            affected[r] = true;
        }
    }
    if widen {
        return (0..rank).collect();
    }
    affected
        .iter()
        .enumerate()
        .filter_map(|(r, &hit)| hit.then_some(r))
        .collect()
}

/// Checks a bounded re-sweep's two contracts against `before` (the
/// pre-delta factors), `after` (the fast path's result), and `affected`
/// (the columns the fast path claimed to re-sweep):
///
/// 1. every column *not* in `affected` is bit-identical between `before`
///    and `after` — the bound really bounded the work;
/// 2. `after` reconstructs `x_new` no worse than `before` does — each
///    greedy column decision keeps the per-row minimum, so any subset
///    re-sweep can only improve the error.
///
/// Returns human-readable violations (empty = clean).
pub fn check_bounded_resweep(
    x_new: &BoolTensor,
    before: &FactorSet,
    after: &FactorSet,
    affected: &[usize],
) -> Vec<String> {
    let mut violations = Vec::new();
    let rank = before.rank();
    let affected: HashSet<usize> = affected.iter().copied().collect();
    for (name, was, now) in [
        ("A", &before.a, &after.a),
        ("B", &before.b, &after.b),
        ("C", &before.c, &after.c),
    ] {
        for r in (0..rank).filter(|r| !affected.contains(r)) {
            for row in 0..was.rows() {
                if was.get(row, r) != now.get(row, r) {
                    violations.push(format!(
                        "unaffected column {r} of {name} changed at row {row}"
                    ));
                }
            }
        }
    }
    let error_before = cp_error(x_new, &before.a, &before.b, &before.c);
    let error_after = cp_error(x_new, &after.a, &after.b, &after.c);
    if error_after > error_before {
        violations.push(format!(
            "re-sweep made the error worse: {error_after} > pre-delta {error_before}"
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf_tensor::DeltaCell;

    fn cell(coord: [u32; 3], set: bool) -> DeltaCell {
        DeltaCell { coord, set }
    }

    fn block_tensor() -> BoolTensor {
        let mut entries = Vec::new();
        for i in 0..3u32 {
            for j in 0..3u32 {
                for k in 0..3u32 {
                    entries.push([i, j, k]);
                }
            }
        }
        BoolTensor::from_entries([6, 6, 6], entries)
    }

    #[test]
    fn apply_agrees_with_the_fast_merge() {
        let x = block_tensor();
        let delta = TensorDelta::new(
            [6, 6, 6],
            vec![
                cell([0, 0, 0], false), // clear a present cell
                cell([5, 5, 5], true),  // set an absent cell
                cell([1, 1, 1], true),  // set a present cell (no-op)
                cell([4, 4, 4], false), // clear an absent cell (no-op)
            ],
        )
        .unwrap();
        let oracle = delta_apply(&x, &delta);
        assert_eq!(oracle, delta.apply(&x), "oracle vs fast sorted merge");
        assert_eq!(oracle.nnz(), x.nnz()); // one cleared, one set
        assert!(!oracle.contains(0, 0, 0));
        assert!(oracle.contains(5, 5, 5));
    }

    #[test]
    fn affected_columns_agree_with_the_fast_rule() {
        use dbtf::{random_factor_sets, DbtfConfig};
        let cfg = DbtfConfig {
            seed: 7,
            ..DbtfConfig::with_rank(5)
        };
        let factors = random_factor_sets([6, 6, 6], 0.3, &cfg).remove(0);
        for (n, edits) in [
            vec![cell([0, 0, 0], false)],
            vec![cell([1, 2, 3], true), cell([4, 5, 0], false)],
            vec![cell([5, 5, 5], true)],
        ]
        .into_iter()
        .enumerate()
        {
            let delta = TensorDelta::new([6, 6, 6], edits).unwrap();
            assert_eq!(
                delta_affected_columns(&delta, &factors),
                dbtf::affected_columns(&delta, &factors),
                "case {n}"
            );
        }
    }

    #[test]
    fn orphan_set_cells_widen_but_orphan_clears_do_not() {
        use dbtf_tensor::BitMatrix;
        let zero = FactorSet {
            a: BitMatrix::zeros(6, 4),
            b: BitMatrix::zeros(6, 4),
            c: BitMatrix::zeros(6, 4),
        };
        let set = TensorDelta::new([6, 6, 6], vec![cell([2, 2, 2], true)]).unwrap();
        assert_eq!(
            delta_affected_columns(&set, &zero),
            vec![0, 1, 2, 3],
            "a set cell no column touches widens to every column"
        );
        let clear = TensorDelta::new([6, 6, 6], vec![cell([2, 2, 2], false)]).unwrap();
        assert_eq!(
            delta_affected_columns(&clear, &zero),
            Vec::<usize>::new(),
            "clearing an already-unexplained cell affects nothing"
        );
    }

    #[test]
    fn bounded_resweep_checker_catches_both_violations() {
        use dbtf::{random_factor_sets, DbtfConfig};
        let cfg = DbtfConfig {
            seed: 9,
            ..DbtfConfig::with_rank(3)
        };
        let before = random_factor_sets([5, 5, 5], 0.4, &cfg).remove(0);
        let x_new = before.reconstruct();
        // Identity "re-sweep": clean on any affected list.
        assert!(check_bounded_resweep(&x_new, &before, &before, &[0]).is_empty());
        // Flipping a bit in a column *not* listed as affected violates
        // the bound; flipping it in a listed column can only trip the
        // error check.
        let mut tampered = before.clone();
        tampered.a.set(0, 2, !tampered.a.get(0, 2));
        let violations = check_bounded_resweep(&x_new, &before, &tampered, &[0]);
        assert!(
            violations.iter().any(|v| v.contains("unaffected column 2")),
            "{violations:?}"
        );
        // x_new is exactly before's reconstruction, so the tampered set
        // (now listed as affected) strictly worsens the error.
        let violations = check_bounded_resweep(&x_new, &before, &tampered, &[0, 2]);
        assert!(
            violations.iter().any(|v| v.contains("worse")),
            "{violations:?}"
        );
    }
}
