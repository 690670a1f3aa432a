//! Fixed-seed differential slice — the CI-sized cut of the verification
//! sweep. The full randomized sweep lives behind
//! `scripts/verify_sweep.sh`; this test pins a deterministic set of seeds
//! so a regression anywhere in the pipeline (kernels, driver, backends,
//! fault recovery, checkpointing, metering) fails `cargo test` with the
//! exact violated oracle in the message.

use dbtf_oracle::{run_point, SamplePoint, SweepReport};

/// Seeds chosen so the slice covers all the sampled dimensions: both
/// tensor families, fault-free and fault-injected points (with at least
/// one worker crash), single- and multi-worker backends,
/// checkpoint/resume, and Tucker.
const SLICE_SEEDS: std::ops::Range<u64> = 0..12;

#[test]
fn fixed_seed_slice_has_zero_violations() {
    let mut report = SweepReport::default();
    for seed in SLICE_SEEDS {
        report.push(run_point(&SamplePoint::from_seed(seed)));
    }
    // The slice must actually exercise the interesting axes, or a green
    // run proves much less than it appears to.
    let [faulty, crashed, multi_worker, checkpointed, tucker] = report.diversity();
    assert!(faulty >= 2, "{}", report.summary());
    assert!(crashed >= 1, "{}", report.summary());
    assert!(multi_worker >= 2, "{}", report.summary());
    assert!(checkpointed >= 2, "{}", report.summary());
    assert!(tucker >= 2, "{}", report.summary());

    let failures: Vec<String> = report
        .points
        .iter()
        .filter(|p| !p.passed())
        .map(|p| {
            format!(
                "seed {} ({}): {:#?}",
                p.point.seed,
                p.point.describe(),
                p.violations
            )
        })
        .collect();
    assert!(
        report.all_passed(),
        "differential violations:\n{}",
        failures.join("\n")
    );
}
