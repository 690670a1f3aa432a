//! Randomized differential verification sweep (see `crates/oracle`).
//!
//! Each point draws a `(tensor family, rank, config, backend shape,
//! storage, fault plan)` tuple from one seed and runs the full DBTF
//! pipeline under the sequential reference, the cluster backend, the
//! local backend and (on sampled points) a fault-injected replica,
//! checking every oracle: bit-identity, plan-trace fingerprints,
//! cell-by-cell error, Lemma 6/7 communication formulas, recovery
//! counters, checkpoint/resume, mode-permutation metamorphic relations,
//! and the Tucker driver.
//!
//! Exits non-zero on any violation, so it doubles as a CI gate.
//!
//! ```text
//! cargo run --release -p dbtf-bench --bin verify-sweep --
//!     [--points 25] [--seed0 0] [--json report.json] [--quiet]
//! ```

use std::io::Write as _;

use dbtf_bench::Args;
use dbtf_oracle::{run_point, SamplePoint, SweepReport};

fn main() {
    let args = Args::parse();
    let points = args.get("points", 25u64);
    let seed0 = args.get("seed0", 0u64);
    let quiet = args.has("quiet");

    println!(
        "Differential verification sweep — {points} points, seeds {seed0}..{}",
        seed0 + points
    );
    let mut report = SweepReport::default();
    for seed in seed0..seed0 + points {
        let point = SamplePoint::from_seed(seed);
        let outcome = run_point(&point);
        if !quiet || !outcome.passed() {
            println!(
                "  seed {seed:>6}  {}  {}",
                if outcome.passed() { "ok  " } else { "FAIL" },
                point.describe()
            );
        }
        for violation in &outcome.violations {
            println!("          !! {violation}");
        }
        report.push(outcome);
    }
    println!("{}", report.summary());

    if let Some(path) = args
        .has("json")
        .then(|| args.get("json", String::new()))
        .filter(|p| !p.is_empty())
    {
        let mut f = std::fs::File::create(&path).expect("create JSON report");
        f.write_all(report.to_json().as_bytes())
            .expect("write JSON report");
        println!("JSON report written to {path}");
    }

    if !report.all_passed() {
        std::process::exit(1);
    }
}
