//! `ledger --smoke` through `run.sh`, against the repository's own
//! `dbtf`: every gate must pass, and every pass must emit exactly the
//! metrics `BENCHMARK.json` declares for it, each with its declared unit.

use std::path::{Path, PathBuf};
use std::process::Command;

use dbtf_telemetry::JsonValue;

/// The repository root: the nearest directory above this package that
/// holds `BENCHMARK.json` (the package is `dbtf-bench` in the workspace
/// and the ledger's own package in its directory).
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|dir| dir.join("BENCHMARK.json").is_file())
        .expect("BENCHMARK.json above the package")
        .to_path_buf()
}

fn parse(path: &Path) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    JsonValue::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key).unwrap_or_else(|| panic!("missing {key:?}"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(benchmark: &JsonValue, list: &str) -> Vec<(String, String)> {
    field(benchmark, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("string").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn smoke_emits_every_declared_metric() {
    let root = root();
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let out = target.join("ledger-smoke.json");
    let ran = Command::new("bash")
        .arg(root.join("crates/bench/src/bin/ledger/run.sh"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("run run.sh");
    assert!(
        ran.status.success(),
        "ledger --smoke failed its gates:\n{}",
        String::from_utf8_lossy(&ran.stderr)
    );

    let benchmark = parse(&root.join("BENCHMARK.json"));
    let e2e = declared(&benchmark, "end_to_end");
    let layers = declared(&benchmark, "per_layer");
    let ledger = parse(&out);
    let runs = field(&ledger, "runs").as_array().expect("runs");
    assert_eq!(
        runs.len(),
        2 * field(&benchmark, "workloads").as_array().unwrap().len()
    );
    for run in runs {
        let name = field(run, "workload").as_str().unwrap();
        let pass = field(run, "pass").as_str().unwrap();
        assert_eq!(field(run, "correct").as_bool(), Some(true), "{name} {pass}");
        let want = if pass == "e2e" { &e2e } else { &layers };
        let Some(JsonValue::Object(got)) = run.get("metrics") else {
            panic!("{name} {pass}: no metrics");
        };
        assert_eq!(got.len(), want.len(), "{name} {pass}: metric count");
        for (metric, unit) in want {
            let (_, m) = got
                .iter()
                .find(|(n, _)| n == metric)
                .unwrap_or_else(|| panic!("{name} {pass} lacks {metric}"));
            assert_eq!(field(m, "unit").as_str(), Some(unit.as_str()), "{metric}");
            assert!(
                field(m, "value").as_f64().is_some(),
                "{metric} is not a number"
            );
        }
    }
}
