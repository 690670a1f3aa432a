//! `ledger.json` files, `BENCHMARK.json` and compare mode.

use std::path::Path;

use dbtf_telemetry::JsonValue;

use crate::report::{self, Run};
use crate::stats::{median, quartiles};

/// One pass of one workload, as stored in `ledger.json`.
pub struct Record {
    pub workload: String,
    /// `"e2e"` or `"traced"`.
    pub pass: String,
    pub seed: u64,
    pub correct: bool,
    pub run: Run,
}

/// The host stamp every `ledger.json` carries.
pub struct Host {
    pub cores: usize,
    pub git_sha: String,
    pub dirty: bool,
    pub profile: &'static str,
    pub seed: u64,
    pub seconds: f64,
}

pub fn write_ledger(path: &Path, host: &Host, records: &[Record]) -> std::io::Result<()> {
    std::fs::write(path, ledger_text(host, records))
}

fn ledger_text(host: &Host, records: &[Record]) -> String {
    let runs: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": {}, \"pass\": {}, \"seed\": {}, \"correct\": {}, \
                 \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                report::string(&r.workload),
                report::string(&r.pass),
                r.seed,
                r.correct,
                r.run.attempted,
                r.run.failed,
                report::metrics_object(&r.run.metrics)
            )
        })
        .collect();
    format!(
        "{{\n  \"host\": {{\"cores\": {}, \"git_sha\": {}, \"dirty\": {}, \"profile\": {}, \
         \"seed\": {}, \"seconds\": {}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        host.cores,
        report::string(&host.git_sha),
        host.dirty,
        report::string(host.profile),
        host.seed,
        report::num(host.seconds),
        runs.join(",\n")
    )
}

fn parse_file(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_ledger(path: &Path) -> Result<Vec<Record>, String> {
    parse_ledger(&parse_file(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing string {key:?}"))
}

fn parse_ledger(v: &JsonValue) -> Result<Vec<Record>, String> {
    let runs = v
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or("no runs")?;
    runs.iter()
        .map(|r| {
            let mut run = Run {
                attempted: r.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0),
                failed: r.get("failed").and_then(JsonValue::as_u64).unwrap_or(0),
                ..Run::default()
            };
            if let Some(JsonValue::Object(fields)) = r.get("metrics") {
                for (name, m) in fields {
                    let value = m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(f64::NAN);
                    run.put(name.clone(), unit_of(m), value);
                }
            }
            Ok(Record {
                workload: str_field(r, "workload")?.to_string(),
                pass: str_field(r, "pass")?.to_string(),
                seed: r.get("seed").and_then(JsonValue::as_u64).unwrap_or(0),
                correct: r
                    .get("correct")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
                run,
            })
        })
        .collect()
}

/// Units are `&'static str` in records; map a parsed one back onto the
/// vocabulary the ledger emits.
fn unit_of(m: &JsonValue) -> &'static str {
    const UNITS: [&str; 9] = [
        "s", "ms", "us", "ns", "MiB", "bytes", "count", "ratio", "1/s",
    ];
    let u = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
    UNITS.iter().find(|&&k| k == u).copied().unwrap_or("?")
}

/// An end-to-end metric declared in `BENCHMARK.json`.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_benchmark(path: &Path) -> Result<Vec<Declared>, String> {
    parse_file(path)?
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: str_field(m, "name")?.to_string(),
                unit: str_field(m, "unit")?.to_string(),
                lower_is_better: str_field(m, "better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("end-to-end metric without a bound")?,
            })
        })
        .collect()
}

/// How one metric moved between two sets of runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The parent's own quartile spread exceeds the bound.
    Unresolved,
}

/// Median, first and third quartile of a sample (a single value is its
/// own quartiles).
fn summary(values: &[f64]) -> (f64, f64, f64) {
    let m = median(values);
    if values.len() < 2 {
        return (m, m, m);
    }
    let (q1, q3) = quartiles(values);
    (m, q1, q3)
}

fn verdict(parent: &[f64], change: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let (pm, p1, p3) = summary(parent);
    let (cm, _, _) = summary(change);
    if pm == 0.0 {
        return if cm == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    if (p3 - p1) / pm.abs() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better {
        (cm - pm) / pm.abs()
    } else {
        (pm - cm) / pm.abs()
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// End-to-end metrics that are a pure function of the seed. Between seeds
/// they move (which `BENCHMARK.json`'s bound allows for), but on the same
/// seed any change means the program computed something else.
const EXACT: [&str; 1] = ["relative_error"];

/// The verdict on an exact metric from `(seed, value)` pairs: any change
/// on a seed both sides ran is worse.
fn exact_verdict(parent: &[(u64, f64)], change: &[(u64, f64)]) -> Verdict {
    let mut shared = false;
    for (seed, value) in change {
        for (_, p) in parent.iter().filter(|(s, _)| s == seed) {
            if p != value {
                return Verdict::Worse;
            }
            shared = true;
        }
    }
    if shared {
        Verdict::Unchanged
    } else {
        Verdict::Unresolved
    }
}

fn failed_ratio(records: &[Record]) -> f64 {
    let attempted: u64 = records.iter().map(|r| r.run.attempted).sum();
    let failed: u64 = records.iter().map(|r| r.run.failed).sum();
    failed as f64 / attempted.max(1) as f64
}

/// `(seed, value)` of `metric` in every end-to-end pass of `workload`.
fn values(records: &[Record], workload: &str, metric: &str) -> Vec<(u64, f64)> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.pass == "e2e")
        .filter_map(|r| Some((r.seed, r.run.get(metric)?)))
        .filter(|(_, v)| v.is_finite())
        .collect()
}

/// Prints the comparison table; `Ok(true)` when nothing got worse.
pub fn compare(parent: &Path, change: &Path, benchmark: &Path) -> Result<bool, String> {
    let declared = read_benchmark(benchmark)?;
    let (p, c) = (read_ledger(parent)?, read_ledger(change)?);
    let mut workloads: Vec<&str> = Vec::new();
    for r in p.iter().chain(&c) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:<5} {:>30} {:>30}  verdict",
        "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]"
    );
    for wl in workloads {
        for d in &declared {
            let (ps, cs) = (values(&p, wl, &d.name), values(&c, wl, &d.name));
            if ps.is_empty() || cs.is_empty() {
                continue;
            }
            let pv: Vec<f64> = ps.iter().map(|s| s.1).collect();
            let cv: Vec<f64> = cs.iter().map(|s| s.1).collect();
            let v = if EXACT.contains(&d.name.as_str()) {
                exact_verdict(&ps, &cs)
            } else {
                verdict(&pv, &cv, d.bound, d.lower_is_better)
            };
            ok &= v != Verdict::Worse;
            let fmt = |s: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", s.0, s.1, s.2);
            println!(
                "{wl:<14} {:<14} {:<5} {:>30} {:>30}  {v:?}",
                d.name,
                d.unit,
                fmt(summary(&pv)),
                fmt(summary(&cv))
            );
        }
    }
    let (pf, cf) = (failed_ratio(&p), failed_ratio(&c));
    println!("failed_ratio: parent {pf}, change {cf}");
    if cf > pf {
        ok = false;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledgers_round_trip() {
        let mut run = Run {
            attempted: 12,
            failed: 1,
            ..Run::default()
        };
        run.put("op_p50_ms", "ms", 531.897_123);
        run.put("peak_rss_mib", "MiB", 55.74);
        let records = [Record {
            workload: "cp-kernel".into(),
            pass: "e2e".into(),
            seed: 7,
            correct: true,
            run,
        }];
        let host = Host {
            cores: 2,
            git_sha: "abc".into(),
            dirty: false,
            profile: "release",
            seed: 7,
            seconds: 25.0,
        };
        let text = ledger_text(&host, &records);
        let back = parse_ledger(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back.len(), 1);
        let r = &back[0];
        assert_eq!(
            (r.workload.as_str(), r.pass.as_str(), r.seed, r.correct),
            ("cp-kernel", "e2e", 7, true)
        );
        assert_eq!((r.run.attempted, r.run.failed), (12, 1));
        assert_eq!(r.run.metrics, records[0].run.metrics);
        assert!((failed_ratio(&back) - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts_use_the_bound_and_the_parent_spread() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&parent, &[100.2, 100.0], 0.1, true),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&parent, &[115.0, 116.0], 0.1, true), Verdict::Worse);
        assert_eq!(verdict(&parent, &[85.0, 86.0], 0.1, true), Verdict::Better);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&parent, &[85.0, 86.0], 0.1, false), Verdict::Worse);
        // A parent too noisy for the bound resolves nothing.
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&noisy, &[300.0], 0.1, true), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_fail_on_any_change_of_a_shared_seed() {
        let parent = [(1, 0.25), (1, 0.25), (2, 0.31)];
        assert_eq!(
            exact_verdict(&parent, &[(1, 0.25), (2, 0.31)]),
            Verdict::Unchanged
        );
        // Lower, but a different result all the same.
        assert_eq!(exact_verdict(&parent, &[(2, 0.30)]), Verdict::Worse);
        assert_eq!(exact_verdict(&parent, &[(3, 0.2)]), Verdict::Unresolved);
    }
}
