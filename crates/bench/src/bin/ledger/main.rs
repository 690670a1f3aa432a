//! `ledger` — the wall-clock ledger of `dbtf factorize`, `dbtf update`
//! and `dbtf serve`, end to end and layer by layer.
//!
//! ```text
//! ledger [--workload NAME]… [--seed N] [--seconds S] [--trace 0|1]
//!        [--runs N] [--out FILE]
//! ledger --smoke [--out FILE]
//! ledger --compare PARENT.json CHANGE.json
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! end-to-end pass (`--trace 0`: the `dbtf` binary as subprocesses) and
//! the traced pass (`--trace 1`: each layer in-process) run. The last
//! stdout line is one JSON object `{correct, attempted, failed,
//! metrics}`. Run it from the repository root through `run.sh`, which
//! builds the `dbtf` CLI and this binary first. See README.md.

mod check;
mod compare;
mod e2e;
mod gen;
mod loadgen;
mod proc;
mod report;
#[cfg(test)]
mod smoke;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use compare::{Host, Record};
use e2e::Ctx;
use report::{Metric, Run};

struct Opts {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    runs: usize,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: Vec<String>) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: 1,
        seconds: 25.0,
        trace: None,
        runs: 1,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => o.workloads.push(value("--workload")?),
            "--seed" => o.seed = parse(&value("--seed")?)?,
            "--seconds" => o.seconds = parse(&value("--seconds")?)?,
            "--trace" => o.trace = Some(value("--trace")? == "1"),
            "--runs" => o.runs = parse(&value("--runs")?)?,
            "--out" => o.out = Some(value("--out")?.into()),
            "--smoke" => o.smoke = true,
            "--compare" => {
                let parent = value("--compare")?;
                o.compare = Some((parent.into(), value("--compare")?.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    for w in &o.workloads {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (one of {:?})",
                workloads::NAMES
            ));
        }
    }
    if o.seconds <= 0.0 || o.runs == 0 {
        return Err("--seconds and --runs must be positive".into());
    }
    Ok(o)
}

fn parse<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("invalid number {raw:?}"))
}

/// `$CARGO_TARGET_DIR`, else `target`, under the working directory; made
/// absolute because the program's processes run in scratch directories.
fn target_dir() -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    std::env::current_dir().map_or(dir.clone(), |cwd| cwd.join(dir))
}

fn git(args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    // Never let git search above the checkout for a repository.
    let out = std::process::Command::new("git")
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn host(o: &Opts) -> Host {
    Host {
        cores: std::thread::available_parallelism().map_or(1, usize::from),
        git_sha: git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        dirty: git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        seed: o.seed,
        seconds: o.seconds,
    }
}

/// A per-pass scratch directory, removed on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_pass(name: &str, traced: bool, rep: usize, o: &Opts, out_dir: &Path, dbtf: &Path) -> Record {
    let w = workloads::workload(name, o.smoke).expect("validated workload name");
    let work = WorkDir(out_dir.join(format!(
        "work-{name}-{}-{rep}-{}",
        std::process::id(),
        u8::from(traced)
    )));
    let ctx = Ctx {
        dbtf: dbtf.to_path_buf(),
        work: work.0.clone(),
        out: out_dir.to_path_buf(),
        seed: o.seed,
        seconds: if o.smoke { 1.0 } else { o.seconds },
        smoke: o.smoke,
    };
    let result = std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("{}: {e}", ctx.work.display()))
        .and_then(|()| {
            if traced {
                traced::run(&w, &ctx)
            } else {
                e2e::run(&w, &ctx)
            }
        });
    let pass = if traced { "traced" } else { "e2e" };
    let (correct, run) = match result {
        Ok(run) => (true, run),
        Err(e) => {
            eprintln!("ledger: {name} ({pass}): {e}");
            (
                false,
                Run {
                    attempted: 1,
                    failed: 1,
                    ..Run::default()
                },
            )
        }
    };
    for m in &run.metrics {
        println!(
            "{name:<14} {pass:<7} {:<44} {:>18} {}",
            m.name,
            report::num(m.value),
            m.unit
        );
    }
    Record {
        workload: name.to_string(),
        pass: pass.to_string(),
        seed: o.seed,
        correct,
        run,
    }
}

/// Every selected workload and pass, `--runs` times over on the same seed.
fn run_set(o: &Opts, out_dir: &Path, dbtf: &Path) -> Vec<Record> {
    let names: Vec<String> = if o.workloads.is_empty() {
        workloads::NAMES.iter().map(|s| s.to_string()).collect()
    } else {
        o.workloads.clone()
    };
    let passes: Vec<bool> = match o.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut records = Vec::new();
    for rep in 0..o.runs {
        for name in &names {
            for &traced in &passes {
                records.push(run_pass(name, traced, rep, o, out_dir, dbtf));
            }
        }
    }
    records
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, report, program, args @ ..] = argv.as_slice() {
        if flag == "--reap" {
            return proc::reap_main(Path::new(report), program, args);
        }
    }
    let o = match parse_args(argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((parent, change)) = &o.compare {
        return match compare::compare(parent, change, Path::new("BENCHMARK.json")) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ledger: {e}");
                ExitCode::from(2)
            }
        };
    }
    if cfg!(debug_assertions) && !o.smoke {
        eprintln!("ledger: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let out_dir = target_dir().join("ledger");
    let dbtf = target_dir().join("release").join("dbtf");
    if !dbtf.is_file() {
        eprintln!(
            "ledger: no dbtf binary at {} (build dbtf-cli first)",
            dbtf.display()
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("ledger: {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    let records = run_set(&o, &out_dir, &dbtf);
    let ledger_path = o.out.clone().unwrap_or_else(|| out_dir.join("ledger.json"));
    if let Err(e) = compare::write_ledger(&ledger_path, &host(&o), &records) {
        eprintln!("ledger: {}: {e}", ledger_path.display());
    }
    let correct = records.iter().all(|r| r.correct);
    let attempted: u64 = records.iter().map(|r| r.run.attempted).sum();
    let failed: u64 = records.iter().map(|r| r.run.failed).sum();
    let metrics = if records.len() == 1 {
        report::metrics_object(&records[0].run.metrics)
    } else {
        // Several passes: `workload/metric`, the median over `--runs`.
        let mut all: Vec<(Metric, Vec<f64>)> = Vec::new();
        for r in &records {
            for m in &r.run.metrics {
                let name = format!("{}/{}", r.workload, m.name);
                match all.iter_mut().find(|(a, _)| a.name == name) {
                    Some((_, values)) => values.push(m.value),
                    None => all.push((Metric { name, ..m.clone() }, vec![m.value])),
                }
            }
        }
        let medians: Vec<Metric> = all
            .into_iter()
            .map(|(m, values)| Metric {
                value: stats::median(&values),
                ..m
            })
            .collect();
        report::metrics_object(&medians)
    };
    println!(
        "{}",
        report::result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
