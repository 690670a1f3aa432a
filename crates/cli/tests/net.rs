//! End-to-end tests of `--backend net` against the real binary: workers
//! are separate OS processes spawned via the `worker` subcommand, kills
//! are literal `SIGKILL`s, and the bytes are measured on real sockets.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use dbtf_cluster::{ClusterConfig, NetTuning, WorkerHost};

fn dbtf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dbtf"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbtf_net_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(dir: &std::path::Path) -> String {
    let x = dir.join("x.txt");
    let out = dbtf(&[
        "generate",
        "planted",
        "--dims",
        "24,20,16",
        "--rank",
        "3",
        "--factor-density",
        "0.4",
        "--additive",
        "0.05",
        "--seed",
        "7",
        "--output",
        x.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    x.to_str().unwrap().to_string()
}

fn factorize(x: &str, backend: &str, prefix: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "factorize",
        "--input",
        x,
        "--rank",
        "3",
        "--iters",
        "3",
        "--workers",
        "3",
        "--backend",
        backend,
        "--output",
        prefix,
    ];
    args.extend_from_slice(extra);
    dbtf(&args)
}

fn read_factors(prefix: &str) -> Vec<String> {
    ["A", "B", "C"]
        .iter()
        .map(|s| std::fs::read_to_string(format!("{prefix}.{s}.txt")).unwrap())
        .collect()
}

/// First line of the run summary ("factorized … |X ⊕ X̃| = …") — the
/// algorithmic outcome, identical across backends.
fn summary_line(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find(|l| l.starts_with("factorized"))
        .unwrap_or_else(|| panic!("no summary in {text:?}"))
        .to_string();
    line
}

/// Real worker processes, no faults: factors and the error summary are
/// byte-identical to the simulated cluster, and the wire line reports
/// measured payload equal to the Lemma 6/7 meters.
#[test]
fn net_processes_match_cluster_bit_for_bit() {
    let dir = tempdir("parity");
    let x = generate(&dir);
    let sim_prefix = dir.join("sim").to_str().unwrap().to_string();
    let net_prefix = dir.join("net").to_str().unwrap().to_string();

    let sim = factorize(&x, "cluster", &sim_prefix, &[]);
    assert!(
        sim.status.success(),
        "{}",
        String::from_utf8_lossy(&sim.stderr)
    );
    let net = factorize(&x, "net", &net_prefix, &[]);
    assert!(
        net.status.success(),
        "{}",
        String::from_utf8_lossy(&net.stderr)
    );

    assert_eq!(summary_line(&sim), summary_line(&net));
    assert_eq!(read_factors(&sim_prefix), read_factors(&net_prefix));

    // The meters line differs only in the backend name, and the wire
    // line confirms measured payload == shuffle + broadcast meters.
    let sim_text = String::from_utf8_lossy(&sim.stdout).to_string();
    let net_text = String::from_utf8_lossy(&net.stdout).to_string();
    let meters = |text: &str, tag: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(tag))
            .unwrap_or_else(|| panic!("no {tag} line in {text:?}"))
            .to_string()
    };
    assert_eq!(
        meters(&sim_text, "cluster:"),
        meters(&net_text, "net:"),
        "virtual time and byte meters must match"
    );
    assert!(net_text.contains("wire:"), "{net_text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded SIGKILLs of real worker processes: the run recovers through
/// respawn + lineage recompute and the factors, error summary, and byte
/// meters all stay identical to the kill-free run.
#[test]
fn sigkill_riddled_net_run_stays_bit_identical() {
    let dir = tempdir("sigkill");
    let x = generate(&dir);
    let clean_prefix = dir.join("clean").to_str().unwrap().to_string();
    let killed_prefix = dir.join("killed").to_str().unwrap().to_string();

    let clean = factorize(&x, "net", &clean_prefix, &[]);
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let killed = factorize(
        &x,
        "net",
        &killed_prefix,
        &[
            "--fault-kill-rate",
            "0.15",
            "--fault-seed",
            "11",
            "--net-respawn-budget",
            "64",
        ],
    );
    assert!(
        killed.status.success(),
        "{}",
        String::from_utf8_lossy(&killed.stderr)
    );

    assert_eq!(summary_line(&clean), summary_line(&killed));
    assert_eq!(read_factors(&clean_prefix), read_factors(&killed_prefix));
    let text = String::from_utf8_lossy(&killed.stdout).to_string();
    let recovery = text
        .lines()
        .find(|l| l.starts_with("recovery:"))
        .unwrap_or_else(|| panic!("no recovery line in {text:?}"));
    assert!(
        !recovery.contains(" 0 respawns"),
        "kills at rate 0.15 must have fired: {recovery}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exhausting the respawn budget exits with the runtime-failure code and
/// a typed message — never a hang or an unexplained abort — after
/// flushing the last committed iteration to the checkpoint.
#[test]
fn respawn_exhaustion_degrades_cleanly() {
    let dir = tempdir("exhaust");
    let x = generate(&dir);
    let ckpt = dir.join("run.ckpt");
    let out = dbtf(&[
        "factorize",
        "--input",
        &x,
        "--rank",
        "3",
        "--iters",
        "8",
        "--workers",
        "3",
        "--backend",
        "net",
        "--fault-kill-rate",
        "0.06",
        "--fault-seed",
        "3",
        "--net-respawn-budget",
        "2",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "100",
    ]);
    assert_eq!(out.status.code(), Some(1), "runtime failure, not a crash");
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("respawn budget"), "{err}");
    assert!(
        !err.contains("panicked"),
        "degradation must not surface as a panic: {err}"
    );
    // With periodic checkpoints effectively off (every 100 iterations),
    // the file can only come from the degradation flush.
    assert!(
        ckpt.exists(),
        "degradation must flush the committed prefix to the checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The worker subcommand validates its arguments like every other
/// command instead of connecting nowhere.
#[test]
fn worker_subcommand_rejects_bad_invocations() {
    let out = dbtf(&["worker"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--connect"));

    let out = dbtf(&["worker", "--connect", "not-an-addr", "--id", "0"]);
    assert_eq!(out.status.code(), Some(2));
}

/// Dropping a process-hosted backend tells every worker to shut down
/// before reaping any of them, and sleeps through no fixed ticks: eight
/// `dbtf worker` processes go in well under 100 ms. The fastest of three
/// drops is timed, so a busy host cannot fail the test on its own.
#[test]
fn eight_process_workers_drop_promptly() {
    let fastest = (0..3)
        .map(|_| {
            let backend = dbtf::net_tasks::net_backend(
                ClusterConfig {
                    workers: 8,
                    ..ClusterConfig::default()
                },
                WorkerHost::Process {
                    program: PathBuf::from(env!("CARGO_BIN_EXE_dbtf")),
                    args: vec!["worker".into()],
                },
                NetTuning::default(),
            )
            .expect("eight workers boot");
            let start = Instant::now();
            drop(backend);
            start.elapsed()
        })
        .min()
        .expect("three drops");
    assert!(
        fastest < Duration::from_millis(100),
        "dropping 8 process workers took {fastest:?}"
    );
}
