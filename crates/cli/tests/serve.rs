//! End-to-end tests of the serving subcommands against the real binary:
//! `export-factors` round-trips a checkpoint into a plain `DBTFFSET`
//! store, `stats` recognizes both, files from older builds open (v1
//! stores) or fail with a typed error (text checkpoints), and a spawned
//! `dbtf serve` process answers a scripted `dbtf query` session —
//! including the oracle-backed agreement sweep — before draining cleanly.

use std::io::{BufRead, BufReader, Lines};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Output, Stdio};

fn dbtf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dbtf"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbtf_serve_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Spawns `dbtf serve ARGS --addr 127.0.0.1:0` in `cwd` and waits for its
/// `listening on` line; returns the process, its remaining stdout lines,
/// and the address it listens on.
fn spawn_serve(cwd: &Path, args: &[&str]) -> (Child, Lines<BufReader<ChildStdout>>, String) {
    let mut server = Command::new(env!("CARGO_BIN_EXE_dbtf"))
        .current_dir(cwd)
        .arg("serve")
        .args(args)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn dbtf serve");
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before listening")
            .unwrap();
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    (server, lines, addr)
}

/// Generates a planted tensor, factorizes it with checkpointing on, and
/// returns the checkpoint path.
fn make_checkpoint(dir: &std::path::Path) -> String {
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
    let prefix = dir.join("run");
    let ck = dir.join("run.ckpt");
    let out = dbtf(&[
        "factorize",
        "--input",
        x.to_str().unwrap(),
        "--rank",
        "3",
        "--iters",
        "2",
        "--seed",
        "3",
        "--output",
        prefix.to_str().unwrap(),
        "--checkpoint",
        ck.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    ck.to_str().unwrap().to_string()
}

/// Exports the checkpoint to a binary store and returns the store path.
fn export(dir: &std::path::Path, ck: &str) -> String {
    let store = dir.join("factors.dbtfs");
    let text = stdout(&dbtf(&[
        "export-factors",
        "--checkpoint",
        ck,
        "--output",
        store.to_str().unwrap(),
    ]));
    assert!(text.contains("exported factor set"), "{text}");
    store.to_str().unwrap().to_string()
}

#[test]
fn export_factors_round_trip_and_stats_recognize_both_formats() {
    let dir = tempdir("export");
    let ck = make_checkpoint(&dir);
    let store = export(&dir, &ck);

    // `stats` must recognize both kinds of factor-set file by magic, not
    // suffix: a checkpoint shows its history, a plain store has none.
    let text = stdout(&dbtf(&["stats", "--input", &ck]));
    assert!(text.contains("factor store (DBTFFSET v2)"), "{text}");
    assert!(text.contains("24 × 20 × 16, rank 3"), "{text}");
    assert!(text.contains("set version: 2"), "{text}");
    assert!(text.contains("iteration: 2"), "{text}");

    let text = stdout(&dbtf(&["stats", "--input", &store]));
    assert!(text.contains("factor store (DBTFFSET v2)"), "{text}");
    assert!(text.contains("24 × 20 × 16, rank 3"), "{text}");
    assert!(text.contains("set version: 2"), "{text}");
    assert!(!text.contains("iteration:"), "{text}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Piping CLI output into a consumer that closes early (`| head`) must
/// end the process via the default SIGPIPE disposition, not a panic.
#[cfg(unix)]
#[test]
fn closed_stdout_pipe_kills_quietly_instead_of_panicking() {
    use std::os::unix::process::ExitStatusExt;
    let dir = tempdir("sigpipe");
    let ck = make_checkpoint(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dbtf"))
        .args(["stats", "--input", &ck])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dbtf stats");
    // Close the read end immediately; the first flushed write after
    // that raises SIGPIPE.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(
        out.status.code().is_none() && out.status.signal() == Some(13) || out.status.success(),
        "expected SIGPIPE death or clean exit, got {:?} ({err})",
        out.status
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The words of the factor-set file at `path`.
fn read_words(path: &str) -> Vec<u64> {
    std::fs::read(path)
        .unwrap()
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Writes `words` to `path` after recomputing both `DBTFFSET` checksums
/// under the multiplier v1 fixed.
fn write_sealed(path: &Path, mut words: Vec<u64>) {
    use dbtf_tensor::columnar::fnv_words;
    words[7] = fnv_words(&words[9..], 0x1000_0000_01b3);
    words[8] = fnv_words(&words[..8], 0x1000_0000_01b3);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn stats_refuses_future_checkpoint_version_with_clear_message() {
    let dir = tempdir("future");
    let ck = make_checkpoint(&dir);
    let mut words = read_words(&ck);
    words[1] = 3;
    let path = dir.join("future.ckpt");
    write_sealed(&path, words);
    // `update` reads a tensor, a delta and a factor set: the message names
    // the one that is too new.
    let (delta, next) = (dir.join("delta.txt"), dir.join("next.dbtfs"));
    std::fs::write(&delta, "+ 0 0 0\n").unwrap();
    let [x, delta, path, next] =
        [dir.join("x.txt"), delta, path, next].map(|p| p.to_str().unwrap().to_string());
    let update = [
        "update",
        "--input",
        &x,
        "--delta",
        &delta,
        "--factors",
        &path,
    ];
    for args in [
        &["stats", "--input", &path][..],
        &[&update[..], &["--output", &next]].concat(),
    ] {
        let out = dbtf(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with(&format!("dbtf: {path}: ")), "{err}");
        assert!(err.contains("format v3 is newer than this build"), "{err}");
        assert!(err.contains("max v2"), "{err}");
    }
    assert!(!Path::new(&next).exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `dbtf update` reports its run like `dbtf factorize`, with a
/// `recovery:` line when a fault plan is set, and recovers to the store
/// the fault-free run writes.
#[test]
fn update_reports_and_recovers_a_crash() {
    let dir = tempdir("updcrash");
    let ck = make_checkpoint(&dir);
    std::fs::write(dir.join("delta.txt"), "+ 0 0 0\n- 1 2 3\n").unwrap();
    let [x, delta] = ["x.txt", "delta.txt"].map(|f| dir.join(f).to_str().unwrap().to_string());
    let update = |name: &str, extra: &[&str]| {
        let out = dir.join(name).to_str().unwrap().to_string();
        let args = ["update", "--input", &x, "--delta", &delta, "--factors", &ck];
        let text = stdout(&dbtf(
            &[&args[..], &["--output", &out, "--workers", "2"], extra].concat(),
        ));
        (text, std::fs::read(&out).unwrap())
    };
    let (clean, store) = update("clean.dbtfs", &[]);
    assert!(
        clean.contains("cluster: ") && !clean.contains("recovery:"),
        "{clean}"
    );
    let (crash, recovered) = update("crash.dbtfs", &["--fault-crash", "1:0"]);
    assert!(crash.contains("recovery: 1 respawns"), "{crash}");
    assert_eq!(recovered, store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint is a `DBTFFSET` file, so it serves from a read-only map
/// as well as from the heap, at its iteration count as the set version.
#[test]
fn serve_on_checkpoint_with_mmap_answers_queries() {
    let dir = tempdir("mmapck");
    let ck = make_checkpoint(&dir);
    let (mut server, _stdout, addr) = spawn_serve(&dir, &["--store", &ck, "--source", "mmap"]);
    let query = |extra: &[&str]| {
        let mut args = vec!["query", "--connect", addr.as_str()];
        args.extend_from_slice(extra);
        dbtf(&args)
    };
    let info = query(&["--info"]);
    let check = query(&["--oracle-check", &ck, "--count", "100"]);
    // Stop the server before asserting, so a failure leaves no process.
    query(&["--shutdown-server"]);
    let status = server.wait().expect("serve exits");
    let info = stdout(&info);
    assert!(
        info.contains("factor set v2 24 × 20 × 16 rank 3 (mmap)"),
        "{info}"
    );
    let check = stdout(&check);
    assert!(check.contains("oracle-check: 100 queries agree"), "{check}");
    assert!(status.success(), "serve exited {status:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Older builds wrote checkpoints as `DBTFCKPT` text. Every command that
/// reads a factor set refuses one with a typed error naming the format:
/// exit code 1, one message line, and no output file.
#[test]
fn text_checkpoint_from_an_older_build_is_a_typed_error() {
    let dir = tempdir("oldckpt");
    let x = dir.join("x.txt");
    std::fs::write(&x, "# dims 2 2 2\n0 0 0\n1 1 1\n").unwrap();
    let delta = dir.join("delta.txt");
    std::fs::write(&delta, "+ 0 1 0\n").unwrap();
    let ck = dir.join("old.ckpt");
    let old = "DBTFCKPT v1\niteration 1\nerror 0\niteration_errors 0\n\
               matrix a 2 1\n1\n0\nmatrix b 2 1\n1\n0\nmatrix c 2 1\n1\n0\n";
    std::fs::write(&ck, old).unwrap();
    let (ck, x, delta) = (
        ck.to_str().unwrap(),
        x.to_str().unwrap(),
        delta.to_str().unwrap(),
    );
    let out_path = dir.join("out.dbtfs");
    let out = out_path.to_str().unwrap();
    for args in [
        vec!["stats", "--input", ck],
        vec!["serve", "--store", ck, "--source", "mmap"],
        vec!["export-factors", "--checkpoint", ck, "--output", out],
        vec!["update", "--input", x, "--delta", delta, "--factors", ck],
        vec!["factorize", "--input", x, "--rank", "1", "--checkpoint", ck],
    ] {
        let mut args = args;
        if args[0] == "update" {
            args.extend(["--output", out, "--workers", "1"]);
        } else if args[0] == "factorize" {
            args.extend(["--resume", "--workers", "1"]);
        }
        let run = dbtf(&args);
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.contains("DBTFCKPT text checkpoint"), "{args:?}: {err}");
        assert!(err.contains("re-run the factorization"), "{args:?}: {err}");
        assert!(run.stdout.is_empty(), "{args:?}");
        assert!(!out_path.exists() && !out_path.with_extension("tmp").exists());
    }
    assert_eq!(std::fs::read_to_string(ck).unwrap(), old, "left untouched");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Stores written by older builds are `DBTFFSET` v1: no history, data
/// checksum over the rows alone. One built here from that layout opens
/// as `update --factors`, whose output is a v2 store one version on.
#[test]
fn v1_store_from_an_older_build_works_as_update_factors() {
    let dir = tempdir("v1store");
    let ck = make_checkpoint(&dir);
    // Today's v2 image minus the history section and its count word is
    // exactly the v1 layout; the header says v1 and is resealed.
    let mut words = read_words(&ck);
    let history = 2;
    words.truncate(words.len() - 1 - history);
    words[1] = 1;
    words[2] = 7;
    let v1 = dir.join("v1.dbtfs");
    write_sealed(&v1, words);
    let v1 = v1.to_str().unwrap();
    let text = stdout(&dbtf(&["stats", "--input", v1]));
    assert!(text.contains("factor store (DBTFFSET v1)"), "{text}");
    assert!(text.contains("set version: 7"), "{text}");

    let delta = dir.join("delta.txt");
    std::fs::write(&delta, "+ 0 0 0\n- 1 2 3\n").unwrap();
    let x = dir.join("x.txt");
    let next = dir.join("next.dbtfs");
    let text = stdout(&dbtf(&[
        "update",
        "--input",
        x.to_str().unwrap(),
        "--delta",
        delta.to_str().unwrap(),
        "--factors",
        v1,
        "--output",
        next.to_str().unwrap(),
        "--workers",
        "2",
    ]));
    assert!(text.contains("wrote factor set v8"), "{text}");
    let text = stdout(&dbtf(&["stats", "--input", next.to_str().unwrap()]));
    assert!(text.contains("factor store (DBTFFSET v2)"), "{text}");
    assert!(text.contains("set version: 8"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The full scripted session: serve in the background on an ephemeral
/// port, run every query subcommand against it, gate on the oracle
/// sweep, then shut the server down and check it drained.
#[test]
fn serve_process_answers_scripted_query_session() {
    let dir = tempdir("session");
    let ck = make_checkpoint(&dir);
    let store = export(&dir, &ck);

    // `--cache-fibers` is no longer read; the ledger benchmark still
    // passes it, so the server must keep starting with it.
    let (mut server, lines, addr) = spawn_serve(&dir, &["--store", &store, "--cache-fibers", "64"]);

    let query = |extra: &[&str]| {
        let mut args = vec!["query", "--connect", addr.as_str()];
        args.extend_from_slice(extra);
        dbtf(&args)
    };

    assert_eq!(stdout(&query(&["--ping"])).trim(), "pong");

    let info = stdout(&query(&["--info"]));
    assert!(
        info.contains("factor set v2 24 × 20 × 16 rank 3 (ram)"),
        "{info}"
    );

    let point = stdout(&query(&["--point", "0,0,0"]));
    assert!(point.trim() == "true" || point.trim() == "false", "{point}");

    // Slice indices are in-range for the free mode.
    let slice = stdout(&query(&["--slice", "3:1,2"]));
    for index in slice.split_whitespace() {
        assert!(index.parse::<usize>().unwrap() < 16, "{slice}");
    }

    let topk = stdout(&query(&["--topk", "1:0:3"]));
    assert!(topk.lines().count() <= 3, "{topk}");

    let stats = stdout(&query(&["--stats"]));
    assert!(stats.contains("serve.point.queries 1"), "{stats}");
    assert!(stats.contains("serve.conns.opened"), "{stats}");

    // A bad query spec is an argument error (exit 2), not a crash.
    let out = query(&["--slice", "5:0,0"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The agreement gate the CI smoke script relies on.
    let check = stdout(&query(&[
        "--oracle-check",
        &store,
        "--seed",
        "42",
        "--count",
        "200",
    ]));
    assert!(
        check.contains("oracle-check: 200 queries agree (seed 42)"),
        "{check}"
    );

    assert_eq!(
        stdout(&query(&["--shutdown-server"])).trim(),
        "server draining"
    );
    let status = server.wait().expect("serve exits");
    assert!(status.success(), "serve exited {status:?}");
    let rest: Vec<String> = lines.map(|l| l.unwrap()).collect();
    assert!(
        rest.iter().any(|l| l == "drained cleanly"),
        "missing drain message in {rest:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `dbtf update --reload` run from another working directory than the
/// server, with a relative `--output`: the server must load the file the
/// update wrote, not look for that name in its own directory.
#[test]
fn update_reload_resolves_relative_output_where_update_runs() {
    let dir = tempdir("reload_cwd");
    let ck = make_checkpoint(&dir);
    let store = export(&dir, &ck);
    let (server_dir, update_dir) = (dir.join("server"), dir.join("update"));
    std::fs::create_dir_all(&server_dir).unwrap();
    std::fs::create_dir_all(&update_dir).unwrap();
    let (mut server, _stdout, addr) = spawn_serve(&server_dir, &["--store", &store]);

    let delta = dir.join("delta.txt");
    std::fs::write(&delta, "+ 0 0 0\n- 1 2 3\n").unwrap();
    let update = Command::new(env!("CARGO_BIN_EXE_dbtf"))
        .current_dir(&update_dir)
        .args(["update", "--input", dir.join("x.txt").to_str().unwrap()])
        .args(["--delta", delta.to_str().unwrap(), "--factors", &store])
        .args(["--output", "v3.dbtfs", "--workers", "2", "--reload", &addr])
        .output()
        .expect("binary runs");
    let info = dbtf(&["query", "--connect", &addr, "--info"]);
    // Stop the server before asserting, so a failure leaves no process.
    dbtf(&["query", "--connect", &addr, "--shutdown-server"]);
    let status = server.wait().expect("serve exits");

    let text = stdout(&update);
    assert!(text.contains(": serving v3 (generation 1)"), "{text}");
    assert!(update_dir.join("v3.dbtfs").is_file());
    assert!(!server_dir.join("v3.dbtfs").exists());
    let info = stdout(&info);
    assert!(info.contains("factor set v3 24 × 20 × 16"), "{info}");
    assert!(status.success(), "serve exited {status:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
