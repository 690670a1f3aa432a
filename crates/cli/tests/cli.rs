//! End-to-end tests of the `dbtf` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dbtf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dbtf"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbtf_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_and_unknown_command() {
    let out = dbtf(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("factorize"));

    let out = dbtf(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_options_fail_cleanly() {
    let out = dbtf(&["factorize"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

#[test]
fn generate_stats_factorize_pipeline() {
    let dir = tempdir("pipeline");
    let x = dir.join("x.txt");
    let out = dbtf(&[
        "generate",
        "random",
        "--dims",
        "16,16,16",
        "--density",
        "0.1",
        "--seed",
        "3",
        "--output",
        x.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = dbtf(&["stats", "--input", x.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("16 × 16 × 16"), "{text}");

    let prefix = dir.join("f");
    let out = dbtf(&[
        "factorize",
        "--input",
        x.to_str().unwrap(),
        "--rank",
        "3",
        "--iters",
        "2",
        "--workers",
        "2",
        "--output",
        prefix.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for suffix in ["A", "B", "C"] {
        let p = dir.join(format!("f.{suffix}.txt"));
        let m = dbtf_tensor::matrix_io::read_matrix_file(&p).unwrap();
        assert_eq!(m.rows(), 16);
        assert_eq!(m.cols(), 3);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binary_roundtrip_through_cli() {
    let dir = tempdir("binary");
    let x = dir.join("x.dbtf");
    let out = dbtf(&[
        "generate",
        "planted",
        "--dims",
        "12,12,12",
        "--rank",
        "2",
        "--factor-density",
        "0.4",
        "--additive",
        "0.05",
        "--output",
        x.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // `.dbtf` extension implies binary on both ends.
    let t = dbtf_tensor::io::read_tensor_binary_file(&x).unwrap();
    assert_eq!(t.dims(), [12, 12, 12]);

    let out = dbtf(&["stats", "--input", x.to_str().unwrap()]);
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tucker_and_select_rank() {
    let dir = tempdir("tucker");
    let x = dir.join("x.txt");
    assert!(dbtf(&[
        "generate",
        "planted",
        "--dims",
        "14,14,14",
        "--rank",
        "2",
        "--factor-density",
        "0.35",
        "--output",
        x.to_str().unwrap(),
    ])
    .status
    .success());
    let (x, d) = (x.to_str().unwrap(), dir.to_str().unwrap());
    let run = |args: &[&str]| {
        let out = dbtf(&[args, &["--input", x]].concat());
        let (stdout, stderr) = (&out.stdout, &out.stderr);
        let text = String::from_utf8_lossy(&[&stdout[..], stderr].concat()).to_string();
        (out.status.code(), text)
    };
    let files = |name: &str| -> Vec<Vec<u8>> {
        let file = |m| std::fs::read(dir.join(format!("{name}.{m}.txt"))).unwrap();
        ["A", "B", "C", "core"].map(file).to_vec()
    };
    // Ranks up to 64 take the distributed driver, whatever the backend
    // options say, and write the same files; a crash is recovered and
    // reported.
    let tucker = ["tucker", "--ranks", "2,2,2", "--sets", "4", "--output"];
    assert_eq!(
        run(&[&tucker[..], &[&format!("{d}/t")]].concat()).0,
        Some(0)
    );
    for (name, extra) in [
        ("w4", &["--workers", "4"][..]),
        ("local4", &["--backend", "local", "--workers", "4"]),
        ("crash", &["--workers", "2", "--fault-crash", "1:0"]),
    ] {
        let (code, text) = run(&[&tucker[..], &[&format!("{d}/{name}")], extra].concat());
        assert_eq!(code, Some(0), "{name}: {text}");
        assert_eq!(files(name), files("t"), "{name}");
        let crashed = text.contains("recovery: 1 respawns");
        assert_eq!(crashed, name == "crash", "{name}: {text}");
    }
    // Above rank 64 only the sequential driver runs, and it refuses the
    // backend options.
    assert_eq!(
        run(&["tucker", "--ranks", "65,2,2", "--iters", "2"]).0,
        Some(0)
    );
    let (code, text) = run(&["tucker", "--ranks", "65,2,2", "--workers", "4"]);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("--workers"), "{text}");

    for backend in ["cluster", "local"] {
        let select = ["select-rank", "--candidates", "1,2,3", "--workers", "2"];
        let (code, text) = run(&[&select[..], &["--backend", backend]].concat());
        assert_eq!(code, Some(0), "{text}");
        assert!(text.contains("← best"), "{text}");
        assert!(text.contains(&format!("{backend}: ")), "{text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--workers 0` and an out-of-range fault plan are runtime errors on
/// every driver command and backend: exit 1 and one line, never a panic.
#[test]
fn zero_workers_is_a_clean_error() {
    let dir = tempdir("zero");
    let (x, delta, ckpt) = (dir.join("x.txt"), dir.join("d.txt"), dir.join("run.ckpt"));
    std::fs::write(&x, "# dims 2 2 2\n0 0 0\n1 1 1\n").unwrap();
    std::fs::write(&delta, "+ 0 1 0\n").unwrap();
    let [x, delta, ckpt] = [&x, &delta, &ckpt].map(|p| p.to_str().unwrap());
    let fit = ["factorize", "--input", x, "--rank", "1", "--workers", "1"];
    assert_eq!(
        dbtf(&[&fit[..], &["--checkpoint", ckpt]].concat())
            .status
            .code(),
        Some(0)
    );
    let out = dir.join("u.dbtfs");
    let update = ["update", "--input", x, "--delta", delta, "--factors", ckpt];
    let commands = [
        &["factorize", "--input", x, "--rank", "1"][..],
        &[&update[..], &["--output", out.to_str().unwrap()]].concat(),
        &["select-rank", "--input", x, "--candidates", "1"],
        &["tucker", "--input", x, "--ranks", "1,1,1"],
    ];
    for backend in ["cluster", "local", "net"] {
        for command in &commands {
            // Tucker refuses the net backend before it boots one.
            if backend != "net" || command[0] != "tucker" {
                let args = [command, &["--backend", backend, "--workers", "0"][..]].concat();
                assert_clean_runtime_error(&dbtf(&args), &format!("{args:?}"));
            }
        }
    }
    for plan in [
        &["--fault-crash", "1:5"][..],
        &["--fault-kill-rate", "2"],
        &["--fault-slow-rate", "1", "--fault-slow-factor", "inf"],
    ] {
        for command in &commands {
            let args = [command, &["--workers", "2"][..], plan].concat();
            assert_clean_runtime_error(&dbtf(&args), &format!("{args:?}"));
        }
    }
    // Every launch attempt fails, so the first superstep exhausts its
    // attempts: the run ends with the typed engine error.
    for backend in ["cluster", "net"] {
        for command in &commands {
            if backend != "net" || command[0] != "tucker" {
                let plan = ["--backend", backend, "--fault-task-failure-rate", "1"];
                let args = [command, &["--workers", "2"][..], &plan].concat();
                let out = dbtf(&args);
                assert_clean_runtime_error(&out, &format!("{args:?}"));
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert!(
                    stderr.starts_with("dbtf: engine error: ")
                        && stderr.contains("task(s) failed during superstep"),
                    "{args:?}: {stderr}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_proxy_name_lists_options() {
    let out = dbtf(&[
        "generate",
        "proxy",
        "--name",
        "nonsense",
        "--output",
        "/dev/null",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("Facebook"));
}

#[test]
fn usage_and_runtime_errors_use_distinct_exit_codes() {
    // Bad invocation: usage banner + exit 2.
    let out = dbtf(&["factorize", "--rank", "3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    // Runtime failure (input file does not exist): message only + exit 1.
    let out = dbtf(&[
        "factorize",
        "--input",
        "/nonexistent/never/x.txt",
        "--rank",
        "3",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("dbtf: "), "{stderr}");
    assert!(
        !stderr.contains("usage:"),
        "runtime errors must not print the usage banner: {stderr}"
    );

    // An option the command does not read, or a malformed value, is a
    // bad invocation naming the option, refused before any input is read.
    // The options only the net backend acts on go unread elsewhere.
    let mut extras = vec![
        vec!["--iter", "3"],
        vec!["--storage", "floppy"],
        vec!["--backend", "cloud"],
    ];
    for option in [
        "--net-respawn-budget",
        "--fault-drop-rate",
        "--fault-delay-rate",
        "--fault-delay-ms",
    ] {
        for backend in ["cluster", "local"] {
            extras.push(vec![option, "1", "--backend", backend]);
        }
    }
    for extra in extras {
        let args = [
            &["factorize", "--input", "/nonexistent/x", "--rank", "3"][..],
            &extra,
        ]
        .concat();
        let out = dbtf(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(extra[0]), "{args:?}: {stderr}");
    }
}

/// A crafted input fails like any other bad input: exit 1 and a one-line
/// `dbtf:` message, never a panic or an allocation abort.
fn assert_clean_runtime_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
    assert!(stderr.starts_with("dbtf: "), "{what}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
    assert!(
        !stderr.contains("panicked") && !stderr.contains("memory allocation"),
        "{what}: {stderr}"
    );
}

#[test]
fn text_dims_header_beyond_u32_is_a_clean_error() {
    let dir = tempdir("huge_dims");
    let x = dir.join("x.txt");
    std::fs::write(&x, "# dims 5000000000 2 2\n0 0 0\n").unwrap();
    let out = dbtf(&[
        "factorize",
        "--input",
        x.to_str().unwrap(),
        "--rank",
        "2",
        "--workers",
        "2",
    ]);
    assert_clean_runtime_error(&out, "factorize --input");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn binary_count_disagreeing_with_the_body_is_a_clean_error() {
    let dir = tempdir("binary_count");
    let x = dir.join("x.dbtf");
    let out = dbtf(&[
        "generate",
        "random",
        "--dims",
        "16,16,16",
        "--density",
        "0.1",
        "--output",
        x.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    // Halve the header's entry count: the records past it used to be
    // dropped without a word.
    let mut bytes = std::fs::read(&x).unwrap();
    let count = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
    assert!(count > 1);
    bytes[32..40].copy_from_slice(&(count / 2).to_le_bytes());
    std::fs::write(&x, &bytes).unwrap();
    let input = x.to_str().unwrap();
    assert_clean_runtime_error(&dbtf(&["stats", "--input", input]), "stats");
    let out = dbtf(&[
        "factorize",
        "--input",
        input,
        "--rank",
        "2",
        "--workers",
        "2",
    ]);
    assert_clean_runtime_error(&out, "factorize");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `DBTFFSET` header cannot size anything beyond what the file holds:
/// crafted claims, each with valid checksums, are typed errors that leave
/// no output behind.
#[test]
fn crafted_checkpoint_header_is_a_clean_error() {
    use dbtf_tensor::columnar::fnv_words;
    let dir = tempdir("crafted_checkpoint");
    let ck = dir.join("ck.dbtf");
    let store = dir.join("f.dbtfs");
    let factors = dbtf::FactorSet {
        a: dbtf_tensor::BitMatrix::identity(3),
        b: dbtf_tensor::BitMatrix::identity(3),
        c: dbtf_tensor::BitMatrix::identity(3),
    };
    dbtf::Checkpoint {
        iteration: 1,
        error: 0,
        iteration_errors: vec![0],
        factors,
    }
    .write(&ck)
    .unwrap();
    let good: Vec<u64> = std::fs::read(&ck)
        .unwrap()
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let count_word = good.len() - 2;
    for (what, word, value) in [
        ("2^40 rows", 3, 1u64 << 40),
        ("huge rank", 6, u64::MAX),
        ("history count past the end", count_word, 1 << 40),
    ] {
        let mut words = good.clone();
        words[word] = value;
        words[7] = fnv_words(&words[9..], 0x1000_0000_01b3);
        words[8] = fnv_words(&words[..8], 0x1000_0000_01b3);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(&ck, bytes).unwrap();
        let out = dbtf(&[
            "export-factors",
            "--checkpoint",
            ck.to_str().unwrap(),
            "--output",
            store.to_str().unwrap(),
        ]);
        assert_clean_runtime_error(&out, what);
        assert!(!store.exists() && !store.with_extension("tmp").exists());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The file's bytes pick the tensor format, not its name: a binary tensor
/// named `.bin` and a text tensor named `.dbtf` factorize to the factor
/// files of the correctly named originals.
#[test]
fn misnamed_tensor_files_factorize_by_their_bytes() {
    let dir = tempdir("misnamed");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    for name in ["x.txt", "x.dbtf"] {
        let out = dbtf(&[
            "generate",
            "planted",
            "--dims",
            "14,12,10",
            "--rank",
            "2",
            "--factor-density",
            "0.4",
            "--seed",
            "4",
            "--output",
            &path(name),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::copy(path("x.dbtf"), path("bin.bin")).unwrap();
    std::fs::copy(path("x.txt"), path("txt.dbtf")).unwrap();
    let factorize = |input: &str, prefix: &str| {
        let out = dbtf(&[
            "factorize",
            "--input",
            &path(input),
            "--rank",
            "2",
            "--iters",
            "2",
            "--seed",
            "1",
            "--backend",
            "local",
            "--workers",
            "1",
            "--output",
            &path(prefix),
        ]);
        assert!(
            out.status.success(),
            "{input}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        ["A", "B", "C"].map(|m| std::fs::read(path(&format!("{prefix}.{m}.txt"))).unwrap())
    };
    let text = factorize("x.txt", "text");
    assert_eq!(factorize("txt.dbtf", "text-misnamed"), text);
    let binary = factorize("x.dbtf", "binary");
    assert_eq!(factorize("bin.bin", "binary-misnamed"), binary);
    assert_eq!(binary, text, "both files hold the same tensor");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_out_roundtrips_through_stats() {
    let dir = tempdir("trace");
    let x = dir.join("x.txt");
    assert!(dbtf(&[
        "generate",
        "random",
        "--dims",
        "16,16,16",
        "--density",
        "0.1",
        "--seed",
        "3",
        "--output",
        x.to_str().unwrap(),
    ])
    .status
    .success());

    let trace = dir.join("trace.json");
    let out = dbtf(&[
        "factorize",
        "--input",
        x.to_str().unwrap(),
        "--rank",
        "3",
        "--iters",
        "2",
        "--workers",
        "2",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = dbtf(&["stats", "--trace", trace.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("complete events"), "{text}");
    assert!(text.contains("cp.update.sweep"), "{text}");

    // A non-trace file fails validation with exit 1 (runtime error).
    let out = dbtf(&["stats", "--trace", x.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid trace"));

    // Tucker traces with its default flags, on the distributed driver.
    let (x, trace) = (x.to_str().unwrap(), dir.join("tucker.json"));
    let trace = trace.to_str().unwrap();
    let out = dbtf(&[
        "tucker",
        "--input",
        x,
        "--ranks",
        "2,2,2",
        "--trace-out",
        trace,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = dbtf(&["stats", "--trace", trace]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("complete events"));
    let _ = std::fs::remove_dir_all(&dir);
}
