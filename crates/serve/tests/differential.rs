//! The serving differential suite: a live `dbtf serve` instance must
//! agree bit-for-bit with `crates/oracle`'s cell-by-cell reconstruction
//! on a seeded query sweep — for every factor-store source (checkpoint,
//! binary ram, binary mmap), on the first pass and on replay.

use std::path::PathBuf;
use std::sync::atomic::Ordering;

use dbtf::{random_factor_sets, Checkpoint, DbtfConfig, FactorSet};
use dbtf_oracle::{cp_reconstruct, serving_point, serving_slice, serving_topk};
use dbtf_serve::{
    FactorStore, QueryMix, Request, SeededQueries, ServeClient, ServeHarness, SourceKind,
};
use dbtf_tensor::BoolTensor;

const DIMS: [usize; 3] = [40, 32, 24];
const RANK: usize = 8;
const SWEEP_SEED: u64 = 20260808;
const SWEEP_LEN: usize = 400;

fn factors() -> FactorSet {
    let cfg = DbtfConfig {
        seed: 97,
        ..DbtfConfig::with_rank(RANK)
    };
    random_factor_sets(DIMS, 0.3, &cfg).remove(0)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dbtf-serve-differential");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Replays the seeded sweep through `client`, checking every answer
/// against the oracle; returns how many queries ran.
fn replay_against_oracle(
    client: &mut ServeClient,
    factors: &FactorSet,
    recon: &BoolTensor,
    passes: usize,
) -> usize {
    let mut total = 0;
    for pass in 0..passes {
        let sweep = SeededQueries::new(SWEEP_SEED, DIMS, QueryMix::default_mix());
        for (n, request) in sweep.take(SWEEP_LEN).enumerate() {
            total += 1;
            match request {
                Request::Point { i, j, k } => assert_eq!(
                    client.point(i, j, k).unwrap(),
                    serving_point(recon, i, j, k),
                    "pass {pass} query {n}: point {i},{j},{k}"
                ),
                Request::Slice { free_mode, lo, hi } => assert_eq!(
                    client.slice(free_mode + 1, lo, hi).unwrap(),
                    serving_slice(recon, free_mode, lo, hi),
                    "pass {pass} query {n}: slice free {free_mode} ({lo},{hi})"
                ),
                Request::Topk { mode, entity, k } => assert_eq!(
                    client.topk(mode + 1, entity, k).unwrap(),
                    serving_topk(&factors.a, &factors.b, &factors.c, mode, entity, k),
                    "pass {pass} query {n}: topk mode {mode} entity {entity} k {k}"
                ),
                other => panic!("sweep produced {other:?}"),
            }
        }
    }
    total
}

type StoreOpener<'a> = Box<dyn Fn() -> FactorStore + 'a>;

/// Every store source against the oracle, two passes each so a repeat
/// query must agree with its first answer too.
#[test]
fn seeded_sweep_agrees_with_oracle_across_sources_and_caches() {
    let factors = factors();
    let recon = cp_reconstruct(&factors.a, &factors.b, &factors.c);
    let store_path = tmp("sweep.dbtfs");
    FactorStore::write_store(&store_path, 1, &factors).unwrap();
    let ck_path = tmp("sweep.ckpt");
    Checkpoint {
        iteration: 1,
        error: 0,
        iteration_errors: vec![0],
        factors: factors.clone(),
    }
    .write(&ck_path)
    .unwrap();

    let sources: Vec<(&str, StoreOpener<'_>)> = vec![
        (
            "ram",
            Box::new(|| FactorStore::open(&store_path, SourceKind::Ram).unwrap()),
        ),
        (
            "mmap",
            Box::new(|| FactorStore::open(&store_path, SourceKind::Mmap).unwrap()),
        ),
        (
            "checkpoint",
            Box::new(|| FactorStore::open(&ck_path, SourceKind::Ram).unwrap()),
        ),
    ];
    for (label, open) in &sources {
        let harness = ServeHarness::start(open());
        let mut client = harness.client();
        let ran = replay_against_oracle(&mut client, &factors, &recon, 2);
        assert_eq!(ran, 2 * SWEEP_LEN);
        assert!(harness.shutdown(), "{label}: clean drain");
    }
    std::fs::remove_file(&store_path).unwrap();
    std::fs::remove_file(&ck_path).unwrap();
}

/// Ram and mmap sources serve byte-identical answers — same store file,
/// same sweep, compared reply by reply (not just against the oracle).
#[test]
fn ram_and_mmap_replies_are_identical() {
    let factors = factors();
    let store_path = tmp("pair.dbtfs");
    FactorStore::write_store(&store_path, 3, &factors).unwrap();
    let ram = ServeHarness::start(FactorStore::open(&store_path, SourceKind::Ram).unwrap());
    let mmap = ServeHarness::start(FactorStore::open(&store_path, SourceKind::Mmap).unwrap());
    let (mut c1, mut c2) = (ram.client(), mmap.client());
    assert_eq!(c1.info().unwrap().set_version, 3);
    assert_eq!(c1.info().unwrap().dims, c2.info().unwrap().dims);
    assert_eq!(c1.info().unwrap().source, "ram");
    assert_eq!(c2.info().unwrap().source, "mmap");
    let sweep = SeededQueries::new(99, DIMS, QueryMix::default_mix());
    for request in sweep.take(300) {
        match request {
            Request::Point { i, j, k } => {
                assert_eq!(c1.point(i, j, k).unwrap(), c2.point(i, j, k).unwrap());
            }
            Request::Slice { free_mode, lo, hi } => {
                assert_eq!(
                    c1.slice(free_mode + 1, lo, hi).unwrap(),
                    c2.slice(free_mode + 1, lo, hi).unwrap()
                );
            }
            Request::Topk { mode, entity, k } => {
                assert_eq!(
                    c1.topk(mode + 1, entity, k).unwrap(),
                    c2.topk(mode + 1, entity, k).unwrap()
                );
            }
            other => panic!("sweep produced {other:?}"),
        }
    }
    assert!(ram.shutdown() && mmap.shutdown());
    std::fs::remove_file(&store_path).unwrap();
}

/// Batched queries answer exactly like the same queries sent one per
/// line, in order.
#[test]
fn batches_match_single_requests() {
    let factors = factors();
    let recon = cp_reconstruct(&factors.a, &factors.b, &factors.c);
    let harness = ServeHarness::start(FactorStore::from_factor_set(1, &factors));
    let mut client = harness.client();
    let cells: Vec<(usize, usize, usize)> = SeededQueries::new(5, DIMS, QueryMix::points_only())
        .take(64)
        .map(|q| match q {
            Request::Point { i, j, k } => (i, j, k),
            other => panic!("{other:?}"),
        })
        .collect();
    let bodies: Vec<String> = cells
        .iter()
        .enumerate()
        .map(|(n, (i, j, k))| {
            format!("{{\"id\":{n},\"q\":\"point\",\"i\":{i},\"j\":{j},\"k\":{k}}}")
        })
        .collect();
    let replies = client.batch(&bodies).unwrap();
    assert_eq!(replies.len(), cells.len());
    for (n, ((i, j, k), reply)) in cells.iter().zip(&replies).enumerate() {
        let reply = dbtf_serve::harness::check_reply(reply, Some(n as u64)).unwrap();
        let got = reply.get("value").and_then(|v| v.as_bool()).unwrap();
        assert_eq!(got, serving_point(&recon, *i, *j, *k), "batch element {n}");
    }
    let batches = harness.metrics().batches_total.load(Ordering::Relaxed);
    assert_eq!(batches, 1);
    assert!(harness.shutdown());
}

/// Satellite of the hot-swap tentpole: a server started from a
/// checkpoint, with export-factors-style `DBTFFSET` generations reloaded
/// in while query threads hammer it. Every answer must come entirely
/// from one generation — a slice mixing old and new factors would show
/// up as a fiber matching neither oracle — and `set_version` must track
/// each swap.
#[test]
fn live_reload_serves_whole_generations_under_concurrent_load() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    let fa = factors();
    let cfg_b = DbtfConfig {
        seed: 4242,
        ..DbtfConfig::with_rank(RANK)
    };
    let fb = random_factor_sets(DIMS, 0.3, &cfg_b).remove(0);
    let recon_a = cp_reconstruct(&fa.a, &fa.b, &fa.c);
    let recon_b = cp_reconstruct(&fb.a, &fb.b, &fb.c);
    assert_ne!(recon_a, recon_b, "generations must be distinguishable");

    // Round-trip start: the server boots from a checkpoint, exactly as
    // `dbtf serve` does before any export.
    let ck_path = tmp("reload.ckpt");
    Checkpoint {
        iteration: 1,
        error: 0,
        iteration_errors: vec![0],
        factors: fa.clone(),
    }
    .write(&ck_path)
    .unwrap();
    let harness = ServeHarness::start(FactorStore::open(&ck_path, SourceKind::Ram).unwrap());
    let addr = harness.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..3u64)
        .map(|w| {
            let stop = Arc::clone(&stop);
            let (fa, fb) = (fa.clone(), fb.clone());
            let (recon_a, recon_b) = (recon_a.clone(), recon_b.clone());
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let mut answered = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let sweep = SeededQueries::new(1000 + w, DIMS, QueryMix::default_mix());
                    for request in sweep.take(40) {
                        match request {
                            Request::Point { i, j, k } => {
                                let got = client.point(i, j, k).unwrap();
                                let a = serving_point(&recon_a, i, j, k);
                                let b = serving_point(&recon_b, i, j, k);
                                assert!(got == a || got == b, "point ({i},{j},{k})");
                            }
                            Request::Slice { free_mode, lo, hi } => {
                                let got = client.slice(free_mode + 1, lo, hi).unwrap();
                                let a = serving_slice(&recon_a, free_mode, lo, hi);
                                let b = serving_slice(&recon_b, free_mode, lo, hi);
                                assert!(
                                    got == a || got == b,
                                    "slice free {free_mode} ({lo},{hi}) answered \
                                     {got:?}, which is neither generation \
                                     ({a:?} / {b:?}) — a cross-generation mix"
                                );
                            }
                            Request::Topk { mode, entity, k } => {
                                let got = client.topk(mode + 1, entity, k).unwrap();
                                let a = serving_topk(&fa.a, &fa.b, &fa.c, mode, entity, k);
                                let b = serving_topk(&fb.a, &fb.b, &fb.c, mode, entity, k);
                                assert!(got == a || got == b, "topk {mode}/{entity}/{k}");
                            }
                            other => panic!("sweep produced {other:?}"),
                        }
                        answered += 1;
                    }
                }
                answered
            })
        })
        .collect();

    // Flip generations while the workers run: export-factors writes a
    // new DBTFFSET (version ascending), reload hot-swaps it, alternating
    // ram and mmap sources.
    let store_path = tmp("reload.dbtfs");
    let mut admin = harness.client();
    let mut last_generation = 0;
    for round in 0..6u64 {
        let (set, source) = if round % 2 == 0 {
            (&fb, "mmap")
        } else {
            (&fa, "ram")
        };
        FactorStore::write_store(&store_path, round + 2, set).unwrap();
        let (set_version, generation) = admin
            .reload(store_path.to_str().unwrap(), Some(source))
            .unwrap();
        assert_eq!(set_version, round + 2, "reload reports the new version");
        assert_eq!(generation, last_generation + 1, "generations are monotone");
        last_generation = generation;
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::SeqCst);
    let answered: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(answered > 0, "workers actually queried during the swaps");

    // Final round installed `fa` (round 5 is odd): a fresh full sweep
    // must now agree with that generation exactly, and info must report
    // its version and source.
    let info = admin.info().unwrap();
    assert_eq!(info.set_version, 7);
    assert_eq!(info.source, "ram");
    let mut client = harness.client();
    replay_against_oracle(&mut client, &fa, &recon_a, 1);
    let m = harness.metrics();
    assert_eq!(m.reload_requests.load(Ordering::Relaxed), 6);
    assert_eq!(m.reload_errors.load(Ordering::Relaxed), 0);
    assert!(harness.shutdown());
    std::fs::remove_file(&ck_path).unwrap();
    std::fs::remove_file(&store_path).unwrap();
}

/// Satellite: equal-weight topk columns must come back in ascending
/// column order — and stay that way across a hot swap that moves the
/// ones around without changing the weights, so clients comparing
/// pre/post-reload rankings never see equal-score results reorder.
#[test]
fn topk_equal_weight_ties_stay_column_ascending_across_generations() {
    use dbtf_tensor::BitMatrix;

    // Rank 4, entity 0 of mode 1 has every column set. Column weights
    // (popcount(B col) × popcount(C col)): col 0 → 9, cols 1 and 2 → 4
    // (the tie), col 3 → 0.
    let mut a = BitMatrix::zeros(3, 4);
    for r in 0..4 {
        a.set(0, r, true);
    }
    let build = |b_rows: [&[usize]; 4], c_rows: [&[usize]; 4]| {
        let mut b = BitMatrix::zeros(5, 4);
        let mut c = BitMatrix::zeros(5, 4);
        for (col, rows) in b_rows.iter().enumerate() {
            for &row in *rows {
                b.set(row, col, true);
            }
        }
        for (col, rows) in c_rows.iter().enumerate() {
            for &row in *rows {
                c.set(row, col, true);
            }
        }
        FactorSet { a: a.clone(), b, c }
    };
    let fa = build(
        [&[0, 1, 2], &[0, 1], &[2, 3], &[]],
        [&[0, 1, 2], &[0, 1], &[2, 3], &[]],
    );
    // Same weights, different rows: the tie (cols 1 and 2 at weight 4)
    // survives the swap with its members' contents changed.
    let fb = build(
        [&[2, 3, 4], &[3, 4], &[0, 1], &[]],
        [&[2, 3, 4], &[3, 4], &[0, 1], &[]],
    );
    let expect = vec![(0usize, 9u64), (1, 4), (2, 4), (3, 0)];
    assert_eq!(
        serving_topk(&fa.a, &fa.b, &fa.c, 0, 0, 4),
        expect,
        "oracle tie rule: weight desc, then column asc"
    );
    assert_eq!(serving_topk(&fb.a, &fb.b, &fb.c, 0, 0, 4), expect);

    let harness = ServeHarness::start(FactorStore::from_factor_set(1, &fa));
    let mut client = harness.client();
    assert_eq!(client.topk(1, 0, 4).unwrap(), expect);
    let store_path = tmp("ties.dbtfs");
    FactorStore::write_store(&store_path, 2, &fb).unwrap();
    client.reload(store_path.to_str().unwrap(), None).unwrap();
    assert_eq!(
        client.topk(1, 0, 4).unwrap(),
        expect,
        "equal-weight order is stable across the swap"
    );
    assert!(harness.shutdown());
    std::fs::remove_file(&store_path).unwrap();
}

/// The store's iteration-as-version contract survives the wire: serving
/// a checkpoint reports the checkpoint's iteration as `set_version`.
#[test]
fn checkpoint_version_surfaces_in_info() {
    let factors = factors();
    let ck_path = tmp("version.ckpt");
    Checkpoint {
        iteration: 2,
        error: 7,
        iteration_errors: vec![11, 7],
        factors,
    }
    .write(&ck_path)
    .unwrap();
    let harness = ServeHarness::start(FactorStore::open(&ck_path, SourceKind::Ram).unwrap());
    let info = harness.client().info().unwrap();
    assert_eq!(info.set_version, 2);
    assert_eq!(info.dims, DIMS);
    assert_eq!(info.rank, RANK);
    assert!(harness.shutdown());
    std::fs::remove_file(&ck_path).unwrap();
}
