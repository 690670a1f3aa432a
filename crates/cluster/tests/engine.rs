//! Engine integration tests: distribution, superstep execution, virtual
//! time, deterministic panic reporting, and fault injection/recovery —
//! exercised through the crate's public API (moved out of
//! `src/engine.rs` when the engine was split into focused modules).

use std::sync::Arc;

use dbtf_cluster::{Cluster, ClusterConfig, DistVec, ExecutionBackend, FaultPlan, NetworkModel};

fn small_cluster(workers: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        workers,
        cores_per_worker: 2,
        core_throughput_ops_per_sec: 1e6,
        network: NetworkModel {
            latency_secs: 1e-3,
            bandwidth_bytes_per_sec: 1e6,
        },
        ..ClusterConfig::default()
    })
}

/// Distributes `parts` with a driver-kept replica as their lineage.
fn distribute<P: Clone + Send + Sync + 'static>(
    cluster: &Cluster,
    parts: Vec<(P, u64)>,
) -> DistVec<P> {
    let replica: Arc<Vec<P>> = Arc::new(parts.iter().map(|(p, _)| p.clone()).collect());
    cluster.distribute_with_lineage(parts, move |idx| replica[idx].clone())
}

/// Reads every partition back to the driver with one superstep.
fn read<P: Clone + Send + 'static>(cluster: &Cluster, data: &DistVec<P>) -> Vec<P> {
    cluster.map_partitions(data, |_idx, part: &mut P, _ctx| part.clone())
}

#[test]
fn round_robin_placement() {
    let cluster = small_cluster(3);
    let data = distribute(&cluster, (0..7u32).map(|v| (v, 4)).collect());
    assert_eq!(data.num_partitions(), 7);
    for idx in 0..7 {
        assert_eq!(data.worker_of(idx), idx % 3);
    }
    assert_eq!(data.total_bytes(), 28);
}

#[test]
fn map_partitions_returns_in_order() {
    let cluster = small_cluster(4);
    let data = distribute(&cluster, (0..10u64).map(|v| (v, 8)).collect());
    let doubled: Vec<u64> = cluster.map_partitions(&data, |_idx, v, ctx| {
        ctx.charge(1);
        *v * 2
    });
    assert_eq!(doubled, (0..10u64).map(|v| v * 2).collect::<Vec<_>>());
}

#[test]
fn partitions_are_cached_and_mutable() {
    let cluster = small_cluster(2);
    let data = distribute(&cluster, vec![(0u32, 4), (0u32, 4), (0u32, 4)]);
    for _ in 0..3 {
        cluster.map_partitions(&data, |_idx, v, _ctx| {
            *v += 1;
        });
    }
    let values = read(&cluster, &data);
    assert_eq!(values, vec![3, 3, 3]);
}

#[test]
fn shuffle_and_store_metering() {
    let cluster = small_cluster(2);
    let before = cluster.metrics();
    assert_eq!(before.bytes_shuffled, 0);
    let data = distribute(&cluster, vec![(1u8, 100), (2u8, 200), (3u8, 300)]);
    let m = cluster.metrics();
    assert_eq!(m.bytes_shuffled, 600);
    assert_eq!(m.stored_bytes, 600);
    drop(data);
    // Eviction is asynchronous at the worker but the accounting is
    // synchronous at the driver.
    assert_eq!(cluster.metrics().stored_bytes, 0);
}

#[test]
fn broadcast_metering_scales_with_workers() {
    let cluster = small_cluster(4);
    let b = cluster.broadcast(vec![1u8; 100], 100);
    assert_eq!(b.get().len(), 100);
    assert_eq!(cluster.metrics().bytes_broadcast, 400);
}

#[test]
fn broadcast_costing_matches_network_model() {
    // Regression: broadcast must price through NetworkModel::transfer_secs
    // (one helper for every transfer) rather than a hand-rolled formula
    // that could drift if the network model changes.
    let net = NetworkModel {
        latency_secs: 0.5,
        bandwidth_bytes_per_sec: 100.0,
    };
    let cluster = Cluster::new(ClusterConfig {
        workers: 3,
        cores_per_worker: 1,
        network: net,
        ..ClusterConfig::default()
    });
    let t0 = cluster.virtual_time().as_secs_f64();
    cluster.broadcast(0u8, 200);
    let elapsed = cluster.virtual_time().as_secs_f64() - t0;
    assert_eq!(elapsed, net.transfer_secs(200 * 3));
    // Zero-byte broadcasts stay free.
    let t1 = cluster.virtual_time().as_secs_f64();
    cluster.broadcast(0u8, 0);
    assert_eq!(cluster.virtual_time().as_secs_f64(), t1);
}

#[test]
fn broadcast_visible_in_tasks() {
    let cluster = small_cluster(2);
    let b = cluster.broadcast(10u64, 8);
    let data = distribute(&cluster, (0..4u64).map(|v| (v, 8)).collect());
    let shifted: Vec<u64> = {
        let b = b.clone();
        cluster.map_partitions(&data, move |_idx, v, _ctx| *v + *b.get())
    };
    assert_eq!(shifted, vec![10, 11, 12, 13]);
}

#[test]
fn virtual_clock_advances_with_charges() {
    let cluster = small_cluster(1);
    let data = distribute(&cluster, vec![((), 0), ((), 0)]);
    let t0 = cluster.virtual_time().as_secs_f64();
    cluster.map_partitions(&data, |_idx, _v: &mut (), ctx| ctx.charge(2_000_000));
    let t1 = cluster.virtual_time().as_secs_f64();
    // 4M ops on one 2-core × 1M ops/s worker = 2 virtual seconds.
    assert!((t1 - t0 - 2.0).abs() < 1e-9, "elapsed {}", t1 - t0);
}

#[test]
fn makespan_is_max_over_workers() {
    // Two workers, one heavily loaded: clock advances by the slow one.
    let cluster = small_cluster(2);
    let data = distribute(&cluster, vec![(10u64, 0), (1u64, 0)]);
    let t0 = cluster.virtual_time().as_secs_f64();
    cluster.map_partitions(&data, |_idx, v, ctx| ctx.charge(*v * 1_000_000));
    let elapsed = cluster.virtual_time().as_secs_f64() - t0;
    // Worker 0 runs the 10M-op task on 2 cores but a single task
    // occupies one core: 10 s; worker 1: 1 s.
    assert!((elapsed - 10.0).abs() < 1e-9, "elapsed {elapsed}");
}

#[test]
fn more_workers_reduce_virtual_time() {
    let run = |workers: usize| {
        let cluster = small_cluster(workers);
        let data = distribute(&cluster, (0..16u64).map(|_| (1u64, 0)).collect());
        let t0 = cluster.virtual_time().as_secs_f64();
        cluster.map_partitions(&data, |_idx, _v, ctx| ctx.charge(1_000_000));
        cluster.virtual_time().as_secs_f64() - t0
    };
    let t2 = run(2);
    let t8 = run(8);
    assert!(
        t8 < t2 / 2.0,
        "8 workers ({t8}s) should be well over 2× faster than 2 ({t2}s)"
    );
}

#[test]
fn collect_bytes_metered() {
    let cluster = small_cluster(2);
    let data = distribute(&cluster, vec![(0u8, 1), (0u8, 1)]);
    cluster.map_partitions(&data, |_idx, _v, ctx| {
        ctx.set_result_bytes(50);
    });
    assert_eq!(cluster.metrics().bytes_collected, 100);
}

#[test]
fn charge_driver_advances_clock() {
    let cluster = small_cluster(1);
    let t0 = cluster.virtual_time().as_secs_f64();
    cluster.charge_driver(1_000_000);
    assert!((cluster.virtual_time().as_secs_f64() - t0 - 1.0).abs() < 1e-9);
}

#[test]
fn worker_busy_time_tracks_imbalance() {
    let cluster = small_cluster(2);
    let data = distribute(&cluster, vec![(4u64, 0), (1u64, 0)]);
    cluster.map_partitions(&data, |_idx, v, ctx| ctx.charge(*v * 1_000_000));
    let busy = cluster.metrics().worker_busy_secs;
    assert!(busy[0] > busy[1]);
}

#[test]
fn empty_dataset() {
    let cluster = small_cluster(3);
    let data: DistVec<u32> = distribute(&cluster, Vec::new());
    let out: Vec<u32> = cluster.map_partitions(&data, |_idx, v, _ctx| *v);
    assert!(out.is_empty());
}

#[test]
fn many_supersteps_counted() {
    let cluster = small_cluster(2);
    let data = distribute(&cluster, vec![(0u8, 1)]);
    for _ in 0..5 {
        cluster.map_partitions(&data, |_idx, _v, _ctx| {});
    }
    assert_eq!(cluster.metrics().supersteps, 5);
}

#[test]
fn task_panic_surfaces_cleanly_and_worker_survives() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 2,
        cores_per_worker: 4,
        core_throughput_ops_per_sec: 1e6,
        network: NetworkModel::free(),
        ..ClusterConfig::default()
    });
    let data = distribute(&cluster, (0..8u32).map(|v| (v, 4)).collect());
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _: Vec<u32> = cluster.map_partitions(&data, |idx, v, _ctx| {
            if idx == 3 {
                panic!("boom in partition {idx}");
            }
            *v
        });
    }))
    .expect_err("superstep with a panicking task must fail");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("clean String panic message");
    assert!(msg.contains("partition 3"), "message was: {msg}");
    assert!(msg.contains("boom in partition 3"), "message was: {msg}");
    assert!(msg.contains("worker 1"), "message was: {msg}");
    // The worker threads caught the panic and must still serve
    // supersteps (no hang, no "worker hung up").
    let out: Vec<u32> = cluster.map_partitions(&data, |_idx, v, _ctx| *v);
    assert_eq!(out, (0..8u32).collect::<Vec<_>>());
}

#[test]
fn task_panic_surfaces_with_a_single_worker() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 1,
        cores_per_worker: 2,
        core_throughput_ops_per_sec: 1e6,
        ..ClusterConfig::default()
    });
    let data = distribute(&cluster, vec![(0u8, 1), (1u8, 1)]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cluster.map_partitions(&data, |idx, _v, _ctx| {
            assert!(idx != 1, "failing task");
        });
    }))
    .expect_err("must propagate");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("partition 1"), "message was: {msg}");
    cluster.map_partitions(&data, |_idx, _v, _ctx| {});
}

#[test]
fn non_string_panic_payload_surfaces_cleanly() {
    // panic_any with a non-string payload must still produce a clean
    // per-partition error (no propagation of the opaque payload).
    let cluster = Cluster::new(ClusterConfig {
        workers: 2,
        cores_per_worker: 2,
        network: NetworkModel::free(),
        ..ClusterConfig::default()
    });
    let data = distribute(&cluster, (0..6u32).map(|v| (v, 4)).collect());
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _: Vec<u32> = cluster.map_partitions(&data, |idx, v, _ctx| {
            if idx == 2 {
                std::panic::panic_any(42usize);
            }
            if idx == 5 {
                std::panic::panic_any(vec![1u8, 2, 3]);
            }
            *v
        });
    }))
    .expect_err("superstep must fail");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("clean String panic message");
    assert!(
        msg.contains("partition 2 on worker 0: non-string panic payload"),
        "message was: {msg}"
    );
    assert!(
        msg.contains("partition 5 on worker 1: non-string panic payload"),
        "message was: {msg}"
    );
    // Deterministic ordering: partition 2 reported before partition 5.
    assert!(
        msg.find("partition 2").unwrap() < msg.find("partition 5").unwrap(),
        "panics must be sorted by partition index: {msg}"
    );
    // Workers survive the non-string panic.
    let out: Vec<u32> = cluster.map_partitions(&data, |_idx, v, _ctx| *v);
    assert_eq!(out, (0..6u32).collect::<Vec<_>>());
}

#[test]
fn mixed_panic_kinds_keep_deterministic_order() {
    let run = || {
        let cluster = Cluster::new(ClusterConfig {
            workers: 3,
            cores_per_worker: 4,
            network: NetworkModel::free(),
            ..ClusterConfig::default()
        });
        let data = distribute(&cluster, (0..9u32).map(|v| (v, 4)).collect());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Vec<u32> = cluster.map_partitions(&data, |idx, v, _ctx| {
                match idx {
                    1 => panic!("string panic"),
                    4 => std::panic::panic_any(7i32),
                    7 => panic!("{}", format!("formatted {idx}")),
                    _ => {}
                }
                *v
            });
        }))
        .expect_err("superstep must fail");
        err.downcast_ref::<String>().cloned().unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "panic report must be deterministic");
    assert!(a.contains("3 task(s) panicked"), "message was: {a}");
    let p1 = a.find("partition 1").unwrap();
    let p4 = a.find("partition 4").unwrap();
    let p7 = a.find("partition 7").unwrap();
    assert!(p1 < p4 && p4 < p7, "message was: {a}");
}

#[test]
#[should_panic(expected = "different cluster")]
fn cross_cluster_dataset_rejected() {
    let a = small_cluster(1);
    let b = small_cluster(1);
    let data = distribute(&a, vec![(1u8, 1)]);
    let _: Vec<u8> = b.map_partitions(&data, |_idx, v, _ctx| *v);
}

#[test]
fn stored_partition_count_tracks_eviction() {
    let cluster = small_cluster(2);
    let data = distribute(&cluster, (0..5u32).map(|v| (v, 4)).collect());
    let id = data.id();
    assert_eq!(cluster.stored_partition_count(&data), 5);
    drop(data);
    // DropDataset is queued on each worker's channel ahead of the Count
    // probe, so the eviction is observed deterministically.
    assert_eq!(cluster.stored_partition_count_by_id(id), 0);
}

// ---- fault injection & recovery -----------------------------------

#[test]
fn transient_failures_retry_to_identical_results() {
    let run = |plan: Option<FaultPlan>| {
        let cluster = Cluster::new(ClusterConfig {
            workers: 2,
            cores_per_worker: 2,
            core_throughput_ops_per_sec: 1e6,
            network: NetworkModel::free(),
            fault_plan: plan,
        });
        let data = distribute(&cluster, (0..12u64).map(|v| (v, 8)).collect());
        let mut outs = Vec::new();
        for _ in 0..4 {
            outs.push(cluster.map_partitions(&data, |idx, v, ctx| {
                ctx.charge((idx as u64 + 1) * 1000);
                *v = v.wrapping_mul(7).wrapping_add(1);
                *v
            }));
        }
        (outs, read(&cluster, &data), cluster.metrics())
    };
    let (clean_out, clean_gather, clean_m) = run(None);
    let plan = FaultPlan {
        task_failure_rate: 0.3,
        max_task_attempts: 32,
        ..FaultPlan::with_seed(11)
    };
    let (faulty_out, faulty_gather, faulty_m) = run(Some(plan));
    assert_eq!(clean_out, faulty_out);
    assert_eq!(clean_gather, faulty_gather);
    assert_eq!(clean_m.total_ops, faulty_m.total_ops, "ops must not drift");
    assert_eq!(clean_m.tasks_run, faulty_m.tasks_run);
    assert!(faulty_m.task_retries > 0, "30% rate must hit something");
    assert!(
        faulty_m.virtual_time > clean_m.virtual_time,
        "retry backoff must cost virtual time"
    );
    assert!(faulty_m.recovery_time.as_secs_f64() > 0.0);
    assert_eq!(clean_m.task_retries, 0);
}

#[test]
fn exhausted_attempts_surface_like_a_panic() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 1,
        cores_per_worker: 1,
        network: NetworkModel::free(),
        fault_plan: Some(FaultPlan {
            task_failure_rate: 1.0, // every launch fails
            max_task_attempts: 3,
            ..FaultPlan::with_seed(0)
        }),
        ..ClusterConfig::default()
    });
    let data = distribute(&cluster, vec![(1u8, 1)]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _: Vec<u8> = cluster.map_partitions(&data, |_idx, v, _ctx| *v);
    }))
    .expect_err("all attempts fail");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("exhausted 3 launch attempts"), "was: {msg}");
    assert!(msg.contains("partition 0"), "was: {msg}");
}

#[test]
fn worker_crash_recovers_from_lineage() {
    let run = |plan: Option<FaultPlan>| {
        let cluster = Cluster::new(ClusterConfig {
            workers: 2,
            cores_per_worker: 2,
            core_throughput_ops_per_sec: 1e6,
            network: NetworkModel {
                latency_secs: 1e-3,
                bandwidth_bytes_per_sec: 1e6,
            },
            fault_plan: plan,
        });
        let data = distribute(&cluster, (0..6u64).map(|v| (v, 8)).collect());
        for _ in 0..4 {
            cluster.map_partitions(&data, |_idx, v, ctx| {
                ctx.charge(1000);
                *v += 1;
            });
        }
        (read(&cluster, &data), cluster.metrics())
    };
    let (clean, clean_m) = run(None);
    let plan = FaultPlan {
        worker_crashes: vec![(2, 0)], // kill worker 0 before superstep 2
        ..FaultPlan::with_seed(5)
    };
    let (recovered, faulty_m) = run(Some(plan));
    assert_eq!(clean, recovered, "lineage replay must restore state");
    assert_eq!(clean, vec![4, 5, 6, 7, 8, 9]);
    assert_eq!(faulty_m.worker_respawns, 1);
    // Worker 0 held partitions 0, 2, 4.
    assert_eq!(faulty_m.partitions_recomputed, 3);
    assert!(faulty_m.bytes_reshipped >= 24, "3 partitions × 8 bytes");
    // Two mutation supersteps were replayed on 3 partitions.
    assert_eq!(faulty_m.recovery_ops, 2 * 3 * 1000);
    assert_eq!(
        clean_m.total_ops, faulty_m.total_ops,
        "replay ops must not pollute total_ops"
    );
    assert!(faulty_m.virtual_time > clean_m.virtual_time);
    assert!(faulty_m.recovery_time.as_secs_f64() > 0.0);
    assert_eq!(clean_m.worker_respawns, 0);
}

#[test]
fn reset_lineage_bounds_replay() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 2,
        cores_per_worker: 1,
        core_throughput_ops_per_sec: 1e6,
        network: NetworkModel::free(),
        fault_plan: Some(FaultPlan {
            worker_crashes: vec![(3, 0)],
            ..FaultPlan::with_seed(0)
        }),
    });
    let data = distribute(&cluster, (0..4u64).map(|v| (v, 8)).collect());
    // Two read-only supersteps, then truncate the log: current state is
    // still exactly what the replica rebuilds.
    for _ in 0..2 {
        let _: Vec<u64> = cluster.map_partitions(&data, |_idx, v, ctx| {
            ctx.charge(1000);
            *v
        });
    }
    cluster.reset_lineage(&data);
    // One more read-only superstep post-reset, then the crash fires at
    // superstep 3: only the post-reset task is replayed.
    let _: Vec<u64> = cluster.map_partitions(&data, |_idx, v, ctx| {
        ctx.charge(1000);
        *v
    });
    let out: Vec<u64> = cluster.map_partitions(&data, |_idx, v, _ctx| *v);
    assert_eq!(out, vec![0, 1, 2, 3]);
    let m = cluster.metrics();
    assert_eq!(m.worker_respawns, 1);
    // Worker 0 held 2 partitions; replaying 2 supersteps would charge
    // 4000 recovery ops, the truncated log charges 2000.
    assert_eq!(m.recovery_ops, 2 * 1000);
}

#[test]
fn slow_tasks_stretch_makespan_and_speculation_recovers() {
    let run = |slow: bool, speculation: bool| {
        let plan = slow.then(|| FaultPlan {
            slow_task_rate: 1.0, // every task hangs…
            slow_task_factor: 8.0,
            speculation,
            ..FaultPlan::with_seed(1)
        });
        let cluster = Cluster::new(ClusterConfig {
            workers: 4,
            cores_per_worker: 1,
            core_throughput_ops_per_sec: 1e6,
            network: NetworkModel::free(),
            fault_plan: plan,
        });
        let data = distribute(&cluster, (0..4u64).map(|v| (v, 8)).collect());
        let out: Vec<u64> = cluster.map_partitions(&data, |_idx, v, ctx| {
            ctx.charge(1_000_000);
            *v
        });
        (out, cluster.metrics())
    };
    let (base_out, base_m) = run(false, false);
    let (nospec_out, nospec_m) = run(true, false);
    let (spec_out, spec_m) = run(true, true);
    assert_eq!(base_out, nospec_out);
    assert_eq!(base_out, spec_out);
    let t_base = base_m.virtual_time.as_secs_f64();
    let t_nospec = nospec_m.virtual_time.as_secs_f64();
    let t_spec = spec_m.virtual_time.as_secs_f64();
    // 8× slowdown on every task with no mitigation: 8 s makespan.
    assert!(t_nospec > 7.9, "unmitigated stragglers: {t_nospec}");
    // Speculation restarts the task at 1.5 s on an idle worker: ~2.5 s.
    assert!(
        t_spec < t_nospec / 2.0,
        "speculation must beat unmitigated hangs ({t_spec} vs {t_nospec})"
    );
    assert!(t_spec > t_base, "speculation still costs overhead");
    assert_eq!(spec_m.speculative_tasks, 4);
    assert_eq!(spec_m.speculative_wins, 4);
    assert_eq!(nospec_m.speculative_tasks, 0);
    assert!(spec_m.bytes_reshipped > 0);
    assert_eq!(base_m.total_ops, spec_m.total_ops);
    assert!(spec_m.recovery_time.as_secs_f64() > 0.0);
}

#[test]
fn crash_entries_fire_at_most_once() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 2,
        cores_per_worker: 1,
        network: NetworkModel::free(),
        fault_plan: Some(FaultPlan {
            // Duplicate entries for the same (superstep, worker).
            worker_crashes: vec![(1, 0), (1, 0), (1, 1)],
            ..FaultPlan::with_seed(0)
        }),
        ..ClusterConfig::default()
    });
    let data = distribute(&cluster, (0..4u64).map(|v| (v, 8)).collect());
    for _ in 0..3 {
        cluster.map_partitions(&data, |_idx, v, _ctx| {
            *v += 1;
        });
    }
    assert_eq!(read(&cluster, &data), vec![3, 4, 5, 6]);
    assert_eq!(cluster.metrics().worker_respawns, 2);
}

#[test]
fn distribute_with_lineage_rebuild_closure_is_used() {
    let cluster = Cluster::new(ClusterConfig {
        workers: 2,
        cores_per_worker: 1,
        network: NetworkModel::free(),
        fault_plan: Some(FaultPlan {
            worker_crashes: vec![(1, 1)],
            ..FaultPlan::with_seed(0)
        }),
        ..ClusterConfig::default()
    });
    // Rebuild computes the payload from the index (no replica kept).
    let data =
        cluster.distribute_with_lineage((0..6usize).map(|i| (i * 10, 8)).collect(), |idx| idx * 10);
    cluster.map_partitions(&data, |_idx, v: &mut usize, _ctx| {
        *v += 1;
    });
    cluster.map_partitions(&data, |_idx, v: &mut usize, _ctx| {
        *v += 1;
    });
    assert_eq!(read(&cluster, &data), vec![2, 12, 22, 32, 42, 52]);
    let m = cluster.metrics();
    assert_eq!(m.worker_respawns, 1);
    assert_eq!(m.partitions_recomputed, 3);
}

#[test]
fn try_new_reports_invalid_configs_as_typed_errors() {
    use dbtf_cluster::ClusterError;
    let no_workers = Cluster::try_new(ClusterConfig {
        workers: 0,
        ..ClusterConfig::default()
    });
    match no_workers {
        Err(ClusterError::InvalidConfig(msg)) => {
            assert_eq!(msg, "a cluster needs at least one worker");
        }
        Err(other) => panic!("expected InvalidConfig, got {other}"),
        Ok(_) => panic!("expected InvalidConfig, got a cluster"),
    }
    let no_cores = Cluster::try_new(ClusterConfig {
        workers: 2,
        cores_per_worker: 0,
        ..ClusterConfig::default()
    });
    match no_cores {
        Err(ClusterError::InvalidConfig(msg)) => {
            assert_eq!(msg, "workers need at least one core");
        }
        Err(other) => panic!("expected InvalidConfig, got {other}"),
        Ok(_) => panic!("expected InvalidConfig, got a cluster"),
    }
    // The Display impl renders spawn failures with worker context.
    let spawn = ClusterError::WorkerSpawn {
        worker: 3,
        source: std::io::Error::other("no threads left"),
    };
    assert_eq!(
        spawn.to_string(),
        "failed to spawn threads for worker 3: no threads left"
    );
    assert!(std::error::Error::source(&spawn).is_some());
}
