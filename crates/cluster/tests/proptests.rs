//! Property-based tests for the cluster engine: the virtual-time model
//! and the metering must follow their closed forms for arbitrary task
//! charges and cluster shapes.

use std::sync::Arc;

use dbtf_cluster::{Cluster, ClusterConfig, DistVec, ExecutionBackend, NetworkModel};
use proptest::prelude::*;

/// Distributes `parts` with a driver-kept replica as their lineage.
fn distribute<P: Clone + Send + Sync + 'static>(
    cluster: &Cluster,
    parts: Vec<(P, u64)>,
) -> DistVec<P> {
    let replica: Arc<Vec<P>> = Arc::new(parts.iter().map(|(p, _)| p.clone()).collect());
    cluster
        .distribute_with_lineage(parts, move |idx| replica[idx].clone())
        .unwrap()
}

fn free_net_config(workers: usize, cores: usize) -> ClusterConfig {
    ClusterConfig {
        workers,
        cores_per_worker: cores,
        core_throughput_ops_per_sec: 1e6,
        network: NetworkModel::free(),
        ..ClusterConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A superstep's virtual time equals the analytic makespan:
    /// max over workers of max(total_ops / (cores·thr), max_task / thr).
    #[test]
    fn makespan_matches_closed_form(
        workers in 1usize..5,
        cores in 1usize..4,
        charges in proptest::collection::vec(0u64..5_000_000, 1..20),
    ) {
        let cfg = free_net_config(workers, cores);
        let cluster = Cluster::new(cfg);
        let parts: Vec<(u64, u64)> = charges.iter().map(|&c| (c, 0)).collect();
        let data = distribute(&cluster, parts);
        let t0 = cluster.virtual_time().as_secs_f64();
        cluster.map_partitions(&data, |_idx, ops, ctx| ctx.charge(*ops)).unwrap();
        let elapsed = cluster.virtual_time().as_secs_f64() - t0;

        // Recompute the expected makespan (round-robin placement).
        let thr = 1e6;
        let mut expect = 0.0f64;
        for w in 0..workers {
            let mine: Vec<u64> = charges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % workers == w)
                .map(|(_, &c)| c)
                .collect();
            let total: u64 = mine.iter().sum();
            let biggest = mine.iter().max().copied().unwrap_or(0);
            let time = (total as f64 / (cores as f64 * thr)).max(biggest as f64 / thr);
            expect = expect.max(time);
        }
        prop_assert!((elapsed - expect).abs() < 1e-9, "elapsed {elapsed}, expect {expect}");
    }

    /// Results always come back in partition order, whatever the worker
    /// count, and mutation persists across supersteps.
    #[test]
    fn partition_order_and_persistence(
        workers in 1usize..6,
        n in 1usize..30,
        rounds in 1usize..4,
    ) {
        let cluster = Cluster::new(free_net_config(workers, 1));
        let data = distribute(&cluster, (0..n as u64).map(|v| (v, 8)).collect());
        for _ in 0..rounds {
            cluster.map_partitions(&data, |_idx, v, _ctx| {
                *v += 1000;
            }).unwrap();
        }
        let values: Vec<u64> = cluster.map_partitions(&data, |_idx, v, _ctx| *v).unwrap();
        let expect: Vec<u64> = (0..n as u64).map(|v| v + 1000 * rounds as u64).collect();
        prop_assert_eq!(values, expect);
    }

    /// Metering identities: shuffled bytes = Σ partition bytes; broadcast
    /// bytes = workers × payload; collected bytes = Σ declared results.
    #[test]
    fn metering_identities(
        workers in 1usize..5,
        part_bytes in proptest::collection::vec(0u64..10_000, 1..12),
        bcast in 0u64..100_000,
        result_bytes in 0u64..5_000,
    ) {
        let cluster = Cluster::new(free_net_config(workers, 2));
        let total: u64 = part_bytes.iter().sum();
        let n = part_bytes.len() as u64;
        let data = distribute(&cluster, part_bytes.into_iter().map(|b| (b, b)).collect());
        prop_assert_eq!(cluster.metrics().bytes_shuffled, total);
        prop_assert_eq!(cluster.metrics().stored_bytes, total);

        let _b = cluster.broadcast((), bcast).unwrap();
        prop_assert_eq!(cluster.metrics().bytes_broadcast, bcast * workers as u64);

        cluster.map_partitions(&data, move |_idx, _v, ctx| {
            ctx.set_result_bytes(result_bytes);
        }).unwrap();
        prop_assert_eq!(cluster.metrics().bytes_collected, result_bytes * n);

        drop(data);
        prop_assert_eq!(cluster.metrics().stored_bytes, 0);
    }

    /// Virtual time is additive across supersteps and never decreases.
    #[test]
    fn clock_is_monotone(
        workers in 1usize..4,
        steps in proptest::collection::vec(0u64..1_000_000, 1..8),
    ) {
        let cluster = Cluster::new(free_net_config(workers, 1));
        let data = distribute(&cluster, vec![(0u8, 0)]);
        let mut last = cluster.virtual_time().as_secs_f64();
        for ops in steps {
            cluster.map_partitions(&data, move |_idx, _v, ctx| ctx.charge(ops)).unwrap();
            let now = cluster.virtual_time().as_secs_f64();
            prop_assert!(now >= last);
            last = now;
        }
    }
}
