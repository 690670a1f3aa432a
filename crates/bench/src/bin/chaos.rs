//! Chaos sweep: fault-recovery overhead across fault rates × worker
//! counts.
//!
//! For each (workers, fault-rate) cell the same workload runs fault-free
//! and under a fault plan that combines a worker crash, transient task
//! failures at the given rate, and slow tasks. The run **asserts** the
//! engine's headline invariant — bit-identical factors, error, and op
//! counts — and reports the recovery overhead (virtual-time stretch) plus
//! the recovery counters.
//!
//! With `--net`, the faulty runs execute on the **networked backend**
//! (TCP workers, thread-hosted) under a process-kill plan at the given
//! rate instead of transient faults; each cell additionally asserts that
//! the payload bytes measured on the wire equal the Lemma 6/7 meters,
//! and the JSON report gains the wire counters.
//!
//! Output is an ASCII table on stdout and, with `--json FILE`, a
//! hand-written JSON report for tooling (no external serializer needed).
//!
//! ```text
//! cargo run --release -p dbtf-bench --bin chaos -- [--exp 9] [--rank 8]
//!     [--density 0.02] [--seed 0] [--json chaos.json] [--net]
//! ```

use std::fmt::Write as _;

use dbtf::{factorize, net_tasks, DbtfConfig, DbtfResult};
use dbtf_bench::{print_header, print_row, Args};
use dbtf_cluster::{
    Cluster, ClusterConfig, ExecutionBackend, FaultPlan, MetricsSnapshot, NetTuning, WorkerHost,
};
use dbtf_datagen::uniform_random;
use dbtf_oracle::check_wire_meters;
use dbtf_tensor::BoolTensor;

struct Cell {
    workers: usize,
    rate: f64,
    clean_secs: f64,
    faulty_secs: f64,
    recovery_secs: f64,
    respawns: u64,
    retries: u64,
    recomputed: u64,
    reshipped: u64,
    speculative: u64,
    /// Wire counters of the faulty run — zero in the simulated sweep.
    wire_sent: u64,
    wire_received: u64,
    wire_overhead: u64,
    wire_reship: u64,
}

fn cluster_config(workers: usize, plan: Option<FaultPlan>) -> ClusterConfig {
    ClusterConfig {
        workers,
        cores_per_worker: 8,
        fault_plan: plan,
        ..ClusterConfig::default()
    }
}

fn run(
    x: &BoolTensor,
    config: &DbtfConfig,
    workers: usize,
    plan: Option<FaultPlan>,
) -> (DbtfResult, MetricsSnapshot) {
    let cluster = Cluster::new(cluster_config(workers, plan));
    let result = factorize(&cluster, x, config).expect("factorization succeeds");
    let metrics = cluster.metrics();
    (result, metrics)
}

/// Runs the same plan on the networked backend (thread-hosted TCP
/// workers — same wire protocol and recovery path as real processes,
/// kills delivered as `Die` frames).
fn run_net(
    x: &BoolTensor,
    config: &DbtfConfig,
    workers: usize,
    plan: Option<FaultPlan>,
) -> (DbtfResult, MetricsSnapshot) {
    let backend = net_tasks::net_backend(
        cluster_config(workers, plan),
        WorkerHost::Thread(net_tasks::build_registry()),
        NetTuning {
            respawn_budget: 1024,
        },
    )
    .expect("net backend binds and spawns");
    let result = factorize(&backend, x, config).expect("factorization succeeds");
    let metrics = backend.metrics();
    (result, metrics)
}

fn main() {
    let args = Args::parse();
    let net = args.has("net");
    // The networked sweep moves every byte over real sockets, so it
    // defaults to a smaller tensor than the simulated one.
    let exp = args.get("exp", if net { 7u32 } else { 9u32 });
    let rank = args.get("rank", 8usize);
    let density = args.get("density", 0.02f64);
    let seed = args.get("seed", 0u64);
    let dim = 1usize << exp;

    let x = uniform_random([dim, dim, dim], density, seed);
    let config = DbtfConfig {
        rank,
        max_iters: 3,
        partitions: Some(64),
        seed,
        ..DbtfConfig::default()
    };
    if net {
        println!("Chaos sweep — process-kill recovery on the networked backend");
    } else {
        println!("Chaos sweep — fault-recovery overhead");
    }
    println!(
        "I=J=K=2^{exp} ({dim}), density {density}, rank {rank}, |X|={}",
        x.nnz()
    );
    println!("(every faulty run is asserted bit-identical to the fault-free run)");
    if net {
        println!("(and the wire payload is asserted equal to the Lemma 6/7 meters)");
    }
    print_header(
        "recovery overhead",
        "workers/rate",
        &[
            "T_clean", "T_fault", "overhead", "respawn", "retries", "recomp", "spec",
        ],
    );

    let worker_counts = [4usize, 8];
    let rates = [0.0f64, 0.02, 0.05, 0.10];
    let mut cells: Vec<Cell> = Vec::new();
    for &workers in &worker_counts {
        let (clean, clean_m) = run(&x, &config, workers, None);
        for &rate in &rates {
            let plan = if net {
                FaultPlan {
                    // One scheduled mid-run kill in every faulty cell;
                    // the rate drives seeded worker kills on top.
                    worker_crashes: vec![(15, workers - 1)],
                    process_kill_rate: rate,
                    ..FaultPlan::with_seed(seed ^ 0xc0de)
                }
            } else {
                FaultPlan {
                    // One mid-run crash in every faulty cell; rate drives
                    // the transient/slow noise on top.
                    worker_crashes: vec![(15, workers - 1)],
                    task_failure_rate: rate,
                    slow_task_rate: rate / 2.0,
                    ..FaultPlan::with_seed(seed ^ 0xc0de)
                }
            };
            let (faulty, m) = if net {
                run_net(&x, &config, workers, Some(plan))
            } else {
                run(&x, &config, workers, Some(plan))
            };
            assert_eq!(clean.factors, faulty.factors, "bit-identical factors");
            assert_eq!(clean.error, faulty.error, "bit-identical error");
            assert_eq!(
                clean_m.total_ops, m.total_ops,
                "bit-identical op counts (w={workers}, rate={rate})"
            );
            if net {
                let violations = check_wire_meters(&m);
                assert!(
                    violations.is_empty(),
                    "wire bytes must equal the lemma meters: {violations:?}"
                );
            }
            let cell = Cell {
                workers,
                rate,
                clean_secs: clean_m.virtual_time.as_secs_f64(),
                faulty_secs: m.virtual_time.as_secs_f64(),
                recovery_secs: m.recovery_time.as_secs_f64(),
                respawns: m.worker_respawns,
                retries: m.task_retries,
                recomputed: m.partitions_recomputed,
                reshipped: m.bytes_reshipped,
                speculative: m.speculative_tasks,
                wire_sent: m.net_wire_bytes_sent,
                wire_received: m.net_wire_bytes_received,
                wire_overhead: m.net_wire_overhead_bytes,
                wire_reship: m.net_wire_reship_bytes,
            };
            let overhead = 100.0 * (cell.faulty_secs - cell.clean_secs) / cell.clean_secs;
            print_row(
                &format!("{workers}w @ {rate:.2}"),
                &[
                    format!("{:10.3}", cell.clean_secs),
                    format!("{:10.3}", cell.faulty_secs),
                    format!("{overhead:9.1}%"),
                    format!("{:10}", cell.respawns),
                    format!("{:10}", cell.retries),
                    format!("{:10}", cell.recomputed),
                    format!("{:10}", cell.speculative),
                ],
            );
            cells.push(cell);
        }
    }

    if let Some(path) = {
        let p = args.get("json", String::new());
        (!p.is_empty()).then_some(p)
    } {
        let mut json = format!(
            "{{\n  \"experiment\": \"{}\",\n  \"cells\": [\n",
            if net { "chaos_net" } else { "chaos" }
        );
        for (i, c) in cells.iter().enumerate() {
            let wire = if net {
                format!(
                    ", \"wire_bytes_sent\": {}, \"wire_bytes_received\": {}, \
                     \"wire_overhead_bytes\": {}, \"wire_reship_bytes\": {}, \
                     \"wire_matches_lemma_meters\": true",
                    c.wire_sent, c.wire_received, c.wire_overhead, c.wire_reship
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                json,
                "    {{\"workers\": {}, \"fault_rate\": {}, \"clean_virtual_secs\": {}, \
                 \"faulty_virtual_secs\": {}, \"recovery_virtual_secs\": {}, \
                 \"worker_respawns\": {}, \"task_retries\": {}, \
                 \"partitions_recomputed\": {}, \"bytes_reshipped\": {}, \
                 \"speculative_tasks\": {}, \"bit_identical\": true{}}}{}",
                c.workers,
                c.rate,
                c.clean_secs,
                c.faulty_secs,
                c.recovery_secs,
                c.respawns,
                c.retries,
                c.recomputed,
                c.reshipped,
                c.speculative,
                wire,
                if i + 1 < cells.len() { "," } else { "" },
            );
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write JSON report");
        println!("wrote {path}");
    }
}
