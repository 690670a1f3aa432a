//! Deterministic fault injection for the cluster engine.
//!
//! The paper runs DBTF on Spark and inherits its fault tolerance (lineage
//! recovery, task retries, speculative execution) for free. This module is
//! the injection half of our hand-rolled equivalent: a [`FaultPlan`]
//! describes *which* faults occur, keyed entirely off a seed and the
//! virtual execution structure (superstep index, partition index, attempt
//! number) — never wall-clock randomness — so every faulty run is exactly
//! reproducible and every recovery path is testable against the fault-free
//! run bit for bit.
//!
//! Three fault classes are modelled (see `DESIGN.md` §1.2.2):
//!
//! - **transient task failures** — an attempt to launch a task fails with
//!   probability [`FaultPlan::task_failure_rate`]; the engine retries with
//!   exponential backoff charged to the virtual clock. A failed attempt
//!   never runs the task closure, so cached partition state is never left
//!   half-mutated (launch/allocation failures, not mid-task crashes).
//! - **worker crashes** — worker `w` dies at the start of superstep `n`
//!   for every `(n, w)` in [`FaultPlan::worker_crashes`]; all partitions in
//!   its memory are lost and the engine rebuilds them from lineage.
//! - **slow tasks** — a task's virtual duration is multiplied by
//!   [`FaultPlan::slow_task_factor`] with probability
//!   [`FaultPlan::slow_task_rate`], simulating hangs/stragglers; the
//!   engine's speculative re-execution bounds the damage.
//!
//! The networked backend adds real-process faults on top, driven by the
//! same seed discipline:
//!
//! - **process kills** — with probability [`FaultPlan::process_kill_rate`]
//!   a worker dies at the start of a superstep. On the simulated cluster
//!   this is a simulated crash (the worker's memory is cleared); on the
//!   networked backend it is a literal `SIGKILL` of the worker process.
//!   Both paths recover through the same lineage book, so a kill-riddled
//!   networked run stays bit-identical to the simulated one.
//! - **connection drops** — with probability
//!   [`FaultPlan::connection_drop_rate`] a worker severs its driver
//!   connection after receiving a request; the driver reconnects and
//!   resends, and reply dedup keeps execution exactly-once. Wire-level
//!   only: no metering impact.
//! - **delayed responses** — with probability
//!   [`FaultPlan::response_delay_rate`] a worker sleeps
//!   [`FaultPlan::response_delay_ms`] wall-clock milliseconds before
//!   replying, exercising the driver's request-timeout path. Wire-level
//!   only: no metering impact.

/// A deterministic, seed-driven fault schedule for one cluster.
///
/// Attach to [`crate::ClusterConfig::fault_plan`]. Every decision is a pure
/// function of `(seed, superstep, partition, attempt)`, so the same plan on
/// the same workload injects the same faults in every run, independent of
/// thread scheduling, worker count, or host speed.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for all probabilistic fault decisions.
    pub seed: u64,
    /// `(superstep, worker)` pairs: worker `worker` is killed at the start
    /// of superstep `superstep` (0-based, counting every
    /// [`crate::ExecutionBackend::map_partitions`] call). Each pair fires at most
    /// once.
    pub worker_crashes: Vec<(u64, usize)>,
    /// Probability in `[0, 1]` that one launch attempt of a task fails
    /// transiently.
    pub task_failure_rate: f64,
    /// Maximum launch attempts per task (≥ 1). If every attempt fails the
    /// superstep fails with a per-partition
    /// [`crate::ClusterError::TaskFailed`], like a task panic.
    pub max_task_attempts: u32,
    /// Probability in `[0, 1]` that a task is slowed (simulated hang).
    pub slow_task_rate: f64,
    /// Virtual-duration multiplier for slowed tasks (finite, ≥ 1). On a
    /// cluster of more than one worker, a task whose completion would
    /// exceed 1.5 × the fault-free superstep makespan gets a speculative
    /// copy on another worker.
    pub slow_task_factor: f64,
    /// Probability in `[0, 1]` that a worker is killed at the start of a
    /// superstep (decided per `(superstep, worker)`). Simulated crash on
    /// in-process backends, real `SIGKILL` on the networked backend; both
    /// recover through lineage with identical metering.
    pub process_kill_rate: f64,
    /// Probability in `[0, 1]` that a worker drops its driver connection
    /// after receiving a request (networked backend only; the driver
    /// reconnects and resends).
    pub connection_drop_rate: f64,
    /// Probability in `[0, 1]` that a worker delays a reply by
    /// [`FaultPlan::response_delay_ms`] (networked backend only).
    pub response_delay_rate: f64,
    /// Wall-clock delay for [`FaultPlan::response_delay_rate`] hits, in
    /// milliseconds.
    pub response_delay_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            worker_crashes: Vec::new(),
            task_failure_rate: 0.0,
            max_task_attempts: 5,
            slow_task_rate: 0.0,
            slow_task_factor: 4.0,
            process_kill_rate: 0.0,
            connection_drop_rate: 0.0,
            response_delay_rate: 0.0,
            response_delay_ms: 0,
        }
    }
}

/// Base retry backoff in virtual seconds; attempt `k` waits
/// `base × 2^k`, so `r` retries cost `base × (2^r − 1)` total.
const RETRY_BACKOFF_SECS: f64 = 0.05;

/// SplitMix64 — a tiny, high-quality mixer; the standard choice for
/// turning structured integers into uniform bits.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled (a convenient
    /// starting point for struct-update syntax).
    pub fn with_seed(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Uniform value in `[0, 1)` for one fault decision, derived from the
    /// seed, a decision-class salt, and the decision coordinates.
    fn unit(&self, salt: u64, superstep: u64, partition: u64, attempt: u64) -> f64 {
        let mut h = splitmix64(self.seed ^ salt);
        h = splitmix64(h ^ superstep);
        h = splitmix64(h ^ partition);
        h = splitmix64(h ^ attempt);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether launch attempt `attempt` of the task for `partition` in
    /// `superstep` fails transiently.
    pub fn task_fails(&self, superstep: u64, partition: usize, attempt: u32) -> bool {
        self.task_failure_rate > 0.0
            && self.unit(0x7461_736b, superstep, partition as u64, attempt as u64)
                < self.task_failure_rate
    }

    /// The virtual-duration multiplier for the task of `partition` in
    /// `superstep` (1.0 = not slowed).
    pub fn task_slowdown(&self, superstep: u64, partition: usize) -> f64 {
        if self.slow_task_rate > 0.0
            && self.unit(0x736c_6f77, superstep, partition as u64, 0) < self.slow_task_rate
        {
            self.slow_task_factor
        } else {
            1.0
        }
    }

    /// The workers killed at the start of `superstep`: the scheduled
    /// [`FaultPlan::worker_crashes`] entries for this step unioned with the
    /// seed-hashed [`FaultPlan::process_kill_rate`] draws, sorted and
    /// deduplicated. Every backend injects crashes through this one list,
    /// which is what keeps a kill-riddled networked run bit-identical to
    /// the simulated one.
    pub fn kills_at(&self, superstep: u64, workers: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .worker_crashes
            .iter()
            .filter(|&&(s, _)| s == superstep)
            .map(|&(_, w)| w)
            .collect();
        if self.process_kill_rate > 0.0 {
            for w in 0..workers {
                if self.unit(0x6b69_6c6c, superstep, w as u64, 0) < self.process_kill_rate {
                    out.push(w);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether incarnation `incarnation` of worker `worker` (0 until its
    /// first respawn) severs its driver connection after receiving
    /// delivery `delivery` of a request in `superstep` (networked backend
    /// only). A respawned worker sees a re-sent request from delivery 0
    /// again, so its incarnation keys the draw: without it, a request whose
    /// first deliveries drop would drop the same way after every respawn.
    pub fn connection_drops(
        &self,
        superstep: u64,
        worker: usize,
        incarnation: u64,
        delivery: u64,
    ) -> bool {
        self.connection_drop_rate > 0.0
            && self.unit(
                0x6472_6f70,
                superstep,
                worker as u64,
                incarnation << 32 | delivery,
            ) < self.connection_drop_rate
    }

    /// Whether worker `worker` delays its reply in `superstep` (networked
    /// backend only; the delay length is [`FaultPlan::response_delay_ms`]).
    pub fn response_delayed(&self, superstep: u64, worker: usize) -> bool {
        self.response_delay_rate > 0.0
            && self.unit(0x6465_6c79, superstep, worker as u64, 0) < self.response_delay_rate
    }

    /// Whether the plan can kill workers at superstep boundaries (scheduled
    /// crashes or a positive kill rate).
    pub fn schedules_crashes(&self) -> bool {
        !self.worker_crashes.is_empty() || self.process_kill_rate > 0.0
    }

    /// Total virtual backoff seconds charged for `retries` failed attempts
    /// (exponential: `base × (2^retries − 1)`).
    pub fn backoff_secs(&self, retries: u32) -> f64 {
        if retries == 0 {
            0.0
        } else {
            RETRY_BACKOFF_SECS * ((1u64 << retries.min(63)) - 1) as f64
        }
    }

    /// Whether the plan injects any fault at all.
    pub fn is_active(&self) -> bool {
        self.schedules_crashes()
            || self.task_failure_rate > 0.0
            || self.slow_task_rate > 0.0
            || self.connection_drop_rate > 0.0
            || self.response_delay_rate > 0.0
    }

    /// Checks the plan against a cluster of `workers` machines.
    ///
    /// # Errors
    ///
    /// A message naming the first out-of-range rate, a crash target beyond
    /// the worker count, `max_task_attempts == 0`, or a slowdown factor
    /// that is below 1 or not finite.
    pub fn validate(&self, workers: usize) -> Result<(), String> {
        for (name, rate) in [
            ("task_failure_rate", self.task_failure_rate),
            ("slow_task_rate", self.slow_task_rate),
            ("process_kill_rate", self.process_kill_rate),
            ("connection_drop_rate", self.connection_drop_rate),
            ("response_delay_rate", self.response_delay_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        if self.max_task_attempts < 1 {
            return Err("max_task_attempts must be at least 1".to_string());
        }
        if !(self.slow_task_factor.is_finite() && self.slow_task_factor >= 1.0) {
            return Err(format!(
                "slow_task_factor must be finite and at least 1 (got {})",
                self.slow_task_factor
            ));
        }
        if let Some(&(step, w)) = self.worker_crashes.iter().find(|&&(_, w)| w >= workers) {
            return Err(format!(
                "fault plan kills worker {w} at superstep {step}, but the cluster has \
                 only {workers} workers"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan {
            task_failure_rate: 0.3,
            slow_task_rate: 0.2,
            ..FaultPlan::with_seed(42)
        };
        for step in 0..4u64 {
            for part in 0..16usize {
                assert_eq!(
                    plan.task_fails(step, part, 0),
                    plan.task_fails(step, part, 0)
                );
                assert_eq!(
                    plan.task_slowdown(step, part),
                    plan.task_slowdown(step, part)
                );
            }
        }
    }

    #[test]
    fn failure_rate_is_roughly_honoured() {
        let plan = FaultPlan {
            task_failure_rate: 0.25,
            ..FaultPlan::with_seed(7)
        };
        let n = 4000;
        let fails = (0..n).filter(|&p| plan.task_fails(0, p, 0)).count() as f64;
        let rate = fails / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn zero_rate_never_fails_or_slows() {
        let plan = FaultPlan::with_seed(3);
        for p in 0..100 {
            assert!(!plan.task_fails(0, p, 0));
            assert_eq!(plan.task_slowdown(0, p), 1.0);
        }
        assert!(!plan.is_active());
    }

    #[test]
    fn seeds_decorrelate() {
        let a = FaultPlan {
            task_failure_rate: 0.5,
            ..FaultPlan::with_seed(1)
        };
        let b = FaultPlan {
            task_failure_rate: 0.5,
            ..FaultPlan::with_seed(2)
        };
        let differing = (0..256)
            .filter(|&p| a.task_fails(0, p, 0) != b.task_fails(0, p, 0))
            .count();
        assert!(
            differing > 64,
            "seeds too correlated: {differing}/256 differ"
        );
    }

    #[test]
    fn backoff_is_exponential() {
        let plan = FaultPlan::default();
        assert_eq!(plan.backoff_secs(0), 0.0);
        assert!((plan.backoff_secs(1) - 0.05).abs() < 1e-12);
        assert!((plan.backoff_secs(2) - 0.15).abs() < 1e-12);
        assert!((plan.backoff_secs(3) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_out_of_range_crash() {
        let plan = FaultPlan {
            worker_crashes: vec![(0, 5)],
            ..FaultPlan::default()
        };
        assert_eq!(
            plan.validate(2).unwrap_err(),
            "fault plan kills worker 5 at superstep 0, but the cluster has only 2 workers"
        );
        assert!(plan.validate(6).is_ok());
    }

    #[test]
    fn validate_rejects_bad_rate() {
        let plan = FaultPlan {
            task_failure_rate: 1.5,
            ..FaultPlan::default()
        };
        assert_eq!(
            plan.validate(2).unwrap_err(),
            "task_failure_rate must be in [0, 1], got 1.5"
        );
    }

    #[test]
    fn kills_at_unions_schedule_and_rate() {
        let plan = FaultPlan {
            worker_crashes: vec![(3, 1), (5, 0)],
            process_kill_rate: 0.4,
            ..FaultPlan::with_seed(99)
        };
        // Deterministic and sorted/deduplicated.
        for step in 0..8u64 {
            let a = plan.kills_at(step, 4);
            assert_eq!(a, plan.kills_at(step, 4));
            let mut sorted = a.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(a, sorted);
        }
        // Scheduled entries always appear.
        assert!(plan.kills_at(3, 4).contains(&1));
        assert!(plan.kills_at(5, 4).contains(&0));
        // With a 0.4 rate over 8 steps × 4 workers, some hashed kills fire.
        let hashed: usize = (0..8u64).map(|s| plan.kills_at(s, 4).len()).sum();
        assert!(hashed > 2, "kill rate injected only {hashed} kills");
        // And a zero-rate plan injects exactly the schedule.
        let sched_only = FaultPlan {
            worker_crashes: vec![(3, 1)],
            ..FaultPlan::with_seed(99)
        };
        assert_eq!(sched_only.kills_at(3, 4), vec![1]);
        assert!(sched_only.kills_at(4, 4).is_empty());
    }

    #[test]
    fn net_fault_decisions_are_deterministic_and_gated() {
        let quiet = FaultPlan::with_seed(5);
        for step in 0..4u64 {
            for w in 0..4usize {
                assert!(!quiet.connection_drops(step, w, 0, 0));
                assert!(!quiet.response_delayed(step, w));
            }
        }
        assert!(!quiet.is_active());
        let noisy = FaultPlan {
            connection_drop_rate: 0.5,
            response_delay_rate: 0.5,
            response_delay_ms: 10,
            ..FaultPlan::with_seed(5)
        };
        assert!(noisy.is_active());
        assert!(!noisy.schedules_crashes());
        for step in 0..4u64 {
            for w in 0..4usize {
                assert_eq!(
                    noisy.connection_drops(step, w, 0, 1),
                    noisy.connection_drops(step, w, 0, 1)
                );
                assert_eq!(
                    noisy.response_delayed(step, w),
                    noisy.response_delayed(step, w)
                );
            }
        }
        let kills = FaultPlan {
            process_kill_rate: 0.1,
            ..FaultPlan::with_seed(5)
        };
        assert!(kills.schedules_crashes() && kills.is_active());
    }

    /// Incarnation 0 draws on the delivery alone, so runs without a
    /// respawn keep their drops; a respawned worker draws afresh for the
    /// same request.
    #[test]
    fn connection_drops_draw_afresh_after_a_respawn() {
        let plan = FaultPlan {
            connection_drop_rate: 0.3,
            ..FaultPlan::with_seed(2)
        };
        let mut redrawn = 0;
        for step in 0..16u64 {
            for w in 0..3usize {
                for delivery in 0..4u64 {
                    let first = plan.connection_drops(step, w, 0, delivery);
                    let by_delivery = plan.unit(0x6472_6f70, step, w as u64, delivery) < 0.3;
                    assert_eq!(first, by_delivery);
                    if plan.connection_drops(step, w, 1, delivery) != first {
                        redrawn += 1;
                    }
                }
            }
        }
        assert!(redrawn > 32, "only {redrawn} of 192 draws changed");
        // A request whose first deliveries all drop at incarnation 0 is
        // not doomed to drop them all again at incarnation 1.
        let doomed = (0..4096u64)
            .find(|&step| (0..4).all(|d| plan.connection_drops(step, 0, 0, d)))
            .expect("some request drops four times in a row");
        assert!((0..4).any(|d| !plan.connection_drops(doomed, 0, 1, d)));
    }

    #[test]
    fn validate_rejects_bad_kill_rate() {
        let plan = FaultPlan {
            process_kill_rate: -0.1,
            ..FaultPlan::default()
        };
        assert_eq!(
            plan.validate(2).unwrap_err(),
            "process_kill_rate must be in [0, 1], got -0.1"
        );
    }
}
