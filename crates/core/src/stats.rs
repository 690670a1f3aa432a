//! Run statistics reported by a DBTF factorization.

use dbtf_cluster::MetricsSnapshot;

/// Resource accounting for one [`crate::factorize`] run.
///
/// `comm` carries the communication deltas the paper analyses:
/// `bytes_shuffled` is Lemma 6's one-off `O(|X|)` partitioning shuffle;
/// `bytes_broadcast + bytes_collected` is Lemma 7's per-iteration
/// `O(T·I·R·(M + N))` traffic; `total_ops` are the Boolean word operations
/// of Lemma 4.
#[derive(Clone, Debug, Default)]
pub struct DbtfStats {
    /// Host wall-clock seconds spent in the run.
    pub wall_secs: f64,
    /// Virtual cluster seconds (the simulated distributed running time —
    /// the quantity the paper's running-time figures report).
    pub virtual_secs: f64,
    /// Communication/compute counter deltas for this run.
    pub comm: MetricsSnapshot,
    /// Number of vertical partitions per unfolded tensor (`N`).
    pub n_partitions: usize,
    /// Bytes of partitioned unfolded tensors resident in worker memory
    /// (the `O(|X|)` term of Lemma 5).
    pub partition_bytes: u64,
    /// Peak bytes of cached row summations across partitions during a
    /// factor update (the `O(N·I·(R/V)·2^(R/⌈R/V⌉))` term of Lemma 5).
    pub peak_cache_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = DbtfStats::default();
        assert_eq!(s.wall_secs, 0.0);
        assert_eq!(s.comm.bytes_shuffled, 0);
        assert_eq!(s.peak_cache_bytes, 0);
    }
}
