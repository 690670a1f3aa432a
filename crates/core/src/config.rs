//! DBTF configuration.

/// Errors reported by [`DbtfConfig::validate`] and the factorization entry
/// points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbtfError {
    /// The configuration is invalid; the message says why.
    InvalidConfig(String),
    /// The input tensor has a zero-sized mode.
    EmptyTensor,
    /// Writing or reading a factor checkpoint failed; the message carries
    /// the path and the underlying cause. A *missing* checkpoint on resume
    /// is not an error (the run starts fresh); a corrupt or mismatched one
    /// is.
    Checkpoint(String),
    /// The execution engine failed to boot (e.g. the OS refused to spawn a
    /// worker thread) or to complete an operator (a task that failed, an
    /// exhausted respawn budget). Carries the rendered engine error; the
    /// variant stores a `String` because this enum is `Clone + Eq` and the
    /// underlying `std::io::Error` is neither.
    Engine(String),
    /// Writing, reading or re-opening a spilled `DBTFUNFD` unfolding failed:
    /// bad magic, truncation, a checksum mismatch, an unsupported format
    /// version, an OS-level I/O failure, or an inconsistent file. Carries
    /// the rendered [`dbtf_tensor::StoreError`], which names the file.
    Storage(String),
}

impl std::fmt::Display for DbtfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbtfError::InvalidConfig(msg) => write!(f, "invalid DBTF configuration: {msg}"),
            DbtfError::EmptyTensor => write!(f, "input tensor has a zero-sized mode"),
            DbtfError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            DbtfError::Engine(msg) => write!(f, "engine error: {msg}"),
            DbtfError::Storage(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for DbtfError {}

impl From<dbtf_cluster::ClusterError> for DbtfError {
    fn from(err: dbtf_cluster::ClusterError) -> Self {
        DbtfError::Engine(err.to_string())
    }
}

impl From<dbtf_tensor::StoreError> for DbtfError {
    fn from(err: dbtf_tensor::StoreError) -> Self {
        DbtfError::Storage(err.to_string())
    }
}

/// How the `L` initial factor sets are drawn.
///
/// The paper only says "initialize L sets of factor matrices randomly"
/// (Algorithm 2 line 6). Data-oblivious uniform random factors make the
/// greedy update collapse to all-zero factors on realistic tensors — every
/// candidate component adds `≈ |b_r|·|c_r|` random cells that intersect
/// almost nothing, so every bit scores worse than zero (the `init_collapse`
/// ablation bench demonstrates this). We therefore default to random
/// *data-driven* sampling, the standard practice in Boolean factorization
/// implementations, and keep the uniform variant for ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InitStrategy {
    /// Each component `r` samples a random non-zero `(i, j, k)` of `X` and
    /// seeds `b_{:r}` with the mode-2 fiber `x_{i,:,k}` and `c_{:r}` with
    /// the mode-3 fiber `x_{i,j,:}`; `A` starts all-zero and is computed by
    /// the first update. Different sets sample different fibers.
    #[default]
    FiberSample,
    /// I.i.d. Bernoulli factors with density
    /// [`DbtfConfig::effective_init_density`].
    Random,
}

/// Which execution backend runs the driver's dataflow plan.
///
/// Both backends produce bit-identical factors, errors, op counts, and
/// Lemma 6/7 byte counters for the same configuration; they differ only
/// in *physical* execution and costing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The simulated multi-worker cluster: real worker threads, network
    /// costing under the `NetworkModel`, and optional fault injection.
    #[default]
    Cluster,
    /// Pure-local inline execution: no worker threads, no network-model
    /// costing (virtual time is compute-only), no fault injection.
    Local,
    /// The networked multi-process backend: workers are separate OS
    /// processes behind TCP, the Lemma 6/7 counters are *measured* wire
    /// bytes, and fault injection kills real processes. Results and every
    /// declared counter stay bit-identical to the other backends.
    Net,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Cluster => "cluster",
            BackendKind::Local => "local",
            BackendKind::Net => "net",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cluster" => Ok(BackendKind::Cluster),
            "local" => Ok(BackendKind::Local),
            "net" => Ok(BackendKind::Net),
            other => Err(format!("unknown backend {other:?} (cluster|local|net)")),
        }
    }
}

/// Where lineage recovery rebuilds a lost partition from (DESIGN.md
/// §1.2.7). On either storage the driver cuts every mode's partitions
/// straight from the in-memory tensor's sorted entries, with no unfolding
/// built.
///
/// Both storages produce bit-identical factors, errors, op counts, Lemma
/// 6/7 byte counters, virtual clocks, and trace fingerprints for the same
/// configuration: the partitions a run distributes are the same cut either
/// way, and file I/O is never charged to the virtual cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// The tensor itself: a lost partition is cut again from it. The
    /// lineage source is a clone of the tensor, which shares its entries.
    #[default]
    Ram,
    /// Out-of-core unfoldings ([`dbtf_tensor::MmapUnfolding`]): each mode's
    /// unfolding is written to an on-disk columnar file from that mode's
    /// partitions before they ship, and a lost partition is rebuilt by
    /// re-opening the file through a read-only memory map.
    Mmap,
}

impl std::fmt::Display for StorageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StorageKind::Ram => "ram",
            StorageKind::Mmap => "mmap",
        })
    }
}

impl std::str::FromStr for StorageKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ram" => Ok(StorageKind::Ram),
            "mmap" => Ok(StorageKind::Mmap),
            other => Err(format!("unknown storage {other:?} (ram|mmap)")),
        }
    }
}

/// Configuration of a DBTF factorization run (the paper's Algorithm 2
/// inputs plus the initialization knobs the paper leaves open).
#[derive(Clone, Debug, PartialEq)]
pub struct DbtfConfig {
    /// Rank `R`: the number of rank-1 components.
    pub rank: usize,
    /// Maximum number of iterations `T` (paper default: 10).
    pub max_iters: usize,
    /// Number of random initial factor sets `L` (paper default: 1). All `L`
    /// sets are updated in the first iteration and the best one is kept.
    pub initial_sets: usize,
    /// Number of vertical partitions `N` per unfolded tensor. `None` means
    /// one partition per worker core, the natural level of parallelism.
    pub partitions: Option<usize>,
    /// Cache-table group limit `V` (paper default: 15): when `R > V` the
    /// rank rows are split into `⌈R/V⌉` groups with a
    /// `2^(R/⌈R/V⌉)`-entry table each (Lemma 2).
    pub cache_group_limit: usize,
    /// Convergence threshold: stop when the error change between two
    /// consecutive iterations is at most `threshold × |X|`
    /// (the paper's "does not change significantly"). A negative value
    /// disables early stopping — exactly `max_iters` iterations run
    /// (useful for complexity measurements).
    pub convergence_threshold: f64,
    /// Initialization strategy (see [`InitStrategy`]).
    pub init: InitStrategy,
    /// For [`InitStrategy::Random`]: density of the random initial factor
    /// matrices. `None` derives
    /// `p = min(0.5, (d/R)^(1/3))` from the tensor density `d`, so that the
    /// expected density of the initial reconstruction (≈ `R·p³`) matches
    /// the input.
    pub init_density: Option<f64>,
    /// RNG seed for the random initialization (runs are deterministic).
    pub seed: u64,
    /// Write a factor checkpoint every `K` completed iterations (`None`
    /// disables checkpointing). The file at [`DbtfConfig::checkpoint_path`]
    /// is replaced atomically, so a crash mid-write never corrupts the
    /// previous checkpoint.
    pub checkpoint_every: Option<usize>,
    /// Path of the checkpoint file (required when `checkpoint_every` or
    /// `resume` is set).
    pub checkpoint_path: Option<String>,
    /// Resume from [`DbtfConfig::checkpoint_path`] if the file exists:
    /// initialization and the already-completed iterations are skipped and
    /// the run continues from the checkpointed factors. Because the RNG is
    /// only consumed by initialization, a resumed run converges to exactly
    /// the factors an uninterrupted run produces. A missing file falls back
    /// to a fresh run; a corrupt file is an error.
    pub resume: bool,
    /// Which execution backend the caller intends to run the plan on.
    ///
    /// Nothing reads it: every driver runs on the backend it is handed,
    /// and the CLI and the benchmark ledger set this field but pick their
    /// backend from their own options. It stays only because the ledger
    /// sets it; deleting it means editing the ledger.
    pub backend: BackendKind,
    /// Where lost partitions are rebuilt from (see [`StorageKind`]).
    /// Results are bit-identical across storage kinds.
    pub storage: StorageKind,
    /// For [`StorageKind::Mmap`]: the directory the spilled unfolding
    /// files live in. Each run creates (and on completion removes) a
    /// uniquely named subdirectory, so concurrent runs can share a spill
    /// directory. `None` uses the system temporary directory.
    pub spill_dir: Option<String>,
}

impl Default for DbtfConfig {
    fn default() -> Self {
        DbtfConfig {
            rank: 10,
            max_iters: 10,
            initial_sets: 1,
            partitions: None,
            cache_group_limit: 15,
            convergence_threshold: 1e-4,
            init: InitStrategy::default(),
            init_density: None,
            seed: 0,
            checkpoint_every: None,
            checkpoint_path: None,
            resume: false,
            backend: BackendKind::default(),
            storage: StorageKind::default(),
            spill_dir: None,
        }
    }
}

impl DbtfConfig {
    /// A configuration with the given rank and paper defaults elsewhere.
    pub fn with_rank(rank: usize) -> Self {
        DbtfConfig {
            rank,
            ..DbtfConfig::default()
        }
    }

    /// Checks the configuration for internal consistency.
    pub fn validate(&self) -> Result<(), DbtfError> {
        if self.rank == 0 {
            return Err(DbtfError::InvalidConfig("rank must be at least 1".into()));
        }
        if self.max_iters == 0 {
            return Err(DbtfError::InvalidConfig(
                "max_iters must be at least 1".into(),
            ));
        }
        if self.initial_sets == 0 {
            return Err(DbtfError::InvalidConfig(
                "initial_sets must be at least 1".into(),
            ));
        }
        if self.cache_group_limit == 0 || self.cache_group_limit > 24 {
            return Err(DbtfError::InvalidConfig(format!(
                "cache_group_limit must be in 1..=24 (got {}; a group of v bits \
                 stores 2^v cached summations)",
                self.cache_group_limit
            )));
        }
        if let Some(n) = self.partitions {
            if n == 0 {
                return Err(DbtfError::InvalidConfig(
                    "partitions must be at least 1".into(),
                ));
            }
        }
        if let Some(d) = self.init_density {
            if !(0.0..=1.0).contains(&d) {
                return Err(DbtfError::InvalidConfig(format!(
                    "init_density must be in [0, 1] (got {d})"
                )));
            }
        }
        if !self.convergence_threshold.is_finite() {
            return Err(DbtfError::InvalidConfig(
                "convergence_threshold must be finite".into(),
            ));
        }
        if self.checkpoint_every == Some(0) {
            return Err(DbtfError::InvalidConfig(
                "checkpoint_every must be at least 1".into(),
            ));
        }
        if (self.checkpoint_every.is_some() || self.resume) && self.checkpoint_path.is_none() {
            return Err(DbtfError::InvalidConfig(
                "checkpoint_every/resume require checkpoint_path".into(),
            ));
        }
        if self.spill_dir.is_some() && self.storage != StorageKind::Mmap {
            return Err(DbtfError::InvalidConfig(
                "spill_dir requires storage = mmap".into(),
            ));
        }
        Ok(())
    }

    /// The initial factor density for a tensor of density `d` (see
    /// [`DbtfConfig::init_density`]).
    pub fn effective_init_density(&self, tensor_density: f64) -> f64 {
        self.init_density.unwrap_or_else(|| {
            let p = (tensor_density.max(1e-12) / self.rank as f64).cbrt();
            p.clamp(1e-3, 0.5)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(DbtfConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_zero_rank() {
        let cfg = DbtfConfig {
            rank: 0,
            ..Default::default()
        };
        assert!(matches!(cfg.validate(), Err(DbtfError::InvalidConfig(_))));
    }

    #[test]
    fn rejects_huge_cache_groups() {
        let cfg = DbtfConfig {
            cache_group_limit: 40,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn cluster_error_converts_to_engine_variant() {
        let err = dbtf_cluster::ClusterError::WorkerSpawn {
            worker: 2,
            source: std::io::Error::other("out of threads"),
        };
        let rendered = err.to_string();
        let converted = DbtfError::from(err);
        assert_eq!(converted, DbtfError::Engine(rendered.clone()));
        assert_eq!(converted.to_string(), format!("engine error: {rendered}"));
    }

    #[test]
    fn rejects_bad_density() {
        let cfg = DbtfConfig {
            init_density: Some(1.5),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_inconsistent_checkpoint_config() {
        let no_path = DbtfConfig {
            checkpoint_every: Some(2),
            ..Default::default()
        };
        assert!(no_path.validate().is_err());
        let resume_no_path = DbtfConfig {
            resume: true,
            ..Default::default()
        };
        assert!(resume_no_path.validate().is_err());
        let zero = DbtfConfig {
            checkpoint_every: Some(0),
            checkpoint_path: Some("ckpt".into()),
            ..Default::default()
        };
        assert!(zero.validate().is_err());
        let ok = DbtfConfig {
            checkpoint_every: Some(3),
            checkpoint_path: Some("ckpt".into()),
            resume: true,
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn backend_kind_round_trips_through_str() {
        for kind in [BackendKind::Cluster, BackendKind::Local, BackendKind::Net] {
            assert_eq!(kind.to_string().parse::<BackendKind>(), Ok(kind));
        }
        assert!("spark".parse::<BackendKind>().is_err());
        assert_eq!(DbtfConfig::default().backend, BackendKind::Cluster);
    }

    #[test]
    fn storage_kind_round_trips_through_str() {
        for kind in [StorageKind::Ram, StorageKind::Mmap] {
            assert_eq!(kind.to_string().parse::<StorageKind>(), Ok(kind));
        }
        assert!("disk".parse::<StorageKind>().is_err());
        assert_eq!(DbtfConfig::default().storage, StorageKind::Ram);
    }

    #[test]
    fn rejects_spill_dir_without_mmap() {
        let cfg = DbtfConfig {
            spill_dir: Some("/tmp/spill".into()),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let ok = DbtfConfig {
            storage: StorageKind::Mmap,
            spill_dir: Some("/tmp/spill".into()),
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn store_errors_render_as_storage_errors() {
        use dbtf_tensor::StoreError;
        let path = String::from("u.dbtfu");
        let cases = [
            StoreError::BadMagic { path: path.clone() },
            StoreError::Truncated {
                path: path.clone(),
                section: "row index",
            },
            StoreError::ChecksumMismatch {
                path: path.clone(),
                section: "header",
            },
            StoreError::VersionSkew {
                path: path.clone(),
                found: 9,
                supported: 1,
            },
            StoreError::Invalid {
                path,
                detail: "row index not monotone".into(),
            },
        ];
        for err in cases {
            let rendered = err.to_string();
            assert_eq!(DbtfError::from(err), DbtfError::Storage(rendered.clone()));
            assert_eq!(
                DbtfError::Storage(rendered.clone()).to_string(),
                format!("storage error: {rendered}")
            );
        }
    }

    #[test]
    fn derived_init_density_tracks_input() {
        let cfg = DbtfConfig::with_rank(10);
        let p = cfg.effective_init_density(0.01);
        // R·p³ ≈ d.
        assert!((10.0 * p.powi(3) - 0.01).abs() < 1e-9);
        // Dense inputs stay within the clamp range.
        let dense = DbtfConfig::with_rank(1).effective_init_density(1.0);
        assert_eq!(dense, 0.5);
        // Explicit value wins.
        let cfg = DbtfConfig {
            init_density: Some(0.2),
            ..cfg
        };
        assert_eq!(cfg.effective_init_density(0.01), 0.2);
    }
}
