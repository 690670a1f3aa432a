//! The four workloads: what each generates, runs and offers, at full and
//! smoke size.

use dbtf_datagen::{NoiseSpec, PlantedConfig};

use crate::gen::Keys;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    CpKernel,
    CpOocNet,
    UpdateReload,
    ServeHot,
}

impl Kind {
    /// Whether the workload serves a factor set, rather than computing
    /// one.
    pub fn serves(self) -> bool {
        matches!(self, Kind::UpdateReload | Kind::ServeHot)
    }
}

/// `dbtf factorize` settings of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Factorize {
    pub rank: usize,
    pub sets: usize,
    /// Iteration cap. At 2 every run does exactly `sets + 1` update
    /// rounds: convergence is first tested after the second iteration.
    pub iters: usize,
    pub workers: usize,
    pub backend: &'static str,
    pub storage: &'static str,
}

/// Serving settings (read traffic, cache, writes).
#[derive(Clone, Copy, Debug)]
pub struct Serve {
    pub keys: Keys,
    /// Offered rate of the open-loop read phase, queries/s.
    pub rate: f64,
    pub cache_fibers: usize,
    /// Seconds between the extra set-ups beside the read phase, each after
    /// a `dbtf update --reload` on `update-reload`.
    pub period_s: f64,
    pub delta_cells: usize,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// The planted input; its `seed` is replaced by the run's.
    pub tensor: PlantedConfig,
    pub factorize: Factorize,
    pub serve: Serve,
}

pub const NAMES: [&str; 4] = ["cp-kernel", "cp-ooc-net", "update-reload", "serve-hot"];

/// The serving tensor: rank 20 (above V = 15, so two cache groups).
const SERVE_TENSOR: PlantedConfig = PlantedConfig {
    dims: [256, 256, 256],
    rank: 20,
    factor_density: 0.12,
    noise: NoiseSpec {
        additive: 0.02,
        destructive: 0.05,
    },
    seed: 0,
};

const SERVE_FACTORIZE: Factorize = Factorize {
    rank: 20,
    sets: 2,
    iters: 2,
    workers: 2,
    backend: "local",
    storage: "ram",
};

const READS: Serve = Serve {
    keys: Keys::Uniform,
    rate: 5000.0,
    cache_fibers: 1024,
    period_s: 1.0,
    delta_cells: 64,
};

pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let w = match name {
        "cp-kernel" => Workload {
            name: "cp-kernel",
            kind: Kind::CpKernel,
            tensor: PlantedConfig {
                dims: [320, 320, 320],
                ..SERVE_TENSOR
            },
            factorize: Factorize {
                sets: 8,
                ..SERVE_FACTORIZE
            },
            serve: READS,
        },
        "cp-ooc-net" => Workload {
            name: "cp-ooc-net",
            kind: Kind::CpOocNet,
            tensor: PlantedConfig {
                dims: [2560, 2560, 640],
                rank: 8,
                factor_density: 0.035,
                noise: NoiseSpec {
                    additive: 0.001,
                    destructive: 0.05,
                },
                seed: 0,
            },
            factorize: Factorize {
                rank: 8,
                sets: 1,
                iters: 2,
                workers: 2,
                backend: "net",
                storage: "mmap",
            },
            serve: READS,
        },
        "update-reload" => Workload {
            name: "update-reload",
            kind: Kind::UpdateReload,
            tensor: SERVE_TENSOR,
            factorize: SERVE_FACTORIZE,
            serve: READS,
        },
        "serve-hot" => Workload {
            name: "serve-hot",
            kind: Kind::ServeHot,
            tensor: SERVE_TENSOR,
            factorize: SERVE_FACTORIZE,
            serve: Serve {
                keys: Keys::Zipf(1.6),
                rate: 10_000.0,
                ..READS
            },
        },
        _ => return None,
    };
    Some(if smoke { shrink(w) } else { w })
}

/// The smoke-test version: same pipeline, tiny inputs and rates.
fn shrink(mut w: Workload) -> Workload {
    let d = w.tensor.dims;
    w.tensor.dims = [d[0] / 8, d[1] / 8, d[2] / 8];
    w.tensor.factor_density = (w.tensor.factor_density * 2.0).min(0.3);
    w.factorize.rank = w.factorize.rank.min(6);
    w.tensor.rank = w.tensor.rank.min(6);
    w.factorize.sets = 1;
    w.serve.rate = w.serve.rate.min(1000.0);
    w.serve.cache_fibers = 64;
    w.serve.delta_cells = 8;
    w.serve.period_s = 0.4;
    w
}
