//! # selsync-repro
//!
//! Facade crate for the SelSync reproduction workspace. It re-exports every workspace
//! crate under one roof so examples, integration tests and downstream users can depend
//! on a single package:
//!
//! * [`core`] (`selsync`) — the paper's contribution: the `Δ(g_i)` tracker, the δ
//!   policy, and the training drivers — one round loop whose sync rules give SelSync,
//!   BSP, FedAvg and local SGD, plus SSP's own.
//! * [`tensor`], [`nn`], [`data`], [`comm`] — the substrates (dense math, neural
//!   networks, datasets/partitioning, parameter server + collectives + network model).
//! * [`metrics`], [`tracelog`], [`scenario`] — metrics and reporting, the deterministic
//!   event log, and scenario files with fault injection.
//!
//! See `ROADMAP.md` for the north star and open directions, and `docs/` for the
//! subsystem guides: `SCENARIOS.md` (scenario files and fault injection),
//! `EVENT_LOG.md` (the deterministic trace), `TRANSPORT.md` (message layer and socket
//! cluster), `RECOVERY.md` (checkpoint images and resume) and `PERFORMANCE.md` (the
//! worker pool, kernels and measurements).

/// The paper's contribution: selective synchronization (re-export of the `selsync` crate).
pub use selsync as core;

/// Dense tensor substrate.
pub use selsync_tensor as tensor;

/// Neural-network substrate (layers, models, losses, optimizers, schedules).
pub use selsync_nn as nn;

/// Data substrate (synthetic datasets, DefDP/SelDP partitioning, non-IID splits,
/// data-injection).
pub use selsync_data as data;

/// Communication substrate (parameter server, collectives, network cost model).
pub use selsync_comm as comm;

/// Deterministic run-trace layer (typed event stream, line codec, trace diff).
pub use selsync_tracelog as tracelog;

/// Metrics and reporting (EWMA, KDE, LSSR, throughput, tables).
pub use selsync_metrics as metrics;

/// Declarative, deterministic scenario & fault-injection subsystem (TOML scenario
/// files, built-in scenario library, fault injector, comparison runner).
pub use selsync_scenario as scenario;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Touch one item from each re-export to ensure the facade compiles against them.
        let _ = crate::core::SyncPolicy::bsp();
        let _ = crate::tensor::Tensor::zeros(1, 1);
        let _ = crate::nn::model::ModelKind::all();
        let _ = crate::data::partition::PartitionScheme::SelDp;
        let _ = crate::comm::NetworkModel::paper_5gbps();
        let _ = crate::tracelog::TraceSink::disabled();
        let _ = crate::metrics::Ewma::new(0.5, 5);
        let _ = crate::scenario::library::builtin("steady");
    }
}
