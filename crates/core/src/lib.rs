//! # selsync
//!
//! A Rust reproduction of **"Accelerating Distributed ML Training via Selective
//! Synchronization"** (Tyagi & Swany, IEEE CLUSTER 2023).
//!
//! SelSync is a semi-synchronous data-parallel training scheme: on every iteration each
//! worker measures how much its gradient is changing (the relative gradient change
//! `Δ(g_i)`, Eqn. 2 of the paper) and the cluster synchronizes **only** on the
//! iterations where at least one worker's change exceeds a threshold `δ`; all other
//! iterations apply purely local SGD updates. Combined with parameter (rather than
//! gradient) aggregation and the SelDP circular-queue data partitioning, this converges
//! to BSP-level accuracy while eliminating most of the communication.
//!
//! Crate layout:
//!
//! * [`tracker`] — the per-worker `Δ(g_i)` tracker (EWMA-smoothed gradient statistic).
//! * [`policy`] — the `δ` decision rule (Fig. 6): `Δ(g_i) ≥ δ` ⇒ synchronize — plus
//!   the [`policy::DeltaPolicy`] trait choosing δ itself (fixed, scheduled, or one
//!   Sync-Switch-style switching policy that relaxes δ once the loss settles and
//!   re-enters the eager regime through a `Δ(g)`-spike or a `Δ(g)`-variance gate), and
//!   the sync rules that make BSP, FedAvg and local SGD variants of it.
//! * [`conditions`] — cluster imperfections: device heterogeneity profiles and timed
//!   fault schedules (stragglers, crashes, network degradation) shared by every driver.
//! * [`aggregation`] — parameter vs gradient aggregation (§III-C).
//! * [`config`] — experiment configuration: model, cluster, algorithm, schedules.
//! * [`report`] — per-run results (LSSR, accuracy/perplexity, simulated time, history).
//! * [`replica`] — one worker's training state and the four link-free phases of its
//!   round (rejoin reset, compute, apply-local, apply-sync), written once.
//! * `worker` (crate-private) — the round of Alg. 1, once for every backend:
//!   `run_group` runs a replica group's rounds with a `ClusterLink` between the
//!   phases — in memory for the simulator, in-process for [`threaded`], over RPC
//!   for [`process`].
//! * [`sim`] — the replica group: all W replicas in the deterministic single-process
//!   simulator (compute is real, communication time comes from the cost model), one
//!   on a cluster backend.
//! * [`algorithms`] — two training drivers: the simulator's, which runs BSP, local
//!   SGD, FedAvg and SelSync as sync rules of the one round loop, and SSP's own.
//! * [`threaded`] — the thread-per-worker backend over the real parameter server and
//!   collectives of `selsync-comm`.
//! * [`process`] — the process-per-worker backend over the socket transport: hub and
//!   worker entry points the `scenario_cluster` orchestrator spawns, with per-process
//!   trace shards that merge into the canonical event log.
//! * [`checkpoint`] — the durable recovery image: one section layout for all three
//!   backends, so any driver resumes any backend's image.
//! * [`tracing`] — emission helpers for the deterministic run-trace layer
//!   (`selsync-tracelog`): structural and round-decision events alike are constructed
//!   here only, so every backend logs the same canonical event stream.
//!
//! # Quickstart
//!
//! ```
//! use selsync::config::{AlgorithmSpec, TrainConfig};
//! use selsync::algorithms::run;
//! use selsync_nn::model::ModelKind;
//!
//! // A small SelSync run: 4 workers, δ = 0.3, parameter aggregation, SelDP.
//! let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
//! cfg.algorithm = AlgorithmSpec::selsync(0.3);
//! cfg.iterations = 120;
//! let report = run(&cfg);
//! assert_eq!(report.iterations, 120);
//! ```

pub mod aggregation;
pub mod algorithms;
pub mod checkpoint;
pub mod conditions;
pub mod config;
pub mod policy;
pub mod process;
pub mod replica;
pub mod report;
pub mod sim;
pub mod threaded;
pub mod tracing;
pub mod tracker;
pub(crate) mod worker;

pub use aggregation::AggregationMode;
pub use checkpoint::Checkpoint;
pub use conditions::{ClusterConditions, FaultEvent};
pub use config::{AlgorithmSpec, CheckpointSpec, TrainConfig};
pub use policy::{
    AdaptiveDelta, DeltaPolicy, PolicySpec, PolicyState, RoundSignal, SwitchRecord, SyncDecision,
    SyncPolicy,
};
pub use report::RunReport;
pub use tracker::{GradientTracker, TrackerState};
