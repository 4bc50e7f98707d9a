//! Experiment configuration.
//!
//! A [`TrainConfig`] fully describes one training run: the model analogue, the cluster
//! size, the data partitioning, the algorithm (BSP / FedAvg / SSP / local-SGD /
//! SelSync), optimizer and learning-rate schedule, and the network/device cost models
//! used for simulated timing. Every run is deterministic given its `seed`.

use crate::aggregation::AggregationMode;
use crate::conditions::ClusterConditions;
use crate::policy::PolicySpec;
use selsync_comm::faults::{CommFaultSchedule, CommFaultSpec, PsFaultSchedule, PsFaultSpec};
use selsync_comm::netmodel::NetworkModel;
use selsync_comm::ps::DEFAULT_SNAPSHOT_DEPTH;
use selsync_data::injection::DataInjection;
use selsync_data::partition::PartitionScheme;
use selsync_nn::cost::DeviceProfile;
use selsync_nn::model::ModelKind;
use selsync_nn::schedule::LrSchedule;
use selsync_tracelog::TraceSink;
use serde::{Deserialize, Serialize};

/// Which first-order optimizer to instantiate per worker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizerSpec {
    /// `"sgd"` or `"adam"` semantics.
    pub adam: bool,
    /// Momentum (SGD only).
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl OptimizerSpec {
    /// SGD with momentum and weight decay.
    pub fn sgd(momentum: f32, weight_decay: f32) -> Self {
        OptimizerSpec {
            adam: false,
            momentum,
            weight_decay,
        }
    }

    /// Adam with weight decay.
    pub fn adam(weight_decay: f32) -> Self {
        OptimizerSpec {
            adam: true,
            momentum: 0.0,
            weight_decay,
        }
    }

    /// Instantiate the optimizer.
    pub fn build(&self) -> Box<dyn selsync_nn::optim::Optimizer> {
        if self.adam {
            Box::new(selsync_nn::optim::Adam::new(self.weight_decay))
        } else {
            Box::new(selsync_nn::optim::Sgd::new(
                self.momentum,
                self.weight_decay,
            ))
        }
    }
}

/// Durable-checkpoint policy: where and how often both SelSync backends persist a
/// full recovery image (see `crate::checkpoint`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointSpec {
    /// Write a checkpoint after every `every`-th completed round (1 = every round).
    pub every: usize,
    /// Directory checkpoint files land in (`<dir>/ckpt-<round>`).
    pub dir: String,
    /// Simulated kill switch: stop the run right after the checkpoint at the end of
    /// this round is written (the crash/resume tests and the CI smoke use it).
    /// Runtime-only — never part of a scenario file.
    pub halt_after: Option<usize>,
    /// Retention: keep only the newest `keep` images, pruning older `ckpt-<round>`
    /// files after each newer one is durably written. `None` keeps everything.
    /// The image a resume started from is never pruned.
    pub keep: Option<usize>,
}

impl CheckpointSpec {
    /// Checkpoint every `every` rounds into `dir`, running to completion.
    pub fn new(every: usize, dir: impl Into<String>) -> Self {
        CheckpointSpec {
            every,
            dir: dir.into(),
            halt_after: None,
            keep: None,
        }
    }

    /// Validate the cadence.
    pub fn validate(&self) -> Result<(), String> {
        if self.every == 0 {
            return Err("checkpoint cadence `every` must be at least 1".into());
        }
        if self.dir.is_empty() {
            return Err("checkpoint `dir` must not be empty".into());
        }
        if self.keep == Some(0) {
            return Err("checkpoint retention `keep` must be at least 1".into());
        }
        Ok(())
    }

    /// Apply the retention policy after the image for `just_written` landed
    /// durably: prune the oldest `ckpt-<round>` files in `dir` beyond the newest
    /// `keep`, never touching `just_written` itself or the `protect`ed round a
    /// resume is reading from. Unparseable file names are left alone. I/O errors
    /// are ignored — retention is best-effort and must never fail a run.
    pub fn prune(&self, just_written: usize, protect: Option<usize>) {
        let Some(keep) = self.keep else { return };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut rounds: Vec<usize> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str()?.strip_prefix("ckpt-")?.parse().ok())
            .collect();
        rounds.sort_unstable();
        let cut = rounds.len().saturating_sub(keep.max(1));
        for &round in &rounds[..cut] {
            if round == just_written || protect == Some(round) {
                continue;
            }
            let _ = std::fs::remove_file(self.path_for(round));
        }
    }

    /// Persist `image` at [`Self::path_for`] its round, then apply the retention
    /// policy. Retention runs only after the newer image is durably on disk, and
    /// never removes the `protect`ed image a resume started from. A failed write
    /// panics with the path — a run asked to checkpoint must not continue without.
    pub fn write_image(&self, image: &crate::checkpoint::Checkpoint, protect: Option<usize>) {
        let path = self.path_for(image.round);
        image
            .write_file(&path)
            .unwrap_or_else(|err| panic!("failed to write checkpoint {}: {err}", path.display()));
        self.prune(image.round, protect);
    }

    /// Whether a checkpoint is due after completing `iteration`.
    pub fn due(&self, iteration: usize) -> bool {
        (iteration + 1).is_multiple_of(self.every.max(1))
    }

    /// The file path of the checkpoint written after `iteration`.
    pub fn path_for(&self, iteration: usize) -> std::path::PathBuf {
        std::path::Path::new(&self.dir).join(format!("ckpt-{iteration}"))
    }
}

/// The distributed training algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AlgorithmSpec {
    /// Bulk-synchronous parallel: aggregate every step.
    Bsp,
    /// Pure local SGD: never aggregate.
    LocalSgd,
    /// Federated averaging with participation fraction `c` and synchronization factor
    /// `e` (updates are aggregated `1/e` times per epoch from `c·N` randomly chosen
    /// workers).
    FedAvg {
        /// Fraction of workers participating in each aggregation.
        c: f32,
        /// Synchronization factor E (aggregation happens every `E · steps_per_epoch` steps).
        e: f32,
    },
    /// Stale-synchronous parallel with the given staleness bound (in iterations).
    Ssp {
        /// Maximum allowed lead of the fastest worker over the slowest.
        staleness: usize,
    },
    /// SelSync with threshold `delta`, aggregation mode and optional data-injection for
    /// non-IID data.
    SelSync {
        /// Relative-gradient-change threshold δ.
        delta: f32,
        /// Parameter vs gradient aggregation during synchronization steps.
        aggregation: AggregationMode,
        /// Optional randomized data-injection (α, β) for non-IID data.
        injection: Option<DataInjection>,
    },
}

impl AlgorithmSpec {
    /// SelSync with parameter aggregation and no data-injection (the paper's default).
    pub fn selsync(delta: f32) -> Self {
        AlgorithmSpec::SelSync {
            delta,
            aggregation: AggregationMode::Parameter,
            injection: None,
        }
    }

    /// SelSync with gradient aggregation (for the GA-vs-PA comparison, Fig. 10).
    pub fn selsync_ga(delta: f32) -> Self {
        AlgorithmSpec::SelSync {
            delta,
            aggregation: AggregationMode::Gradient,
            injection: None,
        }
    }

    /// SelSync with data-injection `(α, β, δ)` (the paper's non-IID configuration).
    pub fn selsync_injected(alpha: f32, beta: f32, delta: f32) -> Self {
        AlgorithmSpec::SelSync {
            delta,
            aggregation: AggregationMode::Parameter,
            injection: Some(DataInjection::new(alpha, beta)),
        }
    }

    /// Human-readable name used in reports (matches the paper's table labels).
    pub fn name(&self) -> String {
        match self {
            AlgorithmSpec::Bsp => "BSP".to_string(),
            AlgorithmSpec::LocalSgd => "LocalSGD".to_string(),
            AlgorithmSpec::FedAvg { c, e } => format!("FedAvg({c},{e})"),
            AlgorithmSpec::Ssp { staleness } => format!("SSP(s={staleness})"),
            AlgorithmSpec::SelSync {
                delta,
                aggregation,
                injection,
            } => {
                let agg = aggregation.short_name();
                match injection {
                    Some(inj) => format!("SelSync({},{},{delta},{agg})", inj.alpha, inj.beta),
                    None => format!("SelSync(d={delta},{agg})"),
                }
            }
        }
    }
}

/// Full description of one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Which paper workload to train.
    pub model: ModelKind,
    /// Number of workers in the cluster.
    pub workers: usize,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Number of training iterations to run.
    pub iterations: usize,
    /// Evaluate on the held-out set every this many iterations.
    pub eval_every: usize,
    /// Maximum number of test samples used per evaluation (caps evaluation cost).
    pub eval_samples: usize,
    /// Number of training samples to synthesise.
    pub train_samples: usize,
    /// Number of held-out test samples to synthesise.
    pub test_samples: usize,
    /// RNG seed controlling data, initialisation and all stochastic decisions.
    pub seed: u64,
    /// IID partitioning scheme (DefDP or SelDP).
    pub partition: PartitionScheme,
    /// If set, data is split non-IID with this many labels per worker instead of IID
    /// partitioning.
    pub non_iid_labels_per_worker: Option<usize>,
    /// The training algorithm.
    pub algorithm: AlgorithmSpec,
    /// Per-worker optimizer.
    pub optimizer: OptimizerSpec,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// EWMA window for the gradient tracker (Fig. 8a sweeps this).
    pub ewma_window: usize,
    /// Network cost model used for simulated communication time.
    pub network: NetworkModel,
    /// Device profile used for simulated compute time.
    pub device: DeviceProfile,
    /// Cluster imperfections: device heterogeneity and the timed fault schedule.
    /// Uniform (homogeneous, fault-free) by default; scenario files populate it.
    pub conditions: ClusterConditions,
    /// Optional δ policy for SelSync runs. `None` (the default) keeps the paper's fixed
    /// threshold from [`AlgorithmSpec::SelSync`]; `Some` overrides it with a scheduled
    /// or adaptive policy (the sweep harness's policy arms). Ignored by the other
    /// algorithms.
    pub delta_policy: Option<PolicySpec>,
    /// Optional deterministic message-fault schedule (`[comm_faults]`). `None` (the
    /// default) routes all comm ops through the lossless transport, preserving
    /// historical behavior bit-for-bit. `Some` drives every op through the
    /// retry/timeout message layer; a worker that exhausts its retry budget is
    /// evicted from membership exactly like a scheduled crash with no rejoin (see
    /// [`TrainConfig::effective_conditions`]).
    pub comm_faults: Option<CommFaultSpec>,
    /// Optional deterministic parameter-server availability schedule
    /// (`[ps_faults]`). `None` (the default) keeps the server perfectly reliable.
    /// `Some` takes the PS down for whole rounds (scheduled windows plus seeded
    /// brownouts): the SelSync drivers degrade those rounds to forced-local rounds
    /// and run a catch-up sync on recovery (see `docs/RECOVERY.md`). Only the
    /// SelSync drivers honor this; the other algorithm arms ignore it.
    pub ps_faults: Option<PsFaultSpec>,
    /// Optional durable-checkpoint policy. `None` (the default) writes nothing.
    /// Only the SelSync drivers honor this.
    pub checkpoint: Option<CheckpointSpec>,
    /// Run-trace capture hook (disabled by default; zero-cost when disabled). Both
    /// SelSync drivers emit the canonical event stream into it. Clones of a config
    /// share one sink — give each *run* a fresh `TraceSink::capture(..)` so two runs
    /// never interleave events in one buffer. Not part of the serialized config.
    pub trace: TraceSink,
}

impl TrainConfig {
    /// Per-model default optimizer and learning-rate schedule for the *small analogue*
    /// models. The shapes follow the paper's §IV-A setup (SGD+momentum with step decay
    /// for ResNet/VGG/Transformer, Adam with a fixed LR for AlexNet); the absolute
    /// values are re-tuned for the small substitute models.
    pub fn default_hyper(model: ModelKind) -> (OptimizerSpec, LrSchedule) {
        match model {
            ModelKind::ResNetLike => (
                OptimizerSpec::sgd(0.9, 4e-4),
                LrSchedule::StepIterDecay {
                    base_lr: 0.05,
                    every_iters: 1500,
                    factor: 0.5,
                },
            ),
            ModelKind::VggLike => (
                OptimizerSpec::sgd(0.9, 5e-4),
                LrSchedule::StepIterDecay {
                    base_lr: 0.05,
                    every_iters: 1500,
                    factor: 0.5,
                },
            ),
            ModelKind::AlexLike => (OptimizerSpec::adam(0.0), LrSchedule::Constant { lr: 1e-3 }),
            // Adam with a flat LR: the attention-pooling LM analogue underfits badly
            // under SGD+momentum (the embedding table receives sparse, attention-scaled
            // gradients), matching the common practice of training Transformers with
            // adaptive optimizers.
            ModelKind::TransformerLike => {
                (OptimizerSpec::adam(0.0), LrSchedule::Constant { lr: 3e-3 })
            }
        }
    }

    /// A small, fast configuration suitable for tests, examples and doc-tests.
    pub fn small(model: ModelKind, workers: usize) -> Self {
        let (optimizer, lr) = Self::default_hyper(model);
        TrainConfig {
            model,
            workers,
            batch_size: 16,
            iterations: 300,
            eval_every: 50,
            eval_samples: 256,
            train_samples: 2048,
            test_samples: 512,
            seed: 42,
            partition: PartitionScheme::SelDp,
            non_iid_labels_per_worker: None,
            algorithm: AlgorithmSpec::Bsp,
            optimizer,
            lr,
            ewma_window: 25,
            network: NetworkModel::paper_5gbps(),
            device: DeviceProfile::v100(),
            conditions: ClusterConditions::uniform(),
            delta_policy: None,
            comm_faults: None,
            ps_faults: None,
            checkpoint: None,
            trace: TraceSink::disabled(),
        }
    }

    /// The configuration used by the benchmark harness: the paper's 16-worker cluster,
    /// batch 32, larger synthetic datasets and more iterations.
    pub fn paper(model: ModelKind) -> Self {
        let mut cfg = Self::small(model, 16);
        cfg.batch_size = 32;
        cfg.iterations = 3000;
        cfg.eval_every = 100;
        cfg.train_samples = 16_384;
        cfg.test_samples = 2_048;
        cfg.eval_samples = 1_024;
        cfg
    }

    /// The comm-fault evictions this config's schedule implies: `(worker, round)`
    /// pairs where a worker present under the scheduled conditions exhausts its
    /// retry budget and is permanently removed from membership. Pure function of
    /// the config — both backends (and scenario validation) derive membership from
    /// the same list. Empty when `comm_faults` is `None` or the schedule is mild
    /// enough that every exchange lands within budget.
    pub fn comm_fault_evictions(&self) -> Vec<(usize, usize)> {
        let Some(spec) = self.comm_faults else {
            return Vec::new();
        };
        let schedule = CommFaultSchedule::new(spec);
        let ps_schedule = self.ps_fault_schedule();
        let mut evictions = Vec::new();
        for worker in 0..self.workers {
            for iter in 0..self.iterations {
                // Weather is only experienced at rounds the worker actually runs
                // under the scheduled (crash/rejoin) conditions — and at rounds
                // where the PS is reachable at all: a degraded round sends no
                // envelopes, so the link weather cannot evict anyone there.
                if !self.conditions.is_present(worker, iter) {
                    continue;
                }
                if ps_schedule.as_ref().is_some_and(|s| s.down(iter as u64)) {
                    continue;
                }
                if schedule
                    .first_success_attempt(worker, iter as u64)
                    .is_none()
                {
                    evictions.push((worker, iter));
                    break; // eviction is permanent — no rejoin
                }
            }
        }
        evictions
    }

    /// The membership-effective cluster conditions: the scheduled conditions plus
    /// one no-rejoin crash per comm-fault eviction. Idempotent — a crash window
    /// starting at the eviction round makes the worker absent there, so
    /// recomputing evictions on the result yields the same set. Both drivers (and
    /// anything deriving presence, e.g. trace round-context) must use this, not
    /// `self.conditions`, so fault-driven evictions look exactly like scheduled
    /// crashes.
    pub fn effective_conditions(&self) -> ClusterConditions {
        self.conditions
            .clone()
            .with_evictions(&self.comm_fault_evictions())
    }

    /// Depth of the parameter server's round-keyed snapshot ring, when the run keeps
    /// one: exactly when its schedule has a rejoin, whose pull reads the global of the
    /// last scheduled synchronization before it. Comm-fault evictions and process
    /// deaths never rejoin, so the base schedule decides.
    pub fn snapshot_depth(&self) -> Option<usize> {
        let c = &self.conditions;
        let rejoin = (1..self.iterations).any(|it| (0..self.workers).any(|w| c.rejoins(w, it)));
        rejoin.then_some(DEFAULT_SNAPSHOT_DEPTH)
    }

    /// The compiled PS availability schedule, when `[ps_faults]` is configured.
    pub fn ps_fault_schedule(&self) -> Option<PsFaultSchedule> {
        self.ps_faults.clone().map(PsFaultSchedule::new)
    }

    /// Steps per (global) epoch: one pass of the cluster over the training set.
    pub fn steps_per_epoch(&self) -> usize {
        let global_batch = self.batch_size * self.workers.max(1);
        (self.train_samples / global_batch.max(1)).max(1)
    }

    /// Epoch index of a given iteration.
    pub fn epoch_of(&self, iteration: usize) -> usize {
        iteration / self.steps_per_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_match_paper_labels() {
        assert_eq!(AlgorithmSpec::Bsp.name(), "BSP");
        assert_eq!(
            AlgorithmSpec::FedAvg { c: 1.0, e: 0.25 }.name(),
            "FedAvg(1,0.25)"
        );
        assert_eq!(AlgorithmSpec::Ssp { staleness: 100 }.name(), "SSP(s=100)");
        assert_eq!(AlgorithmSpec::selsync(0.3).name(), "SelSync(d=0.3,PA)");
        assert_eq!(AlgorithmSpec::selsync_ga(0.25).name(), "SelSync(d=0.25,GA)");
        assert_eq!(
            AlgorithmSpec::selsync_injected(0.5, 0.5, 0.3).name(),
            "SelSync(0.5,0.5,0.3,PA)"
        );
    }

    #[test]
    fn small_config_is_consistent() {
        let cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
        assert_eq!(cfg.workers, 4);
        assert!(cfg.steps_per_epoch() > 0);
        assert_eq!(cfg.epoch_of(0), 0);
        assert!(cfg.epoch_of(cfg.steps_per_epoch()) == 1);
    }

    #[test]
    fn paper_config_uses_16_workers_and_batch_32() {
        let cfg = TrainConfig::paper(ModelKind::VggLike);
        assert_eq!(cfg.workers, 16);
        assert_eq!(cfg.batch_size, 32);
        assert!(cfg.iterations >= 1000);
    }

    #[test]
    fn alexnet_uses_adam_with_constant_lr() {
        let (opt, lr) = TrainConfig::default_hyper(ModelKind::AlexLike);
        assert!(opt.adam);
        assert_eq!(lr, LrSchedule::Constant { lr: 1e-3 });
    }

    #[test]
    fn comm_fault_evictions_default_to_empty_and_lossless_conditions() {
        let cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
        assert!(cfg.comm_fault_evictions().is_empty());
        assert_eq!(cfg.effective_conditions(), cfg.conditions);
    }

    #[test]
    fn the_snapshot_ring_is_kept_exactly_when_the_schedule_rejoins() {
        use crate::conditions::FaultEvent;
        let crash = |rejoin| {
            let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
            cfg.iterations = 40;
            cfg.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
                worker: 2,
                start: 10,
                rejoin,
            });
            cfg
        };
        let uniform = TrainConfig::small(ModelKind::ResNetLike, 4);
        assert_eq!(uniform.snapshot_depth(), None);
        assert_eq!(
            crash(Some(20)).snapshot_depth(),
            Some(DEFAULT_SNAPSHOT_DEPTH)
        );
        assert_eq!(crash(None).snapshot_depth(), None);
        assert_eq!(crash(Some(40)).snapshot_depth(), None, "back after the run");
        // A comm-fault eviction is a crash that never rejoins.
        let mut evicting = crash(None);
        evicting.conditions = ClusterConditions::uniform();
        evicting.comm_faults = Some(CommFaultSpec {
            seed: 7,
            drop: 0.75,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_rounds: 0,
            retry_budget: 2,
            timeout_s: 1e-3,
        });
        assert!(!evicting.comm_fault_evictions().is_empty());
        assert_eq!(evicting.snapshot_depth(), None);
    }

    #[test]
    fn brutal_fault_schedules_evict_and_compilation_is_idempotent() {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
        cfg.iterations = 40;
        cfg.comm_faults = Some(CommFaultSpec {
            seed: 7,
            drop: 0.75,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_rounds: 0,
            retry_budget: 2,
            timeout_s: 1e-3,
        });
        let evictions = cfg.comm_fault_evictions();
        assert!(
            !evictions.is_empty(),
            "a 75% drop rate with budget 2 must evict someone in 4x40 rounds"
        );
        // At most one eviction per worker, at a round where the worker was present.
        let mut workers_seen = std::collections::HashSet::new();
        for &(w, r) in &evictions {
            assert!(workers_seen.insert(w), "worker {w} evicted twice");
            assert!(cfg.conditions.is_present(w, r));
        }
        // Effective conditions make the evicted workers absent from their eviction
        // round on, and recompiling against them changes nothing (idempotence).
        let effective = cfg.effective_conditions();
        for &(w, r) in &evictions {
            assert!(!effective.is_present(w, r));
            assert!(!effective.is_present(w, cfg.iterations - 1));
        }
        let mut recompiled = cfg.clone();
        recompiled.conditions = effective.clone();
        assert!(recompiled.comm_fault_evictions().is_empty());
        assert_eq!(recompiled.effective_conditions(), effective);
    }

    #[test]
    fn mild_fault_schedules_keep_everyone_alive() {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
        cfg.iterations = 60;
        cfg.comm_faults = Some(CommFaultSpec {
            seed: 11,
            drop: 0.05,
            duplicate: 0.05,
            corrupt: 0.02,
            delay: 0.05,
            delay_rounds: 0,
            retry_budget: 6,
            timeout_s: 1e-3,
        });
        assert!(cfg.comm_fault_evictions().is_empty());
        assert_eq!(cfg.effective_conditions(), cfg.conditions);
    }

    #[test]
    fn optimizer_spec_builds_the_right_optimizer() {
        assert_eq!(OptimizerSpec::adam(0.0).build().name(), "adam");
        assert_eq!(OptimizerSpec::sgd(0.9, 0.0).build().name(), "sgd");
    }

    #[test]
    fn checkpoint_spec_cadence_and_paths() {
        let spec = CheckpointSpec::new(5, "/tmp/ckpts");
        assert!(spec.validate().is_ok());
        assert!(!spec.due(0) && spec.due(4) && spec.due(9));
        assert_eq!(
            spec.path_for(4),
            std::path::PathBuf::from("/tmp/ckpts/ckpt-4")
        );
        assert!(CheckpointSpec::new(0, "x").validate().is_err());
        assert!(CheckpointSpec::new(1, "").validate().is_err());
    }

    #[test]
    fn ps_outages_suppress_comm_fault_evictions_on_down_rounds() {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
        cfg.iterations = 40;
        cfg.comm_faults = Some(CommFaultSpec {
            seed: 7,
            drop: 0.75,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_rounds: 0,
            retry_budget: 2,
            timeout_s: 1e-3,
        });
        let baseline = cfg.comm_fault_evictions();
        assert!(!baseline.is_empty());
        // Take the PS down exactly at the first eviction round: that worker sends no
        // envelopes there, so its eviction moves later (or disappears).
        let (victim, round) = baseline[0];
        cfg.ps_faults = Some(PsFaultSpec {
            seed: 0,
            windows: vec![(round, 1)],
            flaky: 0.0,
        });
        let shifted = cfg.comm_fault_evictions();
        assert!(
            !shifted.contains(&(victim, round)),
            "no eviction can happen at a ps-down round"
        );
        assert!(shifted.iter().all(|&(_, r)| r != round));
    }
}
