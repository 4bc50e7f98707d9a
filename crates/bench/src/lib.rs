//! Experiment harness reproducing every table and figure of the SelSync paper.
//!
//! Each `fig*`/`table*` function regenerates one artefact of the paper's evaluation
//! section and returns the data as a [`Table`] (CSV/markdown-renderable). The binaries
//! in `src/bin/` are thin wrappers; `run_all` executes everything and writes CSVs under
//! `bench_results/`.
//!
//! Scaling: the paper's runs train to full convergence on 16 V100s. The harness defaults
//! to a *scaled* setup ([`Scale`], plus each experiment's own doc comment) so the whole
//! suite finishes on a laptop; set the environment variable `SELSYNC_SCALE=full` for the
//! larger configuration (more iterations and the paper's 16 workers).

use selsync::algorithms;
use selsync::checkpoint::Checkpoint;
use selsync::config::{AlgorithmSpec, CheckpointSpec, TrainConfig};
use selsync::report::RunReport;
use selsync_data::partition::{build_all, PartitionScheme};
use selsync_metrics::kde::{gaussian_kde, kde_distance};
use selsync_metrics::table::{fmt_f, Table};
use selsync_nn::cost::{compute_time_ms, fits_in_memory, memory_bytes, DeviceProfile};
use selsync_nn::model::{ModelKind, PaperModel};
use selsync_tensor::Tensor;

/// The checkpoint/resume flags `scenario_run`, `scenario_replay` and
/// `scenario_cluster` share: `--ckpt-every N`, `--ckpt-dir DIR`, `--ckpt-keep N`,
/// `--halt ROUND` and `--resume IMAGE` (docs/RECOVERY.md).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CheckpointArgs {
    /// `--ckpt-every`: write an image every N rounds.
    pub every: Option<usize>,
    /// `--ckpt-dir`: where images land.
    pub dir: Option<String>,
    /// `--ckpt-keep`: retain only the newest N images.
    pub keep: Option<usize>,
    /// `--halt`: stop right after writing the image of this round.
    pub halt: Option<usize>,
    /// `--resume`: the image to continue from.
    pub resume: Option<String>,
}

impl CheckpointArgs {
    /// Parse `flag` and its operand when it is one of the shared flags. `Ok(true)`:
    /// consumed (the caller skips both words); `Ok(false)`: not one of these.
    pub fn take(&mut self, flag: &str, value: Option<&String>) -> Result<bool, String> {
        let value = || value.ok_or_else(|| format!("{flag} needs a value"));
        let number = || -> Result<usize, String> {
            let value = value()?;
            value
                .parse()
                .map_err(|_| format!("{flag} expects a non-negative integer, got {value:?}"))
        };
        match flag {
            "--ckpt-every" => self.every = Some(number()?),
            "--ckpt-keep" => self.keep = Some(number()?),
            "--halt" => self.halt = Some(number()?),
            "--ckpt-dir" => self.dir = Some(value()?.clone()),
            "--resume" => self.resume = Some(value()?.clone()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The `[checkpoint]` policy the flags ask for — `None` when neither
    /// `--ckpt-every` nor `--halt` was given. Images land in `--ckpt-dir`, else in
    /// `default_dir`; with neither the directory is an error.
    pub fn spec(&self, default_dir: Option<String>) -> Result<Option<CheckpointSpec>, String> {
        let every = match (self.every, self.halt) {
            (None, None) if self.dir.is_some() || self.keep.is_some() => {
                return Err("--ckpt-dir/--ckpt-keep need --ckpt-every (or --halt)".into())
            }
            (None, None) => return Ok(None),
            (Some(every), _) => every,
            // `--halt R` alone writes exactly one image: the one at round R.
            (None, Some(halt)) => halt + 1,
        };
        let dir = self.dir.clone().or(default_dir).ok_or_else(|| {
            "--ckpt-every/--halt need --ckpt-dir (images must land somewhere durable)".to_string()
        })?;
        Ok(Some(CheckpointSpec {
            every,
            dir,
            halt_after: self.halt,
            keep: self.keep,
        }))
    }

    /// The `--resume` image, read and checked against the run's `cfg` by
    /// [`read_resume_image`].
    pub fn resume_image(&self, cfg: &TrainConfig) -> Result<Option<Checkpoint>, String> {
        self.resume
            .as_deref()
            .map(|path| read_resume_image(path, cfg))
            .transpose()
    }
}

/// Read a recovery image for `--resume` into a run of `cfg`. Every SelSync driver
/// resumes an image of any backend (docs/RECOVERY.md, "Cross-backend resume"), so
/// what is rejected here — with a one-line diagnosis instead of the driver's panic —
/// is a tag no backend writes, an image of a different configuration (another
/// scenario, `--delta`, `--quick`, …) and a trace prefix the event codec rejects.
pub fn read_resume_image(path: &str, cfg: &TrainConfig) -> Result<Checkpoint, String> {
    let ckpt = Checkpoint::read_file(path)?;
    ckpt.check_resumable(cfg)
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(ckpt)
}

/// How large the experiments are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Quick runs (default): 8 workers, a few hundred iterations per run.
    Quick,
    /// Full runs: the paper's 16 workers and a few thousand iterations per run.
    Full,
}

impl Scale {
    /// Read the scale from the `SELSYNC_SCALE` environment variable (`full` or `quick`).
    pub fn from_env() -> Scale {
        match std::env::var("SELSYNC_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Cluster size for training runs.
    pub fn workers(&self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Full => 16,
        }
    }

    /// Iterations for training runs.
    pub fn iterations(&self) -> usize {
        match self {
            Scale::Quick => 400,
            Scale::Full => 3000,
        }
    }
}

/// Training configuration used by the convergence experiments at the given scale.
pub fn experiment_config(model: ModelKind, scale: Scale) -> TrainConfig {
    let mut cfg = TrainConfig::small(model, scale.workers());
    cfg.batch_size = if scale == Scale::Full { 32 } else { 16 };
    cfg.iterations = scale.iterations();
    cfg.eval_every = (cfg.iterations / 10).max(1);
    cfg.train_samples = if scale == Scale::Full { 16_384 } else { 4_096 };
    cfg.test_samples = if scale == Scale::Full { 2_048 } else { 512 };
    cfg.eval_samples = 512;
    cfg
}

/// Run one algorithm on one model at the given scale.
pub fn run_algo(model: ModelKind, algo: AlgorithmSpec, scale: Scale) -> RunReport {
    let mut cfg = experiment_config(model, scale);
    cfg.algorithm = algo;
    algorithms::run(&cfg)
}

/// Write a table as CSV under `bench_results/<name>.csv` (directory created on demand).
pub fn write_csv(name: &str, table: &Table) {
    let dir = std::path::Path::new("bench_results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, table.to_csv()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Print a table with a title and also persist it as CSV.
pub fn emit(name: &str, title: &str, table: &Table) {
    println!("\n### {title}\n");
    println!("{}", table.to_markdown());
    write_csv(name, table);
}

// ---------------------------------------------------------------------------
// Fig. 1a — relative throughput vs cluster size (communication overhead)
// ---------------------------------------------------------------------------

/// Fig. 1a: training throughput relative to one worker as the PS cluster grows, for the
/// four paper models over a 5 Gbps network. Computed from the cost model (the quantity
/// the paper measures is bandwidth-bound, not statistics-bound).
pub fn fig1a_relative_throughput() -> Table {
    let net = selsync_comm::NetworkModel::paper_5gbps();
    let device = DeviceProfile::v100();
    let batch = 32usize;
    let cluster_sizes = [1usize, 2, 4, 8, 16];

    let mut table = Table::new(vec![
        "model",
        "workers",
        "throughput_samples_per_s",
        "relative_throughput",
    ]);
    for kind in ModelKind::all() {
        let m = PaperModel::build(kind, 1);
        let tc = compute_time_ms(&m.nominal, batch, &device) / 1e3;
        let single = batch as f64 / tc;
        for &n in &cluster_sizes {
            let ts = if n == 1 {
                0.0
            } else {
                net.ps_sync_time(m.nominal.wire_bytes, n)
            };
            let throughput = (n * batch) as f64 / (tc + ts);
            table.push_row(vec![
                kind.paper_name().to_string(),
                n.to_string(),
                fmt_f(throughput, 1),
                fmt_f(throughput / single, 3),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 1b — FedAvg on IID vs non-IID data
// ---------------------------------------------------------------------------

/// Fig. 1b: FedAvg accuracy on IID vs label-sharded non-IID data (ResNet-like/CIFAR10-like
/// with 1 label per worker, VGG-like/CIFAR100-like with 10 labels per worker, 10 workers).
pub fn fig1b_fedavg_iid_vs_noniid(scale: Scale) -> Table {
    let mut table = Table::new(vec!["model", "data", "final_accuracy_%", "best_accuracy_%"]);
    for (kind, labels_per_worker) in [
        (ModelKind::ResNetLike, 1usize),
        (ModelKind::VggLike, 10usize),
    ] {
        for noniid in [false, true] {
            let mut cfg = experiment_config(kind, scale);
            cfg.workers = 10;
            cfg.algorithm = AlgorithmSpec::FedAvg { c: 1.0, e: 0.1 };
            cfg.non_iid_labels_per_worker = if noniid {
                Some(labels_per_worker)
            } else {
                None
            };
            let report = algorithms::run(&cfg);
            table.push_row(vec![
                kind.paper_name().to_string(),
                if noniid {
                    "non-IID".to_string()
                } else {
                    "IID".to_string()
                },
                fmt_f(report.final_metric as f64, 2),
                fmt_f(report.best_metric as f64, 2),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 2 — compute time and memory vs batch size
// ---------------------------------------------------------------------------

/// Fig. 2a/2b: per-iteration compute time and memory against batch size on a Tesla K80,
/// from the nominal model footprints.
pub fn fig2_batchsize_costs() -> Table {
    let device = DeviceProfile::tesla_k80();
    let mut table = Table::new(vec![
        "model",
        "batch_size",
        "compute_time_ms",
        "memory_GB",
        "fits_in_12GB",
    ]);
    for kind in ModelKind::all() {
        let m = PaperModel::build(kind, 1);
        for batch in [32usize, 64, 128, 256, 512, 1024] {
            let t = compute_time_ms(&m.nominal, batch, &device);
            let mem = memory_bytes(&m.nominal, batch) as f64 / 1e9;
            table.push_row(vec![
                kind.paper_name().to_string(),
                batch.to_string(),
                fmt_f(t, 1),
                fmt_f(mem, 2),
                fits_in_memory(&m.nominal, batch, &device).to_string(),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 3 — gradient KDE early vs late in training
// ---------------------------------------------------------------------------

/// Fig. 3: width of the gradient distribution (90% KDE mass) early vs late in training,
/// for the ResNet-like and Transformer-like models.
pub fn fig3_gradient_kde(scale: Scale) -> Table {
    let steps = scale.iterations().min(600);
    let mut table = Table::new(vec![
        "model",
        "phase",
        "kde_mass_width_90",
        "kde_peak_density",
        "mean_abs_gradient",
    ]);
    for kind in [ModelKind::ResNetLike, ModelKind::TransformerLike] {
        let mut cfg = experiment_config(kind, scale);
        cfg.workers = 1;
        let data = build_training_data(kind, &cfg);
        let mut model = PaperModel::build(kind, 21);
        let mut opt = cfg.optimizer.build();
        let mut early = Vec::new();
        let mut late = Vec::new();
        for step in 0..steps {
            let idx: Vec<usize> = (0..cfg.batch_size)
                .map(|i| (step * cfg.batch_size + i) % data.len())
                .collect();
            let (x, y) = data.batch(&idx);
            model.forward_backward(&x, &y);
            let grads = model.grads_flat();
            if step < 10 {
                early.extend(grads.iter().step_by(7).cloned());
            }
            if step >= steps - 10 {
                late.extend(grads.iter().step_by(7).cloned());
            }
            let mut params = model.params_flat();
            opt.step(&mut params, &grads, cfg.lr.lr_at(0, step));
            model.set_params_flat(&params);
        }
        for (phase, sample) in [("early", &early), ("late", &late)] {
            let kde = gaussian_kde(sample, 128, None);
            let peak = kde.density.iter().cloned().fold(0.0f32, f32::max);
            let mean_abs = sample.iter().map(|g| g.abs()).sum::<f32>() / sample.len().max(1) as f32;
            table.push_row(vec![
                kind.paper_name().to_string(),
                phase.to_string(),
                format!("{:.6}", kde.mass_width(0.9)),
                format!("{peak:.2}"),
                format!("{mean_abs:.6}"),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 4 — Hessian top eigenvalue vs gradient variance
// ---------------------------------------------------------------------------

/// Fig. 4: the largest Hessian eigenvalue and the first-order gradient variance sampled
/// along a training trajectory (ResNet-like and VGG-like).
pub fn fig4_hessian_vs_variance(scale: Scale) -> Table {
    use selsync_hessian::hvp::ModelBatchOracle;
    use selsync_hessian::power::top_eigenvalue;
    use selsync_hessian::variance::gradient_variance;

    let steps = scale.iterations().min(300);
    let sample_every = (steps / 10).max(1);
    let mut table = Table::new(vec![
        "model",
        "step",
        "hessian_top_eigenvalue",
        "gradient_variance",
    ]);
    for kind in [ModelKind::ResNetLike, ModelKind::VggLike] {
        let mut cfg = experiment_config(kind, scale);
        cfg.workers = 1;
        let data = build_training_data(kind, &cfg);
        let mut model = PaperModel::build(kind, 31);
        let mut opt = cfg.optimizer.build();
        for step in 0..steps {
            let idx: Vec<usize> = (0..cfg.batch_size)
                .map(|i| (step * cfg.batch_size + i) % data.len())
                .collect();
            let (x, y) = data.batch(&idx);
            model.forward_backward(&x, &y);
            let grads = model.grads_flat();
            if step % sample_every == 0 {
                let var = gradient_variance(&grads);
                let params = model.params_flat();
                let eig = {
                    let mut oracle = ModelBatchOracle::new(&mut model, &x, &y);
                    top_eigenvalue(&mut oracle, &params, 4, 1e-2, 17).eigenvalue
                };
                table.push_row(vec![
                    kind.paper_name().to_string(),
                    step.to_string(),
                    format!("{eig:.4}"),
                    format!("{var:.8}"),
                ]);
            }
            let mut params = model.params_flat();
            opt.step(&mut params, &grads, cfg.lr.lr_at(0, step));
            model.set_params_flat(&params);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 5 — Δ(g_i) vs convergence
// ---------------------------------------------------------------------------

/// Fig. 5: the relative gradient change `Δ(g_i)` alongside the test metric over a BSP
/// training run, for all four models.
pub fn fig5_gradchange_vs_convergence(scale: Scale) -> Table {
    let mut table = Table::new(vec!["model", "iteration", "delta_g", "test_metric", "lr"]);
    for kind in ModelKind::all() {
        let report = run_algo(kind, AlgorithmSpec::Bsp, scale);
        for p in &report.history {
            table.push_row(vec![
                kind.paper_name().to_string(),
                p.iteration.to_string(),
                format!("{:.5}", p.delta_g),
                format!("{:.3}", p.test_metric),
                format!("{:.5}", p.lr),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 8 — overheads: Δ(g_i) computation and SelDP partitioning
// ---------------------------------------------------------------------------

/// Fig. 8a: wall-clock overhead of the `Δ(g_i)` computation per iteration for different
/// EWMA window sizes, measured on gradients of each model's (analogue) parameter count.
pub fn fig8a_tracker_overhead() -> Table {
    use selsync::tracker::{GradStatistic, GradientTracker};
    let mut table = Table::new(vec!["model", "window", "mean_update_time_us"]);
    for kind in ModelKind::all() {
        let model = PaperModel::build(kind, 1);
        let dim = model.param_count();
        let grad: Vec<f32> = (0..dim)
            .map(|i| ((i * 37) % 97) as f32 * 1e-3 - 0.05)
            .collect();
        for window in [25usize, 50, 100, 200] {
            let mut tracker = GradientTracker::new(GradStatistic::SqNorm, 0.16, window);
            let reps = 2000;
            let start = std::time::Instant::now();
            for _ in 0..reps {
                let _ = tracker.update(&grad);
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
            table.push_row(vec![
                kind.paper_name().to_string(),
                window.to_string(),
                fmt_f(us, 2),
            ]);
        }
    }
    table
}

/// Fig. 8b: one-time partitioning cost of DefDP vs SelDP at the paper's dataset
/// cardinalities (CIFAR10/100: 50 K, ImageNet-1K: 1.28 M, WikiText-103: ~2.9 M contexts).
pub fn fig8b_partitioning_overhead() -> Table {
    let datasets = [
        ("CIFAR10", 50_000usize),
        ("CIFAR100", 50_000),
        ("ImageNet-1K", 1_281_167),
        ("WikiText-103", 2_900_000),
    ];
    let workers = 16;
    let mut table = Table::new(vec!["dataset", "samples", "scheme", "partition_time_ms"]);
    for (name, samples) in datasets {
        for scheme in [PartitionScheme::DefDp, PartitionScheme::SelDp] {
            let start = std::time::Instant::now();
            let parts = build_all(scheme, samples, workers);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(parts.len(), workers);
            table.push_row(vec![
                name.to_string(),
                samples.to_string(),
                scheme.name().to_string(),
                fmt_f(ms, 2),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 9 — SelDP vs DefDP under SelSync
// ---------------------------------------------------------------------------

/// Fig. 9: SelSync (δ = 0.25, gradient aggregation during the sync phase, as in the
/// paper's figure) trained with SelDP vs DefDP, for all four models.
pub fn fig9_seldp_vs_defdp(scale: Scale) -> Table {
    let mut table = Table::new(vec![
        "model",
        "partitioning",
        "final_metric",
        "best_metric",
        "lssr",
    ]);
    for kind in ModelKind::all() {
        for scheme in [PartitionScheme::SelDp, PartitionScheme::DefDp] {
            let mut cfg = experiment_config(kind, scale);
            cfg.partition = scheme;
            cfg.algorithm = AlgorithmSpec::selsync_ga(0.25);
            let report = algorithms::run(&cfg);
            table.push_row(vec![
                kind.paper_name().to_string(),
                scheme.name().to_string(),
                fmt_f(report.final_metric as f64, 2),
                fmt_f(report.best_metric as f64, 2),
                fmt_f(report.lssr, 3),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 10 — gradient vs parameter aggregation
// ---------------------------------------------------------------------------

/// Fig. 10: SelSync (δ = 0.25, SelDP) with gradient vs parameter aggregation.
pub fn fig10_ga_vs_pa(scale: Scale) -> Table {
    let mut table = Table::new(vec![
        "model",
        "aggregation",
        "final_metric",
        "best_metric",
        "lssr",
    ]);
    for kind in ModelKind::all() {
        for (label, algo) in [
            ("PA", AlgorithmSpec::selsync(0.25)),
            ("GA", AlgorithmSpec::selsync_ga(0.25)),
        ] {
            let report = run_algo(kind, algo, scale);
            table.push_row(vec![
                kind.paper_name().to_string(),
                label.to_string(),
                fmt_f(report.final_metric as f64, 2),
                fmt_f(report.best_metric as f64, 2),
                fmt_f(report.lssr, 3),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Fig. 11 — weight distributions under BSP / PA / GA
// ---------------------------------------------------------------------------

/// Fig. 11: train BSP, SelSync+PA and SelSync+GA on the ResNet-like model while
/// recording a residual-block weight matrix at the half-way point and at the end, then
/// compare the weight distributions (90%-mass KDE width and KDE distance to BSP).
pub fn fig11_weight_distribution(scale: Scale) -> Table {
    let kind = ModelKind::ResNetLike;
    let layer_index = 2; // weight matrix of the first residual block's first Linear layer
    let configs = [
        ("BSP", AlgorithmSpec::Bsp),
        ("SelSync+PA", AlgorithmSpec::selsync(0.25)),
        ("SelSync+GA", AlgorithmSpec::selsync_ga(0.25)),
    ];

    let mut snapshots: Vec<(String, Vec<f32>, Vec<f32>)> = Vec::new();
    for (label, algo) in configs {
        let mut cfg = experiment_config(kind, scale);
        cfg.iterations = cfg.iterations.min(400);
        cfg.algorithm = algo;
        let half = cfg.iterations / 2;
        let (mid, fin) = run_with_weight_snapshots(&cfg, layer_index, half);
        snapshots.push((label.to_string(), mid, fin));
    }

    let mut table = Table::new(vec![
        "run",
        "checkpoint",
        "kde_mass_width_90",
        "kde_distance_to_bsp",
    ]);
    for (phase_idx, phase) in ["mid", "final"].iter().enumerate() {
        let bsp_sample = if phase_idx == 0 {
            &snapshots[0].1
        } else {
            &snapshots[0].2
        };
        let bsp_kde = gaussian_kde(bsp_sample, 128, None);
        for (label, mid, fin) in &snapshots {
            let sample = if phase_idx == 0 { mid } else { fin };
            let kde = gaussian_kde(sample, 128, None);
            table.push_row(vec![
                label.clone(),
                phase.to_string(),
                format!("{:.5}", kde.mass_width(0.9)),
                format!("{:.5}", kde_distance(&kde, &bsp_kde)),
            ]);
        }
    }
    table
}

/// Run BSP or SelSync while snapshotting the chosen layer's weights at `mid_iteration`
/// and at the end (helper for Fig. 11).
fn run_with_weight_snapshots(
    cfg: &TrainConfig,
    layer_index: usize,
    mid_iteration: usize,
) -> (Vec<f32>, Vec<f32>) {
    use selsync::aggregation::{average, AggregationMode};
    use selsync::policy::SyncPolicy;
    use selsync::sim::{Simulator, WorkerStep};
    use selsync::SyncDecision;

    let (delta, aggregation, is_bsp) = match cfg.algorithm {
        AlgorithmSpec::Bsp => (0.0, AggregationMode::Gradient, true),
        AlgorithmSpec::SelSync {
            delta, aggregation, ..
        } => (delta, aggregation, false),
        _ => panic!("run_with_weight_snapshots supports BSP and SelSync only"),
    };
    let policy = SyncPolicy::new(delta);
    let mut sim = Simulator::new(cfg);
    let n = sim.num_workers();
    let workers: Vec<usize> = (0..n).collect();
    let mut steps: Vec<WorkerStep> = Vec::new();
    let mut mid = Vec::new();
    for it in 0..cfg.iterations {
        let lr = sim.lr_at(it);
        sim.plan_round(&workers, &mut steps);
        let round = sim.run_round(&steps);
        let sync = is_bsp || policy.decide_from_deltas(&round.deltas) == SyncDecision::Synchronize;
        if sync {
            match aggregation {
                AggregationMode::Gradient => {
                    let avg = average(sim.round_grads());
                    sim.apply_round_shared(&workers, &avg, lr);
                }
                AggregationMode::Parameter => {
                    sim.apply_round_own(&steps, lr);
                    let avg = sim.average_params();
                    sim.set_all_params(&avg);
                }
            }
        } else {
            sim.apply_round_own(&steps, lr);
        }
        if it == mid_iteration {
            let params = sim.average_params();
            mid = sim.layer_weights(&params, layer_index);
        }
    }
    let params = sim.average_params();
    let fin = sim.layer_weights(&params, layer_index);
    (mid, fin)
}

// ---------------------------------------------------------------------------
// Fig. 12 — non-IID data-injection vs FedAvg
// ---------------------------------------------------------------------------

/// Fig. 12: FedAvg vs SelSync with data-injection `(α, β, δ)` on label-sharded non-IID
/// data (ResNet-like/CIFAR10-like and VGG-like/CIFAR100-like).
pub fn fig12_noniid_injection(scale: Scale) -> Table {
    let mut table = Table::new(vec![
        "model",
        "method",
        "final_accuracy_%",
        "best_accuracy_%",
        "lssr",
    ]);
    for (kind, labels) in [
        (ModelKind::ResNetLike, 1usize),
        (ModelKind::VggLike, 10usize),
    ] {
        let methods: Vec<(String, AlgorithmSpec)> = vec![
            (
                "FedAvg(1,0.25)".to_string(),
                AlgorithmSpec::FedAvg { c: 1.0, e: 0.25 },
            ),
            (
                "(0.5,0.5,0.05)".to_string(),
                AlgorithmSpec::selsync_injected(0.5, 0.5, 0.05),
            ),
            (
                "(0.5,0.5,0.3)".to_string(),
                AlgorithmSpec::selsync_injected(0.5, 0.5, 0.3),
            ),
            (
                "(0.75,0.75,0.3)".to_string(),
                AlgorithmSpec::selsync_injected(0.75, 0.75, 0.3),
            ),
        ];
        for (label, algo) in methods {
            let mut cfg = experiment_config(kind, scale);
            cfg.workers = 10;
            cfg.non_iid_labels_per_worker = Some(labels);
            cfg.algorithm = algo;
            let report = algorithms::run(&cfg);
            table.push_row(vec![
                kind.paper_name().to_string(),
                label,
                fmt_f(report.final_metric as f64, 2),
                fmt_f(report.best_metric as f64, 2),
                fmt_f(report.lssr, 3),
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------------------
// Table I — full comparison
// ---------------------------------------------------------------------------

/// Table I: BSP, FedAvg (4 configurations), SSP (2 thresholds) and SelSync (δ = 0.3,
/// 0.5) on the requested models, reporting iterations, LSSR, final metric, convergence
/// difference, whether BSP is outperformed and the speedup.
pub fn table1_comparison(models: &[ModelKind], scale: Scale) -> Table {
    let mut table = Table::new(vec![
        "model",
        "method",
        "iterations",
        "lssr",
        "metric",
        "conv_diff",
        "outperforms_bsp",
        "speedup_same_iters",
        "speedup_to_bsp_target",
    ]);
    for &kind in models {
        let bsp = run_algo(kind, AlgorithmSpec::Bsp, scale);
        let others: Vec<AlgorithmSpec> = vec![
            AlgorithmSpec::FedAvg { c: 1.0, e: 0.25 },
            AlgorithmSpec::FedAvg { c: 1.0, e: 0.125 },
            AlgorithmSpec::FedAvg { c: 0.5, e: 0.25 },
            AlgorithmSpec::FedAvg { c: 0.5, e: 0.125 },
            AlgorithmSpec::Ssp { staleness: 100 },
            AlgorithmSpec::Ssp { staleness: 200 },
            AlgorithmSpec::selsync(0.3),
            AlgorithmSpec::selsync(0.5),
        ];
        push_table1_row(&mut table, kind, &bsp, &bsp);
        for algo in others {
            let report = run_algo(kind, algo, scale);
            push_table1_row(&mut table, kind, &report, &bsp);
        }
    }
    table
}

fn push_table1_row(table: &mut Table, kind: ModelKind, report: &RunReport, bsp: &RunReport) {
    let is_bsp = report.algorithm == "BSP";
    let lssr = if report.algorithm.starts_with("SSP") {
        "-".to_string()
    } else {
        fmt_f(report.lssr, 3)
    };
    let speedup_target = report
        .speedup_to_baseline_target(bsp)
        .map(|s| format!("{s:.2}x"))
        .unwrap_or_else(|| "-".to_string());
    table.push_row(vec![
        kind.paper_name().to_string(),
        report.algorithm.clone(),
        report.iterations.to_string(),
        lssr,
        fmt_f(report.final_metric as f64, 2),
        if is_bsp {
            "0.00".to_string()
        } else {
            format!("{:+.2}", report.convergence_diff(bsp))
        },
        if is_bsp {
            "N/A".to_string()
        } else {
            report.outperforms(bsp).to_string()
        },
        if is_bsp {
            "1.00x".to_string()
        } else {
            format!("{:.2}x", report.raw_time_speedup(bsp))
        },
        if is_bsp {
            "1.00x".to_string()
        } else {
            speedup_target
        },
    ]);
}

// ---------------------------------------------------------------------------
// Scenario sweep — δ grid × seed set × policy arms over one built-in scenario
// ---------------------------------------------------------------------------

/// Aggregated δ-grid/seed/policy sweep over the `elastic-churn` built-in (the
/// time-varying scenario the adaptive-δ arm targets: rolling worker churn makes
/// sparse fixed thresholds miss the target accuracy), as a table: one row per arm
/// with mean ± spread statistics. `Quick` runs the CI-sized variant; `Full` sweeps
/// the full built-in.
pub fn scenario_sweep_summary(scale: Scale) -> Table {
    let scenario = selsync_scenario::builtin("elastic-churn").expect("built-in scenario");
    let scenario = match scale {
        Scale::Quick => selsync_scenario::sweep::quick_variant(&scenario),
        Scale::Full => scenario,
    };
    let report = selsync_scenario::run_sweep(&scenario).expect("valid sweep");
    let mut table = Table::new(vec![
        "arm",
        "final_metric_mean",
        "final_metric_spread",
        "lssr_mean",
        "sync_steps_mean",
        "switches_mean",
        "syncs_to_target_mean",
        "reached_target",
        "seeds",
        "sim_time_s_mean",
    ]);
    for arm in &report.arms {
        table.push_row(vec![
            arm.label.clone(),
            fmt_f(arm.final_metric.mean, 3),
            fmt_f(arm.final_metric.spread, 3),
            fmt_f(arm.lssr.mean, 4),
            fmt_f(arm.sync_steps.mean, 1),
            fmt_f(arm.switches.mean, 1),
            arm.syncs_to_target
                .map(|s| fmt_f(s, 1))
                .unwrap_or_else(|| "-".into()),
            arm.reached_target.to_string(),
            report.seeds.len().to_string(),
            fmt_f(arm.sim_time_s.mean, 3),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

/// Build the training dataset used by a config (shared by the single-replica figure
/// drivers that bypass the simulator).
pub fn build_training_data(kind: ModelKind, cfg: &TrainConfig) -> selsync_data::Dataset {
    use selsync_data::synthetic::{gaussian_mixture, markov_tokens, TokenSpec};
    match selsync::sim::mixture_spec(kind, cfg.train_samples) {
        Some(spec) => gaussian_mixture(&spec, cfg.seed ^ 0xDA7A),
        None => markov_tokens(
            &TokenSpec::wikitext_like(cfg.train_samples),
            cfg.seed ^ 0xDA7A,
        ),
    }
}

/// Synthetic gradient vector of a model's (analogue) dimensionality, used by the
/// criterion micro-benchmarks.
pub fn synthetic_gradient(kind: ModelKind) -> Vec<f32> {
    let dim = PaperModel::build(kind, 1).param_count();
    (0..dim)
        .map(|i| (((i * 2654435761) % 1000) as f32 / 1000.0 - 0.5) * 0.01)
        .collect()
}

/// A deterministic input batch for micro-benchmarks.
pub fn synthetic_batch(kind: ModelKind, batch: usize) -> (Tensor, Vec<usize>) {
    let model = PaperModel::build(kind, 1);
    let x = Tensor::from_fn(batch, model.input_dim(), |r, c| {
        (((r * 31 + c * 7) % 13) as f32 - 6.0) * 0.1
    });
    let y = (0..batch).map(|i| i % model.output_dim()).collect();
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_shows_sublinear_scaling() {
        let t = fig1a_relative_throughput();
        assert_eq!(t.len(), 4 * 5);
        let row = t
            .rows
            .iter()
            .find(|r| r[0] == "VGG11" && r[1] == "16")
            .expect("VGG11/16 row present");
        let rel: f64 = row[3].parse().unwrap();
        assert!(
            rel < 8.0,
            "relative throughput {rel} should be far from linear"
        );
    }

    #[test]
    fn fig2_transformer_oom_appears() {
        let t = fig2_batchsize_costs();
        let row = t
            .rows
            .iter()
            .find(|r| r[0] == "Transformer" && r[1] == "128")
            .expect("Transformer/128 row");
        assert_eq!(row[4], "false");
    }

    #[test]
    fn fig8b_partitioning_is_a_one_time_small_cost() {
        let t = fig8b_partitioning_overhead();
        assert_eq!(t.len(), 8);
        for row in &t.rows {
            let ms: f64 = row[3].parse().unwrap();
            assert!(
                ms < 10_000.0,
                "partitioning should take seconds at most, got {ms} ms"
            );
        }
    }

    #[test]
    fn checkpoint_args_parse_the_shared_flags_and_build_the_spec() {
        let words: Vec<String> = "--ckpt-every 5 --halt 9 --ckpt-keep 2 --resume img"
            .split(' ')
            .map(String::from)
            .collect();
        let mut args = CheckpointArgs::default();
        for pair in words.chunks(2) {
            assert_eq!(args.take(&pair[0], pair.get(1)), Ok(true));
        }
        assert_eq!(args.take("--seed", None), Ok(false));
        assert!(args.take("--halt", Some(&"x".to_string())).is_err());
        assert!(args.take("--ckpt-dir", None).is_err());
        assert_eq!(args.resume.as_deref(), Some("img"));
        let spec = args.spec(Some("d".into())).unwrap().expect("a spec");
        assert_eq!(
            (spec.every, spec.halt_after, spec.keep),
            (5, Some(9), Some(2))
        );
        assert_eq!(spec.dir, "d");
        assert!(args.spec(None).is_err(), "no directory anywhere");

        let halt_only = CheckpointArgs {
            halt: Some(9),
            dir: Some("x".into()),
            ..Default::default()
        };
        assert_eq!(halt_only.spec(None).unwrap().expect("a spec").every, 10);
        assert_eq!(CheckpointArgs::default().spec(None), Ok(None));
        let stray = CheckpointArgs {
            keep: Some(1),
            ..Default::default()
        };
        assert!(stray.spec(Some("d".into())).is_err());
    }

    #[test]
    fn resume_images_of_every_backend_are_accepted_and_unknown_tags_rejected() {
        let dir = std::env::temp_dir().join(format!("selsync-bench-resume-{}", std::process::id()));
        let cfg = experiment_config(ModelKind::ResNetLike, Scale::Quick);
        let fingerprint = selsync::checkpoint::config_fingerprint(&cfg);
        for tag in ["sim", "threaded", "process", "deposit"] {
            let path = dir.join(tag);
            Checkpoint::new(tag, fingerprint, 0)
                .write_file(&path)
                .expect("write");
            let read = read_resume_image(&path.to_string_lossy(), &cfg);
            if tag == "deposit" {
                let err = read.expect_err("no backend writes this tag");
                assert!(err.contains("unknown \"deposit\" backend"), "{err}");
                assert!(!err.contains('\n'), "one line: {err}");
            } else {
                assert_eq!(read.expect("accepted").backend, tag);
                // The same image under any other configuration (`--delta`, `--quick`,
                // another scenario) is refused, whatever backend wrote it.
                let mut other = cfg.clone();
                other.algorithm = AlgorithmSpec::selsync(0.125);
                let err = read_resume_image(&path.to_string_lossy(), &other)
                    .expect_err("fingerprint mismatch");
                assert!(err.contains("different configuration"), "{err}");
                assert!(!err.contains('\n'), "one line: {err}");
            }
        }
        assert!(read_resume_image(&dir.join("missing").to_string_lossy(), &cfg).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_resume_image_whose_trace_does_not_decode_is_a_one_line_diagnosis() {
        let path = std::env::temp_dir().join(format!("selsync-bench-trace-{}", std::process::id()));
        let cfg = experiment_config(ModelKind::ResNetLike, Scale::Quick);
        let mut image = Checkpoint::new("sim", selsync::checkpoint::config_fingerprint(&cfg), 0);
        image.trace = vec!["{\"k\":\"ps_down\",\"round\":0}".into(), "{\"k\":".into()];
        image.write_file(&path).expect("write");
        let err = read_resume_image(&path.to_string_lossy(), &cfg).expect_err("bad trace");
        assert!(
            err.contains("checkpoint trace line 1 does not decode"),
            "{err}"
        );
        assert!(!err.contains('\n'), "one line: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scale_from_env_defaults_to_quick() {
        assert_eq!(Scale::Quick.workers(), 8);
        assert_eq!(Scale::Full.workers(), 16);
        assert!(Scale::Quick.iterations() < Scale::Full.iterations());
    }

    #[test]
    fn synthetic_helpers_match_model_shapes() {
        for kind in ModelKind::all() {
            let g = synthetic_gradient(kind);
            assert_eq!(g.len(), PaperModel::build(kind, 1).param_count());
            let (x, y) = synthetic_batch(kind, 8);
            assert_eq!(x.rows(), 8);
            assert_eq!(y.len(), 8);
        }
    }
}
