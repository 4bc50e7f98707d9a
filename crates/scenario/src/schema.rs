//! The declarative scenario schema and its TOML binding.
//!
//! A [`Scenario`] fully describes one reproducible experiment over an imperfect
//! cluster: the workload (model, batch size, iterations, dataset sizes), the cluster
//! topology and per-worker device heterogeneity, the base network, the SelSync δ, and a
//! timed fault schedule. `scenario + seed` determines every bit of the resulting run
//! reports, so a scenario file doubles as a regression-test fixture.
//!
//! Each block of a scenario file has one key table (`Scenario::walk` and the
//! `Tagged` impls below): every key once, in dump order, with its default. The
//! `codec` walker runs those tables to parse, to dump and to list the keys.

use crate::codec::{named, Codec, Mode, Tagged};
use crate::toml;
use selsync::conditions::{ClusterConditions, FaultEvent};
use selsync::config::{CheckpointSpec, RejoinPull, TrainConfig};
use selsync::policy::PolicySpec;
use selsync_comm::faults::{CommFaultSpec, PsFaultSpec};
use selsync_comm::NetworkModel;
use selsync_nn::model::ModelKind;
use selsync_tracelog::TraceGranularity;

/// Declarative description of a fault, mirroring
/// [`selsync::conditions::FaultEvent`] with file-friendly field names and units.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// `kind = "slowdown"`: worker computes `factor`× slower during the window.
    Slowdown {
        /// Affected worker.
        worker: usize,
        /// First affected iteration.
        start: usize,
        /// Window length in iterations.
        duration: usize,
        /// Compute-time multiplier.
        factor: f64,
    },
    /// `kind = "crash"`: worker is absent from `start` until `rejoin` (forever if
    /// omitted).
    Crash {
        /// Affected worker.
        worker: usize,
        /// First absent iteration.
        start: usize,
        /// First iteration back, if any.
        rejoin: Option<usize>,
    },
    /// `kind = "bandwidth"`: cluster-wide bandwidth multiplied by `factor` (< 1 =
    /// degraded) during the window.
    Bandwidth {
        /// First affected iteration.
        start: usize,
        /// Window length in iterations.
        duration: usize,
        /// Bandwidth multiplier.
        factor: f64,
    },
    /// `kind = "latency"`: `extra_ms` added to one-way latency during the window.
    Latency {
        /// First affected iteration.
        start: usize,
        /// Window length in iterations.
        duration: usize,
        /// Added one-way latency in milliseconds.
        extra_ms: f64,
    },
}

impl FaultSpec {
    /// Compile to the runtime event type.
    pub fn to_event(&self) -> FaultEvent {
        match *self {
            FaultSpec::Slowdown {
                worker,
                start,
                duration,
                factor,
            } => FaultEvent::Slowdown {
                worker,
                start,
                duration,
                factor,
            },
            FaultSpec::Crash {
                worker,
                start,
                rejoin,
            } => FaultEvent::Crash {
                worker,
                start,
                rejoin,
            },
            FaultSpec::Bandwidth {
                start,
                duration,
                factor,
            } => FaultEvent::BandwidthDegradation {
                start,
                duration,
                factor,
            },
            FaultSpec::Latency {
                start,
                duration,
                extra_ms,
            } => FaultEvent::LatencySpike {
                start,
                duration,
                extra_latency_s: extra_ms / 1e3,
            },
        }
    }
}

/// The sweep block of a scenario: a δ grid × seed set × extra policy arms, expanded by
/// [`crate::sweep::run_sweep`] into one SelSync run per (arm, seed) and aggregated into
/// a single mean ± spread comparison report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Fixed-δ arms (each entry is one `SelSync(d=…)` arm).
    pub deltas: Vec<f32>,
    /// Seeds every arm runs at (the spread axis).
    pub seeds: Vec<u64>,
    /// Additional policy arms (scheduled / adaptive δ).
    pub policies: Vec<PolicySpec>,
}

impl SweepSpec {
    /// The default grid used when a scenario has no `[sweep]` block: a small δ grid
    /// around the paper's operating points, three seeds derived from the scenario
    /// seed, and the default adaptive arm.
    pub fn default_grid(seed: u64) -> Self {
        SweepSpec {
            deltas: vec![0.0, 0.05, 0.15, 0.3, 0.6],
            seeds: vec![seed, seed.wrapping_add(1), seed.wrapping_add(2)],
            policies: vec![PolicySpec::adaptive_default()],
        }
    }

    /// Total number of arms (fixed δs plus policies).
    pub fn arm_count(&self) -> usize {
        self.deltas.len() + self.policies.len()
    }

    /// Check internal consistency. (Whether the seeds fit a scenario file is
    /// [`Scenario::validate`]'s integer rule.)
    pub fn validate(&self) -> Result<(), String> {
        if self.arm_count() == 0 {
            return Err("sweep needs at least one arm (a delta or a policy)".into());
        }
        if self.seeds.is_empty() {
            return Err("sweep needs at least one seed".into());
        }
        for &d in &self.deltas {
            if !(d >= 0.0 && d.is_finite()) {
                return Err("sweep deltas must be finite non-negative numbers".into());
            }
        }
        for p in &self.policies {
            p.validate().map_err(|e| format!("sweep policy: {e}"))?;
        }
        Ok(())
    }
}

/// The optional `[trace]` block: deterministic event-log capture for the scenario's
/// SelSync arm (see `docs/EVENT_LOG.md`). Disabled by default — the block is only
/// serialized when any setting differs from the default, so pre-existing scenario
/// dumps stay byte-identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSpec {
    /// Capture the event log (`enabled = true`).
    pub enabled: bool,
    /// Where the runner writes the encoded log; `None` means the caller decides
    /// (the CLI tools derive `<scenario>.trace.jsonl` next to their other outputs).
    pub path: Option<String>,
    /// Event granularity: `"full"` (default; every event kind) or `"rounds"`
    /// (header, membership and round decisions only).
    pub granularity: TraceGranularity,
}

impl TraceSpec {
    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(path) = &self.path {
            if path.is_empty() {
                return Err("trace path must not be empty when given".into());
            }
        }
        Ok(())
    }
}

/// Which transport carries the cluster's wire envelopes
/// (`transport = "memory" | "socket"` in the `[scenario]` section; memory when
/// omitted). The in-memory transports serve the simulator and thread-per-worker
/// backends; `"socket"` selects the multi-process backend (`scenario_cluster`),
/// which runs one OS process per worker over UDS — or TCP when
/// `transport_addr = "host:port"` is given. See `docs/TRANSPORT.md`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportSpec {
    /// Shared-address-space delivery (the default; both in-process backends).
    #[default]
    Memory,
    /// Length-prefixed socket transport between OS processes: UDS when `addr`
    /// is `None`, TCP on the given `host:port` otherwise.
    Socket {
        /// TCP listen/connect address; `None` selects a Unix domain socket.
        addr: Option<String>,
    },
}

/// Base network description in file-friendly units.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Link bandwidth in Gbit/s.
    pub bandwidth_gbps: f64,
    /// One-way latency in milliseconds.
    pub latency_ms: f64,
}

impl NetworkSpec {
    /// The paper's 5 Gbps testbed.
    pub fn paper() -> Self {
        NetworkSpec {
            bandwidth_gbps: 5.0,
            latency_ms: 1.0,
        }
    }

    /// Compile to the cost-model type (software overhead keeps the paper's value).
    pub fn to_model(&self) -> NetworkModel {
        let mut net = NetworkModel::paper_5gbps();
        net.bandwidth_bps = self.bandwidth_gbps * 1e9;
        net.latency_s = self.latency_ms / 1e3;
        net
    }
}

/// A declarative, deterministic experiment over an imperfect cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used in reports and file names).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// RNG seed: same scenario + same seed ⇒ bit-identical reports.
    pub seed: u64,
    /// Cluster size.
    pub workers: usize,
    /// Workload model (`"resnet"`, `"vgg"`, `"alexnet"`, `"transformer"`).
    pub model: ModelKind,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Training iterations.
    pub iterations: usize,
    /// Training-set size.
    pub train_samples: usize,
    /// Held-out set size.
    pub test_samples: usize,
    /// Evaluate every this many iterations.
    pub eval_every: usize,
    /// Evaluation sample cap.
    pub eval_samples: usize,
    /// SelSync threshold δ used by the SelSync arm of the comparison.
    pub delta: f32,
    /// Base interconnect.
    pub network: NetworkSpec,
    /// Per-worker base speed multipliers (empty = homogeneous fleet).
    pub heterogeneity: Vec<f64>,
    /// Timed fault schedule.
    pub faults: Vec<FaultSpec>,
    /// Optional sweep block (δ grid × seed set × policy arms); `None` means
    /// [`crate::sweep::run_sweep`] falls back to [`SweepSpec::default_grid`].
    pub sweep: Option<SweepSpec>,
    /// Rejoin-pull semantics for the thread-per-worker driver
    /// (`rejoin_pull = "wall-clock" | "scheduled"` in the `[scenario]` section;
    /// wall-clock when omitted). `"scheduled"` makes crash/rejoin schedules
    /// deterministic in the threaded driver — a rejoiner pulls the last *scheduled*
    /// global from the PS snapshot ring — extending simulator parity to faulty
    /// schedules. The simulator itself is unaffected.
    pub rejoin_pull: RejoinPull,
    /// Transport selection for the cluster binary (`transport = "socket"` plus
    /// optional `transport_addr` in the `[scenario]` section; in-memory when
    /// omitted). Only `scenario_cluster` acts on it — the in-process backends
    /// always use memory transports.
    pub transport: TransportSpec,
    /// Optional event-log capture settings (`[trace]` section; disabled when omitted).
    pub trace: TraceSpec,
    /// Optional message-fault weather (`[comm_faults]` section; lossless links when
    /// omitted). Per-leg drop/duplicate/corrupt/delay rates plus the retry budget
    /// and logical timeout — a pure function of `(seed, worker, round, attempt,
    /// leg)`, so faulty runs stay bit-deterministic (see `docs/COMM_FAULTS.md`).
    pub comm_faults: Option<CommFaultSpec>,
    /// Optional parameter-server availability schedule (`[ps_faults]` section; the
    /// server is perfectly reliable when omitted). Scheduled outage windows plus a
    /// seeded per-round brownout probability — a pure function of `(seed, round)`,
    /// so outage runs stay bit-deterministic (see `docs/RECOVERY.md`).
    pub ps_faults: Option<PsFaultSpec>,
    /// Optional durable-checkpoint policy (`[checkpoint]` section; nothing is
    /// written when omitted): both SelSync backends persist a full recovery image
    /// every `every` rounds under `dir`. The `halt_after` kill switch is a
    /// runtime/CLI knob, not normally part of a scenario file.
    pub checkpoint: Option<CheckpointSpec>,
    /// Optional non-IID data partitioning (`non_iid_labels_per_worker = K` in the
    /// `[scenario]` section; IID when omitted): each worker's shard draws from at
    /// most `K` labels of the label-grouped training set, built once with the
    /// simulator's shard construction. All backends honor it; data-injection over
    /// non-IID shards stays simulator-only.
    pub non_iid_labels_per_worker: Option<usize>,
}

named!(ModelKind:
    ModelKind::ResNetLike => "resnet",
    ModelKind::VggLike => "vgg",
    ModelKind::AlexLike => "alexnet",
    ModelKind::TransformerLike => "transformer");
named!(RejoinPull: RejoinPull::WallClock => "wall-clock", RejoinPull::Scheduled => "scheduled");
named!(TraceGranularity:
    TraceGranularity::Full => TraceGranularity::Full.as_str(),
    TraceGranularity::Rounds => TraceGranularity::Rounds.as_str());

/// The `transport` key; the socket address is the separate `transport_addr` key.
#[derive(Clone, Copy, PartialEq)]
enum Transport {
    Memory,
    Socket,
}

named!(Transport: Transport::Memory => "memory", Transport::Socket => "socket");

impl Tagged for FaultSpec {
    fn variants() -> Vec<(&'static str, Self)> {
        let (worker, start, duration, factor) = (0, 0, 0, 0.0);
        vec![
            (
                "slowdown",
                FaultSpec::Slowdown {
                    worker,
                    start,
                    duration,
                    factor,
                },
            ),
            (
                "crash",
                FaultSpec::Crash {
                    worker,
                    start,
                    rejoin: None,
                },
            ),
            (
                "bandwidth",
                FaultSpec::Bandwidth {
                    start,
                    duration,
                    factor,
                },
            ),
            (
                "latency",
                FaultSpec::Latency {
                    start,
                    duration,
                    extra_ms: factor,
                },
            ),
        ]
    }

    // Each key once, for every kind that has it.
    fn keys(&mut self, c: &mut Codec<'_>) {
        use FaultSpec::*;
        if let Slowdown { worker, .. } | Crash { worker, .. } = self {
            c.req("worker", worker);
        }
        let (Slowdown { start, .. }
        | Crash { start, .. }
        | Bandwidth { start, .. }
        | Latency { start, .. }) = self;
        c.req("start", start);
        if let Slowdown { duration, .. } | Bandwidth { duration, .. } | Latency { duration, .. } =
            self
        {
            c.req("duration", duration);
        }
        match self {
            Slowdown { factor, .. } | Bandwidth { factor, .. } => c.req("factor", factor),
            Crash { rejoin, .. } => c.elide("rejoin", rejoin, &None),
            Latency { extra_ms, .. } => c.req("extra_ms", extra_ms),
        }
    }
}

impl Tagged for PolicySpec {
    fn variants() -> Vec<(&'static str, Self)> {
        let (starts, deltas) = (Vec::new(), Vec::new());
        vec![
            ("fixed", PolicySpec::Fixed { delta: 0.0 }),
            ("schedule", PolicySpec::Schedule { starts, deltas }),
            ("adaptive", PolicySpec::adaptive_default()),
            ("variance", PolicySpec::variance_default()),
        ]
    }

    // The two adaptive policies share every key but their re-entry trigger.
    fn keys(&mut self, c: &mut Codec<'_>) {
        use PolicySpec::*;
        let trigger = if let Adaptive { .. } = self {
            "spike"
        } else {
            "var_ratio"
        };
        match self {
            Fixed { delta } => c.req("delta", delta),
            Schedule { starts, deltas } => {
                c.req("starts", starts);
                c.req("deltas", deltas);
            }
            Adaptive {
                delta_explore,
                delta_exploit,
                factor,
                warmup,
                settle,
                patience,
                spike: ratio,
            }
            | Variance {
                delta_explore,
                delta_exploit,
                factor,
                warmup,
                settle,
                patience,
                var_ratio: ratio,
            } => {
                c.req("delta_explore", delta_explore);
                c.req("delta_exploit", delta_exploit);
                c.req("factor", factor);
                c.req("warmup", warmup);
                c.req("settle", settle);
                c.req("patience", patience);
                c.req(trigger, ratio);
            }
        }
    }
}

impl Scenario {
    /// A minimal steady scenario with the given shape; callers adjust fields from here.
    pub fn base(name: &str, workers: usize, iterations: usize) -> Self {
        Scenario {
            name: name.to_string(),
            description: String::new(),
            seed: 42,
            workers,
            model: ModelKind::ResNetLike,
            batch_size: 16,
            iterations,
            train_samples: 2048,
            test_samples: 512,
            eval_every: (iterations / 10).max(1),
            eval_samples: 256,
            delta: 0.3,
            network: NetworkSpec::paper(),
            heterogeneity: Vec::new(),
            faults: Vec::new(),
            sweep: None,
            rejoin_pull: RejoinPull::WallClock,
            transport: TransportSpec::Memory,
            trace: TraceSpec::default(),
            comm_faults: None,
            ps_faults: None,
            checkpoint: None,
            non_iid_labels_per_worker: None,
        }
    }

    /// Compile the heterogeneity profile + fault schedule to runtime conditions.
    ///
    /// The compiled profile is always *explicit* (an omitted `[heterogeneity]` section
    /// becomes `[1.0; workers]`): a scenario fully specifies its cluster, so no driver
    /// default — such as SSP's paper straggler for profile-less configs — may leak into
    /// a scenario comparison. Every algorithm arm runs on the same cluster.
    pub fn to_conditions(&self) -> ClusterConditions {
        let speeds = if self.heterogeneity.is_empty() {
            vec![1.0; self.workers]
        } else {
            self.heterogeneity.clone()
        };
        let mut c = ClusterConditions::with_speeds(speeds);
        for fault in &self.faults {
            c.faults.push(fault.to_event());
        }
        c
    }

    /// The fully-specified training configuration for one algorithm arm. Every arm gets
    /// identical workload, data, seed, network and conditions — only the algorithm
    /// differs, which is what makes the comparison meaningful.
    pub fn train_config(&self, algorithm: selsync::config::AlgorithmSpec) -> TrainConfig {
        let mut cfg = TrainConfig::small(self.model, self.workers);
        cfg.batch_size = self.batch_size;
        cfg.iterations = self.iterations;
        cfg.eval_every = self.eval_every;
        cfg.eval_samples = self.eval_samples;
        cfg.train_samples = self.train_samples;
        cfg.test_samples = self.test_samples;
        cfg.seed = self.seed;
        cfg.network = self.network.to_model();
        cfg.conditions = self.to_conditions();
        cfg.algorithm = algorithm;
        cfg.rejoin_pull = self.rejoin_pull;
        cfg.comm_faults = self.comm_faults;
        cfg.ps_faults = self.ps_faults.clone();
        cfg.checkpoint = self.checkpoint.clone();
        cfg.non_iid_labels_per_worker = self.non_iid_labels_per_worker;
        cfg
    }

    /// Check internal consistency (worker ids, windows, at least one live worker).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must not be empty".into());
        }
        if self.workers == 0 {
            return Err("scenario needs at least one worker".into());
        }
        if self.iterations == 0 {
            return Err("scenario needs at least one iteration".into());
        }
        if self.batch_size == 0 || self.train_samples == 0 || self.test_samples == 0 {
            return Err("batch size and dataset sizes must be positive".into());
        }
        if !(self.delta >= 0.0 && self.delta.is_finite()) {
            return Err("delta must be a finite non-negative number".into());
        }
        // Every integer key must fit a TOML integer (i64), or the dump would not
        // parse back: the write walk names the first one that does not.
        self.encode().finish()?;
        // Written so NaN fails the checks (`NaN > 0.0` and `NaN >= 0.0` are false).
        let network_ok = self.network.bandwidth_gbps > 0.0
            && self.network.bandwidth_gbps.is_finite()
            && self.network.latency_ms >= 0.0
            && self.network.latency_ms.is_finite();
        if !network_ok {
            return Err("network needs finite positive bandwidth and non-negative latency".into());
        }
        if let Some(sweep) = &self.sweep {
            sweep.validate()?;
        }
        if let TransportSpec::Socket { addr: Some(addr) } = &self.transport {
            if addr.is_empty() {
                return Err("transport_addr must not be empty when given".into());
            }
        }
        self.trace.validate()?;
        self.to_conditions()
            .validate(self.workers, self.iterations)?;
        if let Some(spec) = &self.comm_faults {
            spec.validate().map_err(|e| format!("[comm_faults]: {e}"))?;
            // The weather's evictions compile into extra no-rejoin crashes; the
            // *effective* membership schedule must still be a valid cluster (e.g.
            // it must never go fully dark before the run ends).
            let cfg = self.train_config(selsync::config::AlgorithmSpec::selsync(self.delta));
            cfg.effective_conditions()
                .validate(self.workers, self.iterations)
                .map_err(|e| format!("[comm_faults]: evictions break the schedule: {e}"))?;
        }
        if let Some(spec) = &self.ps_faults {
            spec.validate().map_err(|e| format!("[ps_faults]: {e}"))?;
        }
        if let Some(ck) = &self.checkpoint {
            ck.validate().map_err(|e| format!("[checkpoint]: {e}"))?;
        }
        if let Some(labels) = self.non_iid_labels_per_worker {
            // Shards deal the labels round-robin, so together they must hold every
            // class of the model's dataset.
            let Some(task) = selsync::sim::mixture_spec(self.model, 0) else {
                let why = "the LM task has no label shards";
                return Err(format!(
                    "non_iid_labels_per_worker needs a classifier; {why}"
                ));
            };
            if labels.saturating_mul(self.workers) < task.classes {
                return Err(format!(
                    "non_iid_labels_per_worker: {labels} labels x {} workers cannot cover \
                     the model's {} classes",
                    self.workers, task.classes
                ));
            }
        }
        Ok(())
    }

    /// The key table of a scenario file, in dump order: each section's keys, then
    /// the `[[fault]]` and `[[policy]]` tables. Defaults come from
    /// [`Scenario::base`] and the blocks' own constructors.
    fn walk(&mut self, c: &mut Codec<'_>) {
        let d = Scenario::base("", 0, 0);
        c.section("scenario", true, self, &d, |c, s, d| {
            c.req("name", &mut s.name);
            c.opt("description", &mut s.description, &d.description);
            c.req("seed", &mut s.seed);
            c.req("workers", &mut s.workers);
            c.req("model", &mut s.model);
            c.req("batch_size", &mut s.batch_size);
            c.req("iterations", &mut s.iterations);
            c.req("train_samples", &mut s.train_samples);
            c.req("test_samples", &mut s.test_samples);
            c.req("eval_every", &mut s.eval_every);
            c.req("eval_samples", &mut s.eval_samples);
            c.req("delta", &mut s.delta);
            let labels = &mut s.non_iid_labels_per_worker;
            c.elide("non_iid_labels_per_worker", labels, &None);
            c.elide("rejoin_pull", &mut s.rejoin_pull, &d.rejoin_pull);
            // One enum in memory; a kind and an optional address on disk.
            let (mut kind, mut addr) = match &s.transport {
                TransportSpec::Memory => (Transport::Memory, None),
                TransportSpec::Socket { addr } => (Transport::Socket, addr.clone()),
            };
            c.elide("transport", &mut kind, &Transport::Memory);
            c.elide("transport_addr", &mut addr, &None);
            if kind == Transport::Memory && addr.is_some() {
                c.fail("transport_addr requires transport = \"socket\"");
            }
            s.transport = match kind {
                Transport::Memory => TransportSpec::Memory,
                Transport::Socket => TransportSpec::Socket { addr },
            };
        });
        c.section("network", true, &mut self.network, &d.network, |c, n, _| {
            c.req("bandwidth_gbps", &mut n.bandwidth_gbps);
            c.req("latency_ms", &mut n.latency_ms);
        });
        let emit = self.trace != d.trace;
        c.section("trace", emit, &mut self.trace, &d.trace, |c, t, d| {
            c.elide("enabled", &mut t.enabled, &d.enabled);
            c.elide("path", &mut t.path, &d.path);
            c.elide("granularity", &mut t.granularity, &d.granularity);
        });
        // Unset weather and outage seeds replay the scenario seed.
        let weather = CommFaultSpec {
            retry_budget: 3,
            ..CommFaultSpec::lossless(self.seed)
        };
        c.optional("comm_faults", &mut self.comm_faults, weather, |c, f, d| {
            c.opt("seed", &mut f.seed, &d.seed);
            c.opt("drop", &mut f.drop, &d.drop);
            c.opt("duplicate", &mut f.duplicate, &d.duplicate);
            c.opt("corrupt", &mut f.corrupt, &d.corrupt);
            c.opt("delay", &mut f.delay, &d.delay);
            c.elide("delay_rounds", &mut f.delay_rounds, &d.delay_rounds);
            c.opt("retry_budget", &mut f.retry_budget, &d.retry_budget);
            c.opt("timeout_s", &mut f.timeout_s, &d.timeout_s);
        });
        let reliable = PsFaultSpec::reliable(self.seed);
        c.optional("ps_faults", &mut self.ps_faults, reliable, |c, p, d| {
            c.opt("seed", &mut p.seed, &d.seed);
            // Windows are parallel start and duration arrays on disk.
            let keys = ["window_starts", "window_durations"];
            let (mut starts, mut lengths): (Vec<_>, Vec<_>) = p.windows.iter().copied().unzip();
            c.opt(keys[0], &mut starts, &Vec::new());
            c.opt(keys[1], &mut lengths, &Vec::new());
            if starts.len() != lengths.len() {
                c.fail(format!("{} and {} differ in length", keys[0], keys[1]));
            }
            p.windows = starts.into_iter().zip(lengths).collect();
            c.opt("flaky", &mut p.flaky, &d.flaky);
        });
        let images = CheckpointSpec::new(0, "");
        c.optional("checkpoint", &mut self.checkpoint, images, |c, ck, d| {
            c.req("every", &mut ck.every);
            c.req("dir", &mut ck.dir);
            c.elide("halt_after", &mut ck.halt_after, &d.halt_after);
            c.elide("keep", &mut ck.keep, &d.keep);
        });
        let grid = SweepSpec {
            deltas: Vec::new(),
            seeds: vec![self.seed],
            policies: Vec::new(),
        };
        c.optional("sweep", &mut self.sweep, grid.clone(), |c, sw, d| {
            c.opt("deltas", &mut sw.deltas, &d.deltas);
            c.opt("seeds", &mut sw.seeds, &d.seeds);
        });
        let (emit, speeds) = (!self.heterogeneity.is_empty(), &mut self.heterogeneity);
        c.section("heterogeneity", emit, speeds, &Vec::new(), |c, h, _| {
            c.req("speeds", h)
        });
        c.tables("fault", &mut self.faults);
        // `[[policy]]` tables are the sweep's policy arms; without a `[sweep]`
        // section they sweep over the scenario seed alone.
        let mut policies = self.sweep.clone().map(|sw| sw.policies).unwrap_or_default();
        c.tables("policy", &mut policies);
        if !policies.is_empty() {
            self.sweep.get_or_insert(grid).policies = policies;
        }
    }

    /// The key tables walked in write mode.
    fn encode(&self) -> Codec<'static> {
        let mut c = Codec::new(Mode::Write, None);
        self.clone().walk(&mut c);
        c
    }

    /// Serialize to canonical TOML.
    pub fn to_toml_string(&self) -> String {
        toml::serialize(&self.encode().doc)
    }

    /// Parse a scenario from TOML text. Every key, section and table must be one a
    /// key table declares.
    pub fn from_toml_str(text: &str) -> Result<Self, String> {
        let doc = toml::parse(text).map_err(|e| e.to_string())?;
        if doc.section("scenario").is_none() {
            return Err("missing [scenario] section".into());
        }
        let mut c = Codec::new(Mode::Read, Some(&doc));
        let mut scenario = Scenario::base("", 0, 0);
        scenario.walk(&mut c);
        c.finish()?;
        scenario.validate()?;
        Ok(scenario)
    }
}

/// Every key a scenario file may hold, as `(block, key)` in dump order, listed by
/// the key tables themselves; a tagged table's block is `[[name]] kind`, and every
/// kind is listed.
pub fn declared_keys() -> Vec<(String, &'static str)> {
    let mut c = Codec::new(Mode::List, None);
    Scenario::base("", 0, 0).walk(&mut c);
    c.keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Field;

    fn model_name(kind: ModelKind) -> String {
        match kind.to_value() {
            Some(toml::Value::Str(name)) => name,
            other => panic!("{other:?}"),
        }
    }

    fn model_from_name(name: impl AsRef<str>) -> Result<ModelKind, String> {
        let name = toml::Value::Str(name.as_ref().into());
        ModelKind::from_value(&name).ok_or_else(ModelKind::what)
    }

    fn sample() -> Scenario {
        let mut s = Scenario::base("unit-test", 4, 100);
        s.description = "schema unit test".into();
        s.heterogeneity = vec![1.0, 1.1, 1.0, 1.4];
        s.faults = vec![
            FaultSpec::Slowdown {
                worker: 3,
                start: 20,
                duration: 30,
                factor: 3.0,
            },
            FaultSpec::Crash {
                worker: 1,
                start: 40,
                rejoin: Some(60),
            },
            FaultSpec::Crash {
                worker: 2,
                start: 90,
                rejoin: None,
            },
            FaultSpec::Bandwidth {
                start: 10,
                duration: 25,
                factor: 0.25,
            },
            FaultSpec::Latency {
                start: 10,
                duration: 25,
                extra_ms: 15.0,
            },
        ];
        s.sweep = Some(SweepSpec {
            deltas: vec![0.0, 0.1, 0.3],
            seeds: vec![42, 43],
            policies: vec![
                PolicySpec::adaptive_default(),
                PolicySpec::Schedule {
                    starts: vec![0, 50],
                    deltas: vec![0.0, 0.5],
                },
                PolicySpec::Fixed { delta: 0.25 },
                PolicySpec::variance_default(),
            ],
        });
        s.ps_faults = Some(PsFaultSpec {
            seed: 7,
            windows: vec![(15, 5), (70, 3)],
            flaky: 0.02,
        });
        s.checkpoint = Some(CheckpointSpec {
            every: 25,
            dir: "target/ckpt/unit-test".into(),
            halt_after: None,
            keep: None,
        });
        s
    }

    #[test]
    fn toml_round_trip_is_identity() {
        let s = sample();
        let text = s.to_toml_string();
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(s, parsed);
        // Canonical serialization is a fixed point.
        assert_eq!(text, parsed.to_toml_string());
    }

    #[test]
    fn non_iid_key_round_trips_and_validates() {
        let mut s = Scenario::base("noniid", 3, 10);
        s.non_iid_labels_per_worker = Some(4);
        let text = s.to_toml_string();
        assert!(text.contains("non_iid_labels_per_worker = 4"));
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(s, parsed);
        assert_eq!(
            s.train_config(selsync::config::AlgorithmSpec::selsync(s.delta))
                .non_iid_labels_per_worker,
            Some(4)
        );

        s.non_iid_labels_per_worker = Some(0);
        assert!(s.validate().is_err(), "zero labels per worker");
        s.non_iid_labels_per_worker = Some(2);
        s.model = ModelKind::TransformerLike;
        assert!(s.validate().is_err(), "the LM task has no label shards");
    }

    #[test]
    fn conditions_compilation_matches_schema() {
        let s = sample();
        let c = s.to_conditions();
        assert_eq!(c.base_speed, vec![1.0, 1.1, 1.0, 1.4]);
        assert_eq!(c.faults.len(), 5);
        assert!(
            (c.compute_multiplier(3, 25) - 4.2).abs() < 1e-12,
            "1.4 base x 3.0 slowdown"
        );
        assert!(!c.is_present(1, 50));
        assert!(c.is_present(1, 60));
        assert!(!c.is_present(2, 95));
        let base = NetworkModel::paper_5gbps();
        let net = c.network_at(12, &base);
        assert_eq!(net.bandwidth_bps, base.bandwidth_bps * 0.25);
        assert!((net.latency_s - (base.latency_s + 0.015)).abs() < 1e-12);
    }

    #[test]
    fn train_config_carries_the_whole_scenario() {
        let s = sample();
        let cfg = s.train_config(selsync::config::AlgorithmSpec::selsync(s.delta));
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.iterations, 100);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.conditions, s.to_conditions());
    }

    #[test]
    fn validation_rejects_broken_scenarios() {
        let mut s = sample();
        s.faults.push(FaultSpec::Slowdown {
            worker: 99,
            start: 0,
            duration: 1,
            factor: 2.0,
        });
        assert!(s.validate().is_err());

        let mut s2 = sample();
        s2.workers = 0;
        assert!(s2.validate().is_err());

        let mut s3 = sample();
        s3.delta = f32::NAN;
        assert!(s3.validate().is_err());

        let mut s4 = sample();
        s4.network.bandwidth_gbps = f64::NAN;
        assert!(s4.validate().is_err());
        let mut s5 = sample();
        s5.network.latency_ms = f64::INFINITY;
        assert!(s5.validate().is_err());
    }

    #[test]
    fn sweep_block_round_trips_and_validates() {
        let s = sample();
        let text = s.to_toml_string();
        assert!(text.contains("[sweep]"), "{text}");
        assert!(text.contains("[[policy]]"), "{text}");
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(s.sweep, parsed.sweep);

        // Policies without a [sweep] section still form a sweep over the scenario seed.
        let mut no_section = s.clone();
        no_section.sweep = Some(SweepSpec {
            deltas: Vec::new(),
            seeds: vec![42],
            policies: vec![PolicySpec::adaptive_default()],
        });
        let text = no_section.to_toml_string();
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(no_section.sweep, parsed.sweep);

        // Broken sweeps are rejected.
        let mut bad = s.clone();
        bad.sweep = Some(SweepSpec {
            deltas: vec![f32::NAN],
            seeds: vec![42],
            policies: Vec::new(),
        });
        assert!(bad.validate().is_err());
        let mut empty = s.clone();
        empty.sweep = Some(SweepSpec {
            deltas: Vec::new(),
            seeds: vec![42],
            policies: Vec::new(),
        });
        assert!(empty.validate().is_err());
        assert!(Scenario::from_toml_str(
            &s.to_toml_string()
                .replace("kind = \"adaptive\"", "kind = \"oracle\"")
        )
        .is_err());
    }

    #[test]
    fn rejoin_pull_round_trips_and_defaults_to_wall_clock() {
        // Default: omitted from the TOML, parses back to wall-clock.
        let s = sample();
        assert_eq!(s.rejoin_pull, RejoinPull::WallClock);
        let text = s.to_toml_string();
        assert!(!text.contains("rejoin_pull"), "{text}");

        // Scheduled: serialized explicitly, round-trips, reaches the train config.
        let mut scheduled = sample();
        scheduled.rejoin_pull = RejoinPull::Scheduled;
        let text = scheduled.to_toml_string();
        assert!(text.contains("rejoin_pull = \"scheduled\""), "{text}");
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(parsed.rejoin_pull, RejoinPull::Scheduled);
        assert_eq!(scheduled, parsed);
        let cfg = parsed.train_config(selsync::config::AlgorithmSpec::selsync(0.1));
        assert_eq!(cfg.rejoin_pull, RejoinPull::Scheduled);

        // An explicit wall-clock value parses too; unknown values are rejected.
        let explicit = text.replace(
            "rejoin_pull = \"scheduled\"",
            "rejoin_pull = \"wall-clock\"",
        );
        assert_eq!(
            Scenario::from_toml_str(&explicit).unwrap().rejoin_pull,
            RejoinPull::WallClock
        );
        let bad = text.replace("rejoin_pull = \"scheduled\"", "rejoin_pull = \"psychic\"");
        assert!(Scenario::from_toml_str(&bad)
            .unwrap_err()
            .contains("rejoin_pull"));
    }

    #[test]
    fn trace_block_round_trips_and_defaults_to_disabled() {
        // Default: omitted from the TOML, parses back disabled.
        let s = sample();
        assert_eq!(s.trace, TraceSpec::default());
        let text = s.to_toml_string();
        assert!(!text.contains("[trace]"), "{text}");

        // Enabled with a path and coarse granularity: serialized, round-trips.
        let mut traced = sample();
        traced.trace = TraceSpec {
            enabled: true,
            path: Some("out/run.trace.jsonl".into()),
            granularity: TraceGranularity::Rounds,
        };
        let text = traced.to_toml_string();
        assert!(text.contains("[trace]"), "{text}");
        assert!(text.contains("enabled = true"), "{text}");
        assert!(text.contains("granularity = \"rounds\""), "{text}");
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(traced, parsed);
        assert_eq!(text, parsed.to_toml_string());

        // Default-valued keys are elided: enabled-only blocks carry one key.
        let mut minimal = sample();
        minimal.trace.enabled = true;
        let text = minimal.to_toml_string();
        assert!(text.contains("[trace]\nenabled = true\n"), "{text}");
        assert_eq!(Scenario::from_toml_str(&text).unwrap(), minimal);

        // Unknown granularities and empty paths are rejected.
        let bad = text.replace("enabled = true", "granularity = \"epochs\"");
        assert!(Scenario::from_toml_str(&bad)
            .unwrap_err()
            .contains("granularity"));
        let mut empty_path = sample();
        empty_path.trace.path = Some(String::new());
        assert!(empty_path.validate().is_err());
    }

    #[test]
    fn comm_faults_block_round_trips_and_defaults_to_lossless() {
        // Default: omitted from the TOML, parses back to lossless links.
        let s = sample();
        assert!(s.comm_faults.is_none());
        let text = s.to_toml_string();
        assert!(!text.contains("[comm_faults]"), "{text}");

        // A full block round-trips and reaches the train config.
        let mut faulty = sample();
        faulty.comm_faults = Some(CommFaultSpec {
            seed: 7,
            drop: 0.05,
            duplicate: 0.02,
            corrupt: 0.01,
            delay: 0.04,
            delay_rounds: 0,
            retry_budget: 5,
            timeout_s: 5.0e-3,
        });
        let text = faulty.to_toml_string();
        assert!(text.contains("[comm_faults]"), "{text}");
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(faulty, parsed);
        assert_eq!(text, parsed.to_toml_string());
        let cfg = parsed.train_config(selsync::config::AlgorithmSpec::selsync(0.1));
        assert_eq!(cfg.comm_faults, faulty.comm_faults);

        // Omitted keys default: rates 0, budget 3, timeout 5 ms, weather seed =
        // scenario seed.
        let base_text = Scenario::base("cf", 3, 50).to_toml_string();
        let minimal = format!("{base_text}[comm_faults]\ndrop = 0.01\n");
        let spec = Scenario::from_toml_str(&minimal)
            .unwrap()
            .comm_faults
            .unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.drop, 0.01);
        assert_eq!(spec.duplicate, 0.0);
        assert_eq!(spec.retry_budget, 3);
        assert_eq!(spec.timeout_s, 5.0e-3);

        // Broken rates are rejected with the section name in the error.
        let bad = format!("{base_text}[comm_faults]\ndrop = 1.5\n");
        assert!(Scenario::from_toml_str(&bad)
            .unwrap_err()
            .contains("comm_faults"));
    }

    #[test]
    fn weather_that_blacks_out_the_cluster_is_rejected() {
        // A 95% per-leg failure rate with a single attempt evicts every worker
        // almost immediately; the compiled membership schedule then has fully dark
        // rounds, which validation must refuse just like an all-crash schedule.
        let mut dark = Scenario::base("dark", 3, 50);
        dark.comm_faults = Some(CommFaultSpec {
            seed: 1,
            drop: 0.9,
            duplicate: 0.0,
            corrupt: 0.05,
            delay: 0.0,
            delay_rounds: 0,
            retry_budget: 1,
            timeout_s: 1e-3,
        });
        let err = dark.validate().unwrap_err();
        assert!(err.contains("comm_faults"), "{err}");
    }

    #[test]
    fn default_grid_is_valid() {
        let grid = SweepSpec::default_grid(42);
        grid.validate().unwrap();
        assert!(grid.arm_count() >= 3);
        assert!(grid.deltas.contains(&0.0), "needs the BSP-equivalent arm");
        assert_eq!(grid.seeds.len(), 3);
    }

    #[test]
    fn model_names_round_trip() {
        for kind in ModelKind::all() {
            assert_eq!(model_from_name(model_name(kind)).unwrap(), kind);
        }
        assert!(model_from_name("gpt5").is_err());
    }

    #[test]
    fn ps_faults_block_round_trips_and_defaults_to_reliable() {
        // Default: a base scenario has no [ps_faults] section.
        let base_text = Scenario::base("ps", 3, 50).to_toml_string();
        assert!(!base_text.contains("[ps_faults]"), "{base_text}");

        // The sample carries one: serialized as parallel arrays, round-trips, and
        // reaches the train config.
        let s = sample();
        let text = s.to_toml_string();
        assert!(text.contains("[ps_faults]"), "{text}");
        assert!(text.contains("window_starts = [15, 70]"), "{text}");
        assert!(text.contains("window_durations = [5, 3]"), "{text}");
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(s.ps_faults, parsed.ps_faults);
        assert_eq!(text, parsed.to_toml_string());
        let cfg = parsed.train_config(selsync::config::AlgorithmSpec::selsync(0.1));
        assert_eq!(cfg.ps_faults, s.ps_faults);

        // Omitted keys default: availability seed = scenario seed, no windows,
        // flaky 0.
        let minimal = format!("{base_text}[ps_faults]\nflaky = 0.1\n");
        let spec = Scenario::from_toml_str(&minimal)
            .unwrap()
            .ps_faults
            .unwrap();
        assert_eq!(spec.seed, 42);
        assert!(spec.windows.is_empty());
        assert_eq!(spec.flaky, 0.1);

        // Mismatched parallel arrays and broken rates are rejected with the
        // section name in the error.
        let ragged = format!("{base_text}[ps_faults]\nwindow_starts = [5]\n");
        assert!(Scenario::from_toml_str(&ragged)
            .unwrap_err()
            .contains("ps_faults"));
        let bad_rate = format!("{base_text}[ps_faults]\nflaky = 1.5\n");
        assert!(Scenario::from_toml_str(&bad_rate)
            .unwrap_err()
            .contains("ps_faults"));
    }

    #[test]
    fn checkpoint_block_round_trips_and_defaults_to_disabled() {
        // Default: a base scenario writes no checkpoints.
        let base_text = Scenario::base("ck", 3, 50).to_toml_string();
        assert!(!base_text.contains("[checkpoint]"), "{base_text}");

        // The sample's block round-trips and reaches the train config.
        let s = sample();
        let text = s.to_toml_string();
        assert!(text.contains("[checkpoint]"), "{text}");
        assert!(text.contains("every = 25"), "{text}");
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(s.checkpoint, parsed.checkpoint);
        assert_eq!(text, parsed.to_toml_string());
        let cfg = parsed.train_config(selsync::config::AlgorithmSpec::selsync(0.1));
        assert_eq!(cfg.checkpoint, s.checkpoint);

        // halt_after (a runtime kill switch) still round-trips when set.
        let mut halting = sample();
        halting.checkpoint.as_mut().unwrap().halt_after = Some(40);
        let text = halting.to_toml_string();
        assert!(text.contains("halt_after = 40"), "{text}");
        assert_eq!(Scenario::from_toml_str(&text).unwrap(), halting);

        // A zero cadence or empty directory is rejected.
        let bad = text.replace("every = 25", "every = 0");
        assert!(Scenario::from_toml_str(&bad)
            .unwrap_err()
            .contains("checkpoint"));
        let mut no_dir = sample();
        no_dir.checkpoint.as_mut().unwrap().dir = String::new();
        assert!(no_dir.validate().is_err());
    }

    #[test]
    fn transport_key_round_trips_and_defaults_to_memory() {
        // Default: omitted from the TOML, parses back to memory.
        let s = sample();
        assert_eq!(s.transport, TransportSpec::Memory);
        let text = s.to_toml_string();
        assert!(!text.contains("transport"), "{text}");

        // UDS socket: serialized explicitly, round-trips.
        let mut uds = sample();
        uds.transport = TransportSpec::Socket { addr: None };
        let text = uds.to_toml_string();
        assert!(text.contains("transport = \"socket\""), "{text}");
        assert!(!text.contains("transport_addr"), "{text}");
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(uds, parsed);
        assert_eq!(text, parsed.to_toml_string());

        // TCP socket: the address rides along.
        let mut tcp = sample();
        tcp.transport = TransportSpec::Socket {
            addr: Some("127.0.0.1:9044".into()),
        };
        let text = tcp.to_toml_string();
        assert!(
            text.contains("transport_addr = \"127.0.0.1:9044\""),
            "{text}"
        );
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(tcp, parsed);

        // An explicit memory value parses; unknown transports, addresses without
        // the socket transport, and empty addresses are rejected.
        let explicit = text
            .replace("transport = \"socket\"\n", "transport = \"memory\"\n")
            .replace("transport_addr = \"127.0.0.1:9044\"\n", "");
        assert_eq!(
            Scenario::from_toml_str(&explicit).unwrap().transport,
            TransportSpec::Memory
        );
        let bad = text.replace("transport = \"socket\"", "transport = \"pigeon\"");
        assert!(Scenario::from_toml_str(&bad)
            .unwrap_err()
            .contains("transport"));
        let orphan = text.replace("transport = \"socket\"\n", "");
        assert!(Scenario::from_toml_str(&orphan)
            .unwrap_err()
            .contains("transport_addr"));
        let mut empty = sample();
        empty.transport = TransportSpec::Socket {
            addr: Some(String::new()),
        };
        assert!(empty.validate().is_err());
    }

    #[test]
    fn delay_rounds_key_round_trips_and_defaults_to_zero() {
        // Default: a zero delay_rounds is elided from the dump.
        let mut faulty = sample();
        faulty.comm_faults = Some(CommFaultSpec::lossless(7));
        let text = faulty.to_toml_string();
        assert!(!text.contains("delay_rounds"), "{text}");

        // Non-zero: serialized, round-trips, reaches the train config.
        let mut spec = CommFaultSpec::lossless(7);
        spec.delay = 0.1;
        spec.delay_rounds = 96;
        faulty.comm_faults = Some(spec);
        let text = faulty.to_toml_string();
        assert!(text.contains("delay_rounds = 96"), "{text}");
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(faulty, parsed);
        assert_eq!(text, parsed.to_toml_string());
        assert_eq!(
            parsed.comm_faults.unwrap().delay_rounds,
            96,
            "delay_rounds survives the round trip"
        );
    }

    #[test]
    fn checkpoint_keep_round_trips_and_rejects_zero() {
        // keep is elided when unset (the sample has none) and round-trips when set.
        let s = sample();
        assert!(
            !s.to_toml_string().contains("keep"),
            "{}",
            s.to_toml_string()
        );
        let mut rotating = sample();
        rotating.checkpoint.as_mut().unwrap().keep = Some(3);
        let text = rotating.to_toml_string();
        assert!(text.contains("keep = 3"), "{text}");
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(rotating, parsed);
        assert_eq!(text, parsed.to_toml_string());

        // keep = 0 would retain nothing and is rejected at validation time.
        let bad = text.replace("keep = 3", "keep = 0");
        assert!(Scenario::from_toml_str(&bad).unwrap_err().contains("keep"));
    }

    #[test]
    fn variance_policy_round_trips() {
        let s = sample();
        let text = s.to_toml_string();
        assert!(text.contains("kind = \"variance\""), "{text}");
        assert!(text.contains("var_ratio"), "{text}");
        let parsed = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(s.sweep, parsed.sweep);
        assert!(parsed
            .sweep
            .unwrap()
            .policies
            .iter()
            .any(|p| matches!(p, PolicySpec::Variance { .. })));
    }

    #[test]
    fn canonical_dumps_are_pinned_across_commits() {
        // The dump of every built-in, and of every benchmark workload file put through
        // parse -> dump. The digests were recorded at the commit before parse and dump
        // became one key table per block: a codec that moves one byte of a canonical
        // dump fails here.
        let digest = |s: &Scenario| selsync_comm::wire::checksum(s.to_toml_string().as_bytes());
        let builtins = [
            ("steady", 0x5554_A1DE_5F76_F830),
            ("transient-straggler", 0xFA36_8A2C_F7FB_1903),
            ("degraded-network", 0x2220_12B4_7FD1_6F46),
            ("crash-rejoin", 0x60F9_E4EC_1020_A4A3),
            ("heterogeneous-fleet", 0x7E9C_F9A6_5EAA_98F9),
            ("elastic-churn", 0xB2E5_BC70_F735_4C65),
            ("flaky-links", 0xAB7B_B1F6_5495_88A2),
            ("ps-brownout", 0x2D14_D29E_64AF_0E3B),
        ];
        for (name, want) in builtins {
            let got = digest(&crate::library::builtin(name).unwrap());
            assert_eq!(got, want, "{name} digest {got:#018X}");
        }
        let workloads = [
            ("proc-bsp-vgg", 0x22F9_71FD_796D_DC1F),
            ("proc-faulty-resnet", 0x3C4B_04D0_B453_B902),
            ("proc-local-resnet", 0xB4E4_78A7_72BD_4F99),
            ("sim-w8-resnet", 0x37BB_C7CA_51BD_BB27),
            ("single-resnet", 0x75B3_E2C5_5D54_DE47),
            ("thr-mixed-resnet", 0x49CF_DB1C_7E0D_44CA),
        ];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/workloads");
        let mut on_disk: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                e.ok()?
                    .file_name()
                    .to_str()?
                    .strip_suffix(".toml")
                    .map(String::from)
            })
            .collect();
        on_disk.sort();
        assert_eq!(
            on_disk,
            workloads.map(|(name, _)| name),
            "pin every workload file"
        );
        for (name, want) in workloads {
            let text = std::fs::read_to_string(format!("{dir}/{name}.toml")).unwrap();
            let got = digest(&Scenario::from_toml_str(&text).unwrap());
            assert_eq!(got, want, "{name} digest {got:#018X}");
        }
    }

    #[test]
    fn unknown_keys_sections_and_tables_are_rejected() {
        // A typo is an error naming the block and the key, never a silently
        // applied default.
        let base = Scenario::base("typo", 3, 50).to_toml_string();
        let crash = "[[fault]]\nkind = \"crash\"\nworker = 1\nstart = 5\n";
        let cases = [
            (
                format!("{base}[comm_faults]\nretry_buget = 8\n"),
                "[comm_faults]: unknown key \"retry_buget\"",
            ),
            (
                base.replace("workers = 3", "workers = 3\nworker = 3"),
                "[scenario]: unknown key \"worker\"",
            ),
            (
                format!("{base}[netwrok]\nlatency_ms = 2.0\n"),
                "[netwrok]: no such section",
            ),
            (format!("{base}[[faults]]\n"), "[[faults]]: no such section"),
            (
                format!("{base}{crash}factor = 2.0\n"),
                "[[fault]] #0: unknown key \"factor\"",
            ),
            (format!("top = 1\n{base}"), "top level: unknown key \"top\""),
        ];
        for (text, want) in cases {
            let err = Scenario::from_toml_str(&text).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
        // The same blocks without the typos parse.
        let fine = format!("{base}[comm_faults]\nretry_budget = 8\n{crash}");
        Scenario::from_toml_str(&fine).unwrap();
    }

    #[test]
    fn every_integer_key_must_fit_a_toml_integer() {
        // A weather seed above i64::MAX has no TOML spelling, so its dump could not
        // parse back.
        let mut s = Scenario::base("huge", 3, 50);
        s.comm_faults = Some(CommFaultSpec::lossless(u64::MAX));
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("[comm_faults]: seed must fit a TOML integer"),
            "{err}"
        );
        // One rule covers every integer key.
        let mut huge_seed = Scenario::base("huge", 3, 50);
        huge_seed.seed = u64::MAX;
        let mut huge_sweep = Scenario::base("huge", 3, 50);
        huge_sweep.sweep = Some(SweepSpec::default_grid(u64::MAX));
        let mut huge_cadence = Scenario::base("huge", 3, 50);
        huge_cadence.checkpoint = Some(CheckpointSpec::new(usize::MAX, "ckpt"));
        for (s, key) in [
            (huge_seed, "[scenario]: seed"),
            (huge_sweep, "[sweep]: seeds"),
            (huge_cadence, "[checkpoint]: every"),
        ] {
            let err = s.validate().unwrap_err();
            assert!(err.contains(key), "{err}");
        }
        // The largest TOML integer still round-trips.
        let mut edge = Scenario::base("edge", 3, 50);
        edge.comm_faults = Some(CommFaultSpec::lossless(i64::MAX as u64));
        assert_eq!(Scenario::from_toml_str(&edge.to_toml_string()), Ok(edge));
    }

    #[test]
    fn non_iid_shards_must_cover_the_model_classes() {
        // Two workers with two labels each hold 4 of ResNetLike's 10 classes;
        // building those shards would panic mid-run.
        let mut s = Scenario::base("shards", 2, 10);
        s.non_iid_labels_per_worker = Some(2);
        let err = s.validate().unwrap_err();
        assert!(err.contains("non_iid_labels_per_worker"), "{err}");
        // The class count is the dataset's: the fewest labels that cover it pass
        // and build, one fewer is rejected.
        for model in [
            ModelKind::ResNetLike,
            ModelKind::VggLike,
            ModelKind::AlexLike,
        ] {
            let mut s = Scenario::base("shards", 3, 10);
            s.model = model;
            let cfg = s.train_config(selsync::config::AlgorithmSpec::selsync(s.delta));
            let (train, _) = selsync::sim::build_datasets(&cfg);
            let fewest = train.num_classes.div_ceil(3);
            s.non_iid_labels_per_worker = Some(fewest - 1);
            assert!(
                s.validate().is_err(),
                "{model:?} with {} labels",
                fewest - 1
            );
            s.non_iid_labels_per_worker = Some(fewest);
            s.validate().unwrap();
            selsync_data::noniid::label_sharded(&train, 3, fewest);
        }
    }

    #[test]
    fn documented_schema_parses_validates_and_shows_every_key() {
        // The ```toml blocks under "Scenario file schema" and "Sweeps" in
        // docs/SCENARIOS.md, joined, are one scenario file.
        let docs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SCENARIOS.md");
        let md = std::fs::read_to_string(docs).unwrap();
        let (mut text, mut heading, mut in_block) = (String::new(), "", false);
        for line in md.lines() {
            if let Some(h) = line.strip_prefix("## ") {
                heading = h;
            } else if line.starts_with("```") {
                let schema = heading == "Scenario file schema" || heading.starts_with("Sweeps");
                in_block = line == "```toml" && schema;
            } else if in_block {
                text.push_str(line);
                text.push('\n');
            }
        }
        Scenario::from_toml_str(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));

        // It shows every key the key tables declare, each in its own block.
        let doc = toml::parse(&text).unwrap();
        let mut shown = Vec::new();
        for (name, table) in &doc.sections {
            shown.extend(
                table
                    .entries()
                    .iter()
                    .map(|(k, _)| (format!("[{name}]"), k)),
            );
        }
        for (name, table) in &doc.table_arrays {
            let kind = table.get("kind").and_then(toml::Value::as_str).unwrap();
            let block = format!("[[{name}]] {kind}");
            shown.extend(table.entries().iter().map(|(k, _)| (block.clone(), k)));
        }
        let missing: Vec<_> = declared_keys()
            .into_iter()
            .filter(|(block, key)| !shown.iter().any(|(b, k)| b == block && k == key))
            .collect();
        // `halt_after` stops a run early (the crash/resume tests' kill switch), so
        // the docs explain it in prose rather than in a template people copy.
        assert_eq!(missing, [("[checkpoint]".to_string(), "halt_after")]);
        assert!(md.contains("`halt_after = N`"));
    }

    #[test]
    fn missing_sections_are_reported() {
        assert!(Scenario::from_toml_str("x = 1")
            .unwrap_err()
            .contains("[scenario]"));
        let text = sample().to_toml_string().replace("model = \"resnet\"", "");
        assert!(Scenario::from_toml_str(&text)
            .unwrap_err()
            .contains("model"));
    }
}
