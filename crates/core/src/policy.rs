//! The δ-threshold decision rule (§III-B, Fig. 6 of the paper), plus δ *policies* that
//! choose the threshold itself.
//!
//! A worker wants to synchronize when its relative gradient change `Δ(g_i)` is at least
//! `δ`; the *cluster* synchronizes when **any** worker wants to (the decision is shared
//! through a 1-bit-per-worker all-gather). `δ = 0` degenerates to BSP (every step
//! synchronizes); `δ ≥ max Δ(g_i)` degenerates to pure local-SGD.
//!
//! The paper studies *fixed* δ. The [`DeltaPolicy`] trait generalises the knob: a
//! policy is asked for the δ in effect before each round and observes the completed
//! round's signals afterwards, so δ can follow a schedule or — in the spirit of
//! Sync-Switch (arXiv:2104.08364) — *switch* in response to observed training dynamics.
//! Every policy is a pure function of the (deterministic) observed signals, so runs
//! stay bit-for-bit reproducible.

use crate::aggregation::AggregationMode;
use crate::config::{AlgorithmSpec, TrainConfig};
use selsync_metrics::Ewma;
use selsync_tensor::rng::{self, SelRng};
use serde::{Deserialize, Serialize};

/// Outcome of the per-step decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncDecision {
    /// Aggregate updates across all workers this step.
    Synchronize,
    /// Apply updates locally only.
    Local,
}

/// The δ rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncPolicy {
    /// Relative-gradient-change threshold. `0` = BSP, large = local-SGD.
    pub delta: f32,
}

impl SyncPolicy {
    /// Create a policy with threshold `delta` (must be non-negative and finite).
    pub fn new(delta: f32) -> Self {
        assert!(
            delta >= 0.0 && delta.is_finite(),
            "delta must be a finite non-negative number"
        );
        SyncPolicy { delta }
    }

    /// Pure-BSP policy (synchronize every step).
    pub fn bsp() -> Self {
        SyncPolicy { delta: 0.0 }
    }

    /// Whether a single worker with relative gradient change `delta_g` wants to
    /// synchronize (Alg. 1, line 10).
    pub fn worker_wants_sync(&self, delta_g: f32) -> bool {
        delta_g >= self.delta
    }

    /// Cluster-level decision given every worker's wish bit (the flags array after the
    /// all-gather, Alg. 1, line 13): synchronize if any bit is set.
    pub fn decide(&self, flags: &[bool]) -> SyncDecision {
        if flags.iter().any(|&f| f) {
            SyncDecision::Synchronize
        } else {
            SyncDecision::Local
        }
    }

    /// Convenience: per-worker wish bits from per-worker `Δ(g_i)` values.
    pub fn flags_from_deltas(&self, deltas: &[f32]) -> Vec<bool> {
        deltas.iter().map(|&d| self.worker_wants_sync(d)).collect()
    }

    /// One-shot cluster decision straight from the per-worker deltas.
    pub fn decide_from_deltas(&self, deltas: &[f32]) -> SyncDecision {
        self.decide(&self.flags_from_deltas(deltas))
    }
}

/// When an algorithm synchronizes, who contributes and what is averaged: all that BSP,
/// FedAvg, local SGD and SelSync differ in, as data for the one round loop. The
/// cluster backends run [`SyncRule::Selective`] with parameter aggregation for both
/// algorithms they admit, BSP as its δ = 0 case (`crate::process::ensure_supported`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncRule {
    /// SelSync (§III): a worker's bit is `Δ(g_i) ≥ δ`.
    Selective(AggregationMode),
    /// BSP (§II-A): every bit set, gradients averaged.
    Every,
    /// FedAvg (§II-B): every bit set each `interval`-th round; `participants` contribute.
    Periodic {
        interval: usize,
        participants: usize,
    },
    /// Local SGD (§III-B, the δ ≥ M limit): no bit is ever set.
    Never,
}

impl SyncRule {
    /// The rule of `cfg.algorithm`. Panics for SSP, whose per-worker pushes inside a
    /// round do not reduce to one cluster decision.
    pub(crate) fn of(cfg: &TrainConfig) -> Self {
        match cfg.algorithm {
            AlgorithmSpec::SelSync { aggregation, .. } => SyncRule::Selective(aggregation),
            AlgorithmSpec::Bsp => SyncRule::Every,
            AlgorithmSpec::LocalSgd => SyncRule::Never,
            AlgorithmSpec::FedAvg { c, e } => {
                assert!(c > 0.0 && c <= 1.0, "FedAvg's C must be in (0, 1]");
                assert!(e > 0.0, "FedAvg's E must be positive");
                SyncRule::Periodic {
                    // E = 0.25 aggregates 4× per epoch.
                    interval: ((cfg.steps_per_epoch() as f32 * e).round() as usize).max(1),
                    participants: ((c * cfg.workers as f32).ceil() as usize).clamp(1, cfg.workers),
                }
            }
            AlgorithmSpec::Ssp { .. } => panic!("SSP has no sync rule; it runs its own driver"),
        }
    }

    /// The present workers' sync bits at round `it`, in worker order.
    pub(crate) fn flags(self, it: usize, policy: SyncPolicy, deltas: &[f32]) -> Vec<bool> {
        let all = |bit| vec![bit; deltas.len()];
        match self {
            SyncRule::Selective(_) => policy.flags_from_deltas(deltas),
            SyncRule::Every => all(true),
            SyncRule::Periodic { interval, .. } => all((it + 1).is_multiple_of(interval)),
            SyncRule::Never => all(false),
        }
    }

    /// What a synchronization averages.
    pub(crate) fn aggregation(self) -> AggregationMode {
        match self {
            SyncRule::Selective(mode) => mode,
            SyncRule::Every => AggregationMode::Gradient,
            SyncRule::Periodic { .. } | SyncRule::Never => AggregationMode::Parameter,
        }
    }

    /// Whether the bits are all-gathered. Only SelSync's are, so only SelSync pays for the
    /// exchange and meets what rides it: retries, PS outages and the catch-up sync.
    pub(crate) fn exchanges_status(self) -> bool {
        matches!(self, SyncRule::Selective(_))
    }

    /// Whether there is a PS. Without one a returning worker keeps its stale replica.
    pub(crate) fn has_ps(self) -> bool {
        self != SyncRule::Never
    }

    /// The workers whose replicas a synchronization averages: the present ones, or
    /// FedAvg's sample of them (the paper's client sampling).
    pub(crate) fn contributors(self, present: &[usize], rng: &mut SelRng) -> Vec<usize> {
        let SyncRule::Periodic { participants, .. } = self else {
            return present.to_vec();
        };
        let k = participants.min(present.len());
        let drawn = rng::sample_without_replacement(rng, present.len(), k);
        drawn.into_iter().map(|i| present[i]).collect()
    }
}

/// The δ-policy a run of `cfg` uses on every backend: SelSync's configured one (its
/// fixed δ by default); every other algorithm ignores `delta_policy` and runs δ = 0.
pub(crate) fn run_policy_spec(cfg: &TrainConfig) -> PolicySpec {
    match (cfg.algorithm, &cfg.delta_policy) {
        (AlgorithmSpec::SelSync { .. }, Some(spec)) => spec.clone(),
        (AlgorithmSpec::SelSync { delta, .. }, None) => PolicySpec::Fixed { delta },
        _ => PolicySpec::Fixed { delta: 0.0 },
    }
}

// ---------------------------------------------------------------------------
// δ policies: who chooses the threshold, and when.
// ---------------------------------------------------------------------------

/// Observed signals of one completed training round, fed back to a [`DeltaPolicy`].
///
/// The signals are cluster-level on every backend: [`Self::fold`] combines the
/// present workers' `(loss, Δ(g_i))` pairs in worker order, called by
/// [`crate::sim::RoundOutput::signal`] in memory and by the cluster's one signal
/// rendezvous, so every backend's one policy instance observes the same stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSignal {
    /// Training iteration the round ran at.
    pub iteration: usize,
    /// Maximum `Δ(g_i)` observed across the round's present workers.
    pub max_delta: f32,
    /// Mean training loss of the round's steps.
    pub mean_loss: f32,
    /// Mean `Δ(g_i)` across the round's present workers (first moment of the
    /// per-worker signal feed; with [`Self::delta_sq_mean`] it gives the cluster
    /// Δ variance, `E[Δ²] − E[Δ]²`).
    pub delta_mean: f32,
    /// Mean `Δ(g_i)²` across the round's present workers (second moment of the
    /// per-worker signal feed).
    pub delta_sq_mean: f32,
    /// Whether the round synchronized.
    pub synced: bool,
}

impl RoundSignal {
    /// The unsynchronized signal of round `iteration` from its values in wire order:
    /// max `Δ(g_i)`, mean loss, `Δ(g_i)` mean, `Δ(g_i)²` mean.
    pub(crate) fn of(iteration: usize, values: [f32; 4]) -> Self {
        let [max_delta, mean_loss, delta_mean, delta_sq_mean] = values;
        RoundSignal {
            iteration,
            max_delta,
            mean_loss,
            delta_mean,
            delta_sq_mean,
            synced: false,
        }
    }

    /// The values in [`Self::of`]'s order.
    pub(crate) fn values(&self) -> [f32; 4] {
        let s = self;
        [s.max_delta, s.mean_loss, s.delta_mean, s.delta_sq_mean]
    }

    /// The unsynchronized signal of round `iteration` from its present workers'
    /// `(loss, Δ(g_i))` pairs in worker order: the maximum `Δ(g_i)` (from 0, which
    /// no `Δ(g_i) ≥ 0` lowers) and the means of the loss, `Δ(g_i)` and `Δ(g_i)²`,
    /// each one in-order sum `0 + x₀ + x₁ + …` and one divide. An empty round reads
    /// 0 throughout.
    pub(crate) fn fold(iteration: usize, pairs: impl IntoIterator<Item = (f32, f32)>) -> Self {
        let (mut n, mut max, mut loss, mut sum, mut sq_sum) = (0usize, 0.0f32, 0.0, 0.0, 0.0);
        for (l, d) in pairs {
            n += 1;
            max = max.max(d);
            loss += l;
            sum += d;
            sq_sum += d * d;
        }
        let n = n.max(1) as f32;
        RoundSignal::of(iteration, [max, loss / n, sum / n, sq_sum / n])
    }

    /// Population variance of the round's per-worker `Δ(g_i)` (clamped at zero
    /// against f32 cancellation).
    pub fn delta_variance(&self) -> f32 {
        (self.delta_sq_mean - self.delta_mean * self.delta_mean).max(0.0)
    }
}

/// Record of one regime switch made by an adaptive policy, with the detector state
/// that triggered it (the values the trace layer reports alongside the switch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchRecord {
    /// The regime switched *to*: `true` = exploit (relaxed δ), `false` = explore.
    pub exploit: bool,
    /// The smoothed loss at the moment of the switch.
    pub loss_ewma: f32,
    /// The re-entry gate's EWMA, of `Δ(g)` or of the `Δ(g_i)` variance: for a re-entry,
    /// the pre-update value the round's signal was measured as a multiple of; for a
    /// settle, the current value.
    pub delta_ewma: f32,
}

/// The checkpointable portion of a [`DeltaPolicy`], flattened into two typed arrays
/// (what the checkpoint codec stores as one section). Stateless policies use the
/// empty default; each stateful policy defines its own packing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PolicyState {
    /// Counters, flags and switch rounds.
    pub ints: Vec<u64>,
    /// EWMA histories and smoothed values.
    pub floats: Vec<f32>,
}

/// A runtime rule choosing the δ threshold round by round.
///
/// [`Self::delta`] is consulted *before* a round runs (it decides this round's
/// threshold); [`Self::observe`] is called *after* the round with its signals. A policy
/// must be a deterministic function of the observed signal sequence — drivers rely on
/// this for their cross-thread-count byte-identity guarantee.
pub trait DeltaPolicy: Send {
    /// The δ in effect for the round at `iteration`.
    fn delta(&self, iteration: usize) -> f32;

    /// Ingest the signals of the completed round at `signal.iteration`.
    fn observe(&mut self, signal: &RoundSignal);

    /// The regime switch triggered by the most recent [`Self::observe`] call, if
    /// any. Stateless policies never switch; adaptive policies report the switch
    /// exactly once (the next `observe` clears it).
    fn last_switch(&self) -> Option<SwitchRecord> {
        None
    }

    /// The rounds at which the policy has switched regimes so far, in order.
    fn switch_rounds(&self) -> &[usize] {
        &[]
    }

    /// Capture the policy's mutable state for a checkpoint. Stateless policies
    /// (pure functions of the iteration) return the empty default.
    fn export_state(&self) -> PolicyState {
        PolicyState::default()
    }

    /// Restore state captured by [`Self::export_state`] onto a same-configured
    /// policy. The one-shot [`Self::last_switch`] record is not restored: its trace
    /// event was already emitted before the checkpoint was written.
    fn import_state(&mut self, state: &PolicyState) {
        assert!(
            state.ints.is_empty() && state.floats.is_empty(),
            "stateless policy cannot import non-empty state"
        );
    }
}

/// Append an EWMA's mutable state (presence flag + smoothed value + history) to a
/// [`PolicyState`] being built.
fn pack_ewma(ewma: &Ewma, state: &mut PolicyState) {
    let (history, smoothed) = ewma.state();
    state.ints.push(u64::from(smoothed.is_some()));
    state.floats.push(smoothed.unwrap_or(0.0));
    state.ints.push(history.len() as u64);
    state.floats.extend(history);
}

/// Consume one EWMA's state (as written by [`pack_ewma`]) from the cursors.
fn unpack_ewma(
    ewma: &mut Ewma,
    ints: &mut impl Iterator<Item = u64>,
    floats: &mut impl Iterator<Item = f32>,
    what: &str,
) {
    let missing = |field: &str| -> ! { panic!("{what} EWMA state: missing {field}") };
    let has = ints.next().unwrap_or_else(|| missing("presence flag")) != 0;
    let smoothed = floats.next().unwrap_or_else(|| missing("smoothed value"));
    let n = ints.next().unwrap_or_else(|| missing("history length")) as usize;
    let history: Vec<f32> = floats.by_ref().take(n).collect();
    assert_eq!(history.len(), n, "{what} EWMA state: truncated history");
    ewma.restore(&history, has.then_some(smoothed));
}

/// The paper's fixed threshold as a [`DeltaPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedDelta {
    /// The constant threshold.
    pub delta: f32,
}

impl DeltaPolicy for FixedDelta {
    fn delta(&self, _iteration: usize) -> f32 {
        self.delta
    }

    fn observe(&mut self, _signal: &RoundSignal) {}
}

/// An iteration-keyed δ schedule: stage `i` applies from iteration `starts[i]` until
/// the next stage begins. A pure function of the iteration, so every consumer agrees
/// on every threshold without coordination. Built by [`PolicySpec::build`] from a
/// validated [`PolicySpec::Schedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledDelta {
    starts: Vec<usize>,
    deltas: Vec<f32>,
}

impl DeltaPolicy for ScheduledDelta {
    fn delta(&self, iteration: usize) -> f32 {
        let stage = self
            .starts
            .iter()
            .rposition(|&s| s <= iteration)
            .expect("starts[0] == 0 guarantees a stage");
        self.deltas[stage]
    }

    fn observe(&mut self, _signal: &RoundSignal) {}
}

/// Which round signal re-arms an [`AdaptiveDelta`]'s eager regime: the one that feeds
/// its second EWMA and is compared against `ratio`× that EWMA's running level.
#[derive(Debug, Clone, Copy)]
enum Reentry {
    /// The round-maximum `Δ(g)` ([`PolicySpec::Adaptive`]'s `spike`): what a rejoining
    /// worker's restarted tracker or an LR-decay kink produces.
    Spike,
    /// The per-worker `Δ(g_i)` variance ([`PolicySpec::Variance`]'s `var_ratio`). A
    /// restarted tracker or a straggling shard shows up as per-worker disagreement
    /// before it moves the maximum's smoothed level, while a cluster-wide level shift
    /// (an LR decay moving every `Δ(g_i)` together) keeps the variance low.
    Variance,
}

impl Reentry {
    /// How errors and labels spell the spec's kind, its ratio's key and the ratio.
    fn names(self) -> [&'static str; 3] {
        match self {
            Reentry::Spike => ["adaptive", "spike", "spike"],
            Reentry::Variance => ["variance", "var_ratio", "var"],
        }
    }

    fn signal(self, round: &RoundSignal) -> f32 {
        match self {
            Reentry::Spike => round.max_delta,
            Reentry::Variance => round.delta_variance(),
        }
    }
}

/// The settings of a switching spec, [`PolicySpec::Adaptive`] or
/// [`PolicySpec::Variance`]: the one place their fields are unpacked.
#[derive(Debug, Clone, Copy)]
struct Switching {
    delta_explore: f32,
    delta_exploit: f32,
    factor: f32,
    warmup: usize,
    settle: f32,
    patience: usize,
    reentry: Reentry,
    /// `spike` or `var_ratio`: the multiple of its EWMA at which the gate fires.
    ratio: f32,
}

impl Switching {
    /// Panics unless `spec` is one of the two switching kinds.
    fn of(spec: &PolicySpec) -> Self {
        let (PolicySpec::Adaptive {
            delta_explore,
            delta_exploit,
            factor,
            warmup,
            settle,
            patience,
            spike: ratio,
        }
        | PolicySpec::Variance {
            delta_explore,
            delta_exploit,
            factor,
            warmup,
            settle,
            patience,
            var_ratio: ratio,
        }) = *spec
        else {
            panic!("not a switching δ-policy: {spec:?}");
        };
        let reentry = if let PolicySpec::Adaptive { .. } = spec {
            Reentry::Spike
        } else {
            Reentry::Variance
        };
        Switching {
            delta_explore,
            delta_exploit,
            factor,
            warmup,
            settle,
            patience,
            reentry,
            ratio,
        }
    }
}

/// A Sync-Switch-style adaptive policy: synchronize eagerly while training dynamics
/// are volatile, relax the threshold once they settle, and fall back to eager
/// synchronization when a cluster event (a rejoining worker, a learning-rate decay)
/// disturbs them again.
///
/// Two deterministic signals drive the switching, both smoothed with
/// [`selsync_metrics::Ewma`]:
///
/// * the **loss EWMA** decides *settling*: after `warmup` rounds, once the smoothed
///   training loss improves by less than `settle` (relative, per round) for `patience`
///   consecutive rounds, δ switches from `delta_explore` (small: sync-eager) to
///   `delta_exploit` (large: mostly local). The initial descent — where the paper
///   shows synchronization matters most — is always synchronized.
/// * the **re-entry gate** decides *disturbance*: a round whose gated signal is at
///   least `ratio` times its own EWMA switches back to `delta_explore`; the settle
///   detector then re-relaxes once the loss EWMA is calm again. [`PolicySpec::Adaptive`]
///   gates on the round-maximum `Δ(g)` (ratio `spike`), [`PolicySpec::Variance`] on the
///   per-worker `Δ(g_i)` variance (ratio `var_ratio`). Self-normalising, so the same
///   ratio works across workloads whose absolute `Δ(g)` scales differ.
#[derive(Debug, Clone)]
pub struct AdaptiveDelta {
    cfg: Switching,
    loss: Ewma,
    /// The EWMA of the `reentry` signal.
    gate: Ewma,
    rounds: usize,
    calm: usize,
    exploiting: bool,
    switch_rounds: Vec<usize>,
    last_switch: Option<SwitchRecord>,
}

impl AdaptiveDelta {
    /// Build from a [`PolicySpec::Adaptive`] or a [`PolicySpec::Variance`] spec.
    pub fn from_spec(spec: &PolicySpec) -> Self {
        spec.validate().expect("invalid adaptive-δ configuration");
        let cfg = Switching::of(spec);
        AdaptiveDelta {
            cfg,
            loss: Ewma::new(cfg.factor, 25),
            gate: Ewma::new(cfg.factor, 25),
            rounds: 0,
            calm: 0,
            exploiting: false,
            switch_rounds: Vec::new(),
            last_switch: None,
        }
    }

    /// Enter the exploit (`true`) or explore regime at `round`, recording the trigger.
    fn switch(&mut self, exploit: bool, round: usize, loss_ewma: f32, delta_ewma: f32) {
        self.exploiting = exploit;
        self.calm = 0;
        self.switch_rounds.push(round);
        self.last_switch = Some(SwitchRecord {
            exploit,
            loss_ewma,
            delta_ewma,
        });
    }
}

impl DeltaPolicy for AdaptiveDelta {
    fn delta(&self, _iteration: usize) -> f32 {
        if self.exploiting {
            self.cfg.delta_exploit
        } else {
            self.cfg.delta_explore
        }
    }

    fn observe(&mut self, signal: &RoundSignal) {
        self.rounds += 1;
        self.last_switch = None;
        let prev_loss = self.loss.value();
        let smoothed_loss = self.loss.update(signal.mean_loss);
        let gated = self.cfg.reentry.signal(signal);
        let prev_gated = self.gate.value();
        self.gate.update(gated);

        if self.exploiting {
            // Re-entry: the gated signal far above its own running level means the
            // cluster's dynamics changed (rejoin, LR decay): synchronize eagerly until
            // the loss settles again. The switch reports that running level.
            if let Some(base) = prev_gated {
                if base > 0.0 && gated >= self.cfg.ratio * base {
                    self.switch(false, signal.iteration, smoothed_loss, base);
                }
            }
            return;
        }
        // Settle detector (active only after the warmup, once the EWMA is meaningful):
        // count consecutive rounds whose smoothed-loss improvement is below `settle`.
        if self.rounds <= self.cfg.warmup {
            return;
        }
        let improvement = match prev_loss {
            Some(prev) if prev.abs() > f32::EPSILON => (prev - smoothed_loss) / prev,
            _ => 0.0,
        };
        // Calm means *plateaued*: neither improving nor regressing faster than
        // `settle` per round. A loss rising beyond the threshold is volatility, not
        // settling — it must keep the eager regime.
        if improvement.abs() < self.cfg.settle {
            self.calm += 1;
        } else {
            self.calm = 0;
        }
        if self.calm >= self.cfg.patience {
            let level = self.gate.value().unwrap_or(0.0);
            self.switch(true, signal.iteration, smoothed_loss, level);
        }
    }

    fn last_switch(&self) -> Option<SwitchRecord> {
        self.last_switch
    }

    fn switch_rounds(&self) -> &[usize] {
        &self.switch_rounds
    }

    fn export_state(&self) -> PolicyState {
        let mut state = PolicyState::default();
        let switches = self.switch_rounds.len() as u64;
        let rounds = self.switch_rounds.iter().map(|&r| r as u64);
        // The fourth word is the switch count; the switch rounds repeat it at the end.
        let counters = [self.rounds as u64, self.calm as u64, switches];
        state.ints.push(u64::from(self.exploiting));
        state.ints.extend(counters);
        pack_ewma(&self.loss, &mut state);
        pack_ewma(&self.gate, &mut state);
        state.ints.push(switches);
        state.ints.extend(rounds);
        state
    }

    fn import_state(&mut self, state: &PolicyState) {
        let mut ints = state.ints.iter().copied();
        let mut floats = state.floats.iter().copied();
        self.exploiting = ints.next().expect("adaptive state: exploiting") != 0;
        self.rounds = ints.next().expect("adaptive state: rounds") as usize;
        self.calm = ints.next().expect("adaptive state: calm") as usize;
        ints.next().expect("adaptive state: switches");
        unpack_ewma(&mut self.loss, &mut ints, &mut floats, "adaptive loss");
        unpack_ewma(&mut self.gate, &mut ints, &mut floats, "adaptive re-entry");
        let n = ints.next().expect("adaptive state: switch-round count") as usize;
        self.switch_rounds = ints.by_ref().take(n).map(|r| r as usize).collect();
        assert_eq!(
            self.switch_rounds.len(),
            n,
            "adaptive state: truncated switch rounds"
        );
        self.last_switch = None;
    }
}

/// Serializable δ-policy configuration — what scenario files and [`crate::config::TrainConfig`]
/// carry; [`Self::build`] instantiates the runtime [`DeltaPolicy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// A fixed threshold (the paper's knob).
    Fixed {
        /// The constant threshold.
        delta: f32,
    },
    /// An iteration-keyed schedule: stage `i` applies from `starts[i]` until the next
    /// stage begins (`starts[0]` must be 0).
    Schedule {
        /// First iteration of each stage (strictly increasing, starting at 0).
        starts: Vec<usize>,
        /// The δ of each stage.
        deltas: Vec<f32>,
    },
    /// The Sync-Switch-style adaptive policy ([`AdaptiveDelta`]).
    Adaptive {
        /// Sync-eager threshold used while training dynamics are volatile.
        delta_explore: f32,
        /// Relaxed threshold used once the loss has settled.
        delta_exploit: f32,
        /// EWMA smoothing factor for the watched loss / `Δ(g)` signals, in `(0, 1]`.
        factor: f32,
        /// Rounds the policy always stays eager before the settle detector arms.
        warmup: usize,
        /// Calm means the smoothed loss moves by less than this fraction per round.
        settle: f32,
        /// Consecutive calm rounds required before switching to exploit.
        patience: usize,
        /// A raw round `Δ(g)` at least `spike` times its own EWMA switches back to
        /// the eager regime.
        spike: f32,
    },
    /// The variance-gated adaptive policy ([`AdaptiveDelta`] again): same settle
    /// detector, but re-entry watches the per-worker `Δ(g)` variance instead of the
    /// maximum.
    Variance {
        /// Sync-eager threshold used while training dynamics are volatile.
        delta_explore: f32,
        /// Relaxed threshold used once the loss has settled.
        delta_exploit: f32,
        /// EWMA smoothing factor for the watched loss / Δ-variance signals, in `(0, 1]`.
        factor: f32,
        /// Rounds the policy always stays eager before the settle detector arms.
        warmup: usize,
        /// Calm means the smoothed loss moves by less than this fraction per round.
        settle: f32,
        /// Consecutive calm rounds required before switching to exploit.
        patience: usize,
        /// A round's per-worker `Δ(g)` variance at least `var_ratio` times its own
        /// EWMA switches back to the eager regime.
        var_ratio: f32,
    },
}

impl PolicySpec {
    /// The default adaptive configuration: sync every step (δ = 0) through the
    /// initial descent, relax to δ = 0.5 once the smoothed loss changes by < 5% per
    /// round for 4 consecutive rounds (earliest: round 9), and re-enter the eager
    /// regime whenever a round's `Δ(g)` jumps to ≥ 2.5× its running level. The
    /// smoothing factor (0.15) is deliberately heavier than the settle band so
    /// batch-to-batch loss noise does not masquerade as volatility.
    pub fn adaptive_default() -> Self {
        PolicySpec::Adaptive {
            delta_explore: 0.0,
            delta_exploit: 0.5,
            factor: 0.15,
            warmup: 8,
            settle: 0.05,
            patience: 4,
            spike: 2.5,
        }
    }

    /// The default variance-gated configuration: same regimes and settle band as
    /// [`Self::adaptive_default`], re-entering the eager regime when a round's
    /// per-worker `Δ(g)` variance reaches 4× its running level. The ratio is higher
    /// than the adaptive `spike` because variance (a second moment) moves
    /// quadratically with the disturbance.
    pub fn variance_default() -> Self {
        PolicySpec::Variance {
            delta_explore: 0.0,
            delta_exploit: 0.5,
            factor: 0.15,
            warmup: 8,
            settle: 0.05,
            patience: 4,
            var_ratio: 4.0,
        }
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        let finite_delta = |d: f32, what: &str| {
            if d >= 0.0 && d.is_finite() {
                Ok(())
            } else {
                Err(format!("{what} must be a finite non-negative number"))
            }
        };
        match self {
            PolicySpec::Fixed { delta } => finite_delta(*delta, "policy delta"),
            PolicySpec::Schedule { starts, deltas } => {
                if starts.is_empty() || starts.len() != deltas.len() {
                    return Err("schedule needs equal, non-empty starts/deltas".into());
                }
                if starts[0] != 0 {
                    return Err("schedule must start at iteration 0".into());
                }
                if !starts.windows(2).all(|w| w[0] < w[1]) {
                    return Err("schedule starts must be strictly increasing".into());
                }
                for &d in deltas {
                    finite_delta(d, "schedule delta")?;
                }
                Ok(())
            }
            PolicySpec::Adaptive { .. } | PolicySpec::Variance { .. } => {
                let s = Switching::of(self);
                let [kind, key, _] = s.reentry.names();
                finite_delta(s.delta_explore, "delta_explore")?;
                finite_delta(s.delta_exploit, "delta_exploit")?;
                if !(s.factor > 0.0 && s.factor <= 1.0) {
                    return Err(format!("{kind} factor must be in (0, 1]"));
                }
                if s.patience == 0 {
                    return Err(format!("{kind} patience must be at least 1"));
                }
                if !(s.settle > 0.0 && s.settle.is_finite()) {
                    return Err("settle must be a finite positive number".into());
                }
                if !(s.ratio > 1.0 && s.ratio.is_finite()) {
                    return Err(format!("{key} must be a finite ratio above 1"));
                }
                Ok(())
            }
        }
    }

    /// Instantiate the runtime policy. Panics on an invalid spec (use
    /// [`Self::validate`] first at trust boundaries).
    pub fn build(&self) -> Box<dyn DeltaPolicy> {
        self.validate().expect("invalid δ-policy configuration");
        match self {
            PolicySpec::Fixed { delta } => Box::new(FixedDelta { delta: *delta }),
            PolicySpec::Schedule { starts, deltas } => Box::new(ScheduledDelta {
                starts: starts.clone(),
                deltas: deltas.clone(),
            }),
            PolicySpec::Adaptive { .. } | PolicySpec::Variance { .. } => {
                Box::new(AdaptiveDelta::from_spec(self))
            }
        }
    }

    /// Whether the built policy actually *consumes* the observed [`RoundSignal`]s —
    /// i.e. its thresholds depend on training dynamics, not just the iteration.
    /// Fixed and scheduled policies are pure functions of the iteration and discard
    /// observations; drivers may use this to skip the cluster-signal exchange that
    /// would otherwise feed them.
    pub fn consumes_round_signals(&self) -> bool {
        matches!(
            self,
            PolicySpec::Adaptive { .. } | PolicySpec::Variance { .. }
        )
    }

    /// The policy's label: the one formatter of it, stable because report algorithm
    /// names and trace headers carry it.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Fixed { delta } => format!("d={delta}"),
            PolicySpec::Schedule { starts, deltas } => {
                let stages: Vec<String> = starts
                    .iter()
                    .zip(deltas.iter())
                    .map(|(s, d)| format!("{s}:{d}"))
                    .collect();
                format!("schedule({})", stages.join(","))
            }
            PolicySpec::Adaptive { .. } | PolicySpec::Variance { .. } => {
                let s = Switching::of(self);
                let [kind, _, key] = s.reentry.names();
                format!(
                    "{kind}({}->{},warmup={},settle={}x{},{key}={})",
                    s.delta_explore, s.delta_exploit, s.warmup, s.settle, s.patience, s.ratio
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_delta_is_bsp() {
        let p = SyncPolicy::bsp();
        // Every Δ(g_i) ≥ 0, so every step synchronizes.
        assert_eq!(
            p.decide_from_deltas(&[0.0, 0.0, 0.0]),
            SyncDecision::Synchronize
        );
        assert_eq!(p.decide_from_deltas(&[0.001]), SyncDecision::Synchronize);
    }

    #[test]
    fn huge_delta_is_local_sgd() {
        let p = SyncPolicy::new(1e9);
        assert_eq!(
            p.decide_from_deltas(&[0.5, 3.0, 100.0]),
            SyncDecision::Local
        );
    }

    #[test]
    fn any_single_worker_forces_synchronization() {
        let p = SyncPolicy::new(0.25);
        assert_eq!(
            p.decide_from_deltas(&[0.1, 0.1, 0.3, 0.05]),
            SyncDecision::Synchronize
        );
        assert_eq!(
            p.decide_from_deltas(&[0.1, 0.1, 0.2, 0.05]),
            SyncDecision::Local
        );
    }

    #[test]
    fn threshold_is_inclusive() {
        let p = SyncPolicy::new(0.25);
        assert!(p.worker_wants_sync(0.25));
        assert!(!p.worker_wants_sync(0.2499));
    }

    #[test]
    fn flags_map_one_to_one() {
        let p = SyncPolicy::new(0.5);
        assert_eq!(
            p.flags_from_deltas(&[0.4, 0.6, 0.5]),
            vec![false, true, true]
        );
    }

    #[test]
    fn monotonicity_in_delta() {
        // Raising δ can only turn Synchronize decisions into Local ones, never the reverse.
        let deltas = [0.1f32, 0.35, 0.2];
        let mut last_sync = true;
        for &d in &[0.0f32, 0.2, 0.3, 0.4, 1.0] {
            let sync = SyncPolicy::new(d).decide_from_deltas(&deltas) == SyncDecision::Synchronize;
            assert!(
                !sync || last_sync,
                "sync decisions must be monotone non-increasing in delta"
            );
            last_sync = sync;
        }
    }

    #[test]
    #[should_panic]
    fn negative_delta_rejected() {
        let _ = SyncPolicy::new(-0.1);
    }

    fn signal(iteration: usize, max_delta: f32, mean_loss: f32) -> RoundSignal {
        RoundSignal {
            iteration,
            max_delta,
            mean_loss,
            delta_mean: max_delta,
            delta_sq_mean: max_delta * max_delta,
            synced: true,
        }
    }

    #[test]
    fn fixed_policy_is_constant_and_label_matches_paper_naming() {
        let spec = PolicySpec::Fixed { delta: 0.3 };
        let p = spec.build();
        assert_eq!(p.delta(0), 0.3);
        assert_eq!(p.delta(10_000), 0.3);
        assert_eq!(spec.label(), "d=0.3");
    }

    #[test]
    fn schedule_policy_switches_at_stage_starts() {
        let spec = PolicySpec::Schedule {
            starts: vec![0, 10, 30],
            deltas: vec![0.0, 0.2, 0.5],
        };
        let mut p = spec.build();
        assert_eq!(p.delta(0), 0.0);
        assert_eq!(p.delta(9), 0.0);
        assert_eq!(p.delta(10), 0.2);
        assert_eq!(p.delta(29), 0.2);
        assert_eq!(p.delta(30), 0.5);
        assert_eq!(p.delta(1000), 0.5);
        // Observations are ignored: the schedule is a pure function of the iteration.
        p.observe(&signal(5, 100.0, 100.0));
        assert_eq!(p.delta(5), 0.0);
        assert_eq!(spec.label(), "schedule(0:0,10:0.2,30:0.5)");
    }

    #[test]
    fn schedule_validation_rejects_broken_stages() {
        assert!(PolicySpec::Schedule {
            starts: vec![5],
            deltas: vec![0.1]
        }
        .validate()
        .is_err());
        assert!(PolicySpec::Schedule {
            starts: vec![0, 10, 10],
            deltas: vec![0.1, 0.2, 0.3]
        }
        .validate()
        .is_err());
        assert!(PolicySpec::Schedule {
            starts: vec![0],
            deltas: vec![f32::NAN]
        }
        .validate()
        .is_err());
        assert!(PolicySpec::Schedule {
            starts: vec![],
            deltas: vec![]
        }
        .validate()
        .is_err());
    }

    #[test]
    fn adaptive_policy_switches_to_exploit_once_the_loss_settles() {
        let mut p = AdaptiveDelta::from_spec(&PolicySpec::adaptive_default());
        assert!(!p.exploiting);
        assert_eq!(p.delta(0), 0.0, "starts in the sync-eager regime");
        // A fast-descending loss keeps the eager regime past the warmup.
        let mut loss = 8.0f32;
        for it in 0..20 {
            p.observe(&signal(it, 0.05, loss));
            loss *= 0.85; // 15% per round: well above the 5% settle threshold
        }
        assert!(!p.exploiting, "loss still descending fast");
        // The loss flattens; after `patience` calm rounds the policy relaxes.
        let mut switched_at = None;
        for it in 20..60 {
            p.observe(&signal(it, 0.05, loss));
            if p.exploiting && switched_at.is_none() {
                switched_at = Some(it);
            }
        }
        assert!(p.exploiting, "must switch after the loss settles");
        assert_eq!(p.delta(60), 0.5);
        assert!(switched_at.unwrap() >= 20 + 4 - 1, "respects patience");
        assert_eq!(p.switch_rounds().len(), 1);
    }

    #[test]
    fn adaptive_policy_respects_warmup_even_with_a_flat_loss() {
        // A loss that is flat from the very first round must not trigger the switch
        // before `warmup` + `patience` observations.
        let mut p = AdaptiveDelta::from_spec(&PolicySpec::adaptive_default());
        for it in 0..11 {
            p.observe(&signal(it, 0.05, 1.0));
            assert!(!p.exploiting, "round {it} is inside warmup + patience");
        }
        p.observe(&signal(11, 0.05, 1.0));
        assert!(
            p.exploiting,
            "flat loss switches right after warmup+patience"
        );
    }

    #[test]
    fn adaptive_policy_treats_a_rising_loss_as_volatility_not_settling() {
        // A diverging run (smoothed loss climbing well beyond `settle` per round)
        // must stay in the eager regime — regression is not a plateau.
        let mut p = AdaptiveDelta::from_spec(&PolicySpec::adaptive_default());
        let mut loss = 1.0f32;
        for it in 0..40 {
            p.observe(&signal(it, 0.05, loss));
            loss *= 1.2; // +20% per round: far above the 5% settle band
        }
        assert!(!p.exploiting, "a regressing loss must keep syncing eagerly");
    }

    #[test]
    fn adaptive_policy_reverts_on_a_delta_spike() {
        let mut p = AdaptiveDelta::from_spec(&PolicySpec::adaptive_default());
        for it in 0..30 {
            p.observe(&signal(it, 0.05, 1.0));
        }
        assert!(p.exploiting);
        // A Δ(g) jump to 4x its running level (a rejoining worker's restarted
        // tracker) re-enters the eager regime; the Δ EWMA sits near 0.05.
        p.observe(&signal(30, 0.2, 1.0));
        assert!(!p.exploiting, "spike must re-enter the eager regime");
        assert_eq!(p.delta(31), 0.0);
        assert_eq!(p.switch_rounds().len(), 2);
        // With the loss already calm, the policy re-relaxes after `patience` rounds.
        for it in 31..36 {
            p.observe(&signal(it, 0.05, 1.0));
        }
        assert!(p.exploiting, "calm loss re-relaxes after the repair window");
        assert_eq!(p.switch_rounds().len(), 3);
    }

    #[test]
    fn adaptive_policy_records_switch_rounds_and_trigger_state() {
        let mut p = AdaptiveDelta::from_spec(&PolicySpec::adaptive_default());
        assert!(p.last_switch().is_none());
        assert!(p.switch_rounds().is_empty());
        for it in 0..12 {
            p.observe(&signal(it, 0.05, 1.0));
        }
        // Flat loss: settles at round 11 (warmup 8 + patience 4).
        assert_eq!(p.switch_rounds(), &[11]);
        let settled = p.last_switch().expect("settle switch must be reported");
        assert!(settled.exploit);
        assert!(settled.delta_ewma > 0.0);
        // A quiet round clears the one-shot record but keeps the history.
        p.observe(&signal(12, 0.05, 1.0));
        assert!(p.last_switch().is_none());
        // A spike reverts and reports the pre-update Δ(g) baseline it compared with.
        p.observe(&signal(13, 0.5, 1.0));
        let spiked = p.last_switch().expect("spike switch must be reported");
        assert!(!spiked.exploit);
        assert!((spiked.delta_ewma - 0.05).abs() < 1e-6);
        assert_eq!(p.switch_rounds(), &[11, 13]);
        // Stateless policies expose the empty defaults.
        let fixed = PolicySpec::Fixed { delta: 0.1 }.build();
        assert!(fixed.last_switch().is_none());
        assert!(fixed.switch_rounds().is_empty());
    }

    #[test]
    fn adaptive_policy_is_deterministic_in_its_signal_sequence() {
        let run = || {
            let mut p = AdaptiveDelta::from_spec(&PolicySpec::adaptive_default());
            let mut deltas = Vec::new();
            for it in 0..80 {
                deltas.push(p.delta(it));
                let loss = 8.0 * (0.9f32).powi(it.min(40) as i32) + 0.2;
                let d = if it == 50 { 0.3 } else { 0.05 };
                p.observe(&signal(it, d, loss));
            }
            deltas
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn adaptive_validation_rejects_bad_configs() {
        let mut bad = PolicySpec::adaptive_default();
        if let PolicySpec::Adaptive { factor, .. } = &mut bad {
            *factor = 0.0;
        }
        assert!(bad.validate().is_err());
        let mut bad = PolicySpec::adaptive_default();
        if let PolicySpec::Adaptive { patience, .. } = &mut bad {
            *patience = 0;
        }
        assert!(bad.validate().is_err());
        let mut bad = PolicySpec::adaptive_default();
        if let PolicySpec::Adaptive { delta_exploit, .. } = &mut bad {
            *delta_exploit = f32::NAN;
        }
        assert!(bad.validate().is_err());
        let mut bad = PolicySpec::adaptive_default();
        if let PolicySpec::Adaptive { spike, .. } = &mut bad {
            *spike = 0.9; // a spike ratio must exceed 1
        }
        assert!(bad.validate().is_err());
        assert!(PolicySpec::adaptive_default().validate().is_ok());
    }

    #[test]
    fn only_the_adaptive_policy_consumes_round_signals() {
        assert!(!PolicySpec::Fixed { delta: 0.3 }.consumes_round_signals());
        assert!(!PolicySpec::Schedule {
            starts: vec![0, 10],
            deltas: vec![0.0, 0.5],
        }
        .consumes_round_signals());
        assert!(PolicySpec::adaptive_default().consumes_round_signals());
        assert!(PolicySpec::variance_default().consumes_round_signals());
    }

    /// A signal whose per-worker Δ(g) spread is controlled directly: `delta_mean` and
    /// the variance are chosen, the second moment follows.
    fn spread_signal(iteration: usize, mean: f32, variance: f32, mean_loss: f32) -> RoundSignal {
        RoundSignal {
            iteration,
            max_delta: mean,
            mean_loss,
            delta_mean: mean,
            delta_sq_mean: variance + mean * mean,
            synced: true,
        }
    }

    #[test]
    fn variance_policy_settles_like_adaptive_and_reenters_on_a_variance_blowup() {
        let mut p = AdaptiveDelta::from_spec(&PolicySpec::variance_default());
        assert!(!p.exploiting);
        assert_eq!(p.delta(0), 0.0);
        // Flat loss with a small, steady per-worker Δ variance: settles after
        // warmup + patience (round 11), exactly like the adaptive default.
        for it in 0..12 {
            p.observe(&spread_signal(it, 0.05, 1e-4, 1.0));
        }
        assert!(p.exploiting, "flat loss must relax the threshold");
        assert_eq!(p.delta(12), 0.5);
        assert_eq!(p.switch_rounds(), &[11]);
        // A cluster-wide level shift (all workers' Δ move together: variance
        // unchanged) must NOT re-enter the eager regime...
        p.observe(&spread_signal(12, 0.5, 1e-4, 1.0));
        assert!(p.exploiting, "level shifts with low variance stay relaxed");
        // ...but a localized disturbance (variance 100× its running level) must.
        p.observe(&spread_signal(13, 0.06, 1e-2, 1.0));
        assert!(!p.exploiting, "variance blow-up re-enters the eager regime");
        let rec = p.last_switch().expect("switch must be reported");
        assert!(!rec.exploit);
        assert!(rec.delta_ewma > 0.0, "reports the variance baseline");
        assert_eq!(p.switch_rounds().len(), 2);
    }

    #[test]
    fn stateful_policies_export_and_import_bit_identical_state() {
        // Drive two stateful policies through a volatile prefix, checkpoint, restore
        // into fresh instances, and check the continuations agree bit for bit.
        let specs = [
            PolicySpec::adaptive_default(),
            PolicySpec::variance_default(),
        ];
        for spec in &specs {
            let mut a = spec.build();
            let mut loss = 4.0f32;
            for it in 0..25 {
                let var = if it % 7 == 0 { 3e-3 } else { 1e-4 };
                a.observe(&spread_signal(it, 0.05, var, loss));
                loss *= 0.93;
            }
            let state = a.export_state();
            let mut b = spec.build();
            b.import_state(&state);
            assert_eq!(
                b.export_state(),
                state,
                "{}: state must round-trip",
                spec.label()
            );
            assert_eq!(b.switch_rounds(), a.switch_rounds());
            for it in 25..60 {
                assert_eq!(a.delta(it).to_bits(), b.delta(it).to_bits());
                let var = if it == 40 { 5e-2 } else { 1e-4 };
                let sig = spread_signal(it, 0.05, var, loss);
                a.observe(&sig);
                b.observe(&sig);
                assert_eq!(
                    a.last_switch().is_some(),
                    b.last_switch().is_some(),
                    "{}: switch stream diverged at {it}",
                    spec.label()
                );
            }
            assert_eq!(a.switch_rounds(), b.switch_rounds());
        }
        // Stateless policies round-trip the empty default and reject junk.
        let mut fixed = PolicySpec::Fixed { delta: 0.1 }.build();
        let empty = fixed.export_state();
        assert_eq!(empty, PolicyState::default());
        fixed.import_state(&empty);
    }

    #[test]
    #[should_panic]
    fn stateless_policies_reject_non_empty_state() {
        let mut fixed = PolicySpec::Fixed { delta: 0.1 }.build();
        fixed.import_state(&PolicyState {
            ints: vec![1],
            floats: vec![],
        });
    }

    #[test]
    fn variance_validation_rejects_bad_configs() {
        let mut bad = PolicySpec::variance_default();
        if let PolicySpec::Variance { var_ratio, .. } = &mut bad {
            *var_ratio = 1.0; // must exceed 1
        }
        assert!(bad.validate().is_err());
        let mut bad = PolicySpec::variance_default();
        if let PolicySpec::Variance { factor, .. } = &mut bad {
            *factor = 1.5;
        }
        assert!(bad.validate().is_err());
        assert!(PolicySpec::variance_default().validate().is_ok());
    }

    /// The synthetic stream the pinning test drives every policy through: a descent,
    /// a plateau, a max-Δ spike, a variance blow-up at a flat level, a cluster-wide
    /// level shift, and a rising loss.
    fn pinned_stream() -> Vec<RoundSignal> {
        let mut loss = 8.0f32;
        (0..120)
            .map(|it| {
                let (mut mean, mut var) = (0.05f32, 1e-4f32);
                match it {
                    0..=29 => loss *= 0.85,
                    60 => mean = 0.4,
                    75 => var = 1e-2,
                    90..=99 => mean = 0.5,
                    100.. => loss *= 1.1,
                    _ => loss += if it % 2 == 0 { 1e-3 } else { -1e-3 },
                }
                RoundSignal {
                    synced: it % 3 == 0,
                    ..spread_signal(it, mean, var, loss)
                }
            })
            .collect()
    }

    fn digest_bytes(policy: &mut dyn DeltaPolicy, rounds: &[RoundSignal], out: &mut Vec<u8>) {
        let export = |p: &dyn DeltaPolicy, out: &mut Vec<u8>| {
            let state = p.export_state();
            out.extend((state.ints.len() as u64).to_le_bytes());
            state.ints.iter().for_each(|i| out.extend(i.to_le_bytes()));
            out.extend((state.floats.len() as u64).to_le_bytes());
            (state.floats.iter()).for_each(|f| out.extend(f.to_bits().to_le_bytes()));
        };
        for sig in rounds {
            out.extend(policy.delta(sig.iteration).to_bits().to_le_bytes());
            policy.observe(sig);
            match policy.last_switch() {
                Some(sw) => {
                    out.push(1 + u8::from(sw.exploit));
                    out.extend(sw.loss_ewma.to_bits().to_le_bytes());
                    out.extend(sw.delta_ewma.to_bits().to_le_bytes());
                }
                None => out.push(0),
            }
            if sig.iteration + 1 == 40 || sig.iteration + 1 == 120 {
                export(policy, out);
            }
        }
        (policy.switch_rounds().iter()).for_each(|&r| out.extend((r as u64).to_le_bytes()));
    }

    #[test]
    fn policy_decisions_are_pinned_across_commits() {
        // Every policy arm driven through one signal stream, plus an export → import →
        // continue leg from round 40. The digests were recorded at the commit before
        // the spike- and variance-gated policies became one type: a change that moves
        // one threshold, switch record or state word fails here.
        let golden = [
            (PolicySpec::Fixed { delta: 0.3 }, 0x848F_619D_36B0_0640),
            (
                PolicySpec::Schedule {
                    starts: vec![0, 30, 90],
                    deltas: vec![0.0, 0.25, 0.1],
                },
                0xEFDD_9EDB_FF08_3630,
            ),
            (PolicySpec::adaptive_default(), 0x32B3_4828_E5E2_73AB),
            (PolicySpec::variance_default(), 0xF35D_51C9_AA50_BE16),
            (
                PolicySpec::Adaptive {
                    delta_explore: 0.05,
                    delta_exploit: 0.8,
                    factor: 0.3,
                    warmup: 0,
                    settle: 0.02,
                    patience: 1,
                    spike: 1.8,
                },
                0x9929_06EC_2223_DEC0,
            ),
            (
                PolicySpec::Variance {
                    delta_explore: 0.1,
                    delta_exploit: 0.6,
                    factor: 0.5,
                    warmup: 0,
                    settle: 0.03,
                    patience: 1,
                    var_ratio: 3.0,
                },
                0xF2E3_9DF9_EF85_AB30,
            ),
        ];
        let stream = pinned_stream();
        let mut wrong = Vec::new();
        for (spec, want) in golden {
            let mut bytes = spec.label().into_bytes();
            let mut a = spec.build();
            digest_bytes(a.as_mut(), &stream[..40], &mut bytes);
            let mut b = spec.build();
            b.import_state(&a.export_state());
            digest_bytes(a.as_mut(), &stream[40..], &mut bytes);
            digest_bytes(b.as_mut(), &stream[40..], &mut bytes);
            let got = selsync_comm::wire::checksum(&bytes);
            if got != want {
                wrong.push(format!("{}: {got:#018X}", spec.label()));
            }
        }
        assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
    }

    #[test]
    fn spec_labels_and_errors_are_stable() {
        assert_eq!(PolicySpec::Fixed { delta: 0.25 }.label(), "d=0.25");
        assert_eq!(
            PolicySpec::adaptive_default().label(),
            "adaptive(0->0.5,warmup=8,settle=0.05x4,spike=2.5)"
        );
        assert_eq!(
            PolicySpec::variance_default().label(),
            "variance(0->0.5,warmup=8,settle=0.05x4,var=4)"
        );
        // Each switching kind names itself and its own ratio key in its errors.
        type Break = fn(&mut f32, &mut usize, &mut f32);
        let error = |spec: &PolicySpec, break_it: Break| {
            let mut spec = spec.clone();
            match &mut spec {
                PolicySpec::Adaptive {
                    factor,
                    patience,
                    spike: ratio,
                    ..
                }
                | PolicySpec::Variance {
                    factor,
                    patience,
                    var_ratio: ratio,
                    ..
                } => break_it(factor, patience, ratio),
                _ => unreachable!(),
            }
            spec.validate().unwrap_err()
        };
        for (spec, want) in [
            (
                PolicySpec::adaptive_default(),
                [
                    "adaptive factor must be in (0, 1]",
                    "adaptive patience must be at least 1",
                    "spike must be a finite ratio above 1",
                ],
            ),
            (
                PolicySpec::variance_default(),
                [
                    "variance factor must be in (0, 1]",
                    "variance patience must be at least 1",
                    "var_ratio must be a finite ratio above 1",
                ],
            ),
        ] {
            let got = [
                error(&spec, |factor, _, _| *factor = 0.0),
                error(&spec, |_, patience, _| *patience = 0),
                error(&spec, |_, _, ratio| *ratio = 1.0),
            ];
            assert_eq!(got, want);
        }
    }
}
