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
/// FedAvg, local SGD and SelSync differ in, as data for their one round loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SyncRule {
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
/// The signals are cluster-level in both backends: the round-maximum `Δ(g_i)` and the
/// mean batch loss over the round's steps. The simulator merges them in worker order
/// ([`crate::sim::RoundOutput::signal`]); the threaded driver computes the identical
/// aggregates through the elastic scalar all-reduce accompanying the 1-bit status
/// exchange (`selsync_comm::Collective::allreduce_scalar_among`) and feeds them to its
/// single shared policy instance, so both backends' policies observe the same stream.
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
    /// The `Δ(g)` baseline the decision compared against: for a spike-triggered
    /// switch, the pre-update EWMA the raw `Δ(g)` was measured as a multiple of;
    /// for a settle-triggered switch, the current `Δ(g)` EWMA.
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

    /// Short label used in report algorithm names (e.g. `d=0.3`, `adaptive(0..0.5)`).
    fn label(&self) -> String;

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
    let has = ints
        .next()
        .unwrap_or_else(|| panic!("{what} EWMA state: missing presence flag"))
        != 0;
    let smoothed = floats
        .next()
        .unwrap_or_else(|| panic!("{what} EWMA state: missing smoothed value"));
    let n = ints
        .next()
        .unwrap_or_else(|| panic!("{what} EWMA state: missing history length"))
        as usize;
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

    fn label(&self) -> String {
        format!("d={}", self.delta)
    }
}

/// An iteration-keyed δ schedule: stage `i` applies from iteration `starts[i]` until
/// the next stage begins. A pure function of the iteration, so every consumer agrees
/// on every threshold without coordination.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledDelta {
    starts: Vec<usize>,
    deltas: Vec<f32>,
}

impl ScheduledDelta {
    /// Build from parallel `starts`/`deltas` arrays (validated: non-empty, equal
    /// length, `starts[0] == 0`, strictly increasing, finite non-negative deltas).
    pub fn new(starts: Vec<usize>, deltas: Vec<f32>) -> Self {
        PolicySpec::Schedule {
            starts: starts.clone(),
            deltas: deltas.clone(),
        }
        .validate()
        .expect("invalid δ schedule");
        ScheduledDelta { starts, deltas }
    }
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

    fn label(&self) -> String {
        let stages: Vec<String> = self
            .starts
            .iter()
            .zip(self.deltas.iter())
            .map(|(s, d)| format!("{s}:{d}"))
            .collect();
        format!("schedule({})", stages.join(","))
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
/// * the **`Δ(g)` ratio** decides *spiking*: a raw round `Δ(g)` at least `spike` times
///   its own EWMA (a rejoining worker's restarted tracker, an LR-decay kink) switches
///   back to `delta_explore`; the settle detector then re-relaxes once the loss EWMA
///   is calm again. Self-normalising, so the same `spike` works across workloads whose
///   absolute `Δ(g)` scales differ.
#[derive(Debug, Clone)]
pub struct AdaptiveDelta {
    delta_explore: f32,
    delta_exploit: f32,
    warmup: usize,
    settle: f32,
    patience: usize,
    spike: f32,
    loss: Ewma,
    delta_signal: Ewma,
    rounds: usize,
    calm: usize,
    exploiting: bool,
    switches: u32,
    switch_rounds: Vec<usize>,
    last_switch: Option<SwitchRecord>,
}

impl AdaptiveDelta {
    /// Build from a validated [`PolicySpec::Adaptive`] configuration.
    pub fn from_spec(spec: &PolicySpec) -> Self {
        spec.validate().expect("invalid adaptive-δ configuration");
        match *spec {
            PolicySpec::Adaptive {
                delta_explore,
                delta_exploit,
                factor,
                warmup,
                settle,
                patience,
                spike,
            } => AdaptiveDelta {
                delta_explore,
                delta_exploit,
                warmup,
                settle,
                patience,
                spike,
                loss: Ewma::new(factor, 25),
                delta_signal: Ewma::new(factor, 25),
                rounds: 0,
                calm: 0,
                exploiting: false,
                switches: 0,
                switch_rounds: Vec::new(),
                last_switch: None,
            },
            _ => panic!("AdaptiveDelta::from_spec needs PolicySpec::Adaptive"),
        }
    }

    /// Whether the policy is currently in the relaxed (exploit) regime.
    pub fn exploiting(&self) -> bool {
        self.exploiting
    }

    /// Number of regime switches so far.
    pub fn switches(&self) -> u32 {
        self.switches
    }
}

impl DeltaPolicy for AdaptiveDelta {
    fn delta(&self, _iteration: usize) -> f32 {
        if self.exploiting {
            self.delta_exploit
        } else {
            self.delta_explore
        }
    }

    fn observe(&mut self, signal: &RoundSignal) {
        self.rounds += 1;
        self.last_switch = None;
        let prev_loss = self.loss.value();
        let smoothed_loss = self.loss.update(signal.mean_loss);
        let prev_delta = self.delta_signal.value();
        self.delta_signal.update(signal.max_delta);

        if self.exploiting {
            // Spike detector: a raw Δ(g) far above its own running level means the
            // cluster's dynamics changed (rejoin, LR decay) — synchronize eagerly
            // until the loss settles again.
            if let Some(base) = prev_delta {
                if base > 0.0 && signal.max_delta >= self.spike * base {
                    self.exploiting = false;
                    self.calm = 0;
                    self.switches += 1;
                    self.switch_rounds.push(signal.iteration);
                    self.last_switch = Some(SwitchRecord {
                        exploit: false,
                        loss_ewma: smoothed_loss,
                        delta_ewma: base,
                    });
                }
            }
            return;
        }
        // Settle detector (active only after the warmup, once the EWMA is meaningful):
        // count consecutive rounds whose smoothed-loss improvement is below `settle`.
        if self.rounds <= self.warmup {
            return;
        }
        let improvement = match prev_loss {
            Some(prev) if prev.abs() > f32::EPSILON => (prev - smoothed_loss) / prev,
            _ => 0.0,
        };
        // Calm means *plateaued*: neither improving nor regressing faster than
        // `settle` per round. A loss rising beyond the threshold is volatility, not
        // settling — it must keep the eager regime.
        if improvement.abs() < self.settle {
            self.calm += 1;
        } else {
            self.calm = 0;
        }
        if self.calm >= self.patience {
            self.exploiting = true;
            self.calm = 0;
            self.switches += 1;
            self.switch_rounds.push(signal.iteration);
            self.last_switch = Some(SwitchRecord {
                exploit: true,
                loss_ewma: smoothed_loss,
                delta_ewma: self.delta_signal.value().unwrap_or(0.0),
            });
        }
    }

    fn label(&self) -> String {
        format!(
            "adaptive({}->{},warmup={},settle={}x{},spike={})",
            self.delta_explore,
            self.delta_exploit,
            self.warmup,
            self.settle,
            self.patience,
            self.spike
        )
    }

    fn last_switch(&self) -> Option<SwitchRecord> {
        self.last_switch
    }

    fn switch_rounds(&self) -> &[usize] {
        &self.switch_rounds
    }

    fn export_state(&self) -> PolicyState {
        let mut state = PolicyState::default();
        state.ints.push(u64::from(self.exploiting));
        state.ints.push(self.rounds as u64);
        state.ints.push(self.calm as u64);
        state.ints.push(u64::from(self.switches));
        pack_ewma(&self.loss, &mut state);
        pack_ewma(&self.delta_signal, &mut state);
        state.ints.push(self.switch_rounds.len() as u64);
        state
            .ints
            .extend(self.switch_rounds.iter().map(|&r| r as u64));
        state
    }

    fn import_state(&mut self, state: &PolicyState) {
        let mut ints = state.ints.iter().copied();
        let mut floats = state.floats.iter().copied();
        self.exploiting = ints.next().expect("adaptive state: exploiting") != 0;
        self.rounds = ints.next().expect("adaptive state: rounds") as usize;
        self.calm = ints.next().expect("adaptive state: calm") as usize;
        self.switches = ints.next().expect("adaptive state: switches") as u32;
        unpack_ewma(&mut self.loss, &mut ints, &mut floats, "adaptive loss");
        unpack_ewma(
            &mut self.delta_signal,
            &mut ints,
            &mut floats,
            "adaptive Δ(g)",
        );
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

/// A variance-gated variant of [`AdaptiveDelta`]: the settle detector (loss-EWMA
/// plateau) is identical, but the *re-entry* trigger watches the cluster-level
/// **variance of the per-worker `Δ(g_i)`** ([`RoundSignal::delta_variance`]) instead
/// of the round-maximum's ratio to its own EWMA.
///
/// Rationale: a single worker's restarted tracker or a straggling shard shows up as
/// per-worker *disagreement* (variance) well before it moves the round maximum's
/// smoothed level, so the variance gate re-synchronizes earlier on localized
/// disturbances while ignoring cluster-wide level shifts that affect every worker
/// equally (e.g. an LR decay moving all `Δ(g_i)` together keeps variance low).
#[derive(Debug, Clone)]
pub struct VarianceDelta {
    delta_explore: f32,
    delta_exploit: f32,
    warmup: usize,
    settle: f32,
    patience: usize,
    var_ratio: f32,
    loss: Ewma,
    var_signal: Ewma,
    rounds: usize,
    calm: usize,
    exploiting: bool,
    switches: u32,
    switch_rounds: Vec<usize>,
    last_switch: Option<SwitchRecord>,
}

impl VarianceDelta {
    /// Build from a validated [`PolicySpec::Variance`] configuration.
    pub fn from_spec(spec: &PolicySpec) -> Self {
        spec.validate().expect("invalid variance-δ configuration");
        match *spec {
            PolicySpec::Variance {
                delta_explore,
                delta_exploit,
                factor,
                warmup,
                settle,
                patience,
                var_ratio,
            } => VarianceDelta {
                delta_explore,
                delta_exploit,
                warmup,
                settle,
                patience,
                var_ratio,
                loss: Ewma::new(factor, 25),
                var_signal: Ewma::new(factor, 25),
                rounds: 0,
                calm: 0,
                exploiting: false,
                switches: 0,
                switch_rounds: Vec::new(),
                last_switch: None,
            },
            _ => panic!("VarianceDelta::from_spec needs PolicySpec::Variance"),
        }
    }

    /// Whether the policy is currently in the relaxed (exploit) regime.
    pub fn exploiting(&self) -> bool {
        self.exploiting
    }

    /// Number of regime switches so far.
    pub fn switches(&self) -> u32 {
        self.switches
    }
}

impl DeltaPolicy for VarianceDelta {
    fn delta(&self, _iteration: usize) -> f32 {
        if self.exploiting {
            self.delta_exploit
        } else {
            self.delta_explore
        }
    }

    fn observe(&mut self, signal: &RoundSignal) {
        self.rounds += 1;
        self.last_switch = None;
        let prev_loss = self.loss.value();
        let smoothed_loss = self.loss.update(signal.mean_loss);
        let variance = signal.delta_variance();
        let prev_var = self.var_signal.value();
        self.var_signal.update(variance);

        if self.exploiting {
            // Variance gate: per-worker Δ(g) disagreement blowing past its running
            // level means one part of the cluster's dynamics changed — re-enter the
            // eager regime until the loss settles again.
            if let Some(base) = prev_var {
                if base > 0.0 && variance >= self.var_ratio * base {
                    self.exploiting = false;
                    self.calm = 0;
                    self.switches += 1;
                    self.switch_rounds.push(signal.iteration);
                    self.last_switch = Some(SwitchRecord {
                        exploit: false,
                        loss_ewma: smoothed_loss,
                        // The baseline the variance was measured as a multiple of.
                        delta_ewma: base,
                    });
                }
            }
            return;
        }
        if self.rounds <= self.warmup {
            return;
        }
        let improvement = match prev_loss {
            Some(prev) if prev.abs() > f32::EPSILON => (prev - smoothed_loss) / prev,
            _ => 0.0,
        };
        if improvement.abs() < self.settle {
            self.calm += 1;
        } else {
            self.calm = 0;
        }
        if self.calm >= self.patience {
            self.exploiting = true;
            self.calm = 0;
            self.switches += 1;
            self.switch_rounds.push(signal.iteration);
            self.last_switch = Some(SwitchRecord {
                exploit: true,
                loss_ewma: smoothed_loss,
                delta_ewma: self.var_signal.value().unwrap_or(0.0),
            });
        }
    }

    fn label(&self) -> String {
        format!(
            "variance({}->{},warmup={},settle={}x{},var={})",
            self.delta_explore,
            self.delta_exploit,
            self.warmup,
            self.settle,
            self.patience,
            self.var_ratio
        )
    }

    fn last_switch(&self) -> Option<SwitchRecord> {
        self.last_switch
    }

    fn switch_rounds(&self) -> &[usize] {
        &self.switch_rounds
    }

    fn export_state(&self) -> PolicyState {
        let mut state = PolicyState::default();
        state.ints.push(u64::from(self.exploiting));
        state.ints.push(self.rounds as u64);
        state.ints.push(self.calm as u64);
        state.ints.push(u64::from(self.switches));
        pack_ewma(&self.loss, &mut state);
        pack_ewma(&self.var_signal, &mut state);
        state.ints.push(self.switch_rounds.len() as u64);
        state
            .ints
            .extend(self.switch_rounds.iter().map(|&r| r as u64));
        state
    }

    fn import_state(&mut self, state: &PolicyState) {
        let mut ints = state.ints.iter().copied();
        let mut floats = state.floats.iter().copied();
        self.exploiting = ints.next().expect("variance state: exploiting") != 0;
        self.rounds = ints.next().expect("variance state: rounds") as usize;
        self.calm = ints.next().expect("variance state: calm") as usize;
        self.switches = ints.next().expect("variance state: switches") as u32;
        unpack_ewma(&mut self.loss, &mut ints, &mut floats, "variance loss");
        unpack_ewma(
            &mut self.var_signal,
            &mut ints,
            &mut floats,
            "variance Δ-var",
        );
        let n = ints.next().expect("variance state: switch-round count") as usize;
        self.switch_rounds = ints.by_ref().take(n).map(|r| r as usize).collect();
        assert_eq!(
            self.switch_rounds.len(),
            n,
            "variance state: truncated switch rounds"
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
        /// Calm means the smoothed loss improves by less than this (relative, per
        /// round).
        settle: f32,
        /// Consecutive calm rounds required before switching to exploit.
        patience: usize,
        /// A raw round `Δ(g)` at least `spike` times its own EWMA switches back to
        /// the eager regime.
        spike: f32,
    },
    /// The variance-gated adaptive policy ([`VarianceDelta`]): same settle detector,
    /// but re-entry watches the per-worker `Δ(g)` variance instead of the maximum.
    Variance {
        /// Sync-eager threshold used while training dynamics are volatile.
        delta_explore: f32,
        /// Relaxed threshold used once the loss has settled.
        delta_exploit: f32,
        /// EWMA smoothing factor for the watched loss / Δ-variance signals, in `(0, 1]`.
        factor: f32,
        /// Rounds the policy always stays eager before the settle detector arms.
        warmup: usize,
        /// Calm means the smoothed loss improves by less than this (relative, per
        /// round).
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
            PolicySpec::Adaptive {
                delta_explore,
                delta_exploit,
                factor,
                warmup: _,
                settle,
                patience,
                spike,
            } => {
                finite_delta(*delta_explore, "delta_explore")?;
                finite_delta(*delta_exploit, "delta_exploit")?;
                if !(*factor > 0.0 && *factor <= 1.0) {
                    return Err("adaptive factor must be in (0, 1]".into());
                }
                if *patience == 0 {
                    return Err("adaptive patience must be at least 1".into());
                }
                if !(*settle > 0.0 && settle.is_finite()) {
                    return Err("settle must be a finite positive number".into());
                }
                if !(*spike > 1.0 && spike.is_finite()) {
                    return Err("spike must be a finite ratio above 1".into());
                }
                Ok(())
            }
            PolicySpec::Variance {
                delta_explore,
                delta_exploit,
                factor,
                warmup: _,
                settle,
                patience,
                var_ratio,
            } => {
                finite_delta(*delta_explore, "delta_explore")?;
                finite_delta(*delta_exploit, "delta_exploit")?;
                if !(*factor > 0.0 && *factor <= 1.0) {
                    return Err("variance factor must be in (0, 1]".into());
                }
                if *patience == 0 {
                    return Err("variance patience must be at least 1".into());
                }
                if !(*settle > 0.0 && settle.is_finite()) {
                    return Err("settle must be a finite positive number".into());
                }
                if !(*var_ratio > 1.0 && var_ratio.is_finite()) {
                    return Err("var_ratio must be a finite ratio above 1".into());
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
            PolicySpec::Schedule { starts, deltas } => {
                Box::new(ScheduledDelta::new(starts.clone(), deltas.clone()))
            }
            PolicySpec::Adaptive { .. } => Box::new(AdaptiveDelta::from_spec(self)),
            PolicySpec::Variance { .. } => Box::new(VarianceDelta::from_spec(self)),
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

    /// The label the built policy reports (stable: used in report algorithm names).
    /// Formats directly — no runtime policy is constructed; pinned equal to
    /// `build().label()` by a unit test.
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
            PolicySpec::Adaptive {
                delta_explore,
                delta_exploit,
                warmup,
                settle,
                patience,
                spike,
                ..
            } => format!(
                "adaptive({delta_explore}->{delta_exploit},warmup={warmup},settle={settle}x{patience},spike={spike})"
            ),
            PolicySpec::Variance {
                delta_explore,
                delta_exploit,
                warmup,
                settle,
                patience,
                var_ratio,
                ..
            } => format!(
                "variance({delta_explore}->{delta_exploit},warmup={warmup},settle={settle}x{patience},var={var_ratio})"
            ),
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
        let p = PolicySpec::Fixed { delta: 0.3 }.build();
        assert_eq!(p.delta(0), 0.3);
        assert_eq!(p.delta(10_000), 0.3);
        assert_eq!(p.label(), "d=0.3");
    }

    #[test]
    fn schedule_policy_switches_at_stage_starts() {
        let mut p = ScheduledDelta::new(vec![0, 10, 30], vec![0.0, 0.2, 0.5]);
        assert_eq!(p.delta(0), 0.0);
        assert_eq!(p.delta(9), 0.0);
        assert_eq!(p.delta(10), 0.2);
        assert_eq!(p.delta(29), 0.2);
        assert_eq!(p.delta(30), 0.5);
        assert_eq!(p.delta(1000), 0.5);
        // Observations are ignored: the schedule is a pure function of the iteration.
        p.observe(&signal(5, 100.0, 100.0));
        assert_eq!(p.delta(5), 0.0);
        assert_eq!(p.label(), "schedule(0:0,10:0.2,30:0.5)");
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
        assert!(!p.exploiting());
        assert_eq!(p.delta(0), 0.0, "starts in the sync-eager regime");
        // A fast-descending loss keeps the eager regime past the warmup.
        let mut loss = 8.0f32;
        for it in 0..20 {
            p.observe(&signal(it, 0.05, loss));
            loss *= 0.85; // 15% per round: well above the 3% settle threshold
        }
        assert!(!p.exploiting(), "loss still descending fast");
        // The loss flattens; after `patience` calm rounds the policy relaxes.
        let mut switched_at = None;
        for it in 20..60 {
            p.observe(&signal(it, 0.05, loss));
            if p.exploiting() && switched_at.is_none() {
                switched_at = Some(it);
            }
        }
        assert!(p.exploiting(), "must switch after the loss settles");
        assert_eq!(p.delta(60), 0.5);
        assert!(switched_at.unwrap() >= 20 + 4 - 1, "respects patience");
        assert_eq!(p.switches(), 1);
    }

    #[test]
    fn adaptive_policy_respects_warmup_even_with_a_flat_loss() {
        // A loss that is flat from the very first round must not trigger the switch
        // before `warmup` + `patience` observations.
        let mut p = AdaptiveDelta::from_spec(&PolicySpec::adaptive_default());
        for it in 0..11 {
            p.observe(&signal(it, 0.05, 1.0));
            assert!(!p.exploiting(), "round {it} is inside warmup + patience");
        }
        p.observe(&signal(11, 0.05, 1.0));
        assert!(
            p.exploiting(),
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
            loss *= 1.2; // +20% per round: far above the 3% settle band
        }
        assert!(
            !p.exploiting(),
            "a regressing loss must keep syncing eagerly"
        );
    }

    #[test]
    fn adaptive_policy_reverts_on_a_delta_spike() {
        let mut p = AdaptiveDelta::from_spec(&PolicySpec::adaptive_default());
        for it in 0..30 {
            p.observe(&signal(it, 0.05, 1.0));
        }
        assert!(p.exploiting());
        // A Δ(g) jump to 4x its running level (a rejoining worker's restarted
        // tracker) re-enters the eager regime; the Δ EWMA sits near 0.05.
        p.observe(&signal(30, 0.2, 1.0));
        assert!(!p.exploiting(), "spike must re-enter the eager regime");
        assert_eq!(p.delta(31), 0.0);
        assert_eq!(p.switches(), 2);
        // With the loss already calm, the policy re-relaxes after `patience` rounds.
        for it in 31..36 {
            p.observe(&signal(it, 0.05, 1.0));
        }
        assert!(
            p.exploiting(),
            "calm loss re-relaxes after the repair window"
        );
        assert_eq!(p.switches(), 3);
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
        assert_eq!(p.switches(), p.switch_rounds().len() as u32);
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
        let mut p = VarianceDelta::from_spec(&PolicySpec::variance_default());
        assert!(!p.exploiting());
        assert_eq!(p.delta(0), 0.0);
        // Flat loss with a small, steady per-worker Δ variance: settles after
        // warmup + patience (round 11), exactly like the adaptive default.
        for it in 0..12 {
            p.observe(&spread_signal(it, 0.05, 1e-4, 1.0));
        }
        assert!(p.exploiting(), "flat loss must relax the threshold");
        assert_eq!(p.delta(12), 0.5);
        assert_eq!(p.switch_rounds(), &[11]);
        // A cluster-wide level shift (all workers' Δ move together: variance
        // unchanged) must NOT re-enter the eager regime...
        p.observe(&spread_signal(12, 0.5, 1e-4, 1.0));
        assert!(
            p.exploiting(),
            "level shifts with low variance stay relaxed"
        );
        // ...but a localized disturbance (variance 100× its running level) must.
        p.observe(&spread_signal(13, 0.06, 1e-2, 1.0));
        assert!(
            !p.exploiting(),
            "variance blow-up re-enters the eager regime"
        );
        let rec = p.last_switch().expect("switch must be reported");
        assert!(!rec.exploit);
        assert!(rec.delta_ewma > 0.0, "reports the variance baseline");
        assert_eq!(p.switches(), 2);
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

    #[test]
    fn spec_labels_are_stable_and_match_the_runtime_policies() {
        assert_eq!(PolicySpec::Fixed { delta: 0.25 }.label(), "d=0.25");
        assert_eq!(
            PolicySpec::adaptive_default().label(),
            "adaptive(0->0.5,warmup=8,settle=0.05x4,spike=2.5)"
        );
        // The spec-side formatting must never drift from the built policies' labels.
        for spec in [
            PolicySpec::Fixed { delta: 0.25 },
            PolicySpec::Schedule {
                starts: vec![0, 10, 30],
                deltas: vec![0.0, 0.2, 0.5],
            },
            PolicySpec::adaptive_default(),
            PolicySpec::variance_default(),
        ] {
            assert_eq!(spec.label(), spec.build().label());
        }
        assert_eq!(
            PolicySpec::variance_default().label(),
            "variance(0->0.5,warmup=8,settle=0.05x4,var=4)"
        );
    }
}
