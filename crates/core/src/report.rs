//! Per-run results and the derived quantities the paper's Table I reports, and
//! [`price`]: the one place a run's rounds meet the cost model.

use crate::algorithms::ssp::refresh_every;
use crate::conditions::ClusterConditions;
use crate::config::{AlgorithmSpec, TrainConfig};
use crate::policy::{run_policy_spec, SyncRule};
use selsync_comm::wire::frame_len;
use selsync_comm::CommFaultSchedule;
use selsync_nn::cost;
use selsync_nn::model::ModelKind;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One evaluation point along a training trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalPoint {
    /// Training iteration at which the evaluation happened.
    pub iteration: usize,
    /// Simulated wall-clock seconds elapsed so far.
    pub sim_time_s: f64,
    /// Training loss of the most recent step.
    pub train_loss: f32,
    /// Loss on the held-out set.
    pub test_loss: f32,
    /// Task metric on the held-out set (accuracy % or perplexity).
    pub test_metric: f32,
    /// Cluster-maximum relative gradient change `Δ(g_i)` at this iteration.
    pub delta_g: f32,
    /// Learning rate in effect.
    pub lr: f32,
}

/// Result of one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Algorithm label (e.g. `"SelSync(d=0.3,PA)"`).
    pub algorithm: String,
    /// The workload trained.
    pub model: ModelKind,
    /// Whether larger `final_metric` is better (accuracy) or worse (perplexity).
    pub higher_is_better: bool,
    /// Iterations executed.
    pub iterations: usize,
    /// Steps that were applied locally only.
    pub local_steps: u64,
    /// Steps that synchronized across workers.
    pub sync_steps: u64,
    /// The step indices (iterations, for drivers that account one step per iteration)
    /// at which a synchronization fired, in order — the run's synchronization
    /// *schedule*. Recorded-seed regressions and the threaded-vs-simulator parity
    /// tests pin this, for fixed, scheduled and adaptive δ policies, on crash-free
    /// schedules and (under scheduled rejoin pulls) on crash/rejoin schedules.
    pub sync_rounds: Vec<usize>,
    /// Local-to-synchronous step ratio (Eqn. 4).
    pub lssr: f64,
    /// Final held-out metric.
    pub final_metric: f32,
    /// Best held-out metric seen at any evaluation.
    pub best_metric: f32,
    /// Final held-out loss.
    pub final_loss: f32,
    /// Largest `Δ(g_i)` observed (the paper's `M`).
    pub max_delta: f32,
    /// Total simulated wall-clock time (compute + communication).
    pub sim_time_s: f64,
    /// Simulated time spent communicating.
    pub comm_time_s: f64,
    /// Simulated time spent computing.
    pub compute_time_s: f64,
    /// Bytes moved over the (simulated) network.
    pub bytes_communicated: u64,
    /// Number of δ-policy regime switches the run made (0 for fixed/scheduled
    /// policies, which never switch; the adaptive arm's explore↔exploit flips).
    pub policy_switches: u32,
    /// The iterations at which those regime switches fired, in order.
    pub switch_rounds: Vec<usize>,
    /// Evaluation history.
    pub history: Vec<EvalPoint>,
}

impl RunReport {
    /// The first evaluation that reached `target` (metric ≥ target for accuracy-style
    /// metrics, ≤ target for perplexity-style ones).
    fn first_reaching(&self, target: f32) -> Option<&EvalPoint> {
        let reached = |m: f32| {
            if self.higher_is_better {
                m >= target
            } else {
                m <= target
            }
        };
        self.history.iter().find(|p| reached(p.test_metric))
    }

    /// Simulated time at which this run first reached `target`. `None` if never.
    pub fn time_to_target(&self, target: f32) -> Option<f64> {
        self.first_reaching(target).map(|p| p.sim_time_s)
    }

    /// Iteration at which this run first reached `target`. `None` if never.
    pub fn iterations_to_target(&self, target: f32) -> Option<usize> {
        self.first_reaching(target).map(|p| p.iteration)
    }

    /// The paper's "Conv. Diff." column: this run's final metric minus the baseline's
    /// (sign-adjusted so positive always means "outperformed the baseline").
    pub fn convergence_diff(&self, baseline: &RunReport) -> f32 {
        if self.higher_is_better {
            self.final_metric - baseline.final_metric
        } else {
            baseline.final_metric - self.final_metric
        }
    }

    /// Whether this run matched or beat the baseline's final metric.
    pub fn outperforms(&self, baseline: &RunReport) -> bool {
        self.convergence_diff(baseline) >= 0.0
    }

    /// The paper's "Overall speedup" column: ratio of the baseline's simulated time to
    /// reach its own final metric to this run's simulated time to reach that same
    /// metric. `None` when this run never reaches the baseline's metric.
    pub fn speedup_to_baseline_target(&self, baseline: &RunReport) -> Option<f64> {
        let target = baseline.final_metric;
        let own = self.time_to_target(target)?;
        let base = baseline
            .time_to_target(target)
            .unwrap_or(baseline.sim_time_s)
            .max(f64::EPSILON);
        Some(base / own.max(f64::EPSILON))
    }

    /// Wall-clock speedup over a baseline for the *same number of iterations* (ratio of
    /// per-run simulated time), a secondary view used in the throughput figures.
    pub fn raw_time_speedup(&self, baseline: &RunReport) -> f64 {
        if self.sim_time_s <= 0.0 {
            return 0.0;
        }
        baseline.sim_time_s / self.sim_time_s
    }

    /// Communication reduction implied by the LSSR (Eqn. 4 discussion): `1/(1-LSSR)`.
    pub fn communication_reduction(&self) -> f64 {
        if (1.0 - self.lssr).abs() < f64::EPSILON {
            f64::INFINITY
        } else {
            1.0 / (1.0 - self.lssr)
        }
    }
}

/// The cost fields of a [`RunReport`]: simulated seconds and bytes on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Simulated time spent computing.
    pub compute_time_s: f64,
    /// Simulated time spent communicating.
    pub comm_time_s: f64,
    /// Bytes moved over the (simulated) network.
    pub bytes_communicated: u64,
}

/// Price `rounds` of a run of `cfg` on its cost model, onward from the totals `from`,
/// given its synchronization schedule and the `(round, bytes)` of every round that
/// injected data, both in round order; each point of `history` in `rounds` gets the
/// simulated time after its round. The simulator prices its own run with it, and a
/// cluster run's merged schedule prices to the same numbers.
///
/// A round with a present worker costs the slowest one's compute. An SSP round adds
/// one push per present worker, the pulls its refresh cadence (every `s/4` steps)
/// amortises, and its rejoin pulls. A rule-driven round adds, in this order: rejoin
/// pulls, the status all-gather (at a PS-down round the outage probe), injection, the
/// signal exchange, the worst retry penalty, the synchronization.
pub fn price(
    cfg: &TrainConfig,
    rounds: Range<usize>,
    sync_rounds: &[usize],
    injected: &[(usize, u64)],
    from: Cost,
    history: &mut [EvalPoint],
) -> Cost {
    let (n, nominal) = (cfg.workers, cfg.model.nominal());
    let (wire, frame) = (nominal.wire_bytes, frame_len(8) as u64);
    let step_s = cost::compute_time_ms(&nominal, cfg.batch_size, &cfg.device) / 1e3;
    let (rule, refresh_every, mut conditions) = match cfg.algorithm {
        AlgorithmSpec::Ssp { staleness } => {
            (None, refresh_every(staleness), cfg.conditions.clone())
        }
        _ => (Some(SyncRule::of(cfg)), 0, cfg.effective_conditions()),
    };
    // With no profile configured, SSP alone runs the paper's straggler.
    if rule.is_none() && conditions.base_speed.is_empty() {
        conditions.base_speed = ClusterConditions::paper_straggler(n).base_speed;
    }
    let signals = run_policy_spec(cfg).consumes_round_signals();
    let status = rule.is_some_and(SyncRule::exchanges_status);
    let ps = cfg.ps_fault_schedule().filter(|_| status);
    let faults = cfg.comm_faults.map(CommFaultSchedule::new);
    let (start, mut total) = (rounds.start, from);
    let mut points = history
        .iter_mut()
        .skip_while(|p| p.iteration < start)
        .peekable();
    for it in rounds {
        let present = conditions.present_workers(n, it);
        let (k, round) = (present.len(), it as u64);
        let net = conditions.network_at(it, &cfg.network);
        let back = |&&w: &&usize| it > 0 && !conditions.is_present(w, it - 1);
        let rejoins = present.iter().filter(back).count();
        let rejoin_s = (0..rejoins).fold(0.0, |sum, _| sum + net.ps_one_way_time(wire));
        let mut terms = [0.0f64; 6];
        let mut bytes = 0;
        match rule {
            _ if k == 0 => {}
            None => {
                let pushes = net.ps_one_way_time(wire) * k as f64;
                terms[0] = pushes * (1.0 + 1.0 / refresh_every as f64);
                terms[1] = rejoin_s;
                bytes += (k + rejoins) as u64 * wire;
            }
            Some(rule) => {
                if rule.has_ps() {
                    terms[0] = rejoin_s;
                    bytes += rejoins as u64 * wire;
                }
                let down = ps.as_ref().is_some_and(|s| s.down(round));
                if status && down {
                    terms[1] = net.ps_probe_time();
                    bytes += k as u64 * frame;
                } else if status {
                    terms[1] = net.status_allgather_time(k);
                    bytes += k as u64;
                    // A failed attempt costs its backoff (workers retry concurrently, so
                    // the round pays the worst) and retransmits both legs of its frame.
                    for (&w, faults) in present.iter().flat_map(|w| Some((w, faults.as_ref()?))) {
                        let attempts = (faults.attempts_used(w, round))
                            .expect("present workers complete within their retry budget");
                        if attempts > 1 {
                            bytes += (attempts as u64 - 1) * 2 * frame;
                            terms[4] = terms[4].max(faults.retry_penalty_s(w, round));
                        }
                    }
                }
                // Worker-to-worker injection shipping is unaffected by a PS outage.
                if let Ok(i) = injected.binary_search_by_key(&it, |&(r, _)| r) {
                    terms[2] = net.p2p_time(injected[i].1);
                    bytes += injected[i].1;
                }
                // Two scalar all-reduces (loss mean, Δ max) and the 2-element Δ-moment
                // vector: 16 payload bytes per present worker.
                if signals && !down {
                    terms[3] = 2.0 * net.scalar_allreduce_time(k) + net.vec_allreduce_time(k, 2);
                    bytes += k as u64 * 16;
                }
                if sync_rounds.binary_search(&it).is_ok() {
                    let contributors = match rule {
                        SyncRule::Periodic { participants, .. } => participants.min(k),
                        _ => k,
                    };
                    terms[5] = net.ps_sync_time(wire, contributors);
                    bytes += 2 * contributors as u64 * wire;
                }
            }
        }
        if k > 0 {
            total.compute_time_s += step_s * conditions.slowest_present_multiplier(n, it);
            total.comm_time_s += terms.iter().fold(0.0, |sum, t| sum + t);
            total.bytes_communicated += bytes;
        }
        while let Some(p) = points.next_if(|p| p.iteration <= it) {
            p.sim_time_s = total.compute_time_s + total.comm_time_s;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(higher: bool, metrics: &[(usize, f64, f32)], final_metric: f32, time: f64) -> RunReport {
        RunReport {
            algorithm: "test".into(),
            model: ModelKind::ResNetLike,
            higher_is_better: higher,
            iterations: 100,
            local_steps: 50,
            sync_steps: 50,
            sync_rounds: Vec::new(),
            lssr: 0.5,
            final_metric,
            best_metric: final_metric,
            final_loss: 1.0,
            max_delta: 1.0,
            sim_time_s: time,
            comm_time_s: time / 2.0,
            compute_time_s: time / 2.0,
            bytes_communicated: 0,
            policy_switches: 0,
            switch_rounds: Vec::new(),
            history: metrics
                .iter()
                .map(|&(it, t, m)| EvalPoint {
                    iteration: it,
                    sim_time_s: t,
                    train_loss: 0.0,
                    test_loss: 0.0,
                    test_metric: m,
                    delta_g: 0.0,
                    lr: 0.1,
                })
                .collect(),
        }
    }

    #[test]
    fn time_to_target_respects_metric_direction() {
        let acc = mk(
            true,
            &[(10, 1.0, 50.0), (20, 2.0, 80.0), (30, 3.0, 90.0)],
            90.0,
            3.0,
        );
        assert_eq!(acc.time_to_target(75.0), Some(2.0));
        assert_eq!(acc.time_to_target(95.0), None);
        let ppl = mk(
            false,
            &[(10, 1.0, 200.0), (20, 2.0, 120.0), (30, 3.0, 90.0)],
            90.0,
            3.0,
        );
        assert_eq!(ppl.time_to_target(130.0), Some(2.0));
        assert_eq!(ppl.iterations_to_target(95.0), Some(30));
    }

    #[test]
    fn convergence_diff_sign_is_positive_when_better() {
        let bsp = mk(true, &[], 90.0, 10.0);
        let better = mk(true, &[], 91.0, 5.0);
        assert!((better.convergence_diff(&bsp) - 1.0).abs() < 1e-6);
        assert!(better.outperforms(&bsp));
        let bsp_ppl = mk(false, &[], 90.0, 10.0);
        let better_ppl = mk(false, &[], 85.0, 5.0);
        assert!(better_ppl.convergence_diff(&bsp_ppl) > 0.0);
    }

    #[test]
    fn speedup_uses_time_to_the_baselines_metric() {
        let bsp = mk(true, &[(50, 8.0, 90.0)], 90.0, 10.0);
        let fast = mk(true, &[(30, 2.0, 90.5)], 90.5, 4.0);
        let s = fast.speedup_to_baseline_target(&bsp).unwrap();
        assert!((s - 4.0).abs() < 1e-9, "{s}");
        // A run that never reaches the target has no speedup entry (the "-" cells).
        let slow = mk(true, &[(30, 2.0, 70.0)], 70.0, 4.0);
        assert!(slow.speedup_to_baseline_target(&bsp).is_none());
    }

    #[test]
    fn raw_speedup_and_comm_reduction() {
        let a = mk(true, &[], 90.0, 10.0);
        let b = mk(true, &[], 90.0, 2.0);
        assert!((b.raw_time_speedup(&a) - 5.0).abs() < 1e-9);
        assert!((a.communication_reduction() - 2.0).abs() < 1e-9);
    }
}
