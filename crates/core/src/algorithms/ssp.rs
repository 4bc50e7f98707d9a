//! Stale-Synchronous Parallel training (§II-C).
//!
//! Workers push updates to the PS asynchronously and keep training on a locally cached
//! copy of the global model; the cache is only refreshed periodically, so the gradients
//! pushed to the PS are computed against *stale* parameters. A staleness threshold `s`
//! bounds how far the fastest worker may run ahead of the slowest: when exceeded, the
//! fast worker blocks (its simulated clock advances to the slowest worker's).
//!
//! Modelling notes: the simulator is sequential, so "fast" and
//! "slow" workers are expressed through per-worker compute-time multipliers supplied by
//! the [`crate::conditions::ClusterConditions`] heterogeneity profile — when the run
//! configures no profile at all (`base_speed` empty), the paper's default applies
//! ([`ClusterConditions::paper_straggler`]: the last worker is a 1.4× straggler, as in
//! the heterogeneity discussion). An explicit profile — including an explicitly
//! homogeneous `[1.0, …]` one, as scenario files compile to — is honoured verbatim so
//! every algorithm arm of a scenario comparison runs on the same cluster. Cache
//! refreshes happen every `s/4` steps — the staleness a worker sees therefore grows with
//! the threshold, which reproduces the paper's observation that deep models degrade
//! under SSP while shallow ones tolerate it.

use crate::conditions::ClusterConditions;
use crate::config::{AlgorithmSpec, TrainConfig};
use crate::report::RunReport;
use crate::sim::{Simulator, WorkerStep};

/// Run SSP for `cfg.iterations` per-worker iterations. Panics if `cfg.algorithm` is not SSP.
pub fn run(cfg: &TrainConfig) -> RunReport {
    let staleness = match cfg.algorithm {
        AlgorithmSpec::Ssp { staleness } => staleness.max(1),
        _ => panic!("ssp::run called with a non-SSP configuration"),
    };

    let mut sim = Simulator::new(cfg);
    let n = sim.num_workers();
    let wire = sim.nominal().wire_bytes;
    // Global model lives on the PS; workers keep cached copies in their replica slots.
    let mut global = sim.workers[0].params.clone();
    // Worker speeds come from the configured heterogeneity profile; only when none is
    // configured at all does the paper's default apply (last worker a 1.4× straggler,
    // others mildly mixed). An explicit all-1.0 profile stays homogeneous. Scheduled
    // faults from the configuration are honoured either way.
    let mut conditions = cfg.conditions.clone();
    if conditions.base_speed.is_empty() {
        conditions.base_speed = ClusterConditions::paper_straggler(n).base_speed;
    }
    let refresh_every = (staleness / 4).max(1);

    let mut worker_time = vec![0.0f64; n];
    let mut steps_since_refresh = vec![0usize; n];
    // Rejoin detection compares against the last *processed* round, exactly like
    // `Simulator::begin_round` in the rule-driven loop — a per-worker previous-presence
    // vector would miss crashes spanning an all-absent round.
    let mut last_processed: Option<usize> = None;
    let base_compute = sim.step_compute_seconds();
    let mut max_delta = 0.0f32;

    let mut steps: Vec<WorkerStep> = Vec::new();

    for it in 0..cfg.iterations {
        let lr = sim.lr_at(it);
        let push_time = sim.ps_one_way_seconds_at(it);
        let present = conditions.present_workers(n, it);
        if present.is_empty() {
            sim.account_step(0.0, 0.0, 0, false);
            last_processed = Some(it);
            continue;
        }
        let mut rejoin_comm = 0.0f64;
        let mut rejoin_bytes = 0u64;
        // Batches for the whole round are drawn up front in worker order (rejoins do
        // not touch cursors or the cluster RNG, so the streams match the old
        // interleaved loop exactly).
        sim.plan_round(&present, &mut steps);

        // A rejoining worker pulls the global model *after* the pushes of every worker
        // before it in the round, so its compute genuinely depends on same-round
        // state. Split the round into segments at rejoiners: within a segment all
        // computes are independent and run in parallel; the pushes / local applies /
        // cache refreshes replay sequentially in worker order between segments.
        let rejoining: Vec<bool> = present
            .iter()
            .map(|&w| last_processed.is_some_and(|prev| !conditions.is_present(w, prev)))
            .collect();
        let mut seg_start = 0usize;
        while seg_start < present.len() {
            let mut seg_end = seg_start + 1;
            while seg_end < present.len() && !rejoining[seg_end] {
                seg_end += 1;
            }
            if rejoining[seg_start] {
                // Rejoin: pull the current global model (an extra one-way transfer,
                // charged both to this worker's clock and to the round's accounting).
                let w = present[seg_start];
                sim.workers[w].rejoin(&global);
                steps_since_refresh[w] = 0;
                worker_time[w] += push_time;
                rejoin_comm += push_time;
                rejoin_bytes += wire;
            }

            // Parallel gradient phase for this segment.
            let round = sim.run_round(&steps[seg_start..seg_end]);
            max_delta = max_delta.max(round.max_delta);

            // Sequential post-phase, exactly the old per-worker order.
            let grads = sim.take_round_grads();
            for (j, &w) in present[seg_start..seg_end].iter().enumerate() {
                // Staleness bound: a worker that is too far ahead waits for the
                // slowest (earlier workers of this round have already advanced their
                // progress, as in the interleaved loop).
                let min_progress = present
                    .iter()
                    .map(|&p| sim.workers[p].progress)
                    .min()
                    .unwrap_or(0);
                if sim.workers[w].progress > min_progress + staleness {
                    let slowest_time = worker_time.iter().cloned().fold(0.0f64, f64::max);
                    worker_time[w] = worker_time[w].max(slowest_time);
                }

                // Push: apply this worker's (stale) gradient directly to the global
                // model.
                for (p, &gi) in global.iter_mut().zip(grads[j].iter()) {
                    *p -= lr * gi;
                }
                // The worker also advances its own cached copy with its local gradient.
                sim.workers[w].apply_local(&grads[j], lr);
                steps_since_refresh[w] += 1;
                let mut comm = push_time;
                if steps_since_refresh[w] >= refresh_every {
                    // Pull: refresh the cached copy from the global model.
                    sim.workers[w].params.copy_from_slice(&global);
                    sim.workers[w].optimizer.reset();
                    steps_since_refresh[w] = 0;
                    comm += push_time;
                }
                worker_time[w] += base_compute * conditions.compute_multiplier(w, it) + comm;
            }
            sim.restore_round_grads(grads);
            seg_start = seg_end;
        }
        // Account the wall-clock of this round as the slowest present worker's progress
        // and the communication as 2 one-way transfers per present worker (push +
        // amortised pull).
        let round_compute = base_compute * conditions.slowest_present_multiplier(n, it);
        let round_comm = push_time * present.len() as f64 * (1.0 + 1.0 / refresh_every as f64);
        // SSP never performs a blocking aggregation, so LSSR does not apply; we record
        // the steps as local (communication time is still charged).
        sim.account_step(
            round_compute,
            round_comm + rejoin_comm,
            (present.len() as u64) * wire + rejoin_bytes,
            false,
        );

        last_processed = Some(it);
        if sim.should_eval(it) {
            sim.record_eval(it, &global, max_delta);
            max_delta = 0.0;
        }
    }
    sim.finalize(cfg.algorithm.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use selsync_nn::model::ModelKind;

    fn cfg(staleness: usize) -> TrainConfig {
        let mut cfg = TrainConfig::small(ModelKind::AlexLike, 3);
        cfg.iterations = 30;
        cfg.eval_every = 10;
        cfg.train_samples = 384;
        cfg.test_samples = 64;
        cfg.eval_samples = 64;
        cfg.batch_size = 8;
        cfg.algorithm = AlgorithmSpec::Ssp { staleness };
        cfg
    }

    #[test]
    fn ssp_runs_and_reports_progress() {
        let report = run(&cfg(16));
        assert_eq!(report.iterations, 30);
        assert!(report.final_loss.is_finite());
        assert!(report.comm_time_s > 0.0);
        assert!(report.bytes_communicated > 0);
    }

    #[test]
    fn ssp_avoids_the_full_ps_aggregation_cost() {
        let ssp = run(&cfg(16));
        let mut bsp_cfg = cfg(16);
        bsp_cfg.algorithm = AlgorithmSpec::Bsp;
        let bsp = crate::algorithms::run(&bsp_cfg);
        assert!(ssp.comm_time_s < bsp.comm_time_s);
    }

    #[test]
    fn ssp_learns_on_a_shallow_model() {
        // The paper finds SSP works well for AlexNet; the analogue should at least improve.
        let report = run(&cfg(8));
        let first = report.history.first().unwrap().test_metric;
        assert!(report.best_metric >= first);
    }

    #[test]
    fn explicit_uniform_profile_disables_the_default_straggler() {
        use crate::conditions::ClusterConditions;
        // No profile at all -> paper default (last worker 1.4x). An explicit all-1.0
        // profile (what scenario files compile to) must stay homogeneous so every
        // scenario arm runs on the same cluster.
        let default_run = run(&cfg(8));
        let mut uniform = cfg(8);
        uniform.conditions = ClusterConditions::with_speeds(vec![1.0; 3]);
        let uniform_run = run(&uniform);
        let ratio = default_run.compute_time_s / uniform_run.compute_time_s;
        assert!(
            (ratio - 1.4).abs() < 1e-9,
            "straggler stretch ratio {ratio}"
        );
    }

    #[test]
    fn rejoin_pull_is_accounted_in_comm_bytes() {
        use crate::conditions::{ClusterConditions, FaultEvent};
        let mut c = cfg(8);
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 1,
            start: 5,
            rejoin: Some(10),
        });
        let report = run(&c);
        let wire = selsync_nn::model::PaperModel::build(ModelKind::AlexLike, c.seed)
            .nominal
            .wire_bytes;
        // 25 iterations with 3 present workers, 5 with 2, plus one rejoin pull.
        assert_eq!(report.bytes_communicated, (25 * 3 + 5 * 2 + 1) * wire);
    }

    #[test]
    fn rejoin_is_detected_across_an_all_absent_round() {
        use crate::conditions::{ClusterConditions, FaultEvent};
        // Both workers of a 2-worker cluster are absent at iteration 5; worker 0 is
        // absent *only* there. Its rejoin at iteration 6 must still be detected (a
        // previous-presence vector frozen across the empty round would miss it).
        let mut c = cfg(8);
        c.workers = 2;
        c.conditions = ClusterConditions::uniform()
            .with_fault(FaultEvent::Crash {
                worker: 0,
                start: 5,
                rejoin: Some(6),
            })
            .with_fault(FaultEvent::Crash {
                worker: 1,
                start: 5,
                rejoin: Some(8),
            });
        let report = run(&c);
        let wire = selsync_nn::model::PaperModel::build(ModelKind::AlexLike, c.seed)
            .nominal
            .wire_bytes;
        // 5 two-worker rounds, 1 empty round, 2 one-worker rounds, 22 two-worker
        // rounds, plus exactly two rejoin pulls (worker 0 at 6, worker 1 at 8).
        let present_transfers = 5 * 2 + 2 + 22 * 2;
        let rejoin_pulls = 2;
        assert_eq!(
            report.bytes_communicated,
            (present_transfers + rejoin_pulls) * wire
        );
    }

    #[test]
    #[should_panic]
    fn wrong_spec_panics() {
        let mut c = cfg(8);
        c.algorithm = AlgorithmSpec::Bsp;
        let _ = run(&c);
    }
}
