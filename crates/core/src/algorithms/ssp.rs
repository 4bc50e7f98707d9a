//! Stale-Synchronous Parallel training (§II-C).
//!
//! Workers push updates to the PS asynchronously and keep training on a locally cached
//! copy of the global model; the cache is only refreshed periodically, so the gradients
//! pushed to the PS are computed against *stale* parameters. Here the staleness
//! threshold `s` sets only the refresh cadence: a worker refreshes its copy every
//! `s/4` of its steps, so the staleness it sees grows with the threshold, which
//! reproduces the paper's observation that deep models degrade under SSP while
//! shallow ones tolerate it. No worker runs ahead of another or blocks on one: every
//! present worker steps once per round, and a round costs the slowest present
//! worker's compute ([`crate::report::price`], which runs SSP on the paper's 1.4×
//! straggler when no heterogeneity profile is configured; an explicit one, uniform
//! included, is honoured). Whether SSP gets a clock on which the bound binds is
//! ROADMAP L's decision.

use crate::config::{AlgorithmSpec, TrainConfig};
use crate::report::RunReport;
use crate::sim::{Simulator, WorkerStep};

/// Run SSP for `cfg.iterations` per-worker iterations. Panics if `cfg.algorithm` is not SSP.
pub fn run(cfg: &TrainConfig) -> RunReport {
    let refresh_every = match cfg.algorithm {
        AlgorithmSpec::Ssp { staleness } => refresh_every(staleness),
        _ => panic!("ssp::run called with a non-SSP configuration"),
    };

    let mut sim = Simulator::new(cfg);
    let n = sim.num_workers();
    // Global model lives on the PS; workers keep cached copies in their replica slots.
    let mut global = sim.workers[0].params.clone();
    let conditions = &cfg.conditions;

    let mut steps_since_refresh = vec![0usize; n];
    let mut max_delta = 0.0f32;

    let mut steps: Vec<WorkerStep> = Vec::new();

    for it in 0..cfg.iterations {
        let lr = sim.lr_at(it);
        let present = conditions.present_workers(n, it);
        if present.is_empty() {
            sim.account_step(0.0, 0.0, 0, false);
            continue;
        }
        // Batches for the whole round are drawn up front in worker order (rejoins do
        // not touch cursors or the cluster RNG, so the streams match the old
        // interleaved loop exactly).
        sim.plan_round(&present, &mut steps);

        // A rejoining worker — one that missed the round before, even when that round
        // had no one present — pulls the global model *after* the pushes of every
        // worker before it in the round, so its compute genuinely depends on
        // same-round state. Split the round into segments at rejoiners: within a
        // segment all computes are independent and run in parallel; the pushes /
        // local applies / cache refreshes replay sequentially in worker order between
        // segments.
        let rejoining: Vec<bool> = present.iter().map(|&w| conditions.rejoins(w, it)).collect();
        let mut seg_start = 0usize;
        while seg_start < present.len() {
            let mut seg_end = seg_start + 1;
            while seg_end < present.len() && !rejoining[seg_end] {
                seg_end += 1;
            }
            if rejoining[seg_start] {
                let w = present[seg_start];
                sim.workers[w].rejoin(&global);
                steps_since_refresh[w] = 0;
            }

            // Parallel gradient phase for this segment.
            let round = sim.run_round(&steps[seg_start..seg_end]);
            max_delta = max_delta.max(round.max_delta);

            // Sequential post-phase, exactly the old per-worker order.
            let grads = sim.take_round_grads();
            for (j, &w) in present[seg_start..seg_end].iter().enumerate() {
                // Push: apply this worker's (stale) gradient directly to the global
                // model.
                for (p, &gi) in global.iter_mut().zip(grads[j].iter()) {
                    *p -= lr * gi;
                }
                // The worker also advances its own cached copy with its local gradient.
                sim.workers[w].apply_local(&grads[j], lr);
                steps_since_refresh[w] += 1;
                if steps_since_refresh[w] >= refresh_every {
                    // Pull: refresh the cached copy from the global model.
                    sim.workers[w].params.copy_from_slice(&global);
                    sim.workers[w].optimizer.reset();
                    steps_since_refresh[w] = 0;
                }
            }
            sim.restore_round_grads(grads);
            seg_start = seg_end;
        }
        // SSP never performs a blocking aggregation, so LSSR does not apply: every
        // step counts as local.
        sim.account_step(0.0, 0.0, 0, false);

        if sim.should_eval(it) {
            sim.record_eval(it, &global, max_delta);
            max_delta = 0.0;
        }
    }
    sim.finalize(cfg.algorithm.name())
}

/// The steps between a worker's cache refreshes under the staleness threshold `s`.
pub(crate) fn refresh_every(staleness: usize) -> usize {
    (staleness / 4).max(1)
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
