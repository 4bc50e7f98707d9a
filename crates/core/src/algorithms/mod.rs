//! Distributed training algorithm drivers.
//!
//! Four of the paper's algorithms are one training loop that differs only in *when*
//! and *what* it aggregates — the axis the paper studies — so each is a sync rule
//! ([`crate::policy::SyncRule`]) that the one round loop reads. [`selsync`] runs it
//! over the simulator's in-memory link; the cluster backends run the same loop
//! under the rule `crate::process::ensure_supported` gives them:
//!
//! | Algorithm | Sync bits | Contributors | Averages | Status all-gather, retries, PS outages | PS | Cluster backends | Paper section |
//! |---|---|---|---|---|---|---|---|
//! | BSP | every round | present workers | gradients | no | yes | SelSync at δ = 0: parameters, status all-gather, meets outages | §II-A |
//! | local SGD | never | — | — | no | no | not admitted | §III-B (δ ≥ M limit) |
//! | FedAvg | every `round(E·steps_per_epoch)`-th round | `⌈C·N⌉` drawn workers | parameters | no | yes | not admitted | §II-B |
//! | SelSync | `Δ(g_i) ≥ δ`, any bit syncs | present workers | parameters or gradients | yes | yes | parameters only; no injection over non-IID shards | §III |
//!
//! SSP (§II-C) keeps its own driver, [`ssp`]: each worker pushes to the global model
//! and refreshes its stale copy on its own cadence inside a round, which does not
//! reduce to one cluster decision per round. Every run's cost is
//! [`crate::report::price`]'s.
//!
//! [`run`] dispatches on [`AlgorithmSpec`] and returns a [`RunReport`].

pub mod selsync;
pub mod ssp;

use crate::config::{AlgorithmSpec, TrainConfig};
use crate::report::RunReport;

/// Run the algorithm selected by `cfg.algorithm` and return its report.
pub fn run(cfg: &TrainConfig) -> RunReport {
    match cfg.algorithm {
        AlgorithmSpec::Ssp { .. } => ssp::run(cfg),
        _ => selsync::run(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selsync_nn::model::ModelKind;

    fn tiny(algo: AlgorithmSpec) -> TrainConfig {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 2);
        cfg.iterations = 12;
        cfg.eval_every = 6;
        cfg.train_samples = 256;
        cfg.test_samples = 64;
        cfg.eval_samples = 64;
        cfg.batch_size = 8;
        cfg.algorithm = algo;
        cfg
    }

    #[test]
    fn dispatcher_selects_each_algorithm() {
        for (algo, label) in [
            (AlgorithmSpec::Bsp, "BSP"),
            (AlgorithmSpec::LocalSgd, "LocalSGD"),
            (AlgorithmSpec::FedAvg { c: 1.0, e: 0.5 }, "FedAvg"),
            (AlgorithmSpec::Ssp { staleness: 8 }, "SSP"),
            (AlgorithmSpec::selsync(0.3), "SelSync"),
        ] {
            let report = run(&tiny(algo));
            assert!(report.algorithm.starts_with(label), "{}", report.algorithm);
            assert_eq!(report.iterations, 12);
            assert!(!report.history.is_empty());
        }
    }

    #[test]
    fn rule_driven_reports_are_pinned_across_commits() {
        // One small run per sync rule, with a crash window so that rejoin pulls and
        // averages over only the present workers run. The digests were recorded at
        // the commit before BSP, FedAvg and local SGD became rules of the SelSync
        // driver: a rule that moves one byte of a report fails here. The last four
        // rows pin what only the cost of a run reads: injected bytes (a non-IID
        // run whose batches are topped up from other workers' shards), SSP's own
        // pricing with its implicit straggler and with an explicit uniform
        // profile, and a simulator resumed from a threaded image, whose cost
        // totals restart at zero.
        use crate::conditions::{ClusterConditions, FaultEvent};
        let crash = |algo| {
            let mut cfg = tiny(algo);
            cfg.workers = 4;
            cfg.iterations = 16;
            cfg.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
                worker: 2,
                start: 4,
                rejoin: Some(9),
            });
            cfg
        };
        let mut got: Vec<(String, RunReport)> = Vec::new();
        for algo in [
            AlgorithmSpec::Bsp,
            AlgorithmSpec::LocalSgd,
            AlgorithmSpec::FedAvg { c: 1.0, e: 0.25 },
            AlgorithmSpec::FedAvg { c: 0.5, e: 0.25 },
            AlgorithmSpec::selsync(0.05),
            AlgorithmSpec::selsync_ga(0.05),
            AlgorithmSpec::Ssp { staleness: 8 },
        ] {
            got.push((algo.name(), run(&crash(algo))));
        }
        let mut injected = tiny(AlgorithmSpec::selsync_injected(0.5, 0.5, 0.3));
        injected.workers = 10;
        injected.iterations = 16;
        injected.non_iid_labels_per_worker = Some(1);
        got.push(("injected".into(), run(&injected)));
        let mut uniform = tiny(AlgorithmSpec::Ssp { staleness: 8 });
        uniform.workers = 4;
        uniform.iterations = 16;
        uniform.conditions = ClusterConditions::with_speeds(vec![1.0; 4]);
        got.push(("SSP uniform".into(), run(&uniform)));

        let dir = std::env::temp_dir().join(format!("selsync-pin-resume-{}", std::process::id()));
        let mut halted = crash(AlgorithmSpec::selsync(0.05));
        halted.rejoin_pull = crate::config::RejoinPull::Scheduled;
        halted.checkpoint = Some(crate::config::CheckpointSpec {
            every: 100,
            dir: dir.to_string_lossy().into_owned(),
            halt_after: Some(6),
            keep: None,
        });
        let _ = crate::threaded::run_threaded_selsync(&halted);
        let image = crate::checkpoint::Checkpoint::read_file(dir.join("ckpt-6"));
        std::fs::remove_dir_all(&dir).ok();
        let image = image.expect("the threaded image reads back");
        halted.checkpoint = None;
        let resumed = selsync::run_resumed(&halted, &image);
        got.push(("resumed from threaded".into(), resumed));

        let want = [
            ("BSP", 0x5489_B39C_1BB6_E7F3),
            ("LocalSGD", 0x2053_E762_6B8C_10CA),
            ("FedAvg(1,0.25)", 0xBB5F_0CE2_487E_C728),
            ("FedAvg(0.5,0.25)", 0x919A_5595_A9E9_2054),
            ("SelSync(d=0.05,PA)", 0xD732_0AF5_C001_65A1),
            ("SelSync(d=0.05,GA)", 0x86AE_5DBA_2460_613E),
            ("SSP(s=8)", 0xA319_C5FB_BB7B_C29C),
            ("injected", 0x3FB8_FD25_2EEE_92FB),
            ("SSP uniform", 0xF779_EF41_E0E5_E28D),
            ("resumed from threaded", 0xEAF8_66C9_FE05_F1CD),
        ];
        let got: Vec<(&str, u64)> = (got.iter())
            .map(|(label, report)| {
                let digest = selsync_comm::wire::checksum(format!("{report:?}").as_bytes());
                (label.as_str(), digest)
            })
            .collect();
        let rendered: Vec<String> = got.iter().map(|(l, d)| format!("{l}: {d:#018X}")).collect();
        assert_eq!(got, want, "digests moved:\n{}", rendered.join("\n"));
    }

    // --- BSP ----------------------------------------------------------------------

    fn bsp_cfg() -> TrainConfig {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 2);
        cfg.iterations = 40;
        cfg.eval_every = 10;
        cfg.train_samples = 512;
        cfg.test_samples = 128;
        cfg.eval_samples = 128;
        cfg.batch_size = 16;
        cfg.algorithm = AlgorithmSpec::Bsp;
        cfg
    }

    #[test]
    fn bsp_has_zero_lssr_and_synchronizes_every_step() {
        let report = run(&bsp_cfg());
        assert_eq!(report.lssr, 0.0);
        assert_eq!(report.sync_steps, 40);
        assert_eq!(report.local_steps, 0);
        assert!(report.comm_time_s > 0.0);
    }

    #[test]
    fn bsp_improves_the_test_metric() {
        let report = run(&bsp_cfg());
        let first = report.history.first().unwrap().test_metric;
        let best = report.best_metric;
        assert!(
            best > first,
            "accuracy should improve: first {first}, best {best}"
        );
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn bsp_is_deterministic_for_a_fixed_seed() {
        let a = run(&bsp_cfg());
        let b = run(&bsp_cfg());
        assert_eq!(a.final_metric, b.final_metric);
        assert_eq!(a.sim_time_s, b.sim_time_s);
    }

    #[test]
    fn delta_g_history_decreases_over_training() {
        // Fig. 5: Δ(g_i) is volatile early and settles as convergence plateaus. On a
        // short run we only assert that the series is recorded and finite.
        let report = run(&bsp_cfg());
        assert!(report.history.iter().all(|p| p.delta_g.is_finite()));
        assert!(report.max_delta >= 0.0);
    }

    // --- FedAvg -------------------------------------------------------------------

    fn fedavg_cfg(c: f32, e: f32) -> TrainConfig {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
        cfg.iterations = 32;
        cfg.eval_every = 8;
        cfg.train_samples = 512;
        cfg.test_samples = 64;
        cfg.eval_samples = 64;
        cfg.batch_size = 8;
        cfg.algorithm = AlgorithmSpec::FedAvg { c, e };
        cfg
    }

    #[test]
    fn fedavg_has_high_lssr() {
        // steps_per_epoch = 512 / 32 = 16; E = 0.5 -> sync every 8 steps -> 4 syncs in 32.
        let report = run(&fedavg_cfg(1.0, 0.5));
        assert_eq!(report.sync_steps, 4);
        assert_eq!(report.local_steps, 28);
        assert!(report.lssr > 0.8);
    }

    #[test]
    fn smaller_e_means_more_frequent_synchronization() {
        let frequent = run(&fedavg_cfg(1.0, 0.25));
        let infrequent = run(&fedavg_cfg(1.0, 0.5));
        assert!(frequent.sync_steps > infrequent.sync_steps);
        assert!(frequent.comm_time_s > infrequent.comm_time_s);
    }

    #[test]
    fn partial_participation_moves_fewer_bytes() {
        let all = run(&fedavg_cfg(1.0, 0.5));
        let half = run(&fedavg_cfg(0.5, 0.5));
        assert!(half.bytes_communicated < all.bytes_communicated);
    }

    #[test]
    fn fedavg_is_faster_than_bsp() {
        let fed = run(&fedavg_cfg(1.0, 0.25));
        let mut bsp_cfg = fedavg_cfg(1.0, 0.25);
        bsp_cfg.algorithm = AlgorithmSpec::Bsp;
        let bsp = run(&bsp_cfg);
        assert!(fed.sim_time_s < bsp.sim_time_s);
    }

    #[test]
    #[should_panic]
    fn wrong_algorithm_spec_panics() {
        // The shared round loop has no rule for SSP.
        let _ = selsync::run(&tiny(AlgorithmSpec::Ssp { staleness: 8 }));
    }

    // --- local SGD ----------------------------------------------------------------

    fn local_cfg() -> TrainConfig {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 2);
        cfg.iterations = 30;
        cfg.eval_every = 10;
        cfg.train_samples = 256;
        cfg.test_samples = 64;
        cfg.eval_samples = 64;
        cfg.batch_size = 8;
        cfg.algorithm = AlgorithmSpec::LocalSgd;
        cfg
    }

    #[test]
    fn local_sgd_never_communicates() {
        let report = run(&local_cfg());
        assert_eq!(report.lssr, 1.0);
        assert_eq!(report.sync_steps, 0);
        assert_eq!(report.comm_time_s, 0.0);
        assert_eq!(report.bytes_communicated, 0);
    }

    #[test]
    fn local_sgd_is_faster_than_bsp_in_simulated_time() {
        let local = run(&local_cfg());
        let mut bsp_cfg = local_cfg();
        bsp_cfg.algorithm = AlgorithmSpec::Bsp;
        let bsp = run(&bsp_cfg);
        assert!(local.sim_time_s < bsp.sim_time_s);
    }
}
