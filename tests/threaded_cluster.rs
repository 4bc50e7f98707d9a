//! Integration tests for the thread-per-worker driver: the real parameter server and the
//! 1-bit status all-gather must implement Alg. 1's coordination faithfully under actual
//! concurrency.

use selsync_repro::comm::{Collective, ParameterServer};
use selsync_repro::core::checkpoint::Checkpoint;
use selsync_repro::core::config::{AlgorithmSpec, CheckpointSpec, TrainConfig};
use selsync_repro::core::threaded::{run_threaded_selsync, run_threaded_selsync_resumed};
use selsync_repro::nn::model::ModelKind;
use std::sync::Arc;

#[test]
fn threaded_selsync_workers_agree_on_every_decision() {
    let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 6);
    cfg.iterations = 30;
    cfg.batch_size = 8;
    cfg.train_samples = 384;
    cfg.algorithm = AlgorithmSpec::selsync(0.1);
    let reports = run_threaded_selsync(&cfg);
    assert_eq!(reports.len(), 6);
    let schedule = (reports[0].sync_steps, reports[0].local_steps);
    for r in &reports {
        // The all-gather makes the decision global: every worker sees the same schedule.
        assert_eq!((r.sync_steps, r.local_steps), schedule);
        assert_eq!(r.sync_steps + r.local_steps, 30);
        assert!(r.final_loss.is_finite());
    }
}

#[test]
fn threaded_bsp_keeps_replicas_identical_to_the_global_model() {
    let mut cfg = TrainConfig::small(ModelKind::VggLike, 4);
    cfg.iterations = 20;
    cfg.batch_size = 8;
    cfg.train_samples = 256;
    cfg.algorithm = AlgorithmSpec::Bsp;
    let reports = run_threaded_selsync(&cfg);
    for r in &reports {
        assert_eq!(r.sync_steps, 20);
        assert!(
            r.distance_to_global < 1e-3,
            "worker {} distance {}",
            r.worker,
            r.distance_to_global
        );
    }
}

#[test]
fn parameter_server_rounds_compose_with_collectives_under_contention() {
    // A stress-style test mixing the status all-gather and PS rounds from many threads.
    let n = 8;
    let ps = Arc::new(ParameterServer::new(vec![0.0; 64]));
    let coll = Arc::new(Collective::new(n));
    let handles: Vec<_> = (0..n)
        .map(|w| {
            let ps = Arc::clone(&ps);
            let coll = Arc::clone(&coll);
            std::thread::spawn(move || {
                let mut last = Vec::new();
                for round in 0..50 {
                    let flag = (w + round) % 3 == 0;
                    let flags = coll.allgather_flags_among(round as u64, w, flag, n);
                    assert_eq!(flags.len(), n);
                    if flags.iter().any(|&f| f) {
                        let contribution = vec![(w + round) as f32; 64];
                        last = ps.sync_round_elastic(round as u64, w, &contribution, n);
                    }
                }
                last
            })
        })
        .collect();
    let results: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Every worker's last synchronized value must be identical.
    for r in &results {
        assert_eq!(r, &results[0]);
    }
}

#[test]
fn a_simulator_image_resumes_on_the_cluster_with_each_workers_own_loss_and_the_full_ring() {
    // Unscaled `crash-rejoin`: worker 4 leaves for good at round 200, so after a halt
    // past it its report's `final_loss` can only come from the image. A simulator
    // image must carry every worker's *own* last loss (not the cluster's latest) and
    // the snapshot ring the cluster itself would hold at that round.
    // δ = 0.1 rather than the scenario's 0.3, under which the run synchronizes once:
    // by the halt round the ring has then filled and evicted.
    let scenario = selsync_repro::scenario::builtin("crash-rejoin").expect("built-in scenario");
    let cfg = scenario.train_config(AlgorithmSpec::selsync(0.1));
    let full = run_threaded_selsync(&cfg);
    assert!(full[4].final_loss != full[5].final_loss);

    let dir = std::env::temp_dir().join(format!("selsync-sim-on-cluster-{}", std::process::id()));
    let halt = 204;
    let halted_image = |backend: &str| {
        let mut halted = cfg.clone();
        halted.checkpoint = Some(CheckpointSpec {
            every: 5,
            dir: dir.join(backend).to_string_lossy().into_owned(),
            halt_after: Some(halt),
            keep: Some(1),
        });
        match backend {
            "sim" => drop(selsync_repro::core::algorithms::run(&halted)),
            _ => drop(run_threaded_selsync(&halted)),
        }
        let path = dir.join(backend).join(format!("ckpt-{halt}"));
        Checkpoint::read_file(path).expect("halt image reads back")
    };
    let (sim_image, threaded_image) = (halted_image("sim"), halted_image("threaded"));
    assert_eq!(sim_image.backend, "sim");

    let ring = |image: &Checkpoint| image.ps_state().ring.expect("scheduled rejoin pulls");
    let (sim_ring, threaded_ring) = (ring(&sim_image), ring(&threaded_image));
    assert!(
        threaded_ring.evicted_min.is_some(),
        "a ring that has wrapped"
    );
    assert_eq!(sim_ring.entries.len(), threaded_ring.entries.len());
    assert_eq!(sim_ring.evicted_min, threaded_ring.evicted_min);

    let resumed = run_threaded_selsync_resumed(&cfg, &sim_image);
    for (resumed, full) in resumed.iter().zip(full.iter()) {
        assert_eq!(
            resumed.final_loss.to_bits(),
            full.final_loss.to_bits(),
            "worker {} final loss",
            full.worker
        );
        assert_eq!(format!("{resumed:?}"), format!("{full:?}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threaded_checkpoint_images_are_byte_identical_across_thread_counts() {
    // Every thread deposits its section at a checkpoint round, present or absent, and
    // whichever arrives last writes the image. Worker 0 is crashed across two
    // checkpoint rounds, so its deposit is an absent worker's; whatever the arrival
    // order, the image must hold the sections in worker order and the trace through
    // the round, byte for byte.
    use selsync_repro::core::conditions::{ClusterConditions, FaultEvent};
    use selsync_repro::core::policy::PolicySpec;
    use selsync_repro::tensor::par;
    use selsync_repro::tracelog::{TraceGranularity, TraceSink};

    let root = std::env::temp_dir().join(format!("selsync-thr-images-{}", std::process::id()));
    let images = |threads: usize| {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
        cfg.iterations = 20;
        cfg.batch_size = 8;
        cfg.train_samples = 256;
        cfg.test_samples = 64;
        cfg.algorithm = AlgorithmSpec::selsync(0.05);
        cfg.delta_policy = Some(PolicySpec::adaptive_default());
        cfg.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 0,
            start: 3,
            rejoin: Some(12),
        });
        cfg.trace = TraceSink::capture(TraceGranularity::Full);
        let dir = root.join(threads.to_string());
        cfg.checkpoint = Some(CheckpointSpec {
            every: 5,
            dir: dir.to_string_lossy().into_owned(),
            halt_after: None,
            keep: None,
        });
        par::with_threads(threads, || drop(run_threaded_selsync(&cfg)));
        [4, 9, 14, 19].map(|round| {
            std::fs::read(dir.join(format!("ckpt-{round}"))).expect("checkpoint image")
        })
    };
    let reference = images(1);
    assert_eq!(images(4), reference);
    std::fs::remove_dir_all(&root).ok();
}
