//! The benchmark's workloads: which scenario file, which backend runs it, the
//! quality target its time-to-target is measured against, and the band its
//! synchronization share must stay in to remain the workload it was chosen as.

use selsync::config::{AlgorithmSpec, TrainConfig};
use selsync_scenario::Scenario;
use selsync_tracelog::{TraceGranularity, TraceSink};

/// Which of the repository's three drivers executes a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `selsync::algorithms::run` — the sequential simulator.
    Sim,
    /// `selsync::threaded::run_threaded_selsync` — one OS thread per worker.
    Threaded,
    /// `selsync::process` hub + one OS process per worker over a Unix socket.
    Process,
}

impl Backend {
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Threaded => "threaded",
            Backend::Process => "process",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub backend: Backend,
    toml: &'static str,
    /// Held-out top-1 accuracy (percent) that counts as "trained".
    pub target: f32,
    /// Inclusive band `round.sync_share` must fall in.
    pub sync_share: (f64, f64),
    /// Checkpoint images a full-length run writes.
    pub ckpt_images: usize,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
}

/// Names are stable: later changes cite them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "proc-bsp-vgg",
        backend: Backend::Process,
        toml: include_str!("../workloads/proc-bsp-vgg.toml"),
        // Ten times chance on the 100-class task; early enough that a run stays short.
        target: 10.0,
        sync_share: (1.0, 1.0),
        ckpt_images: 0,
        why: "every round ships a 400 KB vector through the hub: the socket data plane \
              (encode, checksum, reassembly, aggregate) dominates",
    },
    Workload {
        name: "proc-local-resnet",
        backend: Backend::Process,
        toml: include_str!("../workloads/proc-local-resnet.toml"),
        target: 80.0,
        sync_share: (0.0, 0.01),
        ckpt_images: 0,
        why: "over 99% local rounds: only the per-round control RPCs touch the socket, \
              the case SelSync exists to make cheap",
    },
    Workload {
        name: "proc-faulty-resnet",
        backend: Backend::Process,
        toml: include_str!("../workloads/proc-faulty-resnet.toml"),
        target: 80.0,
        sync_share: (0.03, 0.15),
        ckpt_images: 4,
        why: "lossy links and hub-coordinated checkpoints: retries, dedupe, checksum \
              rejects and durability stalls on the same message layer",
    },
    Workload {
        name: "thr-mixed-resnet",
        backend: Backend::Threaded,
        toml: include_str!("../workloads/thr-mixed-resnet.toml"),
        target: 80.0,
        sync_share: (0.03, 0.15),
        ckpt_images: 0,
        why: "shared-memory rendezvous and two workers submitting to one kernel pool, \
              no wire at all",
    },
    Workload {
        name: "sim-w8-resnet",
        backend: Backend::Sim,
        toml: include_str!("../workloads/sim-w8-resnet.toml"),
        target: 80.0,
        sync_share: (0.05, 0.30),
        ckpt_images: 0,
        why: "the simulator's worker-parallel round path at 8 workers, what every \
              figure and sweep binary runs",
    },
    Workload {
        name: "single-resnet",
        backend: Backend::Sim,
        toml: include_str!("../workloads/single-resnet.toml"),
        target: 80.0,
        sync_share: (0.0, 0.01),
        ckpt_images: 0,
        why: "plain single-worker run of the same task: the compute floor every other \
              workload's overhead is read against",
    },
];

pub fn find(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?} (expected one of {})",
            names.join(", ")
        )
    })
}

impl Workload {
    /// The workload's scenario. The training task (data, initialisation, model) is
    /// pinned by the file; `seed` draws what the task leaves open — the link
    /// weather of a `[comm_faults]` workload. `rounds` overrides the run length
    /// (set-up probes and smoke runs).
    pub fn scenario(&self, seed: u64, rounds: Option<usize>) -> Scenario {
        let mut scenario =
            Scenario::from_toml_str(self.toml).expect("built-in workload file parses");
        if let Some(faults) = &mut scenario.comm_faults {
            // TOML integers are i64; keep the seed representable.
            faults.seed = seed & (i64::MAX as u64);
        }
        if let Some(rounds) = rounds {
            if let Some(ck) = &mut scenario.checkpoint {
                // Keep the image count when a run is shortened.
                ck.every = (ck.every * rounds / scenario.iterations).max(1);
            }
            scenario.iterations = rounds;
        }
        scenario
    }
}

/// The training configuration every process of a run (and its oracle) derives
/// from the scenario: the SelSync arm with full trace capture — how
/// `scenario_cluster` and `scenario_replay` run it, and what the parity check needs.
pub fn train_config(scenario: &Scenario) -> TrainConfig {
    let mut cfg = scenario.train_config(AlgorithmSpec::selsync(scenario.delta));
    cfg.trace = TraceSink::capture(TraceGranularity::Full);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_file_parses_validates_and_matches_its_table_entry() {
        for w in &WORKLOADS {
            let s = w.scenario(42, None);
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(s.name, w.name);
            let socket = matches!(s.transport, selsync_scenario::TransportSpec::Socket { .. });
            assert_eq!(socket, w.backend == Backend::Process, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn seed_moves_only_the_link_weather() {
        let w = find("proc-faulty-resnet").unwrap();
        let (a, b) = (w.scenario(1, None), w.scenario(2, None));
        assert_ne!(a.comm_faults, b.comm_faults);
        assert_eq!(a.seed, b.seed);
        let w = find("single-resnet").unwrap();
        assert_eq!(w.scenario(1, None), w.scenario(2, None));
    }

    #[test]
    fn shortened_runs_keep_the_checkpoint_count() {
        let w = find("proc-faulty-resnet").unwrap();
        let full = w.scenario(42, None);
        let short = w.scenario(42, Some(full.iterations / 20));
        let images = |s: &Scenario| s.iterations / s.checkpoint.as_ref().unwrap().every;
        assert_eq!(
            (images(&full), images(&short)),
            (w.ckpt_images, w.ckpt_images)
        );
        assert_eq!(w.scenario(42, Some(1)).checkpoint.unwrap().every, 1);
        assert!(find("nope").is_err());
    }
}
