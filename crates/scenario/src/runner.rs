//! The scenario comparison runner.
//!
//! Runs BSP, SSP, FedAvg, local SGD and SelSync over one scenario with *identical*
//! accounting — same workload, same seed, same conditions, same cost models — and
//! renders a deterministic comparison report. Same scenario + same seed ⇒ byte-identical
//! report text, which is what turns recorded seeds into regression tests.

use crate::injector::FaultInjector;
use crate::schema::Scenario;
use selsync::algorithms;
use selsync::config::AlgorithmSpec;
use selsync::report::RunReport;
use selsync_metrics::table::{fmt_f, Table};
use selsync_tracelog::TraceSink;

/// The algorithm arms every scenario comparison runs, in canonical order.
pub fn algorithm_arms(delta: f32) -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::Bsp,
        AlgorithmSpec::Ssp { staleness: 24 },
        AlgorithmSpec::FedAvg { c: 1.0, e: 0.25 },
        AlgorithmSpec::LocalSgd,
        AlgorithmSpec::selsync(delta),
    ]
}

/// All per-algorithm reports for one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// The seed the run used.
    pub seed: u64,
    /// Deterministic fault-timeline summary.
    pub timeline: String,
    /// One report per arm, in [`algorithm_arms`] order.
    pub runs: Vec<RunReport>,
    /// The encoded event log of the SelSync arm, when the scenario's `[trace]` block
    /// enables capture (`None` otherwise). The other arms are never traced: the
    /// scenario names one trace path, and it records the SelSync arm.
    pub trace: Option<String>,
}

/// Run every algorithm arm over `scenario` and collect the reports.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, String> {
    let injector = FaultInjector::compile(scenario)?;
    let mut runs = Vec::new();
    let mut trace = None;
    for algo in algorithm_arms(scenario.delta) {
        let mut cfg = scenario.train_config(algo);
        // Only the SelSync arm is traced and checkpointed: the baselines would
        // write their images into the same directory and obey `halt_after` too.
        let is_selsync = matches!(cfg.algorithm, AlgorithmSpec::SelSync { .. });
        let traced = scenario.trace.enabled && is_selsync;
        if traced {
            cfg.trace = TraceSink::capture(scenario.trace.granularity);
        }
        if !is_selsync {
            cfg.checkpoint = None;
        }
        runs.push(algorithms::run(&cfg));
        if traced {
            trace = Some(cfg.trace.take_log().encode());
        }
    }
    let mut timeline = injector.timeline();
    if let Some(weather) = &scenario.comm_faults {
        timeline.push('\n');
        timeline.push_str(&weather.describe());
    }
    if let Some(outages) = &scenario.ps_faults {
        timeline.push('\n');
        timeline.push_str(&outages.describe());
    }
    Ok(ScenarioReport {
        scenario: scenario.name.clone(),
        description: scenario.description.clone(),
        seed: scenario.seed,
        timeline,
        runs,
        trace,
    })
}

impl ScenarioReport {
    /// The BSP arm (always the first).
    pub fn bsp(&self) -> &RunReport {
        &self.runs[0]
    }

    /// The SelSync arm (always the last).
    pub fn selsync(&self) -> &RunReport {
        self.runs.last().expect("runs are never empty")
    }

    /// The first run whose algorithm label starts with `prefix`.
    pub fn run_named(&self, prefix: &str) -> Option<&RunReport> {
        self.runs.iter().find(|r| r.algorithm.starts_with(prefix))
    }

    /// SelSync's simulated-time speedup over BSP for the same iteration count.
    pub fn selsync_raw_speedup(&self) -> f64 {
        self.selsync().raw_time_speedup(self.bsp())
    }

    /// SelSync's speedup to reach BSP's final metric (`None` if it never does).
    pub fn selsync_target_speedup(&self) -> Option<f64> {
        self.selsync().speedup_to_baseline_target(self.bsp())
    }

    /// Render the full report as deterministic text (fixed-precision numbers, stable
    /// ordering; no clocks, no paths).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# scenario: {} (seed {})\n",
            self.scenario, self.seed
        ));
        if !self.description.is_empty() {
            out.push_str(&format!("{}\n", self.description));
        }
        out.push_str("\n## cluster timeline\n");
        out.push_str(&self.timeline);
        out.push('\n');

        let higher = self.bsp().higher_is_better;
        out.push_str(&format!(
            "\n## per-algorithm results ({} is better)\n\n",
            if higher {
                "higher metric"
            } else {
                "lower metric"
            }
        ));
        let mut table = Table::new(vec![
            "algorithm",
            "final_metric",
            "best_metric",
            "lssr",
            "sim_time_s",
            "compute_s",
            "comm_s",
            "comm_MB",
        ]);
        for run in &self.runs {
            table.push_row(vec![
                run.algorithm.clone(),
                fmt_f(run.final_metric as f64, 3),
                fmt_f(run.best_metric as f64, 3),
                fmt_f(run.lssr, 4),
                fmt_f(run.sim_time_s, 3),
                fmt_f(run.compute_time_s, 3),
                fmt_f(run.comm_time_s, 3),
                fmt_f(run.bytes_communicated as f64 / (1024.0 * 1024.0), 1),
            ]);
        }
        out.push_str(&table.to_markdown());

        out.push_str("\n## selsync vs bsp\n");
        out.push_str(&format!(
            "same-iterations speedup: {}x\n",
            fmt_f(self.selsync_raw_speedup(), 3)
        ));
        let target = self.bsp().final_metric;
        match self.selsync_target_speedup() {
            Some(s) => {
                let bsp_t = self
                    .bsp()
                    .time_to_target(target)
                    .unwrap_or(self.bsp().sim_time_s);
                let sel_t = self.selsync().time_to_target(target).unwrap_or(f64::NAN);
                out.push_str(&format!(
                    "time-to-BSP-final-metric ({}): BSP {}s -> SelSync {}s, speedup {}x\n",
                    fmt_f(target as f64, 3),
                    fmt_f(bsp_t, 3),
                    fmt_f(sel_t, 3),
                    fmt_f(s, 3),
                ));
            }
            None => out.push_str(&format!(
                "time-to-BSP-final-metric ({}): SelSync never reached it\n",
                fmt_f(target as f64, 3),
            )),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        let mut s = Scenario::base("runner-test", 3, 24);
        s.train_samples = 384;
        s.test_samples = 96;
        s.eval_samples = 96;
        s.batch_size = 8;
        s.eval_every = 6;
        s
    }

    #[test]
    fn runner_produces_all_arms_with_identical_workload() {
        let report = run_scenario(&tiny_scenario()).unwrap();
        assert_eq!(report.runs.len(), 5);
        assert!(report.bsp().algorithm.starts_with("BSP"));
        assert!(report.selsync().algorithm.starts_with("SelSync"));
        assert!(report.run_named("SSP").is_some());
        assert!(report.run_named("FedAvg").is_some());
        assert!(report.run_named("LocalSGD").is_some());
        for run in &report.runs {
            assert_eq!(run.iterations, 24, "{}", run.algorithm);
            assert!(run.final_loss.is_finite(), "{}", run.algorithm);
        }
        // Every arm runs on the same (here: explicitly homogeneous) cluster — SSP must
        // not fall back to its profile-less paper-straggler default inside a scenario.
        let bsp = report.bsp();
        let ssp = report.run_named("SSP").unwrap();
        assert!(
            (bsp.compute_time_s - ssp.compute_time_s).abs() < 1e-9,
            "scenario arms must share one cluster: BSP {} vs SSP {}",
            bsp.compute_time_s,
            ssp.compute_time_s
        );
    }

    #[test]
    fn trace_block_captures_the_selsync_arm_only_when_enabled() {
        let mut scenario = tiny_scenario();
        assert!(run_scenario(&scenario).unwrap().trace.is_none());
        scenario.trace.enabled = true;
        let report = run_scenario(&scenario).unwrap();
        let log = report.trace.expect("enabled trace block captures a log");
        let decoded = selsync_tracelog::EventLog::decode(&log).expect("log decodes");
        let header = decoded.header().expect("log starts with a header");
        if let selsync_tracelog::Event::Header {
            algorithm, workers, ..
        } = header
        {
            assert!(algorithm.starts_with("SelSync"), "{algorithm}");
            assert_eq!(*workers, 3);
        }
        // Rounds granularity keeps the log to header/membership/round events.
        scenario.trace.granularity = selsync_tracelog::TraceGranularity::Rounds;
        let coarse = run_scenario(&scenario).unwrap().trace.unwrap();
        let coarse = selsync_tracelog::EventLog::decode(&coarse).unwrap();
        assert!(coarse.events.iter().all(|e| matches!(
            e,
            selsync_tracelog::Event::Header { .. }
                | selsync_tracelog::Event::Membership { .. }
                | selsync_tracelog::Event::Round { .. }
        )));
    }

    #[test]
    fn rendered_report_is_deterministic() {
        let a = run_scenario(&tiny_scenario()).unwrap().render();
        let b = run_scenario(&tiny_scenario()).unwrap().render();
        assert_eq!(a, b);
        assert!(a.contains("# scenario: runner-test (seed 42)"));
        assert!(a.contains("same-iterations speedup"));
    }

    #[test]
    fn different_seeds_render_differently() {
        let mut s = tiny_scenario();
        let a = run_scenario(&s).unwrap().render();
        s.seed = 43;
        let b = run_scenario(&s).unwrap().render();
        assert_ne!(a, b);
    }
}
