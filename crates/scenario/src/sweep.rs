//! Scenario sweeps: one scenario × a δ grid × a seed set × policy arms, aggregated
//! into a single deterministic comparison report.
//!
//! A [`crate::schema::SweepSpec`] expands into one SelSync run per `(arm, seed)` pair:
//! every δ in the grid becomes a fixed-threshold arm, and every
//! [`selsync::policy::PolicySpec`] becomes a policy arm (scheduled / adaptive δ). All
//! runs share the scenario's workload, cluster conditions and cost models — only the δ
//! policy and the seed differ. Sweep points are fanned out across the deterministic
//! worker pool (each point's *inner* round parallelism degrades to the sequential
//! path while it runs inside a pool task, which is bit-identical by the PR 3
//! contract), and per-arm statistics are aggregated in arm-major, seed-minor order —
//! so the rendered report and the JSON are byte-identical for every
//! `SELSYNC_THREADS` value.
//!
//! The report's target convention follows the paper: the δ = 0 arm (BSP-equivalent:
//! every step synchronizes) defines the per-seed target metric, with a 0.5% tolerance;
//! each arm reports how many seeds reached it and the mean number of synchronizations
//! spent getting there. This is the quantity the adaptive-δ arm is designed to win:
//! reach the target accuracy with fewer synchronizations than the best fixed δ.

use crate::injector::FaultInjector;
use crate::schema::{Scenario, SweepSpec};
use selsync::algorithms;
use selsync::config::AlgorithmSpec;
use selsync::policy::PolicySpec;
use selsync::report::RunReport;
use selsync_metrics::stats::Streaming;
use selsync_metrics::table::{fmt_f, Table};
use selsync_tensor::par::{self, SendPtr};
use selsync_tracelog::TraceSink;

/// One arm of a sweep: a fixed δ from the grid, or a policy.
#[derive(Debug, Clone, PartialEq)]
pub enum ArmKind {
    /// A fixed-threshold arm from the δ grid.
    Fixed(f32),
    /// A scheduled / adaptive policy arm.
    Policy(PolicySpec),
}

/// Mean ± spread (population standard deviation) of one statistic over the seed set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Mean over seeds.
    pub mean: f64,
    /// Population standard deviation over seeds (0 for a single seed).
    pub spread: f64,
}

fn stat(xs: impl Iterator<Item = f64>) -> Stat {
    let mut acc = Streaming::new();
    for x in xs {
        acc.push(x);
    }
    Stat {
        mean: acc.mean(),
        spread: acc.std_dev(),
    }
}

impl Stat {
    /// `mean ± spread` at 3 decimals (the report cell format).
    pub fn cell(&self) -> String {
        format!("{} ± {}", fmt_f(self.mean, 3), fmt_f(self.spread, 3))
    }
}

/// Aggregated results of one arm over the seed set.
#[derive(Debug, Clone)]
pub struct ArmSummary {
    /// The arm's algorithm label (identical across its seeds).
    pub label: String,
    /// What the arm is (fixed δ or a policy).
    pub kind: ArmKind,
    /// One report per seed, in seed order.
    pub runs: Vec<RunReport>,
    /// Final held-out metric.
    pub final_metric: Stat,
    /// Best held-out metric.
    pub best_metric: Stat,
    /// Local-to-synchronous step ratio.
    pub lssr: Stat,
    /// Synchronized steps over the whole run.
    pub sync_steps: Stat,
    /// δ-policy regime switches over the whole run (0 for fixed/scheduled arms).
    pub switches: Stat,
    /// Simulated wall-clock seconds.
    pub sim_time_s: Stat,
    /// Megabytes moved over the simulated network.
    pub comm_mb: Stat,
    /// Number of seeds whose run reached the per-seed target metric.
    pub reached_target: usize,
    /// Mean synchronizations spent up to the target-reaching evaluation, over the
    /// seeds that reached it (`None` when none did).
    pub syncs_to_target: Option<f64>,
    /// The encoded event log of this arm's first-seed run, when the scenario's
    /// `[trace]` block enables capture (`None` otherwise). One seed per arm keeps the
    /// sweep's memory bounded while still giving every arm a replayable trace.
    pub trace: Option<String>,
}

/// The aggregated sweep report: deterministic text and JSON renderings.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Deterministic fault-timeline summary.
    pub timeline: String,
    /// The seeds every arm ran at.
    pub seeds: Vec<u64>,
    /// Whether larger metrics are better for this workload.
    pub higher_is_better: bool,
    /// Index of the target-defining arm (the δ = 0 arm when present, otherwise the
    /// arm with the best mean final metric).
    pub baseline: usize,
    /// One summary per arm, fixed-δ arms first (grid order), then policy arms.
    pub arms: Vec<ArmSummary>,
}

/// Relative tolerance on the per-seed target metric (0.5%).
const TARGET_TOLERANCE: f32 = 0.005;

fn adjusted_target(target: f32, higher: bool) -> f32 {
    if higher {
        target * (1.0 - TARGET_TOLERANCE)
    } else {
        target * (1.0 + TARGET_TOLERANCE)
    }
}

/// Synchronizations a run spent up to (and including) the evaluation at which it first
/// reached `target` (`None` if it never did).
fn syncs_to_target(run: &RunReport, target: f32) -> Option<usize> {
    run.iterations_to_target(target)
        .map(|it| run.sync_rounds.iter().filter(|&&r| r <= it).count())
}

/// Map `it` from a run of `from_iterations` onto a run of `to_iterations`, keeping
/// its relative position (rounded, clamped into the target range). The single
/// scaling rule behind [`rescale_fault_windows`] and [`quick_variant`]'s
/// policy-budget rescaling, so fault windows, schedule stages and adaptive round
/// budgets all shrink identically.
fn scaled_iteration(it: usize, from_iterations: usize, to_iterations: usize) -> usize {
    let ratio = to_iterations as f64 / from_iterations.max(1) as f64;
    ((it as f64 * ratio).round() as usize).min(to_iterations)
}

/// Rescale every iteration-keyed fault window of `scenario` into a run of
/// `iterations` iterations — windows keep their relative position and never collapse
/// (durations stay ≥ 1, a rejoin stays after its crash) — and set
/// `scenario.iterations` accordingly. Shared by [`quick_variant`] and the
/// parity/regression test suites, so every "scaled-down scenario" in the repo means
/// the same schedule.
pub fn rescale_fault_windows(scenario: &mut Scenario, iterations: usize) {
    let scale = |it: usize| scaled_iteration(it, scenario.iterations, iterations);
    for fault in &mut scenario.faults {
        match fault {
            crate::schema::FaultSpec::Slowdown {
                start, duration, ..
            }
            | crate::schema::FaultSpec::Bandwidth {
                start, duration, ..
            }
            | crate::schema::FaultSpec::Latency {
                start, duration, ..
            } => {
                *start = scale(*start);
                *duration = scale(*duration).max(1);
            }
            crate::schema::FaultSpec::Crash { start, rejoin, .. } => {
                *start = scale(*start);
                if let Some(r) = rejoin {
                    *r = scale(*r).max(*start + 1);
                }
            }
        }
    }
    // PS outage windows are iteration-keyed exactly like worker fault windows.
    if let Some(spec) = &mut scenario.ps_faults {
        for (start, duration) in &mut spec.windows {
            *start = scale(*start);
            *duration = scale(*duration).max(1);
        }
    }
    scenario.iterations = iterations;
}

/// A CI-sized variant of a scenario for sweep smoke runs: fewer iterations and
/// samples, at most two seeds, with every fault window rescaled to the shrunk
/// iteration range so the cluster shape survives the shrink.
pub fn quick_variant(scenario: &Scenario) -> Scenario {
    let mut s = scenario.clone();
    let iterations = 60usize;
    let scale = |it: usize| scaled_iteration(it, scenario.iterations, iterations);
    rescale_fault_windows(&mut s, iterations);
    s.eval_every = 6;
    s.train_samples = 768;
    s.test_samples = 192;
    s.eval_samples = 192;
    let mut sweep = s
        .sweep
        .clone()
        .unwrap_or_else(|| SweepSpec::default_grid(s.seed));
    sweep.seeds.truncate(2);
    // Policy arms are iteration-keyed like fault windows: rescale schedule stage
    // starts (keeping boundaries distinct) and the adaptive policy's round budgets —
    // an unscaled `warmup`/`patience` sized for the full run could otherwise exceed
    // the quick run entirely, leaving the arm stuck in its eager regime (never a
    // single local step) and making the quick arm ordering meaningless.
    for policy in &mut sweep.policies {
        match policy {
            PolicySpec::Schedule { starts, .. } => {
                let mut prev: Option<usize> = None;
                for start in starts.iter_mut() {
                    let scaled = scale(*start);
                    *start = match prev {
                        Some(p) => scaled.max(p + 1),
                        None => scaled,
                    };
                    prev = Some(*start);
                }
            }
            PolicySpec::Adaptive {
                warmup, patience, ..
            }
            | PolicySpec::Variance {
                warmup, patience, ..
            } => {
                // `patience ≥ 1` is a validation requirement; a non-zero warmup keeps
                // its "always eager at first" character at minimum length.
                if *warmup > 0 {
                    *warmup = scale(*warmup).max(1);
                }
                *patience = scale(*patience).max(1);
            }
            PolicySpec::Fixed { .. } => {}
        }
    }
    s.sweep = Some(sweep);
    s
}

/// Run every arm × seed of the scenario's sweep (or [`SweepSpec::default_grid`] when
/// the scenario has no sweep block) and aggregate per-arm statistics.
pub fn run_sweep(scenario: &Scenario) -> Result<SweepReport, String> {
    let injector = FaultInjector::compile(scenario)?;
    let spec = scenario
        .sweep
        .clone()
        .unwrap_or_else(|| SweepSpec::default_grid(scenario.seed));
    spec.validate()?;

    let arms: Vec<ArmKind> = spec
        .deltas
        .iter()
        .map(|&d| ArmKind::Fixed(d))
        .chain(spec.policies.iter().cloned().map(ArmKind::Policy))
        .collect();
    let seeds = spec.seeds.clone();

    // Fan the (arm, seed) grid across the worker pool. Each point trains on its own
    // simulator; slots are disjoint, and a point's result does not depend on which
    // pool thread runs it, so the grid is deterministic for every thread count.
    let n_jobs = arms.len() * seeds.len();
    let mut results: Vec<Option<(RunReport, Option<String>)>> = (0..n_jobs).map(|_| None).collect();
    {
        let ptr = SendPtr(results.as_mut_ptr());
        let arms = &arms;
        let seeds = &seeds;
        par::parallel_for(n_jobs, |j| {
            let (a, s) = (j / seeds.len(), j % seeds.len());
            let mut cfg = match &arms[a] {
                ArmKind::Fixed(d) => scenario.train_config(AlgorithmSpec::selsync(*d)),
                ArmKind::Policy(p) => {
                    let mut cfg = scenario.train_config(AlgorithmSpec::selsync(scenario.delta));
                    cfg.delta_policy = Some(p.clone());
                    cfg
                }
            };
            cfg.seed = seeds[s];
            // Sweep points run concurrently and checkpoint paths are keyed by round
            // only; arms writing into one directory would race. Durable checkpoints
            // belong to single runs (`scenario_run` / `scenario_replay`), not sweeps.
            cfg.checkpoint = None;
            // One replayable event log per arm: its first-seed run (bounded memory).
            let traced = scenario.trace.enabled && s == 0;
            if traced {
                cfg.trace = TraceSink::capture(scenario.trace.granularity);
            }
            let report = algorithms::run(&cfg);
            let log = traced.then(|| cfg.trace.take_log().encode());
            // SAFETY: each task owns slot `j`; `parallel_for` blocks until all tasks
            // finish, so the borrow outlives every write.
            unsafe {
                *ptr.get().add(j) = Some((report, log));
            }
        });
    }

    let mut traces: Vec<Option<String>> = Vec::with_capacity(arms.len());
    let per_arm: Vec<Vec<RunReport>> = arms
        .iter()
        .enumerate()
        .map(|(a, _)| {
            (0..seeds.len())
                .map(|s| {
                    let (report, log) = results[a * seeds.len() + s]
                        .take()
                        .expect("sweep point completed");
                    if s == 0 {
                        traces.push(log);
                    }
                    report
                })
                .collect()
        })
        .collect();

    let higher = per_arm[0][0].higher_is_better;
    // The δ = 0 arm (BSP-equivalent) defines the target; without one, the arm with
    // the best mean final metric does.
    let baseline = arms
        .iter()
        .position(|a| matches!(a, ArmKind::Fixed(d) if *d == 0.0))
        .unwrap_or_else(|| {
            let best = |runs: &Vec<RunReport>| {
                runs.iter().map(|r| r.final_metric as f64).sum::<f64>() / runs.len() as f64
            };
            (0..per_arm.len())
                .max_by(|&a, &b| {
                    let (xa, xb) = (best(&per_arm[a]), best(&per_arm[b]));
                    let ord = xa.partial_cmp(&xb).expect("finite metrics");
                    if higher {
                        ord
                    } else {
                        ord.reverse()
                    }
                })
                .expect("at least one arm")
        });

    let targets: Vec<f32> = per_arm[baseline]
        .iter()
        .map(|r| adjusted_target(r.final_metric, higher))
        .collect();

    let summaries: Vec<ArmSummary> = arms
        .into_iter()
        .zip(per_arm)
        .zip(traces)
        .map(|((kind, runs), trace)| {
            let mut reached = 0usize;
            let mut sync_acc = Streaming::new();
            for (run, &target) in runs.iter().zip(targets.iter()) {
                if let Some(syncs) = syncs_to_target(run, target) {
                    reached += 1;
                    sync_acc.push(syncs as f64);
                }
            }
            ArmSummary {
                label: runs[0].algorithm.clone(),
                kind,
                final_metric: stat(runs.iter().map(|r| r.final_metric as f64)),
                best_metric: stat(runs.iter().map(|r| r.best_metric as f64)),
                lssr: stat(runs.iter().map(|r| r.lssr)),
                sync_steps: stat(runs.iter().map(|r| r.sync_steps as f64)),
                switches: stat(runs.iter().map(|r| r.policy_switches as f64)),
                sim_time_s: stat(runs.iter().map(|r| r.sim_time_s)),
                comm_mb: stat(
                    runs.iter()
                        .map(|r| r.bytes_communicated as f64 / (1024.0 * 1024.0)),
                ),
                reached_target: reached,
                syncs_to_target: (reached > 0).then(|| sync_acc.mean()),
                trace,
                runs,
            }
        })
        .collect();

    Ok(SweepReport {
        scenario: scenario.name.clone(),
        description: scenario.description.clone(),
        timeline: injector.timeline(),
        seeds,
        higher_is_better: higher,
        baseline,
        arms: summaries,
    })
}

impl SweepReport {
    /// Index of the *best fixed* arm: among fixed-δ arms (grid entries, or policy arms
    /// written as `kind = "fixed"` tables — same semantics) whose every seed reached
    /// the target, the one spending the fewest mean synchronizations to get there.
    /// `None` when no fixed arm reaches the target on all seeds.
    pub fn best_fixed(&self) -> Option<usize> {
        self.arms
            .iter()
            .enumerate()
            .filter(|(_, a)| {
                matches!(
                    a.kind,
                    ArmKind::Fixed(_) | ArmKind::Policy(PolicySpec::Fixed { .. })
                ) && a.reached_target == self.seeds.len()
            })
            .min_by(|(_, a), (_, b)| {
                let (xa, xb) = (
                    a.syncs_to_target.expect("reached"),
                    b.syncs_to_target.expect("reached"),
                );
                xa.partial_cmp(&xb).expect("finite sync counts")
            })
            .map(|(i, _)| i)
    }

    /// Render the aggregated report as deterministic text (fixed-precision numbers,
    /// stable ordering; no clocks, no paths).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# sweep: {} ({} arms x {} seeds)\n",
            self.scenario,
            self.arms.len(),
            self.seeds.len()
        ));
        if !self.description.is_empty() {
            out.push_str(&format!("{}\n", self.description));
        }
        out.push_str("\n## cluster timeline\n");
        out.push_str(&self.timeline);
        out.push('\n');
        let seeds: Vec<String> = self.seeds.iter().map(|s| s.to_string()).collect();
        out.push_str(&format!("\nseeds: [{}]\n", seeds.join(", ")));
        out.push_str(&format!(
            "target: per-seed final metric of {} with {}% tolerance ({} is better)\n",
            self.arms[self.baseline].label,
            fmt_f(TARGET_TOLERANCE as f64 * 100.0, 1),
            if self.higher_is_better {
                "higher metric"
            } else {
                "lower metric"
            }
        ));

        out.push_str("\n## per-arm results (mean ± spread over seeds)\n\n");
        let mut table = Table::new(vec![
            "arm",
            "final_metric",
            "best_metric",
            "lssr",
            "sync_steps",
            "switches",
            "syncs_to_target",
            "reached",
            "sim_time_s",
            "comm_MB",
        ]);
        for arm in &self.arms {
            table.push_row(vec![
                arm.label.clone(),
                arm.final_metric.cell(),
                arm.best_metric.cell(),
                arm.lssr.cell(),
                arm.sync_steps.cell(),
                arm.switches.cell(),
                arm.syncs_to_target
                    .map(|s| fmt_f(s, 1))
                    .unwrap_or_else(|| "-".into()),
                format!("{}/{}", arm.reached_target, self.seeds.len()),
                arm.sim_time_s.cell(),
                arm.comm_mb.cell(),
            ]);
        }
        out.push_str(&table.to_markdown());

        // Where the switching arms flipped regimes (first seed; the count column
        // above aggregates over all seeds).
        let switching: Vec<&ArmSummary> = self
            .arms
            .iter()
            .filter(|a| !a.runs[0].switch_rounds.is_empty())
            .collect();
        if !switching.is_empty() {
            out.push_str(&format!(
                "\n## regime-switch rounds (seed {})\n",
                self.seeds[0]
            ));
            for arm in switching {
                let rounds: Vec<String> = arm.runs[0]
                    .switch_rounds
                    .iter()
                    .map(|r| r.to_string())
                    .collect();
                out.push_str(&format!("{}: [{}]\n", arm.label, rounds.join(", ")));
            }
        }

        // The comparison the adaptive arm is designed to win: fewest syncs to the
        // target among the arms that reach it.
        let policy_arms: Vec<&ArmSummary> = self
            .arms
            .iter()
            .filter(|a| matches!(a.kind, ArmKind::Policy(_)))
            .collect();
        if !policy_arms.is_empty() {
            out.push_str("\n## policy arms vs best fixed δ\n");
            match self.best_fixed() {
                Some(best) => {
                    let b = &self.arms[best];
                    out.push_str(&format!(
                        "best fixed: {} ({} mean syncs to target)\n",
                        b.label,
                        fmt_f(b.syncs_to_target.expect("reached"), 1)
                    ));
                    for arm in policy_arms {
                        match arm.syncs_to_target {
                            Some(s) if arm.reached_target == self.seeds.len() => {
                                out.push_str(&format!(
                                    "{}: reached on {}/{} seeds with {} mean syncs to target ({})\n",
                                    arm.label,
                                    arm.reached_target,
                                    self.seeds.len(),
                                    fmt_f(s, 1),
                                    if s < b.syncs_to_target.expect("reached") {
                                        "fewer than best fixed"
                                    } else {
                                        "not fewer than best fixed"
                                    }
                                ));
                            }
                            _ => out.push_str(&format!(
                                "{}: reached the target on {}/{} seeds\n",
                                arm.label,
                                arm.reached_target,
                                self.seeds.len()
                            )),
                        }
                    }
                }
                None => out.push_str("no fixed arm reached the target on every seed\n"),
            }
        }
        out
    }

    /// Render as a deterministic JSON object (stable key order, shortest float
    /// representation) for CI archiving next to the `bench_kernels` report.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"scenario\": \"{}\",\n", esc(&self.scenario)));
        let seeds: Vec<String> = self.seeds.iter().map(|s| s.to_string()).collect();
        out.push_str(&format!("  \"seeds\": [{}],\n", seeds.join(", ")));
        out.push_str(&format!(
            "  \"higher_is_better\": {},\n",
            self.higher_is_better
        ));
        out.push_str(&format!(
            "  \"baseline\": \"{}\",\n",
            esc(&self.arms[self.baseline].label)
        ));
        out.push_str("  \"arms\": [\n");
        for (i, arm) in self.arms.iter().enumerate() {
            let stat_fields = [
                ("final_metric", arm.final_metric),
                ("best_metric", arm.best_metric),
                ("lssr", arm.lssr),
                ("sync_steps", arm.sync_steps),
                ("switches", arm.switches),
                ("sim_time_s", arm.sim_time_s),
                ("comm_mb", arm.comm_mb),
            ];
            out.push_str("    {");
            out.push_str(&format!("\"label\": \"{}\"", esc(&arm.label)));
            for (name, s) in stat_fields {
                out.push_str(&format!(
                    ", \"{name}_mean\": {}, \"{name}_spread\": {}",
                    s.mean, s.spread
                ));
            }
            out.push_str(&format!(", \"reached_target\": {}", arm.reached_target));
            out.push_str(&format!(
                ", \"syncs_to_target_mean\": {}",
                arm.syncs_to_target
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "null".into())
            ));
            let rounds: Vec<String> = arm.runs[0]
                .switch_rounds
                .iter()
                .map(|r| r.to_string())
                .collect();
            out.push_str(&format!(", \"switch_rounds\": [{}]", rounds.join(", ")));
            out.push_str(if i + 1 == self.arms.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SweepSpec;

    fn tiny_sweep_scenario() -> Scenario {
        let mut s = Scenario::base("sweep-test", 3, 24);
        s.train_samples = 384;
        s.test_samples = 96;
        s.eval_samples = 96;
        s.batch_size = 8;
        s.eval_every = 6;
        s.sweep = Some(SweepSpec {
            deltas: vec![0.0, 1e9],
            seeds: vec![42, 43],
            policies: vec![PolicySpec::Schedule {
                starts: vec![0, 12],
                deltas: vec![0.0, 1e9],
            }],
        });
        s
    }

    #[test]
    fn sweep_runs_every_arm_at_every_seed() {
        let report = run_sweep(&tiny_sweep_scenario()).unwrap();
        assert_eq!(report.arms.len(), 3);
        assert_eq!(report.seeds, vec![42, 43]);
        for arm in &report.arms {
            assert_eq!(arm.runs.len(), 2, "{}", arm.label);
            for run in &arm.runs {
                assert_eq!(run.iterations, 24);
                assert!(run.final_loss.is_finite());
            }
        }
        // δ=0 is the BSP-equivalent baseline arm, and reaches its own target.
        assert_eq!(report.baseline, 0);
        let bsp_arm = &report.arms[0];
        assert_eq!(bsp_arm.sync_steps.mean, 24.0);
        assert_eq!(bsp_arm.reached_target, 2);
        // The pure-local arm never synchronizes; the schedule arm synchronizes for
        // exactly the first 12 iterations.
        assert_eq!(report.arms[1].sync_steps.mean, 0.0);
        assert_eq!(report.arms[2].sync_steps.mean, 12.0);
        assert!(
            report.arms[2].label.contains("schedule"),
            "{}",
            report.arms[2].label
        );
    }

    #[test]
    fn fixed_arm_report_equals_a_plain_selsync_run() {
        // A sweep's fixed arm must be *exactly* the plain driver run — same label,
        // same bytes — so sweep results compose with every recorded regression.
        let scenario = tiny_sweep_scenario();
        let report = run_sweep(&scenario).unwrap();
        let mut cfg = scenario.train_config(AlgorithmSpec::selsync(0.0));
        cfg.seed = 42;
        let plain = algorithms::run(&cfg);
        assert_eq!(
            format!("{:?}", report.arms[0].runs[0]),
            format!("{plain:?}")
        );
    }

    #[test]
    fn render_and_json_are_deterministic() {
        let scenario = tiny_sweep_scenario();
        let a = run_sweep(&scenario).unwrap();
        let b = run_sweep(&scenario).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a
            .render()
            .contains("# sweep: sweep-test (3 arms x 2 seeds)"));
        assert!(a.render().contains("## policy arms vs best fixed δ"));
        assert!(a.to_json().contains("\"reached_target\""));
    }

    #[test]
    fn quick_variant_scales_adaptive_round_budgets_and_preserves_arm_order() {
        // A full-length scenario whose adaptive arm has a warmup sized for the full
        // run: unscaled, the quick (60-iteration) variant could never leave warmup.
        let mut s = Scenario::base("quick-smoke", 4, 240);
        s.sweep = Some(SweepSpec {
            deltas: vec![0.0, 0.3],
            seeds: vec![42, 43, 44],
            policies: vec![
                PolicySpec::Schedule {
                    starts: vec![0, 120],
                    deltas: vec![0.0, 0.5],
                },
                PolicySpec::Adaptive {
                    delta_explore: 0.0,
                    delta_exploit: 0.5,
                    factor: 0.15,
                    warmup: 160,
                    settle: 0.05,
                    patience: 40,
                    spike: 2.5,
                },
            ],
        });
        let quick = quick_variant(&s);
        let full_spec = s.sweep.as_ref().unwrap();
        let quick_spec = quick.sweep.as_ref().unwrap();

        // Arm ordering (and kinds) must survive the shrink 1:1, so quick-mode
        // comparisons line up with full-mode ones.
        assert_eq!(quick_spec.deltas, full_spec.deltas);
        assert_eq!(quick_spec.policies.len(), full_spec.policies.len());
        for (q, f) in quick_spec.policies.iter().zip(full_spec.policies.iter()) {
            assert_eq!(
                std::mem::discriminant(q),
                std::mem::discriminant(f),
                "policy arm kinds must keep their order"
            );
            q.validate().expect("scaled policy stays valid");
        }

        // The adaptive budgets are rescaled with the iteration range: the arm can arm
        // its settle detector (and therefore leave warmup) well inside the quick run.
        match &quick_spec.policies[1] {
            PolicySpec::Adaptive {
                warmup, patience, ..
            } => {
                assert_eq!(*warmup, 40, "160 of 240 iterations -> 40 of 60");
                assert_eq!(*patience, 10, "40 of 240 iterations -> 10 of 60");
                assert!(warmup + patience < quick.iterations);
            }
            other => panic!("expected the adaptive arm, got {other:?}"),
        }
        // Schedule stages keep their behavior under the same scaling.
        match &quick_spec.policies[0] {
            PolicySpec::Schedule { starts, .. } => assert_eq!(starts, &vec![0, 30]),
            other => panic!("expected the schedule arm, got {other:?}"),
        }
        // Seeds truncate (at most two in quick mode) but keep their prefix order.
        assert_eq!(quick_spec.seeds, vec![42, 43]);
    }

    #[test]
    fn default_grid_is_used_when_the_scenario_has_no_sweep_block() {
        let mut s = tiny_sweep_scenario();
        s.sweep = None;
        s.iterations = 8;
        s.eval_every = 4;
        let spec = SweepSpec::default_grid(s.seed);
        let report = run_sweep(&s).unwrap();
        assert_eq!(report.arms.len(), spec.arm_count());
        assert_eq!(report.seeds, spec.seeds);
    }
}
