//! Measuring one workload in full (end to end, then traced) and rendering the
//! results: a human-readable table on stderr, JSON for files and the driver.

use crate::json::Json;
use crate::layers::LayerMetric;
use crate::runner::{self, EndToEnd, Oracle, Reported};
use crate::stats::Summary;
use crate::walk::{self, WalkResult};
use crate::workloads::Workload;
use selsync_scenario::Scenario;

/// Rounds a traced walk replays (fewer when the workload itself is shorter).
const WALK_ROUNDS: usize = 500;
/// Walks per traced run; the fastest is kept, as the fastest timed run stands
/// for `rounds_per_s` — a single walk lands in the scheduler's slow placement
/// as often as a single run does.
const WALK_REPEATS: usize = 5;

/// Everything measured about one workload.
pub struct WorkloadResult {
    pub workload: &'static Workload,
    pub scenario: Scenario,
    pub oracle: Oracle,
    pub e2e: EndToEnd,
    pub walk: Option<WalkResult>,
    walks_attempted: usize,
    trace_path: Option<std::path::PathBuf>,
    /// Failed checks outside the timed runs (oracle character, walk schedule).
    pub failures: Vec<String>,
}

/// How long a workload's runs are and how they are repeated.
#[derive(Clone, Copy)]
pub struct Effort {
    pub seconds: f64,
    /// Smoke runs: 1/20 length, one repeat, no quality target to reach.
    pub smoke: bool,
}

impl Effort {
    fn rounds(&self, scenario_rounds: usize) -> Option<usize> {
        self.smoke.then(|| (scenario_rounds / 20).max(2))
    }
}

/// The oracle plus the timed, checked runs of `workload`.
pub fn measure_end_to_end(
    workload: &'static Workload,
    seed: u64,
    effort: Effort,
) -> WorkloadResult {
    let full = workload.scenario(seed, None);
    let scenario = workload.scenario(seed, effort.rounds(full.iterations));
    let mut oracle = runner::oracle(workload, &scenario);
    let mut failures = Vec::new();
    if effort.smoke {
        // A run cut to 1/20 cannot reach the target; its whole length stands in
        // so that every metric is still produced and named.
        oracle.rounds_to_target.get_or_insert(scenario.iterations);
    } else if oracle.rounds_to_target.is_none() {
        failures.push(format!(
            "the oracle never reaches top-1 >= {}% in {} rounds: the workload is broken",
            workload.target, scenario.iterations
        ));
    }
    if oracle.evictions > 0 {
        failures.push(format!(
            "the link weather evicts {} worker(s); the workload must keep everyone",
            oracle.evictions
        ));
    }
    let (setup_repeats, min_full) = if effort.smoke {
        (1, 1)
    } else {
        (runner::SETUP_REPEATS, 3)
    };
    let seconds = if effort.smoke { 0.0 } else { effort.seconds };
    let e2e = runner::measure(
        workload,
        &scenario,
        &oracle,
        seconds,
        setup_repeats,
        min_full,
    );
    WorkloadResult {
        workload,
        scenario,
        oracle,
        e2e,
        walk: None,
        walks_attempted: 0,
        trace_path: None,
        failures,
    }
}

impl WorkloadResult {
    /// Replay the workload's rounds with tracing on, check each walk's
    /// synchronization schedule against the oracle's, keep the fastest walk and
    /// write its spans out.
    pub fn trace(&mut self) {
        let rounds = WALK_ROUNDS.min(self.scenario.iterations);
        let expected: Vec<usize> = self
            .oracle
            .sync_rounds
            .iter()
            .copied()
            .filter(|&r| r < rounds)
            .collect();
        for _ in 0..WALK_REPEATS {
            self.walks_attempted += 1;
            match walk::walk(self.workload, &self.scenario, rounds) {
                Ok(result) if result.sync_rounds != expected => self.failures.push(format!(
                    "the traced walk synchronized at {} rounds, the oracle at {}: the \
                     reconstruction no longer mirrors the driver",
                    result.sync_rounds.len(),
                    expected.len()
                )),
                Ok(result) => {
                    if self
                        .walk
                        .as_ref()
                        .is_none_or(|best| result.rounds_per_s > best.rounds_per_s)
                    {
                        self.walk = Some(result);
                    }
                }
                Err(e) => self.failures.push(format!("traced walk: {e}")),
            }
        }
        if let Some(walk) = &self.walk {
            match walk.write_trace(self.workload) {
                Ok(path) => self.trace_path = Some(path),
                Err(e) => self.failures.push(e),
            }
        }
    }

    pub fn attempted(&self) -> usize {
        self.e2e.attempted + self.walks_attempted
    }

    pub fn failed(&self) -> usize {
        self.e2e.failed + self.failures.len()
    }

    pub fn all_failures(&self) -> impl Iterator<Item = &String> {
        self.e2e.failures.iter().chain(&self.failures)
    }

    /// The `round.*` metrics: exact counts from the oracle, plus — after
    /// [`Self::trace`] and with at least one timed run — the share of a real round
    /// the walk's layer spans do not account for.
    pub fn round_metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let mut metrics = vec![
            ("round.sync_share", "ratio", self.oracle.sync_share()),
            (
                "round.retries_per_round",
                "count",
                self.oracle.retries_per_round,
            ),
            ("round.ckpt_images", "count", self.oracle.ckpt_images as f64),
        ];
        if let (Some(walk), true) = (&self.walk, self.e2e.complete()) {
            let real = self.e2e.fastest_rounds_per_s();
            metrics.push((
                "round.unattributed_share",
                "ratio",
                walk.unattributed_share(real),
            ));
        }
        metrics
    }

    pub fn print(&self) {
        let w = self.workload;
        eprintln!(
            "== {} ({} backend, {} workers, {} rounds, pool threads {})",
            w.name,
            w.backend.as_str(),
            self.scenario.workers,
            self.scenario.iterations,
            self.e2e.threads
        );
        eprintln!(
            "   runs: {} attempted, {} failed; rounds_to_target {} (top-1 >= {}%)",
            self.attempted(),
            self.failed(),
            self.e2e.rounds_to_target,
            w.target
        );
        for failure in self.all_failures() {
            eprintln!("   FAILED: {failure}");
        }
        if self.e2e.complete() {
            for m in self.e2e.metrics() {
                let runs = Summary::of(&m.runs);
                eprintln!(
                    "   {:18} {:>12.4} {:9} runs: median {:.4}, min {:.4}, max {:.4}, n={}",
                    m.name, m.value, m.unit, runs.median, runs.min, runs.max, runs.samples
                );
                let each: Vec<String> = m.runs.iter().map(|v| format!("{v:.4}")).collect();
                eprintln!("   {:18} each run: {}", "", each.join(" "));
            }
        }
        for (name, unit, value) in self.round_metrics() {
            eprintln!("   {name:26} {value:>10.4} {unit}");
        }
        if let Some(walk) = &self.walk {
            eprintln!(
                "   traced walk: {} rounds at {:.1} rounds/s (fastest of {}), {} spans{}",
                walk.rounds,
                walk.rounds_per_s,
                self.walks_attempted,
                walk.spans,
                self.trace_path
                    .as_ref()
                    .map_or(String::new(), |p| format!(" -> {}", p.display()))
            );
            let per_layer: Vec<String> = walk
                .layer_us_per_round()
                .iter()
                .map(|(layer, us)| format!("{layer} {us:.1}"))
                .collect();
            eprintln!("   self time per round, us: {}", per_layer.join(", "));
        }
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("why", Json::str(self.workload.why)),
            ("backend", Json::str(self.workload.backend.as_str())),
            ("workers", Json::Num(self.scenario.workers as f64)),
            ("rounds", Json::Num(self.scenario.iterations as f64)),
            ("pool_threads", Json::Num(self.e2e.threads as f64)),
            (
                "target_top1_percent",
                Json::Num(self.workload.target as f64),
            ),
            (
                "rounds_to_target",
                Json::Num(self.e2e.rounds_to_target as f64),
            ),
            ("attempted", Json::Num(self.attempted() as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            (
                "failures",
                Json::Arr(self.all_failures().map(Json::str).collect()),
            ),
        ];
        if self.e2e.complete() {
            fields.push((
                "end_to_end",
                Json::obj(
                    self.e2e
                        .metrics()
                        .iter()
                        .map(|m| (m.name, reported_json(m))),
                ),
            ));
        }
        fields.push((
            "round",
            Json::obj(
                self.round_metrics()
                    .into_iter()
                    .map(|(name, unit, value)| (name, value_json(value, unit))),
            ),
        ));
        if let Some(walk) = &self.walk {
            let table = |rows: Vec<(String, f64)>| {
                Json::obj(rows.into_iter().map(|(name, us)| (name, Json::Num(us))))
            };
            fields.push((
                "walk",
                Json::obj([
                    ("rounds", Json::Num(walk.rounds as f64)),
                    ("workers", Json::Num(walk.workers as f64)),
                    ("rounds_per_s", Json::Num(walk.rounds_per_s)),
                    ("spans", Json::Num(walk.spans as f64)),
                    ("layer_self_us_per_round", table(walk.layer_us_per_round())),
                    (
                        "span_self_us_per_round",
                        table(walk.self_us_per_round.clone()),
                    ),
                ]),
            ));
        }
        Json::obj(fields)
    }
}

pub fn value_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn reported_json(m: &Reported) -> Json {
    let runs = Summary::of(&m.runs);
    Json::obj([
        ("value", Json::Num(m.value)),
        ("unit", Json::str(m.unit)),
        ("median", Json::Num(runs.median)),
        ("min", Json::Num(runs.min)),
        ("max", Json::Num(runs.max)),
        ("samples", Json::Num(runs.samples as f64)),
        (
            "runs",
            Json::Arr(m.runs.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

pub fn summary_json(summary: &Summary, unit: &str) -> Json {
    let mut fields = vec![
        ("value", Json::Num(summary.median)),
        ("unit", Json::str(unit)),
        ("min", Json::Num(summary.min)),
        ("max", Json::Num(summary.max)),
        ("samples", Json::Num(summary.samples as f64)),
    ];
    if let Some((percentile, value)) = summary.tail {
        fields.push(("tail_percentile", Json::Num(percentile)));
        fields.push(("tail_value", Json::Num(value)));
    }
    Json::obj(fields)
}

pub fn print_layers(layers: &[LayerMetric]) {
    eprintln!("== per-layer metrics (median; highest percentile with >= 10 samples beyond it)");
    for m in layers {
        let tail = m
            .summary
            .tail
            .map_or(String::new(), |(p, v)| format!(", p{p} {v:.3}"));
        eprintln!(
            "   {:34} {:>12.3} {:6} n={}{tail}",
            m.name, m.summary.median, m.unit, m.summary.samples
        );
    }
}

pub fn layers_json(layers: &[LayerMetric]) -> Json {
    Json::obj(
        layers
            .iter()
            .map(|m| (m.name.as_str(), summary_json(&m.summary, m.unit))),
    )
}
