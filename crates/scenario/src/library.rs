//! Built-in scenario library.
//!
//! Eight canonical cluster shapes, each small enough to run in seconds yet shaped to
//! surface the regime it is named after. All are constructed programmatically (so they
//! are always in sync with the schema) and serialize to TOML via
//! [`Scenario::to_toml_string`] — `scenario_run --dump <name>` prints them as starting
//! points for custom files.

use crate::schema::{FaultSpec, Scenario, SweepSpec};
use selsync::policy::PolicySpec;
use selsync_comm::faults::{CommFaultSpec, PsFaultSpec};

/// Names of the built-in scenarios, in canonical order.
pub const BUILTIN_NAMES: [&str; 8] = [
    "steady",
    "transient-straggler",
    "degraded-network",
    "crash-rejoin",
    "heterogeneous-fleet",
    "elastic-churn",
    "flaky-links",
    "ps-brownout",
];

/// Look up a built-in scenario by name.
pub fn builtin(name: &str) -> Option<Scenario> {
    match name {
        "steady" => Some(steady()),
        "transient-straggler" => Some(transient_straggler()),
        "degraded-network" => Some(degraded_network()),
        "crash-rejoin" => Some(crash_rejoin()),
        "heterogeneous-fleet" => Some(heterogeneous_fleet()),
        "elastic-churn" => Some(elastic_churn()),
        "flaky-links" => Some(flaky_links()),
        "ps-brownout" => Some(ps_brownout()),
        _ => None,
    }
}

/// A scenario by built-in name, or from a file when `spec` ends in `.toml`.
pub fn load(spec: &str) -> Result<Scenario, String> {
    if spec.ends_with(".toml") {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
        Scenario::from_toml_str(&text).map_err(|e| format!("{spec}: {e}"))
    } else {
        builtin(spec).ok_or_else(|| {
            format!(
                "unknown built-in scenario {spec:?} (expected one of {}, or a .toml file)",
                BUILTIN_NAMES.join(", ")
            )
        })
    }
}

/// All built-in scenarios, in canonical order.
pub fn all_builtin() -> Vec<Scenario> {
    BUILTIN_NAMES
        .iter()
        .map(|n| builtin(n).expect("builtin name"))
        .collect()
}

/// Homogeneous, fault-free baseline: the shape every other scenario deviates from.
pub fn steady() -> Scenario {
    let mut s = Scenario::base("steady", 6, 240);
    s.description = "Homogeneous fault-free cluster: the control arm.".into();
    s
}

/// One worker slows 3.5× for the middle third of the run — the classic transient
/// straggler that stretches every synchronous round it participates in.
pub fn transient_straggler() -> Scenario {
    let mut s = Scenario::base("transient-straggler", 6, 240);
    s.description = "Worker 5 computes 3.5x slower during the middle third of the run.".into();
    s.faults = vec![FaultSpec::Slowdown {
        worker: 5,
        start: 80,
        duration: 80,
        factor: 3.5,
    }];
    s
}

/// Bandwidth collapses to 20% and latency spikes for a long window: synchronization
/// becomes expensive exactly where SelSync can skip it.
pub fn degraded_network() -> Scenario {
    let mut s = Scenario::base("degraded-network", 6, 240);
    s.description = "Bandwidth x0.2 and +10ms latency during iterations 60..180.".into();
    s.faults = vec![
        FaultSpec::Bandwidth {
            start: 60,
            duration: 120,
            factor: 0.2,
        },
        FaultSpec::Latency {
            start: 60,
            duration: 120,
            extra_ms: 10.0,
        },
    ];
    s
}

/// One worker crashes and later rejoins; another leaves for good near the end. The
/// cluster must keep training over the live subset (elastic membership).
pub fn crash_rejoin() -> Scenario {
    let mut s = Scenario::base("crash-rejoin", 6, 240);
    s.description =
        "Worker 2 crashes at 60 and rejoins at 140; worker 4 leaves for good at 200.".into();
    s.faults = vec![
        FaultSpec::Crash {
            worker: 2,
            start: 60,
            rejoin: Some(140),
        },
        FaultSpec::Crash {
            worker: 4,
            start: 200,
            rejoin: None,
        },
    ];
    s
}

/// A permanently mixed fleet (three device generations), the regime where a fixed
/// synchronous pace is always set by the slowest device.
pub fn heterogeneous_fleet() -> Scenario {
    let mut s = Scenario::base("heterogeneous-fleet", 6, 240);
    s.description = "Three device generations: speeds [1.0, 1.0, 1.15, 1.15, 1.3, 1.5].".into();
    s.heterogeneity = vec![1.0, 1.0, 1.15, 1.15, 1.3, 1.5];
    s
}

/// Rolling worker churn: one worker is away (and later rejoins stale) at almost every
/// phase of the run, plus a mid-run bandwidth dip. The time-varying regime the
/// adaptive-δ policy targets: every rejoin pulls the PS global — stale under sparse
/// synchronization — and restarts the worker's `Δ(g)` tracker, producing the signal
/// spikes the policy reacts to. Carries the default sweep block (δ grid × 3 seeds ×
/// the adaptive arm), so `scenario_sweep elastic-churn` compares the arms directly.
pub fn elastic_churn() -> Scenario {
    let mut s = Scenario::base("elastic-churn", 6, 240);
    s.description =
        "Rolling churn: workers 2..5 each crash for 30 iterations in turn; bandwidth dips mid-run."
            .into();
    s.faults = vec![
        FaultSpec::Crash {
            worker: 2,
            start: 40,
            rejoin: Some(70),
        },
        FaultSpec::Crash {
            worker: 3,
            start: 90,
            rejoin: Some(120),
        },
        FaultSpec::Crash {
            worker: 4,
            start: 140,
            rejoin: Some(170),
        },
        FaultSpec::Crash {
            worker: 5,
            start: 190,
            rejoin: Some(220),
        },
        FaultSpec::Bandwidth {
            start: 100,
            duration: 60,
            factor: 0.3,
        },
    ];
    s.sweep = Some(SweepSpec {
        deltas: vec![0.0, 0.05, 0.15, 0.3],
        seeds: vec![42, 43, 44],
        policies: vec![PolicySpec::adaptive_default()],
    });
    s
}

/// Lossy interconnect: every message leg has a chance of being dropped, corrupted,
/// duplicated or delayed under a seeded `[comm_faults]` schedule. Retries and
/// timeouts price the weather into the run's time/byte totals, duplicates and
/// reorders are absorbed by the idempotent message layer, and a worker whose
/// retry budget runs dry is evicted like a scheduled crash (see
/// `docs/COMM_FAULTS.md`).
pub fn flaky_links() -> Scenario {
    let mut s = Scenario::base("flaky-links", 6, 240);
    s.description =
        "Lossy links: 8% drop / 2% corrupt / 4% duplicate / 6% delay per leg, 5-attempt budget."
            .into();
    s.comm_faults = Some(CommFaultSpec {
        seed: 42,
        drop: 0.08,
        duplicate: 0.04,
        corrupt: 0.02,
        delay: 0.06,
        delay_rounds: 0,
        retry_budget: 5,
        timeout_s: 5.0e-3,
    });
    s
}

/// Parameter-server weather: two scheduled outage windows plus a 2% per-round
/// brownout chance under a seeded `[ps_faults]` schedule. While the server is down,
/// workers degrade to local-only rounds (no δ fetch, no synchronization) and the
/// first reachable round after an outage forces a catch-up synchronization — the
/// graceful-degradation regime `docs/RECOVERY.md` describes. Carries its own sweep
/// block (BSP-equivalent δ = 0, a mid δ, the adaptive arm and the variance-gated
/// arm) so `scenario_sweep ps-brownout` compares how each policy absorbs the
/// outages.
pub fn ps_brownout() -> Scenario {
    let mut s = Scenario::base("ps-brownout", 6, 240);
    s.description =
        "Parameter server dark during iterations 80..110 and 170..185, 2% flaky per round.".into();
    s.ps_faults = Some(PsFaultSpec {
        seed: 42,
        windows: vec![(80, 30), (170, 15)],
        flaky: 0.02,
    });
    s.sweep = Some(SweepSpec {
        deltas: vec![0.0, 0.15],
        seeds: vec![42, 43],
        policies: vec![
            PolicySpec::adaptive_default(),
            PolicySpec::variance_default(),
        ],
    });
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::FaultInjector;

    #[test]
    fn all_builtins_are_valid_and_named_consistently() {
        let all = all_builtin();
        assert_eq!(all.len(), BUILTIN_NAMES.len());
        for (scenario, name) in all.iter().zip(BUILTIN_NAMES.iter()) {
            assert_eq!(&scenario.name, name);
            assert!(
                !scenario.description.is_empty(),
                "{name} needs a description"
            );
            scenario
                .validate()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            FaultInjector::compile(scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(builtin("no-such-scenario").is_none());
    }

    #[test]
    fn builtins_round_trip_through_toml() {
        for scenario in all_builtin() {
            let text = scenario.to_toml_string();
            let parsed = crate::schema::Scenario::from_toml_str(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
            assert_eq!(scenario, parsed, "{}", scenario.name);
        }
    }

    #[test]
    fn load_takes_a_builtin_name_or_a_toml_file() {
        assert_eq!(load("crash-rejoin"), Ok(crash_rejoin()));
        let err = load("crash-rejion").unwrap_err();
        assert!(
            err.contains("\"crash-rejion\"") && err.contains("crash-rejoin"),
            "{err}"
        );

        let path = std::env::temp_dir().join(format!("selsync-load-{}.toml", std::process::id()));
        let spec = path.to_str().unwrap();
        std::fs::write(&path, flaky_links().to_toml_string()).unwrap();
        assert_eq!(load(spec), Ok(flaky_links()));
        // Errors in a file, or reading it, name the file.
        std::fs::write(&path, "[scenario]\nname = \"half\"\n").unwrap();
        assert!(load(spec).unwrap_err().starts_with(spec));
        std::fs::remove_file(&path).unwrap();
        assert!(load(spec).unwrap_err().starts_with(spec));
    }

    #[test]
    fn builtins_cover_the_advertised_regimes() {
        assert!(steady().faults.is_empty() && steady().heterogeneity.is_empty());
        assert!(matches!(
            transient_straggler().faults[..],
            [FaultSpec::Slowdown { factor, .. }] if factor > 1.0
        ));
        assert!(degraded_network()
            .faults
            .iter()
            .any(|f| matches!(f, FaultSpec::Bandwidth { factor, .. } if *factor < 1.0)));
        assert!(crash_rejoin().faults.iter().any(|f| matches!(
            f,
            FaultSpec::Crash {
                rejoin: Some(_),
                ..
            }
        )));
        assert!(heterogeneous_fleet().heterogeneity.iter().any(|&s| s > 1.0));
        let weather = flaky_links().comm_faults.expect("flaky-links has weather");
        assert!(!weather.is_lossless() && weather.retry_budget > 1);
        let outages = ps_brownout().ps_faults.expect("ps-brownout has PS weather");
        assert!(!outages.is_reliable() && !outages.windows.is_empty());
        let sweep = ps_brownout().sweep.expect("ps-brownout has a sweep block");
        assert!(sweep.deltas.contains(&0.0), "needs the BSP-equivalent arm");
        assert!(sweep
            .policies
            .iter()
            .any(|p| matches!(p, PolicySpec::Variance { .. })));
    }
}
