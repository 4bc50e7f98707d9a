//! `BENCHMARK.json` at the repository root is the benchmark's contract: the
//! workload names, the end-to-end metrics with their direction and regression
//! bound, and the per-layer metric names. This module reads it back so that
//! what the harness emits and what the contract lists cannot drift apart.

use crate::json::Json;
use std::path::PathBuf;

pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

pub fn load() -> Result<Json, String> {
    let path = path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `name` of every entry of one of the contract's lists.
pub fn names(contract: &Json, list: &str) -> Vec<String> {
    contract
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|entry| entry.get("name")?.as_str().map(str::to_string))
        .collect()
}

/// Direction and regression bound of an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub higher_is_better: bool,
    /// Share of the base value the metric may worsen by.
    pub bound: f64,
    /// Absolute slack in the metric's unit: a worsening smaller than this is
    /// never a regression, whatever share of the base it is.
    pub floor: f64,
}

/// `setup_s` is about 10 ms, a few process spawns; a quarter of that is within
/// what the spawns themselves scatter by.
const SETUP_FLOOR_S: f64 = 0.010;

pub fn bound(contract: &Json, metric: &str) -> Option<Bound> {
    let entry = contract
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(metric))?;
    Some(Bound {
        higher_is_better: entry.get("better")?.as_str()? == "higher",
        bound: entry.get("bound")?.as_f64()?,
        floor: if metric == "setup_s" {
            SETUP_FLOOR_S
        } else {
            0.0
        },
    })
}

/// Check that `emitted` names exactly the contract's `list` (order-free).
pub fn check_names(contract: &Json, list: &str, emitted: &[String]) -> Result<(), String> {
    let mut want = names(contract, list);
    let mut got = emitted.to_vec();
    want.sort();
    got.sort();
    if want == got {
        return Ok(());
    }
    let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
    let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
    Err(format!(
        "BENCHMARK.json `{list}` and the harness disagree: not emitted {missing:?}, not listed {extra:?}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn contract_lists_the_harness_workloads_with_their_reasons() {
        let contract = load().unwrap();
        let emitted: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        check_names(&contract, "workloads", &emitted).unwrap();
        for entry in contract.get("workloads").unwrap().as_arr().unwrap() {
            let name = entry.get("name").unwrap().as_str().unwrap();
            let why = entry.get("why").unwrap().as_str().unwrap();
            assert_eq!(crate::workloads::find(name).unwrap().why, why, "{name}");
        }
    }

    #[test]
    fn contract_obeys_the_driver_limits() {
        let contract = load().unwrap();
        let keys: Vec<&str> = contract
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let seconds = contract.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for list in ["workloads", "end_to_end", "per_layer"] {
            for name in names(&contract, list) {
                assert!(name_ok(&name), "bad name {name:?}");
                assert!(seen.insert(name.clone()), "name {name:?} used twice");
            }
        }
        for list in ["end_to_end", "per_layer"] {
            for entry in contract.get(list).unwrap().as_arr().unwrap() {
                assert!(
                    unit_ok(entry.get("unit").unwrap().as_str().unwrap()),
                    "{entry:?}"
                );
                let better = entry.get("better").unwrap().as_str().unwrap();
                assert!(better == "higher" || better == "lower");
            }
        }
        for name in names(&contract, "end_to_end") {
            let b = bound(&contract, &name).unwrap();
            assert!(b.bound > 0.0 && b.bound <= 0.25, "{name}");
        }
        let setup = bound(&contract, "setup_s").unwrap();
        assert!(!setup.higher_is_better);
        assert!(std::fs::metadata(path()).unwrap().len() <= 64 * 1024);
    }

    #[test]
    fn name_check_reports_both_directions() {
        let contract = Json::parse(r#"{"per_layer":[{"name":"a"},{"name":"b"}]}"#).unwrap();
        assert!(check_names(&contract, "per_layer", &["b".into(), "a".into()]).is_ok());
        let err = check_names(&contract, "per_layer", &["a".into(), "c".into()]).unwrap_err();
        assert!(err.contains("\"b\"") && err.contains("\"c\""), "{err}");
    }
}
