//! `benchmark compare BASE CHANGE`: apply the contract's bounds to two sets of
//! result files, one row per end-to-end metric × workload.
//!
//! Each side is one result file or several (comma-separated). A side's value is
//! the median of its files' values; its range is the files' extremes — or, for a
//! single file, the extremes of that file's individual runs. The verdict follows
//! the rule every later performance claim is held to:
//!
//! * the wider side's range exceeds the bound (`setup_s`: the bound or 10 ms,
//!   whichever is larger) → `unresolved`, unless the ranges do not overlap (then
//!   every change reading is better, `ok`, or worse, `regressed`, than every
//!   base reading);
//! * otherwise `regressed` when the change is worse than the base by more than
//!   the bound, `ok` when not.

use crate::contract::{self, Bound};
use crate::json::Json;
use crate::stats::median;

/// One side's readings of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub lo: f64,
    pub hi: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(base: Side, change: Side, bound: Bound) -> Verdict {
    // What the metric may move by before it counts, in its own unit.
    let tolerance = (bound.bound * base.value).max(bound.floor);
    let (all_better, all_worse) = if bound.higher_is_better {
        (change.lo > base.hi, change.hi < base.lo)
    } else {
        (change.hi < base.lo, change.lo > base.hi)
    };
    if (base.hi - base.lo).max(change.hi - change.lo) > tolerance {
        return match (all_better, all_worse) {
            (true, _) => Verdict::Ok,
            (_, true) => Verdict::Regressed,
            _ => Verdict::Unresolved,
        };
    }
    let worse_by = if bound.higher_is_better {
        base.value - change.value
    } else {
        change.value - base.value
    };
    if worse_by > tolerance {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// A side's readings of `metric` on `workload` across its result files.
fn side(files: &[Json], workload: &str, metric: &str) -> Option<Side> {
    let entries: Vec<&Json> = files
        .iter()
        .filter_map(|f| {
            f.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)
        })
        .collect();
    let values: Vec<f64> = entries
        .iter()
        .filter_map(|e| e.get("value")?.as_f64())
        .collect();
    if values.is_empty() || values.len() != entries.len() {
        return None;
    }
    let (lo, hi) = if let [only] = entries[..] {
        (only.get("min")?.as_f64()?, only.get("max")?.as_f64()?)
    } else {
        (
            values.iter().copied().fold(f64::INFINITY, f64::min),
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    Some(Side {
        value: median(&values),
        lo,
        hi,
    })
}

fn load_side(spec: &str) -> Result<Vec<Json>, String> {
    spec.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

/// Values that must repeat bit for bit between two runs of one seed.
fn exact_counts(file: &Json, workload: &str) -> Vec<(String, f64)> {
    let Some(entry) = file.get("workloads").and_then(|w| w.get(workload)) else {
        return Vec::new();
    };
    let mut counts = Vec::new();
    if let Some(v) = entry.get("rounds_to_target").and_then(Json::as_f64) {
        counts.push(("rounds_to_target".to_string(), v));
    }
    for (name, value) in entry
        .get("round")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        // Every `round.*` number but the measured share comes from the oracle.
        if name != "round.unattributed_share" {
            if let Some(v) = value.get("value").and_then(Json::as_f64) {
                counts.push((name.clone(), v));
            }
        }
    }
    counts
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn run(base_spec: &str, change_spec: &str) -> Result<bool, String> {
    let contract = contract::load()?;
    let (base, change) = (load_side(base_spec)?, load_side(change_spec)?);
    println!(
        "{:20} {:18} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "base", "change", "ratio"
    );
    let mut tally = [0usize; 3];
    for workload in contract::names(&contract, "workloads") {
        for metric in contract::names(&contract, "end_to_end") {
            let bound = contract::bound(&contract, &metric).expect("listed metric has a bound");
            let (Some(a), Some(b)) = (
                side(&base, &workload, &metric),
                side(&change, &workload, &metric),
            ) else {
                println!(
                    "{workload:20} {metric:18} {:>12} {:>12} {:>8}  missing",
                    "-", "-", "-"
                );
                continue;
            };
            let v = verdict(a, b, bound);
            tally[v as usize] += 1;
            println!(
                "{workload:20} {metric:18} {:12.4} {:12.4} {:8.3}  {}{}",
                a.value,
                b.value,
                b.value / a.value,
                v.as_str(),
                if v == Verdict::Unresolved {
                    format!(
                        " (ranges {:.4}..{:.4} vs {:.4}..{:.4} wider than the {:.0}% bound)",
                        a.lo,
                        a.hi,
                        b.lo,
                        b.hi,
                        bound.bound * 100.0
                    )
                } else {
                    String::new()
                }
            );
        }
        if let ([a], [b]) = (&base[..], &change[..]) {
            if a.get("seed") == b.get("seed") {
                let (ca, cb) = (exact_counts(a, &workload), exact_counts(b, &workload));
                if ca != cb {
                    println!("{workload:20} exact counts differ: {ca:?} vs {cb:?}");
                    tally[Verdict::Regressed as usize] += 1;
                }
            }
        }
    }
    println!(
        "ok {}, regressed {}, unresolved {} — ratio is change / base; pass several files \
         per side (a.json,b.json,c.json) to resolve metrics whose single-file run range \
         exceeds the bound",
        tally[0], tally[1], tally[2]
    );
    Ok(tally[Verdict::Regressed as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        higher_is_better: false,
        bound: 0.10,
        floor: 0.0,
    };
    const HIGHER: Bound = Bound {
        higher_is_better: true,
        bound: 0.10,
        floor: 0.0,
    };

    fn tight(value: f64) -> Side {
        Side {
            value,
            lo: value * 0.99,
            hi: value * 1.01,
        }
    }

    #[test]
    fn tight_ranges_are_judged_by_the_bound_in_the_metrics_direction() {
        assert_eq!(verdict(tight(100.0), tight(109.0), LOWER), Verdict::Ok);
        assert_eq!(
            verdict(tight(100.0), tight(111.0), LOWER),
            Verdict::Regressed
        );
        assert_eq!(verdict(tight(100.0), tight(50.0), LOWER), Verdict::Ok);
        assert_eq!(verdict(tight(100.0), tight(91.0), HIGHER), Verdict::Ok);
        assert_eq!(
            verdict(tight(100.0), tight(89.0), HIGHER),
            Verdict::Regressed
        );
        assert_eq!(verdict(tight(100.0), tight(200.0), HIGHER), Verdict::Ok);
    }

    #[test]
    fn a_floor_absorbs_small_absolute_moves() {
        let floored = Bound {
            floor: 20.0,
            ..LOWER
        };
        // +15 is over 10% of 100 but under the floor of 20.
        assert_eq!(
            verdict(tight(100.0), tight(115.0), LOWER),
            Verdict::Regressed
        );
        assert_eq!(verdict(tight(100.0), tight(115.0), floored), Verdict::Ok);
        assert_eq!(
            verdict(tight(100.0), tight(125.0), floored),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_overlapping_ranges_are_unresolved_never_unchanged() {
        let wide = Side {
            value: 100.0,
            lo: 80.0,
            hi: 120.0,
        };
        assert_eq!(verdict(wide, tight(100.0), LOWER), Verdict::Unresolved);
        assert_eq!(verdict(tight(100.0), wide, HIGHER), Verdict::Unresolved);
        // Even a large median shift stays unresolved while the runs overlap.
        let shifted = Side {
            value: 125.0,
            lo: 110.0,
            hi: 140.0,
        };
        assert_eq!(verdict(wide, shifted, LOWER), Verdict::Unresolved);
    }

    #[test]
    fn wide_but_disjoint_ranges_resolve_by_separation() {
        let wide = Side {
            value: 100.0,
            lo: 85.0,
            hi: 115.0,
        };
        let far_low = Side {
            value: 50.0,
            lo: 40.0,
            hi: 60.0,
        };
        assert_eq!(verdict(wide, far_low, LOWER), Verdict::Ok);
        assert_eq!(verdict(wide, far_low, HIGHER), Verdict::Regressed);
        assert_eq!(verdict(far_low, wide, LOWER), Verdict::Regressed);
        assert_eq!(verdict(far_low, wide, HIGHER), Verdict::Ok);
    }

    fn file(value: f64, min: f64, max: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads":{{"w":{{"end_to_end":{{"m":{{"value":{value},"min":{min},"max":{max}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn one_file_uses_its_run_range_and_several_use_the_files_values() {
        let one = side(&[file(10.0, 8.0, 13.0)], "w", "m").unwrap();
        assert_eq!((one.value, one.lo, one.hi), (10.0, 8.0, 13.0));
        let files = [
            file(10.0, 1.0, 99.0),
            file(12.0, 1.0, 99.0),
            file(11.0, 1.0, 99.0),
        ];
        let three = side(&files, "w", "m").unwrap();
        assert_eq!((three.value, three.lo, three.hi), (11.0, 10.0, 12.0));
        assert_eq!(side(&files, "w", "absent"), None);
    }
}
