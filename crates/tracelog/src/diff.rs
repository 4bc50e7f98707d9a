//! First-divergence diff over two event logs, with a field-level explanation.
//!
//! Because the canonical form is totally ordered, a plain positional walk finds the
//! earliest semantic difference: the first line where the logs disagree is the first
//! *round* where the two runs made a different decision.

use crate::codec::encode_event;
use crate::event::{Event, EventLog};

/// One differing field between two same-kind events.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDiff {
    pub field: &'static str,
    pub left: String,
    pub right: String,
}

/// The first point where two logs disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 0-based line index into the canonical logs.
    pub index: usize,
    /// The round the divergence belongs to (`None` when the header differs).
    pub round: Option<usize>,
    /// The left log's event at `index` (`None` when the left log ended early).
    pub left: Option<Event>,
    /// The right log's event at `index` (`None` when the right log ended early).
    pub right: Option<Event>,
    /// Field-level differences — populated when both events exist and share a kind.
    pub fields: Vec<FieldDiff>,
}

/// Find the first divergence between two logs (`None` when they are identical).
pub fn first_divergence(a: &EventLog, b: &EventLog) -> Option<Divergence> {
    let n = a.events.len().max(b.events.len());
    for index in 0..n {
        let left = a.events.get(index);
        let right = b.events.get(index);
        match (left, right) {
            (Some(l), Some(r)) if l == r => continue,
            _ => {
                let round = left
                    .and_then(|e| e.round())
                    .or_else(|| right.and_then(|e| e.round()));
                let fields = match (left, right) {
                    (Some(l), Some(r)) if l.kind() == r.kind() => l
                        .fields()
                        .into_iter()
                        .zip(r.fields())
                        .filter(|((_, lv), (_, rv))| lv != rv)
                        .map(|((name, lv), (_, rv))| FieldDiff {
                            field: name,
                            left: lv,
                            right: rv,
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                return Some(Divergence {
                    index,
                    round,
                    left: left.cloned(),
                    right: right.cloned(),
                    fields,
                });
            }
        }
    }
    None
}

/// Render a divergence as a human-readable, deterministic explanation.
pub fn explain(d: &Divergence, left_label: &str, right_label: &str) -> String {
    let mut out = String::new();
    match d.round {
        Some(round) => out.push_str(&format!(
            "first divergence at round {round} (line {}): {left_label} vs {right_label}\n",
            d.index + 1
        )),
        None => out.push_str(&format!(
            "first divergence in the header (line {}): {left_label} vs {right_label}\n",
            d.index + 1
        )),
    }
    match (&d.left, &d.right) {
        (Some(l), Some(r)) if l.kind() == r.kind() => {
            out.push_str(&format!("  event kind: {}\n", l.kind()));
            for f in &d.fields {
                out.push_str(&format!(
                    "  field `{}`: {} vs {}\n",
                    f.field, f.left, f.right
                ));
            }
        }
        (Some(l), Some(r)) => {
            out.push_str(&format!(
                "  event kinds differ: {} vs {}\n",
                l.kind(),
                r.kind()
            ));
        }
        (Some(l), None) => {
            out.push_str(&format!(
                "  {right_label} log ends early ({left_label} continues with a {} event)\n",
                l.kind()
            ));
        }
        (None, Some(r)) => {
            out.push_str(&format!(
                "  {left_label} log ends early ({right_label} continues with a {} event)\n",
                r.kind()
            ));
        }
        (None, None) => {}
    }
    if let Some(l) = &d.left {
        out.push_str(&format!("  {left_label:<9}: {}\n", encode_event(l)));
    }
    if let Some(r) = &d.right {
        out.push_str(&format!("  {right_label:<9}: {}\n", encode_event(r)));
    }
    out
}

/// Convenience: diff two logs and render the explanation in one step.
pub fn diff_report(
    a: &EventLog,
    b: &EventLog,
    left_label: &str,
    right_label: &str,
) -> Option<String> {
    first_divergence(a, b).map(|d| explain(&d, left_label, right_label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TRACE_VERSION;

    fn base_log() -> EventLog {
        EventLog {
            events: vec![
                Event::Header {
                    version: TRACE_VERSION,
                    algorithm: "SelSync(d=0.1,PA)".into(),
                    policy: "d=0.1".into(),
                    workers: 2,
                    iterations: 3,
                    seed: 42,
                },
                Event::Round {
                    round: 0,
                    delta: 0.1,
                    flags: vec![true, true],
                    synced: true,
                },
                Event::Round {
                    round: 1,
                    delta: 0.1,
                    flags: vec![false, false],
                    synced: false,
                },
                Event::Round {
                    round: 2,
                    delta: 0.1,
                    flags: vec![false, true],
                    synced: true,
                },
            ],
        }
    }

    #[test]
    fn identical_logs_have_no_divergence() {
        let log = base_log();
        assert_eq!(first_divergence(&log, &log), None);
        assert_eq!(diff_report(&log, &log, "a", "b"), None);
    }

    #[test]
    fn field_level_divergence_pins_the_round_and_the_field() {
        let a = base_log();
        let mut b = base_log();
        b.events[2] = Event::Round {
            round: 1,
            delta: 0.1,
            flags: vec![false, true],
            synced: true,
        };
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.index, 2);
        assert_eq!(d.round, Some(1));
        let fields: Vec<&str> = d.fields.iter().map(|f| f.field).collect();
        assert_eq!(fields, vec!["flags", "synced"]);
        let text = explain(&d, "sim", "threaded");
        assert!(text.contains("first divergence at round 1"), "{text}");
        assert!(text.contains("field `synced`: false vs true"), "{text}");
        assert!(text.contains("sim"), "{text}");
    }

    #[test]
    fn truncated_log_reports_the_early_end() {
        let a = base_log();
        let mut b = base_log();
        b.events.truncate(2);
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.index, 2);
        assert!(d.right.is_none());
        let text = explain(&d, "left", "right");
        assert!(text.contains("right log ends early"), "{text}");
    }

    #[test]
    fn header_divergence_is_reported_as_header_not_round() {
        let a = base_log();
        let mut b = base_log();
        b.events[0] = Event::Header {
            version: TRACE_VERSION,
            algorithm: "SelSync(d=0.1,PA)".into(),
            policy: "d=0.1".into(),
            workers: 2,
            iterations: 3,
            seed: 43,
        };
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.round, None);
        assert_eq!(d.fields.len(), 1);
        assert_eq!(d.fields[0].field, "seed");
        assert!(explain(&d, "a", "b").contains("in the header"));
    }

    #[test]
    fn string_fields_are_explained_as_they_are_on_disk() {
        let a = base_log();
        let mut b = base_log();
        if let Event::Header { policy, .. } = &mut b.events[0] {
            *policy = "d=\"0.2\"".into();
        }
        let text = diff_report(&a, &b, "a", "b").expect("must diverge");
        assert!(
            text.contains(r#"field `policy`: "d=0.1" vs "d=\"0.2\"""#),
            "{text}"
        );
    }
}
