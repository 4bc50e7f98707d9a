//! The line codec: one event per line, a rigid subset of JSON.
//!
//! The canonical form is deliberately rigid — fixed key order per kind, shortest
//! round-trippable float formatting (`format!("{x}")` on `f32`), no whitespace —
//! so that byte equality of two logs is exactly semantic equality of two runs.
//! Non-finite floats encode as the bare tokens `NaN` / `inf` / `-inf` (a documented
//! deviation from strict JSON; Rust's `f32` parser accepts them back).
//!
//! Both directions walk the taxonomy table in `event.rs`. Decoding is a cursor over
//! the canonical line that reads the same fields in the same order, and a line is
//! accepted only if its event encodes back to the same bytes: whitespace, reordered,
//! duplicated or unknown keys, non-shortest numbers and out-of-range integers are
//! errors, never silently normalised.

use std::fmt::Write;

use crate::event::Event;

/// Encode one event as its canonical line (no trailing newline).
pub fn encode_event(event: &Event) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"k\":\"");
    s.push_str(event.kind());
    s.push('"');
    event.visit_fields(|key, value| {
        s.push_str(",\"");
        s.push_str(key);
        s.push_str("\":");
        value.write(&mut s);
    });
    s.push('}');
    s
}

/// Decode one canonical line back into an event.
pub fn decode_event(line: &str) -> Result<Event, String> {
    let mut cur = Cursor { rest: line };
    cur.eat("{\"k\":")?;
    let event = Event::read_fields(&String::read(&mut cur)?, &mut cur)?;
    let canonical = encode_event(&event);
    if canonical != line {
        return Err(format!(
            "not a canonical line (the canonical form is `{canonical}`)"
        ));
    }
    Ok(event)
}

/// A value with one canonical rendering: written by the encoder, read back at the
/// decoder's cursor.
pub(crate) trait Field {
    fn write(&self, out: &mut String);

    fn read(cur: &mut Cursor) -> Result<Self, String>
    where
        Self: Sized;
}

/// The unread rest of a line.
pub(crate) struct Cursor<'a> {
    rest: &'a str,
}

impl Cursor<'_> {
    /// Consume `prefix` if the rest starts with it.
    fn skip(&mut self, prefix: &str) -> bool {
        match self.rest.strip_prefix(prefix) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    fn eat(&mut self, prefix: &str) -> Result<(), String> {
        if self.skip(prefix) {
            Ok(())
        } else {
            Err(format!("expected `{prefix}`"))
        }
    }

    /// Read `,"key":` and the value after it.
    pub(crate) fn field<T: Field>(&mut self, key: &str) -> Result<T, String> {
        if !(self.skip(",\"") && self.skip(key) && self.skip("\":")) {
            return Err(format!("missing field `{key}`"));
        }
        T::read(self).map_err(|e| format!("field `{key}`: {e}"))
    }

    /// A bare token: everything up to the next `,`, `]` or `}`.
    fn token(&mut self) -> &str {
        let end = self.rest.find([',', ']', '}']).unwrap_or(self.rest.len());
        let (token, rest) = self.rest.split_at(end);
        self.rest = rest;
        token
    }
}

/// Numbers and booleans: `Display` out, `FromStr` back.
macro_rules! token_fields {
    ($($ty:ty),+) => {$(
        impl Field for $ty {
            fn write(&self, out: &mut String) {
                write!(out, "{self}").expect("a String takes every write");
            }

            fn read(cur: &mut Cursor) -> Result<Self, String> {
                let token = cur.token();
                token
                    .parse()
                    .map_err(|_| format!("`{token}` is not a {}", stringify!($ty)))
            }
        }
    )+};
}

token_fields!(bool, u32, u64, usize, f32);

impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(value) => value.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(cur: &mut Cursor) -> Result<Self, String> {
        if cur.skip("null") {
            Ok(None)
        } else {
            T::read(cur).map(Some)
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }

    fn read(cur: &mut Cursor) -> Result<Self, String> {
        cur.eat("[")?;
        let mut items = Vec::new();
        while !cur.skip("]") {
            if !items.is_empty() {
                cur.eat(",")?;
            }
            items.push(T::read(cur)?);
        }
        Ok(items)
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        quote(self, out);
    }

    fn read(cur: &mut Cursor) -> Result<Self, String> {
        cur.eat("\"")?;
        let mut out = String::new();
        let mut chars = cur.rest.char_indices();
        loop {
            let (i, c) = chars.next().ok_or("unterminated string")?;
            out.push(match c {
                '"' => {
                    cur.rest = &cur.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"') => '"',
                    Some('\\') => '\\',
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some('r') => '\r',
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        u32::from_str_radix(&hex, 16)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad escape `\\u{hex}`"))?
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                c => c,
            });
        }
    }
}

/// Append `s` as a JSON string.
pub(crate) fn quote(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("a String takes every write");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventLog, FaultKind, PullKind, WindowEdge, TRACE_VERSION};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Header {
                version: TRACE_VERSION,
                algorithm: "SelSync(d=0.055,PA)".into(),
                policy: "adaptive(0->0.5,warmup=8,settle=0.05x4,spike=2.5)".into(),
                workers: 6,
                iterations: 30,
                seed: 42,
            },
            Event::Membership {
                round: 0,
                active: vec![0, 1, 2, 3, 4, 5],
                joined: vec![0, 1, 2, 3, 4, 5],
                left: vec![],
            },
            Event::FaultWindow {
                round: 3,
                kind: FaultKind::Bandwidth,
                edge: WindowEdge::Open,
                worker: None,
            },
            Event::FaultWindow {
                round: 7,
                kind: FaultKind::Slowdown,
                edge: WindowEdge::Close,
                worker: Some(2),
            },
            Event::RejoinPull {
                round: 12,
                worker: 4,
                pull: PullKind::Scheduled,
                from: Some(9),
            },
            Event::RejoinPull {
                round: 12,
                worker: 5,
                pull: PullKind::WallClock,
                from: None,
            },
            Event::Signal {
                round: 4,
                mean_loss: 1.25,
                max_delta: 0.062_5,
            },
            Event::Round {
                round: 4,
                delta: 0.055,
                flags: vec![true, false, true],
                synced: true,
            },
            Event::RegimeSwitch {
                round: 14,
                exploit: true,
                loss_ewma: 0.731,
                delta_ewma: 0.041,
                mean_loss: 0.729,
                max_delta: 0.038,
            },
            Event::CommRetry {
                round: 9,
                worker: 2,
                attempts: 3,
            },
            Event::CommEvict {
                round: 11,
                worker: 2,
            },
            Event::PsDown { round: 16 },
            Event::PsUp { round: 19 },
            Event::DegradedRound {
                round: 17,
                delta: 0.055,
                loss: 0.912,
                delta_g: 0.033,
            },
            Event::CatchupSync {
                round: 19,
                behind: 3,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips_exactly() {
        for event in sample_events() {
            let line = encode_event(&event);
            let back = decode_event(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(event, back, "{line}");
            // Encoding is a fixed point.
            assert_eq!(line, encode_event(&back));
        }
    }

    #[test]
    fn log_encode_decode_round_trips_with_trailing_newline() {
        let log = EventLog {
            events: sample_events(),
        };
        let text = log.encode();
        assert!(text.ends_with('\n'));
        let back = EventLog::decode(&text).unwrap();
        assert_eq!(log, back);
        assert_eq!(text, back.encode());
    }

    #[test]
    fn floats_use_shortest_form_and_reparse_bit_exactly() {
        // 0.1 has no exact binary form; the awkward mantissa stresses shortest-repr.
        let (a, b) = (0.1f32, 1.234_567_8e-3f32);
        let event = Event::Signal {
            round: 0,
            mean_loss: a,
            max_delta: b,
        };
        let line = encode_event(&event);
        assert!(line.contains("\"mean_loss\":0.1"), "{line}");
        match decode_event(&line).unwrap() {
            Event::Signal {
                mean_loss,
                max_delta,
                ..
            } => {
                assert_eq!(mean_loss.to_bits(), a.to_bits());
                assert_eq!(max_delta.to_bits(), b.to_bits());
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_error_instead_of_guessing() {
        assert!(decode_event("").is_err());
        assert!(decode_event("{}").is_err()); // no kind
        assert!(decode_event("{\"k\":\"nope\"}").is_err());
        assert!(decode_event("{\"k\":\"round\",\"round\":1}").is_err()); // missing fields
        assert!(decode_event(
            "{\"k\":\"round\",\"round\":1,\"delta\":0.1,\"flags\":[true],\"synced\":true} x"
        )
        .is_err());
        assert!(EventLog::decode("{\"k\":\"header\"\n\n").is_err());
    }

    #[test]
    fn non_canonical_lines_are_rejected() {
        // Each line is well-formed JSON naming a real kind, and each would read as
        // an event whose canonical line differs: a version or attempt count past
        // u32, an unknown key, a duplicate key, whitespace with reordered keys, a
        // padded float.
        for line in [
            r#"{"k":"header","version":4294967297,"algorithm":"a","policy":"p","workers":1,"iterations":1,"seed":0}"#,
            r#"{"k":"comm_retry","round":3,"worker":0,"attempts":4294967298}"#,
            r#"{"k":"ps_up","round":3,"junk":[1,2]}"#,
            r#"{"k":"ps_up","round":3,"round":4}"#,
            r#"{ "round" : 3 , "k" : "ps_up" }"#,
            r#"{"k":"signal","round":0,"mean_loss":0.10000,"max_delta":0.5}"#,
        ] {
            assert!(decode_event(line).is_err(), "{line}");
        }
    }

    #[test]
    fn non_finite_floats_survive_the_codec() {
        let event = Event::Signal {
            round: 1,
            mean_loss: f32::NAN,
            max_delta: f32::INFINITY,
        };
        let line = encode_event(&event);
        assert!(line.contains("NaN") && line.contains("inf"), "{line}");
        match decode_event(&line).unwrap() {
            Event::Signal {
                mean_loss,
                max_delta,
                ..
            } => {
                assert!(mean_loss.is_nan());
                assert_eq!(max_delta, f32::INFINITY);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }
}
