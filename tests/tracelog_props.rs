//! Property tests for the event-log codec: `decode(encode(log)) == log` and the
//! canonical encoding is a fixed point, for arbitrary event sequences — every event
//! kind, awkward float mantissas, non-finite floats, option fields, empty arrays,
//! and header strings that need escaping. Decoding accepts only canonical lines:
//! whatever decodes re-encodes to itself, and non-canonical mutations are errors.

use proptest::prelude::*;
use selsync_repro::tracelog::codec::{decode_event, encode_event};
use selsync_repro::tracelog::{Event, EventLog, FaultKind, PullKind, WindowEdge, TRACE_VERSION};

/// Header strings are the only free-form text in the format; these candidates cover
/// the escape table (quotes, backslashes, newlines, tabs, control chars, non-ASCII).
const LABELS: &[&str] = &[
    "SelSync(d=0.055,PA)",
    "adaptive(0->0.5,warmup=8,settle=0.05x4,spike=2.5)",
    "quotes \" and \\ backslash",
    "newline\nand\ttab",
    "control\u{1}char",
    "δ-schedule π≈3.14159",
    "",
];

/// Non-finite values are a documented codec deviation (bare `NaN` / `inf` tokens);
/// weave them in alongside ordinary finite draws.
fn pick_f32(raw: f32, selector: u8) -> f32 {
    match selector % 8 {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 0.0,
        4 => -raw,
        _ => raw,
    }
}

/// NaN != NaN, so event equality is checked on the re-encoded line for floats and
/// structurally for everything else. Two events are codec-equal when their canonical
/// lines match byte for byte.
#[allow(clippy::too_many_arguments)]
fn build_event(
    kind: u8,
    round: usize,
    worker: usize,
    raw_a: f32,
    raw_b: f32,
    float_sel: u8,
    bits: u8,
    label_sel: usize,
) -> Event {
    let a = pick_f32(raw_a, float_sel);
    let b = pick_f32(raw_b, float_sel.wrapping_add(3));
    match kind % 7 {
        0 => Event::Header {
            version: TRACE_VERSION,
            algorithm: LABELS[label_sel % LABELS.len()].to_string(),
            policy: LABELS[(label_sel + 1) % LABELS.len()].to_string(),
            workers: worker + 1,
            iterations: round + 1,
            seed: round as u64 ^ 0x5EED,
        },
        1 => Event::Membership {
            round,
            active: (0..worker % 9).collect(),
            joined: if bits & 1 != 0 { vec![worker] } else { vec![] },
            left: if bits & 2 != 0 {
                vec![worker, worker + 1]
            } else {
                vec![]
            },
        },
        2 => Event::FaultWindow {
            round,
            kind: match bits % 3 {
                0 => FaultKind::Slowdown,
                1 => FaultKind::Bandwidth,
                _ => FaultKind::Latency,
            },
            edge: if bits & 4 != 0 {
                WindowEdge::Open
            } else {
                WindowEdge::Close
            },
            worker: (bits & 8 != 0).then_some(worker),
        },
        3 => Event::RejoinPull {
            round,
            worker,
            pull: if bits & 1 != 0 {
                PullKind::Scheduled
            } else {
                PullKind::WallClock
            },
            from: (bits & 2 != 0).then_some(round / 2),
        },
        4 => Event::Signal {
            round,
            mean_loss: a,
            max_delta: b,
        },
        5 => Event::Round {
            round,
            delta: a,
            flags: (0..worker % 9).map(|w| bits >> (w % 8) & 1 != 0).collect(),
            synced: bits & 1 != 0,
        },
        _ => Event::RegimeSwitch {
            round,
            exploit: bits & 1 != 0,
            loss_ewma: a,
            delta_ewma: b,
            mean_loss: pick_f32(raw_a * 0.5, float_sel.wrapping_add(5)),
            max_delta: pick_f32(raw_b * 2.0, float_sel.wrapping_add(6)),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_event_sequences_round_trip_through_the_codec(
        kinds in proptest::collection::vec(0u8..7, 0..24),
        rounds in proptest::collection::vec(0usize..10_000, 24),
        workers in proptest::collection::vec(0usize..32, 24),
        floats_a in proptest::collection::vec(-1.0e6f32..1.0e6, 24),
        floats_b in proptest::collection::vec(1.0e-8f32..1.0, 24),
        float_sels in proptest::collection::vec(0u8..255, 24),
        bits in proptest::collection::vec(0u8..255, 24),
        label_sels in proptest::collection::vec(0usize..64, 24),
    ) {
        let events: Vec<Event> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                build_event(
                    kind, rounds[i], workers[i], floats_a[i], floats_b[i],
                    float_sels[i], bits[i], label_sels[i],
                )
            })
            .collect();
        let log = EventLog { events };

        let text = log.encode();
        let decoded = EventLog::decode(&text)
            .unwrap_or_else(|e| panic!("round-trip decode failed: {e}\n---\n{text}"));
        prop_assert_eq!(decoded.events.len(), log.events.len());
        // Canonical encoding is a fixed point; byte equality of the re-encoded
        // text is the codec's definition of event equality (NaN-safe).
        prop_assert_eq!(&text, &decoded.encode());
        // Structural equality must hold too whenever no NaN is involved.
        for (a, b) in log.events.iter().zip(&decoded.events) {
            let has_nan = selsync_repro::tracelog::codec::encode_event(a).contains("NaN");
            if !has_nan {
                prop_assert_eq!(a, b);
            }
        }
    }
}

/// One event of every kind, with every escape class in the header strings, NaN and
/// ±inf floats, `None` and `Some` options and empty arrays.
fn pinned_events() -> Vec<Event> {
    vec![
        Event::Header {
            version: TRACE_VERSION,
            algorithm: "quotes \" backslash \\ newline\n tab\t return\r".into(),
            policy: "control\u{1}\u{1f} del\u{7f} δ π≈3.14159 ".into(),
            workers: 6,
            iterations: 30,
            seed: u64::MAX,
        },
        Event::Header {
            version: TRACE_VERSION,
            algorithm: String::new(),
            policy: "SelSync(d=0.055,PA)".into(),
            workers: 1,
            iterations: 0,
            seed: 0,
        },
        Event::Membership {
            round: 0,
            active: vec![0, 1, 2, 3],
            joined: vec![0, 1, 2, 3],
            left: vec![],
        },
        Event::Membership {
            round: 7,
            active: vec![],
            joined: vec![],
            left: vec![0, 1, 2, 3],
        },
        Event::FaultWindow {
            round: 3,
            kind: FaultKind::Bandwidth,
            edge: WindowEdge::Open,
            worker: None,
        },
        Event::FaultWindow {
            round: 3,
            kind: FaultKind::Slowdown,
            edge: WindowEdge::Close,
            worker: Some(2),
        },
        Event::FaultWindow {
            round: 4,
            kind: FaultKind::Latency,
            edge: WindowEdge::Open,
            worker: Some(0),
        },
        Event::RejoinPull {
            round: 12,
            worker: 5,
            pull: PullKind::WallClock,
            from: None,
        },
        Event::RejoinPull {
            round: 12,
            worker: 4,
            pull: PullKind::Scheduled,
            from: Some(9),
        },
        Event::Signal {
            round: 4,
            mean_loss: f32::NAN,
            max_delta: f32::INFINITY,
        },
        Event::Signal {
            round: 5,
            mean_loss: 0.1,
            max_delta: f32::NEG_INFINITY,
        },
        Event::Round {
            round: 4,
            delta: 0.055,
            flags: vec![true, false, true],
            synced: true,
        },
        Event::Round {
            round: 5,
            delta: -0.0,
            flags: vec![],
            synced: false,
        },
        Event::RegimeSwitch {
            round: 14,
            exploit: true,
            loss_ewma: 1.234_567_8e-3,
            delta_ewma: f32::MIN_POSITIVE,
            mean_loss: f32::MAX,
            max_delta: 1.0e-45,
        },
        Event::CommRetry {
            round: 9,
            worker: 2,
            attempts: u32::MAX,
        },
        Event::CommRetry {
            round: 9,
            worker: 1,
            attempts: 2,
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
fn trace_lines_are_pinned_across_commits() {
    // The encoded lines of `pinned_events()` as listed, then the canonical log that
    // `EventLog::merge` builds from a shuffled copy split over three shards. The
    // digest was recorded before the codec became one table per event kind: a
    // codec that moves one byte of a line, or a rank that moves one event, fails
    // here.
    let events = pinned_events();
    let mut text = EventLog {
        events: events.clone(),
    }
    .encode();
    let mut shuffled = events;
    shuffled.reverse();
    shuffled.rotate_left(5);
    let shards: Vec<EventLog> = shuffled
        .chunks(7)
        .map(|chunk| EventLog {
            events: chunk.to_vec(),
        })
        .collect();
    text.push_str(&EventLog::merge(shards).encode());
    let got = selsync_repro::comm::wire::checksum(text.as_bytes());
    assert_eq!(got, 0x35CC_7AE2_B8CB_3BB7, "digest {got:#018X}\n{text}");
}

/// One of `pinned_events()` (every kind) when `pick` indexes it, else a
/// `build_event` draw from `raw` (floats from raw bits: subnormals, huge values and
/// NaN payloads included).
fn any_event(pick: usize, raw: &[u64]) -> Event {
    let pinned = pinned_events();
    match pinned.get(pick) {
        Some(event) => event.clone(),
        None => build_event(
            raw[0] as u8,
            raw[1] as usize % 10_000,
            raw[2] as usize % 32,
            f32::from_bits(raw[3] as u32),
            f32::from_bits(raw[4] as u32),
            raw[5] as u8,
            raw[6] as u8,
            raw[7] as usize,
        ),
    }
}

/// Characters a single-character edit of a line draws from: JSON punctuation and
/// the letters and digits of every bare token.
const EDITS: &str = " ,:{}[]\"\\0123456789.-+eEnulfatrsNIix";

/// The line's `"key":value` items, `"k"` first, rendered as the diff shows them.
fn items(event: &Event) -> Vec<String> {
    let mut items = vec![format!("\"k\":\"{}\"", event.kind())];
    items.extend(
        event
            .fields()
            .iter()
            .map(|(key, value)| format!("\"{key}\":{value}")),
    );
    items
}

fn join(items: &[String]) -> String {
    format!("{{{}}}", items.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_line_that_decodes_re_encodes_to_itself(
        pick in 0usize..42,
        raw in proptest::collection::vec(0u64..u64::MAX, 8),
        at in 0usize..1024,
        edit in 0u8..3,
        c in 0usize..EDITS.len(),
    ) {
        let mut line = encode_event(&any_event(pick, &raw));
        let c = EDITS.as_bytes()[c] as char;
        let mut pos = at % (line.len() + 1);
        while !line.is_char_boundary(pos) {
            pos -= 1;
        }
        match line[pos..].chars().next() {
            Some(old) if edit == 1 => line.replace_range(pos..pos + old.len_utf8(), ""),
            Some(old) if edit == 2 => line.replace_range(pos..pos + old.len_utf8(), &c.to_string()),
            _ => line.insert(pos, c),
        }
        if let Ok(back) = decode_event(&line) {
            prop_assert_eq!(encode_event(&back), line);
        }
    }

    #[test]
    fn non_canonical_mutations_of_a_line_fail_to_decode(
        pick in 0usize..42,
        raw in proptest::collection::vec(0u64..u64::MAX, 8),
        i in 0usize..1024,
        j in 0usize..1024,
    ) {
        let event = any_event(pick, &raw);
        let items = items(&event);
        let line = join(&items);
        // The diff's rendering of each field is the bytes on disk.
        prop_assert_eq!(&line, &encode_event(&event));
        prop_assert!(decode_event(&line).is_ok());

        let n = items.len();
        let (i, j) = (i % n, j % (n - 1));
        let j = if j >= i { j + 1 } else { j };
        let mut mutants = Vec::new();
        let mut spaced = items.clone();
        spaced[i] = spaced[i].replacen("\":", "\": ", 1);
        mutants.push(join(&spaced));
        let mut spaced = items.clone();
        spaced[i.max(1)].insert(0, ' ');
        mutants.push(join(&spaced));
        let mut swapped = items.clone();
        swapped.swap(i, j);
        mutants.push(join(&swapped));
        let mut duplicated = items.clone();
        duplicated.insert(i + 1, items[i].clone());
        mutants.push(join(&duplicated));
        let mut extended = items.clone();
        extended.push("\"x\":0".into());
        mutants.push(join(&extended));
        // Only the u32 fields can be widened out of range: a usize or u64 field
        // holds the widened value exactly.
        for (key, value) in event.fields() {
            if key == "version" || key == "attempts" {
                let widened = value.parse::<u64>().unwrap() + (1 << 32);
                let from = format!("\"{key}\":{value}");
                mutants.push(line.replacen(&from, &format!("\"{key}\":{widened}"), 1));
            }
        }
        for mutant in mutants {
            prop_assert!(decode_event(&mutant).is_err(), "decoded {}", mutant);
        }
    }
}
