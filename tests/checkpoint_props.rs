//! Property tests for the durable checkpoint codec (`selsync::checkpoint`):
//! `decode(encode(c)) == c` for randomly shaped checkpoints, canonical encoding is a
//! fixed point, floats survive bit-exactly (including non-finite values), the
//! streaming encoder writes the bytes of the `format!`-based one it replaced, and any
//! single-byte corruption of the encoded text is rejected by the checksum.

use proptest::prelude::*;
use selsync_repro::comm::wire;
use selsync_repro::core::checkpoint::{Checkpoint, Section, CHECKPOINT_VERSION};

/// The `format!`-and-`join` encoder `Checkpoint::encode` replaced, kept verbatim as
/// the oracle of its bytes.
fn reference_encode(ckpt: &Checkpoint) -> String {
    let mut out = String::new();
    out.push_str(&format!("selsync-ckpt v{CHECKPOINT_VERSION}\n"));
    out.push_str(&format!("backend {}\n", ckpt.backend));
    out.push_str(&format!("fingerprint {:016x}\n", ckpt.fingerprint));
    out.push_str(&format!("round {}\n", ckpt.round));
    out.push_str(&format!("sections {}\n", ckpt.sections.len()));
    for s in &ckpt.sections {
        out.push_str(&format!(
            "section {} {} {}\n",
            s.name,
            s.ints.len(),
            s.floats.len()
        ));
        let ints: Vec<String> = s.ints.iter().map(|v| v.to_string()).collect();
        out.push_str(&format!("i {}\n", ints.join(" ")));
        let floats: Vec<String> = s
            .floats
            .iter()
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect();
        out.push_str(&format!("f {}\n", floats.join(" ")));
    }
    out.push_str(&format!("trace {}\n", ckpt.trace.len()));
    for line in &ckpt.trace {
        debug_assert!(!line.contains('\n'), "trace lines must be single lines");
        out.push_str(line);
        out.push('\n');
    }
    let sum = wire::checksum(out.as_bytes());
    // Deliberately no trailing newline: the checksum line protects itself.
    out.push_str(&format!("checksum {sum:016x}"));
    out
}

/// Build a checkpoint from primitive draws (the offline proptest shim has no
/// combinators, so composition happens here, deterministically).
fn build_checkpoint(
    backend: bool,
    fingerprint: u64,
    round: usize,
    section_count: usize,
    ints: &[u64],
    floats: &[f32],
    trace_lines: usize,
) -> Checkpoint {
    let mut ckpt = Checkpoint::new(if backend { "sim" } else { "threaded" }, fingerprint, round);
    for s in 0..section_count {
        let mut section = Section::new(format!("section{s}"));
        // Rotate the draw pools so sections carry different, overlapping payloads.
        for (i, &v) in ints.iter().enumerate() {
            if i % section_count.max(1) == s {
                section.push_int(v);
            }
        }
        for (i, &v) in floats.iter().enumerate() {
            if i % section_count.max(1) == s {
                section.push_f32(v);
            }
        }
        section.push_f32s(floats);
        section.push_ints(ints);
        section.push_opt_int((s % 2 == 0).then_some(fingerprint));
        section.push_opt_f32((s % 2 == 1).then(|| floats.first().copied().unwrap_or(0.5)));
        ckpt.add_section(section);
    }
    ckpt.trace = (0..trace_lines)
        .map(|i| format!("{{\"kind\":\"round\",\"round\":{i}}}"))
        .collect();
    ckpt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn checkpoint_round_trip_is_identity(
        backend in 0u8..2,
        fingerprint in 0u64..u64::MAX,
        round in 0usize..10_000,
        section_count in 1usize..6,
        ints in proptest::collection::vec(0u64..u64::MAX, 0..24),
        floats in proptest::collection::vec(-1.0e6f32..1.0e6, 0..24),
        trace_lines in 0usize..12,
    ) {
        let ckpt = build_checkpoint(
            backend == 0, fingerprint, round, section_count, &ints, &floats, trace_lines,
        );
        let text = ckpt.encode();
        let parsed = Checkpoint::decode(&text)
            .unwrap_or_else(|e| panic!("round-trip decode failed: {e}\n---\n{text}"));
        prop_assert_eq!(&ckpt, &parsed);
        // Canonical encoding is a fixed point.
        prop_assert_eq!(text, parsed.encode());
    }

    #[test]
    fn encode_writes_the_reference_encoders_bytes(
        backend in 0u8..2,
        fingerprint in 0u64..u64::MAX,
        round in 0usize..usize::MAX,
        section_count in 0usize..6,
        ints in proptest::collection::vec(0u64..u64::MAX, 0..24),
        float_bits in proptest::collection::vec(0u32..u32::MAX, 0..24),
        trace_lines in 0usize..12,
    ) {
        // Arbitrary bit patterns: every NaN payload, subnormals, ±0 and ±inf.
        let floats: Vec<f32> = float_bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut ckpt = build_checkpoint(
            backend == 0, fingerprint, round, section_count, &ints, &floats, trace_lines,
        );
        // And sections with an empty array, or both.
        ckpt.add_section(Section::new("empty"));
        let mut bare = Section::new("no_floats");
        bare.push_int(u64::MAX);
        ckpt.add_section(bare);
        prop_assert_eq!(ckpt.encode(), reference_encode(&ckpt));
    }

    #[test]
    fn single_byte_corruption_is_rejected(
        fingerprint in 0u64..u64::MAX,
        round in 0usize..10_000,
        ints in proptest::collection::vec(0u64..u64::MAX, 1..16),
        floats in proptest::collection::vec(-1.0e3f32..1.0e3, 1..16),
        position in 0usize..10_000,
        replacement in 0u8..64,
    ) {
        let ckpt = build_checkpoint(true, fingerprint, round, 2, &ints, &floats, 3);
        let text = ckpt.encode();
        let bytes = text.as_bytes();
        let mut pos = position % bytes.len();
        // Never corrupt newlines: replacing one merges lines, which is allowed to
        // fail for structural reasons; keeping the mutation strictly in-line tests
        // the strongest claim (the checksum itself must catch it). Every line is
        // non-empty, so the next byte after a newline is in-line.
        if bytes[pos] == b'\n' {
            pos = (pos + 1) % bytes.len();
        }
        // Substitute one byte with a *different* printable character drawn from a
        // hex-adjacent alphabet, so the mutation stays line-structured but must
        // still trip the trailing FNV-1a checksum (or a stricter parse error).
        let alphabet = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-_";
        let mut replacement = alphabet[replacement as usize % alphabet.len()];
        if replacement == bytes[pos] {
            replacement = if replacement == b'0' { b'1' } else { b'0' };
        }
        let mut corrupted = bytes.to_vec();
        corrupted[pos] = replacement;
        let corrupted = String::from_utf8(corrupted).expect("ascii stays utf8");
        prop_assert!(
            Checkpoint::decode(&corrupted).is_err(),
            "byte {} flipped {:?} -> {:?} must not decode",
            pos,
            bytes[pos] as char,
            replacement as char
        );
    }
}

/// Non-finite and signed-zero floats survive bit-exactly (the codec stores
/// `to_bits` hex words, not decimal renderings).
#[test]
fn non_finite_floats_round_trip_bit_exactly() {
    let mut ckpt = Checkpoint::new("sim", 7, 3);
    let specials = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        f32::MIN_POSITIVE,
        f32::from_bits(0x7fc0_1234), // payload-carrying NaN
    ];
    let mut section = Section::new("specials");
    section.push_f32s(&specials);
    section.push_f64(f64::NAN);
    ckpt.add_section(section);
    let parsed = Checkpoint::decode(&ckpt.encode()).expect("specials decode");
    let mut reader = parsed.read_section("specials");
    let got = reader.f32s();
    assert_eq!(got.len(), specials.len());
    for (a, b) in specials.iter().zip(got.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a} must survive bit-exactly");
    }
    assert_eq!(reader.f64().to_bits(), f64::NAN.to_bits());
    reader.finish();
}

/// Truncations — a missing checksum line, a dropped section, an empty file — are
/// decode errors, never panics.
#[test]
fn truncated_checkpoints_are_rejected() {
    let mut ckpt = Checkpoint::new("sim", 7, 3);
    let mut section = Section::new("s");
    section.push_ints(&[1, 2, 3]);
    ckpt.add_section(section);
    ckpt.trace = vec!["{\"kind\":\"round\",\"round\":0}".into()];
    let text = ckpt.encode();
    assert!(Checkpoint::decode("").is_err());
    for cut in 1..text.len() {
        if text.is_char_boundary(cut) {
            assert!(
                Checkpoint::decode(&text[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }
}
