//! Serialized, length-prefixed wire messages for the transport layer.
//!
//! Every communication op a worker performs in a round is described by an
//! [`Envelope`]: a message kind, the logical round id, the sender id and an opaque
//! payload. Envelopes encode to a rigid little-endian frame with a length prefix and
//! a trailing checksum, so a receiver can (a) detect truncation, (b) detect
//! corruption without trusting the content, and (c) dedupe replays by the
//! `(kind, round, sender)` identity — the three properties the fault-tolerant
//! message layer in [`crate::transport`] is built on.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! [len: u32]            length of everything after this prefix
//! [kind: u8]            message kind tag
//! [round: u64]          logical round id
//! [sender: u32]         worker id (or HUB_SENDER for acknowledgements)
//! [payload_len: u32]    payload byte count
//! [payload: ...]        opaque op payload
//! [checksum: u64]       [`checksum`] over every preceding byte of the frame
//! ```
//!
//! Two ways in and out of that layout share one implementation: the owned
//! [`Envelope`] (`encode` / `decode`, used by the message layer for its small
//! control frames), and the borrowed pair the socket data plane uses for bulk
//! payloads — [`FrameBuf`] builds an outgoing frame once in a reused buffer,
//! [`EnvelopeRef::parse`] validates an incoming one in place and lends out its
//! payload.

/// Sender id used by the hub (parameter-server side) on response envelopes.
pub const HUB_SENDER: u32 = u32::MAX;

/// Fixed frame overhead in bytes: length prefix + kind + round + sender +
/// payload length + checksum.
pub const FRAME_OVERHEAD_BYTES: usize = 4 + 1 + 8 + 4 + 4 + 8;

/// The kind of operation an envelope describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Pull the global model (initial pull or rejoin pull).
    Pull,
    /// Push local parameters to the PS.
    Push,
    /// A blocking synchronization round (push + averaged pull).
    SyncRound,
    /// The 1-bit sync-status contribution to the flags all-gather.
    Flags,
    /// A scalar contribution to the round-signal all-reduce (loss, Δ(g)).
    ScalarReduce,
    /// A fixed-size vector contribution to the round-signal all-reduce (Δ moments).
    VecReduce,
    /// Hub acknowledgement of a received envelope.
    Ack,
    /// A blocking remote-procedure call to the hub process (socket backend):
    /// the payload carries an op tag plus its arguments, and the hub answers
    /// with an `Rpc` envelope carrying the result.
    Rpc,
}

impl MsgKind {
    /// Wire tag.
    pub fn as_u8(&self) -> u8 {
        match self {
            MsgKind::Pull => 0,
            MsgKind::Push => 1,
            MsgKind::SyncRound => 2,
            MsgKind::Flags => 3,
            MsgKind::ScalarReduce => 4,
            MsgKind::VecReduce => 5,
            MsgKind::Ack => 6,
            MsgKind::Rpc => 7,
        }
    }

    /// Parse a wire tag.
    pub fn from_u8(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => MsgKind::Pull,
            1 => MsgKind::Push,
            2 => MsgKind::SyncRound,
            3 => MsgKind::Flags,
            4 => MsgKind::ScalarReduce,
            5 => MsgKind::VecReduce,
            6 => MsgKind::Ack,
            7 => MsgKind::Rpc,
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

/// Decode failure modes. Corruption anywhere in the frame surfaces as one of these
/// (usually `BadChecksum`); the message layer treats them all as "the leg failed".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the header or the length prefix promises.
    Truncated,
    /// The length prefix disagrees with the actual frame size.
    LengthMismatch { expected: usize, got: usize },
    /// Unknown kind tag.
    UnknownKind(u8),
    /// The trailing checksum does not match the frame content.
    BadChecksum { expected: u64, got: u64 },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::LengthMismatch { expected, got } => {
                write!(f, "length prefix {expected} but frame carries {got}")
            }
            WireError::UnknownKind(tag) => write!(f, "unknown message kind tag {tag}"),
            WireError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: frame says {expected:#x}, computed {got:#x}"
                )
            }
        }
    }
}

/// Identity of an envelope for dedupe purposes: retries and duplicated deliveries of
/// the same logical op share this key, so idempotent handlers process it once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnvelopeId {
    pub kind: MsgKind,
    pub round: u64,
    pub sender: u32,
}

/// One wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    pub kind: MsgKind,
    pub round: u64,
    pub sender: u32,
    pub payload: Vec<u8>,
}

/// Odd multipliers, one per checksum lane (and the first for the serial steps).
const LANE_MUL: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
];
const CHECKSUM_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// One absorb step: xor the input in, multiply by an odd constant, rotate. Each
/// of the three is a bijection of the 64-bit state, so for a fixed state the
/// step is a bijection of the input word (and vice versa); the rotate carries
/// high input bits — which a multiply alone only ever moves upward — back into
/// the low half.
#[inline(always)]
fn absorb(state: u64, word: u64, mul: u64) -> u64 {
    (state ^ word).wrapping_mul(mul).rotate_left(29)
}

/// 64-bit checksum of a byte slice: word-at-a-time multiply-xor over four
/// independent lanes — the frame trailer and the checkpoint image trailer.
///
/// The slice is read as little-endian `u64` words regardless of host
/// endianness or alignment. Whole 32-byte blocks feed four lanes in parallel
/// (a lane step has a multiply on its critical path; four of them keep the
/// multiplier busy), the lanes are xor-folded, then the remaining whole words,
/// the last 1..=7 bytes and finally the length are absorbed serially. Every
/// step is a bijection of the running state for fixed input and of the input
/// for fixed state, and the fold is a bijection of each lane, so two slices of
/// the same length that differ in exactly one word — in particular in exactly
/// one byte — never collide. This is an integrity check against line noise and
/// torn writes, not a MAC.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [
        CHECKSUM_SEED,
        CHECKSUM_SEED.rotate_left(16),
        CHECKSUM_SEED.rotate_left(32),
        CHECKSUM_SEED.rotate_left(48),
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = absorb(*lane, u64_at(block, 8 * i), LANE_MUL[i]);
        }
    }
    let mut h =
        lanes[0] ^ lanes[1].rotate_left(13) ^ lanes[2].rotate_left(26) ^ lanes[3].rotate_left(39);
    let mut words = blocks.remainder().chunks_exact(8);
    for chunk in &mut words {
        h = absorb(h, u64_at(chunk, 0), LANE_MUL[0]);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        // The last 1..=7 bytes as one zero-padded word; the length absorbed
        // next tells the padding from real trailing zeros.
        let last = tail
            .iter()
            .rev()
            .fold(0u64, |word, &b| word << 8 | u64::from(b));
        h = absorb(h, last, LANE_MUL[0]);
    }
    h = absorb(h, bytes.len() as u64, LANE_MUL[1]);
    // Final avalanche (xor-shifts and an odd multiply: still a bijection).
    h ^= h >> 32;
    h = h.wrapping_mul(LANE_MUL[2]);
    h ^ (h >> 29)
}

/// Total frame size for a payload of `payload_len` bytes (the number the cost model
/// charges per (re)transmission).
pub fn frame_len(payload_len: usize) -> usize {
    FRAME_OVERHEAD_BYTES + payload_len
}

/// Byte offset of the payload inside a frame: the length prefix, kind, round,
/// sender and payload length precede it.
const PAYLOAD_AT: usize = 4 + 1 + 8 + 4 + 4;

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte field"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte field"))
}

impl Envelope {
    /// The dedupe identity.
    pub fn id(&self) -> EnvelopeId {
        EnvelopeId {
            kind: self.kind,
            round: self.round,
            sender: self.sender,
        }
    }

    /// Encode to the canonical length-prefixed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = FrameBuf {
            buf: Vec::with_capacity(frame_len(self.payload.len())),
        };
        frame.begin(self.kind, self.round, self.sender);
        frame.put(&self.payload);
        frame.finish();
        frame.buf
    }

    /// Decode a frame, verifying the length prefix and the checksum. Any corruption
    /// fails here — the message layer never hands garbage to a handler.
    pub fn decode(frame: &[u8]) -> Result<Envelope, WireError> {
        let view = EnvelopeRef::parse(frame)?;
        Ok(Envelope {
            kind: view.kind,
            round: view.round,
            sender: view.sender,
            payload: view.payload.to_vec(),
        })
    }
}

/// A validated frame whose payload still lives in the buffer it arrived in —
/// what a receiver of bulk payloads works on, so the only copy it makes is the
/// one into its own representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeRef<'a> {
    pub kind: MsgKind,
    pub round: u64,
    pub sender: u32,
    pub payload: &'a [u8],
}

impl<'a> EnvelopeRef<'a> {
    /// Validate one whole frame — length prefix, checksum, kind tag, payload
    /// length — exactly as [`Envelope::decode`] does, without copying it.
    pub fn parse(frame: &'a [u8]) -> Result<Self, WireError> {
        if frame.len() < FRAME_OVERHEAD_BYTES {
            return Err(WireError::Truncated);
        }
        let body_len = u32_at(frame, 0) as usize;
        if frame.len() != 4 + body_len {
            return Err(WireError::LengthMismatch {
                expected: body_len,
                got: frame.len().saturating_sub(4),
            });
        }
        let sum_offset = frame.len() - 8;
        let got = checksum(&frame[..sum_offset]);
        let expected = u64_at(frame, sum_offset);
        if got != expected {
            return Err(WireError::BadChecksum { expected, got });
        }
        let kind = MsgKind::from_u8(frame[4])?;
        let payload_len = u32_at(frame, 17) as usize;
        if PAYLOAD_AT + payload_len != sum_offset {
            return Err(WireError::LengthMismatch {
                expected: payload_len,
                got: sum_offset - PAYLOAD_AT,
            });
        }
        Ok(EnvelopeRef {
            kind,
            round: u64_at(frame, 5),
            sender: u32_at(frame, 13),
            payload: &frame[PAYLOAD_AT..sum_offset],
        })
    }
}

/// An outgoing frame built in place: [`begin`](FrameBuf::begin) writes the
/// header, the `put*` calls append the payload piece by piece (an op tag, a few
/// scalars, a parameter vector straight from its `&[f32]`),
/// [`finish`](FrameBuf::finish) patches the two length fields and appends the
/// checksum. Keep one per connection: the allocation is reused, so a steady
/// stream of bulk frames costs one pass to lay the bytes down and one to
/// checksum them.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Start a new frame, discarding whatever the buffer held.
    pub fn begin(&mut self, kind: MsgKind, round: u64, sender: u32) {
        // Both length fields stay zero until `finish` knows them.
        let mut header = [0u8; PAYLOAD_AT];
        header[4] = kind.as_u8();
        header[5..13].copy_from_slice(&round.to_le_bytes());
        header[13..17].copy_from_slice(&sender.to_le_bytes());
        self.buf.clear();
        self.buf.extend_from_slice(&header);
    }

    /// Append payload bytes.
    pub fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append `values` to the payload as little-endian words.
    pub fn put_f32s(&mut self, values: &[f32]) {
        self.buf.reserve(4 * values.len());
        self.buf.extend(values.iter().flat_map(|v| v.to_le_bytes()));
    }

    /// The payload appended since [`begin`](FrameBuf::begin) (before
    /// [`finish`](FrameBuf::finish) seals the frame).
    pub fn payload(&self) -> &[u8] {
        &self.buf[PAYLOAD_AT..]
    }

    /// Seal the frame begun last and return it whole, ready to write.
    pub fn finish(&mut self) -> &[u8] {
        assert!(self.buf.len() >= PAYLOAD_AT, "finish without begin");
        let payload_len = self.buf.len() - PAYLOAD_AT;
        let body_len = u32::try_from(self.buf.len() - 4 + 8)
            .ok()
            .filter(|&n| n as usize <= MAX_FRAME_BODY_BYTES)
            .expect("frame body exceeds MAX_FRAME_BODY_BYTES");
        self.buf[0..4].copy_from_slice(&body_len.to_le_bytes());
        self.buf[17..21].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        &self.buf
    }
}

/// Decode a little-endian `f32` payload into a fresh vector.
///
/// # Panics
/// If the byte count is not a multiple of four.
pub fn f32s_from_le_bytes(bytes: &[u8]) -> Vec<f32> {
    let mut values = Vec::new();
    f32s_from_le_bytes_into(bytes, &mut values);
    values
}

/// Decode a little-endian `f32` payload over the contents of `values`, reusing its
/// allocation when it is large enough (the bulk path's recycled buffers).
///
/// # Panics
/// If the byte count is not a multiple of four.
pub fn f32s_from_le_bytes_into(bytes: &[u8], values: &mut Vec<f32>) {
    assert!(bytes.len().is_multiple_of(4), "f32 payload length");
    values.clear();
    values.extend(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
    );
}

/// Upper bound on a single frame's body length. Byte-stream corruption of the
/// length prefix must not make the decoder buffer gigabytes waiting for a frame
/// that will never complete; the largest legitimate frame is a full parameter
/// vector, orders of magnitude below this.
pub const MAX_FRAME_BODY_BYTES: usize = 1 << 30;

/// How much room [`FrameDecoder::read_from`] offers the stream when it does not
/// yet know the size of the frame in flight.
const READ_CHUNK_BYTES: usize = 64 * 1024;

/// Incremental frame decoder for byte streams (TCP/UDS), where a single `read`
/// may return part of a frame or several coalesced frames. Feed arbitrary
/// chunks with [`push`](FrameDecoder::push) — or let the decoder read the
/// stream itself with [`read_from`](FrameDecoder::read_from), straight into
/// its reassembly buffer — and drain complete raw frames with
/// [`next_frame`](FrameDecoder::next_frame) (owned) or
/// [`next_frame_ref`](FrameDecoder::next_frame_ref) (borrowed); frame
/// *content* is still validated by [`Envelope::decode`] /
/// [`EnvelopeRef::parse`] — this type only reassembles the length-prefixed
/// framing.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Backing store, initialized throughout; it only ever grows, so steady
    /// state neither allocates nor zero-fills.
    buf: Vec<u8>,
    /// `buf[start..end]` holds the bytes received and not yet handed out.
    start: usize,
    end: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append bytes read from the stream, in arrival order.
    pub fn push(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` from `stream` directly into the reassembly buffer: room for
    /// the rest of the frame in flight when its length prefix has arrived (a
    /// bulk frame lands in as few reads as the kernel allows), a fixed chunk
    /// otherwise. Returns the byte count; 0 is end of stream.
    pub fn read_from(
        &mut self,
        stream: &mut (impl std::io::Read + ?Sized),
    ) -> std::io::Result<usize> {
        let avail = self.end - self.start;
        let missing = match self.body_len() {
            Some(body_len) if body_len <= MAX_FRAME_BODY_BYTES => {
                (4 + body_len).saturating_sub(avail)
            }
            _ => 0,
        };
        self.make_room(missing.max(READ_CHUNK_BYTES));
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Pop the next complete frame (length prefix included), `Ok(None)` if the
    /// buffered bytes do not yet form one, or an error if the length prefix is
    /// implausibly large (a corrupted stream that would otherwise buffer
    /// forever).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(self.next_frame_ref()?.map(<[u8]>::to_vec))
    }

    /// [`next_frame`](FrameDecoder::next_frame) without the copy: the frame is
    /// lent out of the reassembly buffer until the decoder is next touched.
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, WireError> {
        let Some(len) = self.complete_frame_len()? else {
            return Ok(None);
        };
        let frame = &self.buf[self.start..self.start + len];
        self.start += len;
        Ok(Some(frame))
    }

    /// Whether [`next_frame`](FrameDecoder::next_frame) would yield a frame now.
    pub fn has_frame(&self) -> Result<bool, WireError> {
        Ok(self.complete_frame_len()?.is_some())
    }

    /// Total length of the frame at the head of the buffer, if all of it has
    /// arrived.
    fn complete_frame_len(&self) -> Result<Option<usize>, WireError> {
        let avail = self.end - self.start;
        match self.body_len() {
            Some(body_len) if body_len > MAX_FRAME_BODY_BYTES => Err(WireError::LengthMismatch {
                expected: body_len,
                got: avail - 4,
            }),
            Some(body_len) if avail >= 4 + body_len => Ok(Some(4 + body_len)),
            _ => Ok(None),
        }
    }

    /// Bytes buffered but not yet consumed as a complete frame — nonzero after
    /// EOF means the stream ended mid-frame (a truncated tail).
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// The length prefix of the frame at the head of the buffer, once all four
    /// of its bytes have arrived.
    fn body_len(&self) -> Option<usize> {
        (self.end - self.start >= 4).then(|| u32_at(&self.buf, self.start) as usize)
    }

    /// Ensure `extra` writable bytes after `end`: reuse the space of frames
    /// already handed out before growing.
    fn make_room(&mut self, extra: usize) {
        if self.buf.len() - self.end >= extra {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() - self.end < extra {
            self.buf.resize(self.end + extra, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Envelope {
        Envelope {
            kind: MsgKind::Flags,
            round: 17,
            sender: 3,
            payload: vec![1],
        }
    }

    #[test]
    fn every_kind_round_trips_through_the_tag() {
        for kind in [
            MsgKind::Pull,
            MsgKind::Push,
            MsgKind::SyncRound,
            MsgKind::Flags,
            MsgKind::ScalarReduce,
            MsgKind::VecReduce,
            MsgKind::Ack,
            MsgKind::Rpc,
        ] {
            assert_eq!(MsgKind::from_u8(kind.as_u8()), Ok(kind));
        }
        assert_eq!(MsgKind::from_u8(9), Err(WireError::UnknownKind(9)));
    }

    #[test]
    fn encode_decode_round_trips() {
        let env = sample();
        let frame = env.encode();
        assert_eq!(frame.len(), frame_len(env.payload.len()));
        assert_eq!(Envelope::decode(&frame), Ok(env));
    }

    #[test]
    fn empty_payload_round_trips() {
        let env = Envelope {
            kind: MsgKind::Ack,
            round: 0,
            sender: HUB_SENDER,
            payload: vec![],
        };
        assert_eq!(Envelope::decode(&env.encode()), Ok(env));
    }

    #[test]
    fn any_single_byte_corruption_is_rejected() {
        let frame = sample().encode();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xFF;
            assert!(
                Envelope::decode(&bad).is_err(),
                "flipping byte {i} must not decode cleanly"
            );
        }
    }

    #[test]
    fn truncation_and_length_lies_are_rejected() {
        let frame = sample().encode();
        assert_eq!(Envelope::decode(&frame[..5]), Err(WireError::Truncated));
        assert!(matches!(
            Envelope::decode(&frame[..frame.len() - 1]),
            Err(WireError::LengthMismatch { .. })
        ));
        let mut padded = frame.clone();
        padded.push(0);
        assert!(matches!(
            Envelope::decode(&padded),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn decoder_reassembles_frames_fed_one_byte_at_a_time() {
        let envs = vec![
            sample(),
            Envelope {
                kind: MsgKind::Ack,
                round: 18,
                sender: HUB_SENDER,
                payload: vec![],
            },
            Envelope {
                kind: MsgKind::Rpc,
                round: 19,
                sender: 2,
                payload: (0u8..37).collect(),
            },
        ];
        let stream: Vec<u8> = envs.iter().flat_map(|e| e.encode()).collect();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for &b in &stream {
            dec.push(&[b]);
            while let Some(frame) = dec.next_frame().unwrap() {
                out.push(Envelope::decode(&frame).unwrap());
            }
        }
        assert_eq!(out, envs);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn decoder_handles_arbitrary_split_points_and_coalesced_reads() {
        let envs: Vec<Envelope> = (0..5)
            .map(|i| Envelope {
                kind: MsgKind::Flags,
                round: i,
                sender: i as u32,
                payload: vec![i as u8; i as usize * 3],
            })
            .collect();
        let stream: Vec<u8> = envs.iter().flat_map(|e| e.encode()).collect();
        // Try every single split point of the whole multi-frame stream: the
        // two chunks cover "partial frame then the rest" and "several frames
        // coalesced into one read" at once.
        for split in 0..=stream.len() {
            let mut dec = FrameDecoder::new();
            let mut out = Vec::new();
            for chunk in [&stream[..split], &stream[split..]] {
                dec.push(chunk);
                while let Some(frame) = dec.next_frame().unwrap() {
                    out.push(Envelope::decode(&frame).unwrap());
                }
            }
            assert_eq!(out, envs, "split at byte {split}");
            assert_eq!(dec.pending(), 0, "split at byte {split}");
        }
    }

    #[test]
    fn decoder_reports_truncated_tails_as_pending_bytes() {
        let frame = sample().encode();
        let mut dec = FrameDecoder::new();
        dec.push(&frame[..frame.len() - 1]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), frame.len() - 1);
    }

    #[test]
    fn decoder_rejects_implausible_length_prefixes() {
        let mut dec = FrameDecoder::new();
        dec.push(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    /// A buffer with no byte pattern a lane stride or a word could hide behind.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn checksum_detects_every_single_byte_change_at_every_offset_and_length() {
        // 0..=160 crosses every boundary of the layout: the 8-byte words, the
        // 32-byte four-lane blocks, the serial word tail and the byte tail.
        for len in 0..=160usize {
            let clean = patterned(len);
            let sum = checksum(&clean);
            for at in 0..len {
                let mut bad = clean.clone();
                for mask in 1..=255u8 {
                    bad[at] = clean[at] ^ mask;
                    assert_ne!(checksum(&bad), sum, "len {len}, byte {at}, mask {mask:#x}");
                }
            }
        }
    }

    #[test]
    fn checksum_depends_on_the_length_not_just_the_bytes() {
        for len in 0..=72usize {
            let mut bytes = patterned(len);
            let sum = checksum(&bytes);
            // Trailing zeros are the bytes a zero-padded tail word could lose.
            bytes.extend_from_slice(&[0; 33]);
            for extra in 1..=33 {
                assert_ne!(
                    checksum(&bytes[..len + extra]),
                    sum,
                    "{len} + {extra} zeros"
                );
            }
        }
        let zeros = [0u8; 96];
        let sums: std::collections::HashSet<u64> =
            (0..=96).map(|len| checksum(&zeros[..len])).collect();
        assert_eq!(sums.len(), 97, "all-zero buffers of different lengths");
    }

    #[test]
    fn checksum_does_not_depend_on_where_the_slice_sits_in_memory() {
        let bytes = patterned(131);
        let sum = checksum(&bytes);
        let mut arena = vec![0xA5u8; bytes.len() + 16];
        for shift in 0..16 {
            arena[shift..shift + bytes.len()].copy_from_slice(&bytes);
            assert_eq!(
                checksum(&arena[shift..shift + bytes.len()]),
                sum,
                "shift {shift}"
            );
        }
    }

    #[test]
    fn frame_buf_pieces_build_the_frame_envelope_encode_does() {
        let values = [1.5f32, -0.0, f32::NAN, f32::MIN_POSITIVE / 2.0];
        let mut payload = vec![4u8, 2, 0, 0, 0];
        payload.extend(values.iter().flat_map(|v| v.to_le_bytes()));
        let mut frame = FrameBuf::new();
        // Twice: the second frame must not see the first one's bytes.
        for round in [8u64, 9] {
            frame.begin(MsgKind::Rpc, round, 3);
            frame.put(&[4]);
            frame.put(&2u32.to_le_bytes());
            frame.put_f32s(&values);
            assert_eq!(frame.payload(), &payload[..]);
            let whole = Envelope {
                kind: MsgKind::Rpc,
                round,
                sender: 3,
                payload: payload.clone(),
            };
            let sealed = frame.finish();
            assert_eq!(sealed, &whole.encode()[..]);
            let view = EnvelopeRef::parse(sealed).expect("own frame parses");
            assert_eq!(
                (view.kind, view.round, view.sender),
                (MsgKind::Rpc, round, 3)
            );
            let back = f32s_from_le_bytes(&view.payload[5..]);
            let bits = |vs: &[f32]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&values));
        }
    }

    #[test]
    fn decoder_reads_a_stream_directly_and_lends_frames_without_copying() {
        let envs: Vec<Envelope> = [0usize, 5, 70_000]
            .iter()
            .map(|&len| Envelope {
                kind: MsgKind::Rpc,
                round: len as u64,
                sender: 1,
                payload: patterned(len),
            })
            .collect();
        let stream: Vec<u8> = envs.iter().flat_map(|e| e.encode()).collect();
        let mut source = &stream[..];
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        loop {
            while let Some(frame) = dec.next_frame_ref().unwrap() {
                got.push(Envelope::decode(frame).unwrap());
            }
            assert!(!dec.has_frame().unwrap());
            if dec.read_from(&mut source).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(got, envs);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn dedupe_id_ignores_payload() {
        let a = sample();
        let mut b = sample();
        b.payload = vec![9, 9, 9];
        assert_eq!(a.id(), b.id());
        let mut c = sample();
        c.round += 1;
        assert_ne!(a.id(), c.id());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_envelopes_round_trip_exactly(
            kind_tag in 0u8..8,
            round in 0u64..u64::MAX,
            sender in 0u32..u32::MAX,
            payload in proptest::collection::vec(0u8..255, 0..64),
        ) {
            let env = Envelope {
                kind: MsgKind::from_u8(kind_tag).unwrap(),
                round,
                sender,
                payload,
            };
            let frame = env.encode();
            prop_assert_eq!(frame.len(), frame_len(env.payload.len()));
            prop_assert_eq!(Envelope::decode(&frame), Ok(env));
        }

        #[test]
        fn checksum_rejects_any_single_bit_flip(
            bytes in proptest::collection::vec(0u8..255, 1..4096),
            at in 0usize..usize::MAX,
            bit in 0u32..8,
        ) {
            let mut bad = bytes.clone();
            bad[at % bytes.len()] ^= 1 << bit;
            prop_assert!(checksum(&bad) != checksum(&bytes));
        }

        // The incremental decoder must agree with the one-shot codec on any
        // frame sequence chopped at any points: same envelope stream out, and
        // a truncated tail is never silently swallowed.
        #[test]
        fn incremental_decoder_matches_one_shot_codec_under_any_chunking(
            tags in proptest::collection::vec(0u8..8, 1..8),
            rounds in proptest::collection::vec(0u64..1000, 1..8),
            senders in proptest::collection::vec(0u32..64, 1..8),
            pool in proptest::collection::vec(0u8..255, 0..64),
            payload_lens in proptest::collection::vec(0usize..48, 1..8),
            cuts in proptest::collection::vec(0usize..usize::MAX, 0..12),
            truncate in 0usize..8,
        ) {
            // Parallel draws stand in for a vec-of-structs strategy; fields
            // beyond the first are indexed cyclically.
            let envs: Vec<Envelope> = (0..tags.len())
                .map(|i| {
                    let len = payload_lens[i % payload_lens.len()].min(pool.len());
                    Envelope {
                        kind: MsgKind::from_u8(tags[i]).unwrap(),
                        round: rounds[i % rounds.len()],
                        sender: senders[i % senders.len()],
                        payload: pool[..len].to_vec(),
                    }
                })
                .collect();
            let mut stream: Vec<u8> = envs.iter().flat_map(|e| e.encode()).collect();
            let dropped = truncate.min(stream.len());
            stream.truncate(stream.len() - dropped);
            let expected: Vec<Envelope> = {
                // One-shot reference: walk whole frames off the byte string.
                let mut out = Vec::new();
                let mut rest = &stream[..];
                while rest.len() >= 4 {
                    let body = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
                    if rest.len() < 4 + body {
                        break;
                    }
                    out.push(Envelope::decode(&rest[..4 + body]).unwrap());
                    rest = &rest[4 + body..];
                }
                out
            };
            // Chop the stream at the drawn cut points (mapped into range).
            let mut points: Vec<usize> =
                cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
            points.push(stream.len());
            points.sort_unstable();
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut start = 0;
            for &end in &points {
                dec.push(&stream[start..end]);
                start = end;
                while let Some(frame) = dec.next_frame().unwrap() {
                    got.push(Envelope::decode(&frame).unwrap());
                }
            }
            prop_assert_eq!(&got, &expected);
            // Whatever the one-shot walk left over is exactly what the
            // incremental decoder reports as a truncated tail.
            let consumed: usize = expected.iter().map(|e| frame_len(e.payload.len())).sum();
            prop_assert_eq!(dec.pending(), stream.len() - consumed);
        }
    }
}
