//! Durable, versioned, checksummed training checkpoints.
//!
//! Every SelSync driver writes a checkpoint every `K` rounds when
//! [`crate::config::CheckpointSpec`] is set, capturing everything a resumed run needs
//! to be **byte-identical** to an uninterrupted one. `scenario_run --resume <ckpt>`
//! (and the equivalent library entry points) restore it and continue from the next
//! round.
//!
//! ## Layout
//!
//! This module is the only place that knows what a recovery image holds. All three
//! backends — simulator, threaded driver, process cluster — write the image through
//! [`Checkpoint::assemble`] and read it through the typed accessors, so halted at the
//! same round of the same configuration they write the same bytes apart from the
//! `backend` line, and every driver resumes every tag
//! ([`Checkpoint::check_resumable`]):
//!
//! | section | holds | accessor |
//! |---|---|---|
//! | `ps` | the synchronized global vector, the newest-sync guard, the rejoin snapshot ring | [`Checkpoint::ps_state`] |
//! | `board` | the shared δ-policy's durable state | [`Checkpoint::board_state`] |
//! | `worker<k>` | replica, optimizer and `Δ(g_i)` tracker state, sync rounds, local-step count, last loss | [`Checkpoint::worker_image`] |
//! | trace | the canonically sorted event-log prefix | [`Checkpoint::preload_trace`] |
//!
//! Schedule-pure cursors (data-traversal position, forward counter, presence edges)
//! are in no section: they are recomputed from the configuration and, for the
//! traversal, the worker's own step count ([`crate::replica::Replica::restore`]). The
//! simulator appends one `sim` section of its own ([`crate::sim`]) for what only it
//! measures or draws; cluster drivers never open it.
//!
//! ## Format
//!
//! A line-oriented text file, human-diffable like the event log:
//!
//! ```text
//! selsync-ckpt v3
//! backend sim
//! fingerprint 9f8a7b6c5d4e3f21
//! round 7
//! sections 3
//! section ps 2 12
//! i 1 7
//! f 3f800000 40000000 ...
//! ...
//! trace 9
//! <raw event-log lines>
//! checksum 0123456789abcdef
//! ```
//!
//! Floats are stored as `f32::to_bits` hex words (bit-exact; no decimal rounding),
//! `f64` accumulators as `to_bits` inside the `i` array. The trailing `checksum`
//! line is the wire layer's 64-bit word-parallel checksum
//! ([`selsync_comm::wire::checksum`]) over every preceding byte and carries **no
//! trailing newline**, so any single-byte corruption — including in the checksum
//! line itself — is rejected at decode time. Older formats (v1: FNV-1a-64 trailer and
//! fingerprint; v2: a simulator-only section layout) are refused by version, before
//! anything else is looked at.

use std::fs;
use std::path::Path;

use selsync_comm::ps::{PsState, RingState};
use selsync_comm::wire::{self, FrameBuf};
use selsync_nn::OptimizerState;
use selsync_tracelog::{codec, EventLog, TraceSink};

use crate::config::TrainConfig;
use crate::policy::PolicyState;
use crate::tracker::TrackerState;

/// Format tag in the first line of every checkpoint file. v2: the trailer and
/// the config fingerprint moved from FNV-1a-64 to the word-parallel
/// [`wire::checksum`]. v3: the simulator writes the cluster's section layout.
pub const CHECKPOINT_VERSION: u32 = 3;

/// One named state block: parallel integer/float arrays with a fixed, producer-defined
/// packing (read back with a [`SectionReader`] in the same order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Section {
    /// Section name (no whitespace; unique within a checkpoint).
    pub name: String,
    /// Integer payload (counters, flags, `f64::to_bits` words).
    pub ints: Vec<u64>,
    /// Float payload (parameters, EWMA state, losses).
    pub floats: Vec<f32>,
}

impl Section {
    /// Create an empty section.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(
            !name.is_empty() && !name.contains(char::is_whitespace),
            "section name must be non-empty and whitespace-free"
        );
        Section {
            name,
            ints: Vec::new(),
            floats: Vec::new(),
        }
    }

    /// Append an integer.
    pub fn push_int(&mut self, v: u64) {
        self.ints.push(v);
    }

    /// Append a usize as an integer.
    pub fn push_usize(&mut self, v: usize) {
        self.ints.push(v as u64);
    }

    /// Append a bool as 0/1.
    pub fn push_bool(&mut self, v: bool) {
        self.ints.push(u64::from(v));
    }

    /// Append an `f64` bit-exactly (as its `to_bits` word).
    pub fn push_f64(&mut self, v: f64) {
        self.ints.push(v.to_bits());
    }

    /// Append one float.
    pub fn push_f32(&mut self, v: f32) {
        self.floats.push(v);
    }

    /// Append an optional float as presence flag + value.
    pub fn push_opt_f32(&mut self, v: Option<f32>) {
        self.ints.push(u64::from(v.is_some()));
        self.floats.push(v.unwrap_or(0.0));
    }

    /// Append an optional integer as presence flag + value.
    pub fn push_opt_int(&mut self, v: Option<u64>) {
        self.ints.push(u64::from(v.is_some()));
        self.ints.push(v.unwrap_or(0));
    }

    /// Append a length-prefixed float slice.
    pub fn push_f32s(&mut self, vs: &[f32]) {
        self.ints.push(vs.len() as u64);
        self.floats.extend_from_slice(vs);
    }

    /// Append a length-prefixed integer slice.
    pub fn push_ints(&mut self, vs: &[u64]) {
        self.ints.push(vs.len() as u64);
        self.ints.extend_from_slice(vs);
    }

    /// Append a worker's durable core — parameter replica, optimizer state, `Δ(g_i)`
    /// tracker state — the head of a `worker<k>` section ([`WorkerImage::section`]).
    /// Read back by [`SectionReader::worker_core`].
    pub fn push_worker_core(
        &mut self,
        params: &[f32],
        optimizer: &OptimizerState,
        tracker: &TrackerState,
    ) {
        self.push_f32s(params);
        self.push_int(optimizer.t);
        self.push_usize(optimizer.buffers.len());
        for buffer in &optimizer.buffers {
            self.push_f32s(buffer);
        }
        self.push_f32s(&tracker.ewma_history);
        self.push_opt_f32(tracker.ewma_smoothed);
        self.push_opt_f32(tracker.previous_smoothed);
        self.push_f32(tracker.last_delta);
        self.push_f32(tracker.max_delta);
        self.push_int(tracker.steps);
    }

    /// A cursor reading the section back in write order.
    pub fn reader(&self) -> SectionReader<'_> {
        SectionReader {
            section: self,
            int_pos: 0,
            float_pos: 0,
        }
    }
}

/// A worker's durable core as stored by [`Section::push_worker_core`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerCore {
    /// The worker's parameter replica.
    pub params: Vec<f32>,
    /// Its optimizer's step counter and moment buffers.
    pub optimizer: OptimizerState,
    /// Its `Δ(g_i)` tracker state.
    pub tracker: TrackerState,
}

/// One worker's record in a recovery image: everything of it that cannot be
/// recomputed from the schedule. [`Self::section`] and [`Checkpoint::worker_image`]
/// are the `worker<k>` section's one packer and one parser; a live worker goes through
/// them in [`crate::replica::Replica::section`] / [`crate::replica::Replica::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerImage {
    /// Replica, optimizer and tracker state.
    pub core: WorkerCore,
    /// The rounds at which this worker synchronized.
    pub sync_rounds: Vec<usize>,
    /// The rounds it was present at and stayed local.
    pub local_steps: u64,
    /// The training loss of its most recent step.
    pub last_loss: f32,
}

impl WorkerImage {
    /// Pack as the section `worker<worker>`.
    pub fn section(&self, worker: usize) -> Section {
        let mut section = Section::new(format!("worker{worker}"));
        section.push_worker_core(&self.core.params, &self.core.optimizer, &self.core.tracker);
        let rounds: Vec<u64> = self.sync_rounds.iter().map(|&r| r as u64).collect();
        section.push_ints(&rounds);
        section.push_int(self.local_steps);
        section.push_f32(self.last_loss);
        section
    }
}

/// A process-cluster worker's `worker<k>` section and trace shard, as
/// `op::CKPT_DEPOSIT` ships them to the hub: little-endian `round: u64` and
/// `fingerprint: u64`, then the name, ints, floats and encoded event lines, each
/// array a `u32` count and its items.
#[derive(Debug)]
pub(crate) struct Deposit {
    pub(crate) round: usize,
    pub(crate) fingerprint: u64,
    pub(crate) section: Section,
    pub(crate) shard: EventLog,
}

impl Deposit {
    /// Append the binary form to `frame`'s payload.
    pub(crate) fn put(&self, frame: &mut FrameBuf) {
        // Every count fits: a frame body is at most `MAX_FRAME_BODY_BYTES`.
        let count = |frame: &mut FrameBuf, n: usize| frame.put(&(n as u32).to_le_bytes());
        let Section { name, ints, floats } = &self.section;
        frame.put(&(self.round as u64).to_le_bytes());
        frame.put(&self.fingerprint.to_le_bytes());
        count(frame, name.len());
        frame.put(name.as_bytes());
        count(frame, ints.len());
        ints.iter().for_each(|v| frame.put(&v.to_le_bytes()));
        count(frame, floats.len());
        frame.put_f32s(floats);
        count(frame, self.shard.events.len());
        for line in self.shard.events.iter().map(codec::encode_event) {
            count(frame, line.len());
            frame.put(line.as_bytes());
        }
    }

    /// Parse [`Self::put`]'s bytes. Running short, trailing bytes and a line the
    /// event codec rejects are errors, never panics.
    pub(crate) fn parse(mut bytes: &[u8]) -> Result<Deposit, String> {
        let b = &mut bytes;
        let round = u64::from_le_bytes(word(b)?) as usize;
        let fingerprint = u64::from_le_bytes(word(b)?);
        let name = String::from_utf8(counted(b, 1)?.to_vec()).map_err(|e| e.to_string())?;
        let n = u32::from_le_bytes(word(b)?);
        let ints = (0..n)
            .map(|_| word(b).map(u64::from_le_bytes))
            .collect::<Result<_, _>>()?;
        let floats = wire::f32s_from_le_bytes(counted(b, 4)?);
        let section = Section { name, ints, floats };
        let mut events = Vec::new();
        for i in 0..u32::from_le_bytes(word(b)?) {
            let line = std::str::from_utf8(counted(b, 1)?).map_err(|e| e.to_string());
            let event = line.and_then(codec::decode_event);
            events.push(event.map_err(|e| format!("shard line {i}: {e}"))?);
        }
        if !b.is_empty() {
            return Err(format!("{} bytes after the shard", b.len()));
        }
        Ok(Deposit {
            round,
            fingerprint,
            section,
            shard: EventLog { events },
        })
    }
}

/// Split `len` bytes off the front of `bytes`; running short is an error.
fn take<'a>(bytes: &mut &'a [u8], len: usize) -> Result<&'a [u8], String> {
    let (head, rest) = (bytes.split_at_checked(len))
        .ok_or_else(|| format!("truncated: {len} bytes wanted, {} left", bytes.len()))?;
    *bytes = rest;
    Ok(head)
}

/// One `N`-byte word off the front of `bytes`.
fn word<const N: usize>(bytes: &mut &[u8]) -> Result<[u8; N], String> {
    Ok(take(bytes, N)?.try_into().expect("N bytes"))
}

/// A `u32` count of `width`-byte items off the front of `bytes`, then the items.
fn counted<'a>(bytes: &mut &'a [u8], width: usize) -> Result<&'a [u8], String> {
    let n = u32::from_le_bytes(word(bytes)?) as usize;
    take(bytes, n.saturating_mul(width))
}

/// Cursor over a [`Section`]'s parallel arrays; reads must mirror the write order.
/// Every accessor panics with the section name on underrun — a checkpoint that parses
/// but carries the wrong shape is a programming error, not an I/O condition.
#[derive(Debug)]
pub struct SectionReader<'a> {
    section: &'a Section,
    int_pos: usize,
    float_pos: usize,
}

impl SectionReader<'_> {
    fn next_int(&mut self) -> u64 {
        let v =
            *self.section.ints.get(self.int_pos).unwrap_or_else(|| {
                panic!("checkpoint section '{}': int underrun", self.section.name)
            });
        self.int_pos += 1;
        v
    }

    fn next_float(&mut self) -> f32 {
        let v = *self.section.floats.get(self.float_pos).unwrap_or_else(|| {
            panic!("checkpoint section '{}': float underrun", self.section.name)
        });
        self.float_pos += 1;
        v
    }

    /// Read one integer.
    pub fn int(&mut self) -> u64 {
        self.next_int()
    }

    /// Read one integer as usize.
    pub fn usize(&mut self) -> usize {
        self.next_int() as usize
    }

    /// Read one bool (0/1).
    pub fn bool(&mut self) -> bool {
        self.next_int() != 0
    }

    /// Read one `f64` stored as its bits.
    pub fn f64(&mut self) -> f64 {
        f64::from_bits(self.next_int())
    }

    /// Read one float.
    pub fn f32(&mut self) -> f32 {
        self.next_float()
    }

    /// Read an optional float (flag + value).
    pub fn opt_f32(&mut self) -> Option<f32> {
        let has = self.bool();
        let v = self.next_float();
        has.then_some(v)
    }

    /// Read an optional integer (flag + value).
    pub fn opt_int(&mut self) -> Option<u64> {
        let has = self.bool();
        let v = self.next_int();
        has.then_some(v)
    }

    /// Read a length-prefixed float slice.
    pub fn f32s(&mut self) -> Vec<f32> {
        let n = self.usize();
        (0..n).map(|_| self.next_float()).collect()
    }

    /// Read a length-prefixed integer slice.
    pub fn ints(&mut self) -> Vec<u64> {
        let n = self.usize();
        (0..n).map(|_| self.next_int()).collect()
    }

    /// Read a worker core written by [`Section::push_worker_core`].
    pub fn worker_core(&mut self) -> WorkerCore {
        let params = self.f32s();
        let t = self.int();
        let buffer_count = self.usize();
        let buffers = (0..buffer_count).map(|_| self.f32s()).collect();
        WorkerCore {
            params,
            optimizer: OptimizerState { t, buffers },
            tracker: TrackerState {
                ewma_history: self.f32s(),
                ewma_smoothed: self.opt_f32(),
                previous_smoothed: self.opt_f32(),
                last_delta: self.f32(),
                max_delta: self.f32(),
                steps: self.int(),
            },
        }
    }

    /// Assert the section was consumed exactly (catches producer/consumer drift).
    pub fn finish(self) {
        assert!(
            self.int_pos == self.section.ints.len() && self.float_pos == self.section.floats.len(),
            "checkpoint section '{}': {} ints / {} floats left unread",
            self.section.name,
            self.section.ints.len() - self.int_pos,
            self.section.floats.len() - self.float_pos,
        );
    }
}

/// A complete, decoded checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which driver wrote it (`"sim"` / `"threaded"` / `"process"`); every driver
    /// resumes every one of them ([`Self::check_resumable`]).
    pub backend: String,
    /// [`config_fingerprint`] of the run's configuration; resume refuses a mismatch.
    pub fingerprint: u64,
    /// The completed round the state was captured *after*; resume continues at
    /// `round + 1`.
    pub round: usize,
    /// Named state blocks in write order.
    pub sections: Vec<Section>,
    /// The canonically sorted encoded trace prefix (rounds `0..=round`), preloaded
    /// into the resumed run's sink.
    pub trace: Vec<String>,
}

impl Checkpoint {
    /// Start an empty checkpoint.
    pub fn new(backend: impl Into<String>, fingerprint: u64, round: usize) -> Self {
        let backend = backend.into();
        assert!(
            !backend.is_empty() && !backend.contains(char::is_whitespace),
            "backend tag must be non-empty and whitespace-free"
        );
        Checkpoint {
            backend,
            fingerprint,
            round,
            sections: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Append a section (names must be unique).
    pub fn add_section(&mut self, section: Section) {
        assert!(
            self.section(&section.name).is_none(),
            "duplicate checkpoint section '{}'",
            section.name
        );
        self.sections.push(section);
    }

    /// Look up a section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// A reader over the named section; panics when absent (shape errors are bugs).
    pub fn read_section(&self, name: &str) -> SectionReader<'_> {
        self.section(name)
            .unwrap_or_else(|| panic!("checkpoint is missing section '{name}'"))
            .reader()
    }

    /// Assemble the recovery image of `cfg`'s run after round `round`, tagged
    /// `backend`: the PS state, the shared δ-policy state, `sections` — every
    /// worker's [`WorkerImage::section`] in worker order, then whatever the backend
    /// keeps for itself alone (the simulator's `sim`) — and the canonically sorted
    /// trace prefix. The one image every backend writes.
    pub fn assemble(
        backend: &str,
        cfg: &TrainConfig,
        round: usize,
        ps: &PsState,
        board: &PolicyState,
        sections: impl IntoIterator<Item = Section>,
        trace: &EventLog,
    ) -> Checkpoint {
        let mut image = Checkpoint::new(backend, config_fingerprint(cfg), round);

        let mut section = Section::new("ps");
        section.push_f32s(&ps.global);
        section.push_opt_int(ps.last_global_round);
        section.push_bool(ps.ring.is_some());
        if let Some(ring) = &ps.ring {
            section.push_usize(ring.depth);
            section.push_f32s(&ring.initial);
            section.push_usize(ring.entries.len());
            for (round, mean) in &ring.entries {
                section.push_int(*round);
                section.push_f32s(mean);
            }
            section.push_opt_int(ring.evicted_min);
        }
        image.add_section(section);

        let mut section = Section::new("board");
        section.push_ints(&board.ints);
        section.push_f32s(&board.floats);
        image.add_section(section);

        for section in sections {
            image.add_section(section);
        }
        image.set_trace(trace);
        image
    }

    /// Whether a run of `cfg` can resume from this image: written by one of the
    /// three backends, for this very configuration, with a trace prefix that
    /// decodes. Continuing under a different model / cluster shape / fault
    /// schedule would silently break byte-identity.
    pub fn check_resumable(&self, cfg: &TrainConfig) -> Result<(), String> {
        if !matches!(self.backend.as_str(), "sim" | "threaded" | "process") {
            return Err(format!(
                "checkpoint was written by the unknown {:?} backend \
                 (expected sim, threaded or process)",
                self.backend
            ));
        }
        let expected = config_fingerprint(cfg);
        if self.fingerprint != expected {
            return Err(format!(
                "checkpoint belongs to a different configuration \
                 (fingerprint {:016x}, this run's is {expected:016x})",
                self.fingerprint
            ));
        }
        self.trace_log().map(drop)
    }

    /// The parameter server's state (`ps` section), ready for
    /// [`selsync_comm::ParameterServer::restore_state`].
    pub fn ps_state(&self) -> PsState {
        let mut reader = self.read_section("ps");
        let global = reader.f32s();
        let last_global_round = reader.opt_int();
        let ring = reader.bool().then(|| {
            let depth = reader.usize();
            let initial = reader.f32s();
            let count = reader.usize();
            RingState {
                depth,
                initial,
                entries: (0..count).map(|_| (reader.int(), reader.f32s())).collect(),
                evicted_min: reader.opt_int(),
            }
        });
        reader.finish();
        PsState {
            global,
            last_global_round,
            ring,
        }
    }

    /// The shared δ-policy's durable state (`board` section).
    pub fn board_state(&self) -> PolicyState {
        let mut reader = self.read_section("board");
        let ints = reader.ints();
        let floats = reader.f32s();
        reader.finish();
        PolicyState { ints, floats }
    }

    /// Worker `worker`'s record (`worker<k>` section).
    pub fn worker_image(&self, worker: usize) -> WorkerImage {
        let mut reader = self.read_section(&format!("worker{worker}"));
        let image = WorkerImage {
            core: reader.worker_core(),
            sync_rounds: reader.ints().into_iter().map(|r| r as usize).collect(),
            local_steps: reader.int(),
            last_loss: reader.f32(),
        };
        reader.finish();
        image
    }

    /// Store `log` (canonically sorted) as the image's trace prefix.
    pub fn set_trace(&mut self, log: &EventLog) {
        self.trace = log.events.iter().map(codec::encode_event).collect();
    }

    /// The stored trace prefix, decoded; the error names the first line the event
    /// codec rejects.
    pub fn trace_log(&self) -> Result<EventLog, String> {
        let mut events = Vec::with_capacity(self.trace.len());
        for (i, line) in self.trace.iter().enumerate() {
            let event = codec::decode_event(line);
            events.push(
                event.map_err(|e| format!("checkpoint trace line {i} does not decode: {e}"))?,
            );
        }
        Ok(EventLog { events })
    }

    /// Seed a resumed run's sink with the stored trace prefix (which already holds
    /// the run header, so the resumed run emits none). No-op on a disabled sink.
    /// Panics on a trace line [`Self::check_resumable`] would have refused.
    pub fn preload_trace(&self, sink: &TraceSink) {
        if sink.is_enabled() {
            sink.preload(self.trace_log().unwrap_or_else(|e| panic!("{e}")).events);
        }
    }

    /// Serialize to the versioned text format (see the module docs), streamed into
    /// one buffer sized up front: no per-value allocation.
    pub fn encode(&self) -> String {
        // Upper bounds: 21 bytes per decimal word and its separator, 9 per float.
        let sections: usize = (self.sections.iter())
            .map(|s| 64 + s.name.len() + 21 * s.ints.len() + 9 * s.floats.len())
            .sum();
        let trace: usize = self.trace.iter().map(|line| line.len() + 1).sum();
        let mut out = Vec::with_capacity(192 + self.backend.len() + sections + trace);
        let (backend, fingerprint, round) = (&self.backend, self.fingerprint, self.round);
        let header = format!(
            "selsync-ckpt v{CHECKPOINT_VERSION}\nbackend {backend}\nfingerprint \
             {fingerprint:016x}\nround {round}\nsections {}",
            self.sections.len()
        );
        out.extend_from_slice(header.as_bytes());
        for s in &self.sections {
            out.extend_from_slice(b"\nsection ");
            out.extend_from_slice(s.name.as_bytes());
            out.push(b' ');
            put_decimal(&mut out, s.ints.len() as u64);
            out.push(b' ');
            put_decimal(&mut out, s.floats.len() as u64);
            // Each word follows a space; an empty array still gets the one space
            // after its tag ("i \n").
            out.extend_from_slice(b"\ni");
            for &v in &s.ints {
                out.push(b' ');
                put_decimal(&mut out, v);
            }
            if s.ints.is_empty() {
                out.push(b' ');
            }
            out.extend_from_slice(b"\nf");
            for v in &s.floats {
                out.push(b' ');
                put_hex(&mut out, v.to_bits());
            }
            if s.floats.is_empty() {
                out.push(b' ');
            }
        }
        out.extend_from_slice(format!("\ntrace {}\n", self.trace.len()).as_bytes());
        for line in &self.trace {
            debug_assert!(!line.contains('\n'), "trace lines must be single lines");
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        let sum = wire::checksum(&out);
        // Deliberately no trailing newline: the checksum line protects itself.
        out.extend_from_slice(format!("checksum {sum:016x}").as_bytes());
        String::from_utf8(out).expect("an image is built from UTF-8 pieces")
    }

    /// Parse and verify the text format. Any structural damage or checksum mismatch
    /// is an error — a checkpoint is either bit-perfect or rejected.
    pub fn decode(text: &str) -> Result<Checkpoint, String> {
        // The version gates everything else: another build's checksum function
        // would only ever report a mismatch, which reads as corruption.
        let version = text.lines().next().unwrap_or_default();
        if let Some(v) = version
            .strip_prefix("selsync-ckpt v")
            .and_then(|v| v.parse::<u32>().ok())
        {
            if v != CHECKPOINT_VERSION {
                let age = if v < CHECKPOINT_VERSION {
                    "an older"
                } else {
                    "a newer"
                };
                return Err(format!(
                    "checkpoint: written by {age} build (v{v}), this build reads \
                     v{CHECKPOINT_VERSION}"
                ));
            }
        }
        let last_nl = text
            .rfind('\n')
            .ok_or_else(|| "checkpoint: missing body".to_string())?;
        let (body, last_line) = text.split_at(last_nl + 1);
        let stated = last_line
            .strip_prefix("checksum ")
            .ok_or_else(|| "checkpoint: missing checksum line".to_string())?;
        let stated = u64::from_str_radix(stated.trim(), 16)
            .map_err(|e| format!("checkpoint: bad checksum literal: {e}"))?;
        let actual = wire::checksum(body.as_bytes());
        if stated != actual {
            return Err(format!(
                "checkpoint: checksum mismatch (stated {stated:016x}, computed {actual:016x})"
            ));
        }

        let mut lines = body.lines();
        let mut next = |what: &str| {
            lines
                .next()
                .ok_or_else(|| format!("checkpoint: truncated before {what}"))
        };
        let version = next("version")?;
        if version != format!("selsync-ckpt v{CHECKPOINT_VERSION}") {
            return Err(format!("checkpoint: unsupported version line '{version}'"));
        }
        let backend = next("backend")?
            .strip_prefix("backend ")
            .ok_or_else(|| "checkpoint: missing backend line".to_string())?
            .to_string();
        let fingerprint = next("fingerprint")?
            .strip_prefix("fingerprint ")
            .ok_or_else(|| "checkpoint: missing fingerprint line".to_string())
            .and_then(|h| {
                u64::from_str_radix(h, 16).map_err(|e| format!("checkpoint: bad fingerprint: {e}"))
            })?;
        let round: usize = next("round")?
            .strip_prefix("round ")
            .ok_or_else(|| "checkpoint: missing round line".to_string())
            .and_then(|r| r.parse().map_err(|e| format!("checkpoint: bad round: {e}")))?;
        let n_sections: usize = next("sections")?
            .strip_prefix("sections ")
            .ok_or_else(|| "checkpoint: missing sections line".to_string())
            .and_then(|n| {
                n.parse()
                    .map_err(|e| format!("checkpoint: bad section count: {e}"))
            })?;

        let mut ckpt = Checkpoint::new(
            if backend.is_empty() || backend.contains(char::is_whitespace) {
                return Err("checkpoint: malformed backend tag".to_string());
            } else {
                backend
            },
            fingerprint,
            round,
        );
        for _ in 0..n_sections {
            let header = next("section header")?;
            let mut parts = header
                .strip_prefix("section ")
                .ok_or_else(|| format!("checkpoint: expected section header, got '{header}'"))?
                .split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| "checkpoint: section header missing name".to_string())?
                .to_string();
            let ni: usize = parts
                .next()
                .ok_or_else(|| "checkpoint: section header missing int count".to_string())?
                .parse()
                .map_err(|e| format!("checkpoint: bad int count: {e}"))?;
            let nf: usize = parts
                .next()
                .ok_or_else(|| "checkpoint: section header missing float count".to_string())?
                .parse()
                .map_err(|e| format!("checkpoint: bad float count: {e}"))?;
            if parts.next().is_some() {
                return Err(format!(
                    "checkpoint: trailing junk in section header '{header}'"
                ));
            }
            let int_line = next("int line")?;
            let ints: Vec<u64> = int_line
                .strip_prefix("i")
                .ok_or_else(|| format!("checkpoint: expected int line, got '{int_line}'"))?
                .split_whitespace()
                .map(|v| v.parse().map_err(|e| format!("checkpoint: bad int: {e}")))
                .collect::<Result<_, _>>()?;
            if ints.len() != ni {
                return Err(format!(
                    "checkpoint: section '{name}' declares {ni} ints, found {}",
                    ints.len()
                ));
            }
            let float_line = next("float line")?;
            let floats: Vec<f32> = float_line
                .strip_prefix("f")
                .ok_or_else(|| format!("checkpoint: expected float line, got '{float_line}'"))?
                .split_whitespace()
                .map(|v| {
                    u32::from_str_radix(v, 16)
                        .map(f32::from_bits)
                        .map_err(|e| format!("checkpoint: bad float word: {e}"))
                })
                .collect::<Result<_, _>>()?;
            if floats.len() != nf {
                return Err(format!(
                    "checkpoint: section '{name}' declares {nf} floats, found {}",
                    floats.len()
                ));
            }
            if name.is_empty() || ckpt.section(&name).is_some() {
                return Err(format!(
                    "checkpoint: bad or duplicate section name '{name}'"
                ));
            }
            ckpt.sections.push(Section { name, ints, floats });
        }
        let n_trace: usize = next("trace")?
            .strip_prefix("trace ")
            .ok_or_else(|| "checkpoint: missing trace line".to_string())
            .and_then(|n| {
                n.parse()
                    .map_err(|e| format!("checkpoint: bad trace count: {e}"))
            })?;
        for _ in 0..n_trace {
            ckpt.trace.push(next("trace entry")?.to_string());
        }
        if lines.next().is_some() {
            return Err("checkpoint: trailing data after trace".to_string());
        }
        Ok(ckpt)
    }

    /// Write to `path`, creating parent directories.
    pub fn write_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        fs::write(path, self.encode())
    }

    /// Read and verify the checkpoint at `path`.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Checkpoint, String> {
        let path = path.as_ref();
        let text =
            fs::read_to_string(path).map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
        Checkpoint::decode(&text).map_err(|e| format!("checkpoint {}: {e}", path.display()))
    }
}

/// Append `word` as eight lowercase hex digits (`{word:08x}`).
fn put_hex(out: &mut Vec<u8>, word: u32) {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    out.extend(
        (0..8)
            .rev()
            .map(|k| NIBBLES[(word >> (4 * k)) as usize & 0xf]),
    );
}

/// Append `v` in decimal, the digits laid down back to front in a stack buffer.
fn put_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break out.extend_from_slice(&digits[at..]);
        }
    }
}

/// 64-bit fingerprint ([`wire::checksum`]) of the configuration facets a checkpoint depends on.
///
/// Resume refuses a checkpoint whose fingerprint disagrees with the live config —
/// continuing a run under a different model / cluster shape / fault schedule would
/// silently break the byte-identity guarantee. Timing-model and trace knobs are
/// deliberately excluded (they do not change the training state machine's inputs;
/// the trace sink is per-run anyway).
pub fn config_fingerprint(cfg: &TrainConfig) -> u64 {
    let facets = format!(
        "{:?}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}",
        cfg.model,
        cfg.workers,
        cfg.batch_size,
        cfg.iterations,
        cfg.seed,
        cfg.partition,
        cfg.non_iid_labels_per_worker,
        cfg.algorithm,
        cfg.optimizer,
        cfg.lr,
        cfg.delta_policy,
        cfg.comm_faults,
        cfg.ps_faults,
        cfg.ewma_window,
    );
    let conditions = format!("{:?}", cfg.conditions);
    wire::checksum(format!("{facets}#{conditions}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use selsync_nn::model::ModelKind;
    use selsync_tracelog::Event;

    fn sample() -> Checkpoint {
        let mut ckpt = Checkpoint::new("sim", 0xDEAD_BEEF_0123_4567, 7);
        let mut ps = Section::new("ps");
        ps.push_f32s(&[1.0, -0.5, 3.25e-8, f32::MIN_POSITIVE]);
        ps.push_opt_int(Some(7));
        ckpt.add_section(ps);
        let mut w0 = Section::new("worker0");
        w0.push_usize(42);
        w0.push_f64(1.234_567_890_123_456_7);
        w0.push_opt_f32(None);
        w0.push_bool(true);
        w0.push_ints(&[3, 1, 4, 1, 5]);
        ckpt.add_section(w0);
        ckpt.trace = vec![
            "header\tversion=1".to_string(),
            "round\tround=0 delta=0.1".to_string(),
        ];
        ckpt
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let ckpt = sample();
        let text = ckpt.encode();
        let back = Checkpoint::decode(&text).expect("decode");
        assert_eq!(back, ckpt);
        // Idempotent: re-encoding the decoded value is byte-identical.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn an_image_of_another_format_version_is_refused_by_version_not_by_checksum() {
        // An image as an earlier build wrote it: v2 carried another simulator layout
        // under the same trailer, v1 an FNV-1a trailer that cannot match this build's
        // function. Either way the diagnosis must name the version.
        let v3 = sample().encode();
        for old in [1, 2] {
            let image = v3.replacen("selsync-ckpt v3\n", &format!("selsync-ckpt v{old}\n"), 1);
            assert_eq!(
                Checkpoint::decode(&image).unwrap_err(),
                format!("checkpoint: written by an older build (v{old}), this build reads v3")
            );
        }
        let v4 = v3.replacen("selsync-ckpt v3\n", "selsync-ckpt v4\n", 1);
        assert_eq!(
            Checkpoint::decode(&v4).unwrap_err(),
            "checkpoint: written by a newer build (v4), this build reads v3"
        );
    }

    #[test]
    fn assembled_images_read_back_through_the_typed_accessors() {
        let cfg = TrainConfig::small(ModelKind::ResNetLike, 2);
        let mut ps = PsState::new(vec![0.5, -0.5], Some(2));
        for round in [3u64, 5, 8] {
            ps.record_sync(round, &[round as f32, 1.0]);
        }
        let board = PolicyState {
            ints: vec![7, 1],
            floats: vec![0.25],
        };
        let worker = |loss: f32| WorkerImage {
            core: WorkerCore {
                params: vec![loss, 2.0],
                optimizer: OptimizerState {
                    t: 4,
                    buffers: vec![vec![0.1, 0.2]],
                },
                tracker: TrackerState {
                    ewma_history: vec![1.0, 2.0],
                    ewma_smoothed: Some(1.5),
                    previous_smoothed: None,
                    last_delta: 0.125,
                    max_delta: 0.5,
                    steps: 9,
                },
            },
            sync_rounds: vec![3, 8],
            local_steps: 6,
            last_loss: loss,
        };
        let workers = [worker(1.25), worker(f32::MIN_POSITIVE)];
        let sections = workers.iter().enumerate().map(|(k, w)| w.section(k));
        let image = Checkpoint::assemble(
            "process",
            &cfg,
            8,
            &ps,
            &board,
            sections,
            &EventLog::default(),
        );
        let image = Checkpoint::decode(&image.encode()).expect("decode");
        assert_eq!(image.ps_state(), ps);
        assert_eq!(image.board_state(), board);
        assert_eq!(image.worker_image(0), workers[0]);
        assert_eq!(image.worker_image(1), workers[1]);

        // Resumable by this configuration under any backend's tag — and by nothing else.
        assert_eq!(image.check_resumable(&cfg), Ok(()));
        let mut other = cfg.clone();
        other.seed += 1;
        let err = image.check_resumable(&other).unwrap_err();
        assert!(err.starts_with("checkpoint belongs to a different configuration"));
        let mut deposit = image.clone();
        deposit.backend = "deposit".to_string();
        let err = deposit.check_resumable(&cfg).unwrap_err();
        assert!(err.starts_with("checkpoint was written by the unknown \"deposit\" backend"));
    }

    /// Images touching every token the encoder writes: NaN payloads of both signs,
    /// ±0, ±inf, a subnormal, `u64::MAX`, sections with empty ints, empty floats and
    /// both, zero-padded hex, a multi-line trace with a non-ASCII byte — then the
    /// same without a trace, and one with no sections at all.
    fn every_token() -> [Checkpoint; 3] {
        let mut full = Checkpoint::new("process", 0x0000_00AB_CDEF_0123, 1_234_567);
        let mut specials = Section::new("specials");
        for v in [0, 1, 9, 10, 99, 100, 9_999_999_999, u64::MAX - 1, u64::MAX] {
            specials.push_int(v);
        }
        for bits in [
            0x7FC0_0000u32, // NaN
            0x7FC0_1234,    // NaN with a payload
            0xFFC0_0001,    // negative NaN
            0x7F80_0001,    // signalling NaN
            0x0000_0000,    // +0
            0x8000_0000,    // -0
            0x7F80_0000,    // +inf
            0xFF80_0000,    // -inf
            0x0000_0001,    // smallest subnormal
            0x0080_0000,    // MIN_POSITIVE
            0x3F80_0000,    // 1.0
            0x0000_ABCD,    // leading zero nibbles
        ] {
            specials.push_f32(f32::from_bits(bits));
        }
        full.add_section(specials);
        full.add_section(Section::new("empty"));
        let mut ints_only = Section::new("ints_only");
        ints_only.push_ints(&[7, 0, u64::MAX]);
        full.add_section(ints_only);
        let mut floats_only = Section::new("floats_only");
        floats_only.push_f32(-1.5);
        full.add_section(floats_only);
        full.trace = vec![
            "{\"k\":\"header\",\"v\":1}".to_string(),
            "round\tround=0 delta=0.1".to_string(),
            String::new(),
            "{\"k\":\"label\",\"s\":\"δ≥0\"}".to_string(),
        ];
        let mut untraced = full.clone();
        untraced.trace.clear();
        [full, untraced, Checkpoint::new("sim", 0, 0)]
    }

    #[test]
    fn image_bytes_are_pinned_across_commits() {
        // Digests of the encoded images, recorded at the commit before the
        // streaming encoder replaced the per-value `format!` one: a recovery image
        // that moves one byte fails here, and so would every resume of an old image.
        const GOLDEN: [u64; 3] = [
            0xB8D3_AA8D_4AA4_EC94,
            0x4569_61A1_1AD4_0866,
            0x61DD_CADE_4DD8_56ED,
        ];
        let texts = every_token().map(|image| image.encode());
        let digests = texts.each_ref().map(|text| wire::checksum(text.as_bytes()));
        assert_eq!(digests, GOLDEN, "digests {digests:#018X?}");
        for text in &texts {
            // NaN != NaN, so the round trip is checked on the bytes.
            assert_eq!(&Checkpoint::decode(text).expect("decodes").encode(), text);
        }
    }

    #[test]
    fn deposits_round_trip_and_reject_truncation_and_junk() {
        use selsync_comm::wire::MsgKind;
        let payload = |deposit: &Deposit| {
            let mut frame = FrameBuf::new();
            frame.begin(MsgKind::Rpc, 0, 0);
            deposit.put(&mut frame);
            frame.payload().to_vec()
        };
        let rounds = |n: usize| EventLog {
            events: (0..n)
                .map(|round| Event::Round {
                    round,
                    delta: round as f32 / 7.0,
                    flags: vec![round % 2 == 0, true],
                    synced: round % 3 == 0,
                })
                .collect(),
        };
        let mut odd = Section::new("worker1");
        odd.push_f32s(&[f32::NAN, f32::from_bits(0xFFC0_0001), -0.0, f32::INFINITY]);
        odd.push_f32(f32::NEG_INFINITY);
        odd.push_int(u64::MAX);
        let deposits = [
            (Section::new("worker0"), EventLog::default()),
            (odd.clone(), EventLog::default()),
            (Section::new("worker2"), rounds(3)),
            (odd, rounds(5000)),
        ]
        .map(|(section, shard)| Deposit {
            round: 249,
            fingerprint: u64::MAX - 5,
            section,
            shard,
        });
        let bits = |s: &Section| s.floats.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for deposit in &deposits {
            let bytes = payload(deposit);
            let back = Deposit::parse(&bytes).expect("parses");
            // Floats compared as bits: NaN != NaN.
            assert_eq!(bits(&back.section), bits(&deposit.section));
            assert_eq!((back.round, back.fingerprint), (249, u64::MAX - 5));
            assert_eq!(back.section.name, deposit.section.name);
            assert_eq!(back.section.ints, deposit.section.ints);
            assert_eq!(back.shard, deposit.shard);

            // Every strict prefix is an `Err` (a few cuts for the long shard), and
            // so is a trailing byte.
            let step = (bytes.len() / 200).max(1);
            for cut in (0..bytes.len()).step_by(step).chain([bytes.len() - 1]) {
                assert!(Deposit::parse(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            let mut long = bytes.clone();
            long.push(0);
            assert!(Deposit::parse(&long).is_err());
        }
        // A count that promises more than the payload holds is an `Err` too.
        let mut lying = payload(&deposits[0]);
        lying[16..20].copy_from_slice(&u32::MAX.to_le_bytes()); // the name's length

        assert!(Deposit::parse(&lying).unwrap_err().starts_with("truncated"));
        // A shard line the event codec rejects is named by its index.
        let mut bad = payload(&deposits[2]);
        let at = bad.len() - 1;
        bad[at] = b'!';
        let err = Deposit::parse(&bad).unwrap_err();
        assert!(err.starts_with("shard line 2: "), "{err}");
    }

    #[test]
    fn an_image_whose_trace_does_not_decode_is_not_resumable() {
        let cfg = TrainConfig::small(ModelKind::ResNetLike, 2);
        let mut image = Checkpoint::new("sim", config_fingerprint(&cfg), 3);
        image.set_trace(&EventLog {
            events: vec![Event::PsDown { round: 0 }, Event::PsUp { round: 1 }],
        });
        assert_eq!(image.check_resumable(&cfg), Ok(()));
        image.trace.push("{\"k\":\"no_such_event\"}".to_string());
        image.trace.push("not json".to_string());
        // The checksum still holds: only the event codec can tell.
        let image = Checkpoint::decode(&image.encode()).expect("checksum holds");
        let err = image.check_resumable(&cfg).unwrap_err();
        assert!(
            err.starts_with("checkpoint trace line 2 does not decode: "),
            "{err}"
        );
    }

    #[test]
    fn section_reader_reads_back_in_write_order() {
        let ckpt = sample();
        let mut r = ckpt.read_section("worker0");
        assert_eq!(r.usize(), 42);
        assert_eq!(r.f64(), 1.234_567_890_123_456_7);
        assert_eq!(r.opt_f32(), None);
        assert!(r.bool());
        assert_eq!(r.ints(), vec![3, 1, 4, 1, 5]);
        r.finish();

        let mut r = ckpt.read_section("ps");
        let v = r.f32s();
        assert_eq!(v[3], f32::MIN_POSITIVE);
        assert_eq!(r.opt_int(), Some(7));
        r.finish();
    }

    #[test]
    #[should_panic]
    fn unread_state_is_a_shape_error() {
        let ckpt = sample();
        let r = ckpt.read_section("ps");
        r.finish(); // nothing consumed
    }

    #[test]
    fn non_finite_floats_survive_the_codec() {
        let mut ckpt = Checkpoint::new("threaded", 1, 0);
        let mut s = Section::new("odd");
        s.push_f32(f32::NAN);
        s.push_f32(f32::NEG_INFINITY);
        s.push_f32(-0.0);
        ckpt.add_section(s);
        let back = Checkpoint::decode(&ckpt.encode()).expect("decode");
        let odd = back.section("odd").unwrap();
        assert!(odd.floats[0].is_nan());
        assert_eq!(odd.floats[1], f32::NEG_INFINITY);
        assert_eq!(odd.floats[2].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn every_single_byte_substitution_is_rejected() {
        // Exhaustive over a small checkpoint: flip each byte through a few
        // replacement values and require decode to fail.
        let mut ckpt = Checkpoint::new("sim", 3, 1);
        let mut s = Section::new("a");
        s.push_f32(0.5);
        s.push_int(9);
        ckpt.add_section(s);
        ckpt.trace = vec!["round\tround=0".to_string()];
        let text = ckpt.encode();
        let bytes = text.as_bytes();
        for pos in 0..bytes.len() {
            for repl in [b'0', b'z', b'\n', 0x7f] {
                if bytes[pos] == repl {
                    continue;
                }
                let mut corrupt = bytes.to_vec();
                corrupt[pos] = repl;
                let corrupt = String::from_utf8_lossy(&corrupt).into_owned();
                assert!(
                    Checkpoint::decode(&corrupt).is_err(),
                    "substitution at byte {pos} ({:?} -> {:?}) was accepted",
                    bytes[pos] as char,
                    repl as char
                );
            }
        }
    }

    #[test]
    fn truncation_and_junk_are_rejected() {
        let text = sample().encode();
        for cut in [0, 10, text.len() / 2, text.len() - 1] {
            assert!(Checkpoint::decode(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert!(Checkpoint::decode(&format!("junk\n{text}")).is_err());
        assert!(Checkpoint::decode("").is_err());
    }

    #[test]
    fn file_round_trip_creates_directories() {
        let dir = std::env::temp_dir().join(format!("selsync-ckpt-test-{}", std::process::id()));
        let path = dir.join("nested/ckpt-7");
        let ckpt = sample();
        ckpt.write_file(&path).expect("write");
        let back = Checkpoint::read_file(&path).expect("read");
        assert_eq!(back, ckpt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tracks_training_facets_not_timing() {
        let cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
        let base = config_fingerprint(&cfg);
        assert_eq!(base, config_fingerprint(&cfg.clone()), "deterministic");

        let mut seed = cfg.clone();
        seed.seed += 1;
        assert_ne!(base, config_fingerprint(&seed));

        let mut workers = cfg.clone();
        workers.workers = 8;
        assert_ne!(base, config_fingerprint(&workers));

        let mut faults = cfg.clone();
        faults.ps_faults = Some(selsync_comm::PsFaultSpec {
            seed: 5,
            windows: vec![(3, 2)],
            flaky: 0.0,
        });
        assert_ne!(base, config_fingerprint(&faults));

        // Timing-model knobs do not invalidate checkpoints.
        let mut timing = cfg.clone();
        timing.network.latency_s *= 2.0;
        assert_eq!(base, config_fingerprint(&timing));
    }
}
