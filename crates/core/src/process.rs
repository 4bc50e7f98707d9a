//! Process-per-worker driver over the socket transport — the third backend, closing
//! the simulator → threads → processes ladder.
//!
//! The cluster is a star of OS processes: one **hub** ([`run_process_hub`]) owns the
//! parameter server, the round rendezvous and the shared δ-policy board — the same
//! `ClusterCore` the threaded driver builds; each **worker**
//! ([`run_process_worker`]) runs `crate::worker::run_group` over a replica group of
//! one and reaches the hub over one [`selsync_comm::socket`] connection (UDS by
//! default, TCP by address). The `scenario_cluster` bench binary is the orchestrator:
//! it spawns the processes, collects each one's trace shard and merges them with
//! [`selsync_tracelog::EventLog::merge`].
//!
//! A worker runs the threaded driver's link, `crate::worker::WorkerLink`, over a
//! different reach. Each op's control-plane envelope rides the message layer over
//! the [`SocketTransport`](selsync_comm::SocketTransport) (its legs ride ahead of the
//! next RPC and the hub echoes them verbatim, so retry, dedupe and eviction semantics
//! — and the [`crate::config::TrainConfig::comm_faults`] weather composed *over* the
//! socket — are bit-identical to the in-memory transports). The op itself is encoded
//! from the one op table below into one blocking RPC ([`selsync_comm::HubClient`]);
//! the hub's [`RpcService`] decodes it and hands it to `ClusterCore::serve`, the very
//! call a worker thread makes in-process. A fault-free local round after the first is
//! one call, `op::STATUS`: its reply carries the next round's δ once the all-gather
//! has observed the round, and releases the next round's membership barrier once
//! every worker the base schedule expects there announced it in the all-gather.
//! Worker-order folds, round-keyed rendezvous
//! and the board's round-ordered observation stream are all hub-side, so the merged
//! event log is the threaded driver's — and the simulator's — byte for byte
//! (`tests/process_parity.rs`).
//!
//! Each process records its own trace shard: the hub owns the header and the policy's
//! regime switches, the lowest-ranked present worker owns a round's structural events,
//! and each worker owns its own retry/eviction/rejoin events — every canonical event is
//! emitted by exactly one process, so the sorted concatenation of shards is the
//! single-process log.
//!
//! **Durable checkpoints.** At every due round each live worker ships its recovery
//! section and trace-shard prefix to the hub as a binary Rpc deposit
//! (`op::CKPT_DEPOSIT`, [`crate::checkpoint`]'s `Deposit` codec) and parks; once every
//! deposit is in, the hub writes the image through `ClusterCore::write_image` — the
//! function the threaded driver writes its own with — under the configured `keep`
//! rotation, and releases the cluster. Every backend writes the one layout of
//! [`crate::checkpoint`], so the hub and its workers resume an image of any tag.
//!
//! **Worker death.** A connection that terminates after identification — clean EOF,
//! broken pipe, or a request the hub refuses (one that fails to decode or a ledger
//! check) — is mapped by the hub to a deterministic eviction at the dead worker's next
//! scheduled-present round, published to the survivors through the round's membership
//! barrier: every present worker of a round folds the identical frozen eviction
//! prefix, so the surviving cluster continues exactly as if the schedule had carried a
//! no-rejoin crash at that round. A worker announces its next round inside `STATUS`
//! only if it will run it, never when its kill switch fires there, so the survivors of
//! a planned kill wait in `op::ROUND_BEGIN` for the connection to close, and so does
//! every later round the base schedule expects the dead worker at: no one announces
//! such a round for it. Out of contract: a death after the worker announced a round —
//! mid-round, or between rounds once `STATUS` announced the next (in-flight
//! rendezvous may hang) — the death of a round's sole present worker, and a death
//! racing an in-flight checkpoint (that image is voided, not written).
//!
//! [`ensure_supported`] reports what the cluster backends cannot run as a structured
//! [`UnsupportedConfig`], so orchestrators print a one-line diagnosis instead of an
//! opaque child panic: algorithms other than SelSync and BSP, gradient aggregation,
//! and data-injection over non-IID shards (the injection draw consumes the simulator's
//! cluster RNG, which has no cross-process counterpart).

use crate::aggregation::AggregationMode;
use crate::checkpoint::{self, Checkpoint, Deposit};
use crate::conditions::ClusterConditions;
use crate::config::{AlgorithmSpec, TrainConfig};
use crate::policy::{run_policy_spec, PolicySpec, SyncRule};
use crate::sim::Simulator;
use crate::threaded::{ClusterCore, Served, Status, StatusFields, ThreadedWorkerReport};
use crate::worker::{message_layer, run_worker, Reach, WorkerLink};
use parking_lot::{Condvar, Mutex};
use selsync_comm::socket::{HubClient, HubServer, RpcService, SocketAddrSpec, SocketConn};
use selsync_comm::wire::{f32s_from_le_bytes_into, FrameBuf, MsgKind, HUB_SENDER};
use selsync_tracelog::EventLog;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// How long a worker keeps retrying its initial connect while the hub binds.
pub const CONNECT_RETRY: Duration = Duration::from_secs(30);

/// A little-endian wire field of an op's request or reply. `take` reads one off the
/// front of `bytes`; running short, like any other malformed field, is an error.
trait Field<'a>: Sized {
    fn put(&self, frame: &mut FrameBuf);
    fn take(bytes: &mut &'a [u8]) -> Result<Self, String>;
}

macro_rules! le_fields {
    ($($t:ty),+) => {$(
        impl Field<'_> for $t {
            fn put(&self, frame: &mut FrameBuf) {
                frame.put(&self.to_le_bytes());
            }

            fn take(bytes: &mut &[u8]) -> Result<Self, String> {
                let (word, rest) = bytes.split_first_chunk().ok_or("truncated")?;
                *bytes = rest;
                Ok(<$t>::from_le_bytes(*word))
            }
        }
    )+};
}

le_fields!(u8, u32, u64, f32);

/// One byte, 0 or 1.
impl Field<'_> for bool {
    fn put(&self, frame: &mut FrameBuf) {
        u8::from(*self).put(frame);
    }

    fn take(bytes: &mut &[u8]) -> Result<Self, String> {
        match u8::take(bytes)? {
            flag @ (0 | 1) => Ok(flag == 1),
            other => Err(format!("flag byte {other}")),
        }
    }
}

/// A presence flag, then the value when present.
impl<'a, T: Field<'a>> Field<'a> for Option<T> {
    fn put(&self, frame: &mut FrameBuf) {
        self.is_some().put(frame);
        self.iter().for_each(|value| value.put(frame));
    }

    fn take(bytes: &mut &'a [u8]) -> Result<Self, String> {
        bool::take(bytes)?.then(|| T::take(bytes)).transpose()
    }
}

impl<'a, A: Field<'a>, B: Field<'a>> Field<'a> for (A, B) {
    fn put(&self, frame: &mut FrameBuf) {
        self.0.put(frame);
        self.1.put(frame);
    }

    fn take(bytes: &mut &'a [u8]) -> Result<Self, String> {
        Ok((A::take(bytes)?, B::take(bytes)?))
    }
}

/// A round signal's values, in [`crate::policy::RoundSignal::of`]'s order.
impl Field<'_> for [f32; 4] {
    fn put(&self, frame: &mut FrameBuf) {
        frame.put_f32s(self);
    }

    fn take(bytes: &mut &[u8]) -> Result<Self, String> {
        let mut values = [0.0; 4];
        for value in &mut values {
            *value = f32::take(bytes)?;
        }
        Ok(values)
    }
}

/// Death evictions as `(worker, first-absent round)`: a `u32` count, then
/// `(u32 worker, u64 round)` pairs.
impl Field<'_> for Vec<(usize, usize)> {
    fn put(&self, frame: &mut FrameBuf) {
        (self.len() as u32).put(frame);
        let wire = |&(worker, round): &_| (worker as u32, round as u64);
        self.iter().for_each(|e| wire(e).put(frame));
    }

    fn take(bytes: &mut &[u8]) -> Result<Self, String> {
        let entry = |b: &mut &[u8]| <(u32, u64)>::take(b).map(|(w, r)| (w as usize, r as usize));
        let count = u32::take(bytes)?;
        (0..count).map(|_| entry(bytes)).collect()
    }
}

/// The rest of the payload, in [`crate::checkpoint`]'s binary deposit codec.
impl Field<'_> for Deposit {
    fn put(&self, frame: &mut FrameBuf) {
        Deposit::put(self, frame);
    }

    fn take(bytes: &mut &[u8]) -> Result<Self, String> {
        Deposit::parse(std::mem::take(bytes))
    }
}

/// A parameter vector, read once, straight into the buffer that keeps it: the `f32`s
/// themselves in-process, their little-endian bytes — the rest of the payload — off
/// the wire.
pub(crate) enum Floats<'a> {
    /// A worker's own parameters, lent to the op.
    Slice(&'a [f32]),
    /// A served vector: a pull, or the mean every participant of a sync shares.
    Shared(Arc<Vec<f32>>),
    /// Received bytes, where they lie.
    Wire(&'a [u8]),
}

impl Floats<'_> {
    /// Overwrite `out` with the values, in its allocation when that is large enough.
    pub(crate) fn read_into(&self, out: &mut Vec<f32>) {
        match self {
            Floats::Slice(values) => {
                out.clear();
                out.extend_from_slice(values);
            }
            Floats::Shared(values) => out.clone_from(values),
            Floats::Wire(bytes) => f32s_from_le_bytes_into(bytes, out),
        }
    }

    /// The values in a vector of their own.
    pub(crate) fn into_vec(self) -> Vec<f32> {
        match self {
            Floats::Shared(values) => Arc::unwrap_or_clone(values),
            floats => {
                let mut out = Vec::new();
                floats.read_into(&mut out);
                out
            }
        }
    }
}

impl<'a> Field<'a> for Floats<'a> {
    fn put(&self, frame: &mut FrameBuf) {
        match self {
            Floats::Slice(values) => frame.put_f32s(values),
            Floats::Shared(values) => frame.put_f32s(values),
            Floats::Wire(bytes) => frame.put(bytes),
        }
    }

    fn take(bytes: &mut &'a [u8]) -> Result<Self, String> {
        match bytes.len() % 4 {
            0 => Ok(Floats::Wire(std::mem::take(bytes))),
            odd => Err(format!("{odd} bytes past the last f32")),
        }
    }
}

/// `value`, when nothing is left after it: a payload longer than its fields is an
/// error too.
fn whole<T>(rest: &[u8], value: T) -> Result<T, String> {
    match rest.len() {
        0 => Ok(value),
        extra => Err(format!("{extra} bytes past the last field")),
    }
}

/// Declares the op table: each op's tag constant and its variant, whose fields are
/// the request's fields in wire order, and the request codec — the tag, then every
/// field.
macro_rules! ops {
    ($(#[$meta:meta])* pub(crate) enum Op<$lt:lifetime> {
        $($(#[$attr:meta])* $variant:ident = $tag:literal as $name:ident($($field:ident: $ty:ty),*),)+
    }) => {
        /// Request tags: the first byte of an RPC payload.
        pub(crate) mod op {
            $(pub const $name: u8 = $tag;)+
        }

        $(#[$meta])*
        pub(crate) enum Op<$lt> {
            $($(#[$attr])* $variant($($ty),*),)+
        }

        impl<$lt> Op<$lt> {
            /// Append the request: the tag, then the fields in order.
            fn put(&self, frame: &mut FrameBuf) {
                match self {
                    $(Op::$variant($($field),*) => {
                        op::$name.put(frame);
                        $($field.put(frame);)*
                    })+
                }
            }

            /// Parse [`Self::put`]'s bytes; any other payload is an error.
            fn take(mut bytes: &$lt [u8]) -> Result<Self, String> {
                let b = &mut bytes;
                let op = match u8::take(b)? {
                    $(op::$name => Op::$variant($(<$ty as Field>::take(b)?),*),)+
                    other => return Err(format!("unknown op {other}")),
                };
                whole(bytes, op)
            }
        }
    };
}

ops! {
    /// An op a cluster worker's link hands to `ClusterCore::serve`: every op that
    /// reaches the cluster's shared state, declared once with its tag and its
    /// request fields in wire order. The frame's round field is the op's round
    /// (docs/TRANSPORT.md lists the layouts); the op's answer is the [`Reply`] its
    /// doc names.
    pub(crate) enum Op<'a> {
        /// The global once every active round before `end` is observed, in frame
        /// round `u64::MAX` → `Floats`.
        Pull = 1 as PULL(end: u64),
        /// The model a worker rejoining at the round pulls → `Floats`.
        RejoinPull = 2 as REJOIN_PULL(),
        /// The round of the last synchronization before the round → `Round`.
        SchedRoundBefore = 3 as SCHED_ROUND_BEFORE(),
        /// Push `params`, pull the mean of the round's `expected` → `Floats`.
        SyncRound = 4 as SYNC_ROUND(expected: u32, params: Floats<'a>),
        /// The status all-gather among `expected`: the worker's bit, from the round's
        /// emitter its signal values and the next active round, and whether the
        /// worker announces the next round here → `Status`.
        Status = 5 as STATUS(
            flag: bool,
            expected: u32,
            pending: Option<([f32; 4], u64)>,
            announce: bool
        ),
        /// The signal exchange among `expected` → `Signal`.
        Signals = 6 as SIGNALS(loss: f32, delta: f32, expected: u32),
        /// The round's δ → `Delta`.
        DeltaFor = 7 as DELTA_FOR(),
        /// Post the round's cluster signal; the policy advances to `next` → `Done`.
        Observe = 8 as OBSERVE(signal: [f32; 4], synced: bool, next: u64),
        /// Announce the round at the membership barrier → `Evictions`.
        RoundBegin = 9 as ROUND_BEGIN(),
        /// The worker's part of the round's image, parked until it is written →
        /// `Done`.
        CkptDeposit = 10 as CKPT_DEPOSIT(deposit: Deposit),
    }
}

/// What `ClusterCore::serve` answers an [`Op`] with.
pub(crate) enum Reply<'a> {
    /// A parameter vector: the rest of the payload.
    Floats(Floats<'a>),
    /// `Option<u64>`.
    Round(Option<usize>),
    /// One flag byte per worker, `Option<(u64 next round, f32 δ)>`, then the
    /// release: `Option` of the next round's evictions.
    Status(Status),
    /// Four `f32`s.
    Signal([f32; 4]),
    /// `f32`.
    Delta(f32),
    /// The evictions' `u32` count, then `(u32 worker, u64 round)` pairs.
    Evictions(Vec<(usize, usize)>),
    /// Nothing.
    Done,
}

macro_rules! from_reply {
    ($($variant:ident($ty:ty)),+) => {$(
        impl<'a> From<Reply<'a>> for $ty {
            fn from(reply: Reply<'a>) -> Self {
                match reply {
                    Reply::$variant(value) => value,
                    _ => unreachable!(concat!("an op answered by ", stringify!($variant))),
                }
            }
        }
    )+};
}

from_reply!(
    Floats(Floats<'a>),
    Round(Option<usize>),
    Status(Status),
    Signal([f32; 4])
);
from_reply!(Delta(f32), Evictions(Vec<(usize, usize)>));

impl<'a> Reply<'a> {
    fn put(&self, frame: &mut FrameBuf) {
        match self {
            Reply::Floats(values) => values.put(frame),
            Reply::Round(round) => round.map(|r| r as u64).put(frame),
            Reply::Status(Status {
                flags,
                next,
                release,
            }) => {
                flags.iter().for_each(|flag| flag.put(frame));
                next.map(|(round, delta)| (round as u64, delta)).put(frame);
                release.put(frame);
            }
            Reply::Signal(values) => values.put(frame),
            Reply::Delta(delta) => delta.put(frame),
            Reply::Evictions(evictions) => evictions.put(frame),
            Reply::Done => {}
        }
    }

    /// Parse [`Self::put`]'s bytes as the answer to `op` among `workers` workers.
    fn take(op: &Op, workers: usize, mut bytes: &'a [u8]) -> Result<Self, String> {
        let b = &mut bytes;
        let reply = match op {
            Op::Pull(_) | Op::RejoinPull() | Op::SyncRound(..) => Reply::Floats(Field::take(b)?),
            Op::SchedRoundBefore() => {
                let round: Option<u64> = Field::take(b)?;
                Reply::Round(round.map(|r| r as usize))
            }
            Op::Status(..) => {
                let flags = (0..workers)
                    .map(|_| bool::take(b))
                    .collect::<Result<_, _>>()?;
                let next: Option<(u64, f32)> = Field::take(b)?;
                let next = next.map(|(round, delta)| (round as usize, delta));
                let release = Field::take(b)?;
                Reply::Status(Status {
                    flags,
                    next,
                    release,
                })
            }
            Op::Signals(..) => Reply::Signal(Field::take(b)?),
            Op::DeltaFor() => Reply::Delta(Field::take(b)?),
            Op::RoundBegin() => Reply::Evictions(Field::take(b)?),
            Op::Observe(..) | Op::CkptDeposit(_) => Reply::Done,
        };
        whole(bytes, reply)
    }
}

/// The hub side of the RPC surface: decodes each request and serves it — the
/// round barrier and the checkpoint gather from its own ledger, everything else
/// through `ClusterCore::serve`, the call a worker thread makes in-process.
/// Blocking rendezvous ops block the calling connection's hub thread, which is
/// exactly the rendezvous behaviour the threaded workers get from blocking
/// in-process calls.
struct HubService {
    /// The shared cluster state. Its membership schedule is the *base* one;
    /// runtime death evictions layer on top in the ledger, never mutating it,
    /// and are never scheduled before its first round.
    core: ClusterCore,
    /// The parameter vector's length: a sync that carries any other is refused.
    dim: usize,
    ledger: Mutex<Ledger>,
    cv: Condvar,
}

/// The hub's runtime membership + checkpoint bookkeeping, all under one lock
/// so a death atomically updates the barrier, the eviction list and any
/// in-flight checkpoint gather.
struct Ledger {
    /// Per worker: the newest round it has begun — announced through `op::ROUND_BEGIN`,
    /// or released into by its `op::STATUS` reply.
    last_begun: Vec<Option<usize>>,
    /// Per worker and rendezvous op (`SYNC_ROUND`, `STATUS`, `SIGNALS`): the newest
    /// round the worker met in through it.
    met: Vec<[Option<usize>; 3]>,
    /// Per worker: whether its connection has terminated.
    dead: Vec<bool>,
    /// Death evictions in creation order: `(worker, first-absent round)`.
    evictions: Vec<(usize, usize)>,
    /// Per released round: the eviction count frozen at its barrier release —
    /// every `ROUND_BEGIN` reply and `STATUS` release for that round carries the
    /// identical prefix, keeping the folded membership a pure function of the round.
    /// A round stays on file while one of its present workers may still be parked in
    /// it or read its release.
    released: HashMap<usize, usize>,
    /// The round currently gathering checkpoint deposits, if any.
    ckpt_round: Option<usize>,
    /// Per worker: its checked deposit — recovery section and trace shard so far.
    ckpt_deposits: Vec<Option<Deposit>>,
    /// The newest round whose checkpoint gate has released (written or voided).
    ckpt_released: Option<usize>,
}

impl Ledger {
    fn new(n: usize) -> Self {
        Ledger {
            last_begun: vec![None; n],
            met: vec![[None; 3]; n],
            dead: vec![false; n],
            evictions: Vec::new(),
            released: HashMap::new(),
            ckpt_round: None,
            ckpt_deposits: (0..n).map(|_| None).collect(),
            ckpt_released: None,
        }
    }

    /// Record that `worker` begins round `it`, and forget the released rounds no one
    /// can still wait in: each of the round's present workers has died or begun a
    /// later round, so it has returned from this one. What stays is at most one round
    /// per worker, its newest.
    fn begin(&mut self, worker: usize, it: usize, conditions: &ClusterConditions) {
        self.last_begun[worker] = Some(it);
        let Ledger {
            released,
            last_begun,
            dead,
            ..
        } = self;
        released.retain(|&r, _| {
            (0..dead.len())
                .any(|w| conditions.is_present(w, r) && !dead[w] && last_begun[w] <= Some(r))
        });
    }

    /// Round `it`'s eviction prefix: the one frozen at its release, frozen now if this
    /// is the release.
    fn release(&mut self, it: usize) -> Vec<(usize, usize)> {
        let frozen = *self.released.entry(it).or_insert(self.evictions.len());
        self.evictions[..frozen].to_vec()
    }
}

impl HubService {
    /// The hub's state for a run of `cfg`, restored from `resume` when given (any
    /// backend's image, [`Checkpoint::check_resumable`]).
    fn new(cfg: &TrainConfig, resume: Option<&Checkpoint>) -> Self {
        let (_, spec) = ensure_supported(cfg).unwrap_or_else(|e| panic!("{e}"));
        // The hub shard carries a resume image's merged trace prefix; workers
        // re-emit nothing before the first resumed round, so the merged result is
        // exactly prefix + fresh suffix.
        let core = ClusterCore::build(cfg, &spec, resume);
        HubService {
            dim: core.handles.ps.dim(),
            core,
            ledger: Mutex::new(Ledger::new(cfg.workers)),
            cv: Condvar::new(),
        }
    }

    /// The round-boundary membership barrier. A present worker announces round
    /// `it` before any other traffic of the round; the call blocks until every
    /// base-present worker of the round has either announced it or died, then
    /// answers the eviction prefix frozen at the barrier's release — identical
    /// for every present worker of the round.
    ///
    /// A worker whose `STATUS` reply released it into `it` has begun the round
    /// already, so its `ROUND_BEGIN` for it is refused as a repeat; one whose reply
    /// carried no release announced `it` there, but still sends this.
    fn round_begin(&self, worker: usize, it: usize) -> Served {
        let n = self.core.cfg.workers;
        let mut s = self.ledger.lock();
        ensure!(!s.dead[worker], "round {it} announced after death");
        let in_order = s.last_begun[worker].is_none_or(|r| r < it);
        ensure!(in_order, "round {it} announced out of order");
        s.begin(worker, it, &self.core.conditions);
        self.cv.notify_all();
        loop {
            // Released rounds stay on file until their waiters have returned: a
            // parked waiter always finds its round here first, even after faster
            // workers advanced past it.
            if s.released.contains_key(&it) {
                return Ok(Reply::Evictions(s.release(it)));
            }
            let complete = (self.core.conditions.present_workers(n, it).into_iter())
                .all(|w| s.dead[w] || s.last_begun[w].is_some_and(|r| r >= it));
            if complete {
                let evictions = s.release(it);
                self.cv.notify_all();
                return Ok(Reply::Evictions(evictions));
            }
            self.cv.wait(&mut s);
        }
    }

    /// Round `it`'s status all-gather, which doubles as round `it + 1`'s membership
    /// barrier when every base-present worker of `it + 1` announces it there: each
    /// announcer then begins `it + 1` with this reply, which carries the round's
    /// frozen eviction prefix, and sends no `ROUND_BEGIN` for it. Otherwise the reply
    /// carries no release, and the barrier is `ROUND_BEGIN`'s, as on a round after a
    /// rejoin or a death. No barrier waits on the announce: a worker parked in
    /// `ROUND_BEGIN(it + 1)` would be a base-present worker of `it + 1` that did not
    /// announce it here.
    fn status(&self, worker: usize, it: usize, bit: StatusFields, expected: usize) -> Served {
        let announce = bit.1;
        let (mut status, begun) = self.core.status(it, worker, bit, expected);
        if announce && begun {
            let mut s = self.ledger.lock();
            s.begin(worker, it + 1, &self.core.conditions);
            status.release = Some(s.release(it + 1));
        }
        Ok(Reply::Status(status))
    }

    /// Refuse a rendezvous op of round `it` whose membership count is not the
    /// round's present count — the base schedule less the evictions at or before the
    /// round, what every live worker derives — whose worker has not begun the round,
    /// is not present at it or already met in it through the same op, or whose
    /// `STATUS` disagrees with the round's emitter (its lowest present worker) on
    /// carrying the signal. A worker whose `STATUS` released it into the next round
    /// still syncs this one. The rendezvous asserts the first four, and a panic there
    /// would take the whole hub down; a repeat after the round closed would park
    /// forever. Any other op passes.
    ///
    /// Every eviction at or before `it` is in the prefix frozen at the round's
    /// release: a worker dies before its next present round's barrier releases, or
    /// after it announced that round, mid-round, which is out of contract.
    fn check_members(&self, worker: usize, it: usize, op: &Op<'_>) -> Result<(), String> {
        let (slot, expected) = match *op {
            Op::SyncRound(expected, _) => (0, expected),
            Op::Status(_, expected, ..) => (1, expected),
            Op::Signals(_, _, expected) => (2, expected),
            _ => return Ok(()),
        };
        let mut s = self.ledger.lock();
        let finishing = slot == 0 && s.met[worker][1] == Some(it);
        let begun = s.last_begun[worker] == Some(it) || finishing;
        ensure!(begun, "round {it} not announced");
        let evicted = |w| s.evictions.iter().any(|&(e, r)| e == w && r <= it);
        let mut present = (self.core.conditions).present_workers(self.core.cfg.workers, it);
        present.retain(|&w| !evicted(w));
        ensure!(present.contains(&worker), "{worker} is absent at {it}");
        let n = present.len();
        ensure!(expected as usize == n, "a count of {expected} for {n}");
        if let Op::Status(_, _, pending, _) = op {
            let emitter = present[0];
            let ok = pending.is_some() == (worker == emitter);
            ensure!(ok, "{worker} and emitter {emitter} disagree on a signal");
        }
        let met = &mut s.met[worker][slot];
        ensure!(*met != Some(it), "{worker} met in round {it} twice");
        *met = Some(it);
        Ok(())
    }

    /// Gather one worker's checkpoint [`Deposit`], sent in round `it`'s frame, and
    /// park the calling connection until the round's image is written (or voided
    /// by a death) — the worker resumes only past the quiescent point.
    fn ckpt_deposit(&self, worker: usize, it: usize, deposit: Deposit) -> Served {
        let round = deposit.round;
        ensure!(round == it, "a deposit for round {round} in round {it}");
        let ours = deposit.fingerprint == checkpoint::config_fingerprint(&self.core.cfg);
        ensure!(ours, "a deposit of another configuration");
        let name = &deposit.section.name;
        let own = *name == format!("worker{worker}");
        ensure!(own, "a deposit of section {name:?}");
        let mut s = self.ledger.lock();
        let gathering = s.ckpt_round;
        let interleaved = gathering.is_some_and(|r| r != it);
        ensure!(
            !interleaved,
            "deposits for {gathering:?} and {it} interleave"
        );
        let first = s.ckpt_deposits[worker].is_none();
        ensure!(first, "a second deposit for round {it}");
        s.ckpt_round = Some(it);
        s.ckpt_deposits[worker] = Some(deposit);
        let mut s = self.finish_checkpoint_if_complete(s);
        while s.ckpt_released.is_none_or(|r| r < it) {
            self.cv.wait(&mut s);
        }
        Ok(Reply::Done)
    }

    /// If every live worker has deposited for the gathering round, write the
    /// image and release the gate — the process analogue of the threaded
    /// checkpoint round's combine, run by whichever connection completed the set, at
    /// the same quiescent point: every worker parked in its deposit RPC, the
    /// round's signals observed, every shard's events through the round
    /// shipped (the hub's own shard holds the header and regime switches). A
    /// worker death voids the in-flight image instead (the cluster state is no
    /// longer the uninterrupted run's) but still releases the survivors.
    fn finish_checkpoint_if_complete<'a>(
        &'a self,
        mut s: parking_lot::MutexGuard<'a, Ledger>,
    ) -> parking_lot::MutexGuard<'a, Ledger> {
        let Some(it) = s.ckpt_round else {
            return s;
        };
        let n = self.core.cfg.workers;
        if !(0..n).all(|w| s.dead[w] || s.ckpt_deposits[w].is_some()) {
            return s;
        }
        let deposits: Vec<_> = s.ckpt_deposits.iter_mut().map(|d| d.take()).collect();
        s.ckpt_round = None;
        let any_dead = s.dead.iter().any(|&d| d);
        drop(s);
        if any_dead {
            eprintln!(
                "checkpoint after round {it} voided: a worker died mid-run, so the cluster \
                 state no longer matches the uninterrupted run"
            );
        } else {
            let (sections, shards) = deposits
                .into_iter()
                .map(|d| d.expect("no worker is dead, so every slot deposited"))
                .map(|d| (d.section, d.shard))
                .unzip();
            self.core.write_image("process", it, sections, shards);
        }
        let mut s = self.ledger.lock();
        s.ckpt_released = Some(it);
        self.cv.notify_all();
        s
    }
}

impl RpcService for HubService {
    /// [`Self::handle_into`]'s reply as bytes. Refusing a request means ending its
    /// connection, which only the served path can do, so here a refused request
    /// is answered with nothing and its worker recorded dead at once.
    fn handle(&self, worker: u32, round: u64, request: &[u8]) -> Vec<u8> {
        let mut reply = FrameBuf::new();
        reply.begin(MsgKind::Rpc, round, HUB_SENDER);
        let served = self.handle_into(worker, round, request, &mut reply);
        if served.is_err() {
            self.connection_closed(worker);
            return Vec::new();
        }
        reply.payload().to_vec()
    }

    /// Decode, serve — the ledger's barrier and gather here, the status all-gather
    /// through `ClusterCore::status` and every other op through `ClusterCore::serve`
    /// — and encode. A request that fails to decode or one of
    /// the ledger's checks (a rendezvous op's membership count and repeat among
    /// them) is refused before it touches any state.
    fn handle_into(
        &self,
        worker: u32,
        round: u64,
        request: &[u8],
        reply: &mut FrameBuf,
    ) -> Result<(), String> {
        let (worker, it) = (worker as usize, round as usize);
        let known = worker < self.core.cfg.workers;
        ensure!(known, "no worker {worker} in this run");
        let op = Op::take(request)?;
        if let Op::SyncRound(_, Floats::Wire(params)) = op {
            let len = params.len();
            ensure!(len == 4 * self.dim, "a {len}-byte parameter vector");
        }
        self.check_members(worker, it, &op)?;
        match op {
            Op::RoundBegin() => self.round_begin(worker, it)?,
            Op::Status(flag, expected, pending, announce) => {
                self.status(worker, it, (flag, announce, pending), expected as usize)?
            }
            Op::CkptDeposit(deposit) => self.ckpt_deposit(worker, it, deposit)?,
            op => self.core.serve(worker, it, op)?,
        }
        .put(reply);
        Ok(())
    }

    /// A worker's connection terminated — cleanly, abruptly or refused. Record the
    /// death and schedule a deterministic eviction at the first round boundary the
    /// base schedule still expects it, so the surviving cluster folds the loss
    /// exactly like a scheduled no-rejoin crash. A clean run reaches this after the
    /// worker's last round, where the search finds no remaining present round and
    /// schedules nothing.
    fn connection_closed(&self, worker: u32) {
        let worker = worker as usize;
        let mut s = self.ledger.lock();
        if s.dead.get(worker).is_none_or(|&dead| dead) {
            return;
        }
        s.dead[worker] = true;
        let from = s.last_begun[worker].map_or(self.core.start, |r| r + 1);
        let (conditions, iterations) = (&self.core.conditions, self.core.cfg.iterations);
        if let Some(round) = (from..iterations).find(|&r| conditions.is_present(worker, r)) {
            s.evictions.push((worker, round));
        }
        self.cv.notify_all();
        let _s = self.finish_checkpoint_if_complete(s);
    }
}

/// A worker process's reach: each op encoded into one RPC to the hub that serves
/// it, and the reply decoded where it was received.
struct Remote {
    client: HubClient,
    workers: usize,
    /// Die abruptly at the top of this round ([`WorkerOptions::kill_at`]).
    kill_at: Option<usize>,
}

impl Reach for Remote {
    fn call<R>(&self, _: usize, it: usize, op: Op<'_>, read: impl FnOnce(Reply<'_>) -> R) -> R {
        let decode = |bytes: &[u8]| match Reply::take(&op, self.workers, bytes) {
            Ok(reply) => read(reply),
            Err(e) => panic!("the hub's reply fails to decode: {e}"),
        };
        self.client.call(it as u64, |frame| op.put(frame), decode)
    }

    fn shard(&self, cfg: &TrainConfig) -> EventLog {
        cfg.trace.snapshot_log()
    }

    /// Abrupt death: the connection drops at a frame boundary and the rest of the
    /// cluster learns of it at its next round boundary.
    fn dies_at(&self, it: usize) -> bool {
        self.kill_at == Some(it)
    }
}

/// A configuration the cluster backends cannot run, naming the offending
/// scenario key so orchestrators can print a one-line diagnosis instead of a
/// panic backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedConfig {
    /// The scenario key (or key path) that selects the unsupported feature.
    pub key: &'static str,
    /// Why the process backend rejects it.
    pub message: String,
}

impl std::fmt::Display for UnsupportedConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unsupported by the process backend ({}): {}",
            self.key, self.message
        )
    }
}

impl std::error::Error for UnsupportedConfig {}

/// The configuration envelope the cluster backends — this one and the threaded
/// driver — support, and the sync rule and δ-policy spec a supported run uses. The
/// only genuinely unsupported shapes are non-SelSync/BSP algorithms, gradient
/// aggregation (a cluster worker pushes parameters and pulls their mean) and
/// data-injection over non-IID shards (whose injection draws ride the
/// simulator's cluster RNG).
pub fn ensure_supported(cfg: &TrainConfig) -> Result<(SyncRule, PolicySpec), UnsupportedConfig> {
    if !matches!(
        cfg.algorithm,
        AlgorithmSpec::SelSync { .. } | AlgorithmSpec::Bsp
    ) {
        return Err(UnsupportedConfig {
            key: "scenario.algorithm",
            message: format!(
                "the threaded and process backends run SelSync and BSP only, not {}",
                cfg.algorithm.name()
            ),
        });
    }
    if let AlgorithmSpec::SelSync {
        aggregation,
        injection,
        ..
    } = cfg.algorithm
    {
        if aggregation == AggregationMode::Gradient {
            return Err(UnsupportedConfig {
                key: "algorithm.aggregation",
                message: "cluster workers push parameters and pull their mean; \
                          gradient aggregation stays simulator-only"
                    .to_string(),
            });
        }
        if injection.is_some() && cfg.non_iid_labels_per_worker.is_some() {
            return Err(UnsupportedConfig {
                key: "scenario.non_iid_labels_per_worker",
                message: "data-injection over non-IID shards draws from the simulator's \
                          cluster RNG and stays simulator-only"
                    .to_string(),
            });
        }
    }
    let spec = run_policy_spec(cfg);
    let invalid = |key, message| Err(UnsupportedConfig { key, message });
    if let Err(e) = spec.validate() {
        return invalid("policy", e);
    }
    if let Some(Err(e)) = cfg.checkpoint.as_ref().map(|ck| ck.validate()) {
        return invalid("checkpoint", e);
    }
    // Every admitted algorithm exchanges its status bits and averages parameters:
    // BSP is SelSync at δ = 0, whose every bit is set.
    Ok((SyncRule::Selective(AggregationMode::Parameter), spec))
}

/// Run the hub process: bind `addr`, serve one connection per worker until all
/// of them hang up, and return the hub's trace shard (the run header plus the
/// shared policy's regime-switch events) in encoded form.
pub fn run_process_hub(cfg: &TrainConfig, addr: &SocketAddrSpec) -> String {
    run_process_hub_with(cfg, addr, None)
}

/// [`run_process_hub`] with an optional recovery image to resume from.
/// Accepts images from any backend ([`Checkpoint::check_resumable`]).
pub fn run_process_hub_with(
    cfg: &TrainConfig,
    addr: &SocketAddrSpec,
    resume: Option<&Checkpoint>,
) -> String {
    serve_hub(cfg, addr, Arc::new(HubService::new(cfg, resume)))
}

/// Bind `addr`, serve `service` to the run's workers until all of them hang up, and
/// return the hub's encoded trace shard.
fn serve_hub(cfg: &TrainConfig, addr: &SocketAddrSpec, service: Arc<dyn RpcService>) -> String {
    let server = HubServer::bind(addr).unwrap_or_else(|e| panic!("hub failed to bind {addr}: {e}"));
    server
        .serve(cfg.workers, service)
        .unwrap_or_else(|e| panic!("hub serve failed: {e}"));
    cfg.trace.take_log().encode()
}

/// Per-worker knobs for [`run_process_worker_with`] beyond the shared config.
#[derive(Default)]
pub struct WorkerOptions<'a> {
    /// Recovery image to resume from (any backend's, like the hub's).
    pub resume: Option<&'a Checkpoint>,
    /// Die abruptly at the top of this round — no announce, no farewell — to
    /// exercise the hub's worker-death eviction path deterministically.
    pub kill_at: Option<usize>,
}

/// Run one worker process: connect to the hub at `addr` and execute worker
/// `worker`'s rounds — the one round loop over a group of one, with shared-state
/// touches carried by the socket. Returns the worker's report and its trace shard
/// in encoded form.
pub fn run_process_worker(
    cfg: &TrainConfig,
    worker: usize,
    addr: &SocketAddrSpec,
) -> (ThreadedWorkerReport, String) {
    run_process_worker_with(cfg, worker, addr, WorkerOptions::default())
}

/// [`run_process_worker`] with resume / kill options.
pub fn run_process_worker_with(
    cfg: &TrainConfig,
    worker: usize,
    addr: &SocketAddrSpec,
    opts: WorkerOptions<'_>,
) -> (ThreadedWorkerReport, String) {
    let (rule, spec) = ensure_supported(cfg).unwrap_or_else(|e| panic!("{e}"));
    if let Some(ckpt) = opts.resume {
        ckpt.check_resumable(cfg).unwrap_or_else(|e| panic!("{e}"));
    }
    let (train, test) = crate::sim::build_datasets(cfg);
    let group = Simulator::group(cfg, &(Arc::new(train), Arc::new(test)), worker..worker + 1);

    let conn = SocketConn::connect(addr, CONNECT_RETRY)
        .unwrap_or_else(|e| panic!("worker {worker} failed to connect to {addr}: {e}"));
    // The message layer rides the real socket: the hub echoes every non-RPC
    // frame verbatim, so retries, dedupe and evictions behave exactly as over
    // the in-memory transports — including with the fault decorator composed
    // over the socket.
    let layer = message_layer(cfg, Box::new(conn.transport()));
    let hub = Remote {
        client: conn.client(worker as u32),
        workers: cfg.workers,
        kill_at: opts.kill_at,
    };
    let mut link = WorkerLink::new(cfg, &layer, worker, hub);
    let report = run_worker(cfg, (rule, &spec), group, &mut link, opts.resume);
    (report, cfg.trace.take_log().encode())
}

/// Serialize a worker report to one deterministic text line (floats as raw bit
/// patterns, so the round trip is exact). The orchestrator reads these back
/// from each worker process's output file.
pub fn encode_worker_report(report: &ThreadedWorkerReport) -> String {
    let rounds = if report.sync_rounds.is_empty() {
        "-".to_string()
    } else {
        report
            .sync_rounds
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "worker {} sync_steps {} local_steps {} sync_rounds {} final_loss {:08x} distance {:08x}",
        report.worker,
        report.sync_steps,
        report.local_steps,
        rounds,
        report.final_loss.to_bits(),
        report.distance_to_global.to_bits(),
    )
}

/// Inverse of [`encode_worker_report`].
pub fn decode_worker_report(line: &str) -> Result<ThreadedWorkerReport, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let expect = |at: usize, key: &str| -> Result<&str, String> {
        if fields.get(at) != Some(&key) {
            return Err(format!("report line field {at} is not {key:?}: {line:?}"));
        }
        fields
            .get(at + 1)
            .copied()
            .ok_or_else(|| format!("report line missing a value for {key}: {line:?}"))
    };
    let parse_u64 = |s: &str, key: &str| -> Result<u64, String> {
        s.parse().map_err(|_| format!("bad {key}: {s:?}"))
    };
    let worker = parse_u64(expect(0, "worker")?, "worker")? as usize;
    let sync_steps = parse_u64(expect(2, "sync_steps")?, "sync_steps")?;
    let local_steps = parse_u64(expect(4, "local_steps")?, "local_steps")?;
    let rounds_text = expect(6, "sync_rounds")?;
    let sync_rounds = if rounds_text == "-" {
        Vec::new()
    } else {
        rounds_text
            .split(',')
            .map(|r| r.parse().map_err(|_| format!("bad sync round {r:?}")))
            .collect::<Result<Vec<usize>, String>>()?
    };
    let final_loss = f32::from_bits(
        u32::from_str_radix(expect(8, "final_loss")?, 16)
            .map_err(|_| format!("bad final_loss bits: {line:?}"))?,
    );
    let distance_to_global = f32::from_bits(
        u32::from_str_radix(expect(10, "distance")?, 16)
            .map_err(|_| format!("bad distance bits: {line:?}"))?,
    );
    Ok(ThreadedWorkerReport {
        worker,
        sync_steps,
        local_steps,
        sync_rounds,
        final_loss,
        distance_to_global,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::FaultEvent;
    use crate::threaded::run_threaded_selsync;
    use selsync_nn::model::ModelKind;
    use selsync_tracelog::{EventLog, TraceGranularity, TraceSink};

    fn cfg(delta: f32, workers: usize) -> TrainConfig {
        let mut c = TrainConfig::small(ModelKind::ResNetLike, workers);
        c.iterations = 20;
        c.batch_size = 8;
        c.train_samples = 256;
        c.test_samples = 64;
        c.algorithm = AlgorithmSpec::selsync(delta);
        c
    }

    fn run_in_process_cluster(c: &TrainConfig, tag: &str) -> (Vec<ThreadedWorkerReport>, String) {
        run_in_process_cluster_with(c, tag, None, None)
    }

    fn run_in_process_cluster_with(
        c: &TrainConfig,
        tag: &str,
        resume: Option<&Checkpoint>,
        kill: Option<(usize, usize)>,
    ) -> (Vec<ThreadedWorkerReport>, String) {
        let hub_resume = resume.cloned();
        let hub = move |cfg: &TrainConfig, addr: &SocketAddrSpec| {
            run_process_hub_with(cfg, addr, hub_resume.as_ref())
        };
        run_in_process_cluster_over(c, tag, resume, kill, hub)
    }

    /// The in-process harness over any hub: `hub` serves the run's workers at the
    /// address it is given and returns its trace shard.
    fn run_in_process_cluster_over(
        c: &TrainConfig,
        tag: &str,
        resume: Option<&Checkpoint>,
        kill: Option<(usize, usize)>,
        hub: impl FnOnce(&TrainConfig, &SocketAddrSpec) -> String + Send,
    ) -> (Vec<ThreadedWorkerReport>, String) {
        // In-process harness for the process drivers: the hub on one thread,
        // each worker on its own, all over a real UDS. The scenario_cluster
        // binary runs the same entry points in separate OS processes.
        let addr = SocketAddrSpec::Unix(
            std::env::temp_dir().join(format!("selsync-process-test-{tag}-{}", std::process::id())),
        );
        let mut shards = Vec::new();
        let mut reports = Vec::new();
        std::thread::scope(|scope| {
            let hub_cfg = {
                let mut h = c.clone();
                h.trace = TraceSink::capture(TraceGranularity::Full);
                h
            };
            let hub_addr = addr.clone();
            let hub = scope.spawn(move || hub(&hub_cfg, &hub_addr));
            let workers: Vec<_> = (0..c.workers)
                .map(|w| {
                    let worker_cfg = {
                        let mut wc = c.clone();
                        wc.trace = TraceSink::capture(TraceGranularity::Full);
                        wc
                    };
                    let worker_addr = addr.clone();
                    let worker_resume = resume.cloned();
                    scope.spawn(move || {
                        let opts = WorkerOptions {
                            resume: worker_resume.as_ref(),
                            kill_at: kill.and_then(|(kw, r)| (kw == w).then_some(r)),
                        };
                        run_process_worker_with(&worker_cfg, w, &worker_addr, opts)
                    })
                })
                .collect();
            for handle in workers {
                let (report, shard) = handle.join().expect("worker thread");
                reports.push(report);
                shards.push(shard);
            }
            shards.push(hub.join().expect("hub thread"));
        });
        if let SocketAddrSpec::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
        reports.sort_by_key(|r| r.worker);
        let merged = EventLog::merge(
            shards
                .iter()
                .map(|s| EventLog::decode(s).expect("shard decodes")),
        );
        (reports, merged.encode())
    }

    #[test]
    fn process_cluster_matches_the_threaded_driver_and_simulator_trace() {
        let mut c = cfg(0.05, 3);
        c.trace = TraceSink::capture(TraceGranularity::Full);
        let sim_report = crate::algorithms::run(&c);
        let sim_trace = c.trace.take_log().encode();
        c.trace = TraceSink::disabled();
        let threaded = run_threaded_selsync(&c);

        let (reports, merged) = run_in_process_cluster(&c, "basic");
        assert_eq!(
            merged, sim_trace,
            "merged shard log diverged from the simulator"
        );
        for (p, t) in reports.iter().zip(threaded.iter()) {
            assert_eq!(p.sync_rounds, t.sync_rounds, "worker {}", p.worker);
            assert_eq!(p.sync_steps, t.sync_steps);
            assert_eq!(p.local_steps, t.local_steps);
            assert_eq!(p.final_loss.to_bits(), t.final_loss.to_bits());
        }
        assert_eq!(reports[0].sync_rounds, sim_report.sync_rounds);
    }

    #[test]
    fn process_cluster_composes_comm_faults_over_the_socket() {
        use selsync_comm::faults::CommFaultSpec;
        let mut c = cfg(0.05, 3);
        c.comm_faults = Some(CommFaultSpec {
            seed: 9,
            drop: 0.0,
            duplicate: 0.4,
            corrupt: 0.0,
            delay: 0.3,
            delay_rounds: 0,
            retry_budget: 3,
            timeout_s: 1e-3,
        });
        let threaded = run_threaded_selsync(&c);
        let (reports, _merged) = run_in_process_cluster(&c, "weather");
        for (p, t) in reports.iter().zip(threaded.iter()) {
            assert_eq!(format!("{p:?}"), format!("{t:?}"), "worker {}", p.worker);
        }
    }

    #[test]
    fn process_cluster_runs_non_iid_shards_byte_identical_to_the_simulator() {
        let mut c = cfg(0.05, 3);
        c.non_iid_labels_per_worker = Some(4);
        c.trace = TraceSink::capture(TraceGranularity::Full);
        let _sim_report = crate::algorithms::run(&c);
        let sim_trace = c.trace.take_log().encode();
        c.trace = TraceSink::disabled();
        let threaded = run_threaded_selsync(&c);

        let (reports, merged) = run_in_process_cluster(&c, "noniid");
        assert_eq!(
            merged, sim_trace,
            "non-IID merged shard log diverged from the simulator"
        );
        for (p, t) in reports.iter().zip(threaded.iter()) {
            assert_eq!(format!("{p:?}"), format!("{t:?}"), "worker {}", p.worker);
        }
    }

    #[test]
    fn a_priced_process_schedule_costs_what_the_simulator_reports() {
        use crate::conditions::ClusterConditions;
        use crate::report::{price, Cost};
        // A crash window with a rejoin: the merged schedule of the worker processes
        // prices rejoins, partial rounds and syncs to the simulator's cost fields,
        // bit for bit.
        let mut c = cfg(0.05, 3);
        c.eval_every = 5;
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 2,
            start: 6,
            rejoin: Some(13),
        });
        let sim = crate::algorithms::run(&c);
        let (reports, _merged) = run_in_process_cluster(&c, "priced");
        let mut merged: Vec<usize> = reports.into_iter().flat_map(|r| r.sync_rounds).collect();
        merged.sort_unstable();
        merged.dedup();
        assert_eq!(merged, sim.sync_rounds);
        assert!(!merged.is_empty() && merged.len() < c.iterations);
        let mut history = sim.history.clone();
        history.iter_mut().for_each(|p| p.sim_time_s = f64::NAN);
        let cost = price(
            &c,
            0..c.iterations,
            &merged,
            &[],
            Cost::default(),
            &mut history,
        );
        let priced = (
            cost.compute_time_s,
            cost.comm_time_s,
            cost.bytes_communicated,
        );
        let reported = (sim.compute_time_s, sim.comm_time_s, sim.bytes_communicated);
        assert_eq!(format!("{priced:?}"), format!("{reported:?}"));
        assert_eq!(format!("{history:?}"), format!("{:?}", sim.history));
    }

    #[test]
    fn an_early_finisher_ends_on_the_threaded_drivers_global() {
        use crate::conditions::ClusterConditions;
        // Worker 2 crashes for good at round 14 and finishes six rounds before the
        // others, which synchronize at each of them (δ = 0). Its final pull waits for
        // the run's last round on both links, so it reads the global those rounds
        // moved — not the round-13 one it left with, at distance 0 — and its distance
        // is the same on every run of either backend.
        let mut c = cfg(0.0, 3);
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 2,
            start: 14,
            rejoin: None,
        });
        let threaded = run_threaded_selsync(&c);
        let (reports, _merged) = run_in_process_cluster(&c, "early");
        let early = threaded[2].distance_to_global;
        assert!(
            early.is_finite() && early > 0.0,
            "early finisher reads {early}"
        );
        for (p, t) in reports.iter().zip(threaded.iter()) {
            assert_eq!(format!("{p:?}"), format!("{t:?}"), "worker {}", p.worker);
        }
    }

    #[test]
    fn worker_death_is_trace_identical_to_the_equivalent_scheduled_crash() {
        use crate::conditions::ClusterConditions;
        // A death mid-run, and one before the worker's first round: the start-of-run
        // pull identifies the worker to the hub, so that death is mapped too.
        for (killed_worker, kill_round) in [(2, 10), (1, 0)] {
            // Reference: the same cluster where the death is a *scheduled* no-rejoin
            // crash at the kill round. The hub must map the abrupt connection drop
            // to exactly this membership schedule.
            let mut reference = cfg(0.05, 3);
            reference.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
                worker: killed_worker,
                start: kill_round,
                rejoin: None,
            });
            reference.trace = TraceSink::capture(TraceGranularity::Full);
            let _ = crate::algorithms::run(&reference);
            let sim_trace = reference.trace.take_log().encode();
            reference.trace = TraceSink::disabled();
            let threaded = run_threaded_selsync(&reference);

            let c = cfg(0.05, 3);
            let tag = format!("kill-{kill_round}");
            let kill = Some((killed_worker, kill_round));
            let (reports, merged) = run_in_process_cluster_with(&c, &tag, None, kill);
            assert_eq!(
                merged, sim_trace,
                "worker-death eviction diverged from the scheduled-crash reference"
            );
            for (p, t) in reports.iter().zip(threaded.iter()) {
                assert_eq!(p.sync_rounds, t.sync_rounds, "worker {}", p.worker);
                assert_eq!(p.sync_steps, t.sync_steps);
                assert_eq!(p.local_steps, t.local_steps);
                assert_eq!(p.final_loss.to_bits(), t.final_loss.to_bits());
                if p.worker != killed_worker {
                    // The killed worker dies before its final pull, so its distance
                    // is the one report field with no reference counterpart.
                    assert_eq!(
                        p.distance_to_global.to_bits(),
                        t.distance_to_global.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn process_checkpoint_and_resume_reproduce_the_uninterrupted_run() {
        use crate::config::CheckpointSpec;
        use selsync_comm::faults::PsFaultSpec;
        let dir = std::env::temp_dir().join(format!(
            "selsync-process-resume-test-{}",
            std::process::id()
        ));
        let make = || {
            let mut c = cfg(0.05, 3);
            // The outage window straddles the halt round, and the adaptive policy
            // carries cross-round state through it.
            c.ps_faults = Some(PsFaultSpec {
                seed: 11,
                windows: vec![(9, 3)],
                flaky: 0.0,
            });
            c.delta_policy = Some(PolicySpec::adaptive_default());
            c
        };
        let full_cfg = make();
        let (full_reports, full_trace) = run_in_process_cluster(&full_cfg, "resume-full");

        let mut halted_cfg = make();
        halted_cfg.checkpoint = Some(CheckpointSpec {
            every: 5,
            dir: dir.to_string_lossy().into_owned(),
            halt_after: Some(10),
            keep: Some(1),
        });
        let _halted = run_in_process_cluster_with(&halted_cfg, "resume-halt", None, None);
        let ckpt = Checkpoint::read_file(dir.join("ckpt-10")).expect("halt image reads back");
        assert_eq!(ckpt.backend, "process");
        assert!(
            !dir.join("ckpt-4").exists() && !dir.join("ckpt-9").exists(),
            "keep = 1 prunes the cadence images once the halt image is durable"
        );

        let resumed_cfg = make();
        let (resumed_reports, resumed_trace) =
            run_in_process_cluster_with(&resumed_cfg, "resume-rest", Some(&ckpt), None);
        assert_eq!(
            resumed_trace, full_trace,
            "resumed merged trace diverged from the uninterrupted run"
        );
        for (a, b) in full_reports.iter().zip(resumed_reports.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_three_backends_write_one_image_layout_and_resume_each_others_images() {
        use crate::algorithms::selsync::run_resumed;
        use crate::config::CheckpointSpec;
        use crate::threaded::run_threaded_selsync_resumed;
        let dir =
            std::env::temp_dir().join(format!("selsync-cross-resume-test-{}", std::process::id()));
        // A crash window straddling the halt round (the rejoin keeps the snapshot
        // ring, so it is part of the image) under the stateful adaptive policy.
        let make = |ckpt_dir: Option<&str>| {
            let mut c = cfg(0.05, 3);
            c.conditions = c.conditions.clone().with_fault(FaultEvent::Crash {
                worker: 2,
                start: 7,
                rejoin: Some(14),
            });
            c.delta_policy = Some(PolicySpec::adaptive_default());
            c.checkpoint = ckpt_dir.map(|sub| CheckpointSpec {
                every: 5,
                dir: dir.join(sub).to_string_lossy().into_owned(),
                halt_after: Some(10),
                keep: None,
            });
            // The in-process drivers' sink; every cluster process gets its own.
            c.trace = TraceSink::capture(TraceGranularity::Full);
            c
        };
        let (full_reports, full_trace) = run_in_process_cluster(&make(None), "cross-full");
        let full_sim = format!("{:?}", crate::algorithms::run(&make(None)));

        // (a) Halted at the same round of the same config, the three backends write
        // the same image: every byte but the `backend` tag — and the simulator's
        // own trailing `sim` section, which no cluster driver opens.
        let _ = run_in_process_cluster(&make(Some("process")), "cross-halt");
        let _ = run_threaded_selsync(&make(Some("threaded")));
        let _ = crate::algorithms::run(&make(Some("sim")));
        let images = ["sim", "threaded", "process"].map(|tag| {
            let image = Checkpoint::read_file(dir.join(tag).join("ckpt-10")).expect(tag);
            assert_eq!(image.backend, tag);
            image
        });
        let mut shared = images[0].clone();
        assert_eq!(shared.sections.pop().expect("sections").name, "sim");
        assert!(
            shared
                .ps_state()
                .ring
                .is_some_and(|r| !r.entries.is_empty()),
            "the image must carry a populated snapshot ring for this to mean anything"
        );
        for image in &images[1..] {
            shared.backend = image.backend.clone();
            assert_eq!(shared.encode(), image.encode(), "{} image", image.backend);
        }

        // (b) Every driver resumes every image, as it is, to the uninterrupted trace
        // (and reports: the simulator's own report needs its own `sim` section).
        for image in &images {
            let from = &image.backend;
            let tag = format!("cross-rest-{from}");
            let (reports, trace) =
                run_in_process_cluster_with(&make(None), &tag, Some(image), None);
            assert_eq!(trace, full_trace, "{from} image on the process cluster");
            assert_eq!(format!("{reports:?}"), format!("{full_reports:?}"));

            let c = make(None);
            let reports = run_threaded_selsync_resumed(&c, image);
            let trace = c.trace.take_log().encode();
            assert_eq!(trace, full_trace, "{from} image on the threaded driver");
            assert_eq!(format!("{reports:?}"), format!("{full_reports:?}"));

            let c = make(None);
            let report = run_resumed(&c, image);
            let trace = c.trace.take_log().encode();
            assert_eq!(trace, full_trace, "{from} image on the simulator");
            if from == "sim" {
                assert_eq!(format!("{report:?}"), full_sim);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The hub's service, logging every dispatch as `(worker, round, op tag)`.
    struct Counting {
        inner: HubService,
        calls: Arc<Mutex<Vec<(u32, u64, u8)>>>,
    }

    impl RpcService for Counting {
        fn handle(&self, worker: u32, round: u64, request: &[u8]) -> Vec<u8> {
            self.inner.handle(worker, round, request)
        }

        fn handle_into(
            &self,
            worker: u32,
            round: u64,
            request: &[u8],
            reply: &mut FrameBuf,
        ) -> Result<(), String> {
            self.calls.lock().push((worker, round, request[0]));
            self.inner.handle_into(worker, round, request, reply)
        }

        fn connection_closed(&self, worker: u32) {
            self.inner.connection_closed(worker)
        }
    }

    /// Each worker's in-round hub calls on a run of `c`, in call order, and worker 0's
    /// synchronized rounds; `kill` as in [`run_in_process_cluster_with`].
    fn hub_calls(
        c: &TrainConfig,
        tag: &str,
        kill: Option<(usize, usize)>,
    ) -> (Vec<Vec<(u64, u8)>>, Vec<usize>) {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&calls);
        let hub = move |cfg: &TrainConfig, addr: &SocketAddrSpec| {
            let inner = HubService::new(cfg, None);
            serve_hub(cfg, addr, Arc::new(Counting { inner, calls: log }))
        };
        let (reports, _) = run_in_process_cluster_over(c, tag, None, kill, hub);
        let mut per_worker = vec![Vec::new(); c.workers];
        for &(worker, round, op) in calls.lock().iter() {
            if op != op::PULL {
                per_worker[worker as usize].push((round, op));
            }
        }
        (per_worker, reports[0].sync_rounds.clone())
    }

    #[test]
    fn a_local_round_is_one_hub_round_trip_per_worker() {
        use crate::conditions::ClusterConditions;
        use op::{DELTA_FOR, OBSERVE, REJOIN_PULL, ROUND_BEGIN, SCHED_ROUND_BEFORE};
        use op::{STATUS, SYNC_ROUND};
        // Every round local: round 0 announces itself through `ROUND_BEGIN` and asks
        // its δ; every later round is `STATUS` alone. The previous round's reply
        // carried the round's δ (the all-gather observed its round, so no `OBSERVE`)
        // and released its barrier (every worker announced it there). The flags
        // envelope rides the `STATUS` call instead of making round trips of its own.
        let c = cfg(1e9, 3);
        let (calls, synced) = hub_calls(&c, "trips-local", None);
        assert!(synced.is_empty(), "δ = 1e9 must keep every round local");
        let rounds = 0..c.iterations as u64;
        let statuses = |r: std::ops::Range<u64>| r.map(|r| (r, STATUS));
        let first = [(0, ROUND_BEGIN), (0, DELTA_FOR)];
        let local: Vec<(u64, u8)> = (first.into_iter())
            .chain(statuses(rounds.clone()))
            .collect();
        for (worker, calls) in calls.iter().enumerate() {
            assert_eq!(*calls, local, "worker {worker}");
        }
        // Every round synchronized (δ = 0): the round after a sync asks its δ, and
        // rank 0 observes each round after its sync.
        let c = cfg(0.0, 3);
        let (calls, synced) = hub_calls(&c, "trips-sync", None);
        assert_eq!(synced, (0..c.iterations).collect::<Vec<_>>());
        for (worker, calls) in calls.iter().enumerate() {
            let expected: Vec<(u64, u8)> = rounds
                .clone()
                .flat_map(|r| {
                    let begin = (r == 0).then_some((r, ROUND_BEGIN));
                    let observe = (worker == 0).then_some((r, OBSERVE));
                    let sync = [(r, DELTA_FOR), (r, STATUS), (r, SYNC_ROUND)];
                    [begin].into_iter().chain(sync.map(Some)).chain([observe])
                })
                .flatten()
                .collect();
            assert_eq!(*calls, expected, "worker {worker}");
        }
        // Worker 2 sits out rounds 5..12. Round 5 is released in `STATUS(4)`, where
        // workers 0 and 1 announce it. No one can announce round 12 for the rejoiner,
        // so every present worker sends `ROUND_BEGIN(12)`; the rejoiner also pulls,
        // asks which round its pull is from, and asks its δ.
        let mut c = cfg(1e9, 3);
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 2,
            start: 5,
            rejoin: Some(12),
        });
        let (calls, _) = hub_calls(&c, "trips-rejoin", None);
        let stayed: Vec<(u64, u8)> = (first.into_iter())
            .chain(statuses(0..12))
            .chain([(12, ROUND_BEGIN)])
            .chain(statuses(12..c.iterations as u64))
            .collect();
        assert_eq!(calls[0], stayed);
        assert_eq!(calls[1], stayed);
        let back = [ROUND_BEGIN, REJOIN_PULL, SCHED_ROUND_BEFORE, DELTA_FOR];
        let rejoiner: Vec<(u64, u8)> = (first.into_iter())
            .chain(statuses(0..5))
            .chain(back.map(|op| (12, op)))
            .chain(statuses(12..c.iterations as u64))
            .collect();
        assert_eq!(calls[2], rejoiner);
        // Worker 1 dies at the top of round 10, so it does not announce round 10 in
        // `STATUS(9)`: the survivors park in `ROUND_BEGIN(10)` until its connection
        // closes. The base schedule still expects it at every later round, which no
        // one announces for it, so `ROUND_BEGIN` goes out at each of them.
        let c = cfg(1e9, 3);
        let (calls, _) = hub_calls(&c, "trips-kill", Some((1, 10)));
        let survivor: Vec<(u64, u8)> = (local.iter().copied())
            .flat_map(|(r, op)| {
                let begin = (op == STATUS && r >= 10).then_some((r, ROUND_BEGIN));
                begin.into_iter().chain([(r, op)])
            })
            .collect();
        assert_eq!(calls[0], survivor);
        assert_eq!(calls[1], local[..local.len() - 10]);
        assert_eq!(calls[2], survivor);
    }

    /// The hub's service, logging every call as `(worker, round, request, reply)`
    /// payloads. It goes through [`RpcService::handle`], whose reply is a plain byte
    /// vector, so it records the very bytes the served path puts in the frame.
    struct Recording {
        inner: HubService,
        calls: Arc<Mutex<Vec<Call>>>,
    }

    /// One recorded call: worker, round, request payload, reply payload.
    type Call = (u32, u64, Vec<u8>, Vec<u8>);

    impl RpcService for Recording {
        fn handle(&self, worker: u32, round: u64, request: &[u8]) -> Vec<u8> {
            let reply = self.inner.handle(worker, round, request);
            let call = (worker, round, request.to_vec(), reply.clone());
            self.calls.lock().push(call);
            reply
        }

        fn connection_closed(&self, worker: u32) {
            self.inner.connection_closed(worker)
        }
    }

    #[test]
    fn every_op_keeps_its_wire_bytes_across_commits() {
        use crate::conditions::ClusterConditions;
        use crate::config::CheckpointSpec;
        use selsync_comm::wire::checksum;
        // One run that sends all ten ops: the adaptive policy asks for the signal
        // exchange, worker 2's crash window ends in a scheduled rejoin pull whose
        // trace event asks for the round it pulls from, worker 1 dies at round 15 so
        // later barriers carry an eviction, and images are due every four rounds.
        let dir = std::env::temp_dir().join(format!("selsync-wire-pin-{}", std::process::id()));
        let mut c = cfg(0.05, 3);
        c.delta_policy = Some(PolicySpec::adaptive_default());
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 2,
            start: 5,
            rejoin: Some(12),
        });
        c.checkpoint = Some(CheckpointSpec {
            every: 4,
            dir: dir.to_string_lossy().into_owned(),
            halt_after: None,
            keep: None,
        });
        let calls = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&calls);
        let hub = move |cfg: &TrainConfig, addr: &SocketAddrSpec| {
            let inner = HubService::new(cfg, None);
            serve_hub(cfg, addr, Arc::new(Recording { inner, calls: log }))
        };
        run_in_process_cluster_over(&c, "wire-pin", None, Some((1, 15)), hub);
        std::fs::remove_dir_all(&dir).ok();

        let calls = calls.lock();
        let tags: std::collections::BTreeSet<u8> = calls.iter().map(|c| c.2[0]).collect();
        assert_eq!(tags, (op::PULL..=op::CKPT_DEPOSIT).collect());
        // `STATUS` from the round's emitter carries its pending signal, from the
        // others none: the byte after the tag, the bit and the u32 count.
        let status = calls.iter().filter(|c| c.2[0] == op::STATUS);
        let pending: std::collections::BTreeSet<u8> = status.map(|c| c.2[6]).collect();
        assert_eq!(pending, [0, 1].into());
        let begun = calls.iter().filter(|c| c.2[0] == op::ROUND_BEGIN);
        assert!(
            begun.clone().any(|c| c.3[..4] != [0; 4]),
            "a barrier reply carries the death's eviction"
        );
        let mut bytes = vec![Vec::new(); c.workers];
        for (worker, round, request, reply) in calls.iter() {
            let out = &mut bytes[*worker as usize];
            out.extend_from_slice(&round.to_le_bytes());
            for payload in [request, reply] {
                out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                out.extend_from_slice(payload);
            }
        }
        let digests: Vec<u64> = bytes.iter().map(|b| checksum(b)).collect();
        let pinned = [
            644125246829761045,
            2277725362867754915,
            16584958039524008969,
        ];
        assert_eq!(digests, pinned, "per-worker request and reply bytes");
    }

    /// The bytes `put` lays down, as a payload.
    fn payload_of(put: impl FnOnce(&mut FrameBuf)) -> Vec<u8> {
        let mut frame = FrameBuf::new();
        frame.begin(MsgKind::Rpc, 0, 0);
        put(&mut frame);
        frame.payload().to_vec()
    }

    /// One op of every tag, over fixed arguments: NaN signal values, a `STATUS` with
    /// and without a pending signal, an empty and a NaN-carrying vector, a deposit.
    fn every_op() -> Vec<Op<'static>> {
        use crate::checkpoint::Section;
        let values = [f32::NAN, -0.0, 1.5, f32::INFINITY];
        let params: &'static [f32] = &[0.25, f32::NAN, -3.0];
        let deposit = Deposit {
            round: 4,
            fingerprint: 0xFEED,
            section: Section {
                name: "worker1".into(),
                ints: vec![3, u64::MAX],
                floats: vec![f32::NAN, 2.0],
            },
            shard: EventLog::default(),
        };
        vec![
            Op::Pull(u64::MAX),
            Op::RejoinPull(),
            Op::SchedRoundBefore(),
            Op::SyncRound(3, Floats::Slice(params)),
            Op::SyncRound(1, Floats::Slice(&[])),
            Op::Status(true, 3, Some((values, 17)), true),
            Op::Status(false, 1, None, false),
            Op::Signals(f32::NAN, 0.5, 2),
            Op::DeltaFor(),
            Op::Observe(values, true, 9),
            Op::RoundBegin(),
            Op::CkptDeposit(deposit),
        ]
    }

    #[test]
    fn every_op_and_reply_round_trips_through_its_codec() {
        let mut tags = std::collections::BTreeSet::new();
        for op in every_op() {
            let bytes = payload_of(|f| op.put(f));
            tags.insert(bytes[0]);
            let back = Op::take(&bytes).unwrap_or_else(|e| panic!("op {}: {e}", bytes[0]));
            assert_eq!(payload_of(|f| back.put(f)), bytes, "op {}", bytes[0]);
        }
        assert_eq!(tags, (op::PULL..=op::CKPT_DEPOSIT).collect());
        // Every reply shape, against the op it answers among three workers: empty and
        // full memberships, a `None` round, a status that did and one that did not
        // observe its round, NaN values.
        let status = |flags: [bool; 3], next, release| Status {
            flags: flags.to_vec(),
            next,
            release,
        };
        let nan = Arc::new(vec![f32::NAN, 1.0, -0.0]);
        let replies = [
            (Op::Pull(0), Reply::Floats(Floats::Shared(nan))),
            (
                Op::RejoinPull(),
                Reply::Floats(Floats::Shared(Arc::default())),
            ),
            (Op::SchedRoundBefore(), Reply::Round(None)),
            (Op::SchedRoundBefore(), Reply::Round(Some(12))),
            (Op::DeltaFor(), Reply::Delta(f32::NAN)),
            (
                Op::Signals(0.0, 0.0, 3),
                Reply::Signal([f32::NAN, 0.0, 1.0, 2.0]),
            ),
            (
                Op::Status(true, 3, None, false),
                Reply::Status(status([true; 3], None, None)),
            ),
            (
                Op::Status(false, 3, None, true),
                Reply::Status(status([false; 3], Some((9, 0.5)), Some(Vec::new()))),
            ),
            (
                Op::Status(true, 3, None, true),
                Reply::Status(status([true; 3], None, Some(vec![(1, 7)]))),
            ),
            (Op::RoundBegin(), Reply::Evictions(Vec::new())),
            (
                Op::RoundBegin(),
                Reply::Evictions(vec![(0, 3), (1, 7), (2, 9)]),
            ),
            (Op::Observe([0.0; 4], false, 1), Reply::Done),
        ];
        for (op, reply) in &replies {
            let bytes = payload_of(|f| reply.put(f));
            let back = Reply::take(op, 3, &bytes).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(payload_of(|f| back.put(f)), bytes);
        }
    }

    #[test]
    fn decoding_refuses_short_overlong_and_unknown_payloads() {
        for op in every_op() {
            let bytes = payload_of(|f| op.put(f));
            let fixed = !matches!(op, Op::SyncRound(..) | Op::CkptDeposit(_));
            if fixed && bytes.len() > 1 {
                assert!(
                    Op::take(&bytes[..bytes.len() - 1]).is_err(),
                    "op {} short",
                    bytes[0]
                );
            }
            let long = [&bytes[..], &[0]].concat();
            assert!(Op::take(&long).is_err(), "op {} long", bytes[0]);
        }
        for payload in [
            &[][..],
            &[0],
            &[11],
            &[255, 1, 2],
            &[op::STATUS, 2, 1, 0, 0, 0, 0],
        ] {
            assert!(Op::take(payload).is_err(), "{payload:?}");
        }
    }

    proptest::proptest! {
        #[test]
        fn decoding_random_bytes_never_panics(
            tag in 0u8..12,
            rest in proptest::collection::vec(0u16..256, 0..48),
            workers in 1usize..5,
        ) {
            let bytes: Vec<u8> = std::iter::once(tag).chain(rest.iter().map(|&b| b as u8)).collect();
            let _ = Op::take(&bytes);
            let _ = Op::take(&bytes[1..]);
            for op in every_op() {
                let _ = Reply::take(&op, workers, &bytes);
                let _ = Reply::take(&op, workers, &bytes[1..]);
            }
        }
    }

    #[test]
    fn a_malformed_request_is_its_workers_death_not_the_hubs() {
        use std::io::{Read, Write};
        use std::os::unix::net::UnixStream;
        // An empty payload, an unknown tag, a `STATUS` cut short and a sync of
        // one parameter: each is refused, its connection ends without a reply, and
        // the hub records the worker dead and serves on to a clean finish.
        let c = cfg(0.05, 4);
        let path = std::env::temp_dir().join(format!("selsync-malformed-{}", std::process::id()));
        let addr = SocketAddrSpec::Unix(path.clone());
        let hub = Arc::new(HubService::new(&c, None));
        let server = HubServer::bind(&addr).expect("binds");
        let sync = [op::SYNC_ROUND, 4, 0, 0, 0, 0, 0, 0, 0];
        let payloads: [&[u8]; 4] = [&[], &[42], &[op::STATUS, 1, 3, 0, 0, 0], &sync];
        let served = std::thread::scope(|scope| {
            let service: Arc<dyn RpcService> = hub.clone();
            let served = scope.spawn(|| server.serve(c.workers, service));
            for (worker, payload) in payloads.iter().enumerate() {
                let mut stream = UnixStream::connect(&path).expect("connects");
                let mut frame = FrameBuf::new();
                frame.begin(MsgKind::Rpc, 0, worker as u32);
                frame.put(payload);
                stream.write_all(frame.finish()).expect("writes");
                let mut reply = Vec::new();
                stream
                    .read_to_end(&mut reply)
                    .expect("reads to the hub's close");
                assert!(reply.is_empty(), "worker {worker} got a reply");
            }
            served.join().expect("hub thread")
        });
        std::fs::remove_file(&path).ok();
        assert!(served.is_ok(), "{served:?}");
        assert_eq!(hub.ledger.lock().dead, [true; 4]);
    }

    #[test]
    fn the_ledger_refuses_what_it_used_to_assert() {
        // One worker, so the barrier releases at once.
        let c = cfg(0.05, 1);
        let hub = HubService::new(&c, None);
        let serve = |round: u64, op: Op| {
            let request = payload_of(|f| op.put(f));
            hub.handle_into(0, round, &request, &mut FrameBuf::new())
        };
        assert!(serve(3, Op::RoundBegin()).is_ok());
        assert!(serve(3, Op::RoundBegin()).is_err(), "announced twice");
        assert!(
            serve(2, Op::RoundBegin()).is_err(),
            "announced out of order"
        );
        let deposit = |round, name: &str, fingerprint| Deposit {
            round,
            fingerprint,
            section: crate::checkpoint::Section::new(name),
            shard: EventLog::default(),
        };
        let ours = checkpoint::config_fingerprint(&c);
        for (round, name, fingerprint) in [
            (4, "worker0", ours),
            (3, "worker1", ours),
            (3, "worker0", 1),
        ] {
            let refused = serve(3, Op::CkptDeposit(deposit(round, name, fingerprint)));
            assert!(refused.is_err(), "{round} {name} {fingerprint}");
        }
        assert!(hub
            .handle_into(1, 3, &[op::DELTA_FOR], &mut FrameBuf::new())
            .is_err());
        assert!(!hub.ledger.lock().dead[0], "refusing is the server's call");
    }

    #[test]
    fn a_status_announce_stands_in_for_the_next_round_begin() {
        use crate::conditions::ClusterConditions;
        use crate::config::CheckpointSpec;
        let dir = std::env::temp_dir().join(format!("selsync-announce-{}", std::process::id()));
        // One worker, so every rendezvous completes at once; an image is due each round.
        let mut c = cfg(0.05, 1);
        c.checkpoint = Some(CheckpointSpec {
            every: 1,
            dir: dir.to_string_lossy().into_owned(),
            halt_after: None,
            keep: Some(1),
        });
        let hub = HubService::new(&c, None);
        let serve = |round: u64, op: Op| {
            let request = payload_of(|f| op.put(f));
            hub.handle_into(0, round, &request, &mut FrameBuf::new())
        };
        let signal = [1.0, 0.5, 0.0, 0.0];
        // Round `round`'s `STATUS` from the lone worker, which emits the round: the
        // release its reply carries.
        let status = |hub: &HubService, worker: u32, round: u64, flag, n, announce| {
            let pending = (worker == 0).then_some((signal, round + 1));
            let op = Op::Status(flag, n, pending, announce);
            let mut reply = FrameBuf::new();
            reply.begin(MsgKind::Rpc, round, HUB_SENDER);
            let request = payload_of(|f| op.put(f));
            let served = hub.handle_into(worker, round, &request, &mut reply);
            served.expect("a well-formed status");
            let reply = Reply::take(&op, hub.core.cfg.workers, reply.payload());
            Status::from(reply.expect("decodes")).release
        };
        assert!(serve(0, Op::RoundBegin()).is_ok());
        // Announced and released: round 1 has begun, and a sync round's ops of round
        // 0 are still served after the announce.
        assert_eq!(status(&hub, 0, 0, true, 1, true), Some(Vec::new()));
        let params = || Floats::Shared(Arc::new(vec![0.0; hub.dim]));
        assert!(serve(0, Op::SyncRound(1, params())).is_ok());
        assert!(serve(0, Op::Observe(signal, true, 1)).is_ok());
        let deposit = Deposit {
            round: 0,
            fingerprint: checkpoint::config_fingerprint(&c),
            section: crate::checkpoint::Section::new("worker0"),
            shard: EventLog::default(),
        };
        assert!(serve(0, Op::CkptDeposit(deposit)).is_ok());
        assert!(serve(0, Op::SyncRound(1, params())).is_err(), "a repeat");
        assert!(serve(1, Op::RoundBegin()).is_err(), "a released round");
        // Not announced: no release, and one `ROUND_BEGIN(2)` is owed.
        assert_eq!(status(&hub, 0, 1, false, 1, false), None);
        assert!(serve(2, Op::RoundBegin()).is_ok());
        assert!(serve(2, Op::RoundBegin()).is_err(), "announced twice");
        assert!(!hub.ledger.lock().dead[0]);
        std::fs::remove_dir_all(&dir).ok();

        // Worker 1 rejoins at round 1, so worker 0's announce in `STATUS(0)` releases
        // nothing, and both workers' `ROUND_BEGIN(1)` meet at the barrier.
        let mut c = cfg(0.05, 2);
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 1,
            start: 0,
            rejoin: Some(1),
        });
        let hub = HubService::new(&c, None);
        let serve = |worker: u32, round: u64, op: Op| {
            let request = payload_of(|f| op.put(f));
            hub.handle_into(worker, round, &request, &mut FrameBuf::new())
        };
        assert!(serve(0, 0, Op::RoundBegin()).is_ok());
        assert_eq!(status(&hub, 0, 0, false, 1, true), None);
        std::thread::scope(|scope| {
            let rejoiner = scope.spawn(|| serve(1, 1, Op::RoundBegin()));
            assert!(
                serve(0, 1, Op::RoundBegin()).is_ok(),
                "announced, not released"
            );
            assert!(rejoiner.join().expect("rejoiner").is_ok());
        });
        assert!(serve(0, 1, Op::RoundBegin()).is_err(), "announced twice");
        assert!(!hub.ledger.lock().dead.contains(&true));
    }

    #[test]
    fn the_hub_refuses_a_wrong_membership_count() {
        // One worker: round 0's only count is 1. A wrong one used to reach the
        // rendezvous's asserts and panic the hub.
        let hub = HubService::new(&cfg(0.05, 1), None);
        let served = |round: u64, op: Op| {
            let request = payload_of(|f| op.put(f));
            hub.handle_into(0, round, &request, &mut FrameBuf::new())
                .is_ok()
        };
        // The lone worker is its rounds' emitter: its bit carries the round's signal.
        let status = |n| Op::Status(false, n, Some(([1.0, 0.5, 0.0, 0.0], 1)), false);
        assert!(!served(0, status(1)), "before ROUND_BEGIN");
        assert!(served(0, Op::RoundBegin()));
        for n in [0, 2] {
            let params = Floats::Shared(std::sync::Arc::new(vec![0.0; hub.dim]));
            for op in [
                status(n),
                Op::Signals(1.0, 0.5, n),
                Op::SyncRound(n, params),
            ] {
                assert!(!served(0, op), "a count of {n}");
            }
        }
        assert!(!served(1, status(1)), "round 1 not announced");
        assert!(served(0, status(1)));
    }

    #[test]
    fn the_hub_refuses_a_repeated_rendezvous_op() {
        // Two workers. A worker's second `STATUS` of a round used to trip the
        // rendezvous's "contributed twice" assert while the round was open, and to
        // park forever in a new round after it had closed.
        let hub = HubService::new(&cfg(0.05, 2), None);
        let served = |worker: u32, op: Op| {
            let request = payload_of(|f| op.put(f));
            hub.handle_into(worker, 0, &request, &mut FrameBuf::new())
                .is_ok()
        };
        let status = |w: u32| {
            let pending = (w == 0).then_some(([1.0, 0.5, 0.0, 0.0], 1));
            Op::Status(false, 2, pending, false)
        };
        let repeat = std::thread::scope(|scope| {
            let begun: Vec<_> = (0..2)
                .map(|w| scope.spawn(move || served(w, Op::RoundBegin())))
                .collect();
            assert!(begun.into_iter().all(|b| b.join().expect("barrier")));
            let first = scope.spawn(|| served(0, status(0)));
            while hub.ledger.lock().met[0][1] != Some(0) {
                std::thread::yield_now();
            }
            // Caught, so that a panicking repeat fails the test instead of leaving
            // the first call parked in a round no one completes.
            let repeat =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| served(0, status(0))));
            assert!(served(1, status(1)), "the round completes");
            assert!(first.join().expect("the first call returns"));
            repeat
        });
        assert!(
            matches!(repeat, Ok(false)),
            "a repeat while the round is open"
        );
        assert!(!served(0, status(0)), "a repeat after the round closed");
        assert!(!served(1, status(1)));
        assert!(!hub.ledger.lock().dead.contains(&true));
    }

    #[test]
    fn the_hub_refuses_a_malformed_status_observe_or_delta_for() {
        // Two workers: worker 0 emits round 0. Each refused request used to reach an
        // assert or an `expect` on the hub's path and panic it.
        let hub = HubService::new(&cfg(0.05, 2), None);
        let served = |worker: u32, round: u64, op: Op| {
            let request = payload_of(|f| op.put(f));
            hub.handle_into(worker, round, &request, &mut FrameBuf::new())
                .is_ok()
        };
        let signal = [1.0, 0.5, 0.0, 0.0];
        let both = |op: &(dyn Fn(u32) -> Op<'static> + Sync)| {
            std::thread::scope(|scope| {
                let calls: Vec<_> = (0..2)
                    .map(|w| scope.spawn(move || served(w, 0, op(w))))
                    .collect();
                calls.into_iter().all(|call| call.join().expect("worker"))
            })
        };
        assert!(both(&|_| Op::RoundBegin()));
        assert!(
            !served(0, 0, Op::Status(false, 2, None, false)),
            "the emitter without"
        );
        assert!(
            !served(1, 0, Op::Status(false, 2, Some((signal, 1)), false)),
            "another with"
        );
        // A well-formed local round: its status all-gather observes round 0.
        assert!(both(&|w| Op::Status(
            false,
            2,
            (w == 0).then_some((signal, 1)),
            false
        )));
        assert!(
            !served(0, 3, Op::Observe(signal, false, 4)),
            "a future round"
        );
        assert!(!served(0, 0, Op::DeltaFor()), "an observed round");
        assert!(served(1, 1, Op::DeltaFor()), "the hub keeps serving");
        assert!(!hub.ledger.lock().dead.contains(&true));
    }

    #[test]
    fn the_barrier_ledger_stays_bounded_over_a_long_run() {
        use crate::conditions::ClusterConditions;
        // Worker 2 leaves for good at round 50 and worker 1 sits out 100..120: a round
        // whose worker stops announcing stays on file, but nothing else piles up.
        let mut c = cfg(0.05, 3);
        c.iterations = 200;
        c.conditions = ClusterConditions::uniform()
            .with_fault(FaultEvent::Crash {
                worker: 2,
                start: 50,
                rejoin: None,
            })
            .with_fault(FaultEvent::Crash {
                worker: 1,
                start: 100,
                rejoin: Some(120),
            });
        let hub = HubService::new(&c, None);
        // Each worker announces its next round inside every `STATUS` it will run, and
        // sends `ROUND_BEGIN` only where no release came back: at round 0 and at
        // worker 1's rejoin.
        let most = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..c.workers)
                .map(|w| {
                    let (hub, c) = (&hub, &c);
                    scope.spawn(move || {
                        let (mut most, mut released) = (0, None);
                        let present = |it| c.conditions.present_workers(c.workers, it);
                        for it in (0..c.iterations).filter(|&it| c.conditions.is_present(w, it)) {
                            if released != Some(it) {
                                hub.round_begin(w, it).expect("announced in order");
                                most = most.max(hub.ledger.lock().released.len());
                            }
                            let next = it + 1;
                            let announce = next < c.iterations && c.conditions.is_present(w, next);
                            let signal = [1.0, 0.5, 0.0, 0.0];
                            let pending = (present(it)[0] == w).then_some((signal, next as u64));
                            let served =
                                hub.status(w, it, (false, announce, pending), present(it).len());
                            let status: Status = served.expect("a well-formed status").into();
                            released = status.release.map(|_| next);
                            most = most.max(hub.ledger.lock().released.len());
                        }
                        most
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().expect("worker")).max()
        });
        // At most one round per worker: the one it began last.
        assert!(
            most.is_some_and(|m| m <= c.workers),
            "{most:?} rounds on file"
        );
        let mut left: Vec<usize> = hub.ledger.lock().released.keys().copied().collect();
        left.sort_unstable();
        assert_eq!(left, vec![49, 199]);
    }

    #[test]
    fn ensure_supported_names_the_offending_scenario_key() {
        let mut c = cfg(0.05, 3);
        c.algorithm = AlgorithmSpec::selsync_injected(0.5, 0.5, 0.3);
        c.non_iid_labels_per_worker = Some(4);
        let err = ensure_supported(&c).expect_err("injection over non-IID is simulator-only");
        assert_eq!(err.key, "scenario.non_iid_labels_per_worker");
        assert!(err
            .to_string()
            .starts_with("unsupported by the process backend"));

        // A cluster worker only knows parameter aggregation: push parameters, pull
        // the mean. Admitting GA would train PA under a `…,GA)` label.
        let mut c = cfg(0.05, 3);
        c.algorithm = AlgorithmSpec::selsync_ga(0.05);
        let err = ensure_supported(&c).expect_err("gradient aggregation is simulator-only");
        assert_eq!(err.key, "algorithm.aggregation");

        // Plain non-IID, checkpoints and BSP all run natively now.
        let mut c = cfg(0.05, 3);
        c.non_iid_labels_per_worker = Some(4);
        assert!(ensure_supported(&c).is_ok());
        let mut c = cfg(0.05, 3);
        c.algorithm = AlgorithmSpec::Bsp;
        assert!(ensure_supported(&c).is_ok());
    }

    #[test]
    fn worker_report_text_codec_round_trips() {
        let report = ThreadedWorkerReport {
            worker: 3,
            sync_steps: 7,
            local_steps: 13,
            sync_rounds: vec![0, 4, 9],
            final_loss: 1.25e-3,
            distance_to_global: 0.0,
        };
        let line = encode_worker_report(&report);
        let back = decode_worker_report(&line).expect("decodes");
        assert_eq!(format!("{back:?}"), format!("{report:?}"));
        let empty = ThreadedWorkerReport {
            sync_rounds: vec![],
            ..report
        };
        let back = decode_worker_report(&encode_worker_report(&empty)).expect("decodes");
        assert!(back.sync_rounds.is_empty());
    }
}
