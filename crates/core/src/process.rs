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
//! A worker's `ClusterLink` sends each op's control-plane envelope on the message
//! layer riding the [`SocketTransport`](selsync_comm::SocketTransport) (its legs ride
//! ahead of the next RPC and the hub echoes them verbatim, so retry, dedupe and
//! eviction semantics — and the [`crate::config::TrainConfig::comm_faults`] weather
//! composed *over* the socket — are bit-identical to the in-memory transports), then
//! makes the op's blocking RPC ([`selsync_comm::HubClient`]) into the hub's
//! [`RpcService`], which calls the very same `ClusterCore` / `ParameterServer` /
//! `SignalBoard` methods the threaded driver calls in-process. A fault-free local
//! round is two calls: `op::ROUND_BEGIN`, and `op::STATUS`, whose reply carries the
//! next round's δ once the all-gather has observed the round. Worker-order folds,
//! round-keyed rendezvous and the board's round-ordered observation stream are all
//! hub-side, so the merged event log is the threaded driver's — and the simulator's —
//! byte for byte (`tests/process_parity.rs`).
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
//! **Worker death.** A connection that terminates after identification — clean EOF or
//! broken pipe alike — is mapped by the hub to a deterministic eviction at the dead
//! worker's next scheduled-present round, published to the survivors through the
//! per-round `op::ROUND_BEGIN` barrier: every present worker of a round folds the
//! identical frozen eviction prefix, so the surviving cluster continues exactly as if
//! the schedule had carried a no-rejoin crash at that round. Out of contract: a death
//! mid-round after the worker announced it (in-flight rendezvous may hang), the death
//! of a round's sole present worker, and a death racing an in-flight checkpoint (that
//! image is voided, not written).
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
use crate::policy::{run_policy_spec, PolicySpec, RoundSignal, SyncRule};
use crate::sim::{RoundOutput, Simulator};
use crate::threaded::{ClusterCore, ThreadedWorkerReport};
use crate::worker::{message_layer, run_worker, ClusterLink, Envelopes};
use parking_lot::{Condvar, Mutex};
use selsync_comm::socket::{HubClient, HubServer, RpcService, SocketAddrSpec, SocketConn};
use selsync_comm::wire::{
    f32s_from_le_bytes, f32s_from_le_bytes_into, FrameBuf, MsgKind, HUB_SENDER,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// How long a worker keeps retrying its initial connect while the hub binds.
pub const CONNECT_RETRY: Duration = Duration::from_secs(30);

/// RPC operation tags (first payload byte; arguments follow, little-endian), one per
/// `ClusterLink` op that reaches the hub; the frame's round field is the op's round.
mod op {
    pub const PULL: u8 = 1;
    pub const REJOIN_PULL: u8 = 2;
    pub const SCHED_ROUND_BEFORE: u8 = 3;
    pub const SYNC_ROUND: u8 = 4;
    pub const STATUS: u8 = 5;
    pub const SIGNALS: u8 = 6;
    pub const DELTA_FOR: u8 = 7;
    pub const OBSERVE: u8 = 8;
    pub const ROUND_BEGIN: u8 = 9;
    pub const CKPT_DEPOSIT: u8 = 10;
}

/// Wire shape of a round signal's values: max Δ, mean loss, Δ mean, Δ² mean.
fn put_signal(frame: &mut FrameBuf, s: &RoundSignal) {
    frame.put_f32s(&[s.max_delta, s.mean_loss, s.delta_mean, s.delta_sq_mean]);
}

/// Inverse of [`put_signal`], for round `iteration` (`synced` unset).
fn read_signal(bytes: &[u8], iteration: usize) -> RoundSignal {
    RoundSignal::of(iteration, std::array::from_fn(|i| read_f32(bytes, 4 * i)))
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn read_f32(bytes: &[u8], at: usize) -> f32 {
    f32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// The hub side of the RPC surface: dispatches worker requests to the very same
/// cluster-core / parameter-server / signal-board methods the threaded driver
/// calls in-process. Blocking rendezvous ops block the calling connection's
/// hub thread, which is exactly the rendezvous behaviour the threaded workers
/// get from blocking in-process calls.
struct HubService {
    cfg: TrainConfig,
    /// The shared cluster state. Its membership schedule is the *base* one;
    /// runtime death evictions layer on top in the ledger, never mutating it,
    /// and are never scheduled before its first round.
    core: ClusterCore,
    ledger: Mutex<Ledger>,
    cv: Condvar,
}

/// The hub's runtime membership + checkpoint bookkeeping, all under one lock
/// so a death atomically updates the barrier, the eviction list and any
/// in-flight checkpoint gather.
struct Ledger {
    /// Per worker: the newest round announced through `op::ROUND_BEGIN`.
    last_begun: Vec<Option<usize>>,
    /// Per worker: whether its connection has terminated.
    dead: Vec<bool>,
    /// Death evictions in creation order: `(worker, first-absent round)`.
    evictions: Vec<(usize, usize)>,
    /// Per released round: the eviction count frozen at its barrier release —
    /// every `ROUND_BEGIN` reply for that round carries the identical prefix,
    /// keeping the folded membership a pure function of the round. A round stays
    /// on file while one of its present workers may still be parked in it.
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
            dead: vec![false; n],
            evictions: Vec::new(),
            released: HashMap::new(),
            ckpt_round: None,
            ckpt_deposits: (0..n).map(|_| None).collect(),
            ckpt_released: None,
        }
    }

    /// Forget the released rounds no one can still wait in: each of the round's
    /// present workers has died or announced a later round, so it has returned from
    /// this one. What stays is at most one round per worker, its newest.
    fn prune_released(&mut self, conditions: &ClusterConditions) {
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
}

/// Reply wire shape of `op::ROUND_BEGIN`: count, then `(worker, round)` pairs.
fn put_evictions(reply: &mut FrameBuf, evictions: &[(usize, usize)]) {
    reply.put(&(evictions.len() as u32).to_le_bytes());
    for &(worker, round) in evictions {
        reply.put(&(worker as u32).to_le_bytes());
        reply.put(&(round as u64).to_le_bytes());
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
        HubService {
            cfg: cfg.clone(),
            core: ClusterCore::build(cfg, &spec, resume),
            ledger: Mutex::new(Ledger::new(cfg.workers)),
            cv: Condvar::new(),
        }
    }

    /// The round-boundary membership barrier. A present worker announces round
    /// `it` before any other traffic of the round; the call blocks until every
    /// base-present worker of the round has either announced it or died, then
    /// returns the eviction prefix frozen at the barrier's release — identical
    /// for every present worker of the round.
    fn round_begin(&self, worker: usize, it: usize, reply: &mut FrameBuf) {
        let n = self.cfg.workers;
        let mut s = self.ledger.lock();
        assert!(!s.dead[worker], "dead worker {worker} announced round {it}");
        assert!(
            s.last_begun[worker].is_none_or(|r| r < it),
            "worker {worker} announced round {it} out of order"
        );
        s.last_begun[worker] = Some(it);
        s.prune_released(&self.core.conditions);
        self.cv.notify_all();
        loop {
            // Released rounds stay on file until their waiters have returned: a
            // parked waiter always finds its round here first, even after faster
            // workers advanced past it.
            if let Some(&frozen) = s.released.get(&it) {
                return put_evictions(reply, &s.evictions[..frozen]);
            }
            let complete = self
                .core
                .conditions
                .present_workers(n, it)
                .into_iter()
                .all(|w| s.dead[w] || s.last_begun[w].is_some_and(|r| r >= it));
            if complete {
                let frozen = s.evictions.len();
                s.released.insert(it, frozen);
                self.cv.notify_all();
                return put_evictions(reply, &s.evictions[..frozen]);
            }
            self.cv.wait(&mut s);
        }
    }

    /// Gather one worker's checkpoint [`Deposit`], sent in round `round`'s frame,
    /// and park the calling connection until the round's image is written (or
    /// voided by a death) — the worker resumes only past the quiescent point.
    fn ckpt_deposit(&self, worker: usize, round: u64, payload: &[u8]) {
        let deposit = Deposit::parse(payload).unwrap_or_else(|e| {
            panic!("worker {worker}'s checkpoint deposit fails to decode: {e}")
        });
        let it = deposit.round;
        assert_eq!(it as u64, round, "worker {worker}'s deposit round");
        assert_eq!(
            deposit.fingerprint,
            checkpoint::config_fingerprint(&self.cfg),
            "worker {worker}'s deposit belongs to a different configuration"
        );
        assert_eq!(
            deposit.section.name,
            format!("worker{worker}"),
            "worker {worker}'s deposit section"
        );
        let mut s = self.ledger.lock();
        assert!(
            s.ckpt_round.is_none_or(|r| r == it),
            "checkpoint rounds interleaved: deposit for {it} while gathering {:?}",
            s.ckpt_round
        );
        s.ckpt_round = Some(it);
        assert!(
            s.ckpt_deposits[worker].is_none(),
            "worker {worker} deposited twice for round {it}"
        );
        s.ckpt_deposits[worker] = Some(deposit);
        let mut s = self.finish_checkpoint_if_complete(s);
        while s.ckpt_released.is_none_or(|r| r < it) {
            self.cv.wait(&mut s);
        }
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
        let n = self.cfg.workers;
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
            self.core
                .write_image(&self.cfg, "process", it, sections, shards);
        }
        let mut s = self.ledger.lock();
        s.ckpt_released = Some(it);
        self.cv.notify_all();
        s
    }
}

impl RpcService for HubService {
    fn handle(&self, worker: u32, round: u64, request: &[u8]) -> Vec<u8> {
        let mut reply = FrameBuf::new();
        reply.begin(MsgKind::Rpc, round, HUB_SENDER);
        self.handle_into(worker, round, request, &mut reply);
        reply.payload().to_vec()
    }

    fn handle_into(&self, worker: u32, round: u64, request: &[u8], reply: &mut FrameBuf) {
        let (worker, it) = (worker as usize, round as usize);
        let args = &request[1..];
        let ClusterCore { handles, board, .. } = &self.core;
        let ps = &handles.ps;
        match request[0] {
            op::PULL => reply.put_f32s(&self.core.pull(read_u64(args, 0) as usize)),
            op::REJOIN_PULL => reply.put_f32s(&self.core.rejoin_pull(&self.cfg, it)),
            op::SCHED_ROUND_BEFORE => match ps.scheduled_round_before(round) {
                Some(r) => {
                    reply.put(&[1]);
                    reply.put(&r.to_le_bytes());
                }
                None => reply.put(&[0]),
            },
            op::SYNC_ROUND => {
                let expected = read_u32(args, 0) as usize;
                let fill = |buf: &mut Vec<f32>| f32s_from_le_bytes_into(&args[4..], buf);
                reply.put_f32s(&ps.sync_round_shared(round, worker, expected, fill));
            }
            op::STATUS => {
                let (flag, expected) = (args[0] != 0, read_u32(args, 1) as usize);
                let pending = (args[5] != 0)
                    .then(|| (read_signal(&args[6..], it), read_u64(args, 22) as usize));
                let status = self.core.status(it, worker, flag, expected, pending);
                for flag in status.flags {
                    reply.put(&[u8::from(flag)]);
                }
                match status.next {
                    Some((next, delta)) => {
                        reply.put(&[1]);
                        reply.put(&(next as u64).to_le_bytes());
                        reply.put(&delta.to_le_bytes());
                    }
                    None => reply.put(&[0]),
                }
            }
            op::SIGNALS => {
                let (loss, delta) = (read_f32(args, 0), read_f32(args, 4));
                let expected = read_u32(args, 8) as usize;
                put_signal(reply, &self.core.signals(it, worker, loss, delta, expected));
            }
            op::DELTA_FOR => reply.put(&board.delta_for(it).to_le_bytes()),
            op::OBSERVE => {
                let mut signal = read_signal(args, it);
                signal.synced = args[16] != 0;
                board.observe(signal, read_u64(args, 17) as usize);
            }
            op::ROUND_BEGIN => self.round_begin(worker, it, reply),
            op::CKPT_DEPOSIT => self.ckpt_deposit(worker, round, args),
            other => panic!("unknown rpc op {other} from worker {worker}"),
        }
    }

    /// A worker's connection terminated — cleanly or not. Record the death and
    /// schedule a deterministic eviction at the first round boundary the base
    /// schedule still expects it, so the surviving cluster folds the loss
    /// exactly like a scheduled no-rejoin crash. A clean run reaches this
    /// after the worker's last round, where the search finds no remaining
    /// present round and schedules nothing.
    fn connection_closed(&self, worker: u32) {
        let worker = worker as usize;
        let mut s = self.ledger.lock();
        if s.dead[worker] {
            return;
        }
        s.dead[worker] = true;
        let from = s.last_begun[worker].map_or(self.core.start, |r| r + 1);
        if let Some(round) =
            (from..self.cfg.iterations).find(|&r| self.core.conditions.is_present(worker, r))
        {
            s.evictions.push((worker, round));
        }
        self.cv.notify_all();
        let _s = self.finish_checkpoint_if_complete(s);
    }
}

/// A worker process's [`ClusterLink`]: its envelopes, then blocking RPCs whose names
/// and argument shapes match the in-process calls they stand in for.
struct RemoteCluster<'a> {
    env: Envelopes<'a>,
    client: HubClient,
    kill_at: Option<usize>,
    /// The next active round and its δ, as the last status all-gather that observed
    /// its round answered them.
    next_delta: Option<(usize, f32)>,
}

impl RemoteCluster<'_> {
    /// One blocking RPC for round `it`: the op tag, then whatever `args` appends, out;
    /// the reply payload lent to `reply` where it was received.
    fn request<R>(
        &self,
        it: usize,
        op: u8,
        args: impl FnOnce(&mut FrameBuf),
        reply: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let request = |frame: &mut FrameBuf| {
            frame.put(&[op]);
            args(frame);
        };
        self.client.call(it as u64, request, reply)
    }
}

impl ClusterLink for RemoteCluster<'_> {
    fn dies_at(&self, it: usize) -> bool {
        // Abrupt death: the connection drops at a frame boundary and the rest of the
        // cluster learns of it at its next round boundary.
        self.kill_at == Some(it)
    }

    /// Blocks until the hub releases the round's barrier; the reply is the
    /// eviction prefix frozen at that release.
    fn round_begin(&mut self, it: usize) -> Vec<(usize, usize)> {
        self.request(
            it,
            op::ROUND_BEGIN,
            |_| {},
            |reply| {
                let count = read_u32(reply, 0) as usize;
                let entry = |at| {
                    (
                        read_u32(reply, at) as usize,
                        read_u64(reply, at + 4) as usize,
                    )
                };
                (0..count).map(|i| entry(4 + i * 12)).collect()
            },
        )
    }

    fn farewell(&mut self, it: usize, _worker: usize) {
        self.env.farewell(it)
    }

    fn rejoin_pull(&mut self, it: usize, _worker: usize) -> Vec<f32> {
        self.env.rejoin(it);
        self.request(it, op::REJOIN_PULL, |_| {}, f32s_from_le_bytes)
    }

    fn scheduled_round_before(&self, it: usize) -> Option<usize> {
        let decode = |reply: &[u8]| (reply[0] != 0).then(|| read_u64(reply, 1) as usize);
        self.request(it, op::SCHED_ROUND_BEFORE, |_| {}, decode)
    }

    fn signals(&mut self, it: usize, round: &RoundOutput, expected: usize) -> RoundSignal {
        let (loss, delta) = (round.stats[0].loss, round.deltas[0]);
        self.env.signals(it, loss, delta);
        let args = |frame: &mut FrameBuf| {
            frame.put_f32s(&[loss, delta]);
            frame.put(&(expected as u32).to_le_bytes());
        };
        self.request(it, op::SIGNALS, args, |reply| read_signal(reply, it))
    }

    /// The δ the last observing status all-gather answered, when it is this round's;
    /// otherwise (the first round, a resumed run, the round after a sync, a worker
    /// that sat rounds out) the board's, over its own RPC.
    fn delta_for(&mut self, it: usize) -> f32 {
        match self.next_delta.take() {
            Some((next, delta)) if next == it => delta,
            _ => self.request(it, op::DELTA_FOR, |_| {}, |reply| read_f32(reply, 0)),
        }
    }

    fn status(
        &mut self,
        it: usize,
        present: &[usize],
        flags: Vec<bool>,
        pending: Option<(RoundSignal, usize)>,
    ) -> (Vec<bool>, bool) {
        let flag = flags[self.env.worker];
        self.env.status(it, flag);
        let args = |frame: &mut FrameBuf| {
            frame.put(&[flag as u8]);
            frame.put(&(present.len() as u32).to_le_bytes());
            match pending {
                Some((signal, next)) => {
                    frame.put(&[1]);
                    put_signal(frame, &signal);
                    frame.put(&(next as u64).to_le_bytes());
                }
                None => frame.put(&[0]),
            }
        };
        let n = flags.len();
        let decode = |reply: &[u8]| {
            let flags = reply[..n].iter().map(|&b| b != 0).collect();
            let next =
                (reply[n] != 0).then(|| (read_u64(reply, n + 1) as usize, read_f32(reply, n + 9)));
            (flags, next)
        };
        let (flags, next) = self.request(it, op::STATUS, args, decode);
        self.next_delta = next;
        (flags, next.is_some())
    }

    fn sync(&mut self, it: usize, contributions: &[&[f32]], expected: usize, mean: &mut Vec<f32>) {
        let params = contributions[0];
        self.env.sync(it, params.len());
        let args = |frame: &mut FrameBuf| {
            frame.put(&(expected as u32).to_le_bytes());
            frame.put_f32s(params);
        };
        let decode = |reply: &[u8]| f32s_from_le_bytes_into(reply, mean);
        self.request(it, op::SYNC_ROUND, args, decode)
    }

    fn observe(&mut self, signal: RoundSignal, next_round: usize) {
        let args = |frame: &mut FrameBuf| {
            put_signal(frame, &signal);
            frame.put(&[signal.synced as u8]);
            frame.put(&(next_round as u64).to_le_bytes());
        };
        self.request(signal.iteration, op::OBSERVE, args, |_| {});
    }

    /// Ships the section together with this process's trace shard so far, as a
    /// binary [`Deposit`] written straight into the frame, and parks inside the
    /// RPC until the hub has written (or voided) the round's image.
    fn checkpoint(&mut self, it: usize, group: &Simulator) {
        let cfg = self.env.cfg;
        let deposit = Deposit {
            round: it,
            fingerprint: checkpoint::config_fingerprint(cfg),
            section: group.workers[0].section(self.env.worker),
            shard: cfg.trace.snapshot_log(),
        };
        self.request(it, op::CKPT_DEPOSIT, |f| deposit.put(f), |_| {});
    }

    fn pull(&self, end: usize) -> Vec<f32> {
        let request = |f: &mut FrameBuf| {
            f.put(&[op::PULL]);
            f.put(&(end as u64).to_le_bytes());
        };
        self.client.call(u64::MAX, request, f32s_from_le_bytes)
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
    let mut hub = RemoteCluster {
        env: Envelopes {
            cfg,
            layer: &layer,
            worker,
        },
        client: conn.client(worker as u32),
        kill_at: opts.kill_at,
        next_delta: None,
    };
    let report = run_worker(cfg, (rule, &spec), group, &mut hub, opts.resume);
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
        use crate::config::{CheckpointSpec, RejoinPull};
        use crate::threaded::run_threaded_selsync_resumed;
        let dir =
            std::env::temp_dir().join(format!("selsync-cross-resume-test-{}", std::process::id()));
        // A crash window straddling the halt round (scheduled rejoin pulls: the
        // snapshot ring is part of the image) under the stateful adaptive policy.
        let make = |ckpt_dir: Option<&str>| {
            let mut c = cfg(0.05, 3);
            c.rejoin_pull = RejoinPull::Scheduled;
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

        fn handle_into(&self, worker: u32, round: u64, request: &[u8], reply: &mut FrameBuf) {
            self.calls.lock().push((worker, round, request[0]));
            self.inner.handle_into(worker, round, request, reply)
        }

        fn connection_closed(&self, worker: u32) {
            self.inner.connection_closed(worker)
        }
    }

    /// Each worker's in-round hub calls on a fault-free run of `c`, in call order,
    /// and worker 0's synchronized rounds.
    fn hub_calls(c: &TrainConfig, tag: &str) -> (Vec<Vec<(u64, u8)>>, Vec<usize>) {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&calls);
        let hub = move |cfg: &TrainConfig, addr: &SocketAddrSpec| {
            let inner = HubService::new(cfg, None);
            serve_hub(cfg, addr, Arc::new(Counting { inner, calls: log }))
        };
        let (reports, _) = run_in_process_cluster_over(c, tag, None, None, hub);
        let mut per_worker = vec![Vec::new(); c.workers];
        for &(worker, round, op) in calls.lock().iter() {
            if op != op::PULL {
                per_worker[worker as usize].push((round, op));
            }
        }
        (per_worker, reports[0].sync_rounds.clone())
    }

    #[test]
    fn a_local_round_is_two_hub_round_trips_per_worker() {
        use op::{DELTA_FOR, OBSERVE, ROUND_BEGIN, STATUS, SYNC_ROUND};
        // Every round local: `ROUND_BEGIN` and `STATUS`, whose reply carries the next
        // round's δ, so `DELTA_FOR` is asked at round 0 only and the status
        // all-gather observes every round — no `OBSERVE`. The flags envelope rides
        // the `STATUS` call instead of making round trips of its own.
        let c = cfg(1e9, 3);
        let (calls, synced) = hub_calls(&c, "trips-local");
        assert!(synced.is_empty(), "δ = 1e9 must keep every round local");
        let rounds = 0..c.iterations as u64;
        for (worker, calls) in calls.iter().enumerate() {
            let expected: Vec<(u64, u8)> = rounds
                .clone()
                .flat_map(|r| {
                    let delta = (r == 0).then_some((r, DELTA_FOR));
                    [Some((r, ROUND_BEGIN)), delta, Some((r, STATUS))]
                })
                .flatten()
                .collect();
            assert_eq!(*calls, expected, "worker {worker}");
        }
        // Every round synchronized (δ = 0): the round after a sync asks its δ, and
        // rank 0 observes each round after its sync.
        let c = cfg(0.0, 3);
        let (calls, synced) = hub_calls(&c, "trips-sync");
        assert_eq!(synced, (0..c.iterations).collect::<Vec<_>>());
        for (worker, calls) in calls.iter().enumerate() {
            let expected: Vec<(u64, u8)> = rounds
                .clone()
                .flat_map(|r| {
                    let observe = (worker == 0).then_some((r, OBSERVE));
                    let sync = [
                        (r, ROUND_BEGIN),
                        (r, DELTA_FOR),
                        (r, STATUS),
                        (r, SYNC_ROUND),
                    ];
                    sync.into_iter().map(Some).chain([observe])
                })
                .flatten()
                .collect();
            assert_eq!(*calls, expected, "worker {worker}");
        }
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
        let most = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..c.workers)
                .map(|w| {
                    let (hub, c) = (&hub, &c);
                    scope.spawn(move || {
                        let mut most = 0;
                        for it in (0..c.iterations).filter(|&it| c.conditions.is_present(w, it)) {
                            hub.round_begin(w, it, &mut FrameBuf::new());
                            most = most.max(hub.ledger.lock().released.len());
                        }
                        most
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().expect("worker")).max()
        });
        // At most one round per worker: the one it announced last.
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
