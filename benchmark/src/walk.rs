//! The traced run: replay a workload's per-round call sequence out of the
//! crates' public calls, with one span around each call.
//!
//! In-program telemetry is a later change (ROADMAP D); until then the only way
//! to see where a round's time goes is to rebuild the round from outside. The
//! walk mirrors the backend's driver operation for operation — same batches,
//! same dropout positions, same optimizer and tracker, the same control
//! exchanges against a real `HubServer` / `ParameterServer` / `Collective` — so
//! its synchronization schedule must equal the oracle's, which is checked. Spans
//! stay in memory while the rounds run and are written to
//! `benchmark/out/trace-<workload>.jsonl` afterwards. End-to-end metrics are
//! never taken from here.

use crate::child::{join_rounds, parse_rounds};
use crate::json::Json;
use crate::runner::{self, out_root};
use crate::workloads::{train_config, Backend, Workload};
use selsync::checkpoint::{Checkpoint, Section};
use selsync::config::TrainConfig;
use selsync::policy::{DeltaPolicy, PolicySpec, RoundSignal, SyncDecision, SyncPolicy};
use selsync::sim::{self, Simulator};
use selsync::tracker::{GradStatistic, GradientTracker};
use selsync_comm::cluster::{make_handles, ClusterHandles};
use selsync_comm::socket::{HubClient, HubServer, RpcService, SocketAddrSpec, SocketConn};
use selsync_comm::wire::MsgKind;
use selsync_comm::{CommFaultSchedule, MessageLayer, ScalarOp};
use selsync_data::dataset::Dataset;
use selsync_nn::model::PaperModel;
use selsync_scenario::Scenario;
use selsync_tracelog::{codec, Event, TraceGranularity, TraceSink};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One recorded call. `parent` is the position, among the same worker's spans,
/// of the span that caused it (the round span for every layer call); spans of
/// one round share `round`. Names are static while recording and owned when
/// read back from a walked worker process.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub worker: u32,
    pub round: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The crate a span belongs to: its name's first segment (`nn.optim_step` →
/// `nn`). Round spans (`round`) carry the harness's own loop overhead.
pub fn layer_of(span_name: &str) -> &str {
    span_name.split('.').next().unwrap_or(span_name)
}

/// Self time of every span: its duration minus the part of that interval its
/// child spans cover. Children of one parent never overlap here (a worker is
/// single-threaded), so the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// Per-worker span recorder.
struct Tracer {
    epoch: Instant,
    worker: u32,
    spans: Vec<Span>,
    round: u32,
    round_span: usize,
}

impl Tracer {
    fn new(epoch: Instant, worker: usize) -> Self {
        Tracer {
            epoch,
            worker: worker as u32,
            spans: Vec::new(),
            round: 0,
            round_span: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin_round(&mut self, round: usize) {
        self.round = round as u32;
        self.round_span = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name: Cow::Borrowed("round"),
            worker: self.worker,
            round: self.round,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
    }

    fn end_round(&mut self) {
        self.spans[self.round_span].end_ns = self.now();
    }

    /// Run `f` inside a span named `name`, child of the current round.
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now();
        let result = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            worker: self.worker,
            round: self.round,
            parent: Some(self.round_span),
            start_ns,
            end_ns,
        });
        result
    }
}

/// The cluster-level δ policy as the drivers' signal board serializes it: a
/// round's δ is available only after the previous round was observed.
struct Board {
    state: Mutex<(usize, Box<dyn DeltaPolicy>)>,
    decided: Condvar,
}

impl Board {
    fn new(delta: f32) -> Self {
        Board {
            state: Mutex::new((0, PolicySpec::Fixed { delta }.build())),
            decided: Condvar::new(),
        }
    }

    fn delta_for(&self, round: usize) -> f32 {
        let mut state = self.state.lock().expect("board lock");
        while state.0 < round {
            state = self.decided.wait(state).expect("board lock");
        }
        state.1.delta(round)
    }

    fn observe(&self, signal: &RoundSignal, next_round: usize) {
        let mut state = self.state.lock().expect("board lock");
        state.1.observe(signal);
        state.0 = next_round;
        self.decided.notify_all();
    }
}

/// How a walked worker reaches the cluster's shared state. Each method records
/// its own span(s), named after what carries the call on that backend.
trait Link: Sync {
    fn pull(&self) -> Vec<f32>;
    fn round_begin(&self, t: &mut Tracer, round: usize);
    fn delta_for(&self, t: &mut Tracer, round: usize) -> f32;
    fn allgather_flags(&self, t: &mut Tracer, worker: usize, round: usize, flag: bool)
        -> Vec<bool>;
    fn sync_round(&self, t: &mut Tracer, worker: usize, round: usize, params: &[f32]) -> Vec<f32>;
    fn observe(&self, t: &mut Tracer, signal: RoundSignal);
    fn checkpoint(&self, t: &mut Tracer, round: usize, deposit: Checkpoint);
}

/// Threaded backend: the shared state is in this address space.
struct Shared {
    handles: ClusterHandles,
    board: Board,
}

impl Link for Shared {
    fn pull(&self) -> Vec<f32> {
        self.handles.ps.pull()
    }
    fn round_begin(&self, _t: &mut Tracer, _round: usize) {}
    fn delta_for(&self, t: &mut Tracer, round: usize) -> f32 {
        t.call("core.board_delta_for", || self.board.delta_for(round))
    }
    fn allgather_flags(
        &self,
        t: &mut Tracer,
        worker: usize,
        round: usize,
        flag: bool,
    ) -> Vec<bool> {
        let n = self.handles.world_size;
        t.call("comm.allgather_flags", || {
            self.handles
                .collective
                .allgather_flags_among(round as u64, worker, flag, n)
        })
    }
    fn sync_round(&self, t: &mut Tracer, worker: usize, round: usize, params: &[f32]) -> Vec<f32> {
        let n = self.handles.world_size;
        t.call("comm.ps_sync", || {
            self.handles
                .ps
                .sync_round_elastic(round as u64, worker, params, n)
        })
    }
    fn observe(&self, t: &mut Tracer, signal: RoundSignal) {
        t.call("core.board_observe", || {
            self.board.observe(&signal, signal.iteration + 1)
        });
    }
    fn checkpoint(&self, _t: &mut Tracer, _round: usize, _deposit: Checkpoint) {
        unreachable!("no threaded workload checkpoints");
    }
}

/// RPC operation tags of the walk's hub (first payload byte).
mod op {
    pub const PULL: u8 = 1;
    pub const SYNC_ROUND: u8 = 4;
    pub const ALLGATHER_FLAGS: u8 = 5;
    pub const DELTA_FOR: u8 = 9;
    pub const OBSERVE: u8 = 10;
    pub const ROUND_BEGIN: u8 = 11;
    pub const CKPT_DEPOSIT: u8 = 12;
}

pub fn f32s_to_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

/// The hub side of the process walk: the same parameter-server, collective and
/// board calls the process backend's hub makes, behind the same one-byte-op RPC
/// framing and the same payload sizes.
struct WalkHub {
    shared: Shared,
    /// Checkpoint deposits of the gathering round; the last arriver assembles
    /// and writes the image, then releases the others.
    deposits: Mutex<(Vec<String>, usize)>,
    written: Condvar,
}

impl RpcService for WalkHub {
    fn handle(&self, worker: u32, round: u64, request: &[u8]) -> Vec<u8> {
        let worker = worker as usize;
        let handles = &self.shared.handles;
        let n = handles.world_size;
        let args = &request[1..];
        match request[0] {
            op::PULL => f32s_to_bytes(&handles.ps.pull()),
            op::ROUND_BEGIN => {
                // The round-boundary barrier; the reply is an empty eviction list.
                handles
                    .collective
                    .allreduce_scalar_among(round, worker, 0.0, n, ScalarOp::Sum);
                0u32.to_le_bytes().to_vec()
            }
            op::DELTA_FOR => self
                .shared
                .board
                .delta_for(round as usize)
                .to_le_bytes()
                .to_vec(),
            op::ALLGATHER_FLAGS => handles
                .collective
                .allgather_flags_among(round, worker, args[0] != 0, n)
                .into_iter()
                .map(u8::from)
                .collect(),
            op::SYNC_ROUND => f32s_to_bytes(&handles.ps.sync_round_elastic(
                round,
                worker,
                &bytes_to_f32s(&args[4..]),
                n,
            )),
            op::OBSERVE => {
                let signal = RoundSignal {
                    iteration: round as usize,
                    max_delta: f32::from_le_bytes(args[0..4].try_into().expect("f32")),
                    mean_loss: f32::from_le_bytes(args[4..8].try_into().expect("f32")),
                    delta_mean: f32::from_le_bytes(args[8..12].try_into().expect("f32")),
                    delta_sq_mean: f32::from_le_bytes(args[12..16].try_into().expect("f32")),
                    synced: args[16] != 0,
                };
                self.shared.board.observe(&signal, signal.iteration + 1);
                Vec::new()
            }
            op::CKPT_DEPOSIT => {
                let text = String::from_utf8(args.to_vec()).expect("deposit is UTF-8");
                let mut gather = self.deposits.lock().expect("deposit lock");
                gather.0.push(text);
                if gather.0.len() == n {
                    let mut image = Checkpoint::new("process", 0, round as usize);
                    let mut ps = Section::new("ps");
                    ps.push_f32s(&handles.ps.pull());
                    image.add_section(ps);
                    for text in gather.0.drain(..) {
                        let deposit = Checkpoint::decode(&text).expect("deposit decodes");
                        image.sections.extend(deposit.sections);
                        image.trace.extend(deposit.trace);
                    }
                    // Relative: the hub process runs inside the walk's run directory.
                    image
                        .write_file("ckpt-walk")
                        .expect("write walk checkpoint");
                    gather.1 += 1;
                    self.written.notify_all();
                } else {
                    let generation = gather.1;
                    while gather.1 == generation {
                        gather = self.written.wait(gather).expect("deposit lock");
                    }
                }
                Vec::new()
            }
            other => panic!("walk hub: unknown op {other}"),
        }
    }
}

/// Process backend: every shared-state touch is one blocking RPC to the hub.
struct Remote {
    client: HubClient,
    workers: usize,
}

impl Remote {
    fn request(&self, round: usize, op: u8, args: &[u8]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(1 + args.len());
        payload.push(op);
        payload.extend_from_slice(args);
        self.client.rpc(round as u64, payload)
    }
}

impl Link for Remote {
    fn pull(&self) -> Vec<f32> {
        bytes_to_f32s(&self.request(0, op::PULL, &[]))
    }
    fn round_begin(&self, t: &mut Tracer, round: usize) {
        t.call("comm.rpc_round_begin", || {
            self.request(round, op::ROUND_BEGIN, &(round as u64).to_le_bytes())
        });
    }
    fn delta_for(&self, t: &mut Tracer, round: usize) -> f32 {
        t.call("comm.rpc_delta_for", || {
            let reply = self.request(round, op::DELTA_FOR, &(round as u64).to_le_bytes());
            f32::from_le_bytes(reply[0..4].try_into().expect("f32 reply"))
        })
    }
    fn allgather_flags(
        &self,
        t: &mut Tracer,
        _worker: usize,
        round: usize,
        flag: bool,
    ) -> Vec<bool> {
        t.call("comm.rpc_allgather_flags", || {
            let mut args = vec![flag as u8];
            args.extend((self.workers as u32).to_le_bytes());
            self.request(round, op::ALLGATHER_FLAGS, &args)
                .into_iter()
                .map(|b| b != 0)
                .collect()
        })
    }
    fn sync_round(&self, t: &mut Tracer, _worker: usize, round: usize, params: &[f32]) -> Vec<f32> {
        t.call("comm.rpc_sync_round", || {
            let mut args = (self.workers as u32).to_le_bytes().to_vec();
            args.extend(f32s_to_bytes(params));
            bytes_to_f32s(&self.request(round, op::SYNC_ROUND, &args))
        })
    }
    fn observe(&self, t: &mut Tracer, signal: RoundSignal) {
        t.call("comm.rpc_observe", || {
            let mut args = signal.max_delta.to_le_bytes().to_vec();
            args.extend(signal.mean_loss.to_le_bytes());
            args.extend(signal.delta_mean.to_le_bytes());
            args.extend(signal.delta_sq_mean.to_le_bytes());
            args.push(signal.synced as u8);
            self.request(signal.iteration, op::OBSERVE, &args);
        });
    }
    fn checkpoint(&self, t: &mut Tracer, round: usize, deposit: Checkpoint) {
        let text = t.call("core.ckpt_encode", || deposit.encode());
        t.call("comm.rpc_ckpt_deposit", || {
            self.request(round, op::CKPT_DEPOSIT, text.as_bytes());
        });
    }
}

/// What every walked worker of a threaded/process round needs.
struct WorkerCtx<'a> {
    cfg: &'a TrainConfig,
    scenario: &'a Scenario,
    train: &'a Dataset,
    iid_order: &'a [usize],
    rounds: usize,
    epoch: Instant,
}

/// One worker's rounds — the operation sequence of `threaded.rs`'s worker
/// closure and `process.rs`'s worker loop on a fault-free membership. Returns
/// the worker's spans and the rounds it synchronized at.
fn walk_worker(
    ctx: &WorkerCtx<'_>,
    worker: usize,
    link: &dyn Link,
    layer: &MessageLayer,
) -> (Vec<Span>, Vec<usize>) {
    let cfg = ctx.cfg;
    let n = cfg.workers;
    // Each process of a cluster owns its sink; so does each walked worker.
    let trace = TraceSink::capture(TraceGranularity::Full);
    let conditions = cfg.effective_conditions();
    let mut t = Tracer::new(ctx.epoch, worker);
    let mut model = PaperModel::build(cfg.model, cfg.seed);
    let mut params = link.pull();
    let traversal = sim::worker_traversal(cfg, ctx.train, ctx.iid_order, worker);
    let mut cursor = 0usize;
    let mut tracker = GradientTracker::new(
        GradStatistic::SqNorm,
        (n as f32 / 100.0).clamp(0.01, 1.0),
        cfg.ewma_window,
    );
    let mut optimizer = cfg.optimizer.build();
    let mut indices = Vec::with_capacity(cfg.batch_size);
    let mut sync_rounds = Vec::new();
    for it in 0..ctx.rounds {
        t.begin_round(it);
        link.round_begin(&mut t, it);
        indices.clear();
        for _ in 0..cfg.batch_size {
            indices.push(traversal[cursor % traversal.len()]);
            cursor += 1;
        }
        cursor %= traversal.len();
        let (x, y) = t.call("data.batch", || ctx.train.batch(&indices));
        t.call("nn.set_params_flat", || model.set_params_flat(&params));
        model.seek_dropout((it * n + worker) as u64);
        let stats = t.call("nn.forward_backward", || model.forward_backward(&x, &y));
        let grads = t.call("nn.grads_flat", || model.grads_flat());
        let delta_g = t.call("core.tracker_update", || tracker.update(&grads));
        let lr = cfg.lr.lr_at(cfg.epoch_of(it), it);
        t.call("nn.optim_step", || optimizer.step(&mut params, &grads, lr));

        let sync_policy = SyncPolicy::new(link.delta_for(&mut t, it));
        let wants_sync = sync_policy.worker_wants_sync(delta_g);
        let attempts = t.call("comm.exchange_flags", || {
            layer
                .exchange(worker, it as u64, MsgKind::Flags, &[wants_sync as u8])
                .expect("the workload's weather evicts nobody")
                .attempts
        });
        let flags = link.allgather_flags(&mut t, worker, it, wants_sync);
        let synced = flags.iter().any(|&f| f);
        if synced {
            t.call("comm.exchange_sync_round", || {
                layer
                    .exchange(
                        worker,
                        it as u64,
                        MsgKind::SyncRound,
                        &((params.len() * 4) as u64).to_le_bytes(),
                    )
                    .expect("the workload's weather evicts nobody")
            });
            params = link.sync_round(&mut t, worker, it, &params);
            sync_rounds.push(it);
        }
        t.call("tracelog.record", || {
            if attempts > 1 {
                trace.record(Event::CommRetry {
                    round: it,
                    worker,
                    attempts,
                });
            }
            if worker == 0 {
                let present: Vec<usize> = (0..n).collect();
                selsync::tracing::emit_round_context(&trace, &conditions, n, it, &present);
                trace.record(Event::Round {
                    round: it,
                    delta: sync_policy.delta,
                    flags: flags.clone(),
                    synced,
                });
            }
        });
        if worker == 0 {
            link.observe(
                &mut t,
                RoundSignal {
                    iteration: it,
                    max_delta: delta_g,
                    mean_loss: stats.loss,
                    delta_mean: delta_g,
                    delta_sq_mean: delta_g * delta_g,
                    synced,
                },
            );
        }
        if ctx
            .scenario
            .checkpoint
            .as_ref()
            .is_some_and(|ck| ck.due(it))
        {
            // The worker's recovery section and its trace shard so far, as the
            // process backend's deposit carries them.
            let mut deposit = Checkpoint::new("deposit", 0, it);
            let mut section = Section::new(format!("worker{worker}"));
            section.push_f32s(&params);
            for buffer in &optimizer.export_state().buffers {
                section.push_f32s(buffer);
            }
            section.push_f32s(&tracker.export_state().ewma_history);
            section.push_ints(&sync_rounds.iter().map(|&r| r as u64).collect::<Vec<_>>());
            deposit.add_section(section);
            deposit.trace = trace
                .snapshot_log()
                .events
                .iter()
                .map(codec::encode_event)
                .collect();
            link.checkpoint(&mut t, it, deposit);
        }
        t.end_round();
    }
    (t.spans, sync_rounds)
}

/// The simulator's round, as `algorithms/selsync.rs` composes it from the
/// `Simulator`'s public round API (fault-free path).
fn walk_sim(
    cfg: &TrainConfig,
    scenario: &Scenario,
    rounds: usize,
    epoch: Instant,
) -> (Vec<Span>, Vec<usize>) {
    let mut t = Tracer::new(epoch, 0);
    let mut policy = PolicySpec::Fixed {
        delta: scenario.delta,
    }
    .build();
    let conditions = cfg.effective_conditions();
    let mut sim = Simulator::new(cfg);
    let mut global = sim.workers[0].params.clone();
    let mut avg = Vec::new();
    let mut steps = Vec::new();
    let mut sync_rounds = Vec::new();
    for it in 0..rounds {
        t.begin_round(it);
        let lr = sim.lr_at(it);
        let (present, _, _) = t.call("core.begin_round", || sim.begin_round(it, &global));
        let sync_policy = SyncPolicy::new(policy.delta(it));
        t.call("core.plan_round", || sim.plan_round(&present, &mut steps));
        let round = t.call("core.run_round", || sim.run_round(&steps));
        let flags = sync_policy.flags_from_deltas(&round.deltas);
        let synced = sync_policy.decide(&flags) == SyncDecision::Synchronize;
        t.call("core.apply_round_own", || sim.apply_round_own(&steps, lr));
        if synced {
            t.call("core.average_params", || {
                sim.average_params_of_into(&present, &mut avg)
            });
            t.call("core.set_params_of", || {
                sim.set_params_of(&present, &avg);
                global.copy_from_slice(&avg);
            });
            sync_rounds.push(it);
        }
        t.call("core.account_step", || {
            let compute = sim.round_compute_seconds(it);
            let comm = sim.status_allgather_seconds_at(it, present.len());
            sim.account_step(compute, comm, present.len() as u64, synced);
        });
        t.call("core.policy_observe", || {
            policy.observe(&round.signal(it, synced))
        });
        t.call("tracelog.record", || {
            selsync::tracing::emit_round_context(
                &cfg.trace,
                &conditions,
                cfg.workers,
                it,
                &present,
            );
            cfg.trace.record(Event::Round {
                round: it,
                delta: sync_policy.delta,
                flags: flags.clone(),
                synced,
            });
        });
        if sim.should_eval(it) {
            t.call("core.record_eval", || {
                sim.average_params_of_into(&present, &mut avg);
                let snapshot = std::mem::take(&mut avg);
                sim.record_eval(it, &snapshot, round.max_delta);
                avg = snapshot;
            });
        }
        t.end_round();
    }
    (t.spans, sync_rounds)
}

/// Aggregates of one walk.
pub struct WalkResult {
    pub rounds: usize,
    pub workers: usize,
    /// The walk's own pace (rounds over the mean time a worker spent inside its
    /// round spans) — beside the real run's `rounds_per_s` it gives the
    /// tracing-plus-reconstruction error.
    pub rounds_per_s: f64,
    /// Mean over walked workers of the time their layer-call spans cover, per round.
    pub attributed_s_per_round: f64,
    /// `(span name, mean self time per round in µs)`, name order.
    pub self_us_per_round: Vec<(String, f64)>,
    pub sync_rounds: Vec<usize>,
    pub spans: usize,
    /// Every span, one JSON object per line (see [`WalkResult::write_trace`]).
    trace: String,
}

impl WalkResult {
    /// Write the spans to `benchmark/out/trace-<workload>.jsonl`.
    pub fn write_trace(&self, workload: &Workload) -> Result<PathBuf, String> {
        let path = out_root().join(format!("trace-{}.jsonl", workload.name));
        std::fs::create_dir_all(out_root())
            .and_then(|()| std::fs::write(&path, &self.trace))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }

    /// Per-layer self time (µs per round): spans grouped by their name's crate.
    pub fn layer_us_per_round(&self) -> Vec<(String, f64)> {
        let mut layers: BTreeMap<String, f64> = BTreeMap::new();
        for (name, us) in &self.self_us_per_round {
            *layers.entry(layer_of(name).to_string()).or_default() += us;
        }
        layers.into_iter().collect()
    }

    /// `1 − attributed time per round ÷ the real run's time per round`: the gap
    /// in-program telemetry will have to explain.
    pub fn unattributed_share(&self, real_rounds_per_s: f64) -> f64 {
        1.0 - self.attributed_s_per_round * real_rounds_per_s
    }
}

/// One worker's walk as its process (or thread) hands it over: its
/// synchronization schedule on the first line, then one span per line.
fn encode_worker(spans: &[Span], sync_rounds: &[usize]) -> String {
    let mut text = format!("sync {}\n", join_rounds(sync_rounds));
    for span in spans {
        text.push_str(
            &Json::obj([
                ("name", Json::str(&*span.name)),
                ("worker", Json::Num(span.worker as f64)),
                ("round", Json::Num(span.round as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
            ])
            .to_line(),
        );
        text.push('\n');
    }
    text
}

fn decode_worker(text: &str) -> Result<(Vec<Span>, Vec<usize>), String> {
    let (head, body) = text.split_once('\n').ok_or("empty walk output")?;
    let sync_rounds = parse_rounds(
        head.strip_prefix("sync ")
            .ok_or("walk output lacks its sync line")?,
    )?;
    let spans = body
        .lines()
        .map(|line| {
            let json = Json::parse(line)?;
            let num = |key: &str| {
                json.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("span line lacks {key}: {line}"))
            };
            Ok(Span {
                name: Cow::Owned(
                    json.get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("span line lacks name: {line}"))?
                        .to_string(),
                ),
                worker: num("worker")? as u32,
                round: num("round")? as u32,
                parent: json
                    .get("parent")
                    .and_then(Json::as_f64)
                    .map(|p| p as usize),
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((spans, sync_rounds))
}

/// Child-process entry of the process-shaped walk (`--role walk-hub` /
/// `walk-worker`), run from the walk's run directory. Workers of the process
/// backend are processes with a kernel pool each; walking them as threads of one
/// process would make them share a pool and measure something else.
pub fn child(
    role: &str,
    worker: usize,
    scenario: &Scenario,
    rounds: usize,
    out: &str,
) -> Result<(), String> {
    let cfg = train_config(scenario);
    let n = cfg.workers;
    let addr = SocketAddrSpec::Unix(PathBuf::from("hub.sock"));
    let proto = PaperModel::build(cfg.model, cfg.seed);
    if role == "walk-hub" {
        let server = HubServer::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let hub = WalkHub {
            shared: Shared {
                handles: make_handles(n, proto.params_flat()),
                board: Board::new(scenario.delta),
            },
            deposits: Mutex::new((Vec::new(), 0)),
            written: Condvar::new(),
        };
        return server
            .serve(n, Arc::new(hub))
            .map_err(|e| format!("walk hub: {e}"));
    }
    let (train, _test) = sim::build_datasets(&cfg);
    let iid_order = sim::iid_sample_order(&train, &proto.task);
    let conn = SocketConn::connect(&addr, Duration::from_secs(30))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let layer = match cfg.comm_faults.map(CommFaultSchedule::new) {
        Some(schedule) => MessageLayer::faulty_over(schedule, Box::new(conn.transport())),
        None => MessageLayer::over(Box::new(conn.transport()), 1),
    };
    let link = Remote {
        client: conn.client(worker as u32),
        workers: n,
    };
    let ctx = WorkerCtx {
        cfg: &cfg,
        scenario,
        train: &train,
        iid_order: &iid_order,
        rounds,
        epoch: Instant::now(),
    };
    let (spans, sync_rounds) = walk_worker(&ctx, worker, &link, &layer);
    std::fs::write(out, encode_worker(&spans, &sync_rounds)).map_err(|e| format!("{out}: {e}"))
}

/// Walk `rounds` rounds of `workload` with tracing on.
pub fn walk(workload: &Workload, scenario: &Scenario, rounds: usize) -> Result<WalkResult, String> {
    let cfg = train_config(scenario);
    let n = cfg.workers;
    let epoch = Instant::now();
    let per_worker: Vec<(Vec<Span>, Vec<usize>)> = match workload.backend {
        Backend::Sim => vec![walk_sim(&cfg, scenario, rounds, epoch)],
        Backend::Threaded => {
            let (train, _test) = sim::build_datasets(&cfg);
            let proto = PaperModel::build(cfg.model, cfg.seed);
            let iid_order = sim::iid_sample_order(&train, &proto.task);
            let ctx = WorkerCtx {
                cfg: &cfg,
                scenario,
                train: &train,
                iid_order: &iid_order,
                rounds,
                epoch,
            };
            let shared = Shared {
                handles: make_handles(n, proto.params_flat()),
                board: Board::new(scenario.delta),
            };
            let layer = match cfg.comm_faults.map(CommFaultSchedule::new) {
                Some(schedule) => MessageLayer::faulty(schedule),
                None => MessageLayer::lossless(),
            };
            std::thread::scope(|scope| {
                let joins: Vec<_> = (0..n)
                    .map(|w| {
                        let (ctx, shared, layer) = (&ctx, &shared, &layer);
                        scope.spawn(move || walk_worker(ctx, w, shared, layer))
                    })
                    .collect();
                joins
                    .into_iter()
                    .map(|j| j.join().expect("walk worker panicked"))
                    .collect()
            })
        }
        Backend::Process => {
            let roles: Vec<(&str, usize)> = std::iter::once(("walk-hub", 0))
                .chain((0..n).map(|w| ("walk-worker", w)))
                .collect();
            let run_dir = runner::run_roles(scenario, &roles, &["--rounds", &rounds.to_string()])?;
            let outputs = (0..n)
                .map(|w| {
                    let path = run_dir.join(format!("walk-worker{w}.out"));
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    decode_worker(&text).map_err(|e| format!("{}: {e}", path.display()))
                })
                .collect::<Result<_, String>>()?;
            let _ = std::fs::remove_dir_all(&run_dir);
            outputs
        }
    };

    let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
    let (mut attributed_ns, mut in_rounds_ns, mut span_count) = (0u64, 0u64, 0usize);
    let mut text = String::new();
    for (spans, sync_rounds) in &per_worker {
        for (span, own_ns) in spans.iter().zip(self_times(spans)) {
            *by_name.entry(span.name.to_string()).or_default() += own_ns;
            match span.parent {
                Some(_) => attributed_ns += own_ns,
                None => in_rounds_ns += span.end_ns - span.start_ns,
            }
        }
        span_count += spans.len();
        text.push_str(&encode_worker(spans, sync_rounds));
    }
    let walked = per_worker.len() as f64;
    let per_round = |ns: u64| ns as f64 / walked / rounds as f64;
    Ok(WalkResult {
        rounds,
        workers: n,
        rounds_per_s: 1e9 / per_round(in_rounds_ns),
        attributed_s_per_round: per_round(attributed_ns) / 1e9,
        self_us_per_round: by_name
            .into_iter()
            .map(|(name, ns)| (name, per_round(ns) / 1e3))
            .collect(),
        sync_rounds: per_worker
            .into_iter()
            .next()
            .map(|(_, s)| s)
            .unwrap_or_default(),
        spans: span_count,
        trace: text,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: Cow::Borrowed(name),
            worker: 0,
            round: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("round", None, 0, 100),
            span("nn.forward_backward", Some(0), 10, 50),
            span("comm.rpc_delta_for", Some(0), 60, 90),
            // A grandchild comes out of its own parent only.
            span("comm.wire", Some(2), 65, 70),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 25, 5]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_workers_walk_survives_the_trip_through_its_output_file() {
        let spans = vec![
            span("round", None, 5, 90),
            span("comm.rpc_delta_for", Some(0), 10, 40),
        ];
        let (back, sync_rounds) = decode_worker(&encode_worker(&spans, &[3, 17])).unwrap();
        assert_eq!(back, spans);
        assert_eq!(sync_rounds, vec![3, 17]);
        let (none, never) = decode_worker(&encode_worker(&[], &[])).unwrap();
        assert!(none.is_empty() && never.is_empty());
        assert!(decode_worker("spans without a sync line\n").is_err());
        assert!(decode_worker("sync 1\n{\"name\":\"x\"}\n").is_err());
    }

    #[test]
    fn layer_is_the_first_name_segment() {
        assert_eq!(layer_of("nn.optim_step"), "nn");
        assert_eq!(layer_of("round"), "round");
    }

    #[test]
    fn tracer_nests_calls_under_the_current_round() {
        let mut t = Tracer::new(Instant::now(), 3);
        t.begin_round(7);
        assert_eq!(t.call("data.batch", || 5), 5);
        t.end_round();
        t.begin_round(8);
        t.call("nn.grads_flat", || ());
        t.end_round();
        let parents: Vec<_> = t
            .spans
            .iter()
            .map(|s| (&*s.name, s.round, s.parent))
            .collect();
        assert_eq!(
            parents,
            vec![
                ("round", 7, None),
                ("data.batch", 7, Some(0)),
                ("round", 8, None),
                ("nn.grads_flat", 8, Some(2)),
            ]
        );
        assert!(t
            .spans
            .iter()
            .all(|s| s.worker == 3 && s.end_ns >= s.start_ns));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }

    #[test]
    fn unattributed_share_is_the_gap_to_the_real_round() {
        let walk = WalkResult {
            rounds: 10,
            workers: 2,
            rounds_per_s: 900.0,
            attributed_s_per_round: 0.0008,
            self_us_per_round: vec![
                ("comm.rpc_delta_for".into(), 300.0),
                ("nn.forward_backward".into(), 400.0),
                ("nn.optim_step".into(), 100.0),
            ],
            sync_rounds: vec![],
            spans: 0,
            trace: String::new(),
        };
        // A real round of 1 ms, of which 0.8 ms is attributed.
        assert!((walk.unattributed_share(1000.0) - 0.2).abs() < 1e-12);
        assert_eq!(
            walk.layer_us_per_round(),
            vec![("comm".to_string(), 300.0), ("nn".to_string(), 500.0)]
        );
    }
}
