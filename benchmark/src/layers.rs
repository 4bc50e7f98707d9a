//! Per-layer metrics: each times one public call of one crate, at the shapes
//! the workloads use, many times over, and reports the median with the highest
//! percentile that still has ten samples beyond it.
//!
//! Layers are the crates (`tensor`, `data`, `nn`, `core`, `comm`, `tracelog`,
//! `scenario`). Inputs are drawn from the run's seed; shapes are fixed. The table
//! in `benchmark/README.md` says which end-to-end metric each of these should
//! move, and on which workload.

use crate::runner::{out_root, socket_path};
use crate::stats::Summary;
use crate::walk::f32s_to_bytes;
use crate::workloads::{self, train_config};
use selsync::checkpoint::{Checkpoint, Section};
use selsync::tracker::{GradStatistic, GradientTracker};
use selsync_comm::socket::{HubServer, RpcService, SocketAddrSpec, SocketConn};
use selsync_comm::wire::{self, Envelope, FrameDecoder, MsgKind};
use selsync_comm::{Collective, CommFaultSchedule, MessageLayer, ParameterServer, ScalarOp};
use selsync_nn::model::{ModelKind, PaperModel};
use selsync_scenario::Scenario;
use selsync_tensor::{ops, par, rng, Tensor};
use selsync_tracelog::{Event, EventLog, TraceGranularity, TraceSink};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One reported per-layer number.
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Samples a timed metric aims for; slow (millisecond) operations settle for
/// what their share of the budget buys, never fewer than [`MIN_SAMPLES`].
const TARGET_SAMPLES: usize = 2000;
const MIN_SAMPLES: usize = 5;
/// A sample shorter than this is dominated by the clock read; fast operations
/// are timed in batches at least this long.
const MIN_SAMPLE: Duration = Duration::from_micros(20);

/// Seconds per call of `op`: warm up, size a batch so one sample outlasts the
/// clock's own cost, then sample until `budget` is spent or [`TARGET_SAMPLES`]
/// are in.
fn time_calls(budget: Duration, mut op: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    op();
    let probe = Instant::now();
    op();
    let once = probe.elapsed().max(Duration::from_nanos(1));
    let batch = (MIN_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 100_000) as usize;
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES
        || (samples.len() < TARGET_SAMPLES && started.elapsed() < budget)
    {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    samples
}

/// GB/s over `bytes` moved per call, from the calls' times. Extremes and tail
/// follow the slowest calls, so the tail reads *below* the median.
fn throughput(times: &Summary, bytes: usize) -> Summary {
    let gbs = |s: f64| bytes as f64 / s / 1e9;
    Summary {
        median: gbs(times.median),
        min: gbs(times.max),
        max: gbs(times.min),
        samples: times.samples,
        tail: times.tail.map(|(p, v)| (p, gbs(v))),
    }
}

fn scaled(summary: &Summary, f: impl Fn(f64) -> f64) -> Summary {
    Summary {
        median: f(summary.median),
        min: f(summary.min),
        max: f(summary.max),
        samples: summary.samples,
        tail: summary.tail.map(|(p, v)| (p, f(v))),
    }
}

struct Collector {
    budget: Duration,
    metrics: Vec<LayerMetric>,
}

impl Collector {
    /// A latency metric in `unit` (`per_unit` seconds each: 1e-6 for µs).
    fn time(&mut self, name: &str, unit: &'static str, per_unit: f64, op: impl FnMut()) {
        let summary = Summary::of(&time_calls(self.budget, op));
        self.push(name, unit, scaled(&summary, |s| s / per_unit));
    }

    /// A throughput metric in GB/s over `bytes` moved per call.
    fn rate(&mut self, name: &str, bytes: usize, op: impl FnMut()) {
        let times = Summary::of(&time_calls(self.budget, op));
        self.push(name, "GB/s", throughput(&times, bytes));
    }

    /// An exact, computed or counted value.
    fn exact(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(name, unit, Summary::of(&[value]));
    }

    fn push(&mut self, name: &str, unit: &'static str, summary: Summary) {
        self.metrics.push(LayerMetric {
            name: name.to_string(),
            unit,
            summary,
        });
    }
}

fn seeded_vec(seed: u64, stream: u64, len: usize) -> Vec<f32> {
    let mut out = vec![0.0; len];
    rng::fill_uniform(&mut rng::derived(seed, stream), &mut out, -1.0, 1.0);
    out
}

fn seeded_tensor(seed: u64, stream: u64, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, seeded_vec(seed, stream, rows * cols)).expect("shape matches")
}

/// The hub echoes the request: round-trip cost without any service work.
struct Echo;
impl RpcService for Echo {
    fn handle(&self, _worker: u32, _round: u64, request: &[u8]) -> Vec<u8> {
        request.to_vec()
    }
}

/// Serve one connection on `addr` with [`Echo`] while `client` runs against it.
fn with_echo_hub<R>(
    addr: &SocketAddrSpec,
    client: impl FnOnce(&SocketConn) -> R,
) -> Result<R, String> {
    let server = HubServer::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    std::thread::scope(|scope| {
        let hub = scope.spawn(|| server.serve(1, Arc::new(Echo)));
        // The listener is bound, so only a sandbox that forbids the connect can
        // fail here — and the hub thread would then sit in `accept` forever, so
        // the whole process gives up instead of hanging.
        let conn = SocketConn::connect(addr, Duration::from_secs(5)).unwrap_or_else(|e| {
            eprintln!("error: connect {addr}: {e}");
            std::process::exit(1);
        });
        let value = client(&conn);
        // End of stream is what ends the hub's serve loop.
        drop(conn);
        hub.join()
            .expect("hub thread panicked")
            .map_err(|e| format!("hub serve on {addr}: {e}"))?;
        Ok(value)
    })
}

/// A free loopback TCP port: bind port 0, read the assignment, release it.
fn free_tcp_port() -> Result<u16, String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    listener
        .local_addr()
        .map(|a| a.port())
        .map_err(|e| e.to_string())
}

/// A recovery image shaped like `proc-faulty-resnet`'s mid-run one: the PS
/// global, the policy board, two worker sections (parameters, momentum buffer,
/// tracker window, schedule) and the trace prefix up to `rounds`.
fn sample_checkpoint(seed: u64, params: usize, rounds: usize) -> Checkpoint {
    let mut image = Checkpoint::new("process", seed, rounds);
    let mut ps = Section::new("ps");
    ps.push_f32s(&seeded_vec(seed, 20, params));
    image.add_section(ps);
    let mut board = Section::new("board");
    board.push_ints(&[rounds as u64]);
    image.add_section(board);
    for w in 0..2u64 {
        let mut section = Section::new(format!("worker{w}"));
        section.push_f32s(&seeded_vec(seed, 21 + w, params));
        section.push_f32s(&seeded_vec(seed, 23 + w, params));
        section.push_f32s(&seeded_vec(seed, 25 + w, 25));
        section.push_ints(&(0..rounds as u64 / 15).collect::<Vec<_>>());
        image.add_section(section);
    }
    image.trace = sample_events(rounds)
        .iter()
        .map(selsync_tracelog::codec::encode_event)
        .collect();
    image
}

/// `n` events with the mix a faulty 2-worker run logs: one `Round` per round
/// and a `CommRetry` every fifth.
fn sample_events(n: usize) -> Vec<Event> {
    (0..n)
        .map(|i| {
            if i % 5 == 4 {
                Event::CommRetry {
                    round: i,
                    worker: i % 2,
                    attempts: 2,
                }
            } else {
                Event::Round {
                    round: i,
                    delta: 0.05,
                    flags: vec![i % 15 == 0, false],
                    synced: i % 15 == 0,
                }
            }
        })
        .collect()
}

/// Measure every per-layer metric, spending about `seconds` in total.
/// Returns the metrics and the number of measurements that could not run.
pub fn measure(seed: u64, seconds: f64) -> (Vec<LayerMetric>, Vec<String>) {
    // About forty timed metrics share the budget evenly.
    let mut c = Collector {
        budget: Duration::from_secs_f64(seconds / 40.0),
        metrics: Vec::new(),
    };
    let mut failures = Vec::new();
    let faulty = workloads::find("proc-faulty-resnet")
        .expect("workload table has the faulty workload")
        .scenario(seed, None);

    // tensor — the VggLike hidden-layer shape: batch 16, 128 → 128.
    let a = seeded_tensor(seed, 1, 16, 128);
    let b = seeded_tensor(seed, 2, 128, 128);
    let g = seeded_tensor(seed, 3, 16, 128);
    let mut out = Tensor::zeros(16, 128);
    c.time("tensor.matmul_us.16x128x128", "us", 1e-6, || {
        ops::matmul_into(black_box(&a), black_box(&b), &mut out).expect("shapes agree");
    });
    c.time("tensor.matmul_bt_us.16x128x128", "us", 1e-6, || {
        ops::matmul_bt_into(black_box(&a), black_box(&b), &mut out).expect("shapes agree");
    });
    let mut out_at = Tensor::zeros(128, 128);
    c.time("tensor.matmul_at_us.16x128x128", "us", 1e-6, || {
        ops::matmul_at_into(black_box(&a), black_box(&g), &mut out_at).expect("shapes agree");
    });
    let vgg = PaperModel::build(ModelKind::VggLike, seed);
    let vgg_dim = vgg.param_count();
    let x = seeded_vec(seed, 4, vgg_dim);
    let mut y = seeded_vec(seed, 5, vgg_dim);
    c.rate("tensor.axpy_gbs", 3 * 4 * vgg_dim, || {
        ops::axpy_slice(1e-6, black_box(&x), black_box(&mut y));
    });
    let threads = par::current_num_threads();
    c.time("tensor.pool_dispatch_us", "us", 1e-6, || {
        par::parallel_for(threads, |i| {
            black_box(i);
        });
    });

    // data, nn, core — per model, on the model's own synthetic dataset.
    for (kind, tag) in [
        (ModelKind::ResNetLike, "resnet"),
        (ModelKind::VggLike, "vgg"),
    ] {
        let mut scenario = Scenario::base("layers", 2, 1);
        scenario.model = kind;
        scenario.seed = seed & (i64::MAX as u64);
        let cfg = train_config(&scenario);
        let (train, test) = selsync::sim::build_datasets(&cfg);
        let mut model = PaperModel::build(kind, cfg.seed);
        let mut params = model.params_flat();
        let indices: Vec<usize> =
            rng::sample_without_replacement(&mut rng::derived(seed, 6), train.len(), 16);
        let (mut bx, mut by) = train.batch(&indices);
        if kind == ModelKind::ResNetLike {
            c.time("data.batch_us", "us", 1e-6, || {
                train.batch_into(black_box(&indices), &mut bx, &mut by);
            });
        }
        c.time(&format!("nn.fwd_bwd_us.{tag}"), "us", 1e-6, || {
            black_box(model.forward_backward(&bx, &by));
        });
        let mut grads = Vec::new();
        c.time(&format!("nn.param_io_us.{tag}"), "us", 1e-6, || {
            model.set_params_flat(black_box(&params));
            model.grads_flat_into(&mut grads);
        });
        let mut optimizer = cfg.optimizer.build();
        c.time(&format!("nn.optim_step_us.{tag}"), "us", 1e-6, || {
            optimizer.step(&mut params, black_box(&grads), 1e-6);
        });
        if kind == ModelKind::ResNetLike {
            let eval: Vec<usize> = (0..256.min(test.len())).collect();
            let (ex, ey) = test.batch(&eval);
            c.time("nn.eval_us.resnet", "us", 1e-6, || {
                black_box(model.evaluate(&ex, &ey));
            });
        }
        let mut tracker = GradientTracker::new(GradStatistic::SqNorm, 0.02, cfg.ewma_window);
        c.time(&format!("core.tracker_update_us.{tag}"), "us", 1e-6, || {
            black_box(tracker.update(black_box(&grads)));
        });
    }
    let replicas = [seeded_vec(seed, 7, vgg_dim), seeded_vec(seed, 8, vgg_dim)];
    let mut mean = Vec::new();
    c.time("core.average_us.vgg", "us", 1e-6, || {
        selsync::aggregation::average_into(black_box(&replicas), &mut mean);
    });

    // core — checkpoint image of the faulty workload half-way through its run.
    let resnet_dim = PaperModel::build(ModelKind::ResNetLike, seed).param_count();
    let image = sample_checkpoint(seed, resnet_dim, faulty.iterations / 2);
    let encoded = image.encode();
    c.time("core.ckpt_encode_ms", "ms", 1e-3, || {
        black_box(image.encode());
    });
    let scratch = out_root().join(format!("layers-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        failures.push(format!("{}: {e}", scratch.display()));
    }
    let image_path = scratch.join("ckpt-0");
    let mut write_failed = false;
    c.time("core.ckpt_write_ms", "ms", 1e-3, || {
        write_failed |= image.write_file(&image_path).is_err();
    });
    if write_failed {
        failures.push(format!(
            "checkpoint write to {} failed",
            image_path.display()
        ));
    }
    c.time("core.ckpt_decode_ms", "ms", 1e-3, || {
        black_box(Checkpoint::decode(black_box(&encoded)).expect("own image decodes"));
    });

    // comm — wire codec at the two payload sizes a round sends: a 1-byte flag
    // and a VggLike parameter vector.
    let bulk_payload = f32s_to_bytes(&seeded_vec(seed, 9, vgg_dim));
    for (tag, payload) in [("small", vec![1u8]), ("bulk", bulk_payload.clone())] {
        let envelope = Envelope {
            kind: MsgKind::SyncRound,
            round: 7,
            sender: 1,
            payload,
        };
        let frame = envelope.encode();
        c.time(&format!("comm.wire_encode_us.{tag}"), "us", 1e-6, || {
            black_box(black_box(&envelope).encode());
        });
        c.time(&format!("comm.wire_decode_us.{tag}"), "us", 1e-6, || {
            black_box(Envelope::decode(black_box(&frame)).expect("own frame decodes"));
        });
        c.exact(&format!("comm.frame_bytes.{tag}"), "B", frame.len() as f64);
    }
    c.rate("comm.checksum_gbs", bulk_payload.len(), || {
        black_box(wire::checksum(black_box(&bulk_payload)));
    });
    let bulk_frame = Envelope {
        kind: MsgKind::SyncRound,
        round: 7,
        sender: 1,
        payload: bulk_payload.clone(),
    }
    .encode();
    let mut decoder = FrameDecoder::new();
    c.rate("comm.frame_decoder_gbs", bulk_frame.len(), || {
        // 64 KiB reads, as the socket connection feeds it.
        for chunk in bulk_frame.chunks(64 * 1024) {
            decoder.push(chunk);
        }
        black_box(decoder.next_frame().expect("well-formed frame"));
    });

    // comm — the message layer, lossless and under the faulty workload's weather.
    let lossless = MessageLayer::lossless();
    let mut round = 0u64;
    c.time("comm.exchange_us.lossless", "us", 1e-6, || {
        round += 1;
        black_box(lossless.exchange(0, round, MsgKind::Flags, &[1])).expect("lossless link");
    });
    let spec = faulty.comm_faults.expect("the faulty workload has weather");
    let weather = MessageLayer::faulty(CommFaultSchedule::new(spec));
    let mut round = 0u64;
    c.time("comm.exchange_us.faulty", "us", 1e-6, || {
        round += 1;
        // Exhausting the budget (≈1e-8 per op) is a legal outcome here.
        let _ = black_box(weather.exchange(0, round, MsgKind::Flags, &[1]));
    });
    let schedule = CommFaultSchedule::new(spec);
    let ops_total = faulty.workers * faulty.iterations;
    let attempts: u64 = (0..faulty.workers)
        .flat_map(|w| (0..faulty.iterations).map(move |r| (w, r)))
        .map(|(w, r)| {
            u64::from(
                schedule
                    .attempts_used(w, r as u64)
                    .unwrap_or(spec.retry_budget),
            )
        })
        .sum();
    c.exact(
        "comm.exchange_attempts_per_op",
        "count",
        attempts as f64 / ops_total as f64,
    );

    // comm — in-memory rendezvous between two threads; worker 0's view is timed,
    // worker 1 mirrors every call.
    measure_pair(&mut c, "comm.allgather_flags_us", || {
        let collective = Collective::new(2);
        move |w, round| {
            black_box(collective.allgather_flags_among(round, w, w == 0, 2));
        }
    });
    measure_pair(&mut c, "comm.allreduce_scalar_us", || {
        let collective = Collective::new(2);
        move |w, round| {
            black_box(collective.allreduce_scalar_among(round, w, w as f32, 2, ScalarOp::Mean));
        }
    });
    measure_pair(&mut c, "comm.ps_sync_us.vgg", || {
        let ps = ParameterServer::new(vec![0.0; vgg_dim]);
        let contribution = [seeded_vec(seed, 10, vgg_dim), seeded_vec(seed, 11, vgg_dim)];
        move |w, round| {
            black_box(ps.sync_round_elastic(round, w, &contribution[w], 2));
        }
    });

    // comm — one blocking RPC against a real hub thread, UDS then loopback TCP.
    let uds = SocketAddrSpec::Unix(socket_path(&scratch, "rpc.sock"));
    let rpc = with_echo_hub(&uds, |conn| {
        let client = conn.client(0);
        c.time("comm.rpc_rtt_us.small", "us", 1e-6, || {
            black_box(client.rpc(1, vec![9]));
        });
        let times = Summary::of(&time_calls(c.budget, || {
            black_box(client.rpc(1, bulk_payload.clone()));
        }));
        c.push("comm.rpc_rtt_us.bulk", "us", scaled(&times, |s| s / 1e-6));
        // Request and reply each carry the payload once.
        c.push(
            "comm.rpc_bulk_gbs",
            "GB/s",
            throughput(&times, 2 * bulk_payload.len()),
        );
    });
    if let Err(e) = rpc {
        failures.push(e);
    }
    let tcp = free_tcp_port().and_then(|port| {
        with_echo_hub(&SocketAddrSpec::Tcp(format!("127.0.0.1:{port}")), |conn| {
            let client = conn.client(0);
            c.time("comm.rpc_rtt_us.small.tcp", "us", 1e-6, || {
                black_box(client.rpc(1, vec![9]));
            });
        })
    });
    if let Err(e) = tcp {
        failures.push(format!("loopback tcp: {e}"));
    }

    // tracelog
    let sink = TraceSink::capture(TraceGranularity::Full);
    let mut i = 0usize;
    c.time("tracelog.record_ns", "ns", 1e-9, || {
        i += 1;
        sink.record(Event::Round {
            round: i,
            delta: 0.05,
            flags: vec![false, false],
            synced: false,
        });
        // Keep the buffer from growing without bound across samples.
        if i.is_multiple_of(65_536) {
            black_box(sink.take_log());
        }
    });
    let kevent = EventLog {
        events: sample_events(1000),
    };
    let kevent_text = kevent.encode();
    c.time("tracelog.encode_us_per_kevent", "us", 1e-6, || {
        black_box(black_box(&kevent).encode());
    });
    c.time("tracelog.decode_us_per_kevent", "us", 1e-6, || {
        black_box(EventLog::decode(black_box(&kevent_text)).expect("own log decodes"));
    });
    // Three shards as a 2-worker cluster produces them: hub, rank 0, rank 1.
    let events = sample_events(10_000);
    let shards: Vec<EventLog> = [0, 1, 2]
        .iter()
        .map(|s| EventLog {
            events: events.iter().skip(*s).step_by(3).cloned().collect(),
        })
        .collect();
    c.time("tracelog.merge_ms.10k", "ms", 1e-3, || {
        black_box(EventLog::merge(black_box(shards.clone())));
    });

    // scenario — parse + validate, including the eviction pre-scan over 10k rounds.
    let mut long = faulty.clone();
    long.iterations = 10_000;
    let text = long.to_toml_string();
    c.time("scenario.load_ms", "ms", 1e-3, || {
        let scenario = Scenario::from_toml_str(black_box(&text)).expect("own dump parses");
        scenario.validate().expect("own dump validates");
    });

    let _ = std::fs::remove_dir_all(&scratch);
    (c.metrics, failures)
}

/// Time a two-party blocking operation: `make()` builds the shared state and
/// returns `op(worker, round)`. Worker 1 runs every round on its own thread,
/// parked inside the rendezvous until worker 0 arrives — so worker 0's timed
/// call is the last arriver's: the operation's own cost, no waiting for a peer.
fn measure_pair<F>(c: &mut Collector, name: &str, make: impl FnOnce() -> F)
where
    F: Fn(usize, u64) + Sync,
{
    use std::sync::atomic::{AtomicU64, Ordering};
    let op = &make();
    // The round both workers stop after. Worker 0 announces it before entering
    // that round, so worker 1 reads it either before the round (and enters it)
    // or after (and leaves): neither side is left alone in a rendezvous.
    let last = &AtomicU64::new(u64::MAX);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut round = 0u64;
            while round < last.load(Ordering::SeqCst) {
                round += 1;
                op(1, round);
            }
        });
        let mut round = 0u64;
        c.time(name, "us", 1e-6, || {
            round += 1;
            op(0, round);
        });
        last.store(round + 1, Ordering::SeqCst);
        op(0, round + 1);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract;

    #[test]
    fn timing_batches_fast_calls_and_always_returns_samples() {
        let mut calls = 0u64;
        let samples = time_calls(Duration::from_millis(5), || calls += 1);
        assert!(samples.len() >= MIN_SAMPLES && samples.len() <= TARGET_SAMPLES);
        assert!(
            calls as usize > samples.len(),
            "a no-op is timed in batches"
        );
        assert!(samples.iter().all(|s| *s >= 0.0 && s.is_finite()));
        // A slow call still yields the minimum, whatever the budget.
        let slow = time_calls(Duration::ZERO, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        assert_eq!(slow.len(), MIN_SAMPLES);
        assert!(slow.iter().all(|s| *s >= 1e-3));
    }

    #[test]
    fn every_layer_metric_is_measured_and_named_as_the_contract_lists() {
        let (metrics, failures) = measure(7, 0.2);
        assert!(failures.is_empty(), "{failures:?}");
        let mut names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
        names.extend(
            [
                "round.sync_share",
                "round.retries_per_round",
                "round.ckpt_images",
                "round.unattributed_share",
            ]
            .map(String::from),
        );
        contract::check_names(&contract::load().unwrap(), "per_layer", &names).unwrap();
        for m in &metrics {
            assert!(
                m.summary.median.is_finite() && m.summary.median > 0.0,
                "{} = {}",
                m.name,
                m.summary.median
            );
            assert!(m.summary.min <= m.summary.median && m.summary.median <= m.summary.max);
        }
        // Exact counts repeat bit for bit for one seed.
        let exact = |ms: &[LayerMetric]| -> Vec<f64> {
            ms.iter()
                .filter(|m| m.summary.samples == 1)
                .map(|m| m.summary.median)
                .collect()
        };
        assert_eq!(exact(&metrics), exact(&measure(7, 0.05).0));
        assert_eq!(exact(&metrics).len(), 3);
    }
}
