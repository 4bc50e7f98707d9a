//! `bench_kernels` — machine-readable perf report for the compute backend.
//!
//! Reports which instantiation of the matmul micro-kernel this host runs (`kernel_isa`:
//! `"avx512"`, `"avx2"` or `"baseline"`, so an archived report is attributable),
//! measures GFLOP/s for the three matmul kernels at several shapes, elementwise
//! bandwidth for the optimizer/aggregation sweeps, the kernels at the shapes the
//! ResNetLike and VggLike workloads actually run plus the AlexLike hidden layer, the
//! one row above the dispatch gate (`model_shapes`: pooled time over serial time, the
//! gate's acceptance rows), simulator training
//! throughput (steps/sec), the 1-thread vs 4-thread speedup on the
//! 256x256x256 matmul (the backend's acceptance benchmark), and the socket
//! frame codec at the size of a VggLike parameter vector (`wire`: checksum
//! GB/s, encode/decode time, and the checksum's speed over a byte-serial
//! reference). Emits one JSON object on stdout so CI can archive the perf
//! trajectory PR over PR.
//!
//! Usage: `bench_kernels [--quick] [--baseline <json>]`
//!   --quick            smaller shapes / fewer repetitions (CI mode)
//!   --baseline <json>  after printing, compare the `sim_round` steps/sec against the
//!                      committed baseline report and exit non-zero on a >20%
//!                      regression (per workers x threads cell), or when a
//!                      `model_shapes` row of at most one `par::GRAIN` of work is more
//!                      than 1.25x slower with the pool than without it, or when
//!                      `wire.checksum_over_fnv1a` is below 4
//!
//! Thread count comes from `SELSYNC_THREADS` (default `available_parallelism`);
//! the speedup and `sim_round` sections override it internally via the pool's
//! scoped override.

use selsync::algorithms;
use selsync::config::{AlgorithmSpec, TrainConfig};
use selsync_comm::wire::{self, EnvelopeRef, FrameBuf, MsgKind};
use selsync_nn::model::{ModelKind, PaperModel};
use selsync_nn::optim::{Optimizer, Sgd};
use selsync_tensor::{ops, par, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Run `f` repeatedly until ~`budget_s` seconds elapse (at least once), returning
/// seconds per call.
fn time_per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    // Warm-up: populates scratch arenas and the worker pool.
    f();
    let mut reps = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= budget_s || reps >= 1 << 20 {
            return elapsed / reps as f64;
        }
        let target = (budget_s / (elapsed / reps as f64).max(1e-9)).ceil();
        reps = (target as u32).clamp(reps * 2, 1 << 20);
    }
}

fn tensor(rows: usize, cols: usize, salt: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 17 + salt * 7) % 23) as f32 * 0.17 - 1.9
    })
}

struct KernelResult {
    kernel: &'static str,
    m: usize,
    k: usize,
    n: usize,
    secs_per_call: f64,
    gflops: f64,
}

fn bench_matmuls(shapes: &[(usize, usize, usize)], budget_s: f64) -> Vec<KernelResult> {
    let mut results = Vec::new();
    for &(m, k, n) in shapes {
        let a = tensor(m, k, 1);
        let b = tensor(k, n, 2);
        let bt = tensor(n, k, 3);
        let at = tensor(m, n, 4);
        let flops = (2 * m * k * n) as f64;

        let mut out = Tensor::zeros(m, n);
        let secs = time_per_call(budget_s, || {
            ops::matmul_into(&a, &b, &mut out).expect("matmul shapes");
        });
        results.push(KernelResult {
            kernel: "matmul",
            m,
            k,
            n,
            secs_per_call: secs,
            gflops: flops / secs / 1e9,
        });

        let mut out_bt = Tensor::zeros(m, n);
        let secs = time_per_call(budget_s, || {
            ops::matmul_bt_into(&a, &bt, &mut out_bt).expect("matmul_bt shapes");
        });
        results.push(KernelResult {
            kernel: "matmul_bt",
            m,
            k,
            n,
            secs_per_call: secs,
            gflops: flops / secs / 1e9,
        });

        let mut out_at = Tensor::zeros(k, n);
        let secs = time_per_call(budget_s, || {
            ops::matmul_at_into(&a, &at, &mut out_at).expect("matmul_at shapes");
        });
        results.push(KernelResult {
            kernel: "matmul_at",
            m,
            k,
            n,
            secs_per_call: secs,
            gflops: flops / secs / 1e9,
        });
    }
    results
}

/// One kernel at a shape a benchmark workload runs every round, timed with the pool
/// disabled and enabled.
struct ModelShapeResult {
    kernel: &'static str,
    shape: String,
    /// The estimate the kernel hands to `par::for_each_range`.
    work: usize,
    serial_secs: f64,
    pooled_secs: f64,
}

impl ModelShapeResult {
    fn below_grain(&self) -> bool {
        self.work <= par::GRAIN
    }

    fn pooled_over_serial(&self) -> f64 {
        self.pooled_secs / self.serial_secs
    }

    /// Serial GFLOP/s of a matmul row (`work` multiply-adds, two flops each); the sweeps'
    /// work unit is an element, not a flop count.
    fn serial_gflops(&self) -> Option<f64> {
        self.kernel
            .starts_with("matmul")
            .then(|| 2.0 * self.work as f64 / self.serial_secs / 1e9)
    }
}

/// Largest `pooled_over_serial` a below-grain row may show under `--baseline`. Such a
/// call never leaves the calling thread, so the true ratio is 1; a dispatch at these
/// sizes reads 2x to 5x.
const BELOW_GRAIN_MAX_RATIO: f64 = 1.25;

/// Time `f` under `with_threads(1)` and under `pooled_threads`, alternating the two
/// and keeping each side's fastest reading, so a slow stretch of the machine cannot
/// land on one side only.
fn serial_and_pooled(budget_s: f64, pooled_threads: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let serial = par::with_threads(1, || time_per_call(budget_s / 5.0, &mut f));
        let pooled = par::with_threads(pooled_threads, || time_per_call(budget_s / 5.0, &mut f));
        best = (best.0.min(serial), best.1.min(pooled));
    }
    best
}

/// The kernels at the shapes the benchmark workloads run (batch 16): the ResNetLike
/// hidden layer and the VggLike hidden and output layers, plus the AlexLike hidden
/// layer, which stays above the dispatch gate, for all three matmuls of a linear layer
/// (`X·W`, `dX = dY·Wᵀ`, `dW = Xᵀ·dY`); and axpy / SGD sweeps over each benchmark
/// model's flat parameter vector. The pooled side runs at the configured thread
/// count, but at least 2 (the pool grows on demand), so the rows mean the same on a
/// 1-CPU runner.
fn bench_model_shapes(budget_s: f64) -> (usize, Vec<ModelShapeResult>) {
    let pooled_threads = par::configured_threads().max(2);
    let mut results = Vec::new();
    let mut push = |kernel, shape: String, work, f: &mut dyn FnMut()| {
        let (serial_secs, pooled_secs) = serial_and_pooled(budget_s, pooled_threads, f);
        results.push(ModelShapeResult {
            kernel,
            shape,
            work,
            serial_secs,
            pooled_secs,
        });
    };
    // (batch, in, out) of a linear layer.
    for (m, k, n) in [(16, 64, 64), (16, 128, 128), (16, 128, 100), (16, 256, 256)] {
        let shape = format!("{m}x{k}x{n}");
        let x = tensor(m, k, 1);
        let w = tensor(k, n, 2);
        let dy = tensor(m, n, 3);
        let mut out = Tensor::zeros(m, n);
        let mut dx = Tensor::zeros(m, k);
        let mut dw = Tensor::zeros(k, n);
        push("matmul", shape.clone(), m * k * n, &mut || {
            ops::matmul_into(&x, &w, &mut out).expect("matmul shapes");
        });
        push("matmul_bt", shape.clone(), m * k * n, &mut || {
            ops::matmul_bt_into(&dy, &w, &mut dx).expect("matmul_bt shapes");
        });
        push("matmul_at", shape, m * k * n, &mut || {
            ops::matmul_at_into(&x, &dy, &mut dw).expect("matmul_at shapes");
        });
    }
    for kind in [ModelKind::ResNetLike, ModelKind::VggLike] {
        let dim = PaperModel::build(kind, 1).param_count();
        let grads: Vec<f32> = (0..dim).map(|i| (i % 13) as f32 * 0.1 - 0.6).collect();
        let mut params = vec![0.5f32; dim];
        push("axpy_slice", dim.to_string(), dim, &mut || {
            ops::axpy_slice(1e-6, &grads, &mut params);
        });
        let mut sgd = Sgd::new(0.9, 1e-4);
        push("sgd_step", dim.to_string(), dim, &mut || {
            sgd.step(&mut params, &grads, 1e-6);
        });
    }
    (pooled_threads, results)
}

/// The socket frame codec at the bulk frame size.
struct WireResult {
    floats: usize,
    checksum_gbs: f64,
    encode_us: f64,
    decode_us: f64,
    checksum_over_fnv1a: f64,
}

/// Smallest `wire.checksum_over_fnv1a` accepted under `--baseline`. A ratio of two
/// loops over the same buffer on the same machine: the word-parallel checksum reads
/// 20x to 35x, so anything under 4x means it fell back to a byte at a time.
const CHECKSUM_MIN_SPEEDUP: f64 = 4.0;

/// Byte-serial FNV-1a-64, what `wire::checksum` was before it went word-parallel.
/// It lives here only, as the yardstick of `checksum_over_fnv1a`.
fn fnv1a_reference(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// Checksum bandwidth and the two passes a bulk sync frame pays per process, at the
/// VggLike parameter count: build (lay the `f32`s down + checksum) and parse
/// (checksum + convert back).
fn bench_wire(budget_s: f64) -> WireResult {
    let floats = PaperModel::build(ModelKind::VggLike, 1).param_count();
    let params: Vec<f32> = (0..floats).map(|i| (i % 13) as f32 * 0.1 - 0.6).collect();
    fn build<'a>(frame: &'a mut FrameBuf, params: &[f32]) -> &'a [u8] {
        frame.begin(MsgKind::Rpc, 7, 1);
        frame.put_f32s(params);
        frame.finish()
    }
    let mut frame = FrameBuf::new();
    let encode_secs = time_per_call(budget_s, || {
        black_box(build(&mut frame, black_box(&params)));
    });
    let sealed = build(&mut frame, &params);
    let decode_secs = time_per_call(budget_s, || {
        let view = EnvelopeRef::parse(black_box(sealed)).expect("own frame parses");
        black_box(wire::f32s_from_le_bytes(view.payload));
    });
    let bytes = &sealed[..sealed.len() - 8];
    // Alternate the two loops and keep each one's fastest reading, as
    // `serial_and_pooled` does.
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let fast = time_per_call(budget_s / 5.0, || {
            black_box(wire::checksum(black_box(bytes)));
        });
        let reference = time_per_call(budget_s / 5.0, || {
            black_box(fnv1a_reference(black_box(bytes)));
        });
        best = (best.0.min(fast), best.1.min(reference));
    }
    WireResult {
        floats,
        checksum_gbs: bytes.len() as f64 / best.0 / 1e9,
        encode_us: encode_secs * 1e6,
        decode_us: decode_secs * 1e6,
        checksum_over_fnv1a: best.1 / best.0,
    }
}

struct SimRoundResult {
    workers: usize,
    threads: usize,
    steps_per_sec: f64,
}

/// Simulator round throughput: BSP (the arm every comparison shares, all workers
/// active every round) at several cluster widths, at 1 vs 4 effective pool threads.
/// Wall time includes one warm-up run so dataset/engine construction and the pool
/// spin-up are excluded from the measured runs.
fn bench_sim_round(quick: bool) -> Vec<SimRoundResult> {
    let mut results = Vec::new();
    for &workers in &[4usize, 8, 16] {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, workers);
        cfg.iterations = if quick { 12 } else { 40 };
        cfg.eval_every = cfg.iterations; // final eval only
        cfg.train_samples = 512;
        cfg.test_samples = 64;
        cfg.eval_samples = 64;
        cfg.batch_size = 16;
        cfg.algorithm = AlgorithmSpec::Bsp;
        for &threads in &[1usize, 4] {
            let steps_per_sec = par::with_threads(threads, || {
                let _warmup = algorithms::run(&cfg);
                let start = Instant::now();
                let report = algorithms::run(&cfg);
                report.iterations as f64 / start.elapsed().as_secs_f64()
            });
            results.push(SimRoundResult {
                workers,
                threads,
                steps_per_sec,
            });
        }
    }
    results
}

/// Extract `(workers, threads, steps_per_sec)` triples from the `sim_round` section of
/// a report produced by this binary (hand-rolled: the workspace builds offline, so
/// there is no JSON parser dependency — the format is our own).
fn parse_sim_round(json: &str) -> Vec<(usize, usize, f64)> {
    fn field<T: std::str::FromStr>(entry: &str, key: &str) -> Option<T> {
        let pos = entry.find(key)? + key.len();
        let rest = entry[pos..].trim_start();
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    }
    let Some(pos) = json.find("\"sim_round\"") else {
        return Vec::new();
    };
    let rest = &json[pos..];
    let body = &rest[..rest.find(']').unwrap_or(rest.len())];
    body.split('{')
        .skip(1)
        .filter_map(|entry| {
            Some((
                field::<usize>(entry, "\"workers\":")?,
                field::<usize>(entry, "\"threads\":")?,
                field::<f64>(entry, "\"steps_per_sec\":")?,
            ))
        })
        .collect()
}

/// Compare this run's `sim_round` numbers against a committed baseline report; returns
/// an error line per cell that regressed more than 20% below the baseline floor.
fn check_baseline(current: &str, baseline: &str) -> Vec<String> {
    let base = parse_sim_round(baseline);
    let now = parse_sim_round(current);
    let mut failures = Vec::new();
    if base.is_empty() {
        // A baseline that parses to nothing must fail loudly, or the gate silently
        // becomes a no-op (malformed file, renamed key, wrong path).
        failures.push("baseline file contains no sim_round entries".to_string());
    }
    for (workers, threads, floor) in base {
        let Some(&(_, _, got)) = now.iter().find(|&&(w, t, _)| w == workers && t == threads) else {
            failures.push(format!(
                "sim_round cell workers={workers} threads={threads} missing from current report"
            ));
            continue;
        };
        if got < 0.8 * floor {
            failures.push(format!(
                "sim_round regression at workers={workers} threads={threads}: \
                 {got:.2} steps/s < 80% of baseline {floor:.2}"
            ));
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .map(|i| args.get(i + 1).expect("--baseline requires a path").clone());
    let budget_s = if quick { 0.1 } else { 0.4 };

    let shapes: &[(usize, usize, usize)] = if quick {
        &[(64, 64, 64), (256, 256, 256)]
    } else {
        &[
            (64, 64, 64),
            (128, 128, 128),
            (256, 256, 256),
            (512, 512, 512),
        ]
    };

    let kernels = bench_matmuls(shapes, budget_s);

    // Elementwise bandwidth: the axpy sweep behind optimizer updates/aggregation.
    let elems = if quick { 1 << 18 } else { 1 << 21 };
    let x: Vec<f32> = (0..elems).map(|i| (i % 13) as f32 * 0.1).collect();
    let mut y = vec![0.0f32; elems];
    let axpy_secs = time_per_call(budget_s, || ops::axpy_slice(0.5, &x, &mut y));
    // 2 reads + 1 write of f32 per element.
    let axpy_gbs = (elems as f64 * 12.0) / axpy_secs / 1e9;

    // The workloads' own shapes, pool off vs on: the dispatch gate's acceptance rows.
    let (pooled_threads, model_shapes) = bench_model_shapes(budget_s);

    // Simulator round throughput: a small BSP run (the arm every comparison shares).
    let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
    cfg.iterations = if quick { 20 } else { 60 };
    cfg.eval_every = cfg.iterations; // final eval only
    cfg.train_samples = 512;
    cfg.test_samples = 128;
    cfg.eval_samples = 128;
    cfg.batch_size = 16;
    cfg.algorithm = AlgorithmSpec::Bsp;
    let start = Instant::now();
    let report = algorithms::run(&cfg);
    let sim_secs = start.elapsed().as_secs_f64();
    let steps_per_sec = report.iterations as f64 / sim_secs;

    // Worker-parallel round throughput across cluster widths and thread counts.
    let sim_round = bench_sim_round(quick);

    let wire = bench_wire(budget_s);

    // Acceptance benchmark: 256^3 matmul at 1 vs 4 effective threads.
    let (m, k, n) = (256, 256, 256);
    let a = tensor(m, k, 5);
    let b = tensor(k, n, 6);
    let mut out = Tensor::zeros(m, n);
    let flops = (2 * m * k * n) as f64;
    let t1 = par::with_threads(1, || {
        time_per_call(budget_s, || {
            ops::matmul_into(&a, &b, &mut out).expect("matmul shapes");
        })
    });
    let t4 = par::with_threads(4, || {
        time_per_call(budget_s, || {
            ops::matmul_into(&a, &b, &mut out).expect("matmul shapes");
        })
    });

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"threads\": {{ \"configured\": {}, \"available_parallelism\": {} }},\n",
        par::configured_threads(),
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    ));
    json.push_str(&format!("  \"kernel_isa\": \"{}\",\n", ops::kernel_isa()));
    json.push_str("  \"kernels\": [\n");
    for (i, r) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"kernel\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"secs_per_call\": {:.6e}, \"gflops\": {:.3} }}{}\n",
            r.kernel,
            r.m,
            r.k,
            r.n,
            r.secs_per_call,
            r.gflops,
            if i + 1 == kernels.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"elementwise\": {{ \"op\": \"axpy\", \"elems\": {elems}, \"secs_per_call\": {axpy_secs:.6e}, \"gbytes_per_sec\": {axpy_gbs:.3} }},\n"
    ));
    json.push_str(&format!(
        "  \"model_shapes\": {{ \"grain\": {}, \"pooled_threads\": {pooled_threads}, \"rows\": [\n",
        par::GRAIN
    ));
    for (i, r) in model_shapes.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"kernel\": \"{}\", \"shape\": \"{}\", \"work\": {}, \"below_grain\": {}, \"serial_secs\": {:.6e}, \"pooled_secs\": {:.6e}, \"pooled_over_serial\": {:.3}{} }}{}\n",
            r.kernel,
            r.shape,
            r.work,
            r.below_grain(),
            r.serial_secs,
            r.pooled_secs,
            r.pooled_over_serial(),
            r.serial_gflops()
                .map_or(String::new(), |g| format!(", \"serial_gflops\": {g:.3}")),
            if i + 1 == model_shapes.len() { "" } else { "," }
        ));
    }
    json.push_str("  ] },\n");
    json.push_str(&format!(
        "  \"simulator\": {{ \"model\": \"resnet_like\", \"workers\": 4, \"iterations\": {}, \"wall_secs\": {:.3}, \"steps_per_sec\": {:.2} }},\n",
        report.iterations, sim_secs, steps_per_sec
    ));
    json.push_str("  \"sim_round\": [\n");
    for (i, r) in sim_round.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"workers\": {}, \"threads\": {}, \"steps_per_sec\": {:.2} }}{}\n",
            r.workers,
            r.threads,
            r.steps_per_sec,
            if i + 1 == sim_round.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"wire\": {{ \"floats\": {}, \"checksum_gbs\": {:.3}, \"encode_us\": {:.1}, \"decode_us\": {:.1}, \"checksum_over_fnv1a\": {:.2} }},\n",
        wire.floats, wire.checksum_gbs, wire.encode_us, wire.decode_us, wire.checksum_over_fnv1a
    ));
    json.push_str(&format!(
        "  \"speedup_256\": {{ \"t1_secs\": {:.6e}, \"t4_secs\": {:.6e}, \"t1_gflops\": {:.3}, \"t4_gflops\": {:.3}, \"speedup\": {:.3} }}\n",
        t1,
        t4,
        flops / t1 / 1e9,
        flops / t4 / 1e9,
        t1 / t4
    ));
    json.push_str("}\n");
    print!("{json}");

    if let Some(path) = baseline_path {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let mut failures = check_baseline(&json, &baseline);
        for r in model_shapes
            .iter()
            .filter(|r| r.below_grain() && r.pooled_over_serial() > BELOW_GRAIN_MAX_RATIO)
        {
            failures.push(format!(
                "{} {} is below one grain ({} <= {}) yet {:.2}x slower at {pooled_threads} \
                 threads than at 1: it must run on the calling thread",
                r.kernel,
                r.shape,
                r.work,
                par::GRAIN,
                r.pooled_over_serial()
            ));
        }
        if wire.checksum_over_fnv1a < CHECKSUM_MIN_SPEEDUP {
            failures.push(format!(
                "wire::checksum is only {:.2}x a byte-serial FNV-1a loop on {} bytes \
                 (floor {CHECKSUM_MIN_SPEEDUP}x): the bulk frame path is checksum-bound again",
                wire.checksum_over_fnv1a,
                4 * wire.floats
            ));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("bench_kernels: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "bench_kernels: sim_round within 20% of the committed baseline ({path}); \
             below-grain kernels within {BELOW_GRAIN_MAX_RATIO}x of their serial time; \
             wire::checksum at least {CHECKSUM_MIN_SPEEDUP}x a byte-serial loop"
        );
    }
}
