//! A warm synchronization round takes nothing from the allocator.
//!
//! Every BSP round moves the whole parameter vector worker → hub → worker. This
//! binary installs a counting global allocator that tallies every allocation of
//! exactly one parameter vector's size (`4 × param_count` bytes of VggLike) and
//! runs the same BSP configuration for `R` and for `2R` rounds on both cluster
//! backends: the process backend (hub and two workers as threads over a real
//! Unix socket) and the threaded backend. Buffers the sync path allocates once
//! and then recycles show up in both runs alike; a per-round copy makes the
//! longer run count more. The allocator is process-wide, so the tests serialize
//! on one lock and the binary carries nothing else.

use selsync_repro::comm::socket::SocketAddrSpec;
use selsync_repro::core::config::{AlgorithmSpec, TrainConfig};
use selsync_repro::core::process::{run_process_hub, run_process_worker};
use selsync_repro::core::threaded::run_threaded_selsync;
use selsync_repro::nn::model::{ModelKind, PaperModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Byte size being counted (0: counting off).
static WATCHED_BYTES: AtomicUsize = AtomicUsize::new(0);
static WATCHED_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

/// [`System`], counting the allocations and reallocations of exactly
/// [`WATCHED_BYTES`] bytes.
struct Counting;

impl Counting {
    fn note(size: usize) {
        if size == WATCHED_BYTES.load(Ordering::Relaxed) {
            WATCHED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards unchanged to `System`; the counters are atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rounds of the shorter run; the longer one runs twice as many. Every round
/// synchronizes (BSP), so the difference is `R` sync rounds.
const R: usize = 3;

fn bsp_vgg(iterations: usize) -> TrainConfig {
    let mut cfg = TrainConfig::small(ModelKind::VggLike, 2);
    cfg.algorithm = AlgorithmSpec::Bsp;
    cfg.iterations = iterations;
    cfg.batch_size = 8;
    cfg.train_samples = 64;
    cfg.test_samples = 16;
    cfg
}

/// Parameter-vector-sized allocations made while `run` executes.
fn count_param_sized(run: impl FnOnce()) -> usize {
    let param_bytes = 4 * PaperModel::build(ModelKind::VggLike, 42).param_count();
    WATCHED_ALLOCS.store(0, Ordering::Relaxed);
    WATCHED_BYTES.store(param_bytes, Ordering::Relaxed);
    run();
    WATCHED_BYTES.store(0, Ordering::Relaxed);
    WATCHED_ALLOCS.load(Ordering::Relaxed)
}

fn process_cluster(cfg: &TrainConfig) {
    let addr = SocketAddrSpec::Unix(std::env::temp_dir().join(format!(
        "selsync-bulk-alloc-{}-{}",
        cfg.iterations,
        std::process::id()
    )));
    let addr = &addr;
    std::thread::scope(|scope| {
        let hub = scope.spawn(|| run_process_hub(cfg, addr));
        let workers: Vec<_> = (0..cfg.workers)
            .map(|w| scope.spawn(move || run_process_worker(cfg, w, addr)))
            .collect();
        for worker in workers {
            let (report, _shard) = worker.join().expect("worker thread");
            assert_eq!(
                report.sync_steps, cfg.iterations as u64,
                "BSP syncs every round"
            );
        }
        hub.join().expect("hub thread");
    });
    if let SocketAddrSpec::Unix(path) = addr {
        let _ = std::fs::remove_file(path);
    }
}

fn threaded_cluster(cfg: &TrainConfig) {
    for report in run_threaded_selsync(cfg) {
        assert_eq!(
            report.sync_steps, cfg.iterations as u64,
            "BSP syncs every round"
        );
    }
}

fn assert_flat(backend: &str, run: fn(&TrainConfig)) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (short, long) = (bsp_vgg(R), bsp_vgg(2 * R));
    let at_r = count_param_sized(|| run(&short));
    let at_2r = count_param_sized(|| run(&long));
    assert!(
        at_2r <= at_r,
        "{backend}: {at_r} parameter-sized allocations over {R} rounds but {at_2r} over {} — \
         {} more per extra sync round",
        2 * R,
        (at_2r - at_r) as f32 / R as f32
    );
}

#[test]
fn process_backend_sync_rounds_allocate_no_parameter_sized_buffer() {
    assert_flat("process", process_cluster);
}

#[test]
fn threaded_backend_sync_rounds_allocate_no_parameter_sized_buffer() {
    assert_flat("threaded", threaded_cluster);
}
