//! Communication-substrate micro-benchmarks: the real (thread-rendezvous) 1-bit status
//! all-gather and parameter-server synchronization rounds, plus the analytical network
//! model's cost evaluation. The status all-gather is the op SelSync adds to every step,
//! so its overhead must be negligible next to a parameter exchange.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selsync_comm::{Collective, NetworkModel, ParameterServer};
use std::hint::black_box;
use std::sync::Arc;

fn run_threads<T: Send>(n: usize, f: impl Fn(usize) -> T + Send + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..n).map(|w| s.spawn(move || f(w))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn bench_status_allgather(c: &mut Criterion) {
    let mut group = c.benchmark_group("status_allgather");
    group.sample_size(20);
    for &n in &[4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let coll = Arc::new(Collective::new(n));
                let c2 = Arc::clone(&coll);
                run_threads(n, move |w| c2.allgather_flags(w, w % 3 == 0))
            });
        });
    }
    group.finish();
}

fn bench_ps_sync_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("ps_sync_round");
    group.sample_size(10);
    for &dim in &[1_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, &dim| {
            b.iter(|| {
                let ps = Arc::new(ParameterServer::new(vec![0.0; dim]));
                let ps2 = Arc::clone(&ps);
                run_threads(8, move |w| ps2.sync_round_elastic(0, w, &vec![w as f32; dim], 8))
            });
        });
    }
    group.finish();
}

fn bench_network_model(c: &mut Criterion) {
    let net = NetworkModel::paper_5gbps();
    c.bench_function("cost_model_ps_sync_time", |b| {
        b.iter(|| net.ps_sync_time(black_box(507 * 1024 * 1024), black_box(16)))
    });
}

criterion_group!(benches, bench_status_allgather, bench_ps_sync_round, bench_network_model);
criterion_main!(benches);
