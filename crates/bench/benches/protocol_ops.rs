//! Micro-benchmarks of single-operation latency per protocol: the cost a
//! single-user application pays for phantom protection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgl_bench::experiments::table4::protocols;
use dgl_core::{ObjectId, Rect2, TransactionalRTree};
use dgl_workload::{Dataset, DatasetKind};
use std::hint::black_box;
use std::sync::Arc;

fn preloaded(idx: usize, n: usize) -> Arc<dyn TransactionalRTree> {
    let db = protocols(24).remove(idx);
    let dataset = Dataset::generate(DatasetKind::UniformRects { mean_extent: 0.02 }, n, 42);
    let t = db.begin();
    for (oid, rect) in &dataset.objects {
        db.insert(t, *oid, *rect).unwrap();
    }
    db.commit(t).unwrap();
    db
}

fn bench_read_scan(c: &mut Criterion) {
    let probes = Dataset::generate(DatasetKind::UniformRects { mean_extent: 0.05 }, 128, 7);
    let mut group = c.benchmark_group("op_read_scan");
    for idx in 0..4usize {
        let db = preloaded(idx, 4_000);
        group.bench_function(BenchmarkId::from_parameter(db.name()), |b| {
            let mut i = 0;
            b.iter(|| {
                let q = probes.objects[i % probes.len()].1;
                i += 1;
                let t = db.begin();
                let hits = db.read_scan(t, q).unwrap();
                db.commit(t).unwrap();
                black_box(hits)
            });
        });
    }
    group.finish();
}

fn bench_insert_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("op_insert_commit");
    group.sample_size(20);
    for idx in 0..4usize {
        let db = preloaded(idx, 4_000);
        let mut oid = 10_000_000u64;
        group.bench_function(BenchmarkId::from_parameter(db.name()), |b| {
            let mut k = 0u64;
            b.iter(|| {
                oid += 1;
                k += 1;
                let f = (k % 97) as f64 / 100.0;
                let t = db.begin();
                db.insert(
                    t,
                    ObjectId(oid),
                    Rect2::new([f * 0.9, f * 0.9], [f * 0.9 + 0.01, f * 0.9 + 0.01]),
                )
                .unwrap();
                db.commit(t).unwrap();
            });
        });
    }
    group.finish();
}

fn bench_read_single(c: &mut Criterion) {
    let dataset = Dataset::generate(DatasetKind::UniformRects { mean_extent: 0.02 }, 4_000, 42);
    let mut group = c.benchmark_group("op_read_single");
    for idx in 0..4usize {
        let db = preloaded(idx, 4_000);
        group.bench_function(BenchmarkId::from_parameter(db.name()), |b| {
            let mut i = 0;
            b.iter(|| {
                let (oid, rect) = dataset.objects[i % dataset.len()];
                i += 1;
                let t = db.begin();
                let v = db.read_single(t, oid, rect).unwrap();
                db.commit(t).unwrap();
                black_box(v)
            });
        });
    }
    group.finish();
}

/// A point read inside a transaction that already holds `held` commit
/// locks: the end of an operation must cost what the operation locked,
/// not what the transaction holds (EXPERIMENTS.md, "End-of-operation cost
/// vs locks held").
fn bench_long_txn(c: &mut Criterion) {
    const PROBES: usize = 16;
    let dataset = Dataset::generate(DatasetKind::UniformRects { mean_extent: 0.02 }, 4_000, 42);
    let mut group = c.benchmark_group("long_txn");
    for held in [0usize, 64, 1024] {
        let db = preloaded(0, 4_000);
        let t = db.begin();
        for (oid, rect) in &dataset.objects[..held] {
            db.read_single(t, *oid, *rect).unwrap();
        }
        group.bench_function(format!("point_read_holding_{held}"), |b| {
            let mut i = 0;
            b.iter(|| {
                let (oid, rect) = dataset.objects[held + i % PROBES];
                i += 1;
                black_box(db.read_single(t, oid, rect).unwrap())
            });
        });
        db.commit(t).unwrap();
    }
    // The same property seen from the load path: 50 000 inserts cost the
    // same whether a transaction carries 8 of them or 1 024.
    let load = Dataset::generate(DatasetKind::UniformRects { mean_extent: 0.02 }, 50_000, 42);
    group.sample_size(3);
    for per_txn in [8usize, 1024] {
        group.bench_function(format!("load_50k_at_{per_txn}_per_txn"), |b| {
            b.iter(|| {
                let db = protocols(24).remove(0);
                for chunk in load.objects.chunks(per_txn) {
                    let t = db.begin();
                    for (oid, rect) in chunk {
                        db.insert(t, *oid, *rect).unwrap();
                    }
                    db.commit(t).unwrap();
                }
                black_box(db.len())
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_read_scan, bench_insert_commit, bench_read_single, bench_long_txn
}
criterion_main!(benches);
