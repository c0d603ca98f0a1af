//! Design ablations for the choices DESIGN.md calls out.
//!
//! * **Insertion policy** (§3.4): base (every insert traverses overlapping
//!   paths) vs modified (only granule-changing inserts do). Measures the
//!   page-access overhead the modified policy eliminates.
//! * **External granule shape** (§3.1): per-node external granules vs the
//!   rejected single "everything uncovered" granule. Measures the
//!   concurrency lost to the hot spot.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dgl_core::{DglConfig, DglRTree, InsertPolicy, Rect2, TransactionalRTree};
use dgl_lockmgr::LockManagerConfig;
use dgl_obs::{Ctr, Hist};
use dgl_rtree::{ObjectId, RTreeConfig};
use dgl_workload::{Dataset, DatasetKind};
use serde::Serialize;

/// Result of the insertion-policy ablation.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyAblation {
    /// R-tree fanout.
    pub fanout: usize,
    /// Mean page reads per insert under the base policy.
    pub base_reads_per_insert: f64,
    /// Mean page reads per insert under the modified policy.
    pub modified_reads_per_insert: f64,
    /// Fraction of inserts that changed granule boundaries (and thus paid
    /// the traversal under the modified policy).
    pub changing_fraction: f64,
}

/// Loads `n` spatial objects under each policy and compares page reads.
pub fn insertion_policy(n: usize, fanout: usize, seed: u64) -> PolicyAblation {
    let dataset = Dataset::generate(DatasetKind::UniformRects { mean_extent: 0.05 }, n, seed);
    let mut results = Vec::new();
    for policy in [InsertPolicy::Base, InsertPolicy::Modified] {
        let db = DglRTree::new(DglConfig {
            rtree: RTreeConfig::with_fanout(fanout),
            policy,
            ..Default::default()
        });
        // Warm half, measure half.
        let half = dataset.len() / 2;
        let t = db.begin();
        for (oid, rect) in &dataset.objects[..half] {
            db.insert(t, *oid, *rect).unwrap();
        }
        db.commit(t).unwrap();
        let before = db.with_tree(|t| t.io_stats().snapshot());
        let t = db.begin();
        for (oid, rect) in &dataset.objects[half..] {
            db.insert(t, *oid, *rect).unwrap();
        }
        db.commit(t).unwrap();
        let delta = db.with_tree(|t| t.io_stats().snapshot()).since(&before);
        let per_insert = delta.logical_reads as f64 / (dataset.len() - half) as f64;
        let obs = db.obs().snapshot();
        results.push((
            per_insert,
            obs.ctr(Ctr::GranuleChangingInserts) as f64 / obs.ctr(Ctr::Inserts) as f64,
        ));
    }
    PolicyAblation {
        fanout,
        base_reads_per_insert: results[0].0,
        modified_reads_per_insert: results[1].0,
        changing_fraction: results[1].1,
    }
}

/// Result of the external-granule ablation.
#[derive(Debug, Clone, Serialize)]
pub struct ExternalGranuleAblation {
    /// Committed txns/sec with per-node external granules.
    pub per_node_txns_per_sec: f64,
    /// Committed txns/sec with the single coarse external granule.
    pub coarse_txns_per_sec: f64,
    /// Lock waits per txn, per-node variant.
    pub per_node_waits_per_txn: f64,
    /// Lock waits per txn, coarse variant.
    pub coarse_waits_per_txn: f64,
}

/// Mixed scan/insert load over a sparsely covered space: scans touching
/// uncovered space all S-lock external granules, and inserts growing into
/// it all SIX-lock them — under the coarse design those collapse onto one
/// hot resource.
pub fn external_granule(threads: u64, txns_per_thread: u64, seed: u64) -> ExternalGranuleAblation {
    let mut out = [None, None];
    for (i, coarse) in [false, true].into_iter().enumerate() {
        let db = Arc::new(DglRTree::new(DglConfig {
            rtree: RTreeConfig::with_fanout(8),
            policy: InsertPolicy::Modified,
            lock: LockManagerConfig {
                wait_timeout: Duration::from_secs(10),
            },
            coarse_external_granule: coarse,
            ..Default::default()
        }));
        // Sparse clusters: most of the space is external-granule space.
        let t = db.begin();
        for k in 0..40u64 {
            let cx = 0.1 + 0.2 * (k % 4) as f64;
            let cy = 0.1 + 0.2 * (k / 10) as f64;
            db.insert(t, ObjectId(k), Rect2::new([cx, cy], [cx + 0.01, cy + 0.01]))
                .unwrap();
        }
        db.commit(t).unwrap();

        let start = Instant::now();
        let commits: u64 = crossbeam::scope(|s| {
            let mut handles = Vec::new();
            for tid in 0..threads {
                let db = Arc::clone(&db);
                handles.push(s.spawn(move |_| {
                    let mut state = seed ^ (tid + 1).wrapping_mul(0x9E37_79B9);
                    let mut rnd = move || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state >> 11) as f64 / (1u64 << 53) as f64
                    };
                    let mut commits = 0;
                    let mut oid = (tid + 1) << 40;
                    while commits < txns_per_thread {
                        let txn = db.begin();
                        let ok = if commits % 2 == 0 {
                            // Scan a small region, mostly uncovered space,
                            // held open briefly (client think time) so the
                            // conflict window is real.
                            let x = rnd() * 0.85;
                            let y = rnd() * 0.85;
                            let ok = db
                                .read_scan(txn, Rect2::new([x, y], [x + 0.05, y + 0.05]))
                                .is_ok();
                            if ok {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            ok
                        } else {
                            // Insert into mostly-uncovered space (granule
                            // growth, hence external-granule SIX locks).
                            let x = rnd() * 0.9;
                            let y = rnd() * 0.9;
                            oid += 1;
                            db.insert(
                                txn,
                                ObjectId(oid),
                                Rect2::new([x, y], [x + 0.005, y + 0.005]),
                            )
                            .is_ok()
                        };
                        if ok && db.commit(txn).is_ok() {
                            commits += 1;
                        } else {
                            // `NotActive` if the failure rolled it back.
                            let _ = db.abort(txn);
                        }
                    }
                    commits
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
        .unwrap();
        let elapsed = start.elapsed().as_secs_f64();
        let waits = db.obs().hist(Hist::LockWait).count;
        out[i] = Some((
            commits as f64 / elapsed,
            waits as f64 / commits.max(1) as f64,
        ));
    }
    let (per_node, coarse) = (out[0].unwrap(), out[1].unwrap());
    ExternalGranuleAblation {
        per_node_txns_per_sec: per_node.0,
        coarse_txns_per_sec: coarse.0,
        per_node_waits_per_txn: per_node.1,
        coarse_waits_per_txn: coarse.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_policy_reads_at_least_as_much_as_modified() {
        let a = insertion_policy(3_000, 24, 5);
        assert!(
            a.base_reads_per_insert >= a.modified_reads_per_insert,
            "base {} vs modified {}",
            a.base_reads_per_insert,
            a.modified_reads_per_insert
        );
        assert!(a.changing_fraction > 0.0 && a.changing_fraction < 1.0);
    }

    #[test]
    fn coarse_external_granule_waits_more() {
        // A true contention assertion, so on a loaded two-vCPU box one
        // round can lose to scheduler noise: best of three.
        let mut last = (0.0, 0.0);
        for seed in [9, 10, 11] {
            let a = external_granule(4, 30, seed);
            assert!(a.per_node_txns_per_sec > 0.0);
            assert!(a.coarse_txns_per_sec > 0.0);
            // The hot spot shows up as more lock waits per transaction.
            if a.coarse_waits_per_txn >= a.per_node_waits_per_txn {
                return;
            }
            last = (a.coarse_waits_per_txn, a.per_node_waits_per_txn);
        }
        panic!(
            "coarse ({}) should wait at least as much as per-node ({}) \
             in at least one of 3 rounds",
            last.0, last.1
        );
    }
}
