//! §2 reproduction: why key-range locking over a superimposed total
//! order loses to granular locking.
//!
//! The paper dismisses adapting B-tree key-range locking via a Z-order as
//! "unnatural", predicting "a high lock overhead and a low degree of
//! concurrency" because protecting a region query requires locking
//! everything between its Z-bounds — including space nowhere near the
//! query. This experiment measures both predictions:
//!
//! * **lock overhead**: granules locked per region scan, swept over the
//!   query edge length, for the granular protocol vs the Z-order scheme;
//! * **false conflicts**: two workloads in spatially disjoint halves of
//!   the space should never block each other — count lock waits under
//!   each scheme.

use std::sync::Arc;
use std::time::Duration;

use dgl_core::baseline::{ZOrderConfig, ZOrderRTree};
use dgl_core::{DglConfig, DglRTree, ObjectId, Rect2, TransactionalRTree};
use dgl_lockmgr::LockManagerConfig;
use dgl_obs::Hist;
use dgl_rtree::RTreeConfig;
use dgl_workload::{Dataset, DatasetKind};
use serde::Serialize;

/// Lock overhead at one query size.
#[derive(Debug, Clone, Serialize)]
pub struct LockOverheadRow {
    /// Query edge length (fraction of the space).
    pub query_edge: f64,
    /// Mean lock-manager requests per scan, granular protocol.
    pub dgl_locks_per_scan: f64,
    /// Mean lock-manager requests per scan, Z-order key-range locking.
    pub zorder_locks_per_scan: f64,
}

/// Sweeps query sizes over a preloaded index and counts locks per scan.
pub fn lock_overhead_sweep(n: usize, seed: u64) -> Vec<LockOverheadRow> {
    let dataset = Dataset::generate(DatasetKind::UniformRects { mean_extent: 0.02 }, n, seed);
    let dgl = DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(50),
        ..Default::default()
    });
    let zorder = ZOrderRTree::new(ZOrderConfig {
        rtree: RTreeConfig::with_fanout(50),
        ..Default::default()
    });
    for db in [&dgl as &dyn TransactionalRTree, &zorder] {
        let t = db.begin();
        for (oid, rect) in &dataset.objects {
            db.insert(t, *oid, *rect).unwrap();
        }
        db.commit(t).unwrap();
    }

    let mut rows = Vec::new();
    const SCANS: usize = 64;
    for query_edge in [0.01, 0.02, 0.05, 0.1, 0.2, 0.4] {
        let mut per_db = [0.0f64; 2];
        for (i, db) in [&dgl as &dyn TransactionalRTree, &zorder]
            .into_iter()
            .enumerate()
        {
            let obs = db.obs_registry().expect("both protocols keep a registry");
            let before = obs.snapshot();
            let mut state = seed | 1;
            for _ in 0..SCANS {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let f = (state >> 11) as f64 / (1u64 << 53) as f64;
                let x = f * (1.0 - query_edge);
                state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let g = (state >> 11) as f64 / (1u64 << 53) as f64;
                let y = g * (1.0 - query_edge);
                let t = db.begin();
                let _ = db
                    .read_scan(t, Rect2::new([x, y], [x + query_edge, y + query_edge]))
                    .unwrap();
                db.commit(t).unwrap();
            }
            per_db[i] = obs.snapshot().since(&before).lock_requests() as f64 / SCANS as f64;
        }
        rows.push(LockOverheadRow {
            query_edge,
            dgl_locks_per_scan: per_db[0],
            zorder_locks_per_scan: per_db[1],
        });
    }
    rows
}

/// False-conflict measurement.
#[derive(Debug, Clone, Serialize)]
pub struct FalseConflictResult {
    /// Lock waits under the granular protocol (spatially disjoint load —
    /// should be ~0).
    pub dgl_waits: u64,
    /// Lock waits under Z-order key-range locking (the curve makes the
    /// disjoint halves collide).
    pub zorder_waits: u64,
    /// Committed transactions (same for both by construction).
    pub txns: u64,
}

/// Two spatially disjoint workloads, both crossing the space's horizontal
/// center line: a scanner works at x ∈ [0.06, 0.24] and an inserter at
/// x ∈ [0.82, 0.93]. Because both regions straddle the Z-curve's most
/// significant bit boundary (y = 0.5), their Z-intervals each cover the
/// middle of the entire curve and collide massively, while the granular
/// protocol sees two unrelated sets of leaf granules. Both sides operate
/// strictly inside pre-seeded leaf BRs so the granular protocol has no
/// growth (and hence no shared external-granule locks) at all.
pub fn false_conflicts(txns_per_side: u64, seed: u64) -> FalseConflictResult {
    let mut waits = [0u64; 2];
    for (i, coarse) in [false, true].into_iter().enumerate() {
        let db: Arc<dyn TransactionalRTree> = if coarse {
            Arc::new(ZOrderRTree::new(ZOrderConfig {
                rtree: RTreeConfig::with_fanout(24),
                lock: LockManagerConfig {
                    wait_timeout: Duration::from_secs(10),
                },
                ..Default::default()
            }))
        } else {
            Arc::new(DglRTree::new(DglConfig {
                rtree: RTreeConfig::with_fanout(24),
                lock: LockManagerConfig {
                    wait_timeout: Duration::from_secs(10),
                },
                ..Default::default()
            }))
        };
        // Seed dense bands on both sides so the leaf BRs cover the
        // working regions (anchor objects at the region corners make the
        // covering certain).
        let t = db.begin();
        let mut oid = 0u64;
        for k in 0..24u64 {
            let y = 0.42 + 0.007 * k as f64;
            db.insert(t, ObjectId(oid), Rect2::new([0.05, y], [0.25, y + 0.004]))
                .unwrap();
            oid += 1;
            db.insert(t, ObjectId(oid), Rect2::new([0.81, y], [0.94, y + 0.004]))
                .unwrap();
            oid += 1;
        }
        db.commit(t).unwrap();

        crossbeam::scope(|s| {
            // Left side: scans ALWAYS crossing y = 0.5 (the Z-curve's most
            // significant boundary), held open briefly (client think time)
            // so the conflict window is real.
            let db_l = Arc::clone(&db);
            s.spawn(move |_| {
                let mut state = seed | 1;
                for _ in 0..txns_per_side {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let y = 0.47 + 0.02 * ((state >> 11) as f64 / (1u64 << 53) as f64);
                    let t = db_l.begin();
                    let _ = db_l.read_scan(t, Rect2::new([0.06, y], [0.24, y + 0.04]));
                    std::thread::sleep(Duration::from_millis(1));
                    let _ = db_l.commit(t);
                }
            });
            // Right side: inserts strictly inside the right band's BR,
            // also always crossing y = 0.5, paced like the scans so the
            // two sides overlap in time.
            let db_r = Arc::clone(&db);
            s.spawn(move |_| {
                let mut state = (seed + 1) | 1;
                for k in 0..txns_per_side {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let y = 0.4975 + 0.002 * ((state >> 11) as f64 / (1u64 << 53) as f64);
                    let t = db_r.begin();
                    let _ = db_r.insert(
                        t,
                        ObjectId(10_000 + k),
                        Rect2::new([0.85, y], [0.86, y + 0.004]),
                    );
                    std::thread::sleep(Duration::from_millis(1));
                    let _ = db_r.commit(t);
                }
            });
        })
        .unwrap();
        waits[i] = db
            .obs_registry()
            .expect("both protocols keep a registry")
            .hist(Hist::LockWait)
            .count;
    }
    FalseConflictResult {
        dgl_waits: waits[0],
        zorder_waits: waits[1],
        txns: txns_per_side * 2,
    }
}

/// Markdown rendering of the sweep.
pub fn render_sweep(rows: &[LockOverheadRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.query_edge),
                format!("{:.1}", r.dgl_locks_per_scan),
                format!("{:.1}", r.zorder_locks_per_scan),
                format!(
                    "{:.1}x",
                    r.zorder_locks_per_scan / r.dgl_locks_per_scan.max(0.001)
                ),
            ]
        })
        .collect();
    crate::report::markdown_table(
        &[
            "Query edge",
            "DGL locks/scan",
            "Z-order locks/scan",
            "ratio",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zorder_lock_overhead_exceeds_granular() {
        let rows = lock_overhead_sweep(2_000, 5);
        // For mid-sized queries the Z-interval covers far more granules
        // than the query overlaps (the paper's claim).
        let mid = rows.iter().find(|r| r.query_edge == 0.2).unwrap();
        assert!(
            mid.zorder_locks_per_scan > 2.0 * mid.dgl_locks_per_scan,
            "z-order {} vs dgl {}",
            mid.zorder_locks_per_scan,
            mid.dgl_locks_per_scan
        );
    }

    #[test]
    fn zorder_produces_false_conflicts_where_dgl_has_none() {
        let r = false_conflicts(40, 11);
        assert!(
            r.zorder_waits > r.dgl_waits,
            "z-order should collide on disjoint halves: z {} vs dgl {}",
            r.zorder_waits,
            r.dgl_waits
        );
    }
}
