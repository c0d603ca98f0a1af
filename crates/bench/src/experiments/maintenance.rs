//! §3.7 maintenance schedule: commit-path latency with deferred physical
//! deletions executed inline at commit vs handed to the background
//! worker.
//!
//! The paper defers physical deletions past commit but leaves the
//! schedule open. Running them inline keeps the system simple yet makes
//! every deleting transaction pay for tree condensation and orphan
//! re-insertion on its commit path; the background worker reduces commit
//! to an enqueue. This experiment measures that gap on a delete-heavy
//! workload, and also reports end-to-end wall time including a final
//! `quiesce` — the physical work is conserved, only *who waits for it*
//! changes.

use std::time::Instant;

use dgl_core::{
    DglConfig, DglRTree, InsertPolicy, MaintenanceConfig, MaintenanceMode, ObjectId,
    TransactionalRTree,
};
use dgl_obs::{Ctr, Hist};
use dgl_rtree::RTreeConfig;
use dgl_workload::{Dataset, DatasetKind};
use serde::Serialize;

/// One maintenance schedule's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct MaintenanceRow {
    /// Schedule name (`inline` / `background`).
    pub mode: &'static str,
    /// Committed transactions in the measured phase.
    pub commits: u64,
    /// Mean commit-path latency in microseconds.
    pub avg_commit_micros: f64,
    /// Wall time of the measured phase (commit returns included,
    /// maintenance possibly still pending), milliseconds.
    pub wall_ms: f64,
    /// Wall time including the final `quiesce` (all physical deletions
    /// applied), milliseconds.
    pub wall_quiesced_ms: f64,
    /// System operations (deferred physical deletions) executed.
    pub deferred_deletes: u64,
}

/// Runs the delete-heavy workload under both schedules.
///
/// Each measured transaction deletes `deletes_per_txn` live objects and
/// inserts as many replacements, so the tree size stays at `n` and every
/// commit carries physical-deletion work.
pub fn run_comparison(
    n: usize,
    txns: usize,
    deletes_per_txn: usize,
    seed: u64,
) -> Vec<MaintenanceRow> {
    let preload = Dataset::generate(DatasetKind::UniformRects { mean_extent: 0.02 }, n, seed);
    let replacements = Dataset::generate(
        DatasetKind::UniformRects { mean_extent: 0.02 },
        txns * deletes_per_txn,
        seed ^ 0xDEAD_BEEF,
    );
    let mut rows = Vec::new();
    for mode in [MaintenanceMode::Inline, MaintenanceMode::Background] {
        let db = DglRTree::new(DglConfig {
            rtree: RTreeConfig::with_fanout(16),
            policy: InsertPolicy::Modified,
            maintenance: MaintenanceConfig {
                mode,
                // Large enough that backpressure never blends worker time
                // back into the measured commit path.
                queue_capacity: txns * deletes_per_txn + 1,
            },
            ..Default::default()
        });
        let t = db.begin();
        for (oid, rect) in &preload.objects {
            db.insert(t, *oid, *rect).unwrap();
        }
        db.commit(t).unwrap();

        let before = db.obs().snapshot();
        let start = Instant::now();
        let mut doomed = preload.objects.iter();
        let mut fresh = replacements.objects.iter();
        for _ in 0..txns {
            let t = db.begin();
            for _ in 0..deletes_per_txn {
                let (oid, rect) = doomed.next().expect("preload outlasts the workload");
                assert!(db.delete(t, *oid, *rect).unwrap());
                let (oid, rect) = fresh.next().expect("sized to the workload");
                // Replacement ids are disjoint from the preload's.
                db.insert(t, ObjectId(oid.0 + 10_000_000), *rect).unwrap();
            }
            db.commit(t).unwrap();
        }
        let wall = start.elapsed();
        db.quiesce().expect("quiesce");
        let wall_quiesced = start.elapsed();
        db.validate().unwrap();
        assert_eq!(db.len(), n, "replacements keep the tree size constant");

        let s = db.obs().snapshot().since(&before);
        let commit = s.hist(Hist::Commit);
        rows.push(MaintenanceRow {
            mode: match mode {
                MaintenanceMode::Inline => "inline",
                MaintenanceMode::Background => "background",
            },
            commits: commit.count,
            avg_commit_micros: commit.sum as f64 / commit.count.max(1) as f64 / 1_000.0,
            wall_ms: wall.as_secs_f64() * 1_000.0,
            wall_quiesced_ms: wall_quiesced.as_secs_f64() * 1_000.0,
            deferred_deletes: s.ctr(Ctr::DeferredDeletes),
        });
    }
    rows
}

/// Markdown table for the report.
pub fn render(rows: &[MaintenanceRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{}", r.commits),
                format!("{:.1}", r.avg_commit_micros),
                format!("{:.1}", r.wall_ms),
                format!("{:.1}", r.wall_quiesced_ms),
                format!("{}", r.deferred_deletes),
            ]
        })
        .collect();
    crate::report::markdown_table(
        &[
            "Schedule",
            "Commits",
            "Avg commit (µs)",
            "Wall (ms)",
            "Wall + quiesce (ms)",
            "System ops",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structure only: the commit-latency gap this experiment exists to
    /// show is a wall-clock reading that scheduler noise on a loaded host
    /// can invert, so `repro maintenance` prints it and no test asserts
    /// it.
    #[test]
    fn both_schedules_commit_everything_and_delete_each_object_once() {
        let rows = run_comparison(400, 40, 3, 7);
        assert_eq!(rows.len(), 2);
        let (inline, background) = (&rows[0], &rows[1]);
        assert_eq!(inline.mode, "inline");
        assert_eq!(background.mode, "background");
        assert_eq!(inline.commits, 40);
        assert_eq!(background.commits, 40);
        // Both schedules execute every physical deletion exactly once.
        assert_eq!(inline.deferred_deletes, 40 * 3);
        assert_eq!(background.deferred_deletes, 40 * 3);
    }
}
