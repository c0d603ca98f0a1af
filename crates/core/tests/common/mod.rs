//! Shared helpers for the protocol integration tests.
#![allow(dead_code)] // each test binary uses a subset of these helpers

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use dgl_core::baseline::{
    ObjectOnlyRTree, PredicateConfig, PredicateRTree, TreeLockRTree, ZOrderConfig, ZOrderRTree,
};
use dgl_core::{DglConfig, DglRTree, InsertPolicy, Rect2, TransactionalRTree};
use dgl_lockmgr::{LockDuration, LockManagerConfig, LockMode};
use dgl_obs::{Event, Res};
use dgl_rtree::RTreeConfig;

pub fn lock_config(timeout_ms: u64) -> LockManagerConfig {
    LockManagerConfig {
        wait_timeout: Duration::from_millis(timeout_ms),
    }
}

/// Switches on `db`'s lock-grant event stream for the Table 3
/// conformance assertions. The stream only exists under the
/// `dgl-obs/full` feature (enabled by this crate's dev-dependencies); a
/// build without it must fail here, not pass on an empty event list.
pub fn traced(db: DglRTree) -> DglRTree {
    db.obs().set_detail(true);
    assert!(
        db.obs().detail(),
        "lock-grant events need the dgl-obs/full feature"
    );
    db
}

/// Drains `db`'s event stream and returns every granted lock request
/// (immediate or after a wait) as `(resource, mode, duration)`, in grant
/// order.
pub fn take_grants(db: &DglRTree) -> Vec<(Res, LockMode, LockDuration)> {
    assert!(db.obs().detail(), "call `traced` on the index first");
    const MODES: [LockMode; 5] = [
        LockMode::IS,
        LockMode::IX,
        LockMode::S,
        LockMode::SIX,
        LockMode::X,
    ];
    db.obs()
        .take_events()
        .into_iter()
        .filter_map(|e| match e {
            Event::LockGranted {
                res,
                mode,
                duration,
                ..
            } => {
                let mode = *MODES
                    .iter()
                    .find(|m| m.name() == mode)
                    .expect("a LockMode::name()");
                let duration = match duration {
                    "short" => LockDuration::Short,
                    "commit" => LockDuration::Commit,
                    other => panic!("unknown lock duration {other:?}"),
                };
                Some((res, mode, duration))
            }
            _ => None,
        })
        .collect()
}

/// [`take_grants`] as the sorted `(is_page, mode, duration)` multiset
/// the Table 3 assertions are written against.
pub fn grants(db: &DglRTree) -> Vec<(bool, LockMode, LockDuration)> {
    let mut v: Vec<_> = take_grants(db)
        .into_iter()
        .map(|(res, mode, dur)| (matches!(res, Res::Page(_)), mode, dur))
        .collect();
    v.sort();
    v
}

pub fn dgl(fanout: usize, policy: InsertPolicy) -> DglRTree {
    DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(fanout),
        world: Rect2::unit(),
        policy,
        lock: lock_config(5_000),
        ..Default::default()
    })
}

/// Every protocol implementation under test, boxed behind the common
/// trait. The last one is the intentionally unsound comparator.
pub fn sound_protocols(fanout: usize) -> Vec<Arc<dyn TransactionalRTree>> {
    vec![
        Arc::new(dgl(fanout, InsertPolicy::Modified)),
        Arc::new(dgl(fanout, InsertPolicy::Base)),
        Arc::new(TreeLockRTree::new(
            RTreeConfig::with_fanout(fanout),
            Rect2::unit(),
            lock_config(5_000),
        )),
        Arc::new(PredicateRTree::new(PredicateConfig {
            rtree: RTreeConfig::with_fanout(fanout),
            world: Rect2::unit(),
            lock: lock_config(5_000),
        })),
        Arc::new(ZOrderRTree::new(ZOrderConfig {
            rtree: RTreeConfig::with_fanout(fanout),
            world: Rect2::unit(),
            lock: lock_config(5_000),
        })),
    ]
}

pub fn unsound_protocol(fanout: usize) -> Arc<dyn TransactionalRTree> {
    Arc::new(ObjectOnlyRTree::new(
        RTreeConfig::with_fanout(fanout),
        Rect2::unit(),
        lock_config(5_000),
    ))
}

pub fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect2 {
    Rect2::new(lo, hi)
}

/// Deterministic pseudo-random rectangle stream.
pub struct RectGen {
    state: u64,
}

impl RectGen {
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_mul(0x9E3779B97F4A7C15) | 1,
        }
    }

    pub fn next_f64(&mut self) -> f64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn rect(&mut self, max_extent: f64) -> Rect2 {
        let x = self.next_f64() * (1.0 - max_extent);
        let y = self.next_f64() * (1.0 - max_extent);
        let w = self.next_f64() * max_extent;
        let h = self.next_f64() * max_extent;
        r([x, y], [x + w, y + h])
    }
}

/// Sorted object-id list from scan hits, for set comparisons.
pub fn ids(hits: &[dgl_core::ScanHit]) -> Vec<u64> {
    let mut v: Vec<u64> = hits.iter().map(|h| h.oid.0).collect();
    v.sort_unstable();
    v
}

/// Far beyond any healthy schedule (they finish in milliseconds, a loaded
/// two-vCPU box included).
pub const DEADLINE: Duration = Duration::from_secs(20);

/// Runs `schedule` on a thread of its own under [`DEADLINE`]. A schedule
/// that wedges fails the test with `dump()` — the merged wait-for view —
/// printed, instead of parking until CI kills the job; its threads are
/// left behind for process exit.
pub fn within_deadline<T: Send + 'static>(
    dump: impl Fn() -> String,
    schedule: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(schedule());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(out) => {
            worker.join().expect("schedule already reported");
            out
        }
        // The schedule panicked before reporting: surface its panic.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("schedule dropped its sender"))
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("schedule wedged past {DEADLINE:?}:\n{}", dump())
        }
    }
}

/// Polls (1 ms) until `ready`; the enclosing [`within_deadline`] bounds it.
pub fn wait_until(ready: impl Fn() -> bool) {
    while !ready() {
        std::thread::sleep(Duration::from_millis(1));
    }
}
