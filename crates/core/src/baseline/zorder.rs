//! Z-order key-range locking — the §2 straw man, implemented for real.
//!
//! The paper argues that the B-tree solution to phantoms (key-range
//! locking) cannot be salvaged for multidimensional data by imposing an
//! artificial total order: "an object will be accessed as long as it is
//! within the upper and the lower bounds in the region according to the
//! superimposed total order", producing high lock overhead and false
//! conflicts. This baseline makes that argument measurable:
//!
//! * space is discretized into a `2^k × 2^k` grid whose cells are ordered
//!   by the Z-curve (bit interleaving);
//! * a rectangle maps to the **contiguous Z-interval**
//!   `[z_min(cells), z_max(cells)]` — which in general covers many cells
//!   the rectangle does not touch;
//! * the interval is locked via fixed-width *key-range granules* (the
//!   moral equivalent of KRL's semi-open ranges): S for scans, IX for
//!   writes, commit duration, through the ordinary lock manager.
//!
//! Soundness: if two rectangles intersect, they share a grid cell, whose
//! Z-value lies in both intervals, so both transactions lock the granule
//! containing it — conflicts are never missed. The cost is the converse:
//! disjoint rectangles frequently have overlapping Z-intervals (the
//! curve's jumps), so transactions conflict without any spatial overlap.
//! `zorder_granules_locked` in the statistics counts locks per operation;
//! the `zorder` experiment in `dgl-bench` sweeps query sizes against the
//! granular protocol.

use dgl_geom::Rect2;
use dgl_lockmgr::{
    LockDuration::Commit,
    LockManagerConfig,
    LockMode::{self, IX, S, X},
    LockOutcome, RequestKind, ResourceId, TxnId,
};
use dgl_obs::Ctr;
use dgl_rtree::{ObjectId, RTreeConfig};

use crate::{ScanHit, TransactionalRTree, TxnError};

use super::BaseInner;

/// Configuration for [`ZOrderRTree`].
#[derive(Debug, Clone)]
pub struct ZOrderConfig {
    /// R-tree shape (data access is still an R-tree; only the *locking*
    /// uses the superimposed order).
    pub rtree: RTreeConfig,
    /// Embedded space.
    pub world: Rect2,
    /// Lock manager configuration.
    pub lock: LockManagerConfig,
}

/// Grid resolution exponent: the space is a `2^k × 2^k` cell grid.
const GRID_BITS: u32 = 8;

/// Number of key-range granules the Z-axis is divided into (a power of
/// two ≤ `4^GRID_BITS`).
const RANGE_GRANULES: u64 = 1024;

impl Default for ZOrderConfig {
    fn default() -> Self {
        Self {
            rtree: RTreeConfig::default(),
            world: Rect2::unit(),
            lock: LockManagerConfig::default(),
        }
    }
}

/// Interleaves the low `bits` bits of `x` and `y` (Morton code).
fn z_value(x: u32, y: u32, bits: u32) -> u64 {
    let mut z = 0u64;
    for b in 0..bits {
        z |= u64::from((x >> b) & 1) << (2 * b);
        z |= u64::from((y >> b) & 1) << (2 * b + 1);
    }
    z
}

/// An R-tree protected by key-range locks over a Z-order of the space.
pub struct ZOrderRTree {
    inner: BaseInner,
    world: Rect2,
}

impl ZOrderRTree {
    /// Creates an empty index.
    pub fn new(config: ZOrderConfig) -> Self {
        Self {
            inner: BaseInner::new(config.rtree, config.world, config.lock),
            world: config.world,
        }
    }

    /// Grid coordinate of a world coordinate along one dimension.
    fn cell_coord(&self, v: f64, d: usize) -> u32 {
        let lo = self.world.lo[d];
        let extent = self.world.hi[d] - lo;
        let cells = (1u64 << GRID_BITS) as f64;
        let f = ((v - lo) / extent * cells).floor();
        (f.clamp(0.0, cells - 1.0)) as u32
    }

    /// The Z-interval `[lo, hi]` covering a rectangle: min and max Morton
    /// codes over its corner cells. (The true min/max over all covered
    /// cells is attained at the corners for min=lower-left / max=upper-
    /// right only along the curve's major digits; taking min/max over all
    /// four corners plus the extremes of the covered cell-rectangle is
    /// conservative and sound: every covered cell's Z lies within.)
    fn z_interval(&self, rect: &Rect2) -> (u64, u64) {
        let x0 = self.cell_coord(rect.lo[0], 0);
        let y0 = self.cell_coord(rect.lo[1], 1);
        let x1 = self.cell_coord(rect.hi[0], 0);
        let y1 = self.cell_coord(rect.hi[1], 1);
        // Z is monotone in each coordinate (more-significant interleaved
        // bits only grow), so the extremes over the cell rectangle are at
        // (x0,y0) and (x1,y1).
        (z_value(x0, y0, GRID_BITS), z_value(x1, y1, GRID_BITS))
    }

    /// The key-range granule ids covering a Z-interval.
    fn granules_for(&self, rect: &Rect2) -> std::ops::RangeInclusive<u64> {
        let (zlo, zhi) = self.z_interval(rect);
        let cells = 1u64 << (2 * GRID_BITS);
        let per = cells / RANGE_GRANULES;
        (zlo / per)..=(zhi / per)
    }

    /// Locks every key-range granule covering `rect` in `mode`.
    fn lock_range(&self, txn: TxnId, rect: &Rect2, mode: LockMode) -> Result<(), TxnError> {
        for g in self.granules_for(rect) {
            // Key-range granules live in the object namespace offset by a
            // high tag bit so they never collide with object ids.
            let res = ResourceId::Object(1 << 63 | g);
            match self
                .inner
                .lm
                .lock(txn, res, mode, Commit, RequestKind::Unconditional)
            {
                LockOutcome::Granted => {}
                LockOutcome::Deadlock => {
                    self.inner.rollback_now(txn);
                    return Err(TxnError::Deadlock);
                }
                LockOutcome::Timeout => {
                    self.inner.rollback_now(txn);
                    return Err(TxnError::Timeout);
                }
                LockOutcome::WouldBlock => unreachable!("unconditional request"),
            }
        }
        Ok(())
    }

    fn obj_lock(&self, txn: TxnId, oid: ObjectId, mode: LockMode) -> Result<(), TxnError> {
        match self.inner.lm.lock(
            txn,
            ResourceId::Object(oid.0),
            mode,
            Commit,
            RequestKind::Unconditional,
        ) {
            LockOutcome::Granted => Ok(()),
            LockOutcome::Deadlock => {
                self.inner.rollback_now(txn);
                Err(TxnError::Deadlock)
            }
            LockOutcome::Timeout => {
                self.inner.rollback_now(txn);
                Err(TxnError::Timeout)
            }
            LockOutcome::WouldBlock => unreachable!("unconditional request"),
        }
    }
}

impl TransactionalRTree for ZOrderRTree {
    fn begin(&self) -> TxnId {
        self.inner.tm.begin()
    }

    fn commit(&self, txn: TxnId) -> Result<(), TxnError> {
        self.inner.check_active(txn)?;
        self.inner.tm.commit(txn);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> Result<(), TxnError> {
        self.inner.check_active(txn)?;
        self.inner.rollback_now(txn);
        Ok(())
    }

    fn insert(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<(), TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::Inserts);
        self.lock_range(txn, &rect, IX)?;
        self.obj_lock(txn, oid, X)?;
        self.inner.do_insert(txn, oid, rect)
    }

    fn delete(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::Deletes);
        // Like the granular protocol's absent-delete: the presence check
        // is a read of the range, so take S as well as IX (supremum SIX
        // is computed by the lock manager).
        self.lock_range(txn, &rect, S)?;
        self.lock_range(txn, &rect, IX)?;
        self.obj_lock(txn, oid, X)?;
        Ok(self.inner.do_delete(txn, oid, rect))
    }

    fn read_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<Option<u64>, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::ReadSingles);
        self.obj_lock(txn, oid, S)?;
        let tree = self.inner.tree.read();
        Ok(match tree.lookup(oid, rect) {
            Some(_) => self.inner.payloads.lock().get(&oid).copied(),
            None => None,
        })
    }

    fn update_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::UpdateSingles);
        self.lock_range(txn, &rect, IX)?;
        self.obj_lock(txn, oid, X)?;
        let present = self.inner.tree.read().lookup(oid, rect).is_some();
        if !present {
            return Ok(false);
        }
        Ok(self.inner.do_update(txn, oid).is_some())
    }

    fn read_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::ReadScans);
        self.lock_range(txn, &query, S)?;
        let tree = self.inner.tree.read();
        Ok(self.inner.hits(&tree, &query))
    }

    fn update_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::UpdateScans);
        self.lock_range(txn, &query, S)?;
        self.lock_range(txn, &query, IX)?;
        let mut hits = {
            let tree = self.inner.tree.read();
            self.inner.hits(&tree, &query)
        };
        for h in &mut hits {
            self.obj_lock(txn, h.oid, X)?;
            if let Some(v) = self.inner.do_update(txn, h.oid) {
                h.version = v;
            }
        }
        Ok(hits)
    }

    fn len(&self) -> usize {
        self.inner.tree.read().len()
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate_impl()
    }

    fn name(&self) -> &'static str {
        "zorder-krl"
    }

    fn obs_registry(&self) -> &std::sync::Arc<dgl_obs::Registry> {
        self.inner.obs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_value_interleaves_bits() {
        assert_eq!(z_value(0, 0, 4), 0);
        assert_eq!(z_value(1, 0, 4), 0b01);
        assert_eq!(z_value(0, 1, 4), 0b10);
        assert_eq!(z_value(1, 1, 4), 0b11);
        assert_eq!(z_value(2, 0, 4), 0b100);
        assert_eq!(z_value(0b1111, 0b1111, 4), 0b1111_1111);
    }

    #[test]
    fn z_is_monotone_per_coordinate() {
        for bits in [2u32, 4, 8] {
            let max = 1u32 << bits;
            for x in (0..max).step_by(3) {
                for y in (0..max).step_by(3) {
                    if x + 1 < max {
                        assert!(z_value(x + 1, y, bits) > z_value(x, y, bits));
                    }
                    if y + 1 < max {
                        assert!(z_value(x, y + 1, bits) > z_value(x, y, bits));
                    }
                }
            }
        }
    }

    #[test]
    fn intersecting_rects_share_a_granule() {
        // Soundness of the scheme: spatial overlap implies granule-set
        // overlap, for a sample of rectangle pairs.
        let db = ZOrderRTree::new(ZOrderConfig::default());
        let mut state = 7u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..300 {
            let a = {
                let x = rnd() * 0.8;
                let y = rnd() * 0.8;
                Rect2::new([x, y], [x + rnd() * 0.2, y + rnd() * 0.2])
            };
            let b = {
                let x = rnd() * 0.8;
                let y = rnd() * 0.8;
                Rect2::new([x, y], [x + rnd() * 0.2, y + rnd() * 0.2])
            };
            if a.intersects(&b) {
                let ga = db.granules_for(&a);
                let gb = db.granules_for(&b);
                let overlap = ga.start() <= gb.end() && gb.start() <= ga.end();
                assert!(overlap, "intersecting {a:?} {b:?} must share a granule");
            }
        }
    }

    #[test]
    fn large_scans_lock_many_granules() {
        // The paper's overhead claim: region queries lock ranges far
        // beyond their spatial extent.
        let db = ZOrderRTree::new(ZOrderConfig::default());
        let small = Rect2::new([0.4, 0.4], [0.41, 0.41]);
        let large = Rect2::new([0.1, 0.1], [0.9, 0.9]);
        let n_small = db.granules_for(&small).count();
        let n_large = db.granules_for(&large).count();
        assert!(
            n_large > 50 * n_small.max(1),
            "large {n_large} vs small {n_small}"
        );
    }

    #[test]
    fn cross_boundary_queries_cover_huge_false_ranges() {
        // A thin rectangle straddling the space's center line touches
        // cells whose Z-values span nearly the whole curve — the false
        // coverage at the heart of the paper's §2 argument.
        let db = ZOrderRTree::new(ZOrderConfig::default());
        let thin = Rect2::new([0.49, 0.49], [0.51, 0.51]);
        let frac = db.granules_for(&thin).count() as f64 / RANGE_GRANULES as f64;
        assert!(
            frac > 0.5,
            "a tiny center rect should z-cover most of the space, got {frac}"
        );
    }
}
