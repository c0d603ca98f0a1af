use dgl_geom::Rect2;
use dgl_rtree::ObjectId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One transactional operation for the multi-user benchmarks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Insert a fresh object.
    Insert(ObjectId, Rect2),
    /// Delete a previously inserted object.
    Delete(ObjectId, Rect2),
    /// Region scan.
    ReadScan(Rect2),
    /// Region scan + update.
    UpdateScan(Rect2),
    /// Point read of a known object.
    ReadSingle(ObjectId, Rect2),
    /// Update of a known object.
    UpdateSingle(ObjectId, Rect2),
}

/// Relative operation weights of a transaction mix (need not sum to 1).
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Weight of inserts.
    pub insert: u32,
    /// Weight of deletes.
    pub delete: u32,
    /// Weight of region scans.
    pub read_scan: u32,
    /// Weight of update scans.
    pub update_scan: u32,
    /// Weight of single reads.
    pub read_single: u32,
    /// Weight of single updates.
    pub update_single: u32,
    /// Side length of scan queries (fraction of the space).
    pub scan_extent: f64,
    /// Extent of inserted objects.
    pub object_extent: f64,
}

impl OpMix {
    /// A read-mostly mix (the typical GIS query load).
    pub fn read_mostly() -> Self {
        Self {
            insert: 10,
            delete: 5,
            read_scan: 60,
            update_scan: 5,
            read_single: 15,
            update_single: 5,
            scan_extent: 0.1,
            object_extent: 0.02,
        }
    }

    /// A write-heavy mix (ingest-style load).
    pub fn write_heavy() -> Self {
        Self {
            insert: 45,
            delete: 20,
            read_scan: 15,
            update_scan: 5,
            read_single: 10,
            update_single: 5,
            scan_extent: 0.05,
            object_extent: 0.02,
        }
    }

    /// A balanced mix.
    pub fn balanced() -> Self {
        Self {
            insert: 25,
            delete: 15,
            read_scan: 30,
            update_scan: 5,
            read_single: 15,
            update_single: 10,
            scan_extent: 0.08,
            object_extent: 0.02,
        }
    }

    fn total(&self) -> u32 {
        self.insert
            + self.delete
            + self.read_scan
            + self.update_scan
            + self.read_single
            + self.update_single
    }
}

/// A deterministic per-thread operation stream.
///
/// Each stream owns a disjoint object-id range (`thread_id * 2^40 + k`), so
/// streams never collide on object ids; deletes/reads/updates target the
/// stream's own previously inserted objects, mirroring a partitioned
/// multi-tenant load while scans roam the whole space (where the
/// cross-transaction conflicts the protocols arbitrate actually happen).
#[derive(Debug)]
pub struct OpStream {
    rng: StdRng,
    mix: OpMix,
    next_oid: u64,
    live: Vec<(ObjectId, Rect2)>,
}

impl OpStream {
    /// Creates the stream for `thread_id` with the given mix and seed.
    pub fn new(mix: OpMix, thread_id: u64, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ (thread_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))),
            mix,
            next_oid: thread_id << 40,
            live: Vec::new(),
        }
    }

    fn rect(&mut self, extent: f64) -> Rect2 {
        let w = self.rng.random_range(0.0..extent.max(f64::MIN_POSITIVE));
        let h = self.rng.random_range(0.0..extent.max(f64::MIN_POSITIVE));
        let x = self.rng.random_range(0.0..(1.0 - w));
        let y = self.rng.random_range(0.0..(1.0 - h));
        Rect2::new([x, y], [x + w, y + h])
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.random_range(0..self.mix.total());
        let m = self.mix;
        let mut acc = m.insert;
        if roll < acc || self.live.is_empty() {
            let oid = ObjectId(self.next_oid);
            self.next_oid += 1;
            let rect = self.rect(m.object_extent);
            return Op::Insert(oid, rect);
        }
        acc += m.delete;
        if roll < acc {
            let idx = self.rng.random_range(0..self.live.len());
            let (oid, rect) = self.live[idx];
            return Op::Delete(oid, rect);
        }
        acc += m.read_scan;
        if roll < acc {
            return Op::ReadScan(self.rect(m.scan_extent));
        }
        acc += m.update_scan;
        if roll < acc {
            return Op::UpdateScan(self.rect(m.scan_extent));
        }
        acc += m.read_single;
        let idx = self.rng.random_range(0..self.live.len());
        let (oid, rect) = self.live[idx];
        if roll < acc {
            Op::ReadSingle(oid, rect)
        } else {
            Op::UpdateSingle(oid, rect)
        }
    }

    /// Records the outcome of a *committed* operation so future deletes
    /// and point reads target live objects.
    pub fn committed(&mut self, op: &Op) {
        match op {
            Op::Insert(oid, rect) => self.live.push((*oid, *rect)),
            Op::Delete(oid, _) => self.live.retain(|(o, _)| o != oid),
            _ => {}
        }
    }

    /// Currently live (committed) objects of this stream.
    pub fn live_objects(&self) -> &[(ObjectId, Rect2)] {
        &self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_disjoint() {
        let mut a1 = OpStream::new(OpMix::balanced(), 1, 42);
        let mut a2 = OpStream::new(OpMix::balanced(), 1, 42);
        let mut b = OpStream::new(OpMix::balanced(), 2, 42);
        for _ in 0..50 {
            assert_eq!(a1.next_op(), a2.next_op());
        }
        // Object ids from different threads never collide.
        for _ in 0..200 {
            if let Op::Insert(oid, _) = b.next_op() {
                assert!(oid.0 >> 40 == 2, "thread 2 oid space");
            }
        }
    }

    #[test]
    fn first_op_is_always_an_insert() {
        // With no live objects, object-targeting ops degrade to inserts.
        let mut s = OpStream::new(OpMix::read_mostly(), 0, 1);
        assert!(matches!(
            s.next_op(),
            Op::Insert(..) | Op::ReadScan(_) | Op::UpdateScan(_)
        ));
    }

    #[test]
    fn committed_inserts_become_delete_targets() {
        let mut s = OpStream::new(OpMix::write_heavy(), 3, 9);
        let mut deletes = 0;
        for _ in 0..500 {
            let op = s.next_op();
            if let Op::Delete(oid, _) = op {
                assert!(
                    s.live_objects().iter().any(|(o, _)| *o == oid),
                    "deletes target live objects"
                );
                deletes += 1;
            }
            s.committed(&op);
        }
        assert!(deletes > 20, "write-heavy mix must produce deletes");
    }

    #[test]
    fn mix_weights_roughly_respected() {
        let mut s = OpStream::new(OpMix::read_mostly(), 0, 5);
        // Warm up with some inserts so every op kind is drawable.
        for _ in 0..50 {
            let op = Op::Insert(ObjectId(s.next_oid), Rect2::unit());
            s.next_oid += 1;
            s.committed(&op);
        }
        let mut scans = 0;
        const N: usize = 2_000;
        for _ in 0..N {
            if matches!(s.next_op(), Op::ReadScan(_)) {
                scans += 1;
            }
        }
        let frac = scans as f64 / N as f64;
        assert!(
            (0.5..0.7).contains(&frac),
            "read-mostly mix should be ~60% scans, got {frac}"
        );
    }
}
