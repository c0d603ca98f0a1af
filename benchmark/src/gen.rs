//! The load generator and its oracle.
//!
//! The benchmark generates its own operations instead of using
//! `dgl_workload::OpStream`: that stream is non-stationary (its live set
//! drifts), pays O(n) per delete, and reads only what it inserted itself.
//! Here the data set is built from a **constant** seed (the same tree for
//! every `--seed`, because PR 12 measured a 15 % move in scan latency from
//! the R-tree's top-level shape alone), `--seed` drives only the operation
//! stream, insert and delete have equal weight with the live set steered
//! back to its target size, and every read targets the whole live set.
//!
//! The oracle is the generator's own copy of the live set. Because one
//! client runs one transaction at a time and no operation can fail, the
//! state after every operation is known when it is *generated*, so the
//! expected answer is stored in the operation and checked after the call
//! returns — generation and oracle work both stay outside the timed window.

use dgl_geom::Rect2;

/// Objects in the data set. ≈19 MiB resident once indexed (tree pages,
/// hash index, version chains): past this host's L2, and the program has
/// no page cache of its own to fit in or fall out of.
pub const DATASET_SIZE: usize = 50_000;

/// Seed of the data set; never derived from `--seed`.
pub const DATASET_SEED: u64 = 0x5EED_DA7A;

/// Largest side of an object rectangle; sides are uniform in `[0, MAX_SIDE]`.
const MAX_SIDE: f64 = 0.004;

/// Query side for a scan expected to return `hits` objects out of
/// [`DATASET_SIZE`] uniformly placed ones: a query of side `s` meets an
/// object of mean side `MAX_SIDE / 2` when their centres are within
/// `(s + MAX_SIDE / 2) / 2` on both axes.
pub fn scan_side(hits: f64) -> f64 {
    (hits / DATASET_SIZE as f64).sqrt() - MAX_SIDE / 2.0
}

/// The oracle's grid is `GRID` × `GRID` cells over the unit square.
const GRID: usize = 64;

fn cell_coord(v: f64) -> usize {
    ((v.max(0.0) * GRID as f64) as usize).min(GRID - 1)
}

fn cell_of(rect: &Rect2) -> usize {
    cell_coord(rect.lo[1]) * GRID + cell_coord(rect.lo[0])
}

/// splitmix64: one multiply-xorshift chain, enough for a load generator
/// and free of any dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` is far below 2^32 here, so the modulo bias
    /// is below 1e-5.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One live object as the oracle knows it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obj {
    pub oid: u64,
    pub rect: Rect2,
    /// Payload version including the open transaction's own updates.
    pub version: u64,
    /// Payload version as of the last commit (what a snapshot sees).
    pub committed: u64,
    /// Deleted by the open transaction: invisible to its locking reads,
    /// still visible to snapshots, removed from the live set at commit.
    pub dead: bool,
}

fn random_rect(rng: &mut Rng) -> Rect2 {
    let (w, h) = (rng.unit() * MAX_SIDE, rng.unit() * MAX_SIDE);
    let (x, y) = (rng.unit() * (1.0 - w), rng.unit() * (1.0 - h));
    Rect2::new([x, y], [x + w, y + h])
}

/// The data set: object ids `1..=DATASET_SIZE`, identical on every run.
pub fn dataset() -> Vec<Obj> {
    let mut rng = Rng::new(DATASET_SEED);
    (1..=DATASET_SIZE as u64)
        .map(|oid| Obj {
            oid,
            rect: random_rect(&mut rng),
            version: 1,
            committed: 1,
            dead: false,
        })
        .collect()
}

/// Operation kinds, also the index of their latency class.
pub const SCAN: usize = 0;
pub const SNAP: usize = 1;
pub const POINT: usize = 2;
pub const INSERT: usize = 3;
pub const DELETE: usize = 4;
pub const UPDATE: usize = 5;
/// Latency classes beyond the six operation kinds.
pub const COMMIT: usize = 6;
pub const TXN: usize = 7;
pub const CLASSES: usize = 8;
pub const CLASS_NAMES: [&str; CLASSES] = [
    "scan",
    "snap_scan",
    "point",
    "insert",
    "delete",
    "update",
    "commit",
    "txn",
];

/// Marks a scan whose hits are not compared with the oracle.
pub const UNCHECKED: u32 = u32::MAX;

/// Every `CHECK_EVERY`th locking scan and every `CHECK_EVERY`th snapshot
/// scan carries its expected hit set.
pub const CHECK_EVERY: u64 = 64;

/// One generated operation with the answer the oracle expects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Locking region scan; `check` indexes [`Segment::expected`].
    Scan {
        query: Rect2,
        check: u32,
    },
    /// Snapshot region scan (begin snapshot, scan, drop snapshot).
    SnapScan {
        query: Rect2,
        check: u32,
    },
    /// Point read; `expect` is the version it must return.
    Point {
        oid: u64,
        rect: Rect2,
        expect: u64,
    },
    Insert {
        oid: u64,
        rect: Rect2,
    },
    Delete {
        oid: u64,
        rect: Rect2,
    },
    Update {
        oid: u64,
        rect: Rect2,
    },
}

impl Op {
    pub fn kind(&self) -> usize {
        match self {
            Op::Scan { .. } => SCAN,
            Op::SnapScan { .. } => SNAP,
            Op::Point { .. } => POINT,
            Op::Insert { .. } => INSERT,
            Op::Delete { .. } => DELETE,
            Op::Update { .. } => UPDATE,
        }
    }
}

/// A traffic mix: per-kind weights in percent (indexed by kind), the
/// expected hits of a scan, and operations per transaction.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub weights: [u32; 6],
    pub scan_hits: f64,
    pub txn_ops: usize,
}

impl Mix {
    /// Probability that a transaction contains at least one delete.
    /// Commit runs the deferred physical deletions inline, so a commit
    /// with a delete is a different latency mode from one without;
    /// `commit_p50_us` stays inside one mode while this is ≤ 0.35 (or,
    /// for the 64-op ingest transactions, ≥ 0.99).
    pub fn p_txn_has_delete(&self) -> f64 {
        1.0 - (1.0 - f64::from(self.weights[DELETE]) / 100.0).powi(self.txn_ops as i32)
    }
}

/// Equal-op-count slice of the stream, generated before it is timed.
#[derive(Debug, Default)]
pub struct Segment {
    /// `txn_ops` operations per transaction, transactions back to back.
    pub ops: Vec<Op>,
    /// Expected `(oid, version)` sets, sorted by oid, of the checked scans.
    pub expected: Vec<Vec<(u64, u64)>>,
}

/// The operation stream of one run plus the oracle of the live set.
pub struct Generator {
    rng: Rng,
    mix: Mix,
    side: f64,
    target: usize,
    live: Vec<Obj>,
    /// Objects inserted by the open transaction (visible to its own
    /// locking scans, not to snapshots).
    pending: Vec<Obj>,
    /// `live` indices the open transaction deleted or updated.
    touched: Vec<usize>,
    /// `live` indices by the grid cell of the object's lower corner, so the
    /// oracle's scans look at a few hundred objects instead of all of them.
    cells: Vec<Vec<u32>>,
    next_oid: u64,
    scans_seen: u64,
    snaps_seen: u64,
}

impl Generator {
    pub fn new(seed: u64, mix: Mix, data: Vec<Obj>) -> Self {
        assert_eq!(mix.weights.iter().sum::<u32>(), 100);
        let mut cells = vec![Vec::new(); GRID * GRID];
        for (i, o) in data.iter().enumerate() {
            cells[cell_of(&o.rect)].push(i as u32);
        }
        Generator {
            // Keep the stream independent of the data set's own draws.
            rng: Rng::new(seed ^ 0xA5A5_5A5A_C3C3_3C3C),
            side: scan_side(mix.scan_hits),
            mix,
            target: data.len(),
            next_oid: data.len() as u64 + 1,
            live: data,
            pending: Vec::new(),
            touched: Vec::new(),
            cells,
            scans_seen: 0,
            snaps_seen: 0,
        }
    }

    /// Committed live objects (valid between transactions).
    pub fn live(&self) -> &[Obj] {
        &self.live
    }

    fn pick_kind(&mut self) -> usize {
        let mut r = (self.rng.next_u64() % 100) as u32;
        for (kind, w) in self.mix.weights.iter().enumerate() {
            if r < *w {
                return kind;
            }
            r -= w;
        }
        unreachable!("weights sum to 100")
    }

    /// Insert and delete share one weight; which of the two a structural
    /// draw becomes leans against the live set's drift, fully biased at
    /// ±0.5 % of the target. Without it a 24 s run random-walks ≈3 % away.
    fn steer(&mut self, kind: usize) -> usize {
        if kind != INSERT && kind != DELETE {
            return kind;
        }
        let live = self.live.len() + self.pending.len();
        let dead = self.touched.iter().filter(|&&i| self.live[i].dead).count();
        let drift = (live - dead) as f64 - self.target as f64;
        let lean = (drift / (0.005 * self.target as f64)).clamp(-1.0, 1.0);
        // P(keep the drawn kind) falls as the kind would add to the drift.
        let against = if kind == INSERT { lean } else { -lean };
        if self.rng.unit() < against {
            INSERT + DELETE - kind
        } else {
            kind
        }
    }

    fn query(&mut self) -> Rect2 {
        let s = self.side;
        let (x, y) = (self.rng.unit() * (1.0 - s), self.rng.unit() * (1.0 - s));
        Rect2::new([x, y], [x + s, y + s])
    }

    /// A live object the open transaction has not deleted.
    fn pick_live(&mut self) -> usize {
        loop {
            let i = self.rng.below(self.live.len());
            if !self.live[i].dead {
                return i;
            }
        }
    }

    /// The oracle's own scan, sharing no code with the index: every object
    /// whose lower corner can lie in a rectangle overlapping `q` sits in
    /// the grid cells from `q.lo - MAX_SIDE` to `q.hi`. (Brute force over
    /// the whole live set cost 120 µs per checked scan, 2.5 s per run.)
    fn expect_scan(&self, q: &Rect2, snapshot: bool) -> Vec<(u64, u64)> {
        let (x0, x1) = (cell_coord(q.lo[0] - MAX_SIDE), cell_coord(q.hi[0]));
        let (y0, y1) = (cell_coord(q.lo[1] - MAX_SIDE), cell_coord(q.hi[1]));
        let mut hits = Vec::new();
        for y in y0..=y1 {
            for x in x0..=x1 {
                for &i in &self.cells[y * GRID + x] {
                    let o = &self.live[i as usize];
                    if o.rect.intersects(q) && (snapshot || !o.dead) {
                        hits.push((o.oid, if snapshot { o.committed } else { o.version }));
                    }
                }
            }
        }
        if !snapshot {
            hits.extend(
                self.pending
                    .iter()
                    .filter(|o| o.rect.intersects(q))
                    .map(|o| (o.oid, o.version)),
            );
        }
        hits.sort_unstable();
        hits
    }

    fn gen_op(&mut self, seg: &mut Segment) -> Op {
        let drawn = self.pick_kind();
        match self.steer(drawn) {
            SCAN => {
                let query = self.query();
                self.scans_seen += 1;
                let check = if self.scans_seen.is_multiple_of(CHECK_EVERY) {
                    seg.expected.push(self.expect_scan(&query, false));
                    (seg.expected.len() - 1) as u32
                } else {
                    UNCHECKED
                };
                Op::Scan { query, check }
            }
            SNAP => {
                let query = self.query();
                self.snaps_seen += 1;
                let check = if self.snaps_seen.is_multiple_of(CHECK_EVERY) {
                    seg.expected.push(self.expect_scan(&query, true));
                    (seg.expected.len() - 1) as u32
                } else {
                    UNCHECKED
                };
                Op::SnapScan { query, check }
            }
            POINT => {
                let i = self.pick_live();
                let o = self.live[i];
                Op::Point {
                    oid: o.oid,
                    rect: o.rect,
                    expect: o.version,
                }
            }
            INSERT => {
                let o = Obj {
                    oid: self.next_oid,
                    rect: random_rect(&mut self.rng),
                    version: 1,
                    committed: 1,
                    dead: false,
                };
                self.next_oid += 1;
                self.pending.push(o);
                Op::Insert {
                    oid: o.oid,
                    rect: o.rect,
                }
            }
            DELETE => {
                let i = self.pick_live();
                self.live[i].dead = true;
                self.touched.push(i);
                Op::Delete {
                    oid: self.live[i].oid,
                    rect: self.live[i].rect,
                }
            }
            _ => {
                let i = self.pick_live();
                self.live[i].version += 1;
                self.touched.push(i);
                Op::Update {
                    oid: self.live[i].oid,
                    rect: self.live[i].rect,
                }
            }
        }
    }

    /// Applies the open transaction to the committed state.
    fn commit(&mut self) {
        // Highest index first, so `swap_remove` never moves an index that
        // is still to be visited.
        self.touched.sort_unstable_by(|a, b| b.cmp(a));
        self.touched.dedup();
        for k in 0..self.touched.len() {
            let i = self.touched[k];
            if self.live[i].dead {
                let last = self.live.len() - 1;
                let gone = self.live.swap_remove(i);
                let cell = &mut self.cells[cell_of(&gone.rect)];
                let at = cell
                    .iter()
                    .position(|&j| j as usize == i)
                    .expect("object in its cell");
                cell.swap_remove(at);
                if i != last {
                    // The former last object now lives at `i`.
                    let cell = &mut self.cells[cell_of(&self.live[i].rect)];
                    let at = cell
                        .iter()
                        .position(|&j| j as usize == last)
                        .expect("object in its cell");
                    cell[at] = i as u32;
                }
            } else {
                self.live[i].committed = self.live[i].version;
            }
        }
        self.touched.clear();
        for o in self.pending.drain(..) {
            self.cells[cell_of(&o.rect)].push(self.live.len() as u32);
            self.live.push(o);
        }
    }

    /// Generates the next `txns` transactions.
    pub fn segment(&mut self, txns: usize) -> Segment {
        let mut seg = Segment {
            ops: Vec::with_capacity(txns * self.mix.txn_ops),
            expected: Vec::new(),
        };
        for _ in 0..txns {
            for _ in 0..self.mix.txn_ops {
                let op = self.gen_op(&mut seg);
                seg.ops.push(op);
            }
            self.commit();
        }
        seg
    }

    /// One transaction that the caller leaves uncommitted: a single insert
    /// the oracle does **not** apply (the durable workload's proof that
    /// recovery drops unacknowledged work).
    pub fn uncommitted_insert(&mut self) -> Op {
        let oid = self.next_oid;
        self.next_oid += 1;
        Op::Insert {
            oid,
            rect: random_rect(&mut self.rng),
        }
    }
}

/// FNV-1a over the bit patterns of a stream of operations; equal for equal
/// streams, used by the determinism tests.
#[cfg(test)]
pub fn stream_hash(ops: &[Op]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for op in ops {
        let (oid, rect, extra) = match *op {
            Op::Scan { query, check } | Op::SnapScan { query, check } => {
                (0, query, u64::from(check != UNCHECKED))
            }
            Op::Point { oid, rect, expect } => (oid, rect, expect),
            Op::Insert { oid, rect } | Op::Delete { oid, rect } | Op::Update { oid, rect } => {
                (oid, rect, 0)
            }
        };
        eat(op.kind() as u64);
        eat(oid);
        eat(extra);
        for v in [rect.lo[0], rect.lo[1], rect.hi[0], rect.hi[1]] {
            eat(v.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn same_seed_same_stream_and_dataset_ignores_seed() {
        let mix = WORKLOADS[0].mix;
        let a = Generator::new(7, mix, dataset()).segment(2_000);
        let b = Generator::new(7, mix, dataset()).segment(2_000);
        let c = Generator::new(8, mix, dataset()).segment(2_000);
        assert_eq!(stream_hash(&a.ops), stream_hash(&b.ops));
        assert_eq!(a.expected, b.expected);
        assert_ne!(stream_hash(&a.ops), stream_hash(&c.ops));
        // The data set is a constant: nothing of `--seed` reaches it.
        assert_eq!(dataset(), dataset());
        assert_eq!(dataset().len(), DATASET_SIZE);
    }

    #[test]
    fn live_set_stays_within_one_percent_over_a_full_run() {
        for w in &WORKLOADS {
            let mut g = Generator::new(42, w.mix, dataset());
            // ≈ a full 24 s run of the fastest workload, in slices.
            let slices = 3_000_000 / (1_000 * w.mix.txn_ops);
            for _ in 0..slices {
                g.segment(1_000);
                let drift = g.live().len() as f64 / DATASET_SIZE as f64 - 1.0;
                assert!(drift.abs() <= 0.01, "{}: live set drifted {drift}", w.name);
            }
        }
    }

    #[test]
    fn every_mix_matches_its_spec_and_the_delete_share_rule() {
        for w in &WORKLOADS {
            let mut g = Generator::new(1, w.mix, dataset());
            let seg = g.segment(400_000 / w.mix.txn_ops);
            let mut counts = [0usize; 6];
            for op in &seg.ops {
                counts[op.kind()] += 1;
            }
            for kind in 0..6 {
                let share = 100.0 * counts[kind] as f64 / seg.ops.len() as f64;
                let spec = f64::from(w.mix.weights[kind]);
                assert!(spec > 0.0, "{}: every mix contains every kind", w.name);
                assert!(
                    (share - spec).abs() <= 1.0,
                    "{}: {} is {share:.2} %, spec {spec} %",
                    w.name,
                    CLASS_NAMES[kind]
                );
            }
            let p = w.mix.p_txn_has_delete();
            assert!(p <= 0.35 || p >= 0.99, "{}: P(delete in txn) = {p}", w.name);
            // And the stream itself obeys it, steering included.
            let with_delete = seg
                .ops
                .chunks(w.mix.txn_ops)
                .filter(|t| t.iter().any(|op| op.kind() == DELETE))
                .count() as f64
                / (seg.ops.len() / w.mix.txn_ops) as f64;
            assert!(
                with_delete <= 0.36 || with_delete >= 0.99,
                "{}: {with_delete} of transactions delete",
                w.name
            );
        }
    }

    #[test]
    fn scans_return_about_the_advertised_hits() {
        for hits in [10.0, 50.0] {
            let mix = Mix {
                weights: [100, 0, 0, 0, 0, 0],
                scan_hits: hits,
                txn_ops: 4,
            };
            let mut g = Generator::new(3, mix, dataset());
            let seg = g.segment(64 * 50);
            let mean =
                seg.expected.iter().map(Vec::len).sum::<usize>() as f64 / seg.expected.len() as f64;
            assert!(
                (mean / hits - 1.0).abs() < 0.15,
                "{hits} hits wanted, {mean} got"
            );
        }
    }

    #[test]
    fn grid_scan_equals_brute_force() {
        let mix = Mix {
            weights: [10, 10, 10, 25, 25, 20],
            scan_hits: 50.0,
            txn_ops: 16,
        };
        let mut g = Generator::new(4, mix, dataset());
        for round in 0..200 {
            g.segment(20);
            // Mid-transaction state too: leave some operations pending.
            let mut scratch = Segment::default();
            for _ in 0..(round % 7) {
                g.gen_op(&mut scratch);
            }
            let q = g.query();
            for snapshot in [false, true] {
                let mut brute: Vec<(u64, u64)> = g
                    .live
                    .iter()
                    .filter(|o| (snapshot || !o.dead) && o.rect.intersects(&q))
                    .map(|o| (o.oid, if snapshot { o.committed } else { o.version }))
                    .chain(
                        g.pending
                            .iter()
                            .filter(|o| !snapshot && o.rect.intersects(&q))
                            .map(|o| (o.oid, o.version)),
                    )
                    .collect();
                brute.sort_unstable();
                assert_eq!(g.expect_scan(&q, snapshot), brute);
            }
            g.commit();
        }
        let indexed: usize = g.cells.iter().map(Vec::len).sum();
        assert_eq!(indexed, g.live.len());
    }

    #[test]
    fn oracle_tracks_own_writes_and_snapshots() {
        let mix = Mix {
            weights: [20, 20, 20, 10, 10, 20],
            scan_hits: 50.0,
            txn_ops: 8,
        };
        let mut g = Generator::new(9, mix, dataset());
        g.segment(5_000);
        // Between transactions nothing is pending and versions agree.
        assert!(g.live().iter().all(|o| !o.dead && o.version == o.committed));
        let mut oids: Vec<u64> = g.live().iter().map(|o| o.oid).collect();
        oids.sort_unstable();
        oids.dedup();
        assert_eq!(oids.len(), g.live().len());
    }
}
