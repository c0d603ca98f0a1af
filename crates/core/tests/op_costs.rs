//! Heap allocations per operation, pinned: a counting global allocator
//! over `System` counts every `alloc`, `alloc_zeroed` and `realloc` the
//! measuring thread makes while one kind of operation runs on a fixed,
//! seeded tree. Unlike a timing, a count does not wander with the host,
//! so a change that adds an allocation to a hot path shows here as a
//! diff of `op_costs.golden`.
//!
//! Debug-only checks allocate too (the cross-checks behind
//! `debug_assert!`), so the golden file holds one column per build:
//! `cargo test -p dgl-core --test op_costs` checks the debug column,
//! `cargo test --release -p dgl-core --test op_costs` the release one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dgl_core::{DglConfig, DglRTree, Rect2, TransactionalRTree};
use dgl_rtree::ObjectId;

/// Counts the allocations of the thread that makes them: the test
/// harness runs other tests on other threads meanwhile.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown goes uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` contract is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Objects in the fixed tree: the benchmark's object size, fewer of them.
const OBJECTS: u64 = 10_000;

/// Operations measured per kind; the golden figure is the mean.
const ROUNDS: u64 = 200;

/// A deterministic generator (xorshift), so the tree and every query are
/// the same on every run.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn rect(&mut self, side: f64) -> Rect2 {
        let (x, y) = (self.unit() * (1.0 - side), self.unit() * (1.0 - side));
        Rect2::new([x, y], [x + side, y + side])
    }
}

/// The side of an object's square, and of a scan window holding about
/// fifty of the 10,000 objects.
const OBJECT_SIDE: f64 = 0.004;
const SCAN_SIDE: f64 = 0.07;

fn rect_of(i: u64) -> Rect2 {
    Rng(0x9e37_79b9 ^ (i.wrapping_mul(0x2545_f491) | 1)).rect(OBJECT_SIDE)
}

fn seeded_tree() -> DglRTree {
    let db = DglRTree::new(DglConfig::default());
    for chunk in (0..OBJECTS).collect::<Vec<_>>().chunks(500) {
        let t = db.begin();
        for &i in chunk {
            db.insert(t, ObjectId(i), rect_of(i)).unwrap();
        }
        db.commit(t).unwrap();
    }
    db
}

/// Mean allocations of `ROUNDS` calls of `op(round)`, after one warm-up
/// call (per-thread scratch fills on first use).
fn per_op(mut op: impl FnMut(u64)) -> f64 {
    op(ROUNDS);
    let before = allocs();
    for round in 0..ROUNDS {
        op(round);
    }
    (allocs() - before) as f64 / ROUNDS as f64
}

fn measure() -> Vec<(&'static str, f64)> {
    let db = seeded_tree();
    let mut rows = Vec::new();
    let mut rng = Rng(0x5eed);
    let mut hits = 0;

    let t = db.begin();
    rows.push((
        "locking_scan",
        per_op(|_| hits += db.read_scan(t, rng.rect(SCAN_SIDE)).unwrap().len()),
    ));
    db.commit(t).unwrap();
    assert!(
        (30..=80).contains(&(hits / ROUNDS as usize)),
        "the window should hold about fifty objects, held {}",
        hits / ROUNDS as usize
    );

    let snap = db.begin_snapshot();
    rows.push((
        "snapshot_scan",
        per_op(|_| {
            std::hint::black_box(snap.read_scan(rng.rect(SCAN_SIDE)));
        }),
    ));
    drop(snap);

    let t = db.begin();
    rows.push((
        "point_read",
        per_op(|r| {
            let oid = r * 37 % OBJECTS;
            assert_eq!(db.read_single(t, ObjectId(oid), rect_of(oid)), Ok(Some(1)));
        }),
    ));
    db.commit(t).unwrap();

    let t = db.begin();
    rows.push((
        "insert",
        per_op(|r| {
            let oid = OBJECTS + r;
            db.insert(t, ObjectId(oid), rect_of(oid)).unwrap();
        }),
    ));
    db.commit(t).unwrap();

    let t = db.begin();
    rows.push((
        "update",
        per_op(|r| {
            let oid = r * 41 % OBJECTS;
            assert_eq!(db.update_single(t, ObjectId(oid), rect_of(oid)), Ok(true));
        }),
    ));
    db.commit(t).unwrap();

    let t = db.begin();
    rows.push((
        "logical_delete",
        per_op(|r| {
            // The objects the insert row added: one tombstone each.
            let oid = OBJECTS + r;
            assert_eq!(db.delete(t, ObjectId(oid), rect_of(oid)), Ok(true));
        }),
    ));
    // The commit runs one deferred deletion per tombstone.
    let deletes = ROUNDS + 1;
    let before = allocs();
    db.commit(t).unwrap();
    let commit_with_deletes = allocs() - before;

    let begin_commit = per_op(|_| {
        let t = db.begin();
        db.commit(t).unwrap();
    });
    rows.push(("begin_commit", begin_commit));
    rows.push((
        "deferred_deletion",
        (commit_with_deletes as f64 - begin_commit) / deletes as f64,
    ));

    let t = db.begin();
    let mut hits = 0;
    rows.push((
        "update_scan",
        per_op(|_| hits += db.update_scan(t, rng.rect(SCAN_SIDE)).unwrap().len()),
    ));
    db.commit(t).unwrap();
    assert!(
        (30..=80).contains(&(hits / ROUNDS as usize)),
        "the window should hold about fifty objects, held {}",
        hits / ROUNDS as usize
    );

    let t = db.begin();
    rows.push((
        "absent_delete",
        per_op(|r| {
            let oid = 3 * OBJECTS + r;
            assert_eq!(db.delete(t, ObjectId(oid), rect_of(oid)), Ok(false));
        }),
    ));
    db.commit(t).unwrap();

    rows.push(("splitting_insert", per_splitting_insert(&db)));
    db.validate().unwrap();
    rows
}

/// Mean allocations of the first `ROUNDS` inserts that split a node, from
/// a stream of new objects in one transaction; the inserts that do not
/// split run between them, unmeasured.
fn per_splitting_insert(db: &DglRTree) -> f64 {
    let t = db.begin();
    let (mut measured, mut total) = (0, 0);
    for oid in 4 * OBJECTS.. {
        let rect = rect_of(oid);
        let splits = db.with_tree(|tree| !tree.plan_insert(rect).split_pages.is_empty());
        let before = allocs();
        db.insert(t, ObjectId(oid), rect).unwrap();
        if splits {
            total += allocs() - before;
            measured += 1;
            if measured == ROUNDS {
                break;
            }
        }
    }
    db.commit(t).unwrap();
    total as f64 / ROUNDS as f64
}

const GOLDEN: &str = include_str!("op_costs.golden");

/// How far a mean may sit from its golden figure. Hash maps (the lock
/// table, the transaction map) grow at points that depend on the
/// process's hash seeds, which moves a mean by a hundredth or two between
/// runs; one more allocation per call moves it by 1.
const SLACK: f64 = 0.1;

#[test]
fn allocations_per_operation_match_the_golden_file() {
    let column = if cfg!(debug_assertions) { 2 } else { 1 };
    let build = if column == 2 { "debug" } else { "release" };
    let measured = measure();
    let mut golden = Vec::new();
    for line in GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let cols: Vec<&str> = line.split_whitespace().collect();
        golden.push((cols[0], cols[column].parse::<f64>().unwrap()));
    }
    let table: String = measured
        .iter()
        .map(|(op, n)| format!("{op:<18} {n:.2}\n"))
        .collect();
    assert_eq!(
        golden.len(),
        measured.len(),
        "op_costs.golden lists other operations; measured ({build}):\n{table}"
    );
    for ((op, want), (got_op, got)) in golden.iter().zip(&measured) {
        assert_eq!(
            op, got_op,
            "op_costs.golden row order; measured ({build}):\n{table}"
        );
        assert!(
            (want - got).abs() <= SLACK,
            "{op}: {got:.2} allocations per call in a {build} build, golden {want:.2}; \
             measured ({build}):\n{table}"
        );
    }
}
