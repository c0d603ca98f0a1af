//! Table-2 lock-overhead regression, measured from the observability
//! registry on the full transactional stack.
//!
//! The paper's Table 2 argument: granular locking is cheap because most
//! inserters never change a granule boundary — only the minority that
//! grow a leaf BR or split a node pay the extra commit-duration granule
//! locks (§3.3–3.5), and that minority shrinks as fanout rises (≈35–45 %
//! at fanout 12, 6–8 % at 50, 3–4 % at 100).
//!
//! This test replays that experiment end-to-end (real transactions, real
//! lock manager) for fanouts {8, 16, 32} and checks both signals:
//!
//! * the granule-changing-inserter fraction falls monotonically with
//!   fanout, as in the paper's curve,
//! * the registry's per-insert lock-request counts track it: commit-
//!   duration requests stay at the Table-3 floor (covering granule +
//!   object) while the short-duration §3.3 compensation locks rise and
//!   fall with the changing fraction.
//!
//! The run is single-threaded and seeded, so its numbers are exact: the
//! rendered table must equal the block after `<!-- pinned: lock-overhead -->`
//! in EXPERIMENTS.md, which is their only copy. A change that moves them
//! pastes the fresh block the failure prints; the shape checks above
//! still have to hold for the new numbers.

use std::time::Duration;

use granular_rtree::core::{DglConfig, DglRTree, InsertPolicy, Rect2, TransactionalRTree};
use granular_rtree::lockmgr::LockManagerConfig;
use granular_rtree::obs::Ctr;
use granular_rtree::rtree::{ObjectId, RTreeConfig};

const PRELOAD: u64 = 1_000;
const MEASURED: u64 = 2_000;

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// The table lines right after the line `<!-- pinned: NAME -->` in
/// EXPERIMENTS.md.
fn pinned(name: &str) -> String {
    let marker = format!("<!-- pinned: {name} -->");
    let mut lines = EXPERIMENTS.lines();
    assert!(
        lines.any(|l| l.trim() == marker),
        "EXPERIMENTS.md has no `{marker}` line"
    );
    lines
        .take_while(|l| l.starts_with('|'))
        .map(|l| format!("{l}\n"))
        .collect()
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug)]
struct Overhead {
    fanout: usize,
    changing_fraction: f64,
    commit_reqs_per_insert: f64,
    short_reqs_per_insert: f64,
}

/// Preloads half the objects, then measures `MEASURED` single-insert
/// transactions in steady state — the paper's Table 2 shape.
fn measure(fanout: usize, seed: u64) -> Overhead {
    let db = DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(fanout),
        policy: InsertPolicy::Modified,
        lock: LockManagerConfig {
            wait_timeout: Duration::from_secs(5),
        },
        ..Default::default()
    });
    let mut rng = XorShift(seed | 1);
    let mut insert_one = |oid: u64| {
        let x = rng.f64() * 0.995;
        let y = rng.f64() * 0.995;
        let rect = Rect2::new([x, y], [x + 0.002, y + 0.002]);
        let txn = db.begin();
        db.insert(txn, ObjectId(oid), rect).expect("insert");
        db.commit(txn).expect("commit");
    };
    for oid in 0..PRELOAD {
        insert_one(oid);
    }
    let before = db.obs().snapshot();
    for oid in PRELOAD..PRELOAD + MEASURED {
        insert_one(oid);
    }
    let obs = db.obs().snapshot().since(&before);
    assert_eq!(obs.ctr(Ctr::Inserts), MEASURED);
    Overhead {
        fanout,
        changing_fraction: obs.ctr(Ctr::GranuleChangingInserts) as f64 / MEASURED as f64,
        commit_reqs_per_insert: obs.ctr(Ctr::LockReqCommit) as f64 / MEASURED as f64,
        short_reqs_per_insert: obs.ctr(Ctr::LockReqShort) as f64 / MEASURED as f64,
    }
}

fn render(rows: &[Overhead]) -> String {
    let mut table = String::from(
        "| fanout | granule-changing inserters | commit-duration locks / insert \
         | short-duration locks / insert |\n|---|---|---|---|\n",
    );
    for r in rows {
        table += &format!(
            "| {} | {:.1} % | {:.2} | {:.2} |\n",
            r.fanout,
            r.changing_fraction * 100.0,
            r.commit_reqs_per_insert,
            r.short_reqs_per_insert
        );
    }
    table
}

#[test]
fn granule_change_fraction_and_lock_requests_stay_in_band() {
    let rows: Vec<Overhead> = [8usize, 16, 32]
        .iter()
        .map(|&f| measure(f, 0x7AB1E2))
        .collect();
    let table = render(&rows);
    eprintln!("{table}");

    // The paper's fanout trend: monotone drop, large end-to-end.
    assert!(
        rows[0].changing_fraction > rows[1].changing_fraction
            && rows[1].changing_fraction > rows[2].changing_fraction,
        "granule-changing fraction must fall with fanout: {rows:?}"
    );
    assert!(
        rows[0].changing_fraction > 1.8 * rows[2].changing_fraction,
        "fanout 8 → 32 must at least halve the changing fraction: {rows:?}"
    );

    // Lock-request accounting from the registry. Every insert takes
    // exactly two commit-duration locks as its floor (Table 3: IX on
    // the covering granule, X on the object); splits add a few more,
    // and §3.3 growth compensation shows up as *short*-duration granule
    // locks — so short requests per insert must track the changing
    // fraction while the commit count stays pinned near the floor.
    for w in rows.windows(2) {
        assert!(
            w[0].short_reqs_per_insert > w[1].short_reqs_per_insert,
            "short-duration requests per insert must fall with fanout: {rows:?}"
        );
    }
    for r in &rows {
        assert!(
            (2.0 - 1e-9..3.0).contains(&r.commit_reqs_per_insert),
            "fanout {}: commit-duration requests per insert {:.2} strayed from the \
             2-lock Table-3 floor (+ rare split locks)",
            r.fanout,
            r.commit_reqs_per_insert
        );
        assert!(
            r.short_reqs_per_insert >= r.changing_fraction,
            "fanout {}: short-duration locks per insert {:.2} below the changing \
             fraction {:.2} — granule changers are not taking §3.3 compensation locks",
            r.fanout,
            r.short_reqs_per_insert,
            r.changing_fraction
        );
    }

    // The numbers themselves: EXPERIMENTS.md quotes them, and is their
    // only copy.
    assert!(
        pinned("lock-overhead") == table,
        "EXPERIMENTS.md's `lock-overhead` table differs from this run. Fresh block:\n\n{table}"
    );
}
