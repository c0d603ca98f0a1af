//! The phantom-protection oracle, over the wire: the searcher/writer
//! schedule from `tests/phantom.rs` driven through `dgl-client` against
//! a loopback `dgl-server`, on both the single-tree and sharded
//! backends, plus an MVCC snapshot-read variant.
//!
//! The oracle claim is the paper's repeatable-read guarantee observed
//! end-to-end through the protocol: every rescan of the predicate
//! region inside one transaction (or at one snapshot) returns exactly
//! the first scan's result set, while concurrent writers churn objects
//! inside and outside the predicate. Anti-vacuity comes from the
//! in-process backend handle: after the run the tree must validate,
//! and the final region content must equal the committed history.

mod common;

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use common::{wait_until, within_deadline};

use dgl_client::{Client, ClientError};
use dgl_server::{Backend, Server, ServerConfig};
use granular_rtree::core::{
    DglConfig, DglRTree, Rect2, ShardedDglRTree, ShardingConfig, TransactionalRTree,
};
use granular_rtree::lockmgr::LockManagerConfig;
use granular_rtree::obs::Ctr;

const REGION: Rect2 = Rect2 {
    lo: [0.35, 0.35],
    hi: [0.65, 0.65],
};

const WRITERS: u64 = 3;
const WRITER_COMMITS: u64 = 20;
const RESCANS: usize = 4;

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

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

    fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

fn rect_inside(rng: &mut XorShift) -> Rect2 {
    let x = 0.36 + rng.f64() * 0.27;
    let y = 0.36 + rng.f64() * 0.27;
    Rect2::new([x, y], [x + 0.002, y + 0.002])
}

fn rect_outside(rng: &mut XorShift) -> Rect2 {
    let x = if rng.chance(0.5) {
        rng.f64() * 0.32
    } else {
        0.67 + rng.f64() * 0.30
    };
    let y = rng.f64() * 0.97;
    Rect2::new([x, y], [x + 0.003, y + 0.003])
}

fn dgl_config() -> DglConfig {
    DglConfig {
        lock: LockManagerConfig {
            wait_timeout: Duration::from_millis(50),
        },
        ..Default::default()
    }
}

fn start_server(sharded: bool) -> Server {
    let backend = if sharded {
        Backend::Sharded(ShardedDglRTree::new(
            dgl_config(),
            ShardingConfig {
                shards: 4,
                ..Default::default()
            },
        ))
    } else {
        Backend::Single(DglRTree::new(dgl_config()))
    };
    Server::start(backend, ServerConfig::default(), "127.0.0.1:0").expect("bind loopback")
}

fn scan_set(c: &mut Client, txn: u64) -> Result<BTreeSet<(u64, u64)>, ClientError> {
    Ok(c.search(txn, REGION)?
        .iter()
        .map(|h| (h.oid.0, h.version))
        .collect())
}

/// Preloads over the wire; returns the objects inside the predicate.
fn preload(c: &mut Client, rng: &mut XorShift, n: u64) -> Vec<(u64, Rect2)> {
    let mut inside = Vec::new();
    let txn = c.begin().expect("preload begin");
    for i in 0..n {
        let oid = 1_000_000 + i;
        let rect = if rng.chance(0.4) {
            let r = rect_inside(rng);
            inside.push((oid, r));
            r
        } else {
            rect_outside(rng)
        };
        c.insert(txn, oid, rect).expect("preload insert");
    }
    c.commit(txn).expect("preload commit");
    inside
}

fn retryable(e: &ClientError) -> bool {
    if e.is_retryable() {
        return true;
    }
    panic!("non-retryable failure over the wire: {e}");
}

/// The searcher/writer oracle through the wire protocol. The searcher
/// holds a transactional predicate; writers commit churn; rescans must
/// repeat exactly.
fn oracle_run(server: &Server, seed: u64) {
    let addr = server.addr();
    let mut rng = XorShift::new(seed);
    let mut setup = Client::connect(addr).expect("connect preload");
    let inside = preload(&mut setup, &mut rng, 300);
    let inside_oids: BTreeSet<u64> = inside.iter().map(|(o, _)| *o).collect();

    let start = Arc::new(Barrier::new(WRITERS as usize + 1));
    // Per writer: (oids committed inside the predicate, outside).
    type WriterOut = (Vec<u64>, Vec<u64>);
    let (baseline, writer_outs): (BTreeSet<(u64, u64)>, Vec<WriterOut>) = crossbeam::scope(|s| {
        let searcher = {
            let start = Arc::clone(&start);
            s.spawn(move |_| {
                let mut c = Client::connect(addr).expect("searcher connect");
                let mut released = Some(start);
                loop {
                    let txn = c.begin().expect("searcher begin");
                    let baseline = match scan_set(&mut c, txn) {
                        Ok(set) => set,
                        Err(e) if retryable(&e) => continue,
                        Err(_) => unreachable!(),
                    };
                    if let Some(b) = released.take() {
                        b.wait();
                    }
                    let mut aborted = false;
                    for _ in 0..RESCANS {
                        std::thread::sleep(Duration::from_millis(25));
                        match scan_set(&mut c, txn) {
                            Ok(again) => assert_eq!(
                                baseline, again,
                                "phantom over the wire: rescan diverged"
                            ),
                            Err(e) if retryable(&e) => {
                                aborted = true;
                                break;
                            }
                            Err(_) => unreachable!(),
                        }
                    }
                    if aborted {
                        continue;
                    }
                    c.commit(txn).expect("searcher commit");
                    return baseline;
                }
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let start = Arc::clone(&start);
                let mut targets: Vec<(u64, Rect2)> = inside
                    .iter()
                    .skip(w as usize)
                    .step_by(WRITERS as usize)
                    .copied()
                    .collect();
                s.spawn(move |_| {
                    let mut c = Client::connect(addr).expect("writer connect");
                    start.wait();
                    let mut rng = XorShift::new(seed ^ (w + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let (mut ins_inside, mut deleted) = (Vec::new(), Vec::new());
                    let mut committed = 0u64;
                    let mut serial = 0u64;
                    while committed < WRITER_COMMITS {
                        enum Plan {
                            Ins(u64, Rect2, bool),
                            Del(u64, Rect2),
                        }
                        let plan = if rng.chance(0.2) && !targets.is_empty() {
                            let (oid, rect) = targets[targets.len() - 1];
                            Plan::Del(oid, rect)
                        } else {
                            serial += 1;
                            let oid = ((w + 1) << 40) | serial;
                            let ins = rng.chance(0.6);
                            let rect = if ins {
                                rect_inside(&mut rng)
                            } else {
                                rect_outside(&mut rng)
                            };
                            Plan::Ins(oid, rect, ins)
                        };
                        let txn = c.begin().expect("writer begin");
                        let outcome = match &plan {
                            Plan::Ins(oid, rect, _) => c.insert(txn, *oid, *rect),
                            Plan::Del(oid, rect) => c
                                .delete(txn, *oid, *rect)
                                .map(|found| assert!(found, "writer {w}: delete target vanished")),
                        };
                        match outcome.and_then(|()| c.commit(txn)) {
                            Ok(()) => {
                                committed += 1;
                                match plan {
                                    Plan::Ins(oid, _, true) => ins_inside.push(oid),
                                    Plan::Ins(..) => {}
                                    Plan::Del(oid, _) => {
                                        targets.pop();
                                        deleted.push(oid);
                                    }
                                }
                            }
                            Err(e) if retryable(&e) => continue,
                            Err(_) => unreachable!(),
                        }
                    }
                    (ins_inside, deleted)
                })
            })
            .collect();
        let outs: Vec<_> = writers.into_iter().map(|h| h.join().unwrap()).collect();
        (searcher.join().unwrap(), outs)
    })
    .unwrap();

    // Baseline sanity: the searcher saw exactly the preloaded content.
    assert_eq!(
        baseline.iter().map(|(o, _)| *o).collect::<BTreeSet<_>>(),
        inside_oids,
        "searcher baseline must be the preloaded predicate content"
    );

    // Anti-vacuity via the in-process handle: invariants hold and the
    // final region content equals the committed history.
    server.backend().tree().quiesce();
    server.backend().tree().validate().expect("tree invariants");
    let mut expected = inside_oids;
    for (ins, dels) in &writer_outs {
        expected.extend(ins.iter().copied());
        for d in dels {
            expected.remove(d);
        }
    }
    let txn = setup.begin().expect("final begin");
    let final_oids: BTreeSet<u64> = scan_set(&mut setup, txn)
        .expect("final scan")
        .into_iter()
        .map(|(oid, _)| oid)
        .collect();
    setup.commit(txn).expect("final commit");
    assert_eq!(
        final_oids, expected,
        "final region content must equal the committed history"
    );
}

#[test]
fn net_phantom_oracle_single_tree() {
    let mut server = start_server(false);
    oracle_run(&server, 0xA11CE);
    server.shutdown().expect("drain");
}

#[test]
fn net_phantom_oracle_sharded() {
    let mut server = start_server(true);
    oracle_run(&server, 0xB0B5);
    server.shutdown().expect("drain");
}

/// Snapshot-read variant: a wire snapshot must stay frozen at its
/// commit timestamp while writers churn — and a *fresh* snapshot taken
/// afterwards must see the churn (anti-vacuity).
#[test]
fn net_snapshot_scan_is_frozen_under_churn() {
    let mut server = start_server(false);
    let addr = server.addr();
    let mut rng = XorShift::new(0x5EED5);
    let mut c = Client::connect(addr).expect("connect");
    let inside = preload(&mut c, &mut rng, 200);

    let (snap, ts) = c.begin_snapshot().expect("begin snapshot");
    let frozen: BTreeSet<(u64, u64)> = c
        .snapshot_scan(snap, REGION)
        .expect("snapshot scan")
        .iter()
        .map(|h| (h.oid.0, h.version))
        .collect();
    assert_eq!(
        frozen.iter().map(|(o, _)| *o).collect::<BTreeSet<_>>(),
        inside.iter().map(|(o, _)| *o).collect::<BTreeSet<_>>(),
    );

    // Concurrent churn from separate connections: inserts inside the
    // predicate, deletes of preloaded content, updates bumping versions.
    let mut w = Client::connect(addr).expect("writer connect");
    for i in 0..40u64 {
        let txn = w.begin().expect("churn begin");
        let r = rect_inside(&mut rng);
        w.insert(txn, 5_000_000 + i, r).expect("churn insert");
        w.commit(txn).expect("churn commit");
    }
    let txn = w.begin().expect("churn begin");
    let (del_oid, del_rect) = inside[0];
    assert!(w.delete(txn, del_oid, del_rect).expect("churn delete"));
    w.commit(txn).expect("churn commit");

    // The held snapshot must not move; rescans repeat exactly.
    for _ in 0..RESCANS {
        let again: BTreeSet<(u64, u64)> = c
            .snapshot_scan(snap, REGION)
            .expect("snapshot rescan")
            .iter()
            .map(|h| (h.oid.0, h.version))
            .collect();
        assert_eq!(frozen, again, "snapshot scan moved under churn");
    }
    // Point reads at the snapshot still see the deleted object.
    assert_eq!(
        c.snapshot_read(snap, del_oid).expect("snapshot read"),
        Some(1),
        "snapshot point read must still see the object deleted after ts {ts}"
    );
    c.end_snapshot(snap).expect("end snapshot");

    // Anti-vacuity: a fresh snapshot sees all the churn.
    let (snap2, ts2) = c.begin_snapshot().expect("second snapshot");
    assert!(ts2 >= ts);
    let now: BTreeSet<u64> = c
        .snapshot_scan(snap2, REGION)
        .expect("fresh snapshot scan")
        .iter()
        .map(|h| h.oid.0)
        .collect();
    assert!(now.contains(&5_000_000), "fresh snapshot missed the churn");
    assert!(
        !now.contains(&del_oid),
        "fresh snapshot resurrected a delete"
    );
    c.end_snapshot(snap2).expect("end snapshot");
    server.shutdown().expect("drain");
}

/// The snapshot-read wedge, over the wire (ISSUE 20): session B deletes an
/// object; session A's `Search` queues behind B's IX; B commits, and the
/// inline deferred deletion inside its commit waits for A's freshly
/// granted S; A then asks for a `SnapshotScan`. When snapshot scans took
/// the system-operation gate shared, A's session thread parked behind the
/// system operation — which was waiting for A's own lock — and took its
/// own transaction-timeout reaper down with it. Now both sessions answer.
#[test]
fn net_snapshot_scan_inside_a_transaction_cannot_wedge_a_committing_delete() {
    // The default 10 s lock wait: nothing here may come near it.
    let mut server = Server::start(
        Backend::Single(DglRTree::new(DglConfig::default())),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.addr();
    fn db(backend: &Backend) -> &DglRTree {
        match backend {
            Backend::Single(db) => db,
            Backend::Sharded(_) => unreachable!("single-tree server"),
        }
    }
    let backend = Arc::clone(server.backend());
    let rect = |i: u64| {
        let o = 0.1 * i as f64;
        Rect2::new([o, o], [o + 0.05, o + 0.05])
    };
    let mut setup = Client::connect(addr).expect("connect");
    let txn = setup.begin().expect("begin");
    for i in 1..=2 {
        setup.insert(txn, i, rect(i)).expect("setup insert");
    }
    setup.commit(txn).expect("setup commit");

    let one_waiter = {
        let backend = Arc::clone(&backend);
        move || wait_until(|| db(&backend).lock_manager().waiter_count() == 1)
    };
    let dump = {
        let backend = Arc::clone(&backend);
        move || db(&backend).merged_locktable_dump()
    };
    let fresh = within_deadline(dump, move || {
        let mut b = Client::connect(addr).expect("B connect");
        let tb = b.begin().expect("B begin");
        assert!(b.delete(tb, 1, rect(1)).expect("B delete"));
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                let mut a = Client::connect(addr).expect("A connect");
                let ta = a.begin().expect("A begin");
                // Queues behind B's IX on the leaf granule.
                a.search(ta, Rect2::unit()).expect("A search");
                // Granted by B's commit, whose deferred deletion now
                // waits behind this S — gate held.
                one_waiter();
                let (snap, _) = a.begin_snapshot().expect("A begin snapshot");
                let fresh = a
                    .snapshot_scan(snap, Rect2::unit())
                    .expect("A snapshot scan");
                a.end_snapshot(snap).expect("A end snapshot");
                a.commit(ta).expect("A commit");
                fresh
            });
            one_waiter(); // A's search is parked behind B.
            b.commit(tb).expect("B commit"); // answers once A commits
            a.join().expect("session A")
        })
    });
    assert_eq!(
        fresh.iter().map(|h| h.oid.0).collect::<Vec<_>>(),
        [2],
        "B was stamped before its deferred deletion ran: the delete is visible"
    );
    assert_eq!(server.obs().snapshot().ctr(Ctr::SessionAborts), 0);
    assert_eq!(db(&backend).obs().ctr(Ctr::LockTimeouts), 0);
    db(&backend).validate().expect("invariants");
    server.shutdown().expect("drain");
}
