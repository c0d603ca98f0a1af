//! The four workloads, how each is set up, and the one client that drives
//! them: a [`Target`] is the system as a caller sees it — in process, or
//! behind the wire protocol.
//!
//! Everything here goes through the public API with `DglConfig::default()`
//! and `ServerConfig::default()`: no mode-valued config field is named, so
//! the benchmark measures what a user gets and survives the deletion of the
//! keep-for-baseline modes (ROADMAP item 3).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dgl_client::Client;
use dgl_core::baseline::TreeLockRTree;
use dgl_core::{DglConfig, DglRTree, ObjectId, Rect2, ScanHit, TransactionalRTree, TxnId};
use dgl_lockmgr::LockManagerConfig;
use dgl_rtree::RTreeConfig;
use dgl_server::{Backend, Server, ServerConfig};

use crate::gen::{Mix, Obj};

/// How the system under test is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `DglRTree::new`, called in process.
    Mem,
    /// `DglRTree::open` on a directory under `benchmark/out/`.
    Durable,
    /// A `dgl_server::Server` in this process behind one `dgl_client::Client`.
    Net,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub mix: Mix,
    pub why: &'static str,
}

/// Names are fixed: later issues refer to them. Weights are
/// `[scan, snapshot scan, point read, insert, delete, update]` in percent;
/// every mix contains every kind, so no end-to-end metric is ever 0.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scan_mem",
        kind: Kind::Mem,
        mix: Mix {
            weights: [55, 15, 15, 5, 5, 5],
            scan_hits: 50.0,
            txn_ops: 4,
        },
        why: "range-heavy, in process: rtree search, geom overlap, one lockmgr visit per \
              overlapped granule and mvcc chains do the work; hashidx, wal, proto/server almost none",
    },
    Workload {
        name: "point_mem",
        kind: Kind::Mem,
        mix: Mix {
            weights: [5, 5, 50, 10, 10, 20],
            scan_hits: 10.0,
            txn_ops: 4,
        },
        why: "point-heavy, in process (the Griffin case): hashidx, per-op lockmgr/txn bookkeeping \
              and the write path dominate; tree search is nearly bypassed",
    },
    Workload {
        name: "ingest_durable",
        kind: Kind::Durable,
        mix: Mix {
            weights: [5, 5, 5, 35, 35, 15],
            scan_hits: 10.0,
            txn_ops: 64,
        },
        why: "write-heavy on a WAL-backed store, 64 ops per commit: the only workload where wal \
              append, the flusher hand-off, fsync and auto-checkpoints work",
    },
    Workload {
        name: "net_mixed",
        kind: Kind::Net,
        mix: Mix {
            weights: [30, 5, 30, 10, 10, 15],
            scan_hits: 50.0,
            txn_ops: 4,
        },
        why: "mixed traffic over loopback TCP, one connection, no pipelining: proto codec, server \
              session loop, client framing and the socket own the difference to in-process",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one call can report back; the text is only built on failure.
pub type Outcome<T> = Result<T, String>;

/// The system as its one client sees it.
pub trait Target {
    fn begin(&mut self) -> Outcome<u64>;
    fn commit(&mut self, txn: u64) -> Outcome<()>;
    fn insert(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<()>;
    fn delete(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<bool>;
    fn update(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<bool>;
    fn point(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<Option<u64>>;
    fn scan(&mut self, txn: u64, query: Rect2) -> Outcome<Vec<ScanHit>>;
    /// Begin a snapshot, scan it, drop it: what a reader that wants no
    /// locks does. It sees committed state only, whatever `txn` has written.
    fn snap_scan(&mut self, txn: u64, query: Rect2) -> Outcome<Vec<ScanHit>>;
}

/// An index called in process.
pub struct Local<'a, T> {
    db: &'a T,
    snap: fn(&T, TxnId, Rect2) -> Vec<ScanHit>,
}

impl<'a> Local<'a, DglRTree> {
    pub fn dgl(db: &'a DglRTree) -> Self {
        Local {
            db,
            snap: |db, _txn, query| db.begin_snapshot().read_scan(query),
        }
    }
}

impl<'a> Local<'a, TreeLockRTree> {
    /// The whole-index-lock baseline has no snapshots; a locking scan in
    /// the open transaction stands in for one (so its answers include the
    /// transaction's own writes and are not held against the oracle).
    pub fn tree_lock(db: &'a TreeLockRTree) -> Self {
        Local {
            db,
            snap: |db, txn, query| db.read_scan(txn, query).unwrap_or_default(),
        }
    }
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl<T: TransactionalRTree> Target for Local<'_, T> {
    fn begin(&mut self) -> Outcome<u64> {
        Ok(self.db.begin().0)
    }
    fn commit(&mut self, txn: u64) -> Outcome<()> {
        self.db.commit(TxnId(txn)).map_err(text)
    }
    fn insert(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<()> {
        self.db
            .insert(TxnId(txn), ObjectId(oid), rect)
            .map_err(text)
    }
    fn delete(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<bool> {
        self.db
            .delete(TxnId(txn), ObjectId(oid), rect)
            .map_err(text)
    }
    fn update(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<bool> {
        self.db
            .update_single(TxnId(txn), ObjectId(oid), rect)
            .map_err(text)
    }
    fn point(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<Option<u64>> {
        self.db
            .read_single(TxnId(txn), ObjectId(oid), rect)
            .map_err(text)
    }
    fn scan(&mut self, txn: u64, query: Rect2) -> Outcome<Vec<ScanHit>> {
        self.db.read_scan(TxnId(txn), query).map_err(text)
    }
    fn snap_scan(&mut self, txn: u64, query: Rect2) -> Outcome<Vec<ScanHit>> {
        Ok((self.snap)(self.db, TxnId(txn), query))
    }
}

/// The index behind the wire protocol: one request, one response, no
/// pipelining.
pub struct Remote<'a>(pub &'a mut Client);

impl Target for Remote<'_> {
    fn begin(&mut self) -> Outcome<u64> {
        self.0.begin().map_err(text)
    }
    fn commit(&mut self, txn: u64) -> Outcome<()> {
        self.0.commit(txn).map_err(text)
    }
    fn insert(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<()> {
        self.0.insert(txn, oid, rect).map_err(text)
    }
    fn delete(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<bool> {
        self.0.delete(txn, oid, rect).map_err(text)
    }
    fn update(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<bool> {
        self.0.update(txn, oid, rect).map_err(text)
    }
    fn point(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<Option<u64>> {
        self.0.read_single(txn, oid, rect).map_err(text)
    }
    fn scan(&mut self, txn: u64, query: Rect2) -> Outcome<Vec<ScanHit>> {
        self.0.search(txn, query).map_err(text)
    }
    fn snap_scan(&mut self, _txn: u64, query: Rect2) -> Outcome<Vec<ScanHit>> {
        let (snap, _ts) = self.0.begin_snapshot().map_err(text)?;
        let hits = self.0.snapshot_scan(snap, query).map_err(text)?;
        self.0.end_snapshot(snap).map_err(text)?;
        Ok(hits)
    }
}

/// The one client of a [`System`], whichever way it is reached.
pub enum Conn<'a> {
    Local(Local<'a, DglRTree>),
    Remote(Remote<'a>),
}

macro_rules! either {
    ($self:ident, $c:ident => $call:expr) => {
        match $self {
            Conn::Local($c) => $call,
            Conn::Remote($c) => $call,
        }
    };
}

impl Target for Conn<'_> {
    fn begin(&mut self) -> Outcome<u64> {
        either!(self, c => c.begin())
    }
    fn commit(&mut self, txn: u64) -> Outcome<()> {
        either!(self, c => c.commit(txn))
    }
    fn insert(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<()> {
        either!(self, c => c.insert(txn, oid, rect))
    }
    fn delete(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<bool> {
        either!(self, c => c.delete(txn, oid, rect))
    }
    fn update(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<bool> {
        either!(self, c => c.update(txn, oid, rect))
    }
    fn point(&mut self, txn: u64, oid: u64, rect: Rect2) -> Outcome<Option<u64>> {
        either!(self, c => c.point(txn, oid, rect))
    }
    fn scan(&mut self, txn: u64, query: Rect2) -> Outcome<Vec<ScanHit>> {
        either!(self, c => c.scan(txn, query))
    }
    fn snap_scan(&mut self, txn: u64, query: Rect2) -> Outcome<Vec<ScanHit>> {
        either!(self, c => c.snap_scan(txn, query))
    }
}

/// Objects per loading transaction. Small on purpose: releasing a
/// transaction's locks costs time quadratic in how many it holds (50 000
/// objects load in 0.24 s at 8 per transaction, 0.33 s at 32, 2.7 s at
/// 1024), while the durable store pays one fsync per transaction.
const LOAD_BATCH: usize = 32;

/// Loads the data set through the ordinary write path.
pub fn load(db: &impl TransactionalRTree, data: &[Obj]) -> Outcome<()> {
    for batch in data.chunks(LOAD_BATCH) {
        let txn = db.begin();
        for o in batch {
            db.insert(txn, ObjectId(o.oid), o.rect).map_err(text)?;
        }
        db.commit(txn).map_err(text)?;
    }
    Ok(())
}

/// The whole-index-lock baseline over the same data and tree shape.
pub fn tree_lock_baseline(data: &[Obj]) -> Outcome<TreeLockRTree> {
    let db = TreeLockRTree::new(
        RTreeConfig::default(),
        Rect2::unit(),
        LockManagerConfig::default(),
    );
    load(&db, data)?;
    Ok(db)
}

/// The index a benchmark server fronts.
pub fn served_db(server: &Server) -> &DglRTree {
    match &**server.backend() {
        Backend::Single(db) => db,
        Backend::Sharded(_) => unreachable!("set_up starts a single tree"),
    }
}

/// A system that is up, loaded and ready for its client.
pub enum System {
    Mem { db: Arc<DglRTree> },
    Durable { db: Arc<DglRTree>, dir: PathBuf },
    Net { server: Server, client: Client },
}

impl System {
    /// One full set-up: everything between an empty process and the first
    /// request. `store` is this set-up's own directory (durable only).
    pub fn set_up(kind: Kind, data: &[Obj], store: &Path) -> Outcome<System> {
        match kind {
            Kind::Mem => {
                let db = DglRTree::new(DglConfig::default());
                load(&db, data)?;
                Ok(System::Mem { db: Arc::new(db) })
            }
            Kind::Durable => {
                let db = DglRTree::open(store, DglConfig::default()).map_err(text)?;
                load(&db, data)?;
                // Start the measured phase on a fresh log generation, so
                // the auto-checkpoint cadence does not depend on how much
                // log loading left behind.
                db.checkpoint().map_err(text)?;
                Ok(System::Durable {
                    db: Arc::new(db),
                    dir: store.to_path_buf(),
                })
            }
            Kind::Net => {
                let db = DglRTree::new(DglConfig::default());
                load(&db, data)?;
                let server =
                    Server::start(Backend::Single(db), ServerConfig::default(), "127.0.0.1:0")
                        .map_err(text)?;
                let client = Client::connect(server.addr()).map_err(text)?;
                Ok(System::Net { server, client })
            }
        }
    }

    /// The system's one client, and the index itself for what only an
    /// in-process handle can read (registries, lock table, invariants).
    pub fn connect(&mut self) -> (Conn<'_>, &DglRTree) {
        match self {
            System::Mem { db } | System::Durable { db, .. } => (Conn::Local(Local::dgl(db)), db),
            System::Net { server, client } => (Conn::Remote(Remote(client)), served_db(server)),
        }
    }

    /// The index under test.
    pub fn db(&self) -> &DglRTree {
        match self {
            System::Mem { db } | System::Durable { db, .. } => db,
            System::Net { server, .. } => served_db(server),
        }
    }

    /// Renders the merged lock table from another thread (the watchdog).
    pub fn dump_fn(&self) -> Box<dyn Fn() -> String + Send> {
        match self {
            System::Mem { db } | System::Durable { db, .. } => {
                let db = Arc::clone(db);
                Box::new(move || db.merged_locktable_dump())
            }
            System::Net { server, .. } => {
                let backend = Arc::clone(server.backend());
                Box::new(move || match &*backend {
                    Backend::Single(db) => db.merged_locktable_dump(),
                    Backend::Sharded(db) => db.merged_locktable_dump(),
                })
            }
        }
    }

    /// Stops the system: the server drains and joins its threads, the
    /// index joins its flusher. Call with the watchdog's dump cleared, so
    /// no other handle keeps the index alive.
    pub fn shut_down(self) -> Outcome<()> {
        match self {
            System::Mem { db } | System::Durable { db, .. } => {
                drop(Arc::try_unwrap(db).map_err(|_| "index still shared at shut-down")?);
                Ok(())
            }
            System::Net { mut server, client } => {
                drop(client);
                server.shutdown().map_err(text)
            }
        }
    }
}
