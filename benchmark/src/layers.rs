//! The traced run (`--trace 1`): where one operation's time goes, layer by
//! layer, measured from **outside** the program.
//!
//! Three sources, none of which needs a line changed in the system:
//!
//! * **spans** around every call the driver makes (`name, start_ns, end_ns,
//!   parent, txn`), kept in memory and written to
//!   `benchmark/out/trace-<workload>.jsonl` when the run ends;
//! * **registry deltas**, read by exported metric *name* from the `dgl-obs`
//!   registries the system already keeps (means are sum ÷ count; the log2
//!   buckets are never turned into quantiles);
//! * **replays**: the operations the workload ran are run again, one layer
//!   at a time, through that layer's public functions — a bare `RTree2`, a
//!   bare `StripedMap`, a stand-alone `LockManager`, `Wal`, the wire codec,
//!   the whole-index-lock baseline, and (for `net_mixed`) the same index in
//!   process.
//!
//! A run spends ¼ of `--seconds` traced, ⅙ untraced and the rest on the
//! replays. The traced phase comes first, so the replicas — which start
//! from the same constant data set — replay exactly the operations the
//! system saw, in the same state. A layer that is not on a workload's path
//! prints 0.

use std::collections::HashMap;
use std::fs;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dgl_core::{DglRTree, ObjectId, Rect2, ScanHit};
use dgl_hashidx::StripedMap;
use dgl_lockmgr::{
    LockDuration, LockManager, LockManagerConfig, LockMode, RequestKind, ResourceId, TxnId,
};
use dgl_obs::{Ctr, Hist, Registry};
use dgl_pager::PageId;
use dgl_proto::{Request, Response};
use dgl_rtree::{RTree2, RTreeConfig};
use dgl_txn::TxnManager;
use dgl_wal::{Wal, WalConfig, WalRecord};

use crate::drive::{replay, NoProbe, Phase, Probe, Until, Verdict, BEGIN};
use crate::gen::{
    self, Obj, Op, Segment, CLASSES, CLASS_NAMES, COMMIT, DELETE, INSERT, POINT, SCAN, TXN, UPDATE,
};
use crate::rec::median_u32;
use crate::workloads::{self, Kind, Local, Outcome, System};
use crate::{diag, host, metric, segment_seconds, Metric, Run, SMOKE_SEGMENTS};

/// Every value of one registry, by the name it is exported under:
/// counters as `(value, 0)`, histograms as `(sum, count)`.
struct Readings(HashMap<&'static str, (u64, u64)>);

impl Readings {
    fn take(reg: &Registry) -> Self {
        let mut m = HashMap::new();
        for c in Ctr::ALL {
            m.insert(c.name(), (reg.ctr(c), 0));
        }
        for h in Hist::ALL {
            let s = reg.hist(h);
            m.insert(h.name(), (s.sum, s.count));
        }
        Readings(m)
    }

    fn get(&self, name: &str) -> (u64, u64) {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("the registry no longer exports '{name}'"))
    }
}

/// Change of a registry between two readings.
struct Delta {
    from: Readings,
    to: Readings,
}

impl Delta {
    fn ctr(&self, name: &str) -> f64 {
        (self.to.get(name).0 - self.from.get(name).0) as f64
    }

    fn hist_count(&self, name: &str) -> f64 {
        (self.to.get(name).1 - self.from.get(name).1) as f64
    }

    /// Mean of a histogram's new samples, in microseconds.
    fn hist_mean_us(&self, name: &str) -> f64 {
        let n = self.hist_count(name);
        if n == 0.0 {
            0.0
        } else {
            self.ctr(name) / n / 1e3
        }
    }
}

fn ctr_named(name: &str) -> Ctr {
    *Ctr::ALL
        .iter()
        .find(|c| c.name() == name)
        .unwrap_or_else(|| panic!("the registry no longer exports '{name}'"))
}

/// Current value of the counter exported under `name`.
pub fn exported_counter(reg: &Registry, name: &str) -> u64 {
    reg.ctr(ctr_named(name))
}

fn per(total: f64, n: f64) -> f64 {
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

/// One recorded call of the driver into the system.
struct Span {
    class: u8,
    hits: u32,
    txn_seq: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept for the file; calls beyond it are still counted.
const SPAN_CAP: usize = 250_000;

/// Span names by class (the eight latency classes, then `begin`).
fn span_name(class: usize) -> &'static str {
    if class == BEGIN {
        "begin"
    } else {
        CLASS_NAMES[class]
    }
}

/// Records a span and the lock-manager requests of every call.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    calls_seen: u64,
    reg: Arc<Registry>,
    lm: Arc<LockManager>,
    requests: [Ctr; 2],
    before: u64,
    /// Lock requests and calls by class (`BEGIN` last).
    lock_requests: [u64; CLASSES + 1],
    calls: [u64; CLASSES + 1],
    /// Locks held when `commit` was called, summed over transactions.
    held_at_commit: u64,
}

impl Tracer {
    fn new(db: &DglRTree) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAP),
            calls_seen: 0,
            reg: Arc::clone(db.obs()),
            lm: Arc::clone(db.lock_manager()),
            requests: [
                ctr_named("lock_requests_short"),
                ctr_named("lock_requests_commit"),
            ],
            before: 0,
            lock_requests: [0; CLASSES + 1],
            calls: [0; CLASSES + 1],
            held_at_commit: 0,
        }
    }

    fn requests_now(&self) -> u64 {
        self.reg.ctr(self.requests[0]) + self.reg.ctr(self.requests[1])
    }

    fn requests_per(&self, class: usize) -> f64 {
        per(self.lock_requests[class] as f64, self.calls[class] as f64)
    }

    /// Writes the spans as JSON lines. A transaction's span is the parent
    /// of the calls made inside it.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        let (mut txn, mut child) = (0, 0);
        for s in &self.spans {
            if s.txn_seq != txn {
                (txn, child) = (s.txn_seq, 0);
            }
            let name = span_name(s.class as usize);
            if s.class as usize == TXN {
                writeln!(
                    out,
                    "{{\"id\":\"t{txn}\",\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":null,\"txn\":{txn}}}",
                    s.start_ns, s.end_ns
                )?;
            } else {
                child += 1;
                writeln!(
                    out,
                    "{{\"id\":\"t{txn}.{child}\",\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":\"t{txn}\",\"txn\":{txn},\"hits\":{}}}",
                    s.start_ns, s.end_ns, s.hits
                )?;
            }
        }
        out.flush()
    }
}

impl Probe for Tracer {
    fn pre(&mut self, class: usize, txn: u64) {
        if class == COMMIT {
            self.held_at_commit += self.lm.locks_held(TxnId(txn)) as u64;
        }
        self.before = self.requests_now();
    }

    fn post(&mut self, class: usize, start: Instant, end: Instant, txn_seq: u64, hits: usize) {
        if class != TXN {
            // A transaction is the sum of its calls; counting it too would
            // double every request.
            self.lock_requests[class] += self.requests_now() - self.before;
            self.calls[class] += 1;
        }
        self.calls_seen += 1;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                class: class as u8,
                hits: hits as u32,
                txn_seq,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            });
        }
    }
}

/// Nanoseconds per call of `f` over `n` calls timed as one block (a
/// timestamp pair per call would cost as much as these calls do).
fn block_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

fn p50_us(samples: &mut [u32]) -> f64 {
    median_u32(samples).map_or(0.0, |ns| ns / 1e3)
}

fn ops_of(segments: &[Segment]) -> impl Iterator<Item = &Op> {
    segments.iter().flat_map(|s| s.ops.iter())
}

/// `geom`: the overlap test on the workload's own queries against the data
/// set's rectangles.
fn geom_replay(segments: &[Segment], data: &[Obj]) -> f64 {
    let queries: Vec<Rect2> = ops_of(segments)
        .filter_map(|op| match op {
            Op::Scan { query, .. } | Op::SnapScan { query, .. } => Some(*query),
            _ => None,
        })
        .take(256)
        .collect();
    if queries.is_empty() {
        return 0.0;
    }
    let rects: Vec<Rect2> = data.iter().take(4_096).map(|o| o.rect).collect();
    let mut hits = 0usize;
    let t0 = Instant::now();
    for q in &queries {
        for r in &rects {
            hits += usize::from(black_box(r).intersects(black_box(q)));
        }
    }
    black_box(hits);
    t0.elapsed().as_nanos() as f64 / (queries.len() * rects.len()) as f64
}

#[derive(Default)]
struct RtreeNumbers {
    search_p50_us: f64,
    nodes_per_search: f64,
    hits_per_search: f64,
    insert_p50_us: f64,
    delete_p50_us: f64,
    splits_per_kinsert: f64,
    height: f64,
    pages: f64,
}

/// `rtree`: the workload's scans, inserts and deletes on a bare `RTree2`
/// of the same shape — no locks, no latch, no versions, no log.
fn rtree_replay(
    segments: &[Segment],
    skip: usize,
    data: &[Obj],
    budget: Option<Duration>,
) -> RtreeNumbers {
    let mut tree = RTree2::new(RTreeConfig::default(), Rect2::unit());
    for o in data {
        tree.insert(ObjectId(o.oid), o.rect);
    }
    let (mut search, mut insert, mut delete) = (Vec::new(), Vec::new(), Vec::new());
    let (mut nodes, mut hits, mut splits) = (0u64, 0u64, 0u64);
    let t_start = Instant::now();
    for (i, seg) in segments.iter().enumerate() {
        if budget.is_some_and(|b| t_start.elapsed() > b) {
            break;
        }
        let timed = i >= skip;
        for op in &seg.ops {
            match *op {
                Op::Scan { query, .. } | Op::SnapScan { query, .. } => {
                    let reads = tree.io_stats().snapshot().logical_reads;
                    let t0 = Instant::now();
                    let found = tree.search(&query);
                    let ns = t0.elapsed().as_nanos() as u32;
                    if timed {
                        search.push(ns);
                        nodes += tree.io_stats().snapshot().logical_reads - reads;
                        hits += found.len() as u64;
                    }
                }
                Op::Insert { oid, rect } => {
                    let t0 = Instant::now();
                    let done = tree.insert(ObjectId(oid), rect);
                    let ns = t0.elapsed().as_nanos() as u32;
                    if timed {
                        insert.push(ns);
                        splits += done.splits.len() as u64;
                    }
                }
                Op::Delete { oid, rect } => {
                    let t0 = Instant::now();
                    let existed = tree.delete(ObjectId(oid), rect);
                    let ns = t0.elapsed().as_nanos() as u32;
                    debug_assert!(existed);
                    if timed {
                        delete.push(ns);
                    }
                }
                Op::Point { .. } | Op::Update { .. } => {}
            }
        }
    }
    RtreeNumbers {
        nodes_per_search: per(nodes as f64, search.len() as f64),
        hits_per_search: per(hits as f64, search.len() as f64),
        splits_per_kinsert: per(1e3 * splits as f64, insert.len() as f64),
        search_p50_us: p50_us(&mut search),
        insert_p50_us: p50_us(&mut insert),
        delete_p50_us: p50_us(&mut delete),
        height: f64::from(tree.height()),
        pages: tree.pages().count() as f64,
    }
}

/// `hashidx`: the workload's point keys on a bare `StripedMap`. Returns
/// `(get_ns, insert_remove_ns)`, the second per single insert or remove.
fn hashidx_replay(segments: &[Segment], data: &[Obj]) -> (f64, f64) {
    let map: StripedMap<u64, (Rect2, u64)> = StripedMap::new();
    for o in data {
        map.insert(o.oid, (o.rect, o.version));
    }
    let (mut reads, mut inserts) = (Vec::new(), Vec::new());
    for op in ops_of(segments) {
        match *op {
            Op::Point { oid, .. } | Op::Update { oid, .. } | Op::Delete { oid, .. } => {
                reads.push(oid)
            }
            Op::Insert { oid, rect } => inserts.push((oid, rect)),
            _ => {}
        }
    }
    reads.truncate(200_000);
    inserts.truncate(100_000);
    let get_ns = block_ns(reads.len(), |i| {
        black_box(map.get(&reads[i], |v| v.1));
    });
    let insert_ns = block_ns(inserts.len(), |i| {
        black_box(map.insert(inserts[i].0, (inserts[i].1, 1)));
    });
    let remove_ns = block_ns(inserts.len(), |i| {
        black_box(map.remove(&inserts[i].0));
    });
    (get_ns, (insert_ns + remove_ns) / 2.0)
}

struct LockCosts {
    lock_ns: f64,
    relock_ns: f64,
    release_ns_per_lock: f64,
}

/// `lockmgr`: a stand-alone, uncontended `LockManager` — what one request,
/// one re-request of a held lock and one release cost with nobody waiting.
fn lockmgr_bench(rounds: usize) -> LockCosts {
    const LOCKS: usize = 8;
    let lm = LockManager::new(LockManagerConfig::default());
    let res =
        |round: usize, k: usize| ResourceId::Page(PageId(((round * 7 + k * 13) % 4_096) as u64));
    let (mut lock, mut relock, mut release) = (0u128, 0u128, 0u128);
    for round in 0..rounds {
        let txn = TxnId(round as u64 + 1);
        let t0 = Instant::now();
        for k in 0..LOCKS {
            black_box(lm.lock(
                txn,
                res(round, k),
                LockMode::S,
                LockDuration::Commit,
                RequestKind::Conditional,
            ));
        }
        let t1 = Instant::now();
        for k in 0..LOCKS {
            black_box(lm.lock(
                txn,
                res(round, k),
                LockMode::S,
                LockDuration::Commit,
                RequestKind::Conditional,
            ));
        }
        let t2 = Instant::now();
        lm.release_all(txn);
        let t3 = Instant::now();
        lock += (t1 - t0).as_nanos();
        relock += (t2 - t1).as_nanos();
        release += (t3 - t2).as_nanos();
    }
    let n = (rounds * LOCKS) as f64;
    LockCosts {
        lock_ns: lock as f64 / n,
        relock_ns: relock as f64 / n,
        release_ns_per_lock: release as f64 / n,
    }
}

/// `txn`: begin + commit of an empty transaction on a stand-alone manager.
fn txn_bench(rounds: usize) -> f64 {
    let tm = TxnManager::new(Arc::new(LockManager::new(LockManagerConfig::default())));
    block_ns(rounds, |_| {
        let t = tm.begin();
        tm.commit(black_box(t));
    })
}

struct ProtoCosts {
    req_encode_ns: f64,
    req_decode_ns: f64,
    resp_encode_ns_per_hit: f64,
    resp_decode_ns_per_hit: f64,
}

/// `proto`: the wire codec on the requests the workload sent and on
/// responses of the size it received.
fn proto_replay(segments: &[Segment], data: &[Obj]) -> ProtoCosts {
    let requests: Vec<Request> = ops_of(segments)
        .take(20_000)
        .map(|op| match *op {
            Op::Scan { query, .. } => Request::Search { txn: 7, query },
            Op::SnapScan { query, .. } => Request::SnapshotScan { snap: 7, query },
            Op::Point { oid, rect, .. } => Request::ReadSingle { txn: 7, oid, rect },
            Op::Insert { oid, rect } => Request::Insert { txn: 7, oid, rect },
            Op::Delete { oid, rect } => Request::Delete { txn: 7, oid, rect },
            Op::Update { oid, rect } => Request::Update { txn: 7, oid, rect },
        })
        .collect();
    let mut frames = Vec::with_capacity(requests.len());
    let req_encode_ns = block_ns(requests.len(), |i| {
        frames.push(requests[i].encode(i as u32))
    });
    let req_decode_ns = block_ns(frames.len(), |i| {
        black_box(Request::decode(&frames[i]).expect("own frame decodes"));
    });
    // Hit sets of the checked scans, as the server would send them.
    let responses: Vec<Response> = segments
        .iter()
        .flat_map(|s| s.expected.iter())
        .take(2_000)
        .map(|set| Response::Hits {
            hits: set
                .iter()
                .map(|&(oid, version)| ScanHit {
                    oid: ObjectId(oid),
                    rect: data[oid as usize % data.len()].rect,
                    version,
                })
                .collect(),
        })
        .collect();
    let hits: usize = responses
        .iter()
        .map(|r| match r {
            Response::Hits { hits } => hits.len(),
            _ => 0,
        })
        .sum();
    let mut bodies = Vec::with_capacity(responses.len());
    let encode = block_ns(responses.len(), |i| {
        bodies.push(responses[i].encode(i as u32))
    });
    let decode = block_ns(bodies.len(), |i| {
        black_box(Response::decode(&bodies[i]).expect("own frame decodes"));
    });
    let per_hit = |ns_per_msg: f64| per(ns_per_msg * responses.len() as f64, hits as f64);
    ProtoCosts {
        req_encode_ns,
        req_decode_ns,
        resp_encode_ns_per_hit: per_hit(encode),
        resp_decode_ns_per_hit: per_hit(decode),
    }
}

struct WalCosts {
    append_ns: f64,
    commit_sync_p50_us: f64,
    device_fsync_p50_us: f64,
}

/// `wal`: a stand-alone `Wal` in the run directory (append into the
/// buffer; commit record to durable), and the raw device under it.
fn wal_bench(dir: &Path, appends: usize, commits: usize) -> Outcome<WalCosts> {
    let io = |e: std::io::Error| e.to_string();
    let wal_dir = dir.join("wal-probe");
    fs::create_dir_all(&wal_dir).map_err(io)?;
    let start = WalRecord::Checkpoint {
        gen: 0,
        undo: Vec::new(),
        prepared: Vec::new(),
    };
    let wal = Wal::create(
        &wal_dir,
        0,
        &start,
        WalConfig::default(),
        Arc::new(Registry::new()),
    )
    .map_err(|e| e.to_string())?;
    let record = |i: usize| WalRecord::Insert {
        txn: 1,
        oid: i as u64,
        rect: [0.25, 0.25, 0.26, 0.26],
    };
    let append_ns = block_ns(appends, |i| {
        black_box(wal.append(&record(i)).expect("append"));
    });
    let mut sync = Vec::with_capacity(commits);
    for i in 0..commits {
        wal.append(&record(i)).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let lsn = wal.append_commit(i as u64 + 2).map_err(|e| e.to_string())?;
        wal.wait_durable(lsn).map_err(|e| e.to_string())?;
        sync.push(t0.elapsed().as_nanos() as u32);
    }
    drop(wal);

    let mut file = fs::File::create(dir.join("fsync-probe.bin")).map_err(io)?;
    let block = [0xA5u8; 4_096];
    let mut device = Vec::with_capacity(commits);
    for _ in 0..commits {
        file.write_all(&block).map_err(io)?;
        let t0 = Instant::now();
        file.sync_data().map_err(io)?;
        device.push(t0.elapsed().as_nanos() as u32);
    }
    Ok(WalCosts {
        append_ns,
        commit_sync_p50_us: p50_us(&mut sync),
        device_fsync_p50_us: p50_us(&mut device),
    })
}

/// Newest checkpoint generation in a store directory.
pub fn generation(dir: &Path) -> f64 {
    dgl_wal::scan_dir(dir)
        .ok()
        .and_then(|l| l.snapshots.last().copied())
        .map_or(0.0, |g| g as f64)
}

/// Sizes of a traced run: seconds in the real thing, counts in `--smoke`.
struct Plan {
    warm: Until,
    traced: Until,
    untraced: Until,
    replay_budget: Option<Duration>,
    /// Iterations of the stand-alone benches (a tenth of it for slow ones).
    rounds: usize,
}

/// Median number of deletes in a transaction: what a median commit has to
/// remove physically.
fn median_deletes_per_txn(segments: &[Segment], txn_ops: usize) -> f64 {
    let mut counts: Vec<u32> = segments
        .iter()
        .flat_map(|s| s.ops.chunks(txn_ops))
        .map(|t| t.iter().filter(|op| op.kind() == DELETE).count() as u32)
        .collect();
    median_u32(&mut counts).unwrap_or(0.0)
}

pub fn traced_run(system: &mut System, run: &mut Run, calib_before: f64) -> Outcome<Vec<Metric>> {
    let args = run.args;
    let (w, kind, txn_ops) = (args.workload, args.workload.kind, args.workload.mix.txn_ops);
    let data = gen::dataset();
    let plan = if args.smoke {
        Plan {
            warm: Until::Segments(1),
            traced: Until::Segments(SMOKE_SEGMENTS / 2),
            untraced: Until::Segments(SMOKE_SEGMENTS / 2),
            replay_budget: None,
            rounds: 2_000,
        }
    } else {
        Plan {
            warm: Until::Seconds(args.seconds / 24.0),
            traced: Until::Seconds(args.seconds / 4.0),
            untraced: Until::Seconds(args.seconds / 6.0),
            replay_budget: Some(Duration::from_secs_f64(args.seconds / 10.0)),
            rounds: 20_000,
        }
    };
    let store = match system {
        System::Durable { dir, .. } => Some(dir.clone()),
        _ => None,
    };
    let net_obs = match system {
        System::Net { server, .. } => Some(Arc::clone(server.obs())),
        _ => None,
    };
    let core_obs = Arc::clone(system.db().obs());
    let read_all = || {
        (
            Readings::take(&core_obs),
            net_obs.as_deref().map(Readings::take),
        )
    };

    // --- ¼: traced. First, so the replicas below see the same stream from
    // the same state. Its warm-up segments are kept (state) but not timed.
    let (from_core, from_net) = read_all();
    let gen_before = store.as_deref().map_or(0.0, generation);
    let mut kept: Vec<Segment> = Vec::new();
    let (traced, untraced, warm_segments, tracer);
    {
        // The index is reached twice here: by the client under test and,
        // in process, by the tracer reading its registry and lock table.
        let (mut conn, db) = system.connect();
        let mut t = Tracer::new(db);
        run.dog.phase("traced warm-up");
        let txns = match plan.warm {
            Until::Segments(_) => {
                let txns = run.smoke_txns();
                run.phase(&mut conn, &mut t, txns, plan.warm, Some(&mut kept));
                txns
            }
            Until::Seconds(s) => run.warm_up(
                &mut conn,
                &mut t,
                s,
                segment_seconds(args.seconds),
                Some(&mut kept),
            ),
        };
        warm_segments = kept.len();
        run.dog.phase("traced");
        traced = run.phase(&mut conn, &mut t, txns, plan.traced, Some(&mut kept));
        run.dog.phase("untraced");
        untraced = run.phase(&mut conn, &mut NoProbe, txns, plan.untraced, None);
        tracer = t;
    }
    let (to_core, to_net) = read_all();
    let gen_after = store.as_deref().map_or(0.0, generation);
    let core = Delta {
        from: from_core,
        to: to_core,
    };
    let net = from_net.zip(to_net).map(|(from, to)| Delta { from, to });
    let calib_after = host::calibrate_ms();
    let host_readings = crate::host_readings(run, &untraced, (calib_before, calib_after));

    let trace_path = run
        .dir
        .0
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("trace-{}.jsonl", w.name));
    tracer
        .write(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "trace    {} spans of {} calls written to {}",
        tracer.spans.len(),
        tracer.calls_seen,
        trace_path.display()
    );

    // Transactions and operations the registries saw between the readings.
    let warm_txns: usize = kept[..warm_segments]
        .iter()
        .map(|s| s.ops.len() / txn_ops)
        .sum();
    let txns = (warm_txns as u64 + traced.txns + untraced.txns) as f64;
    let ops = txns * txn_ops as f64;
    let warm_inserts = ops_of(&kept[..warm_segments])
        .filter(|op| op.kind() == INSERT)
        .count() as u64;
    let inserts = (warm_inserts + traced.calls[INSERT] + untraced.calls[INSERT]) as f64;

    // --- the rest: replays, one layer at a time.
    run.dog.phase("replays");
    let mut scratch = Verdict::default();
    let in_process = if kind == Kind::Net {
        // The same operations on the same index without the wire: what is
        // left is the network's share, per operation kind, on identical
        // inputs. Its answers must be the server's answers.
        let twin = DglRTree::new(dgl_core::DglConfig::default());
        workloads::load(&twin, &data)?;
        let p = replay(
            &mut Local::dgl(&twin),
            &kept,
            warm_segments,
            txn_ops,
            plan.replay_budget,
            &mut run.verdict,
            run.dog,
        );
        let replayed = p.digests.get(warm_segments..).unwrap_or_default();
        let differing = traced
            .digests
            .iter()
            .zip(replayed)
            .filter(|(a, b)| a != b)
            .count();
        if differing > 0 {
            run.verdict.wrong(format!(
                "{differing} segments answered differently over the wire and in process"
            ));
        }
        println!(
            "checked  {} segments of answers equal over the wire and in process",
            replayed.len().min(traced.digests.len())
        );
        p
    } else {
        Phase::default()
    };
    let baseline = {
        let db = workloads::tree_lock_baseline(&data)?;
        replay(
            &mut Local::tree_lock(&db),
            &kept,
            warm_segments,
            txn_ops,
            plan.replay_budget,
            &mut scratch,
            run.dog,
        )
    };
    run.dog.beat();
    let rtree = rtree_replay(&kept, warm_segments, &data, plan.replay_budget);
    run.dog.beat();
    let geom_ns = geom_replay(&kept, &data);
    let (hash_get_ns, hash_insert_remove_ns) = hashidx_replay(&kept, &data);
    let locks = lockmgr_bench(plan.rounds / 4);
    let txn_ns = txn_bench(plan.rounds);
    let snap_begin_ns = block_ns(plan.rounds, |_| {
        drop(black_box(system.db().begin_snapshot()))
    });
    run.dog.beat();
    let (proto, rtt_floor_us) = match system {
        System::Net { client, .. } => {
            let mut rtt = Vec::with_capacity(plan.rounds / 10);
            for _ in 0..plan.rounds / 10 {
                let t0 = Instant::now();
                client.count().map_err(|e| e.to_string())?;
                rtt.push(t0.elapsed().as_nanos() as u32);
            }
            (Some(proto_replay(&kept, &data)), p50_us(&mut rtt))
        }
        _ => (None, 0.0),
    };
    let (wal, checkpoint_ms) = match system {
        System::Durable { db, .. } => {
            let costs = wal_bench(&run.dir.0, plan.rounds, plan.rounds / 100)?;
            let t0 = Instant::now();
            for _ in 0..3 {
                db.checkpoint().map_err(|e| e.to_string())?;
                run.dog.beat();
            }
            (Some(costs), t0.elapsed().as_secs_f64() * 1e3 / 3.0)
        }
        _ => (None, 0.0),
    };
    run.dog.phase("parallel speed-up");
    let speedup = host::parallel_speedup(run.pin);

    // --- the budget of one operation.
    // Latencies of the system as driven, and of its in-process part.
    let driven = |class| untraced.p50_us(class);
    let inproc = |class| {
        if kind == Kind::Net {
            in_process.p50_us(class)
        } else {
            untraced.p50_us(class)
        }
    };
    let req = |class| tracer.requests_per(class);
    let us = |ns: f64| ns / 1e3;
    let wal_append_us = wal.as_ref().map_or(0.0, |c| us(c.append_ns));
    let wal_sync_us = wal.as_ref().map_or(0.0, |c| c.commit_sync_p50_us);
    let held = per(tracer.held_at_commit as f64, tracer.calls[COMMIT] as f64);
    let deletes = median_deletes_per_txn(&kept, txn_ops);
    let requests_per_txn = per(
        tracer.lock_requests.iter().sum::<u64>() as f64,
        tracer.calls[COMMIT] as f64,
    );
    // count × cost: fresh requests for what is held at commit, re-requests
    // for the rest, one release per held lock.
    let lock_est_us = us(held * (locks.lock_ns + locks.release_ns_per_lock)
        + (requests_per_txn - held).max(0.0) * locks.relock_ns);

    let scan_self = inproc(SCAN) - rtree.search_p50_us - us(req(SCAN) * locks.lock_ns);
    let point_self = inproc(POINT) - us(hash_get_ns) - us(req(POINT) * locks.lock_ns);
    let insert_self = inproc(INSERT)
        - rtree.insert_p50_us
        - us(hash_insert_remove_ns)
        - us(req(INSERT) * locks.lock_ns)
        - wal_append_us;
    let delete_self =
        inproc(DELETE) - us(hash_get_ns) - us(req(DELETE) * locks.lock_ns) - wal_append_us;
    let commit_self = inproc(COMMIT)
        - us(held * locks.release_ns_per_lock)
        - us(txn_ns)
        - deletes * (rtree.delete_p50_us + us(hash_insert_remove_ns))
        - us(req(COMMIT) * locks.lock_ns)
        - wal_sync_us;

    // The network's share (0 in process): what the wire adds, and what of
    // it the codec replays and the round-trip floor explain.
    let tax = |class| {
        if kind == Kind::Net {
            driven(class) - in_process.p50_us(class)
        } else {
            0.0
        }
    };
    let hits_per_scan = per(untraced.hits[SCAN] as f64, untraced.calls[SCAN] as f64);
    let wire = |hits: f64| {
        proto.as_ref().map_or(0.0, |p| {
            us(p.req_encode_ns
                + p.req_decode_ns
                + hits * (p.resp_encode_ns_per_hit + p.resp_decode_ns_per_hit))
                + rtt_floor_us
        })
    };
    let tax_write = (tax(INSERT) + tax(DELETE) + tax(UPDATE)) / 3.0;
    let residual_scan = per(scan_self + tax(SCAN) - wire(hits_per_scan), driven(SCAN));
    let residual_point = per(point_self + tax(POINT) - wire(0.0), driven(POINT));
    let residual_write = per(
        insert_self + delete_self + tax(INSERT) + tax(DELETE) - 2.0 * wire(0.0),
        driven(INSERT) + driven(DELETE),
    );
    let residual_commit = per(commit_self + tax(COMMIT) - wire(0.0), driven(COMMIT));

    // --- checks that belong to the traced run.
    let wal_active =
        core.ctr("wal_records") + core.ctr("wal_appended_bytes") + core.ctr("wal_fsyncs");
    if kind != Kind::Durable && wal_active != 0.0 {
        run.verdict.wrong(format!(
            "WAL counters moved ({wal_active}) on a workload without a log"
        ));
    }
    let waits = core.hist_count("lock_wait_nanos") + core.ctr("lock_conditional_failures");
    let hash_lookups = core.ctr("hash_hits") + core.ctr("hash_misses");

    print_layer_view(&traced, &untraced, &in_process, &baseline, kind);
    crate::print_diagnostics(&untraced);

    let n = net.as_ref();
    let net_ctr = |name: &str| n.map_or(0.0, |d| d.ctr(name));
    let net_mean = |name: &str| n.map_or(0.0, |d| d.hist_mean_us(name));
    let p99 = |class: usize| untraced.all[class].tail(0.99).map_or(0.0, |ns| ns / 1e3);
    let mut metrics = vec![
        metric("geom.intersects_ns", geom_ns, "ns"),
        metric("rtree.search_p50_us", rtree.search_p50_us, "us"),
        metric("rtree.nodes_per_search", rtree.nodes_per_search, "count"),
        metric("rtree.hits_per_search", rtree.hits_per_search, "count"),
        metric("rtree.insert_p50_us", rtree.insert_p50_us, "us"),
        metric("rtree.delete_p50_us", rtree.delete_p50_us, "us"),
        metric(
            "rtree.splits_per_kinsert",
            rtree.splits_per_kinsert,
            "count",
        ),
        metric("rtree.height", rtree.height, "count"),
        metric("rtree.pages", rtree.pages, "count"),
        metric(
            "pager.page_reads_per_op",
            per(core.ctr("page_reads"), ops),
            "count",
        ),
        metric("hashidx.get_ns", hash_get_ns, "ns"),
        metric("hashidx.insert_remove_ns", hash_insert_remove_ns, "ns"),
        metric(
            "hashidx.hit_rate",
            per(core.ctr("hash_hits"), hash_lookups),
            "share",
        ),
        metric(
            "hashidx.dup_probes_skipped_per_insert",
            per(core.ctr("dup_probes_skipped"), inserts),
            "count",
        ),
        metric("lockmgr.requests_per_txn", requests_per_txn, "count"),
        metric("lockmgr.requests_per_scan", req(SCAN), "count"),
        metric("lockmgr.requests_per_point", req(POINT), "count"),
        metric("lockmgr.requests_per_insert", req(INSERT), "count"),
        metric("lockmgr.requests_per_delete", req(DELETE), "count"),
        metric("lockmgr.lock_ns", locks.lock_ns, "ns"),
        metric("lockmgr.relock_ns", locks.relock_ns, "ns"),
        metric(
            "lockmgr.release_all_ns_per_lock",
            locks.release_ns_per_lock,
            "ns",
        ),
        metric("lockmgr.est_us_per_txn", lock_est_us, "us"),
        metric("lockmgr.waits", waits, "count"),
        metric("txn.begin_commit_ns", txn_ns, "ns"),
        metric("core.scan_self_us", scan_self, "us"),
        metric("core.point_self_us", point_self, "us"),
        metric("core.insert_self_us", insert_self, "us"),
        metric("core.delete_self_us", delete_self, "us"),
        metric("core.commit_self_us", commit_self, "us"),
        metric(
            "core.x_latch_hold_mean_us",
            core.hist_mean_us("x_latch_hold_nanos"),
            "us",
        ),
        metric(
            "core.plan_phase_mean_us",
            core.hist_mean_us("plan_phase_nanos"),
            "us",
        ),
        metric(
            "core.maint_completed_per_txn",
            per(core.ctr("maint_completed"), txns),
            "count",
        ),
        metric(
            "core.maint_drain_mean_us",
            core.hist_mean_us("maint_drain_nanos"),
            "us",
        ),
        metric("core.exec_retries", core.ctr("exec_retries"), "count"),
        metric("core.txn_p99_us", p99(TXN), "us"),
        metric("core.commit_p99_us", p99(COMMIT), "us"),
        metric(
            "core.protocol_overhead_x",
            per(inproc(TXN), baseline.p50_us(TXN)),
            "x",
        ),
        metric("mvcc.snap_begin_ns", snap_begin_ns, "ns"),
        metric(
            "mvcc.versions_reclaimed_per_txn",
            per(core.ctr("versions_reclaimed"), txns),
            "count",
        ),
        metric("baseline.tree_lock_txn_p50_us", baseline.p50_us(TXN), "us"),
        metric(
            "baseline.tree_lock_scan_p50_us",
            baseline.p50_us(SCAN),
            "us",
        ),
        metric(
            "baseline.tree_lock_point_p50_us",
            baseline.p50_us(POINT),
            "us",
        ),
        metric(
            "baseline.tree_lock_insert_p50_us",
            baseline.p50_us(INSERT),
            "us",
        ),
        metric(
            "wal.records_per_txn",
            per(core.ctr("wal_records"), txns),
            "count",
        ),
        metric(
            "wal.bytes_per_txn",
            per(core.ctr("wal_appended_bytes"), txns),
            "B",
        ),
        metric(
            "wal.fsyncs_per_commit",
            per(core.ctr("wal_fsyncs"), core.ctr("wal_group_commit_commits")),
            "count",
        ),
        metric(
            "wal.append_ns",
            wal.as_ref().map_or(0.0, |c| c.append_ns),
            "ns",
        ),
        metric("wal.commit_sync_p50_us", wal_sync_us, "us"),
        metric(
            "wal.fsync_mean_us",
            core.hist_mean_us("wal_fsync_nanos"),
            "us",
        ),
        metric(
            "wal.device_fsync_p50_us",
            wal.as_ref().map_or(0.0, |c| c.device_fsync_p50_us),
            "us",
        ),
        metric("durability.checkpoints", gen_after - gen_before, "count"),
        metric("durability.checkpoint_ms", checkpoint_ms, "ms"),
        metric(
            "proto.req_encode_ns",
            proto.as_ref().map_or(0.0, |p| p.req_encode_ns),
            "ns",
        ),
        metric(
            "proto.req_decode_ns",
            proto.as_ref().map_or(0.0, |p| p.req_decode_ns),
            "ns",
        ),
        metric(
            "proto.resp_encode_ns_per_hit",
            proto.as_ref().map_or(0.0, |p| p.resp_encode_ns_per_hit),
            "ns",
        ),
        metric(
            "proto.resp_decode_ns_per_hit",
            proto.as_ref().map_or(0.0, |p| p.resp_decode_ns_per_hit),
            "ns",
        ),
        metric(
            "proto.frame_bytes_per_txn",
            per(net_ctr("net_bytes_in") + net_ctr("net_bytes_out"), txns),
            "B",
        ),
        metric(
            "server.req_scan_mean_us",
            net_mean("net_request_scan_nanos"),
            "us",
        ),
        metric(
            "server.req_point_mean_us",
            net_mean("net_request_point_nanos"),
            "us",
        ),
        metric(
            "server.req_write_mean_us",
            net_mean("net_request_write_nanos"),
            "us",
        ),
        metric(
            "server.req_txn_mean_us",
            net_mean("net_request_txn_nanos"),
            "us",
        ),
        metric("server.session_aborts", net_ctr("session_aborts"), "count"),
        metric(
            "net.requests_per_txn",
            per(net_ctr("net_requests"), txns),
            "count",
        ),
        metric("net.rtt_floor_p50_us", rtt_floor_us, "us"),
        metric("net.tax_scan_us", tax(SCAN), "us"),
        metric("net.tax_point_us", tax(POINT), "us"),
        metric("net.tax_write_us", tax_write, "us"),
        metric("net.tax_commit_us", tax(COMMIT), "us"),
        metric("budget.residual_share_scan", residual_scan, "share"),
        metric("budget.residual_share_point", residual_point, "share"),
        metric("budget.residual_share_write", residual_write, "share"),
        metric("budget.residual_share_commit", residual_commit, "share"),
        metric(
            "loadgen.gen_ns_per_op",
            per(
                (traced.gen_ns + untraced.gen_ns) as f64,
                (traced.ops + untraced.ops) as f64,
            ),
            "ns",
        ),
        metric(
            "trace.overhead_share",
            1.0 - per(traced.throughput(), untraced.throughput()),
            "share",
        ),
        metric("host.parallel_speedup", speedup, "x"),
    ];
    // `durability.recover_*` follow from the caller's crash-and-recover
    // epilogue.
    metrics.extend(host_readings);
    Ok(metrics)
}

/// The outside view in one table: each latency class as driven, traced,
/// in process and through the whole-index-lock baseline.
fn print_layer_view(
    traced: &Phase,
    untraced: &Phase,
    in_process: &Phase,
    baseline: &Phase,
    kind: Kind,
) {
    println!("view     class        untraced_us   traced_us  in_process_us  tree_lock_us   (quiet-decile p50)");
    for (class, name) in CLASS_NAMES.iter().enumerate() {
        let twin = if kind == Kind::Net {
            in_process.p50_us(class)
        } else {
            untraced.p50_us(class)
        };
        println!(
            "view     {:<10} {:>13.3} {:>11.3} {:>14.3} {:>13.3}",
            name,
            untraced.p50_us(class),
            traced.p50_us(class),
            twin,
            baseline.p50_us(class)
        );
    }
    diag("throughput.untraced", untraced.throughput(), "1/s", "");
    diag("throughput.traced", traced.throughput(), "1/s", "");
}
