//! `dgl-shell` — an interactive REPL over the transactional R-tree.
//!
//! Drive multiple transactions by hand and watch the granular locking
//! protocol arbitrate them:
//!
//! ```text
//! $ cargo run --bin dgl-shell
//! dgl> begin
//! T1
//! dgl> insert T1 1 0.1 0.1 0.2 0.2
//! ok
//! dgl> scan T1 0 0 0.5 0.5
//! O1 [0.1,0.1]-[0.2,0.2] v1
//! dgl> commit T1
//! ok
//! ```
//!
//! Lock waits use a 1-second timeout so a conflicting command returns
//! with `timeout` (and rolls its transaction back) instead of hanging the
//! single-threaded prompt. `open <dir>` persists the index: it attaches
//! a write-ahead log so every commit is durable, `checkpoint` truncates
//! it behind a fresh snapshot, and `recover <dir>` rebuilds an index
//! from snapshot + committed log tail.
//!
//! A commit runs its deferred physical deletions before it returns, as
//! system operations that wait out lock conflicts instead of timing out.
//! In a single-threaded shell that matters: a commit whose physical
//! deletion conflicts with another open transaction's scan locks stalls
//! the prompt until that scanner finishes — which, with only one prompt,
//! is never. Finish the scanner before committing the delete.
//!
//! With `connect <addr>` the shell becomes a network client: the same
//! transaction commands travel over the dgl-server wire protocol to a
//! remote (or loopback) server, plus snapshot reads (`snapshot` /
//! `snap-scan` / `snap-read` / `snap-end`) and server-side `stats` /
//! `count`. Two shells connected to one server make the lock protocol
//! observable across real session boundaries.

use std::io::{BufRead, Write};
use std::time::Duration;

use granular_rtree::core::{DglConfig, DglRTree, Rect2, TransactionalRTree, TxnError, TxnId};
use granular_rtree::lockmgr::LockManagerConfig;
use granular_rtree::rtree::{ObjectId, RTreeConfig};

fn config() -> DglConfig {
    DglConfig {
        rtree: RTreeConfig::with_fanout(8),
        lock: LockManagerConfig {
            wait_timeout: Duration::from_secs(1),
            ..Default::default()
        },
        ..Default::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "connect") {
        let addr = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7878".to_string());
        run_remote(&addr);
        return;
    }
    let mut db = DglRTree::new(config());
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    println!("granular-rtree shell — type `help`");
    loop {
        print!("dgl> ");
        out.flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.is_empty() {
            continue;
        }
        match run_command(&mut db, &parts) {
            Ok(Some(msg)) => println!("{msg}"),
            Ok(None) => break,
            Err(msg) => println!("error: {msg}"),
        }
    }
}

/// Network client mode: the REPL talks the wire protocol to a running
/// `dgl-server` instead of owning a tree. Retryable verdicts (deadlock,
/// timeout) print as errors but the connection — and the prompt — stay
/// alive; the server has already rolled the transaction back.
fn run_remote(addr: &str) {
    let mut client = match dgl_client::Client::connect_as(addr, "dgl-shell") {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "connected to {} at {addr} — type `help`",
        client.server_name()
    );
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("dgl@{addr}> ");
        out.flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.is_empty() {
            continue;
        }
        match run_remote_command(&mut client, &parts) {
            Ok(Some(msg)) => println!("{msg}"),
            Ok(None) => break,
            Err(msg) => println!("error: {msg}"),
        }
    }
}

fn parse_id(s: &str, prefix: char, what: &str) -> Result<u64, String> {
    s.trim_start_matches(prefix)
        .parse::<u64>()
        .map_err(|_| format!("bad {what} id {s:?} (expected e.g. {prefix}3)"))
}

fn render_hits(hits: &[granular_rtree::core::ScanHit]) -> String {
    if hits.is_empty() {
        return "(empty)".into();
    }
    let mut msg = String::new();
    for h in hits {
        msg.push_str(&format!(
            "{} [{:.3},{:.3}]-[{:.3},{:.3}] v{}\n",
            h.oid, h.rect.lo[0], h.rect.lo[1], h.rect.hi[0], h.rect.hi[1], h.version
        ));
    }
    msg.push_str(&format!("{} objects", hits.len()));
    msg
}

fn run_remote_command(
    c: &mut dgl_client::Client,
    parts: &[&str],
) -> Result<Option<String>, String> {
    let client_err = |e: dgl_client::ClientError| {
        if e.is_retryable() {
            format!("{e} — transaction rolled back, connection still good")
        } else {
            e.to_string()
        }
    };
    match parts[0] {
        "help" => Ok(Some(REMOTE_HELP.trim().into())),
        "quit" | "exit" => Ok(None),
        "begin" => c.begin().map(|t| Some(format!("T{t}"))).map_err(client_err),
        "commit" | "abort" => {
            let txn = parse_id(
                parts.get(1).ok_or("usage: commit <txn>")?,
                'T',
                "transaction",
            )?;
            let r = if parts[0] == "commit" {
                c.commit(txn)
            } else {
                c.abort(txn)
            };
            r.map(|()| Some("ok".into())).map_err(client_err)
        }
        "insert" | "delete" | "read" | "update" => {
            if parts.len() < 3 {
                return Err(format!("usage: {} <txn> <oid> x0 y0 x1 y1", parts[0]));
            }
            let txn = parse_id(parts[1], 'T', "transaction")?;
            let oid = parse_id(parts[2], 'O', "object")?;
            let rect = parse_rect(&parts[3..])?;
            match parts[0] {
                "insert" => c
                    .insert(txn, oid, rect)
                    .map(|()| Some("ok".into()))
                    .map_err(client_err),
                "delete" => c
                    .delete(txn, oid, rect)
                    .map(|found| Some(if found { "deleted" } else { "not found" }.into()))
                    .map_err(client_err),
                "read" => c
                    .read_single(txn, oid, rect)
                    .map(|v| {
                        Some(match v {
                            Some(version) => format!("version {version}"),
                            None => "not found".into(),
                        })
                    })
                    .map_err(client_err),
                _ => c
                    .update(txn, oid, rect)
                    .map(|found| Some(if found { "updated" } else { "not found" }.into()))
                    .map_err(client_err),
            }
        }
        "scan" | "update-scan" => {
            if parts.len() != 6 {
                return Err(format!("usage: {} <txn> x0 y0 x1 y1", parts[0]));
            }
            let txn = parse_id(parts[1], 'T', "transaction")?;
            let rect = parse_rect(&parts[2..])?;
            let hits = if parts[0] == "scan" {
                c.search(txn, rect)
            } else {
                c.update_scan(txn, rect)
            }
            .map_err(client_err)?;
            Ok(Some(render_hits(&hits)))
        }
        "get" => {
            // Remote point read on the server's hash-index fast path: a
            // throwaway snapshot brackets one zero-lock point read.
            if parts.len() != 2 {
                return Err("usage: get <oid>".into());
            }
            let oid = parse_id(parts[1], 'O', "object")?;
            let (snap, seq) = c.begin_snapshot().map_err(client_err)?;
            let read = c.snapshot_read(snap, oid).map_err(client_err);
            let _ = c.end_snapshot(snap);
            read.map(|v| {
                Some(match v {
                    Some(version) => format!("version {version} @commit-seq {seq}"),
                    None => "not found".into(),
                })
            })
        }
        "snapshot" => c
            .begin_snapshot()
            .map(|(snap, seq)| Some(format!("S{snap} @commit-seq {seq}")))
            .map_err(client_err),
        "snap-scan" => {
            if parts.len() != 6 {
                return Err("usage: snap-scan <snap> x0 y0 x1 y1".into());
            }
            let snap = parse_id(parts[1], 'S', "snapshot")?;
            let rect = parse_rect(&parts[2..])?;
            let hits = c.snapshot_scan(snap, rect).map_err(client_err)?;
            Ok(Some(render_hits(&hits)))
        }
        "snap-read" => {
            if parts.len() != 3 {
                return Err("usage: snap-read <snap> <oid>".into());
            }
            let snap = parse_id(parts[1], 'S', "snapshot")?;
            let oid = parse_id(parts[2], 'O', "object")?;
            c.snapshot_read(snap, oid)
                .map(|v| {
                    Some(match v {
                        Some(version) => format!("version {version}"),
                        None => "not found".into(),
                    })
                })
                .map_err(client_err)
        }
        "snap-end" => {
            let snap = parse_id(
                parts.get(1).ok_or("usage: snap-end <snap>")?,
                'S',
                "snapshot",
            )?;
            c.end_snapshot(snap)
                .map(|()| Some("ok".into()))
                .map_err(client_err)
        }
        "stats" => c.stats().map(Some).map_err(client_err),
        "count" => c
            .count()
            .map(|n| Some(format!("{n} objects")))
            .map_err(client_err),
        other => Err(format!("unknown command {other:?}; try `help`")),
    }
}

const REMOTE_HELP: &str = r#"
commands (network mode — every command is a wire-protocol request):
  begin                                  start a transaction (prints its id)
  insert <txn> <oid> x0 y0 x1 y1         insert an object
  delete <txn> <oid> x0 y0 x1 y1         delete (logical until commit)
  read   <txn> <oid> x0 y0 x1 y1         point read (payload version)
  update <txn> <oid> x0 y0 x1 y1         bump an object's version
  scan   <txn> x0 y0 x1 y1               phantom-protected region scan
  update-scan <txn> x0 y0 x1 y1          scan + update every hit
  commit <txn> | abort <txn>             finish a transaction
  get <oid>                              hash-index point read (no txn, no rect)
  snapshot                               open an MVCC snapshot (prints its id)
  snap-scan <snap> x0 y0 x1 y1           zero-lock scan at the snapshot
  snap-read <snap> <oid>                 zero-lock point read at the snapshot
  snap-end <snap>                        release the snapshot
  stats                                  server-side protocol statistics
  count                                  objects in the server's index
  quit
deadlock/timeout verdicts roll the transaction back server-side; the
connection and prompt survive. Transactions left open when the shell
exits are aborted by the server's session teardown.
"#;

fn parse_txn(s: &str) -> Result<TxnId, String> {
    let digits = s.trim_start_matches('T');
    digits
        .parse::<u64>()
        .map(TxnId)
        .map_err(|_| format!("bad transaction id {s:?} (expected e.g. T3)"))
}

fn parse_rect(parts: &[&str]) -> Result<Rect2, String> {
    if parts.len() != 4 {
        return Err("expected 4 coordinates: x0 y0 x1 y1".into());
    }
    let mut v = [0.0f64; 4];
    for (i, p) in parts.iter().enumerate() {
        v[i] = p.parse().map_err(|_| format!("bad number {p:?}"))?;
    }
    if v[0] > v[2] || v[1] > v[3] {
        return Err("rectangle lo must not exceed hi".into());
    }
    Ok(Rect2::new([v[0], v[1]], [v[2], v[3]]))
}

fn txn_err(e: TxnError) -> String {
    match e {
        TxnError::Deadlock => "deadlock — transaction rolled back".into(),
        TxnError::Timeout => "timeout — transaction rolled back".into(),
        other => other.to_string(),
    }
}

fn run_command(db: &mut DglRTree, parts: &[&str]) -> Result<Option<String>, String> {
    match parts[0] {
        "help" => Ok(Some(HELP.trim().into())),
        "quit" | "exit" => Ok(None),
        "begin" => Ok(Some(format!("{}", db.begin()))),
        "commit" | "abort" => {
            let txn = parse_txn(parts.get(1).ok_or("usage: commit <txn>")?)?;
            let r = if parts[0] == "commit" {
                db.commit(txn)
            } else {
                db.abort(txn)
            };
            r.map(|()| Some("ok".into())).map_err(txn_err)
        }
        "insert" | "delete" | "read" | "update" => {
            if parts.len() < 3 {
                return Err(format!("usage: {} <txn> <oid> x0 y0 x1 y1", parts[0]));
            }
            let txn = parse_txn(parts[1])?;
            let oid = ObjectId(parts[2].parse().map_err(|_| "bad object id")?);
            let rect = parse_rect(&parts[3..])?;
            match parts[0] {
                "insert" => db
                    .insert(txn, oid, rect)
                    .map(|()| Some("ok".into()))
                    .map_err(txn_err),
                "delete" => db
                    .delete(txn, oid, rect)
                    .map(|found| Some(if found { "deleted" } else { "not found" }.into()))
                    .map_err(txn_err),
                "read" => db
                    .read_single(txn, oid, rect)
                    .map(|v| {
                        Some(match v {
                            Some(version) => format!("version {version}"),
                            None => "not found".into(),
                        })
                    })
                    .map_err(txn_err),
                _ => db
                    .update_single(txn, oid, rect)
                    .map(|found| Some(if found { "updated" } else { "not found" }.into()))
                    .map_err(txn_err),
            }
        }
        "get" => {
            // Point read on the hash-index fast path: a throwaway MVCC
            // snapshot at "now" resolves the object's version chain
            // directly — no transaction, no locks, no tree traversal,
            // and no rect needed (the index is keyed by oid alone).
            if parts.len() != 2 {
                return Err("usage: get <oid>".into());
            }
            let oid = ObjectId(parts[1].parse().map_err(|_| "bad object id")?);
            let snap = db.begin_snapshot();
            Ok(Some(match snap.read_single(oid) {
                Some(version) => format!("version {version} @commit-seq {}", snap.ts()),
                None => "not found".into(),
            }))
        }
        "scan" | "update-scan" => {
            if parts.len() != 6 {
                return Err(format!("usage: {} <txn> x0 y0 x1 y1", parts[0]));
            }
            let txn = parse_txn(parts[1])?;
            let rect = parse_rect(&parts[2..])?;
            let hits = if parts[0] == "scan" {
                db.read_scan(txn, rect)
            } else {
                db.update_scan(txn, rect)
            }
            .map_err(txn_err)?;
            if hits.is_empty() {
                return Ok(Some("(empty)".into()));
            }
            let mut msg = String::new();
            for h in &hits {
                msg.push_str(&format!(
                    "{} [{:.3},{:.3}]-[{:.3},{:.3}] v{}\n",
                    h.oid, h.rect.lo[0], h.rect.lo[1], h.rect.hi[0], h.rect.hi[1], h.version
                ));
            }
            msg.push_str(&format!("{} objects", hits.len()));
            Ok(Some(msg))
        }
        "stats" if parts.get(1) == Some(&"--histograms") => {
            let snap = db.obs().snapshot();
            let mut msg = String::from(
                "histogram            count       mean        p50        p95        p99 (ns)\n",
            );
            for h in granular_rtree::obs::Hist::ALL {
                let s = snap.hist(h);
                msg.push_str(&format!(
                    "{:<20} {:>6} {:>10} {:>10} {:>10} {:>10}\n",
                    h.name(),
                    s.count,
                    s.mean(),
                    s.p50(),
                    s.p95(),
                    s.p99()
                ));
            }
            msg.push_str("counters:");
            for c in granular_rtree::obs::Ctr::ALL {
                msg.push_str(&format!(" {}={}", c.name(), snap.ctr(c)));
            }
            msg.push_str("\n(quantiles are log2-bucket upper bounds)");
            Ok(Some(msg))
        }
        "stats" => {
            // Every number below is read from the registry and labelled
            // with the registry's metric name — the names `connect`
            // mode's `stats` (the server's Prometheus dump) shows for
            // the same facts. Only `objects` and `txns_active` are live
            // state rather than metrics.
            use granular_rtree::obs::{Ctr, Hist};
            let snap = db.obs().snapshot();
            let ctrs = |list: &[Ctr]| {
                list.iter()
                    .map(|c| format!("{}={}", c.name(), snap.ctr(*c)))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            Ok(Some(format!(
                "objects={} txns_active={}\n\
                 txns: {}\n\
                 locks: {} {}_count={}\n\
                 ops: {}\n\
                 retries: {}\n\
                 maintenance: {}\n\
                 commit: {}_count={} mean={}µs",
                db.len(),
                db.active_txns(),
                ctrs(&[Ctr::TxnsStarted, Ctr::TxnsCommitted, Ctr::TxnsAborted]),
                ctrs(&[Ctr::LockReqShort, Ctr::LockReqCommit, Ctr::LockDeadlocks]),
                Hist::LockWait.name(),
                snap.hist(Hist::LockWait).count,
                ctrs(&[
                    Ctr::Inserts,
                    Ctr::Deletes,
                    Ctr::ReadSingles,
                    Ctr::UpdateSingles,
                    Ctr::ReadScans,
                    Ctr::UpdateScans,
                ]),
                ctrs(&[Ctr::OpRetries, Ctr::ExecRetries]),
                ctrs(&[Ctr::MaintCompleted, Ctr::MaintFailed]),
                Hist::Commit.name(),
                snap.hist(Hist::Commit).count,
                snap.hist(Hist::Commit).mean() / 1_000,
            )))
        }
        "tree" => Ok(Some(db.with_tree(|t| {
            let leaves = t.pages().filter(|(_, n)| n.is_leaf()).count();
            format!(
                "height {} | {} pages ({} leaf granules, {} external granules) | {} objects",
                t.height(),
                t.pages().count(),
                leaves,
                t.pages().count() - leaves,
                t.len()
            )
        }))),
        "granules" => Ok(Some(db.with_tree(|t| {
            let mut msg = String::new();
            for (pid, node) in t.pages().filter(|(_, n)| n.is_leaf()) {
                match node.mbr() {
                    Some(m) => msg.push_str(&format!(
                        "{pid}: [{:.3},{:.3}]-[{:.3},{:.3}] ({} objects)\n",
                        m.lo[0],
                        m.lo[1],
                        m.hi[0],
                        m.hi[1],
                        node.entries.len()
                    )),
                    None => msg.push_str(&format!("{pid}: (empty)\n")),
                }
            }
            msg.push_str("(non-leaf pages carry the external granules)");
            msg
        }))),
        "open" => {
            let dir = parts.get(1).ok_or("usage: open <dir>")?;
            if db.active_txns() > 0 {
                return Err("cannot open with active transactions".into());
            }
            *db = DglRTree::open(std::path::Path::new(dir), config()).map_err(|e| e.to_string())?;
            Ok(Some(format!(
                "opened {dir} ({} objects); commits are now write-ahead logged",
                db.len()
            )))
        }
        "recover" => {
            let dir = parts.get(1).ok_or("usage: recover <dir>")?;
            if db.active_txns() > 0 {
                return Err("cannot recover with active transactions".into());
            }
            *db = DglRTree::recover(std::path::Path::new(dir), config())
                .map_err(|e| e.to_string())?;
            let replay = db
                .obs()
                .snapshot()
                .hist(granular_rtree::obs::Hist::WalReplay)
                .sum;
            Ok(Some(format!(
                "recovered {dir}: {} objects (log replay took {}µs)",
                db.len(),
                replay / 1_000
            )))
        }
        "checkpoint" => {
            if !db.is_durable() {
                return Err("no write-ahead log attached — `open <dir>` first".into());
            }
            db.checkpoint().map_err(|e| e.to_string())?;
            Ok(Some("ok (snapshot written, log truncated)".into()))
        }
        "locktable" if parts.get(1) == Some(&"--merged") => {
            // What a request about to block reasons over: grants, wait
            // queues and every transaction's record (where it waits,
            // whether it is a system operation). On the sharded router
            // the same dump renders every shard's table.
            let dump = db.merged_locktable_dump();
            if dump.trim().is_empty() {
                return Ok(Some("(no locks held or queued)".into()));
            }
            Ok(Some(dump.trim_end().into()))
        }
        "locktable" => {
            let table = db.lock_manager().table_snapshot();
            if table.is_empty() {
                return Ok(Some("(no locks held or queued)".into()));
            }
            let mut msg = String::new();
            for e in &table {
                msg.push_str(&format!("{}:", granular_rtree::lockmgr::obs_res(e.res)));
                for g in &e.grants {
                    let dur = match (g.commit_mode, g.short_mode) {
                        (Some(_), Some(_)) => "commit+short",
                        (Some(_), None) => "commit",
                        _ => "short",
                    };
                    msg.push_str(&format!(" {}:{}({})", g.txn, g.mode.name(), dur));
                }
                if !e.waiters.is_empty() {
                    msg.push_str(" | waiting:");
                    for w in &e.waiters {
                        msg.push_str(&format!(
                            " {}:{}{}",
                            w.txn,
                            w.mode.name(),
                            if w.conversion { "(conv)" } else { "" }
                        ));
                    }
                }
                msg.push('\n');
            }
            msg.push_str(&format!("{} resources", table.len()));
            Ok(Some(msg))
        }
        "quiesce" => {
            db.quiesce().map_err(|e| e.to_string())?;
            Ok(Some("ok (every deferred deletion applied)".into()))
        }
        other => Err(format!("unknown command {other:?}; try `help`")),
    }
}

const HELP: &str = r#"
commands:
  begin                                  start a transaction (prints its id)
  insert <txn> <oid> x0 y0 x1 y1         insert an object
  delete <txn> <oid> x0 y0 x1 y1         delete (logical until commit)
  read   <txn> <oid> x0 y0 x1 y1         point read (payload version)
  update <txn> <oid> x0 y0 x1 y1         bump an object's version
  scan   <txn> x0 y0 x1 y1               phantom-protected region scan
  update-scan <txn> x0 y0 x1 y1          scan + update every hit
  commit <txn> | abort <txn>             finish a transaction
  get <oid>                              hash-index point read (no txn, no rect)
  stats | tree | granules                introspection
  stats --histograms                     latency histograms + obs counters
  locktable                              live lock table (grants and waiters)
  locktable --merged                     raw tables + per-transaction wait records
                                         (lock table + wait-for edges)
  quiesce                                report a dropped deferred deletion, if any
  open <dir>                             durable index: WAL + checkpoints in <dir>
  checkpoint                             snapshot the open dir, truncate its log
  recover <dir>                          rebuild from snapshot + committed log tail
  quit
locks that cannot be granted within 1s roll the transaction back (timeout).
a commit runs its physical deletions before returning: finish any scanner
whose locks cover a deleted object first, or the commit waits for it.
start with `connect <addr>` to drive a running dgl-server over the wire.
"#;
