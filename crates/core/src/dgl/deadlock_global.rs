//! The detector thread: cycles that leave one lock table, and the stall
//! watchdog.
//!
//! What breaks a lock cycle is one policy (DESIGN.md §12 has the table):
//! a cycle inside one lock table is refused by that `LockManager` at block
//! time; a cycle that leaves one table is wounded here; the lock-wait
//! timeout backstops both; the watchdog only reports. A cycle leaves a
//! table only across shards: T1 holds a granule on shard A and waits on
//! shard B while T2 holds B and waits on A. Each shard sees one edge of
//! the cycle; neither sees a cycle. (Every wait in the system is a
//! lock-manager wait — snapshot reads wait for nobody, and the
//! system-operation gate is private to system operations and checkpoints
//! — so there is no other kind of edge to union.)
//!
//! [`GlobalDetector`] owns a background thread that periodically unions
//! every source into one [`WaitForGraph`]:
//!
//! * `LockManager::wait_edges()` from every shard (waiter → each
//!   transaction it cannot be granted before);
//! * 2PC session identity from the router: per-shard participant ids of
//!   one global transaction collapse into a single `Key::Global` node
//!   (including sessions mid-commit, whose participant union must stay
//!   visible while `commit_parts` runs).
//!
//! The cycle search and the youngest-non-system victim rule are the lock
//! manager's (`dgl_lockmgr::{WaitForGraph, youngest_non_system}`); what is
//! decided here is the node identity and its rank ([`Key`]), the
//! *ownership rule* — only cycles whose edges span ≥ 2 shards are wounded,
//! because a single-table cycle already cost its lock manager a victim —
//! and [`WOUND_QUIET`]. A wound is `LockManager::cancel_and_poison`: it
//! unparks the victim's blocked `lock()` with a
//! [`LockOutcome::Deadlock`](dgl_lockmgr::LockOutcome) verdict (or marks
//! it for its next unconditional request). The victim rolls back through
//! the ordinary deadlock path; everyone else keeps waiting and is granted
//! moments later.
//!
//! Long lock waits with **no** cycle are not aborted: the stall watchdog
//! flags them (counter + event + an optional merged lock-table dump to the
//! file named by `DGL_WATCHDOG_DUMP`) and lets them keep waiting — a stall
//! is diagnosed, not punished with a spurious abort.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dgl_lockmgr::{obs_res, youngest_non_system, TxnId, WaitForGraph};
use dgl_obs::{Ctr, Event, Registry, Res};

use super::DglCore;

/// A wait past this with no deadlock cycle found is flagged by the stall
/// watchdog. Same value the router's old bounded-wait default used —
/// roughly 1000× a typical transaction — but crossing it now produces a
/// diagnostic, not an abort.
pub(crate) const STALL_THRESHOLD: Duration = Duration::from_millis(50);

/// Detection pass cadence. A genuine deadlock therefore costs a few
/// milliseconds instead of the 10 s lock-manager backstop.
const DETECT_INTERVAL: Duration = Duration::from_millis(2);

/// A wounded victim suppresses re-wounding of cycles it appears in for
/// this long — the time it takes a victim to observe its verdict and
/// roll back, so a lingering cycle snapshot cannot claim a second
/// victim.
const WOUND_QUIET: Duration = Duration::from_millis(100);

/// Minimum gap between watchdog flags for one stalled waiter.
const STALL_REFLAG: Duration = Duration::from_secs(1);

/// Per-global-transaction participant vector, mirrored from the router
/// (`shard index → local participant id`).
pub(crate) type SessionMap = HashMap<u64, Vec<Option<TxnId>>>;

/// Participants of global transactions currently inside `commit_parts`
/// (their session entry is already removed, but their identity union
/// must survive until every participant finishes).
pub(crate) type CommittingMap = HashMap<u64, Vec<(usize, TxnId)>>;

/// Node identity in the unified graph: a global (router) transaction, or
/// a purely local one named by `(shard, txn)` — local ids collide across
/// shards, so the shard index is part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Global(u64),
    Local(usize, TxnId),
}

impl Key {
    /// Stable diagnostic label (also the `cycle` field of
    /// [`Event::DeadlockVictim`]).
    fn label(&self) -> String {
        match self {
            Key::Global(g) => format!("g:{g}"),
            Key::Local(s, t) => format!("s{s}:{}", t.0),
        }
    }

    /// The transaction id reported in events.
    fn txn_id(&self) -> u64 {
        match self {
            Key::Global(g) => *g,
            Key::Local(_, t) => t.0,
        }
    }

    /// Deterministic victim rank: higher = younger = preferred victim.
    /// Global ids and local ids are monotone within their own space;
    /// globals rank above locals so a cross-shard cycle wounds the
    /// global transaction (whose router retry loop is built for it).
    fn rank(&self) -> (u8, u64, usize) {
        match self {
            Key::Global(g) => (1, *g, 0),
            Key::Local(s, t) => (0, t.0, *s),
        }
    }
}

/// One wait seen by a pass, with its provenance.
struct Wait {
    from: Key,
    /// Whom it waits for: a grant holder or a waiter queued ahead.
    to: Key,
    res: Res,
    waited: Duration,
    /// The raw (shard, local id) of the waiter: the lock table the wait
    /// is on, and the watchdog's identity for it.
    raw_waiter: (usize, TxnId),
}

/// State shared between the detector thread and its handle.
struct Shared {
    shutdown: Mutex<bool>,
    cv: Condvar,
    cores: Vec<Arc<DglCore>>,
    sessions: Arc<Mutex<SessionMap>>,
    committing: Arc<Mutex<CommittingMap>>,
    /// Where victim/stall counters and events land: the router registry.
    obs: Arc<Registry>,
}

/// Cross-pass detector memory.
#[derive(Default)]
struct PassState {
    /// Victims wounded recently (pruned past [`WOUND_QUIET`]).
    wounded: HashMap<Key, Instant>,
    /// Last watchdog flag per stalled waiter (pruned when the wait
    /// resolves).
    stall_flagged: HashMap<(usize, TxnId), Instant>,
}

/// Handle owning the detector thread; dropping it shuts the thread down
/// and joins it.
pub(crate) struct GlobalDetector {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for GlobalDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalDetector")
            .field("cores", &self.shared.cores.len())
            .finish_non_exhaustive()
    }
}

impl GlobalDetector {
    /// Unified detector for a sharded index: every shard's lock edges,
    /// collapsed over the router's session identity.
    pub(crate) fn spawn(
        cores: Vec<Arc<DglCore>>,
        sessions: Arc<Mutex<SessionMap>>,
        committing: Arc<Mutex<CommittingMap>>,
        obs: Arc<Registry>,
    ) -> Self {
        let shared = Arc::new(Shared {
            shutdown: Mutex::new(false),
            cv: Condvar::new(),
            cores,
            sessions,
            committing,
            obs,
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("dgl-deadlock".into())
            .spawn(move || detector_loop(&thread_shared))
            .expect("spawn deadlock detector thread");
        Self {
            shared,
            handle: Some(handle),
        }
    }
}

impl Drop for GlobalDetector {
    fn drop(&mut self) {
        *self.shared.shutdown.lock() = true;
        self.shared.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn detector_loop(shared: &Shared) {
    let mut state = PassState::default();
    loop {
        {
            let mut guard = shared.shutdown.lock();
            if *guard {
                return;
            }
            shared
                .cv
                .wait_until(&mut guard, Instant::now() + DETECT_INTERVAL);
            if *guard {
                return;
            }
        }
        // Chaos hook: a Delay spec stalls the pass inside `eval`, an
        // Error spec skips it entirely — either way waits survive (and
        // eventually trip the watchdog) rather than misfiring a wound.
        if dgl_faults::fired!("deadlock/detector-stall") {
            continue;
        }
        run_pass(shared, &mut state);
    }
}

/// One detection pass: snapshot, union, find cycles, wound, watchdog.
fn run_pass(shared: &Shared, state: &mut PassState) {
    let now = Instant::now();
    state
        .wounded
        .retain(|_, at| now.saturating_duration_since(*at) < WOUND_QUIET);

    // Cheap skip: nothing is waiting anywhere.
    if shared.cores.iter().all(|c| c.lm.waiter_count() == 0) {
        state.stall_flagged.clear();
        return;
    }

    let (alias, global_parts) = session_identity(shared);
    let canon = |s: usize, t: TxnId| -> Key {
        match alias.get(&(s, t)) {
            Some(g) => Key::Global(*g),
            None => Key::Local(s, t),
        }
    };

    let mut waits: Vec<Wait> = Vec::new();
    for (i, core) in shared.cores.iter().enumerate() {
        for e in core.lm.wait_edges() {
            waits.push(Wait {
                from: canon(i, e.waiter),
                to: canon(i, e.holder),
                res: obs_res(e.res),
                waited: e.waited,
                raw_waiter: (i, e.waiter),
            });
        }
    }

    // The graph + per-pair provenance: the shards an edge was seen on
    // (self-edges from session collapse — one participant of a global txn
    // behind another — are not waits).
    let mut graph: WaitForGraph<Key> = WaitForGraph::new();
    let mut prov: HashMap<(Key, Key), HashSet<usize>> = HashMap::new();
    for w in waits.iter().filter(|w| w.to != w.from) {
        prov.entry((w.from, w.to))
            .or_default()
            .insert(w.raw_waiter.0);
        graph.add_edge(w.from, w.to);
    }

    let is_system = |k: &Key| match k {
        Key::Global(_) => false,
        Key::Local(s, t) => shared.cores[*s].lm.is_system(*t),
    };
    let mut cycle_members: HashSet<Key> = HashSet::new();
    // Bounded like the lock manager's resolver: each iteration finds at
    // most one cycle and wounds at most one victim.
    for _ in 0..8 {
        let Some(cycle) = graph.find_cycle(Key::rank) else {
            break;
        };
        cycle_members.extend(cycle.iter().copied());

        let mut shards_involved: HashSet<usize> = HashSet::new();
        for (i, k) in cycle.iter().enumerate() {
            let next = cycle[(i + 1) % cycle.len()];
            if let Some(shards) = prov.get(&(*k, next)) {
                shards_involved.extend(shards.iter().copied());
            }
        }
        // Ownership rule: a single-shard cycle belongs to that shard's
        // lock manager (it refuses the same cycle at block time, and
        // wounding here too would claim a second victim). This thread
        // resolves only what no lock table can: multi-shard cycles.
        let ours = shards_involved.len() >= 2;
        let recently_wounded = cycle.iter().any(|k| state.wounded.contains_key(k));
        // Not ours, quieted, or all-system (then nothing is wounded: system
        // operations always make progress once user locks clear): set the
        // first member aside in our *model* so the next iteration can look
        // for further cycles.
        let mut aside = cycle[0];
        if ours && !recently_wounded {
            if let Some(victim) = youngest_non_system(&cycle, Key::rank, is_system) {
                wound(shared, victim, &cycle, &global_parts);
                state.wounded.insert(victim, Instant::now());
                aside = victim;
            }
        }
        graph.remove(&aside);
    }

    watchdog(shared, state, &waits, &cycle_members);
}

/// Builds the session identity maps: `(shard, local txn) → gtxn` and its
/// reverse `gtxn → participants`. Sessions mid-commit are included.
#[allow(clippy::type_complexity)]
fn session_identity(
    shared: &Shared,
) -> (
    HashMap<(usize, TxnId), u64>,
    HashMap<u64, Vec<(usize, TxnId)>>,
) {
    let mut alias = HashMap::new();
    let mut parts_of: HashMap<u64, Vec<(usize, TxnId)>> = HashMap::new();
    for (g, parts) in shared.sessions.lock().iter() {
        for (s, t) in parts.iter().enumerate() {
            if let Some(t) = t {
                alias.insert((s, *t), *g);
                parts_of.entry(*g).or_default().push((s, *t));
            }
        }
    }
    for (g, parts) in shared.committing.lock().iter() {
        for &(s, t) in parts {
            alias.insert((s, t), *g);
            parts_of.entry(*g).or_default().push((s, t));
        }
    }
    (alias, parts_of)
}

/// Delivers the wound: poisons (and cancels any parked wait of) every
/// local participant of the victim, bumps the counter and emits the
/// victim event with the full cycle as evidence.
fn wound(
    shared: &Shared,
    victim: Key,
    cycle: &[Key],
    global_parts: &HashMap<u64, Vec<(usize, TxnId)>>,
) {
    match victim {
        Key::Global(g) => {
            for &(s, t) in global_parts.get(&g).map(Vec::as_slice).unwrap_or(&[]) {
                shared.cores[s].lm.cancel_and_poison(t);
            }
        }
        Key::Local(s, t) => {
            shared.cores[s].lm.cancel_and_poison(t);
        }
    }
    shared.obs.incr(Ctr::GlobalDeadlocks);
    shared.obs.emit(Event::DeadlockVictim {
        txn: victim.txn_id(),
        cycle: cycle.iter().map(Key::label).collect(),
    });
}

/// Stall watchdog: lock waits past [`STALL_THRESHOLD`] that are not part
/// of any cycle found this pass are *reported*:
/// counter, event, and an appended merged lock-table dump when
/// `DGL_WATCHDOG_DUMP` names a file — and left to wait. Nobody is aborted:
/// a slow-but-innocent wait must not become a spurious `Timeout`.
fn watchdog(shared: &Shared, state: &mut PassState, waits: &[Wait], in_cycle: &HashSet<Key>) {
    let now = Instant::now();
    let mut still_waiting: HashSet<(usize, TxnId)> = HashSet::new();
    for w in waits {
        still_waiting.insert(w.raw_waiter);
        if w.waited < STALL_THRESHOLD || in_cycle.contains(&w.from) {
            continue;
        }
        let last = state.stall_flagged.get(&w.raw_waiter);
        if last.is_some_and(|at| now.saturating_duration_since(*at) < STALL_REFLAG) {
            continue;
        }
        state.stall_flagged.insert(w.raw_waiter, now);
        shared.obs.incr(Ctr::WatchdogStalls);
        shared.obs.emit(Event::WatchdogStall {
            txn: w.from.txn_id(),
            res: w.res,
            wait_nanos: w.waited.as_nanos() as u64,
        });
        if let Ok(path) = std::env::var("DGL_WATCHDOG_DUMP") {
            if !path.is_empty() {
                let dump = format!(
                    "=== watchdog stall: {} waited {:?} on {} ===\n{}",
                    w.from.label(),
                    w.waited,
                    w.res,
                    merged_dump(shared)
                );
                let _ = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .and_then(|mut f| std::io::Write::write_all(&mut f, dump.as_bytes()));
            }
        }
    }
    state.stall_flagged.retain(|w, _| still_waiting.contains(w));
}

/// Renders the union the detector reasons over: every shard's lock table
/// and wait-for edges, and the session identity map. Shared by the
/// watchdog dump and the shell's `locktable --merged`.
fn merged_dump(shared: &Shared) -> String {
    render_merged(
        &shared.cores,
        shared.sessions.lock().clone(),
        shared.committing.lock().clone(),
    )
}

/// Textual merged wait-state dump over `cores` with session identities
/// annotated (see [`merged_dump`]).
pub(crate) fn render_merged(
    cores: &[Arc<DglCore>],
    sessions: SessionMap,
    committing: CommittingMap,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (i, core) in cores.iter().enumerate() {
        let _ = writeln!(out, "shard {i}:");
        let mut entries = core.lm.table_snapshot();
        entries.sort_by_key(|e| format!("{}", e.res));
        for e in entries {
            let _ = write!(out, "  {}: granted[", e.res);
            for g in &e.grants {
                let _ = write!(out, " {}:{}", g.txn, g.mode);
            }
            let _ = write!(out, " ] waiting[");
            for w in &e.waiters {
                let _ = write!(
                    out,
                    " {}:{}{}",
                    w.txn,
                    w.mode,
                    if w.conversion { "(conv)" } else { "" }
                );
            }
            let _ = writeln!(out, " ]");
        }
        for e in core.lm.wait_edges() {
            let _ = writeln!(
                out,
                "  wait-for: {} -> {} on {} ({:?}{})",
                e.waiter,
                e.holder,
                e.res,
                e.waited,
                if e.waiter_system { ", system" } else { "" }
            );
        }
    }
    let mut globals: Vec<(u64, Vec<String>)> = sessions
        .iter()
        .map(|(g, parts)| {
            (
                *g,
                parts
                    .iter()
                    .enumerate()
                    .filter_map(|(s, t)| t.map(|t| format!("s{s}:{}", t.0)))
                    .collect(),
            )
        })
        .chain(committing.iter().map(|(g, parts)| {
            (
                *g,
                parts
                    .iter()
                    .map(|(s, t)| format!("s{s}:{} (committing)", t.0))
                    .collect(),
            )
        }))
        .collect();
    globals.sort_by_key(|(g, _)| *g);
    for (g, parts) in globals {
        let _ = writeln!(out, "session g:{g} -> {parts:?}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_rank_prefers_youngest_and_globals() {
        let members = [
            Key::Local(0, TxnId(5)),
            Key::Local(1, TxnId(9)),
            Key::Global(2),
        ];
        let victim = members.iter().max_by_key(|k| k.rank()).unwrap();
        assert_eq!(*victim, Key::Global(2), "globals outrank locals");
        let locals = [Key::Local(0, TxnId(5)), Key::Local(1, TxnId(9))];
        let victim = locals.iter().max_by_key(|k| k.rank()).unwrap();
        assert_eq!(*victim, Key::Local(1, TxnId(9)), "youngest local");
    }
}
