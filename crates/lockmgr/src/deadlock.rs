//! Waits-for-graph deadlock detection: the one cycle search and the one
//! victim rule of the workspace.
//!
//! The graph is derived from the lock table on demand (when a transaction
//! is about to block) rather than maintained incrementally: edges go from
//! each waiter to (a) every holder whose granted mode is incompatible with
//! the waiter's requested mode and (b) every waiter queued ahead of it,
//! because grants are FIFO — a waiter cannot be granted before those ahead
//! of it, so those edges represent real waiting under our grant policy
//! ([`LockManager::wait_edges`](crate::LockManager::wait_edges) is the one
//! place that rule is written).
//!
//! Every cycle is refused synchronously: the
//! [`LockManager`](crate::LockManager) whose request is about to block
//! searches for a cycle through the requester over the edges of every
//! table in its [`WaitDomain`](crate::WaitDomain) — a [`TxnId`] names the
//! same transaction in all of them, so a cycle that crosses tables (the
//! shards of a sharded index) is an ordinary cycle — and aborts the
//! youngest (highest-id) non-system member: ordinary transactions can
//! always be rolled back and retried, while the protocol's post-commit
//! system operations cannot and are spared unless the whole cycle is
//! system work. The manager's wait timeout is the single backstop behind
//! it.

use std::collections::{HashMap, HashSet};

use crate::TxnId;

/// A snapshot waits-for graph over the one transaction identity.
#[derive(Debug, Default)]
pub(crate) struct WaitForGraph {
    /// Successors in insertion order, so a search over the same edges
    /// explores — and therefore answers — the same way every time.
    edges: HashMap<TxnId, Vec<TxnId>>,
}

impl WaitForGraph {
    /// An empty graph.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds an edge `waiter → holder` (ignoring self-edges, which arise
    /// when a transaction converts its own lock, and repeats).
    pub(crate) fn add_edge(&mut self, waiter: TxnId, holder: TxnId) {
        if waiter == holder {
            return;
        }
        let succ = self.edges.entry(waiter).or_default();
        if !succ.contains(&holder) {
            succ.push(holder);
        }
    }

    /// Whether a cycle through `start` exists.
    #[cfg(test)]
    pub(crate) fn has_cycle_through(&self, start: TxnId) -> bool {
        self.cycle_through(start).is_some()
    }

    /// Finds a cycle through `start`, returning its members in wait order
    /// (`start` first; each member waits for the next, the last for
    /// `start`), or `None`.
    pub(crate) fn cycle_through(&self, start: TxnId) -> Option<Vec<TxnId>> {
        // Iterative DFS from start keeping the current path; a path edge
        // back to start closes a cycle through it.
        let mut path: Vec<TxnId> = vec![start];
        // Per path frame: the next successor to try.
        let mut cursor: Vec<usize> = vec![0];
        let mut visited: HashSet<TxnId> = HashSet::from([start]);
        while let Some(node) = path.last() {
            let depth = path.len() - 1;
            let succ = self.edges.get(node).map_or(&[][..], Vec::as_slice);
            match succ.get(cursor[depth]) {
                Some(&next) if next == start => return Some(path),
                Some(&next) => {
                    cursor[depth] += 1;
                    if visited.insert(next) {
                        path.push(next);
                        cursor.push(0);
                    }
                }
                None => {
                    path.pop();
                    cursor.pop();
                }
            }
        }
        None
    }

    #[cfg(test)]
    pub(crate) fn edge_count(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }
}

/// The victim rule: the youngest (highest-id) cycle member that is *not*
/// a system transaction — system operations (the protocol's post-commit
/// deferred deletions) cannot be rolled back — falling back to the
/// youngest member when every one is a system transaction.
///
/// `members` must be non-empty (a cycle has at least two members; a
/// self-edge is filtered out before detection).
pub(crate) fn select_victim(members: &[TxnId], system: &HashSet<TxnId>) -> TxnId {
    members
        .iter()
        .copied()
        .filter(|t| !system.contains(t))
        .max()
        .or_else(|| members.iter().copied().max())
        .expect("cycle is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    #[test]
    fn two_cycle_detected() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(1));
        assert!(g.has_cycle_through(t(1)));
        assert!(g.has_cycle_through(t(2)));
    }

    #[test]
    fn chain_is_not_a_cycle() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(3));
        assert!(!g.has_cycle_through(t(1)));
        assert!(!g.has_cycle_through(t(3)));
    }

    #[test]
    fn long_cycle_detected_only_through_members() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(3));
        g.add_edge(t(3), t(4));
        g.add_edge(t(4), t(2)); // cycle 2→3→4→2, excludes 1
        assert!(
            !g.has_cycle_through(t(1)),
            "1 feeds the cycle but is not in it"
        );
        assert!(g.has_cycle_through(t(2)));
        assert!(g.has_cycle_through(t(3)));
        assert!(g.has_cycle_through(t(4)));
    }

    #[test]
    fn self_edges_are_ignored() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(1));
        assert_eq!(g.edge_count(), 0);
        assert!(!g.has_cycle_through(t(1)));
    }

    #[test]
    fn diamond_without_back_edge_is_acyclic() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(2));
        g.add_edge(t(1), t(3));
        g.add_edge(t(2), t(4));
        g.add_edge(t(3), t(4));
        for n in 1..=4 {
            assert!(!g.has_cycle_through(t(n)));
        }
    }

    #[test]
    fn victim_is_youngest_non_system() {
        let system: HashSet<TxnId> = [t(9)].into_iter().collect();
        assert_eq!(select_victim(&[t(3), t(9), t(5)], &system), t(5));
        // All-system cycle: the youngest system member goes.
        let all: HashSet<TxnId> = [t(3), t(9), t(5)].into_iter().collect();
        assert_eq!(select_victim(&[t(3), t(9), t(5)], &all), t(9));
    }

    #[test]
    fn cycle_through_reports_members_in_wait_order() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(4), t(9)); // feeds the cycle, not in it
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(3));
        g.add_edge(t(3), t(1));
        let cycle = g.cycle_through(t(2)).expect("three-node cycle");
        assert_eq!(
            cycle,
            [t(2), t(3), t(1)],
            "start first, each waits for the next"
        );
    }
}

/// Property tests regression-pinning the documented victim policy:
/// random waits-for cycles mixing user and system transactions must
/// always sacrifice the youngest non-system member, and must never
/// sacrifice a system operation unless the cycle is all-system.
#[cfg(test)]
mod victim_props {
    use super::*;
    use proptest::prelude::*;

    /// A candidate cycle member: transaction id + system flag.
    fn arb_member() -> impl Strategy<Value = (u64, bool)> {
        (1..200u64, prop::bool::ANY)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn youngest_non_system_is_always_picked(
            members in prop::collection::vec(arb_member(), 2..10)
        ) {
            // Dedup ids (a cycle lists each transaction once); the system
            // flag of the first occurrence wins.
            let mut seen = std::collections::HashSet::new();
            let members: Vec<(u64, bool)> = members
                .into_iter()
                .filter(|(id, _)| seen.insert(*id))
                .collect();
            let ids: Vec<TxnId> = members.iter().map(|(id, _)| TxnId(*id)).collect();
            let system: HashSet<TxnId> = members
                .iter()
                .filter(|(_, sys)| *sys)
                .map(|(id, _)| TxnId(*id))
                .collect();

            let victim = select_victim(&ids, &system);
            prop_assert!(ids.contains(&victim), "victim is a cycle member");

            let user_max = ids.iter().copied().filter(|t| !system.contains(t)).max();
            match user_max {
                Some(expect) => {
                    prop_assert_eq!(victim, expect, "youngest non-system member");
                    prop_assert!(
                        !system.contains(&victim),
                        "a system op was sacrificed while user members existed"
                    );
                }
                None => {
                    // All-system cycle: youngest of the whole cycle.
                    let expect = ids.iter().copied().max().unwrap();
                    prop_assert_eq!(victim, expect);
                }
            }
        }

        #[test]
        fn selection_agrees_with_detected_cycles(
            cycle in prop::collection::vec(arb_member(), 2..8),
            chords in prop::collection::vec((0..8usize, 0..8usize), 0..6)
        ) {
            // Build an explicit ring through distinct ids, add random
            // chord edges, and check the victim for the *detected* cycle
            // (which may be a chord short-circuit of the ring).
            let mut seen = std::collections::HashSet::new();
            let cycle: Vec<(u64, bool)> = cycle
                .into_iter()
                .filter(|(id, _)| seen.insert(*id))
                .collect();
            if cycle.len() < 2 {
                return Ok(());
            }
            let ids: Vec<TxnId> = cycle.iter().map(|(id, _)| TxnId(*id)).collect();
            let system: HashSet<TxnId> = cycle
                .iter()
                .filter(|(_, sys)| *sys)
                .map(|(id, _)| TxnId(*id))
                .collect();
            let mut g = WaitForGraph::new();
            for w in ids.windows(2) {
                g.add_edge(w[0], w[1]);
            }
            g.add_edge(*ids.last().unwrap(), ids[0]);
            for (a, b) in chords {
                g.add_edge(ids[a % ids.len()], ids[b % ids.len()]);
            }

            let members = g.cycle_through(ids[0]).expect("ring closes a cycle");
            let victim = select_victim(&members, &system);
            let has_user = members.iter().any(|t| !system.contains(t));
            prop_assert_eq!(
                system.contains(&victim),
                !has_user,
                "system victim chosen iff the cycle is all-system"
            );
            prop_assert_eq!(
                victim,
                members
                    .iter()
                    .copied()
                    .filter(|t| !system.contains(t) || !has_user)
                    .max()
                    .unwrap(),
                "victim is the youngest eligible member"
            );
        }
    }
}
