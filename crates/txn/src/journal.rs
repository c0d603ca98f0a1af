use std::collections::HashMap;

use parking_lot::Mutex;

use dgl_lockmgr::{MixBuild, TxnId};

/// A per-transaction record queue.
///
/// The protocol layer instantiates one journal for undo records (consumed
/// in reverse order on abort) and one for deferred deletions (consumed in
/// order at commit). Records are pushed by the owning transaction's thread
/// and taken exactly once at termination.
#[derive(Debug)]
pub struct Journal<R> {
    records: Mutex<HashMap<TxnId, Vec<R>, MixBuild>>,
}

impl<R> Default for Journal<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> Journal<R> {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self {
            records: Mutex::new(HashMap::with_hasher(MixBuild::seeded())),
        }
    }

    /// Appends a record for `txn`.
    pub fn push(&self, txn: TxnId, record: R) {
        self.records.lock().entry(txn).or_default().push(record);
    }

    /// Removes and returns all records of `txn` in insertion order.
    pub fn take(&self, txn: TxnId) -> Vec<R> {
        self.records.lock().remove(&txn).unwrap_or_default()
    }

    /// Removes and returns all records of `txn` in reverse insertion order
    /// (undo order).
    pub fn take_reversed(&self, txn: TxnId) -> Vec<R> {
        let mut v = self.take(txn);
        v.reverse();
        v
    }

    /// Number of records currently queued for `txn`.
    pub fn len(&self, txn: TxnId) -> usize {
        self.records.lock().get(&txn).map_or(0, Vec::len)
    }

    /// Whether `txn` has no queued records.
    pub fn is_empty(&self, txn: TxnId) -> bool {
        self.len(txn) == 0
    }

    /// Total number of transactions with queued records (leak check).
    pub fn transactions(&self) -> usize {
        self.records.lock().len()
    }

    /// Runs `f` over `txn`'s queued records without consuming them
    /// (peek — e.g. to decide whether an abort needs the tree latch
    /// before committing to taking the records).
    pub fn with_records<T>(&self, txn: TxnId, f: impl FnOnce(&[R]) -> T) -> T {
        f(self
            .records
            .lock()
            .get(&txn)
            .map_or(&[] as &[R], Vec::as_slice))
    }
}

impl<R: Clone> Journal<R> {
    /// Clones every transaction's queue (checkpoint image capture). The
    /// caller is responsible for ordering this against concurrent
    /// `take`s — the snapshot is atomic per the journal's one lock, but
    /// says nothing about records in flight outside it.
    pub fn snapshot_all(&self) -> Vec<(TxnId, Vec<R>)> {
        self.records
            .lock()
            .iter()
            .map(|(t, v)| (*t, v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);

    #[test]
    fn push_take_preserves_order() {
        let j = Journal::new();
        j.push(T1, "a");
        j.push(T1, "b");
        j.push(T2, "x");
        assert_eq!(j.take(T1), vec!["a", "b"]);
        assert_eq!(j.take(T2), vec!["x"]);
        assert!(j.take(T1).is_empty(), "take drains");
    }

    #[test]
    fn take_reversed_for_undo() {
        let j = Journal::new();
        for i in 0..5 {
            j.push(T1, i);
        }
        assert_eq!(j.take_reversed(T1), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn len_and_leak_accounting() {
        let j = Journal::new();
        assert!(j.is_empty(T1));
        j.push(T1, ());
        j.push(T1, ());
        assert_eq!(j.len(T1), 2);
        assert_eq!(j.transactions(), 1);
        j.take(T1);
        assert_eq!(j.transactions(), 0);
    }
}
