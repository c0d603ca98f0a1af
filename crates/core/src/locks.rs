//! Lock-list assembly and acquisition helpers shared by the protocols.

use dgl_lockmgr::{LockDuration, LockManager, LockMode, ResourceId, TxnId};

/// One requirement: `(resource, commit duration?)` → mode.
type Want = ((ResourceId, bool), LockMode);

/// Requirements kept on the stack; an operation that needs more spills to
/// the heap. Point operations need one, an insert a handful, and a ~50-hit
/// scan about seven — often more than eight.
const INLINE: usize = 16;

/// A deduplicated list of lock requirements for one operation attempt.
///
/// Requirements on the same `(resource, duration)` merge by mode supremum;
/// requests are issued in resource order for determinism.
#[derive(Debug)]
pub(crate) struct LockList {
    /// Sorted by key: `inline[..len]`, or all of `spill` once it is in use.
    inline: [Want; INLINE],
    len: usize,
    spill: Vec<Want>,
}

impl LockList {
    pub fn new() -> Self {
        Self {
            inline: [((ResourceId::Tree, false), LockMode::IS); INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn wants(&self) -> &[Want] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    pub fn add(&mut self, res: ResourceId, mode: LockMode, dur: LockDuration) {
        let key = (res, dur == LockDuration::Commit);
        match self.wants().binary_search_by_key(&key, |w| w.0) {
            Ok(at) => {
                let held = if self.spill.is_empty() {
                    &mut self.inline[at].1
                } else {
                    &mut self.spill[at].1
                };
                *held = held.supremum(mode);
            }
            Err(at) if self.spill.is_empty() && self.len < INLINE => {
                self.inline.copy_within(at..self.len, at + 1);
                self.inline[at] = (key, mode);
                self.len += 1;
            }
            Err(at) => {
                if self.spill.is_empty() {
                    self.spill = self.inline.to_vec();
                }
                self.spill.insert(at, (key, mode));
            }
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.wants().len()
    }

    /// Iterates `(resource, mode, duration)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, LockMode, LockDuration)> + '_ {
        self.wants().iter().map(|((res, commit), mode)| {
            let dur = if *commit {
                LockDuration::Commit
            } else {
                LockDuration::Short
            };
            (*res, *mode, dur)
        })
    }

    /// Conditionally acquires every lock, in one lock-table call. On the
    /// first failure, returns the failed requirement so the caller can drop
    /// its latch and wait unconditionally. Already-acquired locks are kept
    /// (they will be re-requested as no-ops on retry; releasing
    /// mid-transaction would break two-phase locking).
    pub fn try_acquire(
        &self,
        lm: &LockManager,
        txn: TxnId,
    ) -> Result<(), (ResourceId, LockMode, LockDuration)> {
        lm.try_lock_all(txn, self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgl_lockmgr::LockManagerConfig;
    use dgl_pager::PageId;
    use LockDuration::{Commit, Short};
    use LockMode::*;

    fn page(n: u64) -> ResourceId {
        ResourceId::Page(PageId(n))
    }

    #[test]
    fn duplicate_requirements_merge_by_supremum() {
        let mut l = LockList::new();
        l.add(page(1), IX, Commit);
        l.add(page(1), S, Commit);
        l.add(page(1), IX, Short);
        assert_eq!(l.len(), 2, "commit and short slots stay distinct");
        let reqs: Vec<_> = l.iter().collect();
        assert!(reqs.contains(&(page(1), SIX, Commit)), "IX+S merges to SIX");
        assert!(reqs.contains(&(page(1), IX, Short)));
    }

    #[test]
    fn a_list_longer_than_the_inline_buffer_stays_sorted_and_merged() {
        let mut l = LockList::new();
        // Descending, so every add shifts; 30 > INLINE forces the spill.
        for n in (0..30).rev() {
            l.add(page(n), IX, Commit);
        }
        l.add(page(3), S, Commit); // merges after the spill
        l.add(ResourceId::Object(1), X, Commit);
        assert_eq!(l.len(), 31);
        let reqs: Vec<_> = l.iter().collect();
        assert!(reqs.windows(2).all(|w| w[0].0 < w[1].0), "canonical order");
        assert_eq!(reqs[3], (page(3), SIX, Commit));
        assert_eq!(reqs[30], (ResourceId::Object(1), X, Commit));
    }

    #[test]
    fn try_acquire_reports_first_conflict() {
        let lm = LockManager::new(LockManagerConfig::default());
        // T9 holds S on page 2.
        let mut held = LockList::new();
        held.add(page(2), S, Commit);
        held.try_acquire(&lm, TxnId(9)).unwrap();
        let mut l = LockList::new();
        l.add(page(1), IX, Commit);
        l.add(page(2), IX, Short);
        l.add(page(3), IX, Short);
        let err = l.try_acquire(&lm, TxnId(1)).unwrap_err();
        assert_eq!(err.0, page(2));
        // Page 1 was acquired before the failure and is kept.
        assert_eq!(lm.held(TxnId(1), page(1)), Some(IX));
        assert_eq!(lm.held(TxnId(1), page(3)), None);
    }

    #[test]
    fn try_acquire_all_grantable_succeeds() {
        let lm = LockManager::new(LockManagerConfig::default());
        let mut l = LockList::new();
        l.add(page(1), SIX, Short);
        l.add(ResourceId::Object(5), X, Commit);
        assert!(l.try_acquire(&lm, TxnId(1)).is_ok());
        assert_eq!(lm.held(TxnId(1), page(1)), Some(SIX));
        assert_eq!(lm.held(TxnId(1), ResourceId::Object(5)), Some(X));
    }
}
