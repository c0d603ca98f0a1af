use std::fmt;

use crate::stats::IoStats;

/// A physical page identifier.
///
/// Page ids are stable for the lifetime of a page and are reused only after
/// the page is freed. They double as lock resource ids in the granular
/// locking protocol: a leaf page id names its leaf granule and a non-leaf
/// page id names its external granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A slotted in-memory page store.
///
/// Each occupied slot holds one payload of type `T` (an R-tree node in this
/// workspace). Every read goes through [`Store::read`]/[`Store::read_mut`]
/// so it is counted by the attached [`IoStats`], which is how the Table 2
/// experiments measure per-insert page accesses.
///
/// The store is not internally synchronized: the R-tree wraps it behind its
/// tree latch, mirroring the paper's separation between physical
/// consistency (latching) and transactional locking.
#[derive(Debug)]
pub struct Store<T> {
    slots: Vec<Option<T>>,
    free: Vec<u64>,
    live: usize,
    stats: IoStats,
}

impl<T> Default for Store<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Store<T> {
    /// Creates an empty store with accounting enabled.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            stats: IoStats::new(),
        }
    }

    /// Rebuilds a store from an explicit slot layout (the inverse of
    /// [`Store::slots`]). Slot index `i` becomes page id `i`; `None` slots
    /// are placed on the free list, so ids — and therefore lock resource
    /// ids — are preserved exactly across a snapshot and restart.
    pub fn from_slots(slots: Vec<Option<T>>) -> Self {
        let free: Vec<u64> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i as u64)
            .collect();
        let live = slots.len() - free.len();
        Self {
            slots,
            free,
            live,
            stats: IoStats::new(),
        }
    }

    /// Every slot in page-id order, `None` where a page was freed.
    pub fn slots(&self) -> &[Option<T>] {
        &self.slots
    }

    /// The I/O accounting attached to this store.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The ids the next `n` calls to [`Store::alloc`] will return, in
    /// order, assuming no intervening dealloc. The locking protocol uses
    /// this to lock split siblings *before* the split: page ids are lock
    /// resource ids, and freed ids can carry stale commit-duration locks
    /// of concurrent transactions, so the locks must be negotiated before
    /// any physical change.
    pub fn peek_next_ids(&self, n: usize) -> Vec<PageId> {
        let mut out = Vec::with_capacity(n);
        // Free-list ids are consumed from the back.
        for idx in self.free.iter().rev().take(n) {
            out.push(PageId(*idx));
        }
        let mut fresh = self.slots.len() as u64;
        while out.len() < n {
            out.push(PageId(fresh));
            fresh += 1;
        }
        out
    }

    /// Allocates a page holding `payload` and returns its id.
    pub fn alloc(&mut self, payload: T) -> PageId {
        // Failpoint (delay flavor): models a slow page allocation — e.g.
        // a buffer pool stalling on eviction — under fault injection.
        dgl_faults::failpoint!("pager/alloc");
        self.live += 1;
        let id = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(payload);
            PageId(idx)
        } else {
            self.slots.push(Some(payload));
            PageId(self.slots.len() as u64 - 1)
        };
        self.stats.record_alloc();
        id
    }

    /// Frees the page, making its id available for reuse.
    ///
    /// # Panics
    /// Panics if the page is not live (double free or bad id).
    pub fn dealloc(&mut self, id: PageId) -> T {
        let slot = self
            .slots
            .get_mut(id.0 as usize)
            .unwrap_or_else(|| panic!("dealloc of unknown page {id}"));
        let payload = slot.take().unwrap_or_else(|| panic!("double free of {id}"));
        self.free.push(id.0);
        self.live -= 1;
        payload
    }

    /// Reads a page, counting the access.
    ///
    /// # Panics
    /// Panics if the page is not live.
    pub fn read(&self, id: PageId) -> &T {
        // Failpoint (delay flavor): models a buffer-pool miss that has to
        // wait for disk, stretching latch hold times under chaos.
        dgl_faults::failpoint!("pager/read");
        self.stats.record_read();
        self.slots
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("read of unknown page {id}"))
    }

    /// Reads a page without counting the access.
    ///
    /// Used for bookkeeping traversals that a real system would not pay
    /// extra I/O for (e.g. re-visiting a node already pinned by the same
    /// operation).
    pub fn peek(&self, id: PageId) -> &T {
        self.slots
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("peek of unknown page {id}"))
    }

    /// Mutably reads a page, counting the access as a read plus a write.
    pub fn read_mut(&mut self, id: PageId) -> &mut T {
        self.stats.record_read();
        self.stats.record_write();
        self.slots
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("read_mut of unknown page {id}"))
    }

    /// Whether `id` currently names a live page.
    pub fn is_live(&self, id: PageId) -> bool {
        self.slots.get(id.0 as usize).is_some_and(Option::is_some)
    }

    /// Number of live pages.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the store holds no live pages.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over `(id, payload)` for all live pages.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|p| (PageId(i as u64), p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_distinct_ids() {
        let mut s = Store::new();
        let a = s.alloc("a");
        let b = s.alloc("b");
        assert_ne!(a, b);
        assert_eq!(*s.read(a), "a");
        assert_eq!(*s.read(b), "b");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn dealloc_recycles_ids() {
        let mut s = Store::new();
        let a = s.alloc(1);
        let _b = s.alloc(2);
        assert_eq!(s.dealloc(a), 1);
        assert!(!s.is_live(a));
        let c = s.alloc(3);
        assert_eq!(c, a, "freed id is reused");
        assert_eq!(*s.read(c), 3);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut s = Store::new();
        let a = s.alloc(());
        s.dealloc(a);
        s.dealloc(a);
    }

    #[test]
    #[should_panic(expected = "read of unknown page")]
    fn read_freed_page_panics() {
        let mut s = Store::new();
        let a = s.alloc(());
        s.dealloc(a);
        s.read(a);
    }

    #[test]
    fn reads_are_counted_but_peeks_are_not() {
        let mut s = Store::new();
        let a = s.alloc(7);
        s.read(a);
        s.read(a);
        s.peek(a);
        let snap = s.stats().snapshot();
        assert_eq!(snap.logical_reads, 2);
    }

    #[test]
    fn read_mut_counts_write() {
        let mut s = Store::new();
        let a = s.alloc(7);
        *s.read_mut(a) = 8;
        assert_eq!(*s.read(a), 8);
        let snap = s.stats().snapshot();
        assert_eq!(snap.logical_reads, 2);
        assert_eq!(snap.writes, 1);
    }

    #[test]
    fn iter_skips_freed_slots() {
        let mut s = Store::new();
        let a = s.alloc("a");
        let b = s.alloc("b");
        let c = s.alloc("c");
        s.dealloc(b);
        let ids: Vec<_> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, c]);
    }
}
