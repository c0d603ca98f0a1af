use std::fmt;

use dgl_geom::Rect;
use dgl_pager::PageId;

/// A data object identifier.
///
/// Object ids double as lock resource ids for object-level locks
/// (`ReadSingle` takes an object S lock, insert/delete an object X lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

/// One slot of an R-tree node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Entry<const D: usize> {
    /// Internal entry `(I, child-pointer)`: `mbr` covers all rectangles in
    /// the child node's entries.
    Child {
        /// Bounding rectangle of the child subtree.
        mbr: Rect<D>,
        /// The child page.
        child: PageId,
    },
    /// Leaf entry: one indexed object.
    Object {
        /// The object's (bounding) rectangle.
        mbr: Rect<D>,
        /// The object id.
        oid: ObjectId,
        /// Logical-deletion mark: `Some(tag)` means the transaction with
        /// this tag has logically deleted the object; the entry is removed
        /// physically by the deferred delete after that transaction
        /// commits. The tag is opaque to the tree.
        tombstone: Option<u64>,
    },
}

impl<const D: usize> Entry<D> {
    /// The entry's bounding rectangle.
    pub fn mbr(&self) -> Rect<D> {
        match self {
            Entry::Child { mbr, .. } | Entry::Object { mbr, .. } => *mbr,
        }
    }

    /// The child page id, if this is an internal entry.
    pub fn child(&self) -> Option<PageId> {
        match self {
            Entry::Child { child, .. } => Some(*child),
            Entry::Object { .. } => None,
        }
    }

    /// The object id, if this is a leaf entry.
    pub fn oid(&self) -> Option<ObjectId> {
        match self {
            Entry::Object { oid, .. } => Some(*oid),
            Entry::Child { .. } => None,
        }
    }
}

/// An R-tree node: a page worth of entries at one level.
///
/// `level` 0 is the leaf level; the root sits at `height - 1`. A node's
/// bounding rectangle is not stored — it is derived from its entries (and
/// cached in the parent's `Child` entry), which is what makes leaf BRs the
/// paper's *dynamically growing and shrinking* lockable granules.
#[derive(Debug, Clone, PartialEq)]
pub struct Node<const D: usize> {
    /// Level in the tree (0 = leaf).
    pub level: u32,
    /// The node's entries.
    pub entries: Vec<Entry<D>>,
}

impl<const D: usize> Node<D> {
    /// Creates an empty node at `level`.
    pub fn new(level: u32) -> Self {
        Self {
            level,
            entries: Vec::new(),
        }
    }

    /// Whether this is a leaf node.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// The node's bounding rectangle (None if the node is empty).
    pub fn mbr(&self) -> Option<Rect<D>> {
        self.entries
            .iter()
            .map(Entry::mbr)
            .reduce(|acc, r| acc.union(&r))
    }

    /// Iterates over child page ids (empty for leaves).
    pub fn children(&self) -> impl Iterator<Item = PageId> + '_ {
        self.entries.iter().filter_map(Entry::child)
    }

    /// Finds the index of the entry pointing at `child`.
    pub fn position_of_child(&self, child: PageId) -> Option<usize> {
        self.entries.iter().position(|e| e.child() == Some(child))
    }

    /// Finds the index of the leaf entry for `oid`.
    pub fn position_of_object(&self, oid: ObjectId) -> Option<usize> {
        self.entries.iter().position(|e| e.oid() == Some(oid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(oid: u64, lo: [f64; 2], hi: [f64; 2]) -> Entry<2> {
        Entry::Object {
            mbr: Rect::new(lo, hi),
            oid: ObjectId(oid),
            tombstone: None,
        }
    }

    #[test]
    fn leaf_entry_stays_56_bytes() {
        // A scan streams leaf entries: whatever an entry gains, every leaf
        // visit pays for.
        assert_eq!(std::mem::size_of::<Entry<2>>(), 56);
    }

    #[test]
    fn node_mbr_is_union_of_entries() {
        let mut n = Node::new(0);
        assert_eq!(n.mbr(), None, "empty node has no MBR");
        n.entries.push(obj(1, [0.0, 0.0], [1.0, 1.0]));
        n.entries.push(obj(2, [2.0, 2.0], [3.0, 4.0]));
        assert_eq!(n.mbr(), Some(Rect::new([0.0, 0.0], [3.0, 4.0])));
    }

    #[test]
    fn entry_accessors() {
        let e = obj(7, [0.0, 0.0], [1.0, 1.0]);
        assert_eq!(e.oid(), Some(ObjectId(7)));
        assert_eq!(e.child(), None);
        let c = Entry::<2>::Child {
            mbr: Rect::new([0.0, 0.0], [1.0, 1.0]),
            child: PageId(3),
        };
        assert_eq!(c.child(), Some(PageId(3)));
        assert_eq!(c.oid(), None);
    }

    #[test]
    fn position_lookups() {
        let mut n = Node::new(1);
        n.entries.push(Entry::Child {
            mbr: Rect::new([0.0, 0.0], [1.0, 1.0]),
            child: PageId(10),
        });
        n.entries.push(Entry::Child {
            mbr: Rect::new([2.0, 0.0], [3.0, 1.0]),
            child: PageId(11),
        });
        assert_eq!(n.position_of_child(PageId(11)), Some(1));
        assert_eq!(n.position_of_child(PageId(99)), None);
        assert!(!n.is_leaf());
    }
}
