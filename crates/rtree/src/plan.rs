//! Operation planning: pure, read-only prediction of the lock-relevant
//! effects of an insert or delete.
//!
//! The granular locking protocol must acquire every lock *before* touching
//! the tree, so that a failed conditional request can release the tree
//! latch, wait, and retry with nothing to undo. Because planning and
//! application run under one uninterrupted latch hold, the plan is exact:
//! both use the same deterministic `choose_path` / condense logic.

use dgl_geom::{coverage, Rect};
use dgl_pager::PageId;

use crate::node::{Entry, ObjectId};
use crate::tree::RTree;

/// Everything lock-relevant that an insert will do (ICDE-98 §3.3–§3.5).
#[derive(Debug, Clone)]
pub struct InsertPlan<const D: usize> {
    /// Rectangle being inserted.
    pub rect: Rect<D>,
    /// Level of the target node (0 for ordinary object inserts; >0 when
    /// re-inserting an orphaned index entry during tree condensation).
    pub level: u32,
    /// Chosen path, root first, target node last.
    pub path: Vec<PageId>,
    /// The node that receives the entry (`*path.last()`).
    pub target: PageId,
    /// Whether the target granule's bounding rectangle will grow — the
    /// paper's *granule change*, which decides whether the modified
    /// insertion policy must traverse overlapping paths.
    pub grows: bool,
    /// The region the granule grows into (`new_mbr ∖ old_mbr` as disjoint
    /// boxes); empty iff `grows` is false.
    pub growth: Vec<Rect<D>>,
    /// Target MBR before the insert (`None` for an empty node).
    pub old_target_mbr: Option<Rect<D>>,
    /// Target MBR after the insert.
    pub new_target_mbr: Rect<D>,
    /// Ancestors (bottom-up, excluding the target) whose *external granule*
    /// changes — because their child on the path grows or splits. The
    /// protocol takes short-duration SIX locks on these.
    pub changed_ext: Vec<PageId>,
    /// Pages that will split, bottom-up (target first if it splits). The
    /// protocol takes a short SIX instead of plain IX on a splitting
    /// granule (§3.5).
    pub split_pages: Vec<PageId>,
    /// Whether the split cascade reaches the root (tree grows a level; the
    /// root keeps its page id).
    pub root_will_split: bool,
}

impl<const D: usize> InsertPlan<D> {
    /// Whether the insert changes any granule boundary (leaf growth or any
    /// node split) — the condition for the §3.4 extra-lock traversal under
    /// the modified insertion policy.
    pub fn changes_granules(&self) -> bool {
        self.grows || !self.split_pages.is_empty()
    }
}

/// Everything lock-relevant that a (deferred, physical) delete will do
/// (ICDE-98 §3.7).
#[derive(Debug, Clone)]
pub struct DeletePlan<const D: usize> {
    /// Object being removed.
    pub oid: ObjectId,
    /// Its rectangle.
    pub rect: Rect<D>,
    /// Path from root to the leaf holding the object.
    pub path: Vec<PageId>,
    /// The leaf granule the object is removed from.
    pub leaf: PageId,
    /// Whether the leaf will underflow and be eliminated — the protocol
    /// then takes short SIX (not IX) on it, because "even transactions
    /// holding IX locks on g may lose their lock coverage due to
    /// elimination of g".
    pub leaf_eliminated: bool,
    /// All pages that will be eliminated, bottom-up (includes the leaf if
    /// it underflows, cascading ancestors, and any child absorbed by a
    /// shrinking root).
    pub eliminated: Vec<PageId>,
    /// Ancestors whose external granule shrinks as BRs are adjusted
    /// (bottom-up). Short SIX per the paper.
    pub changed_ext: Vec<PageId>,
    /// Whether the root absorbs its single remaining child (tree loses a
    /// level; root page id stays).
    pub root_shrinks: bool,
}

impl<const D: usize> RTree<D> {
    /// Plans an object insert at the leaf level.
    pub fn plan_insert(&self, rect: Rect<D>) -> InsertPlan<D> {
        self.plan_insert_at(rect, 0)
    }

    /// Plans an insert of an entry that must live in a node at `level`
    /// (orphan re-insertion during condensation).
    ///
    /// # Panics
    /// Panics if `level` exceeds the root level, which an orphan's never
    /// does: an orphan comes from an eliminated non-root node, and a delete
    /// that leaves orphans lowers the root by one level at most (at minimum
    /// fill 1 only empty nodes are eliminated; at >= 2 the one child a
    /// shrinking root absorbs is off the deletion path and keeps >= 2
    /// entries).
    pub fn plan_insert_at(&self, rect: Rect<D>, level: u32) -> InsertPlan<D> {
        let path = self.choose_path(rect, level);
        let target = *path.last().expect("path never empty");
        let target_node = self.peek_node(target);
        debug_assert_eq!(target_node.level, level);
        let old_mbr = target_node.mbr();
        let new_mbr = old_mbr.map_or(rect, |m| m.union(&rect));
        let grows = old_mbr.is_none_or(|m| !m.contains(&rect));
        let growth = match (grows, old_mbr) {
            (false, _) => Vec::new(),
            (true, None) => vec![rect],
            (true, Some(old)) => coverage::difference(&new_mbr, &old),
        };

        // Split cascade: the target splits iff full; each ancestor splits
        // iff full when its child below splits.
        let mut split_pages = Vec::new();
        let mut root_will_split = false;
        let mut overflowing = target_node.entries.len() >= self.config().max_entries;
        if overflowing {
            split_pages.push(target);
        }
        for pid in path.iter().rev().skip(1) {
            if !overflowing {
                break;
            }
            let n = self.peek_node(*pid);
            overflowing = n.entries.len() >= self.config().max_entries;
            if overflowing {
                split_pages.push(*pid);
            }
        }
        if overflowing {
            // The cascade consumed the whole path: the root splits.
            root_will_split = true;
        }

        // External granules change at every ancestor whose path-child grows
        // or splits. Growth is monotone down the path (rect outside a
        // parent's BR implies outside the child's), so the grown nodes are
        // a suffix of the path.
        let mut changed_ext = Vec::new();
        for (i, pid) in path.iter().enumerate().rev().skip(1) {
            let child = path[i + 1];
            let child_grows = {
                let n = self.peek_node(*pid);
                let idx = n.position_of_child(child).expect("path is parent-linked");
                !n.entries[idx].mbr().contains(&rect)
            };
            let child_splits = split_pages.contains(&child);
            if child_grows || child_splits {
                changed_ext.push(*pid);
            }
        }

        InsertPlan {
            rect,
            level,
            path,
            target,
            grows,
            growth,
            old_target_mbr: old_mbr,
            new_target_mbr: new_mbr,
            changed_ext,
            split_pages,
            root_will_split,
        }
    }

    /// Plans the physical removal of `(oid, rect)`, or `None` if the object
    /// is not in the tree. Finds the leaf by descending from the root and
    /// opening every leaf whose rectangle contains `rect`; a caller that
    /// knows the leaf uses [`RTree::plan_delete_at`].
    pub fn plan_delete(&self, oid: ObjectId, rect: Rect<D>) -> Option<DeletePlan<D>> {
        let path = self.find_path(oid, rect)?;
        Some(self.plan_delete_on(path, oid, rect))
    }

    /// [`RTree::plan_delete`] for an object known to live on page `leaf`:
    /// the descent looks for `leaf` among the children of level-1 nodes and
    /// opens no leaf. `None` if `leaf` does not hold `(oid, rect)` or is not
    /// reachable from the root.
    pub fn plan_delete_at(
        &self,
        leaf: PageId,
        oid: ObjectId,
        rect: Rect<D>,
    ) -> Option<DeletePlan<D>> {
        let holds = self.is_live(leaf) && {
            let node = self.peek_node(leaf);
            node.is_leaf()
                && node
                    .position_of_object(oid)
                    .is_some_and(|i| node.entries[i].mbr() == rect)
        };
        if !holds {
            return None;
        }
        let path = self.path_to_leaf(leaf, rect)?;
        Some(self.plan_delete_on(path, oid, rect))
    }

    /// The root..`leaf` path, descending only into subtrees whose rectangle
    /// contains `rect` (an object's leaf BR contains it, and so does every
    /// ancestor's). Internal reads are counted; the leaf is not read.
    fn path_to_leaf(&self, leaf: PageId, rect: Rect<D>) -> Option<Vec<PageId>> {
        if leaf == self.root() {
            return Some(vec![leaf]);
        }
        // Depth-first over `(page, depth)`, as in `find_path`.
        let mut stack = vec![(self.root(), 0)];
        let mut path = Vec::new();
        while let Some((pid, depth)) = stack.pop() {
            path.truncate(depth);
            path.push(pid);
            let node = self.node(pid);
            if node.level == 1 {
                if node.position_of_child(leaf).is_some() {
                    path.push(leaf);
                    return Some(path);
                }
                continue;
            }
            for e in &node.entries {
                if let Entry::Child { mbr, child } = e {
                    if mbr.contains(&rect) {
                        stack.push((*child, depth + 1));
                    }
                }
            }
        }
        None
    }

    /// The delete plan along `path` (root..leaf, the leaf holding `oid`).
    fn plan_delete_on(&self, path: Vec<PageId>, oid: ObjectId, rect: Rect<D>) -> DeletePlan<D> {
        let leaf = *path.last().expect("path never empty");

        // Simulate the condense pass bottom-up.
        let mut eliminated = Vec::new();
        let mut changed_ext = Vec::new();
        let min = self.config().min_entries;

        // State flowing up the path: what happened to the child below.
        #[derive(Clone, Copy)]
        enum Below<const D: usize> {
            Eliminated,
            NewMbr(Option<Rect<D>>),
        }

        let (remaining, leaf_mbr) = fold_mbrs(
            self.peek_node(leaf)
                .entries
                .iter()
                .filter(|e| e.oid() != Some(oid))
                .map(Entry::mbr),
        );
        let leaf_is_root = path.len() == 1;
        let leaf_eliminated = !leaf_is_root && remaining < min;
        let mut below: Below<D> = if leaf_eliminated {
            eliminated.push(leaf);
            Below::Eliminated
        } else {
            Below::NewMbr(leaf_mbr)
        };

        // Track per-ancestor surviving child count+mbrs for the root-shrink
        // check at the end.
        let mut root_child_count = None;
        for (i, pid) in path.iter().enumerate().rev().skip(1) {
            let child = path[i + 1];
            let node = self.peek_node(*pid);
            let idx = node
                .position_of_child(child)
                .expect("path is parent-linked");
            let is_root = i == 0;
            // Any change below alters this node's children, hence its
            // external granule.
            changed_ext.push(*pid);
            // The node's children after the change below: the path child
            // gone, or carrying its new rectangle.
            let others = node
                .entries
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != idx)
                .map(|(_, e)| e.mbr());
            let (count, mbr) = match below {
                Below::Eliminated => fold_mbrs(others),
                Below::NewMbr(new_child) => {
                    let (_, mbr) = fold_mbrs(others.chain(new_child));
                    (node.entries.len(), mbr)
                }
            };
            if !is_root && count < min {
                eliminated.push(*pid);
                below = Below::Eliminated;
            } else {
                below = Below::NewMbr(mbr);
                if is_root {
                    root_child_count = Some(count);
                }
            }
        }

        // Root shrink: a non-leaf root left with a single child absorbs it
        // (the child's content moves into the stable root page and the
        // child page dies). The absorb can cascade while the absorbed
        // content is again a single-child internal node. Only the path
        // child can have been eliminated, so the survivor is either the
        // one other root child or the path child itself.
        let root = path[0];
        let root_node = self.peek_node(root);
        let mut root_shrinks = false;
        if !root_node.is_leaf() && path.len() > 1 && root_child_count == Some(1) {
            root_shrinks = true;
            let survivor = if eliminated.contains(&path[1]) {
                root_node
                    .children()
                    .find(|c| *c != path[1])
                    .expect("root with an eliminated child had a sibling")
            } else {
                path[1]
            };
            // Simulate the absorb cascade. A node off the delete path is
            // unmodified, so its stored content is what apply will see.
            // The one path node the cascade can reach is `path[1]` (the
            // survivor is a root child), whose stored content is stale,
            // so the cascade stops there without looking inside. It can
            // only be the survivor if the root had a single child before
            // this delete — which no tree at rest has: a root split leaves
            // the root two children, and every applied delete absorbs a
            // single child before it returns. So the stop is never taken
            // on a tree built by insert and delete; it only keeps the
            // simulation from reading stale content if one ever were.
            let mut cur = survivor;
            loop {
                eliminated.push(cur);
                let n = self.peek_node(cur);
                if cur != path[1] && !n.is_leaf() && n.entries.len() == 1 {
                    cur = n.children().next().expect("single child exists");
                } else {
                    break;
                }
            }
        }

        DeletePlan {
            oid,
            rect,
            path,
            leaf,
            leaf_eliminated,
            eliminated,
            changed_ext,
            root_shrinks,
        }
    }
}

/// How many rectangles `rects` yields, and their union (`None` if none).
fn fold_mbrs<const D: usize>(rects: impl Iterator<Item = Rect<D>>) -> (usize, Option<Rect<D>>) {
    rects.fold((0, None), |(n, acc), r| {
        (n + 1, Some(acc.map_or(r, |a: Rect<D>| a.union(&r))))
    })
}
