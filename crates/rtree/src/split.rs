//! Guttman's quadratic node split.
//!
//! It takes the overflowing entry list (`max_entries + 1` entries) and
//! partitions it into two groups, each with at least `min_entries` members.
//! The caller keeps group A on the original page (preserving its page id /
//! lock resource id) and moves group B to a fresh page.

use dgl_geom::Rect;

use crate::node::Entry;

/// The two groups produced by a node split.
#[derive(Debug)]
pub(crate) struct SplitGroups<const D: usize> {
    pub a: Vec<Entry<D>>,
    pub b: Vec<Entry<D>>,
}

pub(crate) fn split_entries<const D: usize>(
    entries: Vec<Entry<D>>,
    min_entries: usize,
) -> SplitGroups<D> {
    debug_assert!(entries.len() >= 2 * min_entries, "too few entries to split");
    quadratic(entries, min_entries)
}

/// Quadratic split: seeds = pair with maximal dead area
/// `area(union) - area(e1) - area(e2)`; remaining entries assigned one at a
/// time by largest preference difference, with the must-assign shortcut
/// when a group needs every remaining entry to reach minimum fill.
fn quadratic<const D: usize>(mut entries: Vec<Entry<D>>, min_entries: usize) -> SplitGroups<D> {
    // Pick seeds.
    let mut worst = f64::NEG_INFINITY;
    let (mut s1, mut s2) = (0, 1);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let a = entries[i].mbr();
            let b = entries[j].mbr();
            let dead = a.union(&b).area() - a.area() - b.area();
            if dead > worst {
                worst = dead;
                s1 = i;
                s2 = j;
            }
        }
    }
    // Remove seeds (higher index first to keep the lower index valid).
    let seed_b = entries.swap_remove(s2);
    let seed_a = entries.swap_remove(s1);
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut mbr_a = group_a[0].mbr();
    let mut mbr_b = group_b[0].mbr();

    while let Some(next) = pick_next_or_force(
        &entries,
        &mbr_a,
        &mbr_b,
        group_a.len(),
        group_b.len(),
        min_entries,
    ) {
        match next {
            PickNext::ForceA => {
                for e in entries.drain(..) {
                    mbr_a = mbr_a.union(&e.mbr());
                    group_a.push(e);
                }
            }
            PickNext::ForceB => {
                for e in entries.drain(..) {
                    mbr_b = mbr_b.union(&e.mbr());
                    group_b.push(e);
                }
            }
            PickNext::One(idx, to_a) => {
                let e = entries.swap_remove(idx);
                if to_a {
                    mbr_a = mbr_a.union(&e.mbr());
                    group_a.push(e);
                } else {
                    mbr_b = mbr_b.union(&e.mbr());
                    group_b.push(e);
                }
            }
        }
        if entries.is_empty() {
            break;
        }
    }
    SplitGroups {
        a: group_a,
        b: group_b,
    }
}

enum PickNext {
    One(usize, bool),
    ForceA,
    ForceB,
}

fn pick_next_or_force<const D: usize>(
    remaining: &[Entry<D>],
    mbr_a: &Rect<D>,
    mbr_b: &Rect<D>,
    len_a: usize,
    len_b: usize,
    min_entries: usize,
) -> Option<PickNext> {
    if remaining.is_empty() {
        return None;
    }
    // Must-assign: one group needs all remaining entries to reach min fill.
    if len_a + remaining.len() == min_entries {
        return Some(PickNext::ForceA);
    }
    if len_b + remaining.len() == min_entries {
        return Some(PickNext::ForceB);
    }
    // PickNext: entry with greatest |d1 - d2|.
    let mut best_idx = 0;
    let mut best_diff = f64::NEG_INFINITY;
    let mut best_to_a = true;
    for (i, e) in remaining.iter().enumerate() {
        let r = e.mbr();
        let d1 = mbr_a.enlargement(&r);
        let d2 = mbr_b.enlargement(&r);
        let diff = (d1 - d2).abs();
        if diff > best_diff {
            best_diff = diff;
            best_idx = i;
            // Resolve ties: smaller enlargement, then smaller area, then
            // fewer entries.
            best_to_a = if d1 != d2 {
                d1 < d2
            } else if mbr_a.area() != mbr_b.area() {
                mbr_a.area() < mbr_b.area()
            } else {
                len_a <= len_b
            };
        }
    }
    Some(PickNext::One(best_idx, best_to_a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ObjectId;
    use dgl_geom::Rect;

    fn obj(oid: u64, lo: [f64; 2], hi: [f64; 2]) -> Entry<2> {
        Entry::Object {
            mbr: Rect::new(lo, hi),
            oid: ObjectId(oid),
            tombstone: None,
        }
    }

    fn cluster_entries() -> Vec<Entry<2>> {
        // Two obvious clusters: around (0,0) and around (10,10).
        let mut v = Vec::new();
        for i in 0..5 {
            let o = i as f64 * 0.1;
            v.push(obj(i, [o, o], [o + 0.5, o + 0.5]));
        }
        for i in 0..5 {
            let o = 10.0 + i as f64 * 0.1;
            v.push(obj(100 + i, [o, o], [o + 0.5, o + 0.5]));
        }
        v
    }

    fn check_split(groups: &SplitGroups<2>, total: usize, min: usize) {
        assert_eq!(groups.a.len() + groups.b.len(), total, "no entry lost");
        assert!(groups.a.len() >= min, "group A fill");
        assert!(groups.b.len() >= min, "group B fill");
        // No duplicated object ids across groups.
        let mut ids: Vec<_> = groups
            .a
            .iter()
            .chain(groups.b.iter())
            .map(|e| e.oid().unwrap())
            .collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), total);
    }

    #[test]
    fn quadratic_separates_obvious_clusters() {
        let entries = cluster_entries();
        let g = split_entries(entries, 2);
        check_split(&g, 10, 2);
        // Each group should be one cluster: zero overlap between group MBRs.
        let mbr_a =
            Rect::union_all(g.a.iter().map(|e| e.mbr()).collect::<Vec<_>>().iter()).unwrap();
        let mbr_b =
            Rect::union_all(g.b.iter().map(|e| e.mbr()).collect::<Vec<_>>().iter()).unwrap();
        assert_eq!(mbr_a.overlap_area(&mbr_b), 0.0, "clusters must separate");
    }

    #[test]
    fn split_respects_min_fill_with_skewed_data() {
        // One far-away outlier plus a dense cluster: min fill must still be
        // honoured by the must-assign rule.
        let mut entries = vec![obj(0, [100.0, 100.0], [101.0, 101.0])];
        for i in 1..10 {
            let o = i as f64 * 0.01;
            entries.push(obj(i, [o, o], [o + 0.01, o + 0.01]));
        }
        let g = split_entries(entries, 4);
        check_split(&g, 10, 4);
    }

    #[test]
    fn identical_entries_still_split_legally() {
        let entries: Vec<_> = (0..8).map(|i| obj(i, [1.0, 1.0], [2.0, 2.0])).collect();
        let g = split_entries(entries, 3);
        check_split(&g, 8, 3);
    }
}
