//! Property-based tests: random operation sequences preserve the R-tree
//! invariants and agree with a naive linear-scan oracle.

use std::collections::BTreeMap;

use dgl_geom::{Rect, Rect2};
use dgl_rtree::{ObjectId, RTree2, RTreeConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, Rect2),
    Delete(u16),
    Search(Rect2),
}

fn arb_rect() -> impl Strategy<Value = Rect2> {
    (0.0..0.9f64, 0.0..0.9f64, 0.0..0.1f64, 0.0..0.1f64)
        .prop_map(|(x, y, w, h)| Rect2::new([x, y], [x + w, y + h]))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u16>(), arb_rect()).prop_map(|(k, r)| Op::Insert(k % 64, r)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % 64)),
        1 => arb_rect().prop_map(Op::Search),
    ]
}

fn run_ops(fanout: usize, ops: &[Op]) {
    let mut tree = RTree2::new(RTreeConfig::with_fanout(fanout), Rect::unit());
    let mut oracle: BTreeMap<u16, Rect2> = BTreeMap::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, rect) => {
                // The tree requires unique oids: replace = delete + insert.
                if let Some(old) = oracle.remove(k) {
                    assert!(tree.delete(ObjectId(u64::from(*k)), old));
                }
                tree.insert(ObjectId(u64::from(*k)), *rect);
                oracle.insert(*k, *rect);
            }
            Op::Delete(k) => {
                let expect = oracle.remove(k);
                let got = match expect {
                    Some(rect) => tree.delete(ObjectId(u64::from(*k)), rect),
                    None => false,
                };
                assert_eq!(got, expect.is_some(), "step {step}: delete {k}");
            }
            Op::Search(query) => {
                let mut got: Vec<u64> = tree.search(query).into_iter().map(|(o, ..)| o.0).collect();
                got.sort_unstable();
                let mut want: Vec<u64> = oracle
                    .iter()
                    .filter(|(_, r)| r.intersects(query))
                    .map(|(k, _)| u64::from(*k))
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "step {step}: search disagrees with oracle");
            }
        }
        tree.validate(true).unwrap_or_else(|e| {
            panic!("step {step} ({op:?}): {e}");
        });
        assert_eq!(tree.len(), oracle.len(), "step {step}: cardinality");
    }
    // Final full-space check.
    assert_eq!(tree.search(&Rect::unit()).len(), oracle.len());
}

/// Random inserts and deletes on a `min_entries = 1` tree, where every
/// delete is planned twice — from the root (`plan_delete`) and from the
/// leaf (`plan_delete_at`) — and then applied: the two plans must agree
/// field for field, and the pages the plan says die must be exactly the
/// pages `apply_delete` frees.
fn delete_plans_are_exact(fanout: usize, ops: &[Op]) {
    let mut tree = RTree2::new(
        RTreeConfig::with_fanout(fanout).with_min_entries(1),
        Rect::unit(),
    );
    let mut live: BTreeMap<u16, Rect2> = BTreeMap::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Insert(k, rect) => {
                if let Some(old) = live.remove(k) {
                    plan_and_delete(&mut tree, *k, old, step);
                }
                tree.insert(ObjectId(u64::from(*k)), *rect);
                live.insert(*k, *rect);
            }
            Op::Delete(k) => {
                if let Some(rect) = live.remove(k) {
                    plan_and_delete(&mut tree, *k, rect, step);
                }
            }
            Op::Search(_) => {}
        }
        tree.validate(true)
            .unwrap_or_else(|e| panic!("step {step} ({op:?}): {e}"));
    }
    // Drain what is left, so every tree shrinks back to a lone leaf.
    for (step, (k, rect)) in live.into_iter().enumerate() {
        plan_and_delete(&mut tree, k, rect, ops.len() + step);
    }
    assert!(tree.is_empty());
}

fn plan_and_delete(tree: &mut RTree2, k: u16, rect: Rect2, step: usize) {
    let oid = ObjectId(u64::from(k));
    let leaf = tree.locate_leaf(oid, rect).expect("live object");
    let reads = || tree.io_stats().snapshot().logical_reads;
    let before = reads();
    let from_root = tree.plan_delete(oid, rect).expect("live object");
    let root_reads = reads() - before;
    let before = reads();
    let plan = tree.plan_delete_at(leaf, oid, rect).expect("live object");
    let leaf_reads = reads() - before;
    assert_eq!(plan.path, from_root.path, "step {step}: path");
    assert_eq!(plan.leaf, from_root.leaf, "step {step}: leaf");
    assert_eq!(
        plan.leaf_eliminated, from_root.leaf_eliminated,
        "step {step}"
    );
    assert_eq!(
        plan.eliminated, from_root.eliminated,
        "step {step}: eliminated"
    );
    assert_eq!(
        plan.changed_ext, from_root.changed_ext,
        "step {step}: changed_ext"
    );
    assert_eq!(plan.root_shrinks, from_root.root_shrinks, "step {step}");
    assert!(
        leaf_reads < root_reads,
        "step {step}: {leaf_reads} vs {root_reads} reads"
    );
    let result = tree.apply_delete(&plan);
    let mut predicted = plan.eliminated.clone();
    let mut actual = result.eliminated.clone();
    predicted.sort();
    actual.sort();
    assert_eq!(predicted, actual, "step {step}: eliminations");
    assert_eq!(
        plan.root_shrinks, result.root_shrank,
        "step {step}: root shrink"
    );
    tree.reinsert_orphans(result.orphans);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delete_plans_are_exact_fanout3(ops in prop::collection::vec(arb_op(), 1..160)) {
        delete_plans_are_exact(3, &ops);
    }

    #[test]
    fn delete_plans_are_exact_fanout4(ops in prop::collection::vec(arb_op(), 1..160)) {
        delete_plans_are_exact(4, &ops);
    }

    #[test]
    fn random_ops_fanout4(ops in prop::collection::vec(arb_op(), 1..120)) {
        run_ops(4, &ops);
    }

    #[test]
    fn random_ops_fanout3(ops in prop::collection::vec(arb_op(), 1..100)) {
        // Fanout 3 exercises min_entries = 1 and deep condensation
        // cascades (including the root-absorb cascade).
        run_ops(3, &ops);
    }

    #[test]
    fn random_ops_fanout8(ops in prop::collection::vec(arb_op(), 1..120)) {
        run_ops(8, &ops);
    }

    #[test]
    fn random_ops_fanout6(ops in prop::collection::vec(arb_op(), 1..120)) {
        run_ops(6, &ops);
    }

    #[test]
    fn point_data_random_ops(keys in prop::collection::vec((any::<u16>(), 0.0..1.0f64, 0.0..1.0f64), 1..150)) {
        // Degenerate (zero-extent) rectangles: the paper's point datasets.
        let mut tree = RTree2::new(RTreeConfig::with_fanout(5), Rect::unit());
        let mut oracle: BTreeMap<u16, Rect2> = BTreeMap::new();
        for (k, x, y) in keys {
            let k = k % 64;
            let rect = Rect2::point([x, y]);
            if let Some(old) = oracle.remove(&k) {
                assert!(tree.delete(ObjectId(u64::from(k)), old));
            }
            tree.insert(ObjectId(u64::from(k)), rect);
            oracle.insert(k, rect);
            tree.validate(true).unwrap();
        }
        assert_eq!(tree.search(&Rect::unit()).len(), oracle.len());
    }
}
