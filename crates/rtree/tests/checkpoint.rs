//! The tree image: trees round-trip through `image::encode`/`decode` with
//! page ids (= lock resource ids) preserved, and malformed bytes come
//! back as a clean `ImageError` — never a panic or an allocation the
//! input cannot back.

use dgl_geom::{Rect, Rect2};
use dgl_pager::PageId;
use dgl_rtree::image::{decode, encode};
use dgl_rtree::{Entry, Node, ObjectId, RTree2, RTreeConfig};

/// Bytes before the slot count in a 2-D image: version, world, fanout,
/// split, object count, root.
const HEADER: usize = 4 + 32 + 8 + 8 + 1 + 8 + 8;

fn build(n: usize, seed: u64) -> RTree2 {
    let mut t = RTree2::new(RTreeConfig::with_fanout(6), Rect::unit());
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..n {
        let x = next() * 0.9;
        let y = next() * 0.9;
        t.insert(
            ObjectId(i as u64),
            Rect2::new([x, y], [x + next() * 0.05, y + next() * 0.05]),
        );
    }
    t
}

fn err(bytes: &[u8]) -> String {
    decode::<2>(bytes).map(|_| ()).unwrap_err().to_string()
}

#[test]
fn roundtrip_preserves_structure_and_ids() {
    let mut t = build(300, 5);
    // Punch holes in the page-id space so the restore must cope with a
    // free list.
    for i in (0..100).step_by(3) {
        let rect = t
            .all_objects()
            .iter()
            .find(|(o, ..)| o.0 == i)
            .map(|(_, r, _)| *r)
            .unwrap();
        t.delete(ObjectId(i), rect);
    }
    // Tombstone one object to check tombstones serialize.
    let (oid, rect, _) = t.all_objects()[0];
    assert!(t.set_tombstone(oid, rect, 77));

    let restored: RTree2 = decode(&encode(&t)).expect("decode succeeds");

    assert_eq!(restored.root(), t.root());
    assert_eq!(restored.height(), t.height());
    assert_eq!(restored.len(), t.len());
    assert_eq!(restored.world(), t.world());
    assert_eq!(restored.config(), t.config());
    restored.validate(true).unwrap();
    assert_eq!(restored.all_objects(), t.all_objects());

    // Page-by-page identity, and no page appears that was not there.
    for (pid, node) in t.pages() {
        assert!(restored.is_live(pid), "page {pid} lost");
        assert_eq!(restored.peek_node(pid), node, "page {pid} differs");
    }
    assert_eq!(restored.pages().count(), t.pages().count());
    assert_eq!(restored.lookup(oid, rect), Some(Some(77)));
    // Encoding is a function of the tree: the restored tree encodes to
    // the same bytes.
    assert_eq!(encode(&restored), encode(&t));
}

#[test]
fn interior_and_trailing_holes_stay_free_and_are_reused_after_decode() {
    // Page 0 freed, page 1 the root leaf, page 2 freed.
    let root = Node {
        level: 0,
        entries: vec![Entry::Object {
            mbr: Rect2::new([0.1, 0.1], [0.2, 0.2]),
            oid: ObjectId(1),
            tombstone: None,
        }],
    };
    let t = RTree2::from_slots(
        RTreeConfig::with_fanout(4),
        Rect::unit(),
        PageId(1),
        1,
        vec![None, Some(root), None],
    );
    let mut restored: RTree2 = decode(&encode(&t)).unwrap();
    assert!(!restored.is_live(PageId(0)) && !restored.is_live(PageId(2)));
    assert_eq!(restored.root(), PageId(1), "live page kept its id");
    assert_eq!(restored.pages().count(), 1);
    // A root split needs two fresh pages: both come off the free list.
    for i in 2..=5u64 {
        let x = 0.15 * i as f64;
        restored.insert(ObjectId(i), Rect2::new([x, x], [x + 0.05, x + 0.05]));
    }
    assert_eq!(restored.height(), 2);
    let ids: Vec<PageId> = restored.pages().map(|(pid, _)| pid).collect();
    assert_eq!(ids, [PageId(0), PageId(1), PageId(2)]);
    restored.validate(true).unwrap();
}

#[test]
fn restored_tree_is_fully_operational() {
    let t = build(150, 9);
    let mut restored: RTree2 = decode(&encode(&t)).unwrap();
    // Mutations work and stay valid.
    restored.insert(ObjectId(9999), Rect2::new([0.5, 0.5], [0.55, 0.55]));
    let (oid, rect, _) = restored.all_objects()[10];
    assert!(restored.delete(oid, rect));
    restored.validate(true).unwrap();
    assert_eq!(restored.len(), 150);
}

#[test]
fn empty_tree_roundtrips() {
    let t = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
    let restored: RTree2 = decode(&encode(&t)).unwrap();
    assert!(restored.is_empty());
    assert_eq!(restored.root(), t.root());
    restored.validate(true).unwrap();
}

#[test]
fn every_truncation_is_rejected() {
    let image = encode(&build(12, 3));
    for cut in 0..image.len() {
        let e = err(&image[..cut]);
        assert!(
            e.contains("truncated") || e.contains("exceeds"),
            "cut at {cut}: {e}"
        );
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut image = encode(&build(12, 3));
    image.push(0xff);
    assert!(err(&image).contains("1 trailing bytes"));
}

#[test]
fn garbage_bytes_are_rejected_not_panicked() {
    // Deterministic pseudo-random garbage at several lengths, bare and
    // behind a real header (so decoding reaches the slots); every one
    // must come back as a clean error.
    let header = encode(&build(12, 3))[..HEADER].to_vec();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for len in [0usize, 1, 7, 8, 9, 64, 1024, 65_536] {
        let garbage: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        assert!(decode::<2>(&garbage).is_err(), "len {len}");
        let behind_header = [header.as_slice(), &garbage].concat();
        assert!(
            decode::<2>(&behind_header).is_err(),
            "len {len} after header"
        );
    }
}

#[test]
fn absurd_counts_rejected_without_allocation() {
    let image = encode(&build(12, 3));
    // The slot count, then (slot 0 is the root: live tag, level u32) the
    // root page's entry count.
    assert_eq!(image[HEADER + 8], 1, "slot 0 is live");
    for (off, what) in [(HEADER, "slot count"), (HEADER + 8 + 1 + 4, "entry count")] {
        for absurd in [u64::MAX, 1 << 40] {
            let mut bad = image.clone();
            bad[off..off + 8].copy_from_slice(&absurd.to_le_bytes());
            let e = err(&bad);
            assert!(e.contains(&format!("{what} {absurd} exceeds")), "{e}");
        }
    }
}

#[test]
fn non_finite_world_rejected() {
    let base = encode(&build(10, 3));
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut image = base.clone();
        // The first world coordinate follows the version.
        image[4..12].copy_from_slice(&bad.to_le_bytes());
        assert!(err(&image).contains("non-finite"), "{bad}");
    }
}

#[test]
fn header_and_tag_checks_reject_what_no_tree_encodes() {
    let base = encode(&build(10, 3));
    let patched = |off: usize, bytes: &[u8]| {
        let mut image = base.clone();
        image[off..off + bytes.len()].copy_from_slice(bytes);
        err(&image)
    };
    assert!(patched(0, &9u32.to_le_bytes()).contains("unsupported version 9"));
    // World lo.x = 2 > hi.x = 1.
    assert!(patched(4, &2.0f64.to_le_bytes()).contains("world with lo > hi"));
    // max_entries 2, and a fanout no page holds.
    assert!(patched(36, &2u64.to_le_bytes()).contains("bad fanout"));
    assert!(patched(36, &(1u64 << 40).to_le_bytes()).contains("bad fanout"));
    // min_entries above max / 2.
    assert!(patched(44, &4u64.to_le_bytes()).contains("bad fanout"));
    // Only the quadratic split (0) exists; 1 and 2 were the linear and R*
    // splits.
    for tag in [1u8, 2, 7] {
        assert!(patched(52, &[tag]).contains(&format!("unsupported split tag {tag}")));
    }
    // Root beyond the slots.
    assert!(patched(61, &u64::MAX.to_le_bytes()).contains("not a live page"));
    assert!(patched(HEADER + 8, &[9]).contains("unknown slot tag 9"));
    // The root page's first entry tag.
    assert!(patched(HEADER + 8 + 1 + 4 + 8, &[9]).contains("unknown entry tag 9"));
    // That entry's lo.x above its hi.x.
    let lo_x = HEADER + 8 + 1 + 4 + 8 + 1;
    assert!(patched(lo_x, &2.0f64.to_le_bytes()).contains("entry rect with lo > hi"));
}
