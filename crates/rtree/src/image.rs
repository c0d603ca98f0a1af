//! The tree image: one encoder and one decoder for a whole R-tree.
//!
//! The locking protocol names granules by page id (a leaf page id is its
//! leaf granule, a non-leaf page id its external granule), so an image
//! must bring every page back on the id it had. It therefore stores the
//! page space itself, slot by slot in page-id order; a freed slot is one
//! byte and goes back on the free list when decoded.
//!
//! ```text
//! version u32 | world lo[D] hi[D] |
//! max_entries u64 | min_entries u64 | split u8 (always 0: quadratic) |
//! object_count u64 | root u64 | slot_count u64 | slot*
//! slot:  0u8                                   free
//!      | 1u8 level u32 entry_count u64 entry*   live page
//! entry: 0u8 rect child u64                    child pointer
//!      | 1u8 rect oid u64                      object
//!      | 2u8 tombstone u64 rect oid u64        logically deleted object
//! rect:  lo[D] hi[D]                           f64 each
//! ```
//!
//! Integers are little-endian. The image carries no checksum: the
//! durable snapshot file frames it with the write-ahead log's CRC-32.
//! Decoding trusts nothing — every count is bounded by the bytes that
//! must back it before anything is allocated.

use dgl_geom::Rect;
use dgl_pager::PageId;

use crate::config::RTreeConfig;
use crate::node::{Entry, Node, ObjectId};
use crate::tree::RTree;

const VERSION: u32 = 2;

/// Largest fanout an image may declare: far above any page's capacity,
/// far below an allocation that could take the process down.
const MAX_FANOUT: u64 = 1 << 16;

/// The header's split byte. Trees split one way, Guttman's quadratic
/// split, and the byte keeps its old value for it so existing images still
/// decode; any other tag names a split this crate does not have.
const QUADRATIC: u8 = 0;

const FREE: u8 = 0;
const LIVE: u8 = 1;

const CHILD: u8 = 0;
const OBJECT: u8 = 1;
const TOMBSTONED: u8 = 2;

/// Why a byte string is not a tree image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageError(pub String);

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad tree image: {}", self.0)
    }
}

impl std::error::Error for ImageError {}

/// Bytes of an entry without a tombstone: tag, rectangle, id.
fn min_entry_size<const D: usize>() -> usize {
    1 + 16 * D + 8
}

fn put_rect<const D: usize>(out: &mut Vec<u8>, r: &Rect<D>) {
    for v in r.lo.iter().chain(&r.hi) {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serializes the whole tree, page ids included.
pub fn encode<const D: usize>(tree: &RTree<D>) -> Vec<u8> {
    let slots = tree.store_ref().slots();
    // Every object has an entry and so, roughly, does every page.
    let entry_size = min_entry_size::<D>();
    let mut out =
        Vec::with_capacity(64 + slots.len() * (13 + entry_size) + tree.len() * entry_size);
    out.extend_from_slice(&VERSION.to_le_bytes());
    put_rect(&mut out, &tree.world());
    let config = tree.config();
    out.extend_from_slice(&(config.max_entries as u64).to_le_bytes());
    out.extend_from_slice(&(config.min_entries as u64).to_le_bytes());
    out.push(QUADRATIC);
    out.extend_from_slice(&(tree.len() as u64).to_le_bytes());
    out.extend_from_slice(&tree.root().0.to_le_bytes());
    out.extend_from_slice(&(slots.len() as u64).to_le_bytes());
    for slot in slots {
        let Some(node) = slot else {
            out.push(FREE);
            continue;
        };
        out.push(LIVE);
        out.extend_from_slice(&node.level.to_le_bytes());
        out.extend_from_slice(&(node.entries.len() as u64).to_le_bytes());
        for e in &node.entries {
            let (mbr, id) = match *e {
                Entry::Child { mbr, child } => {
                    out.push(CHILD);
                    (mbr, child.0)
                }
                Entry::Object {
                    mbr,
                    oid,
                    tombstone: None,
                } => {
                    out.push(OBJECT);
                    (mbr, oid.0)
                }
                Entry::Object {
                    mbr,
                    oid,
                    tombstone: Some(tag),
                } => {
                    out.push(TOMBSTONED);
                    out.extend_from_slice(&tag.to_le_bytes());
                    (mbr, oid.0)
                }
            };
            put_rect(&mut out, &mbr);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    out
}

/// Rebuilds a tree from [`encode`]'s output with every page on its
/// original id. Malformed input is an [`ImageError`], never a panic or
/// an allocation larger than the input warrants.
pub fn decode<const D: usize>(bytes: &[u8]) -> Result<RTree<D>, ImageError> {
    let mut r = Reader(bytes);
    let version = r.u32("version")?;
    if version != VERSION {
        return Err(ImageError(format!("unsupported version {version}")));
    }
    let world = r.corners::<D>("world")?;
    if world.iter().flatten().any(|v| !v.is_finite()) {
        return Err(ImageError("non-finite world coordinate".into()));
    }
    let world = ordered(world, "world")?;
    let max_entries = r.u64("max_entries")?;
    let min_entries = r.u64("min_entries")?;
    let split = r.u8("split")?;
    if split != QUADRATIC {
        return Err(ImageError(format!("unsupported split tag {split}")));
    }
    // Scans size buffers by the fanout, so it is bounded too.
    if !(3..=MAX_FANOUT).contains(&max_entries) || min_entries < 1 || min_entries > max_entries / 2
    {
        return Err(ImageError(format!(
            "bad fanout parameters: max {max_entries}, min {min_entries}"
        )));
    }
    let config = RTreeConfig {
        max_entries: max_entries as usize,
        min_entries: min_entries as usize,
    };
    let object_count = r.u64("object count")? as usize;
    let root = PageId(r.u64("root")?);
    // A free slot is one byte, so the slot count cannot exceed the bytes
    // left.
    let slot_count = r.count(1, "slot count")?;
    let mut slots = Vec::with_capacity(slot_count);
    for _ in 0..slot_count {
        slots.push(match r.u8("slot tag")? {
            FREE => None,
            LIVE => Some(r.node()?),
            other => return Err(ImageError(format!("unknown slot tag {other}"))),
        });
    }
    if !r.0.is_empty() {
        return Err(ImageError(format!("{} trailing bytes", r.0.len())));
    }
    if !slots.get(root.0 as usize).is_some_and(Option::is_some) {
        return Err(ImageError(format!("root {root} is not a live page")));
    }
    Ok(RTree::from_slots(config, world, root, object_count, slots))
}

/// A `[lo, hi]` pair as a rectangle, unless some `lo > hi` (or NaN).
fn ordered<const D: usize>([lo, hi]: [[f64; D]; 2], what: &str) -> Result<Rect<D>, ImageError> {
    if lo.iter().zip(&hi).all(|(l, h)| l <= h) {
        Ok(Rect::new(lo, hi))
    } else {
        Err(ImageError(format!("{what} with lo > hi")))
    }
}

/// A cursor over untrusted bytes: every read checks the length first.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self, what: &str) -> Result<[u8; N], ImageError> {
        if self.0.len() < N {
            return Err(ImageError(format!("truncated at {what}")));
        }
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        Ok(head.try_into().expect("split at N"))
    }

    fn u8(&mut self, what: &str) -> Result<u8, ImageError> {
        Ok(self.take::<1>(what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, ImageError> {
        self.take(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &str) -> Result<u64, ImageError> {
        self.take(what).map(u64::from_le_bytes)
    }

    /// A count of items at least `min_size` bytes each, rejected if the
    /// bytes left cannot hold that many.
    fn count(&mut self, min_size: usize, what: &str) -> Result<usize, ImageError> {
        let n = self.u64(what)?;
        let room = self.0.len() / min_size;
        if n > room as u64 {
            return Err(ImageError(format!(
                "{what} {n} exceeds what {} remaining bytes can hold",
                self.0.len()
            )));
        }
        Ok(n as usize)
    }

    fn corners<const D: usize>(&mut self, what: &str) -> Result<[[f64; D]; 2], ImageError> {
        let mut c = [[0.0; D]; 2];
        for v in c.iter_mut().flatten() {
            *v = f64::from_le_bytes(self.take(what)?);
        }
        Ok(c)
    }

    fn node<const D: usize>(&mut self) -> Result<Node<D>, ImageError> {
        let level = self.u32("level")?;
        let count = self.count(min_entry_size::<D>(), "entry count")?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = self.u8("entry tag")?;
            let tombstone = match tag {
                CHILD | OBJECT => None,
                TOMBSTONED => Some(self.u64("tombstone")?),
                other => return Err(ImageError(format!("unknown entry tag {other}"))),
            };
            let mbr = ordered(self.corners("entry rect")?, "entry rect")?;
            let id = self.u64("entry id")?;
            entries.push(if tag == CHILD {
                Entry::Child {
                    mbr,
                    child: PageId(id),
                }
            } else {
                Entry::Object {
                    mbr,
                    oid: ObjectId(id),
                    tombstone,
                }
            });
        }
        Ok(Node { level, entries })
    }
}
