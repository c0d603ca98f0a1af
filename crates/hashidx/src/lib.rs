//! `dgl-hashidx` — a sharded, latch-striped hash map for exact-match
//! point access.
//!
//! The DGL tree answers *predicate* questions (region scans) with the
//! paper's granular protocol; this crate answers the *exact-match*
//! questions — `read_single`, the insert duplicate probe, snapshot point
//! reads — in O(1) without touching the tree or its latch. The core
//! keeps one [`StripedMap`] as its payload table: every write publishes
//! or retires entries under the 2PL object locks it already holds
//! (Griffin-style precision locking falls out of the commit-duration X
//! lock), so the map is transactionally consistent with the tree by
//! construction rather than by invalidation.
//!
//! Concurrency model: `STRIPES` independent `parking_lot` mutexes, each
//! guarding a plain `HashMap` shard. The API is closure-based — a guard
//! can never escape a call — so a caller cannot hold a stripe across a
//! latch acquisition. The per-thread [`stripes_held`] counter lets
//! embedders `debug_assert` that ordering (stripes are leaf locks: take
//! them *after* any latch, never across one); it is compiled only under
//! `debug_assertions`, a release build pays nothing for it.
//!
//! Hashing: one seeded multiply-mix [`BuildHasher`] per map (`MixBuild`,
//! the mixer the lock table uses) picks the stripe *and* hashes inside
//! the stripes' maps — the keys are fixed-width ids, and a visit has to
//! cost about one probe for the hash side of a hash + tree index to be
//! worth having. The seed is per map and per process: object ids arrive
//! from clients, who must not be able to aim them at one bucket.
//!
//! Iteration (`for_each`, `retain`) locks stripes one at a time: the
//! view is per-stripe consistent, not a global atomic snapshot. Callers
//! that need cross-stripe atomicity must provide it externally (the DGL
//! core runs commit-timestamp stamping inside the commit clock's
//! critical section, and structural removals under the exclusive tree
//! latch, for exactly this reason).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

use parking_lot::Mutex;

/// Number of independent stripes (power of two; the selector masks the
/// key hash). 16 stripes keep the probability of two of a machine's
/// threads colliding on one mutex low without bloating the struct.
pub const STRIPES: usize = 16;

/// The longest item list [`StripedMap::get_each`] sorts on the stack. A
/// scan's hit list fits: the index's scans return about 50.
pub const GET_EACH_STACK: usize = 256;

#[cfg(debug_assertions)]
thread_local! {
    static STRIPES_HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many stripe locks the current thread is holding (via a closure
/// currently executing inside a [`StripedMap`] call). Embedders
/// `debug_assert` this is zero before acquiring any lock that must order
/// *below* the stripes (e.g. a tree latch). Counted in debug builds only;
/// a release build always answers 0.
pub fn stripes_held() -> usize {
    #[cfg(debug_assertions)]
    return STRIPES_HELD.with(std::cell::Cell::get);
    #[cfg(not(debug_assertions))]
    0
}

/// RAII bump of the per-thread held-stripe counter (debug builds).
struct HeldGuard;

impl HeldGuard {
    #[inline]
    fn enter() -> Self {
        #[cfg(debug_assertions)]
        STRIPES_HELD.with(|c| c.set(c.get() + 1));
        HeldGuard
    }
}

#[cfg(debug_assertions)]
impl Drop for HeldGuard {
    fn drop(&mut self) {
        STRIPES_HELD.with(|c| c.set(c.get() - 1));
    }
}

/// Multiply-mix hasher for fixed-width id keys: one folded 64×64→128
/// multiply per word instead of SipHash's rounds. `dgl-lockmgr` has the
/// original; this is a copy because a `hashidx → lockmgr` dependency
/// edge is not worth 25 lines.
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = (m as u64) ^ (m >> 64) as u64;
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Clone)]
struct MixBuild(u64);

impl BuildHasher for MixBuild {
    type Hasher = MixHasher;

    #[inline]
    fn build_hasher(&self) -> MixHasher {
        MixHasher(self.0)
    }
}

/// A hash map split across [`STRIPES`] independently locked shards.
///
/// All access is closure-scoped; see the module docs for the locking
/// discipline.
pub struct StripedMap<K, V> {
    stripes: Vec<Mutex<HashMap<K, V, MixBuild>>>,
    hasher: MixBuild,
}

impl<K: Hash + Eq, V> Default for StripedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> std::fmt::Debug for StripedMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripedMap")
            .field("stripes", &STRIPES)
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq, V> StripedMap<K, V> {
    /// An empty map, hashed under a fresh random seed.
    pub fn new() -> Self {
        let hasher = MixBuild(RandomState::new().hash_one(0u64));
        Self {
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(HashMap::with_hasher(hasher.clone())))
                .collect(),
            hasher,
        }
    }

    /// The stripe comes from hash bits the in-stripe map uses neither for
    /// bucketing (the low ones) nor for its control bytes (the top seven).
    fn stripe_index(&self, key: &K) -> usize {
        (self.hasher.hash_one(key) >> 32) as usize & (STRIPES - 1)
    }

    fn stripe(&self, key: &K) -> &Mutex<HashMap<K, V, MixBuild>> {
        &self.stripes[self.stripe_index(key)]
    }

    /// Runs `f` on the value for `key`, if present.
    pub fn get<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        let guard = self.stripe(key).lock();
        let _held = HeldGuard::enter();
        guard.get(key).map(f)
    }

    /// Runs `f` on every item of `items` with the value for its key
    /// (`None` if absent), in place: the batched [`Self::get`]. Each key's
    /// stripe is hashed once, and each stripe the keys fall in is locked
    /// once, in stripe order, one at a time — a scan's ~50 hits take at most
    /// [`STRIPES`] lock round trips instead of one each. Within a stripe
    /// the items are visited in list order; across stripes, in stripe
    /// order, so `f` must not depend on the order it sees items in.
    ///
    /// Lists of up to [`GET_EACH_STACK`] items keep their bookkeeping on
    /// the stack; a longer list allocates it.
    pub fn get_each<T>(
        &self,
        items: &mut [T],
        key: impl Fn(&T) -> &K,
        mut f: impl FnMut(&mut T, Option<&V>),
    ) {
        let n = items.len();
        if n <= GET_EACH_STACK {
            let mut stripe_of = [0u8; GET_EACH_STACK];
            let mut order = [0u32; GET_EACH_STACK];
            self.get_each_in(items, &key, &mut f, &mut stripe_of[..n], &mut order[..n]);
        } else {
            u32::try_from(n).expect("get_each list longer than u32::MAX items");
            self.get_each_in(items, &key, &mut f, &mut vec![0; n], &mut vec![0; n]);
        }
    }

    /// [`Self::get_each`] with its bookkeeping in the caller's buffers,
    /// each `items.len()` long: a counting sort of the item indices by
    /// stripe.
    fn get_each_in<T>(
        &self,
        items: &mut [T],
        key: &impl Fn(&T) -> &K,
        f: &mut impl FnMut(&mut T, Option<&V>),
        stripe_of: &mut [u8],
        order: &mut [u32],
    ) {
        let mut starts = [0usize; STRIPES + 1];
        for (item, s) in items.iter().zip(stripe_of.iter_mut()) {
            *s = self.stripe_index(key(item)) as u8;
            starts[*s as usize + 1] += 1;
        }
        for i in 0..STRIPES {
            starts[i + 1] += starts[i];
        }
        let mut next = starts;
        for (i, &s) in stripe_of.iter().enumerate() {
            order[next[s as usize]] = i as u32;
            next[s as usize] += 1;
        }
        for (s, stripe) in self.stripes.iter().enumerate() {
            let group = &order[starts[s]..starts[s + 1]];
            if group.is_empty() {
                continue;
            }
            let guard = stripe.lock();
            let _held = HeldGuard::enter();
            for &i in group {
                let item = &mut items[i as usize];
                let value = guard.get(key(item));
                f(item, value);
            }
        }
    }

    /// Runs `f` mutably on the value for `key`, if present.
    pub fn update<R>(&self, key: &K, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        let mut guard = self.stripe(key).lock();
        let _held = HeldGuard::enter();
        guard.get_mut(key).map(f)
    }

    /// Inserts `value`, returning the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.stripe(&key).lock().insert(key, value)
    }

    /// Removes and returns the value for `key`.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.stripe(key).lock().remove(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.stripe(key).lock().contains_key(key)
    }

    /// Total entries across all stripes (per-stripe consistent).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every stripe is empty.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.lock().is_empty())
    }

    /// Visits every entry, one stripe at a time.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for s in &self.stripes {
            let guard = s.lock();
            let _held = HeldGuard::enter();
            for (k, v) in guard.iter() {
                f(k, v);
            }
        }
    }

    /// Keeps only the entries for which `f` returns true, one stripe at
    /// a time.
    pub fn retain(&self, mut f: impl FnMut(&K, &mut V) -> bool) {
        for s in &self.stripes {
            let mut guard = s.lock();
            let _held = HeldGuard::enter();
            guard.retain(|k, v| f(k, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_update_remove_roundtrip() {
        let m: StripedMap<u64, String> = StripedMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, "a".into()), None);
        assert_eq!(m.insert(7, "b".into()), Some("a".into()));
        assert!(m.contains_key(&7));
        assert_eq!(m.get(&7, |v| v.clone()), Some("b".into()));
        assert_eq!(m.get(&8, |v| v.clone()), None);
        assert_eq!(m.update(&7, |v| v.push('!')), Some(()));
        assert_eq!(m.get(&7, |v| v.clone()), Some("b!".into()));
        assert_eq!(m.update(&8, |_| ()), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(&7), Some("b!".into()));
        assert_eq!(m.remove(&7), None);
        assert!(m.is_empty());
    }

    #[test]
    fn iteration_sees_every_stripe() {
        let m: StripedMap<u64, u64> = StripedMap::new();
        // Enough keys that every stripe almost surely gets some.
        for k in 0..1_000u64 {
            m.insert(k, k * 2);
        }
        assert_eq!(m.len(), 1_000);
        let mut sum = 0u64;
        m.for_each(|_, v| sum += *v);
        assert_eq!(sum, (0..1_000u64).map(|k| k * 2).sum());
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.len(), 500);
        assert_eq!(m.get(&4, |v| *v), Some(8));
        assert_eq!(m.get(&5, |v| *v), None);
    }

    // The counter exists in debug builds only (a release build compiles
    // the thread-local bump out), so this is a debug-build assertion.
    #[cfg(debug_assertions)]
    #[test]
    fn stripes_held_tracks_closure_scope() {
        let m: StripedMap<u64, u64> = StripedMap::new();
        m.insert(1, 1);
        assert_eq!(stripes_held(), 0);
        m.get(&1, |_| assert_eq!(stripes_held(), 1));
        m.update(&1, |_| assert_eq!(stripes_held(), 1));
        m.for_each(|_, _| assert_eq!(stripes_held(), 1));
        assert_eq!(stripes_held(), 0);
    }

    /// What per-key `get` answers for each item, in item order.
    fn per_key(m: &StripedMap<u64, u64>, keys: &[u64]) -> Vec<(u64, Option<u64>)> {
        keys.iter().map(|&k| (k, m.get(&k, |v| *v))).collect()
    }

    /// What `get_each` answers for each item, in item order.
    fn batched(m: &StripedMap<u64, u64>, keys: &[u64]) -> Vec<(u64, Option<u64>)> {
        let mut items: Vec<(u64, Option<u64>)> =
            keys.iter().map(|&k| (k, Some(u64::MAX))).collect();
        m.get_each(&mut items, |it| &it.0, |it, v| it.1 = v.copied());
        items
    }

    #[test]
    fn get_each_matches_get_with_duplicates_and_absent_keys() {
        let m: StripedMap<u64, u64> = StripedMap::new();
        for k in (0..200u64).step_by(2) {
            m.insert(k, k * 10);
        }
        assert_eq!(batched(&m, &[]), vec![]);
        let keys = [4, 5, 4, 198, 1_000, 0, 5, 4];
        assert_eq!(batched(&m, &keys), per_key(&m, &keys));
        assert_eq!(batched(&m, &keys)[1], (5, None));
        // Every key of a list longer than the stack bound, twice over.
        let long: Vec<u64> = (0..GET_EACH_STACK as u64 + 50).rev().chain(0..40).collect();
        assert!(long.len() > GET_EACH_STACK);
        assert_eq!(batched(&m, &long), per_key(&m, &long));
    }

    #[test]
    fn get_each_locks_each_touched_stripe_once_in_order() {
        let m: StripedMap<u64, u64> = StripedMap::new();
        for k in 0..1_000u64 {
            m.insert(k, k);
        }
        for n in [10, GET_EACH_STACK + 1] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i * 7 % 1_000).collect();
            let mut items = keys.clone();
            let mut seen = Vec::new();
            m.get_each(
                &mut items,
                |k| k,
                |k, v| {
                    assert_eq!(v, Some(&*k));
                    assert_eq!(stripes_held(), usize::from(cfg!(debug_assertions)));
                    seen.push(m.stripe_index(k));
                },
            );
            assert_eq!(seen.len(), n);
            assert!(
                seen.windows(2).all(|w| w[0] <= w[1]),
                "stripe order: {seen:?}"
            );
            assert_eq!(stripes_held(), 0);
        }
    }

    /// The id shapes the system actually hashes: sequential object ids,
    /// the strided ids sharded routers and clients hand out, and ids that
    /// differ only in their high half.
    fn id_shapes() -> [(&'static str, Vec<u64>); 4] {
        let n = 50_000u64;
        [
            ("sequential", (0..n).collect()),
            ("stride 16", (0..n).map(|i| i * 16).collect()),
            ("stride 1024", (0..n).map(|i| i * 1_024).collect()),
            ("high half only", (0..n).map(|i| i << 32).collect()),
        ]
    }

    #[test]
    fn mixer_spreads_id_keys_evenly_over_stripes() {
        for (shape, keys) in id_shapes() {
            let m: StripedMap<u64, u64> = StripedMap::new();
            for &k in &keys {
                assert_eq!(m.insert(k, !k), None);
            }
            let mean = keys.len() / STRIPES;
            for (i, s) in m.stripes.iter().enumerate() {
                let len = s.lock().len();
                assert!(
                    len.abs_diff(mean) * 4 <= mean,
                    "{shape}: stripe {i} holds {len} of {} keys (mean {mean})",
                    keys.len()
                );
            }
            assert_eq!(m.len(), keys.len(), "{shape}");
            for &k in &keys {
                assert_eq!(m.get(&k, |v| *v), Some(!k), "{shape}: key {k}");
            }
        }
    }

    #[test]
    fn mixer_keeps_in_stripe_maps_from_degenerating() {
        // What a stripe's map does with the hash: the low bits pick the
        // bucket, the top seven are the control byte. Neither may collapse
        // on structured ids (a multiply alone leaves the low bits of a
        // strided id constant; the fold is what fixes that).
        for (shape, keys) in id_shapes() {
            let m: StripedMap<u64, u64> = StripedMap::new();
            let mut buckets = vec![0usize; 4_096];
            let mut tags = [0usize; 128];
            for k in &keys {
                let h = m.hasher.hash_one(k);
                buckets[h as usize & 4_095] += 1;
                tags[(h >> 57) as usize] += 1;
            }
            // Means are 12.2 per bucket and 390 per tag.
            let fullest = buckets.iter().max().unwrap();
            assert!(*fullest <= 64, "{shape}: a bucket holds {fullest} keys");
            let (lo, hi) = (tags.iter().min().unwrap(), tags.iter().max().unwrap());
            assert!(
                *lo >= 195 && *hi <= 780,
                "{shape}: control bytes range over {lo}..{hi} keys"
            );
        }
    }

    #[test]
    fn every_map_is_seeded_afresh() {
        let a: StripedMap<u64, u64> = StripedMap::new();
        let b: StripedMap<u64, u64> = StripedMap::new();
        assert_ne!(a.hasher.0, b.hasher.0);
        assert_ne!(a.hasher.hash_one(7u64), b.hasher.hash_one(7u64));
    }

    #[test]
    fn concurrent_disjoint_writers_never_lose_updates() {
        let m: StripedMap<u64, u64> = StripedMap::new();
        let threads = 8u64;
        let per = 2_000u64;
        crossbeam::scope(|s| {
            for t in 0..threads {
                let m = &m;
                s.spawn(move |_| {
                    for i in 0..per {
                        let k = t * per + i;
                        m.insert(k, 0);
                        m.update(&k, |v| *v += k);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(m.len(), (threads * per) as usize);
        let mut sum = 0u64;
        m.for_each(|_, v| sum += *v);
        assert_eq!(sum, (0..threads * per).sum());
    }

    #[test]
    fn concurrent_same_key_read_modify_write_is_atomic_per_call() {
        let m: StripedMap<u64, u64> = StripedMap::new();
        m.insert(0, 0);
        let threads = 8u64;
        let per = 5_000u64;
        crossbeam::scope(|s| {
            for _ in 0..threads {
                let m = &m;
                s.spawn(move |_| {
                    for _ in 0..per {
                        m.update(&0, |v| *v += 1);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(m.get(&0, |v| *v), Some(threads * per));
    }
}
