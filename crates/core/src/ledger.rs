//! Flat, cache-friendly ledger structures for the protocol hot path.
//!
//! `FdsNode` historically kept ~12 `BTreeMap`/`BTreeSet`/`HashMap`
//! ledgers keyed by `NodeId`/`ClusterId`. Every delivery probed them
//! with pointer-chasing tree lookups and every epoch boundary paid a
//! tree-clear; at N=10⁵–10⁶ that scattered layout dominates the
//! per-node actor cost (`window_exec_s` ≈95% of wall in
//! BENCH_protocol.json). This module replaces them with contiguous
//! sorted vectors and generation-stamped structures (DESIGN.md §16):
//!
//! * [`SortedSet`] / [`SortedMap`] — sorted-vec replacements for
//!   `BTreeSet`/`BTreeMap`. Membership is a binary search over a
//!   contiguous array (ledgers hold tens of entries, so the whole
//!   search usually stays in one cache line); `clear` keeps capacity.
//! * [`ClusterLedger`] — cluster-keyed sets of member ids with an O(1)
//!   generation-stamped epoch reset: bumping the ledger generation
//!   invalidates every entry without touching (or freeing) them, so
//!   the per-epoch `forwarded_this_epoch` clear costs one increment.
//! * [`TimerRing`] — pending timer payloads addressed by their
//!   sequential token, stored in a dense ring. Insert/remove are O(1)
//!   slot operations instead of `HashMap` probes, and persisted bytes
//!   are identical to the sorted `HashMap<u64, T>` encoding.
//!
//! # Checkpoint byte-compatibility
//!
//! All four structures implement [`Persist`] with encodings
//! byte-identical to the collections they replaced (`Vec` of sorted
//! items ≡ `BTreeSet`, `Vec` of sorted pairs ≡ `BTreeMap` ≡ key-sorted
//! `HashMap`), so the rewrite needed no checkpoint format bump and the
//! checkpoint differential suite keeps passing on old workloads. The
//! proptests at the bottom of this module pin each structure against
//! its `std` model under random operation interleavings.

use cbfd_net::checkpoint::{CheckpointError, Persist, Reader, Writer};
use cbfd_net::id::{ClusterId, NodeId};
use std::collections::VecDeque;

/// A sorted-vector set: `BTreeSet` semantics over contiguous storage.
///
/// Intended for small hot sets (per-epoch membership, departures,
/// suspicions) where binary search over one cache line beats a tree
/// walk and `clear` should keep its allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortedSet<T> {
    items: Vec<T>,
}

impl<T: Ord + Copy> SortedSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        SortedSet { items: Vec::new() }
    }

    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        match self.items.binary_search(&value) {
            Ok(_) => false,
            Err(idx) => {
                self.items.insert(idx, value);
                true
            }
        }
    }

    /// Removes `value`; returns `true` if it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        match self.items.binary_search(value) {
            Ok(idx) => {
                self.items.remove(idx);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether `value` is in the set.
    pub fn contains(&self, value: &T) -> bool {
        self.items.binary_search(value).is_ok()
    }

    /// Empties the set, keeping its capacity.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Keeps only the elements for which `f` returns `true`.
    pub fn retain(&mut self, f: impl FnMut(&T) -> bool) {
        self.items.retain(f);
    }

    /// Iterates the elements in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T: Persist + Ord + Copy> Persist for SortedSet<T> {
    // Byte-identical to `BTreeSet<T>`: length + items ascending.
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.items.len() as u64);
        for item in &self.items {
            item.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let mut items: Vec<T> = Vec::restore(r)?;
        // Tolerate unsorted input the way `BTreeSet::restore` would:
        // re-sort and dedup rather than corrupting the invariant.
        items.sort_unstable();
        items.dedup();
        Ok(SortedSet { items })
    }
}

/// A sorted-vector map: `BTreeMap` semantics over contiguous storage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortedMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord + Copy, V> SortedMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SortedMap {
            entries: Vec::new(),
        }
    }

    fn index_of(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Returns a reference to the value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.index_of(key).ok().map(|i| &self.entries[i].1)
    }

    /// Returns a mutable reference to the value stored under `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.index_of(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.index_of(key).is_ok()
    }

    /// Inserts `value` under `key`, returning the previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.index_of(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.index_of(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Returns the value under `key`, inserting `default()` first if
    /// absent. The flag reports whether an insert happened.
    pub fn or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> (&mut V, bool) {
        match self.index_of(&key) {
            Ok(i) => (&mut self.entries[i].1, false),
            Err(i) => {
                self.entries.insert(i, (key, default()));
                (&mut self.entries[i].1, true)
            }
        }
    }

    /// Keeps only the entries for which `f` returns `true`.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| f(k, v));
    }

    /// Empties the map, keeping its capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<K: Persist + Ord + Copy, V: Persist> Persist for SortedMap<K, V> {
    // Byte-identical to `BTreeMap<K, V>`: length + pairs ascending.
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.entries.len() as u64);
        for (k, v) in &self.entries {
            k.persist(w);
            v.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::restore(r)?;
        if len > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut map = SortedMap {
            entries: Vec::with_capacity(len),
        };
        for _ in 0..len {
            let k = K::restore(r)?;
            let v = V::restore(r)?;
            // Insert (not push): tolerate unsorted/duplicate input the
            // way `BTreeMap::restore` would (last duplicate wins).
            map.insert(k, v);
        }
        Ok(map)
    }
}

/// A cluster-keyed ledger of member-id sets with an O(1) epoch reset.
///
/// Each entry carries the generation it was last touched in; bumping
/// the ledger generation (`clear_all`) logically empties every entry
/// without freeing or walking them — the stale vectors are reused the
/// next time their cluster is touched. A node sees a handful of
/// clusters (its own plus gateway peers), so the index is a small
/// sorted vector.
///
/// Entries distinguish "absent" from "present but empty": touching a
/// cluster with no ids still creates a live empty entry, mirroring the
/// `entry(c).or_default()` behaviour of the `BTreeMap<ClusterId,
/// BTreeSet<NodeId>>` this replaces (the report path treats an empty
/// known-by set as "cluster knows everything so far").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterLedger {
    // (cluster, generation-last-touched, sorted member ids)
    entries: Vec<(ClusterId, u64, Vec<NodeId>)>,
    generation: u64,
}

impl ClusterLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        ClusterLedger::default()
    }

    /// Returns the live member set of `cluster`, creating an empty one
    /// if the cluster is absent or its entry is stale.
    pub fn touch(&mut self, cluster: ClusterId) -> &mut Vec<NodeId> {
        let idx = match self.entries.binary_search_by(|(c, _, _)| c.cmp(&cluster)) {
            Ok(i) => {
                if self.entries[i].1 != self.generation {
                    self.entries[i].1 = self.generation;
                    self.entries[i].2.clear();
                }
                i
            }
            Err(i) => {
                self.entries
                    .insert(i, (cluster, self.generation, Vec::new()));
                i
            }
        };
        &mut self.entries[idx].2
    }

    /// Inserts every id from `ids` into `cluster`'s live set (touching
    /// the entry even when `ids` is empty, like `or_default`).
    pub fn extend(&mut self, cluster: ClusterId, ids: impl IntoIterator<Item = NodeId>) {
        let set = self.touch(cluster);
        for id in ids {
            if let Err(idx) = set.binary_search(&id) {
                set.insert(idx, id);
            }
        }
    }

    /// Whether `node` is in `cluster`'s live set.
    pub fn contains(&self, cluster: ClusterId, node: NodeId) -> bool {
        self.members(cluster)
            .is_some_and(|set| set.binary_search(&node).is_ok())
    }

    /// The live member set of `cluster` (`Some(&[])` when the cluster
    /// was touched this generation but holds no ids).
    pub fn members(&self, cluster: ClusterId) -> Option<&[NodeId]> {
        match self.entries.binary_search_by(|(c, _, _)| c.cmp(&cluster)) {
            Ok(i) if self.entries[i].1 == self.generation => Some(&self.entries[i].2),
            _ => None,
        }
    }

    /// Iterates live `(cluster, members)` entries in cluster order.
    pub fn live_entries(&self) -> impl Iterator<Item = (ClusterId, &[NodeId])> {
        self.entries
            .iter()
            .filter(|(_, g, _)| *g == self.generation)
            .map(|(c, _, set)| (*c, set.as_slice()))
    }

    /// Removes `node` from every live entry.
    pub fn remove_everywhere(&mut self, node: NodeId) {
        for (_, g, set) in &mut self.entries {
            if *g == self.generation {
                if let Ok(idx) = set.binary_search(&node) {
                    set.remove(idx);
                }
            }
        }
    }

    /// Logically empties the ledger in O(1) by bumping the generation;
    /// stale entries are recycled on their next touch.
    pub fn clear_all(&mut self) {
        self.generation += 1;
    }

    /// Number of live entries.
    pub fn live_len(&self) -> usize {
        self.entries
            .iter()
            .filter(|(_, g, _)| *g == self.generation)
            .count()
    }

    /// Total ids across live entries (not capacity).
    pub fn live_item_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|(_, g, _)| *g == self.generation)
            .map(|(_, _, set)| set.len())
            .sum()
    }
}

impl Persist for ClusterLedger {
    // Byte-identical to `BTreeMap<ClusterId, BTreeSet<NodeId>>` over
    // the *live* entries: stale (previous-generation) entries are dead
    // state the old map would already have dropped.
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.live_len() as u64);
        for (cluster, set) in self.live_entries() {
            cluster.persist(w);
            w.put_u64(set.len() as u64);
            for id in set {
                id.persist(w);
            }
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::restore(r)?;
        if len > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut ledger = ClusterLedger::new();
        for _ in 0..len {
            let cluster = ClusterId::restore(r)?;
            let ids: Vec<NodeId> = Vec::restore(r)?;
            ledger.extend(cluster, ids);
        }
        Ok(ledger)
    }
}

/// Pending timer payloads addressed by sequential token, stored in a
/// dense ring.
///
/// `FdsNode` hands out strictly increasing timer tokens, so a
/// `HashMap<u64, T>` wastes its hashing on keys that are really ring
/// offsets. The ring keeps `slots[token - base]`; removing the oldest
/// live timer advances `base` over leading holes, and insert pads any
/// trailing gap (which only arises after restoring a checkpoint whose
/// newest timers had already fired). Span stays bounded by the oldest
/// live timer — a few slots in steady state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimerRing<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> TimerRing<T> {
    /// Creates an empty ring.
    pub fn new() -> Self {
        TimerRing {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Stores `payload` under `token`.
    ///
    /// Tokens must be monotone: `token` may not address a slot at or
    /// before an already-occupied position (the protocol allocates
    /// them from a strictly increasing counter).
    pub fn insert(&mut self, token: u64, payload: T) {
        if self.live == 0 {
            self.slots.clear();
            self.base = token;
        }
        let next = self.base + self.slots.len() as u64;
        assert!(token >= next, "timer tokens must be monotone");
        for _ in next..token {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(payload));
        self.live += 1;
    }

    /// Removes and returns the payload stored under `token`.
    pub fn remove(&mut self, token: u64) -> Option<T> {
        if token < self.base {
            return None;
        }
        let idx = usize::try_from(token - self.base).ok()?;
        let payload = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        if self.live == 0 {
            self.slots.clear();
        } else {
            while matches!(self.slots.front(), Some(None)) {
                self.slots.pop_front();
                self.base += 1;
            }
        }
        Some(payload)
    }

    /// Drops every pending payload.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }

    /// Number of live payloads.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no payload is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates live `(token, payload)` pairs in token order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|p| (self.base + i as u64, p)))
    }
}

impl<T: Persist> Persist for TimerRing<T> {
    // Byte-identical to the key-sorted `HashMap<u64, T>` encoding:
    // live count, then ascending (token, payload) pairs.
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.live as u64);
        for (token, payload) in self.iter() {
            w.put_u64(token);
            payload.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::restore(r)?;
        if len > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut ring = TimerRing::new();
        let mut last: Option<u64> = None;
        for _ in 0..len {
            let token = r.get_u64()?;
            if last.is_some_and(|l| token <= l) {
                return Err(CheckpointError::Corrupt("timer tokens out of order"));
            }
            last = Some(token);
            ring.insert(token, T::restore(r)?);
        }
        Ok(ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    fn bytes_of<T: Persist>(v: &T) -> Vec<u8> {
        let mut w = Writer::new();
        v.persist(&mut w);
        w.into_bytes()
    }

    #[test]
    fn sorted_set_basics() {
        let mut s = SortedSet::new();
        assert!(s.insert(3u32));
        assert!(s.insert(1));
        assert!(!s.insert(3));
        assert!(s.contains(&1));
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![1, 3]);
        assert!(s.remove(&1));
        assert!(!s.remove(&1));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn sorted_map_basics() {
        let mut m = SortedMap::new();
        assert_eq!(m.insert(2u32, "b"), None);
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(2, "c"), Some("b"));
        assert_eq!(m.get(&2), Some(&"c"));
        let (v, inserted) = m.or_insert_with(3, || "d");
        assert!(inserted);
        *v = "e";
        let (_, inserted) = m.or_insert_with(3, || "x");
        assert!(!inserted);
        assert_eq!(m.remove(&1), Some("a"));
        assert_eq!(
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            vec![(2, "c"), (3, "e")]
        );
    }

    #[test]
    fn cluster_ledger_generation_reset_is_logical_clear() {
        let c = ClusterId::of(NodeId(0));
        let mut ledger = ClusterLedger::new();
        ledger.extend(c, [NodeId(4), NodeId(2), NodeId(4)]);
        assert!(ledger.contains(c, NodeId(2)));
        assert_eq!(ledger.members(c), Some(&[NodeId(2), NodeId(4)][..]));
        ledger.clear_all();
        assert!(!ledger.contains(c, NodeId(2)));
        assert_eq!(ledger.members(c), None);
        assert_eq!(ledger.live_len(), 0);
        // The stale entry is recycled, and empty touches stay visible.
        ledger.extend(c, []);
        assert_eq!(ledger.members(c), Some(&[][..]));
        assert_eq!(ledger.live_len(), 1);
        assert_eq!(ledger.live_item_count(), 0);
    }

    #[test]
    fn timer_ring_insert_remove_and_gaps() {
        let mut ring = TimerRing::new();
        for t in 10..15u64 {
            ring.insert(t, t * 100);
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.remove(12), Some(1200));
        assert_eq!(ring.remove(12), None);
        assert_eq!(ring.remove(10), Some(1000));
        assert_eq!(ring.remove(9), None);
        // Restore-style gap: earlier tokens fired pre-checkpoint.
        ring.insert(20, 2000);
        assert_eq!(
            ring.iter().map(|(t, _)| t).collect::<Vec<_>>(),
            vec![11, 13, 14, 20]
        );
        ring.clear();
        assert!(ring.is_empty());
        ring.insert(3, 30);
        assert_eq!(ring.remove(3), Some(30));
    }

    // --- model-based byte-compatibility proptests (ISSUE 10 satellite) ---

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// SortedSet tracks BTreeSet under random insert/remove/clear,
        /// and the persisted bytes are identical at every step.
        #[test]
        fn sorted_set_matches_btreeset(ops in proptest::collection::vec((0u8..4, 0u32..32), 0..64)) {
            let mut flat = SortedSet::new();
            let mut model: BTreeSet<u32> = BTreeSet::new();
            for (op, v) in ops {
                match op {
                    0 | 1 => {
                        prop_assert_eq!(flat.insert(v), model.insert(v));
                    }
                    2 => {
                        prop_assert_eq!(flat.remove(&v), model.remove(&v));
                    }
                    _ => {
                        flat.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(flat.len(), model.len());
                prop_assert_eq!(bytes_of(&flat), bytes_of(&model));
            }
            let back = SortedSet::<u32>::restore(&mut Reader::new(&bytes_of(&flat))).unwrap();
            prop_assert_eq!(back, flat);
        }

        /// SortedMap tracks BTreeMap under random insert/remove/retain
        /// (the incarnation-ledger GC pattern), bytes identical.
        #[test]
        fn sorted_map_matches_btreemap(ops in proptest::collection::vec((0u8..4, 0u32..24, 0u64..1000), 0..64)) {
            let mut flat = SortedMap::new();
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            for (op, k, v) in ops {
                match op {
                    0 | 1 => {
                        prop_assert_eq!(flat.insert(k, v), model.insert(k, v));
                    }
                    2 => {
                        prop_assert_eq!(flat.remove(&k), model.remove(&k));
                    }
                    _ => {
                        // GC sweep: retire entries below a cutoff.
                        flat.retain(|_, val| *val >= v);
                        model.retain(|_, val| *val >= v);
                    }
                }
                prop_assert_eq!(flat.get(&k), model.get(&k));
                prop_assert_eq!(bytes_of(&flat), bytes_of(&model));
            }
            let back = SortedMap::<u32, u64>::restore(&mut Reader::new(&bytes_of(&flat))).unwrap();
            prop_assert_eq!(back, flat);
        }

        /// ClusterLedger's generation reset behaves exactly like
        /// clearing a BTreeMap<ClusterId, BTreeSet<NodeId>>, including
        /// or_default-created empty entries, bytes identical.
        #[test]
        fn cluster_ledger_matches_btreemap_of_sets(
            ops in proptest::collection::vec((0u8..5, 0u32..4, proptest::collection::vec(0u32..16, 0..4)), 0..48)
        ) {
            let mut flat = ClusterLedger::new();
            let mut model: BTreeMap<ClusterId, BTreeSet<NodeId>> = BTreeMap::new();
            for (op, c, ids) in ops {
                let cluster = ClusterId::of(NodeId(c * 100));
                match op {
                    0..=2 => {
                        flat.extend(cluster, ids.iter().map(|&i| NodeId(i)));
                        model.entry(cluster).or_default().extend(ids.iter().map(|&i| NodeId(i)));
                    }
                    3 => {
                        let victim = NodeId(ids.first().copied().unwrap_or(0));
                        flat.remove_everywhere(victim);
                        for set in model.values_mut() {
                            set.remove(&victim);
                        }
                    }
                    _ => {
                        flat.clear_all();
                        model.clear();
                    }
                }
                for (cl, set) in &model {
                    prop_assert_eq!(flat.members(*cl), Some(set.iter().copied().collect::<Vec<_>>().as_slice()));
                }
                prop_assert_eq!(flat.live_len(), model.len());
                prop_assert_eq!(
                    flat.live_item_count(),
                    model.values().map(|s| s.len()).sum::<usize>()
                );
                prop_assert_eq!(bytes_of(&flat), bytes_of(&model));
            }
            let back = ClusterLedger::restore(&mut Reader::new(&bytes_of(&flat))).unwrap();
            prop_assert_eq!(bytes_of(&back), bytes_of(&flat));
        }

        /// TimerRing tracks HashMap<u64, T> under the protocol's
        /// monotone-token discipline (sequential inserts, arbitrary
        /// removes, occasional clears), bytes identical to the
        /// key-sorted HashMap encoding at every step.
        #[test]
        fn timer_ring_matches_hashmap(ops in proptest::collection::vec((0u8..6, 0u64..64), 0..96)) {
            let mut ring = TimerRing::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            let mut next_token = 0u64;
            for (op, v) in ops {
                match op {
                    0..=2 => {
                        ring.insert(next_token, v);
                        model.insert(next_token, v);
                        next_token += 1;
                    }
                    3 | 4 => {
                        // Remove an arbitrary (possibly absent) token.
                        let t = v % next_token.max(1);
                        prop_assert_eq!(ring.remove(t), model.remove(&t));
                    }
                    _ => {
                        ring.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(bytes_of(&ring), bytes_of(&model));
            }
            let back = TimerRing::<u64>::restore(&mut Reader::new(&bytes_of(&ring))).unwrap();
            prop_assert_eq!(bytes_of(&back), bytes_of(&ring));
            // Restored rings accept the next sequential token even when
            // the newest pre-checkpoint timers had already fired.
            let mut back = back;
            back.insert(next_token, 7);
            prop_assert_eq!(back.remove(next_token), Some(7));
        }
    }
}
