//! The concurrent sharded HI hash table: a fixed [`shard_of`] router over
//! independently locked, independently **resizable** Robin Hood arenas
//! ([`AtomicHiHashTable::resizable`]). It is phase-free like a single
//! arena — inserts, removes and lookups interleave arbitrarily, lookups are
//! lock-free — but updates to *different* shards run fully in parallel, and
//! each shard migrates online to [`cap_for`](crate::cap_for) of its own key count (see the
//! `hi_hashtable::threaded` docs for the protocol).
//!
//! The shard map is fixed, so the **global** memory representation — per
//! shard, the capacity word followed by the live arena prefix — is a pure
//! function of the abstract key set: canonical layouts per shard,
//! concatenated in shard order. That is what
//! [`ShardedHiHashTable::memory`] exposes and
//! [`ShardedHiHashTable::canonical_memory`] predicts.
//!
//! Honest reductions, mirrored in the ROADMAP: a resize serializes its
//! own shard (other shards proceed; lookups of present keys proceed), the
//! per-shard seqlock words still leak update counts, updates within one
//! shard are Blocking, and the shard *count* is fixed at construction —
//! only capacity scales online, not the shard map itself.

use hi_hashtable::AtomicHiHashTable;

use crate::shard_of;

/// The sharded HI hash set over `{1..=t}`: keys route to resizable
/// [`AtomicHiHashTable`] arenas through the fixed [`shard_of`] map. All
/// operations take `&self` and may run from any number of threads in any
/// mix; updates to different shards do not contend.
#[derive(Debug)]
pub struct ShardedHiHashTable {
    t: u32,
    shards: Vec<AtomicHiHashTable>,
}

impl ShardedHiHashTable {
    /// Creates an empty table over `{1..=t}` with `shards` shards, each
    /// starting at logical capacity `base` and physically provisioned for
    /// its worst-case domain slice.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`, `shards == 0` or `base == 0`.
    pub fn new(t: u32, shards: usize, base: usize) -> Self {
        assert!(t >= 1, "domain must be nonempty");
        assert!(shards >= 1, "need at least one shard");
        assert!(base >= 1, "capacity base must be at least 1");
        let mut counts = vec![0usize; shards];
        for key in 1..=t {
            counts[shard_of(key, shards)] += 1;
        }
        ShardedHiHashTable {
            t,
            shards: counts
                .into_iter()
                .map(|max_keys| AtomicHiHashTable::resizable(base, max_keys))
                .collect(),
        }
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to shard `i` (for per-shard audits).
    pub fn shard(&self, i: usize) -> &AtomicHiHashTable {
        &self.shards[i]
    }

    /// The shard `key` routes to.
    pub fn shard_index(&self, key: u32) -> usize {
        shard_of(key, self.shards.len())
    }

    fn route(&self, key: u32) -> &AtomicHiHashTable {
        assert!((1..=self.t).contains(&key), "element {key} out of domain");
        &self.shards[shard_of(key, self.shards.len())]
    }

    /// Total number of keys stored. Exact at state-quiescent points.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the table is empty. Exact at state-quiescent points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `key`. Returns `true` if newly added.
    pub fn insert(&self, key: u32) -> bool {
        self.route(key).insert(key)
    }

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&self, key: u32) -> bool {
        self.route(key).remove(key)
    }

    /// Membership test: lock-free.
    pub fn contains(&self, key: u32) -> bool {
        self.route(key).contains(key)
    }

    /// Completed capacity migrations across all shards.
    pub fn resizes(&self) -> u64 {
        self.shards.iter().map(|s| s.resizes()).sum()
    }

    /// Total nanoseconds updates have spent inside migrations, across all
    /// shards.
    pub fn resize_nanos(&self) -> u64 {
        self.shards.iter().map(|s| s.resize_nanos()).sum()
    }

    /// The keys currently stored, sorted (the abstract state). Only
    /// meaningful at state-quiescent points.
    pub fn keys(&self) -> Vec<u32> {
        let mut keys: Vec<u32> = self.shards.iter().flat_map(|s| s.keys()).collect();
        keys.sort_unstable();
        keys
    }

    /// The global memory representation: each shard's
    /// [`view`](AtomicHiHashTable::view) (capacity word + live arena
    /// prefix), concatenated in shard order. At state-quiescent points this
    /// equals [`canonical_memory`](Self::canonical_memory) of the abstract
    /// key set — the shard map and every per-shard layout are pure
    /// functions of the key set.
    pub fn memory(&self) -> Vec<u64> {
        self.shards.iter().flat_map(|s| s.view()).collect()
    }

    /// The canonical [`memory`](Self::memory) image of a key set: the
    /// composed per-shard oracle every audit compares against.
    pub fn canonical_memory(&self, keys: impl IntoIterator<Item = u32>) -> Vec<u64> {
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for key in keys {
            per_shard[shard_of(key, self.shards.len())].push(key);
        }
        self.shards
            .iter()
            .zip(per_shard)
            .flat_map(|(shard, keys)| shard.canonical_view(keys))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use std::collections::BTreeSet;

    #[test]
    fn sequential_equivalence_with_resizes() {
        let table = ShardedHiHashTable::new(64, 4, 2);
        let mut reference: BTreeSet<u32> = BTreeSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let k = rng.gen_range(1u32..=64);
            match rng.gen_range(0u8..3) {
                0 => assert_eq!(table.insert(k), reference.insert(k), "insert {k}"),
                1 => assert_eq!(table.remove(k), reference.remove(&k), "remove {k}"),
                _ => assert_eq!(table.contains(k), reference.contains(&k), "contains {k}"),
            }
            assert_eq!(table.len(), reference.len());
        }
        assert_eq!(table.keys(), reference.iter().copied().collect::<Vec<_>>());
        assert_eq!(
            table.memory(),
            table.canonical_memory(reference.iter().copied()),
            "quiescent memory must be the composed canonical image"
        );
        assert!(
            table.resizes() > 0,
            "a 2k-op churn over 64 keys must cross capacity boundaries"
        );
    }

    #[test]
    fn capacity_is_a_function_of_the_key_count() {
        // Two very different histories reaching the same key set must agree
        // on every shard's capacity word (no resize hysteresis).
        let a = ShardedHiHashTable::new(32, 2, 2);
        for k in 1..=10u32 {
            a.insert(k);
        }
        let b = ShardedHiHashTable::new(32, 2, 2);
        for k in 1..=32u32 {
            b.insert(k);
        }
        for k in 11..=32u32 {
            b.remove(k);
        }
        assert!(b.resizes() > a.resizes(), "the detour must have migrated");
        assert_eq!(a.memory(), b.memory(), "capacity words must converge too");
    }

    #[test]
    fn growth_and_shrink_pass_through_every_boundary() {
        let table = ShardedHiHashTable::new(128, 2, 2);
        for k in 1..=128u32 {
            table.insert(k);
        }
        let grown = table.resizes();
        assert!(grown >= 8, "128 keys into base-2 shards: many grows");
        for k in 1..=128u32 {
            table.remove(k);
        }
        assert!(table.resizes() > grown, "removal must shrink back");
        assert!(table.is_empty());
        for shard in 0..table.num_shards() {
            assert_eq!(
                table.shard(shard).capacity(),
                2,
                "an empty shard is back at base capacity"
            );
        }
        assert_eq!(table.memory(), table.canonical_memory([]));
    }

    #[test]
    fn updates_in_distinct_shards_do_not_contend() {
        // Smoke check of the scale-out point: concurrent updates to
        // different shards proceed in parallel (no global lock), and the
        // end state is canonical.
        let table = ShardedHiHashTable::new(1 << 12, 8, 2);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let table = &table;
                s.spawn(move || {
                    for k in 1..=(1u32 << 12) {
                        if table.shard_index(k) == t as usize % table.num_shards() {
                            table.insert(k);
                        }
                    }
                });
            }
        });
        assert_eq!(table.len(), 1 << 12);
        assert_eq!(table.memory(), table.canonical_memory(1..=(1u32 << 12)));
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_keys_are_rejected() {
        ShardedHiHashTable::new(8, 2, 2).insert(9);
    }
}
