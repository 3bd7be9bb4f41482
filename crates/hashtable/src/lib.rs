#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! A phase-concurrent history-independent hash table, after Shun and
//! Blelloch — the only prior work on concurrent history independence the
//! paper identifies (§1, related work, reference [42]).
//!
//! The table stores keys by linear probing with the **Robin Hood** rule and
//! a deterministic tie-break, which makes the layout a *function of the key
//! set*: whatever the insertion order, and whatever interleaving a
//! concurrent insert phase takes, the memory converges to the same canonical
//! array — history independence by unique representability (the
//! Hartline et al. characterization the paper builds on).
//!
//! *Phase-concurrent* means only operations of the same type run
//! concurrently (the restriction the paper points out in [42]): the
//! [`phase::AtomicHashTable`] allows a concurrent **insert phase** and a
//! concurrent **lookup phase**; deletions are a sequential phase
//! (backward-shift deletion, canonical again afterwards). The paper's own
//! universal construction (Algorithm 5) is exactly what removes this
//! same-type restriction — at the cost of serializing through `head`.
//!
//! [`threaded::AtomicHiHashTable`] removes the restriction *natively*,
//! following the authors' follow-up *History-Independent Concurrent Hash
//! Tables* (arXiv:2503.21016): insert, remove and lookup interleave
//! arbitrarily, lookups are lock-free, and the slot array is canonical at
//! every state-quiescent point. It is the one seqlocked Robin Hood arena of
//! the workspace: [`AtomicHiHashTable::new`] fixes its capacity, and
//! [`AtomicHiHashTable::resizable`] makes the live capacity the pure
//! function [`cap_for`] of the key count, migrating in place with
//! [`resize::rewrite_plan`]. The sharded table of `hi_shard` is a
//! [`shard_of`] router over resizable arenas.
//!
//! The modules:
//!
//! * [`seq`] — the sequential canonical table and the leaky tombstone
//!   contrast ([`seq::TombstoneHashTable`] leaks deleted keys' past
//!   presence — the table equivalent of the §4 register leak).
//! * [`phase`] — the phase-concurrent table of Shun and Blelloch.
//! * [`threaded`] — the phase-free arena, fixed or resizable.
//! * [`resize`] — the never-absent in-place migration order.
//! * [`sim`] — one slot-level step machine, pluggable into
//!   `hi_sim`/`hi_spec`, behind both simulator twins:
//!   [`SimHiHashTable`] (one fixed arena) and [`SimShardedTable`] (a
//!   [`shard_of`] router over resizable arenas).

pub mod phase;
pub mod resize;
pub mod seq;
pub mod sim;
pub mod threaded;

pub use phase::AtomicHashTable;
pub use resize::rewrite_plan;
pub use seq::{HiHashTable, TombstoneHashTable};
pub use sim::{SimHiHashTable, SimShardedTable};
pub use threaded::AtomicHiHashTable;

/// The hash function shared by all tables: a fixed multiplicative hash.
/// Fixed (not randomized) so the canonical layout is determined at
/// initialization, as Proposition 3 requires of deterministic HI structures.
pub fn slot_of(key: u32, capacity: usize) -> usize {
    debug_assert!(key != 0, "key 0 is reserved for empty slots");
    let h = (u64::from(key)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % capacity
}

/// The probe distance of `key` if stored at `slot` (wrapping).
pub fn displacement(key: u32, slot: usize, capacity: usize) -> usize {
    let home = slot_of(key, capacity);
    (slot + capacity - home) % capacity
}

/// The Robin Hood priority rule with deterministic tie-break: does `incumbent`
/// keep its slot against `candidate` probing at this slot?
///
/// An incumbent keeps the slot if its displacement is strictly larger, or on
/// equal displacement if its key is larger. (Any fixed total order works;
/// what matters for unique representability is that ties never depend on
/// arrival order.)
pub fn incumbent_wins(incumbent: u32, candidate: u32, slot: usize, capacity: usize) -> bool {
    let di = displacement(incumbent, slot, capacity);
    let dc = displacement(candidate, slot, capacity);
    di > dc || (di == dc && incumbent >= candidate)
}

/// The canonical Robin Hood layout of a key set: every key inserted into a
/// fresh sequential [`HiHashTable`] — the unique representation the
/// concurrent backends, their sim twin and the test oracles all compare
/// against.
///
/// # Panics
///
/// Panics if any key is 0 or the keys do not fit in `capacity`.
pub fn canonical_layout(capacity: usize, keys: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let mut oracle = HiHashTable::new(capacity);
    for k in keys {
        oracle.insert(k);
    }
    oracle.memory().to_vec()
}

/// The shard map: a fixed multiplicative split-hash, decorrelated from the
/// in-shard probe hash ([`slot_of`]) by a different odd constant so a shard
/// does not concentrate its keys on few home slots. Fixed (not randomized)
/// for the same reason as the probe hash: the canonical representation
/// must be determined at initialization.
pub fn shard_of(key: u32, shards: usize) -> usize {
    debug_assert!(key != 0, "key 0 is reserved for empty slots");
    let h = u64::from(key).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    ((h >> 32) as usize) % shards
}

/// The capacity a resizable arena holding `count` keys must have: the
/// smallest `base << i` with `4 * count <= 3 * cap` (load factor at most
/// 3/4, so at least one slot is always empty and every probe walk
/// terminates). A pure function of the key count — *the* property that
/// keeps capacity inside the canonical representation instead of leaking
/// resize history.
pub fn cap_for(count: usize, base: usize) -> usize {
    assert!(base >= 1, "capacity base must be at least 1");
    let mut cap = base;
    while 4 * count > 3 * cap {
        cap *= 2;
    }
    cap
}

/// The Robin Hood carry of `key` through the contiguous occupied `run`
/// starting at slot `a` (the run must end just before an empty slot): the
/// `(slot, value)` writes that turn the run into the post-insert layout.
///
/// The writes come **far-end first** — the duplicate-then-overwrite order:
/// the carry moves each displaced incumbent strictly forward, so every write
/// lands a key *before* the write that overwrites its old copy, and no
/// present key is ever absent from memory mid-rewrite. Shared by the
/// threaded backend and its sim twin so the two can never drift.
pub fn carry_writes(key: u32, a: usize, run: &[u32], capacity: usize) -> Vec<(usize, u32)> {
    // new[j] is the post-insert content of slot (a + j) % capacity.
    let mut new = Vec::with_capacity(run.len() + 1);
    let mut cur = key;
    for (j, &occ) in run.iter().enumerate() {
        let slot = (a + j) % capacity;
        if incumbent_wins(occ, cur, slot, capacity) {
            new.push(occ);
        } else {
            new.push(cur);
            cur = occ;
        }
    }
    new.push(cur); // lands in the empty slot after the run
    let mut writes = Vec::new();
    for j in (0..new.len()).rev() {
        let old = if j < run.len() { run[j] } else { 0 };
        if new[j] != old {
            writes.push(((a + j) % capacity, new[j]));
        }
    }
    writes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_is_total_and_fixed() {
        for shards in 1..=8 {
            for key in 1..=1_000u32 {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards), "routing must be stable");
            }
        }
    }

    #[test]
    fn shard_map_spreads_a_dense_domain() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for key in 1..=4096u32 {
            counts[shard_of(key, shards)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            max - min < 4096 / shards,
            "shard occupancy {counts:?} is badly unbalanced"
        );
    }

    #[test]
    fn cap_is_a_pure_step_function_of_count() {
        assert_eq!(cap_for(0, 1), 1);
        assert_eq!(cap_for(1, 1), 2);
        assert_eq!(cap_for(2, 1), 4);
        assert_eq!(cap_for(3, 1), 4);
        assert_eq!(cap_for(4, 1), 8);
        assert_eq!(cap_for(0, 2), 2);
        assert_eq!(cap_for(1, 2), 2);
        assert_eq!(cap_for(2, 2), 4);
        for count in 0..10_000 {
            let cap = cap_for(count, 2);
            assert!(4 * count <= 3 * cap, "load bound violated at {count}");
            assert!(cap > count, "no empty slot left at {count}");
            // Minimality: the next level down would break the load bound.
            if cap > 2 {
                assert!(
                    4 * count > 3 * (cap / 2),
                    "cap {cap} not minimal at {count}"
                );
            }
        }
    }

    #[test]
    fn single_op_moves_capacity_at_most_one_level() {
        // An insert or remove changes the count by one; the capacity rule
        // must then move by at most one doubling, which is what bounds a
        // migration to one rewrite.
        for base in [1usize, 2, 4] {
            for count in 1..5_000usize {
                let here = cap_for(count, base);
                let below = cap_for(count - 1, base);
                assert!(
                    here == below || here == below * 2,
                    "count {count} base {base}: cap jumped {below} -> {here}"
                );
            }
        }
    }

    #[test]
    fn displacement_wraps() {
        let cap = 8;
        for key in 1..100u32 {
            let home = slot_of(key, cap);
            assert_eq!(displacement(key, home, cap), 0);
            assert_eq!(displacement(key, (home + 3) % cap, cap), 3);
        }
    }

    #[test]
    fn carry_writes_reproduce_the_sequential_insert() {
        // Applying the shared carry to a canonical array must yield exactly
        // the canonical array of the enlarged key set, for every insertion
        // point the probe can find.
        let cap = 16;
        let keys = [7u32, 15, 23, 31, 2, 18, 34];
        for new_key in (1..=40).filter(|k| !keys.contains(k)) {
            let mut mem = canonical_layout(cap, keys.iter().copied());
            // Find the insertion point and run exactly as the backends do.
            let mut a = slot_of(new_key, cap);
            while mem[a] != 0 && incumbent_wins(mem[a], new_key, a, cap) {
                a = (a + 1) % cap;
            }
            let mut run = Vec::new();
            let mut z = a;
            while mem[z] != 0 {
                run.push(mem[z]);
                z = (z + 1) % cap;
            }
            for (slot, val) in carry_writes(new_key, a, &run, cap) {
                mem[slot] = val;
            }
            let expected = canonical_layout(cap, keys.iter().copied().chain([new_key]));
            assert_eq!(mem, expected, "inserting {new_key}");
        }
    }

    #[test]
    fn priority_is_total_and_antisymmetric() {
        let cap = 16;
        for a in 1..40u32 {
            for b in 1..40u32 {
                if a == b {
                    continue;
                }
                for slot in 0..cap {
                    let ab = incumbent_wins(a, b, slot, cap);
                    let ba = incumbent_wins(b, a, slot, cap);
                    assert!(ab != ba, "exactly one of {a},{b} wins slot {slot}");
                }
            }
        }
    }
}
