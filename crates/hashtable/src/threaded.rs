//! The phase-free concurrent HI hash table: `insert`, `remove` and
//! `contains` may be invoked concurrently, in any mix, from any number of
//! threads — the restriction the paper points out in the phase-concurrent
//! tables of [42] is gone from the API, following the direction of the
//! authors' follow-up *History-Independent Concurrent Hash Tables*
//! (arXiv:2503.21016).
//!
//! # Design
//!
//! The memory representation is the same canonical Robin Hood array as
//! [`HiHashTable`](crate::seq::HiHashTable): linear probing, the fixed
//! priority rule of [`incumbent_wins`], backward-shift
//! deletion, no tombstones. Unique representability makes the slot array a
//! function of the abstract key set, so the table is **state-quiescent HI**:
//! whenever no update is in flight, `memory()` equals the canonical layout.
//!
//! Concurrency is split by operation kind:
//!
//! * **Lookups never block and never write.** A `contains` walks the probe
//!   sequence; sighting the key anywhere is a valid *present* verdict at the
//!   instant of that read. An *absent* verdict is accepted only if a seqlock
//!   word (`seq`) is even and unchanged across the whole walk — i.e. the walk
//!   ran inside an update-free window, where the array is canonical and the
//!   Robin Hood terminator genuinely proves absence. Otherwise the walk
//!   retries; it can be starved only while updates keep completing, so
//!   lookups are lock-free.
//! * **Updates serialize through `seq`** (CAS even→odd to acquire, store +2
//!   to release) and perform their multi-slot rewrites in a
//!   *duplicate-then-overwrite* order chosen so that **no present key is
//!   ever absent from the array mid-update** — an insert's displacement
//!   chain is written far-end first, a removal's backward shift near-end
//!   first. A concurrent lookup can therefore never miss a present key
//!   without the seqlock also telling it to retry, and never sights a key
//!   that was not (at that instant) either present or mid-operation.
//!
//! # Capacity rules
//!
//! The constructor fixes how the live capacity is chosen; it is not a
//! run-time option.
//!
//! * [`AtomicHiHashTable::new`] fixes it. The memory representation is
//!   the bare slot array.
//! * [`AtomicHiHashTable::resizable`] provisions a physical arena once,
//!   from the worst-case key count, but uses only a prefix `0..cap`, where
//!   `cap` is [`cap_for`]`(len, base)` — a pure function of the key count,
//!   so capacity is part of the canonical representation: the capacity
//!   word followed by the live prefix. `cap` changes only inside the
//!   seqlock critical section, so a lookup's `seq` validation covers its
//!   `cap` read for free. An update that crosses a capacity boundary
//!   migrates the arena in place before it releases the lock, in
//!   [`rewrite_plan`]'s never-absent write order; lookups running through
//!   the migration still sight every surviving key, and their absent
//!   verdicts retry because `seq` is odd. Off-boundary updates take the
//!   same carry and backward shift as the fixed table.
//!
//! This is an engineering reduction of the follow-up paper: their table
//! makes *updates* lock-free as well (a substantially more intricate
//! protocol); here updates are mutually exclusive and only lookups are
//! lock-free. One further honest caveat: the seqlock word is an operation
//! counter, so while the slot array — the memory representation proper,
//! what [`view`](AtomicHiHashTable::view) exposes — is canonical at
//! state-quiescent points, the synchronization word leaks an update count
//! (the paper's bounded-timestamp machinery would be needed to remove it).
//! Both gaps are recorded in the ROADMAP.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crate::resize::rewrite_plan;
use crate::{canonical_layout, cap_for, carry_writes, displacement, incumbent_wins, slot_of};

const ORD: Ordering = Ordering::SeqCst;

/// The phase-free concurrent HI hash set over nonzero `u32` keys. All
/// operations take `&self` and may run from any number of threads in any
/// mix; see the module docs for the concurrency contract and the two
/// capacity rules.
#[derive(Debug)]
pub struct AtomicHiHashTable {
    /// The physical slot array; only the live prefix `0..capacity()` is
    /// used, the tail is zero.
    slots: Box<[AtomicU32]>,
    /// Seqlock over updates: odd while an update is rewriting slots.
    seq: AtomicU64,
    /// Number of stored keys; only updated under the seqlock. The live
    /// prefix keeps at least one slot empty (see [`insert`](Self::insert))
    /// so that every probe walk terminates.
    len: AtomicUsize,
    /// `Some` iff the arena was built by [`resizable`](Self::resizable).
    /// Boxed so a fixed table keeps only one pointer, not the resize
    /// state, on the cache line it shares with `seq`.
    resizable: Option<Box<Resizable>>,
}

/// What only a resizable arena carries.
#[derive(Debug)]
struct Resizable {
    /// The smallest live capacity ([`cap_for`]'s floor).
    base: usize,
    /// Live capacity: always `cap_for(len, base)`. Changed only inside the
    /// seqlock critical section.
    cap: AtomicUsize,
    /// Completed capacity migrations (grows and shrinks).
    resizes: AtomicU64,
    /// Total nanoseconds update operations spent inside migrations.
    resize_nanos: AtomicU64,
}

impl AtomicHiHashTable {
    /// Creates an empty table with `capacity` slots. The table stores at
    /// most `capacity - 1` keys (one slot always stays empty so probe walks
    /// terminate).
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "a probe-terminating table needs 2+ slots");
        Self::with_arena(capacity, None)
    }

    /// Creates an empty resizable arena that can hold up to `max_keys`
    /// keys: the physical arena is provisioned at `cap_for(max_keys, base)`
    /// once, so a migration never allocates, and the live capacity starts
    /// at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base == 0`.
    pub fn resizable(base: usize, max_keys: usize) -> Self {
        Self::with_arena(
            cap_for(max_keys, base),
            Some(Box::new(Resizable {
                base,
                cap: AtomicUsize::new(cap_for(0, base)),
                resizes: AtomicU64::new(0),
                resize_nanos: AtomicU64::new(0),
            })),
        )
    }

    fn with_arena(len: usize, resizable: Option<Box<Resizable>>) -> Self {
        AtomicHiHashTable {
            slots: (0..len).map(|_| AtomicU32::new(0)).collect(),
            seq: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            resizable,
        }
    }

    /// Live capacity in slots. Exact at state-quiescent points.
    pub fn capacity(&self) -> usize {
        match &self.resizable {
            None => self.slots.len(),
            Some(r) => r.cap.load(ORD),
        }
    }

    /// The live capacity the table has when it holds `count` keys: the
    /// fixed capacity, or `cap_for(count, base)` for a resizable arena.
    pub fn capacity_for(&self, count: usize) -> usize {
        match &self.resizable {
            None => self.slots.len(),
            Some(r) => cap_for(count, r.base),
        }
    }

    /// Number of keys stored. Exact at state-quiescent points.
    pub fn len(&self) -> usize {
        self.len.load(ORD)
    }

    /// Whether the table is empty. Exact at state-quiescent points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Completed capacity migrations so far (always 0 for a fixed table).
    pub fn resizes(&self) -> u64 {
        self.resizable.as_ref().map_or(0, |r| r.resizes.load(ORD))
    }

    /// Total nanoseconds updates have spent migrating this arena.
    pub fn resize_nanos(&self) -> u64 {
        self.resizable
            .as_ref()
            .map_or(0, |r| r.resize_nanos.load(ORD))
    }

    /// Whether no update is in flight (the seqlock word is even).
    pub fn is_quiescent(&self) -> bool {
        self.seq.load(ORD) % 2 == 0
    }

    /// The live slot prefix (0 = empty). A consistent snapshot only at
    /// state-quiescent points, where it equals the canonical layout of the
    /// abstract key set.
    pub fn memory(&self) -> Vec<u32> {
        self.slots[..self.capacity()]
            .iter()
            .map(|s| s.load(ORD))
            .collect()
    }

    /// The memory representation: the bare slot array of a fixed table, or
    /// the capacity word followed by the live prefix of a resizable arena.
    /// At state-quiescent points it equals
    /// [`canonical_view`](Self::canonical_view) of the key set.
    pub fn view(&self) -> Vec<u64> {
        self.represent(self.memory())
    }

    /// The canonical [`view`](Self::view) of a key set this table would
    /// hold: what an audit compares against.
    pub fn canonical_view(&self, keys: impl IntoIterator<Item = u32>) -> Vec<u64> {
        let keys: Vec<u32> = keys.into_iter().collect();
        self.represent(canonical_layout(self.capacity_for(keys.len()), keys))
    }

    /// The representation of a live slot prefix: the prefix itself, led by
    /// its length (the capacity word) for a resizable arena.
    fn represent(&self, live: Vec<u32>) -> Vec<u64> {
        let cap_word = self.resizable.as_ref().map(|_| live.len() as u64);
        cap_word
            .into_iter()
            .chain(live.into_iter().map(u64::from))
            .collect()
    }

    /// The keys currently stored, sorted (the abstract state). Only
    /// meaningful at state-quiescent points.
    pub fn keys(&self) -> Vec<u32> {
        let mut keys: Vec<u32> = self.memory().into_iter().filter(|&k| k != 0).collect();
        keys.sort_unstable();
        keys
    }

    /// Acquires the update seqlock; returns the odd value now in `seq`.
    fn acquire(&self) -> u64 {
        loop {
            let s = self.seq.load(ORD);
            if s % 2 == 0 && self.seq.compare_exchange(s, s + 1, ORD, ORD).is_ok() {
                return s + 1;
            }
            std::hint::spin_loop();
        }
    }

    /// Releases the update seqlock acquired at odd value `s`.
    fn release(&self, s: u64) {
        self.seq.store(s + 1, ORD);
    }

    /// Walks `key`'s probe sequence in the live prefix `0..cap`: the one
    /// probe loop behind both the locked update probe and the lock-free
    /// lookup. `Some(Ok(i))` if `key` sits at slot `i`; `Some(Err(i))` with
    /// the first slot at which `key` would be stored (empty, or an
    /// incumbent that loses); `None` if a full turn found no terminator.
    fn walk(&self, key: u32, cap: usize) -> Option<Result<usize, usize>> {
        let mut i = slot_of(key, cap);
        for _ in 0..cap {
            let occ = self.slots[i].load(ORD);
            if occ == key {
                return Some(Ok(i));
            }
            if occ == 0 || !incumbent_wins(occ, key, i, cap) {
                return Some(Err(i));
            }
            i = (i + 1) % cap;
        }
        None
    }

    /// Migrates the live image from `cap` to `new_cap` in place (both
    /// directions), leaving the arena holding the canonical layout of
    /// `keys` at `new_cap` and publishing the new capacity. Runs under the
    /// held seqlock; every individual write keeps surviving keys present
    /// ([`rewrite_plan`]'s contract).
    fn migrate(&self, cap: usize, new_cap: usize, keys: impl IntoIterator<Item = u32>) {
        let r = self
            .resizable
            .as_ref()
            .expect("only a resizable arena changes capacity");
        let started = Instant::now();
        let span = cap.max(new_cap);
        let current: Vec<u32> = self.slots[..span].iter().map(|s| s.load(ORD)).collect();
        let mut target = canonical_layout(new_cap, keys);
        target.resize(span, 0);
        for (slot, val) in rewrite_plan(&current, &target) {
            self.slots[slot].store(val, ORD);
        }
        r.cap.store(new_cap, ORD);
        r.resizes.fetch_add(1, ORD);
        r.resize_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, ORD);
    }

    /// Adds `key`. Returns `true` if it was newly added, `false` if already
    /// present. Callable concurrently with any other operation. A
    /// resizable arena grows first when the insert crosses a capacity
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0`, or if the insert would fill the last empty
    /// slot — the live prefix keeps one slot free so that every probe walk
    /// (its own, and every concurrent lookup's) terminates; for a
    /// resizable arena, the key count outgrew its provisioned arena (a
    /// routing bug). The seqlock is released before the panic, so the
    /// table stays usable.
    pub fn insert(&self, key: u32) -> bool {
        self.update(key, true)
    }

    /// Removes `key`. Returns `true` if it was present. Callable
    /// concurrently with any other operation. A resizable arena shrinks
    /// when the removal crosses a capacity boundary.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0`.
    pub fn remove(&self, key: u32) -> bool {
        self.update(key, false)
    }

    /// One update under the seqlock: inserts `key` if `insert`, else
    /// removes it. Returns whether the key set changed.
    fn update(&self, key: u32, insert: bool) -> bool {
        assert!(key != 0, "key 0 is reserved");
        let s = self.acquire();
        let cap = self.capacity();
        let probe = self
            .walk(key, cap)
            .unwrap_or_else(|| panic!("probe of {key} found no terminator: table full?"));
        if probe.is_ok() == insert {
            // A duplicate insert or an absent remove changes nothing.
            self.release(s);
            return false;
        }
        let len = self.len.load(ORD);
        let new_len = if insert { len + 1 } else { len - 1 };
        let new_cap = self.capacity_for(new_len);
        if new_len >= new_cap || new_cap > self.slots.len() {
            self.release(s);
            panic!(
                "insert of {key}: {new_len} keys need {new_cap} live slots of a \
                 {}-slot arena that must keep one slot empty",
                self.slots.len()
            );
        }
        match probe {
            _ if new_cap != cap => {
                let live = self.memory().into_iter();
                let keys = live.filter(|&k| k != 0 && k != key);
                self.migrate(cap, new_cap, keys.chain(insert.then_some(key)));
            }
            Err(a) => {
                // Collect the contiguous occupied run from the insertion
                // point to the first empty slot (one exists: len < cap - 1),
                // then apply the shared Robin Hood carry in its
                // duplicate-then-overwrite order, so no present key is ever
                // absent.
                let mut run = Vec::new();
                let mut z = a;
                loop {
                    let occ = self.slots[z].load(ORD);
                    if occ == 0 {
                        break;
                    }
                    run.push(occ);
                    z = (z + 1) % cap;
                }
                for (slot, val) in carry_writes(key, a, &run, cap) {
                    self.slots[slot].store(val, ORD);
                }
            }
            Ok(p) => {
                // Backward shift, near-end first: each displaced successor
                // is written one slot back (duplicating it) before its old
                // copy is overwritten by the next step; the final slot of
                // the shifted run is cleared last. No present key is ever
                // absent.
                let mut hole = p;
                loop {
                    let next = (hole + 1) % cap;
                    let occ = self.slots[next].load(ORD);
                    if occ == 0 || displacement(occ, next, cap) == 0 {
                        break;
                    }
                    self.slots[hole].store(occ, ORD);
                    hole = next;
                }
                self.slots[hole].store(0, ORD);
            }
        }
        self.len.store(new_len, ORD);
        self.release(s);
        true
    }

    /// Membership test: lock-free, never blocks updates, valid across
    /// migrations.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0`.
    pub fn contains(&self, key: u32) -> bool {
        assert!(key != 0, "key 0 is reserved");
        loop {
            let s1 = self.seq.load(ORD);
            // The live capacity changes only inside the critical section,
            // so an even, unchanged seq at the verdict also certifies it.
            match self.walk(key, self.capacity()) {
                // A sighting is a valid linearization point on its own: at
                // the instant of that load the key was in memory.
                Some(Ok(_)) => return true,
                // Absence is provable only from a canonical array; the walk
                // must have run inside an update-free window.
                Some(Err(_)) if s1 % 2 == 0 && self.seq.load(ORD) == s1 => return false,
                // An update was rewriting under us (or, without a
                // terminator, the table is over-full). Retry.
                _ => std::hint::spin_loop(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::HiHashTable;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn sequential_equivalence_single_thread() {
        let table = AtomicHiHashTable::new(32);
        let mut reference = HiHashTable::new(32);
        for k in [5u32, 21, 37, 9, 13, 45] {
            assert!(table.insert(k));
            reference.insert(k);
        }
        assert!(!table.insert(21), "duplicate rejected");
        assert_eq!(table.memory(), reference.memory());
        assert!(table.contains(37));
        assert!(!table.contains(99));
        assert!(table.remove(21));
        assert!(!table.remove(21));
        reference.remove(21);
        assert_eq!(table.memory(), reference.memory());
    }

    #[test]
    fn len_tracks_the_key_count() {
        let table = AtomicHiHashTable::new(8);
        assert!(table.is_empty());
        for (i, k) in [4u32, 9, 13].into_iter().enumerate() {
            table.insert(k);
            assert_eq!(table.len(), i + 1);
        }
        table.insert(9); // duplicate: no growth
        assert_eq!(table.len(), 3);
        table.remove(4);
        table.remove(4); // absent: no shrink
        assert_eq!(table.len(), 2);
    }

    #[test]
    #[should_panic(expected = "must keep one slot empty")]
    fn filling_the_last_slot_is_rejected() {
        // The table must never become full: a full array has no probe
        // terminator, which would livelock concurrent lookups and leave
        // the locked probe without an answer. The last empty slot is reserved.
        let table = AtomicHiHashTable::new(4);
        for k in 1..=4u32 {
            table.insert(k);
        }
    }

    #[test]
    fn capacity_minus_one_keys_still_work() {
        let table = AtomicHiHashTable::new(4);
        for k in 1..=3u32 {
            assert!(table.insert(k));
        }
        assert!(table.contains(2));
        assert!(
            !table.contains(9),
            "absent lookup terminates at the reserved empty slot"
        );
        assert!(table.remove(2));
        assert!(table.insert(9));
        let mem = table.memory();
        assert_eq!(mem.iter().filter(|&&k| k == 0).count(), 1);
    }

    /// Both capacity rules over the same protocol: a fixed table with
    /// `cap` slots and a resizable arena provisioned for `max_keys` keys.
    fn both_rules(cap: usize, base: usize, max_keys: usize) -> [AtomicHiHashTable; 2] {
        [
            AtomicHiHashTable::new(cap),
            AtomicHiHashTable::resizable(base, max_keys),
        ]
    }

    #[test]
    fn mixed_concurrent_workload_converges_to_canonical() {
        // The phase-free headline: inserts, removes and lookups from all
        // threads at once, no phase discipline anywhere; afterwards the
        // memory (capacity word included) is the canonical view of the
        // surviving key set.
        for seed in 0..12u64 {
            for table in both_rules(64, 2, 39) {
                std::thread::scope(|s| {
                    for t in 0..4u64 {
                        let table = &table;
                        s.spawn(move || {
                            let mut rng = StdRng::seed_from_u64(seed * 13 + t);
                            for _ in 0..400 {
                                let k = rng.gen_range(1u32..40);
                                match rng.gen_range(0u8..3) {
                                    0 => {
                                        table.insert(k);
                                    }
                                    1 => {
                                        table.remove(k);
                                    }
                                    _ => {
                                        table.contains(k);
                                    }
                                }
                            }
                        });
                    }
                });
                assert!(table.is_quiescent());
                assert_eq!(
                    table.view(),
                    table.canonical_view(table.keys()),
                    "seed {seed}: quiescent memory is not canonical for its own key set"
                );
            }
        }
    }

    #[test]
    fn racing_duplicate_inserts_place_exactly_one_copy() {
        // The hazard the phase-concurrent table documents (and can only
        // debug-assert about) is handled here by construction: updates
        // serialize, so exactly one of the racing inserts reports success.
        // In the resizable arena (base 1) the winning insert migrates.
        for _ in 0..50 {
            for table in both_rules(16, 1, 4) {
                let successes = std::sync::atomic::AtomicUsize::new(0);
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let table = &table;
                        let successes = &successes;
                        s.spawn(move || {
                            if table.insert(7) {
                                successes.fetch_add(1, ORD);
                            }
                        });
                    }
                });
                assert_eq!(successes.load(ORD), 1, "exactly one insert wins");
                let copies = table.memory().iter().filter(|&&k| k == 7).count();
                assert_eq!(copies, 1, "exactly one copy in memory");
            }
        }
    }

    /// Key 1 is inserted once and never removed while all other keys
    /// churn; every contains(1) must return true, however the updates move
    /// the array around it. `migrates` says whether the churn must make the
    /// arena migrate.
    fn stable_key_is_never_missed(table: AtomicHiHashTable, migrates: bool) {
        assert!(table.insert(1));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let table = &table;
            let stop = &stop;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(99);
                while !stop.load(ORD) {
                    let k = rng.gen_range(2u32..=49);
                    if rng.gen_bool(0.5) {
                        table.insert(k);
                    } else {
                        table.remove(k);
                    }
                }
            });
            s.spawn(move || {
                // When the arena must migrate, keep reading until the
                // churn has migrated it several times, so the lookups
                // overlap migrations however the threads are scheduled.
                let mut reads = 0;
                while reads < 20_000 || (migrates && table.resizes() < 16) {
                    assert!(table.contains(1), "a present key was missed");
                    reads += 1;
                }
                stop.store(true, ORD);
            });
        });
        assert_eq!(
            table.resizes() > 0,
            migrates,
            "only the resizable arena migrates"
        );
    }

    #[test]
    fn lookups_never_miss_a_stable_key() {
        stable_key_is_never_missed(AtomicHiHashTable::new(64), false);
    }

    #[test]
    fn lookups_never_miss_a_stable_key_across_migrations() {
        // The churn keeps the key count crossing the 32/64 capacity
        // boundary, so migrations rewrite the arena around key 1.
        stable_key_is_never_missed(AtomicHiHashTable::resizable(2, 49), true);
    }

    #[test]
    fn overflow_panic_releases_the_seqlock() {
        // A resizable arena provisioned for one key: the second insert
        // overflows it and panics. The panic must not leave the seqlock
        // odd, or every later update and absent lookup would spin forever.
        let table = AtomicHiHashTable::resizable(1, 1);
        assert!(table.insert(5));
        let overflow = std::panic::catch_unwind(|| table.insert(6));
        assert!(overflow.is_err(), "the overflowing insert must panic");
        assert!(table.is_quiescent(), "the panic left the seqlock held");
        assert!(!table.contains(7), "absent lookup must terminate");
        assert!(table.remove(5), "in-range update must still succeed");
        assert_eq!(table.view(), table.canonical_view([]));
    }

    #[test]
    fn resizable_arena_below_its_boundary_matches_the_fixed_table() {
        // The off-boundary fast path is shared: a resizable arena whose key
        // count never crosses a capacity boundary must make exactly the
        // fixed table's writes.
        let fixed = AtomicHiHashTable::new(16);
        let resizable = AtomicHiHashTable::resizable(16, 12);
        assert_eq!(resizable.capacity(), 16);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2_000 {
            let k = rng.gen_range(1u32..=40);
            if rng.gen_bool(0.5) && fixed.len() < 12 {
                assert_eq!(fixed.insert(k), resizable.insert(k), "insert {k}");
            } else {
                assert_eq!(fixed.remove(k), resizable.remove(k), "remove {k}");
            }
            assert_eq!(fixed.memory(), resizable.memory());
        }
        assert_eq!(
            resizable.resizes(),
            0,
            "the arena must stay below its boundary"
        );
    }

    #[test]
    fn detour_histories_share_memory() {
        // History independence across real-thread histories: a table that
        // took detours (inserted and removed extra keys, concurrently) ends
        // with the same memory as one built directly.
        let direct = AtomicHiHashTable::new(32);
        for k in [3u32, 11, 19, 27] {
            direct.insert(k);
        }
        let detour = AtomicHiHashTable::new(32);
        std::thread::scope(|s| {
            let detour = &detour;
            s.spawn(move || {
                for k in [3u32, 11, 19, 27] {
                    detour.insert(k);
                }
            });
            s.spawn(move || {
                for k in 40u32..60 {
                    detour.insert(k);
                    detour.remove(k);
                }
            });
        });
        assert_eq!(direct.memory(), detour.memory());
    }
}
