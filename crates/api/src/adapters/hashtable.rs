//! [`ConcurrentObject`] adapter for the phase-free concurrent HI hash table
//! (the arXiv:2503.21016 direction): the first big-state, array-valued
//! memory representation behind the facade.

use hi_core::objects::{HashSetOp, HashSetResp, HashSetSpec, KeySetSpec};
use hi_hashtable::threaded::AtomicHiHashTable;

use crate::object::{ConcurrentObject, HiLevel, ObjectHandle, Progress, Roles};

/// The phase-free Robin Hood HI hash table through the unified facade:
/// `n` symmetric handles, each free to insert, remove and look up
/// concurrently; lookups lock-free; state-quiescent HI over the slot array.
#[derive(Debug)]
pub struct HashTableObject {
    spec: HashSetSpec,
    n: usize,
    table: AtomicHiHashTable,
}

impl HashTableObject {
    /// Creates the table implementing `spec` with `capacity` slots, shared
    /// by `n` handles.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity > spec.t()` (the domain must never fill the
    /// table) and `n >= 1`.
    pub fn new(spec: HashSetSpec, capacity: usize, n: usize) -> Self {
        assert!(
            capacity > spec.t() as usize,
            "capacity {capacity} must exceed the domain size {}",
            spec.t()
        );
        assert!(n >= 1, "at least one handle");
        HashTableObject {
            spec,
            n,
            table: AtomicHiHashTable::new(capacity),
        }
    }

    /// The underlying backend, for backend-specific inspection. The backend
    /// accepts any nonzero `u32` key; mutating it directly with keys outside
    /// the spec's domain breaks the facade's state decode, which
    /// [`abstract_state`](ConcurrentObject::abstract_state) reports loudly.
    pub fn backend(&self) -> &AtomicHiHashTable {
        &self.table
    }
}

/// Role handle of [`HashTableObject`]: all handles are symmetric.
#[derive(Debug)]
pub struct HashTableHandle<'a> {
    table: &'a AtomicHiHashTable,
    t: u32,
}

impl ObjectHandle<HashSetSpec> for HashTableHandle<'_> {
    fn apply(&mut self, op: HashSetOp) -> HashSetResp {
        // Enforce the spec's domain exactly as `HashSetSpec::apply` does:
        // the backend accepts any nonzero `u32`, but an out-of-domain key
        // would not survive the mask decode in `abstract_state`.
        let (HashSetOp::Insert(e) | HashSetOp::Remove(e) | HashSetOp::Contains(e)) = op;
        assert!((1..=self.t).contains(&e), "element {e} out of domain");
        let b = match op {
            HashSetOp::Insert(_) => self.table.insert(e),
            HashSetOp::Remove(_) => self.table.remove(e),
            HashSetOp::Contains(_) => self.table.contains(e),
        };
        HashSetResp::Bool(b)
    }

    fn supports(&self, _op: &HashSetOp) -> bool {
        true
    }
}

impl ConcurrentObject<HashSetSpec> for HashTableObject {
    type Handle<'a> = HashTableHandle<'a>;

    fn spec(&self) -> &HashSetSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::MultiProcess { n: self.n }
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::StateQuiescent
    }

    fn progress(&self) -> Progress {
        // Updates serialize through the global seqlock: an updater crashed
        // mid-critical-section leaves the sequence word odd forever and
        // wedges every later lookup's validation loop. The ROADMAP's
        // lock-free-updates migration is exactly the move of this class to
        // `LockFree`.
        Progress::Blocking
    }

    fn handles(&mut self) -> Vec<HashTableHandle<'_>> {
        (0..self.n)
            .map(|_| HashTableHandle {
                table: &self.table,
                t: self.spec.t(),
            })
            .collect()
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        // The bare slot array is the memory representation; the seqlock
        // word is synchronization state (see the backend's module docs).
        self.table.view()
    }

    fn canonical(&self, state: &u64) -> Option<Vec<u64>> {
        Some(self.table.canonical_view(self.spec.keys_of_state(state)))
    }

    fn abstract_state(&self) -> u64 {
        self.spec.state_from_keys(&self.table.keys())
    }
}
