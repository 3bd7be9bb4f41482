//! The three workloads: one object each, with the key distribution its
//! scripts draw from and the backend calls rung 1 times.

use hi_api::{ConcurrentObject, HashTableObject, ShardedTableObject, UniversalObject};
use hi_core::objects::{CounterOp, CounterResp, CounterSpec, HashSetOp, HashSetResp, HashSetSpec};
use hi_core::{EnumerableSpec, KeyDist, ObjectSpec};
use hi_hashtable::threaded::AtomicHiHashTable;
use hi_shard::ShardedHiHashTable;
use hi_universal::UniversalHandle;

use crate::ladder::Op;

/// One benchmark workload: an object under test, built with `n` handles,
/// and how its backend is driven without the facade.
pub trait Workload {
    /// The sequential specification the object implements.
    type Spec: EnumerableSpec + Send + Sync;
    /// The object behind the `ConcurrentObject` facade.
    type Obj: ConcurrentObject<Self::Spec>;

    /// What rung 1 drives: the object's backend, reached through the
    /// facade's `backend()` accessor.
    type Backend<'a>
    where
        Self: 'a;

    /// The name `--workload` selects.
    const NAME: &'static str;

    /// The specification, which also fixes the operation menu.
    fn spec() -> Self::Spec;

    /// The rank distribution of every script and of the service's clients.
    fn key_dist() -> KeyDist;

    /// A fresh object shared by `n` handles.
    fn object(n: usize) -> Self::Obj;

    /// The backend of `obj`, ready to apply operations.
    fn backend(obj: &Self::Obj) -> Self::Backend<'_>;

    /// Rung 1's operation: `op` applied through the backend's own public
    /// operations, bypassing `ObjectHandle::apply`.
    fn backend_apply(backend: &mut Self::Backend<'_>, op: Op<Self>) -> Resp<Self>;
}

/// The response type of a workload's spec.
pub type Resp<W> = <<W as Workload>::Spec as ObjectSpec>::Resp;

/// The backend operation a `HashSetOp` names, for any table with the
/// `insert`/`remove`/`contains` trio.
macro_rules! hash_set_apply {
    ($table:expr, $op:expr) => {
        HashSetResp::Bool(match $op {
            HashSetOp::Insert(k) => $table.insert(k),
            HashSetOp::Remove(k) => $table.remove(k),
            HashSetOp::Contains(k) => $table.contains(k),
        })
    };
}

/// The Robin Hood table under Zipfian skew: cheap backend ops, no resizes,
/// hot keys concentrating seqlock contention.
pub struct TableZipf;

impl Workload for TableZipf {
    type Spec = HashSetSpec;
    type Obj = HashTableObject;
    type Backend<'a> = &'a AtomicHiHashTable;
    const NAME: &'static str = "table-zipf";

    fn spec() -> HashSetSpec {
        HashSetSpec::new(16)
    }

    fn key_dist() -> KeyDist {
        KeyDist::Zipfian { theta: 1.1 }
    }

    fn object(n: usize) -> HashTableObject {
        HashTableObject::new(Self::spec(), 29, n)
    }

    fn backend(obj: &HashTableObject) -> &AtomicHiHashTable {
        obj.backend()
    }

    fn backend_apply(table: &mut &AtomicHiHashTable, op: HashSetOp) -> HashSetResp {
        hash_set_apply!(table, op)
    }
}

/// The sharded table at base capacity 2: online migrations on a large
/// share of operations, so the resize path does most of the work.
pub struct ShardThrash;

impl Workload for ShardThrash {
    type Spec = HashSetSpec;
    type Obj = ShardedTableObject<HashSetSpec>;
    type Backend<'a> = &'a ShardedHiHashTable;
    const NAME: &'static str = "shard-thrash";

    fn spec() -> HashSetSpec {
        HashSetSpec::new(8)
    }

    fn key_dist() -> KeyDist {
        KeyDist::Uniform
    }

    fn object(n: usize) -> ShardedTableObject<HashSetSpec> {
        ShardedTableObject::new(Self::spec(), 4, 2, n)
    }

    fn backend(obj: &ShardedTableObject<HashSetSpec>) -> &ShardedHiHashTable {
        obj.backend()
    }

    fn backend_apply(table: &mut &ShardedHiHashTable, op: HashSetOp) -> HashSetResp {
        hash_set_apply!(table, op)
    }
}

/// Algorithm 5 over a bounded counter: the backend dominates, and reads
/// share the one head word with writes.
pub struct UniversalCounter;

impl Workload for UniversalCounter {
    type Spec = CounterSpec;
    type Obj = UniversalObject<CounterSpec>;
    type Backend<'a> = UniversalHandle<'a, CounterSpec>;
    const NAME: &'static str = "universal-counter";

    fn spec() -> CounterSpec {
        CounterSpec::new(-300, 300, 0)
    }

    fn key_dist() -> KeyDist {
        KeyDist::Uniform
    }

    fn object(n: usize) -> UniversalObject<CounterSpec> {
        UniversalObject::new(Self::spec(), n)
    }

    fn backend(obj: &UniversalObject<CounterSpec>) -> UniversalHandle<'_, CounterSpec> {
        obj.backend().handle(0)
    }

    fn backend_apply(handle: &mut UniversalHandle<'_, CounterSpec>, op: CounterOp) -> CounterResp {
        handle.apply(op)
    }
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = [TableZipf::NAME, ShardThrash::NAME, UniversalCounter::NAME];
