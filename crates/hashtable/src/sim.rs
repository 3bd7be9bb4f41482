//! Simulator twins of the threaded tables: the seqlock protocol of
//! [`AtomicHiHashTable`](crate::threaded::AtomicHiHashTable) —
//! seqlock-serialized updates with duplicate-then-overwrite rewrites,
//! lock-free seqlock-validated lookups — as **one** slot-level step machine
//! over [`hi_sim`]'s shared memory, one primitive per step, so the seeded
//! scheduler can interleave it arbitrarily and `hi_spec` can audit
//! linearizability and canonical memory.
//!
//! Memory layout, per shard in shard order: the seqlock word, the
//! capacity word (resizable shards only), then the arena cells (0 = empty,
//! else a key in `1..=t`). Keys route to shards by [`shard_of`]. The two
//! twins are the machine's two cases:
//!
//! * [`SimHiHashTable`] — one fixed shard, `[seq, H[0..cap]]`, the twin of
//!   [`AtomicHiHashTable::new`](crate::threaded::AtomicHiHashTable::new).
//!   An update probes under the lock, then applies the Robin Hood carry
//!   (insert) or the backward shift (remove), exactly as the threaded
//!   table does.
//! * [`SimShardedTable`] — `S` resizable shards, `[seq, cap, arena…]` each,
//!   the twin of the sharded table. An update reads the capacity word,
//!   snapshots the whole arena cell by cell and writes the difference
//!   planned by [`rewrite_plan`], then the new capacity word. One
//!   deliberate simplification versus the threaded arena: it always takes
//!   this plan path instead of branching into the carry and shift.
//!   Off-boundary, the plan rewrites exactly the cells the carry would;
//!   on-boundary, the machine exercises precisely the never-absent
//!   migration order the threaded resize uses — which is the behavior the
//!   schedule explorer needs to certify.
//!
//! The seqlock words are synchronization state and excluded from the
//! canonical representation; the capacity words are *included* — capacity
//! is part of the representation and must itself be history-independent.

use hi_core::objects::{HashSetOp, HashSetResp, HashSetSpec};
use hi_core::{HiLevel, Pid, Progress, Roles};
use hi_sim::{CellDomain, CellId, Implementation, MemCtx, ProcessHandle, SharedMem};
use hi_spec::{CanonicalView, ObservationModel, SimAudit, SimObject};

use crate::resize::rewrite_plan;
use crate::{
    canonical_layout, cap_for, carry_writes, displacement, incumbent_wins, shard_of, slot_of,
};

/// The shared-memory cells of one shard.
#[derive(Clone, PartialEq, Eq, Debug)]
struct ShardCells {
    seq: CellId,
    /// The capacity word of a resizable shard; a fixed shard has none and
    /// its live capacity is its whole arena.
    cap: Option<CellId>,
    arena: Vec<CellId>,
}

impl ShardCells {
    fn cap_cell(&self) -> CellId {
        self.cap
            .expect("only a resizable shard has a capacity word")
    }
}

/// What both twins share: the spec, the per-shard cells and the initial
/// memory.
#[derive(Clone, Debug)]
struct Arenas {
    spec: HashSetSpec,
    n: usize,
    /// [`cap_for`]'s floor for resizable shards (unused by a fixed one).
    base: usize,
    shards: Vec<ShardCells>,
    mem: SharedMem,
}

impl Arenas {
    /// Allocates `[seq, cap?, arena…]` for each arena length in
    /// `arena_lens`; shards are resizable iff `base` is given.
    fn new(t: u32, n: usize, base: Option<usize>, arena_lens: &[usize]) -> Self {
        let spec = HashSetSpec::new(t);
        let mut mem = SharedMem::new();
        let shards = arena_lens
            .iter()
            .enumerate()
            .map(|(s, &len)| {
                // Only a sharded layout prefixes its cell names with the shard.
                let name = |cell: &str| match base {
                    Some(_) => format!("S{s}.{cell}"),
                    None => cell.to_string(),
                };
                ShardCells {
                    seq: mem.alloc(name("seq"), CellDomain::Word, 0),
                    cap: base
                        .map(|b| mem.alloc(name("cap"), CellDomain::Word, cap_for(0, b) as u64)),
                    arena: (0..len)
                        .map(|i| {
                            let domain = CellDomain::Bounded(u64::from(t) + 1);
                            mem.alloc(name(&format!("H[{i}]")), domain, 0)
                        })
                        .collect(),
                }
            })
            .collect();
        Arenas {
            spec,
            n,
            base: base.unwrap_or(0),
            shards,
            mem,
        }
    }

    /// Projects a full memory snapshot onto the representation: per shard,
    /// the capacity word (resizable shards) followed by the live arena
    /// prefix. Seqlock words and dead arena tails are dropped.
    fn observed_view(&self, snap: &[u64]) -> Vec<u64> {
        let mut view = Vec::new();
        for cells in &self.shards {
            let live = match cells.cap {
                None => cells.arena.len(),
                Some(cap) => {
                    view.push(snap[cap.0]);
                    snap[cap.0] as usize
                }
            };
            view.extend(cells.arena[..live].iter().map(|c| snap[c.0]));
        }
        view
    }

    /// The abstract state (bitmask) decoded from a snapshot's arena cells.
    /// Only meaningful at state-quiescent points, where the arenas hold
    /// exactly the present keys.
    fn decode_state(&self, snap: &[u64]) -> u64 {
        self.shards
            .iter()
            .flat_map(|cells| &cells.arena)
            .map(|c| snap[c.0])
            .filter(|&k| k != 0)
            .fold(0u64, |mask, k| mask | (1 << k))
    }

    /// The canonical [`observed_view`](Self::observed_view) of abstract
    /// state `state`: per shard, `cap_for` of its key count (resizable
    /// shards) followed by the canonical layout of its key slice — the
    /// oracle the threaded `canonical_view` computes.
    fn canonical_view_of(&self, state: u64) -> Vec<u64> {
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for key in (1..=self.spec.t()).filter(|e| state & (1 << e) != 0) {
            per_shard[shard_of(key, self.shards.len())].push(key);
        }
        let mut view = Vec::new();
        for (cells, keys) in self.shards.iter().zip(per_shard) {
            let cap = match cells.cap {
                None => cells.arena.len(),
                Some(_) => {
                    let cap = cap_for(keys.len(), self.base);
                    view.push(cap as u64);
                    cap
                }
            };
            view.extend(canonical_layout(cap, keys).into_iter().map(u64::from));
        }
        view
    }

    fn process(&self) -> SimTableProcess {
        SimTableProcess {
            base: self.base,
            shards: self.shards.clone(),
            pc: Pc::Idle,
        }
    }

    /// Direct canonicity of the representation: at every state-quiescent
    /// point, each shard's capacity word and live arena prefix must equal
    /// `cap_for` and the canonical Robin Hood layout of its slice of the
    /// decoded key set. Strictly stronger than same-state-same-memory
    /// monitoring. Seqlock words are excluded (synchronization state, the
    /// same exclusion the threaded adapters' `mem_snapshot` makes);
    /// capacity words are included — auditing them is what certifies
    /// resize history does not leak.
    fn hi_audit<M: Implementation<HashSetSpec>>(&self) -> SimAudit<HashSetSpec, M> {
        let oracle = self.clone();
        SimAudit::direct_canonical(ObservationModel::StateQuiescent, move |snap| {
            let state = oracle.decode_state(snap);
            CanonicalView {
                observed: oracle.observed_view(snap),
                canonical: oracle.canonical_view_of(state),
                state: format!("{state:#b}"),
            }
        })
    }
}

/// The phase-free HI hash table as a simulator implementation of
/// [`HashSetSpec`]: one fixed shard. Any of the `n` processes may run any
/// operation.
#[derive(Clone, Debug)]
pub struct SimHiHashTable(Arenas);

impl SimHiHashTable {
    /// Creates a table over `{1..=t}` with `capacity` slots, shared by `n`
    /// processes.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity > t` (the domain must never fill the table).
    pub fn new(t: u32, capacity: usize, n: usize) -> Self {
        assert!(
            capacity > t as usize,
            "capacity {capacity} must exceed the domain size {t}"
        );
        SimHiHashTable(Arenas::new(t, n, None, &[capacity]))
    }

    /// Projects a full memory snapshot onto the slot array (drops the
    /// seqlock word).
    pub fn slots_of<'a>(&self, snap: &'a [u64]) -> &'a [u64] {
        &snap[1..]
    }

    /// The abstract state (bitmask) decoded from a snapshot's slot array.
    /// Only meaningful at state-quiescent points.
    pub fn decode_state(&self, snap: &[u64]) -> u64 {
        self.0.decode_state(snap)
    }

    /// The canonical slot array of abstract state `state`, via the
    /// sequential oracle.
    pub fn canonical_slots(&self, state: u64) -> Vec<u64> {
        self.0.canonical_view_of(state)
    }
}

/// The sharded resizable HI hash table as a simulator implementation of
/// [`HashSetSpec`]. Any of the `n` processes may run any operation.
#[derive(Clone, Debug)]
pub struct SimShardedTable(Arenas);

impl SimShardedTable {
    /// Creates a table over `{1..=t}` with `shards` shards starting at
    /// logical capacity `base`, shared by `n` processes. Each shard's
    /// physical arena is provisioned for its worst-case domain slice, as
    /// in the threaded backend.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`, `shards == 0` or `base == 0`.
    pub fn new(t: u32, shards: usize, base: usize, n: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(base >= 1, "capacity base must be at least 1");
        let mut counts = vec![0usize; shards];
        for key in 1..=t {
            counts[shard_of(key, shards)] += 1;
        }
        let arena_lens: Vec<usize> = counts.into_iter().map(|c| cap_for(c, base)).collect();
        SimShardedTable(Arenas::new(t, n, Some(base), &arena_lens))
    }

    /// Projects a full memory snapshot onto the composed representation:
    /// per shard, the capacity word followed by the live arena prefix
    /// (seqlock words dropped, dead arena tails dropped).
    pub fn observed_view(&self, snap: &[u64]) -> Vec<u64> {
        self.0.observed_view(snap)
    }

    /// The canonical composed view of abstract state `state`: per shard,
    /// `cap_for` of its key count followed by the canonical layout of its
    /// key slice.
    pub fn canonical_view_of(&self, state: u64) -> Vec<u64> {
        self.0.canonical_view_of(state)
    }
}

/// Program counter of one table operation. An update names its `key` and
/// whether it inserts (else it removes), as the threaded `update` does.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Pc {
    Idle,
    /// Update path: read the shard's `seq`, hoping for an even value.
    AcquireRead {
        key: u32,
        insert: bool,
    },
    /// Update path: CAS the shard's `seq` from even `s` to `s + 1`.
    AcquireCas {
        key: u32,
        insert: bool,
        s: u64,
    },
    /// Fixed shard: probe walk under the held lock.
    Probe {
        key: u32,
        insert: bool,
        s: u64,
        i: usize,
        travelled: usize,
    },
    /// Fixed shard: collect the run an update rewrites, one slot per step
    /// from slot `from` — an insert's occupied run from its insertion
    /// point, a remove's backward-shift run after its hole.
    Run {
        key: u32,
        insert: bool,
        s: u64,
        from: usize,
        run: Vec<u32>,
    },
    /// Resizable shard: read the capacity word under the held lock.
    ReadCap {
        key: u32,
        insert: bool,
        s: u64,
    },
    /// Resizable shard: snapshot the arena, one cell per step; the final
    /// step plans the rewrite.
    Scan {
        key: u32,
        insert: bool,
        s: u64,
        cap: usize,
        cells: Vec<u32>,
    },
    /// Apply the planned cell writes (arena, then possibly the capacity
    /// word), one per step; the step after the last write stores `s + 1`
    /// into `seq` and responds.
    Write {
        shard: usize,
        s: u64,
        writes: Vec<(CellId, u64)>,
        idx: usize,
        resp: bool,
    },
    /// Lookup: read the shard's `seq` to open the validation window.
    LookSeq {
        key: u32,
    },
    /// Lookup, resizable shard: read the capacity word.
    LookCap {
        key: u32,
        s1: u64,
    },
    /// Lookup: probe walk over the live prefix.
    LookScan {
        key: u32,
        s1: u64,
        cap: usize,
        i: usize,
        travelled: usize,
    },
    /// Lookup: re-read `seq`; absent verdict stands only if unchanged+even
    /// (which also certifies the capacity read).
    LookValidate {
        key: u32,
        s1: u64,
    },
}

/// The per-process step machine of both [`SimHiHashTable`] and
/// [`SimShardedTable`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimTableProcess {
    base: usize,
    shards: Vec<ShardCells>,
    pc: Pc,
}

impl SimTableProcess {
    fn shard_for(&self, key: u32) -> usize {
        shard_of(key, self.shards.len())
    }

    fn cells_for(&self, key: u32) -> &ShardCells {
        &self.shards[self.shard_for(key)]
    }

    /// The write phase of an update on `shard` under seqlock value `s`,
    /// from `(arena slot, key)` writes.
    fn write_slots(&self, shard: usize, s: u64, writes: Vec<(usize, u32)>, resp: bool) -> Pc {
        let arena = &self.shards[shard].arena;
        Pc::Write {
            shard,
            s,
            writes: writes
                .into_iter()
                .map(|(i, v)| (arena[i], u64::from(v)))
                .collect(),
            idx: 0,
            resp,
        }
    }
}

impl ProcessHandle<HashSetSpec> for SimTableProcess {
    fn invoke(&mut self, op: HashSetOp) {
        assert!(self.is_idle(), "operation already pending");
        self.pc = match op {
            HashSetOp::Insert(key) => Pc::AcquireRead { key, insert: true },
            HashSetOp::Remove(key) => Pc::AcquireRead { key, insert: false },
            HashSetOp::Contains(key) => Pc::LookSeq { key },
        };
    }

    fn is_idle(&self) -> bool {
        self.pc == Pc::Idle
    }

    fn step(&mut self, ctx: &mut MemCtx<'_>) -> Option<HashSetResp> {
        match self.pc.clone() {
            Pc::Idle => panic!("step of idle process"),
            Pc::AcquireRead { key, insert } => {
                let s = ctx.read(self.cells_for(key).seq);
                self.pc = if s % 2 == 0 {
                    Pc::AcquireCas { key, insert, s }
                } else {
                    Pc::AcquireRead { key, insert }
                };
                None
            }
            Pc::AcquireCas { key, insert, s } => {
                let cells = self.cells_for(key);
                self.pc = if !ctx.cas(cells.seq, s, s + 1) {
                    Pc::AcquireRead { key, insert }
                } else if cells.cap.is_some() {
                    Pc::ReadCap {
                        key,
                        insert,
                        s: s + 1,
                    }
                } else {
                    let i = slot_of(key, cells.arena.len());
                    Pc::Probe {
                        key,
                        insert,
                        s: s + 1,
                        i,
                        travelled: 0,
                    }
                };
                None
            }
            Pc::Probe {
                key,
                insert,
                s,
                i,
                travelled,
            } => {
                let shard = self.shard_for(key);
                let arena = &self.shards[shard].arena;
                let cap = arena.len();
                assert!(travelled < cap, "locked probe found no terminator");
                let occ = ctx.read(arena[i]) as u32;
                let found = occ == key;
                self.pc = if !found && occ != 0 && incumbent_wins(occ, key, i, cap) {
                    Pc::Probe {
                        key,
                        insert,
                        s,
                        i: (i + 1) % cap,
                        travelled: travelled + 1,
                    }
                } else if found == insert {
                    // A duplicate insert or an absent remove changes nothing.
                    self.write_slots(shard, s, Vec::new(), false)
                } else {
                    Pc::Run {
                        key,
                        insert,
                        s,
                        from: if insert { i } else { (i + 1) % cap },
                        run: Vec::new(),
                    }
                };
                None
            }
            Pc::Run {
                key,
                insert,
                s,
                from,
                mut run,
            } => {
                let shard = self.shard_for(key);
                let arena = &self.shards[shard].arena;
                let cap = arena.len();
                assert!(run.len() < cap, "locked run found no terminator");
                let at = (from + run.len()) % cap;
                let occ = ctx.read(arena[at]) as u32;
                // An insert's run ends at an empty slot; a remove's also at
                // a key sitting in its home slot.
                if occ != 0 && (insert || displacement(occ, at, cap) != 0) {
                    run.push(occ);
                    self.pc = Pc::Run {
                        key,
                        insert,
                        s,
                        from,
                        run,
                    };
                    return None;
                }
                let writes = if insert {
                    carry_writes(key, from, &run, cap)
                } else {
                    // Backward shift, near-end first: each run key moves one
                    // slot back, then the run's last slot is cleared.
                    let hole = (from + cap - 1) % cap;
                    let shifted = run.iter().copied().chain([0]).enumerate();
                    shifted.map(|(j, k)| ((hole + j) % cap, k)).collect()
                };
                self.pc = self.write_slots(shard, s, writes, true);
                None
            }
            Pc::ReadCap { key, insert, s } => {
                let cap = ctx.read(self.cells_for(key).cap_cell()) as usize;
                self.pc = Pc::Scan {
                    key,
                    insert,
                    s,
                    cap,
                    cells: Vec::new(),
                };
                None
            }
            Pc::Scan {
                key,
                insert,
                s,
                cap,
                mut cells,
            } => {
                let shard = self.shard_for(key);
                let sc = &self.shards[shard];
                cells.push(ctx.read(sc.arena[cells.len()]) as u32);
                if cells.len() < sc.arena.len() {
                    self.pc = Pc::Scan {
                        key,
                        insert,
                        s,
                        cap,
                        cells,
                    };
                    return None;
                }
                // Arena snapshot complete (we hold the lock, so it is the
                // canonical live image plus a zero tail): decide, plan.
                let resp = cells.contains(&key) != insert;
                let mut writes: Vec<(CellId, u64)> = Vec::new();
                if resp {
                    let survivors = cells.iter().copied().filter(|&k| k != 0 && k != key);
                    let keys: Vec<u32> = survivors.chain(insert.then_some(key)).collect();
                    let new_cap = cap_for(keys.len(), self.base);
                    let mut target = canonical_layout(new_cap, keys);
                    target.resize(sc.arena.len(), 0);
                    writes = rewrite_plan(&cells, &target)
                        .into_iter()
                        .map(|(i, v)| (sc.arena[i], u64::from(v)))
                        .collect();
                    if new_cap != cap {
                        writes.push((sc.cap_cell(), new_cap as u64));
                    }
                }
                self.pc = Pc::Write {
                    shard,
                    s,
                    writes,
                    idx: 0,
                    resp,
                };
                None
            }
            Pc::Write {
                shard,
                s,
                writes,
                idx,
                resp,
            } => {
                if idx < writes.len() {
                    let (cell, val) = writes[idx];
                    ctx.write(cell, val);
                    self.pc = Pc::Write {
                        shard,
                        s,
                        writes,
                        idx: idx + 1,
                        resp,
                    };
                    None
                } else {
                    // No primitive left to batch with the release; fall
                    // through to the release store on this step.
                    ctx.write(self.shards[shard].seq, s + 1);
                    self.pc = Pc::Idle;
                    Some(HashSetResp::Bool(resp))
                }
            }
            Pc::LookSeq { key } => {
                let cells = self.cells_for(key);
                let s1 = ctx.read(cells.seq);
                self.pc = match cells.cap {
                    Some(_) => Pc::LookCap { key, s1 },
                    None => Pc::LookScan {
                        key,
                        s1,
                        cap: cells.arena.len(),
                        i: slot_of(key, cells.arena.len()),
                        travelled: 0,
                    },
                };
                None
            }
            Pc::LookCap { key, s1 } => {
                let cap = ctx.read(self.cells_for(key).cap_cell()) as usize;
                self.pc = Pc::LookScan {
                    key,
                    s1,
                    cap,
                    i: slot_of(key, cap),
                    travelled: 0,
                };
                None
            }
            Pc::LookScan {
                key,
                s1,
                cap,
                i,
                travelled,
            } => {
                if travelled >= cap {
                    // Full turn without a terminator: interference; retry.
                    self.pc = Pc::LookSeq { key };
                    return None;
                }
                let occ = ctx.read(self.cells_for(key).arena[i]) as u32;
                if occ == key {
                    self.pc = Pc::Idle;
                    return Some(HashSetResp::Bool(true));
                }
                if occ == 0 || !incumbent_wins(occ, key, i, cap) {
                    self.pc = Pc::LookValidate { key, s1 };
                } else {
                    self.pc = Pc::LookScan {
                        key,
                        s1,
                        cap,
                        i: (i + 1) % cap,
                        travelled: travelled + 1,
                    };
                }
                None
            }
            Pc::LookValidate { key, s1 } => {
                let s2 = ctx.read(self.cells_for(key).seq);
                if s1 % 2 == 0 && s2 == s1 {
                    self.pc = Pc::Idle;
                    Some(HashSetResp::Bool(false))
                } else {
                    self.pc = Pc::LookSeq { key };
                    None
                }
            }
        }
    }

    fn peeked_cell(&self) -> Option<CellId> {
        Some(match &self.pc {
            Pc::Idle => return None,
            Pc::AcquireRead { key, .. } | Pc::AcquireCas { key, .. } => self.cells_for(*key).seq,
            Pc::Probe { key, i, .. } => self.cells_for(*key).arena[*i],
            Pc::Run { key, from, run, .. } => {
                let arena = &self.cells_for(*key).arena;
                arena[(from + run.len()) % arena.len()]
            }
            Pc::ReadCap { key, .. } => self.cells_for(*key).cap_cell(),
            Pc::Scan { key, cells, .. } => self.cells_for(*key).arena[cells.len()],
            Pc::Write {
                shard, writes, idx, ..
            } => match writes.get(*idx) {
                Some(&(cell, _)) => cell,
                None => self.shards[*shard].seq,
            },
            Pc::LookSeq { key } | Pc::LookValidate { key, .. } => self.cells_for(*key).seq,
            Pc::LookCap { key, .. } => self.cells_for(*key).cap_cell(),
            Pc::LookScan { key, i, .. } => self.cells_for(*key).arena[*i],
        })
    }
}

/// Implements the simulator traits of a twin by delegating to its
/// [`Arenas`]: both twins share the machine, the roles, the classes and the
/// audit.
macro_rules! sim_twin {
    ($table:ty) => {
        impl Implementation<HashSetSpec> for $table {
            type Process = SimTableProcess;

            fn spec(&self) -> &HashSetSpec {
                &self.0.spec
            }

            fn num_processes(&self) -> usize {
                self.0.n
            }

            fn init_memory(&self) -> SharedMem {
                self.0.mem.clone()
            }

            fn make_process(&self, _pid: Pid) -> SimTableProcess {
                self.0.process()
            }
        }

        impl SimObject<HashSetSpec> for $table {
            type Machine = Self;

            fn spec(&self) -> &HashSetSpec {
                &self.0.spec
            }

            fn roles(&self) -> Roles {
                Roles::MultiProcess { n: self.0.n }
            }

            fn hi_level(&self) -> HiLevel {
                HiLevel::StateQuiescent
            }

            fn progress(&self) -> Progress {
                // An updater crashing inside its shard's seqlock critical
                // section (worst case: mid-migration) leaves the sequence
                // word odd forever: every later update and every
                // absent-verdict lookup on that shard wedges. Migrating
                // updates to lock-free helping (arXiv:2503.21016) is the
                // ROADMAP follow-up this class will graduate from.
                Progress::Blocking
            }

            fn implementation(&self) -> &Self {
                self
            }

            fn hi_audit(&self) -> SimAudit<HashSetSpec, Self> {
                self.0.hi_audit()
            }
        }
    };
}

sim_twin!(SimHiHashTable);
sim_twin!(SimShardedTable);

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::ObjectSpec;
    use hi_sim::Executor;

    /// Runs a solo script on `imp` and checks every response and every
    /// state-quiescent view against the sequential oracle.
    fn solo_script<I: Implementation<HashSetSpec>>(imp: I, arenas: &Arenas) {
        let mut exec = Executor::new(imp);
        let script = [
            (HashSetOp::Insert(3), true),
            (HashSetOp::Insert(3), false),
            (HashSetOp::Insert(5), true),
            (HashSetOp::Contains(5), true),
            (HashSetOp::Remove(3), true),
            (HashSetOp::Remove(3), false),
            (HashSetOp::Contains(3), false),
        ];
        let mut state = 0u64;
        for (op, expect) in script {
            let resp = exec.run_op_solo(Pid(0), op, 10_000).unwrap();
            assert_eq!(resp, HashSetResp::Bool(expect), "{op:?}");
            state = exec.spec().apply(&state, &op).0;
            assert_eq!(
                arenas.observed_view(&exec.snapshot()),
                arenas.canonical_view_of(state),
                "state-quiescent view canonical after {op:?}"
            );
            assert_eq!(arenas.decode_state(&exec.snapshot()), state);
        }
    }

    #[test]
    fn solo_ops_match_the_sequential_oracle() {
        let fixed = SimHiHashTable::new(6, 8, 2);
        solo_script(fixed.clone(), &fixed.0);
        let sharded = SimShardedTable::new(6, 2, 1, 2);
        solo_script(sharded.clone(), &sharded.0);
    }

    #[test]
    fn capacity_words_track_the_key_count_through_grow_and_shrink() {
        // base = 1: the very first insert into a shard forces a grow
        // (cap_for(1,1) = 2), and the last remove shrinks back to 1. The
        // capacity word must follow cap_for exactly at every quiescent
        // point — that is the no-hysteresis property.
        let imp = SimShardedTable::new(6, 2, 1, 1);
        let mut exec = Executor::new(imp.clone());
        let mut state = 0u64;
        let script = [
            HashSetOp::Insert(1),
            HashSetOp::Insert(2),
            HashSetOp::Insert(4),
            HashSetOp::Remove(2),
            HashSetOp::Remove(1),
            HashSetOp::Remove(4),
        ];
        for op in script {
            exec.run_op_solo(Pid(0), op, 10_000).unwrap();
            state = exec.spec().apply(&state, &op).0;
            let view = imp.observed_view(&exec.snapshot());
            assert_eq!(view, imp.canonical_view_of(state), "after {op:?}");
        }
        // Empty again: every capacity word is back at base, so the final
        // composed view equals the initial one — resize history erased.
        assert_eq!(
            imp.observed_view(&exec.snapshot()),
            imp.canonical_view_of(0)
        );
    }

    /// Stalls an insert of 5 after `stall` steps inside its critical
    /// section, then checks that an absent lookup cannot produce a verdict
    /// while the seqlock is odd, and that both finish once run solo.
    fn lookup_retries_mid_update<I: Implementation<HashSetSpec>>(imp: I, stall: usize) {
        let mut exec = Executor::new(imp);
        exec.run_op_solo(Pid(0), HashSetOp::Insert(2), 10_000)
            .unwrap();
        exec.invoke(Pid(0), HashSetOp::Insert(5));
        for _ in 0..stall {
            assert!(exec.step(Pid(0)).is_none());
        }
        exec.invoke(Pid(1), HashSetOp::Contains(4));
        for _ in 0..40 {
            assert!(
                exec.step(Pid(1)).is_none(),
                "absent verdict accepted while an update was in flight"
            );
        }
        // Present keys are still sighted mid-update.
        let resp = exec.run_solo(Pid(0), 10_000).unwrap().1;
        assert_eq!(resp, HashSetResp::Bool(true));
        let resp = exec.run_solo(Pid(1), 10_000).unwrap().1;
        assert_eq!(resp, HashSetResp::Bool(false));
    }

    #[test]
    fn lookup_retries_while_an_update_is_in_flight() {
        // Fixed shard: stalled right after lock acquisition (read, CAS,
        // first probe).
        lookup_retries_mid_update(SimHiHashTable::new(6, 8, 2), 3);
    }

    #[test]
    fn lookup_retries_while_a_migration_is_in_flight() {
        // Resizable shard: an insert that migrates (cap 2 -> 4), stalled
        // mid-critical-section (read, CAS, capacity read, first scan).
        lookup_retries_mid_update(SimShardedTable::new(6, 1, 1, 2), 4);
    }
}
