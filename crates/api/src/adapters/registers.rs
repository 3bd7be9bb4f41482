//! [`ConcurrentObject`] adapters for the §4 SWSR register backends, the
//! §5.1 max register and the §5.1 perfect-HI set.

use hi_core::objects::{
    MaxRegisterOp, MaxRegisterSpec, MultiRegisterSpec, RegisterOp, RegisterResp, SetOp, SetResp,
    SetSpec,
};
use hi_registers::threaded::{
    AtomicHiSet, AtomicLockFreeHi, AtomicMaxRegister, AtomicVidyasankar, AtomicWaitFreeHi,
    LockFreeHiReader, LockFreeHiWriter, MaxRegisterReader, MaxRegisterWriter, VidyasankarReader,
    VidyasankarWriter, WaitFreeHiReader, WaitFreeHiWriter,
};

use crate::object::{
    CanonicalView, ConcurrentObject, HiLevel, ObjectHandle, OnlineProbe, Progress, Roles,
};

/// Generates the adapter object + role-enum handle for one SWSR register
/// backend; the `ConcurrentObject` impls differ per algorithm (snapshot
/// shape, canonical form, HI level) and are written out below.
macro_rules! swsr_register_adapter {
    (
        $(#[$obj_doc:meta])* $obj:ident,
        $(#[$handle_doc:meta])* $handle:ident,
        $backend:ident, $writer:ident, $reader:ident
    ) => {
        $(#[$obj_doc])*
        #[derive(Debug)]
        pub struct $obj {
            spec: MultiRegisterSpec,
            reg: $backend,
        }

        impl $obj {
            /// Creates the register implementing `spec`.
            pub fn new(spec: MultiRegisterSpec) -> Self {
                $obj { spec, reg: $backend::new(spec.k(), spec.initial_value()) }
            }

            /// The underlying backend, for backend-specific inspection.
            pub fn backend(&self) -> &$backend {
                &self.reg
            }
        }

        $(#[$handle_doc])*
        #[derive(Debug)]
        pub enum $handle<'a> {
            /// Handle 0: the single writer.
            Writer($writer<'a>),
            /// Handle 1: the single reader.
            Reader($reader<'a>),
        }

        impl ObjectHandle<MultiRegisterSpec> for $handle<'_> {
            fn apply(&mut self, op: RegisterOp) -> RegisterResp {
                match (self, op) {
                    ($handle::Writer(w), RegisterOp::Write(v)) => {
                        w.write(v);
                        RegisterResp::Ack
                    }
                    ($handle::Reader(r), RegisterOp::Read) => RegisterResp::Value(r.read()),
                    ($handle::Writer(_), op) => panic!("the writer cannot invoke {op:?}"),
                    ($handle::Reader(_), op) => panic!("the reader cannot invoke {op:?}"),
                }
            }

            fn supports(&self, op: &RegisterOp) -> bool {
                matches!(
                    (self, op),
                    ($handle::Writer(_), RegisterOp::Write(_))
                        | ($handle::Reader(_), RegisterOp::Read)
                )
            }
        }
    };
}

swsr_register_adapter! {
    /// Algorithm 1 (Vidyasankar) through the unified facade: wait-free,
    /// linearizable, **not** history independent — [`ConcurrentObject::canonical`]
    /// returns `None` and drivers skip the memory audit.
    VidyasankarObject,
    /// Role handle of [`VidyasankarObject`].
    VidyasankarHandle,
    AtomicVidyasankar, VidyasankarWriter, VidyasankarReader
}

swsr_register_adapter! {
    /// Algorithms 2+3 through the unified facade: writer wait-free, reader
    /// lock-free, state-quiescent HI.
    LockFreeHiObject,
    /// Role handle of [`LockFreeHiObject`].
    LockFreeHiHandle,
    AtomicLockFreeHi, LockFreeHiWriter, LockFreeHiReader
}

swsr_register_adapter! {
    /// Algorithm 4 through the unified facade: wait-free, quiescent HI.
    WaitFreeHiObject,
    /// Role handle of [`WaitFreeHiObject`].
    WaitFreeHiHandle,
    AtomicWaitFreeHi, WaitFreeHiWriter, WaitFreeHiReader
}

/// The canonical one-hot `A` array of value `v` for a `k`-valued register.
fn one_hot(k: u64, v: u64) -> Vec<u64> {
    let mut snap = vec![0u64; k as usize];
    snap[(v - 1) as usize] = 1;
    snap
}

impl ConcurrentObject<MultiRegisterSpec> for VidyasankarObject {
    type Handle<'a> = VidyasankarHandle<'a>;

    fn spec(&self) -> &MultiRegisterSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::SingleWriterSingleReader
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::NotHi
    }

    fn progress(&self) -> Progress {
        Progress::WaitFree
    }

    fn handles(&mut self) -> Vec<VidyasankarHandle<'_>> {
        let (w, r) = self.reg.split();
        vec![VidyasankarHandle::Writer(w), VidyasankarHandle::Reader(r)]
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        self.reg.snapshot_a()
    }

    fn canonical(&self, _state: &u64) -> Option<Vec<u64>> {
        None // Algorithm 1 leaks history; there is no canonical form.
    }

    fn abstract_state(&self) -> u64 {
        self.reg.current_value()
    }
}

impl ConcurrentObject<MultiRegisterSpec> for LockFreeHiObject {
    type Handle<'a> = LockFreeHiHandle<'a>;

    fn spec(&self) -> &MultiRegisterSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::SingleWriterSingleReader
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::StateQuiescent
    }

    fn progress(&self) -> Progress {
        // The reader retries only while the writer keeps landing writes; a
        // crashed (static) writer cannot starve it.
        Progress::LockFree
    }

    fn handles(&mut self) -> Vec<LockFreeHiHandle<'_>> {
        let (w, r) = self.reg.split();
        vec![LockFreeHiHandle::Writer(w), LockFreeHiHandle::Reader(r)]
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        self.reg.snapshot_a()
    }

    fn canonical(&self, state: &u64) -> Option<Vec<u64>> {
        Some(one_hot(self.spec.k(), *state))
    }

    fn abstract_state(&self) -> u64 {
        self.reg.current_value()
    }
}

/// The §5.1 max register through the unified facade: wait-free on both
/// roles, state-quiescent HI — the possibility result for objects outside
/// `C_t`, sitting right next to the §4 registers it circumvents.
#[derive(Debug)]
pub struct MaxRegisterObject {
    spec: MaxRegisterSpec,
    reg: AtomicMaxRegister,
}

impl MaxRegisterObject {
    /// Creates the max register implementing `spec` (initial maximum 1).
    pub fn new(spec: MaxRegisterSpec) -> Self {
        MaxRegisterObject {
            spec,
            reg: AtomicMaxRegister::new(spec.k()),
        }
    }

    /// The underlying backend, for backend-specific inspection.
    pub fn backend(&self) -> &AtomicMaxRegister {
        &self.reg
    }
}

/// Role handle of [`MaxRegisterObject`].
#[derive(Debug)]
pub enum MaxRegisterHandle<'a> {
    /// Handle 0: the single writer.
    Writer(MaxRegisterWriter<'a>),
    /// Handle 1: the single reader.
    Reader(MaxRegisterReader<'a>),
}

impl ObjectHandle<MaxRegisterSpec> for MaxRegisterHandle<'_> {
    fn apply(&mut self, op: MaxRegisterOp) -> RegisterResp {
        match (self, op) {
            (MaxRegisterHandle::Writer(w), MaxRegisterOp::WriteMax(v)) => {
                w.write_max(v);
                RegisterResp::Ack
            }
            (MaxRegisterHandle::Reader(r), MaxRegisterOp::ReadMax) => {
                RegisterResp::Value(r.read_max())
            }
            (MaxRegisterHandle::Writer(_), op) => panic!("the writer cannot invoke {op:?}"),
            (MaxRegisterHandle::Reader(_), op) => panic!("the reader cannot invoke {op:?}"),
        }
    }

    fn supports(&self, op: &MaxRegisterOp) -> bool {
        matches!(
            (self, op),
            (MaxRegisterHandle::Writer(_), MaxRegisterOp::WriteMax(_))
                | (MaxRegisterHandle::Reader(_), MaxRegisterOp::ReadMax)
        )
    }
}

impl ConcurrentObject<MaxRegisterSpec> for MaxRegisterObject {
    type Handle<'a> = MaxRegisterHandle<'a>;

    fn spec(&self) -> &MaxRegisterSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::SingleWriterSingleReader
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::StateQuiescent
    }

    fn progress(&self) -> Progress {
        Progress::WaitFree
    }

    fn handles(&mut self) -> Vec<MaxRegisterHandle<'_>> {
        let (w, r) = self.reg.split();
        vec![MaxRegisterHandle::Writer(w), MaxRegisterHandle::Reader(r)]
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        self.reg.snapshot_a()
    }

    fn canonical(&self, state: &u64) -> Option<Vec<u64>> {
        Some(self.reg.canonical(*state))
    }

    fn abstract_state(&self) -> u64 {
        self.reg.current_value()
    }
}

/// The §5.1 perfect-HI set through the unified facade: `n` symmetric
/// handles, every operation a single primitive, canonical memory in *every*
/// configuration.
#[derive(Debug)]
pub struct HiSetObject {
    spec: SetSpec,
    n: usize,
    set: AtomicHiSet,
}

impl HiSetObject {
    /// Creates the set implementing `spec`, shared by `n` handles.
    pub fn new(spec: SetSpec, n: usize) -> Self {
        assert!(n >= 1, "at least one handle");
        HiSetObject {
            spec,
            n,
            set: AtomicHiSet::new(spec.t()),
        }
    }

    /// The underlying backend, for backend-specific inspection.
    pub fn backend(&self) -> &AtomicHiSet {
        &self.set
    }
}

/// Role handle of [`HiSetObject`]: all handles are symmetric.
#[derive(Debug)]
pub struct HiSetHandle<'a> {
    set: &'a AtomicHiSet,
}

impl ObjectHandle<SetSpec> for HiSetHandle<'_> {
    fn apply(&mut self, op: SetOp) -> SetResp {
        match op {
            SetOp::Insert(e) => {
                self.set.insert(e);
                SetResp::Ack
            }
            SetOp::Remove(e) => {
                self.set.remove(e);
                SetResp::Ack
            }
            SetOp::Contains(e) => SetResp::Bool(self.set.contains(e)),
        }
    }

    fn supports(&self, _op: &SetOp) -> bool {
        true
    }
}

impl ConcurrentObject<SetSpec> for HiSetObject {
    type Handle<'a> = HiSetHandle<'a>;

    fn spec(&self) -> &SetSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::MultiProcess { n: self.n }
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::Perfect
    }

    fn progress(&self) -> Progress {
        Progress::WaitFree // one primitive per operation
    }

    fn handles(&mut self) -> Vec<HiSetHandle<'_>> {
        (0..self.n)
            .map(|_| HiSetHandle { set: &self.set })
            .collect()
    }

    fn handles_with_probe(&mut self) -> (Vec<HiSetHandle<'_>>, Option<OnlineProbe<'_>>) {
        let set = &self.set;
        let handles = (0..self.n).map(|_| HiSetHandle { set }).collect();
        // Perfect HI: every configuration's memory is the characteristic
        // vector of *some* state, so a sample at any moment must decode
        // and re-encode to itself — each cell is exactly 0 or 1.
        let probe = OnlineProbe::new(move || {
            let observed = set.snapshot();
            let state = hi_core::cells::mask_of_bits(&observed);
            CanonicalView {
                canonical: set.canonical(state),
                state: format!("{state:?}"),
                observed,
            }
        });
        (handles, Some(probe))
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        self.set.snapshot()
    }

    fn canonical(&self, state: &u64) -> Option<Vec<u64>> {
        Some(self.set.canonical(*state))
    }

    fn abstract_state(&self) -> u64 {
        self.set.decode_state()
    }
}

impl ConcurrentObject<MultiRegisterSpec> for WaitFreeHiObject {
    type Handle<'a> = WaitFreeHiHandle<'a>;

    fn spec(&self) -> &MultiRegisterSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::SingleWriterSingleReader
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::Quiescent
    }

    fn progress(&self) -> Progress {
        Progress::WaitFree
    }

    fn handles(&mut self) -> Vec<WaitFreeHiHandle<'_>> {
        let (w, r) = self.reg.split_quiescent();
        vec![WaitFreeHiHandle::Writer(w), WaitFreeHiHandle::Reader(r)]
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        self.reg.snapshot()
    }

    fn canonical(&self, state: &u64) -> Option<Vec<u64>> {
        Some(self.reg.canonical(*state))
    }

    fn abstract_state(&self) -> u64 {
        self.reg.current_value()
    }
}
