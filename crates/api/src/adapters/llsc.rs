//! [`ConcurrentObject`] adapter for the releasable LL/SC object
//! (Algorithm 6), the perfect-HI building block of the universal
//! construction.

use hi_core::ObjectSpec;
use hi_llsc::{LlscLayout, PackedRLlsc, RLlscOp, RLlscResp, RLlscSpec};

use crate::object::{
    CanonicalView, ConcurrentObject, HiLevel, ObjectHandle, OnlineProbe, Progress, Roles,
};

/// Algorithm 6 through the unified facade: one packed word, `n` symmetric
/// handles, perfect HI (the word *is* a fixed bijection of the abstract
/// `(value, context)` state).
#[derive(Debug)]
pub struct LlscObject {
    spec: RLlscSpec,
    cell: PackedRLlsc,
}

/// The layout for `spec`: enough value bits for `0..v`, one context bit per
/// process (the same sizing rule as `hi_llsc::SimRLlsc`).
fn layout_for(spec: &RLlscSpec) -> LlscLayout {
    let val_bits = (64 - (spec.v() - 1).leading_zeros()).max(1);
    LlscLayout::new(val_bits, spec.n())
}

impl LlscObject {
    /// Creates the object implementing `spec`.
    pub fn new(spec: RLlscSpec) -> Self {
        let layout = layout_for(&spec);
        let v0 = spec.initial_state().0;
        LlscObject {
            spec,
            cell: PackedRLlsc::new(layout, v0),
        }
    }

    /// The underlying backend, for backend-specific inspection.
    pub fn backend(&self) -> &PackedRLlsc {
        &self.cell
    }

    /// Decodes a raw word into its `(value, context)` pair, or says why
    /// the pair lies outside the spec's domain.
    fn decode(&self, raw: u64) -> Result<(u64, u64), String> {
        let (layout, v, n) = (self.cell.layout(), self.spec.v(), self.spec.n());
        let (val, ctx) = (layout.val(raw), layout.context(raw));
        if val >= v {
            return Err(format!("value {val} outside the spec domain 0..{v}"));
        }
        if ctx >= 1 << n {
            return Err(format!("context bits {ctx:#b} beyond the {n} processes"));
        }
        Ok((val, ctx))
    }
}

/// Per-process handle of [`LlscObject`]. Operations carrying a pid are
/// accepted only by the matching handle (the R-LLSC semantics are
/// process-relative).
#[derive(Debug)]
pub struct LlscHandle<'a> {
    cell: &'a PackedRLlsc,
    pid: usize,
}

impl ObjectHandle<RLlscSpec> for LlscHandle<'_> {
    fn apply(&mut self, op: RLlscOp) -> RLlscResp {
        if let Some(pid) = op.pid() {
            assert_eq!(pid, self.pid, "handle {} cannot invoke {op:?}", self.pid);
        }
        match op {
            RLlscOp::Ll { pid } => RLlscResp::Val(self.cell.ll(pid)),
            RLlscOp::Vl { pid } => RLlscResp::Bool(self.cell.vl(pid)),
            RLlscOp::Sc { pid, new } => RLlscResp::Bool(self.cell.sc(pid, new)),
            RLlscOp::Rl { pid } => RLlscResp::Bool(self.cell.rl(pid)),
            RLlscOp::Load => RLlscResp::Val(self.cell.load()),
            RLlscOp::Store { new } => {
                self.cell.store(new);
                RLlscResp::Bool(true)
            }
        }
    }

    fn supports(&self, op: &RLlscOp) -> bool {
        op.pid().map_or(true, |pid| pid == self.pid)
    }
}

impl ConcurrentObject<RLlscSpec> for LlscObject {
    type Handle<'a> = LlscHandle<'a>;

    fn spec(&self) -> &RLlscSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::MultiProcess { n: self.spec.n() }
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::Perfect
    }

    fn progress(&self) -> Progress {
        // Every LL/VL/SC/RL is a bounded number of primitives; SC fails
        // fast instead of retrying.
        Progress::WaitFree
    }

    fn handles(&mut self) -> Vec<LlscHandle<'_>> {
        let cell = &self.cell;
        (0..self.spec.n())
            .map(|pid| LlscHandle { cell, pid })
            .collect()
    }

    fn handles_with_probe(&mut self) -> (Vec<LlscHandle<'_>>, Option<OnlineProbe<'_>>) {
        let (this, cell, n) = (&*self, &self.cell, self.spec.n());
        let handles = (0..n).map(|pid| LlscHandle { cell, pid }).collect();
        // Perfect HI: the word is a bijection of `(value, context)`, so a
        // sample at any configuration must be the packing of an in-domain
        // pair — no stray bits above the fields, value inside the spec
        // domain, context inside the process range. An out-of-domain word
        // gets an empty canonical form: no state packs to it.
        let probe = OnlineProbe::new(move || {
            let raw = cell.raw();
            let decoded = this.decode(raw);
            CanonicalView {
                observed: vec![raw],
                canonical: decoded
                    .iter()
                    .map(|&(v, c)| cell.layout().pack(v, c))
                    .collect(),
                state: decoded.map_or_else(
                    |why| format!("none ({why})"),
                    |(v, c)| format!("({v}, {c:#b})"),
                ),
            }
        });
        (handles, Some(probe))
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        vec![self.cell.raw()]
    }

    fn canonical(&self, state: &(u64, u64)) -> Option<Vec<u64>> {
        Some(vec![self.cell.layout().pack(state.0, state.1)])
    }

    /// Decodes `(value, context)` from the raw word.
    ///
    /// Because the word is a *bijection* of the abstract state, a
    /// decode-then-repack audit holds for any in-domain word; the
    /// falsifiable memory property here is domain membership, so this
    /// panics if the word holds an out-of-range value or stray context
    /// bits (e.g. a broken `RL` leaving bits above the process range).
    /// History leaks through the *value* field are what the drive's
    /// response linearization and the sim twin's perfect-HI monitor catch.
    fn abstract_state(&self) -> (u64, u64) {
        self.decode(self.cell.raw())
            .unwrap_or_else(|why| panic!("memory corrupt: {why}"))
    }
}
