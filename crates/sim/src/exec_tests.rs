//! Unit tests for the executor and runner, using a minimal two-step
//! test-double implementation.

use hi_core::objects::{MultiRegisterSpec, RegisterOp, RegisterResp};
use hi_core::Pid;

use crate::exec::{Executor, RunError};
use crate::mem::{CellDomain, CellId, SharedMem};
use crate::process::{Implementation, MemCtx, ProcessHandle};
use crate::runner::{run_workload, run_workload_with_faults, Workload};
use crate::sched::{FaultPlan, Faulty, RoundRobin, Scripted, Seeded};

/// A register where writes take two primitives (stage cell, then value
/// cell) — enough structure to exercise quiescence tracking and forking.
#[derive(Clone, Debug)]
pub(crate) struct TwoStepRegister {
    spec: MultiRegisterSpec,
    stage: CellId,
    value: CellId,
    mem: SharedMem,
}

impl TwoStepRegister {
    pub(crate) fn new(k: u64, v0: u64) -> Self {
        let spec = MultiRegisterSpec::new(k, v0);
        let mut mem = SharedMem::new();
        let stage = mem.alloc("stage", CellDomain::Bounded(k + 1), 0);
        let value = mem.alloc("value", CellDomain::Bounded(k + 1), v0);
        TwoStepRegister {
            spec,
            stage,
            value,
            mem,
        }
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum Pc {
    Idle,
    Stage(u64),
    Commit(u64),
    Read,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct TwoStepProcess {
    stage: CellId,
    value: CellId,
    pc: Pc,
}

impl ProcessHandle<MultiRegisterSpec> for TwoStepProcess {
    fn invoke(&mut self, op: RegisterOp) {
        assert_eq!(self.pc, Pc::Idle);
        self.pc = match op {
            RegisterOp::Write(v) => Pc::Stage(v),
            RegisterOp::Read => Pc::Read,
        };
    }

    fn is_idle(&self) -> bool {
        self.pc == Pc::Idle
    }

    fn step(&mut self, ctx: &mut MemCtx<'_>) -> Option<RegisterResp> {
        match self.pc.clone() {
            Pc::Idle => panic!("step of idle process"),
            Pc::Stage(v) => {
                ctx.write(self.stage, v);
                self.pc = Pc::Commit(v);
                None
            }
            Pc::Commit(v) => {
                ctx.write(self.value, v);
                self.pc = Pc::Idle;
                Some(RegisterResp::Ack)
            }
            Pc::Read => {
                let v = ctx.read(self.value);
                self.pc = Pc::Idle;
                Some(RegisterResp::Value(v))
            }
        }
    }

    fn peeked_cell(&self) -> Option<CellId> {
        match self.pc {
            Pc::Idle => None,
            Pc::Stage(_) | Pc::Commit(_) => Some(self.stage),
            Pc::Read => Some(self.value),
        }
    }
}

impl Implementation<MultiRegisterSpec> for TwoStepRegister {
    type Process = TwoStepProcess;

    fn spec(&self) -> &MultiRegisterSpec {
        &self.spec
    }

    fn num_processes(&self) -> usize {
        2
    }

    fn init_memory(&self) -> SharedMem {
        self.mem.clone()
    }

    fn make_process(&self, _pid: Pid) -> TwoStepProcess {
        TwoStepProcess {
            stage: self.stage,
            value: self.value,
            pc: Pc::Idle,
        }
    }
}

#[test]
fn quiescence_tracking() {
    let mut exec = Executor::new(TwoStepRegister::new(4, 1));
    assert!(exec.is_quiescent() && exec.is_state_quiescent());
    exec.invoke(Pid(1), RegisterOp::Read);
    assert!(!exec.is_quiescent());
    assert!(
        exec.is_state_quiescent(),
        "pending read-only op keeps state-quiescence"
    );
    exec.invoke(Pid(0), RegisterOp::Write(2));
    assert!(!exec.is_state_quiescent());
    exec.step(Pid(0));
    exec.step(Pid(0));
    assert!(exec.is_state_quiescent());
    exec.step(Pid(1));
    assert!(exec.is_quiescent());
}

#[test]
fn fork_diverges_independently() {
    let mut a = Executor::new(TwoStepRegister::new(4, 1));
    a.invoke(Pid(0), RegisterOp::Write(3));
    a.step(Pid(0));
    let mut b = a.clone();
    a.step(Pid(0)); // a commits
    assert_ne!(a.snapshot(), b.snapshot(), "fork must not share memory");
    b.step(Pid(0)); // b commits too
    assert_eq!(a.snapshot(), b.snapshot());
    assert!(a.processes_eq(&b));
}

#[test]
fn history_records_invocations_and_returns() {
    let mut exec = Executor::new(TwoStepRegister::new(4, 1));
    let id = exec.invoke(Pid(0), RegisterOp::Write(2));
    assert_eq!(exec.history().pending_ids(), vec![id]);
    exec.step(Pid(0));
    let done = exec.step(Pid(0)).expect("write completes in two steps");
    assert_eq!(done.0, id);
    assert!(exec.history().is_quiescent());
}

#[test]
fn run_solo_budget() {
    let mut exec = Executor::new(TwoStepRegister::new(4, 1));
    exec.invoke(Pid(0), RegisterOp::Write(2));
    assert_eq!(
        exec.run_solo(Pid(0), 1),
        Err(RunError::StepLimit {
            pid: Pid(0),
            steps: 1
        })
    );
    // The step taken above counted; one more finishes.
    assert!(exec.run_solo(Pid(0), 1).is_ok());
}

#[test]
fn run_workload_round_robin_completes() {
    let imp = TwoStepRegister::new(4, 1);
    let mut exec = Executor::new(imp);
    let mut w: Workload<MultiRegisterSpec> = Workload::new(2);
    w.push(0, RegisterOp::Write(3));
    w.push(0, RegisterOp::Write(2));
    w.push(1, RegisterOp::Read);
    w.push(1, RegisterOp::Read);
    run_workload(&mut exec, w, &mut RoundRobin::new(), &mut (), 1_000).unwrap();
    assert!(exec.is_quiescent());
    assert_eq!(exec.history().records().len(), 4);
}

#[test]
fn run_workload_step_budget() {
    let imp = TwoStepRegister::new(4, 1);
    let mut exec = Executor::new(imp);
    let mut w: Workload<MultiRegisterSpec> = Workload::new(2);
    w.push(0, RegisterOp::Write(3));
    let res = run_workload(&mut exec, w, &mut RoundRobin::new(), &mut (), 2);
    assert!(matches!(res, Err(RunError::StepLimit { .. })));
}

#[test]
fn observer_sees_every_transition() {
    let imp = TwoStepRegister::new(4, 1);
    let mut exec = Executor::new(imp.clone());
    let mut transitions = 0u64;
    let mut observer = |_e: &Executor<MultiRegisterSpec, TwoStepRegister>| transitions += 1;
    let mut w: Workload<MultiRegisterSpec> = Workload::new(2);
    w.push(0, RegisterOp::Write(3));
    w.push(1, RegisterOp::Read);
    run_workload(&mut exec, w, &mut Seeded::new(9), &mut observer, 1_000).unwrap();
    // 2 invocations + 2 write steps + 1 read step.
    assert_eq!(transitions, 5);
}

#[test]
fn faulty_run_with_empty_plan_matches_run_workload() {
    let imp = TwoStepRegister::new(4, 1);
    let workload = || {
        let mut w: Workload<MultiRegisterSpec> = Workload::new(2);
        for v in [3, 2, 4] {
            w.push(0, RegisterOp::Write(v));
            w.push(1, RegisterOp::Read);
        }
        w
    };
    let mut base = Executor::new(imp.clone());
    run_workload(&mut base, workload(), &mut Seeded::new(42), &mut (), 1_000).unwrap();
    let mut faulty = Executor::new(imp);
    let mut sched = Faulty::new(Seeded::new(42), FaultPlan::none(), 2);
    run_workload_with_faults(&mut faulty, workload(), &mut sched, |_, _| {}, 1_000).unwrap();
    assert_eq!(faulty.history().events(), base.history().events());
    assert_eq!(faulty.steps(), base.steps());
    assert_eq!(faulty.snapshot(), base.snapshot());
}

#[test]
fn scripted_schedule_reproduces_interleaving() {
    let imp = TwoStepRegister::new(4, 1);
    // Stage the write, then let the read run before the commit: the read
    // must see the old value.
    let mut exec = Executor::new(imp.clone());
    let mut w: Workload<MultiRegisterSpec> = Workload::new(2);
    w.push(0, RegisterOp::Write(3));
    w.push(1, RegisterOp::Read);
    // p0 invoke + stage, p1 invoke + read, p0 commit.
    let mut sched = Scripted::runs(&[(0, 2), (1, 2), (0, 1)]);
    run_workload(&mut exec, w, &mut sched, &mut (), 100).unwrap();
    let recs = exec.history().records();
    let read = recs.iter().find(|r| r.op == RegisterOp::Read).unwrap();
    assert_eq!(
        read.resp,
        Some(RegisterResp::Value(1)),
        "read ran before the commit"
    );
}

#[test]
fn trace_captures_primitives_in_order() {
    let imp = TwoStepRegister::new(4, 1);
    let mut exec = Executor::new(imp);
    exec.enable_trace();
    exec.run_op_solo(Pid(0), RegisterOp::Write(2), 10).unwrap();
    let trace = exec.take_trace().unwrap();
    assert_eq!(trace.len(), 2);
    let rendered = trace.render(exec.mem());
    assert!(rendered.contains("stage"), "{rendered}");
    assert!(rendered.contains("value"), "{rendered}");
}
