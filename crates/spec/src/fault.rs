//! The generic fault-injection checker: crash/stall sweeps over any
//! [`SimObject`], with per-progress-class enforcement.
//!
//! The paper's adversary is a *memory-observing* one: it may cut an
//! execution short (crash processes, who then never take another step) and
//! examine the raw memory that remains. State-quiescent history independence
//! (Definition 7) is exactly the claim that this snapshot reveals nothing
//! beyond the abstract state. This module makes that adversary executable:
//!
//! 1. a fault-free **baseline** run measures how many transitions each
//!    process takes under the seeded scheduler;
//! 2. a **plan set** is derived: every process crashed at its first, middle,
//!    last and seeded-random transition points, every process crashed
//!    *except one* (the wait-freedom scenario), and every process stalled
//!    mid-run (a pure schedule perturbation no progress class may fail);
//! 3. every plan is run by [`run_fault_plan`], which (a) verifies survivors
//!    complete within a step budget unless the declared
//!    [`Progress`](hi_core::Progress) class tolerates wedging on that plan, (b) re-runs the
//!    object's [`SimAudit`](crate::SimAudit) at the observation points its model permits —
//!    including the post-crash ones, the adversary's snapshot — and
//!    (c) linearizes the truncated history; for [`Progress::Helping`](hi_core::Progress::Helping)
//!    objects the final memory is decoded and the history must linearize
//!    *to that exact state* ([`linearize_to`]), which is what makes
//!    "a crashed process's announced operation is applied exactly once"
//!    checkable: an operation applied twice (or a completed one lost)
//!    yields a state no legal linearization reaches.
//!
//! [`check_sim_object_faults`] is the sweep entry point the scenario
//! registry drives; [`run_fault_plan`] is the single-plan core for
//! dedicated sweeps (e.g. crashing a hash-table updater at every step of a
//! multi-slot rewrite).

use hi_core::{EnumerableSpec, Pid, SplitMix64};
use hi_sim::{run_workload_with_faults, Executor, FaultPlan, Faulty, Seeded};

use crate::lin::{linearize, linearize_to, LinOptions};
use crate::sim_object::{auditor_for, model_for, sim_workload, SimObject};

/// Knobs of the fault sweep. Construct with [`FaultSweepConfig::new`] and
/// override fields as needed.
#[derive(Clone, Copy, Debug)]
pub struct FaultSweepConfig {
    /// Seed for the workload, the scheduler and the sampled crash points.
    /// Equal seeds give byte-for-byte equal sweeps.
    pub seed: u64,
    /// Operations per role in the generated workload.
    pub ops_per_pid: usize,
    /// Hard transition cap for the baseline run and ceiling for per-plan
    /// budgets.
    pub max_steps: u64,
    /// Seeded-random crash points sampled per process, on top of the fixed
    /// first/middle/last points.
    pub extra_crash_points: usize,
    /// How many global transitions a stalled process is held off the
    /// schedule.
    pub stall_hold: u64,
    /// Per-plan budget = `baseline transitions × budget_factor +
    /// budget_slack`, capped at [`max_steps`](Self::max_steps).
    pub budget_factor: u64,
    /// See [`budget_factor`](Self::budget_factor).
    pub budget_slack: u64,
    /// Options for the linearizability searches.
    pub lin: LinOptions,
}

impl FaultSweepConfig {
    /// A config with the standard sweep shape.
    pub fn new(seed: u64, ops_per_pid: usize, max_steps: u64) -> Self {
        FaultSweepConfig {
            seed,
            ops_per_pid,
            max_steps,
            extra_crash_points: 3,
            stall_hold: 48,
            budget_factor: 8,
            budget_slack: 10_000,
            lin: LinOptions::default(),
        }
    }
}

/// Result of a successful [`check_sim_object_faults`] sweep. `Eq`, so
/// determinism suites can compare two sweeps under the same seed verbatim.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultSweepReport {
    /// Plans containing at least one crash (≥ one per role by
    /// construction).
    pub crash_plans: usize,
    /// Stall-only plans (exactly one per role).
    pub stall_plans: usize,
    /// Crash plans that caught a process mid-operation (its operation was
    /// still pending at the crash) — the interesting ones.
    pub crashed_mid_op: usize,
    /// Tolerated wedges: crash plans after which the survivors did not
    /// finish within budget. Always 0 unless the object declares
    /// [`Progress::Blocking`](hi_core::Progress::Blocking).
    pub wedged: usize,
    /// HI observation points examined across all fault runs.
    pub hi_points: u64,
    /// The subset of [`hi_points`](Self::hi_points) observed *after* a
    /// crash activated — the adversary's memory snapshots.
    pub post_crash_hi_points: u64,
    /// Exactly-once (state-targeted) linearizations performed; > 0 for
    /// every [`Progress::Helping`](hi_core::Progress::Helping) object.
    pub exactly_once_checks: usize,
    /// Operations in the induced histories, summed over all plans.
    pub ops: usize,
}

/// What one fault plan did to one object — the per-plan slice of a
/// [`FaultSweepReport`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlanOutcome {
    /// Whether the run drained the survivors' workload within budget
    /// (`false` only for a tolerated [`Progress::Blocking`](hi_core::Progress::Blocking) wedge).
    pub completed: bool,
    /// Whether some crashed process was caught mid-operation.
    pub crashed_mid_op: bool,
    /// HI observation points examined during this run.
    pub hi_points: u64,
    /// The subset observed after a crash activated.
    pub post_crash_hi_points: u64,
    /// Whether the exactly-once (state-targeted) linearization ran.
    pub exactly_once_checked: bool,
    /// Operations in the induced (possibly truncated) history.
    pub ops: usize,
}

/// Runs `obj` under its role-mirrored seeded workload with the faults of
/// `plan` injected, enforcing the object's declared [`Progress`](hi_core::Progress) class and
/// auditing its [`SimAudit`](crate::SimAudit) at every permitted observation
/// point — including the post-crash ones.
///
/// Enforcement per class, when the run exceeds `budget` transitions:
///
/// - [`Progress::WaitFree`](hi_core::Progress::WaitFree), [`Progress::LockFree`](hi_core::Progress::LockFree), [`Progress::Helping`](hi_core::Progress::Helping):
///   an error — survivors must complete once crashed peers are static (and
///   wait-free sweeps include plans crashing *all* peers);
/// - [`Progress::Blocking`](hi_core::Progress::Blocking): tolerated for plans containing a crash
///   (reported as `completed: false`), but still an error for stall-only
///   plans — a stall is a legal schedule, not a failure.
///
/// Whatever the class, the truncated history must linearize, and for
/// [`Progress::Helping`](hi_core::Progress::Helping) objects with a state-decoding audit the history
/// must linearize *to the decoded final state* — the exactly-once check.
///
/// # Errors
///
/// A rendered description of the first failure: budget exhaustion the class
/// forbids, an HI violation at an observation point, a non-linearizable
/// truncated history, or a decoded final state no linearization reaches.
///
/// # Panics
///
/// Panics on inconsistent object metadata (role count ≠ process count,
/// audit model ≠ [`model_for`] of the declared level).
pub fn run_fault_plan<S, O>(
    obj: &O,
    plan: &FaultPlan,
    cfg: &FaultSweepConfig,
    budget: u64,
) -> Result<PlanOutcome, String>
where
    S: EnumerableSpec,
    O: SimObject<S>,
{
    let mut auditor = auditor_for(obj);
    let roles = obj.roles();
    let n = roles.num_handles();
    let progress = obj.progress();
    let workload = sim_workload(obj.spec(), roles, cfg.ops_per_pid, cfg.seed);

    let mut exec = Executor::new(obj.implementation().clone());
    let mut faulty = Faulty::new(Seeded::new(cfg.seed), plan.clone(), n);
    let mut post_crash_hi_points = 0u64;
    let run = run_workload_with_faults(
        &mut exec,
        workload,
        &mut faulty,
        |e, f| {
            if auditor.observe(e) && f.any_crash_active() {
                post_crash_hi_points += 1;
            }
        },
        budget,
    );
    let hi_points = auditor
        .verdict()
        .map_err(|v| format!("plan {plan:?}: {v}"))?;
    // The final memory decoded into an abstract state, when the audit can.
    let decoded_final = if run.is_ok() {
        auditor.decode(&exec)
    } else {
        None
    };

    let completed = match run {
        Ok(()) => true,
        Err(e) => {
            // A stall is a legal schedule: no class may fail it. A crash may
            // legitimately wedge a Blocking implementation.
            if progress.completes_under_crashes() || !plan.has_crash() {
                return Err(format!(
                    "plan {plan:?}: survivors failed to complete within {budget} transitions \
                     ({progress:?} forbids wedging here): {e}"
                ));
            }
            false
        }
    };

    let crashed_mid_op = (0..n).any(|p| faulty.crashed(Pid(p)) && exec.can_step(Pid(p)));

    // The truncated history must linearize; for helping objects, to the
    // exact state the surviving memory decodes to.
    let mut exactly_once_checked = false;
    match (&decoded_final, progress.helps() && completed) {
        (Some(target), true) => {
            exactly_once_checked = true;
            linearize_to(exec.spec(), exec.history(), target, &cfg.lin).map_err(|e| {
                format!(
                    "plan {plan:?}: final memory decodes to state {target:?}, which no \
                     linearization of the truncated history reaches — a crashed process's \
                     announced operation must be applied exactly once ({e})"
                )
            })?;
        }
        _ => {
            linearize(exec.spec(), exec.history(), &cfg.lin)
                .map_err(|e| format!("plan {plan:?}: truncated history does not linearize: {e}"))?;
        }
    }

    Ok(PlanOutcome {
        completed,
        crashed_mid_op,
        hi_points,
        post_crash_hi_points,
        exactly_once_checked,
        ops: exec.history().records().len(),
    })
}

/// The fault-sweep mode of [`check_sim_object`](crate::check_sim_object):
/// derives a crash/stall plan set from a fault-free baseline (every role
/// crashed at sampled points of its own transition count, every role as the
/// sole survivor, every role stalled mid-run) and pushes each plan through
/// [`run_fault_plan`].
///
/// # Errors
///
/// The first per-plan failure (see [`run_fault_plan`]), a baseline that does
/// not complete within `cfg.max_steps`, or a vacuous sweep: an audited
/// object whose sweep produced no observation points at all, or none in the
/// post-crash world the adversary actually examines.
///
/// # Panics
///
/// Panics on inconsistent object metadata, as [`run_fault_plan`] does.
pub fn check_sim_object_faults<S, O>(
    obj: &O,
    cfg: &FaultSweepConfig,
) -> Result<FaultSweepReport, String>
where
    S: EnumerableSpec,
    O: SimObject<S>,
{
    let imp = obj.implementation();
    let n = obj.roles().num_handles();

    // Fault-free baseline: per-process transition counts under the same
    // seed. The fault runner's schedule is identical until a fault
    // activates, so these counts are exactly the coordinates crash points
    // are sampled in.
    let mut baseline = Faulty::new(Seeded::new(cfg.seed), FaultPlan::none(), n);
    {
        let mut exec = Executor::new(imp.clone());
        let workload = sim_workload(obj.spec(), obj.roles(), cfg.ops_per_pid, cfg.seed);
        run_workload_with_faults(
            &mut exec,
            workload,
            &mut baseline,
            |_e, _f| {},
            cfg.max_steps,
        )
        .map_err(|e| format!("fault-free baseline run failed: {e}"))?;
    }
    let taken: Vec<u64> = (0..n).map(|p| baseline.taken(Pid(p))).collect();
    let budget = (baseline.global() * cfg.budget_factor + cfg.budget_slack).min(cfg.max_steps);

    let mut plans: Vec<FaultPlan> = Vec::new();
    let mut rng = SplitMix64::new(cfg.seed ^ 0xFA17_FA17_FA17_FA17);
    for (p, &t) in taken.iter().enumerate() {
        let mut points = vec![0u64];
        if t > 0 {
            points.extend([1, t / 2, t - 1]);
            for _ in 0..cfg.extra_crash_points {
                points.push(rng.next_u64() % t);
            }
        }
        points.sort_unstable();
        points.dedup();
        for after in points {
            plans.push(FaultPlan::crash(Pid(p), after));
        }
    }
    // Sole-survivor plans: everyone but one crashed mid-run. Wait-free
    // survivors must finish alone; lock-free and helping ones must finish
    // against the now-static peers; blocking ones may wedge.
    if n > 1 {
        let mids: Vec<u64> = taken.iter().map(|&t| t / 2).collect();
        for p in 0..n {
            plans.push(FaultPlan::crash_all_except(Pid(p), &mids));
        }
    }
    let crash_plans = plans.len();
    for (p, &t) in taken.iter().enumerate() {
        plans.push(FaultPlan::stall(Pid(p), t / 2, cfg.stall_hold));
    }
    let stall_plans = plans.len() - crash_plans;

    let mut report = FaultSweepReport {
        crash_plans,
        stall_plans,
        crashed_mid_op: 0,
        wedged: 0,
        hi_points: 0,
        post_crash_hi_points: 0,
        exactly_once_checks: 0,
        ops: 0,
    };
    for plan in &plans {
        let outcome = run_fault_plan(obj, plan, cfg, budget)
            .map_err(|e| format!("seed {}: {e}", cfg.seed))?;
        report.crashed_mid_op += usize::from(outcome.crashed_mid_op);
        report.wedged += usize::from(!outcome.completed);
        report.hi_points += outcome.hi_points;
        report.post_crash_hi_points += outcome.post_crash_hi_points;
        report.exactly_once_checks += usize::from(outcome.exactly_once_checked);
        report.ops += outcome.ops;
    }

    if model_for(obj.hi_level()).is_some() {
        if report.hi_points == 0 {
            return Err(format!(
                "seed {}: the fault sweep examined no HI observation point",
                cfg.seed
            ));
        }
        if report.post_crash_hi_points == 0 {
            return Err(format!(
                "seed {}: the adversary never got a post-crash observation point",
                cfg.seed
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimAudit;
    use hi_core::Progress;
    use hi_core::{HiLevel, ObjectSpec, Roles};
    use hi_sim::{CellDomain, CellId, Implementation, MemCtx, ProcessHandle, SharedMem};

    // ------------------------------------------------------------------
    // A counter over a single CAS'd cell whose Inc can be made to apply
    // *twice* per operation. The double-applied state is invisible to the
    // plain linearizer (every Inc still returns Ack) and to the HI monitor
    // (the decoded state *is* the memory) — only the state-targeted
    // linearization of the Helping class catches it. This is the checker's
    // exactly-once tooth.
    // ------------------------------------------------------------------

    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct IncOp;

    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct AckResp;

    #[derive(Clone, Debug)]
    struct IncSpec {
        cap: u64,
    }

    impl ObjectSpec for IncSpec {
        type State = u64;
        type Op = IncOp;
        type Resp = AckResp;
        fn initial_state(&self) -> u64 {
            0
        }
        fn apply(&self, state: &u64, _op: &IncOp) -> (u64, AckResp) {
            ((*state + 1).min(self.cap), AckResp)
        }
        fn is_read_only(&self, _op: &IncOp) -> bool {
            false
        }
    }

    impl EnumerableSpec for IncSpec {
        fn states(&self) -> Vec<u64> {
            (0..=self.cap).collect()
        }
        fn ops(&self) -> Vec<IncOp> {
            vec![IncOp]
        }
        fn responses(&self) -> Vec<AckResp> {
            vec![AckResp]
        }
    }

    #[derive(Clone, Debug)]
    struct CasCounter {
        spec: IncSpec,
        n: usize,
        double: bool,
        cell: CellId,
        mem: SharedMem,
    }

    impl CasCounter {
        fn new(n: usize, double: bool) -> Self {
            let mut mem = SharedMem::new();
            let cell = mem.alloc("count", CellDomain::Word, 0);
            CasCounter {
                spec: IncSpec { cap: 1 << 20 },
                n,
                double,
                cell,
                mem,
            }
        }
    }

    #[derive(Clone, PartialEq, Eq, Debug)]
    enum CasPc {
        Idle,
        Read { second: bool },
        Cas { seen: u64, second: bool },
    }

    #[derive(Clone, PartialEq, Eq, Debug)]
    struct CasProc {
        cell: CellId,
        double: bool,
        pc: CasPc,
    }

    impl ProcessHandle<IncSpec> for CasProc {
        fn invoke(&mut self, _op: IncOp) {
            assert_eq!(self.pc, CasPc::Idle);
            self.pc = CasPc::Read { second: false };
        }
        fn is_idle(&self) -> bool {
            self.pc == CasPc::Idle
        }
        fn step(&mut self, ctx: &mut MemCtx<'_>) -> Option<AckResp> {
            match self.pc.clone() {
                CasPc::Idle => panic!("no pending op"),
                CasPc::Read { second } => {
                    let seen = ctx.read(self.cell);
                    self.pc = CasPc::Cas { seen, second };
                    None
                }
                CasPc::Cas { seen, second } => {
                    if !ctx.cas(self.cell, seen, seen + 1) {
                        self.pc = CasPc::Read { second };
                        return None;
                    }
                    if self.double && !second {
                        // The bug: apply the increment a second time.
                        self.pc = CasPc::Read { second: true };
                        return None;
                    }
                    self.pc = CasPc::Idle;
                    Some(AckResp)
                }
            }
        }
        fn peeked_cell(&self) -> Option<CellId> {
            (self.pc != CasPc::Idle).then_some(self.cell)
        }
    }

    impl Implementation<IncSpec> for CasCounter {
        type Process = CasProc;
        fn spec(&self) -> &IncSpec {
            &self.spec
        }
        fn num_processes(&self) -> usize {
            self.n
        }
        fn init_memory(&self) -> SharedMem {
            self.mem.clone()
        }
        fn make_process(&self, _pid: hi_core::Pid) -> CasProc {
            CasProc {
                cell: self.cell,
                double: self.double,
                pc: CasPc::Idle,
            }
        }
    }

    impl SimObject<IncSpec> for CasCounter {
        type Machine = Self;
        fn spec(&self) -> &IncSpec {
            &self.spec
        }
        fn roles(&self) -> Roles {
            Roles::MultiProcess { n: self.n }
        }
        fn hi_level(&self) -> HiLevel {
            HiLevel::StateQuiescent
        }
        fn progress(&self) -> Progress {
            // Claimed: crashed peers are static, so the CAS loop completes;
            // the exactly-once obligation comes with the class.
            Progress::Helping
        }
        fn implementation(&self) -> &Self {
            self
        }
        fn hi_audit(&self) -> SimAudit<IncSpec, Self> {
            let cell = self.cell;
            SimAudit::from_snapshot(crate::ObservationModel::StateQuiescent, move |snap| {
                snap[cell.0]
            })
        }
    }

    fn cfg(seed: u64) -> FaultSweepConfig {
        FaultSweepConfig::new(seed, 6, 100_000)
    }

    #[test]
    fn honest_cas_counter_passes_the_sweep() {
        let report = check_sim_object_faults(&CasCounter::new(2, false), &cfg(11)).unwrap();
        assert!(report.crash_plans >= 2, "≥ one crash plan per role");
        assert_eq!(report.stall_plans, 2);
        assert_eq!(report.wedged, 0);
        assert!(report.crashed_mid_op > 0, "some crash must land mid-op");
        assert!(report.post_crash_hi_points > 0);
        assert!(
            report.exactly_once_checks > 0,
            "Helping must be state-checked"
        );
    }

    #[test]
    fn double_applied_inc_is_caught_by_exactly_once() {
        let err = check_sim_object_faults(&CasCounter::new(2, true), &cfg(11)).unwrap_err();
        assert!(
            err.contains("exactly once"),
            "expected an exactly-once failure, got: {err}"
        );
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let a = check_sim_object_faults(&CasCounter::new(3, false), &cfg(7)).unwrap();
        let b = check_sim_object_faults(&CasCounter::new(3, false), &cfg(7)).unwrap();
        assert_eq!(a, b);
    }

    // ------------------------------------------------------------------
    // A register whose writer raises a flag around the value write and
    // whose reader spins while the flag is up: a writer crash inside the
    // handshake wedges the reader forever. Declared wait-free, the checker
    // must reject it; declared blocking, the wedge is tolerated (and the
    // truncated history still linearizes).
    // ------------------------------------------------------------------

    use hi_core::objects::{MultiRegisterSpec, RegisterOp, RegisterResp};

    #[derive(Clone, Debug)]
    struct HandshakeRegister {
        spec: MultiRegisterSpec,
        claim: Progress,
        val: CellId,
        flag: CellId,
        mem: SharedMem,
    }

    impl HandshakeRegister {
        fn new(k: u64, claim: Progress) -> Self {
            let mut mem = SharedMem::new();
            let val = mem.alloc("val", CellDomain::Bounded(k + 1), 1);
            let flag = mem.alloc("flag", CellDomain::Binary, 0);
            HandshakeRegister {
                spec: MultiRegisterSpec::new(k, 1),
                claim,
                val,
                flag,
                mem,
            }
        }
    }

    #[derive(Clone, PartialEq, Eq, Debug)]
    enum HsPc {
        Idle,
        Raise(u64),
        WriteVal(u64),
        Lower,
        PollFlag,
        ReadVal,
    }

    #[derive(Clone, PartialEq, Eq, Debug)]
    struct HsProc {
        val: CellId,
        flag: CellId,
        pc: HsPc,
    }

    impl ProcessHandle<MultiRegisterSpec> for HsProc {
        fn invoke(&mut self, op: RegisterOp) {
            assert_eq!(self.pc, HsPc::Idle);
            self.pc = match op {
                RegisterOp::Write(v) => HsPc::Raise(v),
                RegisterOp::Read => HsPc::PollFlag,
            };
        }
        fn is_idle(&self) -> bool {
            self.pc == HsPc::Idle
        }
        fn step(&mut self, ctx: &mut MemCtx<'_>) -> Option<RegisterResp> {
            match self.pc.clone() {
                HsPc::Idle => panic!("no pending op"),
                HsPc::Raise(v) => {
                    ctx.write(self.flag, 1);
                    self.pc = HsPc::WriteVal(v);
                    None
                }
                HsPc::WriteVal(v) => {
                    ctx.write(self.val, v);
                    self.pc = HsPc::Lower;
                    None
                }
                HsPc::Lower => {
                    ctx.write(self.flag, 0);
                    self.pc = HsPc::Idle;
                    Some(RegisterResp::Ack)
                }
                HsPc::PollFlag => {
                    if ctx.read(self.flag) == 0 {
                        self.pc = HsPc::ReadVal;
                    }
                    None
                }
                HsPc::ReadVal => {
                    self.pc = HsPc::Idle;
                    Some(RegisterResp::Value(ctx.read(self.val)))
                }
            }
        }
        fn peeked_cell(&self) -> Option<CellId> {
            match self.pc {
                HsPc::Idle => None,
                HsPc::Raise(_) | HsPc::Lower | HsPc::PollFlag => Some(self.flag),
                HsPc::WriteVal(_) | HsPc::ReadVal => Some(self.val),
            }
        }
    }

    impl Implementation<MultiRegisterSpec> for HandshakeRegister {
        type Process = HsProc;
        fn spec(&self) -> &MultiRegisterSpec {
            &self.spec
        }
        fn num_processes(&self) -> usize {
            2
        }
        fn init_memory(&self) -> SharedMem {
            self.mem.clone()
        }
        fn make_process(&self, _pid: hi_core::Pid) -> HsProc {
            HsProc {
                val: self.val,
                flag: self.flag,
                pc: HsPc::Idle,
            }
        }
    }

    impl SimObject<MultiRegisterSpec> for HandshakeRegister {
        type Machine = Self;
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
            self.claim
        }
        fn implementation(&self) -> &Self {
            self
        }
        fn hi_audit(&self) -> SimAudit<MultiRegisterSpec, Self> {
            SimAudit::LinOnly
        }
    }

    /// Crash the writer right after it raised the flag (invoke + 1 step):
    /// the reader spins forever.
    fn mid_handshake_crash() -> FaultPlan {
        FaultPlan::crash(Pid(0), 2)
    }

    #[test]
    fn wedging_crash_fails_a_wait_free_claim() {
        let obj = HandshakeRegister::new(2, Progress::WaitFree);
        let err = run_fault_plan(&obj, &mid_handshake_crash(), &cfg(3), 10_000).unwrap_err();
        assert!(
            err.contains("forbids wedging"),
            "expected a progress failure, got: {err}"
        );
    }

    #[test]
    fn wedging_crash_is_tolerated_for_a_blocking_claim() {
        let obj = HandshakeRegister::new(2, Progress::Blocking);
        let outcome = run_fault_plan(&obj, &mid_handshake_crash(), &cfg(3), 10_000).unwrap();
        assert!(!outcome.completed, "the wedge must be reported");
        assert!(outcome.crashed_mid_op);
    }

    #[test]
    fn stalls_are_never_excused_even_for_blocking_claims() {
        // The same mid-handshake point, but as a stall: the writer resumes,
        // so the run must complete — for every class.
        let obj = HandshakeRegister::new(2, Progress::Blocking);
        let plan = FaultPlan::stall(Pid(0), 2, 64);
        let outcome = run_fault_plan(&obj, &plan, &cfg(3), 100_000).unwrap();
        assert!(outcome.completed);
    }

    #[test]
    fn blocking_handshake_register_survives_the_full_sweep() {
        let report =
            check_sim_object_faults(&HandshakeRegister::new(2, Progress::Blocking), &cfg(5))
                .unwrap();
        assert!(report.crash_plans >= 2);
        assert_eq!(report.hi_points, 0, "LinOnly audits nothing");
    }
}
