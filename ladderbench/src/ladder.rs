//! The five rungs, the checks run outside their timed regions, and the
//! metrics they yield.
//!
//! Every rung times calls into one layer's public functions from outside:
//!
//! 1. the backend's own operations ([`Workload::backend_apply`]), n = 1;
//! 2. `ObjectHandle::apply` on one thread, n = 1;
//! 3. `ObjectHandle::apply` on two threads, n = 2, one handle each;
//! 4. `hi_service::run_soak` with one client thread and one worker, n = 1,
//!    tracing off;
//! 5. the same soak with tracing on.
//!
//! Rungs 1 and 5 feed only per-layer metrics, so they run only in traced
//! runs. Scripts are built before any clock starts.
//!
//! A run is a sequence of *rounds*, and every round runs each rung once:
//! passes of one script (rungs 1–2, the round's first pass untimed), one
//! window of both threads running on a fresh object (rung 3, after an
//! untimed start; see [`placed`]), or one cycle of soaks (rungs 4–5).
//! Interleaving the rungs spreads every rung's samples over the whole run,
//! so a slow spell of the host shifts every rung a little instead of one
//! rung a lot.
//!
//! On a shared VM the host's load decides much of a timing: identical
//! passes of one script on one thread fall into a fast mode and a mode
//! 1.5–1.8× slower, in spells from milliseconds to tens of seconds. A
//! median over such passes jumps from one mode to the other as the share
//! of fast spells crosses one half. So every timed figure is a mean over
//! many short repeats of identical work, spread over the whole run, with
//! the [`TRIM`] share cut off at each end: rungs 1–2 over every timed
//! pass, rung 3 over every slice of its windows, rungs 4–5 over the soaks
//! of each sub-seed. Rungs 3–5 pool only the rounds (rungs 4–5: the soaks)
//! in which the hypervisor stole the least CPU time (see
//! [`Rounds::least_stolen`]).
//!
//! Under Zipfian skew the seed decides which operation is hot, and a hot
//! `Contains` costs far less than a hot `Insert`. So that one seed's draw
//! does not decide a run's figures, every script is [`SEGMENTS`] segments
//! with their own hot set, and every soak cycle runs [`SOAK_SEEDS`] soaks
//! under sub-seeds of the run's seed.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hi_api::{ConcurrentObject, ObjectHandle};
use hi_bench::hist::Histogram;
use hi_core::{handle_seed, skewed_script, Arrival, EnumerableSpec, ObjectSpec};
use hi_service::{run_soak, Backpressure, SoakConfig, SoakReport};

use crate::workloads::Workload;

/// The operation type of a workload's spec.
pub type Op<W> = <<W as Workload>::Spec as ObjectSpec>::Op;

/// Rounds every run makes, however short its time.
pub const MIN_ROUNDS: usize = 3;

/// Segments of every script, each drawn under its own sub-seed.
pub const SEGMENTS: usize = 64;

/// Soaks in one cycle of rungs 4–5, each under its own sub-seed.
pub const SOAK_SEEDS: usize = 8;

/// The share of repeats cut off at each end before a figure's mean is
/// taken: the slowest tenth holds preemptions and steal spikes, and the
/// fastest tenth is cut to keep the mean centred.
const TRIM: f64 = 0.1;

/// Time of rungs 1, 2 and 3 in one round, untraced and traced.
const ROUND_SHARES_MS: [[u64; 3]; 2] = [[0, 250, 300], [150, 150, 250]];

/// Untimed start of both threads before a rung-3 window opens.
const RAMP: Duration = Duration::from_millis(20);

/// Rung-3 operations between two progress updates of a thread.
const CHUNK: usize = 256;

/// One slice of a rung-3 window: the ops completed in each are counted.
const SLICE: Duration = Duration::from_millis(25);

/// Builds of each script, timed for `setup.scripts_ms`.
const SCRIPT_BUILDS: usize = 5;

/// Logical clients of the service rungs.
const CLIENTS: usize = 32;

/// Drain barriers inside one soak (so `MID_AUDITS + 1` audits).
const MID_AUDITS: usize = 3;

/// What one run measures and how.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Workload seed: fixes every script and the service's client streams.
    pub seed: u64,
    /// Wall time the rounds take, at least [`MIN_ROUNDS`] of them.
    pub seconds: f64,
    /// Run rungs 1 and 5 and report per-layer metrics.
    pub trace: bool,
    /// Operations in one pass of rungs 1–3 (per thread in rung 3); a
    /// multiple of [`SEGMENTS`].
    pub pass_ops: usize,
    /// Operations in one soak of rungs 4–5.
    pub soak_ops: usize,
    /// XOR-ed into every expected response checksum. Zero in every real
    /// run; the benchmark's own test sets it to show that a wrong expected
    /// checksum fails the run.
    pub expect_salt: u64,
}

/// The thread plan of every rung, stamped on every output.
pub const THREAD_PLANS: [&str; 5] = [
    "1 thread, n=1, backend insert/remove/contains or UniversalHandle::apply",
    "1 thread, n=1, ObjectHandle::apply",
    "2 threads, n=2, one handle each (calling thread asleep but for a \
     progress read every 25 ms)",
    "run_soak: 1 client thread (32 logical clients, Block, depth 1024, \
     online_probes 0) + 1 worker, n=1, trace off",
    "run_soak as rung 4, trace on",
];

fn checksum<R: Hash>(resps: &[R]) -> u64 {
    let mut h = DefaultHasher::new();
    resps.hash(&mut h);
    h.finish()
}

/// The aggregate CPU-time counters of `/proc/stat`, in clock ticks: how
/// much the hypervisor stole, out of all CPU time. Zero where the file is
/// unreadable, which makes every interval look equally clean.
#[derive(Clone, Copy)]
struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // cpu user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user.
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// The share of CPU time stolen since `self`.
    fn stolen_share(self) -> f64 {
        let now = CpuTicks::now();
        let steal = now.steal.saturating_sub(self.steal);
        steal as f64 / now.total.saturating_sub(self.total).max(1) as f64
    }
}

/// One rung's figures, one per round, each with the share of CPU time the
/// hypervisor stole while it was measured.
struct Rounds<T> {
    items: Vec<T>,
    steal: Vec<f64>,
}

impl<T> Rounds<T> {
    fn new() -> Self {
        Rounds {
            items: Vec::new(),
            steal: Vec::new(),
        }
    }

    fn push(&mut self, item: T, steal: f64) {
        self.items.push(item);
        self.steal.push(steal);
    }

    /// The rounds measured with at most the median stolen share. On a
    /// shared VM a round the hypervisor took the CPU from measures the
    /// hypervisor, and two-thread rungs slow down several-fold in such
    /// spells; the figures are taken from the cleaner half.
    fn least_stolen(&self) -> Vec<&T> {
        let cut = median(&self.steal);
        self.items
            .iter()
            .zip(&self.steal)
            .filter(|&(_, &s)| s <= cut)
            .map(|(x, _)| x)
            .collect()
    }

    /// The median over the least-stolen rounds of `f` of each.
    fn median(&self, f: impl Fn(&T) -> f64) -> f64 {
        median(&self.least_stolen().into_iter().map(f).collect::<Vec<_>>())
    }
}

/// A one-thread rung (1 or 2) across rounds.
struct Passes<R> {
    /// The response checksum of every pass, timed or not, in order.
    checksums: Vec<u64>,
    /// Mean wall ns per op of every timed pass, by round.
    rounds: Vec<Vec<f64>>,
    /// The response buffer every pass reuses.
    resps: Vec<R>,
}

impl<R: Hash> Passes<R> {
    fn new(pass_ops: usize) -> Self {
        Passes {
            checksums: Vec::new(),
            rounds: Vec::new(),
            resps: Vec::with_capacity(pass_ops),
        }
    }

    /// The run's figure: the trimmed mean of every timed pass.
    fn ns_per_op(&self) -> f64 {
        trimmed_mean(&self.rounds.concat())
    }

    /// Each round's trimmed mean, for the report.
    fn round_figures(&self) -> Vec<f64> {
        self.rounds.iter().map(|ns| trimmed_mean(ns)).collect()
    }

    /// One round: an untimed pass that warms the caches back up, then
    /// timed passes until `budget` is spent (at least one). Responses are
    /// stored inside the timed loop and checksummed outside it.
    fn round<O: Clone>(&mut self, script: &[O], budget: Duration, mut apply: impl FnMut(O) -> R) {
        let start = Instant::now();
        let (mut timed, mut warm) = (Vec::new(), false);
        loop {
            self.resps.clear();
            let t0 = Instant::now();
            for op in script {
                self.resps.push(apply(op.clone()));
            }
            if warm {
                timed.push(t0.elapsed().as_nanos() as f64 / script.len() as f64);
            }
            warm = true;
            self.checksums.push(checksum(&self.resps));
            if !timed.is_empty() && start.elapsed() >= budget {
                self.rounds.push(timed);
                return;
            }
        }
    }

    /// Operations applied across every pass.
    fn ops(&self, pass_ops: usize) -> u64 {
        (self.checksums.len() * pass_ops) as u64
    }

    /// Compares every pass's checksum with a sequential replay of the same
    /// passes against the spec, from the initial state.
    fn check_replay<S>(&self, spec: &S, script: &[S::Op], salt: u64) -> Result<(), String>
    where
        S: ObjectSpec<Resp = R>,
    {
        let mut q = spec.initial_state();
        let mut resps = Vec::with_capacity(script.len());
        for (pass, &got) in self.checksums.iter().enumerate() {
            resps.clear();
            for op in script {
                let (next, r) = spec.apply(&q, op);
                q = next;
                resps.push(r);
            }
            if checksum(&resps) ^ salt != got {
                return Err(format!("pass {pass} of {} differs", self.checksums.len()));
            }
        }
        Ok(())
    }
}

/// Stream `stream` of a run's scripts: [`SEGMENTS`] skewed scripts over
/// the spec's operations, each under its own sub-seed.
fn build_script<W: Workload>(menu: &[Op<W>], seed: u64, stream: usize, ops: usize) -> Vec<Op<W>> {
    let stream_seed = handle_seed(seed, stream);
    (0..SEGMENTS)
        .flat_map(|i| {
            skewed_script(
                menu,
                ops / SEGMENTS,
                handle_seed(stream_seed, i),
                W::key_dist(),
            )
        })
        .collect()
}

/// Quiescent HI audit: the object's sampled audit where it offers one,
/// otherwise `mem_snapshot() == canonical(abstract_state())`.
fn audit<S: ObjectSpec, O: ConcurrentObject<S>>(obj: &O, seed: u64) -> Result<(), String> {
    if let Some(sample) = obj.sampled_audit(seed) {
        return sample.failure.map_or(Ok(()), Err);
    }
    let state = obj.abstract_state();
    let mem = obj.mem_snapshot();
    match obj.canonical(&state) {
        Some(canonical) if canonical == mem => Ok(()),
        Some(canonical) => Err(format!(
            "memory {mem:?} of state {state:?} is not canonical {canonical:?}"
        )),
        None => Err("the object fixes no canonical form".into()),
    }
}

/// A progress counter on a cache line of its own, so that one thread's
/// updates do not slow the other thread down.
#[repr(align(64))]
struct Progress(AtomicU64);

/// Rung 3, one round: every handle of the object on its own thread, each
/// applying its own script over and over. The calling thread sleeps
/// through an untimed [`RAMP`] and then one `window` of [`SLICE`]s, and
/// reads how many operations completed in each slice. Returns the ops/s
/// of every slice, the share of CPU time stolen in the window and every
/// operation applied, or the panic a handle raised.
fn concurrent_window<S, O>(
    obj: &mut O,
    scripts: &[Vec<S::Op>],
    window: Duration,
) -> Result<(Vec<f64>, f64, u64), String>
where
    S: ObjectSpec,
    S::Op: Sync,
    O: ConcurrentObject<S>,
{
    let handles = obj.handles();
    assert_eq!(handles.len(), scripts.len(), "one script per handle");
    // Progress counters and flags are statistics and signals that publish
    // no data, so Relaxed suffices.
    let done: Vec<Progress> = scripts
        .iter()
        .map(|_| Progress(AtomicU64::new(0)))
        .collect();
    let stop = AtomicBool::new(false);
    let panicked = AtomicBool::new(false);
    let total = || {
        done.iter()
            .map(|d| d.0.load(Ordering::Relaxed))
            .sum::<u64>()
    };
    let (mut rates, mut steal) = (Vec::new(), 0.0);
    std::thread::scope(|s| {
        for ((mut h, script), done) in handles.into_iter().zip(scripts).zip(&done) {
            let (stop, panicked) = (&stop, &panicked);
            s.spawn(move || {
                let mut resps = Vec::with_capacity(script.len());
                let mut n = 0u64;
                let run = catch_unwind(AssertUnwindSafe(|| loop {
                    resps.clear();
                    for chunk in script.chunks(CHUNK) {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        for op in chunk {
                            resps.push(h.apply(op.clone()));
                        }
                        n += chunk.len() as u64;
                        done.0.store(n, Ordering::Relaxed);
                    }
                    std::hint::black_box(&resps);
                }));
                if run.is_err() {
                    panicked.store(true, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(RAMP);
        let ticks = CpuTicks::now();
        let (mut t0, mut n0) = (Instant::now(), total());
        let end = t0 + window;
        while t0 < end {
            std::thread::sleep(SLICE);
            let (t1, n1) = (Instant::now(), total());
            rates.push((n1 - n0) as f64 / (t1 - t0).as_secs_f64());
            (t0, n0) = (t1, n1);
        }
        steal = ticks.stolen_share();
        stop.store(true, Ordering::Relaxed);
    });
    if panicked.load(Ordering::Relaxed) {
        return Err("a handle panicked (its message is on stderr)".into());
    }
    Ok((rates, steal, total()))
}

/// Hands `f` the object `obj`, boxed `offset` bytes (0, 16, 32 or 48) past
/// a cache-line boundary.
///
/// Where an object's fields fall relative to cache lines decides whether
/// one thread's writes to a field invalidate another field that a second
/// thread only reads. On table-zipf, rung 3 runs about 35% faster when the
/// table's seqlock word starts a cache line of its own. The stack and the
/// heap put a 16-byte-aligned object at any of the four offsets by chance,
/// so rung 3 cycles through all four instead of inheriting one.
fn placed<T, R>(offset: usize, obj: T, f: impl FnOnce(&mut T) -> R) -> R {
    #[repr(C, align(64))]
    struct At<T, const PAD: usize> {
        _pad: [u8; PAD],
        obj: T,
    }
    match offset {
        0 => f(&mut Box::new(At::<T, 0> { _pad: [], obj }).obj),
        16 => f(&mut Box::new(At::<T, 16> { _pad: [0; 16], obj }).obj),
        32 => f(&mut Box::new(At::<T, 32> { _pad: [0; 32], obj }).obj),
        _ => f(&mut Box::new(At::<T, 48> { _pad: [0; 48], obj }).obj),
    }
}

/// One soak of rungs 4–5, the benchmark wall time around `run_soak` and
/// the share of CPU time stolen during it.
struct SoakRep {
    report: SoakReport,
    wall: Duration,
    steal: f64,
}

/// [`SOAK_SEEDS`] soaks, one per sub-seed, in sub-seed order.
type Cycle = Vec<SoakRep>;

/// Sums `f` over the soaks of a cycle.
fn total(cycle: &Cycle, f: impl Fn(&SoakReport) -> f64) -> f64 {
    cycle.iter().map(|r| f(&r.report)).sum()
}

fn elapsed_s(r: &SoakReport) -> f64 {
    r.elapsed.as_secs_f64()
}

fn applied(r: &SoakReport) -> f64 {
    r.ops_applied as f64
}

/// The ops/s of rungs 4–5 over a run: the ops of one cycle over the sum,
/// across sub-seeds, of the trimmed mean `SoakReport.elapsed` of that
/// sub-seed's least-stolen soaks. A sub-seed's soaks apply the same ops in
/// the same order (the exact-count guard checks it), so they are repeats
/// of identical work. Steal is judged per soak, not per cycle: the client
/// and the worker stall each other whenever either vCPU is taken away, so
/// a few percent of steal inside a soak costs it far more than that.
fn soak_rate(cycles: &Rounds<Cycle>) -> f64 {
    let ops = cycles.items.first().map_or(0.0, |c| total(c, applied));
    let secs: f64 = (0..SOAK_SEEDS)
        .map(|sub| {
            let mut soaks = Rounds::new();
            for c in &cycles.items {
                soaks.push(elapsed_s(&c[sub].report), c[sub].steal);
            }
            trimmed_mean(
                &soaks
                    .least_stolen()
                    .into_iter()
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .sum();
    ops / secs
}

/// Everything a run accumulates besides the rungs' own figures.
#[derive(Default)]
struct Ledger {
    checks: Checks,
    /// Operations attempted so far, warm-ups included.
    attempted: u64,
    /// Wall ms of every object construction with n = 1.
    object_ms: Vec<f64>,
}

impl Ledger {
    fn object<W: Workload>(&mut self, n: usize) -> W::Obj {
        let t = Instant::now();
        let obj = W::object(n);
        if n == 1 {
            self.object_ms.push(ms(t.elapsed()));
        }
        obj
    }
}

/// Rungs 4–5, one round: a cycle of soaks, each checked. `None` when a
/// soak failed outright (the failure is recorded).
fn soak_cycle<W: Workload>(plan: &Plan, trace: bool, ledger: &mut Ledger) -> Option<Cycle>
where
    Op<W>: Send + Sync,
{
    let rung = if trace { 5 } else { 4 };
    let mut cycle = Cycle::new();
    for sub in 0..SOAK_SEEDS {
        let cfg = SoakConfig {
            clients: CLIENTS,
            client_threads: 1,
            total_ops: plan.soak_ops,
            queue_depth: 1024,
            backpressure: Backpressure::Block,
            key_dist: W::key_dist(),
            arrival: Arrival::Steady,
            mid_audits: MID_AUDITS,
            seed: handle_seed(plan.seed, sub),
            deadline: Duration::from_secs(120),
            trace,
            online_probes: 0,
        };
        let mut obj = ledger.object::<W>(1);
        let (t, ticks) = (Instant::now(), CpuTicks::now());
        let verdict = run_soak(&mut obj, &cfg);
        let (wall, steal) = (t.elapsed(), ticks.stolen_share());
        ledger.attempted += plan.soak_ops as u64;
        let checks = &mut ledger.checks;
        let report = match verdict {
            Ok(report) => report,
            Err(e) => {
                checks.check(&format!("rung {rung} soak"), Err(e.to_string()));
                return None;
            }
        };
        let counts = (
            report.ops_applied,
            report.ops_submitted,
            report.ops_rejected,
        );
        checks.check(
            &format!("rung {rung} every op applied"),
            if counts == (plan.soak_ops, plan.soak_ops, 0) {
                Ok(())
            } else {
                Err(format!("(applied, submitted, rejected) = {counts:?}"))
            },
        );
        let audited =
            report.audits.len() == MID_AUDITS + 1 && report.audits.iter().all(|a| a.audited);
        checks.check(
            &format!("rung {rung} every drain barrier audited"),
            audited.then_some(()).ok_or(format!("{:?}", report.audits)),
        );
        checks.check(
            &format!("rung {rung} quiescent audit"),
            audit(&obj, cfg.seed),
        );
        cycle.push(SoakRep {
            report,
            wall,
            steal,
        });
    }
    Some(cycle)
}

/// Failed checks, each rendered; the run is correct iff none failed.
#[derive(Default, Debug)]
pub struct Checks {
    /// Checks that ran.
    pub run: usize,
    /// The failures, rendered.
    pub failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, what: &str, verdict: Result<(), String>) {
        self.run += 1;
        if let Err(e) = verdict {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// One metric, by name and unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Dotted metric name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run of the ladder produced.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in `BENCHMARK.json` order; empty unless the plan
    /// traces.
    pub per_layer: Vec<Metric>,
    /// Wall ns per op at each rung that ran (rung 3 as 2-thread wall per
    /// op), in rung order.
    pub rungs: Vec<(usize, f64)>,
    /// Each rung's figure in every round, by rung, for the report.
    pub round_figures: Vec<(&'static str, Vec<f64>)>,
    /// Operations attempted across every rung, warm-ups included.
    pub attempted: u64,
    /// Operations the service did not apply; every attempted op when a
    /// check failed.
    pub failed: u64,
    /// The outcome of every correctness check.
    pub checks: Checks,
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The mean of `xs` between its [`TRIM`] and `1 - TRIM` quantiles, ends
/// interpolated so that the figure moves smoothly with every value.
fn trimmed_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // The mean over [lo, hi] of the step function that takes v[i] on
    // [i, i + 1), with lo and hi the trim points in rank units.
    let n = v.len() as f64;
    let (lo, hi) = (TRIM * n, (1.0 - TRIM) * n);
    let sum: f64 = v
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let covered = (hi.min(i as f64 + 1.0) - lo.max(i as f64)).max(0.0);
            x * covered
        })
        .sum();
    sum / (hi - lo)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the ladder of workload `W` under `plan`.
pub fn run<W: Workload>(plan: &Plan) -> Outcome
where
    Op<W>: Send + Sync,
{
    assert_eq!(plan.pass_ops % SEGMENTS, 0, "a pass is whole segments");
    let spec = W::spec();
    let menu = spec.ops();
    let shares = ROUND_SHARES_MS[usize::from(plan.trace)].map(Duration::from_millis);
    let mut ledger = Ledger::default();

    // --- set-up: scripts (stream 0 for rungs 1–2, one stream per thread
    // of rung 3), each built several times and timed.
    let mut script_ms = Vec::new();
    let mut scripts: Vec<Vec<Op<W>>> = (0..3)
        .map(|stream| {
            let mut script = Vec::new();
            for _ in 0..SCRIPT_BUILDS {
                let t = Instant::now();
                script = build_script::<W>(&menu, plan.seed, stream, plan.pass_ops);
                script_ms.push(ms(t.elapsed()));
            }
            script
        })
        .collect();
    let pair = scripts.split_off(1);
    let script = scripts.pop().expect("stream 0 was built");

    // --- the rounds.
    let mut rung1 = Passes::new(plan.pass_ops);
    let mut rung2 = Passes::new(plan.pass_ops);
    let mut rung3 = Rounds::new();
    let (mut untraced, mut traced) = (Rounds::new(), Rounds::new());
    let run_ticks = CpuTicks::now();
    let host_steal;
    let obj1 = plan.trace.then(|| ledger.object::<W>(1));
    let mut obj2 = ledger.object::<W>(1);
    {
        let mut backend = obj1.as_ref().map(W::backend);
        let mut handles = obj2.handles();
        let handle = &mut handles[0];
        let start = Instant::now();
        while rung2.rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < plan.seconds {
            if let Some(b) = backend.as_mut() {
                rung1.round(&script, shares[0], |op| W::backend_apply(b, op));
            }
            rung2.round(&script, shares[1], |op| handle.apply(op));
            let offset = 16 * (rung3.items.len() % 4);
            let window = placed(offset, ledger.object::<W>(2), |obj| {
                let window = concurrent_window(obj, &pair, shares[2]);
                let audited = audit(obj, plan.seed);
                ledger.checks.check("rung 3 quiescent audit", audited);
                window
            });
            match window {
                Ok((slices, steal, ops)) => {
                    rung3.push(slices, steal);
                    ledger.attempted += ops;
                }
                Err(e) => {
                    ledger.checks.check("rung 3", Err(e));
                    break;
                }
            }
            let ticks = CpuTicks::now();
            let Some(cycle) = soak_cycle::<W>(plan, false, &mut ledger) else {
                break;
            };
            untraced.push(cycle, ticks.stolen_share());
            if plan.trace {
                let ticks = CpuTicks::now();
                let Some(cycle) = soak_cycle::<W>(plan, true, &mut ledger) else {
                    break;
                };
                traced.push(cycle, ticks.stolen_share());
            }
        }
        host_steal = run_ticks.stolen_share();
    }
    ledger.attempted += rung1.ops(plan.pass_ops) + rung2.ops(plan.pass_ops);

    // --- checks outside every timed region.
    let checks = &mut ledger.checks;
    if let Some(obj1) = &obj1 {
        checks.check(
            "rung 1 response checksums vs sequential replay",
            rung1.check_replay(&spec, &script, plan.expect_salt),
        );
        checks.check("rung 1 quiescent audit", audit(obj1, plan.seed));
    }
    checks.check(
        "rung 2 response checksums vs sequential replay",
        rung2.check_replay(&spec, &script, plan.expect_salt),
    );
    checks.check("rung 2 quiescent audit", audit(&obj2, plan.seed));
    // Exact-count guard: one client thread feeding one worker applies the
    // same op sequence in every soak of one sub-seed, so the counts of each
    // sub-seed must agree across every cycle, traced or not.
    let counts = |c: &Cycle| -> Vec<(u64, usize)> {
        c.iter()
            .map(|r| (r.report.metrics.resizes(), r.report.audits.len()))
            .collect()
    };
    let cycles: Vec<&Cycle> = untraced.items.iter().chain(&traced.items).collect();
    checks.check(
        "exact-count guard (benchmark fault): resizes and audits per sub-seed across cycles",
        match cycles.iter().find(|c| counts(c) != counts(cycles[0])) {
            None => Ok(()),
            Some(c) => Err(format!(
                "(resizes, audits) {:?} != {:?}",
                counts(c),
                counts(cycles[0])
            )),
        },
    );

    let soaks: Vec<&SoakRep> = cycles.iter().flat_map(|c| c.iter()).collect();
    let attempted = ledger.attempted;
    let failed = if ledger.checks.failures.is_empty() {
        soaks
            .iter()
            .map(|r| plan.soak_ops.saturating_sub(r.report.ops_applied) as u64)
            .sum()
    } else {
        attempted
    };

    let backend_ns = rung1.ns_per_op();
    let api_ns = rung2.ns_per_op();
    let ops_s_2t = trimmed_mean(
        &rung3
            .least_stolen()
            .into_iter()
            .flatten()
            .copied()
            .collect::<Vec<_>>(),
    );
    let service_ops_s = soak_rate(&untraced);
    let service_ms: Vec<f64> = soaks
        .iter()
        .map(|r| ms(r.wall.saturating_sub(r.report.elapsed)))
        .collect();
    let setup_ms = [
        median(&ledger.object_ms),
        median(&script_ms),
        median(&service_ms),
    ];
    let end_to_end = vec![
        metric("service_ops_s", service_ops_s, "1/s"),
        metric("concurrent_ops_s", ops_s_2t, "1/s"),
        metric("single_op_ns", api_ns, "ns"),
        metric("setup_s", setup_ms.iter().sum::<f64>() / 1e3, "s"),
        metric(
            "applied_frac",
            1.0 - failed as f64 / attempted as f64,
            "ratio",
        ),
    ];

    let service_ns = 1e9 / service_ops_s;
    let trace_ops_s = soak_rate(&traced);
    let rate = |c: &Cycle| total(c, applied) / total(c, elapsed_s);
    let rates = |cycles: &Rounds<Cycle>| cycles.items.iter().map(rate).collect();
    let round_figures = vec![
        ("rung1_ns", rung1.round_figures()),
        ("rung2_ns", rung2.round_figures()),
        (
            "rung3_ops_s",
            rung3.items.iter().map(|r| trimmed_mean(r)).collect(),
        ),
        ("rung3_steal", rung3.steal.clone()),
        ("rung4_ops_s", rates(&untraced)),
        ("rung4_steal", untraced.steal.clone()),
        ("rung5_ops_s", rates(&traced)),
        ("rung5_steal", traced.steal.clone()),
    ];
    let mut rungs = vec![(2, api_ns), (3, 1e9 / ops_s_2t), (4, service_ns)];
    let mut per_layer = Vec::new();
    if plan.trace {
        rungs.insert(0, (1, backend_ns));
        rungs.push((5, 1e9 / trace_ops_s));
        // Exact counts per cycle: every cycle agrees (the guard above).
        let per_cycle =
            |f: fn(&SoakReport) -> f64| untraced.items.first().map_or(f64::NAN, |c| total(c, f));
        let resizes = per_cycle(|r| r.metrics.resizes() as f64);
        let audits = per_cycle(|r| r.audits.len() as f64);
        let share =
            |f: fn(&SoakReport) -> f64| untraced.median(|c| total(c, f) / total(c, elapsed_s));
        let merged = |span: fn(&SoakReport) -> &Histogram| {
            let mut all = Histogram::new();
            for r in traced.least_stolen().into_iter().flatten() {
                all.merge(span(&r.report));
            }
            all
        };
        let wait = merged(|r| &r.queue_wait);
        let serve = merged(|r| &r.service);
        let latency = merged(|r| &r.latency);
        let max_depths: Vec<f64> = untraced
            .least_stolen()
            .into_iter()
            .flatten()
            .map(|r| {
                let depths = r.report.workers.iter().map(|w| w.max_queue_depth);
                depths.max().unwrap_or(0) as f64
            })
            .collect();
        per_layer = vec![
            metric("backend.ns_per_op", backend_ns, "ns"),
            metric("api.ns_per_op", api_ns, "ns"),
            metric("api.overhead_ns", api_ns - backend_ns, "ns"),
            metric("api.ops_s_1t", 1e9 / api_ns, "1/s"),
            metric("api.ops_s_2t", ops_s_2t, "1/s"),
            metric("api.scaling_2t", ops_s_2t * api_ns / 1e9, "ratio"),
            metric("service.ns_per_op", service_ns, "ns"),
            metric("service.ingress_ns_per_op", service_ns - api_ns, "ns"),
            metric(
                "service.sends_blocked_frac",
                untraced.median(|c| {
                    total(c, |r| r.sends_blocked as f64) / total(c, |r| r.ops_submitted as f64)
                }),
                "ratio",
            ),
            metric("service.max_queue_depth", median(&max_depths), "count"),
            metric("service.trace_ops_s", trace_ops_s, "1/s"),
            metric(
                "service.trace_overhead_frac",
                service_ops_s / trace_ops_s - 1.0,
                "ratio",
            ),
            metric("service.queue_wait_p50_ns", wait.quantile(0.5) as f64, "ns"),
            metric(
                "service.queue_wait_p99_ns",
                wait.quantile(0.99) as f64,
                "ns",
            ),
            metric("service.serve_p50_ns", serve.quantile(0.5) as f64, "ns"),
            metric("service.serve_p99_ns", serve.quantile(0.99) as f64, "ns"),
            metric("service.latency_p50_ns", latency.quantile(0.5) as f64, "ns"),
            metric(
                "service.latency_p99_ns",
                latency.quantile(0.99) as f64,
                "ns",
            ),
            metric("service.samples", latency.count() as f64, "count"),
            metric("audit.count", audits, "count"),
            metric(
                "audit.pause_us",
                untraced.median(|c| {
                    total(c, |r| r.metrics.audit_pause_total().as_secs_f64()) * 1e6 / audits
                }),
                "us",
            ),
            metric(
                "audit.pause_share",
                share(|r| r.metrics.audit_pause_total().as_secs_f64()),
                "ratio",
            ),
            metric("shard.resizes", resizes, "count"),
            metric(
                "shard.resizes_per_kop",
                resizes * 1e3 / (SOAK_SEEDS * plan.soak_ops) as f64,
                "count",
            ),
            metric(
                "shard.ns_per_resize",
                if resizes > 0.0 {
                    untraced.median(|c| {
                        total(c, |r| r.metrics.resize_pause_total().as_nanos() as f64) / resizes
                    })
                } else {
                    0.0
                },
                "ns",
            ),
            metric(
                "shard.resize_share",
                share(|r| r.metrics.resize_pause_total().as_secs_f64()),
                "ratio",
            ),
            metric("host.steal_frac", host_steal, "ratio"),
            metric("setup.object_ms", setup_ms[0], "ms"),
            metric("setup.scripts_ms", setup_ms[1], "ms"),
            metric("setup.service_ms", setup_ms[2], "ms"),
            metric(
                "workload.read_frac",
                script.iter().filter(|op| spec.is_read_only(op)).count() as f64
                    / script.len() as f64,
                "ratio",
            ),
        ];
    }
    Outcome {
        end_to_end,
        per_layer,
        rungs,
        round_figures,
        attempted,
        failed,
        checks: ledger.checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_cuts_a_tenth_at_each_end() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        let xs: Vec<f64> = (0..10).map(f64::from).rev().collect();
        assert!(close(trimmed_mean(&xs), 4.5));
        let mut ys = xs.clone();
        ys[0] = 1e9;
        assert!(
            close(trimmed_mean(&ys), 4.5),
            "an outlier beyond the cut is ignored"
        );
        assert!(close(trimmed_mean(&[3.0]), 3.0));
        // Cuts at ranks 0.5 and 4.5: half of 0 and of 4, all of 1, 2, 3.
        assert!(close(trimmed_mean(&[4.0, 0.0, 1.0, 2.0, 3.0]), 2.0));
    }
}
