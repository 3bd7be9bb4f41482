//! The repository's benchmark: the five-rung ladder of `ladder.rs` on one
//! workload, printed as a per-rung table, a stamped JSON report, and a
//! last line carrying the result:
//!
//! ```sh
//! cargo run --release --manifest-path ladderbench/Cargo.toml -- \
//!     --workload table-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` skips rungs 1 and 5 and reports the end-to-end metrics;
//! `--trace 1` runs every rung and reports the per-layer metrics. See `README.md` for
//! the workloads and the metric each layer metric is predicted to move.
#![forbid(unsafe_code)]

mod ladder;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use ladder::{Metric, Outcome, Plan, THREAD_PLANS};
use workloads::{ShardThrash, TableZipf, UniversalCounter, Workload, NAMES};

/// The seed a run uses when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning; every check must pass on it too.
pub const HELD_OUT_SEED: u64 = 0x4d2f_90b3;

/// Operations per pass of rungs 1–3.
const PASS_OPS: usize = 1 << 14;

/// Operations per soak of rungs 4–5.
const SOAK_OPS: usize = 100_000;

#[derive(Debug)]
struct Args {
    workload: String,
    plan: Plan,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut plan = Plan {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        pass_ops: PASS_OPS,
        soak_ops: SOAK_OPS,
        expect_salt: 0,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => plan.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                plan.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(plan.seconds.is_finite() && plan.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                plan.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {NAMES:?}"));
    }
    Ok(Args { workload, plan })
}

fn run(workload: &str, plan: &Plan) -> Outcome {
    match workload {
        TableZipf::NAME => ladder::run::<TableZipf>(plan),
        ShardThrash::NAME => ladder::run::<ShardThrash>(plan),
        UniversalCounter::NAME => ladder::run::<UniversalCounter>(plan),
        _ => unreachable!("parse_args admits only known workloads"),
    }
}

/// The host and build a result was measured on.
struct Host {
    nproc: usize,
    cpu: String,
    rustc: String,
    git: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

fn host() -> Host {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        cpu,
        rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        git: command_line("git", &["rev-parse", "--short", "HEAD"])
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The per-rung table: wall ns per op at each rung and the step from the
/// rung before, then where the service's wall time per op goes.
fn ladder_table(workload: &str, out: &Outcome) -> String {
    let what = [
        "backend op",
        "ObjectHandle::apply, 1 thread",
        "ObjectHandle::apply, 2 threads (wall/op)",
        "service, trace off",
        "service, trace on",
    ];
    let mut t = format!(
        "ladder {workload}\n  rung  {:<42} {:>10} {:>10}\n",
        "layer", "ns/op", "step"
    );
    let mut prev: Option<f64> = None;
    for &(rung, ns) in &out.rungs {
        let step = prev.map_or(String::from("-"), |p| format!("{:+.1}", ns - p));
        let _ = writeln!(
            t,
            "  {rung:>4}  {:<42} {ns:>10.1} {step:>10}",
            what[rung - 1]
        );
        prev = Some(ns);
    }
    let get = |name: &str| {
        out.per_layer
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    };
    if let (Some(b), Some(o), Some(i), Some(s)) = (
        get("backend.ns_per_op"),
        get("api.overhead_ns"),
        get("service.ingress_ns_per_op"),
        get("service.ns_per_op"),
    ) {
        let share = |name: &str| get(name).unwrap_or(0.0) * s;
        let _ = writeln!(
            t,
            "  service wall/op {s:.1} ns = backend {b:.1} + api overhead {o:.1} + service \
             ingress {i:.1}; within it: drain-barrier audits {:.1}, resizes {:.1}",
            share("audit.pause_share"),
            share("shard.resize_share"),
        );
    }
    t
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ladderbench: {e}");
            eprintln!(
                "usage: ladderbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let plan = args.plan;
    let host = host();
    println!(
        "host: nproc {}, cpu {}, {}, git {}; workload {}, seed {}, {} s, trace {}",
        host.nproc,
        host.cpu,
        host.rustc,
        host.git,
        args.workload,
        plan.seed,
        plan.seconds,
        plan.trace
    );
    for (i, p) in THREAD_PLANS.iter().enumerate() {
        println!("  rung {}: {p}", i + 1);
    }

    let out = run(&args.workload, &plan);

    print!("{}", ladder_table(&args.workload, &out));
    for f in &out.checks.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = out.checks.failures.is_empty();
    let thread_plan: Vec<String> = THREAD_PLANS.iter().map(|p| json_str(p)).collect();
    let failures: Vec<String> = out.checks.failures.iter().map(|f| json_str(f)).collect();
    println!(
        "report {{\"host\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"git\": {}}}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"pass_ops\": {}, \
         \"soak_ops\": {}, \"rounds\": {{{}}}, \"thread_plan\": [{}], \"checks_run\": {}, \
         \"check_failures\": [{}], \"failed_frac\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
        host.nproc,
        json_str(&host.cpu),
        json_str(&host.rustc),
        json_str(&host.git),
        json_str(&args.workload),
        plan.seed,
        plan.seconds,
        plan.trace,
        plan.pass_ops,
        plan.soak_ops,
        out.round_figures
            .iter()
            .map(|(name, xs)| {
                let xs: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
                format!("{}: [{}]", json_str(name), xs.join(", "))
            })
            .collect::<Vec<_>>()
            .join(", "),
        thread_plan.join(", "),
        out.checks.run,
        failures.join(", "),
        json_num(out.failed as f64 / out.attempted as f64),
        json_metrics(&out.end_to_end),
        json_metrics(&out.per_layer),
    );
    let metrics = if plan.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, trace: bool) -> Plan {
        Plan {
            seed,
            seconds: 0.01,
            trace,
            pass_ops: 2_048,
            soak_ops: 2_000,
            expect_salt: 0,
        }
    }

    #[test]
    fn every_workload_passes_every_check_on_both_seeds() {
        for workload in NAMES {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let out = run(workload, &tiny(seed, true));
                assert!(
                    out.checks.failures.is_empty(),
                    "{workload} seed {seed}: {:?}",
                    out.checks.failures
                );
                assert_eq!(out.failed, 0);
                assert!(
                    out.checks.run > 10,
                    "{workload}: only {} checks",
                    out.checks.run
                );
            }
        }
    }

    #[test]
    fn a_wrong_expected_checksum_fails_the_run() {
        let plan = Plan {
            expect_salt: 1,
            ..tiny(DEFAULT_SEED, false)
        };
        let out = run(TableZipf::NAME, &plan);
        assert!(
            out.checks.failures.iter().any(|f| f.contains("checksum")),
            "{:?}",
            out.checks.failures
        );
        assert_eq!(out.failed, out.attempted, "a failed check fails every op");
    }

    #[test]
    fn metrics_follow_the_declared_lists() {
        let out = run(ShardThrash::NAME, &tiny(DEFAULT_SEED, true));
        let names = |ms: &[Metric]| ms.iter().map(|m| m.name).collect::<Vec<_>>();
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark's directory");
        for name in names(&out.end_to_end).iter().chain(&names(&out.per_layer)) {
            assert!(
                declared.contains(&format!("\"{name}\"")),
                "{name} undeclared"
            );
        }
        let m = |n: &str| out.per_layer.iter().find(|m| m.name == n).unwrap().value;
        assert!(m("shard.resizes") > 0.0, "base-2 shards must migrate");
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "table-zipf", "--trace", "2"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        let ok = parse(&["--workload", "table-zipf", "--seed", "7", "--seconds", "3"]).unwrap();
        assert_eq!((ok.plan.seed, ok.plan.seconds), (7, 3.0));
    }
}
