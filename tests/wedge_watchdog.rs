//! The watchdog contract of `drive_watchdogged`: a threaded backend that
//! wedges (never finishes its workload) must resolve to a structured
//! [`DriveError::Wedged`] within the configured deadline instead of hanging
//! the suite, a panicking worker must surface as [`DriveError::Panicked`]
//! with its handle index, and an honest backend must pass through the
//! watchdogged path unchanged.
//!
//! The wedging/panicking backends here are deliberate fakes: the point is
//! the *driver's* failure behavior, not any algorithm's.

use std::time::{Duration, Instant};

use hi_concurrent::api::{
    drive_watchdogged, ConcurrentObject, DriveConfig, DriveError, HiLevel, HiSetObject,
    ObjectHandle, Progress, Roles,
};
use hi_core::objects::{CounterOp, CounterResp, CounterSpec, SetSpec};

/// A fake two-process counter whose handles complete `healthy_ops`
/// operations and then wedge forever (parked, not spinning, so the leaked
/// worker threads cost nothing after the watchdog abandons them).
struct WedgingCounter {
    spec: CounterSpec,
    healthy_ops: usize,
}

struct WedgingHandle {
    left: usize,
}

impl ObjectHandle<CounterSpec> for WedgingHandle {
    fn apply(&mut self, _op: CounterOp) -> CounterResp {
        if self.left == 0 {
            loop {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        self.left -= 1;
        CounterResp::Value(0)
    }

    fn supports(&self, _op: &CounterOp) -> bool {
        true
    }
}

impl ConcurrentObject<CounterSpec> for WedgingCounter {
    type Handle<'a> = WedgingHandle;

    fn spec(&self) -> &CounterSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::MultiProcess { n: 2 }
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::NotHi
    }

    fn progress(&self) -> Progress {
        Progress::Blocking
    }

    fn handles(&mut self) -> Vec<Self::Handle<'_>> {
        vec![
            WedgingHandle {
                left: self.healthy_ops,
            },
            WedgingHandle {
                left: self.healthy_ops,
            },
        ]
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        vec![0xdead]
    }

    fn canonical(&self, _state: &i64) -> Option<Vec<u64>> {
        None
    }

    fn abstract_state(&self) -> i64 {
        0
    }
}

/// A fake whose first handle panics on its first operation.
struct PanickingCounter {
    spec: CounterSpec,
}

struct PanickingHandle {
    panics: bool,
}

impl ObjectHandle<CounterSpec> for PanickingHandle {
    fn apply(&mut self, _op: CounterOp) -> CounterResp {
        assert!(!self.panics, "injected worker panic");
        CounterResp::Value(0)
    }

    fn supports(&self, _op: &CounterOp) -> bool {
        true
    }
}

impl ConcurrentObject<CounterSpec> for PanickingCounter {
    type Handle<'a> = PanickingHandle;

    fn spec(&self) -> &CounterSpec {
        &self.spec
    }

    fn roles(&self) -> Roles {
        Roles::MultiProcess { n: 2 }
    }

    fn hi_level(&self) -> HiLevel {
        HiLevel::NotHi
    }

    fn progress(&self) -> Progress {
        Progress::WaitFree
    }

    fn handles(&mut self) -> Vec<Self::Handle<'_>> {
        vec![
            PanickingHandle { panics: true },
            PanickingHandle { panics: false },
        ]
    }

    fn mem_snapshot(&self) -> Vec<u64> {
        Vec::new()
    }

    fn canonical(&self, _state: &i64) -> Option<Vec<u64>> {
        None
    }

    fn abstract_state(&self) -> i64 {
        0
    }
}

fn short_deadline() -> DriveConfig {
    DriveConfig {
        ops_per_handle: 8,
        seed: 3,
        deadline: Duration::from_secs(2),
        ..DriveConfig::default()
    }
}

#[test]
fn wedged_backend_resolves_to_a_structured_error_within_the_deadline() {
    let cfg = short_deadline();
    let start = Instant::now();
    let err = drive_watchdogged(
        || WedgingCounter {
            spec: CounterSpec::new(-8, 8, 0),
            healthy_ops: 3,
        },
        &cfg,
    )
    .expect_err("a backend that never drains must not report success");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(15),
        "watchdog took {elapsed:?} — it must fire near the 2s deadline, not hang"
    );
    match err {
        DriveError::Wedged {
            after,
            stalled,
            mem,
        } => {
            assert_eq!(after, cfg.deadline);
            assert_eq!(mem, vec![0xdead], "the drive-start memory travels out");
            // Both handles completed their 3 healthy ops and then wedged
            // short of the 8 planned.
            assert_eq!(stalled.len(), 2, "both handles stalled: {stalled:?}");
            for hp in &stalled {
                assert_eq!(hp.planned, cfg.ops_per_handle);
                assert!(
                    hp.applied >= 3 && hp.applied < hp.planned,
                    "handle {} reported {}/{} ops",
                    hp.handle,
                    hp.applied,
                    hp.planned
                );
            }
            let rendered = format!(
                "{}",
                DriveError::Wedged {
                    after,
                    stalled,
                    mem
                }
            );
            assert!(rendered.contains("drive wedged"), "{rendered}");
        }
        other => panic!("expected Wedged, got: {other}"),
    }
}

#[test]
fn panicking_worker_surfaces_with_its_handle_index() {
    let err = drive_watchdogged(
        || PanickingCounter {
            spec: CounterSpec::new(-8, 8, 0),
        },
        &short_deadline(),
    )
    .expect_err("a panicking worker must not report success");
    match err {
        DriveError::Panicked { handle, message } => {
            assert_eq!(handle, Some(0), "handle 0 carries the injected panic");
            assert!(
                message.contains("injected worker panic"),
                "panic payload must travel out: {message}"
            );
        }
        other => panic!("expected Panicked, got: {other}"),
    }
}

#[test]
fn construction_panic_surfaces_as_a_driver_panic() {
    let err = drive_watchdogged::<CounterSpec, WedgingCounter>(
        || panic!("injected constructor panic"),
        &short_deadline(),
    )
    .expect_err("a panicking constructor must not report success");
    match err {
        DriveError::Panicked { handle, message } => {
            assert_eq!(handle, None, "no worker was running yet");
            assert!(message.contains("injected constructor panic"), "{message}");
        }
        other => panic!("expected Panicked, got: {other}"),
    }
}

#[test]
fn honest_backend_passes_through_the_watchdogged_path() {
    let cfg = DriveConfig {
        ops_per_handle: 40,
        seed: 17,
        ..DriveConfig::default()
    };
    let report = drive_watchdogged(|| HiSetObject::new(SetSpec::new(4), 2), &cfg)
        .unwrap_or_else(|e| panic!("honest backend failed under the watchdog: {e}"));
    assert!(!report.history.records().is_empty());
    assert!(report.audited, "the perfect-HI set must still be audited");
}
