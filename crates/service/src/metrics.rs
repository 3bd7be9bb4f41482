//! Structured service metrics: where a soak's wall-clock went and what the
//! online observers saw, built on the [`MetricsSnapshot`] progress API the
//! watchdog already exposes.
//!
//! The soak loop's time splits into *load* phases (handles live, traffic
//! flowing) and *audit pauses* (drain barriers: handles dropped, the
//! `mem == canonical` comparison running). This module accounts for the
//! pauses per epoch instead of smearing them into one end-to-end
//! wall-clock, so audit cost is a number in the report instead of
//! unattributable tail noise, and throughput can be stated both gross and
//! audit-excluded.

use std::time::Duration;

use hi_api::MetricsSnapshot;

/// Whether a soak ran online (non-barrier) HI probes, and why not if not.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OnlineAudit {
    /// The backend is [`hi_api::HiLevel::Perfect`] and handed out an
    /// [`hi_api::OnlineProbe`]; a prober thread sampled it at seeded
    /// non-barrier points while operations were in flight.
    Sampled,
    /// The backend declined the probe — the honest outcome for
    /// state-quiescent and weaker HI levels, whose memory is only fixed at
    /// the drain barriers.
    Unsupported,
    /// The caller disabled probing (`online_probes: 0` in the config).
    Disabled,
}

/// Per-epoch timing and observation counters of one soak.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EpochMetrics {
    /// The epoch index (0-based).
    pub epoch: usize,
    /// Operations applied within this epoch.
    pub ops_applied: usize,
    /// The load phase: handles split, traffic pumped, queues drained.
    pub load: Duration,
    /// The drain-barrier pause that closed this epoch: `mem_snapshot`,
    /// the HI audit, and the observer callback.
    pub audit_pause: Duration,
    /// Online HI probe samples taken during this epoch's load phase.
    pub probes: usize,
    /// How many of them found canonical memory.
    pub probes_passed: usize,
    /// Online capacity migrations the backend performed during this
    /// epoch's load phase (zero for backends without maintenance).
    pub resizes: u64,
    /// Wall time operations spent inside those migrations — maintenance
    /// cost attributed to this epoch, not smeared into tail latency.
    pub resize_pause: Duration,
}

/// The structured metrics snapshot of a finished soak: the per-worker
/// progress counters (the same [`MetricsSnapshot`] the watchdog reads
/// live), per-epoch wall-clock attribution, and the online-audit ledger.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServiceMetrics {
    /// Final per-worker applied/planned counters. Planned counts come from
    /// the dry-run of every client's sampling in the one routing plan built
    /// per soak and shared with the watchdog — exact under
    /// [`crate::Backpressure::Block`], an upper bound under `Reject`
    /// (rejected operations never reach their worker). Applied counts
    /// match [`crate::WorkerStats::applied`]: the record each worker hands
    /// back at every drain barrier, folded once into the report's merged
    /// histograms.
    pub progress: MetricsSnapshot,
    /// One entry per epoch, in order.
    pub epochs: Vec<EpochMetrics>,
    /// Whether online probes ran, were unsupported, or were disabled.
    pub online: OnlineAudit,
}

impl ServiceMetrics {
    /// Total time spent inside drain-barrier audits across all epochs.
    pub fn audit_pause_total(&self) -> Duration {
        self.epochs.iter().map(|e| e.audit_pause).sum()
    }

    /// Total time spent in load phases (epoch durations minus barriers).
    pub fn load_total(&self) -> Duration {
        self.epochs.iter().map(|e| e.load).sum()
    }

    /// Online probe samples taken across all epochs.
    pub fn probes(&self) -> usize {
        self.epochs.iter().map(|e| e.probes).sum()
    }

    /// Online probe samples that found canonical memory.
    pub fn probes_passed(&self) -> usize {
        self.epochs.iter().map(|e| e.probes_passed).sum()
    }

    /// Online capacity migrations across all epochs.
    pub fn resizes(&self) -> u64 {
        self.epochs.iter().map(|e| e.resizes).sum()
    }

    /// Total time operations spent inside migrations across all epochs.
    pub fn resize_pause_total(&self) -> Duration {
        self.epochs.iter().map(|e| e.resize_pause).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> ServiceMetrics {
        ServiceMetrics {
            progress: MetricsSnapshot {
                handles: Vec::new(),
            },
            epochs: vec![
                EpochMetrics {
                    epoch: 0,
                    ops_applied: 10,
                    load: Duration::from_millis(4),
                    audit_pause: Duration::from_micros(30),
                    probes: 3,
                    probes_passed: 3,
                    resizes: 2,
                    resize_pause: Duration::from_micros(15),
                },
                EpochMetrics {
                    epoch: 1,
                    ops_applied: 10,
                    load: Duration::from_millis(6),
                    audit_pause: Duration::from_micros(70),
                    probes: 2,
                    probes_passed: 1,
                    resizes: 1,
                    resize_pause: Duration::from_micros(5),
                },
            ],
            online: OnlineAudit::Sampled,
        }
    }

    #[test]
    fn totals_sum_over_epochs() {
        let m = metrics();
        assert_eq!(m.audit_pause_total(), Duration::from_micros(100));
        assert_eq!(m.load_total(), Duration::from_millis(10));
        assert_eq!(m.probes(), 5);
        assert_eq!(m.probes_passed(), 4);
        assert_eq!(m.resizes(), 3);
        assert_eq!(m.resize_pause_total(), Duration::from_micros(20));
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = ServiceMetrics {
            progress: MetricsSnapshot {
                handles: Vec::new(),
            },
            epochs: Vec::new(),
            online: OnlineAudit::Disabled,
        };
        assert_eq!(m.audit_pause_total(), Duration::ZERO);
        assert_eq!(m.probes(), 0);
        assert_eq!(m.resizes(), 0);
        assert_eq!(m.resize_pause_total(), Duration::ZERO);
    }
}
