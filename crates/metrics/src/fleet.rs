//! The fleet driver's outcome ledger, and the per-device metrics a
//! simulated device's handler fills.
//!
//! The driver fills a [`FleetLedger`] from its per-slot outcomes **in
//! task-index order** after every worker has finished, so its `det`
//! entries are reproducible for any worker count. A [`DeviceMetrics`]
//! belongs to one device; fleet determinism digests hash its
//! deterministic fingerprint device by device.

use crate::faults::FaultMetrics;
use crate::migration::MigrationMetrics;
use crate::registry::ledger;
use crate::stats::Histogram;

ledger! {
    /// Everything one device's handler measured: the lazy-migration
    /// flush counters and the fault-ladder ledger. Its deterministic
    /// fingerprint is what fleet determinism digests hash: it must be
    /// bit-identical between serial and parallel runs of the same seeds.
    pub struct DeviceMetrics as "device" {
        /// Lazy-migration flush counters and histograms.
        pub det migration: MigrationMetrics,
        /// Degradation-ladder fault ledger.
        pub det faults: FaultMetrics,
    }
}

ledger! {
    /// The fleet driver's outcome ledger: how every task of a run ended,
    /// how often tasks were retried, and how long attempts took.
    ///
    /// One ledger describes one fleet run; the driver fills it from the
    /// per-slot outcomes in task-index order. The attempt-latency
    /// histogram measures host wall-clock, so it is `diag` entirely (not
    /// even its count enters the fingerprint — a watchdog retry that a
    /// faster host avoids would change it). The `det` entries are
    /// identical between serial and parallel runs of the same seeds as
    /// long as no *organic* (host-speed-dependent) timeout fired.
    pub struct FleetLedger as "fleet" {
        /// Tasks that produced a result (possibly after retries).
        pub det ok: u64,
        /// Tasks quarantined after their final attempt panicked.
        pub det panicked: u64,
        /// Tasks quarantined after their final attempt overran the watchdog
        /// budget.
        pub det timed_out: u64,
        /// Tasks skipped because a resume journal already had their result.
        pub det skipped: u64,
        /// Tasks never attempted (or abandoned between attempts) because
        /// the run's cooperative cancel token was set.
        pub det cancelled: u64,
        /// Extra attempts beyond each task's first (retries actually run).
        pub det retries: u64,
        /// Attempts that ended in an (injected or organic) panic.
        pub det panicked_attempts: u64,
        /// Attempts the stall watchdog timed out.
        pub det timed_out_attempts: u64,
        /// Injected `fleet-task` faults that actually struck.
        pub det injected_faults: u64,
        /// Allocation events (see `droidsim_kernel::alloc_track`) observed
        /// across the whole run — the allocations-per-sim diet metric.
        /// Scratch-buffer reuse depends on scheduling, so this follows the
        /// wall-clock rule: excluded from the deterministic fingerprint.
        pub diag alloc_events: u64,
        /// Host wall-clock latency of every finished attempt (ms).
        pub diag attempt_latency_ms: Histogram,
    }
}

impl FleetLedger {
    /// Total tasks the ledger accounts for.
    pub fn tasks(&self) -> u64 {
        self.ok + self.panicked + self.timed_out + self.skipped + self.cancelled
    }

    /// Tasks that exhausted their retries (the quarantine list length).
    pub fn quarantined(&self) -> u64 {
        self.panicked + self.timed_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink(flushes: u64, contained: u64) -> DeviceMetrics {
        let mut m = DeviceMetrics::new();
        for _ in 0..flushes {
            m.migration.record_flush(2, 4, 1_000);
        }
        for _ in 0..contained {
            m.faults.record_contained("attribute-copy");
        }
        m
    }

    #[test]
    fn merge_is_order_stable_for_disjoint_devices() {
        // Serial reduction: fold device sinks 0, 1, 2 in order.
        let devices = [sink(1, 0), sink(2, 3), sink(0, 1)];
        let mut serial = DeviceMetrics::new();
        for d in &devices {
            serial.merge(d);
        }
        // "Parallel" reduction: same sinks, same index order (the fleet
        // reducer's contract), regardless of which worker filled them.
        let mut parallel = DeviceMetrics::new();
        for d in &devices {
            parallel.merge(d);
        }
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_string(), parallel.to_string());
        assert_eq!(serial.migration.flushes, 3);
        assert_eq!(serial.faults.contained_per_view, 4);
    }

    #[test]
    fn deterministic_fingerprint_ignores_wall_clock() {
        let mut a = DeviceMetrics::new();
        let mut b = DeviceMetrics::new();
        a.migration.record_flush(2, 4, 1_000);
        b.migration.record_flush(2, 4, 9_999_999); // same flush, slower host
        a.faults.record_fallback("bundle-corruption", 0.5);
        b.faults.record_fallback("bundle-corruption", 123.0);
        assert_ne!(a.to_string(), b.to_string());
        assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        // But it still sees every simulation-visible difference.
        b.faults.record_contained("attribute-copy");
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
    }

    #[test]
    fn fingerprint_covers_both_sinks() {
        let m = sink(1, 2);
        let line = m.to_string();
        assert!(line.contains("flushes=1"), "got {line}");
        assert!(line.contains("contained_per_view=2"), "got {line}");
    }

    #[test]
    fn ledger_fingerprint_ignores_attempt_latency() {
        let mut a = FleetLedger::new();
        let mut b = FleetLedger::new();
        a.ok = 7;
        a.retries = 2;
        a.attempt_latency_ms.record(1.0);
        b.ok = 7;
        b.retries = 2;
        b.attempt_latency_ms.record(900.0);
        b.attempt_latency_ms.record(900.0); // even the count is excluded
        b.alloc_events = 42; // scheduling-dependent, also excluded
        assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        b.panicked += 1;
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
    }

    #[test]
    fn ledger_merge_adds_every_counter() {
        let mut a = FleetLedger {
            ok: 3,
            skipped: 2,
            retries: 1,
            ..FleetLedger::new()
        };
        let b = FleetLedger {
            ok: 4,
            panicked: 1,
            timed_out: 2,
            cancelled: 1,
            panicked_attempts: 3,
            timed_out_attempts: 2,
            injected_faults: 5,
            alloc_events: 24,
            ..FleetLedger::new()
        };
        a.merge(&b);
        assert_eq!(a.cancelled, 1);
        assert_eq!(a.tasks(), 13);
        assert_eq!(a.quarantined(), 3);
        assert_eq!(a.retries, 1);
        assert_eq!(a.injected_faults, 5);
        assert_eq!(a.alloc_events, 24);
        let line = a.to_string();
        assert!(line.contains("ok=7"), "got {line}");
        assert!(line.contains("alloc_events=24"), "got {line}");
        assert!(line.contains("attempt_latency_ms=["), "got {line}");
    }
}
