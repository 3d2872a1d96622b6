//! The resident daemon's admission/queue/outcome ledger.
//!
//! `droidsimd` is a long-running service: unlike one fleet run's
//! [`FleetLedger`](crate::FleetLedger), its ledger accumulates over the
//! daemon's whole lifetime. A restart does not merge the previous
//! life's ledger; it rebuilds the outcome counters from the journal.
//! The counters answer the questions an operator asks an overloaded
//! service: how many jobs were accepted vs explicitly rejected, how many
//! the shedder dropped with an explicit verdict, how deep the admission
//! queue got, and how much the resume pass recovered after a crash.
//!
//! Every rejected or shed job shows up here — the daemon's contract is
//! *zero silent drops*, so `accepted == completed + failed + cancelled +
//! shed + still-pending` must always reconcile, and the `stats` endpoint
//! renders this ledger so external tooling (the `bench_gate` family) can
//! assert exactly that.

use crate::registry::{ledger, Gauge, HighWater};

ledger! {
    /// Lifetime counters and gauges for one `droidsimd` process.
    ///
    /// The `det` entries are determined by the admission sequence:
    /// identical across runs replaying it. The queue gauges, the
    /// allocation counter and the chaos-edge counters depend on fault
    /// timing and client behavior, like the fleet ledger's wall-clock
    /// entries, so they are `diag`.
    pub struct DaemonLedger as "daemon" {
        /// Jobs acknowledged: journaled, then answered `accepted`.
        pub det accepted: u64,
        /// Submissions answered `rejected` (queue full, shutdown, bad spec,
        /// or an injected admission fault) — never silently dropped.
        pub det rejected: u64,
        /// Of the rejected, how many were injected admission faults.
        pub det rejected_injected: u64,
        /// Accepted jobs the shedder dropped under queue/memory pressure,
        /// each with an explicit terminal `shed` state a waiter observes.
        pub det shed: u64,
        /// Accepted jobs re-enqueued by a restart's journal resume pass.
        pub det resumed: u64,
        /// Jobs that ran to completion with a digest.
        pub det completed: u64,
        /// Jobs whose execution failed (quarantined tasks, executor panic).
        pub det failed: u64,
        /// Jobs cancelled by a client or a blown deadline.
        pub det cancelled: u64,
        /// Deadline expiries the watchdog turned into cancellations.
        pub det deadline_expired: u64,
        /// Reclaim passes the headroom probe triggered.
        pub det reclaim_passes: u64,
        /// Current admission-queue depth (gauge, not a counter).
        pub diag queue_depth: Gauge,
        /// Deepest the admission queue ever got.
        pub diag queue_high_water: HighWater,
        /// Allocation events (`droidsim_kernel::alloc_track`) observed since
        /// daemon start. Wall-clock-class telemetry: excluded from the
        /// deterministic fingerprint, surfaced for `bench_gate`-style tools.
        pub diag alloc_events: u64,
        /// Times the daemon entered the `degraded` health state because the
        /// journal stopped accepting writes. Environment-dependent (a real
        /// or injected I/O fault), so fingerprint-excluded like
        /// `alloc_events`.
        pub diag degraded_entries: u64,
        /// Journal write/fsync failures observed (real or injected).
        /// Fingerprint-excluded.
        pub diag journal_faults: u64,
        /// Submissions answered `result=duplicate` because their
        /// `dedupe_key` matched an already-accepted job. Fingerprint-
        /// excluded: a retry schedule is timing, not admission order.
        pub diag dedupe_hits: u64,
        /// Connections refused by the concurrent-connection cap with
        /// `error=too-many-connections`. Fingerprint-excluded.
        pub diag conns_rejected: u64,
        /// Connections closed by the per-connection read timeout (slowloris
        /// defense). Fingerprint-excluded.
        pub diag slowloris_closed: u64,
    }
}

impl DaemonLedger {
    /// Jobs that reached a terminal state.
    pub fn settled(&self) -> u64 {
        self.completed + self.failed + self.cancelled + self.shed
    }

    /// Accepted jobs not yet settled (queued or running).
    pub fn in_flight(&self) -> u64 {
        (self.accepted + self.resumed).saturating_sub(self.settled())
    }

    /// Records a queue-depth observation, maintaining the high-water
    /// mark.
    pub fn observe_queue_depth(&mut self, depth: u64) {
        self.queue_depth = Gauge(depth);
        self.queue_high_water.0 = self.queue_high_water.0.max(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settled_and_in_flight_reconcile() {
        let mut l = DaemonLedger::new();
        l.accepted = 10;
        l.resumed = 2;
        l.completed = 6;
        l.failed = 1;
        l.cancelled = 1;
        l.shed = 2;
        assert_eq!(l.settled(), 10);
        assert_eq!(l.in_flight(), 2);
    }

    #[test]
    fn queue_depth_tracks_high_water() {
        let mut l = DaemonLedger::new();
        l.observe_queue_depth(3);
        l.observe_queue_depth(7);
        l.observe_queue_depth(2);
        assert_eq!(l.queue_depth, Gauge(2));
        assert_eq!(l.queue_high_water, HighWater(7));
        let line = l.to_string();
        assert!(line.contains("queue_high_water=7"), "got {line}");
    }

    #[test]
    fn fingerprint_excludes_gauges_and_allocs() {
        let mut a = DaemonLedger::new();
        let mut b = DaemonLedger::new();
        a.accepted = 4;
        b.accepted = 4;
        b.observe_queue_depth(9);
        b.alloc_events = 1234;
        b.degraded_entries = 2;
        b.journal_faults = 5;
        b.dedupe_hits = 3;
        b.conns_rejected = 8;
        b.slowloris_closed = 1;
        assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        b.shed += 1;
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
    }

    #[test]
    fn merge_adds_counters_and_maxes_high_water() {
        let mut a = DaemonLedger {
            accepted: 3,
            completed: 2,
            queue_high_water: HighWater(5),
            alloc_events: 10,
            ..DaemonLedger::new()
        };
        let b = DaemonLedger {
            accepted: 4,
            rejected: 2,
            shed: 1,
            resumed: 3,
            queue_high_water: HighWater(2),
            alloc_events: 5,
            degraded_entries: 1,
            journal_faults: 4,
            dedupe_hits: 2,
            conns_rejected: 6,
            slowloris_closed: 3,
            ..DaemonLedger::new()
        };
        a.merge(&b);
        assert_eq!(a.accepted, 7);
        assert_eq!(a.rejected, 2);
        assert_eq!(a.resumed, 3);
        assert_eq!(a.queue_high_water, HighWater(5));
        assert_eq!(a.alloc_events, 15);
        assert_eq!(a.degraded_entries, 1);
        assert_eq!(a.journal_faults, 4);
        assert_eq!(a.dedupe_hits, 2);
        assert_eq!(a.conns_rejected, 6);
        assert_eq!(a.slowloris_closed, 3);
    }

    #[test]
    fn kv_fields_cover_the_stats_contract() {
        let mut l = DaemonLedger::new();
        l.observe_queue_depth(4);
        l.alloc_events = 99;
        let kv = l.kv_fields();
        for key in [
            "accepted",
            "queue_high_water",
            "alloc_events",
            "shed",
            "degraded_entries",
            "journal_faults",
            "dedupe_hits",
            "conns_rejected",
            "slowloris_closed",
        ] {
            assert!(kv.iter().any(|(k, _)| *k == key), "missing {key}");
        }
        let find = |key: &str| kv.iter().find(|(k, _)| *k == key).unwrap().1.clone();
        assert_eq!(find("queue_high_water"), "4");
        assert_eq!(find("alloc_events"), "99");
    }
}
