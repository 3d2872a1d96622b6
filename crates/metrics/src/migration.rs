//! Instrumentation for lazy migration.
//!
//! Each async delivery to a shadowed activity drains the shadow tree's
//! recorded `invalidate()` calls and copies the essence of every
//! invalidated view once (the paper's §3.3). Two things describe that
//! work:
//!
//! * **coalesce ratio** — raw invalidations per migrated view. A ratio
//!   of 4 means four `invalidate()` calls on one view within one delivery
//!   collapsed into one essence copy; 1.0 means every view was
//!   invalidated once.
//! * **flush behaviour** — how many views a delivery migrates and how
//!   long that takes, captured as [`Histogram`]s of per-flush entry
//!   counts and wall-clock flush latency.
//!
//! [`MigrationMetrics`] accumulates all of these over an engine's
//! lifetime; device fingerprints and the handler tests read them back.

use crate::registry::ledger;
use crate::stats::Histogram;

ledger! {
    /// Lifetime counters and distributions for one migration engine.
    /// Flushes are driven by the simulated invalidation stream, so the
    /// counters and batch sizes are `det`; the flush latency is host
    /// wall clock, so it is `diag`.
    pub struct MigrationMetrics as "migration" {
        /// Number of flushes performed (one per delivery that drained at
        /// least one invalidated view).
        pub det flushes: u64,
        /// Raw `invalidate()` deliveries observed before coalescing.
        pub det raw_invalidations: u64,
        /// Distinct invalidated views examined, one per view per flush
        /// (≤ raw).
        pub det coalesced_entries: u64,
        /// Per-flush batch size in coalesced entries.
        pub det batch_size: Histogram,
        /// Per-flush wall-clock latency in nanoseconds.
        pub diag flush_latency_ns: Histogram,
    }
}

impl MigrationMetrics {
    /// Records one flush: `raw` invalidations collapsed into `batch`
    /// coalesced entries, drained in `latency_ns` nanoseconds.
    pub fn record_flush(&mut self, batch: usize, raw: usize, latency_ns: u64) {
        debug_assert!(
            batch <= raw,
            "cannot coalesce {raw} raw into {batch} entries"
        );
        self.flushes += 1;
        self.raw_invalidations += raw as u64;
        self.coalesced_entries += batch as u64;
        self.batch_size.record(batch as f64);
        self.flush_latency_ns.record(latency_ns as f64);
    }

    /// Raw invalidations per coalesced entry (≥ 1 once anything was
    /// flushed; 1.0 when no view was invalidated twice in one delivery;
    /// 0 when idle).
    pub fn coalesce_ratio(&self) -> f64 {
        if self.coalesced_entries == 0 {
            0.0
        } else {
            self.raw_invalidations as f64 / self.coalesced_entries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_ratio_tracks_raw_over_entries() {
        let mut m = MigrationMetrics::new();
        assert_eq!(m.coalesce_ratio(), 0.0);
        m.record_flush(3, 12, 1_000);
        assert!((m.coalesce_ratio() - 4.0).abs() < 1e-12);
        m.record_flush(1, 1, 500);
        assert!((m.coalesce_ratio() - 13.0 / 4.0).abs() < 1e-12);
        assert_eq!(m.flushes, 2);
        assert!((m.batch_size.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn eager_equivalent_usage_has_unit_ratio() {
        let mut m = MigrationMetrics::new();
        for _ in 0..5 {
            m.record_flush(1, 1, 100);
        }
        assert!((m.coalesce_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(m.batch_size.max(), 1.0);
    }

    #[test]
    fn merge_aggregates_engines() {
        let mut a = MigrationMetrics::new();
        a.record_flush(2, 4, 100);
        let mut b = MigrationMetrics::new();
        b.record_flush(3, 9, 200);
        a.merge(&b);
        assert_eq!(a.flushes, 2);
        assert_eq!(a.raw_invalidations, 13);
        assert_eq!(a.coalesced_entries, 5);
        assert_eq!(a.flush_latency_ns.count(), 2);
    }

    #[test]
    fn display_is_human_readable() {
        let mut m = MigrationMetrics::new();
        m.record_flush(2, 6, 1_500);
        let line = m.to_string();
        assert!(
            line.starts_with("migration[flushes=1 raw_invalidations=6 coalesced_entries=2 "),
            "got {line}"
        );
    }
}
