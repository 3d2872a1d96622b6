//! Observability for the supervised migration subsystem.
//!
//! Robustness is only real if it is measurable: every fault the handler
//! sees — injected by a fault plan or organic — is attributed to a site
//! (keyed by the site's stable name, so this crate needs no dependency
//! on the fault-injection crate) and to the **degradation-ladder rung**
//! that absorbed it:
//!
//! 1. *contained per-view* — the faulty view was skipped and marked
//!    stale; the rest of the batch migrated,
//! 2. *fallback restart* — the change abandoned shadow/sunny handling
//!    and replayed the stock save → destroy → recreate path,
//! 3. *process crash* — nothing could absorb it; the process died (the
//!    same outcome stock Android has for every lifecycle fault).
//!
//! Fallback recoveries also record a wall-clock latency histogram, so
//! the cost of degrading lands in the perf trajectory next to the happy
//! path's flush latencies.

use std::collections::BTreeMap;

use crate::registry::ledger;
use crate::stats::Histogram;

ledger! {
    /// Lifetime fault counters for one handler. Which faults strike, and
    /// which rung absorbs them, is seeded, so the counters are `det`; the
    /// recovery latency is host wall clock, so it is `diag`.
    pub struct FaultMetrics as "faults" {
        det by_site: BTreeMap<String, u64>,
        /// Rung 1: faults contained by skipping a single view.
        pub det contained_per_view: u64,
        /// Rung 2: changes degraded to the stock restart path.
        pub det fallback_restarts: u64,
        /// Rung 3: faults that killed the process.
        pub det crashes: u64,
        /// Wall-clock latency of each fallback recovery, in milliseconds.
        pub diag recovery_latency_ms: Histogram,
    }
}

impl FaultMetrics {
    /// Records a rung-1 containment at `site`.
    pub fn record_contained(&mut self, site: &str) {
        *self.by_site.entry(site.to_owned()).or_insert(0) += 1;
        self.contained_per_view += 1;
    }

    /// Records a rung-2 fallback restart at `site`, with the wall-clock
    /// time the recovery took.
    pub fn record_fallback(&mut self, site: &str, recovery_ms: f64) {
        *self.by_site.entry(site.to_owned()).or_insert(0) += 1;
        self.fallback_restarts += 1;
        self.recovery_latency_ms.record(recovery_ms);
    }

    /// Records a rung-3 process crash at `site`.
    pub fn record_crash(&mut self, site: &str) {
        *self.by_site.entry(site.to_owned()).or_insert(0) += 1;
        self.crashes += 1;
    }

    /// Faults recorded at `site` (any rung).
    pub fn site_count(&self, site: &str) -> u64 {
        self.by_site.get(site).copied().unwrap_or(0)
    }

    /// Fault counts by site name.
    pub fn by_site(&self) -> &BTreeMap<String, u64> {
        &self.by_site
    }

    /// Total faults recorded across every site and rung.
    pub fn total_faults(&self) -> u64 {
        self.contained_per_view + self.fallback_restarts + self.crashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rungs_accumulate_independently() {
        let mut m = FaultMetrics::new();
        m.record_contained("attribute-copy");
        m.record_contained("attribute-copy");
        m.record_fallback("flush-deadline-overrun", 1.25);
        m.record_crash("app-logic");
        assert_eq!(m.contained_per_view, 2);
        assert_eq!(m.fallback_restarts, 1);
        assert_eq!(m.crashes, 1);
        assert_eq!(m.total_faults(), 4);
        assert_eq!(m.site_count("attribute-copy"), 2);
        assert_eq!(m.site_count("flush-deadline-overrun"), 1);
        assert_eq!(m.site_count("unknown"), 0);
        assert_eq!(m.recovery_latency_ms.count(), 1);
    }

    #[test]
    fn merge_aggregates_handlers() {
        let mut a = FaultMetrics::new();
        a.record_contained("essence-mapping-miss");
        let mut b = FaultMetrics::new();
        b.record_contained("essence-mapping-miss");
        b.record_fallback("bundle-corruption", 3.0);
        a.merge(&b);
        assert_eq!(a.site_count("essence-mapping-miss"), 2);
        assert_eq!(a.fallback_restarts, 1);
        assert_eq!(a.total_faults(), 3);
    }

    #[test]
    fn display_summarises_the_ladder() {
        let mut m = FaultMetrics::new();
        m.record_fallback("allocation-failure", 2.0);
        let line = m.to_string();
        assert!(line.contains("fallback_restarts=1"), "got {line}");
    }
}
