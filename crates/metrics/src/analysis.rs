//! Aggregate ledger for one static-analysis (rchlint) run.
//!
//! The analysis fleet partitions the corpus across workers; each worker
//! produces per-app diagnostics and verdicts, and the driver folds them
//! into one [`AnalysisLedger`] **in task-index order**, so the ledger —
//! like [`crate::FleetLedger`] — is reproducible for any worker count.
//! The ledger deliberately keys lint codes as plain strings: metrics
//! stays a leaf crate and must not depend on the analyzer's typed
//! `LintCode` enum.

use std::collections::BTreeMap;

use crate::registry::ledger;

ledger! {
    /// Totals for one analyzer run over one corpus. Every entry is
    /// derived from the corpus descriptors alone (no wall-clock, no
    /// worker count), so every entry is `det`.
    pub struct AnalysisLedger as "analysis" {
        /// Apps analyzed.
        pub det apps: u64,
        /// Apps with no diagnostics at all (after suppression).
        pub det clean_apps: u64,
        /// Diagnostics with error severity.
        pub det errors: u64,
        /// Diagnostics with warning severity.
        pub det warnings: u64,
        /// Diagnostics dropped by `--allow` suppression rules.
        pub det suppressed: u64,
        /// Diagnostic count per lint code (e.g. `"RCH004"`), sorted by code.
        pub det by_code: BTreeMap<String, u64>,
        /// Apps the verdict pass predicts to have an issue under stock
        /// (Android 10) handling.
        pub det predicted_stock_issues: u64,
        /// Apps the verdict pass predicts to still have an issue under
        /// RCHDroid.
        pub det predicted_rchdroid_issues: u64,
        /// Apps the verdict pass predicts to still have an issue under
        /// RuntimeDroid's in-place hot reload.
        pub det predicted_runtimedroid_issues: u64,
        /// Apps carrying a data-loss scenario descriptor.
        pub det dataloss_apps: u64,
        /// Apps flagged lossy in at least one mode, per data-loss class
        /// label (e.g. `"stop-restart"`), sorted by label.
        pub det dataloss_by_class: BTreeMap<String, u64>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_app(code: &str, warnings: u64) -> AnalysisLedger {
        let mut l = AnalysisLedger::new();
        l.apps = 1;
        l.warnings = warnings;
        l.clean_apps = u64::from(warnings == 0);
        if warnings > 0 {
            l.by_code.insert(code.to_owned(), warnings);
        }
        l
    }

    #[test]
    fn merge_is_order_insensitive_over_commutative_fields() {
        let parts = [one_app("RCH004", 2), one_app("RCH001", 1), one_app("x", 0)];
        let mut fwd = AnalysisLedger::new();
        let mut rev = AnalysisLedger::new();
        for p in &parts {
            fwd.merge(p);
        }
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.apps, 3);
        assert_eq!(fwd.clean_apps, 1);
        assert_eq!(fwd.warnings, 3);
        assert_eq!(fwd.by_code["RCH004"], 2);
    }

    #[test]
    fn fingerprint_is_stable_and_counts_everything() {
        let mut l = one_app("RCH006", 1);
        l.predicted_stock_issues = 1;
        let fp = l.deterministic_fingerprint();
        assert_eq!(fp, l.clone().deterministic_fingerprint());
        assert!(fp.contains("RCH006"));
        assert!(fp.contains(
            "predicted_stock_issues=1 predicted_rchdroid_issues=0 predicted_runtimedroid_issues=0"
        ));
        assert!(fp.contains("dataloss_apps=0 dataloss_by_class={}"));
    }

    #[test]
    fn dataloss_fields_merge_like_the_rest() {
        let mut a = AnalysisLedger::new();
        a.dataloss_apps = 2;
        a.predicted_runtimedroid_issues = 1;
        a.dataloss_by_class.insert("stop-restart".into(), 1);
        let mut b = AnalysisLedger::new();
        b.dataloss_apps = 1;
        b.dataloss_by_class.insert("stop-restart".into(), 1);
        b.dataloss_by_class.insert("async-race".into(), 1);
        a.merge(&b);
        assert_eq!(a.dataloss_apps, 3);
        assert_eq!(a.predicted_runtimedroid_issues, 1);
        assert_eq!(a.dataloss_by_class["stop-restart"], 2);
        assert_eq!(a.dataloss_by_class["async-race"], 1);
    }
}
