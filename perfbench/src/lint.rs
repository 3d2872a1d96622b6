//! `lint`: `rchlint`'s static analysis (`analyze_specs`) over the
//! 647-app tp27 + top100 + dataloss corpus at jobs = nproc, starting
//! from cold memo caches as every `rchlint` process does.
//!
//! This is the only workload that calls `droidsim-analysis`, and the
//! memo-bypassed counterpart of `study`: its 647 distinct shapes
//! overflow the 256-entry `shape` memo, so the `shape` and `inflate`
//! caches miss. A cache change that helps only repeated inputs shows as
//! a gain on `study` and as no change here. Lifecycle, rotation and the
//! daemon stay idle.

use std::time::{Duration, Instant};

use droidsim_analysis::{
    analyze_app, analyze_specs, predict, AnalysisMode, AnalysisReport, AppAnalysis, AppShape,
    Suppressions,
};
use droidsim_fleet::{run_fleet, FleetConfig};
use droidsim_kernel::memo;
use droidsim_metrics::AnalysisLedger;
use rch_workloads::GenericAppSpec;

use crate::batch::{self, Mode};
use crate::stats::{nproc, Tally};
use crate::trace::{self, span};
use crate::Outcome;

/// The committed lint report digest: `analyze_specs` over the committed
/// 647-app corpus, any worker count.
pub const COMMITTED_DIGEST: u64 = 0xcf1b_f18d_db37_e9f3;
/// The committed report's counts: apps, clean apps, errors, warnings,
/// apps with a predicted issue per runtime, and lossy apps per data-loss
/// class. Every re-draw keeps each app's mechanism, so these hold for
/// every seed.
const COMMITTED_COUNTS: &str = "apps=647 clean=166 errors=223 warnings=1296 \
     stock=419 rchdroid=223 runtimedroid=163 \
     async-race=90 input-in-flight=90 process-death=50 stop-restart=57 sub-state-owner=104";
/// Passes run before timing starts, in each set-up.
const WARMUP_PASSES: usize = 4;

/// What a correct pass must reproduce.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The jobs=1 report digest of this seed's corpus.
    pub digest: u64,
    /// App names in corpus order.
    pub apps: Vec<String>,
}

/// Checks one pass: every app analysed once, in corpus order, and the
/// report digest equal to the jobs=1 digest.
pub fn check(report: &AnalysisReport, reference: &Reference, tally: &mut Tally) {
    let apps_ok = report.apps.len() == reference.apps.len()
        && report.ledger.apps == reference.apps.len() as u64
        && report
            .apps
            .iter()
            .zip(&reference.apps)
            .all(|(a, name)| &a.app == name);
    let digest = report.digest();
    tally.check(apps_ok && digest == reference.digest, || {
        format!(
            "lint pass: {} apps (want {}), apps in order: {apps_ok}, digest {digest:016x} (want {:016x})",
            report.apps.len(),
            reference.apps.len(),
            reference.digest
        )
    });
}

/// A report's counts, in the form of [`COMMITTED_COUNTS`].
fn counts(l: &AnalysisLedger) -> String {
    let mut out = format!(
        "apps={} clean={} errors={} warnings={} stock={} rchdroid={} runtimedroid={}",
        l.apps,
        l.clean_apps,
        l.errors,
        l.warnings,
        l.predicted_stock_issues,
        l.predicted_rchdroid_issues,
        l.predicted_runtimedroid_issues
    );
    for (class, n) in &l.dataloss_by_class {
        out.push_str(&format!(" {class}={n}"));
    }
    out
}

/// `AppAnalysis::of` with a span around every call into the analysis
/// layer. `req` is the app's corpus index.
fn analyze_traced(spec: &GenericAppSpec, req: u64) -> AppAnalysis {
    let shape = span("analysis.shape", req, || AppShape::from_spec(spec));
    let diagnostics = span("analysis.passes", req, || analyze_app(&shape, Some(spec)));
    let stock = span("analysis.predict", req, || {
        predict(spec, AnalysisMode::Stock)
    });
    let rchdroid = span("analysis.predict", req, || {
        predict(spec, AnalysisMode::RchDroid)
    });
    let runtimedroid = span("analysis.predict", req, || {
        predict(spec, AnalysisMode::RuntimeDroid)
    });
    span("analysis.drop", req, || drop(shape));
    AppAnalysis {
        app: spec.name.clone(),
        diagnostics,
        suppressed: 0,
        stock,
        rchdroid,
        runtimedroid,
        dataloss_class: spec.dataloss.as_ref().map(|dl| dl.class.label()),
    }
}

/// One pass from cold memo caches: generate the corpus, analyse it.
fn pass(seed: u64, jobs: usize, mode: Mode) -> (AnalysisReport, Duration) {
    memo::invalidate_all();
    let cfg = FleetConfig::new(jobs, 0);
    let none = Suppressions::none();
    let start = Instant::now();
    let specs = span("workloads.corpus", 0, || crate::corpus::lint(seed));
    let report = match mode {
        Mode::Plain => analyze_specs(&specs, &cfg, &none),
        Mode::Traced | Mode::Tasks => {
            let apps = run_fleet(&cfg, specs, |ctx, spec| {
                let req = ctx.index as u64;
                let app = if mode == Mode::Traced {
                    analyze_traced(&spec, req)
                } else {
                    span("fleet.task", req, || AppAnalysis::of(&spec, &none))
                };
                trace::flush_thread();
                app
            });
            span("analysis.report", 0, || {
                let mut ledger = AnalysisLedger::new();
                for a in &apps {
                    ledger.merge(&a.ledger());
                }
                AnalysisReport { apps, ledger }
            })
        }
    };
    (report, start.elapsed())
}

/// One pass at jobs = nproc; returns its digest.
pub fn one_pass(seed: u64) -> u64 {
    pass(seed, nproc(), Mode::Plain).0.digest()
}

/// Builds the reference and warms the process up; returns the reference.
fn setup(seed: u64, jobs: usize, tally: &mut Tally) -> Reference {
    // The committed corpus must still give the committed report:
    // host-time work may not change what `rchlint` finds.
    let (committed, _) = pass(0, 1, Mode::Plain);
    tally.check(committed.digest() == COMMITTED_DIGEST, || {
        format!(
            "analyze_specs digest {:016x} on the committed corpus, committed {COMMITTED_DIGEST:016x}",
            committed.digest()
        )
    });
    drop(committed);
    let (report, _) = pass(seed, 1, Mode::Plain);
    let found = counts(&report.ledger);
    tally.check(found == COMMITTED_COUNTS, || {
        format!("lint report counts {found}, want {COMMITTED_COUNTS}")
    });
    let reference = Reference {
        digest: report.digest(),
        apps: report.apps.iter().map(|a| a.app.clone()).collect(),
    };
    for _ in 0..WARMUP_PASSES {
        let (report, _) = pass(seed, jobs, Mode::Plain);
        check(&report, &reference, tally);
    }
    reference
}

/// Runs the workload for `seconds` of timed passes, or its traced run.
pub fn run(seed: u64, seconds: f64, traced: bool, started: Instant) -> Outcome {
    let jobs = nproc();
    let mut tally = Tally::default();
    let (reference, setup_s) = crate::repeat_setup(started, || setup(seed, jobs, &mut tally));
    let mut out = Outcome::new(setup_s);
    let apps = reference.apps.len();
    let checked = |jobs, mode| {
        let (report, took) = pass(seed, jobs, mode);
        check(&report, &reference, &mut tally);
        took
    };
    if traced {
        let (last, coverage) = batch::traced(&mut out, seconds, jobs, apps as f64, checked);
        for layer in ["shape", "passes", "predict", "drop"] {
            let share = last.share(&format!("analysis.{layer}"));
            out.layer(&format!("analysis.{layer}.share"), share);
        }
        tally.check(coverage >= batch::MIN_COVERAGE, || {
            format!("trace coverage {coverage:.3} below {}", batch::MIN_COVERAGE)
        });
    } else {
        batch::timed(&mut out, "lint", seconds, jobs, apps, checked);
        out.peak_rss_mib = crate::fresh_process_rss("lint", seed, reference.digest, &mut tally);
    }
    out.tally = tally;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (AnalysisReport, Reference) {
        let specs: Vec<GenericAppSpec> = crate::corpus::lint(4).into_iter().take(4).collect();
        let report = analyze_specs(&specs, &FleetConfig::new(1, 0), &Suppressions::none());
        let reference = Reference {
            digest: report.digest(),
            apps: specs.iter().map(|s| s.name.clone()).collect(),
        };
        (report, reference)
    }

    #[test]
    fn the_traced_copy_matches_app_analysis() {
        for spec in crate::corpus::lint(9).iter().take(40) {
            assert_eq!(
                analyze_traced(spec, 0).digest(),
                AppAnalysis::of(spec, &Suppressions::none()).digest(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn counts_read_like_the_committed_counts() {
        let mut l = AnalysisLedger::new();
        l.apps = 2;
        l.dataloss_by_class.insert("async-race".to_owned(), 1);
        assert_eq!(
            counts(&l),
            "apps=2 clean=0 errors=0 warnings=0 stock=0 rchdroid=0 runtimedroid=0 async-race=1"
        );
    }

    #[test]
    fn a_correct_pass_passes() {
        let (report, reference) = sample();
        let mut tally = Tally::default();
        check(&report, &reference, &mut tally);
        assert_eq!(tally.exit_code(), 0);
    }

    #[test]
    fn a_wrong_reference_digest_fails_the_run() {
        let (report, mut reference) = sample();
        reference.digest ^= 1;
        let mut tally = Tally::default();
        check(&report, &reference, &mut tally);
        assert_eq!((tally.failed, tally.exit_code()), (1, 1));
    }

    #[test]
    fn a_lost_app_fails_the_run() {
        let (mut report, reference) = sample();
        report.apps.pop();
        let mut tally = Tally::default();
        check(&report, &reference, &mut tally);
        assert_eq!((tally.failed, tally.exit_code()), (1, 1));
    }

    #[test]
    fn a_duplicated_app_fails_the_run() {
        let (mut report, reference) = sample();
        report.apps[3] = report.apps[2].clone();
        let mut tally = Tally::default();
        check(&report, &reference, &mut tally);
        assert_eq!((tally.failed, tally.exit_code()), (1, 1));
    }
}
