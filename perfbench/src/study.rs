//! `study`: the §6 top-100 study (`table5`) as a fleet run at
//! jobs = nproc. One pass is 100 apps × {stock, RCHDroid} × {1, 4}
//! changes = 400 device runs, starting from cold memo caches as every
//! `table5` process does.
//!
//! At seed 0 a timed pass is `table5::run_with_config` itself, which
//! builds the committed corpus and runs it. A re-drawn corpus cannot be
//! handed to `run_with_config`, so at any other seed a timed pass
//! generates the corpus and runs the benchmark's copy of `table5`'s
//! per-app body over it with `run_fleet`, as `run_with_config` does. A
//! test proves the copy faithful: on the committed corpus it gives the
//! committed digest.

use std::time::{Duration, Instant};

use droidsim_device::{AppProcess, Device, DeviceEvent, HandlingMode};
use droidsim_fleet::{run_fleet, FleetConfig, TaskCtx};
use droidsim_kernel::{memo, SimDuration};
use rch_experiments::scenario::{run_app, RunConfig, RunOutcome};
use rch_experiments::table5::{self, Top100Row, Top100Study};
use rch_workloads::GenericAppSpec;

use crate::batch::{self, Mode};
use crate::stats::{median, nproc, Tally};
use crate::trace::{self, span};
use crate::Outcome;

/// The committed top-100 study digest (`table5`, any worker count).
pub const COMMITTED_DIGEST: u64 = 0x3ef7_87a8_9d6a_daea;
/// Apps with an issue under stock handling, and those RCHDroid fixes.
/// Every re-draw keeps each app's mechanism, so these hold for every seed.
const ISSUES: usize = 63;
const FIXED: usize = 59;
/// Device runs per app row: {stock, RCHDroid} × {1, 4} changes.
const RUNS_PER_ROW: u64 = 4;
/// Passes run before timing starts, in each set-up.
const WARMUP_PASSES: usize = 4;

/// What a correct pass must reproduce.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// The jobs=1 study digest of this seed's corpus.
    pub digest: u64,
    /// Rows in the study.
    pub rows: usize,
}

/// Checks one pass against the reference: every row present once, in
/// order, and the study digest equal to the jobs=1 digest.
pub fn check(study: &Top100Study, reference: &Reference, tally: &mut Tally) {
    let numbers_ok = study.rows.len() == reference.rows
        && study
            .rows
            .iter()
            .enumerate()
            .all(|(i, r)| r.number == i + 1);
    let digest = study.digest();
    tally.check(numbers_ok && digest == reference.digest, || {
        format!(
            "study pass: {} rows (want {}), rows in order: {numbers_ok}, digest {digest:016x} (want {:016x})",
            study.rows.len(),
            reference.rows,
            reference.digest
        )
    });
}

/// `table5`'s per-app body: judged after one change, timed over four.
fn measure_row(ctx: TaskCtx, spec: GenericAppSpec) -> Top100Row {
    row(ctx.index, &spec, run_app)
}

fn row(
    index: usize,
    spec: &GenericAppSpec,
    mut run: impl FnMut(&GenericAppSpec, &RunConfig) -> RunOutcome,
) -> Top100Row {
    let stock_once = run(spec, &RunConfig::new(HandlingMode::Android10).changes(1));
    let rch_once = run(
        spec,
        &RunConfig::new(HandlingMode::rchdroid_default()).changes(1),
    );
    let stock = run(spec, &RunConfig::new(HandlingMode::Android10));
    let rch = run(spec, &RunConfig::new(HandlingMode::rchdroid_default()));
    Top100Row {
        number: index + 1,
        name: spec.name.clone(),
        downloads: spec.downloads,
        problem: spec.issue.clone(),
        issue_under_stock: stock_once.issue_observed(),
        fixed_by_rchdroid: !rch_once.issue_observed(),
        android10_ms: stock.mean_latency_ms(),
        rchdroid_ms: rch.mean_latency_ms(),
        android10_mib: stock.memory_mib,
        rchdroid_mib: rch.memory_mib,
    }
}

/// `scenario::run_app` with a span around every call into the
/// workloads and device layers. `req` is the app's row index.
fn run_app_traced(spec: &GenericAppSpec, cfg: &RunConfig, req: u64) -> RunOutcome {
    let mut device = span("device.launch", req, || Device::new(cfg.mode));
    let probe = span("workloads.build", req, || spec.build());
    let app = span("workloads.build", req, || spec.build());
    let component = span("device.launch", req, || {
        device.install_and_launch(Box::new(app), spec.base_memory_bytes, spec.complexity)
    })
    .expect("launch succeeds on a fresh device");
    span("device.advance", req, || {
        device.advance(SimDuration::from_secs(1));
    });
    span("device.inspect", req, || {
        device.with_foreground_activity_mut(|a| probe.apply_user_state(a))
    })
    .expect("foreground just launched");
    if cfg.with_async_task || spec.uses_async_task {
        span("device.advance", req, || {
            device.start_async_on_foreground(spec.async_task())
        })
        .expect("foreground alive");
    }
    let rotate = if cfg.mode.is_rchdroid() {
        "device.rotate.rchdroid"
    } else {
        "device.rotate.stock"
    };
    for _ in 0..cfg.changes {
        if span("device.inspect", req, || device.is_crashed(&component)) {
            break;
        }
        span(rotate, req, || {
            let _ = device.rotate();
        });
        span("device.advance", req, || device.advance(cfg.pause_between));
    }
    let memory_mib = span("device.inspect", req, || {
        device
            .memory_snapshot(&component)
            .map_or(0.0, |s| s.total_mib())
    });
    span("device.advance", req, || {
        device.advance(SimDuration::from_secs(8));
    });
    let outcome = span("device.inspect", req, || {
        let crashed = device.is_crashed(&component);
        let state_ok = !crashed
            && device
                .with_foreground_activity_mut(|a| probe.all_state_survived(a))
                .unwrap_or(false);
        let latencies_ms = device
            .process(&component)
            .map(AppProcess::latencies_ms)
            .unwrap_or_default();
        let busy_ms: f64 = latencies_ms.iter().sum::<f64>()
            + device
                .events()
                .iter()
                .filter_map(|e| match e {
                    DeviceEvent::AsyncDelivered {
                        migration_latency: Some(d),
                        ..
                    } => Some(d.as_millis_f64()),
                    _ => None,
                })
                .sum::<f64>();
        RunOutcome {
            latencies_ms,
            crashed,
            state_ok,
            memory_mib,
            busy_ms,
        }
    });
    span("device.teardown", req, || drop((device, probe, component)));
    outcome
}

/// One pass from cold memo caches: generate the corpus, run the study.
fn pass(seed: u64, jobs: usize, mode: Mode) -> (Top100Study, Duration) {
    memo::invalidate_all();
    let cfg = FleetConfig::new(jobs, 0);
    let start = Instant::now();
    if seed == 0 && mode == Mode::Plain {
        let study = table5::run_with_config(&cfg);
        return (study, start.elapsed());
    }
    let specs = span("workloads.corpus", 0, || crate::corpus::study(seed));
    let rows = match mode {
        Mode::Plain => run_fleet(&cfg, specs, measure_row),
        Mode::Traced => run_fleet(&cfg, specs, |ctx, spec| {
            let req = ctx.index as u64;
            let r = row(ctx.index, &spec, |s, c| run_app_traced(s, c, req));
            trace::flush_thread();
            r
        }),
        Mode::Tasks => run_fleet(&cfg, specs, |ctx, spec| {
            let r = span("fleet.task", ctx.index as u64, || measure_row(ctx, spec));
            trace::flush_thread();
            r
        }),
    };
    let took = start.elapsed();
    (Top100Study { rows }, took)
}

/// One pass at jobs = nproc; returns its digest.
pub fn one_pass(seed: u64) -> u64 {
    pass(seed, nproc(), Mode::Plain).0.digest()
}

/// Builds the reference and warms the process up; returns the reference.
fn setup(seed: u64, jobs: usize, tally: &mut Tally) -> Reference {
    // The library's own study must still give the committed digest:
    // host-time work may not change simulated results.
    let committed = table5::run_with_config(&FleetConfig::new(1, 0));
    tally.check(committed.digest() == COMMITTED_DIGEST, || {
        format!(
            "table5::run_with_config digest {:016x}, committed {COMMITTED_DIGEST:016x}",
            committed.digest()
        )
    });
    drop(committed);
    let (study, _) = pass(seed, 1, Mode::Plain);
    let counts = (study.issue_count(), study.fixed_count());
    tally.check(counts == (ISSUES, FIXED), || {
        format!("study found {counts:?} issues/fixed, want ({ISSUES}, {FIXED})")
    });
    let reference = Reference {
        digest: study.digest(),
        rows: study.rows.len(),
    };
    for _ in 0..WARMUP_PASSES {
        let (study, _) = pass(seed, jobs, Mode::Plain);
        check(&study, &reference, tally);
    }
    reference
}

/// Runs the workload for `seconds` of timed passes, or its traced run.
pub fn run(seed: u64, seconds: f64, traced: bool, started: Instant) -> Outcome {
    let jobs = nproc();
    let mut tally = Tally::default();
    let (reference, setup_s) = crate::repeat_setup(started, || setup(seed, jobs, &mut tally));
    let mut out = Outcome::new(setup_s);
    let checked = |jobs, mode| {
        let (study, took) = pass(seed, jobs, mode);
        check(&study, &reference, &mut tally);
        took
    };
    if traced {
        let runs = reference.rows as f64 * RUNS_PER_ROW as f64;
        let (last, coverage) = batch::traced(&mut out, seconds * 0.6, jobs, runs, checked);
        device_layers(&mut out, &last, runs);
        tally.check(coverage >= batch::MIN_COVERAGE, || {
            format!("trace coverage {coverage:.3} below {}", batch::MIN_COVERAGE)
        });
        // The daemon runs size-1 study jobs, so its layers are measured
        // as part of this workload (see README).
        tally.merge(crate::daemon::served_layers(seed, seconds * 0.4, &mut out));
    } else {
        batch::timed(&mut out, "study", seconds, jobs, reference.rows, checked);
        out.peak_rss_mib = crate::fresh_process_rss("study", seed, reference.digest, &mut tally);
    }
    out.tally = tally;
    out
}

/// The workloads and device layers' metrics from one traced pass of
/// `runs` device runs.
fn device_layers(out: &mut Outcome, last: &batch::TracedPass, runs: f64) {
    let build_ns = trace::self_time_ns(&last.spans)
        .get("workloads.build")
        .copied()
        .unwrap_or(0);
    let rotate_us_p50 = |name: &str| {
        let us: Vec<f64> = last
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        median(&us)
    };
    let rotations = last
        .spans
        .iter()
        .filter(|s| s.name.starts_with("device.rotate"))
        .count();
    out.layer("workloads.build.share", last.share("workloads.build"));
    out.layer("workloads.build.us_per_run", build_ns as f64 / 1e3 / runs);
    out.layer("device.launch.share", last.share("device.launch"));
    out.layer(
        "device.rotate.stock.us_p50",
        rotate_us_p50("device.rotate.stock"),
    );
    out.layer(
        "device.rotate.rchdroid.us_p50",
        rotate_us_p50("device.rotate.rchdroid"),
    );
    out.layer("device.rotate.share", last.share("device.rotate"));
    out.layer("device.advance.share", last.share("device.advance"));
    out.layer("device.inspect.share", last.share("device.inspect"));
    out.layer("device.teardown.share", last.share("device.teardown"));
    out.layer("device.runs", runs);
    out.layer("device.rotations", rotations as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study_of(rows: Vec<Top100Row>) -> Top100Study {
        Top100Study { rows }
    }

    fn sample() -> (Top100Study, Reference) {
        let specs = crate::corpus::study(3);
        let rows: Vec<Top100Row> = specs
            .iter()
            .take(3)
            .enumerate()
            .map(|(i, s)| row(i, s, run_app))
            .collect();
        let study = study_of(rows);
        let reference = Reference {
            digest: study.digest(),
            rows: 3,
        };
        (study, reference)
    }

    #[test]
    fn the_traced_copy_matches_run_app() {
        let spec = &crate::corpus::study(5)[0];
        let traced = row(0, spec, |s, c| run_app_traced(s, c, 0));
        assert_eq!(traced.digest(), row(0, spec, run_app).digest());
    }

    #[test]
    fn the_copy_gives_the_committed_digest() {
        let rows = run_fleet(
            &FleetConfig::new(2, 0),
            crate::corpus::study(0),
            measure_row,
        );
        assert_eq!(study_of(rows).digest(), COMMITTED_DIGEST);
    }

    #[test]
    fn a_correct_pass_passes() {
        let (study, reference) = sample();
        let mut tally = Tally::default();
        check(&study, &reference, &mut tally);
        assert_eq!(tally.exit_code(), 0);
    }

    #[test]
    fn a_wrong_reference_digest_fails_the_run() {
        let (study, mut reference) = sample();
        reference.digest ^= 1;
        let mut tally = Tally::default();
        check(&study, &reference, &mut tally);
        assert_eq!((tally.failed, tally.exit_code()), (1, 1));
    }

    #[test]
    fn a_lost_row_fails_the_run() {
        let (mut study, reference) = sample();
        study.rows.pop();
        let mut tally = Tally::default();
        check(&study, &reference, &mut tally);
        assert_eq!((tally.failed, tally.exit_code()), (1, 1));
    }

    #[test]
    fn a_duplicated_row_fails_the_run() {
        let (mut study, reference) = sample();
        study.rows[2] = study.rows[1].clone();
        let mut tally = Tally::default();
        check(&study, &reference, &mut tally);
        assert_eq!((tally.failed, tally.exit_code()), (1, 1));
    }
}
