//! What the batch workloads, `study` and `lint`, share: the timed loop
//! and the phases of the traced run. A workload hands over its pass as a
//! closure that runs one checked pass in a [`Mode`] at a worker count
//! and returns the pass's wall time.

use std::time::{Duration, Instant};

use droidsim_kernel::{alloc_track, memo};

use crate::stats::{median, ms, quantile};
use crate::trace::{self, Span};
use crate::Outcome;

/// How a pass runs its apps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No spans: the library's own entry point, or for a re-drawn
    /// `study` corpus the benchmark's copy of `table5`'s per-app body.
    Plain,
    /// The benchmark's copy of the per-app body, with a span around every
    /// call into a layer.
    Traced,
    /// The untraced per-app body with one `fleet.task` span per app.
    Tasks,
}

/// Lowest `trace.coverage` a traced run accepts.
pub const MIN_COVERAGE: f64 = 0.9;

/// Runs passes at `jobs` workers for `seconds` and records
/// `units ÷ median pass time` as the throughput.
pub fn timed(
    out: &mut Outcome,
    name: &str,
    seconds: f64,
    jobs: usize,
    units: usize,
    mut pass: impl FnMut(usize, Mode) -> Duration,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass_ms = Vec::new();
    while Instant::now() < deadline {
        let took = pass(jobs, Mode::Plain);
        pass_ms.push(ms(took));
    }
    let per_s = units as f64 / (median(&pass_ms) / 1e3);
    out.throughput_per_s = per_s;
    out.named(&format!("{name}.apps_per_s"), per_s, "1/s");
    out.note(format!(
        "{name}: {} timed passes of {units} apps at jobs={jobs}, pass ms p50 {:.2} p90 {:.2} p99 {:.2}",
        pass_ms.len(),
        median(&pass_ms),
        quantile(&pass_ms, 0.9),
        quantile(&pass_ms, 0.99)
    ));
}

/// The last traced pass: its spans and wall time.
pub struct TracedPass {
    /// Every span the pass recorded.
    pub spans: Vec<Span>,
    /// The pass's wall time in nanoseconds.
    pub wall_ns: f64,
}

impl TracedPass {
    /// Self time of the spans whose names start with `prefix`, as a share
    /// of the pass's wall time.
    pub fn share(&self, prefix: &str) -> f64 {
        trace::self_time_ns(&self.spans)
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, ns)| *ns as f64)
            .sum::<f64>()
            / self.wall_ns
    }
}

/// The traced run's phases, on `seconds` of the run:
///
/// 1. 45 %: untraced and traced passes at jobs=1 in turn. The last traced
///    pass is returned for the workload's shares; coverage and overhead
///    come from all of them.
/// 2. 40 %: untraced passes at `jobs`, with the memo and allocation
///    counters read around them; `units` work items per pass.
/// 3. 15 %: passes with one `fleet.task` span per app at `jobs`, for
///    worker idle time.
///
/// Returns the last traced pass and its `trace.coverage`.
pub fn traced(
    out: &mut Outcome,
    seconds: f64,
    jobs: usize,
    units: f64,
    mut pass: impl FnMut(usize, Mode) -> Duration,
) -> (TracedPass, f64) {
    let phase_end = Instant::now() + Duration::from_secs_f64(seconds * 0.45);
    let (mut plain1, mut traced1) = (Vec::new(), Vec::new());
    let mut last = TracedPass {
        spans: Vec::new(),
        wall_ns: 0.0,
    };
    while Instant::now() < phase_end || traced1.is_empty() {
        plain1.push(pass(1, Mode::Plain).as_secs_f64());
        trace::set_enabled(true);
        let took = pass(1, Mode::Traced);
        trace::set_enabled(false);
        traced1.push(took.as_secs_f64());
        last = TracedPass {
            spans: trace::drain(),
            wall_ns: took.as_secs_f64() * 1e9,
        };
    }
    let coverage = trace::top_level_ns(&last.spans) as f64 / last.wall_ns;
    out.layer("trace.coverage", coverage);
    out.layer("trace.overhead", median(&traced1) / median(&plain1));
    out.self_time_table(&trace::self_time_ns(&last.spans), last.wall_ns);

    let phase_end = Instant::now() + Duration::from_secs_f64(seconds * 0.4);
    let memo_before = memo::snapshot_all();
    let allocs_before = alloc_track::current();
    let mut plain_n = Vec::new();
    while Instant::now() < phase_end || plain_n.is_empty() {
        plain_n.push(pass(jobs, Mode::Plain).as_secs_f64());
    }
    let allocs = alloc_track::current() - allocs_before;
    out.memo(&memo_before, &memo::snapshot_all(), plain_n.len());
    out.layer(
        "kernel.alloc_events_per_run",
        allocs as f64 / (units * plain_n.len() as f64),
    );
    let t1 = median(&plain1);
    out.layer("fleet.jobs1_pass_s", t1);
    out.layer(
        "fleet.parallel_efficiency",
        t1 / (jobs as f64 * median(&plain_n)),
    );

    let phase_end = Instant::now() + Duration::from_secs_f64(seconds * 0.15);
    let mut idle = Vec::new();
    let mut task_spans = Vec::new();
    while Instant::now() < phase_end || idle.is_empty() {
        trace::set_enabled(true);
        let took = pass(jobs, Mode::Tasks);
        trace::set_enabled(false);
        task_spans = trace::drain();
        let busy: u64 = task_spans
            .iter()
            .filter(|s| s.name == "fleet.task")
            .map(Span::dur_ns)
            .sum();
        idle.push(1.0 - busy as f64 / (jobs as f64 * took.as_secs_f64() * 1e9));
    }
    out.layer("fleet.worker_idle_share", median(&idle));
    out.spans = last.spans.clone();
    out.spans.extend(task_spans);
    (last, coverage)
}
