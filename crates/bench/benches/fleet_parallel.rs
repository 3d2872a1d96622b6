//! The fleet driver itself: one top-100 sample simulated serially and
//! with 2/4/8 workers. Every worker count must reduce to the identical
//! digest — the bench asserts that before timing anything — so the only
//! difference between the arms is wall-clock, never results.
//!
//! On a single-core machine the parallel arms degenerate to roughly the
//! serial cost plus scheduling overhead; on an N-core runner the 4-way
//! arm is the headline number for the speedup criterion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use droidsim_analysis::{analyze_specs, Suppressions};
use droidsim_config::{Configuration, Orientation, UiMode};
use droidsim_device::HandlingMode;
use droidsim_fleet::{
    combine_ordered, run_fleet, run_fleet_supervised, Digest, FleetConfig, FleetOptions, TaskCtx,
};
use droidsim_kernel::memo;
use droidsim_resources::{LayoutNode, LayoutTemplate, Qualifiers, ResourceTable, ResourceValue};
use rch_experiments::{run_app, RunConfig};
use rch_workloads::{dataloss_specs, top100_sample, GenericAppSpec};
use rchdroid::MigrationEngine;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sample size: enough devices that partitioning matters, small enough
/// that a bench iteration stays under a second.
const APPS: usize = 12;

/// One sample app under both handling modes, digested.
fn app_digest(_ctx: TaskCtx, spec: &GenericAppSpec) -> u64 {
    let stock = run_app(spec, &RunConfig::new(HandlingMode::Android10));
    let rch = run_app(spec, &RunConfig::new(HandlingMode::rchdroid_default()));
    let mut d = Digest::new();
    d.write_str(&spec.name);
    d.write_f64(stock.mean_latency_ms());
    d.write_f64(rch.mean_latency_ms());
    d.write_f64(stock.memory_mib);
    d.write_f64(rch.memory_mib);
    d.finish()
}

/// Simulates the sample under both handling modes and folds the
/// per-app digests in item order. This is the hot arm the scaling
/// criterion (jobs=8 ≤ 0.5× jobs=1) is judged on.
fn simulate(cfg: &FleetConfig, sample: &[GenericAppSpec]) -> u64 {
    combine_ordered(run_fleet(cfg, sample.iter().collect(), app_digest))
}

/// The same sample through `run_fleet_supervised` at zero fault rate:
/// what the supervised entry point (an item clone per attempt, outcomes
/// and digests handed back) adds to plain `run_fleet`, which runs the
/// same driver. No journal — disk fsync is a deliberate per-checkpoint
/// cost, not runner overhead.
fn simulate_supervised(cfg: &FleetConfig, opts: &FleetOptions, sample: &[GenericAppSpec]) -> u64 {
    run_fleet_supervised(
        cfg,
        opts,
        sample.to_vec(),
        |ctx, spec| app_digest(ctx, &spec),
        |d| *d,
    )
    .unwrap()
    .combined_digest()
    .unwrap()
}

/// Devices in the memo arms' fleet. The timed arms run serially
/// (jobs=1) so the warm/cold ratio is a pure cache effect — the
/// per-call thread-spawn constant of a multi-worker fleet would dilute
/// the ratio without exercising the caches any harder. Cross-worker
/// cache sharing is covered by the jobs=4 digest assertion before any
/// timing starts.
const MEMO_DEVICES: usize = 16;
const MEMO_JOBS: usize = 1;
const MEMO_SHARED_JOBS: usize = 4;

/// Resource table the memo workload resolves against, shaped like a
/// real multi-config APK: every string has a default and a landscape
/// variant (so the resolved view depends on the configuration bucket)
/// plus a pile of higher-specificity variants — locales, smallest-width
/// buckets, night mode — that a phone config never matches but a cold
/// resolution must scan past every single time.
fn memo_table() -> ResourceTable {
    let mut t = ResourceTable::new();
    for i in 0..8 {
        let name = format!("s{i}");
        for lang in ["de", "fr", "ja", "pt", "es", "it", "ru", "zh"] {
            t.put(
                &name,
                Qualifiers::any().with_language(lang),
                ResourceValue::String(format!("str-{i}-{lang}")),
            );
        }
        for sw in [600, 720, 840, 960] {
            t.put(
                &name,
                Qualifiers::any().with_min_smallest_width(sw),
                ResourceValue::String(format!("str-{i}-sw{sw}")),
            );
        }
        t.put(
            &name,
            Qualifiers::any().with_ui_mode(UiMode::Night),
            ResourceValue::String(format!("str-{i}-night")),
        );
        t.put(
            &name,
            Qualifiers::any().with_orientation(Orientation::Landscape),
            ResourceValue::String(format!("str-{i}-land")),
        );
        t.put(
            &name,
            Qualifiers::any(),
            ResourceValue::String(format!("str-{i}")),
        );
        let drawable = format!("d{i}");
        t.put(
            &drawable,
            Qualifiers::any().with_ui_mode(UiMode::Night),
            ResourceValue::Drawable {
                name: format!("d{i}-night.png"),
                bytes_hint: 4 << 10,
            },
        );
        for sw in [600, 840] {
            t.put(
                &drawable,
                Qualifiers::any().with_min_smallest_width(sw),
                ResourceValue::Drawable {
                    name: format!("d{i}-sw{sw}.png"),
                    bytes_hint: 8 << 10,
                },
            );
        }
        t.put(
            &drawable,
            Qualifiers::any(),
            ResourceValue::Drawable {
                name: format!("d{i}.png"),
                bytes_hint: 4 << 10,
            },
        );
    }
    t
}

/// A 241-node resolution-heavy layout: every row resolves two strings
/// and two drawables, so a cold inflation pays 192 table resolutions
/// where a warm one pays one key digest and a tree clone. `tag` varies
/// the template content: a fixed tag is the repeated-shape workload
/// (every device inflates the same template), a fresh tag per call
/// defeats the caches on purpose.
fn memo_template(tag: u64) -> LayoutTemplate {
    let mut root = LayoutNode::new("LinearLayout").with_id("root");
    for i in 0..48 {
        root = root.with_child(
            LayoutNode::new("LinearLayout")
                .with_id(&format!("row{i}"))
                .with_child(
                    LayoutNode::new("TextView")
                        .with_id(&format!("t{i}"))
                        .with_attr("text", &format!("@string/s{}", i % 8))
                        .with_attr("tag", &tag.to_string()),
                )
                .with_child(
                    LayoutNode::new("TextView")
                        .with_id(&format!("sub{i}"))
                        .with_attr("text", &format!("@string/s{}", (i + 3) % 8)),
                )
                .with_child(
                    LayoutNode::new("ImageView")
                        .with_id(&format!("img{i}"))
                        .with_attr("src", &format!("@drawable/d{}", i % 8)),
                )
                .with_child(
                    LayoutNode::new("ImageView")
                        .with_id(&format!("badge{i}"))
                        .with_attr("src", &format!("@drawable/d{}", (i + 5) % 8)),
                ),
        );
    }
    LayoutTemplate::new("memo_bench", root)
}

/// One device of the warm-path workload: inflate the template twice
/// (shadow + sunny instance), resolve through the table, build the
/// essence mapping between them — exactly the three memoized
/// derivations — and digest everything observable.
fn memo_device(index: usize, template: &LayoutTemplate, table: &ResourceTable) -> u64 {
    let config = if index.is_multiple_of(2) {
        Configuration::phone_portrait()
    } else {
        Configuration::phone_landscape()
    };
    let (mut shadow, stats) = droidsim_view::inflate(template, table, &config);
    let (mut sunny, _) = droidsim_view::inflate(template, table, &config);
    let mut engine = MigrationEngine::new();
    let mapped = engine.build_mapping(&mut shadow, &mut sunny);
    let mut d = Digest::new();
    d.write_u64(stats.views_created as u64);
    d.write_u64(stats.drawable_bytes);
    d.write_u64(stats.strings_resolved as u64);
    d.write_u64(mapped as u64);
    d.write_str(
        table
            .resolve_string(&format!("s{}", index % 8), &config)
            .unwrap_or("<missing>"),
    );
    d.finish()
}

/// The repeated-shape fleet: every device inflates the same template,
/// so once the touch-counted admission warms up, the steady state is
/// all cache hits.
fn memo_fleet_jobs(jobs: usize, template: &LayoutTemplate, table: &ResourceTable) -> u64 {
    combine_ordered(run_fleet(
        &FleetConfig::new(jobs, 0),
        (0..MEMO_DEVICES).collect(),
        |_ctx, i| memo_device(i, template, table),
    ))
}

fn memo_fleet(template: &LayoutTemplate, table: &ResourceTable) -> u64 {
    memo_fleet_jobs(MEMO_JOBS, template, table)
}

/// The unique-shape fleet: a fresh template per *device*, so no inflate
/// key is ever probed more than the one shadow + sunny pair that owns
/// it. This is the admission policy's worst case on purpose — under the
/// inflater's three-touch admission both touches are tombstones (key
/// digest only, both inflates build cold, nothing is published). Only the
/// attribute content varies: the id structure is shared, so the mapping
/// plan is still content-addressed to the same shape — that hit is the
/// design working, not a leak in the workload.
fn memo_fleet_unique(nonce: &AtomicU64, table: &ResourceTable) -> u64 {
    let templates: Vec<LayoutTemplate> = (0..MEMO_DEVICES)
        .map(|_| memo_template(nonce.fetch_add(1, Ordering::Relaxed)))
        .collect();
    combine_ordered(run_fleet(
        &FleetConfig::new(MEMO_JOBS, 0),
        (0..MEMO_DEVICES).collect(),
        |_ctx, i| memo_device(i, &templates[i], table),
    ))
}

/// The warm-path cache arms: `memo/warm` vs `memo/cold` is the ≥1.5×
/// speedup criterion on a repeated-shape fleet; `memo/unique` vs
/// `memo/unique_cold` is the no-regression criterion when nothing ever
/// repeats. The memo ≡ cold digest identity is asserted before any
/// timing.
fn bench_memo(c: &mut Criterion) {
    let table = memo_table();
    let template = memo_template(0);
    memo::set_enabled(false);
    let cold_digest = memo_fleet(&template, &table);
    memo::set_enabled(true);
    assert_eq!(
        memo_fleet(&template, &table),
        cold_digest,
        "memoized fleet digest diverged from the cold run"
    );
    assert_eq!(
        memo_fleet_jobs(MEMO_SHARED_JOBS, &template, &table),
        cold_digest,
        "memoized fleet digest diverged when workers share the caches"
    );

    let mut group = c.benchmark_group("fleet_parallel");
    group.bench_function("memo/warm", |b| {
        memo::set_enabled(true);
        b.iter(|| black_box(memo_fleet(&template, &table)));
    });
    group.bench_function("memo/cold", |b| {
        memo::set_enabled(false);
        b.iter(|| black_box(memo_fleet(&template, &table)));
        memo::set_enabled(true);
    });
    let nonce = AtomicU64::new(1);
    group.bench_function("memo/unique", |b| {
        memo::set_enabled(true);
        b.iter(|| black_box(memo_fleet_unique(&nonce, &table)));
    });
    group.bench_function("memo/unique_cold", |b| {
        memo::set_enabled(false);
        b.iter(|| black_box(memo_fleet_unique(&nonce, &table)));
        memo::set_enabled(true);
    });
    group.finish();
}

/// The analyzer's fleet throughput over the whole generated data-loss
/// corpus (`rchlint --corpus dataloss`): shape extraction (memoized),
/// the twelve lint passes and the three-mode verdicts for every app,
/// folded into the corpus report. Serial vs 8-way is the
/// `rchlint_throughput` scaling pair the bench gate tracks; the digest
/// identity across worker counts is asserted before any timing.
fn bench_rchlint(c: &mut Criterion) {
    let corpus = dataloss_specs();
    let allow = Suppressions::none();
    let analyze = |jobs: usize| analyze_specs(&corpus, &FleetConfig::new(jobs, 0), &allow);
    let serial_digest = analyze(1).digest();
    for jobs in [4usize, 8] {
        assert_eq!(
            analyze(jobs).digest(),
            serial_digest,
            "rchlint digest diverged at jobs={jobs}"
        );
    }
    let mut group = c.benchmark_group("fleet_parallel");
    for jobs in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("rchlint_throughput/jobs", jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| black_box(analyze(jobs).digest()));
            },
        );
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    let sample = top100_sample(APPS);
    let serial = simulate(&FleetConfig::new(1, 0), &sample);
    let opts = FleetOptions::new();
    let mut group = c.benchmark_group("fleet_parallel");
    for jobs in [1usize, 2, 4, 8] {
        // Digest identity is the contract: any worker count must
        // reproduce the serial reduction bit for bit.
        assert_eq!(
            simulate(&FleetConfig::new(jobs, 0), &sample),
            serial,
            "jobs={jobs} diverged from the serial digest"
        );
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, &jobs| {
            let cfg = FleetConfig::new(jobs, 0);
            b.iter(|| black_box(simulate(&cfg, &sample)));
        });

        // Crash-recovery overhead: the supervised runner at 0 % faults
        // must stay within a few percent of the plain driver (<5 %
        // against the matching fleet_parallel/jobs arm). Each pair is
        // measured back to back so host drift over the bench run cannot
        // masquerade as runner overhead; the jobs=1 pair is the
        // meaningful one on small runners, where the multi-worker arms
        // are dominated by scheduler noise.
        if jobs == 1 || jobs == 4 {
            assert_eq!(
                simulate_supervised(&FleetConfig::new(jobs, 0), &opts, &sample),
                serial,
                "the supervised runner diverged from the plain digest at jobs={jobs}"
            );
            group.bench_with_input(
                BenchmarkId::new("fleet_crash_recovery/jobs", jobs),
                &jobs,
                |b, &jobs| {
                    let cfg = FleetConfig::new(jobs, 0);
                    b.iter(|| black_box(simulate_supervised(&cfg, &opts, &sample)));
                },
            );
        }
    }
    group.finish();
}

fn fast() -> Criterion {
    // Longer windows than the other benches: the plain-vs-supervised
    // overhead comparison needs the per-arm means stable to a few
    // percent, which 800 ms windows cannot deliver on a busy host.
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(2_500))
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench, bench_memo, bench_rchlint
}
criterion_main!(benches);
