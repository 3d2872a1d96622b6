//! The memo ≡ cold contract: the warm path (the built-app slot behind
//! `GenericAppSpec::build`, gated by the `kernel::memo` kill switch) is
//! pure memoization. Disabling it must never change a single observable
//! digest — at any worker count, with faults injected, for arbitrary app
//! specs.
//!
//! The tests toggle the process-global memo switch, so every test in
//! this binary serialises on [`FLAG_LOCK`] and restores the enabled
//! state on exit (panic included) via [`MemoGuard`].

use droidsim_analysis::{analyze_specs, AppShape, Suppressions};
use droidsim_app::{Activity, ActivityInstanceId, AppModel};
use droidsim_atms::ActivityRecordId;
use droidsim_config::Configuration;
use droidsim_device::{Device, HandlingMode};
use droidsim_faults::FaultPlan;
use droidsim_fleet::{run_fleet, Digest, FleetConfig, TaskCtx};
use droidsim_kernel::{memo, SimDuration};
use proptest::prelude::*;
use rch_experiments::{run_app, table5, RunConfig, RunOutcome};
use rch_workloads::{GenericAppSpec, StateItem, StateMechanism};
use std::sync::Mutex;

/// Serialises the tests of this binary around the process-global memo
/// switch.
static FLAG_LOCK: Mutex<()> = Mutex::new(());

/// RAII: sets the memo switch for a scope and restores `enabled` on
/// drop, so a failing assertion cannot leak a disabled cache into the
/// next test.
struct MemoGuard;

impl MemoGuard {
    fn set(on: bool) -> MemoGuard {
        memo::set_enabled(on);
        MemoGuard
    }
}

impl Drop for MemoGuard {
    fn drop(&mut self) {
        memo::set_enabled(true);
    }
}

/// Devices per fleet (enough that 1/4/8 workers partition differently).
const DEVICES: usize = 8;
/// Fault injection probability at every probe site.
const FAULT_RATE: f64 = 0.05;

/// One faulty device workload, digesting everything observable — the
/// same shape as the fleet determinism suite, on an app that
/// `GenericAppSpec::build` made: resolve, inflate and the mapping build
/// under degradation. The spec is built twice, so with the warm path on
/// the installed app shares the first build's core through the
/// built-app slot.
fn device_digest(index: usize, fault_seed: u64, jitter_seed: u64) -> u64 {
    let spec = GenericAppSpec::sized(
        &format!("parity-app-{index}"),
        "1M+",
        index.is_multiple_of(2),
    )
    .with_async_task();
    let _warm = spec.build();
    let mut d = Device::new(HandlingMode::rchdroid_default()).with_jitter(jitter_seed, 0.1);
    let c = d
        .install_and_launch(Box::new(spec.build()), spec.base_memory_bytes, 1.0)
        .unwrap();
    d.arm_faults(
        &c,
        FaultPlan::seeded(fault_seed).with_rate_everywhere(FAULT_RATE),
    )
    .unwrap();
    d.start_async_on_foreground(spec.async_task()).unwrap();
    let _ = d.rotate();
    d.advance(SimDuration::from_secs(6));
    if !d.is_crashed(&c) {
        let _ = d.rotate();
        d.advance(SimDuration::from_secs(1));
    }

    let mut digest = Digest::new();
    d.for_each_logcat_line(None, |line| digest.write_str(line));
    digest.write_str(&d.device_metrics(&c).unwrap().deterministic_fingerprint());
    digest.write_u64(u64::from(d.is_crashed(&c)));
    digest.write_str(d.foreground_component().as_deref().unwrap_or("<none>"));
    digest.finish()
}

fn device_task(mut ctx: TaskCtx, i: usize) -> u64 {
    let fault_seed = ctx.rng.next_u64();
    let jitter_seed = ctx.rng.next_u64();
    device_digest(i, fault_seed, jitter_seed)
}

fn fleet_digests(jobs: usize, seed: u64) -> Vec<u64> {
    run_fleet(
        &FleetConfig::new(jobs, seed),
        (0..DEVICES).collect(),
        device_task,
    )
}

#[test]
fn memo_equals_cold_at_every_worker_count_under_faults() {
    let _serial = FLAG_LOCK.lock().unwrap();
    for seed in [1u64, 11] {
        let cold = {
            let _off = MemoGuard::set(false);
            fleet_digests(1, seed)
        };
        let _on = MemoGuard::set(true);
        for jobs in [1usize, 4, 8] {
            assert_eq!(
                fleet_digests(jobs, seed),
                cold,
                "seed {seed}: memoized fleet at jobs={jobs} diverged from the cold run"
            );
        }
    }
}

/// Digests everything a scenario run observes.
fn outcome_digest(o: &RunOutcome) -> u64 {
    let mut d = Digest::new();
    for l in &o.latencies_ms {
        d.write_u64(l.to_bits());
    }
    d.write_u64(u64::from(o.crashed));
    d.write_u64(u64::from(o.state_ok));
    d.write_u64(o.memory_mib.to_bits());
    d.write_u64(o.busy_ms.to_bits());
    d.finish()
}

/// A random app spec: derived quantitative parameters from the name,
/// every behaviour flag free, optionally a state item of any mechanism
/// (the table5 study's spec space).
fn spec_strategy() -> impl Strategy<Value = GenericAppSpec> {
    // flags is a bitmask: large / handles-changes / saves-state / async.
    // mechanism 0..5 selects a state mechanism; 5 means "no state item".
    (0u32..1000, 0u32..16, 0usize..6).prop_map(|(n, flags, mechanism)| {
        let (large, handles, saves, with_async) = (
            flags & 1 != 0,
            flags & 2 != 0,
            flags & 4 != 0,
            flags & 8 != 0,
        );
        let mut spec = GenericAppSpec::sized(&format!("prop-app-{n}"), "10M+", large);
        if handles {
            spec = spec.self_handling();
        }
        if saves {
            spec = spec.saving_state();
        }
        if with_async {
            spec = spec.with_async_task();
        }
        if mechanism < 5 {
            let mechanism = [
                StateMechanism::FrameworkView,
                StateMechanism::CustomViewNoSave,
                StateMechanism::DynamicViewNoSave,
                StateMechanism::MemberSaved,
                StateMechanism::MemberUnsaved,
            ][mechanism];
            spec = spec.with_issue(
                "state loss on change",
                StateItem::new("prop-state", mechanism, "prop-value"),
            );
        }
        spec
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any app spec, driven through the table5-style handling scenario
    /// under both systems, produces bit-identical outcomes with the
    /// caches on and off — including the warm re-run that reuses the
    /// built-app slot.
    #[test]
    fn any_app_spec_runs_identically_with_and_without_memo(spec in spec_strategy()) {
        let _serial = FLAG_LOCK.lock().unwrap();
        let run = |mode: HandlingMode| run_app(&spec, &RunConfig::new(mode));
        let cold: Vec<u64> = {
            let _off = MemoGuard::set(false);
            [HandlingMode::Android10, HandlingMode::rchdroid_default()]
                .map(|m| outcome_digest(&run(m)))
                .to_vec()
        };
        let _on = MemoGuard::set(true);
        for pass in 0..2 {
            let warm: Vec<u64> = [HandlingMode::Android10, HandlingMode::rchdroid_default()]
                .map(|m| outcome_digest(&run(m)))
                .to_vec();
            prop_assert_eq!(
                &warm, &cold,
                "{}: warm pass {} diverged from the cold run", spec.name, pass
            );
        }
    }
}

/// The committed `table5` study digest (as printed by the `table5` bin).
const TABLE5_DIGEST: u64 = 0x3ef7_87a8_9d6a_daea;

#[test]
fn built_app_slot_is_bypassed_with_the_caches_off() {
    let _serial = FLAG_LOCK.lock().unwrap();
    let spec = GenericAppSpec::sized("SlotApp", "1M+", true);
    {
        let _off = MemoGuard::set(false);
        let (a, b) = (spec.build(), spec.build());
        assert!(!std::ptr::eq(a.resources(), b.resources()));
    }
    let _on = MemoGuard::set(true);
    let (a, b) = (spec.build(), spec.build());
    assert!(std::ptr::eq(a.resources(), b.resources()));
}

#[test]
fn table5_gives_the_committed_digest_with_and_without_the_caches() {
    let _serial = FLAG_LOCK.lock().unwrap();
    for on in [false, true] {
        let _guard = MemoGuard::set(on);
        for jobs in [1usize, 2] {
            let study = table5::run_with_config(&FleetConfig::new(jobs, 0));
            assert_eq!(
                study.digest(),
                TABLE5_DIGEST,
                "memo {on}, jobs={jobs}: {:016x}",
                study.digest()
            );
        }
    }
}

/// The committed `rchlint` report digest of the full corpus (as printed
/// by `rchlint --corpus all`).
const LINT_DIGEST: u64 = 0xcf1b_f18d_db37_e9f3;

/// tp27, top100 and dataloss: the `rchlint --corpus all` corpus.
fn lint_corpus() -> Vec<GenericAppSpec> {
    [
        rch_workloads::tp27_specs(),
        rch_workloads::top100_specs(),
        rch_workloads::dataloss_specs(),
    ]
    .concat()
}

/// The report digest folds every app's digest (diagnostics, verdicts
/// and suppression counts), so this also holds each app's analysis equal
/// with the warm path on and off, and across repeated warm passes.
#[test]
fn lint_report_gives_the_committed_digest_with_and_without_the_caches() {
    let _serial = FLAG_LOCK.lock().unwrap();
    let specs = lint_corpus();
    for on in [false, true] {
        let _guard = MemoGuard::set(on);
        for jobs in [1usize, 2] {
            let report = analyze_specs(&specs, &FleetConfig::new(jobs, 0), &Suppressions::none());
            assert_eq!(
                report.digest(),
                LINT_DIGEST,
                "memo {on}, jobs={jobs}: {:016x}",
                report.digest()
            );
        }
    }
}

/// Shape extraction starts `onCreate` from its strict inflation instead
/// of inflating again: every extracted tree must equal the tree a fresh
/// `perform_create` builds — fragments and dynamic views included.
#[test]
fn shape_trees_equal_a_fresh_on_create_with_and_without_the_caches() {
    let _serial = FLAG_LOCK.lock().unwrap();
    let specs = lint_corpus();
    let configs = [
        Configuration::phone_portrait(),
        Configuration::phone_landscape(),
    ];
    for on in [false, true] {
        let _guard = MemoGuard::set(on);
        for spec in &specs {
            let shape = AppShape::from_spec(spec);
            let app = spec.build();
            assert_eq!(shape.trees.len(), configs.len(), "{}", spec.name);
            for (ct, config) in shape.trees.iter().zip(&configs) {
                let mut fresh = Activity::new(
                    ActivityInstanceId::new(0),
                    ActivityRecordId::new(0),
                    app.component_name(),
                    config.clone(),
                );
                fresh.perform_create(&app, None);
                assert!(
                    ct.tree == fresh.tree,
                    "memo {on}, {} {}: extracted tree differs from onCreate's",
                    spec.name,
                    ct.label
                );
            }
        }
    }
}
