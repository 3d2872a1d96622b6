//! The fleet determinism contract: a parallel fleet run produces
//! **bit-identical** per-device digests — and therefore an identical
//! reduced digest — to the `DROIDSIM_JOBS=1` inline run, for any worker
//! count. Each device here runs a faulty workload (5 % injection rate at
//! every probe site) so the comparison covers the full degradation
//! ladder, the logcat stream, and the mergeable metrics sinks, not just
//! the happy path.

use droidsim_app::SimpleApp;
use droidsim_device::{Device, HandlingMode};
use droidsim_faults::{FaultPlan, FaultSite};
use droidsim_fleet::{
    combine_ordered, run_fleet, run_fleet_supervised, Digest, FleetConfig, FleetOptions, TaskCtx,
    TaskOutcome,
};
use droidsim_kernel::SimDuration;

/// Devices per fleet; enough that every worker count partitions
/// differently.
const DEVICES: usize = 8;
/// Injection probability at every probe site.
const FAULT_RATE: f64 = 0.05;

/// One simulated device: install, inject at 5 %, drive two changes with
/// an async task in flight, then digest everything observable — logcat,
/// migration + fault metrics, crash status, foreground component.
fn device_digest(fault_seed: u64, jitter_seed: u64) -> u64 {
    let mut d = Device::new(HandlingMode::rchdroid_default()).with_jitter(jitter_seed, 0.1);
    let c = d
        .install_and_launch(Box::new(SimpleApp::with_views(4)), 40 << 20, 1.0)
        .unwrap();
    d.arm_faults(
        &c,
        FaultPlan::seeded(fault_seed).with_rate_everywhere(FAULT_RATE),
    )
    .unwrap();
    d.start_async_on_foreground(SimpleApp::with_views(4).button_task())
        .unwrap();
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

/// Runs a whole fleet of [`DEVICES`] faulty devices and returns the
/// per-device digests in item order. Each task derives its fault seed
/// from its private RNG stream, so the value depends only on the fleet
/// seed and the task index — never on which worker ran it.
fn fleet_digests(cfg: &FleetConfig) -> Vec<u64> {
    run_fleet(cfg, (0..DEVICES).collect(), device_task)
}

/// The per-task body shared by the plain and supervised runs: seeds come
/// from the task's private stream, so the digest depends only on the
/// fleet seed and the task index.
fn device_task(mut ctx: TaskCtx, _i: usize) -> u64 {
    let fault_seed = ctx.rng.next_u64();
    let jitter_seed = ctx.rng.next_u64();
    device_digest(fault_seed, jitter_seed)
}

/// Runs the same fleet under supervision.
fn supervised(cfg: &FleetConfig, opts: &FleetOptions) -> droidsim_fleet::FleetRun<u64> {
    run_fleet_supervised(cfg, opts, (0..DEVICES).collect(), device_task, |d| *d).unwrap()
}

#[test]
fn parallel_fleet_is_bit_identical_to_serial() {
    for seed in [1u64, 2, 3] {
        let serial = fleet_digests(&FleetConfig::new(1, seed));
        assert_eq!(serial.len(), DEVICES);
        for jobs in [2usize, 4, 8] {
            let parallel = fleet_digests(&FleetConfig::new(jobs, seed));
            assert_eq!(
                parallel, serial,
                "seed {seed}: jobs={jobs} diverged from the inline run"
            );
            assert_eq!(
                combine_ordered(parallel),
                combine_ordered(serial.iter().copied()),
                "seed {seed}: reduced digest diverged at jobs={jobs}"
            );
        }
    }
}

/// Wide enough that `claim_chunk` actually batches: at `jobs=2` the
/// first claim takes `24 / (4*2) = 3` tasks per cursor bump, so this
/// fleet exercises the K>1 chunked-claiming path the 8-device fleets
/// never reach.
const WIDE: usize = 24;

#[test]
fn chunked_claiming_and_streaming_reduce_match_inline() {
    // Both entry points of the one driver — plain `run_fleet` and the
    // supervised run with default options — must give the inline
    // results when K>1 chunks are claimed.
    let items: Vec<usize> = (0..WIDE).collect();
    for seed in [1u64, 2, 3] {
        let serial = run_fleet(&FleetConfig::new(1, seed), items.clone(), device_task);
        for jobs in [2usize, 4] {
            let cfg = FleetConfig::new(jobs, seed);
            assert_eq!(
                run_fleet(&cfg, items.clone(), device_task),
                serial,
                "seed {seed}: chunked claiming at jobs={jobs} diverged"
            );
            let run = run_fleet_supervised(
                &cfg,
                &FleetOptions::new(),
                items.clone(),
                device_task,
                |d| *d,
            )
            .unwrap();
            let results: Vec<u64> = run.outcomes.iter().map(|o| *o.ok().unwrap()).collect();
            assert_eq!(
                results, serial,
                "seed {seed}: supervised chunked claiming at jobs={jobs} diverged"
            );
        }
    }
}

#[test]
fn chunked_supervised_run_with_retries_matches_inline_unordered() {
    // The supervised driver claims the same K>1 chunks; a forced
    // transient fault (first attempt of task 3 panics, the retry
    // re-derives the identical stream) must leave the study digest
    // bit-identical to the inline run.
    let items: Vec<usize> = (0..WIDE).collect();
    let plan = FaultPlan::seeded(5).on_nth_probe(FaultSite::FleetTask, 4);
    let opts = FleetOptions::new().with_retries(2).with_faults(plan);
    let inline = run_fleet_supervised(
        &FleetConfig::new(1, 5),
        &opts,
        items.clone(),
        device_task,
        |d| *d,
    )
    .unwrap();
    assert!(inline.report.is_clean(), "{}", inline.report.render());
    for jobs in [2usize, 4] {
        let run = run_fleet_supervised(
            &FleetConfig::new(jobs, 5),
            &opts,
            items.clone(),
            device_task,
            |d| *d,
        )
        .unwrap();
        assert!(
            run.report.is_clean(),
            "jobs={jobs}: {}",
            run.report.render()
        );
        assert_eq!(run.report.ledger.retries, 1, "jobs={jobs}");
        assert_eq!(
            run.combined_digest(),
            inline.combined_digest(),
            "jobs={jobs}: study digest diverged"
        );
    }
}

#[test]
fn distinct_seeds_give_distinct_fleets() {
    // Sanity check that the digest actually captures behaviour: three
    // root seeds must not collapse to one digest stream.
    let a = combine_ordered(fleet_digests(&FleetConfig::new(1, 1)));
    let b = combine_ordered(fleet_digests(&FleetConfig::new(1, 2)));
    let c = combine_ordered(fleet_digests(&FleetConfig::new(1, 3)));
    assert!(a != b || b != c, "fleet digests are seed-insensitive");
}

#[test]
fn repeated_runs_are_stable() {
    // The same configuration twice in the same process: interning order
    // may differ (other tests intern first), so this also guards against
    // raw symbol values leaking into observable output.
    let cfg = FleetConfig::new(4, 7);
    assert_eq!(fleet_digests(&cfg), fleet_digests(&cfg));
}

#[test]
fn a_panicking_device_costs_only_its_own_slot() {
    // Crash isolation: device 3 of 8 panics on every attempt; the other
    // seven results survive, in item order, bit-identical to the clean
    // inline run.
    let clean = fleet_digests(&FleetConfig::new(1, 1));
    let run = supervised(
        &FleetConfig::new(4, 1),
        &FleetOptions::new().with_hard_fail(vec![3]),
    );
    assert_eq!(run.outcomes.len(), DEVICES);
    assert!(matches!(
        run.outcomes[3],
        TaskOutcome::Panicked { index: 3, .. }
    ));
    for (i, o) in run.outcomes.iter().enumerate() {
        if i == 3 {
            continue;
        }
        assert_eq!(o.ok().copied(), Some(clean[i]), "slot {i} diverged");
    }
    assert_eq!(run.report.quarantined.len(), 1);
    assert_eq!(run.report.quarantined[0].index, 3);
    // A partial run has no comparable study digest.
    assert!(run.combined_digest().is_none());
}

#[test]
fn a_retried_transient_fault_reproduces_the_clean_digest() {
    // Deterministic retries: a forced `fleet-task` fault panics device
    // 3's first attempt. The retry reruns on the *same*
    // `Xoshiro256::stream(seed, 3)`, so for every worker count the run
    // converges to the clean run's digests, bit for bit.
    let clean = fleet_digests(&FleetConfig::new(1, 5));
    let plan = FaultPlan::seeded(5).on_nth_probe(FaultSite::FleetTask, 4);
    let opts = FleetOptions::new().with_retries(2).with_faults(plan);
    for jobs in [1usize, 2, 4, 8] {
        let run = supervised(&FleetConfig::new(jobs, 5), &opts);
        assert!(
            run.report.is_clean(),
            "jobs={jobs}: {}",
            run.report.render()
        );
        assert_eq!(run.report.ledger.retries, 1, "jobs={jobs}");
        assert_eq!(run.report.ledger.injected_faults, 1, "jobs={jobs}");
        let digests: Vec<u64> = run.digests.iter().map(|d| d.unwrap()).collect();
        assert_eq!(digests, clean, "jobs={jobs} diverged after the retry");
        assert_eq!(
            run.combined_digest().unwrap(),
            combine_ordered(clean.iter().copied()),
            "jobs={jobs}"
        );
    }
}

#[test]
fn resuming_a_half_finished_journal_matches_the_uninterrupted_run() {
    // Checkpoint/resume: journal a full run, cut the journal back to its
    // header plus half the task lines (simulating a mid-run crash), then
    // resume. The resumed run re-executes only the missing half and its
    // combined digest equals the uninterrupted run's.
    let dir = std::env::temp_dir().join(format!("droidsim-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.journal");
    let _ = std::fs::remove_file(&path);

    let cfg = FleetConfig::new(2, 9);
    let full = supervised(&cfg, &FleetOptions::new().with_journal(&path));
    let uninterrupted = full.combined_digest().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + DEVICES, "header + one line per device");
    let keep = 1 + DEVICES / 2;
    std::fs::write(&path, format!("{}\n", lines[..keep].join("\n"))).unwrap();

    let resumed = supervised(&cfg, &FleetOptions::new().resuming(&path));
    assert_eq!(resumed.report.ledger.skipped, (DEVICES / 2) as u64);
    assert_eq!(resumed.report.ledger.ok, (DEVICES - DEVICES / 2) as u64);
    assert_eq!(
        resumed.combined_digest().unwrap(),
        uninterrupted,
        "resumed digest diverged from the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
