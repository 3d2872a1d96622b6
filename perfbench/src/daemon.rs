//! The daemon's layers, measured at the end of the `study` traced run:
//! open-loop, seeded Poisson arrivals against `server::serve_with` on a
//! Unix socket, in-process submissions with and without the journal,
//! and bare journal appends.
//!
//! The daemon under test runs in this process: a `Daemon` with the
//! production `StudyExecutor`, workers = nproc, and a fresh journal
//! directory per set-up under `.bench_out/`. One client connection sends
//! every request at its due time; a second waits for each accepted job
//! in submission order. Latencies count from the due time, so a stall
//! also charges the requests queued behind it.
//!
//! Traffic is about 80 % fresh keyed submits of size-1 `table5` jobs,
//! 10 % keyed duplicate resubmits and 10 % `status` reads, at a frozen
//! nominal rate that counts every request. Dedupe keys carry a
//! run-unique namespace, so no run can be answered from an earlier
//! run's dedupe map. Only these phases reach the protocol, admission,
//! the journal's fsync and the queue; the duplicate and status requests
//! use the same layers without journal writes.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use droidsim_daemon::server::{serve_with, ServerConfig};
use droidsim_daemon::{
    Admission, Client, Daemon, DaemonConfig, DaemonError, DaemonJournal, JobControl, JobExecutor,
    JobKind, JobSpec, JobState, JobStatus, JobVerdict, ShutdownMode,
};
use droidsim_kernel::Xoshiro256;
use rch_experiments::daemon_exec::reference_digest;
use rch_experiments::StudyExecutor;

use crate::stats::{median, ms, nproc, quantile, Tally};
use crate::trace::{self, span};
use crate::Outcome;

/// Offered load at which the latency metrics are read (requests/s):
/// about a tenth of the daemon's capacity on a quiet 2-vCPU host, so
/// the latencies stay per-job costs, not queueing, when the host slows
/// (see README).
const NOMINAL_RATE: f64 = 100.0;
/// Admission-queue bound of the daemon under test: large enough that a
/// host stall queues requests rather than refusing them.
const QUEUE_CAPACITY: usize = 4096;
/// Distinct job seeds per run (each gets its own reference digest).
const JOB_SEEDS: usize = 8;
/// Warm-up traffic per set-up, at the nominal rate.
const WARMUP_SECONDS: f64 = 0.5;
/// Jobs recorded (accepted, then done) on the throwaway journal.
const JOURNAL_RECORDS: u64 = 500;
/// `cmd=wait` timeout per job.
const WAIT: Duration = Duration::from_secs(30);

/// One scheduled request.
#[derive(Debug, Clone)]
enum Request {
    /// A fresh keyed submit with this job seed.
    Submit { key: String, seed: u64 },
    /// A resubmit of the fresh submit at this schedule index.
    Resubmit { of: usize },
    /// A status read of the job submitted at this schedule index.
    Status { of: usize },
}

/// Open-loop Poisson arrivals at `rate` requests/s for `seconds`.
fn schedule(
    rng: &mut Xoshiro256,
    rate: f64,
    seconds: f64,
    ns: &str,
    seeds: &[u64],
) -> Vec<(Duration, Request)> {
    let mut out = Vec::new();
    let mut fresh = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return out;
        }
        let roll = rng.next_f64();
        let request = if roll >= 0.8 && !fresh.is_empty() {
            let of = fresh[rng.next_below(fresh.len() as u64) as usize];
            if roll < 0.9 {
                Request::Resubmit { of }
            } else {
                Request::Status { of }
            }
        } else {
            fresh.push(out.len());
            Request::Submit {
                key: format!("{ns}-{}", out.len()),
                seed: seeds[rng.next_below(seeds.len() as u64) as usize],
            }
        };
        out.push((Duration::from_secs_f64(t), request));
    }
}

fn job(key: &str, seed: u64) -> JobSpec {
    JobSpec::new(JobKind::Table5 { apps: 1 })
        .with_seed(seed)
        .with_dedupe_key(key)
}

/// Checks every answer the daemon gives: each submit answered, each
/// fresh key a new job id, each resubmit naming the original id, each
/// job done with its reference digest. Every failure is counted.
#[derive(Debug, Default)]
pub struct Audit {
    /// Checked requests.
    pub tally: Tally,
    owner: HashMap<u64, String>,
    /// Refusals by reason.
    pub rejected: BTreeMap<String, u64>,
}

impl Audit {
    /// Prints the refusals by reason.
    fn note_refusals(&self, out: &mut Outcome) {
        for (reason, n) in &self.rejected {
            out.note(format!("daemon.rejected.{reason} = {n}"));
        }
    }

    /// Starts auditing a new daemon instance, whose job ids restart.
    pub fn new_daemon(&mut self) {
        self.owner.clear();
    }

    /// A fresh submit's answer; returns the job id when accepted.
    pub fn on_submit(&mut self, key: &str, answer: io::Result<Admission>) -> Option<u64> {
        match answer {
            Ok(Admission::Accepted { id, .. }) => match self.owner.get(&id) {
                Some(other) => {
                    self.tally.fail(format!(
                        "duplicated job id {id}: keys {other} and {key} share it"
                    ));
                    None
                }
                None => {
                    self.owner.insert(id, key.to_owned());
                    self.tally.ok();
                    Some(id)
                }
            },
            Ok(Admission::Duplicate { id }) => {
                self.tally
                    .fail(format!("fresh key {key} answered duplicate of {id}"));
                None
            }
            Ok(Admission::Rejected { reason }) => {
                *self.rejected.entry(reason.clone()).or_default() += 1;
                self.tally.fail(format!("submit {key} refused: {reason}"));
                None
            }
            Err(e) => {
                self.tally.fail(format!("lost ack for {key}: {e}"));
                None
            }
        }
    }

    /// A resubmit's answer: must be `duplicate` naming `original`.
    pub fn on_resubmit(&mut self, key: &str, original: u64, answer: io::Result<Admission>) {
        match answer {
            Ok(Admission::Duplicate { id }) if id == original => self.tally.ok(),
            Ok(other) => self.tally.fail(format!(
                "resubmit of {key} answered {other:?}, want duplicate of {original}"
            )),
            Err(e) => self
                .tally
                .fail(format!("lost answer to resubmit {key}: {e}")),
        }
    }

    /// A status read's answer: must describe job `id`.
    pub fn on_status(&mut self, id: u64, answer: io::Result<JobStatus>) {
        match answer {
            Ok(s) if s.id == id => self.tally.ok(),
            Ok(s) => self
                .tally
                .fail(format!("status of {id} answered for {}", s.id)),
            Err(e) => self.tally.fail(format!("lost answer to status {id}: {e}")),
        }
    }

    /// A waited-for job: must be done with digest `want`.
    pub fn on_done(&mut self, id: u64, answer: io::Result<JobStatus>, want: u64) {
        match answer {
            Ok(JobStatus {
                state: JobState::Done { digest },
                ..
            }) if digest == want => self.tally.ok(),
            Ok(s) => self.tally.fail(format!(
                "job {id} ended {:?}, want done with digest {want:016x}",
                s.state
            )),
            Err(e) => self.tally.fail(format!("lost answer to wait {id}: {e}")),
        }
    }
}

/// A daemon serving on a socket, torn down on drop.
struct Harness {
    daemon: Arc<Daemon>,
    server: Option<JoinHandle<Result<(), DaemonError>>>,
    socket: PathBuf,
    dir: PathBuf,
}

/// A fresh, run-unique directory under `.bench_out/`.
fn fresh_dir(tag: &str) -> io::Result<PathBuf> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = Path::new(".bench_out").join(format!("{tag}-{}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn daemon_config(dir: &Path, journal: bool) -> DaemonConfig {
    let cfg = DaemonConfig::new()
        .with_workers(nproc())
        .with_capacity(QUEUE_CAPACITY);
    if journal {
        cfg.with_journal_dir(dir.join("journal"))
    } else {
        cfg
    }
}

impl Harness {
    fn start(executor: impl JobExecutor) -> io::Result<Harness> {
        let dir = fresh_dir("daemon")?;
        let daemon = Daemon::start(daemon_config(&dir, true), executor)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let daemon = Arc::new(daemon);
        let socket = dir.join("s");
        let server = {
            let daemon = Arc::clone(&daemon);
            let socket = socket.clone();
            std::thread::spawn(move || serve_with(&daemon, &socket, ServerConfig::new()))
        };
        Ok(Harness {
            daemon,
            server: Some(server),
            socket,
            dir,
        })
    }

    fn connect(&self) -> io::Result<Client> {
        Client::connect_retry(&self.socket, Duration::from_secs(10))
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.daemon.shutdown(ShutdownMode::Drain);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Latencies of one driven schedule.
#[derive(Debug, Default)]
struct Phase {
    ack_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_rtt_ms: Vec<f64>,
    sent: u64,
    wall: Duration,
}

/// Sends `plan` over one connection at the due times while a second
/// connection waits for each accepted job; checks every answer.
fn drive(
    h: &Harness,
    plan: &[(Duration, Request)],
    refs: &HashMap<u64, u64>,
    audit: &mut Audit,
) -> io::Result<Phase> {
    let mut submitter = h.connect()?;
    let mut observer = h.connect()?;
    let (tx, rx) = mpsc::channel::<(u64, u64)>();
    let waiter = std::thread::spawn(move || {
        let mut seen = Vec::new();
        for (id, seed) in rx {
            let answer = span("client.wait", id, || observer.wait(id, WAIT));
            seen.push((id, answer, seed));
        }
        trace::flush_thread();
        seen
    });
    let mut phase = Phase::default();
    let mut ids: Vec<Option<u64>> = vec![None; plan.len()];
    let start = Instant::now();
    for (i, (at, request)) in plan.iter().enumerate() {
        let due = start + *at;
        span("loadgen.wait", i as u64, || {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        });
        phase
            .late_ms
            .push(ms(Instant::now().saturating_duration_since(due)));
        phase.sent += 1;
        match request {
            Request::Submit { key, seed } => {
                let sent = Instant::now();
                let answer = span("client.submit", i as u64, || {
                    submitter.submit(&job(key, *seed))
                });
                phase.submit_rtt_ms.push(ms(sent.elapsed()));
                if let Some(id) = audit.on_submit(key, answer) {
                    phase.ack_ms.push(ms(due.elapsed()));
                    ids[i] = Some(id);
                    let _ = tx.send((id, *seed));
                }
            }
            Request::Resubmit { of } => {
                let (Request::Submit { key, seed }, Some(original)) = (&plan[*of].1, ids[*of])
                else {
                    continue;
                };
                let answer = span("client.submit", i as u64, || {
                    submitter.submit(&job(key, *seed))
                });
                audit.on_resubmit(key, original, answer);
            }
            Request::Status { of } => {
                let Some(id) = ids[*of] else { continue };
                let answer = span("client.status", id, || submitter.status(id));
                audit.on_status(id, answer);
            }
        }
    }
    drop(tx);
    let seen = waiter
        .join()
        .map_err(|_| io::Error::other("completion observer panicked"))?;
    phase.wall = start.elapsed();
    trace::flush_thread();
    for (id, answer, seed) in seen {
        let want = refs.get(&seed).copied().unwrap_or_default();
        audit.on_done(id, answer, want);
    }
    Ok(phase)
}

/// The run's job seeds and their jobs=1 reference digests.
fn references(seed: u64) -> Result<HashMap<u64, u64>, String> {
    let mut rng = Xoshiro256::stream(seed, 2);
    let mut refs = HashMap::new();
    while refs.len() < JOB_SEEDS {
        let s = rng.next_u64();
        refs.insert(s, reference_digest(&job("", s))?);
    }
    Ok(refs)
}

/// Everything set-up leaves for the traced phases.
struct Ready {
    harness: Harness,
    refs: HashMap<u64, u64>,
    seeds: Vec<u64>,
}

/// A run-unique dedupe-key namespace.
fn namespace(tag: &str) -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    format!("pb{}-{nanos}-{tag}", std::process::id())
}

fn setup(seed: u64, audit: &mut Audit) -> Result<Ready, String> {
    let refs = references(seed)?;
    let mut seeds: Vec<u64> = refs.keys().copied().collect();
    seeds.sort_unstable();
    let harness = Harness::start(StudyExecutor).map_err(|e| format!("daemon start: {e}"))?;
    audit.new_daemon();
    let plan = schedule(
        &mut Xoshiro256::stream(seed, 3),
        NOMINAL_RATE,
        WARMUP_SECONDS,
        &namespace("warm"),
        &seeds,
    );
    drive(&harness, &plan, &refs, audit).map_err(|e| format!("warm-up: {e}"))?;
    Ok(Ready {
        harness,
        refs,
        seeds,
    })
}

/// The daemon's per-layer metrics, for the `study` traced run: a fresh
/// daemon serving size-1 study jobs through the traced phases. Returns
/// the checks it made.
pub fn served_layers(seed: u64, seconds: f64, out: &mut Outcome) -> Tally {
    let mut audit = Audit::default();
    let result = setup(seed, &mut audit)
        .map_err(io::Error::other)
        .and_then(|ready| traced_phases(seed, seconds, &ready, &mut audit, out));
    match result {
        Ok(traced) => {
            let own = trace::self_time_ns(&traced.spans);
            out.self_time_table(&own, traced.wall.as_nanos() as f64);
            out.spans.extend(traced.spans);
        }
        Err(e) => audit.tally.fail(format!("daemon layers: {e}")),
    }
    audit.note_refusals(out);
    audit.tally
}

/// `StudyExecutor` timed from the outside: start and end per job id.
#[derive(Clone, Default)]
struct TimedExecutor {
    log: Arc<Mutex<Vec<(u64, Instant, Instant)>>>,
}

impl JobExecutor for TimedExecutor {
    fn execute(&self, spec: &JobSpec, ctl: &JobControl) -> JobVerdict {
        let start = Instant::now();
        let verdict = StudyExecutor.execute(spec, ctl);
        self.log
            .lock()
            .expect("no executor panics while holding the log")
            .push((ctl.id, start, Instant::now()));
        verdict
    }
}

/// Submit, queue-wait and execution times of in-process submissions.
#[derive(Debug, Default)]
struct InProcess {
    submit_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    exec_ms: Vec<f64>,
}

/// Open-loop `Daemon::submit` calls at the nominal rate, no socket.
fn in_process(
    journal: bool,
    seconds: f64,
    rng: &mut Xoshiro256,
    ready: &Ready,
    audit: &mut Audit,
) -> io::Result<InProcess> {
    let dir = fresh_dir("inproc")?;
    let executor = TimedExecutor::default();
    let daemon = Daemon::start(daemon_config(&dir, journal), executor.clone())
        .map_err(|e| io::Error::other(e.to_string()))?;
    audit.new_daemon();
    let ns = namespace(if journal { "ij" } else { "in" });
    let plan = schedule(rng, NOMINAL_RATE, seconds, &ns, &ready.seeds);
    let mut accepted_at = HashMap::new();
    let mut jobs = Vec::new();
    let mut result = InProcess::default();
    let start = Instant::now();
    for (at, request) in &plan {
        let Request::Submit { key, seed } = request else {
            continue;
        };
        let due = start + *at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t0 = Instant::now();
        let answer = daemon.submit(job(key, *seed));
        let t1 = Instant::now();
        result.submit_ms.push(ms(t1 - t0));
        if let Some(id) = audit.on_submit(key, Ok(answer)) {
            accepted_at.insert(id, t1);
            jobs.push((id, *seed));
        }
    }
    for (id, seed) in jobs {
        let answer = daemon
            .wait(id, WAIT)
            .ok_or_else(|| io::Error::other(format!("unknown job {id}")));
        audit.on_done(id, answer, ready.refs[&seed]);
    }
    daemon.shutdown(ShutdownMode::Drain);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    for (id, begin, end) in executor.log.lock().expect("executor log").iter() {
        if let Some(acked) = accepted_at.get(id) {
            result
                .queue_wait_ms
                .push(ms(begin.saturating_duration_since(*acked)));
        }
        result.exec_ms.push(ms(*end - *begin));
    }
    Ok(result)
}

/// What the traced socket phase leaves for the self-time table.
struct TracedPhase {
    spans: Vec<trace::Span>,
    wall: Duration,
}

/// Socket latencies untraced and traced, in-process submit/queue/exec
/// times with and without the journal, and bare journal appends.
fn traced_phases(
    seed: u64,
    seconds: f64,
    ready: &Ready,
    audit: &mut Audit,
    out: &mut Outcome,
) -> io::Result<TracedPhase> {
    let mut rng = Xoshiro256::stream(seed, 5);
    let ns = namespace("trace");

    // A: the socket path at the nominal rate, untraced.
    let stats_before = ready.harness.daemon.stats().ledger;
    let plan = schedule(
        &mut rng,
        NOMINAL_RATE,
        seconds * 0.25,
        &format!("{ns}-a"),
        &ready.seeds,
    );
    let plain = drive(&ready.harness, &plan, &ready.refs, audit)?;
    let stats = ready.harness.daemon.stats().ledger;
    out.layer("daemon.ack_ms_p50", median(&plain.ack_ms));
    out.layer("daemon.ack_ms_p99", quantile(&plain.ack_ms, 0.99));
    out.layer("loadgen.late_ms_p99", quantile(&plain.late_ms, 0.99));
    out.layer("loadgen.sent", plain.sent as f64);
    out.layer(
        "daemon.accepted",
        (stats.accepted - stats_before.accepted) as f64,
    );
    out.layer(
        "daemon.dedupe_hits",
        (stats.dedupe_hits - stats_before.dedupe_hits) as f64,
    );
    out.layer(
        "daemon.rejected",
        (stats.rejected - stats_before.rejected) as f64,
    );

    // B: the same traffic with client spans and a timed executor.
    let harness = Harness::start(TimedExecutor::default())?;
    audit.new_daemon();
    trace::drain();
    trace::set_enabled(true);
    let plan = schedule(
        &mut rng,
        NOMINAL_RATE,
        seconds * 0.25,
        &format!("{ns}-b"),
        &ready.seeds,
    );
    let traced = drive(&harness, &plan, &ready.refs, audit)?;
    trace::set_enabled(false);
    drop(harness);
    let traced_phase = TracedPhase {
        spans: trace::drain(),
        wall: traced.wall,
    };

    // C and D: in-process submissions with and without the journal.
    let with = in_process(true, seconds * 0.2, &mut rng, ready, audit)?;
    let without = in_process(false, seconds * 0.2, &mut rng, ready, audit)?;
    let submit_p50 = median(&with.submit_ms);
    out.layer("daemon.submit.ms_p50", submit_p50);
    out.layer("daemon.submit.ms_p99", quantile(&with.submit_ms, 0.99));
    out.layer(
        "daemon.proto.ms_p50",
        median(&traced.submit_rtt_ms) - submit_p50,
    );
    out.layer("daemon.queue_wait.ms_p50", median(&with.queue_wait_ms));
    out.layer(
        "daemon.queue_wait.ms_p99",
        quantile(&with.queue_wait_ms, 0.99),
    );
    out.layer("daemon.exec.ms_p50", median(&with.exec_ms));
    out.layer("daemon.exec.ms_p99", quantile(&with.exec_ms, 0.99));
    out.layer(
        "daemon.submit.journal_share",
        1.0 - median(&without.submit_ms) / submit_p50,
    );
    out.layer(
        "daemon.exec.journal_share",
        1.0 - median(&without.exec_ms) / median(&with.exec_ms),
    );

    // E: bare appends to a throwaway journal.
    let dir = fresh_dir("journal")?;
    let mut journal = DaemonJournal::open_append(&dir.join("appends.journal"))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let mut append_ms = Vec::new();
    let spec = job(&ns, ready.seeds[0]);
    let done = JobState::Done {
        digest: ready.refs[&ready.seeds[0]],
    };
    for id in 0..JOURNAL_RECORDS {
        let t0 = Instant::now();
        journal
            .record_accepted(id, &spec)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let t1 = Instant::now();
        journal
            .record_state(id, &done)
            .map_err(|e| io::Error::other(e.to_string()))?;
        append_ms.push(ms(t1 - t0));
        append_ms.push(ms(t1.elapsed()));
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    out.layer("daemon.journal.append_ms_p50", median(&append_ms));
    out.layer("daemon.journal.append_ms_p99", quantile(&append_ms, 0.99));
    Ok(traced_phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(id: u64, digest: u64) -> io::Result<JobStatus> {
        Ok(JobStatus {
            id,
            state: JobState::Done { digest },
            priority: droidsim_daemon::Priority::Normal,
            tag: String::new(),
        })
    }

    fn accepted(id: u64) -> io::Result<Admission> {
        Ok(Admission::Accepted { id, queue_depth: 0 })
    }

    #[test]
    fn a_clean_exchange_passes() {
        let mut audit = Audit::default();
        assert_eq!(audit.on_submit("k1", accepted(1)), Some(1));
        audit.on_resubmit("k1", 1, Ok(Admission::Duplicate { id: 1 }));
        audit.on_status(1, status(1, 7));
        audit.on_done(1, status(1, 7), 7);
        assert_eq!((audit.tally.attempted, audit.tally.exit_code()), (4, 0));
    }

    #[test]
    fn a_wrong_reference_digest_fails_the_run() {
        let mut audit = Audit::default();
        audit.on_submit("k1", accepted(1));
        audit.on_done(1, status(1, 7), 8);
        assert_eq!((audit.tally.failed, audit.tally.exit_code()), (1, 1));
    }

    #[test]
    fn a_lost_ack_fails_the_run() {
        let mut audit = Audit::default();
        let lost = Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
        assert_eq!(audit.on_submit("k1", lost), None);
        assert_eq!((audit.tally.failed, audit.tally.exit_code()), (1, 1));
    }

    #[test]
    fn a_duplicated_job_id_fails_the_run() {
        let mut audit = Audit::default();
        audit.on_submit("k1", accepted(1));
        assert_eq!(audit.on_submit("k2", accepted(1)), None);
        audit.on_resubmit("k1", 1, Ok(Admission::Duplicate { id: 2 }));
        assert_eq!((audit.tally.failed, audit.tally.exit_code()), (2, 1));
    }

    #[test]
    fn a_refusal_fails_the_run() {
        let mut audit = Audit::default();
        let refused = Ok(Admission::Rejected {
            reason: "queue-full".to_owned(),
        });
        audit.on_submit("k1", refused);
        assert_eq!(audit.rejected["queue-full"], 1);
        assert_eq!(audit.tally.exit_code(), 1);
    }

    #[test]
    fn schedules_repeat_per_seed_and_mix_requests() {
        let seeds = [1, 2];
        let a = schedule(&mut Xoshiro256::stream(9, 4), 400.0, 5.0, "n", &seeds);
        let b = schedule(&mut Xoshiro256::stream(9, 4), 400.0, 5.0, "n", &seeds);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let fresh = a
            .iter()
            .filter(|(_, r)| matches!(r, Request::Submit { .. }))
            .count() as f64;
        let share = fresh / a.len() as f64;
        assert!((0.75..0.85).contains(&share), "fresh share {share}");
        assert!((1800..2200).contains(&a.len()), "{} requests", a.len());
    }
}
