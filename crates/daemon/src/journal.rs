//! The daemon's crash-safe acceptance journal.
//!
//! The durability contract of the daemon is **accept-before-ack**: a
//! submission is journaled (and fsync'd) *before* the client receives
//! its `accepted` response, and every terminal state transition is
//! journaled when it happens. A daemon that crashes and restarts can
//! therefore replay the journal and know exactly which acknowledged
//! jobs have no terminal state yet — those are re-queued, and their
//! per-job fleet journals (written by the supervised runner) let a
//! half-finished study resume task-by-task to the same digest.
//!
//! This module is only the record schema — `accepted`, `state` and
//! `probe` lines under a `kind=daemon-journal` header — over the
//! kernel's [`AppendLog`], which the fleet journal writes through too:
//! a crash mid-append costs at most the record being written, and a
//! foreign file is refused, never silently reinterpreted.

use std::collections::BTreeMap;
use std::path::Path;

use droidsim_kernel::journal::{self, AppendLog, Fields};

use crate::faultio::IoFaults;
use crate::spec::{JobSpec, JobState};
use crate::DaemonError;

/// The header every daemon journal starts with; its format version is
/// required of an existing file.
const HEADER: [(&str, &str); 2] = [("kind", "daemon-journal"), ("version", "1")];

/// One job as the journal remembers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournaledJob {
    /// The daemon-assigned id.
    pub id: u64,
    /// The accepted spec.
    pub spec: JobSpec,
    /// The last journaled *terminal* state, `None` while incomplete —
    /// an incomplete entry is an acknowledged promise a restarted
    /// daemon must resume.
    pub terminal: Option<JobState>,
}

/// Everything a journal replay reconstructs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalView {
    /// Every accepted job in id order.
    pub jobs: BTreeMap<u64, JournaledJob>,
    /// The next id a restarted daemon may assign (max seen + 1).
    pub next_id: u64,
}

impl Default for JournalView {
    /// The view of an empty journal: no jobs, ids start at 1.
    fn default() -> Self {
        JournalView {
            jobs: BTreeMap::new(),
            next_id: 1,
        }
    }
}

impl JournalView {
    /// Jobs acknowledged but not yet terminal — the resume set.
    pub fn incomplete(&self) -> impl Iterator<Item = &JournaledJob> {
        self.jobs.values().filter(|j| j.terminal.is_none())
    }

    /// Folds one replayed record into the view. Refusing a record (a
    /// state for an id no `accepted` line introduced, an unknown record
    /// kind, an unparseable id, spec or state) ends the replay there:
    /// everything decoded before it stands.
    fn apply(&mut self, fields: &Fields) -> bool {
        let id: Option<u64> = journal::field(fields, "id").and_then(|v| v.parse().ok());
        match (journal::field(fields, "kind"), id) {
            // A degraded-mode health probe: proves the journal accepts
            // writes again, carries no job state.
            (Some("probe"), _) => true,
            (Some("accepted"), Some(id)) => {
                let Ok(spec) = JobSpec::from_fields(fields) else {
                    return false;
                };
                self.jobs.insert(
                    id,
                    JournaledJob {
                        id,
                        spec,
                        terminal: None,
                    },
                );
                self.next_id = self.next_id.max(id + 1);
                true
            }
            (Some("state"), Some(id)) => {
                let (Ok(state), Some(entry)) =
                    (JobState::from_fields(fields), self.jobs.get_mut(&id))
                else {
                    return false;
                };
                if state.is_terminal() {
                    entry.terminal = Some(state);
                }
                true
            }
            _ => false,
        }
    }
}

/// Append handle to a daemon journal (see module docs). Every append
/// goes through the [`IoFaults`] shim.
#[derive(Debug)]
pub struct DaemonJournal {
    log: AppendLog<IoFaults>,
}

impl DaemonJournal {
    /// Opens `path` for appending with a disarmed fault shim (see
    /// [`DaemonJournal::open`]).
    pub fn open_append(path: &Path) -> Result<DaemonJournal, DaemonError> {
        DaemonJournal::open(path, IoFaults::disarmed()).map(|(journal, _)| journal)
    }

    /// Opens `path` for appending, repairing a torn tail or header, and
    /// returns what it already holds. An existing file of another kind
    /// or version is a [`DaemonError::Journal`]. `faults` shims every
    /// subsequent append.
    pub fn open(
        path: &Path,
        faults: IoFaults,
    ) -> Result<(DaemonJournal, JournalView), DaemonError> {
        let mut view = JournalView::default();
        let log = AppendLog::open(path, &HEADER, faults, |f| view.apply(f))?;
        Ok((DaemonJournal { log }, view))
    }

    /// Journals an acceptance. Must complete (including fsync) before
    /// the client is told `accepted` — that ordering *is* the
    /// durability contract.
    pub fn record_accepted(&mut self, id: u64, spec: &JobSpec) -> Result<(), DaemonError> {
        let mut fields = vec![("kind", "accepted".to_owned()), ("id", id.to_string())];
        fields.extend(spec.kv_fields());
        Ok(self.log.append(&fields)?)
    }

    /// Journals a terminal state transition. Non-terminal states are
    /// never journaled (a restart infers `queued` from absence).
    pub fn record_state(&mut self, id: u64, state: &JobState) -> Result<(), DaemonError> {
        debug_assert!(state.is_terminal(), "only terminal states are journaled");
        let mut fields = vec![("kind", "state".to_owned()), ("id", id.to_string())];
        fields.extend(state.kv_fields());
        Ok(self.log.append(&fields)?)
    }

    /// Appends one fsync'd probe record. The replay skips probe
    /// records, so they carry no state — their only job is to prove,
    /// end to end through the same write+sync path every real record
    /// takes, that the journal accepts bytes again. The degraded
    /// daemon's watchdog calls this each tick until it succeeds.
    pub fn probe(&mut self) -> Result<(), DaemonError> {
        Ok(self.log.append(&[("kind", "probe")])?)
    }

    /// Replays a journal without repairing it. Malformed tails (a torn
    /// final line, a record referencing an id no `accepted` line
    /// introduced, an unknown record kind) end the replay at that point
    /// — everything decoded before the tear stands. A missing, torn or
    /// foreign header is an error.
    pub fn load(path: &Path) -> Result<JournalView, DaemonError> {
        let mut view = JournalView::default();
        journal::replay(path, &HEADER, |f| view.apply(f))?;
        Ok(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobKind;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("droidsimd-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("daemon.journal")
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec::new(JobKind::Table5 { apps: 3 }).with_seed(seed)
    }

    #[test]
    fn replay_reconstructs_accepted_and_terminal_jobs() {
        let path = scratch("replay");
        {
            let mut j = DaemonJournal::open_append(&path).unwrap();
            j.record_accepted(1, &spec(11)).unwrap();
            j.record_accepted(2, &spec(22)).unwrap();
            // Probe records carry no state but keep the replay walking.
            j.probe().unwrap();
            j.record_state(1, &JobState::Done { digest: 0xABCD })
                .unwrap();
            j.record_accepted(3, &spec(33)).unwrap();
            j.record_state(
                3,
                &JobState::Shed {
                    reason: "memory-pressure".to_owned(),
                },
            )
            .unwrap();
        }
        let view = DaemonJournal::load(&path).unwrap();
        assert_eq!(view.jobs.len(), 3);
        assert_eq!(view.next_id, 4);
        assert_eq!(
            view.jobs[&1].terminal,
            Some(JobState::Done { digest: 0xABCD })
        );
        assert_eq!(view.jobs[&2].terminal, None, "job 2 is the resume set");
        let incomplete: Vec<u64> = view.incomplete().map(|j| j.id).collect();
        assert_eq!(incomplete, vec![2]);
        assert_eq!(view.jobs[&2].spec.seed, 22, "spec survives the round trip");
    }

    #[test]
    fn torn_tail_keeps_the_prefix() {
        let path = scratch("torn");
        {
            let mut j = DaemonJournal::open_append(&path).unwrap();
            j.record_accepted(1, &spec(1)).unwrap();
            j.record_state(1, &JobState::Done { digest: 7 }).unwrap();
            j.record_accepted(2, &spec(2)).unwrap();
        }
        // Simulate a crash mid-append: chop the file mid-record.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 9]).unwrap();
        let view = DaemonJournal::load(&path).unwrap();
        assert_eq!(view.jobs[&1].terminal, Some(JobState::Done { digest: 7 }));
        assert!(!view.jobs.contains_key(&2), "torn acceptance is dropped");
        // And the journal reopens for appending after the tear.
        let mut j = DaemonJournal::open_append(&path).unwrap();
        j.record_accepted(9, &spec(9)).unwrap();
        assert!(DaemonJournal::load(&path).unwrap().jobs.contains_key(&9));
    }

    #[test]
    fn foreign_files_are_rejected_not_reinterpreted() {
        let path = scratch("foreign");
        fs::write(&path, "kind=header seed=1 items=4\n").unwrap(); // a *fleet* journal
        assert!(matches!(
            DaemonJournal::load(&path),
            Err(DaemonError::Journal(_))
        ));
        assert!(
            matches!(
                DaemonJournal::open_append(&path),
                Err(DaemonError::Journal(_))
            ),
            "appending to a foreign file must fail before writing"
        );
        fs::write(&path, "kind=daemon-journal version=99\n").unwrap();
        assert!(matches!(
            DaemonJournal::load(&path),
            Err(DaemonError::Journal(_))
        ));
    }

    #[test]
    fn torn_header_restarts_the_journal_empty() {
        let path = scratch("torn-header");
        fs::write(&path, "kind=daemon-jour").unwrap(); // crash mid-header
        assert!(
            DaemonJournal::load(&path).is_err(),
            "a torn header is unreadable"
        );
        // …but append recovery is safe: no record can exist before the
        // header, so the file restarts empty instead of bricking.
        let mut j = DaemonJournal::open_append(&path).unwrap();
        j.record_accepted(1, &spec(1)).unwrap();
        let view = DaemonJournal::load(&path).unwrap();
        assert_eq!(view.jobs.len(), 1);
        // A *complete* foreign header still refuses recovery.
        fs::write(&path, "kind=fleet-journal version=1\n").unwrap();
        assert!(DaemonJournal::open_append(&path).is_err());
    }

    #[test]
    fn state_for_unknown_id_ends_the_replay() {
        let path = scratch("unknown-id");
        {
            let mut j = DaemonJournal::open_append(&path).unwrap();
            j.record_accepted(1, &spec(1)).unwrap();
        }
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("kind=state id=42 state=done digest=00000000000000ff\n");
        text.push_str("kind=accepted id=5 job=fig10\n"); // after the tear: ignored
        fs::write(&path, text).unwrap();
        let view = DaemonJournal::load(&path).unwrap();
        assert_eq!(view.jobs.len(), 1);
        assert!(view.jobs.contains_key(&1));
    }
}
