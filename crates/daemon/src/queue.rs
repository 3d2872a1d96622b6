//! The bounded, priority-aware admission queue.
//!
//! Three FIFO rings (one per [`Priority`]) behind one mutex, with a
//! hard capacity across all rings. Admission control is the queue's
//! whole point: a full queue never silently grows and never silently
//! drops — [`AdmissionQueue::try_admit`] either queues the job, names
//! the lower-priority victim it displaced, or reports `Full` so the
//! caller can send an explicit rejection. Workers block in
//! [`AdmissionQueue::pop`], which serves the highest non-empty ring
//! first and FIFO within a ring.
//!
//! The queue stores plain [`QueuedJob`] values and knows nothing about
//! job tables or journals; the daemon core composes those around it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use droidsim_kernel::lock_unpoisoned;

use crate::spec::{JobSpec, Priority};

/// One queued admission: the job id and its spec (the spec rides along
/// so a displaced victim can be reported without a table lookup).
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// The daemon-assigned job id.
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &QueuedJob) -> bool {
        self.id == other.id
    }
}

/// What [`AdmissionQueue::try_admit`] decided.
#[derive(Debug)]
pub enum Admit {
    /// The job was queued; `depth` is the queue depth after insertion.
    Queued {
        /// Queue depth including the new job.
        depth: usize,
    },
    /// The queue was full but a strictly-lower-priority job could make
    /// room: `shed` was removed (newest of the lowest non-empty class)
    /// and the new job queued in its place.
    Displaced {
        /// The displaced victim. The caller owes it an explicit
        /// terminal `Shed` state — displacement must never be silent.
        shed: QueuedJob,
        /// Queue depth after the swap (unchanged: one out, one in).
        depth: usize,
    },
    /// Full, and nothing queued is lower-priority than the new job.
    /// The caller owes the client an explicit `Rejected` response.
    Full,
}

#[derive(Debug, Default)]
struct Rings {
    by_priority: [VecDeque<QueuedJob>; 3],
}

impl Rings {
    fn depth(&self) -> usize {
        self.by_priority.iter().map(VecDeque::len).sum()
    }

    /// Pops the head of the highest-priority non-empty ring.
    fn pop_highest(&mut self) -> Option<QueuedJob> {
        self.by_priority
            .iter_mut()
            .rev()
            .find_map(VecDeque::pop_front)
    }

    /// Removes the *newest* job of the lowest non-empty ring strictly
    /// below `than` — the displacement victim. Newest-first keeps the
    /// shed job the one that has waited least (and so loses least).
    fn displace_below(&mut self, than: Priority) -> Option<QueuedJob> {
        self.by_priority[..than.ring()]
            .iter_mut()
            .find(|ring| !ring.is_empty())
            .and_then(VecDeque::pop_back)
    }
}

/// The bounded priority queue (see module docs).
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    rings: Mutex<Rings>,
    available: Condvar,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` jobs (clamped to ≥ 1).
    pub fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            capacity: capacity.max(1),
            rings: Mutex::new(Rings::default()),
            available: Condvar::new(),
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued (all rings).
    pub fn depth(&self) -> usize {
        lock_unpoisoned(&self.rings).depth()
    }

    /// Whether a submission at `priority` would be admitted right now —
    /// free capacity, or a displaceable lower-priority victim. Advisory
    /// only under concurrency: pops can only *shrink* the queue, so a
    /// `true` from the daemon's serialized admission path stays true.
    pub fn would_admit(&self, priority: Priority) -> bool {
        let rings = lock_unpoisoned(&self.rings);
        rings.depth() < self.capacity
            || rings.by_priority[..priority.ring()]
                .iter()
                .any(|ring| !ring.is_empty())
    }

    /// Admits, displaces, or refuses (see [`Admit`]).
    pub fn try_admit(&self, job: QueuedJob) -> Admit {
        let mut rings = lock_unpoisoned(&self.rings);
        if rings.depth() < self.capacity {
            let ring = job.spec.priority.ring();
            rings.by_priority[ring].push_back(job);
            let depth = rings.depth();
            drop(rings);
            self.available.notify_one();
            return Admit::Queued { depth };
        }
        match rings.displace_below(job.spec.priority) {
            Some(shed) => {
                let ring = job.spec.priority.ring();
                rings.by_priority[ring].push_back(job);
                let depth = rings.depth();
                drop(rings);
                self.available.notify_one();
                Admit::Displaced { shed, depth }
            }
            None => Admit::Full,
        }
    }

    /// Enqueues bypassing the capacity check — only for jobs that were
    /// *already acknowledged* in a previous daemon life and are being
    /// re-queued from the journal at startup. Durability trumps the
    /// bound: an accepted job is a promise.
    pub fn push_resumed(&self, job: QueuedJob) {
        let ring = job.spec.priority.ring();
        lock_unpoisoned(&self.rings).by_priority[ring].push_back(job);
        self.available.notify_one();
    }

    /// Blocks for the next job, highest priority first. Returns `None`
    /// when `stop_now` is set (even with jobs still queued — they stay
    /// put, parked for a later resume) or when `draining` is set and
    /// the queue is empty.
    pub fn pop(&self, stop_now: &AtomicBool, draining: &AtomicBool) -> Option<QueuedJob> {
        let mut rings = lock_unpoisoned(&self.rings);
        loop {
            if stop_now.load(Ordering::Acquire) {
                return None;
            }
            if let Some(job) = rings.pop_highest() {
                return Some(job);
            }
            if draining.load(Ordering::Acquire) {
                return None;
            }
            // Bounded wait so a stop flag set without a notify (e.g. a
            // crashing controller) still terminates the pool promptly.
            let (guard, _) = self
                .available
                .wait_timeout(rings, Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            rings = guard;
        }
    }

    /// Removes a specific queued job (client cancel / expired deadline
    /// of a job that has not started). `None` when the job is not
    /// queued — already popped, or never here.
    pub fn remove(&self, id: u64) -> Option<QueuedJob> {
        let mut rings = lock_unpoisoned(&self.rings);
        for ring in &mut rings.by_priority {
            if let Some(pos) = ring.iter().position(|j| j.id == id) {
                return ring.remove(pos);
            }
        }
        None
    }

    /// Drains the lowest-priority non-empty ring strictly below `keep`
    /// — one reclaim pass of the memory-pressure shedding policy.
    /// Shedding one class per pass is deliberate: pressure that clears
    /// after shedding `Low` never touches `Normal`.
    pub fn shed_lowest_class(&self, keep: Priority) -> Vec<QueuedJob> {
        let mut rings = lock_unpoisoned(&self.rings);
        for ring in &mut rings.by_priority[..keep.ring()] {
            if !ring.is_empty() {
                return ring.drain(..).collect();
            }
        }
        Vec::new()
    }

    /// Wakes every blocked [`AdmissionQueue::pop`] so stop flags get
    /// re-checked immediately.
    pub fn wake_all(&self) {
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobKind;

    fn job(id: u64, priority: Priority) -> QueuedJob {
        QueuedJob {
            id,
            spec: JobSpec::new(JobKind::Fig10).with_priority(priority),
        }
    }

    fn pop_now(q: &AdmissionQueue) -> Option<u64> {
        // Non-blocking pop: drain with the draining flag set.
        let stop = AtomicBool::new(false);
        let draining = AtomicBool::new(true);
        q.pop(&stop, &draining).map(|j| j.id)
    }

    #[test]
    fn serves_priority_then_fifo() {
        let q = AdmissionQueue::new(8);
        for (id, p) in [
            (1, Priority::Low),
            (2, Priority::Normal),
            (3, Priority::High),
            (4, Priority::Normal),
            (5, Priority::High),
        ] {
            assert!(matches!(q.try_admit(job(id, p)), Admit::Queued { .. }));
        }
        let order: Vec<u64> = std::iter::from_fn(|| pop_now(&q)).collect();
        assert_eq!(order, vec![3, 5, 2, 4, 1]);
    }

    #[test]
    fn full_queue_refuses_equal_priority_but_displaces_lower() {
        let q = AdmissionQueue::new(2);
        assert!(matches!(
            q.try_admit(job(1, Priority::Low)),
            Admit::Queued { .. }
        ));
        assert!(matches!(
            q.try_admit(job(2, Priority::Low)),
            Admit::Queued { .. }
        ));
        // Same priority cannot displace.
        assert!(matches!(q.try_admit(job(3, Priority::Low)), Admit::Full));
        assert!(!q.would_admit(Priority::Low));
        assert!(q.would_admit(Priority::High));
        // Higher priority displaces the newest low job (id 2).
        match q.try_admit(job(4, Priority::High)) {
            Admit::Displaced { shed, depth } => {
                assert_eq!(shed.id, 2, "newest of the lowest class is shed");
                assert_eq!(depth, 2, "one out, one in");
            }
            other => panic!("expected displacement, got {other:?}"),
        }
        assert_eq!(pop_now(&q), Some(4));
        assert_eq!(pop_now(&q), Some(1));
    }

    #[test]
    fn reclaim_pass_sheds_one_class_at_a_time() {
        let q = AdmissionQueue::new(8);
        for (id, p) in [
            (1, Priority::Low),
            (2, Priority::Low),
            (3, Priority::Normal),
            (4, Priority::High),
        ] {
            assert!(matches!(q.try_admit(job(id, p)), Admit::Queued { .. }));
        }
        let first: Vec<u64> = q
            .shed_lowest_class(Priority::High)
            .iter()
            .map(|j| j.id)
            .collect();
        assert_eq!(first, vec![1, 2], "first pass sheds the Low ring only");
        let second: Vec<u64> = q
            .shed_lowest_class(Priority::High)
            .iter()
            .map(|j| j.id)
            .collect();
        assert_eq!(second, vec![3], "second pass reaches Normal");
        assert!(
            q.shed_lowest_class(Priority::High).is_empty(),
            "High is never shed"
        );
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn remove_targets_one_job_and_resume_bypasses_capacity() {
        let q = AdmissionQueue::new(1);
        assert!(matches!(
            q.try_admit(job(1, Priority::Normal)),
            Admit::Queued { .. }
        ));
        assert!(matches!(q.try_admit(job(2, Priority::Normal)), Admit::Full));
        q.push_resumed(job(7, Priority::Normal)); // acknowledged last life
        assert_eq!(q.depth(), 2, "resume overrides the bound");
        assert_eq!(q.remove(1).map(|j| j.id), Some(1));
        assert_eq!(q.remove(1).map(|j| j.id), None);
        assert_eq!(pop_now(&q), Some(7));
    }

    #[test]
    fn pop_blocks_until_work_or_stop() {
        let q = std::sync::Arc::new(AdmissionQueue::new(4));
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let draining = std::sync::Arc::new(AtomicBool::new(false));
        let handle = {
            let (q, stop, draining) = (q.clone(), stop.clone(), draining.clone());
            std::thread::spawn(move || q.pop(&stop, &draining).map(|j| j.id))
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(matches!(
            q.try_admit(job(9, Priority::Normal)),
            Admit::Queued { .. }
        ));
        assert_eq!(handle.join().unwrap(), Some(9));
        // stop_now returns None even with work queued (parking).
        assert!(matches!(
            q.try_admit(job(10, Priority::Normal)),
            Admit::Queued { .. }
        ));
        stop.store(true, Ordering::Release);
        q.wake_all();
        assert_eq!(q.pop(&stop, &draining), None);
        assert_eq!(q.depth(), 1, "parked job stays queued");
    }
}
