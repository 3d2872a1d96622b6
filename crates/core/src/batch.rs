//! Batched lazy migration: flush policy and coalescing dirty queue.
//!
//! The paper's lazy migration (§3.3) copies essence on *every* drained
//! `invalidate()`. For chatty async callbacks — a progress bar ticking
//! dozens of times between frames — most of those copies are overwritten
//! before anyone sees them. The batched fast path keeps the interception
//! point but defers the copy:
//!
//! 1. every drained invalidation lands in a [`DirtyQueue`] entry keyed by
//!    view id; repeat invalidations of a queued view OR their
//!    [`DirtyMask`]s into the existing entry (last-write-wins per
//!    attribute, since the essence copy always reads the *current* shadow
//!    attributes) and move it to the back of the queue,
//! 2. the queue drains as one batch when the [`FlushPolicy`] fires —
//!    either the coalesced entry count reached `max_pending` or the
//!    oldest entry has waited `max_delay` of virtual time,
//! 3. at flush, each entry's shadow→sunny peer is resolved through the
//!    shadow view's sunny-peer pointer — the same essence mapping the
//!    eager path reads.
//!
//! [`FlushPolicy::Eager`] (the default) queues and immediately flushes
//! every delivery, which is bit-for-bit the paper's behaviour — batching
//! is strictly opt-in.

use droidsim_kernel::{EventQueue, SimDuration, SimTime};
use droidsim_view::{DirtyMask, ViewId};
use std::collections::HashMap;

/// When queued invalidations are migrated to the sunny tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Flush on every async delivery — the paper's per-`invalidate()`
    /// behaviour. The default.
    #[default]
    Eager,
    /// Coalesce deliveries and flush when either trigger fires.
    Batched {
        /// Flush once this many *coalesced* entries are pending.
        max_pending: usize,
        /// Flush once the oldest pending entry has waited this long in
        /// virtual time. [`SimDuration::ZERO`] means "every delivery",
        /// degenerating to eager behaviour with queue bookkeeping.
        max_delay: SimDuration,
    },
}

impl FlushPolicy {
    /// A batched policy. `max_pending` of 0 is clamped to 1 (a queue that
    /// never fires on count would only flush on deadline).
    pub fn batched(max_pending: usize, max_delay: SimDuration) -> FlushPolicy {
        FlushPolicy::Batched {
            max_pending: max_pending.max(1),
            max_delay,
        }
    }

    /// Whether this is the paper's eager policy.
    pub fn is_eager(&self) -> bool {
        matches!(self, FlushPolicy::Eager)
    }
}

/// One coalesced pending migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyEntry {
    /// The invalidated shadow view.
    pub view: ViewId,
    /// Union of the attributes dirtied since the entry was created.
    pub mask: DirtyMask,
    /// Raw invalidations absorbed into this entry.
    pub raw: usize,
    /// When the entry was created (starts the `max_delay` clock).
    pub first_enqueued_at: SimTime,
}

/// A coalescing queue of pending migrations.
///
/// Entries drain in last-invalidation order: re-invalidating a queued
/// view updates its entry and moves it to the back. That is the order in
/// which eager migration last copies each view, so when several shadow
/// views share one sunny peer (a repeated id name) a batched flush leaves
/// the peer exactly as eager migration would. Deadlines ride on the
/// kernel's deterministic [`EventQueue`] (one event per *entry*,
/// scheduled at its creation time), so "oldest pending entry" is a
/// `peek`, not a scan.
#[derive(Debug, Clone, Default)]
pub struct DirtyQueue {
    /// Drain order, one slot per enqueue that created or moved an entry;
    /// a moved entry's older slot is vacated.
    order: Vec<Option<ViewId>>,
    /// Each pending entry with the index of its live slot in `order`.
    entries: HashMap<ViewId, (usize, DirtyEntry)>,
    deadlines: EventQueue<ViewId>,
}

impl DirtyQueue {
    /// An empty queue.
    pub fn new() -> DirtyQueue {
        DirtyQueue::default()
    }

    /// Records one drained invalidation. Returns `true` if it coalesced
    /// into an existing entry (no new migration work was added).
    pub fn enqueue(&mut self, view: ViewId, mask: DirtyMask, raw: usize, now: SimTime) -> bool {
        let slot = self.order.len();
        self.order.push(Some(view));
        if let Some((at, entry)) = self.entries.get_mut(&view) {
            entry.mask |= mask;
            entry.raw += raw;
            self.order[*at] = None;
            *at = slot;
            true
        } else {
            self.entries.insert(
                view,
                (
                    slot,
                    DirtyEntry {
                        view,
                        mask,
                        raw,
                        first_enqueued_at: now,
                    },
                ),
            );
            self.deadlines.schedule(now, view);
            false
        }
    }

    /// Coalesced entries pending.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Raw invalidations absorbed since the last drain.
    pub fn raw_pending(&self) -> usize {
        self.entries.values().map(|(_, e)| e.raw).sum()
    }

    /// Creation time of the oldest pending entry.
    pub fn oldest_enqueued_at(&self) -> Option<SimTime> {
        self.deadlines.peek_time()
    }

    /// Whether the oldest pending entry has waited at least `max_delay`.
    pub fn deadline_due(&self, now: SimTime, max_delay: SimDuration) -> bool {
        self.oldest_enqueued_at()
            .is_some_and(|first| now.saturating_since(first) >= max_delay)
    }

    /// Drains every pending entry in last-invalidation order.
    pub fn drain(&mut self) -> Vec<DirtyEntry> {
        droidsim_kernel::alloc_track::note(1);
        let mut drained = Vec::with_capacity(self.entries.len());
        self.drain_into(&mut drained);
        drained
    }

    /// Drains every pending entry in last-invalidation order into `out`,
    /// reusing its capacity. The engine's flush path threads one scratch
    /// buffer through every flush instead of allocating a fresh `Vec`.
    pub fn drain_into(&mut self, out: &mut Vec<DirtyEntry>) {
        // Order and entries stay in sync by construction; a desynced view
        // is silently skipped rather than panicking the handling path.
        out.extend(
            self.order
                .drain(..)
                .flatten()
                .filter_map(|view| self.entries.remove(&view).map(|(_, e)| e)),
        );
        self.deadlines.clear();
    }

    /// Drops all pending entries (used when a coupling is torn down).
    pub fn clear(&mut self) {
        self.order.clear();
        self.entries.clear();
        self.deadlines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(raw: u64) -> ViewId {
        ViewId::new(raw)
    }

    #[test]
    fn default_policy_is_eager() {
        assert!(FlushPolicy::default().is_eager());
        assert!(!FlushPolicy::batched(4, SimDuration::ZERO).is_eager());
    }

    #[test]
    fn batched_clamps_zero_max_pending() {
        let FlushPolicy::Batched { max_pending, .. } =
            FlushPolicy::batched(0, SimDuration::from_millis(1))
        else {
            panic!("batched() builds Batched")
        };
        assert_eq!(max_pending, 1);
    }

    #[test]
    fn queue_coalesces_repeat_invalidations() {
        let mut q = DirtyQueue::new();
        let t0 = SimTime::from_millis(10);
        assert!(!q.enqueue(v(1), DirtyMask::TEXT, 1, t0));
        assert!(!q.enqueue(v(2), DirtyMask::PROGRESS, 1, t0));
        // Re-invalidation coalesces: mask ORs, raw accumulates,
        // first_enqueued_at stays put and the entry moves to the back.
        assert!(q.enqueue(v(1), DirtyMask::SCROLL, 2, SimTime::from_millis(30)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.raw_pending(), 4);
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].view, v(2));
        assert_eq!(drained[1].view, v(1));
        assert_eq!(drained[1].mask, DirtyMask::TEXT | DirtyMask::SCROLL);
        assert_eq!(drained[1].raw, 3);
        assert_eq!(drained[1].first_enqueued_at, t0);
        assert!(q.is_empty());
    }

    #[test]
    fn deadline_tracks_the_oldest_entry() {
        let mut q = DirtyQueue::new();
        let delay = SimDuration::from_millis(16);
        assert!(!q.deadline_due(SimTime::from_secs(99), delay), "empty");
        q.enqueue(v(1), DirtyMask::TEXT, 1, SimTime::from_millis(10));
        q.enqueue(v(2), DirtyMask::TEXT, 1, SimTime::from_millis(20));
        assert_eq!(q.oldest_enqueued_at(), Some(SimTime::from_millis(10)));
        assert!(!q.deadline_due(SimTime::from_millis(25), delay));
        assert!(q.deadline_due(SimTime::from_millis(26), delay));
        q.drain();
        assert_eq!(q.oldest_enqueued_at(), None);
    }
}
