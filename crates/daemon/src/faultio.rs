//! The daemon edge's injectable I/O fault shim.
//!
//! Every I/O the daemon's durability and protocol layers perform —
//! journal record writes, journal fsyncs, socket reads, socket writes —
//! funnels through one shared [`IoFaults`] handle before touching the
//! kernel. The handle wraps a seeded [`FaultPlan`], so a chaos run is
//! a *schedule*, not a dice roll: the same seed replays the same
//! `ENOSPC` at the same record, the same reset on the same connection.
//!
//! The shim decides *that* a fault strikes; the call sites decide what
//! it means. Its journal hooks implement the kernel's
//! [`LogFaults`], so the daemon journal's
//! [`AppendLog`](droidsim_kernel::journal::AppendLog) consults the
//! schedule on every append; the write hook additionally picks the
//! flavor — a clean `ENOSPC` before any byte lands, or a short write
//! that tears the record mid-line — alternating deterministically so
//! both repair paths stay exercised.
//!
//! A disarmed shim ([`IoFaults::disarmed`], the default everywhere) is
//! a no-op: the production daemon pays one mutex lock per probe only
//! when a plan is armed, and nothing at all changes about the I/O.

use std::io;
use std::sync::{Arc, Mutex};

use droidsim_faults::{FaultPlan, FaultSite};
use droidsim_kernel::journal::LogFaults;
pub use droidsim_kernel::journal::WriteFault;
use droidsim_kernel::lock_unpoisoned;

/// Shared, cloneable handle to the daemon edge's fault schedule (see
/// module docs). Clones share the same underlying plan, so the journal
/// and the socket server consume one deterministic schedule between
/// them.
#[derive(Debug, Clone, Default)]
pub struct IoFaults {
    plan: Arc<Mutex<FaultPlan>>,
}

impl IoFaults {
    /// A shim that never injects — the production configuration.
    pub fn disarmed() -> IoFaults {
        IoFaults::default()
    }

    /// A shim driven by `plan` (arm sites with
    /// [`FaultPlan::with_rate`] / [`FaultPlan::on_nth_probe`] first).
    pub fn new(plan: FaultPlan) -> IoFaults {
        IoFaults {
            plan: Arc::new(Mutex::new(plan)),
        }
    }

    /// Swaps the schedule at runtime — how a chaos harness opens and
    /// closes fault windows (e.g. an `ENOSPC` window that later
    /// clears) without rebuilding the daemon.
    pub fn set_plan(&self, plan: FaultPlan) {
        *lock_unpoisoned(&self.plan) = plan;
    }

    /// Whether any site can ever inject.
    pub fn is_armed(&self) -> bool {
        lock_unpoisoned(&self.plan).is_armed()
    }

    /// One probe at `site` (counts even when disarmed, so forced
    /// indices stay aligned with the probe sequence).
    pub fn should_inject(&self, site: FaultSite) -> bool {
        lock_unpoisoned(&self.plan).should_inject(site)
    }

    /// Injections recorded at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        lock_unpoisoned(&self.plan).injected(site)
    }

    /// Probes recorded at `site` so far.
    pub fn probes(&self, site: FaultSite) -> u64 {
        lock_unpoisoned(&self.plan).probes(site)
    }
}

impl LogFaults for IoFaults {
    /// Probes [`FaultSite::JournalWrite`]; on a hit, picks the flavor
    /// by alternating on the site's injection count so ENOSPC and
    /// short-write repairs are both replayed deterministically.
    fn write_fault(&self) -> Option<WriteFault> {
        let mut plan = lock_unpoisoned(&self.plan);
        if !plan.should_inject(FaultSite::JournalWrite) {
            return None;
        }
        if plan.injected(FaultSite::JournalWrite) % 2 == 1 {
            Some(WriteFault::Enospc)
        } else {
            Some(WriteFault::Short)
        }
    }

    /// Probes [`FaultSite::JournalSync`], returning the injected fsync
    /// error on a hit.
    fn sync_fault(&self) -> Option<io::Error> {
        self.should_inject(FaultSite::JournalSync)
            .then(|| io::Error::other("injected fsync failure"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_shim_never_injects() {
        let io = IoFaults::disarmed();
        assert!(!io.is_armed());
        for _ in 0..100 {
            assert_eq!(io.write_fault(), None);
            assert!(io.sync_fault().is_none());
            assert!(!io.should_inject(FaultSite::SocketRead));
            assert!(!io.should_inject(FaultSite::SocketWrite));
        }
    }

    #[test]
    fn clones_share_one_schedule() {
        let io = IoFaults::new(
            FaultPlan::seeded(5)
                .on_nth_probe(FaultSite::JournalWrite, 1)
                .on_nth_probe(FaultSite::JournalWrite, 2),
        );
        let clone = io.clone();
        // The clone's probe consumes the shared schedule's first forced
        // index; the original sees the second.
        assert!(clone.write_fault().is_some());
        assert!(io.write_fault().is_some());
        assert_eq!(io.write_fault(), None, "schedule is shared");
        assert_eq!(io.probes(FaultSite::JournalWrite), 3);
        assert_eq!(io.injected(FaultSite::JournalWrite), 2);
    }

    #[test]
    fn write_fault_flavors_alternate_deterministically() {
        let io = IoFaults::new(FaultPlan::seeded(1).with_rate(FaultSite::JournalWrite, 1.0));
        let flavors: Vec<WriteFault> = (0..4).filter_map(|_| io.write_fault()).collect();
        assert_eq!(
            flavors,
            [
                WriteFault::Enospc,
                WriteFault::Short,
                WriteFault::Enospc,
                WriteFault::Short
            ]
        );
    }

    #[test]
    fn set_plan_opens_and_closes_windows() {
        let io = IoFaults::disarmed();
        assert_eq!(io.write_fault(), None);
        io.set_plan(FaultPlan::seeded(2).with_rate(FaultSite::JournalWrite, 1.0));
        assert!(io.is_armed());
        assert!(io.write_fault().is_some());
        io.set_plan(FaultPlan::disarmed());
        assert_eq!(io.write_fault(), None, "window closed");
    }
}
