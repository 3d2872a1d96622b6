//! The warm-path kill switch.
//!
//! The one warm path left is the built-app slot behind
//! `GenericAppSpec::build`: a study row builds the same spec eight times
//! back to back, and the slot shares one immutable app core (spec and
//! resource table) between those builds. [`enabled`] gates it.
//!
//! # Kill switch
//!
//! [`set_enabled`]`(false)` (the `--no-memo` flag on every harness) or the
//! `DROIDSIM_NO_MEMO` environment variable makes every build cold. A
//! shared core is bit-identical to a fresh one — that is the `memo ≡
//! cold` invariant the memo-parity suite asserts — so flipping the switch
//! while fleets run only changes where results come from, never what
//! they are.
//!
//! # Examples
//!
//! ```
//! use droidsim_kernel::memo;
//!
//! let was = memo::enabled();
//! memo::set_enabled(false);
//! assert!(!memo::enabled());
//! memo::set_enabled(was);
//! assert!(memo::snapshot_all().is_empty(), "no cache keeps counters");
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

fn enabled_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| AtomicBool::new(std::env::var_os("DROIDSIM_NO_MEMO").is_none()))
}

/// Whether the warm path is live. Defaults to `true` unless the
/// `DROIDSIM_NO_MEMO` environment variable is set.
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Turns the warm path on or off process-wide (the `--no-memo` kill
/// switch). Safe to flip at any time: warm results are bit-identical to
/// cold ones, so concurrent fleets observe no behavioural difference.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// One cache's counters at a point in time.
///
/// No cache is left to report: this type stays only because the
/// benchmark package (`perfbench/`) compiles against it, and goes when
/// that package stops reading memo counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoSnapshot {
    /// Cache name.
    pub name: &'static str,
    /// Probes answered from a cached entry.
    pub hits: u64,
    /// Probes that fell through to the cold path.
    pub misses: u64,
    /// Entries dropped.
    pub evictions: u64,
}

/// Counters of every memo cache: always empty, since none is left.
/// Kept only because the benchmark package (`perfbench/`) calls it.
pub fn snapshot_all() -> Vec<MemoSnapshot> {
    Vec::new()
}

/// Invalidates every memo cache: a no-op, since none is left. Kept only
/// because the benchmark package (`perfbench/`) calls it before each
/// pass.
pub fn invalidate_all() {}
