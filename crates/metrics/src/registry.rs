//! One declaration per metrics ledger.
//!
//! Every ledger in this crate makes the same four decisions for each of
//! its entries: how two readings fold into one, whether the entry
//! enters the deterministic fingerprint, how it is exported as a
//! `(key, value)` pair, and how it is displayed. The decisions that
//! follow from an entry's *type* — folding and rendering — live in the
//! [`Entry`] trait. The one that follows from what the entry
//! *measures* is its class in the ledger's declaration:
//!
//! * `det` — deterministic: a function of the simulated inputs alone,
//!   bit-identical between serial and parallel runs of the same seeds.
//!   Only `det` entries enter `deterministic_fingerprint`.
//! * `diag` — diagnostic: host wall clock, allocation counts, job
//!   scheduling, fault or client timing. Exported and displayed, never
//!   fingerprinted.
//!
//! A declaration generates `new`, `merge`, `deterministic_fingerprint`,
//! `kv_fields`, [`Entry`] (so ledgers nest) and `Display`. Every
//! rendering has the form `tag[name=value …]`, entries in declaration
//! order; a nested ledger or histogram renders its value as `[…]`.

use std::collections::BTreeMap;

use crate::stats::Histogram;

/// A ledger entry: its type decides how two readings fold and how one
/// renders.
pub trait Entry {
    /// Folds another reading of the same entry into this one.
    fn fold(&mut self, other: &Self);

    /// The value as it appears after `name=` in every rendering.
    fn render(&self) -> String;

    /// The value's deterministic part. Only a nested ledger differs from
    /// [`Entry::render`]: it keeps just its own `det` entries.
    fn render_det(&self) -> String {
        self.render()
    }
}

/// A counter: readings add.
impl Entry for u64 {
    fn fold(&mut self, other: &Self) {
        *self += other;
    }

    fn render(&self) -> String {
        self.to_string()
    }
}

/// A distribution: samples merge.
impl Entry for Histogram {
    fn fold(&mut self, other: &Self) {
        self.merge(other);
    }

    fn render(&self) -> String {
        format!("[{self}]")
    }
}

/// Counters keyed by name: readings add per key.
impl Entry for BTreeMap<String, u64> {
    fn fold(&mut self, other: &Self) {
        for (key, n) in other {
            *self.entry(key.clone()).or_insert(0) += n;
        }
    }

    fn render(&self) -> String {
        format!("{self:?}")
    }
}

/// The largest reading ever observed: folding keeps the maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HighWater(pub u64);

impl Entry for HighWater {
    fn fold(&mut self, other: &Self) {
        self.0 = self.0.max(other.0);
    }

    fn render(&self) -> String {
        self.0.to_string()
    }
}

/// A live reading, such as a queue depth: folding keeps this ledger's
/// own reading, because another ledger's is not current here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge(pub u64);

impl Entry for Gauge {
    fn fold(&mut self, _other: &Self) {}

    fn render(&self) -> String {
        self.0.to_string()
    }
}

/// `[name=value …]` over `(name, value)` pairs.
pub(crate) fn bracket(pairs: &[(&'static str, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("[{}]", body.join(" "))
}

/// Declares a ledger: a struct whose entries are each marked `det` or
/// `diag` (see the module docs), rendered under `tag`.
///
/// ```text
/// ledger! {
///     /// Docs for the struct.
///     pub struct Example as "example" {
///         /// Docs for the entry.
///         pub det runs: u64,
///         pub diag latency_ms: Histogram,
///     }
/// }
/// ```
macro_rules! ledger {
    (
        $(#[$meta:meta])*
        pub struct $name:ident as $tag:literal {
            $(
                $(#[$entry_meta:meta])*
                $vis:vis $class:ident $entry:ident: $ty:ty,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $name {
            $($(#[$entry_meta])* $vis $entry: $ty,)*
        }

        impl $name {
            /// A fresh ledger: every entry zero.
            pub fn new() -> Self {
                Self::default()
            }

            /// Folds another ledger into this one, entry by entry.
            pub fn merge(&mut self, other: &Self) {
                $($crate::registry::Entry::fold(&mut self.$entry, &other.$entry);)*
            }

            /// `tag[name=value …]` over the `det` entries only: the part
            /// of the ledger that serial and parallel runs of the same
            /// inputs must agree on bit for bit.
            pub fn deterministic_fingerprint(&self) -> String {
                format!("{}{}", $tag, $crate::registry::Entry::render_det(self))
            }

            /// Every entry, `det` and `diag`, as a `(name, value)` pair
            /// in declaration order.
            pub fn kv_fields(&self) -> Vec<(&'static str, String)> {
                vec![$((stringify!($entry), $crate::registry::Entry::render(&self.$entry)),)*]
            }
        }

        impl $crate::registry::Entry for $name {
            fn fold(&mut self, other: &Self) {
                self.merge(other);
            }

            fn render(&self) -> String {
                $crate::registry::bracket(&self.kv_fields())
            }

            fn render_det(&self) -> String {
                let pairs: Vec<(&'static str, String)> =
                    [$($crate::registry::ledger!(@det $class, self.$entry)),*]
                        .into_iter()
                        .flatten()
                        .collect();
                $crate::registry::bracket(&pairs)
            }
        }

        impl ::core::fmt::Display for $name {
            fn fmt(&self, f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {
                write!(f, "{}{}", $tag, $crate::registry::Entry::render(self))
            }
        }
    };
    (@det det, $self:ident . $entry:ident) => {
        Some((stringify!($entry), $crate::registry::Entry::render_det(&$self.$entry)))
    };
    (@det diag, $self:ident . $entry:ident) => {
        None
    };
}

pub(crate) use ledger;

#[cfg(test)]
mod tests {
    use super::*;

    ledger! {
        /// A two-level test ledger.
        pub struct Inner as "inner" {
            pub det count: u64,
            pub diag latency_ms: Histogram,
        }
    }

    ledger! {
        /// Exercises every entry type.
        pub struct Outer as "outer" {
            pub det inner: Inner,
            pub det by_key: BTreeMap<String, u64>,
            pub diag high: HighWater,
            pub diag live: Gauge,
        }
    }

    fn sample(count: u64, latency: f64, key: &str, reading: u64) -> Outer {
        let mut o = Outer::new();
        o.inner = Inner::new();
        o.inner.count = count;
        o.inner.latency_ms.record(latency);
        o.by_key.insert(key.to_owned(), 1);
        o.high = HighWater(reading);
        o.live = Gauge(reading);
        o
    }

    #[test]
    fn each_type_folds_by_its_own_rule() {
        let mut a = sample(2, 1.0, "x", 5);
        a.merge(&sample(3, 9.0, "x", 7));
        a.merge(&sample(0, 4.0, "y", 1));
        assert_eq!(a.inner.count, 5, "u64 adds");
        assert_eq!(a.inner.latency_ms.count(), 3, "histogram merges");
        assert_eq!(a.by_key["x"], 2, "map adds per key");
        assert_eq!(a.by_key["y"], 1);
        assert_eq!(a.high, HighWater(7), "high water keeps the max");
        assert_eq!(a.live, Gauge(5), "gauge keeps its own reading");
    }

    #[test]
    fn fingerprint_keeps_det_entries_at_every_level() {
        let a = sample(2, 1.0, "x", 5);
        let b = sample(2, 800.0, "x", 9);
        assert_ne!(a.to_string(), b.to_string());
        assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        assert_eq!(
            a.deterministic_fingerprint(),
            r#"outer[inner=[count=2] by_key={"x": 1}]"#
        );
        assert_eq!(a.inner.deterministic_fingerprint(), "inner[count=2]");
        let c = sample(3, 1.0, "x", 5);
        assert_ne!(a.deterministic_fingerprint(), c.deterministic_fingerprint());
    }

    #[test]
    fn display_and_kv_fields_cover_every_entry() {
        let o = sample(1, 2.0, "k", 4);
        let line = o.to_string();
        assert!(
            line.starts_with("outer[inner=[count=1 latency_ms=[n=1 "),
            "got {line}"
        );
        assert!(
            line.ends_with(r#"by_key={"k": 1} high=4 live=4]"#),
            "got {line}"
        );
        let keys: Vec<&str> = o.kv_fields().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["inner", "by_key", "high", "live"]);
    }
}
