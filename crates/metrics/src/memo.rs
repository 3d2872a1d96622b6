//! The warm-path memoization ledger.
//!
//! [`kernel::memo`](droidsim_kernel::memo) keeps two content-addressed
//! caches hot across a whole fleet run (and a whole daemon lifetime):
//! resolved resource views and inflated templates. This
//! ledger is the operator-facing view of those caches — per-cache hits,
//! misses, evictions, resident entries and approximate resident bytes —
//! captured with [`MemoLedger::capture`] from the process-wide registry.
//!
//! Hit/miss counts depend on job scheduling (which worker saw a shape
//! first decides who pays the miss), so like wall-clock histograms and
//! `alloc_events` this ledger is **fingerprint-excluded telemetry**: it
//! never participates in any deterministic fingerprint, and the memo ≡
//! cold gates assert exactly that the *digests* stay identical while
//! these counters swing.

use droidsim_kernel::memo::{self, MemoSnapshot};

/// Point-in-time snapshot of every registered memo cache, name-sorted.
///
/// Scheduling-dependent telemetry — never enters a deterministic
/// fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoLedger {
    /// One entry per registered cache, sorted by name.
    pub caches: Vec<MemoSnapshot>,
}

impl MemoLedger {
    /// Captures the current counters of every cache registered with
    /// `droidsim_kernel::memo`. Caches register lazily on first use, so
    /// an early capture may see fewer caches than a later one.
    pub fn capture() -> MemoLedger {
        MemoLedger {
            caches: memo::snapshot_all(),
        }
    }

    /// The `stats`-endpoint fields as `(key, value)` pairs: aggregate
    /// totals first, then one packed `hits/misses/evictions/entries`
    /// field per cache. Keys are `'static` to match the daemon's kv-line
    /// contract, so per-cache fields use the fixed names of the two
    /// warm-path caches; an unknown cache folds into the totals only.
    pub fn kv_fields(&self) -> Vec<(&'static str, String)> {
        let sum = |field: fn(&MemoSnapshot) -> u64| -> String {
            self.caches.iter().map(field).sum::<u64>().to_string()
        };
        let mut out = vec![
            ("memo_hits", sum(|c| c.hits)),
            ("memo_misses", sum(|c| c.misses)),
            ("memo_evictions", sum(|c| c.evictions)),
            ("memo_bytes", sum(|c| c.bytes)),
        ];
        for cache in &self.caches {
            let key = match cache.name {
                "resolve" => "memo_resolve",
                "inflate" => "memo_inflate",
                _ => continue,
            };
            out.push((
                key,
                format!(
                    "{}/{}/{}/{}",
                    cache.hits, cache.misses, cache.evictions, cache.entries
                ),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(name: &'static str, counts: [u64; 5]) -> MemoSnapshot {
        let [hits, misses, evictions, entries, bytes] = counts;
        MemoSnapshot {
            name,
            hits,
            misses,
            evictions,
            entries,
            bytes,
        }
    }

    fn sample() -> MemoLedger {
        MemoLedger {
            caches: vec![
                cache("inflate", [30, 10, 2, 8, 4096]),
                cache("resolve", [65, 15, 1, 14, 2048]),
            ],
        }
    }

    #[test]
    fn kv_fields_pack_totals_then_per_cache() {
        let l = sample();
        let kv = l.kv_fields();
        let find = |key: &str| kv.iter().find(|(k, _)| *k == key).unwrap().1.clone();
        assert_eq!(find("memo_hits"), "95");
        assert_eq!(find("memo_misses"), "25");
        assert_eq!(find("memo_evictions"), "3");
        assert_eq!(find("memo_bytes"), "6144");
        assert_eq!(find("memo_inflate"), "30/10/2/8");
        assert_eq!(find("memo_resolve"), "65/15/1/14");
    }

    #[test]
    fn unknown_cache_folds_into_totals_only() {
        let l = MemoLedger {
            caches: vec![cache("mystery", [7, 3, 0, 0, 0])],
        };
        let kv = l.kv_fields();
        assert!(kv.iter().any(|(k, v)| *k == "memo_hits" && v == "7"));
        assert!(!kv.iter().any(|(k, _)| k.starts_with("memo_mystery")));
    }

    #[test]
    fn capture_reflects_registered_caches_sorted() {
        // No caches may be registered yet in this test process; either
        // way capture() must not panic and must come back name-sorted.
        let l = MemoLedger::capture();
        let names: Vec<&str> = l.caches.iter().map(|c| c.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
