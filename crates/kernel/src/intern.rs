//! Global interning of `android:id` names.
//!
//! Essence mapping keys views by their `android:id` *name*. Carrying those
//! names as owned `String`s means every coupling pass and every
//! hierarchy-state save clones and hashes variable-length text on the hot
//! path. This module interns each distinct name once, for the lifetime of
//! the process, and hands out a [`Symbol`] — a `Copy` `u32` that compares
//! and hashes in one instruction and resolves back to its text in O(1).
//!
//! # Sharded, read-mostly layout
//!
//! The table used to be a single `RwLock<Table>`; with 8 fleet workers all
//! resolving symbols on every hierarchy-state save, even the uncontended
//! read lock showed up as cross-core cache-line traffic. The current
//! design splits the *name → index* direction into `SHARD_COUNT` shards
//! keyed by an FNV-1a hash of the name, each behind its own `RwLock`, so
//! two workers interning or probing different names almost never touch the
//! same lock. The *index → text* direction ([`Symbol::as_str`],
//! [`Symbol::hierarchy_key`]) takes **no lock at all**: resolved entries
//! live in an append-only chunked arena of `OnceLock` slots, published
//! before the owning index escapes the interner, so a resolve is two
//! atomic loads and an index computation.
//!
//! Two properties matter for the simulator:
//!
//! * **Stability** — a symbol, once issued, resolves to the same string for
//!   the rest of the process. Interned text is leaked (id names are a small
//!   closed set per app; the table is bounded in practice).
//! * **Determinism** — the *numeric value* of a symbol depends on interning
//!   order, which may differ between serial and parallel fleet runs. No
//!   observable output may therefore depend on symbol values; everything
//!   user-visible goes through [`Symbol::as_str`]. The view-tree index and
//!   peer maps only use symbols as opaque hash keys, which is safe.
//!
//! # Examples
//!
//! ```
//! use droidsim_kernel::Symbol;
//!
//! let a = Symbol::intern("btnSend");
//! let b = Symbol::intern("btnSend");
//! assert_eq!(a, b);
//! assert_eq!(a.as_str(), "btnSend");
//! assert_eq!(a.hierarchy_key(), "view:btnSend");
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{OnceLock, RwLock};

/// An interned `android:id` name: a `Copy` handle into the process-wide
/// symbol table.
///
/// Equality, ordering, and hashing all operate on the `u32` index, so a
/// `Symbol` key is as cheap as an integer. Use [`Symbol::as_str`] to get
/// the text back and [`Symbol::hierarchy_key`] for the precomputed
/// `view:{name}` bundle key used by hierarchy-state save/restore.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// Number of name→index shards. A power of two so shard selection is a
/// mask; 16 is comfortably above any worker count the fleet driver runs.
const SHARD_COUNT: usize = 16;

/// Number of geometric arena chunks. Chunk `c` holds `FIRST_CHUNK << c`
/// slots, so 22 chunks cover `64 · (2²² − 1)` ≈ 268M symbols — far beyond
/// the bounded id-name population of any app corpus.
const CHUNK_COUNT: usize = 22;

/// Capacity of the first arena chunk.
const FIRST_CHUNK: usize = 64;

/// One resolved symbol: the leaked name plus its precomputed
/// `view:{name}` hierarchy-state key, stored together so a resolve never
/// formats or copies.
struct Slot {
    name: &'static str,
    hierarchy_key: &'static str,
}

/// The process-wide interner: sharded name→index maps plus the lock-free
/// index→slot arena. Names are leaked to `&'static str` so resolving a
/// symbol never copies; the table only grows.
struct Interner {
    /// Name → index, split by FNV-1a hash of the name.
    shards: [RwLock<HashMap<&'static str, u32>>; SHARD_COUNT],
    /// Next unissued symbol index, claimed under a shard write lock.
    next: AtomicU32,
    /// Append-only chunked slot storage; each chunk materialises on first
    /// use and each slot is written exactly once, before its index
    /// escapes [`Symbol::intern`].
    chunks: [OnceLock<Box<[OnceLock<Slot>]>>; CHUNK_COUNT],
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        next: AtomicU32::new(0),
        chunks: std::array::from_fn(|_| OnceLock::new()),
    })
}

/// FNV-1a over the name bytes, reduced to a shard number. Uses the same
/// constants as the fleet digest so the distribution is already proven on
/// this corpus.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) & (SHARD_COUNT - 1)
}

/// Maps a symbol index to its `(chunk, offset)` coordinates in the
/// geometric arena. Chunk `c` starts at index `FIRST_CHUNK · (2ᶜ − 1)`.
fn locate(index: u32) -> (usize, usize) {
    let q = index as usize / FIRST_CHUNK;
    let chunk = (usize::BITS - (q + 1).leading_zeros() - 1) as usize;
    assert!(chunk < CHUNK_COUNT, "symbol table overflow");
    let base = FIRST_CHUNK * ((1usize << chunk) - 1);
    (chunk, index as usize - base)
}

impl Interner {
    /// Publishes `slot` at `index`. Called while holding the owning
    /// shard's write lock, before the index is inserted into the map, so
    /// every index observable through `intern`/`lookup` is resolvable.
    fn publish(&self, index: u32, slot: Slot) {
        let (c, off) = locate(index);
        let chunk = self.chunks[c].get_or_init(|| {
            (0..FIRST_CHUNK << c)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        assert!(
            chunk[off].set(slot).is_ok(),
            "symbol slot {index} published twice"
        );
    }

    /// Lock-free resolve: two atomic loads (chunk pointer, slot) plus the
    /// coordinate computation.
    fn resolve(&self, index: u32) -> &Slot {
        let (c, off) = locate(index);
        self.chunks[c]
            .get()
            .and_then(|chunk| chunk[off].get())
            .expect("symbol index was never issued")
    }
}

impl Symbol {
    /// Interns `name`, returning the existing symbol if the name was seen
    /// before. Only the shard owning `name`'s hash is locked; interning
    /// distinct names on distinct workers proceeds without contention.
    pub fn intern(name: &str) -> Symbol {
        let it = interner();
        let shard = &it.shards[shard_of(name)];
        if let Some(&idx) = shard.read().unwrap().get(name) {
            return Symbol(idx);
        }
        let mut map = shard.write().unwrap();
        // Double-checked: another thread may have interned between our
        // read probe and taking the write lock.
        if let Some(&idx) = map.get(name) {
            return Symbol(idx);
        }
        let idx = it.next.fetch_add(1, Ordering::Relaxed);
        assert!(idx != u32::MAX, "symbol table overflow");
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let key: &'static str = Box::leak(format!("view:{name}").into_boxed_str());
        it.publish(
            idx,
            Slot {
                name: leaked,
                hierarchy_key: key,
            },
        );
        map.insert(leaked, idx);
        Symbol(idx)
    }

    /// Returns the symbol for `name` if it has already been interned,
    /// without growing the table. Useful for probe-style lookups
    /// (`find_by_id_name`) where an unknown name simply means "no match".
    pub fn lookup(name: &str) -> Option<Symbol> {
        interner().shards[shard_of(name)]
            .read()
            .unwrap()
            .get(name)
            .copied()
            .map(Symbol)
    }

    /// The interned text. Lock-free: resolves through the append-only
    /// slot arena without touching any shard lock.
    pub fn as_str(self) -> &'static str {
        interner().resolve(self.0).name
    }

    /// The precomputed `view:{name}` key used for hierarchy-state
    /// bundles. Lock-free, like [`Symbol::as_str`].
    pub fn hierarchy_key(self) -> &'static str {
        interner().resolve(self.0).hierarchy_key
    }

    /// The raw table index. Only for diagnostics — the value depends on
    /// interning order and must never reach deterministic output.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Symbol {
        Symbol::intern(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("idempotent-check");
        let b = Symbol::intern("idempotent-check");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn round_trips_text() {
        let s = Symbol::intern("btnConfirm");
        assert_eq!(s.as_str(), "btnConfirm");
        assert_eq!(s.to_string(), "btnConfirm");
    }

    #[test]
    fn hierarchy_key_is_prefixed() {
        let s = Symbol::intern("listMessages");
        assert_eq!(s.hierarchy_key(), "view:listMessages");
    }

    #[test]
    fn lookup_does_not_grow_the_table() {
        assert_eq!(Symbol::lookup("never-interned-name-xyzzy"), None);
        assert_eq!(Symbol::lookup("never-interned-name-xyzzy"), None);
        let s = Symbol::intern("never-interned-name-xyzzy");
        assert_eq!(Symbol::lookup("never-interned-name-xyzzy"), Some(s));
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::intern("alpha"), Symbol::intern("beta"));
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        // Chunk 0 holds [0, 64), chunk 1 holds [64, 192), chunk 2 holds
        // [192, 448), … each twice the size of the last.
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(447), (2, 255));
        assert_eq!(locate(448), (3, 0));
        // Every index maps inside its chunk's capacity.
        for i in (0..100_000).step_by(7) {
            let (c, off) = locate(i);
            assert!(off < FIRST_CHUNK << c, "index {i} escaped chunk {c}");
        }
    }

    #[test]
    fn concurrent_interning_agrees() {
        let syms: Vec<Symbol> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| scope.spawn(|| Symbol::intern("racy-name")))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(syms[0].as_str(), "racy-name");
    }

    #[test]
    fn concurrent_interning_across_shards_round_trips() {
        // Eight workers interning disjoint name sets that land in many
        // different shards; every symbol must resolve to its own text and
        // hierarchy key without any cross-talk between shards.
        let all: Vec<(String, Symbol)> = std::thread::scope(|scope| {
            (0..8u32)
                .map(|w| {
                    scope.spawn(move || {
                        (0..64u32)
                            .map(|i| {
                                let name = format!("shard-storm-{w}-{i}");
                                let sym = Symbol::intern(&name);
                                (name, sym)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        for (name, sym) in &all {
            assert_eq!(sym.as_str(), name);
            assert_eq!(sym.hierarchy_key(), format!("view:{name}"));
            assert_eq!(Symbol::lookup(name), Some(*sym));
        }
        // 512 distinct names → 512 distinct symbols.
        let mut indices: Vec<u32> = all.iter().map(|(_, s)| s.index()).collect();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), 512);
    }
}
