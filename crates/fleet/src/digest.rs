//! Order-stable digests for fleet reduction.
//!
//! A fleet run must be *provably* identical to its serial twin without
//! hauling every logcat line and histogram back to the reducer. Each
//! task folds its observable output — logcat text, metric summaries,
//! study rows — into a 64-bit FNV-1a [`Digest`]; the reducer then
//! combines the per-task values **in task-index order** with
//! [`combine_ordered`]. Scheduling can change which worker computes a
//! digest but never what any digest contains nor the order they are
//! combined in, so serial and parallel runs produce the same final
//! value, byte for byte.

/// Incremental 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use droidsim_fleet::Digest;
///
/// let mut d = Digest::new();
/// d.write_str("W/zizhan: stale view dropped");
/// d.write_u64(3);
/// assert_eq!(d.finish(), {
///     let mut e = Digest::new();
///     e.write_str("W/zizhan: stale view dropped");
///     e.write_u64(3);
///     e.finish()
/// });
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Digest {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Digest {
        Digest { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a string, length-prefixed so `("ab", "c")` and `("a", "bc")`
    /// digest differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Folds a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by bit pattern (exact, not approximate — the runs
    /// being compared are supposed to be bit-identical).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

/// Reduces per-task digests into one fleet digest by folding them in
/// task-index order. The fold itself is another FNV pass, so both the
/// values *and their positions* are covered: swapping two device digests
/// changes the result.
pub fn combine_ordered<I: IntoIterator<Item = u64>>(digests: I) -> u64 {
    let mut d = Digest::new();
    for v in digests {
        d.write_u64(v);
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_digest_is_offset_basis() {
        assert_eq!(Digest::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn length_prefix_disambiguates_concatenation() {
        let mut a = Digest::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Digest::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn combine_is_position_sensitive() {
        assert_ne!(combine_ordered([1, 2]), combine_ordered([2, 1]));
        assert_eq!(combine_ordered([1, 2, 3]), combine_ordered([1, 2, 3]));
    }

    #[test]
    fn f64_digest_is_exact() {
        let mut a = Digest::new();
        a.write_f64(0.1 + 0.2);
        let mut b = Digest::new();
        b.write_f64(0.3);
        assert_ne!(a.finish(), b.finish(), "bit patterns differ");
    }
}
