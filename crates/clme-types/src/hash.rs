//! A fast hasher for integer-keyed tables.

/// One multiply by the 64-bit golden ratio, with the well-mixed high
/// half folded into the low bits a table indexes by. Far cheaper than
/// the default SipHash on a per-access probe, and exact for a table
/// that is probed and never iterated: the hash only picks buckets,
/// never results. It offers no collision resistance, so use it only
/// where no adversary picks the keys or the table is small and bounded
/// (simulated block addresses; the page index of one `clme-mem` CLOCK
/// cache shard, bounded by its slab).
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockHasher(u64);

impl std::hash::Hasher for BlockHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}
