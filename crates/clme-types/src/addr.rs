//! Physical addresses and 64-byte memory-block identifiers.
//!
//! The memory system operates on 64-byte blocks (the LLC line size and the
//! DRAM burst size). [`PhysAddr`] is a byte address; [`BlockAddr`] is the
//! block index `addr / 64`. Keeping them as distinct newtypes prevents the
//! classic byte-vs-block confusion when computing counter-block and
//! integrity-tree addresses.

use core::fmt;

/// Bytes per memory block (cache line / DRAM burst).
pub const BLOCK_BYTES: u64 = 64;

/// Log2 of [`BLOCK_BYTES`].
pub const BLOCK_SHIFT: u32 = 6;

/// A byte-granularity physical address.
///
/// # Examples
///
/// ```
/// use clme_types::addr::{PhysAddr, BlockAddr};
///
/// let a = PhysAddr::new(0x1040);
/// assert_eq!(a.block(), BlockAddr::new(0x41));
/// assert_eq!(a.block_offset(), 0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(u64);

/// A 64-byte-block-granularity address (block index).
///
/// # Examples
///
/// ```
/// use clme_types::addr::{BlockAddr, PhysAddr};
///
/// let b = BlockAddr::new(3);
/// assert_eq!(b.base(), PhysAddr::new(192));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw byte address.
    #[inline]
    pub const fn new(addr: u64) -> PhysAddr {
        PhysAddr(addr)
    }

    /// Returns the raw byte address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the 64-byte block containing this address.
    #[inline]
    pub const fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_SHIFT)
    }

    /// Returns the offset of this address within its 64-byte block.
    #[inline]
    pub const fn block_offset(self) -> u64 {
        self.0 & (BLOCK_BYTES - 1)
    }

    /// Returns this address advanced by `bytes`.
    #[inline]
    pub const fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }
}

impl BlockAddr {
    /// Creates a block address from a raw block index.
    #[inline]
    pub const fn new(index: u64) -> BlockAddr {
        BlockAddr(index)
    }

    /// Returns the raw block index.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte of this block.
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << BLOCK_SHIFT)
    }

    /// Returns the block `n` blocks after this one.
    #[inline]
    pub const fn offset(self, n: u64) -> BlockAddr {
        BlockAddr(self.0 + n)
    }
}

impl From<PhysAddr> for BlockAddr {
    #[inline]
    fn from(a: PhysAddr) -> BlockAddr {
        a.block()
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_of_addr() {
        assert_eq!(PhysAddr::new(0).block(), BlockAddr::new(0));
        assert_eq!(PhysAddr::new(63).block(), BlockAddr::new(0));
        assert_eq!(PhysAddr::new(64).block(), BlockAddr::new(1));
        assert_eq!(
            PhysAddr::new(0xFFFF_FFFF).block(),
            BlockAddr::new(0x3FF_FFFF)
        );
    }

    #[test]
    fn block_offset() {
        assert_eq!(PhysAddr::new(0x41).block_offset(), 1);
        assert_eq!(PhysAddr::new(0x40).block_offset(), 0);
        assert_eq!(PhysAddr::new(0x7F).block_offset(), 63);
    }

    #[test]
    fn base_round_trips() {
        for i in [0u64, 1, 7, 1000, 1 << 40] {
            let b = BlockAddr::new(i);
            assert_eq!(b.base().block(), b);
        }
    }

    #[test]
    fn offsets() {
        assert_eq!(PhysAddr::new(16).offset(48), PhysAddr::new(64));
        assert_eq!(BlockAddr::new(2).offset(3), BlockAddr::new(5));
    }

    #[test]
    fn conversion_trait() {
        let b: BlockAddr = PhysAddr::new(128).into();
        assert_eq!(b, BlockAddr::new(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", PhysAddr::new(0x40)), "0x40");
        assert_eq!(format!("{}", BlockAddr::new(2)), "blk:0x2");
        assert_eq!(format!("{:x}", PhysAddr::new(255)), "ff");
    }
}
