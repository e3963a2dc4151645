//! Physical placement of encryption metadata in memory.
//!
//! The timing model needs *real DRAM addresses* for counter blocks and
//! integrity-tree nodes so metadata traffic contends with data traffic in
//! the banks and on the bus (this contention is what makes counters
//! arrive later than data — Fig. 8). Following the Split Counters sizing,
//! metadata occupies ~1.6% of memory, placed after the data region.

use crate::split::BLOCKS_PER_COUNTER_BLOCK;
use crate::tree::TREE_ARITY;
use clme_types::BlockAddr;

/// Address-space layout for counter blocks and tree levels.
///
/// # Examples
///
/// ```
/// use clme_counters::layout::MetadataLayout;
/// use clme_types::BlockAddr;
///
/// let layout = MetadataLayout::new(1 << 20); // 64 MB of data blocks
/// let cb = layout.counter_block_of(BlockAddr::new(0));
/// assert_eq!(cb, BlockAddr::new(1 << 20)); // first block after data
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetadataLayout {
    data_blocks: u64,
    counter_blocks: u64,
    /// Base block index of each tree level (level 0 = first level above
    /// the counter blocks) and its node count.
    tree_levels: Vec<(u64, u64)>,
    total_blocks: u64,
}

impl MetadataLayout {
    /// Lays out metadata for a memory with `data_blocks` 64-byte data
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if `data_blocks` is zero.
    pub fn new(data_blocks: u64) -> MetadataLayout {
        assert!(data_blocks > 0, "need at least one data block");
        let counter_blocks = data_blocks.div_ceil(BLOCKS_PER_COUNTER_BLOCK as u64);
        let mut tree_levels = Vec::new();
        let mut base = data_blocks + counter_blocks;
        let mut n = counter_blocks;
        while n > TREE_ARITY as u64 {
            n = n.div_ceil(TREE_ARITY as u64);
            tree_levels.push((base, n));
            base += n;
        }
        MetadataLayout {
            data_blocks,
            counter_blocks,
            tree_levels,
            total_blocks: base,
        }
    }

    /// Number of data blocks.
    pub fn data_blocks(&self) -> u64 {
        self.data_blocks
    }

    /// Number of counter blocks (one per 4 KB page).
    pub fn counter_blocks(&self) -> u64 {
        self.counter_blocks
    }

    /// Total blocks including all metadata.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Fraction of memory spent on metadata (the paper quotes ~1.6% for
    /// Split Counters).
    pub fn overhead_fraction(&self) -> f64 {
        (self.total_blocks - self.data_blocks) as f64 / self.total_blocks as f64
    }

    /// The counter block protecting `data_block`.
    ///
    /// # Panics
    ///
    /// Panics if `data_block` is outside the data region.
    pub fn counter_block_of(&self, data_block: BlockAddr) -> BlockAddr {
        assert!(
            data_block.raw() < self.data_blocks,
            "address beyond data region"
        );
        BlockAddr::new(self.data_blocks + data_block.raw() / BLOCKS_PER_COUNTER_BLOCK as u64)
    }

    /// The slot of `data_block` within its counter block.
    pub fn counter_slot_of(&self, data_block: BlockAddr) -> usize {
        (data_block.raw() % BLOCKS_PER_COUNTER_BLOCK as u64) as usize
    }

    /// Index of `data_block`'s counter block among all counter blocks
    /// (the integrity-tree leaf index).
    pub fn tree_leaf_of(&self, data_block: BlockAddr) -> usize {
        (data_block.raw() / BLOCKS_PER_COUNTER_BLOCK as u64) as usize
    }

    /// The in-memory integrity-tree node blocks on the path from
    /// `data_block`'s counter block to the root (excluding the on-chip
    /// root itself).
    pub fn tree_path_of(&self, data_block: BlockAddr) -> Vec<BlockAddr> {
        let mut idx = self.tree_leaf_of(data_block) as u64;
        self.tree_levels
            .iter()
            .map(|&(base, count)| {
                idx /= TREE_ARITY as u64;
                BlockAddr::new(base + idx.min(count - 1))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_blocks_cover_64_data_blocks_each() {
        let layout = MetadataLayout::new(640);
        assert_eq!(layout.counter_blocks(), 10);
        assert_eq!(
            layout.counter_block_of(BlockAddr::new(0)),
            layout.counter_block_of(BlockAddr::new(63))
        );
        assert_ne!(
            layout.counter_block_of(BlockAddr::new(63)),
            layout.counter_block_of(BlockAddr::new(64))
        );
    }

    #[test]
    fn slots_cycle_within_page() {
        let layout = MetadataLayout::new(640);
        assert_eq!(layout.counter_slot_of(BlockAddr::new(0)), 0);
        assert_eq!(layout.counter_slot_of(BlockAddr::new(63)), 63);
        assert_eq!(layout.counter_slot_of(BlockAddr::new(64)), 0);
    }

    #[test]
    fn metadata_lives_after_data() {
        let layout = MetadataLayout::new(1000);
        let cb = layout.counter_block_of(BlockAddr::new(999));
        assert!(cb.raw() >= 1000);
        assert!(cb.raw() < layout.total_blocks());
    }

    #[test]
    fn overhead_is_about_1_6_percent() {
        // 1/64 counters + tree ≈ 1.6–1.8%.
        let layout = MetadataLayout::new(1 << 24); // 1 GB of data
        let frac = layout.overhead_fraction();
        assert!((0.015..0.02).contains(&frac), "overhead {frac}");
    }

    #[test]
    fn tree_path_is_logarithmic_and_in_bounds() {
        let layout = MetadataLayout::new(1 << 20);
        let path = layout.tree_path_of(BlockAddr::new(12345));
        // 2^20/64 = 16384 counter blocks; /8 = 2048, 256, 32, 4 → 4 levels
        // above the counter blocks until ≤ 8 nodes.
        assert_eq!(path.len(), 4);
        for node in &path {
            assert!(node.raw() >= layout.data_blocks());
            assert!(node.raw() < layout.total_blocks());
        }
    }

    #[test]
    fn shared_path_prefixes() {
        let layout = MetadataLayout::new(1 << 20);
        // Blocks in the same page share the whole path.
        let a = layout.tree_path_of(BlockAddr::new(0));
        let b = layout.tree_path_of(BlockAddr::new(63));
        assert_eq!(a, b);
        // Distant blocks diverge at the bottom; their paths have the same
        // length and their top nodes sit in the same (≤ 8-node) top level,
        // whose common parent is the on-chip root.
        let c = layout.tree_path_of(BlockAddr::new((1 << 20) - 1));
        assert_eq!(a.len(), c.len());
        assert_ne!(a.first(), c.first());
        let top_gap = c.last().unwrap().raw() - a.last().unwrap().raw();
        assert!(top_gap < 8, "top-level nodes share the on-chip root parent");
    }

    #[test]
    fn tiny_memory_has_no_tree_levels() {
        let layout = MetadataLayout::new(100); // 2 counter blocks ≤ arity
        assert!(layout.tree_path_of(BlockAddr::new(5)).is_empty());
    }

    #[test]
    #[should_panic(expected = "beyond data region")]
    fn out_of_range_data_block_panics() {
        let layout = MetadataLayout::new(64);
        let _ = layout.counter_block_of(BlockAddr::new(64));
    }
}
