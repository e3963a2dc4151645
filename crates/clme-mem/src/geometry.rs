//! Address arithmetic: where data, counter, and tree-node words live
//! inside a backing store.
//!
//! The store is a flat array of 80-byte words. Data blocks come first
//! (one word per block), then one counter word per 64-block page, then
//! the integrity-tree node words level by level (level 0 = leaf
//! counters, one 8-ary group per word). The tree root is *not* stored —
//! it lives inside the layer, which is what makes replay detectable.

use clme_counters::split::BLOCKS_PER_COUNTER_BLOCK;

/// Data blocks covered by one counter word (a 4 KB page).
pub const PAGE_BLOCKS: u64 = BLOCKS_PER_COUNTER_BLOCK as u64;

/// Children per integrity-tree node.
pub const NODE_ARITY: u64 = 8;

/// What a stored-word index holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// The encoded data word of this block address.
    Data {
        /// Block address.
        addr: u64,
    },
    /// The counter word of this page.
    CounterBlock {
        /// Page index.
        page: u64,
    },
    /// An integrity-tree node word.
    TreeNode {
        /// Tree level (0 = leaf counters).
        level: u8,
        /// Group index within the level.
        group: u64,
    },
}

/// The word layout for a store of a given size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Geometry {
    data_blocks: u64,
    pages: u64,
    /// Counters per tree level; `level_counts[0] == pages`.
    level_counts: Vec<u64>,
    /// Node words per tree level (`ceil(level_counts / 8)`).
    node_counts: Vec<u64>,
    /// First word index of each level's node region.
    node_bases: Vec<u64>,
    total_words: u64,
}

impl Geometry {
    /// The layout for a store of `data_blocks` 64-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics if `data_blocks` is zero.
    pub fn for_blocks(data_blocks: u64) -> Geometry {
        assert!(data_blocks > 0, "store must hold at least one block");
        let pages = data_blocks.div_ceil(PAGE_BLOCKS);
        let mut level_counts = Vec::new();
        let mut n = pages;
        loop {
            level_counts.push(n);
            if n <= NODE_ARITY {
                break;
            }
            n = n.div_ceil(NODE_ARITY);
        }
        let node_counts: Vec<u64> = level_counts
            .iter()
            .map(|c| c.div_ceil(NODE_ARITY))
            .collect();
        let mut node_bases = Vec::with_capacity(node_counts.len());
        let mut base = data_blocks + pages;
        for &count in &node_counts {
            node_bases.push(base);
            base += count;
        }
        Geometry {
            data_blocks,
            pages,
            level_counts,
            node_counts,
            node_bases,
            total_words: base,
        }
    }

    /// Number of addressable data blocks.
    pub fn data_blocks(&self) -> u64 {
        self.data_blocks
    }

    /// Number of counter-block pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Number of integrity-tree levels.
    pub fn levels(&self) -> usize {
        self.level_counts.len()
    }

    /// Node words at `level`.
    pub fn node_count(&self, level: usize) -> u64 {
        self.node_counts[level]
    }

    /// Total stored words a backend must hold.
    pub fn total_words(&self) -> u64 {
        self.total_words
    }

    /// The page a block address belongs to.
    pub fn page_of(&self, addr: u64) -> u64 {
        addr / PAGE_BLOCKS
    }

    /// The block's slot within its counter block.
    pub fn slot_of(&self, addr: u64) -> usize {
        (addr % PAGE_BLOCKS) as usize
    }

    /// The addressable block range of a page — [`PAGE_BLOCKS`] wide
    /// except for a partial last page, which stops at the store's edge.
    pub fn page_addr_range(&self, page: u64) -> std::ops::Range<u64> {
        debug_assert!(page < self.pages);
        let first = page * PAGE_BLOCKS;
        first..(first + PAGE_BLOCKS).min(self.data_blocks)
    }

    /// Word index of a block's data word.
    pub fn data_word(&self, addr: u64) -> u64 {
        debug_assert!(addr < self.data_blocks);
        addr
    }

    /// Word index of a page's counter word.
    pub fn counter_word(&self, page: u64) -> u64 {
        debug_assert!(page < self.pages);
        self.data_blocks + page
    }

    /// Word index of a tree-node word.
    pub fn node_word(&self, level: usize, group: u64) -> u64 {
        debug_assert!(group < self.node_counts[level]);
        self.node_bases[level] + group
    }

    /// The tree path of a page, leaf-level first: `(level, group, slot)`
    /// where `slot` indexes the page's counter inside the group's word.
    pub fn path(&self, page: u64) -> Vec<(usize, u64, usize)> {
        debug_assert!(page < self.pages);
        let mut out = Vec::with_capacity(self.levels());
        let mut idx = page;
        for level in 0..self.levels() {
            out.push((level, idx / NODE_ARITY, (idx % NODE_ARITY) as usize));
            idx /= NODE_ARITY;
        }
        out
    }

    /// Classifies a stored-word index.
    ///
    /// # Panics
    ///
    /// Panics if `word` is beyond [`Geometry::total_words`].
    pub fn classify(&self, word: u64) -> Region {
        if word < self.data_blocks {
            return Region::Data { addr: word };
        }
        if word < self.data_blocks + self.pages {
            return Region::CounterBlock {
                page: word - self.data_blocks,
            };
        }
        for (level, (&base, &count)) in self.node_bases.iter().zip(&self.node_counts).enumerate() {
            if word < base + count {
                return Region::TreeNode {
                    level: level as u8,
                    group: word - base,
                };
            }
        }
        panic!("word {word} beyond store ({} words)", self.total_words);
    }

    /// A data address whose read must traverse (and therefore verify)
    /// the given region — the probe a tamper test reads after flipping
    /// bytes there.
    pub fn probe_addr(&self, region: Region) -> u64 {
        match region {
            Region::Data { addr } => addr,
            Region::CounterBlock { page } => page * PAGE_BLOCKS,
            Region::TreeNode { level, group } => {
                // The group's first counter covers pages starting at
                // group * 8^(level+1).
                let first_page = group * NODE_ARITY.pow(level as u32 + 1);
                first_page * PAGE_BLOCKS
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_page_store() {
        let g = Geometry::for_blocks(64);
        assert_eq!(g.pages(), 1);
        assert_eq!(g.levels(), 1);
        assert_eq!(g.node_count(0), 1);
        // 64 data + 1 counter + 1 node.
        assert_eq!(g.total_words(), 66);
        assert_eq!(g.path(0), vec![(0, 0, 0)]);
    }

    #[test]
    fn partial_page_rounds_up() {
        let g = Geometry::for_blocks(65);
        assert_eq!(g.pages(), 2);
        assert_eq!(g.total_words(), 65 + 2 + 1);
        assert_eq!(g.path(1), vec![(0, 0, 1)]);
    }

    #[test]
    fn two_level_tree() {
        // 640 pages -> level 0: 640 counters / 80 nodes; level 1: 80
        // counters / 10 nodes; level 2: 10 counters / 2 nodes; level 3:
        // 2 counters / 1 node.
        let g = Geometry::for_blocks(640 * PAGE_BLOCKS);
        assert_eq!(g.pages(), 640);
        assert_eq!(g.levels(), 4);
        assert_eq!(g.node_count(0), 80);
        assert_eq!(g.node_count(1), 10);
        assert_eq!(g.node_count(2), 2);
        assert_eq!(g.node_count(3), 1);
        let path = g.path(639);
        assert_eq!(path, vec![(0, 79, 7), (1, 9, 7), (2, 1, 1), (3, 0, 1)]);
    }

    #[test]
    fn classify_round_trips_every_word() {
        let g = Geometry::for_blocks(130);
        for word in 0..g.total_words() {
            let region = g.classify(word);
            let back = match region {
                Region::Data { addr } => g.data_word(addr),
                Region::CounterBlock { page } => g.counter_word(page),
                Region::TreeNode { level, group } => g.node_word(level as usize, group),
            };
            assert_eq!(back, word, "{region:?}");
        }
    }

    #[test]
    fn probe_addr_is_in_range_and_under_region() {
        let g = Geometry::for_blocks(9 * PAGE_BLOCKS + 3);
        for word in 0..g.total_words() {
            let region = g.classify(word);
            let addr = g.probe_addr(region);
            assert!(addr < g.data_blocks(), "{region:?} probe {addr}");
            match region {
                Region::Data { addr: a } => assert_eq!(addr, a),
                Region::CounterBlock { page } => assert_eq!(g.page_of(addr), page),
                Region::TreeNode { level, group } => {
                    // Walking the probe's path must pass through the node.
                    let hit = g
                        .path(g.page_of(addr))
                        .into_iter()
                        .any(|(l, grp, _)| l == level as usize && grp == group);
                    assert!(hit, "{region:?} probe path misses the node");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_panics() {
        let _ = Geometry::for_blocks(0);
    }
}
