//! The counter integrity tree (Section II-B).
//!
//! Each leaf is the write counter of one counter block; every group of 8
//! siblings is protected by a MAC computed over the siblings *and their
//! parent counter*, stored in memory. The root counter lives on-chip and
//! can never be replayed, so replaying any in-memory counter (and its
//! group MAC) is detected: the parent above it has moved on.
//!
//! This functional model keeps the counters and MACs explicitly so tests
//! (and the `clme-security` replay demo) can mount real replay attacks
//! against it.

use clme_crypto::sha3::sha3_tag64;

/// Children per tree node (the paper's 8-ary tree).
pub const TREE_ARITY: usize = 8;

/// A functional counter integrity tree over `leaves` counter-block
/// counters.
///
/// # Examples
///
/// ```
/// use clme_counters::tree::IntegrityTree;
///
/// let mut tree = IntegrityTree::new(64, [0; 32]);
/// tree.record_write(3);
/// assert!(tree.verify(3));
/// ```
#[derive(Clone, Debug)]
pub struct IntegrityTree {
    /// `levels[0]` are the leaf counters; the last level has ≤ 8 entries
    /// whose parent is the on-chip root.
    levels: Vec<Vec<u64>>,
    /// `macs[l][g]` protects group `g` of level `l` (its 8 siblings plus
    /// their parent counter).
    macs: Vec<Vec<u64>>,
    /// The on-chip root counter (not stored in memory; unreplayable).
    root: u64,
    mac_key: [u8; 32],
}

impl IntegrityTree {
    /// Builds a tree over `leaves` leaf counters, all initially zero.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero.
    pub fn new(leaves: usize, mac_key: [u8; 32]) -> IntegrityTree {
        assert!(leaves > 0, "tree needs at least one leaf");
        let mut levels = Vec::new();
        let mut n = leaves;
        loop {
            levels.push(vec![0u64; n]);
            if n <= TREE_ARITY {
                break;
            }
            n = n.div_ceil(TREE_ARITY);
        }
        let mut tree = IntegrityTree {
            macs: levels
                .iter()
                .map(|level| vec![0u64; level.len().div_ceil(TREE_ARITY)])
                .collect(),
            levels,
            root: 0,
            mac_key,
        };
        // Seal the all-zero state.
        for level in 0..tree.levels.len() {
            for group in 0..tree.macs[level].len() {
                tree.macs[level][group] = tree.compute_mac(level, group);
            }
        }
        tree
    }

    /// Number of levels stored in memory (excluding the on-chip root).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.levels[0].len()
    }

    /// Records a write that dirtied counter block `leaf`: increments a
    /// counter on every level up to the root and re-seals the affected
    /// group MACs — the full writeback cost of counter-mode encryption.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn record_write(&mut self, leaf: usize) {
        let mut idx = leaf;
        for level in 0..self.levels.len() {
            self.levels[level][idx] += 1;
            let group = idx / TREE_ARITY;
            // Parent (or root) moved too, so this group's MAC changes; we
            // update the parent counter first when walking upward, but the
            // group MAC depends on the parent, so recompute after the walk.
            idx = group;
        }
        self.root += 1;
        // Re-seal MACs bottom-up now that all counters on the path moved.
        let mut g = leaf / TREE_ARITY;
        for level in 0..self.levels.len() {
            self.macs[level][g] = self.compute_mac(level, g);
            g /= TREE_ARITY;
        }
    }

    /// Verifies counter block `leaf`'s counter against the tree: checks
    /// every group MAC from the leaf up to the on-chip root.
    pub fn verify(&self, leaf: usize) -> bool {
        let mut group = leaf / TREE_ARITY;
        for level in 0..self.levels.len() {
            if self.macs[level][group] != self.compute_mac(level, group) {
                return false;
            }
            group /= TREE_ARITY;
        }
        true
    }

    fn compute_mac(&self, level: usize, group: usize) -> u64 {
        let start = group * TREE_ARITY;
        let end = (start + TREE_ARITY).min(self.levels[level].len());
        let mut payload = Vec::with_capacity((TREE_ARITY + 1) * 8 + 16);
        for idx in start..end {
            payload.extend_from_slice(&self.levels[level][idx].to_le_bytes());
        }
        let parent = if level + 1 < self.levels.len() {
            self.levels[level + 1][group]
        } else {
            self.root
        };
        payload.extend_from_slice(&parent.to_le_bytes());
        payload.extend_from_slice(&(level as u64).to_le_bytes());
        payload.extend_from_slice(&(group as u64).to_le_bytes());
        sha3_tag64(b"clme:itree:v1", &[&self.mac_key, &payload])
    }

    /// Test/attack hook: overwrite an in-memory leaf counter *and* its
    /// group MAC, emulating a physical replay of `{counter, MAC}` (the
    /// attack of Fig. 10 extended to metadata).
    pub fn tamper_leaf(&mut self, leaf: usize, counter: u64, mac: u64) {
        self.levels[0][leaf] = counter;
        self.macs[0][leaf / TREE_ARITY] = mac;
    }

    /// Snapshot of `{leaf counter, group MAC}` for later replay in tests.
    pub fn snapshot_leaf(&self, leaf: usize) -> (u64, u64) {
        (self.levels[0][leaf], self.macs[0][leaf / TREE_ARITY])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(leaves: usize) -> IntegrityTree {
        IntegrityTree::new(leaves, [0x42; 32])
    }

    #[test]
    fn fresh_tree_verifies_everywhere() {
        let t = tree(100);
        for leaf in [0usize, 1, 50, 99] {
            assert!(t.verify(leaf));
        }
    }

    #[test]
    fn height_grows_logarithmically() {
        assert_eq!(tree(8).height(), 1);
        assert_eq!(tree(9).height(), 2);
        assert_eq!(tree(64).height(), 2);
        assert_eq!(tree(65).height(), 3);
        assert_eq!(tree(512).height(), 3);
    }

    #[test]
    fn writes_bump_leaf_and_stay_verifiable() {
        let mut t = tree(64);
        for _ in 0..5 {
            t.record_write(10);
        }
        assert_eq!(t.snapshot_leaf(10).0, 5);
        assert!(t.verify(10));
        assert!(t.verify(11), "sibling must remain valid");
        assert!(t.verify(63), "distant leaf must remain valid");
    }

    #[test]
    fn replaying_old_leaf_and_mac_is_detected() {
        // The core security property: replay {old counter, old MAC} after
        // a newer write, and verification fails because the parent
        // counter (protected transitively by the on-chip root) moved.
        let mut t = tree(64);
        t.record_write(5);
        let old = t.snapshot_leaf(5);
        t.record_write(5); // newer state
        t.tamper_leaf(5, old.0, old.1); // physical replay
        assert!(!t.verify(5), "replay must be detected");
    }

    #[test]
    fn tampering_counter_without_mac_is_detected() {
        let mut t = tree(64);
        t.record_write(7);
        let (_, mac) = t.snapshot_leaf(7);
        t.tamper_leaf(7, 999, mac);
        assert!(!t.verify(7));
    }

    #[test]
    fn tampering_is_confined_to_the_group() {
        let mut t = tree(64);
        let old = t.snapshot_leaf(0);
        t.record_write(0);
        t.tamper_leaf(0, old.0, old.1);
        assert!(!t.verify(0));
        assert!(!t.verify(7), "same group shares the MAC");
        assert!(t.verify(8), "other groups unaffected");
    }

    #[test]
    fn single_leaf_tree_works() {
        let mut t = tree(1);
        t.record_write(0);
        assert!(t.verify(0));
        let old = t.snapshot_leaf(0);
        t.record_write(0);
        t.tamper_leaf(0, old.0, old.1);
        assert!(!t.verify(0));
    }

    #[test]
    fn non_power_of_arity_leaf_counts() {
        let mut t = tree(13); // partial final group
        t.record_write(12);
        assert!(t.verify(12));
        assert!(t.verify(0));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn zero_leaves_panics() {
        let _ = tree(0);
    }
}
