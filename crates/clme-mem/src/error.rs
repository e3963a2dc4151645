//! Typed failures of the encrypted-memory layer.

use std::fmt;

/// Which verification stage caught a corruption.
///
/// The classes mirror the physical position classes an attacker can
/// touch: the data word's ciphertext/MAC/parity lanes, the page's
/// counter word, and the integrity-tree node words.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TamperClass {
    /// The block MAC (Carter–Wegman under counter mode, SHA-3 under
    /// counterless) disagreed with the decrypted block.
    DataMac,
    /// The EncryptionMetadata word decoded from the block's parity lane
    /// disagreed with the verified counter metadata.
    Meta,
    /// The counter-block word's keyed MAC failed.
    CounterBlock,
    /// An integrity-tree node word's keyed MAC failed at this level
    /// (level 0 holds the per-page leaf counters).
    TreeNode {
        /// Tree level of the failing node word.
        level: u8,
    },
}

impl TamperClass {
    /// Stable identifier for dump bundles and metrics labels. Level is
    /// carried separately by [`code`](Self::code); the name is the class
    /// family only, so it never changes with geometry.
    pub fn name(self) -> &'static str {
        match self {
            TamperClass::DataMac => "data-mac",
            TamperClass::Meta => "meta",
            TamperClass::CounterBlock => "counter-block",
            TamperClass::TreeNode { .. } => "tree-node",
        }
    }

    /// Stable numeric code for compact serialization (flight-recorder
    /// events, `.clmedump` bundles): 0–2 for the flat classes, `3 +
    /// level` for tree nodes. [`from_code`](Self::from_code) inverts it.
    pub fn code(self) -> u16 {
        match self {
            TamperClass::DataMac => 0,
            TamperClass::Meta => 1,
            TamperClass::CounterBlock => 2,
            TamperClass::TreeNode { level } => 3 + level as u16,
        }
    }

    /// Inverse of [`code`](Self::code). `None` for codes no class maps
    /// to (tree levels above `u8::MAX` cannot be encoded).
    pub fn from_code(code: u16) -> Option<TamperClass> {
        match code {
            0 => Some(TamperClass::DataMac),
            1 => Some(TamperClass::Meta),
            2 => Some(TamperClass::CounterBlock),
            n => u8::try_from(n - 3)
                .ok()
                .map(|level| TamperClass::TreeNode { level }),
        }
    }
}

impl fmt::Display for TamperClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamperClass::DataMac => f.write_str("block MAC"),
            TamperClass::Meta => f.write_str("encryption metadata"),
            TamperClass::CounterBlock => f.write_str("counter block"),
            TamperClass::TreeNode { level } => write!(f, "tree node (level {level})"),
        }
    }
}

/// A read (or a re-encryption pass) found state that fails
/// verification: tampering, replay, or a wrong key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IntegrityError {
    /// The block address whose access detected the corruption.
    pub addr: u64,
    /// Which verification stage failed.
    pub class: TamperClass,
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "integrity violation at block {:#x}: {} verification failed",
            self.addr, self.class
        )
    }
}

impl std::error::Error for IntegrityError {}

/// Any failure of an encrypted-memory operation.
#[derive(Debug)]
pub enum MemError {
    /// A block address (or stored-word index) beyond the store.
    OutOfBounds {
        /// The offending index.
        index: u64,
        /// Number of valid indices.
        limit: u64,
    },
    /// Verification failed — see [`IntegrityError`].
    Integrity(IntegrityError),
    /// The backing store failed (file backends only).
    Io(std::io::Error),
    /// The backend's size does not match the layer's geometry.
    GeometryMismatch {
        /// Words the geometry requires.
        expected_words: u64,
        /// Words the backend actually holds.
        actual_words: u64,
    },
}

impl MemError {
    /// The integrity error, if that is what this is.
    pub fn integrity(&self) -> Option<&IntegrityError> {
        match self {
            MemError::Integrity(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { index, limit } => {
                write!(f, "index {index} out of bounds (limit {limit})")
            }
            MemError::Integrity(e) => e.fmt(f),
            MemError::Io(e) => write!(f, "backing store I/O failed: {e}"),
            MemError::GeometryMismatch {
                expected_words,
                actual_words,
            } => write!(
                f,
                "backend holds {actual_words} words but the geometry needs {expected_words}"
            ),
        }
    }
}

impl std::error::Error for MemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MemError::Integrity(e) => Some(e),
            MemError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IntegrityError> for MemError {
    fn from(e: IntegrityError) -> MemError {
        MemError::Integrity(e)
    }
}

impl From<std::io::Error> for MemError {
    fn from(e: std::io::Error) -> MemError {
        MemError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_class() {
        let classes = [
            TamperClass::DataMac,
            TamperClass::Meta,
            TamperClass::CounterBlock,
            TamperClass::TreeNode { level: 2 },
        ];
        let rendered: Vec<String> = classes.iter().map(|c| c.to_string()).collect();
        for (i, a) in rendered.iter().enumerate() {
            for b in &rendered[i + 1..] {
                assert_ne!(a, b, "classes must render distinctly");
            }
        }
        let err = IntegrityError {
            addr: 0x40,
            class: TamperClass::Meta,
        };
        assert!(err.to_string().contains("0x40"));
        assert!(MemError::from(err).integrity().is_some());
    }

    #[test]
    fn tamper_codes_round_trip() {
        let classes = [
            TamperClass::DataMac,
            TamperClass::Meta,
            TamperClass::CounterBlock,
            TamperClass::TreeNode { level: 0 },
            TamperClass::TreeNode { level: 7 },
            TamperClass::TreeNode { level: 255 },
        ];
        for c in classes {
            assert_eq!(TamperClass::from_code(c.code()), Some(c));
        }
        assert_eq!(
            TamperClass::from_code(3),
            Some(TamperClass::TreeNode { level: 0 })
        );
        let mut seen = std::collections::HashSet::new();
        for c in classes {
            assert!(seen.insert(c.code()), "codes must be unique");
        }
        assert!(
            TamperClass::from_code(3 + 256).is_none(),
            "level beyond u8 rejected"
        );
    }

    #[test]
    fn io_errors_wrap() {
        let io = std::io::Error::new(std::io::ErrorKind::Other, "disk gone");
        let err = MemError::from(io);
        assert!(err.integrity().is_none());
        assert!(err.to_string().contains("disk gone"));
    }
}
