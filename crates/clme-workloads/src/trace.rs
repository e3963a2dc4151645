//! Trace record/replay.
//!
//! The generators in this crate are deterministic, but users reproducing
//! the paper against their *own* applications need to bring real traces.
//! [`RecordedTrace`] captures any [`Workload`]'s op stream into a compact
//! binary form (one tagged record per op) that round-trips through
//! `to_bytes`/`from_bytes` and replays as a `Workload` itself — looping
//! when the simulator's window outruns the recording.

use crate::{Op, Workload};
use clme_types::PhysAddr;

/// Binary-format tags.
const TAG_LOAD: u8 = 0;
const TAG_LOAD_DEP: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_COMPUTE: u8 = 3;

/// Magic prefix of the serialised form (versioned).
const MAGIC: &[u8; 8] = b"CLMETRC1";

/// A finite recorded op sequence, replayable as an infinite [`Workload`]
/// (it loops).
///
/// # Examples
///
/// ```
/// use clme_workloads::trace::RecordedTrace;
/// use clme_workloads::{suites, Workload};
///
/// let mut source = suites::mcf(1, 0);
/// let trace = RecordedTrace::record("mcf-sample", &mut source, 100);
/// let bytes = trace.to_bytes();
/// let replayed = RecordedTrace::from_bytes(&bytes).unwrap();
/// assert_eq!(trace, replayed);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedTrace {
    name: String,
    ops: Vec<Op>,
    cursor: usize,
}

/// Errors decoding a serialised trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The buffer does not start with the trace magic.
    BadMagic,
    /// The buffer ended in the middle of a record.
    Truncated,
    /// An unknown record tag was found.
    UnknownTag(u8),
    /// The name is not valid UTF-8.
    BadName,
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDecodeError::BadMagic => f.write_str("not a clme trace (bad magic)"),
            TraceDecodeError::Truncated => f.write_str("trace truncated mid-record"),
            TraceDecodeError::UnknownTag(t) => write!(f, "unknown trace record tag {t}"),
            TraceDecodeError::BadName => f.write_str("trace name is not valid utf-8"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

impl RecordedTrace {
    /// Records `ops` operations from `source`.
    pub fn record(name: &str, source: &mut dyn Workload, ops: usize) -> RecordedTrace {
        RecordedTrace {
            name: name.to_string(),
            ops: (0..ops).map(|_| source.next_op()).collect(),
            cursor: 0,
        }
    }

    /// Builds a trace from an explicit op list.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty (a workload must be infinite on replay).
    pub fn from_ops(name: &str, ops: Vec<Op>) -> RecordedTrace {
        assert!(!ops.is_empty(), "a trace needs at least one op");
        RecordedTrace {
            name: name.to_string(),
            ops,
            cursor: 0,
        }
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the recording is empty (never true for constructed traces).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Serialises to the compact binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.name.len() + self.ops.len() * 9);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&(self.ops.len() as u64).to_le_bytes());
        for op in &self.ops {
            match *op {
                Op::Load { addr, dependent } => {
                    out.push(if dependent { TAG_LOAD_DEP } else { TAG_LOAD });
                    out.extend_from_slice(&addr.raw().to_le_bytes());
                }
                Op::Store { addr } => {
                    out.push(TAG_STORE);
                    out.extend_from_slice(&addr.raw().to_le_bytes());
                }
                Op::Compute { n } => {
                    out.push(TAG_COMPUTE);
                    out.extend_from_slice(&(n as u64).to_le_bytes());
                }
            }
        }
        out
    }

    /// Parses the binary form.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceDecodeError`] for malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<RecordedTrace, TraceDecodeError> {
        let rest = bytes
            .strip_prefix(MAGIC.as_slice())
            .ok_or(TraceDecodeError::BadMagic)?;
        let (name_len, rest) = take_u32(rest)?;
        if rest.len() < name_len as usize {
            return Err(TraceDecodeError::Truncated);
        }
        let (name_bytes, rest) = rest.split_at(name_len as usize);
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| TraceDecodeError::BadName)?
            .to_string();
        let (count, mut rest) = take_u64(rest)?;
        let mut ops = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let (&tag, after_tag) = rest.split_first().ok_or(TraceDecodeError::Truncated)?;
            let (value, after_value) = take_u64(after_tag)?;
            ops.push(match tag {
                TAG_LOAD => Op::Load {
                    addr: PhysAddr::new(value),
                    dependent: false,
                },
                TAG_LOAD_DEP => Op::Load {
                    addr: PhysAddr::new(value),
                    dependent: true,
                },
                TAG_STORE => Op::Store {
                    addr: PhysAddr::new(value),
                },
                TAG_COMPUTE => Op::Compute { n: value as u32 },
                other => return Err(TraceDecodeError::UnknownTag(other)),
            });
            rest = after_value;
        }
        Ok(RecordedTrace {
            name,
            ops,
            cursor: 0,
        })
    }
}

fn take_u32(bytes: &[u8]) -> Result<(u32, &[u8]), TraceDecodeError> {
    if bytes.len() < 4 {
        return Err(TraceDecodeError::Truncated);
    }
    let (head, rest) = bytes.split_at(4);
    Ok((u32::from_le_bytes(head.try_into().expect("4 bytes")), rest))
}

fn take_u64(bytes: &[u8]) -> Result<(u64, &[u8]), TraceDecodeError> {
    if bytes.len() < 8 {
        return Err(TraceDecodeError::Truncated);
    }
    let (head, rest) = bytes.split_at(8);
    Ok((u64::from_le_bytes(head.try_into().expect("8 bytes")), rest))
}

impl Workload for RecordedTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_op(&mut self) -> Op {
        let op = self.ops[self.cursor];
        self.cursor = (self.cursor + 1) % self.ops.len();
        op
    }

    fn footprint_bytes(&self) -> u64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Load { addr, .. } | Op::Store { addr } => Some(addr.raw()),
                Op::Compute { .. } => None,
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;

    #[test]
    fn record_and_replay_matches_source() {
        let mut a = suites::mcf(7, 0);
        let mut b = suites::mcf(7, 0);
        let mut trace = RecordedTrace::record("mcf", &mut a, 500);
        for _ in 0..500 {
            assert_eq!(trace.next_op(), b.next_op());
        }
    }

    #[test]
    fn replay_loops() {
        let mut trace =
            RecordedTrace::from_ops("tiny", vec![Op::Compute { n: 1 }, Op::Compute { n: 2 }]);
        assert_eq!(trace.next_op(), Op::Compute { n: 1 });
        assert_eq!(trace.next_op(), Op::Compute { n: 2 });
        assert_eq!(trace.next_op(), Op::Compute { n: 1 });
    }

    #[test]
    fn binary_round_trip() {
        let mut source = suites::instantiate("bfs", 0);
        let trace = RecordedTrace::record("bfs", source.as_mut(), 1_000);
        let decoded = RecordedTrace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(trace, decoded);
        assert_eq!(decoded.len(), 1_000);
        assert!(!decoded.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            RecordedTrace::from_bytes(b"nonsense"),
            Err(TraceDecodeError::BadMagic)
        );
        let mut bytes = RecordedTrace::from_ops("x", vec![Op::Compute { n: 1 }]).to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(
            RecordedTrace::from_bytes(&bytes),
            Err(TraceDecodeError::Truncated)
        );
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut bytes = RecordedTrace::from_ops("x", vec![Op::Compute { n: 1 }]).to_bytes();
        let tag_pos = bytes.len() - 9;
        bytes[tag_pos] = 0xEE;
        assert_eq!(
            RecordedTrace::from_bytes(&bytes),
            Err(TraceDecodeError::UnknownTag(0xEE))
        );
    }

    #[test]
    fn footprint_is_max_address() {
        let trace = RecordedTrace::from_ops(
            "x",
            vec![
                Op::Load {
                    addr: PhysAddr::new(64),
                    dependent: false,
                },
                Op::Store {
                    addr: PhysAddr::new(4096),
                },
            ],
        );
        assert_eq!(trace.footprint_bytes(), 4096);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_trace_panics() {
        let _ = RecordedTrace::from_ops("empty", vec![]);
    }
}
