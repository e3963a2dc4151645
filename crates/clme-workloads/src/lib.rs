//! Synthetic workload generators standing in for the paper's benchmarks.
//!
//! The evaluation (Section V) runs IBM graphBIG kernels on a
//! Facebook-like graph, four irregular SPEC2017/PARSEC programs
//! (mcf, omnetpp, canneal, streamcluster), and a set of regular SPEC
//! workloads. We cannot ship those binaries, so each benchmark is
//! replaced by a generator reproducing its first-order memory behaviour —
//! footprint, spatial locality, pointer-dependence, and write ratio —
//! the four properties that determine how memory encryption affects it
//! (see DESIGN.md §1 for the substitution rationale).
//!
//! * [`Op`] / [`Workload`] — the trace interface the simulator consumes.
//! * [`synthetic`] — the parameterised generator engine.
//! * [`graph`] — CSR graph traversals for the graphBIG kernels.
//! * [`suites`] — named constructors for every benchmark in the paper,
//!   and the irregular/regular suite lists the figures iterate over.
//! * [`tenants`] — deterministic multi-tenant traffic composition for
//!   the per-tenant observability bench.
//!
//! # Examples
//!
//! ```
//! use clme_workloads::{suites, Workload};
//!
//! let mut mcf = suites::mcf(1, 0);
//! let op = mcf.next_op();
//! assert!(!mcf.name().is_empty());
//! let _ = op;
//! ```

pub mod graph;
pub mod suites;
pub mod synthetic;
pub mod tenants;
pub mod trace;

use clme_types::PhysAddr;

/// One event in a workload's instruction stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// A load. `dependent` marks it as address-dependent on the previous
    /// load (pointer chasing) — it cannot issue until that load returns.
    Load {
        /// Target address.
        addr: PhysAddr,
        /// Whether the address came from the previous load's data.
        dependent: bool,
    },
    /// A store (write-allocate; the writeback happens at eviction).
    Store {
        /// Target address.
        addr: PhysAddr,
    },
    /// `n` non-memory instructions.
    Compute {
        /// Instruction count.
        n: u32,
    },
}

impl Op {
    /// Number of instructions this op represents.
    pub fn instructions(&self) -> u64 {
        match self {
            Op::Compute { n } => *n as u64,
            _ => 1,
        }
    }
}

/// An infinite, deterministic instruction stream.
pub trait Workload {
    /// Benchmark name (as printed in the figures).
    fn name(&self) -> &str;

    /// Produces the next event. Streams never end; the simulator decides
    /// the window.
    fn next_op(&mut self) -> Op;

    /// Approximate memory footprint in bytes (for documentation and
    /// sanity checks; must exceed the LLC for irregular suites).
    fn footprint_bytes(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_instruction_counts() {
        assert_eq!(
            Op::Load {
                addr: PhysAddr::new(0),
                dependent: false
            }
            .instructions(),
            1
        );
        assert_eq!(
            Op::Store {
                addr: PhysAddr::new(0)
            }
            .instructions(),
            1
        );
        assert_eq!(Op::Compute { n: 7 }.instructions(), 7);
    }
}
