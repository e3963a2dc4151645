//! CSR graph traversals — the graphBIG kernel stand-ins.
//!
//! The paper runs IBM graphBIG kernels over a Facebook-like (power-law)
//! graph with four threads. This module lays a synthetic CSR graph out in
//! the physical address space — vertex records (8 B each, 8 per block)
//! and per-vertex edge slots — and generates traversal traces over it:
//! pop a frontier vertex (pointer-dependent load), scan its edge list
//! (sequential loads), chase edge targets (dependent loads to random
//! vertices — the irregularity that defeats prefetchers and thrashes the
//! counter cache), and update per-vertex state (stores).

use crate::{Op, Workload};
use clme_types::rng::Xoshiro256;
use clme_types::{PhysAddr, BLOCK_BYTES};
use std::collections::VecDeque;

/// How a kernel picks the next vertex to visit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VisitOrder {
    /// Frontier-like: uniformly random over all vertices (a BFS/DFS
    /// frontier eventually visits every vertex; the order is what is
    /// unpredictable).
    Frontier {
        /// Fraction of visits that re-touch hot hub vertices instead
        /// (hubs re-enter frontiers often; they are also the cacheable
        /// part).
        hub_fraction: f64,
    },
    /// Sweep all vertices in order (PageRank-style iterations).
    Sweep,
}

/// Parameters distinguishing the graphBIG kernels.
#[derive(Clone, Debug)]
pub struct GraphKernel {
    /// Display name.
    pub name: &'static str,
    /// Number of vertices.
    pub vertices: u64,
    /// Maximum out-degree (actual degree is `1 + hash(v) % max_degree`).
    pub max_degree: u64,
    /// Vertex visit order.
    pub order: VisitOrder,
    /// Probability an edge's target vertex record is loaded (the
    /// dependent, irregular access).
    pub touch_target: f64,
    /// Probability a visit stores to the vertex record (level / colour /
    /// rank / component updates).
    pub store_per_visit: f64,
    /// Extra dependent-chase depth at each touched target (union-find
    /// parent chains, DFS stacks).
    pub chase_depth: u32,
    /// Non-memory instructions per edge processed.
    pub compute_per_edge: u32,
}

/// A graph-traversal trace generator.
#[derive(Clone, Debug)]
pub struct GraphTraversal {
    kernel: GraphKernel,
    rng: Xoshiro256,
    vertex_base_block: u64,
    edge_base_block: u64,
    sweep_cursor: u64,
    buffer: VecDeque<Op>,
}

impl GraphTraversal {
    /// Creates a traversal with its graph based at block `base_block`
    /// (threads of one multi-threaded run share a base; multi-programmed
    /// copies use disjoint bases).
    pub fn new(kernel: GraphKernel, seed: u64, base_block: u64) -> GraphTraversal {
        let vertex_blocks = kernel.vertices.div_ceil(8);
        GraphTraversal {
            rng: Xoshiro256::seed_from(seed ^ 0x6EA9_0000),
            vertex_base_block: base_block,
            edge_base_block: base_block + vertex_blocks,
            sweep_cursor: 0,
            buffer: VecDeque::new(),
            kernel,
        }
    }

    fn vertex_addr(&self, v: u64) -> PhysAddr {
        PhysAddr::new((self.vertex_base_block + v / 8) * BLOCK_BYTES + (v % 8) * 8)
    }

    fn edge_addr(&self, v: u64, i: u64) -> PhysAddr {
        let slot = v * self.kernel.max_degree + i;
        PhysAddr::new(self.edge_base_block * BLOCK_BYTES + slot * 8)
    }

    fn degree(&self, v: u64) -> u64 {
        // Deterministic per-vertex degree without storing the graph.
        1 + (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % self.kernel.max_degree
    }

    fn pick_vertex(&mut self) -> u64 {
        match self.kernel.order {
            VisitOrder::Frontier { hub_fraction } => {
                if self.rng.chance(hub_fraction) {
                    // Hot hubs: a small power-law head.
                    self.rng.pareto_index(self.kernel.vertices, 1.2)
                } else {
                    self.rng.below(self.kernel.vertices)
                }
            }
            VisitOrder::Sweep => {
                let v = self.sweep_cursor;
                self.sweep_cursor = (self.sweep_cursor + 1) % self.kernel.vertices;
                v
            }
        }
    }

    /// Generates the ops of one vertex visit into the buffer.
    fn generate_visit(&mut self) {
        let v = self.pick_vertex();
        // Frontier pop: loading the vertex record depends on earlier data.
        self.buffer.push_back(Op::Load {
            addr: self.vertex_addr(v),
            dependent: matches!(self.kernel.order, VisitOrder::Frontier { .. }),
        });
        let deg = self.degree(v);
        for i in 0..deg {
            // Edge-list scan: the first edge load depends on the vertex
            // record (it holds the offset); the rest stream.
            self.buffer.push_back(Op::Load {
                addr: self.edge_addr(v, i),
                dependent: i == 0,
            });
            if self.kernel.compute_per_edge > 0 {
                self.buffer.push_back(Op::Compute {
                    n: self.kernel.compute_per_edge,
                });
            }
            if self.rng.chance(self.kernel.touch_target) {
                // The irregular access: the edge names a random vertex.
                // ~30% of edges point at hub vertices (cacheable); the
                // rest are scattered — the part that defeats caches.
                let mut target = if self.rng.chance(0.3) {
                    self.rng.pareto_index(self.kernel.vertices, 1.4)
                } else {
                    self.rng.below(self.kernel.vertices)
                };
                self.buffer.push_back(Op::Load {
                    addr: self.vertex_addr(target),
                    dependent: true,
                });
                // Optional chase (union-find parents, DFS descent).
                for _ in 0..self.kernel.chase_depth {
                    target = (target
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1))
                        % self.kernel.vertices;
                    self.buffer.push_back(Op::Load {
                        addr: self.vertex_addr(target),
                        dependent: true,
                    });
                }
            }
        }
        if self.rng.chance(self.kernel.store_per_visit) {
            self.buffer.push_back(Op::Store {
                addr: self.vertex_addr(v),
            });
        }
    }
}

impl Workload for GraphTraversal {
    fn name(&self) -> &str {
        self.kernel.name
    }

    fn next_op(&mut self) -> Op {
        loop {
            if let Some(op) = self.buffer.pop_front() {
                return op;
            }
            self.generate_visit();
        }
    }

    fn footprint_bytes(&self) -> u64 {
        let vertex_bytes = self.kernel.vertices * 8;
        let edge_bytes = self.kernel.vertices * self.kernel.max_degree * 8;
        vertex_bytes + edge_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> GraphKernel {
        GraphKernel {
            name: "test-bfs",
            vertices: 1 << 16,
            max_degree: 8,
            order: VisitOrder::Frontier { hub_fraction: 0.2 },
            touch_target: 0.8,
            store_per_visit: 0.5,
            chase_depth: 0,
            compute_per_edge: 3,
        }
    }

    #[test]
    fn deterministic() {
        let mut a = GraphTraversal::new(kernel(), 1, 0);
        let mut b = GraphTraversal::new(kernel(), 1, 0);
        for _ in 0..200 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let mut g = GraphTraversal::new(kernel(), 2, 1000);
        let footprint_blocks = g.footprint_bytes() / BLOCK_BYTES;
        for _ in 0..10_000 {
            match g.next_op() {
                Op::Load { addr, .. } | Op::Store { addr } => {
                    let b = addr.block().raw();
                    assert!(
                        (1000..1000 + footprint_blocks + 1).contains(&b),
                        "block {b}"
                    );
                }
                Op::Compute { .. } => {}
            }
        }
    }

    #[test]
    fn visits_include_dependent_target_chases() {
        let mut g = GraphTraversal::new(kernel(), 3, 0);
        let mut dependent_loads = 0;
        let mut total_loads = 0;
        for _ in 0..20_000 {
            if let Op::Load { dependent, .. } = g.next_op() {
                total_loads += 1;
                if dependent {
                    dependent_loads += 1;
                }
            }
        }
        let frac = dependent_loads as f64 / total_loads as f64;
        assert!(frac > 0.3, "dependent fraction {frac}");
    }

    #[test]
    fn stores_appear_at_configured_rate() {
        let mut g = GraphTraversal::new(kernel(), 4, 0);
        let mut stores = 0;
        let mut visits = 0;
        for _ in 0..50_000 {
            match g.next_op() {
                Op::Store { .. } => stores += 1,
                Op::Load {
                    dependent: false, ..
                } => {}
                _ => {}
            }
        }
        // Roughly store_per_visit (0.5) stores per visit; a visit has
        // ~4.5 edges on average. Just require presence.
        visits += 1;
        let _ = visits;
        assert!(stores > 1_000, "stores {stores}");
    }

    #[test]
    fn sweep_order_visits_sequentially() {
        let mut k = kernel();
        k.order = VisitOrder::Sweep;
        k.touch_target = 0.0;
        k.store_per_visit = 0.0;
        let mut g = GraphTraversal::new(k, 5, 0);
        // First vertex-record loads follow v = 0, 1, 2, ... (8 per block).
        let mut vertex_loads = Vec::new();
        for _ in 0..2_000 {
            if let Op::Load { addr, .. } = g.next_op() {
                let block = addr.block().raw();
                if block < (1u64 << 16) / 8 {
                    vertex_loads.push(addr.raw());
                }
            }
        }
        let mut sorted = vertex_loads.clone();
        sorted.sort_unstable();
        assert_eq!(vertex_loads, sorted, "sweep must be monotone");
    }

    #[test]
    fn degrees_vary_but_bounded() {
        let g = GraphTraversal::new(kernel(), 6, 0);
        let mut seen = std::collections::HashSet::new();
        for v in 0..1000 {
            let d = g.degree(v);
            assert!((1..=8).contains(&d));
            seen.insert(d);
        }
        assert!(seen.len() >= 4, "degree distribution too flat");
    }

    #[test]
    fn footprint_exceeds_llc_for_paper_sizes() {
        let g = GraphTraversal::new(
            GraphKernel {
                vertices: 1 << 21,
                max_degree: 16,
                ..kernel()
            },
            7,
            0,
        );
        assert!(g.footprint_bytes() > 8 << 20, "must exceed the 8 MB LLC");
    }
}
