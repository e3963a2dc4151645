//! Named benchmark constructors and the suite lists the figures iterate
//! over.
//!
//! Irregular suite (Figs. 5, 8, 9, 16–22): five graphBIG kernels run as
//! four threads sharing one power-law graph, plus mcf / omnetpp /
//! canneal / streamcluster run multi-programmed (four instances at
//! disjoint address-space bases), exactly as in Section V. Regular suite
//! (Fig. 23): six SPEC2017-like generators with prefetch-friendly
//! patterns. Each profile's parameters encode the benchmark's published
//! first-order behaviour — e.g. omnetpp's writeback-heavy heap churn
//! (96% counter-mode traffic overhead in Fig. 18) or streamcluster's
//! writebacks ≤ 1% of misses (Section VI).

use crate::graph::{GraphKernel, GraphTraversal, VisitOrder};
use crate::synthetic::{Pattern, Profile, SyntheticWorkload};
use crate::Workload;

/// Address-space span reserved per multi-programmed instance, in blocks
/// (256 MB); instance `i` is based at `i * SPAN_BLOCKS`.
pub const SPAN_BLOCKS: u64 = 1 << 22;

/// Total data address space the suites need, in 64-byte blocks (1 GB).
pub fn address_space_blocks() -> u64 {
    4 * SPAN_BLOCKS
}

/// The irregular benchmark names, in the paper's figure order.
pub const IRREGULAR: &[&str] = &[
    "bfs",
    "dfs",
    "sssp",
    "graphcoloring",
    "connectedcomp",
    "canneal",
    "streamcluster",
    "omnetpp",
    "mcf",
];

/// The regular benchmark names (Fig. 23).
pub const REGULAR: &[&str] = &["lbm", "gcc", "deepsjeng", "leela", "xz", "imagick"];

/// Extra graphBIG kernels beyond the paper's figure set (usable with
/// [`instantiate`] and the sensitivity tables of `clme figures`).
pub const EXTENDED_GRAPH: &[&str] = &["pagerank", "kcore"];

fn graph_kernel(name: &'static str) -> GraphKernel {
    let base = GraphKernel {
        name,
        vertices: 1 << 21,
        max_degree: 6,
        order: VisitOrder::Frontier { hub_fraction: 0.2 },
        touch_target: 0.9,
        store_per_visit: 0.6,
        chase_depth: 0,
        compute_per_edge: 40,
    };
    match name {
        "bfs" => base,
        "dfs" => GraphKernel {
            touch_target: 0.7,
            store_per_visit: 0.5,
            chase_depth: 1,
            ..base
        },
        "sssp" => GraphKernel {
            store_per_visit: 0.9,
            compute_per_edge: 52,
            ..base
        },
        "graphcoloring" => GraphKernel {
            // Very few writebacks: counter-mode traffic overhead is only
            // ~3% for GraphColoring (Section VI).
            store_per_visit: 0.05,
            compute_per_edge: 52,
            ..base
        },
        "connectedcomp" => GraphKernel {
            touch_target: 0.6,
            store_per_visit: 0.4,
            chase_depth: 2,
            ..base
        },
        "pagerank" => GraphKernel {
            // Iterative sweeps over all vertices; ranks written every
            // visit, neighbours gathered per edge.
            order: VisitOrder::Sweep,
            touch_target: 1.0,
            store_per_visit: 1.0,
            compute_per_edge: 20,
            ..base
        },
        "kcore" => GraphKernel {
            // Degree-peeling: frontier-driven with frequent degree
            // updates to neighbours.
            touch_target: 0.8,
            store_per_visit: 0.7,
            chase_depth: 1,
            compute_per_edge: 16,
            ..base
        },
        other => panic!("unknown graph kernel {other}"),
    }
}

fn spec_profile(name: &'static str) -> Profile {
    match name {
        "mcf" => Profile {
            name,
            footprint_blocks: 1 << 21, // 128 MB
            pattern: Pattern::HotCold {
                hot_fraction: 0.35,
                hot_blocks: 1 << 15, // 2 MB of hot arcs
            },
            spatial_locality: 0.10,
            write_fraction: 0.20,
            dependent_fraction: 0.85,
            compute_between: (30, 75),
        },
        "omnetpp" => Profile {
            name,
            footprint_blocks: 1 << 20, // 64 MB heap
            pattern: Pattern::Random,
            spatial_locality: 0.15,
            write_fraction: 0.45, // writeback-heavy event heap
            dependent_fraction: 0.70,
            compute_between: (65, 150),
        },
        "canneal" => Profile {
            name,
            footprint_blocks: 1 << 21,
            pattern: Pattern::Random,
            spatial_locality: 0.05,
            write_fraction: 0.18,
            dependent_fraction: 0.85,
            compute_between: (30, 70),
        },
        "streamcluster" => Profile {
            name,
            footprint_blocks: 1 << 21,
            pattern: Pattern::Random,
            spatial_locality: 0.30,
            write_fraction: 0.003, // writebacks ≤ 1% of misses
            dependent_fraction: 0.60,
            compute_between: (40, 90),
        },
        "lbm" => Profile {
            name,
            footprint_blocks: 1 << 20,
            pattern: Pattern::Sequential,
            spatial_locality: 0.90,
            write_fraction: 0.35,
            dependent_fraction: 0.0,
            compute_between: (6, 12),
        },
        "gcc" => Profile {
            name,
            footprint_blocks: 1 << 19, // hot working set + a 32 MB cold tail
            pattern: Pattern::HotCold {
                hot_fraction: 0.95,
                hot_blocks: 1 << 15, // 2 MB hot
            },
            spatial_locality: 0.60,
            write_fraction: 0.20,
            dependent_fraction: 0.30,
            compute_between: (6, 16),
        },
        "deepsjeng" => Profile {
            name,
            footprint_blocks: 1 << 19,
            pattern: Pattern::HotCold {
                hot_fraction: 0.93,
                hot_blocks: 1 << 16, // 4 MB hot (transposition tables)
            },
            spatial_locality: 0.40,
            write_fraction: 0.15,
            dependent_fraction: 0.35,
            compute_between: (8, 18),
        },
        "leela" => Profile {
            name,
            footprint_blocks: 1 << 18,
            pattern: Pattern::HotCold {
                hot_fraction: 0.96,
                hot_blocks: 1 << 15,
            },
            spatial_locality: 0.50,
            write_fraction: 0.10,
            dependent_fraction: 0.30,
            compute_between: (8, 18),
        },
        "xz" => Profile {
            name,
            footprint_blocks: 1 << 19,
            pattern: Pattern::Random,
            spatial_locality: 0.60,
            write_fraction: 0.30,
            dependent_fraction: 0.40,
            compute_between: (8, 18),
        },
        "imagick" => Profile {
            name,
            footprint_blocks: 1 << 19,
            pattern: Pattern::Strided { stride: 2 },
            spatial_locality: 0.80,
            write_fraction: 0.30,
            dependent_fraction: 0.0,
            compute_between: (4, 10),
        },
        other => panic!("unknown profile {other}"),
    }
}

/// The workload seed used when the caller does not plumb one through
/// (chosen to preserve the streams every pre-matrix test was tuned on).
pub const DEFAULT_SEED: u64 = 0xBEEF_0000;

/// Instantiates the per-core generator for `name` on core `core` with
/// the [`DEFAULT_SEED`].
///
/// graphBIG kernels run multi-threaded (all cores share the graph at base
/// 0 with distinct seeds); SPEC/PARSEC and regular workloads run
/// multi-programmed (per-core copies at disjoint bases), matching
/// Section V's methodology.
///
/// # Panics
///
/// Panics on an unknown benchmark name.
pub fn instantiate(name: &str, core: usize) -> Box<dyn Workload> {
    instantiate_seeded(name, core, DEFAULT_SEED)
}

/// Instantiates the per-core generator for `name` on core `core`, with
/// all randomness derived from `seed` (the run-matrix driver derives one
/// seed per cell). `instantiate_seeded(name, core, DEFAULT_SEED)` is
/// exactly [`instantiate`].
///
/// # Panics
///
/// Panics on an unknown benchmark name.
pub fn instantiate_seeded(name: &str, core: usize, seed: u64) -> Box<dyn Workload> {
    let seed = seed.wrapping_add(core as u64);
    if let Some(&known) = EXTENDED_GRAPH.iter().find(|&&k| k == name) {
        return Box::new(GraphTraversal::new(graph_kernel(known), seed, 0));
    }
    if let Some(&known) = IRREGULAR.iter().find(|&&k| k == name) {
        if matches!(
            known,
            "bfs" | "dfs" | "sssp" | "graphcoloring" | "connectedcomp"
        ) {
            return Box::new(GraphTraversal::new(graph_kernel(known), seed, 0));
        }
        return Box::new(SyntheticWorkload::new(
            spec_profile(known),
            seed,
            core as u64 * SPAN_BLOCKS,
        ));
    }
    if let Some(&known) = REGULAR.iter().find(|&&k| k == name) {
        return Box::new(SyntheticWorkload::new(
            spec_profile(known),
            seed,
            core as u64 * SPAN_BLOCKS,
        ));
    }
    if name == "pointer_chase" {
        return Box::new(pointer_chase(seed, core as u64 * SPAN_BLOCKS));
    }
    panic!("unknown benchmark {name}");
}

/// The Section III microbenchmark: pure pointer chasing over 128 MB with
/// one access in flight at a time.
pub fn pointer_chase(seed: u64, base_block: u64) -> SyntheticWorkload {
    SyntheticWorkload::new(
        Profile {
            name: "pointer_chase",
            footprint_blocks: 1 << 21, // 128 MB
            pattern: Pattern::Random,
            spatial_locality: 0.0,
            write_fraction: 0.0,
            dependent_fraction: 1.0,
            compute_between: (0, 0),
        },
        seed,
        base_block,
    )
}

/// Convenience constructor used in documentation examples.
pub fn mcf(seed: u64, base_block: u64) -> SyntheticWorkload {
    SyntheticWorkload::new(spec_profile("mcf"), seed, base_block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Op;

    #[test]
    fn all_irregular_names_instantiate() {
        for name in IRREGULAR {
            let mut w = instantiate(name, 0);
            assert_eq!(w.name(), *name);
            for _ in 0..100 {
                let _ = w.next_op();
            }
        }
    }

    #[test]
    fn all_regular_names_instantiate() {
        for name in REGULAR {
            let mut w = instantiate(name, 1);
            assert_eq!(w.name(), *name);
            let _ = w.next_op();
        }
    }

    #[test]
    fn irregular_footprints_exceed_llc() {
        for name in IRREGULAR {
            let w = instantiate(name, 0);
            assert!(
                w.footprint_bytes() > 8 << 20,
                "{name} footprint {} must exceed the 8 MB LLC",
                w.footprint_bytes()
            );
        }
    }

    #[test]
    fn graph_kernels_share_a_base_spec_does_not() {
        // Graph kernel: both cores access the same address region.
        let mut a = instantiate("bfs", 0);
        let mut b = instantiate("bfs", 1);
        let first_block = |w: &mut Box<dyn Workload>| loop {
            match w.next_op() {
                Op::Load { addr, .. } | Op::Store { addr } => return addr.block().raw(),
                Op::Compute { .. } => {}
            }
        };
        assert!(first_block(&mut a) < SPAN_BLOCKS);
        assert!(first_block(&mut b) < SPAN_BLOCKS);
        // Multi-programmed: core 1's mcf lives in the second span.
        let mut m = instantiate("mcf", 1);
        let block = first_block(&mut m);
        assert!((SPAN_BLOCKS..2 * SPAN_BLOCKS).contains(&block));
    }

    #[test]
    fn everything_fits_the_declared_address_space() {
        let limit = address_space_blocks();
        for name in IRREGULAR.iter().chain(REGULAR) {
            for core in 0..4 {
                let mut w = instantiate(name, core);
                for _ in 0..2_000 {
                    match w.next_op() {
                        Op::Load { addr, .. } | Op::Store { addr } => {
                            assert!(addr.block().raw() < limit, "{name} escaped");
                        }
                        Op::Compute { .. } => {}
                    }
                }
            }
        }
    }

    #[test]
    fn omnetpp_writes_more_than_streamcluster() {
        let count_stores = |name: &str| {
            let mut w = instantiate(name, 0);
            let mut stores = 0;
            let mut mem = 0;
            while mem < 5_000 {
                match w.next_op() {
                    Op::Store { .. } => {
                        stores += 1;
                        mem += 1;
                    }
                    Op::Load { .. } => mem += 1,
                    Op::Compute { .. } => {}
                }
            }
            stores
        };
        let omnetpp = count_stores("omnetpp");
        let streamcluster = count_stores("streamcluster");
        assert!(omnetpp > 50 * streamcluster.max(1), "{omnetpp} vs {streamcluster}");
    }

    #[test]
    fn pointer_chase_is_fully_dependent() {
        let mut w = pointer_chase(3, 0);
        let mut first = true;
        for _ in 0..1_000 {
            match w.next_op() {
                Op::Load { dependent, .. } => {
                    if !first {
                        assert!(dependent);
                    }
                    first = false;
                }
                Op::Store { .. } => panic!("pointer chase must not store"),
                Op::Compute { .. } => {}
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_name_panics() {
        let _ = instantiate("nonexistent", 0);
    }

    #[test]
    fn seeded_instantiation_controls_the_stream() {
        let ops = |seed: u64| {
            let mut w = instantiate_seeded("mcf", 0, seed);
            (0..50).map(|_| w.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(1), ops(1), "same seed ⇒ same stream");
        assert_ne!(ops(1), ops(2), "different seed ⇒ different stream");
        // The default entry point is the seeded one at DEFAULT_SEED.
        let mut a = instantiate("canneal", 2);
        let mut b = instantiate_seeded("canneal", 2, DEFAULT_SEED);
        for _ in 0..50 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }
}
