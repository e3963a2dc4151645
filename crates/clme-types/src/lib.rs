//! Shared vocabulary types for the Counter-light Memory Encryption reproduction.
//!
//! This crate defines the units every other crate in the workspace speaks:
//!
//! * [`time`] — integer-picosecond simulated time ([`Time`], [`TimeDelta`]),
//!   chosen so that a 3.2 GHz core period (312.5 ps) and every latency in the
//!   paper's Table I are exactly representable.
//! * [`addr`] — physical addresses and 64-byte memory-block identifiers.
//! * [`config`] — the full system configuration from the paper's Table I.
//! * [`stats`] — histogram and running-average helpers used by the
//!   evaluation harness (e.g. the Fig. 8 arrival-skew distribution).
//! * [`rng`] — small deterministic PRNGs ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256`]) so simulations are reproducible bit-for-bit
//!   from a seed, including labelled per-cell seed derivation for the
//!   run-matrix driver.
//! * [`json`] — a dependency-free, byte-stable JSON encoder/decoder used
//!   for stats snapshots and golden-file diffing.
//! * [`hash`] — [`hash::BlockHasher`], a multiply-fold hasher for
//!   integer-keyed tables that are probed and never iterated.
//!
//! # Examples
//!
//! ```
//! use clme_types::{config::SystemConfig, time::TimeDelta};
//!
//! let cfg = SystemConfig::isca_table1();
//! assert_eq!(cfg.aes128_latency, TimeDelta::from_ns(10));
//! assert_eq!(cfg.core_period().picos(), 312); // 3.2 GHz -> 312.5 ps, floor
//! ```

pub mod addr;
pub mod config;
pub mod hash;
pub mod json;
pub mod rng;
pub mod stats;
pub mod time;

pub use addr::{BlockAddr, PhysAddr, BLOCK_BYTES};
pub use config::SystemConfig;
pub use time::{Time, TimeDelta};
