//! DRAM substrate: address mapping, bank/row timing, bandwidth
//! accounting, and a DRAMPower-style energy model.
//!
//! This crate stands in for the Ramulator + DRAMPower pair the paper uses
//! (Section V). The model is a reservation-based timing model: each bank
//! tracks its open row and next-available time, and every 64-byte
//! transfer reserves the channel's shared data bus for
//! [`clme_types::SystemConfig::block_transfer_time`]. Row hits pay tCL;
//! closed rows pay tRCD + tCL; row conflicts pay tRP + tRCD + tCL — the
//! latency variation that makes counters sometimes arrive later than data
//! (paper Fig. 8).
//!
//! * [`mapping`] — block address → (channel, rank, bank, row).
//! * [`timing`] — the bank/bus reservation model.
//! * [`power`] — energy: background + activate + read/write transfer.
//! * [`stats`] — bandwidth utilisation accounting.
//!
//! # Examples
//!
//! ```
//! use clme_dram::timing::{AccessKind, Dram};
//! use clme_obs::NopSink;
//! use clme_types::{BlockAddr, SystemConfig, Time};
//!
//! let mut dram = Dram::new(&SystemConfig::isca_table1());
//! let access = dram.access(BlockAddr::new(0), AccessKind::Read, Time::ZERO, &mut NopSink);
//! assert!(access.arrival > Time::ZERO);
//! ```

pub mod mapping;
pub mod power;
pub mod stats;
pub mod timing;

pub use timing::{AccessKind, Dram, DramAccess, RowOutcome};
