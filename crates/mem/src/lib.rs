//! # pdr-mem
//!
//! Memory-subsystem models:
//!
//! * [`backing`] — shared byte storage (the software-visible address space);
//! * [`dram`] — a DDR3-like controller serving AXI read bursts with
//!   first-access latency and periodic refresh stalls; together with the
//!   100 MHz / 64-bit interconnect this produces the ~790 MB/s sustained
//!   ceiling behind the paper's throughput plateau;
//! * [`sram`] — the Cypress CY7C2263KV18-like QDR-II+ staging SRAM of the
//!   paper's proposed Sec. VI architecture, whose read port sustains
//!   `550 MHz · 36 bit / 2 = 1237.5 MB/s`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backing;
pub mod dram;
pub mod sram;

pub use backing::Backing;
pub use dram::{DramConfig, DramController, DramStats};
pub use sram::{QdrSram, SramConfig, SramPorts, SramReadCmd};
