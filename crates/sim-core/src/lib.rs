//! # pdr-sim-core
//!
//! A small, deterministic discrete-event simulation (DES) kernel used as the
//! substrate for the cycle-level Zynq-7000 partial-reconfiguration model of the
//! SOCC 2017 paper *"Robust Throughput Boosting for Low Latency Dynamic Partial
//! Reconfiguration"*.
//!
//! The kernel provides:
//!
//! * [`SimTime`]/[`SimDuration`] — picosecond-resolution simulated time, and
//!   [`Frequency`] with exact (integer-accumulated) period arithmetic so clock
//!   edges never drift, even at awkward frequencies such as 280 MHz.
//! * [`Engine`] — a single-threaded event scheduler with total determinism:
//!   events at equal timestamps fire in schedule order (a monotone sequence
//!   number breaks ties). Its default [`EngineStrategy::EventSkip`] kernel
//!   fast-forwards across clock spans where every component is quiescent
//!   (declared via [`NextWake`]) while staying byte-identical to the
//!   edge-by-edge [`EngineStrategy::Tick`] oracle — see `docs/KERNEL.md`.
//! * [`Component`] — the trait all simulated hardware blocks implement.
//!   Components are bound to clock domains and receive `on_clock_edge`
//!   callbacks; they can also exchange discrete events.
//! * [`fifo`] — bounded ready/valid FIFOs ([`fifo::Producer`]/[`fifo::Consumer`]
//!   endpoints over shared storage), the universal hardware-channel primitive.
//! * [`irq`] — shared interrupt lines (set by hardware, observed by the
//!   processing-system model).
//! * [`stats`] and [`trace`] — counters, online statistics, histograms and a
//!   bounded event trace for debugging and measurement; [`vcd`] exports the
//!   trace as a waveform file for GTKWave-style inspection.
//! * [`rng`] — a locally implemented SplitMix64 / xoshiro256\*\* PRNG so that
//!   simulation streams are bit-stable regardless of external crate versions.
//! * [`json`] — a dependency-free JSON encoder/decoder (the workspace builds
//!   hermetically, with no external crates) used by reports and experiment
//!   harnesses.
//!
//! # Example
//!
//! A component that counts its own clock edges:
//!
//! ```
//! use pdr_sim_core::{Component, Engine, EdgeCtx, Frequency, SimDuration};
//!
//! struct Counter { edges: u64 }
//! impl Component for Counter {
//!     fn name(&self) -> &str { "counter" }
//!     fn on_clock_edge(&mut self, _ctx: &mut EdgeCtx<'_>) { self.edges += 1; }
//! }
//!
//! let mut engine = Engine::new();
//! let clk = engine.add_clock_domain("clk100", Frequency::from_mhz(100));
//! let id = engine.add_component(Counter { edges: 0 }, Some(clk));
//! engine.run_for(SimDuration::from_micros(1));
//! let edges = engine.component::<Counter>(id).edges;
//! assert_eq!(edges, 100); // 100 MHz for 1 us = 100 edges
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod clock;
pub mod component;
pub mod engine;
pub mod fifo;
pub mod irq;
pub mod json;
pub mod rng;
pub mod stats;
pub mod thermal;
pub mod time;
pub mod trace;
pub mod vcd;

pub use clock::{ClockDomainId, ClockDomainInfo};
pub use component::{Component, ComponentId, Event, EventKey, NextWake, WakeSignal};
pub use engine::{EdgeCtx, Engine, EngineProfile, EngineStrategy, RunResult, StopReason};
pub use fifo::{fifo_channel, Consumer, Fifo, Producer};
pub use irq::{IrqBus, IrqLine};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use thermal::{ThermalRc, ThermalRcConfig, ThermalSample};
pub use time::{Frequency, SimDuration, SimTime};
