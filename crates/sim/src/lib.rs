//! # edgenn-sim
//!
//! Hardware substrate simulator for the EdgeNN reproduction.
//!
//! The paper evaluates physical devices — an NVIDIA Jetson AGX Xavier
//! (CPU-GPU integrated SoC with unified LPDDR4x), a Raspberry Pi 4, a
//! MediaTek Dimensity 8100 phone, and an RTX 2080 Ti server. None of that
//! hardware (nor CUDA) is available to a pure-Rust build, so this crate
//! models the pieces of those machines that EdgeNN's policies actually
//! interact with:
//!
//! - [`processor`] — per-processor roofline kernel timing with occupancy
//!   (GPU under-saturation on small kernels) and cache-pressure (CPU
//!   working-set) effects;
//! - [`memory`] — the two allocation strategies of the paper's
//!   semantic-aware memory management: `cudaMalloc`-style **explicit**
//!   arrays with per-boundary copies, and `cudaMallocManaged`-style
//!   **managed** (zero-copy) arrays with access penalties and
//!   consistency-thrash costs;
//! - [`engine`] — a two-processor timeline that tracks clocks, busy time
//!   and a full event trace;
//! - [`power`] — utilization-proportional power and energy integration;
//! - [`platforms`] — calibrated presets for the paper's four machines;
//! - [`cloud`] — the network/cloud-delay model of Section V-D;
//! - [`fault`] — deterministic, seed-driven fault injection (transient
//!   kernel failures, bandwidth/thermal windows, migration stalls, OOM
//!   pressure) consulted by the executing timeline.
//!
//! Every constant in [`platforms`] is documented with the paper statement
//! or public spec-sheet figure it is anchored to. Absolute times are not
//! claimed to match physical silicon; the *relative* behaviours the paper
//! reports (who wins, by what factor, where crossovers fall) are what the
//! calibration targets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cloud;
pub mod engine;
pub mod fault;
pub mod memory;
pub mod platforms;
pub mod power;
pub mod processor;
pub mod trace;

pub use cloud::CloudLink;
pub use engine::Timeline;
pub use fault::{FaultClock, FaultKind, FaultPlan, FaultWindow, KernelFault};
pub use memory::{AllocStrategy, MemoryArchitecture, MemorySpec};
pub use platforms::Platform;
pub use power::{EnergyReport, PowerModel};
pub use processor::{KernelDesc, OpClass, ProcessorKind, ProcessorSpec};
pub use trace::{
    check_trace, HappensBefore, LinkCaps, TraceEvent, TraceKind, TraceViolation, TraceViolationKind,
};
