//! Benchmark harness for the DRQ reproduction.
//!
//! Each table and figure of the paper's evaluation has a dedicated binary
//! under `src/bin/` (see `DESIGN.md` for the experiment index), plus the
//! `kernel_microbench` kernel timer. This library hosts the
//! shared harness utilities: table rendering, run configuration and the
//! Table III per-network DRQ operating points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

pub use harness::{
    network_operating_point, paper_networks, render_table, ObservabilityArgs, RunScale,
};
