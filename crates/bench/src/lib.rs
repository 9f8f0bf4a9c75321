//! # armus-bench
//!
//! The library behind the one `armus-bench` binary, which keeps only
//! what reproduces the paper:
//!
//! * `armus-bench paper …` regenerates every table and figure of the
//!   Armus evaluation (§6) and the §5.1 threshold ablation from
//!   [`experiments`] (the ablation builds its snapshots with [`synth`]);
//! * `armus-bench analysis …` measures the static deadlock analysis'
//!   precision and per-program cost over seeded corpora ([`analysis`]);
//! * `armus-bench analyze …` is the post-mortem tool: offline deadlock
//!   analysis of a dumped `armus_core::Snapshot`.
//!
//! What verification costs a running program, end to end and layer by
//! layer, is measured by `benchmark/` at the repository root, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod experiments;
pub mod synth;

pub use experiments::Config;
