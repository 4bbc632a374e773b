//! End-to-end and per-layer benchmark of the DFCCL runtime on simulated GPUs.
//!
//! One run drives one workload through the public API (`DfcclDomain`,
//! `RankCtx`) from a single driver thread, checks every output against a
//! host-side reference, and reports the end-to-end metrics, or, when
//! traced, the per-layer metrics. See `README.md` for the workloads, the
//! metrics and how each layer metric maps to an end-to-end one.

pub mod baseline;
pub mod cli;
pub mod inputs;
pub mod layers;
pub mod reference;
pub mod report;
pub mod run;
pub mod workload;
