//! # llva-bench — the evaluation harness
//!
//! Regenerates the paper's evaluation (Section 5): the [`table2`]
//! module computes every column of Table 2 for the 17 workloads. The
//! performance ledger — per-pass, translation, interpreter, trace-tier,
//! simulator, cache and image-load timings — is the benchmark under
//! `bench/` (BENCHMARK.json), and the ablations in DESIGN.md are
//! checked as counts by the root `tests/ablations.rs`.

pub mod table2;
