//! # pyranet-eval
//!
//! The VerilogEval-substitute benchmark (paper §IV: "we employed the
//! VerilogEval platform to assess the performance of the models across all
//! experiments").
//!
//! VerilogEval scores a model by sampling `n` completions per problem,
//! simulating each against a golden testbench, and reporting the unbiased
//! pass@k estimator. This crate rebuilds that loop on our substrate:
//!
//! * [`problems`] — two splits mirroring VerilogEval-Machine (machine-
//!   generated descriptions) and VerilogEval-Human (hand-written
//!   descriptions of the same circuits, phrased independently);
//! * [`testbench`] — functional equivalence via the `pyranet-verilog`
//!   simulator: the candidate and the golden reference are driven with the
//!   same stimulus (combinational sweeps or clocked sequences) and their
//!   outputs compared positionally;
//! * [`passk`] — the unbiased pass@k estimator
//!   `1 − C(n−c, k)/C(n, k)` (Chen et al., 2021 — the estimator VerilogEval
//!   uses);
//! * [`harness`] — the sampling loop: prompt → n generations → syntax +
//!   functional check → pass@k rows.

pub mod harness;
pub mod passk;
pub mod problems;
pub mod testbench;

pub use harness::{evaluate, sample_temperature, EvalOptions, EvalResult};
pub use passk::pass_at_k;
pub use problems::{human_split, machine_split, Problem, Split};
pub use pyranet_verilog::SimMode;
pub use testbench::{
    check_functional, check_functional_with, CheckStrategy, FunctionalVerdict, ProblemBench,
    SimStats, DEFAULT_MAX_EQ_INPUTS, MAX_EQ_INPUTS_LIMIT,
};
