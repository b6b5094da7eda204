//! Two-state simulation of the Verilog subset.
//!
//! The VerilogEval-substitute benchmark (crate `pyranet-eval`) decides
//! functional correctness by driving a candidate module with stimulus
//! vectors and comparing its outputs against a golden reference — the same
//! check VerilogEval performs with a commercial simulator. This module is
//! that simulator, with two interchangeable backends:
//!
//! * [`elab`] flattens a multi-module design into a single scope (instances
//!   are inlined with `inst.signal` renaming, parameters become constants);
//! * [`resolve`] rewrites the flat design once, replacing every signal name
//!   with a dense slot index so neither backend does string lookups in its
//!   evaluation loops;
//! * [`engine`] is the retained event-driven **reference** interpreter — it
//!   owns the signal store and walks resolved expression trees directly;
//! * [`compile`] lowers a resolved design into flat [`bytecode`] — stack
//!   machine instruction streams with fixed evaluation schedules — which the
//!   allocation-free [`vm`] executes.
//!
//! The compiled backend is the default (it evaluates the same design
//! many times faster, which matters when one golden module is driven for
//! thousands of stimulus vectors); the reference engine is the spec oracle.
//! The two are pinned bit-identical — same output values, same `SimError`
//! classifications — by differential unit and property tests. Designs the
//! compiler cannot prove it can mirror exactly fall back to the reference
//! engine silently (see [`SimDesign`]), so identity holds by construction.
//!
//! Values are two-state (`0`/`1`) vectors of up to 64 bits ([`Value`]).
//! `x`/`z` digits in literals are read as `0`, which matches how the corpus
//! generators and benchmark problems use them.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use pyranet_verilog::Simulator;
//!
//! let src = "module counter(input clk, input rst, output reg [3:0] q);\n\
//!            always @(posedge clk) begin\n\
//!              if (rst) q <= 4'd0; else q <= q + 4'd1;\n\
//!            end\nendmodule";
//! let mut sim = Simulator::from_source(src, "counter")?;
//! sim.set("rst", 1)?;
//! sim.clock("clk")?;
//! sim.set("rst", 0)?;
//! sim.clock("clk")?;
//! sim.clock("clk")?;
//! assert_eq!(sim.get("q")?.as_u64(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! Compile-once, run-many via the facade:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use pyranet_verilog::{SimDesign, SimMode};
//!
//! let src = "module inv(input a, output y); assign y = ~a; endmodule";
//! let design = SimDesign::build(src, "inv", SimMode::Compiled)?;
//! for bit in [0u64, 1] {
//!     let mut sim = design.instantiate()?; // cheap: reuses the program
//!     sim.set("a", bit)?;
//!     assert_eq!(sim.get("y")?.as_u64(), bit ^ 1);
//! }
//! # Ok(())
//! # }
//! ```

mod bytecode;
mod compile;
#[cfg(test)]
mod differential;
mod elab;
mod engine;
mod resolve;
pub mod sweep;
mod value;
mod vm;

pub use elab::{elaborate, ElabError, FlatDesign};
pub use engine::{SimError, Simulator};
pub use sweep::{exhaustive_assignments, ExhaustiveSweep};
pub use value::Value;
pub use vm::CompiledSimulator;

use crate::ast::SourceFile;
use crate::parser::parse;
use bytecode::Program;
use resolve::ResolvedDesign;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A top-level input resolved once by `input_slot`, then driven with
/// `set_slot` without a name lookup.
///
/// A slot is only meaningful for instances of the design it was resolved
/// on (either backend: both number signals the same way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputSlot(u32);

/// A signal resolved once by `signal_slot`, then read with `get_slot`
/// without a name lookup. Same validity rule as [`InputSlot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalSlot(u32);

/// The one input-resolution rule both backends share: `set`'s
/// historical checks, in its order.
fn resolve_input(
    inputs: &[String],
    names: &HashMap<String, u32>,
    name: &str,
) -> Result<InputSlot, SimError> {
    if !inputs.iter().any(|i| i == name) {
        return Err(SimError::NotAnInput(name.to_owned()));
    }
    resolve_signal(names, name).map(|s| InputSlot(s.0))
}

/// The one signal-resolution rule both backends share.
fn resolve_signal(names: &HashMap<String, u32>, name: &str) -> Result<SignalSlot, SimError> {
    names.get(name).map(|&i| SignalSlot(i)).ok_or_else(|| SimError::UnknownSignal(name.to_owned()))
}

/// Which simulation backend scores testbench vectors.
///
/// `Compiled` lowers the design to bytecode once and runs the stack VM;
/// `Reference` walks resolved expression trees with the retained
/// event-driven engine. The two are pinned bit-identical — the mode is a
/// performance knob, never a semantic one (same pattern as the model
/// crate's `KernelMode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SimMode {
    /// Compile-once bytecode VM (default).
    #[default]
    Compiled,
    /// The retained event-driven interpreter (spec oracle).
    Reference,
}

impl fmt::Display for SimMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SimMode::Compiled => "compiled",
            SimMode::Reference => "reference",
        })
    }
}

impl std::str::FromStr for SimMode {
    type Err = String;

    fn from_str(s: &str) -> Result<SimMode, String> {
        match s {
            "compiled" => Ok(SimMode::Compiled),
            "reference" => Ok(SimMode::Reference),
            other => Err(format!("unknown sim mode `{other}` (expected compiled|reference)")),
        }
    }
}

/// A design prepared for repeated instantiation.
///
/// Parsing, elaboration, name resolution and (in [`SimMode::Compiled`])
/// bytecode compilation happen once here; [`SimDesign::instantiate`] then
/// only allocates fresh state and settles it, so driving one golden module
/// against `n` candidates × `v` vectors pays the front-end cost once.
///
/// When compilation declines a design (a construct whose engine errors the
/// compiler cannot mirror exactly), instantiation silently falls back to
/// the reference engine — bit-identity holds by construction.
#[derive(Clone)]
pub struct SimDesign {
    res: Arc<ResolvedDesign>,
    prog: Option<Arc<Program>>,
    mode: SimMode,
}

impl fmt::Debug for SimDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimDesign")
            .field("mode", &self.mode)
            .field("compiled", &self.prog.is_some())
            .finish()
    }
}

impl SimDesign {
    /// Parses, elaborates and prepares `top` for instantiation.
    ///
    /// # Errors
    ///
    /// Fails on parse or elaboration errors; compilation failures are not
    /// errors (they select the reference fallback).
    pub fn build(src: &str, top: &str, mode: SimMode) -> Result<SimDesign, SimError> {
        let file = parse(src)?;
        SimDesign::from_file(&file, top, mode)
    }

    /// Prepares a design from a parsed file.
    ///
    /// # Errors
    ///
    /// Fails when the design cannot be elaborated.
    pub fn from_file(file: &SourceFile, top: &str, mode: SimMode) -> Result<SimDesign, SimError> {
        let design = elaborate(file, top)?;
        let res = Arc::new(ResolvedDesign::resolve(&design));
        let prog = match mode {
            SimMode::Compiled => compile::compile(&res).ok().map(Arc::new),
            SimMode::Reference => None,
        };
        Ok(SimDesign { res, prog, mode })
    }

    /// The mode this design was built for.
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// Whether instantiation will run the bytecode VM (false: reference
    /// engine, either by mode or by compile fallback).
    pub fn is_compiled(&self) -> bool {
        self.prog.is_some()
    }

    /// Creates a fresh, settled simulator instance.
    ///
    /// # Errors
    ///
    /// Fails when initial constant application or the initial combinational
    /// settle fails (unknown signals, oscillating logic) — the same errors
    /// `Simulator::new` would produce.
    pub fn instantiate(&self) -> Result<SimInstance, SimError> {
        match &self.prog {
            Some(p) => Ok(SimInstance::Compiled(CompiledSimulator::new(p.clone())?)),
            None => Ok(SimInstance::Reference(Simulator::from_resolved(self.res.clone())?)),
        }
    }
}

/// A running simulator from either backend, with the common driving API.
#[derive(Debug)]
pub enum SimInstance {
    /// Event-driven reference interpreter.
    Reference(Simulator),
    /// Bytecode VM.
    Compiled(CompiledSimulator),
}

impl SimInstance {
    /// Names of the top-level inputs.
    pub fn inputs(&self) -> &[String] {
        match self {
            SimInstance::Reference(s) => s.inputs(),
            SimInstance::Compiled(s) => s.inputs(),
        }
    }

    /// Names of the top-level outputs.
    pub fn outputs(&self) -> &[String] {
        match self {
            SimInstance::Reference(s) => s.outputs(),
            SimInstance::Compiled(s) => s.outputs(),
        }
    }

    /// Resolves a top-level input for [`SimInstance::set_slot`].
    ///
    /// # Errors
    ///
    /// The error [`SimInstance::set`] gives for `name`: `NotAnInput` or
    /// `UnknownSignal`.
    pub fn input_slot(&self, name: &str) -> Result<InputSlot, SimError> {
        match self {
            SimInstance::Reference(s) => s.input_slot(name),
            SimInstance::Compiled(s) => s.input_slot(name),
        }
    }

    /// Resolves a signal for [`SimInstance::get_slot`].
    ///
    /// # Errors
    ///
    /// The error [`SimInstance::get`] gives for `name`: `UnknownSignal`.
    pub fn signal_slot(&self, name: &str) -> Result<SignalSlot, SimError> {
        match self {
            SimInstance::Reference(s) => s.signal_slot(name),
            SimInstance::Compiled(s) => s.signal_slot(name),
        }
    }

    /// Reads a resolved signal's current value.
    pub fn get_slot(&self, slot: SignalSlot) -> Value {
        match self {
            SimInstance::Reference(s) => s.get_slot(slot),
            SimInstance::Compiled(s) => s.get_slot(slot),
        }
    }

    /// Drives a resolved input and propagates the change.
    ///
    /// # Errors
    ///
    /// Fails on oscillating logic and runaway loops.
    pub fn set_slot(&mut self, slot: InputSlot, value: u64) -> Result<(), SimError> {
        match self {
            SimInstance::Reference(s) => s.set_slot(slot, value),
            SimInstance::Compiled(s) => s.set_slot(slot, value),
        }
    }

    /// Applies one full clock cycle (falling then rising edge) to a
    /// resolved input.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SimInstance::set_slot`].
    pub fn clock_slot(&mut self, clk: InputSlot) -> Result<(), SimError> {
        self.set_slot(clk, 0)?;
        self.set_slot(clk, 1)
    }

    /// Reads a signal's current value.
    ///
    /// # Errors
    ///
    /// Fails when `name` is not a signal of the flattened design.
    pub fn get(&self, name: &str) -> Result<Value, SimError> {
        Ok(self.get_slot(self.signal_slot(name)?))
    }

    /// Drives a top-level input and propagates the change.
    ///
    /// # Errors
    ///
    /// Fails on unknown/non-input signals and on oscillating logic.
    pub fn set(&mut self, name: &str, value: u64) -> Result<(), SimError> {
        self.set_slot(self.input_slot(name)?, value)
    }

    /// Applies one full clock cycle (falling then rising edge) to `clk`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SimInstance::set`].
    pub fn clock(&mut self, clk: &str) -> Result<(), SimError> {
        self.clock_slot(self.input_slot(clk)?)
    }
}
