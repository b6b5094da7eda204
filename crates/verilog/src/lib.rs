//! # pyranet-verilog
//!
//! A from-scratch Verilog-2001-subset front end and simulator, built as the
//! EDA substrate for the PyraNet reproduction (DAC 2025).
//!
//! The PyraNet curation pipeline needs four capabilities from its Verilog
//! toolchain, and this crate provides all of them without external tools:
//!
//! 1. **Lexing/parsing** ([`lexer`], [`parser`], [`ast`]) — a recursive
//!    descent parser for the synthesizable subset used by the corpus:
//!    modules, ports, parameters, `wire`/`reg` declarations, continuous
//!    assigns, `always` blocks (`@*` and edge-sensitive), `if`/`case`/`for`,
//!    expressions, and module instantiation.
//! 2. **Syntax checking** ([`check`]) — the stand-in for Icarus Verilog in
//!    the paper's pipeline. It distinguishes *syntax errors* (hard reject)
//!    from *dependency issues* (undefined module references; kept but
//!    demoted to Layer 6), exactly the two failure classes of §III-A.2.
//! 3. **Style & complexity metrics** ([`lint`], [`metrics`]) — the signals
//!    the ranking judge (GPT-4o-mini in the paper) consumes to produce the
//!    0–20 quality score and the Basic/Intermediate/Advanced/Expert
//!    complexity tier.
//! 4. **Simulation** ([`sim`]) — a two-state simulator for the
//!    VerilogEval-substitute functional checks (pass@k requires running the
//!    generated module against a golden testbench), with a compile-once
//!    bytecode VM fast path and the event-driven interpreter retained as
//!    the bit-identical reference oracle ([`SimMode`]).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use pyranet_verilog::{parse, check::SyntaxVerdict, check_source};
//!
//! let src = "module half_adder(input a, input b, output s, output c);\n\
//!            assign s = a ^ b;\n  assign c = a & b;\nendmodule\n";
//! let file = parse(src)?;
//! assert_eq!(file.modules.len(), 1);
//! assert_eq!(check_source(src), SyntaxVerdict::Clean);
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod check;
pub mod lexer;
pub mod lint;
pub mod metrics;
pub mod parser;
pub mod pretty;
pub mod sim;
pub mod token;

pub use ast::{Module, SourceFile};
pub use check::{check_file, check_source, SyntaxVerdict};
pub use lexer::Lexer;
pub use parser::{parse, ParseError, MAX_NESTING};
pub use sim::{SimDesign, SimInstance, SimMode, Simulator, Value};

/// Convenience: lex and parse `src`, returning the first module, if any.
///
/// # Errors
///
/// Returns [`ParseError`] when the source does not lex or parse, or when it
/// contains no module declaration.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let m = pyranet_verilog::parse_module("module m(input a, output y); assign y = ~a; endmodule")?;
/// assert_eq!(m.name, "m");
/// # Ok(())
/// # }
/// ```
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let file = parse(src)?;
    file.modules
        .into_iter()
        .next()
        .ok_or_else(|| ParseError::new(0, "source contains no module declaration"))
}
