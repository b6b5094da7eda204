//! Golden-model testbench synthesis and functional checking.
//!
//! VerilogEval decides correctness by simulating the candidate against a
//! reference testbench. We regenerate the golden module for the problem's
//! family (clean style, fixed seed), then drive *both* designs with the
//! same stimulus and compare outputs **positionally** (i-th non-clock input
//! to i-th non-clock input, i-th output to i-th output), so candidates are
//! free to choose their own port names — as VerilogEval candidates are free
//! to choose internal structure.
//!
//! Simulation runs through [`pyranet_verilog::SimDesign`]: the golden model
//! is parsed, elaborated and (by default) compiled to bytecode **once per
//! [`ProblemBench`]**, then cheaply re-instantiated for every candidate
//! check; each candidate is compiled once and driven for all vectors. The
//! compiled and reference backends are pinned bit-identical, so
//! [`SimMode`] never changes a verdict — only how fast it arrives.

use pyranet_corpus::families::{Category, DesignFamily};
use pyranet_corpus::gen::generate;
use pyranet_corpus::style::StyleOptions;
use pyranet_verilog::ast::{const_width, PortDir};
use pyranet_verilog::sim::exhaustive_assignments;
use pyranet_verilog::{parse, SimDesign, SimInstance, SimMode};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Outcome of a functional check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FunctionalVerdict {
    /// All stimulus vectors matched.
    Pass,
    /// Candidate failed to parse or elaborate.
    BuildFailure(String),
    /// Candidate's interface cannot be matched to the golden one.
    InterfaceMismatch(String),
    /// Outputs diverged from the golden model.
    Mismatch {
        /// Stimulus index of the first divergence.
        vector: usize,
        /// Output position that diverged.
        output: usize,
    },
    /// Candidate simulation errored mid-run (oscillation, runaway loop).
    RuntimeFailure(String),
}

impl FunctionalVerdict {
    /// True for [`FunctionalVerdict::Pass`].
    pub fn is_pass(&self) -> bool {
        *self == FunctionalVerdict::Pass
    }
}

/// How a candidate's outputs are compared against the golden model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckStrategy {
    /// Drive both designs with 48 fixed pseudo-random stimulus vectors (the
    /// historical check).
    #[default]
    Stimulus,
    /// Exhaustive equivalence check: for combinational designs whose total
    /// input width fits in the bit cap, sweep *every* input assignment in
    /// ascending order — a pass means the candidate matches the golden
    /// truth table everywhere. Designs over the cap, and all sequential
    /// designs, fall back to the stimulus vectors.
    Equivalence {
        /// Maximum total input bits swept exhaustively (2^bits vectors).
        max_input_bits: u32,
    },
}

/// Default input-bit cap for [`CheckStrategy::Equivalence`] (2^12 = 4096
/// assignments at most — milliseconds on the bytecode VM).
pub const DEFAULT_MAX_EQ_INPUTS: u32 = 12;

impl std::str::FromStr for CheckStrategy {
    type Err = String;

    /// `stimulus`, or `equivalence` at [`DEFAULT_MAX_EQ_INPUTS`].
    fn from_str(s: &str) -> Result<CheckStrategy, String> {
        match s {
            "stimulus" => Ok(CheckStrategy::Stimulus),
            "equivalence" => {
                Ok(CheckStrategy::Equivalence { max_input_bits: DEFAULT_MAX_EQ_INPUTS })
            }
            other => Err(format!("unknown check mode `{other}` (expected stimulus|equivalence)")),
        }
    }
}

/// Simulation-work counters accumulated by a [`ProblemBench`], reported
/// into the `sim.*` metrics by the eval harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Designs prepared (golden + candidates; compile-once each).
    pub programs: u64,
    /// Stimulus vectors driven.
    pub vectors: u64,
    /// Individual `set`/`clock` operations applied across both designs.
    pub steps: u64,
    /// Wall time spent parsing/elaborating/compiling designs.
    pub compile_time: Duration,
    /// Wall time spent driving vectors.
    pub run_time: Duration,
    /// Candidate checks scored by an exhaustive input sweep
    /// ([`CheckStrategy::Equivalence`] within the bit cap).
    pub exhaustive_checks: u64,
    /// Equivalence-mode checks that fell back to stimulus vectors
    /// (sequential design or inputs over the cap).
    pub fallback_checks: u64,
}

impl SimStats {
    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &SimStats) {
        self.programs += other.programs;
        self.vectors += other.vectors;
        self.steps += other.steps;
        self.compile_time += other.compile_time;
        self.run_time += other.run_time;
        self.exhaustive_checks += other.exhaustive_checks;
        self.fallback_checks += other.fallback_checks;
    }
}

/// Port classification for stimulus generation.
#[derive(Debug, Clone)]
struct Interface {
    clock: Option<String>,
    reset: Option<String>,
    /// (name, width) of data inputs in declaration order.
    inputs: Vec<(String, u32)>,
    /// names of outputs in declaration order.
    outputs: Vec<String>,
}

fn is_clock_name(n: &str) -> bool {
    let n = n.to_ascii_lowercase();
    n == "clk" || n == "clock" || n.ends_with("_clk") || n.starts_with("clk_")
}

fn is_reset_name(n: &str) -> bool {
    let n = n.to_ascii_lowercase();
    n == "rst" || n == "reset" || n == "rst_n" || n.ends_with("_rst") || n.starts_with("rst_")
}

fn classify(src: &str, sequential: bool) -> Result<(Interface, String), String> {
    let file = parse(src).map_err(|e| e.to_string())?;
    let module = file.modules.first().ok_or("no module")?;
    let mut iface = Interface { clock: None, reset: None, inputs: Vec::new(), outputs: Vec::new() };
    for p in &module.ports {
        let width = p.range.as_ref().and_then(const_width).unwrap_or(1);
        match p.dir {
            PortDir::Input => {
                if sequential && iface.clock.is_none() && is_clock_name(&p.name) {
                    iface.clock = Some(p.name.clone());
                } else if sequential && iface.reset.is_none() && is_reset_name(&p.name) {
                    iface.reset = Some(p.name.clone());
                } else {
                    iface.inputs.push((p.name.clone(), width));
                }
            }
            PortDir::Output => iface.outputs.push(p.name.clone()),
            PortDir::Inout => return Err("inout ports are not supported by the bench".into()),
        }
    }
    Ok((iface, module.name.clone()))
}

/// The golden reference source for a family (clean terse style, fixed
/// seed, so it is identical across calls).
pub fn golden_source(family: &DesignFamily) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(0x601D);
    generate(family, &StyleOptions::clean(), &mut rng).source
}

/// Number of stimulus vectors per check.
const VECTORS: usize = 48;

/// Golden-side preparation shared across all candidate checks of a problem.
struct Prepared {
    gold_iface: Interface,
    /// Parse/elab (and compile) the golden source once; errors are deferred
    /// to check time so the verdict ordering matches the historical
    /// single-shot path (interface mismatches win over golden failures).
    golden: Result<SimDesign, String>,
}

/// A problem's testbench, with the golden model prepared once.
///
/// `check` may be called for any number of candidates; each pays only its
/// own front-end cost plus a cheap golden re-instantiation.
pub struct ProblemBench {
    mode: SimMode,
    check: CheckStrategy,
    sequential: bool,
    prep: Result<Prepared, FunctionalVerdict>,
    /// Simulation-work counters across all checks so far.
    pub stats: SimStats,
}

impl ProblemBench {
    /// Prepares the golden model of `family` under `mode`, scoring with
    /// stimulus vectors.
    pub fn new(family: &DesignFamily, mode: SimMode) -> ProblemBench {
        ProblemBench::new_with_check(family, mode, CheckStrategy::Stimulus)
    }

    /// Prepares the golden model of `family` under `mode` with an explicit
    /// check strategy.
    pub fn new_with_check(
        family: &DesignFamily,
        mode: SimMode,
        check: CheckStrategy,
    ) -> ProblemBench {
        let mut stats = SimStats::default();
        let sequential = family.category() == Category::Sequential;
        let golden_src = golden_source(family);
        let started = Instant::now();
        let prep = match classify(&golden_src, sequential) {
            Ok((gold_iface, gold_top)) => {
                let golden =
                    SimDesign::build(&golden_src, &gold_top, mode).map_err(|e| e.to_string());
                if golden.is_ok() {
                    stats.programs += 1;
                }
                Ok(Prepared { gold_iface, golden })
            }
            Err(e) => Err(FunctionalVerdict::BuildFailure(format!("golden: {e}"))),
        };
        stats.compile_time += started.elapsed();
        ProblemBench { mode, check, sequential, prep, stats }
    }

    /// Checks `candidate_src` against the prepared golden model.
    ///
    /// The candidate may name its module and ports freely; interfaces are
    /// matched positionally and must agree in input count and widths and in
    /// output count.
    pub fn check(&mut self, candidate_src: &str) -> FunctionalVerdict {
        let prep = match &self.prep {
            Ok(p) => p,
            Err(v) => return v.clone(),
        };
        let (cand_iface, cand_top) = match classify(candidate_src, self.sequential) {
            Ok(x) => x,
            Err(e) => return FunctionalVerdict::BuildFailure(e),
        };
        // Small clone so `drive` can take `&mut self` for stats counting.
        let gold_iface = prep.gold_iface.clone();
        let gold_iface = &gold_iface;
        if cand_iface.inputs.len() != gold_iface.inputs.len() {
            return FunctionalVerdict::InterfaceMismatch(format!(
                "expected {} data inputs, found {}",
                gold_iface.inputs.len(),
                cand_iface.inputs.len()
            ));
        }
        for (i, ((_, gw), (cn, cw))) in gold_iface.inputs.iter().zip(&cand_iface.inputs).enumerate()
        {
            if gw != cw {
                return FunctionalVerdict::InterfaceMismatch(format!(
                    "input {i} (`{cn}`) is {cw} bits, expected {gw}"
                ));
            }
        }
        if cand_iface.outputs.len() != gold_iface.outputs.len() {
            return FunctionalVerdict::InterfaceMismatch(format!(
                "expected {} outputs, found {}",
                gold_iface.outputs.len(),
                cand_iface.outputs.len()
            ));
        }
        if self.sequential && cand_iface.clock.is_none() {
            return FunctionalVerdict::InterfaceMismatch("no clock input found".into());
        }
        if gold_iface.reset.is_some() && self.sequential && cand_iface.reset.is_none() {
            return FunctionalVerdict::InterfaceMismatch("no reset input found".into());
        }

        let mut gold = match &prep.golden {
            Ok(design) => match design.instantiate() {
                Ok(s) => s,
                Err(e) => return FunctionalVerdict::BuildFailure(format!("golden: {e}")),
            },
            Err(e) => return FunctionalVerdict::BuildFailure(format!("golden: {e}")),
        };
        let compile_started = Instant::now();
        let cand_design = match SimDesign::build(candidate_src, &cand_top, self.mode) {
            Ok(d) => d,
            Err(e) => {
                self.stats.compile_time += compile_started.elapsed();
                return FunctionalVerdict::BuildFailure(e.to_string());
            }
        };
        self.stats.programs += 1;
        self.stats.compile_time += compile_started.elapsed();
        let mut cand = match cand_design.instantiate() {
            Ok(s) => s,
            Err(e) => return FunctionalVerdict::BuildFailure(e.to_string()),
        };

        let run_started = Instant::now();
        let verdict = self.drive(&mut gold, gold_iface, &mut cand, &cand_iface);
        self.stats.run_time += run_started.elapsed();
        verdict
    }

    fn drive(
        &mut self,
        gold: &mut SimInstance,
        gold_iface: &Interface,
        cand: &mut SimInstance,
        cand_iface: &Interface,
    ) -> FunctionalVerdict {
        // Exhaustive equivalence path: combinational and within the bit cap.
        // No reset, no clock, no RNG — just every assignment in ascending
        // order, so the verdict is deterministic by construction.
        if let CheckStrategy::Equivalence { max_input_bits } = self.check {
            if !self.sequential {
                let widths: Vec<u32> = gold_iface.inputs.iter().map(|(_, w)| *w).collect();
                if let Some(sweep) = exhaustive_assignments(&widths, max_input_bits) {
                    self.stats.exhaustive_checks += 1;
                    for (v, values) in sweep.enumerate() {
                        self.stats.vectors += 1;
                        if let Some(verdict) =
                            self.step_and_compare(gold, gold_iface, cand, cand_iface, v, &values)
                        {
                            return verdict;
                        }
                    }
                    return FunctionalVerdict::Pass;
                }
            }
            // Over the cap or sequential: same stimulus vectors as
            // `CheckStrategy::Stimulus`.
            self.stats.fallback_checks += 1;
        }

        let mut rng = ChaCha8Rng::seed_from_u64(0x57EE7);
        // reset pulse for sequential designs
        if self.sequential {
            let pulse = |sim: &mut SimInstance, iface: &Interface| -> Result<u64, String> {
                let mut steps = 0u64;
                if let Some(r) = &iface.reset {
                    sim.set(r, 1).map_err(|e| e.to_string())?;
                    steps += 1;
                }
                if let Some(c) = &iface.clock {
                    sim.clock(c).map_err(|e| e.to_string())?;
                    steps += 1;
                }
                if let Some(r) = &iface.reset {
                    sim.set(r, 0).map_err(|e| e.to_string())?;
                    steps += 1;
                }
                Ok(steps)
            };
            match pulse(gold, gold_iface) {
                Ok(steps) => self.stats.steps += steps,
                Err(e) => return FunctionalVerdict::BuildFailure(format!("golden reset: {e}")),
            }
            match pulse(cand, cand_iface) {
                Ok(steps) => self.stats.steps += steps,
                Err(e) => return FunctionalVerdict::RuntimeFailure(format!("reset: {e}")),
            }
        }

        for v in 0..VECTORS {
            self.stats.vectors += 1;
            // one stimulus for both designs
            let values: Vec<u64> = gold_iface
                .inputs
                .iter()
                .map(|(_, w)| rng.random::<u64>() & pyranet_verilog::Value::mask(*w))
                .collect();
            if let Some(verdict) =
                self.step_and_compare(gold, gold_iface, cand, cand_iface, v, &values)
            {
                return verdict;
            }
        }
        FunctionalVerdict::Pass
    }

    /// Applies one input assignment to both designs (clocking sequential
    /// ones) and compares outputs positionally. `Some(verdict)` on failure.
    fn step_and_compare(
        &mut self,
        gold: &mut SimInstance,
        gold_iface: &Interface,
        cand: &mut SimInstance,
        cand_iface: &Interface,
        v: usize,
        values: &[u64],
    ) -> Option<FunctionalVerdict> {
        for ((gn, _), val) in gold_iface.inputs.iter().zip(values) {
            self.stats.steps += 1;
            if let Err(e) = gold.set(gn, *val) {
                return Some(FunctionalVerdict::BuildFailure(format!("golden drive: {e}")));
            }
        }
        for ((cn, _), val) in cand_iface.inputs.iter().zip(values) {
            self.stats.steps += 1;
            if let Err(e) = cand.set(cn, *val) {
                return Some(FunctionalVerdict::RuntimeFailure(format!("drive `{cn}`: {e}")));
            }
        }
        if self.sequential {
            if let Some(c) = &gold_iface.clock {
                self.stats.steps += 1;
                if let Err(e) = gold.clock(c) {
                    return Some(FunctionalVerdict::BuildFailure(format!("golden clock: {e}")));
                }
            }
            if let Some(c) = &cand_iface.clock {
                self.stats.steps += 1;
                if let Err(e) = cand.clock(c) {
                    return Some(FunctionalVerdict::RuntimeFailure(format!("clock: {e}")));
                }
            }
        }
        for (o, (gn, cn)) in gold_iface.outputs.iter().zip(&cand_iface.outputs).enumerate() {
            let gv = match gold.get(gn) {
                Ok(v) => v,
                Err(e) => {
                    return Some(FunctionalVerdict::BuildFailure(format!("golden read: {e}")))
                }
            };
            let cv = match cand.get(cn) {
                Ok(v) => v,
                Err(e) => {
                    return Some(FunctionalVerdict::RuntimeFailure(format!("read `{cn}`: {e}")))
                }
            };
            // compare at the golden width (a wider candidate output is
            // tolerated if the low bits agree and the rest are zero)
            let w = gv.width();
            if gv.as_u64() != (cv.as_u64() & pyranet_verilog::Value::mask(w))
                || cv.as_u64() >> w.min(63) != 0
            {
                return Some(FunctionalVerdict::Mismatch { vector: v, output: o });
            }
        }
        None
    }
}

/// Checks `candidate_src` against the golden model of `family` under the
/// default (compiled) backend.
pub fn check_functional(candidate_src: &str, family: &DesignFamily) -> FunctionalVerdict {
    check_functional_with(candidate_src, family, SimMode::default())
}

/// Checks `candidate_src` against the golden model of `family` under an
/// explicit simulation backend. Verdicts are identical across modes (the
/// backends are pinned bit-identical); use [`ProblemBench`] directly to
/// amortise golden preparation over many candidates.
pub fn check_functional_with(
    candidate_src: &str,
    family: &DesignFamily,
    mode: SimMode,
) -> FunctionalVerdict {
    ProblemBench::new(family, mode).check(candidate_src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyranet_corpus::style::{NamingScheme, StyleOptions};

    #[test]
    fn golden_passes_against_itself() {
        for family in [
            DesignFamily::HalfAdder,
            DesignFamily::Counter { width: 8 },
            DesignFamily::Alu { width: 8 },
            DesignFamily::Ram { addr_width: 3, data_width: 8 },
            DesignFamily::SequenceDetector { pattern: vec![true, false, true] },
        ] {
            let src = golden_source(&family);
            let v = check_functional(&src, &family);
            assert!(v.is_pass(), "{family:?}: {v:?}");
        }
    }

    #[test]
    fn renamed_ports_still_pass() {
        // A correct implementation under a different naming scheme passes:
        // matching is positional.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for family in [DesignFamily::HalfAdder, DesignFamily::Counter { width: 8 }] {
            let style = StyleOptions { naming: NamingScheme::Prefixed, ..StyleOptions::clean() };
            let d = generate(&family, &style, &mut rng);
            let v = check_functional(&d.source, &family);
            assert!(v.is_pass(), "{family:?}: {v:?}");
        }
    }

    #[test]
    fn wrong_logic_fails() {
        // A half adder with OR instead of XOR
        let bad = "module ha(input a, input b, output s, output c);\n\
                   assign s = a | b;\n  assign c = a & b;\nendmodule";
        let v = check_functional(bad, &DesignFamily::HalfAdder);
        assert!(matches!(v, FunctionalVerdict::Mismatch { .. }), "{v:?}");
    }

    #[test]
    fn syntax_error_is_build_failure() {
        let v = check_functional("module oops(", &DesignFamily::HalfAdder);
        assert!(matches!(v, FunctionalVerdict::BuildFailure(_)), "{v:?}");
    }

    #[test]
    fn wrong_interface_is_mismatch() {
        let v = check_functional(
            "module m(input a, output y); assign y = a; endmodule",
            &DesignFamily::HalfAdder,
        );
        assert!(matches!(v, FunctionalVerdict::InterfaceMismatch(_)), "{v:?}");
    }

    #[test]
    fn wrong_width_is_interface_mismatch() {
        let v = check_functional(
            "module add(input [3:0] a, input [3:0] b, input cin, output [7:0] s, output co);\n\
             assign {co, s} = a + b + cin;\nendmodule",
            &DesignFamily::BehavioralAdder { width: 8 },
        );
        assert!(matches!(v, FunctionalVerdict::InterfaceMismatch(_)), "{v:?}");
    }

    #[test]
    fn missing_clock_is_interface_mismatch() {
        let v = check_functional(
            "module c(input [7:0] d, output [7:0] q); assign q = d; endmodule",
            &DesignFamily::Counter { width: 8 },
        );
        assert!(matches!(v, FunctionalVerdict::InterfaceMismatch(_)), "{v:?}");
    }

    #[test]
    fn off_by_one_counter_fails() {
        let bad = "module counter(input clk, input rst, input en, output reg [7:0] q);\n\
                   always @(posedge clk) begin\n\
                     if (rst) q <= 8'd0; else if (en) q <= q + 8'd2;\n\
                   end\nendmodule";
        let v = check_functional(bad, &DesignFamily::Counter { width: 8 });
        assert!(matches!(v, FunctionalVerdict::Mismatch { .. }), "{v:?}");
    }

    #[test]
    fn verdict_is_pass_helper() {
        assert!(FunctionalVerdict::Pass.is_pass());
        assert!(!FunctionalVerdict::BuildFailure("x".into()).is_pass());
    }

    #[test]
    fn modes_agree_on_every_verdict_class() {
        // One candidate per verdict class, checked under both backends:
        // the mode must never change the verdict.
        let candidates = [
            golden_source(&DesignFamily::HalfAdder),
            "module ha(input a, input b, output s, output c);\n\
             assign s = a | b; assign c = a & b; endmodule"
                .to_owned(),
            "module oops(".to_owned(),
            "module m(input a, output y); assign y = a; endmodule".to_owned(),
        ];
        for family in [
            DesignFamily::HalfAdder,
            DesignFamily::Counter { width: 8 },
            DesignFamily::Alu { width: 8 },
        ] {
            let mut compiled = ProblemBench::new(&family, SimMode::Compiled);
            let mut reference = ProblemBench::new(&family, SimMode::Reference);
            for cand in &candidates {
                assert_eq!(
                    compiled.check(cand),
                    reference.check(cand),
                    "{family:?} verdict diverges on:\n{cand}"
                );
            }
        }
    }

    #[test]
    fn problem_bench_amortises_and_counts() {
        let family = DesignFamily::Counter { width: 8 };
        let mut bench = ProblemBench::new(&family, SimMode::Compiled);
        assert_eq!(bench.stats.programs, 1, "golden prepared once");
        let golden = golden_source(&family);
        for _ in 0..3 {
            assert!(bench.check(&golden).is_pass());
        }
        assert_eq!(bench.stats.programs, 4, "one program per candidate check");
        assert_eq!(bench.stats.vectors, 3 * 48);
        assert!(bench.stats.steps > bench.stats.vectors, "steps include drives and clocks");
    }

    fn eq_bench(family: &DesignFamily) -> ProblemBench {
        ProblemBench::new_with_check(
            family,
            SimMode::Compiled,
            CheckStrategy::Equivalence { max_input_bits: DEFAULT_MAX_EQ_INPUTS },
        )
    }

    #[test]
    fn equivalence_sweeps_every_assignment_within_cap() {
        // HalfAdder: 2 input bits -> exactly 4 vectors, exhaustive.
        let family = DesignFamily::HalfAdder;
        let mut bench = eq_bench(&family);
        assert!(bench.check(&golden_source(&family)).is_pass());
        assert_eq!(bench.stats.exhaustive_checks, 1);
        assert_eq!(bench.stats.fallback_checks, 0);
        assert_eq!(bench.stats.vectors, 4);
    }

    #[test]
    fn equivalence_falls_back_over_cap_and_for_sequential() {
        // BehavioralAdder{8}: 8+8+1 = 17 input bits > 12 -> stimulus fallback.
        let wide = DesignFamily::BehavioralAdder { width: 8 };
        let mut bench = eq_bench(&wide);
        assert!(bench.check(&golden_source(&wide)).is_pass());
        assert_eq!(bench.stats.exhaustive_checks, 0);
        assert_eq!(bench.stats.fallback_checks, 1);
        assert_eq!(bench.stats.vectors, 48, "fallback drives the stimulus vectors");

        // Sequential designs always use stimulus, whatever their width.
        let seq = DesignFamily::Dff;
        let mut bench = eq_bench(&seq);
        assert!(bench.check(&golden_source(&seq)).is_pass());
        assert_eq!(bench.stats.exhaustive_checks, 0);
        assert_eq!(bench.stats.fallback_checks, 1);
    }

    /// Builds a parity candidate that is correct everywhere except at one
    /// 8-bit input value chosen to dodge the 48 fixed stimulus vectors.
    fn parity_counterexample() -> String {
        // Replicate the stimulus stream (seed 0x57EE7, one 8-bit input per
        // vector) and pick the smallest value it never drives.
        let mut rng = ChaCha8Rng::seed_from_u64(0x57EE7);
        let driven: std::collections::HashSet<u64> =
            (0..VECTORS).map(|_| rng.random::<u64>() & 0xFF).collect();
        let magic = (0..256u64).find(|v| !driven.contains(v)).expect("48 vectors < 256 values");
        format!(
            "module even_parity_8(input [7:0] data, output y);\n  \
             assign y = (^data) ^ (data == 8'd{magic});\nendmodule\n"
        )
    }

    #[test]
    fn equivalence_is_strictly_stronger_than_stimulus() {
        // The crafted candidate is wrong at exactly one of 256 assignments:
        // the fixed stimulus vectors miss it, the exhaustive sweep cannot.
        let family = DesignFamily::Parity { width: 8, even: true };
        let cand = parity_counterexample();
        let mut stim = ProblemBench::new(&family, SimMode::Compiled);
        assert!(stim.check(&cand).is_pass(), "counterexample must sneak past stimulus vectors");
        let mut eq = eq_bench(&family);
        let v = eq.check(&cand);
        assert!(matches!(v, FunctionalVerdict::Mismatch { .. }), "{v:?}");
    }

    #[test]
    fn equivalence_verdicts_agree_across_sim_modes() {
        let family = DesignFamily::Parity { width: 8, even: true };
        let cand = parity_counterexample();
        let strategy = CheckStrategy::Equivalence { max_input_bits: DEFAULT_MAX_EQ_INPUTS };
        let mut compiled = ProblemBench::new_with_check(&family, SimMode::Compiled, strategy);
        let mut reference = ProblemBench::new_with_check(&family, SimMode::Reference, strategy);
        assert_eq!(compiled.check(&cand), reference.check(&cand));
        assert_eq!(
            compiled.check(&golden_source(&family)),
            reference.check(&golden_source(&family))
        );
    }

    #[test]
    fn equivalence_mismatch_reports_the_exact_assignment() {
        // Majority voter: 3 input bits a,b,c (a = LSB of the sweep counter).
        // A candidate wrong only at a=1,b=1,c=0 (counter value 3) must be
        // reported at exactly that vector index.
        let bad = "module majority3(input a, input b, input c, output y);\n  \
                   assign y = ((a & b) | (a & c) | (b & c)) ^ (a & b & ~c);\nendmodule\n";
        let mut bench = eq_bench(&DesignFamily::Majority);
        assert_eq!(bench.check(bad), FunctionalVerdict::Mismatch { vector: 3, output: 0 });
    }

    #[test]
    fn check_functional_with_matches_default() {
        let src = golden_source(&DesignFamily::HalfAdder);
        assert_eq!(
            check_functional(&src, &DesignFamily::HalfAdder),
            check_functional_with(&src, &DesignFamily::HalfAdder, SimMode::Reference),
        );
    }
}
