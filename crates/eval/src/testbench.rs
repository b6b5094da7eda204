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
//! is parsed, elaborated, (by default) compiled to bytecode and
//! instantiated **once per [`ProblemBench`]**. The bench's vector plan —
//! the ascending exhaustive sweep, or the seeded stimulus vectors with
//! their reset pulse and clocks — does not depend on the candidate, so the
//! golden is driven along it once and its outputs are recorded in a
//! bit-packed trace, extended only as far as some candidate has reached.
//! Each candidate is compiled once, its ports are resolved to slots once,
//! and it alone is driven, vector by vector, against the trace. The
//! compiled and reference backends are pinned bit-identical, so
//! [`SimMode`] never changes a verdict — only how fast it arrives.

use pyranet_corpus::families::{Category, DesignFamily};
use pyranet_corpus::gen::generate;
use pyranet_corpus::style::StyleOptions;
use pyranet_verilog::ast::{const_width, PortDir, SourceFile};
use pyranet_verilog::sim::{
    exhaustive_assignments, ExhaustiveSweep, InputSlot, SignalSlot, SimError,
};
use pyranet_verilog::{parse, SimDesign, SimInstance, SimMode, Value};
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

/// Default input-bit cap for [`CheckStrategy::Equivalence`]: 2^12 = 4096
/// assignments at most. A bench simulates the golden over them once and
/// keeps its outputs as a trace of 2^bits × output bits / 8 bytes; each
/// check then simulates only the candidate — milliseconds on the bytecode
/// VM.
pub const DEFAULT_MAX_EQ_INPUTS: u32 = 12;

/// Largest input-bit cap `eval --max-eq-inputs` accepts: 2^20 assignments,
/// so a golden trace holds at most 128 KiB per output bit. It sits above
/// the 16-bit cap of perfbench's `score` workload; a larger cap would let
/// one flag value ask for gigabytes of trace.
pub const MAX_EQ_INPUTS_LIMIT: u32 = 20;

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
    /// Stimulus vectors driven, counted per candidate check.
    pub vectors: u64,
    /// Individual `set`/`clock` operations actually applied to a
    /// simulator: every candidate's, and the golden's only while its trace
    /// is recorded (a replayed vector applies none).
    pub steps: u64,
    /// Vectors whose golden outputs came from the trace an earlier check
    /// recorded, instead of being simulated for this check.
    pub golden_replayed: u64,
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
    /// Designs built under [`SimMode::Compiled`] that the bytecode
    /// compiler declined, so they run on the reference engine.
    pub compile_fallbacks: u64,
}

impl SimStats {
    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &SimStats) {
        self.programs += other.programs;
        self.vectors += other.vectors;
        self.steps += other.steps;
        self.golden_replayed += other.golden_replayed;
        self.compile_time += other.compile_time;
        self.run_time += other.run_time;
        self.exhaustive_checks += other.exhaustive_checks;
        self.fallback_checks += other.fallback_checks;
        self.compile_fallbacks += other.compile_fallbacks;
    }

    /// Counts one prepared design, and a compile fallback when a
    /// [`SimMode::Compiled`] build runs on the reference engine.
    fn count_program(&mut self, design: &SimDesign) {
        self.programs += 1;
        if design.mode() == SimMode::Compiled && !design.is_compiled() {
            self.compile_fallbacks += 1;
        }
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

fn classify(file: &SourceFile, sequential: bool) -> Result<(Interface, String), String> {
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

/// Matches a candidate's interface to the golden one: positionally, equal
/// data-input count and widths, equal output count, and a clock (and a
/// reset, when the golden has one) on sequential benches. Returns the
/// candidate's interface and top module name.
fn match_interface(
    gold: &Interface,
    candidate: &SourceFile,
    sequential: bool,
) -> Result<(Interface, String), FunctionalVerdict> {
    let (cand, top) = classify(candidate, sequential).map_err(FunctionalVerdict::BuildFailure)?;
    let mismatch = |m: String| Err(FunctionalVerdict::InterfaceMismatch(m));
    if cand.inputs.len() != gold.inputs.len() {
        return mismatch(format!(
            "expected {} data inputs, found {}",
            gold.inputs.len(),
            cand.inputs.len()
        ));
    }
    for (i, ((_, gw), (cn, cw))) in gold.inputs.iter().zip(&cand.inputs).enumerate() {
        if gw != cw {
            return mismatch(format!("input {i} (`{cn}`) is {cw} bits, expected {gw}"));
        }
    }
    if cand.outputs.len() != gold.outputs.len() {
        return mismatch(format!(
            "expected {} outputs, found {}",
            gold.outputs.len(),
            cand.outputs.len()
        ));
    }
    if sequential && cand.clock.is_none() {
        return mismatch("no clock input found".into());
    }
    if gold.reset.is_some() && sequential && cand.reset.is_none() {
        return mismatch("no reset input found".into());
    }
    Ok((cand, top))
}

/// Builds and instantiates a parsed candidate, counting its program and
/// compile time.
fn build_candidate(
    file: &SourceFile,
    top: &str,
    mode: SimMode,
    stats: &mut SimStats,
) -> Result<SimInstance, FunctionalVerdict> {
    let started = Instant::now();
    let design = SimDesign::from_file(file, top, mode);
    stats.compile_time += started.elapsed();
    let design = design.map_err(|e| FunctionalVerdict::BuildFailure(e.to_string()))?;
    stats.count_program(&design);
    design.instantiate().map_err(|e| FunctionalVerdict::BuildFailure(e.to_string()))
}

/// The golden reference source for a family (clean terse style, fixed
/// seed, so it is identical across calls).
pub fn golden_source(family: &DesignFamily) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(0x601D);
    generate(family, &StyleOptions::clean(), &mut rng).source
}

/// Number of stimulus vectors per check.
const VECTORS: usize = 48;

/// The input vectors every check of a bench drives, in order. It depends
/// only on the golden interface and the strategy, never on the candidate.
enum Plan {
    /// Every assignment in ascending order (exhaustive equivalence).
    Sweep(ExhaustiveSweep),
    /// [`VECTORS`] seeded pseudo-random assignments, row-major, after a
    /// reset pulse on sequential designs.
    Stimulus(Vec<u64>),
}

impl Plan {
    fn new(check: CheckStrategy, sequential: bool, widths: &[u32]) -> Plan {
        if let CheckStrategy::Equivalence { max_input_bits } = check {
            if !sequential {
                if let Some(sweep) = exhaustive_assignments(widths, max_input_bits) {
                    return Plan::Sweep(sweep);
                }
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(0x57EE7);
        let mut rows = Vec::with_capacity(VECTORS * widths.len());
        for _ in 0..VECTORS {
            rows.extend(widths.iter().map(|w| rng.random::<u64>() & Value::mask(*w)));
        }
        Plan::Stimulus(rows)
    }

    fn len(&self) -> usize {
        match self {
            Plan::Sweep(sweep) => sweep.total() as usize,
            Plan::Stimulus(_) => VECTORS,
        }
    }

    /// The assignment of vector `v` (a swept one is decoded into `buf`).
    fn values<'a>(&'a self, v: usize, buf: &'a mut Vec<u64>) -> &'a [u64] {
        match self {
            Plan::Sweep(sweep) => {
                sweep.decode_into(v as u64, buf);
                buf
            }
            Plan::Stimulus(rows) => {
                let n = rows.len() / VECTORS;
                &rows[v * n..(v + 1) * n]
            }
        }
    }
}

/// An interface's ports resolved to slots of one instance. A port that
/// does not resolve keeps its error, which surfaces where the by-name call
/// would have failed.
struct Ports {
    clock: Option<Result<InputSlot, SimError>>,
    reset: Option<Result<InputSlot, SimError>>,
    inputs: Vec<Result<InputSlot, SimError>>,
    outputs: Vec<Result<SignalSlot, SimError>>,
}

impl Ports {
    fn resolve(sim: &SimInstance, iface: &Interface) -> Ports {
        Ports {
            clock: iface.clock.as_deref().map(|n| sim.input_slot(n)),
            reset: iface.reset.as_deref().map(|n| sim.input_slot(n)),
            inputs: iface.inputs.iter().map(|(n, _)| sim.input_slot(n)).collect(),
            outputs: iface.outputs.iter().map(|n| sim.signal_slot(n)).collect(),
        }
    }
}

fn set(
    sim: &mut SimInstance,
    port: &Result<InputSlot, SimError>,
    value: u64,
) -> Result<(), SimError> {
    sim.set_slot(port.clone()?, value)
}

fn clock(sim: &mut SimInstance, port: &Result<InputSlot, SimError>) -> Result<(), SimError> {
    sim.clock_slot(port.clone()?)
}

/// The reset pulse of a sequential design (assert reset, one clock,
/// release); a no-op on a combinational one, whose interface has neither
/// port.
fn pulse(sim: &mut SimInstance, ports: &Ports, steps: &mut u64) -> Result<(), SimError> {
    if let Some(r) = &ports.reset {
        *steps += 1;
        set(sim, r, 1)?;
    }
    if let Some(c) = &ports.clock {
        *steps += 1;
        clock(sim, c)?;
    }
    if let Some(r) = &ports.reset {
        *steps += 1;
        set(sim, r, 0)?;
    }
    Ok(())
}

/// Where along the plan the golden model failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Reset,
    Drive,
    Clock,
    Read(usize),
}

/// The golden model, driven once along its bench's plan with its outputs
/// recorded, bit-packed at the output widths. Checks replay the record
/// instead of re-simulating the golden; recording happens lazily (the
/// reset pulse, then one vector at a time) when a check first needs it.
struct GoldenTrace {
    sim: SimInstance,
    ports: Ports,
    /// Whether the reset pulse has been applied.
    pulsed: bool,
    /// (bit offset within a vector's record, width) of each output.
    fields: Vec<(usize, u32)>,
    /// Bits per vector: the sum of the output widths.
    stride: usize,
    bits: Vec<u64>,
    /// Vectors fully recorded.
    len: usize,
    /// The golden's first failure — at which vector (0 for the reset
    /// pulse), in which phase, and the verdict of every check that gets
    /// there. Recording stops at it.
    fault: Option<(usize, Phase, FunctionalVerdict)>,
}

impl GoldenTrace {
    fn new(sim: SimInstance, iface: &Interface) -> GoldenTrace {
        let ports = Ports::resolve(&sim, iface);
        let mut stride = 0;
        let fields = (ports.outputs.iter())
            .map(|o| {
                let width = o.as_ref().map_or(0, |s| sim.get_slot(*s).width());
                stride += width as usize;
                (stride - width as usize, width)
            })
            .collect();
        GoldenTrace {
            sim,
            ports,
            pulsed: false,
            fields,
            stride,
            bits: Vec::new(),
            len: 0,
            fault: None,
        }
    }

    /// Applies the reset pulse the first time a check reaches it.
    fn reset(&mut self, steps: &mut u64) {
        if !self.pulsed {
            self.pulsed = true;
            if let Err(e) = pulse(&mut self.sim, &self.ports, steps) {
                self.fail(0, Phase::Reset, format!("golden reset: {e}"));
            }
        }
    }

    fn fail(&mut self, v: usize, phase: Phase, why: String) {
        self.fault = Some((v, phase, FunctionalVerdict::BuildFailure(why)));
    }

    /// Drives the golden through vector `v`, the first unrecorded one, and
    /// records its outputs, or the failure that stops it.
    fn record(&mut self, v: usize, values: &[u64], steps: &mut u64) {
        debug_assert_eq!(v, self.len, "the trace grows one vector at a time");
        for (port, value) in self.ports.inputs.iter().zip(values) {
            *steps += 1;
            if let Err(e) = set(&mut self.sim, port, *value) {
                return self.fail(v, Phase::Drive, format!("golden drive: {e}"));
            }
        }
        if let Some(c) = &self.ports.clock {
            *steps += 1;
            if let Err(e) = clock(&mut self.sim, c) {
                return self.fail(v, Phase::Clock, format!("golden clock: {e}"));
            }
        }
        self.bits.resize(((v + 1) * self.stride).div_ceil(64), 0);
        for (o, port) in self.ports.outputs.iter().enumerate() {
            match port {
                Ok(s) => {
                    let (offset, width) = self.fields[o];
                    let at = v * self.stride + offset;
                    let bits = self.sim.get_slot(*s).as_u64();
                    let (word, shift) = (at / 64, at % 64);
                    self.bits[word] |= bits << shift;
                    if shift + width as usize > 64 {
                        self.bits[word + 1] |= bits >> (64 - shift);
                    }
                }
                Err(e) => return self.fail(v, Phase::Read(o), format!("golden read: {e}")),
            }
        }
        self.len = v + 1;
    }

    /// The recorded value of output `o` at vector `v`.
    fn output(&self, v: usize, o: usize) -> u64 {
        let (offset, width) = self.fields[o];
        let at = v * self.stride + offset;
        let (word, shift) = (at / 64, at % 64);
        let mut bits = self.bits[word] >> shift;
        if shift + width as usize > 64 {
            bits |= self.bits[word + 1] << (64 - shift);
        }
        bits & Value::mask(width)
    }

    /// The verdict of a check that reaches `phase` of vector `v`, if the
    /// golden failed right there.
    fn fault_at(&self, v: usize, phase: Phase) -> Option<FunctionalVerdict> {
        match &self.fault {
            Some((at, p, verdict)) if *at == v && *p == phase => Some(verdict.clone()),
            _ => None,
        }
    }
}

/// Golden-side preparation shared across all candidate checks of a problem.
struct Prepared {
    gold_iface: Interface,
    plan: Plan,
    /// Parse/elab (and compile) and instantiate the golden once; errors
    /// are deferred to check time so the verdict ordering matches the
    /// historical single-shot path (interface mismatches win over golden
    /// failures).
    golden: Result<GoldenTrace, String>,
}

/// A problem's testbench, with the golden model prepared once.
///
/// `check` may be called for any number of candidates; each pays only its
/// own front-end cost plus one simulation of the candidate along the plan.
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
        let sequential = family.category() == Category::Sequential;
        ProblemBench::from_golden(&golden_source(family), sequential, mode, check)
    }

    fn from_golden(
        golden_src: &str,
        sequential: bool,
        mode: SimMode,
        check: CheckStrategy,
    ) -> ProblemBench {
        let mut stats = SimStats::default();
        let started = Instant::now();
        let file = parse(golden_src).map_err(|e| e.to_string());
        let prep = match file.and_then(|f| classify(&f, sequential).map(|c| (f, c))) {
            Ok((file, (gold_iface, gold_top))) => {
                let widths: Vec<u32> = gold_iface.inputs.iter().map(|(_, w)| *w).collect();
                let plan = Plan::new(check, sequential, &widths);
                let golden = SimDesign::from_file(&file, &gold_top, mode)
                    .map_err(|e| e.to_string())
                    .and_then(|design| {
                        stats.count_program(&design);
                        let sim = design.instantiate().map_err(|e| e.to_string())?;
                        Ok(GoldenTrace::new(sim, &gold_iface))
                    });
                Ok(Prepared { gold_iface, plan, golden })
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
        let prep = match &mut self.prep {
            Ok(p) => p,
            Err(v) => return v.clone(),
        };
        // The one parse of the candidate, timed with its build.
        let started = Instant::now();
        let file = parse(candidate_src);
        self.stats.compile_time += started.elapsed();
        let file = match file {
            Ok(f) => f,
            Err(e) => return FunctionalVerdict::BuildFailure(e.to_string()),
        };
        let matched = match_interface(&prep.gold_iface, &file, self.sequential);
        let (cand_iface, cand_top) = match matched {
            Ok(x) => x,
            Err(v) => return v,
        };
        let golden = match &mut prep.golden {
            Ok(g) => g,
            Err(e) => return FunctionalVerdict::BuildFailure(format!("golden: {e}")),
        };
        let mut cand = match build_candidate(&file, &cand_top, self.mode, &mut self.stats) {
            Ok(c) => c,
            Err(v) => return v,
        };
        if let Plan::Sweep(_) = prep.plan {
            self.stats.exhaustive_checks += 1;
        } else if let CheckStrategy::Equivalence { .. } = self.check {
            self.stats.fallback_checks += 1;
        }
        let run_started = Instant::now();
        let verdict = drive(golden, &prep.plan, &mut cand, &cand_iface, &mut self.stats);
        self.stats.run_time += run_started.elapsed();
        verdict
    }
}

/// Drives the candidate along the plan and compares its outputs, vector by
/// vector, with the golden trace, recording the trace first where no check
/// has been yet. The one drive loop of both strategies; the golden's own
/// failures surface at the phase where a live golden would have met them.
fn drive(
    golden: &mut GoldenTrace,
    plan: &Plan,
    cand: &mut SimInstance,
    iface: &Interface,
    stats: &mut SimStats,
) -> FunctionalVerdict {
    let ports = Ports::resolve(cand, iface);
    golden.reset(&mut stats.steps);
    if let Some(verdict) = golden.fault_at(0, Phase::Reset) {
        return verdict;
    }
    if let Err(e) = pulse(cand, &ports, &mut stats.steps) {
        return FunctionalVerdict::RuntimeFailure(format!("reset: {e}"));
    }
    let mut buf = Vec::new();
    for v in 0..plan.len() {
        stats.vectors += 1;
        let values = plan.values(v, &mut buf);
        if v < golden.len {
            stats.golden_replayed += 1;
        } else if golden.fault.is_none() {
            golden.record(v, values, &mut stats.steps);
        }
        if let Some(verdict) = golden.fault_at(v, Phase::Drive) {
            return verdict;
        }
        for (((name, _), port), value) in iface.inputs.iter().zip(&ports.inputs).zip(values) {
            stats.steps += 1;
            if let Err(e) = set(cand, port, *value) {
                return FunctionalVerdict::RuntimeFailure(format!("drive `{name}`: {e}"));
            }
        }
        if let Some(verdict) = golden.fault_at(v, Phase::Clock) {
            return verdict;
        }
        if let Some(c) = &ports.clock {
            stats.steps += 1;
            if let Err(e) = clock(cand, c) {
                return FunctionalVerdict::RuntimeFailure(format!("clock: {e}"));
            }
        }
        for (o, (name, port)) in iface.outputs.iter().zip(&ports.outputs).enumerate() {
            if let Some(verdict) = golden.fault_at(v, Phase::Read(o)) {
                return verdict;
            }
            let cv = match port {
                Ok(s) => cand.get_slot(*s).as_u64(),
                Err(e) => return FunctionalVerdict::RuntimeFailure(format!("read `{name}`: {e}")),
            };
            // Compared at the golden width: a wider candidate output passes
            // when its low bits agree and the rest are zero, i.e. when it
            // equals the golden value.
            if cv != golden.output(v, o) {
                return FunctionalVerdict::Mismatch { vector: v, output: o };
            }
        }
    }
    FunctionalVerdict::Pass
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
            // A full-width output: bit 63 is data, not overflow.
            DesignFamily::BinToGray { width: 64 },
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
        assert_eq!(bench.stats.golden_replayed, 2 * 48, "the first check records the golden");
        assert!(bench.stats.steps > bench.stats.vectors, "steps include drives and clocks");
    }

    #[test]
    fn compile_fallbacks_are_counted_and_change_no_verdict() {
        // A part-select with a variable bound: the compiler declines it,
        // so a `Compiled` build runs on the reference engine.
        let declined =
            "module m(input [3:0] x, input [1:0] s, output [3:0] y); assign y = x[s:0]; endmodule";
        let design = SimDesign::build(declined, "m", SimMode::Compiled).unwrap();
        assert!(!design.is_compiled());
        let check = CheckStrategy::default();
        let mut compiled = ProblemBench::from_golden(declined, false, SimMode::Compiled, check);
        let mut reference = ProblemBench::from_golden(declined, false, SimMode::Reference, check);
        assert_eq!(compiled.stats.compile_fallbacks, 1, "the golden fell back");
        assert_eq!(compiled.check(declined), reference.check(declined));
        assert_eq!(compiled.stats.compile_fallbacks, 2, "and so did the candidate");
        assert_eq!(reference.stats.compile_fallbacks, 0, "nothing to fall back from");

        let family = DesignFamily::Counter { width: 8 };
        let mut bench = ProblemBench::new(&family, SimMode::Compiled);
        assert!(bench.check(&golden_source(&family)).is_pass());
        assert_eq!(bench.stats.compile_fallbacks, 0, "golden designs compile");
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

    /// The live-golden, by-name drive loop the golden trace replaced, kept
    /// as its oracle: a fresh golden instance per check, driven beside the
    /// candidate through `set`/`clock`/`get` on every vector.
    mod live {
        use super::super::*;
        use pyranet_verilog::Value;

        /// Checks `src` against `golden_src` the way the bench did before
        /// the trace; returns the verdict and the vectors driven.
        pub(super) fn check(
            golden_src: &str,
            sequential: bool,
            mode: SimMode,
            strategy: CheckStrategy,
            src: &str,
        ) -> (FunctionalVerdict, u64) {
            let gold = parse(golden_src).map_err(|e| e.to_string());
            let (gold_file, (gold_iface, gold_top)) =
                match gold.and_then(|f| classify(&f, sequential).map(|c| (f, c))) {
                    Ok(x) => x,
                    Err(e) => return (FunctionalVerdict::BuildFailure(format!("golden: {e}")), 0),
                };
            let file = match parse(src) {
                Ok(f) => f,
                Err(e) => return (FunctionalVerdict::BuildFailure(e.to_string()), 0),
            };
            let (cand_iface, cand_top) = match match_interface(&gold_iface, &file, sequential) {
                Ok(x) => x,
                Err(v) => return (v, 0),
            };
            let golden =
                SimDesign::from_file(&gold_file, &gold_top, mode).and_then(|d| d.instantiate());
            let mut gold = match golden {
                Ok(g) => g,
                Err(e) => return (FunctionalVerdict::BuildFailure(format!("golden: {e}")), 0),
            };
            let mut cand = match build_candidate(&file, &cand_top, mode, &mut SimStats::default()) {
                Ok(c) => c,
                Err(v) => return (v, 0),
            };
            let mut live = Live { strategy, sequential, vectors: 0 };
            let verdict = live.drive(&mut gold, &gold_iface, &mut cand, &cand_iface);
            (verdict, live.vectors)
        }

        struct Live {
            strategy: CheckStrategy,
            sequential: bool,
            vectors: u64,
        }

        impl Live {
            fn drive(
                &mut self,
                gold: &mut SimInstance,
                gold_iface: &Interface,
                cand: &mut SimInstance,
                cand_iface: &Interface,
            ) -> FunctionalVerdict {
                if let CheckStrategy::Equivalence { max_input_bits } = self.strategy {
                    if !self.sequential {
                        let widths: Vec<u32> = gold_iface.inputs.iter().map(|(_, w)| *w).collect();
                        if let Some(sweep) = exhaustive_assignments(&widths, max_input_bits) {
                            for (v, values) in sweep.enumerate() {
                                self.vectors += 1;
                                if let Some(verdict) = self.step_and_compare(
                                    gold, gold_iface, cand, cand_iface, v, &values,
                                ) {
                                    return verdict;
                                }
                            }
                            return FunctionalVerdict::Pass;
                        }
                    }
                }
                let mut rng = ChaCha8Rng::seed_from_u64(0x57EE7);
                if self.sequential {
                    let pulse = |sim: &mut SimInstance, iface: &Interface| -> Result<(), String> {
                        if let Some(r) = &iface.reset {
                            sim.set(r, 1).map_err(|e| e.to_string())?;
                        }
                        if let Some(c) = &iface.clock {
                            sim.clock(c).map_err(|e| e.to_string())?;
                        }
                        if let Some(r) = &iface.reset {
                            sim.set(r, 0).map_err(|e| e.to_string())?;
                        }
                        Ok(())
                    };
                    if let Err(e) = pulse(gold, gold_iface) {
                        return FunctionalVerdict::BuildFailure(format!("golden reset: {e}"));
                    }
                    if let Err(e) = pulse(cand, cand_iface) {
                        return FunctionalVerdict::RuntimeFailure(format!("reset: {e}"));
                    }
                }
                for v in 0..VECTORS {
                    self.vectors += 1;
                    let values: Vec<u64> = gold_iface
                        .inputs
                        .iter()
                        .map(|(_, w)| rng.random::<u64>() & Value::mask(*w))
                        .collect();
                    if let Some(verdict) =
                        self.step_and_compare(gold, gold_iface, cand, cand_iface, v, &values)
                    {
                        return verdict;
                    }
                }
                FunctionalVerdict::Pass
            }

            fn step_and_compare(
                &mut self,
                gold: &mut SimInstance,
                gold_iface: &Interface,
                cand: &mut SimInstance,
                cand_iface: &Interface,
                v: usize,
                values: &[u64],
            ) -> Option<FunctionalVerdict> {
                use FunctionalVerdict::{BuildFailure, Mismatch, RuntimeFailure};
                for ((gn, _), val) in gold_iface.inputs.iter().zip(values) {
                    if let Err(e) = gold.set(gn, *val) {
                        return Some(BuildFailure(format!("golden drive: {e}")));
                    }
                }
                for ((cn, _), val) in cand_iface.inputs.iter().zip(values) {
                    if let Err(e) = cand.set(cn, *val) {
                        return Some(RuntimeFailure(format!("drive `{cn}`: {e}")));
                    }
                }
                if self.sequential {
                    if let Some(c) = &gold_iface.clock {
                        if let Err(e) = gold.clock(c) {
                            return Some(BuildFailure(format!("golden clock: {e}")));
                        }
                    }
                    if let Some(c) = &cand_iface.clock {
                        if let Err(e) = cand.clock(c) {
                            return Some(RuntimeFailure(format!("clock: {e}")));
                        }
                    }
                }
                for (o, (gn, cn)) in gold_iface.outputs.iter().zip(&cand_iface.outputs).enumerate()
                {
                    let gv = match gold.get(gn) {
                        Ok(v) => v,
                        Err(e) => return Some(BuildFailure(format!("golden read: {e}"))),
                    };
                    let cv = match cand.get(cn) {
                        Ok(v) => v,
                        Err(e) => return Some(RuntimeFailure(format!("read `{cn}`: {e}"))),
                    };
                    // compare at the golden width (a wider candidate output
                    // is tolerated if the low bits agree and the rest are
                    // zero)
                    let w = gv.width();
                    if gv.as_u64() != (cv.as_u64() & Value::mask(w))
                        || (w < 64 && cv.as_u64() >> w != 0)
                    {
                        return Some(Mismatch { vector: v, output: o });
                    }
                }
                None
            }
        }
    }

    /// A candidate with the golden's ports whose every output is the
    /// `fill` bit repeated. Of the all-ones and all-zeros pair, at least
    /// one mismatches the golden's first output at vector 0.
    fn constant_candidate(family: &DesignFamily, fill: char) -> String {
        let file = parse(&golden_source(family)).expect("golden parses");
        let mut ports = Vec::new();
        let mut body = String::new();
        for p in &file.modules[0].ports {
            let w = p.range.as_ref().and_then(const_width).unwrap_or(1);
            let dir = if p.dir == PortDir::Input { "input" } else { "output" };
            ports.push(format!("{dir} [{}:0] {}", w - 1, p.name));
            if p.dir == PortDir::Output {
                body.push_str(&format!("  assign {} = {{{w}{{1'b{fill}}}}};\n", p.name));
            }
        }
        format!("module konst({});\n{body}endmodule\n", ports.join(", "))
    }

    /// Swaps one stand-alone `+ - & | ^` after the module keyword for its
    /// counterpart (`+`↔`-`, `&`↔`|`, `^`→`&`), the `pick`-th (mod count).
    fn swap_operator(src: &str, pick: usize) -> Option<String> {
        let b = src.as_bytes();
        let is_op = |c: &u8| b"+-&|^~!=<>:*/%".contains(c);
        let sites: Vec<usize> = (src.find("module")?..b.len())
            .filter(|&i| {
                matches!(b[i], b'+' | b'-' | b'&' | b'|' | b'^')
                    && !is_op(&b[i - 1])
                    && !b.get(i + 1).is_some_and(is_op)
            })
            .collect();
        let at = *sites.get(pick % sites.len().max(1))?;
        let swapped = match b[at] {
            b'+' => "-",
            b'-' => "+",
            b'&' => "|",
            _ => "&",
        };
        Some(format!("{}{swapped}{}", &src[..at], &src[at + 1..]))
    }

    /// Candidates of every class for one problem, the vector-0 failures
    /// first: constant outputs, golden re-renders, `degrade_text`, syntax-
    /// and dependency-broken re-renders, and operator-swap mutants.
    fn candidates_of_every_class(family: &DesignFamily, seed: u64) -> Vec<String> {
        use pyranet_corpus::defect::{
            degrade_text, inject_dependency_issue_checked, inject_syntax_error_checked,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rerender = |rng: &mut ChaCha8Rng| {
            let style = StyleOptions::sampled(rng.random::<f64>(), rng);
            generate(family, &style, rng).source
        };
        let mut out = vec![constant_candidate(family, '1'), constant_candidate(family, '0')];
        for _ in 0..2 {
            out.push(rerender(&mut rng));
        }
        let base = rerender(&mut rng);
        out.push(degrade_text(&base, 0.8, &mut rng));
        out.push(inject_syntax_error_checked(&base, &mut rng).source);
        out.push(inject_dependency_issue_checked(&base, &mut rng).source);
        for _ in 0..3 {
            let base = rerender(&mut rng);
            out.extend(swap_operator(&base, rng.random()));
        }
        out
    }

    #[test]
    fn golden_trace_verdicts_equal_the_live_golden_oracle() {
        let strategies = [
            CheckStrategy::Stimulus,
            CheckStrategy::Equivalence { max_input_bits: 12 },
            CheckStrategy::Equivalence { max_input_bits: 16 },
        ];
        for problem in crate::problems::machine_split() {
            let family = &problem.family;
            let sequential = family.category() == Category::Sequential;
            let golden = golden_source(family);
            let cands = candidates_of_every_class(family, 0xC0DE);
            for strategy in strategies {
                for mode in [SimMode::Compiled, SimMode::Reference] {
                    let at = format!("{} {strategy:?} {mode}", problem.id);
                    let oracle: Vec<(FunctionalVerdict, u64)> = cands
                        .iter()
                        .map(|c| live::check(&golden, sequential, mode, strategy, c))
                        .collect();
                    assert!(
                        oracle[..2].iter().any(|(v, _)| matches!(
                            v,
                            FunctionalVerdict::Mismatch { vector: 0, .. }
                        )),
                        "{at}: no candidate fails at vector 0: {oracle:?}"
                    );
                    // One shared bench, forward then reverse order, and a
                    // fresh bench per candidate.
                    let mut forward = ProblemBench::new_with_check(family, mode, strategy);
                    let mut reverse = ProblemBench::new_with_check(family, mode, strategy);
                    let reversed: Vec<FunctionalVerdict> =
                        cands.iter().rev().map(|c| reverse.check(c)).collect();
                    for (i, (c, (want, vectors))) in cands.iter().zip(&oracle).enumerate() {
                        let before = forward.stats.vectors;
                        assert_eq!(&forward.check(c), want, "{at}: forward, candidate {i}\n{c}");
                        assert_eq!(forward.stats.vectors - before, *vectors, "{at}: vectors {i}");
                        assert_eq!(&reversed[cands.len() - 1 - i], want, "{at}: reverse, {i}\n{c}");
                        let mut fresh = ProblemBench::new_with_check(family, mode, strategy);
                        assert_eq!(&fresh.check(c), want, "{at}: fresh, candidate {i}\n{c}");
                        assert_eq!(fresh.stats.golden_replayed, 0, "{at}: nothing to replay");
                    }
                    // The golden simulates each vector once per bench: as
                    // far as the furthest candidate got, whatever the order.
                    let furthest = oracle.iter().map(|(_, n)| *n).max().unwrap_or(0);
                    for bench in [&forward, &reverse] {
                        let recorded = bench.stats.vectors - bench.stats.golden_replayed;
                        assert_eq!(recorded, furthest, "{at}: golden vectors simulated");
                    }
                }
            }
        }
    }

    #[test]
    fn golden_failures_surface_where_the_live_golden_met_them() {
        // Goldens that fail mid-plan: a loop enabled by an input (drive
        // phase), by a register (clock phase) and by the reset value
        // (reset pulse). Candidates fail before, at and after those points;
        // every verdict must be the live loop's.
        let loop_on_input = "module g(input [1:0] a, output y);\n  wire n;\n  \
                             assign n = (a == 2'd2) ? ~n : 1'b0;\n  assign y = n ^ a[0];\n\
                             endmodule\n";
        let on_input = |cond: &str| {
            format!(
                "module c(input [1:0] a, output y);\n  wire n;\n  \
                 assign n = {cond} ? ~n : 1'b0;\n  assign y = n ^ a[0];\nendmodule\n"
            )
        };
        let loop_on_register = |reset_value: char| {
            format!(
                "module g(input clk, input rst, input d, output y);\n  reg q;\n  wire n;\n  \
                 always @(posedge clk) if (rst) q <= 1'b{reset_value}; else q <= d;\n  \
                 assign n = q ? ~n : 1'b0;\n  assign y = n;\nendmodule\n"
            )
        };
        let seq_cand = |body: &str| {
            format!("module c(input clk, input rst, input d, output y);\n{body}\nendmodule\n")
        };
        let mut cases = vec![
            (loop_on_input.to_owned(), false, on_input("1'b0")),
            (loop_on_input.to_owned(), false, on_input("(a == 2'd1)")),
            (loop_on_input.to_owned(), false, on_input("(a == 2'd2)")),
            (loop_on_input.to_owned(), false, on_input("(a == 2'd3)")),
            (
                loop_on_input.to_owned(),
                false,
                "module c(input [1:0] a, output y); assign y = a[1]; endmodule".to_owned(),
            ),
        ];
        for reset_value in ['0', '1'] {
            for body in ["  assign y = 1'b0;", "  assign y = 1'b1;", "  assign y = d;"] {
                cases.push((loop_on_register(reset_value), true, seq_cand(body)));
            }
        }
        let mut seen = String::new();
        for (golden, sequential, cand) in &cases {
            for strategy in
                [CheckStrategy::Stimulus, CheckStrategy::Equivalence { max_input_bits: 12 }]
            {
                for mode in [SimMode::Compiled, SimMode::Reference] {
                    let (want, _) = live::check(golden, *sequential, mode, strategy, cand);
                    let mut bench = ProblemBench::from_golden(golden, *sequential, mode, strategy);
                    assert_eq!(bench.check(cand), want, "{strategy:?} {mode}:\n{cand}");
                    assert_eq!(bench.check(cand), want, "replayed, {strategy:?} {mode}:\n{cand}");
                    seen.push_str(&format!("{want:?}\n"));
                }
            }
        }
        for phase in ["golden reset", "golden drive", "golden clock", "drive `a`", "Mismatch"] {
            assert!(seen.contains(phase), "no case ends at {phase}:\n{seen}");
        }
    }
}
