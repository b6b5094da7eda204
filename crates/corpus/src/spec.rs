//! Correct-by-construction spec pairs: truth-table and FSM-transition-table
//! descriptions rendered *from* the golden elaborated design.
//!
//! The ordinary families pair code with a phrasal description rendered from
//! the structured spec ([`crate::describe`]). The families here go the
//! other way: the description is an exhaustive behavioural table produced
//! by sweeping the golden design through the compiled simulator, then
//! re-verified row by row against a reference-engine build of the same
//! source. A (spec, code) pair leaves this module only if both backends
//! agree on every row — a spec/code mismatch is a generator bug and panics,
//! the same contract `generate` applies to unparseable templates.

use crate::families::DesignFamily;
use crate::gen::{generate, Design};
use crate::style::StyleOptions;
use pyranet_verilog::ast::{const_width, Module, PortDir};
use pyranet_verilog::sim::exhaustive_assignments;
use pyranet_verilog::SimDesign;
use pyranet_verilog::SimMode;
use rand::Rng;
use std::fmt::Write as _;

/// Hard cap on total input bits for a truth-table base (64 rows). The
/// [`DesignFamily::spec_catalog`] bases all sit at or under 5 bits; the cap
/// exists so a future catalog edit cannot silently produce a megabyte
/// description.
pub const SPEC_TABLE_BIT_CAP: u32 = 6;

/// Renders a truth-table spec pair for a small combinational `base`.
///
/// The code side is the base family's design, generated as usual; the
/// description is its complete truth table as simulated, verified against
/// the reference engine before returning.
///
/// # Panics
///
/// Panics when `base` is not combinational, exceeds [`SPEC_TABLE_BIT_CAP`]
/// input bits, fails to simulate, or — the whole point — when the compiled
/// and reference backends disagree on any row. All of these are generator
/// bugs, not data conditions.
pub fn generate_truth_table<R: Rng>(
    base: &DesignFamily,
    style: &StyleOptions,
    rng: &mut R,
) -> Design {
    assert!(
        !matches!(base, DesignFamily::TruthTable { .. } | DesignFamily::FsmTable { .. }),
        "spec families do not nest: {base:?}"
    );
    let mut design = generate(base, style, rng);
    let inputs = data_ports(&design.module, PortDir::Input);
    let outputs = data_ports(&design.module, PortDir::Output);
    assert!(!inputs.is_empty() && !outputs.is_empty(), "{base:?} has no I/O");

    let widths: Vec<u32> = inputs.iter().map(|(_, w)| *w).collect();
    let rows = sweep_combinational(
        &design.source,
        &design.module.name,
        SimMode::Compiled,
        &inputs,
        &outputs,
    );

    // Differential verification: the spec rows must reproduce on the
    // reference engine. Compiled is the renderer, Reference the oracle.
    let oracle = sweep_combinational(
        &design.source,
        &design.module.name,
        SimMode::Reference,
        &inputs,
        &outputs,
    );
    for (i, (r, o)) in rows.iter().zip(oracle.iter()).enumerate() {
        assert_eq!(r, o, "truth-table row {i} of {base:?} fails re-verification");
    }

    let mut d = String::new();
    let _ = writeln!(
        d,
        "{} a Verilog module named `{}` implementing exactly the truth table below.",
        opening(rng),
        design.module.name
    );
    let _ = writeln!(d, "Inputs: {}. Outputs: {}.", port_list(&inputs), port_list(&outputs));
    let _ = writeln!(d, "All values are in binary, one row per input assignment.");
    let _ = writeln!(d);
    let in_hdr: Vec<&str> = inputs.iter().map(|(n, _)| n.as_str()).collect();
    let out_hdr: Vec<&str> = outputs.iter().map(|(n, _)| n.as_str()).collect();
    let _ = writeln!(d, "{} | {}", in_hdr.join(" "), out_hdr.join(" "));
    let mut sweep = exhaustive_assignments(&widths, SPEC_TABLE_BIT_CAP)
        .unwrap_or_else(|| panic!("{base:?} exceeds the spec bit cap"));
    for (ins, outs) in rows.iter() {
        let _ = sweep.next();
        let _ = writeln!(d, "{} | {}", bits_row(ins, &inputs), bits_row(outs, &outputs));
    }

    design.family = DesignFamily::TruthTable { base: Box::new(base.clone()) };
    design.description = d.trim_end().to_owned();
    design
}

/// Renders an FSM transition-table spec pair for a sequence detector.
///
/// For every input bit string of the pattern's length, the golden detector
/// is driven from reset (one bit per rising clock edge, first listed bit
/// first) and the hit output after each edge is tabulated. Rows are
/// verified against the reference engine before returning.
///
/// # Panics
///
/// Same contract as [`generate_truth_table`]: simulation failures or any
/// compiled/reference row disagreement are generator bugs and panic.
pub fn generate_fsm_table<R: Rng>(pattern: &[bool], style: &StyleOptions, rng: &mut R) -> Design {
    let base = DesignFamily::SequenceDetector { pattern: pattern.to_vec() };
    let mut design = generate(&base, style, rng);
    let clk = design.port("clock").expect("detector has a clock").to_owned();
    let rst = design.port("reset").expect("detector has a reset").to_owned();
    let din = design.port("data_in").expect("detector has a serial input").to_owned();
    let hit = design.port("hit").expect("detector has a hit output").to_owned();

    let len = pattern.len() as u32;
    let rows = sweep_detector(
        &design.source,
        &design.module.name,
        SimMode::Compiled,
        &clk,
        &rst,
        &din,
        &hit,
        len,
    );
    let oracle = sweep_detector(
        &design.source,
        &design.module.name,
        SimMode::Reference,
        &clk,
        &rst,
        &din,
        &hit,
        len,
    );
    for (i, (r, o)) in rows.iter().zip(oracle.iter()).enumerate() {
        assert_eq!(r, o, "fsm-table row {i} of {base:?} fails re-verification");
    }

    let mut d = String::new();
    let _ = writeln!(
        d,
        "{} a clocked Verilog module named `{}` with clock `{clk}`, synchronous-read \
         reset `{rst}`, serial input `{din}` and output `{hit}` that behaves exactly \
         per the table below.",
        opening(rng),
        design.module.name
    );
    let _ = writeln!(
        d,
        "Each row starts from reset ({rst} held high for one rising edge of {clk}, then \
         released); the {din} column lists the bits applied one per subsequent rising \
         edge, first bit first, and the {hit} column lists the value of {hit} sampled \
         after each of those edges."
    );
    let _ = writeln!(d);
    let _ = writeln!(d, "{din} | {hit}");
    for (ins, hits) in rows.iter() {
        let istr: String = ins.iter().map(|b| if *b { '1' } else { '0' }).collect();
        let hstr: String = hits.iter().map(|b| if *b { '1' } else { '0' }).collect();
        let _ = writeln!(d, "{istr} | {hstr}");
    }

    design.family = DesignFamily::FsmTable { pattern: pattern.to_vec() };
    design.description = d.trim_end().to_owned();
    design
}

fn opening<R: Rng>(rng: &mut R) -> &'static str {
    match rng.random_range(0..3) {
        0 => "Write",
        1 => "Implement",
        _ => "Design",
    }
}

/// (name, width) of the module's ports in declaration order for one
/// direction, widths const-evaluated from the range expressions.
fn data_ports(module: &Module, dir: PortDir) -> Vec<(String, u32)> {
    module
        .ports
        .iter()
        .filter(|p| p.dir == dir)
        .map(|p| {
            let w = p.range.as_ref().map(|r| {
                const_width(r).unwrap_or_else(|| panic!("non-constant port range on {}", p.name))
            });
            (p.name.clone(), w.unwrap_or(1))
        })
        .collect()
}

fn port_list(ports: &[(String, u32)]) -> String {
    ports
        .iter()
        .map(|(n, w)| if *w == 1 { format!("`{n}` (1 bit)") } else { format!("`{n}` ({w} bits)") })
        .collect::<Vec<_>>()
        .join(", ")
}

fn bits_row(values: &[u64], ports: &[(String, u32)]) -> String {
    values
        .iter()
        .zip(ports.iter())
        .map(|(v, (_, w))| format!("{v:0w$b}", w = *w as usize))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Sweeps every input assignment through one backend, returning
/// (input values, output values) rows in counter order.
fn sweep_combinational(
    src: &str,
    top: &str,
    mode: SimMode,
    inputs: &[(String, u32)],
    outputs: &[(String, u32)],
) -> Vec<(Vec<u64>, Vec<u64>)> {
    let design = SimDesign::build(src, top, mode)
        .unwrap_or_else(|e| panic!("golden {top} fails to build ({mode}): {e}"));
    let mut sim = design.instantiate().unwrap_or_else(|e| panic!("{top}: {e}"));
    let widths: Vec<u32> = inputs.iter().map(|(_, w)| *w).collect();
    let sweep = exhaustive_assignments(&widths, SPEC_TABLE_BIT_CAP)
        .unwrap_or_else(|| panic!("{top} exceeds the {SPEC_TABLE_BIT_CAP}-bit spec cap"));
    let mut rows = Vec::with_capacity(sweep.len());
    for values in sweep {
        for ((name, _), v) in inputs.iter().zip(values.iter()) {
            sim.set(name, *v).unwrap_or_else(|e| panic!("{top}.{name}: {e}"));
        }
        let outs = outputs
            .iter()
            .map(|(name, _)| sim.get(name).unwrap_or_else(|e| panic!("{top}.{name}: {e}")).as_u64())
            .collect();
        rows.push((values, outs));
    }
    rows
}

/// Drives the detector from reset over every input bit string of length
/// `len`, returning (input bits, hit-after-each-edge) rows.
#[allow(clippy::too_many_arguments)]
fn sweep_detector(
    src: &str,
    top: &str,
    mode: SimMode,
    clk: &str,
    rst: &str,
    din: &str,
    hit: &str,
    len: u32,
) -> Vec<(Vec<bool>, Vec<bool>)> {
    let design = SimDesign::build(src, top, mode)
        .unwrap_or_else(|e| panic!("golden {top} fails to build ({mode}): {e}"));
    let mut rows = Vec::with_capacity(1usize << len);
    for word in 0u64..(1 << len) {
        let mut sim = design.instantiate().unwrap_or_else(|e| panic!("{top}: {e}"));
        sim.set(rst, 1).unwrap_or_else(|e| panic!("{top}.{rst}: {e}"));
        sim.clock(clk).unwrap_or_else(|e| panic!("{top}.{clk}: {e}"));
        sim.set(rst, 0).unwrap_or_else(|e| panic!("{top}.{rst}: {e}"));
        let mut ins = Vec::with_capacity(len as usize);
        let mut hits = Vec::with_capacity(len as usize);
        // First listed bit first: bit (len-1) of the counter word leads.
        for i in (0..len).rev() {
            let b = (word >> i) & 1 == 1;
            ins.push(b);
            sim.set(din, u64::from(b)).unwrap_or_else(|e| panic!("{top}.{din}: {e}"));
            sim.clock(clk).unwrap_or_else(|e| panic!("{top}.{clk}: {e}"));
            hits.push(sim.get(hit).unwrap_or_else(|e| panic!("{top}.{hit}: {e}")).as_u64() == 1);
        }
        rows.push((ins, hits));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyranet_verilog::check_source;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn whole_spec_catalog_generates_and_verifies() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5bec);
        for family in DesignFamily::spec_catalog() {
            let d = generate(&family, &StyleOptions::clean(), &mut rng);
            assert!(check_source(&d.source).is_clean(), "{family:?}:\n{}", d.source);
            assert_eq!(d.module.name, family.module_name());
            assert_eq!(d.family, family);
            assert!(
                d.description.contains('|'),
                "{family:?} description has no table:\n{}",
                d.description
            );
        }
    }

    #[test]
    fn truth_table_rows_match_hand_computed_half_adder() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let fam = DesignFamily::TruthTable { base: Box::new(DesignFamily::HalfAdder) };
        let d = generate(&fam, &StyleOptions::clean(), &mut rng);
        // 2 inputs -> 4 rows; half adder: sum = a^b, carry = a&b. First
        // input increments fastest (counter low bits first).
        for row in ["0 0 | 0 0", "1 0 | 1 0", "0 1 | 1 0", "1 1 | 0 1"] {
            assert!(d.description.contains(row), "missing row {row:?} in:\n{}", d.description);
        }
    }

    #[test]
    fn truth_table_row_count_is_exhaustive() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let fam = DesignFamily::TruthTable {
            base: Box::new(DesignFamily::Parity { width: 4, even: true }),
        };
        let d = generate(&fam, &StyleOptions::clean(), &mut rng);
        let table_rows = d
            .description
            .lines()
            .filter(|l| l.contains('|') && l.chars().next().is_some_and(|c| c == '0' || c == '1'))
            .count();
        assert_eq!(table_rows, 16, "4-bit parity sweeps 16 rows:\n{}", d.description);
    }

    #[test]
    fn fsm_table_matches_detector_semantics() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let pat = vec![true, false, true];
        let fam = DesignFamily::FsmTable { pattern: pat.clone() };
        let d = generate(&fam, &StyleOptions::clean(), &mut rng);
        // Driving exactly the pattern lights hit on the final bit only.
        assert!(d.description.contains("101 | 001"), "{}", d.description);
        // And all 8 strings of length 3 are tabulated.
        for word in 0..8u32 {
            let s: String =
                (0..3).rev().map(|i| if (word >> i) & 1 == 1 { '1' } else { '0' }).collect();
            assert!(d.description.contains(&format!("{s} | ")), "missing {s}:\n{}", d.description);
        }
    }

    #[test]
    fn spec_pairs_survive_sloppy_styles() {
        // Style degradation renames ports and drops comments but must not
        // change behaviour — tables re-verify under every style.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for family in DesignFamily::spec_catalog().into_iter().take(4) {
            let style = StyleOptions::sampled(1.0, &mut rng);
            let d = generate(&family, &style, &mut rng);
            assert!(check_source(&d.source).is_compilable(), "{family:?}:\n{}", d.source);
        }
    }
}
