//! Simulation-backend benchmark: the testbench scoring workload (random
//! stimulus vectors through the golden models of the eval problems) timed
//! on both simulation backends, written to `BENCH_sim.json` (rows
//! `reference` and `compiled`, each broken down per design as
//! `<row>/<problem id>`).
//!
//! * **reference** — the event-driven interpreter walking the elaborated
//!   AST for every evaluation.
//! * **compiled** — the bytecode VM: each design lowered once to flat
//!   stack-machine instruction streams with fixed evaluation schedules,
//!   then run with pre-sized, allocation-free state.
//!
//! Both backends are driven with identical per-design RNG streams and
//! must produce identical output traces (asserted every repeat) — the
//! speedup is pure engineering, not a semantics change. Vectors/sec
//! counts stimulus vectors (one input assignment sweep + optional clock
//! edge + full output readback each).
//!
//! Honours `PYRANET_SCALE` (`quick` for the CI smoke run, `full` default).

use pyranet::eval::machine_split;
use pyranet::verilog::{SimDesign, SimMode};
use pyranet_bench::{best_of, Report, Row, Scale, Secs};
use pyranet_corpus::gen::generate;
use pyranet_corpus::style::StyleOptions;
use pyranet_exec::stream_seed_str;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One timed pass: instantiate the design and drive `vectors` random
/// stimulus vectors, returning the full output trace for the identity
/// assertion. Instantiation is inside the timed region — it is per-
/// candidate work in the eval harness, and both backends pay it.
fn drive(
    design: &SimDesign,
    inputs: &[(String, bool)],
    outputs: &[String],
    clock: Option<&str>,
    reset: Option<&str>,
    vectors: usize,
    mut rng: ChaCha8Rng,
) -> Vec<u64> {
    let mut sim = design.instantiate().expect("instantiate golden design");
    if let (Some(clk), Some(rst)) = (clock, reset) {
        sim.set(rst, 1).expect("set reset");
        sim.clock(clk).expect("reset pulse");
        sim.set(rst, 0).expect("clear reset");
    }
    let mut trace = Vec::with_capacity(vectors * outputs.len());
    for _ in 0..vectors {
        for (name, is_clock) in inputs {
            if !is_clock {
                sim.set(name, rng.random::<u64>()).expect("set input");
            }
        }
        if let Some(clk) = clock {
            sim.clock(clk).expect("clock");
        }
        for name in outputs {
            trace.push(sim.get(name).expect("read output").as_u64());
        }
    }
    trace
}

fn main() {
    let scale = Scale::from_env();
    let (n_designs, vectors, repeats) = match scale {
        Scale::Quick => (6usize, 300usize, 2usize),
        Scale::Full => (15, 2_000, 3),
    };

    let problems: Vec<_> = machine_split().into_iter().take(n_designs).collect();
    let mut report = Report::new("sim", scale, repeats);
    report.param("designs", problems.len()).param("vectors_per_design", vectors);
    // Per design: id, clockedness, reference and compiled seconds.
    let mut per_design = Vec::new();
    for problem in &problems {
        // Same seed as the eval testbench, so this benchmarks the exact
        // golden models the harness scores against.
        let mut gen_rng = ChaCha8Rng::seed_from_u64(0x601D);
        let golden = generate(&problem.family, &StyleOptions::clean(), &mut gen_rng);
        let clock = golden.port("clock").map(str::to_owned);
        let reset = golden.port("reset").map(str::to_owned);

        let build = |mode| {
            SimDesign::build(&golden.source, &golden.module.name, mode).expect("build golden")
        };
        let reference = build(SimMode::Reference);
        let compiled = build(SimMode::Compiled);
        assert!(compiled.is_compiled(), "golden model `{}` fell back to reference", problem.id);

        let probe = reference.instantiate().expect("probe interface");
        let inputs: Vec<(String, bool)> = probe
            .inputs()
            .iter()
            .map(|n| (n.clone(), Some(n.as_str()) == clock.as_deref()))
            .collect();
        let outputs: Vec<String> = probe.outputs().to_vec();
        drop(probe);

        let run = |design: &SimDesign, expect: Option<&[u64]>| {
            best_of(repeats, |timer| {
                let stimulus = ChaCha8Rng::seed_from_u64(stream_seed_str(0x51AB, &problem.id));
                let (clock, reset) = (clock.as_deref(), reset.as_deref());
                let trace = timer
                    .time(|| drive(design, &inputs, &outputs, clock, reset, vectors, stimulus));
                if let Some(expect) = expect {
                    assert_eq!(trace, expect, "backends diverged on {}", problem.id);
                }
                trace
            })
        };
        let reference = run(&reference, None);
        let compiled = run(&compiled, Some(&reference.out));
        eprintln!(
            "{:<24} {vectors:>5} vectors: reference {:.4}s, compiled {:.4}s",
            problem.id, reference.secs.fastest, compiled.secs.fastest,
        );
        per_design.push((problem.id.clone(), clock.is_some(), [reference.secs, compiled.secs]));
    }

    // Backend totals first, then the per-design breakdown.
    let backends = ["reference", "compiled"];
    let work = |designs: usize| (designs * vectors) as u64;
    for (i, name) in backends.iter().enumerate() {
        let secs: Secs = per_design.iter().map(|d| d.2[i]).sum();
        let row = report
            .push(Row::new(*name, secs, work(per_design.len()), "vectors").baseline("reference"));
        eprintln!(
            "total: {name} {:.3}s ({:.0} vec/s, {:.2}x reference)",
            secs.fastest,
            row.per_sec(),
            row.speedup().unwrap_or(1.0)
        );
    }
    for (id, clocked, secs) in &per_design {
        for (name, secs) in backends.iter().zip(secs) {
            report.push(
                Row::new(format!("{name}/{id}"), *secs, work(1), "vectors")
                    .baseline(format!("reference/{id}"))
                    .label("clocked", *clocked),
            );
        }
    }
    report.write();
}
