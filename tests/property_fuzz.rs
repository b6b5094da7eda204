//! Property-based fuzzing across the substrate boundaries: random
//! parameters into the generators, random stimulus into paired
//! simulations, random pools into the pipeline.

use proptest::prelude::*;
use pyranet::corpus::families::DesignFamily;
use pyranet::corpus::gen::generate;
use pyranet::corpus::style::StyleOptions;
use pyranet::verilog::{check_source, parse, Simulator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any parameterisation of the width-generic families yields clean,
    /// parseable, checkable Verilog.
    #[test]
    fn arbitrary_widths_generate_clean_code(
        width in 2u32..12,
        seed in 0u64..1_000,
    ) {
        let families = [
            DesignFamily::BehavioralAdder { width },
            DesignFamily::Comparator { width },
            DesignFamily::Counter { width },
            DesignFamily::ShiftRegister { width },
            DesignFamily::Parity { width, even: seed % 2 == 0 },
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for family in families {
            let d = generate(&family, &StyleOptions::clean(), &mut rng);
            prop_assert!(check_source(&d.source).is_clean(), "{family:?}\n{}", d.source);
        }
    }

    /// The behavioural adder simulates exactly like Rust integer addition
    /// for every width and operand pair.
    #[test]
    fn adder_matches_rust_arithmetic(
        width in 2u32..16,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        cin in 0u64..=1,
    ) {
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let d = generate(
            &DesignFamily::BehavioralAdder { width },
            &StyleOptions::clean(),
            &mut rng,
        );
        let mut sim = Simulator::from_source(&d.source, &format!("adder_{width}"))
            .expect("build adder");
        sim.set("a", a).expect("set");
        sim.set("b", b).expect("set");
        sim.set("cin", cin).expect("set");
        let sum = sim.get("sum").expect("get").as_u64();
        let cout = sim.get("cout").expect("get").as_u64();
        prop_assert_eq!((cout << width) | sum, a + b + cin);
    }

    /// The comparator agrees with Rust's ordering for all operands.
    #[test]
    fn comparator_matches_rust_ordering(
        width in 2u32..16,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
    ) {
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let d = generate(&DesignFamily::Comparator { width }, &StyleOptions::clean(), &mut rng);
        let mut sim = Simulator::from_source(&d.source, &format!("comparator_{width}"))
            .expect("build comparator");
        sim.set("a", a).expect("set");
        sim.set("b", b).expect("set");
        prop_assert_eq!(sim.get("lt").expect("get").as_u64(), u64::from(a < b));
        prop_assert_eq!(sim.get("eq").expect("get").as_u64(), u64::from(a == b));
        prop_assert_eq!(sim.get("gt").expect("get").as_u64(), u64::from(a > b));
    }

    /// A counter clocked n times from reset reads n mod 2^width.
    #[test]
    fn counter_counts_any_number_of_cycles(
        width in 2u32..10,
        cycles in 0usize..40,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let d = generate(&DesignFamily::Counter { width }, &StyleOptions::clean(), &mut rng);
        let mut sim = Simulator::from_source(&d.source, &format!("counter_{width}"))
            .expect("build counter");
        sim.set("rst", 1).expect("set");
        sim.clock("clk").expect("clock");
        sim.set("rst", 0).expect("set");
        sim.set("en", 1).expect("set");
        for _ in 0..cycles {
            sim.clock("clk").expect("clock");
        }
        let mask = (1u64 << width) - 1;
        prop_assert_eq!(sim.get("count").expect("get").as_u64(), cycles as u64 & mask);
    }

    /// Pretty-print round trip holds for every generated design at any
    /// seed/style combination.
    #[test]
    fn print_parse_roundtrip_under_random_styles(
        seed in 0u64..500,
        sloppiness in 0.0f64..1.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let catalog = DesignFamily::catalog();
        let family = &catalog[(seed as usize) % catalog.len()];
        let style = StyleOptions::sampled(sloppiness, &mut rng);
        let d = generate(family, &style, &mut rng);
        let mut original = parse(&d.source).expect("parse");
        let printed = pyranet::verilog::pretty::print_file(&original);
        let mut reparsed = parse(&printed).expect("reparse");
        original.strip_lines();
        reparsed.strip_lines();
        prop_assert_eq!(original, reparsed);
    }

    /// The ranking judge is deterministic and bounded for arbitrary
    /// generated samples.
    #[test]
    fn rank_is_deterministic_and_bounded(seed in 0u64..500, sloppiness in 0.0f64..1.0) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let catalog = DesignFamily::catalog();
        let family = &catalog[(seed as usize) % catalog.len()];
        let style = StyleOptions::sampled(sloppiness, &mut rng);
        let d = generate(family, &style, &mut rng);
        let module = pyranet::verilog::parse_module(&d.source).expect("parse");
        let r1 = pyranet::pipeline::rank::rank_sample(&module, &d.source);
        let r2 = pyranet::pipeline::rank::rank_sample(&module, &d.source);
        prop_assert_eq!(r1, r2);
        prop_assert!(r1.value() >= 1 && r1.value() <= 20);
    }

    /// The compiled bytecode VM scores every corpus-generated design
    /// exactly like the event-driven reference interpreter under random
    /// stimulus — same outputs bit for bit (value and width), or the same
    /// error string at the same step.
    #[test]
    fn sim_backends_agree_on_corpus_designs(
        seed in 0u64..500,
        sloppiness in 0.0f64..1.0,
        steps in 1usize..24,
    ) {
        use pyranet::verilog::{SimDesign, SimMode};
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let catalog = DesignFamily::catalog();
        let family = &catalog[(seed as usize) % catalog.len()];
        let style = StyleOptions::sampled(sloppiness, &mut rng);
        let d = generate(family, &style, &mut rng);
        let top = d.module.name.clone();
        let build =
            |mode| SimDesign::build(&d.source, &top, mode).and_then(|des| des.instantiate());
        match (build(SimMode::Compiled), build(SimMode::Reference)) {
            (Err(c), Err(r)) => prop_assert_eq!(c.to_string(), r.to_string()),
            (Ok(c), Err(r)) => prop_assert!(false, "compiled built, reference failed: {r} ({:?})", c.outputs()),
            (Err(c), Ok(_)) => prop_assert!(false, "reference built, compiled failed: {c}"),
            (Ok(mut c), Ok(mut r)) => {
                let inputs = r.inputs().to_vec();
                let outputs = r.outputs().to_vec();
                let clock = d.port("clock").map(str::to_owned);
                'drive: for step in 0..steps {
                    for name in &inputs {
                        if Some(name.as_str()) == clock.as_deref() {
                            continue;
                        }
                        let v = rng.random::<u64>();
                        let cr = c.set(name, v).map_err(|e| e.to_string());
                        let rr = r.set(name, v).map_err(|e| e.to_string());
                        prop_assert_eq!(&cr, &rr, "set {} at step {}", name, step);
                        if cr.is_err() {
                            break 'drive;
                        }
                    }
                    if let Some(clk) = &clock {
                        let cr = c.clock(clk).map_err(|e| e.to_string());
                        let rr = r.clock(clk).map_err(|e| e.to_string());
                        prop_assert_eq!(&cr, &rr, "clock at step {}", step);
                        if cr.is_err() {
                            break 'drive;
                        }
                    }
                    for name in &outputs {
                        let cv = c.get(name).expect("compiled get");
                        let rv = r.get(name).expect("reference get");
                        prop_assert_eq!(&cv, &rv, "output {} at step {}", name, step);
                    }
                }
            }
        }
    }

    /// MinHash/LSH dedup never removes both members down to zero and never
    /// keeps exact duplicates at threshold < 1.
    #[test]
    fn dedup_properties_on_random_pools(seed in 0u64..200, n in 2usize..30) {
        use pyranet::corpus::{Origin, RawSample, TruthLabel};
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let catalog = DesignFamily::catalog();
        let mut pool = Vec::new();
        for i in 0..n {
            let family = &catalog[(seed as usize + i) % 7];
            let d = generate(family, &StyleOptions::clean(), &mut rng);
            pool.push(RawSample::new(i as u64, d.source, "", Origin::Scraped, TruthLabel::Clean));
        }
        // duplicate the first entry verbatim
        let dup = RawSample::new(999, pool[0].source.clone(), "", Origin::Scraped, TruthLabel::Duplicate);
        pool.push(dup);
        let out = pyranet::pipeline::dedup::dedup(pool, 0.95);
        prop_assert!(!out.is_empty());
        prop_assert!(!out.iter().any(|s| s.id == 999), "verbatim duplicate must be removed");
    }
}

/// Modules computing `y` from `a` through one construct nested `n` deep,
/// each with the value `y` takes at `a = 1`: parentheses, unary operators,
/// an operator chain, ternaries and statement blocks. The right-hand side
/// of the assignment to `y` is a level itself, so they nest `n + 1` levels.
fn nested_modules(n: usize) -> [(String, u64); 5] {
    let module =
        |y: &str, body: String| format!("module m(input a, output {y});\n  {body}\nendmodule\n");
    let assign = |rhs: String| module("y", format!("assign y = {rhs};"));
    // `always` holds n - 1 blocks around the assignment statement.
    let blocks = format!("always @(*) {}y = a;{}", "begin ".repeat(n - 1), " end".repeat(n - 1));
    [
        (assign(format!("{}a{}", "(".repeat(n), ")".repeat(n))), 1),
        (assign(format!("{}a", "~".repeat(n))), (n as u64 + 1) % 2),
        (assign(format!("a{}", " & a".repeat(n))), 1),
        (assign(format!("{}a", "a ? a : ".repeat(n))), 1),
        (module("reg y", blocks), 1),
    ]
}

/// Runs `f` on a thread with a 2 MiB stack, the size `par_map` workers get.
fn on_worker_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, f)
            .expect("spawn worker thread")
            .join()
            .expect("worker thread panicked")
    })
}

/// Regression: `pyranet check` on 20,000 nested parentheses overflowed the
/// stack and aborted the process, and so did `pyranet sim` on a
/// 20,000-operator chain. Nesting past the budget is now a syntax error.
#[test]
fn nesting_past_the_budget_is_a_syntax_error_not_a_stack_overflow() {
    use pyranet::verilog::{SyntaxVerdict, MAX_NESTING};
    for n in [MAX_NESTING, 20_000] {
        for (src, _) in nested_modules(n) {
            let verdict = on_worker_stack(|| check_source(&src));
            assert!(matches!(verdict, SyntaxVerdict::SyntaxError { .. }), "{verdict:?}: {src:.80}");
        }
    }
}

/// A design exactly at the nesting budget still checks, lints, ranks and
/// simulates under both backends on a worker-sized stack.
#[test]
fn designs_at_the_nesting_budget_check_lint_rank_and_simulate() {
    use pyranet::pipeline::rank_sample;
    use pyranet::verilog::lint::lint_module;
    use pyranet::verilog::{parse_module, SimDesign, SimMode, MAX_NESTING};
    for (src, want) in nested_modules(MAX_NESTING - 1) {
        on_worker_stack(|| {
            assert!(check_source(&src).is_clean(), "{src:.80}");
            let module = parse_module(&src).expect("parses");
            lint_module(&module, &src);
            rank_sample(&module, &src);
            for mode in [SimMode::Compiled, SimMode::Reference] {
                let design = SimDesign::build(&src, "m", mode).expect("builds");
                let mut sim = design.instantiate().expect("instantiates");
                sim.set("a", 1).expect("drives a");
                assert_eq!(sim.get("y").expect("reads y").as_u64(), want, "{mode:?}: {src:.80}");
            }
        });
    }
}
