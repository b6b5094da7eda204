//! The scoring phase: known-answer candidates for the 20 eval problems,
//! checked by one `ProblemBench` per problem under stimulus vectors and
//! under the exhaustive equivalence sweep.
//!
//! The candidates stand in for a strong model's completions, so unlike
//! eval's mostly-unparseable samples they reach the simulator: the
//! Verilog front end, sim compile and sim run do the work.

use crate::bench::Checks;
use crate::config::{Workload, DEGRADED, DEPENDENCY_BROKEN, MUTANTS, RERENDERS, SYNTAX_BROKEN};
use crate::trace::Tracer;
use pyranet::corpus::defect::{
    degrade_text, inject_dependency_issue_checked, inject_syntax_error_checked,
};
use pyranet::corpus::generate;
use pyranet::corpus::style::StyleOptions;
use pyranet::eval::testbench::{CheckStrategy, FunctionalVerdict, ProblemBench, SimStats};
use pyranet::eval::{machine_split, Problem};
use pyranet::verilog::SimMode;
use pyranet_exec::stream_seed_str;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// What a candidate was rendered as, and so which verdict it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// The problem's design re-rendered in a sampled style: must pass.
    Rerender,
    /// A re-render after `degrade_text`: must pass.
    Degraded,
    /// A re-render after `inject_syntax_error`: must fail to build.
    SyntaxBroken,
    /// A re-render after `inject_dependency_issue`: must fail to build.
    DependencyBroken,
    /// A re-render with one operator swapped: must get the verdict the
    /// reference simulator gave it during set-up.
    Mutant,
}

struct Candidate {
    class: Class,
    source: String,
    /// Reference-oracle verdicts of a mutant, per strategy.
    oracle: [Option<FunctionalVerdict>; 2],
}

/// Set-up products of the scoring phase.
pub struct Scoring {
    problems: Vec<Problem>,
    candidates: Vec<Vec<Candidate>>,
    strategies: [CheckStrategy; 2],
}

/// Per-pass outputs reported as per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct PassOutput {
    pub stats: SimStats,
    /// Verdict counts: pass, build failure, interface mismatch, mismatch,
    /// runtime failure.
    pub verdicts: [u64; 5],
    /// Debug rendering of every verdict, for the output digest.
    pub rendered: String,
}

/// The two strategies a pass can run, as indices into `Scoring::strategies`.
pub const STIMULUS: usize = 0;
pub const EQUIVALENCE: usize = 1;

fn verdict_index(v: &FunctionalVerdict) -> usize {
    match v {
        FunctionalVerdict::Pass => 0,
        FunctionalVerdict::BuildFailure(_) => 1,
        FunctionalVerdict::InterfaceMismatch(_) => 2,
        FunctionalVerdict::Mismatch { .. } => 3,
        FunctionalVerdict::RuntimeFailure(_) => 4,
    }
}

/// Swaps one binary/unary operator in the code (outside comments) for its
/// counterpart: `+`↔`-`, `&`↔`|`, `^`→`&`. `None` when there is none.
fn swap_operator(src: &str, rng: &mut ChaCha8Rng) -> Option<String> {
    const OPERATOR_CHARS: &[u8] = b"+-&|^~!=<>:*/%";
    let bytes = src.as_bytes();
    let mut sites = Vec::new();
    let mut i = src.find("module")?;
    while i < bytes.len() {
        if bytes[i..].starts_with(b"//") {
            i += bytes[i..].iter().position(|&b| b == b'\n').unwrap_or(bytes.len() - i);
            continue;
        }
        if bytes[i..].starts_with(b"/*") {
            i += bytes[i..].windows(2).position(|w| w == b"*/").map_or(bytes.len() - i, |p| p + 2);
            continue;
        }
        let prev_is_operator = i > 0 && OPERATOR_CHARS.contains(&bytes[i - 1]);
        let next_is_operator = bytes.get(i + 1).is_some_and(|n| OPERATOR_CHARS.contains(n));
        if !prev_is_operator
            && !next_is_operator
            && matches!(bytes[i], b'+' | b'-' | b'&' | b'|' | b'^')
        {
            sites.push(i);
        }
        i += 1;
    }
    if sites.is_empty() {
        return None;
    }
    let at = sites[rng.random_range(0..sites.len())];
    let swapped = match bytes[at] {
        b'+' => "-",
        b'-' => "+",
        b'&' => "|",
        _ => "&",
    };
    Some(format!("{}{swapped}{}", &src[..at], &src[at + 1..]))
}

fn rerender(problem: &Problem, rng: &mut ChaCha8Rng) -> String {
    let style = StyleOptions::sampled(rng.random::<f64>(), rng);
    generate(&problem.family, &style, rng).source
}

/// Renders one problem's candidates from its own seeded stream.
fn render(seed: u64, problem: &Problem) -> Vec<Candidate> {
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed_str(seed, &problem.id));
    let mut out = Vec::new();
    let mut push = |class, source| out.push(Candidate { class, source, oracle: [None, None] });
    for _ in 0..RERENDERS {
        push(Class::Rerender, rerender(problem, &mut rng));
    }
    for _ in 0..DEGRADED {
        let base = rerender(problem, &mut rng);
        let severity = rng.random_range(0.3..1.0);
        push(Class::Degraded, degrade_text(&base, severity, &mut rng));
    }
    for _ in 0..SYNTAX_BROKEN {
        let base = rerender(problem, &mut rng);
        push(Class::SyntaxBroken, inject_syntax_error_checked(&base, &mut rng).source);
    }
    for _ in 0..DEPENDENCY_BROKEN {
        let base = rerender(problem, &mut rng);
        push(Class::DependencyBroken, inject_dependency_issue_checked(&base, &mut rng).source);
    }
    // Re-render until MUTANTS mutants exist (a style can leave a small
    // design without a swappable operator), so every seed scores the same
    // class mix.
    let mut mutants = 0;
    for _ in 0..MUTANTS * 8 {
        let base = rerender(problem, &mut rng);
        if let Some(mutant) = swap_operator(&base, &mut rng) {
            push(Class::Mutant, mutant);
            mutants += 1;
            if mutants == MUTANTS {
                break;
            }
        }
    }
    out
}

/// Renders every candidate and has the reference simulator judge the
/// mutants under both strategies.
pub fn setup(seed: u64, w: &Workload, tr: &Tracer) -> Scoring {
    let problems = machine_split();
    let mut candidates: Vec<Vec<Candidate>> =
        tr.span("corpus.candidates", || problems.iter().map(|p| render(seed, p)).collect());
    let strategies =
        [CheckStrategy::Stimulus, CheckStrategy::Equivalence { max_input_bits: w.eq_cap }];
    tr.span("eval.oracle", || {
        for (problem, cands) in problems.iter().zip(&mut candidates) {
            for (k, strategy) in strategies.iter().enumerate() {
                let mut oracle =
                    ProblemBench::new_with_check(&problem.family, SimMode::Reference, *strategy);
                for c in cands.iter_mut().filter(|c| c.class == Class::Mutant) {
                    c.oracle[k] = Some(oracle.check(&c.source));
                }
            }
        }
    });
    Scoring { problems, candidates, strategies }
}

impl Scoring {
    /// Candidates per pass.
    pub fn len(&self) -> usize {
        self.candidates.iter().map(Vec::len).sum()
    }

    /// One pass over every candidate under strategy `k`, golden
    /// preparation included. Returns the pass's wall time.
    pub fn pass(&self, k: usize, tr: &Tracer, checks: &mut Checks) -> (f64, PassOutput) {
        let (phase, check) = if k == STIMULUS {
            ("phase.stimulus", "eval.check")
        } else {
            ("phase.equivalence", "eval.equiv_check")
        };
        let strategy = self.strategies[k];
        let start = Instant::now();
        let results: Vec<(Vec<FunctionalVerdict>, SimStats)> = tr.span(phase, || {
            self.problems
                .iter()
                .zip(&self.candidates)
                .map(|(problem, cands)| {
                    let mut bench = tr.span("eval.prepare", || {
                        ProblemBench::new_with_check(&problem.family, SimMode::Compiled, strategy)
                    });
                    let verdicts = cands.iter().map(|c| tr.span(check, || bench.check(&c.source)));
                    (verdicts.collect(), bench.stats)
                })
                .collect()
        });
        let secs = start.elapsed().as_secs_f64();
        let mut out = PassOutput::default();
        for ((verdicts, stats), (problem, cands)) in
            results.iter().zip(self.problems.iter().zip(&self.candidates))
        {
            out.stats.merge(stats);
            for (v, c) in verdicts.iter().zip(cands) {
                out.verdicts[verdict_index(v)] += 1;
                out.rendered.push_str(&format!("{v:?}\n"));
                let ok = match c.class {
                    Class::Rerender | Class::Degraded => v.is_pass(),
                    Class::SyntaxBroken | Class::DependencyBroken => {
                        matches!(v, FunctionalVerdict::BuildFailure(_))
                    }
                    Class::Mutant => c.oracle[k].as_ref() == Some(v),
                };
                checks.check(ok, || format!("{}: {:?} candidate got {v:?}", problem.id, c.class));
            }
        }
        (secs, out)
    }
}
