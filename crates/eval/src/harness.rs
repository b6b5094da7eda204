//! The evaluation loop: sample `n` completions per problem, check each,
//! report pass@k.

use crate::passk::pass_at_k;
use crate::problems::{Problem, Split};
use crate::testbench::{CheckStrategy, FunctionalVerdict, ProblemBench, SimStats};
use pyranet_exec::{par_map, stream_seed_str, ExecConfig};
use pyranet_model::decode::DecodeSession;
use pyranet_model::{KernelMode, SampleOptions, Tokenizer, TransformerLm};
use pyranet_verilog::SimMode;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Evaluation options.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOptions {
    /// Samples per problem (VerilogEval uses n ≥ k; the paper reports
    /// pass@1/5/10, so n = 10 is the default).
    pub samples_per_problem: u32,
    /// ks to report.
    pub ks: Vec<u32>,
    /// Maximum new tokens per completion.
    pub max_new_tokens: usize,
    /// Sampling temperature.
    pub temperature: f32,
    /// RNG seed. Each sample derives its own stream from
    /// `(seed, problem id, sample index)`, so results are independent of
    /// problem order, of the executor's thread count, and of whether
    /// samples decode batched or one at a time.
    pub seed: u64,
    /// Worker threads for the per-problem fan-out (`0` = auto).
    pub threads: usize,
    /// Simulation backend for the functional checks (defaults to the
    /// compiled bytecode VM; the reference engine is pinned bit-identical,
    /// so this is a throughput knob, never a semantic one).
    pub sim: SimMode,
    /// Kernel family for the decode session (`--kernel` on the CLI).
    /// `Blocked` and its `Reference` oracle decode bit-identically, so
    /// this is a throughput knob, never a semantic one.
    pub kernel: KernelMode,
    /// Functional-check strategy (`--check` and `--max-eq-inputs` on the
    /// CLI): stimulus vectors by default.
    pub check: CheckStrategy,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            samples_per_problem: 10,
            ks: vec![1, 5, 10],
            max_new_tokens: 160,
            temperature: 0.5,
            seed: 0xEA_11,
            threads: 0,
            sim: SimMode::default(),
            kernel: KernelMode::default(),
            check: CheckStrategy::default(),
        }
    }
}

/// Result for one problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProblemResult {
    /// Problem id.
    pub id: String,
    /// Samples drawn.
    pub n: u32,
    /// Samples that passed the functional check.
    pub passed: u32,
    /// Samples that at least parsed + checked syntactically.
    pub syntactically_valid: u32,
    /// Prompt tokens dropped from the head to fit the model's context
    /// window (0 when the prompt fits; the forced module header is the
    /// prompt tail, so it always survives a clamp).
    pub prompt_dropped_tokens: u32,
}

/// Aggregated evaluation result for one split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalResult {
    /// Split evaluated.
    pub split_name: String,
    /// Per-problem details.
    pub problems: Vec<ProblemResult>,
    /// ks the aggregate was computed over.
    pub ks: Vec<u32>,
}

impl EvalResult {
    /// Mean pass@k across problems (as a percentage, like Table I).
    pub fn pass_at(&self, k: u32) -> f64 {
        if self.problems.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.problems.iter().map(|p| pass_at_k(p.n, p.passed, k)).sum();
        100.0 * sum / self.problems.len() as f64
    }

    /// Mean syntax-validity rate in percent.
    pub fn syntax_rate(&self) -> f64 {
        let (mut ok, mut total) = (0u64, 0u64);
        for p in &self.problems {
            ok += u64::from(p.syntactically_valid);
            total += u64::from(p.n);
        }
        if total == 0 {
            0.0
        } else {
            100.0 * ok as f64 / total as f64
        }
    }
}

/// Saturating `usize → u32` for token counts surfaced in
/// [`ProblemResult`]: a pathological prompt that drops more than
/// `u32::MAX` tokens reports the ceiling instead of silently wrapping
/// (the old `as u32` cast truncated — 2^32 dropped tokens reported as 0).
pub(crate) fn saturating_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Near-greedy floor of the per-problem temperature cycle.
const TEMPERATURE_FLOOR: f64 = 0.05;

/// Temperature for sample `i` of `n`: linear from [`TEMPERATURE_FLOOR`]
/// at `i = 0` to **exactly** `ceiling` at `i = n - 1` (a single sample
/// stays near-greedy). The interpolation runs in `f64` — `u32 → f64` is
/// exact for every `i`/`n`, so there is no lossy narrowing even for huge
/// sample counts — and only the final value narrows to `f32`.
pub fn sample_temperature(i: u32, n: u32, ceiling: f32) -> f32 {
    if n <= 1 || i == 0 {
        return TEMPERATURE_FLOOR as f32;
    }
    if i >= n - 1 {
        // Pin the endpoint: the documented ceiling is reached exactly,
        // free of round-trip error through the interpolation arithmetic.
        return ceiling;
    }
    let frac = f64::from(i) / f64::from(n - 1);
    (TEMPERATURE_FLOOR + frac * (f64::from(ceiling) - TEMPERATURE_FLOOR)) as f32
}

/// Evaluates `lm` on `problems`.
pub fn evaluate(
    lm: &TransformerLm,
    tk: &Tokenizer,
    problems: &[Problem],
    opts: &EvalOptions,
) -> EvalResult {
    let _span = pyranet_obs::global().span("eval.run");
    let split_name =
        problems.first().map(|p| p.split.to_string()).unwrap_or_else(|| Split::Machine.to_string());
    // Problems are independent: sample i of a problem derives its RNG
    // stream from (seed, problem id, i), so the fan-out is a pure
    // per-problem map and pass@k is identical at any thread count and
    // under any problem ordering.
    let exec = ExecConfig::new().threads(opts.threads);
    let out = par_map(&exec, problems.iter().collect(), |problem: &Problem| {
        // VerilogEval hands the model the module header and scores the body
        // completion; we do the same — the header tokens are forced as a
        // generation prefix and prepended to the decoded candidate.
        let header = problem.header();
        let header_ids = tk.encode(&header);
        let mut prompt = tk.encode_prompt(&problem.prompt());
        prompt.extend_from_slice(&header_ids);
        let n = opts.samples_per_problem;
        // Temperature cycles from near-greedy up to `opts.temperature`
        // across the n samples (mirroring the paper's multi-temperature
        // querying) so pass@1 rewards confidence and pass@10 diversity.
        let sample_opts: Vec<SampleOptions> = (0..n)
            .map(|i| SampleOptions {
                temperature: sample_temperature(i, n, opts.temperature),
                top_k: 0,
            })
            .collect();
        let mut rngs: Vec<ChaCha8Rng> = (0..n)
            .map(|i| {
                ChaCha8Rng::seed_from_u64(stream_seed_str(
                    opts.seed,
                    &format!("{}#{i}", problem.id),
                ))
            })
            .collect();
        // One prefill for the whole problem; the KV cache is forked
        // (borrowed, not copied) across all n samples, which then decode
        // together in lock-step batches.
        let mut session = DecodeSession::new_with(lm, opts.kernel);
        let prefix = session.prefill(&prompt, opts.max_new_tokens);
        let dropped = saturating_u32(prefix.dropped_prompt_tokens());
        let gens = session.decode_batch(&prefix, opts.max_new_tokens, &sample_opts, &mut rngs);
        let mut passed = 0u32;
        let mut valid = 0u32;
        // The golden model is prepared (and, in compiled mode, lowered to
        // bytecode) once per problem and reused across all n samples.
        let mut bench = ProblemBench::new_with_check(&problem.family, opts.sim, opts.check);
        // Identical completions are common at low temperature; their
        // verdicts are deduplicated by candidate text (the map is per
        // problem, so the golden is fixed) and each distinct candidate is
        // simulated exactly once.
        let mut verdicts: HashMap<String, FunctionalVerdict> = HashMap::new();
        let mut cache_hits = 0u64;
        for g in &gens {
            let mut ids = header_ids.clone();
            ids.extend_from_slice(&g.ids);
            let text = tk.decode(&ids);
            if pyranet_verilog::check_source(&text).is_compilable() {
                valid += 1;
            }
            let verdict = match verdicts.get(&text) {
                Some(v) => {
                    cache_hits += 1;
                    v.clone()
                }
                None => {
                    let v = bench.check(&text);
                    verdicts.insert(text, v.clone());
                    v
                }
            };
            if verdict.is_pass() {
                passed += 1;
            }
        }
        let result = ProblemResult {
            id: problem.id.clone(),
            n,
            passed,
            syntactically_valid: valid,
            prompt_dropped_tokens: dropped,
        };
        (result, bench.stats, cache_hits)
    });
    // Aggregate into the metrics registry once, after the fan-out, so the
    // hot per-problem path stays free of registry traffic.
    let mut sim_stats = SimStats::default();
    let mut cache_hits = 0u64;
    let out: Vec<ProblemResult> = out
        .into_iter()
        .map(|(result, stats, hits)| {
            sim_stats.merge(&stats);
            cache_hits += hits;
            result
        })
        .collect();
    let obs = pyranet_obs::global();
    obs.counter(&format!("eval.kernel.{}", opts.kernel)).inc();
    obs.counter("eval.problems").add(out.len() as u64);
    obs.counter("eval.samples").add(out.iter().map(|p| u64::from(p.n)).sum());
    obs.counter("eval.passed").add(out.iter().map(|p| u64::from(p.passed)).sum());
    obs.counter("eval.syntax_valid")
        .add(out.iter().map(|p| u64::from(p.syntactically_valid)).sum());
    obs.counter("sim.programs").add(sim_stats.programs);
    obs.counter("sim.cache_hits").add(cache_hits);
    obs.counter("sim.vectors").add(sim_stats.vectors);
    obs.counter("sim.steps").add(sim_stats.steps);
    obs.counter("sim.golden_replayed").add(sim_stats.golden_replayed);
    obs.counter("sim.compile_fallbacks").add(sim_stats.compile_fallbacks);
    if matches!(opts.check, CheckStrategy::Equivalence { .. }) {
        obs.counter("eval.equivalence.exhaustive").add(sim_stats.exhaustive_checks);
        obs.counter("eval.equivalence.fallback").add(sim_stats.fallback_checks);
        obs.counter("eval.equivalence.vectors").add(sim_stats.vectors);
    }
    obs.histogram("sim.compile.seconds", &pyranet_obs::DURATION_BUCKETS)
        .observe(sim_stats.compile_time.as_secs_f64());
    obs.histogram("sim.run.seconds", &pyranet_obs::DURATION_BUCKETS)
        .observe(sim_stats.run_time.as_secs_f64());
    EvalResult { split_name, problems: out, ks: opts.ks.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::machine_split;

    fn fake_result(counts: &[(u32, u32)]) -> EvalResult {
        EvalResult {
            split_name: "Verilog-Machine".into(),
            problems: counts
                .iter()
                .enumerate()
                .map(|(i, (n, c))| ProblemResult {
                    id: format!("p{i}"),
                    n: *n,
                    passed: *c,
                    syntactically_valid: *c,
                    prompt_dropped_tokens: 0,
                })
                .collect(),
            ks: vec![1, 5, 10],
        }
    }

    #[test]
    fn dropped_token_counts_saturate_instead_of_wrapping() {
        assert_eq!(saturating_u32(0), 0);
        assert_eq!(saturating_u32(41), 41);
        assert_eq!(saturating_u32(u32::MAX as usize), u32::MAX);
        // The old `as u32` cast wrapped these to 0 and 5 respectively.
        assert_eq!(saturating_u32(u32::MAX as usize + 1), u32::MAX);
        assert_eq!(saturating_u32(u32::MAX as usize + 6), u32::MAX);
        assert_eq!(saturating_u32(usize::MAX), u32::MAX);
    }

    #[test]
    fn aggregate_pass_at_k() {
        let r = fake_result(&[(10, 10), (10, 0)]);
        assert!((r.pass_at(1) - 50.0).abs() < 1e-9);
        assert!((r.pass_at(10) - 50.0).abs() < 1e-9);
        let r = fake_result(&[(10, 1)]);
        assert!((r.pass_at(1) - 10.0).abs() < 1e-9);
        assert!((r.pass_at(10) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn pass_at_k_monotone_in_k_aggregate() {
        let r = fake_result(&[(10, 2), (10, 5), (10, 0), (10, 9)]);
        assert!(r.pass_at(1) <= r.pass_at(5));
        assert!(r.pass_at(5) <= r.pass_at(10));
    }

    #[test]
    fn empty_result_is_zero() {
        let r = fake_result(&[]);
        assert_eq!(r.pass_at(1), 0.0);
        assert_eq!(r.syntax_rate(), 0.0);
    }

    #[test]
    fn temperature_cycle_spans_floor_to_ceiling_exactly() {
        let t = 0.5f32;
        for n in [2u32, 3, 10, 1_000_003] {
            assert_eq!(sample_temperature(0, n, t).to_bits(), 0.05f32.to_bits(), "n={n}");
            // The documented ceiling is reached *exactly* at the last
            // sample — the pre-fix schedule overshot to `t + 0.05`.
            assert_eq!(sample_temperature(n - 1, n, t).to_bits(), t.to_bits(), "n={n}");
        }
        // A single sample stays near-greedy.
        assert_eq!(sample_temperature(0, 1, t).to_bits(), 0.05f32.to_bits());
        assert_eq!(sample_temperature(0, 0, t).to_bits(), 0.05f32.to_bits());
    }

    #[test]
    fn temperature_cycle_is_monotone_and_bounded() {
        let t = 0.7f32;
        let n = 64u32;
        let mut prev = f32::MIN;
        for i in 0..n {
            let temp = sample_temperature(i, n, t);
            assert!(temp >= prev, "i={i}: {temp} < {prev}");
            assert!((0.05..=t).contains(&temp), "i={i}: {temp} outside [0.05, {t}]");
            prev = temp;
        }
        // Counts beyond u16 (the old lossy cast) interpolate cleanly.
        let big = u32::MAX;
        assert!(sample_temperature(big / 2, big, t) > 0.05);
        assert!(sample_temperature(big / 2, big, t) < t);
    }

    #[test]
    fn untrained_model_scores_near_zero() {
        // A fresh random model emits garbage; the harness must survive and
        // report ~0 without panicking.
        let tk = pyranet_model::Tokenizer::build(
            ["module m ( input a , output y ) ; assign y = a ; endmodule"].iter().copied(),
            1,
        );
        let cfg = pyranet_model::ModelConfig {
            name: "tiny".into(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 32,
            max_seq: 64,
            learning_rate: 1e-3,
            seed: 3,
        };
        let lm = pyranet_model::TransformerLm::new(cfg, tk.vocab_size());
        let problems: Vec<_> = machine_split().into_iter().take(2).collect();
        let opts =
            EvalOptions { samples_per_problem: 2, max_new_tokens: 24, ..EvalOptions::default() };
        let r = evaluate(&lm, &tk, &problems, &opts);
        assert_eq!(r.problems.len(), 2);
        assert!(r.pass_at(1) < 50.0, "random model should not pass");
    }
}
