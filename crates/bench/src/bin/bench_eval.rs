//! Inference-engine benchmark: the n-samples-per-problem pass@k workload
//! timed on both eval paths, written to `BENCH_eval.json` (rows `naive`
//! and `session`, each broken down per problem as `<row>/<problem id>`,
//! and `equivalence`).
//!
//! * **naive** — the retained legacy loop: every sample re-merges
//!   weights, re-prefills the full prompt, and decodes alone.
//! * **session** — `DecodeSession`: one shared prefill per problem, the
//!   KV cache forked (borrowed, not copied) across the n samples, all
//!   live sequences decoded in lock-step batches through the blocked
//!   kernels.
//!
//! Both paths run single-threaded on identical per-sample RNG streams and
//! must produce identical token ids (asserted every repeat) — the
//! speedup is pure engineering, not a semantics change. Tokens/sec counts
//! *decode* (completion) tokens only, so shared prefill shows up as
//! faster wall time over the same token count rather than inflating the
//! numerator. The session rows' counts are the engine's own `decode.*`
//! counters for one pass, cross-checked against the token ids on every
//! repeat.
//!
//! Honours `PYRANET_SCALE` (`quick` for the CI smoke run, `full` default).

use pyranet::eval::testbench::golden_source;
use pyranet::eval::{
    machine_split, sample_temperature, CheckStrategy, ProblemBench, SimMode, SimStats,
    DEFAULT_MAX_EQ_INPUTS,
};
use pyranet::model::decode::DecodeSession;
use pyranet::model::{KernelMode, ModelConfig, SampleOptions, Tokenizer, TransformerLm};
use pyranet_bench::{best_of, Counters, Report, Row, Scale, Secs};
use pyranet_exec::stream_seed_str;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The decode paths: row name, session kernel family (`None` for the
/// legacy loop), baseline row.
const PATHS: [(&str, Option<KernelMode>, &str); 2] =
    [("naive", None, "naive"), ("session", Some(KernelMode::Blocked), "naive")];

/// One path's measurement on one problem.
struct Measured {
    secs: Secs,
    /// Decode (completion) tokens across the n samples.
    tokens: u64,
    /// The engine's `decode.*` counters for one pass.
    engine: Counters,
}

fn main() {
    let scale = Scale::from_env();
    let (n_problems, n_samples, max_new, repeats) = match scale {
        Scale::Quick => (4usize, 6u32, 32usize, 2usize),
        Scale::Full => (10, 10, 96, 3),
    };

    // An eval-sized model (bigger than the train bench's: inference is
    // cheap enough per token that a realistic depth/width is affordable
    // and makes the prefill/batching wins representative). Untrained
    // weights are fine — both paths sample the same ids either way.
    let problems: Vec<_> = machine_split().into_iter().take(n_problems).collect();
    let corpus: Vec<String> =
        problems.iter().map(|p| format!("{} {}", p.prompt(), p.header())).collect();
    let tk = Tokenizer::build(corpus.iter().map(String::as_str), 1);
    let cfg = ModelConfig {
        name: "bench-eval".into(),
        d_model: 128,
        n_layers: 3,
        n_heads: 4,
        d_ff: 256,
        max_seq: 384,
        learning_rate: 1e-3,
        seed: 11,
    };
    let lm = TransformerLm::new(cfg, tk.vocab_size());
    let mut report = Report::new("eval", scale, repeats);
    report
        .param("problems", problems.len())
        .param("samples_per_problem", n_samples)
        .param("max_new_tokens", max_new);

    // The exact harness workload: header forced as a generation prefix,
    // per-sample temperature cycle, per-sample RNG streams.
    let seed = 0xEA_11u64;
    let tokens = |ids: &[Vec<usize>]| ids.iter().map(|b| b.len() as u64).sum::<u64>();
    // Per problem: id, prompt tokens, one measurement per path.
    let mut per_problem: Vec<(String, usize, [Measured; 2])> = Vec::new();
    for problem in &problems {
        let header_ids = tk.encode(&problem.header());
        let mut prompt = tk.encode_prompt(&problem.prompt());
        prompt.extend_from_slice(&header_ids);
        let sample_opts: Vec<SampleOptions> = (0..n_samples)
            .map(|i| SampleOptions { temperature: sample_temperature(i, n_samples, 0.5), top_k: 0 })
            .collect();
        let rngs = || -> Vec<ChaCha8Rng> {
            (0..n_samples)
                .map(|i| {
                    ChaCha8Rng::seed_from_u64(stream_seed_str(seed, &format!("{}#{i}", problem.id)))
                })
                .collect()
        };

        let naive = best_of(repeats, |clock| {
            let mut rngs = rngs();
            clock.time(|| {
                sample_opts
                    .iter()
                    .zip(rngs.iter_mut())
                    .map(|(so, rng)| lm.generate_legacy(&prompt, max_new, so, rng))
                    .collect::<Vec<Vec<usize>>>()
            })
        });
        let measured = PATHS.map(|(_, mode, _)| {
            let Some(mode) = mode else {
                return Measured {
                    secs: naive.secs,
                    tokens: tokens(&naive.out),
                    engine: Counters::default(),
                };
            };
            let run = best_of(repeats, |clock| {
                let mut rngs = rngs();
                let before = Counters::read("decode.");
                let (_session, _prefix, gens) = clock.time(|| {
                    let mut session = DecodeSession::new_with(&lm, mode);
                    let prefix = session.prefill(&prompt, max_new);
                    let gens = session.decode_batch(&prefix, max_new, &sample_opts, &mut rngs);
                    (session, prefix, gens)
                });
                let engine = Counters::read("decode.").since(&before);
                let ids: Vec<Vec<usize>> = gens.into_iter().map(|g| g.ids).collect();
                assert_eq!(ids, naive.out, "engines diverged on {}", problem.id);
                // The engine's own counters must see every fork and token.
                assert_eq!(engine.get("decode.forks"), u64::from(n_samples), "fork count drifted");
                assert_eq!(engine.get("decode.tokens"), tokens(&ids), "engine token count drifted");
                (tokens(&ids), engine)
            });
            let (tokens, engine) = run.out;
            Measured { secs: run.secs, tokens, engine }
        });
        let [n, s] = &measured;
        eprintln!(
            "{:<24} prompt {:>3} tok, {:>4} decode tok: naive {:.3}s, session {:.3}s",
            problem.id,
            prompt.len(),
            n.tokens,
            n.secs.fastest,
            s.secs.fastest,
        );
        per_problem.push((problem.id.clone(), prompt.len(), measured));
    }

    // Path totals first, then the per-problem breakdown.
    for (i, (name, mode, base)) in PATHS.iter().enumerate() {
        let secs: Secs = per_problem.iter().map(|p| p.2[i].secs).sum();
        let tokens: u64 = per_problem.iter().map(|p| p.2[i].tokens).sum();
        let engine =
            per_problem.iter().fold(Counters::default(), |sum, p| sum + p.2[i].engine.clone());
        let kernel = mode.unwrap_or(lm.kernels()).to_string();
        let row = report.push(
            Row::new(*name, secs, tokens, "tokens")
                .baseline(*base)
                .counts(&engine)
                .label("kernel", kernel),
        );
        eprintln!(
            "total: {name} {:.3}s ({:.0} tok/s, {:.2}x {base})",
            secs.fastest,
            row.per_sec(),
            row.speedup().unwrap_or(1.0)
        );
    }
    for (id, prompt_tokens, measured) in &per_problem {
        for ((name, _, base), m) in PATHS.iter().zip(measured) {
            report.push(
                Row::new(format!("{name}/{id}"), m.secs, m.tokens, "tokens")
                    .baseline(format!("{base}/{id}"))
                    .count("prompt_tokens", *prompt_tokens as u64)
                    .counts(&m.engine),
            );
        }
    }

    // Equivalence-mode scoring row: drive every golden design against
    // itself with the exhaustive-sweep strategy. Pure simulator work — no
    // decode happens here.
    let eq = best_of(repeats, |clock| {
        clock.time(|| {
            let mut stats = SimStats::default();
            for problem in &problems {
                let golden = golden_source(&problem.family);
                let mut bench = ProblemBench::new_with_check(
                    &problem.family,
                    SimMode::Compiled,
                    CheckStrategy::Equivalence { max_input_bits: DEFAULT_MAX_EQ_INPUTS },
                );
                let v = bench.check(&golden);
                assert!(v.is_pass(), "golden design fails self-equivalence on {}", problem.id);
                stats.merge(&bench.stats);
            }
            stats
        })
    });
    let stats = eq.out;
    assert_eq!(
        stats.exhaustive_checks + stats.fallback_checks,
        problems.len() as u64,
        "every problem resolves to exactly one strategy"
    );
    let row = report.push(
        Row::new("equivalence", eq.secs, stats.vectors, "vectors")
            .count("problems", problems.len() as u64)
            .count("exhaustive", stats.exhaustive_checks)
            .count("fallback", stats.fallback_checks),
    );
    eprintln!(
        "equivalence: {} problem(s), {} exhaustive / {} fallback, {} vectors in {:.3}s \
         ({:.0} vec/s)",
        problems.len(),
        stats.exhaustive_checks,
        stats.fallback_checks,
        stats.vectors,
        eq.secs.fastest,
        row.per_sec()
    );
    report.write();
}
