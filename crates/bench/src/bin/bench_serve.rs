//! Serve-daemon benchmark: the same request stream replayed through the
//! continuous-batching engine and through a sequential one-request-at-a-
//! time engine, written to `BENCH_serve.json` (rows `sequential` and
//! `continuous`).
//!
//! * **sequential** — `max_batch = 1`: each request decodes alone, the
//!   next admitted only after the previous retires. This is the serving
//!   analogue of the legacy eval loop.
//! * **continuous** — `max_batch = DEPTH`: the lock-step batch refills
//!   from the admission queue as sequences retire on `<eos>`/budget, so
//!   a straggler never drains the batch.
//!
//! Both paths run the identical request list with identical per-request
//! RNG streams and must produce byte-identical completions (asserted
//! every repeat) — the speedup is pure batching, not a semantics change.
//! Throughput counts decode (completion) tokens only; the prefix cache
//! is enabled on both sides so the win measured is continuous batching,
//! not caching.
//!
//! Honours `PYRANET_SCALE` (`quick` for the CI smoke run, `full`
//! default).

use pyranet::eval::machine_split;
use pyranet::model::{ModelConfig, Tokenizer, TransformerLm};
use pyranet::serve::{replay, ReplayOutcome, ServeConfig, ServeRequest, ServeResponse};
use pyranet_bench::{best_of, Report, Row, Scale};

/// Batch depth of the continuous path (the acceptance bar is depth
/// ≥ 8; 16 keeps the lock-step batch wide enough that the per-step
/// weight traversal amortizes even as the stream drains).
const DEPTH: usize = 16;

fn by_id(mut rs: Vec<ServeResponse>) -> Vec<ServeResponse> {
    rs.sort_by(|a, b| a.id.cmp(&b.id));
    rs
}

fn main() {
    let scale = Scale::from_env();
    let (n_requests, repeats, queue_depth) = match scale {
        Scale::Quick => (16usize, 2usize, 8usize),
        Scale::Full => (48, 4, 16),
    };

    // A serving-sized model: wide enough that the per-layer weights
    // overflow the per-core cache, which is what continuous batching
    // exists to amortize (each lock-step forward streams the weights
    // once for the whole batch instead of once per sequence). Untrained
    // weights are fine — both paths decode the same ids either way.
    let problems = machine_split();
    let corpus: Vec<String> =
        problems.iter().map(|p| format!("{} {}", p.prompt(), p.header())).collect();
    let tk = Tokenizer::build(corpus.iter().map(String::as_str), 1);
    let cfg = ModelConfig {
        name: "bench-serve".into(),
        d_model: 256,
        n_layers: 4,
        n_heads: 4,
        d_ff: 512,
        max_seq: 384,
        learning_rate: 1e-3,
        seed: 11,
    };
    let lm = TransformerLm::new(cfg, tk.vocab_size());

    // A serving-shaped stream: prompts cycle over a hot subset of the
    // split (live traffic concentrates on popular problems, which is
    // what the prefix cache exists for), budgets and temperatures vary
    // per request so sequences retire at different steps — the case
    // continuous batching exists for.
    let hot = problems.len().min(12);
    let requests: Vec<ServeRequest> = (0..n_requests)
        .map(|i| {
            let p = &problems[i % hot];
            ServeRequest {
                id: format!("{}#{i}", p.id),
                prompt: p.prompt(),
                max_new_tokens: 48 + (i * 13) % 96,
                temperature: 0.4 + 0.1 * (i % 5) as f32,
            }
        })
        .collect();

    // The default (register-tiled) kernel family: its vectorized matmuls
    // make decode bound by weight streaming, which is the regime a
    // serving host runs in and what batching amortizes. Both paths use
    // the same family, so the identical-completions assert below holds
    // bit-for-bit.
    let serve_cfg = |max_batch: usize| ServeConfig {
        max_batch,
        queue_depth,
        prefix_cache_entries: 32,
        seed: 0x5E21,
        threads: 1,
        ..ServeConfig::default()
    };

    let mut report = Report::new("serve", scale, repeats);
    report.param("requests", requests.len()).param("queue_depth", queue_depth);
    let run = |max_batch: usize, expect: Option<&ReplayOutcome>| {
        best_of(repeats, |clock| {
            let out = clock.time(|| replay(&lm, &tk, serve_cfg(max_batch), &requests));
            if let Some(expect) = expect {
                assert_eq!(
                    by_id(out.responses.clone()),
                    by_id(expect.responses.clone()),
                    "continuous batching changed a completion"
                );
                assert_eq!(out.decode_tokens, expect.decode_tokens);
            }
            out
        })
    };
    let sequential = run(1, None);
    let continuous = run(DEPTH, Some(&sequential.out));

    for (name, max_batch, run) in
        [("sequential", 1, &sequential), ("continuous", DEPTH, &continuous)]
    {
        let out = &run.out;
        let row = report.push(
            Row::new(name, run.secs, out.decode_tokens, "tokens")
                .baseline("sequential")
                .count("max_batch", max_batch as u64)
                .count("steps", out.steps)
                .count("cache_hits", out.cache.hits)
                .count("cache_misses", out.cache.misses)
                .count("resubmissions", out.resubmissions),
        );
        eprintln!(
            "{} request(s), {} decode tok: {name}@{max_batch} {:.3}s ({:.0} tok/s, {:.2}x \
             sequential)",
            requests.len(),
            out.decode_tokens,
            run.secs.fastest,
            row.per_sec(),
            row.speedup().unwrap_or(1.0)
        );
    }
    report.write();
}
