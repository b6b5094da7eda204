//! Serve-daemon benchmark: the same request stream replayed through the
//! continuous-batching engine and through a sequential one-request-at-a-
//! time engine, written to `BENCH_serve.json`.
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
use pyranet_bench::Scale;
use serde::Serialize;
use std::time::Instant;

/// Batch depth of the continuous path (the acceptance bar is depth
/// ≥ 8; 16 keeps the lock-step batch wide enough that the per-step
/// weight traversal amortizes even as the stream drains).
const DEPTH: usize = 16;

#[derive(Serialize)]
struct PathReport {
    /// Lock-step batch width.
    max_batch: u64,
    /// Wall seconds (fastest repeat, whole replay).
    secs: f64,
    /// Decode (completion) tokens produced.
    tokens: u64,
    /// Decode throughput.
    tokens_per_sec: f64,
    /// Engine pump iterations (lock-step forward steps).
    steps: u64,
    /// Prefix-cache hits.
    cache_hits: u64,
    /// Prefix-cache misses.
    cache_misses: u64,
    /// Submits bounced by backpressure and retried.
    resubmissions: u64,
}

#[derive(Serialize)]
struct BenchReport {
    /// `std::thread::available_parallelism()` on the benchmarking host.
    host_parallelism: u64,
    /// Requests in the replayed stream.
    requests: u64,
    /// Admission-queue bound used on both paths.
    queue_depth: u64,
    /// Repeats per measurement (fastest wins).
    repeats: u64,
    /// One request at a time (`max_batch = 1`).
    sequential: PathReport,
    /// Continuous batching at `max_batch = DEPTH`.
    continuous: PathReport,
    /// Continuous throughput over sequential (identical token counts,
    /// so this is also the wall-time ratio).
    speedup: f64,
}

fn path(max_batch: usize, secs: f64, out: &ReplayOutcome) -> PathReport {
    PathReport {
        max_batch: max_batch as u64,
        secs,
        tokens: out.decode_tokens,
        tokens_per_sec: if secs > 0.0 { out.decode_tokens as f64 / secs } else { 0.0 },
        steps: out.steps,
        cache_hits: out.cache.hits,
        cache_misses: out.cache.misses,
        resubmissions: out.resubmissions,
    }
}

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

    let run = |max_batch: usize| -> (f64, ReplayOutcome) {
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..repeats {
            let start = Instant::now();
            let out = replay(&lm, &tk, serve_cfg(max_batch), &requests);
            best = best.min(start.elapsed().as_secs_f64());
            last = Some(out);
        }
        (best, last.expect("at least one repeat"))
    };

    let (seq_secs, seq_out) = run(1);
    let (cont_secs, cont_out) = run(DEPTH);
    assert_eq!(
        by_id(seq_out.responses.clone()),
        by_id(cont_out.responses.clone()),
        "continuous batching changed a completion"
    );
    assert_eq!(seq_out.decode_tokens, cont_out.decode_tokens);

    let sequential = path(1, seq_secs, &seq_out);
    let continuous = path(DEPTH, cont_secs, &cont_out);
    let speedup = if continuous.secs > 0.0 { sequential.secs / continuous.secs } else { 1.0 };
    eprintln!(
        "{} request(s), {} decode tok: sequential {:.3}s ({:.0} tok/s) vs continuous@{DEPTH} \
         {:.3}s ({:.0} tok/s) — {speedup:.2}x",
        requests.len(),
        seq_out.decode_tokens,
        sequential.secs,
        sequential.tokens_per_sec,
        continuous.secs,
        continuous.tokens_per_sec
    );

    let report = BenchReport {
        host_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
        requests: requests.len() as u64,
        queue_depth: queue_depth as u64,
        repeats: repeats as u64,
        sequential,
        continuous,
        speedup,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("{json}");
    eprintln!("wrote BENCH_serve.json");
}
