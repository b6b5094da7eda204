//! The post-curation half of the path: SFT with the CLI `train` recipe,
//! pass@k evaluation on both splits, and serving a request stream burst
//! and open-loop.
//!
//! Decode runs two ways: eval forks n samples off one shared prefix per
//! problem, serve continuously batches unrelated requests behind a bounded
//! queue and an LRU prefix cache.

use crate::bench::{self, Checks};
use crate::config::{
    EVAL_MAX_NEW_TOKENS, EVAL_SAMPLES, RATE_PER_S, REQUESTS, SERVE_MAX_NEW, TRAIN_EXAMPLES, WORKERS,
};
use crate::trace::Tracer;
use pyranet::eval::harness::ProblemResult;
use pyranet::eval::testbench::{CheckStrategy, FunctionalVerdict, ProblemBench};
use pyranet::eval::{
    evaluate, human_split, machine_split, sample_temperature, EvalOptions, EvalResult, Problem,
};
use pyranet::model::transformer::TrainExample;
use pyranet::model::{Adam, DecodeSession, ModelConfig, SampleOptions, Tokenizer, TransformerLm};
use pyranet::pipeline::PyraNetDataset;
use pyranet::serve::{replay, ServeConfig, ServeEngine, ServeRequest, ServeResponse};
use pyranet::train::data::shuffle_examples;
use pyranet::train::{build_tokenizer, to_examples, SftTrainer};
use pyranet::TrainConfig;
use pyranet_exec::{stream_seed_str, ExecConfig};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::Instant;

/// Set-up products of the model phases.
pub struct Models {
    dataset: PyraNetDataset,
    tk: Tokenizer,
    init: TransformerLm,
    cfg: TrainConfig,
    splits: [Vec<Problem>; 2],
    eval_opts: EvalOptions,
    serve_cfg: ServeConfig,
    /// The serve request stream, in arrival order.
    pub requests: Vec<ServeRequest>,
    /// Prompt tokens of the request stream, as the tokenizer encodes them.
    pub prompt_tokens: u64,
}

/// Work counted by one traced training run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrainCounts {
    pub steps: u64,
    pub tokens: u64,
}

/// Work counted by one traced eval repeat (both splits).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalCounts {
    pub prefill_tokens: u64,
    pub decode_tokens: u64,
    pub samples: u64,
    pub syntax_valid: u64,
    pub verdict_cache_hits: u64,
}

/// What one burst replay produced.
#[derive(Debug, Clone)]
pub struct Burst {
    pub secs: f64,
    /// Completion per request id.
    pub by_id: BTreeMap<String, String>,
    /// Decode tokens emitted.
    pub tokens: u64,
    /// Engine pump iterations.
    pub steps: u64,
    pub prefix_hit_ratio: f64,
}

/// What one open-loop pass observed.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Completion latency from due time per request, ms (infinite when
    /// refused or unfinished).
    pub latency_ms: Vec<f64>,
    /// How late each submission ran behind its due time, ms.
    pub late_ms: Vec<f64>,
    /// Median time of the [`bench::probe_slice`]s run while idle, s.
    pub slice_s: f64,
    pub refused: u64,
    pub pumps: u64,
    /// Mean running sequences and mean queued requests after each pump.
    pub occupancy: f64,
    pub queue_depth: f64,
    pub responses: Vec<ServeResponse>,
}

/// The CLI's `train`/`eval`/`serve` model: d_model 32, two layers.
fn cli_model(seed: u64, vocab: usize, learning_rate: f32) -> TransformerLm {
    let cfg = ModelConfig {
        name: "pyranet-cli".into(),
        d_model: 32,
        n_layers: 2,
        n_heads: 4,
        d_ff: 64,
        max_seq: 160,
        learning_rate,
        seed,
    };
    TransformerLm::new(cfg, vocab)
}

/// About half the requests reuse one of the 40 eval prompts (more than
/// the 32-entry prefix cache holds, so hits and evictions both occur); the
/// rest carry distinct dataset descriptions.
fn request_stream(seed: u64, dataset: &PyraNetDataset) -> Vec<ServeRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed_str(seed, "serve.requests"));
    let eval_prompts: Vec<String> =
        machine_split().iter().chain(&human_split()).map(Problem::prompt).collect();
    let mut fresh: Vec<&str> = dataset
        .iter()
        .map(|s| s.description.as_str())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    fresh.shuffle(&mut rng);
    let mut fresh = fresh.into_iter().cycle();
    (0..REQUESTS)
        .map(|i| {
            let prompt = if rng.random_bool(0.5) {
                eval_prompts[rng.random_range(0..eval_prompts.len())].clone()
            } else {
                fresh.next().expect("curated dataset has descriptions").to_owned()
            };
            ServeRequest {
                id: format!("req-{i:05}"),
                prompt,
                max_new_tokens: rng.random_range(SERVE_MAX_NEW.0..=SERVE_MAX_NEW.1),
                temperature: rng.random_range(0.2f32..0.8),
            }
        })
        .collect()
}

/// Tokenizer, initial model and request stream over the curated dataset.
pub fn setup(seed: u64, dataset: PyraNetDataset, tr: &Tracer) -> Models {
    let tk = tr.span("train.build_tokenizer", || build_tokenizer(dataset.iter()));
    let cfg = TrainConfig {
        epochs: 1,
        max_examples_per_phase: Some(TRAIN_EXAMPLES),
        seed,
        threads: WORKERS,
        ..TrainConfig::default()
    };
    let init = cli_model(seed, tk.vocab_size(), cfg.learning_rate);
    let requests = tr.span("serve.request_stream", || request_stream(seed, &dataset));
    let prompt_tokens = requests.iter().map(|r| tk.encode_prompt(&r.prompt).len() as u64).sum();
    Models {
        dataset,
        tk,
        init,
        cfg,
        splits: [machine_split(), human_split()],
        eval_opts: EvalOptions {
            samples_per_problem: EVAL_SAMPLES,
            max_new_tokens: EVAL_MAX_NEW_TOKENS,
            seed: stream_seed_str(seed, "eval"),
            threads: WORKERS,
            ..EvalOptions::default()
        },
        serve_cfg: ServeConfig {
            seed: stream_seed_str(seed, "serve"),
            threads: WORKERS,
            ..ServeConfig::default()
        },
        requests,
        prompt_tokens,
    }
}

impl Models {
    /// The SFT examples in training order (shuffled, capped).
    fn train_examples(&self, tr: &Tracer) -> Vec<TrainExample> {
        let mut examples =
            tr.span("train.tokenize", || to_examples(self.dataset.iter(), &self.tk, 1.0));
        tr.span("train.shuffle", || {
            shuffle_examples(&mut examples, stream_seed_str(self.cfg.seed, "sft"));
            if let Some(cap) = self.cfg.max_examples_per_phase {
                examples.truncate(cap);
            }
        });
        examples
    }

    /// One SFT run from the initial weights. Returns the trained model,
    /// the phase time and the tokens trained on; the loss must fall.
    /// Under tracing, `SftTrainer::run` is recomposed from
    /// `to_examples` and `train_step_with`.
    pub fn train(&self, tr: &Tracer, checks: &mut Checks) -> (TransformerLm, f64, TrainCounts) {
        let mut lm = self.init.clone();
        let tokens_before = bench::counter("train.tokens");
        let steps_before = bench::counter("train.steps");
        let start = Instant::now();
        let (first, last, traced) = tr.span("phase.train", || {
            if !tr.on() {
                let report = SftTrainer::run(&mut lm, &self.tk, &self.dataset, &self.cfg);
                let phase = &report.phases[0];
                return (phase.first_loss, phase.last_loss, None);
            }
            let examples = self.train_examples(tr);
            let exec = ExecConfig::new().threads(WORKERS);
            let mut opt = tr.span("train.optimizer", || {
                lm.set_kernels(self.cfg.kernel);
                Adam::new(lm.trainable_count(), self.cfg.learning_rate)
            });
            let (mut first, mut last, mut counts) = (None, 0.0, TrainCounts::default());
            for batch in examples.chunks(self.cfg.batch_size) {
                let loss =
                    tr.span("model.train_step", || lm.train_step_with(batch, &mut opt, &exec));
                if let Some(loss) = loss {
                    first.get_or_insert(loss);
                    last = loss;
                    counts.steps += 1;
                    counts.tokens += batch.iter().map(|ex| ex.ids.len() as u64).sum::<u64>();
                }
            }
            (first.unwrap_or(0.0), last, Some(counts))
        });
        let secs = start.elapsed().as_secs_f64();
        let counts = traced.unwrap_or(TrainCounts {
            steps: bench::counter("train.steps") - steps_before,
            tokens: bench::counter("train.tokens") - tokens_before,
        });
        checks.check(last < first && counts.tokens > 0, || {
            format!("training loss did not fall: {first} -> {last}")
        });
        (lm, secs, counts)
    }

    /// Untimed estimate for the traced run: an `nll` (forward-only) pass
    /// over the examples one SFT run trains on.
    pub fn forward_pass(&self, lm: &TransformerLm, tr: &Tracer) {
        let examples = self.train_examples(&Tracer::new(false));
        tr.span("model.forward", || {
            for ex in &examples {
                std::hint::black_box(lm.nll(ex));
            }
        });
    }

    /// One `evaluate` per split, each between two probes: an eval repeat
    /// runs for about half a second, which the host's speed swings cut
    /// into shorter spells, so each split is scaled by its own probes.
    /// Returns each split's wall time with the mean of the probes around
    /// it. Under tracing, `evaluate` is recomposed from the decode session
    /// and testbench calls.
    pub fn eval(
        &self,
        lm: &TransformerLm,
        tr: &Tracer,
    ) -> (Vec<(f64, f64)>, Vec<EvalResult>, EvalCounts) {
        let decoded_before = bench::counter("decode.tokens");
        let prefilled_before = bench::counter("decode.prefill.tokens");
        let mut counts = EvalCounts::default();
        let (mut parts, mut results) = (Vec::new(), Vec::new());
        let mut before = bench::probe();
        for problems in &self.splits {
            let start = Instant::now();
            results.push(tr.span("phase.eval", || {
                if tr.on() {
                    self.evaluate_recomposed(lm, problems, tr, &mut counts)
                } else {
                    evaluate(lm, &self.tk, problems, &self.eval_opts)
                }
            }));
            let secs = start.elapsed().as_secs_f64();
            let after = bench::probe();
            parts.push((secs, (before + after) / 2.0));
            before = after;
        }
        if !tr.on() {
            counts.decode_tokens = bench::counter("decode.tokens") - decoded_before;
            counts.prefill_tokens = bench::counter("decode.prefill.tokens") - prefilled_before;
        }
        (parts, results, counts)
    }

    fn evaluate_recomposed(
        &self,
        lm: &TransformerLm,
        problems: &[Problem],
        tr: &Tracer,
        counts: &mut EvalCounts,
    ) -> EvalResult {
        let opts = &self.eval_opts;
        let n = opts.samples_per_problem;
        let results = problems.iter().map(|problem| {
            let (header_ids, prompt) = tr.span("eval.harness.prompt", || {
                let header_ids = self.tk.encode(&problem.header());
                let mut prompt = self.tk.encode_prompt(&problem.prompt());
                prompt.extend_from_slice(&header_ids);
                (header_ids, prompt)
            });
            let sample_opts: Vec<SampleOptions> = (0..n)
                .map(|i| SampleOptions {
                    temperature: sample_temperature(i, n, opts.temperature),
                    top_k: 0,
                })
                .collect();
            let mut rngs: Vec<ChaCha8Rng> = (0..n)
                .map(|i| {
                    let stream = format!("{}#{i}", problem.id);
                    ChaCha8Rng::seed_from_u64(stream_seed_str(opts.seed, &stream))
                })
                .collect();
            let mut session =
                tr.span("model.session_build", || DecodeSession::new_with(lm, opts.kernel));
            let prefix = tr.span("model.prefill", || session.prefill(&prompt, opts.max_new_tokens));
            let gens = tr.span("model.decode", || {
                session.decode_batch(&prefix, opts.max_new_tokens, &sample_opts, &mut rngs)
            });
            counts.prefill_tokens += prefix.len() as u64;
            let mut bench = tr.span("eval.harness.prepare", || {
                ProblemBench::new_with_check(&problem.family, opts.sim, CheckStrategy::Stimulus)
            });
            let mut verdicts: HashMap<String, FunctionalVerdict> = HashMap::new();
            let (mut passed, mut valid) = (0u32, 0u32);
            for g in &gens {
                counts.decode_tokens += g.ids.len() as u64;
                counts.samples += 1;
                let text = tr.span("eval.harness.decode_text", || {
                    let mut ids = header_ids.clone();
                    ids.extend_from_slice(&g.ids);
                    self.tk.decode(&ids)
                });
                if tr.span("eval.harness.syntax", || {
                    pyranet::verilog::check_source(&text).is_compilable()
                }) {
                    valid += 1;
                }
                let verdict = match verdicts.get(&text) {
                    Some(v) => {
                        counts.verdict_cache_hits += 1;
                        v.clone()
                    }
                    None => {
                        let v = tr.span("eval.harness.check", || bench.check(&text));
                        verdicts.insert(text, v.clone());
                        v
                    }
                };
                passed += u32::from(verdict.is_pass());
            }
            counts.syntax_valid += u64::from(valid);
            ProblemResult {
                id: problem.id.clone(),
                n,
                passed,
                syntactically_valid: valid,
                prompt_dropped_tokens: u32::try_from(prefix.dropped_prompt_tokens())
                    .unwrap_or(u32::MAX),
            }
        });
        EvalResult {
            split_name: problems.first().map(|p| p.split.to_string()).unwrap_or_default(),
            problems: results.collect(),
            ks: opts.ks.clone(),
        }
    }

    /// One burst replay of the whole stream. Under tracing, `replay` is recomposed from the engine's
    /// `tokenize_all`, `submit_tokenized` and `pump`.
    pub fn burst(&self, lm: &TransformerLm, tr: &Tracer) -> Burst {
        let start = Instant::now();
        let (responses, tokens, steps, cache) = tr.span("phase.burst", || {
            if !tr.on() {
                let out = replay(lm, &self.tk, self.serve_cfg.clone(), &self.requests);
                return (out.responses, out.decode_tokens, out.steps, out.cache);
            }
            let mut engine = tr.span("serve.engine_build", || {
                ServeEngine::new(lm, &self.tk, self.serve_cfg.clone())
            });
            let mut backlog: VecDeque<_> =
                tr.span("serve.tokenize", || engine.tokenize_all(&self.requests)).into();
            let mut steps = 0u64;
            loop {
                while let Some(req) = backlog.pop_front() {
                    if let Err(req) = tr.span("serve.submit", || engine.submit_tokenized(req)) {
                        backlog.push_front(req);
                        break;
                    }
                }
                let busy = tr.span("serve.pump", || engine.pump());
                steps += 1;
                if !busy && backlog.is_empty() {
                    break;
                }
            }
            (engine.take_responses(), engine.tokens_emitted(), steps, engine.cache_stats())
        });
        let secs = start.elapsed().as_secs_f64();
        let lookups = (cache.hits + cache.misses).max(1);
        Burst {
            secs,
            by_id: completions(&responses),
            tokens,
            steps,
            prefix_hit_ratio: cache.hits as f64 / lookups as f64,
        }
    }

    /// One open-loop pass: request `i` is due `i / rate` seconds after the
    /// start and is submitted as soon as the loop sees it due; latency
    /// runs from the due time to the pump that completes the request.
    pub fn open_loop(&self, lm: &TransformerLm, tr: &Tracer) -> OpenLoop {
        let mut engine = ServeEngine::new(lm, &self.tk, self.serve_cfg.clone());
        let tokenized = tr.span("serve.tokenize", || engine.tokenize_all(&self.requests));
        let index: HashMap<&str, usize> =
            self.requests.iter().enumerate().map(|(i, r)| (r.id.as_str(), i)).collect();
        let n = tokenized.len();
        let mut out = OpenLoop { latency_ms: vec![f64::INFINITY; n], ..OpenLoop::default() };
        let (mut occupancy, mut depth) = (0usize, 0usize);
        let mut slices = Vec::new();
        let due = |i: usize| i as f64 / RATE_PER_S;
        tr.span("phase.open_loop", || {
            let mut pending = tokenized.into_iter().enumerate().peekable();
            let start = Instant::now();
            loop {
                let now = start.elapsed().as_secs_f64();
                while let Some((i, req)) = pending.next_if(|(i, _)| due(*i) <= now) {
                    out.late_ms.push((now - due(i)) * 1e3);
                    if tr.span("serve.submit", || engine.submit_tokenized(req)).is_err() {
                        out.refused += 1;
                    }
                }
                if engine.active() > 0 || engine.queue_len() > 0 {
                    tr.span("serve.open_loop.pump", || engine.pump());
                    out.pumps += 1;
                    occupancy += engine.active();
                    depth += engine.queue_len();
                    let done = start.elapsed().as_secs_f64();
                    for r in engine.take_responses() {
                        let i = index[r.id.as_str()];
                        out.latency_ms[i] = (done - due(i)) * 1e3;
                        out.responses.push(r);
                    }
                } else if let Some((i, _)) = pending.peek() {
                    let at = due(*i);
                    // Idle time samples the host's speed throughout the
                    // pass: probe slices run while the next arrival is more
                    // than a few slices away, then the loop spins.
                    tr.span("serve.idle", || {
                        while start.elapsed().as_secs_f64() + IDLE_SLICE_GUARD_S < at {
                            slices.push(bench::probe_slice());
                        }
                        while start.elapsed().as_secs_f64() < at {
                            std::hint::spin_loop();
                        }
                    });
                } else {
                    break;
                }
            }
        });
        out.slice_s = bench::median(&slices);
        let pumps = out.pumps.max(1) as f64;
        out.occupancy = occupancy as f64 / pumps;
        out.queue_depth = depth as f64 / pumps;
        out
    }
}

/// Probe slices stop this long before an arrival is due, so one never
/// delays a submission by more than a few microseconds.
const IDLE_SLICE_GUARD_S: f64 = 30e-6;

/// Responses sorted into id → completion.
pub fn completions(responses: &[ServeResponse]) -> BTreeMap<String, String> {
    responses.iter().map(|r| (r.id.clone(), r.completion.clone())).collect()
}

/// FNV-1a over eval results' JSON.
pub fn eval_digest(results: &[EvalResult]) -> u64 {
    bench::digest(
        serde_json::to_string(&results.to_vec()).expect("eval results serialize").as_bytes(),
    )
}

/// FNV-1a over id-sorted completions.
pub fn serve_digest(by_id: &BTreeMap<String, String>) -> u64 {
    let mut text = String::new();
    for (id, completion) in by_id {
        text.push_str(id);
        text.push('\t');
        text.push_str(completion);
        text.push('\n');
    }
    bench::digest(text.as_bytes())
}
