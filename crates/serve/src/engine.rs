//! The continuous-batching engine.
//!
//! A [`ServeEngine`] owns one [`DecodeSession`] and runs an arbitrary
//! request stream through it: a bounded admission queue feeds sequences
//! into the lock-step decode batch as running sequences retire on
//! `<eos>` or budget, so the batch stays full instead of draining to the
//! slowest straggler. Because the decode kernels accumulate each output
//! element in a fixed order and rows are independent, a sequence's
//! tokens do not depend on which other sequences share its batch — and
//! each request's sampler is a `ChaCha8Rng` keyed by `(seed, request
//! id)`, so completions are byte-identical regardless of arrival order,
//! batch size, or tokenizer thread count.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use pyranet_exec::{par_map_ref, stream_seed_str, ExecConfig};
use pyranet_model::decode::SeqState;
use pyranet_model::sampler::sample_logits_into;
use pyranet_model::tokenizer::EOS;
use pyranet_model::{
    DecodeSession, KernelMode, PrefixState, PromptPlan, SampleOptions, Tokenizer, TransformerLm,
};
use pyranet_obs::{DEPTH_BUCKETS, DURATION_BUCKETS};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::cache::{CacheOutcome, CacheStats, PrefixCache};
use crate::request::{ServeRequest, ServeResponse};

/// Engine knobs. `max_batch` and `queue_depth` are clamped to at least 1
/// at construction (a zero-depth queue would reject every request and a
/// zero-width batch would never decode — both are configuration errors,
/// not useful modes).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Lock-step batch width: how many sequences decode concurrently.
    pub max_batch: usize,
    /// Admission queue bound; a submit beyond this is rejected
    /// (backpressure), never buffered unboundedly.
    pub queue_depth: usize,
    /// Prefix-cache capacity in prompts (0 disables the cache).
    pub prefix_cache_entries: usize,
    /// Master seed; each request samples from
    /// `stream_seed_str(seed, request.id)`.
    pub seed: u64,
    /// Kernel family for the decode session.
    pub kernel: KernelMode,
    /// Worker threads for request tokenization.
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 8,
            queue_depth: 64,
            prefix_cache_entries: 32,
            seed: 0x5E21,
            kernel: KernelMode::default(),
            threads: 1,
        }
    }
}

/// A request after tokenization, ready for admission. Produced by
/// [`ServeEngine::tokenize_all`] (or internally by
/// [`ServeEngine::submit`]); opaque so the prompt ids and the id that
/// keys the RNG stream cannot drift apart.
#[derive(Debug, Clone)]
pub struct TokenizedRequest {
    id: String,
    ids: Vec<usize>,
    max_new: usize,
    temperature: f32,
}

/// How a finished sequence stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Finish {
    Running,
    Eos,
    Length,
}

/// A queued request plus its enqueue time (for queue-wait latency).
#[derive(Debug)]
struct Queued {
    req: TokenizedRequest,
    enqueued: Instant,
}

/// One active sequence in the lock-step batch.
struct Slot {
    id: String,
    seq: SeqState,
    prefix: Arc<PrefixState>,
    rng: ChaCha8Rng,
    opts: SampleOptions,
    /// Tokens this sequence may still emit (from its [`PromptPlan`]).
    budget: usize,
    out: Vec<usize>,
    dropped_prompt_tokens: u64,
    clamped_new_tokens: u64,
    enqueued: Instant,
    finish: Finish,
}

impl Slot {
    fn running(&self) -> bool {
        self.finish == Finish::Running
    }
}

/// The continuous-batching serve engine. Drive it with
/// [`submit`](ServeEngine::submit) /
/// [`submit_tokenized`](ServeEngine::submit_tokenized) and
/// [`pump`](ServeEngine::pump); collect finished generations with
/// [`take_responses`](ServeEngine::take_responses).
pub struct ServeEngine<'m> {
    session: DecodeSession<'m>,
    tk: &'m Tokenizer,
    cfg: ServeConfig,
    cache: PrefixCache,
    queue: VecDeque<Queued>,
    slots: Vec<Slot>,
    done: Vec<ServeResponse>,
    /// Sampler weight scratch, shared across slots (each sample
    /// overwrites it in full).
    sample_buf: Vec<f32>,
    /// Decode tokens emitted over the engine's lifetime.
    tokens: u64,
}

impl<'m> ServeEngine<'m> {
    pub fn new(lm: &'m TransformerLm, tk: &'m Tokenizer, cfg: ServeConfig) -> ServeEngine<'m> {
        let mut cfg = cfg;
        cfg.max_batch = cfg.max_batch.max(1);
        cfg.queue_depth = cfg.queue_depth.max(1);
        let session = DecodeSession::new_with(lm, cfg.kernel);
        let cache = PrefixCache::new(cfg.prefix_cache_entries);
        ServeEngine {
            session,
            tk,
            cfg,
            cache,
            queue: VecDeque::new(),
            slots: Vec::new(),
            done: Vec::new(),
            sample_buf: Vec::new(),
            tokens: 0,
        }
    }

    /// Tokenizes a batch of requests in parallel (`cfg.threads` workers).
    /// Pure and order-preserving, so the result is independent of thread
    /// count.
    pub fn tokenize_all(&self, reqs: &[ServeRequest]) -> Vec<TokenizedRequest> {
        let exec = ExecConfig::new().threads(self.cfg.threads);
        par_map_ref(&exec, reqs, |r| TokenizedRequest {
            id: r.id.clone(),
            ids: self.tk.encode_prompt(&r.prompt),
            max_new: r.max_new_tokens,
            temperature: r.temperature,
        })
    }

    /// Enqueues a tokenized request, or rejects it (returning it to the
    /// caller) when the admission queue is full. Rejection is the
    /// backpressure signal: the caller retries after pumping, instead of
    /// the engine buffering an unbounded backlog.
    pub fn submit_tokenized(&mut self, req: TokenizedRequest) -> Result<(), TokenizedRequest> {
        let obs = pyranet_obs::global();
        if self.queue.len() >= self.cfg.queue_depth {
            obs.counter("serve.rejected").add(1);
            return Err(req);
        }
        obs.counter("serve.submitted").add(1);
        self.queue.push_back(Queued { req, enqueued: Instant::now() });
        Ok(())
    }

    /// Tokenizes and enqueues one request; on a full queue the original
    /// request comes back untouched (it is not tokenized first).
    pub fn submit(&mut self, req: ServeRequest) -> Result<(), ServeRequest> {
        if self.queue.len() >= self.cfg.queue_depth {
            pyranet_obs::global().counter("serve.rejected").add(1);
            return Err(req);
        }
        let tokenized = TokenizedRequest {
            id: req.id,
            ids: self.tk.encode_prompt(&req.prompt),
            max_new: req.max_new_tokens,
            temperature: req.temperature,
        };
        self.submit_tokenized(tokenized).map_err(|_| unreachable!("queue had room"))
    }

    /// Queued (admitted but not yet decoding) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Sequences currently decoding in the lock-step batch.
    pub fn active(&self) -> usize {
        self.slots.len()
    }

    /// Prefix-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drains finished generations accumulated since the last call.
    pub fn take_responses(&mut self) -> Vec<ServeResponse> {
        std::mem::take(&mut self.done)
    }

    /// Fills empty batch slots from the queue head. Budget-zero requests
    /// (window full of prompt) finish immediately with an empty
    /// completion instead of occupying a slot the forward pass would
    /// crash on.
    fn admit(&mut self) {
        let obs = pyranet_obs::global();
        while self.slots.len() < self.cfg.max_batch {
            let Some(Queued { req, enqueued }) = self.queue.pop_front() else { break };
            obs.histogram("serve.queue.wait.seconds", &DURATION_BUCKETS)
                .observe(enqueued.elapsed().as_secs_f64());
            let plan = PromptPlan::new(req.ids.len(), req.max_new, self.session.max_seq());
            let kept = &req.ids[plan.dropped_prompt_tokens..];
            // `prefill(kept, 0)` never re-trims (kept ≤ max_seq by
            // construction), so the cached state is a pure function of
            // the kept tokens — safe to share across requests whose
            // budgets differ.
            let session = &mut self.session;
            let (prefix, outcome) =
                self.cache.get_or_insert_with(kept, || session.prefill(kept, 0));
            obs.counter(match outcome {
                CacheOutcome::Hit => "serve.prefix_cache.hits",
                CacheOutcome::Miss => "serve.prefix_cache.misses",
                CacheOutcome::Collision => "serve.prefix_cache.collisions",
                CacheOutcome::Bypass => "serve.prefix_cache.bypass",
            })
            .add(1);
            let mut slot = Slot {
                rng: ChaCha8Rng::seed_from_u64(stream_seed_str(self.cfg.seed, &req.id)),
                id: req.id,
                seq: self.session.open_seq(&prefix),
                prefix,
                opts: SampleOptions { temperature: req.temperature, top_k: 0 },
                budget: plan.new_token_budget,
                out: Vec::new(),
                dropped_prompt_tokens: plan.dropped_prompt_tokens as u64,
                clamped_new_tokens: plan.clamped_new_tokens as u64,
                enqueued,
                finish: Finish::Running,
            };
            if slot.budget == 0 {
                slot.finish = Finish::Length;
                self.finish_slot(slot);
                continue;
            }
            obs.counter("serve.admitted").add(1);
            self.slots.push(slot);
        }
    }

    /// One engine step: admit from the queue, sample every live
    /// sequence, retire finishers, then run one lock-step forward over
    /// the survivors. Returns `true` while any work (queued or active)
    /// remains.
    pub fn pump(&mut self) -> bool {
        self.admit();
        if self.slots.is_empty() {
            return !self.queue.is_empty();
        }
        let obs = pyranet_obs::global();
        obs.histogram("serve.batch.occupancy", &DEPTH_BUCKETS).observe(self.slots.len() as f64);
        obs.histogram("serve.queue.depth", &DEPTH_BUCKETS).observe(self.queue.len() as f64);

        // Sample one token per live sequence off its current logits.
        let mut emitted = 0u64;
        for slot in &mut self.slots {
            let next = sample_logits_into(
                slot.seq.logits(),
                &slot.opts,
                &mut slot.rng,
                &mut self.sample_buf,
            );
            if next == EOS {
                slot.finish = Finish::Eos;
                continue;
            }
            slot.out.push(next);
            slot.seq.push_token(next);
            emitted += 1;
            if slot.out.len() == slot.budget {
                // The window is full: retire before the forward pass —
                // a step for a token that can never be sampled would
                // index position `max_seq` and waste a full forward.
                slot.finish = Finish::Length;
            }
        }
        self.tokens += emitted;
        obs.counter("serve.tokens").add(emitted);

        // Retire finishers; survivors keep their relative order so the
        // batch composition is a pure function of the admission order.
        let slots = std::mem::take(&mut self.slots);
        let mut live = Vec::with_capacity(slots.len());
        for slot in slots {
            if slot.running() {
                live.push(slot);
            } else {
                self.finish_slot(slot);
            }
        }
        self.slots = live;

        // One lock-step forward absorbs each survivor's pending token
        // and refreshes its logits for the next pump.
        let mut rows: Vec<(&mut SeqState, &PrefixState)> =
            self.slots.iter_mut().map(|s| (&mut s.seq, s.prefix.as_ref())).collect();
        self.session.step_seqs(&mut rows);

        !self.slots.is_empty() || !self.queue.is_empty()
    }

    fn finish_slot(&mut self, slot: Slot) {
        let obs = pyranet_obs::global();
        obs.histogram("serve.request.latency.seconds", &DURATION_BUCKETS)
            .observe(slot.enqueued.elapsed().as_secs_f64());
        obs.counter("serve.completed").add(1);
        obs.counter(match slot.finish {
            Finish::Eos => "serve.retired_eos",
            _ => "serve.retired_budget",
        })
        .add(1);
        self.done.push(ServeResponse {
            id: slot.id,
            completion: self.tk.decode(&slot.out),
            decode_tokens: slot.out.len() as u64,
            dropped_prompt_tokens: slot.dropped_prompt_tokens,
            clamped_new_tokens: slot.clamped_new_tokens,
            finish_reason: match slot.finish {
                Finish::Eos => "eos".into(),
                _ => "length".into(),
            },
        });
    }

    /// Total decode tokens emitted over the engine's lifetime.
    pub fn tokens_emitted(&self) -> u64 {
        self.tokens
    }
}
