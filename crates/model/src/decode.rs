//! The batched, prefix-cached inference engine.
//!
//! The pass@k evaluation workload is *n samples per problem over one
//! prompt*: the naive loop re-merges weights, re-prefills the identical
//! prompt, and re-allocates every scratch buffer for each of the n
//! samples. [`DecodeSession`] removes all three costs:
//!
//! * **Shared prefill.** [`DecodeSession::prefill`] runs the prompt once
//!   (as one batched forward over all prompt rows, not token by token)
//!   and snapshots the KV cache as a [`PrefixState`]. Forked sequences
//!   *borrow* the prefix cache and only append their own suffix — a
//!   zero-copy KV fork.
//! * **Batched decode.** [`DecodeSession::decode_batch`] steps every live
//!   sequence of a problem together, so the per-token Q/K/V, FFN, and
//!   logit projections become `[batch, d]` matmuls routed through the
//!   session's [`KernelMode`] family of [`crate::tensor::kernels`]
//!   instead of n independent vector-matrix products. Sequences retire
//!   independently on `<eos>`.
//! * **Zero per-token allocation.** Effective (LoRA-merged) weights are
//!   materialised once per session and every intermediate lives in a
//!   scratch arena that is reused across tokens, samples, and problems.
//!
//! # Determinism
//!
//! In the f32 families ([`KernelMode::Blocked`] and `Reference`) every
//! kernel on this path accumulates each output element in ascending
//! shared-dimension order — the same discipline as the training kernels —
//! so a row of a batched matmul is bit-identical to the
//! corresponding single-vector product, a forked sequence is bit-identical
//! to one decoded from a fresh prefill, and a batch of sequences is
//! bit-identical to the same sequences decoded one at a time. Property
//! tests pin all three equivalences against the retained
//! [`TransformerLm::generate_legacy`] loop.
//!
//! A [`KernelMode::QuantizedInt8`] session trades that bit-exactness for
//! throughput: effective weights are absmax-quantized to int8 once at
//! session build (see [`crate::quant`]) and the hot matmuls accumulate in
//! `i32` — still *exactly* reproducible run-to-run (integer addition is
//! associative), just not bit-identical to the f32 session. Accuracy is
//! gated by an int8-vs-f32 pass@k parity test in the eval harness.
//!
//! # Prompt clamping
//!
//! The legacy loop silently dropped forced prompt tokens once
//! `prompt.len() + max_new` crossed `cfg.max_seq`, and returned an *empty*
//! completion when the prompt alone overflowed the window. The session
//! clamps explicitly via [`PromptPlan`]: a prompt that fits keeps its
//! exact legacy semantics, an over-long prompt is trimmed **head-first**
//! (so a forced suffix such as the eval harness's module header always
//! survives) with real decode headroom reserved, and both the drop and
//! the clamp are surfaced in [`Generation`].

use crate::quant::{self, QuantizedMatrix};
use crate::sampler::{sample_logits_into, SampleOptions};
use crate::tensor::{gelu_fwd, gelu_fwd_fast, kernels, softmax_row_inplace, KernelMode, Matrix};
use crate::tokenizer::EOS;
use crate::transformer::{ln_row_into, vec_mat, DecodeWeights, TransformerLm};
use rand::Rng;

/// Explicit context-window plan for one prompt: what survives, what is
/// dropped, and how many new-token slots remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromptPlan {
    /// Prompt tokens kept (always the prompt *tail*, so forced suffixes
    /// survive).
    pub kept_prompt_tokens: usize,
    /// Prompt tokens dropped from the head.
    pub dropped_prompt_tokens: usize,
    /// New-token slots that fit the window after the kept prompt.
    pub new_token_budget: usize,
    /// Requested new-token slots lost to the window.
    pub clamped_new_tokens: usize,
}

impl PromptPlan {
    /// Plans `prompt_len` forced tokens plus up to `max_new` sampled
    /// tokens into a `max_seq` context window.
    ///
    /// A prompt that fits (`prompt_len < max_seq`) is never trimmed — the
    /// budget is clamped exactly as the legacy loop clamped it. A prompt
    /// that overflows the window (the case the legacy loop turned into an
    /// empty completion) keeps its tail, reserving up to a quarter of the
    /// window for decoding so the completion is not a one-token stub.
    pub fn new(prompt_len: usize, max_new: usize, max_seq: usize) -> PromptPlan {
        let kept = if prompt_len >= max_seq && max_new > 0 {
            let headroom = max_new.min((max_seq / 4).max(1));
            max_seq.saturating_sub(headroom)
        } else {
            prompt_len.min(max_seq)
        };
        // Clamp unconditionally: every branch above intends `kept <=
        // max_seq`, but the arithmetic must never be trusted to uphold
        // that on degenerate windows — `max_seq - kept` below underflows
        // `usize` (a debug-build panic, garbage in release) if it slips.
        let kept = kept.min(max_seq).min(prompt_len);
        let budget = max_new.min(max_seq - kept);
        PromptPlan {
            kept_prompt_tokens: kept,
            dropped_prompt_tokens: prompt_len - kept,
            new_token_budget: budget,
            clamped_new_tokens: max_new - budget,
        }
    }

    /// Whether any forced prompt token was dropped.
    pub fn truncated(&self) -> bool {
        self.dropped_prompt_tokens > 0
    }
}

/// One generation: the sampled ids plus the explicit truncation report
/// (what the legacy path used to swallow silently).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generation {
    /// Newly generated token ids (the prompt is not repeated; stops at
    /// `<eos>`).
    pub ids: Vec<usize>,
    /// Prompt tokens dropped from the head to fit the context window.
    pub dropped_prompt_tokens: usize,
    /// Requested new-token slots lost to the context window.
    pub clamped_new_tokens: usize,
}

impl Generation {
    /// Whether the forced prompt lost tokens to the context window.
    pub fn prompt_truncated(&self) -> bool {
        self.dropped_prompt_tokens > 0
    }
}

/// Snapshot of the KV cache after prefilling one prompt. Forked sequences
/// borrow this (read-only) and append only their own suffix.
#[derive(Debug, Clone)]
pub struct PrefixState {
    /// Per-layer keys, `len * d` floats each.
    kcache: Vec<Vec<f32>>,
    /// Per-layer values, `len * d` floats each.
    vcache: Vec<Vec<f32>>,
    /// Prompt tokens in the cache.
    len: usize,
    /// Logits after the final prompt token (all zeros for an empty
    /// prompt, matching the legacy loop's initial logits).
    logits: Vec<f32>,
    /// Prompt tokens dropped by the [`PromptPlan`].
    dropped_prompt_tokens: usize,
}

impl PrefixState {
    /// Prompt tokens held in the cache.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the prefix holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Prompt tokens dropped from the head to fit the context window.
    pub fn dropped_prompt_tokens(&self) -> usize {
        self.dropped_prompt_tokens
    }
}

/// Per-sequence token selection for [`DecodeSession::decode_batch`].
///
/// Implemented for every [`Rng`] via [`sample_logits_into`], so a plain
/// `ChaCha8Rng` is a sampler. `scratch` is the session's reusable weight
/// buffer — implementations must not assume anything about its contents.
pub trait TokenSampler {
    /// Picks the next token id from `logits`.
    fn next_token(&mut self, logits: &[f32], opts: &SampleOptions, scratch: &mut Vec<f32>)
        -> usize;
}

impl<R: Rng> TokenSampler for R {
    fn next_token(
        &mut self,
        logits: &[f32],
        opts: &SampleOptions,
        scratch: &mut Vec<f32>,
    ) -> usize {
        sample_logits_into(logits, opts, self, scratch)
    }
}

/// Scratch arenas reused across tokens, samples, and problems. Buffers
/// grow to the high-water mark once and never shrink, so steady-state
/// decoding performs no allocation.
#[derive(Debug)]
struct Scratch {
    /// Residual stream, `[rows, d]`.
    x: Matrix,
    /// Layer-norm output, `[rows, d]`.
    xn: Matrix,
    /// Query/key/value projections, `[rows, d]` each.
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Attention output, `[rows, d]`.
    merged: Matrix,
    /// Output projection, `[rows, d]`.
    proj: Matrix,
    /// FFN intermediates, `[rows, d_ff]` and `[rows, d]`.
    h1: Matrix,
    h2: Matrix,
    /// Logit rows, `[rows, vocab]`.
    logits: Matrix,
    /// Attention score row (one head at a time, up to `max_seq` long).
    scores: Vec<f32>,
    /// Sampler weight buffer (vocab long).
    sample: Vec<f32>,
    /// Quantized activation row (int8 sessions only; empty otherwise).
    xq: Vec<i16>,
}

impl Scratch {
    fn new(d: usize, d_ff: usize, vocab: usize, max_seq: usize) -> Scratch {
        let m = |cols: usize| Matrix::new(0, cols, Vec::new());
        Scratch {
            x: m(d),
            xn: m(d),
            q: m(d),
            k: m(d),
            v: m(d),
            merged: m(d),
            proj: m(d),
            h1: m(d_ff),
            h2: m(d),
            logits: m(vocab),
            scores: Vec::with_capacity(max_seq),
            sample: Vec::with_capacity(vocab),
            xq: Vec::new(),
        }
    }
}

/// The effective weights of a [`KernelMode::QuantizedInt8`] session,
/// absmax-quantized to int8 exactly once at session build.
#[derive(Debug)]
struct QuantWeights {
    wq: Vec<QuantizedMatrix>,
    wk: Vec<QuantizedMatrix>,
    wv: Vec<QuantizedMatrix>,
    wo: Vec<QuantizedMatrix>,
    w1: Vec<QuantizedMatrix>,
    w2: Vec<QuantizedMatrix>,
    head: QuantizedMatrix,
}

impl QuantWeights {
    fn build(w: &DecodeWeights<'_>) -> QuantWeights {
        let q = |v: &[std::borrow::Cow<'_, Matrix>]| {
            v.iter().map(|m| QuantizedMatrix::quantize(m)).collect()
        };
        QuantWeights {
            wq: q(&w.wq),
            wk: q(&w.wk),
            wv: q(&w.wv),
            wo: q(&w.wo),
            w1: q(&w.w1),
            w2: q(&w.w2),
            head: QuantizedMatrix::quantize(w.head),
        }
    }
}

/// Routes one projection through either the int8 path (when the session
/// quantized its weights) or the selected f32 kernel family.
fn project_into(
    mode: KernelMode,
    qw: Option<&QuantizedMatrix>,
    a: &Matrix,
    w: &Matrix,
    out: &mut Matrix,
    xq: &mut Vec<i16>,
) {
    match qw {
        Some(qw) => quant::qmatmul_rows_into(a, qw, out, xq),
        None => kernels::matmul_into(mode, a, w, out),
    }
}

/// Resizes an arena matrix to `rows` without releasing capacity.
fn set_rows(m: &mut Matrix, rows: usize) {
    m.rows = rows;
    m.data.resize(rows * m.cols, 0.0);
}

/// Head-size f32 dot product as four explicit partial lanes (`H` must be
/// a multiple of 4 — dispatched head sizes are). The lane split reorders
/// the f32 accumulation, so this is reserved for the int8 session, whose
/// contract is reproducibility, not bit-parity with the f32 families.
#[inline]
fn fdot_fixed<const H: usize>(a: &[f32], b: &[f32]) -> f32 {
    let a: &[f32; H] = a[..H].try_into().expect("dispatcher checked the width");
    let b: &[f32; H] = b[..H].try_into().expect("dispatcher checked the width");
    let mut lanes = [0.0f32; 4];
    for c in 0..H / 4 {
        for (l, acc) in lanes.iter_mut().enumerate() {
            *acc += a[c * 4 + l] * b[c * 4 + l];
        }
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// Lane-vectorized dot for the head sizes that occur in practice, with an
/// ascending-order scalar fallback for the rest.
#[inline]
fn fdot_fast(a: &[f32], b: &[f32]) -> f32 {
    match a.len() {
        8 => fdot_fixed::<8>(a, b),
        16 => fdot_fixed::<16>(a, b),
        32 => fdot_fixed::<32>(a, b),
        64 => fdot_fixed::<64>(a, b),
        _ => a.iter().zip(b).map(|(x, y)| x * y).sum(),
    }
}

/// Causal attention for one query row over a (borrowed prefix ‖ owned
/// suffix) KV cache. Scores and the value accumulation both run in
/// ascending cache order — prefix first, then suffix — which is exactly
/// the order the legacy single-cache loop used, so f32-family results are
/// bit-identical to attending over the concatenated cache.
///
/// `fast` (int8 sessions only) swaps the score dots for lane-split
/// [`fdot_fast`] and the score softmax for the polynomial
/// [`kernels::softmax_row_inplace_lanes`] — deterministic, but not
/// bit-identical to the f32 attention, which is already the int8
/// session's accuracy contract (gated by the pass@k parity test).
#[allow(clippy::too_many_arguments)]
fn attend_row(
    q_row: &[f32],
    merged_row: &mut [f32],
    prefix_k: &[f32],
    prefix_v: &[f32],
    own_k: &[f32],
    own_v: &[f32],
    d: usize,
    nh: usize,
    hs: usize,
    scale: f32,
    scores: &mut Vec<f32>,
    fast: bool,
) {
    let prefix_steps = prefix_k.len() / d;
    let own_steps = own_k.len() / d;
    merged_row.fill(0.0);
    for h in 0..nh {
        let qh = &q_row[h * hs..(h + 1) * hs];
        scores.clear();
        for s in 0..prefix_steps {
            let kh = &prefix_k[s * d + h * hs..s * d + (h + 1) * hs];
            let dot =
                if fast { fdot_fast(qh, kh) } else { qh.iter().zip(kh).map(|(a, b)| a * b).sum() };
            scores.push(dot * scale);
        }
        for s in 0..own_steps {
            let kh = &own_k[s * d + h * hs..s * d + (h + 1) * hs];
            let dot =
                if fast { fdot_fast(qh, kh) } else { qh.iter().zip(kh).map(|(a, b)| a * b).sum() };
            scores.push(dot * scale);
        }
        if fast {
            kernels::softmax_row_inplace_lanes(scores);
        } else {
            softmax_row_inplace(scores);
        }
        for (s, w) in scores[..prefix_steps].iter().enumerate() {
            let vh = &prefix_v[s * d + h * hs..s * d + (h + 1) * hs];
            for (j, vx) in vh.iter().enumerate() {
                merged_row[h * hs + j] += w * vx;
            }
        }
        for (s, w) in scores[prefix_steps..].iter().enumerate() {
            let vh = &own_v[s * d + h * hs..s * d + (h + 1) * hs];
            for (j, vx) in vh.iter().enumerate() {
                merged_row[h * hs + j] += w * vx;
            }
        }
    }
}

/// One live decoding sequence in a (possibly heterogeneous) batch: its
/// own per-layer KV suffix over a shared prefix, the logits to sample the
/// next token from, and its absolute position in the context window.
///
/// [`DecodeSession::decode_batch`] drives homogeneous batches of these
/// (n forks of one prefix, created and retired together); the
/// `pyranet-serve` continuous-batching daemon composes arbitrary
/// mixtures — sequences forked from *different* prefixes, at different
/// positions, joining and leaving the lock-step batch as requests arrive
/// and retire. Because every row of a batched forward is computed
/// independently (and each f32 output element accumulates in ascending
/// shared-dimension order), a sequence's tokens are bit-identical no
/// matter which other sequences happen to share its batches.
#[derive(Debug)]
pub struct SeqState {
    /// Own KV suffix, one growing buffer per layer.
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    /// Logits after the last absorbed token (the prefix logits until the
    /// first [`DecodeSession::step_seqs`]).
    logits: Vec<f32>,
    /// Token awaiting its forward pass (the most recently sampled id).
    last: usize,
    /// Absolute position that pending token occupies: prefix length plus
    /// suffix tokens already absorbed.
    pos: usize,
}

impl SeqState {
    /// Logits to sample the next token from.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// Stages `id` as the pending token; the next
    /// [`DecodeSession::step_seqs`] that includes this sequence absorbs
    /// it into the KV suffix and refreshes [`SeqState::logits`].
    pub fn push_token(&mut self, id: usize) {
        self.last = id;
    }

    /// Absolute position the pending token will occupy (prefix + suffix
    /// tokens absorbed so far).
    pub fn pos(&self) -> usize {
        self.pos
    }
}

/// A reusable inference session over one model: pre-merged weights plus
/// scratch arenas. Create once, then `prefill` each prompt and fork as
/// many decodes from the [`PrefixState`] as needed.
#[derive(Debug)]
pub struct DecodeSession<'m> {
    w: DecodeWeights<'m>,
    /// Int8 copies of the effective weights; `Some` iff `kernels` is
    /// [`KernelMode::QuantizedInt8`].
    quant: Option<QuantWeights>,
    kernels: KernelMode,
    d: usize,
    hs: usize,
    nh: usize,
    n_layers: usize,
    max_seq: usize,
    vocab: usize,
    scale: f32,
    scratch: Scratch,
}

impl<'m> DecodeSession<'m> {
    /// Builds a session with the model's own kernel family
    /// ([`TransformerLm::kernels`]): effective (LoRA-merged) weights are
    /// materialised exactly once, borrowed straight from the model unless
    /// an adapter forces a merge copy.
    pub fn new(lm: &'m TransformerLm) -> DecodeSession<'m> {
        DecodeSession::new_with(lm, lm.kernels())
    }

    /// Builds a session with an explicit kernel family. A
    /// [`KernelMode::QuantizedInt8`] session additionally quantizes the
    /// effective weights to int8 here, once, so the per-token cost is pure
    /// i32 arithmetic over 4×-smaller weights.
    pub fn new_with(lm: &'m TransformerLm, mode: KernelMode) -> DecodeSession<'m> {
        let cfg = &lm.cfg;
        let w = lm.decode_weights();
        let quant = (mode == KernelMode::QuantizedInt8).then(|| QuantWeights::build(&w));
        DecodeSession {
            quant,
            kernels: mode,
            d: cfg.d_model,
            hs: cfg.head_size(),
            nh: cfg.n_heads,
            n_layers: w.wq.len(),
            max_seq: cfg.max_seq,
            vocab: lm.vocab_size(),
            scale: 1.0 / (cfg.head_size() as f32).sqrt(),
            scratch: Scratch::new(cfg.d_model, cfg.d_ff, lm.vocab_size(), cfg.max_seq),
            w,
        }
    }

    /// The kernel family this session decodes with.
    pub fn kernels(&self) -> KernelMode {
        self.kernels
    }

    /// The model's context-window length (prompt + completion tokens).
    pub fn max_seq(&self) -> usize {
        self.max_seq
    }

    /// Vocabulary size (the width of every logits row).
    pub fn vocab_size(&self) -> usize {
        self.vocab
    }

    /// Forks a fresh sequence off `prefix`: empty KV suffix, the prefix
    /// logits to sample the first token from, positioned right after the
    /// prefix. The prefix itself is not captured — pass it back to every
    /// [`DecodeSession::step_seqs`] call (callers that share one prefix
    /// across many sequences, or cache prefixes across requests, own
    /// that association).
    pub fn open_seq(&self, prefix: &PrefixState) -> SeqState {
        SeqState {
            k: (0..self.n_layers).map(|_| Vec::new()).collect(),
            v: (0..self.n_layers).map(|_| Vec::new()).collect(),
            logits: prefix.logits.clone(),
            last: 0,
            pos: prefix.len,
        }
    }

    /// Runs the (clamped) prompt through the model once, as a single
    /// batched forward over all prompt rows, and snapshots the KV cache.
    /// `max_new` feeds the [`PromptPlan`] clamp only; it does not decode.
    ///
    /// Logits are computed for the final row alone — the legacy loop's
    /// per-prompt-token logit products were dead work.
    pub fn prefill(&mut self, prompt: &[usize], max_new: usize) -> PrefixState {
        let obs = pyranet_obs::global();
        let span = obs.span("decode.prefill");
        let plan = PromptPlan::new(prompt.len(), max_new, self.max_seq);
        let prompt = &prompt[plan.dropped_prompt_tokens..];
        let n = prompt.len();
        obs.counter("decode.prefill.tokens").add(n as u64);
        let (d, nh, hs, scale) = (self.d, self.nh, self.hs, self.scale);
        let mut kcache: Vec<Vec<f32>> = (0..self.n_layers).map(|_| vec![0.0; n * d]).collect();
        let mut vcache: Vec<Vec<f32>> = (0..self.n_layers).map(|_| vec![0.0; n * d]).collect();
        if n == 0 {
            return PrefixState {
                kcache,
                vcache,
                len: 0,
                logits: vec![0.0; self.vocab],
                dropped_prompt_tokens: plan.dropped_prompt_tokens,
            };
        }

        let sc = &mut self.scratch;
        set_rows(&mut sc.x, n);
        for (t, &id) in prompt.iter().enumerate() {
            for c in 0..d {
                sc.x.data[t * d + c] = self.w.tok.data[id * d + c] + self.w.pos.data[t * d + c];
            }
        }
        for li in 0..self.n_layers {
            set_rows(&mut sc.xn, n);
            for t in 0..n {
                ln_row_into(&sc.x.data[t * d..(t + 1) * d], &mut sc.xn.data[t * d..(t + 1) * d]);
            }
            set_rows(&mut sc.q, n);
            set_rows(&mut sc.k, n);
            set_rows(&mut sc.v, n);
            let qw = self.quant.as_ref();
            let mode = self.kernels;
            project_into(
                mode,
                qw.map(|q| &q.wq[li]),
                &sc.xn,
                &self.w.wq[li],
                &mut sc.q,
                &mut sc.xq,
            );
            project_into(
                mode,
                qw.map(|q| &q.wk[li]),
                &sc.xn,
                &self.w.wk[li],
                &mut sc.k,
                &mut sc.xq,
            );
            project_into(
                mode,
                qw.map(|q| &q.wv[li]),
                &sc.xn,
                &self.w.wv[li],
                &mut sc.v,
                &mut sc.xq,
            );
            kcache[li].copy_from_slice(&sc.k.data);
            vcache[li].copy_from_slice(&sc.v.data);
            set_rows(&mut sc.merged, n);
            for t in 0..n {
                // Row t attends causally over cache entries 0..=t.
                attend_row(
                    &sc.q.data[t * d..(t + 1) * d],
                    &mut sc.merged.data[t * d..(t + 1) * d],
                    &[],
                    &[],
                    &kcache[li][..(t + 1) * d],
                    &vcache[li][..(t + 1) * d],
                    d,
                    nh,
                    hs,
                    scale,
                    &mut sc.scores,
                    qw.is_some(),
                );
            }
            set_rows(&mut sc.proj, n);
            project_into(
                mode,
                qw.map(|q| &q.wo[li]),
                &sc.merged,
                &self.w.wo[li],
                &mut sc.proj,
                &mut sc.xq,
            );
            for (xv, pv) in sc.x.data.iter_mut().zip(&sc.proj.data) {
                *xv += pv;
            }
            set_rows(&mut sc.xn, n);
            for t in 0..n {
                ln_row_into(&sc.x.data[t * d..(t + 1) * d], &mut sc.xn.data[t * d..(t + 1) * d]);
            }
            set_rows(&mut sc.h1, n);
            project_into(
                mode,
                qw.map(|q| &q.w1[li]),
                &sc.xn,
                &self.w.w1[li],
                &mut sc.h1,
                &mut sc.xq,
            );
            // Int8 sessions take the polynomial gelu too — same
            // reproducible-not-bit-identical contract as their matmuls.
            if qw.is_some() {
                for vx in sc.h1.data.iter_mut() {
                    *vx = gelu_fwd_fast(*vx);
                }
            } else {
                for vx in sc.h1.data.iter_mut() {
                    *vx = gelu_fwd(*vx);
                }
            }
            set_rows(&mut sc.h2, n);
            project_into(
                mode,
                qw.map(|q| &q.w2[li]),
                &sc.h1,
                &self.w.w2[li],
                &mut sc.h2,
                &mut sc.xq,
            );
            for (xv, pv) in sc.x.data.iter_mut().zip(&sc.h2.data) {
                *xv += pv;
            }
        }
        // Logits for the final row only.
        let mut last_ln = vec![0.0f32; d];
        ln_row_into(&sc.x.data[(n - 1) * d..n * d], &mut last_ln);
        let logits = match &self.quant {
            Some(qw) => {
                let mut out = vec![0.0f32; self.vocab];
                let x_scale = quant::quantize_row_into(&last_ln, &mut sc.xq);
                if x_scale != 0.0 {
                    quant::qmatvec_into(&sc.xq, x_scale, &qw.head, &mut out);
                }
                out
            }
            // `vec_mat` accumulates in ascending order, matching every f32
            // family's forward matmul bit-for-bit.
            None => vec_mat(&last_ln, self.w.head),
        };
        obs.rate_gauge("decode.prefill.tokens_per_sec", n as f64, span.stop().as_secs_f64());
        PrefixState {
            kcache,
            vcache,
            len: n,
            logits,
            dropped_prompt_tokens: plan.dropped_prompt_tokens,
        }
    }

    /// Decodes one sequence forked from `prefix` (batch of one).
    pub fn decode_one<R: Rng>(
        &mut self,
        prefix: &PrefixState,
        max_new: usize,
        opts: &SampleOptions,
        rng: &mut R,
    ) -> Generation {
        self.decode_batch(prefix, max_new, std::slice::from_ref(opts), std::slice::from_mut(rng))
            .pop()
            .expect("one sequence in, one generation out")
    }

    /// Decodes `opts.len()` sequences forked from `prefix` in lock-step:
    /// every live sequence samples, then all pending tokens run through
    /// the model as one `[live, d]` batched forward. Sequences retire
    /// independently when they sample `<eos>` or exhaust the budget.
    ///
    /// Each sequence's ids are bit-identical to decoding it alone from
    /// the same prefix with the same sampler — batching is a throughput
    /// knob, never a semantic one.
    pub fn decode_batch<S: TokenSampler>(
        &mut self,
        prefix: &PrefixState,
        max_new: usize,
        opts: &[SampleOptions],
        samplers: &mut [S],
    ) -> Vec<Generation> {
        assert_eq!(opts.len(), samplers.len(), "one sampler per sequence");
        let obs = pyranet_obs::global();
        let span = obs.span("decode.batch");
        let n_seq = opts.len();
        obs.counter("decode.forks").add(n_seq as u64);
        let new_budget = max_new.min(self.max_seq.saturating_sub(prefix.len));
        let clamped = max_new - new_budget;
        let mut seqs: Vec<SeqState> = (0..n_seq).map(|_| self.open_seq(prefix)).collect();
        let mut outs: Vec<Vec<usize>> = (0..n_seq).map(|_| Vec::new()).collect();
        let mut alive = vec![true; n_seq];
        for step in 0..new_budget {
            // Sample every live sequence (ascending index; each sequence
            // has its own sampler, so the order is cosmetic).
            let mut any_live = false;
            for i in 0..n_seq {
                if !alive[i] {
                    continue;
                }
                let next =
                    samplers[i].next_token(seqs[i].logits(), &opts[i], &mut self.scratch.sample);
                if next == EOS {
                    alive[i] = false;
                    continue;
                }
                outs[i].push(next);
                seqs[i].push_token(next);
                any_live = true;
            }
            // The budget's final tokens feed nothing — skip their forward
            // (the legacy loop computed and discarded it).
            if !any_live || step + 1 == new_budget {
                break;
            }
            let mut rows: Vec<(&mut SeqState, &PrefixState)> =
                seqs.iter_mut().zip(&alive).filter(|(_, &a)| a).map(|(s, _)| (s, prefix)).collect();
            self.step_seqs(&mut rows);
        }
        let tokens: u64 = outs.iter().map(|o| o.len() as u64).sum();
        let eos_retired = alive.iter().filter(|a| !**a).count();
        obs.counter("decode.tokens").add(tokens);
        obs.counter("decode.retired_eos").add(eos_retired as u64);
        obs.counter("decode.retired_budget").add((n_seq - eos_retired) as u64);
        obs.rate_gauge("decode.tokens_per_sec", tokens as f64, span.stop().as_secs_f64());
        outs.into_iter()
            .map(|ids| Generation {
                ids,
                dropped_prompt_tokens: prefix.dropped_prompt_tokens,
                clamped_new_tokens: clamped,
            })
            .collect()
    }

    /// One lock-step decode step over an arbitrary batch of sequences:
    /// each row absorbs its sequence's pending token (at that sequence's
    /// own position, attending over that sequence's own prefix ‖ suffix)
    /// and refreshes the sequence's logits. This is the continuous-batch
    /// primitive — rows may come from different prompts, different
    /// requests, and different decode depths, and per-row results are
    /// bit-identical to stepping each sequence alone.
    ///
    /// The caller must only include rows whose pending position is inside
    /// the context window (`seq.pos() < session.max_seq()`); sequences at
    /// their token budget should simply be left out of the batch — their
    /// final forward would feed nothing.
    pub fn step_seqs(&mut self, rows: &mut [(&mut SeqState, &PrefixState)]) {
        let n = rows.len();
        if n == 0 {
            return;
        }
        let (d, nh, hs, scale) = (self.d, self.nh, self.hs, self.scale);
        let sc = &mut self.scratch;
        set_rows(&mut sc.x, n);
        for (r, (seq, _)) in rows.iter().enumerate() {
            let id = seq.last;
            let t = seq.pos;
            debug_assert!(t < self.max_seq, "pending token outside the context window");
            for c in 0..d {
                sc.x.data[r * d + c] = self.w.tok.data[id * d + c] + self.w.pos.data[t * d + c];
            }
        }
        for li in 0..self.n_layers {
            set_rows(&mut sc.xn, n);
            for r in 0..n {
                ln_row_into(&sc.x.data[r * d..(r + 1) * d], &mut sc.xn.data[r * d..(r + 1) * d]);
            }
            set_rows(&mut sc.q, n);
            set_rows(&mut sc.k, n);
            set_rows(&mut sc.v, n);
            let qw = self.quant.as_ref();
            let mode = self.kernels;
            project_into(
                mode,
                qw.map(|q| &q.wq[li]),
                &sc.xn,
                &self.w.wq[li],
                &mut sc.q,
                &mut sc.xq,
            );
            project_into(
                mode,
                qw.map(|q| &q.wk[li]),
                &sc.xn,
                &self.w.wk[li],
                &mut sc.k,
                &mut sc.xq,
            );
            project_into(
                mode,
                qw.map(|q| &q.wv[li]),
                &sc.xn,
                &self.w.wv[li],
                &mut sc.v,
                &mut sc.xq,
            );
            for (r, (seq, _)) in rows.iter_mut().enumerate() {
                seq.k[li].extend_from_slice(&sc.k.data[r * d..(r + 1) * d]);
                seq.v[li].extend_from_slice(&sc.v.data[r * d..(r + 1) * d]);
            }
            set_rows(&mut sc.merged, n);
            for (r, (seq, prefix)) in rows.iter().enumerate() {
                attend_row(
                    &sc.q.data[r * d..(r + 1) * d],
                    &mut sc.merged.data[r * d..(r + 1) * d],
                    &prefix.kcache[li],
                    &prefix.vcache[li],
                    &seq.k[li],
                    &seq.v[li],
                    d,
                    nh,
                    hs,
                    scale,
                    &mut sc.scores,
                    qw.is_some(),
                );
            }
            set_rows(&mut sc.proj, n);
            project_into(
                mode,
                qw.map(|q| &q.wo[li]),
                &sc.merged,
                &self.w.wo[li],
                &mut sc.proj,
                &mut sc.xq,
            );
            for (xv, pv) in sc.x.data.iter_mut().zip(&sc.proj.data) {
                *xv += pv;
            }
            set_rows(&mut sc.xn, n);
            for r in 0..n {
                ln_row_into(&sc.x.data[r * d..(r + 1) * d], &mut sc.xn.data[r * d..(r + 1) * d]);
            }
            set_rows(&mut sc.h1, n);
            project_into(
                mode,
                qw.map(|q| &q.w1[li]),
                &sc.xn,
                &self.w.w1[li],
                &mut sc.h1,
                &mut sc.xq,
            );
            // Int8 sessions take the polynomial gelu too — same
            // reproducible-not-bit-identical contract as their matmuls.
            if qw.is_some() {
                for vx in sc.h1.data.iter_mut() {
                    *vx = gelu_fwd_fast(*vx);
                }
            } else {
                for vx in sc.h1.data.iter_mut() {
                    *vx = gelu_fwd(*vx);
                }
            }
            set_rows(&mut sc.h2, n);
            project_into(
                mode,
                qw.map(|q| &q.w2[li]),
                &sc.h1,
                &self.w.w2[li],
                &mut sc.h2,
                &mut sc.xq,
            );
            for (xv, pv) in sc.x.data.iter_mut().zip(&sc.h2.data) {
                *xv += pv;
            }
        }
        set_rows(&mut sc.xn, n);
        for r in 0..n {
            ln_row_into(&sc.x.data[r * d..(r + 1) * d], &mut sc.xn.data[r * d..(r + 1) * d]);
        }
        set_rows(&mut sc.logits, n);
        project_into(
            self.kernels,
            self.quant.as_ref().map(|q| &q.head),
            &sc.xn,
            self.w.head,
            &mut sc.logits,
            &mut sc.xq,
        );
        let vocab = self.vocab;
        for (r, (seq, _)) in rows.iter_mut().enumerate() {
            seq.logits.copy_from_slice(&sc.logits.data[r * vocab..(r + 1) * vocab]);
            seq.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_keeps_legacy_semantics_when_prompt_fits() {
        // Fits with room to spare: nothing dropped, nothing clamped.
        let p = PromptPlan::new(10, 20, 64);
        assert_eq!(
            p,
            PromptPlan {
                kept_prompt_tokens: 10,
                dropped_prompt_tokens: 0,
                new_token_budget: 20,
                clamped_new_tokens: 0,
            }
        );
        // Fits, but the window clamps the budget — exactly the legacy
        // `(prompt + max_new).min(max_seq)` arithmetic.
        let p = PromptPlan::new(60, 20, 64);
        assert_eq!(p.new_token_budget, 4);
        assert_eq!(p.clamped_new_tokens, 16);
        assert_eq!(p.dropped_prompt_tokens, 0);
        // One slot left: legacy sampled exactly one token here.
        let p = PromptPlan::new(63, 20, 64);
        assert_eq!(p.new_token_budget, 1);
        assert!(!p.truncated());
    }

    #[test]
    fn plan_trims_overflowing_prompt_head_with_headroom() {
        // Prompt alone overflows: keep the tail, reserve up to a quarter
        // of the window for decoding.
        let p = PromptPlan::new(100, 40, 64);
        assert_eq!(p.kept_prompt_tokens, 48); // 64 - 64/4
        assert_eq!(p.dropped_prompt_tokens, 52);
        assert_eq!(p.new_token_budget, 16);
        assert!(p.truncated());
        // Small max_new requests reserve only what they need.
        let p = PromptPlan::new(100, 5, 64);
        assert_eq!(p.kept_prompt_tokens, 59);
        assert_eq!(p.new_token_budget, 5);
        // max_new = 0 never trims (nothing to decode anyway).
        let p = PromptPlan::new(100, 0, 64);
        assert_eq!(p.kept_prompt_tokens, 64);
        assert_eq!(p.new_token_budget, 0);
    }

    #[test]
    fn plan_degenerate_windows() {
        let p = PromptPlan::new(10, 3, 1);
        assert_eq!(p.kept_prompt_tokens, 0);
        assert_eq!(p.new_token_budget, 1);
        let p = PromptPlan::new(0, 8, 16);
        assert_eq!(p.kept_prompt_tokens, 0);
        assert_eq!(p.dropped_prompt_tokens, 0);
        assert_eq!(p.new_token_budget, 8);
    }

    #[test]
    fn plan_never_underflows_on_overlong_prompts_or_empty_windows() {
        // Regression: an over-long prompt with `max_new == 0` takes the
        // untrimmed branch; `kept` must still be clamped to the window or
        // `max_seq - kept` underflows `usize` (debug-build panic).
        for prompt_len in [65usize, 100, 1 << 20, usize::MAX] {
            let p = PromptPlan::new(prompt_len, 0, 64);
            assert_eq!(p.kept_prompt_tokens, 64);
            assert_eq!(p.dropped_prompt_tokens, prompt_len - 64);
            assert_eq!(p.new_token_budget, 0);
            assert_eq!(p.clamped_new_tokens, 0);
        }
        // A zero-length window can neither keep prompt tokens nor decode.
        for (prompt_len, max_new) in [(0usize, 0usize), (0, 5), (9, 0), (9, 5)] {
            let p = PromptPlan::new(prompt_len, max_new, 0);
            assert_eq!(p.kept_prompt_tokens, 0);
            assert_eq!(p.dropped_prompt_tokens, prompt_len);
            assert_eq!(p.new_token_budget, 0);
            assert_eq!(p.clamped_new_tokens, max_new);
        }
        // The invariant the window plan sells, at assorted corners.
        for (pl, mn, ms) in [(64, 0, 64), (64, 1, 64), (63, 0, 64), (65, 1, 64), (1, 1, 1)] {
            let p = PromptPlan::new(pl, mn, ms);
            assert!(p.kept_prompt_tokens + p.new_token_budget <= ms, "{pl} {mn} {ms}: {p:?}");
            assert_eq!(p.kept_prompt_tokens + p.dropped_prompt_tokens, pl);
            assert_eq!(p.new_token_budget + p.clamped_new_tokens, mn);
        }
    }
}
