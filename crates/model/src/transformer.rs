//! Decoder-only transformer language model.
//!
//! Pre-norm blocks with causal multi-head attention and GELU FFNs; learned
//! token + position embeddings and a separate output head. Training builds
//! an autograd [`Graph`] per sequence; generation uses a raw-matrix
//! KV-cached fast path over the (LoRA-merged) weights.

use crate::adam::Adam;
use crate::config::ModelConfig;
use crate::decode::{DecodeSession, Generation};
use crate::lora::{Adapter, LoraConfig, LoraState};
use crate::sampler::{sample_logits, SampleOptions};
use crate::tensor::{Graph, KernelMode, Matrix, TensorId};
use pyranet_exec::ExecConfig;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use std::collections::HashMap;

/// One training example: token ids, the index where code begins (loss is
/// masked to code tokens), and the PyraNet per-sample loss weight.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainExample {
    /// `<bos> desc <sep> code <eos>` token ids.
    pub ids: Vec<usize>,
    /// Index of the first code token.
    pub code_start: usize,
    /// Loss weight (layer weight in PyraNet fine-tuning; 1.0 for plain SFT).
    pub weight: f32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct LayerIdx {
    wq: usize,
    wk: usize,
    wv: usize,
    wo: usize,
    w1: usize,
    w2: usize,
}

/// The language model.
#[derive(Debug, Clone)]
pub struct TransformerLm {
    /// Architecture + training hyperparameters.
    pub cfg: ModelConfig,
    vocab: usize,
    params: Vec<Matrix>,
    tok_emb: usize,
    pos_emb: usize,
    head: usize,
    layers: Vec<LayerIdx>,
    lora: Option<LoraState>,
    /// Kernel family used by training graphs and (by default) decode
    /// sessions. A performance knob, **not** part of the model's identity:
    /// deliberately excluded from `PartialEq` so "same weights through
    /// different kernels" compares equal.
    kernels: KernelMode,
}

impl PartialEq for TransformerLm {
    fn eq(&self, other: &TransformerLm) -> bool {
        self.cfg == other.cfg
            && self.vocab == other.vocab
            && self.params == other.params
            && self.tok_emb == other.tok_emb
            && self.pos_emb == other.pos_emb
            && self.head == other.head
            && self.layers == other.layers
            && self.lora == other.lora
    }
}

impl TransformerLm {
    /// Initialises a model with `vocab` tokens from `cfg.seed`.
    pub fn new(cfg: ModelConfig, vocab: usize) -> TransformerLm {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut params = Vec::new();
        let d = cfg.d_model;
        let mut alloc = |rows: usize, cols: usize, rng: &mut ChaCha8Rng| {
            let std = 0.08;
            let m = Matrix::new(
                rows,
                cols,
                (0..rows * cols).map(|_| (rng.random::<f32>() - 0.5) * 2.0 * std).collect(),
            );
            params.push(m);
            params.len() - 1
        };
        let tok_emb = alloc(vocab, d, &mut rng);
        let pos_emb = alloc(cfg.max_seq, d, &mut rng);
        let mut layers = Vec::with_capacity(cfg.n_layers);
        for _ in 0..cfg.n_layers {
            layers.push(LayerIdx {
                wq: alloc(d, d, &mut rng),
                wk: alloc(d, d, &mut rng),
                wv: alloc(d, d, &mut rng),
                wo: alloc(d, d, &mut rng),
                w1: alloc(d, cfg.d_ff, &mut rng),
                w2: alloc(cfg.d_ff, d, &mut rng),
            });
        }
        let head = alloc(d, vocab, &mut rng);
        TransformerLm {
            cfg,
            vocab,
            params,
            tok_emb,
            pos_emb,
            head,
            layers,
            lora: None,
            kernels: KernelMode::default(),
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab
    }

    /// The kernel family this model's graphs and sessions dispatch to.
    pub fn kernels(&self) -> KernelMode {
        self.kernels
    }

    /// Selects the kernel family for subsequent training graphs and
    /// decode sessions (see [`KernelMode`] for the exactness contract of
    /// each family).
    pub fn set_kernels(&mut self, mode: KernelMode) {
        self.kernels = mode;
    }

    /// The base weight matrices, in allocation order (token and position
    /// embeddings, then each block's q/k/v/o/ffn weights, then the head).
    pub fn weights(&self) -> &[Matrix] {
        &self.params
    }

    /// Total parameter scalars (base weights).
    pub fn param_scalars(&self) -> usize {
        self.params.iter().map(|m| m.data.len()).sum()
    }

    /// Whether LoRA adapters are attached.
    pub fn has_lora(&self) -> bool {
        self.lora.is_some()
    }

    /// Attaches fresh LoRA adapters to every attention projection (q, v) —
    /// the standard target set. Subsequent training updates only the
    /// adapters; the base stays frozen.
    pub fn enable_lora(&mut self, cfg: LoraConfig) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed ^ 0x10_7A);
        let d = self.cfg.d_model;
        let mut adapters = Vec::new();
        for l in &self.layers {
            adapters.push(Adapter::new(l.wq, d, d, &cfg, &mut rng));
            adapters.push(Adapter::new(l.wv, d, d, &cfg, &mut rng));
        }
        self.lora = Some(LoraState { cfg, adapters });
    }

    /// Folds the adapters into the base weights and detaches them.
    pub fn merge_lora(&mut self) {
        if let Some(state) = self.lora.take() {
            let scale = state.cfg.scale();
            for ad in &state.adapters {
                let delta = ad.delta(scale, self.kernels);
                for (w, dx) in self.params[ad.target].data.iter_mut().zip(&delta.data) {
                    *w += dx;
                }
            }
        }
    }

    /// Number of trainable tensors in the current mode (feeds
    /// [`Adam::new`]).
    pub fn trainable_count(&self) -> usize {
        match &self.lora {
            Some(s) => s.adapters.len() * 2,
            None => self.params.len(),
        }
    }

    /// The effective (LoRA-merged) weight for a parameter index — used by
    /// the inference fast path. Borrows the base weight unless an adapter
    /// actually modifies it, so LoRA-free generation never copies weights.
    fn effective_weight(&self, idx: usize) -> Cow<'_, Matrix> {
        let base = &self.params[idx];
        match &self.lora {
            Some(state) => match state.adapter_for(idx) {
                Some(ad) => {
                    let mut w = base.clone();
                    let delta = ad.delta(state.cfg.scale(), self.kernels);
                    for (x, d) in w.data.iter_mut().zip(&delta.data) {
                        *x += d;
                    }
                    Cow::Owned(w)
                }
                None => Cow::Borrowed(base),
            },
            None => Cow::Borrowed(base),
        }
    }

    /// A linear layer inside the graph, LoRA-aware. `trainables` collects
    /// `(param_key, tensor_id)` for the optimizer; base weights become
    /// constants in LoRA mode.
    fn linear(
        &self,
        g: &mut Graph,
        x: TensorId,
        idx: usize,
        trainables: &mut Vec<(TrainKey, TensorId)>,
    ) -> TensorId {
        match &self.lora {
            Some(state) => {
                let w = g.constant(self.params[idx].clone());
                let base_out = g.matmul(x, w);
                match state.adapter_for(idx) {
                    Some(ad) => {
                        let a = g.param(ad.a.clone());
                        let b = g.param(ad.b.clone());
                        trainables.push((TrainKey::LoraA(idx), a));
                        trainables.push((TrainKey::LoraB(idx), b));
                        let xa = g.matmul(x, a);
                        let xab = g.matmul(xa, b);
                        let scaled = g.scale(xab, state.cfg.scale());
                        g.add(base_out, scaled)
                    }
                    None => base_out,
                }
            }
            None => {
                let w = g.param(self.params[idx].clone());
                trainables.push((TrainKey::Base(idx), w));
                g.matmul(x, w)
            }
        }
    }

    /// Embedding-style parameter as a graph leaf.
    fn table(
        &self,
        g: &mut Graph,
        idx: usize,
        trainables: &mut Vec<(TrainKey, TensorId)>,
    ) -> TensorId {
        if self.lora.is_some() {
            g.constant(self.params[idx].clone())
        } else {
            let t = g.param(self.params[idx].clone());
            trainables.push((TrainKey::Base(idx), t));
            t
        }
    }

    /// Builds the forward graph up to logits for `ids`; returns the logits
    /// node and the trainable map.
    fn forward(&self, g: &mut Graph, ids: &[usize]) -> (TensorId, Vec<(TrainKey, TensorId)>) {
        let mut trainables = Vec::new();
        let len = ids.len().min(self.cfg.max_seq);
        let ids = &ids[..len];
        let tok = self.table(g, self.tok_emb, &mut trainables);
        let pos = self.table(g, self.pos_emb, &mut trainables);
        let te = g.gather(tok, ids);
        let positions: Vec<usize> = (0..len).collect();
        let pe = g.gather(pos, &positions);
        let mut x = g.add(te, pe);
        let hs = self.cfg.head_size();
        let scale = 1.0 / (hs as f32).sqrt();
        for l in &self.layers {
            let xn = g.layernorm(x);
            let q = self.linear(g, xn, l.wq, &mut trainables);
            let k = self.linear(g, xn, l.wk, &mut trainables);
            let v = self.linear(g, xn, l.wv, &mut trainables);
            let attn = g.causal_attention(q, k, v, self.cfg.n_heads, scale);
            let proj = self.linear(g, attn, l.wo, &mut trainables);
            x = g.add(x, proj);
            let xn = g.layernorm(x);
            let h1 = self.linear(g, xn, l.w1, &mut trainables);
            let h1 = g.gelu(h1);
            let h2 = self.linear(g, h1, l.w2, &mut trainables);
            x = g.add(x, h2);
        }
        let xn = g.layernorm(x);
        let head = self.table(g, self.head, &mut trainables);
        let logits = g.matmul(xn, head);
        (logits, trainables)
    }

    /// Loss for one example (graph-building path; used by both training and
    /// [`TransformerLm::nll`]).
    fn example_loss(
        &self,
        g: &mut Graph,
        ex: &TrainExample,
    ) -> Option<(TensorId, Vec<(TrainKey, TensorId)>)> {
        let len = ex.ids.len().min(self.cfg.max_seq);
        if len < 2 || ex.code_start >= len {
            return None;
        }
        let (logits, trainables) = self.forward(g, &ex.ids[..len]);
        // Row i predicts ids[i+1]; rows 0..len-1 participate, weighted so
        // only code-region targets count.
        let rows = len - 1;
        let logits_rows = g.slice_rows(logits, rows);
        let targets: Vec<usize> = ex.ids[1..len].to_vec();
        // 0/1 masks select the code region; the cross-entropy normalises by
        // the mask sum, so the PyraNet per-sample weight must be applied as
        // an outer scale — otherwise a uniform weight would cancel out.
        let masks: Vec<f32> =
            (0..rows).map(|i| if i + 1 >= ex.code_start { 1.0 } else { 0.0 }).collect();
        if masks.iter().all(|&w| w == 0.0) {
            return None;
        }
        let ce = g.cross_entropy(logits_rows, &targets, &masks);
        let loss = g.scale(ce, ex.weight);
        Some((loss, trainables))
    }

    /// Forward + backward for one example; pure over `&self`, so a batch of
    /// these can run concurrently.
    fn example_grads(&self, ex: &TrainExample) -> Option<(f32, Vec<(TrainKey, Matrix)>)> {
        let mut g = Graph::with_kernels(self.kernels);
        let (loss, trainables) = self.example_loss(&mut g, ex)?;
        let loss_val = g.value(loss).data[0];
        g.backward(loss);
        Some((loss_val, trainables.into_iter().map(|(key, tid)| (key, g.grad(tid))).collect()))
    }

    /// Runs one optimizer step over a mini-batch (gradients are averaged
    /// across examples). Returns the mean loss, or `None` when no example
    /// in the batch had a supervisable code region.
    pub fn train_step(&mut self, batch: &[TrainExample], opt: &mut Adam) -> Option<f32> {
        self.train_step_with(batch, opt, &ExecConfig::new())
    }

    /// [`TransformerLm::train_step`] with an explicit executor.
    ///
    /// Per-example gradients are computed through [`pyranet_exec::par_map`]
    /// (pure per example) and then folded **in ascending example index** —
    /// exactly the order the old sequential loop used. Because the fold is
    /// sequential and order-fixed, every accumulated gradient, and thus
    /// every weight after the optimizer step, is byte-identical at any
    /// thread count.
    pub fn train_step_with(
        &mut self,
        batch: &[TrainExample],
        opt: &mut Adam,
        exec: &ExecConfig,
    ) -> Option<f32> {
        let _span = pyranet_obs::global().span("model.train_step");
        let model = &*self;
        let per_example = pyranet_exec::par_map_ref(exec, batch, |ex| model.example_grads(ex));
        let mut grad_acc: HashMap<TrainKey, Matrix> = HashMap::new();
        let mut total_loss = 0.0;
        let mut n = 0usize;
        for (loss, grads) in per_example.into_iter().flatten() {
            total_loss += loss;
            n += 1;
            for (key, grad) in grads {
                grad_acc
                    .entry(key)
                    .and_modify(|acc| {
                        for (a, b) in acc.data.iter_mut().zip(&grad.data) {
                            *a += b;
                        }
                    })
                    .or_insert(grad);
            }
        }
        let obs = pyranet_obs::global();
        obs.counter("model.train_step.examples").add(n as u64);
        obs.counter("model.train_step.skipped").add((batch.len() - n) as u64);
        if n == 0 {
            return None;
        }
        let inv = 1.0 / n as f32;
        // Deterministic parameter order for the optimizer.
        let mut keys: Vec<TrainKey> = grad_acc.keys().copied().collect();
        keys.sort();
        let grads: Vec<Matrix> = keys
            .iter()
            .map(|k| {
                let mut m = grad_acc.remove(k).expect("key present");
                for x in m.data.iter_mut() {
                    *x *= inv;
                }
                m
            })
            .collect();
        // Collect &mut to the actual storage in the same order.
        self.apply_grads(&keys, &grads, opt);
        Some(total_loss / n as f32)
    }

    fn apply_grads(&mut self, keys: &[TrainKey], grads: &[Matrix], opt: &mut Adam) {
        // Split borrows: base params vs lora adapters.
        let mut refs: Vec<*mut Matrix> = Vec::with_capacity(keys.len());
        for k in keys {
            let ptr: *mut Matrix = match k {
                TrainKey::Base(i) => &mut self.params[*i],
                TrainKey::LoraA(t) => {
                    let s = self.lora.as_mut().expect("lora mode");
                    let ad =
                        s.adapters.iter_mut().find(|a| a.target == *t).expect("adapter exists");
                    &mut ad.a
                }
                TrainKey::LoraB(t) => {
                    let s = self.lora.as_mut().expect("lora mode");
                    let ad =
                        s.adapters.iter_mut().find(|a| a.target == *t).expect("adapter exists");
                    &mut ad.b
                }
            };
            refs.push(ptr);
        }
        // SAFETY: the keys are unique (HashMap origin), so the raw pointers
        // alias distinct matrices; we reborrow them mutably exactly once.
        let mut borrowed: Vec<&mut Matrix> = refs.into_iter().map(|p| unsafe { &mut *p }).collect();
        opt.step(&mut borrowed[..], grads);
    }

    /// Mean negative log-likelihood of the code region of one example
    /// (evaluation; no parameter updates).
    pub fn nll(&self, ex: &TrainExample) -> Option<f32> {
        let mut g = Graph::with_kernels(self.kernels);
        let (loss, _) = self.example_loss(&mut g, ex)?;
        Some(g.value(loss).data[0])
    }

    /// Greedy/stochastic generation with a KV cache. Returns only the newly
    /// generated ids (stops at `<eos>`).
    ///
    /// Runs through a one-shot [`crate::decode::DecodeSession`] (pre-merged
    /// weights, scratch arenas, explicit prompt clamping). Output ids are
    /// bit-identical to [`TransformerLm::generate_legacy`] whenever the
    /// prompt fits the context window; over-long prompts are now clamped
    /// tail-first instead of silently swallowing the completion — use
    /// [`TransformerLm::generate_report`] to observe the clamp.
    pub fn generate<R: Rng>(
        &self,
        prompt: &[usize],
        max_new: usize,
        opts: &SampleOptions,
        rng: &mut R,
    ) -> Vec<usize> {
        self.generate_report(prompt, max_new, opts, rng).ids
    }

    /// [`TransformerLm::generate`] returning the full [`Generation`]
    /// (generated ids plus the explicit truncation report).
    pub fn generate_report<R: Rng>(
        &self,
        prompt: &[usize],
        max_new: usize,
        opts: &SampleOptions,
        rng: &mut R,
    ) -> Generation {
        let mut session = DecodeSession::new(self);
        let prefix = session.prefill(prompt, max_new);
        session.decode_one(&prefix, max_new, opts, rng)
    }

    /// The pre-engine generation loop, retained verbatim as the decode
    /// oracle: `tests/decode_equivalence.rs` pins the session engine
    /// bit-identical to it, and `bench_eval`'s naive row measures the
    /// engine against it.
    ///
    /// Known (historical) wart, fixed in the engine path: when
    /// `prompt.len() >= cfg.max_seq` the loop silently drops the forced
    /// tail of the prompt and returns an empty completion.
    pub fn generate_legacy<R: Rng>(
        &self,
        prompt: &[usize],
        max_new: usize,
        opts: &SampleOptions,
        rng: &mut R,
    ) -> Vec<usize> {
        let d = self.cfg.d_model;
        let hs = self.cfg.head_size();
        let nh = self.cfg.n_heads;
        let scale = 1.0 / (hs as f32).sqrt();
        // Merged weights once per call (borrowed straight from the model
        // unless a LoRA adapter forces a merge copy).
        let w = self.decode_weights();

        let mut kcache: Vec<Vec<f32>> = vec![Vec::new(); self.layers.len()];
        let mut vcache: Vec<Vec<f32>> = vec![Vec::new(); self.layers.len()];
        let mut out = Vec::new();
        let mut logits = vec![0.0f32; self.vocab];
        let total_budget = (prompt.len() + max_new).min(self.cfg.max_seq);
        for t in 0..total_budget {
            let id = if t < prompt.len() {
                prompt[t]
            } else {
                let next = sample_logits(&logits, opts, rng);
                if next == crate::tokenizer::EOS {
                    break;
                }
                out.push(next);
                next
            };
            // x = tok[id] + pos[t]
            let mut x: Vec<f32> =
                (0..d).map(|c| w.tok.data[id * d + c] + w.pos.data[t * d + c]).collect();
            for (li, _) in self.layers.iter().enumerate() {
                let xn = ln_vec(&x);
                let q = vec_mat(&xn, &w.wq[li]);
                let k = vec_mat(&xn, &w.wk[li]);
                let v = vec_mat(&xn, &w.wv[li]);
                kcache[li].extend_from_slice(&k);
                vcache[li].extend_from_slice(&v);
                let steps = kcache[li].len() / d;
                let mut merged = vec![0.0f32; d];
                for h in 0..nh {
                    let qh = &q[h * hs..(h + 1) * hs];
                    // scores over cached keys
                    let mut scores = Vec::with_capacity(steps);
                    for s in 0..steps {
                        let kh = &kcache[li][s * d + h * hs..s * d + (h + 1) * hs];
                        let dot: f32 = qh.iter().zip(kh).map(|(a, b)| a * b).sum();
                        scores.push(dot * scale);
                    }
                    crate::tensor::softmax_row_inplace(&mut scores);
                    for (s, w) in scores.iter().enumerate() {
                        let vh = &vcache[li][s * d + h * hs..s * d + (h + 1) * hs];
                        for (j, vx) in vh.iter().enumerate() {
                            merged[h * hs + j] += w * vx;
                        }
                    }
                }
                let proj = vec_mat(&merged, &w.wo[li]);
                for (xi, p) in x.iter_mut().zip(&proj) {
                    *xi += p;
                }
                let xn = ln_vec(&x);
                let mut h1 = vec_mat(&xn, &w.w1[li]);
                for v in h1.iter_mut() {
                    *v = crate::tensor::gelu_fwd(*v);
                }
                let h2 = vec_mat(&h1, &w.w2[li]);
                for (xi, p) in x.iter_mut().zip(&h2) {
                    *xi += p;
                }
            }
            let xn = ln_vec(&x);
            logits = vec_mat(&xn, w.head);
        }
        out
    }

    /// The effective (LoRA-merged) weight set the inference engine runs
    /// on, materialised **once** — borrowed straight from the model unless
    /// an adapter forces a merge copy.
    pub(crate) fn decode_weights(&self) -> DecodeWeights<'_> {
        DecodeWeights {
            tok: &self.params[self.tok_emb],
            pos: &self.params[self.pos_emb],
            head: &self.params[self.head],
            wq: self.layers.iter().map(|l| self.effective_weight(l.wq)).collect(),
            wk: self.layers.iter().map(|l| self.effective_weight(l.wk)).collect(),
            wv: self.layers.iter().map(|l| self.effective_weight(l.wv)).collect(),
            wo: self.layers.iter().map(|l| self.effective_weight(l.wo)).collect(),
            w1: self.layers.iter().map(|l| self.effective_weight(l.w1)).collect(),
            w2: self.layers.iter().map(|l| self.effective_weight(l.w2)).collect(),
        }
    }
}

/// Per-parameter effective weights for the inference fast path (see
/// [`TransformerLm::decode_weights`]). Layer vectors are indexed by block.
#[derive(Debug)]
pub(crate) struct DecodeWeights<'a> {
    pub tok: &'a Matrix,
    pub pos: &'a Matrix,
    pub head: &'a Matrix,
    pub wq: Vec<Cow<'a, Matrix>>,
    pub wk: Vec<Cow<'a, Matrix>>,
    pub wv: Vec<Cow<'a, Matrix>>,
    pub wo: Vec<Cow<'a, Matrix>>,
    pub w1: Vec<Cow<'a, Matrix>>,
    pub w2: Vec<Cow<'a, Matrix>>,
}

/// Stable ordering key for trainable tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum TrainKey {
    Base(usize),
    LoraA(usize),
    LoraB(usize),
}

// ---- small-vector helpers for the inference fast path ----
// (Shared with `crate::decode`; softmax and GELU live in `crate::tensor`
// so the graph ops and both decode paths use one implementation each.)

/// `out = x · w` for a `[1, rows]` vector against a `[rows, cols]` matrix,
/// accumulating in ascending shared-dimension order (the same order as the
/// `KernelMode` matmul kernels, so per-row results agree bit-for-bit with
/// a batched matmul over stacked vectors).
pub(crate) fn vec_mat(x: &[f32], w: &Matrix) -> Vec<f32> {
    debug_assert_eq!(x.len(), w.rows);
    let mut out = vec![0.0f32; w.cols];
    for (k, &xv) in x.iter().enumerate() {
        if xv == 0.0 {
            continue;
        }
        let row = &w.data[k * w.cols..(k + 1) * w.cols];
        for (o, &wv) in out.iter_mut().zip(row) {
            *o += xv * wv;
        }
    }
    out
}

/// Row layer norm into a fresh vector (see [`ln_row_into`]).
pub(crate) fn ln_vec(x: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    ln_row_into(x, &mut out);
    out
}

/// Row layer norm written into `out`. Single statistics sweep (sum and
/// sum-of-squares together), identical arithmetic to the graph layernorm.
pub(crate) fn ln_row_into(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    let n = x.len() as f32;
    let (mut sum, mut sumsq) = (0.0f32, 0.0f32);
    for &v in x {
        sum += v;
        sumsq += v * v;
    }
    let mean = sum / n;
    let var = (sumsq / n - mean * mean).max(0.0);
    let rstd = 1.0 / (var + 1e-5).sqrt();
    for (o, &v) in out.iter_mut().zip(x) {
        *o = (v - mean) * rstd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::{Tokenizer, EOS};

    fn tiny_cfg() -> ModelConfig {
        ModelConfig {
            name: "tiny".into(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 32,
            max_seq: 64,
            learning_rate: 3e-3,
            seed: 99,
        }
    }

    const TOY_PAIRS: [(&str, &str); 3] = [
        ("an inverter", "module inv ( input a , output y ) ; assign y = ~ a ; endmodule"),
        (
            "an and gate",
            "module andg ( input a , input b , output y ) ; assign y = a & b ; endmodule",
        ),
        (
            "an or gate",
            "module org ( input a , input b , output y ) ; assign y = a | b ; endmodule",
        ),
    ];

    fn toy_examples(tk: &Tokenizer) -> Vec<TrainExample> {
        TOY_PAIRS
            .iter()
            .map(|(d, c)| {
                let (ids, code_start) = tk.encode_pair(d, c);
                TrainExample { ids, code_start, weight: 1.0 }
            })
            .collect()
    }

    fn toy_tokenizer() -> Tokenizer {
        let descs = TOY_PAIRS.iter().map(|(d, _)| *d);
        Tokenizer::build(descs.chain(TOY_PAIRS.iter().map(|(_, c)| *c)), 1)
    }

    #[test]
    fn training_reduces_loss() {
        let tk = toy_tokenizer();
        let mut lm = TransformerLm::new(tiny_cfg(), tk.vocab_size());
        let examples = toy_examples(&tk);
        let mut opt = Adam::new(lm.trainable_count(), 3e-3);
        let first = lm.train_step(&examples, &mut opt).unwrap();
        let mut last = first;
        for _ in 0..60 {
            last = lm.train_step(&examples, &mut opt).unwrap();
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn overfit_model_reproduces_training_code() {
        let tk = toy_tokenizer();
        let mut lm = TransformerLm::new(tiny_cfg(), tk.vocab_size());
        let examples = toy_examples(&tk);
        let mut opt = Adam::new(lm.trainable_count(), 3e-3);
        for _ in 0..250 {
            lm.train_step(&examples, &mut opt);
        }
        let prompt = tk.encode_prompt("an inverter");
        let opts = SampleOptions { temperature: 0.0, top_k: 0 };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let out = lm.generate(&prompt, 40, &opts, &mut rng);
        let text = tk.decode(&out);
        assert!(text.contains("assign y = ~ a"), "generated: {text}");
        assert!(pyranet_verilog::parse(&text).is_ok(), "should parse: {text}");
    }

    #[test]
    fn lora_trains_only_adapters() {
        let tk = toy_tokenizer();
        let mut lm = TransformerLm::new(tiny_cfg(), tk.vocab_size());
        let base_before = lm.params.clone();
        lm.enable_lora(LoraConfig { rank: 2, alpha: 4.0 });
        let examples = toy_examples(&tk);
        let mut opt = Adam::new(lm.trainable_count(), 3e-3);
        for _ in 0..10 {
            lm.train_step(&examples, &mut opt);
        }
        assert_eq!(lm.params, base_before, "base weights must stay frozen under LoRA");
        let st = lm.lora.as_ref().unwrap();
        assert!(
            st.adapters.iter().any(|a| a.b.data.iter().any(|&x| x != 0.0)),
            "adapters must have moved"
        );
    }

    #[test]
    fn lora_reduces_loss_and_merge_preserves_behaviour() {
        let tk = toy_tokenizer();
        let mut lm = TransformerLm::new(tiny_cfg(), tk.vocab_size());
        lm.enable_lora(LoraConfig { rank: 4, alpha: 8.0 });
        let examples = toy_examples(&tk);
        let mut opt = Adam::new(lm.trainable_count(), 1e-2);
        let first = lm.train_step(&examples, &mut opt).unwrap();
        let mut last = first;
        for _ in 0..80 {
            last = lm.train_step(&examples, &mut opt).unwrap();
        }
        assert!(last < first, "lora loss {first} -> {last}");
        let nll_with_adapters = lm.nll(&examples[0]).unwrap();
        lm.merge_lora();
        assert!(!lm.has_lora());
        let nll_merged = lm.nll(&examples[0]).unwrap();
        assert!(
            (nll_with_adapters - nll_merged).abs() < 1e-3,
            "merge must preserve the function: {nll_with_adapters} vs {nll_merged}"
        );
    }

    #[test]
    fn fresh_lora_is_exact_noop() {
        let tk = toy_tokenizer();
        let mut lm = TransformerLm::new(tiny_cfg(), tk.vocab_size());
        let examples = toy_examples(&tk);
        let before = lm.nll(&examples[0]).unwrap();
        lm.enable_lora(LoraConfig { rank: 4, alpha: 8.0 });
        let after = lm.nll(&examples[0]).unwrap();
        assert!((before - after).abs() < 1e-5, "{before} vs {after}");
    }

    #[test]
    fn weighted_examples_move_the_model_less() {
        let tk = toy_tokenizer();
        let examples = toy_examples(&tk);
        let heavy = TrainExample { weight: 1.0, ..examples[0].clone() };
        let light = TrainExample { weight: 0.1, ..examples[0].clone() };
        // Gradient magnitude scales with the weight because the per-example
        // CE normalises by total weight — so train both and compare NLL
        // improvement on the same example after equal steps.
        // Per-row weights inside ONE example normalise out; across a batch,
        // rows from a 1.0-weight example dominate rows of a 0.1 one. Check
        // the batch-mix effect instead:
        let other = examples[1].clone();
        let mixed_heavy = vec![heavy, other.clone()];
        let mixed_light = vec![light, other];
        let mut lm_h = TransformerLm::new(tiny_cfg(), tk.vocab_size());
        let mut lm_l = lm_h.clone();
        let mut oh = Adam::new(lm_h.trainable_count(), 3e-3);
        let mut ol = Adam::new(lm_l.trainable_count(), 3e-3);
        for _ in 0..40 {
            lm_h.train_step(&mixed_heavy, &mut oh);
            lm_l.train_step(&mixed_light, &mut ol);
        }
        let nll_h = lm_h.nll(&examples[0]).unwrap();
        let nll_l = lm_l.nll(&examples[0]).unwrap();
        assert!(
            nll_h < nll_l,
            "the heavily-weighted run should fit example 0 better: {nll_h} vs {nll_l}"
        );
    }

    #[test]
    fn generation_stops_at_eos_and_respects_budget() {
        let tk = toy_tokenizer();
        let lm = TransformerLm::new(tiny_cfg(), tk.vocab_size());
        let prompt = tk.encode_prompt("an inverter");
        let opts = SampleOptions { temperature: 0.8, top_k: 0 };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let out = lm.generate(&prompt, 10, &opts, &mut rng);
        assert!(out.len() <= 10);
        assert!(!out.contains(&EOS));
        // SEP may legitimately appear in output from an untrained model.
    }

    #[test]
    fn degenerate_examples_are_skipped() {
        let tk = toy_tokenizer();
        let mut lm = TransformerLm::new(tiny_cfg(), tk.vocab_size());
        let mut opt = Adam::new(lm.trainable_count(), 1e-3);
        // code_start beyond the sequence -> no supervisable rows
        let ex = TrainExample { ids: vec![1, 5, 6], code_start: 10, weight: 1.0 };
        assert!(lm.train_step(&[ex], &mut opt).is_none());
        let ex = TrainExample { ids: vec![1], code_start: 0, weight: 1.0 };
        assert!(lm.train_step(&[ex], &mut opt).is_none());
    }

    #[test]
    fn different_seeds_give_different_models() {
        let tk = toy_tokenizer();
        let a = TransformerLm::new(tiny_cfg(), tk.vocab_size());
        let mut cfg = tiny_cfg();
        cfg.seed = 100;
        let b = TransformerLm::new(cfg, tk.vocab_size());
        let ex = &toy_examples(&tk)[0];
        assert_ne!(a.nll(ex), b.nll(ex));
    }

    #[test]
    fn batched_train_step_is_byte_identical_at_any_thread_count() {
        let tk = toy_tokenizer();
        let examples = toy_examples(&tk);
        let train = |threads: usize| {
            let mut lm = TransformerLm::new(tiny_cfg(), tk.vocab_size());
            let mut opt = Adam::new(lm.trainable_count(), 3e-3);
            let exec = ExecConfig::new().threads(threads);
            let mut losses = Vec::new();
            for _ in 0..5 {
                losses.push(lm.train_step_with(&examples, &mut opt, &exec).unwrap().to_bits());
            }
            (losses, lm)
        };
        let (ref_losses, ref_lm) = train(1);
        for threads in [2, 8] {
            let (losses, lm) = train(threads);
            assert_eq!(losses, ref_losses, "losses diverged at threads={threads}");
            assert_eq!(lm, ref_lm, "weights diverged at threads={threads}");
        }
    }

    #[test]
    fn blocked_and_reference_kernels_train_identically() {
        let tk = toy_tokenizer();
        let mut examples = toy_examples(&tk);
        // One sequence past three 32-wide attention tiles, clipped at 96.
        let codes = TOY_PAIRS.map(|(_, c)| c).join(" ");
        let (ids, code_start) = tk.encode_pair("three gates", &[codes.as_str(); 2].join(" "));
        assert!(ids.len() > 96, "{} tokens", ids.len());
        examples.push(TrainExample { ids, code_start, weight: 1.0 });
        let cfg = ModelConfig { max_seq: 96, ..tiny_cfg() };
        let train = |mode: KernelMode| {
            let mut lm = TransformerLm::new(cfg.clone(), tk.vocab_size());
            lm.set_kernels(mode);
            let mut opt = Adam::new(lm.trainable_count(), 3e-3);
            let mut losses = Vec::new();
            for _ in 0..4 {
                losses.push(lm.train_step(&examples, &mut opt).unwrap().to_bits());
            }
            (losses, lm)
        };
        let (blocked_losses, blocked_lm) = train(KernelMode::Blocked);
        let (losses, lm) = train(KernelMode::Reference);
        assert_eq!(losses, blocked_losses, "reference losses must agree bit-for-bit");
        assert_eq!(lm, blocked_lm, "reference trained weights must agree bit-for-bit");
    }

    #[test]
    fn param_scalars_counts_everything() {
        let lm = TransformerLm::new(tiny_cfg(), 100);
        let c = tiny_cfg();
        let expected = 100 * c.d_model
            + c.max_seq * c.d_model
            + c.n_layers * (4 * c.d_model * c.d_model + 2 * c.d_model * c.d_ff)
            + c.d_model * 100;
        assert_eq!(lm.param_scalars(), expected);
    }
}
