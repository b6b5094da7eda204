//! # pyranet-model
//!
//! A from-scratch neural language model stack — the PyraNet reproduction's
//! substitute for CodeLlama-7B/13B and DeepSeek-Coder-7B:
//!
//! * [`tensor`] — a tape-based reverse-mode autograd engine over 2-D `f32`
//!   tensors (matmul, layernorm, softmax attention, embedding gather,
//!   weighted cross-entropy). Gradients are verified against finite
//!   differences in the test suite.
//! * [`tokenizer`] — a word-level tokenizer over Verilog + English with
//!   special `<bos>/<sep>/<eos>/<unk>/<pad>` tokens.
//! * [`transformer`] — a decoder-only transformer LM: learned token +
//!   position embeddings, pre-norm blocks with causal multi-head attention
//!   and GELU FFNs, separate output head.
//! * [`lora`] — Low-Rank Adaptation: frozen base weights plus trainable
//!   `A·B` deltas on the attention/FFN projections, matching the paper's
//!   "fine-tuning method utilizes the LoRa technique".
//! * [`adam`] — the Adam optimizer.
//! * [`sampler`] — temperature/top-k sampling for pass@k generation.
//! * [`decode`] — the prefix-cached, batched inference engine: shared
//!   prompt prefill with zero-copy KV forks, lock-step batched decoding
//!   through the selected kernel family, and allocation-free steady state.
//! * [`quant`] — per-row absmax int8 weight quantization for the decode
//!   path ([`KernelMode::QuantizedInt8`]), i32-accumulated and
//!   pass@k-parity gated against f32.
//! * [`config`] — the three base-model configurations standing in for the
//!   Table II architectures.
//! * `vmath` — batched `exp` and `tanh` with exactly libm's bits, behind
//!   softmax, cross-entropy, the sampler and GELU.
//!
//! The model is small (hundreds of thousands of parameters, not billions),
//! but it is *real*: it trains with per-sample loss weights, it overfits
//! and underfits, and fine-tuning recipes that order or weight data
//! differently produce measurably different models — which is exactly the
//! machinery PyraNet's contribution needs.

pub mod adam;
pub mod config;
pub mod decode;
pub mod lora;
pub mod quant;
pub mod sampler;
pub mod tensor;
pub mod tokenizer;
pub mod transformer;
mod vmath;

pub use adam::Adam;
pub use config::ModelConfig;
pub use decode::{DecodeSession, Generation, PrefixState, PromptPlan};
pub use sampler::SampleOptions;
pub use tensor::KernelMode;
pub use tokenizer::Tokenizer;
pub use transformer::TransformerLm;
