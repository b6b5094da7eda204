//! # pyranet-train
//!
//! Fine-tuning recipes over the PyraNet dataset (paper §III-B and §IV):
//!
//! * [`data`] — tokenizer construction and (description, code) →
//!   [`pyranet_model::transformer::TrainExample`] conversion;
//! * [`pretrain`] — base-model pre-training, giving each Table II base a
//!   different amount of general Verilog competence (the reason
//!   CodeLlama-13B's baseline beats 7B's in Table I);
//! * [`sft`] — plain supervised fine-tuning on every pair with loss weight
//!   1.0 (the **PyraNet-Dataset** experiment);
//! * [`pyranet`] — the full **PyraNet-Architecture** fine-tuning: layers
//!   visited apex → base with the 1.0/0.8/0.6/0.4/0.2/0.1 loss weights,
//!   curriculum Basic → Intermediate → Advanced → Expert inside each layer;
//! * [`repair`] — defect-injected → clean repair SFT: every curated sample
//!   is re-broken with a checked `pyranet_corpus::defect` injector
//!   (guaranteed to actually mutate) and the model learns to restore the
//!   original;
//! * [`baselines`] — re-implementations of the comparator recipes:
//!   MG-Verilog (multi-grained descriptions), RTLCoder (quality-feedback
//!   filtering), OriGen (code-to-code augmentation, no self-reflection —
//!   the paper also omits it);
//! * [`report`] — per-phase training telemetry and the Fig. 1-b schedule
//!   dump.

pub mod ablation;
pub mod baselines;
pub mod data;
pub mod pretrain;
pub mod pyranet;
pub mod repair;
pub mod report;
pub mod sft;

pub use data::{build_tokenizer, to_examples};
pub use pyranet::PyraNetTrainer;
pub use repair::{export_repair_jsonl, repair_pairs, RepairPair, RepairTrainer};
pub use report::{PhaseReport, TrainReport};
pub use sft::SftTrainer;

use pyranet_model::lora::LoraConfig;
use pyranet_model::KernelMode;

/// Shared fine-tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Passes over the data per phase (paper Table II: 1–3).
    pub epochs: usize,
    /// Examples per optimizer step.
    pub batch_size: usize,
    /// Learning rate (paper: 2e-4; scaled up for the tiny substitute by
    /// default because its loss landscape is far less curved).
    pub learning_rate: f32,
    /// Cap on examples drawn per phase (keeps bench runtimes bounded);
    /// `None` uses everything.
    pub max_examples_per_phase: Option<usize>,
    /// LoRA adapters (the paper fine-tunes with LoRA); `None` does full
    /// fine-tuning.
    pub lora: Option<LoraConfig>,
    /// Shuffling seed.
    pub seed: u64,
    /// Threads for batched gradient computation (`0` = auto, resolving
    /// from `PYRANET_THREADS` or the machine). Training outputs are
    /// byte-identical at any value — see `train_step_with`.
    pub threads: usize,
    /// Kernel family for every forward/backward pass of the run
    /// (`--kernel` on the CLI). All three families train bit-identically:
    /// `QuantizedInt8` trains with the `Blocked` kernels (weights are only
    /// quantized on the decode path, never during training).
    pub kernel: KernelMode,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 2,
            batch_size: 8,
            learning_rate: 6e-3,
            max_examples_per_phase: Some(240),
            lora: None,
            seed: 7,
            threads: 0,
            kernel: KernelMode::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_within_paper_ranges() {
        let c = TrainConfig::default();
        // The paper fine-tunes with LoRA; the substitute defaults to full
        // fine-tuning (see DESIGN.md) but adapters stay available.
        assert!(c.epochs >= 1 && c.epochs <= 3, "Table II epoch range");
        assert!(c.learning_rate > 0.0);
    }
}
