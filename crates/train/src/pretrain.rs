//! Base-model pre-training.
//!
//! The paper's bases (CodeLlama-7B/13B, DeepSeek-Coder-7B) arrive already
//! knowing some Verilog — their un-fine-tuned VerilogEval-Machine pass@1 is
//! 41.9 / 48.6 / 55.2. We reproduce that by pre-training each base on a
//! generic (description, code) corpus for a budget that scales with the
//! base's Table I baseline strength: more budget ⇒ stronger baseline, which
//! preserves the 7B < 13B < DeepSeek ordering.

use crate::data::{shuffle_examples, to_examples};
use crate::TrainConfig;
use pyranet_exec::ExecConfig;
use pyranet_model::{Adam, Tokenizer, TransformerLm};
use pyranet_pipeline::PyraNetDataset;

/// Pre-training budget for one base model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PretrainBudget {
    /// Number of (description, code) pairs drawn from the generic corpus.
    pub pairs: usize,
    /// Passes over those pairs.
    pub epochs: usize,
}

/// Budget that reproduces the Table I baseline ordering for a base name.
pub fn budget_for(base_name: &str) -> PretrainBudget {
    if base_name.contains("13B") {
        PretrainBudget { pairs: 400, epochs: 6 }
    } else if base_name.contains("DeepSeek") {
        PretrainBudget { pairs: 440, epochs: 6 }
    } else {
        PretrainBudget { pairs: 320, epochs: 6 }
    }
}

/// Pre-trains `lm` on pairs drawn from `generic` (full fine-tune, weight
/// 1.0, no LoRA — this is the "already released checkpoint" step).
pub fn pretrain(
    lm: &mut TransformerLm,
    tk: &Tokenizer,
    generic: &PyraNetDataset,
    budget: PretrainBudget,
    cfg: &TrainConfig,
) -> f32 {
    let mut examples = to_examples(generic.iter(), tk, 1.0);
    shuffle_examples(&mut examples, lm.cfg.seed);
    examples.truncate(budget.pairs);
    let exec = ExecConfig::new().threads(cfg.threads);
    let mut opt = Adam::new(lm.trainable_count(), cfg.learning_rate);
    let mut last = 0.0;
    for _ in 0..budget.epochs {
        for batch in examples.chunks(cfg.batch_size) {
            if let Some(loss) = lm.train_step_with(batch, &mut opt, &exec) {
                last = loss;
            }
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::build_tokenizer;
    use pyranet_corpus::CorpusBuilder;
    use pyranet_model::ModelConfig;
    use pyranet_pipeline::Pipeline;

    #[test]
    fn budgets_preserve_baseline_ordering() {
        let b7 = budget_for("codeLlama-7B-analog");
        let b13 = budget_for("codeLlama-13B-analog");
        let bds = budget_for("DeepSeek-Coder-7B-analog");
        assert!(b13.pairs > b7.pairs);
        assert!(bds.pairs > b13.pairs, "DeepSeek has the strongest Machine baseline");
    }

    #[test]
    fn pretraining_reduces_loss() {
        let pool = CorpusBuilder::new(30).scraped_files(80).llm_generation(false).build();
        let ds = Pipeline::new().run(pool.samples).dataset;
        let tk = build_tokenizer(ds.iter());
        let cfg = ModelConfig {
            name: "tiny".into(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 32,
            max_seq: 128,
            learning_rate: 3e-3,
            seed: 5,
        };
        let mut lm = TransformerLm::new(cfg, tk.vocab_size());
        let ex = to_examples(ds.iter(), &tk, 1.0);
        let before = lm.nll(&ex[0]).unwrap();
        let tcfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
        pretrain(&mut lm, &tk, &ds, PretrainBudget { pairs: 16, epochs: 3 }, &tcfg);
        let after = lm.nll(&ex[0]).unwrap();
        assert!(after < before, "{before} -> {after}");
    }
}
