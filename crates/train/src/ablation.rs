//! Ablations separating PyraNet's two ingredients (§III-B combines them;
//! these trainers isolate each):
//!
//! * [`WeightingOnly`] — per-layer loss weights, but random sample order
//!   (no curriculum);
//! * [`CurriculumOnly`] — the layer-then-tier curriculum order, but
//!   uniform weight 1.0 (no loss weighting).

use crate::data::{to_example, to_examples};
use crate::report::TrainReport;
use crate::sft::run_phase_with_order;
use crate::TrainConfig;
use pyranet_model::transformer::TrainExample;
use pyranet_model::{Tokenizer, TransformerLm};
use pyranet_pipeline::PyraNetDataset;

/// Loss weighting without curriculum: one shuffled phase where each example
/// carries its layer's weight.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightingOnly;

impl WeightingOnly {
    /// Runs the recipe.
    pub fn run(
        lm: &mut TransformerLm,
        tk: &Tokenizer,
        dataset: &PyraNetDataset,
        cfg: &TrainConfig,
    ) -> TrainReport {
        let mut examples: Vec<TrainExample> =
            dataset.iter().map(|s| to_example(s, tk, s.layer.loss_weight() as f32)).collect();
        let mut report = TrainReport::new("ablation: loss weighting only");
        run_phase_with_order(lm, &mut examples, cfg, "weighting-only", 1.0, &mut report, true);
        report
    }
}

/// Curriculum without loss weighting: examples visited in layer-then-tier
/// order, all at weight 1.0.
#[derive(Debug, Clone, Copy, Default)]
pub struct CurriculumOnly;

impl CurriculumOnly {
    /// Runs the recipe.
    pub fn run(
        lm: &mut TransformerLm,
        tk: &Tokenizer,
        dataset: &PyraNetDataset,
        cfg: &TrainConfig,
    ) -> TrainReport {
        let mut examples = to_examples(dataset.curriculum(), tk, 1.0);
        let mut report = TrainReport::new("ablation: curriculum only");
        run_phase_with_order(lm, &mut examples, cfg, "curriculum-only", 1.0, &mut report, false);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::build_tokenizer;
    use pyranet_corpus::CorpusBuilder;
    use pyranet_model::ModelConfig;
    use pyranet_pipeline::Pipeline;

    fn setup() -> (PyraNetDataset, Tokenizer, TransformerLm) {
        let pool = CorpusBuilder::new(25).scraped_files(150).build();
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
        let lm = TransformerLm::new(cfg, tk.vocab_size());
        (ds, tk, lm)
    }

    #[test]
    fn weighting_only_carries_layer_weights() {
        let (ds, tk, _) = setup();
        let examples: Vec<TrainExample> =
            ds.iter().map(|s| to_example(s, &tk, s.layer.loss_weight() as f32)).collect();
        let weights: std::collections::HashSet<u32> =
            examples.iter().map(|e| (e.weight * 10.0) as u32).collect();
        assert!(weights.len() >= 2, "multiple distinct weights expected: {weights:?}");
    }

    #[test]
    fn both_ablations_train() {
        let (ds, tk, mut lm) = setup();
        let cfg =
            TrainConfig { epochs: 1, max_examples_per_phase: Some(12), ..TrainConfig::default() };
        let r1 = WeightingOnly::run(&mut lm, &tk, &ds, &cfg);
        let r2 = CurriculumOnly::run(&mut lm, &tk, &ds, &cfg);
        assert_eq!(r1.phases.len(), 1);
        assert_eq!(r2.phases.len(), 1);
    }

    #[test]
    fn curriculum_only_preserves_order() {
        let (ds, tk, _) = setup();
        // example weights are all 1.0 and order follows the curriculum
        let examples: Vec<TrainExample> = to_examples(ds.curriculum(), &tk, 1.0);
        assert!(examples.iter().all(|e| (e.weight - 1.0).abs() < 1e-6));
        assert_eq!(examples.len(), ds.len());
    }
}
