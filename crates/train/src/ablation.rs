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

    fn cfg() -> TrainConfig {
        TrainConfig { epochs: 1, max_examples_per_phase: Some(12), ..TrainConfig::default() }
    }

    /// Trains a fresh copy of `lm` on `examples` exactly as the recipes'
    /// one phase does (`shuffle` as `WeightingOnly`, in order as
    /// `CurriculumOnly`).
    fn phase(
        lm: &TransformerLm,
        mut examples: Vec<TrainExample>,
        name: &str,
        shuffle: bool,
    ) -> TransformerLm {
        let mut lm = lm.clone();
        let mut report = TrainReport::new(name);
        run_phase_with_order(&mut lm, &mut examples, &cfg(), name, 1.0, &mut report, shuffle);
        lm
    }

    #[test]
    fn weighting_only_carries_layer_weights() {
        let (ds, tk, lm) = setup();
        let mut weighted = lm.clone();
        WeightingOnly::run(&mut weighted, &tk, &ds, &cfg());
        // The recipe trains on each sample at its layer's weight...
        let layer_weighted: Vec<TrainExample> =
            ds.iter().map(|s| to_example(s, &tk, s.layer.loss_weight() as f32)).collect();
        assert!(
            weighted == phase(&lm, layer_weighted, "weighting-only", true),
            "not layer weights"
        );
        // ...which ends at a different model than weight 1.0 everywhere.
        let uniform = to_examples(ds.iter(), &tk, 1.0);
        assert!(weighted != phase(&lm, uniform, "weighting-only", true), "weights had no effect");
    }

    #[test]
    fn both_ablations_train() {
        let (ds, tk, mut lm) = setup();
        let r1 = WeightingOnly::run(&mut lm, &tk, &ds, &cfg());
        let r2 = CurriculumOnly::run(&mut lm, &tk, &ds, &cfg());
        assert_eq!(r1.phases.len(), 1);
        assert_eq!(r2.phases.len(), 1);
    }

    #[test]
    fn curriculum_only_preserves_order() {
        let (ds, tk, lm) = setup();
        let mut curriculum = lm.clone();
        CurriculumOnly::run(&mut curriculum, &tk, &ds, &cfg());
        // The recipe trains on the curriculum order at weight 1.0...
        let ordered = to_examples(ds.curriculum(), &tk, 1.0);
        assert!(
            curriculum == phase(&lm, ordered, "curriculum-only", false),
            "not curriculum order"
        );
        // ...which ends at a different model than the dataset order.
        let dataset_order = to_examples(ds.iter(), &tk, 1.0);
        assert!(
            curriculum != phase(&lm, dataset_order, "curriculum-only", false),
            "order had no effect"
        );
    }
}
