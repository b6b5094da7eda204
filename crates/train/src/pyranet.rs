//! The **PyraNet-Architecture** fine-tuning (paper §III-B, §IV-C second
//! experiment): hierarchical layer-by-layer training with loss weighting
//! and curriculum learning.
//!
//! "The fine-tuning process generally commences with the highest tier …
//! begins with data entries of basic complexity within the top tier,
//! followed by intermediate, advanced, and expert complexity levels in
//! sequence. This hierarchical structure is maintained across all tiers as
//! the fine-tuning progresses downward through the dataset" — with loss
//! weights 1.0, 0.8, 0.6, 0.4, 0.2, 0.1 per layer (Fig. 1-b).

use crate::data::to_examples;
use crate::report::TrainReport;
use crate::sft::run_phase;
use crate::TrainConfig;
use pyranet_model::{Tokenizer, TransformerLm};
use pyranet_pipeline::{Layer, PyraNetDataset};
use pyranet_verilog::metrics::ComplexityTier;

/// The hierarchical loss-weighted curriculum trainer.
#[derive(Debug, Clone, Copy, Default)]
pub struct PyraNetTrainer;

impl PyraNetTrainer {
    /// Runs the full PyraNet schedule: 6 layers × 4 complexity tiers = 24
    /// sequential phases. Empty groups are recorded as explicit zero-step
    /// phases, so the report always has one entry per layer/tier.
    pub fn run(
        lm: &mut TransformerLm,
        tk: &Tokenizer,
        dataset: &PyraNetDataset,
        cfg: &TrainConfig,
    ) -> TrainReport {
        let mut report = TrainReport::new("PyraNet-Architecture");
        for layer in Layer::ALL {
            let weight = layer.loss_weight();
            for tier in ComplexityTier::ALL {
                let group = dataset.iter().filter(|s| s.layer == layer && s.tier == tier);
                let mut examples = to_examples(group, tk, weight as f32);
                let name = format!("{layer}/{tier}");
                run_phase(lm, &mut examples, cfg, &name, weight, &mut report);
            }
        }
        report
    }

    /// The phase schedule (layer, tier, weight) the trainer would execute —
    /// used by the Fig. 1-b regenerator and the tests.
    pub fn schedule() -> Vec<(Layer, ComplexityTier, f64)> {
        let mut out = Vec::with_capacity(24);
        for layer in Layer::ALL {
            for tier in ComplexityTier::ALL {
                out.push((layer, tier, layer.loss_weight()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::build_tokenizer;
    use pyranet_corpus::CorpusBuilder;
    use pyranet_model::ModelConfig;
    use pyranet_pipeline::Pipeline;

    #[test]
    fn schedule_is_top_down_and_curriculum_ordered() {
        let sched = PyraNetTrainer::schedule();
        assert_eq!(sched.len(), 24);
        assert_eq!(sched[0], (Layer::L1, ComplexityTier::Basic, 1.0));
        assert_eq!(sched[3], (Layer::L1, ComplexityTier::Expert, 1.0));
        assert_eq!(sched[4], (Layer::L2, ComplexityTier::Basic, 0.8));
        assert_eq!(sched[23], (Layer::L6, ComplexityTier::Expert, 0.1));
        // weights never increase along the schedule
        for w in sched.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
    }

    #[test]
    fn trainer_visits_layers_in_order_with_paper_weights() {
        let pool = CorpusBuilder::new(22).scraped_files(150).build();
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
        let tcfg =
            TrainConfig { epochs: 1, max_examples_per_phase: Some(6), ..TrainConfig::default() };
        let report = PyraNetTrainer::run(&mut lm, &tk, &ds, &tcfg);
        // every scheduled layer/tier gets a report entry, even when its
        // group is empty (those record zero examples and zero steps)
        assert_eq!(report.phases.len(), 24, "one phase per layer/tier");
        for p in &report.phases {
            if p.examples == 0 {
                assert_eq!(p.steps, 0, "empty groups take no optimizer steps");
                assert_eq!(p.first_loss, 0.0);
                assert_eq!(p.last_loss, 0.0);
            } else {
                assert!(p.steps > 0, "non-empty group {} reported zero steps", p.name);
            }
        }
        assert!(report.phases.iter().any(|p| p.examples > 0), "some groups must train");
        // per-phase weights must be one of the paper's six values and
        // non-increasing across the run
        let allowed = [1.0, 0.8, 0.6, 0.4, 0.2, 0.1];
        let mut prev = f64::INFINITY;
        for p in &report.phases {
            assert!(allowed.iter().any(|w| (p.loss_weight - w).abs() < 1e-9), "{p:?}");
            assert!(p.loss_weight <= prev);
            prev = p.loss_weight;
        }
        // the run covers at least three distinct layers for this pool
        let distinct: std::collections::HashSet<String> = report
            .phases
            .iter()
            .map(|p| p.name.split('/').next().unwrap_or("").to_owned())
            .collect();
        assert!(distinct.len() >= 3, "{distinct:?}");
    }
}
