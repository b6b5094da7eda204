//! The §IV experiment driver: pretrain a base, apply a fine-tuning recipe,
//! evaluate on both VerilogEval-substitute splits.

use pyranet_eval::{evaluate, human_split, machine_split, EvalOptions, EvalResult};
use pyranet_model::{ModelConfig, Tokenizer, TransformerLm};
use pyranet_pipeline::PyraNetDataset;
use pyranet_train::ablation::{CurriculumOnly, WeightingOnly};
use pyranet_train::baselines::{MgVerilog, OriGen, RtlCoder};
use pyranet_train::pretrain::{budget_for, pretrain};
use pyranet_train::{PyraNetTrainer, RepairTrainer, SftTrainer, TrainConfig, TrainReport};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A fine-tuning recipe from the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Recipe {
    /// No fine-tuning — the pretrained base (Table I "Instruct" rows).
    Baseline,
    /// Plain SFT on the whole PyraNet dataset (Table I "PyraNet-Dataset").
    PyraNetDataset,
    /// Loss weighting + curriculum (Table I "PyraNet-Architecture").
    PyraNetArchitecture,
    /// MG-Verilog recipe (multi-grained SFT).
    MgVerilog,
    /// RTLCoder recipe (quality-feedback SFT).
    RtlCoder,
    /// OriGen recipe (code-to-code augmented SFT, no self-reflection).
    OriGen,
    /// Plain SFT on the label-shuffled dataset (Table IV ablation).
    Erroneous,
    /// Ablation: per-layer loss weights without curriculum ordering.
    WeightingOnly,
    /// Ablation: curriculum ordering without loss weighting.
    CurriculumOnly,
    /// Repair SFT: defect-injected module in, clean original out.
    Repair,
}

impl Recipe {
    /// The Table I row suffix for this recipe.
    pub fn label(self) -> &'static str {
        match self {
            Recipe::Baseline => "(baseline)",
            Recipe::PyraNetDataset => "PyraNet-Dataset",
            Recipe::PyraNetArchitecture => "PyraNet-Architecture",
            Recipe::MgVerilog => "MG-Verilog",
            Recipe::RtlCoder => "RTLCoder",
            Recipe::OriGen => "OriGen",
            Recipe::Erroneous => "erroneous dataset",
            Recipe::WeightingOnly => "weighting-only",
            Recipe::CurriculumOnly => "curriculum-only",
            Recipe::Repair => "repair",
        }
    }
}

/// Options shared by all runs of one experiment.
#[derive(Debug, Clone, Default)]
pub struct ExperimentOptions {
    /// Fine-tuning configuration.
    pub train: TrainConfig,
    /// Evaluation configuration.
    pub eval: EvalOptions,
}

/// Evaluation results on both splits.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPair {
    /// VerilogEval-Machine analogue.
    pub machine: EvalResult,
    /// VerilogEval-Human analogue.
    pub human: EvalResult,
}

impl EvalPair {
    /// Table I row: machine pass@1/5/10 then human pass@1/5/10.
    pub fn row(&self) -> [f64; 6] {
        [
            self.machine.pass_at(1),
            self.machine.pass_at(5),
            self.machine.pass_at(10),
            self.human.pass_at(1),
            self.human.pass_at(5),
            self.human.pass_at(10),
        ]
    }
}

/// One completed recipe run.
#[derive(Debug, Clone)]
pub struct RecipeRun {
    /// Display name, e.g. `"codeLlama-7B-analog PyraNet-Architecture"`.
    pub name: String,
    /// The fine-tuned model.
    pub model: TransformerLm,
    /// Training telemetry (empty phases for `Recipe::Baseline`).
    pub report: TrainReport,
}

/// The experiment context: a dataset and the shared tokenizer.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The curated dataset.
    pub dataset: PyraNetDataset,
    /// Tokenizer covering the dataset and both eval splits.
    pub tokenizer: Tokenizer,
}

impl Experiment {
    /// Builds the experiment context. The tokenizer covers the dataset plus
    /// the evaluation prompts (a real subword tokenizer covers English; a
    /// word-level one must be given the words).
    pub fn new(dataset: PyraNetDataset) -> Experiment {
        let eval_texts: Vec<String> =
            machine_split().into_iter().chain(human_split()).map(|p| p.description).collect();
        let tokenizer = {
            let mut texts: Vec<&str> = vec!["Interface:"];
            for s in dataset.iter() {
                texts.push(&s.description);
                texts.push(&s.source);
            }
            for t in &eval_texts {
                texts.push(t);
            }
            Tokenizer::build(texts, 1)
        };
        Experiment { dataset, tokenizer }
    }

    /// Pretrains a fresh base model (the "released checkpoint" step) on the
    /// clean upper layers of the dataset — general Verilog competence
    /// without the curated fine-tuning signal.
    pub fn pretrain_base(&self, cfg: &ModelConfig, opts: &ExperimentOptions) -> TransformerLm {
        let mut lm = TransformerLm::new(cfg.clone(), self.tokenizer.vocab_size());
        // Generic corpus: a shuffled sample across all layers (the web is
        // not curated), disjoint seed from fine-tuning.
        let budget = budget_for(&cfg.name);
        pretrain(&mut lm, &self.tokenizer, &self.dataset, budget, &opts.train);
        lm
    }

    /// Runs one recipe on a clone of `base`.
    pub fn run(&self, base: &TransformerLm, recipe: Recipe, opts: &ExperimentOptions) -> RecipeRun {
        let mut model = base.clone();
        let tk = &self.tokenizer;
        let report = match recipe {
            Recipe::Baseline => TrainReport::new("baseline (no fine-tuning)"),
            Recipe::PyraNetDataset => SftTrainer::run(&mut model, tk, &self.dataset, &opts.train),
            Recipe::PyraNetArchitecture => {
                PyraNetTrainer::run(&mut model, tk, &self.dataset, &opts.train)
            }
            Recipe::MgVerilog => MgVerilog::run(&mut model, tk, &self.dataset, &opts.train),
            Recipe::RtlCoder => RtlCoder::default().run(&mut model, tk, &self.dataset, &opts.train),
            Recipe::OriGen => OriGen::default().run(&mut model, tk, &self.dataset, &opts.train),
            Recipe::Erroneous => {
                let mut rng = ChaCha8Rng::seed_from_u64(opts.train.seed ^ 0xBAD);
                let shuffled = pyranet_pipeline::erroneous::shuffle_labels(&self.dataset, &mut rng);
                SftTrainer::run(&mut model, tk, &shuffled, &opts.train)
            }
            Recipe::WeightingOnly => WeightingOnly::run(&mut model, tk, &self.dataset, &opts.train),
            Recipe::CurriculumOnly => {
                CurriculumOnly::run(&mut model, tk, &self.dataset, &opts.train)
            }
            Recipe::Repair => RepairTrainer::run(&mut model, tk, &self.dataset, &opts.train),
        };
        RecipeRun { name: format!("{} {}", base.cfg.name, recipe.label()), model, report }
    }
}

/// Evaluates a model on both splits.
pub fn evaluate_model(lm: &TransformerLm, tk: &Tokenizer, opts: &EvalOptions) -> EvalPair {
    let machine = evaluate(lm, tk, &machine_split(), opts);
    let human = evaluate(lm, tk, &human_split(), opts);
    EvalPair { machine, human }
}

/// Convenience: pretrain + fine-tune + evaluate in one call.
pub fn run_recipe(
    experiment: &Experiment,
    base_cfg: &ModelConfig,
    recipe: Recipe,
    opts: &ExperimentOptions,
) -> (RecipeRun, EvalPair) {
    let base = experiment.pretrain_base(base_cfg, opts);
    let run = experiment.run(&base, recipe, opts);
    let evals = evaluate_model(&run.model, &experiment.tokenizer, &opts.eval);
    (run, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, PyraNetBuilder};

    fn tiny_options() -> ExperimentOptions {
        ExperimentOptions {
            train: TrainConfig {
                epochs: 1,
                batch_size: 8,
                max_examples_per_phase: Some(8),
                ..TrainConfig::default()
            },
            eval: EvalOptions {
                samples_per_problem: 2,
                max_new_tokens: 30,
                ..EvalOptions::default()
            },
        }
    }

    fn tiny_base() -> ModelConfig {
        ModelConfig {
            name: "codeLlama-7B-analog".into(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 32,
            max_seq: 128,
            learning_rate: 3e-3,
            seed: 2,
        }
    }

    #[test]
    fn recipes_produce_distinct_models() {
        let built = PyraNetBuilder::new(BuildOptions {
            scraped_files: 120,
            seed: 3,
            llm_generation: false,
            ..BuildOptions::default()
        })
        .build();
        let exp = Experiment::new(built.dataset);
        let opts = tiny_options();
        let base = exp.pretrain_base(&tiny_base(), &opts);
        let plain = exp.run(&base, Recipe::PyraNetDataset, &opts);
        let pyra = exp.run(&base, Recipe::PyraNetArchitecture, &opts);
        let baseline = exp.run(&base, Recipe::Baseline, &opts);
        assert!(baseline.report.phases.is_empty());
        assert!(!plain.report.phases.is_empty());
        assert!(pyra.report.phases.len() > plain.report.phases.len(), "layer×tier phases");
        // distinct fine-tunes must change weights differently
        let probe = {
            let (ids, code_start) =
                exp.tokenizer.encode_pair("a counter", "module counter ( input clk ) ; endmodule");
            pyranet_model::transformer::TrainExample { ids, code_start, weight: 1.0 }
        };
        let a = plain.model.nll(&probe).unwrap();
        let b = pyra.model.nll(&probe).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn recipe_labels_are_stable() {
        assert_eq!(Recipe::PyraNetArchitecture.label(), "PyraNet-Architecture");
        assert_eq!(Recipe::Baseline.label(), "(baseline)");
    }
}
