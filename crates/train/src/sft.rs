//! Plain supervised fine-tuning — the **PyraNet-Dataset** experiment.
//!
//! Paper §IV-C, first experiment: "we fine-tuned the … models using each
//! available (data, description) pair from the dataset … the loss weights
//! were set to 1.0" with random sampling (no curriculum).

use crate::data::{shuffle_examples, to_examples};
use crate::report::{PhaseReport, TrainReport};
use crate::TrainConfig;
use pyranet_exec::ExecConfig;
use pyranet_model::transformer::TrainExample;
use pyranet_model::{Adam, Tokenizer, TransformerLm};
use pyranet_pipeline::PyraNetDataset;

/// Plain SFT over every dataset entry with uniform weight 1.0.
#[derive(Debug, Clone, Copy, Default)]
pub struct SftTrainer;

impl SftTrainer {
    /// Runs the recipe, mutating `lm` in place. LoRA adapters are attached
    /// per the config and merged back afterwards, so the returned model is
    /// self-contained.
    pub fn run(
        lm: &mut TransformerLm,
        tk: &Tokenizer,
        dataset: &PyraNetDataset,
        cfg: &TrainConfig,
    ) -> TrainReport {
        let mut examples = to_examples(dataset.iter(), tk, 1.0);
        let mut report = TrainReport::new("PyraNet-Dataset (plain SFT)");
        run_phase(lm, &mut examples, cfg, "sft", 1.0, &mut report);
        report
    }
}

/// Shared phase runner: shuffles, truncates, batches, trains `cfg.epochs`
/// passes, records a [`PhaseReport`]. Used by all recipes.
pub(crate) fn run_phase(
    lm: &mut TransformerLm,
    examples: &mut Vec<TrainExample>,
    cfg: &TrainConfig,
    name: &str,
    loss_weight: f64,
    report: &mut TrainReport,
) {
    run_phase_with_order(lm, examples, cfg, name, loss_weight, report, true);
}

/// Shuffle seed for one named phase: the full phase name is folded in via
/// FNV-1a ([`pyranet_exec::stream_seed_str`]), so every phase of the
/// 24-phase curriculum draws a distinct permutation. The previous
/// `cfg.seed ^ name.len()` collided for all same-length names —
/// "L1/Basic" through "L6/Basic" (and every other tier column) reused one
/// identical permutation.
pub(crate) fn phase_shuffle_seed(seed: u64, name: &str) -> u64 {
    pyranet_exec::stream_seed_str(seed, name)
}

/// [`run_phase`] with explicit control over shuffling — the curriculum
/// ablation trains in the given order.
///
/// Instrumented with `pyranet_obs`: a `train.phase` span, example/step/
/// token counters, and loss-curve + throughput gauges. Recording only —
/// the trained weights are byte-identical with or without a snapshot
/// consumer.
pub(crate) fn run_phase_with_order(
    lm: &mut TransformerLm,
    examples: &mut Vec<TrainExample>,
    cfg: &TrainConfig,
    name: &str,
    loss_weight: f64,
    report: &mut TrainReport,
    shuffle: bool,
) {
    let obs = pyranet_obs::global();
    obs.counter("train.phases").inc();
    if examples.is_empty() {
        // Record an explicit zero-step phase so curriculum reports always
        // carry one entry per scheduled layer/tier.
        obs.counter("train.zero_example_phases").inc();
        report.phases.push(PhaseReport {
            name: name.to_owned(),
            loss_weight,
            examples: 0,
            steps: 0,
            first_loss: 0.0,
            last_loss: 0.0,
        });
        return;
    }
    let span = obs.span("train.phase");
    lm.set_kernels(cfg.kernel);
    obs.counter(&format!("train.kernel.{}", cfg.kernel)).inc();
    if shuffle {
        shuffle_examples(examples, phase_shuffle_seed(cfg.seed, name));
    }
    if let Some(cap) = cfg.max_examples_per_phase {
        examples.truncate(cap);
    }
    if let Some(lora) = cfg.lora {
        if !lm.has_lora() {
            lm.enable_lora(lora);
        }
    }
    let exec = ExecConfig::new().threads(cfg.threads);
    let mut opt = Adam::new(lm.trainable_count(), cfg.learning_rate);
    let mut first = None;
    let mut last = 0.0f32;
    let mut steps = 0usize;
    let mut tokens = 0u64;
    // An example longer than the context trains on its first `max_seq`
    // tokens only; count those examples and the tokens cut.
    let max_seq = lm.cfg.max_seq;
    let (mut truncated_examples, mut truncated_tokens) = (0u64, 0u64);
    for _epoch in 0..cfg.epochs {
        for batch in examples.chunks(cfg.batch_size) {
            if let Some(loss) = lm.train_step_with(batch, &mut opt, &exec) {
                if first.is_none() {
                    first = Some(loss);
                }
                last = loss;
                steps += 1;
                tokens += batch.iter().map(|ex| ex.ids.len() as u64).sum::<u64>();
                for ex in batch.iter().filter(|ex| ex.ids.len() > max_seq) {
                    truncated_examples += 1;
                    truncated_tokens += (ex.ids.len() - max_seq) as u64;
                }
            }
        }
    }
    // Fold adapters so later phases/evaluation see one coherent model.
    lm.merge_lora();
    let secs = span.stop().as_secs_f64();
    obs.counter("train.steps").add(steps as u64);
    obs.counter("train.tokens").add(tokens);
    obs.counter("train.truncated_examples").add(truncated_examples);
    obs.counter("train.truncated_tokens").add(truncated_tokens);
    obs.counter("train.examples").add(examples.len() as u64 * cfg.epochs as u64);
    if steps == 0 {
        obs.counter("train.zero_step_phases").inc();
    } else {
        obs.gauge("train.phase.first_loss").set(f64::from(first.unwrap_or(0.0)));
        obs.gauge("train.phase.last_loss").set(f64::from(last));
        if secs > 0.0 {
            obs.gauge("train.phase.tokens_per_sec").set(tokens as f64 / secs);
        }
    }
    report.phases.push(PhaseReport {
        name: name.to_owned(),
        loss_weight,
        examples: examples.len(),
        steps,
        first_loss: first.unwrap_or(0.0),
        last_loss: last,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::build_tokenizer;
    use pyranet_corpus::CorpusBuilder;
    use pyranet_model::ModelConfig;
    use pyranet_pipeline::Pipeline;

    fn small_dataset() -> PyraNetDataset {
        let pool = CorpusBuilder::new(21).scraped_files(120).llm_generation(false).build();
        Pipeline::new().run(pool.samples).dataset
    }

    fn tiny_model(vocab: usize) -> TransformerLm {
        let cfg = ModelConfig {
            name: "tiny".into(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 32,
            max_seq: 160,
            learning_rate: 3e-3,
            seed: 5,
        };
        TransformerLm::new(cfg, vocab)
    }

    #[test]
    fn sft_improves_loss() {
        let ds = small_dataset();
        let tk = build_tokenizer(ds.iter());
        let mut lm = tiny_model(tk.vocab_size());
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            max_examples_per_phase: Some(24),
            ..TrainConfig::default()
        };
        let report = SftTrainer::run(&mut lm, &tk, &ds, &cfg);
        assert_eq!(report.phases.len(), 1);
        let p = &report.phases[0];
        assert!(p.last_loss < p.first_loss, "{} -> {}", p.first_loss, p.last_loss);
        assert!(!lm.has_lora(), "adapters merged after the run");
    }

    #[test]
    fn sft_respects_example_cap() {
        let ds = small_dataset();
        let tk = build_tokenizer(ds.iter());
        let mut lm = tiny_model(tk.vocab_size());
        let cfg =
            TrainConfig { epochs: 1, max_examples_per_phase: Some(5), ..TrainConfig::default() };
        let report = SftTrainer::run(&mut lm, &tk, &ds, &cfg);
        assert_eq!(report.phases[0].examples, 5);
    }

    #[test]
    fn truncated_examples_and_tokens_are_counted() {
        // A context just past the longest prompt: every example still
        // supervises some code, and the long ones are clipped. Counters
        // are process-global and other tests train concurrently, so
        // compare deltas against a floor.
        let ds = small_dataset();
        let tk = build_tokenizer(ds.iter());
        let examples = to_examples(ds.iter(), &tk, 1.0);
        let max_seq = examples.iter().map(|ex| ex.code_start).max().unwrap() + 2;
        let cut: Vec<u64> = examples
            .iter()
            .filter(|ex| ex.ids.len() > max_seq)
            .map(|ex| (ex.ids.len() - max_seq) as u64)
            .collect();
        assert!(!cut.is_empty() && examples.len() <= 240);
        let cfg = ModelConfig { max_seq, ..tiny_model(1).cfg };
        let mut lm = TransformerLm::new(cfg, tk.vocab_size());
        let counter = |name: &str| pyranet_obs::global().snapshot().counter(name).unwrap_or(0);
        let before = (counter("train.truncated_examples"), counter("train.truncated_tokens"));
        let cfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
        SftTrainer::run(&mut lm, &tk, &ds, &cfg);
        let after = (counter("train.truncated_examples"), counter("train.truncated_tokens"));
        assert!(after.0 - before.0 >= cut.len() as u64, "{before:?} -> {after:?}");
        assert!(after.1 - before.1 >= cut.iter().sum::<u64>(), "{before:?} -> {after:?}");
    }

    #[test]
    fn same_length_phase_names_get_distinct_permutations() {
        // Regression: the shuffle seed used to be `cfg.seed ^ name.len()`,
        // so "L1/Basic" and "L2/Basic" (same length) reused one identical
        // permutation — adjacent curriculum phases saw examples in the
        // same order every run.
        let seed = TrainConfig::default().seed;
        assert_ne!(phase_shuffle_seed(seed, "L1/Basic"), phase_shuffle_seed(seed, "L2/Basic"));

        let base: Vec<TrainExample> =
            (0..64).map(|i| TrainExample { ids: vec![i], code_start: 0, weight: 1.0 }).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        shuffle_examples(&mut a, phase_shuffle_seed(seed, "L1/Basic"));
        shuffle_examples(&mut b, phase_shuffle_seed(seed, "L2/Basic"));
        let order = |v: &[TrainExample]| v.iter().map(|e| e.ids[0]).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b), "same-length phase names must not share an order");

        // Same name + same master seed still replays the same permutation.
        let mut a2 = base.clone();
        shuffle_examples(&mut a2, phase_shuffle_seed(seed, "L1/Basic"));
        assert_eq!(order(&a), order(&a2));
    }

    #[test]
    fn full_finetune_mode_works_too() {
        let ds = small_dataset();
        let tk = build_tokenizer(ds.iter());
        let mut lm = tiny_model(tk.vocab_size());
        let cfg = TrainConfig {
            epochs: 1,
            lora: None,
            max_examples_per_phase: Some(8),
            ..TrainConfig::default()
        };
        let report = SftTrainer::run(&mut lm, &tk, &ds, &cfg);
        assert_eq!(report.total_examples(), 8);
    }
}
