//! Repair fine-tuning — (defect-injected module, clean original) pairs.
//!
//! The corpus builder's defect injectors ([`pyranet_corpus::defect`]) exist
//! to make *broken* pool files; this recipe turns them around into a
//! supervised repair workload: each curated sample is re-broken with a
//! known injector and the model is trained to emit the clean original from
//! the broken text plus the sample's description. The checked injector
//! variants report whether they actually mutated, so every emitted pair
//! carries the hard guarantee `broken != clean` — a pair where the
//! "defect" is a no-op would teach the model to copy its input.

use crate::data::prompt_text;
use crate::report::TrainReport;
use crate::sft::run_phase;
use crate::TrainConfig;
use pyranet_corpus::defect;
use pyranet_exec::stream_seed;
use pyranet_model::transformer::TrainExample;
use pyranet_model::{Tokenizer, TransformerLm};
use pyranet_pipeline::PyraNetDataset;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Which injector family produced a pair's broken side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RepairDefect {
    /// A syntax defect ([`defect::inject_syntax_error_checked`]).
    Syntax,
    /// A phantom-module dependency issue
    /// ([`defect::inject_dependency_issue_checked`]).
    Dependency,
}

/// One supervised repair example: broken text in, clean original out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairPair {
    /// Id of the curated sample the pair was derived from.
    pub id: u64,
    /// The sample's natural-language description.
    pub description: String,
    /// Defect-injected source (always differs from `clean`).
    pub broken: String,
    /// The clean original the model must reproduce.
    pub clean: String,
    /// Injector family used.
    pub defect: RepairDefect,
}

/// Stream tag separating repair-pair RNG from every other consumer of the
/// training seed.
const STREAM_REPAIR: u64 = 0x5250_4152; // "RPAR"

/// Builds repair pairs for every curated sample, skipping samples whose
/// source already has a dependency issue (their "clean" side is not clean).
///
/// Sample `i` draws from its own RNG stream keyed by its id, so the pair
/// set is independent of dataset iteration order and thread count. Each
/// sample alternates a syntax or dependency injection by coin flip; the
/// checked injectors' `mutated` flag gates emission, so `broken != clean`
/// holds for every returned pair.
pub fn repair_pairs(dataset: &PyraNetDataset, seed: u64) -> Vec<RepairPair> {
    let master = stream_seed(seed, STREAM_REPAIR);
    dataset
        .iter()
        .filter(|s| !s.dependency_issue)
        .filter_map(|s| {
            let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(master, s.id));
            let (defect, injection) = if rng.random::<f64>() < 0.5 {
                (RepairDefect::Syntax, defect::inject_syntax_error_checked(&s.source, &mut rng))
            } else {
                (
                    RepairDefect::Dependency,
                    defect::inject_dependency_issue_checked(&s.source, &mut rng),
                )
            };
            injection.mutated.then(|| RepairPair {
                id: s.id,
                description: s.description.clone(),
                broken: injection.source,
                clean: s.source.clone(),
                defect,
            })
        })
        .collect()
}

/// The prompt text for a repair pair: task framing, the description, and
/// the broken source the model must fix.
pub fn repair_prompt(pair: &RepairPair) -> String {
    format!(
        "Repair the following broken Verilog module. {} Broken code: {}",
        pair.description, pair.broken
    )
}

/// Writes repair pairs as JSONL (one [`RepairPair`] object per line) — the
/// export format for training outside this crate.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn export_repair_jsonl(pairs: &[RepairPair], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for p in pairs {
        let line = serde_json::to_string(p)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// The repair SFT recipe: one phase over all repair pairs at weight 1.0.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairTrainer;

impl RepairTrainer {
    /// Runs the recipe, mutating `lm` in place.
    pub fn run(
        lm: &mut TransformerLm,
        tk: &Tokenizer,
        dataset: &PyraNetDataset,
        cfg: &TrainConfig,
    ) -> TrainReport {
        let mut examples: Vec<TrainExample> = repair_pairs(dataset, cfg.seed)
            .iter()
            .map(|p| {
                let prompt = prompt_text(&repair_prompt(p), &p.clean);
                let (ids, code_start) = tk.encode_pair(&prompt, &p.clean);
                TrainExample { ids, code_start, weight: 1.0 }
            })
            .collect();
        let mut report = TrainReport::new("repair (defect-injected -> clean SFT)");
        run_phase(lm, &mut examples, cfg, "repair", 1.0, &mut report);
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

    fn small_dataset() -> PyraNetDataset {
        let pool = CorpusBuilder::new(31).scraped_files(150).llm_generation(false).build();
        Pipeline::new().run(pool.samples).dataset
    }

    #[test]
    fn every_pair_differs_and_skips_dependency_sources() {
        let ds = small_dataset();
        let pairs = repair_pairs(&ds, 7);
        assert!(!pairs.is_empty());
        let dep_ids: std::collections::HashSet<u64> =
            ds.iter().filter(|s| s.dependency_issue).map(|s| s.id).collect();
        for p in &pairs {
            assert_ne!(p.broken, p.clean, "pair {} is a no-op injection", p.id);
            assert!(!dep_ids.contains(&p.id), "pair {} built on a dependency-broken base", p.id);
        }
        // Both injector families show up across a realistic dataset.
        assert!(pairs.iter().any(|p| p.defect == RepairDefect::Syntax));
        assert!(pairs.iter().any(|p| p.defect == RepairDefect::Dependency));
    }

    #[test]
    fn pairs_are_deterministic_in_seed() {
        let ds = small_dataset();
        assert_eq!(repair_pairs(&ds, 7), repair_pairs(&ds, 7));
        assert_ne!(repair_pairs(&ds, 7), repair_pairs(&ds, 8), "seed must matter");
    }

    #[test]
    fn repair_training_improves_loss() {
        let ds = small_dataset();
        let tk = build_tokenizer(ds.iter());
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            max_examples_per_phase: Some(16),
            ..TrainConfig::default()
        };
        let mcfg = ModelConfig {
            name: "tiny".into(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 32,
            max_seq: 256,
            learning_rate: 3e-3,
            seed: 5,
        };
        let mut lm = TransformerLm::new(mcfg, tk.vocab_size());
        let report = RepairTrainer::run(&mut lm, &tk, &ds, &cfg);
        assert_eq!(report.phases.len(), 1);
        let p = &report.phases[0];
        assert!(p.steps > 0);
        assert!(p.last_loss < p.first_loss, "{} -> {}", p.first_loss, p.last_loss);
    }

    #[test]
    fn jsonl_export_round_trips() {
        let ds = small_dataset();
        let pairs: Vec<RepairPair> = repair_pairs(&ds, 7).into_iter().take(5).collect();
        let path =
            std::env::temp_dir().join(format!("pyranet-repair-{}.jsonl", std::process::id()));
        export_repair_jsonl(&pairs, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back: Vec<RepairPair> =
            text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
        assert_eq!(pairs, back);
        std::fs::remove_file(&path).ok();
    }
}
