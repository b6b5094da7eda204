//! Model-hot-path benchmark: measures training and generation throughput
//! (tokens/sec) and writes `BENCH_train.json`.
//!
//! The training path is timed once per f32 kernel family — the naive
//! `reference` oracle (`train_reference`) and the register-tiled
//! `blocked` kernels (`train_blocked`, baseline `train_reference`) — so
//! the speedup directly quantifies the kernel rework; `generate` times
//! greedy KV-cache decoding. Blocked is bit-identical to reference:
//! every blocked repeat asserts the reference's per-step losses and
//! trained weights bit for bit, at the CLI model shape (the model
//! crate's property tests and tests/determinism.rs pin it too).
//!
//! Honours `PYRANET_SCALE` (`quick` for the CI smoke run, `full` default).

use pyranet::corpus::CorpusBuilder;
use pyranet::model::tensor::KernelMode;
use pyranet::model::{Adam, ModelConfig, SampleOptions, TransformerLm};
use pyranet::pipeline::Pipeline;
use pyranet::train::{build_tokenizer, to_examples, TrainConfig};
use pyranet_bench::{best_of, Report, Row, Scale};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let scale = Scale::from_env();
    let (files, train_examples, repeats, gen_prompts, max_new) = match scale {
        Scale::Quick => (150, 12, 2, 4, 24),
        Scale::Full => (400, 48, 5, 12, 64),
    };

    let pool = CorpusBuilder::new(11).scraped_files(files).llm_generation(false).build();
    let ds = Pipeline::new().run(pool.samples).dataset;
    let tk = build_tokenizer(ds.iter());
    let mut examples = to_examples(ds.iter(), &tk, 1.0);
    examples.truncate(train_examples);
    let cfg = ModelConfig {
        name: "bench".into(),
        d_model: 32,
        n_layers: 2,
        n_heads: 4,
        d_ff: 64,
        max_seq: 160,
        learning_rate: 3e-3,
        seed: 11,
    };
    let tcfg = TrainConfig { batch_size: 8, ..TrainConfig::default() };
    eprintln!(
        "train path: {} examples, batch size {}, {repeats} repeats per kernel mode",
        examples.len(),
        tcfg.batch_size
    );
    let prompts: Vec<Vec<usize>> = examples
        .iter()
        .take(gen_prompts)
        .map(|e| e.ids[..e.code_start.min(e.ids.len())].to_vec())
        .collect();
    let mut report = Report::new("train", scale, repeats);
    report
        .param("train_examples", examples.len())
        .param("batch_size", tcfg.batch_size)
        .param("generate_prompts", prompts.len())
        .param("max_new_tokens", max_new);

    // One full pass over the examples per repeat: a fresh model and
    // optimizer with the kernel family under test, every batch stepped
    // once. Every blocked repeat must reproduce the reference's losses
    // and trained weights bit for bit.
    let tokens: u64 = examples.iter().map(|e| e.ids.len() as u64).sum();
    let mut oracle: Option<(Vec<u32>, TransformerLm)> = None;
    for mode in [KernelMode::Reference, KernelMode::Blocked] {
        let pass = best_of(repeats, |clock| {
            let mut lm = TransformerLm::new(cfg.clone(), tk.vocab_size());
            lm.set_kernels(mode);
            let mut opt = Adam::new(lm.trainable_count(), tcfg.learning_rate);
            let losses: Vec<u32> = clock.time(|| {
                examples
                    .chunks(tcfg.batch_size)
                    .filter_map(|batch| lm.train_step(batch, &mut opt))
                    .map(f32::to_bits)
                    .collect()
            });
            if let Some((ref_losses, ref_lm)) = &oracle {
                assert_eq!(&losses, ref_losses, "{mode} losses drifted from reference");
                assert!(lm == *ref_lm, "{mode} trained weights drifted from reference");
            }
            (losses, lm)
        });
        let row = report.push(
            Row::new(format!("train_{mode}"), pass.secs, tokens, "tokens")
                .baseline("train_reference")
                .label("kernel", mode.to_string()),
        );
        eprintln!(
            "train {mode}: {:.3}s ({:.2}x reference)",
            pass.secs.fastest,
            row.speedup().unwrap_or(1.0)
        );
        oracle.get_or_insert(pass.out);
    }

    // Generation throughput: train briefly so sampling is non-degenerate,
    // then time greedy decoding over a handful of dataset prompts.
    let mut lm = TransformerLm::new(cfg.clone(), tk.vocab_size());
    let mut opt = Adam::new(lm.trainable_count(), tcfg.learning_rate);
    for batch in examples.chunks(tcfg.batch_size) {
        lm.train_step(batch, &mut opt);
    }
    let opts = SampleOptions { temperature: 0.0, ..SampleOptions::default() };
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let generate = best_of(repeats, |clock| {
        clock.time(|| {
            prompts
                .iter()
                .map(|p| p.len() + lm.generate(p, max_new, &opts, &mut rng).len())
                .sum::<usize>()
        })
    });
    let row = report.push(
        Row::new("generate", generate.secs, generate.out as u64, "tokens")
            .label("kernel", lm.kernels().to_string()),
    );
    eprintln!("generate: {:.3}s, {:.0} tokens/sec", generate.secs.fastest, row.per_sec());
    report.write();
}
