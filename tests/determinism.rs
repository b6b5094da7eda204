//! Thread-count invariance of the parallelised hot paths.
//!
//! The `pyranet-exec` contract is that `par_map` preserves input order and
//! that every RNG-consuming work item derives its stream from stable keys,
//! never from execution order. These tests pin that contract end to end:
//! the corpus pool, the curated dataset, and the evaluation pass@k must be
//! byte-identical whether the work runs on one thread or many.

use pyranet::corpus::CorpusBuilder;
use pyranet::eval::{evaluate, machine_split, EvalOptions};
use pyranet::model::{ModelConfig, Tokenizer, TransformerLm};
use pyranet::pipeline::Pipeline;
use pyranet::{BuildOptions, PyraNetBuilder};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn corpus_pool_is_identical_at_any_thread_count() {
    let build = |threads| {
        CorpusBuilder::new(11).scraped_files(300).llm_generation(true).threads(threads).build()
    };
    let reference = build(1);
    for threads in THREAD_COUNTS {
        let pool = build(threads);
        assert_eq!(pool.samples, reference.samples, "threads = {threads}");
        assert_eq!(pool.gen_funnel, reference.gen_funnel, "threads = {threads}");
    }
}

#[test]
fn pipeline_outcome_is_identical_at_any_thread_count() {
    let pool = CorpusBuilder::new(12).scraped_files(400).llm_generation(false).build();
    let run = |threads| Pipeline::new().threads(threads).run(pool.samples.clone());
    let reference = run(1);
    for threads in THREAD_COUNTS {
        let outcome = run(threads);
        assert_eq!(outcome.dataset, reference.dataset, "threads = {threads}");
        assert_eq!(outcome.funnel, reference.funnel, "threads = {threads}");
    }
}

#[test]
fn full_build_is_identical_at_any_thread_count() {
    let build = |threads| {
        PyraNetBuilder::new(BuildOptions {
            scraped_files: 250,
            seed: 13,
            llm_generation: false,
            threads,
            ..BuildOptions::default()
        })
        .build()
    };
    let reference = build(1);
    for threads in THREAD_COUNTS {
        let built = build(threads);
        assert_eq!(built.dataset, reference.dataset, "threads = {threads}");
        assert_eq!(built.funnel, reference.funnel, "threads = {threads}");
    }
}

#[test]
fn metrics_recording_does_not_perturb_outputs() {
    // The observability layer is passive: with the global registry
    // recording every stage, outputs stay byte-identical at any thread
    // count while the counters demonstrably advance. Counters are
    // compared as *deltas with slack* because the registry is
    // process-global and other tests in this binary record concurrently.
    use pyranet::obs::{global, SnapshotValue};

    let hist_count = |name: &str| match global().snapshot().get(name) {
        Some(SnapshotValue::Histogram { count, .. }) => *count,
        _ => 0,
    };
    let collected_before = global().snapshot().counter("pipeline.funnel.collected").unwrap_or(0);
    let runs_before = hist_count("pipeline.run.seconds");

    let build = |threads| {
        PyraNetBuilder::new(BuildOptions {
            scraped_files: 220,
            seed: 29,
            llm_generation: false,
            threads,
            ..BuildOptions::default()
        })
        .build()
    };
    let reference = build(1);
    for threads in THREAD_COUNTS {
        let built = build(threads);
        assert_eq!(built.dataset, reference.dataset, "threads = {threads}");
        assert_eq!(built.funnel, reference.funnel, "threads = {threads}");
    }

    let n_runs = 1 + THREAD_COUNTS.len() as u64;
    let collected_after = global().snapshot().counter("pipeline.funnel.collected").unwrap_or(0);
    assert!(
        collected_after >= collected_before + n_runs * 220,
        "funnel counters must record every run: {collected_before} -> {collected_after}"
    );
    assert!(hist_count("pipeline.run.seconds") >= runs_before + n_runs, "span must time each run");
}

#[test]
fn sharded_export_is_identical_at_any_thread_count() {
    use pyranet::pipeline::persist::{fnv1a64, format_checksum};
    use pyranet::pipeline::ShardSpec;

    let ds = PyraNetBuilder::new(BuildOptions {
        scraped_files: 250,
        seed: 13,
        llm_generation: false,
        ..BuildOptions::default()
    })
    .build()
    .dataset;

    for (tag, spec) in [("layer", ShardSpec::PerLayer), ("fixed", ShardSpec::MaxSamples(64))] {
        let export = |threads: usize| {
            let dir = std::env::temp_dir()
                .join(format!("pyranet-determinism-{tag}-{threads}-{}", std::process::id()));
            let exec = pyranet_exec::ExecConfig::new().threads(threads);
            let manifest = ds.to_shards(&dir, spec, &exec).expect("export");
            let files: Vec<(String, Vec<u8>)> =
                std::iter::once((
                    "manifest.json".to_owned(),
                    std::fs::read(dir.join("manifest.json")).expect("read manifest"),
                ))
                .chain(manifest.shards.iter().map(|s| {
                    (s.file.clone(), std::fs::read(dir.join(&s.file)).expect("read shard"))
                }))
                .collect();
            let back = pyranet::PyraNetDataset::from_shards(&dir, &exec).expect("import");
            std::fs::remove_dir_all(&dir).ok();
            (files, back)
        };
        let (reference_files, reference_back) = export(1);
        for threads in THREAD_COUNTS {
            let (files, back) = export(threads);
            assert_eq!(files, reference_files, "{tag} shards, threads = {threads}");
            assert_eq!(back, reference_back, "{tag} import, threads = {threads}");
        }
        if let ShardSpec::MaxSamples(_) = spec {
            assert_eq!(reference_back, ds, "fixed-size import is bit-identical to the source");
        }

        // Digest pin: the exact bytes of the sharded export (file names
        // included) for this builder seed. Catches any unintended change
        // to the serialization format, shard naming, or shard assignment.
        // Re-pinned when manifest format_version 2 added the funnel and
        // provenance fields.
        let mut digest_input = Vec::new();
        for (name, bytes) in &reference_files {
            digest_input.extend_from_slice(name.as_bytes());
            digest_input.extend_from_slice(bytes);
        }
        let digest = format_checksum(fnv1a64(&digest_input));
        let expected = match tag {
            "layer" => "fc18aa14fee70ccd",
            _ => "02ccffbe4c3e87a5",
        };
        assert_eq!(digest, expected, "{tag} export digest drifted");
    }
}

fn tiny_model() -> (TransformerLm, Tokenizer) {
    let tk = Tokenizer::build(
        [
            "module m ( input a , input b , output y ) ; assign y = a & b ; endmodule",
            "module c ( input clk , output reg [ 3 : 0 ] q ) ; always @ ( posedge clk ) q <= q + 1 ; endmodule",
        ]
        .iter()
        .copied(),
        1,
    );
    let cfg = ModelConfig {
        name: "determinism-tiny".into(),
        d_model: 16,
        n_layers: 1,
        n_heads: 2,
        d_ff: 32,
        max_seq: 64,
        learning_rate: 1e-3,
        seed: 7,
    };
    let lm = TransformerLm::new(cfg, tk.vocab_size());
    (lm, tk)
}

#[test]
fn eval_pass_at_k_is_identical_at_any_thread_count() {
    let (lm, tk) = tiny_model();
    let problems: Vec<_> = machine_split().into_iter().take(4).collect();
    let run = |threads| {
        let opts = EvalOptions {
            samples_per_problem: 3,
            max_new_tokens: 16,
            threads,
            ..EvalOptions::default()
        };
        evaluate(&lm, &tk, &problems, &opts)
    };
    let reference = run(1);
    for threads in THREAD_COUNTS {
        let result = run(threads);
        assert_eq!(result, reference, "threads = {threads}");
    }
}

#[test]
fn batched_sft_training_is_identical_at_any_thread_count() {
    // Per-example gradients are computed in parallel but folded in example
    // order, so the trained weights must be byte-identical at any thread
    // count (`TrainConfig::threads` only changes wall time, never output).
    let pool = CorpusBuilder::new(14).scraped_files(150).llm_generation(false).build();
    let ds = Pipeline::new().run(pool.samples).dataset;
    let tk = pyranet::train::build_tokenizer(ds.iter());
    let cfg = ModelConfig {
        name: "determinism-train".into(),
        d_model: 16,
        n_layers: 1,
        n_heads: 2,
        d_ff: 32,
        max_seq: 128,
        learning_rate: 3e-3,
        seed: 7,
    };
    let run = |threads| {
        let mut lm = TransformerLm::new(cfg.clone(), tk.vocab_size());
        let tcfg = pyranet::TrainConfig {
            epochs: 2,
            batch_size: 8,
            max_examples_per_phase: Some(16),
            threads,
            ..pyranet::TrainConfig::default()
        };
        let report = pyranet::train::SftTrainer::run(&mut lm, &tk, &ds, &tcfg);
        (lm, report)
    };
    let (ref_lm, ref_report) = run(1);
    for threads in THREAD_COUNTS {
        let (lm, report) = run(threads);
        assert_eq!(
            report.phases[0].last_loss.to_bits(),
            ref_report.phases[0].last_loss.to_bits(),
            "threads = {threads}"
        );
        assert_eq!(lm, ref_lm, "threads = {threads}");
    }
}

/// Trains the CLI model shape (d_model 32, 2 layers, 4 heads, d_ff 64,
/// max_seq 160) for three batches of eight and folds every step's loss
/// bits, then every trained weight's bits, into one FNV-1a digest.
fn cli_shape_training_digest(mode: pyranet::model::KernelMode) -> u64 {
    use pyranet::model::Adam;
    let pool = CorpusBuilder::new(14).scraped_files(150).llm_generation(false).build();
    let ds = Pipeline::new().run(pool.samples).dataset;
    let tk = pyranet::train::build_tokenizer(ds.iter());
    let mut examples = pyranet::train::to_examples(ds.iter(), &tk, 1.0);
    examples.truncate(24);
    // Sequences past three 32-wide tiles, some clipped to max_seq.
    assert!(examples.iter().filter(|e| e.ids.len() > 96).count() >= 4);
    assert!(examples.iter().any(|e| e.ids.len() > 160));
    let cfg = ModelConfig {
        name: "pyranet-cli".into(),
        d_model: 32,
        n_layers: 2,
        n_heads: 4,
        d_ff: 64,
        max_seq: 160,
        learning_rate: 3e-3,
        seed: 14,
    };
    let mut lm = TransformerLm::new(cfg, tk.vocab_size());
    lm.set_kernels(mode);
    let mut opt = Adam::new(lm.trainable_count(), 3e-3);
    let mut h = pyranet_exec::Fnv64::new();
    for batch in examples.chunks(8) {
        let loss = lm.train_step(batch, &mut opt).expect("every batch supervises code");
        h.write_u64(u64::from(loss.to_bits()));
    }
    for w in lm.weights() {
        for x in &w.data {
            h.write(&x.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

#[test]
fn cli_shape_training_matches_its_pinned_digest() {
    // Pins trained weights across changes to the training graph: any
    // kernel or op rewrite must keep every loss and weight bit.
    use pyranet::model::KernelMode;
    for mode in [KernelMode::Blocked, KernelMode::Reference] {
        let digest = cli_shape_training_digest(mode);
        assert_eq!(format!("{digest:016x}"), "d434013c694e86a5", "{mode} training digest drifted");
    }
}

/// Decodes at the CLI model shape through the serve engine's primitives:
/// prompts whose lengths straddle the 8-row attention score tile are
/// prefilled, forked 1–10 times each, and every fork of every prompt
/// steps in one continuous batch until its token budget runs out. Every
/// logits bit (prefill and step) and every sampled id folds into one
/// FNV-1a digest.
fn cli_shape_decode_digest(mode: pyranet::model::KernelMode) -> u64 {
    use pyranet::model::decode::SeqState;
    use pyranet::model::sampler::sample_logits;
    use pyranet::model::{DecodeSession, PromptPlan, SampleOptions};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    const VOCAB: usize = 96;
    const MAX_NEW: usize = 24;
    let cfg = ModelConfig {
        name: "pyranet-cli".into(),
        d_model: 32,
        n_layers: 2,
        n_heads: 4,
        d_ff: 64,
        max_seq: 160,
        learning_rate: 3e-3,
        seed: 14,
    };
    let lm = TransformerLm::new(cfg, VOCAB);
    let mut session = DecodeSession::new_with(&lm, mode);
    let opts = SampleOptions { temperature: 0.8, top_k: 0 };
    let fold_logits = |h: &mut pyranet_exec::Fnv64, logits: &[f32]| {
        for x in logits {
            h.write(&x.to_bits().to_le_bytes());
        }
    };
    let mut h = pyranet_exec::Fnv64::new();
    let lens = [1usize, 7, 8, 9, 16, 17, 81, 150];
    let prefixes: Vec<_> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            // Ordinary token ids (5..), never a special token.
            let prompt: Vec<usize> =
                (0..len).map(|t| 5 + (t * 37 + i * 11) % (VOCAB - 5)).collect();
            session.prefill(&prompt, MAX_NEW)
        })
        .collect();
    // (state, prefix index, rng, tokens left in the budget)
    let mut live: Vec<(SeqState, usize, ChaCha8Rng, usize)> = Vec::new();
    for (i, prefix) in prefixes.iter().enumerate() {
        let budget = PromptPlan::new(prefix.len(), MAX_NEW, session.max_seq()).new_token_budget;
        for f in 0..1 + (i * 3) % 10 {
            let seq = session.open_seq(prefix);
            fold_logits(&mut h, seq.logits());
            live.push((seq, i, ChaCha8Rng::seed_from_u64((i * 16 + f) as u64), budget));
        }
    }
    while !live.is_empty() {
        // Sample every live sequence; the budget's last token and `<eos>`
        // retire a sequence without a forward, as `decode_batch` does.
        live.retain_mut(|(seq, _, rng, left)| {
            let id = sample_logits(seq.logits(), &opts, rng);
            h.write_u64(id as u64);
            *left -= 1;
            seq.push_token(id);
            id != pyranet::model::tokenizer::EOS && *left > 0
        });
        let mut rows: Vec<_> = live.iter_mut().map(|(seq, i, _, _)| (seq, &prefixes[*i])).collect();
        session.step_seqs(&mut rows);
        for (seq, _) in &rows {
            fold_logits(&mut h, seq.logits());
        }
    }
    h.finish()
}

#[test]
fn cli_shape_decode_matches_its_pinned_digest() {
    // Pins every decoded logit and sampled id across changes to the
    // attention body behind prefill, eval forks and the serve batch.
    use pyranet::model::KernelMode;
    for mode in [KernelMode::Blocked, KernelMode::Reference] {
        let digest = cli_shape_decode_digest(mode);
        assert_eq!(format!("{digest:016x}"), "db2800dc4fd22c12", "{mode} decode digest drifted");
    }
}

#[test]
fn simd_kernel_eval_is_byte_identical_to_blocked() {
    // The acceptance pin for the f32 kernel families: a `blocked` session
    // decodes through the register-tiled, order-preserving forward matmul
    // plus scalar attention/layer-norm sweeps, so pass@k results must be
    // *byte-identical* to the `reference` oracle at every thread count.
    use pyranet::model::KernelMode;
    let (lm, tk) = tiny_model();
    let problems: Vec<_> = machine_split().into_iter().take(4).collect();
    let run = |kernel, threads| {
        let opts = EvalOptions {
            samples_per_problem: 3,
            max_new_tokens: 16,
            threads,
            kernel,
            ..EvalOptions::default()
        };
        serde_json::to_string(&evaluate(&lm, &tk, &problems, &opts)).expect("serialize EvalResult")
    };
    let reference = run(KernelMode::Blocked, 1);
    for kernel in [KernelMode::Reference, KernelMode::Blocked] {
        for threads in THREAD_COUNTS {
            assert_eq!(run(kernel, threads), reference, "kernel = {kernel}, threads = {threads}");
        }
    }
}

#[test]
fn sim_backends_are_byte_identical_at_any_thread_count() {
    // The acceptance pin for the compiled simulation VM: scoring with the
    // bytecode backend and with the event-driven reference interpreter
    // must produce *byte-identical* serialized EvalResults at every thread
    // count. `SimMode` is a throughput knob, never a semantic one.
    use pyranet::eval::SimMode;
    let (lm, tk) = tiny_model();
    let problems: Vec<_> = machine_split().into_iter().take(4).collect();
    let run = |sim, threads| {
        let opts = EvalOptions {
            samples_per_problem: 3,
            max_new_tokens: 16,
            threads,
            sim,
            ..EvalOptions::default()
        };
        serde_json::to_string(&evaluate(&lm, &tk, &problems, &opts)).expect("serialize EvalResult")
    };
    let reference = run(SimMode::Reference, 1);
    for sim in [SimMode::Compiled, SimMode::Reference] {
        for threads in THREAD_COUNTS {
            assert_eq!(run(sim, threads), reference, "sim = {sim}, threads = {threads}");
        }
    }
}

#[test]
fn equivalence_check_eval_is_byte_identical_at_any_thread_count_and_order() {
    // The acceptance pin for equivalence-mode scoring: the exhaustive
    // sweep is an ascending counter over the input bits (no RNG at all)
    // and the fallback path reuses the seeded stimulus stream, so
    // serialized EvalResults must be *byte-identical* at every thread
    // count, and shuffled problem arrival must only permute the
    // per-problem rows.
    use pyranet::eval::{CheckStrategy, Problem, DEFAULT_MAX_EQ_INPUTS};
    let (lm, tk) = tiny_model();
    let problems: Vec<_> = machine_split().into_iter().take(4).collect();
    let run = |problems: &[Problem], threads| {
        let opts = EvalOptions {
            samples_per_problem: 3,
            max_new_tokens: 16,
            threads,
            check: CheckStrategy::Equivalence { max_input_bits: DEFAULT_MAX_EQ_INPUTS },
            ..EvalOptions::default()
        };
        evaluate(&lm, &tk, problems, &opts)
    };
    let reference = run(&problems, 1);
    let reference_bytes = serde_json::to_string(&reference).expect("serialize EvalResult");
    for threads in THREAD_COUNTS {
        let bytes = serde_json::to_string(&run(&problems, threads)).expect("serialize EvalResult");
        assert_eq!(bytes, reference_bytes, "threads = {threads}");
    }
    let mut reversed = problems.clone();
    reversed.reverse();
    let backward = run(&reversed, 8);
    let mut forward_sorted = reference.problems.clone();
    forward_sorted.sort_by(|a, b| a.id.cmp(&b.id));
    let mut backward_sorted = backward.problems.clone();
    backward_sorted.sort_by(|a, b| a.id.cmp(&b.id));
    assert_eq!(forward_sorted, backward_sorted, "arrival order must only permute rows");
}

#[test]
fn eval_is_independent_of_problem_order() {
    // Each problem's sampling stream is keyed by (seed, problem id), so
    // shuffling the split must only permute the per-problem results.
    let (lm, tk) = tiny_model();
    let problems: Vec<_> = machine_split().into_iter().take(4).collect();
    let mut reversed = problems.clone();
    reversed.reverse();
    let opts = EvalOptions { samples_per_problem: 2, max_new_tokens: 16, ..EvalOptions::default() };
    let forward = evaluate(&lm, &tk, &problems, &opts);
    let backward = evaluate(&lm, &tk, &reversed, &opts);
    let mut forward_sorted = forward.problems.clone();
    forward_sorted.sort_by(|a, b| a.id.cmp(&b.id));
    let mut backward_sorted = backward.problems.clone();
    backward_sorted.sort_by(|a, b| a.id.cmp(&b.id));
    assert_eq!(forward_sorted, backward_sorted);
}

#[test]
fn serve_completions_are_identical_across_arrival_orders_batches_and_threads() {
    // The serve engine's contract: each request's sampler is keyed by
    // (seed, request id) and the lock-step forward is row-independent,
    // so a completion is a pure function of the request — whatever
    // arrival order the queue saw, however wide the continuous batch
    // ran, and however many threads tokenized the stream.
    use pyranet::serve::{replay, ServeConfig, ServeRequest, ServeResponse};

    let (lm, tk) = tiny_model();
    let requests: Vec<ServeRequest> = (0..12)
        .map(|i| ServeRequest {
            id: format!("req-{i}"),
            prompt: if i % 3 == 0 { "binary counter".into() } else { format!("mux {i}") },
            max_new_tokens: 4 + (i * 7) % 12,
            temperature: 0.3 + 0.2 * (i % 3) as f32,
        })
        .collect();
    let by_id = |mut rs: Vec<ServeResponse>| {
        rs.sort_by(|a, b| a.id.cmp(&b.id));
        rs
    };
    let cfg = |max_batch, threads| ServeConfig { max_batch, threads, ..ServeConfig::default() };

    let reference = by_id(replay(&lm, &tk, cfg(1, 1), &requests).responses);
    assert_eq!(reference.len(), requests.len());

    // Three shuffled arrival orders: reversed, interleaved (evens then
    // odds), and rotated — all deterministic permutations.
    let mut reversed = requests.clone();
    reversed.reverse();
    let interleaved: Vec<ServeRequest> = (0..requests.len())
        .step_by(2)
        .chain((1..requests.len()).step_by(2))
        .map(|i| requests[i].clone())
        .collect();
    let mut rotated = requests.clone();
    rotated.rotate_left(5);

    for order in [&requests, &reversed, &interleaved, &rotated] {
        for max_batch in [1usize, 2, 8] {
            for threads in THREAD_COUNTS {
                let got = by_id(replay(&lm, &tk, cfg(max_batch, threads), order).responses);
                assert_eq!(got, reference, "max_batch = {max_batch}, threads = {threads}");
            }
        }
    }
}
