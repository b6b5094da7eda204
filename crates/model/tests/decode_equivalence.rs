//! Bit-identity pins for the decode engine.
//!
//! `DecodeSession` exists to make pass@k evaluation fast — shared prefill,
//! zero-copy KV forks, lock-step batched decoding — while changing *no*
//! output bit. These tests pin each equivalence against the retained
//! legacy loop:
//!
//! * session decode ≡ `generate_legacy` for random prompts/seeds/temps;
//! * a sequence forked from a shared prefix ≡ the same sequence decoded
//!   from its own fresh prefill;
//! * a batch of sequences ≡ the same sequences decoded one at a time;
//! * in every kernel family, a whole-prompt prefill ≡ a shorter prefill
//!   stepped on token by token (logits compared bit for bit);
//! * LoRA-attached models decode identically through the pre-merged path;
//! * over-long prompts (the legacy empty-completion bug) now keep the
//!   prompt tail and produce a real, reported-as-truncated completion.

use proptest::prelude::*;
use pyranet_model::decode::DecodeSession;
use pyranet_model::lora::LoraConfig;
use pyranet_model::{KernelMode, ModelConfig, SampleOptions, TransformerLm};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const VOCAB: usize = 33;

fn model(seed: u64, n_layers: usize, max_seq: usize) -> TransformerLm {
    let cfg = ModelConfig {
        name: format!("decode-eq-{seed}"),
        d_model: 16,
        n_layers,
        n_heads: 2,
        d_ff: 32,
        max_seq,
        learning_rate: 1e-3,
        seed,
    };
    TransformerLm::new(cfg, VOCAB)
}

/// Random prompt over the non-special vocab range (ids 5.. are ordinary
/// tokens; EOS = 3 is deliberately excluded so forced tokens never stop
/// the legacy loop early in a way the prompt itself didn't ask for).
fn prompt_from(seed: u64, len: usize) -> Vec<usize> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            5 + (state as usize % (VOCAB - 5))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The session engine is bit-identical to the legacy per-token loop
    /// whenever the prompt fits the context window.
    #[test]
    fn session_decode_matches_legacy_loop(
        model_seed in 0u64..500,
        prompt_seed in 0u64..500,
        prompt_len in 0usize..40,
        max_new in 0usize..24,
        rng_seed in 0u64..1_000,
        temp_kind in 0usize..3,
    ) {
        let lm = model(model_seed, 1 + (model_seed as usize % 2), 48);
        let prompt = prompt_from(prompt_seed, prompt_len);
        let opts = SampleOptions {
            temperature: [0.0, 0.4, 1.1][temp_kind],
            top_k: 0,
        };
        let legacy = {
            let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
            lm.generate_legacy(&prompt, max_new, &opts, &mut rng)
        };
        let session = {
            let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
            lm.generate_report(&prompt, max_new, &opts, &mut rng)
        };
        prop_assert_eq!(&session.ids, &legacy);
        prop_assert_eq!(session.dropped_prompt_tokens, 0);
    }

    /// Sequences forked from one shared prefill are bit-identical to
    /// decoding each from its own fresh prefill, and a lock-step batch is
    /// bit-identical to decoding the same sequences one at a time.
    #[test]
    fn forked_batch_matches_fresh_per_sample(
        model_seed in 0u64..500,
        prompt_seed in 0u64..500,
        prompt_len in 0usize..40,
        max_new in 1usize..20,
        rng_seed in 0u64..1_000,
        n in 1usize..5,
    ) {
        let lm = model(model_seed, 1 + (model_seed as usize % 2), 48);
        let prompt = prompt_from(prompt_seed, prompt_len);
        let opts: Vec<SampleOptions> = (0..n)
            .map(|i| SampleOptions { temperature: 0.3 + 0.4 * i as f32, top_k: 0 })
            .collect();
        // Batched decode from one shared prefill.
        let batched = {
            let mut session = DecodeSession::new(&lm);
            let prefix = session.prefill(&prompt, max_new);
            let mut rngs: Vec<ChaCha8Rng> = (0..n)
                .map(|i| ChaCha8Rng::seed_from_u64(rng_seed ^ (i as u64) << 32))
                .collect();
            session.decode_batch(&prefix, max_new, &opts, &mut rngs)
        };
        // The same sequences, each from a fresh session and prefill.
        for (i, expect) in batched.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(rng_seed ^ (i as u64) << 32);
            let fresh = lm.generate_report(&prompt, max_new, &opts[i], &mut rng);
            prop_assert_eq!(&fresh, expect, "sequence {}", i);
            let mut rng = ChaCha8Rng::seed_from_u64(rng_seed ^ (i as u64) << 32);
            let legacy = lm.generate_legacy(&prompt, max_new, &opts[i], &mut rng);
            prop_assert_eq!(&expect.ids, &legacy, "sequence {} vs legacy", i);
        }
    }

    /// In every kernel family, prefilling a whole prompt gives the same
    /// logits, bit for bit, as prefilling a head of it and stepping the
    /// rest through `step_seqs` one token at a time: a prompt row and a
    /// decode row run the same forward.
    #[test]
    fn split_prefill_matches_whole_prefill_in_every_family(
        model_seed in 0u64..300,
        prompt_seed in 0u64..300,
        prompt_len in 1usize..40,
        split in 0usize..40,
    ) {
        let lm = model(model_seed, 1 + (model_seed as usize % 2), 48);
        let prompt = prompt_from(prompt_seed, prompt_len);
        let k = split % (prompt_len + 1);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for mode in [KernelMode::Reference, KernelMode::Blocked] {
            let mut session = DecodeSession::new_with(&lm, mode);
            let whole = session.prefill(&prompt, 0);
            let expect = bits(session.open_seq(&whole).logits());
            let head = session.prefill(&prompt[..k], 0);
            let mut seq = session.open_seq(&head);
            for &id in &prompt[k..] {
                seq.push_token(id);
                session.step_seqs(&mut [(&mut seq, &head)]);
            }
            prop_assert_eq!(seq.pos(), prompt_len);
            prop_assert_eq!(bits(seq.logits()), expect, "{:?}, split at {}", mode, k);
        }
    }

    /// LoRA-attached models route through the pre-merged `Cow` weights;
    /// the session must match the legacy loop there too.
    #[test]
    fn lora_session_matches_legacy_loop(
        model_seed in 0u64..200,
        prompt_seed in 0u64..200,
        rng_seed in 0u64..500,
    ) {
        let mut lm = model(model_seed, 1, 48);
        lm.enable_lora(LoraConfig { rank: 2, alpha: 4.0 });
        let prompt = prompt_from(prompt_seed, 12);
        let opts = SampleOptions { temperature: 0.8, top_k: 0 };
        let legacy = {
            let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
            lm.generate_legacy(&prompt, 16, &opts, &mut rng)
        };
        let session = {
            let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
            lm.generate(&prompt, 16, &opts, &mut rng)
        };
        prop_assert_eq!(session, legacy);
    }
}

#[test]
fn overlong_prompt_keeps_tail_and_reports_truncation() {
    let lm = model(11, 1, 32);
    let prompt = prompt_from(17, 64); // twice the context window
    let opts = SampleOptions { temperature: 0.7, top_k: 0 };

    // The legacy loop's historical wart: the completion comes back empty
    // (every slot is consumed by forced prompt tokens) and nothing says so.
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    assert_eq!(lm.generate_legacy(&prompt, 16, &opts, &mut rng), Vec::<usize>::new());

    // The session clamps explicitly: the prompt tail survives, decode
    // headroom is reserved, and the drop is surfaced.
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let report = lm.generate_report(&prompt, 16, &opts, &mut rng);
    assert!(report.prompt_truncated());
    assert_eq!(report.dropped_prompt_tokens, 64 - (32 - 8)); // keeps max_seq - max_seq/4
    assert!(!report.ids.is_empty(), "truncated prompt must still decode");

    // The kept window is exactly the prompt *tail*: decoding from the
    // pre-trimmed tail directly gives the same ids.
    let tail = &prompt[report.dropped_prompt_tokens..];
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let direct = lm.generate_report(tail, 16, &opts, &mut rng);
    assert_eq!(direct.ids, report.ids);
    assert_eq!(direct.dropped_prompt_tokens, 0);
}

#[test]
fn budget_clamp_is_reported() {
    let lm = model(3, 1, 32);
    let prompt = prompt_from(5, 28); // fits, but leaves only 4 decode slots
    let opts = SampleOptions { temperature: 0.0, top_k: 0 };
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let report = lm.generate_report(&prompt, 16, &opts, &mut rng);
    assert_eq!(report.dropped_prompt_tokens, 0);
    assert_eq!(report.clamped_new_tokens, 12);
    assert!(report.ids.len() <= 4);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    assert_eq!(report.ids, lm.generate_legacy(&prompt, 16, &opts, &mut rng));
}

#[test]
fn prefix_state_reports_its_shape() {
    let lm = model(4, 2, 32);
    let mut session = DecodeSession::new(&lm);
    let prefix = session.prefill(&prompt_from(1, 10), 8);
    assert_eq!(prefix.len(), 10);
    assert!(!prefix.is_empty());
    assert_eq!(prefix.dropped_prompt_tokens(), 0);
    let empty = session.prefill(&[], 8);
    assert!(empty.is_empty());
}
