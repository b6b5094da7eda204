//! Token sampling for generation.

use crate::vmath::exp_inplace;
use rand::Rng;

/// Sampling hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleOptions {
    /// Softmax temperature; `0.0` means greedy argmax.
    pub temperature: f32,
    /// Keep only the `top_k` most likely tokens (0 = disabled).
    pub top_k: usize,
}

impl Default for SampleOptions {
    fn default() -> Self {
        SampleOptions { temperature: 0.7, top_k: 0 }
    }
}

/// Samples a token id from raw logits.
pub fn sample_logits<R: Rng>(logits: &[f32], opts: &SampleOptions, rng: &mut R) -> usize {
    sample_logits_into(logits, opts, rng, &mut Vec::new())
}

/// Allocation-aware [`sample_logits`]: `scratch` holds the softmax weights
/// and is cleared on entry, so a caller that samples in a loop (the decode
/// engine, one draw per sequence per token) reuses one buffer instead of
/// allocating per draw. With `top_k` disabled — the eval harness
/// configuration — the call performs no allocation at steady state.
/// Bit-identical to [`sample_logits`]: same fold order for the max, same
/// per-element normalisation, same single RNG draw.
pub fn sample_logits_into<R: Rng>(
    logits: &[f32],
    opts: &SampleOptions,
    rng: &mut R,
    scratch: &mut Vec<f32>,
) -> usize {
    assert!(!logits.is_empty(), "empty logits");
    if opts.temperature <= 0.0 {
        return argmax(logits);
    }
    if opts.top_k > 0 && opts.top_k < logits.len() {
        // Top-k path: needs a sort, so the index vector is unavoidable.
        let mut indexed: Vec<(usize, f32)> = logits.iter().copied().enumerate().collect();
        indexed.sort_by(|a, b| b.1.total_cmp(&a.1));
        indexed.truncate(opts.top_k);
        let max = indexed.iter().map(|(_, v)| *v).fold(f32::NEG_INFINITY, f32::max);
        scratch.clear();
        scratch.extend(indexed.iter().map(|(_, v)| (v - max) / opts.temperature));
        exp_inplace(scratch);
        let total: f32 = scratch.iter().sum();
        for w in scratch.iter_mut() {
            *w /= total;
        }
        let mut roll: f32 = rng.random();
        for ((id, _), w) in indexed.iter().zip(scratch.iter()) {
            roll -= w;
            if roll <= 0.0 {
                return *id;
            }
        }
        return indexed.last().map(|(id, _)| *id).unwrap_or(0);
    }
    // Dense path: candidate order is index order, no sort needed.
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    scratch.clear();
    scratch.extend(logits.iter().map(|v| (v - max) / opts.temperature));
    exp_inplace(scratch);
    let total: f32 = scratch.iter().sum();
    for w in scratch.iter_mut() {
        *w /= total;
    }
    let mut roll: f32 = rng.random();
    for (id, w) in scratch.iter().enumerate() {
        roll -= w;
        if roll <= 0.0 {
            return id;
        }
    }
    logits.len() - 1
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zero_temperature_is_argmax() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let logits = vec![0.1, 3.0, -1.0, 2.9];
        let opts = SampleOptions { temperature: 0.0, top_k: 0 };
        for _ in 0..10 {
            assert_eq!(sample_logits(&logits, &opts, &mut rng), 1);
        }
    }

    #[test]
    fn low_temperature_concentrates() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let logits = vec![0.0, 5.0, 0.0];
        let opts = SampleOptions { temperature: 0.2, top_k: 0 };
        let hits = (0..200).filter(|_| sample_logits(&logits, &opts, &mut rng) == 1).count();
        assert!(hits > 190, "got {hits}/200");
    }

    #[test]
    fn high_temperature_spreads() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let logits = vec![0.0, 1.0, 0.0];
        let opts = SampleOptions { temperature: 5.0, top_k: 0 };
        let mut counts = [0usize; 3];
        for _ in 0..600 {
            counts[sample_logits(&logits, &opts, &mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 100), "{counts:?}");
    }

    #[test]
    fn top_k_excludes_tail() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let logits = vec![10.0, 9.0, -50.0, -50.0];
        let opts = SampleOptions { temperature: 1.0, top_k: 2 };
        for _ in 0..100 {
            let s = sample_logits(&logits, &opts, &mut rng);
            assert!(s < 2, "sampled excluded token {s}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let logits: Vec<f32> = (0..50).map(|i| (i as f32 * 0.37).sin()).collect();
        let opts = SampleOptions { temperature: 0.9, top_k: 10 };
        let a: Vec<usize> = {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            (0..20).map(|_| sample_logits(&logits, &opts, &mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            (0..20).map(|_| sample_logits(&logits, &opts, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty logits")]
    fn empty_logits_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let _ = sample_logits(&[], &SampleOptions::default(), &mut rng);
    }
}
