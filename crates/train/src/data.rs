//! Dataset → training-example conversion.

use pyranet_model::transformer::TrainExample;
use pyranet_model::Tokenizer;
use pyranet_pipeline::CuratedSample;
pub use pyranet_verilog::pretty::interface_line;

/// The full prompt text for a (description, source) pair: the description
/// plus the interface line when the source parses.
pub fn prompt_text(description: &str, source: &str) -> String {
    match pyranet_verilog::parse_module(source) {
        Ok(module) => format!("{description} Interface: {}", interface_line(&module)),
        Err(_) => description.to_owned(),
    }
}

/// Builds a tokenizer over the descriptions and sources of a dataset
/// (plus the special-token floor).
pub fn build_tokenizer<'s, I>(samples: I) -> Tokenizer
where
    I: IntoIterator<Item = &'s CuratedSample>,
{
    let mut texts: Vec<&str> = vec!["Interface:"];
    for s in samples {
        texts.push(&s.description);
        texts.push(&s.source);
    }
    Tokenizer::build(texts, 1)
}

/// Converts one curated sample into a training example at loss `weight`.
pub(crate) fn to_example(s: &CuratedSample, tk: &Tokenizer, weight: f32) -> TrainExample {
    let prompt = prompt_text(&s.description, &s.source);
    let (ids, code_start) = tk.encode_pair(&prompt, &s.source);
    TrainExample { ids, code_start, weight }
}

/// Converts curated samples into training examples with a uniform loss
/// `weight`.
pub fn to_examples<'s, I>(samples: I, tk: &Tokenizer, weight: f32) -> Vec<TrainExample>
where
    I: IntoIterator<Item = &'s CuratedSample>,
{
    samples.into_iter().map(|s| to_example(s, tk, weight)).collect()
}

/// Deterministic Fisher–Yates shuffle driven by a seed (kept here so all
/// trainers share identical shuffling semantics).
pub fn shuffle_examples(examples: &mut [TrainExample], seed: u64) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    examples.shuffle(&mut rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyranet_pipeline::{Layer, Rank};
    use pyranet_verilog::metrics::ComplexityTier;

    fn sample(id: u64) -> CuratedSample {
        CuratedSample {
            id,
            source: format!("module m{id}(input a, output y); assign y = a; endmodule"),
            description: format!("a pass-through wire number {id}"),
            rank: Rank::new(20),
            tier: ComplexityTier::Basic,
            layer: Layer::L1,
            dependency_issue: false,
        }
    }

    #[test]
    fn tokenizer_covers_dataset_words() {
        let samples: Vec<CuratedSample> = (0..3).map(sample).collect();
        let tk = build_tokenizer(samples.iter());
        let ids = tk.encode("module m0 assign endmodule");
        assert!(ids.iter().all(|&i| i != pyranet_model::tokenizer::UNK));
    }

    #[test]
    fn examples_carry_weight_and_layout() {
        let samples: Vec<CuratedSample> = (0..2).map(sample).collect();
        let tk = build_tokenizer(samples.iter());
        let exs = to_examples(samples.iter(), &tk, 0.8);
        assert_eq!(exs.len(), 2);
        for ex in &exs {
            assert!((ex.weight - 0.8).abs() < 1e-6);
            assert!(ex.code_start > 1);
            assert_eq!(ex.ids[0], pyranet_model::tokenizer::BOS);
        }
    }

    #[test]
    fn shuffle_is_deterministic() {
        let samples: Vec<CuratedSample> = (0..20).map(sample).collect();
        let tk = build_tokenizer(samples.iter());
        let mut a = to_examples(samples.iter(), &tk, 1.0);
        let mut b = a.clone();
        shuffle_examples(&mut a, 5);
        shuffle_examples(&mut b, 5);
        assert_eq!(a, b);
        let mut c = to_examples(samples.iter(), &tk, 1.0);
        shuffle_examples(&mut c, 6);
        assert_ne!(a, c, "different seeds permute differently");
    }
}
