//! Dataset → training-example conversion.

use pyranet_exec::Fnv64;
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

/// Converts curated samples into training examples with a uniform loss
/// `weight`.
pub fn to_examples<'s, I>(samples: I, tk: &Tokenizer, weight: f32) -> Vec<TrainExample>
where
    I: IntoIterator<Item = &'s CuratedSample>,
{
    samples
        .into_iter()
        .map(|s| {
            let prompt = prompt_text(&s.description, &s.source);
            let (ids, code_start) = tk.encode_pair(&prompt, &s.source);
            TrainExample { ids, code_start, weight }
        })
        .collect()
}

/// Memoizes tokenized `(ids, code_start)` pairs so the same sample
/// re-encoded across recipes, phases, or epochs is tokenized exactly once
/// (tokenizing re-parses the Verilog source for the interface line, which
/// dominates example construction).
///
/// Entries are keyed by sample id **and** a content hash of the
/// (description, source) pair, so datasets with permuted labels (e.g. the
/// erroneous-dataset ablation) never collide with their clean originals.
/// Interior locking lets `&self` contexts (e.g. an experiment driver)
/// share one cache across recipe runs.
///
/// One cache must only ever be used with one tokenizer.
#[derive(Debug, Default)]
pub struct ExampleCache {
    entries: parking_lot::Mutex<CacheMap>,
}

/// (sample id, content hash) → cached `(ids, code_start)` encoding.
type CacheMap = std::collections::HashMap<(u64, u64), (Vec<usize>, usize)>;

impl ExampleCache {
    /// An empty cache.
    pub fn new() -> ExampleCache {
        ExampleCache::default()
    }

    /// Number of cached encodings.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    fn key(s: &CuratedSample) -> (u64, u64) {
        // FNV-1a over the text pair; combined with the id this makes
        // collisions across label-permuted variants practically impossible.
        let mut h = Fnv64::new();
        h.write(s.description.as_bytes());
        h.write(&[0]);
        h.write(s.source.as_bytes());
        (s.id, h.finish())
    }

    /// The training example for `s` at loss `weight`, encoding on miss.
    pub fn example(&self, s: &CuratedSample, tk: &Tokenizer, weight: f32) -> TrainExample {
        let key = Self::key(s);
        if let Some((ids, code_start)) = self.entries.lock().get(&key).cloned() {
            return TrainExample { ids, code_start, weight };
        }
        let prompt = prompt_text(&s.description, &s.source);
        let (ids, code_start) = tk.encode_pair(&prompt, &s.source);
        self.entries.lock().insert(key, (ids.clone(), code_start));
        TrainExample { ids, code_start, weight }
    }
}

impl Clone for ExampleCache {
    fn clone(&self) -> Self {
        ExampleCache { entries: parking_lot::Mutex::new(self.entries.lock().clone()) }
    }
}

/// [`to_examples`] through an [`ExampleCache`]: identical output, but
/// repeated conversions of the same samples skip re-encoding.
pub fn to_examples_cached<'s, I>(
    samples: I,
    tk: &Tokenizer,
    weight: f32,
    cache: &ExampleCache,
) -> Vec<TrainExample>
where
    I: IntoIterator<Item = &'s CuratedSample>,
{
    samples.into_iter().map(|s| cache.example(s, tk, weight)).collect()
}

/// Streams a sharded dataset export (see `pyranet_pipeline::persist`)
/// shard by shard, converting each shard's samples into training examples
/// as it goes. At most one shard's samples are alive at a time, so a
/// dataset far larger than memory can feed training as long as its
/// *examples* fit — the ceiling drops from "whole corpus as JSONL +
/// parsed samples + examples" to "examples + one shard".
///
/// Each shard is checksum-verified on read; corruption aborts the load
/// with the offending file named rather than training on damaged data.
///
/// # Errors
///
/// Manifest/shard I/O failures and integrity mismatches.
pub fn to_examples_from_shards(
    dir: &std::path::Path,
    tk: &Tokenizer,
    weight: f32,
) -> std::io::Result<Vec<TrainExample>> {
    let mut stream = pyranet_pipeline::ShardStream::open(dir)?;
    let mut out = Vec::with_capacity(stream.manifest().total_samples as usize);
    while let Some(shard) = stream.next_shard() {
        out.extend(to_examples(shard?.iter(), tk, weight));
    }
    Ok(out)
}

/// [`to_examples_from_shards`] through an [`ExampleCache`]: identical
/// output, shard-at-a-time memory, re-encoding skipped on cache hits.
///
/// # Errors
///
/// Manifest/shard I/O failures and integrity mismatches.
pub fn to_examples_from_shards_cached(
    dir: &std::path::Path,
    tk: &Tokenizer,
    weight: f32,
    cache: &ExampleCache,
) -> std::io::Result<Vec<TrainExample>> {
    let mut stream = pyranet_pipeline::ShardStream::open(dir)?;
    let mut out = Vec::with_capacity(stream.manifest().total_samples as usize);
    while let Some(shard) = stream.next_shard() {
        out.extend(to_examples_cached(shard?.iter(), tk, weight, cache));
    }
    Ok(out)
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
    fn cached_examples_match_uncached_and_encode_once() {
        let samples: Vec<CuratedSample> = (0..6).map(sample).collect();
        let tk = build_tokenizer(samples.iter());
        let cache = ExampleCache::new();
        let direct = to_examples(samples.iter(), &tk, 0.6);
        let cached = to_examples_cached(samples.iter(), &tk, 0.6, &cache);
        assert_eq!(direct, cached);
        assert_eq!(cache.len(), 6);
        // Re-converting at another weight reuses every entry and only
        // restamps the weight.
        let reweighted = to_examples_cached(samples.iter(), &tk, 1.0, &cache);
        assert_eq!(cache.len(), 6, "no new encodings on the second pass");
        assert_eq!(reweighted[0].ids, direct[0].ids);
        assert!((reweighted[0].weight - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cache_distinguishes_permuted_labels() {
        let samples: Vec<CuratedSample> = (0..2).map(sample).collect();
        let tk = build_tokenizer(samples.iter());
        let cache = ExampleCache::new();
        let _ = to_examples_cached(samples.iter(), &tk, 1.0, &cache);
        let mut swapped = samples.clone();
        let d0 = swapped[0].description.clone();
        swapped[0].description = swapped[1].description.clone();
        swapped[1].description = d0;
        let from_cache = to_examples_cached(swapped.iter(), &tk, 1.0, &cache);
        let direct = to_examples(swapped.iter(), &tk, 1.0);
        assert_eq!(from_cache, direct, "permuted labels must not hit stale entries");
        assert_eq!(cache.len(), 4, "swapped pairs are distinct cache entries");
    }

    #[test]
    fn sharded_streaming_matches_materialized_examples() {
        use pyranet_pipeline::{PyraNetDataset, ShardSpec};
        let samples: Vec<CuratedSample> = (0..25).map(sample).collect();
        let ds: PyraNetDataset = samples.iter().cloned().collect();
        let tk = build_tokenizer(samples.iter());
        let dir = std::env::temp_dir().join(format!("pyranet-train-shards-{}", std::process::id()));
        ds.to_shards(&dir, ShardSpec::MaxSamples(7), &pyranet_exec::ExecConfig::new()).unwrap();
        let direct = to_examples(samples.iter(), &tk, 0.8);
        let streamed = to_examples_from_shards(&dir, &tk, 0.8).unwrap();
        assert_eq!(direct, streamed);
        let cache = ExampleCache::new();
        let streamed_cached = to_examples_from_shards_cached(&dir, &tk, 0.8, &cache).unwrap();
        assert_eq!(direct, streamed_cached);
        assert_eq!(cache.len(), samples.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_streaming_propagates_integrity_failures() {
        use pyranet_pipeline::{PyraNetDataset, ShardSpec};
        let samples: Vec<CuratedSample> = (0..10).map(sample).collect();
        let ds: PyraNetDataset = samples.iter().cloned().collect();
        let tk = build_tokenizer(samples.iter());
        let dir =
            std::env::temp_dir().join(format!("pyranet-train-badshards-{}", std::process::id()));
        let manifest =
            ds.to_shards(&dir, ShardSpec::MaxSamples(4), &pyranet_exec::ExecConfig::new()).unwrap();
        let victim = dir.join(&manifest.shards[1].file);
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[0] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();
        let err = to_examples_from_shards(&dir, &tk, 1.0).unwrap_err();
        assert!(err.to_string().contains(&manifest.shards[1].file), "{err}");
        std::fs::remove_dir_all(&dir).ok();
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
