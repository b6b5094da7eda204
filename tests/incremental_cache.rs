//! Incremental ≡ from-scratch: the content-addressed curation cache must
//! be invisible in the output. A warm `cache_dir` rebuild — after any
//! corpus mutation, at any thread count — produces a byte-identical
//! curated dataset to a cold, uncached run; corrupted artifacts degrade
//! to recompute, never to a wrong verdict.

use proptest::prelude::*;
use pyranet::corpus::{CorpusBuilder, RawSample};
use pyranet::pipeline::persist::{fnv1a64, format_checksum};
use pyranet::pipeline::Pipeline;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("pyranet-inc-{tag}-{}-{n}", std::process::id()))
}

/// FNV digest of the dataset's serialized JSONL bytes — the byte-identity
/// witness used throughout.
fn dataset_digest(ds: &pyranet::PyraNetDataset) -> String {
    let mut buf = Vec::new();
    ds.to_jsonl(&mut buf).expect("serialize dataset");
    format_checksum(fnv1a64(&buf))
}

/// A synthetic scraped pool (no LLM generation, for speed).
fn pool(seed: u64, files: usize) -> Vec<RawSample> {
    CorpusBuilder::new(seed).scraped_files(files).llm_generation(false).build().samples
}

/// Applies `mutations` random edits to the pool: source tweaks (comment
/// prepends, whitespace, body edits) that change content hashes without
/// any coordination with the cache.
fn mutate(pool: &mut [RawSample], seed: u64, mutations: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..mutations {
        if pool.is_empty() {
            return;
        }
        let victim = &mut pool[rng.random_range(0..pool.len())];
        match rng.random_range(0..4u32) {
            0 => victim.source = format!("// edited\n{}", victim.source),
            1 => victim.source.push_str("\n// trailing note\n"),
            2 => victim.source = victim.source.replace("assign", "assign "),
            _ => victim.source = String::new(), // now empty/broken
        }
    }
}

#[test]
fn warm_rebuild_is_byte_identical_to_cold_across_mutations_and_threads() {
    let base = pool(41, 260);
    let mut mutated = base.clone();
    mutate(&mut mutated, 7, base.len() / 20);

    for generation in [&base, &mutated] {
        // Reference: cold, uncached run.
        let reference = Pipeline::new().run(generation.clone());
        let want = dataset_digest(&reference.dataset);
        let cache = temp_dir("warm");
        for pass in 0..2 {
            // pass 0 populates the store, pass 1 is fully warm.
            for threads in THREAD_COUNTS {
                let outcome = Pipeline::new()
                    .threads(threads)
                    .cache_dir(cache.clone())
                    .run(generation.clone());
                assert_eq!(
                    dataset_digest(&outcome.dataset),
                    want,
                    "pass {pass}, threads {threads}: cached output drifted"
                );
                assert_eq!(outcome.funnel, reference.funnel, "pass {pass}, threads {threads}");
            }
        }
        std::fs::remove_dir_all(&cache).ok();
    }
}

#[test]
fn mutated_then_reverted_corpus_reuses_the_original_artifacts() {
    let base = pool(43, 200);
    let cache = temp_dir("revert");
    let reference = Pipeline::new().run(base.clone());
    let want = dataset_digest(&reference.dataset);

    // Populate, mutate, then revert: the third run must match the first
    // byte-for-byte — the mutated generation's artifacts are unreachable
    // under the original content hashes.
    let run = |p: &Vec<RawSample>| Pipeline::new().cache_dir(cache.clone()).run(p.clone());
    assert_eq!(dataset_digest(&run(&base).dataset), want, "populate");
    let mut mutated = base.clone();
    mutate(&mut mutated, 11, 9);
    let mutated_outcome = run(&mutated);
    assert_eq!(
        dataset_digest(&mutated_outcome.dataset),
        dataset_digest(&Pipeline::new().run(mutated.clone()).dataset),
        "mutated cached run must match mutated cold run"
    );
    assert_eq!(dataset_digest(&run(&base).dataset), want, "reverted");
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn corrupted_artifacts_degrade_to_recompute_never_a_wrong_verdict() {
    let base = pool(47, 150);
    let cache = temp_dir("corrupt");
    let reference = Pipeline::new().run(base.clone());
    let want = dataset_digest(&reference.dataset);
    assert_eq!(
        dataset_digest(&Pipeline::new().cache_dir(cache.clone()).run(base.clone()).dataset),
        want,
        "populate"
    );

    // Flip one byte in every stored artifact (header and payload lines
    // alike, position varies per file).
    let objects = cache.join("objects");
    let mut corrupted = 0usize;
    for bucket in std::fs::read_dir(&objects).expect("objects dir") {
        for entry in std::fs::read_dir(bucket.expect("bucket").path()).expect("bucket dir") {
            let path = entry.expect("entry").path();
            let mut bytes = std::fs::read(&path).expect("read artifact");
            let pos = (fnv1a64(path.as_os_str().as_encoded_bytes()) as usize) % bytes.len();
            bytes[pos] ^= 0x11;
            std::fs::write(&path, &bytes).expect("rewrite artifact");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "the store must hold artifacts after a populate run");

    // Every lookup now fails verification; the build recomputes and still
    // produces the reference bytes — and heals the store for a third run.
    let outcome = Pipeline::new().cache_dir(cache.clone()).run(base.clone());
    assert_eq!(dataset_digest(&outcome.dataset), want, "corrupted store must recompute");
    assert_eq!(outcome.funnel, reference.funnel);
    let healed = Pipeline::new().cache_dir(cache.clone()).run(base.clone());
    assert_eq!(dataset_digest(&healed.dataset), want, "store heals after recompute");
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn knob_changes_produce_the_same_output_as_uncached_runs() {
    // Changing the jaccard threshold between warm runs must re-run only
    // the join — and still match the uncached outcome for the new
    // threshold exactly.
    let base = pool(53, 180);
    let cache = temp_dir("knob");
    for threshold in [0.85, 0.7, 0.85] {
        let cached =
            Pipeline::new().jaccard_threshold(threshold).cache_dir(cache.clone()).run(base.clone());
        let cold = Pipeline::new().jaccard_threshold(threshold).run(base.clone());
        assert_eq!(
            dataset_digest(&cached.dataset),
            dataset_digest(&cold.dataset),
            "threshold {threshold}"
        );
        assert_eq!(cached.funnel, cold.funnel, "threshold {threshold}");
    }
    std::fs::remove_dir_all(&cache).ok();
}

#[test]
fn a_cold_build_stores_one_object_per_stage_4_input_at_any_thread_count() {
    // Only stage 4 reaches the store, and dedup survivors all differ in
    // content, so a cold build publishes one object per stage-4 input and
    // no thread count can make two workers race on one key.
    let base = pool(59, 220);
    for threads in THREAD_COUNTS {
        let cache = temp_dir("objects");
        let outcome = Pipeline::new().threads(threads).cache_dir(cache.clone()).run(base.clone());
        let f = &outcome.funnel;
        let objects: usize = std::fs::read_dir(cache.join("objects"))
            .expect("objects dir")
            .map(|bucket| {
                std::fs::read_dir(bucket.expect("bucket").path()).expect("bucket").count()
            })
            .sum();
        assert_eq!(objects, f.curated + f.rejected_syntax + f.rejected_sim, "threads {threads}");
        std::fs::remove_dir_all(&cache).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For a random corpus and a random mutation set, a warm `cache_dir`
    /// rebuild produces a byte-identical dataset (FNV digest) to a cold
    /// run, at 1/2/8 threads.
    #[test]
    fn prop_warm_rebuild_matches_cold(
        seed in 0u64..1_000,
        files in 60usize..160,
        mutation_seed in 0u64..1_000,
        mutations in 0usize..12,
    ) {
        let mut corpus = pool(seed, files);
        let cache = temp_dir("prop");
        // Populate from the unmutated corpus, then mutate: the warm run
        // sees a mix of hits (unchanged samples) and misses (edited ones).
        Pipeline::new().cache_dir(cache.clone()).run(corpus.clone());
        mutate(&mut corpus, mutation_seed, mutations);
        let want = dataset_digest(&Pipeline::new().run(corpus.clone()).dataset);
        for threads in THREAD_COUNTS {
            let outcome = Pipeline::new()
                .threads(threads)
                .cache_dir(cache.clone())
                .run(corpus.clone());
            prop_assert_eq!(
                dataset_digest(&outcome.dataset),
                want.clone(),
                "threads {}", threads
            );
        }
        std::fs::remove_dir_all(&cache).ok();
    }
}
