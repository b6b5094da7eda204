//! Incremental ≡ from-scratch: the curation cache must be invisible in
//! the output. A warm `cache_dir` rebuild — after any corpus mutation, at
//! any thread count — produces a byte-identical curated dataset to a
//! cold, uncached run; a damaged store degrades to recompute, never to a
//! wrong verdict.

use proptest::prelude::*;
use pyranet::corpus::{CorpusBuilder, RawSample};
use pyranet::pipeline::persist::{fnv1a64, format_checksum};
use pyranet::pipeline::Pipeline;
use pyranet_exec::Fnv64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};
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

/// The cache dir's one store file: its path and bytes.
fn store_file(cache: &Path) -> (PathBuf, Vec<u8>) {
    let files: Vec<PathBuf> = std::fs::read_dir(cache)
        .expect("cache dir")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "records"))
        .collect();
    assert_eq!(files.len(), 1, "one store file: {files:?}");
    let bytes = std::fs::read(&files[0]).expect("read store");
    (files[0].clone(), bytes)
}

/// Counts a store's records by walking their headers: `<checksum>
/// <payload bytes> <source bytes>`, then the payload and the source, each
/// on its own line.
fn record_count(mut bytes: &[u8]) -> usize {
    let mut records = 0;
    while !bytes.is_empty() {
        let eol = bytes.iter().position(|&b| b == b'\n').expect("header line");
        let header = std::str::from_utf8(&bytes[..eol]).expect("ASCII header");
        let lens: Vec<usize> =
            header.split(' ').skip(1).map(|f| f.parse().expect("length")).collect();
        bytes = &bytes[eol + lens[0] + lens[1] + 3..];
        records += 1;
    }
    records
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
    // A handful of real samples keeps a sweep over every byte affordable.
    let base: Vec<RawSample> = pool(47, 150).into_iter().take(6).collect();
    let reference = Pipeline::new().run(base.clone());
    let want = dataset_digest(&reference.dataset);
    let cache = temp_dir("corrupt");
    let build = || Pipeline::new().cache_dir(cache.clone()).run(base.clone());
    assert_eq!(dataset_digest(&build().dataset), want, "populate");
    let (path, good) = store_file(&cache);
    let stored = record_count(&good);
    assert!(stored >= 2, "the store must hold records after a populate run");

    // Flip every byte (header, lengths, payload and source alike), then
    // separately cut the store at every byte. Each damaged store must
    // build the reference bytes, and the build after that recompute must
    // be all hits, which leaves the store as it found it.
    let flips = (0..good.len()).map(|pos| {
        let mut bytes = good.clone();
        bytes[pos] ^= 0x11;
        (format!("byte {pos} flipped"), bytes)
    });
    let cuts = (0..good.len()).map(|keep| (format!("cut at {keep}"), good[..keep].to_vec()));
    for (what, damaged) in flips.chain(cuts) {
        std::fs::write(&path, &damaged).expect("damage the store");
        let outcome = build();
        assert_eq!(dataset_digest(&outcome.dataset), want, "{what}: wrong output");
        assert_eq!(outcome.funnel, reference.funnel, "{what}");
        let healed = std::fs::read(&path).expect("read store");
        assert_eq!(record_count(&healed), stored, "{what}: healed store");
        assert_eq!(dataset_digest(&build().dataset), want, "{what}: rebuild");
        assert_eq!(std::fs::read(&path).expect("read store"), healed, "{what}: rebuild missed");
    }
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
fn cold_store_holds_one_record_per_stage_4_input_at_any_thread_count() {
    // Only stage 4 reaches the store, and dedup survivors all differ in
    // content, so a cold build writes one record per stage-4 input, in
    // input order at any thread count. A warm rebuild is all hits and
    // writes nothing.
    let base = pool(59, 220);
    let mut stores = Vec::new();
    for threads in THREAD_COUNTS {
        let cache = temp_dir("records");
        let build = || Pipeline::new().threads(threads).cache_dir(cache.clone()).run(base.clone());
        let f = build().funnel;
        let (path, cold) = store_file(&cache);
        let inputs = f.curated + f.rejected_syntax + f.rejected_sim;
        assert_eq!(record_count(&cold), inputs, "threads {threads}");
        build();
        assert_eq!(
            std::fs::read(&path).expect("read store"),
            cold,
            "threads {threads}: warm wrote"
        );
        stores.push(cold);
        std::fs::remove_dir_all(&cache).ok();
    }
    assert!(stores.windows(2).all(|w| w[0] == w[1]), "store bytes depend on the thread count");
}

/// Writes one verdict entry the way the per-verdict object store did:
/// a JSON header with the key and the payload checksum, the payload line,
/// then the source, at `objects/<hh>/<object id>.art`.
fn object_store_entry(cache: &Path, source: &str, payload: &str) {
    let hex = |v: u64| format!("{v:016x}");
    let (content, config) = (fnv1a64(source.as_bytes()), 0xaade_f66b_657c_4379);
    let mut id = Fnv64::new();
    id.write(b"syntax_rank");
    id.write_u64(content);
    id.write_u64(config);
    let id = hex(id.finish());
    let header = format!(
        r#"{{"stage":"syntax_rank","content":"{}","config":"{}","checksum":"{}"}}"#,
        hex(content),
        hex(config),
        hex(fnv1a64(payload.as_bytes()))
    );
    let bucket = cache.join("objects").join(&id[..2]);
    std::fs::create_dir_all(&bucket).expect("bucket");
    std::fs::write(bucket.join(format!("{id}.art")), format!("{header}\n{payload}\n{source}"))
        .expect("write object");
}

#[test]
fn a_cache_dir_left_by_the_object_store_builds_cold() {
    // The earlier layout — one object per verdict under `objects/<hh>/`,
    // crash residue in `tmp/` — is ignored, even where its entries claim
    // that every curated sample failed its syntax check: the build equals
    // the uncached one and stores exactly what a cold build into an empty
    // dir stores.
    let base = pool(61, 120);
    let reference = Pipeline::new().run(base.clone());
    let empty = temp_dir("empty");
    Pipeline::new().cache_dir(empty.clone()).run(base.clone());
    let (_, cold) = store_file(&empty);

    let old = temp_dir("object-store");
    for sample in reference.dataset.iter() {
        object_store_entry(&old, &sample.source, "\"Syntax\"");
    }
    std::fs::create_dir_all(old.join("tmp")).expect("tmp dir");
    std::fs::write(old.join("tmp").join("4242-0-00000000000000af"), b"partial").expect("residue");
    let outcome = Pipeline::new().cache_dir(old.clone()).run(base.clone());
    assert_eq!(dataset_digest(&outcome.dataset), dataset_digest(&reference.dataset));
    assert_eq!(outcome.funnel, reference.funnel);
    assert_eq!(store_file(&old).1, cold, "the build must miss and store like a cold one");
    for dir in [empty, old] {
        std::fs::remove_dir_all(&dir).ok();
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
