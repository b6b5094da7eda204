//! Incremental-rebuild benchmark: cold vs warm vs 1%-mutated pipeline
//! runs against a content-addressed artifact cache, written to
//! `BENCH_cache.json`.
//!
//! The cache contract (tests/incremental_cache.rs) says the store is
//! invisible in the output; this binary measures how much wall time it
//! saves and re-checks the byte-identity claims on the benchmarked
//! corpus: cold, warm, and mutated-then-reverted runs, and warm runs at
//! 1/2/8 threads (`warm/threads=<n>`), must all produce the FNV digest of
//! the `uncached` run. Every row records its digest as a label and its
//! `cache.*` counter deltas as counts; speedups are over `cold`. At Full
//! scale (`PYRANET_SCALE` unset) the warm/mutated speedups are asserted:
//! warm >= 5x cold, mutated >= 3x cold.

use pyranet::corpus::{CorpusBuilder, RawSample};
use pyranet::pipeline::persist::{fnv1a64, format_checksum};
use pyranet::pipeline::Pipeline;
use pyranet_bench::{best_of, Counters, Report, Row, Scale};
use std::path::Path;

/// Repeats per scenario; the fastest wall time is reported.
const REPEATS: usize = 3;
/// Thread counts the digest identity is re-checked at.
const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

fn digest(ds: &pyranet::PyraNetDataset) -> String {
    let mut buf = Vec::new();
    ds.to_jsonl(&mut buf).expect("serialize dataset");
    format_checksum(fnv1a64(&buf))
}

/// One timed scenario.
struct Scenario {
    /// Its report row, labelled with the digest.
    row: Row,
    /// The fastest repeat's `cache.*` counter deltas.
    counts: Counters,
    /// FNV digest of the curated dataset's JSONL bytes.
    digest: String,
}

/// Times curation of `pool` at `threads` (0 = auto) against the `cache`
/// store (`None`: uncached), running `prepare` untimed before every
/// repeat so no repeat benefits from a previous repeat's writes.
fn scenario(
    name: &str,
    pool: &[RawSample],
    cache: Option<&Path>,
    threads: usize,
    mut prepare: impl FnMut(),
) -> Scenario {
    let run = best_of(REPEATS, |clock| {
        prepare();
        let mut pipeline = Pipeline::new().threads(threads);
        if let Some(dir) = cache {
            pipeline = pipeline.cache_dir(dir.to_path_buf());
        }
        let before = Counters::read("cache.");
        let outcome = clock.time(|| pipeline.run(pool.to_vec()));
        (Counters::read("cache.").since(&before), outcome.dataset)
    });
    let (counts, ds) = run.out;
    let digest = digest(&ds);
    let row = Row::new(name, run.secs, pool.len() as u64, "files")
        .counts(&counts)
        .label("digest", &digest);
    Scenario { row, counts, digest }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy target");
    for entry in std::fs::read_dir(from).expect("read copy source") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy artifact");
        }
    }
}

/// Prepends a comment to ~1% of the pool — enough to dirty the mutated
/// samples' artifacts while everything else stays cache-hot.
fn mutate_one_percent(pool: &[RawSample]) -> (Vec<RawSample>, usize) {
    let step = pool.len().min(100);
    let mut mutated = pool.to_vec();
    let mut count = 0;
    for (i, sample) in mutated.iter_mut().enumerate() {
        if step > 0 && i % step == 0 {
            sample.source = format!("// benchmark mutation\n{}", sample.source);
            count += 1;
        }
    }
    (mutated, count)
}

fn main() {
    let scale = Scale::from_env();
    let opts = scale.build_options();
    let pool = CorpusBuilder::new(opts.seed)
        .scraped_files(opts.scraped_files)
        .llm_generation(false)
        .build()
        .samples;
    let n = pool.len();
    eprintln!("pool: {n} files; {REPEATS} repeats per scenario, fastest wins");
    let (mutated_pool, mutated_samples) = mutate_one_percent(&pool);
    let mut report = Report::new("cache", scale, REPEATS);
    report.param("pool_files", n).param("mutated_samples", mutated_samples);

    let root = std::env::temp_dir().join(format!("pyranet-bench-cache-{}", std::process::id()));
    let store = root.join("store");
    let golden = root.join("golden");
    let scratch = root.join("scratch");
    let clear = |dir: &Path| {
        std::fs::remove_dir_all(dir).ok();
    };

    // The uncached run every cached run of the same pool must reproduce.
    let uncached = scenario("uncached", &pool, None, 0, || {});
    let reference = uncached.digest.clone();
    report.push(uncached.row);

    // Cold: every repeat starts from an empty store.
    let cold = scenario("cold", &pool, Some(&store), 0, || clear(&store));
    assert_eq!(cold.digest, reference, "cold run must be byte-identical to uncached");
    let cold = report.push(cold.row.baseline("cold"));
    eprintln!("cold: {:.0} files/s", cold.per_sec());

    // Golden store: one full populate pass, reused read-only below.
    clear(&store);
    Pipeline::new().cache_dir(store.clone()).run(pool.clone());
    copy_dir(&store, &golden);

    // Warm: repeats against the populated store (pure hits, no writes).
    let warm = scenario("warm", &pool, Some(&store), 0, || {});
    assert_eq!(warm.digest, reference, "warm run must be byte-identical to uncached");
    assert_eq!(warm.counts.get("cache.misses"), 0, "warm run must not miss");
    let warm_speedup = report.push(warm.row.baseline("cold")).speedup().unwrap_or(0.0);
    eprintln!("warm: {warm_speedup:.1}x cold");

    // Mutated: ~1% of samples edited; each repeat reseeds from the
    // golden store so the mutated artifacts are never pre-warmed.
    let mutated = scenario("mutated", &mutated_pool, Some(&scratch), 0, || {
        clear(&scratch);
        copy_dir(&golden, &scratch);
    });
    let mutated_cold_digest = digest(&Pipeline::new().run(mutated_pool.clone()).dataset);
    assert_eq!(mutated.digest, mutated_cold_digest, "mutated run must match its own cold run");
    let mutated_speedup = report.push(mutated.row.baseline("cold")).speedup().unwrap_or(0.0);
    eprintln!("mutated ({mutated_samples} sample(s)): {mutated_speedup:.1}x cold");

    // Mutated-then-reverted: the scratch store has now seen both
    // generations; running the original pool again must reproduce the
    // reference digest from the surviving original artifacts.
    let reverted = scenario("mutated_then_reverted", &pool, Some(&scratch), 0, || {});
    assert_eq!(reverted.digest, reference, "reverted run must be byte-identical to the reference");
    let reverted = report.push(reverted.row.baseline("cold"));
    eprintln!("reverted: {:.1}x cold", reverted.speedup().unwrap_or(0.0));

    // Thread sweep: warm digests at 1/2/8 threads all match.
    for threads in THREAD_SWEEP {
        let warm =
            scenario(&format!("warm/threads={threads}"), &pool, Some(&store), threads, || {});
        assert_eq!(warm.digest, reference, "threads={threads}: warm digest drifted");
        report.push(warm.row.baseline("cold"));
    }
    eprintln!("thread sweep {THREAD_SWEEP:?}: digests identical");

    if matches!(scale, Scale::Full) {
        assert!(warm_speedup >= 5.0, "warm rebuild must be >=5x cold (got {warm_speedup:.2}x)");
        assert!(
            mutated_speedup >= 3.0,
            "1%-mutated rebuild must be >=3x cold (got {mutated_speedup:.2}x)"
        );
    }

    clear(&root);
    report.write();
}
