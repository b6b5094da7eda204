//! Incremental-rebuild benchmark: cold vs warm vs 1%-mutated pipeline
//! runs against the stage-4 verdict store, written to
//! `BENCH_cache.json`.
//!
//! The cache contract (tests/incremental_cache.rs) says the store is
//! invisible in the output; this binary measures what the store costs or
//! saves against no store at all, and re-checks the byte-identity claims
//! on the benchmarked corpus: cold, warm, and mutated-then-reverted runs,
//! and warm runs at 1/2/8 threads (`warm/threads=<n>`), must all produce
//! the FNV digest of the `uncached` run. Every row records its digest as
//! a label and its `cache.*` counter deltas as counts; speedups are over
//! `uncached` (auto threads), except that each `warm/threads=<n>` row's is
//! over an `uncached/threads=<n>` row timed at the same thread count. At
//! every scale the counts are asserted against stage 4's
//! inputs, the only samples whose verdicts the store holds: a cold build
//! has 0 hits and one miss and one write per input, a warm build one hit
//! per input and no miss, and the mutated build writes what it misses.

use pyranet::corpus::{CorpusBuilder, RawSample};
use pyranet::pipeline::persist::{fnv1a64, format_checksum};
use pyranet::pipeline::{Funnel, Pipeline};
use pyranet_bench::{best_of, Counters, Report, Row, Scale};
use std::path::Path;

/// Repeats per scenario; the fastest wall time is reported.
const REPEATS: usize = 15;
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
    /// The curation funnel.
    funnel: Funnel,
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
        (Counters::read("cache.").since(&before), outcome)
    });
    let (counts, outcome) = run.out;
    let digest = digest(&outcome.dataset);
    let row = Row::new(name, run.secs, pool.len() as u64, "files")
        .counts(&counts)
        .label("digest", &digest)
        .baseline("uncached");
    Scenario { row, counts, digest, funnel: outcome.funnel }
}

/// Stage 4's inputs: the samples whose verdicts the store holds.
fn stage4_inputs(funnel: &Funnel) -> u64 {
    (funnel.curated + funnel.rejected_syntax + funnel.rejected_sim) as u64
}

/// Asserts a warm run's counts: one hit per stage-4 input, no miss.
fn assert_all_hits(name: &str, counts: &Counters, inputs: u64) {
    assert_eq!(counts.get("cache.misses"), 0, "{name}: a warm run must not miss");
    assert_eq!(counts.get("cache.hits"), inputs, "{name}: one hit per stage-4 input");
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy target");
    for entry in std::fs::read_dir(from).expect("read copy source") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("copy store file");
        }
    }
}

/// Prepends a comment to ~1% of the pool — enough to dirty the mutated
/// samples' verdicts while everything else stays cache-hot.
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

    // The uncached run every cached run of the same pool must reproduce,
    // and the baseline every cached run is measured against.
    let uncached = scenario("uncached", &pool, None, 0, || {});
    let reference = uncached.digest.clone();
    let inputs = stage4_inputs(&uncached.funnel);
    let uncached = report.push(uncached.row);
    eprintln!("uncached: {:.0} files/s; {inputs} stage-4 input(s)", uncached.per_sec());

    // Cold: every repeat starts from an empty store.
    let cold = scenario("cold", &pool, Some(&store), 0, || clear(&store));
    assert_eq!(cold.digest, reference, "cold run must be byte-identical to uncached");
    assert_eq!(cold.counts.get("cache.hits"), 0, "a cold run must not hit");
    assert_eq!(cold.counts.get("cache.misses"), inputs, "cold: one miss per stage-4 input");
    assert_eq!(cold.counts.get("cache.writes"), inputs, "cold: one write per stage-4 input");
    let cold_speedup = report.push(cold.row).speedup().unwrap_or(0.0);
    eprintln!("cold: {cold_speedup:.2}x uncached");

    // Golden store: one full populate pass, reused read-only below.
    clear(&store);
    Pipeline::new().cache_dir(store.clone()).run(pool.clone());
    copy_dir(&store, &golden);

    // Warm: repeats against the populated store (pure hits, no writes).
    let warm = scenario("warm", &pool, Some(&store), 0, || {});
    assert_eq!(warm.digest, reference, "warm run must be byte-identical to uncached");
    assert_all_hits("warm", &warm.counts, inputs);
    let warm_speedup = report.push(warm.row).speedup().unwrap_or(0.0);
    eprintln!("warm: {warm_speedup:.2}x uncached");

    // Mutated: ~1% of samples edited; each repeat reseeds from the
    // golden store so the mutated verdicts are never pre-warmed.
    let mutated = scenario("mutated", &mutated_pool, Some(&scratch), 0, || {
        clear(&scratch);
        copy_dir(&golden, &scratch);
    });
    let mutated_cold_digest = digest(&Pipeline::new().run(mutated_pool.clone()).dataset);
    assert_eq!(mutated.digest, mutated_cold_digest, "mutated run must match its own cold run");
    let (writes, misses) = (mutated.counts.get("cache.writes"), mutated.counts.get("cache.misses"));
    assert!(writes == misses && misses > 0, "mutated: {writes} write(s) for {misses} miss(es)");
    let mutated_speedup = report.push(mutated.row).speedup().unwrap_or(0.0);
    eprintln!("mutated ({mutated_samples} sample(s)): {mutated_speedup:.2}x uncached");

    // Mutated-then-reverted: the scratch store has now seen both
    // generations; running the original pool again must reproduce the
    // reference digest from the surviving original records.
    let reverted = scenario("mutated_then_reverted", &pool, Some(&scratch), 0, || {});
    assert_eq!(reverted.digest, reference, "reverted run must be byte-identical to the reference");
    assert_all_hits("mutated_then_reverted", &reverted.counts, inputs);
    let reverted = report.push(reverted.row);
    eprintln!("reverted: {:.2}x uncached", reverted.speedup().unwrap_or(0.0));

    // Thread sweep: at 1/2/8 threads, an uncached run and a warm run
    // measured against it; digests and warm counts all match.
    for threads in THREAD_SWEEP {
        let base = format!("uncached/threads={threads}");
        let uncached = scenario(&base, &pool, None, threads, || {});
        assert_eq!(uncached.digest, reference, "{base}: uncached digest drifted");
        report.push(uncached.row);
        let name = format!("warm/threads={threads}");
        let warm = scenario(&name, &pool, Some(&store), threads, || {});
        assert_eq!(warm.digest, reference, "{name}: warm digest drifted");
        assert_all_hits(&name, &warm.counts, inputs);
        report.push(warm.row.baseline(base));
    }
    eprintln!("thread sweep {THREAD_SWEEP:?}: digests and counts identical");

    clear(&root);
    report.write();
}
