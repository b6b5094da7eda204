//! Curation-throughput benchmark: runs the pipeline at 1/2/4/8 worker
//! threads over the same pool and writes `BENCH_pipeline.json` with
//! per-stage wall time and samples/sec.
//!
//! The determinism contract (tests/determinism.rs) guarantees every run in
//! the sweep produces the same dataset; this binary only measures time,
//! reading each stage's seconds off its `pipeline.stage.<name>` span.
//! Speedup numbers are relative to the 1-thread run **on the current
//! host** — on a single-core machine every point of the sweep is
//! expected to be ~1.0×.

use pyranet::corpus::CorpusBuilder;
use pyranet::obs::SnapshotValue;
use pyranet::pipeline::{Pipeline, PyraNetDataset, ShardSpec};
use pyranet_bench::Scale;
use serde::Serialize;

/// Runs per thread count; the fastest curation time is reported.
const REPEATS: usize = 3;
/// Thread counts swept.
const SWEEP: [usize; 4] = [1, 2, 4, 8];

#[derive(Serialize)]
struct StageReport {
    /// Wall seconds in the stage (fastest repeat).
    secs: f64,
    /// Samples entering the stage.
    samples_in: u64,
    /// Throughput through the stage.
    samples_per_sec: f64,
}

#[derive(Serialize)]
struct RunReport {
    threads: u64,
    broken: StageReport,
    no_module: StageReport,
    dedup: StageReport,
    syntax_rank: StageReport,
    /// Total curation wall seconds (all four stages).
    curation_secs: f64,
    /// Curation speedup versus the 1-thread run.
    speedup_vs_one_thread: f64,
}

#[derive(Serialize)]
struct PersistReport {
    /// Shards written (fixed-size policy).
    shards: u64,
    /// Samples per shard requested.
    shard_size: u64,
    /// Total shard bytes on disk.
    bytes: u64,
    /// Sharded export wall seconds (fastest repeat; flush-checked writes).
    export_secs: f64,
    /// Export throughput.
    export_samples_per_sec: f64,
    /// Sharded import wall seconds (fastest repeat; checksum-verified).
    import_secs: f64,
    /// Import throughput.
    import_samples_per_sec: f64,
}

#[derive(Serialize)]
struct BenchReport {
    /// `std::thread::available_parallelism()` on the benchmarking host.
    host_parallelism: u64,
    /// Files in the benchmarked pool.
    pool_files: u64,
    /// Repeats per thread count (fastest wins).
    repeats: u64,
    runs: Vec<RunReport>,
    /// Sharded export/import throughput over the curated dataset.
    persist: PersistReport,
}

fn stage(secs: f64, samples_in: usize) -> StageReport {
    StageReport {
        secs,
        samples_in: samples_in as u64,
        samples_per_sec: if secs > 0.0 { samples_in as f64 / secs } else { 0.0 },
    }
}

/// Seconds each stage's span has recorded so far in this process, in run
/// order.
fn stage_seconds() -> [f64; 4] {
    let snap = pyranet::obs::global().snapshot();
    let stages = ["broken", "no_module", "dedup", "syntax_rank"];
    stages.map(|name| match snap.get(&format!("pipeline.stage.{name}.seconds")) {
        Some(SnapshotValue::Histogram { sum, .. }) => *sum,
        _ => 0.0,
    })
}

/// Times the sharded export/import round trip (fixed-size shards, auto
/// threads) over the curated dataset; fastest of [`REPEATS`] wins.
fn bench_persist(ds: &PyraNetDataset) -> PersistReport {
    let exec = pyranet_exec::ExecConfig::new();
    let shard_size = (ds.len() / 8).max(1);
    let dir = std::env::temp_dir().join(format!("pyranet-bench-persist-{}", std::process::id()));
    let mut export_secs = f64::INFINITY;
    let mut import_secs = f64::INFINITY;
    let mut shards = 0u64;
    let mut bytes = 0u64;
    for _ in 0..REPEATS {
        let t = std::time::Instant::now();
        let manifest =
            ds.to_shards(&dir, ShardSpec::MaxSamples(shard_size), &exec).expect("sharded export");
        export_secs = export_secs.min(t.elapsed().as_secs_f64());
        shards = manifest.shards.len() as u64;
        bytes = manifest.shards.iter().map(|s| s.bytes).sum();

        let t = std::time::Instant::now();
        let back = PyraNetDataset::from_shards(&dir, &exec).expect("sharded import");
        import_secs = import_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(&back, ds, "round trip must be lossless");
    }
    std::fs::remove_dir_all(&dir).ok();
    let rate = |secs: f64| if secs > 0.0 { ds.len() as f64 / secs } else { 0.0 };
    eprintln!(
        "persist: {} samples -> {shards} shard(s), {bytes} bytes; \
         export {export_secs:.3}s ({:.0}/s), import {import_secs:.3}s ({:.0}/s)",
        ds.len(),
        rate(export_secs),
        rate(import_secs)
    );
    PersistReport {
        shards,
        shard_size: shard_size as u64,
        bytes,
        export_secs,
        export_samples_per_sec: rate(export_secs),
        import_secs,
        import_samples_per_sec: rate(import_secs),
    }
}

fn main() {
    let opts = Scale::from_env().build_options();
    let pool = CorpusBuilder::new(opts.seed)
        .scraped_files(opts.scraped_files)
        .llm_generation(false)
        .build();
    let n = pool.samples.len();
    eprintln!("pool: {n} files; sweeping {SWEEP:?} threads, {REPEATS} repeats each");

    let mut base_curation = 0.0f64;
    let mut runs = Vec::new();
    for threads in SWEEP {
        let mut best: Option<([f64; 4], f64, pyranet::Funnel)> = None;
        for _ in 0..REPEATS {
            let pipeline = Pipeline::new().threads(threads);
            let before = stage_seconds();
            let outcome = pipeline.run(pool.samples.clone());
            let after = stage_seconds();
            let timings: [f64; 4] = std::array::from_fn(|i| after[i] - before[i]);
            let secs = timings.iter().sum();
            if best.as_ref().is_none_or(|(_, b, _)| secs < *b) {
                best = Some((timings, secs, outcome.funnel));
            }
        }
        let (timings, secs, funnel) = best.expect("at least one repeat");
        if threads == 1 {
            base_curation = secs;
        }
        // Each stage's input count follows the funnel.
        let no_module_in = funnel.collected - funnel.rejected_broken;
        let dedup_in = no_module_in - funnel.rejected_no_module;
        let syntax_in = dedup_in - funnel.rejected_duplicates;
        runs.push(RunReport {
            threads: threads as u64,
            broken: stage(timings[0], funnel.collected),
            no_module: stage(timings[1], no_module_in),
            dedup: stage(timings[2], dedup_in),
            syntax_rank: stage(timings[3], syntax_in),
            curation_secs: secs,
            speedup_vs_one_thread: if secs > 0.0 { base_curation / secs } else { 1.0 },
        });
        eprintln!(
            "threads={threads}: {:.3}s curation ({:.2}x vs 1 thread)",
            secs,
            if secs > 0.0 { base_curation / secs } else { 1.0 }
        );
    }

    let persist = bench_persist(&Pipeline::new().run(pool.samples.clone()).dataset);

    let report = BenchReport {
        host_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
        pool_files: n as u64,
        repeats: REPEATS as u64,
        runs,
        persist,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("{json}");
    eprintln!("wrote BENCH_pipeline.json");
}
