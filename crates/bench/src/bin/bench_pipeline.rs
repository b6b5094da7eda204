//! Curation-throughput benchmark: runs the pipeline at 1/2/4/8 worker
//! threads over the same pool and writes `BENCH_pipeline.json`: one
//! `curation/threads=<n>` row per sweep point, its four stages as
//! `curation/threads=<n>/<stage>` rows, and the sharded export/import
//! round trip as `persist/export` and `persist/import`.
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
use pyranet_bench::{best_of, Report, Row, Scale, Secs};

/// Runs per measurement; the fastest is reported.
const REPEATS: usize = 3;
/// Thread counts swept.
const SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Curation stages, in run order.
const STAGES: [&str; 4] = ["broken", "no_module", "dedup", "syntax_rank"];

/// Seconds each stage's span has recorded so far in this process, in run
/// order.
fn stage_seconds() -> [f64; 4] {
    let snap = pyranet::obs::global().snapshot();
    STAGES.map(|name| match snap.get(&format!("pipeline.stage.{name}.seconds")) {
        Some(SnapshotValue::Histogram { sum, .. }) => *sum,
        _ => 0.0,
    })
}

/// Times the sharded export/import round trip (fixed-size shards, auto
/// threads) over the curated dataset.
fn bench_persist(report: &mut Report, ds: &PyraNetDataset) {
    let exec = pyranet_exec::ExecConfig::new();
    let shard_size = (ds.len() / 8).max(1);
    let dir = std::env::temp_dir().join(format!("pyranet-bench-persist-{}", std::process::id()));
    let export = best_of(REPEATS, |clock| {
        clock
            .time(|| ds.to_shards(&dir, ShardSpec::MaxSamples(shard_size), &exec))
            .expect("sharded export")
    });
    let manifest = &export.out;
    let import = best_of(REPEATS, |clock| {
        let back = clock.time(|| PyraNetDataset::from_shards(&dir, &exec).expect("sharded import"));
        assert_eq!(&back, ds, "round trip must be lossless");
    });
    std::fs::remove_dir_all(&dir).ok();
    let bytes: u64 = manifest.shards.iter().map(|s| s.bytes).sum();
    let samples = ds.len() as u64;
    let export = report.push(
        Row::new("persist/export", export.secs, samples, "samples")
            .count("shards", manifest.shards.len() as u64)
            .count("shard_size", shard_size as u64)
            .count("bytes", bytes),
    );
    eprintln!(
        "persist: {samples} samples -> {} shard(s), {bytes} bytes; export {:.0}/s",
        manifest.shards.len(),
        export.per_sec()
    );
    let import = report.push(Row::new("persist/import", import.secs, samples, "samples"));
    eprintln!("persist: import {:.0}/s", import.per_sec());
}

fn main() {
    let scale = Scale::from_env();
    let opts = scale.build_options();
    let pool = CorpusBuilder::new(opts.seed)
        .scraped_files(opts.scraped_files)
        .llm_generation(false)
        .build();
    let n = pool.samples.len();
    eprintln!("pool: {n} files; sweeping {SWEEP:?} threads, {REPEATS} repeats each");
    let mut report = Report::new("pipeline", scale, REPEATS);
    report.param("pool_files", n).param("threads", SWEEP.to_vec());

    for threads in SWEEP {
        let mut stage_secs: Vec<[f64; 4]> = Vec::new();
        let run = best_of(REPEATS, |clock| {
            let pipeline = Pipeline::new().threads(threads);
            let samples = pool.samples.clone();
            let before = stage_seconds();
            let outcome = clock.time(|| pipeline.run(samples));
            let after = stage_seconds();
            stage_secs.push(std::array::from_fn(|i| after[i] - before[i]));
            outcome.funnel
        });
        let funnel = run.out;
        // Each stage's input count follows the funnel.
        let no_module_in = funnel.collected - funnel.rejected_broken;
        let dedup_in = no_module_in - funnel.rejected_no_module;
        let syntax_in = dedup_in - funnel.rejected_duplicates;
        let stage_in = [funnel.collected, no_module_in, dedup_in, syntax_in];

        let name = format!("curation/threads={threads}");
        let base = format!("curation/threads={}", SWEEP[0]);
        let row = report
            .push(Row::new(&name, run.secs, funnel.collected as u64, "samples").baseline(&base));
        eprintln!(
            "threads={threads}: {:.3}s curation ({:.2}x vs 1 thread)",
            run.secs.fastest,
            row.speedup().unwrap_or(1.0)
        );
        for (i, stage) in STAGES.iter().enumerate() {
            let secs = Secs::of(&stage_secs.iter().map(|s| s[i]).collect::<Vec<_>>());
            report.push(
                Row::new(format!("{name}/{stage}"), secs, stage_in[i] as u64, "samples")
                    .baseline(format!("{base}/{stage}")),
            );
        }
    }

    bench_persist(&mut report, &Pipeline::new().run(pool.samples.clone()).dataset);
    report.write();
}
