//! `perfbench` — the PyraNet reproduction's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload curate|score|train-eval-serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every run sets up its inputs from the
//! seed (nine times; `setup_s` is the median), then runs five phases on
//! one worker thread — curate, score, train, eval, serve — checking every
//! output against its known answer. The last line of standard output is
//! the result: end-to-end metrics from an untraced run (`--trace 0`),
//! per-layer metrics from a traced one (`--trace 1`). A full report, and
//! for traced runs a Chrome trace, land under `.perfbench/`. See
//! `perfbench/README.md`.

mod bench;
mod config;
mod curate;
mod model;
mod report;
mod score;
mod trace;

use bench::{median, percentile, Checks};
use config::{
    Workload, BURSTS_PER_ROUND, OPEN_LOOPS_PER_ROUND, PROBE_REF_S, SETUP_REPEATS, SLICES_PER_PROBE,
    TRAIN_PER_ROUND, WORKERS,
};
use serde::Content;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: config::DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0|1)")),
                }
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(args)
}

/// A scratch directory under `.perfbench/` for one run, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Everything one run measured.
#[derive(Default)]
struct Outcome {
    checks: Checks,
    /// End-to-end metric values (untraced) or per-layer values (traced).
    metrics: BTreeMap<&'static str, f64>,
    /// End-to-end metrics of an untraced run before the probe scaling.
    raw_metrics: BTreeMap<&'static str, f64>,
    /// Raw per-repeat samples behind the end-to-end metrics.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Output digests: curated dataset, score verdicts, eval, serve.
    digests: [u64; 4],
    /// Ids of `SyntaxBroken`-labelled pool samples that are in fact
    /// complete modules, which curation rightly keeps (a corpus defect).
    mislabeled: Vec<u64>,
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = config::workloads().into_iter().find(|w| w.name == args.workload) else {
        eprintln!(
            "perfbench: unknown --workload `{}` (curate|score|train-eval-serve)",
            args.workload
        );
        return ExitCode::from(2);
    };
    // One worker everywhere: every threads knob is set explicitly, and
    // this covers any path that resolves "auto".
    std::env::set_var("PYRANET_THREADS", WORKERS.to_string());

    let root = PathBuf::from(".perfbench");
    let work = WorkDir(root.join(format!("work-{}-{}", w.name, std::process::id())));
    let tr = Tracer::new(args.trace);
    let out = run(&w, &args, started, &work.0, &tr);
    drop(work);

    let pinned =
        if args.seed == config::DEFAULT_SEED { config::pinned_digests(w.name) } else { None };
    let mut checks = out.checks;
    if let Some(pins) = pinned {
        for (k, (got, want)) in out.digests.iter().zip(pins).enumerate() {
            checks.check(*got == want, || {
                format!("output digest {k}: {got:016x} != pinned {want:016x}")
            });
        }
    }
    for note in &checks.notes {
        eprintln!("perfbench: FAILED {note}");
    }
    if !out.mislabeled.is_empty() {
        eprintln!(
            "perfbench: corpus defect (not a failure): `SyntaxBroken` sample(s) {:?} are complete \
             modules cut in a trailing comment; curation keeps them, as it should",
            out.mislabeled
        );
    }

    let as_seq = |v: &[f64]| Content::Seq(v.iter().map(|x| Content::F64(*x)).collect());
    let as_map = |m: &BTreeMap<&str, f64>| {
        Content::Map(m.iter().map(|(k, v)| ((*k).to_owned(), Content::F64(*v))).collect())
    };
    let provenance = report::provenance();
    let report = Content::Map(vec![
        ("workload".into(), Content::Str(w.name.into())),
        ("seed".into(), Content::U64(args.seed)),
        ("held_out_seed".into(), Content::U64(config::HELD_OUT_SEED)),
        ("seconds".into(), Content::F64(args.seconds)),
        ("trace".into(), Content::Bool(args.trace)),
        ("workers".into(), Content::U64(WORKERS as u64)),
        ("config".into(), Content::Str(config::describe(&w))),
        ("provenance".into(), provenance.clone()),
        (
            "digests".into(),
            Content::Seq(out.digests.iter().map(|d| Content::Str(format!("{d:016x}"))).collect()),
        ),
        ("digests_pinned".into(), Content::Bool(pinned.is_some())),
        (
            "syntax_mislabels_kept".into(),
            Content::Seq(out.mislabeled.iter().map(|id| Content::U64(*id)).collect()),
        ),
        (
            "samples".into(),
            Content::Map(out.samples.iter().map(|(k, v)| ((*k).to_owned(), as_seq(v))).collect()),
        ),
        ("metrics".into(), as_map(&out.metrics)),
        ("raw_metrics".into(), as_map(&out.raw_metrics)),
        ("spans".into(), span_table(&tr)),
        (
            "failures".into(),
            Content::Seq(checks.notes.iter().map(|n| Content::Str(n.clone())).collect()),
        ),
    ]);
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let path = root.join("results").join(format!("{stem}.json"));
    write_file(&path, serde_json::to_string(&report).expect("report serializes").as_bytes());
    println!("provenance: {}", serde_json::to_string(&provenance).expect("provenance serializes"));
    println!("report: {}", path.display());
    let (table, names): (String, Vec<(&str, &str)>) = if args.trace {
        let trace = root.join("traces").join(format!("{stem}.json"));
        write_file(&trace, tr.to_chrome_json(w.name).as_bytes());
        println!("trace: {}", trace.display());
        (
            report::layer_table(&out.metrics),
            report::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
        )
    } else {
        (
            report::end_to_end_table(&out.metrics),
            report::END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
        )
    };
    print!("{table}");
    let metrics: Vec<(&str, &str, f64)> = names
        .into_iter()
        .map(|(n, u)| (n, u, out.metrics.get(n).copied().unwrap_or(0.0)))
        .collect();
    println!(
        "{}",
        report::result_line(checks.failed == 0, checks.attempted, checks.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Total time, self time and count per span name (empty when untraced).
fn span_table(tr: &Tracer) -> Content {
    let rows = tr.rollup().into_iter().map(|(name, r)| {
        let row = [("total_s", r.total), ("self_s", r.self_time), ("count", r.count as f64)];
        (name.to_owned(), Content::Map(row.map(|(k, v)| (k.to_owned(), Content::F64(v))).to_vec()))
    });
    Content::Map(rows.collect())
}

fn write_file(path: &Path, bytes: &[u8]) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, bytes));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// One phase's measured values (times in seconds, or latencies in ms),
/// one per repeat, each with the time of the probe around it: the mean of
/// a [`bench::probe`] right before and one right after the repeat.
#[derive(Default)]
struct Probed {
    values: Vec<f64>,
    probe_s: Vec<f64>,
}

impl Probed {
    fn push(&mut self, value: f64, probe_s: f64) {
        self.values.push(value);
        self.probe_s.push(probe_s);
    }

    /// Records a repeat made of parts, each timed between its own probes:
    /// its probe time is the one that scales the parts' total as scaling
    /// each part by its own probe would.
    fn push_parts(&mut self, parts: &[(f64, f64)]) {
        let total: f64 = parts.iter().map(|(v, _)| v).sum();
        let at_probe: f64 = parts.iter().map(|(v, p)| v / p).sum();
        self.push(total, total / at_probe);
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    /// Median of the values scaled to the reference host speed: a value
    /// measured while the probe took `p` counts as `value * PROBE_REF_S / p`.
    fn time(&self) -> f64 {
        let scaled: Vec<f64> =
            self.values.iter().zip(&self.probe_s).map(|(v, p)| v * PROBE_REF_S / p).collect();
        median(&scaled)
    }

    /// Median of `work / value` scaled to the reference host speed.
    fn rate(&self, work: f64) -> f64 {
        let scaled: Vec<f64> = self
            .values
            .iter()
            .zip(&self.probe_s)
            .map(|(v, p)| work / v * p / PROBE_REF_S)
            .collect();
        median(&scaled)
    }

    /// Median of the values as measured.
    fn raw_time(&self) -> f64 {
        median(&self.values)
    }

    /// Median of `work / value` as measured.
    fn raw_rate(&self, work: f64) -> f64 {
        median(&self.values.iter().map(|v| work / v).collect::<Vec<_>>())
    }
}

/// Runs `f` between two probes; returns its result and the probes' mean
/// time.
fn probed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = bench::probe();
    let out = f();
    (out, (before + bench::probe()) / 2.0)
}

/// What the phases measured, gathered across rounds.
#[derive(Default)]
struct Collected {
    setup: Probed,
    cold_s: f64,
    cold_counts: [u64; 3],
    curate: Probed,
    pass_counts: curate::PassCounts,
    rebuild: Probed,
    warm_counts: [u64; 3],
    score: [Probed; 2],
    score_out: [score::PassOutput; 2],
    train: Probed,
    train_counts: model::TrainCounts,
    eval: Probed,
    eval_counts: model::EvalCounts,
    burst: Probed,
    /// Prompt tokens of the request stream a burst replays.
    prompt_tokens: u64,
    burst_tokens: u64,
    burst_steps: u64,
    prefix_hit_ratio: f64,
    /// Open-loop latencies of every request of every pass, ms.
    latency_ms: Vec<f64>,
    /// Median and 75th-percentile latency of each open-loop pass, ms.
    open_p50_ms: Probed,
    open_p75_ms: Probed,
    open: model::OpenLoop,
    /// Untraced single-run phase times and the matching traced medians.
    baseline_s: f64,
    traced_s: f64,
}

/// Set-up, one cold cached build, one training run, then rounds of the
/// repeating phases until `--seconds` have passed. Rounds interleave the
/// phases so that a slow spell on a shared host lands on a few repeats of
/// every phase rather than on all repeats of one. Under tracing, each
/// phase first runs once untraced: the baseline for tracing overhead and
/// the reference the recomposed calls must reproduce.
fn run(w: &Workload, args: &Args, started: Instant, work: &Path, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let checks = &mut out.checks;
    let off = Tracer::new(false);
    let mut c = Collected::default();

    let mut inputs = None;
    for k in 0..SETUP_REPEATS {
        drop(inputs.take());
        let before = bench::probe();
        let t0 = if k == 0 { started } else { Instant::now() };
        let cur = curate::setup(args.seed, w, &work.join(format!("setup-{k}")), tr);
        let sc = score::setup(args.seed, w, tr);
        let models = model::setup(args.seed, cur.dataset.clone(), tr);
        let secs = t0.elapsed().as_secs_f64();
        c.setup.push(secs, (before + bench::probe()) / 2.0);
        inputs = Some((cur, sc, models));
    }
    let (cur, sc, models) = inputs.expect("at least one set-up");
    out.mislabeled = cur.mislabeled_kept();
    let timed = Instant::now();

    // The cold cached build writes thousands of small files into the
    // checkout; its time swings with the disk, so it runs once, outside
    // set-up and outside every end-to-end metric.
    (c.cold_s, c.cold_counts) = cur.cold_build(tr, checks);

    // Every SFT run starts from the same weights and must end at the same
    // ones; eval and serve use them. Untraced, this first run is a sample
    // like the per-round ones.
    let ((lm, secs, counts), probe_s) = probed(|| models.train(&off, checks));
    if tr.on() {
        c.baseline_s += secs;
    } else {
        c.train.push(secs, probe_s);
        c.train_counts = counts;
    }

    // References every repeat must reproduce; under tracing they come
    // from the untraced baseline run.
    let mut score_ref: [Option<String>; 2] = Default::default();
    let (mut eval_ref, mut burst_ref) = (None, None);
    if tr.on() {
        c.baseline_s += cur.uncached_pass(&off, checks).0 + cur.warm_rebuild(&off, checks).0;
        for k in [score::STIMULUS, score::EQUIVALENCE] {
            let (secs, pass) = sc.pass(k, &off, checks);
            c.baseline_s += secs;
            score_ref[k] = Some(pass.rendered);
        }
        let (parts, results, _) = models.eval(&lm, &off);
        c.baseline_s += parts.iter().map(|(secs, _)| secs).sum::<f64>();
        eval_ref = Some(results);
        let burst = models.burst(&lm, &off);
        c.baseline_s += burst.secs;
        burst_ref = Some(burst.by_id);
    }

    let n_req = models.requests.len();
    c.prompt_tokens = models.prompt_tokens;
    let mix = &w.mix;
    let mut round = 0;
    while round < config::MIN_ROUNDS || timed.elapsed().as_secs_f64() < args.seconds {
        round += 1;
        for _ in 0..TRAIN_PER_ROUND {
            let ((trained, secs, counts), probe_s) = probed(|| models.train(tr, checks));
            c.train.push(secs, probe_s);
            c.train_counts = counts;
            checks.check(trained == lm, || "SFT repeat trained different weights".into());
        }
        for _ in 0..mix.curate {
            let ((secs, counts), probe_s) = probed(|| cur.uncached_pass(tr, checks));
            c.curate.push(secs, probe_s);
            c.pass_counts = counts;
        }
        for _ in 0..mix.rebuild {
            let ((secs, delta), probe_s) = probed(|| cur.warm_rebuild(tr, checks));
            c.rebuild.push(secs, probe_s);
            c.warm_counts = delta;
        }
        for (k, reps) in [(score::STIMULUS, mix.stimulus), (score::EQUIVALENCE, mix.equivalence)] {
            for _ in 0..reps {
                let ((secs, pass), probe_s) = probed(|| sc.pass(k, tr, checks));
                c.score[k].push(secs, probe_s);
                let first = score_ref[k].get_or_insert_with(|| pass.rendered.clone());
                checks.check(*first == pass.rendered, || {
                    format!("score pass {k} changed its verdicts")
                });
                c.score_out[k] = pass;
            }
        }
        for _ in 0..mix.eval {
            let (parts, results, counts) = models.eval(&lm, tr);
            c.eval.push_parts(&parts);
            c.eval_counts = counts;
            let first = eval_ref.get_or_insert_with(|| results.clone());
            checks.check(*first == results, || "eval results changed between repeats".into());
        }
        for _ in 0..BURSTS_PER_ROUND {
            let (b, probe_s) = probed(|| models.burst(&lm, tr));
            c.burst.push(b.secs, probe_s);
            (c.burst_tokens, c.burst_steps, c.prefix_hit_ratio) =
                (b.tokens, b.steps, b.prefix_hit_ratio);
            let served = b.by_id.len();
            checks.check(served == n_req, || format!("burst served {served} of {n_req}"));
            let first = burst_ref.get_or_insert_with(|| b.by_id.clone());
            checks.check(*first == b.by_id, || "burst completions changed between repeats".into());
        }
        for _ in 0..OPEN_LOOPS_PER_ROUND {
            let (open, edge_probe_s) = probed(|| models.open_loop(&lm, tr));
            // The slices run while idle sample the host's speed across the
            // whole pass; the probes at its ends only at its edges.
            let probe_s =
                if open.slice_s > 0.0 { open.slice_s * SLICES_PER_PROBE } else { edge_probe_s };
            let by_id = model::completions(&open.responses);
            let burst = burst_ref.as_ref().expect("burst runs before the open loop");
            for (i, latency) in open.latency_ms.iter().enumerate() {
                let id = &models.requests[i].id;
                checks.check(latency.is_finite() && by_id.get(id) == burst.get(id), || {
                    format!("open loop: request {id} refused, unfinished or not byte-identical to burst")
                });
            }
            c.latency_ms.extend_from_slice(&open.latency_ms);
            c.open_p50_ms.push(percentile(&open.latency_ms, 50.0), probe_s);
            c.open_p75_ms.push(percentile(&open.latency_ms, 75.0), probe_s);
            c.open = open;
        }
    }
    c.traced_s = [&c.curate, &c.rebuild, &c.score[0], &c.score[1], &c.train, &c.eval, &c.burst]
        .iter()
        .map(|p| p.raw_time())
        .sum();

    let eval_ref = eval_ref.expect("eval ran");
    let burst_ref = burst_ref.expect("burst ran");
    out.digests = [
        cur.digest,
        bench::digest(format!("{score_ref:?}").as_bytes()),
        model::eval_digest(&eval_ref),
        model::serve_digest(&burst_ref),
    ];
    for (name, probe_name, p) in [
        ("setup_s", "setup_probe_s", &c.setup),
        ("curate_s", "curate_probe_s", &c.curate),
        ("rebuild_s", "rebuild_probe_s", &c.rebuild),
        ("stimulus_s", "stimulus_probe_s", &c.score[0]),
        ("equivalence_s", "equivalence_probe_s", &c.score[1]),
        ("train_s", "train_probe_s", &c.train),
        ("eval_s", "eval_probe_s", &c.eval),
        ("burst_s", "burst_probe_s", &c.burst),
        ("open_loop_p50_ms", "open_loop_probe_s", &c.open_p50_ms),
        ("open_loop_p75_ms", "open_loop_probe_s", &c.open_p75_ms),
    ] {
        out.samples.insert(name, p.values.clone());
        out.samples.insert(probe_name, p.probe_s.clone());
    }
    out.samples.insert("open_loop_latency_ms", c.latency_ms.clone());
    out.samples.insert("cold_build_s", vec![c.cold_s]);

    if tr.on() {
        cur.signature_pass(tr);
        models.forward_pass(&lm, tr);
        for phase in PHASES {
            let covered = tr.min_coverage(phase);
            checks
                .check(covered >= 0.95, || format!("{phase}: named spans cover only {covered:.3}"));
        }
        out.metrics = layer_metrics(&c, tr);
        out.metrics.insert("corpus.syntax_mislabels", out.mislabeled.len() as f64);
    } else {
        out.metrics = end_to_end(&c, cur.pool.len(), sc.len(), true);
        out.raw_metrics = end_to_end(&c, cur.pool.len(), sc.len(), false);
    }
    out
}

/// Span names of the timed phases; named child spans must cover ≥95% of
/// each.
const PHASES: [&str; 8] = [
    "phase.curate",
    "phase.rebuild",
    "phase.stimulus",
    "phase.equivalence",
    "phase.train",
    "phase.eval",
    "phase.burst",
    "phase.open_loop",
];

/// End-to-end metrics of an untraced run: medians over repeats, scaled to
/// the reference host speed by each repeat's probe (`scaled`) or as
/// measured.
fn end_to_end(
    c: &Collected,
    files: usize,
    cands: usize,
    scaled: bool,
) -> BTreeMap<&'static str, f64> {
    let time = |p: &Probed| if scaled { p.time() } else { p.raw_time() };
    let rate = |p: &Probed, work: u64| {
        if scaled {
            p.rate(work as f64)
        } else {
            p.raw_rate(work as f64)
        }
    };
    BTreeMap::from([
        ("setup_s", time(&c.setup)),
        ("peak_rss_mb", bench::peak_rss_mb()),
        ("curate_files_per_s", rate(&c.curate, files as u64)),
        ("rebuild_files_per_s", rate(&c.rebuild, files as u64)),
        ("score_checks_per_s", rate(&c.score[0], cands as u64)),
        ("equiv_checks_per_s", rate(&c.score[1], cands as u64)),
        ("train_tokens_per_s", rate(&c.train, c.train_counts.tokens)),
        (
            "eval_tokens_per_s",
            rate(&c.eval, c.eval_counts.prefill_tokens + c.eval_counts.decode_tokens),
        ),
        ("serve_tokens_per_s", rate(&c.burst, c.prompt_tokens + c.burst_tokens)),
        ("serve_p50_ms", time(&c.open_p50_ms)),
        ("serve_p75_ms", time(&c.open_p75_ms)),
    ])
}

/// Per-layer metrics of a traced run. Times are per repeat of the phase
/// that runs them (per set-up for set-up work); counts are per repeat.
fn layer_metrics(c: &Collected, tr: &Tracer) -> BTreeMap<&'static str, f64> {
    let r = tr.rollup();
    let total = |name: &str| r.get(name).map_or(0.0, |x| x.total);
    let per = |name: &str, reps: usize| total(name) / reps.max(1) as f64;
    let (curates, equivs) = (c.curate.len(), c.score[1].len());
    let p = &c.pass_counts;
    let dedup_s = per("pipeline.dedup", curates);
    let signature_s = total("pipeline.dedup.signature");
    let trains = c.train.len();
    let step_s = per("model.train_step", trains);
    let forward_s = total("model.forward");
    // Cache counters over the cold build plus one warm rebuild.
    let [hits, misses, writes] = [0, 1, 2].map(|i| (c.cold_counts[i] + c.warm_counts[i]) as f64);
    // Sim counts and times over one stimulus pass plus one equivalence pass.
    let sim = |f: fn(&pyranet::eval::testbench::SimStats) -> u64| {
        (f(&c.score_out[0].stats) + f(&c.score_out[1].stats)) as f64
    };
    let sim_s = |f: fn(&pyranet::eval::testbench::SimStats) -> std::time::Duration| {
        (f(&c.score_out[0].stats) + f(&c.score_out[1].stats)).as_secs_f64()
    };
    let verdicts = |i: usize| (c.score_out[0].verdicts[i] + c.score_out[1].verdicts[i]) as f64;
    let e = &c.eval_counts;
    let o = &c.open;
    let opens = c.latency_ms.len() / o.latency_ms.len().max(1);
    BTreeMap::from([
        (
            "corpus.build_s",
            per("corpus.build", SETUP_REPEATS) + per("corpus.candidates", SETUP_REPEATS),
        ),
        (
            "pipeline.filter_s",
            per("pipeline.filter_broken", curates) + per("pipeline.filter_no_module", curates),
        ),
        ("pipeline.filter.rejected", p.filter_rejected as f64),
        ("pipeline.dedup_s", dedup_s),
        ("pipeline.dedup.signature_s", signature_s),
        ("pipeline.dedup.join_s", (dedup_s - signature_s).max(0.0)),
        ("pipeline.dedup.survivor_ratio", p.dedup_out as f64 / p.dedup_in.max(1) as f64),
        ("pipeline.syntax_rank_s", per("pipeline.syntax_rank", curates)),
        ("verilog.parse_s", per("verilog.parse", curates)),
        ("verilog.check_s", per("verilog.check", curates)),
        ("pipeline.rank_s", per("pipeline.rank", curates)),
        ("verilog.complexity_s", per("verilog.complexity", curates)),
        ("pipeline.syntax.rejected", p.syntax_rejected as f64),
        ("pipeline.persist.export_s", per("pipeline.persist.export", curates)),
        ("pipeline.persist.import_s", per("pipeline.persist.import", curates)),
        ("pipeline.persist.bytes", p.shard_bytes as f64),
        ("cache.cold_build_s", c.cold_s),
        ("cache.warm_build_s", per("cache.warm_build", c.rebuild.len())),
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.writes", writes),
        ("cache.hit_ratio", hits / (hits + misses).max(1.0)),
        ("eval.prepare_s", per("eval.prepare", c.score[0].len() + equivs)),
        ("eval.check_s", per("eval.check", c.score[0].len())),
        ("eval.equiv_check_s", per("eval.equiv_check", equivs)),
        ("verilog.sim_compile_s", sim_s(|s| s.compile_time)),
        ("verilog.sim_run_s", sim_s(|s| s.run_time)),
        ("sim.vectors", sim(|s| s.vectors)),
        ("sim.programs", sim(|s| s.programs)),
        ("sim.exhaustive_checks", sim(|s| s.exhaustive_checks)),
        ("sim.fallback_checks", sim(|s| s.fallback_checks)),
        ("eval.verdict.pass", verdicts(0)),
        ("eval.verdict.build_failure", verdicts(1)),
        ("eval.verdict.interface_mismatch", verdicts(2)),
        ("eval.verdict.mismatch", verdicts(3)),
        ("eval.verdict.runtime_failure", verdicts(4)),
        ("train.tokenize_s", per("train.tokenize", trains)),
        ("model.train_step_s", step_s),
        ("model.forward_s", forward_s),
        ("model.backward_opt_s", (step_s - forward_s).max(0.0)),
        ("train.steps", c.train_counts.steps as f64),
        ("train.tokens", c.train_counts.tokens as f64),
        ("model.session_build_s", per("model.session_build", c.eval.len())),
        ("model.prefill_s", per("model.prefill", c.eval.len())),
        ("model.prefill_tokens", e.prefill_tokens as f64),
        ("model.decode_s", per("model.decode", c.eval.len())),
        ("model.decode_tokens", e.decode_tokens as f64),
        ("eval.harness.check_s", per("eval.harness.check", c.eval.len())),
        ("eval.syntax_valid_ratio", e.syntax_valid as f64 / e.samples.max(1) as f64),
        ("eval.verdict_cache_hits", e.verdict_cache_hits as f64),
        ("serve.tokenize_s", per("serve.tokenize", c.burst.len() + opens)),
        ("serve.pump_s", per("serve.pump", c.burst.len())),
        ("serve.steps", c.burst_steps as f64),
        ("serve.batch_occupancy", o.occupancy),
        ("serve.queue_depth", o.queue_depth),
        ("serve.prefix_cache.hit_ratio", c.prefix_hit_ratio),
        ("serve.rejected", o.refused as f64),
        ("serve.late_ms", percentile(&o.late_ms, 90.0)),
        ("trace.overhead_ratio", c.traced_s / c.baseline_s - 1.0),
        ("trace.coverage_min", PHASES.iter().map(|p| tr.min_coverage(p)).fold(1.0, f64::min)),
    ])
}
