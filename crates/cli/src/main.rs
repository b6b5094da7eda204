//! `pyranet` — command-line front end for the PyraNet reproduction.
//!
//! Subcommands mirror the curation pipeline's stages so each can be run on
//! real files, and add training, pass@k evaluation and serving on top; the
//! full synopsis is [`USAGE`] (`pyranet help`).

use pyranet::model::{KernelMode, ModelConfig, Tokenizer, TransformerLm};
use pyranet::pipeline::rank::{rank_sample, render_response};
use pyranet::pipeline::ShardSpec;
use pyranet::train::{
    build_tokenizer, export_repair_jsonl, repair_pairs, RepairTrainer, SftTrainer,
};
use pyranet::verilog::lint::lint_module;
use pyranet::verilog::metrics::{measure, ComplexityTier};
use pyranet::verilog::{check_source, parse_module, SimDesign, SimMode, SyntaxVerdict};
use pyranet::{BuildOptions, Layer, PyraNetBuilder, PyraNetDataset, TrainConfig};
use std::fmt::Display;
use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = run(&args);
    if let Err(e) = &result {
        eprintln!("pyranet: {e}");
    }
    ExitCode::from(exit_status(&result))
}

/// Runs one subcommand.
fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("rank") => cmd_rank(&args[1..]),
        Some("complexity") => cmd_complexity(&args[1..]),
        Some("sim") => cmd_sim(&args[1..]),
        Some("build-dataset") => cmd_build(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}` (try `pyranet help`)")),
    }
}

/// The process exit status for a subcommand's result: 2 for any error.
fn exit_status(result: &Result<(), String>) -> u8 {
    if result.is_ok() {
        0
    } else {
        2
    }
}

/// The synopsis `pyranet help` prints.
const USAGE: &str = "pyranet — PyraNet dataset toolchain\n\n\
     USAGE:\n  pyranet check <file.v>\n  pyranet rank <file.v>\n  \
     pyranet complexity <file.v>\n  pyranet sim <file.v> <top> [name=value]... [--clock clk] [--cycles N]\n  \
    \x20            [--backend compiled|reference]\n  \
     pyranet build-dataset [--files N] [--seed S] [--threads T] [--out dataset.jsonl]\n  \
    \x20                     [--out-dir shards/] [--shard-size N] [--sim-check [compiled|reference]]\n  \
    \x20                     [--cache-dir DIR]\n  \
     pyranet stats <dataset.jsonl | shard-dir | manifest.json>\n  \
     pyranet train [--files N] [--seed S] [--threads T] [--batch-size B] [--epochs E] [--max-examples M]\n  \
    \x20            [--kernel reference|blocked|int8] [--recipe sft|repair]\n  \
    \x20            [--repair-out FILE.jsonl]\n  \
     pyranet eval [--split machine|human|both] [--samples N] [--max-new-tokens N]\n  \
    \x20            [--threads T] [--seed S] [--kernel reference|blocked|int8]\n  \
    \x20            [--sim compiled|reference] [--check stimulus|equivalence]\n  \
    \x20            [--max-eq-inputs N<=20] [--files N] [--epochs E] [--json OUT]\n  \
     pyranet serve --requests FILE.jsonl [--out FILE.jsonl] [--max-batch N]\n  \
    \x20            [--queue-depth N] [--prefix-cache N] [--seed S] [--threads T]\n  \
    \x20            [--kernel reference|blocked|int8] [--files N] [--epochs E]\n  \
    \x20            [--shuffle-arrival S]\n\n\
     build-dataset, train, eval, and serve also accept:\n  \
     --metrics OUT.json   write a JSON snapshot of all recorded metrics\n  \
     --verbose            print a human-readable metrics summary";

/// One subcommand's arguments, read flag by flag. Every error names the
/// flag it is about.
struct Flags<'a> {
    args: std::iter::Peekable<std::slice::Iter<'a, String>>,
    /// The argument [`Flags::next_arg`] returned last.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags { args: args.iter().peekable(), flag: "" }
    }

    /// The next argument: a flag, whose value the helpers below read, or
    /// a positional argument.
    fn next_arg(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<String, String> {
        self.args.next().cloned().ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The current flag's value, parsed: a number, a kernel family, a
    /// backend.
    fn parse<T: FromStr<Err: Display>>(&mut self) -> Result<T, String> {
        let value = self.value()?;
        value.parse().map_err(|e| format!("bad {} `{value}`: {e}", self.flag))
    }

    /// The current flag's value as a worker-thread count (0 = auto), at
    /// most [`pyranet_exec::MAX_THREADS`].
    fn threads(&mut self) -> Result<usize, String> {
        let threads = self.parse()?;
        if threads > pyranet_exec::MAX_THREADS {
            return Err(format!(
                "bad {} `{threads}`: at most {} threads",
                self.flag,
                pyranet_exec::MAX_THREADS
            ));
        }
        Ok(threads)
    }

    /// The current flag's optional value: the next argument, if it parses.
    fn optional<T: FromStr>(&mut self) -> Option<T> {
        let value = self.args.peek()?.parse().ok()?;
        self.args.next();
        Some(value)
    }

    /// The error for an argument the subcommand does not take.
    fn unexpected(&self) -> String {
        format!("unexpected argument `{}`", self.flag)
    }
}

/// The error for a missing required argument; [`USAGE`] has the synopsis.
fn missing(what: &str) -> String {
    format!("missing {what} (see `pyranet help`)")
}

/// Writes a whole output file and flushes it explicitly, so no write
/// error can hide in the `BufWriter`'s error-swallowing `Drop`.
fn write_file(path: &str, body: &[u8]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    w.write_all(body).map_err(|e| format!("write failed: {e}"))?;
    w.flush().map_err(|e| format!("write failed: {e}"))
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// `--metrics OUT.json` / `--verbose` state shared by `build-dataset`,
/// `train`, and `eval`. Recording is always on (the registry is
/// process-global and costs a few atomic adds); these flags only control
/// whether the end-of-run snapshot is exported.
#[derive(Debug, Default)]
struct MetricsArgs {
    out: Option<String>,
    verbose: bool,
}

impl MetricsArgs {
    /// Snapshots the global registry: writes the JSON export and/or prints
    /// the human summary.
    fn finish(&self) -> Result<(), String> {
        if self.out.is_none() && !self.verbose {
            return Ok(());
        }
        let snap = pyranet::obs::global().snapshot();
        if let Some(path) = &self.out {
            write_file(path, format!("{}\n", snap.to_json()).as_bytes())?;
            println!("wrote {} metric(s) to {path}", snap.entries.len());
        }
        if self.verbose {
            print!("{}", snap.render());
        }
        Ok(())
    }
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| missing("<file.v>"))?;
    let src = read_file(path)?;
    match check_source(&src) {
        SyntaxVerdict::Clean => println!("{path}: clean"),
        SyntaxVerdict::DependencyIssue { missing_modules } => {
            println!(
                "{path}: compiles with dependency issues (missing: {})",
                missing_modules.join(", ")
            );
        }
        SyntaxVerdict::SyntaxError { line, message } => {
            println!("{path}:{line}: syntax error: {message}");
        }
    }
    Ok(())
}

fn cmd_rank(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| missing("<file.v>"))?;
    let src = read_file(path)?;
    let module = parse_module(&src).map_err(|e| e.to_string())?;
    let rank = rank_sample(&module, &src);
    println!("{}", render_response(rank));
    let report = lint_module(&module, &src);
    if report.findings.is_empty() {
        println!("no findings");
    } else {
        for f in &report.findings {
            println!("  line {:>4}: {:?} — {}", f.line, f.kind, f.message);
        }
    }
    Ok(())
}

fn cmd_complexity(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| missing("<file.v>"))?;
    let src = read_file(path)?;
    let module = parse_module(&src).map_err(|e| e.to_string())?;
    let metrics = measure(&module);
    let score = metrics.score();
    println!("{} (score {score:.1})", ComplexityTier::classify(score));
    println!("{metrics:#?}");
    Ok(())
}

fn cmd_sim(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(|| missing("<file.v>"))?;
    let top = args.get(1).ok_or_else(|| missing("<top>"))?;
    let mut clock: Option<String> = None;
    let mut cycles = 1usize;
    let mut backend = SimMode::default();
    let mut sets: Vec<(String, u64)> = Vec::new();
    let mut flags = Flags::new(&args[2..]);
    while let Some(arg) = flags.next_arg() {
        match arg {
            "--clock" => clock = Some(flags.value()?),
            "--cycles" => cycles = flags.parse()?,
            "--backend" => backend = flags.parse()?,
            _ => {
                let (name, value) = arg.split_once('=').ok_or_else(|| flags.unexpected())?;
                sets.push((name.to_owned(), parse_value(value)?));
            }
        }
    }
    let src = read_file(path)?;
    let design = SimDesign::build(&src, top, backend).map_err(|e| e.to_string())?;
    let mut sim = design.instantiate().map_err(|e| e.to_string())?;
    for (name, v) in &sets {
        sim.set(name, *v).map_err(|e| e.to_string())?;
    }
    if let Some(clk) = &clock {
        for _ in 0..cycles {
            sim.clock(clk).map_err(|e| e.to_string())?;
        }
    }
    for out in sim.outputs().to_vec() {
        let v = sim.get(&out).map_err(|e| e.to_string())?;
        println!("{out} = {v}");
    }
    Ok(())
}

fn parse_value(s: &str) -> Result<u64, String> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| format!("bad value {s}: {e}"))
    } else if let Some(bin) = s.strip_prefix("0b") {
        u64::from_str_radix(bin, 2).map_err(|e| format!("bad value {s}: {e}"))
    } else {
        s.parse().map_err(|e| format!("bad value {s}: {e}"))
    }
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let mut files = 1200usize;
    let mut seed = BuildOptions::default().seed;
    let mut threads = 0usize;
    let mut out: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut shard_size: Option<usize> = None;
    let mut sim_check: Option<SimMode> = None;
    let mut cache_dir: Option<String> = None;
    let mut metrics = MetricsArgs::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_arg() {
        match flag {
            "--metrics" => metrics.out = Some(flags.value()?),
            "--verbose" => metrics.verbose = true,
            // The backend is optional: `--sim-check` alone uses the
            // default (compiled) backend.
            "--sim-check" => sim_check = Some(flags.optional().unwrap_or_default()),
            "--files" => files = flags.parse()?,
            "--seed" => seed = flags.parse()?,
            "--threads" => threads = flags.threads()?,
            "--out" => out = Some(flags.value()?),
            "--out-dir" => out_dir = Some(flags.value()?),
            "--cache-dir" => cache_dir = Some(flags.value()?),
            "--shard-size" => shard_size = Some(flags.parse()?),
            _ => return Err(flags.unexpected()),
        }
    }
    if shard_size.is_some() && out_dir.is_none() {
        return Err("--shard-size only applies to sharded output; add --out-dir".into());
    }
    if let Some(dir) = &cache_dir {
        // Create the cache root up front to surface an unusable one as a
        // clear CLI error; the pipeline itself degrades silently to an
        // uncached run.
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot open cache dir {dir}: {e}"))?;
    }
    let built = PyraNetBuilder::new(BuildOptions {
        scraped_files: files,
        seed,
        threads,
        sim_check,
        cache_dir: cache_dir.as_ref().map(std::path::PathBuf::from),
        ..BuildOptions::default()
    })
    .build();
    println!("{}", built.funnel.render());
    if cache_dir.is_some() {
        // One-line cache summary from the process-global registry: this
        // process only ran one build, so the totals are this run's.
        let snap = pyranet::obs::global().snapshot();
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        println!(
            "cache: {} hit(s), {} miss(es), {} write(s), {} invalidated",
            count("cache.hits"),
            count("cache.misses"),
            count("cache.writes"),
            count("cache.invalidated")
        );
    }
    if let Some(dir) = &out_dir {
        // Sharded export: per-layer shards by default, fixed-size when
        // --shard-size is given. Serialization fans out across --threads;
        // every shard and the manifest are flush-checked. The manifest
        // carries the run's funnel and stage provenance.
        let spec = match shard_size {
            Some(n) => ShardSpec::MaxSamples(n),
            None => ShardSpec::PerLayer,
        };
        let exec = pyranet_exec::ExecConfig::new().threads(threads);
        let meta = pyranet::pipeline::ExportMeta {
            funnel: Some(built.funnel),
            provenance: built.provenance.clone(),
        };
        let manifest = built
            .dataset
            .to_shards_with_meta(std::path::Path::new(dir), spec, &exec, meta)
            .map_err(|e| format!("sharded write failed: {e}"))?;
        println!(
            "wrote {} samples to {dir} ({} shard(s) + manifest.json)",
            built.dataset.len(),
            manifest.shards.len()
        );
    }
    if out.is_some() || out_dir.is_none() {
        let out = out.unwrap_or_else(|| "pyranet_dataset.jsonl".to_owned());
        let file = std::fs::File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
        // A sized writer keeps syscall count low even for large datasets;
        // each record is a single buffered `write_all` (see `to_jsonl`).
        let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
        built.dataset.to_jsonl(&mut w).map_err(|e| format!("write failed: {e}"))?;
        // `to_jsonl` already flushed; this explicit flush is the
        // belt-and-braces guard that no failure can ever be deferred to
        // the BufWriter's error-swallowing `Drop`.
        w.flush().map_err(|e| format!("write failed: {e}"))?;
        println!("wrote {} samples to {out}", built.dataset.len());
    }
    metrics.finish()
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let mut files = 300usize;
    let mut seed = BuildOptions::default().seed;
    let mut cfg = TrainConfig::default();
    let mut metrics = MetricsArgs::default();
    let mut recipe = "sft".to_owned();
    let mut repair_out: Option<String> = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_arg() {
        match flag {
            "--metrics" => metrics.out = Some(flags.value()?),
            "--verbose" => metrics.verbose = true,
            "--files" => files = flags.parse()?,
            "--seed" => seed = flags.parse()?,
            "--threads" => cfg.threads = flags.threads()?,
            "--batch-size" => cfg.batch_size = flags.parse::<usize>()?.max(1),
            "--epochs" => cfg.epochs = flags.parse::<usize>()?.max(1),
            "--max-examples" => cfg.max_examples_per_phase = Some(flags.parse()?),
            "--kernel" => cfg.kernel = flags.parse()?,
            "--recipe" => {
                recipe = flags.value()?;
                if recipe != "sft" && recipe != "repair" {
                    return Err(format!("bad --recipe `{recipe}` (sft|repair)"));
                }
            }
            "--repair-out" => repair_out = Some(flags.value()?),
            _ => return Err(flags.unexpected()),
        }
    }
    cfg.seed = seed;
    if repair_out.is_some() && recipe != "repair" {
        return Err("--repair-out only applies to --recipe repair".into());
    }
    let (dataset, tk, mut lm) = cli_model(files, seed, cfg.threads);
    println!(
        "training on {} samples (recipe {recipe}, batch size {}, {} epoch(s), threads {})",
        dataset.len(),
        cfg.batch_size,
        cfg.epochs,
        if cfg.threads == 0 { "auto".to_owned() } else { cfg.threads.to_string() }
    );
    let report = if recipe == "repair" {
        if let Some(path) = &repair_out {
            let pairs = repair_pairs(&dataset, cfg.seed);
            export_repair_jsonl(&pairs, std::path::Path::new(path))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {} repair pair(s) to {path}", pairs.len());
        }
        RepairTrainer::run(&mut lm, &tk, &dataset, &cfg)
    } else {
        SftTrainer::run(&mut lm, &tk, &dataset, &cfg)
    };
    for p in &report.phases {
        println!(
            "  phase {:<12} {:>5} examples  {:>5} steps  loss {:.4} -> {:.4}",
            p.name, p.examples, p.steps, p.first_loss, p.last_loss
        );
    }
    metrics.finish()
}

/// The curated dataset, its tokenizer and the untrained d_model-32 model
/// that `train`, `eval` and `serve` start from: `files` scraped files
/// built at `seed`, and weights initialised from `seed`.
fn cli_model(
    files: usize,
    seed: u64,
    threads: usize,
) -> (PyraNetDataset, Tokenizer, TransformerLm) {
    let built = PyraNetBuilder::new(BuildOptions {
        scraped_files: files,
        seed,
        threads,
        ..BuildOptions::default()
    })
    .build();
    let tk = build_tokenizer(built.dataset.iter());
    let model_cfg = ModelConfig {
        name: "pyranet-cli".into(),
        d_model: 32,
        n_layers: 2,
        n_heads: 4,
        d_ff: 64,
        max_seq: 160,
        learning_rate: TrainConfig::default().learning_rate,
        seed,
    };
    let lm = TransformerLm::new(model_cfg, tk.vocab_size());
    (built.dataset, tk, lm)
}

/// [`cli_model`] after `epochs` epoch(s) of SFT — the model `eval` scores
/// and `serve` serves, so completions are comparable across subcommands.
fn trained_cli_model(
    files: usize,
    seed: u64,
    threads: usize,
    epochs: usize,
    kernel: KernelMode,
) -> (Tokenizer, TransformerLm) {
    let (dataset, tk, mut lm) = cli_model(files, seed, threads);
    let tcfg = TrainConfig { epochs, threads, seed, kernel, ..Default::default() };
    println!("training on {} samples ({} epoch(s))...", dataset.len(), epochs);
    SftTrainer::run(&mut lm, &tk, &dataset, &tcfg);
    (tk, lm)
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    use pyranet::eval::{
        evaluate, human_split, machine_split, CheckStrategy, EvalOptions, MAX_EQ_INPUTS_LIMIT,
    };

    let mut split = "machine".to_owned();
    let mut files = 300usize;
    let mut epochs = 1usize;
    let mut json: Option<String> = None;
    let mut metrics = MetricsArgs::default();
    let mut max_eq_inputs: Option<u32> = None;
    let mut opts = EvalOptions { samples_per_problem: 5, max_new_tokens: 48, ..Default::default() };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_arg() {
        match flag {
            "--metrics" => metrics.out = Some(flags.value()?),
            "--verbose" => metrics.verbose = true,
            "--split" => split = flags.value()?,
            "--samples" => opts.samples_per_problem = flags.parse::<u32>()?.max(1),
            "--max-new-tokens" => opts.max_new_tokens = flags.parse()?,
            "--threads" => opts.threads = flags.threads()?,
            "--seed" => opts.seed = flags.parse()?,
            "--kernel" => opts.kernel = flags.parse()?,
            "--sim" => opts.sim = flags.parse()?,
            "--check" => opts.check = flags.parse()?,
            "--max-eq-inputs" => {
                let bits = flags.parse()?;
                if bits > MAX_EQ_INPUTS_LIMIT {
                    return Err(format!(
                        "bad --max-eq-inputs `{bits}`: at most {MAX_EQ_INPUTS_LIMIT} input bits"
                    ));
                }
                max_eq_inputs = Some(bits);
            }
            "--files" => files = flags.parse()?,
            "--epochs" => epochs = flags.parse::<usize>()?.max(1),
            "--json" => json = Some(flags.value()?),
            _ => return Err(flags.unexpected()),
        }
    }
    // The bit cap applies to the equivalence check whichever flag came
    // first.
    if let (CheckStrategy::Equivalence { max_input_bits }, Some(bits)) =
        (&mut opts.check, max_eq_inputs)
    {
        *max_input_bits = bits;
    }
    let splits: Vec<_> = match split.as_str() {
        "machine" => vec![machine_split()],
        "human" => vec![human_split()],
        "both" => vec![machine_split(), human_split()],
        other => return Err(format!("bad --split `{other}` (machine|human|both)")),
    };

    // Build + briefly fine-tune the small reference model, then score it.
    let (tk, lm) = trained_cli_model(files, opts.seed, opts.threads, epochs, opts.kernel);

    let mut results = Vec::new();
    for problems in &splits {
        let r = evaluate(&lm, &tk, problems, &opts);
        println!(
            "{}: {} problems, n = {} — pass@1 {:.1}%  pass@5 {:.1}%  pass@10 {:.1}%  syntax {:.1}%",
            r.split_name,
            r.problems.len(),
            opts.samples_per_problem,
            r.pass_at(1),
            r.pass_at(5),
            r.pass_at(10),
            r.syntax_rate()
        );
        let truncated: u32 = r.problems.iter().map(|p| p.prompt_dropped_tokens).sum();
        if truncated > 0 {
            println!("  warning: {truncated} prompt token(s) dropped to fit the context window");
        }
        results.push(r);
    }

    if let Some(path) = &json {
        let body = serde_json::to_string_pretty(&results).map_err(|e| format!("{e}"))?;
        write_file(path, format!("{body}\n").as_bytes())?;
        println!("wrote {} result(s) to {path}", results.len());
    }
    metrics.finish()
}

/// `pyranet serve --requests FILE.jsonl`: offline replay of a request
/// file through the continuous-batching engine. Trains the same small
/// reference model as `eval`, then drives every request to completion
/// and writes responses sorted by id — so two runs with different
/// `--shuffle-arrival` seeds, `--max-batch` widths, or `--threads`
/// counts produce byte-identical output files.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use pyranet::serve::{read_requests_jsonl, replay, responses_to_jsonl, ServeConfig};

    let mut requests_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut files = 300usize;
    let mut epochs = 1usize;
    let mut shuffle_arrival: Option<u64> = None;
    let mut metrics = MetricsArgs::default();
    let mut cfg = ServeConfig::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_arg() {
        match flag {
            "--metrics" => metrics.out = Some(flags.value()?),
            "--verbose" => metrics.verbose = true,
            "--requests" => requests_path = Some(flags.value()?),
            "--out" => out = Some(flags.value()?),
            "--max-batch" => cfg.max_batch = flags.parse::<usize>()?.max(1),
            "--queue-depth" => cfg.queue_depth = flags.parse::<usize>()?.max(1),
            "--prefix-cache" => cfg.prefix_cache_entries = flags.parse()?,
            "--seed" => cfg.seed = flags.parse()?,
            "--kernel" => cfg.kernel = flags.parse()?,
            "--threads" => cfg.threads = flags.threads()?,
            "--files" => files = flags.parse()?,
            "--epochs" => epochs = flags.parse::<usize>()?.max(1),
            "--shuffle-arrival" => shuffle_arrival = Some(flags.parse()?),
            _ => return Err(flags.unexpected()),
        }
    }
    let requests_path = requests_path.ok_or_else(|| missing("--requests FILE.jsonl"))?;
    let mut requests = read_requests_jsonl(&read_file(&requests_path)?)?;
    if requests.is_empty() {
        return Err(format!("{requests_path}: no requests"));
    }
    // Optional arrival-order scramble: determinism means the output file
    // must not change, whatever seed lands here.
    if let Some(seed) = shuffle_arrival {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        requests.shuffle(&mut rng);
    }

    let (tk, lm) = trained_cli_model(files, cfg.seed, cfg.threads, epochs, cfg.kernel);

    println!(
        "serving {} request(s): max_batch {} queue_depth {} prefix_cache {}",
        requests.len(),
        cfg.max_batch,
        cfg.queue_depth,
        cfg.prefix_cache_entries
    );
    let outcome = replay(&lm, &tk, cfg, &requests);
    let mut responses = outcome.responses;
    responses.sort_by(|a, b| a.id.cmp(&b.id));
    println!(
        "served {} response(s): {} token(s), {} step(s), {} resubmission(s); \
         prefix cache {} hit(s) / {} miss(es) / {} eviction(s)",
        responses.len(),
        outcome.decode_tokens,
        outcome.steps,
        outcome.resubmissions,
        outcome.cache.hits,
        outcome.cache.misses,
        outcome.cache.evictions
    );
    let body = responses_to_jsonl(&responses);
    match &out {
        Some(path) => {
            write_file(path, body.as_bytes())?;
            println!("wrote {} response(s) to {path}", responses.len());
        }
        None => print!("{body}"),
    }
    metrics.finish()
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path =
        args.first().ok_or_else(|| missing("<dataset.jsonl | shard-dir | manifest.json>"))?;
    // Accepts a single .jsonl file, a sharded export directory, or its
    // manifest.json; sharded imports are checksum-verified per shard and
    // parse failures carry `file:line` context.
    let ds = pyranet::pipeline::persist::load_dataset(
        std::path::Path::new(path),
        &pyranet_exec::ExecConfig::new(),
    )
    .map_err(|e| format!("{e}"))?;
    let counts = ds.layer_counts();
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    println!("{} samples", ds.len());
    for layer in Layer::ALL {
        let n = counts[layer.index() - 1];
        println!(
            "  {:<8} weight {:.1} {:>7}  |{}",
            layer.to_string(),
            layer.loss_weight(),
            n,
            "#".repeat((n * 40).div_ceil(max))
        );
    }
    // Sharded exports carry the producing run's curation funnel in the
    // manifest — print it (every rejection stage, including the opt-in
    // sim check) so the full §III-A.5 funnel is visible without --metrics.
    if let Some(manifest) = load_manifest_if_sharded(std::path::Path::new(path)) {
        if let Some(funnel) = &manifest.funnel {
            println!("funnel:");
            for line in funnel.render().lines() {
                println!("  {line}");
            }
        }
    }
    Ok(())
}

/// The shard manifest for `stats` inputs that are sharded exports (a
/// directory or a path to its `manifest.json`); `None` for flat JSONL
/// files or unreadable manifests.
fn load_manifest_if_sharded(path: &std::path::Path) -> Option<pyranet::pipeline::ShardManifest> {
    use pyranet::pipeline::persist::MANIFEST_FILE;
    let dir = if path.is_dir() {
        path
    } else if path.file_name().map(|n| n == MANIFEST_FILE).unwrap_or(false) {
        path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(std::path::Path::new("."))
    } else {
        return None;
    };
    pyranet::pipeline::ShardManifest::load(dir).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_errors_name_their_flag_and_exit_2() {
        for (args, flag) in [
            // Unknown flags; `--sim-check` takes `reference` as its
            // optional backend but leaves `--bogus` alone.
            (&["build-dataset", "--bogus"][..], "--bogus"),
            (&["build-dataset", "--sim-check", "reference", "--bogus"], "--bogus"),
            (&["build-dataset", "--sim-check", "--bogus"], "--bogus"),
            (&["train", "--bogus"], "--bogus"),
            (&["sim", "m.v", "top", "--bogus"], "--bogus"),
            // Missing values.
            (&["eval", "--json"], "--json"),
            (&["serve", "--requests"], "--requests"),
            (&["sim", "m.v", "top", "--clock"], "--clock"),
            // Bad numbers and values; `a=1` is a `sim` positional.
            (&["build-dataset", "--files", "many"], "--files"),
            (&["eval", "--max-eq-inputs", "12x"], "--max-eq-inputs"),
            (&["eval", "--max-eq-inputs", "21"], "--max-eq-inputs"),
            (&["serve", "--max-batch", "0.5"], "--max-batch"),
            // More threads than the executor's bound, before any work.
            (&["build-dataset", "--threads", "5000"], "--threads"),
            (&["train", "--threads", "257"], "--threads"),
            (&["eval", "--threads", "5000"], "--threads"),
            (&["serve", "--threads", "5000"], "--threads"),
            (&["train", "--kernel", "simd"], "--kernel"),
            (&["sim", "m.v", "top", "a=1", "--cycles", "x"], "--cycles"),
        ] {
            let result = run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
            assert_eq!(exit_status(&result), 2, "{args:?}");
            let err = result.expect_err("bad usage must fail");
            assert!(err.contains(flag), "{args:?}: `{err}` does not name {flag}");
        }
    }
}
