//! The benchmark's fixed configuration: workload sizes, repeats per
//! round, the open-loop arrival rate and the pinned output digests.
//!
//! Every workload runs the same five phases (curate, score, train, eval,
//! serve) so that every run reports every end-to-end metric; a workload
//! differs in the input each phase gets and in how often per round each
//! phase repeats. Nothing here is recomputed per run.

/// Seed whose outputs are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// Seed reserved for re-checking a claimed gain; never used while tuning.
pub const HELD_OUT_SEED: u64 = 20_251_017;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// Probe time every end-to-end time and rate is scaled to: about what
/// [`crate::bench::probe`] takes on a 2-vCPU Intel Xeon KVM guest while the
/// host runs it at full speed. Scaling by the probe timed around each
/// repeat removes the host's speed swings (see `perfbench/README.md`).
pub const PROBE_REF_S: f64 = 0.5e-3;

/// [`crate::bench::probe`] time ÷ [`crate::bench::probe_slice`] time on
/// the reference host (medians 121 and 130 in two calibrations): turns
/// the slices an open-loop pass runs while idle into a probe time.
pub const SLICES_PER_PROBE: f64 = 125.0;

/// Worker threads for every parallel knob (and `PYRANET_THREADS`).
pub const WORKERS: usize = 1;

/// Samples per eval problem (pass@k with k ≤ 10).
pub const EVAL_SAMPLES: u32 = 10;

/// New-token budget per eval completion (the CLI `eval` default).
pub const EVAL_MAX_NEW_TOKENS: usize = 48;

/// Candidates rendered per eval problem in the `score` phase, by class.
pub const RERENDERS: usize = 24;
/// `degrade_text` variants per problem.
pub const DEGRADED: usize = 10;
/// `inject_syntax_error` variants per problem.
pub const SYNTAX_BROKEN: usize = 8;
/// `inject_dependency_issue` variants per problem.
pub const DEPENDENCY_BROKEN: usize = 8;
/// Operator-swap mutant attempts per problem.
pub const MUTANTS: usize = 14;

/// SFT examples per run (`max_examples_per_phase`; one epoch): the CLI
/// `train` recipe's cap. Fewer examples leave a model whose `<eos>` habits
/// swing with the seed, and with them eval's and serve's work.
pub const TRAIN_EXAMPLES: usize = 240;

/// Inclusive range `max_new_tokens` is drawn from for serve requests.
pub const SERVE_MAX_NEW: (usize, usize) = (8, 40);

/// Rounds every run makes, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 3;

/// Requests in the serve stream.
pub const REQUESTS: usize = 240;

/// Open-loop arrival rate, requests per second: about 40% of burst
/// capacity on the host `perfbench/README.md` describes.
pub const RATE_PER_S: f64 = 300.0;

/// SFT runs from the initial weights per round.
pub const TRAIN_PER_ROUND: usize = 1;
/// Burst replays of the request stream per round.
pub const BURSTS_PER_ROUND: usize = 3;
/// Open-loop passes of the request stream per round.
pub const OPEN_LOOPS_PER_ROUND: usize = 2;

/// Sizes and repeat mix of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Scraped files in the curation pool (pseudo-LLM stage on).
    pub pool_files: usize,
    /// Input-bit cap of the exhaustive equivalence check.
    pub eq_cap: u32,
    /// Repeats per round of the phases whose count differs by workload.
    pub mix: Mix,
}

/// Repeats per round of the phases whose count differs by workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Uncached curation + shard round trip.
    pub curate: usize,
    /// Warm cached rebuild.
    pub rebuild: usize,
    /// Stimulus scoring pass.
    pub stimulus: usize,
    /// Equivalence scoring pass.
    pub equivalence: usize,
    /// `evaluate` on both splits.
    pub eval: usize,
}

/// All workloads, in the order `BENCHMARK.json` lists them.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "curate",
            pool_files: 1200,
            eq_cap: 12,
            mix: Mix { curate: 4, rebuild: 4, stimulus: 2, equivalence: 2, eval: 2 },
        },
        Workload {
            name: "score",
            pool_files: 300,
            eq_cap: 16,
            mix: Mix { curate: 2, rebuild: 2, stimulus: 4, equivalence: 1, eval: 2 },
        },
        Workload {
            name: "train-eval-serve",
            pool_files: 300,
            eq_cap: 12,
            mix: Mix { curate: 2, rebuild: 2, stimulus: 2, equivalence: 2, eval: 2 },
        },
    ]
}

/// The workload's sizes and repeats with the constants every workload
/// shares, for the report's provenance.
pub fn describe(w: &Workload) -> String {
    format!(
        "{w:?}; set-ups {SETUP_REPEATS}, workers {WORKERS}, probe reference {PROBE_REF_S} s, \
         slices per probe {SLICES_PER_PROBE}, \
         requests {REQUESTS} at {RATE_PER_S} req/s, SFT examples {TRAIN_EXAMPLES}, per round: \
         SFT {TRAIN_PER_ROUND}, \
         bursts {BURSTS_PER_ROUND}, open-loop passes {OPEN_LOOPS_PER_ROUND}; \
         eval n={EVAL_SAMPLES}, {EVAL_MAX_NEW_TOKENS} new tokens"
    )
}

/// Output digests pinned for [`DEFAULT_SEED`], per workload: curated
/// dataset, score verdicts, eval results, served completions (FNV-1a; see
/// `perfbench/README.md`). `score` and `train-eval-serve` curate the same
/// pool and train the same model, so their last three digests coincide.
pub fn pinned_digests(workload: &str) -> Option<[u64; 4]> {
    match workload {
        "curate" => Some([
            0x2e5b_6acb_b82b_fc4a,
            0x30a0_02b9_eea4_7b57,
            0x98db_b218_5c81_41ed,
            0xd655_67e6_61b4_d6fe,
        ]),
        "score" => Some([
            0x4dc5_1bb5_7904_7743,
            0x30a0_02b9_eea4_7b57,
            0x06c1_1639_8632_4ea2,
            0x52d1_4f58_ca10_383b,
        ]),
        "train-eval-serve" => Some([
            0x4dc5_1bb5_7904_7743,
            0x30a0_02b9_eea4_7b57,
            0x06c1_1639_8632_4ea2,
            0x52d1_4f58_ca10_383b,
        ]),
        _ => None,
    }
}
