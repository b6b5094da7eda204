//! # pyranet-pipeline
//!
//! The PyraNet curation pipeline (paper §III-A): filters a noisy Verilog
//! pool into the six-layer quality pyramid.
//!
//! Stage order follows the paper exactly — cheap filters first, the
//! (computationally heaviest) syntax check last:
//!
//! 1. **Empty/broken files** ([`filter::filter_broken`]) — encoding
//!    failures and empty bodies are discarded.
//! 2. **Module declaration** ([`filter::filter_no_module`]) — files with no
//!    `module` keyword are discarded.
//! 3. **Deduplication** ([`dedup`]) — Jaccard similarity over token sets,
//!    accelerated with MinHash + LSH banding; pairs above the threshold are
//!    collapsed to the earliest representative.
//! 4. **Syntax check** ([`pyranet_verilog::check_source`]) — the Icarus
//!    substitute; syntax errors are discarded, dependency issues survive
//!    into Layer 6.
//!
//! Survivors are then **ranked 0–20** ([`rank`]) by the deterministic
//! style/efficiency judge, **complexity-labelled** ([`pyranet_verilog::metrics`])
//! into Basic/Intermediate/Advanced/Expert, and **organised into six
//! layers** ([`layers`]) with the paper's loss weights. [`dataset`] holds
//! the result, with curriculum-ordered iteration and JSONL persistence;
//! [`persist`] adds sharded, manifest-indexed, checksum-verified exports.
//! [`erroneous`] implements the Table IV label-shuffling ablation.
//! [`incremental`] memoizes stage 4's per-sample verdicts in one record
//! file when a cache directory is set, inside the one curation path,
//! [`Pipeline::run`].
//!
//! # Example
//!
//! ```
//! use pyranet_corpus::CorpusBuilder;
//! use pyranet_pipeline::Pipeline;
//!
//! let pool = CorpusBuilder::new(1).scraped_files(200).llm_generation(false).build();
//! let outcome = Pipeline::new().run(pool.samples);
//! assert!(outcome.dataset.len() > 0);
//! assert!(outcome.funnel.collected >= outcome.funnel.curated);
//! ```

pub mod dataset;
pub mod dedup;
pub mod erroneous;
pub mod filter;
pub mod incremental;
pub mod layers;
pub mod persist;
pub mod rank;
pub mod stats;

pub use dataset::{CuratedSample, PyraNetDataset};
pub use incremental::StageFingerprints;
pub use layers::Layer;
pub use persist::{ExportMeta, ShardManifest, ShardSpec, StageProvenance};
pub use rank::{rank_sample, Rank, RANK_JUDGE_VERSION};
pub use stats::Funnel;

use incremental::{memo, CurationArtifact};
use pyranet_corpus::RawSample;
use pyranet_exec::ExecConfig;
use pyranet_verilog::metrics::ComplexityTier;
use pyranet_verilog::{check_file, parse, SimDesign, SimMode, SyntaxVerdict};
use std::path::PathBuf;

/// Configuration for a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Jaccard similarity threshold above which two files are duplicates.
    pub jaccard_threshold: f64,
    /// Worker threads for the parallel stages (dedup signatures and the
    /// syntax/rank stage); `0` means auto (`PYRANET_THREADS`, then
    /// available parallelism). Outputs are identical at any value.
    pub threads: usize,
    /// Opt-in simulation check: when set, self-contained survivors (no
    /// dependency issue) must also build and settle in the simulator under
    /// the given backend; failures land in `Funnel::rejected_sim`. `None`
    /// (the default) skips the stage and reproduces the historical curated
    /// output byte-for-byte.
    pub sim_check: Option<SimMode>,
    /// Opt-in incremental cache root ([`Pipeline::cache_dir`]). When set,
    /// stage 4's per-sample verdicts are read from / written to a record
    /// file under this directory, so a rebuild parses only the samples
    /// whose content (or whose stage config) changed.
    /// `None` (the default) runs every stage from scratch. The curated
    /// output is byte-identical either way.
    pub cache_dir: Option<PathBuf>,
}

impl Pipeline {
    /// Pipeline with the default 0.85 Jaccard threshold and auto threads.
    pub fn new() -> Pipeline {
        Pipeline { jaccard_threshold: 0.85, threads: 0, sim_check: None, cache_dir: None }
    }

    /// Sets the dedup threshold.
    pub fn jaccard_threshold(mut self, t: f64) -> Pipeline {
        self.jaccard_threshold = t;
        self
    }

    /// Sets the worker-thread count (`0` = auto).
    pub fn threads(mut self, threads: usize) -> Pipeline {
        self.threads = threads;
        self
    }

    /// Enables the opt-in simulation check under `mode`.
    pub fn sim_check(mut self, mode: SimMode) -> Pipeline {
        self.sim_check = Some(mode);
        self
    }

    /// Enables the incremental verdict cache rooted at `dir` (created on
    /// first use). An unopenable store degrades to an uncached run
    /// (counted in `cache.open_errors`) — caching is a performance knob,
    /// never a correctness gate.
    pub fn cache_dir(mut self, dir: PathBuf) -> Pipeline {
        self.cache_dir = Some(dir);
        self
    }

    /// Runs the full curation pipeline over a raw pool.
    ///
    /// Each stage is written once; stage 4 runs through [`incremental`]'s
    /// memo, which reaches the optional record file, so cached and
    /// uncached runs execute the same code. Each stage's wall time is its
    /// `pipeline.stage.*` span; the funnel is mirrored into
    /// `pipeline.funnel.*` counters.
    pub fn run(&self, pool: Vec<RawSample>) -> PipelineOutcome {
        let obs = pyranet_obs::global();
        let run_span = obs.span("pipeline.run");
        let exec = ExecConfig::new().threads(self.threads);
        let mut funnel = Funnel { collected: pool.len(), ..Funnel::default() };
        let fingerprints = StageFingerprints::derive(self.jaccard_threshold, self.sim_check);

        // Stages 1–2: the cheap filters.
        let span = obs.span("pipeline.stage.broken");
        let (alive, rejected) = filter::filter_broken(pool);
        funnel.rejected_broken = rejected;
        drop(span);

        let span = obs.span("pipeline.stage.no_module");
        let (alive, rejected) = filter::filter_no_module(alive);
        funnel.rejected_no_module = rejected;
        drop(span);

        // Stage 3: dedup, signatures fanned out across the executor.
        let span = obs.span("pipeline.stage.dedup");
        let before = alive.len();
        let alive = dedup::dedup_with(alive, self.jaccard_threshold, &exec);
        funnel.rejected_duplicates = before - alive.len();
        drop(span);

        // Stage 4: syntax check + rank + complexity, one parse per
        // survivor, fanned out across the executor. Each verdict is a pure
        // function of the sample's source, so par_map's determinism
        // contract makes the outcome thread-count-independent — with or
        // without the cache, whose lookups are keyed by the source text.
        let span = obs.span("pipeline.stage.syntax_rank");
        let verdicts =
            memo(self.cache_dir.as_deref(), fingerprints.syntax_rank, &exec, alive, |source| {
                curate(source, self.sim_check)
            });
        let mut dataset = PyraNetDataset::default();
        for (s, verdict) in verdicts {
            match verdict {
                CurationArtifact::Keep { rank, tier, layer, dependency_issue } => {
                    dataset.push(CuratedSample {
                        id: s.id,
                        source: s.source,
                        description: s.description,
                        rank,
                        tier,
                        layer,
                        dependency_issue,
                    });
                }
                CurationArtifact::Syntax => funnel.rejected_syntax += 1,
                CurationArtifact::Sim => funnel.rejected_sim += 1,
            }
        }
        drop(span);

        funnel.curated = dataset.len();
        assert!(funnel.is_consistent(), "funnel lost samples: {funnel:?}");
        for (name, count) in [
            ("collected", funnel.collected),
            ("rejected_broken", funnel.rejected_broken),
            ("rejected_no_module", funnel.rejected_no_module),
            ("rejected_duplicates", funnel.rejected_duplicates),
            ("rejected_syntax", funnel.rejected_syntax),
            ("rejected_sim", funnel.rejected_sim),
            ("curated", funnel.curated),
        ] {
            obs.counter(&format!("pipeline.funnel.{name}")).add(count as u64);
        }
        drop(run_span);
        PipelineOutcome { dataset, funnel, provenance: fingerprints.provenance() }
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

/// Stage 4's verdict for one dedup survivor, from scratch: parse, syntax
/// check, the opt-in sim check, rank, complexity. A pure function of the
/// source and the sim mode — which is what makes the verdict cacheable.
fn curate(source: &str, sim_check: Option<SimMode>) -> CurationArtifact {
    let Ok(file) = parse(source) else { return CurationArtifact::Syntax };
    let verdict = check_file(&file);
    if matches!(verdict, SyntaxVerdict::SyntaxError { .. }) {
        return CurationArtifact::Syntax;
    }
    let dependency_issue = matches!(verdict, SyntaxVerdict::DependencyIssue { .. });
    // `check_file` rejects files without a module.
    let Some(module) = file.modules.first() else { return CurationArtifact::Syntax };
    // Opt-in: self-contained survivors must also build and settle in the
    // simulator, through the front end the eval testbench uses.
    // Dependency-issue samples are exempt (their missing modules cannot
    // elaborate) — they keep their Layer-6 demotion instead.
    if let Some(mode) = sim_check.filter(|_| !dependency_issue) {
        let design = SimDesign::from_file(&file, &module.name, mode);
        if !design.is_ok_and(|design| design.instantiate().is_ok()) {
            return CurationArtifact::Sim;
        }
    }
    let rank = rank_sample(module, source);
    let tier = ComplexityTier::classify(pyranet_verilog::metrics::measure(module).score());
    let layer = Layer::assign(rank, dependency_issue);
    CurationArtifact::Keep { rank, tier, layer, dependency_issue }
}

/// The result of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The curated, layered dataset.
    pub dataset: PyraNetDataset,
    /// Per-stage rejection statistics (the §III-A.5 funnel).
    pub funnel: Funnel,
    /// Stage provenance for this run's configuration (stage name, artifact
    /// version, config fingerprint) — embeddable into the shard manifest
    /// via [`ExportMeta`].
    pub provenance: Vec<StageProvenance>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyranet_corpus::{CorpusBuilder, TruthLabel};

    #[test]
    fn pipeline_recovers_truth_labels() {
        let pool = CorpusBuilder::new(3).scraped_files(400).build();
        let truth: std::collections::HashMap<u64, TruthLabel> =
            pool.samples.iter().map(|s| (s.id, s.truth)).collect();
        let outcome = Pipeline::new().run(pool.samples);
        for s in outcome.dataset.iter() {
            match truth[&s.id] {
                TruthLabel::SyntaxBroken => panic!("syntax-broken sample {} survived", s.id),
                TruthLabel::EmptyOrBinary => panic!("broken file {} survived", s.id),
                TruthLabel::DependencyBroken => {
                    assert!(s.dependency_issue, "{}", s.id);
                    assert_eq!(s.layer, Layer::L6);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn sim_check_rejects_unsimulatable_survivors() {
        use pyranet_corpus::{Origin, RawSample};
        // Syntactically clean, but combinationally oscillating: only the
        // opt-in sim stage can catch it.
        let osc = "module osc(output y); wire n; assign n = ~n; assign y = n; endmodule";
        let good = "module ok(input a, output y); assign y = ~a; endmodule";
        let pool = vec![
            RawSample::new(1, osc.to_owned(), "", Origin::Scraped, TruthLabel::Clean),
            RawSample::new(2, good.to_owned(), "", Origin::Scraped, TruthLabel::Clean),
        ];
        for mode in [pyranet_verilog::SimMode::Compiled, pyranet_verilog::SimMode::Reference] {
            let outcome = Pipeline::new().sim_check(mode).run(pool.clone());
            assert_eq!(outcome.funnel.rejected_sim, 1, "{mode:?}");
            assert_eq!(outcome.funnel.curated, 1, "{mode:?}");
            assert!(outcome.funnel.is_consistent(), "{mode:?}");
            assert!(outcome.dataset.iter().all(|s| s.id == 2), "{mode:?}");
        }
        // Default-off: the oscillator survives, as it always has.
        let outcome = Pipeline::new().run(pool);
        assert_eq!(outcome.funnel.rejected_sim, 0);
        assert_eq!(outcome.funnel.curated, 2);
    }

    #[test]
    fn funnel_conserves_samples() {
        let pool = CorpusBuilder::new(4).scraped_files(300).build();
        let n = pool.samples.len();
        let outcome = Pipeline::new().run(pool.samples);
        let f = &outcome.funnel;
        assert_eq!(f.collected, n, "collected matches input");
        assert_eq!(
            f.rejected_broken
                + f.rejected_no_module
                + f.rejected_duplicates
                + f.rejected_syntax
                + f.curated,
            n,
            "every sample is accounted for exactly once"
        );
    }

    #[test]
    fn clean_samples_rank_higher_than_sloppy() {
        let pool = CorpusBuilder::new(5).scraped_files(600).build();
        let truth: std::collections::HashMap<u64, TruthLabel> =
            pool.samples.iter().map(|s| (s.id, s.truth)).collect();
        let outcome = Pipeline::new().run(pool.samples);
        let mut clean = (0.0, 0.0);
        let mut sloppy = (0.0, 0.0);
        for s in outcome.dataset.iter() {
            match truth[&s.id] {
                TruthLabel::Clean => {
                    clean.0 += f64::from(s.rank.value());
                    clean.1 += 1.0;
                }
                TruthLabel::Sloppy => {
                    sloppy.0 += f64::from(s.rank.value());
                    sloppy.1 += 1.0;
                }
                _ => {}
            }
        }
        assert!(clean.1 > 0.0 && sloppy.1 > 0.0);
        let clean_avg = clean.0 / clean.1;
        let sloppy_avg = sloppy.0 / sloppy.1;
        assert!(
            clean_avg > sloppy_avg + 2.0,
            "clean avg {clean_avg:.1} vs sloppy avg {sloppy_avg:.1}"
        );
    }
}
