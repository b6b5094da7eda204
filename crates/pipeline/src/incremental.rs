//! Incremental curation: stage 4's verdicts memoized in `pyranet-cache`.
//!
//! Stage 4 (parse, syntax check, opt-in sim, rank, complexity) is the one
//! stage of `Pipeline::run` that reaches the store: its verdict is a pure
//! function of the sample's *content* and the stage's *configuration*,
//! and computing it costs more than reading it back. The filters and the
//! dedup signatures cost less to recompute than to read, so they always
//! recompute. This module owns the glue: the stage names and versions, the
//! config fingerprints (which knob feeds which stage), the stored verdict,
//! and `memo`, through which stage 4 reaches the optional store. Without a
//! store the memo is plain computation.
//!
//! Invalidation rules (each knob retires exactly the stages it feeds):
//!
//! | stage        | artifact                  | fingerprint knobs        |
//! |--------------|---------------------------|--------------------------|
//! | `dedup_join` | *(none — provenance only)*| jaccard threshold        |
//! | `syntax_rank`| syntax/sim/keep verdict   | rank-judge version, sim  |
//!
//! Dedup's verdict for one sample depends on every *other* sample, so it
//! cannot be cached per sample; its fingerprint only records the
//! threshold in the shard manifest's provenance.
//!
//! Determinism: every lookup is keyed by content, never by index or
//! thread, and each dedup survivor has its own content, so a cold build
//! misses exactly once per stage-4 input at any thread count. Cached,
//! uncached, partially-cached and any-thread-count runs all produce
//! byte-identical curated output.

use crate::layers::Layer;
use crate::rank::{Rank, RANK_JUDGE_VERSION};
use pyranet_cache::{content_hash, ArtifactStore, Fingerprint, Lookup, StageKey, StageProvenance};
use pyranet_verilog::metrics::ComplexityTier;
use pyranet_verilog::SimMode;
use serde::{Deserialize, Serialize};

/// Artifact-format versions, one per stage. Bump a stage's version when
/// its artifact shape or verdict semantics change; old artifacts become
/// unreachable (different fingerprint) instead of being misread.
const DEDUP_JOIN_VERSION: u32 = 1;
const SYNTAX_RANK_VERSION: u32 = 1;

/// Stage names — the first component of every [`StageKey`].
pub const STAGE_DEDUP_JOIN: &str = "dedup_join";
pub const STAGE_SYNTAX_RANK: &str = "syntax_rank";

/// A cached stage-4 verdict: rejected by the syntax check, rejected by
/// the opt-in sim check, or kept with the derived quality labels. The
/// kept variant stores only content-derived fields — id, source, and
/// description come from the live `RawSample` at reuse time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CurationArtifact {
    Syntax,
    Sim,
    Keep { rank: Rank, tier: ComplexityTier, layer: Layer, dependency_issue: bool },
}

/// The per-stage config fingerprints for one pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageFingerprints {
    pub dedup_join: u64,
    pub syntax_rank: u64,
}

impl StageFingerprints {
    /// Derives the fingerprints from the pipeline's knobs.
    pub fn derive(jaccard_threshold: f64, sim_check: Option<SimMode>) -> StageFingerprints {
        StageFingerprints {
            dedup_join: Fingerprint::stage(STAGE_DEDUP_JOIN, DEDUP_JOIN_VERSION)
                .knob_f64("jaccard", jaccard_threshold)
                .finish(),
            syntax_rank: Fingerprint::stage(STAGE_SYNTAX_RANK, SYNTAX_RANK_VERSION)
                .knob("rank_judge", &RANK_JUDGE_VERSION.to_string())
                .knob("sim", sim_knob(sim_check))
                .finish(),
        }
    }

    /// The provenance records for this configuration, in stage order —
    /// embedded in the shard `manifest.json`.
    pub fn provenance(&self) -> Vec<StageProvenance> {
        vec![
            StageProvenance::new(STAGE_DEDUP_JOIN, DEDUP_JOIN_VERSION, self.dedup_join),
            StageProvenance::new(STAGE_SYNTAX_RANK, SYNTAX_RANK_VERSION, self.syntax_rank),
        ]
    }
}

/// The sim-mode knob value. The backend choice lands in the fingerprint
/// verbatim: the two backends are verdict-equivalent today, but keying
/// them separately means a behavioural divergence can never resurface a
/// stale verdict from the other backend.
fn sim_knob(sim_check: Option<SimMode>) -> &'static str {
    match sim_check {
        None => "off",
        Some(SimMode::Compiled) => "compiled",
        Some(SimMode::Reference) => "reference",
    }
}

/// Stage 4's verdict for one sample's `source`. Without a store this is
/// plain `compute()`. With one, a verified hit is returned as is, and a
/// miss or an invalid entry is computed and published.
pub(crate) fn memo(
    store: Option<&ArtifactStore>,
    fingerprint: u64,
    source: &str,
    compute: impl FnOnce() -> CurationArtifact,
) -> CurationArtifact {
    let Some(store) = store else { return compute() };
    let key = StageKey::new(STAGE_SYNTAX_RANK, content_hash(source), fingerprint);
    if let Lookup::Hit(artifact) = store.get(&key, source) {
        return artifact;
    }
    let artifact = compute();
    // Advisory write: a full disk must not fail the build.
    store.put(&key, source, &artifact).ok();
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use pyranet_corpus::{Origin, RawSample, TruthLabel};
    use std::path::PathBuf;

    const INV: &str = "module inv(input a, output y);\n  assign y = ~a;\nendmodule\n";

    fn pool(sources: &[&str]) -> Vec<RawSample> {
        let raw = |(i, src): (usize, &&str)| {
            RawSample::new(i as u64, *src, "", Origin::Scraped, TruthLabel::Clean)
        };
        sources.iter().enumerate().map(raw).collect()
    }

    fn temp_store(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("pyranet-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        root
    }

    #[test]
    fn fingerprints_isolate_their_knobs() {
        let base = StageFingerprints::derive(0.85, None);
        let threshold = StageFingerprints::derive(0.9, None);
        // The jaccard threshold feeds only the (uncacheable) join stage.
        assert_eq!(base.syntax_rank, threshold.syntax_rank);
        assert_ne!(base.dedup_join, threshold.dedup_join);
        // The sim mode feeds only the syntax/rank/sim stage.
        let sim = StageFingerprints::derive(0.85, Some(SimMode::Compiled));
        assert_eq!(base.dedup_join, sim.dedup_join);
        assert_ne!(base.syntax_rank, sim.syntax_rank);
        // The two sim backends are keyed apart.
        let reference = StageFingerprints::derive(0.85, Some(SimMode::Reference));
        assert_ne!(sim.syntax_rank, reference.syntax_rank);
    }

    #[test]
    fn provenance_lists_every_stage_once() {
        let prov = StageFingerprints::derive(0.85, None).provenance();
        let names: Vec<&str> = prov.iter().map(|p| p.stage.as_str()).collect();
        assert_eq!(names, vec![STAGE_DEDUP_JOIN, STAGE_SYNTAX_RANK]);
    }

    /// Pins the on-disk artifact format: the config fingerprints and the
    /// payload bytes stage 4 publishes for fixed sources. A change here
    /// silently turns every existing store into misses, so it must come
    /// with a stage-version bump, never by accident.
    #[test]
    fn published_artifacts_are_pinned() {
        use pyranet_cache::hash_bytes;

        let fp = StageFingerprints::derive(0.85, None);
        assert_eq!([fp.dedup_join, fp.syntax_rank], [0x83b6_36b4_aab0_c4b9, 0xaade_f66b_657c_4379]);

        let sources = [
            INV,
            "module top(input a, output y);\n  sub u(.a(a), .y(y));\nendmodule\n",
            "module bad(input a, output y);\n  assign y = a\nendmodule\n",
            "just some notes, no hardware here\n",
            "   \n",
        ];
        let root = temp_store("artifact-pins");
        Pipeline::new().threads(1).cache_dir(root.clone()).run(pool(&sources));
        let store = ArtifactStore::open(&root).unwrap();
        // Per source: FNV-1a of the published payload line, or 0 when
        // stage 4 never saw the source.
        let payloads: Vec<u64> = sources
            .iter()
            .map(|src| {
                let key = StageKey::new(STAGE_SYNTAX_RANK, content_hash(src), fp.syntax_rank);
                std::fs::read_to_string(store.object_path(&key))
                    .map_or(0, |entry| hash_bytes(entry.split('\n').nth(1).unwrap().as_bytes()))
            })
            .collect();
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(
            payloads,
            [0xb51b_fd3f_3871_4d9a, 0x15dc_87b4_2113_e1cc, 0x6e8d_41ab_9e3e_55f0, 0, 0]
        );
    }

    #[test]
    fn a_verdict_stored_for_another_source_under_the_same_key_is_recomputed() {
        // Forge what a content-hash collision between A and B leaves
        // behind: B's stage-4 slot holding A's text and A's verdict. B
        // must be recomputed, never handed A's rejection.
        let (a, b) = ("module bad(input a, output y);\n  assign y = a\nendmodule\n", INV);
        let root = temp_store("forged");
        let store = ArtifactStore::open(&root).unwrap();
        let fingerprint = StageFingerprints::derive(0.85, None).syntax_rank;
        let key = StageKey::new(STAGE_SYNTAX_RANK, content_hash(b), fingerprint);
        let a_verdict = crate::curate(a, None);
        assert_eq!(a_verdict, CurationArtifact::Syntax, "fixture drifted");
        store.put(&key, a, &a_verdict).unwrap();
        assert_eq!(store.get::<CurationArtifact>(&key, b), Lookup::Invalid);
        let cached = Pipeline::new().cache_dir(root.clone()).run(pool(&[b]));
        let uncached = Pipeline::new().run(pool(&[b]));
        assert_eq!(cached.dataset, uncached.dataset);
        assert_eq!(cached.funnel, uncached.funnel);
        assert_eq!(cached.funnel.curated, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn curation_artifact_round_trips_through_json() {
        for art in [
            CurationArtifact::Syntax,
            CurationArtifact::Sim,
            CurationArtifact::Keep {
                rank: Rank::new(17),
                tier: ComplexityTier::Advanced,
                layer: Layer::L2,
                dependency_issue: false,
            },
        ] {
            let text = serde_json::to_string(&art).unwrap();
            let back: CurationArtifact = serde_json::from_str(&text).unwrap();
            assert_eq!(back, art);
        }
    }
}
