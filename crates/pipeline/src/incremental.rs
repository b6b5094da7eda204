//! Incremental curation: per-stage artifact caching over `pyranet-cache`.
//!
//! Every per-sample stage verdict is a pure function of the sample's
//! *content* and the stage's *configuration*, so it can be stored in a
//! content-addressed store and reused across builds — an edited corpus
//! re-pays only for the samples that changed. This module owns the glue:
//! the stage names/versions, the config fingerprints (which knob feeds
//! which stage), the serialized artifact shapes, and `memo`, the one
//! helper through which each stage of `Pipeline::run` reaches the
//! optional store. Each stage is written once; without a store its memo
//! is plain computation.
//!
//! Invalidation rules (each knob retires exactly the stages it feeds):
//!
//! | stage        | artifact                      | fingerprint knobs        |
//! |--------------|-------------------------------|--------------------------|
//! | `broken`     | rejected: bool                | — (version only)         |
//! | `no_module`  | rejected: bool                | — (version only)         |
//! | `dedup_sig`  | sorted shingles + MinHash sig | num_hashes, bands        |
//! | `dedup_join` | *(none — always re-runs)*     | jaccard threshold        |
//! | `syntax_rank`| syntax/sim/keep verdict       | rank-judge version, sim  |
//!
//! The jaccard threshold deliberately does **not** fingerprint
//! `dedup_sig`: signatures are threshold-independent, and the only
//! threshold consumer — the cross-sample LSH join — re-runs on every
//! build anyway (a sample's duplicate verdict depends on every *other*
//! sample, so it cannot be cached per sample). Changing the threshold
//! therefore re-runs only the join, on cached signatures.
//!
//! Determinism: every lookup is keyed by content, never by index or
//! thread, and the memo sits inside the same order-preserving `par_map`
//! fan-out whether or not a store is open — so cached, uncached,
//! partially-cached, and any-thread-count runs all produce byte-identical
//! curated output, with each stage consulting only its own artifacts over
//! exactly the samples it would compute.

use crate::dedup::{BANDS, NUM_HASHES};
use crate::layers::Layer;
use crate::rank::{Rank, RANK_JUDGE_VERSION};
use pyranet_cache::{content_hash, ArtifactStore, Fingerprint, Lookup, StageKey, StageProvenance};
use pyranet_verilog::metrics::ComplexityTier;
use pyranet_verilog::SimMode;
use serde::{Deserialize, Serialize};

/// Artifact-format versions, one per stage. Bump a stage's version when
/// its artifact shape or verdict semantics change; old artifacts become
/// unreachable (different fingerprint) instead of being misread.
const BROKEN_VERSION: u32 = 1;
const NO_MODULE_VERSION: u32 = 1;
const DEDUP_SIG_VERSION: u32 = 1;
const DEDUP_JOIN_VERSION: u32 = 1;
const SYNTAX_RANK_VERSION: u32 = 1;

/// Stage names — the first component of every [`StageKey`].
pub const STAGE_BROKEN: &str = "broken";
pub const STAGE_NO_MODULE: &str = "no_module";
pub const STAGE_DEDUP_SIG: &str = "dedup_sig";
pub const STAGE_DEDUP_JOIN: &str = "dedup_join";
pub const STAGE_SYNTAX_RANK: &str = "syntax_rank";

/// A cached filter verdict (stages 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterArtifact {
    pub rejected: bool,
}

/// A dedup signature, computed or cached: the sample's shingle set (sorted
/// and deduplicated, so the stored bytes are stable across runs and
/// Jaccard is a merge) plus its MinHash signature. The shingle set rides
/// along because the LSH join verifies candidate pairs with *exact*
/// Jaccard, not the signature estimate. A stored signature of the wrong
/// length does not decode, so it reads as invalid and is recomputed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DedupSigArtifact {
    pub shingles: Vec<u64>,
    pub sig: [u64; NUM_HASHES],
}

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
    pub broken: u64,
    pub no_module: u64,
    pub dedup_sig: u64,
    pub dedup_join: u64,
    pub syntax_rank: u64,
}

impl StageFingerprints {
    /// Derives the fingerprints from the pipeline's knobs.
    pub fn derive(jaccard_threshold: f64, sim_check: Option<SimMode>) -> StageFingerprints {
        StageFingerprints {
            broken: Fingerprint::stage(STAGE_BROKEN, BROKEN_VERSION).finish(),
            no_module: Fingerprint::stage(STAGE_NO_MODULE, NO_MODULE_VERSION).finish(),
            dedup_sig: Fingerprint::stage(STAGE_DEDUP_SIG, DEDUP_SIG_VERSION)
                .knob("num_hashes", &NUM_HASHES.to_string())
                .knob("bands", &BANDS.to_string())
                .finish(),
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
    /// written into the cache root's manifest and embedded in the shard
    /// `manifest.json`.
    pub fn provenance(&self) -> Vec<StageProvenance> {
        vec![
            StageProvenance::new(STAGE_BROKEN, BROKEN_VERSION, self.broken),
            StageProvenance::new(STAGE_NO_MODULE, NO_MODULE_VERSION, self.no_module),
            StageProvenance::new(STAGE_DEDUP_SIG, DEDUP_SIG_VERSION, self.dedup_sig),
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

/// The one way a curation stage reaches the store: `stage`'s artifact for
/// one sample's `source`. Without a store this is plain `compute()`. With
/// one, a verified hit is returned as is, and a miss or an invalid entry
/// is computed and published.
pub(crate) fn memo<A: Serialize + Deserialize>(
    store: Option<&ArtifactStore>,
    stage: &'static str,
    fingerprint: u64,
    source: &str,
    compute: impl FnOnce() -> A,
) -> A {
    let Some(store) = store else { return compute() };
    let key = StageKey::new(stage, content_hash(source), fingerprint);
    if let Lookup::Hit(artifact) = store.get(&key) {
        return artifact;
    }
    let artifact = compute();
    // Advisory write: a full disk must not fail the build.
    store.put(&key, &artifact).ok();
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
        assert_eq!(base.broken, threshold.broken);
        assert_eq!(base.no_module, threshold.no_module);
        assert_eq!(base.dedup_sig, threshold.dedup_sig);
        assert_eq!(base.syntax_rank, threshold.syntax_rank);
        assert_ne!(base.dedup_join, threshold.dedup_join);
        // The sim mode feeds only the syntax/rank/sim stage.
        let sim = StageFingerprints::derive(0.85, Some(SimMode::Compiled));
        assert_eq!(base.dedup_sig, sim.dedup_sig);
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
        assert_eq!(
            names,
            vec![
                STAGE_BROKEN,
                STAGE_NO_MODULE,
                STAGE_DEDUP_SIG,
                STAGE_DEDUP_JOIN,
                STAGE_SYNTAX_RANK
            ]
        );
    }

    /// Pins the on-disk artifact format: the config fingerprints and the
    /// payload bytes each stage publishes for fixed sources. A change here
    /// silently turns every existing store into misses, so it must come
    /// with a stage-version bump, never by accident.
    #[test]
    fn published_artifacts_are_pinned() {
        use pyranet_cache::hash_bytes;

        let fp = StageFingerprints::derive(0.85, None);
        let fingerprints = [fp.broken, fp.no_module, fp.dedup_sig, fp.dedup_join, fp.syntax_rank];
        assert_eq!(
            fingerprints,
            [
                0xf19d_b034_640b_7c81,
                0x5ded_ba20_b756_118a,
                0xa7c4_8b6c_806c_6830,
                0x83b6_36b4_aab0_c4b9,
                0xaade_f66b_657c_4379,
            ]
        );

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
        let stages = [
            (STAGE_BROKEN, fp.broken),
            (STAGE_NO_MODULE, fp.no_module),
            (STAGE_DEDUP_SIG, fp.dedup_sig),
            (STAGE_SYNTAX_RANK, fp.syntax_rank),
        ];
        // Per source, per stage: FNV-1a of the published payload line, or
        // 0 when the stage never saw the source.
        let payloads: Vec<[u64; 4]> = sources
            .iter()
            .map(|src| {
                stages.map(|(stage, config)| {
                    let key = StageKey::new(stage, content_hash(src), config);
                    std::fs::read_to_string(store.object_path(&key))
                        .map_or(0, |entry| hash_bytes(entry.split_once('\n').unwrap().1.as_bytes()))
                })
            })
            .collect();
        std::fs::remove_dir_all(&root).ok();
        // `FilterArtifact { rejected: false }` and `{ rejected: true }`.
        const KEPT: u64 = 0x7ed5_0b20_0175_0110;
        const REJECTED: u64 = 0xf04d_bb2f_f462_68e5;
        assert_eq!(
            payloads,
            [
                [KEPT, KEPT, 0xb6c7_6a5f_37b5_0604, 0xb51b_fd3f_3871_4d9a],
                [KEPT, KEPT, 0xaf64_ee22_c24f_0258, 0x15dc_87b4_2113_e1cc],
                [KEPT, KEPT, 0xd449_276e_20b3_43f1, 0x6e8d_41ab_9e3e_55f0],
                [KEPT, REJECTED, 0, 0],
                [REJECTED, 0, 0, 0],
            ]
        );
    }

    #[test]
    fn a_cached_signature_of_the_wrong_length_is_recomputed() {
        #[derive(Serialize)]
        struct ShortSig {
            shingles: Vec<u64>,
            sig: Vec<u64>,
        }
        let root = temp_store("short-sig");
        let store = ArtifactStore::open(&root).unwrap();
        let fingerprint = StageFingerprints::derive(0.85, None).dedup_sig;
        let key = StageKey::new(STAGE_DEDUP_SIG, content_hash(INV), fingerprint);
        store.put(&key, &ShortSig { shingles: vec![1], sig: vec![0; NUM_HASHES - 1] }).unwrap();
        assert_eq!(store.get::<DedupSigArtifact>(&key), Lookup::Invalid);
        let cached = Pipeline::new().cache_dir(root.clone()).run(pool(&[INV]));
        assert_eq!(cached.dataset, Pipeline::new().run(pool(&[INV])).dataset);
        assert_eq!(store.get(&key), Lookup::Hit(crate::dedup::signature(INV)));
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
