//! Incremental curation: stage 4's verdicts, kept in one record file per
//! configuration.
//!
//! Stage 4 (parse, syntax check, opt-in sim, rank, complexity) is the one
//! stage of `Pipeline::run` whose verdict is stored: it is a pure function
//! of the sample's *content* and the stage's *configuration*, and
//! computing it costs more than reading it back. The filters and the
//! dedup signatures cost less to recompute than to read, so they always
//! recompute. This module owns the whole memo: the stage names and
//! versions, the config fingerprints (which knob feeds which stage), the
//! stored verdict, the record file, and [`memo`], through which stage 4
//! runs. Without a cache directory the memo is plain computation.
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
//! The store is `<cache dir>/syntax_rank-<fingerprint>.records`, one
//! record per stored verdict:
//!
//! ```text
//! <checksum: 16 hex> <payload bytes> <source bytes>\n
//! <payload: the verdict as one JSON line>\n
//! <source: the sample's text, raw>\n
//! ```
//!
//! The checksum is FNV-1a 64 over every byte of the record after it. A
//! build reads the file once, into a map keyed by the source text itself,
//! so a verdict is only ever served for byte-identical text. A record that
//! fails its checksum or separators is dropped; a record that cannot be
//! delimited ends the load and is dropped with everything after it. Each drop counts in
//! `cache.invalidated`, and the samples it held recompute. The file is
//! rewritten at most once per build, and only when the build computed a
//! verdict or dropped a record: the loaded records in file order, then
//! the new ones in stage-4 input order, published by a tmp write and a
//! rename, so a build killed before or during its write leaves the old
//! file whole.
//!
//! Determinism: every lookup is keyed by content, never by index or
//! thread, and `par_map` keeps input order, so a cold build misses exactly
//! once per stage-4 input and writes the same bytes at any thread count.
//! Cached, uncached, partially-cached and any-thread-count runs all
//! produce byte-identical curated output.

use crate::layers::Layer;
use crate::persist::{write_atomic, StageProvenance};
use crate::rank::{Rank, RANK_JUDGE_VERSION};
use pyranet_corpus::RawSample;
use pyranet_exec::{fnv1a64, par_map, ExecConfig, Fnv64};
use pyranet_verilog::metrics::ComplexityTier;
use pyranet_verilog::SimMode;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// Artifact-format versions, one per stage. Bump a stage's version when
/// its artifact shape or verdict semantics change; old records land in a
/// file of another fingerprint instead of being misread.
const DEDUP_JOIN_VERSION: u32 = 1;
const SYNTAX_RANK_VERSION: u32 = 1;

/// Stage names, as the fingerprints and the provenance records carry them.
pub const STAGE_DEDUP_JOIN: &str = "dedup_join";
pub const STAGE_SYNTAX_RANK: &str = "syntax_rank";

/// A stage-4 verdict: rejected by the syntax check, rejected by the
/// opt-in sim check, or kept with the derived quality labels. The kept
/// variant stores only content-derived fields — id, source, and
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
    /// Derives the fingerprints from the pipeline's knobs. The `f64`
    /// threshold enters as the hex of its bits, so the fingerprint is
    /// exact (no formatting round-trip).
    pub fn derive(jaccard_threshold: f64, sim_check: Option<SimMode>) -> StageFingerprints {
        let jaccard = format!("{:016x}", jaccard_threshold.to_bits());
        let rank_judge = RANK_JUDGE_VERSION.to_string();
        StageFingerprints {
            dedup_join: fingerprint(STAGE_DEDUP_JOIN, DEDUP_JOIN_VERSION, &[("jaccard", &jaccard)]),
            syntax_rank: fingerprint(
                STAGE_SYNTAX_RANK,
                SYNTAX_RANK_VERSION,
                &[("rank_judge", &rank_judge), ("sim", sim_knob(sim_check))],
            ),
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

/// A stage's config fingerprint: FNV-1a over the stage name, its version
/// and each `name=value;` knob in order. Any knob change or version bump
/// gives a different fingerprint.
fn fingerprint(stage: &str, version: u32, knobs: &[(&str, &str)]) -> u64 {
    let mut h = Fnv64::new();
    h.write(stage.as_bytes());
    h.write_u64(u64::from(version));
    for (name, value) in knobs {
        h.write(name.as_bytes());
        h.write(b"=");
        h.write(value.as_bytes());
        h.write(b";");
    }
    h.finish()
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

/// The record file holding stage 4's verdicts under `fingerprint`.
fn records_path(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(format!("{STAGE_SYNTAX_RANK}-{fingerprint:016x}.records"))
}

/// Stage 4 over `alive`: each sample with its verdict, in input order.
/// Without a cache dir this is `compute` fanned out across `exec`. With
/// one, the dir's record file for `fingerprint` is read once, a sample
/// whose exact text it holds reuses the stored verdict, the others are
/// computed, and the file is rewritten once if anything changed. An
/// unreadable store degrades to an uncached run, and a failed write loses
/// only the new verdicts: caching can change speed, never output.
pub(crate) fn memo(
    cache_dir: Option<&Path>,
    fingerprint: u64,
    exec: &ExecConfig,
    alive: Vec<RawSample>,
    compute: impl Fn(&str) -> CurationArtifact + Sync,
) -> Vec<(RawSample, CurationArtifact)> {
    let uncached = |alive: Vec<RawSample>| {
        par_map(exec, alive, |s| {
            let verdict = compute(&s.source);
            (s, verdict)
        })
    };
    let Some(dir) = cache_dir else { return uncached(alive) };
    let obs = pyranet_obs::global();
    let path = records_path(dir, fingerprint);
    let bytes = std::fs::create_dir_all(dir).and_then(|()| match std::fs::read(&path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    });
    let Ok(bytes) = bytes else {
        obs.counter("cache.open_errors").inc();
        return uncached(alive);
    };

    let loaded = load(&bytes);
    let verdicts = par_map(exec, alive, |s| match loaded.verdicts.get(s.source.as_str()) {
        Some(verdict) => (s, verdict.clone(), false),
        None => {
            let verdict = compute(&s.source);
            (s, verdict, true)
        }
    });
    let (mut new_records, mut misses) = (Vec::new(), 0u64);
    let verdicts: Vec<_> = verdicts
        .into_iter()
        .map(|(s, verdict, computed)| {
            if computed {
                push_record(&mut new_records, &verdict, &s.source);
                misses += 1;
            }
            (s, verdict)
        })
        .collect();
    let (written, failed) = if misses > 0 || loaded.dropped > 0 {
        let mut file = loaded.kept.concat();
        file.extend_from_slice(&new_records);
        // Advisory write: a full disk must not fail the build.
        match write_atomic(&path, &file) {
            Ok(()) => (misses, 0),
            Err(_) => (0, misses),
        }
    } else {
        (0, 0)
    };
    for (name, count) in [
        ("hits", verdicts.len() as u64 - misses),
        ("misses", misses),
        ("invalidated", loaded.dropped),
        ("writes", written),
        ("write_errors", failed),
    ] {
        obs.counter(&format!("cache.{name}")).add(count);
    }
    verdicts
}

/// A record file as loaded: the verdicts keyed by source text, the good
/// records' bytes in file order, and the number of records dropped.
struct Loaded<'a> {
    verdicts: HashMap<&'a str, CurationArtifact>,
    kept: Vec<&'a [u8]>,
    dropped: u64,
}

fn load(bytes: &[u8]) -> Loaded<'_> {
    let mut loaded = Loaded { verdicts: HashMap::new(), kept: Vec::new(), dropped: 0 };
    for record in records(bytes) {
        let verdict = record.and_then(|r| Some((r, serde_json::from_str(r.payload).ok()?)));
        let Some((record, verdict)) = verdict else {
            loaded.dropped += 1;
            continue;
        };
        loaded.verdicts.entry(record.source).or_insert(verdict);
        loaded.kept.push(record.bytes);
    }
    loaded
}

/// One verified record: its bytes, verdict payload and source text.
#[derive(Clone, Copy)]
struct Record<'a> {
    bytes: &'a [u8],
    payload: &'a str,
    source: &'a str,
}

/// The records of a file, in file order: `None` for one that failed its
/// checksum or its separators. A record that cannot be delimited (no
/// header line, unreadable lengths, lengths past the end) is the last
/// item, a `None`: nothing after it can be found.
fn records(mut rest: &[u8]) -> impl Iterator<Item = Option<Record<'_>>> {
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let Some((len, record)) = split_record(rest) else {
            rest = &[];
            return Some(None);
        };
        rest = &rest[len..];
        Some(record)
    })
}

/// The length of the record at the start of `rest` and the record itself
/// if it verifies; `None` when it cannot be delimited.
fn split_record(rest: &[u8]) -> Option<(usize, Option<Record<'_>>)> {
    // 16 hex digits and two decimal lengths fit in 64 bytes.
    let eol = rest.iter().take(64).position(|&b| b == b'\n')?;
    let mut fields = std::str::from_utf8(&rest[..eol]).ok()?.split(' ');
    let checksum = u64::from_str_radix(fields.next().filter(|f| f.len() == 16)?, 16).ok()?;
    let payload_len: usize = fields.next()?.parse().ok()?;
    let source_len: usize = fields.next()?.parse().ok()?;
    if fields.next().is_some() {
        return None;
    }
    let len = (eol + 1).checked_add(payload_len)?.checked_add(source_len)?.checked_add(2)?;
    let bytes = rest.get(..len)?;
    let verified = || {
        // The checksum covers every byte after its own 16 digits.
        if fnv1a64(&bytes[16..]) != checksum {
            return None;
        }
        let (payload, rest) = bytes[eol + 1..].split_at(payload_len);
        let (&b'\n', source) = rest.split_first()? else { return None };
        let (&b'\n', source) = source.split_last()? else { return None };
        let (payload, source) =
            (std::str::from_utf8(payload).ok()?, std::str::from_utf8(source).ok()?);
        Some(Record { bytes, payload, source })
    };
    Some((len, verified()))
}

/// Appends the record for `verdict` on `source`.
fn push_record(file: &mut Vec<u8>, verdict: &CurationArtifact, source: &str) {
    let payload = serde_json::to_string(verdict).expect("a verdict always serializes");
    let body = format!(" {} {}\n{payload}\n{source}\n", payload.len(), source.len());
    file.extend_from_slice(format!("{:016x}", fnv1a64(body.as_bytes())).as_bytes());
    file.extend_from_slice(body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use pyranet_corpus::{Origin, TruthLabel};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const INV: &str = "module inv(input a, output y);\n  assign y = ~a;\nendmodule\n";
    const BAD: &str = "module bad(input a, output y);\n  assign y = a\nendmodule\n";
    const TOP: &str = "module top(input a, output y);\n  sub u(.a(a), .y(y));\nendmodule\n";

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

    fn default_fingerprint() -> u64 {
        StageFingerprints::derive(0.85, None).syntax_rank
    }

    /// Stage 4 over `sources` against the store in `dir`: the verdicts,
    /// and how many of them were computed rather than read.
    fn stage4(dir: &Path, sources: &[&str]) -> (Vec<CurationArtifact>, usize) {
        let computed = AtomicUsize::new(0);
        let exec = ExecConfig::new().threads(1);
        let out = memo(Some(dir), default_fingerprint(), &exec, pool(sources), |source| {
            computed.fetch_add(1, Ordering::Relaxed);
            crate::curate(source, None)
        });
        (out.into_iter().map(|(_, verdict)| verdict).collect(), computed.into_inner())
    }

    /// Writes `bytes` as the store, then checks that every verdict it
    /// would serve is the one stage 4 computes for that exact text, that a
    /// build over `sources` equals the uncached one, and that the build
    /// after it is all hits and leaves the store as it found it.
    fn assert_recovers(dir: &Path, sources: &[&str], bytes: &[u8], what: &str) {
        for (source, verdict) in load(bytes).verdicts {
            assert_eq!(verdict, crate::curate(source, None), "{what}: wrong verdict served");
        }
        let want: Vec<CurationArtifact> = sources.iter().map(|s| crate::curate(s, None)).collect();
        let path = records_path(dir, default_fingerprint());
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(stage4(dir, sources).0, want, "{what}: build after the damage");
        let healed = std::fs::read(&path).unwrap();
        assert_eq!(stage4(dir, sources), (want, 0), "{what}: build after the recompute");
        assert_eq!(std::fs::read(&path).unwrap(), healed, "{what}: an all-hit build wrote");
    }

    #[test]
    fn fingerprints_isolate_their_knobs() {
        let base = StageFingerprints::derive(0.85, None);
        let threshold = StageFingerprints::derive(0.9, None);
        // The jaccard threshold feeds only the (uncacheable) join stage.
        assert_eq!(base.syntax_rank, threshold.syntax_rank);
        assert_ne!(base.dedup_join, threshold.dedup_join);
        // It enters bit for bit: 0.1 + 0.2 != 0.3 in f64, and the
        // fingerprint sees the difference a rendering could hide.
        let (sum, literal) =
            (StageFingerprints::derive(0.1 + 0.2, None), StageFingerprints::derive(0.3, None));
        assert_ne!(sum.dedup_join, literal.dedup_join);
        // The sim mode feeds only the syntax/rank/sim stage.
        let sim = StageFingerprints::derive(0.85, Some(SimMode::Compiled));
        assert_eq!(base.dedup_join, sim.dedup_join);
        assert_ne!(base.syntax_rank, sim.syntax_rank);
        // The two sim backends are keyed apart.
        let reference = StageFingerprints::derive(0.85, Some(SimMode::Reference));
        assert_ne!(sim.syntax_rank, reference.syntax_rank);
        // A version bump or another stage name retires every knob set.
        let knobs = [("sim", "off")];
        assert_ne!(fingerprint("s", 1, &knobs), fingerprint("s", 2, &knobs));
        assert_ne!(fingerprint("s", 1, &knobs), fingerprint("t", 1, &knobs));
    }

    #[test]
    fn provenance_lists_every_stage_once() {
        let prov = StageFingerprints::derive(0.85, None).provenance();
        let names: Vec<&str> = prov.iter().map(|p| p.stage.as_str()).collect();
        assert_eq!(names, vec![STAGE_DEDUP_JOIN, STAGE_SYNTAX_RANK]);
    }

    /// Pins the on-disk format: the config fingerprints and the payload
    /// bytes stage 4 stores for fixed sources. A change here silently
    /// turns every existing store into misses, so it must come with a
    /// stage-version bump, never by accident.
    #[test]
    fn published_artifacts_are_pinned() {
        let fp = StageFingerprints::derive(0.85, None);
        assert_eq!([fp.dedup_join, fp.syntax_rank], [0x83b6_36b4_aab0_c4b9, 0xaade_f66b_657c_4379]);

        let sources = [INV, TOP, BAD, "just some notes, no hardware here\n", "   \n"];
        let root = temp_store("artifact-pins");
        Pipeline::new().threads(1).cache_dir(root.clone()).run(pool(&sources));
        let bytes = std::fs::read(records_path(&root, fp.syntax_rank)).unwrap();
        std::fs::remove_dir_all(&root).ok();
        let stored: HashMap<&str, u64> = records(&bytes)
            .map(|record| record.expect("a fresh store holds only good records"))
            .map(|record| (record.source, fnv1a64(record.payload.as_bytes())))
            .collect();
        // Per source: FNV-1a of its record's payload, or 0 when stage 4
        // never saw the source.
        let payloads: Vec<u64> =
            sources.iter().map(|src| stored.get(src).map_or(0, |h| *h)).collect();
        assert_eq!(
            payloads,
            [0xb51b_fd3f_3871_4d9a, 0x15dc_87b4_2113_e1cc, 0x6e8d_41ab_9e3e_55f0, 0, 0]
        );
    }

    /// Stores one well-formed record holding `forged` with A's syntax
    /// rejection, then builds B (`INV`). `forged` is not B's text byte for
    /// byte, so B must be computed, never handed the rejection, and the
    /// build must equal the uncached one.
    fn assert_forged_record_is_never_served(tag: &str, forged: &str) {
        let (a, b) = (BAD, INV);
        let a_verdict = crate::curate(a, None);
        assert_eq!(a_verdict, CurationArtifact::Syntax, "fixture drifted");
        let root = temp_store(tag);
        std::fs::create_dir_all(&root).unwrap();
        let mut file = Vec::new();
        push_record(&mut file, &a_verdict, forged);
        std::fs::write(records_path(&root, default_fingerprint()), &file).unwrap();
        assert_eq!(stage4(&root, &[b]), (vec![crate::curate(b, None)], 1));
        let cached = Pipeline::new().cache_dir(root.clone()).run(pool(&[b]));
        let uncached = Pipeline::new().run(pool(&[b]));
        assert_eq!(cached.dataset, uncached.dataset);
        assert_eq!(cached.funnel, uncached.funnel);
        assert_eq!(cached.funnel.curated, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_verdict_stored_for_another_source_is_never_served() {
        assert_forged_record_is_never_served("forged", BAD);
    }

    #[test]
    fn a_record_whose_source_differs_by_one_byte_is_never_served() {
        // B's text with one trailing byte: the nearest miss to a record
        // for B itself.
        assert_forged_record_is_never_served("forged-near", &format!("{INV} "));
    }

    #[test]
    fn a_flipped_store_byte_costs_a_recompute_never_a_wrong_verdict() {
        let sources = [INV, BAD, TOP];
        let root = temp_store("flip");
        assert_eq!(stage4(&root, &sources).1, 3, "cold build computes every verdict");
        let good = std::fs::read(records_path(&root, default_fingerprint())).unwrap();
        assert_eq!(stage4(&root, &sources).1, 0, "warm build computes none");
        // Header, lengths, separators, payload and source alike.
        for mask in [0x01u8, 0x20, 0x80] {
            for pos in 0..good.len() {
                let mut bytes = good.clone();
                bytes[pos] ^= mask;
                if mask == 0x01 {
                    assert!(load(&bytes).dropped > 0, "flip at {pos} went unnoticed");
                }
                assert_recovers(&root, &sources, &bytes, &format!("byte {pos} ^ {mask:#x}"));
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_truncated_store_keeps_its_whole_records() {
        let sources = [INV, BAD, TOP];
        let root = temp_store("truncate");
        stage4(&root, &sources);
        let good = std::fs::read(records_path(&root, default_fingerprint())).unwrap();
        let mut ends = Vec::new();
        for record in records(&good) {
            ends.push(ends.last().unwrap_or(&0) + record.unwrap().bytes.len());
        }
        assert_eq!(ends.len(), 3);
        for keep in 0..good.len() {
            let loaded = load(&good[..keep]);
            let whole = ends.iter().filter(|&&end| end <= keep).count();
            assert_eq!(loaded.verdicts.len(), whole, "kept {keep} bytes");
            assert_eq!(loaded.dropped, u64::from(!ends.contains(&keep) && keep > 0));
            assert_recovers(&root, &sources, &good[..keep], &format!("kept {keep} bytes"));
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn an_unusable_cache_dir_degrades_to_an_uncached_run() {
        let root = temp_store("unusable");
        std::fs::write(&root, b"a file, not a directory").unwrap();
        let cached = Pipeline::new().cache_dir(root.clone()).run(pool(&[INV, BAD]));
        let uncached = Pipeline::new().run(pool(&[INV, BAD]));
        assert_eq!(cached.dataset, uncached.dataset);
        assert_eq!(cached.funnel, uncached.funnel);
        std::fs::remove_file(&root).ok();
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
