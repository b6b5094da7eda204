//! Sharded JSONL persistence with a manifest.
//!
//! Dataset export/import is the interface every downstream consumer of the
//! pyramid uses, so it follows the shape real Verilog corpora ship in
//! (MG-Verilog, VerilogDB): a directory of JSONL **shards** plus a
//! `manifest.json` that records, per shard, the file name, sample count,
//! byte size, and an FNV-1a content checksum. Import verifies every shard
//! against the manifest, so a truncated or corrupted shard is detected and
//! the offending file is named — never silently absorbed.
//!
//! Two sharding policies ([`ShardSpec`]):
//!
//! * [`ShardSpec::PerLayer`] — one shard per populated pyramid layer
//!   (`layer-1.jsonl` … `layer-6.jsonl`), so consumers can stream a single
//!   quality band. Samples keep their relative order inside each layer;
//!   re-importing yields the layer-grouped (stable) permutation.
//! * [`ShardSpec::MaxSamples`] — fixed-size shards in dataset order
//!   (`shard-00000.jsonl`, …), so re-importing is **bit-identical** to the
//!   exported dataset.
//!
//! Shard serialization fans out through [`pyranet_exec::par_map`]; shard
//! assignment is a pure function of sample index (and layer), so the bytes
//! on disk are identical at any thread count. Every write path flushes
//! explicitly and propagates the error — a short write (disk full, quota)
//! can never report success.

use crate::dataset::{parse_jsonl_line, CuratedSample, PyraNetDataset};
use crate::layers::Layer;
use crate::stats::Funnel;
use pyranet_exec::{par_map, ExecConfig};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// File name of the shard index inside an export directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Manifest schema version written by this build. Version 2 added the
/// optional curation funnel and the stage-provenance records (both always
/// present as fields; `funnel` is `null` and `provenance` empty when the
/// exporter has nothing to record).
pub const FORMAT_VERSION: u32 = 2;

/// How a dataset is split into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// One shard per populated layer (`layer-<i>.jsonl`), apex first.
    /// Import order is layer-grouped: a stable permutation of the input.
    PerLayer,
    /// Shards of at most this many samples, in dataset order
    /// (`shard-<k>.jsonl`). Import order is bit-identical to the input.
    MaxSamples(usize),
}

/// One shard's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Shard file name, relative to the manifest's directory.
    pub file: String,
    /// Samples (JSONL lines) in the shard.
    pub samples: u64,
    /// Shard size in bytes — a cheap truncation check before hashing.
    pub bytes: u64,
    /// FNV-1a 64-bit checksum of the shard's bytes, 16 lowercase hex
    /// digits.
    pub checksum: String,
}

/// The shard index: dataset-level counts plus per-shard integrity data.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Manifest schema version (see [`FORMAT_VERSION`]).
    pub format_version: u32,
    /// Samples across all shards.
    pub total_samples: u64,
    /// Per-layer sample counts, apex first (the Fig. 1-a pyramid).
    pub layer_counts: [u64; 6],
    /// The curation funnel of the run that produced this export, when the
    /// exporter had it (`null` for datasets assembled outside a pipeline
    /// run).
    pub funnel: Option<Funnel>,
    /// Stage provenance of the producing pipeline configuration (stage
    /// name, artifact version, config fingerprint); empty when unknown.
    pub provenance: Vec<StageProvenance>,
    /// Shards in import order.
    pub shards: Vec<ShardEntry>,
}

/// One stage's provenance: name, artifact-format version, and the config
/// fingerprint (16 hex digits) its verdicts are keyed under (see
/// [`crate::incremental`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageProvenance {
    pub stage: String,
    pub version: u32,
    pub fingerprint: String,
}

impl StageProvenance {
    /// Builds a record from a stage's raw fingerprint value.
    pub fn new(stage: &str, version: u32, fingerprint: u64) -> StageProvenance {
        StageProvenance {
            stage: stage.to_owned(),
            version,
            fingerprint: format_checksum(fingerprint),
        }
    }
}

/// Run metadata an exporter can embed into the shard manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExportMeta {
    /// The producing run's curation funnel.
    pub funnel: Option<Funnel>,
    /// The producing run's stage provenance.
    pub provenance: Vec<StageProvenance>,
}

impl ShardManifest {
    /// Reads and validates `manifest.json` from an export directory.
    ///
    /// # Errors
    ///
    /// I/O errors, malformed JSON (attributed to the manifest file), and
    /// unsupported `format_version`s.
    pub fn load(dir: &Path) -> io::Result<ShardManifest> {
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let manifest: ShardManifest = serde_json::from_str(&text).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{MANIFEST_FILE}: {e}"))
        })?;
        if manifest.format_version != FORMAT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{MANIFEST_FILE}: unsupported format_version {} (this build reads {})",
                    manifest.format_version, FORMAT_VERSION
                ),
            ));
        }
        Ok(manifest)
    }
}

/// FNV-1a 64-bit hash — the shard content checksum.
pub use pyranet_exec::fnv1a64;

/// Renders a checksum the way the manifest stores it.
pub fn format_checksum(sum: u64) -> String {
    format!("{sum:016x}")
}

impl PyraNetDataset {
    /// Exports the dataset as JSONL shards plus `manifest.json` under
    /// `dir` (created if missing). Shards are serialized in parallel
    /// through `exec`; the files written are byte-identical at any thread
    /// count. Every file is flush-checked before success is reported.
    ///
    /// # Errors
    ///
    /// I/O failures (including flush/short-write), and
    /// `ShardSpec::MaxSamples(0)`.
    pub fn to_shards(
        &self,
        dir: &Path,
        spec: ShardSpec,
        exec: &ExecConfig,
    ) -> io::Result<ShardManifest> {
        self.to_shards_with_meta(dir, spec, exec, ExportMeta::default())
    }

    /// [`PyraNetDataset::to_shards`] with run metadata (funnel, stage
    /// provenance) embedded into the manifest.
    ///
    /// # Errors
    ///
    /// Same as [`PyraNetDataset::to_shards`].
    pub fn to_shards_with_meta(
        &self,
        dir: &Path,
        spec: ShardSpec,
        exec: &ExecConfig,
        meta: ExportMeta,
    ) -> io::Result<ShardManifest> {
        let groups = self.plan_shards(spec)?;
        std::fs::create_dir_all(dir)?;

        // Serialization is a pure per-shard function, so the fan-out keeps
        // the executor's determinism contract; writing stays sequential in
        // shard order so the first failure reported is stable.
        let rendered: Vec<(String, Result<Vec<u8>, String>)> =
            par_map(exec, groups, |(name, samples)| {
                let mut bytes = Vec::new();
                let mut line = String::with_capacity(1024);
                for s in samples {
                    line.clear();
                    if let Err(e) = serde_json::to_string_into(s, &mut line) {
                        return (name, Err(e.to_string()));
                    }
                    line.push('\n');
                    bytes.extend_from_slice(line.as_bytes());
                }
                (name, Ok(bytes))
            });

        let mut shards = Vec::with_capacity(rendered.len());
        for (name, bytes) in rendered {
            let bytes = bytes
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{name}: {e}")))?;
            let samples = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
            write_flushed(&dir.join(&name), &bytes)
                .map_err(|e| io::Error::new(e.kind(), format!("{name}: {e}")))?;
            shards.push(ShardEntry {
                file: name,
                samples,
                bytes: bytes.len() as u64,
                checksum: format_checksum(fnv1a64(&bytes)),
            });
        }

        let mut layer_counts = [0u64; 6];
        for (i, &n) in self.layer_counts().iter().enumerate() {
            layer_counts[i] = n as u64;
        }
        let manifest = ShardManifest {
            format_version: FORMAT_VERSION,
            total_samples: self.len() as u64,
            layer_counts,
            funnel: meta.funnel,
            provenance: meta.provenance,
            shards,
        };
        let text = serde_json::to_string_pretty(&manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_flushed(&dir.join(MANIFEST_FILE), text.as_bytes())
            .map_err(|e| io::Error::new(e.kind(), format!("{MANIFEST_FILE}: {e}")))?;
        Ok(manifest)
    }

    /// Imports a sharded export, verifying every shard's byte size, FNV-1a
    /// checksum, and sample count against the manifest, plus the
    /// dataset-level totals. Shards are read and parsed in parallel
    /// through `exec`; failures name the offending file (and line, for
    /// parse errors), and the first failure in shard order wins at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// I/O failures, checksum/size/count mismatches, malformed JSONL.
    pub fn from_shards(dir: &Path, exec: &ExecConfig) -> io::Result<PyraNetDataset> {
        let manifest = ShardManifest::load(dir)?;
        let parsed = par_map(exec, manifest.shards.iter().collect(), |entry: &ShardEntry| {
            read_shard(dir, entry)
        });
        let mut ds = PyraNetDataset::new();
        for shard in parsed {
            ds.extend(shard?);
        }
        if ds.len() as u64 != manifest.total_samples {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{MANIFEST_FILE}: total_samples is {} but shards hold {}",
                    manifest.total_samples,
                    ds.len()
                ),
            ));
        }
        let counts = ds.layer_counts();
        for (i, &expected) in manifest.layer_counts.iter().enumerate() {
            if counts[i] as u64 != expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{MANIFEST_FILE}: layer {} count is {} but shards hold {}",
                        i + 1,
                        expected,
                        counts[i]
                    ),
                ));
            }
        }
        Ok(ds)
    }

    /// Shard groups for `spec`: `(file name, samples)` in import order.
    /// Assignment is a pure function of sample index and layer, so the
    /// plan (and therefore the bytes written) never depends on threading.
    fn plan_shards(&self, spec: ShardSpec) -> io::Result<Vec<(String, Vec<&CuratedSample>)>> {
        match spec {
            ShardSpec::PerLayer => Ok(Layer::ALL
                .iter()
                .map(|&l| (format!("layer-{}.jsonl", l.index()), self.layer(l).collect()))
                .filter(|(_, samples): &(_, Vec<&CuratedSample>)| !samples.is_empty())
                .collect()),
            ShardSpec::MaxSamples(0) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shard size must be at least 1 sample",
            )),
            ShardSpec::MaxSamples(size) => {
                let all: Vec<&CuratedSample> = self.iter().collect();
                Ok(all
                    .chunks(size)
                    .enumerate()
                    .map(|(k, chunk)| (format!("shard-{k:05}.jsonl"), chunk.to_vec()))
                    .collect())
            }
        }
    }
}

/// Reads and verifies one shard: byte size first (cheap truncation check),
/// then the FNV-1a checksum, then line-by-line parsing with `file:line`
/// error context, then the sample count. Every error names the shard
/// file.
fn read_shard(dir: &Path, entry: &ShardEntry) -> io::Result<Vec<CuratedSample>> {
    let path = dir.join(&entry.file);
    let bytes = std::fs::read(&path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", entry.file)))?;
    if bytes.len() as u64 != entry.bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: shard truncated or padded (manifest records {} bytes, file has {})",
                entry.file,
                entry.bytes,
                bytes.len()
            ),
        ));
    }
    let found = format_checksum(fnv1a64(&bytes));
    if found != entry.checksum {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: checksum mismatch (manifest {}, file {found}) — shard corrupted",
                entry.file, entry.checksum
            ),
        ));
    }
    let text = std::str::from_utf8(&bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", entry.file)))?;
    let mut samples = Vec::with_capacity(entry.samples as usize);
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        samples.push(parse_jsonl_line(line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}:{}: {e}", entry.file, i + 1))
        })?);
    }
    if samples.len() as u64 != entry.samples {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: manifest records {} samples, shard holds {}",
                entry.file,
                entry.samples,
                samples.len()
            ),
        ));
    }
    Ok(samples)
}

/// Loads a dataset from either a single `.jsonl` file, a sharded export
/// directory, or a path to its `manifest.json` — the one entry point CLI
/// consumers need. Single-file parse errors carry `path:line` context.
///
/// # Errors
///
/// I/O failures, malformed input, shard integrity mismatches.
pub fn load_dataset(path: &Path, exec: &ExecConfig) -> io::Result<PyraNetDataset> {
    if path.is_dir() {
        return PyraNetDataset::from_shards(path, exec);
    }
    if path.file_name().map(|n| n == MANIFEST_FILE).unwrap_or(false) {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        return PyraNetDataset::from_shards(dir.unwrap_or(Path::new(".")), exec);
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    let mut ds = PyraNetDataset::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        ds.push(parse_jsonl_line(line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}:{}: {e}", path.display(), i + 1))
        })?);
    }
    Ok(ds)
}

/// Creates/truncates `path`, writes `bytes`, and flushes explicitly so
/// short writes surface as errors instead of being swallowed by `Drop`.
fn write_flushed(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(bytes)?;
    file.flush()
}

/// Replaces `path` with `bytes` atomically: writes a sibling tmp file
/// named for this process and write, flush-checked, then renames it over
/// `path`. A writer killed mid-write leaves `path` as it was (plus, at
/// worst, its tmp file); concurrent writers never share a tmp file, and
/// the last rename wins.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let seq = WRITES.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}-{seq}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    let written = write_flushed(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::Rank;
    use proptest::prelude::*;
    use pyranet_verilog::metrics::ComplexityTier;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!("pyranet-persist-{tag}-{}-{n}", std::process::id()))
    }

    /// A dataset with adversarial strings (quotes, backslashes, newlines
    /// in escaped form, non-ASCII) so the round-trip exercises escaping.
    fn random_dataset(seed: u64, n: usize) -> PyraNetDataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let alphabet: Vec<char> = "abz09 _\"\\/{}:,\tμΩ#".chars().collect();
        (0..n as u64)
            .map(|id| {
                let text = |rng: &mut ChaCha8Rng, max_len: usize| -> String {
                    let len = rng.random_range(0..max_len);
                    (0..len).map(|_| alphabet[rng.random_range(0..alphabet.len())]).collect()
                };
                let source = text(&mut rng, 40);
                let description = text(&mut rng, 25);
                let rank = Rank::new(rng.random_range(0..=20u8));
                let dep = rng.random_bool(0.2);
                let tier = match rng.random_range(0..4u8) {
                    0 => ComplexityTier::Basic,
                    1 => ComplexityTier::Intermediate,
                    2 => ComplexityTier::Advanced,
                    _ => ComplexityTier::Expert,
                };
                CuratedSample {
                    id,
                    source,
                    description,
                    rank,
                    tier,
                    layer: Layer::assign(rank, dep),
                    dependency_issue: dep,
                }
            })
            .collect()
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(format_checksum(0xaf), "00000000000000af");
    }

    #[test]
    fn per_layer_export_groups_by_layer_and_names_shards() {
        let ds = random_dataset(1, 60);
        let dir = temp_dir("per-layer");
        let exec = ExecConfig::new().threads(2);
        let manifest = ds.to_shards(&dir, ShardSpec::PerLayer, &exec).unwrap();
        assert_eq!(manifest.total_samples, 60);
        for entry in &manifest.shards {
            assert!(entry.file.starts_with("layer-"), "{}", entry.file);
            assert!(entry.samples > 0, "empty shards are skipped");
        }
        // Import yields the stable layer-grouped permutation.
        let back = PyraNetDataset::from_shards(&dir, &exec).unwrap();
        let grouped: PyraNetDataset =
            Layer::ALL.iter().flat_map(|&l| ds.layer(l).cloned()).collect();
        assert_eq!(back, grouped);
        assert_eq!(back.layer_counts(), ds.layer_counts());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_shard_size_is_rejected() {
        let ds = random_dataset(2, 5);
        let dir = temp_dir("zero");
        let err = ds.to_shards(&dir, ShardSpec::MaxSamples(0), &ExecConfig::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn empty_dataset_round_trips() {
        let ds = PyraNetDataset::new();
        let dir = temp_dir("empty");
        let exec = ExecConfig::new();
        for spec in [ShardSpec::PerLayer, ShardSpec::MaxSamples(8)] {
            let manifest = ds.to_shards(&dir, spec, &exec).unwrap();
            assert!(manifest.shards.is_empty());
            assert_eq!(PyraNetDataset::from_shards(&dir, &exec).unwrap(), ds);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_shard_is_detected_and_named() {
        let ds = random_dataset(3, 40);
        let dir = temp_dir("truncate");
        let manifest = ds.to_shards(&dir, ShardSpec::MaxSamples(10), &ExecConfig::new()).unwrap();
        let victim = &manifest.shards[2];
        let path = dir.join(&victim.file);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = PyraNetDataset::from_shards(&dir, &ExecConfig::new()).unwrap_err();
        assert!(err.to_string().contains(&victim.file), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_shard_is_named() {
        let ds = random_dataset(4, 20);
        let dir = temp_dir("missing");
        let manifest = ds.to_shards(&dir, ShardSpec::MaxSamples(7), &ExecConfig::new()).unwrap();
        std::fs::remove_file(dir.join(&manifest.shards[1].file)).unwrap();
        let err = PyraNetDataset::from_shards(&dir, &ExecConfig::new()).unwrap_err();
        assert!(err.to_string().contains(&manifest.shards[1].file), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_line_is_attributed_to_file_and_line() {
        let ds = random_dataset(5, 12);
        let dir = temp_dir("badline");
        let manifest = ds.to_shards(&dir, ShardSpec::MaxSamples(4), &ExecConfig::new()).unwrap();
        let victim = &manifest.shards[1];
        let path = dir.join(&victim.file);
        let mut text = std::fs::read_to_string(&path).unwrap();
        let second_line_start = text.find('\n').unwrap() + 1;
        text.insert_str(second_line_start, "{\"not\": \"a sample\"}\n");
        std::fs::write(&path, &text).unwrap();
        // Re-stamp the manifest so the parse error (not the checksum) fires.
        let entry = ShardEntry {
            bytes: text.len() as u64,
            checksum: format_checksum(fnv1a64(text.as_bytes())),
            samples: victim.samples + 1,
            file: victim.file.clone(),
        };
        let err = read_shard(&dir, &entry).unwrap_err();
        assert!(err.to_string().starts_with(&format!("{}:2:", entry.file)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_totals_are_cross_checked() {
        let ds = random_dataset(6, 15);
        let dir = temp_dir("totals");
        let mut manifest =
            ds.to_shards(&dir, ShardSpec::MaxSamples(5), &ExecConfig::new()).unwrap();
        manifest.total_samples += 1;
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), text).unwrap();
        let err = PyraNetDataset::from_shards(&dir, &ExecConfig::new()).unwrap_err();
        assert!(err.to_string().contains("total_samples"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsupported_format_version_is_rejected() {
        let ds = random_dataset(7, 6);
        let dir = temp_dir("version");
        let mut manifest = ds.to_shards(&dir, ShardSpec::PerLayer, &ExecConfig::new()).unwrap();
        manifest.format_version = 99;
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), text).unwrap();
        let err = PyraNetDataset::from_shards(&dir, &ExecConfig::new()).unwrap_err();
        assert!(err.to_string().contains("format_version"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_checksum_is_16_hex() {
        assert_eq!(format_checksum(0), "0000000000000000");
        assert_eq!(format_checksum(u64::MAX), "ffffffffffffffff");
    }

    #[test]
    fn fingerprint_renders_as_hex() {
        let p = StageProvenance::new("syntax_rank", 2, 0xaf);
        assert_eq!(p.fingerprint, "00000000000000af");
        assert_eq!(p.version, 2);
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_tmp() {
        let dir = temp_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.records");
        for bytes in [&b"first"[..], b"second, longer", b""] {
            write_atomic(&path, bytes).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "tmp files left behind");
        // A rename that fails (over a non-empty directory) removes its tmp.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(blocked.join("inside")).unwrap();
        assert!(write_atomic(&blocked, b"y").is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2, "tmp files left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dataset_accepts_file_dir_and_manifest_path() {
        let ds = random_dataset(9, 18);
        let dir = temp_dir("load");
        let exec = ExecConfig::new();
        ds.to_shards(&dir, ShardSpec::MaxSamples(6), &exec).unwrap();
        assert_eq!(load_dataset(&dir, &exec).unwrap(), ds);
        assert_eq!(load_dataset(&dir.join(MANIFEST_FILE), &exec).unwrap(), ds);
        let file = dir.join("flat.jsonl");
        let mut buf = Vec::new();
        ds.to_jsonl(&mut buf).unwrap();
        std::fs::write(&file, &buf).unwrap();
        assert_eq!(load_dataset(&file, &exec).unwrap(), ds);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dataset_names_file_and_line_on_malformed_input() {
        let dir = temp_dir("load-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("dataset.jsonl");
        let ds = random_dataset(10, 3);
        let mut buf = Vec::new();
        ds.to_jsonl(&mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        let second_line_start = text.find('\n').unwrap() + 1;
        text.insert_str(second_line_start, "not json\n");
        std::fs::write(&file, &text).unwrap();
        let err = load_dataset(&file, &ExecConfig::new()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("dataset.jsonl:2:"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Fixed-size export round-trips bit-identically at 1/2/8 threads,
        /// and the bytes on disk never depend on the thread count.
        #[test]
        fn shard_round_trip_is_bit_identical_at_any_thread_count(
            seed in 0u64..5_000,
            n in 0usize..90,
            shard_size in 1usize..32,
        ) {
            let ds = random_dataset(seed, n);
            let dir = temp_dir("prop-rt");
            let mut reference: Option<Vec<(String, Vec<u8>)>> = None;
            for threads in [1usize, 2, 8] {
                let exec = ExecConfig::new().threads(threads);
                let manifest =
                    ds.to_shards(&dir, ShardSpec::MaxSamples(shard_size), &exec).expect("export");
                let files: Vec<(String, Vec<u8>)> = manifest
                    .shards
                    .iter()
                    .map(|s| (s.file.clone(), std::fs::read(dir.join(&s.file)).expect("read")))
                    .collect();
                match &reference {
                    None => reference = Some(files),
                    Some(r) => prop_assert_eq!(r, &files, "threads={}", threads),
                }
                let back = PyraNetDataset::from_shards(&dir, &exec).expect("import");
                prop_assert_eq!(&back, &ds, "threads={}", threads);
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        /// A single flipped byte in any shard is rejected, and the error
        /// names the corrupted file.
        #[test]
        fn flipped_byte_is_rejected_with_file_named(
            seed in 0u64..5_000,
            n in 1usize..60,
            victim_seed in 0usize..1_000,
        ) {
            let ds = random_dataset(seed, n);
            let dir = temp_dir("prop-flip");
            let manifest =
                ds.to_shards(&dir, ShardSpec::MaxSamples(9), &ExecConfig::new()).expect("export");
            let victim = &manifest.shards[victim_seed % manifest.shards.len()];
            let path = dir.join(&victim.file);
            let mut bytes = std::fs::read(&path).expect("read shard");
            let pos = victim_seed % bytes.len();
            bytes[pos] ^= 0x01;
            std::fs::write(&path, &bytes).expect("rewrite shard");
            let err = PyraNetDataset::from_shards(&dir, &ExecConfig::new())
                .expect_err("corruption must be detected");
            prop_assert!(
                err.to_string().contains(&victim.file),
                "error `{}` does not name `{}`", err, victim.file
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
