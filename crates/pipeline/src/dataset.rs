//! The curated PyraNet dataset: layered storage, curriculum iteration,
//! JSONL persistence.

use crate::layers::Layer;
use crate::rank::Rank;
use pyranet_verilog::metrics::ComplexityTier;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// One curated dataset entry with all PyraNet labels: rank, complexity
/// tier, layer, and compile details (paper contribution #1: "labels include
/// information such as the complexity level of the code, code rankings,
/// design descriptions, and compile details").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CuratedSample {
    /// Original pool id.
    pub id: u64,
    /// Verilog source.
    pub source: String,
    /// Natural-language description (the fine-tuning input).
    pub description: String,
    /// Quality rank (0–20).
    pub rank: Rank,
    /// Complexity tier (Basic/Intermediate/Advanced/Expert).
    pub tier: ComplexityTier,
    /// Assigned layer.
    pub layer: Layer,
    /// Compile detail: file compiled only with dependency issues.
    pub dependency_issue: bool,
}

/// The layered dataset.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PyraNetDataset {
    samples: Vec<CuratedSample>,
}

impl PyraNetDataset {
    /// Creates an empty dataset.
    pub fn new() -> PyraNetDataset {
        PyraNetDataset::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, s: CuratedSample) {
        self.samples.push(s);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &CuratedSample> {
        self.samples.iter()
    }

    /// Samples in one layer.
    pub fn layer(&self, layer: Layer) -> impl Iterator<Item = &CuratedSample> {
        self.samples.iter().filter(move |s| s.layer == layer)
    }

    /// Per-layer counts, apex first (the Fig. 1-a pyramid).
    pub fn layer_counts(&self) -> [usize; 6] {
        let mut counts = [0usize; 6];
        for s in &self.samples {
            counts[s.layer.index() - 1] += 1;
        }
        counts
    }

    /// The PyraNet curriculum order (paper §III-B.2): layers visited apex →
    /// base; inside each layer, complexity Basic → Intermediate → Advanced →
    /// Expert. Ties keep insertion order (stable).
    pub fn curriculum(&self) -> Vec<&CuratedSample> {
        let mut out: Vec<&CuratedSample> = self.samples.iter().collect();
        out.sort_by_key(|s| (s.layer, s.tier));
        out
    }

    /// Writes the dataset as JSON Lines and **flushes the writer** before
    /// returning, so buffered-writer callers get short-write and flush
    /// failures as errors instead of having `Drop` swallow them (a
    /// disk-full export must never report success).
    ///
    /// # Errors
    ///
    /// Propagates serialization, write, and flush errors.
    pub fn to_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        // One line buffer reused for every record: serialization appends
        // into it and the trailing newline rides along, so each sample
        // costs a single `write_all` and zero fresh allocations once the
        // buffer has grown to the largest record.
        let mut line = String::with_capacity(1024);
        for s in &self.samples {
            line.clear();
            serde_json::to_string_into(s, &mut line)?;
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        w.flush()
    }

    /// Reads a dataset from JSON Lines. A `mut` reference can be passed for
    /// the reader.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; malformed lines report their 1-based line
    /// number (`line 37: ...`). [`crate::persist::load_dataset`] adds the
    /// file name on top when reading from a path.
    pub fn from_jsonl<R: BufRead>(r: R) -> std::io::Result<PyraNetDataset> {
        let mut ds = PyraNetDataset::new();
        for (i, line) in r.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            ds.push(parse_jsonl_line(&line).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("line {}: {e}", i + 1))
            })?);
        }
        Ok(ds)
    }
}

/// Parses one JSONL record. Callers attach position context (line number,
/// shard file name) to the raw serde error.
pub(crate) fn parse_jsonl_line(line: &str) -> Result<CuratedSample, serde_json::Error> {
    serde_json::from_str(line)
}

impl FromIterator<CuratedSample> for PyraNetDataset {
    fn from_iter<I: IntoIterator<Item = CuratedSample>>(iter: I) -> Self {
        PyraNetDataset { samples: iter.into_iter().collect() }
    }
}

impl Extend<CuratedSample> for PyraNetDataset {
    fn extend<I: IntoIterator<Item = CuratedSample>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64, rank: u8, tier: ComplexityTier, dep: bool) -> CuratedSample {
        let r = Rank::new(rank);
        CuratedSample {
            id,
            source: format!("module m{id}; endmodule"),
            description: format!("module {id}"),
            rank: r,
            tier,
            layer: Layer::assign(r, dep),
            dependency_issue: dep,
        }
    }

    #[test]
    fn layer_counts_partition() {
        let ds: PyraNetDataset = vec![
            sample(0, 20, ComplexityTier::Basic, false),
            sample(1, 17, ComplexityTier::Basic, false),
            sample(2, 12, ComplexityTier::Expert, false),
            sample(3, 7, ComplexityTier::Basic, false),
            sample(4, 2, ComplexityTier::Basic, false),
            sample(5, 20, ComplexityTier::Basic, true),
        ]
        .into_iter()
        .collect();
        assert_eq!(ds.layer_counts(), [1, 1, 1, 1, 1, 1]);
        assert_eq!(ds.layer_counts().iter().sum::<usize>(), ds.len());
    }

    #[test]
    fn curriculum_orders_layers_then_tiers() {
        let ds: PyraNetDataset = vec![
            sample(0, 12, ComplexityTier::Expert, false),
            sample(1, 20, ComplexityTier::Advanced, false),
            sample(2, 20, ComplexityTier::Basic, false),
            sample(3, 17, ComplexityTier::Basic, false),
            sample(4, 12, ComplexityTier::Basic, false),
        ]
        .into_iter()
        .collect();
        let order: Vec<u64> = ds.curriculum().iter().map(|s| s.id).collect();
        assert_eq!(order, vec![2, 1, 3, 4, 0]);
    }

    #[test]
    fn curriculum_is_stable_within_groups() {
        let ds: PyraNetDataset = vec![
            sample(10, 20, ComplexityTier::Basic, false),
            sample(11, 20, ComplexityTier::Basic, false),
            sample(12, 20, ComplexityTier::Basic, false),
        ]
        .into_iter()
        .collect();
        let order: Vec<u64> = ds.curriculum().iter().map(|s| s.id).collect();
        assert_eq!(order, vec![10, 11, 12]);
    }

    #[test]
    fn jsonl_round_trip() {
        let ds: PyraNetDataset = vec![
            sample(0, 20, ComplexityTier::Basic, false),
            sample(1, 3, ComplexityTier::Expert, true),
        ]
        .into_iter()
        .collect();
        let mut buf = Vec::new();
        ds.to_jsonl(&mut buf).unwrap();
        let back = PyraNetDataset::from_jsonl(&buf[..]).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn jsonl_skips_blank_lines() {
        let ds = PyraNetDataset::from_jsonl("\n\n".as_bytes()).unwrap();
        assert!(ds.is_empty());
    }

    #[test]
    fn jsonl_parse_errors_carry_the_line_number() {
        let ds: PyraNetDataset =
            vec![sample(0, 20, ComplexityTier::Basic, false)].into_iter().collect();
        let mut buf = Vec::new();
        ds.to_jsonl(&mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("\n{\"corrupted\": true}\n");
        let err = PyraNetDataset::from_jsonl(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The record itself is line 1, a blank line is 2, the bad row is 3.
        assert!(err.to_string().starts_with("line 3:"), "{err}");
    }

    /// `Write` impl that accepts writes but fails on flush — the shape of a
    /// deferred short-write (disk full, quota) that `BufWriter`'s `Drop`
    /// would swallow.
    struct FlushFails;

    impl Write for FlushFails {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "no space left on device"))
        }
    }

    /// `Write` impl with a byte budget: writes past it fail, simulating a
    /// filesystem that runs out of space mid-export.
    struct RunsDry {
        remaining: usize,
    }

    impl Write for RunsDry {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.remaining {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "no space left on device",
                ));
            }
            self.remaining -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn to_jsonl_surfaces_flush_failures() {
        let ds: PyraNetDataset =
            vec![sample(0, 20, ComplexityTier::Basic, false)].into_iter().collect();
        let err = ds.to_jsonl(FlushFails).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        // The exact failure mode of the original bug: a BufWriter whose
        // backing device fails at flush time. `to_jsonl` must flush
        // explicitly and propagate, not let `Drop` discard the error.
        let err = ds.to_jsonl(std::io::BufWriter::new(FlushFails)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    }

    #[test]
    fn to_jsonl_surfaces_short_writes() {
        let ds: PyraNetDataset =
            (0..50).map(|i| sample(i, 20, ComplexityTier::Basic, false)).collect();
        let err = ds.to_jsonl(RunsDry { remaining: 100 }).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        let err = ds
            .to_jsonl(std::io::BufWriter::with_capacity(64, RunsDry { remaining: 100 }))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    }

    #[test]
    fn layer_filter_iterates_only_that_layer() {
        let ds: PyraNetDataset = vec![
            sample(0, 20, ComplexityTier::Basic, false),
            sample(1, 17, ComplexityTier::Basic, false),
        ]
        .into_iter()
        .collect();
        assert_eq!(ds.layer(Layer::L1).count(), 1);
        assert_eq!(ds.layer(Layer::L2).count(), 1);
        assert_eq!(ds.layer(Layer::L3).count(), 0);
    }
}
