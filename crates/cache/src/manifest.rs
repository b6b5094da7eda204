//! Stage provenance for the dataset shard `manifest.json`.
//!
//! Each [`StageProvenance`] record names a stage, its artifact-format
//! version and the config fingerprint its verdicts are keyed under, so a
//! dataset directory carries which pipeline configuration produced it.

use crate::hasher::format_hash;
use serde::{Deserialize, Serialize};

/// One stage's provenance: name, artifact-format version, and the config
/// fingerprint (16 hex digits) its artifacts are keyed under.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageProvenance {
    pub stage: String,
    pub version: u32,
    pub fingerprint: String,
}

impl StageProvenance {
    /// Builds a record from a stage's raw fingerprint value.
    pub fn new(stage: &str, version: u32, fingerprint: u64) -> StageProvenance {
        StageProvenance { stage: stage.to_owned(), version, fingerprint: format_hash(fingerprint) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_renders_as_hex() {
        let p = StageProvenance::new("syntax_rank", 2, 0xaf);
        assert_eq!(p.fingerprint, "00000000000000af");
        assert_eq!(p.version, 2);
    }
}
