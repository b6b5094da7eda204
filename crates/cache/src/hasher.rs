//! Stable key derivation for the content-addressed store.
//!
//! Every artifact is addressed by a [`StageKey`] — the triple of
//!
//! * **stage name** — which pipeline stage produced the artifact;
//! * **content hash** — FNV-1a 64 of the sample bytes the stage consumed;
//! * **config fingerprint** — FNV-1a 64 over the stage's knobs
//!   ([`Fingerprint`]), so changing a knob (sim mode, rank-judge version)
//!   invalidates exactly the stages that read it.
//!
//! The three parts fold into one 64-bit object id that names the on-disk
//! entry. A 64-bit id or content hash can collide in principle, so the
//! store writes all three parts and the source text into the entry and
//! verifies them on read — a collision degrades to a recompute, never a
//! wrong verdict.

pub use pyranet_exec::{fnv1a64 as hash_bytes, Fnv64};

/// Content hash of a sample's source text — the per-sample half of every
/// stage key.
pub fn content_hash(source: &str) -> u64 {
    hash_bytes(source.as_bytes())
}

/// Renders a hash the way keys, headers, and manifests store it: 16
/// lowercase hex digits.
pub fn format_hash(v: u64) -> String {
    format!("{v:016x}")
}

/// Builder for a stage's config fingerprint: an order-sensitive fold of
/// `name=value` knob pairs. Feed knobs in a fixed order — the fingerprint
/// is stable across runs and processes, and any value change (or version
/// bump) produces a different fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    h: Fnv64,
}

impl Fingerprint {
    /// Starts a fingerprint for `stage` at artifact-format `version`.
    /// The version participates in the fingerprint, so bumping it retires
    /// every previously stored artifact of the stage.
    pub fn stage(stage: &str, version: u32) -> Fingerprint {
        let mut h = Fnv64::new();
        h.write(stage.as_bytes());
        h.write_u64(u64::from(version));
        Fingerprint { h }
    }

    /// Folds one `name=value` knob pair.
    pub fn knob(mut self, name: &str, value: &str) -> Fingerprint {
        self.h.write(name.as_bytes());
        self.h.write(b"=");
        self.h.write(value.as_bytes());
        self.h.write(b";");
        Fingerprint { h: self.h }
    }

    /// Folds a numeric knob. `f64` knobs go through [`f64::to_bits`] so
    /// the fingerprint is exact (no formatting round-trip).
    pub fn knob_f64(self, name: &str, value: f64) -> Fingerprint {
        self.knob(name, &format_hash(value.to_bits()))
    }

    /// The finished 64-bit fingerprint.
    pub fn finish(&self) -> u64 {
        self.h.finish()
    }
}

/// The full address of one `(sample, stage)` artifact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StageKey {
    /// Stage name (e.g. `"syntax_rank"`).
    pub stage: &'static str,
    /// Content hash of the sample the stage consumed.
    pub content: u64,
    /// The stage's config fingerprint.
    pub config: u64,
}

impl StageKey {
    /// Builds a key.
    pub fn new(stage: &'static str, content: u64, config: u64) -> StageKey {
        StageKey { stage, content, config }
    }

    /// The 64-bit object id naming the on-disk entry: FNV-1a over all
    /// three parts. Collisions are tolerated — the store verifies the
    /// parts from the entry header on read.
    pub fn object_id(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.stage.as_bytes());
        h.write_u64(self.content);
        h.write_u64(self.config);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors — same family as the shard
        // manifest checksums.
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), hash_bytes(b"foobar"));
    }

    #[test]
    fn fingerprint_is_stable_and_knob_sensitive() {
        let base = Fingerprint::stage("dedup", 1).knob_f64("jaccard", 0.85).finish();
        let again = Fingerprint::stage("dedup", 1).knob_f64("jaccard", 0.85).finish();
        assert_eq!(base, again, "same knobs, same fingerprint");
        let threshold = Fingerprint::stage("dedup", 1).knob_f64("jaccard", 0.9).finish();
        assert_ne!(base, threshold, "knob value change must invalidate");
        let version = Fingerprint::stage("dedup", 2).knob_f64("jaccard", 0.85).finish();
        assert_ne!(base, version, "version bump must invalidate");
        let stage = Fingerprint::stage("rank", 1).knob_f64("jaccard", 0.85).finish();
        assert_ne!(base, stage, "stage name participates");
    }

    #[test]
    fn f64_knobs_are_bit_exact() {
        // 0.1 + 0.2 != 0.3 in f64; the fingerprint must see the
        // difference because it hashes the bit pattern, not a rendering.
        let a = Fingerprint::stage("s", 1).knob_f64("t", 0.1 + 0.2).finish();
        let b = Fingerprint::stage("s", 1).knob_f64("t", 0.3).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn object_id_depends_on_every_part() {
        let k = StageKey::new("syntax_rank", 1, 2);
        assert_ne!(k.object_id(), StageKey::new("syntax_rank", 1, 3).object_id());
        assert_ne!(k.object_id(), StageKey::new("syntax_rank", 2, 2).object_id());
        assert_ne!(k.object_id(), StageKey::new("dedup_join", 1, 2).object_id());
        assert_eq!(k.object_id(), StageKey::new("syntax_rank", 1, 2).object_id());
    }

    #[test]
    fn format_hash_is_16_hex() {
        assert_eq!(format_hash(0xaf), "00000000000000af");
        assert_eq!(format_hash(u64::MAX), "ffffffffffffffff");
    }
}
