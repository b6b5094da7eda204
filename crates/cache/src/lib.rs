//! # pyranet-cache — content-addressed incremental curation cache
//!
//! Turns `build-dataset` from a batch job into an incremental one: the
//! one per-sample verdict worth storing — stage 4's syntax check, opt-in
//! sim check, rank and complexity — is stored under a key derived from
//! the sample's *content*, the *stage* that produced it, and a
//! *fingerprint* of the stage's configuration. A rebuild after editing 1%
//! of the corpus re-parses 1% of the samples; everything else is a
//! verified read. The cheaper stages (filters, dedup signatures) cost less
//! to recompute than to read back, so they never reach the store.
//!
//! Three pieces:
//!
//! * [`hasher`] — [`Fnv64`]/[`Fingerprint`]/[`StageKey`]: stable FNV-1a
//!   key derivation. Changing a knob (sim mode, rank-judge version)
//!   changes the fingerprint of exactly the stages that read it, retiring
//!   their artifacts and nothing else.
//! * [`artifact`] — [`ArtifactStore`]: the on-disk CAS. Checksummed
//!   entries that carry their source text, atomic tmp+rename publishes,
//!   crash residue swept on open. Corruption, id collisions and content
//!   hash collisions degrade to [`Lookup::Invalid`] (recompute), never a
//!   wrong verdict.
//! * [`manifest`] — [`StageProvenance`]: a stage's name, version and
//!   fingerprint, embedded in the dataset shard `manifest.json`.
//!
//! Determinism: lookups are keyed by content, not by position or thread,
//! so a cached run produces byte-identical output to an uncached one at
//! any thread count.

pub mod artifact;
pub mod hasher;
pub mod manifest;

pub use artifact::{ArtifactStore, Lookup};
pub use hasher::{content_hash, format_hash, hash_bytes, Fingerprint, Fnv64, StageKey};
pub use manifest::StageProvenance;
