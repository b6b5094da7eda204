//! The on-disk content-addressed artifact store.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/objects/<hh>/<16-hex object id>.art   one (sample, stage) artifact
//! <root>/tmp/<pid>-<seq>-<16-hex>              in-flight writes (crash residue)
//! <root>/cache-manifest.json                   stage provenance (see `manifest`)
//! ```
//!
//! Every entry is written to `tmp/` first and published with an atomic
//! `rename`, so a crash mid-build never leaves a half-written object —
//! the next run simply resumes from whatever was published. Entries are
//! self-verifying: a header line carries the full [`StageKey`] parts and
//! an FNV-1a checksum of the payload, and [`ArtifactStore::get`] checks
//! all of them before trusting the payload. Any mismatch — truncation, a
//! flipped byte, a 64-bit object-id collision — degrades to
//! [`Lookup::Invalid`] (callers recompute), never to a wrong verdict.
//!
//! The store records `cache.{hits,misses,writes,invalidated,write_errors}`
//! counters and a `cache.lookup.seconds` histogram into the process-global
//! `pyranet-obs` registry. Recording is passive: compute paths never read
//! a metric back.

use crate::hasher::{format_hash, hash_bytes, StageKey};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Subdirectory holding published artifacts.
const OBJECTS_DIR: &str = "objects";
/// Subdirectory holding in-flight writes.
const TMP_DIR: &str = "tmp";
/// Artifact file extension.
const ART_EXT: &str = "art";

/// Outcome of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup<T> {
    /// Entry present, verified, and decoded.
    Hit(T),
    /// No entry under this key.
    Miss,
    /// An entry exists but failed verification (corruption, truncation,
    /// key collision, undecodable payload) — treat as a miss and
    /// recompute; the stale entry will be overwritten.
    Invalid,
}

/// Entry header: the key parts plus the payload checksum, one JSON line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct EntryHeader {
    stage: String,
    content: String,
    config: String,
    checksum: String,
}

/// A content-addressed artifact store rooted at one directory.
///
/// Thread-safe by construction: lookups are independent file reads, and
/// concurrent writes of the same key publish byte-identical entries (the
/// payload is a pure function of the key), so whichever rename lands last
/// wins without changing the stored bytes.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    seq: AtomicU64,
    hits: pyranet_obs::Counter,
    misses: pyranet_obs::Counter,
    writes: pyranet_obs::Counter,
    invalidated: pyranet_obs::Counter,
    write_errors: pyranet_obs::Counter,
    lookup_seconds: pyranet_obs::Histogram,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store at `root` and sweeps crash
    /// residue out of `tmp/`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures (e.g. an unwritable root).
    pub fn open(root: &Path) -> io::Result<ArtifactStore> {
        std::fs::create_dir_all(root.join(OBJECTS_DIR))?;
        let tmp = root.join(TMP_DIR);
        std::fs::create_dir_all(&tmp)?;
        // Tmp entries are abandoned in-flight writes from a crashed run;
        // published objects are never in here, so sweeping is safe.
        if let Ok(entries) = std::fs::read_dir(&tmp) {
            for entry in entries.flatten() {
                std::fs::remove_file(entry.path()).ok();
            }
        }
        let obs = pyranet_obs::global();
        Ok(ArtifactStore {
            root: root.to_path_buf(),
            seq: AtomicU64::new(0),
            hits: obs.counter("cache.hits"),
            misses: obs.counter("cache.misses"),
            writes: obs.counter("cache.writes"),
            invalidated: obs.counter("cache.invalidated"),
            write_errors: obs.counter("cache.write_errors"),
            lookup_seconds: obs.histogram("cache.lookup.seconds", &pyranet_obs::DURATION_BUCKETS),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Published path of `key`'s entry: two-hex-digit bucket + object id.
    pub fn object_path(&self, key: &StageKey) -> PathBuf {
        let id = format_hash(key.object_id());
        self.root.join(OBJECTS_DIR).join(&id[..2]).join(format!("{id}.{ART_EXT}"))
    }

    /// Looks up `key`, verifying the entry header against the key and the
    /// payload against its checksum before decoding.
    pub fn get<T: Deserialize>(&self, key: &StageKey) -> Lookup<T> {
        let start = std::time::Instant::now();
        let out = self.get_unmetered(key);
        self.lookup_seconds.observe(start.elapsed().as_secs_f64());
        match &out {
            Lookup::Hit(_) => self.hits.inc(),
            Lookup::Miss => self.misses.inc(),
            Lookup::Invalid => self.invalidated.inc(),
        }
        out
    }

    fn get_unmetered<T: Deserialize>(&self, key: &StageKey) -> Lookup<T> {
        let bytes = match std::fs::read(self.object_path(key)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            // Unreadable entry (permissions, I/O error): recompute.
            Err(_) => return Lookup::Invalid,
        };
        let Ok(text) = std::str::from_utf8(&bytes) else { return Lookup::Invalid };
        let Some((header_line, payload)) = text.split_once('\n') else { return Lookup::Invalid };
        let Ok(header) = serde_json::from_str::<EntryHeader>(header_line) else {
            return Lookup::Invalid;
        };
        // Key verification: a 64-bit object-id collision, or an entry
        // renamed into the wrong slot, must read as a miss.
        if header.stage != key.stage
            || header.content != format_hash(key.content)
            || header.config != format_hash(key.config)
        {
            return Lookup::Invalid;
        }
        if header.checksum != format_hash(hash_bytes(payload.as_bytes())) {
            return Lookup::Invalid;
        }
        match serde_json::from_str::<T>(payload) {
            Ok(v) => Lookup::Hit(v),
            Err(_) => Lookup::Invalid,
        }
    }

    /// Stores `value` under `key`: renders the checksummed entry, writes
    /// it to `tmp/`, and publishes it with an atomic rename.
    ///
    /// The cache is advisory — callers are expected to log-and-continue on
    /// failure (the error is also counted in `cache.write_errors`).
    ///
    /// # Errors
    ///
    /// Serialization and file-system failures.
    pub fn put<T: Serialize>(&self, key: &StageKey, value: &T) -> io::Result<()> {
        let result = self.put_inner(key, value);
        match &result {
            Ok(()) => self.writes.inc(),
            Err(_) => self.write_errors.inc(),
        }
        result
    }

    fn put_inner<T: Serialize>(&self, key: &StageKey, value: &T) -> io::Result<()> {
        let payload = serde_json::to_string(value)?;
        let header = EntryHeader {
            stage: key.stage.to_owned(),
            content: format_hash(key.content),
            config: format_hash(key.config),
            checksum: format_hash(hash_bytes(payload.as_bytes())),
        };
        let mut entry = serde_json::to_string(&header)?;
        entry.push('\n');
        entry.push_str(&payload);

        let id = format_hash(key.object_id());
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.root.join(TMP_DIR).join(format!("{}-{seq}-{id}", std::process::id()));
        std::fs::write(&tmp, entry.as_bytes())?;
        let dst = self.object_path(key);
        if let Some(bucket) = dst.parent() {
            std::fs::create_dir_all(bucket)?;
        }
        // Atomic publish: concurrent writers of the same key rename
        // byte-identical files, so last-wins is harmless; a crash before
        // this point leaves only tmp residue, swept at the next open.
        std::fs::rename(&tmp, &dst)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::{content_hash, Fingerprint};
    use std::sync::atomic::AtomicUsize;

    fn temp_root(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!("pyranet-cache-{tag}-{}-{n}", std::process::id()))
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Verdict {
        kept: bool,
        score: u32,
    }

    fn key(src: &str) -> StageKey {
        let fp = Fingerprint::stage("test", 1).knob("mode", "on").finish();
        StageKey::new("test", content_hash(src), fp)
    }

    #[test]
    fn round_trip_hit() {
        let root = temp_root("rt");
        let store = ArtifactStore::open(&root).unwrap();
        let k = key("module m; endmodule");
        assert_eq!(store.get::<Verdict>(&k), Lookup::Miss);
        let v = Verdict { kept: true, score: 17 };
        store.put(&k, &v).unwrap();
        assert_eq!(store.get::<Verdict>(&k), Lookup::Hit(v));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn different_content_or_config_misses() {
        let root = temp_root("keys");
        let store = ArtifactStore::open(&root).unwrap();
        let k = key("module a; endmodule");
        store.put(&k, &Verdict { kept: true, score: 1 }).unwrap();
        assert_eq!(store.get::<Verdict>(&key("module b; endmodule")), Lookup::Miss);
        let other_cfg = StageKey::new("test", k.content, k.config ^ 1);
        assert_eq!(store.get::<Verdict>(&other_cfg), Lookup::Miss);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn flipped_byte_reads_as_invalid_and_recovers_on_rewrite() {
        let root = temp_root("flip");
        let store = ArtifactStore::open(&root).unwrap();
        let k = key("module m(input a, output y); assign y = ~a; endmodule");
        let v = Verdict { kept: true, score: 20 };
        store.put(&k, &v).unwrap();
        let path = store.object_path(&k);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip every position in turn: header or payload, the entry must
        // never decode to a different verdict.
        for pos in 0..bytes.len() {
            bytes[pos] ^= 0x20;
            std::fs::write(&path, &bytes).unwrap();
            let got = store.get::<Verdict>(&k);
            assert!(
                got == Lookup::Invalid || got == Lookup::Hit(v.clone()),
                "pos {pos}: corrupted entry decoded to {got:?}"
            );
            bytes[pos] ^= 0x20;
        }
        // Recompute-and-rewrite heals the slot.
        std::fs::write(&path, b"garbage").unwrap();
        assert_eq!(store.get::<Verdict>(&k), Lookup::Invalid);
        store.put(&k, &v).unwrap();
        assert_eq!(store.get::<Verdict>(&k), Lookup::Hit(v));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn truncation_is_invalid() {
        let root = temp_root("trunc");
        let store = ArtifactStore::open(&root).unwrap();
        let k = key("module t; endmodule");
        store.put(&k, &Verdict { kept: false, score: 0 }).unwrap();
        let path = store.object_path(&k);
        let bytes = std::fs::read(&path).unwrap();
        for keep in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            assert_eq!(store.get::<Verdict>(&k), Lookup::Invalid, "kept {keep} bytes");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn colliding_slot_with_wrong_header_is_invalid() {
        // Simulate a 64-bit object-id collision: an entry for key A
        // sitting in key B's slot must verify-fail, not decode.
        let root = temp_root("collide");
        let store = ArtifactStore::open(&root).unwrap();
        let a = key("module a; endmodule");
        let b = key("module b; endmodule");
        store.put(&a, &Verdict { kept: true, score: 9 }).unwrap();
        let b_path = store.object_path(&b);
        std::fs::create_dir_all(b_path.parent().unwrap()).unwrap();
        std::fs::copy(store.object_path(&a), &b_path).unwrap();
        assert_eq!(store.get::<Verdict>(&b), Lookup::Invalid);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reopen_sweeps_tmp_residue_and_keeps_objects() {
        let root = temp_root("sweep");
        let store = ArtifactStore::open(&root).unwrap();
        let k = key("module s; endmodule");
        store.put(&k, &Verdict { kept: true, score: 3 }).unwrap();
        // A crashed run leaves a half-written tmp file behind.
        std::fs::write(root.join(TMP_DIR).join("12345-0-deadbeef"), b"partial").unwrap();
        drop(store);
        let store = ArtifactStore::open(&root).unwrap();
        assert_eq!(
            std::fs::read_dir(root.join(TMP_DIR)).unwrap().count(),
            0,
            "tmp residue swept on open"
        );
        assert_eq!(
            store.get::<Verdict>(&k),
            Lookup::Hit(Verdict { kept: true, score: 3 }),
            "published objects survive reopen"
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
