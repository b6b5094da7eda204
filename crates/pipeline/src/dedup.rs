//! Jaccard-similarity deduplication (paper §III-A.2, third bullet),
//! accelerated with MinHash signatures and LSH banding.
//!
//! The paper: "We employed the Jaccard similarity algorithm to perform
//! deduplication. This method computes the similarity between sets of
//! tokens derived from the code samples … Code pairs with a Jaccard
//! similarity score above a predefined threshold were identified as
//! duplicates and subsequently removed."
//!
//! Exact all-pairs Jaccard is quadratic; MinHash + banding gives the same
//! outcome in near-linear time for corpus-scale pools. Candidate pairs from
//! LSH are *verified* with the exact Jaccard score, so the threshold
//! semantics match the naive algorithm (up to MinHash recall, covered by
//! the banding parameters and tested against brute force below).

use pyranet_corpus::RawSample;
use pyranet_exec::{par_map_ref, splitmix64_mix, ExecConfig};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

/// Number of MinHash permutations.
const NUM_HASHES: usize = 64;
/// LSH bands (NUM_HASHES / BANDS rows per band).
const BANDS: usize = 16;

/// Tokenizes a source into the shingle set used for Jaccard similarity,
/// as a sorted, deduplicated vector, so Jaccard is a merge.
///
/// Tokens are word-level (identifiers, numbers, operators collapse to
/// single chars); 3-gram shingles make the measure order-sensitive enough
/// that different circuits with the same vocabulary don't collide.
///
/// Tokenization is char-aware: a multibyte character (a `// café`
/// comment, a CJK identifier in a scraped file) is one single-char token,
/// so no source can split a char.
pub fn shingles(source: &str) -> Vec<u64> {
    let mut tokens: Vec<&str> = Vec::new();
    let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '$';
    let mut chars = source.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if is_word(c) {
            let mut end = start + c.len_utf8();
            while let Some(&(j, cj)) = chars.peek() {
                if !is_word(cj) {
                    break;
                }
                end = j + cj.len_utf8();
                chars.next();
            }
            tokens.push(&source[start..end]);
        } else if !c.is_whitespace() {
            tokens.push(&source[start..start + c.len_utf8()]);
        }
    }
    let mut set: Vec<u64> = tokens.windows(3).map(std_hash).collect();
    if set.is_empty() {
        // very short files: fall back to single-token shingles
        set = tokens.iter().map(std_hash).collect();
    }
    set.sort_unstable();
    set.dedup();
    set
}

/// The std `DefaultHasher` digest of `value` (fixed keys, so stable
/// across runs).
fn std_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Exact Jaccard similarity between two shingle sets, each sorted and
/// deduplicated as [`shingles`] returns it: the intersection is counted
/// by merging the two slices.
pub fn jaccard(a: &[u64], b: &[u64]) -> f64 {
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        inter += usize::from(a[i] == b[j]);
        (i, j) = (i + usize::from(a[i] <= b[j]), j + usize::from(b[j] <= a[i]));
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Splitmix-style hash mixing for the MinHash permutations.
#[inline]
fn mix(x: u64, seed: u64) -> u64 {
    splitmix64_mix(x.wrapping_add(seed).wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// MinHash signature of a shingle set.
pub fn minhash(shingles: &[u64]) -> [u64; NUM_HASHES] {
    let mut sig = [u64::MAX; NUM_HASHES];
    for &s in shingles {
        for (k, slot) in sig.iter_mut().enumerate() {
            let h = mix(s, k as u64);
            if h < *slot {
                *slot = h;
            }
        }
    }
    sig
}

/// A sample's dedup signature: its shingle set plus the MinHash signature
/// of that set. The shingle set rides along because the LSH join verifies
/// candidate pairs with *exact* Jaccard, not the signature estimate.
struct Signature {
    shingles: Vec<u64>,
    sig: [u64; NUM_HASHES],
}

fn signature(source: &str) -> Signature {
    let shingles = shingles(source);
    let sig = minhash(&shingles);
    Signature { shingles, sig }
}

/// Removes near-duplicates, keeping the earliest (lowest-index) member of
/// each duplicate cluster. Pairs flagged by LSH banding are verified with
/// exact Jaccard before removal.
pub fn dedup(pool: Vec<RawSample>, threshold: f64) -> Vec<RawSample> {
    dedup_with(pool, threshold, &ExecConfig::new())
}

/// [`dedup`] with an explicit executor configuration.
///
/// Shingling and MinHash signature computation — the dominant cost — are
/// per-sample pure functions and run through `par_map`; the LSH banding
/// and verification sweep stays sequential, preserving the
/// earliest-representative-wins semantics exactly. The survivor set is
/// therefore identical at any thread count.
pub fn dedup_with(pool: Vec<RawSample>, threshold: f64, exec: &ExecConfig) -> Vec<RawSample> {
    let sigs = par_map_ref(exec, &pool, |s| signature(&s.source));
    let dead = lsh_sweep(&sigs, threshold);
    pool.into_iter().zip(dead).filter(|(_, d)| !*d).map(|(s, _)| s).collect()
}

/// The cross-sample LSH join: bands the signatures, verifies candidate
/// pairs with exact Jaccard, and returns which samples die.
fn lsh_sweep(sigs: &[Signature], threshold: f64) -> Vec<bool> {
    // Collect every banding candidate pair, then verify them in ascending
    // (i, j) order — the exact sweep order of the naive algorithm. Bucket
    // iteration order (a per-process `HashMap` artifact) therefore cannot
    // influence which member of a duplicate chain survives.
    let rows = NUM_HASHES / BANDS;
    let mut candidates: BTreeSet<(usize, usize)> = BTreeSet::new();
    for band in 0..BANDS {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in sigs.iter().enumerate() {
            buckets.entry(std_hash(&s.sig[band * rows..(band + 1) * rows])).or_default().push(i);
        }
        for bucket in buckets.values() {
            for (bi, &i) in bucket.iter().enumerate() {
                for &j in &bucket[bi + 1..] {
                    candidates.insert((i, j));
                }
            }
        }
    }
    let mut dead = vec![false; sigs.len()];
    for (i, j) in candidates {
        if dead[i] || dead[j] {
            continue;
        }
        if jaccard(&sigs[i].shingles, &sigs[j].shingles) >= threshold {
            dead[j] = true;
        }
    }
    dead
}

/// Reference O(n²) implementation used to validate the LSH path in tests
/// and benchmarks.
pub fn dedup_naive(pool: Vec<RawSample>, threshold: f64) -> Vec<RawSample> {
    let sets: Vec<Vec<u64>> = pool.iter().map(|s| shingles(&s.source)).collect();
    let mut dead = vec![false; pool.len()];
    for i in 0..pool.len() {
        if dead[i] {
            continue;
        }
        for j in (i + 1)..pool.len() {
            if !dead[j] && jaccard(&sets[i], &sets[j]) >= threshold {
                dead[j] = true;
            }
        }
    }
    pool.into_iter().zip(dead).filter(|(_, d)| !*d).map(|(s, _)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyranet_corpus::{Origin, TruthLabel};

    fn raw(id: u64, src: &str) -> RawSample {
        RawSample::new(id, src, "", Origin::Scraped, TruthLabel::Clean)
    }

    const M1: &str = "module a(input x1, input x2, input x3, output y1, output y2, output y3);\n  assign y1 = ~x1;\n  assign y2 = x1 & x2;\n  assign y3 = x2 | x3;\nendmodule";
    const M2: &str =
        "module b(input clk, output reg [3:0] q); always @(posedge clk) q <= q + 1; endmodule";

    #[test]
    fn jaccard_properties() {
        let a = shingles(M1);
        let b = shingles(M2);
        assert!((jaccard(&a, &a) - 1.0).abs() < 1e-12, "reflexive");
        assert!((jaccard(&a, &b) - jaccard(&b, &a)).abs() < 1e-12, "symmetric");
        assert!(jaccard(&a, &b) < 0.5, "different designs are dissimilar");
    }

    #[test]
    fn exact_duplicates_removed_keeping_first() {
        let pool = vec![raw(0, M1), raw(1, M1), raw(2, M2), raw(3, M1)];
        let out = dedup(pool, 0.85);
        let ids: Vec<u64> = out.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn near_duplicates_removed() {
        let near = format!("// a slightly edited copy\n{M1}");
        let pool = vec![raw(0, M1), raw(1, &near)];
        let out = dedup(pool, 0.8);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 0);
    }

    #[test]
    fn distinct_files_survive() {
        let pool = vec![raw(0, M1), raw(1, M2)];
        assert_eq!(dedup(pool, 0.85).len(), 2);
    }

    #[test]
    fn lsh_matches_naive_on_random_pool() {
        let pool: Vec<RawSample> = (0..60)
            .map(|i| match i % 3 {
                0 => raw(i, M1),
                1 => raw(i, M2),
                _ => raw(
                    i,
                    &format!(
                        "module u{i}(input a, output y); assign y = a ^ 1'b{}; endmodule",
                        i % 2
                    ),
                ),
            })
            .collect();
        let naive: Vec<u64> = dedup_naive(pool.clone(), 0.95).into_iter().map(|s| s.id).collect();
        let fast: Vec<u64> = dedup(pool, 0.95).into_iter().map(|s| s.id).collect();
        assert_eq!(naive, fast);
    }

    #[test]
    fn threshold_one_keeps_only_exact_collisions() {
        let near = format!("{M1}\n// trailing comment");
        let pool = vec![raw(0, M1), raw(1, &near)];
        let out = dedup(pool, 1.0);
        assert_eq!(out.len(), 2, "not exactly identical shingle sets");
    }

    #[test]
    fn empty_pool_ok() {
        assert!(dedup(Vec::new(), 0.9).is_empty());
    }

    #[test]
    fn shingles_of_empty_source_is_empty() {
        assert!(shingles("").is_empty());
        assert!(!shingles("module m; endmodule").is_empty());
    }

    #[test]
    fn multibyte_sources_dedup_without_panicking() {
        // Regression: byte-indexed tokenization panicked on the first
        // non-ASCII char. A scraped file with a `// café` comment must
        // tokenize, and near-duplicates differing only in such comments
        // must still collapse.
        // Each non-ASCII char tokenizes alone, so keep the comment short
        // enough that the copy stays above the 0.8 Jaccard threshold.
        let near = format!("// café 配線\n{M1}");
        assert!(!shingles(&near).is_empty());
        assert!(jaccard(&shingles(M1), &shingles(&near)) >= 0.8, "fixture drifted");
        let pool = vec![raw(0, M1), raw(1, &near), raw(2, M2)];
        let out = dedup(pool, 0.8);
        let ids: Vec<u64> = out.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 2], "multibyte-comment near-copy removed, first kept");
    }

    #[test]
    fn multibyte_and_ascii_tokenization_agree_on_ascii() {
        // The char-aware rewrite must be a drop-in for ASCII sources —
        // identical shingles keep every pinned dedup outcome identical.
        let sets = shingles(M1);
        assert!((jaccard(&sets, &shingles(M1)) - 1.0).abs() < 1e-12);
        // A multibyte char is one token, not a byte sequence: the same
        // text with the char removed differs by exactly that token stream.
        let a = shingles("assign y = a; // é\nassign z = b;");
        let b = shingles("assign y = a; //\nassign z = b;");
        assert_ne!(a, b);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        /// A random Unicode source: every draw mixes plain ASCII
        /// Verilog-ish text with code points from the whole scalar-value
        /// range (multibyte letters, combining marks, emoji, exotic
        /// whitespace) so word/boundary handling sees every byte-length.
        fn arbitrary_unicode(seed: u64, len: usize) -> String {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut out = String::with_capacity(len * 2);
            for _ in 0..len {
                let c = match rng.random_range(0..4u32) {
                    0 => char::from(rng.random_range(0x20u32..0x7f) as u8),
                    1 => [' ', '\n', '\t', '\u{a0}', '\u{2028}', ';', '_', '$']
                        [rng.random_range(0..8usize)],
                    _ => loop {
                        let raw = rng.random_range(0u32..0x11_0000);
                        if let Some(c) = char::from_u32(raw) {
                            break c;
                        }
                    },
                };
                out.push(c);
            }
            out
        }

        /// Builds a pool mixing exact copies, lightly mutated copies, and
        /// fresh unrelated modules — the three regimes that exercise the
        /// banding recall, the exact verification, and the survivor sweep.
        fn random_pool(seed: u64, n: usize) -> Vec<RawSample> {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let bases = [M1, M2];
            (0..n as u64)
                .map(|i| {
                    let src = match rng.random_range(0..6u32) {
                        0 | 1 => bases[rng.random_range(0..bases.len())].to_owned(),
                        2 => format!(
                            "// copy {}\n{}",
                            rng.random_range(0..3u32),
                            bases[rng.random_range(0..bases.len())]
                        ),
                        3 => format!(
                            "{}\n// trailing note {}",
                            bases[rng.random_range(0..bases.len())],
                            rng.random_range(0..3u32)
                        ),
                        _ => format!(
                            "module g{i}(input [{}:0] a, input b, output y);\n  \
                             assign y = a[{}] ^ b;\nendmodule",
                            rng.random_range(1..8u32),
                            rng.random_range(0..2u32)
                        ),
                    };
                    raw(i, &src)
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// MinHash + LSH dedup keeps exactly the samples the naive
            /// all-pairs Jaccard sweep keeps, at the paper's 0.85
            /// threshold, on pools of copies / near-copies / originals.
            #[test]
            fn lsh_dedup_matches_naive_all_pairs(
                seed in 0u64..5_000,
                n in 8usize..60,
            ) {
                let pool = random_pool(seed, n);
                let naive: Vec<u64> =
                    dedup_naive(pool.clone(), 0.85).into_iter().map(|s| s.id).collect();
                let fast: Vec<u64> =
                    dedup(pool, 0.85).into_iter().map(|s| s.id).collect();
                prop_assert_eq!(naive, fast);
            }

            /// `shingles` never panics, whatever Unicode lands in the
            /// pool — scraped corpora carry non-ASCII comments,
            /// identifiers, and the occasional binary-ish garbage, and a
            /// char-boundary panic here used to kill the whole pipeline.
            #[test]
            fn shingles_never_panics_on_arbitrary_unicode(
                seed in 0u64..100_000,
                len in 0usize..300,
            ) {
                let src = arbitrary_unicode(seed, len);
                let set = shingles(&src);
                prop_assert!((jaccard(&set, &set) - 1.0).abs() < 1e-12);
                // And the full dedup sweep over such sources stays sound.
                let pool = vec![raw(0, &src), raw(1, &src), raw(2, M1)];
                let out = dedup(pool, 0.85);
                prop_assert!(out.iter().any(|s| s.id == 0), "first copy survives");
                prop_assert!(!out.iter().any(|s| s.id == 1), "exact copy removed");
            }

            /// The survivor set is invariant under the executor's thread
            /// count — the parallel stage only computes per-sample
            /// signatures.
            #[test]
            fn dedup_is_thread_count_invariant(
                seed in 0u64..5_000,
                n in 8usize..40,
            ) {
                let pool = random_pool(seed, n);
                let one: Vec<u64> = dedup_with(pool.clone(), 0.85, &ExecConfig::new().threads(1))
                    .into_iter()
                    .map(|s| s.id)
                    .collect();
                let eight: Vec<u64> = dedup_with(pool, 0.85, &ExecConfig::new().threads(8))
                    .into_iter()
                    .map(|s| s.id)
                    .collect();
                prop_assert_eq!(one, eight);
            }
        }
    }
}
