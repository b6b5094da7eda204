//! Prefix (radix) cache: prefilled KV snapshots shared across requests
//! whose *kept* prompt tokens are identical.
//!
//! The key is an FNV-1a hash of the kept token ids, but the stored
//! tokens are compared on every hit — a hash collision degrades to a
//! miss (the prefill reruns, uncached) rather than silently serving
//! another prompt's KV cache. Entries hold `Arc<PrefixState>` so a hit
//! is a pointer bump, not a KV copy; eviction is strict LRU on a
//! monotonic access tick, which keeps replay byte-deterministic.

use std::collections::HashMap;
use std::sync::Arc;

use pyranet_exec::Fnv64;
use pyranet_model::PrefixState;

/// What a cache lookup did, for the engine's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served an existing entry.
    Hit,
    /// Prefilled and inserted (possibly evicting the LRU entry).
    Miss,
    /// Hash matched but tokens differed; prefilled without caching.
    Collision,
    /// Cache disabled (`capacity == 0`); prefilled without caching.
    Bypass,
}

/// Lifetime counters, exposed on [`ReplayOutcome`](crate::ReplayOutcome)
/// and mirrored into `serve.prefix_cache.*` metrics by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub collisions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

#[derive(Debug)]
struct Entry {
    /// The exact kept tokens, kept to verify hits against collisions.
    tokens: Vec<usize>,
    state: Arc<PrefixState>,
    last_used: u64,
}

/// LRU-bounded map from kept-prompt-token hash to a shared
/// [`PrefixState`].
#[derive(Debug)]
pub struct PrefixCache {
    capacity: usize,
    entries: HashMap<u64, Entry>,
    tick: u64,
    stats: CacheStats,
}

/// FNV-1a over the little-endian bytes of each token id.
pub fn token_hash(tokens: &[usize]) -> u64 {
    let mut h = Fnv64::new();
    for &t in tokens {
        h.write_u64(t as u64);
    }
    h.finish()
}

impl PrefixCache {
    /// A cache holding at most `capacity` prefilled prompts; 0 disables
    /// caching entirely (every lookup is a [`CacheOutcome::Bypass`]).
    pub fn new(capacity: usize) -> PrefixCache {
        PrefixCache { capacity, entries: HashMap::new(), tick: 0, stats: CacheStats::default() }
    }

    /// Returns the cached prefix for `tokens`, or runs `prefill` and
    /// (capacity permitting) caches the result.
    pub fn get_or_insert_with(
        &mut self,
        tokens: &[usize],
        prefill: impl FnOnce() -> PrefixState,
    ) -> (Arc<PrefixState>, CacheOutcome) {
        self.tick += 1;
        if self.capacity == 0 {
            return (Arc::new(prefill()), CacheOutcome::Bypass);
        }
        let key = token_hash(tokens);
        if let Some(e) = self.entries.get_mut(&key) {
            if e.tokens == tokens {
                e.last_used = self.tick;
                self.stats.hits += 1;
                return (e.state.clone(), CacheOutcome::Hit);
            }
            // Same 64-bit hash, different prompt: never share KV state.
            self.stats.collisions += 1;
            return (Arc::new(prefill()), CacheOutcome::Collision);
        }
        self.stats.misses += 1;
        let state = Arc::new(prefill());
        if self.entries.len() >= self.capacity {
            // Ticks are unique, so the LRU victim is unambiguous and
            // eviction order is deterministic across runs.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty cache at capacity");
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
        self.entries.insert(
            key,
            Entry { tokens: tokens.to_vec(), state: state.clone(), last_used: self.tick },
        );
        self.stats.entries = self.entries.len();
        (state, CacheOutcome::Miss)
    }

    /// Lifetime hit/miss/eviction/collision counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyranet_model::{DecodeSession, ModelConfig, TransformerLm};

    fn tiny() -> TransformerLm {
        let cfg = ModelConfig {
            name: "cache-tiny".into(),
            d_model: 8,
            n_layers: 1,
            n_heads: 2,
            d_ff: 16,
            max_seq: 16,
            learning_rate: 1e-3,
            seed: 7,
        };
        TransformerLm::new(cfg, 16)
    }

    #[test]
    fn hits_share_state_and_lru_evicts_the_coldest() {
        let lm = tiny();
        let mut session = DecodeSession::new(&lm);
        let mut cache = PrefixCache::new(2);
        let mut fill = |toks: &[usize], cache: &mut PrefixCache| {
            let (state, outcome) = cache.get_or_insert_with(toks, || session.prefill(toks, 0));
            (state, outcome)
        };

        let (a1, o) = fill(&[5, 6], &mut cache);
        assert_eq!(o, CacheOutcome::Miss);
        let (a2, o) = fill(&[5, 6], &mut cache);
        assert_eq!(o, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a1, &a2), "hit must share, not copy");

        let (_, o) = fill(&[7], &mut cache);
        assert_eq!(o, CacheOutcome::Miss);
        // Touch [5, 6] so [7] is now the LRU entry, then overflow.
        fill(&[5, 6], &mut cache);
        let (_, o) = fill(&[8, 9], &mut cache);
        assert_eq!(o, CacheOutcome::Miss);
        let (_, o) = fill(&[7], &mut cache);
        assert_eq!(o, CacheOutcome::Miss, "[7] was evicted as LRU");
        let (_, o) = fill(&[8, 9], &mut cache);
        assert_eq!(o, CacheOutcome::Hit, "[8, 9] survived");

        let s = cache.stats();
        assert_eq!((s.evictions >= 2, s.entries), (true, 2), "{s:?}");
    }

    #[test]
    fn zero_capacity_bypasses() {
        let lm = tiny();
        let mut session = DecodeSession::new(&lm);
        let mut cache = PrefixCache::new(0);
        for _ in 0..2 {
            let (_, o) = cache.get_or_insert_with(&[5], || session.prefill(&[5], 0));
            assert_eq!(o, CacheOutcome::Bypass);
        }
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn token_hash_is_fnv1a_over_le_token_bytes() {
        let bytes: Vec<u8> = [1u64, 2, 300].iter().flat_map(|t| t.to_le_bytes()).collect();
        assert_eq!(token_hash(&[1, 2, 300]), pyranet_exec::fnv1a64(&bytes));
    }
}
