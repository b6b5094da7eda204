//! Deterministic parallel execution for the PyraNet pipeline.
//!
//! The curation and evaluation hot paths are all shaped like "apply a
//! pure function to every element of a batch". This crate provides that
//! one primitive, parallelised over scoped threads, with a hard
//! determinism contract:
//!
//! > For a pure per-item function, [`par_map`] returns **exactly** the
//! > same `Vec` — same values, same order — at any thread count,
//! > including 1.
//!
//! The contract holds by construction: the input is split into
//! contiguous chunks tagged with their chunk index, idle workers steal
//! whole chunks from a shared stack, and the mapped chunks are
//! reassembled by sorting on the chunk index. Scheduling order can vary
//! run to run; the output cannot.
//!
//! Randomised stages keep the contract by re-keying their RNG per item
//! (see [`stream_seed`] / [`stream_seed_str`]) instead of threading one
//! sequential RNG through the batch, so each item's entropy is a pure
//! function of `(master seed, item identity)`. The crate also holds the
//! workspace's one stable hash, [`Fnv64`], which those string keys go
//! through.
//!
//! Thread-count resolution (first match wins):
//! 1. an explicit [`ExecConfig::threads`] value `> 0`;
//! 2. the `PYRANET_THREADS` environment variable, when it is a count in
//!    `1..=`[`MAX_THREADS`];
//! 3. [`std::thread::available_parallelism`].
//!
//! Every count is capped at [`MAX_THREADS`]: [`par_map`] spawns one OS
//! thread per worker on every call.

/// The most worker threads a parallel call uses. Far above the 8 the
/// determinism tests pin; a larger request is an error at the CLI and is
/// capped here.
pub const MAX_THREADS: usize = 256;

/// Thread-count knob for the executor.
///
/// The zero value (default) means "auto": resolve from `PYRANET_THREADS`
/// or the machine's available parallelism at call time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecConfig {
    requested: usize,
}

impl ExecConfig {
    /// Auto configuration (env override, then available parallelism).
    pub fn new() -> Self {
        ExecConfig::default()
    }

    /// Explicit thread count; `0` restores auto resolution.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.requested = threads;
        self
    }

    /// The thread count configured explicitly, or `0` for auto.
    pub fn requested_threads(&self) -> usize {
        self.requested
    }

    /// The thread count a parallel call will actually use (before
    /// clamping to the batch size), at most [`MAX_THREADS`].
    pub fn effective_threads(&self) -> usize {
        if self.requested > 0 {
            return self.requested.min(MAX_THREADS);
        }
        if let Some(n) = std::env::var("PYRANET_THREADS").ok().as_deref().and_then(parse_threads) {
            return n;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(MAX_THREADS)
    }
}

/// A `PYRANET_THREADS` value: a count in `1..=`[`MAX_THREADS`], else
/// `None` (ignored).
fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|n| (1..=MAX_THREADS).contains(n))
}

/// Maps `f` over `items`, in parallel, preserving order.
///
/// `f` must be pure per item for the determinism contract to hold; the
/// executor guarantees the rest (output index `i` is always `f(items[i])`,
/// independent of thread count and scheduling).
pub fn par_map<T, U, F>(config: &ExecConfig, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = config.effective_threads().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // More chunks than threads so a worker that draws cheap items can
    // steal the remainder of an expensive worker's share.
    let chunk_size = n.div_ceil(threads * 4).max(1);
    let mut chunks: Vec<(usize, Vec<T>)> = Vec::new();
    let mut iter = items.into_iter();
    loop {
        let chunk: Vec<T> = iter.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push((chunks.len(), chunk));
    }

    let queue = parking_lot::Mutex::new(chunks);
    let done: parking_lot::Mutex<Vec<(usize, Vec<U>)>> = parking_lot::Mutex::new(Vec::new());
    let f = &f;
    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let next = queue.lock().pop();
                let Some((chunk_idx, chunk)) = next else { break };
                let mapped: Vec<U> = chunk.into_iter().map(f).collect();
                done.lock().push((chunk_idx, mapped));
            });
        }
    })
    .expect("executor scope");

    let mut mapped_chunks = done.into_inner();
    mapped_chunks.sort_unstable_by_key(|&(chunk_idx, _)| chunk_idx);
    mapped_chunks.into_iter().flat_map(|(_, chunk)| chunk).collect()
}

/// Borrowing variant of [`par_map`]: maps `f` over the elements of a
/// slice in parallel, preserving order, without taking ownership of the
/// items. Same determinism contract.
pub fn par_map_ref<'a, T, U, F>(config: &ExecConfig, items: &'a [T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&'a T) -> U + Sync,
{
    par_map(config, items.iter().collect(), f)
}

/// The splitmix64 finalizer: a bijective avalanche mix of one `u64`.
/// Shared by [`stream_seed`] and the dedup MinHash permutations.
#[inline]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent RNG seed for stream `stream` of a master seed.
///
/// splitmix64-style finalisation: well spread even for consecutive
/// stream indices, and stable across platforms. Seeding one RNG per item
/// from this (instead of sharing one sequential RNG across the batch) is
/// what makes randomised stages safe to parallelise.
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    splitmix64_mix(
        master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03),
    )
}

/// [`stream_seed`] keyed by a string identity (e.g. an eval problem id),
/// hashed with FNV-1a so the mapping is stable across runs and platforms.
pub fn stream_seed_str(master: u64, stream: &str) -> u64 {
    stream_seed(master, fnv1a64(stream.as_bytes()))
}

/// Streaming FNV-1a 64-bit hasher — the one stable, platform-independent
/// hash behind shard and verdict-record checksums, stage config
/// fingerprints, RNG stream keys and the serve prefix cache. Streaming lets keys be derived over several fields
/// without concatenating buffers.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// Fresh hasher at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Fnv64 {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the state.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` in little-endian byte order.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One-shot FNV-1a 64 of a byte slice.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collatz_steps(mut v: u64) -> u64 {
        let mut steps = 0;
        while v > 1 {
            v = if v.is_multiple_of(2) { v / 2 } else { 3 * v + 1 };
            steps += 1;
        }
        steps
    }

    #[test]
    fn par_map_matches_sequential_at_every_thread_count() {
        let items: Vec<u64> = (1..=500).collect();
        let expected: Vec<u64> = items.iter().map(|&v| collatz_steps(v)).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let cfg = ExecConfig::new().threads(threads);
            let got = par_map(&cfg, items.clone(), collatz_steps);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let cfg = ExecConfig::new().threads(8);
        assert_eq!(par_map(&cfg, Vec::<u64>::new(), collatz_steps), Vec::<u64>::new());
        assert_eq!(par_map(&cfg, vec![27u64], collatz_steps), vec![111]);
    }

    #[test]
    fn par_map_preserves_order_with_skewed_work() {
        // Front-loaded heavy items force chunk stealing; order must hold.
        let items: Vec<u64> = (0..200).map(|i| if i < 10 { 1_000_000 + i } else { i }).collect();
        let cfg = ExecConfig::new().threads(4);
        let got = par_map(&cfg, items.clone(), collatz_steps);
        let expected: Vec<u64> = items.iter().map(|&v| collatz_steps(v)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn par_map_ref_matches_owned_map() {
        let items: Vec<u64> = (1..=100).collect();
        let expected: Vec<u64> = items.iter().map(|&v| collatz_steps(v)).collect();
        for threads in [1, 2, 8] {
            let cfg = ExecConfig::new().threads(threads);
            let got = par_map_ref(&cfg, &items, |&v| collatz_steps(v));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn explicit_threads_beat_env_and_auto() {
        let cfg = ExecConfig::new().threads(3);
        assert_eq!(cfg.effective_threads(), 3);
        assert_eq!(ExecConfig::new().requested_threads(), 0);
        assert!(ExecConfig::new().effective_threads() >= 1);
    }

    #[test]
    fn thread_counts_are_bounded() {
        for (raw, want) in [
            ("1", Some(1)),
            (" 8\n", Some(8)),
            ("256", Some(MAX_THREADS)),
            ("257", None),
            ("5000", None),
            ("0", None),
            ("-1", None),
            ("four", None),
            ("", None),
        ] {
            assert_eq!(parse_threads(raw), want, "{raw:?}");
        }
        // Resolving a count spawns nothing; an explicit count is capped.
        let cfg = ExecConfig::new().threads(MAX_THREADS + 1);
        assert_eq!(cfg.effective_threads(), MAX_THREADS);
        assert_eq!(cfg.requested_threads(), MAX_THREADS + 1);
    }

    #[test]
    fn fnv_streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let a = stream_seed(42, 0);
        let b = stream_seed(42, 1);
        let c = stream_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(stream_seed(42, 0), a);
        assert_ne!(stream_seed_str(42, "mux_2"), stream_seed_str(42, "mux_4"));
        assert_eq!(stream_seed_str(7, "adder"), stream_seed_str(7, "adder"));
    }
}
