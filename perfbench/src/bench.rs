//! Shared plumbing: known-answer bookkeeping, order statistics, digests
//! and metrics-registry reads.

/// Known-answer bookkeeping: every checked operation counts as attempted,
/// and a wrong answer as failed, with a note saying which.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one operation; `what` names it when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `v`; infinite entries sort
/// last, so a refused request counts as slower than every served one.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// A fixed CPU task that uses none of the repository's code: a lexer-like
/// byte scan, FNV hashing into a small hash map, and f32 matrix-vector
/// products. Returns its wall time in seconds: five times the median of
/// five timed fifths, so a stall of the host that hits one fifth (10 ms
/// stalls happen) does not move it.
pub fn probe() -> f64 {
    let fifths: Vec<f64> = (0..5).map(|_| probe_fifth()).collect();
    5.0 * median(&fifths)
}

/// One fifth of [`probe`]'s work, timed.
fn probe_fifth() -> f64 {
    const TEXT: &[u8] = b"module adder(input [3:0] a, input [3:0] b, output [4:0] s);\n  \
        assign s = a + b; // sum\n  always @(posedge clk) begin q <= d ^ q; end\nendmodule\n";
    let start = std::time::Instant::now();
    let mut counts: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut w = [[0f32; 32]; 32];
    for (i, row) in w.iter_mut().enumerate() {
        for (j, x) in row.iter_mut().enumerate() {
            *x = ((i * 31 + j * 17) % 13) as f32 * 0.01;
        }
    }
    let mut v = [0.5f32; 32];
    for round in 0..8u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ round;
        let mut in_word = false;
        for &b in TEXT.iter().cycle().take(2048) {
            let word = b.is_ascii_alphanumeric() || b == b'_';
            if word {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            } else if in_word {
                *counts.entry(h & 0xfff).or_insert(0) += 1;
                h = 0xcbf2_9ce4_8422_2325u64 ^ round;
            }
            in_word = word;
        }
        for _ in 0..4 {
            let mut out = [0f32; 32];
            for (o, row) in out.iter_mut().zip(&w) {
                *o = row.iter().zip(&v).map(|(a, b)| a * b).sum::<f32>().tanh();
            }
            v = out;
        }
    }
    std::hint::black_box((counts.len(), v));
    start.elapsed().as_secs_f64()
}

/// A sliver of probe-like work for the open loop's idle time: an FNV scan
/// of 256 bytes and two 32×32 f32 matrix-vector products, a few KB of
/// working set and 4–6 µs. Returns its wall time in seconds.
pub fn probe_slice() -> f64 {
    const TEXT: &[u8] =
        b"module adder(input [3:0] a, output [4:0] s); assign s = a + 1; endmodule\n";
    let start = std::time::Instant::now();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in TEXT.iter().cycle().take(256) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut v = [(h & 0xff) as f32 * 1e-3; 32];
    for _ in 0..2 {
        let mut out = [0f32; 32];
        for (i, o) in out.iter_mut().enumerate() {
            *o = v
                .iter()
                .enumerate()
                .map(|(j, x)| ((i * 31 + j * 17) % 13) as f32 * 0.01 * x)
                .sum::<f32>()
                .tanh();
        }
        v = out;
    }
    std::hint::black_box(v);
    start.elapsed().as_secs_f64()
}

/// FNV-1a digest of `bytes` (the shard checksum hasher).
pub fn digest(bytes: &[u8]) -> u64 {
    pyranet::pipeline::persist::fnv1a64(bytes)
}

/// Current value of a counter in the process-global metrics registry.
pub fn counter(name: &str) -> u64 {
    pyranet::obs::global().snapshot().counter(name).unwrap_or(0)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[1.0, f64::INFINITY], 90.0), f64::INFINITY);
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "bad".into());
        assert_eq!((c.attempted, c.failed, c.notes.len()), (2, 1, 1));
    }
}
