//! The one report every `bench_*` binary writes, and the one timing loop
//! that fills it.
//!
//! A report is `{bench, scale, host_parallelism, commit, repeats, params,
//! rows}` and lands in `BENCH_<bench>.json` in the working directory. Each
//! row is `{name, secs, median_secs, work, unit, per_sec, baseline,
//! speedup, counts, labels}`:
//!
//! * `secs` / `median_secs` — the fastest and the median repeat's wall
//!   seconds (a row that sums a breakdown sums both);
//! * `work` units of `unit` (tokens, vectors, samples, files) per repeat,
//!   and `per_sec` = `work / secs`;
//! * `speedup` = `per_sec` ÷ the `baseline` row's `per_sec` — the wall-time
//!   ratio wherever both rows do the same work;
//! * `counts` — integers the run counted (engine counters, cache hits);
//!   `labels` — what describes the row (kernel family, output digest).
//!
//! Breakdowns (per problem, per design, per thread count, per stage) are
//! rows named `<path>/<id>` under their aggregate.

use crate::Scale;
use pyranet::obs::SnapshotValue;
use serde::{Content, Serialize};
use std::time::Instant;

/// A report's keys, in order.
pub const REPORT_KEYS: [&str; 7] =
    ["bench", "scale", "host_parallelism", "commit", "repeats", "params", "rows"];
/// A row's keys, in order.
pub const ROW_KEYS: [&str; 10] = [
    "name",
    "secs",
    "median_secs",
    "work",
    "unit",
    "per_sec",
    "baseline",
    "speedup",
    "counts",
    "labels",
];

/// Fastest and median wall seconds over one measurement's repeats.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Secs {
    /// The fastest repeat.
    pub fastest: f64,
    /// The median repeat (the mean of the middle two for an even count).
    pub median: f64,
}

impl Secs {
    /// Fastest and median of per-repeat seconds (zero for none).
    pub fn of(repeats: &[f64]) -> Secs {
        let mut sorted = repeats.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Secs::default();
        }
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        Secs { fastest: sorted[0], median }
    }
}

impl std::ops::Add for Secs {
    type Output = Secs;
    fn add(self, other: Secs) -> Secs {
        Secs { fastest: self.fastest + other.fastest, median: self.median + other.median }
    }
}

impl std::iter::Sum for Secs {
    fn sum<I: Iterator<Item = Secs>>(iter: I) -> Secs {
        iter.fold(Secs::default(), std::ops::Add::add)
    }
}

/// The wall time of one repeat: only the work handed to [`Clock::time`]
/// counts, so setup and checks around it stay untimed.
#[derive(Debug, Default)]
pub struct Clock {
    secs: f64,
}

impl Clock {
    /// Runs `work` and adds its wall time to this repeat's.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = work();
        self.secs += start.elapsed().as_secs_f64();
        out
    }
}

/// One measurement: its seconds and the fastest repeat's output.
#[derive(Debug)]
pub struct Timed<T> {
    /// Fastest and median repeat.
    pub secs: Secs,
    /// What the fastest repeat returned (the first, on a tie).
    pub out: T,
}

/// Runs `repeat` `repeats` times (at least once), each with a fresh
/// [`Clock`], and keeps the fastest repeat's output.
pub fn best_of<T>(repeats: usize, mut repeat: impl FnMut(&mut Clock) -> T) -> Timed<T> {
    let mut secs = Vec::with_capacity(repeats.max(1));
    let mut fastest = None;
    for _ in 0..repeats.max(1) {
        let mut clock = Clock::default();
        let out = repeat(&mut clock);
        if secs.iter().all(|&s| clock.secs < s) {
            fastest = Some(out);
        }
        secs.push(clock.secs);
    }
    Timed { secs: Secs::of(&secs), out: fastest.expect("at least one repeat") }
}

/// Counters of the process-global metrics registry, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(Vec<(String, u64)>);

impl Counters {
    /// Every counter whose name starts with `prefix`.
    pub fn read(prefix: &str) -> Counters {
        let snap = pyranet::obs::global().snapshot();
        Counters(
            snap.entries
                .into_iter()
                .filter_map(|e| match e.value {
                    SnapshotValue::Counter(v) if e.name.starts_with(prefix) => Some((e.name, v)),
                    _ => None,
                })
                .collect(),
        )
    }

    /// What each counter gained since `before`.
    #[must_use]
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(self.0.iter().map(|(k, v)| (k.clone(), v - before.get(k))).collect())
    }

    /// A counter's value; 0 when absent.
    pub fn get(&self, name: &str) -> u64 {
        self.0.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
    }
}

impl std::ops::Add for Counters {
    type Output = Counters;
    fn add(mut self, other: Counters) -> Counters {
        for (k, v) in other.0 {
            match self.0.binary_search_by(|(name, _)| name.as_str().cmp(&k)) {
                Ok(i) => self.0[i].1 += v,
                Err(i) => self.0.insert(i, (k, v)),
            }
        }
        self
    }
}

/// One timed path of a report.
#[derive(Debug, Serialize)]
pub struct Row {
    name: String,
    secs: f64,
    median_secs: f64,
    work: u64,
    unit: String,
    per_sec: f64,
    baseline: Option<String>,
    speedup: Option<f64>,
    counts: Content,
    labels: Content,
}

fn insert(map: &mut Content, key: &str, value: Content) {
    if let Content::Map(entries) = map {
        entries.push((key.to_owned(), value));
    }
}

impl Row {
    /// A row doing `work` units of `unit` per repeat in `secs`.
    pub fn new(name: impl Into<String>, secs: Secs, work: u64, unit: &str) -> Row {
        Row {
            name: name.into(),
            secs: secs.fastest,
            median_secs: secs.median,
            work,
            unit: unit.to_owned(),
            per_sec: if secs.fastest > 0.0 { work as f64 / secs.fastest } else { 0.0 },
            baseline: None,
            speedup: None,
            counts: Content::Map(Vec::new()),
            labels: Content::Map(Vec::new()),
        }
    }

    /// Compares this row against the row named `name` (itself included);
    /// [`Report::push`] fills in the speedup.
    #[must_use]
    pub fn baseline(mut self, name: impl Into<String>) -> Row {
        self.baseline = Some(name.into());
        self
    }

    /// Records one count.
    #[must_use]
    pub fn count(mut self, key: &str, value: u64) -> Row {
        insert(&mut self.counts, key, Content::U64(value));
        self
    }

    /// Records every counter of `counters` under its metric name.
    #[must_use]
    pub fn counts(self, counters: &Counters) -> Row {
        counters.0.iter().fold(self, |row, (k, v)| row.count(k, *v))
    }

    /// Records one label.
    #[must_use]
    pub fn label(mut self, key: &str, value: impl Serialize) -> Row {
        insert(&mut self.labels, key, value.to_content());
        self
    }

    /// Work per second of the fastest repeat.
    pub fn per_sec(&self) -> f64 {
        self.per_sec
    }

    /// `per_sec` over the baseline row's, once pushed.
    pub fn speedup(&self) -> Option<f64> {
        self.speedup
    }
}

/// One bench binary's report.
#[derive(Debug, Serialize)]
pub struct Report {
    bench: String,
    scale: String,
    host_parallelism: u64,
    commit: Option<String>,
    repeats: u64,
    params: Content,
    rows: Vec<Row>,
}

impl Report {
    /// An empty report for `bench` (written to `BENCH_<bench>.json`),
    /// recording the host's parallelism and the source commit.
    pub fn new(bench: &str, scale: Scale, repeats: usize) -> Report {
        Report {
            bench: bench.to_owned(),
            scale: scale.name().to_owned(),
            host_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
            commit: commit(),
            repeats: repeats as u64,
            params: Content::Map(Vec::new()),
            rows: Vec::new(),
        }
    }

    /// Records one workload parameter.
    pub fn param(&mut self, key: &str, value: impl Serialize) -> &mut Report {
        insert(&mut self.params, key, value.to_content());
        self
    }

    /// Appends `row`, computing its speedup over its baseline row, and
    /// returns it.
    ///
    /// # Panics
    ///
    /// When the baseline names neither the row itself nor a row pushed
    /// before it.
    pub fn push(&mut self, mut row: Row) -> &Row {
        if let Some(base) = &row.baseline {
            let base_per_sec = if *base == row.name {
                row.per_sec
            } else {
                let base_row = self.rows.iter().find(|r| r.name == *base);
                base_row.unwrap_or_else(|| panic!("no baseline row `{base}`")).per_sec
            };
            row.speedup = (base_per_sec > 0.0).then(|| row.per_sec / base_per_sec);
        }
        self.rows.push(row);
        self.rows.last().expect("just pushed")
    }

    /// Writes `BENCH_<bench>.json` to the working directory and prints it.
    ///
    /// # Panics
    ///
    /// When the file cannot be written.
    pub fn write(&self) {
        let path = format!("BENCH_{}.json", self.bench);
        let json = serde_json::to_string_pretty(self).expect("serialise report");
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("{json}");
        eprintln!("wrote {path}");
    }
}

/// The commit the bench crate's source tree is at, suffixed `-dirty` when
/// the sources the binaries build from (`crates/`, `vendor/`, the root
/// manifest and lock file) differ from it; `None` without git. The
/// reports are tracked too, so they are left out of the check.
fn commit() -> Option<String> {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(env!("CARGO_MANIFEST_DIR"))
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
    };
    let head = String::from_utf8_lossy(&git(&["rev-parse", "HEAD"])?.stdout).trim().to_owned();
    let status = ["status", "--porcelain", "--untracked-files=no", "--"];
    let sources = [":/crates", ":/vendor", ":/Cargo.toml", ":/Cargo.lock"];
    let dirty = git(&[status, sources].concat()).is_some_and(|o| !o.stdout.is_empty());
    Some(if dirty { format!("{head}-dirty") } else { head })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_are_fastest_and_median() {
        assert_eq!(Secs::of(&[3.0, 1.0, 2.0]), Secs { fastest: 1.0, median: 2.0 });
        assert_eq!(Secs::of(&[4.0, 1.0, 2.0, 3.0]), Secs { fastest: 1.0, median: 2.5 });
        assert_eq!(Secs::of(&[]), Secs::default());
        let sum: Secs = [Secs::of(&[1.0]), Secs::of(&[2.0, 4.0])].into_iter().sum();
        assert_eq!(sum, Secs { fastest: 3.0, median: 4.0 });
    }

    #[test]
    fn best_of_keeps_the_fastest_repeats_output() {
        let mut n = 0u32;
        let timed = best_of(3, |clock| {
            n += 1;
            // The second repeat does the least timed work.
            let spins = if n == 2 { 1 } else { 200_000 };
            clock.time(|| (0..spins).fold(0u64, |a, i| std::hint::black_box(a ^ i)));
            n
        });
        assert_eq!(n, 3);
        assert_eq!(timed.out, 2);
        assert!(timed.secs.fastest <= timed.secs.median);
        // Untimed work does not count.
        let idle = best_of(1, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert_eq!(idle.secs.fastest, 0.0);
    }

    #[test]
    fn counters_subtract_and_sum_by_name() {
        let a = Counters(vec![("x.a".into(), 5), ("x.b".into(), 7)]);
        let before = Counters(vec![("x.a".into(), 2)]);
        let delta = a.since(&before);
        assert_eq!(delta, Counters(vec![("x.a".into(), 3), ("x.b".into(), 7)]));
        let sum = delta + Counters(vec![("x.0".into(), 1), ("x.b".into(), 1)]);
        assert_eq!(sum.get("x.0"), 1);
        assert_eq!(sum.get("x.b"), 8);
        assert_eq!(sum.get("x.missing"), 0);
        assert_eq!(
            sum.0.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["x.0", "x.a", "x.b"]
        );
    }

    #[test]
    fn every_row_has_the_same_keys_and_a_speedup_over_its_baseline() {
        let mut report = Report::new("unit", Scale::Quick, 2);
        report.param("problems", 2usize);
        let base = report.push(Row::new("base", Secs::of(&[2.0]), 10, "tokens").baseline("base"));
        assert_eq!(base.speedup(), Some(1.0));
        let fast = Row::new("fast/one", Secs::of(&[1.0, 3.0]), 10, "tokens")
            .baseline("base")
            .count("steps", 4)
            .label("kernel", "blocked");
        let fast = report.push(fast);
        assert_eq!((fast.per_sec(), fast.speedup()), (10.0, Some(2.0)));
        assert_eq!(report.push(Row::new("plain", Secs::default(), 0, "tokens")).speedup(), None);

        let json: Content = serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        let keys =
            |c: &Content| c.as_map().unwrap().iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&json), REPORT_KEYS);
        let rows = serde::map_get(json.as_map().unwrap(), "rows").unwrap().as_seq().unwrap();
        assert!(rows.iter().all(|r| keys(r) == ROW_KEYS));
    }

    #[test]
    #[should_panic(expected = "no baseline row `missing`")]
    fn a_baseline_must_be_pushed_first() {
        Report::new("unit", Scale::Quick, 1)
            .push(Row::new("a", Secs::of(&[1.0]), 1, "x").baseline("missing"));
    }
}
