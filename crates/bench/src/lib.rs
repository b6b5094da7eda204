//! Shared harness for the table/figure regeneration binaries and the
//! `bench_*` reporters.
//!
//! Every binary honours `PYRANET_SCALE`:
//!
//! * `quick` — minutes-scale smoke run (small corpus, few samples);
//! * `full` (default) — the scale used for EXPERIMENTS.md.
//!
//! Any other value stops the binary with an error.
//!
//! Results of the expensive Table I run are cached as JSON under
//! `target/pyranet-results/` so Table III can be derived without
//! retraining. The `bench_*` binaries write one [`Report`] each (see
//! [`report`]).

pub mod report;

pub use report::{best_of, Counters, Report, Row, Secs};

use pyranet::eval::EvalOptions;
use pyranet::train::TrainConfig;
use pyranet::{BuildOptions, ExperimentOptions};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Run scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast smoke run.
    Quick,
    /// The EXPERIMENTS.md scale.
    Full,
}

impl Scale {
    /// Reads `PYRANET_SCALE` (default `full`), exiting with status 2 on
    /// any other value than `quick` or `full`.
    pub fn from_env() -> Scale {
        let raw = std::env::var_os("PYRANET_SCALE").map(|v| v.to_string_lossy().into_owned());
        match Scale::parse(raw.as_deref()) {
            Ok(scale) => scale,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// The scale a `PYRANET_SCALE` value names: `quick`, `full`, or
    /// `full` when unset.
    ///
    /// # Errors
    ///
    /// Names the variable and both values for anything else.
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            Some("quick") => Ok(Scale::Quick),
            Some("full") | None => Ok(Scale::Full),
            Some(other) => {
                Err(format!("bad PYRANET_SCALE `{other}` (quick|full, or unset for full)"))
            }
        }
    }

    /// The scale's `PYRANET_SCALE` value.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Dataset build options for this scale.
    pub fn build_options(self) -> BuildOptions {
        match self {
            Scale::Quick => BuildOptions {
                scraped_files: 200,
                llm_generation: false,
                ..BuildOptions::default()
            },
            Scale::Full => BuildOptions { scraped_files: 1200, ..BuildOptions::default() },
        }
    }

    /// Training/eval options for this scale.
    pub fn experiment_options(self) -> ExperimentOptions {
        match self {
            Scale::Quick => ExperimentOptions {
                train: TrainConfig {
                    epochs: 1,
                    max_examples_per_phase: Some(12),
                    ..TrainConfig::default()
                },
                eval: EvalOptions {
                    samples_per_problem: 3,
                    max_new_tokens: 60,
                    ..EvalOptions::default()
                },
            },
            // No per-phase cap at full scale: every recipe sees the whole
            // dataset (the paper's comparison differs only in ordering and
            // loss weights, not in data volume).
            Scale::Full => ExperimentOptions {
                train: TrainConfig {
                    epochs: 2,
                    max_examples_per_phase: None,
                    ..TrainConfig::default()
                },
                eval: EvalOptions {
                    samples_per_problem: 10,
                    max_new_tokens: 120,
                    ..EvalOptions::default()
                },
            },
        }
    }
}

/// One Table I row, serialisable for the results cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableRow {
    /// Row label.
    pub name: String,
    /// machine pass@1/5/10, human pass@1/5/10.
    pub values: [f64; 6],
}

/// Cached results of the Table I run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table1Results {
    /// Rows in paper order.
    pub rows: Vec<TableRow>,
}

impl Table1Results {
    /// Finds a row by exact name.
    pub fn row(&self, name: &str) -> Option<&TableRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Directory where result caches live.
pub fn results_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("target");
    p.push("pyranet-results");
    p
}

/// Saves Table I results to the cache.
///
/// # Errors
///
/// Propagates I/O and serialization failures.
pub fn save_table1(results: &Table1Results) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("table1.json");
    std::fs::write(&path, serde_json::to_string_pretty(results)?)?;
    Ok(path)
}

/// Loads cached Table I results, if present.
pub fn load_table1() -> Option<Table1Results> {
    let path = results_dir().join("table1.json");
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Formats a Table I-style block.
pub fn format_table(title: &str, rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<52} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}\n",
        "Model", "M p@1", "M p@5", "M p@10", "H p@1", "H p@5", "H p@10"
    ));
    out.push_str(&"-".repeat(104));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<52} | {:>7.1} {:>7.1} {:>7.1} | {:>7.1} {:>7.1} {:>7.1}\n",
            r.name, r.values[0], r.values[1], r.values[2], r.values[3], r.values[4], r.values[5]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_options_differ() {
        assert_eq!(Scale::Full.build_options().scraped_files, 1200);
        assert_eq!(Scale::Quick.build_options().scraped_files, 200);
        assert!(
            Scale::Full.experiment_options().eval.samples_per_problem
                > Scale::Quick.experiment_options().eval.samples_per_problem
        );
    }

    #[test]
    fn scale_parse_accepts_quick_full_or_unset_only() {
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        assert_eq!(Scale::parse(None), Ok(Scale::Full));
        for typo in ["quik", "Quick", "", " full"] {
            let err = Scale::parse(Some(typo)).expect_err(typo);
            assert!(err.contains("PYRANET_SCALE"), "{err}");
            assert!(err.contains("quick") && err.contains("full"), "{err}");
        }
        for scale in [Scale::Quick, Scale::Full] {
            assert_eq!(Scale::parse(Some(scale.name())), Ok(scale));
        }
    }

    #[test]
    fn table_formatting_contains_rows() {
        let rows = vec![TableRow { name: "x".into(), values: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] }];
        let t = format_table("TABLE I", &rows);
        assert!(t.contains("TABLE I"));
        assert!(t.contains("x"));
        assert!(t.contains("6.0"));
    }

    #[test]
    fn results_round_trip_json() {
        let r = Table1Results { rows: vec![TableRow { name: "a".into(), values: [0.0; 6] }] };
        let json = serde_json::to_string(&r).unwrap();
        let back: Table1Results = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        assert!(back.row("a").is_some());
        assert!(back.row("b").is_none());
    }
}
