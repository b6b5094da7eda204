//! Metric definitions, the per-layer → end-to-end map, provenance and the
//! result line.

use serde::Content;
use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower" },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower" },
    EndToEnd { name: "curate_files_per_s", unit: "files/s", better: "higher" },
    EndToEnd { name: "rebuild_files_per_s", unit: "files/s", better: "higher" },
    EndToEnd { name: "score_checks_per_s", unit: "checks/s", better: "higher" },
    EndToEnd { name: "equiv_checks_per_s", unit: "checks/s", better: "higher" },
    EndToEnd { name: "train_tokens_per_s", unit: "tokens/s", better: "higher" },
    EndToEnd { name: "eval_tokens_per_s", unit: "tokens/s", better: "higher" },
    EndToEnd { name: "serve_tokens_per_s", unit: "tokens/s", better: "higher" },
    EndToEnd { name: "serve_p50_ms", unit: "ms", better: "lower" },
    EndToEnd { name: "serve_p75_ms", unit: "ms", better: "lower" },
];

/// A per-layer metric with the end-to-end metric and workload it should
/// move. Times are per repeat of the phase that runs them; `*` marks a
/// remainder after separately timed passes (an estimate).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const CURATE: &str = "curate_files_per_s @ curate";
const DEDUP: &str = "curate_files_per_s, rebuild_files_per_s @ curate; setup_s @ all";
const CACHE: &str = "rebuild_files_per_s @ curate";
const COMPILE: &str = "score_checks_per_s @ score";
const RUN: &str = "equiv_checks_per_s @ score";
const TRAIN: &str = "train_tokens_per_s @ train-eval-serve";
const DECODE: &str =
    "eval_tokens_per_s, serve_tokens_per_s, serve_p50_ms, serve_p75_ms @ train-eval-serve";
const EVAL: &str = "eval_tokens_per_s @ train-eval-serve";
const SERVE: &str = "serve_tokens_per_s, serve_p50_ms, serve_p75_ms @ train-eval-serve";
const NONE: &str = "none (known answers; must not change)";

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $moves:expr) => {
        PerLayer { name: $name, unit: $unit, better: $better, moves: $moves }
    };
}

/// Per-layer metrics, reported by every traced run of every workload.
pub const PER_LAYER: &[PerLayer] = &[
    layer!("corpus.build_s", "s", "lower", "setup_s @ all"),
    layer!(
        "corpus.syntax_mislabels",
        "count",
        "lower",
        "none (generator defect: `SyntaxBroken` samples that parse)"
    ),
    layer!("pipeline.filter_s", "s", "lower", CURATE),
    layer!("pipeline.filter.rejected", "count", "lower", NONE),
    layer!("pipeline.dedup_s", "s", "lower", DEDUP),
    layer!(
        "pipeline.dedup.signature_s",
        "s",
        "lower",
        "curate_files_per_s @ curate; setup_s @ all"
    ),
    layer!("pipeline.dedup.join_s", "s", "lower", DEDUP),
    layer!("pipeline.dedup.survivor_ratio", "ratio", "lower", NONE),
    layer!("pipeline.syntax_rank_s", "s", "lower", CURATE),
    layer!("verilog.parse_s", "s", "lower", CURATE),
    layer!("verilog.check_s", "s", "lower", CURATE),
    layer!("pipeline.rank_s", "s", "lower", CURATE),
    layer!("verilog.complexity_s", "s", "lower", CURATE),
    layer!("pipeline.syntax.rejected", "count", "lower", NONE),
    layer!("pipeline.persist.export_s", "s", "lower", CURATE),
    layer!("pipeline.persist.import_s", "s", "lower", CURATE),
    layer!("pipeline.persist.bytes", "bytes", "lower", CURATE),
    layer!("cache.cold_build_s", "s", "lower", "none (runs once, outside set-up)"),
    layer!("cache.warm_build_s", "s", "lower", CACHE),
    layer!("cache.hits", "count", "higher", CACHE),
    layer!("cache.misses", "count", "lower", CACHE),
    layer!("cache.writes", "count", "lower", CACHE),
    layer!("cache.hit_ratio", "ratio", "higher", CACHE),
    layer!("eval.prepare_s", "s", "lower", COMPILE),
    layer!("eval.check_s", "s", "lower", COMPILE),
    layer!("eval.equiv_check_s", "s", "lower", RUN),
    layer!("verilog.sim_compile_s", "s", "lower", COMPILE),
    layer!("verilog.sim_run_s", "s", "lower", RUN),
    layer!("sim.vectors", "count", "lower", RUN),
    layer!("sim.programs", "count", "lower", COMPILE),
    layer!("sim.exhaustive_checks", "count", "higher", RUN),
    layer!("sim.fallback_checks", "count", "lower", RUN),
    layer!("eval.verdict.pass", "count", "higher", NONE),
    layer!("eval.verdict.build_failure", "count", "lower", NONE),
    layer!("eval.verdict.interface_mismatch", "count", "lower", NONE),
    layer!("eval.verdict.mismatch", "count", "lower", NONE),
    layer!("eval.verdict.runtime_failure", "count", "lower", NONE),
    layer!("train.tokenize_s", "s", "lower", TRAIN),
    layer!("model.train_step_s", "s", "lower", TRAIN),
    layer!("model.forward_s", "s", "lower", TRAIN),
    layer!("model.backward_opt_s", "s", "lower", TRAIN),
    layer!("train.steps", "count", "lower", TRAIN),
    layer!("train.tokens", "count", "higher", TRAIN),
    layer!("model.session_build_s", "s", "lower", EVAL),
    layer!("model.prefill_s", "s", "lower", DECODE),
    layer!("model.prefill_tokens", "count", "lower", DECODE),
    layer!("model.decode_s", "s", "lower", DECODE),
    layer!("model.decode_tokens", "count", "lower", DECODE),
    layer!("eval.harness.check_s", "s", "lower", EVAL),
    layer!("eval.syntax_valid_ratio", "ratio", "higher", NONE),
    layer!("eval.verdict_cache_hits", "count", "higher", EVAL),
    layer!("serve.tokenize_s", "s", "lower", SERVE),
    layer!("serve.pump_s", "s", "lower", SERVE),
    layer!("serve.steps", "count", "lower", SERVE),
    layer!("serve.batch_occupancy", "count", "lower", SERVE),
    layer!("serve.queue_depth", "count", "lower", SERVE),
    layer!("serve.prefix_cache.hit_ratio", "ratio", "higher", SERVE),
    layer!("serve.rejected", "count", "lower", SERVE),
    layer!("serve.late_ms", "ms", "lower", SERVE),
    layer!("trace.overhead_ratio", "ratio", "lower", "none (cost of tracing)"),
    layer!(
        "trace.coverage_min",
        "ratio",
        "higher",
        "none (share of each phase inside named spans)"
    ),
];

/// The result line: `correct`, `attempted`, `failed` and one
/// `{value, unit}` per metric, in `names` order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, unit, value)| {
            let body = Content::Map(vec![
                ("value".into(), Content::F64(*value)),
                ("unit".into(), Content::Str((*unit).into())),
            ]);
            ((*name).to_owned(), body)
        })
        .collect();
    let doc = Content::Map(vec![
        ("correct".into(), Content::Bool(correct)),
        ("attempted".into(), Content::U64(attempted)),
        ("failed".into(), Content::U64(failed)),
        ("metrics".into(), Content::Map(metrics)),
    ]);
    serde_json::to_string(&doc).expect("result line serializes")
}

/// The end-to-end table printed by untraced runs.
pub fn end_to_end_table(values: &BTreeMap<&'static str, f64>) -> String {
    let mut out = format!("{:<24} {:>16} {:<10} better\n", "end-to-end metric", "value", "unit");
    for m in END_TO_END {
        let v = values.get(m.name).copied().unwrap_or(0.0);
        out.push_str(&format!("{:<24} {:>16.6} {:<10} {}\n", m.name, v, m.unit, m.better));
    }
    out
}

/// The per-layer table printed by traced runs.
pub fn layer_table(values: &BTreeMap<&'static str, f64>) -> String {
    let mut out = format!(
        "{:<34} {:>16} {:<6} {:<7} should move\n",
        "per-layer metric", "value", "unit", "better"
    );
    for m in PER_LAYER {
        let v = values.get(m.name).copied().unwrap_or(0.0);
        out.push_str(&format!(
            "{:<34} {:>16.6} {:<6} {:<7} {}\n",
            m.name, v, m.unit, m.better, m.moves
        ));
    }
    out
}

/// Commit (when the checkout is a git work tree), a digest of the sources
/// the benchmark builds, and the host.
pub fn provenance() -> Content {
    let commit = if std::path::Path::new(".git").exists() {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    } else {
        None
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Content::Map(vec![
        ("commit".into(), commit.map_or(Content::Null, Content::Str)),
        ("source_digest".into(), Content::Str(format!("{:016x}", source_digest()))),
        ("nproc".into(), Content::U64(nproc as u64)),
        ("cpu".into(), Content::Str(cpu)),
    ])
}

/// FNV-1a over the path and bytes of every file the benchmark builds from,
/// in sorted path order — identifies the code when no commit is at hand.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(std::path::Path::new(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&std::fs::read(&f).unwrap_or_default());
    }
    crate::bench::digest(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(m: &'a Content, key: &str) -> &'a Content {
        m.as_map().and_then(|m| m.iter().find(|(k, _)| k == key)).map(|(_, v)| v).expect(key)
    }

    fn entries(doc: &Content, key: &str) -> Vec<(String, String, String)> {
        let list = field(doc, key).as_seq().expect("metric list");
        list.iter()
            .map(|m| {
                let s = |k| field(m, k).as_str().expect(k).to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc: Content = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let owned = |n: &str, u: &str, b: &str| (n.to_owned(), u.to_owned(), b.to_owned());
        let e2e: Vec<_> = END_TO_END.iter().map(|m| owned(m.name, m.unit, m.better)).collect();
        let layers: Vec<_> = PER_LAYER.iter().map(|m| owned(m.name, m.unit, m.better)).collect();
        assert_eq!(entries(&doc, "end_to_end"), e2e);
        assert_eq!(entries(&doc, "per_layer"), layers);
        let workloads: Vec<String> = field(&doc, "workloads")
            .as_seq()
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name").as_str().expect("name").to_owned())
            .collect();
        let ours: Vec<String> =
            crate::config::workloads().iter().map(|w| w.name.to_owned()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = result_line(true, 3, 0, &[("setup_s", "s", 0.25)]);
        let doc: Content = serde_json::from_str(&line).expect("result line parses");
        let keys: Vec<&str> =
            doc.as_map().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = field(field(&doc, "metrics"), "setup_s");
        assert_eq!(field(setup, "unit").as_str(), Some("s"));
    }
}
