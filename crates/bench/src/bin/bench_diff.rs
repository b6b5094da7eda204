//! `bench_diff A.json B.json` — compares two `BENCH_*.json` reports row by
//! row.
//!
//! For every row name both reports share it prints `per_sec` before (A)
//! and after (B) and their ratio, and flags (`*`) a row whose ratio moves
//! from 1 by more than the larger of the two rows' repeat spread,
//! `(median_secs − secs) / secs`: a smaller move is inside the noise the
//! reports themselves record. Rows found in one report only are listed by
//! name.
//!
//! Exits 2 when a report does not have the one schema's keys, when the
//! two are reports of different benches, or when a shared row's `unit`
//! differs (or a file cannot be read); 0 otherwise, flagged rows
//! included.

use pyranet_bench::report::{REPORT_KEYS, ROW_KEYS};
use serde::{map_get, Content};
use std::process::ExitCode;

/// The fields of one row the comparison reads.
#[derive(Debug, Clone, PartialEq)]
struct RowView {
    name: String,
    unit: String,
    secs: f64,
    median_secs: f64,
    per_sec: f64,
}

impl RowView {
    /// `(median_secs − secs) / secs`: how far the median repeat sits
    /// above the fastest.
    fn spread(&self) -> f64 {
        if self.secs > 0.0 {
            (self.median_secs - self.secs) / self.secs
        } else {
            0.0
        }
    }
}

/// One report's bench name, commit and rows.
#[derive(Debug)]
struct ReportView {
    bench: String,
    commit: String,
    rows: Vec<RowView>,
}

fn keys(map: &[(String, Content)]) -> Vec<&str> {
    map.iter().map(|(k, _)| k.as_str()).collect()
}

fn number(map: &[(String, Content)], key: &str) -> Result<f64, String> {
    match map_get(map, key).map_err(|e| e.to_string())? {
        Content::F64(v) => Ok(*v),
        Content::U64(v) => Ok(*v as f64),
        Content::I64(v) => Ok(*v as f64),
        other => Err(format!("`{key}` is a {}, not a number", other.kind())),
    }
}

fn text<'a>(map: &'a [(String, Content)], key: &str) -> Result<&'a str, String> {
    let value = map_get(map, key).map_err(|e| e.to_string())?;
    value.as_str().ok_or_else(|| format!("`{key}` is a {}, not a string", value.kind()))
}

/// Reads a report, checking it has exactly the one schema's keys.
fn parse(json: &Content) -> Result<ReportView, String> {
    let top = json.as_map().ok_or("not a JSON object")?;
    if keys(top) != REPORT_KEYS {
        return Err(format!("report keys {:?}, expected {REPORT_KEYS:?}", keys(top)));
    }
    let commit = match map_get(top, "commit").map_err(|e| e.to_string())? {
        Content::Str(c) => c.clone(),
        _ => "?".to_owned(),
    };
    let rows = map_get(top, "rows")
        .map_err(|e| e.to_string())?
        .as_seq()
        .ok_or("`rows` is not an array")?;
    let rows = rows
        .iter()
        .map(|row| {
            let row = row.as_map().ok_or("a row is not an object")?;
            if keys(row) != ROW_KEYS {
                return Err(format!("row keys {:?}, expected {ROW_KEYS:?}", keys(row)));
            }
            Ok(RowView {
                name: text(row, "name")?.to_owned(),
                unit: text(row, "unit")?.to_owned(),
                secs: number(row, "secs")?,
                median_secs: number(row, "median_secs")?,
                per_sec: number(row, "per_sec")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(ReportView { bench: text(top, "bench")?.to_owned(), commit, rows })
}

/// One shared row: before, after, their ratio, and whether the ratio
/// moved beyond both rows' spread.
#[derive(Debug, PartialEq)]
struct Compared {
    name: String,
    unit: String,
    before: f64,
    after: f64,
    ratio: Option<f64>,
    spread: f64,
    flagged: bool,
}

/// Compares the rows `a` and `b` share, in `a`'s order.
fn compare(a: &ReportView, b: &ReportView) -> Result<Vec<Compared>, String> {
    if a.bench != b.bench {
        return Err(format!("bench `{}` against bench `{}`", a.bench, b.bench));
    }
    let mut out = Vec::new();
    for ra in &a.rows {
        let Some(rb) = b.rows.iter().find(|r| r.name == ra.name) else { continue };
        if ra.unit != rb.unit {
            return Err(format!("row `{}`: unit `{}` against `{}`", ra.name, ra.unit, rb.unit));
        }
        let ratio = (ra.per_sec > 0.0).then(|| rb.per_sec / ra.per_sec);
        let spread = ra.spread().max(rb.spread());
        out.push(Compared {
            name: ra.name.clone(),
            unit: ra.unit.clone(),
            before: ra.per_sec,
            after: rb.per_sec,
            ratio,
            spread,
            flagged: ratio.is_some_and(|r| (r - 1.0).abs() > spread),
        });
    }
    Ok(out)
}

fn load(path: &str) -> Result<ReportView, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json: Content = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    parse(&json).map_err(|e| format!("{path}: {e}"))
}

fn run(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let rows = compare(&a, &b)?;
    println!("bench {}: {} (A, {}) -> {} (B, {})", a.bench, a_path, a.commit, b_path, b.commit);
    println!(
        "{:<34} {:>14} {:>14} {:>8} {:>7}  unit",
        "row", "A per_sec", "B per_sec", "B/A", "spread"
    );
    for r in &rows {
        let ratio = r.ratio.map_or("-".to_owned(), |x| format!("{x:.3}x"));
        let flag = if r.flagged { " *" } else { "" };
        println!(
            "{:<34} {:>14.1} {:>14.1} {:>8} {:>6.1}%  {}/s{flag}",
            r.name,
            r.before,
            r.after,
            ratio,
            r.spread * 100.0,
            r.unit
        );
    }
    for (side, only, other) in [("A", &a, &b), ("B", &b, &a)] {
        let names: Vec<&str> = only
            .rows
            .iter()
            .filter(|r| other.rows.iter().all(|o| o.name != r.name))
            .map(|r| r.name.as_str())
            .collect();
        if !names.is_empty() {
            println!("only in {side}: {}", names.join(", "));
        }
    }
    let flagged = rows.iter().filter(|r| r.flagged).count();
    println!("{flagged} of {} shared row(s) moved beyond their repeat spread (*)", rows.len());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = args.as_slice() else {
        eprintln!("usage: bench_diff A.json B.json");
        return ExitCode::from(2);
    };
    match run(a, b) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyranet_bench::{Report, Row, Scale, Secs};

    fn report(rows: &[(&str, f64, f64, &str)]) -> ReportView {
        let mut report = Report::new("unit", Scale::Quick, 3);
        for &(name, secs, median, unit) in rows {
            report.push(Row::new(name, Secs { fastest: secs, median }, 100, unit));
        }
        let json: Content = serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        parse(&json).unwrap()
    }

    #[test]
    fn a_move_beyond_both_spreads_is_flagged() {
        let a = report(&[
            ("steady", 1.0, 1.1, "tokens"),
            ("faster", 1.0, 1.05, "tokens"),
            ("a_only", 1.0, 1.0, "x"),
        ]);
        let b = report(&[("steady", 0.95, 1.0, "tokens"), ("faster", 0.5, 0.52, "tokens")]);
        let rows = compare(&a, &b).unwrap();
        assert_eq!(rows.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(), ["steady", "faster"]);
        // 100/0.95 against 100/1.0: 1.053×, inside A's 10% spread.
        assert!(!rows[0].flagged && (rows[0].spread - 0.1).abs() < 1e-12, "{:?}", rows[0]);
        // 2× against spreads of 5% and 4%.
        assert!(rows[1].flagged && rows[1].ratio == Some(2.0), "{:?}", rows[1]);
    }

    #[test]
    fn a_unit_or_bench_mismatch_is_an_error() {
        let a = report(&[("row", 1.0, 1.0, "tokens")]);
        let b = report(&[("row", 1.0, 1.0, "vectors")]);
        assert!(compare(&a, &b).unwrap_err().contains("unit"));
        let other = ReportView { bench: "other".into(), ..report(&[]) };
        assert!(compare(&a, &other).unwrap_err().contains("bench"));
    }

    #[test]
    fn a_report_without_the_schema_keys_is_an_error() {
        let json: Content = serde_json::from_str(r#"{"bench": "x", "rows": []}"#).unwrap();
        assert!(parse(&json).unwrap_err().contains("report keys"));
        let mut good = Report::new("unit", Scale::Quick, 1);
        good.push(Row::new("r", Secs::of(&[1.0]), 1, "x"));
        let text = serde_json::to_string(&good).unwrap().replace("\"median_secs\"", "\"median\"");
        let json: Content = serde_json::from_str(&text).unwrap();
        assert!(parse(&json).unwrap_err().contains("row keys"));
    }
}
