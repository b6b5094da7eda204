//! Defect injection — turning clean designs into the corpus's broken tiers.
//!
//! The paper's pipeline must reject empty/broken files, classify syntax
//! errors vs dependency issues, and down-rank sloppy style. To exercise all
//! of those paths, the corpus builder injects three defect classes:
//!
//! * [`inject_syntax_error`] — guaranteed to make the file fail the
//!   Icarus-substitute check;
//! * [`inject_dependency_issue`] — instantiates an undefined module, which
//!   compiles "with dependency issues" (Layer 6 material);
//! * [`degrade_text`] — textual style rot (tabs, trailing whitespace,
//!   overlong lines, stripped comments) that lowers the rank but keeps the
//!   file compilable.

use rand::Rng;

/// Outcome of a defect injection: the resulting source plus whether the
/// injector actually changed anything.
///
/// Every injector has a `_checked` variant returning this, so callers that
/// need a guaranteed mutation (the repair recipe pairs broken sources with
/// their clean originals and must never emit `broken == clean`) can verify
/// instead of assuming.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// The (possibly) mutated source text.
    pub source: String,
    /// True when `source` differs from the input.
    pub mutated: bool,
}

impl Injection {
    fn of(original: &str, source: String) -> Injection {
        let mutated = source != original;
        Injection { source, mutated }
    }
}

/// Syntax-breaking mutations. Each is textual and guaranteed to produce a
/// parse failure for sources emitted by our generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntaxDefect {
    /// Delete the final `endmodule`.
    DropEndmodule,
    /// Remove the first semicolon.
    DropSemicolon,
    /// Unbalance a parenthesis.
    DropParen,
    /// Truncate the file mid-token.
    Truncate,
    /// Replace `assign` with a misspelling.
    MisspellKeyword,
}

impl SyntaxDefect {
    /// All variants, for sampling.
    pub const ALL: [SyntaxDefect; 5] = [
        SyntaxDefect::DropEndmodule,
        SyntaxDefect::DropSemicolon,
        SyntaxDefect::DropParen,
        SyntaxDefect::Truncate,
        SyntaxDefect::MisspellKeyword,
    ];
}

/// Applies a random syntax defect.
pub fn inject_syntax_error<R: Rng>(source: &str, rng: &mut R) -> String {
    inject_syntax_error_checked(source, rng).source
}

/// Applies a random syntax defect, reporting whether the source changed.
pub fn inject_syntax_error_checked<R: Rng>(source: &str, rng: &mut R) -> Injection {
    let defect = SyntaxDefect::ALL[rng.random_range(0..SyntaxDefect::ALL.len())];
    apply_syntax_defect_checked(source, defect)
}

/// Applies a specific syntax defect.
///
/// Mutations target the code region (at or after the first `module`
/// keyword) so a defect never lands harmlessly inside a header comment.
pub fn apply_syntax_defect(source: &str, defect: SyntaxDefect) -> String {
    apply_syntax_defect_checked(source, defect).source
}

/// Applies a specific syntax defect, reporting whether the source changed.
///
/// Every arm has a fallback mutation when its target construct is absent,
/// so the only unmutated output is truncating an already-empty source.
pub fn apply_syntax_defect_checked(source: &str, defect: SyntaxDefect) -> Injection {
    let code_start = source.find("module").unwrap_or(0);
    let find_after = |needle: char| source[code_start..].find(needle).map(|p| p + code_start);
    let out = match defect {
        // rfind is scoped to the code region: an unscoped search could land
        // on the word `endmodule` inside a comment, mangling prose while
        // leaving the code parseable.
        SyntaxDefect::DropEndmodule => {
            match source[code_start..].rfind("endmodule").map(|p| p + code_start) {
                Some(pos) => format!("{}{}", &source[..pos], &source[pos + "endmodule".len()..]),
                None => format!("{source}\n(("),
            }
        }
        SyntaxDefect::DropSemicolon => match find_after(';') {
            Some(pos) => format!("{}{}", &source[..pos], &source[pos + 1..]),
            None => format!("{source}\n(("),
        },
        SyntaxDefect::DropParen => match find_after('(') {
            Some(pos) => format!("{}{}", &source[..pos], &source[pos + 1..]),
            None => format!("{source}\n)"),
        },
        SyntaxDefect::Truncate => {
            // Cap at len-1 so short sources still shrink: keeping >= 10
            // chars of a <= 10-char file used to return it unchanged.
            let keep = source.len() * 2 / 3;
            let mut keep = keep.max(10).min(source.len().saturating_sub(1));
            while keep > 0 && !source.is_char_boundary(keep) {
                keep -= 1;
            }
            let mut out = source[..keep].to_owned();
            // In a multi-module file the 2/3 point can land on a module
            // boundary or in the blank and `//` comment lines after one,
            // leaving a parseable prefix (at worst a dependency issue, not
            // a syntax error). Re-cut just before the prefix's final
            // `endmodule` so the last module is left open.
            if let Some(pos) = out.rfind("endmodule") {
                let after = &out[pos + "endmodule".len()..];
                if after.lines().map(str::trim).all(|l| l.is_empty() || l.starts_with("//")) {
                    out.truncate(pos);
                }
            }
            out
        }
        SyntaxDefect::MisspellKeyword => {
            if source.contains("assign") {
                source.replacen("assign", "asign", 1)
            } else if source.contains("always") {
                source.replacen("always", "alway", 1)
            } else {
                format!("{source}\nmodule ;")
            }
        }
    };
    Injection::of(source, out)
}

/// Appends an instantiation of a module that does not exist in the file,
/// producing the paper's "dependency issue" class.
pub fn inject_dependency_issue<R: Rng>(source: &str, rng: &mut R) -> String {
    inject_dependency_issue_checked(source, rng).source
}

/// Like [`inject_dependency_issue`], reporting whether the source changed.
///
/// When the source has no `endmodule` to anchor the instantiation, a
/// self-contained wrapper module instantiating the phantom is appended
/// instead of silently returning the input unchanged — the output is
/// always mutated, and for otherwise-parseable sources still lands in the
/// dependency-issue class.
pub fn inject_dependency_issue_checked<R: Rng>(source: &str, rng: &mut R) -> Injection {
    let phantoms = ["clk_gate_cell", "vendor_sram_macro", "pll_wrapper", "pad_buffer", "scan_mux"];
    let phantom = phantoms[rng.random_range(0..phantoms.len())];
    let out = match source.rfind("endmodule") {
        Some(pos) => {
            let inst = format!("  {phantom} u_{phantom}(.a(1'b0));\n");
            format!("{}{}{}", &source[..pos], inst, &source[pos..])
        }
        None => format!(
            "{source}\nmodule phantom_wrapper(input a);\n  {phantom} u_{phantom}(.a(a));\nendmodule\n"
        ),
    };
    Injection::of(source, out)
}

/// Textual style degradation that keeps the file compilable.
pub fn degrade_text<R: Rng>(source: &str, severity: f64, rng: &mut R) -> String {
    let severity = severity.clamp(0.0, 1.0);
    let mut out = String::with_capacity(source.len() + 64);
    for line in source.lines() {
        let mut line = line.to_owned();
        // strip comments
        if severity > 0.3 && line.trim_start().starts_with("//") {
            continue;
        }
        if rng.random::<f64>() < severity * 0.5 {
            if let Some(pos) = line.find("//") {
                line.truncate(pos);
            }
        }
        // tabs for indent
        if rng.random::<f64>() < severity * 0.4 && line.starts_with("  ") {
            line = format!("\t{}", &line[2..]);
        }
        // trailing whitespace
        if rng.random::<f64>() < severity * 0.4 {
            line.push_str("   ");
        }
        out.push_str(&line);
        out.push('\n');
    }
    // pad one line beyond 100 chars
    if rng.random::<f64>() < severity * 0.6 {
        let pad = " ".repeat(40);
        if let Some(pos) = out.find(";\n") {
            out.insert_str(pos + 1, &format!(" //{pad}{pad}{pad}"));
        }
    }
    out
}

/// Like [`degrade_text`], reporting whether the source changed.
///
/// Unlike the syntax/dependency injectors, style rot is probabilistic: at
/// low severity (or on sources that are already rotten) the roll can leave
/// the text byte-identical, which `mutated: false` makes visible.
pub fn degrade_text_checked<R: Rng>(source: &str, severity: f64, rng: &mut R) -> Injection {
    let out = degrade_text(source, severity, rng);
    Injection::of(source, out)
}

/// Produces an "empty or broken" file body (paper's first filter class).
pub fn broken_file<R: Rng>(rng: &mut R) -> String {
    match rng.random_range(0..4) {
        0 => String::new(),
        1 => "   \n\t \n".to_owned(),
        // binary-ish garbage: invalid leading bytes for any Verilog token
        2 => "\u{1}\u{2}\u{3}£¥§ binary blob \u{7f}".to_owned(),
        // text, but with no module declaration at all
        _ => "// just a comment file\n// nothing else here\n".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyranet_verilog::{check_source, SyntaxVerdict};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const CLEAN: &str = "// adder\nmodule m(input a, input b, output s, output c);\n  \
                         assign s = a ^ b;\n  assign c = a & b;\nendmodule\n";

    #[test]
    fn every_syntax_defect_breaks_the_parse() {
        for defect in SyntaxDefect::ALL {
            let broken = apply_syntax_defect(CLEAN, defect);
            let v = check_source(&broken);
            assert!(
                matches!(v, SyntaxVerdict::SyntaxError { .. }),
                "{defect:?} produced {v:?}:\n{broken}"
            );
        }
    }

    #[test]
    fn dependency_issue_is_dependency_not_syntax() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let broken = inject_dependency_issue(CLEAN, &mut rng);
        assert!(matches!(check_source(&broken), SyntaxVerdict::DependencyIssue { .. }));
    }

    #[test]
    fn degraded_text_still_compiles() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..20 {
            let bad = degrade_text(CLEAN, 1.0, &mut rng);
            assert!(check_source(&bad).is_compilable(), "{bad}");
        }
    }

    #[test]
    fn degraded_text_lints_worse() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let bad = degrade_text(CLEAN, 1.0, &mut rng);
        let clean_m = pyranet_verilog::parse_module(CLEAN).unwrap();
        let clean_p = pyranet_verilog::lint::lint_module(&clean_m, CLEAN).penalty();
        let bad_m = pyranet_verilog::parse_module(&bad).unwrap();
        let bad_p = pyranet_verilog::lint::lint_module(&bad_m, &bad).penalty();
        assert!(bad_p > clean_p, "bad={bad_p} clean={clean_p}\n{bad}");
    }

    #[test]
    fn truncate_mutates_short_sources() {
        // <= 10 chars: the old `keep.max(10)` kept the whole file, so the
        // "defect" parsed exactly like the original.
        for src in ["module m;", "module", "ab"] {
            let inj = apply_syntax_defect_checked(src, SyntaxDefect::Truncate);
            assert!(inj.mutated, "{src:?} came back unchanged");
            assert!(inj.source.len() < src.len());
        }
        // Empty input is the one unmutable case, and it must say so.
        let inj = apply_syntax_defect_checked("", SyntaxDefect::Truncate);
        assert!(!inj.mutated);
    }

    #[test]
    fn truncate_breaks_multi_module_files_at_any_boundary() {
        // Sweep the 2/3 cut point across a module boundary: without the
        // re-cut, a cut landing exactly after the first `endmodule` left a
        // parseable prefix (dependency issue at worst, not a syntax error).
        let m1 = "module a(output y);\n  assign y = 1;\nendmodule\n";
        for pad in 0..40 {
            let src =
                format!("{m1}{}module b(output z);\n  assign z = 0;\nendmodule\n", " ".repeat(pad));
            let inj = apply_syntax_defect_checked(&src, SyntaxDefect::Truncate);
            assert!(inj.mutated, "pad={pad} came back unchanged");
            let v = check_source(&inj.source);
            assert!(
                matches!(v, SyntaxVerdict::SyntaxError { .. }),
                "pad={pad} produced {v:?}:\n{}",
                inj.source
            );
        }
    }

    #[test]
    fn truncate_breaks_a_cut_in_the_trailing_comment_lines() {
        // Sweep the 2/3 cut point through the blank and `//` lines after
        // the last module: re-cutting only when the prefix ended in
        // `endmodule` kept two whole modules there, which parse.
        let mods = "module a(output y);\n  assign y = 1;\nendmodule // a\n\n\
                    module b(output z);\n  assign z = 0;\nendmodule\n";
        for notes in 1..12 {
            let src = format!("{mods}\n{}", "// revision note\n".repeat(notes));
            let inj = apply_syntax_defect_checked(&src, SyntaxDefect::Truncate);
            let v = check_source(&inj.source);
            assert!(
                matches!(v, SyntaxVerdict::SyntaxError { .. }),
                "notes={notes} produced {v:?}:\n{}",
                inj.source
            );
        }
    }

    #[test]
    fn drop_endmodule_ignores_header_comment_occurrences() {
        // The only `endmodule` is inside the header comment. The old
        // unscoped rfind deleted it from the comment — a parse no-op — where
        // the scoped version falls back to a guaranteed-breaking mutation.
        let src = "// endmodule omitted below on purpose\nmodule m(input a, output y);\n  assign y = a;\n";
        let inj = apply_syntax_defect_checked(src, SyntaxDefect::DropEndmodule);
        assert!(inj.mutated);
        assert!(
            inj.source.contains("// endmodule omitted below on purpose"),
            "comment must survive untouched:\n{}",
            inj.source
        );
        assert!(matches!(check_source(&inj.source), SyntaxVerdict::SyntaxError { .. }));
    }

    #[test]
    fn drop_endmodule_still_removes_the_real_keyword() {
        let inj = apply_syntax_defect_checked(CLEAN, SyntaxDefect::DropEndmodule);
        assert!(inj.mutated);
        assert!(!inj.source.contains("endmodule"));
        assert!(matches!(check_source(&inj.source), SyntaxVerdict::SyntaxError { .. }));
    }

    #[test]
    fn dependency_injection_never_returns_input_unchanged() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        // No `endmodule` anywhere: the old code silently returned the input.
        for src in ["// comment only\n", "module m(input a);\n  assign y = a;\n", ""] {
            let inj = inject_dependency_issue_checked(src, &mut rng);
            assert!(inj.mutated, "{src:?} came back unchanged");
            assert_ne!(inj.source, src);
        }
        // The fallback wrapper keeps parseable files in the dependency class.
        let inj = inject_dependency_issue_checked("// empty design file\n", &mut rng);
        assert!(matches!(check_source(&inj.source), SyntaxVerdict::DependencyIssue { .. }));
    }

    #[test]
    fn checked_injectors_agree_with_plain_variants() {
        let mut a = ChaCha8Rng::seed_from_u64(10);
        let mut b = ChaCha8Rng::seed_from_u64(10);
        assert_eq!(
            inject_syntax_error(CLEAN, &mut a),
            inject_syntax_error_checked(CLEAN, &mut b).source
        );
        assert_eq!(
            inject_dependency_issue(CLEAN, &mut a),
            inject_dependency_issue_checked(CLEAN, &mut b).source
        );
        assert_eq!(
            degrade_text(CLEAN, 0.7, &mut a),
            degrade_text_checked(CLEAN, 0.7, &mut b).source
        );
    }

    #[test]
    fn broken_files_fail_early_filters() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for _ in 0..12 {
            let b = broken_file(&mut rng);
            assert!(!check_source(&b).is_compilable(), "{b:?}");
        }
    }
}
