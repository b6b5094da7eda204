//! Cheap early filters (paper §III-A.2, first two bullets).

use pyranet_corpus::RawSample;

/// True when a file would fail the "empty/broken" filter: empty,
/// whitespace-only, or containing control/non-ASCII bytes our lexer can
/// never tokenize (the Python-encoding-error analogue).
pub fn is_broken(source: &str) -> bool {
    if source.trim().is_empty() {
        return true;
    }
    source.bytes().any(|b| (b < 0x20 && b != b'\n' && b != b'\r' && b != b'\t') || b >= 0x80)
}

/// True when the file has no `module` declaration at all.
pub fn has_module_decl(source: &str) -> bool {
    // Comments are stripped first so a "// module-free file" note does not
    // count; then a token-boundary check finds `module` as a word.
    source.lines().any(|line| {
        let code = line.split("//").next().unwrap_or("");
        code.split(|c: char| !c.is_ascii_alphanumeric() && c != '_' && c != '$')
            .any(|w| w == "module")
    })
}

/// Stage 1: removes empty/broken files. Returns survivors and reject count.
pub fn filter_broken(pool: Vec<RawSample>) -> (Vec<RawSample>, usize) {
    split(pool, is_broken)
}

/// Stage 2: removes files without a module declaration.
pub fn filter_no_module(pool: Vec<RawSample>) -> (Vec<RawSample>, usize) {
    split(pool, |src| !has_module_decl(src))
}

/// The survivor/reject split behind stages 1 and 2, one sequential pass:
/// the whole stage costs well under a millisecond on a CLI-sized pool,
/// less than spawning workers would. Survivors keep their input order.
fn split(pool: Vec<RawSample>, rejects: impl Fn(&str) -> bool) -> (Vec<RawSample>, usize) {
    let before = pool.len();
    let alive: Vec<RawSample> = pool.into_iter().filter(|s| !rejects(&s.source)).collect();
    let rejected = before - alive.len();
    (alive, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyranet_corpus::{Origin, TruthLabel};

    fn raw(id: u64, src: &str) -> RawSample {
        RawSample::new(id, src, "", Origin::Scraped, TruthLabel::Clean)
    }

    #[test]
    fn empty_is_broken() {
        assert!(is_broken(""));
        assert!(is_broken("   \n\t\n"));
    }

    #[test]
    fn binary_is_broken() {
        assert!(is_broken("\u{1}\u{2} blob"));
        assert!(is_broken("módulo")); // non-ASCII
    }

    #[test]
    fn normal_text_is_not_broken() {
        assert!(!is_broken("module m; endmodule"));
        assert!(!is_broken("// comment\nmodule m; endmodule\n"));
    }

    #[test]
    fn module_decl_detection() {
        assert!(has_module_decl("module m; endmodule"));
        assert!(has_module_decl("  module   m();"));
        assert!(!has_module_decl("// module-free file"));
        assert!(!has_module_decl("submodule thing"));
        assert!(!has_module_decl(""));
    }

    #[test]
    fn filters_count_correctly() {
        let pool = vec![raw(0, ""), raw(1, "module a; endmodule"), raw(2, "just text")];
        let (alive, rejected) = filter_broken(pool);
        assert_eq!(rejected, 1);
        let (alive, rejected) = filter_no_module(alive);
        assert_eq!(rejected, 1);
        assert_eq!(alive.len(), 1);
        assert_eq!(alive[0].id, 1);
    }
}
