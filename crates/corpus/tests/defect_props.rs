//! Property tests for the defect injectors over *generated* corpus designs.
//!
//! The unit tests in `defect.rs` pin each injector on a hand-written
//! module; these properties sweep the whole design catalog under random
//! styles and assert the injectors' contract on every source the builder
//! can actually produce: each injected defect (a) changes the source and
//! (b) lands in its labeled verdict class — `SyntaxError` for syntax
//! defects, `DependencyIssue` for phantom-module injection, and
//! still-compilable for textual style rot.

use proptest::prelude::*;
use pyranet_corpus::defect::{
    apply_syntax_defect_checked, degrade_text_checked, inject_dependency_issue_checked,
    inject_syntax_error_checked, SyntaxDefect,
};
use pyranet_corpus::families::DesignFamily;
use pyranet_corpus::gen::generate;
use pyranet_corpus::style::StyleOptions;
use pyranet_verilog::{check_source, SyntaxVerdict};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Generates one design from the catalog (or spec catalog) picked by seed.
fn catalog_design(seed: u64, sloppiness: f64, spec: bool) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let catalog = if spec { DesignFamily::spec_catalog() } else { DesignFamily::catalog() };
    let family = &catalog[(seed as usize) % catalog.len()];
    let style = StyleOptions::sampled(sloppiness, &mut rng);
    generate(family, &style, &mut rng).source
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every specific syntax defect mutates every generated design and the
    /// result fails the syntax check — never silently clean, never merely a
    /// dependency issue.
    #[test]
    fn syntax_defects_mutate_and_break_generated_designs(
        seed in 0u64..400,
        sloppiness in 0.0f64..1.0,
    ) {
        // Odd seeds draw from the spec catalog, even from the default one.
        let src = catalog_design(seed, sloppiness, seed % 2 == 1);
        for defect in SyntaxDefect::ALL {
            let inj = apply_syntax_defect_checked(&src, defect);
            prop_assert!(inj.mutated, "{defect:?} was a no-op on:\n{src}");
            prop_assert!(inj.source != src);
            let v = check_source(&inj.source);
            prop_assert!(
                matches!(v, SyntaxVerdict::SyntaxError { .. }),
                "{defect:?} produced {v:?}, not SyntaxError:\n{}",
                inj.source
            );
        }
    }

    /// The random-defect entry point honours the same contract as the
    /// per-defect one, for any RNG stream.
    #[test]
    fn random_syntax_injection_lands_in_the_syntax_class(
        seed in 0u64..400,
        inj_seed in 0u64..1_000,
        sloppiness in 0.0f64..1.0,
    ) {
        let src = catalog_design(seed, sloppiness, false);
        let mut rng = ChaCha8Rng::seed_from_u64(inj_seed);
        let inj = inject_syntax_error_checked(&src, &mut rng);
        prop_assert!(inj.mutated);
        prop_assert!(matches!(
            check_source(&inj.source),
            SyntaxVerdict::SyntaxError { .. }
        ));
    }

    /// Dependency injection always mutates and always lands in the
    /// dependency-issue class on generated (parseable) designs.
    #[test]
    fn dependency_injection_lands_in_the_dependency_class(
        seed in 0u64..400,
        inj_seed in 0u64..1_000,
        sloppiness in 0.0f64..1.0,
    ) {
        let src = catalog_design(seed, sloppiness, seed % 2 == 1);
        let mut rng = ChaCha8Rng::seed_from_u64(inj_seed);
        let inj = inject_dependency_issue_checked(&src, &mut rng);
        prop_assert!(inj.mutated, "dependency injection was a no-op on:\n{src}");
        let v = check_source(&inj.source);
        prop_assert!(
            matches!(v, SyntaxVerdict::DependencyIssue { .. }),
            "expected DependencyIssue, got {v:?}:\n{}",
            inj.source
        );
    }

    /// Style rot keeps every generated design compilable at any severity,
    /// and its `mutated` flag is truthful either way.
    #[test]
    fn degraded_designs_stay_compilable(
        seed in 0u64..400,
        inj_seed in 0u64..1_000,
        sloppiness in 0.0f64..1.0,
        severity in 0.0f64..1.0,
    ) {
        let src = catalog_design(seed, sloppiness, false);
        let mut rng = ChaCha8Rng::seed_from_u64(inj_seed);
        let inj = degrade_text_checked(&src, severity, &mut rng);
        prop_assert!(
            check_source(&inj.source).is_compilable(),
            "degrade_text broke the design:\n{}",
            inj.source
        );
        prop_assert_eq!(inj.mutated, inj.source != src);
    }
}

/// Every sample a pool labels `SyntaxBroken` fails the syntax check. At
/// this seed the 300-file pool's sample 348 is a `Truncate` cut that
/// landed in the comment lines after its last whole module, and once
/// kept two complete modules, which parse.
#[test]
fn syntax_broken_pool_samples_fail_the_syntax_check() {
    use pyranet_corpus::builder::CorpusBuilder;
    use pyranet_corpus::sample::TruthLabel;

    let pool = CorpusBuilder::new(1_766_480_082).scraped_files(300).build();
    let broken: Vec<_> =
        pool.samples.iter().filter(|s| s.truth == TruthLabel::SyntaxBroken).collect();
    assert!(broken.iter().any(|s| s.id == 348), "sample 348 is no longer SyntaxBroken");
    for s in broken {
        let v = check_source(&s.source);
        assert!(
            matches!(v, SyntaxVerdict::SyntaxError { .. }),
            "sample {} is labelled SyntaxBroken but checks as {v:?}:\n{}",
            s.id,
            s.source
        );
    }
}
