//! The verdict store answers a stream exactly as a fresh analysis does,
//! whatever its input section holds.

use netpu_check::{analyze, Analysis, RuleId, Tiers, VerdictStore};
use netpu_compiler::{compile, Loadable};
use netpu_core::HwConfig;
use netpu_nn::export::BnMode;
use netpu_nn::zoo::{random_model, ZooModel};
use netpu_nn::QuantMlp;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn cfg() -> HwConfig {
    HwConfig::paper_instance()
}

fn model(pick: usize, seed: u64) -> QuantMlp {
    let zoo = [ZooModel::TfcW1A1, ZooModel::TfcW2A2, ZooModel::SfcW1A1];
    match zoo.get(pick) {
        Some(variant) => variant.build_untrained(seed, BnMode::Folded).unwrap(),
        None => random_model(seed),
    }
}

/// `loadable` with every word of its input section drawn at random, so
/// the pixels and the padding lanes of the last word are arbitrary.
fn with_random_input(loadable: &Loadable, mut seed: u64) -> Vec<u64> {
    let mut words = loadable.words.clone();
    for w in &mut words[loadable.layout.input.clone()] {
        // splitmix64
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *w = z ^ (z >> 31);
    }
    words
}

/// What an admission layer can observe of a verdict under a policy:
/// admitted (with the range flag) or the rejection's rules and offsets.
/// Witness text may differ, because symex uses the stream's pixels as a
/// search hint.
fn observable(
    a: &Analysis,
    strict_range: bool,
    strict_equiv: bool,
) -> (Option<bool>, Vec<(RuleId, Option<usize>)>) {
    match a.admit(strict_range, strict_equiv) {
        Ok(()) => (Some(a.report.has_range_errors()), Vec::new()),
        Err(reason) => (None, reason.rules()),
    }
}

fn fired(a: &Analysis) -> BTreeSet<RuleId> {
    a.report.diagnostics.iter().map(|d| d.rule).collect()
}

fn assert_agree(fresh: &Analysis, stored: &Analysis, tag: &str) {
    for strict_range in [false, true] {
        for strict_equiv in [false, true] {
            assert_eq!(
                observable(fresh, strict_range, strict_equiv),
                observable(stored, strict_range, strict_equiv),
                "{tag}: strict_range {strict_range}, strict_equiv {strict_equiv}"
            );
        }
    }
    assert_eq!(fired(fresh), fired(stored), "{tag}");
    assert_eq!(fresh.timing, stored.timing, "{tag}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_warm_store_answers_like_a_fresh_analysis(
        pick in 0usize..6,
        seed in 0u64..64,
        warm_px in any::<u64>(),
        probe_px in any::<u64>(),
        certified in any::<bool>(),
        narrowed in any::<bool>(),
        lo in any::<u8>(),
        hi in any::<u8>(),
    ) {
        let narrow = narrowed.then_some((lo, hi));
        let source = model(pick, seed);
        let mut loadable = compile(&source, &vec![0u8; source.input.len]).unwrap();
        if let Some((lo, hi)) = narrow {
            loadable.set_declared_input_range(lo, hi);
        }
        let claim = certified.then_some(&source);
        let store = VerdictStore::default();
        store.lookup(&with_random_input(&loadable, warm_px), &cfg(), claim);

        let probe = with_random_input(&loadable, probe_px);
        let hits = store.stats().hits;
        let stored = store.lookup(&probe, &cfg(), claim).analysis().clone();
        let fresh = analyze(&probe, &cfg(), Tiers { source: claim });
        let tag = format!("model {pick}/{seed}, pixels {warm_px:#x} then {probe_px:#x}");
        assert_agree(&fresh, &stored, &tag);
        if narrow.is_none() {
            prop_assert_eq!(store.stats().hits, hits + 1, "{} missed the store", tag);
        }
    }
}

#[test]
fn npc020_fires_even_when_the_store_saw_only_covered_pixels() {
    let source = model(0, 1);
    let mut loadable = compile(&source, &vec![100u8; 784]).unwrap();
    loadable.set_declared_input_range(10, 200);
    let store = VerdictStore::default();
    let warm = store
        .lookup(&loadable.words, &cfg(), None)
        .analysis()
        .clone();
    assert!(!warm.report.fired(RuleId::Npc020), "{}", warm.report);

    let mut pixels = vec![100u8; 784];
    pixels[5] = 255;
    loadable.replace_input(&pixels).unwrap();
    let probe = store
        .lookup(&loadable.words, &cfg(), None)
        .analysis()
        .clone();
    assert!(probe.report.fired(RuleId::Npc020), "{}", probe.report);
    assert_agree(
        &analyze(&loadable.words, &cfg(), Tiers::default()),
        &probe,
        "uncovered pixel",
    );
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));

    // Covered pixels again: the warm entry answers.
    pixels[5] = 10;
    loadable.replace_input(&pixels).unwrap();
    let again = store
        .lookup(&loadable.words, &cfg(), None)
        .analysis()
        .clone();
    assert!(!again.report.fired(RuleId::Npc020));
    assert_eq!(store.stats().hits, 1);
}

#[test]
fn keys_isolate_the_source_model_and_the_instance() {
    let source = model(1, 2);
    let loadable = compile(&source, &vec![0u8; 784]).unwrap();
    let store = VerdictStore::default();
    let plain = store
        .lookup(&loadable.words, &cfg(), None)
        .analysis()
        .clone();
    let certified = store
        .lookup(&loadable.words, &cfg(), Some(&source))
        .analysis()
        .clone();
    assert!(!plain.report.fired(RuleId::Npc026));
    assert!(
        certified.report.fired(RuleId::Npc026),
        "{}",
        certified.report
    );

    // Another source model is a different key and gets its own verdict.
    let other = model(1, 3);
    let forged = store
        .lookup(&loadable.words, &cfg(), Some(&other))
        .analysis()
        .clone();
    assert!(forged.report.has_equiv_errors(), "{}", forged.report);

    let narrow = HwConfig {
        accumulator_bits: 8,
        ..cfg()
    };
    let narrowed = store
        .lookup(&loadable.words, &narrow, None)
        .analysis()
        .clone();
    assert!(narrowed.report.fired(RuleId::Npc014), "{}", narrowed.report);
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 4, 4));
}
