//! Differential suite for the translation validator (DESIGN.md §4.8).
//!
//! Two directions, both load-bearing:
//!
//! * **Soundness** — honest compilations of the whole model zoo and a
//!   sweep of random valid models must certify *equivalent* with zero
//!   false inequivalences, and their [`Certificate`]s must re-validate.
//! * **Completeness** — every seeded miscompile from the compiler's
//!   `inject` harness (structurally flawless streams computing the
//!   wrong function) must be flagged by the symbolic tier, while the
//!   structural/range tiers NPC001–NPC020 alone miss at least half of
//!   them. Where the validator produces a concrete distinguishing
//!   input, that counterexample must reproduce on the tick simulator.
//!
//! [`Certificate`]: netpu::check::Certificate

use netpu::check;
use netpu::compiler::inject::{self, Miscompile};
use netpu::compiler::{self, compile};
use netpu::core::netpu::run_inference;
use netpu::core::HwConfig;
use netpu::nn::export::BnMode;
use netpu::nn::qmodel::QuantMlp;
use netpu::nn::reference;
use netpu::nn::zoo::{random_model, ZooModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pixels(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

/// Sweep every applicable (model, mutation) pair. Returns
/// `(total, caught_by_tier12)` and asserts the symbolic tier caught
/// each one.
fn sweep_miscompiles(model: &QuantMlp, cfg: &HwConfig) -> (usize, usize) {
    let px = pixels(model.input.len, 7);
    let mut total = 0;
    let mut caught_by_tier12 = 0;
    for m in Miscompile::ALL {
        let Some(compiled) = inject::compile_miscompiled(model, &px, m) else {
            continue; // no site for this mutation in this model
        };
        let loadable = compiled.expect("mutated models still compile");
        total += 1;

        // The structural + range tiers see an honestly-encoded valid
        // model; most miscompiles sail through them.
        if check::analyze(&loadable.words, cfg, Default::default())
            .report
            .has_errors()
        {
            caught_by_tier12 += 1;
        }

        // The symbolic tier must flag every one.
        let outcome = check::certify(model, &loadable.words, cfg);
        assert!(
            outcome.report.has_equiv_errors(),
            "{}: seeded miscompile '{}' not flagged by translation validation\n{}",
            model.name,
            m.describe(),
            outcome.report
        );
        assert!(
            outcome.certificate.is_none() || !outcome.is_equivalent(),
            "{}: '{}' got an equivalence certificate",
            model.name,
            m.describe()
        );

        // Any concrete distinguishing input must actually distinguish,
        // and the divergent behaviour must reproduce on the tick
        // simulator (which `tests/random_models.rs` pins bit-exactly to
        // the reference): the miscompiled stream, run in hardware on
        // the witness, agrees with the *mutated* reference — and that
        // differs from the claimed source.
        let mutated = inject::mutate(model, m).expect("site existed above");
        for w in &outcome.witnesses {
            let honest = reference::infer_traced(model, &w.pixels);
            let forged = reference::infer_traced(&mutated, &w.pixels);
            assert_ne!(
                honest.scores,
                forged.scores,
                "{}: '{}' witness does not distinguish the models",
                model.name,
                m.describe()
            );
            let bad = compile(&mutated, &w.pixels).expect("compiles");
            let run = run_inference(cfg, bad.words).expect("witness runs on the simulator");
            assert_eq!(run.class, forged.class);
            assert_eq!(run.score, forged.scores[forged.class]);
        }
    }
    (total, caught_by_tier12)
}

#[test]
fn seeded_miscompiles_are_caught_and_earlier_tiers_miss_most() {
    let cfg = HwConfig::paper_instance();
    // A folded-BN binary model (bias/threshold/weight sites) and a
    // hardware-BN model (BN drift sites) between them exercise all
    // eight mutations.
    let folded = ZooModel::TfcW1A1
        .build_untrained(1, BnMode::Folded)
        .unwrap();
    let hardware = ZooModel::LfcW1A2
        .build_untrained(2, BnMode::Hardware)
        .unwrap();

    let (t1, c1) = sweep_miscompiles(&folded, &cfg);
    let (t2, c2) = sweep_miscompiles(&hardware, &cfg);
    let (total, caught) = (t1 + t2, c1 + c2);
    assert!(
        total >= Miscompile::ALL.len(),
        "the two models must cover every mutation at least once, got {total}"
    );
    assert!(
        caught * 2 <= total,
        "NPC001–NPC020 caught {caught}/{total} seeded miscompiles; the \
         injection harness is supposed to slip past the earlier tiers"
    );
}

#[test]
fn every_mutation_has_a_site_somewhere() {
    let folded = ZooModel::TfcW1A1
        .build_untrained(1, BnMode::Folded)
        .unwrap();
    let hardware = ZooModel::LfcW1A2
        .build_untrained(2, BnMode::Hardware)
        .unwrap();
    for m in Miscompile::ALL {
        assert!(
            inject::mutate(&folded, m).is_some() || inject::mutate(&hardware, m).is_some(),
            "mutation '{}' has no site in either sweep model",
            m.describe()
        );
    }
}

#[test]
fn the_whole_zoo_certifies_equivalent() {
    let cfg = HwConfig::paper_instance();
    let zoo = [
        ZooModel::TfcW1A1,
        ZooModel::TfcW2A2,
        ZooModel::SfcW1A1,
        ZooModel::SfcW2A2,
        ZooModel::LfcW1A1,
        ZooModel::LfcW1A2,
    ];
    let mut certified = 0;
    for (i, variant) in zoo.into_iter().enumerate() {
        for mode in [BnMode::Folded, BnMode::Hardware] {
            let Ok(model) = variant.build_untrained(10 + i as u64, mode) else {
                continue;
            };
            let px = pixels(model.input.len, 99);
            let loadable = compile(&model, &px).unwrap();
            let outcome = check::certify(&model, &loadable.words, &cfg);
            assert!(
                outcome.is_equivalent(),
                "{} ({mode:?}): false inequivalence\n{}",
                model.name,
                outcome.report
            );
            let cert = outcome.certificate.expect("equivalent runs certify");
            assert!(cert.is_equivalent());
            assert!(
                cert.validate(&model, &loadable.words, &cfg),
                "{} ({mode:?}): certificate failed re-validation",
                model.name
            );
            certified += 1;
        }
    }
    assert!(
        certified >= 6,
        "zoo sweep degenerated to {certified} models"
    );
}

#[test]
fn random_models_certify_with_zero_false_inequivalences() {
    let cfg = HwConfig::paper_instance();
    for seed in 0..150u64 {
        let model = random_model(seed);
        assert!(model.validate().is_ok(), "seed {seed}: invalid model");
        let px = pixels(model.input.len, seed ^ 0xA5A5);
        let loadable = compiler::compile(&model, &px).unwrap();
        let outcome = check::certify(&model, &loadable.words, &cfg);
        assert!(
            outcome.is_equivalent(),
            "seed {seed} ({}): false inequivalence\n{}",
            model.name,
            outcome.report
        );
        let cert = outcome.certificate.expect("equivalent runs certify");
        assert!(cert.validate(&model, &loadable.words, &cfg));
    }
}
