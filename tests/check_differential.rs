//! Differential validation of the static verifier (DESIGN.md §4.3).
//!
//! Two obligations:
//! * every compiled zoo loadable is **accepted** (no error-severity
//!   findings — the checker never refuses a stream the accelerator
//!   runs), and
//! * over a proptest-mutated corpus (flipped header/setting bits,
//!   truncated sections, corrupted parameter words), whenever the
//!   cycle-level model errors **or panics** on a stream, the checker
//!   reports an error for it — **zero false accepts**.

use netpu_check::{analyze, Tiers};
use netpu_compiler::compile;
use netpu_core::{run_inference_fast, HwConfig};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use proptest::prelude::*;

/// `true` when the accelerator model fails on the stream — by returning
/// an error or by panicking (a panic in the model is exactly the class
/// of crash the pre-flight must fence off).
fn sim_rejects(cfg: HwConfig, words: &[u64]) -> bool {
    let words = words.to_vec();
    let outcome = std::panic::catch_unwind(move || run_inference_fast(&cfg, words));
    !matches!(outcome, Ok(Ok(_)))
}

#[test]
fn every_zoo_loadable_is_accepted() {
    let cfg = HwConfig::paper_instance();
    for model in ZooModel::ALL {
        for bn in [BnMode::Folded, BnMode::Hardware] {
            let mlp = model.build_untrained(11, bn).unwrap();
            let loadable = compile(&mlp, &vec![0u8; mlp.input.len]).unwrap();
            let report = netpu_check::check(&loadable, &cfg);
            assert!(
                !report.has_errors(),
                "{model:?}/{bn:?} falsely rejected:\n{report}"
            );
            assert!(
                !sim_rejects(cfg, &loadable.words),
                "{model:?}/{bn:?} rejected by the simulator"
            );
        }
    }
}

/// One mutation applied to a valid stream.
#[derive(Clone, Debug)]
enum Mutation {
    /// Flip bit `bit` of word `word` (header / settings / early body).
    FlipBit { word: usize, bit: usize },
    /// Cut the stream to `keep` words.
    Truncate { keep: usize },
    /// Overwrite word `word` with a constant.
    Smash { word: usize, value: u64 },
}

fn apply(words: &[u64], m: &Mutation) -> Vec<u64> {
    let mut out = words.to_vec();
    match *m {
        Mutation::FlipBit { word, bit } => out[word % words.len()] ^= 1u64 << (bit % 64),
        Mutation::Truncate { keep } => out.truncate(keep % words.len()),
        Mutation::Smash { word, value } => {
            let i = word % words.len();
            out[i] = value;
        }
    }
    out
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (0usize..4, 0usize..100_000, 0usize..64, any::<u64>()).prop_map(|(kind, word, bit, value)| {
        match kind {
            // Bias flips toward the header + settings region where the
            // protocol-level invariants live, but cover the whole stream.
            0 => Mutation::FlipBit {
                word: word % 8,
                bit,
            },
            1 => Mutation::FlipBit { word, bit },
            2 => Mutation::Truncate { keep: word },
            _ => Mutation::Smash { word, value },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Zero false accepts: sim failure ⇒ checker error.
    #[test]
    fn no_false_accepts(m in mutation()) {
        // A small zoo model keeps each simulated survivor cheap.
        let mlp = ZooModel::TfcW1A1.build_untrained(3, BnMode::Folded).unwrap();
        let loadable = compile(&mlp, &vec![0u8; 784]).unwrap();
        let cfg = HwConfig::paper_instance();

        let mutated = apply(&loadable.words, &m);
        let report = analyze(&mutated, &cfg, Tiers::default()).report;
        if !report.has_errors() {
            // The checker admitted the stream: the accelerator must run
            // it to completion without an error or a panic.
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {})); // silence expected-panic spew
            let rejected = sim_rejects(cfg, &mutated);
            std::panic::set_hook(hook);
            prop_assert!(
                !rejected,
                "FALSE ACCEPT: checker passed a stream the simulator rejects ({m:?})"
            );
        }
    }
}
