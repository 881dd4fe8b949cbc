//! The differential oracle: admission verdict versus simulator fate.
//!
//! The fuzzer's single invariant is the one the `check_differential`
//! proptest suite enforces at small scale: **every word stream either
//! fails admission with a stable NPC diagnostic, or runs in the tick
//! simulator without panicking or erroring.** A stream that the
//! verifier passes clean but that the simulator then rejects (or dies
//! on) is a verifier soundness hole; a verifier that panics, or whose
//! warm verdict store answers differently from a fresh analysis, is
//! broken outright. Each failure mode is a distinct [`CrasherClass`] so
//! minimization can preserve it.

use netpu_check::{analyze, payload_span, Report, RuleId, StoreStats, Tiers, VerdictStore};
use netpu_core::{run_inference_fast, HwConfig};
use netpu_nn::qmodel::QuantMlp;
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Ways a stream can violate the fuzzer's invariant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrasherClass {
    /// The verifier itself panicked on the stream.
    CheckerPanic,
    /// A fresh verifier run and a verdict store warmed with the same
    /// stream under another input produced different reports — the
    /// diagnostic is not stable, so clients cannot key on it.
    UnstableDiagnostic,
    /// The verifier passed the stream clean but the simulator panicked.
    SimPanic,
    /// The verifier passed the stream clean but the simulator returned
    /// an error: a false accept.
    FalseAccept,
}

impl CrasherClass {
    /// Stable textual name, used in fixture filenames and signatures.
    pub fn name(self) -> &'static str {
        match self {
            CrasherClass::CheckerPanic => "checker-panic",
            CrasherClass::UnstableDiagnostic => "unstable-diagnostic",
            CrasherClass::SimPanic => "sim-panic",
            CrasherClass::FalseAccept => "false-accept",
        }
    }
}

impl fmt::Display for CrasherClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The oracle's classification of one stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The verifier rejected the stream; `rules` holds the sorted,
    /// deduplicated stable IDs of every error finding.
    Rejected {
        /// e.g. `["NPC001", "NPC005"]`.
        rules: Vec<&'static str>,
    },
    /// The verifier passed the stream and the simulator completed it.
    Clean,
    /// The stream passed the structural and range tiers and the
    /// simulator, but the translation validator proved it computes a
    /// different function than the source model it claims to implement
    /// (only [`classify_with_source`] can produce this). `rules` holds
    /// the sorted stable IDs of the equivalence-error findings.
    Miscompile {
        /// e.g. `["NPC022", "NPC024"]`.
        rules: Vec<&'static str>,
    },
    /// The invariant is violated.
    Crasher(CrasherClass),
}

impl Verdict {
    /// The verdict's coverage-map signature: rejections key on their
    /// NPC rule set so each distinct rule combination counts as new
    /// coverage, clean runs share one bucket, crashers key per class.
    pub fn signature(&self) -> String {
        match self {
            Verdict::Rejected { rules } => rules.join("+"),
            Verdict::Clean => "CLEAN".into(),
            Verdict::Miscompile { rules } => format!("MISCOMPILE:{}", rules.join("+")),
            Verdict::Crasher(class) => format!("CRASH:{class}"),
        }
    }

    /// `true` for [`Verdict::Crasher`].
    pub fn is_crasher(&self) -> bool {
        matches!(self, Verdict::Crasher(_))
    }
}

/// Classifies one stream against the invariant. Pure in `(cfg, words)`:
/// the verifier and simulator are deterministic, so equal inputs yield
/// equal verdicts — the property the corpus, the minimizer, and the
/// committed regression fixtures all rely on.
///
/// Run inside [`quiet_panics`] to keep expected simulator/checker
/// panics from spamming stderr through the default hook.
pub fn classify(cfg: &HwConfig, words: &[u64]) -> Verdict {
    let check_cfg = *cfg;
    let check_input = words.to_vec();
    let Ok(analysis) = catch_unwind(AssertUnwindSafe(|| {
        analyze(&check_input, &check_cfg, Tiers::default())
    })) else {
        return Verdict::Crasher(CrasherClass::CheckerPanic);
    };
    let report = analysis.report;
    // Diagnostics must be a pure function of the stream up to its
    // input section: clients retry rejected submissions, compare NPC
    // codes across layers, and admission answers repeats from a
    // verdict store keyed on the stream with that section masked.
    match catch_unwind(AssertUnwindSafe(|| through_warm_store(cfg, words))) {
        Ok((stored, _)) if stored == report => {}
        _ => return Verdict::Crasher(CrasherClass::UnstableDiagnostic),
    }
    if report.has_errors() {
        let ids: BTreeSet<&'static str> = report.errors().map(|d| d.rule.id()).collect();
        return Verdict::Rejected {
            rules: ids.into_iter().collect(),
        };
    }
    let sim_cfg = *cfg;
    let sim_input = words.to_vec();
    match catch_unwind(AssertUnwindSafe(move || {
        run_inference_fast(&sim_cfg, sim_input)
    })) {
        Err(_) => Verdict::Crasher(CrasherClass::SimPanic),
        Ok(Err(_)) => Verdict::Crasher(CrasherClass::FalseAccept),
        Ok(Ok(_)) => Verdict::Clean,
    }
}

/// [`classify`], for mutants whose claimed source model is in hand:
/// streams that survive the two structural/range tiers and the
/// simulator are additionally put through the `netpu-check::symex`
/// translation validator against `source`. A proven inequivalence
/// downgrades `Clean` to [`Verdict::Miscompile`]; the validator
/// panicking, or disagreeing with itself across two runs, violates the
/// fuzzer's invariant exactly like the earlier tiers doing so.
pub fn classify_with_source(cfg: &HwConfig, words: &[u64], source: &QuantMlp) -> Verdict {
    let verdict = classify(cfg, words);
    if verdict != Verdict::Clean {
        return verdict;
    }
    let Ok(outcome) = catch_unwind(AssertUnwindSafe(|| {
        netpu_check::certify(source, words, cfg)
    })) else {
        return Verdict::Crasher(CrasherClass::CheckerPanic);
    };
    // Certification must be a pure function of (model, stream, cfg):
    // the certificate digest is what admission layers cache on.
    match catch_unwind(AssertUnwindSafe(|| {
        netpu_check::certify(source, words, cfg)
    })) {
        Ok(second) if second.report == outcome.report => {}
        _ => return Verdict::Crasher(CrasherClass::UnstableDiagnostic),
    }
    if outcome.report.has_equiv_errors() {
        let ids: BTreeSet<&'static str> = outcome
            .report
            .errors()
            .filter(|d| d.rule.is_equiv())
            .map(|d| d.rule.id())
            .collect();
        return Verdict::Miscompile {
            rules: ids.into_iter().collect(),
        };
    }
    Verdict::Clean
}

/// The report a [`VerdictStore`] gives for `words` after it analyzed
/// the same stream with every input word inverted, so a stream the
/// store keeps is answered from the entry another input left behind.
/// Streams it never keeps get two fresh runs. Pure in `(cfg, words)`.
fn through_warm_store(cfg: &HwConfig, words: &[u64]) -> (Report, StoreStats) {
    let store = VerdictStore::default();
    if let Some(span) = payload_span(words) {
        let mut warm = words.to_vec();
        warm[span].iter_mut().for_each(|w| *w = !*w);
        store.lookup(&warm, cfg, None);
    }
    let report = store.lookup(words, cfg, None).analysis().report.clone();
    (report, store.stats())
}

/// The sorted error-rule IDs of a rejection, if `v` is one.
pub fn rejection_rules(v: &Verdict) -> Option<&[&'static str]> {
    match v {
        Verdict::Rejected { rules } => Some(rules),
        _ => None,
    }
}

/// Runs `f` with the panic hook silenced, restoring the previous hook
/// afterwards (even if `f` itself unwinds). The fuzzer expects to
/// trigger thousands of *caught* panics; the default hook would print a
/// backtrace banner for every one.
pub fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    type Hook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;
    struct Restore(Option<Hook>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                std::panic::set_hook(prev);
            }
        }
    }
    let guard = Restore(Some(std::panic::take_hook()));
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    drop(guard);
    out
}

/// `RuleId` re-surfaced so fixture tests can assert on specific rules
/// without importing `netpu-check` directly.
pub type Rule = RuleId;

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;
    use std::sync::Mutex;

    /// The panic hook is process-global; tests that swap it (or expect
    /// panics) serialize here so the multi-threaded harness cannot
    /// interleave their install/restore pairs.
    static HOOK_LOCK: Mutex<()> = Mutex::new(());

    fn seed_words() -> Vec<u64> {
        let model = ZooModel::TfcW1A1
            .build_untrained(1, BnMode::Folded)
            .expect("zoo model builds");
        netpu_compiler::compile(&model, &vec![0u8; 784])
            .expect("seed compiles")
            .words
    }

    #[test]
    fn a_compiled_seed_classifies_clean() {
        let cfg = HwConfig::paper_instance();
        assert_eq!(classify(&cfg, &seed_words()), Verdict::Clean);
    }

    #[test]
    fn a_stream_is_judged_through_an_entry_left_by_another_input() {
        let cfg = HwConfig::paper_instance();
        let (report, stats) = through_warm_store(&cfg, &seed_words());
        assert!(!report.has_errors(), "{report}");
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A stream the store never keeps gets two fresh runs instead.
        let mut bad = seed_words();
        bad[0] ^= 1;
        let (report, stats) = through_warm_store(&cfg, &bad);
        assert!(report.fired(RuleId::Npc001), "{report}");
        assert_eq!((stats.hits, stats.misses), (0, 1));
    }

    #[test]
    fn a_flipped_magic_bit_rejects_with_npc001() {
        let cfg = HwConfig::paper_instance();
        let mut words = seed_words();
        words[0] ^= 1;
        let v = classify(&cfg, &words);
        let rules = rejection_rules(&v).expect("flipped magic must reject");
        assert!(rules.contains(&"NPC001"), "{rules:?}");
        assert_eq!(v.signature(), rules.join("+"));
    }

    #[test]
    fn an_empty_stream_rejects_not_crashes() {
        let _serial = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = HwConfig::paper_instance();
        let v = quiet_panics(|| classify(&cfg, &[]));
        assert!(!v.is_crasher(), "empty stream produced {v:?}");
        assert!(rejection_rules(&v).is_some(), "empty stream was {v:?}");
    }

    #[test]
    fn a_forged_stream_classifies_as_miscompile() {
        let _serial = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = HwConfig::paper_instance();
        let model = ZooModel::TfcW1A1
            .build_untrained(1, BnMode::Folded)
            .expect("zoo model builds");
        let mut forged = model.clone();
        let w = &mut forged.hidden[0].weights;
        let i = (0..w.len() - 1)
            .find(|&i| w[i] != w[i + 1])
            .expect("untrained weights vary");
        w.swap(i, i + 1);
        let bad = netpu_compiler::compile(&forged, &vec![0u8; 784])
            .expect("forged model compiles")
            .words;

        // Plain classification cannot see the forgery…
        assert_eq!(quiet_panics(|| classify(&cfg, &bad)), Verdict::Clean);
        // …the source-aware oracle can.
        let v = quiet_panics(|| classify_with_source(&cfg, &bad, &model));
        match &v {
            Verdict::Miscompile { rules } => assert!(rules.contains(&"NPC022"), "{rules:?}"),
            other => panic!("expected Miscompile, got {other:?}"),
        }
        assert!(v.signature().starts_with("MISCOMPILE:"));
        // The honest stream passes all three tiers.
        assert_eq!(
            quiet_panics(|| classify_with_source(&cfg, &seed_words(), &model)),
            Verdict::Clean
        );
    }

    #[test]
    fn signatures_distinguish_outcome_classes() {
        assert_eq!(Verdict::Clean.signature(), "CLEAN");
        assert_eq!(
            Verdict::Crasher(CrasherClass::SimPanic).signature(),
            "CRASH:sim-panic"
        );
        let r = Verdict::Rejected {
            rules: vec!["NPC002", "NPC005"],
        };
        assert_eq!(r.signature(), "NPC002+NPC005");
    }

    #[test]
    fn quiet_panics_restores_the_previous_hook() {
        // Install a recognizable hook, silence inside, then confirm the
        // recognizable hook survived the round-trip by replacing it.
        let _serial = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let f2 = flag.clone();
        std::panic::set_hook(Box::new(move |_| {
            f2.store(true, std::sync::atomic::Ordering::SeqCst);
        }));
        quiet_panics(|| {
            let _ = catch_unwind(|| panic!("silenced"));
        });
        assert!(
            !flag.load(std::sync::atomic::Ordering::SeqCst),
            "hook ran while silenced"
        );
        let _ = catch_unwind(|| panic!("audible"));
        assert!(
            flag.load(std::sync::atomic::Ordering::SeqCst),
            "previous hook was not restored"
        );
        let _ = std::panic::take_hook();
    }
}
