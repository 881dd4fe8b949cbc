//! Replays every committed crasher fixture through the differential
//! oracle. A fixture is a minimized stream that once violated the
//! fuzzer's invariant; these tests pin the fixes.

use netpu_core::HwConfig;
use netpu_fuzz::{classify, quiet_panics, words_from_text, Verdict};
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn fixture_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures directory exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "words"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_fixture_upholds_the_invariant() {
    let cfg = HwConfig::paper_instance();
    let files = fixture_files();
    assert!(
        !files.is_empty(),
        "no committed fixtures: the false-accept witness should be here"
    );
    for path in files {
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let words = words_from_text(&text).expect("fixture parses");
        let verdict = quiet_panics(|| classify(&cfg, &words));
        assert!(
            !verdict.is_crasher(),
            "{}: still a crasher ({})",
            path.display(),
            verdict.signature()
        );
    }
}

#[test]
fn the_trailing_garbage_false_accept_now_rejects_with_npc001() {
    // The committed witness: a valid loadable plus one garbage word.
    // The burst-segment checker must reject the pseudo-header the
    // accelerator would choke on, at its exact byte offset.
    let cfg = HwConfig::paper_instance();
    let text = std::fs::read_to_string(fixtures_dir().join("false-accept-0.words"))
        .expect("committed fixture present");
    let words = words_from_text(&text).expect("fixture parses");
    match classify(&cfg, &words) {
        Verdict::Rejected { rules } => {
            assert!(rules.contains(&"NPC001"), "expected NPC001 in {rules:?}");
        }
        other => panic!("expected a stable rejection, got {other:?}"),
    }
    // And the diagnostic points past the first loadable's layout end,
    // not at the genuine (valid) first header.
    let report = netpu_check::analyze(&words, &cfg, Default::default()).report;
    assert!(
        report.errors().all(|d| d.byte_offset != Some(0)),
        "rejection blamed the valid first header"
    );
}

#[test]
fn fixture_files_round_trip_through_the_text_format() {
    for path in fixture_files() {
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let words = words_from_text(&text).expect("fixture parses");
        let reencoded = netpu_fuzz::words_to_text(&words);
        let reparsed = words_from_text(&reencoded).expect("re-encoded text parses");
        assert_eq!(words, reparsed, "{} did not round-trip", path.display());
    }
}
