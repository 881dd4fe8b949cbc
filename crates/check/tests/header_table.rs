//! Malformed headers, answered by every reader of the stream format:
//! the input-section lookup, the decoded view, the container layout
//! recomputation, the verifier's rules and the accelerator itself. Each
//! reader keeps its own acceptance rules; this table pins them.

use netpu_check::{analyze, RuleId, Tiers};
use netpu_compiler::file::layout_of;
use netpu_compiler::{
    compile, compile_packed, input_section, PackingMode, StreamError, StreamView,
};
use netpu_core::{run_inference_fast, HwConfig, NetPuError};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use std::ops::Range;

/// What each reader answers for one stream.
#[derive(Debug, PartialEq)]
struct Answers {
    input_section: Result<Range<usize>, StreamError>,
    view: Result<PackingMode, StreamError>,
    layout: Result<usize, StreamError>,
    rules: Vec<(RuleId, Option<usize>)>,
    run: String,
}

fn answers(words: &[u64], cfg: &HwConfig) -> Answers {
    let report = analyze(words, cfg, Tiers::default()).report;
    Answers {
        input_section: input_section(words),
        view: StreamView::new(words.into()).map(|v| v.packing),
        layout: layout_of(words).map(|l| l.sections.len()),
        rules: report.errors().map(|d| (d.rule, d.byte_offset)).collect(),
        run: match run_inference_fast(cfg, words.to_vec()) {
            Ok(run) => format!("ok: class {}", run.class),
            Err(NetPuError::Stream(e)) => format!("stream: {e:?}"),
            Err(e) => format!("{e:?}"),
        },
    }
}

fn tfc() -> Vec<u64> {
    let model = ZooModel::TfcW1A1
        .build_untrained(1, BnMode::Folded)
        .unwrap();
    compile(&model, &[0u8; 784]).unwrap().words
}

/// `words` with header bits `shift..shift + width` set to `value`.
fn with_field(mut words: Vec<u64>, shift: u32, width: u32, value: u64) -> Vec<u64> {
    let mask = ((1u64 << width) - 1) << shift;
    words[0] = (words[0] & !mask) | (value << shift);
    words
}

#[test]
fn malformed_headers_get_each_readers_answer() {
    let cfg = HwConfig::paper_instance();
    let good = tfc();
    // The TFC stream: 5 layers, its 784 pixels in 98 words.
    let input = 6..104;

    let bad_magic = with_field(good.clone(), 0, 16, 0x4E51);
    let h = bad_magic[0];
    assert_eq!(
        answers(&bad_magic, &cfg),
        Answers {
            input_section: Err(StreamError::BadHeader(h)),
            view: Err(StreamError::BadHeader(h)),
            layout: Err(StreamError::BadHeader(h)),
            rules: vec![(RuleId::Npc001, Some(0))],
            run: format!("stream: {:?}", StreamError::BadHeader(h)),
        },
        "bad magic"
    );

    let bad_version = with_field(good.clone(), 16, 8, 2);
    let h = bad_version[0];
    assert_eq!(
        answers(&bad_version, &cfg),
        Answers {
            input_section: Err(StreamError::BadHeader(h)),
            view: Err(StreamError::BadHeader(h)),
            layout: Err(StreamError::BadHeader(h)),
            rules: vec![(RuleId::Npc001, Some(0))],
            run: format!("stream: {:?}", StreamError::BadHeader(h)),
        },
        "bad version"
    );

    let len = good.len();
    let no_layers = with_field(good.clone(), 24, 16, 0);
    assert_eq!(
        answers(&no_layers, &cfg),
        Answers {
            input_section: Err(StreamError::BadLayerSequence),
            view: Err(StreamError::BadLayerSequence),
            layout: Err(StreamError::Truncated { at: len }),
            rules: vec![(RuleId::Npc002, Some(0))],
            run: "stream: BadLayerSequence".into(),
        },
        "n = 0"
    );

    // A one-layer header still names an input section: the store keys
    // such streams by it.
    let one_layer = with_field(good.clone(), 24, 16, 1);
    assert_eq!(
        answers(&one_layer, &cfg),
        Answers {
            input_section: Ok(2..100),
            view: Err(StreamError::BadLayerSequence),
            layout: Err(StreamError::Truncated { at: len }),
            rules: vec![(RuleId::Npc002, Some(0))],
            run: "stream: BadLayerSequence".into(),
        },
        "n = 1"
    );

    let truncated = good[..3].to_vec();
    assert_eq!(
        answers(&truncated, &cfg),
        Answers {
            input_section: Err(StreamError::Truncated { at: 3 }),
            view: Err(StreamError::Truncated { at: 3 }),
            layout: Err(StreamError::Truncated { at: 3 }),
            rules: vec![(RuleId::Npc005, Some(24))],
            run: "Sim(Deadlock { at: 100002, window: 100000 })".into(),
        },
        "truncated settings"
    );

    let dense = compile_packed(
        &ZooModel::TfcW2A2
            .build_untrained(1, BnMode::Folded)
            .unwrap(),
        &[0u8; 784],
        PackingMode::Dense,
    )
    .unwrap()
    .words;
    assert_eq!(
        answers(&dense, &cfg),
        Answers {
            input_section: Ok(input),
            view: Ok(PackingMode::Dense),
            layout: Ok(10),
            rules: vec![(RuleId::Npc006, Some(0))],
            run: "stream: PackingUnsupported".into(),
        },
        "dense flag on a non-dense instance"
    );
}
