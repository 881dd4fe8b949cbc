//! Pins the compiled word stream: every zoo model (both BN modes, both
//! packings) and a sweep of random models hash to committed digests at a
//! fixed seed and fixed pixels, so a refactor of the encoder cannot move
//! a single bit unnoticed.

use netpu_compiler::{compile_packed, PackingMode};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::{random_model, ZooModel};
use netpu_nn::QuantMlp;

/// FNV-1a over the little-endian bytes of `words`, chained from `hash`.
fn fnv1a(mut hash: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01B3);
        }
    }
    hash
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn pixels(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 37 + 11) % 256) as u8).collect()
}

fn digest(model: &QuantMlp, mode: PackingMode) -> u64 {
    let loadable = compile_packed(model, &pixels(model.input.len), mode).unwrap();
    fnv1a(FNV_OFFSET, &loadable.words)
}

const MODES: [PackingMode; 2] = [PackingMode::Lanes8, PackingMode::Dense];

#[test]
fn zoo_streams_match_committed_digests() {
    // (model, BN mode) rows; columns are Lanes8 then Dense.
    let expected: [(ZooModel, BnMode, [u64; 2]); 12] = [
        (
            ZooModel::TfcW1A1,
            BnMode::Folded,
            [0x5fab2db8297dee0c, 0x7771261df23fab5f],
        ),
        (
            ZooModel::TfcW1A1,
            BnMode::Hardware,
            [0xdddd9bcf4d7e24ec, 0x209e03e90e89d53f],
        ),
        (
            ZooModel::TfcW2A2,
            BnMode::Folded,
            [0xa8162017b447d03e, 0x813c4ffe2b9ed5a6],
        ),
        (
            ZooModel::TfcW2A2,
            BnMode::Hardware,
            [0x07299300259480de, 0x7fe35d4d18037146],
        ),
        (
            ZooModel::SfcW1A1,
            BnMode::Folded,
            [0xa2a3f55f7bfa5f8c, 0xacbca075e2cd314b],
        ),
        (
            ZooModel::SfcW1A1,
            BnMode::Hardware,
            [0xaf83e103d83828ac, 0xffb044571458d32b],
        ),
        (
            ZooModel::SfcW2A2,
            BnMode::Folded,
            [0x7352ae762a2c1f9e, 0x9eb8120337a1066c],
        ),
        (
            ZooModel::SfcW2A2,
            BnMode::Hardware,
            [0x1c8b67168265afbe, 0xafbcc173ef25638c],
        ),
        (
            ZooModel::LfcW1A1,
            BnMode::Folded,
            [0xeb8e8def1be6b0e1, 0x1a5a0bfee7688a3e],
        ),
        (
            ZooModel::LfcW1A1,
            BnMode::Hardware,
            [0xf5d3569153974501, 0x53cc7df86071185e],
        ),
        (
            ZooModel::LfcW1A2,
            BnMode::Folded,
            [0x50c319e16f324601, 0xd9795607073bb682],
        ),
        (
            ZooModel::LfcW1A2,
            BnMode::Hardware,
            [0xd23aaec2ad9ce521, 0xfe03b942409a9162],
        ),
    ];
    for (zoo, bn, want) in expected {
        let model = zoo.build_untrained(7, bn).unwrap();
        let have = MODES.map(|mode| digest(&model, mode));
        assert_eq!(have, want, "{zoo:?} {bn:?}: {have:#018x?}");
    }
}

#[test]
fn random_model_streams_match_committed_digest() {
    let mut hashes = [FNV_OFFSET; 2];
    for seed in 0..1000 {
        let model = random_model(seed);
        for (hash, mode) in hashes.iter_mut().zip(MODES) {
            let loadable = compile_packed(&model, &pixels(model.input.len), mode).unwrap();
            *hash = fnv1a(*hash, &loadable.words);
        }
    }
    assert_eq!(hashes, [0xc181_d5da_a05e_ff44, 0x6fbc_efd9_9bd0_a7df]);
}
