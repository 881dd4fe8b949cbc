//! Fast batch-throughput smoke check for CI: the batch-major bitsliced
//! fast path must stay bit-exact against the per-frame phase-skipping
//! simulation and conservatively faster than the scalar per-frame
//! path. It is the cheap guard that fails CI if the batch kernel
//! silently degrades; `perfbench/` measures the kernels' absolute cost
//! per frame.

use netpu::core::{run_batch_fast, run_inference_fast, BatchEngine, HwConfig};
use netpu::nn::export::BnMode;
use netpu::nn::zoo::ZooModel;
use std::time::Instant;

fn main() {
    let cfg = HwConfig::paper_instance();
    let model = ZooModel::TfcW1A1
        .build_untrained(7, BnMode::Folded)
        .unwrap();
    assert!(
        BatchEngine::new(&model).is_bitsliced(),
        "TFC-w1a1 must take the bitsliced batch path"
    );
    let frames: Vec<Vec<u8>> = (0..256)
        .map(|f| {
            (0..model.input.len)
                .map(|i| ((i * 31 + f * 17 + 5) % 251) as u8)
                .collect()
        })
        .collect();

    // Correctness: the batch fast path is indistinguishable from
    // running the per-frame fast path on every sampled frame.
    let batch = run_batch_fast(&cfg, &model, &frames).expect("batch fast path");
    assert_eq!(batch.len(), frames.len());
    for (run, px) in batch.iter().zip(&frames).step_by(37) {
        let words = netpu::compiler::compile(&model, px).expect("compile").words;
        let single = run_inference_fast(&cfg, words).expect("single fast path");
        assert_eq!(run, &single, "batch diverged from the per-frame fast path");
    }

    // Throughput: scalar per-frame (compile + phase-skipping sim each
    // frame) vs the slab-swept batch path. The bench records ~29x on
    // this model; CI only asserts a conservative floor.
    let scalar_n = 24;
    let start = Instant::now();
    for px in frames.iter().take(scalar_n) {
        let words = netpu::compiler::compile(&model, px).expect("compile").words;
        run_inference_fast(&cfg, words).expect("scalar fast path");
    }
    let scalar_fps = scalar_n as f64 / start.elapsed().as_secs_f64();

    run_batch_fast(&cfg, &model, &frames).expect("warmup"); // warm caches
    let iters = 3;
    let start = Instant::now();
    for _ in 0..iters {
        run_batch_fast(&cfg, &model, &frames).expect("batch fast path");
    }
    let batch_fps = (iters * frames.len()) as f64 / start.elapsed().as_secs_f64();

    let speedup = batch_fps / scalar_fps;
    println!(
        "batch_throughput smoke: scalar {scalar_fps:.0} fps, bitsliced batch {batch_fps:.0} fps \
         ({speedup:.1}x) on {}",
        model.name
    );
    assert!(
        speedup > 4.0,
        "bitsliced batch path regressed: only {speedup:.1}x over scalar (want > 4x)"
    );
}
