//! Sharded multi-tenant fleet serving: many tenants × many models over
//! a compiled-model cache and swap-aware board scheduling.
//!
//! A live `FleetServer` run: three tenants share four models across
//! 2 shards × 2 boards; every model is compiled and admitted
//! (NPC001–NPC020) exactly once, then every later request splices its
//! input into the cached loadable. The example asserts the admit-once
//! property. The deterministic traffic replay (swap-aware placement vs
//! naive FIFO) is reported by `cargo run --release -p xtask --
//! serve-report` into `artifacts/serve/fleet_replay.tsv`.
//!
//! ```sh
//! cargo run --release --example fleet
//! ```

use std::sync::Arc;

use netpu::fleet::{FleetConfig, FleetRequest, FleetServer};
use netpu::nn::export::BnMode;
use netpu::nn::zoo::ZooModel;
use netpu::runtime::Driver;

fn main() {
    let server = FleetServer::start(
        Driver::builder().build(),
        FleetConfig {
            shards: 2,
            boards_per_shard: 2,
            ..FleetConfig::default()
        },
    );

    let models: Vec<Arc<_>> = [
        (ZooModel::TfcW1A1, 101u64),
        (ZooModel::SfcW1A1, 102),
        (ZooModel::TfcW2A2, 103),
        (ZooModel::SfcW2A2, 104),
    ]
    .iter()
    .map(|(zoo, seed)| Arc::new(zoo.build_untrained(*seed, BnMode::Folded).unwrap()))
    .collect();

    let mut tickets = Vec::new();
    for i in 0..24usize {
        let model_idx = i % models.len();
        let model = Arc::clone(&models[model_idx]);
        let pixels = vec![(i as u8).wrapping_mul(37); model.input.len];
        tickets.push(
            server
                .submit(FleetRequest {
                    tenant: (i % 3) as u64,
                    model_id: model_idx as u64,
                    model,
                    pixels,
                    deadline_us: None,
                })
                .expect_accepted(),
        );
    }
    let mut served = 0usize;
    let mut resident_hits = 0usize;
    for t in tickets {
        let resp = t.wait().expect("fleet request failed");
        served += 1;
        resident_hits += usize::from(resp.resident_hit);
    }
    let m = server.shutdown();
    println!(
        "live fleet: served {served}/{} ({} resident-weight hits), cache {} misses / {} hits, \
         swaps/placement {:.2}",
        m.submitted,
        resident_hits,
        m.cache.misses,
        m.cache.hits,
        m.swaps_per_placement().unwrap_or(0.0),
    );
    assert_eq!(
        m.cache.misses as usize,
        models.len(),
        "each model admits exactly once"
    );
}
