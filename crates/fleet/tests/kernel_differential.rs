//! The fleet's value kernel against both oracles it replaces.
//!
//! A `FleetServer` answers cache hits from the admitted model's packed
//! kernel instead of simulating the stream. For every zoo family in
//! both BN modes (the W2A2 and W1A2 families exercise the non-binary
//! fallback layers) and a sweep of random models, every fleet-served
//! class must equal the cycle-accurate fast path on the admitted stream
//! with the request's input spliced in, and the bit-exact software
//! reference on the source model.

use netpu_compiler::{compile, StreamError};
use netpu_core::netpu::run_inference_fast;
use netpu_fleet::{FleetConfig, FleetRequest, FleetServer, TenantPolicy};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::{random_model, ZooModel};
use netpu_nn::{reference, QuantMlp};
use netpu_runtime::{Driver, DriverError};
use std::sync::Arc;

const RANDOM_MODELS: u64 = 200;

fn fleet() -> FleetServer {
    FleetServer::start(
        Driver::builder().build(),
        FleetConfig {
            shards: 1,
            boards_per_shard: 2,
            queue_depth: 1024,
            tenant_policy: TenantPolicy {
                rate_rps: 1e9,
                burst: 1e9,
            },
            cache_capacity_bytes: 1 << 30,
            ..FleetConfig::default()
        },
    )
}

fn request(model_id: u64, model: &Arc<QuantMlp>, pixels: Vec<u8>) -> FleetRequest {
    FleetRequest {
        tenant: 0,
        model_id,
        model: Arc::clone(model),
        pixels,
        deadline_us: None,
    }
}

/// Deterministic, input-varied pixels: a ramp offset by `salt`.
fn pixels(len: usize, salt: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|i| ((i * 37 + salt * 101 + i * i * salt) % 256) as u8)
        .collect()
}

/// Serves `inputs` of `model` through `fleet` and checks each class
/// against the simulator on the spliced admitted stream and the
/// reference.
fn check_model(fleet: &FleetServer, driver: &Driver, id: u64, model: &Arc<QuantMlp>, inputs: u64) {
    let mut admitted = compile(model, &vec![0u8; model.input.len]).unwrap();
    let tickets: Vec<_> = (0..inputs)
        .map(|k| {
            let px = pixels(model.input.len, id * 16 + k);
            let ticket = fleet
                .submit(request(id, model, px.clone()))
                .expect_accepted();
            (px, ticket)
        })
        .collect();
    for (px, ticket) in tickets {
        let served = ticket.wait().unwrap().class;
        admitted.replace_input(&px).unwrap();
        let sim = run_inference_fast(&driver.hw, admitted.words.clone()).unwrap();
        assert_eq!(served, sim.class, "model {id}: fleet vs simulator");
        assert_eq!(
            served,
            reference::infer(model, &px),
            "model {id}: fleet vs reference"
        );
    }
}

#[test]
fn fleet_classes_match_simulator_and_reference_across_the_zoo() {
    let fleet = fleet();
    let driver = Driver::builder().build();
    let mut id = 0;
    for zoo in ZooModel::ALL {
        for mode in [BnMode::Folded, BnMode::Hardware] {
            let model = Arc::new(zoo.build_untrained(40 + id, mode).unwrap());
            check_model(&fleet, &driver, id, &model, 4);
            id += 1;
        }
    }
    let m = fleet.shutdown();
    assert_eq!((m.completed, m.failed), (48, 0));
    assert!(m.shadow_checks > 0);
    assert_eq!(m.shadow_mismatches, 0);
}

#[test]
fn fleet_classes_match_simulator_and_reference_on_random_models() {
    let fleet = fleet();
    let driver = Driver::builder().build();
    for seed in 0..RANDOM_MODELS {
        let model = Arc::new(random_model(seed));
        check_model(&fleet, &driver, seed, &model, 3);
    }
    let m = fleet.shutdown();
    assert_eq!((m.completed, m.failed), (3 * RANDOM_MODELS, 0));
    assert_eq!(m.shadow_mismatches, 0);
}

#[test]
fn wrong_input_length_fails_as_splicing_does() {
    let fleet = fleet();
    let model = Arc::new(
        ZooModel::TfcW1A1
            .build_untrained(3, BnMode::Folded)
            .unwrap(),
    );
    // The first request is shadowed and admits the model; the second
    // is a plain cache hit. Both must fail like `replace_input`.
    for _ in 0..2 {
        let outcome = fleet
            .submit(request(7, &model, vec![1u8; 100]))
            .expect_accepted()
            .wait();
        assert_eq!(
            outcome,
            Err(DriverError::Compile(StreamError::InputLength {
                expected: 784,
                got: 100,
            }))
        );
    }
    let m = fleet.shutdown();
    assert_eq!((m.completed, m.failed), (0, 2));
}
