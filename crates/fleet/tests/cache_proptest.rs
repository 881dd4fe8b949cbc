//! Property suite for the compiled-model cache's LRU core: under any
//! sequence of admit / lookup / remove operations, resident bytes
//! never exceed the budget, and a lookup only ever returns a value
//! that was admitted and has not been evicted since — never a stale or
//! foreign entry.

use netpu_fleet::{Admit, CompiledModelCache, LruCore};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_runtime::Driver;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_op_sequences_hold_the_budget_and_membership(
        capacity in 1u64..256,
        ops in collection::vec((0u64..12, 1u64..96, 0u64..4), 0..160),
    ) {
        let mut lru: LruCore<(u64, u64)> = LruCore::new(capacity);
        // Reference model: the set of entries that must be resident.
        let mut live: HashMap<u64, (u64, u64)> = HashMap::new();
        for (id, bytes, op) in ops {
            match op {
                // Admit: value is tagged with its id and size so any
                // cross-entry mixup is caught on lookup.
                0 | 1 => {
                    let value = (id, bytes);
                    match lru.insert(id, value, bytes) {
                        Admit::Inserted { evicted } => {
                            prop_assert!(bytes <= capacity);
                            live.remove(&id); // replaced, if present
                            for victim in &evicted {
                                prop_assert!(
                                    live.remove(victim).is_some(),
                                    "evicted {} was not live", victim
                                );
                                prop_assert!(*victim != id, "evicted the new entry");
                            }
                            live.insert(id, value);
                        }
                        Admit::TooLarge { bytes: b, capacity: c } => {
                            prop_assert_eq!(b, bytes);
                            prop_assert_eq!(c, capacity);
                            prop_assert!(bytes > capacity, "fitting entry refused");
                        }
                    }
                }
                // Lookup: exactly the reference model's answer.
                2 => {
                    let got = lru.lookup(id).copied();
                    prop_assert_eq!(got, live.get(&id).copied());
                }
                // Remove.
                _ => {
                    let got = lru.remove(id);
                    prop_assert_eq!(got, live.remove(&id));
                }
            }
            // Budget invariant after every operation.
            let model_bytes: u64 = live.values().map(|&(_, b)| b).sum();
            prop_assert!(lru.resident_bytes() <= capacity,
                "resident {} over budget {}", lru.resident_bytes(), capacity);
            prop_assert_eq!(lru.resident_bytes(), model_bytes);
            let mut want: Vec<u64> = live.keys().copied().collect();
            want.sort_unstable();
            prop_assert_eq!(lru.ids(), want);
        }
    }
}

#[test]
fn real_model_cache_never_returns_an_unadmitted_loadable() {
    let cache = CompiledModelCache::new(Driver::builder().build(), 256 << 20);
    let a = ZooModel::SfcW1A1
        .build_untrained(31, BnMode::Folded)
        .unwrap();
    let b = ZooModel::SfcW2A2
        .build_untrained(32, BnMode::Folded)
        .unwrap();
    let a_adm = cache.get_or_admit(1, &a).unwrap();
    let b_adm = cache.get_or_admit(2, &b).unwrap();
    // Lookups only surface what was admitted, under the right id.
    assert_eq!(cache.lookup(1).unwrap().words(), a_adm.words());
    assert_eq!(cache.lookup(2).unwrap().words(), b_adm.words());
    assert!(cache.lookup(3).is_none(), "id 3 was never admitted");
    assert!(!cache.contains(99));
}

#[test]
fn tiny_budget_evicts_but_never_overflows() {
    let driver = Driver::builder().build();
    let probe = CompiledModelCache::new(driver.clone(), 256 << 20);
    let a = ZooModel::SfcW1A1
        .build_untrained(41, BnMode::Folded)
        .unwrap();
    let one_model_bytes = probe.get_or_admit(0, &a).unwrap().bytes;
    // Budget fits ~1.5 models: admitting three forces evictions.
    let cache = CompiledModelCache::new(driver, one_model_bytes * 3 / 2);
    for (id, seed) in [(1u64, 42u64), (2, 43), (3, 44)] {
        let model = ZooModel::SfcW1A1
            .build_untrained(seed, BnMode::Folded)
            .unwrap();
        cache.get_or_admit(id, &model).unwrap();
        let stats = cache.stats();
        assert!(
            stats.resident_bytes <= stats.capacity_bytes,
            "resident {} over budget {}",
            stats.resident_bytes,
            stats.capacity_bytes
        );
    }
    let stats = cache.stats();
    assert!(
        stats.evictions >= 2,
        "three same-size models through a 1.5-model budget"
    );
    // The newest admission is resident; the oldest was evicted.
    assert!(cache.contains(3));
    assert!(!cache.contains(1));
}
