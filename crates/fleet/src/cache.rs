//! The compiled-loadable cache: full admission exactly once per model.
//!
//! Every request entering the fleet references a model by id. The first
//! request for a model pays compilation and one lookup in the driver's
//! verdict store ([`Driver::admit_values`]); every later request reuses
//! the [`AdmittedModel`] from the cache and never re-runs admission.
//! The store entry is the single record of an admitted stream: its
//! findings (`netpu-check` NPC001–NPC020, plus NPC021–NPC026
//! translation validation on a strict-equiv driver), its timing
//! certificate, its words and its [`ValueKernel`], which reads its
//! weights in place from those words. The entry outlives an eviction
//! from this cache, so a model that returns pays compilation and a
//! lookup: no analysis, no simulation and no weight decode.
//!
//! An admitted model splits a request's answer in two. Cycles and
//! latency are input-independent for a loaded model, so they come from
//! the timing certificate. Values come from the kernel, which serves
//! what the *stream* encodes, not the request's source model; the
//! driver cross-checked it once against the simulator when the stream
//! was first admitted.
//!
//! The cache is byte-budgeted LRU over the stream words: admitting a
//! model past the budget evicts the least-recently-used residents
//! first. The words themselves, and the kernel's thresholds and biases,
//! are held and charged by the verdict store.
//!
//! [`LruCore`] — the budget/recency bookkeeping — is public on its own
//! so the property suite can drive arbitrary admit/evict/lookup
//! sequences against a reference model without paying for real
//! compilation (see `tests/cache_proptest.rs`).

use netpu_arith::cast;
use netpu_compiler::compile;
use netpu_nn::QuantMlp;
use netpu_runtime::{Driver, DriverError, MeasuredRun, ValueKernel};
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// One cached slot.
struct Slot<V> {
    value: V,
    bytes: u64,
    last_used: u64,
}

/// Outcome of an [`LruCore::insert`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Inserted; `evicted` lists the ids displaced to make room, in
    /// eviction order.
    Inserted {
        /// Ids evicted to fit the new entry.
        evicted: Vec<u64>,
    },
    /// The entry alone exceeds the whole budget; nothing was cached and
    /// nothing was evicted.
    TooLarge {
        /// Size of the rejected entry, bytes.
        bytes: u64,
        /// The configured budget, bytes.
        capacity: u64,
    },
}

/// Byte-budgeted LRU bookkeeping over opaque values.
///
/// Invariants (property-tested in `tests/cache_proptest.rs`):
/// resident bytes never exceed the budget, and a lookup only ever
/// returns a value that was inserted and has not been evicted since.
pub struct LruCore<V> {
    capacity_bytes: u64,
    resident_bytes: u64,
    tick: u64,
    entries: HashMap<u64, Slot<V>>,
}

impl<V> LruCore<V> {
    /// An empty cache with the given byte budget.
    pub fn new(capacity_bytes: u64) -> LruCore<V> {
        LruCore {
            capacity_bytes,
            resident_bytes: 0,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// The configured budget, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently resident (always ≤ the budget).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `id`, refreshing its recency on a hit.
    pub fn lookup(&mut self, id: u64) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&id).map(|slot| {
            slot.last_used = tick;
            &slot.value
        })
    }

    /// Inserts `value` under `id`, evicting least-recently-used entries
    /// until it fits. Re-inserting an existing id replaces the old
    /// value (its bytes are released first). Entries larger than the
    /// whole budget are refused.
    pub fn insert(&mut self, id: u64, value: V, bytes: u64) -> Admit {
        if bytes > self.capacity_bytes {
            return Admit::TooLarge {
                bytes,
                capacity: self.capacity_bytes,
            };
        }
        if let Some(old) = self.entries.remove(&id) {
            self.resident_bytes -= old.bytes;
        }
        let mut evicted = Vec::new();
        while self.resident_bytes + bytes > self.capacity_bytes {
            // Victim: oldest recency, ties broken by smaller id so the
            // walk over the unordered map stays deterministic.
            let victim = self
                .entries
                .iter()
                .map(|(&vid, slot)| (slot.last_used, vid))
                .min();
            let Some((_, vid)) = victim else { break };
            if let Some(slot) = self.entries.remove(&vid) {
                self.resident_bytes -= slot.bytes;
                evicted.push(vid);
            }
        }
        self.tick += 1;
        self.entries.insert(
            id,
            Slot {
                value,
                bytes,
                last_used: self.tick,
            },
        );
        self.resident_bytes += bytes;
        Admit::Inserted { evicted }
    }

    /// `true` when `id` is resident; touches neither recency nor any
    /// statistic.
    pub fn contains(&self, id: u64) -> bool {
        self.entries.contains_key(&id)
    }

    /// Removes `id`, returning its value if it was resident.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        self.entries.remove(&id).map(|slot| {
            self.resident_bytes -= slot.bytes;
            slot.value
        })
    }

    /// Resident ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// A model that has passed full admission, with the swap-cost figures
/// the scheduler needs and the kernel that computes its values.
///
/// The split between `transfer_us` and `resident_transfer_us` is the
/// paper's §V reconfiguration economics: a board that already holds the
/// model's weight sections only needs the header + layer settings +
/// input words re-streamed, so a residency hit skips
/// `weight_stream_us` of DMA occupancy — the quantity swap-aware
/// scheduling exists to amortize.
#[derive(Clone, Debug)]
pub struct AdmittedModel {
    /// Fleet-wide model id (the cache key).
    pub id: u64,
    /// The zero-input inference priced from the timing certificate
    /// (input-independent timing).
    pub run: MeasuredRun,
    /// The admitted stream's value kernel, shared with its verdict-store
    /// entry.
    pub kernel: ValueKernel,
    /// DMA occupancy streaming the whole loadable, µs.
    pub transfer_us: f64,
    /// DMA occupancy streaming only header + settings + input, µs.
    pub resident_transfer_us: f64,
    /// DMA time a residency hit saves: `transfer_us -
    /// resident_transfer_us`, µs.
    pub weight_stream_us: f64,
    /// End-to-end latency when the board already holds the weights, µs.
    pub resident_latency_us: f64,
    /// Cache footprint: the stream words, bytes.
    pub bytes: u64,
}

impl AdmittedModel {
    /// The admitted stream's words, input section zeroed.
    pub fn words(&self) -> &[u64] {
        self.kernel.words()
    }

    /// `(dma_transfer_us, total_latency_us)` for a placement, given
    /// whether the chosen board already holds this model's weights.
    pub fn service_cost(&self, resident_hit: bool) -> (f64, f64) {
        if resident_hit {
            (self.resident_transfer_us, self.resident_latency_us)
        } else {
            (self.transfer_us, self.run.measured_latency_us)
        }
    }
}

/// Point-in-time cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run admission.
    pub misses: u64,
    /// Models evicted to respect the byte budget.
    pub evictions: u64,
    /// Admissions refused (check failure or entry above the budget).
    pub rejected: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// The configured budget, bytes.
    pub capacity_bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, `None` before any.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| cast::f64_from_u64(self.hits) / cast::f64_from_u64(total))
    }
}

struct CacheInner {
    lru: LruCore<Arc<AdmittedModel>>,
    in_flight: HashSet<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
}

/// The shared compiled-model cache.
///
/// Thread-safe and admission-coalescing: when several workers miss on
/// the same model id concurrently, exactly one runs the admission
/// pipeline while the rest block on a condvar and reuse its result —
/// admission happens once per model, not once per racing worker.
pub struct CompiledModelCache {
    driver: Driver,
    inner: Mutex<CacheInner>,
    admitted: Condvar,
}

impl CompiledModelCache {
    /// An empty cache admitting through `driver` (whose `strict_range`,
    /// `strict_equiv`, and hardware instance govern what passes),
    /// budgeted to `capacity_bytes` of stream words.
    pub fn new(driver: Driver, capacity_bytes: u64) -> CompiledModelCache {
        CompiledModelCache {
            driver,
            inner: Mutex::new(CacheInner {
                lru: LruCore::new(capacity_bytes),
                in_flight: HashSet::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
                rejected: 0,
            }),
            admitted: Condvar::new(),
        }
    }

    /// The driver admissions run against.
    pub fn driver(&self) -> &Driver {
        &self.driver
    }

    /// Returns the admitted form of `model`, running the full admission
    /// pipeline at most once per id. Concurrent misses on one id
    /// coalesce into a single admission. A model larger than the whole
    /// budget is still admitted and returned — it just isn't cached.
    pub fn get_or_admit(
        &self,
        id: u64,
        model: &QuantMlp,
    ) -> Result<Arc<AdmittedModel>, DriverError> {
        self.resolve(id, model).map(|(admitted, _)| admitted)
    }

    /// [`get_or_admit`](Self::get_or_admit), also saying whether this
    /// call was counted as a cache hit (`true`) or ran admission
    /// (`false`). The answer comes from the same locked lookup that
    /// served the call, so it always agrees with [`CacheStats::hits`].
    pub fn resolve(
        &self,
        id: u64,
        model: &QuantMlp,
    ) -> Result<(Arc<AdmittedModel>, bool), DriverError> {
        {
            let mut inner = lock(&self.inner);
            loop {
                if let Some(hit) = inner.lru.lookup(id).map(Arc::clone) {
                    inner.hits += 1;
                    return Ok((hit, true));
                }
                if !inner.in_flight.contains(&id) {
                    inner.in_flight.insert(id);
                    inner.misses += 1;
                    break;
                }
                inner = self
                    .admitted
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Admission runs outside the lock: other models stay servable
        // while this one is compiled and admitted.
        let outcome = self.admit(id, model);
        let mut inner = lock(&self.inner);
        inner.in_flight.remove(&id);
        match &outcome {
            Ok(admitted) => match inner.lru.insert(id, Arc::clone(admitted), admitted.bytes) {
                Admit::Inserted { evicted } => {
                    inner.evictions += cast::u64_from_usize(evicted.len());
                }
                Admit::TooLarge { .. } => inner.rejected += 1,
            },
            Err(_) => inner.rejected += 1,
        }
        drop(inner);
        self.admitted.notify_all();
        outcome.map(|admitted| (admitted, false))
    }

    /// Looks `id` up without admitting on a miss. Counts toward the
    /// hit/miss statistics.
    pub fn lookup(&self, id: u64) -> Option<Arc<AdmittedModel>> {
        let mut inner = lock(&self.inner);
        match inner.lru.lookup(id) {
            Some(hit) => {
                let hit = Arc::clone(hit);
                inner.hits += 1;
                Some(hit)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// `true` when `id` is resident, without touching recency or the
    /// hit/miss statistics.
    pub fn contains(&self, id: u64) -> bool {
        lock(&self.inner).lru.contains(id)
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = lock(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            rejected: inner.rejected,
            resident_bytes: inner.lru.resident_bytes(),
            capacity_bytes: inner.lru.capacity_bytes(),
        }
    }

    /// Compile, then one verdict-store lookup through
    /// [`Driver::admit_values`] (translation validation against `model`
    /// on a strict-equiv driver, the value kernel and its simulator
    /// cross-check on the stream's first admission only), then the §V
    /// swap economics.
    fn admit(&self, id: u64, model: &QuantMlp) -> Result<Arc<AdmittedModel>, DriverError> {
        let loadable = compile(model, &vec![0u8; model.input.len]).map_err(DriverError::Compile)?;
        let (kernel, run) = self.driver.admit_values(&loadable, model)?;
        let clock = self.driver.hw.clock_mhz;
        // §V swap economics come from the stream's static timing
        // certificate (`netpu-check::timing`, DESIGN.md §4.9): the
        // certified closed form derives the full-stream/resident word
        // split from the decoded stream + `HwConfig` alone, and `xtask
        // certify-timing` pins it to the simulator.
        let (t, dma) = (kernel.timing(), &self.driver.dma);
        let transfer_us = t.transfer_us(dma, clock);
        let resident_transfer_us = t.resident_transfer_us(dma, clock);
        let weight_stream_us = t.weight_stream_us(dma, clock);
        let resident_latency_us = t.resident_latency_us(dma, clock);
        let bytes = cast::u64_from_usize(loadable.words.len()) * 8;
        Ok(Arc::new(AdmittedModel {
            id,
            run,
            kernel,
            transfer_us,
            resident_transfer_us,
            weight_stream_us,
            resident_latency_us,
            bytes,
        }))
    }
}

fn lock(m: &Mutex<CacheInner>) -> std::sync::MutexGuard<'_, CacheInner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;

    #[test]
    fn lru_evicts_oldest_first_and_respects_the_budget() {
        let mut lru = LruCore::new(100);
        assert_eq!(lru.insert(1, "a", 40), Admit::Inserted { evicted: vec![] });
        assert_eq!(lru.insert(2, "b", 40), Admit::Inserted { evicted: vec![] });
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(lru.lookup(1), Some(&"a"));
        assert_eq!(lru.insert(3, "c", 40), Admit::Inserted { evicted: vec![2] });
        assert!(lru.resident_bytes() <= lru.capacity_bytes());
        assert_eq!(lru.ids(), vec![1, 3]);
        assert!(lru.contains(3) && !lru.contains(2));
        assert_eq!(lru.lookup(2), None);
    }

    #[test]
    fn lru_refuses_entries_above_the_whole_budget() {
        let mut lru = LruCore::new(10);
        lru.insert(1, "a", 8);
        assert_eq!(
            lru.insert(2, "big", 11),
            Admit::TooLarge {
                bytes: 11,
                capacity: 10
            }
        );
        // The refusal evicted nothing.
        assert_eq!(lru.ids(), vec![1]);
    }

    #[test]
    fn reinserting_an_id_releases_its_old_bytes() {
        let mut lru = LruCore::new(100);
        lru.insert(1, "a", 60);
        lru.insert(1, "a2", 30);
        assert_eq!(lru.resident_bytes(), 30);
        // Room for another 70 without evicting 1.
        assert_eq!(lru.insert(2, "b", 70), Admit::Inserted { evicted: vec![] });
    }

    #[test]
    fn admission_runs_once_and_hits_after() {
        let model = ZooModel::SfcW1A1
            .build_untrained(5, BnMode::Folded)
            .unwrap();
        let cache = CompiledModelCache::new(Driver::builder().build(), 64 << 20);
        let first = cache.get_or_admit(42, &model).unwrap();
        let second = cache.get_or_admit(42, &model).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second lookup re-admitted");
        // The kernel reproduces the admission run on its zero input.
        let zeros = vec![0u8; model.input.len];
        assert_eq!(
            first.kernel.infer(&zeros).unwrap(),
            (first.run.class, first.run.score)
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_bytes, first.bytes);
        assert!(first.weight_stream_us > 0.0);
        assert!(first.resident_latency_us < first.run.measured_latency_us);
        assert!(first.resident_transfer_us < first.transfer_us);
    }

    #[test]
    fn timing_sourced_economics_are_bit_identical_to_the_layout_figures() {
        // Regression for the switch to timing-certificate-sourced swap
        // economics: the certificate's word split and cycle count are
        // bit-identical to the layout/run-derived figures they
        // replaced, so replay results (swaps/request, fps) cannot
        // drift.
        let model = ZooModel::TfcW1A1
            .build_untrained(9, BnMode::Folded)
            .unwrap();
        let cache = CompiledModelCache::new(Driver::builder().build(), 64 << 20);
        let m = cache.get_or_admit(1, &model).unwrap();
        let reference = Driver::builder().build();
        let decoded = netpu_compiler::decode(m.words()).unwrap();
        let t = netpu_check::timing::analyze(&decoded, &reference.hw);
        let loadable = netpu_compiler::compile(&model, &vec![0u8; model.input.len]).unwrap();
        // The certificate reproduces the stream geometry exactly …
        assert_eq!(t.stream_words, m.words().len());
        assert_eq!(
            t.resident_words,
            loadable.layout.header.len()
                + loadable.layout.settings.len()
                + loadable.layout.input.len()
        );
        // … and the admission run's cycle count to the cycle.
        assert_eq!(t.total_cycles(), m.run.cycles);
        // The stored economics are bit-for-bit the pre-switch formulas.
        let clock = reference.hw.clock_mhz;
        let transfer = reference.dma.occupancy_us(m.words().len(), clock);
        let resident_transfer = reference.dma.occupancy_us(t.resident_words, clock);
        let weight_stream = (transfer - resident_transfer).max(0.0);
        let resident_latency = (m.run.measured_latency_us - weight_stream).max(resident_transfer);
        assert_eq!(m.transfer_us.to_bits(), transfer.to_bits());
        assert_eq!(
            m.resident_transfer_us.to_bits(),
            resident_transfer.to_bits()
        );
        assert_eq!(m.weight_stream_us.to_bits(), weight_stream.to_bits());
        assert_eq!(m.resident_latency_us.to_bits(), resident_latency.to_bits());
    }

    #[test]
    fn strict_equiv_admission_certifies_the_compiled_stream() {
        // A strict-equiv fleet runs translation validation at cache
        // admission; its own honestly-compiled streams must certify
        // equivalent (no false inequivalences) and admit normally.
        let model = ZooModel::SfcW2A2
            .build_untrained(8, BnMode::Folded)
            .unwrap();
        let cache = CompiledModelCache::new(Driver::builder().strict_equiv(true).build(), 64 << 20);
        cache.get_or_admit(3, &model).unwrap();
        assert!(cache.contains(3));
        assert_eq!(cache.stats().rejected, 0);
    }

    #[test]
    fn service_cost_rewards_residency() {
        let model = ZooModel::SfcW1A1
            .build_untrained(6, BnMode::Folded)
            .unwrap();
        let cache = CompiledModelCache::new(Driver::builder().build(), 64 << 20);
        let admitted = cache.get_or_admit(1, &model).unwrap();
        let (cold_t, cold_l) = admitted.service_cost(false);
        let (hot_t, hot_l) = admitted.service_cost(true);
        assert!(hot_t < cold_t);
        assert!(hot_l < cold_l);
        assert!((cold_t - hot_t - admitted.weight_stream_us).abs() < 1e-9);
    }

    #[test]
    fn re_admission_after_eviction_is_a_compile_and_a_lookup() {
        let driver = Driver::builder().strict_equiv(true).build();
        let a = ZooModel::TfcW2A2
            .build_untrained(1, BnMode::Folded)
            .unwrap();
        let b = ZooModel::TfcW2A2
            .build_untrained(2, BnMode::Folded)
            .unwrap();
        let zeros = vec![0u8; a.input.len];
        let one_model = compile(&a, &zeros).unwrap().len() as u64 * 8;
        let cache = CompiledModelCache::new(driver.clone(), one_model * 3 / 2);
        let first = cache.get_or_admit(1, &a).unwrap();
        cache.get_or_admit(2, &b).unwrap();
        assert!(!cache.contains(1), "model 1 was not evicted");
        let again = cache.get_or_admit(1, &a).unwrap();
        assert_eq!(cache.stats().misses, 3);
        // The store analyzed, built a kernel for and cross-checked each
        // stream once; the re-admission was one lookup of the same
        // entry, its words and kernel shared rather than rebuilt.
        let store = driver.verdicts.stats();
        assert_eq!((store.misses, store.hits, store.values), (2, 1, 2));
        assert_eq!(first.words().as_ptr(), again.words().as_ptr());
        assert_eq!(first.run, again.run);
        assert_eq!(first.transfer_us.to_bits(), again.transfer_us.to_bits());
        let px = vec![130u8; a.input.len];
        assert_eq!(again.kernel.infer(&px), first.kernel.infer(&px));
    }

    #[test]
    fn a_failed_cross_check_keeps_refusing_re_admission() {
        let driver = Driver::builder().build();
        let model = ZooModel::TfcW1A1
            .build_untrained(4, BnMode::Folded)
            .unwrap();
        // The stream's entry records a failed simulator cross-check.
        let words = compile(&model, &vec![0u8; model.input.len]).unwrap().words;
        let stream = driver.verdicts.lookup(&words, &driver.hw, None);
        let failure = DriverError::CycleMismatch {
            certificate: 1,
            simulator: 2,
        };
        driver
            .verdicts
            .value(&stream, |_| (Err(failure.clone()), 0));
        let cache = CompiledModelCache::new(driver.clone(), 64 << 20);
        for _ in 0..3 {
            assert_eq!(cache.get_or_admit(1, &model).unwrap_err(), failure);
        }
        assert!(!cache.contains(1));
        assert_eq!(cache.stats().rejected, 3);
        // Refused from the record: no kernel was built again.
        assert_eq!(driver.verdicts.stats().values, 1);
    }

    #[test]
    fn concurrent_misses_coalesce_into_one_admission() {
        let model = Arc::new(
            ZooModel::SfcW1A1
                .build_untrained(7, BnMode::Folded)
                .unwrap(),
        );
        let cache = Arc::new(CompiledModelCache::new(Driver::builder().build(), 64 << 20));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let model = Arc::clone(&model);
                std::thread::spawn(move || cache.get_or_admit(9, &model).unwrap().bytes)
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "racing workers each ran admission");
        assert_eq!(stats.hits, 3);
    }
}
