//! The verdict store: admission paid once per distinct stream.
//!
//! NetPU-M reconfigures by loading a new data stream (§III.B), and a
//! serving host sees the same few streams again and again, each time
//! with a new input spliced in. The verifier's findings do not depend
//! on that input, so a [`VerdictStore`] keeps the [`Analysis`] of every
//! stream it has seen and answers a repeat with a lookup.
//!
//! **Key.** The stream words with the input section masked, the
//! [`HwConfig`], and — when the equivalence tier runs — a 128-bit
//! digest of the claimed source model. The masked span is
//! `[1+n, 1+n+input_words(settings[0].neurons))`, read from the
//! stream's own header and first setting word, never from the
//! client-supplied `Loadable::layout`. A hit compares every word
//! outside the span exactly, so a stream never receives another
//! stream's findings; only the source digest is probabilistic.
//!
//! **Streams that always get a fresh [`analyze`].** Those whose header
//! or first setting word does not decode, whose input section runs past
//! the end of the stream, and those that declare a non-empty input
//! range some pixel falls outside: NPC020 reads the payload.
//!
//! **Value.** The findings and the timing certificate, never a decoded
//! model or kernel. The verdict itself is not stored: callers apply
//! their strict/lenient policy to the stored findings on every lookup
//! ([`Analysis::verdict`]), so drivers with different policies can
//! share one store.
//!
//! **Budget.** Entries are charged their masked words, findings and
//! certificate. Past the budget the least recently used quarter is
//! dropped. An empty store allocates nothing.

use crate::{analyze, Analysis, Tiers};
use netpu_arith::cast;
use netpu_arith::quant::LANES_PER_WORD;
use netpu_compiler::stream::{input_words, MAGIC, VERSION};
use netpu_compiler::{declared_input_range, LayerSetting};
use netpu_core::HwConfig;
use netpu_nn::QuantMlp;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Budget of a [`VerdictStore`], bytes.
const BUDGET_BYTES: usize = 64 << 20;

/// Bookkeeping charged per entry on top of its words and findings.
const ENTRY_OVERHEAD_BYTES: usize = 256;

/// One stored analysis and the key it answers for.
struct Entry {
    /// The stream, its input section zeroed.
    masked: Box<[u64]>,
    cfg: HwConfig,
    source: Option<u128>,
    analysis: Arc<Analysis>,
    bytes: usize,
    last_used: AtomicU64,
}

impl Entry {
    /// The span starts past the header and the first setting word, so
    /// equal prefixes mean equal spans.
    fn answers(&self, key: &Key<'_>) -> bool {
        self.source == key.source
            && self.cfg == *key.cfg
            && self.masked.len() == key.words.len()
            && self.masked[..key.span.start] == key.words[..key.span.start]
            && self.masked[key.span.end..] == key.words[key.span.end..]
    }
}

/// A lookup's key, borrowed from the caller.
struct Key<'a> {
    words: &'a [u64],
    span: Range<usize>,
    cfg: &'a HwConfig,
    source: Option<u128>,
}

#[derive(Default)]
struct Inner {
    buckets: HashMap<u64, Vec<Arc<Entry>>>,
    bytes: usize,
}

/// Point-in-time [`VerdictStore`] statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from a stored analysis.
    pub hits: u64,
    /// Lookups that ran a fresh [`analyze`], stored or not.
    pub misses: u64,
    /// Stored analyses.
    pub entries: usize,
    /// Bytes charged against the budget.
    pub bytes: usize,
}

/// A content-addressed, thread-safe store of stream analyses (see the
/// module docs for the key, the exclusions and the budget).
pub struct VerdictStore {
    budget_bytes: usize,
    inner: Mutex<Inner>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for VerdictStore {
    fn default() -> VerdictStore {
        VerdictStore::with_budget(BUDGET_BYTES)
    }
}

impl std::fmt::Debug for VerdictStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerdictStore")
            .field("budget_bytes", &self.budget_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl VerdictStore {
    /// An empty store holding at most about `budget_bytes`.
    fn with_budget(budget_bytes: usize) -> VerdictStore {
        VerdictStore {
            budget_bytes,
            inner: Mutex::new(Inner::default()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// [`analyze`] with the structural and range tiers, plus
    /// translation validation against `source` when one is given,
    /// answered from the store when an equal stream (up to its input
    /// section) was analyzed on an equal `cfg` against the same source.
    /// The returned analysis never carries the range bounds.
    pub fn analyze(
        &self,
        words: &[u64],
        cfg: &HwConfig,
        source: Option<&QuantMlp>,
    ) -> Arc<Analysis> {
        let tiers = Tiers { source };
        let Some(span) = payload_span(words) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(Analysis {
                range: None,
                ..analyze(words, cfg, tiers)
            });
        };
        let key = Key {
            words,
            span,
            cfg,
            source: source.map(model_digest),
        };
        let hash = words_hash(words, &key.span);
        let candidates = lock(&self.inner)
            .buckets
            .get(&hash)
            .cloned()
            .unwrap_or_default();
        if let Some(entry) = candidates.iter().find(|e| e.answers(&key)) {
            entry.last_used.store(self.tick(), Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&entry.analysis);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let analysis = Arc::new(Analysis {
            range: None,
            ..analyze(words, cfg, tiers)
        });
        self.insert(hash, key, &analysis);
        analysis
    }

    /// Current statistics.
    pub fn stats(&self) -> StoreStats {
        let inner = lock(&self.inner);
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: inner.buckets.values().map(Vec::len).sum(),
            bytes: inner.bytes,
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn insert(&self, hash: u64, key: Key<'_>, analysis: &Arc<Analysis>) {
        let bytes = footprint(key.words.len(), analysis);
        if bytes > self.budget_bytes {
            return;
        }
        let mut masked: Box<[u64]> = key.words.into();
        masked[key.span.clone()].fill(0);
        let entry = Arc::new(Entry {
            masked,
            cfg: *key.cfg,
            source: key.source,
            analysis: Arc::clone(analysis),
            bytes,
            last_used: AtomicU64::new(self.tick()),
        });
        let mut inner = lock(&self.inner);
        // A racing miss on the same stream may have stored it already.
        if inner
            .buckets
            .get(&hash)
            .is_some_and(|bucket| bucket.iter().any(|e| e.answers(&key)))
        {
            return;
        }
        if inner.bytes + bytes > self.budget_bytes {
            evict_oldest(&mut inner, self.budget_bytes / 4 * 3);
        }
        inner.bytes += bytes;
        inner.buckets.entry(hash).or_default().push(entry);
    }
}

/// Drops least recently used entries until at most `target` bytes
/// remain.
fn evict_oldest(inner: &mut Inner, target: usize) {
    let mut by_age: Vec<(u64, u64, Arc<Entry>)> = inner
        .buckets
        .iter()
        .flat_map(|(&hash, bucket)| {
            bucket
                .iter()
                .map(move |e| (e.last_used.load(Ordering::Relaxed), hash, Arc::clone(e)))
        })
        .collect();
    by_age.sort_unstable_by_key(|&(last_used, hash, _)| (last_used, hash));
    for (_, hash, victim) in by_age {
        if inner.bytes <= target {
            break;
        }
        if let Some(bucket) = inner.buckets.get_mut(&hash) {
            bucket.retain(|e| !Arc::ptr_eq(e, &victim));
            if bucket.is_empty() {
                inner.buckets.remove(&hash);
            }
            inner.bytes -= victim.bytes;
        }
    }
}

fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bytes an entry is charged: its masked words, findings, certificate
/// and fixed bookkeeping.
fn footprint(words: usize, analysis: &Analysis) -> usize {
    let findings: usize = analysis
        .report
        .diagnostics
        .iter()
        .map(|d| std::mem::size_of_val(d) + d.message.len())
        .sum();
    let timing = analysis.timing.as_ref().map_or(0, |t| {
        std::mem::size_of_val(t)
            + std::mem::size_of_val(t.breakdown.layers.as_slice())
            + std::mem::size_of_val(t.settings.as_slice())
    });
    words * 8 + findings + timing + ENTRY_OVERHEAD_BYTES
}

/// The word span of the stream's input section that a [`VerdictStore`]
/// masks, read from the stream's own header and first setting word, or
/// `None` when the store never keeps the stream: the header or first
/// setting word does not decode, the section runs past the end of the
/// stream, or the header declares a non-empty input range that some
/// pixel falls outside (NPC020 then depends on the pixels).
pub fn payload_span(words: &[u64]) -> Option<Range<usize>> {
    let &header = words.first()?;
    if cast::lo16(header) != MAGIC || cast::lo8(header >> 16) != VERSION {
        return None;
    }
    let layers = cast::usize_sat((header >> 24) & 0xFFFF);
    if layers == 0 {
        return None;
    }
    let first = LayerSetting::decode(*words.get(1)?).ok()?;
    let pixels = cast::usize_from_u32(first.neurons);
    let span = 1 + layers..1 + layers + input_words(pixels);
    let input = words.get(span.clone())?;
    if let Some((lo, hi)) = declared_input_range(header) {
        let narrow = lo <= hi && (lo > 0 || hi < u8::MAX);
        let uncovered = |i: usize| {
            let p = cast::lo8(input[i / LANES_PER_WORD] >> (8 * (i % LANES_PER_WORD)));
            p < lo || p > hi
        };
        if narrow && (0..pixels).any(uncovered) {
            return None;
        }
    }
    Some(span)
}

const K0: u64 = 0x9E37_79B9_7F4A_7C15;
const K1: u64 = 0xC2B2_AE3D_27D4_EB4F;

fn mix(lane: u64, word: u64, k: u64) -> u64 {
    (lane ^ word).wrapping_mul(k).rotate_left(29)
}

/// splitmix64's finalizer.
fn avalanche(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Bucket hash of the words outside `span`. Four independent lanes keep
/// the multiplier pipeline busy; collisions only cost a compare.
fn words_hash(words: &[u64], span: &Range<usize>) -> u64 {
    let mut lanes = [K0, K1, K0 ^ K1, K0.rotate_left(17)];
    for part in [&words[..span.start], &words[span.end..]] {
        let mut quads = part.chunks_exact(4);
        for quad in &mut quads {
            for (lane, &w) in lanes.iter_mut().zip(quad) {
                *lane = mix(*lane, w, K0);
            }
        }
        for (lane, &w) in lanes.iter_mut().zip(quads.remainder()) {
            *lane = mix(*lane, w, K1);
        }
    }
    let folded = lanes
        .iter()
        .fold(cast::u64_from_usize(words.len()), |acc, &l| mix(acc, l, K1));
    avalanche(folded)
}

/// A 128-bit digest of the source model's every field (its derived
/// `Hash`). Not collision resistant against a chosen model.
fn model_digest(model: &QuantMlp) -> u128 {
    let mut d = Digest128::default();
    model.hash(&mut d);
    d.finish128()
}

/// Two independently keyed 64-bit lanes over the hashed bytes, each
/// split four ways so long writes (weight vectors) keep the multiplier
/// busy.
#[derive(Default)]
struct Digest128 {
    a: [u64; 4],
    b: [u64; 4],
    bytes: u64,
}

/// One digest step: for a fixed word, a bijection of the lane with no
/// fixed point at zero.
fn step(lane: u64, w: u64, k: u64) -> u64 {
    (lane ^ w).wrapping_mul(k).rotate_left(29).wrapping_add(k)
}

fn le_word(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

impl Digest128 {
    fn word(&mut self, lane: usize, w: u64) {
        self.a[lane] = step(self.a[lane], w, K0);
        self.b[lane] = step(self.b[lane], w.rotate_left(32), K1);
    }

    fn finish128(&self) -> u128 {
        let a = self.finish();
        let b = self.b.iter().fold(a ^ K1, |acc, &l| avalanche(acc ^ l));
        (u128::from(a) << 64) | u128::from(b)
    }
}

impl Hasher for Digest128 {
    fn write(&mut self, bytes: &[u8]) {
        self.bytes = self.bytes.wrapping_add(cast::u64_from_usize(bytes.len()));
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            for (lane, w) in block.chunks_exact(8).enumerate() {
                self.word(lane, le_word(w));
            }
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for w in &mut words {
            self.word(0, le_word(w));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // The length in the free top byte tells `[0]` from `[0, 0]`.
            self.word(0, le_word(rest) ^ cast::u64_from_usize(rest.len()) << 56);
        }
    }

    fn finish(&self) -> u64 {
        self.a.iter().fold(self.bytes, |acc, &l| avalanche(acc ^ l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_nn::zoo::random_model;

    #[test]
    fn the_budget_bounds_the_store_and_an_empty_store_holds_nothing() {
        let budget = 16 << 10;
        let store = VerdictStore::with_budget(budget);
        assert_eq!(store.stats().bytes, 0);
        assert_eq!(lock(&store.inner).buckets.capacity(), 0);
        let cfg = HwConfig::paper_instance();
        for seed in 0..64 {
            let source = random_model(seed);
            let loadable = netpu_compiler::compile(&source, &vec![1u8; source.input.len]).unwrap();
            store.analyze(&loadable.words, &cfg, None);
            assert!(store.stats().bytes <= budget);
        }
        let stats = store.stats();
        assert!(stats.entries < 64, "nothing was evicted: {stats:?}");
        assert_eq!(stats.misses, 64);
    }
}
