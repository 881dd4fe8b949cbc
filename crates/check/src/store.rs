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
//! **Value.** The findings, the timing certificate and the stream's
//! [`StreamView`], the one decode the analysis ran, over the entry's
//! masked words. The verdict itself is not stored: callers apply their
//! strict/lenient policy to the stored findings on every lookup
//! ([`Analysis::verdict`]), so drivers with different policies can
//! share one store. Each entry also has a value slot of the store's
//! type `V`, filled at most once by the first caller that asks for the
//! stream's values ([`VerdictStore::value`]); `netpu-runtime` keeps
//! there the outcome of the one simulator cross-check of the view's
//! value kernel.
//!
//! **Budget.** Entries are charged their masked words, findings,
//! certificate and view and, once filled, what their value slot
//! reports. Past the budget the least recently used quarter is dropped.
//! An empty store allocates nothing.

#[cfg(doc)]
use crate::analyze;
use crate::{analyze_over, Analysis, Tiers};
use netpu_arith::cast;
use netpu_arith::quant::LANES_PER_WORD;
use netpu_compiler::{input_section, Header, StreamView};
use netpu_core::HwConfig;
use netpu_nn::QuantMlp;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Budget of a [`VerdictStore`], bytes.
const BUDGET_BYTES: usize = 64 << 20;

/// Bookkeeping charged per entry on top of its words and findings.
const ENTRY_OVERHEAD_BYTES: usize = 256;

/// One stream a [`VerdictStore`] answered for: its analysis, its words,
/// its view and its value slot. Kept in the store, or, for a stream the
/// store does not keep, held only by the caller.
pub struct StoredStream<V = ()> {
    /// The stream; its input section zeroed when the store can key it.
    words: Arc<[u64]>,
    cfg: HwConfig,
    source: Option<u128>,
    analysis: Arc<Analysis>,
    /// The one decode of `words`, when the stream decodes.
    view: Option<Arc<StreamView>>,
    /// The bucket a kept entry is filed under.
    hash: Option<u64>,
    bytes: AtomicUsize,
    last_used: AtomicU64,
    value: OnceLock<V>,
}

impl<V> StoredStream<V> {
    /// The stream's analysis.
    pub fn analysis(&self) -> &Arc<Analysis> {
        &self.analysis
    }

    /// The stream's words. An entry the store can key holds them with
    /// the input section zeroed; others as the caller gave them.
    pub fn words(&self) -> &Arc<[u64]> {
        &self.words
    }

    /// The stream's view over [`words`](Self::words), built by the
    /// entry's one decode: `None` exactly when the analysis carries no
    /// timing certificate (the stream is structurally unsound or does
    /// not decode).
    pub fn view(&self) -> Option<&Arc<StreamView>> {
        self.view.as_ref()
    }

    /// The instance the stream was analyzed for.
    pub fn cfg(&self) -> &HwConfig {
        &self.cfg
    }

    /// The span starts past the header and the first setting word, so
    /// equal prefixes mean equal spans.
    fn answers(&self, key: &Key<'_>) -> bool {
        self.source == key.source
            && self.cfg == *key.cfg
            && self.words.len() == key.words.len()
            && self.words[..key.span.start] == key.words[..key.span.start]
            && self.words[key.span.end..] == key.words[key.span.end..]
    }
}

/// A lookup's key, borrowed from the caller.
struct Key<'a> {
    words: &'a [u64],
    span: Range<usize>,
    cfg: &'a HwConfig,
    source: Option<u128>,
}

struct Inner<V> {
    buckets: HashMap<u64, Vec<Arc<StoredStream<V>>>>,
    bytes: usize,
}

/// Point-in-time [`VerdictStore`] statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from a stored analysis.
    pub hits: u64,
    /// Lookups that ran a fresh [`analyze`], stored or not.
    pub misses: u64,
    /// Value slots filled ([`VerdictStore::value`]): one per stream
    /// whose values were asked for while the store held it.
    pub values: u64,
    /// Stored analyses.
    pub entries: usize,
    /// Bytes charged against the budget.
    pub bytes: usize,
}

/// A content-addressed, thread-safe store of stream analyses, each
/// with a value slot of type `V` (see the module docs for the key, the
/// exclusions and the budget).
pub struct VerdictStore<V = ()> {
    budget_bytes: usize,
    inner: Mutex<Inner<V>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    values: AtomicU64,
}

impl Default for VerdictStore {
    fn default() -> VerdictStore {
        VerdictStore::new()
    }
}

impl<V> std::fmt::Debug for VerdictStore<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerdictStore")
            .field("budget_bytes", &self.budget_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<V> VerdictStore<V> {
    /// An empty store with the default budget.
    #[allow(clippy::new_without_default)] // `Default` is `VerdictStore<()>`'s
    pub fn new() -> VerdictStore<V> {
        VerdictStore::with_budget(BUDGET_BYTES)
    }

    /// An empty store holding at most about `budget_bytes`.
    fn with_budget(budget_bytes: usize) -> VerdictStore<V> {
        VerdictStore {
            budget_bytes,
            inner: Mutex::new(Inner {
                buckets: HashMap::new(),
                bytes: 0,
            }),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            values: AtomicU64::new(0),
        }
    }

    /// The entry for `words`: [`analyze`] with the structural and range
    /// tiers, plus translation validation against `source` when one is
    /// given, answered from the store when an equal stream (up to its
    /// input section) was analyzed on an equal `cfg` against the same
    /// source. The entry holds the analysis (never with the range
    /// bounds), the stored words, the view and the value slot. A stream
    /// the store does not keep comes back in an entry of its own.
    pub fn lookup(
        &self,
        words: &[u64],
        cfg: &HwConfig,
        source: Option<&QuantMlp>,
    ) -> Arc<StoredStream<V>> {
        let digest = source.map(model_digest);
        let Some(span) = payload_span(words) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(fresh(words.into(), words, cfg, source, digest));
        };
        let key = Key {
            words,
            span,
            cfg,
            source: digest,
        };
        let hash = words_hash(words, &key.span);
        let candidates = lock(&self.inner)
            .buckets
            .get(&hash)
            .cloned()
            .unwrap_or_default();
        if let Some(entry) = candidates.into_iter().find(|e| e.answers(&key)) {
            entry.last_used.store(self.tick(), Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return entry;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let masked: Arc<[u64]> = words
            .iter()
            .enumerate()
            .map(|(i, &w)| if key.span.contains(&i) { 0 } else { w })
            .collect();
        self.insert(hash, &key, fresh(masked, words, cfg, source, digest))
    }

    /// `stream`'s value: made by `build` on the first call for the
    /// stream (concurrent callers wait for it), then kept in its entry.
    /// `build` also reports the value's heap bytes, which a kept entry
    /// is charged from then on.
    pub fn value<'s>(
        &self,
        stream: &'s StoredStream<V>,
        build: impl FnOnce(&StoredStream<V>) -> (V, usize),
    ) -> &'s V {
        stream.value.get_or_init(|| {
            let (value, bytes) = build(stream);
            self.values.fetch_add(1, Ordering::Relaxed);
            self.charge(stream, bytes);
            value
        })
    }

    /// Current statistics.
    pub fn stats(&self) -> StoreStats {
        let inner = lock(&self.inner);
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            values: self.values.load(Ordering::Relaxed),
            entries: inner.buckets.values().map(Vec::len).sum(),
            bytes: inner.bytes,
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Keeps `entry` under `key`, or returns the entry a racing miss on
    /// the same stream kept first; returns `entry` unkept when it alone
    /// exceeds the budget.
    fn insert(&self, hash: u64, key: &Key<'_>, entry: StoredStream<V>) -> Arc<StoredStream<V>> {
        let bytes = footprint(&entry);
        if bytes > self.budget_bytes {
            return Arc::new(entry);
        }
        let entry = Arc::new(StoredStream {
            hash: Some(hash),
            bytes: AtomicUsize::new(bytes),
            last_used: AtomicU64::new(self.tick()),
            ..entry
        });
        let mut inner = lock(&self.inner);
        if let Some(first) = inner
            .buckets
            .get(&hash)
            .and_then(|bucket| bucket.iter().find(|e| e.answers(key)))
        {
            return Arc::clone(first);
        }
        if inner.bytes + bytes > self.budget_bytes {
            // Room for the new entry too, however large its share.
            let target = (self.budget_bytes / 4 * 3).min(self.budget_bytes - bytes);
            evict_oldest(&mut inner, target);
        }
        inner.bytes += bytes;
        inner
            .buckets
            .entry(hash)
            .or_default()
            .push(Arc::clone(&entry));
        entry
    }

    /// Charges a filled value slot to `stream`'s entry while the store
    /// keeps it.
    fn charge(&self, stream: &StoredStream<V>, bytes: usize) {
        let Some(hash) = stream.hash else { return };
        let mut inner = lock(&self.inner);
        let kept = inner
            .buckets
            .get(&hash)
            .is_some_and(|bucket| bucket.iter().any(|e| std::ptr::eq(&**e, stream)));
        if !kept {
            return;
        }
        stream.bytes.fetch_add(bytes, Ordering::Relaxed);
        inner.bytes += bytes;
        if inner.bytes > self.budget_bytes {
            evict_oldest(&mut inner, self.budget_bytes / 4 * 3);
        }
    }
}

/// Drops least recently used entries until at most `target` bytes
/// remain.
fn evict_oldest<V>(inner: &mut Inner<V>, target: usize) {
    let mut by_age: Vec<(u64, u64, Arc<StoredStream<V>>)> = inner
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
            inner.bytes -= victim.bytes.load(Ordering::Relaxed);
        }
    }
}

fn lock<V>(m: &Mutex<Inner<V>>) -> MutexGuard<'_, Inner<V>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fresh analysis of `words` in an entry filed nowhere yet, holding
/// `stored` (`words`, or a copy with the input section masked) and the
/// view over it. The analysis never carries the range bounds.
fn fresh<V>(
    stored: Arc<[u64]>,
    words: &[u64],
    cfg: &HwConfig,
    source: Option<&QuantMlp>,
    digest: Option<u128>,
) -> StoredStream<V> {
    let (analysis, view) = analyze_over(words, || Arc::clone(&stored), cfg, Tiers { source });
    StoredStream {
        words: stored,
        cfg: *cfg,
        source: digest,
        analysis: Arc::new(Analysis {
            range: None,
            ..analysis
        }),
        view: view.map(Arc::new),
        hash: None,
        bytes: AtomicUsize::new(0),
        last_used: AtomicU64::new(0),
        value: OnceLock::new(),
    }
}

/// Bytes an entry is charged: its masked words, findings, certificate,
/// view and fixed bookkeeping.
fn footprint<V>(entry: &StoredStream<V>) -> usize {
    let analysis = &entry.analysis;
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
    let view = entry
        .view
        .as_ref()
        .map_or(0, |v| std::mem::size_of::<StreamView>() + v.heap_bytes());
    std::mem::size_of_val(&*entry.words) + findings + timing + view + ENTRY_OVERHEAD_BYTES
}

/// The word span of the stream's input section that a [`VerdictStore`]
/// masks, read from the stream's own header and first setting word, or
/// `None` when the store never keeps the stream: the header or first
/// setting word does not decode, the section runs past the end of the
/// stream, or the header declares a non-empty input range that some
/// pixel falls outside (NPC020 then depends on the pixels).
pub fn payload_span(words: &[u64]) -> Option<Range<usize>> {
    let span = input_section(words).ok()?;
    let input = &words[span.clone()];
    if let Some((lo, hi)) = Header::decode(words[0]).input_range {
        let pixels = input_pixels(words)?;
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

/// The first layer's pixel count.
fn input_pixels(words: &[u64]) -> Option<usize> {
    let first = netpu_compiler::LayerSetting::decode(*words.get(1)?).ok()?;
    Some(cast::usize_from_u32(first.neurons))
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
        let store = VerdictStore::<()>::with_budget(budget);
        assert_eq!(store.stats().bytes, 0);
        assert_eq!(lock(&store.inner).buckets.capacity(), 0);
        let cfg = HwConfig::paper_instance();
        for seed in 0..64 {
            let source = random_model(seed);
            let loadable = netpu_compiler::compile(&source, &vec![1u8; source.input.len]).unwrap();
            store.lookup(&loadable.words, &cfg, None);
            assert!(store.stats().bytes <= budget);
        }
        let stats = store.stats();
        assert!(stats.entries < 64, "nothing was evicted: {stats:?}");
        assert_eq!(stats.misses, 64);
    }

    #[test]
    fn a_value_slot_fills_once_and_is_charged_to_its_entry() {
        let store = VerdictStore::<u64>::new();
        let cfg = HwConfig::paper_instance();
        let source = random_model(3);
        let loadable = netpu_compiler::compile(&source, &vec![9u8; source.input.len]).unwrap();
        let stream = store.lookup(&loadable.words, &cfg, None);
        // The kept entry holds the words with the input section zeroed.
        let span = payload_span(&loadable.words).unwrap();
        assert!(stream.words()[span.clone()].iter().all(|&w| w == 0));
        assert_eq!(stream.words()[span.end..], loadable.words[span.end..]);
        let before = store.stats().bytes;
        assert_eq!(*store.value(&stream, |_| (7, 100)), 7);
        // A second lookup finds the same entry; its slot is not rebuilt.
        let again = store.lookup(&loadable.words, &cfg, None);
        assert_eq!(*store.value(&again, |_| unreachable!("built twice")), 7);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.values), (1, 1, 1));
        assert_eq!(stats.bytes, before + 100);
        // A stream the store does not keep gets a slot of its own,
        // charged to nothing.
        let mut bad = loadable.words.clone();
        bad[0] ^= 1;
        let transient = store.lookup(&bad, &cfg, None);
        assert_eq!(transient.words()[..], bad[..]);
        store.value(&transient, |_| (1, 1 << 40));
        assert_eq!(store.stats().bytes, before + 100);
    }
}
