//! The one cycle vocabulary: a per-layer, per-phase breakdown of an
//! inference (§III.B). Both simulator engines fill a [`CycleBreakdown`]
//! edge by edge — every edge lands in exactly one cell — and the static
//! timing certificate (`netpu_check::timing`) derives the same type in
//! closed form, so the two compare cell by cell.

use std::ops::{Index, IndexMut};

/// A per-layer phase of the LPU workflow, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerPhase(usize);

impl LayerPhase {
    /// Parameter-section ingest: one word per cycle; an empty section
    /// still costs its entry edge.
    pub const PARAMS: LayerPhase = LayerPhase(0);
    /// The Ready edge that starts the layer's processing section.
    pub const READY: LayerPhase = LayerPhase(1);
    /// Input-layer quantization of the ingested pixels.
    pub const INPUT: LayerPhase = LayerPhase(2);
    /// Neuron Initialization: latching each TNPU batch's parameters.
    pub const INIT: LayerPhase = LayerPhase(3);
    /// Weight-word ingest: one word, one cycle.
    pub const WEIGHT_INGEST: LayerPhase = LayerPhase(4);
    /// Multiplier-lane dispatch subcycles beyond the ingest edge.
    pub const WEIGHT_DISPATCH: LayerPhase = LayerPhase(5);
    /// Edges spent waiting on the stream (zero at full bandwidth).
    pub const STALL: LayerPhase = LayerPhase(6);
    /// Pipeline drain between a batch's last weight word and write-out.
    pub const DRAIN: LayerPhase = LayerPhase(7);
    /// Write-out / MaxOut (plus SoftMax when enabled).
    pub const WRITE_OUT: LayerPhase = LayerPhase(8);

    const NAMES: [&'static str; 9] = [
        "params",
        "ready",
        "input",
        "init",
        "weight-ingest",
        "weight-dispatch",
        "stall",
        "drain",
        "write-out",
    ];

    /// Every layer phase, in pipeline order.
    pub fn all() -> impl Iterator<Item = LayerPhase> {
        (0..LayerPhase::NAMES.len()).map(LayerPhase)
    }

    /// Stable lowercase phase name for messages and reports.
    pub fn name(self) -> &'static str {
        LayerPhase::NAMES[self.0]
    }
}

/// A stream-level phase: top-level FSM work that belongs to no layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamPhase(usize);

impl StreamPhase {
    /// Header-word ingest.
    pub const HEADER: StreamPhase = StreamPhase(0);
    /// Layer-setting ingest (one word per layer).
    pub const SETTINGS: StreamPhase = StreamPhase(1);
    /// Dataset-input ingest (eight pixel lanes per word).
    pub const INPUT_INGEST: StreamPhase = StreamPhase(2);
    /// LPU resets between sections and between a burst's inferences.
    pub const RESET: StreamPhase = StreamPhase(3);

    const NAMES: [&'static str; 4] = ["header", "settings", "input-ingest", "reset"];

    /// Every stream-level phase, in stream order.
    pub fn all() -> impl Iterator<Item = StreamPhase> {
        (0..StreamPhase::NAMES.len()).map(StreamPhase)
    }

    /// Stable lowercase phase name for messages and reports.
    pub fn name(self) -> &'static str {
        StreamPhase::NAMES[self.0]
    }
}

/// One layer's cycles, one cell per [`LayerPhase`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerCycles([u64; LayerPhase::NAMES.len()]);

impl LayerCycles {
    /// All cycles attributed to this layer.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

impl Index<LayerPhase> for LayerCycles {
    type Output = u64;
    fn index(&self, phase: LayerPhase) -> &u64 {
        &self.0[phase.0]
    }
}

impl IndexMut<LayerPhase> for LayerCycles {
    fn index_mut(&mut self, phase: LayerPhase) -> &mut u64 {
        &mut self.0[phase.0]
    }
}

/// A whole stream's cycles: the stream-level cells plus one
/// [`LayerCycles`] per processed layer, in completion order (a
/// pre-packaged burst lists every inference's layers in turn).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    stream: [u64; StreamPhase::NAMES.len()],
    /// Per-layer cells, in layer order.
    pub layers: Vec<LayerCycles>,
}

impl CycleBreakdown {
    /// Every cycle of the stream.
    pub fn total(&self) -> u64 {
        self.cells().map(|(_, _, cycles)| cycles).sum()
    }

    /// Every cell as `(layer, phase name, cycles)`: the stream-level
    /// phases first (layer `None`), then each layer's phases in order.
    pub fn cells(&self) -> impl Iterator<Item = (Option<usize>, &'static str, u64)> + '_ {
        let stream = StreamPhase::all().map(|p| (None, p.name(), self[p]));
        let layers =
            self.layers.iter().enumerate().flat_map(|(k, cells)| {
                LayerPhase::all().map(move |p| (Some(k), p.name(), cells[p]))
            });
        stream.chain(layers)
    }

    /// `phase`'s cycles summed over every layer.
    pub fn layer_phase_total(&self, phase: LayerPhase) -> u64 {
        self.layers.iter().map(|l| l[phase]).sum()
    }
}

impl Index<StreamPhase> for CycleBreakdown {
    type Output = u64;
    fn index(&self, phase: StreamPhase) -> &u64 {
        &self.stream[phase.0]
    }
}

impl IndexMut<StreamPhase> for CycleBreakdown {
    fn index_mut(&mut self, phase: StreamPhase) -> &mut u64 {
        &mut self.stream[phase.0]
    }
}
