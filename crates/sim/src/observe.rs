//! The simulator's one observation hook.
//!
//! An [`Observer`] is threaded through the accelerator model and
//! watches two things, each switched on when it is built:
//!
//! * component **events** `(cycle, scope, message)`, kept in a bounded
//!   ring so a runaway simulation cannot exhaust memory;
//! * datapath **samples** — per-neuron accumulators, post-BN words,
//!   activation levels and output scores as raw integers — kept
//!   unbounded, because the `netpu-check` soundness suite replays them
//!   against the abstract interpreter's intervals and must see *every*
//!   value, not the most recent window.
//!
//! A half that is off holds no buffer and costs one branch per call
//! site; event messages are only formatted when events are on.

use crate::Cycle;
use std::collections::VecDeque;
use std::fmt;

/// One component event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Clock cycle at which the event occurred.
    pub cycle: Cycle,
    /// Component scope, e.g. `"lpu"`.
    pub scope: &'static str,
    /// Human-readable event description.
    pub message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}] {:<24} {}",
            self.cycle, self.scope, self.message
        )
    }
}

/// Which datapath stage a sample was taken from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeStage {
    /// Post-bias accumulator value entering the post-MAC stages.
    Accumulator,
    /// Post-BatchNorm value as a raw fixed-point word.
    PostBn,
    /// Activation output level (input and hidden layers).
    Level,
    /// Output-layer score as a raw fixed-point word.
    Score,
}

/// One recorded datapath value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProbeSample {
    /// Hardware layer index (input = 0).
    pub layer: usize,
    /// Neuron index within the layer.
    pub neuron: usize,
    /// Stage the value was observed at.
    pub stage: ProbeStage,
    /// The observed value. Accumulators and levels are plain integers;
    /// `PostBn` / `Score` are raw fixed-point words (the hook lives
    /// below the arithmetic crate, so no `Fix` here).
    pub value: i64,
}

/// A bounded event ring plus an unbounded sample log. The default
/// observer records nothing.
#[derive(Clone, Debug, Default)]
pub struct Observer {
    /// Event ring bound; zero keeps events off.
    ring: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    sampling: bool,
    layer: usize,
    samples: Vec<ProbeSample>,
}

impl Observer {
    /// An observer keeping the most recent `events` component events
    /// (zero: none) and, when `samples` is set, every datapath value.
    pub fn new(events: usize, samples: bool) -> Observer {
        Observer {
            ring: events,
            events: VecDeque::with_capacity(events.min(4096)),
            sampling: samples,
            ..Observer::default()
        }
    }

    /// `true` when datapath samples are being recorded.
    #[inline]
    pub fn is_sampling(&self) -> bool {
        self.sampling
    }

    /// Records an event. No-op, and `message` is never evaluated, when
    /// events are off.
    #[inline]
    pub fn event(&mut self, cycle: Cycle, scope: &'static str, message: impl FnOnce() -> String) {
        if self.ring == 0 {
            return;
        }
        if self.events.len() == self.ring {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            cycle,
            scope,
            message: message(),
        });
    }

    /// Sets the hardware layer index stamped onto subsequent samples.
    #[inline]
    pub fn set_layer(&mut self, layer: usize) {
        self.layer = layer;
    }

    /// Records one datapath value. No-op when sampling is off.
    #[inline]
    pub fn sample(&mut self, neuron: usize, stage: ProbeStage, value: i64) {
        if self.sampling {
            self.samples.push(ProbeSample {
                layer: self.layer,
                neuron,
                stage,
                value,
            });
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl ExactSizeIterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Recorded samples in observation order.
    pub fn samples(&self) -> &[ProbeSample] {
        &self.samples
    }

    /// Allocated event and sample capacity: zero for an observer that
    /// records nothing, which is what the zero-overhead test pins.
    pub fn capacity(&self) -> usize {
        self.events.capacity() + self.samples.capacity()
    }

    /// Writes the retained events as text, one per line, to `w`.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        if self.dropped > 0 {
            writeln!(
                w,
                "# {} earlier events dropped by the ring bound",
                self.dropped
            )?;
        }
        for e in &self.events {
            writeln!(w, "{e}")?;
        }
        Ok(())
    }

    /// Writes the retained events to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn messages(o: &Observer) -> Vec<&str> {
        o.events().map(|e| e.message.as_str()).collect()
    }

    #[test]
    fn default_observer_records_nothing_and_never_allocates() {
        let mut o = Observer::default();
        for i in 0..1000 {
            o.event(i, "x", || panic!("must not be evaluated"));
            o.sample(0, ProbeStage::Accumulator, i as i64);
        }
        assert_eq!(o.events().len(), 0);
        assert!(o.samples().is_empty());
        assert_eq!(o.capacity(), 0);
        assert!(!o.is_sampling());
    }

    #[test]
    fn each_half_switches_on_alone() {
        let mut events = Observer::new(4, false);
        events.event(1, "s", || "e".into());
        events.sample(0, ProbeStage::Level, 1);
        assert_eq!((events.events().len(), events.samples().len()), (1, 0));

        let mut samples = Observer::new(0, true);
        samples.event(1, "s", || panic!("events are off"));
        samples.sample(0, ProbeStage::Level, 1);
        assert_eq!((samples.events().len(), samples.samples().len()), (0, 1));
    }

    #[test]
    fn event_ring_keeps_most_recent() {
        let mut o = Observer::new(3, false);
        for i in 0..5u64 {
            o.event(i, "s", || format!("e{i}"));
        }
        assert_eq!(messages(&o), vec!["e2", "e3", "e4"]);
    }

    #[test]
    fn samples_stamp_current_layer_in_order() {
        let mut o = Observer::new(0, true);
        o.sample(3, ProbeStage::Level, 7);
        o.set_layer(2);
        o.sample(0, ProbeStage::Score, -64);
        assert_eq!(
            o.samples(),
            [
                ProbeSample {
                    layer: 0,
                    neuron: 3,
                    stage: ProbeStage::Level,
                    value: 7
                },
                ProbeSample {
                    layer: 2,
                    neuron: 0,
                    stage: ProbeStage::Score,
                    value: -64
                }
            ]
        );
    }

    #[test]
    fn write_to_emits_one_line_per_event() {
        let mut o = Observer::new(2, false);
        for i in 0..3u64 {
            o.event(i, "s", || format!("e{i}"));
        }
        let mut buf = Vec::new();
        o.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // dropped-note + 2 events
        assert!(lines[0].contains("1 earlier events dropped"));
        assert!(lines[2].contains("e2"));
    }

    #[test]
    fn display_formats_cycle_and_scope() {
        let e = TraceEvent {
            cycle: 42,
            scope: "lpu0",
            message: "layer init".into(),
        };
        let s = format!("{e}");
        assert!(s.contains("42"));
        assert!(s.contains("lpu0"));
        assert!(s.contains("layer init"));
    }
}
