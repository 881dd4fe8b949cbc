//! The closed-loop load generator: one thread keeps a fixed window of
//! requests outstanding and submits the next one only when the oldest
//! has been answered, so offered load follows the program's capacity.

use crate::common::{metric, peak_rss_mb, Metric};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What `submit` returned: a ticket to wait on, or an answer given at
/// submission (a denial), already judged against the oracle.
pub enum Issued<T> {
    Pending(T),
    Answered { correct: bool },
}

/// One stack under load, as the client sees it.
pub trait Client {
    type Req;
    type Ticket;
    type Resp;
    /// Names of the public calls, for spans.
    const SUBMIT: &'static str;
    const WAIT: &'static str;
    /// Client-side work before submission (input splice, bookkeeping).
    fn prepare(&mut self) -> Self::Req;
    fn submit(&mut self, req: Self::Req) -> Issued<Self::Ticket>;
    fn wait(&mut self, ticket: Self::Ticket) -> Self::Resp;
    /// Judges a response against the oracle: false for an unexpected
    /// outcome.
    fn verify(&mut self, resp: Self::Resp) -> bool;
}

#[derive(Debug, Default)]
pub struct LoopStats {
    pub attempted: u64,
    pub failed: u64,
    /// Inferences served (answered through `wait`) without error.
    pub completed: u64,
    /// Submit-to-wait-return time of each served request, ms: wall time,
    /// or after `scale` wall time at the reference speed.
    pub latencies: Vec<f64>,
    /// Length of the phase, like `latencies`.
    pub elapsed_s: f64,
    /// Length of the phase in wall time.
    pub wall_s: f64,
    /// Wall time the client spent inside `submit` and `wait` calls.
    pub in_program_ns: u64,
}

impl LoopStats {
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed_s
    }

    /// Adds another slice's counts and samples to these.
    pub fn absorb(&mut self, other: LoopStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed += other.completed;
        self.latencies.extend(other.latencies);
        self.elapsed_s += other.elapsed_s;
        self.wall_s += other.wall_s;
        self.in_program_ns += other.in_program_ns;
    }

    /// Scales this slice's times by a `calib::speed` factor.
    fn scale(&mut self, speed: f64) {
        for l in &mut self.latencies {
            *l *= speed;
        }
        self.elapsed_s *= speed;
    }
}

/// Runs the closed loop for `run_for`, then drains the window. With
/// `spans`, every `submit` and `wait` call is recorded as a span.
pub fn closed_loop<C: Client>(
    client: &mut C,
    window: usize,
    run_for: Duration,
    mut spans: Option<&mut Spans>,
    first_request: u64,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let mut inflight: VecDeque<(C::Ticket, Instant, u64)> = VecDeque::with_capacity(window);
    let start = Instant::now();
    let deadline = start + run_for;
    let mut next_id = first_request;
    loop {
        let open = Instant::now() < deadline;
        while open && inflight.len() < window {
            let req = client.prepare();
            let id = next_id;
            next_id += 1;
            stats.attempted += 1;
            let t0 = Instant::now();
            let issued = match spans.as_deref_mut() {
                Some(s) => s.time(C::SUBMIT, id, None, || client.submit(req)).0,
                None => client.submit(req),
            };
            let t1 = Instant::now();
            stats.in_program_ns += (t1 - t0).as_nanos() as u64;
            match issued {
                Issued::Pending(ticket) => inflight.push_back((ticket, t0, id)),
                Issued::Answered { correct } => {
                    if !correct {
                        stats.failed += 1;
                    }
                }
            }
        }
        let Some((ticket, t0, id)) = inflight.pop_front() else {
            break;
        };
        let w0 = Instant::now();
        let resp = match spans.as_deref_mut() {
            Some(s) => s.time(C::WAIT, id, None, || client.wait(ticket)).0,
            None => client.wait(ticket),
        };
        let t1 = Instant::now();
        stats.in_program_ns += (t1 - w0).as_nanos() as u64;
        if client.verify(resp) {
            stats.completed += 1;
            stats.latencies.push((t1 - t0).as_secs_f64() * 1e3);
        } else {
            stats.failed += 1;
        }
    }
    stats.elapsed_s = start.elapsed().as_secs_f64();
    stats.wall_s = stats.elapsed_s;
    stats
}

/// Length of one slice of the timed phase.
const SLICE: Duration = Duration::from_millis(250);

/// The timed phase of an untraced run: closed-loop slices, each after a
/// calibration of the host's speed and scaled by it (see `calib`). The
/// window drains at the end of every slice, so the calibration runs on
/// an idle program.
pub fn timed_phase<C: Client>(client: &mut C, window: usize, run_for: Duration) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    while start.elapsed() < run_for {
        let speed = crate::calib::speed(crate::calib::SLICE_THREADS);
        let mut slice = closed_loop(client, window, SLICE, None, 0);
        slice.scale(speed);
        stats.absorb(slice);
    }
    stats
}

/// Alternating slices per side in a traced run.
pub const SLICES: u32 = 5;

/// The traced run's measurement: `SLICES` pairs of slices, untraced then
/// with spans around every `submit` and `wait`, so a drift in host speed
/// during the run falls on both sides alike.
pub fn traced_phases<C: Client>(
    client: &mut C,
    window: usize,
    run_for: Duration,
    spans: &mut Spans,
) -> (LoopStats, LoopStats) {
    let slice = run_for / (2 * SLICES);
    let (mut untraced, mut traced) = (LoopStats::default(), LoopStats::default());
    for _ in 0..SLICES {
        untraced.absorb(closed_loop(client, window, slice, None, 0));
        let first = (1 << 32) + traced.attempted;
        traced.absorb(closed_loop(client, window, slice, Some(spans), first));
    }
    (untraced, traced)
}

/// Metrics of the load generator and tracing themselves, the
/// virtual-time figure of the live run, and the wall-clock p99 of the
/// untraced slices `a`.
pub fn loop_metrics(a: &LoopStats, b: &LoopStats, modeled_us: f64) -> Vec<Metric> {
    let client_us = (b.elapsed_s * 1e9 - b.in_program_ns as f64) / 1e3 / b.attempted.max(1) as f64;
    let overhead = 100.0 * (a.throughput() - b.throughput()) / a.throughput();
    vec![
        metric(
            "core.modeled_us_per_inference",
            modeled_us,
            "virtual_us",
            (a.completed + b.completed) as usize,
        ),
        metric(
            "loadgen.client_us_per_request",
            client_us,
            "us",
            b.attempted as usize,
        ),
        metric("trace.overhead_pct", overhead, "%", 2 * SLICES as usize),
        metric(
            "traced.latency_p99_ms",
            percentile(&a.latencies, 0.99),
            "ms",
            a.latencies.len(),
        ),
    ]
}

/// The timed phase's wall-clock throughput and the host's mean speed,
/// for the report.
pub fn wall_clock_line(s: &LoopStats) -> String {
    format!(
        "wall clock: {:.1} served/s; host at {:.3} of the reference speed",
        s.completed as f64 / s.wall_s,
        s.elapsed_s / s.wall_s
    )
}

/// The end-to-end metrics, each over the whole timed phase at the
/// reference speed: served inferences per second, and nearest-rank
/// percentiles of every sample. The tail is the p90: the p99 follows
/// stalls of the shared host that calibration cannot see, and is a
/// per-layer figure (`traced.latency_p99_ms`) instead.
pub fn end_to_end(s: &LoopStats, setups: &[f64]) -> Vec<Metric> {
    let n = s.completed as usize;
    vec![
        metric("throughput_per_s", s.throughput(), "1/s", n),
        metric(
            "latency_p50_ms",
            percentile(&s.latencies, 0.50),
            "ms",
            n,
        ),
        metric(
            "latency_p90_ms",
            percentile(&s.latencies, 0.90),
            "ms",
            n,
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
        metric("setup_s", median(setups), "s", setups.len()),
    ]
}
