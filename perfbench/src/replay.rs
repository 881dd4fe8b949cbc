//! The traced run's per-layer measurements.
//!
//! After the timed phase, a seeded sample of the workload's requests is
//! replayed stage by stage: each layer's public function is called on
//! the request's exact input, in the order the program composes them,
//! once to warm up and once inside a span sharing the request's id.
//! Right after its stages, each request is pushed alone through an idle
//! `Server` and an idle `FleetServer`; their service time minus the sum
//! of the stage spans is what the serving stack itself costs.

use crate::common::{median_metric, metric, Metric, ModelSpec, Oracle};
use crate::spans::Spans;
use crate::stats::{derive, Rng};
use netpu_check::timing;
use netpu_compiler::Loadable;
use netpu_core::netpu::run_inference_fast;
use netpu_fleet::{BoardPool, CompiledModelCache, DispatchPolicy, FleetRequest};
use netpu_fleet::{FleetServer, FleetSubmit};
use netpu_nn::reference::{BitslicedMlp, PackedMlp};
use netpu_nn::QuantMlp;
use netpu_runtime::{Driver, InferRequest};
use netpu_serve::{Server, Submit};
use std::sync::Arc;
use std::time::Instant;

/// One replayed request: a model and a pool input.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub request: u64,
    pub model: usize,
    pub input: usize,
}

/// Everything the replay needs to know about a workload.
pub struct Layers<'a> {
    pub specs: &'a [ModelSpec],
    pub models: &'a [Arc<QuantMlp>],
    pub pool: &'a [Vec<u8>],
    pub oracle: &'a Oracle,
    /// The workload's driver (admission tiers, hardware instance).
    pub driver: &'a Driver,
    /// One compiled loadable per model, the splice template.
    pub templates: Vec<Loadable>,
}

/// Per-request stage times, µs, kept to compute stack residuals.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub splice: f64,
    pub admit: f64,
    pub sim: f64,
    pub driver_run: f64,
    pub cache_hit: f64,
    pub place: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

impl<'a> Layers<'a> {
    pub fn new(
        specs: &'a [ModelSpec],
        models: &'a [Arc<QuantMlp>],
        pool: &'a [Vec<u8>],
        oracle: &'a Oracle,
        driver: &'a Driver,
    ) -> Layers<'a> {
        let templates = models
            .iter()
            .map(|m| netpu_compiler::compile(m, &pool[0]).expect("zoo models compile"))
            .collect();
        Layers {
            specs,
            models,
            pool,
            oracle,
            driver,
            templates,
        }
    }

    /// The template with `sample`'s input spliced in.
    pub fn spliced(&self, sample: Sample) -> Loadable {
        let mut l = self.templates[sample.model].clone();
        l.replace_input(&self.pool[sample.input])
            .expect("pool inputs fit every zoo model");
        l
    }

    /// The model with the longest stream (the most expensive to serve).
    pub fn heaviest_model(&self) -> usize {
        (0..self.models.len())
            .max_by_key(|&m| self.templates[m].len())
            .unwrap_or(0)
    }
}

/// Calls `f` once to warm caches and lazy state (a `warmup` span), then
/// again inside a span named `name`; returns the second result and its
/// duration.
fn call<R>(
    spans: &mut Spans,
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    mut f: impl FnMut() -> R,
) -> (R, u64) {
    std::hint::black_box(spans.time("warmup", request, parent, &mut f));
    spans.time(name, request, parent, &mut f)
}

/// One request's per-request stages and what they returned.
struct RequestStages {
    st: StageTimes,
    compile: f64,
    timing: f64,
    cycles: u64,
    sim_ns: u64,
    failed: u64,
}

/// The per-request stages of `s`, in the order the program composes
/// them: compile (or splice into the admitted stream), cache lookup,
/// admission check, timing certificate, simulation, the driver's whole
/// `run`, and board placement.
fn request_stages(
    layers: &Layers<'_>,
    s: Sample,
    arrival_us: f64,
    cache: &CompiledModelCache,
    board_pool: &mut BoardPool,
    spans: &mut Spans,
    parent: Option<usize>,
) -> RequestStages {
    let hw = layers.driver.hw;
    let model: &QuantMlp = &layers.models[s.model];
    let pixels = &layers.pool[s.input];
    let expected = layers.oracle.class[s.model][s.input];
    let mut out = RequestStages {
        st: StageTimes::default(),
        compile: 0.0,
        timing: 0.0,
        cycles: 0,
        sim_ns: 0,
        failed: 0,
    };

    let (loadable, ns) = call(spans, "netpu_compiler::compile", s.request, parent, || {
        netpu_compiler::compile(model, pixels)
    });
    out.compile = us(ns);
    let loadable = loadable.expect("zoo models compile");

    let (hit, ns) = call(
        spans,
        "CompiledModelCache::get_or_admit",
        s.request,
        parent,
        || cache.get_or_admit(s.model as u64, model),
    );
    out.st.cache_hit = us(ns);
    let hit = hit.expect("admitted models stay admitted");

    let mut spliced = layers.templates[s.model].clone();
    let (r, ns) = call(spans, "Loadable::replace_input", s.request, parent, || {
        spliced.replace_input(pixels)
    });
    r.expect("pool inputs fit every zoo model");
    out.st.splice = us(ns);
    out.failed += u64::from(spliced.words != loadable.words);

    let (report, ns) = call(spans, "netpu_check::check", s.request, parent, || {
        netpu_check::check(&loadable, &hw)
    });
    out.st.admit = us(ns);
    out.failed += u64::from(report.has_errors());

    let (t, ns) = call(spans, "timing::analyze", s.request, parent, || {
        netpu_compiler::decode(&loadable.words).map(|d| timing::analyze(&d, &hw))
    });
    out.timing = us(ns);
    let predicted = t.map(|t| t.total_cycles()).ok();

    // The stream is moved into each call; copies are made outside the span.
    let mut streams = vec![loadable.words.clone(), loadable.words.clone()];
    let (r, ns) = call(spans, "run_inference_fast", s.request, parent, || {
        run_inference_fast(&hw, streams.pop().expect("one stream per call"))
    });
    out.st.sim = us(ns);
    out.sim_ns = ns;
    match r {
        Ok(r) => {
            out.cycles = r.cycles;
            if r.class != expected
                || Some(r.cycles) != predicted
                || r.cycles != layers.oracle.cycles[s.model]
            {
                out.failed += 1;
            }
        }
        Err(_) => out.failed += 1,
    }

    let mut requests = vec![loadable.clone(), loadable];
    let (r, ns) = call(spans, "Driver::run", s.request, parent, || {
        let l = requests.pop().expect("one loadable per call");
        layers.driver.run(InferRequest::loadable(l))
    });
    out.st.driver_run = us(ns);
    if r.ok().and_then(|r| r.first().map(|m| m.class)) != Some(expected) {
        out.failed += 1;
    }

    let (_, ns) = call(spans, "BoardPool::place", s.request, parent, || {
        board_pool.place(DispatchPolicy::SwapAware, &hit, arrival_us)
    });
    out.st.place = us(ns);
    out
}

/// Stage-by-stage replay of `samples`. Right after each request's
/// stages, `probe` runs with them (so a stack's service time and the
/// stages it is compared with are measured moments apart) and returns
/// the failures it saw. Also returns the failures the stages saw:
/// outputs that disagree with the oracle.
pub fn replay_requests(
    layers: &Layers<'_>,
    samples: &[Sample],
    spans: &mut Spans,
    probe: &mut dyn FnMut(Sample, &StageTimes, &mut Spans) -> u64,
) -> (Vec<Metric>, u64) {
    let hw = layers.driver.hw;
    let mut failed = 0;
    let (mut compile, mut splice, mut admit, mut timing_us, mut sim, mut run) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut cycles_total, mut sim_ns_total) = (0u64, 0u64);

    // Standalone cache and board pool for the fleet stages.
    let cache = CompiledModelCache::new(layers.driver.clone(), u64::MAX / 2);
    let mut board_pool = BoardPool::new(2);
    let mut admitted = std::collections::BTreeSet::new();
    let (mut admit_ms, mut equiv_ms, mut hit_us, mut place_us) = (vec![], vec![], vec![], vec![]);
    let (mut bitsliced_ns, mut packed_ns) = (vec![], vec![]);

    for (k, &s) in samples.iter().enumerate() {
        let model: &QuantMlp = &layers.models[s.model];
        let parent = Some(spans.open("replay.request", s.request, None));

        // Model-level stages, once per distinct model in the sample.
        if admitted.insert(s.model) {
            let (a, ns) = spans.time(
                "CompiledModelCache::get_or_admit",
                s.request,
                parent,
                || cache.get_or_admit(s.model as u64, model),
            );
            admit_ms.push(us(ns) / 1e3);
            failed += u64::from(a.is_err());
            let words = &layers.templates[s.model].words;
            let (report, ns) = spans.time(
                "netpu_check::check_words_against",
                s.request,
                parent,
                || netpu_check::check_words_against(words, model, &hw),
            );
            failed += u64::from(report.has_errors());
            equiv_ms.push(us(ns) / 1e3);
            let (b, p) = kernel_ns_per_frame(layers, s.model, s.request, parent, spans);
            bitsliced_ns.extend(b);
            packed_ns.push(p);
        }

        let r = request_stages(
            layers,
            s,
            k as f64 * 10.0,
            &cache,
            &mut board_pool,
            spans,
            parent,
        );
        failed += r.failed;
        if let Some(p) = parent {
            spans.close(p);
        }
        failed += probe(s, &r.st, spans);
        compile.push(r.compile);
        splice.push(r.st.splice);
        hit_us.push(r.st.cache_hit);
        admit.push(r.st.admit);
        timing_us.push(r.timing);
        sim.push(r.st.sim);
        run.push(r.st.driver_run);
        place_us.push(r.st.place);
        cycles_total += r.cycles;
        sim_ns_total += r.sim_ns;
    }

    let mcycles_per_s = if sim_ns_total > 0 {
        cycles_total as f64 / sim_ns_total as f64 * 1e3
    } else {
        0.0
    };
    let metrics = vec![
        median_metric("compiler.compile_us", &compile, "us"),
        median_metric("compiler.splice_us", &splice, "us"),
        median_metric("check.admit_us", &admit, "us"),
        median_metric("check.equiv_ms", &equiv_ms, "ms"),
        median_metric("check.timing_us", &timing_us, "us"),
        median_metric("core.fast_sim_us", &sim, "us"),
        metric(
            "core.sim_mcycles_per_s",
            mcycles_per_s,
            "Mcycle/s",
            sim.len(),
        ),
        median_metric("kernel.bitsliced_ns_per_frame", &bitsliced_ns, "ns"),
        median_metric("kernel.packed_ns_per_frame", &packed_ns, "ns"),
        median_metric("runtime.driver_run_us", &run, "us"),
        median_metric("fleet.cache.admit_ms", &admit_ms, "ms"),
        median_metric("fleet.cache.hit_us", &hit_us, "us"),
        median_metric("fleet.sched.place_us", &place_us, "us"),
    ];
    (metrics, failed)
}

/// Value-kernel cost per frame for one model over a slab of pool
/// inputs: the bitsliced kernel (fully binary models only) and the
/// packed per-frame walk. Pool inputs past 64 are not used.
fn kernel_ns_per_frame(
    layers: &Layers<'_>,
    model: usize,
    request: u64,
    parent: Option<usize>,
    spans: &mut Spans,
) -> (Option<f64>, f64) {
    let m: &QuantMlp = &layers.models[model];
    let slab: Vec<Vec<u8>> = layers.pool.iter().take(64).cloned().collect();
    let bitsliced = BitslicedMlp::new(m).map(|b| {
        let (_, ns) = call(spans, "BitslicedMlp::infer_slab", request, parent, || {
            b.infer_slab(&slab)
        });
        ns as f64 / slab.len() as f64
    });
    let packed = PackedMlp::new(m);
    let frames = &slab[..slab.len().min(8)];
    let (_, ns) = call(spans, "PackedMlp::infer_traced", request, parent, || {
        frames
            .iter()
            .map(|px| packed.infer_traced(px).class)
            .sum::<usize>()
    });
    (bitsliced, ns as f64 / frames.len() as f64)
}

/// One idle-stack measurement per request: µs spent in `submit`, in
/// `wait`, both together, and that total minus the request's stages.
#[derive(Default)]
struct ProbeTimes {
    submit: Vec<f64>,
    wait: Vec<f64>,
    service: Vec<f64>,
    overhead: Vec<f64>,
}

impl ProbeTimes {
    fn push(&mut self, (submit_ns, wait_ns, total_us): (u64, u64, f64), staged_us: f64) {
        self.submit.push(us(submit_ns));
        self.wait.push(us(wait_ns));
        self.service.push(total_us);
        self.overhead.push(total_us - staged_us);
    }

    fn metrics(&self, stack: &str) -> Vec<Metric> {
        vec![
            median_metric(&format!("{stack}.submit_us"), &self.submit, "us"),
            median_metric(&format!("{stack}.wait_us"), &self.wait, "us"),
            median_metric(&format!("{stack}.service_us"), &self.service, "us"),
            median_metric(&format!("{stack}.stack_overhead_us"), &self.overhead, "us"),
        ]
    }
}

/// One `Server` request of `s`, submitted and awaited; `None` on any
/// unexpected outcome. Returns (submit ns, wait ns, total µs).
fn serve_once(
    layers: &Layers<'_>,
    server: &Server,
    s: Sample,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Option<(u64, u64, f64)> {
    let req = InferRequest::loadable(layers.spliced(s));
    let t0 = Instant::now();
    let (submitted, ns_submit) =
        spans.time("Server::submit", s.request, parent, || server.submit(req));
    let Submit::Accepted(ticket) = submitted else {
        return None;
    };
    let (resp, ns_wait) = spans.time("Ticket::wait", s.request, parent, || ticket.wait());
    let total = us(t0.elapsed().as_nanos() as u64);
    let run = resp.ok()?.response.first().map(|m| (m.class, m.cycles));
    (run == Some((
        layers.oracle.class[s.model][s.input],
        layers.oracle.cycles[s.model],
    )))
    .then_some((ns_submit, ns_wait, total))
}

/// One `FleetServer` request of `s`, like [`serve_once`].
fn fleet_once(
    layers: &Layers<'_>,
    fleet: &FleetServer,
    s: Sample,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Option<(u64, u64, f64)> {
    let req = FleetRequest {
        tenant: 0,
        model_id: s.model as u64,
        model: Arc::clone(&layers.models[s.model]),
        pixels: layers.pool[s.input].clone(),
        deadline_us: None,
    };
    let t0 = Instant::now();
    let (submitted, ns_submit) = spans.time("FleetServer::submit", s.request, parent, || {
        fleet.submit(req)
    });
    let FleetSubmit::Accepted(ticket) = submitted else {
        return None;
    };
    let (resp, ns_wait) = spans.time("FleetTicket::wait", s.request, parent, || ticket.wait());
    let total = us(t0.elapsed().as_nanos() as u64);
    (resp.ok()?.class == layers.oracle.class[s.model][s.input])
        .then_some((ns_submit, ns_wait, total))
}

/// A request alone in flight on an idle stack, after one untimed
/// request of the same sample (which also makes its model resident).
fn idle_probe(
    s: Sample,
    spans: &mut Spans,
    name: &'static str,
    mut once: impl FnMut(&mut Spans, Option<usize>) -> Option<(u64, u64, f64)>,
) -> Option<(u64, u64, f64)> {
    once(spans, None)?;
    let parent = Some(spans.open(name, s.request, None));
    let timed = once(spans, parent);
    if let Some(p) = parent {
        spans.close(p);
    }
    timed
}

/// How one fleet request of the workload's heaviest model splits across
/// cache lookup, input splice, simulation, placement and the stack
/// residual (idle service time minus those four), µs medians over
/// `n` requests.
pub fn fleet_split(
    layers: &Layers<'_>,
    fleet: &FleetServer,
    n: usize,
    first_request: u64,
    spans: &mut Spans,
) -> (Vec<Metric>, Vec<String>, u64) {
    let model = layers.heaviest_model();
    let samples: Vec<Sample> = (0..n.min(layers.pool.len()))
        .map(|i| Sample {
            request: first_request + i as u64,
            model,
            input: i,
        })
        .collect();
    let mut stages = Vec::with_capacity(samples.len());
    let mut service = Vec::with_capacity(samples.len());
    let (_, failed) = replay_requests(layers, &samples, spans, &mut |s, st, spans| {
        let t = idle_probe(s, spans, "probe.fleet.request", |sp, p| {
            fleet_once(layers, fleet, s, sp, p)
        });
        stages.push(*st);
        service.extend(t.map(|t| t.2));
        u64::from(t.is_none())
    });
    let pick = |f: fn(&StageTimes) -> f64| -> Vec<f64> { stages.iter().map(f).collect() };
    let mut metrics: Vec<Metric> = [
        ("split.lookup_us", pick(|s| s.cache_hit)),
        ("split.splice_us", pick(|s| s.splice)),
        ("split.sim_us", pick(|s| s.sim)),
        ("split.place_us", pick(|s| s.place)),
    ]
    .iter()
    .map(|(name, v)| median_metric(name, v, "us"))
    .collect();
    let staged: f64 = metrics.iter().map(|m| m.value).sum();
    let service = median_metric("split.service_us", &service, "us");
    let residual = metric(
        "split.residual_us",
        service.value - staged,
        "us",
        service.samples as usize,
    );
    let total = service.value;
    metrics.push(service);
    metrics.push(residual);
    let name = layers.specs[model].name();
    let mut line = format!("fleet split of one idle {name} request (median µs):");
    for m in &metrics {
        let share = if total > 0.0 {
            100.0 * m.value / total
        } else {
            0.0
        };
        line.push_str(&format!(
            " {}={:.1} ({:.0}%)",
            m.name.trim_start_matches("split."),
            m.value,
            share
        ));
    }
    (metrics, vec![line], failed)
}

/// Per-span-name self time and call count, as report lines.
pub fn self_time_lines(spans: &Spans) -> Vec<String> {
    spans
        .self_times()
        .into_iter()
        .map(|(name, calls, ns)| {
            format!(
                "span {name}: calls={calls} self_ms={:.3} self_us_per_call={:.1}",
                ns as f64 / 1e6,
                ns as f64 / 1e3 / calls.max(1) as f64
            )
        })
        .collect()
}

/// One `infer_batch` call to replay: a model and pool input indices.
#[derive(Clone, Debug)]
pub struct BatchCall {
    pub request: u64,
    pub model: usize,
    pub inputs: Vec<usize>,
}

/// `runtime.batch_fixed_ms`: each call's wall time minus the wall time
/// of its value-kernel work, replayed with the same split the batch
/// path uses (64-frame bitsliced slabs for fully binary models, the
/// packed walk per frame otherwise, contiguous blocks per thread).
/// Also `core.batch.slab_occupancy`: frames in full slabs over all
/// frames, from the calls' `InferResponse.batch_slabs`.
pub fn batch_fixed(
    layers: &Layers<'_>,
    calls: &[BatchCall],
    spans: &mut Spans,
) -> (Vec<Metric>, u64) {
    let mut fixed_ms = Vec::with_capacity(calls.len());
    let mut failed = 0;
    let (mut slab_frames, mut frames_total) = (0, 0);
    for call in calls {
        let model: &QuantMlp = &layers.models[call.model];
        let frames: Vec<Vec<u8>> = call
            .inputs
            .iter()
            .map(|&i| layers.pool[i].clone())
            .collect();
        let parent = Some(spans.open("replay.batch", call.request, None));
        let req = InferRequest::batch(model, frames.clone());
        let (resp, ns_call) = spans.time("Driver::run(batch)", call.request, parent, || {
            layers.driver.run(req)
        });
        if let Some(b) = resp.as_ref().ok().and_then(|r| r.batch_slabs) {
            slab_frames += b.slabs_full * 64;
            frames_total += frames.len();
        }
        let classes = resp.map(|r| r.classes()).unwrap_or_default();
        let expected: Vec<usize> = call
            .inputs
            .iter()
            .map(|&i| layers.oracle.class[call.model][i])
            .collect();
        if classes != expected {
            failed += 1;
        }
        let sliced = BitslicedMlp::new(model);
        let packed = PackedMlp::new(model);
        let width = if sliced.is_some() { 64 } else { 1 };
        let chunks: Vec<&[Vec<u8>]> = frames.chunks(width).collect();
        let workers = crate::common::nproc().min(chunks.len()).max(1);
        let per = chunks.len().div_ceil(workers);
        let (_, ns_kernel) = spans.time("kernels", call.request, parent, || {
            std::thread::scope(|s| {
                for block in chunks.chunks(per) {
                    let (sliced, packed) = (&sliced, &packed);
                    s.spawn(move || {
                        for chunk in block {
                            match sliced {
                                Some(b) if chunk.len() == 64 => {
                                    std::hint::black_box(b.infer_slab(chunk));
                                }
                                _ => {
                                    for px in *chunk {
                                        std::hint::black_box(packed.infer_traced(px));
                                    }
                                }
                            }
                        }
                    });
                }
            })
        });
        if let Some(p) = parent {
            spans.close(p);
        }
        fixed_ms.push((ns_call as f64 - ns_kernel as f64) / 1e6);
    }
    let occupancy = slab_frames as f64 / frames_total.max(1) as f64;
    (
        vec![
            median_metric("runtime.batch_fixed_ms", &fixed_ms, "ms"),
            metric(
                "core.batch.slab_occupancy",
                occupancy,
                "ratio",
                frames_total,
            ),
        ],
        failed,
    )
}

/// Live counters of the stacks a workload drives; `None` for a stack
/// it does not drive (the idle probe's counters stand in).
#[derive(Default)]
pub struct Live<'s> {
    pub server: Option<&'s Server>,
    pub fleet: Option<&'s FleetServer>,
}

fn serve_counters(server: &Server) -> Vec<Metric> {
    let m = server.metrics();
    vec![metric(
        "serve.queue_high_water",
        m.queue_high_water as f64,
        "count",
        1,
    )]
}

fn fleet_counters(fleet: &FleetServer) -> Vec<Metric> {
    let m = fleet.metrics();
    let lookups = (m.cache.hits + m.cache.misses) as usize;
    vec![
        metric(
            "fleet.cache.hit_rate",
            m.cache.hit_rate().unwrap_or(0.0),
            "ratio",
            lookups,
        ),
        metric(
            "fleet.cache.evictions",
            m.cache.evictions as f64,
            "count",
            1,
        ),
    ]
}

/// A fleet shaped like the benchmark's: one shard of two boards, a
/// tenant policy that never throttles the closed loop.
pub fn fleet_config(cache_capacity_bytes: u64) -> netpu_fleet::FleetConfig {
    netpu_fleet::FleetConfig {
        shards: 1,
        boards_per_shard: 2,
        queue_depth: 64,
        tenant_policy: netpu_fleet::TenantPolicy {
            rate_rps: 1e9,
            burst: 1e6,
        },
        cache_capacity_bytes,
        ..netpu_fleet::FleetConfig::default()
    }
}

/// A server shaped like the benchmark's: two boards, default admission.
pub fn serve_config() -> netpu_serve::ServerConfig {
    netpu_serve::ServerConfig {
        boards: 2,
        queue_capacity: 64,
        ..netpu_serve::ServerConfig::default()
    }
}

/// Every per-layer metric for one workload: the stage replay of
/// `samples` with an idle serve and fleet probe of each request (on the
/// live stacks where the workload drives them, else on probe stacks
/// started here), the batch replay of `calls`, the fleet split, and the
/// stacks' counters.
pub fn per_layer(
    layers: &Layers<'_>,
    samples: &[Sample],
    calls: &[BatchCall],
    live: Live<'_>,
    spans: &mut Spans,
) -> (Vec<Metric>, Vec<String>, u64) {
    // Counters of live stacks are read before the probes add requests.
    let mut counters = Vec::new();
    if let Some(server) = live.server {
        counters.extend(serve_counters(server));
    }
    if let Some(fleet) = live.fleet {
        counters.extend(fleet_counters(fleet));
    }
    let probe_server = live
        .server
        .is_none()
        .then(|| Server::start(layers.driver.clone(), serve_config()));
    let probe_fleet = live
        .fleet
        .is_none()
        .then(|| FleetServer::start(layers.driver.clone(), fleet_config(u64::MAX / 2)));
    let server = live.server.or(probe_server.as_ref()).expect("a server");
    let fleet = live.fleet.or(probe_fleet.as_ref()).expect("a fleet");

    let (mut serve_t, mut fleet_t) = (ProbeTimes::default(), ProbeTimes::default());
    let (mut metrics, mut failed) = replay_requests(layers, samples, spans, &mut |s, st, spans| {
        let mut failed = 0;
        // `submit` runs the admission check; the worker's `Driver::run`
        // checks again and simulates.
        match idle_probe(s, spans, "probe.serve.request", |sp, p| {
            serve_once(layers, server, s, sp, p)
        }) {
            Some(t) => serve_t.push(t, st.admit + st.driver_run),
            None => failed += 1,
        }
        match idle_probe(s, spans, "probe.fleet.request", |sp, p| {
            fleet_once(layers, fleet, s, sp, p)
        }) {
            Some(t) => fleet_t.push(t, st.cache_hit + st.splice + st.sim + st.place),
            None => failed += 1,
        }
        failed
    });
    metrics.extend(serve_t.metrics("serve"));
    metrics.extend(fleet_t.metrics("fleet"));
    let (batch, f) = batch_fixed(layers, calls, spans);
    metrics.extend(batch);
    failed += f;
    let first_split = samples.iter().map(|s| s.request).max().unwrap_or(0) + 1;
    let (m, lines, f) = fleet_split(layers, fleet, 16, first_split, spans);
    metrics.extend(m);
    failed += f;

    if let Some(probe) = probe_server {
        counters.extend(serve_counters(&probe));
        probe.shutdown();
    }
    if let Some(probe) = probe_fleet {
        counters.extend(fleet_counters(&probe));
        probe.shutdown();
    }
    metrics.extend(counters);
    (metrics, lines, failed)
}

/// `n` requests whose models follow the workload's mix in fixed
/// proportion (largest-remainder allocation of `n` over `weights`), so
/// every seed replays the same composition; inputs are seeded.
pub fn sample_requests(seed: u64, weights: &[f64], pool: usize, n: usize) -> Vec<Sample> {
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    let short = n - counts.iter().sum::<usize>();
    for &m in by_remainder.iter().take(short) {
        counts[m] += 1;
    }
    let mut rng = Rng::new(derive(seed, crate::common::TAG_SAMPLE, 0));
    counts
        .iter()
        .enumerate()
        .flat_map(|(model, &c)| std::iter::repeat_n(model, c))
        .enumerate()
        .map(|(i, model)| Sample {
            request: i as u64,
            model,
            input: rng.below(pool),
        })
        .collect()
}

/// One 64-frame batch per distinct sampled model: the batch path's
/// fixed cost for a workload that does not batch.
pub fn distinct_batch_calls(samples: &[Sample], pool: usize) -> Vec<BatchCall> {
    let mut seen = std::collections::BTreeSet::new();
    samples
        .iter()
        .filter(|s| seen.insert(s.model))
        .map(|s| BatchCall {
            request: s.request,
            model: s.model,
            inputs: (0..pool.min(64)).collect(),
        })
        .collect()
}
