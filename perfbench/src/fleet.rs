//! `fleet_hot` and `fleet_churn`: multi-tenant traffic through a
//! one-shard, two-board `FleetServer`.

use crate::common::{self, ModelSpec, Oracle, Report, Teardown};
use crate::loadgen::{self, closed_loop, Client, Issued, LoopStats};
use crate::replay::{self, Layers, Live};
use crate::spans::Spans;
use crate::stats::{derive, Rng, Weighted};
use crate::Args;
use netpu_fleet::{FleetRequest, FleetResponse, FleetServer, FleetSubmit, FleetTicket};
use netpu_nn::zoo::ZooModel;
use netpu_nn::QuantMlp;
use netpu_runtime::{Driver, DriverError};
use std::sync::Arc;

const WINDOW: usize = 16;
const TENANTS: usize = 8;

/// What distinguishes the two fleet workloads.
struct Shape {
    families: &'static [ZooModel],
    seeds_per_family: usize,
    zipf_s: f64,
    /// Share of the working set's stream bytes the cache may hold.
    cache_share: f64,
    strict_equiv: bool,
    /// Admit every model during set-up.
    warm: bool,
    pool: usize,
}

const HOT: Shape = Shape {
    families: &[
        ZooModel::TfcW1A1,
        ZooModel::TfcW2A2,
        ZooModel::SfcW1A1,
        ZooModel::LfcW1A1,
    ],
    seeds_per_family: 2,
    zipf_s: 1.1,
    cache_share: 2.0,
    strict_equiv: false,
    warm: true,
    pool: 64,
};

const CHURN: Shape = Shape {
    families: &[ZooModel::TfcW1A1, ZooModel::TfcW2A2, ZooModel::SfcW1A1],
    seeds_per_family: 16,
    zipf_s: 0.8,
    cache_share: 0.25,
    strict_equiv: true,
    warm: false,
    pool: 32,
};

struct Setup {
    fleet: FleetServer,
    models: Vec<Arc<QuantMlp>>,
    /// Warm-up requests whose class disagreed with the oracle.
    warm_failures: u64,
}

impl Teardown for Setup {
    fn teardown(self) {
        self.fleet.shutdown();
    }
}

fn driver(shape: &Shape) -> Driver {
    Driver::builder().strict_equiv(shape.strict_equiv).build()
}

/// The program's set-up: build the models, start the fleet and, for a
/// warm cache, admit every model with one request each.
fn setup(
    shape: &Shape,
    specs: &[ModelSpec],
    budget: u64,
    pool: &[Vec<u8>],
    oracle: &Oracle,
) -> Setup {
    let models: Vec<Arc<QuantMlp>> = specs.iter().map(|s| Arc::new(s.build())).collect();
    let fleet = FleetServer::start(driver(shape), replay::fleet_config(budget));
    let mut warm_failures = 0;
    if shape.warm {
        for (m, model) in models.iter().enumerate() {
            let ok = match fleet.submit(request(m, model, &pool[0], 0)) {
                FleetSubmit::Accepted(t) => t.wait().is_ok_and(|r| r.class == oracle.class[m][0]),
                FleetSubmit::Denied(_) => false,
            };
            warm_failures += u64::from(!ok);
        }
    }
    Setup {
        fleet,
        models,
        warm_failures,
    }
}

fn request(model: usize, arc: &Arc<QuantMlp>, pixels: &[u8], tenant: u64) -> FleetRequest {
    FleetRequest {
        tenant,
        model_id: model as u64,
        model: Arc::clone(arc),
        pixels: pixels.to_vec(),
        deadline_us: None,
    }
}

struct FleetClient<'a> {
    fleet: &'a FleetServer,
    models: &'a [Arc<QuantMlp>],
    pool: &'a [Vec<u8>],
    oracle: &'a Oracle,
    popularity: Weighted,
    rng: Rng,
    served_per_model: Vec<u64>,
}

impl Client for FleetClient<'_> {
    type Req = (FleetRequest, usize, usize);
    type Ticket = (FleetTicket, usize, usize);
    type Resp = (Result<FleetResponse, DriverError>, usize, usize);
    const SUBMIT: &'static str = "FleetServer::submit";
    const WAIT: &'static str = "FleetTicket::wait";

    fn prepare(&mut self) -> Self::Req {
        let model = self.popularity.sample(&mut self.rng);
        let input = self.rng.below(self.pool.len());
        let tenant = self.rng.below(TENANTS) as u64;
        (
            request(model, &self.models[model], &self.pool[input], tenant),
            model,
            input,
        )
    }

    fn submit(&mut self, (req, model, input): Self::Req) -> Issued<Self::Ticket> {
        match self.fleet.submit(req) {
            FleetSubmit::Accepted(t) => Issued::Pending((t, model, input)),
            // Throttles and busy denials are unexpected: the tenant
            // policy admits everything and the window is below the
            // queue bound.
            FleetSubmit::Denied(_) => Issued::Answered { correct: false },
        }
    }

    fn wait(&mut self, (t, model, input): Self::Ticket) -> Self::Resp {
        (t.wait(), model, input)
    }

    fn verify(&mut self, (resp, model, input): Self::Resp) -> bool {
        let ok = resp.is_ok_and(|r| r.class == self.oracle.class[model][input]);
        self.served_per_model[model] += u64::from(ok);
        ok
    }
}

pub fn run_hot(args: &Args) -> Report {
    run(args, &HOT)
}

pub fn run_churn(args: &Args) -> Report {
    run(args, &CHURN)
}

fn run(args: &Args, shape: &Shape) -> Report {
    // Popularity rank r is family r % families, seed r / families, so
    // every seed ranks the same architectures alike.
    let specs: Vec<ModelSpec> = (0..shape.families.len() * shape.seeds_per_family)
        .map(|r| ModelSpec {
            zoo: shape.families[r % shape.families.len()],
            seed: derive(args.seed, common::TAG_MODEL, r as u64),
        })
        .collect();
    let pool = common::input_pool(args.seed, shape.pool);
    let all_inputs: Vec<Vec<usize>> = vec![(0..shape.pool).collect(); specs.len()];
    let oracle = Oracle::compute(&specs, &pool, &all_inputs);
    let working_set: u64 = oracle.stream_words.iter().map(|&w| w as u64 * 8).sum();
    let budget = (working_set as f64 * shape.cache_share) as u64;

    let (live, setups) = common::timed_setups(|| setup(shape, &specs, budget, &pool, &oracle));
    let mut report = Report::default();
    report.failed += live.warm_failures;
    let popularity = Weighted::zipf(specs.len(), shape.zipf_s);
    let mut client = FleetClient {
        fleet: &live.fleet,
        models: &live.models,
        pool: &pool,
        oracle: &oracle,
        popularity,
        rng: Rng::new(derive(args.seed, common::TAG_REQUESTS, 0)),
        served_per_model: vec![0; specs.len()],
    };
    let add = |report: &mut Report, s: &LoopStats| {
        report.attempted += s.attempted;
        report.failed += s.failed;
    };
    common::reset_peak_rss();
    let warm = closed_loop(&mut client, WINDOW, args.warmup(), None, 0);
    add(&mut report, &warm);
    if !args.trace {
        let s = loadgen::timed_phase(&mut client, WINDOW, args.run_for());
        add(&mut report, &s);
        report.metrics = loadgen::end_to_end(&s, &setups);
        report.lines.push(loadgen::wall_clock_line(&s));
        let m = live.fleet.metrics();
        report.lines.push(format!(
            "served {} in {:.2}s; cache hits {} misses {} evictions {} (budget {} of {} bytes)",
            s.completed,
            s.wall_s,
            m.cache.hits,
            m.cache.misses,
            m.cache.evictions,
            budget,
            working_set
        ));
    } else {
        let mut spans = Spans::new();
        let (a, b) = loadgen::traced_phases(&mut client, WINDOW, args.run_for(), &mut spans);
        add(&mut report, &a);
        add(&mut report, &b);
        // Fleet responses carry no simulated latency; each served
        // inference is priced at its model's certified cycle count.
        let clock_mhz = driver(shape).hw.clock_mhz;
        let served: u64 = client.served_per_model.iter().sum();
        let modeled: f64 = client
            .served_per_model
            .iter()
            .zip(&oracle.cycles)
            .map(|(&n, &c)| n as f64 * c as f64 / clock_mhz)
            .sum::<f64>()
            / served.max(1) as f64;
        let drv = driver(shape);
        let layers = Layers::new(&specs, &live.models, &pool, &oracle, &drv);
        let weights: Vec<f64> = (1..=specs.len())
            .map(|k| 1.0 / (k as f64).powf(shape.zipf_s))
            .collect();
        let samples = replay::sample_requests(args.seed, &weights, shape.pool, 24);
        let calls = replay::distinct_batch_calls(&samples, shape.pool);
        let stacks = Live {
            server: None,
            fleet: Some(&live.fleet),
        };
        let (metrics, lines, failed) =
            replay::per_layer(&layers, &samples, &calls, stacks, &mut spans);
        report.failed += failed;
        report.metrics = metrics;
        report
            .metrics
            .extend(loadgen::loop_metrics(&a, &b, modeled));
        report.lines.extend(lines);
        report.lines.extend(replay::self_time_lines(&spans));
        crate::write_spans(args, &spans, &mut report);
    }
    live.teardown();
    report
}
