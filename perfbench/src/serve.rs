//! `serve_stream`: precompiled loadables through a two-board `Server`.

use crate::common::{self, ModelSpec, Oracle, Report, Teardown};
use crate::loadgen::{self, closed_loop, Client, Issued, LoopStats};
use crate::replay::{self, Layers, Live};
use crate::spans::Spans;
use crate::stats::{derive, Rng, Weighted};
use crate::Args;
use netpu_compiler::Loadable;
use netpu_nn::zoo::ZooModel;
use netpu_nn::QuantMlp;
use netpu_runtime::{DriverError, InferRequest, RejectReason};
use netpu_serve::{ServeResponse, Server, Submit, Ticket};
use std::sync::Arc;

const WINDOW: usize = 4;
const POOL: usize = 64;
/// Every `CORRUPT_EVERY`-th request carries a corrupted layer setting.
const CORRUPT_EVERY: u64 = 32;
const MIX: [(ZooModel, f64); 4] = [
    (ZooModel::TfcW1A1, 4.0),
    (ZooModel::TfcW2A2, 3.0),
    (ZooModel::SfcW1A1, 2.0),
    (ZooModel::SfcW2A2, 1.0),
];

struct Setup {
    server: Server,
    models: Vec<Arc<QuantMlp>>,
    templates: Vec<Loadable>,
}

impl Teardown for Setup {
    fn teardown(self) {
        self.server.shutdown();
    }
}

/// The program's set-up: build the models, compile one loadable each,
/// start the server.
fn setup(specs: &[ModelSpec], pool: &[Vec<u8>]) -> Setup {
    let models: Vec<Arc<QuantMlp>> = specs.iter().map(|s| Arc::new(s.build())).collect();
    let templates = models
        .iter()
        .map(|m| netpu_compiler::compile(m, &pool[0]).expect("zoo models compile"))
        .collect();
    let server = Server::start(
        netpu_runtime::Driver::builder().build(),
        replay::serve_config(),
    );
    Setup {
        server,
        models,
        templates,
    }
}

/// The first hidden layer's setting word with its input length off by
/// one: the layer no longer chains to the input layer, a stream the
/// accelerator cannot run.
fn corrupt(template: &Loadable) -> Loadable {
    let mut l = template.clone();
    let word = l.layout.settings.start + 1;
    l.words[word] ^= 1 << 32;
    l
}

#[derive(Clone, Copy)]
struct Expect {
    model: usize,
    input: usize,
    corrupt: bool,
}

struct ServeClient<'a> {
    server: &'a Server,
    templates: &'a [Loadable],
    corrupted: Vec<Loadable>,
    pool: &'a [Vec<u8>],
    oracle: &'a Oracle,
    mix: Weighted,
    rng: Rng,
    issued: u64,
    modeled_us: f64,
    served: u64,
    denied_invalid: u64,
}

impl Client for ServeClient<'_> {
    type Req = (Loadable, Expect);
    type Ticket = (Ticket, Expect);
    type Resp = (Result<ServeResponse, DriverError>, Expect);
    const SUBMIT: &'static str = "Server::submit";
    const WAIT: &'static str = "Ticket::wait";

    fn prepare(&mut self) -> Self::Req {
        self.issued += 1;
        let model = self.mix.sample(&mut self.rng);
        let input = self.rng.below(self.pool.len());
        let corrupt = self.issued.is_multiple_of(CORRUPT_EVERY);
        let mut l = if corrupt {
            self.corrupted[model].clone()
        } else {
            self.templates[model].clone()
        };
        l.replace_input(&self.pool[input])
            .expect("pool inputs fit every zoo model");
        (
            l,
            Expect {
                model,
                input,
                corrupt,
            },
        )
    }

    fn submit(&mut self, (l, e): Self::Req) -> Issued<Self::Ticket> {
        match self.server.submit(InferRequest::loadable(l)) {
            Submit::Accepted(t) => {
                if e.corrupt {
                    // A corrupted stream was admitted: already wrong.
                    drop(t.wait());
                    return Issued::Answered { correct: false };
                }
                Issued::Pending((t, e))
            }
            Submit::Denied(reason) => {
                let invalid = matches!(reason, RejectReason::Invalid { .. });
                self.denied_invalid += u64::from(invalid);
                Issued::Answered {
                    correct: e.corrupt && invalid,
                }
            }
        }
    }

    fn wait(&mut self, (t, e): Self::Ticket) -> Self::Resp {
        (t.wait(), e)
    }

    fn verify(&mut self, (resp, e): Self::Resp) -> bool {
        let Some(run) = resp.ok().and_then(|r| r.response.runs.into_iter().next()) else {
            return false;
        };
        self.modeled_us += run.sim_latency_us;
        self.served += 1;
        run.class == self.oracle.class[e.model][e.input] && run.cycles == self.oracle.cycles[e.model]
    }
}

pub fn run(args: &Args) -> Report {
    let specs: Vec<ModelSpec> = MIX
        .iter()
        .enumerate()
        .map(|(i, &(zoo, _))| ModelSpec {
            zoo,
            seed: derive(args.seed, common::TAG_MODEL, i as u64),
        })
        .collect();
    let pool = common::input_pool(args.seed, POOL);
    let all_inputs: Vec<Vec<usize>> = vec![(0..POOL).collect(); specs.len()];
    let oracle = Oracle::compute(&specs, &pool, &all_inputs);

    let (live, setups) = common::timed_setups(|| setup(&specs, &pool));
    let mut report = Report::default();
    let weights: Vec<f64> = MIX.iter().map(|m| m.1).collect();
    let mut client = ServeClient {
        server: &live.server,
        templates: &live.templates,
        corrupted: live.templates.iter().map(corrupt).collect(),
        pool: &pool,
        oracle: &oracle,
        mix: Weighted::new(&weights),
        rng: Rng::new(derive(args.seed, common::TAG_REQUESTS, 0)),
        issued: 0,
        modeled_us: 0.0,
        served: 0,
        denied_invalid: 0,
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
        report.lines.push(format!(
            "served {} denied_invalid {} in {:.2}s",
            s.completed, client.denied_invalid, s.wall_s
        ));
    } else {
        let mut spans = Spans::new();
        let (a, b) = loadgen::traced_phases(&mut client, WINDOW, args.run_for(), &mut spans);
        add(&mut report, &a);
        add(&mut report, &b);
        let modeled = client.modeled_us / client.served.max(1) as f64;
        let driver = netpu_runtime::Driver::builder().build();
        let layers = Layers::new(&specs, &live.models, &pool, &oracle, &driver);
        let samples = replay::sample_requests(args.seed, &weights, POOL, 24);
        let calls = replay::distinct_batch_calls(&samples, POOL);
        let live_stacks = Live {
            server: Some(&live.server),
            fleet: None,
        };
        let (metrics, lines, failed) =
            replay::per_layer(&layers, &samples, &calls, live_stacks, &mut spans);
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
