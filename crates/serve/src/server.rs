//! The multi-board inference server.
//!
//! A [`Server`] owns a bounded admission queue and one worker thread
//! per board. Admission is the driver's: a loadable payload is admitted
//! at submission by [`Driver::admit`], under the driver's policy, and
//! queued with its admission, so its worker looks nothing up again.
//! Every refusal — full queue, closed server, verifier
//! findings, exhausted crash-recovery budget — is answered with the
//! workspace's unified [`Submit::Denied`]`(`[`RejectReason`]`)`, so
//! clients pattern-match one structured surface across the whole
//! stack. Workers execute real accelerator simulations concurrently on
//! host threads, while the [`DmaArbiter`] places every stream transfer
//! on a shared virtual-time DMA engine, so throughput saturates at the
//! transfer bound exactly as
//! [`ClusterThroughput`](netpu_runtime::ClusterThroughput) predicts.
//!
//! # Crash-only recovery
//!
//! The workers are the shared [`worker`](crate::worker) pool
//! (DESIGN.md §4.7): a panic anywhere in the serving path is caught,
//! the dead request is requeued (up to [`ServerConfig::crash_requeues`]
//! times) or rejected with [`RejectReason::WorkerCrash`], and the
//! worker keeps serving. Every lock acquisition goes through
//! [`lock_recover`], so a panic that poisons the arbiter or injector
//! mutex cannot cascade.
//!
//! # Tracing
//!
//! With a [`TraceSink`] configured, the server records the full
//! request lifecycle (submit, admit, deny, grant, retry, crash,
//! requeue, complete) with virtual timestamps. Grant events are
//! recorded inside the arbiter's critical section, so the sink's order
//! matches the arbiter's schedule order and `netpu_trace::verify` can
//! re-derive the schedule recurrence bit-for-bit.

use crate::arbiter::{DmaArbiter, Grant};
use crate::faults::{FaultInjector, FaultPlan};
use crate::metrics::{Counters, MetricsSnapshot};
use crate::queue::BoundedQueue;
use crate::worker::{self, lock_recover, Job, PoolCounters, Served, Stage, Submission, WorkerPool};
use netpu_check::RejectReason;
use netpu_compiler::compile;
use netpu_nn::QuantMlp;
use netpu_runtime::{
    cast, Admitted, Driver, DriverError, InferPayload, InferRequest, InferResponse, RequestOptions,
};
use netpu_trace::{TraceEvent, TraceSink};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Server configuration. The admission policy is not here: it is the
/// driver's ([`DriverBuilder::strict_range`](netpu_runtime::DriverBuilder::strict_range),
/// [`DriverBuilder::strict_equiv`](netpu_runtime::DriverBuilder::strict_equiv)).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Number of boards (and worker threads).
    pub boards: usize,
    /// Admission queue bound; submissions beyond it are denied.
    pub queue_capacity: usize,
    /// Deadline applied to requests that set none, µs of virtual time.
    pub default_deadline_us: Option<f64>,
    /// Retry budget for requests that set none.
    pub max_retries: u32,
    /// Stream faults to inject (tests the retry and crash paths).
    pub faults: FaultPlan,
    /// How many times a request whose worker died mid-serve is put
    /// back on the queue before crash recovery gives up and rejects it
    /// with [`RejectReason::WorkerCrash`].
    pub crash_requeues: u32,
    /// Structured event sink recording the request lifecycle and the
    /// DMA schedule; `None` (the default) records nothing.
    pub trace: Option<Arc<dyn TraceSink>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            boards: 1,
            queue_capacity: 64,
            default_deadline_us: None,
            max_retries: 0,
            faults: FaultPlan::None,
            crash_requeues: 1,
            trace: None,
        }
    }
}

/// A successfully served request.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeResponse {
    /// The inference result, identical to what [`Driver::run`] returns
    /// for the same request.
    pub response: InferResponse,
    /// Board the request ran on.
    pub board: usize,
    /// Virtual time the request's stream started, µs.
    pub start_us: f64,
    /// Virtual time the request completed, µs.
    pub complete_us: f64,
    /// Delivery attempts it took (1 = no retries).
    pub attempts: u32,
}

/// Outcome of a [`Server::submit`] call.
pub type Submit = Submission<ServeResponse>;

/// Handle to one queued [`Server`] request.
pub type Ticket = worker::Ticket<ServeResponse>;

type ServeJob = Job<Queued, ServeResponse>;

/// A queued request. A `Loadable` payload travels as its admission at
/// submission; every other payload as submitted.
enum Queued {
    Admitted(Admitted<'static>, RequestOptions),
    Request(InferRequest<'static>),
}

struct Shared {
    cfg: ServerConfig,
    driver: Driver,
    counters: Counters,
    arbiter: Mutex<DmaArbiter>,
    injector: Mutex<FaultInjector>,
    queue: BoundedQueue<ServeJob>,
    next_request: AtomicU64,
}

impl Stage for Shared {
    type Req = Queued;
    type Resp = ServeResponse;

    fn queue(&self, _queue: usize) -> &BoundedQueue<ServeJob> {
        &self.queue
    }

    fn counters(&self) -> &PoolCounters {
        &self.counters.pool
    }

    fn sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.cfg.trace.as_ref()
    }

    fn crash_requeues(&self) -> u32 {
        self.cfg.crash_requeues
    }

    fn serve(&self, _queue: usize, job: &mut ServeJob) -> Served<ServeResponse> {
        serve_one(self, job)
    }

    fn queued(&self, depth: usize) {
        self.counters.observe_queue_depth(depth);
    }
}

/// A multi-board inference server over one shared DMA engine.
pub struct Server {
    shared: Arc<Shared>,
    workers: WorkerPool,
}

impl Server {
    /// Starts the server: spawns one worker thread per board. The
    /// driver's policy admits every request.
    pub fn start(driver: Driver, cfg: ServerConfig) -> Server {
        assert!(cfg.boards > 0, "at least one board");
        assert!(cfg.queue_capacity > 0, "queue bound must be positive");
        let shared = Arc::new(Shared {
            driver,
            counters: Counters::default(),
            arbiter: Mutex::new(DmaArbiter::new(cfg.boards)),
            injector: Mutex::new(FaultInjector::new(cfg.faults.clone())),
            queue: BoundedQueue::new(cfg.queue_capacity),
            next_request: AtomicU64::new(0),
            cfg,
        });
        let workers = WorkerPool::spawn(&shared, 1, shared.cfg.boards);
        Server { shared, workers }
    }

    /// Submits a request. Admission is non-blocking: a full queue
    /// answers [`RejectReason::QueueFull`] immediately so the caller
    /// can shed or defer load instead of piling up unbounded work.
    pub fn submit(&self, req: InferRequest<'static>) -> Submit {
        self.admit(None, req)
    }

    /// Submits a request *together with the source model its loadable
    /// payload claims to implement*, enabling the third admission tier
    /// (DESIGN.md §4.8): on top of the structural and range pre-flight,
    /// the [`symex`](netpu_check::symex) translation validator
    /// certifies the stream bit-precisely equivalent to `source`.
    /// Equivalence findings are always counted in
    /// [`MetricsSnapshot::equiv_flagged`]; they deny admission only on a
    /// [`strict_equiv`](netpu_runtime::DriverBuilder::strict_equiv)
    /// driver. Payloads other than
    /// [`InferPayload::Loadable`] carry no separate stream to validate
    /// (the worker compiles them from their own source, where the
    /// driver applies the same tier) and are admitted exactly like
    /// [`Server::submit`].
    pub fn submit_certified(&self, source: &QuantMlp, req: InferRequest<'static>) -> Submit {
        self.admit(Some(source), req)
    }

    /// The one submission path. A loadable payload is admitted by
    /// [`Driver::admit`] before a queue slot is taken, so a stream the
    /// accelerator would reject never reaches a worker; with a claimed
    /// `source` admission adds the translation-validation tier. The flag
    /// and reject counters count every submission, from the admitted
    /// analysis or from the report the refusal carries.
    fn admit(&self, source: Option<&QuantMlp>, req: InferRequest<'static>) -> Submit {
        let shared = &*self.shared;
        let (c, driver) = (&shared.counters, &shared.driver);
        let bump = |counter: &AtomicU64, hit: bool| {
            if hit {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        };
        let id = shared.next_request.fetch_add(1, Ordering::Relaxed);
        shared.trace(
            0.0,
            TraceEvent::Submitted {
                request: id,
                tenant: 0,
                model: 0,
            },
        );
        let (queued, range_flagged) = match req.payload {
            InferPayload::Loadable(loadable) => {
                let admitted = driver.admit(Cow::Owned(loadable), source);
                let report = match &admitted {
                    Ok(admitted) => Some(&admitted.analysis().report),
                    Err(reason) => reason.report(),
                };
                let (range, equiv) = report.map_or((false, false), |r| {
                    (r.has_range_errors(), r.has_equiv_errors())
                });
                bump(&c.range_flagged, range);
                bump(&c.equiv_flagged, equiv);
                match admitted {
                    Ok(admitted) => (Queued::Admitted(admitted, req.options), range),
                    Err(reason) => {
                        bump(&c.range_rejected, range && driver.strict_range);
                        bump(&c.equiv_rejected, equiv && driver.strict_equiv);
                        bump(&c.rejected, true);
                        return shared.deny(id, 0.0, reason);
                    }
                }
            }
            payload => {
                let options = req.options;
                (Queued::Request(InferRequest { payload, options }), false)
            }
        };
        let submitted = shared.enqueue(0, id, 0.0, range_flagged, queued);
        bump(
            &c.rejected,
            matches!(submitted, Submit::Denied(RejectReason::QueueFull { .. })),
        );
        submitted
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        let arbiter = lock_recover(&self.shared.arbiter);
        MetricsSnapshot::gather(
            &self.shared.counters,
            &arbiter,
            self.shared.driver.verdicts.stats(),
        )
    }

    /// Closes admission, drains every queued request, joins the
    /// workers, and returns the final metrics.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.workers.shutdown(&*self.shared);
        let arbiter = lock_recover(&self.shared.arbiter);
        MetricsSnapshot::gather(
            &self.shared.counters,
            &arbiter,
            self.shared.driver.verdicts.stats(),
        )
    }
}

/// One serving attempt: deliver the request (retrying injected
/// faults), grant the DMA, and check the deadline. Terminal events are
/// stamped at the grant's completion time, or at 0.0 when no grant
/// decided the outcome.
fn serve_one(shared: &Shared, job: &mut ServeJob) -> Served<ServeResponse> {
    let options = match &job.req {
        Queued::Admitted(_, options) => *options,
        Queued::Request(req) => req.options,
    };
    let retries = options.retries.unwrap_or(shared.cfg.max_retries);
    let (resp, attempts) = match deliver(shared, job, retries) {
        Ok(delivered) => delivered,
        Err(e) => return (Err(e), 0.0),
    };
    // DMA occupancy: one setup per transfer plus the bandwidth-bound
    // streaming time of every word.
    let (dma, clock) = (&shared.driver.dma, shared.driver.hw.clock_mhz);
    let transfer_us = match resp.dma_transfers {
        0 => 0.0,
        n => {
            let setups = cast::f64_from_usize(n - 1);
            dma.occupancy_us(resp.total_stream_words(), clock) + setups * dma.setup_us
        }
    };
    let grant = grant(shared, job.id, transfer_us, resp.total_latency_us());
    if let Some(deadline) = options.deadline_us.or(shared.cfg.default_deadline_us) {
        if grant.complete_us > deadline {
            let err = DriverError::Timeout {
                deadline_us: deadline,
                elapsed_us: grant.complete_us,
            };
            return (Err(err), grant.complete_us);
        }
    }
    shared
        .counters
        .frames_completed
        .fetch_add(cast::u64_from_usize(resp.runs.len()), Ordering::Relaxed);
    if let Some(breakdown) = resp.batch_slabs {
        shared.counters.observe_batch_slabs(breakdown);
    }
    shared.counters.observe_latency(grant.complete_us);
    let served = ServeResponse {
        response: resp,
        board: grant.board,
        start_us: grant.start_us,
        complete_us: grant.complete_us,
        attempts,
    };
    (Ok(served), grant.complete_us)
}

/// Runs a request's delivery attempts until one succeeds or the retry
/// budget is spent, returning the response and the attempts it took.
///
/// Every attempt of a loadable goes out as a raw stream, the unit the
/// fault model corrupts. A clean attempt streams the loadable under its
/// admission at submission; a corrupted one is admitted afresh.
/// Single-frame requests are compiled up front and every attempt keeps
/// the request's model as its source through admission, so compile
/// errors surface before any DMA time is charged. Other payloads carry
/// no one stream to fault and run once.
fn deliver(
    shared: &Shared,
    job: &ServeJob,
    retries: u32,
) -> Result<(InferResponse, u32), DriverError> {
    let driver = &shared.driver;
    let compiled;
    let (stream, source, admitted) = match &job.req {
        Queued::Admitted(admitted, _) => (admitted.loadable(), None, Some(admitted)),
        Queued::Request(req) => match &req.payload {
            InferPayload::Single { model, pixels } => {
                compiled = compile(model, pixels).map_err(DriverError::Compile)?;
                (&compiled, Some(&**model), None)
            }
            _ => return driver.run(req.clone()).map(|resp| (resp, 1)),
        },
    };
    let mut attempt = 0u32;
    loop {
        let mut l = stream.clone();
        let (corrupted, crash) = {
            let mut injector = lock_recover(&shared.injector);
            let corrupted = injector.corrupt(attempt, &mut l.words);
            (corrupted, injector.should_crash())
        };
        if crash {
            // The injected death happens "mid-DMA": the panic unwinds
            // while holding the arbiter lock, poisoning it — the worst
            // state a real crash leaves behind and exactly what
            // `lock_recover` must absorb.
            let _arbiter = lock_recover(&shared.arbiter);
            panic!("injected worker crash serving request {}", job.id);
        }
        let result = match admitted {
            Some(admitted) if !corrupted => driver.run_admitted(admitted),
            _ => driver.run_compiled(&l, source),
        };
        // Only a stream fault the injector put in is transient: a clean
        // stream the driver refuses would fail identically on every
        // retry.
        match result {
            Ok(resp) => return Ok((resp, attempt + 1)),
            Err(
                DriverError::Accelerator(_) | DriverError::Rejected(RejectReason::Invalid { .. }),
            ) if corrupted && attempt < retries => {}
            Err(e) => return Err(e),
        }
        // The rejected stream still occupied the shared DMA: charge a
        // transfer-only grant before the retry goes back to the queue of
        // attempts.
        let wasted = driver.dma.occupancy_us(l.len(), driver.hw.clock_mhz);
        grant(shared, job.id, wasted, wasted);
        shared.counters.retried.fetch_add(1, Ordering::Relaxed);
        attempt += 1;
        shared.trace(
            0.0,
            TraceEvent::Retried {
                request: job.id,
                attempt: u64::from(attempt),
            },
        );
    }
}

/// Grants one transfer on the shared DMA. The grant event is recorded
/// inside the arbiter's critical section: replay re-derives the
/// schedule from grant order, so sink order must match arbiter order
/// exactly.
fn grant(shared: &Shared, request: u64, transfer_us: f64, latency_us: f64) -> Grant {
    let mut arbiter = lock_recover(&shared.arbiter);
    let g = arbiter.grant(0.0, transfer_us, latency_us);
    shared.trace(
        g.start_us,
        TraceEvent::Granted {
            request,
            board: cast::u64_from_usize(g.board),
            arrival_us: 0.0,
            transfer_us,
            latency_us,
            start_us: g.start_us,
            transfer_end_us: g.transfer_end_us,
            complete_us: g.complete_us,
        },
    );
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;
    use netpu_trace::MemorySink;
    use std::sync::Arc;

    fn tfc() -> Arc<netpu_nn::QuantMlp> {
        Arc::new(
            ZooModel::TfcW1A1
                .build_untrained(1, BnMode::Folded)
                .unwrap(),
        )
    }

    #[test]
    fn serves_a_single_request() {
        let server = Server::start(Driver::builder().build(), ServerConfig::default());
        let ticket = server
            .submit(InferRequest::single(tfc(), vec![5u8; 784]))
            .expect_accepted();
        let served = ticket.wait().unwrap();
        assert_eq!(served.attempts, 1);
        assert_eq!(served.board, 0);
        assert_eq!(served.response.runs.len(), 1);
        let m = server.shutdown();
        assert_eq!((m.accepted, m.completed, m.failed), (1, 1, 0));
        assert_eq!(m.frames_completed, 1);
        assert_eq!((m.worker_panics, m.crash_requeued), (0, 0));
        assert!(m.measured_fps().is_some());
    }

    #[test]
    fn compile_errors_fail_without_charging_the_dma() {
        let server = Server::start(Driver::builder().build(), ServerConfig::default());
        let ticket = server
            .submit(InferRequest::single(tfc(), vec![5u8; 3]))
            .expect_accepted();
        assert!(matches!(ticket.wait(), Err(DriverError::Compile(_))));
        let m = server.shutdown();
        assert_eq!((m.completed, m.failed), (0, 1));
        assert_eq!(m.dma_busy_us, 0.0);
    }

    #[test]
    fn clean_refusals_are_not_retried() {
        // A single request is compiled by its worker, so a range-unsound
        // model reaches the driver's admission there, uncorrupted: the
        // refusal is final and costs no DMA time.
        let driver = Driver::builder()
            .hw(netpu_core::HwConfig {
                accumulator_bits: 8,
                ..netpu_core::HwConfig::paper_instance()
            })
            .build();
        let model = ZooModel::TfcW2A2
            .build_untrained(7, BnMode::Folded)
            .unwrap();
        let server = Server::start(
            driver,
            ServerConfig {
                max_retries: 2,
                ..ServerConfig::default()
            },
        );
        let outcome = server
            .submit(InferRequest::single(Arc::new(model), vec![0u8; 784]))
            .expect_accepted()
            .wait();
        assert!(
            matches!(
                outcome,
                Err(DriverError::Rejected(RejectReason::Invalid { .. }))
            ),
            "{outcome:?}"
        );
        let m = server.shutdown();
        assert_eq!((m.failed, m.retried), (1, 0));
        assert_eq!(m.dma_busy_us, 0.0, "a refused stream wastes no grant");
    }

    #[test]
    fn strict_server_denies_range_unsound_loadables_at_admission() {
        let model = tfc();
        let mut loadable = compile(&model, &vec![5u8; 784]).unwrap();
        // An empty declared input interval is an error-class range
        // finding (NPC020) but leaves the stream structurally intact.
        loadable.set_declared_input_range(10, 5);

        let server = Server::start(Driver::builder().build(), ServerConfig::default());
        match server.submit(InferRequest::loadable(loadable.clone())) {
            Submit::Denied(reason) => {
                assert_eq!(reason.code(), "INVALID_STREAM");
                let report = reason.report().expect("invalid carries the report");
                assert!(report.has_range_errors());
                assert!(!report.has_structural_errors());
                assert!(!reason.is_transient());
            }
            Submit::Accepted(_) => panic!("expected Denied"),
        }
        let m = server.shutdown();
        assert_eq!((m.rejected, m.range_flagged, m.range_rejected), (1, 1, 1));

        // A lenient server flags the same stream but serves it anyway.
        let server = Server::start(
            Driver::builder().strict_range(false).build(),
            ServerConfig::default(),
        );
        let ticket = server
            .submit(InferRequest::loadable(loadable))
            .expect_accepted();
        ticket.wait().unwrap();
        let m = server.shutdown();
        assert_eq!((m.completed, m.range_flagged, m.range_rejected), (1, 1, 0));
    }

    #[test]
    fn repeated_submissions_count_per_submission_and_analyze_once() {
        let mut loadable = compile(&tfc(), &vec![5u8; 784]).unwrap();
        loadable.set_declared_input_range(10, 5);
        let server = Server::start(
            Driver::builder().strict_range(false).build(),
            ServerConfig::default(),
        );
        for pixel in [1u8, 2, 3] {
            loadable.replace_input(&vec![pixel; 784]).unwrap();
            let ticket = server
                .submit(InferRequest::loadable(loadable.clone()))
                .expect_accepted();
            ticket.wait().unwrap();
        }
        let m = server.shutdown();
        assert_eq!((m.completed, m.range_flagged, m.range_rejected), (3, 3, 0));
        // One analysis; every later admission is a lookup, and the
        // workers stream the admitted entry without one.
        assert_eq!((m.verdict_misses, m.verdict_hits), (1, 2));
    }

    #[test]
    fn certified_submission_gates_on_translation_validation() {
        let model = tfc();
        // Forge a loadable that passes the structural and range tiers
        // but computes a different function than the claimed source:
        // compile the model with one adjacent weight pair swapped.
        let mut forged = (*model).clone();
        let w = &mut forged.hidden[0].weights;
        let i = (0..w.len() - 1)
            .find(|&i| w[i] != w[i + 1])
            .expect("untrained weights are not constant");
        w.swap(i, i + 1);
        let forged = compile(&forged, &vec![5u8; 784]).unwrap();

        let strict = Server::start(
            Driver::builder().strict_equiv(true).build(),
            ServerConfig::default(),
        );
        match strict.submit_certified(&model, InferRequest::loadable(forged.clone())) {
            Submit::Denied(reason) => {
                assert_eq!(reason.code(), "INVALID_STREAM");
                let report = reason.report().expect("invalid carries the report");
                assert!(report.fired(netpu_check::RuleId::Npc022));
                assert!(!report.has_structural_errors());
                assert!(!report.has_range_errors());
            }
            Submit::Accepted(_) => panic!("expected Denied"),
        }
        // The honest pair certifies equivalent and serves normally.
        let honest = compile(&model, &vec![5u8; 784]).unwrap();
        let ticket = strict
            .submit_certified(&model, InferRequest::loadable(honest))
            .expect_accepted();
        ticket.wait().unwrap();
        let m = strict.shutdown();
        assert_eq!((m.equiv_flagged, m.equiv_rejected), (1, 1));
        assert_eq!((m.accepted, m.rejected, m.completed), (1, 1, 1));

        // A lenient server counts the finding but serves the stream —
        // the third tier is opt-in, mirroring strict_range.
        let lenient = Server::start(Driver::builder().build(), ServerConfig::default());
        let ticket = lenient
            .submit_certified(&model, InferRequest::loadable(forged))
            .expect_accepted();
        ticket.wait().unwrap();
        let m = lenient.shutdown();
        assert_eq!((m.equiv_flagged, m.equiv_rejected), (1, 0));
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn a_certified_loadable_is_analyzed_once() {
        let model = tfc();
        let honest = compile(&model, &vec![5u8; 784]).unwrap();
        let server = Server::start(
            Driver::builder().strict_equiv(true).build(),
            ServerConfig::default(),
        );
        server
            .submit_certified(&model, InferRequest::loadable(honest))
            .expect_accepted()
            .wait()
            .unwrap();
        let m = server.shutdown();
        assert_eq!(m.completed, 1);
        // Admission analyzed the stream against its model; the worker
        // streamed that admission without a second lookup.
        assert_eq!((m.verdict_misses, m.verdict_hits), (1, 0));
    }

    #[test]
    fn strict_equiv_validates_single_requests_against_their_model() {
        let (model, pixels) = (tfc(), vec![5u8; 784]);
        let driver = Driver::builder().strict_equiv(true).build();
        let server = Server::start(driver.clone(), ServerConfig::default());
        server
            .submit(InferRequest::single(model.clone(), pixels.clone()))
            .expect_accepted()
            .wait()
            .unwrap();
        server.shutdown();
        // The worker admitted the compiled stream against its model, so
        // the source-keyed entry is already in the shared store.
        let words = compile(&model, &pixels).unwrap().words;
        let _stream = driver.verdicts.lookup(&words, &driver.hw, Some(&model));
        let stats = driver.verdicts.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
    }

    #[test]
    fn closed_server_answers_closed() {
        let server = Server::start(Driver::builder().build(), ServerConfig::default());
        server.shared.queue.close();
        match server.submit(InferRequest::single(tfc(), vec![0u8; 784])) {
            Submit::Denied(RejectReason::Closed) => {}
            other => panic!("expected Denied(Closed), got {other:?}"),
        }
    }

    #[test]
    fn deadline_zero_times_out() {
        let server = Server::start(Driver::builder().build(), ServerConfig::default());
        let ticket = server
            .submit(InferRequest::single(tfc(), vec![5u8; 784]).with_deadline_us(1.0))
            .expect_accepted();
        match ticket.wait() {
            Err(DriverError::Timeout {
                deadline_us,
                elapsed_us,
            }) => {
                assert_eq!(deadline_us, 1.0);
                assert!(elapsed_us > 1.0);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        let m = server.shutdown();
        assert_eq!(m.timed_out, 1);
        assert_eq!(m.completed, 0);
    }

    #[test]
    fn crashed_worker_requeues_and_completes() {
        let server = Server::start(
            Driver::builder().build(),
            ServerConfig {
                faults: FaultPlan::CrashFirstAttempts(1),
                ..ServerConfig::default()
            },
        );
        let ticket = server
            .submit(InferRequest::single(tfc(), vec![5u8; 784]))
            .expect_accepted();
        // The lone worker dies mid-DMA (poisoning the arbiter lock),
        // recovers its own request off the queue, and completes it.
        let served = ticket.wait().unwrap();
        assert_eq!(served.response.runs.len(), 1);
        let m = server.shutdown();
        assert_eq!((m.worker_panics, m.crash_requeued), (1, 1));
        assert_eq!((m.completed, m.failed), (1, 0));
    }

    #[test]
    fn exhausted_crash_budget_rejects_with_worker_crash() {
        let server = Server::start(
            Driver::builder().build(),
            ServerConfig {
                faults: FaultPlan::CrashFirstAttempts(5),
                crash_requeues: 1,
                ..ServerConfig::default()
            },
        );
        let ticket = server
            .submit(InferRequest::single(tfc(), vec![5u8; 784]))
            .expect_accepted();
        match ticket.wait() {
            Err(DriverError::Rejected(RejectReason::WorkerCrash { crashes })) => {
                assert_eq!(crashes, 2, "one requeue, then the budget is spent");
            }
            other => panic!("expected worker-crash rejection, got {other:?}"),
        }
        let m = server.shutdown();
        assert_eq!((m.worker_panics, m.crash_requeued), (2, 1));
        assert_eq!((m.completed, m.failed), (0, 1));
        // The poisoned arbiter still answers metrics queries.
        assert_eq!(m.makespan_us, 0.0);
    }

    #[test]
    fn crash_recovery_leaves_the_server_serving() {
        // After a crash-rejection, later requests complete normally:
        // the worker survived and the poisoned locks were absorbed.
        let server = Server::start(
            Driver::builder().build(),
            ServerConfig {
                faults: FaultPlan::CrashFirstAttempts(2),
                crash_requeues: 0,
                ..ServerConfig::default()
            },
        );
        for expect_crash in [true, true, false] {
            let outcome = server
                .submit(InferRequest::single(tfc(), vec![5u8; 784]))
                .expect_accepted()
                .wait();
            match (expect_crash, outcome) {
                (true, Err(DriverError::Rejected(RejectReason::WorkerCrash { .. }))) => {}
                (false, Ok(served)) => assert_eq!(served.response.runs.len(), 1),
                (expect_crash, outcome) => {
                    panic!("expect_crash={expect_crash}, got {outcome:?}")
                }
            }
        }
        let m = server.shutdown();
        assert_eq!((m.worker_panics, m.completed, m.failed), (2, 1, 2));
    }

    #[test]
    fn traced_lifecycle_verifies_through_replay() {
        let sink = Arc::new(MemorySink::new());
        let server = Server::start(
            Driver::builder().build(),
            ServerConfig {
                faults: FaultPlan::CrashFirstAttempts(1),
                trace: Some(Arc::clone(&sink) as Arc<dyn TraceSink>),
                ..ServerConfig::default()
            },
        );
        let ticket = server
            .submit(InferRequest::single(tfc(), vec![5u8; 784]))
            .expect_accepted();
        ticket.wait().unwrap();
        server.shutdown();
        let records = sink.take();
        let summary = netpu_trace::verify(&records).expect("trace verifies");
        assert_eq!((summary.requests, summary.completed), (1, 1));
        assert_eq!((summary.crashes, summary.requeues), (1, 1));
        assert_eq!(summary.grants, 1);
        assert!(summary.makespan_us > 0.0);
    }

    #[test]
    fn lock_recover_returns_data_from_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7u32));
        let poisoner = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        // Recovery hands out the data as the dying thread left it, and
        // the lock keeps working for every later acquisition.
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 8);
        assert!(m.is_poisoned(), "recovery reads through, not clears");
    }

    #[test]
    fn lock_recover_is_a_plain_lock_when_unpoisoned() {
        let m = Mutex::new(vec![1, 2]);
        lock_recover(&m).push(3);
        assert_eq!(*lock_recover(&m), vec![1, 2, 3]);
    }
}
