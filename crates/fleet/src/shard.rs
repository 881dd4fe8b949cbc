//! The live sharded dispatch core.
//!
//! A [`FleetServer`] partitions its boards into shards, each with its
//! own bounded queue (the loom-checked
//! [`BoundedQueue`](netpu_serve::BoundedQueue) from `netpu-serve`) and
//! its own [`BoardPool`]. Requests route to shards by an FNV-1a hash of
//! their model id, so all traffic for one model lands on one shard —
//! the residency tracker there sees the whole stream of that model's
//! requests and can amortize weight loading across them. Admission is
//! two-gated: the tenant token bucket first (fairness), then the shard
//! queue bound (backpressure); both refusals are explicit, nothing
//! blocks.
//!
//! The workers are `netpu-serve`'s crash-only
//! [`WorkerPool`](netpu_serve::WorkerPool): this module supplies the
//! fleet's [`Stage`] and the pool does the rest. Each worker pulls from
//! its shard's queue, resolves the model through the shared
//! [`CompiledModelCache`] (full admission exactly once per model
//! fleet-wide), takes the class from the admitted model's bit-exact
//! [`ValueKernel`](netpu_runtime::ValueKernel), and charges the
//! placement to the shard's virtual-time board pool. Cycles and latency
//! never depend on the input, so they come from the timing
//! certificate; no request re-simulates the stream.
//!
//! The simulator stays on as a sampled oracle. Every request whose
//! fleet-wide id is a multiple of [`SHADOW_EVERY`] is also run through
//! [`ValueKernel::shadow`](netpu_runtime::ValueKernel::shadow): its
//! input spliced into a copy of the admitted words and simulated. If
//! the simulator's class or winning score differs from the kernel's,
//! or its cycle count from the certificate's, the request fails closed
//! with [`DriverError::ValueMismatch`] or
//! [`DriverError::CycleMismatch`], counted in
//! [`FleetMetrics::shadow_mismatches`].

use crate::cache::CompiledModelCache;
use crate::metrics::{FleetCounters, FleetMetrics, ShardStats};
use crate::sched::{BoardPool, DispatchPolicy};
use crate::tenant::{TenantLimiter, TenantPolicy};
use netpu_arith::cast;
use netpu_nn::QuantMlp;
use netpu_runtime::{Driver, DriverError, SHADOW_EVERY};
use netpu_serve::worker::{self, lock_recover, Job, PoolCounters, Served, Stage, Submission};
use netpu_serve::{BoundedQueue, FaultInjector, FaultPlan, RejectReason, WorkerPool};
use netpu_trace::{TraceEvent, TraceSink};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fleet deployment shape.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of dispatch shards (each owns boards and a queue).
    pub shards: usize,
    /// Boards per shard.
    pub boards_per_shard: usize,
    /// Bound of each shard's admission queue.
    pub queue_depth: usize,
    /// Board placement / dispatch ordering policy.
    pub policy: DispatchPolicy,
    /// Per-tenant admission rate policy.
    pub tenant_policy: TenantPolicy,
    /// Compiled-model cache budget, bytes.
    pub cache_capacity_bytes: u64,
    /// How many times a request whose worker died mid-serve is put
    /// back on its shard queue before crash recovery gives up and
    /// rejects it with [`RejectReason::WorkerCrash`].
    pub crash_requeues: u32,
    /// Worker faults to inject (tests the crash-only recovery path).
    pub faults: FaultPlan,
    /// Structured event sink recording the request lifecycle; `None`
    /// (the default) records nothing. Fleet traces carry lifecycle
    /// events only — per-shard DMA schedules are not replayed against
    /// the single-engine grant recurrence, which is a `netpu-serve`
    /// level check.
    pub trace: Option<Arc<dyn TraceSink>>,
}

impl Default for FleetConfig {
    /// Two shards of four boards, swap-aware, 64-deep queues, 64 MiB
    /// of compiled-model cache.
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 2,
            boards_per_shard: 4,
            queue_depth: 64,
            policy: DispatchPolicy::SwapAware,
            tenant_policy: TenantPolicy::default(),
            cache_capacity_bytes: 64 << 20,
            crash_requeues: 1,
            faults: FaultPlan::None,
            trace: None,
        }
    }
}

/// One inference request entering the fleet.
#[derive(Clone, Debug)]
pub struct FleetRequest {
    /// Tenant the request belongs to (token-bucket key).
    pub tenant: u64,
    /// Fleet-wide model id (cache key and shard-routing key).
    pub model_id: u64,
    /// The model itself, shared across requests.
    pub model: Arc<QuantMlp>,
    /// Input pixels.
    pub pixels: Vec<u8>,
    /// Optional completion deadline relative to submission, µs.
    pub deadline_us: Option<f64>,
}

/// A successfully served fleet request.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetResponse {
    /// Predicted class.
    pub class: usize,
    /// Shard the request ran on.
    pub shard: usize,
    /// Board within the shard.
    pub board: usize,
    /// End-to-end virtual latency (queue + swap + compute), µs.
    pub latency_us: f64,
    /// The model came out of the compiled cache (no admission run).
    pub cache_hit: bool,
    /// The chosen board already held the model's weights.
    pub resident_hit: bool,
    /// The placement displaced another model's residency.
    pub swapped: bool,
}

/// Handle to one queued fleet request.
pub type FleetTicket = worker::Ticket<FleetResponse>;

/// Outcome of a [`FleetServer::submit`] call.
pub type FleetSubmit = Submission<FleetResponse>;

type FleetJob = Job<FleetRequest, FleetResponse>;

struct Shard {
    queue: BoundedQueue<FleetJob>,
    pool: Mutex<BoardPool>,
}

struct Shared {
    cfg: FleetConfig,
    cache: CompiledModelCache,
    shards: Vec<Shard>,
    limiter: Mutex<TenantLimiter>,
    injector: Mutex<FaultInjector>,
    counters: FleetCounters,
    next_request: AtomicU64,
    started: Instant,
}

impl Stage for Shared {
    type Req = FleetRequest;
    type Resp = FleetResponse;

    fn queue(&self, shard: usize) -> &BoundedQueue<FleetJob> {
        &self.shards[shard].queue
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

    fn serve(&self, shard: usize, job: &mut FleetJob) -> Served<FleetResponse> {
        // Lifecycle events stay at the arrival time; a completion is
        // stamped at arrival plus its latency.
        let outcome = serve_one(self, shard, job);
        let after_us = outcome.as_ref().map_or(0.0, |resp| resp.latency_us);
        (outcome, after_us)
    }
}

/// The sharded multi-tenant fleet server.
pub struct FleetServer {
    shared: Arc<Shared>,
    workers: WorkerPool,
}

/// FNV-1a over the model id: the shard-routing hash. `std`'s default
/// hasher is seeded per-process, which would make routing — and with it
/// residency behaviour — non-reproducible across runs.
fn route(model_id: u64, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in model_id.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    cast::usize_sat(hash % cast::u64_from_usize(shards.max(1)))
}

impl FleetServer {
    /// Starts the fleet: `boards_per_shard` workers per shard.
    pub fn start(driver: Driver, cfg: FleetConfig) -> FleetServer {
        assert!(cfg.shards > 0, "at least one shard");
        assert!(cfg.boards_per_shard > 0, "at least one board per shard");
        assert!(cfg.queue_depth > 0, "queue bound must be positive");
        let shards = (0..cfg.shards)
            .map(|_| Shard {
                queue: BoundedQueue::new(cfg.queue_depth),
                pool: Mutex::new(BoardPool::new(cfg.boards_per_shard)),
            })
            .collect();
        let shared = Arc::new(Shared {
            cache: CompiledModelCache::new(driver, cfg.cache_capacity_bytes),
            shards,
            limiter: Mutex::new(TenantLimiter::new(cfg.tenant_policy)),
            injector: Mutex::new(FaultInjector::new(cfg.faults.clone())),
            counters: FleetCounters::default(),
            next_request: AtomicU64::new(0),
            started: Instant::now(),
            cfg,
        });
        let workers = WorkerPool::spawn(&shared, shared.cfg.shards, shared.cfg.boards_per_shard);
        FleetServer { shared, workers }
    }

    /// Submits a request. Admission is non-blocking: token-bucket and
    /// queue-bound refusals return immediately so the caller can shed
    /// or defer load.
    pub fn submit(&self, req: FleetRequest) -> FleetSubmit {
        self.submit_at(req, self.now_us())
    }

    /// [`submit`](Self::submit) at a caller-supplied arrival time: the
    /// token buckets and the board pools read `arrival_us` as the
    /// request's arrival. The replay harness submits at virtual arrival
    /// times through this.
    pub(crate) fn submit_at(&self, req: FleetRequest, arrival_us: f64) -> FleetSubmit {
        use std::sync::atomic::Ordering;
        let c = &self.shared.counters;
        c.bump(&c.submitted);
        let id = self.shared.next_request.fetch_add(1, Ordering::Relaxed);
        self.shared.trace(
            arrival_us,
            TraceEvent::Submitted {
                request: id,
                tenant: req.tenant,
                model: req.model_id,
            },
        );
        if !lock_recover(&self.shared.limiter).try_admit(req.tenant, arrival_us) {
            c.bump(&c.throttled);
            let reason = RejectReason::Throttled { tenant: req.tenant };
            return self.shared.deny(id, arrival_us, reason);
        }
        let shard = route(req.model_id, self.shared.cfg.shards);
        let submitted = self.shared.enqueue(shard, id, arrival_us, false, req);
        if let FleetSubmit::Denied(RejectReason::QueueFull { .. }) = submitted {
            c.bump(&c.rejected_busy);
        }
        submitted
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> FleetMetrics {
        gather(&self.shared)
    }

    /// Closes every shard queue, drains in-flight work, joins the
    /// workers, and returns the final metrics.
    pub fn shutdown(self) -> FleetMetrics {
        self.workers.shutdown(&*self.shared);
        gather(&self.shared)
    }

    fn now_us(&self) -> f64 {
        self.shared.started.elapsed().as_secs_f64() * 1e6
    }
}

fn gather(shared: &Shared) -> FleetMetrics {
    use std::sync::atomic::Ordering;
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let c = &shared.counters;
    FleetMetrics {
        submitted: load(&c.submitted),
        accepted: load(&c.pool.accepted),
        throttled: load(&c.throttled),
        rejected_busy: load(&c.rejected_busy),
        completed: load(&c.pool.completed),
        failed: load(&c.pool.failed),
        timed_out: load(&c.pool.timed_out),
        worker_panics: load(&c.pool.worker_panics),
        crash_requeued: load(&c.pool.crash_requeued),
        shadow_checks: load(&c.shadow_checks),
        shadow_mismatches: load(&c.shadow_mismatches),
        cache: shared.cache.stats(),
        shards: shared
            .shards
            .iter()
            .map(|s| {
                let pool = lock_recover(&s.pool);
                ShardStats {
                    placements: pool.placements(),
                    swaps: pool.swaps(),
                    resident_hits: pool.resident_hits(),
                    dma_busy_us: pool.arbiter().dma_busy_us(),
                    makespan_us: pool.arbiter().makespan_us(),
                }
            })
            .collect(),
    }
}

fn serve_one(shared: &Shared, shard: usize, job: &FleetJob) -> Result<FleetResponse, DriverError> {
    if lock_recover(&shared.injector).should_crash() {
        // The injected death happens while holding the shard's pool
        // lock, poisoning it — the worst state a real crash leaves
        // behind and exactly what `lock_recover` must absorb.
        let _pool = lock_recover(&shared.shards[shard].pool);
        panic!("injected worker crash serving request {}", job.id);
    }
    let (admitted, cache_hit) = shared.cache.resolve(job.req.model_id, &job.req.model)?;
    let (class, score) = admitted.kernel.infer(&job.req.pixels)?;
    if job.id.is_multiple_of(SHADOW_EVERY) {
        let c = &shared.counters;
        c.bump(&c.shadow_checks);
        if let Err(e) = admitted.kernel.shadow(&job.req.pixels, (class, score)) {
            if let DriverError::ValueMismatch { .. } | DriverError::CycleMismatch { .. } = e {
                c.bump(&c.shadow_mismatches);
            }
            return Err(e);
        }
    }
    let placement = lock_recover(&shared.shards[shard].pool).place(
        shared.cfg.policy,
        &admitted,
        job.arrival_us,
    );
    let latency_us = placement.grant.complete_us - job.arrival_us;
    if let Some(deadline_us) = job.req.deadline_us {
        if latency_us > deadline_us {
            return Err(DriverError::Timeout {
                deadline_us,
                elapsed_us: latency_us,
            });
        }
    }
    Ok(FleetResponse {
        class,
        shard,
        board: placement.grant.board,
        latency_us,
        cache_hit,
        resident_hit: placement.resident_hit,
        swapped: placement.swapped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;

    fn request(tenant: u64, model_id: u64, model: &Arc<QuantMlp>, seed: u8) -> FleetRequest {
        FleetRequest {
            tenant,
            model_id,
            model: Arc::clone(model),
            pixels: vec![seed; model.input.len],
            deadline_us: None,
        }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for id in 0..100 {
            let s = route(id, 8);
            assert!(s < 8);
            assert_eq!(s, route(id, 8), "routing must be a pure function");
        }
        // Several models actually spread over shards.
        let distinct: std::collections::HashSet<usize> = (0..100).map(|id| route(id, 8)).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn fleet_serves_across_shards_and_reuses_admission() {
        let model = Arc::new(
            ZooModel::SfcW1A1
                .build_untrained(11, BnMode::Folded)
                .unwrap(),
        );
        let model2 = Arc::new(
            ZooModel::SfcW2A2
                .build_untrained(12, BnMode::Folded)
                .unwrap(),
        );
        let fleet = FleetServer::start(
            Driver::builder().build(),
            FleetConfig {
                shards: 2,
                boards_per_shard: 2,
                ..FleetConfig::default()
            },
        );
        let mut tickets = Vec::new();
        for i in 0..8u8 {
            let (id, m) = if i % 2 == 0 {
                (1, &model)
            } else {
                (2, &model2)
            };
            tickets.push(
                fleet
                    .submit(request(u64::from(i % 3), id, m, i))
                    .expect_accepted(),
            );
        }
        for t in tickets {
            let resp = t.wait().unwrap();
            assert!(resp.latency_us > 0.0);
        }
        let m = fleet.shutdown();
        assert_eq!(m.completed, 8);
        assert_eq!((m.failed, m.timed_out, m.rejected_busy), (0, 0, 0));
        // Two models, eight requests: admission ran exactly twice.
        assert_eq!(m.cache.misses, 2);
        assert_eq!(m.cache.hits, 6);
        let placements: u64 = m.shards.iter().map(|s| s.placements).sum();
        assert_eq!(placements, 8);
    }

    #[test]
    fn served_class_matches_the_driver() {
        let model = Arc::new(
            ZooModel::TfcW1A1
                .build_untrained(13, BnMode::Folded)
                .unwrap(),
        );
        let driver = Driver::builder().build();
        let pixels = vec![77u8; model.input.len];
        let direct = driver.infer(&model, &pixels).unwrap();
        let fleet = FleetServer::start(driver, FleetConfig::default());
        let resp = fleet
            .submit(FleetRequest {
                tenant: 0,
                model_id: 9,
                model: Arc::clone(&model),
                pixels,
                deadline_us: None,
            })
            .expect_accepted()
            .wait()
            .unwrap();
        assert_eq!(resp.class, direct.class);
        fleet.shutdown();
    }

    #[test]
    fn cache_hit_flags_agree_with_the_hit_count_under_concurrent_churn() {
        // Six models in a cache that holds about two: workers admit,
        // hit and evict concurrently, and every response's `cache_hit`
        // must come from the lookup that served it.
        let models: Vec<Arc<QuantMlp>> = (0..6)
            .map(|i| {
                Arc::new(
                    ZooModel::TfcW1A1
                        .build_untrained(30 + i, BnMode::Folded)
                        .unwrap(),
                )
            })
            .collect();
        let zeros = vec![0u8; models[0].input.len];
        let stream_bytes = netpu_compiler::compile(&models[0], &zeros).unwrap().len() as u64 * 8;
        let fleet = FleetServer::start(
            Driver::builder().build(),
            FleetConfig {
                shards: 2,
                boards_per_shard: 2,
                queue_depth: 256,
                cache_capacity_bytes: stream_bytes * 5 / 2,
                ..FleetConfig::default()
            },
        );
        let hits: u64 = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..3u64)
                .map(|t| {
                    let (fleet, models) = (&fleet, &models);
                    scope.spawn(move || {
                        let tickets: Vec<FleetTicket> = (0..40u64)
                            .map(|i| {
                                let m = cast::usize_sat((i * 7 + t) % 6);
                                let req = request(t, m as u64, &models[m], i as u8);
                                fleet.submit(req).expect_accepted()
                            })
                            .collect();
                        tickets
                            .into_iter()
                            .map(|t| u64::from(t.wait().unwrap().cache_hit))
                            .sum::<u64>()
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).sum()
        });
        let m = fleet.shutdown();
        assert_eq!(m.completed, 120);
        assert!(m.cache.evictions > 0, "the budget forced no churn");
        assert_eq!(hits, m.cache.hits);
        assert_eq!(m.cache.hits + m.cache.misses, 120);
    }

    #[test]
    fn shadow_mismatch_fails_closed_and_the_trace_verifies() {
        let model = Arc::new(
            ZooModel::TfcW1A1
                .build_untrained(21, BnMode::Folded)
                .unwrap(),
        );
        let other = ZooModel::TfcW1A1
            .build_untrained(22, BnMode::Folded)
            .unwrap();
        let sink = Arc::new(netpu_trace::MemorySink::new());
        let fleet = FleetServer::start(
            Driver::builder().build(),
            FleetConfig {
                shards: 1,
                boards_per_shard: 1,
                trace: Some(Arc::clone(&sink) as Arc<dyn TraceSink>),
                ..FleetConfig::default()
            },
        );
        // Record another model's kernel in the model's verdict-store
        // entry before its first admission.
        let cache = &fleet.shared.cache;
        let impostor = cache.get_or_admit(2, &other).unwrap();
        let driver = cache.driver();
        let zeros = vec![0u8; model.input.len];
        let words = netpu_compiler::compile(&model, &zeros).unwrap().words;
        let (stream, other_stream) = (
            driver.verdicts.lookup(&words, &driver.hw, None),
            driver.verdicts.lookup(impostor.words(), &driver.hw, None),
        );
        let slot = driver.verdicts.value(&other_stream, |_| unreachable!());
        driver.verdicts.value(&stream, |_| (slot.clone(), 0));
        cache.get_or_admit(1, &model).unwrap();
        let seed = (0u8..=255)
            .find(|&v| {
                let px = vec![v; model.input.len];
                let t = netpu_nn::reference::infer_traced(&model, &px);
                impostor.kernel.infer(&px).unwrap() != (t.class, t.scores[t.class])
            })
            .expect("two random models disagree somewhere");
        // Request id 0 is shadowed.
        let outcome = fleet
            .submit(request(0, 1, &model, seed))
            .expect_accepted()
            .wait();
        assert!(
            matches!(outcome, Err(DriverError::ValueMismatch { .. })),
            "{outcome:?}"
        );
        let m = fleet.shutdown();
        assert_eq!((m.shadow_checks, m.shadow_mismatches), (1, 1));
        assert_eq!((m.completed, m.failed), (0, 1));
        let summary = netpu_trace::verify(&sink.take()).expect("trace verifies");
        assert_eq!((summary.requests, summary.failed), (1, 1));
    }

    #[test]
    fn one_request_in_shadow_every_is_shadowed() {
        let model = Arc::new(
            ZooModel::TfcW1A1
                .build_untrained(23, BnMode::Folded)
                .unwrap(),
        );
        let fleet = FleetServer::start(
            Driver::builder().build(),
            FleetConfig {
                shards: 1,
                boards_per_shard: 1,
                queue_depth: 256,
                tenant_policy: TenantPolicy {
                    rate_rps: 1e9,
                    burst: 1e9,
                },
                ..FleetConfig::default()
            },
        );
        let n = 2 * SHADOW_EVERY + 1;
        let tickets: Vec<FleetTicket> = (0..n)
            .map(|i| {
                fleet
                    .submit(request(0, 1, &model, i as u8))
                    .expect_accepted()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let m = fleet.shutdown();
        assert_eq!(
            (m.completed, m.shadow_checks, m.shadow_mismatches),
            (n, 3, 0)
        );
    }

    #[test]
    fn token_bucket_throttles_a_flooding_tenant() {
        let model = Arc::new(
            ZooModel::SfcW1A1
                .build_untrained(14, BnMode::Folded)
                .unwrap(),
        );
        let fleet = FleetServer::start(
            Driver::builder().build(),
            FleetConfig {
                tenant_policy: TenantPolicy {
                    rate_rps: 1.0,
                    burst: 2.0,
                },
                ..FleetConfig::default()
            },
        );
        let mut accepted = 0;
        let mut throttled = 0;
        let mut tickets = Vec::new();
        for i in 0..6u8 {
            match fleet.submit(request(7, 1, &model, i)) {
                FleetSubmit::Accepted(t) => {
                    accepted += 1;
                    tickets.push(t);
                }
                FleetSubmit::Denied(RejectReason::Throttled { tenant }) => {
                    assert_eq!(tenant, 7);
                    throttled += 1;
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert_eq!(accepted, 2, "burst allowance is two");
        assert_eq!(throttled, 4);
        for t in tickets {
            t.wait().unwrap();
        }
        let m = fleet.shutdown();
        assert_eq!(m.throttled, 4);
        assert_eq!(m.completed, 2);
    }

    #[test]
    fn crashed_worker_requeues_to_its_own_shard_and_completes() {
        let model = Arc::new(
            ZooModel::SfcW1A1
                .build_untrained(15, BnMode::Folded)
                .unwrap(),
        );
        let sink = Arc::new(netpu_trace::MemorySink::new());
        let fleet = FleetServer::start(
            Driver::builder().build(),
            FleetConfig {
                shards: 1,
                boards_per_shard: 1,
                faults: FaultPlan::CrashFirstAttempts(1),
                trace: Some(Arc::clone(&sink) as Arc<dyn TraceSink>),
                ..FleetConfig::default()
            },
        );
        let resp = fleet
            .submit(request(0, 1, &model, 42))
            .expect_accepted()
            .wait()
            .unwrap();
        assert_eq!(resp.shard, 0);
        let m = fleet.shutdown();
        assert_eq!((m.worker_panics, m.crash_requeued), (1, 1));
        assert_eq!((m.completed, m.failed), (1, 0));
        // The lifecycle trace verifies: crash resolved by a requeue,
        // exactly one terminal outcome.
        let summary = netpu_trace::verify(&sink.take()).expect("trace verifies");
        assert_eq!((summary.requests, summary.completed), (1, 1));
        assert_eq!((summary.crashes, summary.requeues), (1, 1));
    }

    #[test]
    fn exhausted_crash_budget_rejects_with_worker_crash() {
        let model = Arc::new(
            ZooModel::SfcW1A1
                .build_untrained(16, BnMode::Folded)
                .unwrap(),
        );
        let fleet = FleetServer::start(
            Driver::builder().build(),
            FleetConfig {
                shards: 1,
                boards_per_shard: 1,
                faults: FaultPlan::CrashFirstAttempts(5),
                crash_requeues: 1,
                ..FleetConfig::default()
            },
        );
        let outcome = fleet
            .submit(request(0, 1, &model, 7))
            .expect_accepted()
            .wait();
        match outcome {
            Err(DriverError::Rejected(RejectReason::WorkerCrash { crashes })) => {
                assert_eq!(crashes, 2, "one requeue, then the budget is spent");
            }
            other => panic!("expected worker-crash rejection, got {other:?}"),
        }
        let m = fleet.shutdown();
        assert_eq!((m.worker_panics, m.crash_requeued), (2, 1));
        assert_eq!((m.completed, m.failed), (0, 1));
    }
}
