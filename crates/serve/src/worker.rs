//! The crash-only worker pool both serving stacks embed.
//!
//! [`Server`](crate::Server) and `netpu-fleet`'s `FleetServer` differ in
//! what serving one request means — a driver run through the shared
//! DMA arbiter, or a cache resolve, value kernel and board placement —
//! but not in how a request travels from admission to its one outcome.
//! That path lives here, once (DESIGN.md §4.7):
//!
//! * a stack implements [`Stage`]: its queues, its counters, its trace
//!   sink and crash budget, and [`Stage::serve`], one serving attempt;
//! * [`Stage::enqueue`] queues a [`Job`] and hands the client a
//!   [`Ticket`];
//! * [`WorkerPool::spawn`] starts the workers. Each pops from its own
//!   queue and runs the attempt under `catch_unwind`. A returned
//!   outcome is counted, traced and delivered. A panic kills the
//!   request, never the worker: the job goes back on the queue it was
//!   popped from, or, once its crash budget is spent or the queue
//!   refuses it, is rejected with [`RejectReason::WorkerCrash`].
//!
//! Delivery is exactly-once by ownership: [`Job`] owns the client's
//! one-shot sender and only [`Job::deliver`], which consumes the job,
//! sends on it. A popped job moves into exactly one of delivery,
//! requeue or rejection, and a panicking attempt holds it only by
//! reference, so it cannot take the sender with it.

use crate::queue::{BoundedQueue, Push};
use netpu_check::RejectReason;
use netpu_runtime::{cast, DriverError};
use netpu_trace::{TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};

#[cfg(loom)]
use loom::thread;
#[cfg(not(loom))]
use std::thread;

/// One queued request: what the stack needs to serve it, and the
/// client's one-shot response channel.
pub struct Job<R, T> {
    /// Stack-wide request id (the trace's request key).
    pub id: u64,
    /// The request itself.
    pub req: R,
    /// Virtual time the request arrived, µs; the pool's lifecycle
    /// events carry this timestamp.
    pub arrival_us: f64,
    tx: mpsc::Sender<Result<T, DriverError>>,
    /// Worker deaths this request has survived so far.
    crashes: u32,
}

impl<R, T> Job<R, T> {
    /// Delivers the request's terminal outcome, consuming the job: a
    /// job is delivered at most once by construction.
    fn deliver(self, outcome: Result<T, DriverError>) {
        let _ = self.tx.send(outcome);
    }
}

/// Handle to one queued request.
#[derive(Debug)]
pub struct Ticket<T> {
    rx: mpsc::Receiver<Result<T, DriverError>>,
}

impl<T> Ticket<T> {
    /// Blocks until the request completes, fails, or the server is
    /// dropped with the request unserved.
    pub fn wait(self) -> Result<T, DriverError> {
        self.recv().unwrap_or_else(|_| {
            Err(DriverError::Queue {
                reason: "server shut down before the request completed".into(),
            })
        })
    }

    /// Blocks for the outcome without consuming the ticket. Once the
    /// one outcome was taken, or the request was dropped unserved, this
    /// reports the channel disconnected.
    pub fn recv(&self) -> Result<Result<T, DriverError>, mpsc::RecvError> {
        self.rx.recv()
    }
}

/// Outcome of a submission.
#[derive(Debug)]
pub enum Submission<T> {
    /// The request was queued; await the result via the ticket.
    Accepted(Ticket<T>),
    /// Admission refused the request. The unified [`RejectReason`]
    /// says why: [`RejectReason::Invalid`] carries the pre-flight
    /// verifier's NPC findings, [`RejectReason::Throttled`] is a tenant
    /// token bucket, [`RejectReason::QueueFull`] is explicit
    /// backpressure, [`RejectReason::Closed`] means the server has shut
    /// down.
    Denied(RejectReason),
}

impl<T> Submission<T> {
    /// Unwraps the ticket of an accepted submission.
    pub fn expect_accepted(self) -> Ticket<T> {
        match self {
            Submission::Accepted(t) => t,
            Submission::Denied(reason) => panic!("submission was denied: {reason}"),
        }
    }

    /// The rejection reason of a denied submission.
    pub fn denial(&self) -> Option<&RejectReason> {
        match self {
            Submission::Denied(reason) => Some(reason),
            Submission::Accepted(_) => None,
        }
    }
}

/// Locks a mutex, recovering the data on poison. Crash-only recovery
/// depends on this seam: a worker that panics mid-request (possibly
/// while holding a stack's arbiter, injector or board-pool lock)
/// poisons the mutex, and every later acquisition — other workers,
/// metrics snapshots, the recovery path itself — must keep going with
/// the data as the panicking thread left it. Every structure the stacks
/// guard this way stays internally consistent across any panic point:
/// each mutates plain bookkeeping that cannot be observed mid-update
/// through the lock.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The outcome counters every stack keeps. The pool updates all of
/// them; stacks only read them.
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Requests admitted to a queue.
    pub accepted: AtomicU64,
    /// Requests that completed successfully.
    pub completed: AtomicU64,
    /// Requests that failed terminally, crash rejections included.
    pub failed: AtomicU64,
    /// Requests whose deadline elapsed before completion.
    pub timed_out: AtomicU64,
    /// Worker panics absorbed by crash-only recovery.
    pub worker_panics: AtomicU64,
    /// Crashed requests put back on their queue for another attempt.
    pub crash_requeued: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The outcome of one serving attempt, and the virtual µs after the
/// job's arrival at which its terminal trace event is stamped (for a
/// success, also the `Completed` event's latency).
pub type Served<T> = (Result<T, DriverError>, f64);

/// What a serving stack plugs into the pool.
pub trait Stage: Send + Sync + 'static {
    /// The request a job carries.
    type Req: Send + 'static;
    /// A successful response.
    type Resp: Send + 'static;

    /// Queue `i`. Its workers pop from it and crashed jobs go back on
    /// it.
    fn queue(&self, i: usize) -> &BoundedQueue<Job<Self::Req, Self::Resp>>;

    /// The pool's outcome counters.
    fn counters(&self) -> &PoolCounters;

    /// The lifecycle trace sink, if any.
    fn sink(&self) -> Option<&Arc<dyn TraceSink>>;

    /// How many times a crashed job is requeued before it is rejected.
    fn crash_requeues(&self) -> u32;

    /// One serving attempt for `job`, popped from queue `queue`. A
    /// panic anywhere in it is contained by the pool.
    fn serve(&self, queue: usize, job: &mut Job<Self::Req, Self::Resp>) -> Served<Self::Resp>;

    /// Called with the queue depth after every accepted push, fresh or
    /// requeued.
    fn queued(&self, _depth: usize) {}

    /// Records one lifecycle event, if a sink is configured.
    fn trace(&self, t_us: f64, event: TraceEvent) {
        if let Some(sink) = self.sink() {
            sink.record(t_us, event);
        }
    }

    /// Refuses request `id` at admission, tracing the rejection.
    fn deny(&self, id: u64, t_us: f64, reason: RejectReason) -> Submission<Self::Resp> {
        self.trace(t_us, TraceEvent::rejected(id, &reason));
        Submission::Denied(reason)
    }

    /// Queues an admitted request on queue `queue` without blocking; a
    /// full or closed queue denies it.
    fn enqueue(
        &self,
        queue: usize,
        id: u64,
        arrival_us: f64,
        range_flagged: bool,
        req: Self::Req,
    ) -> Submission<Self::Resp> {
        let (tx, rx) = mpsc::channel();
        // The Admitted event is recorded *before* the push: once the
        // job is visible in the queue a worker may serve it to
        // completion immediately, and the request's terminal event
        // must not precede its admission in the trace. A push refusal
        // then legitimately follows Admitted with a Rejected event
        // (Admitted is not terminal).
        self.trace(
            arrival_us,
            TraceEvent::Admitted {
                request: id,
                range_flagged,
            },
        );
        let job = Job {
            id,
            req,
            arrival_us,
            tx,
            crashes: 0,
        };
        match self.queue(queue).push(job) {
            Push::Accepted { depth } => {
                bump(&self.counters().accepted);
                self.queued(depth);
                Submission::Accepted(Ticket { rx })
            }
            Push::Full { len } => {
                self.deny(id, arrival_us, RejectReason::QueueFull { queue_len: len })
            }
            Push::Closed => self.deny(id, arrival_us, RejectReason::Closed),
        }
    }
}

/// The running workers of one stack.
pub struct WorkerPool {
    workers: Vec<thread::JoinHandle<()>>,
    queues: usize,
}

impl WorkerPool {
    /// Starts `workers_per_queue` workers on each of `stage`'s first
    /// `queues` queues. Worker `w` serves queue `w / workers_per_queue`.
    pub fn spawn<S: Stage>(stage: &Arc<S>, queues: usize, workers_per_queue: usize) -> WorkerPool {
        let workers = (0..queues * workers_per_queue)
            .map(|worker| {
                let stage = Arc::clone(stage);
                thread::spawn(move || work(&*stage, worker / workers_per_queue, worker))
            })
            .collect();
        WorkerPool { workers, queues }
    }

    /// Closes every queue, lets the workers drain what is queued, and
    /// joins them.
    pub fn shutdown<S: Stage>(self, stage: &S) {
        for queue in 0..self.queues {
            stage.queue(queue).close();
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn work<S: Stage>(stage: &S, queue: usize, worker: usize) {
    while let Some(mut job) = stage.queue(queue).pop_wait() {
        // Crash-only containment: a panic anywhere in the serving path
        // kills the *request*, never the worker. AssertUnwindSafe is
        // sound here because everything the attempt shares is behind
        // locks re-entered via `lock_recover`, which absorbs the
        // poison instead of cascading it.
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stage.serve(queue, &mut job)
        }));
        match served {
            Ok((outcome, after_us)) => finish(stage, job, outcome, after_us),
            Err(_) => recover_crash(stage, queue, worker, job),
        }
    }
}

/// Counts, traces and delivers one served outcome.
fn finish<S: Stage>(
    stage: &S,
    job: Job<S::Req, S::Resp>,
    outcome: Result<S::Resp, DriverError>,
    after_us: f64,
) {
    let c = stage.counters();
    let t_us = job.arrival_us + after_us;
    match &outcome {
        Ok(_) => {
            bump(&c.completed);
            stage.trace(
                t_us,
                TraceEvent::Completed {
                    request: job.id,
                    latency_us: after_us,
                },
            );
        }
        Err(e) => {
            bump(match e {
                DriverError::Timeout { .. } => &c.timed_out,
                _ => &c.failed,
            });
            stage.trace(
                t_us,
                TraceEvent::Failed {
                    request: job.id,
                    error: e.to_string(),
                },
            );
        }
    }
    job.deliver(outcome);
}

/// Crash-only recovery (DESIGN.md §4.7): a worker panic mid-serve ends
/// in exactly one client-visible outcome — the request is requeued on
/// the queue it was popped from for another attempt, or it is rejected
/// with [`RejectReason::WorkerCrash`]. Never both, never neither.
fn recover_crash<S: Stage>(stage: &S, queue: usize, worker: usize, mut job: Job<S::Req, S::Resp>) {
    let c = stage.counters();
    bump(&c.worker_panics);
    let (id, t_us) = (job.id, job.arrival_us);
    stage.trace(
        t_us,
        TraceEvent::WorkerCrash {
            worker: cast::u64_from_usize(worker),
            request: id,
        },
    );
    job.crashes += 1;
    let crashes = job.crashes;
    if crashes <= stage.crash_requeues() {
        match stage.queue(queue).push_reclaim(job) {
            Ok(depth) => {
                bump(&c.crash_requeued);
                stage.queued(depth);
                stage.trace(
                    t_us,
                    TraceEvent::Requeued {
                        request: id,
                        crashes: u64::from(crashes),
                    },
                );
                return;
            }
            // The queue refused the requeue (full or closed): fall
            // through to an explicit rejection with the job reclaimed.
            Err((reclaimed, _refusal)) => job = reclaimed,
        }
    }
    let reason = RejectReason::WorkerCrash { crashes };
    bump(&c.failed);
    stage.trace(t_us, TraceEvent::rejected(id, &reason));
    job.deliver(Err(DriverError::Rejected(reason)));
}
