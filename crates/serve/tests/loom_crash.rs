#![cfg(loom)]
//! Crash-only recovery (DESIGN.md §4.7) under perturbed schedules
//! (`RUSTFLAGS="--cfg loom" cargo test -p netpu-serve --test loom_crash`).
//!
//! Both serving stacks promise that a worker panic mid-serve ends in
//! **exactly one** client-visible outcome: the request is requeued for
//! another attempt, or rejected with `WorkerCrash` — never both, never
//! neither, and never a second delivery. These models drive the real
//! [`WorkerPool`] over the loom-shimmed [`BoundedQueue`] with a
//! scripted [`Stage`] whose attempts panic on cue, some **while
//! holding the arbiter lock** (the worst state a real crash leaves
//! behind). Deliveries are counted through the real tickets: exactly
//! once means one `recv` succeeds and the next reports the channel
//! disconnected.
//!
//! Three models:
//!
//! * **exactly-once under crash storms** — crashes before and after the
//!   DMA grant across concurrent workers: every request resolves to
//!   exactly one outcome, panics/requeues/rejections balance, and the
//!   poisoned arbiter keeps granting consistently.
//! * **closed-queue requeue refusal** — a crash whose requeue races a
//!   shutdown must degrade to an explicit rejection, not a silent
//!   disconnect.
//! * **late crash** — a panic after the attempt's DMA grant, the
//!   latest point an attempt can die (delivery runs after the attempt
//!   returns), is still requeued and delivered once, with the wasted
//!   transfer charged.

use netpu_runtime::DriverError;
use netpu_serve::worker::{lock_recover, Job, PoolCounters, Served, Stage, Submission, Ticket};
use netpu_serve::{BoundedQueue, DmaArbiter, RejectReason, TraceSink, WorkerPool};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

const TRANSFER_US: f64 = 10.0;

/// Where an injected panic unwinds within one attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// No fault: the attempt grants a transfer and succeeds.
    None,
    /// Panic before the grant, while holding the arbiter lock.
    Early,
    /// Panic after the grant, just before the attempt returns.
    Late,
}

/// A scripted stack: attempt `k` (in global pop order) gets
/// `script[k]`; attempts past the script run fault-free.
struct Model {
    queue: BoundedQueue<Job<(), ()>>,
    counters: PoolCounters,
    arbiter: Mutex<DmaArbiter>,
    script: Mutex<Vec<Fault>>,
    crash_requeues: u32,
}

impl Stage for Model {
    type Req = ();
    type Resp = ();

    fn queue(&self, _queue: usize) -> &BoundedQueue<Job<(), ()>> {
        &self.queue
    }

    fn counters(&self) -> &PoolCounters {
        &self.counters
    }

    fn sink(&self) -> Option<&Arc<dyn TraceSink>> {
        None
    }

    fn crash_requeues(&self) -> u32 {
        self.crash_requeues
    }

    fn serve(&self, _queue: usize, job: &mut Job<(), ()>) -> Served<()> {
        let fault = {
            let mut script = lock_recover(&self.script);
            if script.is_empty() {
                Fault::None
            } else {
                script.remove(0)
            }
        };
        if fault == Fault::Early {
            let _arbiter = lock_recover(&self.arbiter);
            panic!("injected worker crash serving request {}", job.id);
        }
        let g = lock_recover(&self.arbiter).grant(0.0, TRANSFER_US, TRANSFER_US);
        assert!(g.transfer_end_us >= g.start_us);
        if fault == Fault::Late {
            panic!(
                "injected worker crash after the grant of request {}",
                job.id
            );
        }
        (Ok(()), g.complete_us)
    }
}

fn model(capacity: usize, crash_requeues: u32, script: Vec<Fault>) -> Arc<Model> {
    Arc::new(Model {
        queue: BoundedQueue::new(capacity),
        counters: PoolCounters::default(),
        arbiter: Mutex::new(DmaArbiter::new(2)),
        script: Mutex::new(script),
        crash_requeues,
    })
}

fn submit_all(m: &Model, jobs: u64) -> Vec<Ticket<()>> {
    (0..jobs)
        .map(|id| match m.enqueue(0, id, 0.0, false, ()) {
            Submission::Accepted(t) => t,
            Submission::Denied(reason) => panic!("admission refused: {reason}"),
        })
        .collect()
}

/// Takes each ticket's one outcome, then checks its channel reports
/// disconnected: no second delivery is pending or can ever come.
/// Returns `(successes, crash rejections)`.
fn outcomes(tickets: &[Ticket<()>]) -> (usize, usize) {
    let (mut ok, mut rejected) = (0, 0);
    for (id, t) in tickets.iter().enumerate() {
        match t.recv() {
            Ok(Ok(())) => ok += 1,
            Ok(Err(DriverError::Rejected(RejectReason::WorkerCrash { .. }))) => rejected += 1,
            other => panic!("request {id}: unexpected outcome {other:?}"),
        }
        assert!(t.recv().is_err(), "request {id} delivered twice");
    }
    (ok, rejected)
}

fn load(counter: &std::sync::atomic::AtomicU64) -> usize {
    counter.load(Ordering::SeqCst) as usize
}

/// Silences the injected panics (each model iteration unwinds several
/// times by design) while forwarding any *unexpected* panic to the
/// previous hook. Installed once for the whole test binary.
fn quiet_injected_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected worker crash"));
            if !injected {
                prev(info);
            }
        }));
    });
}

#[test]
fn crash_storm_delivers_each_outcome_exactly_once() {
    quiet_injected_panics();
    loom::model(|| {
        const JOBS: u64 = 4;
        // Three early crashes and one late crash land on the first
        // four pops, however the workers interleave.
        let m = model(
            4,
            1,
            vec![Fault::Early, Fault::Early, Fault::Early, Fault::Late],
        );
        let tickets = submit_all(&m, JOBS);
        let pool = WorkerPool::spawn(&m, 1, 2);
        // A lost outcome would block this `recv` until the model
        // watchdog fires.
        let (successes, rejections) = outcomes(&tickets);
        pool.shutdown(&*m);

        let c = &m.counters;
        assert_eq!(successes + rejections, JOBS as usize);
        assert_eq!(load(&c.completed), successes);
        assert_eq!(load(&c.failed), rejections);
        assert_eq!(load(&c.worker_panics), 4, "every scripted fault fired");
        // Each crash resolved as a requeue or a rejection — never both,
        // never neither. With a budget of one requeue, a rejection
        // needs the same job crashed twice.
        let requeued = load(&c.crash_requeued);
        assert_eq!(requeued + rejections, 4);
        assert!(rejections <= 2, "rejections = {rejections}");
        // The arbiter was poisoned by every early crash, yet its
        // bookkeeping stayed exact: one transfer per success plus the
        // one the late crash charged before dying.
        let busy = lock_recover(&m.arbiter).dma_busy_us();
        assert!((busy - (successes + 1) as f64 * TRANSFER_US).abs() < 1e-9);
        assert!(m.queue.is_empty());
    });
}

#[test]
fn requeue_refused_by_shutdown_degrades_to_explicit_rejection() {
    quiet_injected_panics();
    loom::model(|| {
        let m = model(2, 1, vec![Fault::Early]);
        let tickets = submit_all(&m, 2);
        // Shutdown races the workers: admission closes while both
        // queued jobs are still in flight, so the crashed job's
        // requeue is refused (`Push::Closed`) even though its crash
        // budget is unspent — recovery must reclaim it and answer the
        // client with an explicit rejection.
        m.queue.close();
        let pool = WorkerPool::spawn(&m, 1, 2);
        let (successes, rejections) = outcomes(&tickets);
        pool.shutdown(&*m);

        assert_eq!((successes, rejections), (1, 1));
        let c = &m.counters;
        assert_eq!(load(&c.worker_panics), 1);
        assert_eq!(load(&c.crash_requeued), 0);
    });
}

#[test]
fn late_crash_is_requeued_and_delivered_once() {
    quiet_injected_panics();
    loom::model(|| {
        let m = model(1, 1, vec![Fault::Late]);
        let tickets = submit_all(&m, 1);
        let pool = WorkerPool::spawn(&m, 1, 1);
        let (successes, rejections) = outcomes(&tickets);
        pool.shutdown(&*m);

        // The crashed attempt's grant stays charged, but its outcome
        // never went out: the requeued attempt delivers the only one.
        assert_eq!((successes, rejections), (1, 0));
        let c = &m.counters;
        assert_eq!(load(&c.worker_panics), 1);
        assert_eq!(load(&c.crash_requeued), 1);
        assert_eq!(load(&c.completed), 1);
        let busy = lock_recover(&m.arbiter).dma_busy_us();
        assert!((busy - 2.0 * TRANSFER_US).abs() < 1e-9);
    });
}
