#![cfg(loom)]
//! Model-checked concurrency invariants of the admission queue
//! (`RUSTFLAGS="--cfg loom" cargo test -p netpu-serve --test loom`).
//!
//! Under `--cfg loom`, [`BoundedQueue`] is built on the `loom` shim's
//! schedule-perturbed primitives, and each test body is replayed across
//! many interleavings by `loom::model`. Two invariants:
//!
//! * **queue bound** — concurrent producers can never push the queue
//!   past its capacity; overflow is always answered with explicit
//!   backpressure, and with no consumers exactly `capacity` pushes win.
//! * **no lost wakeups** — every accepted item is served exactly once,
//!   and closing the queue wakes every blocked consumer (a lost wakeup
//!   would hang a consumer forever and trip the model's watchdog).
//!   Two more cases cover the sharded shape, one consumer per queue
//!   over two queues: a shutdown racing dispatch serves exactly the
//!   accepted items, and racing closers wake every blocked consumer.
//!
//! A third check covers the worker → shared-DMA handoff: however the
//! workers interleave their grants, the virtual-time schedule never
//! overlaps two transfers on the one DMA engine.

use loom::sync::{Arc, Mutex};
use loom::thread;
use netpu_serve::queue::{BoundedQueue, Push};
use netpu_serve::DmaArbiter;

#[test]
fn concurrent_pushes_never_exceed_the_bound() {
    loom::model(|| {
        const CAPACITY: usize = 2;
        let q = Arc::new(BoundedQueue::new(CAPACITY));
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut accepted = 0usize;
                    for i in 0..2 {
                        match q.push((p, i)) {
                            Push::Accepted { depth } => {
                                assert!(depth <= CAPACITY, "bound exceeded: depth {depth}");
                                accepted += 1;
                            }
                            Push::Full { len } => assert_eq!(len, CAPACITY),
                            Push::Closed => panic!("queue was never closed"),
                        }
                    }
                    accepted
                })
            })
            .collect();
        let accepted: usize = producers.into_iter().map(|h| h.join().unwrap()).sum();
        // Nothing consumes, so exactly the first `CAPACITY` pushes win
        // regardless of interleaving.
        assert_eq!(accepted, CAPACITY);
        assert_eq!(q.len(), CAPACITY);
    });
}

#[test]
fn close_wakes_every_consumer_and_loses_no_items() {
    loom::model(|| {
        const ITEMS: usize = 4;
        let q = Arc::new(BoundedQueue::new(8));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut served = 0usize;
                    while q.pop_wait().is_some() {
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..ITEMS {
                    assert!(matches!(q.push(i), Push::Accepted { .. }));
                }
                q.close();
            })
        };
        producer.join().unwrap();
        // Both consumers returning proves the close wakeup reached
        // every waiter; the sum proves each item was served once.
        let served: usize = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(served, ITEMS);
        assert!(q.is_empty());
    });
}

/// One consumer per queue, each counting what it pops: the sharded
/// dispatch shape the worker pool runs.
fn drain_each(queues: &Arc<Vec<BoundedQueue<usize>>>) -> Vec<thread::JoinHandle<Vec<usize>>> {
    (0..queues.len())
        .map(|s| {
            let queues = Arc::clone(queues);
            thread::spawn(move || std::iter::from_fn(|| queues[s].pop_wait()).collect())
        })
        .collect()
}

#[test]
fn shutdown_racing_dispatch_over_two_queues_serves_each_accepted_item_once() {
    loom::model(|| {
        let queues: Arc<Vec<BoundedQueue<usize>>> =
            Arc::new((0..2).map(|_| BoundedQueue::new(2)).collect());
        let consumers = drain_each(&queues);
        // The producer routes across both queues, then shuts down
        // while the consumers may still be draining.
        let mut accepted: Vec<usize> = (0..4)
            .filter(|&id| match queues[id % 2].push(id) {
                Push::Accepted { .. } => true,
                Push::Full { .. } => false,
                Push::Closed => panic!("closed before shutdown"),
            })
            .collect();
        for q in queues.iter() {
            q.close();
        }
        // A lost close wakeup would hang a join and trip the watchdog.
        let mut served: Vec<usize> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        served.sort_unstable();
        accepted.sort_unstable();
        assert_eq!(served, accepted, "nothing lost, nothing served twice");
    });
}

#[test]
fn racing_closers_wake_every_blocked_consumer() {
    loom::model(|| {
        let queues: Arc<Vec<BoundedQueue<usize>>> =
            Arc::new((0..2).map(|_| BoundedQueue::new(1)).collect());
        let consumers = drain_each(&queues);
        // Two shutdown paths race: closing must be idempotent and wake
        // every waiter.
        let closers: Vec<_> = (0..2)
            .map(|_| {
                let queues = Arc::clone(&queues);
                thread::spawn(move || queues.iter().for_each(BoundedQueue::close))
            })
            .collect();
        for c in closers {
            c.join().unwrap();
        }
        for h in consumers {
            assert!(h.join().unwrap().is_empty(), "nothing was ever queued");
        }
        assert!(matches!(queues[0].push(9), Push::Closed));
    });
}

#[test]
fn arbiter_handoff_never_overlaps_dma_transfers() {
    loom::model(|| {
        const TRANSFER_US: f64 = 10.0;
        let arbiter = Arc::new(Mutex::new(DmaArbiter::new(2)));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let arbiter = Arc::clone(&arbiter);
                thread::spawn(move || {
                    let mut grants = Vec::new();
                    for _ in 0..2 {
                        let g = arbiter
                            .lock()
                            .unwrap()
                            .grant(0.0, TRANSFER_US, 3.0 * TRANSFER_US);
                        grants.push(g);
                    }
                    grants
                })
            })
            .collect();
        let mut grants: Vec<_> = workers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        // Transfers serialize on the one DMA engine: sorted by start,
        // each transfer begins no earlier than the previous one ends,
        // and the engine's busy time is exactly the sum of transfers.
        grants.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        for pair in grants.windows(2) {
            assert!(
                pair[1].start_us >= pair[0].transfer_end_us - 1e-9,
                "overlapping DMA transfers: {pair:?}"
            );
        }
        let busy = arbiter.lock().unwrap().dma_busy_us();
        assert!((busy - grants.len() as f64 * TRANSFER_US).abs() < 1e-9);
    });
}
