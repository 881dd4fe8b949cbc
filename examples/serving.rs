//! Multi-board serving (§I.B at system scale): a host fans inference
//! requests out to four NetPU-M boards behind one shared DMA engine,
//! with a bounded admission queue, per-request deadlines, and retry on
//! injected stream faults.
//!
//! Because NetPU-M re-streams weights on every inference, the shared
//! stream link — not the boards — caps throughput. The server's
//! measured saturation rate reproduces the analytic
//! `min(boards/latency, 1/transfer)` bound the `Cluster` model
//! predicts.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use netpu::nn::export::BnMode;
use netpu::nn::zoo::ZooModel;
use netpu::runtime::{Cluster, Driver, DriverError, InferRequest};
use netpu::serve::{FaultPlan, RejectReason, Server, ServerConfig, Submit};

fn main() {
    let driver = Driver::builder().build();
    let model = ZooModel::TfcW1A1
        .build_untrained(1, BnMode::Folded)
        .unwrap();
    let loadable = netpu::compiler::compile(&model, &vec![100u8; 784]).unwrap();

    // What the analytic model predicts for four boards.
    let analytic = Cluster::new(4, driver.clone()).throughput(&model).unwrap();
    println!(
        "analytic 4-board bound: {:.0} fps (compute {:.0}, transfer {:.0} — {}-bound)",
        analytic.fps,
        analytic.compute_bound_fps,
        analytic.transfer_bound_fps,
        if analytic.fps == analytic.transfer_bound_fps {
            "transfer"
        } else {
            "compute"
        }
    );

    // An executing server: 4 boards, a small bounded queue, a retry
    // budget, and a fault plan that kills every first delivery attempt.
    let server = Server::start(
        driver,
        ServerConfig {
            boards: 4,
            queue_capacity: 32,
            default_deadline_us: Some(50_000.0),
            max_retries: 2,
            faults: FaultPlan::FailFirstAttempts(1),
            ..ServerConfig::default()
        },
    );

    // Offer more load than the queue admits: backpressure is explicit.
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for _ in 0..192 {
        match server.submit(InferRequest::loadable(loadable.clone())) {
            Submit::Accepted(t) => tickets.push(t),
            Submit::Denied(RejectReason::QueueFull { queue_len }) => {
                shed += 1;
                debug_assert_eq!(queue_len, 32);
            }
            Submit::Denied(reason) => unreachable!("unexpected denial: {reason}"),
        }
    }
    println!(
        "offered 192 requests: {} admitted, {} shed at the bounded queue",
        tickets.len(),
        shed
    );

    let mut ok = 0usize;
    let mut late = 0usize;
    for t in tickets {
        match t.wait() {
            Ok(served) => {
                ok += 1;
                assert_eq!(served.attempts, 2, "fault plan fails attempt one");
            }
            Err(DriverError::Timeout { .. }) => late += 1,
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    println!("served {ok} requests (every one retried once), {late} missed the deadline");

    let m = server.shutdown();
    println!(
        "counters: accepted {} rejected {} retried {} timed-out {} failed {}",
        m.accepted, m.rejected, m.retried, m.timed_out, m.failed
    );
    println!(
        "queue high-water {} (bound 32), dma busy {:.0}% of the {:.0} us makespan",
        m.queue_high_water,
        m.dma_utilization() * 100.0,
        m.makespan_us
    );
    for (b, util) in m.board_utilization().iter().enumerate() {
        println!("  board {b}: {:.0}% busy", util * 100.0);
    }
    if let Some(fps) = m.measured_fps() {
        println!(
            "measured {fps:.0} fps vs analytic {:.0} fps for fault-free serving — \
             every request streamed twice, so the transfer-bound rate halves",
            analytic.fps
        );
    }
    println!("latency histogram (virtual us):");
    for (edge, count) in &m.latency_histogram {
        if *count > 0 {
            println!("  <= {edge:>8.0}: {count}");
        }
    }
}
