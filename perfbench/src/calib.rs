//! Host-speed calibration.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed moves
//! with its neighbours' load: a fixed piece of work can take 1.7 times
//! longer for seconds at a time, and whole runs drift by as much. The
//! guest cannot see this (it is not steal time). So before every timed
//! slice and every set-up the benchmark times a fixed reference kernel,
//! written here and sharing no code with the program, and scales the
//! wall times of what follows to the reference speed: a host on which
//! one kernel unit takes `REF_UNIT_S` on every calibration thread.
//! A change to the program moves the scaled figures as it moves wall
//! time; a change in host speed moves the kernel too and cancels.

use crate::stats::Rng;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Seconds one kernel unit takes at the reference speed.
pub const REF_UNIT_S: f64 = 100e-6;
/// Units per thread in one calibration (about 10-20 ms).
const UNITS: u32 = 100;
/// Threads of a calibration before a timed slice: as many as the
/// workloads keep busy (two boards or two batch threads). Set-up runs
/// mostly on one thread and is calibrated on one.
pub const SLICE_THREADS: usize = 2;

const IN_WORDS: usize = 13;
const HIDDEN: usize = 256;

/// The reference kernel: a binary layer (xor-popcount), an integer
/// multiply-accumulate layer and a dependent walk over a 256 KiB table,
/// the kinds of work the simulators and value kernels do.
struct Kernel {
    binary: Vec<u64>,
    integer: Vec<i8>,
    table: Vec<u32>,
    x: [u64; IN_WORDS],
}

impl Kernel {
    fn new(seed: u64) -> Kernel {
        let mut r = Rng::new(seed);
        Kernel {
            binary: (0..HIDDEN * IN_WORDS).map(|_| r.next_u64()).collect(),
            integer: (0..HIDDEN * HIDDEN)
                .map(|_| (r.below(7) as i8) - 3)
                .collect(),
            table: (0..1 << 16).map(|_| r.next_u64() as u32).collect(),
            x: std::array::from_fn(|_| r.next_u64()),
        }
    }

    fn unit(&mut self) -> u64 {
        let mut h = [0i32; HIDDEN];
        for (row, hn) in self.binary.chunks_exact(IN_WORDS).zip(&mut h) {
            let ones: u32 = row.iter().zip(&self.x).map(|(w, x)| (w ^ x).count_ones()).sum();
            *hn = ones as i32 - (IN_WORDS * 32) as i32;
        }
        let mut acc = 0u64;
        for row in self.integer.chunks_exact(HIDDEN) {
            let s: i32 = row
                .iter()
                .zip(&h)
                .map(|(&w, &v)| i32::from(w) * v.signum())
                .sum();
            acc = acc.wrapping_mul(31).wrapping_add(s as u64);
        }
        let mut p = acc as usize;
        for _ in 0..2048 {
            p = self.table[p & 0xffff] as usize ^ (p >> 3);
            acc = if p & 1 == 0 {
                acc.wrapping_add(p as u64)
            } else {
                acc ^ p as u64
            };
        }
        self.x[(acc % IN_WORDS as u64) as usize] ^= acc;
        acc
    }
}

/// One kernel per calibration thread, built once so that calibrating
/// allocates nothing.
static KERNELS: OnceLock<Mutex<Vec<Kernel>>> = OnceLock::new();

/// Times the kernel on `threads` threads (at most `SLICE_THREADS`) and
/// returns the factor that scales wall time measured now to the
/// reference speed (below 1 on a host slower than the reference).
pub fn speed(threads: usize) -> f64 {
    let kernels = KERNELS.get_or_init(|| {
        Mutex::new((1..=SLICE_THREADS as u64).map(Kernel::new).collect())
    });
    let mut kernels = kernels.lock().expect("no calibration panics");
    let t = Instant::now();
    std::thread::scope(|s| {
        for kernel in kernels.iter_mut().take(threads) {
            s.spawn(move || {
                let mut acc = 0;
                for _ in 0..UNITS {
                    acc ^= kernel.unit();
                }
                std::hint::black_box(acc);
            });
        }
    });
    REF_UNIT_S * f64::from(UNITS) / t.elapsed().as_secs_f64()
}
