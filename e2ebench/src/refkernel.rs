//! The reference kernel that host-time metrics are expressed in.
//!
//! Host speed on a shared machine drifts in phases, so a wall time taken
//! alone mixes the program's cost with the host's current speed. Every
//! timed operation is therefore divided by this kernel's wall time,
//! measured immediately before and after it: a `ref` of 3.0 means the
//! operation took as long as three kernel runs on the same host at the
//! same moment.
//!
//! The kernel shares no data with the program and does identical work on
//! every call, with no I/O. It has two parts:
//!
//! * it copies a fixed pseudo-random array of [`KERNEL_LEN`] `u64`s
//!   (1.6 MB, cache-resident) into a work buffer and sorts it:
//!   compute-bound, no allocation;
//! * in the 1-thread kernel only, it then builds and drops [`CHURN_VECS`]
//!   small vectors of lengths drawn from that array (about 4 MB live at
//!   the peak), through the process's allocator, as the program's
//!   operations do.
//!
//! On the reference host the program slows more than a pure sort in the
//! host's slow phase; in a 4-minute probe alternating kernels with
//! operations, adding the allocation part cut the interquartile range of
//! 20-second medians of a replay's ratio from 0.032 to 0.018, and of a
//! service run's from 0.036 to 0.023.
//!
//! The kernel runs on as many threads as the workload's operations use,
//! each thread sorting its own copy, so that it sees the same cores the
//! operation does: on a shared 2-core host a neighbour that takes one core
//! slows a 2-thread operation but not a 1-thread kernel. The multi-thread
//! kernel does not allocate: its helper thread's allocations land in the
//! allocator arenas the engine's task threads use, and with them the
//! spread of `sql_tpch`'s peak RSS over ten runs rose from 0.013–0.032 to
//! 0.13.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Elements sorted per kernel run.
pub const KERNEL_LEN: usize = 200_000;

/// Vectors built per kernel run.
pub const CHURN_VECS: usize = 30_000;

/// Wall time of one 1-thread kernel run on the reference host, between
/// its fast phase (about 7 ms) and its slow phase (about 11 ms).
/// Set-up times are reported as their ratio to the kernel times this
/// constant, i.e. in seconds at the reference host's speed, so that they
/// do not move with the host's phase either.
pub const NOMINAL_SECS: f64 = 0.009;

/// The kernel's fixed input and one work buffer per thread.
#[derive(Debug)]
pub struct RefKernel {
    input: Vec<u64>,
    bufs: Vec<Vec<u64>>,
}

impl RefKernel {
    /// Builds the fixed input (xorshift64*, constant seed: the kernel's
    /// work never depends on the workload seed) for `threads` threads.
    pub fn new(threads: usize) -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let input = (0..KERNEL_LEN)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x.wrapping_mul(0x2545_F491_4F6C_DD1D)
            })
            .collect();
        RefKernel {
            input,
            bufs: vec![vec![0; KERNEL_LEN]; threads.max(1)],
        }
    }

    /// Runs the kernel once and returns its wall time.
    pub fn time(&mut self) -> Duration {
        let start = Instant::now();
        let input = &self.input;
        let (own, helpers) = self.bufs.split_first_mut().expect("one thread at least");
        std::thread::scope(|scope| {
            for buf in helpers {
                scope.spawn(move || sort_copy(input, buf));
            }
            sort_copy(input, own);
        });
        if self.bufs.len() == 1 {
            churn(black_box(input));
        }
        start.elapsed()
    }
}

fn sort_copy(input: &[u64], buf: &mut [u64]) {
    buf.copy_from_slice(black_box(input));
    buf.sort_unstable();
    black_box(buf);
}

/// Builds a vector of 1 to 48 elements per draw, drops every third one
/// built so far at a drawn position, then drops the rest.
fn churn(input: &[u64]) {
    let mut held: Vec<Vec<u64>> = Vec::new();
    for (i, &x) in input[..CHURN_VECS].iter().enumerate() {
        let n = (x % 48) as usize + 1;
        held.push((0..n as u64).map(|j| x ^ j).collect());
        if i % 3 == 0 {
            held.swap_remove(x as usize % held.len());
        }
    }
    black_box(held);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_sorts_its_fixed_input_on_every_thread() {
        for threads in [1, 2] {
            let mut k = RefKernel::new(threads);
            assert!(k.time() > Duration::ZERO);
            assert_eq!(k.bufs.len(), threads);
            for buf in &k.bufs {
                assert!(buf.windows(2).all(|w| w[0] <= w[1]));
            }
            assert_eq!(RefKernel::new(1).input, k.input);
        }
    }
}
