//! How fast the box ran, so CPU-bound figures can be stated at a
//! nominal speed.
//!
//! On a shared VM a core's throughput drifts by up to 2x over minutes,
//! and the two cores need not match, so every CPU-bound figure moves
//! with the core its thread happened to run on. The probe times a fixed
//! kernel that uses none of the code under test: a pointer chase over a
//! 2 MiB table mixed with integer hashing, so it feels cache and memory
//! contention as well as the core's clock. Its time over
//! [`NOMINAL_NS`] is the slowdown. Workloads with a thread of their own
//! doing the work probe on that thread between operations
//! ([`slowdown_here`]); `http`, whose work runs in the server process,
//! probes from a background thread ([`Speed`]) and takes the 10th
//! percentile, so the benchmark's own threads competing for the cores
//! do not move the estimate. The `sample`/`count` writer, whose work is
//! integer throughput rather than memory latency, is restated by a
//! second kernel that feels a busy hyperthread sibling
//! ([`alu_slowdown_here`]), and their reader, whose small answers are
//! mostly allocations, by a third ([`alloc_slowdown_here`]).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's time on the quiet box the bounds were set on.
pub const NOMINAL_NS: f64 = 20_000.0;

/// Pause between background probes.
const EVERY: Duration = Duration::from_millis(30);

/// A random cycle over a table larger than L2, so the kernel feels cache
/// and memory contention as well as the core's clock.
fn table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let n = TABLE_WORDS as u32;
        // A full-period multiplicative walk visits every slot once.
        let mut next = vec![0u32; TABLE_WORDS];
        let mut x = 1u32;
        for _ in 0..n {
            let y = (x.wrapping_mul(1_103_515_245).wrapping_add(12_345)) % n;
            next[x as usize % TABLE_WORDS] = y;
            x = y;
        }
        next
    })
}

const TABLE_WORDS: usize = 1 << 19; // 2 MiB of u32

fn kernel_ns() -> f64 {
    let t = table();
    let start = Instant::now();
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    let mut i = 1usize;
    for _ in 0..4_096 {
        i = t[i] as usize;
        h = (h ^ i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
    }
    black_box(h);
    start.elapsed().as_nanos() as f64
}

/// The calling thread's slowdown right now: the fastest of three
/// back-to-back kernel runs (the later ones find the table cached, so
/// the figure does not depend on how much the workload's own data
/// evicted it) over [`NOMINAL_NS`].
pub fn slowdown_here() -> f64 {
    (0..3).map(|_| kernel_ns()).fold(f64::INFINITY, f64::min) / NOMINAL_NS
}

/// The throughput kernel's time on the quiet box the bounds were set on.
pub const NOMINAL_ALU_NS: f64 = 3_750.0;

/// Eight independent multiply-rotate chains: the core's integer
/// throughput. The pointer chase waits on loads and leaves the
/// execution ports idle, so a busy hyperthread sibling hardly slows it;
/// this kernel competes for those ports and slows with it.
fn alu_kernel_ns() -> f64 {
    let start = Instant::now();
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..2_000u64 {
        for x in lanes.iter_mut() {
            *x = (x.rotate_left(17) ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        lanes = black_box(lanes);
    }
    black_box(lanes);
    start.elapsed().as_nanos() as f64
}

/// The calling thread's slowdown for integer-throughput work (hashing,
/// geometry): the fastest of three throughput-kernel runs over
/// [`NOMINAL_ALU_NS`]. It moves with the core's clock like
/// [`slowdown_here`], and also with a busy hyperthread sibling, which
/// slows ALU-bound work by up to 1.7x for seconds at a time.
pub fn alu_slowdown_here() -> f64 {
    (0..3)
        .map(|_| alu_kernel_ns())
        .fold(f64::INFINITY, f64::min)
        / NOMINAL_ALU_NS
}

/// The allocation kernel's time on the quiet box.
pub const NOMINAL_ALLOC_NS: f64 = 450.0;

/// Allocates, fills and frees nine small vectors: what a `query_k(4)`
/// answer costs besides the sampling (four records of two points each,
/// and the list holding them).
fn alloc_kernel_ns() -> f64 {
    let start = Instant::now();
    let v: Vec<Vec<f64>> = (0..9).map(|i| vec![f64::from(i); 5]).collect();
    black_box(&v);
    drop(v);
    start.elapsed().as_nanos() as f64
}

/// The calling thread's slowdown for small allocations: the fastest of
/// three allocation-kernel runs over [`NOMINAL_ALLOC_NS`]. A small
/// read's time is mostly its allocations, and on the shared VM their
/// cost doubles for minutes at a time while neither other kernel moves.
pub fn alloc_slowdown_here() -> f64 {
    (0..3)
        .map(|_| alloc_kernel_ns())
        .fold(f64::INFINITY, f64::min)
        / NOMINAL_ALLOC_NS
}

/// A background speed probe.
pub struct Speed {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl Speed {
    /// Starts timing the kernel in the background.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                samples.push(slowdown_here());
                std::thread::sleep(EVERY);
            }
            samples
        });
        Self { stop, thread }
    }

    /// Stops the probe; returns (10th-percentile slowdown, probes taken).
    pub fn finish(self) -> (f64, usize) {
        self.stop.store(true, Ordering::Relaxed);
        let mut samples = self.thread.join().unwrap_or_default();
        if samples.is_empty() {
            samples.push(slowdown_here());
        }
        samples.sort_by(f64::total_cmp);
        (crate::stats::percentile(&samples, 10.0), samples.len())
    }
}
