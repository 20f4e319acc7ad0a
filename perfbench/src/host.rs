//! Per-job CPU time, and the host speed it is scaled by.
//!
//! On a shared host the CPU time of a fixed piece of work moves with the
//! neighbours' load: on a 2-vCPU VM with no steal, twelve fixed hunts
//! repeated for a minute took 432–767 ms of CPU per round.  So the
//! benchmark runs a fixed reference kernel of its own between jobs, about
//! every [`CALIBRATE_EVERY_MS`] of job CPU time, and scales each job's CPU
//! time by the kernel's speed around it: a job's scaled time is what it
//! would take on a host where the kernel takes [`REFERENCE_KERNEL_MS`]
//! (see [`reference_kernel`] for how well it tracks the engine).  The
//! kernel is the benchmark's own code, so a change to the program moves job
//! times but not the scale.
//!
//! A job's CPU time is the process CPU time (every thread: the engine's
//! helpers, the daemon's workers) while it was in flight, split evenly
//! between the jobs in flight at each moment, with the reference kernel's
//! own time taken out.  With one lane that is simply the process CPU time
//! over the job; with the daemon's two lanes the shares add up to the
//! process CPU time spent while jobs were in flight.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Scaled times are for a host on which one kernel run takes this long
/// (about what a quiet 2-vCPU Xeon VM measured).
pub const REFERENCE_KERNEL_MS: f64 = 3.0;
/// Job CPU time between two kernel runs.
const CALIBRATE_EVERY_MS: f64 = 60.0;
/// Kernel runs whose median scales a job: the ones nearest to it in time.
const NEAREST: usize = 9;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const PROCESS_CPU_CLOCK: i32 = 2;
const THREAD_CPU_CLOCK: i32 = 3;

fn cpu_clock_ms(clock: i32) -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is one Linux defines.
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "clock_gettime({clock}) failed");
    time.tv_sec as f64 * 1e3 + time.tv_nsec as f64 / 1e6
}

/// CPU time used so far by every thread of this process, in milliseconds.
fn process_cpu_ms() -> f64 {
    cpu_clock_ms(PROCESS_CPU_CLOCK)
}

/// CPU time used so far by the calling thread, in milliseconds.
fn thread_cpu_ms() -> f64 {
    cpu_clock_ms(THREAD_CPU_CLOCK)
}

/// The fixed reference work, in three parts like the engine's inner loops
/// but independent of the program: hashing into a table with a sort,
/// small allocations in an ordered map, and pairs of scoped threads.
/// Returns its CPU time in milliseconds, the helper threads' included.
///
/// Measured against the engine on a 2-vCPU VM over seven minutes of a busy
/// host (fixed hunts repeated, the kernel between them), the hunts' CPU
/// time over 15-second blocks spread 18–20% (quartiles over median); over
/// the kernel's, 4% with all three parts, 4–7% with any one of them and
/// 13–17% with a loop of register arithmetic.
fn reference_kernel() -> f64 {
    let start = thread_cpu_ms();
    let mut checksum = hash_and_sort(12_000) ^ small_allocations(3_000);
    let mut helpers_ms = 0.0;
    for _ in 0..10 {
        let (helper, own) = std::thread::scope(|scope| {
            let helper = scope.spawn(|| {
                let start = thread_cpu_ms();
                let checksum = hash_and_sort(600);
                (checksum, thread_cpu_ms() - start)
            });
            let own = hash_and_sort(600);
            (helper.join().expect("reference kernel thread"), own)
        });
        checksum ^= helper.0 ^ own;
        helpers_ms += helper.1;
    }
    std::hint::black_box(checksum);
    thread_cpu_ms() - start + helpers_ms
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn hash_and_sort(steps: u64) -> u64 {
    let mut table: HashMap<u64, u64> = HashMap::new();
    let mut items = Vec::with_capacity(steps as usize);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for step in 0..steps {
        let value = xorshift(&mut x);
        *table.entry(value % 4096).or_default() += step;
        items.push(value);
    }
    items.sort_unstable();
    items[items.len() / 2] ^ table.len() as u64
}

fn small_allocations(steps: u64) -> u64 {
    let mut map = BTreeMap::new();
    let mut x: u64 = 7;
    for step in 0..steps {
        let value = xorshift(&mut x);
        map.insert(value % 2048, (0..value % 16).collect::<Vec<u64>>());
        if step % 3 == 0 {
            map.remove(&((value >> 7) % 2048));
        }
    }
    map.len() as u64
}

/// One kernel run: when (seconds since the first use of this module) and
/// how much CPU time it took.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub at_s: f64,
    pub kernel_ms: f64,
}

struct Ledger {
    last_cpu_ms: f64,
    /// Kernel time to leave out of the next interval.
    excluded_ms: f64,
    /// Jobs in flight: id and CPU time attributed so far.
    in_flight: Vec<(u64, f64)>,
    next_id: u64,
    since_calibration_ms: f64,
    calibrating: bool,
    samples: Vec<Sample>,
}

impl Ledger {
    /// Splits the process CPU time since the last event between the jobs
    /// in flight (time with no job in flight is between-job work).
    fn advance(&mut self) {
        let now = process_cpu_ms();
        let delta = (now - self.last_cpu_ms - self.excluded_ms).max(0.0);
        self.last_cpu_ms = now;
        self.excluded_ms = 0.0;
        if !self.in_flight.is_empty() {
            let share = delta / self.in_flight.len() as f64;
            for (_, attributed) in &mut self.in_flight {
                *attributed += share;
            }
        }
    }
}

static LEDGER: Mutex<Ledger> = Mutex::new(Ledger {
    last_cpu_ms: 0.0,
    excluded_ms: 0.0,
    in_flight: Vec::new(),
    next_id: 0,
    since_calibration_ms: 0.0,
    calibrating: false,
    samples: Vec::new(),
});

fn ledger() -> MutexGuard<'static, Ledger> {
    LEDGER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn seconds_since_origin(at: Instant) -> f64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    at.saturating_duration_since(*ORIGIN.get_or_init(Instant::now))
        .as_secs_f64()
}

/// A job in flight.
pub struct JobClock {
    id: u64,
    start: Instant,
}

pub fn begin() -> JobClock {
    let start = Instant::now();
    // Fixes the origin no later than the first job's start.
    seconds_since_origin(start);
    let mut ledger = ledger();
    ledger.advance();
    let id = ledger.next_id;
    ledger.next_id += 1;
    ledger.in_flight.push((id, 0.0));
    JobClock { id, start }
}

/// Ends a job: its CPU time (ms) and the middle of its wall interval
/// (seconds since the origin), which places it among the kernel runs.
pub fn end(clock: JobClock) -> (f64, f64) {
    let mut ledger = ledger();
    ledger.advance();
    let position = ledger
        .in_flight
        .iter()
        .position(|(id, _)| *id == clock.id)
        .expect("a job ends once");
    let (_, cpu_ms) = ledger.in_flight.swap_remove(position);
    ledger.since_calibration_ms += cpu_ms;
    drop(ledger);
    let end = Instant::now();
    let middle = clock.start + end.saturating_duration_since(clock.start) / 2;
    (cpu_ms, seconds_since_origin(middle))
}

/// Runs the kernel once and records it as a sample.
pub fn calibrate() -> f64 {
    ledger().advance();
    let kernel_ms = reference_kernel();
    let at_s = seconds_since_origin(Instant::now());
    let mut ledger = ledger();
    ledger.excluded_ms += kernel_ms;
    ledger.advance();
    ledger.samples.push(Sample { at_s, kernel_ms });
    kernel_ms
}

/// Runs the kernel if [`CALIBRATE_EVERY_MS`] of job time has passed since
/// the last run (and no other lane is running it).
pub fn calibrate_if_due() {
    {
        let mut ledger = ledger();
        if ledger.calibrating || ledger.since_calibration_ms < CALIBRATE_EVERY_MS {
            return;
        }
        ledger.calibrating = true;
        ledger.since_calibration_ms = 0.0;
    }
    calibrate();
    ledger().calibrating = false;
}

/// Every kernel run so far, in time order.
pub fn samples() -> Vec<Sample> {
    let mut samples = ledger().samples.clone();
    samples.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    samples
}

/// The factor that scales CPU time measured at `at_s` to the reference
/// host: [`REFERENCE_KERNEL_MS`] over the median of the kernel runs nearest
/// in time.  `samples` are in time order.
pub fn scale(samples: &[Sample], at_s: f64) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let after = samples.partition_point(|s| s.at_s < at_s);
    let first = after
        .saturating_sub(NEAREST / 2)
        .min(samples.len().saturating_sub(NEAREST));
    let nearest: Vec<f64> = samples[first..(first + NEAREST).min(samples.len())]
        .iter()
        .map(|s| s.kernel_ms)
        .collect();
    REFERENCE_KERNEL_MS / crate::report::median(&nearest)
}

/// Runs `work` (a set-up) between kernel runs and returns its process CPU
/// time in seconds, raw and scaled by the kernel runs around it.
pub fn timed_setup(work: impl FnOnce()) -> (f64, f64) {
    let mut kernel: Vec<f64> = (0..3).map(|_| calibrate()).collect();
    let start = process_cpu_ms();
    work();
    let raw_s = (process_cpu_ms() - start) / 1e3;
    kernel.extend((0..3).map(|_| calibrate()));
    (
        raw_s,
        raw_s * REFERENCE_KERNEL_MS / crate::report::median(&kernel),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_s: f64, kernel_ms: f64) -> Sample {
        Sample { at_s, kernel_ms }
    }

    #[test]
    fn scale_uses_the_nearest_runs() {
        // Twenty runs at 4 ms, then twenty at 1 ms.
        let samples: Vec<Sample> = (0..40)
            .map(|i| sample(f64::from(i), if i < 20 { 4.0 } else { 1.0 }))
            .collect();
        assert_eq!(scale(&samples, 3.5), REFERENCE_KERNEL_MS / 4.0);
        assert_eq!(scale(&samples, 35.5), REFERENCE_KERNEL_MS / 1.0);
        assert_eq!(scale(&samples, -1.0), REFERENCE_KERNEL_MS / 4.0);
        assert_eq!(scale(&samples[..3], 100.0), REFERENCE_KERNEL_MS / 4.0);
        assert_eq!(scale(&[], 1.0), 1.0);
    }

    #[test]
    fn cpu_time_is_split_between_jobs_in_flight() {
        let a = begin();
        let b = begin();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x ^ i.wrapping_mul(0x9e37));
        }
        let (a_ms, _) = end(a);
        let (b_ms, _) = end(b);
        assert!(
            a_ms > 0.0 && (a_ms - b_ms).abs() < 0.5 * a_ms,
            "{a_ms} {b_ms}"
        );
    }
}
