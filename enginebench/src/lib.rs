//! The engine's end-to-end benchmark: the paper's Figure 4 on LSM and in
//! memory, the Figure 1 metering pipeline, traced layer by layer.
//!
//! [`run`] executes one workload and returns its end-to-end metrics (or,
//! traced, its per-layer metrics) together with the number of operations
//! attempted and failed and every failed check.  The engine is driven only
//! through its public API; see `README.md` for the workloads, metrics and
//! checks.

pub mod checks;
pub mod fig4;
pub mod inputs;
pub mod meter;
pub mod metrics;
pub mod storage;
pub mod trace;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tsp_common::Result;

pub use metrics::{run, Outcome, Scale, Workload};

/// Attempts after which a retryable abort fails the operation.
pub const RETRY_BUDGET: u64 = 100_000;

/// Runs `f` until it succeeds, fails with a non-retryable error or
/// exhausts [`RETRY_BUDGET`]; returns the result and the attempts made.
/// Retryable aborts back off briefly, so a client that lost a lock race
/// does not spin against the lock holder on a small machine.  An operation
/// still retrying when `stop` is set is abandoned (`None`): the measured
/// window is over, and it neither committed nor failed.
pub fn retry<T>(stop: &AtomicBool, mut f: impl FnMut() -> Result<T>) -> (Option<Result<T>>, u64) {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match f() {
            Err(e) if e.is_retryable() && attempts < RETRY_BUDGET => {
                if stop.load(Ordering::Relaxed) {
                    return (None, attempts);
                }
                if attempts <= 2 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(10 << (attempts - 3).min(7)));
                }
            }
            other => return (Some(other), attempts),
        }
    }
}

/// Operation counters of one measurement phase.
#[derive(Debug, Default)]
pub struct PhaseCounters {
    /// Length of the phase (s).
    pub secs: f64,
    /// Committed queries.
    pub query_commits: u64,
    /// Attempts of the committed queries.
    pub query_attempts: u64,
    /// Committed stream transactions.
    pub stream_commits: u64,
    /// Attempts of the committed stream transactions.
    pub stream_attempts: u64,
}

/// Live counters of one phase.
#[derive(Default)]
pub struct LiveCounters {
    query_commits: AtomicU64,
    query_attempts: AtomicU64,
    stream_commits: AtomicU64,
    stream_attempts: AtomicU64,
}

impl LiveCounters {
    /// Counts a committed query that took `attempts`.
    pub fn query_committed(&self, attempts: u64) {
        self.query_commits.fetch_add(1, Ordering::Relaxed);
        self.query_attempts.fetch_add(attempts, Ordering::Relaxed);
    }

    /// Counts a committed stream transaction that took `attempts`.
    pub fn stream_committed(&self, attempts: u64) {
        self.stream_commits.fetch_add(1, Ordering::Relaxed);
        self.stream_attempts.fetch_add(attempts, Ordering::Relaxed);
    }
}

/// Phases of a cell: 0 warm-up, then measured windows, then the drain
/// after the stop signal.  Operations count in the phase they finish in.
pub struct Phase {
    index: AtomicUsize,
    marks: Mutex<Vec<Instant>>,
    counters: [LiveCounters; 4],
}

impl Default for Phase {
    fn default() -> Self {
        Self::new()
    }
}

impl Phase {
    /// Starts in the warm-up phase.
    pub fn new() -> Self {
        Phase {
            index: AtomicUsize::new(0),
            marks: Mutex::new(Vec::new()),
            counters: Default::default(),
        }
    }

    /// The current phase.
    pub fn index(&self) -> usize {
        self.index.load(Ordering::Relaxed)
    }

    /// The current phase's counters.
    pub fn counters(&self) -> &LiveCounters {
        &self.counters[self.index().min(3)]
    }

    /// Ends the current phase.
    pub fn advance(&self) {
        self.marks.lock().unwrap().push(Instant::now());
        self.index.fetch_add(1, Ordering::SeqCst);
    }

    /// The measured windows (phases between the first and last mark).
    pub fn windows(&self) -> Vec<PhaseCounters> {
        let marks = self.marks.lock().unwrap();
        (1..marks.len())
            .map(|i| {
                let c = &self.counters[i];
                PhaseCounters {
                    secs: (marks[i] - marks[i - 1]).as_secs_f64(),
                    query_commits: c.query_commits.load(Ordering::Relaxed),
                    query_attempts: c.query_attempts.load(Ordering::Relaxed),
                    stream_commits: c.stream_commits.load(Ordering::Relaxed),
                    stream_attempts: c.stream_attempts.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used (ns, exact).  Unlike wall time it
/// leaves out every wait — for the disk, a lock or a CPU — which on a
/// shared host swing far more than the engine's own work does.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is valid and writable for the duration of the call;
    // 3 is Linux's CLOCK_THREAD_CPUTIME_ID.
    let rc = unsafe { clock_gettime(3, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// User-mode CPU time of all threads of the process (ns).  The kernel's
/// share — `write`/`fsync` work whose cost follows the disk — is left out.
pub fn process_user_ns() -> u64 {
    let mut r = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `r` matches Linux's `struct rusage` on 64-bit targets and is
    // valid and writable for the duration of the call; 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    (r.utime[0] * 1_000_000_000 + r.utime[1] * 1_000) as u64
}

/// Median of `v` (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples (0 when empty).
pub fn median_u64(v: &mut [u64]) -> f64 {
    let mut f: Vec<f64> = v.iter().map(|x| *x as f64).collect();
    median(&mut f)
}

/// Geometric mean of positive values (0 if any is not positive).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|x| *x <= 0.0) {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}
