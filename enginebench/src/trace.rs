//! The traced mode's span recorder.
//!
//! The benchmark wraps every call it makes into a layer of the engine in a
//! [`span`]: `begin`/`commit`, table `read`/`write`/`scan`, the storage
//! decorator's `get`/`write_batch`/`scan`, the `TO_TABLE` and `TO_STREAM`
//! closures and the source generator.  Whole operations (a query, a stream
//! transaction, a report) are root spans of layer [`Layer::Op`].
//!
//! Spans nest per thread; each records its total and its *self* time (total
//! minus the time of the spans nested in it), so per-layer self times add up
//! to the root spans' time and the root spans' own self time is the residual
//! no layer covers.  Recording is off unless [`set_enabled`] turned it on,
//! and then costs two clock reads and a thread-local update per span.
//! Spans are kept in thread-local memory and handed over when their thread
//! ends; nothing is written while the run measures.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A layer of the engine a span is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// A whole client operation (root span).
    Op,
    /// `TransactionManager::begin` / `begin_read_only`.
    Begin,
    /// `TransactionManager::commit`.
    Commit,
    /// `TransactionalTable::read`.
    Read,
    /// `TransactionalTable::write`.
    Write,
    /// `TransactionalTable::scan`.
    Scan,
    /// `StorageBackend::get` on an LSM store.
    StorageGet,
    /// `StorageBackend::write_batch` on an LSM store.
    StorageWriteBatch,
    /// `StorageBackend::scan` on an LSM store.
    StorageScan,
    /// A `TO_TABLE` writer closure.
    ToTableApply,
    /// The `TO_STREAM` verify closure.
    ToStreamVerify,
    /// The pipeline source's generator.
    SourceGen,
}

/// Which client a span's thread works for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// Not attributed (setup, checks, engine-internal threads).
    Other,
    /// The ad-hoc query or report client.
    Query,
    /// The stream writer or a pipeline operator.
    Stream,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CELL: AtomicUsize = AtomicUsize::new(0);
static SINK: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Raw spans kept per thread; later spans count in the aggregates only.
const RAW_SPANS_PER_THREAD: usize = 100_000;
const BUCKETS: usize = 496;

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// True while spans are recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the protocol cell subsequent spans are attributed to.
pub fn set_cell(cell: usize) {
    CELL.store(cell, Ordering::SeqCst);
}

/// Sets the calling thread's role.
pub fn set_role(role: Role) {
    LOCAL.with(|l| l.role.set(role));
}

/// Aggregate of the spans of one (cell, role, layer).
#[derive(Clone, Debug)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of total durations (ns).
    pub total_ns: u64,
    /// Sum of self durations (ns).
    pub self_ns: u64,
    /// Sum of the units the spans carried (bytes for `write_batch`).
    pub units: u64,
    hist: Vec<u64>,
}

impl Default for Agg {
    fn default() -> Self {
        Agg {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            units: 0,
            hist: vec![0; BUCKETS],
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as usize;
        16 + (e - 4) * 8 + ((v >> (e - 3)) & 7) as usize
    }
}

fn bucket_mid(i: usize) -> u64 {
    if i < 16 {
        return i as u64;
    }
    let e = (i - 16) / 8 + 4;
    let sub = ((i - 16) % 8) as u64;
    let lo = (8 + sub) << (e - 3);
    lo + (1u64 << (e - 3)) / 2
}

impl Agg {
    fn record(&mut self, total: u64, own: u64, units: u64) {
        self.count += 1;
        self.total_ns += total;
        self.self_ns += own;
        self.units += units;
        self.hist[bucket(total)] += 1;
    }

    fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.units += other.units;
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }

    /// Mean total duration (ns); 0 without spans.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile of the total durations (ns; within 1/16).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in self.hist.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_mid(i) as f64;
            }
        }
        0.0
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct RawSpan {
    /// Start, in ns since tracing was first enabled.
    pub start_ns: u64,
    /// Total duration (ns).
    pub total_ns: u64,
    /// Self duration (ns).
    pub self_ns: u64,
    /// Layer.
    pub layer: Layer,
    /// Role of the recording thread.
    pub role: Role,
    /// Protocol cell.
    pub cell: u8,
}

type Key = (usize, Role, Layer);

#[derive(Default)]
struct ThreadTrace {
    aggs: HashMap<Key, Agg>,
    spans: Vec<RawSpan>,
}

struct Local {
    role: Cell<Role>,
    stack: RefCell<Vec<u64>>,
    trace: RefCell<ThreadTrace>,
}

impl Drop for Local {
    fn drop(&mut self) {
        let trace = std::mem::take(&mut *self.trace.borrow_mut());
        if !trace.aggs.is_empty() {
            SINK.lock().unwrap().push(trace);
        }
    }
}

thread_local! {
    static LOCAL: Local = Local {
        role: Cell::new(Role::Other),
        stack: RefCell::new(Vec::new()),
        trace: RefCell::new(ThreadTrace::default()),
    };
}

/// Runs `f` inside a span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    span_units(layer, 0, f)
}

/// [`span`] carrying `units` (e.g. bytes) into the layer's aggregate.
pub fn span_units<R>(layer: Layer, units: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    LOCAL.with(|l| l.stack.borrow_mut().push(0));
    let start = Instant::now();
    let out = f();
    let total = start.elapsed().as_nanos() as u64;
    LOCAL.with(|l| {
        let child = {
            let mut stack = l.stack.borrow_mut();
            let child = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent += total;
            }
            child
        };
        let own = total.saturating_sub(child);
        let cell = CELL.load(Ordering::Relaxed);
        let role = l.role.get();
        let mut t = l.trace.borrow_mut();
        t.aggs
            .entry((cell, role, layer))
            .or_default()
            .record(total, own, units);
        if t.spans.len() < RAW_SPANS_PER_THREAD {
            let epoch = *EPOCH.get_or_init(Instant::now);
            t.spans.push(RawSpan {
                start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
                total_ns: total,
                self_ns: own,
                layer,
                role,
                cell: cell as u8,
            });
        }
    });
    out
}

/// Everything recorded by threads that have ended.
#[derive(Default)]
pub struct Trace {
    aggs: HashMap<Key, Agg>,
    /// Raw spans, per thread in recording order.
    pub spans: Vec<RawSpan>,
}

impl Trace {
    /// The merged aggregate of `layer` over the matching cells and roles.
    pub fn agg(&self, cell: Option<usize>, role: Option<Role>, layer: Layer) -> Agg {
        let mut out = Agg::default();
        for ((c, r, l), a) in &self.aggs {
            if *l == layer && cell.is_none_or(|x| x == *c) && role.is_none_or(|x| x == *r) {
                out.merge(a);
            }
        }
        out
    }
}

/// Takes every handed-over span, leaving the recorder empty.
pub fn harvest() -> Trace {
    let mut out = Trace::default();
    for t in SINK.lock().unwrap().drain(..) {
        for (k, a) in t.aggs {
            out.aggs.entry(k).or_default().merge(&a);
        }
        out.spans.extend(t.spans);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_close() {
        let mut last = 0;
        for v in [0u64, 5, 15, 16, 17, 100, 1000, 123_456, 1 << 40] {
            let b = bucket(v);
            assert!(b >= last);
            last = b;
            let mid = bucket_mid(b) as f64;
            assert!(
                (mid - v as f64).abs() <= v as f64 / 8.0 + 1.0,
                "{v} → {mid}"
            );
        }
    }
}
