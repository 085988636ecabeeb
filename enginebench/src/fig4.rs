//! The Figure 4 workloads (`fig4_uniform`, `fig4_skewed`, `inmem_uniform`):
//! one stream writer and one ad-hoc query client over two grouped states,
//! run under each protocol in turn on fresh states.

use crate::checks;
use crate::inputs::{encode_seq, Fig4Inputs, KEYS_PER_TXN};
use crate::storage::{ProbedLsm, ScratchDir};
use crate::trace::{self, span, Layer, Role};
use crate::{retry, Phase, PhaseCounters};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tsp_common::{GroupId, Result};
use tsp_core::{
    restore_group, resume_clock, GlobalClock, Protocol, StateContext, TableHandle,
    TelemetrySnapshot, TransactionManager, TransactionalTableExt,
};
use tsp_storage::{Codec, StorageBackend};

/// Configuration of one Figure 4 workload.
#[derive(Clone, Debug)]
pub struct Fig4Config {
    /// Rows per state.
    pub table_size: u32,
    /// LSM states with synchronous fsync (`false`: volatile states).
    pub lsm: bool,
    /// Unmeasured warm-up per cell.
    pub warmup: Duration,
    /// Measured time per cell (split into an untraced and a traced half
    /// when tracing).
    pub measure: Duration,
    /// Record spans in the second half of each cell.
    pub trace: bool,
}

/// Per-layer inputs gathered in a cell's traced window.
#[derive(Clone, Debug, Default)]
pub struct CellLayers {
    /// The context's telemetry over the traced window.
    pub telemetry: Option<TelemetrySnapshot>,
    /// MVCC versions reclaimed over the traced window.
    pub gc_reclaimed: u64,
    /// Median GC floor lag sampled over the traced window (timestamps).
    pub floor_lag: f64,
    /// SSTables of both stores at the end of the cell.
    pub sstables: u64,
    /// Disk bytes of both stores per live user byte at the end of the cell.
    pub space_amp: f64,
}

/// The outcome of one protocol cell.
#[derive(Debug)]
pub struct CellResult {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Build + preload of both states (s).
    pub setup_s: f64,
    /// Reopen of both LSM states plus `LastCTS` restore (s); `None` for
    /// volatile states.
    pub recovery_s: Option<f64>,
    /// Counters of the untraced and (when tracing) traced windows.
    pub windows: Vec<PhaseCounters>,
    /// Commit rates per window.
    pub rates: Vec<Rates>,
    /// Median latency of the untraced window's committed queries (ns).
    pub query_p50_ns: f64,
    /// Median writer CPU time of the untraced window's committed stream
    /// transactions, retries included (ns).  The median leaves out the
    /// rare commit that also flushes an LSM memtable, whose landing inside
    /// or outside a window follows the disk's speed.
    pub stream_cpu_p50_ns: f64,
    /// Operations attempted (committed or failed).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failed checks.
    pub errors: Vec<String>,
    /// Per-layer inputs (traced runs).
    pub layers: CellLayers,
}

/// Two grouped states under one protocol.
pub(crate) struct Env {
    pub(crate) ctx: Arc<StateContext>,
    pub(crate) mgr: Arc<TransactionManager>,
    pub(crate) states: [TableHandle<u32, Vec<u8>>; 2],
    pub(crate) stores: Vec<Arc<ProbedLsm>>,
    pub(crate) group: GroupId,
}

impl Env {
    /// Opens the two states' LSM stores in `dir`.
    pub(crate) fn open_stores(dir: &Path) -> Result<Vec<Arc<ProbedLsm>>> {
        (0..2)
            .map(|i| ProbedLsm::open(&dir.join(format!("state{i}"))))
            .collect()
    }

    /// Builds the two states over `stores` (volatile when empty).
    pub(crate) fn build(
        protocol: Protocol,
        stores: Vec<Arc<ProbedLsm>>,
        clock: GlobalClock,
    ) -> Result<Env> {
        let ctx = Arc::new(StateContext::with_clock(clock));
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let mut states = Vec::new();
        for i in 0..2 {
            let backend = stores
                .get(i)
                .map(|s| Arc::clone(s) as Arc<dyn StorageBackend>);
            let table: TableHandle<u32, Vec<u8>> =
                protocol.create_table(&ctx, format!("measurements{}", i + 1), backend);
            mgr.register(Arc::clone(&table).as_participant());
            states.push(table);
        }
        let states = [Arc::clone(&states[0]), Arc::clone(&states[1])];
        let group = mgr.register_group(&[states[0].id(), states[1].id()])?;
        Ok(Env {
            ctx,
            mgr,
            states,
            stores,
            group,
        })
    }
}

struct Shared {
    stop: AtomicBool,
    phase: Phase,
    errors: Mutex<Vec<String>>,
}

impl Shared {
    fn fail(&self, e: String) {
        let mut errors = self.errors.lock().unwrap();
        if errors.len() < 8 {
            errors.push(e);
        }
    }
}

struct WriterOut {
    model: HashMap<u32, u64>,
    cpu_ns: Vec<u64>,
    last_cts: Option<u64>,
    attempted: u64,
    failed: u64,
}

fn writer(env: &Env, shared: &Shared, inputs: &Fig4Inputs) -> WriterOut {
    trace::set_role(Role::Stream);
    let mut keys_in = inputs.writer();
    let mut out = WriterOut {
        model: HashMap::new(),
        cpu_ns: Vec::new(),
        last_cts: None,
        attempted: 0,
        failed: 0,
    };
    let mut seq = 0u64;
    while !shared.stop.load(Ordering::Relaxed) {
        let keys = keys_in.next_txn();
        let value = encode_seq(seq + 1);
        let cpu = crate::thread_cpu_ns();
        let (result, attempts) = retry(&shared.stop, || {
            span(Layer::Op, || {
                let tx = span(Layer::Begin, || env.mgr.begin())?;
                let r = (|| {
                    for k in keys {
                        for s in &env.states {
                            span(Layer::Write, || s.write(&tx, k, value.clone()))?;
                        }
                    }
                    span(Layer::Commit, || env.mgr.commit(&tx))
                })();
                if r.is_err() {
                    let _ = env.mgr.abort(&tx);
                }
                r
            })
        });
        let Some(result) = result else { break };
        out.attempted += 1;
        match result {
            Ok(cts) => {
                seq += 1;
                for k in keys {
                    out.model.insert(k, seq);
                }
                out.last_cts = cts.or(out.last_cts);
                if shared.phase.index() == 1 {
                    out.cpu_ns.push(crate::thread_cpu_ns() - cpu);
                }
                shared.phase.counters().stream_committed(attempts);
            }
            Err(e) => {
                out.failed += 1;
                shared.fail(format!("stream transaction failed: {e}"));
            }
        }
    }
    out
}

struct QueryOut {
    latencies: Vec<u64>,
    attempted: u64,
    failed: u64,
}

fn query_client(env: &Env, shared: &Shared, inputs: &Fig4Inputs) -> QueryOut {
    trace::set_role(Role::Query);
    let mut keys_in = inputs.queries();
    let mut out = QueryOut {
        latencies: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    while !shared.stop.load(Ordering::Relaxed) {
        let keys = keys_in.next_txn();
        let started = Instant::now();
        let (result, attempts) = retry(&shared.stop, || {
            span(Layer::Op, || {
                let tx = span(Layer::Begin, || env.mgr.begin_read_only())?;
                let r = (|| {
                    let mut seen = Vec::with_capacity(KEYS_PER_TXN);
                    for k in keys {
                        let a = span(Layer::Read, || env.states[0].read(&tx, &k))?;
                        let b = span(Layer::Read, || env.states[1].read(&tx, &k))?;
                        seen.push((k, a, b));
                    }
                    span(Layer::Commit, || env.mgr.commit(&tx))?;
                    Ok(seen)
                })();
                if r.is_err() {
                    let _ = env.mgr.abort(&tx);
                }
                r
            })
        });
        let Some(result) = result else { break };
        out.attempted += 1;
        match result {
            Ok(seen) => {
                let counters = shared.phase.counters();
                counters.query_committed(attempts);
                if shared.phase.index() == 1 {
                    out.latencies.push(started.elapsed().as_nanos() as u64);
                }
                for (k, a, b) in seen {
                    if let Err(e) = checks::same_seq_in_both(k, a.as_deref(), b.as_deref()) {
                        out.failed += 1;
                        shared.fail(e);
                        break;
                    }
                }
            }
            Err(e) => {
                out.failed += 1;
                shared.fail(format!("query failed: {e}"));
            }
        }
    }
    out
}

/// Copies a preloaded pair of stores from `template` into `dir`.
fn copy_stores(template: &Path, dir: &Path) -> std::io::Result<()> {
    for i in 0..2 {
        let (from, to) = (
            template.join(format!("state{i}")),
            dir.join(format!("state{i}")),
        );
        std::fs::create_dir_all(&to)?;
        for entry in std::fs::read_dir(&from)? {
            let entry = entry?;
            let target = to.join(entry.file_name());
            std::fs::copy(entry.path(), &target)?;
            // Written back now, not under the cell's WAL fsyncs.
            std::fs::File::open(&target)?.sync_all()?;
        }
    }
    Ok(())
}

/// Builds both states and preloads `table_size` rows of sequence 0.
fn build_preloaded(
    protocol: Protocol,
    stores: Vec<Arc<ProbedLsm>>,
    table_size: u32,
) -> Result<Env> {
    let env = Env::build(protocol, stores, GlobalClock::new())?;
    let value = encode_seq(0);
    for s in &env.states {
        s.preload((0..table_size).map(|k| (k, value.clone())))?;
    }
    Ok(env)
}

/// Preloads of the template per run whose median is the set-up time.
const TEMPLATE_PRELOADS: usize = 3;

/// Preloads the pair of LSM stores every LSM cell starts from and returns
/// the time it took (the LSM workloads' set-up time): the median of
/// [`TEMPLATE_PRELOADS`] preloads, each into emptied directories.
pub fn preload_template(dir: &Path, table_size: u32) -> Result<f64> {
    let mut times = Vec::new();
    for _ in 0..TEMPLATE_PRELOADS {
        for i in 0..2 {
            let state = dir.join(format!("state{i}"));
            if state.exists() {
                std::fs::remove_dir_all(&state)?;
            }
        }
        let started = Instant::now();
        let env = build_preloaded(Protocol::Mvcc, Env::open_stores(dir)?, table_size)?;
        times.push(started.elapsed().as_secs_f64());
        drop(env);
    }
    let secs = crate::median(&mut times);
    for i in 0..2 {
        for entry in std::fs::read_dir(dir.join(format!("state{i}")))? {
            std::fs::File::open(entry?.path())?.sync_all()?;
        }
    }
    Ok(secs)
}

/// Commit rates of one measured window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rates {
    /// Committed queries per second.
    pub query: f64,
    /// Committed stream transactions per second.
    pub stream: f64,
}

impl Rates {
    fn of(w: &PhaseCounters) -> Rates {
        Rates {
            query: w.query_commits as f64 / w.secs,
            stream: w.stream_commits as f64 / w.secs,
        }
    }
}

/// Runs one protocol cell: fresh states (a copy of `template` for LSM
/// cells, a new preload otherwise), warm-up, measurement, checks and, for
/// LSM states, a restart and the checks again.
pub fn run_cell(
    cfg: &Fig4Config,
    protocol: Protocol,
    inputs: &Fig4Inputs,
    template: Option<&Path>,
) -> Result<CellResult> {
    let scratch = match template {
        Some(_) => Some(ScratchDir::new(&protocol.name().to_ascii_lowercase())?),
        None => None,
    };
    let dir = scratch.as_ref().map(|s| s.path().to_path_buf());

    let started = Instant::now();
    let env = match (&dir, template) {
        (Some(dir), Some(template)) => {
            copy_stores(template, dir)?;
            Env::build(protocol, Env::open_stores(dir)?, GlobalClock::new())?
        }
        _ => build_preloaded(protocol, Vec::new(), cfg.table_size)?,
    };
    let setup_s = started.elapsed().as_secs_f64();

    let shared = Shared {
        stop: AtomicBool::new(false),
        phase: Phase::new(),
        errors: Mutex::new(Vec::new()),
    };
    let mut layers = CellLayers::default();
    let (mut w, mut q) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(&env, &shared, inputs));
        let q = s.spawn(|| query_client(&env, &shared, inputs));
        std::thread::sleep(cfg.warmup);
        let window = cfg.measure / if cfg.trace { 2 } else { 1 };
        shared.phase.advance();
        std::thread::sleep(window);
        if cfg.trace {
            env.ctx.telemetry().reset();
            let gc_before = env.ctx.stats().snapshot().gc_reclaimed;
            shared.phase.advance();
            trace::set_enabled(true);
            let mut lags = Vec::new();
            let end = Instant::now() + window;
            while let Some(left) = end.checked_duration_since(Instant::now()) {
                std::thread::sleep(left.min(Duration::from_millis(5)));
                let now = env.ctx.clock().now();
                lags.push(now.saturating_sub(env.ctx.oldest_active_fresh()) as f64);
            }
            trace::set_enabled(false);
            layers.telemetry = Some(env.ctx.telemetry_snapshot());
            layers.gc_reclaimed = env.ctx.stats().snapshot().gc_reclaimed - gc_before;
            layers.floor_lag = crate::median(&mut lags);
        }
        shared.phase.advance();
        shared.stop.store(true, Ordering::SeqCst);
        (w.join().expect("writer"), q.join().expect("query client"))
    });
    let windows = shared.phase.windows();
    let rates = windows.iter().map(Rates::of).collect();
    let mut errors = std::mem::take(&mut *shared.errors.lock().unwrap());

    // LSM states: every key the writer committed, read through the tables
    // in one snapshot, here; every row on disk after the restart.  Volatile
    // states: every row, here, through a scan.
    let checked = if cfg.lsm {
        layers.sstables = env.stores.iter().map(|s| s.sstables() as u64).sum();
        let live_bytes = 2 * cfg.table_size as u64 * (4 + crate::inputs::VALUE_BYTES as u64);
        layers.space_amp =
            env.stores.iter().map(|s| s.disk_bytes()).sum::<u64>() as f64 / live_bytes as f64;
        check_keys(&env, &w.model, w.model.keys().copied())
    } else {
        // Both states at once: the clients have stopped, so each scan sees
        // the final committed image.
        let scans: Vec<checks::Check> = std::thread::scope(|s| {
            let scans: Vec<_> = env
                .states
                .iter()
                .map(|t| s.spawn(|| scan_checked(&env, t, &w.model, cfg.table_size)))
                .collect();
            scans.into_iter().map(|h| h.join().expect("scan")).collect()
        });
        scans
            .into_iter()
            .enumerate()
            .try_for_each(|(i, scan)| scan.map_err(|e| format!("state {}: {e}", i + 1)))
    };
    if let Err(e) = checked {
        errors.push(format!("after the run: {e}"));
    }
    drop_env(env);

    let (recovered, recovery_s) = match &dir {
        Some(dir) => {
            // Reopening is cheap next to the run and repeats the same work;
            // the fastest of four reopens is the steadiest figure.
            let mut times = Vec::new();
            let mut last = None;
            for _ in 0..4 {
                if let Some(Ok((env, _))) = last.take() {
                    drop_env(env);
                }
                let started = Instant::now();
                last = Some(reopen(protocol, dir));
                times.push(started.elapsed().as_secs_f64());
            }
            (last, times.into_iter().fold(f64::INFINITY, f64::min))
        }
        None => (None, 0.0),
    };
    match &recovered {
        None => {}
        Some(Ok((env, last_cts))) => {
            let last_cts = *last_cts;
            if w.last_cts.is_some_and(|c| c != last_cts) {
                errors.push(format!(
                    "recovered LastCTS {last_cts}, the writer's last commit was {:?}",
                    w.last_cts
                ));
            }
            let on_disk = std::thread::scope(|s| {
                let checks: Vec<_> = env
                    .stores
                    .iter()
                    .map(|store| s.spawn(|| check_store(store, &w.model, cfg.table_size)))
                    .collect();
                checks
                    .into_iter()
                    .try_for_each(|c| c.join().expect("store check"))
            });
            let keys = w.model.keys().copied();
            if let Err(e) = on_disk.and_then(|_| check_keys(env, &w.model, keys)) {
                errors.push(format!("after recovery: {e}"));
            }
        }
        Some(Err(e)) => errors.push(format!("recovery failed: {e}")),
    }
    if let Some(Ok((env, _))) = recovered {
        drop_env(env);
    }

    Ok(CellResult {
        protocol,
        setup_s,
        recovery_s: (recovery_s > 0.0).then_some(recovery_s),
        windows,
        rates,
        query_p50_ns: crate::median_u64(&mut q.latencies),
        stream_cpu_p50_ns: crate::median_u64(&mut w.cpu_ns),
        attempted: w.attempted + q.attempted,
        failed: w.failed + q.failed,
        errors,
        layers,
    })
}

/// Scans one volatile state and checks it against the model.
fn scan_checked(
    env: &Env,
    table: &TableHandle<u32, Vec<u8>>,
    model: &HashMap<u32, u64>,
    table_size: u32,
) -> checks::Check {
    let tx = env.mgr.begin_read_only().map_err(|e| e.to_string())?;
    let rows = table.scan(&tx).map_err(|e| e.to_string())?;
    env.mgr.commit(&tx).map_err(|e| e.to_string())?;
    checks::contents_match_model(rows.iter().map(|(k, v)| (*k, v)), model, table_size)
}

/// Drops an environment, tearing the two states down on two threads (a
/// million-row multi-version state takes seconds to free).
fn drop_env(env: Env) {
    let Env {
        ctx,
        mgr,
        states,
        stores,
        group: _,
    } = env;
    drop(mgr);
    let [a, b] = states;
    std::thread::scope(|s| {
        s.spawn(move || drop(b));
        drop(a);
    });
    drop(stores);
    drop(ctx);
}

/// Reopens the LSM states from disk, resumes the clock and restores the
/// group's `LastCTS` — a restart.
fn reopen(protocol: Protocol, dir: &Path) -> Result<(Env, u64)> {
    let stores = Env::open_stores(dir)?;
    let backends: Vec<&dyn StorageBackend> =
        stores.iter().map(|s| &**s as &dyn StorageBackend).collect();
    let clock = resume_clock(&backends)?;
    let env = Env::build(protocol, stores, clock)?;
    let backends: Vec<&dyn StorageBackend> = env
        .stores
        .iter()
        .map(|s| &**s as &dyn StorageBackend)
        .collect();
    let report = restore_group(&env.ctx, env.group, &backends)?;
    Ok((env, report.last_cts))
}

/// Every row a reopened store holds must equal the writer's model.
fn check_store(store: &ProbedLsm, model: &HashMap<u32, u64>, table_size: u32) -> checks::Check {
    let mut check = checks::ModelCheck::new(model, table_size);
    let mut bad_key = None;
    store
        .scan(&mut |k, v| {
            if k.starts_with(tsp_core::table::common::META_PREFIX) {
                return true;
            }
            match u32::decode(k) {
                Ok(k) => check.row(k, v),
                Err(_) => {
                    bad_key = Some(k.to_vec());
                    false
                }
            }
        })
        .map_err(|e| e.to_string())?;
    if let Some(k) = bad_key {
        return Err(format!("undecodable key {k:?} on disk"));
    }
    check.finish().map_err(|e| format!("on disk: {e}"))
}

/// Every key of `keys` must read, in one snapshot, the same sequence in
/// both states — the sequence the writer committed last (0 if never).
fn check_keys(
    env: &Env,
    model: &HashMap<u32, u64>,
    keys: impl Iterator<Item = u32>,
) -> checks::Check {
    let tx = env.mgr.begin_read_only().map_err(|e| e.to_string())?;
    for k in keys {
        let a = env.states[0].read(&tx, &k).map_err(|e| e.to_string())?;
        let b = env.states[1].read(&tx, &k).map_err(|e| e.to_string())?;
        checks::same_seq_in_both(k, a.as_deref(), b.as_deref())?;
        let want = model.get(&k).copied().unwrap_or(0);
        let got = a.as_deref().and_then(crate::inputs::decode_seq);
        if got != Some(want) {
            return Err(format!(
                "key {k}: reads seq {got:?}, the writer committed {want}"
            ));
        }
    }
    env.mgr.commit(&tx).map_err(|e| e.to_string())?;
    Ok(())
}
