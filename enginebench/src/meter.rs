//! The `meter_pipeline` workload: the paper's Figure 1 dataflow through
//! the stream operators, under MVCC.
//!
//! A seeded meter-reading source feeds punctuated transactions of
//! [`READINGS_PER_TXN`] readings into two grouped `TO_TABLE` states on
//! LSM-fsync — an accumulating read+write of (count, sum) per meter and the
//! latest (index, value) per meter.  An on-commit `TO_STREAM` query checks
//! both against a specification state and emits one verify result per
//! transaction.  Beside the pipeline, one ad-hoc report client scans both
//! states at a fixed rate.
//!
//! Each round replays the same seeded input on fresh states, then runs the
//! fault probe: a fixed input that holds a snapshot open while
//! [`PROBE_TXNS`] single-reading transactions update one meter.  MVCC runs
//! out of version slots and `TO_TABLE` drops the failed commits without an
//! error reaching the pipeline; the lost transactions are counted as failed
//! operations, the same number in every round.
//!
//! In `meter_pipeline` the snapshot readers (the verify query and the
//! reports) take [`Turns`] with the pipeline's commits, so that no reader
//! begins while a commit is under way; `meter_concurrent` runs them freely
//! and can lose a snapshot's consistency to a fault of the engine (see
//! `README.md`, "Known faults").

use crate::checks::{self, PipelineView};
use crate::inputs::{
    MeterInputs, MeterReference, Reading, PROBE_METER, PROBE_TXNS, READINGS_PER_TXN, REPORT_PERIOD,
};
use crate::retry;
use crate::storage::{ProbedLsm, ScratchDir};
use crate::trace::{self, span, Layer, Role};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tsp_common::{GroupId, Result};
use tsp_core::{
    restore_group, resume_clock, GlobalClock, Protocol, StateContext, TableHandle,
    TransactionManager, TransactionalTableExt, Tx,
};
use tsp_storage::{Codec, StorageBackend};
use tsp_stream::{Boundaries, ToTable, Topology, TriggerPolicy, TxCoordinator};

type Pair = (u64, u64);

/// Builds of the pipeline states per round whose median is the round's
/// set-up time.
const SETUP_BUILDS: usize = 5;

/// How long a turn is waited for before the turns are given up (a verify
/// result that never comes; the verify check then fails the round).
const TURN_LIMIT: Duration = Duration::from_secs(20);

/// Turns between the pipeline's transactions and its snapshot readers,
/// served in the order they were taken.  A pipeline transaction holds its
/// turn from its first reading to its verify result at the sink, a report
/// from its begin to its commit.  With turns on, no snapshot begins while
/// a pipeline commit is under way.
struct Turns {
    on: bool,
    /// (next ticket, ticket now served, given up)
    state: Mutex<(u64, u64, bool)>,
    cv: Condvar,
}

impl Turns {
    fn new(on: bool) -> Self {
        Turns {
            on,
            state: Mutex::new((0, 0, false)),
            cv: Condvar::new(),
        }
    }

    /// Waits for the next turn.
    fn take(&self) {
        if !self.on {
            return;
        }
        let mut s = self.state.lock().unwrap();
        let ticket = s.0;
        s.0 += 1;
        while s.1 < ticket && !s.2 {
            let (guard, wait) = self.cv.wait_timeout(s, TURN_LIMIT).unwrap();
            s = guard;
            if wait.timed_out() {
                s.2 = true;
                self.cv.notify_all();
            }
        }
    }

    /// Ends the turn being served.
    fn pass(&self) {
        if self.on {
            self.state.lock().unwrap().1 += 1;
            self.cv.notify_all();
        }
    }

    /// True if a turn was waited for in vain.
    fn given_up(&self) -> bool {
        self.state.lock().unwrap().2
    }
}

/// The metering states: specification (volatile) plus the two grouped
/// pipeline states on LSM-fsync.
struct MeterEnv {
    ctx: Arc<StateContext>,
    mgr: Arc<TransactionManager>,
    spec: TableHandle<u32, u64>,
    sums: TableHandle<u32, Pair>,
    last: TableHandle<u32, Pair>,
    stores: Vec<Arc<ProbedLsm>>,
    group: GroupId,
}

impl MeterEnv {
    fn build(dir: &Path, clock: Option<GlobalClock>) -> Result<MeterEnv> {
        let stores = vec![
            ProbedLsm::open(&dir.join("sums"))?,
            ProbedLsm::open(&dir.join("last"))?,
        ];
        let clock = match clock {
            Some(c) => c,
            None => GlobalClock::new(),
        };
        let ctx = Arc::new(StateContext::with_clock(clock));
        let mgr = TransactionManager::new(Arc::clone(&ctx));
        let p = Protocol::Mvcc;
        let spec: TableHandle<u32, u64> = p.create_table(&ctx, "specification", None);
        let sums: TableHandle<u32, Pair> = p.create_table(
            &ctx,
            "sums",
            Some(Arc::clone(&stores[0]) as Arc<dyn StorageBackend>),
        );
        let last: TableHandle<u32, Pair> = p.create_table(
            &ctx,
            "last",
            Some(Arc::clone(&stores[1]) as Arc<dyn StorageBackend>),
        );
        mgr.register(Arc::clone(&spec).as_participant());
        mgr.register(Arc::clone(&sums).as_participant());
        mgr.register(Arc::clone(&last).as_participant());
        mgr.register_group(&[spec.id()])?;
        let group = mgr.register_group(&[sums.id(), last.id()])?;
        Ok(MeterEnv {
            ctx,
            mgr,
            spec,
            sums,
            last,
            stores,
            group,
        })
    }
}

/// Reads both pipeline states and the specification in `tx`.
fn read_view(env_tables: &Tables, tx: &Tx) -> Result<PipelineView> {
    let sums = span(Layer::Scan, || env_tables.sums.scan(tx))?;
    let last = span(Layer::Scan, || env_tables.last.scan(tx))?;
    let spec = span(Layer::Scan, || env_tables.spec.scan(tx))?;
    let mut view = PipelineView {
        count: 0,
        sum: 0,
        max_last_index: None,
        violations: 0,
    };
    for (m, (c, s)) in &sums {
        if *m != PROBE_METER {
            view.count += c;
            view.sum += s;
        }
    }
    for (m, (i, v)) in &last {
        if *m != PROBE_METER {
            view.max_last_index = view.max_last_index.max(Some(*i));
            if spec.get(m).is_some_and(|limit| v > limit) {
                view.violations += 1;
            }
        }
    }
    Ok(view)
}

#[derive(Clone)]
struct Tables {
    spec: TableHandle<u32, u64>,
    sums: TableHandle<u32, Pair>,
    last: TableHandle<u32, Pair>,
}

/// The outcome of one round.
#[derive(Debug, Default)]
pub struct RoundResult {
    /// Build of the states + specification preload, median of
    /// `SETUP_BUILDS` builds (s).
    pub setup_s: f64,
    /// Reopen + `LastCTS` restore (s).
    pub recovery_s: f64,
    /// From source start to the last verify result (s).
    pub pipeline_s: f64,
    /// User-mode CPU time of the whole process meanwhile (s).
    pub pipeline_cpu_s: f64,
    /// Readings that reached committed state.
    pub readings_committed: u64,
    /// Pipeline transactions committed (main input).
    pub txns_committed: u64,
    /// Report latencies from due time (ns).
    pub report_latencies: Vec<u64>,
    /// Reports committed.
    pub reports_committed: u64,
    /// From the first report's due time to the last report's end (s).
    pub report_s: f64,
    /// Report attempts (retries included).
    pub report_attempts: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Probe transactions lost.
    pub probe_lost: u64,
    /// Failed checks.
    pub errors: Vec<String>,
    /// Mean time the source waited on backpressure per reading (ns).
    pub source_blocked_ns: f64,
    /// Mean time from a transaction's last reading to its verify result (ns).
    pub result_latency_ns: f64,
    /// Median GC floor lag sampled while the pipeline ran.
    pub floor_lag: f64,
    /// MVCC versions reclaimed in the round.
    pub gc_reclaimed: u64,
    /// SSTables of both stores at the end of the round.
    pub sstables: u64,
    /// Disk bytes per live user byte at the end of the round.
    pub space_amp: f64,
    /// Telemetry of the round.
    pub telemetry: Option<tsp_core::TelemetrySnapshot>,
}

fn writer_sums(
    mgr: &Arc<TransactionManager>,
    coord: &Arc<TxCoordinator>,
    t: &Tables,
) -> ToTable<Reading> {
    let sums = Arc::clone(&t.sums);
    ToTable::new(
        Arc::clone(mgr),
        Arc::clone(coord),
        t.sums.id(),
        Boundaries::Punctuations,
        move |tx: &Tx, r: &Reading| {
            trace::set_role(Role::Stream);
            span(Layer::ToTableApply, || {
                let (c, s) = span(Layer::Read, || sums.read(tx, &r.meter))?.unwrap_or((0, 0));
                span(Layer::Write, || {
                    sums.write(tx, r.meter, (c + 1, s + r.value))
                })
            })
        },
    )
}

fn writer_last(
    mgr: &Arc<TransactionManager>,
    coord: &Arc<TxCoordinator>,
    t: &Tables,
) -> ToTable<Reading> {
    let last = Arc::clone(&t.last);
    ToTable::new(
        Arc::clone(mgr),
        Arc::clone(coord),
        t.last.id(),
        Boundaries::Punctuations,
        move |tx: &Tx, r: &Reading| {
            trace::set_role(Role::Stream);
            span(Layer::ToTableApply, || {
                span(Layer::Write, || last.write(tx, r.meter, (r.index, r.value)))
            })
        },
    )
}

/// Runs one round on fresh states, with `reports` reports issued every
/// [`REPORT_PERIOD`]; `concurrent` lets the snapshot readers run without
/// [`Turns`].
pub fn run_round(
    reports: usize,
    inputs: &Arc<MeterInputs>,
    reference: &MeterReference,
    tag: &str,
    traced: bool,
    concurrent: bool,
) -> Result<RoundResult> {
    let scratch = ScratchDir::new(tag)?;
    let mut out = RoundResult::default();

    // A build takes about a millisecond, mostly file creation, so it is
    // timed over `SETUP_BUILDS` builds; the round runs on the last one.
    let mut setup_times = Vec::new();
    let mut built = None;
    for i in 0..SETUP_BUILDS {
        drop(built.take());
        let dir = scratch.path().join(format!("build{i}"));
        let started = Instant::now();
        let env = MeterEnv::build(&dir, None)?;
        env.spec.preload(
            inputs
                .limits
                .iter()
                .enumerate()
                .map(|(m, l)| (m as u32, *l)),
        )?;
        setup_times.push(started.elapsed().as_secs_f64());
        built = Some((dir, env));
    }
    let (dir, env) = built.expect("at least one build");
    out.setup_s = crate::median(&mut setup_times);
    let tables = Tables {
        spec: Arc::clone(&env.spec),
        sums: Arc::clone(&env.sums),
        last: Arc::clone(&env.last),
    };
    let gc_before = env.ctx.stats().snapshot().gc_reclaimed;
    env.ctx.telemetry().reset();

    // The pipeline.
    let total = inputs.readings.len();
    let txns = total.div_ceil(READINGS_PER_TXN);
    let marks = Arc::new(Mutex::new(Vec::with_capacity(txns)));
    let results: Arc<Mutex<Vec<(Instant, PipelineView)>>> = Arc::new(Mutex::new(Vec::new()));
    let blocked = Arc::new(Mutex::new(Duration::ZERO));
    let turns = Arc::new(Turns::new(!concurrent));
    let coord = TxCoordinator::new(Arc::clone(&env.ctx));
    let topo = Topology::new();
    {
        let inputs = Arc::clone(inputs);
        let marks = Arc::clone(&marks);
        let blocked = Arc::clone(&blocked);
        let verify_tables = tables.clone();
        let sink = Arc::clone(&results);
        let source_turns = Arc::clone(&turns);
        let sink_turns = Arc::clone(&turns);
        let mut generated_at: Option<Instant> = None;
        let mut waited = Duration::ZERO;
        topo.source_generate(total as u64, move |i| {
            let now = Instant::now();
            if let Some(prev) = generated_at {
                waited += now - prev;
            }
            let i = i as usize;
            if i.is_multiple_of(READINGS_PER_TXN) {
                source_turns.take();
            }
            let r = span(Layer::SourceGen, || inputs.readings[i]);
            if (i + 1).is_multiple_of(READINGS_PER_TXN) || i + 1 == inputs.readings.len() {
                marks.lock().unwrap().push(Instant::now());
                if i + 1 == inputs.readings.len() {
                    *blocked.lock().unwrap() = waited;
                }
            }
            generated_at = Some(Instant::now());
            r
        })
        .punctuate_every(READINGS_PER_TXN, Arc::clone(&coord))
        .to_table(writer_sums(&env.mgr, &coord, &tables))
        .to_table(writer_last(&env.mgr, &coord, &tables))
        .to_stream(Arc::clone(&env.mgr), TriggerPolicy::OnCommit, move |tx| {
            span(Layer::ToStreamVerify, || {
                Ok(vec![read_view(&verify_tables, tx)?])
            })
        })
        .for_each(move |view| {
            sink.lock().unwrap().push((Instant::now(), view));
            sink_turns.pass();
        });
    }

    trace::set_enabled(traced);
    let cpu = crate::process_user_ns();
    let pipeline_started = Instant::now();
    topo.start();
    let report = std::thread::scope(|s| {
        let reporter = s.spawn(|| {
            report_client(
                reports,
                &env.mgr,
                &tables,
                &turns,
                reference,
                total,
                pipeline_started,
            )
        });
        let mut lags = Vec::new();
        while results.lock().unwrap().len() < txns
            && pipeline_started.elapsed() < Duration::from_secs(120)
        {
            let now = env.ctx.clock().now();
            lags.push(now.saturating_sub(env.ctx.oldest_active_fresh()) as f64);
            std::thread::sleep(Duration::from_millis(5));
        }
        topo.join();
        out.pipeline_s = pipeline_started.elapsed().as_secs_f64();
        out.pipeline_cpu_s = (crate::process_user_ns() - cpu) as f64 / 1e9;
        out.floor_lag = crate::median(&mut lags);
        reporter.join().expect("report client")
    });
    trace::set_enabled(false);
    out.report_latencies = report.latencies;
    out.reports_committed = report.committed;
    out.report_attempts = report.attempts;
    out.report_s = report.secs;
    out.errors.extend(report.errors);
    if turns.given_up() {
        out.errors
            .push("a pipeline transaction never passed its turn".into());
    }

    let results = std::mem::take(&mut *results.lock().unwrap());
    let marks = std::mem::take(&mut *marks.lock().unwrap());
    out.source_blocked_ns = blocked.lock().unwrap().as_nanos() as f64 / total.max(1) as f64;
    let lat: Vec<f64> = results
        .iter()
        .zip(&marks)
        .map(|((at, _), mark)| at.saturating_duration_since(*mark).as_nanos() as f64)
        .collect();
    out.result_latency_ns = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    let views: Vec<PipelineView> = results.iter().map(|(_, v)| *v).collect();
    if let Err(e) = checks::verify_results(&views, txns, reference, total) {
        out.errors.push(format!("verify results: {e}"));
    }

    // Final committed states against the seeded reference.
    let (sums, last) = read_states(&env.mgr, &tables)?;
    out.readings_committed = sums.values().map(|(c, _)| c).sum();
    let lost_readings = total as u64 - out.readings_committed;
    out.txns_committed = txns as u64 - lost_readings.div_ceil(READINGS_PER_TXN as u64);
    let violations = violations_of(&last, &inputs.limits);
    if let Err(e) = checks::meter_states_match(&sums, &last, &violations, reference) {
        out.errors.push(format!("pipeline states: {e}"));
    }

    // The fault probe.
    let probe_committed = probe(&env, &tables)?;
    out.probe_lost = PROBE_TXNS as u64 - probe_committed;

    out.gc_reclaimed = env.ctx.stats().snapshot().gc_reclaimed - gc_before;
    out.telemetry = Some(env.ctx.telemetry_snapshot());
    out.sstables = env.stores.iter().map(|s| s.sstables() as u64).sum();
    let live_rows = sums.len() + last.len() + 2;
    out.space_amp = env.stores.iter().map(|s| s.disk_bytes()).sum::<u64>() as f64
        / (live_rows * (4 + 16)) as f64;
    let mut acked = sums;
    acked.insert(PROBE_METER, (probe_committed, probe_committed));
    drop(tables);
    drop(env);

    // Restart: reopen, resume the clock, restore LastCTS, check again.
    // The fastest of three reopens: each repeats the same work.
    let mut recovered = None;
    out.recovery_s = f64::INFINITY;
    for _ in 0..3 {
        drop(recovered.take());
        let started = Instant::now();
        recovered = Some(reopen(&dir));
        out.recovery_s = out.recovery_s.min(started.elapsed().as_secs_f64());
    }
    let recovered = recovered.expect("three reopens");
    match recovered {
        Ok(env) => {
            if let Err(e) = check_reopened(&env, &acked, &last) {
                out.errors.push(format!("after recovery: {e}"));
            }
        }
        Err(e) => out.errors.push(format!("recovery failed: {e}")),
    }

    out.attempted = txns as u64 + reports as u64 + PROBE_TXNS as u64;
    out.failed = (txns as u64 - out.txns_committed) + out.probe_lost + report.failed;
    Ok(out)
}

struct ReportOut {
    secs: f64,
    latencies: Vec<u64>,
    committed: u64,
    attempts: u64,
    failed: u64,
    errors: Vec<String>,
}

/// The fixed-rate report client: report `k` is due `k` periods after the
/// pipeline started; its latency runs from its turn (at or after the due
/// time) to its commit.
fn report_client(
    reports: usize,
    mgr: &Arc<TransactionManager>,
    tables: &Tables,
    turns: &Turns,
    reference: &MeterReference,
    total: usize,
    start: Instant,
) -> ReportOut {
    trace::set_role(Role::Query);
    let mut out = ReportOut {
        secs: 0.0,
        latencies: Vec::new(),
        committed: 0,
        attempts: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let never = std::sync::atomic::AtomicBool::new(false);
    for k in 0..reports {
        let due = start + REPORT_PERIOD * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        turns.take();
        let began = Instant::now();
        let (result, attempts) = retry(&never, || {
            span(Layer::Op, || {
                let tx = span(Layer::Begin, || mgr.begin_read_only())?;
                let view = read_view(tables, &tx);
                let committed = span(Layer::Commit, || mgr.commit(&tx));
                if committed.is_err() {
                    let _ = mgr.abort(&tx);
                }
                committed.and(view)
            })
        });
        let latency = began.elapsed();
        turns.pass();
        out.attempts += attempts;
        match result.expect("reports are never abandoned") {
            Ok(view) => {
                out.latencies.push(latency.as_nanos() as u64);
                out.committed += 1;
                if let Err(e) = checks::view_is_prefix(&view, reference, total) {
                    out.failed += 1;
                    if out.errors.len() < 4 {
                        out.errors.push(format!("report {k}: {e}"));
                    }
                }
            }
            Err(e) => {
                out.failed += 1;
                if out.errors.len() < 4 {
                    out.errors.push(format!("report {k} failed: {e}"));
                }
            }
        }
    }
    out.secs = start.elapsed().as_secs_f64();
    out
}

fn read_states(
    mgr: &Arc<TransactionManager>,
    t: &Tables,
) -> Result<(HashMap<u32, Pair>, HashMap<u32, Pair>)> {
    let tx = mgr.begin_read_only()?;
    let sums = t.sums.scan(&tx)?;
    let last = t.last.scan(&tx)?;
    mgr.commit(&tx)?;
    let strip = |m: std::collections::BTreeMap<u32, Pair>| {
        m.into_iter().filter(|(k, _)| *k != PROBE_METER).collect()
    };
    Ok((strip(sums), strip(last)))
}

fn violations_of(last: &HashMap<u32, Pair>, limits: &[u64]) -> Vec<u32> {
    let mut v: Vec<u32> = last
        .iter()
        .filter(|(m, (_, value))| limits.get(**m as usize).is_some_and(|l| value > l))
        .map(|(m, _)| *m)
        .collect();
    v.sort_unstable();
    v
}

/// The fault probe: a held snapshot pins the GC floor while
/// [`PROBE_TXNS`] one-reading transactions update [`PROBE_METER`] through
/// the same two `TO_TABLE` operators.  Returns how many reached the
/// accumulating state.
fn probe(env: &MeterEnv, tables: &Tables) -> Result<u64> {
    let held = env.mgr.begin_read_only()?;
    env.sums.read(&held, &PROBE_METER)?;
    let coord = TxCoordinator::new(Arc::clone(&env.ctx));
    let topo = Topology::new();
    topo.source_vec(MeterInputs::probe())
        .punctuate_every(1, Arc::clone(&coord))
        .to_table(writer_sums(&env.mgr, &coord, tables))
        .to_table(writer_last(&env.mgr, &coord, tables))
        .drain();
    topo.run();
    env.mgr.commit(&held)?;
    let tx = env.mgr.begin_read_only()?;
    let got = env.sums.read(&tx, &PROBE_METER)?.map_or(0, |(c, _)| c);
    env.mgr.commit(&tx)?;
    Ok(got)
}

fn reopen(dir: &Path) -> Result<MeterEnv> {
    let clock = {
        let stores = [
            ProbedLsm::open(&dir.join("sums"))?,
            ProbedLsm::open(&dir.join("last"))?,
        ];
        resume_clock(&[&*stores[0] as &dyn StorageBackend, &*stores[1]])?
    };
    let env = MeterEnv::build(dir, Some(clock))?;
    let backends: Vec<&dyn StorageBackend> = env
        .stores
        .iter()
        .map(|s| &**s as &dyn StorageBackend)
        .collect();
    restore_group(&env.ctx, env.group, &backends)?;
    Ok(env)
}

/// The reopened stores must hold every acknowledged (count, sum) and last
/// reading, on disk and through the tables.
fn check_reopened(
    env: &MeterEnv,
    sums: &HashMap<u32, Pair>,
    last: &HashMap<u32, Pair>,
) -> checks::Check {
    for (store, want, name) in [
        (&env.stores[0], sums, "sums"),
        (&env.stores[1], last, "last"),
    ] {
        let mut got: HashMap<u32, Pair> = HashMap::new();
        store
            .scan(&mut |k, v| {
                if k.len() == 4 {
                    if let (Ok(k), Ok(v)) = (u32::decode(k), Pair::decode(v)) {
                        got.insert(k, v);
                    }
                }
                true
            })
            .map_err(|e| e.to_string())?;
        if name == "last" {
            got.remove(&PROBE_METER);
        }
        if &got != want {
            return Err(format!(
                "{name} on disk differs from the acknowledged state"
            ));
        }
    }
    let tx = env.mgr.begin_read_only().map_err(|e| e.to_string())?;
    let through_tables = env.sums.scan(&tx).map_err(|e| e.to_string())?;
    env.mgr.commit(&tx).map_err(|e| e.to_string())?;
    if through_tables.len() != sums.len() {
        return Err(format!(
            "{} meters readable after reopen, {} acknowledged",
            through_tables.len(),
            sums.len()
        ));
    }
    Ok(())
}
