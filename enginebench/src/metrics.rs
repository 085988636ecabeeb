//! Workload dispatch and the metrics each run reports.
//!
//! Every run reports every end-to-end metric ([`END_TO_END`]); a traced run
//! reports every per-layer metric ([`per_layer_names`]), 0 for a layer the
//! workload does not reach.

use crate::fig4::{self, CellResult, Fig4Config};
use crate::inputs::{
    Fig4Inputs, MeterInputs, MeterReference, READINGS_PER_ROUND, READINGS_PER_TXN, TABLE_SIZE,
};
use crate::meter::{self, RoundResult};
use crate::storage::ScratchDir;
use crate::trace::{self, Layer, Role, Trace};
use crate::{geomean, median, median_u64};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsp_common::Result;
use tsp_core::Protocol;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 4, θ = 0, two LSM-fsync states.
    Fig4Uniform,
    /// Figure 4, θ = 2.5, two LSM-fsync states.
    Fig4Skewed,
    /// Figure 4, θ = 0, two volatile states.
    InmemUniform,
    /// The Figure 1 metering pipeline under MVCC.
    MeterPipeline,
    /// The same pipeline with its snapshot readers free to begin while a
    /// pipeline commit is under way.
    MeterConcurrent,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 5] = [
        Workload::Fig4Uniform,
        Workload::Fig4Skewed,
        Workload::InmemUniform,
        Workload::MeterPipeline,
        Workload::MeterConcurrent,
    ];

    /// The workloads `BENCHMARK.json` lists.  `fig4_skewed` and
    /// `meter_concurrent` are left out: now and then one of their snapshot
    /// queries reads a state that no commit produced (see `README.md`,
    /// "Known faults").
    pub const BENCHMARKED: [Workload; 3] = [
        Workload::Fig4Uniform,
        Workload::InmemUniform,
        Workload::MeterPipeline,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Uniform => "fig4_uniform",
            Workload::Fig4Skewed => "fig4_skewed",
            Workload::InmemUniform => "inmem_uniform",
            Workload::MeterPipeline => "meter_pipeline",
            Workload::MeterConcurrent => "meter_concurrent",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes; [`Scale::full`] is the benchmark, [`Scale::smoke`] a
/// seconds-long check of the same code.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Rows per Figure 4 state.
    pub table_size: u32,
    /// Readings per pipeline round.
    pub readings: usize,
    /// Reports per pipeline round.
    pub reports: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            table_size: TABLE_SIZE,
            readings: READINGS_PER_ROUND,
            reports: 60,
        }
    }

    /// Small sizes for tests.
    pub fn smoke() -> Self {
        Scale {
            table_size: 20_000,
            readings: 2_000,
            reports: 5,
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// True when every check passed for the operations that did not fail.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The run's metrics.
    pub metrics: Vec<Metric>,
    /// Failed checks.
    pub errors: Vec<String>,
    /// Human-readable per-cell lines.
    pub summary: Vec<String>,
    /// The traced run's raw spans (empty untraced).
    pub spans: Vec<trace::RawSpan>,
}

/// Short protocol names used as metric suffixes, in cell order.
pub const PROTOCOLS: [&str; 4] = ["mvcc", "s2pl", "bocc", "ssi"];

/// The end-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("recovery_s", "s"),
    ("stream_cpu_us", "us"),
    ("query_tps", "1/s"),
    ("query_ms", "ms"),
];

/// The per-layer metrics: (name, unit), in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    let per_protocol: [(&str, &str); 19] = [
        ("cell.query_tps", "1/s"),
        ("cell.stream_tps", "1/s"),
        ("manager.begin_ns", "ns"),
        ("manager.commit_query_ns", "ns"),
        ("manager.commit_stream_ns", "ns"),
        ("manager.validate_ns", "ns"),
        ("manager.apply_ns", "ns"),
        ("manager.durable_handoff_ns", "ns"),
        ("manager.query_attempts_per_commit", "count"),
        ("manager.stream_attempts_per_commit", "count"),
        ("table.read_ns", "ns"),
        ("table.read_p99_ns", "ns"),
        ("table.write_ns", "ns"),
        ("storage.get_ns", "ns"),
        ("storage.gets_per_query", "count"),
        ("storage.write_batch_ns", "ns"),
        ("storage.batches_per_commit", "count"),
        ("storage.bytes_per_commit", "B"),
        ("gc.reclaimed", "count"),
    ];
    for (name, unit) in per_protocol {
        for p in PROTOCOLS {
            out.push((format!("{name}.{p}"), unit));
        }
    }
    for p in ["mvcc", "ssi"] {
        out.push((format!("gc.floor_lag.{p}"), "ts"));
    }
    for (name, unit) in [
        ("table.scan_ms", "ms"),
        ("storage.sstables", "count"),
        ("storage.space_amp", "ratio"),
        ("storage.scan_ms", "ms"),
        ("stream.readings_per_s", "1/s"),
        ("stream.report_ms", "ms"),
        ("stream.source_blocked_us", "us"),
        ("stream.to_table_apply_us", "us"),
        ("stream.verify_query_ms", "ms"),
        ("stream.result_latency_ms", "ms"),
        ("trace.residual_pct", "%"),
        ("trace.overhead_pct", "%"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// Runs `workload` for about `seconds` of measurement.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    traced: bool,
    scale: &Scale,
) -> Result<Outcome> {
    trace::set_enabled(false);
    let _ = trace::harvest();
    match workload {
        Workload::MeterPipeline => run_meter(seed, seconds, traced, scale, false),
        Workload::MeterConcurrent => run_meter(seed, seconds, traced, scale, true),
        w => {
            let (theta, lsm) = match w {
                Workload::Fig4Uniform => (0.0, true),
                Workload::Fig4Skewed => (2.5, true),
                _ => (0.0, false),
            };
            run_fig4(seed, seconds, traced, scale, theta, lsm)
        }
    }
}

fn run_fig4(
    seed: u64,
    seconds: Duration,
    traced: bool,
    scale: &Scale,
    theta: f64,
    lsm: bool,
) -> Result<Outcome> {
    let inputs = Fig4Inputs::new(seed, scale.table_size, theta);
    let per_cell = seconds / Protocol::ALL.len() as u32;
    let cfg = Fig4Config {
        table_size: scale.table_size,
        lsm,
        warmup: per_cell / 5,
        measure: per_cell - per_cell / 5,
        trace: traced,
    };
    let template = if lsm {
        Some(ScratchDir::new("template")?)
    } else {
        None
    };
    let template_setup = match &template {
        Some(t) => Some(fig4::preload_template(t.path(), scale.table_size)?),
        None => None,
    };
    let mut cells = Vec::new();
    for (i, p) in Protocol::ALL.into_iter().enumerate() {
        trace::set_cell(i);
        cells.push(fig4::run_cell(
            &cfg,
            p,
            &inputs,
            template.as_ref().map(|t| t.path()),
        )?);
    }
    drop(template);
    let tps = |c: &CellResult, w: usize, query: bool| {
        c.rates
            .get(w)
            .map_or(0.0, |r| if query { r.query } else { r.stream })
    };
    let mut summary = Vec::new();
    for c in &cells {
        summary.push(format!(
            "{:<5} setup {:.3}s recovery {} query {:.0}/s stream {:.0}/s query p50 {:.3}ms",
            c.protocol.name(),
            c.setup_s,
            c.recovery_s.map_or("-".into(), |r| format!("{r:.3}s")),
            tps(c, 0, true),
            tps(c, 0, false),
            c.query_p50_ns / 1e6
        ));
    }
    let errors: Vec<String> = cells
        .iter()
        .flat_map(|c| {
            c.errors
                .iter()
                .map(move |e| format!("{}: {e}", c.protocol.name()))
        })
        .collect();
    let attempted = cells.iter().map(|c| c.attempted).sum();
    let failed = cells.iter().map(|c| c.failed).sum();
    let mut spans = Vec::new();
    let metrics = if traced {
        let mut t = trace::harvest();
        spans = std::mem::take(&mut t.spans);
        let mut m = HashMap::new();
        for (i, c) in cells.iter().enumerate() {
            let p = PROTOCOLS[i];
            let w = &c.windows[1];
            m.insert(format!("cell.query_tps.{p}"), tps(c, 0, true));
            m.insert(format!("cell.stream_tps.{p}"), tps(c, 0, false));
            per_protocol_layers(&mut m, &t, i, w.query_commits, w.stream_commits);
            m.insert(
                format!("manager.query_attempts_per_commit.{p}"),
                ratio(w.query_attempts, w.query_commits),
            );
            m.insert(
                format!("manager.stream_attempts_per_commit.{p}"),
                ratio(w.stream_attempts, w.stream_commits),
            );
            telemetry_layers(&mut m, p, c.layers.telemetry.as_ref());
            m.insert(format!("gc.reclaimed.{p}"), c.layers.gc_reclaimed as f64);
            m.insert(format!("gc.floor_lag.{p}"), c.layers.floor_lag);
        }
        if lsm {
            m.insert(
                "storage.sstables".into(),
                mean(cells.iter().map(|c| c.layers.sstables as f64)),
            );
            m.insert(
                "storage.space_amp".into(),
                mean(cells.iter().map(|c| c.layers.space_amp)),
            );
        }
        shared_layers(&mut m, &t);
        let ratios: Vec<f64> = cells
            .iter()
            .map(|c| {
                let ops = |w: usize| tps(c, w, true) + tps(c, w, false);
                ops(1) / ops(0)
            })
            .collect();
        m.insert(
            "trace.overhead_pct".into(),
            100.0 * (1.0 - geomean(&ratios)),
        );
        layer_metrics(m)
    } else {
        let mut setup: Vec<f64> = match template_setup {
            Some(s) => vec![s],
            None => cells.iter().map(|c| c.setup_s).collect(),
        };
        let mut recovery: Vec<f64> = if lsm {
            cells.iter().filter_map(|c| c.recovery_s).collect()
        } else {
            // Volatile states have nothing to reopen: a restart rebuilds
            // them through the preload path, which the single-version
            // cells' set-up already times.
            cells
                .iter()
                .filter(|c| matches!(c.protocol, Protocol::S2pl | Protocol::Bocc))
                .map(|c| c.setup_s)
                .collect()
        };
        // Geometric means over the cells, so that each protocol counts
        // equally however fast it is.
        let per_cell = |f: &dyn Fn(&CellResult) -> f64| -> f64 {
            geomean(&cells.iter().map(f).collect::<Vec<f64>>())
        };
        end_to_end([
            median(&mut setup),
            median(&mut recovery),
            per_cell(&|c| c.stream_cpu_p50_ns / 1e3),
            per_cell(&|c| tps(c, 0, true)),
            per_cell(&|c| c.query_p50_ns / 1e6),
        ])
    };
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        errors,
        summary,
        spans,
    })
}

fn run_meter(
    seed: u64,
    seconds: Duration,
    traced: bool,
    scale: &Scale,
    concurrent: bool,
) -> Result<Outcome> {
    let inputs = Arc::new(MeterInputs::new(seed, scale.readings));
    let reference = MeterReference::of(&inputs);
    trace::set_cell(0);
    let deadline = Instant::now() + seconds;
    let mut rounds: Vec<(bool, RoundResult)> = Vec::new();
    loop {
        let traced_round = traced && rounds.len() % 2 == 1;
        let tag = format!("meter{}", rounds.len());
        let r = meter::run_round(
            scale.reports,
            &inputs,
            &reference,
            &tag,
            traced_round,
            concurrent,
        )?;
        rounds.push((traced_round, r));
        if Instant::now() >= deadline && (!traced || rounds.len() >= 2) {
            break;
        }
    }
    let mut summary = Vec::new();
    for (i, (t, r)) in rounds.iter().enumerate() {
        summary.push(format!(
            "round {i}{} setup {:.5}s recovery {:.3}s pipeline {:.3}s ({:.0} readings/s) reports {} p50 {:.3}ms probe lost {}",
            if *t { " traced" } else { "" },
            r.setup_s,
            r.recovery_s,
            r.pipeline_s,
            r.readings_committed as f64 / r.pipeline_s,
            r.reports_committed,
            median_u64(&mut r.report_latencies.clone()) / 1e6,
            r.probe_lost
        ));
    }
    let errors: Vec<String> = rounds
        .iter()
        .enumerate()
        .flat_map(|(i, (_, r))| r.errors.iter().map(move |e| format!("round {i}: {e}")))
        .collect();
    let attempted = rounds.iter().map(|(_, r)| r.attempted).sum();
    let failed = rounds.iter().map(|(_, r)| r.failed).sum();
    let pick = |traced_rounds: bool| {
        rounds
            .iter()
            .filter(move |(t, _)| *t == traced_rounds)
            .map(|(_, r)| r)
    };
    let rate = |rs: Vec<&RoundResult>| {
        let readings: u64 = rs.iter().map(|r| r.readings_committed).sum();
        let secs: f64 = rs.iter().map(|r| r.pipeline_s).sum();
        readings as f64 / secs
    };
    let mut spans = Vec::new();
    let metrics = if traced {
        let mut t = trace::harvest();
        spans = std::mem::take(&mut t.spans);
        let mut m = HashMap::new();
        let plain: Vec<&RoundResult> = pick(false).collect();
        let traced_rounds: Vec<&RoundResult> = pick(true).collect();
        let commits: u64 = traced_rounds.iter().map(|r| r.txns_committed).sum();
        let reports: u64 = traced_rounds.iter().map(|r| r.reports_committed).sum();
        let report_attempts: u64 = traced_rounds.iter().map(|r| r.report_attempts).sum();
        m.insert("cell.query_tps.mvcc".into(), query_rate(&plain));
        m.insert(
            "cell.stream_tps.mvcc".into(),
            rate(plain.clone()) / READINGS_PER_TXN as f64,
        );
        per_protocol_layers(&mut m, &t, 0, reports, commits);
        m.insert(
            "manager.query_attempts_per_commit.mvcc".into(),
            ratio(report_attempts, reports),
        );
        // `TO_TABLE` does not retry: a pipeline transaction commits at its
        // one attempt or is lost.
        let attempted =
            traced_rounds.len() as u64 * scale.readings.div_ceil(READINGS_PER_TXN) as u64;
        m.insert(
            "manager.stream_attempts_per_commit.mvcc".into(),
            ratio(attempted, commits),
        );
        let last = traced_rounds.last().copied();
        telemetry_layers(&mut m, "mvcc", last.and_then(|r| r.telemetry.as_ref()));
        m.insert(
            "gc.reclaimed.mvcc".into(),
            mean(traced_rounds.iter().map(|r| r.gc_reclaimed as f64)),
        );
        m.insert(
            "gc.floor_lag.mvcc".into(),
            mean(traced_rounds.iter().map(|r| r.floor_lag)),
        );
        m.insert(
            "storage.sstables".into(),
            mean(traced_rounds.iter().map(|r| r.sstables as f64)),
        );
        m.insert(
            "storage.space_amp".into(),
            mean(traced_rounds.iter().map(|r| r.space_amp)),
        );
        m.insert("stream.readings_per_s".into(), rate(plain.clone()));
        let mut lat: Vec<u64> = plain
            .iter()
            .flat_map(|r| r.report_latencies.iter().copied())
            .collect();
        m.insert("stream.report_ms".into(), median_u64(&mut lat) / 1e6);
        m.insert(
            "stream.source_blocked_us".into(),
            mean(traced_rounds.iter().map(|r| r.source_blocked_ns / 1e3)),
        );
        m.insert(
            "stream.to_table_apply_us".into(),
            t.agg(Some(0), None, Layer::ToTableApply).mean_ns() / 1e3,
        );
        m.insert(
            "stream.verify_query_ms".into(),
            t.agg(Some(0), None, Layer::ToStreamVerify).mean_ns() / 1e6,
        );
        m.insert(
            "stream.result_latency_ms".into(),
            mean(traced_rounds.iter().map(|r| r.result_latency_ns / 1e6)),
        );
        shared_layers(&mut m, &t);
        m.insert(
            "trace.overhead_pct".into(),
            100.0 * (1.0 - rate(traced_rounds) / rate(plain)),
        );
        layer_metrics(m)
    } else {
        let all: Vec<&RoundResult> = rounds.iter().map(|(_, r)| r).collect();
        let mut setup: Vec<f64> = all.iter().map(|r| r.setup_s).collect();
        let mut recovery: Vec<f64> = all.iter().map(|r| r.recovery_s).collect();
        // The first round warms the process up; it is checked, not timed.
        let timed = if all.len() >= 3 { &all[1..] } else { &all[..] };
        let mut lat: Vec<u64> = timed
            .iter()
            .flat_map(|r| r.report_latencies.iter().copied())
            .collect();
        let mut cpu_us: Vec<f64> = timed
            .iter()
            .map(|r| r.pipeline_cpu_s * 1e6 / r.txns_committed as f64)
            .collect();
        end_to_end([
            median(&mut setup),
            median(&mut recovery),
            median(&mut cpu_us),
            query_rate(timed),
            median_u64(&mut lat) / 1e6,
        ])
    };
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        errors,
        summary,
        spans,
    })
}

fn query_rate(rounds: &[&RoundResult]) -> f64 {
    let reports: u64 = rounds.iter().map(|r| r.reports_committed).sum();
    let secs: f64 = rounds.iter().map(|r| r.report_s).sum();
    reports as f64 / secs
}

fn end_to_end(values: [f64; 5]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect()
}

fn layer_metrics(mut values: HashMap<String, f64>) -> Vec<Metric> {
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values
                .remove(&name)
                .filter(|v| v.is_finite())
                .unwrap_or(0.0),
            name,
            unit,
        })
        .collect()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = v.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Layer metrics of protocol cell `i` from its spans; `queries` and
/// `commits` are the traced window's committed queries and stream
/// transactions.
fn per_protocol_layers(
    m: &mut HashMap<String, f64>,
    t: &Trace,
    i: usize,
    queries: u64,
    commits: u64,
) {
    let p = PROTOCOLS[i];
    let cell = Some(i);
    m.insert(
        format!("manager.begin_ns.{p}"),
        t.agg(cell, None, Layer::Begin).mean_ns(),
    );
    m.insert(
        format!("manager.commit_query_ns.{p}"),
        t.agg(cell, Some(Role::Query), Layer::Commit).mean_ns(),
    );
    m.insert(
        format!("manager.commit_stream_ns.{p}"),
        t.agg(cell, Some(Role::Stream), Layer::Commit).mean_ns(),
    );
    let read = t.agg(cell, None, Layer::Read);
    m.insert(format!("table.read_ns.{p}"), read.mean_ns());
    m.insert(format!("table.read_p99_ns.{p}"), read.quantile_ns(0.99));
    m.insert(
        format!("table.write_ns.{p}"),
        t.agg(cell, None, Layer::Write).mean_ns(),
    );
    m.insert(
        format!("storage.get_ns.{p}"),
        t.agg(cell, None, Layer::StorageGet).mean_ns(),
    );
    m.insert(
        format!("storage.gets_per_query.{p}"),
        ratio(
            t.agg(cell, Some(Role::Query), Layer::StorageGet).count,
            queries,
        ),
    );
    m.insert(
        format!("storage.write_batch_ns.{p}"),
        t.agg(cell, None, Layer::StorageWriteBatch).mean_ns(),
    );
    let batches = t.agg(cell, Some(Role::Stream), Layer::StorageWriteBatch);
    m.insert(
        format!("storage.batches_per_commit.{p}"),
        ratio(batches.count, commits),
    );
    m.insert(
        format!("storage.bytes_per_commit.{p}"),
        ratio(batches.units, commits),
    );
}

fn telemetry_layers(
    m: &mut HashMap<String, f64>,
    p: &str,
    t: Option<&tsp_core::TelemetrySnapshot>,
) {
    if let Some(t) = t {
        m.insert(
            format!("manager.validate_ns.{p}"),
            t.validate_nanos.p50 as f64,
        );
        m.insert(format!("manager.apply_ns.{p}"), t.apply_nanos.p50 as f64);
        m.insert(
            format!("manager.durable_handoff_ns.{p}"),
            t.durable_handoff_nanos.p50 as f64,
        );
    }
}

fn shared_layers(m: &mut HashMap<String, f64>, t: &Trace) {
    m.insert(
        "table.scan_ms".into(),
        t.agg(None, None, Layer::Scan).mean_ns() / 1e6,
    );
    m.insert(
        "storage.scan_ms".into(),
        t.agg(None, None, Layer::StorageScan).mean_ns() / 1e6,
    );
    let ops = t.agg(None, None, Layer::Op);
    m.insert(
        "trace.residual_pct".into(),
        100.0 * ratio(ops.self_ns, ops.total_ns),
    );
}
