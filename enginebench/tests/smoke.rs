//! Every benchmarked workload at smoke size, untraced and traced: the checks pass, the
//! fault probe loses the same share of operations in every round, and every
//! metric `BENCHMARK.json` names is reported.  (The checks' failure on
//! deliberately wrong inputs is tested next to them, in `src/checks.rs`.)

use enginebench::inputs::{PROBE_TXNS, READINGS_PER_TXN};
use enginebench::metrics::{per_layer_names, END_TO_END};
use enginebench::{run, Outcome, Scale, Workload};
use std::sync::Mutex;
use std::time::Duration;

/// Runs share the span recorder, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(w: Workload, traced: bool) -> Outcome {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let o = run(w, 7, Duration::from_secs(2), traced, &Scale::smoke()).unwrap();
    assert!(o.correct, "{} failed its checks: {:?}", w.name(), o.errors);
    o
}

fn names(o: &Outcome) -> Vec<String> {
    o.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
    for w in Workload::BENCHMARKED {
        let o = smoke(w, false);
        let want: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names(&o), want);
        for m in &o.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
        }
        assert!(o.attempted > 0);
        if w != Workload::MeterPipeline {
            assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.errors);
        }
    }
}

#[test]
fn the_fault_probe_fails_the_same_share_of_every_round() {
    let scale = Scale::smoke();
    let o = smoke(Workload::MeterPipeline, false);
    let per_round = (scale.readings.div_ceil(READINGS_PER_TXN) + scale.reports + PROBE_TXNS) as u64;
    assert_eq!(o.attempted % per_round, 0, "whole rounds only");
    let rounds = o.attempted / per_round;
    assert!(o.failed > 0, "the probe must trip the version-slot fault");
    assert_eq!(
        o.failed % rounds,
        0,
        "each round loses as many: {}",
        o.failed
    );
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let want: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    for w in [Workload::Fig4Uniform, Workload::MeterPipeline] {
        let o = smoke(w, true);
        assert_eq!(names(&o), want);
        let value = |n: &str| o.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(value("manager.begin_ns.mvcc") > 0.0);
        assert!(value("table.read_ns.mvcc") > 0.0);
        assert!(value("storage.write_batch_ns.mvcc") > 0.0);
        assert!(value("trace.residual_pct") > 0.0);
        if w == Workload::MeterPipeline {
            assert!(value("stream.verify_query_ms") > 0.0);
            assert!(value("table.scan_ms") > 0.0);
        } else {
            assert!(value("storage.gets_per_query.bocc") > 0.0);
        }
    }
}

/// The names in `BENCHMARK.json` under `section`, up to `end`.
fn listed(json: &str, section: &str, end: &str) -> Vec<String> {
    let start = json.find(section).expect("section");
    let stop = json[start..].find(end).map_or(json.len(), |i| start + i);
    json[start..stop]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let workloads: Vec<String> = Workload::BENCHMARKED
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(listed(&json, "\"workloads\"", "\"end_to_end\""), workloads);
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(listed(&json, "\"end_to_end\"", "\"per_layer\""), e2e);
    let layers: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(listed(&json, "\"per_layer\"", "]"), layers);
}
