//! `reference --seed <n> [--workload <name>] [--commits <c>] [--dump]`
//!
//! Rebuilds a workload's seeded inputs and its reference results from the
//! seed alone, without the engine: this binary compiles only the inputs
//! module.  It generates every input twice and fails unless both copies are
//! byte-identical, then prints digests and summaries (and, with `--dump`,
//! every value): for the Figure 4 workloads the key streams and the final
//! key → sequence model after `--commits` stream transactions; for the
//! metering pipeline the per-meter sums, last readings, violation set and
//! the prefix sums at transaction boundaries.

#[path = "../inputs.rs"]
#[allow(dead_code)]
mod inputs;

use inputs::*;
use std::process::ExitCode;

struct Args {
    seed: u64,
    workloads: Vec<String>,
    commits: u64,
    dump: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workloads: Vec::new(),
        commits: 10_000,
        dump: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--dump" {
            args.dump = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--workload" => args.workloads.push(value),
            "--commits" => args.commits = value.parse().map_err(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = [
            "fig4_uniform",
            "fig4_skewed",
            "inmem_uniform",
            "meter_pipeline",
        ]
        .map(String::from)
        .to_vec();
    }
    Ok(args)
}

/// The Figure 4 inputs as bytes: the first `commits` key sets of both
/// clients.
fn fig4_bytes(inputs: &Fig4Inputs, commits: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for mut stream in [inputs.writer(), inputs.queries()] {
        for _ in 0..commits {
            for k in stream.next_txn() {
                out.extend_from_slice(&k.to_le_bytes());
            }
        }
    }
    out
}

fn fig4(name: &str, theta: f64, args: &Args) -> Result<(), String> {
    let build = || Fig4Inputs::new(args.seed, TABLE_SIZE, theta);
    let (a, b) = (
        fig4_bytes(&build(), args.commits),
        fig4_bytes(&build(), args.commits),
    );
    if a != b {
        return Err(format!("{name}: one seed gave two different inputs"));
    }
    let model = build().model(args.commits);
    let mut keys: Vec<(&u32, &u64)> = model.iter().collect();
    keys.sort();
    let mut model_bytes = Vec::new();
    for (k, s) in &keys {
        model_bytes.extend_from_slice(&k.to_le_bytes());
        model_bytes.extend_from_slice(&s.to_le_bytes());
    }
    println!(
        "{name}: seed {} θ {theta}: inputs {:016x} ({} key sets per client), model after {} commits: {} keys, digest {:016x}",
        args.seed,
        fnv64(&a),
        args.commits,
        args.commits,
        model.len(),
        fnv64(&model_bytes)
    );
    if args.dump {
        for (k, s) in keys {
            println!("{name} model {k} {s}");
        }
    }
    Ok(())
}

fn meter(args: &Args) -> Result<(), String> {
    let a = MeterInputs::new(args.seed, READINGS_PER_ROUND);
    let b = MeterInputs::new(args.seed, READINGS_PER_ROUND);
    if a.to_bytes() != b.to_bytes() {
        return Err("meter_pipeline: one seed gave two different inputs".into());
    }
    let reference = MeterReference::of(&a);
    if reference != MeterReference::of(&b) {
        return Err("meter_pipeline: one input gave two different references".into());
    }
    println!(
        "meter_pipeline: seed {}: inputs {:016x} ({} readings, {} meters, {} per transaction), reference {:016x}",
        args.seed,
        fnv64(&a.to_bytes()),
        READINGS_PER_ROUND,
        METERS,
        READINGS_PER_TXN,
        fnv64(&reference.to_bytes())
    );
    println!(
        "meter_pipeline: total {} Wh over {} transactions, {} violations, probe: {} transactions of meter {}",
        reference.prefix_sums.last().unwrap_or(&0),
        reference.prefix_sums.len() - 1,
        reference.violations.len(),
        PROBE_TXNS,
        PROBE_METER
    );
    if args.dump {
        for (m, (c, s)) in reference.sums.iter().enumerate() {
            let last = reference.last[m].map_or("-".to_string(), |(i, v)| format!("{i}:{v}"));
            println!(
                "meter {m} count {c} sum {s} last {last} limit {}",
                a.limits[m]
            );
        }
        println!("violations {:?}", reference.violations);
        println!("prefix_sums {:?}", reference.prefix_sums);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reference: {e}");
            return ExitCode::from(2);
        }
    };
    for w in &args.workloads {
        let result = match w.as_str() {
            "fig4_uniform" | "inmem_uniform" => fig4(w, 0.0, &args),
            "fig4_skewed" => fig4(w, 2.5, &args),
            "meter_pipeline" | "meter_concurrent" => meter(&args),
            other => Err(format!("unknown workload {other:?}")),
        };
        if let Err(e) = result {
            eprintln!("reference: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
