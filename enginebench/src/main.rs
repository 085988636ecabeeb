//! `enginebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric, or with `--trace 1` every per-layer metric).  Per-cell
//! lines and failed checks go to standard error.

use enginebench::{run, Outcome, Scale, Workload};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or(format!(
        "--workload is required: one of {}",
        names.join(", ")
    ))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Writes the traced run's spans, one CSV line each, under
/// `.enginebench_out/` in the working directory.
fn write_spans(args: &Args, o: &Outcome) -> std::io::Result<String> {
    use std::io::Write;
    std::fs::create_dir_all(".enginebench_out")?;
    let path = format!(
        ".enginebench_out/spans-{}-{}.csv",
        args.workload.name(),
        args.seed
    );
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "start_ns,total_ns,self_ns,layer,role,cell")?;
    for s in &o.spans {
        writeln!(
            out,
            "{},{},{},{:?},{:?},{}",
            s.start_ns, s.total_ns, s.self_ns, s.layer, s.role, s.cell
        )?;
    }
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("enginebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
        &Scale::full(),
    );
    match outcome {
        Ok(o) => {
            eprintln!("{} seed {}:", args.workload.name(), args.seed);
            for line in &o.summary {
                eprintln!("  {line}");
            }
            for e in &o.errors {
                eprintln!("  CHECK FAILED: {e}");
            }
            if args.trace {
                match write_spans(&args, &o) {
                    Ok(path) => eprintln!("  {} spans written to {path}", o.spans.len()),
                    Err(e) => eprintln!("  spans not written: {e}"),
                }
            }
            println!("{}", json(&o));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("enginebench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
