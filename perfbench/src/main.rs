//! fg-perfbench — the serving system's benchmark.
//!
//! Runs one workload against the real FGQ1 master, FGR1 replica,
//! durable store and fg-dist backend, checks every output, and prints
//! one JSON object as its last line of standard output. See README.md
//! in this directory for the workloads, metrics and reference figures.

mod cluster;
mod layers;
mod oracle;
mod queries;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Outcome, Run};

const USAGE: &str = "\
usage: fg-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]

  --workload  serve-read | ingest-cascade | mixed-churn
  --seed      workload seed: the traces and queries depend on it alone (default 1)
  --seconds   how long the measured rounds run (default 10)
  --trace     0: end-to-end metrics; 1: per-layer metrics from a traced run (default 0)

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exits 1 when a check fails,
2 on a usage error.";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::ALL.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown or missing --workload {:?}", args.workload));
    }
    Ok(Some(args))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("fg-perfbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_root = PathBuf::from(".perfbench_out");
    let dir = out_root.join(format!("{}-{}", args.workload, std::process::id()));
    cluster::remove_dir(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");

    let origin = Instant::now();
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        dir: dir.clone(),
        tracer: Tracer::new(args.trace, 0, origin),
    };
    let spec = workloads::ALL
        .into_iter()
        .find(|w| w.name == args.workload)
        .expect("workload checked by parse_args");
    let mut outcome: Outcome = workloads::run_workload(&mut run, spec);
    cluster::remove_dir(&dir);

    if args.trace {
        outcome
            .metrics
            .push(("trace.coverage", run.tracer.coverage(), "ratio"));
        let spans = out_root.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        run.tracer.write(&spans).expect("write spans");
        eprintln!("spans written to {}", spans.display());
        eprintln!("{}", run.tracer.self_time_table());
    }

    let host_cpus = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |info| {
        info.lines().filter(|l| l.starts_with("processor")).count()
    });
    eprintln!(
        "{} seed={} seconds={} host_cpus={host_cpus} cpus_used={}",
        args.workload,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    let (mut attempted, mut failed) = (0, 0);
    for (class, tally) in &outcome.classes {
        eprintln!(
            "  {class}: attempted {} failed {}",
            tally.attempted, tally.failed
        );
        attempted += tally.attempted;
        failed += tally.failed;
    }
    let mut correct = failed == 0;
    for (check, ok) in &outcome.checks {
        if !ok {
            eprintln!("  CHECK FAILED: {check}");
            correct = false;
        }
    }
    eprintln!(
        "  {} checks, {} failed",
        outcome.checks.len(),
        outcome.checks.iter().filter(|(_, ok)| !ok).count()
    );

    let mut metrics = String::new();
    for (name, value, unit) in &outcome.metrics {
        if workloads::END_TO_END.contains(name) == args.trace {
            continue;
        }
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
