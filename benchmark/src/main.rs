//! `sorete-benchmark`: the end-to-end ladder behind `BENCHMARK.json`.
//!
//! ```text
//! sorete-benchmark run --workload W --seed N --seconds S --trace 0|1
//! sorete-benchmark aa [--runs N]      (from the repository root)
//! ```

mod aa;
mod check;
mod layers;
mod measure;
mod sys;
mod target;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::{Config, Metric, Report};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "\
usage: sorete-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
                            [--rounds R] [--scale D] [--out DIR]
       sorete-benchmark aa [--runs N]
workloads: join_churn fire_tuple collect_set serve_durable";

fn parse_run(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: workload::Workload::JoinChurn,
        seed: 1,
        seconds: 20.0,
        rounds: None,
        scale: 1,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        let bad = |e: &dyn std::fmt::Display| format!("{} {}: {}", flag, value, e);
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {:?}", value))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--rounds" => cfg.rounds = Some(value.parse().map_err(|e| bad(&e))?),
            "--scale" => cfg.scale = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {:?}", value)),
                }
            }
            "--out" => cfg.out = PathBuf::from(value),
            other => return Err(format!("unknown option {}", other)),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 || cfg.scale == 0 || cfg.rounds == Some(0) {
        return Err("--seconds, --scale and --rounds must be positive".into());
    }
    Ok(cfg)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_report(cfg: &Config, r: &Report) {
    for (k, v) in &r.notes {
        println!("# {} = {}", k, v);
    }
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let gated = if cfg.trace {
        &r.per_layer
    } else {
        &r.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.counts.attempted.max(1),
        r.counts.failed,
        json_metrics(gated)
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let cfg = match parse_run(&args[1..]) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("sorete-benchmark: {}\n{}", e, USAGE);
                    return ExitCode::from(2);
                }
            };
            match measure::run(&cfg) {
                Ok(report) => {
                    print_report(&cfg, &report);
                    if report.correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("sorete-benchmark: {}", e);
                    ExitCode::from(1)
                }
            }
        }
        Some("aa") => match aa::run(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("sorete-benchmark: {}", e);
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{}", USAGE);
            ExitCode::from(2)
        }
    }
}
