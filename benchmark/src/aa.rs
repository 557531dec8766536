//! `aa`: the same code measured twice. Two sets of N invocations of every
//! workload, alternating, each invocation with its own seed; per metric
//! the two medians, their gap, and the spread, against the bound
//! `BENCHMARK.json` fixes. The report is Markdown (it is committed as
//! `NOISE.md`); the exit code is non-zero when a gap exceeds its bound.

use std::collections::BTreeMap;
use std::process::Command;

use sorete_lang::json::{self, Json};

use crate::workload;

/// Python's `statistics.quantiles(values, n=4)` (the exclusive method),
/// which is what the driver computes spreads with.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let pos = (k + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

fn median(values: &[f64]) -> f64 {
    crate::measure::quantile(values, 0.5)
}

struct Gate {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_contract() -> Result<(Vec<Gate>, u64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {}", e))?;
    let doc = json::parse(&text)?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .ok_or("BENCHMARK.json: run_seconds")?;
    let mut gates = Vec::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: end_to_end")?
    {
        let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
        gates.push(Gate {
            name: field("name").ok_or("end_to_end[].name")?,
            unit: field("unit").ok_or("end_to_end[].unit")?,
            lower_is_better: field("better").as_deref() == Some("lower"),
            bound: m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("end_to_end[].bound")?,
        });
    }
    Ok((gates, seconds))
}

/// One invocation of `run`; returns its end-to-end metrics and the
/// host-noise reading it printed.
fn invoke(w: &str, seed: u64, seconds: u64) -> Result<(BTreeMap<String, f64>, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", w, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn: {}", e))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} seed {} exited with {}: {}",
            w,
            seed,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = json::parse(last)?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true)
        || doc.get("failed").and_then(Json::as_u64) != Some(0)
    {
        return Err(format!("{} seed {}: incorrect or failed ops", w, seed));
    }
    let mut metrics = BTreeMap::new();
    for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        if let Some(v) = m.get("value").and_then(Json::as_f64) {
            metrics.insert(name.clone(), v);
        }
    }
    let noise = stdout
        .lines()
        .find_map(|l| l.strip_prefix("harness.noise_permille"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0);
    Ok((metrics, noise))
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let mut runs: usize = 5;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--runs", Some(v)) => runs = v.parse().map_err(|e| format!("--runs {}: {}", v, e))?,
            _ => return Err(format!("unknown or incomplete option {}", flag)),
        }
    }
    let (gates, seconds) = read_contract()?;

    // values[workload][metric][set] = one value per invocation
    let mut values: BTreeMap<&str, BTreeMap<String, [Vec<f64>; 2]>> = BTreeMap::new();
    let mut noise: Vec<f64> = Vec::new();
    for i in 0..runs {
        for set in 0..2 {
            for w in workload::ALL {
                let seed = 1000 + (2 * i + set) as u64;
                eprintln!(
                    "aa: set {} run {} {} seed {}",
                    set + 1,
                    i + 1,
                    w.name(),
                    seed
                );
                let (metrics, n) = invoke(w.name(), seed, seconds)?;
                noise.push(n);
                let per_metric = values.entry(w.name()).or_default();
                for (name, v) in metrics {
                    per_metric.entry(name).or_default()[set].push(v);
                }
            }
        }
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# Noise floor: two sets of {} runs per workload, same code\n",
        runs
    );
    println!(
        "Host: {} CPUs; {} s per run; data under `benchmark/out/` on the checkout's \
         filesystem with flushes counted and skipped; `harness.noise_permille` over all \
         runs: median {:.0}, max {:.0}.\n",
        cpus,
        seconds,
        median(&noise),
        noise.iter().copied().fold(0.0, f64::max)
    );
    let mut ok = true;
    for w in workload::ALL {
        println!("## {}\n", w.name());
        println!(
            "| metric | unit | set 1 median [q1, q3] | set 2 median [q1, q3] | gap | IQR/median (all {}) | bound | verdict |",
            2 * runs
        );
        println!("|---|---|---|---|---|---|---|---|");
        for g in &gates {
            let Some(sets) = values.get(w.name()).and_then(|m| m.get(&g.name)) else {
                println!(
                    "| {} | {} | missing | | | | {} | FAIL |",
                    g.name, g.unit, g.bound
                );
                ok = false;
                continue;
            };
            let (m1, m2) = (median(&sets[0]), median(&sets[1]));
            let (q1, q2) = (quartiles(&sets[0]), quartiles(&sets[1]));
            let all: Vec<f64> = sets[0].iter().chain(&sets[1]).copied().collect();
            let qa = quartiles(&all);
            let spread = (qa[2] - qa[0]) / median(&all);
            // How much worse the second set reads than the first.
            let gap = if g.lower_is_better {
                m2 / m1 - 1.0
            } else {
                m1 / m2 - 1.0
            };
            let pass = gap <= g.bound && spread <= g.bound;
            ok &= gap <= g.bound;
            println!(
                "| {} | {} | {:.4} [{:.4}, {:.4}] | {:.4} [{:.4}, {:.4}] | {:+.1} % | {:.1} % | {:.0} % | {} |",
                g.name,
                g.unit,
                m1,
                q1[0],
                q1[2],
                m2,
                q2[0],
                q2[2],
                gap * 100.0,
                spread * 100.0,
                g.bound * 100.0,
                if pass { "ok" } else if gap <= g.bound { "wide" } else { "FAIL" }
            );
        }
        println!();
    }
    Ok(ok)
}
