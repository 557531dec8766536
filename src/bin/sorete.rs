//! `sorete` — command-line interpreter for set-oriented production
//! systems.
//!
//! ```text
//! sorete [OPTIONS] <program.ops>...
//! sorete serve [server options]       run the sorete-server daemon
//! sorete fsck <wal-or-bundle> [checkpoint]
//! sorete debug <bundle> [timeline|rules|perfetto <out>|explain <rule>|why-not <rule>]
//!
//! OPTIONS:
//!   --matcher rete|rete-scan|treat|naive   match algorithm (default: rete)
//!   --strategy lex|mea           conflict resolution (default: lex)
//!   --wm <facts.wm>              assert facts from a file before running
//!   --limit <N>                  stop after N firings
//!   --trace                      print rule firings
//!   --trace-json <file>          stream trace events to a JSONL file
//!   --trace-perfetto <file>      write execution spans as Chrome
//!                                trace-event JSON (loads in Perfetto /
//!                                chrome://tracing; one track per lane)
//!   --span-stats                 per-category span summary (p50/p95/max)
//!                                at the end
//!   --metrics-json <file>        stream per-cycle metric snapshots (JSONL)
//!   --metrics-prom <file>        Prometheus text exposition at the end
//!   --watch <N>                  re-render a live metrics table every N cycles
//!   --profile                    per-node match profile at the end
//!   --explain <rule>             explain the rule's conflict-set entries
//!   --stats                      print run + match statistics at the end
//!   --dot <file>                 write the Rete network as Graphviz DOT
//!                                (heat-annotated under --profile)
//!   --wal <file>                 write-ahead log; recovers committed state
//!                                from an existing log before running
//!   --group-commit <N>           fsync the WAL every N commits (default: 1)
//!   --resume <ckpt>              restore a checkpoint before attaching the WAL
//!   --checkpoint <file>          checkpoint destination (default: <wal>.ckpt)
//!   --checkpoint-every <N>       checkpoint (and rotate the WAL) every N firings
//!   --supervise                  panic isolation + retry/backoff + quarantine
//!   --recovery abort|skip|rollback  failed-firing policy (default: abort)
//!   --quarantine-after <N>       breaker: failures before quarantine (default 3)
//!   --quarantine-window <N>      breaker window in cycles (default 20)
//!   --io-retries <N>             transient durable-I/O retry attempts (default 4)
//!   --soft-mem <BYTES>           soft memory budget: checkpoint + warn
//!   --hard-mem <BYTES>           hard memory budget: orderly halt-with-checkpoint
//!   --soft-wall-ms <N>           soft wall-clock budget (milliseconds)
//!   --flight-recorder <N|off>    flight-recorder ring capacity (default:
//!                                4096 entries per ring, always on;
//!                                `off` disables the black box)
//!   --crash-dir <dir>            where crash bundles land (default: the
//!                                WAL's directory, else the cwd)
//!   --crash-keep <N>             keep only the newest N crash bundles in
//!                                the crash dir, pruned oldest-first at
//!                                bundle-write time (default: 8; also
//!                                settable via SORETE_CRASH_KEEP; 0 keeps
//!                                everything)
//!   --repl                       interactive session after loading
//! ```
//!
//! The flight recorder is an always-on black box: fixed-capacity rings of
//! logical trace events, closed spans, and per-cycle records. Any abnormal
//! exit (panic, quarantine stall, resource exhaustion, run error) drains
//! the rings into a `sorete-crash-<gen>-<cycle>/` bundle directory that
//! `sorete debug` inspects offline and `sorete fsck` validates.
//!
//! `sorete fsck <wal> [checkpoint]` validates a log offline — CRC framing,
//! commit points, generation pairing against the checkpoint — read-only,
//! with one `fsck:` diagnostic line per finding. Pointed at a crash-bundle
//! directory instead, it validates the bundle.
//!
//! Exit codes: `0` success · `2` usage/parse errors · `3` run errors
//! (RHS failures, caught panics) · `4` resource exhausted (guards or hard
//! degradation budgets) · `5` durability errors (WAL, checkpoint, fsck
//! failures) · `6` quarantine-exhausted (only quarantined work remained) ·
//! `7` interrupted (SIGTERM/SIGINT graceful shutdown: the run stopped at a
//! firing boundary and checkpointed where configured — orchestrators can
//! tell "asked to stop, stopped cleanly" from failure).
//!
//! A facts file holds one WME per s-expression: `(player ^name Jack ^team A)`.
//! The REPL accepts `run [n]`, `step`, `make (class ^a v …)`, `remove <tag>`,
//! `excise <rule>`, `explain <rule>`, `why-not <rule>`, `profile`, `wm`,
//! `dump [file]`, `dump bundle [dir]`, `cs`, `stats`, `metrics`, `spans`,
//! `watch [n]`, `checkpoint [file]`, `recover <ckpt>`, `quarantine <rule>`,
//! `readmit <rule>`, `help`, `quit`.

use sorete::core::{
    BreakerPolicy, DegradationPolicy, MatcherKind, ProductionSystem, RetryPolicy, Strategy,
    SupervisorConfig,
};
use sorete::reldb::WalOptions;
use sorete_base::{JsonlSink, NetProfile, SnapshotWriter, Symbol, Value};
use sorete_lang::token::{tokenize, TokKind};
use std::io::{BufRead, Write as _};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

// Exit code 0 is success (`ExitCode::SUCCESS`); the named codes below are
// the failure tiers, documented in the module header and asserted by
// `tests/cli.rs`.
/// Usage errors and parse failures (arguments, programs, fact files).
const EXIT_USAGE: u8 = 2;
/// The run stopped on an error (RHS failure, caught panic).
const EXIT_RUN: u8 = 3;
/// A resource guard or hard degradation budget ended the run.
const EXIT_RESOURCE: u8 = 4;
/// Durability failure: WAL attach/append, poisoned log, checkpoint I/O,
/// or an fsck that found the log/checkpoint pair unusable.
const EXIT_DURABILITY: u8 = 5;
/// The run stalled with every remaining fireable instantiation behind
/// quarantined rules.
const EXIT_QUARANTINE: u8 = 6;
/// SIGTERM/SIGINT graceful shutdown: the run stopped at a firing boundary
/// (and checkpointed where configured) because the operator asked it to.
const EXIT_INTERRUPTED: u8 = 7;

/// A CLI failure: the process exit code plus the message for stderr.
type Failure = (u8, String);

#[derive(Debug)]
struct Options {
    matcher: MatcherKind,
    strategy: Strategy,
    wm_files: Vec<String>,
    programs: Vec<String>,
    limit: Option<u64>,
    trace: bool,
    trace_json: Option<String>,
    trace_perfetto: Option<String>,
    span_stats: bool,
    metrics_json: Option<String>,
    metrics_prom: Option<String>,
    watch: Option<u64>,
    profile: bool,
    explain: Option<String>,
    stats: bool,
    repl: bool,
    dot: Option<String>,
    wal: Option<String>,
    group_commit: u32,
    resume: Option<String>,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    supervise: bool,
    recovery: Option<sorete::core::RecoveryPolicy>,
    quarantine_after: Option<u32>,
    quarantine_window: Option<u64>,
    io_retries: Option<u32>,
    soft_mem: Option<u64>,
    hard_mem: Option<u64>,
    soft_wall_ms: Option<u64>,
    /// `--flight-recorder N|off`: per-ring flight-recorder capacity.
    /// `None` keeps the always-on default; `Some(0)` (spelled `off`)
    /// disables the black box entirely.
    flight: Option<usize>,
    /// `--crash-dir DIR`: where abnormal exits drop their crash bundle.
    crash_dir: Option<String>,
    /// `--crash-keep N`: retention cap for crash bundles (newest N kept,
    /// pruned oldest-first at bundle-write time). `None` defers to
    /// `SORETE_CRASH_KEEP`, falling back to the default of 8.
    crash_keep: Option<usize>,
}

fn usage() -> &'static str {
    "usage: sorete [--matcher rete|rete-scan|treat|naive] [--strategy lex|mea] \
     [--wm facts.wm] [--limit N] [--trace] [--trace-json file] \
     [--trace-perfetto file] [--span-stats] \
     [--metrics-json file] [--metrics-prom file] [--watch N] [--profile] \
     [--explain rule] [--stats] [--wal file] [--group-commit N] \
     [--resume ckpt] [--checkpoint file] [--checkpoint-every N] \
     [--supervise] [--recovery abort|skip|rollback] [--quarantine-after N] \
     [--quarantine-window N] [--io-retries N] [--soft-mem BYTES] \
     [--hard-mem BYTES] [--soft-wall-ms N] \
     [--flight-recorder N|off] [--crash-dir dir] [--crash-keep N] [--repl] \
     program.ops... \
     | sorete serve [server options] \
     | sorete fsck <wal-or-bundle> [ckpt] \
     | sorete debug <bundle> [timeline|rules|perfetto <out>|explain <rule>|why-not <rule>]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        matcher: MatcherKind::Rete,
        strategy: Strategy::Lex,
        wm_files: Vec::new(),
        programs: Vec::new(),
        limit: None,
        trace: false,
        trace_json: None,
        trace_perfetto: None,
        span_stats: false,
        metrics_json: None,
        metrics_prom: None,
        watch: None,
        profile: false,
        explain: None,
        stats: false,
        repl: false,
        dot: None,
        wal: None,
        group_commit: 1,
        resume: None,
        checkpoint: None,
        checkpoint_every: None,
        supervise: false,
        recovery: None,
        quarantine_after: None,
        quarantine_window: None,
        io_retries: None,
        soft_mem: None,
        hard_mem: None,
        soft_wall_ms: None,
        flight: None,
        crash_dir: None,
        crash_keep: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--matcher" => {
                opts.matcher = match it.next().map(String::as_str) {
                    Some("rete") => MatcherKind::Rete,
                    Some("rete-scan") => MatcherKind::ReteScan,
                    Some("treat") => MatcherKind::Treat,
                    Some("naive") => MatcherKind::Naive,
                    other => return Err(format!("bad --matcher {:?}", other)),
                };
            }
            "--strategy" => {
                opts.strategy = match it.next().map(String::as_str) {
                    Some("lex") => Strategy::Lex,
                    Some("mea") => Strategy::Mea,
                    other => return Err(format!("bad --strategy {:?}", other)),
                };
            }
            "--wm" => match it.next() {
                Some(f) => opts.wm_files.push(f.clone()),
                None => return Err("--wm needs a file".into()),
            },
            "--limit" => {
                opts.limit = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--limit needs a number")?,
                );
            }
            "--dot" => match it.next() {
                Some(f) => opts.dot = Some(f.clone()),
                None => return Err("--dot needs a file".into()),
            },
            "--trace" => opts.trace = true,
            "--trace-json" => match it.next() {
                Some(f) => opts.trace_json = Some(f.clone()),
                None => return Err("--trace-json needs a file".into()),
            },
            "--trace-perfetto" => match it.next() {
                Some(f) => opts.trace_perfetto = Some(f.clone()),
                None => return Err("--trace-perfetto needs a file".into()),
            },
            "--span-stats" => opts.span_stats = true,
            "--metrics-json" => match it.next() {
                Some(f) => opts.metrics_json = Some(f.clone()),
                None => return Err("--metrics-json needs a file".into()),
            },
            "--metrics-prom" => match it.next() {
                Some(f) => opts.metrics_prom = Some(f.clone()),
                None => return Err("--metrics-prom needs a file".into()),
            },
            "--watch" => {
                opts.watch = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--watch needs a positive number of cycles")?,
                );
            }
            "--profile" => opts.profile = true,
            "--explain" => match it.next() {
                Some(r) => opts.explain = Some(r.clone()),
                None => return Err("--explain needs a rule name".into()),
            },
            "--stats" => opts.stats = true,
            "--wal" => match it.next() {
                Some(f) => opts.wal = Some(f.clone()),
                None => return Err("--wal needs a file".into()),
            },
            "--group-commit" => {
                opts.group_commit = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--group-commit needs a positive number of commits")?;
            }
            "--resume" => match it.next() {
                Some(f) => opts.resume = Some(f.clone()),
                None => return Err("--resume needs a checkpoint file".into()),
            },
            "--checkpoint" => match it.next() {
                Some(f) => opts.checkpoint = Some(f.clone()),
                None => return Err("--checkpoint needs a file".into()),
            },
            "--checkpoint-every" => {
                opts.checkpoint_every = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--checkpoint-every needs a positive number of firings")?,
                );
            }
            "--supervise" => opts.supervise = true,
            "--recovery" => {
                opts.recovery = Some(match it.next().map(String::as_str) {
                    Some("abort") => sorete::core::RecoveryPolicy::AbortRun,
                    Some("skip") => sorete::core::RecoveryPolicy::SkipFiring,
                    Some("rollback") => sorete::core::RecoveryPolicy::Rollback,
                    _ => return Err("--recovery needs abort, skip, or rollback".into()),
                })
            }
            "--quarantine-after" => {
                opts.quarantine_after = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--quarantine-after needs a positive number of failures")?,
                );
                opts.supervise = true;
            }
            "--quarantine-window" => {
                opts.quarantine_window = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or("--quarantine-window needs a positive number of cycles")?,
                );
                opts.supervise = true;
            }
            "--io-retries" => {
                opts.io_retries = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--io-retries needs a number of attempts")?,
                );
                opts.supervise = true;
            }
            "--soft-mem" => {
                opts.soft_mem = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--soft-mem needs a byte budget")?,
                );
                opts.supervise = true;
            }
            "--hard-mem" => {
                opts.hard_mem = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--hard-mem needs a byte budget")?,
                );
                opts.supervise = true;
            }
            "--soft-wall-ms" => {
                opts.soft_wall_ms = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--soft-wall-ms needs a number of milliseconds")?,
                );
                opts.supervise = true;
            }
            "--flight-recorder" => {
                opts.flight = Some(match it.next().map(String::as_str) {
                    Some("off") | Some("0") => 0,
                    Some(s) => s
                        .parse()
                        .map_err(|_| "--flight-recorder needs a ring capacity or `off`")?,
                    None => return Err("--flight-recorder needs a ring capacity or `off`".into()),
                });
            }
            "--crash-dir" => match it.next() {
                Some(d) => opts.crash_dir = Some(d.clone()),
                None => return Err("--crash-dir needs a directory".into()),
            },
            "--crash-keep" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => opts.crash_keep = Some(n),
                other => return Err(format!("bad --crash-keep {:?}", other)),
            },
            "--repl" => opts.repl = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other if other.starts_with('-') => return Err(format!("unknown option {}", other)),
            file => opts.programs.push(file.to_string()),
        }
    }
    if opts.programs.is_empty() && !opts.repl {
        return Err(usage().to_string());
    }
    if opts.checkpoint_every.is_some() && opts.checkpoint.is_none() && opts.wal.is_none() {
        return Err(
            "--checkpoint-every needs --checkpoint or --wal (for the <wal>.ckpt default)".into(),
        );
    }
    Ok(opts)
}

/// A parsed fact: class plus slots.
type Fact = (Symbol, Vec<(Symbol, Value)>);

/// Parse a facts file: any number of `(class ^attr value ...)` forms.
fn parse_facts(src: &str) -> Result<Vec<Fact>, String> {
    let toks = tokenize(src).map_err(|e| e.to_string())?;
    let mut facts = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind != TokKind::LParen {
            return Err(format!("line {}: expected `(`", toks[i].line));
        }
        i += 1;
        let class = match &toks.get(i).map(|t| &t.kind) {
            Some(TokKind::Sym(s)) => Symbol::new(s),
            _ => return Err("expected a class name after `(`".into()),
        };
        i += 1;
        let mut slots = Vec::new();
        loop {
            match toks.get(i).map(|t| &t.kind) {
                Some(TokKind::RParen) => {
                    i += 1;
                    break;
                }
                Some(TokKind::Attr(a)) => {
                    let attr = Symbol::new(a);
                    i += 1;
                    let value = match toks.get(i).map(|t| &t.kind) {
                        Some(TokKind::Sym(s)) if s == "nil" => Value::Nil,
                        Some(TokKind::Sym(s)) => Value::sym(s),
                        Some(TokKind::Int(n)) => Value::Int(*n),
                        Some(TokKind::Float(f)) => Value::Float(*f),
                        other => return Err(format!("bad value after ^{}: {:?}", attr, other)),
                    };
                    i += 1;
                    slots.push((attr, value));
                }
                other => return Err(format!("expected `^attr` or `)`, found {:?}", other)),
            }
        }
        facts.push((class, slots));
    }
    Ok(facts)
}

fn flush_output(ps: &mut ProductionSystem) {
    for line in ps.take_trace() {
        println!("; {}", line);
    }
    for line in ps.take_output() {
        println!("{}", line);
    }
}

fn print_stats(ps: &ProductionSystem) {
    let s = ps.stats();
    println!(
        "; stats: firings={} actions={} ({:.2}/firing) makes={} removes={} modifies={} writes={}",
        s.firings,
        s.actions,
        s.actions_per_firing(),
        s.makes,
        s.removes,
        s.modifies,
        s.writes
    );
    if s.skipped_actions > 0 || s.rolled_back > 0 {
        println!(
            "; recovery: skipped_actions={} rolled_back={}",
            s.skipped_actions, s.rolled_back
        );
    }
    if ps.supervision_enabled() {
        let sup = ps.supervisor_stats();
        println!(
            "; supervisor: panics_caught={} io_retries={} quarantines={} readmissions={} soft_degrades={} hard_degrades={}",
            sup.panics_caught,
            sup.io_retries,
            sup.quarantines,
            sup.readmissions,
            sup.soft_degrades,
            sup.hard_degrades
        );
        let quarantined = ps.quarantined_rules();
        if !quarantined.is_empty() {
            let names: Vec<&str> = quarantined.iter().map(|s| s.as_str()).collect();
            println!("; quarantined rules: {}", names.join(", "));
        }
    }
    println!("; match [{}]: {}", ps.matcher_name(), ps.match_stats());
    if let Some(ws) = ps.wal_stats() {
        println!(
            "; wal: records={} bytes={} commits={} writes={} fsyncs={}",
            ws.records, ws.bytes, ws.commits, ws.writes, ws.fsyncs
        );
    }
    for (name, rs) in s.per_rule_sorted() {
        println!(
            ";   {}: {} firings, {} actions",
            name, rs.firings, rs.actions
        );
    }
}

/// The `--profile` table: one row per network node, hottest first.
fn print_profile(prof: &NetProfile) {
    println!(
        "; profile [{}]: {} nodes, {}µs total self time",
        prof.algorithm,
        prof.nodes.len(),
        prof.total_nanos() / 1_000
    );
    println!(
        ";   {:<5} {:<10} {:>9} {:>6} {:>9}  {:<28} rules",
        "node", "kind", "acts", "held", "self µs", "label"
    );
    for n in prof.sorted() {
        println!(
            ";   {:<5} {:<10} {:>9} {:>6} {:>9}  {:<28} {}",
            n.id,
            n.kind,
            n.activations,
            n.held,
            n.nanos / 1_000,
            n.label.replace('\n', " "),
            n.rules.join(",")
        );
    }
}

fn print_cs(ps: &ProductionSystem) {
    let mut items = ps.conflict_items();
    items.sort_by(|a, b| b.recency.cmp(&a.recency));
    println!("; conflict set ({} entries):", items.len());
    for item in items {
        let rows: Vec<Vec<u64>> = item
            .rows
            .iter()
            .map(|r| r.iter().map(|t| t.raw()).collect())
            .collect();
        println!(
            ";   rule#{} {} rows={:?} aggregates={:?}",
            item.key.rule().index(),
            if item.key.is_soi() { "[SOI]" } else { "" },
            rows,
            item.aggregates
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        );
    }
}

fn print_metrics_table(ps: &ProductionSystem) {
    match ps.metrics_table() {
        Some(table) => {
            for l in table.lines() {
                println!("; {}", l);
            }
        }
        None => println!("; metrics disabled"),
    }
}

fn repl(ps: &mut ProductionSystem, limit: Option<u64>) {
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("sorete> ");
        let _ = std::io::stdout().flush();
        line.clear();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let input = line.trim();
        let (cmd, rest) = match input.split_once(' ') {
            Some((c, r)) => (c, r.trim()),
            None => (input, ""),
        };
        match cmd {
            "" => {}
            "quit" | "exit" | "q" => break,
            "help" | "?" => {
                println!("; run [n] | step | make (class ^a v …) | remove <tag> | excise <rule> | quarantine <rule> | readmit <rule> | explain <rule> | why-not <rule> | profile | wm | dump [file] | dump bundle [dir] | cs | stats | metrics | spans | watch [n] | checkpoint [file] | recover <ckpt> | quit");
            }
            "run" => {
                let n: Option<u64> = rest.parse().ok();
                let outcome = ps.run(n.or(limit));
                flush_output(ps);
                if let sorete::core::StopReason::Error(e) = &outcome.reason {
                    eprintln!("; error after {} firings: {}", outcome.fired, e);
                } else {
                    println!("; fired {} ({:?})", outcome.fired, outcome.reason);
                }
                if outcome.reason.is_abnormal() {
                    if let Some(bundle) = ps.last_crash_bundle() {
                        println!("; crash bundle: {}", bundle.display());
                    }
                }
            }
            "step" => match ps.step() {
                Ok(Some(rule)) => {
                    flush_output(ps);
                    println!("; fired {}", rule);
                }
                Ok(None) => println!("; quiescent"),
                Err(e) => println!("; error: {}", e),
            },
            "make" => match parse_facts(rest) {
                Ok(facts) => {
                    for (class, slots) in facts {
                        match ps.assert_wme(class, slots) {
                            Ok(tag) => println!("; => {}", tag),
                            Err(e) => println!("; error: {}", e),
                        }
                    }
                    flush_output(ps);
                }
                Err(e) => println!("; parse error: {}", e),
            },
            "excise" => match ps.excise(rest) {
                Ok(()) => println!("; excised {}", rest),
                Err(e) => println!("; error: {}", e),
            },
            "quarantine" => match ps.quarantine_rule(rest) {
                Ok(()) => println!("; quarantined {}", rest),
                Err(e) => println!("; error: {}", e),
            },
            "readmit" => match ps.readmit_rule(rest) {
                Ok(true) => println!("; readmitted {}", rest),
                Ok(false) => println!("; {} was not quarantined", rest),
                Err(e) => println!("; error: {}", e),
            },
            "remove" => match rest.parse::<u64>() {
                Ok(raw) => match ps.retract_wme(sorete_base::TimeTag::new(raw)) {
                    Ok(()) => println!("; removed {}", raw),
                    Err(e) => println!("; error: {}", e),
                },
                Err(_) => println!("; usage: remove <tag>"),
            },
            "wm" => {
                for wme in ps.wm().dump() {
                    println!("; {}", wme);
                }
            }
            "dump" if rest == "bundle" || rest.starts_with("bundle ") => {
                // Drain the flight recorder into a crash bundle on demand
                // (same format an abnormal exit produces).
                let dir = rest.strip_prefix("bundle").unwrap_or("").trim();
                let target = (!dir.is_empty()).then(|| std::path::Path::new(dir));
                match ps.dump_bundle(target) {
                    Ok(path) => println!("; wrote crash bundle to {}", path.display()),
                    Err(e) => println!("; error: {}", e),
                }
            }
            "dump" => {
                // Write working memory in `.wm` fact-file format.
                let mut text = String::new();
                for wme in ps.wm().dump() {
                    text.push('(');
                    text.push_str(wme.class.as_str());
                    for (a, v) in wme.slots() {
                        text.push_str(&format!(" ^{} {}", a, v));
                    }
                    text.push_str(")\n");
                }
                if rest.is_empty() {
                    print!("{}", text);
                } else {
                    match std::fs::write(rest, &text) {
                        Ok(()) => println!("; wrote {} WMEs to {}", ps.wm().len(), rest),
                        Err(e) => println!("; error: {}", e),
                    }
                }
            }
            "checkpoint" => {
                // Serialize engine state (WM + refraction + counters); with a
                // file argument also rotate any attached WAL past it.
                if rest.is_empty() {
                    print!("{}", ps.checkpoint_string());
                } else {
                    match ps.checkpoint_to(std::path::Path::new(rest)) {
                        Ok(()) => println!("; checkpointed {} at cycle {}", rest, ps.cycle()),
                        Err(e) => println!("; error: {}", e),
                    }
                }
            }
            "recover" => {
                if rest.is_empty() {
                    println!("; usage: recover <ckpt>");
                } else {
                    match ps.resume_from_file(std::path::Path::new(rest)) {
                        Ok(r) => println!(
                            "; resumed {} WMEs, {} refracted, at cycle {} (checkpointed from {})",
                            r.wmes, r.refracted, r.cycle, r.matcher_was
                        ),
                        Err(e) => println!("; error: {}", e),
                    }
                }
            }
            "explain" => match ps.explain(rest) {
                Ok(text) => {
                    for l in text.lines() {
                        println!("; {}", l);
                    }
                }
                Err(e) => println!("; error: {}", e),
            },
            "why-not" => match ps.why_not(rest) {
                Ok(text) => {
                    for l in text.lines() {
                        println!("; {}", l);
                    }
                }
                Err(e) => println!("; error: {}", e),
            },
            "profile" => match ps.profile() {
                Some(prof) => print_profile(&prof),
                None => println!(
                    "; no profile — start with --profile (and a matcher that has a network)"
                ),
            },
            "cs" => print_cs(ps),
            "stats" => print_stats(ps),
            "metrics" => {
                ps.enable_metrics();
                ps.record_metrics_snapshot();
                print_metrics_table(ps);
            }
            "spans" => {
                if !ps.spans_enabled() {
                    ps.enable_spans();
                    println!("; span recording enabled — run some cycles, then `spans` again");
                } else {
                    let spans = ps.span_snapshot();
                    if spans.is_empty() {
                        println!("; no spans recorded yet");
                    } else {
                        println!("; spans ({} recorded):", spans.len());
                        for l in sorete_base::render_span_table(&spans).lines() {
                            println!("; {}", l);
                        }
                    }
                }
            }
            "watch" => {
                let every: u64 = rest.parse().ok().filter(|&n| n > 0).unwrap_or(10);
                ps.enable_metrics();
                loop {
                    let outcome = ps.run(Some(every));
                    flush_output(ps);
                    ps.record_metrics_snapshot();
                    print_metrics_table(ps);
                    if !matches!(outcome.reason, sorete::core::StopReason::Limit) {
                        println!("; fired {} ({:?})", outcome.fired, outcome.reason);
                        break;
                    }
                }
            }
            other => println!("; unknown command `{}` (try `help`)", other),
        }
    }
}

/// Run in chunks of `every` firings, cutting a checkpoint (which also
/// rotates an attached WAL) after every chunk that made progress. The
/// returned outcome's `fired` is the total across chunks.
fn run_with_checkpoints(
    ps: &mut ProductionSystem,
    limit: Option<u64>,
    every: u64,
    ckpt: &str,
) -> Result<sorete::core::RunOutcome, Failure> {
    let mut total: u64 = 0;
    loop {
        let remaining = limit.map(|l| l.saturating_sub(total));
        let chunk = remaining.map_or(every, |r| r.min(every));
        let mut outcome = ps.run(Some(chunk));
        total += outcome.fired;
        flush_output(ps);
        if outcome.fired > 0 {
            ps.checkpoint_to(std::path::Path::new(ckpt))
                .map_err(|e| (EXIT_DURABILITY, format!("{}: {}", ckpt, e)))?;
            eprintln!("; checkpointed {} at cycle {}", ckpt, ps.cycle());
        }
        let user_limit_hit = limit.is_some_and(|l| total >= l);
        if !matches!(outcome.reason, sorete::core::StopReason::Limit) || user_limit_hit {
            outcome.fired = total;
            return Ok(outcome);
        }
    }
}

/// Append the crash-bundle path (if the abnormal exit produced one) to a
/// failure message, so the operator's next step — `sorete debug <bundle>`
/// — is right there in the error line.
fn with_bundle_note(ps: &ProductionSystem, failure: Failure) -> Failure {
    match ps.last_crash_bundle() {
        Some(path) => (
            failure.0,
            format!("{}; crash bundle: {}", failure.1, path.display()),
        ),
        None => failure,
    }
}

/// The most recently written `sorete-crash-*` bundle directory under
/// `dir`, if any — surfaced in the recovery summary so a restart after a
/// crash points straight at the black box from the run that died.
fn latest_crash_bundle_in(dir: &std::path::Path) -> Option<std::path::PathBuf> {
    let mut best: Option<(std::time::SystemTime, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if !name.to_string_lossy().starts_with("sorete-crash-")
            || !sorete::core::bundle::is_bundle_dir(&path)
        {
            continue;
        }
        let mtime = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        if best.as_ref().is_none_or(|(t, _)| mtime >= *t) {
            best = Some((mtime, path));
        }
    }
    best.map(|(_, p)| p)
}

/// Render a run's terminal `StopReason` to its typed exit, or `None` for
/// the benign reasons (quiescence, halt, limit).
fn outcome_failure(reason: &sorete::core::StopReason, fired: u64) -> Option<Failure> {
    use sorete::core::{CoreError, StopReason};
    match reason {
        StopReason::Error(e) => {
            let code = match e {
                CoreError::Durability(_) => EXIT_DURABILITY,
                _ => EXIT_RUN,
            };
            Some((code, format!("error after {} firings: {}", fired, e)))
        }
        StopReason::Panicked { rule, message } => Some((
            EXIT_RUN,
            format!(
                "panic in rule {} after {} firings: {}",
                rule, fired, message
            ),
        )),
        StopReason::ResourceExhausted(v) => Some((
            EXIT_RESOURCE,
            format!("resource exhausted after {} firings: {}", fired, v),
        )),
        StopReason::Quarantined { rules } => {
            let names: Vec<&str> = rules.iter().map(|s| s.as_str()).collect();
            Some((
                EXIT_QUARANTINE,
                format!(
                    "run stalled after {} firings: remaining work is quarantined ({}) — \
                     readmit and run again",
                    fired,
                    names.join(", ")
                ),
            ))
        }
        // The one-line graceful-shutdown summary: a *clean* stop at a
        // firing boundary, typed so orchestrators can tell it from failure.
        StopReason::Interrupted => Some((
            EXIT_INTERRUPTED,
            format!(
                "interrupted ({}): stopped cleanly at a firing boundary after {} firings, \
                 checkpointed where configured",
                sorete::base::shutdown::last_signal_name(),
                fired
            ),
        )),
        _ => None,
    }
}

fn run(args: &[String]) -> Result<(), Failure> {
    let opts = parse_args(args).map_err(|e| (EXIT_USAGE, e))?;

    let mut ps = ProductionSystem::new(opts.matcher);
    // The crash-bundle manifest records how the process was started.
    ps.set_invocation(std::env::args().collect());
    if let Some(cap) = opts.flight {
        ps.set_flight_recorder(cap);
    }
    if let Some(dir) = &opts.crash_dir {
        ps.set_crash_dir(dir);
    }
    if let Some(keep) = opts.crash_keep {
        ps.set_crash_keep(keep);
    }
    // SIGTERM/SIGINT mean "stop at the next firing boundary, checkpoint
    // where configured, exit 7" — not "die mid-firing". The bridge thread
    // mirrors the process-wide signal flag into the engine's interrupt.
    sorete::base::shutdown::install();
    let interrupt = Arc::new(std::sync::atomic::AtomicBool::new(false));
    ps.set_interrupt(interrupt.clone());
    let bridge_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let bridge = sorete::base::shutdown::bridge(interrupt, bridge_stop.clone());
    // Every exit path — including the early `?` failures inside
    // `run_loaded` (checkpoint I/O, fact-file errors) — must flush
    // buffered telemetry, or a failed run loses its trace/metrics tail.
    let result = run_loaded(&mut ps, &opts);
    ps.flush_trace();
    bridge_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = bridge.join();
    result
}

fn run_loaded(ps: &mut ProductionSystem, opts: &Options) -> Result<(), Failure> {
    ps.set_strategy(opts.strategy);
    if let Some(policy) = opts.recovery {
        ps.set_recovery_policy(policy);
    }
    ps.set_tracing(opts.trace);
    if let Some(path) = &opts.trace_json {
        let sink = JsonlSink::create(path).map_err(|e| (EXIT_USAGE, format!("{}: {}", path, e)))?;
        ps.add_trace_sink(Arc::new(Mutex::new(sink)));
    }
    if opts.metrics_json.is_some() || opts.metrics_prom.is_some() || opts.watch.is_some() {
        ps.enable_metrics();
    }
    // Spans come on before the WAL attaches so the recorder is handed to
    // every emitter (WAL I/O, engine phases) up front.
    if opts.trace_perfetto.is_some() || opts.span_stats {
        ps.enable_spans();
    }
    if let Some(path) = &opts.metrics_json {
        let writer =
            SnapshotWriter::create(path).map_err(|e| (EXIT_USAGE, format!("{}: {}", path, e)))?;
        ps.set_metrics_stream(writer);
    }
    if opts.profile {
        ps.set_profiling(true);
    }
    // `explain` reconstructs history from the event log; the REPL records
    // it too so `explain` works there at any point.
    if opts.explain.is_some() || opts.repl {
        ps.set_event_log(true);
    }

    for file in &opts.programs {
        let src =
            std::fs::read_to_string(file).map_err(|e| (EXIT_USAGE, format!("{}: {}", file, e)))?;
        ps.load_program(&src)
            .map_err(|e| (EXIT_USAGE, format!("{}: {}", file, e)))?;
    }

    // Durability: restore a checkpoint first (the WAL base), then attach the
    // WAL, which replays whatever committed after the checkpoint was cut.
    let mut recovered = false;
    if let Some(path) = &opts.resume {
        let report = ps
            .resume_from_file(std::path::Path::new(path))
            .map_err(|e| (EXIT_DURABILITY, format!("{}: {}", path, e)))?;
        eprintln!(
            "; resumed {}: {} WMEs, {} refracted, at cycle {} (checkpointed from {})",
            path, report.wmes, report.refracted, report.cycle, report.matcher_was
        );
        recovered = true;
    }
    if let Some(path) = &opts.wal {
        let wal_opts = WalOptions {
            group_commit: opts.group_commit,
        };
        let report = ps
            .attach_wal(std::path::Path::new(path), wal_opts)
            .map_err(|e| (EXIT_DURABILITY, format!("{}: {}", path, e)))?;
        // The one-line recovery summary, printed even for a clean attach so
        // scripted runs always have it to parse. A crash bundle next to the
        // WAL is the black box from the run that died — point at it.
        let bundle_note = std::path::Path::new(path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .map(std::path::Path::to_path_buf)
            .or_else(|| Some(std::path::PathBuf::from(".")))
            .and_then(|d| latest_crash_bundle_in(&d))
            .map(|b| format!(" crash_bundle={}", b.display()))
            .unwrap_or_default();
        eprintln!(
            "; recovery: {}: replayed={} cycles={} commits={} stale_discarded={} uncommitted_discarded={} truncated_bytes={}{}",
            path,
            report.replayed_ops,
            report.replayed_cycles,
            report.replayed_commits,
            report.stale_records,
            report.discarded_records,
            report.truncated_bytes,
            bundle_note
        );
        if report.replayed_ops > 0 || report.replayed_cycles > 0 || report.replayed_commits > 0 {
            eprintln!(
                "; recovered {}: {} ops over {} cycles + {} commits ({} records discarded, {} bytes truncated)",
                path,
                report.replayed_ops,
                report.replayed_cycles,
                report.replayed_commits,
                report.discarded_records,
                report.truncated_bytes
            );
            recovered = true;
        }
    }
    // After recovery the initial facts are already in working memory (from
    // the checkpoint and/or the WAL's committed asserts); loading the fact
    // files again would double-apply them.
    if recovered && !opts.wm_files.is_empty() {
        eprintln!("; skipping --wm fact files: state was recovered");
    } else {
        for file in &opts.wm_files {
            let src = std::fs::read_to_string(file)
                .map_err(|e| (EXIT_USAGE, format!("{}: {}", file, e)))?;
            for (class, slots) in parse_facts(&src).map_err(|e| (EXIT_USAGE, e))? {
                ps.assert_wme(class, slots).map_err(|e| {
                    let code = match e {
                        sorete::core::CoreError::Durability(_) => EXIT_DURABILITY,
                        _ => EXIT_USAGE,
                    };
                    (code, e.to_string())
                })?;
            }
        }
    }
    let ckpt_path: Option<String> = opts
        .checkpoint
        .clone()
        .or_else(|| opts.wal.as_ref().map(|w| format!("{}.ckpt", w)));

    if opts.supervise {
        let mut config = SupervisorConfig {
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            degradation: DegradationPolicy {
                soft_wall: opts.soft_wall_ms.map(Duration::from_millis),
                soft_bytes: opts.soft_mem,
                hard_bytes: opts.hard_mem,
            },
            checkpoint_path: ckpt_path.as_ref().map(std::path::PathBuf::from),
        };
        if let Some(n) = opts.quarantine_after {
            config.breaker.max_failures = n;
        }
        if let Some(n) = opts.quarantine_window {
            config.breaker.window_cycles = n;
        }
        if let Some(n) = opts.io_retries {
            config.retry.max_attempts = n;
        }
        ps.enable_supervision(config);
    }

    let mut run_error: Option<Failure> = None;
    if opts.repl {
        flush_output(ps);
        repl(ps, opts.limit);
    } else if let Some(every) = opts.watch {
        // Watch mode: run in chunks of `every` cycles, re-rendering the
        // metrics table (to stderr, keeping stdout clean) after each.
        let mut total: u64 = 0;
        loop {
            let remaining = opts.limit.map(|l| l.saturating_sub(total));
            if remaining == Some(0) {
                eprintln!("; fired {} rules (Limit)", total);
                break;
            }
            let chunk = remaining.map_or(every, |r| r.min(every));
            let outcome = ps.run(Some(chunk));
            total += outcome.fired;
            flush_output(ps);
            ps.record_metrics_snapshot();
            if let Some(table) = ps.metrics_table() {
                for l in table.lines() {
                    eprintln!("; {}", l);
                }
            }
            match &outcome.reason {
                sorete::core::StopReason::Limit => {}
                reason => {
                    match outcome_failure(reason, total) {
                        Some(failure) => run_error = Some(with_bundle_note(ps, failure)),
                        None => eprintln!("; fired {} rules ({:?})", total, reason),
                    }
                    break;
                }
            }
        }
    } else {
        let outcome = match (opts.checkpoint_every, &ckpt_path) {
            (Some(every), Some(ckpt)) => run_with_checkpoints(ps, opts.limit, every, ckpt)?,
            _ => ps.run(opts.limit),
        };
        flush_output(ps);
        match outcome_failure(&outcome.reason, outcome.fired) {
            Some(failure) => run_error = Some(with_bundle_note(ps, failure)),
            None => eprintln!("; fired {} rules ({:?})", outcome.fired, outcome.reason),
        }
    }
    // A final checkpoint captures end-of-run state (also on the error paths:
    // the checkpoint is cut at the last *committed* cycle).
    if opts.checkpoint_every.is_some() {
        if let Some(ckpt) = &ckpt_path {
            ps.checkpoint_to(std::path::Path::new(ckpt))
                .map_err(|e| (EXIT_DURABILITY, format!("{}: {}", ckpt, e)))?;
            eprintln!("; checkpointed {} at cycle {}", ckpt, ps.cycle());
        }
    }
    // DOT is rendered *after* the run so `--profile` heat annotations
    // reflect the work actually done.
    if let Some(path) = &opts.dot {
        match ps.network_dot() {
            Some(dot) => {
                std::fs::write(path, dot).map_err(|e| (EXIT_USAGE, format!("{}: {}", path, e)))?;
                eprintln!("; wrote network DOT to {}", path);
            }
            None => eprintln!(
                "; --dot: the {} matcher has no network to render",
                ps.matcher_name()
            ),
        }
    }
    if let Some(rule) = &opts.explain {
        match ps.explain(rule) {
            Ok(text) => {
                for l in text.lines() {
                    println!("; {}", l);
                }
            }
            Err(e) => eprintln!("; explain: {}", e),
        }
    }
    if opts.profile {
        match ps.profile() {
            Some(prof) => print_profile(&prof),
            None => eprintln!(
                "; --profile: the {} matcher does not profile",
                ps.matcher_name()
            ),
        }
    }
    if opts.stats {
        print_stats(ps);
    }
    if opts.span_stats || opts.trace_perfetto.is_some() {
        print_spans(ps, opts)?;
    }
    // Final sample so the last JSONL line / the Prometheus scrape reflect
    // end-of-run state even on error paths (a no-op when disabled; the
    // snapshot dedups against the end-of-cycle one).
    ps.record_metrics_snapshot();
    if let Some(path) = &opts.metrics_prom {
        let text = ps.metrics_prometheus().unwrap_or_default();
        std::fs::write(path, text).map_err(|e| (EXIT_USAGE, format!("{}: {}", path, e)))?;
        eprintln!("; wrote Prometheus exposition to {}", path);
    }
    run_error.map_or(Ok(()), Err)
}

/// End-of-run span rendering: the `--span-stats` summary table and/or the
/// `--trace-perfetto` Chrome trace-event JSON file.
fn print_spans(ps: &mut ProductionSystem, opts: &Options) -> Result<(), Failure> {
    let spans = ps.take_spans();
    if opts.span_stats {
        println!("; spans ({} recorded):", spans.len());
        for l in sorete_base::render_span_table(&spans).lines() {
            println!("; {}", l);
        }
        let dropped = ps.spans().dropped();
        if dropped > 0 {
            println!("; spans dropped at cap: {}", dropped);
        }
    }
    if let Some(path) = &opts.trace_perfetto {
        std::fs::write(path, sorete_base::render_perfetto(&spans))
            .map_err(|e| (EXIT_USAGE, format!("{}: {}", path, e)))?;
        eprintln!(
            "; wrote Perfetto trace to {} ({} spans) — load it at https://ui.perfetto.dev",
            path,
            spans.len()
        );
    }
    Ok(())
}

/// `sorete debug <bundle> [cmd]`: the offline post-mortem inspector over
/// a crash-bundle directory. With no subcommand it prints the validation
/// summary plus the cycle timeline; `timeline`, `rules`, `perfetto <out>`,
/// `explain <rule>`, and `why-not <rule>` drill in. `explain`/`why-not`
/// render byte-identically to the live REPL verbs so transcripts diff
/// cleanly against a re-run.
fn debug(args: &[String]) -> Result<(), Failure> {
    const DEBUG_USAGE: &str =
        "usage: sorete debug <bundle> [timeline|rules|perfetto <out>|explain <rule>|why-not <rule>]";
    let (dir, cmd) = match args {
        [dir, rest @ ..] => (dir, rest),
        [] => return Err((EXIT_USAGE, DEBUG_USAGE.into())),
    };
    let bundle = sorete::core::CrashBundle::load(std::path::Path::new(dir))
        .map_err(|e| (EXIT_USAGE, format!("debug: {}: {}", dir, e)))?;
    let cmd: Vec<&str> = cmd.iter().map(String::as_str).collect();
    match cmd.as_slice() {
        [] => {
            println!("{}", bundle.validate_summary());
            print!("{}", bundle.render_timeline());
        }
        ["timeline"] => print!("{}", bundle.render_timeline()),
        ["rules"] => print!("{}", bundle.render_rules()),
        ["perfetto", out] => {
            let spans = bundle.spans.len();
            std::fs::write(out, bundle.render_perfetto())
                .map_err(|e| (EXIT_USAGE, format!("debug: {}: {}", out, e)))?;
            eprintln!(
                "; wrote Perfetto trace to {} ({} spans) — load it at https://ui.perfetto.dev",
                out, spans
            );
        }
        ["explain", rule] => {
            let text = bundle
                .explain(rule)
                .map_err(|e| (EXIT_USAGE, format!("debug: {}", e)))?;
            for l in text.lines() {
                println!("; {}", l);
            }
        }
        ["why-not", rule] => {
            let text = bundle
                .why_not(rule)
                .map_err(|e| (EXIT_USAGE, format!("debug: {}", e)))?;
            for l in text.lines() {
                println!("; {}", l);
            }
        }
        _ => return Err((EXIT_USAGE, DEBUG_USAGE.into())),
    }
    Ok(())
}

/// `sorete fsck <wal> [ckpt]`: offline durability validation. Reads both
/// files without mutating them (no truncation, no replay into an engine)
/// and reports CRC framing, the committed prefix, tail defects, and WAL /
/// checkpoint generation pairing.
///
/// Exit 0 when the pair is recoverable (tail defects are fine: recovery
/// truncates them); exit 5 (`EXIT_DURABILITY`) when a file is unreadable,
/// not a WAL/checkpoint at all, or the generations cannot pair.
fn fsck(args: &[String]) -> Result<(), Failure> {
    let (wal_path, ckpt_path) = match args {
        [w] => (w, None),
        [w, c] => (w, Some(c)),
        _ => {
            return Err((
                EXIT_USAGE,
                "usage: sorete fsck <wal-or-bundle> [ckpt]".into(),
            ))
        }
    };
    // A crash-bundle directory instead of a WAL: validate the bundle
    // (manifest magic, ring framing, TSV/rule tables all parse).
    if sorete::core::bundle::is_bundle_dir(std::path::Path::new(wal_path)) {
        let summary = ProductionSystem::fsck_bundle(std::path::Path::new(wal_path))
            .map_err(|e| (EXIT_DURABILITY, format!("fsck: {}: {}", wal_path, e)))?;
        println!("fsck: {}", summary);
        println!("fsck: ok");
        return Ok(());
    }
    let scan = sorete::reldb::Wal::scan(std::path::Path::new(wal_path))
        .map_err(|e| (EXIT_DURABILITY, format!("fsck: {}", e)))?;
    println!(
        "fsck: wal {}: generation={} file_bytes={} committed_bytes={} records={} commit_points={}",
        wal_path,
        scan.generation,
        scan.file_bytes,
        scan.committed_bytes,
        scan.committed_records,
        scan.commit_points
    );
    for defect in &scan.defects {
        println!("fsck: wal {}: tail defect: {:?}", wal_path, defect);
    }
    if !scan.defects.is_empty() {
        println!(
            "fsck: wal {}: tail is recoverable — recovery truncates {} bytes back to the last commit point",
            wal_path,
            scan.file_bytes - scan.committed_bytes
        );
    }
    if let Some(ckpt_path) = ckpt_path {
        let text = std::fs::read_to_string(ckpt_path)
            .map_err(|e| (EXIT_DURABILITY, format!("fsck: {}: {}", ckpt_path, e)))?;
        let ck = sorete::core::Checkpoint::parse(&text)
            .map_err(|e| (EXIT_DURABILITY, format!("fsck: {}: {}", ckpt_path, e)))?;
        println!(
            "fsck: checkpoint {}: generation={} cycle={} wmes={} refracted={} matcher={}",
            ckpt_path,
            ck.generation,
            ck.cycle,
            ck.wmes.len(),
            ck.fired.len(),
            ck.matcher
        );
        // Pairing: equal generations means the log continues the checkpoint
        // (replay); checkpoint one ahead means a crash landed between the
        // checkpoint rename and the log rotation (log is stale but safely
        // ignorable). Anything else is an unrelated or missing-lineage pair.
        if ck.generation == scan.generation {
            println!(
                "fsck: pairing ok: log generation {} continues the checkpoint (replay on resume)",
                scan.generation
            );
        } else if ck.generation == scan.generation + 1 {
            println!(
                "fsck: pairing ok: checkpoint generation {} is one ahead of the log ({}) — log is stale and will be discarded on resume",
                ck.generation, scan.generation
            );
        } else {
            return Err((
                EXIT_DURABILITY,
                format!(
                    "fsck: generation mismatch: WAL generation {} does not pair with checkpoint generation {} (expected equal, or checkpoint one ahead)",
                    scan.generation, ck.generation
                ),
            ));
        }
    }
    println!("fsck: ok");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("fsck") => fsck(&args[1..]),
        Some("debug") => debug(&args[1..]),
        // The daemon: everything after `serve` is a sorete-server option.
        Some("serve") => return ExitCode::from(sorete::server::cli_main(&args) as u8),
        _ => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("sorete: {}", msg);
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_options() {
        let args: Vec<String> = [
            "--matcher",
            "treat",
            "--strategy",
            "mea",
            "--limit",
            "5",
            "--trace",
            "prog.ops",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(o.matcher, MatcherKind::Treat);
        assert_eq!(o.strategy, Strategy::Mea);
        assert_eq!(o.limit, Some(5));
        assert!(o.trace);
        assert_eq!(o.programs, vec!["prog.ops"]);
        let obs: Vec<String> = [
            "--trace-json",
            "out.jsonl",
            "--profile",
            "--explain",
            "compete",
            "p.ops",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_args(&obs).unwrap();
        assert_eq!(o.trace_json.as_deref(), Some("out.jsonl"));
        assert!(o.profile);
        assert_eq!(o.explain.as_deref(), Some("compete"));
        let spans: Vec<String> = ["--trace-perfetto", "trace.json", "--span-stats", "p.ops"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_args(&spans).unwrap();
        assert_eq!(o.trace_perfetto.as_deref(), Some("trace.json"));
        assert!(o.span_stats);
        assert!(!parse_args(&obs).unwrap().span_stats); // off by default
        let met: Vec<String> = [
            "--metrics-json",
            "m.jsonl",
            "--metrics-prom",
            "m.prom",
            "--watch",
            "25",
            "p.ops",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_args(&met).unwrap();
        assert_eq!(o.metrics_json.as_deref(), Some("m.jsonl"));
        assert_eq!(o.metrics_prom.as_deref(), Some("m.prom"));
        assert_eq!(o.watch, Some(25));
        let scan: Vec<String> = ["--matcher", "rete-scan", "p.ops"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_args(&scan).unwrap().matcher, MatcherKind::ReteScan);
        let dur: Vec<String> = [
            "--wal",
            "run.wal",
            "--group-commit",
            "8",
            "--resume",
            "run.ckpt",
            "--checkpoint-every",
            "100",
            "p.ops",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_args(&dur).unwrap();
        assert_eq!(o.wal.as_deref(), Some("run.wal"));
        assert_eq!(o.group_commit, 8);
        assert_eq!(o.resume.as_deref(), Some("run.ckpt"));
        assert_eq!(o.checkpoint, None); // destination defaults to <wal>.ckpt
        assert_eq!(o.checkpoint_every, Some(100));
        let ck: Vec<String> = [
            "--checkpoint",
            "out.ckpt",
            "--checkpoint-every",
            "5",
            "p.ops",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_args(&ck).unwrap();
        assert_eq!(o.checkpoint.as_deref(), Some("out.ckpt"));
        assert_eq!(o.group_commit, 1); // default: fsync every commit
        let fr: Vec<String> = [
            "--flight-recorder",
            "1024",
            "--crash-dir",
            "bundles",
            "--crash-keep",
            "3",
            "p.ops",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_args(&fr).unwrap();
        assert_eq!(o.flight, Some(1024));
        assert_eq!(o.crash_dir.as_deref(), Some("bundles"));
        assert_eq!(o.crash_keep, Some(3));
        assert_eq!(parse_args(&ck).unwrap().crash_keep, None); // defers to env/default
        let off: Vec<String> = ["--flight-recorder", "off", "p.ops"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_args(&off).unwrap().flight, Some(0)); // 0 = disabled
        assert_eq!(parse_args(&ck).unwrap().flight, None); // recorder on at default capacity
    }

    #[test]
    fn rejects_bad_options() {
        let bad = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_args(&v).is_err()
        };
        assert!(bad(&["--matcher", "ops83", "p.ops"]));
        assert!(bad(&["--limit", "many", "p.ops"]));
        assert!(bad(&["--frobnicate", "p.ops"]));
        assert!(bad(&["--trace-json"])); // missing file
        assert!(bad(&["--trace-perfetto"])); // missing file
        assert!(bad(&["--explain"])); // missing rule
        assert!(bad(&["--metrics-json"])); // missing file
        assert!(bad(&["--metrics-prom"])); // missing file
        assert!(bad(&["--watch", "0", "p.ops"])); // zero cycles
        assert!(bad(&["--watch", "soon", "p.ops"])); // not a number
        assert!(bad(&["--wal"])); // missing file
        assert!(bad(&["--resume"])); // missing checkpoint
        assert!(bad(&["--group-commit", "0", "p.ops"])); // zero commits
        assert!(bad(&["--crash-keep"])); // missing count
        assert!(bad(&["--crash-keep", "several", "p.ops"])); // not a number
        assert!(bad(&["--checkpoint-every", "0", "p.ops"])); // zero firings
        assert!(bad(&["--checkpoint-every", "5", "p.ops"])); // no destination
        assert!(bad(&["--flight-recorder", "lots", "p.ops"])); // not a capacity
        assert!(bad(&["--flight-recorder"])); // missing capacity
        assert!(bad(&["--crash-dir"])); // missing directory
        assert!(bad(&[])); // no program, no repl
    }

    #[test]
    fn parses_facts() {
        let facts = parse_facts(
            "(player ^name Jack ^team A)
             (score ^points 42 ^ratio 0.5 ^note nil)",
        )
        .unwrap();
        assert_eq!(facts.len(), 2);
        assert_eq!(facts[0].0.as_str(), "player");
        assert_eq!(facts[1].1[0].1, Value::Int(42));
        assert_eq!(facts[1].1[1].1, Value::Float(0.5));
        assert_eq!(facts[1].1[2].1, Value::Nil);
    }

    #[test]
    fn rejects_bad_facts() {
        assert!(parse_facts("player ^name Jack").is_err());
        assert!(parse_facts("(player ^name)").is_err());
        assert!(parse_facts("(player name)").is_err());
    }

    #[test]
    fn end_to_end_program_run() {
        let mut ps = ProductionSystem::new(MatcherKind::Rete);
        ps.load_program(
            "(literalize item s)
             (p sweep { [item ^s pending] <P> } (set-modify <P> ^s done) (write swept (count <P>)))",
        )
        .unwrap();
        for (class, slots) in parse_facts("(item ^s pending)(item ^s pending)").unwrap() {
            ps.assert_wme(class, slots).unwrap();
        }
        let outcome = ps.run(Some(10));
        assert_eq!(outcome.fired, 1);
        assert_eq!(ps.take_output(), vec!["swept 2"]);
    }
}
