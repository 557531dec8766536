#![warn(missing_docs)]
//! `sorete-server`: a fault-tolerant multi-session rule-engine daemon.
//!
//! The paper's end state is a rule base living *inside* a database system
//! serving many clients; this crate is that move for sorete. A long-lived
//! daemon speaks a newline-delimited JSON line protocol over TCP
//! ([`proto`]) and hosts many named sessions ([`session`]), each a durable
//! [`sorete_core::ProductionSystem`] with its own WAL + checkpoint
//! directory, supervisor, and metrics registry.
//!
//! Robustness is the headline ([`server`]):
//!
//! - per-request **deadlines** with typed `timeout` errors;
//! - connection and per-session concurrency limits with explicit
//!   **backpressure** (`overloaded`, never an unbounded queue);
//! - **admission control** on session count and aggregate WM bytes;
//! - **graceful shutdown** on SIGTERM that checkpoints every dirty
//!   session before exit;
//! - restart-time **recovery** that reattaches every session's WAL,
//!   refusing generation mismatches;
//! - a network-layer **fault-injection** mode (drop / stall / garbage
//!   frames) proven harmless by differential tests.

pub mod client;
pub mod proto;
pub mod server;
pub mod session;

pub use client::Client;
pub use proto::{parse_request, Request, Response};
pub use server::{
    conflict_lines, dispatch_line, Ctx, NetFaultMode, NetFaultPlan, Server, ServerConfig,
    ServerReport,
};
pub use session::{Session, SessionError, SessionSlot, SessionStore};

use std::path::PathBuf;

/// Entry point shared by the `sorete-server` binary and `sorete serve`.
/// Returns the process exit code.
pub fn cli_main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("request") => cmd_request(&args[1..]),
        _ => {
            eprintln!("{}", USAGE);
            2
        }
    }
}

const USAGE: &str = "\
usage: sorete-server <command> [options]

commands:
  serve    run the daemon
           --addr A              listen address (default 127.0.0.1:7878)
           --data-dir D          session data directory (default sorete-data)
           --max-sessions N      admission: session cap (default 64)
           --max-connections N   admission: connection cap (default 64)
           --max-bytes N         admission: aggregate WM bytes (default 256MiB)
           --deadline-ms N       default per-request deadline (default 5000)
           --read-timeout-ms N   stalled-client read timeout (default 10000)
           --fault MODE:N        inject drop|stall|garbage every Nth frame
  request  one-shot client: sorete-server request ADDR '<json-line>'";

fn next_arg(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{} needs a value", flag))
}

fn cmd_serve(args: &[String]) -> i32 {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r: Result<(), String> = (|| {
            match a.as_str() {
                "--addr" => cfg.addr = next_arg(&mut it, a)?,
                "--data-dir" => cfg.data_dir = PathBuf::from(next_arg(&mut it, a)?),
                "--max-sessions" => {
                    cfg.max_sessions = next_arg(&mut it, a)?
                        .parse()
                        .map_err(|e| format!("{}: {}", a, e))?
                }
                "--max-connections" => {
                    cfg.max_connections = next_arg(&mut it, a)?
                        .parse()
                        .map_err(|e| format!("{}: {}", a, e))?
                }
                "--max-bytes" => {
                    cfg.max_total_bytes = next_arg(&mut it, a)?
                        .parse()
                        .map_err(|e| format!("{}: {}", a, e))?
                }
                "--deadline-ms" => {
                    cfg.default_deadline_ms = next_arg(&mut it, a)?
                        .parse()
                        .map_err(|e| format!("{}: {}", a, e))?
                }
                "--read-timeout-ms" => {
                    cfg.read_timeout_ms = next_arg(&mut it, a)?
                        .parse()
                        .map_err(|e| format!("{}: {}", a, e))?
                }
                "--fault" => cfg.fault = Some(NetFaultPlan::parse(&next_arg(&mut it, a)?)?),
                other => return Err(format!("unknown option {}", other)),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("sorete-server: {}", e);
            return 2;
        }
    }
    sorete_base::shutdown::install();
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sorete-server: bind: {}", e);
            return 1;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // Machine-parseable: the CI smoke job scrapes the port here.
            println!("sorete-server listening on {}", addr);
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("sorete-server: local_addr: {}", e);
            return 1;
        }
    }
    match server.run() {
        Ok(report) => {
            // Supervisors commonly stop reading our stdout before we exit;
            // a plain println! would panic on the broken pipe, so the
            // summary write ignores errors.
            use std::io::Write as _;
            let _ = writeln!(
                std::io::stdout(),
                "; shutdown ({}): {} requests, {} sessions checkpointed, {} checkpoint failures",
                sorete_base::shutdown::last_signal_name(),
                report.requests,
                report.checkpointed,
                report.checkpoint_failures
            );
            if report.checkpoint_failures > 0 {
                5
            } else {
                0
            }
        }
        Err(e) => {
            eprintln!("sorete-server: accept loop: {}", e);
            1
        }
    }
}

fn cmd_request(args: &[String]) -> i32 {
    let (addr, line) = match args {
        [addr, line] => (addr, line),
        _ => {
            eprintln!("usage: sorete-server request ADDR '<json-line>'");
            return 2;
        }
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sorete-server: connect {}: {}", addr, e);
            return 1;
        }
    };
    match client.request(line) {
        Ok(resp) => {
            println!("{}", resp.render());
            if resp.get("ok").and_then(|v| v.as_bool()) == Some(true) {
                0
            } else {
                3
            }
        }
        Err(e) => {
            eprintln!("sorete-server: request: {}", e);
            1
        }
    }
}
