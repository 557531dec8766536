//! Crash-dump bundles: the flight recorder's black box, persisted.
//!
//! When a run ends abnormally (panic, error, quarantine stall, tripped
//! resource guard) — or on demand via the REPL's `dump bundle` — the
//! engine drains its [`sorete_base::flight::Flight`] rings plus a snapshot
//! of live state into a directory `sorete-crash-<gen>-<cycle>/`. Every
//! file is written with `reldb`'s `atomic_write`, so a bundle never
//! contains torn files even if the process dies mid-dump.
//!
//! Bundle format, version 1 (see DESIGN.md §5.9):
//!
//! | file            | contents                                          |
//! |-----------------|---------------------------------------------------|
//! | `MANIFEST`      | magic + version line, then `key=value` pairs      |
//! | `events.bin`    | flight event ring, framed binary (authoritative)  |
//! | `spans.bin`     | flight span ring, framed binary                   |
//! | `cycles.bin`    | flight cycle-record ring, framed binary           |
//! | `events.jsonl`  | the event ring decoded to JSONL (for humans/jq)   |
//! | `cycles.jsonl`  | the cycle ring decoded to JSONL                   |
//! | `span_stats.txt`| per-category span aggregates                      |
//! | `metrics.prom`  | final metrics snapshot, Prometheus exposition     |
//! | `conflict.tsv`  | the conflict set at dump time                     |
//! | `wm.tsv`        | working memory at dump time                       |
//! | `rules.txt`     | loaded rules: network path + condition classes    |
//! | `stats.txt`     | cumulative [`crate::RunStats`]                    |
//!
//! The `.bin` streams are the source of truth for the offline inspector
//! (`sorete debug`); the JSONL/text twins exist so a bundle is readable
//! without any tooling.

use crate::engine::{ProductionSystem, RunOutcome};
use crate::error::CoreError;
use sorete_base::flight::{decode_cycles, decode_events, decode_spans, CycleRecord};
use sorete_base::span::{render_perfetto, render_span_table};
use sorete_base::{FxHashMap, Span, TraceEvent};
use sorete_reldb::persist::atomic_write;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Bundle format magic + version, the first line of every `MANIFEST`.
pub const MAGIC: &str = "sorete-crash-bundle 1";

fn put(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), String> {
    atomic_write(&dir.join(name), bytes).map_err(|e| format!("{}: {}", name, e))
}

/// Pick a fresh `sorete-crash-<gen>-<cycle>` directory under `base`,
/// suffixing `.2`, `.3`, … on collision so repeated crashes at the same
/// cycle never overwrite an earlier post-mortem.
fn fresh_dir(base: &Path, generation: u64, cycle: u64) -> PathBuf {
    let stem = format!("sorete-crash-{}-{}", generation, cycle);
    let first = base.join(&stem);
    if !first.exists() {
        return first;
    }
    for n in 2.. {
        let p = base.join(format!("{}.{}", stem, n));
        if !p.exists() {
            return p;
        }
    }
    unreachable!()
}

/// Drain the engine's flight recorder and live state into a new crash
/// bundle under `dir`, returning the bundle directory's path. `stop` is
/// the [`crate::StopReason::label`] (or `"manual"` for REPL dumps).
pub fn write(
    ps: &ProductionSystem,
    stop: &str,
    outcome: Option<&RunOutcome>,
    dir: &Path,
) -> Result<PathBuf, String> {
    let flight = ps.flight();
    let generation = ps.checkpoint_generation();
    let cycle = ps.current_cycle();
    let bundle = fresh_dir(dir, generation, cycle);
    std::fs::create_dir_all(&bundle).map_err(|e| format!("mkdir {}: {}", bundle.display(), e))?;

    // Freeze the rings once so every file describes the same instant.
    let events = flight.events();
    let spans = flight.spans();
    let cycles = flight.cycles();
    let counts = flight.counts();

    let mut manifest = String::new();
    let _ = writeln!(manifest, "{}", MAGIC);
    let _ = writeln!(manifest, "stop={}", stop);
    if let Some(o) = outcome {
        let _ = writeln!(manifest, "fired={}", o.fired);
        let _ = writeln!(manifest, "reason={:?}", o.reason);
    }
    let _ = writeln!(manifest, "cycle={}", cycle);
    let _ = writeln!(manifest, "generation={}", generation);
    let _ = writeln!(manifest, "matcher={}", ps.matcher_name());
    let _ = writeln!(manifest, "halted={}", ps.halted());
    if let Some(p) = ps.wal_path() {
        let _ = writeln!(manifest, "wal={}", p.display());
    }
    if let Some(g) = ps.wal_generation() {
        let _ = writeln!(manifest, "wal_generation={}", g);
    }
    if let Some(ws) = ps.wal_stats() {
        let _ = writeln!(manifest, "wal_records={}", ws.records);
        let _ = writeln!(manifest, "wal_bytes={}", ws.bytes);
        let _ = writeln!(manifest, "wal_commits={}", ws.commits);
    }
    let _ = writeln!(manifest, "flight_capacity={}", flight.capacity());
    let _ = writeln!(manifest, "events={}", counts.events);
    let _ = writeln!(manifest, "spans={}", counts.spans);
    let _ = writeln!(manifest, "cycles={}", counts.cycles);
    let _ = writeln!(manifest, "evicted={}", counts.evicted);
    if !ps.invocation().is_empty() {
        let _ = writeln!(manifest, "argv={}", ps.invocation().join(" "));
    }

    let mut events_jsonl = String::new();
    for ev in &events {
        let _ = writeln!(events_jsonl, "{}", ev.to_json());
    }
    let mut cycles_jsonl = String::new();
    for c in &cycles {
        let _ = writeln!(cycles_jsonl, "{}", c.to_json());
    }

    // Final metrics snapshot: sample at this instant, then render.
    ps.record_metrics_snapshot();
    let prom = ps
        .metrics_prometheus()
        .unwrap_or_else(|| "# metrics disabled\n".to_string());

    let mut conflict = String::from("rule\tkey\tversion\tspecificity\trows\taggregates\n");
    for item in ps.conflict_items() {
        let rule = ps.rule_name(item.key.rule());
        let rows: Vec<String> = item
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|t| t.raw().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        let aggs: Vec<String> = item.aggregates.iter().map(|v| v.to_string()).collect();
        let _ = writeln!(
            conflict,
            "{}\t{}\t{}\t{}\t{}\t{}",
            rule,
            item.key.repr(),
            item.version,
            item.specificity,
            rows.join(";"),
            aggs.join(" ")
        );
    }

    let mut wm = String::from("tag\twme\n");
    let mut wmes: Vec<_> = ps.wm().iter().collect();
    wmes.sort_by_key(|w| w.tag);
    for w in wmes {
        let _ = writeln!(wm, "{}\t{}", w.tag, w.render());
    }

    let mut rules = String::new();
    for ar in ps.loaded_rules() {
        let _ = writeln!(rules, "rule {}", ar.name);
        if let Some(path) = ps.rule_network_path(ar.name.as_str()) {
            for step in path {
                let _ = writeln!(rules, "path {}", step);
            }
        }
        for ce in &ar.ces {
            let _ = writeln!(
                rules,
                "cond {} {}",
                if ce.negated { '-' } else { '+' },
                ce.class
            );
        }
        let _ = writeln!(rules, "end");
    }

    let st = ps.stats();
    let mut stats = String::new();
    let _ = writeln!(stats, "firings={}", st.firings);
    let _ = writeln!(stats, "actions={}", st.actions);
    let _ = writeln!(stats, "makes={}", st.makes);
    let _ = writeln!(stats, "removes={}", st.removes);
    let _ = writeln!(stats, "modifies={}", st.modifies);
    let _ = writeln!(stats, "writes={}", st.writes);
    let _ = writeln!(stats, "skipped_actions={}", st.skipped_actions);
    let _ = writeln!(stats, "rolled_back={}", st.rolled_back);
    for (name, rs) in st.per_rule_sorted() {
        let _ = writeln!(
            stats,
            "rule {} firings={} actions={}",
            name, rs.firings, rs.actions
        );
    }

    put(&bundle, "MANIFEST", manifest.as_bytes())?;
    put(&bundle, "events.bin", &flight.events_bytes())?;
    put(&bundle, "spans.bin", &flight.spans_bytes())?;
    put(&bundle, "cycles.bin", &flight.cycles_bytes())?;
    put(&bundle, "events.jsonl", events_jsonl.as_bytes())?;
    put(&bundle, "cycles.jsonl", cycles_jsonl.as_bytes())?;
    put(
        &bundle,
        "span_stats.txt",
        render_span_table(&spans).as_bytes(),
    )?;
    put(&bundle, "metrics.prom", prom.as_bytes())?;
    put(&bundle, "conflict.tsv", conflict.as_bytes())?;
    put(&bundle, "wm.tsv", wm.as_bytes())?;
    put(&bundle, "rules.txt", rules.as_bytes())?;
    put(&bundle, "stats.txt", stats.as_bytes())?;
    Ok(bundle)
}

/// Default bundle-retention cap: the newest 8 bundles survive pruning.
pub const DEFAULT_CRASH_KEEP: usize = 8;

/// Cap the number of `sorete-crash-*` bundle directories under `dir`:
/// keep the newest `keep`, remove the rest oldest-first, and return the
/// removed paths. Age is the directory's mtime with the name as a
/// deterministic tie-break (collision suffixes sort after their stem, so
/// same-instant bundles still prune in creation order). `keep == 0`
/// disables pruning — retention is a cap, never "delete everything".
/// Non-bundle directories that merely share the name prefix are left
/// alone, as are I/O errors: pruning is best-effort and must never fail
/// a crash dump.
pub fn prune(dir: &Path, keep: usize) -> Vec<PathBuf> {
    if keep == 0 {
        return Vec::new();
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut bundles: Vec<(std::time::SystemTime, String, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = entry.path();
        if !name.starts_with("sorete-crash-") || !is_bundle_dir(&path) {
            continue;
        }
        let mtime = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        bundles.push((mtime, name, path));
    }
    if bundles.len() <= keep {
        return Vec::new();
    }
    // Oldest first; the tail `keep` survive.
    bundles.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let doomed = bundles.len() - keep;
    let mut removed = Vec::new();
    for (_, _, path) in bundles.into_iter().take(doomed) {
        if std::fs::remove_dir_all(&path).is_ok() {
            removed.push(path);
        }
    }
    removed
}

/// One conflict-set entry as recorded in `conflict.tsv`.
#[derive(Clone, Debug)]
pub struct BundleConflictItem {
    /// Owning rule's name.
    pub rule: String,
    /// Instantiation key repr (empty for a whole-set SOI).
    pub key: String,
    /// SOI change version.
    pub version: u64,
    /// OPS5 specificity.
    pub specificity: u64,
    /// Supporting time tags, one row per tuple match.
    pub rows: Vec<Vec<u64>>,
    /// LHS aggregate values, pre-rendered and space-joined.
    pub aggregates: String,
}

/// One rule's static context as recorded in `rules.txt`.
#[derive(Clone, Debug)]
pub struct BundleRule {
    /// Rule name.
    pub name: String,
    /// Match-network path (empty when the backend has no network).
    pub path: Vec<String>,
    /// Condition elements in source order: `(negated, class)`.
    pub conds: Vec<(bool, String)>,
}

/// A loaded crash bundle: everything `sorete debug` works from.
#[derive(Clone, Debug)]
pub struct CrashBundle {
    /// The bundle directory.
    pub dir: PathBuf,
    /// `MANIFEST` key=value pairs (magic line excluded), in file order.
    pub manifest: Vec<(String, String)>,
    /// Decoded flight event ring, oldest first.
    pub events: Vec<TraceEvent>,
    /// Decoded flight span ring.
    pub spans: Vec<Span>,
    /// Decoded per-cycle records, oldest first.
    pub cycles: Vec<CycleRecord>,
    /// The conflict set at dump time.
    pub conflict: Vec<BundleConflictItem>,
    /// Working memory at dump time: tag → rendered WME.
    pub wm: FxHashMap<u64, String>,
    /// Loaded rules with network paths and condition classes.
    pub rules: Vec<BundleRule>,
}

fn read(dir: &Path, name: &str) -> Result<Vec<u8>, String> {
    std::fs::read(dir.join(name)).map_err(|e| format!("{}: {}", name, e))
}

fn read_text(dir: &Path, name: &str) -> Result<String, String> {
    String::from_utf8(read(dir, name)?).map_err(|e| format!("{}: not UTF-8: {}", name, e))
}

impl CrashBundle {
    /// Load and fully decode a bundle directory. Errors name the first
    /// malformed file, so this doubles as `sorete fsck`'s validator.
    pub fn load(dir: &Path) -> Result<CrashBundle, String> {
        let manifest_text = read_text(dir, "MANIFEST")?;
        let mut lines = manifest_text.lines();
        match lines.next() {
            Some(l) if l == MAGIC => {}
            Some(l) => {
                return Err(format!(
                    "MANIFEST: unsupported format `{}` (expected `{}`)",
                    l, MAGIC
                ))
            }
            None => return Err("MANIFEST: empty".to_string()),
        }
        let mut manifest = Vec::new();
        for l in lines {
            if l.trim().is_empty() {
                continue;
            }
            let (k, v) = l
                .split_once('=')
                .ok_or_else(|| format!("MANIFEST: malformed line `{}`", l))?;
            manifest.push((k.to_string(), v.to_string()));
        }
        for key in ["stop", "cycle", "generation", "matcher"] {
            if !manifest.iter().any(|(k, _)| k == key) {
                return Err(format!("MANIFEST: missing `{}` key", key));
            }
        }

        let events =
            decode_events(&read(dir, "events.bin")?).map_err(|e| format!("events.bin: {}", e))?;
        let spans =
            decode_spans(&read(dir, "spans.bin")?).map_err(|e| format!("spans.bin: {}", e))?;
        let cycles =
            decode_cycles(&read(dir, "cycles.bin")?).map_err(|e| format!("cycles.bin: {}", e))?;

        let mut conflict = Vec::new();
        for (i, l) in read_text(dir, "conflict.tsv")?.lines().enumerate().skip(1) {
            let f: Vec<&str> = l.splitn(6, '\t').collect();
            if f.len() != 6 {
                return Err(format!("conflict.tsv:{}: expected 6 fields", i + 1));
            }
            let parse = |s: &str, what: &str| -> Result<u64, String> {
                s.parse()
                    .map_err(|_| format!("conflict.tsv:{}: bad {} `{}`", i + 1, what, s))
            };
            let mut rows = Vec::new();
            for row in f[4].split(';').filter(|r| !r.is_empty()) {
                let mut tags = Vec::new();
                for t in row.split(',').filter(|t| !t.is_empty()) {
                    tags.push(parse(t, "tag")?);
                }
                rows.push(tags);
            }
            conflict.push(BundleConflictItem {
                rule: f[0].to_string(),
                key: f[1].to_string(),
                version: parse(f[2], "version")?,
                specificity: parse(f[3], "specificity")?,
                rows,
                aggregates: f[5].to_string(),
            });
        }

        let mut wm = FxHashMap::default();
        for (i, l) in read_text(dir, "wm.tsv")?.lines().enumerate().skip(1) {
            let (tag, rendered) = l
                .split_once('\t')
                .ok_or_else(|| format!("wm.tsv:{}: expected 2 fields", i + 1))?;
            let tag: u64 = tag
                .parse()
                .map_err(|_| format!("wm.tsv:{}: bad tag `{}`", i + 1, tag))?;
            wm.insert(tag, rendered.to_string());
        }

        let mut rules = Vec::new();
        let mut current: Option<BundleRule> = None;
        for (i, l) in read_text(dir, "rules.txt")?.lines().enumerate() {
            let err = |msg: &str| format!("rules.txt:{}: {}", i + 1, msg);
            if let Some(name) = l.strip_prefix("rule ") {
                if current.is_some() {
                    return Err(err("nested rule block"));
                }
                current = Some(BundleRule {
                    name: name.to_string(),
                    path: Vec::new(),
                    conds: Vec::new(),
                });
            } else if let Some(step) = l.strip_prefix("path ") {
                current
                    .as_mut()
                    .ok_or_else(|| err("path outside rule block"))?
                    .path
                    .push(step.to_string());
            } else if let Some(c) = l.strip_prefix("cond ") {
                let (sign, class) = c
                    .split_once(' ')
                    .ok_or_else(|| err("malformed cond line"))?;
                let negated = match sign {
                    "+" => false,
                    "-" => true,
                    _ => return Err(err("cond sign must be + or -")),
                };
                current
                    .as_mut()
                    .ok_or_else(|| err("cond outside rule block"))?
                    .conds
                    .push((negated, class.to_string()));
            } else if l == "end" {
                rules.push(
                    current
                        .take()
                        .ok_or_else(|| err("end outside rule block"))?,
                );
            } else if !l.trim().is_empty() {
                return Err(err("unrecognised line"));
            }
        }
        if current.is_some() {
            return Err("rules.txt: unterminated rule block".to_string());
        }

        Ok(CrashBundle {
            dir: dir.to_path_buf(),
            manifest,
            events,
            spans,
            cycles,
            conflict,
            wm,
            rules,
        })
    }

    /// A manifest value by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.manifest
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// One-line validation summary for `sorete fsck` (the act of loading
    /// already proved every file decodes).
    pub fn validate_summary(&self) -> String {
        format!(
            "crash bundle OK: stop={} cycle={} gen={} matcher={}; \
             {} event(s) ({} evicted), {} span(s), {} cycle record(s), \
             {} conflict entr(ies), {} WME(s), {} rule(s)",
            self.get("stop").unwrap_or("?"),
            self.get("cycle").unwrap_or("?"),
            self.get("generation").unwrap_or("?"),
            self.get("matcher").unwrap_or("?"),
            self.events.len(),
            self.get("evicted").unwrap_or("0"),
            self.spans.len(),
            self.cycles.len(),
            self.conflict.len(),
            self.wm.len(),
            self.rules.len(),
        )
    }

    /// The recorded rule context by name.
    pub fn rule(&self, name: &str) -> Option<&BundleRule> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// `sorete debug <bundle> timeline`: header, then one line per
    /// recorded recognise–act cycle, oldest first.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bundle {} — stop={} matcher={} cycle={}",
            self.dir.display(),
            self.get("stop").unwrap_or("?"),
            self.get("matcher").unwrap_or("?"),
            self.get("cycle").unwrap_or("?"),
        );
        if self.cycles.is_empty() {
            let _ = writeln!(out, "(no cycle records — the run never fired)");
            return out;
        }
        let evicted: u64 = self
            .get("evicted")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if evicted > 0 {
            let _ = writeln!(out, "(ring overwrote {} older record(s))", evicted);
        }
        let _ = writeln!(
            out,
            "{:>8}  {:<24} {:>3}  {:>8}  {:>8}  {:>8}  {:>12}",
            "cycle", "rule", "ok", "firings", "wm", "cs", "nanos"
        );
        for c in &self.cycles {
            let _ = writeln!(
                out,
                "{:>8}  {:<24} {:>3}  {:>8}  {:>8}  {:>8}  {:>12}",
                c.cycle,
                c.rule.as_str(),
                if c.ok { "ok" } else { "ERR" },
                c.firings,
                c.wm_len,
                c.cs_len,
                c.nanos
            );
        }
        out
    }

    /// `sorete debug <bundle> rules`: per-rule aggregates over the
    /// captured history — firings, failures, cycle time, CS churn.
    pub fn render_rules(&self) -> String {
        #[derive(Default)]
        struct Agg {
            cycles: u64,
            failed: u64,
            nanos: u64,
            inserts: u64,
            removes: u64,
            retimes: u64,
        }
        fn slot<'a>(by_rule: &'a mut Vec<(String, Agg)>, name: &str) -> &'a mut Agg {
            let i = match by_rule.iter().position(|(n, _)| n == name) {
                Some(i) => i,
                None => {
                    by_rule.push((name.to_string(), Agg::default()));
                    by_rule.len() - 1
                }
            };
            &mut by_rule[i].1
        }
        let mut by_rule: Vec<(String, Agg)> = Vec::new();
        for c in &self.cycles {
            let a = slot(&mut by_rule, c.rule.as_str());
            a.cycles += 1;
            if !c.ok {
                a.failed += 1;
            }
            a.nanos += c.nanos;
        }
        for ev in &self.events {
            match ev {
                TraceEvent::CsInsert { rule, .. } => slot(&mut by_rule, rule.as_str()).inserts += 1,
                TraceEvent::CsRemove { rule, .. } => slot(&mut by_rule, rule.as_str()).removes += 1,
                TraceEvent::CsRetime { rule, .. } => slot(&mut by_rule, rule.as_str()).retimes += 1,
                _ => {}
            }
        }
        by_rule.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then(a.0.cmp(&b.0)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>7} {:>7} {:>12} {:>8} {:>8} {:>8}",
            "rule", "cycles", "failed", "nanos", "cs+", "cs-", "retime"
        );
        for (name, a) in &by_rule {
            let _ = writeln!(
                out,
                "{:<24} {:>7} {:>7} {:>12} {:>8} {:>8} {:>8}",
                name, a.cycles, a.failed, a.nanos, a.inserts, a.removes, a.retimes
            );
        }
        if by_rule.is_empty() {
            let _ = writeln!(out, "(no per-rule history in the ring)");
        }
        out
    }

    /// `sorete debug <bundle> perfetto`: re-emit the captured spans as a
    /// Perfetto/Chrome trace-event JSON document.
    pub fn render_perfetto(&self) -> String {
        render_perfetto(&self.spans)
    }
}

/// True when `dir` looks like a crash bundle (for `sorete fsck` dispatch).
pub fn is_bundle_dir(dir: &Path) -> bool {
    dir.is_dir() && dir.join("MANIFEST").exists()
}

impl ProductionSystem {
    /// Validate `dir` as a crash bundle and return a one-line summary
    /// (`sorete fsck` on a bundle directory).
    pub fn fsck_bundle(dir: &Path) -> Result<String, CoreError> {
        let b = CrashBundle::load(dir).map_err(CoreError::Durability)?;
        Ok(b.validate_summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sorete-bundle-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A directory that `is_bundle_dir` accepts, with a controllable age.
    fn fake_bundle(base: &Path, name: &str, age_secs: u64) -> PathBuf {
        let dir = base.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("MANIFEST"), MAGIC).unwrap();
        // Backdate via the only std-level knob: re-create with an mtime
        // ordered by creation. Creation order alone is not reliable at
        // filesystem timestamp granularity, so spread the ages with an
        // explicit File::set_times when available; fall back to sleeping
        // one timestamp tick.
        let f = std::fs::File::open(&dir).unwrap();
        let t = std::time::SystemTime::now() - std::time::Duration::from_secs(age_secs);
        let _ = f.set_times(std::fs::FileTimes::new().set_modified(t));
        dir
    }

    #[test]
    fn prune_removes_oldest_first() {
        let base = temp_dir("prune");
        let oldest = fake_bundle(&base, "sorete-crash-0-1", 300);
        let middle = fake_bundle(&base, "sorete-crash-0-2", 200);
        let newest = fake_bundle(&base, "sorete-crash-0-3", 100);
        // A same-prefix directory that is NOT a bundle must be spared.
        let decoy = base.join("sorete-crash-notes");
        std::fs::create_dir_all(&decoy).unwrap();

        let removed = prune(&base, 2);
        assert_eq!(removed, vec![oldest.clone()], "oldest goes first");
        assert!(!oldest.exists());
        assert!(middle.exists() && newest.exists() && decoy.exists());

        let removed = prune(&base, 1);
        assert_eq!(removed, vec![middle]);
        assert!(newest.exists());

        // At or under the cap: nothing to do.
        assert!(prune(&base, 1).is_empty());
        assert!(newest.exists());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn prune_zero_keeps_everything() {
        let base = temp_dir("prune-zero");
        let b = fake_bundle(&base, "sorete-crash-0-1", 100);
        assert!(prune(&base, 0).is_empty());
        assert!(b.exists());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn prune_ties_break_by_name() {
        let base = temp_dir("prune-ties");
        // Identical mtimes: the collision suffixes decide, `.2` after the
        // stem, so the stem (the earlier crash) is pruned first.
        let stem = fake_bundle(&base, "sorete-crash-0-7", 100);
        let later = fake_bundle(&base, "sorete-crash-0-7.2", 100);
        let f = std::fs::File::open(&stem).unwrap();
        let meta = std::fs::metadata(&later).unwrap();
        let _ = f.set_times(std::fs::FileTimes::new().set_modified(meta.modified().unwrap()));
        let removed = prune(&base, 1);
        assert_eq!(removed, vec![stem]);
        assert!(later.exists());
        let _ = std::fs::remove_dir_all(&base);
    }
}
