//! `explain <rule>` and `why-not <rule>`: reconstruct why a rule's
//! conflict-set instantiations exist — or why none do.
//!
//! Both commands render from an [`ExplainSource`], a matcher-independent
//! snapshot of everything the explanation needs: the rule's conflict-set
//! entries, its network path, its condition classes, the WME store, and
//! the event history. A source can be built from a **live engine**
//! (`explain` in the REPL, `--explain`, the daemon's `explain` op) or
//! from a **crash bundle** (`sorete debug <bundle> explain <rule>`). Both
//! take their history from the flight recorder's event ring — live reads
//! the ring, a bundle its drained `events.bin` — and the rendering is
//! shared, so the offline inspector's output matches the live engine's
//! byte for byte over the same state. History is the ring's window: once
//! the ring wraps, older asserts and firings are gone from both.

use crate::bundle::CrashBundle;
use crate::engine::ProductionSystem;
use crate::error::CoreError;
use sorete_base::{FxHashMap, TraceEvent};
use std::fmt::Write as _;

/// One conflict-set entry, reduced to what the renderers need.
#[derive(Clone, Debug)]
pub struct ExplainItem {
    /// Instantiation key repr (empty for a whole-set SOI).
    pub key: String,
    /// Supporting time tags, one row per tuple match.
    pub rows: Vec<Vec<u64>>,
    /// Rendered aggregate values, space-joined (empty = none).
    pub aggregates: String,
}

/// Everything `explain`/`why-not` render from, decoupled from where it
/// came from (live engine or crash bundle).
#[derive(Clone, Debug)]
pub struct ExplainSource {
    /// The rule under explanation.
    pub rule: String,
    /// Match algorithm name (for the network-path header).
    pub matcher: String,
    /// The rule's static network path, when the backend has a network.
    pub path: Option<Vec<String>>,
    /// The rule's conflict-set entries, sorted by key.
    pub items: Vec<ExplainItem>,
    /// Event history: the flight ring, live or drained into a bundle.
    pub events: Vec<TraceEvent>,
    /// Tag → rendered WME for every live WME the renderers may reference.
    pub wmes: FxHashMap<u64, String>,
    /// The rule's condition elements in source order: `(negated, class)`.
    pub conds: Vec<(bool, String)>,
    /// Live WME count per class (alpha-level candidates for `why-not`).
    pub class_counts: FxHashMap<String, u64>,
}

/// Render the `explain` report (see module docs; the output format is
/// stable — tests diff it between live and bundle sources).
pub fn render_explain(src: &ExplainSource) -> String {
    let mut asserted: FxHashMap<u64, u64> = FxHashMap::default();
    let mut fire_cycles: Vec<u64> = Vec::new();
    let (mut inserts, mut removes, mut retimes) = (0u64, 0u64, 0u64);
    for ev in &src.events {
        match ev {
            TraceEvent::WmeAssert { cycle, tag, .. } => {
                asserted.insert(tag.raw(), *cycle);
            }
            TraceEvent::Fire { cycle, rule, .. } if rule.as_str() == src.rule => {
                fire_cycles.push(*cycle);
            }
            TraceEvent::CsInsert { rule, .. } if rule.as_str() == src.rule => inserts += 1,
            TraceEvent::CsRemove { rule, .. } if rule.as_str() == src.rule => removes += 1,
            TraceEvent::CsRetime { rule, .. } if rule.as_str() == src.rule => retimes += 1,
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "explain {} — {} instantiation(s) in the conflict set",
        src.rule,
        src.items.len()
    );

    if let Some(path) = &src.path {
        let _ = writeln!(out, "network path ({}):", src.matcher);
        for step in path {
            let _ = writeln!(out, "  {}", step);
        }
    }

    for (i, item) in src.items.iter().enumerate() {
        let _ = writeln!(
            out,
            "[{}] key: {}",
            i + 1,
            // An SOI with no :scalar clause groups the whole match set
            // under one (empty) key.
            if item.key.is_empty() {
                "(whole set)"
            } else {
                &item.key
            }
        );
        if !item.aggregates.is_empty() {
            let _ = writeln!(out, "    aggregates: {}", item.aggregates);
        }
        for row in &item.rows {
            for &tag in row {
                let wme = match src.wmes.get(&tag) {
                    Some(w) => w.as_str(),
                    None => "(retracted)",
                };
                match asserted.get(&tag) {
                    Some(c) => {
                        let _ = writeln!(out, "    {}: {}  [asserted cycle {}]", tag, wme, c);
                    }
                    None => {
                        let _ = writeln!(out, "    {}: {}", tag, wme);
                    }
                }
            }
        }
    }

    if src.events.is_empty() {
        let _ = writeln!(
            out,
            "(no history — the flight recorder holds no events, so assert cycles \
             and firings are not shown)"
        );
    } else {
        let _ = writeln!(
            out,
            "history: {} cs insert(s), {} remove(s), {} retime(s); fired {} time(s){}",
            inserts,
            removes,
            retimes,
            fire_cycles.len(),
            if fire_cycles.is_empty() {
                String::new()
            } else {
                let cs: Vec<String> = fire_cycles.iter().map(|c| c.to_string()).collect();
                format!(" (cycle {})", cs.join(", "))
            }
        );
    }
    out
}

/// Render the `why-not` report: why a rule has no (or only stale)
/// instantiations — which condition stopped it, from the captured history.
pub fn render_why_not(src: &ExplainSource) -> String {
    let mut out = String::new();
    if !src.items.is_empty() {
        let _ = writeln!(
            out,
            "why-not {} — {} instantiation(s) ARE in the conflict set; \
             the rule can fire (see `explain {}`)",
            src.rule,
            src.items.len(),
            src.rule
        );
        return out;
    }
    let _ = writeln!(
        out,
        "why-not {} — no instantiations in the conflict set",
        src.rule
    );
    let _ = writeln!(out, "conditions:");
    for (i, (negated, class)) in src.conds.iter().enumerate() {
        let n = src.class_counts.get(class).copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "  [{}] {} {}: {} candidate WME(s) of this class",
            i + 1,
            if *negated { "-" } else { "+" },
            class,
            n
        );
    }

    // Rendered WMEs by tag, from assert history (covers retracted tags
    // the live WM store no longer holds).
    let mut known: FxHashMap<u64, &str> = FxHashMap::default();
    for ev in &src.events {
        if let TraceEvent::WmeAssert { tag, wme, .. } = ev {
            known.insert(tag.raw(), wme.as_str());
        }
    }

    // Position (newest) of this rule's last CsRemove, if any.
    let last_remove = src.events.iter().rposition(
        |ev| matches!(ev, TraceEvent::CsRemove { rule, .. } if rule.as_str() == src.rule),
    );

    if let Some(at) = last_remove {
        // Lost match: walk back from the remove to the retraction that
        // caused it, then map the retracted class to a condition.
        let retract = src.events[..at].iter().rev().find_map(|ev| match ev {
            TraceEvent::WmeRetract { cycle, tag } => Some((*cycle, tag.raw())),
            _ => None,
        });
        match retract {
            Some((cycle, tag)) => {
                let wme = known.get(&tag).copied().unwrap_or("(unknown)");
                let class = wme_class(wme);
                let cond = src
                    .conds
                    .iter()
                    .position(|(neg, c)| !neg && c == class)
                    .map(|i| i + 1);
                match cond {
                    Some(i) => {
                        let _ = writeln!(
                            out,
                            "verdict: lost match — the last instantiation left the conflict \
                             set after {}: {} was retracted (cycle {}); condition [{}] ({}) \
                             lost its join support",
                            tag, wme, cycle, i, class
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "verdict: lost match — the last instantiation left the conflict \
                             set after {}: {} was retracted (cycle {})",
                            tag, wme, cycle
                        );
                    }
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "verdict: lost match — the last instantiation left the conflict set, \
                     but no retraction survives in the captured history window"
                );
            }
        }
    } else {
        // Never matched (in the captured window): find the first positive
        // condition with no alpha-level candidates; if every class has
        // candidates, the join chain itself never closed.
        let missing = src.conds.iter().enumerate().find(|(_, (neg, class))| {
            !neg && src.class_counts.get(class).copied().unwrap_or(0) == 0
        });
        match missing {
            Some((i, (_, class))) => {
                let _ = writeln!(
                    out,
                    "verdict: never matched — condition [{}] ({}) has no WMEs of its \
                     class in working memory",
                    i + 1,
                    class
                );
            }
            None => {
                let last_pos = src.conds.iter().rposition(|(neg, _)| !neg);
                match last_pos {
                    Some(i) => {
                        let _ = writeln!(
                            out,
                            "verdict: never matched — every positive condition has candidate \
                             WMEs of its class, but the joins never produced a full row; the \
                             match stops at or before condition [{}] ({})",
                            i + 1,
                            src.conds[i].1
                        );
                    }
                    None => {
                        let _ = writeln!(out, "verdict: the rule has no positive conditions");
                    }
                }
            }
        }
    }

    for (i, (negated, class)) in src.conds.iter().enumerate() {
        let n = src.class_counts.get(class).copied().unwrap_or(0);
        if *negated && n > 0 {
            let _ = writeln!(
                out,
                "note: negated condition [{}] ({}) has {} live WME(s) of that class — \
                 any one satisfying its tests blocks the rule",
                i + 1,
                class,
                n
            );
        }
    }
    out
}

/// Class name of a rendered WME `(class ^attr v …)`.
fn wme_class(rendered: &str) -> &str {
    let s = rendered.strip_prefix('(').unwrap_or(rendered);
    s.split([' ', ')']).next().unwrap_or(s)
}

impl ProductionSystem {
    fn explain_source(&self, name: &str) -> Result<ExplainSource, CoreError> {
        let id = self
            .rule_id(name)
            .ok_or_else(|| CoreError::Rhs(format!("no rule named `{}` to explain", name)))?;
        let mut items: Vec<_> = self
            .conflict_items()
            .into_iter()
            .filter(|item| item.key.rule() == id)
            .collect();
        items.sort_by_key(|item| item.key.repr());
        let mut wmes: FxHashMap<u64, String> = FxHashMap::default();
        let items = items
            .into_iter()
            .map(|item| {
                for row in &item.rows {
                    for &t in row.iter() {
                        if let Some(w) = self.wm().get(t) {
                            wmes.entry(t.raw()).or_insert_with(|| w.render());
                        }
                    }
                }
                let aggs: Vec<String> = item.aggregates.iter().map(|v| v.to_string()).collect();
                ExplainItem {
                    key: item.key.repr(),
                    rows: item
                        .rows
                        .iter()
                        .map(|r| r.iter().map(|t| t.raw()).collect())
                        .collect(),
                    aggregates: aggs.join(" "),
                }
            })
            .collect();
        let conds = self
            .rule(name)
            .map(|ar| {
                ar.ces
                    .iter()
                    .map(|ce| (ce.negated, ce.class.to_string()))
                    .collect()
            })
            .unwrap_or_default();
        let mut class_counts: FxHashMap<String, u64> = FxHashMap::default();
        for w in self.wm().iter() {
            *class_counts.entry(w.class.to_string()).or_insert(0) += 1;
        }
        Ok(ExplainSource {
            rule: name.to_string(),
            matcher: self.matcher_name().to_string(),
            path: self.rule_network_path(name),
            items,
            events: self.flight().events(),
            wmes,
            conds,
            class_counts,
        })
    }

    /// Explain a rule's current conflict-set entries. Errors when the rule
    /// is unknown (excised rules count as unknown: nothing left to explain).
    pub fn explain(&self, name: &str) -> Result<String, CoreError> {
        Ok(render_explain(&self.explain_source(name)?))
    }

    /// Explain why a rule has **no** conflict-set entries: which condition
    /// has no candidates, or which retraction broke the last match.
    pub fn why_not(&self, name: &str) -> Result<String, CoreError> {
        Ok(render_why_not(&self.explain_source(name)?))
    }
}

impl CrashBundle {
    fn explain_source(&self, name: &str) -> Result<ExplainSource, CoreError> {
        let rule = self
            .rule(name)
            .ok_or_else(|| CoreError::Rhs(format!("no rule named `{}` in this bundle", name)))?;
        let mut items: Vec<_> = self.conflict.iter().filter(|i| i.rule == name).collect();
        items.sort_by(|a, b| a.key.cmp(&b.key));
        let items = items
            .into_iter()
            .map(|i| ExplainItem {
                key: i.key.clone(),
                rows: i.rows.clone(),
                aggregates: i.aggregates.clone(),
            })
            .collect();
        let mut class_counts: FxHashMap<String, u64> = FxHashMap::default();
        for rendered in self.wm.values() {
            *class_counts
                .entry(wme_class(rendered).to_string())
                .or_insert(0) += 1;
        }
        Ok(ExplainSource {
            rule: name.to_string(),
            matcher: self.get("matcher").unwrap_or("?").to_string(),
            path: (!rule.path.is_empty()).then(|| rule.path.clone()),
            items,
            events: self.events.clone(),
            wmes: self.wm.clone(),
            conds: rule.conds.clone(),
            class_counts,
        })
    }

    /// Offline `explain` from the bundle's captured state — same renderer
    /// (and output) as [`ProductionSystem::explain`] over the live engine.
    pub fn explain(&self, name: &str) -> Result<String, CoreError> {
        Ok(render_explain(&self.explain_source(name)?))
    }

    /// Offline `why-not` from the bundle's captured state.
    pub fn why_not(&self, name: &str) -> Result<String, CoreError> {
        Ok(render_why_not(&self.explain_source(name)?))
    }
}

#[cfg(test)]
mod tests {
    use crate::{MatcherKind, ProductionSystem};
    use sorete_base::Value;

    fn engine(kind: MatcherKind) -> ProductionSystem {
        let mut ps = ProductionSystem::new(kind);
        ps.load_program(
            "(literalize player name team)
             (p compete (player ^name <n1> ^team A) (player ^name <n2> ^team B)
               (write <n1> vs <n2>))",
        )
        .unwrap();
        ps
    }

    #[test]
    fn explain_lists_supporting_wmes_and_path() {
        let mut ps = engine(MatcherKind::Rete);
        ps.make_str(
            "player",
            &[("name", Value::sym("Jack")), ("team", Value::sym("A"))],
        )
        .unwrap();
        ps.make_str(
            "player",
            &[("name", Value::sym("Sue")), ("team", Value::sym("B"))],
        )
        .unwrap();
        let text = ps.explain("compete").unwrap();
        assert!(text.contains("1 instantiation(s)"), "{}", text);
        assert!(text.contains("network path (rete):"), "{}", text);
        assert!(text.contains("production compete"), "{}", text);
        assert!(text.contains("^name Jack"), "{}", text);
        assert!(text.contains("^name Sue"), "{}", text);
        assert!(text.contains("[asserted cycle 0]"), "{}", text);
        ps.run(None);
        let text = ps.explain("compete").unwrap();
        assert!(text.contains("fired 1 time(s) (cycle 1)"), "{}", text);
    }

    #[test]
    fn explain_without_event_log_still_shows_state() {
        let mut ps = engine(MatcherKind::Treat);
        ps.set_flight_recorder(0);
        ps.make_str(
            "player",
            &[("name", Value::sym("Jack")), ("team", Value::sym("A"))],
        )
        .unwrap();
        ps.make_str(
            "player",
            &[("name", Value::sym("Sue")), ("team", Value::sym("B"))],
        )
        .unwrap();
        let text = ps.explain("compete").unwrap();
        assert!(text.contains("1 instantiation(s)"), "{}", text);
        assert!(text.contains("flight recorder holds no events"), "{}", text);
        assert!(!text.contains("history:"), "{}", text);
        // TREAT has no network to describe.
        assert!(!text.contains("network path"), "{}", text);
    }

    #[test]
    fn explain_unknown_rule_errors() {
        let ps = engine(MatcherKind::Rete);
        assert!(ps.explain("nope").is_err());
        assert!(ps.why_not("nope").is_err());
    }

    #[test]
    fn why_not_reports_missing_class() {
        let ps = engine(MatcherKind::Rete);
        let text = ps.why_not("compete").unwrap();
        assert!(text.contains("no instantiations"), "{}", text);
        assert!(
            text.contains("condition [1] (player) has no WMEs"),
            "{}",
            text
        );
    }

    #[test]
    fn why_not_reports_join_stop_when_classes_have_candidates() {
        let mut ps = engine(MatcherKind::Rete);
        // Two A-team players: condition classes are populated but the
        // B-team join never closes.
        for n in ["Jack", "Janice"] {
            ps.make_str(
                "player",
                &[("name", Value::sym(n)), ("team", Value::sym("A"))],
            )
            .unwrap();
        }
        let text = ps.why_not("compete").unwrap();
        assert!(text.contains("joins never produced a full row"), "{}", text);
        assert!(text.contains("condition [2] (player)"), "{}", text);
    }

    #[test]
    fn why_not_reports_lost_match_after_retraction() {
        let mut ps = engine(MatcherKind::Rete);
        ps.make_str(
            "player",
            &[("name", Value::sym("Jack")), ("team", Value::sym("A"))],
        )
        .unwrap();
        let sue = ps
            .make_str(
                "player",
                &[("name", Value::sym("Sue")), ("team", Value::sym("B"))],
            )
            .unwrap();
        ps.retract_wme(sue).unwrap();
        let text = ps.why_not("compete").unwrap();
        assert!(text.contains("lost match"), "{}", text);
        assert!(text.contains("^name Sue"), "{}", text);
        assert!(text.contains("was retracted"), "{}", text);
    }

    #[test]
    fn why_not_when_rule_can_fire_points_at_explain() {
        let mut ps = engine(MatcherKind::Rete);
        ps.make_str(
            "player",
            &[("name", Value::sym("Jack")), ("team", Value::sym("A"))],
        )
        .unwrap();
        ps.make_str(
            "player",
            &[("name", Value::sym("Sue")), ("team", Value::sym("B"))],
        )
        .unwrap();
        let text = ps.why_not("compete").unwrap();
        assert!(text.contains("ARE in the conflict set"), "{}", text);
    }
}
