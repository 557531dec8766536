//! The output check every invocation ends with: the matcher's derived
//! state is consistent, the workload's invariants hold on the final
//! working memory, and a small replica of the run gives the same conflict
//! sets under the naive oracle as under Rete.

use sorete_base::{Symbol, Value, Wme};
use sorete_core::{MatcherKind, ProductionSystem};
use sorete_server::conflict_lines;

use crate::measure::{Config, Live, TempRoot};
use crate::target::{LibTarget, ServeTarget, Target};
use crate::trace::Tracer;
use crate::workload::{Generator, Sizes, Workload};

/// Rounds the replicas run.
const REPLICA_ROUNDS: usize = 3;

fn render(w: &Wme) -> String {
    let mut s = w.class.as_str().to_string();
    for (a, v) in w.slots() {
        s.push_str(&format!(" ^{} {}", a, v));
    }
    s
}

/// WM contents without time tags, sorted.
fn wm_modulo_tags(ps: &ProductionSystem) -> Vec<String> {
    let mut v: Vec<String> = ps.wm().iter().map(render).collect();
    v.sort();
    v
}

/// WM contents with time tags, in tag order.
fn wm_with_tags(ps: &ProductionSystem) -> Vec<String> {
    ps.wm()
        .dump()
        .into_iter()
        .map(|w| format!("{} {}", w.tag.raw(), render(w)))
        .collect()
}

/// `serve_durable`: the session recovered from the snapshot must be
/// byte-identical to the live one it was copied from.
pub fn recovered_matches_live(t: &ServeTarget, recovered: &ProductionSystem) -> Result<(), String> {
    t.with_session(|live| {
        if conflict_lines(&live.ps) != conflict_lines(recovered) {
            return Err("recovered conflict set differs from the live session's".into());
        }
        if wm_with_tags(&live.ps) != wm_with_tags(recovered) {
            return Err("recovered working memory differs from the live session's".into());
        }
        Ok(())
    })
}

fn count_class(ps: &ProductionSystem, class: &str) -> usize {
    let class = Symbol::new(class);
    ps.wm().iter().filter(|w| w.class == class).count()
}

fn invariants(w: Workload, ps: &ProductionSystem, sizes: Sizes) -> Result<(), String> {
    ps.validate_matcher()
        .map_err(|e| format!("validate_matcher: {}", e))?;
    match w {
        Workload::JoinChurn => {
            let (id, order) = (Symbol::new("id"), Symbol::new("order"));
            let mut live_orders = sorete_base::FxHashSet::default();
            for o in ps.wm().iter().filter(|x| x.class == order) {
                live_orders.insert(o.get(id));
            }
            let mut shipped = sorete_base::FxHashSet::default();
            for s in ps.wm().iter().filter(|x| x.class.as_str() == "shipment") {
                let o = s.get(order);
                if !live_orders.contains(&o) {
                    return Err(format!("shipment for order {} outlived it", o));
                }
                if !shipped.insert(o) {
                    return Err(format!("order {} has two shipments", o));
                }
            }
        }
        Workload::FireTuple | Workload::CollectSet => {
            // Every batch was swept and then retracted: the resident items
            // are all that is left, all done.
            let s = Symbol::new("s");
            let done = ps
                .wm()
                .iter()
                .filter(|x| x.get(s) == Value::sym("done"))
                .count();
            if done != sizes.resident || ps.wm().len() != sizes.resident {
                return Err(format!(
                    "expected {} done items and nothing else, found {} in a WM of {}",
                    sizes.resident,
                    done,
                    ps.wm().len()
                ));
            }
        }
        Workload::ServeDurable => {
            // Every fact acknowledged and not since removed by a rule or a
            // retract request: the sensors.
            let sensors = count_class(ps, "sensor");
            if sensors != sizes.resident || count_class(ps, "mute") != 0 {
                return Err(format!(
                    "expected {} sensors and no mutes, found {} and {}",
                    sizes.resident,
                    sensors,
                    count_class(ps, "mute")
                ));
            }
        }
    }
    Ok(())
}

/// Run `REPLICA_ROUNDS` rounds of `w` through the library at replica size
/// (the naive oracle recomputes every join on every WM change); returns
/// the conflict-set lines seen at each query and the final WM modulo tags.
fn replica(
    w: Workload,
    kind: MatcherKind,
    cfg: &Config,
    root: &TempRoot,
) -> Result<(Vec<Vec<String>>, Vec<String>), String> {
    let mut gen = Generator::new(w, cfg.seed, Sizes::of(w, cfg.scale).replica(w));
    let mut t = LibTarget::set_up(w, kind, 1, &mut gen, &root.sub("replica"))?;
    let mut tr = Tracer::new(false);
    let mut seen = Vec::new();
    for _ in 0..REPLICA_ROUNDS {
        t.ingest(gen.round(), &mut tr);
        seen.push(conflict_lines(&t.ps));
        t.run(&mut tr);
        t.plan_retract();
        t.retract(&mut tr);
    }
    if t.counts().failed > 0 {
        return Err(format!("{} replica operations failed", t.counts().failed));
    }
    Ok((seen, wm_modulo_tags(&t.ps)))
}

pub fn check(cfg: &Config, live: &mut Live, root: &TempRoot) -> Result<(), String> {
    let w = cfg.workload;
    let sizes = Sizes::of(w, cfg.scale);
    // The loop ends on a retract; let the rules react to it first.
    live.target().run(&mut Tracer::new(false));
    match live {
        Live::Lib(t) => invariants(w, &t.ps, sizes)?,
        Live::Serve(t) => t.with_session(|s| invariants(w, &s.ps, sizes))?,
    }

    let (rete_sets, rete_wm) = replica(w, MatcherKind::Rete, cfg, root)?;
    let (naive_sets, _) = replica(w, MatcherKind::Naive, cfg, root)?;
    if rete_sets != naive_sets {
        return Err("conflict sets differ between Rete and the naive oracle".into());
    }

    // The tuple-oriented and the set-oriented sweep must leave the same WM.
    let twin = match w {
        Workload::FireTuple => Some(Workload::CollectSet),
        Workload::CollectSet => Some(Workload::FireTuple),
        _ => None,
    };
    if let Some(twin) = twin {
        let (_, twin_wm) = replica(twin, MatcherKind::Rete, cfg, root)?;
        if twin_wm != rete_wm {
            return Err(format!(
                "{} and {} leave different working memories",
                w.name(),
                twin.name()
            ));
        }
    }
    Ok(())
}
