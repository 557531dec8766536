//! Concurrent firing over the database — the paper's §8 argument as an
//! executable experiment.
//!
//! Original DIPS "attempts to execute all satisfied instantiations
//! concurrently, relying on transaction semantics to block inconsistent
//! updates" — and suffers, because "instantiations frequently conflict. A
//! special case … is where multiple instantiations of a single rule
//! invalidate each other (e.g. try to remove the same WME)".
//!
//! [`parallel_cycle`] reproduces that execution model: every satisfied
//! instantiation (tuple mode) or SOI (set mode) becomes one optimistic
//! transaction over a relational `WM` table. All transactions are *built*
//! from the same snapshot, each reporting its read and write tag sets;
//! they then commit in canonical snapshot order — a firing aborts iff its
//! tag sets intersect an earlier committed firing's write set (first
//! committer wins), so outcomes never depend on build order.
//! Tuple-oriented runs show the conflict storm; set-oriented runs
//! collapse each group into a single transaction that cannot conflict
//! with itself. The cycle's committed WM effects reach the WAL as one
//! record under a single boundary marker (one fsync window), removals then
//! updates in tag order, so crash recovery replays the cycle atomically
//! and in canonical order.

use crate::cond::{DipsEngine, DipsInst, DipsMode, DipsSoi};
use crate::error::DipsError;
use sorete_base::flight::EventRef;
use sorete_base::{FxHashMap, FxHashSet, Rows, Symbol, TimeTag, TraceEvent, Value, Wme};
use sorete_lang::analyze::{AggTarget, AnalyzedRule};
use sorete_lang::ast::{Action, AggOp, Expr, RhsTarget};
use sorete_lang::eval::{eval_truthy, FnEnv};
use sorete_reldb::algebra::{aggregate, AggFun};
use sorete_reldb::{RowId, Schema, Transaction};

/// Outcome of one parallel firing cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// Transactions attempted (instantiations or SOIs).
    pub attempted: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Transactions aborted on conflict.
    pub aborted: usize,
    /// Write operations carried by committed transactions.
    pub writes_committed: usize,
    /// Aborts decided by the explicit read/write tag-set rule (the firing's
    /// tag sets intersected an earlier committed firing's write set) before
    /// its transaction ever reached the optimistic validator. Counted
    /// inside `aborted` as well.
    pub tag_conflicts: usize,
}

const WM_TABLE: &str = "WM";

/// Run one parallel firing cycle. Returns the report; working memory and
/// the COND tables reflect the committed transactions afterwards.
pub fn parallel_cycle(engine: &mut DipsEngine) -> Result<CycleReport, DipsError> {
    // WM effects of this cycle buffer in the WAL layer until the cycle
    // commits as one unit under a boundary marker. Refuses to start when
    // a previous cycle left memory ahead of the log (poisoned WAL).
    engine.wal_begin_cycle()?;
    let report = parallel_cycle_inner(engine);
    match &report {
        Ok(r) => engine.wal_commit_cycle(&format!(
            "attempted={} committed={} aborted={} writes={}",
            r.attempted, r.committed, r.aborted, r.writes_committed
        ))?,
        Err(_) => engine.wal_abort_cycle(),
    }
    report
}

fn parallel_cycle_inner(engine: &mut DipsEngine) -> Result<CycleReport, DipsError> {
    // 1. Snapshot the satisfied work under the current mode.
    let mut work: Vec<(usize, Rows)> = match engine.mode() {
        DipsMode::Tuple => engine
            .instantiations()
            .into_iter()
            .map(|DipsInst { rule, tags }| (rule, Rows::one(tags)))
            .collect(),
        DipsMode::Set => engine
            .sois()
            .into_iter()
            .map(|DipsSoi { rule, rows, .. }| (rule, rows.iter().collect()))
            .collect(),
    };
    work.retain(|(ri, rows)| passes_test(engine, *ri, rows));

    // 2. Materialize working memory as a relational table.
    let attrs = rhs_attrs(engine);
    let row_ids = build_wm_table(engine, &attrs)?;

    // 3. One optimistic transaction per unit of work. All transactions are
    //    *built* against the same initial snapshot, so they are concurrent
    //    in the transactional sense DIPS intends, but they run one after
    //    another on the calling thread: a build costs a few µs, less than
    //    a thread spawn. Each builder also reports its read and write tag
    //    sets, which decide conflicts in the commit phase below.
    type NewWmes = Vec<(Symbol, Vec<(Symbol, Value)>)>;
    type Built = (Transaction, NewWmes, Vec<TimeTag>, Vec<TimeTag>);
    let mut report = CycleReport {
        attempted: work.len(),
        ..Default::default()
    };
    let built: Result<Vec<Built>, DipsError> = {
        let engine_ref: &DipsEngine = engine;
        let build = |i: usize| {
            // Panic isolation per unit of work: a panicking builder becomes
            // one build error, which the path below handles like any
            // other build failure: the whole cycle is abandoned.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (ri, rows) = &work[i];
                let rule = engine_ref.rules()[*ri].clone();
                let mut tx = engine_ref.db.begin();
                let mut tx_new = Vec::new();
                let mut reads = Vec::new();
                let mut writes = Vec::new();
                build_tx(
                    engine_ref,
                    &rule,
                    rows,
                    &row_ids,
                    &attrs,
                    &mut tx,
                    &mut tx_new,
                    &mut reads,
                    &mut writes,
                )?;
                Ok((tx, tx_new, reads, writes))
            }))
            .unwrap_or_else(|payload| {
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "opaque panic payload".to_string()
                };
                Err(DipsError::Rhs(format!("builder panicked: {}", msg)))
            })
        };
        (0..work.len()).map(build).collect()
    };
    // Builds all run *before* anything commits: a cycle either commits
    // transactions or — on the first build error, which stops the build
    // phase — leaves the engine exactly as it was. Builds read the engine
    // and write only their own transactions, so dropping the scratch WM
    // table is all there is to undo.
    let pending = match built {
        Ok(pending) => pending,
        Err(e) => {
            drop_wm_table(engine)?;
            return Err(e);
        }
    };
    // Commit phase, in canonical work order (the deterministic snapshot
    // order from step 1).
    // Conflicts are decided by explicit tag sets: a firing aborts iff its
    // read/write tags intersect the write set of an earlier *committed*
    // firing (first committer wins, the rest serialize to a later cycle).
    // Writes target matched rows only, so this rule exactly predicts the
    // optimistic validator, which stays on as a backstop.
    let mut new_wmes: Vec<(Symbol, Vec<(Symbol, Value)>)> = Vec::new();
    let mut committed_writes: FxHashSet<TimeTag> = FxHashSet::default();
    for (i, (tx, tx_new, reads, writes)) in pending.into_iter().enumerate() {
        let (ri, rows) = &work[i];
        let rule = engine.rules()[*ri].name;
        let conflict = reads
            .iter()
            .chain(writes.iter())
            .any(|t| committed_writes.contains(t));
        if conflict {
            report.aborted += 1;
            report.tag_conflicts += 1;
            engine.tracer().emit(|| TraceEvent::Rollback {
                rule,
                error: "read/write tag-set conflict with an earlier firing".into(),
            });
            continue;
        }
        let write_count = tx.write_count();
        match engine.db.commit(tx) {
            Ok(()) => {
                report.committed += 1;
                report.writes_committed += write_count;
                committed_writes.extend(writes);
                new_wmes.extend(tx_new);
                engine.tracer().emit_ref(EventRef::Fire {
                    cycle: 0,
                    rule,
                    rows,
                });
            }
            Err(e) => {
                // Tag sets predicted a clean commit; the validator knows
                // better only if the model above ever grows a blind spot.
                debug_assert!(false, "validator abort not predicted by tag sets: {e}");
                report.aborted += 1;
                engine.tracer().emit(|| TraceEvent::Rollback {
                    rule,
                    error: e.to_string(),
                });
            }
        }
    }

    // 4. Mirror the WM table back into the engine; each removal, update
    //    and insert maintains the COND tables as it goes.
    mirror_back(engine, &attrs, &row_ids)?;
    for (class, slots) in new_wmes {
        let slots: Vec<(&str, Value)> = slots.iter().map(|(a, v)| (a.as_str(), *v)).collect();
        engine.insert(class.as_str(), &slots)?;
    }
    drop_wm_table(engine)?;
    Ok(report)
}

/// Evaluate a rule's `:test` over an instantiation group using batch
/// aggregates (the DIPS side has no incremental γ-memory).
fn passes_test(engine: &DipsEngine, ri: usize, rows: &Rows) -> bool {
    let rule = &engine.rules()[ri];
    if rule.tests.is_empty() {
        return true;
    }
    let aggs: Vec<Value> = rule
        .aggregates
        .iter()
        .map(|spec| {
            let (pos, attr) = match spec.target {
                AggTarget::Pv { pos_ce, attr, .. } => (pos_ce, Some(attr)),
                AggTarget::Ce { pos_ce, .. } => (pos_ce, None),
            };
            let mut tags: FxHashSet<TimeTag> = FxHashSet::default();
            let mut values: Vec<Value> = Vec::new();
            let mut distinct: FxHashSet<Value> = FxHashSet::default();
            for row in rows {
                if tags.insert(row[pos]) {
                    if let Some(a) = attr {
                        if let Some(w) = engine.wme(row[pos]) {
                            let v = w.get(a);
                            values.push(v);
                            distinct.insert(v);
                        }
                    }
                }
            }
            match (spec.op, spec.target) {
                (AggOp::Count, AggTarget::Ce { .. }) => Value::Int(tags.len() as i64),
                (AggOp::Count, AggTarget::Pv { .. }) => Value::Int(distinct.len() as i64),
                (AggOp::Sum, _) => aggregate(AggFun::Sum, &values),
                (AggOp::Avg, _) => aggregate(AggFun::Avg, &values),
                (AggOp::Min, _) => aggregate(AggFun::Min, &values),
                (AggOp::Max, _) => aggregate(AggFun::Max, &values),
            }
        })
        .collect();
    let head = &rows[0];
    let env = FnEnv {
        vars: |v: Symbol| {
            let src = rule.var_sources.get(&v)?;
            if src.set_oriented {
                return None;
            }
            engine.wme(head[src.pos_ce]).map(|w| w.get(src.attr))
        },
        aggs: |op: AggOp, var: Symbol| rule.agg_index(op, var).and_then(|i| aggs.get(i).copied()),
    };
    rule.tests
        .iter()
        .all(|t| eval_truthy(t, &env).unwrap_or(false))
}

/// Attributes the WM table needs: everything any rule reads or writes.
fn rhs_attrs(engine: &DipsEngine) -> Vec<Symbol> {
    let mut attrs: Vec<Symbol> = Vec::new();
    let mut push = |a: Symbol| {
        if !attrs.contains(&a) {
            attrs.push(a);
        }
    };
    for rule in engine.rules() {
        for ce in &rule.ces {
            for t in &ce.const_tests {
                push(t.attr);
            }
            for (a, _) in &ce.binds {
                push(*a);
            }
            for vj in &ce.var_joins {
                push(vj.attr);
                push(vj.other_attr);
            }
        }
        for action in &rule.rhs {
            match action {
                Action::Make { slots, .. }
                | Action::Modify { slots, .. }
                | Action::SetModify { slots, .. } => {
                    for (a, _) in slots {
                        push(*a);
                    }
                }
                _ => {}
            }
        }
    }
    attrs
}

fn build_wm_table(
    engine: &mut DipsEngine,
    attrs: &[Symbol],
) -> Result<FxHashMap<TimeTag, RowId>, DipsError> {
    drop_wm_table(engine)?;
    if engine.db.table_by_name(WM_TABLE).is_err() {
        let mut cols: Vec<String> = vec!["TAG".into(), "CLASS".into()];
        cols.extend(attrs.iter().map(|a| a.to_string()));
        let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
        engine
            .db
            .create_table(Schema::new(WM_TABLE, &col_refs))
            .map_err(|e| DipsError::Db(e.to_string()))?;
    }
    let mut ids = FxHashMap::default();
    let wmes: Vec<Wme> = engine.wmes().into_iter().cloned().collect();
    for wme in wmes {
        let mut row: Vec<Value> = vec![Value::Tag(wme.tag), Value::Sym(wme.class)];
        row.extend(attrs.iter().map(|a| wme.get(*a)));
        let id = engine
            .db
            .table_mut(Symbol::new(WM_TABLE))
            .map_err(|e| DipsError::Db(e.to_string()))?
            .insert(row)
            .map_err(|e| DipsError::Db(e.to_string()))?;
        ids.insert(wme.tag, id);
    }
    Ok(ids)
}

fn drop_wm_table(engine: &mut DipsEngine) -> Result<(), DipsError> {
    // reldb has no DROP TABLE; emptying it is equivalent for our purposes,
    // but a fresh schema may differ, so we clear and re-create by clearing
    // all rows if present.
    if let Ok(table) = engine.db.table_mut(Symbol::new(WM_TABLE)) {
        let all: Vec<RowId> = table.iter().map(|(id, _)| id).collect();
        for id in all {
            let _ = table.delete(id);
        }
    }
    Ok(())
}

/// Translate a rule's RHS (the DIPS-supported subset) into transaction
/// operations over the WM table. `reads`/`writes` receive the firing's
/// tag sets — every matched WME tag, and every tag it deletes or updates
/// — for the commit phase's explicit conflict rule.
#[allow(clippy::too_many_arguments)]
fn build_tx(
    engine: &DipsEngine,
    rule: &AnalyzedRule,
    rows: &Rows,
    row_ids: &FxHashMap<TimeTag, RowId>,
    attrs: &[Symbol],
    tx: &mut Transaction,
    new_wmes: &mut Vec<(Symbol, Vec<(Symbol, Value)>)>,
    reads: &mut Vec<TimeTag>,
    writes: &mut Vec<TimeTag>,
) -> Result<(), DipsError> {
    // Read set: every WME the instantiation matched (this is what makes
    // overlapping tuple-oriented instantiations conflict).
    let mut seen: FxHashSet<TimeTag> = FxHashSet::default();
    for row in rows {
        for &t in row.iter() {
            if seen.insert(t) {
                reads.push(t);
                tx.read(&engine.db, WM_TABLE, row_ids[&t])
                    .map_err(|e| DipsError::Db(e.to_string()))?;
            }
        }
    }
    let head = &rows[0];
    let env = |v: Symbol| -> Option<Value> {
        let src = rule.var_sources.get(&v)?;
        if src.set_oriented {
            return None;
        }
        engine.wme(head[src.pos_ce]).map(|w| w.get(src.attr))
    };
    let eval_expr = |e: &Expr| -> Result<Value, DipsError> {
        let env = FnEnv {
            vars: env,
            aggs: |_, _| None,
        };
        sorete_lang::eval::eval(e, &env).map_err(|er| DipsError::Rhs(er.to_string()))
    };

    for action in &rule.rhs {
        match action {
            Action::Remove(RhsTarget::Idx(i)) => {
                let tag = head[*i - 1];
                writes.push(tag);
                tx.delete(&engine.db, WM_TABLE, row_ids[&tag])
                    .map_err(|e| DipsError::Db(e.to_string()))?;
            }
            Action::Remove(RhsTarget::Var(v)) => {
                let pos = *rule
                    .elem_vars
                    .get(v)
                    .ok_or_else(|| DipsError::Rhs(format!("unknown element var <{}>", v)))?;
                let tag = head[pos];
                writes.push(tag);
                tx.delete(&engine.db, WM_TABLE, row_ids[&tag])
                    .map_err(|e| DipsError::Db(e.to_string()))?;
            }
            Action::Modify { target, slots } => {
                let pos = match target {
                    RhsTarget::Idx(i) => *i - 1,
                    RhsTarget::Var(v) => *rule
                        .elem_vars
                        .get(v)
                        .ok_or_else(|| DipsError::Rhs(format!("unknown element var <{}>", v)))?,
                };
                let tag = head[pos];
                writes.push(tag);
                for (attr, e) in slots {
                    let val = eval_expr(e)?;
                    tx.update(&engine.db, WM_TABLE, row_ids[&tag], attr.as_str(), val)
                        .map_err(|er| DipsError::Db(er.to_string()))?;
                }
            }
            Action::SetRemove(v) => {
                let pos = rule
                    .set_elem_ce(*v)
                    .ok_or_else(|| DipsError::Rhs(format!("<{}> is not a set element var", v)))?;
                let mut done: FxHashSet<TimeTag> = FxHashSet::default();
                for row in rows {
                    if done.insert(row[pos]) {
                        writes.push(row[pos]);
                        tx.delete(&engine.db, WM_TABLE, row_ids[&row[pos]])
                            .map_err(|e| DipsError::Db(e.to_string()))?;
                    }
                }
            }
            Action::SetModify { var, slots } => {
                let pos = rule
                    .set_elem_ce(*var)
                    .ok_or_else(|| DipsError::Rhs(format!("<{}> is not a set element var", var)))?;
                let mut done: FxHashSet<TimeTag> = FxHashSet::default();
                for row in rows {
                    if done.insert(row[pos]) {
                        writes.push(row[pos]);
                        for (attr, e) in slots {
                            let val = eval_expr(e)?;
                            tx.update(&engine.db, WM_TABLE, row_ids[&row[pos]], attr.as_str(), val)
                                .map_err(|er| DipsError::Db(er.to_string()))?;
                        }
                    }
                }
            }
            Action::Make { class, slots } => {
                let mut vals: Vec<(Symbol, Value)> = Vec::new();
                for (attr, e) in slots {
                    vals.push((*attr, eval_expr(e)?));
                }
                // Inserts go straight through the engine after commit (the
                // WM table lacks a tag allocator); record for later.
                let mut row: Vec<Value> = vec![Value::Nil, Value::Sym(*class)];
                row.extend(attrs.iter().map(|a| {
                    vals.iter()
                        .find(|(x, _)| x == a)
                        .map(|(_, v)| *v)
                        .unwrap_or(Value::Nil)
                }));
                tx.insert(WM_TABLE, row);
                new_wmes.push((*class, vals));
            }
            Action::Write(_) | Action::Bind(..) | Action::Halt => {}
            Action::ForEach { .. } | Action::If { .. } => {
                return Err(DipsError::Rhs(
                    "foreach/if are not part of the DIPS RHS subset".into(),
                ));
            }
        }
    }
    Ok(())
}

/// Pull committed WM-table state back into the engine's working memory.
fn mirror_back(
    engine: &mut DipsEngine,
    attrs: &[Symbol],
    row_ids: &FxHashMap<TimeTag, RowId>,
) -> Result<(), DipsError> {
    let mut removals: Vec<TimeTag> = Vec::new();
    let mut updates: Vec<(TimeTag, Vec<(Symbol, Value)>)> = Vec::new();
    {
        let table = engine
            .db
            .table(Symbol::new(WM_TABLE))
            .map_err(|e| DipsError::Db(e.to_string()))?;
        for (&tag, &rid) in row_ids {
            match table.get(rid) {
                None => removals.push(tag),
                Some(row) => {
                    // Detect drift vs the engine's copy.
                    let Some(old) = engine.wme(tag) else { continue };
                    let mut delta: Vec<(Symbol, Value)> = Vec::new();
                    for (i, a) in attrs.iter().enumerate() {
                        let newv = row[2 + i];
                        if old.get(*a) != newv {
                            delta.push((*a, newv));
                        }
                    }
                    if !delta.is_empty() {
                        updates.push((tag, delta));
                    }
                }
            }
        }
    }
    // `row_ids` is a hash map: apply (and so log) in tag order.
    removals.sort_unstable();
    updates.sort_unstable_by_key(|(tag, _)| *tag);
    for tag in removals {
        engine.wm_remove(tag)?;
    }
    for (tag, delta) in updates {
        engine.wm_update(tag, &delta)?;
    }
    Ok(())
}
