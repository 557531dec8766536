//! COND-table matching — the DIPS scheme (Sellis et al., as described in
//! paper §8.1) plus the paper's set-oriented retrofit (§8.2).
//!
//! Each WME class gets a `COND-<CLASS>` table. Rows are partial
//! instantiations viewed from one CE: `(RULE-ID, CEN, variable-binding
//! columns…, T1..Tk)` where `T_i` holds the WME tag matched for the rule's
//! i-th positive CE (`NULL` = unmatched). This is the paper's §8.2 form:
//! where tuple-oriented DIPS kept *mark bits*, the set-oriented version
//! stores *WME identifiers*, and where Figure 6 shows the tag list as one
//! attribute, we use the normalized one-column-per-CE layout the paper
//! itself recommends for rules with more than two CEs.
//!
//! When a WME arrives it is compared against its class's COND rows for
//! each CE; every consistent row spawns updated copies — shared variables
//! replaced by the WME's values, the CE's tag slot filled — into the COND
//! tables of **all** the rule's CEs (the RCE propagation of §8.1). A row
//! with every tag slot filled is a complete instantiation; grouping
//! complete rows by the scalar columns (a relational `GROUP BY`) yields
//! the set-oriented instantiations, exactly as Figure 6 does.
//!
//! Non-equality inter-CE tests cannot be folded into the substitution
//! scheme (only constants substitute), so they are verified when complete
//! rows are read back — a conservative filter the paper leaves implicit.

use crate::error::DipsError;
use sorete_base::flight::EventRef;
use sorete_base::{FxHashMap, FxHashSet, Symbol, TimeTag, TraceEvent, Tracer, Value, Wme};
use sorete_lang::analyze::{analyze_program, AnalyzedCe, AnalyzedRule};
use sorete_lang::ast::Pred;
use sorete_lang::parser::parse_program;
use sorete_reldb::{Database, Journal, JournalOp, Schema, Wal, WalOptions, WalStats, WmeOp};
use std::path::Path;
use std::sync::Arc;

/// Matching mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DipsMode {
    /// Original DIPS: tuple-oriented instantiations, fired independently.
    Tuple,
    /// The paper's retrofit: instantiations grouped into SOIs.
    Set,
}

/// One complete (tuple) instantiation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DipsInst {
    /// Rule index.
    pub rule: usize,
    /// Matched WME per positive CE.
    pub tags: Vec<TimeTag>,
}

/// One set-oriented instantiation (a group of complete rows).
#[derive(Clone, Debug)]
pub struct DipsSoi {
    /// Rule index.
    pub rule: usize,
    /// Group key (scalar CE tags + scalar PV values).
    pub key: Vec<Value>,
    /// Member rows.
    pub rows: Vec<Vec<TimeTag>>,
}

#[derive(Clone, Debug)]
struct CondMeta {
    table: Symbol,
    vars: Vec<Symbol>,
}

/// What a DIPS WAL recovery replayed (mirrors the core engine's
/// `WalReplayReport`, minus the refraction bookkeeping DIPS has no
/// analogue for).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DipsReplayReport {
    /// Committed WM operations re-applied.
    pub replayed_ops: usize,
    /// Parallel-cycle boundary markers seen.
    pub replayed_cycles: usize,
    /// API-level transactions (no boundary marker) replayed.
    pub replayed_commits: usize,
    /// Bytes of torn/short tail truncated from the log.
    pub truncated_bytes: u64,
}

/// The DIPS engine: rules compiled to COND tables over a relational
/// database.
pub struct DipsEngine {
    /// The backing database (COND tables live here; the firing layer adds
    /// a WM table).
    pub db: Database,
    rules: Vec<Arc<AnalyzedRule>>,
    wm: FxHashMap<TimeTag, Wme>,
    next_tag: u64,
    mode: DipsMode,
    classes: FxHashMap<Symbol, CondMeta>,
    /// Tag column count (max positive CEs over all rules).
    width: usize,
    insert_order: Vec<TimeTag>,
    tracer: Tracer,
    /// The attached log. It is poisoned once in-memory state ran ahead of
    /// it (a change applied, then refused by the log): every further WM
    /// mutation errors until the engine is rebuilt from the log.
    wal: Option<Box<Wal>>,
    /// WM changes of the transaction in flight — one API op, or a whole
    /// parallel cycle — kept only while a WAL is attached.
    journal: Journal,
    /// Set while a parallel cycle runs: its changes wait in the journal
    /// for the cycle's boundary marker.
    in_cycle: bool,
    /// Parallel cycles committed (stamps the WAL cycle markers).
    cycles: u64,
}

impl DipsEngine {
    /// Compile a rule program into COND tables.
    pub fn new(mode: DipsMode, program: &str) -> Result<DipsEngine, DipsError> {
        let prog = parse_program(program).map_err(|e| DipsError::Load(e.to_string()))?;
        let rules: Vec<Arc<AnalyzedRule>> = analyze_program(&prog)
            .map_err(|e| DipsError::Load(e.to_string()))?
            .into_iter()
            .map(Arc::new)
            .collect();
        for r in &rules {
            if r.ces.iter().any(|c| c.negated) {
                return Err(DipsError::Load(format!(
                    "rule `{}`: negated CEs are not supported by the DIPS substrate",
                    r.name
                )));
            }
        }
        let width = rules.iter().map(|r| r.num_pos).max().unwrap_or(0);

        // Per class: the union of variable names across rules referencing it
        // (any equality occurrence of the variable records a binding).
        let mut class_vars: FxHashMap<Symbol, Vec<Symbol>> = FxHashMap::default();
        for r in &rules {
            for ce in &r.ces {
                let vars = class_vars.entry(ce.class).or_default();
                for (_, v) in eq_vars(r, ce) {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
            }
        }

        let mut db = Database::new();
        let mut classes = FxHashMap::default();
        for (class, vars) in &class_vars {
            let table = Symbol::new(&format!("COND-{}", class.as_str().to_uppercase()));
            let mut cols: Vec<String> = vec!["RULE-ID".into(), "CEN".into()];
            cols.extend(vars.iter().map(|v| format!("VAR-{}", v)));
            cols.extend((1..=width).map(|i| format!("T{}", i)));
            let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
            db.create_table(Schema::new(table.as_str(), &col_refs))
                .map_err(|e| DipsError::Db(e.to_string()))?;
            classes.insert(
                *class,
                CondMeta {
                    table,
                    vars: vars.clone(),
                },
            );
        }

        let mut engine = DipsEngine {
            db,
            rules,
            wm: FxHashMap::default(),
            next_tag: 0,
            mode,
            classes,
            width,
            insert_order: Vec::new(),
            tracer: Tracer::default(),
            wal: None,
            journal: Journal::new(),
            in_cycle: false,
            cycles: 0,
        };
        engine.seed()?;
        Ok(engine)
    }

    /// The matching mode.
    pub fn mode(&self) -> DipsMode {
        self.mode
    }

    /// Install a trace sink set. DIPS emits the WM-level and firing-level
    /// events of the shared stream (assert/retract, fire, rollback); the
    /// node-level events are Rete/TREAT concepts it has no analogue for.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer (used by the firing layer).
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Loaded rules.
    pub fn rules(&self) -> &[Arc<AnalyzedRule>] {
        &self.rules
    }

    /// Read a working-memory element.
    pub fn wme(&self, tag: TimeTag) -> Option<&Wme> {
        self.wm.get(&tag)
    }

    /// Working-memory size.
    pub fn wm_len(&self) -> usize {
        self.wm.len()
    }

    /// All WMEs, sorted by time tag.
    pub fn wmes(&self) -> Vec<&Wme> {
        let mut v: Vec<&Wme> = self.wm.values().collect();
        v.sort_by_key(|w| w.tag);
        v
    }

    /// Byte-level memory accounting for the COND-table backing store
    /// (delegates to [`sorete_reldb::Database::memory_report`]).
    pub fn memory_report(&self) -> sorete_base::MemoryReport {
        self.db.memory_report()
    }

    /// Insert the initial (all-NULL) CE template rows.
    fn seed(&mut self) -> Result<(), DipsError> {
        for (ri, rule) in self.rules.clone().iter().enumerate() {
            for ce in &rule.ces {
                let meta = self.classes[&ce.class].clone();
                let mut row: Vec<Value> = vec![
                    Value::Int(ri as i64),
                    Value::Int(ce.pos_idx.unwrap() as i64 + 1),
                ];
                row.extend(meta.vars.iter().map(|_| Value::Nil));
                row.extend((0..self.width).map(|_| Value::Nil));
                self.db
                    .table_mut(meta.table)
                    .map_err(|e| DipsError::Db(e.to_string()))?
                    .insert(row)
                    .map_err(|e| DipsError::Db(e.to_string()))?;
            }
        }
        Ok(())
    }

    /// Assert a WME and propagate through the COND tables.
    pub fn insert(&mut self, class: &str, slots: &[(&str, Value)]) -> Result<TimeTag, DipsError> {
        self.wal_guard()?;
        self.next_tag += 1;
        let tag = TimeTag::new(self.next_tag);
        let wme = Wme::new(
            tag,
            Symbol::new(class),
            slots.iter().map(|(a, v)| (Symbol::new(a), *v)).collect(),
        );
        self.tracer.emit_ref(EventRef::WmeAssert {
            cycle: 0,
            wme: &wme,
        });
        self.propagate(&wme)?;
        self.wm.insert(tag, wme);
        self.insert_order.push(tag);
        self.wal_log(JournalOp::Assert(tag))?;
        Ok(tag)
    }

    /// Attach a write-ahead log, first re-applying whatever committed
    /// state it holds (the COND tables are re-derived afterwards). Must
    /// run before any WMEs are inserted: recovered asserts carry their
    /// original time tags.
    pub fn attach_wal(
        &mut self,
        path: &Path,
        opts: WalOptions,
    ) -> Result<DipsReplayReport, DipsError> {
        if self.wal.is_some() {
            return Err(DipsError::Db("a WAL is already attached".into()));
        }
        // DIPS never rotates its log, so its state descends from
        // generation 0: a rotated log belongs to a checkpointed core-engine
        // lineage whose pre-rotation records are gone.
        let (wal, recovered) =
            Wal::attach(path, opts, 0).map_err(|e| DipsError::Db(e.to_string()))?;
        let mut report = DipsReplayReport::default();
        for tx in recovered.transactions {
            report.replayed_ops += tx.ops.len();
            for op in tx.ops {
                self.replay_op(op)?;
            }
            if tx.cycle.is_some() {
                report.replayed_cycles += 1;
                self.cycles += 1;
            } else {
                report.replayed_commits += 1;
            }
        }
        report.truncated_bytes = wal.stats().truncated_bytes;
        if report.replayed_ops > 0 {
            self.rebuild()?;
        }
        self.wal = Some(Box::new(wal));
        Ok(report)
    }

    /// Is a WAL attached?
    pub fn wal_attached(&self) -> bool {
        self.wal.is_some()
    }

    /// Counters of the attached WAL, if any.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|w| *w.stats())
    }

    /// Arm a storage fault on the attached WAL (testing). Returns false
    /// when no WAL is attached.
    pub fn inject_wal_fault(&mut self, plan: sorete_reldb::IoFaultPlan) -> bool {
        match &mut self.wal {
            Some(w) => {
                w.inject_fault(plan);
                true
            }
            None => false,
        }
    }

    /// Re-apply one committed WM op during recovery. COND tables are NOT
    /// maintained here — the caller re-derives them once via `rebuild`.
    fn replay_op(&mut self, op: WmeOp) -> Result<(), DipsError> {
        match op {
            WmeOp::Assert(wme) => {
                if self.wm.contains_key(&wme.tag) {
                    return Err(DipsError::Db(format!(
                        "replayed assert collides with live time tag {}",
                        wme.tag.raw()
                    )));
                }
                self.next_tag = self.next_tag.max(wme.tag.raw());
                self.insert_order.push(wme.tag);
                self.wm.insert(wme.tag, wme);
            }
            WmeOp::Retract(tag) => {
                self.wm.remove(&tag);
                self.insert_order.retain(|&t| t != tag);
            }
            WmeOp::Update(tag, slots) => {
                if let Some(w) = self.wm.get(&tag) {
                    let new = w.modified(tag, &slots);
                    self.wm.insert(tag, new);
                    self.insert_order.retain(|&t| t != tag);
                    self.insert_order.push(tag);
                }
            }
        }
        Ok(())
    }

    /// Error while the attached WAL is poisoned: in-memory state already
    /// ran ahead of the log once, and further mutations would widen the
    /// divergence. Reopen (re-attach) to recover to the last commit point.
    fn wal_guard(&self) -> Result<(), DipsError> {
        match &self.wal {
            Some(w) if w.is_poisoned() => Err(DipsError::Db(
                "DIPS WAL poisoned: in-memory state diverged from the log; \
                 rebuild from the log to recover"
                    .into(),
            )),
            _ => Ok(()),
        }
    }

    /// Journal one WM effect. Outside a parallel cycle every op is its
    /// own transaction and commits at once; inside, ops wait for the
    /// cycle's boundary marker to commit them as one unit.
    fn wal_log(&mut self, op: JournalOp) -> Result<(), DipsError> {
        if self.wal.is_none() {
            return Ok(());
        }
        self.journal.push(op);
        if self.in_cycle {
            return Ok(());
        }
        self.wal_commit(None)
    }

    /// Commit the journal under `cycle`'s boundary marker, or a plain
    /// commit. The caller has already applied its effects in memory, so a
    /// refusal from the log poisons it.
    fn wal_commit(&mut self, cycle: Option<&[u8]>) -> Result<(), DipsError> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        let wm = &self.wm;
        let r = wal.commit(&self.journal, |t| wm.get(&t), cycle);
        self.journal.clear();
        if r.is_err() {
            wal.poison();
        }
        r.map_err(|e| DipsError::Db(e.to_string()))
    }

    /// Start journaling WM effects for a parallel cycle. Errors if the
    /// log is already poisoned (the cycle would mutate WM it can't log).
    pub(crate) fn wal_begin_cycle(&mut self) -> Result<(), DipsError> {
        self.wal_guard()?;
        self.in_cycle = true;
        self.journal.clear();
        Ok(())
    }

    /// Commit the cycle as one log record: its journal under a
    /// cycle-boundary marker whose payload is `summary`. A refusal
    /// poisons the log: the cycle's effects are already applied in
    /// memory (and mirrored into the WM table) but not durably logged, so
    /// recovery lands before this cycle while the live engine sits after
    /// it.
    pub(crate) fn wal_commit_cycle(&mut self, summary: &str) -> Result<(), DipsError> {
        self.cycles += 1;
        self.in_cycle = false;
        let marker = format!("dips\t{}\t{}", self.cycles, summary);
        self.wal_commit(Some(marker.as_bytes()))
    }

    /// Drop the journaled cycle (the cycle failed before committing).
    pub(crate) fn wal_abort_cycle(&mut self) {
        self.in_cycle = false;
        self.journal.clear();
    }

    /// Propagate one WME arrival (the §8.1 update step).
    fn propagate(&mut self, wme: &Wme) -> Result<(), DipsError> {
        if !self.classes.contains_key(&wme.class) {
            return Ok(()); // class not referenced by any rule
        }
        for (ri, rule) in self.rules.clone().iter().enumerate() {
            for ce in rule.ces.clone().iter() {
                if ce.class != wme.class {
                    continue;
                }
                if !ce.const_tests.iter().all(|t| t.matches(&wme.get(t.attr))) {
                    continue;
                }
                if !ce
                    .intra_tests
                    .iter()
                    .all(|t| t.pred.apply(&wme.get(t.attr), &wme.get(t.other_attr)))
                {
                    continue;
                }
                self.match_ce(ri, rule, ce, wme)?;
            }
        }
        Ok(())
    }

    /// Match `wme` against the candidate rows of one CE and spawn updated
    /// copies (the RCE propagation).
    fn match_ce(
        &mut self,
        ri: usize,
        rule: &Arc<AnalyzedRule>,
        ce: &AnalyzedCe,
        wme: &Wme,
    ) -> Result<(), DipsError> {
        let cen = ce.pos_idx.unwrap();
        let meta = self.classes[&ce.class].clone();
        let var_base = 2;
        let tag_base = var_base + meta.vars.len();
        let bindings = eq_vars(rule, ce);

        // Collect candidates first (we insert while scanning otherwise).
        let table = self
            .db
            .table(meta.table)
            .map_err(|e| DipsError::Db(e.to_string()))?;
        let mut candidates: Vec<Vec<Value>> = Vec::new();
        'rows: for (_, row) in table.iter() {
            if row[0] != Value::Int(ri as i64) || row[1] != Value::Int(cen as i64 + 1) {
                continue;
            }
            if !row[tag_base + cen].is_nil() {
                continue; // this CE slot already filled in that partial
            }
            // Every equality occurrence must agree with recorded bindings.
            for (attr, var) in &bindings {
                let ci = var_base + meta.vars.iter().position(|x| x == var).unwrap();
                let recorded = row[ci];
                if !recorded.is_nil() && recorded != wme.get(*attr) {
                    continue 'rows;
                }
            }
            // Ordered (non-eq) joins against recorded bindings.
            for vj in &ce.var_joins {
                if vj.pred == Pred::Eq {
                    continue; // handled above
                }
                if let Some(var) = source_var(rule, vj.other_pos_ce, vj.other_attr) {
                    if let Some(pos) = meta.vars.iter().position(|x| *x == var) {
                        let recorded = row[var_base + pos];
                        if !recorded.is_nil() && !vj.pred.apply(&wme.get(vj.attr), &recorded) {
                            continue 'rows;
                        }
                    }
                }
            }
            candidates.push(row.to_vec());
        }

        // Spawn: one updated copy per CE of the rule, into that CE's class
        // table, carrying that CE's CEN — "new copies of these referenced
        // tuples … with the constants found in the inserted WME".
        for cand in candidates {
            // Extend the binding map with this WME's values.
            let mut bound: FxHashMap<Symbol, Value> = FxHashMap::default();
            for (i, v) in meta.vars.iter().enumerate() {
                if !cand[var_base + i].is_nil() {
                    bound.insert(*v, cand[var_base + i]);
                }
            }
            for (attr, var) in &bindings {
                bound.entry(*var).or_insert_with(|| wme.get(*attr));
            }
            let mut tags: Vec<Value> = cand[tag_base..].to_vec();
            tags[cen] = Value::Tag(wme.tag);

            for other in &rule.ces {
                let m = self.classes[&other.class].clone();
                let mut row: Vec<Value> = vec![
                    Value::Int(ri as i64),
                    Value::Int(other.pos_idx.unwrap() as i64 + 1),
                ];
                for v in &m.vars {
                    row.push(bound.get(v).copied().unwrap_or(Value::Nil));
                }
                row.extend(tags.iter().copied());
                self.db
                    .table_mut(m.table)
                    .map_err(|e| DipsError::Db(e.to_string()))?
                    .insert(row)
                    .map_err(|e| DipsError::Db(e.to_string()))?;
            }
        }
        Ok(())
    }

    /// Retract a WME: delete every COND row referencing it.
    pub fn remove(&mut self, tag: TimeTag) -> Result<(), DipsError> {
        self.wal_guard()?;
        if !self.wm.contains_key(&tag) {
            return Err(DipsError::UnknownTag(tag.raw()));
        }
        self.tracer
            .emit(|| TraceEvent::WmeRetract { cycle: 0, tag });
        self.wm_remove(tag)
    }

    /// Delete every COND row that names `tag`: exactly the partial
    /// instantiations its arrival built, so the tables are left as if it
    /// had never arrived.
    fn forget(&mut self, tag: TimeTag) -> Result<(), DipsError> {
        for meta in self.classes.values() {
            let table = self
                .db
                .table_mut(meta.table)
                .map_err(|e| DipsError::Db(e.to_string()))?;
            let tag_base = 2 + meta.vars.len();
            let doomed: Vec<sorete_reldb::RowId> = table
                .iter()
                .filter(|(_, r)| r[tag_base..].contains(&Value::Tag(tag)))
                .map(|(id, _)| id)
                .collect();
            for id in doomed {
                table.delete(id).map_err(|e| DipsError::Db(e.to_string()))?;
            }
        }
        Ok(())
    }

    /// All complete (tuple) instantiations, deduplicated and re-verified
    /// against the full join tests.
    pub fn instantiations(&self) -> Vec<DipsInst> {
        let mut seen: FxHashSet<(usize, Vec<TimeTag>)> = FxHashSet::default();
        let mut out = Vec::new();
        for meta in self.classes.values() {
            let Ok(table) = self.db.table(meta.table) else {
                continue;
            };
            let tag_base = 2 + meta.vars.len();
            for (_, row) in table.iter() {
                let Value::Int(ri) = row[0] else { continue };
                let ri = ri as usize;
                let k = self.rules[ri].num_pos;
                let tags: Option<Vec<TimeTag>> = row[tag_base..tag_base + k]
                    .iter()
                    .map(|v| v.as_tag())
                    .collect();
                let Some(tags) = tags else { continue };
                if !seen.insert((ri, tags.clone())) {
                    continue;
                }
                if self.verify(ri, &tags) {
                    out.push(DipsInst { rule: ri, tags });
                }
            }
        }
        out.sort_by(|a, b| (a.rule, &a.tags).cmp(&(b.rule, &b.tags)));
        out
    }

    /// Re-evaluate every inter-CE join test of a complete row.
    fn verify(&self, ri: usize, tags: &[TimeTag]) -> bool {
        let rule = &self.rules[ri];
        for ce in &rule.ces {
            let Some(pos) = ce.pos_idx else { continue };
            let Some(w) = self.wm.get(&tags[pos]) else {
                return false;
            };
            for vj in &ce.var_joins {
                let Some(other) = self.wm.get(&tags[vj.other_pos_ce]) else {
                    return false;
                };
                if !vj.pred.apply(&w.get(vj.attr), &other.get(vj.other_attr)) {
                    return false;
                }
            }
        }
        true
    }

    /// Set-oriented instantiations: complete rows grouped by the scalar CE
    /// tags and scalar PV values — the Figure 6 retrieval.
    pub fn sois(&self) -> Vec<DipsSoi> {
        let mut out = Vec::new();
        for (ri, rule) in self.rules.iter().enumerate() {
            let insts: Vec<DipsInst> = self
                .instantiations()
                .into_iter()
                .filter(|i| i.rule == ri)
                .collect();
            if insts.is_empty() {
                continue;
            }
            let mut groups: FxHashMap<Vec<Value>, Vec<Vec<TimeTag>>> = FxHashMap::default();
            for inst in insts {
                let mut key: Vec<Value> = rule
                    .scalar_ces
                    .iter()
                    .map(|&pos| Value::Tag(inst.tags[pos]))
                    .collect();
                for pv in &rule.scalar_pvs {
                    key.push(self.wm[&inst.tags[pv.pos_ce]].get(pv.attr));
                }
                groups.entry(key).or_default().push(inst.tags);
            }
            let mut keys: Vec<Vec<Value>> = groups.keys().cloned().collect();
            keys.sort();
            for key in keys {
                let mut rows = groups.remove(&key).unwrap();
                rows.sort();
                out.push(DipsSoi {
                    rule: ri,
                    key,
                    rows,
                });
            }
        }
        out
    }

    /// Render a class's COND table (for the Figure 6 demo).
    pub fn render_cond(&self, class: &str) -> Result<String, DipsError> {
        let meta = self
            .classes
            .get(&Symbol::new(class))
            .ok_or_else(|| DipsError::Load(format!("class `{}` has no COND table", class)))?;
        let rel = self
            .db
            .sql(&format!("SELECT * FROM {}", meta.table))
            .map_err(|e| DipsError::Db(e.to_string()))?;
        Ok(rel.render())
    }

    /// The COND table name for a class.
    pub fn cond_table_name(&self, class: &str) -> Option<&str> {
        self.classes
            .get(&Symbol::new(class))
            .map(|m| m.table.as_str())
    }

    /// Rebuild all COND tables from scratch: re-seed them and re-propagate
    /// working memory in arrival order (after WAL recovery). RCE
    /// propagation builds each partial instantiation once, when its last
    /// member arrives, so the result equals the incrementally maintained
    /// tables.
    pub fn rebuild(&mut self) -> Result<(), DipsError> {
        let metas: Vec<CondMeta> = self.classes.values().cloned().collect();
        for meta in metas {
            let table = self
                .db
                .table_mut(meta.table)
                .map_err(|e| DipsError::Db(e.to_string()))?;
            let all: Vec<sorete_reldb::RowId> = table.iter().map(|(id, _)| id).collect();
            for id in all {
                table.delete(id).map_err(|e| DipsError::Db(e.to_string()))?;
            }
        }
        self.seed()?;
        let order = self.insert_order.clone();
        for tag in order {
            if let Some(wme) = self.wm.get(&tag).cloned() {
                self.propagate(&wme)?;
            }
        }
        Ok(())
    }

    /// WM removal, as [`Self::remove`] without its guard and trace event
    /// (the firing layer's): the WME's COND rows go with it.
    pub(crate) fn wm_remove(&mut self, tag: TimeTag) -> Result<(), DipsError> {
        let Some(wme) = self.wm.remove(&tag) else {
            return Ok(());
        };
        self.insert_order.retain(|&t| t != tag);
        self.forget(tag)?;
        // Inside a cycle this only journals; the boundary marker commits.
        self.wal_log(JournalOp::Removed(wme))
    }

    /// In-place WM update used by the firing layer (DIPS updates tuples;
    /// tags are stable identifiers there). The WME's COND rows are
    /// rebuilt as if it arrived now, and it moves to the end of the
    /// arrival order, so a [`Self::rebuild`] derives the same rows.
    pub(crate) fn wm_update(
        &mut self,
        tag: TimeTag,
        updates: &[(Symbol, Value)],
    ) -> Result<(), DipsError> {
        let Some(w) = self.wm.get(&tag) else {
            return Ok(());
        };
        let new = w.modified(tag, updates);
        self.forget(tag)?;
        self.propagate(&new)?;
        self.wm.insert(tag, new);
        self.insert_order.retain(|&t| t != tag);
        self.insert_order.push(tag);
        self.wal_log(JournalOp::Update(tag, updates.to_vec()))
    }
}

/// Every equality occurrence `(attr, var)` of a CE — bindings plus Eq
/// joins: all of them both constrain candidates and substitute values.
fn eq_vars(rule: &AnalyzedRule, ce: &AnalyzedCe) -> Vec<(Symbol, Symbol)> {
    let mut out: Vec<(Symbol, Symbol)> = ce.binds.clone();
    for vj in &ce.var_joins {
        if vj.pred == Pred::Eq {
            if let Some(var) = source_var(rule, vj.other_pos_ce, vj.other_attr) {
                out.push((vj.attr, var));
            }
        }
    }
    out
}

/// The variable whose binding site is `(pos_ce, attr)`.
fn source_var(rule: &AnalyzedRule, pos_ce: usize, attr: Symbol) -> Option<Symbol> {
    rule.var_sources
        .iter()
        .find(|(_, s)| s.pos_ce == pos_ce && s.attr == attr)
        .map(|(v, _)| *v)
}
