//! The RHS interpreter — including every set-oriented action of §6.
//!
//! Semantics implemented from the paper:
//!
//! - the fired (set-oriented) instantiation is a **relation** (rows of
//!   matched WMEs); `foreach` decomposes it by successive selection;
//! - `foreach` over a set-oriented **pattern variable** iterates the
//!   distinct values of its domain, constraining the active sub-relation
//!   and binding the variable scalar inside the body (§6.1);
//! - `foreach` over a set-oriented **element variable** iterates distinct
//!   WMEs (time tags); within the body every PV of that CE reads from the
//!   current WME (§6.2);
//! - default iteration order is conflict-set (recency) order — "the order
//!   in which they would have occurred as separate instantiations";
//!   `ascending`/`descending` sort by value (by tag for element variables);
//! - `set-modify`/`set-remove` apply to every WME the element variable
//!   matches in the *current* (sub)instantiation context;
//! - WM changes take effect immediately in working memory and the match
//!   network, but the conflict set sees a firing's changes in one drain
//!   after its RHS: a set-oriented firing is one unit of work, and every
//!   S-node it touches settles once;
//! - the fired instantiation's bindings come from a snapshot taken at fire
//!   time, as in OPS5. The snapshot holds the WMEs of the CEs the RHS reads
//!   a field of ([`AnalyzedRule::rhs_reads`]) and nothing else: an RHS that
//!   only names its WMEs (`set-modify <P> ^s done`) copies none.

use crate::error::CoreError;
use sorete_base::{FxHashMap, FxHashSet, Rows, Symbol, TimeTag, Value, Wme};
use sorete_lang::analyze::AnalyzedRule;
use sorete_lang::ast::{truthy, Action, AggOp, Expr, IterOrder, RhsTarget};
use sorete_lang::eval::{eval, Env};
use std::sync::Arc;

/// What the interpreter asks of the engine.
///
/// Every method is fallible so that an injected fault
/// (`crate::FaultPlan`) can fail *any* primitive action, not just the
/// WM-mutating ones — the rollback machinery must cope with a failure at
/// every action index.
pub trait RhsHost {
    /// Assert a new WME.
    fn make(&mut self, class: Symbol, slots: Vec<(Symbol, Value)>) -> Result<TimeTag, CoreError>;
    /// Retract a WME. Returns `Ok(false)` if it was already gone (e.g.
    /// removed twice by overlapping set operations) — a warning, not an
    /// error.
    fn remove(&mut self, tag: TimeTag) -> Result<bool, CoreError>;
    /// Modify = retract + re-assert with a fresh tag. `Ok(None)` if the WME
    /// was already gone.
    fn modify(
        &mut self,
        tag: TimeTag,
        updates: &[(Symbol, Value)],
    ) -> Result<Option<TimeTag>, CoreError>;
    /// Emit one `write` line.
    fn write_line(&mut self, line: String) -> Result<(), CoreError>;
    /// `halt` was executed.
    fn halt(&mut self) -> Result<(), CoreError>;
    /// A `bind` was executed (counted as an action).
    fn note_bind(&mut self) -> Result<(), CoreError>;
}

/// Snapshot of the fired instantiation plus the interpreter's mutable
/// iteration state.
pub struct RhsCtx {
    /// The rule being fired.
    pub rule: Arc<AnalyzedRule>,
    /// The instantiation's rows (most recent first).
    pub rows: Rows,
    /// Snapshot, taken at fire time, of the WMEs `rows` holds at the CEs
    /// the RHS reads ([`AnalyzedRule::rhs_reads`]).
    pub wmes: FxHashMap<TimeTag, Wme>,
    /// The rule's aggregate values at fire time.
    pub aggregates: Vec<Value>,
    active: Active,
    /// A `modify`'s evaluated slots, reused from one action to the next
    /// (and, through [`Self::lend_updates`], from one firing to the next).
    updates: Vec<(Symbol, Value)>,
    binds: FxHashMap<Symbol, Value>,
    ce_current: FxHashMap<usize, TimeTag>,
    /// Detailed message from the last failed variable resolution (the
    /// `Env` trait can only say "unbound"; this preserves the real cause).
    last_resolve_err: std::cell::RefCell<Option<String>>,
}

impl RhsCtx {
    /// Build a context over a fired instantiation.
    pub fn new(
        rule: Arc<AnalyzedRule>,
        rows: Rows,
        wmes: FxHashMap<TimeTag, Wme>,
        aggregates: Vec<Value>,
    ) -> RhsCtx {
        RhsCtx {
            rule,
            rows,
            wmes,
            aggregates,
            active: Active::All,
            updates: Vec::new(),
            binds: FxHashMap::default(),
            ce_current: FxHashMap::default(),
            last_resolve_err: std::cell::RefCell::new(None),
        }
    }

    /// Hand the context a buffer for `modify`'s slots; take it back with
    /// [`Self::take_updates`] once the RHS ran.
    pub fn lend_updates(&mut self, buf: Vec<(Symbol, Value)>) {
        self.updates = buf;
    }

    /// The slot buffer, emptied, for the next firing.
    pub fn take_updates(&mut self) -> Vec<(Symbol, Value)> {
        let mut buf = std::mem::take(&mut self.updates);
        buf.clear();
        buf
    }

    /// The rows of the current (sub)instantiation, in order.
    fn active(&self) -> impl Iterator<Item = usize> + '_ {
        self.active.rows(self.rows.len())
    }

    fn value_at(&self, row: usize, pos_ce: usize, attr: Symbol) -> Result<Value, CoreError> {
        Ok(self.wme(self.rows[row][pos_ce])?.get(attr))
    }

    /// A WME of the snapshot. The snapshot holds the CEs the rule's
    /// analysis says the RHS reads; a read outside them is an analysis
    /// bug, reported as an RHS error rather than a panic.
    fn wme(&self, tag: TimeTag) -> Result<&Wme, CoreError> {
        self.wmes.get(&tag).ok_or_else(|| {
            debug_assert!(false, "RHS read of {tag} outside the firing snapshot");
            CoreError::Rhs(format!(
                "rule `{}` read {} outside its firing snapshot",
                self.rule.name, tag
            ))
        })
    }

    /// Resolve a variable in the current context.
    fn resolve(&self, v: Symbol) -> Result<Value, CoreError> {
        if let Some(val) = self.binds.get(&v) {
            return Ok(*val);
        }
        let Some(src) = self.rule.var_sources.get(&v) else {
            return Err(CoreError::Rhs(format!("unbound variable <{}>", v)));
        };
        // A PV of a CE currently iterated by its element variable reads
        // from the current WME (it is "treated as a regular PV", §6.2).
        if let Some(&tag) = self.ce_current.get(&src.pos_ce) {
            return Ok(self.wme(tag)?.get(src.attr));
        }
        if src.set_oriented {
            // §6.1: each enclosing `foreach` reduces the sub-instantiation
            // by selection, shrinking every sibling PV's domain. When the
            // reduced domain is a singleton the variable is effectively
            // scalar and may be read directly.
            let domain = self.domain_values(src.pos_ce, src.attr)?;
            if domain.len() == 1 {
                return Ok(domain[0]);
            }
            return Err(CoreError::Rhs(format!(
                "set-oriented variable <{}> has {} values in the current context \
                 (iterate it with `foreach` first)",
                v,
                domain.len()
            )));
        }
        let row = self.active().next().ok_or_else(|| {
            CoreError::Rhs("empty sub-instantiation while resolving a variable".into())
        })?;
        self.value_at(row, src.pos_ce, src.attr)
    }

    /// Distinct values of a set-oriented PV over the active rows, in
    /// active-row (recency) order.
    fn domain_values(&self, pos_ce: usize, attr: Symbol) -> Result<Vec<Value>, CoreError> {
        let mut seen: FxHashSet<Value> = FxHashSet::default();
        let mut out = Vec::new();
        for r in self.active() {
            let v = self.value_at(r, pos_ce, attr)?;
            if seen.insert(v) {
                out.push(v);
            }
        }
        Ok(out)
    }

    /// Distinct WMEs of a set-oriented CE over the active rows, in
    /// active-row order. When it is the rule's only positive set-oriented
    /// CE the rows already name distinct WMEs of it: every other CE is
    /// fixed by the SOI key, and rows are unique.
    fn domain_tags(&self, pos_ce: usize) -> Vec<TimeTag> {
        let tags = self.active().map(|r| self.rows[r][pos_ce]);
        if self.rule.num_pos - self.rule.scalar_ces.len() == 1 {
            return tags.collect();
        }
        let mut seen: FxHashSet<TimeTag> = FxHashSet::default();
        tags.filter(|&t| seen.insert(t)).collect()
    }
}

/// The rows a (sub)instantiation context covers: every row until a
/// `foreach` selects some, so a firing builds no list of its rows.
enum Active {
    All,
    Rows(Vec<usize>),
}

impl Active {
    /// The covered rows of an instantiation of `n` rows, in order.
    fn rows(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        let (all, some): (usize, &[usize]) = match self {
            Active::All => (n, &[]),
            Active::Rows(rows) => (0, rows),
        };
        (0..all).chain(some.iter().copied())
    }
}

impl RhsCtx {
    /// Evaluate an expression, preserving detailed resolution errors.
    fn eval_expr(&self, e: &Expr) -> Result<Value, CoreError> {
        self.last_resolve_err.borrow_mut().take();
        match eval(e, self) {
            Ok(v) => Ok(v),
            Err(err) => match self.last_resolve_err.borrow_mut().take() {
                Some(msg) => Err(CoreError::Rhs(msg)),
                None => Err(err.into()),
            },
        }
    }
}

impl Env for RhsCtx {
    fn var(&self, v: Symbol) -> Option<Value> {
        match self.resolve(v) {
            Ok(v) => Some(v),
            Err(e) => {
                *self.last_resolve_err.borrow_mut() = Some(e.to_string());
                None
            }
        }
    }

    fn agg(&self, op: AggOp, var: Symbol) -> Option<Value> {
        let idx = self.rule.agg_index(op, var)?;
        self.aggregates.get(idx).copied()
    }
}

/// Execute a full RHS.
pub fn execute(
    host: &mut dyn RhsHost,
    ctx: &mut RhsCtx,
    actions: &[Action],
) -> Result<(), CoreError> {
    for a in actions {
        exec_action(host, ctx, a)?;
    }
    Ok(())
}

fn eval_slots(ctx: &RhsCtx, slots: &[(Symbol, Expr)]) -> Result<Vec<(Symbol, Value)>, CoreError> {
    slots
        .iter()
        .map(|(attr, e)| Ok((*attr, ctx.eval_expr(e)?)))
        .collect()
}

/// `modify` `tag` with `slots` evaluated into the context's reused buffer.
fn modify_with(
    host: &mut dyn RhsHost,
    ctx: &mut RhsCtx,
    tag: TimeTag,
    slots: &[(Symbol, Expr)],
) -> Result<(), CoreError> {
    let mut updates = ctx.take_updates();
    let r = slots
        .iter()
        .try_for_each(|(attr, e)| {
            updates.push((*attr, ctx.eval_expr(e)?));
            Ok(())
        })
        .and_then(|()| host.modify(tag, &updates).map(drop));
    ctx.updates = updates;
    r
}

/// Resolve a scalar `remove`/`modify` target to one WME.
fn scalar_target(ctx: &RhsCtx, target: &RhsTarget) -> Result<TimeTag, CoreError> {
    let pos = match target {
        RhsTarget::Var(v) => *ctx
            .rule
            .elem_vars
            .get(v)
            .ok_or_else(|| CoreError::Rhs(format!("<{}> is not an element variable", v)))?,
        RhsTarget::Idx(i) => i - 1,
    };
    let is_set_ce = ctx
        .rule
        .ces
        .iter()
        .find(|c| c.pos_idx == Some(pos))
        .is_some_and(|c| c.set_oriented);
    if is_set_ce {
        // Scalar access to a set CE requires iteration context.
        ctx.ce_current.get(&pos).copied().ok_or_else(|| {
            CoreError::Rhs(
                "scalar `remove`/`modify` of a set-oriented element requires an enclosing \
                 `foreach` over it (use `set-remove`/`set-modify` otherwise)"
                    .into(),
            )
        })
    } else {
        let row = ctx
            .active()
            .next()
            .ok_or_else(|| CoreError::Rhs("empty sub-instantiation".into()))?;
        Ok(ctx.rows[row][pos])
    }
}

fn exec_action(host: &mut dyn RhsHost, ctx: &mut RhsCtx, action: &Action) -> Result<(), CoreError> {
    match action {
        Action::Make { class, slots } => {
            let slots = eval_slots(ctx, slots)?;
            host.make(*class, slots)?;
        }
        Action::Remove(target) => {
            let tag = scalar_target(ctx, target)?;
            host.remove(tag)?;
        }
        Action::Modify { target, slots } => {
            let tag = scalar_target(ctx, target)?;
            modify_with(host, ctx, tag, slots)?;
        }
        Action::SetRemove(v) => {
            let pos = ctx
                .rule
                .set_elem_ce(*v)
                .ok_or_else(|| CoreError::Rhs(format!("<{}> is not a set element variable", v)))?;
            for tag in ctx.domain_tags(pos) {
                host.remove(tag)?;
            }
        }
        Action::SetModify { var, slots } => {
            let pos = ctx.rule.set_elem_ce(*var).ok_or_else(|| {
                CoreError::Rhs(format!("<{}> is not a set element variable", var))
            })?;
            for tag in ctx.domain_tags(pos) {
                // Per-WME evaluation: expressions may reference PVs of the
                // CE, which resolve through the current WME.
                let prev = ctx.ce_current.insert(pos, tag);
                let r = modify_with(host, ctx, tag, slots);
                match prev {
                    Some(p) => {
                        ctx.ce_current.insert(pos, p);
                    }
                    None => {
                        ctx.ce_current.remove(&pos);
                    }
                }
                r?;
            }
        }
        Action::Write(parts) => {
            let rendered: Result<Vec<String>, CoreError> = parts
                .iter()
                .map(|e| Ok(ctx.eval_expr(e)?.to_string()))
                .collect();
            host.write_line(rendered?.join(" "))?;
        }
        Action::Bind(v, e) => {
            let val = ctx.eval_expr(e)?;
            ctx.binds.insert(*v, val);
            host.note_bind()?;
        }
        Action::Halt => host.halt()?,
        Action::If { cond, then, els } => {
            let branch = if truthy(&ctx.eval_expr(cond)?) {
                then
            } else {
                els
            };
            for a in branch {
                exec_action(host, ctx, a)?;
            }
        }
        Action::ForEach { var, order, body } => exec_foreach(host, ctx, *var, *order, body)?,
    }
    Ok(())
}

fn exec_foreach(
    host: &mut dyn RhsHost,
    ctx: &mut RhsCtx,
    var: Symbol,
    order: IterOrder,
    body: &[Action],
) -> Result<(), CoreError> {
    if let Some(pos) = ctx.rule.set_elem_ce(var) {
        // §6.2: iterate distinct WMEs of the CE.
        let mut tags = ctx.domain_tags(pos);
        match order {
            IterOrder::Default => {} // recency order (active-row order)
            IterOrder::Ascending => tags.sort_unstable(),
            IterOrder::Descending => tags.sort_unstable_by(|a, b| b.cmp(a)),
        }
        let saved_active = std::mem::replace(&mut ctx.active, Active::All);
        for tag in tags {
            let rows = saved_active.rows(ctx.rows.len());
            ctx.active = Active::Rows(rows.filter(|&r| ctx.rows[r][pos] == tag).collect());
            ctx.ce_current.insert(pos, tag);
            for a in body {
                exec_action(host, ctx, a)?;
            }
        }
        ctx.ce_current.remove(&pos);
        ctx.active = saved_active;
        Ok(())
    } else if ctx.rule.is_set_var(var) {
        // §6.1: iterate distinct values of the PV's domain.
        let src = ctx.rule.var_sources[&var];
        let mut values = ctx.domain_values(src.pos_ce, src.attr)?;
        match order {
            IterOrder::Default => {}
            IterOrder::Ascending => values.sort_unstable(),
            IterOrder::Descending => values.sort_unstable_by(|a, b| b.cmp(a)),
        }
        let saved_active = std::mem::replace(&mut ctx.active, Active::All);
        for val in values {
            let mut active = Vec::new();
            for r in saved_active.rows(ctx.rows.len()) {
                if ctx.value_at(r, src.pos_ce, src.attr)? == val {
                    active.push(r);
                }
            }
            ctx.active = Active::Rows(active);
            ctx.binds.insert(var, val);
            for a in body {
                exec_action(host, ctx, a)?;
            }
        }
        ctx.binds.remove(&var);
        ctx.active = saved_active;
        Ok(())
    } else {
        Err(CoreError::Rhs(format!(
            "`foreach` over non-set variable <{}>",
            var
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorete_lang::{analyze_rule, parse_rule};

    /// Recording host: applies nothing, just logs calls.
    #[derive(Default)]
    struct LogHost {
        log: Vec<String>,
        next_tag: u64,
    }

    impl RhsHost for LogHost {
        fn make(
            &mut self,
            class: Symbol,
            slots: Vec<(Symbol, Value)>,
        ) -> Result<TimeTag, CoreError> {
            self.next_tag += 1;
            self.log.push(format!(
                "make {} {}",
                class,
                slots
                    .iter()
                    .map(|(a, v)| format!("^{} {}", a, v))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
            Ok(TimeTag::new(1000 + self.next_tag))
        }
        fn remove(&mut self, tag: TimeTag) -> Result<bool, CoreError> {
            self.log.push(format!("remove {}", tag));
            Ok(true)
        }
        fn modify(
            &mut self,
            tag: TimeTag,
            updates: &[(Symbol, Value)],
        ) -> Result<Option<TimeTag>, CoreError> {
            self.log.push(format!(
                "modify {} {}",
                tag,
                updates
                    .iter()
                    .map(|(a, v)| format!("^{} {}", a, v))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
            self.next_tag += 1;
            Ok(Some(TimeTag::new(1000 + self.next_tag)))
        }
        fn write_line(&mut self, line: String) -> Result<(), CoreError> {
            self.log.push(format!("write {}", line));
            Ok(())
        }
        fn halt(&mut self) -> Result<(), CoreError> {
            self.log.push("halt".into());
            Ok(())
        }
        fn note_bind(&mut self) -> Result<(), CoreError> {
            Ok(())
        }
    }

    /// Build a ctx for the paper's Figure-4 instantiation.
    fn figure4_ctx(src: &str) -> RhsCtx {
        let rule = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
        let mk = |tag: u64, name: &str, team: &str| {
            Wme::new(
                TimeTag::new(tag),
                Symbol::new("player"),
                vec![
                    (Symbol::new("name"), Value::sym(name)),
                    (Symbol::new("team"), Value::sym(team)),
                ],
            )
        };
        let wmes_list = vec![
            mk(1, "Jack", "A"),
            mk(2, "Janice", "A"),
            mk(3, "Sue", "B"),
            mk(4, "Jack", "B"),
            mk(5, "Sue", "B"),
        ];
        let mut wmes = FxHashMap::default();
        // Rows in recency (conflict-set) order: tag 5 first.
        let mut rows: Vec<Box<[TimeTag]>> = Vec::new();
        for w in wmes_list.iter().rev() {
            rows.push(vec![w.tag].into());
        }
        for w in wmes_list {
            wmes.insert(w.tag, w);
        }
        RhsCtx::new(rule, rows.iter().collect(), wmes, vec![])
    }

    #[test]
    fn figure4_nested_foreach_groups_by_team_then_name() {
        // (p GroupByTeam [player ^team <t> ^name <n>]
        //    (foreach <t> (write <t>) (foreach <n> (write <n>))))
        let ctx_src = "(p GroupByTeam [player ^team <t> ^name <n>]
            (foreach <t> (write <t>) (foreach <n> (write <n>))))";
        let mut ctx = figure4_ctx(ctx_src);
        let mut host = LogHost::default();
        let rhs = ctx.rule.rhs.clone();
        execute(&mut host, &mut ctx, &rhs).unwrap();
        // Paper's trace: first outer iteration <t>=B (most recent), inner
        // Sue then Jack (Sue is most recent); second outer <t>=A, inner
        // Janice then Jack. Duplicate Sue printed once.
        assert_eq!(
            host.log,
            vec![
                "write B",
                "write Sue",
                "write Jack",
                "write A",
                "write Janice",
                "write Jack",
            ]
        );
    }

    #[test]
    fn foreach_ascending_descending() {
        let src = "(p r [item ^n <n>] (foreach <n> ascending (write <n>)))";
        let rule = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
        let mut wmes = FxHashMap::default();
        let mut rows: Vec<Box<[TimeTag]>> = Vec::new();
        for (tag, n) in [(1u64, 30i64), (2, 10), (3, 20)] {
            let w = Wme::new(
                TimeTag::new(tag),
                Symbol::new("item"),
                vec![(Symbol::new("n"), Value::Int(n))],
            );
            rows.insert(0, vec![w.tag].into());
            wmes.insert(w.tag, w);
        }
        let mut ctx = RhsCtx::new(rule, rows.iter().collect(), wmes, vec![]);
        let mut host = LogHost::default();
        let rhs = ctx.rule.rhs.clone();
        execute(&mut host, &mut ctx, &rhs).unwrap();
        assert_eq!(host.log, vec!["write 10", "write 20", "write 30"]);
    }

    #[test]
    fn removedups_keeps_most_recent() {
        // The paper's RemoveDups body: descending foreach over <P>, keep
        // the first (most recent tag), remove the rest.
        let src = "(p RemoveDups { [player ^name <n> ^team <t>] <P> }
            :scalar (<n> <t>) :test ((count <P>) > 1)
            (bind <First> true)
            (foreach <P> descending
              (if (<First> == true) (bind <First> false) else (remove <P>))))";
        let rule = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
        let mut wmes = FxHashMap::default();
        let mut rows: Vec<Box<[TimeTag]>> = Vec::new();
        for tag in [7u64, 3, 5] {
            let w = Wme::new(
                TimeTag::new(tag),
                Symbol::new("player"),
                vec![
                    (Symbol::new("name"), Value::sym("Sue")),
                    (Symbol::new("team"), Value::sym("B")),
                ],
            );
            rows.push(vec![w.tag].into());
            wmes.insert(w.tag, w);
        }
        let mut ctx = RhsCtx::new(rule, rows.iter().collect(), wmes, vec![Value::Int(3)]);
        let mut host = LogHost::default();
        let rhs = ctx.rule.rhs.clone();
        execute(&mut host, &mut ctx, &rhs).unwrap();
        // Descending tag order: 7 kept, 5 and 3 removed.
        assert_eq!(host.log, vec!["remove 5", "remove 3"]);
    }

    #[test]
    fn set_modify_applies_to_all_wmes_in_context() {
        let src = "(p SwitchTeams { [player ^team A] <ATeam> } { [player ^team B] <BTeam> }
            :test ((count <ATeam>) == (count <BTeam>))
            (set-modify <ATeam> ^team B) (set-modify <BTeam> ^team A))";
        let rule = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
        let mut wmes = FxHashMap::default();
        let mk = |tag: u64, team: &str| {
            Wme::new(
                TimeTag::new(tag),
                Symbol::new("player"),
                vec![(Symbol::new("team"), Value::sym(team))],
            )
        };
        for (t, team) in [(1u64, "A"), (2, "A"), (3, "B"), (4, "B")] {
            wmes.insert(TimeTag::new(t), mk(t, team));
        }
        // Cross product rows: (A-wme, B-wme).
        let rows: Vec<Box<[TimeTag]>> = vec![
            vec![TimeTag::new(2), TimeTag::new(4)].into(),
            vec![TimeTag::new(1), TimeTag::new(4)].into(),
            vec![TimeTag::new(2), TimeTag::new(3)].into(),
            vec![TimeTag::new(1), TimeTag::new(3)].into(),
        ];
        let mut ctx = RhsCtx::new(
            rule,
            rows.iter().collect(),
            wmes,
            vec![Value::Int(2), Value::Int(2)],
        );
        let mut host = LogHost::default();
        let rhs = ctx.rule.rhs.clone();
        execute(&mut host, &mut ctx, &rhs).unwrap();
        // Each of the 4 WMEs modified exactly once despite appearing in 2 rows.
        assert_eq!(
            host.log,
            vec![
                "modify 2 ^team B",
                "modify 1 ^team B",
                "modify 4 ^team A",
                "modify 3 ^team A"
            ]
        );
    }

    /// Run `src`'s RHS over `rows` (no WME fields read) and return the log.
    fn run_over_rows(src: &str, rows: &[&[u64]]) -> Vec<String> {
        let rule = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
        let rows: Vec<Vec<TimeTag>> = rows
            .iter()
            .map(|r| r.iter().map(|&t| TimeTag::new(t)).collect())
            .collect();
        let mut ctx = RhsCtx::new(rule, rows.iter().collect(), FxHashMap::default(), vec![]);
        let mut host = LogHost::default();
        let rhs = ctx.rule.rhs.clone();
        execute(&mut host, &mut ctx, &rhs).unwrap();
        host.log
    }

    /// Two set-oriented CEs: a WME of the first sits in several rows of
    /// the cross product and is still modified once.
    #[test]
    fn set_modify_over_a_joined_set_ce_modifies_each_wme_once() {
        let src = "(p pairs { [a ^k <k>] <A> } { [b ^k <k>] <B> } (set-modify <A> ^s done))";
        let log = run_over_rows(src, &[&[1, 5], &[1, 4], &[2, 4], &[1, 3]]);
        assert_eq!(log, ["modify 1 ^s done", "modify 2 ^s done"]);
    }

    /// One set-oriented CE beside a scalar CE: each row names a distinct
    /// WME of the set CE, in row order.
    #[test]
    fn set_modify_over_the_only_set_ce_takes_the_rows_tags() {
        let src = "(p sweep (limit ^n <n>) { [item ^s pending] <P> } (set-modify <P> ^s done))";
        let log = run_over_rows(src, &[&[9, 3], &[9, 2], &[9, 1]]);
        assert_eq!(
            log,
            ["modify 3 ^s done", "modify 2 ^s done", "modify 1 ^s done"]
        );
    }

    #[test]
    fn singleton_domain_reads_as_scalar() {
        // §6.1: inside `foreach <sub>`, sibling PV <q> has one value per
        // iteration and may be read directly.
        let src = "(p r [part ^child <sub> ^qty <q>]
            (foreach <sub> (write <sub> x <q>)))";
        let rule = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
        let mut wmes = FxHashMap::default();
        let mut rows: Vec<Box<[TimeTag]>> = Vec::new();
        for (tag, child, qty) in [(1u64, "piston", 4i64), (2, "valve", 8)] {
            let w = Wme::new(
                TimeTag::new(tag),
                Symbol::new("part"),
                vec![
                    (Symbol::new("child"), Value::sym(child)),
                    (Symbol::new("qty"), Value::Int(qty)),
                ],
            );
            rows.insert(0, vec![w.tag].into());
            wmes.insert(w.tag, w);
        }
        let mut ctx = RhsCtx::new(rule, rows.iter().collect(), wmes, vec![]);
        let mut host = LogHost::default();
        let rhs = ctx.rule.rhs.clone();
        execute(&mut host, &mut ctx, &rhs).unwrap();
        assert_eq!(host.log, vec!["write valve x 8", "write piston x 4"]);
    }

    #[test]
    fn scalar_use_of_set_var_errors() {
        let src = "(p r [player ^name <n>] (write <n>))";
        let mut ctx = figure4_ctx(src);
        let mut host = LogHost::default();
        let rhs = ctx.rule.rhs.clone();
        let err = execute(&mut host, &mut ctx, &rhs).unwrap_err();
        assert!(err.to_string().contains("foreach"), "{}", err);
    }

    #[test]
    fn remove_of_set_elem_requires_foreach() {
        let src = "(p r { [player ^name <n>] <P> } (remove <P>))";
        let mut ctx = figure4_ctx(src);
        let mut host = LogHost::default();
        let rhs = ctx.rule.rhs.clone();
        let err = execute(&mut host, &mut ctx, &rhs).unwrap_err();
        assert!(err.to_string().contains("set-remove"), "{}", err);
    }

    #[test]
    fn aggregate_readable_in_rhs() {
        let src = "(p r { [player ^name <n>] <P> } :test ((count <P>) > 0)
            (write (count <P>)))";
        let rule = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
        let w = Wme::new(
            TimeTag::new(1),
            Symbol::new("player"),
            vec![(Symbol::new("name"), Value::sym("x"))],
        );
        let mut wmes = FxHashMap::default();
        wmes.insert(w.tag, w);
        let mut ctx = RhsCtx::new(
            rule,
            Rows::one(vec![TimeTag::new(1)]),
            wmes,
            vec![Value::Int(5)],
        );
        let mut host = LogHost::default();
        let rhs = ctx.rule.rhs.clone();
        execute(&mut host, &mut ctx, &rhs).unwrap();
        assert_eq!(host.log, vec!["write 5"]);
    }

    /// The snapshot holds the CEs `rhs_reads` names; a read outside them
    /// is an analysis bug, which debug builds assert on and release builds
    /// report as a typed RHS error.
    #[test]
    fn a_read_outside_the_snapshot_is_an_rhs_error() {
        let src = "(p r (a ^x <x>) (write <x>))";
        let rule = Arc::new(analyze_rule(&parse_rule(src).unwrap()).unwrap());
        let mut ctx = RhsCtx::new(
            rule,
            Rows::one(vec![TimeTag::new(1)]),
            FxHashMap::default(),
            vec![],
        );
        let rhs = ctx.rule.rhs.clone();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&mut LogHost::default(), &mut ctx, &rhs)
        }));
        assert_eq!(
            run.is_err(),
            cfg!(debug_assertions),
            "only a debug assertion panics"
        );
        if let Ok(r) = run {
            let err = r.unwrap_err().to_string();
            assert!(err.contains("outside its firing snapshot"), "{}", err);
        }
    }
}
