//! Semantic analysis: turns a parsed [`Rule`] into an [`AnalyzedRule`] that
//! match engines can compile directly.
//!
//! This is where the paper's §4.1 variable classification happens:
//!
//! - a pattern variable is **set-oriented** iff it occurs only in
//!   set-oriented positive CEs and is not listed in `:scalar`;
//! - a PV occurring in both a set-oriented and a regular CE is scalar
//!   ("bound to the value occurring in the WME matching the regular CE");
//! - the S-node static data `(C, P, APVs, ACEs, T)` is derived here:
//!   `C` = the non-set-oriented positive CEs ([`AnalyzedRule::scalar_ces`]),
//!   `P` = the set-oriented PVs forced scalar ([`AnalyzedRule::scalar_pvs`]),
//!   `APVs`/`ACEs` = the aggregate specs ([`AnalyzedRule::aggregates`]),
//!   `T` = the `:test` expressions ([`AnalyzedRule::tests`]).

use crate::ast::*;
use sorete_base::{FxHashMap, FxHashSet, Symbol, Value};
use std::fmt;

/// An error found while analysing a rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalyzeError {
    /// Offending rule.
    pub rule: Symbol,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule `{}`: {}", self.rule, self.message)
    }
}

impl std::error::Error for AnalyzeError {}

/// A constant (alpha) test on one attribute.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ConstTest {
    /// Tested attribute.
    pub attr: Symbol,
    /// The test.
    pub kind: ConstTestKind,
}

/// Kinds of constant tests.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ConstTestKind {
    /// `attr pred value`.
    Pred(Pred, Value),
    /// `attr << v1 v2 ... >>`.
    AnyOf(Vec<Value>),
}

impl ConstTest {
    /// Evaluate against a WME attribute value.
    pub fn matches(&self, actual: &Value) -> bool {
        match &self.kind {
            ConstTestKind::Pred(p, v) => p.apply(actual, v),
            ConstTestKind::AnyOf(vals) => vals.iter().any(|v| v == actual),
        }
    }
}

/// A variable consistency test between this CE and an earlier positive CE
/// (a join test in database terms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VarJoin {
    /// Attribute of *this* CE.
    pub attr: Symbol,
    /// Predicate, oriented as `this.attr pred other.attr`.
    pub pred: Pred,
    /// Positive index of the earlier CE the variable was bound in.
    pub other_pos_ce: usize,
    /// Attribute of the earlier CE holding the binding.
    pub other_attr: Symbol,
}

/// A variable consistency test between two attributes of the *same* CE.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IntraTest {
    /// Attribute being tested.
    pub attr: Symbol,
    /// Predicate, oriented as `attr pred other_attr`.
    pub pred: Pred,
    /// The attribute bound earlier in this CE.
    pub other_attr: Symbol,
}

/// A condition element after analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzedCe {
    /// WME class.
    pub class: Symbol,
    /// Absence test.
    pub negated: bool,
    /// `[...]` CE.
    pub set_oriented: bool,
    /// Index among positive CEs (column in instantiation rows); `None` for
    /// negated CEs.
    pub pos_idx: Option<usize>,
    /// Alpha tests.
    pub const_tests: Vec<ConstTest>,
    /// Join tests against earlier positive CEs.
    pub var_joins: Vec<VarJoin>,
    /// Same-CE variable tests.
    pub intra_tests: Vec<IntraTest>,
    /// First-occurrence bindings this CE introduces: `(attr, var)`.
    pub binds: Vec<(Symbol, Symbol)>,
}

/// Where a pattern variable gets its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VarSource {
    /// Positive CE index of the binding occurrence.
    pub pos_ce: usize,
    /// Attribute within that CE.
    pub attr: Symbol,
    /// True if the variable is set-oriented (its "value" is a domain).
    pub set_oriented: bool,
}

/// An aggregate operation required by the rule (`APVs` ∪ `ACEs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggSpec {
    /// The operator.
    pub op: AggOp,
    /// What it aggregates over.
    pub target: AggTarget,
}

/// Target of an aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggTarget {
    /// A set-oriented pattern variable: aggregate over its domain, read
    /// from `(pos_ce, attr)` across the SOI's rows.
    Pv {
        /// The variable.
        var: Symbol,
        /// Positive CE supplying the values.
        pos_ce: usize,
        /// Attribute supplying the values.
        attr: Symbol,
    },
    /// An element variable of a set-oriented CE: aggregate over the WMEs
    /// matched by that CE.
    Ce {
        /// The element variable.
        var: Symbol,
        /// The CE's positive index.
        pos_ce: usize,
    },
}

impl AggTarget {
    /// The variable this aggregate refers to in source text.
    pub fn var(&self) -> Symbol {
        match self {
            AggTarget::Pv { var, .. } | AggTarget::Ce { var, .. } => *var,
        }
    }
}

/// A `:scalar` pattern variable that would otherwise be set-oriented
/// (the paper's `P`): part of the SOI key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScalarPv {
    /// The variable.
    pub var: Symbol,
    /// Positive CE its value is read from.
    pub pos_ce: usize,
    /// Attribute its value is read from.
    pub attr: Symbol,
}

/// A fully analysed rule, ready for compilation into any matcher.
#[derive(Clone, Debug)]
pub struct AnalyzedRule {
    /// Rule name.
    pub name: Symbol,
    /// All CEs, in source order.
    pub ces: Vec<AnalyzedCe>,
    /// Number of positive CEs (the width of instantiation rows).
    pub num_pos: usize,
    /// True if any positive CE is set-oriented.
    pub is_set_oriented: bool,
    /// `C`: positive indices of the non-set-oriented positive CEs.
    pub scalar_ces: Vec<usize>,
    /// `P`: `:scalar` PVs occurring only in set CEs.
    pub scalar_pvs: Vec<ScalarPv>,
    /// `APVs` ∪ `ACEs`: aggregate operations, in first-reference order.
    pub aggregates: Vec<AggSpec>,
    /// `T`: the `:test` expressions (conjoined).
    pub tests: Vec<Expr>,
    /// OPS5 specificity (total number of LHS tests).
    pub specificity: u32,
    /// RHS actions.
    pub rhs: Vec<Action>,
    /// Element variables: var → positive CE index.
    pub elem_vars: FxHashMap<Symbol, usize>,
    /// Canonical binding site of every pattern variable.
    pub var_sources: FxHashMap<Symbol, VarSource>,
    /// Positive CEs the RHS reads a field of, ascending: the sources of
    /// every variable in an action expression and of every pattern
    /// variable a `foreach` iterates. A firing snapshots only these CEs'
    /// WMEs.
    pub rhs_reads: Vec<usize>,
    /// The original AST (for printing and error messages).
    pub source: Rule,
}

impl AnalyzedRule {
    /// Index of an aggregate `(op, var)` within [`Self::aggregates`], which
    /// is also its index in `ConflictItem::aggregates`.
    pub fn agg_index(&self, op: AggOp, var: Symbol) -> Option<usize> {
        self.aggregates
            .iter()
            .position(|a| a.op == op && a.target.var() == var)
    }

    /// True if `var` is a set-oriented pattern variable.
    pub fn is_set_var(&self, var: Symbol) -> bool {
        self.var_sources.get(&var).is_some_and(|s| s.set_oriented)
    }

    /// The positive CE index whose set-oriented element variable is `var`.
    pub fn set_elem_ce(&self, var: Symbol) -> Option<usize> {
        let &pos = self.elem_vars.get(&var)?;
        let ce = self.ces.iter().find(|c| c.pos_idx == Some(pos))?;
        ce.set_oriented.then_some(pos)
    }
}

/// Analyse one rule.
pub fn analyze_rule(rule: &Rule) -> Result<AnalyzedRule, AnalyzeError> {
    Analyzer::new(rule).run()
}

/// Analyse every rule of a program.
pub fn analyze_program(prog: &Program) -> Result<Vec<AnalyzedRule>, AnalyzeError> {
    let mut seen = FxHashSet::default();
    for r in &prog.rules {
        if !seen.insert(r.name) {
            return Err(AnalyzeError {
                rule: r.name,
                message: "duplicate rule name".into(),
            });
        }
    }
    prog.rules.iter().map(analyze_rule).collect()
}

struct Analyzer<'a> {
    rule: &'a Rule,
}

impl<'a> Analyzer<'a> {
    fn new(rule: &'a Rule) -> Self {
        Analyzer { rule }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, AnalyzeError> {
        Err(AnalyzeError {
            rule: self.rule.name,
            message: message.into(),
        })
    }

    fn run(self) -> Result<AnalyzedRule, AnalyzeError> {
        let rule = self.rule;

        // -------- pass 1: variable occurrence census (positive CEs only).
        // occurs_regular / occurs_set: does the var occur in a regular /
        // set-oriented positive CE?
        let mut occurs_regular: FxHashSet<Symbol> = FxHashSet::default();
        let mut occurs_set: FxHashSet<Symbol> = FxHashSet::default();
        for ce in &rule.lhs {
            if ce.negated {
                if ce.set_oriented {
                    return self.err("a negated CE cannot be set-oriented");
                }
                if ce.elem_var.is_some() {
                    return self.err("a negated CE cannot bind an element variable");
                }
                continue;
            }
            for t in &ce.tests {
                for_each_var(&t.terms, &mut |v| {
                    if ce.set_oriented {
                        occurs_set.insert(v);
                    } else {
                        occurs_regular.insert(v);
                    }
                });
            }
        }
        let scalar_listed: FxHashSet<Symbol> = rule.scalar.iter().copied().collect();
        for v in &rule.scalar {
            if !occurs_set.contains(v) && !occurs_regular.contains(v) {
                return self.err(format!(
                    "`:scalar` variable <{}> does not occur in the LHS",
                    v
                ));
            }
        }
        let is_set_var = |v: Symbol| {
            occurs_set.contains(&v) && !occurs_regular.contains(&v) && !scalar_listed.contains(&v)
        };

        // -------- pass 2: per-CE analysis, binding sites, join extraction.
        let mut ces: Vec<AnalyzedCe> = Vec::with_capacity(rule.lhs.len());
        let mut var_sources: FxHashMap<Symbol, VarSource> = FxHashMap::default();
        let mut elem_vars: FxHashMap<Symbol, usize> = FxHashMap::default();
        let mut num_pos = 0usize;
        let mut specificity = 0u32;

        for ce in &rule.lhs {
            let pos_idx = if ce.negated {
                None
            } else {
                let i = num_pos;
                num_pos += 1;
                Some(i)
            };
            specificity += 1; // the class test
            let mut ace = AnalyzedCe {
                class: ce.class,
                negated: ce.negated,
                set_oriented: ce.set_oriented,
                pos_idx,
                const_tests: Vec::new(),
                var_joins: Vec::new(),
                intra_tests: Vec::new(),
                binds: Vec::new(),
            };
            // Variables bound earlier *within this CE* (attr they bound to).
            let mut local_binds: FxHashMap<Symbol, Symbol> = FxHashMap::default();

            for t in &ce.tests {
                let mut terms: Vec<&TestTerm> = Vec::new();
                flatten_terms(&t.terms, &mut terms);
                for term in terms {
                    specificity += 1;
                    match term {
                        TestTerm::AnyOf(vals) => ace.const_tests.push(ConstTest {
                            attr: t.attr,
                            kind: ConstTestKind::AnyOf(vals.clone()),
                        }),
                        TestTerm::Pred(p, Operand::Const(v)) => ace.const_tests.push(ConstTest {
                            attr: t.attr,
                            kind: ConstTestKind::Pred(*p, *v),
                        }),
                        TestTerm::Pred(p, Operand::Var(v)) => {
                            if let Some(&bound_attr) = local_binds.get(v) {
                                ace.intra_tests.push(IntraTest {
                                    attr: t.attr,
                                    pred: *p,
                                    other_attr: bound_attr,
                                });
                            } else if let Some(src) = var_sources.get(v) {
                                ace.var_joins.push(VarJoin {
                                    attr: t.attr,
                                    pred: *p,
                                    other_pos_ce: src.pos_ce,
                                    other_attr: src.attr,
                                });
                            } else if *p == Pred::Eq {
                                if ce.negated {
                                    // Binding local to the negated CE.
                                    local_binds.insert(*v, t.attr);
                                } else {
                                    local_binds.insert(*v, t.attr);
                                    ace.binds.push((t.attr, *v));
                                    var_sources.insert(
                                        *v,
                                        VarSource {
                                            pos_ce: pos_idx.unwrap(),
                                            attr: t.attr,
                                            set_oriented: is_set_var(*v),
                                        },
                                    );
                                }
                            } else {
                                return self.err(format!(
                                    "variable <{}> is used with `{:?}` before being bound",
                                    v, p
                                ));
                            }
                        }
                        TestTerm::Conj(_) => unreachable!("flattened"),
                    }
                }
            }

            if let Some(ev) = ce.elem_var {
                if var_sources.contains_key(&ev) || elem_vars.contains_key(&ev) {
                    return self.err(format!("element variable <{}> is already bound", ev));
                }
                elem_vars.insert(ev, pos_idx.unwrap());
            }
            ces.push(ace);
        }

        let is_set_oriented = ces.iter().any(|c| !c.negated && c.set_oriented);
        if !is_set_oriented && !rule.tests.is_empty() {
            return self.err("`:test` requires at least one set-oriented CE");
        }
        if !is_set_oriented && !rule.scalar.is_empty() {
            return self.err("`:scalar` requires at least one set-oriented CE");
        }

        // -------- S-node static data.
        let scalar_ces: Vec<usize> = ces
            .iter()
            .filter(|c| !c.negated && !c.set_oriented)
            .map(|c| c.pos_idx.unwrap())
            .collect();

        let mut scalar_pvs = Vec::new();
        for v in &rule.scalar {
            // Only vars that would otherwise be set-oriented join the key;
            // a `:scalar` var also bound by a regular CE is already scalar.
            if occurs_regular.contains(v) {
                continue;
            }
            let src = match var_sources.get(v) {
                Some(s) => s,
                None => return self.err(format!("`:scalar` variable <{}> is never bound", v)),
            };
            scalar_pvs.push(ScalarPv {
                var: *v,
                pos_ce: src.pos_ce,
                attr: src.attr,
            });
        }

        // -------- aggregates referenced anywhere in :test or the RHS.
        let mut aggregates: Vec<AggSpec> = Vec::new();
        {
            let mut add = |op: AggOp, var: Symbol| -> Result<(), AnalyzeError> {
                let target = if let Some(&pos) = elem_vars.get(&var) {
                    let ce = ces.iter().find(|c| c.pos_idx == Some(pos)).unwrap();
                    if !ce.set_oriented {
                        return Err(AnalyzeError {
                            rule: rule.name,
                            message: format!(
                                "aggregate ({} <{}>) over a non-set-oriented element variable",
                                op.name(),
                                var
                            ),
                        });
                    }
                    if op != AggOp::Count {
                        return Err(AnalyzeError {
                            rule: rule.name,
                            message: format!(
                                "only `count` applies to an element variable, not `{}`",
                                op.name()
                            ),
                        });
                    }
                    AggTarget::Ce { var, pos_ce: pos }
                } else if let Some(src) = var_sources.get(&var) {
                    if !src.set_oriented {
                        return Err(AnalyzeError {
                            rule: rule.name,
                            message: format!(
                                "aggregate ({} <{}>) over a scalar variable",
                                op.name(),
                                var
                            ),
                        });
                    }
                    AggTarget::Pv {
                        var,
                        pos_ce: src.pos_ce,
                        attr: src.attr,
                    }
                } else {
                    return Err(AnalyzeError {
                        rule: rule.name,
                        message: format!("aggregate over unbound variable <{}>", var),
                    });
                };
                let spec = AggSpec { op, target };
                if !aggregates.contains(&spec) {
                    aggregates.push(spec);
                }
                Ok(())
            };
            for t in &rule.tests {
                collect_aggs(t, &mut |op, var| add(op, var))?;
            }
            for a in &rule.rhs {
                collect_aggs_action(a, &mut |op, var| add(op, var))?;
            }
        }
        specificity += rule.tests.len() as u32;

        // -------- :test variable validation: only scalars and aggregates.
        for t in &rule.tests {
            let mut bad: Option<Symbol> = None;
            vars_in_expr(t, &mut |v| {
                let known_scalar = var_sources.get(&v).is_some_and(|s| !s.set_oriented)
                    || scalar_pvs.iter().any(|sp| sp.var == v);
                if !known_scalar && bad.is_none() {
                    bad = Some(v);
                }
            });
            if let Some(v) = bad {
                return self.err(format!(
                    "`:test` may reference scalar variables and aggregates only; <{}> is not scalar",
                    v
                ));
            }
        }

        // -------- RHS validation.
        let analyzed = AnalyzedRule {
            name: rule.name,
            ces,
            num_pos,
            is_set_oriented,
            scalar_ces,
            scalar_pvs,
            aggregates,
            tests: rule.tests.clone(),
            specificity,
            rhs: rule.rhs.clone(),
            rhs_reads: rhs_reads(&rule.rhs, &var_sources),
            elem_vars,
            var_sources,
            source: rule.clone(),
        };
        self.validate_rhs(&analyzed)?;
        Ok(analyzed)
    }

    fn validate_rhs(&self, ar: &AnalyzedRule) -> Result<(), AnalyzeError> {
        let mut bound: FxHashSet<Symbol> = FxHashSet::default();
        self.validate_actions(ar, &ar.rhs, &mut bound, &mut FxHashSet::default())
    }

    fn validate_actions(
        &self,
        ar: &AnalyzedRule,
        actions: &[Action],
        rhs_binds: &mut FxHashSet<Symbol>,
        iterated: &mut FxHashSet<Symbol>,
    ) -> Result<(), AnalyzeError> {
        for a in actions {
            match a {
                Action::Make { slots, .. } => {
                    for (_, e) in slots {
                        self.validate_expr(ar, e, rhs_binds)?;
                    }
                }
                Action::Remove(t) | Action::Modify { target: t, .. } => {
                    if let RhsTarget::Var(v) = t {
                        if !ar.elem_vars.contains_key(v) {
                            return self.err(format!(
                                "`remove`/`modify` target <{}> is not an element variable",
                                v
                            ));
                        }
                    }
                    if let RhsTarget::Idx(i) = t {
                        if *i == 0 || *i > ar.num_pos {
                            return self.err(format!("CE index {} out of range", i));
                        }
                    }
                    if let Action::Modify { slots, .. } = a {
                        for (_, e) in slots {
                            self.validate_expr(ar, e, rhs_binds)?;
                        }
                    }
                }
                Action::SetRemove(v) | Action::SetModify { var: v, .. } => {
                    if ar.set_elem_ce(*v).is_none() {
                        return self.err(format!(
                            "`set-remove`/`set-modify` target <{}> is not a set-oriented element variable",
                            v
                        ));
                    }
                    if let Action::SetModify { slots, .. } = a {
                        for (_, e) in slots {
                            self.validate_expr(ar, e, rhs_binds)?;
                        }
                    }
                }
                Action::Write(parts) => {
                    for e in parts {
                        self.validate_expr(ar, e, rhs_binds)?;
                    }
                }
                Action::Bind(v, e) => {
                    self.validate_expr(ar, e, rhs_binds)?;
                    rhs_binds.insert(*v);
                }
                Action::Halt => {}
                Action::ForEach { var, body, .. } => {
                    let is_set_pv = ar.is_set_var(*var) && !iterated.contains(var);
                    let is_set_ce = ar.set_elem_ce(*var).is_some() && !iterated.contains(var);
                    if !is_set_pv && !is_set_ce {
                        return self.err(format!(
                            "`foreach` variable <{}> is not an (un-iterated) set-oriented variable",
                            var
                        ));
                    }
                    iterated.insert(*var);
                    self.validate_actions(ar, body, rhs_binds, iterated)?;
                    iterated.remove(var);
                }
                Action::If { cond, then, els } => {
                    self.validate_expr(ar, cond, rhs_binds)?;
                    // Bindings escape branches (the paper's RemoveDups sets
                    // <First> inside a branch and reads it next iteration).
                    self.validate_actions(ar, then, rhs_binds, iterated)?;
                    self.validate_actions(ar, els, rhs_binds, iterated)?;
                }
            }
        }
        Ok(())
    }

    fn validate_expr(
        &self,
        ar: &AnalyzedRule,
        e: &Expr,
        rhs_binds: &FxHashSet<Symbol>,
    ) -> Result<(), AnalyzeError> {
        let mut bad: Option<Symbol> = None;
        vars_in_expr(e, &mut |v| {
            let known = ar.var_sources.contains_key(&v)
                || ar.elem_vars.contains_key(&v)
                || rhs_binds.contains(&v);
            if !known && bad.is_none() {
                bad = Some(v);
            }
        });
        match bad {
            Some(v) => self.err(format!("unbound variable <{}> in RHS expression", v)),
            None => Ok(()),
        }
    }
}

fn flatten_terms<'t>(terms: &'t [TestTerm], out: &mut Vec<&'t TestTerm>) {
    for t in terms {
        match t {
            TestTerm::Conj(inner) => flatten_terms(inner, out),
            other => out.push(other),
        }
    }
}

/// Visit variables in *binding* position (equality tests). Only equality
/// occurrences determine whether a PV is scalar or set-oriented: a
/// comparison like `^z > <v>` tests against the variable but does not bind
/// it, so it does not affect the census.
fn for_each_var(terms: &[TestTerm], f: &mut impl FnMut(Symbol)) {
    for t in terms {
        match t {
            TestTerm::Pred(Pred::Eq, Operand::Var(v)) => f(*v),
            TestTerm::Conj(inner) => for_each_var(inner, f),
            _ => {}
        }
    }
}

/// The positive CEs `actions` read a field of (see
/// [`AnalyzedRule::rhs_reads`]), ascending.
fn rhs_reads(actions: &[Action], sources: &FxHashMap<Symbol, VarSource>) -> Vec<usize> {
    fn read(e: &Expr, sources: &FxHashMap<Symbol, VarSource>, out: &mut Vec<usize>) {
        vars_in_expr(e, &mut |v| {
            if let Some(src) = sources.get(&v) {
                out.push(src.pos_ce);
            }
        })
    }
    fn walk(actions: &[Action], sources: &FxHashMap<Symbol, VarSource>, out: &mut Vec<usize>) {
        for a in actions {
            match a {
                Action::Make { slots, .. }
                | Action::Modify { slots, .. }
                | Action::SetModify { slots, .. } => {
                    slots.iter().for_each(|(_, e)| read(e, sources, out))
                }
                Action::Write(parts) => parts.iter().for_each(|e| read(e, sources, out)),
                Action::Bind(_, e) => read(e, sources, out),
                Action::Remove(_) | Action::SetRemove(_) | Action::Halt => {}
                Action::If { cond, then, els } => {
                    read(cond, sources, out);
                    walk(then, sources, out);
                    walk(els, sources, out);
                }
                Action::ForEach { var, body, .. } => {
                    // Iterating a pattern variable reads its domain; an
                    // element variable's WMEs are named by the rows alone.
                    if let Some(src) = sources.get(var) {
                        out.push(src.pos_ce);
                    }
                    walk(body, sources, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(actions, sources, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

/// Visit every `Var` reference in an expression (not aggregate targets).
pub fn vars_in_expr(e: &Expr, f: &mut impl FnMut(Symbol)) {
    match e {
        Expr::Const(_) | Expr::Agg(..) => {}
        Expr::Var(v) => f(*v),
        Expr::Bin(_, l, r) | Expr::Cmp(_, l, r) => {
            vars_in_expr(l, f);
            vars_in_expr(r, f);
        }
        Expr::And(parts) | Expr::Or(parts) => {
            for p in parts {
                vars_in_expr(p, f);
            }
        }
        Expr::Not(inner) => vars_in_expr(inner, f),
    }
}

fn collect_aggs(
    e: &Expr,
    f: &mut impl FnMut(AggOp, Symbol) -> Result<(), AnalyzeError>,
) -> Result<(), AnalyzeError> {
    match e {
        Expr::Agg(op, var) => f(*op, *var),
        Expr::Const(_) | Expr::Var(_) => Ok(()),
        Expr::Bin(_, l, r) | Expr::Cmp(_, l, r) => {
            collect_aggs(l, f)?;
            collect_aggs(r, f)
        }
        Expr::And(parts) | Expr::Or(parts) => {
            for p in parts {
                collect_aggs(p, f)?;
            }
            Ok(())
        }
        Expr::Not(inner) => collect_aggs(inner, f),
    }
}

fn collect_aggs_action(
    a: &Action,
    f: &mut impl FnMut(AggOp, Symbol) -> Result<(), AnalyzeError>,
) -> Result<(), AnalyzeError> {
    match a {
        Action::Make { slots, .. }
        | Action::Modify { slots, .. }
        | Action::SetModify { slots, .. } => {
            for (_, e) in slots {
                collect_aggs(e, f)?;
            }
            Ok(())
        }
        Action::Write(parts) => {
            for e in parts {
                collect_aggs(e, f)?;
            }
            Ok(())
        }
        Action::Bind(_, e) => collect_aggs(e, f),
        Action::Remove(_) | Action::SetRemove(_) | Action::Halt => Ok(()),
        Action::ForEach { body, .. } => {
            for a in body {
                collect_aggs_action(a, f)?;
            }
            Ok(())
        }
        Action::If { cond, then, els } => {
            collect_aggs(cond, f)?;
            for a in then.iter().chain(els) {
                collect_aggs_action(a, f)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;

    fn analyze(src: &str) -> AnalyzedRule {
        analyze_rule(&parse_rule(src).unwrap()).unwrap()
    }

    fn analyze_err(src: &str) -> AnalyzeError {
        analyze_rule(&parse_rule(src).unwrap()).unwrap_err()
    }

    #[test]
    fn classifies_figure1_compete_as_regular() {
        let ar = analyze(
            "(p compete (player ^name <n1> ^team A) (player ^name <n2> ^team B) (write x))",
        );
        assert!(!ar.is_set_oriented);
        assert_eq!(ar.num_pos, 2);
        assert_eq!(ar.scalar_ces, vec![0, 1]);
        assert!(!ar.var_sources[&Symbol::new("n1")].set_oriented);
    }

    #[test]
    fn join_extraction() {
        let ar = analyze("(p r (a ^x <v>) (b ^y <v> ^z > <v>) (write x))");
        let ce1 = &ar.ces[1];
        assert_eq!(ce1.var_joins.len(), 2);
        assert_eq!(
            ce1.var_joins[0],
            VarJoin {
                attr: Symbol::new("y"),
                pred: Pred::Eq,
                other_pos_ce: 0,
                other_attr: Symbol::new("x"),
            }
        );
        assert_eq!(ce1.var_joins[1].pred, Pred::Gt);
    }

    #[test]
    fn intra_ce_test() {
        let ar = analyze("(p r (a ^x <v> ^y <> <v>) (write x))");
        let ce = &ar.ces[0];
        assert_eq!(ce.binds, vec![(Symbol::new("x"), Symbol::new("v"))]);
        assert_eq!(
            ce.intra_tests,
            vec![IntraTest {
                attr: Symbol::new("y"),
                pred: Pred::Ne,
                other_attr: Symbol::new("x"),
            }]
        );
    }

    #[test]
    fn set_variable_classification() {
        // <n> occurs in both set CEs only → set-oriented (Figure 2, compete1).
        let ar = analyze("(p r [player ^name <n> ^team A] [player ^name <n> ^team B] (write x))");
        assert!(ar.is_set_oriented);
        assert!(ar.is_set_var(Symbol::new("n")));
        assert!(ar.scalar_ces.is_empty());

        // <n> also in a regular CE → scalar (Figure 2, compete2).
        let ar2 = analyze("(p r [player ^name <n> ^team A] (player ^name <n> ^team B) (write x))");
        assert!(ar2.is_set_oriented);
        assert!(!ar2.is_set_var(Symbol::new("n")));
        assert_eq!(ar2.scalar_ces, vec![1]);
    }

    #[test]
    fn scalar_clause_forces_partitioning() {
        let ar = analyze(
            "(p RemoveDups { [player ^name <n> ^team <t>] <P> }
               :scalar (<n> <t>) :test ((count <P>) > 1)
               (set-remove <P>))",
        );
        assert_eq!(ar.scalar_pvs.len(), 2);
        assert_eq!(ar.scalar_pvs[0].var, Symbol::new("n"));
        assert!(!ar.is_set_var(Symbol::new("n")));
        assert_eq!(ar.aggregates.len(), 1);
        assert_eq!(ar.aggregates[0].op, AggOp::Count);
        assert!(matches!(
            ar.aggregates[0].target,
            AggTarget::Ce { pos_ce: 0, .. }
        ));
    }

    #[test]
    fn aggregate_over_pv() {
        let ar = analyze(
            "(p r (dept ^id <d>) [emp ^dept <d> ^salary <s>]
               :test ((avg <s>) > 50000) (write x))",
        );
        assert_eq!(ar.aggregates.len(), 1);
        assert!(matches!(
            ar.aggregates[0].target,
            AggTarget::Pv { pos_ce: 1, .. }
        ));
        // <d> is scalar (bound in a regular CE); <s> is set-oriented.
        assert!(!ar.is_set_var(Symbol::new("d")));
        assert!(ar.is_set_var(Symbol::new("s")));
    }

    #[test]
    fn rejects_bad_constructs() {
        // unbound var with non-eq predicate
        let e = analyze_err("(p r (a ^x > <v>) (write x))");
        assert!(e.message.contains("before being bound"), "{}", e);
        // :test on a non-set rule
        let e = analyze_err("(p r (a ^x <v>) :test (<v> > 1) (write x))");
        assert!(e.message.contains("set-oriented"), "{}", e);
        // negated set CE
        let e = analyze_err("(p r (a ^x 1) -[b ^x 1] (write x))");
        assert!(e.message.contains("negated"), "{}", e);
        // aggregate over scalar var
        let e = analyze_err("(p r (a ^x <v>) [b ^y <w>] :test ((count <v>) > 1) (halt))");
        assert!(e.message.contains("scalar"), "{}", e);
        // sum over an element variable
        let e = analyze_err("(p r { [a ^x <v>] <E> } :test ((sum <E>) > 1) (halt))");
        assert!(e.message.contains("count"), "{}", e);
        // set-modify on a scalar elem var
        let e = analyze_err("(p r { (a ^x 1) <E> } (set-modify <E> ^x 2))");
        assert!(e.message.contains("set-oriented"), "{}", e);
        // foreach over scalar var
        let e = analyze_err("(p r (a ^x <v>) [b ^y <w>] (foreach <v> (write <v>)))");
        assert!(e.message.contains("foreach"), "{}", e);
        // unbound RHS var
        let e = analyze_err("(p r (a ^x <v>) (write <nope>))");
        assert!(e.message.contains("unbound"), "{}", e);
    }

    #[test]
    fn negated_ce_local_bindings_dont_leak() {
        // <v> bound only inside the negated CE → later use is an error.
        let e = analyze_err("(p r (a ^x 1) -(b ^y <v>) (write <v>))");
        assert!(e.message.contains("unbound"), "{}", e);
    }

    #[test]
    fn negated_ce_joins_against_earlier_bindings() {
        let ar = analyze("(p r (a ^x <v>) -(b ^y <v>) (write <v>))");
        let neg = &ar.ces[1];
        assert!(neg.negated);
        assert_eq!(neg.pos_idx, None);
        assert_eq!(neg.var_joins.len(), 1);
        assert_eq!(ar.num_pos, 1);
    }

    #[test]
    fn specificity_counts_tests() {
        let ar = analyze("(p r (a ^x 1 ^y <v>) (b ^z <v>) (write x))");
        // 2 class tests + ^x 1 + ^y <v> + ^z <v> = 5
        assert_eq!(ar.specificity, 5);
    }

    #[test]
    fn foreach_nested_reiteration_rejected() {
        let e = analyze_err("(p r [a ^x <v>] (foreach <v> (foreach <v> (write <v>))))");
        assert!(e.message.contains("foreach"), "{}", e);
    }

    #[test]
    fn duplicate_rule_names_rejected() {
        let prog =
            crate::parser::parse_program("(p r (a ^x 1) (halt)) (p r (a ^x 2) (halt))").unwrap();
        assert!(analyze_program(&prog).is_err());
    }

    /// A firing snapshots only the CEs its RHS reads a field of: naming a
    /// WME (`remove`, `modify k`, `set-modify <P>`) or an aggregate reads
    /// none, a variable or a `foreach` over a pattern variable reads the
    /// variable's binding CE.
    #[test]
    fn rhs_reads_lists_the_ces_whose_fields_the_rhs_reads() {
        let reads = |src: &str| analyze(src).rhs_reads;
        assert_eq!(
            reads(
                "(p r { [item ^s pending] <P> } :test ((count <P>) > 0) (set-modify <P> ^s done))"
            ),
            Vec::<usize>::new()
        );
        assert_eq!(
            reads("(p r (a ^x <x>) (b ^y <x>) (modify 2 ^y 0) (remove 1))"),
            Vec::<usize>::new()
        );
        assert_eq!(
            reads("(p r (a ^x <x>) (b ^y <y>) (make c ^v (<y> + 1)))"),
            [1]
        );
        assert_eq!(
            reads("(p r (a ^x <x>) [b ^y <y>] (foreach <y> (write (count <y>))))"),
            [1]
        );
        assert_eq!(
            reads("(p r (a ^x <x>) { [b ^y <y>] <B> } (foreach <B> (if (<y> > 1) (write <x>))))"),
            [0, 1]
        );
    }
}
