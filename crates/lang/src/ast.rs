//! Abstract syntax of the rule language.
//!
//! The language is the OPS5 subset the paper assumes, plus every
//! set-oriented construct the paper introduces:
//!
//! - set-oriented condition elements written `[class ...]` (§4.1);
//! - element-variable binding `{ CE <Var> }`;
//! - the `:scalar (<v> ...)` clause (§4.1);
//! - the `:test (expr)` clause with LHS aggregate operators (§4.2);
//! - RHS `set-modify`, `set-remove`, `foreach` (with `ascending` /
//!   `descending` / default order), `if/else`, and `bind` (§6).

use sorete_base::{Symbol, Value};
use std::sync::OnceLock;

/// A whole program: `literalize` declarations plus productions.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Class declarations.
    pub literalizes: Vec<Literalize>,
    /// Productions in source order.
    pub rules: Vec<Rule>,
}

/// `(literalize class attr...)` — declares a WME class and its attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Literalize {
    /// Class name.
    pub class: Symbol,
    /// Declared attributes.
    pub attrs: Vec<Symbol>,
}

/// A production: `(p name LHS [:scalar ...] [:test ...] [-->] RHS)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Rule name.
    pub name: Symbol,
    /// Condition elements in order.
    pub lhs: Vec<CondElem>,
    /// Pattern variables forced scalar by a `:scalar` clause.
    pub scalar: Vec<Symbol>,
    /// `:test` expressions (conjoined).
    pub tests: Vec<Expr>,
    /// Right-hand-side actions.
    pub rhs: Vec<Action>,
}

/// One condition element.
#[derive(Clone, Debug, PartialEq)]
pub struct CondElem {
    /// WME class matched.
    pub class: Symbol,
    /// `-(...)`: negated CE (absence test).
    pub negated: bool,
    /// `[...]`: set-oriented CE — all consistent matches join one
    /// instantiation instead of multiplying instantiations.
    pub set_oriented: bool,
    /// `{ CE <Var> }` element variable bound to the matched WME(s).
    pub elem_var: Option<Symbol>,
    /// Attribute tests in source order.
    pub tests: Vec<AttrTest>,
}

/// Tests applied to one attribute of a CE: `^attr term term ...`
/// (multiple terms conjoin, as in OPS5 `{ ... }` groups).
#[derive(Clone, Debug, PartialEq)]
pub struct AttrTest {
    /// The attribute.
    pub attr: Symbol,
    /// Conjoined test terms.
    pub terms: Vec<TestTerm>,
}

/// A single attribute test term.
#[derive(Clone, Debug, PartialEq)]
pub enum TestTerm {
    /// `pred operand`, e.g. `<n>`, `> 5`, `<> nil`.
    Pred(Pred, Operand),
    /// `<< v1 v2 ... >>` — matches any listed constant.
    AnyOf(Vec<Value>),
    /// `{ t1 t2 ... }` — conjunction group.
    Conj(Vec<TestTerm>),
}

/// Comparison predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pred {
    /// `=` (implicit when a bare constant/variable is written).
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Pred {
    /// Apply the predicate to two values. Ordered predicates require both
    /// sides comparable (numbers with numbers, symbols with symbols);
    /// mismatched kinds fail the test rather than erroring, as OPS5 does.
    pub fn apply(self, left: &Value, right: &Value) -> bool {
        match self {
            Pred::Eq => left == right,
            Pred::Ne => left != right,
            _ => {
                let comparable = matches!(
                    (left, right),
                    (
                        Value::Int(_) | Value::Float(_),
                        Value::Int(_) | Value::Float(_)
                    ) | (Value::Sym(_), Value::Sym(_))
                );
                if !comparable {
                    return false;
                }
                let ord = left.cmp(right);
                match self {
                    Pred::Lt => ord.is_lt(),
                    Pred::Le => ord.is_le(),
                    Pred::Gt => ord.is_gt(),
                    Pred::Ge => ord.is_ge(),
                    Pred::Eq | Pred::Ne => unreachable!(),
                }
            }
        }
    }

    /// The predicate with sides swapped (`a < b` ⇔ `b > a`), used when a
    /// join test is evaluated from the other operand's point of view.
    pub fn flipped(self) -> Pred {
        match self {
            Pred::Eq => Pred::Eq,
            Pred::Ne => Pred::Ne,
            Pred::Lt => Pred::Gt,
            Pred::Le => Pred::Ge,
            Pred::Gt => Pred::Lt,
            Pred::Ge => Pred::Le,
        }
    }
}

/// Right operand of an attribute test.
#[derive(Clone, Debug, PartialEq)]
pub enum Operand {
    /// A constant.
    Const(Value),
    /// A pattern variable `<v>`.
    Var(Symbol),
}

/// LHS aggregate operators (§4.2) — "the standard ones from SQL".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Cardinality. Over an element variable: number of matched WMEs.
    /// Over a set-oriented PV: number of distinct values in its domain.
    Count,
    /// Sum of occurrences (bag semantics).
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
    /// Mean of occurrences (bag semantics).
    Avg,
}

impl AggOp {
    /// Keyword spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Count => "count",
            AggOp::Sum => "sum",
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Avg => "avg",
        }
    }

    /// Parse a keyword spelling.
    pub fn from_name(s: &str) -> Option<AggOp> {
        Some(match s {
            "count" => AggOp::Count,
            "sum" => AggOp::Sum,
            "min" => AggOp::Min,
            "max" => AggOp::Max,
            "avg" => AggOp::Avg,
            _ => return None,
        })
    }
}

/// Binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `mod`
    Mod,
}

/// Expressions, used in `:test` clauses and RHS value positions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal.
    Const(Value),
    /// A variable reference `<v>` (pattern variable, element variable, or
    /// RHS `bind` variable).
    Var(Symbol),
    /// `(count <v>)` etc. — aggregate over a set-oriented PV or element var.
    Agg(AggOp, Symbol),
    /// Arithmetic.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Comparison; evaluates to the symbol `true` or `false`.
    Cmp(Pred, Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Vec<Expr>),
    /// Logical disjunction.
    Or(Vec<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

/// `foreach` iteration order (§6: "ascending, descending, or default
/// order"; default = conflict-set/recency order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IterOrder {
    /// Conflict-set order: most recent first.
    Default,
    /// Ascending by value (by time tag for element variables).
    Ascending,
    /// Descending by value (by time tag for element variables).
    Descending,
}

/// Target of `remove` / `modify`: an element variable or a 1-based CE index
/// (classic OPS5 style).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RhsTarget {
    /// `<Elem>` element variable.
    Var(Symbol),
    /// `(remove 1)` — the WME matched by the i-th CE (1-based).
    Idx(usize),
}

/// RHS actions.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// `(make class ^attr expr ...)`
    Make {
        /// Class of the created WME.
        class: Symbol,
        /// Slot initialisers.
        slots: Vec<(Symbol, Expr)>,
    },
    /// `(remove <elem>)` or `(remove 2)` — scalar removal.
    Remove(RhsTarget),
    /// `(modify <elem> ^attr expr ...)` — scalar modify (remove + re-make
    /// with a fresh time tag, as in OPS5).
    Modify {
        /// The WME to modify.
        target: RhsTarget,
        /// Slot updates.
        slots: Vec<(Symbol, Expr)>,
    },
    /// `(set-remove <elem>)` — remove every WME the set-oriented element
    /// variable matches in the current (sub)instantiation (§6).
    SetRemove(Symbol),
    /// `(set-modify <elem> ^attr expr ...)` — modify every such WME (§6).
    SetModify {
        /// The set-oriented element variable.
        var: Symbol,
        /// Slot updates.
        slots: Vec<(Symbol, Expr)>,
    },
    /// `(write expr ...)`
    Write(Vec<Expr>),
    /// `(bind <v> expr)` — RHS local binding.
    Bind(Symbol, Expr),
    /// `(halt)`
    Halt,
    /// `(foreach <v> [ascending|descending] action ...)` (§6.1/§6.2).
    ForEach {
        /// Iterator variable: set-oriented PV or element variable.
        var: Symbol,
        /// Iteration order.
        order: IterOrder,
        /// Body executed once per distinct value / WME.
        body: Vec<Action>,
    },
    /// `(if expr action... [else action...])`.
    If {
        /// Condition (truthy = anything but `nil` / the symbol `false`).
        cond: Expr,
        /// Then-branch.
        then: Vec<Action>,
        /// Else-branch.
        els: Vec<Action>,
    },
}

/// The symbols `true` and `false`, interned once: comparisons produce
/// them on every evaluation, so they compare ids, not strings.
fn bool_symbols() -> &'static [Symbol; 2] {
    static SYMBOLS: OnceLock<[Symbol; 2]> = OnceLock::new();
    SYMBOLS.get_or_init(|| [Symbol::new("false"), Symbol::new("true")])
}

/// Truthiness used by `:test` and `(if ...)`: everything is true except
/// `nil` and the symbol `false`.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Nil => false,
        Value::Sym(s) => *s != bool_symbols()[0],
        _ => true,
    }
}

/// The boolean symbols comparisons evaluate to.
pub fn bool_value(b: bool) -> Value {
    Value::Sym(bool_symbols()[b as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booleans_are_the_interned_symbols() {
        assert_eq!(bool_value(true), Value::sym("true"));
        assert_eq!(bool_value(false), Value::sym("false"));
        assert!(truthy(&bool_value(true)));
        assert!(!truthy(&bool_value(false)));
        assert!(!truthy(&Value::sym("false")));
        assert!(!truthy(&Value::Nil));
        assert!(truthy(&Value::sym("no")) && truthy(&Value::Int(0)));
    }

    #[test]
    fn pred_apply_numeric() {
        assert!(Pred::Lt.apply(&Value::Int(1), &Value::Float(1.5)));
        assert!(Pred::Ge.apply(&Value::Int(2), &Value::Int(2)));
        assert!(!Pred::Gt.apply(&Value::Int(2), &Value::Int(2)));
        assert!(Pred::Ne.apply(&Value::sym("a"), &Value::sym("b")));
    }

    #[test]
    fn ordered_pred_on_mixed_kinds_fails_not_errors() {
        assert!(!Pred::Lt.apply(&Value::sym("a"), &Value::Int(1)));
        assert!(!Pred::Gt.apply(&Value::sym("a"), &Value::Int(1)));
        // Equality across kinds is just false.
        assert!(!Pred::Eq.apply(&Value::sym("a"), &Value::Int(1)));
        assert!(Pred::Ne.apply(&Value::sym("a"), &Value::Int(1)));
    }

    #[test]
    fn pred_flip() {
        assert_eq!(Pred::Lt.flipped(), Pred::Gt);
        assert_eq!(Pred::Le.flipped(), Pred::Ge);
        assert_eq!(Pred::Eq.flipped(), Pred::Eq);
        for p in [Pred::Eq, Pred::Ne, Pred::Lt, Pred::Le, Pred::Gt, Pred::Ge] {
            // Flipping twice is the identity.
            assert_eq!(p.flipped().flipped(), p);
            // a p b  ⇔  b flip(p) a
            let (a, b) = (Value::Int(3), Value::Int(7));
            assert_eq!(p.apply(&a, &b), p.flipped().apply(&b, &a));
        }
    }

    #[test]
    fn agg_names_roundtrip() {
        for op in [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max, AggOp::Avg] {
            assert_eq!(AggOp::from_name(op.name()), Some(op));
        }
        assert_eq!(AggOp::from_name("median"), None);
    }

    #[test]
    fn truthiness() {
        assert!(!truthy(&Value::Nil));
        assert!(!truthy(&Value::sym("false")));
        assert!(truthy(&Value::sym("true")));
        assert!(truthy(&Value::Int(0)));
        assert_eq!(bool_value(true), Value::sym("true"));
        assert_eq!(bool_value(false), Value::sym("false"));
    }
}
