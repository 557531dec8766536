//! The database catalog.

use crate::algebra::{execute, Plan, Relation};
use crate::error::DbError;
use crate::table::{RowId, Schema, Table};
use crate::tx::Transaction;
use sorete_base::{FxHashMap, Symbol, Value};

/// A named collection of tables with plan execution, the SQL subset, and
/// optimistic transactions.
#[derive(Default)]
pub struct Database {
    tables: FxHashMap<Symbol, Table>,
    commits: u64,
    aborts: u64,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Create a table.
    pub fn create_table(&mut self, schema: Schema) -> Result<(), DbError> {
        if self.tables.contains_key(&schema.name) {
            return Err(DbError::DuplicateTable(schema.name.to_string()));
        }
        self.tables.insert(schema.name, Table::new(schema));
        Ok(())
    }

    /// Access a table.
    pub fn table(&self, name: Symbol) -> Result<&Table, DbError> {
        self.tables
            .get(&name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Access a table by string name.
    pub fn table_by_name(&self, name: &str) -> Result<&Table, DbError> {
        self.table(Symbol::new(name))
    }

    /// Mutable table access.
    pub fn table_mut(&mut self, name: Symbol) -> Result<&mut Table, DbError> {
        self.tables
            .get_mut(&name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Insert a row directly (outside any transaction).
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<RowId, DbError> {
        self.table_mut(Symbol::new(table))?.insert(row)
    }

    /// Execute an algebra plan.
    pub fn query(&self, plan: &Plan) -> Result<Relation, DbError> {
        execute(self, plan)
    }

    /// Parse and execute a SQL-subset query.
    pub fn sql(&self, query: &str) -> Result<Relation, DbError> {
        let plan = crate::sql::parse_query(query)?;
        self.query(&plan)
    }

    /// Begin an optimistic transaction.
    pub fn begin(&self) -> Transaction {
        Transaction::new()
    }

    /// Try to commit: validates the read/write sets (first committer wins)
    /// and applies buffered writes atomically on success.
    pub fn commit(&mut self, tx: Transaction) -> Result<(), DbError> {
        let r = tx.validate_and_apply(self);
        match r {
            Ok(()) => self.commits += 1,
            Err(_) => self.aborts += 1,
        }
        r
    }

    /// Committed transaction count.
    pub fn commit_count(&self) -> u64 {
        self.commits
    }

    /// Aborted (conflicted) transaction count.
    pub fn abort_count(&self) -> u64 {
        self.aborts
    }

    /// Table names (sorted, for dumps).
    pub fn table_names(&self) -> Vec<Symbol> {
        let mut v: Vec<Symbol> = self.tables.keys().copied().collect();
        v.sort();
        v
    }

    /// Byte-level memory accounting across all tables: live rows, heap
    /// "pages" (64-slot extents, counting tombstones — heap files do not
    /// shrink on delete), and secondary-index postings. Live-set
    /// methodology for bytes — see [`sorete_base::MemoryReport`].
    pub fn memory_report(&self) -> sorete_base::MemoryReport {
        let mut report = sorete_base::MemoryReport::default();
        let mut row_bytes = 0u64;
        let mut rows = 0u64;
        let mut pages = 0u64;
        let mut idx_bytes = 0u64;
        let mut idx_entries = 0u64;
        for t in self.tables.values() {
            row_bytes += t.approx_bytes();
            rows += t.len() as u64;
            pages += t.slot_count().div_ceil(64) as u64;
            idx_bytes += t.index_bytes();
            idx_entries += t.index_entry_count();
        }
        report.push("db_rows", row_bytes, rows);
        report.push("db_pages", pages * 64 * 16, pages);
        report.push("db_index", idx_bytes, idx_entries);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{AggFun, CmpOp, ColRef, Plan, Pred, Scalar};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(Schema::new("emp", &["name", "dept", "sal"]))
            .unwrap();
        for (n, d, s) in [
            ("ann", "eng", 120),
            ("bob", "eng", 100),
            ("cat", "sales", 90),
            ("dan", "sales", 80),
        ] {
            db.insert("emp", vec![Value::sym(n), Value::sym(d), Value::Int(s)])
                .unwrap();
        }
        db.create_table(Schema::new("dept", &["name", "city"]))
            .unwrap();
        db.insert("dept", vec![Value::sym("eng"), Value::sym("nyc")])
            .unwrap();
        db.insert("dept", vec![Value::sym("sales"), Value::sym("sfo")])
            .unwrap();
        db
    }

    #[test]
    fn scan_select_project() {
        let db = db();
        let plan = Plan::Project {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::Scan("emp".into())),
                pred: Pred::Cmp(
                    CmpOp::Gt,
                    Scalar::Col(ColRef::new("sal")),
                    Scalar::Lit(Value::Int(90)),
                ),
            }),
            cols: vec![ColRef::new("name")],
        };
        let rel = db.query(&plan).unwrap();
        assert_eq!(rel.cols, vec!["emp.name"]);
        assert_eq!(rel.rows.len(), 2);
    }

    #[test]
    fn hash_join() {
        let db = db();
        let plan = Plan::Join {
            left: Box::new(Plan::Scan("emp".into())),
            right: Box::new(Plan::Scan("dept".into())),
            on: vec![(ColRef::new("emp.dept"), ColRef::new("dept.name"))],
        };
        let rel = db.query(&plan).unwrap();
        assert_eq!(rel.rows.len(), 4);
        assert_eq!(rel.cols.len(), 5);
    }

    #[test]
    fn cross_join() {
        let db = db();
        let plan = Plan::Join {
            left: Box::new(Plan::Scan("emp".into())),
            right: Box::new(Plan::Scan("dept".into())),
            on: vec![],
        };
        assert_eq!(db.query(&plan).unwrap().rows.len(), 8);
    }

    #[test]
    fn group_by_with_aggregates() {
        let db = db();
        let plan = Plan::GroupBy {
            input: Box::new(Plan::Scan("emp".into())),
            keys: vec![ColRef::new("dept")],
            aggs: vec![
                (AggFun::Count, ColRef::new("name")),
                (AggFun::Sum, ColRef::new("sal")),
                (AggFun::Avg, ColRef::new("sal")),
                (AggFun::Min, ColRef::new("sal")),
                (AggFun::Max, ColRef::new("sal")),
            ],
        };
        let rel = db.query(&plan).unwrap();
        assert_eq!(rel.rows.len(), 2);
        // Groups sorted by key: eng, sales.
        assert_eq!(rel.rows[0][0], Value::sym("eng"));
        assert_eq!(rel.rows[0][1], Value::Int(2));
        assert_eq!(rel.rows[0][2], Value::Int(220));
        assert_eq!(rel.rows[0][3], Value::Float(110.0));
        assert_eq!(rel.rows[0][4], Value::Int(100));
        assert_eq!(rel.rows[0][5], Value::Int(120));
    }

    #[test]
    fn group_by_without_aggregates_is_figure6_form() {
        let db = db();
        let plan = Plan::GroupBy {
            input: Box::new(Plan::Scan("emp".into())),
            keys: vec![ColRef::new("dept")],
            aggs: vec![],
        };
        let rel = db.query(&plan).unwrap();
        assert_eq!(rel.cols[0], "group");
        assert_eq!(rel.rows.len(), 4);
        // Two eng rows in group 1, two sales rows in group 2.
        assert_eq!(rel.rows[0][0], Value::Int(1));
        assert_eq!(rel.rows[2][0], Value::Int(2));
    }

    #[test]
    fn order_by_and_limit() {
        let db = db();
        let plan = Plan::Limit {
            input: Box::new(Plan::OrderBy {
                input: Box::new(Plan::Scan("emp".into())),
                keys: vec![(ColRef::new("sal"), false)],
            }),
            n: 2,
        };
        let rel = db.query(&plan).unwrap();
        assert_eq!(rel.rows.len(), 2);
        assert_eq!(rel.rows[0][0], Value::sym("ann"));
        assert_eq!(rel.rows[1][0], Value::sym("bob"));
    }

    #[test]
    fn null_semantics() {
        let mut db = db();
        db.insert("emp", vec![Value::sym("eve"), Value::Nil, Value::Nil])
            .unwrap();
        // NULL never joins.
        let join = Plan::Join {
            left: Box::new(Plan::Scan("emp".into())),
            right: Box::new(Plan::Scan("dept".into())),
            on: vec![(ColRef::new("emp.dept"), ColRef::new("dept.name"))],
        };
        assert_eq!(db.query(&join).unwrap().rows.len(), 4);
        // IS NULL / IS NOT NULL.
        let nulls = Plan::Select {
            input: Box::new(Plan::Scan("emp".into())),
            pred: Pred::IsNull(ColRef::new("dept"), false),
        };
        assert_eq!(db.query(&nulls).unwrap().rows.len(), 1);
        let not_nulls = Plan::Select {
            input: Box::new(Plan::Scan("emp".into())),
            pred: Pred::IsNull(ColRef::new("dept"), true),
        };
        assert_eq!(db.query(&not_nulls).unwrap().rows.len(), 4);
        // Comparisons with NULL are false.
        let cmp = Plan::Select {
            input: Box::new(Plan::Scan("emp".into())),
            pred: Pred::Cmp(
                CmpOp::Ne,
                Scalar::Col(ColRef::new("dept")),
                Scalar::Lit(Value::sym("eng")),
            ),
        };
        assert_eq!(
            db.query(&cmp).unwrap().rows.len(),
            2,
            "eve's NULL dept doesn't match <>"
        );
    }

    #[test]
    fn ambiguous_column_errors() {
        let db = db();
        let plan = Plan::Project {
            input: Box::new(Plan::Join {
                left: Box::new(Plan::Scan("emp".into())),
                right: Box::new(Plan::Scan("dept".into())),
                on: vec![],
            }),
            cols: vec![ColRef::new("name")],
        };
        let err = db.query(&plan).unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{}", err);
    }

    #[test]
    fn empty_relation_renders_header_only() {
        let mut db = Database::new();
        db.create_table(Schema::new("t", &["a"])).unwrap();
        let rel = db.query(&Plan::Scan("t".into())).unwrap();
        let text = rel.render();
        assert!(text.contains("t.a"));
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn limit_beyond_len_is_noop() {
        let db = db();
        let rel = db
            .query(&Plan::Limit {
                input: Box::new(Plan::Scan("emp".into())),
                n: 100,
            })
            .unwrap();
        assert_eq!(rel.rows.len(), 4);
    }

    #[test]
    fn project_can_reorder_and_duplicate() {
        let db = db();
        let rel = db
            .query(&Plan::Project {
                input: Box::new(Plan::Scan("dept".into())),
                cols: vec![
                    ColRef::new("city"),
                    ColRef::new("name"),
                    ColRef::new("city"),
                ],
            })
            .unwrap();
        assert_eq!(rel.cols, vec!["dept.city", "dept.name", "dept.city"]);
        assert_eq!(rel.rows[0].len(), 3);
    }

    #[test]
    fn render_produces_table() {
        let db = db();
        let rel = db.query(&Plan::Scan("dept".into())).unwrap();
        let text = rel.render();
        assert!(text.contains("dept.name"));
        assert!(text.contains("eng"));
    }
}
