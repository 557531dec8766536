//! Optimistic transactions (backward-validation, first committer wins).
//!
//! DIPS "attempts to execute all satisfied instantiations concurrently,
//! relying on transaction semantics to block inconsistent updates" (paper
//! §8.1). This layer supplies exactly those semantics: a transaction
//! records the versions of every row it read or intends to write; at
//! commit, any version drift means another transaction got there first and
//! this one aborts ([`DbError::TxConflict`]). The DIPS experiments count
//! those aborts.

use crate::db::Database;
use crate::error::DbError;
use crate::table::RowId;
use sorete_base::{Symbol, Value};

/// A buffered read/write transaction.
#[derive(Default, Debug)]
pub struct Transaction {
    reads: Vec<(Symbol, RowId, u64)>,
    ops: Vec<TxOp>,
}

#[derive(Debug)]
enum TxOp {
    Insert {
        table: Symbol,
        row: Vec<Value>,
    },
    Update {
        table: Symbol,
        row: RowId,
        col: Symbol,
        value: Value,
        seen: u64,
    },
    Delete {
        table: Symbol,
        row: RowId,
        seen: u64,
    },
}

impl Transaction {
    /// Empty transaction.
    pub fn new() -> Transaction {
        Transaction::default()
    }

    /// Read a row, recording its version in the read set.
    pub fn read(
        &mut self,
        db: &Database,
        table: &str,
        row: RowId,
    ) -> Result<Option<Vec<Value>>, DbError> {
        let t = Symbol::new(table);
        let tbl = db.table(t)?;
        self.reads.push((t, row, tbl.version(row)));
        Ok(tbl.get(row).map(|r| r.to_vec()))
    }

    /// Buffer an insert.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) {
        self.ops.push(TxOp::Insert {
            table: Symbol::new(table),
            row,
        });
    }

    /// Buffer a column update (validates the row version at commit).
    pub fn update(
        &mut self,
        db: &Database,
        table: &str,
        row: RowId,
        col: &str,
        value: Value,
    ) -> Result<(), DbError> {
        let t = Symbol::new(table);
        let seen = db.table(t)?.version(row);
        self.ops.push(TxOp::Update {
            table: t,
            row,
            col: Symbol::new(col),
            value,
            seen,
        });
        Ok(())
    }

    /// Buffer a delete (validates the row version at commit).
    pub fn delete(&mut self, db: &Database, table: &str, row: RowId) -> Result<(), DbError> {
        let t = Symbol::new(table);
        let seen = db.table(t)?.version(row);
        self.ops.push(TxOp::Delete {
            table: t,
            row,
            seen,
        });
        Ok(())
    }

    /// Number of buffered write operations.
    pub fn write_count(&self) -> usize {
        self.ops.len()
    }

    /// Validate read/write versions; apply writes if everything is intact.
    pub(crate) fn validate_and_apply(self, db: &mut Database) -> Result<(), DbError> {
        // Validation phase.
        for (t, row, seen) in &self.reads {
            if db.table(*t)?.version(*row) != *seen {
                return Err(DbError::TxConflict {
                    table: t.to_string(),
                });
            }
        }
        for op in &self.ops {
            match op {
                TxOp::Insert { .. } => {}
                TxOp::Update {
                    table, row, seen, ..
                }
                | TxOp::Delete { table, row, seen } => {
                    if db.table(*table)?.version(*row) != *seen {
                        return Err(DbError::TxConflict {
                            table: table.to_string(),
                        });
                    }
                }
            }
        }
        // Apply phase.
        for op in self.ops {
            match op {
                TxOp::Insert { table, row } => {
                    db.table_mut(table)?.insert(row)?;
                }
                TxOp::Update {
                    table,
                    row,
                    col,
                    value,
                    ..
                } => db.table_mut(table)?.update(row, col, value)?,
                TxOp::Delete { table, row, .. } => {
                    db.table_mut(table)?.delete(row)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Schema;

    fn db() -> (Database, RowId) {
        let mut db = Database::new();
        db.create_table(Schema::new("acct", &["owner", "balance"]))
            .unwrap();
        let id = db
            .insert("acct", vec![Value::sym("ann"), Value::Int(100)])
            .unwrap();
        (db, id)
    }

    #[test]
    fn serial_commit_succeeds() {
        let (mut db, id) = db();
        let mut tx = db.begin();
        let row = tx.read(&db, "acct", id).unwrap().unwrap();
        assert_eq!(row[1], Value::Int(100));
        tx.update(&db, "acct", id, "balance", Value::Int(150))
            .unwrap();
        db.commit(tx).unwrap();
        assert_eq!(
            db.table_by_name("acct").unwrap().get(id).unwrap()[1],
            Value::Int(150)
        );
        assert_eq!(db.commit_count(), 1);
    }

    #[test]
    fn first_committer_wins() {
        let (mut db, id) = db();
        // Two transactions read the same row, both try to update it.
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t1.read(&db, "acct", id).unwrap();
        t2.read(&db, "acct", id).unwrap();
        t1.update(&db, "acct", id, "balance", Value::Int(150))
            .unwrap();
        t2.update(&db, "acct", id, "balance", Value::Int(90))
            .unwrap();
        db.commit(t1).unwrap();
        let err = db.commit(t2).unwrap_err();
        assert!(matches!(err, DbError::TxConflict { .. }));
        assert_eq!(db.abort_count(), 1);
        // The first committer's value stands.
        assert_eq!(
            db.table_by_name("acct").unwrap().get(id).unwrap()[1],
            Value::Int(150)
        );
    }

    #[test]
    fn read_write_conflict_detected() {
        let (mut db, id) = db();
        let mut t1 = db.begin();
        t1.read(&db, "acct", id).unwrap(); // read-only tx
        let mut t2 = db.begin();
        t2.update(&db, "acct", id, "balance", Value::Int(0))
            .unwrap();
        db.commit(t2).unwrap();
        // t1's read is stale → abort (strict backward validation).
        assert!(db.commit(t1).is_err());
    }

    #[test]
    fn delete_delete_conflict() {
        let (mut db, id) = db();
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t1.delete(&db, "acct", id).unwrap();
        t2.delete(&db, "acct", id).unwrap();
        db.commit(t1).unwrap();
        assert!(
            db.commit(t2).is_err(),
            "double delete is the paper's mutual-invalidation case"
        );
    }

    #[test]
    fn independent_transactions_both_commit() {
        let (mut db, _) = db();
        let id2 = db
            .insert("acct", vec![Value::sym("bob"), Value::Int(50)])
            .unwrap();
        let id1 = RowId::new(0);
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t1.update(&db, "acct", id1, "balance", Value::Int(1))
            .unwrap();
        t2.update(&db, "acct", id2, "balance", Value::Int(2))
            .unwrap();
        db.commit(t1).unwrap();
        db.commit(t2).unwrap();
        assert_eq!(db.commit_count(), 2);
        assert_eq!(db.abort_count(), 0);
    }

    #[test]
    fn inserts_never_conflict() {
        let (mut db, _) = db();
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t1.insert("acct", vec![Value::sym("x"), Value::Int(1)]);
        t2.insert("acct", vec![Value::sym("y"), Value::Int(2)]);
        db.commit(t1).unwrap();
        db.commit(t2).unwrap();
        assert_eq!(db.table_by_name("acct").unwrap().len(), 3);
    }
}
