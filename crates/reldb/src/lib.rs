#![warn(missing_docs)]
//! `sorete-reldb` — the relational database substrate for the DIPS half of
//! the paper (§8): tables with hash indexes, a relational-algebra executor,
//! a SQL subset big enough for the paper's Figure 6 query, and optimistic
//! transactions whose conflicts reproduce DIPS's instantiation-conflict
//! problem. Its write-ahead log ([`wal`]) is the one commit and recovery
//! path of both the core engine and DIPS: each logs a transaction's
//! working-memory [`Journal`] and replays the [`CommittedTx`]s recovery
//! returns.
//!
//! ```
//! use sorete_reldb::{Database, Schema};
//! use sorete_base::Value;
//!
//! let mut db = Database::new();
//! db.create_table(Schema::new("emp", &["name", "sal"])).unwrap();
//! db.insert("emp", vec![Value::sym("ann"), Value::Int(120)]).unwrap();
//! db.insert("emp", vec![Value::sym("bob"), Value::Int(80)]).unwrap();
//! let rel = db.sql("SELECT name FROM emp WHERE sal > 100").unwrap();
//! assert_eq!(rel.rows.len(), 1);
//! ```

pub mod algebra;
pub mod db;
pub mod error;
pub mod persist;
pub mod sql;
pub mod table;
pub mod tx;
pub mod wal;

pub use algebra::{AggFun, CmpOp, ColRef, Plan, Pred, Relation, Scalar};
pub use db::Database;
pub use error::DbError;
pub use sql::parse_query;
pub use table::{Row, RowId, Schema, Table};
pub use tx::Transaction;
pub use wal::{
    decode_wme_op, encode_wme_op, CommittedTx, IoFaultKind, IoFaultPlan, Journal, JournalOp,
    Recovered, Wal, WalDefect, WalOptions, WalScan, WalStats, WmeOp,
};
