//! Tables: schemas, row storage, hash indexes, row versioning.

use crate::error::DbError;
use sorete_base::{define_id, FxHashMap, Symbol, Value};

define_id!(
    /// Row identifier within one table (stable until deletion).
    pub struct RowId
);

/// A table row.
pub type Row = Box<[Value]>;

/// Table schema: ordered, named columns (untyped — [`Value`] is dynamic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    /// Table name.
    pub name: Symbol,
    /// Column names, in storage order.
    pub cols: Vec<Symbol>,
}

impl Schema {
    /// Build a schema.
    pub fn new(name: &str, cols: &[&str]) -> Schema {
        Schema {
            name: Symbol::new(name),
            cols: cols.iter().map(|c| Symbol::new(c)).collect(),
        }
    }

    /// Index of a column.
    pub fn col_index(&self, col: Symbol) -> Option<usize> {
        self.cols.iter().position(|c| *c == col)
    }
}

/// A heap table with optional hash indexes and per-row versions (used by
/// the optimistic transaction layer).
pub struct Table {
    /// The schema.
    pub schema: Schema,
    rows: Vec<Option<Row>>,
    versions: Vec<u64>,
    free: Vec<RowId>,
    indexes: FxHashMap<Symbol, FxHashMap<Value, Vec<RowId>>>,
    live: usize,
}

impl Table {
    /// Empty table.
    pub fn new(schema: Schema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
            versions: Vec::new(),
            free: Vec::new(),
            indexes: FxHashMap::default(),
            live: 0,
        }
    }

    /// Create a hash index on a column (backfills existing rows).
    pub fn create_index(&mut self, col: Symbol) -> Result<(), DbError> {
        let idx = self
            .schema
            .col_index(col)
            .ok_or_else(|| DbError::UnknownColumn(col.to_string()))?;
        let mut map: FxHashMap<Value, Vec<RowId>> = FxHashMap::default();
        for (i, row) in self.rows.iter().enumerate() {
            if let Some(r) = row {
                map.entry(r[idx]).or_default().push(RowId::new(i));
            }
        }
        self.indexes.insert(col, map);
        Ok(())
    }

    /// Insert a row (must match schema arity).
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RowId, DbError> {
        if row.len() != self.schema.cols.len() {
            return Err(DbError::Arity {
                table: self.schema.name.to_string(),
                expected: self.schema.cols.len(),
                got: row.len(),
            });
        }
        let row: Row = row.into();
        let id = match self.free.pop() {
            Some(id) => {
                self.rows[id.index()] = Some(row.clone());
                self.versions[id.index()] += 1;
                id
            }
            None => {
                self.rows.push(Some(row.clone()));
                self.versions.push(1);
                RowId::new(self.rows.len() - 1)
            }
        };
        self.live += 1;
        for (col, map) in &mut self.indexes {
            let ci = self.schema.col_index(*col).unwrap();
            map.entry(row[ci]).or_default().push(id);
        }
        Ok(id)
    }

    /// Delete a row.
    pub fn delete(&mut self, id: RowId) -> Result<Row, DbError> {
        let slot = self
            .rows
            .get_mut(id.index())
            .ok_or(DbError::UnknownRow(id.index()))?;
        let row = slot.take().ok_or(DbError::UnknownRow(id.index()))?;
        self.versions[id.index()] += 1;
        self.free.push(id);
        self.live -= 1;
        for (col, map) in &mut self.indexes {
            let ci = self.schema.col_index(*col).unwrap();
            if let Some(ids) = map.get_mut(&row[ci]) {
                ids.retain(|&r| r != id);
            }
        }
        Ok(row)
    }

    /// Overwrite one column of a row.
    pub fn update(&mut self, id: RowId, col: Symbol, value: Value) -> Result<(), DbError> {
        let ci = self
            .schema
            .col_index(col)
            .ok_or_else(|| DbError::UnknownColumn(col.to_string()))?;
        let row = self
            .rows
            .get_mut(id.index())
            .and_then(|r| r.as_mut())
            .ok_or(DbError::UnknownRow(id.index()))?;
        let old = row[ci];
        row[ci] = value;
        self.versions[id.index()] += 1;
        if let Some(map) = self.indexes.get_mut(&col) {
            if let Some(ids) = map.get_mut(&old) {
                ids.retain(|&r| r != id);
            }
            map.entry(value).or_default().push(id);
        }
        Ok(())
    }

    /// Read a row.
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.rows.get(id.index())?.as_ref()
    }

    /// Version counter of a row slot (bumps on insert/update/delete).
    pub fn version(&self, id: RowId) -> u64 {
        self.versions.get(id.index()).copied().unwrap_or(0)
    }

    /// Live row count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterate live rows.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|row| (RowId::new(i), row)))
    }

    /// Row ids whose `col` equals `value`, via index if present, else scan.
    pub fn lookup(&self, col: Symbol, value: &Value) -> Vec<RowId> {
        if let Some(map) = self.indexes.get(&col) {
            return map.get(value).cloned().unwrap_or_default();
        }
        let ci = match self.schema.col_index(col) {
            Some(c) => c,
            None => return Vec::new(),
        };
        self.iter()
            .filter(|(_, r)| r[ci] == *value)
            .map(|(id, _)| id)
            .collect()
    }

    /// Does the table have an index on `col`?
    pub fn has_index(&self, col: Symbol) -> bool {
        self.indexes.contains_key(&col)
    }

    /// Total row slots (live + tombstoned) — the table's "page" footprint
    /// grows with this, not with [`Table::len`].
    pub fn slot_count(&self) -> usize {
        self.rows.len()
    }

    /// Total live `(value → row-id)` postings across all secondary indexes.
    pub fn index_entry_count(&self) -> u64 {
        self.indexes
            .values()
            .flat_map(|m| m.values())
            .map(|ids| ids.len() as u64)
            .sum()
    }

    /// Estimated live bytes of row storage: live rows × (header + columns)
    /// (live-set methodology — see [`sorete_base::MemoryReport`]).
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let cols = self.schema.cols.len();
        (self.live * (size_of::<Row>() + cols * size_of::<Value>())) as u64
    }

    /// Estimated live bytes of secondary-index postings.
    pub fn index_bytes(&self) -> u64 {
        use std::mem::size_of;
        self.indexes
            .values()
            .map(|m| {
                m.values()
                    .map(|ids| (size_of::<Value>() + ids.len() * size_of::<RowId>()) as u64)
                    .sum::<u64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        let mut t = Table::new(Schema::new("people", &["name", "age"]));
        t.insert(vec![Value::sym("ann"), Value::Int(30)]).unwrap();
        t.insert(vec![Value::sym("bob"), Value::Int(25)]).unwrap();
        t.insert(vec![Value::sym("cat"), Value::Int(30)]).unwrap();
        t
    }

    #[test]
    fn insert_get_delete() {
        let mut t = people();
        assert_eq!(t.len(), 3);
        let id = RowId::new(1);
        assert_eq!(t.get(id).unwrap()[0], Value::sym("bob"));
        let row = t.delete(id).unwrap();
        assert_eq!(row[0], Value::sym("bob"));
        assert_eq!(t.len(), 2);
        assert!(t.get(id).is_none());
        assert!(t.delete(id).is_err(), "double delete");
    }

    #[test]
    fn arity_checked() {
        let mut t = people();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn slot_reuse_bumps_version() {
        let mut t = people();
        let id = RowId::new(0);
        let v0 = t.version(id);
        t.delete(id).unwrap();
        let id2 = t.insert(vec![Value::sym("dan"), Value::Int(40)]).unwrap();
        assert_eq!(id2, id, "slot reused");
        assert!(t.version(id) > v0, "version distinguishes incarnations");
    }

    #[test]
    fn index_lookup_and_maintenance() {
        let mut t = people();
        t.create_index(Symbol::new("age")).unwrap();
        assert_eq!(t.lookup(Symbol::new("age"), &Value::Int(30)).len(), 2);
        // Update moves index entries.
        t.update(RowId::new(0), Symbol::new("age"), Value::Int(31))
            .unwrap();
        assert_eq!(t.lookup(Symbol::new("age"), &Value::Int(30)).len(), 1);
        assert_eq!(t.lookup(Symbol::new("age"), &Value::Int(31)).len(), 1);
        // Delete removes them.
        t.delete(RowId::new(2)).unwrap();
        assert_eq!(t.lookup(Symbol::new("age"), &Value::Int(30)).len(), 0);
    }

    #[test]
    fn unindexed_lookup_scans() {
        let t = people();
        assert!(!t.has_index(Symbol::new("name")));
        assert_eq!(t.lookup(Symbol::new("name"), &Value::sym("ann")).len(), 1);
    }
}
