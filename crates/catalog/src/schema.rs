//! Database schema: tables plus foreign-key (join) relationships.

use crate::column::{ColumnMeta, ColumnRef};
use crate::error::CatalogError;
use crate::table::TableMeta;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a table within a [`SchemaCatalog`] (index into its table
/// vector).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TableId(pub u32);

impl TableId {
    /// Table index as `usize` for slice indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A foreign-key relationship: `child.column` references `parent.column`
/// (the parent column is the parent table's primary key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ForeignKey {
    /// Referencing (fact / child) side.
    pub child: ColumnRef,
    /// Referenced (dimension / parent) side — a primary key column.
    pub parent: ColumnRef,
}

impl ForeignKey {
    /// Does this foreign key connect tables `a` and `b` (in either
    /// direction)?
    pub fn connects(&self, a: TableId, b: TableId) -> bool {
        (self.child.table == a && self.parent.table == b)
            || (self.child.table == b && self.parent.table == a)
    }
}

/// A database schema: named tables and foreign keys between them.
///
/// This is the transferable, metadata-only description of a database.  It
/// carries a `name` purely for diagnostics; nothing in the featurization
/// depends on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaCatalog {
    /// Diagnostic name of the database (e.g. `"imdb_like"`, `"synth_07"`).
    pub name: String,
    tables: Vec<TableMeta>,
    foreign_keys: Vec<ForeignKey>,
}

impl SchemaCatalog {
    /// Create an empty schema with the given diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        SchemaCatalog {
            name: name.into(),
            tables: Vec::new(),
            foreign_keys: Vec::new(),
        }
    }

    /// Add a table; returns its id.  Fails if a table of the same name
    /// already exists.
    pub fn add_table(&mut self, table: TableMeta) -> Result<TableId, CatalogError> {
        if self.tables.iter().any(|t| t.name == table.name) {
            return Err(CatalogError::DuplicateTable(table.name));
        }
        let id = TableId(self.tables.len() as u32);
        self.tables.push(table);
        Ok(id)
    }

    /// Register a foreign key from `child` to `parent`.  Both column
    /// references must exist.
    pub fn add_foreign_key(
        &mut self,
        child: ColumnRef,
        parent: ColumnRef,
    ) -> Result<(), CatalogError> {
        for r in [child, parent] {
            let table = self
                .tables
                .get(r.table.index())
                .ok_or_else(|| CatalogError::InvalidForeignKey(format!("no table {}", r.table)))?;
            if r.column.index() >= table.columns.len() {
                return Err(CatalogError::InvalidForeignKey(format!(
                    "no column {} in table {}",
                    r.column, table.name
                )));
            }
        }
        self.foreign_keys.push(ForeignKey { child, parent });
        Ok(())
    }

    /// All tables in id order.
    pub fn tables(&self) -> &[TableMeta] {
        &self.tables
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Table metadata by id; panics on invalid ids (programmer error).
    pub fn table(&self, id: TableId) -> &TableMeta {
        &self.tables[id.index()]
    }

    /// Table metadata by id, or [`CatalogError::UnknownTable`] when the id
    /// is out of range (for ids from untrusted input).
    pub fn try_table(&self, id: TableId) -> Result<&TableMeta, CatalogError> {
        self.tables
            .get(id.index())
            .ok_or_else(|| CatalogError::UnknownTable(format!("{id}")))
    }

    /// Column metadata by reference, or an [`CatalogError::UnknownTable`] /
    /// [`CatalogError::UnknownColumn`] when either id is out of range.
    pub fn try_column(&self, r: ColumnRef) -> Result<&ColumnMeta, CatalogError> {
        let table = self.try_table(r.table)?;
        table
            .columns
            .get(r.column.index())
            .ok_or_else(|| CatalogError::UnknownColumn {
                table: table.name.clone(),
                column: format!("{}", r.column),
            })
    }

    /// Mutable table metadata by id (used by the storage layer to refresh
    /// statistics after data generation).
    pub fn table_mut(&mut self, id: TableId) -> &mut TableMeta {
        &mut self.tables[id.index()]
    }

    /// Look up a table by name.
    pub fn table_by_name(&self, name: &str) -> Result<(TableId, &TableMeta), CatalogError> {
        self.tables
            .iter()
            .enumerate()
            .find(|(_, t)| t.name == name)
            .map(|(i, t)| (TableId(i as u32), t))
            .ok_or_else(|| CatalogError::UnknownTable(name.to_string()))
    }

    /// Resolve `"table.column"`-style names to a [`ColumnRef`].
    pub fn resolve_column(&self, table: &str, column: &str) -> Result<ColumnRef, CatalogError> {
        let (tid, tmeta) = self.table_by_name(table)?;
        let (cid, _) = tmeta
            .column_by_name(column)
            .ok_or_else(|| CatalogError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        Ok(ColumnRef::new(tid, cid))
    }

    /// Column metadata for a fully-qualified reference.
    pub fn column(&self, r: ColumnRef) -> &ColumnMeta {
        self.table(r.table).column(r.column)
    }

    /// All foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Foreign keys touching the given table (as child or parent).
    pub fn foreign_keys_of(&self, table: TableId) -> Vec<&ForeignKey> {
        self.foreign_keys
            .iter()
            .filter(|fk| fk.child.table == table || fk.parent.table == table)
            .collect()
    }

    /// The foreign key connecting two tables, if one exists.
    pub fn join_edge(&self, a: TableId, b: TableId) -> Option<&ForeignKey> {
        self.foreign_keys.iter().find(|fk| fk.connects(a, b))
    }

    /// Total number of tuples across all tables.
    pub fn total_tuples(&self) -> u64 {
        self.tables.iter().map(|t| t.num_tuples).sum()
    }

    /// Total number of heap pages across all tables.
    pub fn total_pages(&self) -> u64 {
        self.tables.iter().map(|t| t.num_pages()).sum()
    }

    /// Iterator over all `(TableId, &TableMeta)` pairs.
    pub fn iter_tables(&self) -> impl Iterator<Item = (TableId, &TableMeta)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{ColumnId, ColumnMeta};
    use crate::stats::{ColumnStatistics, Distribution};
    use crate::types::DataType;

    fn two_table_schema() -> SchemaCatalog {
        let mut schema = SchemaCatalog::new("test");
        let dim = TableMeta::new(
            "dim",
            vec![
                ColumnMeta::primary_key("id", 100),
                ColumnMeta::new(
                    "label",
                    DataType::Categorical,
                    ColumnStatistics {
                        distinct_count: 10,
                        null_fraction: 0.0,
                        min: Some(0.0),
                        max: Some(9.0),
                        distribution: Distribution::Uniform,
                    },
                ),
            ],
            100,
        );
        let fact = TableMeta::new(
            "fact",
            vec![
                ColumnMeta::primary_key("id", 1000),
                ColumnMeta::new(
                    "dim_id",
                    DataType::Int,
                    ColumnStatistics {
                        distinct_count: 100,
                        null_fraction: 0.0,
                        min: Some(0.0),
                        max: Some(99.0),
                        distribution: Distribution::ForeignKeyUniform,
                    },
                ),
            ],
            1000,
        );
        let dim_id = schema.add_table(dim).unwrap();
        let fact_id = schema.add_table(fact).unwrap();
        schema
            .add_foreign_key(
                ColumnRef::new(fact_id, ColumnId(1)),
                ColumnRef::new(dim_id, ColumnId(0)),
            )
            .unwrap();
        schema
    }

    #[test]
    fn add_and_lookup_tables() {
        let schema = two_table_schema();
        assert_eq!(schema.num_tables(), 2);
        let (tid, t) = schema.table_by_name("fact").unwrap();
        assert_eq!(tid, TableId(1));
        assert_eq!(t.num_tuples, 1000);
        assert!(schema.table_by_name("nope").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut schema = two_table_schema();
        let dup = TableMeta::new("dim", vec![ColumnMeta::primary_key("id", 1)], 1);
        assert!(matches!(
            schema.add_table(dup),
            Err(CatalogError::DuplicateTable(_))
        ));
    }

    #[test]
    fn foreign_key_validation() {
        let mut schema = two_table_schema();
        let bad = schema.add_foreign_key(
            ColumnRef::new(TableId(5), ColumnId(0)),
            ColumnRef::new(TableId(0), ColumnId(0)),
        );
        assert!(matches!(bad, Err(CatalogError::InvalidForeignKey(_))));
    }

    #[test]
    fn join_edge_lookup() {
        let schema = two_table_schema();
        assert!(schema.join_edge(TableId(0), TableId(1)).is_some());
        assert!(schema.join_edge(TableId(1), TableId(0)).is_some());
        assert!(schema.join_edge(TableId(0), TableId(0)).is_none());
    }

    #[test]
    fn resolve_column_names() {
        let schema = two_table_schema();
        let r = schema.resolve_column("fact", "dim_id").unwrap();
        assert_eq!(r, ColumnRef::new(TableId(1), ColumnId(1)));
        assert!(schema.resolve_column("fact", "missing").is_err());
    }

    #[test]
    fn totals() {
        let schema = two_table_schema();
        assert_eq!(schema.total_tuples(), 1100);
        assert!(schema.total_pages() >= 2);
    }
}
