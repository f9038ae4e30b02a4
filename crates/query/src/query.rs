//! Logical SPJA query representation.

use crate::expr::{Aggregate, Predicate};
use serde::{Deserialize, Serialize};
use zsdb_catalog::{CatalogError, ColumnRef, SchemaCatalog, TableId};

/// An equi-join condition `left = right` between two columns of different
/// tables (in this workspace always a foreign-key/primary-key pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JoinCondition {
    /// Left join column.
    pub left: ColumnRef,
    /// Right join column.
    pub right: ColumnRef,
}

impl JoinCondition {
    /// Convenience constructor.
    pub fn new(left: ColumnRef, right: ColumnRef) -> Self {
        JoinCondition { left, right }
    }

    /// Does this condition connect tables `a` and `b`?
    pub fn connects(&self, a: TableId, b: TableId) -> bool {
        (self.left.table == a && self.right.table == b)
            || (self.left.table == b && self.right.table == a)
    }

    /// The join column belonging to `table`, if any.
    pub fn column_of(&self, table: TableId) -> Option<ColumnRef> {
        if self.left.table == table {
            Some(self.left)
        } else if self.right.table == table {
            Some(self.right)
        } else {
            None
        }
    }
}

/// A select-project-join-aggregate query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Tables in the FROM clause.
    pub tables: Vec<TableId>,
    /// Equi-join conditions (always `tables.len() - 1` of them for the
    /// acyclic FK joins generated in this workspace).
    pub joins: Vec<JoinCondition>,
    /// Conjunctive filter predicates.
    pub predicates: Vec<Predicate>,
    /// Aggregates in the SELECT list (at least one; generators default to
    /// `COUNT(*)`).
    pub aggregates: Vec<Aggregate>,
}

impl Query {
    /// Single-table query scaffold.
    pub fn scan(table: TableId) -> Self {
        Query {
            tables: vec![table],
            joins: Vec::new(),
            predicates: Vec::new(),
            aggregates: vec![Aggregate::count_star()],
        }
    }

    /// Number of joined tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Predicates that filter the given table.
    pub fn predicates_on(&self, table: TableId) -> Vec<&Predicate> {
        self.predicates
            .iter()
            .filter(|p| p.column.table == table)
            .collect()
    }

    /// Whether the query references the given table.
    pub fn involves(&self, table: TableId) -> bool {
        self.tables.contains(&table)
    }

    /// All columns referenced anywhere in the query (joins, predicates,
    /// aggregates), deduplicated.
    pub fn referenced_columns(&self) -> Vec<ColumnRef> {
        let mut cols: Vec<ColumnRef> = Vec::new();
        for j in &self.joins {
            cols.push(j.left);
            cols.push(j.right);
        }
        for p in &self.predicates {
            cols.push(p.column);
        }
        for a in &self.aggregates {
            if let Some(c) = a.column {
                cols.push(c);
            }
        }
        cols.sort();
        cols.dedup();
        cols
    }

    /// Validate the query against a catalog: all referenced tables and
    /// columns must exist, joins must connect tables in the FROM clause and
    /// the join graph must be connected.
    pub fn validate(&self, catalog: &SchemaCatalog) -> Result<(), CatalogError> {
        if self.tables.is_empty() {
            return Err(CatalogError::UnknownTable("<empty FROM clause>".into()));
        }
        for &t in &self.tables {
            catalog.try_table(t)?;
        }
        for col in self.referenced_columns() {
            catalog.try_column(col)?;
            if !self.involves(col.table) {
                return Err(CatalogError::UnknownTable(format!(
                    "column {col} references a table outside the FROM clause"
                )));
            }
        }
        // Connectivity check via union-find over FROM tables.
        let mut parent: Vec<usize> = (0..self.tables.len()).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        for join in &self.joins {
            let li = self.tables.iter().position(|t| *t == join.left.table);
            let ri = self.tables.iter().position(|t| *t == join.right.table);
            match (li, ri) {
                (Some(l), Some(r)) => {
                    let (rl, rr) = (find(&mut parent, l), find(&mut parent, r));
                    parent[rl] = rr;
                }
                _ => {
                    return Err(CatalogError::InvalidForeignKey(
                        "join references a table outside the FROM clause".into(),
                    ))
                }
            }
        }
        let root = find(&mut parent, 0);
        for i in 1..self.tables.len() {
            if find(&mut parent, i) != root {
                return Err(CatalogError::InvalidForeignKey(
                    "join graph is not connected".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, CmpOp};
    use zsdb_catalog::{presets, ColumnId, Value};

    fn imdb() -> SchemaCatalog {
        presets::imdb_like(0.02)
    }

    fn two_way_join(catalog: &SchemaCatalog) -> Query {
        let (title, _) = catalog.table_by_name("title").unwrap();
        let (mc, _) = catalog.table_by_name("movie_companies").unwrap();
        let title_id = catalog.resolve_column("title", "id").unwrap();
        let mc_movie_id = catalog
            .resolve_column("movie_companies", "movie_id")
            .unwrap();
        let year = catalog.resolve_column("title", "production_year").unwrap();
        Query {
            tables: vec![title, mc],
            joins: vec![JoinCondition::new(mc_movie_id, title_id)],
            predicates: vec![Predicate::new(year, CmpOp::Gt, Value::Int(1990))],
            aggregates: vec![Aggregate::count_star(), Aggregate::over(AggFunc::Min, year)],
        }
    }

    #[test]
    fn valid_query_passes_validation() {
        let catalog = imdb();
        let q = two_way_join(&catalog);
        assert!(q.validate(&catalog).is_ok());
        assert_eq!(q.num_tables(), 2);
    }

    #[test]
    fn disconnected_join_graph_rejected() {
        let catalog = imdb();
        let (title, _) = catalog.table_by_name("title").unwrap();
        let (mc, _) = catalog.table_by_name("movie_companies").unwrap();
        let q = Query {
            tables: vec![title, mc],
            joins: vec![],
            predicates: vec![],
            aggregates: vec![Aggregate::count_star()],
        };
        assert!(q.validate(&catalog).is_err());
    }

    #[test]
    fn predicate_on_foreign_table_rejected() {
        let catalog = imdb();
        let (title, _) = catalog.table_by_name("title").unwrap();
        let kw_col = catalog
            .resolve_column("movie_keyword", "keyword_id")
            .unwrap();
        let q = Query {
            tables: vec![title],
            joins: vec![],
            predicates: vec![Predicate::new(kw_col, CmpOp::Eq, Value::Cat(1))],
            aggregates: vec![Aggregate::count_star()],
        };
        assert!(q.validate(&catalog).is_err());
    }

    #[test]
    fn referenced_columns_deduplicated() {
        let catalog = imdb();
        let q = two_way_join(&catalog);
        let cols = q.referenced_columns();
        // title.id, movie_companies.movie_id, title.production_year
        assert_eq!(cols.len(), 3);
    }

    #[test]
    fn join_condition_helpers() {
        let catalog = imdb();
        let q = two_way_join(&catalog);
        let (title, _) = catalog.table_by_name("title").unwrap();
        let (mc, _) = catalog.table_by_name("movie_companies").unwrap();
        let j = q.joins[0];
        assert!(j.connects(title, mc));
        assert!(j.column_of(title).is_some());
        assert!(j.column_of(TableId(99)).is_none());
    }

    #[test]
    fn invalid_column_rejected() {
        let catalog = imdb();
        let (title, _) = catalog.table_by_name("title").unwrap();
        let q = Query {
            tables: vec![title],
            joins: vec![],
            predicates: vec![Predicate::new(
                ColumnRef::new(title, ColumnId(99)),
                CmpOp::Eq,
                Value::Int(0),
            )],
            aggregates: vec![Aggregate::count_star()],
        };
        assert!(matches!(
            q.validate(&catalog),
            Err(CatalogError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn scan_scaffold() {
        let catalog = imdb();
        let (title, _) = catalog.table_by_name("title").unwrap();
        let q = Query::scan(title);
        assert!(q.validate(&catalog).is_ok());
        assert_eq!(q.aggregates.len(), 1);
    }
}
