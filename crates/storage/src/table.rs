//! Columnar table data.

use crate::column::ColumnData;
use zsdb_catalog::{ColumnId, TableMeta, Value};

/// Concrete data of a table: one [`ColumnData`] per catalog column, all of
/// the same length.
#[derive(Debug, Clone, PartialEq)]
pub struct TableData {
    columns: Vec<ColumnData>,
    num_rows: usize,
}

impl TableData {
    /// Create an empty table matching a catalog definition.
    pub fn empty(meta: &TableMeta) -> Self {
        TableData {
            columns: meta
                .columns
                .iter()
                .map(|c| ColumnData::new(c.data_type))
                .collect(),
            num_rows: 0,
        }
    }

    /// Build a table from pre-populated columns (all must have equal
    /// length; panics otherwise — programmer error).
    pub fn from_columns(columns: Vec<ColumnData>) -> Self {
        let num_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        assert!(
            columns.iter().all(|c| c.len() == num_rows),
            "all columns must have the same length"
        );
        TableData { columns, num_rows }
    }

    /// Append one row given as a slice of values in column order.
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (col, value) in self.columns.iter_mut().zip(row) {
            col.push(*value);
        }
        self.num_rows += 1;
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column data by id.
    pub fn column(&self, id: ColumnId) -> &ColumnData {
        &self.columns[id.index()]
    }

    /// All columns in definition order.
    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// Value at `(row, column)`.
    pub fn value(&self, row: usize, column: ColumnId) -> Value {
        self.columns[column.index()].get(row)
    }

    /// Materialise a whole row as a vector of values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zsdb_catalog::{ColumnMeta, ColumnStatistics, DataType, Distribution};

    fn meta() -> TableMeta {
        TableMeta::new(
            "t",
            vec![
                ColumnMeta::primary_key("id", 0),
                ColumnMeta::new(
                    "x",
                    DataType::Float,
                    ColumnStatistics {
                        distinct_count: 10,
                        null_fraction: 0.0,
                        min: Some(0.0),
                        max: Some(1.0),
                        distribution: Distribution::Uniform,
                    },
                ),
            ],
            0,
        )
    }

    #[test]
    fn push_and_read_rows() {
        let mut data = TableData::empty(&meta());
        data.push_row(&[Value::Int(0), Value::Float(0.5)]);
        data.push_row(&[Value::Int(1), Value::Null]);
        assert_eq!(data.num_rows(), 2);
        assert_eq!(data.num_columns(), 2);
        assert_eq!(data.value(0, ColumnId(1)), Value::Float(0.5));
        assert_eq!(data.row(1), vec![Value::Int(1), Value::Null]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut data = TableData::empty(&meta());
        data.push_row(&[Value::Int(0)]);
    }

    #[test]
    fn from_columns_checks_lengths() {
        let mut a = ColumnData::new(DataType::Int);
        a.push(Value::Int(1));
        let b = ColumnData::new(DataType::Float);
        let result = std::panic::catch_unwind(|| TableData::from_columns(vec![a, b]));
        assert!(result.is_err());
    }
}
