//! Typed columnar arrays with a null bitmap.

use zsdb_catalog::{DataType, Value};

/// A single column's data.
///
/// Values and the null bitmap are stored as parallel vectors; a `true` in
/// `nulls[i]` means row `i` is NULL and the corresponding slot in `values`
/// is a placeholder that must not be interpreted.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers (also dates as days-since-epoch).
    Int {
        /// Row values.
        values: Vec<i64>,
        /// Null bitmap.
        nulls: Vec<bool>,
    },
    /// 64-bit floats.
    Float {
        /// Row values.
        values: Vec<f64>,
        /// Null bitmap.
        nulls: Vec<bool>,
    },
    /// Dictionary-encoded categorical codes.
    Cat {
        /// Row values (dictionary codes).
        values: Vec<u32>,
        /// Null bitmap.
        nulls: Vec<bool>,
        /// Size of the dictionary (codes are `< domain`).
        domain: u32,
    },
    /// Booleans.
    Bool {
        /// Row values.
        values: Vec<bool>,
        /// Null bitmap.
        nulls: Vec<bool>,
    },
}

impl ColumnData {
    /// Create an empty column of the given logical type.
    pub fn new(data_type: DataType) -> Self {
        match data_type {
            DataType::Int | DataType::Date => ColumnData::Int {
                values: Vec::new(),
                nulls: Vec::new(),
            },
            DataType::Float => ColumnData::Float {
                values: Vec::new(),
                nulls: Vec::new(),
            },
            DataType::Categorical => ColumnData::Cat {
                values: Vec::new(),
                nulls: Vec::new(),
                domain: 0,
            },
            DataType::Bool => ColumnData::Bool {
                values: Vec::new(),
                nulls: Vec::new(),
            },
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int { values, .. } => values.len(),
            ColumnData::Float { values, .. } => values.len(),
            ColumnData::Cat { values, .. } => values.len(),
            ColumnData::Bool { values, .. } => values.len(),
        }
    }

    /// `true` if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at row `row` (bounds-checked; panics on out-of-range rows).
    pub fn get(&self, row: usize) -> Value {
        match self {
            ColumnData::Int { values, nulls } => {
                if nulls[row] {
                    Value::Null
                } else {
                    Value::Int(values[row])
                }
            }
            ColumnData::Float { values, nulls } => {
                if nulls[row] {
                    Value::Null
                } else {
                    Value::Float(values[row])
                }
            }
            ColumnData::Cat { values, nulls, .. } => {
                if nulls[row] {
                    Value::Null
                } else {
                    Value::Cat(values[row])
                }
            }
            ColumnData::Bool { values, nulls } => {
                if nulls[row] {
                    Value::Null
                } else {
                    Value::Bool(values[row])
                }
            }
        }
    }

    /// `true` if row `row` is NULL.
    pub fn is_null(&self, row: usize) -> bool {
        match self {
            ColumnData::Int { nulls, .. } => nulls[row],
            ColumnData::Float { nulls, .. } => nulls[row],
            ColumnData::Cat { nulls, .. } => nulls[row],
            ColumnData::Bool { nulls, .. } => nulls[row],
        }
    }

    /// Numeric view of a row (see [`Value::as_f64`]); `None` for NULL.
    pub fn as_f64(&self, row: usize) -> Option<f64> {
        match self {
            ColumnData::Int { values, nulls } => (!nulls[row]).then(|| values[row] as f64),
            ColumnData::Float { values, nulls } => (!nulls[row]).then(|| values[row]),
            ColumnData::Cat { values, nulls, .. } => (!nulls[row]).then(|| values[row] as f64),
            ColumnData::Bool { values, nulls } => {
                (!nulls[row]).then(|| if values[row] { 1.0 } else { 0.0 })
            }
        }
    }

    /// Join-key view of a row: an integer key usable by hash joins, `None`
    /// for NULL.  Float columns are not valid join keys in this workspace.
    pub fn join_key(&self, row: usize) -> Option<i64> {
        match self {
            ColumnData::Int { values, nulls } => (!nulls[row]).then(|| values[row]),
            ColumnData::Cat { values, nulls, .. } => (!nulls[row]).then(|| values[row] as i64),
            ColumnData::Bool { values, nulls } => (!nulls[row]).then(|| values[row] as i64),
            ColumnData::Float { .. } => None,
        }
    }

    /// Append a value; the value's type must match the column type (NULLs
    /// are always accepted).
    pub fn push(&mut self, value: Value) {
        match (self, value) {
            (ColumnData::Int { values, nulls }, Value::Int(v)) => {
                values.push(v);
                nulls.push(false);
            }
            (ColumnData::Int { values, nulls }, Value::Null) => {
                values.push(0);
                nulls.push(true);
            }
            (ColumnData::Float { values, nulls }, Value::Float(v)) => {
                values.push(v);
                nulls.push(false);
            }
            (ColumnData::Float { values, nulls }, Value::Null) => {
                values.push(0.0);
                nulls.push(true);
            }
            (
                ColumnData::Cat {
                    values,
                    nulls,
                    domain,
                },
                Value::Cat(v),
            ) => {
                values.push(v);
                nulls.push(false);
                *domain = (*domain).max(v + 1);
            }
            (ColumnData::Cat { values, nulls, .. }, Value::Null) => {
                values.push(0);
                nulls.push(true);
            }
            (ColumnData::Bool { values, nulls }, Value::Bool(v)) => {
                values.push(v);
                nulls.push(false);
            }
            (ColumnData::Bool { values, nulls }, Value::Null) => {
                values.push(false);
                nulls.push(true);
            }
            (col, value) => panic!(
                "type mismatch pushing {value:?} into a {:?} column",
                col.data_type()
            ),
        }
    }

    /// Logical data type of this column (Date is reported as Int since the
    /// physical representation is identical).
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int { .. } => DataType::Int,
            ColumnData::Float { .. } => DataType::Float,
            ColumnData::Cat { .. } => DataType::Categorical,
            ColumnData::Bool { .. } => DataType::Bool,
        }
    }

    /// Copy rows `[start, start + len)` into a fresh column of the same
    /// type — the batch-slice primitive of the vectorized executor.  Panics
    /// if the range is out of bounds.
    pub fn slice_range(&self, start: usize, len: usize) -> ColumnData {
        let end = start + len;
        match self {
            ColumnData::Int { values, nulls } => ColumnData::Int {
                values: values[start..end].to_vec(),
                nulls: nulls[start..end].to_vec(),
            },
            ColumnData::Float { values, nulls } => ColumnData::Float {
                values: values[start..end].to_vec(),
                nulls: nulls[start..end].to_vec(),
            },
            ColumnData::Cat {
                values,
                nulls,
                domain,
            } => ColumnData::Cat {
                values: values[start..end].to_vec(),
                nulls: nulls[start..end].to_vec(),
                domain: *domain,
            },
            ColumnData::Bool { values, nulls } => ColumnData::Bool {
                values: values[start..end].to_vec(),
                nulls: nulls[start..end].to_vec(),
            },
        }
    }

    /// Gather the given rows into a fresh column of the same type (index
    /// scans fetching matched rows, joins materialising match lists).
    pub fn gather(&self, rows: &[u32]) -> ColumnData {
        let mut out = ColumnData::new(self.data_type());
        out.append_gather(self, rows);
        out
    }

    /// Append the given rows of `src` to this column.  Both columns must
    /// have the same physical type (panics otherwise — programmer error);
    /// categorical domains are merged.
    pub fn append_gather(&mut self, src: &ColumnData, rows: &[u32]) {
        match (self, src) {
            (
                ColumnData::Int { values, nulls },
                ColumnData::Int {
                    values: sv,
                    nulls: sn,
                },
            ) => {
                values.extend(rows.iter().map(|&r| sv[r as usize]));
                nulls.extend(rows.iter().map(|&r| sn[r as usize]));
            }
            (
                ColumnData::Float { values, nulls },
                ColumnData::Float {
                    values: sv,
                    nulls: sn,
                },
            ) => {
                values.extend(rows.iter().map(|&r| sv[r as usize]));
                nulls.extend(rows.iter().map(|&r| sn[r as usize]));
            }
            (
                ColumnData::Cat {
                    values,
                    nulls,
                    domain,
                },
                ColumnData::Cat {
                    values: sv,
                    nulls: sn,
                    domain: sd,
                },
            ) => {
                values.extend(rows.iter().map(|&r| sv[r as usize]));
                nulls.extend(rows.iter().map(|&r| sn[r as usize]));
                *domain = (*domain).max(*sd);
            }
            (
                ColumnData::Bool { values, nulls },
                ColumnData::Bool {
                    values: sv,
                    nulls: sn,
                },
            ) => {
                values.extend(rows.iter().map(|&r| sv[r as usize]));
                nulls.extend(rows.iter().map(|&r| sn[r as usize]));
            }
            (dst, src) => panic!(
                "append_gather between mismatched column types {:?} and {:?}",
                dst.data_type(),
                src.data_type()
            ),
        }
    }

    /// Number of non-null rows.
    pub fn non_null_count(&self) -> usize {
        let nulls = match self {
            ColumnData::Int { nulls, .. } => nulls,
            ColumnData::Float { nulls, .. } => nulls,
            ColumnData::Cat { nulls, .. } => nulls,
            ColumnData::Bool { nulls, .. } => nulls,
        };
        nulls.iter().filter(|n| !**n).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut col = ColumnData::new(DataType::Int);
        col.push(Value::Int(5));
        col.push(Value::Null);
        col.push(Value::Int(-3));
        assert_eq!(col.len(), 3);
        assert_eq!(col.get(0), Value::Int(5));
        assert_eq!(col.get(1), Value::Null);
        assert_eq!(col.get(2), Value::Int(-3));
        assert!(col.is_null(1));
        assert_eq!(col.non_null_count(), 2);
    }

    #[test]
    fn categorical_tracks_domain() {
        let mut col = ColumnData::new(DataType::Categorical);
        col.push(Value::Cat(2));
        col.push(Value::Cat(7));
        col.push(Value::Null);
        match col {
            ColumnData::Cat { domain, .. } => assert_eq!(domain, 8),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn join_keys() {
        let mut col = ColumnData::new(DataType::Int);
        col.push(Value::Int(42));
        col.push(Value::Null);
        assert_eq!(col.join_key(0), Some(42));
        assert_eq!(col.join_key(1), None);

        let mut fcol = ColumnData::new(DataType::Float);
        fcol.push(Value::Float(1.5));
        assert_eq!(fcol.join_key(0), None);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut col = ColumnData::new(DataType::Int);
        col.push(Value::Float(1.0));
    }

    #[test]
    fn date_columns_are_int_backed() {
        let col = ColumnData::new(DataType::Date);
        assert_eq!(col.data_type(), DataType::Int);
        assert!(col.is_empty());
    }

    #[test]
    fn as_f64_views() {
        let mut col = ColumnData::new(DataType::Bool);
        col.push(Value::Bool(true));
        col.push(Value::Bool(false));
        assert_eq!(col.as_f64(0), Some(1.0));
        assert_eq!(col.as_f64(1), Some(0.0));
    }

    #[test]
    fn slice_range_copies_the_window() {
        let mut col = ColumnData::new(DataType::Int);
        for v in [Value::Int(1), Value::Null, Value::Int(3), Value::Int(4)] {
            col.push(v);
        }
        let slice = col.slice_range(1, 2);
        assert_eq!(slice.len(), 2);
        assert_eq!(slice.get(0), Value::Null);
        assert_eq!(slice.get(1), Value::Int(3));
    }

    #[test]
    fn gather_reorders_and_repeats_rows() {
        let mut col = ColumnData::new(DataType::Categorical);
        col.push(Value::Cat(5));
        col.push(Value::Null);
        col.push(Value::Cat(9));
        let gathered = col.gather(&[2, 0, 2]);
        assert_eq!(gathered.get(0), Value::Cat(9));
        assert_eq!(gathered.get(1), Value::Cat(5));
        assert_eq!(gathered.get(2), Value::Cat(9));
        match gathered {
            ColumnData::Cat { domain, .. } => assert_eq!(domain, 10),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn append_gather_accumulates_across_batches() {
        let mut a = ColumnData::new(DataType::Float);
        a.push(Value::Float(1.5));
        let mut b = ColumnData::new(DataType::Float);
        b.push(Value::Float(2.5));
        b.push(Value::Null);
        let mut out = ColumnData::new(DataType::Float);
        out.append_gather(&a, &[0]);
        out.append_gather(&b, &[1, 0]);
        assert_eq!(out.len(), 3);
        assert_eq!(out.get(0), Value::Float(1.5));
        assert_eq!(out.get(1), Value::Null);
        assert_eq!(out.get(2), Value::Float(2.5));
    }

    #[test]
    #[should_panic(expected = "append_gather between mismatched")]
    fn append_gather_rejects_mismatched_types() {
        let mut a = ColumnData::new(DataType::Int);
        let b = ColumnData::new(DataType::Float);
        a.append_gather(&b, &[]);
    }
}
