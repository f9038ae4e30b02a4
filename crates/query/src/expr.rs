//! Filter predicates and aggregates.

use serde::{Deserialize, Serialize};
use std::fmt;
use zsdb_catalog::{ColumnRef, DataType, Value};

/// Comparison operator of a filter predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Leq,
    /// `>`
    Gt,
    /// `>=`
    Geq,
}

impl CmpOp {
    /// All operators in the canonical order used for one-hot encodings.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Neq,
        CmpOp::Lt,
        CmpOp::Leq,
        CmpOp::Gt,
        CmpOp::Geq,
    ];

    /// Stable index of the operator (for one-hot encodings).
    pub fn index(self) -> usize {
        match self {
            CmpOp::Eq => 0,
            CmpOp::Neq => 1,
            CmpOp::Lt => 2,
            CmpOp::Leq => 3,
            CmpOp::Gt => 4,
            CmpOp::Geq => 5,
        }
    }

    /// Whether this is a range (inequality) operator.
    pub fn is_range(self) -> bool {
        matches!(self, CmpOp::Lt | CmpOp::Leq | CmpOp::Gt | CmpOp::Geq)
    }

    /// Apply the operator to two (non-null) numeric views.  Incomparable
    /// pairs (NaN) are `false`, matching [`Value::sql_cmp`] semantics.
    #[inline]
    pub fn compare_f64(self, a: f64, b: f64) -> bool {
        let Some(ordering) = a.partial_cmp(&b) else {
            return false;
        };
        match self {
            CmpOp::Eq => ordering == std::cmp::Ordering::Equal,
            CmpOp::Neq => ordering != std::cmp::Ordering::Equal,
            CmpOp::Lt => ordering == std::cmp::Ordering::Less,
            CmpOp::Leq => ordering != std::cmp::Ordering::Greater,
            CmpOp::Gt => ordering == std::cmp::Ordering::Greater,
            CmpOp::Geq => ordering != std::cmp::Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "<>",
            CmpOp::Lt => "<",
            CmpOp::Leq => "<=",
            CmpOp::Gt => ">",
            CmpOp::Geq => ">=",
        };
        f.write_str(s)
    }
}

/// A simple filter predicate `column op literal`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Filtered column.
    pub column: ColumnRef,
    /// Comparison operator.
    pub op: CmpOp,
    /// Comparison literal.
    pub value: Value,
}

impl Predicate {
    /// Convenience constructor.
    pub fn new(column: ColumnRef, op: CmpOp, value: Value) -> Self {
        Predicate { column, op, value }
    }

    /// Evaluate the predicate against a concrete column value using SQL
    /// three-valued logic collapsed to a boolean: comparisons involving
    /// NULL are `false`.
    pub fn matches(&self, value: Value) -> bool {
        self.matches_f64(value.as_f64())
    }

    /// Evaluate the predicate against the numeric view of a value
    /// (`None` = NULL).  The engine's typed batch kernel is pinned lane by
    /// lane against this scalar definition.
    #[inline]
    pub fn matches_f64(&self, value: Option<f64>) -> bool {
        match (value, self.value.as_f64()) {
            (Some(a), Some(b)) => self.op.compare_f64(a, b),
            _ => false,
        }
    }
}

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(col)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `AVG(col)`.
    Avg,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
}

impl AggFunc {
    /// All aggregate functions in canonical one-hot order.
    pub const ALL: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];

    /// Stable index for one-hot encodings.
    pub fn index(self) -> usize {
        match self {
            AggFunc::Count => 0,
            AggFunc::Sum => 1,
            AggFunc::Avg => 2,
            AggFunc::Min => 3,
            AggFunc::Max => 4,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// An aggregate expression in the SELECT list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Aggregate function.
    pub func: AggFunc,
    /// Aggregated column; `None` means `COUNT(*)`.
    pub column: Option<ColumnRef>,
}

impl Aggregate {
    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        Aggregate {
            func: AggFunc::Count,
            column: None,
        }
    }

    /// Aggregate over a column.
    pub fn over(func: AggFunc, column: ColumnRef) -> Self {
        Aggregate {
            func,
            column: Some(column),
        }
    }
}

/// Which comparison operators are legal for a column of the given type.
pub fn legal_operators(data_type: DataType) -> &'static [CmpOp] {
    if data_type.is_orderable() && data_type != DataType::Categorical {
        &CmpOp::ALL
    } else {
        // Categorical / boolean columns only support (in)equality.
        &[CmpOp::Eq, CmpOp::Neq]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zsdb_catalog::{ColumnId, TableId};

    fn col() -> ColumnRef {
        ColumnRef::new(TableId(0), ColumnId(0))
    }

    #[test]
    fn cmp_op_indices_are_stable() {
        for (i, op) in CmpOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
        assert!(CmpOp::Lt.is_range());
        assert!(!CmpOp::Eq.is_range());
    }

    #[test]
    fn predicate_matching() {
        let p = Predicate::new(col(), CmpOp::Gt, Value::Int(10));
        assert!(p.matches(Value::Int(11)));
        assert!(!p.matches(Value::Int(10)));
        assert!(!p.matches(Value::Null));

        let eq = Predicate::new(col(), CmpOp::Eq, Value::Cat(3));
        assert!(eq.matches(Value::Cat(3)));
        assert!(!eq.matches(Value::Cat(4)));
    }

    #[test]
    fn leq_geq_neq() {
        let leq = Predicate::new(col(), CmpOp::Leq, Value::Float(1.5));
        assert!(leq.matches(Value::Float(1.5)));
        assert!(leq.matches(Value::Int(1)));
        assert!(!leq.matches(Value::Int(2)));

        let neq = Predicate::new(col(), CmpOp::Neq, Value::Int(0));
        assert!(neq.matches(Value::Int(1)));
        assert!(!neq.matches(Value::Int(0)));

        let geq = Predicate::new(col(), CmpOp::Geq, Value::Int(5));
        assert!(geq.matches(Value::Int(5)));
        assert!(!geq.matches(Value::Int(4)));
    }

    #[test]
    fn aggregate_constructors() {
        let star = Aggregate::count_star();
        assert_eq!(star.func, AggFunc::Count);
        assert!(star.column.is_none());
        let min = Aggregate::over(AggFunc::Min, col());
        assert_eq!(min.func, AggFunc::Min);
        assert!(min.column.is_some());
    }

    #[test]
    fn legal_operator_sets() {
        assert_eq!(legal_operators(DataType::Int).len(), 6);
        assert_eq!(legal_operators(DataType::Categorical).len(), 2);
        assert_eq!(legal_operators(DataType::Bool).len(), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CmpOp::Geq.to_string(), ">=");
        assert_eq!(AggFunc::Avg.to_string(), "AVG");
    }
}
