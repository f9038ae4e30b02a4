//! Binary payload of `Predict` and `PredictBatch`: a plan tree in a
//! fixed little-endian layout (see the crate docs for the table).
//!
//! Every `f64` crosses as its raw bits, so NaN payloads, ±inf, −0.0 and
//! subnormals arrive exactly as they were sent.  The decoder is strict
//! (an unknown tag, a bool other than 0 or 1, or trailing bytes fail) and
//! bounded: every declared count is checked against the bytes left
//! before anything is allocated for it, and no plan may be deeper than
//! [`MAX_PLAN_DEPTH`].

use zsdb_catalog::{ColumnId, ColumnRef, TableId, Value};
use zsdb_engine::{PhysOperator, PlanNode};
use zsdb_query::{AggFunc, Aggregate, CmpOp, Predicate};

/// Deepest plan the decoder accepts: a leaf alone is one level.  A
/// deeper payload is malformed, so a hostile one cannot drive the
/// recursive decoder into the stack.
pub const MAX_PLAN_DEPTH: usize = 64;

/// Fewest bytes an encoded node takes: an `Aggregate` of no aggregates
/// and no children (tag, count, three estimates, child count).
const MIN_NODE_LEN: usize = 1 + 4 + 3 * 8 + 4;
/// Fewest bytes an encoded predicate takes: column, operator, `Null`.
const MIN_PREDICATE_LEN: usize = 8 + 1 + 1;
/// Fewest bytes an encoded aggregate takes: function, no column.
const MIN_AGGREGATE_LEN: usize = 1 + 1;

/// Append a batch's encoding (count, then the plans) to `out`.
pub(crate) fn encode_plans(plans: &[PlanNode], out: &mut Vec<u8>) {
    put_count(plans.len(), out);
    for plan in plans {
        encode_plan(plan, out);
    }
}

/// Decode a payload holding exactly one plan.
pub(crate) fn decode_plan(payload: &[u8]) -> Result<PlanNode, String> {
    let mut cursor = Cursor { rest: payload };
    let plan = cursor.node(1)?;
    cursor.finish()?;
    Ok(plan)
}

/// Decode a payload holding exactly one batch of plans.
pub(crate) fn decode_plans(payload: &[u8]) -> Result<Vec<PlanNode>, String> {
    let mut cursor = Cursor { rest: payload };
    let n = cursor.count("plan", MIN_NODE_LEN)?;
    let mut plans = Vec::with_capacity(n);
    for _ in 0..n {
        plans.push(cursor.node(1)?);
    }
    cursor.finish()?;
    Ok(plans)
}

fn put_count(n: usize, out: &mut Vec<u8>) {
    // 2^32 items of any kind would not fit in memory, let alone a frame.
    let n = u32::try_from(n).expect("fewer than 2^32 items");
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_f64(v: f64, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_column(c: ColumnRef, out: &mut Vec<u8>) {
    out.extend_from_slice(&c.table.0.to_le_bytes());
    out.extend_from_slice(&c.column.0.to_le_bytes());
}

fn put_opt_f64(v: Option<f64>, out: &mut Vec<u8>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_f64(v, out);
        }
    }
}

fn put_predicates(predicates: &[Predicate], out: &mut Vec<u8>) {
    put_count(predicates.len(), out);
    for p in predicates {
        put_column(p.column, out);
        out.push(p.op.index() as u8);
        match p.value {
            Value::Null => out.push(0),
            Value::Int(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Float(v) => {
                out.push(2);
                put_f64(v, out);
            }
            Value::Cat(v) => {
                out.push(3);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Bool(v) => out.extend_from_slice(&[4, u8::from(v)]),
        }
    }
}

/// Append one plan's encoding to `out`.
pub(crate) fn encode_plan(plan: &PlanNode, out: &mut Vec<u8>) {
    match &plan.op {
        PhysOperator::SeqScan { table, predicates } => {
            out.push(0);
            out.extend_from_slice(&table.0.to_le_bytes());
            put_predicates(predicates, out);
        }
        PhysOperator::IndexScan {
            table,
            index_column,
            lo,
            hi,
            residual,
        } => {
            out.push(1);
            out.extend_from_slice(&table.0.to_le_bytes());
            put_column(*index_column, out);
            put_opt_f64(*lo, out);
            put_opt_f64(*hi, out);
            put_predicates(residual, out);
        }
        PhysOperator::HashJoin {
            build_key,
            probe_key,
        } => {
            out.push(2);
            put_column(*build_key, out);
            put_column(*probe_key, out);
        }
        PhysOperator::NestedLoopJoin {
            outer_key,
            inner_key,
        } => {
            out.push(3);
            put_column(*outer_key, out);
            put_column(*inner_key, out);
        }
        PhysOperator::Aggregate { aggregates } => {
            out.push(4);
            put_count(aggregates.len(), out);
            for a in aggregates {
                out.push(a.func.index() as u8);
                match a.column {
                    None => out.push(0),
                    Some(c) => {
                        out.push(1);
                        put_column(c, out);
                    }
                }
            }
        }
    }
    put_f64(plan.est_cardinality, out);
    put_f64(plan.est_cost, out);
    put_f64(plan.output_width, out);
    put_count(plan.children.len(), out);
    for child in &plan.children {
        encode_plan(child, out);
    }
}

/// The unread rest of a payload.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl Cursor<'_> {
    fn take<const N: usize>(&mut self, what: &str) -> Result<[u8; N], String> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| format!("payload ends inside {what}"))?;
        self.rest = tail;
        Ok(*head)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take::<1>(what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(what)?))
    }

    fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take(what)?)))
    }

    /// A `u8` that is 0 or 1.
    fn flag(&mut self, what: &str) -> Result<bool, String> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("{what} is {other}, not 0 or 1")),
        }
    }

    /// A count of items at least `min_len` bytes each, refused when the
    /// bytes left cannot hold that many.
    fn count(&mut self, what: &str, min_len: usize) -> Result<usize, String> {
        let n = self.u32(what)? as usize;
        if n > self.rest.len() / min_len {
            return Err(format!(
                "{n} {what}s cannot fit the {} bytes left",
                self.rest.len()
            ));
        }
        Ok(n)
    }

    fn column(&mut self) -> Result<ColumnRef, String> {
        Ok(ColumnRef::new(
            TableId(self.u32("a table id")?),
            ColumnId(self.u32("a column id")?),
        ))
    }

    fn opt_f64(&mut self, what: &str) -> Result<Option<f64>, String> {
        Ok(if self.flag(what)? {
            Some(self.f64(what)?)
        } else {
            None
        })
    }

    fn predicates(&mut self) -> Result<Vec<Predicate>, String> {
        let n = self.count("predicate", MIN_PREDICATE_LEN)?;
        let mut predicates = Vec::with_capacity(n);
        for _ in 0..n {
            let column = self.column()?;
            let op = self.u8("an operator")?;
            let op = *CmpOp::ALL
                .get(op as usize)
                .ok_or_else(|| format!("unknown comparison operator {op}"))?;
            let value = match self.u8("a value tag")? {
                0 => Value::Null,
                1 => Value::Int(i64::from_le_bytes(self.take("an integer")?)),
                2 => Value::Float(self.f64("a float")?),
                3 => Value::Cat(self.u32("a category")?),
                4 => Value::Bool(self.flag("a bool")?),
                tag => return Err(format!("unknown value tag {tag}")),
            };
            predicates.push(Predicate::new(column, op, value));
        }
        Ok(predicates)
    }

    fn aggregates(&mut self) -> Result<Vec<Aggregate>, String> {
        let n = self.count("aggregate", MIN_AGGREGATE_LEN)?;
        let mut aggregates = Vec::with_capacity(n);
        for _ in 0..n {
            let func = self.u8("an aggregate function")?;
            let func = *AggFunc::ALL
                .get(func as usize)
                .ok_or_else(|| format!("unknown aggregate function {func}"))?;
            let column = if self.flag("a column tag")? {
                Some(self.column()?)
            } else {
                None
            };
            aggregates.push(Aggregate { func, column });
        }
        Ok(aggregates)
    }

    fn node(&mut self, depth: usize) -> Result<PlanNode, String> {
        if depth > MAX_PLAN_DEPTH {
            return Err(format!("plan deeper than {MAX_PLAN_DEPTH} levels"));
        }
        // Struct fields are evaluated in the order written: layout order.
        let op = match self.u8("an operator tag")? {
            0 => PhysOperator::SeqScan {
                table: TableId(self.u32("a table id")?),
                predicates: self.predicates()?,
            },
            1 => PhysOperator::IndexScan {
                table: TableId(self.u32("a table id")?),
                index_column: self.column()?,
                lo: self.opt_f64("a lower bound")?,
                hi: self.opt_f64("an upper bound")?,
                residual: self.predicates()?,
            },
            2 => PhysOperator::HashJoin {
                build_key: self.column()?,
                probe_key: self.column()?,
            },
            3 => PhysOperator::NestedLoopJoin {
                outer_key: self.column()?,
                inner_key: self.column()?,
            },
            4 => PhysOperator::Aggregate {
                aggregates: self.aggregates()?,
            },
            tag => return Err(format!("unknown operator tag {tag}")),
        };
        let est_cardinality = self.f64("an estimated cardinality")?;
        let est_cost = self.f64("an estimated cost")?;
        let output_width = self.f64("an output width")?;
        let n = self.count("child", MIN_NODE_LEN)?;
        let mut children = Vec::with_capacity(n);
        for _ in 0..n {
            children.push(self.node(depth + 1)?);
        }
        Ok(PlanNode {
            op,
            children,
            est_cardinality,
            est_cost,
            output_width,
        })
    }

    fn finish(&self) -> Result<(), String> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the plan")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(est_cardinality: f64) -> PlanNode {
        PlanNode::leaf(
            PhysOperator::Aggregate { aggregates: vec![] },
            est_cardinality,
            2.0,
            8.0,
        )
    }

    #[test]
    fn minimal_lengths_are_the_encodings_of_the_smallest_items() {
        let mut out = Vec::new();
        encode_plan(&leaf(1.0), &mut out);
        assert_eq!(out.len(), MIN_NODE_LEN);
        out.clear();
        let null = Predicate::new(
            ColumnRef::new(TableId(0), ColumnId(0)),
            CmpOp::Eq,
            Value::Null,
        );
        put_predicates(&[null], &mut out);
        assert_eq!(out.len(), 4 + MIN_PREDICATE_LEN);
        let mut out = Vec::new();
        encode_plan(
            &PlanNode::leaf(
                PhysOperator::Aggregate {
                    aggregates: vec![Aggregate::count_star()],
                },
                1.0,
                1.0,
                1.0,
            ),
            &mut out,
        );
        assert_eq!(out.len(), MIN_NODE_LEN + MIN_AGGREGATE_LEN);
    }

    #[test]
    fn strictness_refuses_trailing_bytes_bad_tags_and_bad_bools() {
        let mut out = Vec::new();
        encode_plan(&leaf(1.0), &mut out);
        let mut trailing = out.clone();
        trailing.push(0);
        assert!(decode_plan(&trailing).unwrap_err().contains("trailing"));
        let mut bad_tag = out.clone();
        bad_tag[0] = 5;
        assert!(decode_plan(&bad_tag).unwrap_err().contains("operator tag"));
        let bool_pred = Predicate::new(
            ColumnRef::new(TableId(0), ColumnId(0)),
            CmpOp::Eq,
            Value::Bool(true),
        );
        let plan = PlanNode::leaf(
            PhysOperator::SeqScan {
                table: TableId(0),
                predicates: vec![bool_pred],
            },
            1.0,
            1.0,
            1.0,
        );
        let mut out = Vec::new();
        encode_plan(&plan, &mut out);
        // tag, table, count, column, operator, value tag: the bool is next.
        let at = 1 + 4 + 4 + 8 + 1 + 1;
        assert_eq!(out[at], 1);
        out[at] = 2;
        assert!(decode_plan(&out).unwrap_err().contains("not 0 or 1"));
    }
}
