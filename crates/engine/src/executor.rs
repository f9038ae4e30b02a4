//! Vectorized plan execution with work accounting.
//!
//! The executor evaluates a physical plan against the column store
//! **batch-at-a-time**: a [`ColumnBatch`] — column-major typed vectors plus
//! a *select vector* of live lanes — flows between operators instead of
//! row-major `Vec<Vec<Value>>` relations.
//!
//! **Needed columns.**  Every operator is built with the set of columns its
//! parent reads (the root asks for the aggregates' columns, a join adds its
//! own keys to what it asks of its children) and emits only those: a scan
//! copies the needed columns of a batch, a join stores and gathers the
//! needed columns of each side, and a `COUNT(*)` pipeline carries no column
//! at all — which is why a batch has an explicit row count.  The *logical*
//! tuple an operator produces is still every column of every base table
//! below it: a batch schema keeps that width apart from the carried
//! columns, so `output_bytes` / `build_bytes` — the labels — do not depend
//! on what happens to be carried.
//!
//! **Predicates** are evaluated straight over the typed value and null
//! slices of the column store, one loop per (column type, operator), into
//! the select vector; filtered-out tuples are never materialised.  Values
//! are compared through their `f64` view, like
//! [`zsdb_query::Predicate::matches`], and an incomparable pair (NaN) fails
//! every operator including `<>`.
//!
//! **Joins** drain one side (the build side of a hash join, the inner side
//! of a nested loop) and keep its keyed rows in one flat table: a `heads`
//! array and one `next` link per stored row.  The chains are threaded back
//! to front, so walking one visits equal keys in insertion order.  That
//! order is a contract, not a nicety: it fixes the order of the join's
//! output rows, hence the order in which a `SUM` above it adds floats,
//! hence the bits of the aggregate.  The table picks its layout from its
//! keys once they are all in:
//!
//! * *dense* when the range `max − min + 1` (computed in `i128`) fits in
//!   the power-of-two bucket array, at least two buckets per row, that a
//!   hashed table would allocate anyway: heads are indexed by `key − min`,
//!   so a chain holds exactly one key.  When no key repeats, a probe
//!   writes each lane's one candidate and advances by `(row != NIL)`, like
//!   the predicate kernel's compaction, instead of walking a chain;
//! * *hashed* otherwise: the bucket is the high bits of a Fibonacci hash
//!   and a chain may mix keys, so each row's key is compared.
//!
//! **Nothing per lane against an empty side.**  When no stored row has a
//! key — the side is empty, all NULL, or its key type cannot equal the
//! other side's — no table is built and the other side is drained for the
//! counters without being keyed or probed.  The stored side is drained and
//! charged in full either way.
//!
//! **A nested loop is executed through the same join table** — outer lanes
//! probe a table over the inner side's keyed rows, the output still comes
//! outer first and per outer lane in inner order — but it is *charged* as
//! the nested loop the optimizer planned: `comparisons = outer × inner` and
//! `input_tuples = outer + outer × inner`.  The labels describe the plan's
//! algorithm, not this engine's shortcut, so they stay what
//! [`crate::exec_row::RowExecutor`] counts.
//!
//! Key extraction and the root aggregate's fold match the column type once
//! per batch and then run a typed loop over the selected lanes.
//!
//! Per operator the executor records both the *true* output cardinality and
//! a set of [`WorkMetrics`] (tuples, pages, probes, comparisons, bytes).
//! True cardinalities feed the zero-shot model's "exact cardinalities"
//! variant; the work metrics feed the runtime simulator.  The metrics
//! contract is execution-strategy independent: the row-at-a-time reference
//! implementation ([`crate::exec_row::RowExecutor`]) produces bit-identical
//! aggregates, cardinalities and work counters (pinned by the
//! `exec_equivalence` property suite), so training labels do not depend on
//! which executor produced them.

use crate::physical::{PhysOperator, PhysOperatorKind, PlanNode};
use serde::{Deserialize, Serialize};
use zsdb_catalog::table::TUPLE_OVERHEAD_BYTES;
use zsdb_catalog::{ColumnRef, DataType, TableId, Value, PAGE_SIZE_BYTES};
use zsdb_query::{AggFunc, Aggregate, CmpOp, Predicate};
use zsdb_storage::{ColumnData, Database, TableData};

/// Number of rows per [`ColumnBatch`] emitted by scans.
pub const BATCH_ROWS: usize = 1024;

/// Work performed by one operator during execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkMetrics {
    /// Tuples read from children (or from the base table for scans).  For
    /// nested-loop joins this accounts for the inner relation being
    /// rescanned once per outer tuple: `outer + outer * inner`.
    pub input_tuples: u64,
    /// Tuples produced.
    pub output_tuples: u64,
    /// Heap pages read sequentially.
    pub pages_seq: u64,
    /// Pages read with random access (index pages and heap fetches).
    pub pages_random: u64,
    /// Index entries touched.
    pub index_entries: u64,
    /// Tuples inserted into a hash table.
    pub hash_build_tuples: u64,
    /// Hash table probes performed.
    pub hash_probe_tuples: u64,
    /// Key comparisons (nested-loop joins).
    pub comparisons: u64,
    /// Predicate evaluations.
    pub predicate_evals: u64,
    /// Bytes held in the operator's hash table / state.
    pub build_bytes: u64,
    /// Bytes of produced tuples.
    pub output_bytes: u64,
}

impl WorkMetrics {
    /// Element-wise sum of two work metrics (used for aggregating over a
    /// plan or a workload).
    pub fn add(&self, other: &WorkMetrics) -> WorkMetrics {
        WorkMetrics {
            input_tuples: self.input_tuples + other.input_tuples,
            output_tuples: self.output_tuples + other.output_tuples,
            pages_seq: self.pages_seq + other.pages_seq,
            pages_random: self.pages_random + other.pages_random,
            index_entries: self.index_entries + other.index_entries,
            hash_build_tuples: self.hash_build_tuples + other.hash_build_tuples,
            hash_probe_tuples: self.hash_probe_tuples + other.hash_probe_tuples,
            comparisons: self.comparisons + other.comparisons,
            predicate_evals: self.predicate_evals + other.predicate_evals,
            build_bytes: self.build_bytes + other.build_bytes,
            output_bytes: self.output_bytes + other.output_bytes,
        }
    }
}

/// A plan node annotated with execution results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutedNode {
    /// Operator kind.
    pub kind: PhysOperatorKind,
    /// Optimizer-estimated cardinality (copied from the plan).
    pub est_cardinality: f64,
    /// True output cardinality observed during execution.
    pub actual_cardinality: u64,
    /// Output tuple width in bytes (copied from the plan).
    pub output_width: f64,
    /// Work performed by this operator alone (not including children).
    pub work: WorkMetrics,
    /// Executed children, in the same order as the plan's children.
    pub children: Vec<ExecutedNode>,
}

impl ExecutedNode {
    /// Total work of the subtree.
    pub fn total_work(&self) -> WorkMetrics {
        self.children
            .iter()
            .fold(self.work, |acc, c| acc.add(&c.total_work()))
    }

    /// Number of nodes in the subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ExecutedNode::size).sum::<usize>()
    }

    /// Pre-order traversal of the subtree.
    pub fn iter(&self) -> Vec<&ExecutedNode> {
        let mut nodes = vec![self];
        let mut i = 0;
        while i < nodes.len() {
            let node = nodes[i];
            nodes.extend(node.children.iter());
            i += 1;
        }
        nodes
    }
}

/// Result of executing a plan: aggregate values plus the executed tree.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// One value per aggregate in the plan's root `Aggregate` operator
    /// (NULL when the input was empty for value aggregates).
    pub aggregates: Vec<Value>,
    /// The executed plan with true cardinalities and work metrics.
    pub root: ExecutedNode,
}

/// A batch of up to [`BATCH_ROWS`] tuples flowing between operators:
/// column-major typed vectors plus a *select vector* holding the indices of
/// the lanes that are still alive (ascending).  Predicates shrink the select
/// vector instead of materialising survivor rows; consumers (joins,
/// aggregation) only touch selected lanes.
#[derive(Debug)]
pub struct ColumnBatch {
    /// The carried columns — those some operator above reads — each
    /// `rows` long.
    pub columns: Vec<ColumnData>,
    /// Indices of live lanes, ascending.
    pub select: Vec<u32>,
    /// Physical number of rows (live or not); a batch may carry no column.
    pub rows: usize,
}

impl ColumnBatch {
    /// Number of live (selected) tuples in the batch.
    pub fn num_live(&self) -> usize {
        self.select.len()
    }

    /// Physical number of rows in the batch (live or not).
    pub fn num_rows(&self) -> usize {
        self.rows
    }
}

/// Width in bytes of one materialised tuple with the given column types:
/// the sum of the catalog column widths plus one tuple header.  This is the
/// single width helper shared by both executors and the runtime simulator's
/// page/byte accounting ([`pages_for`]), so `output_bytes`/`build_bytes`
/// labels agree with the optimizer's catalog-derived width estimates
/// instead of hardcoding 8 bytes per column.
pub fn row_width_bytes(types: &[DataType]) -> u64 {
    types.iter().map(|t| t.width_bytes() as u64).sum::<u64>() + TUPLE_OVERHEAD_BYTES
}

/// Random heap pages fetched by an index scan that matched `matched` index
/// entries on a table of `num_tuples` tuples: one uncorrelated random page
/// access per fetched tuple, capped at the table's tuple count (an index
/// never matches more entries than the table holds, so the cap is a
/// defensive invariant rather than a modelling fudge).
pub fn index_heap_fetch_pages(matched: u64, num_tuples: u64) -> u64 {
    matched.min(num_tuples)
}

/// A typed join key: the value's variant tag plus its 64-bit payload.
/// Carrying the tag keeps mistyped join columns from colliding in one key
/// space — `Int(1)` must not join `Bool(true)` or `Cat(1)`.  Floats and
/// NULLs are not join keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinKey {
    /// Variant tag (see [`join_key_tag`]).
    pub tag: u8,
    /// 64-bit key payload.
    pub key: i64,
}

/// Tag of the join-key space a column of the given type produces, `None`
/// for types that are not valid join keys (floats).  Date columns share the
/// integer key space, matching their physical representation.
pub fn join_key_tag(data_type: DataType) -> Option<u8> {
    match data_type {
        DataType::Int | DataType::Date => Some(0),
        DataType::Categorical => Some(1),
        DataType::Bool => Some(2),
        DataType::Float => None,
    }
}

/// Typed join key of a value (NULL → no key, floats are not join keys).
pub fn typed_join_key(value: &Value) -> Option<JoinKey> {
    let tag = join_key_tag(value.data_type()?)?;
    match value {
        Value::Int(v) => Some(JoinKey { tag, key: *v }),
        Value::Cat(v) => Some(JoinKey {
            tag,
            key: *v as i64,
        }),
        Value::Bool(v) => Some(JoinKey {
            tag,
            key: *v as i64,
        }),
        Value::Float(_) | Value::Null => None,
    }
}

/// Batch-at-a-time plan executor over one database.
///
/// This is the engine's production execution path; the row-at-a-time
/// reference oracle lives in [`crate::exec_row::RowExecutor`].
pub struct Executor<'a> {
    db: &'a Database,
}

impl<'a> Executor<'a> {
    /// Create an executor for the given database.
    pub fn new(db: &'a Database) -> Self {
        Executor { db }
    }

    /// Execute a physical plan and return aggregate values plus the
    /// executed tree.  The plan's root must be an `Aggregate` operator (the
    /// optimizer always produces one); plans without a root aggregate are
    /// executed for their side effects (work metrics) with no aggregate
    /// values.
    pub fn execute(&self, plan: &PlanNode) -> QueryResult {
        match &plan.op {
            PhysOperator::Aggregate { aggregates } => self.execute_aggregate_root(plan, aggregates),
            _ => {
                let (mut op, _) = build_operator(self.db, plan, &[]);
                while op.next_batch().is_some() {}
                QueryResult {
                    aggregates: Vec::new(),
                    root: op.finish(),
                }
            }
        }
    }

    fn execute_aggregate_root(&self, plan: &PlanNode, aggregates: &[Aggregate]) -> QueryResult {
        let needed = aggregated_columns(aggregates);
        let (mut child, schema) = build_operator(self.db, &plan.children[0], &needed);
        let positions: Vec<Option<usize>> = aggregates
            .iter()
            .map(|a| a.column.map(|c| schema.position(c)))
            .collect();
        let mut accs = vec![AggAccumulator::new(); aggregates.len()];
        let mut input_rows = 0u64;
        while let Some(batch) = child.next_batch() {
            input_rows += batch.num_live() as u64;
            for (acc, pos) in accs.iter_mut().zip(&positions) {
                if let Some(pos) = pos {
                    acc.fold_lanes(&batch.columns[*pos], &batch.select);
                }
            }
        }
        let values: Vec<Value> = aggregates
            .iter()
            .zip(&accs)
            .map(|(agg, acc)| acc.finalize(agg.func, agg.column.is_some(), input_rows))
            .collect();
        let work = WorkMetrics {
            input_tuples: input_rows,
            output_tuples: 1,
            predicate_evals: input_rows * aggregates.len() as u64,
            output_bytes: 8 * aggregates.len() as u64,
            ..WorkMetrics::default()
        };
        let root = ExecutedNode {
            kind: PhysOperatorKind::Aggregate,
            est_cardinality: plan.est_cardinality,
            actual_cardinality: 1,
            output_width: plan.output_width,
            work,
            children: vec![child.finish()],
        };
        QueryResult {
            aggregates: values,
            root,
        }
    }
}

/// Running state of one scalar aggregate.  Folds happen in row order, so
/// floating-point results are bit-identical to the row-at-a-time reference
/// (which collects values in the same order before reducing).
#[derive(Debug, Clone)]
struct AggAccumulator {
    non_null: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl AggAccumulator {
    fn new() -> Self {
        AggAccumulator {
            non_null: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    #[inline]
    fn fold(&mut self, v: f64) {
        self.non_null += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold the `f64` view (see [`ColumnData::as_f64`]) of every selected
    /// non-NULL lane of `column`, in lane order.
    fn fold_lanes(&mut self, column: &ColumnData, select: &[u32]) {
        match column {
            ColumnData::Int { values, nulls } => {
                each_non_null(values, nulls, select, |_, v| self.fold(v as f64))
            }
            ColumnData::Float { values, nulls } => {
                each_non_null(values, nulls, select, |_, v| self.fold(v))
            }
            ColumnData::Cat { values, nulls, .. } => {
                each_non_null(values, nulls, select, |_, v| self.fold(v as f64))
            }
            ColumnData::Bool { values, nulls } => {
                each_non_null(values, nulls, select, |_, v| self.fold(v as u8 as f64))
            }
        }
    }

    fn finalize(&self, func: AggFunc, over_column: bool, input_rows: u64) -> Value {
        if !over_column {
            // COUNT(*) counts tuples, not non-null values.
            return Value::Int(input_rows as i64);
        }
        if self.non_null == 0 {
            return match func {
                AggFunc::Count => Value::Int(0),
                _ => Value::Null,
            };
        }
        match func {
            AggFunc::Count => Value::Int(self.non_null as i64),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Avg => Value::Float(self.sum / self.non_null as f64),
            AggFunc::Min => Value::Float(self.min),
            AggFunc::Max => Value::Float(self.max),
        }
    }
}

/// The batches an operator produces: the columns they carry, and the types
/// of the logical tuple — every column of every base table below the
/// operator — whose width the work counters are charged with.
struct BatchSchema {
    columns: Vec<ColumnRef>,
    types: Vec<DataType>,
    logical_types: Vec<DataType>,
}

impl BatchSchema {
    fn position(&self, column: ColumnRef) -> usize {
        self.columns
            .iter()
            .position(|c| *c == column)
            .unwrap_or_else(|| panic!("column {column} not present in intermediate relation"))
    }

    fn width_bytes(&self) -> u64 {
        row_width_bytes(&self.logical_types)
    }

    /// The carried columns in the storage of the one table they come from.
    fn storage<'a>(&self, data: &'a TableData) -> Vec<&'a ColumnData> {
        let stored = |c: &ColumnRef| data.column(c.column);
        self.columns.iter().map(stored).collect()
    }
}

fn push_unique(columns: &mut Vec<ColumnRef>, column: ColumnRef) {
    if !columns.contains(&column) {
        columns.push(column);
    }
}

/// The distinct columns a root aggregate reads: what it needs of its child.
fn aggregated_columns(aggregates: &[Aggregate]) -> Vec<ColumnRef> {
    let mut columns = Vec::new();
    let read = aggregates.iter().filter_map(|a| a.column);
    read.for_each(|column| push_unique(&mut columns, column));
    columns
}

/// Schema of a scan of `table` that carries the `needed` columns of it.
fn scan_schema(db: &Database, table: TableId, needed: &[ColumnRef]) -> BatchSchema {
    let meta = db.catalog().table(table);
    let type_of = |c: &ColumnRef| meta.columns[c.column.index()].data_type;
    let columns: Vec<ColumnRef> = needed
        .iter()
        .copied()
        .filter(|c| c.table == table)
        .collect();
    BatchSchema {
        types: columns.iter().map(type_of).collect(),
        columns,
        logical_types: meta.columns.iter().map(|c| c.data_type).collect(),
    }
}

/// What a join reads from and emits of its two children (in plan order).
struct JoinLayout {
    /// Position of the join key among each child's carried columns.
    key_pos: [usize; 2],
    /// Positions of the carried columns of each child that the join's
    /// parent reads; the output carries these, first child first.
    out_pos: [Vec<usize>; 2],
    /// Types of the `out_pos` columns.
    out_types: [Vec<DataType>; 2],
    /// Join keys can only match when both key columns live in the same
    /// typed key space (see [`join_key_tag`]).
    tags_match: bool,
    /// Logical tuple width of each child and of the output.
    child_width: [u64; 2],
    width: u64,
}

type JoinInputs<'a> = ([Box<dyn BatchOperator + 'a>; 2], JoinLayout, BatchSchema);

/// Build both children of a join asking each for what the parent needs plus
/// the join's own key, and lay out what the join keeps of them.
fn join_inputs<'a>(
    db: &'a Database,
    plan: &'a PlanNode,
    keys: [ColumnRef; 2],
    needed: &[ColumnRef],
) -> JoinInputs<'a> {
    let mut below = needed.to_vec();
    keys.iter().for_each(|key| push_unique(&mut below, *key));
    let (left, left_schema) = build_operator(db, &plan.children[0], &below);
    let (right, right_schema) = build_operator(db, &plan.children[1], &below);
    let children = [&left_schema, &right_schema];
    let key_pos = [0, 1].map(|i| children[i].position(keys[i]));
    let tags = [0, 1].map(|i| join_key_tag(children[i].types[key_pos[i]]));
    let out_pos = children.map(|schema| -> Vec<usize> {
        (0..schema.columns.len())
            .filter(|&pos| needed.contains(&schema.columns[pos]))
            .collect()
    });
    let kept = |i: usize| {
        let schema = children[i];
        out_pos[i]
            .iter()
            .map(move |&pos| (schema.columns[pos], schema.types[pos]))
    };
    let (columns, types) = kept(0).chain(kept(1)).unzip();
    let schema = BatchSchema {
        columns,
        types,
        logical_types: [
            &children[0].logical_types[..],
            &children[1].logical_types[..],
        ]
        .concat(),
    };
    let layout = JoinLayout {
        key_pos,
        out_types: [0, 1].map(|i| kept(i).map(|(_, data_type)| data_type).collect()),
        out_pos,
        tags_match: tags[0].is_some() && tags[0] == tags[1],
        child_width: children.map(BatchSchema::width_bytes),
        width: schema.width_bytes(),
    };
    ([left, right], layout, schema)
}

/// The executed node of `plan` given its own work and its executed children.
fn executed(plan: &PlanNode, work: WorkMetrics, children: Vec<ExecutedNode>) -> ExecutedNode {
    ExecutedNode {
        kind: plan.op.kind(),
        est_cardinality: plan.est_cardinality,
        actual_cardinality: work.output_tuples,
        output_width: plan.output_width,
        work,
        children,
    }
}

/// A pull-based batch operator.  `next_batch` yields batches until
/// exhausted; `finish` consumes the operator and returns the executed node
/// (callers must drain the operator first — [`Executor::execute`] does).
trait BatchOperator {
    fn next_batch(&mut self) -> Option<ColumnBatch>;
    fn finish(self: Box<Self>) -> ExecutedNode;
}

/// Build the operator tree of `plan`.  `needed` (duplicate-free) is what
/// the parent reads; the batches carry exactly those of them that come from
/// a table below `plan`.
fn build_operator<'a>(
    db: &'a Database,
    plan: &'a PlanNode,
    needed: &[ColumnRef],
) -> (Box<dyn BatchOperator + 'a>, BatchSchema) {
    match &plan.op {
        PhysOperator::SeqScan { table, predicates } => {
            let schema = scan_schema(db, *table, needed);
            let op = SeqScanBatches::new(db, plan, *table, predicates, &schema);
            (Box::new(op), schema)
        }
        PhysOperator::IndexScan {
            table,
            index_column,
            lo,
            hi,
            residual,
        } => {
            let schema = scan_schema(db, *table, needed);
            let op =
                IndexScanBatches::new(db, plan, *table, *index_column, *lo, *hi, residual, &schema);
            (Box::new(op), schema)
        }
        PhysOperator::HashJoin {
            build_key: first,
            probe_key: second,
        }
        | PhysOperator::NestedLoopJoin {
            outer_key: first,
            inner_key: second,
        } => {
            let algorithm = match plan.op {
                PhysOperator::HashJoin { .. } => JoinAlgorithm::Hash,
                _ => JoinAlgorithm::NestedLoop,
            };
            let (children, layout, schema) = join_inputs(db, plan, [*first, *second], needed);
            let op = JoinBatches::new(plan, algorithm, children, layout);
            (Box::new(op), schema)
        }
        PhysOperator::Aggregate { .. } => {
            panic!("Aggregate operators are only supported at the plan root")
        }
    }
}

/// Typed predicate kernel: narrow `select` to the lanes of rows
/// `[start, start + len)` of `column` (lane 0 = row `start`) that satisfy
/// `p`.  The `first` predicate of a conjunction considers every lane and
/// writes `select` from scratch; later ones only shrink it.  Same outcome
/// lane for lane as [`Predicate::matches`]: values compare through their
/// `f64` view, and a NULL value, a NULL literal or a NaN on either side
/// fails every operator.
fn filter_rows(
    p: &Predicate,
    column: &ColumnData,
    start: usize,
    len: usize,
    first: bool,
    select: &mut Vec<u32>,
) {
    let Some(lit) = p.value.as_f64() else {
        return select.clear();
    };
    let (op, end) = (p.op, start + len);
    match column {
        ColumnData::Int { values, nulls } => {
            let (v, n) = (&values[start..end], &nulls[start..end]);
            filter_typed(op, lit, v, n, first, select, |v| v as f64)
        }
        ColumnData::Float { values, nulls } => {
            let (v, n) = (&values[start..end], &nulls[start..end]);
            filter_typed(op, lit, v, n, first, select, |v| v)
        }
        ColumnData::Cat { values, nulls, .. } => {
            let (v, n) = (&values[start..end], &nulls[start..end]);
            filter_typed(op, lit, v, n, first, select, |v| v as f64)
        }
        ColumnData::Bool { values, nulls } => {
            let (v, n) = (&values[start..end], &nulls[start..end]);
            filter_typed(op, lit, v, n, first, select, |v| v as u8 as f64)
        }
    }
}

/// One monomorphic loop per (column type, operator).  `<>` is spelled
/// `a < b || a > b` so that it is false for NaN like the other five.
fn filter_typed<T: Copy>(
    op: CmpOp,
    lit: f64,
    values: &[T],
    nulls: &[bool],
    first: bool,
    select: &mut Vec<u32>,
    num: impl Fn(T) -> f64 + Copy,
) {
    match op {
        CmpOp::Eq => filter_lanes(values, nulls, first, select, |v| num(v) == lit),
        CmpOp::Neq => filter_lanes(values, nulls, first, select, |v| {
            num(v) < lit || num(v) > lit
        }),
        CmpOp::Lt => filter_lanes(values, nulls, first, select, |v| num(v) < lit),
        CmpOp::Leq => filter_lanes(values, nulls, first, select, |v| num(v) <= lit),
        CmpOp::Gt => filter_lanes(values, nulls, first, select, |v| num(v) > lit),
        CmpOp::Geq => filter_lanes(values, nulls, first, select, |v| num(v) >= lit),
    }
}

#[inline]
fn filter_lanes<T: Copy>(
    values: &[T],
    nulls: &[bool],
    first: bool,
    select: &mut Vec<u32>,
    keep: impl Fn(T) -> bool,
) {
    if first {
        // Branch-free compaction: every lane is written, survivors advance.
        select.clear();
        select.resize(values.len(), 0);
        let mut live = 0;
        for (lane, (&v, &null)) in values.iter().zip(nulls).enumerate() {
            select[live] = lane as u32;
            live += (!null && keep(v)) as usize;
        }
        select.truncate(live);
    } else {
        select.retain(|&lane| !nulls[lane as usize] && keep(values[lane as usize]));
    }
}

/// Select vector of a `len`-row batch under the conjunction `predicates`,
/// `filter` being [`filter_rows`] bound to the scan's storage.  Each
/// predicate only runs on lanes that survived the previous ones, matching
/// the row-at-a-time per-row early exit count for count (`evals`).
fn select_lanes(
    predicates: &[Predicate],
    len: usize,
    evals: &mut u64,
    filter: impl Fn(&Predicate, bool, &mut Vec<u32>),
) -> Vec<u32> {
    let Some((first, rest)) = predicates.split_first() else {
        return (0..len as u32).collect();
    };
    let mut select = Vec::new();
    *evals += len as u64;
    filter(first, true, &mut select);
    for p in rest {
        if select.is_empty() {
            break;
        }
        *evals += select.len() as u64;
        filter(p, false, &mut select);
    }
    select
}

/// Sequential scan: predicates evaluated over table storage into the select
/// vector, then the needed columns of the batch copied out of it.
struct SeqScanBatches<'a> {
    data: &'a TableData,
    predicates: &'a [Predicate],
    plan: &'a PlanNode,
    carried: Vec<&'a ColumnData>,
    width: u64,
    cursor: usize,
    work: WorkMetrics,
}

impl<'a> SeqScanBatches<'a> {
    fn new(
        db: &'a Database,
        plan: &'a PlanNode,
        table: TableId,
        predicates: &'a [Predicate],
        schema: &BatchSchema,
    ) -> Self {
        let data = db.table_data(table);
        let meta = db.catalog().table(table);
        let work = WorkMetrics {
            input_tuples: data.num_rows() as u64,
            pages_seq: meta.num_pages(),
            ..WorkMetrics::default()
        };
        SeqScanBatches {
            data,
            predicates,
            plan,
            carried: schema.storage(data),
            width: schema.width_bytes(),
            cursor: 0,
            work,
        }
    }
}

impl BatchOperator for SeqScanBatches<'_> {
    fn next_batch(&mut self) -> Option<ColumnBatch> {
        loop {
            let remaining = self.data.num_rows() - self.cursor;
            if remaining == 0 {
                return None;
            }
            let len = BATCH_ROWS.min(remaining);
            let start = self.cursor;
            self.cursor += len;

            let data = self.data;
            let evals = &mut self.work.predicate_evals;
            let select = select_lanes(self.predicates, len, evals, |p, first, select| {
                filter_rows(p, data.column(p.column.column), start, len, first, select)
            });
            if select.is_empty() {
                continue; // fully filtered: nothing to materialise
            }
            self.work.output_tuples += select.len() as u64;
            self.work.output_bytes += select.len() as u64 * self.width;
            let columns = self.carried.iter().map(|c| c.slice_range(start, len));
            return Some(ColumnBatch {
                columns: columns.collect(),
                select,
                rows: len,
            });
        }
    }

    fn finish(self: Box<Self>) -> ExecutedNode {
        executed(self.plan, self.work, Vec::new())
    }
}

/// Index scan: the index yields matched row ids; a batch at a time the
/// residual predicates run over their column gathered at those rows, then
/// the needed columns are gathered.
struct IndexScanBatches<'a> {
    data: &'a TableData,
    residual: &'a [Predicate],
    plan: &'a PlanNode,
    carried: Vec<&'a ColumnData>,
    matched: Vec<u32>,
    width: u64,
    cursor: usize,
    work: WorkMetrics,
}

impl<'a> IndexScanBatches<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        db: &'a Database,
        plan: &'a PlanNode,
        table: TableId,
        index_column: ColumnRef,
        lo: Option<f64>,
        hi: Option<f64>,
        residual: &'a [Predicate],
        schema: &BatchSchema,
    ) -> Self {
        let index_id = db
            .index_on(index_column)
            .unwrap_or_else(|| panic!("index scan requires a physical index on {index_column}"));
        let index = db.index(index_id);
        let data = db.table_data(table);
        let meta = db.catalog().table(table);
        let matched = index.range(lo, hi);
        let work = WorkMetrics {
            input_tuples: matched.len() as u64,
            pages_random: index.height() as u64
                + index_heap_fetch_pages(matched.len() as u64, meta.num_tuples),
            index_entries: matched.len() as u64,
            ..WorkMetrics::default()
        };
        IndexScanBatches {
            data,
            residual,
            plan,
            carried: schema.storage(data),
            matched,
            width: schema.width_bytes(),
            cursor: 0,
            work,
        }
    }
}

impl BatchOperator for IndexScanBatches<'_> {
    fn next_batch(&mut self) -> Option<ColumnBatch> {
        loop {
            let remaining = self.matched.len() - self.cursor;
            if remaining == 0 {
                return None;
            }
            let len = BATCH_ROWS.min(remaining);
            let rows = &self.matched[self.cursor..self.cursor + len];
            self.cursor += len;

            let data = self.data;
            let evals = &mut self.work.predicate_evals;
            let select = select_lanes(self.residual, len, evals, |p, first, select| {
                let column = data.column(p.column.column).gather(rows);
                filter_rows(p, &column, 0, len, first, select)
            });
            if select.is_empty() {
                continue;
            }
            self.work.output_tuples += select.len() as u64;
            self.work.output_bytes += select.len() as u64 * self.width;
            return Some(ColumnBatch {
                columns: self.carried.iter().map(|c| c.gather(rows)).collect(),
                select,
                rows: len,
            });
        }
    }

    fn finish(self: Box<Self>) -> ExecutedNode {
        executed(self.plan, self.work, Vec::new())
    }
}

/// Call `f(lane, value)` for every selected lane whose value is not NULL:
/// the one lane loop behind the typed key and fold loops, which match the
/// column type once per batch instead of once per lane.
#[inline(always)]
fn each_non_null<T: Copy>(values: &[T], nulls: &[bool], select: &[u32], mut f: impl FnMut(u32, T)) {
    for &lane in select {
        let row = lane as usize;
        if !nulls[row] {
            f(lane, values[row]);
        }
    }
}

/// Call `f(lane, key)` for every selected lane holding a join key: the
/// typed loop of [`ColumnData::join_key`] (NULLs and floats hold none).
#[inline]
fn for_each_join_key(column: &ColumnData, select: &[u32], mut f: impl FnMut(u32, i64)) {
    match column {
        ColumnData::Int { values, nulls } => each_non_null(values, nulls, select, f),
        ColumnData::Cat { values, nulls, .. } => {
            each_non_null(values, nulls, select, |lane, v| f(lane, v as i64))
        }
        ColumnData::Bool { values, nulls } => {
            each_non_null(values, nulls, select, |lane, v| f(lane, v as i64))
        }
        ColumnData::Float { .. } => {}
    }
}

/// End of a [`JoinTable`] chain.
const NIL: u32 = u32::MAX;

/// How a [`JoinTable`] finds the chain of a key.
enum Slots {
    /// `heads[key - min]`: every key of `[min, max]` has a head of its own,
    /// so a chain holds one key, and `unique` chains hold one row.
    Dense { min: i64, unique: bool },
    /// `heads[fibonacci_bucket(key, shift)]`: a chain may mix keys, so each
    /// row is checked against `keys`.
    Hashed { shift: u32, keys: Vec<i64> },
}

/// Build side of a join: head `h` chains the rows `heads[h]`,
/// `next[heads[h]]`, … up to [`NIL`].  Chains ascend in row number, so a
/// probe yields equal keys in insertion order (see the module docs for why
/// that matters).
struct JoinTable {
    heads: Vec<u32>,
    next: Vec<u32>,
    slots: Slots,
}

/// Fibonacci hashing: the high bits of `key × 2⁶⁴/φ`.
#[inline]
fn fibonacci_bucket(key: i64, shift: u32) -> usize {
    ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

impl JoinTable {
    /// Index the keys of the (fully drained) build side, threaded back to
    /// front.  A hashed table would take a power of two of buckets, at
    /// least two per key; when the keys' range fits in that many heads they
    /// are addressed directly instead.
    fn new(keys: Vec<i64>) -> Self {
        assert!(keys.len() < NIL as usize, "join build side too large");
        let buckets = (2 * keys.len()).next_power_of_two().max(2);
        let (min, max) = keys.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &key| {
            (lo.min(key), hi.max(key))
        });
        let range = (max as i128 - min as i128 + 1).max(0);
        let mut next = vec![NIL; keys.len()];
        if range <= buckets as i128 {
            let mut heads = vec![NIL; range as usize];
            let mut unique = true;
            for row in (0..keys.len()).rev() {
                let head = &mut heads[keys[row].wrapping_sub(min) as usize];
                unique &= *head == NIL;
                next[row] = *head;
                *head = row as u32;
            }
            let slots = Slots::Dense { min, unique };
            return JoinTable { heads, next, slots };
        }
        let shift = 64 - buckets.trailing_zeros();
        let mut heads = vec![NIL; buckets];
        for row in (0..keys.len()).rev() {
            let head = &mut heads[fibonacci_bucket(keys[row], shift)];
            next[row] = *head;
            *head = row as u32;
        }
        let slots = Slots::Hashed { shift, keys };
        JoinTable { heads, next, slots }
    }

    /// Head of the chain of `key` in a dense table, [`NIL`] outside
    /// `[min, max]`.  One unsigned compare bounds both ends: a key below
    /// `min` wraps to at least `2⁶³ − min`, which is never below the
    /// `max − min + 1` heads.
    #[inline]
    fn dense_head(&self, min: i64, key: i64) -> u32 {
        let slot = key.wrapping_sub(min) as u64;
        if slot < self.heads.len() as u64 {
            self.heads[slot as usize]
        } else {
            NIL
        }
    }

    /// Append the `(build row, probe lane)` pairs of the selected lanes of
    /// `keys` to `rows` and `lanes` (both empty): lane by lane, and each
    /// lane's build rows in insertion order.
    fn probe(&self, keys: &ColumnData, select: &[u32], rows: &mut Vec<u32>, lanes: &mut Vec<u32>) {
        let next = &self.next;
        match &self.slots {
            Slots::Dense { min, unique: true } => {
                // Branch-free: every lane writes its one candidate, matches
                // advance (like `filter_lanes`).
                rows.resize(select.len(), NIL);
                lanes.resize(select.len(), 0);
                let mut live = 0;
                for_each_join_key(keys, select, |lane, key| {
                    let row = self.dense_head(*min, key);
                    rows[live] = row;
                    lanes[live] = lane;
                    live += (row != NIL) as usize;
                });
                rows.truncate(live);
                lanes.truncate(live);
            }
            Slots::Dense { min, unique: false } => for_each_join_key(keys, select, |lane, key| {
                let mut row = self.dense_head(*min, key);
                while row != NIL {
                    rows.push(row);
                    lanes.push(lane);
                    row = next[row as usize];
                }
            }),
            Slots::Hashed { shift, keys: built } => for_each_join_key(keys, select, |lane, key| {
                let mut row = self.heads[fibonacci_bucket(key, *shift)];
                while row != NIL {
                    if built[row as usize] == key {
                        rows.push(row);
                        lanes.push(lane);
                    }
                    row = next[row as usize];
                }
            }),
        }
    }
}

/// The two join algorithms [`JoinBatches`] executes.  They differ in which
/// child is stored and in how the work is charged, not in the loop.
#[derive(Clone, Copy)]
enum JoinAlgorithm {
    /// Builds on the first child, probes with the second.
    Hash,
    /// Stores the second (inner) child, streams the first (outer) through
    /// it, and is charged as comparing every outer to every inner tuple.
    NestedLoop,
}

impl JoinAlgorithm {
    /// Plan position of the stored side.
    fn build_side(self) -> usize {
        match self {
            JoinAlgorithm::Hash => 0,
            JoinAlgorithm::NestedLoop => 1,
        }
    }
}

/// Join: the stored side is drained into its needed columns plus a
/// [`JoinTable`] over its keys, then batches of the other side probe it
/// key-column-at-a-time and survivor pairs are materialised through gather
/// lists.  Output columns come first child first, whichever side is stored.
struct JoinBatches<'a> {
    plan: &'a PlanNode,
    algorithm: JoinAlgorithm,
    /// Both children in plan order; the stored side is taken when drained.
    children: [Option<Box<dyn BatchOperator + 'a>>; 2],
    /// `None` until the stored side has been drained.
    build_node: Option<ExecutedNode>,
    layout: JoinLayout,
    /// Needed columns of the keyed stored rows (rows without a join key are
    /// counted but never stored — they cannot match).
    build_cols: Vec<ColumnData>,
    /// `None` when nothing stored can match: no keyed row, or mistyped keys.
    table: Option<JoinTable>,
    /// Live tuples drained from the stored and the streamed side.
    build_rows: u64,
    probe_rows: u64,
    work: WorkMetrics,
    keyed_scratch: Vec<u32>,
    out_build_rows: Vec<u32>,
    out_probe_lanes: Vec<u32>,
}

impl<'a> JoinBatches<'a> {
    fn new(
        plan: &'a PlanNode,
        algorithm: JoinAlgorithm,
        [first, second]: [Box<dyn BatchOperator + 'a>; 2],
        layout: JoinLayout,
    ) -> Self {
        JoinBatches {
            plan,
            algorithm,
            children: [Some(first), Some(second)],
            build_node: None,
            build_cols: layout.out_types[algorithm.build_side()]
                .iter()
                .map(|t| ColumnData::new(*t))
                .collect(),
            layout,
            table: None,
            build_rows: 0,
            probe_rows: 0,
            work: WorkMetrics::default(),
            keyed_scratch: Vec::with_capacity(BATCH_ROWS),
            out_build_rows: Vec::new(),
            out_probe_lanes: Vec::new(),
        }
    }

    fn ensure_built(&mut self) {
        if self.build_node.is_some() {
            return;
        }
        let side = self.algorithm.build_side();
        let mut build = self.children[side]
            .take()
            .expect("build side consumed twice");
        let mut keys = Vec::new();
        while let Some(batch) = build.next_batch() {
            self.build_rows += batch.num_live() as u64;
            if !self.layout.tags_match {
                continue; // drained for the counters; nothing stored can match
            }
            let keyed = &mut self.keyed_scratch;
            keyed.clear();
            let key_col = &batch.columns[self.layout.key_pos[side]];
            for_each_join_key(key_col, &batch.select, |lane, key| {
                keys.push(key);
                keyed.push(lane);
            });
            for (dst, &pos) in self.build_cols.iter_mut().zip(&self.layout.out_pos[side]) {
                dst.append_gather(&batch.columns[pos], keyed);
            }
        }
        self.table = (!keys.is_empty()).then(|| JoinTable::new(keys));
        self.build_node = Some(build.finish());
    }
}

impl BatchOperator for JoinBatches<'_> {
    fn next_batch(&mut self) -> Option<ColumnBatch> {
        self.ensure_built();
        let side = 1 - self.algorithm.build_side();
        loop {
            let probe = self.children[side]
                .as_mut()
                .expect("probe side consumed twice");
            let batch = probe.next_batch()?;
            self.probe_rows += batch.num_live() as u64;
            let Some(table) = &self.table else {
                continue; // drained for the counters; nothing can match
            };
            self.out_build_rows.clear();
            self.out_probe_lanes.clear();
            let key_col = &batch.columns[self.layout.key_pos[side]];
            let (rows, lanes) = (&mut self.out_build_rows, &mut self.out_probe_lanes);
            table.probe(key_col, &batch.select, rows, lanes);
            if rows.is_empty() {
                continue;
            }
            let n = rows.len();
            let stored = self.build_cols.iter().map(|col| col.gather(rows));
            let streamed = self.layout.out_pos[side]
                .iter()
                .map(|&pos| batch.columns[pos].gather(lanes));
            let columns = match self.algorithm {
                JoinAlgorithm::Hash => stored.chain(streamed).collect(),
                JoinAlgorithm::NestedLoop => streamed.chain(stored).collect(),
            };
            self.work.output_tuples += n as u64;
            self.work.output_bytes += n as u64 * self.layout.width;
            return Some(ColumnBatch {
                columns,
                select: (0..n as u32).collect(),
                rows: n,
            });
        }
    }

    fn finish(mut self: Box<Self>) -> ExecutedNode {
        self.ensure_built();
        let build_node = self.build_node.take().expect("build node missing");
        let side = self.algorithm.build_side();
        let probe_node = self.children[1 - side]
            .take()
            .expect("probe side consumed twice")
            .finish();
        let (build, probe) = (self.build_rows, self.probe_rows);
        let width = self.layout.child_width[side];
        let work = &mut self.work;
        let children = match self.algorithm {
            JoinAlgorithm::Hash => {
                work.hash_build_tuples = build;
                work.hash_probe_tuples = probe;
                work.input_tuples = build + probe;
                work.build_bytes = build * (width + 16);
                vec![build_node, probe_node]
            }
            JoinAlgorithm::NestedLoop => {
                // Charged as the nested loop it is planned as, however it
                // ran: the inner relation is rescanned once per outer tuple
                // and every pair compared.
                work.comparisons = probe * build;
                work.input_tuples = probe + probe * build;
                work.build_bytes = build * width;
                vec![probe_node, build_node]
            }
        };
        executed(self.plan, self.work, children)
    }
}

/// Approximate number of pages a materialised relation of `rows` tuples of
/// `width` bytes would occupy (helper shared with the runtime simulator).
pub fn pages_for(rows: u64, width: f64) -> u64 {
    let bytes = (rows as f64 * width).max(0.0) as u64;
    bytes.div_ceil(PAGE_SIZE_BYTES).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::optimizer::Optimizer;
    use zsdb_cardest::PostgresLikeEstimator;
    use zsdb_catalog::presets;
    use zsdb_query::{CmpOp, JoinCondition, Query, WorkloadGenerator};

    fn imdb_db() -> Database {
        Database::generate(presets::imdb_like(0.02), 5)
    }

    fn run(db: &Database, q: &Query) -> QueryResult {
        let est = PostgresLikeEstimator::new(db.catalog().clone());
        let optimizer = Optimizer::new(db, EngineConfig::default(), &est);
        let plan = optimizer.plan(q);
        Executor::new(db).execute(&plan)
    }

    #[test]
    fn count_star_on_single_table_matches_row_count() {
        let db = imdb_db();
        let (title, meta) = db.catalog().table_by_name("title").unwrap();
        let result = run(&db, &Query::scan(title));
        assert_eq!(result.aggregates[0], Value::Int(meta.num_tuples as i64));
    }

    #[test]
    fn predicate_filtering_matches_brute_force() {
        let db = imdb_db();
        let year = db
            .catalog()
            .resolve_column("title", "production_year")
            .unwrap();
        let (title, _) = db.catalog().table_by_name("title").unwrap();
        let predicate = Predicate::new(year, CmpOp::Gt, Value::Int(2000));
        let q = Query {
            tables: vec![title],
            joins: vec![],
            predicates: vec![predicate],
            aggregates: vec![Aggregate::count_star()],
        };
        let result = run(&db, &q);
        let column = db.table_data(title).column(year.column);
        let expected = (0..column.len())
            .filter(|&r| predicate.matches(column.get(r)))
            .count() as i64;
        assert_eq!(result.aggregates[0], Value::Int(expected));
    }

    #[test]
    fn fk_join_count_matches_child_cardinality() {
        // Every movie_companies row joins to exactly one title, so the join
        // cardinality equals |movie_companies|.
        let db = imdb_db();
        let catalog = db.catalog();
        let (title, _) = catalog.table_by_name("title").unwrap();
        let (mc, mc_meta) = catalog.table_by_name("movie_companies").unwrap();
        let title_id = catalog.resolve_column("title", "id").unwrap();
        let movie_id = catalog
            .resolve_column("movie_companies", "movie_id")
            .unwrap();
        let q = Query {
            tables: vec![title, mc],
            joins: vec![JoinCondition::new(movie_id, title_id)],
            predicates: vec![],
            aggregates: vec![Aggregate::count_star()],
        };
        let result = run(&db, &q);
        assert_eq!(result.aggregates[0], Value::Int(mc_meta.num_tuples as i64));
    }

    #[test]
    fn index_scan_and_seq_scan_agree() {
        let mut db = imdb_db();
        let year = db
            .catalog()
            .resolve_column("title", "production_year")
            .unwrap();
        let (title, _) = db.catalog().table_by_name("title").unwrap();
        let predicate = Predicate::new(year, CmpOp::Geq, Value::Int(2015));
        let q = Query {
            tables: vec![title],
            joins: vec![],
            predicates: vec![predicate],
            aggregates: vec![Aggregate::count_star()],
        };
        let without_index = run(&db, &q);
        db.create_index(year);
        let with_index = run(&db, &q);
        assert_eq!(without_index.aggregates, with_index.aggregates);
        // The indexed execution must actually use the index.
        let kinds: Vec<PhysOperatorKind> = with_index.root.iter().iter().map(|n| n.kind).collect();
        assert!(kinds.contains(&PhysOperatorKind::IndexScan));
    }

    #[test]
    fn actual_cardinalities_and_work_are_recorded() {
        let db = imdb_db();
        let workload = WorkloadGenerator::with_defaults().generate(db.catalog(), 20, 3);
        for q in &workload {
            let result = run(&db, q);
            let root = &result.root;
            assert_eq!(root.kind, PhysOperatorKind::Aggregate);
            assert_eq!(root.actual_cardinality, 1);
            let total = root.total_work();
            assert!(total.input_tuples > 0);
            assert!(total.output_bytes > 0);
            // Scans must have read at least one page.
            for node in root.iter() {
                if node.kind == PhysOperatorKind::SeqScan {
                    assert!(node.work.pages_seq > 0);
                }
            }
        }
    }

    #[test]
    fn min_aggregate_computes_minimum() {
        let db = imdb_db();
        let year = db
            .catalog()
            .resolve_column("title", "production_year")
            .unwrap();
        let (title, _) = db.catalog().table_by_name("title").unwrap();
        let q = Query {
            tables: vec![title],
            joins: vec![],
            predicates: vec![],
            aggregates: vec![Aggregate::over(AggFunc::Min, year), Aggregate::count_star()],
        };
        let result = run(&db, &q);
        let column = db.table_data(title).column(year.column);
        let expected_min = (0..column.len())
            .filter_map(|r| column.as_f64(r))
            .fold(f64::INFINITY, f64::min);
        match result.aggregates[0] {
            Value::Float(v) => assert!((v - expected_min).abs() < 1e-9),
            ref other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn work_metrics_add_componentwise() {
        let a = WorkMetrics {
            input_tuples: 1,
            output_tuples: 2,
            pages_seq: 3,
            ..WorkMetrics::default()
        };
        let b = WorkMetrics {
            input_tuples: 10,
            comparisons: 5,
            ..WorkMetrics::default()
        };
        let c = a.add(&b);
        assert_eq!(c.input_tuples, 11);
        assert_eq!(c.output_tuples, 2);
        assert_eq!(c.pages_seq, 3);
        assert_eq!(c.comparisons, 5);
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0, 100.0), 1);
        assert_eq!(pages_for(100, 100.0), 2);
    }

    #[test]
    fn row_width_derives_from_catalog_types() {
        // 8 (Int) + 4 (Categorical) + 1 (Bool) + 8 (Date) + tuple header.
        let types = [
            DataType::Int,
            DataType::Categorical,
            DataType::Bool,
            DataType::Date,
        ];
        assert_eq!(row_width_bytes(&types), 21 + TUPLE_OVERHEAD_BYTES);
        // The old executor hardcoded 8 bytes per column; these types must
        // not round-trip through that assumption.
        assert_ne!(row_width_bytes(&types), 8 * types.len() as u64);
    }

    #[test]
    fn seq_scan_output_bytes_use_catalog_widths() {
        let db = imdb_db();
        let (title, meta) = db.catalog().table_by_name("title").unwrap();
        let result = run(&db, &Query::scan(title));
        let scan = result
            .root
            .iter()
            .into_iter()
            .find(|n| n.kind == PhysOperatorKind::SeqScan)
            .expect("plan has a seq scan")
            .clone();
        let types: Vec<DataType> = meta.columns.iter().map(|c| c.data_type).collect();
        assert_eq!(
            scan.work.output_bytes,
            scan.work.output_tuples * row_width_bytes(&types)
        );
    }

    #[test]
    fn heap_fetch_pages_cap_at_table_tuples() {
        assert_eq!(index_heap_fetch_pages(10, 1_000), 10);
        assert_eq!(index_heap_fetch_pages(5_000, 1_000), 1_000);
        assert_eq!(index_heap_fetch_pages(0, 1_000), 0);
    }

    #[test]
    fn index_scan_random_pages_follow_the_tuple_cap() {
        let mut db = imdb_db();
        let year = db
            .catalog()
            .resolve_column("title", "production_year")
            .unwrap();
        let (title, meta) = db.catalog().table_by_name("title").unwrap();
        let num_tuples = meta.num_tuples;
        db.create_index(year);
        let q = Query {
            tables: vec![title],
            joins: vec![],
            predicates: vec![Predicate::new(year, CmpOp::Geq, Value::Int(2010))],
            aggregates: vec![Aggregate::count_star()],
        };
        let result = run(&db, &q);
        let index_id = db.index_on(year).unwrap();
        let height = db.index(index_id).height() as u64;
        let scan = result
            .root
            .iter()
            .into_iter()
            .find(|n| n.kind == PhysOperatorKind::IndexScan)
            .expect("plan uses the index")
            .clone();
        // input_tuples == matched index entries for an index scan.
        let matched = scan.work.input_tuples;
        assert_eq!(
            scan.work.pages_random,
            height + index_heap_fetch_pages(matched, num_tuples)
        );
    }

    #[test]
    fn typed_join_keys_do_not_collide_across_variants() {
        let int_one = typed_join_key(&Value::Int(1)).unwrap();
        let bool_true = typed_join_key(&Value::Bool(true)).unwrap();
        let cat_one = typed_join_key(&Value::Cat(1)).unwrap();
        assert_ne!(int_one, bool_true);
        assert_ne!(int_one, cat_one);
        assert_ne!(bool_true, cat_one);
        assert_eq!(typed_join_key(&Value::Null), None);
        assert_eq!(typed_join_key(&Value::Float(1.0)), None);
        // Date columns are Int-backed and share the integer key space.
        assert_eq!(join_key_tag(DataType::Date), join_key_tag(DataType::Int));
    }

    fn column_of(values: &[Value], data_type: DataType) -> ColumnData {
        let mut column = ColumnData::new(data_type);
        values.iter().for_each(|v| column.push(*v));
        column
    }

    #[test]
    fn predicate_kernel_agrees_with_scalar_matches() {
        let floats = [
            1.0,
            5.0,
            -3.0,
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let with_null =
            |values: Vec<Value>| [vec![Value::Null], values, vec![Value::Null]].concat();
        let columns = [
            (
                DataType::Int,
                with_null([1, 5, -3, 0, i64::MIN, i64::MAX].map(Value::Int).to_vec()),
            ),
            (
                DataType::Float,
                with_null(floats.map(Value::Float).to_vec()),
            ),
            (
                DataType::Categorical,
                with_null([0, 1, 5, u32::MAX - 1].map(Value::Cat).to_vec()),
            ),
            (
                DataType::Bool,
                with_null([true, false].map(Value::Bool).to_vec()),
            ),
        ];
        let literals = [
            Value::Int(5),
            Value::Int(0),
            Value::Float(-3.0),
            Value::Float(-0.0),
            Value::Float(1.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Null,
        ];
        let at = ColumnRef::new(TableId(0), zsdb_catalog::ColumnId(0));
        for (data_type, values) in &columns {
            // Two filler rows in front: the kernel must honour `start`.
            let padded = [&[Value::Null, values[1]], &values[..]].concat();
            let column = column_of(&padded, *data_type);
            for (op, lit) in CmpOp::ALL
                .iter()
                .flat_map(|op| literals.map(|lit| (*op, lit)))
            {
                let p = Predicate::new(at, op, lit);
                let survivors = |incoming: &[u32]| -> Vec<u32> {
                    let keeps = |lane: &u32| p.matches(values[*lane as usize]);
                    incoming.iter().copied().filter(keeps).collect()
                };
                let all: Vec<u32> = (0..values.len() as u32).collect();
                let mut select = vec![7, 7, 7]; // stale content is overwritten
                filter_rows(&p, &column, 2, values.len(), true, &mut select);
                assert_eq!(select, survivors(&all), "{data_type:?} {op} {lit} first");

                let incoming: Vec<u32> = all.iter().copied().filter(|l| l % 3 != 1).collect();
                let mut select = incoming.clone();
                filter_rows(&p, &column, 2, values.len(), false, &mut select);
                assert_eq!(
                    select,
                    survivors(&incoming),
                    "{data_type:?} {op} {lit} later"
                );
            }
        }
    }

    /// A canned operator: replays batches, reports nothing.
    struct Feed(std::vec::IntoIter<ColumnBatch>);

    impl BatchOperator for Feed {
        fn next_batch(&mut self) -> Option<ColumnBatch> {
            self.0.next()
        }

        fn finish(self: Box<Self>) -> ExecutedNode {
            ExecutedNode {
                kind: PhysOperatorKind::SeqScan,
                est_cardinality: 0.0,
                actual_cardinality: 0,
                output_width: 0.0,
                work: WorkMetrics::default(),
                children: Vec::new(),
            }
        }
    }

    /// Cut `(key, live)` rows into [`BATCH_ROWS`]-row batches of two
    /// columns: the key, and the row's number in the input.
    fn feed(rows: &[(Option<i64>, bool)]) -> Box<dyn BatchOperator> {
        let ids: Vec<Value> = (0..rows.len() as i64).map(Value::Int).collect();
        let batches: Vec<ColumnBatch> = rows
            .chunks(BATCH_ROWS)
            .zip(ids.chunks(BATCH_ROWS))
            .map(|(rows, ids)| {
                let keys: Vec<Value> = rows
                    .iter()
                    .map(|(key, _)| key.map_or(Value::Null, Value::Int))
                    .collect();
                let live = |lane: &u32| rows[*lane as usize].1;
                ColumnBatch {
                    columns: vec![
                        column_of(&keys, DataType::Int),
                        column_of(ids, DataType::Int),
                    ],
                    select: (0..rows.len() as u32).filter(live).collect(),
                    rows: rows.len(),
                }
            })
            .collect();
        Box::new(Feed(batches.into_iter()))
    }

    /// The layout of a join's table: `none` when nothing was stored.
    fn layout_name(table: Option<&JoinTable>) -> &'static str {
        match table.map(|t| &t.slots) {
            None => "none",
            Some(Slots::Dense { unique: true, .. }) => "dense-unique",
            Some(Slots::Dense { unique: false, .. }) => "dense",
            Some(Slots::Hashed { .. }) => "hashed",
        }
    }

    /// `(build row, probe row)` pairs a join emits, in emission order, and
    /// the layout its table chose.  The nested loop stores `build` as its
    /// inner (second) child and streams `probe` as its outer one.
    fn join_pairs(
        algorithm: JoinAlgorithm,
        build: &[(Option<i64>, bool)],
        probe: &[(Option<i64>, bool)],
    ) -> (Vec<(i64, i64)>, &'static str) {
        let keys = [0, 1].map(|t| ColumnRef::new(TableId(t), zsdb_catalog::ColumnId(0)));
        let op = match algorithm {
            JoinAlgorithm::Hash => PhysOperator::HashJoin {
                build_key: keys[0],
                probe_key: keys[1],
            },
            JoinAlgorithm::NestedLoop => PhysOperator::NestedLoopJoin {
                outer_key: keys[1],
                inner_key: keys[0],
            },
        };
        let plan = PlanNode::leaf(op, 0.0, 0.0, 0.0);
        let layout = JoinLayout {
            key_pos: [0, 0],
            out_pos: [vec![1], vec![1]],
            out_types: [vec![DataType::Int], vec![DataType::Int]],
            tags_match: true,
            child_width: [16, 16],
            width: 32,
        };
        let mut children = [feed(build), feed(probe)];
        let build_side = algorithm.build_side();
        children.swap(0, build_side);
        let mut join = JoinBatches::new(&plan, algorithm, children, layout);
        let mut pairs = Vec::new();
        while let Some(batch) = join.next_batch() {
            assert_eq!(batch.columns.len(), 2);
            assert_eq!(batch.num_rows(), batch.num_live());
            for &lane in &batch.select {
                let id = |side: usize| batch.columns[side].join_key(lane as usize).unwrap();
                pairs.push((id(build_side), id(1 - build_side)));
            }
        }
        let layout = layout_name(join.table.as_ref());
        let live = |rows: &[(Option<i64>, bool)]| rows.iter().filter(|r| r.1).count() as u64;
        let (build, probe) = (live(build), live(probe));
        let work = Box::new(join).finish().work;
        assert_eq!(work.output_tuples, pairs.len() as u64);
        match algorithm {
            JoinAlgorithm::Hash => {
                assert_eq!(work.hash_build_tuples, build);
                assert_eq!(work.hash_probe_tuples, probe);
                assert_eq!(work.input_tuples, build + probe);
            }
            JoinAlgorithm::NestedLoop => {
                assert_eq!(work.comparisons, probe * build);
                assert_eq!(work.input_tuples, probe + probe * build);
                assert_eq!(work.hash_build_tuples + work.hash_probe_tuples, 0);
            }
        }
        (pairs, layout)
    }

    /// The layout the rule of [`JoinTable::new`] gives these build rows.
    fn expected_layout(build: &[(Option<i64>, bool)]) -> &'static str {
        let keys: Vec<i64> = build.iter().filter(|r| r.1).filter_map(|r| r.0).collect();
        let (Some(&min), Some(&max)) = (keys.iter().min(), keys.iter().max()) else {
            return "none";
        };
        let buckets = (2 * keys.len()).next_power_of_two() as i128;
        let distinct: std::collections::HashSet<i64> = keys.iter().copied().collect();
        if max as i128 - min as i128 + 1 > buckets {
            "hashed"
        } else if distinct.len() == keys.len() {
            "dense-unique"
        } else {
            "dense"
        }
    }

    /// The table this executor used before the flat one, as the oracle.
    fn hash_map_pairs(
        build: &[(Option<i64>, bool)],
        probe: &[(Option<i64>, bool)],
    ) -> Vec<(i64, i64)> {
        let mut table: std::collections::HashMap<i64, Vec<i64>> = Default::default();
        for (row, (key, live)) in build.iter().enumerate() {
            if let (Some(key), true) = (key, live) {
                table.entry(*key).or_default().push(row as i64);
            }
        }
        let mut pairs = Vec::new();
        for (lane, (key, live)) in probe.iter().enumerate() {
            if let (Some(key), true) = (key, live) {
                let matches = table.get(key).into_iter().flatten();
                pairs.extend(matches.map(|row| (*row, lane as i64)));
            }
        }
        pairs
    }

    /// Different keys that all hash to bucket 0 of any table with fewer
    /// than 2⁶⁴ / `count` buckets: multiples of the inverse of the
    /// Fibonacci multiplier.
    fn colliding_keys(count: i64) -> Vec<i64> {
        const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut inverse = MULTIPLIER; // Newton: doubles the correct low bits
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(MULTIPLIER.wrapping_mul(inverse)));
        }
        assert_eq!(MULTIPLIER.wrapping_mul(inverse), 1);
        (0..count)
            .map(|i| inverse.wrapping_mul(i as u64) as i64)
            .collect()
    }

    /// Build rows of `table` whose key equals `key`, in emission order.
    fn matches(table: &JoinTable, key: i64) -> Vec<u32> {
        let (mut rows, mut lanes) = (Vec::new(), Vec::new());
        table.probe(
            &column_of(&[Value::Int(key)], DataType::Int),
            &[0],
            &mut rows,
            &mut lanes,
        );
        assert!(lanes.iter().all(|&lane| lane == 0));
        rows
    }

    #[test]
    fn colliding_keys_share_one_chain() {
        let keys = colliding_keys(300);
        let table = JoinTable::new(keys.clone());
        let Slots::Hashed { shift, .. } = table.slots else {
            panic!("colliding keys span the whole key space");
        };
        assert!(keys.iter().all(|k| fibonacci_bucket(*k, shift) == 0));
        assert_eq!(table.heads.iter().filter(|h| **h != NIL).count(), 1);
        for (row, key) in keys.iter().enumerate() {
            assert_eq!(matches(&table, *key), [row as u32]);
        }
        assert!(matches(&table, -1).is_empty());
        assert!(matches(&JoinTable::new(Vec::new()), 0).is_empty());
    }

    #[test]
    fn dense_tables_address_keys_directly_and_bound_both_ends() {
        let layout = |keys: &[i64]| layout_name(Some(&JoinTable::new(keys.to_vec())));
        assert_eq!(layout(&[3, 0, 2, 1]), "dense-unique");
        assert_eq!(layout(&[-7, -5, -7]), "dense");
        // Four keys get eight buckets: a range of eight is dense, nine is not.
        assert_eq!(layout(&[0, 7, 3, 3]), "dense");
        assert_eq!(layout(&[0, 8, 3, 3]), "hashed");
        // The range of both extremes is 2⁶⁴: computed without overflow.
        assert_eq!(layout(&[i64::MIN, i64::MAX]), "hashed");
        assert_eq!(layout(&[i64::MIN, i64::MIN + 1]), "dense-unique");

        // Keys outside `[min, max]` miss however far they wrap.
        let top = JoinTable::new(vec![i64::MAX, i64::MAX - 1, i64::MAX]);
        assert_eq!(layout_name(Some(&top)), "dense");
        assert_eq!(matches(&top, i64::MAX), [0, 2]);
        assert_eq!(matches(&top, i64::MAX - 1), [1]);
        for key in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 2] {
            assert!(matches(&top, key).is_empty(), "{key}");
        }
        let bottom = JoinTable::new(vec![i64::MIN + 1, i64::MIN]);
        assert_eq!(matches(&bottom, i64::MIN), [1]);
        for key in [i64::MAX, i64::MAX - 1, -1, 0, i64::MIN + 2] {
            assert!(matches(&bottom, key).is_empty(), "{key}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(320))]

        /// The flat join table, in both layouts and under both join
        /// algorithms, against the `HashMap<i64, Vec<u32>>` it replaced:
        /// the same `(build row, probe row)` pairs in the same order,
        /// whatever the keys, the NULLs, the dead lanes and the batch
        /// boundaries.
        #[test]
        fn flat_join_table_matches_hash_map_order(
            seed in 0u64..u64::MAX,
            key_mode in 0usize..8,
            size_mode in 0usize..8,
            null_mode in 0usize..3,
            nested_loop in 0usize..2,
        ) {
            use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let build_len = match size_mode {
                0 => 0,
                1 => 1,
                2 => BATCH_ROWS - 1,
                3 => BATCH_ROWS,
                4 => BATCH_ROWS + 1,
                _ => rng.random_range(2..3 * BATCH_ROWS),
            };
            let probe_len = rng.random_range(0..2 * BATCH_ROWS + 2);
            let buckets = (2 * build_len).next_power_of_two().max(2) as i64;
            let chain = colliding_keys(40);
            let edges = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
            let mut side = |len: usize| -> Vec<(Option<i64>, bool)> {
                let mut permutation: Vec<i64> = (0..len as i64).collect();
                permutation.shuffle(&mut rng);
                permutation
                    .into_iter()
                    .map(|position| {
                        let key = match key_mode {
                            0 => rng.random_range(-2i64..3), // heavy duplicates
                            1 => edges[rng.random_range(0..edges.len())],
                            2 => buckets * rng.random_range(-20i64..20), // sparse, same low bits
                            3 => chain[rng.random_range(0..chain.len())], // one long chain
                            4 => rng.random_range(i64::MIN..i64::MAX),
                            5 => position, // dense and unique once NULLs filter it
                            6 => rng.random_range(-(len as i64) - 2..-1), // negative, dense
                            _ => rng.random_range(-3i64..4), // plus both extremes below
                        };
                        let null = null_mode > 0 && rng.random_range(0..4 * null_mode) >= 3;
                        let dead = null_mode == 2 && rng.random_range(0..5) == 0;
                        ((!null).then_some(key), !dead)
                    })
                    .collect()
            };
            let (mut build, probe) = (side(build_len), side(probe_len));
            if key_mode == 7 && build_len >= 2 {
                // A range of 2⁶⁴ must fall back to hashing without overflow.
                build[0] = (Some(i64::MIN), true);
                build[1] = (Some(i64::MAX), true);
            }
            let algorithm = [JoinAlgorithm::Hash, JoinAlgorithm::NestedLoop][nested_loop];
            let (flat, layout) = join_pairs(algorithm, &build, &probe);
            prop_assert_eq!(layout, expected_layout(&build));
            let oracle = hash_map_pairs(&build, &probe);
            let first_difference = flat.iter().zip(&oracle).position(|(a, b)| a != b);
            prop_assert!(
                flat.len() == oracle.len() && first_difference.is_none(),
                "{} pairs for the oracle's {}, first difference at {:?}",
                flat.len(),
                oracle.len(),
                first_difference
            );
        }
    }

    /// `title ⋈ movie_companies ⋈ movie_info_idx` under the given
    /// aggregates: the number of columns every batch reaching the root
    /// carries.  Checks on the way that the batches' row counts hold up
    /// and add up to what the row oracle counts.
    fn columns_reaching_root(aggregates: Vec<Aggregate>) -> usize {
        let db = imdb_db();
        let catalog = db.catalog();
        let title_id = catalog.resolve_column("title", "id").unwrap();
        let joins = ["movie_companies", "movie_info_idx"]
            .map(|t| JoinCondition::new(catalog.resolve_column(t, "movie_id").unwrap(), title_id));
        let q = Query {
            tables: vec![title_id.table, joins[0].left.table, joins[1].left.table],
            joins: joins.to_vec(),
            predicates: vec![],
            aggregates,
        };
        let est = PostgresLikeEstimator::new(catalog.clone());
        let plan = Optimizer::new(&db, EngineConfig::default(), &est).plan(&q);
        assert_eq!(plan.children[0].scanned_tables().len(), 3);
        let PhysOperator::Aggregate { aggregates } = &plan.op else {
            panic!("optimizer plans end in an aggregate");
        };
        let needed = aggregated_columns(aggregates);
        let (mut op, schema) = build_operator(&db, &plan.children[0], &needed);
        assert_eq!(schema.columns, needed);
        let mut live = 0;
        while let Some(batch) = op.next_batch() {
            assert_eq!(batch.columns.len(), needed.len());
            assert!(batch.columns.iter().all(|c| c.len() == batch.num_rows()));
            assert!(batch
                .select
                .iter()
                .all(|l| (*l as usize) < batch.num_rows()));
            live += batch.num_live() as u64;
        }
        let oracle = crate::exec_row::RowExecutor::new(&db).execute(&plan);
        assert_eq!(live, oracle.root.children[0].actual_cardinality);
        assert_eq!(op.finish(), oracle.root.children[0]);
        needed.len()
    }

    #[test]
    fn batches_carry_only_what_the_root_reads() {
        let db = imdb_db();
        let info = db
            .catalog()
            .resolve_column("movie_info_idx", "info")
            .unwrap();
        let title_id = db.catalog().resolve_column("title", "id").unwrap();
        assert_eq!(columns_reaching_root(vec![Aggregate::count_star()]), 0);
        assert_eq!(
            columns_reaching_root(vec![Aggregate::over(AggFunc::Sum, info)]),
            1
        );
        // A join key below that is also aggregated above is carried once,
        // however often the root names it.
        let twice = vec![
            Aggregate::over(AggFunc::Min, title_id),
            Aggregate::over(AggFunc::Max, title_id),
            Aggregate::count_star(),
        ];
        assert_eq!(columns_reaching_root(twice), 1);
    }
}
