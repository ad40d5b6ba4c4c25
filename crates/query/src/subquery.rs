//! The per-statement subquery memo: every `in (select …)`, `exists
//! (select …)` and scalar subquery result goes through a
//! [`SubqueryCache`].
//!
//! A subquery node (keyed by its AST address) is classified on first
//! sight into one of three entry kinds:
//!
//! * **shared** — uncorrelated: it runs once, and the result is lent
//!   (`Rc`) to every outer row;
//! * **keyed** — equality-correlated (compiled mode only, see
//!   [`keyed_shape`] for the gate): it runs once with its correlation
//!   conjuncts removed, its rows are bucketed by a hash of the key, and
//!   each outer row probes one bucket, confirming every candidate with
//!   SQL `=` ([`eval::compare`]);
//! * **per-row** — any other correlated shape: it re-runs for every
//!   outer row.
//!
//! A per-statement build is sound because a statement's expressions all
//! evaluate against one database state: DML phase 1 (see
//! [`crate::dml`]) computes every identification, assignment and
//! insert-select row before the first mutation. `docs/query-pipeline.md`
//! ("Subquery memo") carries the full argument.

use std::cell::{OnceCell, RefCell};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

use setrules_sql::ast::{BinaryOp, Expr, SelectItem, SelectStmt, TableSource};
use setrules_storage::{DataType, Value};

use crate::bindings::Bindings;
use crate::compile::{compile, CompiledExpr, LayoutFrame};
use crate::ctx::{ExecMode, QueryCtx};
use crate::error::QueryError;
use crate::eval;
use crate::relation::Relation;
use crate::select::run_select;
use crate::stats;

/// Per-statement memo for subquery results, keyed by AST node address.
///
/// This is the representative optimization behind the paper's §1 claim
/// that set-oriented rules keep relational optimization applicable: a
/// rule-action predicate like `fk in (select pk from deleted parent)`
/// evaluates its subquery once per statement, not once per scanned row —
/// and so does `n + (select d from delta where delta.k = t.k)`.
#[derive(Debug, Default)]
pub struct SubqueryCache {
    entries: RefCell<HashMap<usize, Entry>>,
}

impl SubqueryCache {
    /// A fresh, empty cache (one per executed statement).
    pub fn new() -> Self {
        SubqueryCache::default()
    }
}

/// How a subquery node is answered for the rest of the statement.
#[derive(Debug, Clone)]
enum Entry {
    /// Uncorrelated: the one result, lent to every outer row.
    Shared(Rc<Relation>),
    /// Correlated outside the keyed shape: re-run per outer row.
    PerRow,
    /// Equality-correlated: built once (on the first probe), then probed.
    Keyed(Rc<Keyed>),
}

/// A subquery result as its consumers (`in`, `exists`, scalar) see it:
/// the rows of `rel` — all of them, or only the `hits` of a keyed probe —
/// truncated to the subquery's own `width` columns.
pub(crate) struct SubqueryRows {
    rel: Rc<Relation>,
    width: usize,
    hits: Option<Vec<usize>>,
}

impl SubqueryRows {
    fn whole(rel: Rc<Relation>) -> Self {
        SubqueryRows { width: rel.columns.len(), rel, hits: None }
    }

    fn len(&self) -> usize {
        self.hits.as_ref().map_or(self.rel.rows.len(), Vec::len)
    }

    fn value0(&self, i: usize) -> &Value {
        let row = self.hits.as_ref().map_or(i, |h| h[i]);
        &self.rel.rows[row][0]
    }

    fn single_column(&self) -> Result<(), QueryError> {
        match self.width {
            1 => Ok(()),
            n => Err(QueryError::SubqueryColumns(n)),
        }
    }
}

/// `needle [not] in (subquery)`.
pub(crate) fn in_subquery(
    needle: &Value,
    rows: &SubqueryRows,
    negated: bool,
) -> Result<Value, QueryError> {
    rows.single_column()?;
    eval::in_semantics(needle, (0..rows.len()).map(|i| rows.value0(i)), negated)
}

/// `[not] exists (subquery)`.
pub(crate) fn exists(rows: &SubqueryRows, negated: bool) -> Value {
    Value::Bool((rows.len() == 0) == negated)
}

/// A scalar subquery: `NULL` on no row, the value on one, an error on
/// more.
pub(crate) fn scalar(rows: &SubqueryRows) -> Result<Value, QueryError> {
    rows.single_column()?;
    match rows.len() {
        0 => Ok(Value::Null),
        1 => Ok(rows.value0(0).clone()),
        n => Err(QueryError::ScalarSubqueryRows(n)),
    }
}

/// Evaluate a subquery for the current outer row through the context's
/// memo (without one, every evaluation runs the subquery).
///
/// On first sight of a node, compiled mode tries the keyed gate; failing
/// that, correlation is detected operationally: the subquery is tried in
/// an *empty* outer scope, where success means its result cannot depend
/// on outer bindings (shared), while an unknown-column error means it
/// references the outer row (per-row).
pub(crate) fn eval_subquery(
    ctx: QueryCtx<'_>,
    bindings: &mut Bindings,
    sub: &SelectStmt,
) -> Result<SubqueryRows, QueryError> {
    let Some(cache) = ctx.cache else {
        return per_row(ctx, bindings, sub);
    };
    let key = sub as *const SelectStmt as usize;
    let known = cache.entries.borrow().get(&key).cloned();
    let entry = match known {
        Some(entry) => {
            stats::bump(ctx.stats, |s| s.subquery_cache_hits += 1);
            entry
        }
        None => {
            stats::bump(ctx.stats, |s| s.subquery_cache_misses += 1);
            let keyed = match ctx.mode {
                ExecMode::Compiled => keyed_shape(ctx, bindings, sub),
                ExecMode::Interpreted => None,
            };
            let entry = match keyed {
                Some(keys) => Entry::Keyed(Rc::new(Keyed { keys, index: OnceCell::new() })),
                None => match run_select(ctx, sub, &mut Bindings::new()) {
                    Ok(rel) => Entry::Shared(Rc::new(rel)),
                    Err(QueryError::UnknownColumn(_)) => Entry::PerRow,
                    Err(e) => return Err(e),
                },
            };
            cache.entries.borrow_mut().insert(key, entry.clone());
            entry
        }
    };
    match entry {
        Entry::Shared(rel) => Ok(SubqueryRows::whole(rel)),
        Entry::PerRow => per_row(ctx, bindings, sub),
        Entry::Keyed(keyed) => match keyed.probe(ctx, bindings, sub)? {
            Some(rows) => Ok(rows),
            None => per_row(ctx, bindings, sub),
        },
    }
}

fn per_row(
    ctx: QueryCtx<'_>,
    bindings: &mut Bindings,
    sub: &SelectStmt,
) -> Result<SubqueryRows, QueryError> {
    Ok(SubqueryRows::whole(Rc::new(run_select(ctx, sub, bindings)?)))
}

// ----------------------------------------------------------------------
// Keyed (equality-correlated) subqueries
// ----------------------------------------------------------------------

/// One correlation conjunct `inner = outer` of a keyed subquery.
#[derive(Debug)]
struct KeyCol {
    /// The outer column reference, resolved by name for every probe —
    /// exactly the value the per-row run would read.
    outer_qualifier: Option<String>,
    outer_name: String,
    /// The inner key column (a column of the sole `from` item).
    inner_name: String,
    inner_type: DataType,
}

#[derive(Debug)]
struct Keyed {
    keys: Vec<KeyCol>,
    index: OnceCell<KeyedIndex>,
}

/// The statement-wide build: the subquery's rows with the key columns
/// appended, and the non-NULL-keyed row numbers bucketed by key hash.
#[derive(Debug)]
struct KeyedIndex {
    rel: Rc<Relation>,
    width: usize,
    buckets: HashMap<u64, Vec<usize>>,
}

/// The keyed gate: `Some(keys)` when `sub` is a subquery whose only outer
/// references are top-level conjuncts `inner_col = outer_col` — one
/// stored or transition `from` item, bare-column or `*` projection, no
/// other conjunct, no aggregate, `group by`, `having`, `distinct`,
/// `order by` or `limit`. References are classified by the same layout
/// resolution the select pushdown uses: the outer scopes plus one level
/// holding the subquery's item.
///
/// Key type comparability is checked per probe: the inner column's
/// declared type bounds its stored values (storage enforces declared
/// types), but the scope layout does not carry the outer column's, so
/// [`Keyed::probe`] hands an outer value of an incomparable type back to
/// the per-row run — which then raises (or short-circuits past) the type
/// error exactly as before.
fn keyed_shape(ctx: QueryCtx<'_>, bindings: &Bindings, sub: &SelectStmt) -> Option<Vec<KeyCol>> {
    if sub.from.len() != 1
        || sub.distinct
        || !sub.group_by.is_empty()
        || sub.having.is_some()
        || !sub.order_by.is_empty()
        || sub.limit.is_some()
    {
        return None;
    }
    // Syntax first, so the common rejections (no `where`, a comparison
    // other than column = column, a computed projection) cost no layout.
    let mut conjuncts = Vec::new();
    crate::planner::collect_conjuncts(sub.predicate.as_ref()?, &mut conjuncts);
    let column_eq = |c: &&Expr| {
        matches!(c, Expr::Binary { left, op: BinaryOp::Eq, right }
            if matches!(**left, Expr::Column { .. }) && matches!(**right, Expr::Column { .. }))
    };
    let bare = |p: &SelectItem| match p {
        SelectItem::Expr { expr, .. } => matches!(expr, Expr::Column { .. }),
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => true,
    };
    if !conjuncts.iter().all(column_eq) || !sub.projection.iter().all(bare) {
        return None;
    }

    let item = &sub.from[0];
    let binding = item.binding_name();
    let (TableSource::Named(table) | TableSource::Transition { table, .. }) = &item.source;
    let tid = ctx.db.table_id(table).ok()?;
    let schema = ctx.db.schema(tid);
    let columns = Arc::new(schema.columns.iter().map(|c| c.name.clone()).collect::<Vec<_>>());
    let mut layout = bindings.layout();
    layout.push_level(vec![LayoutFrame { name: binding.to_string(), columns: Arc::clone(&columns) }]);
    let inner_col = |e: &Expr| match compile(e, &layout) {
        CompiledExpr::Slot { level_up: 0, col, .. } => Some(col),
        _ => None,
    };

    for p in &sub.projection {
        let inner = match p {
            SelectItem::Wildcard => true,
            SelectItem::QualifiedWildcard(q) => q == binding,
            SelectItem::Expr { expr, .. } => inner_col(expr).is_some(),
        };
        if !inner {
            return None;
        }
    }

    let mut keys = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        let Expr::Binary { left, op: BinaryOp::Eq, right } = c else {
            return None;
        };
        let key = [(left, right), (right, left)].into_iter().find_map(|(inner, outer)| {
            let col = inner_col(inner)?;
            let CompiledExpr::Slot { level_up: 1.., .. } = compile(outer, &layout) else {
                return None;
            };
            let Expr::Column { qualifier, name } = outer.as_ref() else {
                return None;
            };
            Some(KeyCol {
                outer_qualifier: qualifier.clone(),
                outer_name: name.clone(),
                inner_name: columns[col].clone(),
                inner_type: schema.columns[col].ty,
            })
        })?;
        keys.push(key);
    }
    Some(keys)
}

impl Keyed {
    /// Answer one outer row from the buckets, building them on first use.
    /// `Ok(None)`: the outer key is unresolvable here or of a type
    /// incomparable with its inner column — the caller runs the subquery
    /// per row instead.
    fn probe(
        &self,
        ctx: QueryCtx<'_>,
        bindings: &Bindings,
        sub: &SelectStmt,
    ) -> Result<Option<SubqueryRows>, QueryError> {
        let mut needles = Vec::with_capacity(self.keys.len());
        for k in &self.keys {
            let Ok(v) = bindings.resolve(k.outer_qualifier.as_deref(), &k.outer_name) else {
                return Ok(None);
            };
            if !v.is_null() && !comparable(&v, k.inner_type) {
                return Ok(None);
            }
            needles.push(v);
        }
        let index = match self.index.get() {
            Some(index) => index,
            None => {
                let built = self.build(ctx, sub)?;
                self.index.get_or_init(|| built)
            }
        };
        stats::bump(ctx.stats, |s| s.subquery_keyed_probes += 1);
        let mut hits = Vec::new();
        if !needles.iter().any(Value::is_null) {
            for &row in index.buckets.get(&key_hash(&needles)).into_iter().flatten() {
                let keys = &index.rel.rows[row][index.width..];
                if equal_keys(&needles, keys)? {
                    hits.push(row);
                }
            }
        }
        Ok(Some(SubqueryRows { rel: Rc::clone(&index.rel), width: index.width, hits: Some(hits) }))
    }

    /// Run `sub` once with its key conjuncts removed and the inner key
    /// columns appended to its projection, then bucket the rows. The
    /// rewritten statement is a temporary AST, so it runs without the
    /// address-keyed plan cache (a later temporary could reuse the address
    /// and hit a stale plan).
    fn build(&self, ctx: QueryCtx<'_>, sub: &SelectStmt) -> Result<KeyedIndex, QueryError> {
        let binding = sub.from[0].binding_name();
        let mut projection = sub.projection.clone();
        projection.extend(self.keys.iter().map(|k| SelectItem::Expr {
            expr: Expr::qcol(binding, k.inner_name.clone()),
            alias: None,
        }));
        let rewritten = SelectStmt::simple(projection, sub.from.clone(), None);
        let rel = run_select(ctx.with_plans(None), &rewritten, &mut Bindings::new())?;
        let width = rel.columns.len() - self.keys.len();
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, row) in rel.rows.iter().enumerate() {
            let keys = &row[width..];
            // A NULL key is never `=` to anything.
            if !keys.iter().any(Value::is_null) {
                buckets.entry(key_hash(keys)).or_default().push(i);
            }
        }
        stats::bump(ctx.stats, |s| s.subquery_keyed_builds += 1);
        Ok(KeyedIndex { rel: Rc::new(rel), width, buckets })
    }
}

/// Whether SQL `=` between `v` (non-NULL) and a value of declared type
/// `ty` is defined (numeric types compare across `Int`/`Float`).
fn comparable(v: &Value, ty: DataType) -> bool {
    matches!(
        (v, ty),
        (Value::Int(_) | Value::Float(_), DataType::Int | DataType::Float)
            | (Value::Text(_), DataType::Text)
            | (Value::Bool(_), DataType::Bool)
    )
}

/// A hash consistent with SQL `=`: numbers hash by their `f64` value with
/// `-0.0` folded into `0.0`, so `Int(2)`, `Float(2.0)` and equal zeros
/// share a bucket. Collisions (and NaN, never `=` to anything) are
/// weeded out by [`equal_keys`].
fn key_hash(keys: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    for v in keys {
        match v.as_f64() {
            Some(f) => (if f == 0.0 { 0 } else { f.to_bits() }).hash(&mut h),
            None => v.hash(&mut h),
        }
    }
    h.finish()
}

/// Whether every key conjunct `inner = outer` is *true* for this
/// candidate — the confirmation the per-row predicate would make.
fn equal_keys(needles: &[Value], keys: &[Value]) -> Result<bool, QueryError> {
    for (n, k) in needles.iter().zip(keys) {
        if eval::compare(n, k)? != Some(Ordering::Equal) {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dml::{execute_op_ext, ExecOpts};
    use crate::provider::NoTransitionTables;
    use crate::stats::{ExecStats, StatsCell};
    use setrules_sql::ast::Statement;
    use setrules_sql::parse_statement;
    use setrules_storage::{ColumnDef, Database, TableSchema};

    /// `o` (outer) and `i` (inner) share `k` and `f`; `i.k` has a duplicate
    /// (2) and a NULL, both `f` columns hold NaN and a zero of each sign,
    /// and `i.s` is text so `i.s = o.k` is incomparable.
    fn db() -> Database {
        let mut db = Database::new();
        let cols = |spec: &[(&str, DataType)]| {
            spec.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect::<Vec<_>>()
        };
        use DataType::{Float, Int, Text};
        db.create_table(TableSchema::new("o", cols(&[("k", Int), ("n", Int), ("f", Float)])))
            .unwrap();
        db.create_table(TableSchema::new(
            "i",
            cols(&[("k", Int), ("d", Int), ("s", Text), ("f", Float)]),
        ))
        .unwrap();
        for sql in [
            "insert into o values (1, 0, 1.0), (2, 0, -0.0), (3, 0, 0.0 / 0.0), (NULL, 0, NULL)",
            "insert into i values (1, 10, 'a', 1.0), (2, 20, 'b', 0.0 / 0.0), (2, 21, 'c', -0.0), \
             (NULL, 30, 'd', NULL), (0, 40, 'e', 2.0)",
        ] {
            run_sql(&mut db, sql, ExecMode::Compiled).0.unwrap();
        }
        db
    }

    fn run_sql(db: &mut Database, sql: &str, mode: ExecMode) -> (Result<String, String>, ExecStats) {
        let Statement::Dml(op) = parse_statement(sql).unwrap() else { panic!("not DML: {sql}") };
        let st = StatsCell::new();
        let opts = ExecOpts { stats: Some(&st), mode, ..Default::default() };
        let out = execute_op_ext(db, &NoTransitionTables, &op, &opts);
        let shown = out.map(|eff| match eff {
            crate::OpEffect::Select { output, .. } => format!("{:?}", output.rows),
            other => format!("{} rows", other.cardinality()),
        });
        (shown.map_err(|e| e.to_string()), st.snapshot())
    }

    /// Run `sql` in both modes on fresh databases: identical outcomes and
    /// final `o`; returns the outcome and the compiled run's counters.
    fn both_modes(sql: &str) -> (Result<String, String>, ExecStats) {
        let run = |mode| {
            let mut db = db();
            let (out, st) = run_sql(&mut db, sql, mode);
            let o = run_sql(&mut db, "select * from o", mode).0;
            (out, o, st)
        };
        let (c_out, c_o, c_st) = run(ExecMode::Compiled);
        let (i_out, i_o, i_st) = run(ExecMode::Interpreted);
        assert_eq!((&c_out, &c_o), (&i_out, &i_o), "modes diverged on: {sql}");
        assert_eq!((i_st.subquery_keyed_builds, i_st.subquery_keyed_probes), (0, 0));
        (c_out, c_st)
    }

    /// The gate rejected `sql`: every outer row ran the subquery itself.
    #[track_caller]
    fn assert_per_row(sql: &str) {
        let (_, st) = both_modes(sql);
        assert_eq!(
            (st.subquery_keyed_builds, st.subquery_keyed_probes),
            (0, 0),
            "keyed path ran for: {sql}"
        );
    }

    #[test]
    fn keyed_scalar_set_builds_once_and_probes_every_row() {
        let (out, st) =
            both_modes("update o set n = (select d from i where i.k = o.k) where k <> 2");
        assert_eq!(out.unwrap(), "2 rows");
        // `k <> 2` keeps k = 1 and k = 3 (NULL <> 2 is unknown).
        assert_eq!((st.subquery_keyed_builds, st.subquery_keyed_probes), (1, 2));
        // One scan of `i` for the build instead of one per outer row.
        assert_eq!(st.full_scans, 2, "identification scan of o + one build scan of i");
    }

    #[test]
    fn keyed_scalar_with_duplicate_keys_raises_row_count_error() {
        let (out, st) = both_modes("update o set n = (select d from i where i.k = o.k)");
        assert_eq!(out.unwrap_err(), QueryError::ScalarSubqueryRows(2).to_string());
        assert_eq!(st.subquery_keyed_builds, 1);
    }

    #[test]
    fn keyed_in_and_exists_match_sql_equality() {
        // Float outer keys against an int inner key: -0.0 = 0, NaN and
        // NULL match nothing.
        for sql in [
            "select * from o where exists (select * from i where i.k = o.f)",
            "select * from o where exists (select * from i where i.f = o.f)",
            "select * from o where not exists (select i.* from i where k = o.f)",
            "select * from o where n + 10 in (select d from i where i.k = o.k)",
            "select * from o where 99 not in (select d from i where o.k = i.k)",
            "select (select d from i x where x.k = o.f and x.k = o.k) from o",
        ] {
            let (out, st) = both_modes(sql);
            assert!(out.is_ok(), "{sql}: {out:?}");
            assert_eq!(st.subquery_keyed_builds, 1, "{sql}");
            assert_eq!(st.subquery_keyed_probes, 4, "{sql}");
        }
    }

    #[test]
    fn keyed_select_from_empty_inner_table() {
        let mut db = db();
        run_sql(&mut db, "delete from i", ExecMode::Compiled).0.unwrap();
        let (out, st) = run_sql(
            &mut db,
            "select k from o where exists (select d from i where i.k = o.k)",
            ExecMode::Compiled,
        );
        assert_eq!(out.unwrap(), "[]");
        assert_eq!((st.subquery_keyed_builds, st.subquery_keyed_probes), (1, 4));
    }

    #[test]
    fn gate_rejects_interpreted_mode() {
        let mut db = db();
        let (_, st) = run_sql(
            &mut db,
            "select * from o where exists (select * from i where i.k = o.k)",
            ExecMode::Interpreted,
        );
        assert_eq!((st.subquery_keyed_builds, st.subquery_keyed_probes), (0, 0));
    }

    #[test]
    fn gate_rejects_two_from_items() {
        assert_per_row("select * from o where exists (select * from i, o p where i.k = o.k)");
    }

    #[test]
    fn gate_rejects_aggregates() {
        assert_per_row("update o set n = (select count(*) from i where i.k = o.k)");
    }

    #[test]
    fn gate_rejects_group_by() {
        assert_per_row("select * from o where k in (select k from i where i.k = o.k group by k)");
    }

    #[test]
    fn gate_rejects_distinct() {
        assert_per_row("update o set n = (select distinct k from i where i.k = o.k)");
    }

    #[test]
    fn gate_rejects_order_by() {
        assert_per_row("select * from o where 20 in (select d from i where i.k = o.k order by d)");
    }

    #[test]
    fn gate_rejects_limit() {
        assert_per_row("update o set n = (select d from i where i.k = o.k limit 1)");
    }

    #[test]
    fn gate_rejects_computed_projection() {
        assert_per_row("update o set n = (select d + 1 from i where i.k = o.k and i.d < 21)");
    }

    #[test]
    fn gate_rejects_outer_column_in_projection() {
        assert_per_row("select * from o where 0 in (select o.n from i where i.k = o.k)");
    }

    #[test]
    fn gate_rejects_inner_only_conjunct() {
        assert_per_row("update o set n = (select d from i where i.k = o.k and i.d < 21)");
    }

    #[test]
    fn gate_rejects_non_equality_correlation() {
        assert_per_row("select * from o where exists (select * from i where i.k < o.k)");
    }

    #[test]
    fn gate_rejects_outer_expression_key() {
        assert_per_row("select * from o where exists (select * from i where i.k = o.k + 1)");
    }

    #[test]
    fn gate_rejects_disjunction() {
        assert_per_row("select * from o where exists (select * from i where i.k = o.k or i.d = 40)");
    }

    #[test]
    fn incomparable_key_types_run_per_row() {
        // `i.s = o.k` compares text with int: the per-row run raises the
        // type error exactly where it always did.
        let (out, st) = both_modes("select * from o where exists (select * from i where i.s = o.k)");
        assert!(out.unwrap_err().contains("cannot compare"));
        assert_eq!((st.subquery_keyed_builds, st.subquery_keyed_probes), (0, 0));
    }

    #[test]
    fn key_hash_agrees_with_sql_equality() {
        let h = |v: Value| key_hash(&[v]);
        assert_eq!(h(Value::Int(2)), h(Value::Float(2.0)));
        assert_eq!(h(Value::Float(-0.0)), h(Value::Float(0.0)));
        assert_eq!(h(Value::Int(0)), h(Value::Float(-0.0)));
        assert_eq!(h(Value::Text("a".into())), h(Value::Text("a".into())));
    }
}
