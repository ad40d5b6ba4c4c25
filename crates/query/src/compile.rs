//! Compile-once expression lowering (the tentpole of the compile-once
//! pipeline).
//!
//! The interpreter resolves every column reference by string comparison on
//! every row. [`compile`] performs that resolution *once* per statement
//! against a [`Layout`] — a snapshot of the name-resolution scopes — and
//! lowers the AST into a [`CompiledExpr`] whose column references are
//! `(level, from-item, column)` slots and whose constant subtrees are
//! folded. [`eval_compiled`] then evaluates rows with array indexing
//! instead of hash/string lookups.
//!
//! Compilation **never fails** and never changes semantics:
//!
//! * unresolvable or ambiguous references lower to [`CompiledExpr::Interp`],
//!   so `UnknownColumn` / `AmbiguousColumn` errors still surface lazily at
//!   evaluation time, exactly where the interpreter would raise them (the
//!   subquery-correlation probe in `subquery` depends on this);
//! * constant folding only replaces a subtree when its evaluation
//!   *succeeds* — `1 / 0` stays unfolded so the error remains lazy and
//!   `false and 1/0 = 1` still short-circuits to `false`;
//! * aggregates stay interpreted (they evaluate over group context, not
//!   rows).
//!
//! A [`PlanCache`] memoizes compiled forms keyed by AST-node address plus a
//! layout fingerprint; the rule engine keeps one per rule so repeatedly
//! fired rules plan once (ISSUE 2 tentpole 3), invalidating on DDL.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use setrules_sql::ast::{BinaryOp, Expr, SelectStmt, UnaryOp};
use setrules_storage::Value;

use crate::bindings::{Bindings, Level};
use crate::ctx::QueryCtx;
use crate::error::QueryError;
use crate::eval;
use crate::subquery;

// ----------------------------------------------------------------------
// Layout: the compile-time shadow of a Bindings stack.
// ----------------------------------------------------------------------

/// One `from`-item binding as seen at compile time: its variable name and
/// column names (no row values).
#[derive(Debug, Clone)]
pub struct LayoutFrame {
    /// The table variable (alias, or the base table name).
    pub name: String,
    /// Column names, shared with the scan's frames.
    pub columns: Arc<Vec<String>>,
}

/// The compile-time shape of a [`Bindings`] stack: one level per nested
/// query, innermost last — the same resolution structure `Bindings` walks
/// per row, walked once at compile time instead.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    levels: Vec<Vec<LayoutFrame>>,
}

impl Layout {
    /// An empty layout (constant expressions only).
    pub fn new() -> Self {
        Layout::default()
    }

    /// Enter a query scope: push its frames (innermost last).
    pub fn push_level(&mut self, level: Vec<LayoutFrame>) {
        self.levels.push(level);
    }

    /// A stable fingerprint of the scope shape (frame and column names),
    /// used to guard [`PlanCache`] entries against layout changes for the
    /// same AST node.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.levels.len().hash(&mut h);
        for level in &self.levels {
            level.len().hash(&mut h);
            for f in level {
                f.name.hash(&mut h);
                f.columns.hash(&mut h);
            }
        }
        h.finish()
    }

    /// Resolve a (possibly qualified) column reference the way
    /// [`Bindings::resolve`] would, innermost level first. `Ok` carries
    /// `(level_up, frame, column)` with `level_up = 0` for the innermost
    /// level; `Err(())` means resolution would not produce a value
    /// (unknown or ambiguous) and the reference must stay interpreted.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<(usize, usize, usize), ()> {
        for (up, level) in self.levels.iter().rev().enumerate() {
            match qualifier {
                Some(q) => {
                    let mut matched_var = false;
                    for (fi, frame) in level.iter().enumerate() {
                        if frame.name == q {
                            matched_var = true;
                            if let Some(ci) = frame.columns.iter().position(|c| c == name) {
                                return Ok((up, fi, ci));
                            }
                        }
                    }
                    if matched_var {
                        // Variable exists here but lacks the column:
                        // resolution stops with an error (interpreted).
                        return Err(());
                    }
                }
                None => {
                    let mut found = None;
                    for (fi, frame) in level.iter().enumerate() {
                        if let Some(ci) = frame.columns.iter().position(|c| c == name) {
                            if found.is_some() {
                                return Err(()); // ambiguous — interpreted
                            }
                            found = Some((up, fi, ci));
                        }
                    }
                    if let Some(hit) = found {
                        return Ok(hit);
                    }
                }
            }
        }
        Err(())
    }
}

impl Bindings {
    /// Snapshot the current scope shape for compilation.
    pub fn layout(&self) -> Layout {
        Layout {
            levels: self
                .levels()
                .iter()
                .map(|level| {
                    level
                        .iter()
                        .map(|f| LayoutFrame { name: f.name.clone(), columns: Arc::clone(&f.columns) })
                        .collect()
                })
                .collect(),
        }
    }
}

// ----------------------------------------------------------------------
// CompiledExpr
// ----------------------------------------------------------------------

/// An [`Expr`] lowered for slot-addressed evaluation.
#[derive(Debug, Clone)]
pub enum CompiledExpr {
    /// A literal or folded constant subtree.
    Const(Value),
    /// A resolved column reference: `level_up` scopes above the innermost,
    /// frame `frame` within that level, column `col` within the frame.
    Slot {
        /// Scopes above the innermost level (0 = innermost).
        level_up: usize,
        /// From-item index within the level.
        frame: usize,
        /// Column index within the frame.
        col: usize,
    },
    /// Unary operator over a compiled operand.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<CompiledExpr>,
    },
    /// Binary operator over compiled operands (logical operators keep
    /// their Kleene short-circuit behaviour).
    Binary {
        /// Left operand.
        left: Box<CompiledExpr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<CompiledExpr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested operand.
        expr: Box<CompiledExpr>,
        /// `IS NOT NULL` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (list…)`.
    InList {
        /// The needle.
        expr: Box<CompiledExpr>,
        /// The haystack expressions.
        list: Vec<CompiledExpr>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested operand.
        expr: Box<CompiledExpr>,
        /// Lower bound.
        low: Box<CompiledExpr>,
        /// Upper bound.
        high: Box<CompiledExpr>,
        /// `NOT BETWEEN` when true.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern [ESCAPE c]`.
    Like {
        /// The tested operand.
        expr: Box<CompiledExpr>,
        /// The pattern.
        pattern: Box<CompiledExpr>,
        /// The escape character expression, if given.
        escape: Option<Box<CompiledExpr>>,
        /// `NOT LIKE` when true.
        negated: bool,
    },
    /// `expr [NOT] IN (select …)` — the needle is compiled; the subquery
    /// executes through `run_select` (which compiles its own scope) with
    /// the per-statement subquery memo intact.
    InSubquery {
        /// The needle.
        expr: Box<CompiledExpr>,
        /// The subquery (owned: the compiled plan may outlive the source
        /// AST borrow, and the memo keys on this node's stable address).
        subquery: Box<SelectStmt>,
        /// `NOT IN` when true.
        negated: bool,
    },
    /// `[NOT] EXISTS (select …)`.
    Exists {
        /// The subquery.
        subquery: Box<SelectStmt>,
        /// `NOT EXISTS` when true.
        negated: bool,
    },
    /// A scalar subquery.
    ScalarSubquery(Box<SelectStmt>),
    /// Fallback to the interpreter: aggregates, and references the layout
    /// cannot resolve (the interpreter raises the proper error, lazily).
    Interp(Expr),
}

impl CompiledExpr {
    /// Whether any node delegates to the interpreter or runs a subquery —
    /// i.e. evaluation may consult state beyond the row slots. Predicate
    /// pushdown requires this to be false.
    pub fn slots_only(&self) -> bool {
        match self {
            CompiledExpr::Const(_) | CompiledExpr::Slot { .. } => true,
            CompiledExpr::Unary { expr, .. } | CompiledExpr::IsNull { expr, .. } => {
                expr.slots_only()
            }
            CompiledExpr::Binary { left, right, .. } => left.slots_only() && right.slots_only(),
            CompiledExpr::InList { expr, list, .. } => {
                expr.slots_only() && list.iter().all(|e| e.slots_only())
            }
            CompiledExpr::Between { expr, low, high, .. } => {
                expr.slots_only() && low.slots_only() && high.slots_only()
            }
            CompiledExpr::Like { expr, pattern, escape, .. } => {
                expr.slots_only()
                    && pattern.slots_only()
                    && escape.as_ref().is_none_or(|e| e.slots_only())
            }
            CompiledExpr::InSubquery { .. }
            | CompiledExpr::Exists { .. }
            | CompiledExpr::ScalarSubquery(_)
            | CompiledExpr::Interp(_) => false,
        }
    }

    /// Visit every resolved slot.
    pub fn for_each_slot(&self, f: &mut impl FnMut(usize, usize, usize)) {
        match self {
            CompiledExpr::Const(_) | CompiledExpr::Interp(_) => {}
            CompiledExpr::Slot { level_up, frame, col } => f(*level_up, *frame, *col),
            CompiledExpr::Unary { expr, .. } | CompiledExpr::IsNull { expr, .. } => {
                expr.for_each_slot(f)
            }
            CompiledExpr::Binary { left, right, .. } => {
                left.for_each_slot(f);
                right.for_each_slot(f);
            }
            CompiledExpr::InList { expr, list, .. } => {
                expr.for_each_slot(f);
                for e in list {
                    e.for_each_slot(f);
                }
            }
            CompiledExpr::Between { expr, low, high, .. } => {
                expr.for_each_slot(f);
                low.for_each_slot(f);
                high.for_each_slot(f);
            }
            CompiledExpr::Like { expr, pattern, escape, .. } => {
                expr.for_each_slot(f);
                pattern.for_each_slot(f);
                if let Some(e) = escape {
                    e.for_each_slot(f);
                }
            }
            CompiledExpr::InSubquery { expr, .. } => expr.for_each_slot(f),
            CompiledExpr::Exists { .. } | CompiledExpr::ScalarSubquery(_) => {}
        }
    }
}

// ----------------------------------------------------------------------
// Compilation
// ----------------------------------------------------------------------

/// Lower `e` against `layout`. Infallible: whatever cannot be resolved or
/// folded stays interpreted, preserving the interpreter's semantics
/// (including its error behaviour) exactly.
pub fn compile(e: &Expr, layout: &Layout) -> CompiledExpr {
    match e {
        Expr::Literal(v) => CompiledExpr::Const(v.clone()),
        Expr::Column { qualifier, name } => match layout.resolve(qualifier.as_deref(), name) {
            Ok((level_up, frame, col)) => CompiledExpr::Slot { level_up, frame, col },
            Err(()) => CompiledExpr::Interp(e.clone()),
        },
        Expr::Unary { op, expr } => {
            fold(CompiledExpr::Unary { op: *op, expr: Box::new(compile(expr, layout)) })
        }
        Expr::Binary { left, op, right } => fold(CompiledExpr::Binary {
            left: Box::new(compile(left, layout)),
            op: *op,
            right: Box::new(compile(right, layout)),
        }),
        Expr::IsNull { expr, negated } => fold(CompiledExpr::IsNull {
            expr: Box::new(compile(expr, layout)),
            negated: *negated,
        }),
        Expr::InList { expr, list, negated } => fold(CompiledExpr::InList {
            expr: Box::new(compile(expr, layout)),
            list: list.iter().map(|i| compile(i, layout)).collect(),
            negated: *negated,
        }),
        Expr::Between { expr, low, high, negated } => fold(CompiledExpr::Between {
            expr: Box::new(compile(expr, layout)),
            low: Box::new(compile(low, layout)),
            high: Box::new(compile(high, layout)),
            negated: *negated,
        }),
        Expr::Like { expr, pattern, escape, negated } => fold(CompiledExpr::Like {
            expr: Box::new(compile(expr, layout)),
            pattern: Box::new(compile(pattern, layout)),
            escape: escape.as_ref().map(|e| Box::new(compile(e, layout))),
            negated: *negated,
        }),
        Expr::InSubquery { expr, subquery, negated } => CompiledExpr::InSubquery {
            expr: Box::new(compile(expr, layout)),
            subquery: subquery.clone(),
            negated: *negated,
        },
        Expr::Exists { subquery, negated } => {
            CompiledExpr::Exists { subquery: subquery.clone(), negated: *negated }
        }
        Expr::ScalarSubquery(s) => CompiledExpr::ScalarSubquery(s.clone()),
        // Aggregates evaluate over group context; stay interpreted.
        Expr::Aggregate { .. } => CompiledExpr::Interp(e.clone()),
    }
}

/// Constant-fold a freshly built node: when every child is `Const` and the
/// node evaluates *successfully* with no scope at all, replace it with the
/// result. Failed evaluation (e.g. `1 / 0`) keeps the node so the error
/// stays lazy, exactly like the interpreter.
fn fold(node: CompiledExpr) -> CompiledExpr {
    fn all_const(node: &CompiledExpr) -> bool {
        match node {
            CompiledExpr::Unary { expr, .. } | CompiledExpr::IsNull { expr, .. } => {
                matches!(**expr, CompiledExpr::Const(_))
            }
            CompiledExpr::Binary { left, right, .. } => {
                matches!(**left, CompiledExpr::Const(_))
                    && matches!(**right, CompiledExpr::Const(_))
            }
            CompiledExpr::InList { expr, list, .. } => {
                matches!(**expr, CompiledExpr::Const(_))
                    && list.iter().all(|e| matches!(e, CompiledExpr::Const(_)))
            }
            CompiledExpr::Between { expr, low, high, .. } => {
                matches!(**expr, CompiledExpr::Const(_))
                    && matches!(**low, CompiledExpr::Const(_))
                    && matches!(**high, CompiledExpr::Const(_))
            }
            CompiledExpr::Like { expr, pattern, escape, .. } => {
                matches!(**expr, CompiledExpr::Const(_))
                    && matches!(**pattern, CompiledExpr::Const(_))
                    && escape.as_ref().is_none_or(|e| matches!(**e, CompiledExpr::Const(_)))
            }
            _ => false,
        }
    }
    if !all_const(&node) {
        return node;
    }
    // Constant nodes never touch the database, bindings, or stats; an
    // empty context is sufficient.
    let db = setrules_storage::Database::new();
    let ctx = QueryCtx::plain(&db);
    match eval_compiled(ctx, &mut Bindings::new(), None, &node) {
        Ok(v) => CompiledExpr::Const(v),
        Err(_) => node,
    }
}

// ----------------------------------------------------------------------
// Evaluation
// ----------------------------------------------------------------------

/// Evaluate a compiled expression. The innermost level of `bindings` must
/// have the shape of the [`Layout`] the expression was compiled against.
pub fn eval_compiled(
    ctx: QueryCtx<'_>,
    bindings: &mut Bindings,
    group: Option<&[Level]>,
    e: &CompiledExpr,
) -> Result<Value, QueryError> {
    match e {
        CompiledExpr::Const(v) => Ok(v.clone()),
        CompiledExpr::Slot { level_up, frame, col } => bindings.slot(*level_up, *frame, *col),
        CompiledExpr::Unary { op, expr } => {
            let v = eval_compiled(ctx, bindings, group, expr)?;
            eval::apply_unary(*op, &v)
        }
        CompiledExpr::Binary { left, op, right } => {
            if matches!(op, BinaryOp::And | BinaryOp::Or) {
                let l = eval::truth(&eval_compiled(ctx, bindings, group, left)?)?;
                match (op, l) {
                    (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
                    (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
                    _ => {}
                }
                let r = eval::truth(&eval_compiled(ctx, bindings, group, right)?)?;
                let out = match op {
                    BinaryOp::And => eval::kleene_and(l, r),
                    _ => eval::kleene_or(l, r),
                };
                return Ok(out.map_or(Value::Null, Value::Bool));
            }
            let l = eval_compiled(ctx, bindings, group, left)?;
            let r = eval_compiled(ctx, bindings, group, right)?;
            eval::apply_binary(&l, *op, &r)
        }
        CompiledExpr::IsNull { expr, negated } => {
            let v = eval_compiled(ctx, bindings, group, expr)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        CompiledExpr::InList { expr, list, negated } => {
            let needle = eval_compiled(ctx, bindings, group, expr)?;
            let mut vals = Vec::with_capacity(list.len());
            for item in list {
                vals.push(eval_compiled(ctx, bindings, group, item)?);
            }
            eval::in_semantics(&needle, vals.iter(), *negated)
        }
        CompiledExpr::Between { expr, low, high, negated } => {
            let v = eval_compiled(ctx, bindings, group, expr)?;
            let lo = eval_compiled(ctx, bindings, group, low)?;
            let hi = eval_compiled(ctx, bindings, group, high)?;
            eval::between_semantics(&v, &lo, &hi, *negated)
        }
        CompiledExpr::Like { expr, pattern, escape, negated } => {
            let v = eval_compiled(ctx, bindings, group, expr)?;
            let p = eval_compiled(ctx, bindings, group, pattern)?;
            let e = match escape {
                Some(ex) => Some(eval_compiled(ctx, bindings, group, ex)?),
                None => None,
            };
            eval::like_semantics(&v, &p, e.as_ref(), *negated)
        }
        CompiledExpr::InSubquery { expr, subquery: sub, negated } => {
            let needle = eval_compiled(ctx, bindings, group, expr)?;
            let rows = subquery::eval_subquery(ctx, bindings, sub)?;
            subquery::in_subquery(&needle, &rows, *negated)
        }
        CompiledExpr::Exists { subquery: sub, negated } => {
            Ok(subquery::exists(&subquery::eval_subquery(ctx, bindings, sub)?, *negated))
        }
        CompiledExpr::ScalarSubquery(sub) => {
            subquery::scalar(&subquery::eval_subquery(ctx, bindings, sub)?)
        }
        CompiledExpr::Interp(src) => eval::eval_expr(ctx, bindings, group, src),
    }
}

/// Evaluate a compiled predicate; a row qualifies only when the result is
/// *true* (SQL `where` semantics).
pub fn eval_compiled_predicate(
    ctx: QueryCtx<'_>,
    bindings: &mut Bindings,
    group: Option<&[Level]>,
    e: &CompiledExpr,
) -> Result<bool, QueryError> {
    let v = eval_compiled(ctx, bindings, group, e)?;
    Ok(eval::truth(&v)? == Some(true))
}

// ----------------------------------------------------------------------
// Plan cache
// ----------------------------------------------------------------------

/// Memo of compiled expressions keyed by AST-node address plus layout
/// fingerprint. The address key requires the source AST to be stable for
/// the cache's lifetime; holders (the rule engine keeps one per rule) must
/// discard the cache whenever the AST or the catalog can change (any DDL).
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: RefCell<HashMap<(usize, u64), Arc<CompiledExpr>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    /// Incremental-evaluation state for the rule condition this cache
    /// belongs to (tentpole of ISSUE 7): the one-time shape analysis and,
    /// when incrementalizable, the materialized per-term match sets. It
    /// lives here because its lifetime rules are exactly the plan
    /// cache's — any DDL discards the whole cache, analysis and memo
    /// included.
    incr: RefCell<Option<crate::incremental::IncrState>>,
}

impl PlanCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Mutable access to the incremental-evaluation state slot (`None`
    /// until the engine first analyzes the rule's condition).
    pub fn incr_state(&self) -> std::cell::RefMut<'_, Option<crate::incremental::IncrState>> {
        self.incr.borrow_mut()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    /// `(hits, misses)` since creation.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

/// Compile `e` against `layout`, consulting the context's [`PlanCache`]
/// when one is attached (keyed by `e`'s address and the layout
/// fingerprint).
pub fn compile_cached(ctx: QueryCtx<'_>, e: &Expr, layout: &Layout) -> Arc<CompiledExpr> {
    let Some(cache) = ctx.plans else {
        return Arc::new(compile(e, layout));
    };
    let key = (e as *const Expr as usize, layout.fingerprint());
    if let Some(hit) = cache.entries.borrow().get(&key) {
        cache.hits.set(cache.hits.get() + 1);
        return Arc::clone(hit);
    }
    cache.misses.set(cache.misses.get() + 1);
    let compiled = Arc::new(compile(e, layout));
    cache.entries.borrow_mut().insert(key, Arc::clone(&compiled));
    compiled
}

#[cfg(test)]
mod tests {
    use super::*;
    use setrules_sql::parse_expr;
    use setrules_storage::Database;

    fn layout(frames: &[(&str, &[&str])]) -> Layout {
        let mut l = Layout::new();
        l.push_level(
            frames
                .iter()
                .map(|(n, cols)| LayoutFrame {
                    name: n.to_string(),
                    columns: Arc::new(cols.iter().map(|c| c.to_string()).collect()),
                })
                .collect(),
        );
        l
    }

    fn compile_str(src: &str, l: &Layout) -> CompiledExpr {
        compile(&parse_expr(src).unwrap(), l)
    }

    #[test]
    fn columns_lower_to_slots() {
        let l = layout(&[("emp", &["name", "salary"]), ("dept", &["dept_no"])]);
        match compile_str("salary", &l) {
            CompiledExpr::Slot { level_up: 0, frame: 0, col: 1 } => {}
            other => panic!("{other:?}"),
        }
        match compile_str("dept.dept_no", &l) {
            CompiledExpr::Slot { level_up: 0, frame: 1, col: 0 } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ambiguous_and_unknown_stay_interpreted() {
        let l = layout(&[("e1", &["dept_no"]), ("e2", &["dept_no"])]);
        assert!(matches!(compile_str("dept_no", &l), CompiledExpr::Interp(_)));
        assert!(matches!(compile_str("bogus", &l), CompiledExpr::Interp(_)));
        // Qualified match with a missing column stops resolution (same as
        // Bindings::resolve) — interpreted so the error stays.
        assert!(matches!(compile_str("e1.bogus", &l), CompiledExpr::Interp(_)));
    }

    #[test]
    fn outer_scope_references_resolve_upward() {
        let mut l = layout(&[("e1", &["dept_no"])]);
        l.push_level(vec![LayoutFrame {
            name: "e2".into(),
            columns: Arc::new(vec!["dept_no".into()]),
        }]);
        match compile(&parse_expr("e1.dept_no").unwrap(), &l) {
            CompiledExpr::Slot { level_up: 1, frame: 0, col: 0 } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constants_fold_once() {
        let l = Layout::new();
        match compile_str("1 + 2 * 3", &l) {
            CompiledExpr::Const(Value::Int(7)) => {}
            other => panic!("{other:?}"),
        }
        match compile_str("2 in (1, 2)", &l) {
            CompiledExpr::Const(Value::Bool(true)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn failing_constants_stay_lazy() {
        let l = Layout::new();
        // 1/0 must not fold (the error must stay lazy)…
        assert!(matches!(compile_str("1 / 0", &l), CompiledExpr::Binary { .. }));
        // …so short-circuiting still protects it at evaluation time.
        let db = Database::new();
        let ctx = QueryCtx::plain(&db);
        let c = compile_str("false and 1 / 0 = 1", &l);
        assert_eq!(
            eval_compiled(ctx, &mut Bindings::new(), None, &c).unwrap(),
            Value::Bool(false)
        );
        let c = compile_str("1 / 0 = 1", &l);
        assert_eq!(
            eval_compiled(ctx, &mut Bindings::new(), None, &c),
            Err(QueryError::DivisionByZero)
        );
    }

    #[test]
    fn compiled_agrees_with_interpreter_on_rows() {
        use crate::bindings::Frame;
        let db = Database::new();
        let ctx = QueryCtx::plain(&db);
        let cols = Arc::new(vec!["a".to_string(), "b".to_string()]);
        let l = layout(&[("t", &["a", "b"])]);
        let exprs = [
            "a + b * 2",
            "a < b and b < 100",
            "a between 1 and b",
            "a in (1, 2, b)",
            "a is not null",
            "not (a = b) or a % 2 = 0",
        ];
        for src in exprs {
            let e = parse_expr(src).unwrap();
            let c = compile(&e, &l);
            for (a, b) in [(1i64, 2i64), (5, 3), (2, 2)] {
                let mut bs = Bindings::new();
                bs.push_level(vec![Frame {
                    name: "t".into(),
                    columns: Arc::clone(&cols),
                    row: vec![Value::Int(a), Value::Int(b)],
                }]);
                let interp = eval::eval_expr(ctx, &mut bs, None, &e).unwrap();
                let compiled = eval_compiled(ctx, &mut bs, None, &c).unwrap();
                assert_eq!(interp, compiled, "{src} with a={a} b={b}");
            }
        }
    }

    #[test]
    fn plan_cache_hits_on_reuse_and_respects_layout() {
        let e = parse_expr("salary > 100").unwrap();
        let cache = PlanCache::new();
        let db = Database::new();
        let ctx = QueryCtx::plain(&db).with_plans(Some(&cache));
        let l1 = layout(&[("emp", &["name", "salary"])]);
        let l2 = layout(&[("emp", &["salary", "name"])]);
        let c1 = compile_cached(ctx, &e, &l1);
        let c2 = compile_cached(ctx, &e, &l1);
        assert!(Arc::ptr_eq(&c1, &c2));
        // Different layout, same node: a distinct entry (not a false hit).
        let c3 = compile_cached(ctx, &e, &l2);
        assert!(!Arc::ptr_eq(&c1, &c3));
        assert_eq!(cache.counters(), (1, 2));
        assert_eq!(cache.len(), 2);
    }
}
