//! Evaluation context: the database, the transition-table provider, and
//! the per-statement subquery cache.

use setrules_storage::Database;

use crate::compile::PlanCache;
use crate::provider::TransitionTableProvider;
use crate::stats::{OpStatsCell, StatsCell};
use crate::subquery::SubqueryCache;

/// Which executor evaluates expressions and plans joins.
///
/// `Compiled` (the default) lowers expressions to slot-addressed
/// [`CompiledExpr`](crate::compile::CompiledExpr) form and runs the N-way
/// join planner; `Interpreted` keeps the original string-resolving
/// walk-the-AST path. The two must produce identical relations — the
/// interpreted path remains as the differential-testing reference and as
/// the bench baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Compile-once pipeline: slot-resolved expressions, planned joins.
    #[default]
    Compiled,
    /// Reference interpreter: per-row string resolution, odometer joins
    /// with the historical 2-way hash special case.
    Interpreted,
}

/// Everything expression evaluation may consult: the current database state
/// and the transition tables of the rule being processed (if any).
///
/// The paper's rule conditions "may refer to the current state of the
/// database \[and\] to the logical transition tables" (§4.1) — `db` is the
/// current state, `virt` supplies the transition tables.
#[derive(Clone, Copy)]
pub struct QueryCtx<'a> {
    /// The current database state.
    pub db: &'a Database,
    /// Transition tables visible in this context.
    pub virt: &'a dyn TransitionTableProvider,
    /// Subquery memo for the statement being evaluated (see
    /// [`SubqueryCache`]); `None` disables it (every subquery re-runs for
    /// every outer row).
    pub cache: Option<&'a SubqueryCache>,
    /// Execution-work accumulator; `None` (the default) disables
    /// instrumentation.
    pub stats: Option<&'a StatsCell>,
    /// Per-operator work counters for the physical operator tree
    /// ([`crate::exec`]); `None` (the default) disables them. This is a
    /// side channel: the aggregate [`crate::ExecStats`] counters are
    /// unaffected by whether it is attached.
    pub op_stats: Option<&'a OpStatsCell>,
    /// Which executor to run (compiled pipeline vs reference interpreter).
    pub mode: ExecMode,
    /// Compiled-expression memo shared across statements (the rule engine
    /// attaches one per rule); `None` compiles fresh per statement.
    pub plans: Option<&'a PlanCache>,
    /// Worker-thread budget for the read-only parallel phases (scan +
    /// pushdown filtering, hash-join build/probe, WHERE pass). `1` (the
    /// default) keeps execution fully serial; see
    /// [`crate::parallel`] for the determinism argument.
    pub threads: usize,
}

impl<'a> QueryCtx<'a> {
    /// Context for plain user queries: no transition tables, no cache.
    pub fn plain(db: &'a Database) -> Self {
        QueryCtx {
            db,
            virt: &crate::provider::NoTransitionTables,
            cache: None,
            stats: None,
            op_stats: None,
            mode: ExecMode::default(),
            plans: None,
            threads: 1,
        }
    }

    /// Context with an explicit transition-table provider (no cache).
    pub fn with_provider(db: &'a Database, virt: &'a dyn TransitionTableProvider) -> Self {
        QueryCtx { db, virt, ..QueryCtx::plain(db) }
    }

    /// Attach a per-statement subquery cache.
    pub fn with_cache(self, cache: &'a SubqueryCache) -> Self {
        QueryCtx { cache: Some(cache), ..self }
    }

    /// Attach an execution-stats accumulator (pass `None` to detach).
    pub fn with_stats(self, stats: Option<&'a StatsCell>) -> Self {
        QueryCtx { stats, ..self }
    }

    /// Attach a per-operator counter map (pass `None` to detach).
    pub fn with_op_stats(self, op_stats: Option<&'a OpStatsCell>) -> Self {
        QueryCtx { op_stats, ..self }
    }

    /// Select the execution mode (compiled pipeline vs interpreter).
    pub fn with_mode(self, mode: ExecMode) -> Self {
        QueryCtx { mode, ..self }
    }

    /// Attach a compiled-expression plan cache (pass `None` to detach).
    pub fn with_plans(self, plans: Option<&'a PlanCache>) -> Self {
        QueryCtx { plans, ..self }
    }

    /// Set the worker-thread budget for parallel query phases (clamped to
    /// at least 1; `1` means fully serial).
    pub fn with_threads(self, threads: usize) -> Self {
        QueryCtx { threads: threads.max(1), ..self }
    }
}
