//! Materialization of transition tables (paper §3, semantics §4).
//!
//! Given a rule's composite window (its `trans-info`), this provider
//! serves:
//!
//! * `inserted t` — tuples of `t` **in the current state** inserted within
//!   the window (so updates made after the insert are visible);
//! * `deleted t` — tuples of `t` with their **window-start values**;
//! * `old updated t[.c]` — updated tuples, window-start values;
//! * `new updated t[.c]` — the same tuples, current values;
//! * `selected t[.c]` — read tuples, current values (§5.1 extension).
//!
//! References are checked against the set licensed by the rule's
//! transition predicates (§3's restriction).

use std::borrow::Cow;
use std::collections::BTreeSet;

use setrules_query::{describe, QueryError, TransitionTableProvider};
use setrules_sql::ast::TransitionKind;
use setrules_storage::{ColumnId, Database, TableId, Value};

use crate::transinfo::TransInfo;

/// A [`TransitionTableProvider`] borrowing one rule's window — conditions,
/// declarative actions and external actions all read the transaction's
/// shared window without cloning it.
#[derive(Debug, Clone, Copy)]
pub struct RuleWindowRef<'a> {
    /// The rule's composite window.
    pub info: &'a TransInfo,
    /// The rule's licensed transition-table references (§3).
    pub licensed: &'a BTreeSet<(TransitionKind, TableId, Option<ColumnId>)>,
}

impl TransitionTableProvider for RuleWindowRef<'_> {
    /// Rows are *lent*, not cloned: window-start values (`deleted`,
    /// `old updated`) borrow from the window's undo copies, current values
    /// (`inserted`, `new updated`, `selected`) borrow from the live tuples
    /// — the executor clones only rows that survive its filters. This is
    /// the consideration hot path: a storm of reconsiderations over a
    /// large window used to clone every row per consideration.
    fn rows<'a>(
        &'a self,
        db: &'a Database,
        kind: TransitionKind,
        table: &str,
        column: Option<&str>,
    ) -> Result<Vec<Cow<'a, [Value]>>, QueryError> {
        let info = self.info;
        let tid = db.table_id(table)?;
        let col = match column {
            Some(c) => Some(
                db.schema(tid)
                    .column_id(c)
                    .map_err(|_| QueryError::UnknownColumn(format!("{table}.{c}")))?,
            ),
            None => None,
        };
        if !self.licensed.contains(&(kind, tid, col)) {
            return Err(QueryError::TransitionTableUnavailable(describe(kind, table, column)));
        }
        let rows = match kind {
            TransitionKind::Inserted => info
                .ins
                .iter()
                .filter(|h| db.table_of(**h) == Some(tid))
                .filter_map(|h| db.get(tid, *h))
                .map(|t| Cow::Borrowed(t.0.as_slice()))
                .collect(),
            TransitionKind::Deleted => info
                .del
                .values()
                .filter(|e| e.table == tid)
                .map(|e| Cow::Borrowed(e.old.0.as_slice()))
                .collect(),
            TransitionKind::OldUpdated => info
                .upd
                .values()
                .filter(|e| e.table == tid && col.is_none_or(|c| e.columns.contains(&c)))
                .map(|e| Cow::Borrowed(e.old.0.as_slice()))
                .collect(),
            TransitionKind::NewUpdated => info
                .upd
                .iter()
                .filter(|(_, e)| e.table == tid && col.is_none_or(|c| e.columns.contains(&c)))
                .filter_map(|(h, _)| db.get(tid, *h))
                .map(|t| Cow::Borrowed(t.0.as_slice()))
                .collect(),
            TransitionKind::Selected => info
                .sel
                .iter()
                .filter(|(_, e)| {
                    e.table == tid
                        && col.is_none_or(|c| match &e.columns {
                            None => true,
                            Some(cols) => cols.contains(&c),
                        })
                })
                .filter_map(|(h, _)| db.get(tid, *h))
                .map(|t| Cow::Borrowed(t.0.as_slice()))
                .collect(),
        };
        Ok(rows)
    }
}
