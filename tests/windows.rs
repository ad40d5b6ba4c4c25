//! Direct inspection of per-rule composite windows (`R.trans-info`)
//! through `RuleSystem::current_window`, validating the §4.2 window
//! bookkeeping at each step of a transaction.

use setrules_core::{EngineConfig, RetriggerSemantics, RuleSystem};
use setrules_storage::Value;

fn sys2() -> RuleSystem {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table u (k int)").unwrap();
    // watcher_t fires once, copying t-inserts into u.
    sys.execute(
        "create rule watcher_t when inserted into t \
         then insert into u (select k from inserted t)",
    )
    .unwrap();
    // watcher_u never fires (condition false) but accumulates a window.
    sys.execute(
        "create rule watcher_u when inserted into u if false then delete from u",
    )
    .unwrap();
    sys
}

#[test]
fn windows_outside_transaction_are_absent() {
    let sys = sys2();
    assert!(sys.current_window("watcher_t").is_none());
    assert!(sys.current_window("nope").is_none());
}

#[test]
fn pending_ops_reach_windows_only_at_processing() {
    let mut sys = sys2();
    sys.begin().unwrap();
    sys.run_op("insert into t values (1), (2)").unwrap();
    // Before any rule processing, windows are still empty (changes sit in
    // the pending external window).
    assert!(sys.current_window("watcher_t").unwrap().is_empty());
    let report = sys.process_rules().unwrap();
    assert_eq!(report.fired.len(), 1);
    // watcher_t acted: its window is its own transition (2 u-inserts).
    let w_t = sys.current_window("watcher_t").unwrap();
    assert_eq!(w_t.ins.len(), 2, "watcher_t's window = its own insert-into-u transition");
    // watcher_u did not act: its window is the composite of the external
    // block and watcher_t's transition = 2 t-inserts + 2 u-inserts.
    let w_u = sys.current_window("watcher_u").unwrap();
    assert_eq!(w_u.ins.len(), 4);
    sys.commit().unwrap();
    assert!(sys.current_window("watcher_t").is_none(), "windows die with the transaction");
}

#[test]
fn net_effects_visible_in_windows() {
    let mut sys = sys2();
    sys.begin().unwrap();
    sys.run_op("insert into t values (1)").unwrap();
    sys.run_op("delete from t where k = 1").unwrap();
    sys.run_op("insert into t values (2)").unwrap();
    let report = sys.process_rules().unwrap();
    assert_eq!(report.fired.len(), 1);
    // Only the surviving insert is in watcher_u's composite view of t.
    let w_u = sys.current_window("watcher_u").unwrap();
    let t_inserts = w_u
        .ins
        .iter()
        .filter(|h| {
            let db = sys.database();
            db.table_of(**h) == Some(db.table_id("t").unwrap())
        })
        .count();
    assert_eq!(t_inserts, 1);
    assert!(w_u.del.is_empty(), "insert-then-delete cancelled");
    sys.rollback().unwrap();
    assert_eq!(sys.query("select count(*) from t").unwrap().scalar().unwrap(), &Value::Int(0));
}

#[test]
fn update_windows_capture_old_tuples() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int, v int)").unwrap();
    sys.execute("create rule w when updated t.v if false then delete from t").unwrap();
    sys.execute("insert into t values (1, 10)").unwrap();
    sys.begin().unwrap();
    sys.run_op("update t set v = 20 where k = 1").unwrap();
    sys.run_op("update t set v = 30 where k = 1").unwrap();
    sys.process_rules().unwrap();
    let w = sys.current_window("w").unwrap();
    assert_eq!(w.upd.len(), 1, "two updates to one tuple collapse");
    let entry = w.upd.values().next().unwrap();
    assert_eq!(entry.old.0[1], Value::Int(10), "old tuple is the window-start value");
    sys.rollback().unwrap();
}

fn with_semantics(retrigger: RetriggerSemantics) -> RuleSystem {
    RuleSystem::with_config(EngineConfig { retrigger, ..Default::default() })
}

#[test]
fn since_last_considered_window_is_empty_after_false_consideration() {
    let mut sys = with_semantics(RetriggerSemantics::SinceLastConsidered);
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create rule w when inserted into t if false then delete from t").unwrap();
    sys.begin().unwrap();
    sys.run_op("insert into t values (1), (2)").unwrap();
    sys.process_rules().unwrap();
    assert!(
        sys.current_window("w").unwrap().is_empty(),
        "footnote 8: the window restarts when the rule is considered"
    );
    sys.run_op("insert into t values (3)").unwrap();
    sys.process_rules().unwrap();
    // Considered false again: the new insert was seen, then cleared.
    assert!(sys.current_window("w").unwrap().is_empty());
    sys.rollback().unwrap();

    // Under the default semantics the same window keeps accumulating.
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create rule w when inserted into t if false then delete from t").unwrap();
    sys.begin().unwrap();
    sys.run_op("insert into t values (1), (2)").unwrap();
    sys.process_rules().unwrap();
    sys.run_op("insert into t values (3)").unwrap();
    sys.process_rules().unwrap();
    assert_eq!(sys.current_window("w").unwrap().ins.len(), 3);
    sys.rollback().unwrap();
}

#[test]
fn since_last_triggering_window_restarts_at_the_triggering_transition() {
    let setup = |retrigger| {
        let mut sys = with_semantics(retrigger);
        sys.execute("create table t (k int)").unwrap();
        sys.execute("create table u (k int)").unwrap();
        sys.execute("create table v (k int)").unwrap();
        sys.execute("create rule w when inserted into u if false then delete from u").unwrap();
        sys.execute(
            "create rule copy when inserted into t then insert into u (select k from inserted t)",
        )
        .unwrap();
        sys.begin().unwrap();
        // The external block inserts two u rows (triggering w) and one t
        // row; `copy` then inserts a third u row, re-triggering w.
        sys.run_op("insert into u values (1), (2)").unwrap();
        sys.run_op("insert into t values (3)").unwrap();
        assert_eq!(sys.process_rules().unwrap().fired.len(), 1);
        sys
    };
    let mut sys = setup(RetriggerSemantics::SinceLastTriggering);
    let u_rows = |sys: &RuleSystem| {
        let db = sys.database();
        let u = db.table_id("u").unwrap();
        let w = sys.current_window("w").unwrap();
        w.ins.iter().filter(|h| db.table_of(**h) == Some(u)).count()
    };
    assert_eq!(u_rows(&sys), 1, "[WF89b]: only copy's transition, which alone triggers w");
    assert_eq!(sys.current_window("w").unwrap().ins.len(), 1);
    // A transition that does not trigger w extends its window instead.
    sys.run_op("insert into v values (9)").unwrap();
    sys.process_rules().unwrap();
    assert_eq!(sys.current_window("w").unwrap().ins.len(), 2);
    assert_eq!(u_rows(&sys), 1);
    sys.rollback().unwrap();

    // The default semantics compose the whole transaction instead.
    let mut sys = setup(RetriggerSemantics::SinceLastAction);
    assert_eq!(u_rows(&sys), 3);
    assert_eq!(sys.current_window("w").unwrap().ins.len(), 4);
    sys.rollback().unwrap();
}

/// `commit()` always runs a fresh Figure-1 pass: with no operation since
/// `process_rules()`, every rule still triggered by its window is
/// considered again. Pinned so a change to this count is deliberate.
#[test]
fn commit_after_process_rules_reconsiders_still_triggered_rules() {
    let reconsidered_at_commit = |retrigger: RetriggerSemantics| {
        let mut sys = RuleSystem::with_config(EngineConfig { retrigger, ..Default::default() });
        sys.execute("create table t (k int)").unwrap();
        sys.execute("create table u (k int)").unwrap();
        sys.execute(
            "create rule watcher_t when inserted into t \
             then insert into u (select k from inserted t)",
        )
        .unwrap();
        sys.execute("create rule watcher_u when inserted into u if false then delete from u")
            .unwrap();
        sys.begin().unwrap();
        sys.run_op("insert into t values (1), (2)").unwrap();
        let report = sys.process_rules().unwrap();
        assert_eq!(report.fired.len(), 1);
        assert_eq!(report.stats.engine.rules_considered, 2, "watcher_t fires, watcher_u is false");
        let before = sys.stats().clone();
        let out = sys.commit().unwrap();
        assert_eq!(out.fired().len(), 1, "the commit's pass fires nothing more");
        let pass = sys.stats().since(&before);
        let per_rule = |r: &str| pass.per_rule.get(r).map_or(0, |t| t.considered);
        assert_eq!(pass.rules_considered, per_rule("watcher_u"), "watcher_t is not triggered");
        pass.rules_considered
    };
    // §4.2 default: watcher_u's window still holds the u-inserts, so the
    // commit's pass considers it (false) once more.
    assert_eq!(reconsidered_at_commit(RetriggerSemantics::SinceLastAction), 1);
    // Footnote 8: the false consideration restarted its window.
    assert_eq!(reconsidered_at_commit(RetriggerSemantics::SinceLastConsidered), 0);
}
