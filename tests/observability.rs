//! The observability layer: per-variant `EngineEvent` display/serde
//! coverage, sink behavior, counter-additivity properties, and the
//! set-vs-instance differential on the shared B1 audit workload.
//!
//! `scripts/ci.sh` greps this file for every `EngineEvent` variant name:
//! adding a variant without extending `event_samples()` (and thereby the
//! display/serde assertions) fails CI.

use setrules_core::{
    EngineEvent, EngineStats, EventSink, JsonLinesSink, RingBufferSink, RuleSystem, TxnStats,
};
use setrules_instance::{InstanceEngine, TriggerEvent};
use setrules_json::Json;
use setrules_query::ExecStats;
use setrules_storage::StorageStats;
use setrules_testkit::{check, Rng};

// ----------------------------------------------------------------------
// Event vocabulary: one sample per variant, display + JSON asserted.
// ----------------------------------------------------------------------

/// Every `EngineEvent` variant, with its expected display line and JSON
/// tag. CI's enum guard keys off the constructor names in this list.
fn event_samples() -> Vec<(EngineEvent, &'static str, &'static str)> {
    vec![
        (EngineEvent::TxnBegin, "txn begin", "txn_begin"),
        (
            EngineEvent::TxnCommit { fired: 2, transitions: 3 },
            "txn commit (2 fired, 3 transitions)",
            "txn_commit",
        ),
        (
            EngineEvent::Rollback { by_rule: Some("guard".into()) },
            "rollback by rule 'guard'",
            "rollback",
        ),
        (EngineEvent::Rollback { by_rule: None }, "rollback", "rollback"),
        (
            EngineEvent::ExternalBlockAbsorbed { inserted: 1, deleted: 2, updated: 3, selected: 4 },
            "external block absorbed (I=1 D=2 U=3 S=4)",
            "external_block_absorbed",
        ),
        (
            EngineEvent::RuleConsidered { rule: "r".into() },
            "rule 'r' considered",
            "rule_considered",
        ),
        (
            EngineEvent::RuleConditionFalse { rule: "r".into() },
            "rule 'r' condition false",
            "rule_condition_false",
        ),
        (
            EngineEvent::RuleExecuted { rule: "r".into(), inserted: 1, deleted: 0, updated: 2 },
            "rule 'r' executed (I=1 D=0 U=2)",
            "rule_executed",
        ),
        (
            EngineEvent::RuleRetriggered { rule: "r".into() },
            "rule 'r' re-triggered",
            "rule_retriggered",
        ),
        (
            EngineEvent::TransInfoInit { rule: "r".into() },
            "trans-info init for 'r'",
            "trans_info_init",
        ),
        (
            EngineEvent::TransInfoModify { rule: "r".into() },
            "trans-info modify for 'r'",
            "trans_info_modify",
        ),
        (
            EngineEvent::LoopSafeguardAbort { limit: 7 },
            "loop safeguard abort (limit 7)",
            "loop_safeguard_abort",
        ),
        (
            EngineEvent::PlanCache { rule: "r".into(), hit: true },
            "plan cache hit for 'r'",
            "plan_cache",
        ),
        (
            EngineEvent::PlanCache { rule: "r".into(), hit: false },
            "plan cache miss for 'r'",
            "plan_cache",
        ),
        (
            EngineEvent::IncrementalEval {
                rule: "r".into(),
                mode: "repair".into(),
                delta_rows: 3,
                shared: true,
            },
            "incremental eval (repair) for 'r' (3 delta rows, shared delta)",
            "incremental_eval",
        ),
        (
            EngineEvent::IncrementalEval {
                rule: "r".into(),
                mode: "fallback".into(),
                delta_rows: 0,
                shared: false,
            },
            "incremental eval (fallback) for 'r' (0 delta rows)",
            "incremental_eval",
        ),
        (
            EngineEvent::Fault { kind: "undo_append".into(), n: 4 },
            "injected fault: undo_append #4",
            "fault",
        ),
        (EngineEvent::StatementRollback, "statement rollback", "statement_rollback"),
        (
            EngineEvent::ParallelScan { partitions: 4, rows: 100000 },
            "parallel scan (4 partitions, 100000 rows)",
            "parallel_scan",
        ),
        (
            EngineEvent::WalAppend { kind: "commit".into() },
            "wal append (commit)",
            "wal_append",
        ),
        (
            EngineEvent::Checkpoint { bytes: 512 },
            "checkpoint written (512 bytes)",
            "checkpoint",
        ),
        (
            EngineEvent::Recovery { records: 9, truncated_bytes: 3 },
            "recovery replayed 9 records (3 torn bytes)",
            "recovery",
        ),
    ]
}

#[test]
fn every_variant_displays_and_serializes() {
    let samples = event_samples();
    // The sample list must cover the whole enum: 19 distinct kinds (the
    // rollback, plan-cache, and incremental-eval variants appear twice
    // each).
    let mut kinds: Vec<&str> = samples.iter().map(|(e, _, _)| e.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 19, "event_samples() must cover every EngineEvent variant");

    for (ev, display, tag) in samples {
        assert_eq!(ev.to_string(), display);
        assert_eq!(ev.kind(), tag);
        let json = ev.to_json();
        assert_eq!(json.get("event").unwrap().as_str(), Some(tag));
        // Round-trip through text: the compact form re-parses to itself.
        assert_eq!(Json::parse(&json.compact()).unwrap(), json);
        // A JSON-lines sink emits the same object plus a seq field.
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.emit(42, &ev);
        let line = String::from_utf8(sink.into_inner()).unwrap();
        let parsed = Json::parse(line.trim()).unwrap();
        assert_eq!(parsed.get("seq").unwrap().as_i64(), Some(42));
        assert_eq!(parsed.get("event").unwrap().as_str(), Some(tag));
    }
}

#[test]
fn rule_accessor_names_the_concerned_rule() {
    for (ev, _, _) in event_samples() {
        match &ev {
            EngineEvent::RuleConsidered { rule }
            | EngineEvent::RuleConditionFalse { rule }
            | EngineEvent::RuleExecuted { rule, .. }
            | EngineEvent::RuleRetriggered { rule }
            | EngineEvent::TransInfoInit { rule }
            | EngineEvent::TransInfoModify { rule }
            | EngineEvent::PlanCache { rule, .. }
            | EngineEvent::IncrementalEval { rule, .. } => {
                assert_eq!(ev.rule(), Some(rule.as_str()))
            }
            EngineEvent::Rollback { by_rule } => assert_eq!(ev.rule(), by_rule.as_deref()),
            _ => assert_eq!(ev.rule(), None),
        }
    }
}

// ----------------------------------------------------------------------
// Ring-buffer sink property: never drops the most recent N events.
// ----------------------------------------------------------------------

#[test]
fn ring_buffer_retains_most_recent_n() {
    check("ring_buffer_retention", 200, 0x0b5e_7ab1e, |rng| {
        let capacity = rng.below(8); // includes 0 = disabled
        let emitted = rng.below(30);
        let mut ring = RingBufferSink::new(capacity);
        for seq in 0..emitted as u64 {
            ring.emit(seq, &EngineEvent::TxnCommit { fired: seq as usize, transitions: 0 });
        }
        let kept: Vec<u64> = ring.entries().map(|(s, _)| *s).collect();
        let expect_len = capacity.min(emitted);
        assert_eq!(kept.len(), expect_len);
        assert_eq!(ring.len(), expect_len);
        // Exactly the suffix [emitted - kept, emitted), in order.
        let expected: Vec<u64> = (emitted.saturating_sub(expect_len)..emitted)
            .map(|i| i as u64)
            .collect();
        assert_eq!(kept, expected, "ring must keep the most recent {expect_len} events");
        for ((seq, ev), want) in ring.entries().zip(&expected) {
            assert_eq!(seq, want);
            assert_eq!(ev, &EngineEvent::TxnCommit { fired: *want as usize, transitions: 0 });
        }
    });
}

// ----------------------------------------------------------------------
// Counter additivity: `plus` is associative with zero identity, `since`
// inverts it, and per-transaction deltas sum to the engine totals.
// ----------------------------------------------------------------------

fn random_exec(rng: &mut Rng) -> ExecStats {
    ExecStats {
        rows_scanned: rng.below(100) as u64,
        rows_matched: rng.below(100) as u64,
        index_lookups: rng.below(10) as u64,
        full_scans: rng.below(10) as u64,
        empty_scans: rng.below(10) as u64,
        subquery_cache_hits: rng.below(10) as u64,
        subquery_cache_misses: rng.below(10) as u64,
        subquery_keyed_builds: rng.below(5) as u64,
        subquery_keyed_probes: rng.below(50) as u64,
        hash_joins: rng.below(5) as u64,
        nested_loop_joins: rng.below(5) as u64,
        pushdown_filtered: rng.below(50) as u64,
        join_combinations: rng.below(100) as u64,
        range_scans: rng.below(10) as u64,
        range_rows_skipped: rng.below(100) as u64,
        sort_elided: rng.below(5) as u64,
        parallel_scans: rng.below(5) as u64,
        parallel_partitions: rng.below(20) as u64,
        serial_fallbacks: rng.below(5) as u64,
        topk_selected: rng.below(5) as u64,
        incr_probe_rows: rng.below(100) as u64,
    }
}

#[test]
fn exec_stats_plus_is_associative_and_since_inverts() {
    check("exec_stats_algebra", 200, 0xadd_171fe, |rng| {
        let (a, b, c) = (random_exec(rng), random_exec(rng), random_exec(rng));
        assert_eq!(a.plus(&b).plus(&c), a.plus(&b.plus(&c)));
        assert_eq!(a.plus(&ExecStats::default()), a);
        assert_eq!(a.plus(&b).since(&a), b);
        assert_eq!(a.since(&ExecStats::default()), a);
    });
}

/// Engine-level additivity over real composed transitions: the engine's
/// cumulative totals equal the base snapshot plus the sum of every
/// per-transaction delta reported in the outcomes.
#[test]
fn txn_stats_deltas_sum_to_engine_totals() {
    check("txn_stats_additive", 25, 0x70_7a15, |rng| {
        let mut sys = RuleSystem::new();
        sys.execute("create table t (k int)").unwrap();
        sys.execute("create table log (k int)").unwrap();
        sys.execute(
            "create rule copy when inserted into t \
             then insert into log (select k from inserted t)",
        )
        .unwrap();
        sys.execute(
            "create rule guard when inserted into t \
             if exists (select * from t where k < 0) then rollback",
        )
        .unwrap();

        let base = sys.full_stats();
        let mut summed = base.clone();
        let txns = 1 + rng.below(6);
        for _ in 0..txns {
            // Mix committing and rolled-back transactions; both report a
            // delta that must participate in the sum.
            let k = rng.range_i64(-3, 9);
            let n = 1 + rng.below(3);
            let rows: Vec<String> = (0..n).map(|i| format!("({})", k + i as i64)).collect();
            let out = sys
                .transaction(&format!("insert into t values {}", rows.join(", ")))
                .unwrap();
            summed = summed.plus(out.stats());
        }
        let total = sys.full_stats();
        assert_eq!(total.engine, summed.engine, "engine counters must be additive");
        assert_eq!(total.storage, summed.storage, "storage counters must be additive");
        // Query counters also accumulate only through transactions here
        // (no standalone query() calls between snapshots).
        assert_eq!(total.exec, summed.exec, "query counters must be additive");
    });
}

#[test]
fn engine_stats_since_drops_idle_rules() {
    let a = EngineStats { rules_considered: 3, ..Default::default() };
    let b = EngineStats { rules_considered: 5, ..a.clone() };
    let d = b.since(&a);
    assert_eq!(d.rules_considered, 2);
    assert!(d.per_rule.is_empty(), "rules with zero delta are omitted");
}

#[test]
fn txn_stats_json_has_three_sections() {
    let j = TxnStats::default().to_json();
    for section in ["engine", "query", "storage"] {
        assert!(j.get(section).is_some(), "TxnStats JSON must have a '{section}' section");
    }
}

// ----------------------------------------------------------------------
// Engine-integrated sinks and counters.
// ----------------------------------------------------------------------

/// A caller-attached sink sees exactly the events the ring buffer sees,
/// with the same sequence numbers.
#[test]
fn attached_sink_mirrors_ring_buffer() {
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Tee(Rc<RefCell<Vec<(u64, EngineEvent)>>>);
    impl EventSink for Tee {
        fn emit(&mut self, seq: u64, event: &EngineEvent) {
            self.0.borrow_mut().push((seq, event.clone()));
        }
    }

    let seen = Rc::new(RefCell::new(Vec::new()));
    let mut sys = RuleSystem::new();
    sys.add_event_sink(Box::new(Tee(seen.clone())));
    sys.execute("create table t (k int)").unwrap();
    sys.transaction("insert into t values (1)").unwrap();
    let ring = sys.recent_event_entries();
    assert!(!ring.is_empty());
    assert_eq!(*seen.borrow(), ring, "attached sink and ring buffer must agree");
}

/// The REPL acceptance shape: after a transaction that fires a rule, the
/// full-stats report has non-zero rule considerations and rows scanned.
#[test]
fn full_stats_nonzero_after_rule_firing() {
    let mut sys = RuleSystem::new();
    sys.execute("create table t (k int)").unwrap();
    sys.execute("create table log (k int)").unwrap();
    sys.execute(
        "create rule copy when inserted into t then insert into log (select k from inserted t)",
    )
    .unwrap();
    let out = sys.transaction("insert into t values (1), (2)").unwrap();
    let stats = out.stats();
    assert!(stats.engine.rules_considered > 0);
    assert_eq!(stats.engine.rules_executed, 1);
    assert!(stats.exec.rows_scanned > 0);
    assert!(stats.storage.tuples_touched() > 0);
    let rt = stats.engine.per_rule.get("copy").expect("per-rule timing for 'copy'");
    assert_eq!(rt.executed, 1);
}

// ----------------------------------------------------------------------
// Differential: both engines report identical storage work on the shared
// B1 audit-trail workload.
// ----------------------------------------------------------------------

const EMP_ROWS: usize = 40;

fn b1_set_engine() -> RuleSystem {
    let mut sys = RuleSystem::new();
    sys.execute("create table emp (name text, emp_no int, salary float, dept_no int)").unwrap();
    sys.execute("create table audit (emp_no int, salary float)").unwrap();
    sys.execute(
        "create rule audit_raise when updated emp.salary \
         then insert into audit (select emp_no, salary from new updated emp.salary)",
    )
    .unwrap();
    let rows: Vec<String> =
        (0..EMP_ROWS).map(|i| format!("('e{i}', {i}, {}.0, {})", 1000 + i, i % 4)).collect();
    sys.transaction_without_rules(&format!("insert into emp values {}", rows.join(", ")))
        .unwrap();
    sys
}

fn b1_instance_engine() -> InstanceEngine {
    let mut eng = InstanceEngine::new();
    eng.create_table("create table emp (name text, emp_no int, salary float, dept_no int)")
        .unwrap();
    eng.create_table("create table audit (emp_no int, salary float)").unwrap();
    eng.create_trigger(
        "audit_raise",
        "emp",
        TriggerEvent::Update(Some("salary".into())),
        None,
        "insert into audit values (new.emp_no, new.salary)",
    )
    .unwrap();
    let rows: Vec<String> =
        (0..EMP_ROWS).map(|i| format!("('e{i}', {i}, {}.0, {})", 1000 + i, i % 4)).collect();
    eng.execute(&format!("insert into emp values {}", rows.join(", "))).unwrap();
    eng
}

/// B1 audit trail, differential: per-statement orchestration differs
/// (one insert-select vs N per-row inserts), but the *tuples touched* in
/// storage must be identical — same updates, same audit rows.
#[test]
fn set_and_instance_touch_identical_tuples_on_audit_workload() {
    let mut sys = b1_set_engine();
    let set_before: StorageStats = sys.database().stats();
    let out = sys.transaction("update emp set salary = salary + 1").unwrap();
    assert!(out.committed());
    let set_delta = sys.database().stats().since(&set_before);

    let mut eng = b1_instance_engine();
    let inst_before: StorageStats = eng.database().stats();
    eng.execute("update emp set salary = salary + 1").unwrap();
    let inst_delta = eng.database().stats().since(&inst_before);

    assert_eq!(
        set_delta.tuples_touched(),
        inst_delta.tuples_touched(),
        "both engines must report identical rows touched on the B1 audit workload"
    );
    assert_eq!(set_delta, inst_delta, "the full storage deltas agree field by field");
    assert_eq!(set_delta.tuples_touched(), (EMP_ROWS * 2) as u64);

    // The logical outcome agrees too.
    assert_eq!(
        sys.query("select count(*) from audit").unwrap().scalar(),
        eng.query("select count(*) from audit").unwrap().scalar(),
    );

    // Where they *differ* is orchestration: the set engine ran one rule
    // firing, the instance engine one trigger firing per row.
    assert_eq!(out.stats().engine.rules_executed, 1);
    assert_eq!(eng.stats().triggers_fired, EMP_ROWS as u64);
}
