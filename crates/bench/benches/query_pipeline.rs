//! **B11 — compile-once query pipeline** (ablation for the expression
//! compiler, the N-way join planner, and the per-rule plan cache).
//!
//! Two workloads, each run under `ExecMode::Compiled` (default) and
//! `ExecMode::Interpreted` (the pre-pipeline executor):
//!
//! * **three-way join**: `emp (200) ⋈ dept (40) ⋈ proj (10)` on int keys.
//!   The interpreted executor hashes only 2-item joins and falls back to
//!   the full odometer for three items (200·40·10 = 80 000 predicate
//!   evaluations); the compiled executor plans a greedy hash-join chain,
//!   so `join_combinations` collapses to roughly the number of matches.
//!   The snapshot records the per-row-work ratio — the acceptance bar is
//!   ≥ 2×, the observed ratio is orders of magnitude.
//! * **rule refire**: a countdown rule that fires ~30 times per
//!   transaction. Every consideration after the first hits the per-rule
//!   plan cache, so condition/action expressions compile once, not per
//!   firing; the snapshot records the hit/miss counters.
//! * **correlated set**: `update acct set n = (select d from delta where
//!   delta.k = acct.k)` over N = 1000 outer × M ∈ {10, 200} inner rows.
//!   The compiled executor builds the equality-correlated subquery once
//!   per statement and probes it per outer row, so the bench asserts that
//!   per-outer-row time stays flat in M (≤ 2× from M = 10 to M = 200)
//!   and that the inner table is scanned once; the interpreted executor
//!   re-runs the subquery per outer row (N·M rows scanned).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use setrules_bench::write_bench_snapshot;
use setrules_core::{EngineConfig, ExecMode, RuleSystem};
use setrules_json::Json;

const EMPS: usize = 200;
const DEPTS: usize = 40;
const PROJS: usize = 10;

const JOIN_QUERY: &str = "select count(*) from emp, dept, proj \
     where emp.dept_no = dept.dept_no and dept.proj_no = proj.proj_no";

fn join_system(mode: ExecMode) -> RuleSystem {
    let mut sys = RuleSystem::with_config(EngineConfig { exec_mode: mode, ..Default::default() });
    sys.execute("create table emp (emp_no int, dept_no int)").unwrap();
    sys.execute("create table dept (dept_no int, proj_no int)").unwrap();
    sys.execute("create table proj (proj_no int, budget int)").unwrap();
    let rows: Vec<String> = (0..EMPS).map(|i| format!("({i}, {})", i % DEPTS)).collect();
    sys.transaction_without_rules(&format!("insert into emp values {}", rows.join(", "))).unwrap();
    let rows: Vec<String> = (0..DEPTS).map(|d| format!("({d}, {})", d % PROJS)).collect();
    sys.transaction_without_rules(&format!("insert into dept values {}", rows.join(", "))).unwrap();
    let rows: Vec<String> = (0..PROJS).map(|p| format!("({p}, {p})")).collect();
    sys.transaction_without_rules(&format!("insert into proj values {}", rows.join(", "))).unwrap();
    sys
}

fn refire_system(mode: ExecMode) -> RuleSystem {
    let mut sys = RuleSystem::with_config(EngineConfig { exec_mode: mode, ..Default::default() });
    sys.execute("create table q (v int)").unwrap();
    sys.execute(
        "create rule countdown when inserted into q \
         if exists (select * from inserted q where v > 0) \
         then insert into q (select v - 1 from inserted q where v > 0)",
    )
    .unwrap();
    sys
}

const OUTER: usize = 1000;
const INNER: [usize; 2] = [10, 200];

const SET_QUERY: &str = "update acct set n = (select d from delta where delta.k = acct.k)";

/// `acct` (N outer rows, keys 0..N) and `delta` (M inner rows with unique
/// keys 0..M); re-running `SET_QUERY` is idempotent.
fn correlated_system(mode: ExecMode, inner: usize) -> RuleSystem {
    let mut sys = RuleSystem::with_config(EngineConfig { exec_mode: mode, ..Default::default() });
    sys.execute("create table acct (k int, n int)").unwrap();
    sys.execute("create table delta (k int, d int)").unwrap();
    let rows: Vec<String> = (0..OUTER).map(|k| format!("({k}, 0)")).collect();
    sys.transaction_without_rules(&format!("insert into acct values {}", rows.join(", "))).unwrap();
    let rows: Vec<String> = (0..inner).map(|k| format!("({k}, {})", k % 7)).collect();
    sys.transaction_without_rules(&format!("insert into delta values {}", rows.join(", "))).unwrap();
    sys
}

/// Per-outer-row cost of `SET_QUERY` in microseconds: the median over
/// `reps` runs, interleaved across the two inner sizes so host drift hits
/// both alike.
fn correlated_per_row_us(mode: ExecMode, reps: usize) -> [f64; 2] {
    let mut systems = INNER.map(|m| correlated_system(mode, m));
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..reps {
        for (sys, out) in systems.iter_mut().zip(samples.iter_mut()) {
            let start = Instant::now();
            sys.execute(SET_QUERY).unwrap();
            out.push(start.elapsed().as_secs_f64() * 1e6 / OUTER as f64);
        }
    }
    samples.map(|mut s| {
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    })
}

/// The correlated-set acceptance: one keyed build scanning `delta` once,
/// one probe per outer row, and per-outer-row time flat in M.
fn correlated_snapshot() -> Json {
    let mut per_mode = Vec::new();
    for (label, mode) in [("compiled", ExecMode::Compiled), ("interpreted", ExecMode::Interpreted)] {
        let mut counters = Vec::new();
        for m in INNER {
            let mut sys = correlated_system(mode, m);
            let base = sys.exec_stats();
            sys.execute(SET_QUERY).unwrap();
            let st = sys.exec_stats().since(&base);
            if mode == ExecMode::Compiled {
                assert_eq!(st.subquery_keyed_builds, 1, "acceptance: one keyed build per statement");
                assert_eq!(st.subquery_keyed_probes, OUTER as u64);
                assert_eq!(st.rows_scanned, (OUTER + m) as u64, "acceptance: delta scanned once");
            }
            counters.push(Json::obj([
                ("inner_rows", Json::Int(m as i64)),
                ("rows_scanned", Json::Int(st.rows_scanned as i64)),
                ("keyed_builds", Json::Int(st.subquery_keyed_builds as i64)),
                ("keyed_probes", Json::Int(st.subquery_keyed_probes as i64)),
            ]));
        }
        let reps = if mode == ExecMode::Compiled { 41 } else { 5 };
        let [small, large] = correlated_per_row_us(mode, reps);
        if mode == ExecMode::Compiled {
            assert!(
                large <= 2.0 * small,
                "acceptance: per-outer-row time must stay flat in M \
                 ({small:.2} us at M={}, {large:.2} us at M={})",
                INNER[0],
                INNER[1]
            );
        }
        per_mode.push((
            label,
            Json::obj([
                ("counters", Json::Array(counters)),
                ("per_outer_row_us", Json::Array(vec![Json::Float(small), Json::Float(large)])),
                ("growth", Json::Float(large / small)),
            ]),
        ));
    }
    Json::obj([
        ("outer_rows", Json::Int(OUTER as i64)),
        ("inner_rows", Json::Array(INNER.map(|m| Json::Int(m as i64)).to_vec())),
        ("compiled", per_mode[0].1.clone()),
        ("interpreted", per_mode[1].1.clone()),
    ])
}

/// One instrumented pass per mode: the work counters behind the
/// wall-clock numbers, written to `BENCH_query_pipeline.json`.
fn pipeline_snapshot() {
    let mode_json = |mode: ExecMode| {
        // Three-way join: per-query exec counters plus wall time.
        let sys = join_system(mode);
        let base = sys.exec_stats();
        let rel = sys.query(JOIN_QUERY).unwrap();
        assert_eq!(rel.scalar().unwrap().as_i64(), Some(EMPS as i64));
        let join = sys.exec_stats().since(&base);
        let reps = 20u32;
        let start = Instant::now();
        for _ in 0..reps {
            sys.query(JOIN_QUERY).unwrap();
        }
        let join_millis = start.elapsed().as_secs_f64() * 1e3 / reps as f64;

        // Rule refire: engine counters for one 30-firing transaction.
        let mut sys = refire_system(mode);
        let start = Instant::now();
        let out = sys.transaction("insert into q values (30)").unwrap();
        let refire_millis = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(out.fired().len(), 30);
        (
            Json::obj([
                ("millis", Json::Float(join_millis)),
                ("join_combinations", Json::Int(join.join_combinations as i64)),
                ("rows_scanned", Json::Int(join.rows_scanned as i64)),
            ]),
            Json::obj([
                ("millis", Json::Float(refire_millis)),
                ("firings", Json::Int(out.fired().len() as i64)),
                ("plan_cache_hits", Json::Int(sys.stats().plan_cache_hits as i64)),
                ("plan_cache_misses", Json::Int(sys.stats().plan_cache_misses as i64)),
            ]),
        )
    };
    let (join_c, refire_c) = mode_json(ExecMode::Compiled);
    let (join_i, refire_i) = mode_json(ExecMode::Interpreted);

    let combos = |j: &Json| j.get("join_combinations").unwrap().as_i64().unwrap() as f64;
    let ratio = combos(&join_i) / combos(&join_c).max(1.0);
    assert!(
        ratio >= 2.0,
        "acceptance: compiled 3-way join must do ≥2x less per-row work (got {ratio:.1}x)"
    );
    let hits = refire_c.get("plan_cache_hits").unwrap().as_i64().unwrap();
    assert!(hits > 0, "acceptance: repeated rule processing must hit the plan cache");

    write_bench_snapshot(
        "query_pipeline",
        &Json::obj([
            (
                "three_way_join",
                Json::obj([
                    (
                        "rows",
                        Json::Array(
                            [EMPS, DEPTS, PROJS].map(|n| Json::Int(n as i64)).to_vec(),
                        ),
                    ),
                    ("compiled", join_c),
                    ("interpreted", join_i),
                    ("combination_ratio", Json::Float(ratio)),
                ]),
            ),
            (
                "rule_refire",
                Json::obj([("compiled", refire_c), ("interpreted", refire_i)]),
            ),
            ("correlated_set", correlated_snapshot()),
        ]),
    );
}

fn bench(c: &mut Criterion) {
    pipeline_snapshot();

    let mut g = c.benchmark_group("b11_three_way_join");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.sample_size(10);
    for (label, mode) in [("compiled", ExecMode::Compiled), ("interpreted", ExecMode::Interpreted)]
    {
        let sys = join_system(mode);
        g.bench_with_input(BenchmarkId::new(label, EMPS), &sys, |b, sys| {
            b.iter(|| {
                let rel = sys.query(JOIN_QUERY).unwrap();
                assert_eq!(rel.scalar().unwrap().as_i64(), Some(EMPS as i64));
            });
        });
    }
    g.finish();

    let mut g = c.benchmark_group("b11_rule_refire");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.sample_size(10);
    for (label, mode) in [("compiled", ExecMode::Compiled), ("interpreted", ExecMode::Interpreted)]
    {
        g.bench_with_input(BenchmarkId::new(label, 30), &mode, |b, &mode| {
            b.iter_batched(
                || refire_system(mode),
                |mut sys| {
                    let out = sys.transaction("insert into q values (30)").unwrap();
                    assert_eq!(out.fired().len(), 30);
                    sys
                },
                BatchSize::PerIteration,
            );
        });
    }
    g.finish();

    let mut g = c.benchmark_group("b11_correlated_set");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.sample_size(10);
    for (label, mode) in [("compiled", ExecMode::Compiled), ("interpreted", ExecMode::Interpreted)]
    {
        for m in INNER {
            let mut sys = correlated_system(mode, m);
            g.bench_function(format!("{label}/{OUTER}x{m}"), |b| {
                b.iter(|| sys.execute(SET_QUERY).unwrap());
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
