//! **B17 — widened incremental evaluation: join memories, aggregate
//! accumulators, and shared delta cursors.**
//!
//! Two refire storms over the shapes PR 10 added to the incremental
//! evaluator (B15 covers the single-view exists/count shapes):
//!
//! * **Join storm** — watcher conditions are two-view equality joins
//!   (`old updated big o, new updated big n where o.k = n.k and ...`).
//!   Re-scan pays a full hash join per consideration; the incremental
//!   engine builds each rule's two-sided join memory once and repairs it
//!   from the (big-free) tick deltas.
//! * **Shared aggregate storm** — 60 watchers hold `sum`/`avg`/`min`/
//!   `max` accumulator thresholds over the *same* window. All sit at the
//!   same delta cursor between driver firings, so the first repair each
//!   round asks the transition log for the suffix and the rest share it
//!   (`incr_shared_hits`).
//!
//! Acceptance bars, asserted in-bench before criterion runs:
//!
//! * **semantics are evaluator-free**: identical firing traces and
//!   byte-identical `state_image()` on both engines, same consideration
//!   schedule and condition verdicts;
//! * **the widened shapes stay on the fast path**: zero fallbacks in
//!   both storms (`incr_fallbacks == 0`), repairs dominate rebuilds,
//!   zero incremental activity on the re-scan engine;
//! * **the shared cursor actually fans out**: `incr_shared_hits`
//!   covers most of the aggregate storm's reconsiderations;
//! * **>= 10x wall-clock speedup** on both storm transactions.
//!
//! Counters land in `BENCH_incremental_wide.json` (`BENCH_OUT_DIR`
//! overrides the directory).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use setrules_bench::write_bench_snapshot;
use setrules_core::{EngineConfig, RuleSystem};
use setrules_json::Json;

const JOIN_ROWS: usize = 4_000;
const JOIN_WATCHERS: usize = 20;
const JOIN_DEPTH: i64 = 100;

const AGG_ROWS: usize = 8_000;
const AGG_WATCHERS: usize = 60;
const AGG_DEPTH: i64 = 150;

/// Watched table, cascade driver, firing sink — B15's skeleton. Watchers
/// are created before the driver so the default partial-order selection
/// reconsiders every watcher between driver firings.
fn skeleton(incremental: bool, base_rows: usize) -> RuleSystem {
    let mut sys = RuleSystem::with_config(EngineConfig {
        incremental: Some(incremental),
        ..Default::default()
    });
    sys.execute("create table big (k int, v int)").unwrap();
    sys.execute("create table tick (k int)").unwrap();
    sys.execute("create table sink (r int)").unwrap();
    for chunk in (0..base_rows).collect::<Vec<_>>().chunks(500) {
        let rows: Vec<String> = chunk.iter().map(|k| format!("({k}, {})", k % 97)).collect();
        sys.execute(&format!("insert into big values {}", rows.join(", "))).unwrap();
    }
    sys
}

fn add_driver(sys: &mut RuleSystem) {
    sys.execute(
        "create rule driver when inserted into tick \
         if exists (select * from inserted tick where k > 0) \
         then insert into tick (select k - 1 from inserted tick where k > 0)",
    )
    .unwrap();
}

/// Join storm: every watcher joins the old and new sides of the update
/// window on the key column. Always false (`v` never goes negative), but
/// deciding that by re-scan means a full hash join per consideration.
/// Distinct constants keep each rule's plan and join memory independent.
fn build_join(incremental: bool, base_rows: usize, watchers: usize) -> RuleSystem {
    let mut sys = skeleton(incremental, base_rows);
    for i in 0..watchers {
        sys.execute(&format!(
            "create rule w{i} when updated big \
             if exists (select * from old updated big o, new updated big n \
                        where o.k = n.k and n.v < {}) \
             then insert into sink values ({i})",
            -(i as i64) - 1
        ))
        .unwrap();
    }
    add_driver(&mut sys);
    sys
}

/// Shared aggregate storm: all watchers hold accumulator thresholds over
/// the same `new updated big` window — `sum` and `avg` as running
/// `(sum, count)` pairs, `min` and `max` as ordered multisets. Every
/// threshold is unsatisfiable, so all watchers evaluate false at the same
/// cursor between driver firings and the composed delta fans out.
fn build_agg(incremental: bool, base_rows: usize, watchers: usize) -> RuleSystem {
    let mut sys = skeleton(incremental, base_rows);
    for i in 0..watchers {
        let cond = match i % 4 {
            // v stays in [0, 97 + depth], so these never trip.
            0 => format!("(select sum(v) from new updated big) > {}", 100_000_000 + i),
            1 => format!("(select avg(v) from new updated big) < {}", -(i as i64) - 1),
            2 => format!("(select min(v) from new updated big) < {}", -(i as i64) - 1),
            _ => format!("(select max(v) from new updated big) > {}", 100_000 + i),
        };
        sys.execute(&format!(
            "create rule w{i} when updated big if {cond} then insert into sink values ({i})"
        ))
        .unwrap();
    }
    add_driver(&mut sys);
    sys
}

fn storm(depth: i64) -> String {
    format!("update big set v = v + 1; insert into tick values ({depth})")
}

/// Run one storm on both engines and enforce the shared acceptance bars.
/// Returns (incremental ms, re-scan ms, incremental stats as JSON pairs).
fn run_storm(
    label: &str,
    build: impl Fn(bool) -> RuleSystem,
    depth: i64,
    watchers: usize,
) -> (f64, f64, setrules_core::EngineStats) {
    let mut inc = build(true);
    let mut scan = build(false);

    let start = Instant::now();
    let a = inc.transaction(&storm(depth)).unwrap();
    let inc_millis = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let b = scan.transaction(&storm(depth)).unwrap();
    let scan_millis = start.elapsed().as_secs_f64() * 1e3;

    assert_eq!(a.fired(), b.fired(), "[{label}] evaluators must fire the same rules in order");
    assert_eq!(a.fired().len(), depth as usize, "[{label}] driver cascade must run to depth");
    assert_eq!(
        inc.database().state_image(),
        scan.database().state_image(),
        "[{label}] incremental evaluation must not change the committed image"
    );
    let (si, ss) = (inc.stats().clone(), scan.stats());
    assert_eq!(si.rules_considered, ss.rules_considered, "[{label}] same consideration schedule");
    assert_eq!(si.conditions_false, ss.conditions_false, "[{label}] same condition verdicts");

    assert!(
        si.incr_rebuilds >= watchers as u64,
        "[{label}] one rebuild per watcher, got {}",
        si.incr_rebuilds
    );
    assert!(
        si.incr_hits >= (watchers as u64) * (depth as u64 - 1),
        "[{label}] reconsiderations must repair, not rebuild: {} hits",
        si.incr_hits
    );
    assert_eq!(
        si.incr_fallbacks, 0,
        "[{label}] every storm condition must stay on the incremental path: {:?}",
        si.incr_fallback_reasons
    );
    assert_eq!(
        (ss.incr_hits, ss.incr_rebuilds, ss.incr_fallbacks, ss.incr_shared_hits),
        (0, 0, 0, 0),
        "[{label}] re-scan engine must not run incremental evaluation"
    );

    let speedup = scan_millis / inc_millis;
    assert!(
        speedup >= 10.0,
        "[{label}] acceptance: incremental evaluation must be >=10x faster than \
         re-scan ({watchers} watchers x depth {depth}), got {speedup:.1}x \
         ({inc_millis:.1}ms vs {scan_millis:.1}ms)"
    );

    (inc_millis, scan_millis, si)
}

fn wide_snapshot() {
    let (join_inc, join_scan, join_stats) = run_storm(
        "join",
        |incremental| build_join(incremental, JOIN_ROWS, JOIN_WATCHERS),
        JOIN_DEPTH,
        JOIN_WATCHERS,
    );
    let (agg_inc, agg_scan, agg_stats) = run_storm(
        "agg",
        |incremental| build_agg(incremental, AGG_ROWS, AGG_WATCHERS),
        AGG_DEPTH,
        AGG_WATCHERS,
    );

    // The shared cursor must fan out: between driver firings all 60
    // aggregate watchers repair from the same log position, so each round
    // shares one log suffix among all but the first.
    let reconsiderations = (AGG_WATCHERS as u64) * (AGG_DEPTH as u64 - 1);
    assert!(
        agg_stats.incr_shared_hits >= reconsiderations / 2,
        "shared delta compositions must cover most reconsiderations: \
         {} shared of {} repairs",
        agg_stats.incr_shared_hits,
        agg_stats.incr_hits
    );

    write_bench_snapshot(
        "incremental_wide",
        &Json::obj([
            ("join_rows", Json::Int(JOIN_ROWS as i64)),
            ("join_watchers", Json::Int(JOIN_WATCHERS as i64)),
            ("join_depth", Json::Int(JOIN_DEPTH)),
            ("join_incremental_millis", Json::Float(join_inc)),
            ("join_rescan_millis", Json::Float(join_scan)),
            ("join_speedup", Json::Float(join_scan / join_inc)),
            ("join_incr_hits", Json::Int(join_stats.incr_hits as i64)),
            ("join_incr_rebuilds", Json::Int(join_stats.incr_rebuilds as i64)),
            ("join_incr_fallbacks", Json::Int(join_stats.incr_fallbacks as i64)),
            ("agg_rows", Json::Int(AGG_ROWS as i64)),
            ("agg_watchers", Json::Int(AGG_WATCHERS as i64)),
            ("agg_depth", Json::Int(AGG_DEPTH)),
            ("agg_incremental_millis", Json::Float(agg_inc)),
            ("agg_rescan_millis", Json::Float(agg_scan)),
            ("agg_speedup", Json::Float(agg_scan / agg_inc)),
            ("agg_incr_hits", Json::Int(agg_stats.incr_hits as i64)),
            ("agg_incr_rebuilds", Json::Int(agg_stats.incr_rebuilds as i64)),
            ("agg_incr_fallbacks", Json::Int(agg_stats.incr_fallbacks as i64)),
            ("agg_incr_shared_hits", Json::Int(agg_stats.incr_shared_hits as i64)),
            ("agg_incr_delta_rows", Json::Int(agg_stats.incr_delta_rows as i64)),
        ]),
    );
}

fn bench(c: &mut Criterion) {
    wide_snapshot();

    // Storm-transaction latency per evaluator on smaller instances (the
    // acceptance-scale comparison already ran in the snapshot above).
    let mut g = c.benchmark_group("b17_join_storm");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.sample_size(10);
    for (label, incremental) in [("incremental", true), ("rescan", false)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &incremental, |b, &incremental| {
            b.iter_batched(
                || build_join(incremental, 1_000, 8),
                |mut sys| {
                    sys.transaction(&storm(10)).unwrap();
                    sys
                },
                BatchSize::PerIteration,
            );
        });
    }
    g.finish();

    let mut g = c.benchmark_group("b17_shared_agg_storm");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.sample_size(10);
    for (label, incremental) in [("incremental", true), ("rescan", false)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &incremental, |b, &incremental| {
            b.iter_batched(
                || build_agg(incremental, 2_000, 20),
                |mut sys| {
                    sys.transaction(&storm(10)).unwrap();
                    sys
                },
                BatchSize::PerIteration,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
