//! Seeded, closed-loop transaction benchmark for the setrules engine.
//!
//! ```text
//! setrules-perfbench --workload <oltp_mixed|refire_storm|bulk_ingest>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client drives `RuleSystem` through its public API with generated
//! SQL text. A run is a sequence of rounds; each round builds a fresh
//! system from the workload's set-up script, runs the whole transaction
//! stream, then reopens the system (for the durable workload, recovery
//! from the log). Round 0 warms up and is the baseline every later round
//! must reproduce exactly (firing traces, outputs, final image, work
//! counters); rounds are repeated until `--seconds` of rounds have been
//! measured. A reference configuration (serial, full re-scan conditions,
//! in-memory) then replays the stream, or a prefix of it, and must agree.
//!
//! `--trace 0` reports the end-to-end metrics from untraced rounds.
//! `--trace 1` alternates untraced and traced rounds; traced rounds split
//! each transaction into `parse_op_block`, `begin`, `run_op`,
//! `process_rules` and `commit` calls timed by spans, and the per-layer
//! metrics come from those spans and the engine's public counters.
//!
//! Human-readable metric lines go to stdout; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.

mod trace;
mod workload;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use setrules_core::{
    EngineConfig, FiredRule, RuleError, RuleSystem, SyncPolicy, TxnOutcome, TxnStats, WalConfig,
};
use setrules_json::Json;

use trace::Tracer;
use workload::{Class, Workload};

/// End-to-end metrics every workload reports with `--trace 0`, in
/// `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("txn_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("txn_p50_us", "us"),
    ("txn_p95_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics every workload reports with `--trace 1`, in
/// `BENCHMARK.json` order. Times are means per transaction; counts are
/// per transaction of one round.
const PER_LAYER: [(&str, &str); 42] = [
    ("sql.parse_us", "us"),
    ("core.begin_us", "us"),
    ("core.bookkeeping_us", "us"),
    ("core.condition_us", "us"),
    ("core.action_us", "us"),
    ("core.commit_us", "us"),
    ("query.external_us", "us"),
    ("wal.open_us", "us"),
    ("core.rules_considered", "count/txn"),
    ("core.rules_executed", "count/txn"),
    ("core.plan_cache_lookups", "count/txn"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("incr.considerations", "count/txn"),
    ("incr.hit_ratio", "ratio"),
    ("incr.shared_ratio", "ratio"),
    ("incr.delta_rows", "count/txn"),
    ("incr.fallbacks", "count/txn"),
    ("query.rows_scanned", "count/txn"),
    ("query.rows_matched", "count/txn"),
    ("query.match_ratio", "ratio"),
    ("query.index_lookups", "count/txn"),
    ("query.full_scans", "count/txn"),
    ("query.serial_fallbacks", "count/txn"),
    ("query.parallel_partitions", "count/txn"),
    ("query.subquery_lookups", "count/txn"),
    ("query.subquery_cache_hit_ratio", "ratio"),
    ("storage.tuples_written", "count/txn"),
    ("storage.undo_written", "count/txn"),
    ("storage.undo_applied", "count/txn"),
    ("storage.index_ops", "count/txn"),
    ("wal.appends", "count/txn"),
    ("wal.syncs", "count/txn"),
    ("wal.checkpoints", "count/txn"),
    ("wal.bytes", "bytes/txn"),
    ("wal.replayed_records", "count"),
    ("txn.fired", "count/txn"),
    ("txn.vetoed", "count/txn"),
    ("trace.extra_considered", "count/txn"),
    ("trace.txn_us", "us"),
    ("trace.covered_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Minimum traced-transaction wall time the spans must cover.
const MIN_COVERAGE: f64 = 0.90;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let usage = "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

/// Engine thread budget: two workers, or fewer on a smaller machine.
fn thread_budget() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The measured configuration: compiled, incremental conditions, parallel
/// query execution, and for the durable workload a file-backed log with
/// group commit (one `sync_data` per commit) and periodic checkpoints.
fn measured_config(wal: Option<&Path>) -> EngineConfig {
    EngineConfig {
        parallelism: Some(thread_budget()),
        incremental: Some(true),
        durability: wal.map(|p| {
            WalConfig::path(p)
                .with_sync(SyncPolicy::GroupCommit)
                .with_checkpoint_every(workload::INGEST_CHECKPOINT_EVERY)
        }),
        ..EngineConfig::default()
    }
}

/// The simplest configuration: serial, full re-scan conditions, in-memory.
fn reference_config() -> EngineConfig {
    EngineConfig {
        parallelism: Some(1),
        incremental: Some(false),
        ..EngineConfig::default()
    }
}

fn digest(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// What one transaction did, as compared across rounds and against the
/// reference configuration.
enum Outcome {
    Committed {
        fired: Vec<FiredRule>,
        output: Option<String>,
    },
    RolledBack {
        by_rule: String,
        fired: Vec<FiredRule>,
    },
    Failed(String),
}

impl Outcome {
    fn of(result: Result<TxnOutcome, RuleError>) -> Outcome {
        match result {
            Ok(TxnOutcome::Committed { fired, output, .. }) => Outcome::Committed {
                fired,
                output: output.map(|r| format!("{r:?}")),
            },
            Ok(TxnOutcome::RolledBack { by_rule, fired, .. }) => {
                Outcome::RolledBack { by_rule, fired }
            }
            Err(e) => Outcome::Failed(e.to_string()),
        }
    }

    fn signature(&self) -> u64 {
        digest(&match self {
            Outcome::Committed { fired, output } => format!("commit {fired:?} {output:?}"),
            Outcome::RolledBack { by_rule, fired } => format!("rollback {by_rule} {fired:?}"),
            Outcome::Failed(e) => format!("error {e}"),
        })
    }

    fn fired(&self) -> usize {
        match self {
            Outcome::Committed { fired, .. } | Outcome::RolledBack { fired, .. } => fired.len(),
            Outcome::Failed(_) => 0,
        }
    }
}

/// The deterministic work counters of a stats delta: its JSON form with
/// every wall-clock field removed.
fn counters(stats: &TxnStats) -> String {
    fn strip(j: &Json) -> Json {
        match j {
            Json::Object(pairs) => Json::Object(
                pairs
                    .iter()
                    .filter(|(k, _)| !k.ends_with("_nanos"))
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }
    strip(&stats.to_json()).compact()
}

/// Condition and action time inside one `process_rules` call.
fn rule_nanos(stats: &TxnStats) -> (u64, u64) {
    stats.engine.per_rule.values().fold((0, 0), |(c, a), t| {
        (c + t.condition_nanos, a + t.action_nanos)
    })
}

#[derive(Default)]
struct Round {
    traced: bool,
    setup_s: f64,
    /// Per-transaction wall time, in stream order.
    lat_ns: Vec<u64>,
    sigs: Vec<u64>,
    prefix_image: u64,
    final_image: u64,
    counters: String,
    delta: TxnStats,
    statements: u64,
    failed: u64,
    vetoed: u64,
    veto_mismatches: u64,
    fired: u64,
    rows: u64,
    reopen_s: f64,
    replayed: u64,
    log_bytes: u64,
    reopen_matches: bool,
    /// Condition and action time inside `process_rules` calls.
    condition_ns: u64,
    action_ns: u64,
    /// Condition and action time inside `commit` calls, which re-consider
    /// every rule still triggered after `process_rules` (a new pass).
    commit_condition_ns: u64,
    commit_action_ns: u64,
}

impl Round {
    fn busy_s(&self) -> f64 {
        self.lat_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Run one transaction split into the public calls, with a span each.
fn traced_txn(
    sys: &mut RuleSystem,
    sql: &str,
    tr: &mut Tracer,
    id: u64,
    round: &mut Round,
) -> Outcome {
    let root = tr.open(None, id, "txn");
    let s = tr.open(Some(root), id, "sql.parse_op_block");
    let parsed = std::hint::black_box(setrules_sql::parse_op_block(sql));
    tr.close(s);
    let process_nanos: (u64, u64);
    let outcome = 'txn: {
        if let Err(e) = parsed {
            break 'txn Outcome::Failed(e.to_string());
        }
        let s = tr.open(Some(root), id, "core.begin");
        let r = sys.begin();
        tr.close(s);
        if let Err(e) = r {
            break 'txn Outcome::Failed(e.to_string());
        }
        let s = tr.open(Some(root), id, "core.run_op");
        let r = sys.run_op(sql);
        tr.close(s);
        if let Err(e) = r {
            break 'txn Outcome::Failed(e.to_string());
        }
        let s = tr.open(Some(root), id, "core.process_rules");
        let r = sys.process_rules();
        tr.close(s);
        match r {
            Err(e) => break 'txn Outcome::Failed(e.to_string()),
            Ok(report) => {
                process_nanos = rule_nanos(&report.stats);
                round.condition_ns += process_nanos.0;
                round.action_ns += process_nanos.1;
                if let Some(by_rule) = report.rolled_back_by {
                    break 'txn Outcome::RolledBack {
                        by_rule,
                        fired: report.fired,
                    };
                }
            }
        }
        let s = tr.open(Some(root), id, "core.commit");
        let r = sys.commit();
        tr.close(s);
        if let Ok(out) = &r {
            // The outcome's counters cover the whole transaction.
            let (c, a) = rule_nanos(out.stats());
            round.commit_condition_ns += c - process_nanos.0;
            round.commit_action_ns += a - process_nanos.1;
        }
        Outcome::of(r)
    };
    tr.close(root);
    if sys.in_transaction() {
        let _ = sys.rollback();
    }
    outcome
}

/// Build a fresh system, run the whole stream, reopen.
fn run_round(
    w: &Workload,
    wal: Option<&Path>,
    tracer: Option<&mut Tracer>,
    next_txn: &mut u64,
) -> Result<Round, String> {
    if let Some(p) = wal {
        remove_if_present(p)?;
    }
    let mut round = Round {
        traced: tracer.is_some(),
        ..Round::default()
    };
    let start = Instant::now();
    let mut sys = RuleSystem::open(measured_config(wal)).map_err(|e| format!("open: {e}"))?;
    for stmt in &w.setup {
        sys.execute(stmt)
            .map_err(|e| format!("set-up failed: {e}: {stmt}"))?;
    }
    round.setup_s = start.elapsed().as_secs_f64();

    let base = sys.full_stats();
    let mut tracer = tracer;
    round.lat_ns.reserve(w.txns.len());
    for (i, txn) in w.txns.iter().enumerate() {
        let (ns, outcome) = match tracer.as_deref_mut() {
            Some(tr) => {
                *next_txn += 1;
                let t = Instant::now();
                let o = traced_txn(&mut sys, &txn.sql, tr, *next_txn, &mut round);
                (t.elapsed().as_nanos() as u64, o)
            }
            None => {
                let t = Instant::now();
                let r = sys.transaction(&txn.sql);
                (t.elapsed().as_nanos() as u64, Outcome::of(r))
            }
        };
        round.lat_ns.push(ns);
        round.statements += txn.statements;
        round.fired += outcome.fired() as u64;
        match &outcome {
            Outcome::Committed { .. } => round.rows += txn.rows,
            Outcome::RolledBack { by_rule, .. } => {
                round.vetoed += 1;
                if !(txn.expect_veto && by_rule == "cap") {
                    round.veto_mismatches += 1;
                }
            }
            Outcome::Failed(_) => round.failed += 1,
        }
        if txn.expect_veto && !matches!(outcome, Outcome::RolledBack { .. }) {
            round.veto_mismatches += 1;
        }
        round.sigs.push(outcome.signature());
        if i + 1 == w.oracle_prefix {
            round.prefix_image = digest(&sys.database().state_image());
        }
    }
    round.delta = sys.full_stats().since(&base);
    round.counters = counters(&round.delta);
    round.final_image = digest(&sys.database().state_image());
    drop(sys);

    if let Some(p) = wal {
        round.log_bytes = std::fs::metadata(p).map_err(|e| format!("log: {e}"))?.len();
    }
    let span = tracer
        .as_deref_mut()
        .map(|tr| tr.open(None, 0, "core.open"));
    let t = Instant::now();
    let reopened = RuleSystem::open(measured_config(wal)).map_err(|e| format!("reopen: {e}"))?;
    round.reopen_s = t.elapsed().as_secs_f64();
    if let (Some(tr), Some(s)) = (tracer, span) {
        tr.close(s);
    }
    round.replayed = reopened.stats().wal_replayed_records;
    round.reopen_matches =
        wal.is_none() || digest(&reopened.database().state_image()) == round.final_image;
    drop(reopened);
    if let Some(p) = wal {
        remove_if_present(p)?;
    }
    Ok(round)
}

fn remove_if_present(p: &Path) -> Result<(), String> {
    match std::fs::remove_file(p) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", p.display()))
        }
        _ => Ok(()),
    }
}

/// Replay the stream prefix on the reference configuration: per-txn
/// signatures and the image after the prefix.
fn reference_run(w: &Workload) -> Result<(Vec<u64>, u64), String> {
    let mut sys = RuleSystem::open(reference_config()).map_err(|e| format!("open: {e}"))?;
    for stmt in &w.setup {
        sys.execute(stmt)
            .map_err(|e| format!("reference set-up failed: {e}: {stmt}"))?;
    }
    let sigs = w.txns[..w.oracle_prefix]
        .iter()
        .map(|t| Outcome::of(sys.transaction(&t.sql)).signature());
    let sigs = sigs.collect();
    Ok((sigs, digest(&sys.database().state_image())))
}

/// Linear-interpolated quantile of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Each transaction's best wall time over `rounds`, in microseconds and
/// stream order, optionally only for one class. Every round replays the
/// identical stream from the identical start state, so the repetitions of
/// one transaction do the same work; other tenants of a shared machine
/// only ever add time to a repetition, and the minimum removes it.
fn best_us(w: &Workload, rounds: &[&Round], class: Option<Class>) -> Vec<f64> {
    w.txns
        .iter()
        .enumerate()
        .filter(|(_, t)| class.is_none_or(|c| t.class == c))
        .map(|(i, _)| rounds.iter().map(|r| r.lat_ns[i]).min().unwrap_or(0) as f64 / 1e3)
        .collect()
}

/// End-to-end metrics, plus the workload-specific and wall-clock ones
/// printed beside them.
fn end_to_end(
    w: &Workload,
    rounds: &[&Round],
    peak_mb: f64,
) -> (Vec<f64>, Vec<(String, f64, &'static str)>) {
    let best = best_us(w, rounds, None);
    let best_s = best.iter().sum::<f64>() / 1e6;
    let statements: u64 = rounds.iter().map(|r| r.statements).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let values = vec![
        best.len() as f64 / best_s,
        rounds[0].rows as f64 / best_s,
        quantile(&best, 0.50),
        quantile(&best, 0.95),
        median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        peak_mb,
        1.0 - ratio(failed, statements),
    ];
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.lat_ns.iter().map(|ns| *ns as f64 / 1e3))
        .collect();
    let mut extra = vec![
        (
            "failed_frac".to_string(),
            ratio(failed, statements),
            "ratio",
        ),
        ("txn_p99_us".to_string(), quantile(&best, 0.99), "us"),
        ("rounds".to_string(), rounds.len() as f64, "count"),
        ("wall_p50_us".to_string(), quantile(&pooled, 0.50), "us"),
        ("wall_p99_us".to_string(), quantile(&pooled, 0.99), "us"),
    ];
    if w.durable {
        let reopen = rounds
            .iter()
            .map(|r| r.reopen_s)
            .fold(f64::INFINITY, f64::min);
        extra.push(("recovery_s".into(), reopen, "s"));
        let rows = rounds[0].rows.max(1) as f64;
        extra.push((
            "wal_bytes_per_row".into(),
            rounds[0].log_bytes as f64 / rows,
            "bytes",
        ));
    }
    if w.name == "oltp_mixed" {
        for c in [
            Class::Update,
            Class::Insert,
            Class::Cascade,
            Class::Veto,
            Class::Read,
        ] {
            let v = best_us(w, rounds, Some(c));
            extra.push((format!("{}_p50_us", c.name()), quantile(&v, 0.5), "us"));
        }
    }
    (values, extra)
}

/// Per-layer metrics. Times come from the spans of the traced rounds;
/// counts from `baseline`, an untraced round, since the traced split does
/// more work than `transaction` (its `commit` starts a second rule pass).
fn per_layer(
    w: &Workload,
    baseline: &Round,
    traced: &[&Round],
    untraced: &[&Round],
    tracer: &Tracer,
) -> Vec<f64> {
    let times = tracer.self_times();
    let txns = (traced.len() * w.txns.len()) as f64;
    let span_us = |name: &str| times.get(name).map_or(0, |t| t.1) as f64 / 1e3 / txns;
    let sum_us =
        |f: fn(&Round) -> u64| traced.iter().map(|r| f(r)).sum::<u64>() as f64 / 1e3 / txns;
    let (cond, action) = (sum_us(|r| r.condition_ns), sum_us(|r| r.action_ns));
    let (commit_cond, commit_action) = (
        sum_us(|r| r.commit_condition_ns),
        sum_us(|r| r.commit_action_ns),
    );
    let txn_us = span_us("txn");
    let covered_us = txn_us - times.get("txn").map_or(0, |t| t.2) as f64 / 1e3 / txns;
    let opens = times.get("core.open").map_or((0, 0), |t| (t.0, t.1));

    let n = w.txns.len() as f64;
    let (e, x, s) = (
        &baseline.delta.engine,
        &baseline.delta.exec,
        &baseline.delta.storage,
    );
    let per = |v: u64| v as f64 / n;
    let plan_lookups = e.plan_cache_hits + e.plan_cache_misses;
    let incr = e.incr_hits + e.incr_rebuilds + e.incr_fallbacks;
    let subq = x.subquery_cache_hits + x.subquery_cache_misses;
    let extra_considered = traced[0].delta.engine.rules_considered - e.rules_considered;
    let p50 = |rs: &[&Round]| quantile(&best_us(w, rs, None), 0.5);
    vec![
        span_us("sql.parse_op_block"),
        span_us("core.begin"),
        span_us("core.process_rules") - cond - action,
        cond + commit_cond,
        action + commit_action,
        span_us("core.commit") - commit_cond - commit_action,
        span_us("core.run_op") - span_us("sql.parse_op_block"),
        ratio(opens.1, opens.0) / 1e3,
        per(e.rules_considered),
        per(e.rules_executed),
        per(plan_lookups),
        ratio(e.plan_cache_hits, plan_lookups),
        per(incr),
        ratio(e.incr_hits, incr),
        ratio(e.incr_shared_hits, e.incr_hits + e.incr_rebuilds),
        per(e.incr_delta_rows),
        per(e.incr_fallbacks),
        per(x.rows_scanned),
        per(x.rows_matched),
        ratio(x.rows_matched, x.rows_scanned),
        per(x.index_lookups),
        per(x.full_scans),
        per(x.serial_fallbacks),
        per(x.parallel_partitions),
        per(subq),
        ratio(x.subquery_cache_hits, subq),
        per(s.tuples_inserted + s.tuples_deleted + s.tuples_updated),
        per(s.undo_records_written),
        per(s.undo_records_applied),
        per(s.index_maintenance_ops),
        per(e.wal_appends),
        per(e.wal_syncs),
        per(e.checkpoints),
        baseline.log_bytes as f64 / n,
        baseline.replayed as f64,
        per(baseline.fired),
        per(baseline.vetoed),
        per(extra_considered),
        txn_us,
        covered_us,
        if txn_us > 0.0 {
            covered_us / txn_us
        } else {
            0.0
        },
        p50(traced) / p50(untraced) - 1.0,
    ]
}

/// Check that `BENCHMARK.json` lists exactly the workloads and metrics
/// this program reports, so the two cannot drift apart.
fn check_manifest() -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Vec<String> {
        json.get(key)
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str).map(String::from))
            .collect()
    };
    let expect =
        |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    if names("workloads") != workload::NAMES {
        return Err("BENCHMARK.json workloads differ from the generators".into());
    }
    if names("end_to_end") != expect(&END_TO_END) || names("per_layer") != expect(&PER_LAYER) {
        return Err("BENCHMARK.json metrics differ from the reported metrics".into());
    }
    Ok(())
}

fn metrics_json(list: &[(&str, &str)], values: &[f64]) -> Json {
    Json::obj(list.iter().zip(values).map(|((name, unit), v)| {
        (
            *name,
            Json::obj([
                ("value", Json::float(*v)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        )
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run the benchmark; `Ok(false)` when a correctness check failed.
fn run(args: &Args) -> Result<bool, String> {
    check_manifest()?;
    let w = workload::generate(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let wal_path = w.durable.then(|| {
        out_dir.join(format!(
            "{}-seed{}-{}.wal",
            w.name,
            args.seed,
            std::process::id()
        ))
    });
    let wal = wal_path.as_deref();

    let mut tracer = Tracer::new();
    let mut next_txn = 0u64;
    let warmup = run_round(&w, wal, None, &mut next_txn)?;
    let min_rounds = if args.trace { 4 } else { 2 };
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && rounds.len() % 2 == 1;
        let tr = if traced { Some(&mut tracer) } else { None };
        rounds.push(run_round(&w, wal, tr, &mut next_txn)?);
    }
    let peak_mb = peak_rss_mb();
    let (ref_sigs, ref_image) = reference_run(&w)?;

    // Correctness: every round reproduces the warm-up round exactly, the
    // reference configuration agrees with it, vetoes are the expected
    // ones, and the durable image survives a reopen.
    let mut problems = Vec::new();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    for (i, r) in rounds.iter().enumerate() {
        if r.sigs != warmup.sigs || r.final_image != warmup.final_image {
            problems.push(format!(
                "round {} outcomes or final image differ from round 0",
                i + 1
            ));
        }
        let same_kind = if r.traced { traced[0] } else { &warmup };
        if r.counters != same_kind.counters {
            problems.push(format!(
                "round {} work counters differ for the same seed",
                i + 1
            ));
        }
        if r.veto_mismatches > 0 {
            problems.push(format!(
                "round {}: {} unexpected veto outcomes",
                i + 1,
                r.veto_mismatches
            ));
        }
        if !r.reopen_matches {
            problems.push(format!(
                "round {}: reopened image differs from the live one",
                i + 1
            ));
        }
    }
    if ref_sigs[..] != warmup.sigs[..w.oracle_prefix] || ref_image != warmup.prefix_image {
        problems.push("reference configuration disagrees on outcomes or image".into());
    }

    let attempted: u64 = rounds.iter().map(|r| r.statements).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    println!(
        "# {} seed={} trace={} threads={} rounds={} (+1 warm-up) txns/round={} \
         oracle_prefix={} closed-loop clients=1",
        w.name,
        args.seed,
        u8::from(args.trace),
        thread_budget(),
        rounds.len(),
        w.txns.len(),
        w.oracle_prefix
    );
    for (i, r) in std::iter::once(&warmup).chain(&rounds).enumerate() {
        let lat: Vec<f64> = r.lat_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
        println!(
            "round {i}{}: setup_s={:.6} busy_s={:.4} p50_us={:.1} p99_us={:.1} reopen_s={:.6}",
            if r.traced { " (traced)" } else { "" },
            r.setup_s,
            r.busy_s(),
            quantile(&lat, 0.5),
            quantile(&lat, 0.99),
            r.reopen_s
        );
    }
    let metrics = if args.trace {
        let values = per_layer(&w, &warmup, &traced, &untraced, &tracer);
        for (name, st) in tracer.self_times() {
            println!(
                "span {name}: calls={} total_ms={:.3} self_ms={:.3}",
                st.0,
                st.1 as f64 / 1e6,
                st.2 as f64 / 1e6
            );
        }
        let coverage = values[PER_LAYER
            .iter()
            .position(|m| m.0 == "trace.coverage")
            .unwrap()];
        if coverage < MIN_COVERAGE {
            problems.push(format!("spans cover {coverage:.3} of traced txn wall time"));
        }
        let spans = out_dir.join(format!("spans-{}-seed{}.csv", w.name, args.seed));
        tracer
            .write_csv(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("# spans written to {}", spans.display());
        for ((name, unit), v) in PER_LAYER.iter().zip(&values) {
            println!("metric {name} = {v} {unit}");
        }
        metrics_json(&PER_LAYER, &values)
    } else {
        let (values, extra) = end_to_end(&w, &untraced, peak_mb);
        for ((name, unit), v) in END_TO_END.iter().zip(&values) {
            println!("metric {name} = {v} {unit}");
        }
        for (name, v, unit) in &extra {
            println!("metric {name} = {v} {unit}");
        }
        metrics_json(&END_TO_END, &values)
    };
    for p in &problems {
        println!("# CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.compact());
    Ok(correct)
}
