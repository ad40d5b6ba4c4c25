//! **B3 — per-rule trans-info maintenance overhead** (§4.3: "associating
//! transition information on a rule-by-rule basis will introduce
//! considerable redundancy — there is substantial need and room for
//! optimization here").
//!
//! `R` bystander rules are defined but never triggered; a transaction
//! updates 200 rows of an unrelated table. Figure 1's algorithm composes
//! the transition into every rule's window, so its cost grows linearly
//! with R — the redundancy the paper calls out. The engine records each
//! transition once in a transaction-wide log and a rule's window is a
//! range of it, so the expected shape is flat.
//!
//! Acceptance bar, asserted in-bench before criterion runs: the median
//! transaction at R=256 costs at most 2x the one at R=0. Per-R medians
//! land in `BENCH_transinfo_overhead.json` (`BENCH_OUT_DIR` overrides the
//! directory).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use setrules_bench::{bystander_system, write_bench_snapshot};
use setrules_json::Json;

const RULES: [usize; 6] = [0, 1, 4, 16, 64, 256];
const ROWS: usize = 200;

/// Wall time of the bystander transaction on a fresh system.
fn transaction_micros(rules: usize) -> f64 {
    let mut sys = bystander_system(rules, ROWS);
    let start = Instant::now();
    let out = sys.transaction("update data set v = v + 1").unwrap();
    let micros = start.elapsed().as_secs_f64() * 1e6;
    assert!(out.fired().is_empty());
    micros
}

fn overhead_snapshot() {
    let runs = if std::env::var("BENCH_FAST").is_ok_and(|v| v == "1") { 15 } else { 41 };
    // Rounds visit every R in turn, so drift in machine speed hits all R
    // alike; the first round only warms up.
    let mut times = vec![Vec::with_capacity(runs); RULES.len()];
    for round in 0..=runs {
        for (i, &rules) in RULES.iter().enumerate() {
            let micros = transaction_micros(rules);
            if round > 0 {
                times[i].push(micros);
            }
        }
    }
    let medians: Vec<(usize, f64)> = RULES
        .iter()
        .zip(&mut times)
        .map(|(&r, t)| {
            t.sort_by(f64::total_cmp);
            (r, t[runs / 2])
        })
        .collect();
    let base = medians[0].1;
    let widest = medians[medians.len() - 1].1;
    let ratio = widest / base;
    assert!(
        ratio <= 2.0,
        "acceptance: {ROWS}-row update with 256 bystander rules must cost at most 2x \
         the rule-free one, got {ratio:.2}x ({widest:.0}us vs {base:.0}us)"
    );
    write_bench_snapshot(
        "transinfo_overhead",
        &Json::obj([
            ("rows", Json::Int(ROWS as i64)),
            ("runs", Json::Int(runs as i64)),
            (
                "median_us_by_rules",
                Json::obj(medians.iter().map(|(r, us)| (r.to_string(), Json::Float(*us)))),
            ),
            ("ratio_256_to_0", Json::Float(ratio)),
        ]),
    );
}

fn bench(c: &mut Criterion) {
    overhead_snapshot();
    let mut g = c.benchmark_group("b3_transinfo_overhead");
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.sample_size(20);
    for &rules in &RULES {
        // Systems are kept until this R is done so their teardown stays
        // out of the timed transaction.
        let mut done = Vec::new();
        g.bench_with_input(BenchmarkId::from_parameter(rules), &rules, |b, &rules| {
            b.iter_batched(
                || bystander_system(rules, ROWS),
                |mut sys| {
                    let out = sys.transaction("update data set v = v + 1").unwrap();
                    assert!(out.fired().is_empty());
                    done.push(sys);
                },
                BatchSize::PerIteration,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
