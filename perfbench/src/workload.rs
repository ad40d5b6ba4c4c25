//! Seeded workload generators. Each workload is plain SQL text: a set-up
//! script (schema, base data, indexes, rules) and a stream of operation
//! blocks, one per transaction. The engine never sees anything else.

use setrules_testkit::Rng;

/// Statement class of one transaction; `oltp_mixed` reports a latency
/// median per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Point salary update (audited, under the cap).
    Update,
    /// Insert of 1-5 employees.
    Insert,
    /// Department delete + reinsert: fires the Example 3.1 cascade.
    Cascade,
    /// Salary update over the cap: the `cap` rule rolls it back.
    Veto,
    /// Per-department aggregate read.
    Read,
    /// Whole-table update seeding a self-triggering `chain` cascade.
    Storm,
    /// Batch insert of events.
    Ingest,
}

impl Class {
    /// Metric-name stem for the per-class latency median.
    pub fn name(self) -> &'static str {
        match self {
            Class::Update => "update",
            Class::Insert => "insert",
            Class::Cascade => "cascade",
            Class::Veto => "veto",
            Class::Read => "read",
            Class::Storm => "storm",
            Class::Ingest => "ingest",
        }
    }
}

/// One transaction of the stream.
#[derive(Debug, Clone)]
pub struct Txn {
    /// The `;`-separated operation block.
    pub sql: String,
    /// Its class.
    pub class: Class,
    /// Statements in the block.
    pub statements: u64,
    /// Rows the block's own statements write if it commits.
    pub rows: u64,
    /// Whether the generator expects the `cap` rule to veto it.
    pub expect_veto: bool,
}

/// A generated workload.
pub struct Workload {
    /// Workload name, as given on the command line.
    pub name: &'static str,
    /// Set-up statements, run in order with `RuleSystem::execute`.
    pub setup: Vec<String>,
    /// The measured transaction stream.
    pub txns: Vec<Txn>,
    /// Whether the workload runs on a file-backed write-ahead log.
    pub durable: bool,
    /// How many leading transactions the reference configuration replays.
    pub oracle_prefix: usize,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["oltp_mixed", "refire_storm", "bulk_ingest"];

/// Generate the named workload from `seed`.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "oltp_mixed" => Some(oltp_mixed(seed)),
        "refire_storm" => Some(refire_storm(seed)),
        "bulk_ingest" => Some(bulk_ingest(seed)),
        _ => None,
    }
}

/// Append `insert into <table> values ...` statements of at most 500 rows.
fn load(setup: &mut Vec<String>, table: &str, rows: &[String]) {
    for chunk in rows.chunks(500) {
        setup.push(format!("insert into {table} values {}", chunk.join(", ")));
    }
}

const OLTP_EMPS: usize = 5_000;
const OLTP_DEPTS: usize = 500;
const OLTP_BYSTANDERS: usize = 64;
const OLTP_SIDE_TABLES: usize = 16;
const OLTP_TXNS: usize = 1_500;
const SALARY_CAP: f64 = 1_000_000.0;

/// Small OLTP transactions over `emp`/`dept` with the Example 3.1 cascade,
/// a salary-cap veto, an audit insert-select and 64 bystander rules.
fn oltp_mixed(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let mut setup = vec![
        "create table emp (name text, emp_no int, salary float, dept_no int)".to_string(),
        "create table dept (dept_no int, mgr_no int)".to_string(),
        "create table audit (emp_no int, salary float)".to_string(),
    ];
    for s in 0..OLTP_SIDE_TABLES {
        setup.push(format!("create table side{s} (k int)"));
    }
    // Live employees and their departments: the generator's model of the
    // database, so every update targets a live row and every veto is known.
    let mut live: Vec<i64> = Vec::with_capacity(OLTP_EMPS * 2);
    let mut dept_of: Vec<i64> = Vec::with_capacity(OLTP_EMPS * 2);
    let mut emps = Vec::with_capacity(OLTP_EMPS);
    for e in 0..OLTP_EMPS as i64 {
        let dept = e % OLTP_DEPTS as i64;
        let salary = rng.range_i64(40_000, 120_000);
        emps.push(format!("('e{e}', {e}, {salary}.0, {dept})"));
        live.push(e);
        dept_of.push(dept);
    }
    load(&mut setup, "emp", &emps);
    let depts: Vec<String> = (0..OLTP_DEPTS)
        .map(|d| format!("({d}, {})", rng.below(OLTP_EMPS)))
        .collect();
    load(&mut setup, "dept", &depts);
    setup.push("create index on emp (emp_no) using hash".into());
    setup.push("create index on emp (dept_no) using hash".into());
    setup.push("create index on dept (dept_no) using hash".into());
    setup.push(
        "create rule cascade when deleted from dept \
         then delete from emp where dept_no in (select dept_no from deleted dept)"
            .into(),
    );
    setup.push(format!(
        "create rule cap when updated emp.salary \
         if exists (select * from new updated emp.salary where salary > {SALARY_CAP:.1}) \
         then rollback"
    ));
    setup.push(
        "create rule audit when updated emp.salary \
         then insert into audit (select emp_no, salary from new updated emp.salary)"
            .into(),
    );
    for i in 0..OLTP_BYSTANDERS {
        let s = i % OLTP_SIDE_TABLES;
        setup.push(format!(
            "create rule bystander{i} when inserted into side{s} then delete from side{s}"
        ));
    }

    // The mix is exact (50/20/8/7/15 percent of the stream), only its order
    // is random, so every seed does the same amount of each kind of work.
    let mut mix = Vec::with_capacity(OLTP_TXNS);
    for (class, percent) in [
        (Class::Update, 50),
        (Class::Insert, 20),
        (Class::Cascade, 8),
        (Class::Veto, 7),
        (Class::Read, 15),
    ] {
        mix.extend(std::iter::repeat_n(class, OLTP_TXNS * percent / 100));
    }
    for i in (1..mix.len()).rev() {
        mix.swap(i, rng.below(i + 1));
    }
    let mut next_emp = OLTP_EMPS as i64;
    let mut txns = Vec::with_capacity(OLTP_TXNS);
    for class in mix {
        let txn = match class {
            Class::Update => {
                let e = live[rng.below(live.len())];
                let raise = rng.range_i64(1, 500);
                Txn {
                    sql: format!("update emp set salary = salary + {raise}.0 where emp_no = {e}"),
                    class: Class::Update,
                    statements: 1,
                    rows: 1,
                    expect_veto: false,
                }
            }
            Class::Insert => {
                let n = rng.range_i64(1, 5) as usize;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let dept = rng.below(OLTP_DEPTS) as i64;
                    let salary = rng.range_i64(40_000, 120_000);
                    rows.push(format!("('n{next_emp}', {next_emp}, {salary}.0, {dept})"));
                    live.push(next_emp);
                    dept_of.push(dept);
                    next_emp += 1;
                }
                Txn {
                    sql: format!("insert into emp values {}", rows.join(", ")),
                    class: Class::Insert,
                    statements: 1,
                    rows: n as u64,
                    expect_veto: false,
                }
            }
            Class::Cascade => {
                let dept = rng.below(OLTP_DEPTS) as i64;
                let mgr = rng.below(OLTP_EMPS);
                // The cascade removes every employee of the department.
                let mut i = 0;
                while i < live.len() {
                    if dept_of[i] == dept {
                        live.swap_remove(i);
                        dept_of.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
                Txn {
                sql: format!(
                    "delete from dept where dept_no = {dept}; insert into dept values ({dept}, {mgr})"
                ),
                class: Class::Cascade,
                statements: 2,
                rows: 2,
                expect_veto: false,
            }
            }
            Class::Veto => {
                let e = live[rng.below(live.len())];
                let salary = SALARY_CAP as i64 + rng.range_i64(1, 1_000_000);
                Txn {
                    sql: format!("update emp set salary = {salary}.0 where emp_no = {e}"),
                    class: Class::Veto,
                    statements: 1,
                    rows: 0,
                    expect_veto: true,
                }
            }
            // The rest of the mix: per-department aggregate reads.
            _ => {
                let dept = rng.below(OLTP_DEPTS);
                Txn {
                    sql: format!(
                        "select dept_no, count(*), sum(salary), max(salary) from emp \
                     where dept_no = {dept} group by dept_no"
                    ),
                    class: Class::Read,
                    statements: 1,
                    rows: 0,
                    expect_veto: false,
                }
            }
        };
        txns.push(txn);
    }
    let oracle_prefix = txns.len();
    Workload {
        name: "oltp_mixed",
        setup,
        txns,
        durable: false,
        oracle_prefix,
    }
}

const STORM_ROWS: usize = 300;
const STORM_WATCHERS: usize = 30;
const STORM_DEPTH: usize = 30;
const STORM_TXNS: usize = 16;
const STORM_ORACLE_PREFIX: usize = 3;

/// Long transactions: each updates every row of `big` and seeds a
/// self-triggering `chain` cascade; 30 watchers hold never-met thresholds
/// over `new updated big` and are reconsidered after every `chain` step.
fn refire_storm(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let mut setup = vec![
        "create table big (k int, v int)".to_string(),
        "create table tick (k int)".to_string(),
        "create table sink (r int)".to_string(),
    ];
    let rows: Vec<String> = (0..STORM_ROWS)
        .map(|k| format!("({k}, {})", rng.below(100)))
        .collect();
    load(&mut setup, "big", &rows);
    // Watchers first, so the default selection reconsiders each of them
    // between `chain` firings. `v` stays in [0, 100 + 3 * STORM_TXNS], so
    // no threshold is ever met.
    for i in 0..STORM_WATCHERS {
        let cond = match i % 3 {
            0 => format!(
                "exists (select * from new updated big where v < {})",
                -(i as i64) - 1
            ),
            1 => format!("(select sum(v) from new updated big) > {}", 100_000_000 + i),
            _ => format!("(select min(v) from new updated big) < {}", -(i as i64) - 1),
        };
        setup.push(format!(
            "create rule watch{i} when updated big if {cond} then insert into sink values ({i})"
        ));
    }
    setup.push(
        "create rule chain when inserted into tick \
         if exists (select * from inserted tick where k > 0) \
         then insert into tick (select k - 1 from inserted tick where k > 0)"
            .into(),
    );
    let txns = (0..STORM_TXNS)
        .map(|_| Txn {
            sql: format!(
                "update big set v = v + {}; insert into tick values ({STORM_DEPTH})",
                rng.range_i64(1, 3)
            ),
            class: Class::Storm,
            statements: 2,
            rows: STORM_ROWS as u64 + 1,
            expect_veto: false,
        })
        .collect();
    Workload {
        name: "refire_storm",
        setup,
        txns,
        durable: false,
        oracle_prefix: STORM_ORACLE_PREFIX,
    }
}

const INGEST_DEVICES: usize = 256;
const INGEST_TXNS: usize = 200;
const INGEST_BATCH: (i64, i64) = (16, 24);
pub const INGEST_CHECKPOINT_EVERY: u64 = 200;

/// Durable write-only ingest: batches of events, a set-oriented per-device
/// tally (B1) and an alarm insert-select.
fn bulk_ingest(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let mut setup = vec![
        "create table events (dev int, seq int, val int)".to_string(),
        "create table tally (dev int, n int, total int)".to_string(),
        "create table tdelta (dev int, d int, s int)".to_string(),
        "create table alarms (dev int, seq int, val int)".to_string(),
    ];
    let devices: Vec<String> = (0..INGEST_DEVICES)
        .map(|d| format!("({d}, 0, 0)"))
        .collect();
    load(&mut setup, "tally", &devices);
    setup.push("create index on tally (dev) using hash".into());
    setup.push(
        "create rule tally when inserted into events \
         then delete from tdelta; \
              insert into tdelta (select dev, count(*), sum(val) from inserted events group by dev); \
              update tally set n = n + (select d from tdelta where tdelta.dev = tally.dev), \
                               total = total + (select s from tdelta where tdelta.dev = tally.dev) \
              where dev in (select dev from tdelta)"
            .into(),
    );
    setup.push(
        "create rule alarm when inserted into events \
         then insert into alarms (select dev, seq, val from inserted events where val >= 990)"
            .into(),
    );
    let mut seq = 0u64;
    let txns = (0..INGEST_TXNS)
        .map(|_| {
            let n = rng.range_i64(INGEST_BATCH.0, INGEST_BATCH.1) as u64;
            let rows: Vec<String> = (0..n)
                .map(|_| {
                    seq += 1;
                    format!(
                        "({}, {seq}, {})",
                        rng.below(INGEST_DEVICES),
                        rng.below(1000)
                    )
                })
                .collect();
            Txn {
                sql: format!("insert into events values {}", rows.join(", ")),
                class: Class::Ingest,
                statements: 1,
                rows: n,
                expect_veto: false,
            }
        })
        .collect::<Vec<_>>();
    let oracle_prefix = txns.len();
    Workload {
        name: "bulk_ingest",
        setup,
        txns,
        durable: true,
        oracle_prefix,
    }
}
