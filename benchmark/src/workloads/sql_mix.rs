//! `sql_mix` — SQL text in, rows out, closed loop, one client. The LM
//! stack does nothing here and the executor everything, so a change to the
//! executor (hash join, a pipeline without the table clone) has a workload
//! where it is all of the work; in `app_query` it is about a quarter.
//!
//! Rows and query parameters come from `--seed`. Every result is checked
//! against an evaluation of the same query in straight Rust over the
//! generated rows, done once at set-up.

use std::time::{Duration, Instant};

use lm4db::loadgen::Rng;
use lm4db::sql::{self, Catalog, DataType, ResultSet, Schema, Table, Value};

use crate::report::{end_to_end, metric, timed_setup, RunArgs, RunResult};
use crate::trace::Tracer;
use crate::window::{Plan, Window};
use crate::workloads::fingerprint;

const REGIONS: [&str; 5] = ["north", "south", "east", "west", "centre"];
const STATUSES: [&str; 4] = ["open", "paid", "shipped", "returned"];
const SETUP_REPS: usize = 15;

/// The five query classes. A round holds `per_round()` of each; point
/// lookups are most of the ops, so the median latency is a point lookup
/// and the 95th percentile a sort, and no class is most of the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Point,
    Scan,
    Agg,
    Sort,
    Join,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Point,
        Class::Scan,
        Class::Agg,
        Class::Sort,
        Class::Join,
    ];

    pub fn per_round(self) -> usize {
        match self {
            Class::Point => 60,
            Class::Scan => 20,
            Class::Agg => 10,
            Class::Sort => 10,
            Class::Join => 1,
        }
    }
}

pub const ROUND_OPS: usize = 101;
/// Distinct rounds generated at set-up; the loop cycles through them.
const POOL_ROUNDS: usize = 4;

struct Customer {
    id: i64,
    region: &'static str,
    credit: i64,
}

struct Order {
    id: i64,
    customer_id: i64,
    amount: i64,
    status: &'static str,
    day: i64,
}

pub struct Query {
    pub class: Class,
    pub text: String,
    /// Fingerprint of the straight-Rust evaluation.
    expect: u64,
    ordered: bool,
}

pub struct Mix {
    pub catalog: Catalog,
    pub queries: Vec<Query>,
    /// |orders| × |customers|: the pairs a nested-loop join visits.
    pub join_pairs: usize,
}

fn int(x: i64) -> Value {
    Value::Int(x)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn rows(rows: Vec<Vec<Value>>) -> ResultSet {
    ResultSet {
        columns: Vec::new(),
        rows,
    }
}

/// Per-group `(count, sum)` in first-seen order; order is not compared.
fn group<'a>(items: impl Iterator<Item = (&'a str, i64)>) -> Vec<(&'a str, i64, i64)> {
    let mut groups: Vec<(&str, i64, i64)> = Vec::new();
    for (key, amount) in items {
        match groups.iter_mut().find(|g| g.0 == key) {
            Some(g) => {
                g.1 += 1;
                g.2 += amount;
            }
            None => groups.push((key, 1, amount)),
        }
    }
    groups
}

/// Draws one query of `class` and evaluates it over the rows directly.
fn draw(class: Class, rng: &mut Rng, customers: &[Customer], orders: &[Order]) -> Query {
    let (text_, expect, ordered) = match class {
        Class::Point => {
            let id = rng.below(orders.len() as u64) as i64;
            let hit = orders.iter().filter(|o| o.id == id);
            (
                format!("SELECT id, amount, status FROM orders WHERE id = {id}"),
                rows(
                    hit.map(|o| vec![int(o.id), int(o.amount), text(o.status)])
                        .collect(),
                ),
                false,
            )
        }
        Class::Scan => {
            let floor = 850 + rng.below(100) as i64;
            let status = STATUSES[rng.below(4) as usize];
            let hit = orders
                .iter()
                .filter(|o| o.amount > floor && o.status == status);
            (
                format!(
                    "SELECT id, amount FROM orders WHERE amount > {floor} AND status = '{status}'"
                ),
                rows(hit.map(|o| vec![int(o.id), int(o.amount)]).collect()),
                false,
            )
        }
        Class::Agg => {
            let day = rng.below(180) as i64;
            // About half the groups pass: a status holds a quarter of the
            // orders, and `day` keeps between half and all of them.
            let least = (orders.len() as i64) * (10 + rng.below(5) as i64) / 100;
            let kept = orders.iter().filter(|o| o.day >= day);
            let groups = group(kept.map(|o| (o.status, o.amount)));
            (
                format!(
                    "SELECT status, COUNT(*), SUM(amount) FROM orders WHERE day >= {day} \
                     GROUP BY status HAVING COUNT(*) > {least}"
                ),
                rows(
                    groups
                        .into_iter()
                        .filter(|g| g.1 > least)
                        .map(|(k, n, sum)| vec![text(k), int(n), int(sum)])
                        .collect(),
                ),
                false,
            )
        }
        Class::Sort => {
            let below = 1 + rng.below(customers.len() as u64) as i64;
            let mut kept: Vec<&Order> = orders.iter().filter(|o| o.customer_id < below).collect();
            kept.sort_by_key(|o| (-o.amount, o.id));
            kept.truncate(10);
            (
                format!(
                    "SELECT id, amount FROM orders WHERE customer_id < {below} \
                     ORDER BY amount DESC, id ASC LIMIT 10"
                ),
                rows(
                    kept.into_iter()
                        .map(|o| vec![int(o.id), int(o.amount)])
                        .collect(),
                ),
                true,
            )
        }
        Class::Join => {
            let credit = rng.below(500) as i64;
            // customers[i].id == i, so the join is an index.
            let joined = orders
                .iter()
                .map(|o| (o, &customers[o.customer_id as usize]));
            let kept = joined.filter(|(_, c)| c.credit > credit);
            let groups = group(kept.map(|(o, c)| (c.region, o.amount)));
            (
                format!(
                    "SELECT c.region, COUNT(*), SUM(o.amount) FROM orders AS o \
                     JOIN customers AS c ON o.customer_id = c.id \
                     WHERE c.credit > {credit} GROUP BY c.region"
                ),
                rows(
                    groups
                        .into_iter()
                        .map(|(k, n, sum)| vec![text(k), int(n), int(sum)])
                        .collect(),
                ),
                false,
            )
        }
    };
    Query {
        class,
        text: text_,
        expect: fingerprint(&expect, ordered),
        ordered,
    }
}

/// Generates the two tables and `POOL_ROUNDS` shuffled rounds of queries.
pub fn build(seed: u64, smoke: bool) -> Mix {
    let (n_customers, n_orders) = if smoke { (12, 400) } else { (60, 4000) };
    let mut rng = Rng::derive(seed, &[5]);
    let customers: Vec<Customer> = (0..n_customers)
        .map(|id| Customer {
            id,
            region: REGIONS[rng.below(5) as usize],
            credit: rng.below(1000) as i64,
        })
        .collect();
    let orders: Vec<Order> = (0..n_orders)
        .map(|id| Order {
            id,
            customer_id: rng.below(n_customers as u64) as i64,
            amount: 1 + rng.below(1000) as i64,
            status: STATUSES[rng.below(4) as usize],
            day: rng.below(365) as i64,
        })
        .collect();

    let mut c = Table::new(
        "customers",
        Schema::new(vec![
            ("id", DataType::Int),
            ("region", DataType::Text),
            ("credit", DataType::Int),
        ]),
    );
    for r in &customers {
        c.insert(vec![int(r.id), text(r.region), int(r.credit)])
            .expect("row fits schema");
    }
    let mut o = Table::new(
        "orders",
        Schema::new(vec![
            ("id", DataType::Int),
            ("customer_id", DataType::Int),
            ("amount", DataType::Int),
            ("status", DataType::Text),
            ("day", DataType::Int),
        ]),
    );
    for r in &orders {
        o.insert(vec![
            int(r.id),
            int(r.customer_id),
            int(r.amount),
            text(r.status),
            int(r.day),
        ])
        .expect("row fits schema");
    }
    let mut catalog = Catalog::new();
    catalog.register(c);
    catalog.register(o);

    let mut queries = Vec::with_capacity(POOL_ROUNDS * ROUND_OPS);
    for _ in 0..POOL_ROUNDS {
        let mut round: Vec<Query> = Class::ALL
            .iter()
            .flat_map(|&class| std::iter::repeat_n(class, class.per_round()))
            .map(|class| draw(class, &mut rng, &customers, &orders))
            .collect();
        // Fisher–Yates, so the classes are spread over the round.
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i as u64 + 1) as usize);
        }
        queries.extend(round);
    }
    Mix {
        catalog,
        queries,
        join_pairs: customers.len() * orders.len(),
    }
}

pub fn sql_mix(args: &RunArgs, tracer: &mut Tracer) -> RunResult {
    let (mix, set_up) = timed_setup(SETUP_REPS, || build(args.seed, args.smoke));

    let plan = Plan {
        segment_ops: 2 * ROUND_OPS,
        min_segments: 2,
        seconds: args.seconds,
        limit_ms: 250.0,
        trace: args.trace,
    };
    let warmup = if args.smoke { ROUND_OPS } else { 5 * ROUND_OPS };
    let mut window: Option<Window> = None;
    for (i, q) in mix.queries.iter().cycle().enumerate() {
        let started = Instant::now();
        let result = tracer.span("sql_mix.query", i as u64, |tracer| {
            let parsed = tracer.span("sql::parse", i as u64, |_| sql::parse(&q.text))?;
            tracer.span("sql::execute", i as u64, |_| {
                sql::execute(&parsed, &mix.catalog)
            })
        });
        let took = started.elapsed();
        let ok = match &result {
            Ok(rs) => fingerprint(rs, q.ordered) == q.expect,
            Err(_) => false,
        };
        if !ok {
            eprintln!("check failed: {} gave {result:?}", q.text);
        }
        let Some(w) = &mut window else {
            assert!(ok, "a query failed during warm-up");
            if i + 1 == warmup {
                window = Some(Window::new(plan, Duration::ZERO));
            }
            continue;
        };
        if w.record(took.as_secs_f64() * 1e3, ok, Duration::ZERO, tracer) && w.time_is_up() {
            break;
        }
    }
    let window = window.expect("window opens after warm-up");
    let metrics = if args.trace {
        vec![metric(
            "obs.trace_overhead_share",
            window.trace_overhead_share(),
            "share",
        )]
    } else {
        end_to_end(&window, set_up, window.per_segment())
    };
    RunResult {
        correct: window.failed == 0,
        attempted: window.attempted,
        failed: window.failed,
        metrics,
    }
}
