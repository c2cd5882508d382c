//! Criterion: SQL substrate throughput — parse, filter, aggregate, join —
//! and pipeline-DSL interpretation over the same data, plus the two shapes
//! the `sql_mix` benchmark workload leans on hardest: a point lookup in a
//! 4000-row table and a 4000 × 60 equi-join.

use criterion::{criterion_group, criterion_main, Criterion};
use lm4db::codegen::{parse_pipeline, run_pipeline};
use lm4db::corpus::{make_domain, DomainKind};
use lm4db::sql::{parse, run_sql, Catalog, DataType, Schema, Table, Value};

/// `orders` (4000 rows) and `customers` (60), shaped like `sql_mix`'s.
fn orders_and_customers() -> Catalog {
    let mut customers = Table::new(
        "customers",
        Schema::new(vec![("id", DataType::Int), ("credit", DataType::Int)]),
    );
    for id in 0..60 {
        let row = vec![Value::Int(id), Value::Int(id * 17 % 1000)];
        customers.insert(row).expect("row fits schema");
    }
    let mut orders = Table::new(
        "orders",
        Schema::new(vec![
            ("id", DataType::Int),
            ("customer_id", DataType::Int),
            ("amount", DataType::Int),
            ("status", DataType::Text),
        ]),
    );
    for id in 0..4000 {
        let status = ["open", "paid", "shipped", "returned"][(id % 4) as usize];
        let row = vec![
            Value::Int(id),
            Value::Int(id * 7 % 60),
            Value::Int(1 + id * 37 % 1000),
            Value::Str(status.into()),
        ];
        orders.insert(row).expect("row fits schema");
    }
    let mut cat = Catalog::new();
    cat.register(customers);
    cat.register(orders);
    cat
}

fn bench_sql(c: &mut Criterion) {
    let domain = make_domain(DomainKind::Employees, 500, 7);
    let cat = domain.catalog();

    c.bench_function("sql/parse_grouped_query", |b| {
        b.iter(|| {
            parse(
                "SELECT dept, COUNT(*), AVG(salary) FROM employees \
                 WHERE age > 30 GROUP BY dept HAVING COUNT(*) > 2 ORDER BY dept LIMIT 5",
            )
            .unwrap()
        })
    });
    c.bench_function("sql/filter_scan_500_rows", |b| {
        b.iter(|| run_sql("SELECT name FROM employees WHERE salary > 100", &cat).unwrap())
    });
    c.bench_function("sql/group_aggregate_500_rows", |b| {
        b.iter(|| {
            run_sql(
                "SELECT dept, AVG(salary), COUNT(*) FROM employees GROUP BY dept",
                &cat,
            )
            .unwrap()
        })
    });
    c.bench_function("sql/join_500x5", |b| {
        b.iter(|| {
            run_sql(
                "SELECT e.name, d.floor FROM employees e \
                 JOIN departments d ON e.dept = d.dname WHERE d.floor > 2",
                &cat,
            )
            .unwrap()
        })
    });

    let big = orders_and_customers();
    c.bench_function("sql/point_lookup_4000_rows", |b| {
        b.iter(|| {
            run_sql(
                "SELECT id, amount, status FROM orders WHERE id = 2718",
                &big,
            )
            .unwrap()
        })
    });
    c.bench_function("sql/equi_join_4000x60", |b| {
        b.iter(|| {
            run_sql(
                "SELECT c.credit, COUNT(*), SUM(o.amount) FROM orders AS o \
                 JOIN customers AS c ON o.customer_id = c.id \
                 WHERE c.credit > 250 GROUP BY c.credit",
                &big,
            )
            .unwrap()
        })
    });

    let pipeline =
        parse_pipeline("load employees | filter salary > 100 | groupby dept agg avg salary")
            .unwrap();
    c.bench_function("pipeline/filter_group_500_rows", |b| {
        b.iter(|| run_pipeline(&pipeline, &cat).unwrap())
    });
}

criterion_group!(benches, bench_sql);
criterion_main!(benches);
