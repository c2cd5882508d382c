//! Differential test: `lm4db_sql::execute` against the reference executor.
//!
//! A seeded generator draws small tables (NULLs, FLOAT columns holding both
//! `2` and `2.0`, duplicate and missing join keys, an empty table) and a
//! query from a grammar over them, runs both executors and demands the
//! **same `ResultSet`** — columns, rows, row order and value types, compared
//! through `Debug` so that `2` ≠ `2.0` and NaN = NaN — or, when the reference
//! fails on a row, an error of the same `SqlError` variant. Every generated
//! query is plan-valid (known, qualified columns; group-context expressions
//! built from keys and aggregates), so the one deliberate difference between
//! the two — bind-time `Plan` errors the reference only raises once a row
//! reaches the expression — stays out of the way; `exec::tests` pins that.
//!
//! `PROPTEST_CASES=2000 cargo test --release -p lm4db-sql --test differential`
//! is the CI run; the default 32 cases ride along with `cargo test`.

mod reference;

use lm4db_sql::{
    AggFunc, BinOp, Catalog, DataType, Expr, Join, JoinKind, Query, ResultSet, Schema, SelectItem,
    SqlError, Table, TableRef, Value,
};
use proptest::prelude::*;

/// SplitMix64: the generator's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True `percent` times in a hundred.
    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())].clone()
    }
}

/// What a generated expression may name: `(table alias, column, type)`.
type Cols = Vec<(String, &'static str, DataType)>;

const WORDS: [&str; 5] = ["a", "b", "ab", "ba", ""];

/// `(name, columns, one more than the most rows it gets)`.
type TableSpec = (&'static str, Vec<(&'static str, DataType)>, usize);

/// The four tables; `e` never gets a row.
fn specs() -> Vec<TableSpec> {
    use DataType::*;
    vec![
        (
            "a",
            vec![
                ("id", Int),
                ("k", Int),
                ("x", Int),
                ("f", Float),
                ("s", Text),
            ],
            25,
        ),
        (
            "b",
            vec![
                ("id", Int),
                ("k", Int),
                ("y", Int),
                ("g", Float),
                ("t", Text),
            ],
            10,
        ),
        ("c", vec![("k", Int), ("z", Int), ("h", Float)], 5),
        ("e", vec![("k", Int), ("w", Int)], 1),
    ]
}

fn random_value(rng: &mut Rng, dtype: DataType) -> Value {
    if rng.chance(15) {
        return Value::Null;
    }
    match dtype {
        DataType::Int => Value::Int(rng.below(7) as i64 - 2),
        // Halves, whole floats and — an INT fits a FLOAT column — ints, so
        // `2` and `2.0` meet in one column.
        DataType::Float if rng.chance(30) => Value::Int(rng.below(4) as i64),
        DataType::Float => Value::Float(rng.below(9) as f64 / 2.0 - 1.0),
        DataType::Text => Value::Str(rng.pick(&WORDS).to_string()),
        DataType::Bool => Value::Bool(rng.chance(50)),
    }
}

fn random_catalog(rng: &mut Rng) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, columns, max_rows) in specs() {
        let mut table = Table::new(name, Schema::new(columns.clone()));
        for id in 0..rng.below(max_rows) {
            let row = columns.iter().map(|&(col, dtype)| match col {
                "id" => Value::Int(id as i64),
                _ => random_value(rng, dtype),
            });
            table.insert(row.collect()).expect("row fits schema");
        }
        catalog.register(table);
    }
    catalog
}

fn lit(v: i64) -> Expr {
    Expr::Literal(Value::Int(v))
}

fn boxed(e: Expr) -> Box<Expr> {
    Box::new(e)
}

fn column(rng: &mut Rng, cols: &Cols, want: &[DataType]) -> Expr {
    let fitting: Vec<_> = cols.iter().filter(|c| want.contains(&c.2)).collect();
    let (table, name, _) = rng.pick(&fitting);
    Expr::qcol(table, name)
}

/// A number-valued expression (now and then a string one, to hit the type
/// errors): columns, literals, `+ - * /`, negation, ABS/ROUND/LENGTH.
fn scalar(rng: &mut Rng, cols: &Cols, depth: usize) -> Expr {
    use DataType::*;
    match rng.below(if depth == 0 { 4 } else { 9 }) {
        0 | 1 => column(rng, cols, &[Int, Float]),
        2 => lit(rng.below(5) as i64 - 1),
        3 if rng.chance(50) => Expr::Literal(Value::Float(rng.below(5) as f64 / 2.0)),
        3 => column(rng, cols, &[Int, Float, Text]),
        4..=6 => Expr::binary(
            rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Div]),
            scalar(rng, cols, depth - 1),
            scalar(rng, cols, depth - 1),
        ),
        7 => Expr::Neg(boxed(scalar(rng, cols, depth - 1))),
        _ => {
            let (name, arg) = match rng.below(3) {
                0 => ("abs", scalar(rng, cols, depth - 1)),
                1 => ("round", scalar(rng, cols, depth - 1)),
                _ => ("length", column(rng, cols, &[Text])),
            };
            Expr::Func {
                name: name.into(),
                args: vec![arg],
            }
        }
    }
}

/// Draws a string-valued operand for LIKE, if the scope has one.
type TextOperand<'a> = &'a dyn Fn(&mut Rng) -> Option<Expr>;

/// A predicate over `operand`-generated scalars: comparisons, AND/OR/NOT,
/// IS NULL, and — where `text` is given — IN, BETWEEN, and LIKE over
/// `text`-generated strings. In group context it is not: there the reference
/// executor rejects all three (`exec::tests` pins that `execute` accepts them).
fn predicate(
    rng: &mut Rng,
    depth: usize,
    operand: &mut dyn FnMut(&mut Rng) -> Expr,
    text: Option<TextOperand>,
) -> Expr {
    let negated = rng.chance(25);
    let choice = rng.below(if depth == 0 { 5 } else { 8 });
    match (choice, text) {
        (0 | 1, _) => Expr::binary(
            rng.pick(&[
                BinOp::Eq,
                BinOp::NotEq,
                BinOp::Lt,
                BinOp::LtEq,
                BinOp::Gt,
                BinOp::GtEq,
            ]),
            operand(rng),
            operand(rng),
        ),
        (2, Some(_)) => Expr::InList {
            expr: boxed(operand(rng)),
            list: (0..1 + rng.below(3)).map(|_| operand(rng)).collect(),
            negated,
        },
        (3, Some(_)) => Expr::Between {
            expr: boxed(operand(rng)),
            low: boxed(operand(rng)),
            high: boxed(operand(rng)),
            negated,
        },
        (2..=4, _) => match text.and_then(|text| text(rng)) {
            Some(expr) if rng.chance(60) => Expr::Like {
                expr: boxed(expr),
                pattern: boxed(Expr::Literal(Value::Str(
                    rng.pick(&["a%", "%b", "_", "%", "ab", "%a%"]).into(),
                ))),
                negated,
            },
            _ => Expr::IsNull {
                expr: boxed(operand(rng)),
                negated,
            },
        },
        (5 | 6, _) => Expr::binary(
            rng.pick(&[BinOp::And, BinOp::Or]),
            predicate(rng, depth - 1, operand, text),
            predicate(rng, depth - 1, operand, text),
        ),
        _ => Expr::Not(boxed(predicate(rng, depth - 1, operand, text))),
    }
}

fn row_predicate(rng: &mut Rng, cols: &Cols, depth: usize) -> Expr {
    let has_text = cols.iter().any(|c| c.2 == DataType::Text);
    predicate(
        rng,
        depth,
        &mut |rng| scalar(rng, cols, 1),
        Some(&|rng| has_text.then(|| column(rng, cols, &[DataType::Text]))),
    )
}

fn aggregate(rng: &mut Rng, cols: &Cols) -> Expr {
    let func = rng.pick(&[
        AggFunc::Count,
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ]);
    if func == AggFunc::Count && rng.chance(40) {
        return Expr::Agg {
            func,
            arg: None,
            distinct: false,
        };
    }
    let arg = match func {
        AggFunc::Sum | AggFunc::Avg => scalar(rng, cols, 1),
        _ => scalar(rng, cols, 0),
    };
    Expr::Agg {
        func,
        arg: Some(boxed(arg)),
        distinct: rng.chance(25),
    }
}

/// Draws the FROM clause: `a`, then up to two joins of every flavour of ON.
fn from_clause(rng: &mut Rng) -> (Vec<Join>, Cols) {
    let specs = specs();
    let visible = |alias: &str, table: usize| -> Cols {
        let columns = specs[table].1.iter();
        columns.map(|&(c, t)| (alias.to_string(), c, t)).collect()
    };
    let mut cols = visible("a", 0);
    let mut joins = Vec::new();
    for n in 0..rng.pick(&[0, 0, 1, 1, 1, 2]) {
        // `b`, `c`, the empty `e`, or `a` again under another name.
        let table = rng.pick(&[1, 1, 1, 2, 2, 3, 0]);
        let alias = format!("j{n}");
        let right = visible(&alias, table);
        let numeric = [DataType::Int, DataType::Float];
        let equi = |rng: &mut Rng| {
            Expr::binary(
                BinOp::Eq,
                column(rng, &cols, &numeric),
                column(rng, &right, &numeric),
            )
        };
        let both: Cols = cols.iter().chain(&right).cloned().collect();
        let on = match rng.below(6) {
            0 | 1 => equi(rng),
            // The joined table's column on the left of `=`.
            2 => match equi(rng) {
                Expr::Binary { op, left, right } => Expr::Binary {
                    op,
                    left: right,
                    right: left,
                },
                other => other,
            },
            // Equi + a residual that cannot raise, so still a hash join …
            3 => Expr::binary(
                BinOp::And,
                equi(rng),
                Expr::binary(
                    rng.pick(&[BinOp::Lt, BinOp::NotEq, BinOp::GtEq]),
                    column(rng, &both, &numeric),
                    column(rng, &both, &numeric),
                ),
            ),
            // … + one that can, which must run (and fail) as a nested loop.
            4 => Expr::binary(BinOp::And, equi(rng), row_predicate(rng, &both, 1)),
            _ => row_predicate(rng, &both, 1),
        };
        joins.push(Join {
            kind: rng.pick(&[JoinKind::Inner, JoinKind::Left]),
            table: TableRef {
                name: specs[table].0.into(),
                alias: Some(alias),
            },
            on,
        });
        cols = both;
    }
    (joins, cols)
}

fn random_query(rng: &mut Rng) -> Query {
    let (joins, cols) = from_clause(rng);
    let mut q = Query::select_star("a");
    q.joins = joins;
    if rng.chance(50) {
        let depth = 1 + rng.below(2);
        q.where_clause = Some(row_predicate(rng, &cols, depth));
    }
    q.distinct = rng.chance(20);
    if rng.chance(45) {
        q.limit = Some(rng.below(4));
    }
    let item = |expr: Expr, n: usize, rng: &mut Rng| SelectItem::Expr {
        expr,
        alias: rng.chance(40).then(|| format!("c{n}")),
    };
    let direction = |rng: &mut Rng| rng.chance(40);

    if rng.chance(50) {
        // Plain: `*` or expressions; ORDER BY columns, aliases, expressions.
        if rng.chance(80) {
            q.items = (0..1 + rng.below(3))
                .map(|n| {
                    let expr = match rng.below(4) {
                        0 => row_predicate(rng, &cols, 0),
                        _ => scalar(rng, &cols, 2),
                    };
                    item(expr, n, rng)
                })
                .collect();
        }
        for _ in 0..rng.below(3) {
            let aliases: Vec<String> = q
                .items
                .iter()
                .filter_map(|i| match i {
                    SelectItem::Expr { alias, .. } => alias.clone(),
                    SelectItem::Star => None,
                })
                .collect();
            let key = match rng.below(3) {
                0 if !aliases.is_empty() => Expr::col(&rng.pick(&aliases)),
                1 => scalar(rng, &cols, 1),
                _ => column(
                    rng,
                    &cols,
                    &[DataType::Int, DataType::Float, DataType::Text],
                ),
            };
            q.order_by.push((key, direction(rng)));
        }
        return q;
    }

    // Aggregate: GROUP BY columns and expressions; everything after it is
    // built from the keys, aggregates and literals.
    q.group_by = (0..rng.below(3))
        .map(|_| match rng.below(3) {
            0 => scalar(rng, &cols, 1),
            _ => column(
                rng,
                &cols,
                &[DataType::Int, DataType::Float, DataType::Text],
            ),
        })
        .collect();
    let keys = q.group_by.clone();
    let mut group_scalar = |rng: &mut Rng| match rng.below(6) {
        0 | 1 if !keys.is_empty() => rng.pick(&keys),
        0..=3 => aggregate(rng, &cols),
        4 => lit(rng.below(4) as i64),
        _ => Expr::binary(
            rng.pick(&[BinOp::Add, BinOp::Mul, BinOp::Div]),
            aggregate(rng, &cols),
            match keys.is_empty() {
                true => lit(rng.below(3) as i64),
                false => rng.pick(&keys),
            },
        ),
    };
    q.items = (0..1 + rng.below(3))
        .map(|n| item(group_scalar(rng), n, rng))
        .collect();
    if rng.chance(50) {
        q.having = Some(predicate(rng, 1, &mut group_scalar, None));
    }
    for _ in 0..rng.below(3) {
        let key = match &q.items[rng.below(q.items.len())] {
            SelectItem::Expr { alias: Some(a), .. } if rng.chance(50) => Expr::col(a),
            _ => group_scalar(rng),
        };
        q.order_by.push((key, direction(rng)));
    }
    q
}

fn variant(e: &SqlError) -> &'static str {
    match e {
        SqlError::Lex(_) => "Lex",
        SqlError::Parse(_) => "Parse",
        SqlError::Plan(_) => "Plan",
        SqlError::Exec(_) => "Exec",
    }
}

/// `Ok` with the `Debug` form of the result, or `Err` with the variant.
fn outcome(r: Result<ResultSet, SqlError>) -> Result<String, &'static str> {
    match r {
        Ok(rs) => Ok(format!("{rs:?}")),
        Err(e) => Err(variant(&e)),
    }
}

fn agree(q: &Query, catalog: &Catalog) -> Result<(), String> {
    let expected = outcome(reference::execute(q, catalog));
    let got = outcome(lm4db_sql::execute(q, catalog));
    if expected == got {
        return Ok(());
    }
    let mut tables = String::new();
    for name in catalog.table_names() {
        let t = catalog.get(name).expect("listed table exists");
        tables += &format!("{name} {:?}: {:?}\n", t.schema.names(), t.rows);
    }
    Err(format!(
        "{q}\nreference: {expected:?}\n  execute: {got:?}\n{tables}"
    ))
}

proptest! {
    #[test]
    fn execute_matches_the_reference_executor(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let catalog = random_catalog(&mut rng);
        // Several queries per catalog: tables are the cheaper half to draw.
        for _ in 0..4 {
            let q = random_query(&mut rng);
            if let Err(report) = agree(&q, &catalog) {
                prop_assert!(false, "seed {seed}: {report}");
            }
        }
    }
}

/// The `sql_mix` benchmark's five query classes on an instance of its size
/// (4000 orders × 60 customers), one fixed query each.
#[test]
fn benchmark_query_classes_match_the_reference_executor() {
    let mut rng = Rng(1);
    let mut customers = Table::new(
        "customers",
        Schema::new(vec![
            ("id", DataType::Int),
            ("region", DataType::Text),
            ("credit", DataType::Int),
        ]),
    );
    for id in 0..60 {
        let region = rng.pick(&["north", "south", "east", "west", "centre"]);
        let row = vec![
            Value::Int(id),
            Value::Str(region.into()),
            Value::Int(rng.below(1000) as i64),
        ];
        customers.insert(row).expect("row fits schema");
    }
    let mut orders = Table::new(
        "orders",
        Schema::new(vec![
            ("id", DataType::Int),
            ("customer_id", DataType::Int),
            ("amount", DataType::Int),
            ("status", DataType::Text),
            ("day", DataType::Int),
        ]),
    );
    for id in 0..4000 {
        let status = rng.pick(&["open", "paid", "shipped", "returned"]);
        let row = vec![
            Value::Int(id),
            Value::Int(rng.below(60) as i64),
            Value::Int(1 + rng.below(1000) as i64),
            Value::Str(status.into()),
            Value::Int(rng.below(365) as i64),
        ];
        orders.insert(row).expect("row fits schema");
    }
    let mut catalog = Catalog::new();
    catalog.register(customers);
    catalog.register(orders);

    for sql in [
        "SELECT id, amount, status FROM orders WHERE id = 2718",
        "SELECT id, amount FROM orders WHERE amount > 900 AND status = 'paid'",
        "SELECT status, COUNT(*), SUM(amount) FROM orders WHERE day >= 90 \
         GROUP BY status HAVING COUNT(*) > 700",
        "SELECT id, amount FROM orders WHERE customer_id < 31 \
         ORDER BY amount DESC, id ASC LIMIT 10",
        "SELECT c.region, COUNT(*), SUM(o.amount) FROM orders AS o \
         JOIN customers AS c ON o.customer_id = c.id \
         WHERE c.credit > 250 GROUP BY c.region",
    ] {
        let q = lm4db_sql::parse(sql).expect("fixed query parses");
        let expected = reference::execute(&q, &catalog).expect("reference runs");
        assert!(!expected.rows.is_empty(), "{sql}: vacuous case");
        if let Err(report) = agree(&q, &catalog) {
            panic!("{}", report.lines().take(3).collect::<Vec<_>>().join("\n"));
        }
    }
}
