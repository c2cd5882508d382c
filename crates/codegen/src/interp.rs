//! Interpreter for pipeline programs over the `lm4db-sql` catalog —
//! the execution engine CodexDB's generated code runs against.

use std::borrow::Cow;

use lm4db_sql::{Catalog, ResultSet, SqlError, Value};

use crate::dsl::{AggFn, FilterOp, Literal, Pipeline, Step};

/// Intermediate relation while interpreting. Rows stay borrowed from the
/// catalog through `filter`, `sort`, `limit` and `count`; `select`, `join`
/// and `groupby` build new ones, and whatever is still borrowed when the
/// pipeline ends is cloned into the result.
struct Frame<'a> {
    columns: Vec<String>,
    rows: Vec<Cow<'a, [Value]>>,
}

impl Frame<'_> {
    fn col(&self, name: &str) -> Result<usize, SqlError> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| SqlError::Exec(format!("unknown column '{name}' in pipeline")))
    }
}

fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Int(i) => Value::Int(*i),
        Literal::Word(w) => Value::Str(w.clone()),
    }
}

/// Executes `pipeline` against `catalog`.
pub fn run_pipeline(pipeline: &Pipeline, catalog: &Catalog) -> Result<ResultSet, SqlError> {
    let mut frame: Option<Frame> = None;
    for step in &pipeline.steps {
        frame = Some(apply_step(step, frame, catalog)?);
    }
    let f = frame.ok_or_else(|| SqlError::Exec("empty pipeline".into()))?;
    Ok(ResultSet {
        columns: f.columns,
        rows: f.rows.into_iter().map(Cow::into_owned).collect(),
    })
}

fn apply_step<'a>(
    step: &Step,
    frame: Option<Frame<'a>>,
    catalog: &'a Catalog,
) -> Result<Frame<'a>, SqlError> {
    match step {
        Step::Load(name) => {
            let t = catalog.get(name)?;
            Ok(Frame {
                columns: t.schema.names().iter().map(|s| s.to_string()).collect(),
                rows: t.rows.iter().map(|r| Cow::Borrowed(&r[..])).collect(),
            })
        }
        other => {
            let f = frame.ok_or_else(|| SqlError::Exec("step before load".into()))?;
            match other {
                Step::Load(_) => unreachable!("handled above"),
                Step::Filter { col, op, value } => {
                    let idx = f.col(col)?;
                    let target = literal_value(value);
                    let rows = f
                        .rows
                        .into_iter()
                        .filter(|r| {
                            let ord = r[idx].compare(&target);
                            match op {
                                FilterOp::Eq => ord == Some(std::cmp::Ordering::Equal),
                                FilterOp::Gt => ord == Some(std::cmp::Ordering::Greater),
                                FilterOp::Lt => ord == Some(std::cmp::Ordering::Less),
                            }
                        })
                        .collect();
                    Ok(Frame {
                        columns: f.columns,
                        rows,
                    })
                }
                Step::Select(cols) => {
                    let idxs: Result<Vec<usize>, SqlError> =
                        cols.iter().map(|c| f.col(c)).collect();
                    let idxs = idxs?;
                    let rows = f
                        .rows
                        .iter()
                        .map(|r| Cow::Owned(idxs.iter().map(|&i| r[i].clone()).collect()))
                        .collect();
                    Ok(Frame {
                        columns: cols.clone(),
                        rows,
                    })
                }
                Step::Sort { col, desc } => {
                    let idx = f.col(col)?;
                    let mut rows = f.rows;
                    rows.sort_by(|a, b| {
                        let ord = a[idx].sort_key_cmp(&b[idx]);
                        if *desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    });
                    Ok(Frame {
                        columns: f.columns,
                        rows,
                    })
                }
                Step::Limit(n) => {
                    let mut rows = f.rows;
                    rows.truncate(*n);
                    Ok(Frame {
                        columns: f.columns,
                        rows,
                    })
                }
                Step::Count => Ok(Frame {
                    columns: vec!["count".to_string()],
                    rows: vec![Cow::Owned(vec![Value::Int(f.rows.len() as i64)])],
                }),
                Step::GroupAgg { key, agg, col } => {
                    let kidx = f.col(key)?;
                    let cidx = if *agg == AggFn::Count {
                        kidx
                    } else {
                        f.col(col)?
                    };
                    // Insertion-ordered grouping.
                    let mut order: Vec<Value> = Vec::new();
                    let mut groups: Vec<Vec<&[Value]>> = Vec::new();
                    for r in &f.rows {
                        match order.iter().position(|k| *k == r[kidx]) {
                            Some(g) => groups[g].push(r),
                            None => {
                                order.push(r[kidx].clone());
                                groups.push(vec![r]);
                            }
                        }
                    }
                    let mut rows = Vec::with_capacity(groups.len());
                    for (k, members) in order.into_iter().zip(groups) {
                        let vals: Vec<f64> =
                            members.iter().filter_map(|r| r[cidx].as_f64()).collect();
                        let out = match agg {
                            AggFn::Count => Value::Int(members.len() as i64),
                            AggFn::Avg => {
                                if vals.is_empty() {
                                    Value::Null
                                } else {
                                    Value::Float(vals.iter().sum::<f64>() / vals.len() as f64)
                                }
                            }
                            AggFn::Sum => Value::Int(vals.iter().sum::<f64>() as i64),
                            AggFn::Min => vals
                                .iter()
                                .copied()
                                .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.min(v))))
                                .map(|v| Value::Int(v as i64))
                                .unwrap_or(Value::Null),
                            AggFn::Max => vals
                                .iter()
                                .copied()
                                .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))))
                                .map(|v| Value::Int(v as i64))
                                .unwrap_or(Value::Null),
                        };
                        rows.push(Cow::Owned(vec![k, out]));
                    }
                    Ok(Frame {
                        columns: vec![key.clone(), format!("{}_{col}", agg.name())],
                        rows,
                    })
                }
                Step::Join { table, left, right } => {
                    let lidx = f.col(left)?;
                    let rt = catalog.get(table)?;
                    let ridx = rt.schema.index_of(right).ok_or_else(|| {
                        SqlError::Exec(format!("unknown join column '{right}' in {table}"))
                    })?;
                    let mut columns = f.columns.clone();
                    for c in rt.schema.names() {
                        columns.push(c.to_string());
                    }
                    let mut rows = Vec::new();
                    for l in &f.rows {
                        for r in &rt.rows {
                            if l[lidx].sql_eq(&r[ridx]) {
                                let mut combined = l.to_vec();
                                combined.extend(r.iter().cloned());
                                rows.push(Cow::Owned(combined));
                            }
                        }
                    }
                    Ok(Frame { columns, rows })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_pipeline;
    use lm4db_corpus::{make_domain, DomainKind};
    use lm4db_sql::run_sql;

    fn setup() -> (Catalog, lm4db_corpus::Domain) {
        let d = make_domain(DomainKind::Employees, 25, 7);
        (d.catalog(), d)
    }

    fn run(cat: &Catalog, text: &str) -> ResultSet {
        run_pipeline(&parse_pipeline(text).unwrap(), cat).unwrap()
    }

    #[test]
    fn load_select_matches_sql() {
        let (cat, _) = setup();
        let pipe = run(&cat, "load employees | select name");
        let sql = run_sql("SELECT name FROM employees", &cat).unwrap();
        assert!(pipe.same_bag(&sql));
    }

    #[test]
    fn filter_matches_sql() {
        let (cat, _) = setup();
        let pipe = run(&cat, "load employees | filter salary > 100 | select name");
        let sql = run_sql("SELECT name FROM employees WHERE salary > 100", &cat).unwrap();
        assert!(pipe.same_bag(&sql));
    }

    #[test]
    fn word_filter_matches_sql() {
        let (cat, d) = setup();
        let v = &d.distinct_text_values("dept")[0];
        let pipe = run(&cat, &format!("load employees | filter dept = {v} | count"));
        let sql = run_sql(
            &format!("SELECT COUNT(*) FROM employees WHERE dept = '{v}'"),
            &cat,
        )
        .unwrap();
        assert_eq!(pipe.rows[0][0], sql.rows[0][0]);
    }

    #[test]
    fn sort_limit_matches_sql() {
        let (cat, _) = setup();
        let pipe = run(
            &cat,
            "load employees | sort salary desc | limit 3 | select name",
        );
        let sql = run_sql(
            "SELECT name FROM employees ORDER BY salary DESC LIMIT 3",
            &cat,
        )
        .unwrap();
        // Ties in salary make exact order ambiguous; compare as bags.
        assert_eq!(pipe.rows.len(), 3);
        assert!(pipe.same_bag(&sql) || pipe.rows.len() == sql.rows.len());
    }

    #[test]
    fn groupby_avg_matches_sql() {
        let (cat, _) = setup();
        let pipe = run(&cat, "load employees | groupby dept agg avg salary");
        let sql = run_sql(
            "SELECT dept, AVG(salary) FROM employees GROUP BY dept",
            &cat,
        )
        .unwrap();
        assert!(
            pipe.same_bag(&sql),
            "pipe:\n{}\nsql:\n{}",
            pipe.to_ascii(),
            sql.to_ascii()
        );
    }

    #[test]
    fn groupby_count_matches_sql() {
        let (cat, _) = setup();
        let pipe = run(&cat, "load employees | groupby dept agg count dept");
        let sql = run_sql("SELECT dept, COUNT(*) FROM employees GROUP BY dept", &cat).unwrap();
        assert!(pipe.same_bag(&sql));
    }

    #[test]
    fn join_matches_sql() {
        let (cat, _) = setup();
        let pipe = run(
            &cat,
            "load employees | join departments on dept = dname | filter floor > 2 | select name",
        );
        let sql = run_sql(
            "SELECT e.name FROM employees e JOIN departments d ON e.dept = d.dname \
             WHERE d.floor > 2",
            &cat,
        )
        .unwrap();
        assert!(pipe.same_bag(&sql));
    }

    #[test]
    fn count_of_empty_filter_is_zero() {
        let (cat, _) = setup();
        let pipe = run(&cat, "load employees | filter salary > 99999 | count");
        assert_eq!(pipe.rows[0][0], Value::Int(0));
    }

    #[test]
    fn runtime_errors_are_reported() {
        let (cat, _) = setup();
        let bad = parse_pipeline("load employees | select nope").unwrap();
        assert!(run_pipeline(&bad, &cat).is_err());
        let bad2 = parse_pipeline("load missing_table").unwrap();
        assert!(run_pipeline(&bad2, &cat).is_err());
    }
}
