//! The reference executor: the row-at-a-time, nested-loop executor that was
//! `lm4db_sql::exec` until the bind-then-run rewrite, kept as a test oracle.
//!
//! It resolves names per reference per row, clones a combined row per join
//! pair before testing `ON`, groups on printed-form string keys and holds a
//! `Vec<Row>` of members per group — slow and obviously correct. It differs
//! from the executor it was in two places only, both bug fixes the rewrite
//! shares: the aggregate path de-duplicates before it applies `LIMIT`, and
//! an all-INT `SUM` is a `checked_add` chain instead of an `f64` round trip.
//! `tests/differential.rs` holds `lm4db_sql::execute` to this, row for row.

use std::collections::HashMap;

use lm4db_sql::{
    AggFunc, BinOp, Catalog, Expr, JoinKind, Query, Result, ResultSet, Row, SelectItem, SqlError,
    Value,
};

/// Column-name environment of the joined input relation.
#[derive(Debug, Clone)]
struct Env {
    /// `(table effective name, column name)` per position.
    cols: Vec<(String, String)>,
}

impl Env {
    fn lookup(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (t, c))| c == name && table.map(|q| q == t).unwrap_or(true))
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(SqlError::Plan(format!(
                "unknown column '{}{name}'",
                table.map(|t| format!("{t}.")).unwrap_or_default()
            ))),
            1 => Ok(matches[0]),
            _ => Err(SqlError::Plan(format!(
                "ambiguous column '{name}' (qualify it with a table name)"
            ))),
        }
    }
}

/// Executes a query against the catalog.
pub fn execute(q: &Query, catalog: &Catalog) -> Result<ResultSet> {
    // 1. FROM and JOINs: build the joined relation via nested loops.
    let base = catalog.get(&q.from.name)?;
    let mut env = Env {
        cols: base
            .schema
            .names()
            .iter()
            .map(|c| (q.from.effective_name().to_string(), c.to_string()))
            .collect(),
    };
    let mut rows: Vec<Row> = base.rows.clone();
    for join in &q.joins {
        let right = catalog.get(&join.table.name)?;
        let right_name = join.table.effective_name().to_string();
        for c in right.schema.names() {
            env.cols.push((right_name.clone(), c.to_string()));
        }
        let right_width = right.schema.len();
        let mut joined = Vec::new();
        for l in &rows {
            let mut matched = false;
            for r in &right.rows {
                let mut combined = l.clone();
                combined.extend(r.iter().cloned());
                if eval_scalar(&join.on, &env, &combined)?.is_true() {
                    joined.push(combined);
                    matched = true;
                }
            }
            if !matched && join.kind == JoinKind::Left {
                // LEFT JOIN: keep the left row, NULL-padding the right side.
                let mut combined = l.clone();
                combined.extend(std::iter::repeat_n(Value::Null, right_width));
                joined.push(combined);
            }
        }
        rows = joined;
    }

    // 2. WHERE.
    if let Some(pred) = &q.where_clause {
        if pred.contains_aggregate() {
            return Err(SqlError::Plan("aggregates are not allowed in WHERE".into()));
        }
        let mut filtered = Vec::with_capacity(rows.len());
        for r in rows {
            if eval_scalar(pred, &env, &r)?.is_true() {
                filtered.push(r);
            }
        }
        rows = filtered;
    }

    if q.is_aggregate() {
        execute_aggregate(q, &env, rows)
    } else {
        execute_plain(q, &env, rows)
    }
}

/// Non-aggregate pipeline: order, project, limit.
fn execute_plain(q: &Query, env: &Env, mut rows: Vec<Row>) -> Result<ResultSet> {
    // Output column names.
    let mut columns = Vec::new();
    for item in &q.items {
        match item {
            SelectItem::Star => {
                for (_, c) in &env.cols {
                    columns.push(c.clone());
                }
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| expr.to_string()));
            }
        }
    }
    let alias_index = alias_map(q);

    // ORDER BY before projection so non-projected columns can be sort keys.
    if !q.order_by.is_empty() {
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
        for r in rows {
            let mut key = Vec::with_capacity(q.order_by.len());
            for (e, _) in &q.order_by {
                // An ORDER BY item naming a select alias sorts by that item.
                let v = match resolve_alias(e, &alias_index, q) {
                    Some(aliased) => eval_scalar(aliased, env, &r)?,
                    None => eval_scalar(e, env, &r)?,
                };
                key.push(v);
            }
            keyed.push((key, r));
        }
        sort_keyed(&mut keyed, q);
        rows = keyed.into_iter().map(|(_, r)| r).collect();
    }

    // Projection (before LIMIT so DISTINCT can deduplicate projected rows).
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        let mut out_row = Vec::new();
        for item in &q.items {
            match item {
                SelectItem::Star => out_row.extend(r.iter().cloned()),
                SelectItem::Expr { expr, .. } => out_row.push(eval_scalar(expr, env, &r)?),
            }
        }
        out.push(out_row);
    }
    if q.distinct {
        dedup_rows(&mut out);
    }
    if let Some(l) = q.limit {
        out.truncate(l);
    }
    Ok(ResultSet { columns, rows: out })
}

/// Removes duplicate rows, keeping first occurrences (order-preserving).
fn dedup_rows(rows: &mut Vec<Row>) {
    let mut seen = std::collections::HashSet::new();
    rows.retain(|r| {
        let key = r
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\u{1}");
        seen.insert(key)
    });
}

/// Aggregate pipeline: group, aggregate, having, order, project, limit.
/// Sort key paired with a group's (key values, member rows).
type KeyedGroups = Vec<(Vec<Value>, (Vec<Value>, Vec<Row>))>;

fn execute_aggregate(q: &Query, env: &Env, rows: Vec<Row>) -> Result<ResultSet> {
    if q.items.iter().any(|i| matches!(i, SelectItem::Star)) {
        return Err(SqlError::Plan(
            "SELECT * cannot be combined with aggregation".into(),
        ));
    }
    // Group rows by the GROUP BY key. With no GROUP BY there is exactly one
    // group, even over an empty input (so COUNT(*) returns 0).
    let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
    if q.group_by.is_empty() {
        groups.push((vec![], rows));
    } else {
        let mut index: HashMap<String, usize> = HashMap::new();
        for r in rows {
            let mut key = Vec::with_capacity(q.group_by.len());
            for e in &q.group_by {
                key.push(eval_scalar(e, env, &r)?);
            }
            let key_str = key
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\u{1}");
            match index.get(&key_str) {
                Some(&gi) => groups[gi].1.push(r),
                None => {
                    index.insert(key_str, groups.len());
                    groups.push((key, vec![r]));
                }
            }
        }
    }

    // Printed forms of the group-by expressions, for matching references.
    let group_printed: Vec<String> = q.group_by.iter().map(ToString::to_string).collect();

    fn ctx_for<'a>(
        env: &'a Env,
        key_printed: &'a [String],
        key: &'a [Value],
        members: &'a [Row],
    ) -> GroupCtx<'a> {
        GroupCtx {
            env,
            key_printed,
            key_values: key,
            rows: members,
        }
    }

    // HAVING.
    let mut kept: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
    for (key, members) in groups {
        let keep = match &q.having {
            Some(h) => eval_in_group(h, &ctx_for(env, &group_printed, &key, &members))?.is_true(),
            None => true,
        };
        if keep {
            kept.push((key, members));
        }
    }

    let alias_index = alias_map(q);
    // ORDER BY over groups.
    if !q.order_by.is_empty() {
        let mut keyed: KeyedGroups = Vec::new();
        for (key, members) in kept {
            let mut sort_key = Vec::new();
            for (e, _) in &q.order_by {
                let target = resolve_alias(e, &alias_index, q).unwrap_or(e);
                sort_key.push(eval_in_group(
                    target,
                    &ctx_for(env, &group_printed, &key, &members),
                )?);
            }
            keyed.push((sort_key, (key, members)));
        }
        sort_keyed(&mut keyed, q);
        kept = keyed.into_iter().map(|(_, g)| g).collect();
    }

    // Projection.
    let mut columns = Vec::new();
    for item in &q.items {
        if let SelectItem::Expr { expr, alias } = item {
            columns.push(alias.clone().unwrap_or_else(|| expr.to_string()));
        }
    }
    let mut out = Vec::with_capacity(kept.len());
    for (key, members) in &kept {
        let ctx = ctx_for(env, &group_printed, key, members);
        let mut row = Vec::new();
        for item in &q.items {
            if let SelectItem::Expr { expr, .. } = item {
                row.push(eval_in_group(expr, &ctx)?);
            }
        }
        out.push(row);
    }
    if q.distinct {
        dedup_rows(&mut out);
    }
    if let Some(l) = q.limit {
        out.truncate(l);
    }
    Ok(ResultSet { columns, rows: out })
}

fn alias_map(q: &Query) -> HashMap<String, usize> {
    let mut m = HashMap::new();
    for (i, item) in q.items.iter().enumerate() {
        if let SelectItem::Expr { alias: Some(a), .. } = item {
            m.insert(a.clone(), i);
        }
    }
    m
}

/// If `e` is a bare column naming a select alias, returns the aliased
/// expression instead.
fn resolve_alias<'q>(e: &Expr, aliases: &HashMap<String, usize>, q: &'q Query) -> Option<&'q Expr> {
    if let Expr::Column { table: None, name } = e {
        if let Some(&i) = aliases.get(name) {
            if let SelectItem::Expr { expr, .. } = &q.items[i] {
                return Some(expr);
            }
        }
    }
    None
}

fn sort_keyed<T>(keyed: &mut [(Vec<Value>, T)], q: &Query) {
    keyed.sort_by(|(a, _), (b, _)| {
        for (i, (_, desc)) in q.order_by.iter().enumerate() {
            let ord = a[i].sort_key_cmp(&b[i]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Evaluates a scalar (aggregate-free) expression against one row.
fn eval_scalar(expr: &Expr, env: &Env, row: &Row) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { table, name } => {
            let idx = env.lookup(table.as_deref(), name)?;
            Ok(row[idx].clone())
        }
        Expr::Binary { op, left, right } => {
            let l = eval_scalar(left, env, row)?;
            let r = eval_scalar(right, env, row)?;
            eval_binop(*op, &l, &r)
        }
        Expr::Not(e) => match eval_scalar(e, env, row)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Null => Ok(Value::Null),
            other => Err(SqlError::Exec(format!(
                "NOT applied to non-boolean {other}"
            ))),
        },
        Expr::Neg(e) => Value::Int(0).sub(&eval_scalar(e, env, row)?),
        Expr::Agg { .. } => Err(SqlError::Plan(
            "aggregate used outside an aggregate context".into(),
        )),
        Expr::Func { name, args } => {
            let vals: Result<Vec<Value>> = args.iter().map(|a| eval_scalar(a, env, row)).collect();
            eval_func(name, &vals?)
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_scalar(expr, env, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_scalar(expr, env, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in list {
                if v.sql_eq(&eval_scalar(item, env, row)?) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_scalar(expr, env, row)?;
            let lo = eval_scalar(low, env, row)?;
            let hi = eval_scalar(high, env, row)?;
            match (v.compare(&lo), v.compare(&hi)) {
                (Some(a), Some(b)) => {
                    let within = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                    Ok(Value::Bool(within != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_scalar(expr, env, row)?;
            let p = eval_scalar(pattern, env, row)?;
            match v.like(&p)? {
                Value::Bool(b) => Ok(Value::Bool(b != *negated)),
                other => Ok(other),
            }
        }
    }
}

fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use std::cmp::Ordering::*;
    match op {
        BinOp::And => match (l, r) {
            (Value::Bool(false), _) | (_, Value::Bool(false)) => Ok(Value::Bool(false)),
            (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(*a && *b)),
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            _ => Err(SqlError::Exec("AND on non-boolean values".into())),
        },
        BinOp::Or => match (l, r) {
            (Value::Bool(true), _) | (_, Value::Bool(true)) => Ok(Value::Bool(true)),
            (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(*a || *b)),
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            _ => Err(SqlError::Exec("OR on non-boolean values".into())),
        },
        BinOp::Add => l.add(r),
        BinOp::Sub => l.sub(r),
        BinOp::Mul => l.mul(r),
        BinOp::Div => l.div(r),
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let Some(ord) = l.compare(r) else {
                return Ok(Value::Null);
            };
            let b = match op {
                BinOp::Eq => ord == Equal,
                BinOp::NotEq => ord != Equal,
                BinOp::Lt => ord == Less,
                BinOp::LtEq => ord != Greater,
                BinOp::Gt => ord == Greater,
                BinOp::GtEq => ord != Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
    }
}

fn eval_func(name: &str, args: &[Value]) -> Result<Value> {
    let arity = |n: usize| {
        if args.len() != n {
            Err(SqlError::Exec(format!(
                "{name}() expects {n} argument(s), got {}",
                args.len()
            )))
        } else {
            Ok(())
        }
    };
    match name {
        "upper" => {
            arity(1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
                Value::Null => Ok(Value::Null),
                v => Err(SqlError::Exec(format!("UPPER on non-string {v}"))),
            }
        }
        "lower" => {
            arity(1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
                Value::Null => Ok(Value::Null),
                v => Err(SqlError::Exec(format!("LOWER on non-string {v}"))),
            }
        }
        "length" => {
            arity(1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                Value::Null => Ok(Value::Null),
                v => Err(SqlError::Exec(format!("LENGTH on non-string {v}"))),
            }
        }
        "abs" => {
            arity(1)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                Value::Null => Ok(Value::Null),
                v => Err(SqlError::Exec(format!("ABS on non-numeric {v}"))),
            }
        }
        "round" => {
            arity(1)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => Ok(Value::Float(f.round())),
                Value::Null => Ok(Value::Null),
                v => Err(SqlError::Exec(format!("ROUND on non-numeric {v}"))),
            }
        }
        other => Err(SqlError::Plan(format!("unknown function '{other}'"))),
    }
}

/// Evaluation context inside one group.
struct GroupCtx<'a> {
    env: &'a Env,
    key_printed: &'a [String],
    key_values: &'a [Value],
    rows: &'a [Row],
}

/// Evaluates an expression in a group context: aggregates reduce over the
/// group's rows; other subexpressions must resolve to GROUP BY keys or
/// literals.
fn eval_in_group(expr: &Expr, ctx: &GroupCtx<'_>) -> Result<Value> {
    // A (sub)expression equal to a GROUP BY expression takes the key value.
    let printed = expr.to_string();
    if let Some(i) = ctx.key_printed.iter().position(|k| *k == printed) {
        return Ok(ctx.key_values[i].clone());
    }
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Agg {
            func,
            arg,
            distinct,
        } => eval_aggregate(*func, arg.as_deref(), *distinct, ctx),
        Expr::Binary { op, left, right } => {
            let l = eval_in_group(left, ctx)?;
            let r = eval_in_group(right, ctx)?;
            eval_binop(*op, &l, &r)
        }
        Expr::Not(e) => match eval_in_group(e, ctx)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Null => Ok(Value::Null),
            other => Err(SqlError::Exec(format!(
                "NOT applied to non-boolean {other}"
            ))),
        },
        Expr::Neg(e) => Value::Int(0).sub(&eval_in_group(e, ctx)?),
        Expr::Func { name, args } => {
            let vals: Result<Vec<Value>> = args.iter().map(|a| eval_in_group(a, ctx)).collect();
            eval_func(name, &vals?)
        }
        Expr::Column { .. } => Err(SqlError::Plan(format!(
            "column {printed} must appear in GROUP BY or inside an aggregate"
        ))),
        Expr::IsNull { expr, negated } => {
            let v = eval_in_group(expr, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        other => Err(SqlError::Plan(format!(
            "expression {other} is not supported in an aggregate context"
        ))),
    }
}

fn eval_aggregate(
    func: AggFunc,
    arg: Option<&Expr>,
    distinct: bool,
    ctx: &GroupCtx<'_>,
) -> Result<Value> {
    // COUNT(*): count rows.
    let Some(arg) = arg else {
        return Ok(Value::Int(ctx.rows.len() as i64));
    };
    if arg.contains_aggregate() {
        return Err(SqlError::Plan("nested aggregates are not allowed".into()));
    }
    let mut values = Vec::with_capacity(ctx.rows.len());
    for r in ctx.rows {
        let v = eval_scalar(arg, ctx.env, r)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut seen = std::collections::HashSet::new();
        values.retain(|v| seen.insert(v.to_string()));
    }
    match func {
        AggFunc::Count => Ok(Value::Int(values.len() as i64)),
        AggFunc::Min => Ok(values
            .into_iter()
            .min_by(|a, b| a.sort_key_cmp(b))
            .unwrap_or(Value::Null)),
        AggFunc::Max => Ok(values
            .into_iter()
            .max_by(|a, b| a.sort_key_cmp(b))
            .unwrap_or(Value::Null)),
        AggFunc::Sum | AggFunc::Avg => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            if func == AggFunc::Sum && values.iter().all(|v| matches!(v, Value::Int(_))) {
                let mut sum = 0i64;
                for v in &values {
                    let Value::Int(i) = v else { unreachable!() };
                    sum = sum
                        .checked_add(*i)
                        .ok_or_else(|| SqlError::Exec("integer overflow in SUM".into()))?;
                }
                return Ok(Value::Int(sum));
            }
            let mut sum = 0.0f64;
            for v in &values {
                sum += v.as_f64().ok_or_else(|| {
                    SqlError::Exec(format!("{} on non-numeric value {v}", func.name()))
                })?;
            }
            if func == AggFunc::Avg {
                Ok(Value::Float(sum / values.len() as f64))
            } else {
                Ok(Value::Float(sum))
            }
        }
    }
}
