//! Query execution: bind the query once, then run it over borrowed rows.
//!
//! **Bind** resolves every column reference to a `(FROM table, column)`
//! position, every sub-expression that prints like a GROUP BY expression to
//! that key, every aggregate call to an accumulator slot, and an ORDER BY
//! item naming a select alias to the aliased expression. Name and shape
//! errors (`SqlError::Plan`, bar an unknown function) are raised here, before
//! any row is read.
//!
//! **Run** scans `&table.rows` in place. A joined tuple is one borrowed
//! `&[Value]` per FROM table; a join on `earlier column = joined column`
//! probes a hash table and any other `ON` loops; WHERE filters tuples as
//! they arrive, and survivors feed per-group streaming accumulators or the
//! best-`LIMIT` output. Values are cloned only into the `ResultSet`, a group
//! key or a MIN/MAX/DISTINCT accumulator. DESIGN.md ("The SQL executor") has
//! the pipeline; `tests/reference` keeps the executor this replaced, and
//! `tests/differential.rs` holds the two to the same rows in the same order.

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};

use crate::ast::{AggFunc, BinOp, Expr, JoinKind, Query, SelectItem};
use crate::error::{Result, SqlError};
use crate::table::{Catalog, ResultSet, Row, Table};
use crate::value::Value;

/// An expression with every name resolved.
enum Bound<'q> {
    Lit(&'q Value),
    /// Column `.1` of FROM table `.0`.
    Col(usize, usize),
    /// The group's value of the GROUP BY expression at this position.
    Key(usize),
    /// The group's result of the aggregate in this slot.
    Agg(usize, AggFunc),
    /// Any other expression over its bound `Expr::children`.
    Op(&'q Expr, Vec<Bound<'q>>),
}

/// What an expression is evaluated against: a tuple of the first `n` FROM
/// tables (`Some(n)`), or one group's keys and aggregates (`None`).
type Scope = Option<usize>;

struct Binder<'q, 'a> {
    /// `(effective name, table)` per FROM entry, in join order.
    tables: Vec<(&'q str, &'a Table)>,
    /// Printed GROUP BY expressions: what prints like one means that key.
    group_printed: Vec<String>,
    /// `(function, argument, DISTINCT)` per aggregate slot; `COUNT(*)` has
    /// no argument.
    aggs: Vec<(AggFunc, Option<Bound<'q>>, bool)>,
}

impl<'q> Binder<'q, '_> {
    fn column(&self, table: Option<&str>, name: &str, scope: usize) -> Result<Bound<'q>> {
        let mut found = None;
        for (t, (tname, tab)) in self.tables[..scope].iter().enumerate() {
            let cols = tab.schema.columns().iter().enumerate();
            for (c, _) in cols.filter(|(_, c)| c.name == name && table.is_none_or(|q| q == *tname))
            {
                if found.replace(Bound::Col(t, c)).is_some() {
                    return Err(SqlError::Plan(format!(
                        "ambiguous column '{name}' (qualify it with a table name)"
                    )));
                }
            }
        }
        found.ok_or_else(|| {
            let qualifier = table.map(|t| format!("{t}.")).unwrap_or_default();
            SqlError::Plan(format!("unknown column '{qualifier}{name}'"))
        })
    }

    fn bind(&mut self, e: &'q Expr, scope: Scope) -> Result<Bound<'q>> {
        if scope.is_none() && !self.group_printed.is_empty() {
            let printed = e.to_string();
            if let Some(i) = self.group_printed.iter().position(|k| *k == printed) {
                return Ok(Bound::Key(i));
            }
        }
        let plan = |message: String| Err(SqlError::Plan(message));
        match (e, scope) {
            (Expr::Literal(v), _) => Ok(Bound::Lit(v)),
            (Expr::Column { table, name }, Some(n)) => self.column(table.as_deref(), name, n),
            (Expr::Column { .. }, None) => plan(format!(
                "column {e} must appear in GROUP BY or inside an aggregate"
            )),
            (Expr::Agg { .. }, Some(_)) => {
                plan("aggregate used outside an aggregate context".into())
            }
            (Expr::Agg { arg: Some(a), .. }, _) if a.contains_aggregate() => {
                plan("nested aggregates are not allowed".into())
            }
            (
                Expr::Agg {
                    func,
                    arg,
                    distinct,
                },
                None,
            ) => {
                let rows = Some(self.tables.len());
                let arg = arg.as_ref().map(|a| self.bind(a, rows)).transpose()?;
                self.aggs.push((*func, arg, *distinct));
                Ok(Bound::Agg(self.aggs.len() - 1, *func))
            }
            _ => Ok(Bound::Op(e, self.bind_all(e.children(), scope)?)),
        }
    }

    fn bind_all(
        &mut self,
        es: impl IntoIterator<Item = &'q Expr>,
        scope: Scope,
    ) -> Result<Vec<Bound<'q>>> {
        es.into_iter().map(|e| self.bind(e, scope)).collect()
    }
}

/// `((earlier table, column), joined-table column)`, equated by an `ON`.
type Equi = ((usize, usize), usize);

/// One JOIN, bound.
struct JoinStep<'q> {
    left_outer: bool,
    on: Bound<'q>,
    /// Set when probing a hash table may stand in for the loop over all pairs.
    equi: Option<Equi>,
    /// Joined-table row numbers by the hash of the `equi` column.
    probe: Index,
}

/// `None` if `on` is anything but an AND of comparisons between columns and
/// literals — those cannot raise, so skipping the pairs a probe rules out
/// goes unseen. Else the first `earlier column = joined column` among them.
fn equi_conjunct(on: &Bound, right: usize) -> Option<Option<Equi>> {
    let Bound::Op(Expr::Binary { op, .. }, sides) = on else {
        return None;
    };
    match (op, &sides[0], &sides[1]) {
        (BinOp::And, l, r) => {
            let (l, r) = (equi_conjunct(l, right)?, equi_conjunct(r, right)?);
            Some(l.or(r))
        }
        (BinOp::Or | BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, ..) => None,
        (BinOp::Eq, &Bound::Col(t, c), &Bound::Col(rt, rc))
        | (BinOp::Eq, &Bound::Col(rt, rc), &Bound::Col(t, c))
            if rt == right && t < right =>
        {
            Some(Some(((t, c), rc)))
        }
        (_, Bound::Col(..) | Bound::Lit(_), Bound::Col(..) | Bound::Lit(_)) => Some(None),
        _ => None,
    }
}

/// What an expression is evaluated against: a tuple of borrowed table rows
/// (`.0`), or one group's keys (`.1`) and accumulators (`.2`).
struct Ctx<'r, 'c>(&'r [&'c [Value]], &'c [Value], &'c [Acc]);

/// Evaluates a bound expression, borrowing where the value already exists.
#[inline(always)]
fn eval<'c>(e: &'c Bound<'c>, cx: &Ctx<'_, 'c>) -> Result<Cow<'c, Value>> {
    Ok(match e {
        Bound::Lit(v) => Cow::Borrowed(*v),
        Bound::Col(t, c) => Cow::Borrowed(&cx.0[*t][*c]),
        Bound::Key(i) => Cow::Borrowed(&cx.1[*i]),
        Bound::Agg(i, func) => Cow::Owned(cx.2[*i].finish(*func)?),
        Bound::Op(e, operands) => Cow::Owned(eval_op(e, operands, cx)?),
    })
}

fn eval_op<'c>(e: &Expr, operands: &'c [Bound<'c>], cx: &Ctx<'_, 'c>) -> Result<Value> {
    let truth = |b: bool, negated: &bool| Value::Bool(b != *negated);
    Ok(match (e, operands) {
        (Expr::Binary { op, .. }, [l, r]) => eval_binop(*op, &*eval(l, cx)?, &*eval(r, cx)?)?,
        (Expr::Not(_), [e]) => match &*eval(e, cx)? {
            Value::Bool(b) => Value::Bool(!b),
            Value::Null => Value::Null,
            other => {
                return Err(SqlError::Exec(format!(
                    "NOT applied to non-boolean {other}"
                )))
            }
        },
        (Expr::Neg(_), [e]) => Value::Int(0).sub(&*eval(e, cx)?)?,
        (Expr::Func { name, .. }, args) => {
            let vals: Result<Vec<_>> = args.iter().map(|a| eval(a, cx)).collect();
            eval_func(name, &vals?)?
        }
        (Expr::IsNull { negated, .. }, [e]) => truth(eval(e, cx)?.is_null(), negated),
        (Expr::InList { negated, .. }, [e, list @ ..]) => {
            let v = eval(e, cx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            // Lazily: items past the first match are never evaluated.
            let mut found = false;
            for item in list {
                found = found || v.sql_eq(&*eval(item, cx)?);
            }
            truth(found, negated)
        }
        (Expr::Between { negated, .. }, [v, low, high]) => {
            let (v, low, high) = (eval(v, cx)?, eval(low, cx)?, eval(high, cx)?);
            match (v.compare(&low), v.compare(&high)) {
                (Some(a), Some(b)) => truth(a != Ordering::Less && b != Ordering::Greater, negated),
                _ => Value::Null,
            }
        }
        (Expr::Like { negated, .. }, [e, pattern]) => {
            match eval(e, cx)?.like(&*eval(pattern, cx)?)? {
                Value::Bool(b) => truth(b, negated),
                other => other,
            }
        }
        _ => unreachable!("bind pairs each operator with its operands"),
    })
}

/// Whether `pred` — WHERE, HAVING — is absent or true.
fn holds(pred: &Option<Bound>, cx: &Ctx) -> Result<bool> {
    pred.as_ref()
        .map_or(Ok(true), |p| Ok(eval(p, cx)?.is_true()))
}

/// Feeds `v` to `h` so that two values hash alike when they print alike
/// (`numeric` false: `2` and `2.0` differ, every NaN is one value) or when
/// they can compare equal (`numeric` true: `2` and `2.0`, `0.0` and `-0.0`).
fn hash_value(v: &Value, numeric: bool, h: &mut impl Hasher) {
    match v {
        Value::Null => h.write_u8(0),
        Value::Int(i) if !numeric => i.hash(h),
        Value::Int(i) => (*i as f64).to_bits().hash(h),
        Value::Float(f) if f.is_nan() => h.write_u8(1),
        Value::Float(f) if numeric => (*f + 0.0).to_bits().hash(h),
        Value::Float(f) => f.to_bits().hash(h),
        Value::Str(s) => s.hash(h),
        Value::Bool(b) => b.hash(h),
    }
}

/// Whether two values print alike: the identity GROUP BY and DISTINCT use.
fn same_printed(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Float(a), Value::Float(b)) => {
            a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan()
        }
        (Value::Str(a), Value::Str(b)) => a == b,
        (Value::Bool(a), Value::Bool(b)) => a == b,
        _ => false,
    }
}

/// Positions of value tuples by hash; within one hash, in insertion order.
#[derive(Default)]
struct Index {
    hasher: RandomState,
    slots: HashMap<u64, Vec<usize>>,
}

impl Index {
    fn hash<V: Borrow<Value>>(&self, key: &[V], numeric: bool) -> u64 {
        let mut h = self.hasher.build_hasher();
        key.iter()
            .for_each(|v| hash_value(v.borrow(), numeric, &mut h));
        h.finish()
    }

    /// The position of the stored tuple that prints like `key`; failing
    /// that, records `key` as tuple number `len` — the caller stores it —
    /// and returns `None`. `stored(i)` reads tuple `i` back.
    fn find_or_add<'s, V: Borrow<Value>>(
        &mut self,
        key: &[V],
        len: usize,
        stored: impl Fn(usize) -> &'s [Value],
    ) -> Option<usize> {
        let slot = self.slots.entry(self.hash(key, false)).or_default();
        let same = |a: &[V], b: &[Value]| a.iter().zip(b).all(|(a, b)| same_printed(a.borrow(), b));
        let found = slot.iter().copied().find(|&i| same(key, stored(i)));
        if found.is_none() {
            slot.push(len);
        }
        found
    }
}

/// Streaming state of one aggregate over one group.
#[derive(Default)]
struct Acc {
    /// Rows (`COUNT(*)`) or non-NULL, DISTINCT-surviving values fed.
    n: i64,
    /// The `checked_add` chain over the INT values fed.
    int_sum: i64,
    overflowed: bool,
    float_sum: f64,
    saw_float: bool,
    /// Running MIN or MAX.
    best: Option<Value>,
    /// With DISTINCT: the values fed so far.
    seen: Option<(Index, Vec<Value>)>,
    /// What feeding raised first. Kept, and raised when the result is read,
    /// so that an aggregate fails only where something evaluates it — for a
    /// group HAVING drops, only HAVING does.
    err: Option<SqlError>,
}

impl Acc {
    fn feed(&mut self, func: AggFunc, arg: Option<&Bound>, cx: &Ctx) -> Result<()> {
        let Some(arg) = arg else {
            self.n += 1;
            return Ok(());
        };
        let v = eval(arg, cx)?;
        if v.is_null() {
            return Ok(());
        }
        if let Some((index, vals)) = &mut self.seen {
            let one = std::slice::from_ref(&*v);
            if index
                .find_or_add(one, vals.len(), |i| &vals[i..=i])
                .is_some()
            {
                return Ok(());
            }
            vals.push(v.clone().into_owned());
        }
        self.n += 1;
        match func {
            AggFunc::Count => {}
            // MIN keeps the first of equal minima and MAX the last of equal
            // maxima, as `Iterator::min_by` and `max_by` do.
            AggFunc::Min | AggFunc::Max => {
                let ord = self.best.as_ref().map(|b| b.sort_key_cmp(&v));
                if ord.is_none_or(|o| (o == Ordering::Greater) == (func == AggFunc::Min)) {
                    self.best = Some(v.into_owned());
                }
            }
            AggFunc::Sum | AggFunc::Avg => {
                self.float_sum += v.as_f64().ok_or_else(|| {
                    SqlError::Exec(format!("{} on non-numeric value {v}", func.name()))
                })?;
                match &*v {
                    Value::Int(i) => match self.int_sum.checked_add(*i) {
                        Some(sum) => self.int_sum = sum,
                        None => self.overflowed = true,
                    },
                    _ => self.saw_float = true,
                }
            }
        }
        Ok(())
    }

    fn finish(&self, func: AggFunc) -> Result<Value> {
        if let Some(e) = &self.err {
            return Err(e.clone());
        }
        Ok(match func {
            AggFunc::Count => Value::Int(self.n),
            AggFunc::Min | AggFunc::Max => self.best.clone().unwrap_or(Value::Null),
            _ if self.n == 0 => Value::Null,
            AggFunc::Avg => Value::Float(self.float_sum / self.n as f64),
            AggFunc::Sum if self.saw_float => Value::Float(self.float_sum),
            AggFunc::Sum if self.overflowed => {
                return Err(SqlError::Exec("integer overflow in SUM".into()))
            }
            AggFunc::Sum => Value::Int(self.int_sum),
        })
    }
}

/// Receives each tuple the FROM and WHERE clauses yield, in nested-loop order.
type Sink<'s, 't> = dyn FnMut(&[&'t [Value]]) -> Result<()> + 's;

/// FROM and WHERE as a left-deep pipeline over borrowed rows.
struct Scan<'p, 't> {
    tables: Vec<&'t Table>,
    joins: &'p [JoinStep<'p>],
    filter: &'p Option<Bound<'p>>,
    /// The joined side of an unmatched LEFT JOIN tuple.
    nulls: &'t [Value],
}

impl<'t> Scan<'_, 't> {
    fn run(&self, sink: &mut Sink<'_, 't>) -> Result<()> {
        let mut tuple = Vec::with_capacity(self.tables.len());
        for row in &self.tables[0].rows {
            tuple.push(&row[..]);
            self.extend(&mut tuple, sink)?;
            tuple.pop();
        }
        Ok(())
    }

    /// Joins the next table onto `tuple`; a complete one that passes WHERE
    /// goes to `sink`.
    fn extend(&self, tuple: &mut Vec<&'t [Value]>, sink: &mut Sink<'_, 't>) -> Result<()> {
        let Some(join) = self.joins.get(tuple.len() - 1) else {
            return match holds(self.filter, &Ctx(tuple, &[], &[]))? {
                true => sink(tuple),
                false => Ok(()),
            };
        };
        let right = &self.tables[tuple.len()].rows;
        let mut matched = false;
        let mut pair = |tuple: &mut Vec<&'t [Value]>, row: &'t [Value]| -> Result<()> {
            tuple.push(row);
            if eval(&join.on, &Ctx(tuple, &[], &[]))?.is_true() {
                matched = true;
                self.extend(tuple, sink)?;
            }
            tuple.pop();
            Ok(())
        };
        match join.equi {
            // Candidates come in table order, and `pair` re-checks all of ON.
            Some(((t, c), _)) => {
                let hash = join.probe.hash(&tuple[t][c..=c], true);
                for &i in join.probe.slots.get(&hash).into_iter().flatten() {
                    pair(tuple, &right[i])?;
                }
            }
            None => {
                for row in right {
                    pair(tuple, row)?;
                }
            }
        }
        if !matched && join.left_outer {
            tuple.push(self.nulls);
            self.extend(tuple, sink)?;
            tuple.pop();
        }
        Ok(())
    }
}

/// The tail every query shares: ORDER BY, projection, and LIMIT where it
/// may cut early.
struct Output<'p, 'c> {
    order: &'p [(Bound<'p>, bool)],
    items: &'p [Bound<'p>],
    /// How many rows are worth holding on to: LIMIT (1 for `LIMIT 0`, which
    /// `execute` cuts at the end), unless DISTINCT has to see every row.
    keep: usize,
    /// `(sort key, projected row)`: once `full`, the first `keep` in final
    /// order; any after them in arrival order.
    rows: Vec<(Vec<Value>, Row)>,
    full: bool,
    key: Vec<Cow<'c, Value>>,
}

impl<'p: 'c, 'c> Output<'p, 'c> {
    fn cmp<A: Borrow<Value>, B: Borrow<Value>>(&self, a: &[A], b: &[B]) -> Ordering {
        let by_key = a.iter().zip(b).zip(self.order).map(|((a, b), (_, desc))| {
            let ord = a.borrow().sort_key_cmp(b.borrow());
            if *desc {
                ord.reverse()
            } else {
                ord
            }
        });
        by_key.fold(Ordering::Equal, Ordering::then)
    }

    /// Takes the row `cx` describes, unless `keep` rows that sort before it
    /// or tie with it are already held: a tie goes to the earlier arrival,
    /// as in a stable sort of everything. The select list is evaluated
    /// either way, so a row LIMIT drops still raises what it would have.
    fn offer(&mut self, cx: &Ctx<'_, 'c>) -> Result<()> {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        for (e, _) in self.order {
            key.push(eval(e, cx)?);
        }
        let take = !self.full || self.cmp(&key, &self.rows[self.keep - 1].0) == Ordering::Less;
        let mut row = Vec::with_capacity(if take { self.items.len() } else { 0 });
        for e in self.items {
            let v = eval(e, cx)?;
            if take {
                row.push(v.into_owned());
            }
        }
        if take {
            self.rows
                .push((key.drain(..).map(Cow::into_owned).collect(), row));
            if self.rows.len() >= self.keep.saturating_mul(2) {
                self.settle();
            }
        }
        self.key = key;
        Ok(())
    }

    /// Sorts what is held — stably, so ties stay in arrival order — and
    /// cuts it to `keep`.
    fn settle(&mut self) {
        let mut rows = std::mem::take(&mut self.rows);
        rows.sort_by(|a, b| self.cmp(&a.0, &b.0));
        rows.truncate(self.keep);
        self.full = rows.len() == self.keep;
        self.rows = rows;
    }

    fn finish(mut self) -> Vec<Row> {
        self.settle();
        self.rows.into_iter().map(|(_, row)| row).collect()
    }
}

/// One group of an aggregate query.
struct Group {
    keys: Vec<Value>,
    accs: Vec<Acc>,
}

/// Executes a query against the catalog.
pub fn execute(q: &Query, catalog: &Catalog) -> Result<ResultSet> {
    // Bind, clause by clause in the order the clauses run.
    let mut b = Binder {
        tables: vec![(q.from.effective_name(), catalog.get(&q.from.name)?)],
        group_printed: Vec::new(),
        aggs: Vec::new(),
    };
    let mut joins = Vec::with_capacity(q.joins.len());
    for join in &q.joins {
        let right = catalog.get(&join.table.name)?;
        b.tables.push((join.table.effective_name(), right));
        // ON sees the tables joined so far, as it did when it ran per pair.
        let on = b.bind(&join.on, Some(b.tables.len()))?;
        let equi = equi_conjunct(&on, b.tables.len() - 1).flatten();
        let mut probe = Index::default();
        if let Some((_, c)) = equi {
            // NULL equals nothing: such a row is never a candidate.
            for (i, row) in right.rows.iter().enumerate().filter(|r| !r.1[c].is_null()) {
                let hash = probe.hash(&row[c..=c], true);
                probe.slots.entry(hash).or_default().push(i);
            }
        }
        joins.push(JoinStep {
            left_outer: join.kind == JoinKind::Left,
            on,
            equi,
            probe,
        });
    }
    let rows = Some(b.tables.len());
    if q.where_clause
        .as_ref()
        .is_some_and(Expr::contains_aggregate)
    {
        return Err(SqlError::Plan("aggregates are not allowed in WHERE".into()));
    }
    let filter = q
        .where_clause
        .as_ref()
        .map(|p| b.bind(p, rows))
        .transpose()?;
    // Past WHERE an aggregate query evaluates per group; a plain one per
    // tuple, and never looks at HAVING.
    let (mut scope, mut keys, mut having) = (rows, Vec::new(), None);
    if q.is_aggregate() {
        if q.items.contains(&SelectItem::Star) {
            return Err(SqlError::Plan(
                "SELECT * cannot be combined with aggregation".into(),
            ));
        }
        keys = b.bind_all(&q.group_by, rows)?;
        b.group_printed = q.group_by.iter().map(ToString::to_string).collect();
        scope = None;
        having = q.having.as_ref().map(|h| b.bind(h, scope)).transpose()?;
    }
    let mut order = Vec::with_capacity(q.order_by.len());
    for (e, desc) in &q.order_by {
        // A bare name that is a select alias sorts by that item.
        let aliased = q.items.iter().rev().find_map(|item| match (item, e) {
            (SelectItem::Expr { expr, alias }, Expr::Column { table: None, name })
                if alias.as_ref() == Some(name) =>
            {
                Some(expr)
            }
            _ => None,
        });
        order.push((b.bind(aliased.unwrap_or(e), scope)?, *desc));
    }
    let (mut items, mut columns) = (Vec::new(), Vec::new());
    for item in &q.items {
        match item {
            SelectItem::Star => {
                for (t, (_, table)) in b.tables.iter().enumerate() {
                    for (c, def) in table.schema.columns().iter().enumerate() {
                        items.push(Bound::Col(t, c));
                        columns.push(def.name.clone());
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                items.push(b.bind(expr, scope)?);
                columns.push(alias.clone().unwrap_or_else(|| expr.to_string()));
            }
        }
    }

    // Run.
    let tables: Vec<&Table> = b.tables.iter().map(|t| t.1).collect();
    let widest = tables.iter().map(|t| t.schema.len()).max();
    let nulls = vec![Value::Null; widest.filter(|_| !joins.is_empty()).unwrap_or(0)];
    let scan = Scan {
        tables,
        joins: &joins,
        filter: &filter,
        nulls: &nulls,
    };
    let output = || Output {
        order: &order,
        items: &items,
        keep: q
            .limit
            .filter(|_| !q.distinct)
            .map_or(usize::MAX, |l| l.max(1)),
        rows: Vec::new(),
        full: false,
        key: Vec::new(),
    };
    let mut rows = if scope.is_some() {
        let mut out = output();
        scan.run(&mut |tuple| out.offer(&Ctx(tuple, &[], &[])))?;
        out.finish()
    } else {
        let new_group = |keys| Group {
            keys,
            accs: Vec::from_iter(b.aggs.iter().map(|(_, _, distinct)| Acc {
                seen: distinct.then(Default::default),
                ..Default::default()
            })),
        };
        // Without GROUP BY there is exactly one group, even over an empty
        // input (so COUNT(*) returns 0).
        let mut groups = Vec::from_iter(keys.is_empty().then(|| new_group(Vec::new())));
        let (mut index, mut key) = (Index::default(), Vec::new());
        scan.run(&mut |tuple| {
            let cx = &Ctx(tuple, &[], &[]);
            key.clear();
            for k in &keys {
                key.push(eval(k, cx)?);
            }
            let known = match keys.is_empty() {
                true => Some(0),
                false => index.find_or_add(&key, groups.len(), |i| &groups[i].keys),
            };
            let g = known.unwrap_or_else(|| {
                groups.push(new_group(key.drain(..).map(Cow::into_owned).collect()));
                groups.len() - 1
            });
            for (acc, (func, arg, _)) in groups[g].accs.iter_mut().zip(&b.aggs) {
                if acc.err.is_none() {
                    acc.err = acc.feed(*func, arg.as_ref(), cx).err();
                }
            }
            Ok(())
        })?;
        let mut out = output();
        for group in &groups {
            let cx = &Ctx(&[], &group.keys, &group.accs);
            if holds(&having, cx)? {
                out.offer(cx)?;
            }
        }
        out.finish()
    };
    if q.distinct {
        let (mut index, mut kept) = (Index::default(), Vec::<Row>::new());
        for row in rows {
            if index.find_or_add(&row, kept.len(), |i| &kept[i]).is_none() {
                kept.push(row);
            }
        }
        rows = kept;
    }
    rows.truncate(q.limit.unwrap_or(usize::MAX));
    Ok(ResultSet { columns, rows })
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

fn eval_func(name: &str, args: &[Cow<Value>]) -> Result<Value> {
    if !matches!(name, "upper" | "lower" | "length" | "abs" | "round") {
        return Err(SqlError::Plan(format!("unknown function '{name}'")));
    }
    let [arg] = args else {
        let got = args.len();
        return Err(SqlError::Exec(format!(
            "{name}() expects 1 argument(s), got {got}"
        )));
    };
    Ok(match (name, &**arg) {
        (_, Value::Null) => Value::Null,
        ("upper", Value::Str(s)) => Value::Str(s.to_uppercase()),
        ("lower", Value::Str(s)) => Value::Str(s.to_lowercase()),
        ("length", Value::Str(s)) => Value::Int(s.chars().count() as i64),
        ("abs", Value::Int(i)) => Value::Int(i.abs()),
        ("abs", Value::Float(f)) => Value::Float(f.abs()),
        ("round", Value::Int(i)) => Value::Int(*i),
        ("round", Value::Float(f)) => Value::Float(f.round()),
        ("abs" | "round", v) => {
            let name = name.to_uppercase();
            return Err(SqlError::Exec(format!("{name} on non-numeric {v}")));
        }
        (_, v) => {
            let name = name.to_uppercase();
            return Err(SqlError::Exec(format!("{name} on non-string {v}")));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::table::{Schema, Table};
    use crate::value::DataType;

    fn catalog() -> Catalog {
        let mut emp = Table::new(
            "emp",
            Schema::new(vec![
                ("name", DataType::Text),
                ("dept", DataType::Text),
                ("salary", DataType::Int),
                ("bonus", DataType::Int),
            ]),
        );
        let rows = [
            ("ada", "eng", 100, Some(10)),
            ("bob", "eng", 80, None),
            ("cas", "ops", 60, Some(5)),
            ("dan", "ops", 70, Some(7)),
            ("eve", "hr", 50, None),
        ];
        for (n, d, s, b) in rows {
            emp.insert(vec![
                Value::Str(n.into()),
                Value::Str(d.into()),
                Value::Int(s),
                b.map(Value::Int).unwrap_or(Value::Null),
            ])
            .unwrap();
        }
        let mut dept = Table::new(
            "dept",
            Schema::new(vec![("dname", DataType::Text), ("floor", DataType::Int)]),
        );
        for (d, f) in [("eng", 3), ("ops", 1), ("hr", 2)] {
            dept.insert(vec![Value::Str(d.into()), Value::Int(f)])
                .unwrap();
        }
        let mut c = Catalog::new();
        c.register(emp);
        c.register(dept);
        c
    }

    fn run(sql: &str) -> ResultSet {
        execute(&parse(sql).unwrap(), &catalog()).unwrap()
    }

    fn run_err(sql: &str) -> SqlError {
        execute(&parse(sql).unwrap(), &catalog()).unwrap_err()
    }

    #[test]
    fn select_star() {
        let rs = run("SELECT * FROM emp");
        assert_eq!(rs.rows.len(), 5);
        assert_eq!(rs.columns, vec!["name", "dept", "salary", "bonus"]);
    }

    #[test]
    fn where_filters() {
        let rs = run("SELECT name FROM emp WHERE salary > 60");
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn where_with_null_comparison_drops_rows() {
        // bonus IS NULL rows must not satisfy bonus > 0.
        let rs = run("SELECT name FROM emp WHERE bonus > 0");
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn is_null_predicate() {
        let rs = run("SELECT name FROM emp WHERE bonus IS NULL ORDER BY name");
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Str("bob".into())],
                vec![Value::Str("eve".into())]
            ]
        );
    }

    #[test]
    fn projection_expressions_and_alias() {
        let rs = run("SELECT name, salary + 10 AS bumped FROM emp WHERE name = 'ada'");
        assert_eq!(rs.columns, vec!["name", "bumped"]);
        assert_eq!(rs.rows[0][1], Value::Int(110));
    }

    #[test]
    fn order_by_asc_desc_and_limit() {
        let rs = run("SELECT name FROM emp ORDER BY salary DESC LIMIT 2");
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Str("ada".into())],
                vec![Value::Str("bob".into())]
            ]
        );
        let rs = run("SELECT name FROM emp ORDER BY dept ASC, salary DESC");
        assert_eq!(rs.rows[0][0], Value::Str("ada".into()));
    }

    #[test]
    fn order_by_alias() {
        let rs = run("SELECT name, salary * 2 AS d FROM emp ORDER BY d DESC LIMIT 1");
        assert_eq!(rs.rows[0][0], Value::Str("ada".into()));
    }

    #[test]
    fn group_by_with_aggregates() {
        let rs = run(
            "SELECT dept, COUNT(*), SUM(salary), AVG(salary) FROM emp GROUP BY dept ORDER BY dept",
        );
        assert_eq!(rs.rows.len(), 3);
        // eng: 2 rows, sum 180, avg 90.
        assert_eq!(rs.rows[0][0], Value::Str("eng".into()));
        assert_eq!(rs.rows[0][1], Value::Int(2));
        assert_eq!(rs.rows[0][2], Value::Int(180));
        assert_eq!(rs.rows[0][3], Value::Float(90.0));
    }

    #[test]
    fn count_skips_nulls_but_count_star_does_not() {
        let rs = run("SELECT COUNT(*), COUNT(bonus) FROM emp");
        assert_eq!(rs.rows[0], vec![Value::Int(5), Value::Int(3)]);
    }

    #[test]
    fn count_distinct() {
        let rs = run("SELECT COUNT(DISTINCT dept) FROM emp");
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn aggregate_over_empty_input_returns_one_row() {
        let rs = run("SELECT COUNT(*), SUM(salary), MIN(salary) FROM emp WHERE salary > 999");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert!(rs.rows[0][1].is_null());
        assert!(rs.rows[0][2].is_null());
    }

    #[test]
    fn having_filters_groups() {
        let rs = run("SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn order_groups_by_aggregate() {
        let rs = run("SELECT dept FROM emp GROUP BY dept ORDER BY SUM(salary) DESC LIMIT 1");
        assert_eq!(rs.rows[0][0], Value::Str("eng".into()));
    }

    #[test]
    fn min_max_on_strings() {
        let rs = run("SELECT MIN(name), MAX(name) FROM emp");
        assert_eq!(
            rs.rows[0],
            vec![Value::Str("ada".into()), Value::Str("eve".into())]
        );
    }

    #[test]
    fn join_with_aliases() {
        let rs = run(
            "SELECT e.name, d.floor FROM emp e JOIN dept d ON e.dept = d.dname \
             WHERE d.floor >= 2 ORDER BY e.name",
        );
        assert_eq!(rs.rows.len(), 3); // ada, bob (eng, floor 3), eve (hr, 2)
        assert_eq!(rs.rows[0][0], Value::Str("ada".into()));
        assert_eq!(rs.rows[0][1], Value::Int(3));
    }

    #[test]
    fn join_then_group() {
        let rs = run(
            "SELECT d.floor, COUNT(*) FROM emp e JOIN dept d ON e.dept = d.dname \
             GROUP BY d.floor ORDER BY d.floor",
        );
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn like_in_between() {
        assert_eq!(
            run("SELECT name FROM emp WHERE name LIKE 'a%'").rows.len(),
            1
        );
        assert_eq!(
            run("SELECT name FROM emp WHERE dept IN ('eng', 'hr')")
                .rows
                .len(),
            3
        );
        assert_eq!(
            run("SELECT name FROM emp WHERE salary BETWEEN 60 AND 80")
                .rows
                .len(),
            3
        );
        assert_eq!(
            run("SELECT name FROM emp WHERE salary NOT BETWEEN 60 AND 80")
                .rows
                .len(),
            2
        );
    }

    #[test]
    fn scalar_functions_in_projection() {
        let rs = run("SELECT upper(name), length(dept) FROM emp WHERE name = 'ada'");
        assert_eq!(rs.rows[0], vec![Value::Str("ADA".into()), Value::Int(3)]);
    }

    #[test]
    fn errors_surface() {
        assert!(matches!(run_err("SELECT * FROM nope"), SqlError::Plan(_)));
        assert!(matches!(
            run_err("SELECT missing FROM emp"),
            SqlError::Plan(_)
        ));
        assert!(matches!(
            run_err("SELECT name FROM emp WHERE SUM(salary) > 1"),
            SqlError::Plan(_)
        ));
        assert!(matches!(
            run_err("SELECT salary FROM emp GROUP BY dept"),
            SqlError::Plan(_)
        ));
        assert!(matches!(
            run_err("SELECT * FROM emp GROUP BY dept"),
            SqlError::Plan(_)
        ));
        assert!(matches!(
            run_err("SELECT name FROM emp WHERE salary / 0 > 1"),
            SqlError::Exec(_)
        ));
    }

    #[test]
    fn ambiguous_column_in_join_errors() {
        // Both sides have a column named "dname"? No — craft one: emp.dept
        // vs dept alias on both sides of a self join.
        let err = execute(
            &parse("SELECT dname FROM dept a JOIN dept b ON a.floor = b.floor").unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Plan(_)), "{err}");
    }

    #[test]
    fn distinct_deduplicates_rows() {
        let rs = run("SELECT DISTINCT dept FROM emp ORDER BY dept");
        assert_eq!(rs.rows.len(), 3);
        let rs = run("SELECT dept FROM emp ORDER BY dept");
        assert_eq!(rs.rows.len(), 5);
    }

    #[test]
    fn distinct_applies_before_limit() {
        let rs = run("SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 2");
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Str("eng".into())],
                vec![Value::Str("hr".into())]
            ]
        );
    }

    #[test]
    fn distinct_applies_before_limit_in_the_aggregate_path_too() {
        // Per-dept counts are 2, 2, 1: cutting to two groups first and
        // de-duplicating after would leave the single row `2`.
        let rs = run("SELECT DISTINCT COUNT(*) FROM emp GROUP BY dept LIMIT 2");
        assert_eq!(rs.rows, vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
    }

    #[test]
    fn order_by_limit_gives_ties_to_the_earlier_row() {
        // cas and dan tie on dept; a stable sort of everything puts cas first.
        let rs = run("SELECT name FROM emp ORDER BY dept DESC LIMIT 1");
        assert_eq!(rs.rows, vec![vec![Value::Str("cas".into())]]);
        let rs = run("SELECT name FROM emp ORDER BY dept LIMIT 3");
        let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, ["'ada'", "'bob'", "'eve'"]);
    }

    fn big_ints(values: &[i64]) -> Catalog {
        let mut t = Table::new("big", Schema::new(vec![("x", DataType::Int)]));
        for &v in values {
            t.insert(vec![Value::Int(v)]).unwrap();
        }
        let mut cat = Catalog::new();
        cat.register(t);
        cat
    }

    #[test]
    fn integer_sum_is_exact_past_two_to_the_53() {
        // 2^53 + 1 is not an f64: a sum that goes through one loses the 1.
        let cat = big_ints(&[1 << 53, 1]);
        let rs = execute(&parse("SELECT SUM(x), AVG(x) FROM big").unwrap(), &cat).unwrap();
        assert_eq!(format!("{:?}", rs.rows[0][0]), "Int(9007199254740993)");
        assert!(matches!(rs.rows[0][1], Value::Float(_)));
    }

    #[test]
    fn integer_sum_overflow_is_an_error_as_it_is_for_plus() {
        let cat = big_ints(&[i64::MAX, 1]);
        let err = execute(&parse("SELECT SUM(x) FROM big").unwrap(), &cat).unwrap_err();
        assert_eq!(err, SqlError::Exec("integer overflow in SUM".into()));
        // A float in the column makes it a float sum, which cannot overflow.
        let rs = execute(&parse("SELECT SUM(x + 0.5) FROM big").unwrap(), &cat).unwrap();
        assert!(matches!(rs.rows[0][0], Value::Float(_)));
    }

    #[test]
    fn having_and_order_by_take_in_between_and_like() {
        let depts = |sql: &str| -> Vec<String> {
            let rs = run(sql);
            rs.rows.iter().map(|r| r[0].to_string()).collect()
        };
        assert_eq!(
            depts(
                "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) BETWEEN 2 AND 3 ORDER BY dept"
            ),
            ["'eng'", "'ops'"]
        );
        assert_eq!(
            depts("SELECT dept FROM emp GROUP BY dept HAVING dept IN ('eng', 'hr') ORDER BY dept"),
            ["'eng'", "'hr'"]
        );
        assert_eq!(
            depts("SELECT dept FROM emp GROUP BY dept ORDER BY dept LIKE 'o%' DESC, dept"),
            ["'ops'", "'eng'", "'hr'"]
        );
    }

    #[test]
    fn name_errors_are_raised_at_bind_even_if_no_row_reaches_them() {
        // All rows filtered, an empty table, an empty join: no row ever gets
        // to the bad reference, and it is a plan error all the same.
        let mut cat = catalog();
        cat.register(Table::new(
            "nobody",
            Schema::new(vec![("name", DataType::Text)]),
        ));
        for sql in [
            "SELECT missing FROM emp WHERE salary > 999",
            "SELECT missing FROM nobody",
            "SELECT name FROM nobody a JOIN nobody b ON a.name = b.name",
            "SELECT e.name FROM emp e JOIN nobody n ON e.name = n.nom",
            "SELECT salary FROM nobody n JOIN emp e ON n.name = e.name GROUP BY dept",
        ] {
            let err = execute(&parse(sql).unwrap(), &cat).unwrap_err();
            assert!(matches!(err, SqlError::Plan(_)), "{sql}: {err}");
        }
    }

    #[test]
    fn left_join_keeps_unmatched_left_rows() {
        // Join dept -> emp on a value with no match ("legal" is absent).
        let mut cat = catalog();
        let mut lonely = Table::new("lonely", Schema::new(vec![("dname", DataType::Text)]));
        lonely.insert(vec![Value::Str("legal".into())]).unwrap();
        lonely.insert(vec![Value::Str("eng".into())]).unwrap();
        cat.register(lonely);
        let rs = execute(
            &parse(
                "SELECT l.dname, e.name FROM lonely l LEFT JOIN emp e ON l.dname = e.dept                  ORDER BY l.dname",
            )
            .unwrap(),
            &cat,
        )
        .unwrap();
        // eng matches 2 employees; legal survives with NULL.
        assert_eq!(rs.rows.len(), 3);
        let legal_row = rs
            .rows
            .iter()
            .find(|r| r[0] == Value::Str("legal".into()))
            .expect("legal row dropped by LEFT JOIN");
        assert!(legal_row[1].is_null());
    }

    #[test]
    fn inner_join_drops_unmatched_rows() {
        let mut cat = catalog();
        let mut lonely = Table::new("lonely", Schema::new(vec![("dname", DataType::Text)]));
        lonely.insert(vec![Value::Str("legal".into())]).unwrap();
        cat.register(lonely);
        let rs = execute(
            &parse("SELECT l.dname FROM lonely l JOIN emp e ON l.dname = e.dept").unwrap(),
            &cat,
        )
        .unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn group_by_expression_key() {
        let rs =
            run("SELECT salary / 50, COUNT(*) FROM emp GROUP BY salary / 50 ORDER BY salary / 50");
        // Buckets: 50/50=1 (eve, cas(60→1), dan(70→1)), 80/50=1... compute:
        // 100/50=2, 80/50=1, 60/50=1, 70/50=1, 50/50=1 → bucket 1 ×4, 2 ×1.
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(4)]);
        assert_eq!(rs.rows[1], vec![Value::Int(2), Value::Int(1)]);
    }
}
