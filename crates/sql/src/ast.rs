//! Abstract syntax tree for the supported SQL subset, plus the canonical
//! printer used for exact-match comparison in the text-to-SQL evaluation.

use std::fmt;

use crate::value::Value;

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// Equality.
    Eq,
    /// Inequality.
    NotEq,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    LtEq,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    GtEq,
    /// Addition / string concatenation.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl BinOp {
    /// The SQL spelling.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT — with `None` argument this is `COUNT(*)`.
    Count,
    /// SUM over non-null values.
    Sum,
    /// AVG over non-null values.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AggFunc {
    /// The SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// Parses an aggregate name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A possibly-qualified column reference.
    Column {
        /// Table name or alias qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation `NOT e`.
    Not(Box<Expr>),
    /// Arithmetic negation `-e`.
    Neg(Box<Expr>),
    /// Aggregate call.
    Agg {
        /// Which aggregate.
        func: AggFunc,
        /// Argument; `None` means `COUNT(*)`.
        arg: Option<Box<Expr>>,
        /// DISTINCT modifier (COUNT only).
        distinct: bool,
    },
    /// Scalar function call (UPPER, LOWER, LENGTH, ABS).
    Func {
        /// Function name (lowercase).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `e IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `e [NOT] IN (v1, v2, ...)`.
    InList {
        /// Operand.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `e [NOT] BETWEEN lo AND hi`.
    Between {
        /// Operand.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `e [NOT] LIKE pattern`.
    Like {
        /// Operand.
        expr: Box<Expr>,
        /// Pattern with `%`/`_` wildcards.
        pattern: Box<Expr>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
}

impl Expr {
    /// Convenience constructor for a bare column.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            table: None,
            name: name.to_lowercase(),
        }
    }

    /// Convenience constructor for a qualified column.
    pub fn qcol(table: &str, name: &str) -> Expr {
        Expr::Column {
            table: Some(table.to_lowercase()),
            name: name.to_lowercase(),
        }
    }

    /// Convenience constructor for a binary operation.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// The operand expressions, in evaluation order.
    pub(crate) fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Literal(_) | Expr::Column { .. } => vec![],
            Expr::Binary { left, right, .. } => vec![left, right],
            Expr::Not(e) | Expr::Neg(e) => vec![e],
            Expr::Agg { arg, .. } => arg.iter().map(|a| &**a).collect(),
            Expr::Func { args, .. } => args.iter().collect(),
            Expr::IsNull { expr, .. } => vec![expr],
            Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
            Expr::Between {
                expr, low, high, ..
            } => vec![expr, low, high],
            Expr::Like { expr, pattern, .. } => vec![expr, pattern],
        }
    }

    /// True when the expression contains an aggregate call anywhere.
    pub fn contains_aggregate(&self) -> bool {
        matches!(self, Expr::Agg { .. })
            || self.children().into_iter().any(Expr::contains_aggregate)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Column { table, name } => match table {
                Some(t) => write!(f, "{t}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Binary { op, left, right } => {
                // Fully parenthesized canonical form: deterministic and
                // unambiguous, which is what exact-match needs.
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Agg {
                func,
                arg,
                distinct,
            } => match arg {
                None => write!(f, "{}(*)", func.name()),
                Some(a) if *distinct => write!(f, "{}(DISTINCT {a})", func.name()),
                Some(a) => write!(f, "{}({a})", func.name()),
            },
            Expr::Func { name, args } => {
                let parts: Vec<String> = args.iter().map(ToString::to_string).collect();
                write!(f, "{}({})", name.to_uppercase(), parts.join(", "))
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let parts: Vec<String> = list.iter().map(ToString::to_string).collect();
                write!(
                    f,
                    "({expr} {}IN ({}))",
                    if *negated { "NOT " } else { "" },
                    parts.join(", ")
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
        }
    }
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Star,
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional `AS alias`.
        alias: Option<String>,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Star => write!(f, "*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => write!(f, "{expr} AS {a}"),
                None => write!(f, "{expr}"),
            },
        }
    }
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Base table name.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is addressed by in the query.
    pub fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Join flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// INNER JOIN: only matching row pairs.
    Inner,
    /// LEFT JOIN: unmatched left rows survive with NULL right columns.
    Left,
}

/// A JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join flavor.
    pub kind: JoinKind,
    /// Joined table.
    pub table: TableRef,
    /// Join condition.
    pub on: Expr,
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// SELECT DISTINCT flag.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// Base table.
    pub from: TableRef,
    /// INNER JOINs, in order.
    pub joins: Vec<Join>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY expressions with descending flags.
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

impl Query {
    /// A minimal `SELECT * FROM name` query for building programmatically.
    pub fn select_star(table: &str) -> Query {
        Query {
            distinct: false,
            items: vec![SelectItem::Star],
            from: TableRef {
                name: table.to_lowercase(),
                alias: None,
            },
            joins: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        }
    }

    /// True when any select item, HAVING, or ORDER BY uses an aggregate, or
    /// GROUP BY is present — i.e. the query needs the aggregate pipeline.
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty()
            || self.items.iter().any(|i| match i {
                SelectItem::Star => false,
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            })
            || self
                .having
                .as_ref()
                .map(Expr::contains_aggregate)
                .unwrap_or(false)
            || self.order_by.iter().any(|(e, _)| e.contains_aggregate())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let items: Vec<String> = self.items.iter().map(ToString::to_string).collect();
        write!(
            f,
            "SELECT {}{} FROM {}",
            if self.distinct { "DISTINCT " } else { "" },
            items.join(", "),
            self.from
        )?;
        for j in &self.joins {
            let kw = match j.kind {
                JoinKind::Inner => "JOIN",
                JoinKind::Left => "LEFT JOIN",
            };
            write!(f, " {kw} {} ON {}", j.table, j.on)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            let gs: Vec<String> = self.group_by.iter().map(ToString::to_string).collect();
            write!(f, " GROUP BY {}", gs.join(", "))?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            let os: Vec<String> = self
                .order_by
                .iter()
                .map(|(e, desc)| format!("{e}{}", if *desc { " DESC" } else { " ASC" }))
                .collect();
            write!(f, " ORDER BY {}", os.join(", "))?;
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_canonical_query() {
        let q = Query {
            distinct: false,
            items: vec![
                SelectItem::Expr {
                    expr: Expr::col("name"),
                    alias: None,
                },
                SelectItem::Expr {
                    expr: Expr::Agg {
                        func: AggFunc::Count,
                        arg: None,
                        distinct: false,
                    },
                    alias: Some("n".into()),
                },
            ],
            from: TableRef {
                name: "people".into(),
                alias: None,
            },
            joins: vec![],
            where_clause: Some(Expr::binary(
                BinOp::Gt,
                Expr::col("age"),
                Expr::Literal(Value::Int(30)),
            )),
            group_by: vec![Expr::col("name")],
            having: None,
            order_by: vec![(Expr::col("name"), false)],
            limit: Some(5),
        };
        assert_eq!(
            q.to_string(),
            "SELECT name, COUNT(*) AS n FROM people WHERE (age > 30) \
             GROUP BY name ORDER BY name ASC LIMIT 5"
        );
    }

    #[test]
    fn aggregate_detection() {
        let q = Query::select_star("t");
        assert!(!q.is_aggregate());
        let mut q2 = Query::select_star("t");
        q2.items = vec![SelectItem::Expr {
            expr: Expr::Agg {
                func: AggFunc::Sum,
                arg: Some(Box::new(Expr::col("x"))),
                distinct: false,
            },
            alias: None,
        }];
        assert!(q2.is_aggregate());
    }

    #[test]
    fn contains_aggregate_recurses() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::Literal(Value::Int(1)),
            Expr::Agg {
                func: AggFunc::Max,
                arg: Some(Box::new(Expr::col("x"))),
                distinct: false,
            },
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn table_ref_effective_name() {
        let t = TableRef {
            name: "people".into(),
            alias: Some("p".into()),
        };
        assert_eq!(t.effective_name(), "p");
    }
}
