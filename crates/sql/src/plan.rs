//! Logical plan rendering (EXPLAIN): the query's clauses as an operator
//! tree, innermost scan last — printed from the AST alone, so it names
//! logical operators, not `exec`'s choices (hash probe or loop, top-k).

use std::fmt::Write as _;

use crate::ast::{JoinKind, Query, SelectItem};

/// Renders the logical plan of `q` as an indented operator tree.
///
/// Scans and joins at the bottom, then filter, grouping/aggregation,
/// having, projection (+ DISTINCT), sort, and limit. (`exec` evaluates sort
/// keys on the tuple or group, not the projected row; same rows.)
pub fn explain(q: &Query) -> String {
    // Build the operator stack top-down (outermost first).
    let mut ops: Vec<String> = Vec::new();
    if let Some(l) = q.limit {
        ops.push(format!("Limit {l}"));
    }
    if !q.order_by.is_empty() {
        let keys: Vec<String> = q
            .order_by
            .iter()
            .map(|(e, desc)| format!("{e} {}", if *desc { "DESC" } else { "ASC" }))
            .collect();
        ops.push(format!("Sort [{}]", keys.join(", ")));
    }
    let items: Vec<String> = q.items.iter().map(ToString::to_string).collect();
    ops.push(format!(
        "Project{} [{}]",
        if q.distinct { " DISTINCT" } else { "" },
        items.join(", ")
    ));
    if let Some(h) = &q.having {
        ops.push(format!("Having {h}"));
    }
    if q.is_aggregate() {
        let keys: Vec<String> = q.group_by.iter().map(ToString::to_string).collect();
        if keys.is_empty() {
            ops.push("Aggregate (single group)".to_string());
        } else {
            ops.push(format!("Aggregate group by [{}]", keys.join(", ")));
        }
    }
    if let Some(w) = &q.where_clause {
        ops.push(format!("Filter {w}"));
    }

    let mut out = String::new();
    let mut depth = 0;
    for op in &ops {
        let _ = writeln!(out, "{}{op}", "  ".repeat(depth));
        depth += 1;
    }
    // Join tree (left-deep), innermost last.
    for join in q.joins.iter().rev() {
        let kw = match join.kind {
            JoinKind::Inner => "Join",
            JoinKind::Left => "LeftJoin",
        };
        let _ = writeln!(
            out,
            "{}{kw} {} ON {}",
            "  ".repeat(depth),
            join.table,
            join.on
        );
        depth += 1;
    }
    let _ = writeln!(out, "{}Scan {}", "  ".repeat(depth), q.from);
    for join in &q.joins {
        let _ = writeln!(out, "{}Scan {}", "  ".repeat(depth), join.table);
    }
    out
}

/// True when the query projects only `*` (useful to warn about wide scans).
pub fn is_star_only(q: &Query) -> bool {
    q.items.iter().all(|i| matches!(i, SelectItem::Star))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn simple_scan_plan() {
        let plan = explain(&parse("SELECT * FROM t").unwrap());
        assert_eq!(plan.trim(), "Project [*]\n  Scan t");
    }

    #[test]
    fn full_pipeline_plan_order() {
        let q = parse(
            "SELECT dept, COUNT(*) FROM emp WHERE age > 30 GROUP BY dept \
             HAVING COUNT(*) > 1 ORDER BY dept LIMIT 5",
        )
        .unwrap();
        let plan = explain(&q);
        let idx = |needle: &str| {
            plan.find(needle)
                .unwrap_or_else(|| panic!("missing {needle} in:\n{plan}"))
        };
        assert!(idx("Limit") < idx("Sort"));
        assert!(idx("Sort") < idx("Project"));
        assert!(idx("Project") < idx("Having"));
        assert!(idx("Having") < idx("Aggregate"));
        assert!(idx("Aggregate") < idx("Filter"));
        assert!(idx("Filter") < idx("Scan emp"));
    }

    #[test]
    fn join_plan_lists_both_scans() {
        let q = parse("SELECT a.x FROM a JOIN b ON a.id = b.id").unwrap();
        let plan = explain(&q);
        assert!(plan.contains("Join b"));
        assert!(plan.contains("Scan a"));
        assert!(plan.contains("Scan b"));
    }

    #[test]
    fn left_join_and_distinct_are_labeled() {
        let q = parse("SELECT DISTINCT a.x FROM a LEFT JOIN b ON a.id = b.id").unwrap();
        let plan = explain(&q);
        assert!(plan.contains("LeftJoin"));
        assert!(plan.contains("Project DISTINCT"));
    }

    #[test]
    fn star_detection() {
        assert!(is_star_only(&parse("SELECT * FROM t").unwrap()));
        assert!(!is_star_only(&parse("SELECT x FROM t").unwrap()));
    }
}
