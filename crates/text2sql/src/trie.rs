//! The candidate-query space: every SQL query the schema-specialized
//! template grammar can produce, stored as a word-level trie. This is what
//! makes PICARD-style constrained decoding *complete* here: a decoded
//! token sequence is valid iff it walks a path of this trie.

use std::collections::{BTreeSet, HashMap};

use lm4db_corpus::Domain;

use crate::workload::THRESHOLDS;

/// A trie over lowercase word units (the output of
/// `lm4db_tokenize::pretokenize` applied to a SQL string).
#[derive(Debug, Default)]
pub struct SqlTrie {
    root: Node,
    size: usize,
}

#[derive(Debug, Default)]
struct Node {
    children: HashMap<String, Node>,
    /// The canonical SQL string, present iff a query ends here.
    terminal: Option<String>,
}

impl SqlTrie {
    /// Builds the trie for every query in the template space of `domain`.
    pub fn for_domain(domain: &Domain) -> Self {
        let mut trie = SqlTrie::default();
        for sql in enumerate_queries(domain) {
            trie.insert(&sql);
        }
        trie
    }

    /// Inserts one SQL string (unit sequence = pretokenized form).
    pub fn insert(&mut self, sql: &str) {
        let units = lm4db_tokenize::pretokenize::pretokenize(sql);
        let mut node = &mut self.root;
        for u in &units {
            node = node.children.entry(u.clone()).or_default();
        }
        if node.terminal.is_none() {
            self.size += 1;
        }
        node.terminal = Some(sql.to_string());
    }

    /// Number of distinct queries stored.
    pub fn len(&self) -> usize {
        self.size
    }

    /// True when no queries are stored.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    fn walk(&self, units: &[String]) -> Option<&Node> {
        let mut node = &self.root;
        for u in units {
            node = node.children.get(u)?;
        }
        Some(node)
    }

    /// Is `units` (+ an optional partial last word) a prefix of some stored
    /// query?
    pub fn is_valid_prefix(&self, units: &[String], partial: Option<&str>) -> bool {
        let Some(node) = self.walk(units) else {
            return false;
        };
        match partial {
            None => true,
            Some(p) => node.children.keys().any(|w| w.starts_with(p)),
        }
    }

    /// May a query legally end after `units`?
    pub fn is_complete(&self, units: &[String]) -> bool {
        self.walk(units)
            .map(|n| n.terminal.is_some())
            .unwrap_or(false)
    }

    /// The canonical SQL for an exactly-matching unit sequence.
    pub fn lookup(&self, units: &[String]) -> Option<&str> {
        self.walk(units).and_then(|n| n.terminal.as_deref())
    }

    /// The allowed next words after `units`, in no particular order (none
    /// when `units` leaves the trie).
    pub fn children(&self, units: &[String]) -> impl Iterator<Item = &str> {
        self.walk(units)
            .into_iter()
            .flat_map(|n| n.children.keys().map(String::as_str))
    }

    /// The allowed next words after `units`, sorted.
    pub fn next_words(&self, units: &[String]) -> Vec<&str> {
        let mut words: Vec<&str> = self.children(units).collect();
        words.sort_unstable();
        words
    }

    /// Every distinct word on an edge of the trie, sorted.
    pub fn words(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            for (word, child) in &node.children {
                out.insert(word.as_str());
                stack.push(child);
            }
        }
        out
    }

    /// Iterates over every stored SQL string (for exhaustive checks).
    pub fn all_queries(&self) -> Vec<&str> {
        let mut out = Vec::with_capacity(self.size);
        fn rec<'a>(node: &'a Node, out: &mut Vec<&'a str>) {
            if let Some(sql) = &node.terminal {
                out.push(sql);
            }
            let mut keys: Vec<&String> = node.children.keys().collect();
            keys.sort();
            for k in keys {
                rec(&node.children[k], out);
            }
        }
        rec(&self.root, &mut out);
        out
    }
}

/// Enumerates the full template query space for a domain — the same
/// templates `workload::generate` samples from.
pub fn enumerate_queries(domain: &Domain) -> Vec<String> {
    let table = &domain.table.name;
    let key = &domain.key_col;
    let (jcol, lcol) = &domain.join_on;
    let lookup = &domain.lookup.name;
    let mut out = Vec::new();

    out.push(format!("SELECT {key} FROM {table}"));
    for tcol in &domain.text_cols {
        for v in domain.distinct_text_values(tcol) {
            out.push(format!("SELECT {key} FROM {table} WHERE ({tcol} = '{v}')"));
            out.push(format!(
                "SELECT COUNT(*) FROM {table} WHERE ({tcol} = '{v}')"
            ));
        }
    }
    for ncol in &domain.num_cols {
        for t in THRESHOLDS {
            for op in ["<", ">"] {
                out.push(format!("SELECT {key} FROM {table} WHERE ({ncol} {op} {t})"));
            }
        }
        for gcol in &domain.text_cols {
            out.push(format!(
                "SELECT {gcol}, AVG({ncol}) FROM {table} GROUP BY {gcol}"
            ));
        }
        for dir in ["DESC", "ASC"] {
            out.push(format!(
                "SELECT {key} FROM {table} ORDER BY {ncol} {dir} LIMIT 1"
            ));
        }
        out.push(format!("SELECT MAX({ncol}) FROM {table}"));
    }
    for c in domain.lookup.schema.columns() {
        if &c.name == lcol {
            continue;
        }
        for t in THRESHOLDS {
            out.push(format!(
                "SELECT t.{key} FROM {table} AS t JOIN {lookup} AS j ON (t.{jcol} = j.{lcol}) \
                 WHERE (j.{} > {t})",
                c.name
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm4db_corpus::{make_domain, DomainKind};
    use lm4db_sql::parse;
    use lm4db_tokenize::pretokenize::pretokenize;

    fn trie() -> (lm4db_corpus::Domain, SqlTrie) {
        let d = make_domain(DomainKind::Employees, 30, 7);
        let t = SqlTrie::for_domain(&d);
        (d, t)
    }

    #[test]
    fn trie_contains_hundreds_of_candidates() {
        let (_, t) = trie();
        assert!(t.len() > 50, "only {} candidates", t.len());
    }

    #[test]
    fn every_candidate_parses_and_is_canonical() {
        let (_, t) = trie();
        for sql in t.all_queries() {
            let printed = parse(sql).expect("candidate must parse").to_string();
            assert_eq!(printed, sql, "candidate not canonical");
        }
    }

    #[test]
    fn workload_gold_queries_are_in_the_trie() {
        let (d, t) = trie();
        for ex in crate::workload::generate(&d, 60, 3) {
            let units = pretokenize(&ex.sql);
            assert_eq!(
                t.lookup(&units),
                Some(ex.sql.as_str()),
                "gold missing from trie: {}",
                ex.sql
            );
        }
    }

    #[test]
    fn prefixes_validate_and_garbage_does_not() {
        let (_, t) = trie();
        let units = |s: &str| pretokenize(s);
        assert!(t.is_valid_prefix(&units("select name from"), None));
        assert!(t.is_valid_prefix(&units("select"), Some("na")));
        assert!(!t.is_valid_prefix(&units("select banana"), None));
        assert!(!t.is_valid_prefix(&units("from select"), None));
        assert!(!t.is_valid_prefix(&units("select name from"), Some("zzz")));
    }

    #[test]
    fn completeness_only_at_query_ends() {
        let (_, t) = trie();
        let full = pretokenize("select name from employees");
        assert!(t.is_complete(&full));
        let partial = pretokenize("select name from");
        assert!(!t.is_complete(&partial));
    }

    #[test]
    fn next_words_from_root_is_select() {
        let (_, t) = trie();
        assert_eq!(t.next_words(&[]), vec!["select"]);
    }

    #[test]
    fn words_are_the_units_of_the_stored_queries() {
        let (_, t) = trie();
        let units: BTreeSet<String> = t.all_queries().into_iter().flat_map(pretokenize).collect();
        let words: BTreeSet<String> = t.words().into_iter().map(str::to_string).collect();
        assert_eq!(words, units);
    }

    #[test]
    fn lookup_recovers_original_casing() {
        let (_, t) = trie();
        let units = pretokenize("SELECT name FROM employees");
        assert_eq!(t.lookup(&units), Some("SELECT name FROM employees"));
    }
}
