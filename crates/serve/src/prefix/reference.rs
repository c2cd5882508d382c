//! The prefix trie as it was before it kept its LRU order: `BTreeMap`
//! children, and an eviction that scans the whole forest for the oldest
//! leaf (`oldest_leaf`), then searches for it again level by level
//! (`remove_leaf`). Kept verbatim as the oracle `differential.rs` drives
//! beside the product; the one addition is `evicted`, the `(depth, token)`
//! of every leaf removed, in order.

use std::collections::BTreeMap;

use lm4db_transformer::{GptModel, KvCache};

struct Node {
    /// Flattened per-layer `[k, v]` rows for this position, in the layout
    /// of [`KvCache::position_kv`].
    kv: Vec<f32>,
    children: BTreeMap<usize, Node>,
    last_used: u64,
}

/// Trie of cached prompt prefixes. See the module docs.
pub struct PrefixCache {
    children: BTreeMap<usize, Node>,
    max_tokens: usize,
    stored: usize,
    clock: u64,
    pub evicted: Vec<(usize, usize)>,
}

impl PrefixCache {
    /// An empty cache holding at most `max_tokens` positions; `0` disables
    /// caching entirely.
    pub fn new(max_tokens: usize) -> Self {
        PrefixCache {
            children: BTreeMap::new(),
            max_tokens,
            stored: 0,
            clock: 0,
            evicted: Vec::new(),
        }
    }

    /// Whether the cache can hold anything at all.
    pub fn enabled(&self) -> bool {
        self.max_tokens > 0
    }

    /// Number of cached positions (trie nodes).
    pub fn nodes(&self) -> usize {
        self.stored
    }

    /// Restores the longest cached prefix of `tokens` into `cache` (which
    /// must be empty) and returns the number of restored positions. Marks
    /// every node on the path as recently used.
    pub fn restore_into(
        &mut self,
        model: &GptModel,
        tokens: &[usize],
        cache: &mut KvCache,
    ) -> usize {
        assert!(cache.is_empty(), "restore_into requires an empty KvCache");
        if !self.enabled() {
            return 0;
        }
        let mut clock = self.clock;
        let mut children = &mut self.children;
        let mut restored = 0;
        for &tok in tokens {
            match children.get_mut(&tok) {
                None => break,
                Some(node) => {
                    clock += 1;
                    node.last_used = clock;
                    cache.push_position(model, tok, &node.kv);
                    restored += 1;
                    children = &mut node.children;
                }
            }
        }
        self.clock = clock;
        restored
    }

    /// Inserts the first `upto` positions of `cache` (which must have fed
    /// at least that many tokens), extracting each position's key/value
    /// rows into the trie. Existing nodes are refreshed, not overwritten —
    /// their rows are identical by construction.
    pub fn insert(&mut self, model: &GptModel, cache: &KvCache, upto: usize) {
        if !self.enabled() {
            return;
        }
        assert!(upto <= cache.len(), "insert beyond cache length");
        let tokens = &cache.tokens()[..upto];
        let mut clock = self.clock;
        let mut stored = self.stored;
        let mut children = &mut self.children;
        for (t, &tok) in tokens.iter().enumerate() {
            clock += 1;
            let node = children.entry(tok).or_insert_with(|| {
                stored += 1;
                Node {
                    kv: cache.position_kv(model, t),
                    children: BTreeMap::new(),
                    last_used: 0,
                }
            });
            node.last_used = clock;
            children = &mut node.children;
        }
        self.clock = clock;
        self.stored = stored;
        self.evict();
    }

    /// Evicts least-recently-used leaves until the token budget holds.
    fn evict(&mut self) {
        while self.stored > self.max_tokens {
            let Some(age) = Self::oldest_leaf(&self.children) else {
                break;
            };
            if let Some(leaf) = Self::remove_leaf(&mut self.children, age, 1) {
                self.stored -= 1;
                self.evicted.push(leaf);
            } else {
                break;
            }
        }
    }

    /// Age of the least-recently-used leaf in the forest, if any. Ages are
    /// unique (the clock advances on every touch), so the minimum
    /// identifies exactly one leaf.
    fn oldest_leaf(children: &BTreeMap<usize, Node>) -> Option<u64> {
        children
            .values()
            .map(|n| {
                if n.children.is_empty() {
                    n.last_used
                } else {
                    Self::oldest_leaf(&n.children).expect("non-empty subtree has a leaf")
                }
            })
            .min()
    }

    /// Removes the unique leaf whose age is `age`; returns its
    /// `(depth, token)` if it was found.
    fn remove_leaf(
        children: &mut BTreeMap<usize, Node>,
        age: u64,
        depth: usize,
    ) -> Option<(usize, usize)> {
        let key = children
            .iter()
            .find(|(_, n)| {
                let leaf_age = if n.children.is_empty() {
                    n.last_used
                } else {
                    Self::oldest_leaf(&n.children).expect("non-empty subtree has a leaf")
                };
                leaf_age == age
            })
            .map(|(&k, _)| k);
        let k = key?;
        let node = children.get_mut(&k).expect("key just found");
        if node.children.is_empty() {
            children.remove(&k);
            Some((depth, k))
        } else {
            Self::remove_leaf(&mut node.children, age, depth + 1)
        }
    }
}
