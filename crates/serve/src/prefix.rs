//! The prompt prefix cache: a trie keyed on token ids whose nodes store the
//! per-layer attention key/value rows of one position.
//!
//! Because a KV row is a pure function of the token prefix that produced it
//! (causal attention only ever looks backward), any request whose prompt
//! shares a prefix with a previously prefilled prompt can have those
//! positions *restored* instead of recomputed — bitwise identically, as the
//! rows are copied verbatim. This is what makes prefix caching invisible to
//! the determinism guarantees: cached and uncached prefills produce the
//! same logits bit for bit (property-tested below).
//!
//! Capacity is bounded by a token (= node) budget; when an insert exceeds
//! it, least-recently-used leaves are evicted until the budget holds.
//! Eviction only ever removes leaves, so every surviving node still
//! represents a valid prefix. Every touch advances one clock, so ages are
//! unique and the least-recently-used leaf is one particular node: eviction
//! is deterministic whatever order the trie is walked in.
//!
//! The trie *keeps* its LRU order instead of searching for it. Each node
//! caches the age of the oldest leaf at or below it; a restore or insert
//! recomputes that age bottom-up along the one path it touched, and
//! eviction follows it down from the root. Costs, in nodes visited:
//! restore O(hit length), insert O(prompt length), one evicted position
//! O(depth × fan-out along its path) — none depends on how many other
//! prefixes the cache holds (a counting test pins that, and
//! `prefix/differential.rs` checks every eviction against the full-scan
//! implementation this one replaced).

use lm4db_transformer::{GptModel, KvCache};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

/// A node's children, sorted by token. Nine nodes in ten are inside a
/// header chain and have exactly one, which a map would pay a whole tree
/// leaf for.
type Children = Vec<(usize, Node)>;

struct Node {
    /// Flattened per-layer `[k, v]` rows for this position, in the layout
    /// of [`KvCache::position_kv`].
    kv: Vec<f32>,
    children: Children,
    last_used: u64,
    /// Age of the least-recently-used leaf at or below this node: its own
    /// `last_used` while it is a leaf, the minimum over `children`
    /// otherwise. Whoever changes anything below a node calls
    /// [`Node::refresh`] on the way back up.
    oldest: u64,
}

impl Node {
    /// Recomputes `oldest` from the children, which must be up to date.
    fn refresh(&mut self) {
        #[cfg(test)]
        probe::visit(self.children.len());
        self.oldest = self
            .children
            .iter()
            .map(|(_, c)| c.oldest)
            .min()
            .unwrap_or(self.last_used);
    }
}

/// Trie of cached prompt prefixes. See the module docs.
pub struct PrefixCache {
    children: Children,
    max_tokens: usize,
    stored: usize,
    clock: u64,
}

impl PrefixCache {
    /// An empty cache holding at most `max_tokens` positions; `0` disables
    /// caching entirely.
    pub fn new(max_tokens: usize) -> Self {
        PrefixCache {
            children: Vec::new(),
            max_tokens,
            stored: 0,
            clock: 0,
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
        restore_below(&mut self.children, tokens, &mut self.clock, model, cache)
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
        insert_below(
            &mut self.children,
            model,
            cache,
            0..upto,
            &mut self.clock,
            &mut self.stored,
        );
        while self.stored > self.max_tokens {
            let _leaf = evict_oldest(&mut self.children);
            self.stored -= 1;
            #[cfg(test)]
            probe::evicted(_leaf);
        }
    }
}

/// Restores the longest cached prefix of `tokens` found below `children`,
/// touching each node on it; returns how many positions that was.
fn restore_below(
    children: &mut Children,
    tokens: &[usize],
    clock: &mut u64,
    model: &GptModel,
    cache: &mut KvCache,
) -> usize {
    let Some((&tok, rest)) = tokens.split_first() else {
        return 0;
    };
    let Ok(i) = children.binary_search_by_key(&tok, |c| c.0) else {
        return 0;
    };
    let node = &mut children[i].1;
    *clock += 1;
    node.last_used = *clock;
    cache.push_position(model, tok, &node.kv);
    let below = restore_below(&mut node.children, rest, clock, model, cache);
    node.refresh();
    1 + below
}

/// Inserts `positions` of `cache` below `children`, touching the nodes
/// that exist and creating the ones that do not (counted into `stored`).
fn insert_below(
    children: &mut Children,
    model: &GptModel,
    cache: &KvCache,
    mut positions: std::ops::Range<usize>,
    clock: &mut u64,
    stored: &mut usize,
) {
    let Some(t) = positions.next() else {
        return;
    };
    let tok = cache.tokens()[t];
    let i = match children.binary_search_by_key(&tok, |c| c.0) {
        Ok(i) => i,
        Err(i) => {
            if children.is_empty() {
                // The usual node never gets a second child: skip `Vec`'s
                // four-slot first growth.
                children.reserve_exact(1);
            }
            let node = Node {
                kv: cache.position_kv(model, t),
                children: Vec::new(),
                last_used: 0,
                oldest: 0,
            };
            children.insert(i, (tok, node));
            *stored += 1;
            i
        }
    };
    let node = &mut children[i].1;
    *clock += 1;
    node.last_used = *clock;
    insert_below(&mut node.children, model, cache, positions, clock, stored);
    node.refresh();
}

/// Removes the least-recently-used leaf below `children` by following the
/// cached ages down, and returns its `(depth, token)`.
fn evict_oldest(children: &mut Children) -> (usize, usize) {
    #[cfg(test)]
    probe::visit(children.len());
    let i = (0..children.len())
        .min_by_key(|&i| children[i].1.oldest)
        .expect("over budget implies a leaf exists");
    let node = &mut children[i].1;
    if node.children.is_empty() {
        (1, children.remove(i).0)
    } else {
        let (depth, tok) = evict_oldest(&mut node.children);
        node.refresh();
        (depth + 1, tok)
    }
}

/// What the tests watch the eviction path through; not in the product.
#[cfg(test)]
mod probe {
    use std::cell::{Cell, RefCell};

    thread_local! {
        static VISITS: Cell<usize> = const { Cell::new(0) };
        static EVICTED: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
    }

    /// `n` more child entries were read to find or recompute an age.
    pub(super) fn visit(n: usize) {
        VISITS.with(|v| v.set(v.get() + n));
    }

    /// A leaf `(depth, token)` was evicted.
    pub(super) fn evicted(leaf: (usize, usize)) {
        EVICTED.with(|e| e.borrow_mut().push(leaf));
    }

    /// Child entries read on this thread since the last call.
    pub(super) fn take_visits() -> usize {
        VISITS.with(Cell::take)
    }

    /// Leaves evicted on this thread since the last call, in order.
    pub(super) fn take_evicted() -> Vec<(usize, usize)> {
        EVICTED.with(RefCell::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm4db_tokenize::BOS;
    use lm4db_transformer::ModelConfig;

    fn model() -> GptModel {
        GptModel::new(ModelConfig::test(), 7)
    }

    #[test]
    fn restore_returns_longest_cached_prefix() {
        let m = model();
        let tokens = [BOS, 10, 11, 12, 13];
        let mut full = KvCache::new(&m);
        full.feed_all(&m, &tokens);
        let mut pc = PrefixCache::new(64);
        pc.insert(&m, &full, tokens.len());
        assert_eq!(pc.nodes(), tokens.len());

        // Exact prefix: all positions restored.
        let mut c = KvCache::new(&m);
        assert_eq!(pc.restore_into(&m, &tokens, &mut c), tokens.len());
        assert_eq!(c.tokens(), &tokens);

        // Diverging prompt: only the shared part is restored.
        let mut c = KvCache::new(&m);
        let n = pc.restore_into(&m, &[BOS, 10, 11, 40, 41], &mut c);
        assert_eq!(n, 3);
        assert_eq!(c.tokens(), &[BOS, 10, 11]);
    }

    #[test]
    fn restored_prefill_is_bitwise_identical() {
        let m = model();
        let tokens = [BOS, 9, 10, 11, 12, 13];
        let mut full = KvCache::new(&m);
        full.feed_all(&m, &tokens);
        let mut pc = PrefixCache::new(64);
        pc.insert(&m, &full, 4);
        let mut c = KvCache::new(&m);
        let n = pc.restore_into(&m, &tokens[..4], &mut c);
        assert_eq!(n, 4);
        let logits = c.feed_all(&m, &tokens[4..]).to_vec();
        assert_eq!(logits, full.last_logits(), "restored prefill diverged");
    }

    #[test]
    fn disabled_cache_stores_and_restores_nothing() {
        let m = model();
        let mut full = KvCache::new(&m);
        full.feed_all(&m, &[BOS, 10, 11]);
        let mut pc = PrefixCache::new(0);
        pc.insert(&m, &full, 3);
        assert_eq!(pc.nodes(), 0);
        let mut c = KvCache::new(&m);
        assert_eq!(pc.restore_into(&m, &[BOS, 10, 11], &mut c), 0);
    }

    #[test]
    fn eviction_keeps_recently_used_paths() {
        let m = model();
        let a = [BOS, 10, 11, 12];
        let b = [BOS, 20, 21, 22];
        let mut ca = KvCache::new(&m);
        ca.feed_all(&m, &a);
        let mut cb = KvCache::new(&m);
        cb.feed_all(&m, &b);

        // Budget of 5: inserting both 4-token paths (7 distinct nodes —
        // BOS is shared) must evict from the older path `a`.
        let mut pc = PrefixCache::new(5);
        pc.insert(&m, &ca, a.len());
        pc.insert(&m, &cb, b.len());
        assert!(pc.nodes() <= 5);
        let mut c = KvCache::new(&m);
        assert_eq!(
            pc.restore_into(&m, &b, &mut c),
            b.len(),
            "LRU evicted the fresh path"
        );
    }

    #[test]
    fn eviction_only_removes_leaves() {
        let m = model();
        let mut ca = KvCache::new(&m);
        ca.feed_all(&m, &[BOS, 10, 11, 12, 13, 14]);
        let mut pc = PrefixCache::new(3);
        pc.insert(&m, &ca, 6);
        assert_eq!(pc.nodes(), 3);
        // The survivors must be the path root — a valid prefix.
        let mut c = KvCache::new(&m);
        assert_eq!(pc.restore_into(&m, &[BOS, 10, 11, 12, 13, 14], &mut c), 3);
        assert_eq!(c.tokens(), &[BOS, 10, 11]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use lm4db_transformer::ModelConfig;
    use proptest::prelude::*;

    proptest! {
        /// The satellite property: ANY split of a prompt into cached-prefix
        /// + live suffix yields logits identical (bit for bit) to an
        /// uncached prefill of the whole prompt.
        #[test]
        fn any_prefix_split_matches_uncached_prefill(
            tokens in prop::collection::vec(8usize..60, 2..14),
            split_seed in 0usize..1000,
        ) {
            let m = GptModel::new(ModelConfig::test(), 11);
            let split = 1 + split_seed % (tokens.len() - 1);

            let mut full = KvCache::new(&m);
            full.feed_all(&m, &tokens);

            let mut pc = PrefixCache::new(1024);
            pc.insert(&m, &full, split);

            let mut c = KvCache::new(&m);
            let restored = pc.restore_into(&m, &tokens[..split], &mut c);
            prop_assert_eq!(restored, split);
            let logits = c.feed_all(&m, &tokens[split..]).to_vec();
            prop_assert_eq!(logits, full.last_logits().to_vec());
        }
    }
}
