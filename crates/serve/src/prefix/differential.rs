//! Differential tests: [`PrefixCache`] against the full-scan trie it
//! replaced (`reference.rs`), and the cost of an eviction as a count.
//!
//! Both tries are driven with one op stream and must agree after every op
//! on what an outside caller can see — `nodes()`, how much a restore
//! returns and the exact bits it returns — and on the `(depth, token)` of
//! every leaf they evict, in order. The product's `stored` counter is
//! recounted from its nodes after every op as well.
//!
//! `PROPTEST_CASES=2000 cargo test --release -p lm4db-serve --lib prefix::differential`
//! is the CI run; the default 32 cases ride along with `cargo test`.

use lm4db_transformer::{GptModel, KvCache, ModelConfig};
use proptest::prelude::*;

use super::{probe, reference, Children, PrefixCache};

fn count(children: &Children) -> usize {
    children.iter().map(|(_, n)| 1 + count(&n.children)).sum()
}

/// Every cached `oldest` is what a full recomputation gives.
fn ages_hold(children: &Children) -> bool {
    children.iter().all(|(_, n)| {
        let want = n.children.iter().map(|(_, c)| c.oldest).min();
        n.oldest == want.unwrap_or(n.last_used) && ages_hold(&n.children)
    })
}

/// The product and the oracle side by side.
struct Pair<'m> {
    model: &'m GptModel,
    new: PrefixCache,
    old: reference::PrefixCache,
    /// Every eviction the two agreed on so far.
    evicted: Vec<(usize, usize)>,
}

impl<'m> Pair<'m> {
    fn new(model: &'m GptModel, budget: usize) -> Self {
        probe::take_evicted();
        Pair {
            model,
            new: PrefixCache::new(budget),
            old: reference::PrefixCache::new(budget),
            evicted: Vec::new(),
        }
    }

    /// Restores `prompt` from both and returns the restored cache, having
    /// checked that the two restored the same bits.
    fn restore(&mut self, prompt: &[usize]) -> Result<KvCache, String> {
        let m = self.model;
        let (mut a, mut b) = (KvCache::new(m), KvCache::new(m));
        let (na, nb) = (
            self.new.restore_into(m, prompt, &mut a),
            self.old.restore_into(m, prompt, &mut b),
        );
        if na != nb || a.tokens() != b.tokens() {
            return Err(format!(
                "restore {prompt:?}: {na} positions {:?}, the reference {nb} {:?}",
                a.tokens(),
                b.tokens()
            ));
        }
        for t in 0..na {
            let bits = |c: &KvCache| -> Vec<u32> {
                c.position_kv(m, t).iter().map(|x| x.to_bits()).collect()
            };
            if bits(&a) != bits(&b) {
                return Err(format!("restore {prompt:?}: K/V rows differ at {t}"));
            }
        }
        self.agree()?;
        Ok(a)
    }

    /// Inserts the first `upto` positions of `cache` into both.
    fn insert(&mut self, cache: &KvCache, upto: usize) -> Result<(), String> {
        self.new.insert(self.model, cache, upto);
        self.old.insert(self.model, cache, upto);
        self.agree()
    }

    /// What must hold between the two after any op.
    fn agree(&mut self) -> Result<(), String> {
        let (new, old) = (&self.new, &mut self.old);
        if new.nodes() != old.nodes() {
            return Err(format!(
                "{} nodes, the reference {}",
                new.nodes(),
                old.nodes()
            ));
        }
        if new.nodes() != count(&new.children) {
            return Err(format!(
                "stored says {}, the trie holds {}",
                new.nodes(),
                count(&new.children)
            ));
        }
        if !ages_hold(&new.children) {
            return Err("a cached age is stale".into());
        }
        let (got, want) = (probe::take_evicted(), std::mem::take(&mut old.evicted));
        if got != want {
            return Err(format!("evicted {got:?}, the reference {want:?}"));
        }
        self.evicted.extend(got);
        Ok(())
    }
}

proptest! {
    #[test]
    fn random_ops_match_the_full_scan_trie(
        budget in prop::sample::select(vec![3usize, 8, 64]),
        ops in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(8usize..14, 1..13), 0usize..12),
            1..48,
        ),
    ) {
        let m = GptModel::new(ModelConfig::test(), 11);
        let mut pair = Pair::new(&m, budget);
        for (i, (is_insert, prompt, cut)) in ops.iter().enumerate() {
            let done = if *is_insert {
                let mut full = KvCache::new(&m);
                full.feed_all(&m, prompt);
                pair.insert(&full, 1 + cut % prompt.len())
            } else {
                pair.restore(prompt).map(drop)
            };
            if let Err(report) = done {
                prop_assert!(false, "budget {budget}, op {i} of {ops:?}: {report}");
            }
        }
    }
}

/// A model just wide enough to have K/V rows, with room for `seq` tokens.
fn narrow_model(seq: usize) -> GptModel {
    let cfg = ModelConfig {
        vocab_size: 512,
        max_seq_len: seq,
        d_model: 8,
        n_heads: 1,
        n_layers: 1,
        d_ff: 8,
        dropout: 0.0,
    };
    GptModel::new(cfg, 11)
}

/// The benchmark's `serve_prefix` shape, as the engine drives the cache:
/// restore what is cached, feed the rest, insert the whole prompt. The tails
/// overflow the budget a few positions at a time and a family that goes
/// unvisited loses its header leaf by leaf, so both kinds of eviction are
/// in the compared sequence.
#[test]
fn benchmark_shaped_traffic_evicts_the_same_leaves_in_the_same_order() {
    const FAMILIES: usize = 48;
    const HEADER: usize = 56;
    const TAIL: usize = 4;
    let m = narrow_model(HEADER + TAIL);
    let mut rng = proptest::TestRng::for_test("benchmark_shaped_traffic");
    let mut below = |n: usize| rng.below(n as u64) as usize;
    let headers: Vec<Vec<usize>> = (0..FAMILIES)
        .map(|_| (0..HEADER).map(|_| 8 + below(500)).collect())
        .collect();
    let mut pair = Pair::new(&m, 4096);
    for request in 0..2000 {
        // A skewed draw: the low families stay hot, the high ones go cold
        // long enough to be evicted whole and come back.
        let family = below(FAMILIES).min(below(FAMILIES));
        let mut prompt = headers[family].clone();
        prompt.extend((0..TAIL).map(|_| 8 + below(500)));
        let done = pair.restore(&prompt).and_then(|mut cache| {
            let hit = cache.len();
            cache.feed_all(&m, &prompt[hit..]);
            pair.insert(&cache, prompt.len())
        });
        if let Err(report) = done {
            panic!("request {request}: {report}");
        }
    }
    assert_eq!(pair.new.nodes(), 4096, "the budget never filled");
    let headers = pair.evicted.iter().filter(|(d, _)| *d <= HEADER).count();
    assert!(
        headers >= HEADER && pair.evicted.len() - headers >= 2000,
        "{} evictions compared, {headers} of them header positions",
        pair.evicted.len()
    );
}

/// The cost of one eviction, as child entries read: the families it does
/// not touch add their one entry at the root and nothing else.
#[test]
fn an_eviction_visits_its_own_path_not_the_other_families() {
    const DEPTH: usize = 60;
    let m = narrow_model(DEPTH);
    // Fills a cache exactly with `families` chains of `DEPTH` nodes, the
    // first of them the least recently used, then inserts one more
    // position and returns what evicting a leaf to make room for it read.
    let visits = |families: usize| {
        let mut pc = PrefixCache::new(families * DEPTH);
        for f in 0..families {
            let prompt: Vec<usize> = (0..DEPTH).map(|t| 8 + (f + t) % 500).collect();
            let mut cache = KvCache::new(&m);
            cache.feed_all(&m, &prompt);
            pc.insert(&m, &cache, DEPTH);
        }
        assert_eq!(pc.nodes(), families * DEPTH);
        let mut one = KvCache::new(&m);
        one.feed(&m, 7);
        probe::take_visits();
        probe::take_evicted();
        pc.insert(&m, &one, 1);
        assert_eq!(probe::take_evicted(), [(DEPTH, 8 + (DEPTH - 1) % 500)]);
        probe::take_visits()
    };
    let (few, many) = (visits(24), visits(48));
    assert_eq!(many, few + 24, "24 more families, 24 more root entries");
    // Down the chain and back up: twice the depth, plus the root's fan-out.
    let fan_out = 24 + 1 + (DEPTH - 1);
    assert!(
        few < 4 * (DEPTH + fan_out),
        "one eviction read {few} child entries at depth {DEPTH}, fan-out {fan_out}"
    );
}
