//! Regression test: the grammar mask's allocations per step do not grow
//! with the vocabulary.
//!
//! `TrieConstraint::fill` reads the allowed tokens off spellings built once
//! per tokenizer and trie, so a step allocates only for its own grammar
//! state (the decoded word units). Scanning the vocabulary instead costs
//! about one `format!` per token id on every step. The test fills the mask
//! at every word boundary of every query in the trie under two tokenizers
//! of different sizes and compares the counts call by call: both decode
//! the same units there, so the larger vocabulary must not allocate more.
//!
//! This file intentionally holds a single test: the allocator counter is
//! process-global, and a lone test in its own integration binary is the
//! only way to keep the measurement clean.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lm4db_corpus::{all_domains, corpus, make_domain, DomainKind};
use lm4db_text2sql::{
    enumerate_queries, generate, SemanticParser, Spellings, SqlTrie, TrieConstraint,
};
use lm4db_tokenize::pretokenize::pretokenize;
use lm4db_tokenize::{Bpe, Tokenizer, BOS};
use lm4db_transformer::TokenMask;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn fill_allocations_do_not_grow_with_the_vocabulary() {
    let d = make_domain(DomainKind::Employees, 20, 7);
    let trie = SqlTrie::for_domain(&d);
    let queries: Vec<Vec<String>> = trie.all_queries().into_iter().map(pretokenize).collect();
    // The parser's tokenizer texts (training pairs plus the query space)
    // of every domain, and a general corpus, so that the larger tokenizer
    // has merges left to learn.
    let mut texts = corpus(4000, 1);
    for domain in all_domains(20, 7) {
        let examples = generate(&domain, 200, 1);
        texts.extend(examples.iter().map(SemanticParser::serialize));
        texts.extend(enumerate_queries(&domain).iter().map(|q| q.to_lowercase()));
    }

    // Allocations of every `fill` after the first `k` words of every query.
    let per_call = |bpe_vocab: usize| -> (usize, Vec<u64>) {
        let bpe = Bpe::train(texts.iter().map(String::as_str), bpe_vocab);
        let spellings = Spellings::new(&bpe, &trie);
        let constraint = TrieConstraint::new(&bpe, &trie, &spellings, 1);
        let mut mask = vec![false; bpe.vocab().len()];
        let mut counts = Vec::new();
        for units in &queries {
            let mut prefix = vec![BOS];
            for k in 0..=units.len() {
                mask.fill(false);
                let before = ALLOCS.load(Ordering::Relaxed);
                constraint.fill(&prefix, &mut mask);
                counts.push(ALLOCS.load(Ordering::Relaxed) - before);
                if let Some(unit) = units.get(k) {
                    prefix.extend(bpe.encode(unit));
                }
            }
        }
        (bpe.vocab().len(), counts)
    };
    let (small_vocab, small) = per_call(300);
    let (large_vocab, large) = per_call(700);
    assert!(
        large_vocab > small_vocab + 200,
        "the tokenizers are {small_vocab} and {large_vocab} ids"
    );
    let mean = |c: &[u64]| c.iter().sum::<u64>() as f64 / c.len() as f64;
    let summary = format!(
        "{} calls; mean allocations per call {:.2} at {small_vocab} ids, {:.2} at {large_vocab} ids",
        small.len(),
        mean(&small),
        mean(&large)
    );
    for (call, (s, l)) in small.iter().zip(&large).enumerate() {
        assert!(
            l <= s,
            "call {call}: {l} allocations at {large_vocab} ids, {s} at {small_vocab} ({summary})"
        );
    }
    // At most the decoded units themselves: the unit list and one string
    // per unit, a long word spelled in pieces growing once more.
    let words = queries.iter().flat_map(|units| 0..=units.len());
    for (call, (k, &s)) in words.zip(&small).enumerate() {
        assert!(
            s <= 2 * k as u64 + 4,
            "call {call}: {s} allocations after {k} words ({summary})"
        );
    }
    println!("{summary}");
}
