//! # lm4db-text2sql
//!
//! Natural-language-to-SQL semantic parsing — the most classical LM-for-data
//! application the tutorial surveys (§2.5). The crate provides:
//!
//! * a **Spider-style workload generator** over the cross-domain tables of
//!   `lm4db-corpus`, stratified into four complexity tiers ([`workload`]);
//! * a **neural semantic parser**: a GPT-style LM fine-tuned on
//!   `question → SQL` pairs, decoded by beam search ([`SemanticParser`],
//!   over the [`TrieLm`] generator CodexDB's synthesizer shares);
//! * **PICARD-style constrained decoding**: a word-trie of the full
//!   candidate query space vetoes every token that cannot extend to valid
//!   SQL ([`SqlTrie`], [`TrieConstraint`] over the words' [`Spellings`]);
//! * a **template baseline** representing pre-LM keyword systems
//!   ([`TemplateBaseline`]);
//! * **evaluation** by exact-match and execution accuracy ([`eval`]), plus
//!   question paraphrasing to probe robustness ([`paraphrase`]).

#![warn(missing_docs)]

pub mod baseline;
pub mod eval;
pub mod paraphrase;
pub mod parser;
pub mod trie;
pub mod workload;

/// End-of-word marker of the BPE tokenizer (re-exported for decoders).
pub use lm4db_tokenize::bpe::EOW;

pub use baseline::TemplateBaseline;
pub use eval::{evaluate, score_one, Metrics};
pub use paraphrase::{paraphrase_examples, paraphrase_question};
pub use parser::{decode_units, DecodeMode, Prediction, SemanticParser, Spellings};
pub use parser::{TrieConstraint, TrieLm};
pub use trie::{enumerate_queries, SqlTrie};
pub use workload::{generate, Example, Tier, THRESHOLDS};
