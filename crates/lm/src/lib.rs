//! # lm4db-lm
//!
//! The high-level language-model layer of LM4DB: an interpolated **n-gram
//! baseline** ([`NGramLm`], the "small model" end of the scale axis),
//! **prompt construction** ([`Prompt`]), and **classification through LMs**
//! in both regimes the tutorial teaches — prompting
//! ([`PromptClassifier`]) and fine-tuning ([`FineTunedClassifier`]).
//!
//! Everything that scores tokens implements
//! [`lm4db_transformer::NextToken`] — the n-gram model, the RNN, and a GPT
//! through its KV-cached `IncrementalSession` — so the decoding strategies
//! (greedy, sampling, constrained beam search) work uniformly across them.

#![warn(missing_docs)]

pub mod classify;
pub mod ngram;
pub mod prompt;

pub use classify::{score_continuation, FineTunedClassifier, PromptClassifier, TextClassifier};
pub use ngram::NGramLm;
pub use prompt::Prompt;
