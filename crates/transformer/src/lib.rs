//! # lm4db-transformer
//!
//! From-scratch transformer language models for the LM4DB reproduction:
//! a **GPT-style** decoder-only causal LM ([`GptModel`], the stand-in for
//! GPT-3/Codex), a **BERT-style** bidirectional encoder with masked-LM
//! pre-training and classifier fine-tuning ([`BertModel`],
//! [`BertClassifier`]), a pre-Transformer **RNN baseline** ([`RnnLm`]), and
//! shared decoding strategies including PICARD-style constrained decoding
//! ([`generate`]).
//!
//! Everything runs on the CPU autograd engine in `lm4db-tensor`, is fully
//! seeded, and trains in seconds at the configured scales.

#![warn(missing_docs)]

pub mod bert;
pub mod checkpoint;
pub mod config;
pub mod generate;
pub mod gpt;
pub mod incremental;
pub mod layers;
pub mod quant;
pub mod rnn;
pub mod train;

pub use bert::{BertClassifier, BertModel};
pub use checkpoint::{restore_store, snapshot_store, Checkpoint, ParamSnapshot};
pub use config::{ContextError, ModelConfig};
pub use generate::{
    apply_token_mask, argmax, beam, greedy, log_softmax, sample, Hypothesis, NextToken,
    SampleOptions, TokenMask,
};
pub use gpt::GptModel;
pub use incremental::{feed_stack, greedy_cached, IncrementalSession, KvCache, StackEntry};
pub use quant::{QuantLinear, QuantizedGpt};
pub use rnn::{RnnConfig, RnnLm};
pub use train::{
    evaluate_perplexity, pack_corpus, pretrain_gpt, sample_windows, TrainOptions, TrainReport,
};
