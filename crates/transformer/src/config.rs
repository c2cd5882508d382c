//! Transformer architecture hyper-parameters and parameter counting.

use serde::{Deserialize, Serialize};

/// Hyper-parameters shared by the encoder (BERT-style) and decoder
/// (GPT-style) models in this crate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Vocabulary size (including special tokens).
    pub vocab_size: usize,
    /// Maximum sequence length (learned positional embeddings).
    pub max_seq_len: usize,
    /// Model (embedding) width.
    pub d_model: usize,
    /// Number of attention heads; must divide `d_model`.
    pub n_heads: usize,
    /// Number of transformer blocks.
    pub n_layers: usize,
    /// Feed-forward hidden width (typically `4 * d_model`).
    pub d_ff: usize,
    /// Dropout probability applied during training.
    pub dropout: f32,
}

impl ModelConfig {
    /// A deliberately tiny configuration for unit tests.
    pub fn test() -> Self {
        ModelConfig {
            vocab_size: 64,
            max_seq_len: 16,
            d_model: 16,
            n_heads: 2,
            n_layers: 2,
            d_ff: 32,
            dropout: 0.0,
        }
    }

    /// A small configuration that trains in seconds on synthetic corpora.
    pub fn tiny(vocab_size: usize) -> Self {
        ModelConfig {
            vocab_size,
            max_seq_len: 48,
            d_model: 32,
            n_heads: 4,
            n_layers: 2,
            d_ff: 128,
            dropout: 0.0,
        }
    }

    /// A medium configuration for the scale-sweep experiments.
    pub fn small(vocab_size: usize) -> Self {
        ModelConfig {
            vocab_size,
            max_seq_len: 64,
            d_model: 64,
            n_heads: 4,
            n_layers: 4,
            d_ff: 256,
            dropout: 0.0,
        }
    }

    /// `Err` for a configuration the model constructors would assert on:
    /// `n_heads` must be positive and divide `d_model`.
    pub fn check(&self) -> Result<(), String> {
        if self.n_heads == 0 || !self.d_model.is_multiple_of(self.n_heads) {
            return Err(format!(
                "n_heads {} must be positive and divide d_model {}",
                self.n_heads, self.d_model
            ));
        }
        Ok(())
    }

    /// The context-window rule: how many tokens may follow a context of
    /// `len`. Each is predicted from at most `max_seq_len` tokens and the
    /// last is never fed, so `max_seq_len + 1 − len` fit when
    /// `1 ≤ len ≤ max_seq_len`. Every GPT decoder caps its budget here.
    pub fn room(&self, len: usize) -> Result<usize, ContextError> {
        match len {
            0 => Err(ContextError::Empty),
            _ if len > self.max_seq_len => Err(ContextError::TooLong {
                len,
                max_seq_len: self.max_seq_len,
            }),
            _ => Ok(self.max_seq_len + 1 - len),
        }
    }

    /// Width of one attention head.
    pub fn head_dim(&self) -> usize {
        assert_eq!(
            self.d_model % self.n_heads,
            0,
            "n_heads {} must divide d_model {}",
            self.n_heads,
            self.d_model
        );
        self.d_model / self.n_heads
    }

    /// Closed-form trainable-parameter count for a decoder-only model with
    /// untied input/output embeddings, learned positions, biases everywhere,
    /// and a final layer norm. Matches [`crate::GptModel`]'s store exactly
    /// (verified by test).
    pub fn param_count_decoder(&self) -> usize {
        let d = self.d_model;
        let per_block = 4 * (d * d + d) // q, k, v, o projections
            + (d * self.d_ff + self.d_ff) + (self.d_ff * d + d) // ffn
            + 4 * d; // two layer norms (gain + bias)
        self.vocab_size * d              // token embeddings
            + self.max_seq_len * d       // position embeddings
            + self.n_layers * per_block
            + 2 * d                      // final layer norm
            + d * self.vocab_size + self.vocab_size // lm head
    }

    /// Closed-form parameter count for the encoder (BERT-style) model with
    /// an MLM head. The encoder adds segment embeddings (2 rows) and the MLM
    /// transform layer, mirroring [`crate::BertModel`] (verified by test).
    pub fn param_count_encoder(&self) -> usize {
        let d = self.d_model;
        self.param_count_decoder()
            + 2 * d            // segment embeddings
            + d * d + d        // MLM transform dense
            + 2 * d // MLM transform layer norm
    }
}

/// Why a context leaves no room for a next token ([`ModelConfig::room`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextError {
    /// No token to predict from.
    Empty,
    /// More tokens than the model's window.
    TooLong {
        /// The context's length.
        len: usize,
        /// The model's window.
        max_seq_len: usize,
    },
}

impl std::fmt::Display for ContextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContextError::Empty => write!(f, "prompt is empty"),
            ContextError::TooLong { len, max_seq_len } => {
                write!(f, "prompt length {len} exceeds max_seq_len {max_seq_len}")
            }
        }
    }
}

impl std::error::Error for ContextError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_dim_divides() {
        assert_eq!(ModelConfig::test().head_dim(), 8);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn head_dim_rejects_nondivisor() {
        let mut cfg = ModelConfig::test();
        cfg.n_heads = 3;
        cfg.head_dim();
    }

    #[test]
    fn param_count_formula_is_sane() {
        let cfg = ModelConfig::test();
        // Hand-computed: see formula; spot check magnitude.
        let n = cfg.param_count_decoder();
        assert!(n > cfg.vocab_size * cfg.d_model);
        assert!(cfg.param_count_encoder() > n);
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = ModelConfig::tiny(100);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ModelConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn room_is_the_window_plus_one_minus_the_context() {
        let cfg = ModelConfig::test();
        let w = cfg.max_seq_len;
        assert_eq!(cfg.room(1), Ok(w));
        assert_eq!(cfg.room(w), Ok(1));
        assert_eq!(cfg.room(0), Err(ContextError::Empty));
        let err = cfg.room(w + 1).unwrap_err();
        assert_eq!(
            err,
            ContextError::TooLong {
                len: w + 1,
                max_seq_len: w
            }
        );
        assert_eq!(
            err.to_string(),
            format!("prompt length {} exceeds max_seq_len {w}", w + 1)
        );
    }
}
