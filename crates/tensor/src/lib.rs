//! # lm4db-tensor
//!
//! Dense `f32` tensors with reverse-mode automatic differentiation, built to
//! train the small transformer language models used throughout the LM4DB
//! reproduction of *"From BERT to GPT-3 Codex: Harnessing the Potential of
//! Very Large Language Models for Data Management"* (VLDB 2022).
//!
//! The crate deliberately implements only what transformer training needs:
//! batched matmul, softmax, layer norm, GELU, embedding gather/scatter,
//! cross-entropy, dropout, and an AdamW optimizer — all CPU, all seeded, all
//! deterministic.
//!
//! ```
//! use lm4db_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.param(Tensor::from_vec(vec![1.0, 2.0, 3.0]));
//! let y = g.mul(x, x);
//! let loss = g.sum_all(y);
//! g.backward(loss);
//! assert_eq!(g.grad(x).unwrap().data(), &[2.0, 4.0, 6.0]);
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod init;
pub mod kernels;
pub mod optim;
pub mod pool;
pub mod quant;
pub mod shape;
pub mod tensor;

pub use graph::{Graph, Var, IGNORE_INDEX};
pub use init::Rand;
pub use optim::{clip_grad_norm, Adam, Bound, LrSchedule, ParamId, ParamStore};
pub use pool::{
    panic_message, parallel_for, parallel_rows_mut, parallel_rows_mut2, set_threads, threads,
    try_parallel_tasks_mut, TaskFailure,
};
pub use quant::{quantize_activation, QuantizedMatrix};
pub use tensor::Tensor;

#[cfg(test)]
mod proptests {
    use crate::{Graph, Tensor};
    use proptest::prelude::*;

    fn small_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
        prop::collection::vec(-2.0f32..2.0, len)
    }

    proptest! {
        #[test]
        fn softmax_rows_always_sum_to_one(data in small_vec(12)) {
            let t = Tensor::new(vec![3, 4], data);
            let s = t.softmax_last();
            for row in s.data().chunks(4) {
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
                prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }

        #[test]
        fn transpose_is_involution(data in small_vec(24)) {
            let t = Tensor::new(vec![2, 3, 4], data);
            prop_assert_eq!(t.transpose(0, 2).transpose(0, 2), t.clone());
            prop_assert_eq!(t.transpose(1, 2).transpose(1, 2), t);
        }

        #[test]
        fn matmul_distributes_over_add(a in small_vec(6), b in small_vec(6), w in small_vec(6)) {
            let a = Tensor::new(vec![2, 3], a);
            let b = Tensor::new(vec![2, 3], b);
            let w = Tensor::new(vec![3, 2], w);
            let lhs = a.add(&b).matmul(&w);
            let rhs = a.matmul(&w).add(&b.matmul(&w));
            for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        #[test]
        fn autograd_sum_grad_is_ones(data in small_vec(8)) {
            let mut g = Graph::new();
            let x = g.param(Tensor::new(vec![2, 4], data));
            let s = g.sum_all(x);
            g.backward(s);
            prop_assert_eq!(g.grad(x).unwrap().data(), &[1.0f32; 8][..]);
        }

        #[test]
        fn cross_entropy_is_non_negative(data in small_vec(15), t0 in 0usize..5, t1 in 0usize..5, t2 in 0usize..5) {
            let mut g = Graph::new();
            let x = g.param(Tensor::new(vec![3, 5], data));
            let loss = g.cross_entropy(x, &[t0, t1, t2]);
            prop_assert!(g.value(loss).item() >= 0.0);
        }
    }
}
