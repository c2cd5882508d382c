//! Parallel/serial parity: the threaded kernels must produce bit-identical
//! output at any thread count.
//!
//! Two layers of coverage:
//! 1. In-process: every matmul-family kernel is compared against a naive
//!    serial reference that replicates the documented accumulation order,
//!    with *exact* float equality — including a proptest over random shapes.
//! 2. Cross-thread-count: a fingerprint test re-runs this binary as a
//!    subprocess under `LM4DB_THREADS` ∈ {1, 2, 7} and asserts the bit
//!    pattern of a full forward/backward suite is identical.

use lm4db_tensor::kernels::{pack_panels, unpack_panels};
use lm4db_tensor::{Graph, Rand, Tensor};
use proptest::prelude::*;

/// Naive batched matmul with the same per-element fold order as the
/// parallel kernel: `out[i][j]` accumulates over `p` ascending.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[a.rank() - 2], a.shape()[a.rank() - 1]);
    let n = b.shape()[b.rank() - 1];
    let ab: usize = a.shape()[..a.rank() - 2].iter().product();
    let mut out = vec![0.0f32; ab * m * n];
    for batch in 0..ab {
        let b_off = batch * k * n;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.data()[batch * m * k + i * k + p] * b.data()[b_off + p * n + j];
                }
                out[batch * m * n + i * n + j] = acc;
            }
        }
    }
    let mut shape = a.shape()[..a.rank() - 2].to_vec();
    shape.push(m);
    shape.push(n);
    Tensor::new(shape, out)
}

fn rand_tensor(shape: &[usize], rng: &mut Rand) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f32> = rng.uniform_vec(n).into_iter().map(|u| u - 0.5).collect();
    Tensor::new(shape.to_vec(), data)
}

#[test]
fn matmul_matches_naive_reference_exactly() {
    let mut rng = Rand::seeded(99);
    for (sa, sb) in [
        (vec![3usize, 5], vec![5usize, 4]),
        (vec![2, 7, 65], vec![2, 65, 9]),       // k > K_BLOCK
        (vec![2, 3, 6, 70], vec![2, 3, 70, 5]), // rank 4, k > K_BLOCK
        (vec![1, 130, 33], vec![1, 33, 64]),    // many rows -> many chunks
    ] {
        let a = rand_tensor(&sa, &mut rng);
        let b = rand_tensor(&sb, &mut rng);
        assert_eq!(a.matmul(&b).data(), naive_matmul(&a, &b).data());
    }
}

#[test]
fn matmul_bt_matches_transposed_reference_exactly() {
    let mut rng = Rand::seeded(7);
    for (sa, sb) in [
        (vec![4usize, 6], vec![5usize, 6]),
        (vec![3, 8, 70], vec![3, 9, 70]),
        (vec![2, 2, 8, 70], vec![2, 2, 9, 70]),
    ] {
        let a = rand_tensor(&sa, &mut rng);
        let b = rand_tensor(&sb, &mut rng);
        let rb = b.rank();
        let bt = b.transpose(rb - 2, rb - 1);
        assert_eq!(a.matmul_bt(&b).data(), naive_matmul(&a, &bt).data());
    }
}

#[test]
fn matmul_tn_matches_transposed_reference_exactly() {
    let mut rng = Rand::seeded(13);
    for (sa, sb) in [
        (vec![2usize, 6, 5], vec![2usize, 6, 7]),
        (vec![3, 2, 70, 8], vec![3, 2, 70, 9]),
    ] {
        let a = rand_tensor(&sa, &mut rng);
        let b = rand_tensor(&sb, &mut rng);
        let ra = a.rank();
        let at = a.transpose(ra - 2, ra - 1);
        assert_eq!(a.matmul_tn(&b).data(), naive_matmul(&at, &b).data());
    }
}

proptest! {
    #[test]
    fn matmul_matches_naive_on_random_shapes(
        batch in 1usize..4,
        m in 1usize..16,
        k in 1usize..96,
        n in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Rand::seeded(seed);
        let a = rand_tensor(&[batch, m, k], &mut rng);
        let b = rand_tensor(&[batch, k, n], &mut rng);
        let got = a.matmul(&b);
        let want = naive_matmul(&a, &b);
        prop_assert_eq!(got.data(), want.data());
    }

    #[test]
    fn matmul_bt_matches_naive_on_random_shapes(
        batch in 1usize..4,
        m in 1usize..16,
        k in 1usize..96,
        n in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Rand::seeded(seed ^ 0xb7);
        let a = rand_tensor(&[batch, m, k], &mut rng);
        let b = rand_tensor(&[batch, n, k], &mut rng);
        let rb = b.rank();
        let bt = b.transpose(rb - 2, rb - 1);
        let got = a.matmul_bt(&b);
        let want = naive_matmul(&a, &bt);
        prop_assert_eq!(got.data(), want.data());
    }

    #[test]
    fn matmul_tn_matches_naive_on_random_shapes(
        batch in 1usize..4,
        m in 1usize..32,
        k in 1usize..12,
        n in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        // `m` here is the reduction dim of the transposed product.
        let mut rng = Rand::seeded(seed ^ 0x73);
        let a = rand_tensor(&[batch, m, k], &mut rng);
        let b = rand_tensor(&[batch, m, n], &mut rng);
        let at = a.transpose(1, 2);
        let got = a.matmul_tn(&b);
        let want = naive_matmul(&at, &b);
        prop_assert_eq!(got.data(), want.data());
    }

    #[test]
    fn int8_round_trip_error_is_within_half_a_step(
        len in 1usize..256,
        scale in 0.01f32..100.0,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Rand::seeded(seed ^ 0x18);
        let x: Vec<f32> = rng
            .uniform_vec(len)
            .into_iter()
            .map(|u| (u - 0.5) * scale)
            .collect();
        let (q, s, z) = lm4db_tensor::quantize_activation(&x);
        // Asymmetric per-vector grid: every element decodes to within half
        // a quantization step (plus float slack) of the original — the
        // 254-step range guarantees no value ever clamps.
        for (&xi, &qi) in x.iter().zip(q.iter()) {
            let back = (i32::from(qi) - z) as f32 * s;
            prop_assert!(
                (xi - back).abs() <= s * 0.5 + 1e-6 * scale,
                "element {} decoded to {} with step {}", xi, back, s
            );
        }
    }

    #[test]
    fn int8_matvec_is_exact_over_i32(
        d_in in 1usize..96,
        d_out in 1usize..24,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Rand::seeded(seed ^ 0x88);
        let w: Vec<f32> = rng.uniform_vec(d_in * d_out).into_iter().map(|u| u - 0.5).collect();
        let x: Vec<f32> = rng.uniform_vec(d_in).into_iter().map(|u| u - 0.5).collect();
        let bias: Vec<f32> = rng.uniform_vec(d_out).into_iter().map(|u| u - 0.5).collect();
        let qm = lm4db_tensor::QuantizedMatrix::from_weight(&w, d_in, d_out);
        let (qx, sx, zx) = lm4db_tensor::quantize_activation(&x);
        let got = qm.matvec(&qx, sx, zx, &bias);
        for r in 0..d_out {
            // Integer accumulation is exact, so the kernel must equal the
            // widened i64 reference bit for bit after the single dequant
            // (including the zero-point correction by the row's weight sum).
            let mut acc = 0i64;
            let mut wsum = 0i64;
            for (c, &qxc) in qx.iter().enumerate() {
                let qw = i64::from(
                    (qm.dequantize(r, c) / qm.scale(r).max(f32::MIN_POSITIVE)).round() as i32,
                );
                acc += qw * i64::from(qxc);
                wsum += qw;
            }
            let want = bias[r] + (acc - i64::from(zx) * wsum) as f32 * (qm.scale(r) * sx);
            prop_assert_eq!(got[r], want);
        }
    }
}

/// A forward/backward sweep through every parallelized graph op; returns an
/// FNV-1a hash over the exact bit patterns of the value and all gradients.
fn suite_fingerprint() -> u64 {
    let mut rng = Rand::seeded(2024);
    let mut g = Graph::new();
    let x = g.param(rand_tensor(&[4, 33, 48], &mut rng));
    let w = g.param(rand_tensor(&[48, 64], &mut rng));
    let gain = g.param(Tensor::full(&[64], 1.0));
    let bias = g.param(Tensor::zeros(&[64]));
    let b = g.param(rand_tensor(&[64], &mut rng));
    let h = g.matmul_panels(x, w); // a weight, read as panel order
    let h = g.add_bcast(h, b);
    let h = g.layer_norm(h, gain, bias, 1e-5);
    let h = g.gelu(h);
    let a = g.softmax_last(h);
    let w2 = g.param(rand_tensor(&[4, 64, 64], &mut rng));
    let h = g.matmul(a, w2); // batched rhs
    let loss = g.mean_all(h);
    g.backward(loss);

    let mut fp = 0xcbf29ce484222325u64;
    let mut eat = |t: &Tensor| {
        for &v in t.data() {
            fp ^= v.to_bits() as u64;
            fp = fp.wrapping_mul(0x100000001b3);
        }
    };
    eat(g.value(loss));
    for var in [x, w, gain, bias, b, w2] {
        eat(g.grad(var).expect("param has grad"));
    }
    fp
}

/// Child half of the cross-thread-count check: prints the fingerprint.
/// Run directly it is a plain (always-passing) test; the parent test below
/// spawns it under different `LM4DB_THREADS` values and compares output.
#[test]
fn parity_child_fingerprint() {
    println!("PARITY_FP={:016x}", suite_fingerprint());
}

#[test]
fn parity_across_thread_counts() {
    let exe = std::env::current_exe().expect("test binary path");
    let mut fingerprints = Vec::new();
    for threads in ["1", "2", "7"] {
        let out = std::process::Command::new(&exe)
            .args(["parity_child_fingerprint", "--exact", "--nocapture"])
            .env("LM4DB_THREADS", threads)
            .output()
            .expect("spawn parity child");
        assert!(
            out.status.success(),
            "child failed at LM4DB_THREADS={threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        // libtest may print its own prefix on the same line; search by
        // substring rather than line start.
        let fp = stdout
            .split("PARITY_FP=")
            .nth(1)
            .map(|rest| rest.chars().take(16).collect::<String>())
            .unwrap_or_else(|| panic!("no fingerprint in child output:\n{stdout}"));
        fingerprints.push((threads, fp));
    }
    let first = &fingerprints[0].1;
    for (threads, fp) in &fingerprints {
        assert_eq!(
            fp, first,
            "output at LM4DB_THREADS={threads} differs from LM4DB_THREADS=1"
        );
    }
}

/// One forward + backward through every public graph op, at shapes large
/// enough that the pool splits each kernel; returns an FNV-1a hash over the
/// loss and the gradient of every node, in recording order.
fn every_op_suite() -> u64 {
    let mut rng = Rand::seeded(31);
    let (b, t, h, dh) = (8, 48, 4, 16);
    let (d, n) = (h * dh, b * t);
    let mut g = Graph::new();
    let mut vars = Vec::new();
    let mut rec = |v| {
        vars.push(v);
        v
    };
    let ids: Vec<usize> = (0..n).map(|i| (i * 7) % 50).collect();
    let table = rec(g.param(rand_tensor(&[50, d], &mut rng)));
    let e = rec(g.embedding(table, &ids)); // repeated ids
    let e2 = rec(g.add(e, e)); // repeated operand
    let x = rec(g.param(rand_tensor(&[n, d], &mut rng)));
    let h0 = rec(g.mul(e2, x));
    let h0 = rec(g.scale(h0, 0.5));
    let bias = rec(g.param(rand_tensor(&[d], &mut rng)));
    let h0 = rec(g.add_bcast(h0, bias)); // onto rank 2
    let w1 = rec(g.param(rand_tensor(&[d, 2 * d], &mut rng)));
    let h1 = rec(g.matmul(h0, w1)); // 2-D
    let h1 = rec(g.gelu(h1));
    let h1 = rec(g.tanh(h1));
    let h1 = rec(g.reshape(h1, &[b, t, 2 * d]));
    let w2 = rand_tensor(&[2 * d, d], &mut rng);
    let mut packed = vec![0.0; w2.len()];
    pack_panels(w2.data(), 2 * d, d, &mut packed);
    let w2 = rec(g.param(Tensor::new(vec![2 * d, d], packed)));
    let h2 = rec(g.matmul_panels(h1, w2)); // panel-order weight
    let gain = rec(g.param(rand_tensor(&[d], &mut rng)));
    let shift = rec(g.param(rand_tensor(&[d], &mut rng)));
    let h2 = rec(g.layer_norm(h2, gain, shift, 1e-5));
    let heads = rec(g.reshape(h2, &[b, t, h, dh]));
    let q = rec(g.transpose(heads, 1, 2)); // [b, h, t, dh]
    let kt = rec(g.transpose(q, 2, 3)); // [b, h, dh, t]
    let scores = rec(g.matmul(q, kt)); // batched
    let mask = rec(g.param(rand_tensor(&[t, t], &mut rng)));
    let scores = rec(g.add_bcast(scores, mask)); // [t, t] onto rank 4
    let attn = rec(g.softmax_last(scores));
    let ctx = rec(g.matmul(attn, q));
    let ctx = rec(g.transpose(ctx, 1, 2));
    let ctx = rec(g.reshape(ctx, &[b, t, d]));
    let keep = rng.uniform_vec(n * d);
    let ctx = rec(g.dropout(ctx, 0.1, &keep));
    let positions: Vec<usize> = (0..b).map(|i| (i * 13) % t).collect();
    let cls = rec(g.select_positions(ctx, &positions));
    let cls_mean = rec(g.mean_all(cls));
    let logits = rec(g.reshape(ctx, &[n, d]));
    let targets: Vec<usize> = (0..n)
        .map(|i| {
            if i % 5 == 3 {
                lm4db_tensor::IGNORE_INDEX
            } else {
                (i * 11) % d
            }
        })
        .collect();
    let ce = rec(g.cross_entropy(logits, &targets));
    let total = rec(g.sum_all(h1));
    let total = rec(g.scale(total, 1e-4));
    let loss = rec(g.add(ce, cls_mean));
    let loss = rec(g.add(loss, total));
    g.backward(loss);

    let mut fp = 0xcbf29ce484222325u64;
    let mut eat = |t: &Tensor| {
        for &v in t.data() {
            fp ^= v.to_bits() as u64;
            fp = fp.wrapping_mul(0x100000001b3);
        }
    };
    eat(g.value(loss));
    for var in vars {
        let grad = g.grad(var).expect("every recorded node requires grad");
        if var == w2 {
            // Hashed row-major, as the row-major weight's gradient was.
            let mut dw = vec![0.0; grad.len()];
            unpack_panels(grad.data(), 2 * d, d, &mut dw);
            eat(&Tensor::new(grad.shape().to_vec(), dw));
        } else {
            eat(grad);
        }
    }
    fp
}

/// `every_op_suite` as the boxed-closure tape computed it: the enum tape
/// must reproduce every bit.
const EVERY_OP_FP: &str = "10fef1a510069138";

/// Child half of [`every_op_fingerprint`]: prints the suite's hash.
#[test]
fn every_op_child_fingerprint() {
    println!("EVERY_OP_FP={:016x}", every_op_suite());
}

#[test]
fn every_op_fingerprint() {
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "2", "7"] {
        let out = std::process::Command::new(&exe)
            .args(["every_op_child_fingerprint", "--exact", "--nocapture"])
            .env("LM4DB_THREADS", threads)
            .output()
            .expect("spawn every-op child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains(&format!("EVERY_OP_FP={EVERY_OP_FP}")),
            "LM4DB_THREADS={threads}: want EVERY_OP_FP={EVERY_OP_FP}, child printed:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
