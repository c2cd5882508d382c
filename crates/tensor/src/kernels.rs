//! Cache-blocked, register-tiled compute kernels shared by the tensor ops
//! and the transformer's inference fast path.
//!
//! Every kernel preserves the crate's determinism contract (see
//! [`crate::pool`]): each output element is produced by a **single serial
//! accumulation chain** over the reduction dimension in ascending order,
//! with one `f32` accumulator. Register tiling keeps several independent
//! output elements in flight, but never changes the order of operations
//! *within* any element's chain — so the tiled kernels are bit-identical to
//! a naive triple loop, at any thread count, and safe for the compiler to
//! autovectorize across output lanes (Rust never contracts `a * b + c`
//! into a fused multiply-add, so lane-wise code generation cannot change
//! the result either).
//!
//! Layout of the matmul family (DESIGN.md §5g): one register tile behind
//! [`gemm_acc`], which every product — `matmul(_bt, _tn)` between
//! activations, the `matmul_panels` family for weights and decode's
//! [`vec_matmul_rows`] — goes through.
//! It accumulates *into* C (zeroed in training, the bias rows in decode),
//! reads the left operand as `x(r, i) = x[r·rs + i·cs]` (row-major `A` is
//! `cs = 1`, the columns `A^T x B` reduces over `rs = 1`), and the right
//! one and C as 8-column blocks: block `v` at `w[v·vs]` and `c[v·vc]`, rows
//! `ldw` and `ldc` apart. Row-major operands are `vs = vc = 8`; `B^T` is
//! packed into `[n/8][k][8]` panels (`vs = 8k`); a panel-order gradient is
//! written with `ldc = 8`, `vc = 8·rows`. A tile holds [`ROW_TILE`] rows × 16
//! columns, or a short last row group across more columns — eight 8-lane
//! chains in flight — and the last `n % 8` columns are masked.
//!
//! Every model projection weight is stored in the order the tile reads it
//! ([`pack_panels`]): `d_out / 8` column blocks of `[d_in][8]`, then the
//! `d_out % 8` tail as `[d_in][t]`, no padding. [`vec_matmul_rows`] reads
//! it there (`ldw = 8`, `vs = 8·d_in`, a second call for the tail) in
//! decode and training alike: a tile's weight rows are 32 bytes apart, not
//! `4·d_out`, a stream the prefetchers follow from L3 once the weights
//! outgrow L2, with the same chains and so the same bits as row-major.
//!
//! On x86-64 the tile is a runtime-detected AVX function built from
//! lane-wise `mul_ps`/`add_ps` only — **never** fused multiply-adds. Each
//! SIMD lane performs exactly the scalar fallback's `acc += x * w` chain
//! with IEEE-identical rounding, so the AVX and scalar paths produce the
//! same bits and the golden outputs do not depend on which machine ran them.
//!
//! The activation kernel ([`gelu`], [`gelu_in_place`], [`gelu_grad_scale`])
//! follows the same rule by other means: its exponential is written out in
//! lane-wise IEEE operations — no libm, whose `tanhf` was a third of the
//! stacked forward and differs between hosts — and its AVX variant is the
//! scalar loop compiled a second time under the wider target feature.

// GEMM kernels take BLAS-style flat argument lists (operands, leading
// dimensions, tile origin) by design; bundling them into structs would
// obscure the correspondence with the textbook kernel signatures.
#![allow(clippy::too_many_arguments)]

/// Columns per column block of [`gemm_acc`]'s right-hand side: one AVX
/// register of `f32`.
const LANES: usize = 8;

/// Rows per register tile of [`gemm_acc`] (4 rows × 16 columns, eight AVX
/// accumulators). A caller that splits a stack of rows into groups should
/// give each group at least this many, so every group fills a tile.
pub const ROW_TILE: usize = 4;

/// Packs transposed-layout `bt` (`[n][k]` row-major, i.e. `B^T`) into
/// `[n/8]` column blocks of `[k][8]`, the layout [`gemm_acc`] reads with
/// `ldw = 8`, `vs = 8k`. Lanes past `n` in the last block are never read.
fn pack_transposed(bt: &[f32], k: usize, n: usize, panels: &mut [f32]) {
    for (jp, slab) in panels.chunks_exact_mut(k * LANES).enumerate() {
        let j0 = jp * LANES;
        for jj in 0..LANES.min(n - j0) {
            let col = &bt[(j0 + jj) * k..(j0 + jj) * k + k];
            for (p, &v) in col.iter().enumerate() {
                slab[p * LANES + jj] = v;
            }
        }
    }
}

/// [`pack_transposed`] of a `bt` held in decode panel order
/// ([`pack_panels`]), read in storage order: row `j`'s runs land 8 apart
/// in lane `j % 8` of block `j / 8`.
pub(crate) fn pack_transposed_panels(bt: &[f32], k: usize, n: usize, panels: &mut [f32]) {
    let full = k / LANES * LANES;
    let mut place = |j: usize, p0: usize, run: &[f32]| {
        let at = j / LANES * k * LANES + p0 * LANES + j % LANES;
        for (p, &v) in run.iter().enumerate() {
            panels[at + p * LANES] = v;
        }
    };
    for (v, block) in bt[..full * n].chunks_exact((LANES * n).max(1)).enumerate() {
        for (j, run) in block.chunks_exact(LANES).enumerate() {
            place(j, v * LANES, run);
        }
    }
    for (j, run) in bt[full * n..].chunks_exact((k - full).max(1)).enumerate() {
        place(j, full, run);
    }
}

/// The one GEMM tile, accumulating into C:
/// `c[(j/8)·vc + r·ldc + j%8] += Σ_i x[r·rs + i·cs] · w[(j/8)·vs + i·ldw + j%8]`
/// for `r < rows`, `j < n`, each element one chain from its initial value
/// with `i` ascending. C and W are both read as 8-column blocks: `vc = 8`
/// is a row-major C, and `ldc = 8`, `vc = 8·rows` writes C in decode panel
/// order. Elements of `c` outside those `rows × n` are neither read nor
/// written.
///
/// # Panics
/// If `vs` or `vc` is under 8, or any index the formula touches is outside.
pub fn gemm_acc(
    x: &[f32],
    rs: usize,
    cs: usize,
    rows: usize,
    k: usize,
    w: &[f32],
    ldw: usize,
    vs: usize,
    n: usize,
    c: &mut [f32],
    ldc: usize,
    vc: usize,
) {
    if rows == 0 || k == 0 || n == 0 {
        return;
    }
    // The safety argument of the AVX tile: the largest index of each
    // operand, computed without overflow, is inside its slice. With
    // `vs, vc >= 8` column blocks do not overlap, so the last lane of the
    // last block is the largest `w` and `c` index.
    let last = |a: (usize, usize), b: (usize, usize), lane: usize| {
        a.0 as u128 * a.1 as u128 + b.0 as u128 * b.1 as u128 + lane as u128
    };
    assert!(
        vs >= LANES
            && vc >= LANES
            && last((rows - 1, rs), (k - 1, cs), 0) < x.len() as u128
            && last(((n - 1) / LANES, vs), (k - 1, ldw), (n - 1) % LANES) < w.len() as u128
            && last(((n - 1) / LANES, vc), (rows - 1, ldc), (n - 1) % LANES) < c.len() as u128,
        "gemm_acc operands out of bounds"
    );
    #[cfg(target_arch = "x86_64")]
    if avx::usable() {
        // SAFETY: AVX support was just checked, and the assert bounds every
        // index the tiles touch.
        unsafe { avx::gemm_acc(x, rs, cs, rows, k, w, ldw, vs, n, c, ldc, vc) };
        return;
    }
    gemm_acc_scalar(x, rs, cs, rows, k, w, ldw, vs, n, c, ldc, vc);
}

/// [`gemm_acc`] one element at a time: the same chain per element, for
/// hosts without AVX.
fn gemm_acc_scalar(
    x: &[f32],
    rs: usize,
    cs: usize,
    rows: usize,
    k: usize,
    w: &[f32],
    ldw: usize,
    vs: usize,
    n: usize,
    c: &mut [f32],
    ldc: usize,
    vc: usize,
) {
    for r in 0..rows {
        for j in 0..n {
            let wj = j / LANES * vs + j % LANES;
            let cj = j / LANES * vc + j % LANES + r * ldc;
            let mut acc = c[cj];
            for i in 0..k {
                acc += x[r * rs + i * cs] * w[wj + i * ldw];
            }
            c[cj] = acc;
        }
    }
}

/// Lane-wise AVX bodies of [`gemm_acc`] and the GELU slices. Compiled only
/// on x86-64 and entered only after a runtime `avx` check; every intrinsic
/// used (`broadcast`, `loadu`, `maskload`, `mul_ps`, `add_ps`) is a
/// per-lane IEEE operation, so these produce bit-identical results to the
/// scalar fallbacks — they just retire 8 lanes per instruction instead of
/// relying on what the autovectorizer manages at the SSE2 baseline. Keep
/// closures and `array::map` out of these functions: they are compiled
/// without the target feature and do not inline into it.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{LANES, ROW_TILE};
    use std::arch::x86_64::*;

    /// True once the CPU reports AVX; checked per kernel call (the result
    /// is cached by `is_x86_feature_detected!` itself).
    #[inline]
    pub fn usable() -> bool {
        is_x86_feature_detected!("avx")
    }

    /// Eight-lane build of [`super::gelu_in_place`]'s loop: the scalar body,
    /// inlined here and vectorized by the compiler under this function's
    /// target feature (`fma` is not enabled, and Rust never contracts). AVX
    /// alone splits the two integer operations of the exponent arithmetic
    /// into halves; enabling AVX2 as well measured 0.84 against 0.99 ns per
    /// element, not worth a second feature check.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX ([`usable`]).
    #[target_feature(enable = "avx")]
    pub unsafe fn gelu_in_place(xs: &mut [f32]) {
        super::gelu_lanes(xs);
    }

    /// Eight-lane build of [`super::gelu_grad_scale`]'s loop.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX ([`usable`]).
    #[target_feature(enable = "avx")]
    pub unsafe fn gelu_grad_scale(dy: &mut [f32], x: &[f32]) {
        super::gelu_grad_lanes(dy, x);
    }

    /// `MASKS[8 - t..][..8]` enables the first `t` lanes.
    static MASKS: [i32; 2 * LANES] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// One [`super::gemm_acc`] call's operands as raw pointers and strides.
    #[derive(Clone, Copy)]
    struct Operands {
        x: *const f32,
        rs: usize,
        cs: usize,
        k: usize,
        w: *const f32,
        ldw: usize,
        vs: usize,
        c: *mut f32,
        ldc: usize,
        vc: usize,
    }

    impl Operands {
        /// The operands of the tile whose first output is C's `(r, j)`.
        ///
        /// # Safety
        /// `(r, j)` is inside the call's `rows × n`, and `j % 8 == 0`.
        #[inline(always)]
        unsafe fn at(self, r: usize, j: usize) -> Operands {
            Operands {
                x: self.x.add(r * self.rs),
                w: self.w.add(j / LANES * self.vs),
                c: self.c.add(r * self.ldc + j / LANES * self.vc),
                ..self
            }
        }
    }

    /// [`super::gemm_acc`] on raw pointers: row groups of [`ROW_TILE`], a
    /// short last group as 3 × 16, 2 × 32 or 1 × 64 tiles so it keeps six
    /// to eight chains in flight too (two, for one row in a 16-column tile,
    /// leave it latency-bound).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX ([`usable`]) and that every
    /// index `gemm_acc`'s formula touches is in bounds.
    #[target_feature(enable = "avx")]
    pub unsafe fn gemm_acc(
        x: &[f32],
        rs: usize,
        cs: usize,
        rows: usize,
        k: usize,
        w: &[f32],
        ldw: usize,
        vs: usize,
        n: usize,
        c: &mut [f32],
        ldc: usize,
        vc: usize,
    ) {
        let (x, w, c) = (x.as_ptr(), w.as_ptr(), c.as_mut_ptr());
        let o = Operands {
            x,
            rs,
            cs,
            k,
            w,
            ldw,
            vs,
            c,
            ldc,
            vc,
        };
        for r0 in (0..rows).step_by(ROW_TILE) {
            match rows - r0 {
                1 => group::<1, 8>(o.at(r0, 0), n),
                2 => group::<2, 4>(o.at(r0, 0), n),
                3 => group::<3, 2>(o.at(r0, 0), n),
                _ => group::<4, 2>(o.at(r0, 0), n),
            }
        }
    }

    /// `R` rows across all `n` columns: `8·V`-column tiles while they fit,
    /// then 16- and 8-column ones, then the masked `n % 8` tail.
    ///
    /// # Safety
    /// As for [`gemm_acc`].
    #[target_feature(enable = "avx")]
    unsafe fn group<const R: usize, const V: usize>(o: Operands, n: usize) {
        let all = _mm256_set1_epi32(-1);
        let mut j = 0;
        while j + LANES * V <= n {
            tile::<R, V, false>(o.at(0, j), all);
            j += LANES * V;
        }
        while j + 2 * LANES <= n {
            tile::<R, 2, false>(o.at(0, j), all);
            j += 2 * LANES;
        }
        while j + LANES <= n {
            tile::<R, 1, false>(o.at(0, j), all);
            j += LANES;
        }
        if j < n {
            let mask = _mm256_loadu_si256(MASKS[LANES - (n - j)..].as_ptr().cast());
            tile::<R, 1, true>(o.at(0, j), mask);
        }
    }

    /// One register tile: `R` rows × `8·V` columns, `R·V` 8-lane
    /// accumulators loaded from C, held across the whole `i` sweep and
    /// stored back. Each weight vector is loaded once per `i` and shared by
    /// the `R` rows; each lane does the scalar chain — broadcast, mul, add,
    /// `i` ascending, no FMA — so the tile shape never shows in the result.
    /// With `MASKED` (and `V == 1`) only `mask`'s lanes of C and W are read
    /// or written.
    ///
    /// # Safety
    /// As for [`gemm_acc`].
    #[target_feature(enable = "avx")]
    unsafe fn tile<const R: usize, const V: usize, const MASKED: bool>(o: Operands, mask: __m256i) {
        let Operands {
            x,
            rs,
            cs,
            k,
            w,
            ldw,
            vs,
            c,
            ldc,
            vc,
        } = o;
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for (r, accr) in acc.iter_mut().enumerate() {
            for (v, a) in accr.iter_mut().enumerate() {
                let p = c.add(r * ldc + v * vc);
                *a = if MASKED {
                    _mm256_maskload_ps(p, mask)
                } else {
                    _mm256_loadu_ps(p)
                };
            }
        }
        for i in 0..k {
            let mut wv = [_mm256_setzero_ps(); V];
            for (v, wvv) in wv.iter_mut().enumerate() {
                let p = w.add(v * vs + i * ldw);
                *wvv = if MASKED {
                    _mm256_maskload_ps(p, mask)
                } else {
                    _mm256_loadu_ps(p)
                };
            }
            for (r, accr) in acc.iter_mut().enumerate() {
                let xv = _mm256_broadcast_ss(&*x.add(r * rs + i * cs));
                for (a, &wvv) in accr.iter_mut().zip(&wv) {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, wvv));
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            for (v, &a) in accr.iter().enumerate() {
                let p = c.add(r * ldc + v * vc);
                if MASKED {
                    _mm256_maskstore_ps(p, mask, a);
                } else {
                    _mm256_storeu_ps(p, a);
                }
            }
        }
    }
}

/// Splits output rows `first..first + rows` of a product batched over
/// groups of `m` rows into runs that stay inside one batch, as
/// `(offset in the chunk, length, batch of the first row)`.
fn batch_runs(first: usize, rows: usize, m: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut r0 = 0;
    std::iter::from_fn(move || {
        (r0 < rows).then(|| {
            let row = first + r0;
            let run = (m - row % m).min(rows - r0);
            let item = (r0, run, row / m);
            r0 += run;
            item
        })
    })
}

/// One parallel chunk of batched `A x B`: accumulates output rows
/// `first..first + block.len()/n` (global over `batch * m`) into `block`,
/// which `Tensor::matmul` passes zeroed. Row-major B is read in place.
pub fn gemm_nn_block(
    first: usize,
    block: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    for (r0, run, batch) in batch_runs(first, block.len() / n, m) {
        let (a, b) = (
            &a[(first + r0) * k..],
            &b[batch * k * n..(batch + 1) * k * n],
        );
        let c = &mut block[r0 * n..];
        gemm_acc(a, k, 1, run, k, b, n, LANES, n, c, n, LANES);
    }
}

/// One parallel chunk of batched `A x B^T` (`b` is `[n][k]` row-major),
/// accumulated into `block` like [`gemm_nn_block`]. Each run's B is
/// transposed into column blocks first, so the tile reads the same
/// contiguous 8-lane rows as for `A x B`, in the same `k`-ascending order.
pub fn gemm_bt_block(
    first: usize,
    block: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if n == 0 || k == 0 {
        return;
    }
    let mut panels = vec![0.0f32; k * n.div_ceil(LANES) * LANES];
    for (r0, run, batch) in batch_runs(first, block.len() / n, m) {
        pack_transposed(&b[batch * n * k..(batch + 1) * n * k], k, n, &mut panels);
        let a = &a[(first + r0) * k..];
        gemm_acc(
            a,
            k,
            1,
            run,
            k,
            &panels,
            LANES,
            LANES * k,
            n,
            &mut block[r0 * n..],
            n,
            LANES,
        );
    }
}

/// One parallel chunk of batched `A^T x B`, accumulated into `block`:
/// output rows `first..` are global over `batch * k`, and output row `p`
/// reduces over column `p` of A — the tile's left operand with `rs = 1`,
/// `cs = k` — against row-major B, `i` ascending.
pub fn gemm_tn_block(
    first: usize,
    block: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if n == 0 || m == 0 {
        return;
    }
    for (r0, run, batch) in batch_runs(first, block.len() / n, k) {
        let p0 = (first + r0) % k;
        let a = &a[batch * m * k + p0..(batch + 1) * m * k];
        let b = &b[batch * m * n..(batch + 1) * m * n];
        let c = &mut block[r0 * n..];
        gemm_acc(a, 1, k, run, m, b, n, LANES, n, c, n, LANES);
    }
}

/// Numerically stabilized softmax of one row, in place: max-fold, then a
/// single serial exp-and-sum pass (ascending), then scale by `1/sum`.
/// Shared by the tensor op, the cached-attention path, and the decoding
/// strategies so every softmax in the system uses identical float
/// operations.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// Numerically stable log-softmax of one row, in place. Same serial
/// exp-sum chain as [`softmax_in_place`].
pub fn log_softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let logsum = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
    for x in row.iter_mut() {
        *x -= logsum;
    }
}

/// `√(2/π)` and the cubic coefficient of the tanh-form GELU (BERT/GPT).
const GELU_C: f32 = 0.797_884_6;
const GELU_A: f32 = 0.044_715;

/// `e^(−2u)` for `u = √(2/π)·(x + 0.044715x³)` — the one transcendental of
/// GELU and its derivative. Built only from `+ − ×`, compare-and-select and
/// exponent bits: no libm call, no FMA, no branch, so every lane of a
/// vector build performs exactly these operations and rounds exactly like
/// the scalar build.
///
/// The argument `a = −2u` is clamped to `[−87, 89]`, split as `a = n·ln2 +
/// r` (`n` rounded to nearest by adding and subtracting `1.5·2²³`, `ln2`
/// in a short high part whose products with `n` are exact plus a low
/// part), `e^r` is a degree-6 polynomial on `|r| ≤ ln2/2` (relative error
/// 1.1e-8 before rounding) and `2ⁿ` is `n + 127` written into the exponent
/// field — read straight off the low bits of the rounded sum. The lower
/// clamp keeps `n ≥ −126` (no subnormal); the upper one lets `n` reach 128,
/// whose bit pattern is `+∞`: the result saturates to `+∞` from `a ≈ 88.4`
/// up, which is what makes `x / (1 + e)` exactly `−0` for every `x ≤ −10.1`
/// however large. NaN passes through the clamp and comes out NaN.
#[inline(always)]
fn gelu_exp(x: f32) -> f32 {
    const ROUND: f32 = 12_582_912.0; // 1.5 · 2²³
    const LN2_HI: f32 = 355.0 / 512.0; // nine bits, so n·LN2_HI is exact
    const LN2_LO: f32 = -2.121_944_4e-4;
    let u = GELU_C * (x + GELU_A * x * x * x);
    let a = (-2.0 * u).clamp(-87.0, 89.0);
    let t = a * std::f32::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let r = a - n * LN2_HI - n * LN2_LO;
    let q = 1.392_620_4e-3;
    let q = q * r + 8.363_195e-3;
    let q = q * r + 4.166_655_6e-2;
    let q = q * r + 1.666_657_6e-1;
    let q = q * r + 0.5;
    let p = 1.0 + r + r * r * q;
    p * f32::from_bits((t.to_bits() << 23).wrapping_add(0x3F80_0000))
}

/// GELU activation, tanh approximation (as used by BERT/GPT), evaluated as
/// `x·σ(2u) = x / (1 + e^(−2u))` with `u = √(2/π)·(x + 0.044715x³)` —
/// algebraically `½x(1 + tanh u)`, but one exponential and one divide with
/// no cancellation, and no libm (the exponential is `gelu_exp` above).
/// Within 1e-6 of the f64 tanh formula on `[−12, 12]`; finite for every
/// finite input.
#[inline(always)]
pub fn gelu(x: f32) -> f32 {
    x / (1.0 + gelu_exp(x))
}

/// Derivative of [`gelu`]: `s + x·s(1−s)·2√(2/π)(1 + 3·0.044715x²)` with
/// `s = σ(2u)` from the same `gelu_exp`. `x²` is capped so the last
/// factor stays finite where `s(1−s)` is already exactly zero.
#[inline(always)]
pub fn gelu_grad(x: f32) -> f32 {
    let s = 1.0 / (1.0 + gelu_exp(x));
    let x2 = (x * x).min(1e30);
    s + x * s * (1.0 - s) * (2.0 * GELU_C * (1.0 + 3.0 * GELU_A * x2))
}

/// The loop both builds of [`gelu_in_place`] compile: the same body, at
/// the caller's vector width.
#[inline(always)]
fn gelu_lanes(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = gelu(*x);
    }
}

/// The loop both builds of [`gelu_grad_scale`] compile.
#[inline(always)]
fn gelu_grad_lanes(dy: &mut [f32], x: &[f32]) {
    for (d, &xi) in dy.iter_mut().zip(x) {
        *d *= gelu_grad(xi);
    }
}

/// [`gelu`] of every element, in place. On x86-64 with AVX the loop is
/// compiled a second time eight lanes wide; both builds run the one body
/// above, so they agree bit for bit (a unit test holds them to it).
pub fn gelu_in_place(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx::usable() {
        // SAFETY: AVX support was just checked.
        unsafe { avx::gelu_in_place(xs) };
        return;
    }
    gelu_lanes(xs);
}

/// GELU's backward pass in place: `dy[i] *= gelu'(x[i])` ([`gelu_grad`]),
/// dispatched like [`gelu_in_place`].
pub fn gelu_grad_scale(dy: &mut [f32], x: &[f32]) {
    assert_eq!(dy.len(), x.len(), "gelu_grad_scale length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx::usable() {
        // SAFETY: AVX support was just checked.
        unsafe { avx::gelu_grad_scale(dy, x) };
        return;
    }
    gelu_grad_lanes(dy, x);
}

/// Scaled dot-product scores of one query head against every cached key:
/// `scores[t] = (Σ_p q[p] * keys[t*d + off + p]) * scale`. Four cached
/// positions run in flight — each score still sums `p` ascending with its
/// own single accumulator (bit-identical to one-at-a-time), but the four
/// independent chains hide the floating-point add latency that makes a
/// lone dot product serial.
pub fn attn_scores(q: &[f32], keys: &[f32], d: usize, off: usize, scale: f32, scores: &mut [f32]) {
    let hd = q.len();
    let total = scores.len();
    let mut t = 0;
    while t + 4 <= total {
        let base = t * d + off;
        let k0 = &keys[base..base + hd];
        let k1 = &keys[base + d..base + d + hd];
        let k2 = &keys[base + 2 * d..base + 2 * d + hd];
        let k3 = &keys[base + 3 * d..base + 3 * d + hd];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (p, &qp) in q.iter().enumerate() {
            a0 += qp * k0[p];
            a1 += qp * k1[p];
            a2 += qp * k2[p];
            a3 += qp * k3[p];
        }
        scores[t] = a0 * scale;
        scores[t + 1] = a1 * scale;
        scores[t + 2] = a2 * scale;
        scores[t + 3] = a3 * scale;
        t += 4;
    }
    while t < total {
        let kh = &keys[t * d + off..t * d + off + hd];
        let mut acc = 0.0f32;
        for (&qp, &kp) in q.iter().zip(kh.iter()) {
            acc += qp * kp;
        }
        scores[t] = acc * scale;
        t += 1;
    }
}

/// Probability-weighted value mix: `ctx[j] += Σ_t probs[t] *
/// vals[t*d + off + j]`, `t` ascending — an axpy over cached positions
/// that vectorizes across the `ctx` lanes.
pub fn attn_mix(probs: &[f32], vals: &[f32], d: usize, off: usize, ctx: &mut [f32]) {
    let hd = ctx.len();
    for (t, &p) in probs.iter().enumerate() {
        let vh = &vals[t * d + off..t * d + off + hd];
        for (c, &vv) in ctx.iter_mut().zip(vh.iter()) {
            *c += p * vv;
        }
    }
}

/// Fused softmax·V attention for one head: raw score logits in `scores`
/// are softmaxed in place and immediately mixed into `ctx`, so no per-head
/// probability matrix is ever materialized beyond the single reusable
/// scratch row.
pub fn attn_head(
    q: &[f32],
    keys: &[f32],
    vals: &[f32],
    d: usize,
    off: usize,
    scale: f32,
    scores: &mut [f32],
    ctx: &mut [f32],
) {
    attn_scores(q, keys, d, off, scale, scores);
    softmax_in_place(scores);
    attn_mix(scores, vals, d, off, ctx);
}

/// One parallel chunk of a vector-matrix product `y = x W + b`:
/// `y_block` covers output columns `first..first + y_block.len()` of a
/// `[d_in, d_out]` weight and must already hold the matching bias slice.
/// [`gemm_acc`] for one row; the benchmark's mat·vec probe calls it, the
/// model's layers call [`vec_matmul_rows`].
pub fn vec_matmul_block(x: &[f32], w: &[f32], d_out: usize, first: usize, y_block: &mut [f32]) {
    gemm_acc(
        x,
        0,
        1,
        1,
        x.len(),
        &w[first..],
        d_out,
        LANES,
        y_block.len(),
        y_block,
        0,
        LANES,
    );
}

/// A contiguous run of a stored `[d_in][d_out]` weight, as `(row-major
/// start, start in storage, length)`.
type Run = (usize, usize, usize);

/// The runs of a `[d_in][d_out]` weight, in row-major index order. Stored
/// in decode panel order (`panels`), that is `d_out / 8` column blocks of
/// `[d_in][8]`, then the `d_out % 8` tail columns as `[d_in][t]`, with no
/// padding; stored row-major, it is one run per row.
pub(crate) fn storage_runs(d_in: usize, d_out: usize, panels: bool) -> impl Iterator<Item = Run> {
    let full = d_out / LANES * LANES * usize::from(panels);
    let t = d_out - full;
    (0..d_in).flat_map(move |i| {
        let blocks =
            (0..full / LANES).map(move |v| (i * d_out + v * LANES, (v * d_in + i) * LANES, LANES));
        blocks.chain((t > 0).then_some((i * d_out + full, full * d_in + i * t, t)))
    })
}

/// Rewrites row-major `w` (`[d_in][d_out]`) into the decode panel order
/// [`vec_matmul_rows`] reads, in `panels` (same length).
pub fn pack_panels(w: &[f32], d_in: usize, d_out: usize, panels: &mut [f32]) {
    assert!(
        w.len() == d_in * d_out && panels.len() == w.len(),
        "pack_panels shape mismatch"
    );
    for (src, dst, len) in storage_runs(d_in, d_out, true) {
        panels[dst..dst + len].copy_from_slice(&w[src..src + len]);
    }
}

/// The inverse of [`pack_panels`]: panel order back to row-major `w`.
pub fn unpack_panels(panels: &[f32], d_in: usize, d_out: usize, w: &mut [f32]) {
    assert!(
        w.len() == d_in * d_out && panels.len() == w.len(),
        "unpack_panels shape mismatch"
    );
    for (dst, src, len) in storage_runs(d_in, d_out, true) {
        w[dst..dst + len].copy_from_slice(&panels[src..src + len]);
    }
}

/// [`gemm_acc`]'s signature: the entry point or its scalar fallback.
type Gemm =
    fn(&[f32], usize, usize, usize, usize, &[f32], usize, usize, usize, &mut [f32], usize, usize);

/// Multi-row vector-matrix product: `rows` input vectors (`xs`, row-major,
/// `d_in` wide) against one `[d_in, d_out]` weight held in decode panel
/// order ([`pack_panels`]), into `rows` outputs (`ys`, row-major, `d_out`
/// wide, pre-filled with the bias row by the caller). This is [`gemm_acc`]
/// with C = the bias rows, once over the column blocks (`ldw = 8`,
/// `vs = 8·d_in`) and once over the tail: per output element one
/// bias-initialized, `i`-ascending chain, whatever the row count, so a
/// batched application equals `rows` single applications byte for byte,
/// and equals the row-major product bit for bit.
///
/// The batch exists for memory locality: the cached-decode matvec is bound
/// on weight traffic, and each weight tile is streamed once per group of
/// [`ROW_TILE`] rows instead of once per row, which is what makes a stacked
/// forward — a prefill chunk, or one decode row from each of several
/// sequences — cheaper than feeding row by row. Panel order is what keeps
/// that stream fast once the weights outgrow L2: a tile's 8-lane rows sit
/// 32 bytes apart instead of `4·d_out`, a stride the hardware prefetchers
/// follow (DESIGN.md §5g).
pub fn vec_matmul_rows(xs: &[f32], d_in: usize, w: &[f32], d_out: usize, ys: &mut [f32]) {
    vec_matmul_rows_with(gemm_acc, xs, d_in, w, d_out, ys);
}

/// [`vec_matmul_rows`] through either build of the tile.
fn vec_matmul_rows_with(
    gemm: Gemm,
    xs: &[f32],
    d_in: usize,
    w: &[f32],
    d_out: usize,
    ys: &mut [f32],
) {
    assert!(d_in > 0 && d_out > 0, "vec_matmul_rows of empty weight");
    let rows = xs.len() / d_in;
    assert_eq!(xs.len(), rows * d_in, "xs is not a whole number of rows");
    assert_eq!(w.len(), d_in * d_out, "w is not a [d_in, d_out] weight");
    assert_eq!(ys.len(), rows * d_out, "ys shape mismatch");
    let full = d_out / LANES * LANES;
    let (blocks, tail) = w.split_at(full * d_in);
    gemm(
        xs,
        d_in,
        1,
        rows,
        d_in,
        blocks,
        LANES,
        LANES * d_in,
        full,
        ys,
        d_out,
        LANES,
    );
    if full < d_out && rows > 0 {
        let t = d_out - full;
        gemm(
            xs,
            d_in,
            1,
            rows,
            d_in,
            tail,
            t,
            LANES,
            t,
            &mut ys[full..],
            d_out,
            LANES,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_nn(a: &[f32], b: &[f32], ab: usize, m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; ab * m * n];
        for batch in 0..ab {
            let b_off = batch * k * n;
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a[batch * m * k + i * k + p] * b[b_off + p * n + j];
                    }
                    out[batch * m * n + i * n + j] = acc;
                }
            }
        }
        out
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    #[test]
    fn nn_block_matches_naive_at_edge_shapes() {
        // Shapes straddling every tile edge: rows % ROW_TILE, cols % 8, and
        // a chunk split mid-batch; then a transformer-block shape, whole-tile
        // and ragged, with a deep k.
        for &(ab, m, k, n) in &[
            (1usize, 1usize, 1usize, 1usize),
            (1, 5, 7, 9),
            (2, 6, 13, 17),
            (3, 4, 8, 8),
            (2, 9, 33, 19),
            (1, 64, 256, 256),
            (1, 61, 200, 130),
        ] {
            let a = fill(ab * m * k, 1);
            let b = fill(ab * k * n, 2);
            let want = naive_nn(&a, &b, ab, m, k, n);
            // Run as two chunks split at an arbitrary row to exercise the
            // mid-batch entry path.
            let rows = ab * m;
            let split = (rows / 2).max(1).min(rows);
            let mut got = vec![0.0f32; rows * n];
            let (lo, hi) = got.split_at_mut(split * n);
            gemm_nn_block(0, lo, &a, &b, m, k, n);
            if !hi.is_empty() {
                gemm_nn_block(split, hi, &a, &b, m, k, n);
            }
            assert_eq!(got, want, "shape ab={ab} m={m} k={k} n={n}");
        }
    }

    #[test]
    fn bt_block_matches_naive_dot() {
        for &(ab, m, k, n) in &[
            (2usize, 5usize, 11usize, 7usize),
            (1, 64, 256, 256),
            (1, 61, 200, 130),
        ] {
            let a = fill(ab * m * k, 3);
            let bt = fill(ab * n * k, 4);
            let mut want = vec![0.0f32; ab * m * n];
            for batch in 0..ab {
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0f32;
                        for p in 0..k {
                            acc += a[batch * m * k + i * k + p] * bt[batch * n * k + j * k + p];
                        }
                        want[batch * m * n + i * n + j] = acc;
                    }
                }
            }
            let mut got = vec![0.0f32; ab * m * n];
            gemm_bt_block(0, &mut got, &a, &bt, m, k, n);
            assert_eq!(got, want, "shape ab={ab} m={m} k={k} n={n}");
        }
    }

    #[test]
    fn tn_blocks_match_naive_transpose() {
        let (ab, m, k, n) = (2usize, 9usize, 6usize, 10usize);
        let a = fill(ab * m * k, 5);
        let b = fill(ab * m * n, 6);
        // matmul_tn reference.
        let mut want = vec![0.0f32; ab * k * n];
        for batch in 0..ab {
            for p in 0..k {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for i in 0..m {
                        acc += a[batch * m * k + i * k + p] * b[batch * m * n + i * n + j];
                    }
                    want[batch * k * n + p * n + j] = acc;
                }
            }
        }
        let mut got = vec![0.0f32; ab * k * n];
        gemm_tn_block(0, &mut got, &a, &b, m, k, n);
        assert_eq!(got, want);
    }

    #[test]
    fn vec_matmul_block_matches_scalar_axpy() {
        // Two chunks with an awkward split: ragged tiles only, then chunks
        // of 70 and 80 columns — a four-tile sweep plus ragged columns, and
        // a four-tile sweep plus one single tile.
        for (d_in, d_out, split) in [(13usize, 37usize, 21usize), (9, 150, 70)] {
            let x = fill(d_in, 7);
            let w = fill(d_in * d_out, 8);
            let bias = fill(d_out, 9);
            let mut want = bias.clone();
            for (i, &xi) in x.iter().enumerate() {
                for j in 0..d_out {
                    want[j] += xi * w[i * d_out + j];
                }
            }
            let mut got = bias.clone();
            let (lo, hi) = got.split_at_mut(split);
            vec_matmul_block(&x, &w, d_out, 0, lo);
            vec_matmul_block(&x, &w, d_out, split, hi);
            assert_eq!(got, want, "d_in={d_in} d_out={d_out}");
        }
    }

    #[test]
    fn vec_matmul_rows_bitwise_matches_per_row_block() {
        // A stacked batch must be indistinguishable from decoding row by
        // row: exact equality, not tolerance. Every remainder row count
        // (rows % 4 ∈ {1, 2, 3}, alone and after a full group) meets full
        // 16-column tiles (a short group in the four-row tile, a lone row
        // in the one-row tile), 80 columns (the lone row's four-tile sweep,
        // then a single tile) and ragged ones (an 8-column tile and the
        // masked tail). The reference is each row's own bias-initialized,
        // `i`-ascending chain.
        let mut shapes = vec![(4usize, 13usize, 48usize), (9, 7, 16)];
        for rows in [1, 2, 3, 5, 6, 7] {
            shapes.extend([(rows, 24, 48), (rows, 24, 80), (rows, 13, 37)]);
        }
        for (rows, d_in, d_out) in shapes {
            let xs = fill(rows * d_in, 21);
            let w = fill(d_in * d_out, 22);
            let bias = fill(d_out, 23);
            let mut want = Vec::with_capacity(rows * d_out);
            for r in 0..rows {
                for (j, &b) in bias.iter().enumerate() {
                    let mut acc = b;
                    for i in 0..d_in {
                        acc += xs[r * d_in + i] * w[i * d_out + j];
                    }
                    want.push(acc);
                }
            }
            let mut got = Vec::with_capacity(rows * d_out);
            for _ in 0..rows {
                got.extend_from_slice(&bias);
            }
            let mut panels = vec![0.0; w.len()];
            pack_panels(&w, d_in, d_out, &mut panels);
            vec_matmul_rows(&xs, d_in, &panels, d_out, &mut got);
            assert_eq!(got, want, "rows={rows} d_in={d_in} d_out={d_out}");
        }
    }

    /// An operand form: name, `x, rs, cs`, `w, ldw, vs`, and the naive C.
    type Form<'a> = (
        &'a str,
        &'a [f32],
        usize,
        usize,
        &'a [f32],
        usize,
        usize,
        &'a [f32],
    );

    /// The one oracle for the one tile. Every operand form the kernels use
    /// — row-major `A x B`, `A^T x B` down a strided column of A, `B^T`
    /// through packed panels, and decode's bias rows — against the naive
    /// chain from the same initial C (zero, as training passes it, or not),
    /// bit for bit: through the public entry points, and through
    /// [`gemm_acc`] and its scalar fallback into a row-major C with
    /// `ldc > n` and into a panel-order C (`ldc = 8`, `vc = 8·rows`, as a
    /// panel-order weight's gradient is written), where the NaN sentinels
    /// around every element must come back untouched. Rows cycle through
    /// 0–9 and `n % 8` through every residue, so every row group meets
    /// every masked tail.
    #[test]
    fn gemm_acc_matches_the_naive_chain() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut rng = proptest::TestRng::for_test("kernels::gemm_acc_matches_the_naive_chain");
        for case_no in 0..proptest::cases().max(80) as usize {
            let rows = case_no % 10;
            let n = (8 * rng.below(6) as usize + case_no / 10 % 8).min(40);
            let k = rng.below(71) as usize;
            // The `A^T` forms read `rows` of A's `lda` columns from `p0`.
            let lda = rows + rng.below(3) as usize;
            let p0 = if k == 0 {
                0
            } else {
                rng.below((lda - rows + 1) as u64) as usize
            };
            let ldc = n + rng.below(3) as usize;
            let s = case_no as u32 * 8;
            let (a, at) = (fill(rows * k, s), fill(k * lda, s + 1));
            let (b, bt) = (fill(k * n, s + 2), fill(n * k, s + 3));
            let c0 = if case_no % 2 == 0 {
                vec![0.0; rows * n]
            } else {
                fill(rows * n, s + 4)
            };
            let mut panels = vec![0.0; k * n.div_ceil(LANES) * LANES];
            if k > 0 {
                pack_transposed(&bt, k, n, &mut panels);
            }
            let naive = |x: &dyn Fn(usize, usize) -> f32, w: &dyn Fn(usize, usize) -> f32| {
                let mut c = c0.clone();
                for r in 0..rows {
                    for j in 0..n {
                        for i in 0..k {
                            c[r * n + j] += x(r, i) * w(i, j);
                        }
                    }
                }
                c
            };
            let nn = naive(&|r, i| a[r * k + i], &|i, j| b[i * n + j]);
            let tn = naive(&|r, i| at[i * lda + p0 + r], &|i, j| b[i * n + j]);
            let nbt = naive(&|r, i| a[r * k + i], &|i, j| bt[j * k + i]);
            let shape = format!("case {case_no}: rows={rows} k={k} n={n} lda={lda} p0={p0}");

            let forms: [Form; 3] = [
                ("nn", &a, k, 1, &b, n, LANES, &nn),
                ("tn", &at[p0..], 1, lda, &b, n, LANES, &tn),
                ("bt", &a, k, 1, &panels, LANES, LANES * k, &nbt),
            ];
            // C row-major with `ldc > n`, and in panel order (`ldc = 8`,
            // `vc = 8·rows`, the last block padded), each element at
            // `(j/8)·vc + r·ldc + j%8` among NaN sentinels.
            let c_forms = [
                ("row-major", ldc, LANES),
                ("panels", LANES, LANES * rows.max(1)),
            ];
            let sentinels = |c: &[f32], ldc: usize, vc: usize| {
                let mut big = vec![f32::NAN; n.div_ceil(LANES) * vc + rows * ldc + LANES];
                for r in 0..rows {
                    for j in 0..n {
                        big[j / LANES * vc + r * ldc + j % LANES] = c[r * n + j];
                    }
                }
                big
            };
            let kernels: [(&str, Gemm); 2] = [("gemm_acc", gemm_acc), ("scalar", gemm_acc_scalar)];
            for (form, x, rs, cs, w, ldw, vs, want) in forms {
                for (build, kernel) in kernels {
                    for (c_form, ldc, vc) in c_forms {
                        let mut c = sentinels(&c0, ldc, vc);
                        kernel(x, rs, cs, rows, k, w, ldw, vs, n, &mut c, ldc, vc);
                        let want = bits(&sentinels(want, ldc, vc));
                        assert_eq!(
                            bits(&c),
                            want,
                            "{form} {build} C {c_form} ldc={ldc} {shape}"
                        );
                    }
                }
            }

            let run = |f: &dyn Fn(&mut [f32])| {
                let mut c = c0.clone();
                f(&mut c);
                bits(&c)
            };
            let nn_got = run(&|c| gemm_nn_block(0, c, &a, &b, rows, k, n));
            assert_eq!(nn_got, bits(&nn), "nn {shape}");
            let tn_got = run(&|c| gemm_tn_block(p0, c, &at, &b, k, lda, n));
            assert_eq!(tn_got, bits(&tn), "tn {shape}");
            let bt_got = run(&|c| gemm_bt_block(0, c, &a, &bt, rows, k, n));
            assert_eq!(bt_got, bits(&nbt), "bt {shape}");
            if k > 0 && n > 0 {
                let mut b_panels = vec![0.0; b.len()];
                pack_panels(&b, k, n, &mut b_panels);
                let rows_got = run(&|c| vec_matmul_rows(&a, k, &b_panels, n, c));
                assert_eq!(rows_got, bits(&nn), "vec_matmul_rows {shape}");
            }
        }
    }

    /// Decode panel order against its definition, and decode against the
    /// naive chain. [`unpack_panels`] inverts [`pack_panels`], which puts
    /// `w[i][j]` at `(j/8)·8·d_in + 8i + j%8` for the column blocks and at
    /// `8⌊d_out/8⌋·d_in + t·i + (j − 8⌊d_out/8⌋)` for the `t = d_out % 8`
    /// tail. [`vec_matmul_rows`] on the panels — through `gemm_acc` and
    /// through the scalar fallback — equals each row's bias-initialized,
    /// `i`-ascending chain over row-major `w`, bit for bit, at 1–9 rows and
    /// every tail width; NaN sentinels on both sides of every operand
    /// catch a read or write outside its slice.
    #[test]
    fn panel_order_round_trips_and_decodes_like_the_naive_chain() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        const PAD: usize = LANES;
        let fenced = |v: &[f32]| {
            let mut big = vec![f32::NAN; v.len() + 2 * PAD];
            big[PAD..PAD + v.len()].copy_from_slice(v);
            big
        };
        let mut rng = proptest::TestRng::for_test("kernels::panel_order");
        for case_no in 0..proptest::cases().max(72) as usize {
            let rows = 1 + case_no % 9;
            let d_out = 8 * rng.below(5) as usize + case_no / 9 % 8;
            let d_out = d_out.max(1);
            let d_in = 1 + rng.below(40) as usize;
            let s = case_no as u32 * 4;
            let (w, xs, bias) = (
                fill(d_in * d_out, s),
                fill(rows * d_in, s + 1),
                fill(d_out, s + 2),
            );
            let shape = format!("case {case_no}: rows={rows} d_in={d_in} d_out={d_out}");

            let mut panels = vec![0.0; w.len()];
            pack_panels(&w, d_in, d_out, &mut panels);
            let full = d_out / LANES * LANES;
            for i in 0..d_in {
                for j in 0..d_out {
                    let at = if j < full {
                        j / LANES * LANES * d_in + LANES * i + j % LANES
                    } else {
                        full * d_in + (d_out - full) * i + (j - full)
                    };
                    assert_eq!(
                        panels[at].to_bits(),
                        w[i * d_out + j].to_bits(),
                        "{shape} ({i}, {j})"
                    );
                }
            }
            let mut back = vec![f32::NAN; w.len()];
            unpack_panels(&panels, d_in, d_out, &mut back);
            assert_eq!(bits(&back), bits(&w), "unpack {shape}");

            let mut want = Vec::with_capacity(rows * d_out);
            for r in 0..rows {
                for (j, &b) in bias.iter().enumerate() {
                    let mut acc = b;
                    for i in 0..d_in {
                        acc += xs[r * d_in + i] * w[i * d_out + j];
                    }
                    want.push(acc);
                }
            }
            let (xs_f, w_f) = (fenced(&xs), fenced(&panels));
            let kernels: [(&str, Gemm); 2] = [("gemm_acc", gemm_acc), ("scalar", gemm_acc_scalar)];
            for (build, kernel) in kernels {
                let mut ys = fenced(&bias.repeat(rows));
                let n = rows * d_out;
                vec_matmul_rows_with(
                    kernel,
                    &xs_f[PAD..PAD + xs.len()],
                    d_in,
                    &w_f[PAD..PAD + panels.len()],
                    d_out,
                    &mut ys[PAD..PAD + n],
                );
                assert_eq!(bits(&ys), bits(&fenced(&want)), "{build} {shape}");
            }
        }
    }

    /// GELU, tanh form, in f64 — the formula the kernel approximates.
    fn gelu_f64(x: f64) -> f64 {
        let u = (2.0 / std::f64::consts::PI).sqrt() * (x + 0.044715 * x * x * x);
        0.5 * x * (1.0 + u.tanh())
    }

    /// A dense grid over [−12, 12] and every input class that could take
    /// its own path if the body ever grew a branch: signed zeros,
    /// infinities, NaN, the largest finite values, subnormals, and the
    /// inputs whose exponent argument `−2u` lands on either clamp (±87, 89),
    /// on the first `+∞` (88.4) and on `n = ±126 / 127`.
    fn gelu_inputs() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=24 * 512).map(|i| i as f32 / 512.0 - 12.0).collect();
        xs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
        xs.extend([f32::MAX, f32::MIN, f32::MIN_POSITIVE, -f32::MIN_POSITIVE]);
        xs.extend([1e-45, -1e-45, 1e-40, 1e19, -1e19, 2e19, -2e19, 1e30, -1e30]);
        for edge in [-10.2f32, -10.1, -10.05, -10.0, 9.9, 10.0, 10.04, 10.1] {
            xs.extend((-8..=8).map(|k| edge + k as f32 * 1e-3));
        }
        xs
    }

    #[test]
    fn gelu_slices_match_the_one_lane_body_bitwise() {
        // On an AVX host the slice kernels are the eight-lane build and
        // `gelu` / `gelu_grad` the scalar one; every slice length 0..=33
        // puts every input at every lane and in the vector loop's tail.
        let inputs = gelu_inputs();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for len in 0..=33usize {
            for start in (0..inputs.len() - len).step_by(29) {
                let xs = &inputs[start..start + len];
                let mut got = xs.to_vec();
                gelu_in_place(&mut got);
                let want: Vec<f32> = xs.iter().map(|&x| gelu(x)).collect();
                assert_eq!(bits(&got), bits(&want), "gelu len={len} start={start}");
                let dy = fill(len, start as u32);
                let mut got = dy.clone();
                gelu_grad_scale(&mut got, xs);
                let want: Vec<f32> = dy.iter().zip(xs).map(|(d, &x)| d * gelu_grad(x)).collect();
                assert_eq!(bits(&got), bits(&want), "grad len={len} start={start}");
            }
        }
    }

    #[test]
    fn gelu_is_within_1e6_of_the_f64_tanh_formula() {
        let (mut worst, mut worst_grad) = (0.0f64, 0.0f64);
        for i in 0..=24 * 4096 {
            let x = i as f32 / 4096.0 - 12.0;
            let xd = f64::from(x);
            worst = worst.max((f64::from(gelu(x)) - gelu_f64(xd)).abs());
            let h = 1e-5;
            let fd = (gelu_f64(xd + h) - gelu_f64(xd - h)) / (2.0 * h);
            worst_grad = worst_grad.max((f64::from(gelu_grad(x)) - fd).abs());
        }
        assert!(worst <= 1e-6, "gelu max abs error {worst:e}");
        assert!(worst_grad <= 1e-5, "gelu_grad max abs error {worst_grad:e}");
    }

    #[test]
    fn gelu_is_finite_on_finite_inputs_and_pinned_at_the_ends() {
        // Every 2¹⁵-th bit pattern — all exponents, both signs — and the
        // largest finite values.
        let finite = (0..=u32::MAX >> 15)
            .map(|i| f32::from_bits(i << 15))
            .chain([f32::MAX, f32::MIN])
            .filter(|x| x.is_finite());
        for x in finite {
            assert!(gelu(x).is_finite(), "gelu({x:e}) = {}", gelu(x));
            assert!(gelu_grad(x).is_finite(), "gelu'({x:e}) = {}", gelu_grad(x));
        }
        assert!(gelu(f32::NAN).is_nan() && gelu_grad(f32::NAN).is_nan());
        // The ends as they are: the identity on the right; on the left
        // `e^(−2u)` saturates to +∞, so a finite x gives −0 and −∞ gives
        // ∞/∞ — NaN, like the tanh form's `−∞ · 0`.
        assert_eq!(gelu(f32::INFINITY), f32::INFINITY);
        assert!(gelu(f32::NEG_INFINITY).is_nan());
        assert_eq!(gelu(f32::MIN).to_bits(), (-0.0f32).to_bits());
        assert_eq!(gelu(f32::MAX), f32::MAX);
        assert!(gelu_grad(f32::INFINITY).is_nan() && gelu_grad(f32::NEG_INFINITY).is_nan());
        assert_eq!((gelu_grad(f32::MAX), gelu_grad(f32::MIN)), (1.0, 0.0));
        assert_eq!(gelu(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(gelu(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(gelu_grad(0.0), 0.5);
    }

    #[test]
    fn attn_head_matches_unfused_reference() {
        let (t, h, hd) = (11usize, 3usize, 5usize);
        let d = h * hd;
        let q = fill(hd, 10);
        let keys = fill(t * d, 11);
        let vals = fill(t * d, 12);
        let off = hd; // head 1
        let scale = 0.37f32;
        // Reference: the pre-rewrite per-head loop, verbatim.
        let mut scores_ref = vec![0.0f32; t];
        for (ti, s) in scores_ref.iter_mut().enumerate() {
            let kh = &keys[ti * d + off..ti * d + off + hd];
            *s = q.iter().zip(kh.iter()).map(|(a, b)| a * b).sum::<f32>() * scale;
        }
        let max = scores_ref.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for s in scores_ref.iter_mut() {
            *s = (*s - max).exp();
            sum += *s;
        }
        let inv = 1.0 / sum;
        let mut ctx_ref = vec![0.0f32; hd];
        for (ti, &s) in scores_ref.iter().enumerate() {
            let p = s * inv;
            let vh = &vals[ti * d + off..ti * d + off + hd];
            for (c, &vv) in ctx_ref.iter_mut().zip(vh.iter()) {
                *c += p * vv;
            }
        }
        let mut scratch = vec![0.0f32; t];
        let mut ctx = vec![0.0f32; hd];
        attn_head(&q, &keys, &vals, d, off, scale, &mut scratch, &mut ctx);
        assert_eq!(ctx, ctx_ref, "fused attention diverged bitwise");
    }

    #[test]
    fn softmax_in_place_normalizes() {
        let mut row = vec![1.0f32, 2.0, 3.0, 1000.0];
        softmax_in_place(&mut row);
        assert!(row.iter().all(|x| x.is_finite()));
        assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }
}
