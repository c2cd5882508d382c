//! Cache-blocked, register-tiled compute kernels shared by the tensor ops
//! and the transformer's inference fast path.
//!
//! Every kernel preserves the crate's determinism contract (see
//! [`crate::pool`]): each output element is produced by a **single serial
//! accumulation chain** over the reduction dimension in ascending order,
//! with one `f32` accumulator. Register tiling keeps several independent
//! output elements in flight and panel packing rearranges the *inputs* for
//! contiguous loads, but neither changes the order of operations *within*
//! any element's chain — so the tiled kernels are bit-identical to a naive
//! triple loop, at any thread count, and safe for the compiler to
//! autovectorize across output lanes (Rust never contracts `a * b + c`
//! into a fused multiply-add, so lane-wise code generation cannot change
//! the result either).
//!
//! Layout of the matmul family (DESIGN.md §5g): an [`MR`]×[`NR`] register
//! microkernel over a packed B panel. Panels are `[k][NR]` slabs copied
//! out of the right-hand side once per parallel chunk (and zero-padded on
//! the last partial panel), so the inner loop reads one contiguous `NR`
//! float row per reduction step regardless of the original layout — this
//! is what turns `matmul_bt`'s latency-bound scalar dot products into the
//! same throughput-bound microkernel as plain `matmul`. The `A^T` variants
//! need no packing at all: their reduction walks *rows* of both operands,
//! so the microkernel is a rank-1 update with contiguous loads on both
//! sides.

//! On x86-64 the full-tile microkernels additionally carry a
//! runtime-detected AVX variant built from lane-wise `mul_ps`/`add_ps`
//! only — **never** fused multiply-adds. Each SIMD lane performs exactly
//! the scalar kernel's `acc[j] += a * b[j]` chain with IEEE-identical
//! rounding, so the AVX and scalar paths produce the same bits and the
//! golden outputs do not depend on which machine ran them.
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

/// Rows per register tile: independent output rows in flight in the
/// microkernel. `MR * NR` accumulators must fit the register file with
/// room for one packed-panel row and a broadcast lane.
pub const MR: usize = 4;

/// Columns per register tile; packed panels are zero-padded to this width
/// so the inner loop is always a fixed-trip-count, vectorizable sweep.
pub const NR: usize = 8;

/// Packs row-major `b` (`[k][n]`) into `[n/NR]` slabs of `[k][NR]`,
/// zero-padding the last panel. `panels` must hold
/// `k * n.div_ceil(NR) * NR` elements.
fn pack_row_major(b: &[f32], k: usize, n: usize, panels: &mut [f32]) {
    for (jp, slab) in panels.chunks_exact_mut(k * NR).enumerate() {
        let j0 = jp * NR;
        let nr = NR.min(n - j0);
        for (p, dst) in slab.chunks_exact_mut(NR).enumerate() {
            dst[..nr].copy_from_slice(&b[p * n + j0..p * n + j0 + nr]);
            for z in dst[nr..].iter_mut() {
                *z = 0.0;
            }
        }
    }
}

/// Packs transposed-layout `bt` (`[n][k]` row-major, i.e. `B^T`) into the
/// same `[k][NR]` panel layout as [`pack_row_major`], so `A x B^T` runs
/// through the identical microkernel.
fn pack_transposed(bt: &[f32], k: usize, n: usize, panels: &mut [f32]) {
    for (jp, slab) in panels.chunks_exact_mut(k * NR).enumerate() {
        let j0 = jp * NR;
        let nr = NR.min(n - j0);
        slab.fill(0.0);
        for jj in 0..nr {
            let col = &bt[(j0 + jj) * k..(j0 + jj) * k + k];
            for (p, &v) in col.iter().enumerate() {
                slab[p * NR + jj] = v;
            }
        }
    }
}

/// Lane-wise AVX bodies of the full-tile microkernels. Compiled only on
/// x86-64 and entered only after a runtime `avx` check; every intrinsic
/// used (`broadcast`, `loadu`, `mul_ps`, `add_ps`) is a per-lane IEEE
/// operation, so these produce bit-identical results to the scalar
/// fallbacks below — they just retire 8 lanes per instruction instead of
/// relying on what the autovectorizer manages at the SSE2 baseline. Keep
/// closures and `array::map` out of these functions: they are compiled
/// without the target feature and do not inline into it.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{MR, NR};
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

    /// AVX body of [`super::mk_nn_full`]: one 8-lane accumulator per tile
    /// row (`NR == 8`), `p` ascending.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX ([`usable`]).
    #[target_feature(enable = "avx")]
    pub unsafe fn mk_nn_full(
        a: &[f32],
        lda: usize,
        k: usize,
        panel: &[f32],
        out: &mut [f32],
        ldc: usize,
        nr: usize,
    ) {
        const { assert!(NR == 8 && MR == 4) };
        let rows = [
            &a[..k],
            &a[lda..lda + k],
            &a[2 * lda..2 * lda + k],
            &a[3 * lda..3 * lda + k],
        ];
        let mut acc = [_mm256_setzero_ps(); MR];
        // Two reduction steps per iteration: `acc += a_p*b_p` then
        // `acc += a_{p+1}*b_{p+1}` — the same ascending chain per lane,
        // just with half the loop overhead.
        let mut p = 0;
        while p + 2 <= k {
            let b0 = _mm256_loadu_ps(panel[p * NR..].as_ptr());
            let b1 = _mm256_loadu_ps(panel[(p + 1) * NR..].as_ptr());
            for (r, accr) in acc.iter_mut().enumerate() {
                // SAFETY: every row slice holds `k` elements and `p+1 < k`.
                let a0 = _mm256_broadcast_ss(rows[r].get_unchecked(p));
                let a1 = _mm256_broadcast_ss(rows[r].get_unchecked(p + 1));
                let t = _mm256_add_ps(*accr, _mm256_mul_ps(a0, b0));
                *accr = _mm256_add_ps(t, _mm256_mul_ps(a1, b1));
            }
            p += 2;
        }
        if p < k {
            let bv = _mm256_loadu_ps(panel[p * NR..].as_ptr());
            for (r, accr) in acc.iter_mut().enumerate() {
                // SAFETY: `p < k` and every row slice holds `k` elements.
                let ar = _mm256_broadcast_ss(rows[r].get_unchecked(p));
                *accr = _mm256_add_ps(*accr, _mm256_mul_ps(ar, bv));
            }
        }
        if nr == NR {
            for (r, &accr) in acc.iter().enumerate() {
                _mm256_storeu_ps(out[r * ldc..].as_mut_ptr(), accr);
            }
        } else {
            let mut lanes = [0.0f32; NR];
            for (r, &accr) in acc.iter().enumerate() {
                _mm256_storeu_ps(lanes.as_mut_ptr(), accr);
                out[r * ldc..r * ldc + nr].copy_from_slice(&lanes[..nr]);
            }
        }
    }

    /// AVX body of the full-tile case of [`super::mk_tn`]: rank-1 updates
    /// with contiguous loads on both operands, `i` ascending.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX ([`usable`]).
    #[target_feature(enable = "avx")]
    pub unsafe fn mk_tn_full(
        a: &[f32],
        b: &[f32],
        red: usize,
        lda: usize,
        ldb: usize,
        p0: usize,
        j0: usize,
        out: &mut [f32],
        ldc: usize,
    ) {
        const { assert!(NR == 8 && MR == 4) };
        let mut acc = [_mm256_setzero_ps(); MR];
        for i in 0..red {
            let bv = _mm256_loadu_ps(b[i * ldb + j0..].as_ptr());
            let av = &a[i * lda + p0..i * lda + p0 + MR];
            for (r, accr) in acc.iter_mut().enumerate() {
                let ar = _mm256_broadcast_ss(&av[r]);
                *accr = _mm256_add_ps(*accr, _mm256_mul_ps(ar, bv));
            }
        }
        for (r, &accr) in acc.iter().enumerate() {
            _mm256_storeu_ps(out[r * ldc..].as_mut_ptr(), accr);
        }
    }

    /// One register tile of the vector-matrix family: `R` input rows
    /// against `8 * V` weight columns, `R * V` 8-lane accumulators held
    /// across the whole `i` sweep. `w` and `ys` start at the tile's first
    /// column (`ys` at its first row too); both have rows `d_out` apart.
    /// Each weight vector is loaded once per `i` and shared by the `R` rows;
    /// each lane does the scalar chain — bias-initialized, broadcast, mul,
    /// add, `i` ascending, no FMA — so the tile shape never shows in the
    /// result.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX ([`usable`]).
    #[target_feature(enable = "avx")]
    unsafe fn vec_matmul_tile<const R: usize, const V: usize>(
        xs: &[f32],
        d_in: usize,
        w: &[f32],
        d_out: usize,
        ys: &mut [f32],
    ) {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for r in 0..R {
            let y = &ys[r * d_out..r * d_out + 8 * V];
            for v in 0..V {
                acc[r][v] = _mm256_loadu_ps(y[8 * v..].as_ptr());
            }
        }
        for i in 0..d_in {
            let wrow = &w[i * d_out..i * d_out + 8 * V];
            let mut wv = [_mm256_setzero_ps(); V];
            for v in 0..V {
                wv[v] = _mm256_loadu_ps(wrow[8 * v..].as_ptr());
            }
            for r in 0..R {
                let xv = _mm256_broadcast_ss(&xs[r * d_in + i]);
                for v in 0..V {
                    acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(xv, wv[v]));
                }
            }
        }
        for r in 0..R {
            let y = &mut ys[r * d_out..r * d_out + 8 * V];
            for v in 0..V {
                _mm256_storeu_ps(y[8 * v..].as_mut_ptr(), acc[r][v]);
            }
        }
    }

    /// `R` rows (`xs`, `d_in` wide; `ys`, `d_out` apart) against the first
    /// `cols` columns of `w`, a multiple of 16: `R`×`V` tiles while they
    /// fit, 16-column tiles for the rest. Callers pick `V` so that `R * V`
    /// is 6 to 8: that many independent chains hide the add latency, which
    /// two — one row in a 16-column tile — do not.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX ([`usable`]).
    #[target_feature(enable = "avx")]
    pub unsafe fn vec_matmul_group<const R: usize, const V: usize>(
        xs: &[f32],
        d_in: usize,
        w: &[f32],
        d_out: usize,
        ys: &mut [f32],
        cols: usize,
    ) {
        let mut c = 0;
        while c + 8 * V <= cols {
            vec_matmul_tile::<R, V>(xs, d_in, &w[c..], d_out, &mut ys[c..]);
            c += 8 * V;
        }
        while c + 16 <= cols {
            vec_matmul_tile::<R, 2>(xs, d_in, &w[c..], d_out, &mut ys[c..]);
            c += 16;
        }
    }
}

/// The MR×NR register microkernel: `out[r][j] = Σ_p a[r][p] * panel[p][j]`
/// for `MR` full rows, `p` ascending with one accumulator per output
/// element. Only the first `nr` columns are stored (padding lanes compute
/// on zeros and are discarded).
#[inline]
fn mk_nn_full(
    a: &[f32],
    lda: usize,
    k: usize,
    panel: &[f32],
    out: &mut [f32],
    ldc: usize,
    nr: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx::usable() {
        // SAFETY: AVX support was just checked.
        unsafe { avx::mk_nn_full(a, lda, k, panel, out, ldc, nr) };
        return;
    }
    let a0 = &a[..k];
    let a1 = &a[lda..lda + k];
    let a2 = &a[2 * lda..2 * lda + k];
    let a3 = &a[3 * lda..3 * lda + k];
    let mut acc = [[0.0f32; NR]; MR];
    for (p, brow) in panel.chunks_exact(NR).enumerate() {
        let av = [a0[p], a1[p], a2[p], a3[p]];
        for r in 0..MR {
            let ar = av[r];
            let accr = &mut acc[r];
            for j in 0..NR {
                accr[j] += ar * brow[j];
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        out[r * ldc..r * ldc + nr].copy_from_slice(&accr[..nr]);
    }
}

/// Single-row edge of [`mk_nn_full`] for the `rows % MR` remainder.
#[inline]
fn mk_nn_row(a_row: &[f32], panel: &[f32], out: &mut [f32], nr: usize) {
    let mut acc = [0.0f32; NR];
    for (brow, &av) in panel.chunks_exact(NR).zip(a_row.iter()) {
        for j in 0..NR {
            acc[j] += av * brow[j];
        }
    }
    out[..nr].copy_from_slice(&acc[..nr]);
}

/// Multiplies `rows` rows of `a` (`[rows][k]`, leading stride `k`) against
/// pre-packed panels of a `[k][n]` matrix, writing `out` (`[rows][n]`).
fn gemm_packed(a: &[f32], out: &mut [f32], panels: &[f32], rows: usize, k: usize, n: usize) {
    let np = n.div_ceil(NR);
    let mut i = 0;
    while i < rows {
        let mr = MR.min(rows - i);
        for jp in 0..np {
            let j0 = jp * NR;
            let nr = NR.min(n - j0);
            let panel = &panels[jp * k * NR..(jp + 1) * k * NR];
            if mr == MR {
                mk_nn_full(&a[i * k..], k, k, panel, &mut out[i * n + j0..], n, nr);
            } else {
                for r in i..i + mr {
                    mk_nn_row(&a[r * k..r * k + k], panel, &mut out[r * n + j0..], nr);
                }
            }
        }
        i += mr;
    }
}

/// One parallel chunk of batched `A x B`: computes output rows
/// `first..first + block.len()/n` (global over `batch * m`), packing each
/// batch's B once per run of rows. With a broadcast (2-D) right-hand side
/// the whole chunk shares one packing.
pub fn gemm_nn_block(
    first: usize,
    block: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    broadcast_rhs: bool,
) {
    if n == 0 || k == 0 {
        block.fill(0.0);
        return;
    }
    let rows = block.len() / n;
    let mut panels = vec![0.0f32; k * n.div_ceil(NR) * NR];
    let mut r0 = 0;
    while r0 < rows {
        let batch = (first + r0) / m;
        // Tiles never cross a batch boundary: each run of rows shares one
        // right-hand side (the whole chunk, when B is broadcast).
        let run = if broadcast_rhs {
            rows - r0
        } else {
            ((batch + 1) * m - (first + r0)).min(rows - r0)
        };
        let b_off = if broadcast_rhs { 0 } else { batch * k * n };
        pack_row_major(&b[b_off..b_off + k * n], k, n, &mut panels);
        gemm_packed(
            &a[(first + r0) * k..(first + r0 + run) * k],
            &mut block[r0 * n..(r0 + run) * n],
            &panels,
            run,
            k,
            n,
        );
        r0 += run;
    }
}

/// One parallel chunk of batched `A x B^T` (`b` is `[n][k]` row-major).
/// Packing transposes the panel, after which the chunk runs through the
/// exact same microkernel — and the exact same per-element `p`-ascending
/// order — as [`gemm_nn_block`].
pub fn gemm_bt_block(
    first: usize,
    block: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    broadcast_rhs: bool,
) {
    if n == 0 || k == 0 {
        block.fill(0.0);
        return;
    }
    let rows = block.len() / n;
    let mut panels = vec![0.0f32; k * n.div_ceil(NR) * NR];
    let mut r0 = 0;
    while r0 < rows {
        let batch = (first + r0) / m;
        let run = if broadcast_rhs {
            rows - r0
        } else {
            ((batch + 1) * m - (first + r0)).min(rows - r0)
        };
        let b_off = if broadcast_rhs { 0 } else { batch * n * k };
        pack_transposed(&b[b_off..b_off + n * k], k, n, &mut panels);
        gemm_packed(
            &a[(first + r0) * k..(first + r0 + run) * k],
            &mut block[r0 * n..(r0 + run) * n],
            &panels,
            run,
            k,
            n,
        );
        r0 += run;
    }
}

/// Rank-1-update microkernel for the `A^T` variants:
/// `out[r][j] = Σ_i a[i][p0 + r] * b[i][j0 + j]`, `i` ascending. Both loads
/// are contiguous (`MR` consecutive columns of a row of A, `NR` consecutive
/// columns of a row of B), so no packing is needed.
#[inline]
fn mk_tn(
    a: &[f32],
    b: &[f32],
    red: usize,
    lda: usize,
    ldb: usize,
    p0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
    out: &mut [f32],
    ldc: usize,
) {
    if mr == MR && nr == NR {
        #[cfg(target_arch = "x86_64")]
        if avx::usable() {
            // SAFETY: AVX support was just checked.
            unsafe { avx::mk_tn_full(a, b, red, lda, ldb, p0, j0, out, ldc) };
            return;
        }
    }
    let mut acc = [[0.0f32; NR]; MR];
    if mr == MR && nr == NR {
        for i in 0..red {
            let av = &a[i * lda + p0..i * lda + p0 + MR];
            let bv = &b[i * ldb + j0..i * ldb + j0 + NR];
            for r in 0..MR {
                let ar = av[r];
                let accr = &mut acc[r];
                for j in 0..NR {
                    accr[j] += ar * bv[j];
                }
            }
        }
    } else {
        for i in 0..red {
            let bv = &b[i * ldb + j0..i * ldb + j0 + nr];
            for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                let ar = a[i * lda + p0 + r];
                for (acc_j, &bj) in accr.iter_mut().zip(bv.iter()) {
                    *acc_j += ar * bj;
                }
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(mr) {
        out[r * ldc..r * ldc + nr].copy_from_slice(&accr[..nr]);
    }
}

/// Tiles `rows` consecutive output rows (starting at column-of-A `p0`) of
/// one `A^T x B` product: `a` is `[red][lda]`, `b` is `[red][ldb]`, `out`
/// is `[rows][n]` with `n <= ldb` columns taken from `b[:, j0=0..n]`.
fn tn_run(
    a: &[f32],
    b: &[f32],
    red: usize,
    lda: usize,
    n: usize,
    p0: usize,
    rows: usize,
    out: &mut [f32],
) {
    let mut r = 0;
    while r < rows {
        let mr = MR.min(rows - r);
        let mut j0 = 0;
        while j0 < n {
            let nr = NR.min(n - j0);
            mk_tn(
                a,
                b,
                red,
                lda,
                n,
                p0 + r,
                j0,
                mr,
                nr,
                &mut out[r * n + j0..],
                n,
            );
            j0 += NR;
        }
        r += mr;
    }
}

/// One parallel chunk of batched `A^T x B`: output rows `first..` are
/// global over `batch * k`; runs are split at batch boundaries.
pub fn gemm_tn_block(
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
    let rows = block.len() / n;
    let mut r0 = 0;
    while r0 < rows {
        let row = first + r0;
        let (batch, p0) = (row / k, row % k);
        let run = (k - p0).min(rows - r0);
        tn_run(
            &a[batch * m * k..(batch + 1) * m * k],
            &b[batch * m * n..(batch + 1) * m * n],
            m,
            k,
            n,
            p0,
            run,
            &mut block[r0 * n..(r0 + run) * n],
        );
        r0 += run;
    }
}

/// One parallel chunk of `A^T x B` summed over every batch: `a` is
/// `[red][k]` (`red = batch * m` flattened), `b` is `[red][n]`, and the
/// chunk covers output rows `first..first + block.len()/n` of the `[k][n]`
/// result. The reduction walks `(batch, i)` ascending, exactly like a
/// serial accumulation over batches then rows.
pub fn gemm_tn_acc_block(
    first: usize,
    block: &mut [f32],
    a: &[f32],
    b: &[f32],
    red: usize,
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    let rows = block.len() / n;
    tn_run(a, b, red, k, n, first, rows, block);
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
/// Columns are register-tiled so each tile stays in registers across the
/// whole `i`-ascending input sweep instead of streaming `y` through the
/// cache once per input element. Per-column accumulation order is
/// unchanged from the scalar loop.
pub fn vec_matmul_block(x: &[f32], w: &[f32], d_out: usize, first: usize, y_block: &mut [f32]) {
    /// Columns per register tile (one tile = one cache line of `f32`).
    const CT: usize = 16;
    let cols = y_block.len();
    let mut c0 = 0;
    #[cfg(target_arch = "x86_64")]
    if avx::usable() {
        // Whole tiles, four at a time while they last; ragged columns are
        // left to the scalar loop.
        c0 = cols / CT * CT;
        // SAFETY: AVX support was just checked.
        unsafe { avx::vec_matmul_group::<1, 8>(x, x.len(), &w[first..], d_out, y_block, c0) };
    }
    while c0 < cols {
        let ct = CT.min(cols - c0);
        let mut acc = [0.0f32; CT];
        acc[..ct].copy_from_slice(&y_block[c0..c0 + ct]);
        if ct == CT {
            for (i, &xi) in x.iter().enumerate() {
                let wrow = &w[i * d_out + first + c0..i * d_out + first + c0 + CT];
                for j in 0..CT {
                    acc[j] += xi * wrow[j];
                }
            }
        } else {
            for (i, &xi) in x.iter().enumerate() {
                let wrow = &w[i * d_out + first + c0..i * d_out + first + c0 + ct];
                for (acc_j, &wj) in acc.iter_mut().zip(wrow.iter()) {
                    *acc_j += xi * wj;
                }
            }
        }
        y_block[c0..c0 + ct].copy_from_slice(&acc[..ct]);
        c0 += ct;
    }
}

/// Rows sharing one weight-tile sweep in [`vec_matmul_rows`] (4×2 AVX
/// accumulators). A caller that splits a stack of rows into groups should
/// give each group at least this many, so every group fills a tile.
pub const ROW_TILE: usize = 4;

/// Multi-row vector-matrix product: `rows` input vectors (`xs`, row-major,
/// `d_in` wide) against one `[d_in, d_out]` weight, into `rows` outputs
/// (`ys`, row-major, `d_out` wide, pre-filled with the bias row by the
/// caller). Per output element the accumulation is bit-identical to
/// [`vec_matmul_block`] — bias-initialized, `i` ascending — so a batched
/// application equals `rows` single applications byte for byte. The batch
/// exists for memory locality: the cached-decode matvec is bound on weight
/// traffic, and here each 16-column weight tile is streamed once per group
/// of [`ROW_TILE`] rows instead of once per row, which is what makes a
/// stacked forward — a prefill chunk, or one decode row from each of
/// several sequences — cheaper than feeding row by row.
pub fn vec_matmul_rows(xs: &[f32], d_in: usize, w: &[f32], d_out: usize, ys: &mut [f32]) {
    /// Columns per register tile (matches [`vec_matmul_block`]).
    const CT: usize = 16;
    const RT: usize = ROW_TILE;
    assert!(d_in > 0 && d_out > 0, "vec_matmul_rows of empty weight");
    let rows = xs.len() / d_in;
    assert_eq!(xs.len(), rows * d_in, "xs is not a whole number of rows");
    assert_eq!(ys.len(), rows * d_out, "ys shape mismatch");
    let mut c0 = 0;
    #[cfg(target_arch = "x86_64")]
    if avx::usable() {
        // Whole 16-column tiles, one row group at a time; a short last
        // group gets a wider tile, so it has as many chains in flight as a
        // full one and costs its share of one, not more.
        c0 = d_out / CT * CT;
        for (x, y) in xs.chunks(RT * d_in).zip(ys.chunks_mut(RT * d_out)) {
            // SAFETY: AVX support was just checked.
            unsafe {
                match x.len() / d_in {
                    4 => avx::vec_matmul_group::<4, 2>(x, d_in, w, d_out, y, c0),
                    3 => avx::vec_matmul_group::<3, 2>(x, d_in, w, d_out, y, c0),
                    2 => avx::vec_matmul_group::<2, 4>(x, d_in, w, d_out, y, c0),
                    _ => avx::vec_matmul_group::<1, 8>(x, d_in, w, d_out, y, c0),
                }
            }
        }
    }
    while c0 < d_out {
        let ct = CT.min(d_out - c0);
        let mut r0 = 0;
        while r0 < rows {
            let rt = RT.min(rows - r0);
            let mut acc = [[0.0f32; CT]; RT];
            for (r, accr) in acc[..rt].iter_mut().enumerate() {
                accr[..ct].copy_from_slice(&ys[(r0 + r) * d_out + c0..][..ct]);
            }
            for i in 0..d_in {
                let wrow = &w[i * d_out + c0..i * d_out + c0 + ct];
                for (r, accr) in acc[..rt].iter_mut().enumerate() {
                    let xi = xs[(r0 + r) * d_in + i];
                    for (a, &wj) in accr[..ct].iter_mut().zip(wrow.iter()) {
                        *a += xi * wj;
                    }
                }
            }
            for (r, accr) in acc[..rt].iter().enumerate() {
                ys[(r0 + r) * d_out + c0..][..ct].copy_from_slice(&accr[..ct]);
            }
            r0 += rt;
        }
        c0 += ct;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_nn(
        a: &[f32],
        b: &[f32],
        ab: usize,
        m: usize,
        k: usize,
        n: usize,
        bcast: bool,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; ab * m * n];
        for batch in 0..ab {
            let b_off = if bcast { 0 } else { batch * k * n };
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
        // Shapes straddling every tile edge: rows % MR, cols % NR, and a
        // chunk split mid-batch; then a transformer-block shape, whole-tile
        // and ragged, deep enough that k spans several packed panels.
        for &(ab, m, k, n, bcast) in &[
            (1usize, 1usize, 1usize, 1usize, false),
            (1, 5, 7, 9, false),
            (2, 6, 13, 17, false),
            (3, 4, 8, 8, true),
            (2, 9, 33, 19, true),
            (1, 64, 256, 256, false),
            (1, 61, 200, 130, false),
        ] {
            let a = fill(ab * m * k, 1);
            let b = fill(if bcast { k * n } else { ab * k * n }, 2);
            let want = naive_nn(&a, &b, ab, m, k, n, bcast);
            // Run as two chunks split at an arbitrary row to exercise the
            // mid-batch entry path.
            let rows = ab * m;
            let split = (rows / 2).max(1).min(rows);
            let mut got = vec![0.0f32; rows * n];
            let (lo, hi) = got.split_at_mut(split * n);
            gemm_nn_block(0, lo, &a, &b, m, k, n, bcast);
            if !hi.is_empty() {
                gemm_nn_block(split, hi, &a, &b, m, k, n, bcast);
            }
            assert_eq!(got, want, "shape ab={ab} m={m} k={k} n={n} bcast={bcast}");
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
            gemm_bt_block(0, &mut got, &a, &bt, m, k, n, false);
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

        // matmul_tn_acc reference: summed over batches in ascending order.
        let mut want_acc = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                let mut acc = 0.0f32;
                for bi in 0..ab * m {
                    acc += a[bi * k + p] * b[bi * n + j];
                }
                want_acc[p * n + j] = acc;
            }
        }
        let mut got_acc = vec![0.0f32; k * n];
        gemm_tn_acc_block(0, &mut got_acc, &a, &b, ab * m, k, n);
        assert_eq!(got_acc, want_acc);
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
        // then a single tile) and ragged ones (scalar).
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
                let mut y = bias.clone();
                vec_matmul_block(&xs[r * d_in..(r + 1) * d_in], &w, d_out, 0, &mut y);
                want.extend_from_slice(&y);
            }
            let mut got = Vec::with_capacity(rows * d_out);
            for _ in 0..rows {
                got.extend_from_slice(&bias);
            }
            vec_matmul_rows(&xs, d_in, &w, d_out, &mut got);
            assert_eq!(got, want, "rows={rows} d_in={d_in} d_out={d_out}");
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
