//! Int8 weight quantization.
//!
//! Nothing serves from it: the engine decodes f32 only. It is kept for the
//! benchmark's layer probes (`tensor.qmatvec_gops` calls
//! [`QuantizedMatrix::matvec`] directly) and goes with them.
//!
//! Scheme (DESIGN.md §5g): **symmetric per-row weights, asymmetric
//! activations** — the standard W8A8 recipe. A weight matrix is stored
//! transposed as `[d_out][d_in]` rows of `i8`, each row `r` carrying one
//! `f32` scale `s_r = max_abs(row_r) / 127`, so `w[r][c] ≈ q[r][c] · s_r`.
//! Activations are quantized dynamically per call with one scale `s_x`
//! and one zero point `z_x` for the whole vector: the quantization range
//! is `[min(x, 0), max(x, 0)]` (always containing zero, so `z_x` fits in
//! the i8 grid and zero is exactly representable), mapped with 254 steps
//! onto `[-128, 127]` — for one-sided activations such as GELU outputs
//! this roughly doubles the resolution a symmetric grid would give.
//!
//! The matvec accumulates in `i32` — integer arithmetic is exact, so the
//! result is independent of accumulation order and trivially bit-identical
//! at any thread count — and dequantizes once on store using the
//! precomputed per-row weight sums to cancel the zero point:
//!
//! ```text
//! y_r = bias_r + (Σ_c qw[r][c] · qx[c]  −  z_x · Σ_c qw[r][c]) · (s_r · s_x)
//! ```
//!
//! The accumulator cannot overflow: `|qw · qx| ≤ 127 · 128 = 16 256` per
//! term and the zero-point correction is bounded the same way, so `d_in`
//! would have to exceed 2³¹ / (2 · 16 256) ≈ 66 000 to wrap — orders of
//! magnitude above any layer width in this codebase (guarded by an
//! assert anyway).

/// Maximum quantized magnitude (symmetric: the grid is `-127..=127`).
pub const QMAX: f32 = 127.0;

/// Widths beyond this could overflow the i32 accumulator (the factor of
/// two covers the zero-point correction term).
const MAX_COLS: usize = (i32::MAX / (2 * 127 * 128)) as usize;

/// A weight matrix quantized to int8 with one scale per output row.
///
/// Storage is `[rows][cols]` row-major where `rows` is the **output**
/// dimension — i.e. the transpose of the `[d_in, d_out]` layout the f32
/// layers use — so the matvec reads each quantized row contiguously.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    q: Vec<i8>,
    scales: Vec<f32>,
    /// `Σ_c q[r][c]` per row, precomputed for the zero-point correction.
    row_sums: Vec<i32>,
}

impl QuantizedMatrix {
    /// Quantizes a `[d_in, d_out]` row-major f32 weight (the layout of
    /// `Linear` weights) into `[d_out][d_in]` int8 rows with per-row
    /// scales.
    pub fn from_weight(w: &[f32], d_in: usize, d_out: usize) -> Self {
        assert_eq!(w.len(), d_in * d_out, "weight length mismatch");
        assert!(d_in <= MAX_COLS, "d_in {d_in} risks i32 overflow");
        let mut q = vec![0i8; d_in * d_out];
        let mut scales = vec![0.0f32; d_out];
        for r in 0..d_out {
            let mut max_abs = 0.0f32;
            for c in 0..d_in {
                max_abs = max_abs.max(w[c * d_out + r].abs());
            }
            let scale = max_abs / QMAX;
            scales[r] = scale;
            if scale > 0.0 {
                let inv = 1.0 / scale;
                for c in 0..d_in {
                    let v = (w[c * d_out + r] * inv).round();
                    q[r * d_in + c] = v.clamp(-QMAX, QMAX) as i8;
                }
            }
        }
        let row_sums = q
            .chunks_exact(d_in)
            .map(|row| row.iter().map(|&v| i32::from(v)).sum())
            .collect();
        QuantizedMatrix {
            rows: d_out,
            cols: d_in,
            q,
            scales,
            row_sums,
        }
    }

    /// Output rows (`d_out`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input columns (`d_in`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The scale of output row `r`.
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Heap bytes held by the quantized representation (int8 payload plus
    /// per-row f32 scales and i32 weight sums).
    pub fn memory_bytes(&self) -> usize {
        self.q.len()
            + self.scales.len() * std::mem::size_of::<f32>()
            + self.row_sums.len() * std::mem::size_of::<i32>()
    }

    /// Dequantizes element `(r, c)` — `q[r][c] * s_r`.
    pub fn dequantize(&self, r: usize, c: usize) -> f32 {
        f32::from(self.q[r * self.cols + c]) * self.scales[r]
    }

    /// Quantized matvec with dequant-on-store:
    /// `y[r] = bias[r] + (Σ_c q[r][c] · qx[c] − zx · Σ_c q[r][c]) · (s_r · sx)`.
    ///
    /// The sum is pure i32 (exact), so the result does not depend on
    /// chunking or thread count. Parallel over output rows.
    pub fn matvec(&self, qx: &[i8], sx: f32, zx: i32, bias: &[f32]) -> Vec<f32> {
        assert_eq!(qx.len(), self.cols, "quantized input width mismatch");
        assert_eq!(bias.len(), self.rows, "bias width mismatch");
        let _timer = lm4db_obs::leaf("kernel/qmatvec");
        let mut y = bias.to_vec();
        let cols = self.cols;
        let (q, scales, row_sums) = (&self.q, &self.scales, &self.row_sums);
        // Integer madds are cheap; ask for about 4x the work of the f32
        // matmul heuristic per chunk.
        let min_rows = (131_072 / cols.max(1)).max(1);
        crate::pool::parallel_rows_mut(&mut y, self.rows, min_rows, |first, block| {
            for (i, out) in block.iter_mut().enumerate() {
                let r = first + i;
                let row = &q[r * cols..(r + 1) * cols];
                let mut acc = 0i32;
                for (&w, &x) in row.iter().zip(qx.iter()) {
                    acc += i32::from(w) * i32::from(x);
                }
                *out += (acc - zx * row_sums[r]) as f32 * (scales[r] * sx);
            }
        });
        y
    }
}

/// Dynamically quantizes an activation vector with an asymmetric grid:
/// the range `[min(x, 0), max(x, 0)]` (zero always included, so zero is
/// exactly representable) maps onto `[-128, 127]` with one scale and one
/// zero point for the whole vector, `x[c] ≈ (qx[c] − zx) · sx`. An
/// all-zero input yields scale 0, zero point 0, and an all-zero code
/// (never a division by zero).
pub fn quantize_activation(x: &[f32]) -> (Vec<i8>, f32, i32) {
    let (mut lo, mut hi) = (0.0f32, 0.0f32);
    for &v in x {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo == 0.0 && hi == 0.0 {
        return (vec![0i8; x.len()], 0.0, 0);
    }
    // 254 steps across the range leaves one grid level of headroom, so
    // rounding at the extremes can never land outside `[-128, 127]` and
    // every value round-trips within half a step — no clamping, which
    // would break that bound.
    let scale = (hi - lo) / 254.0;
    let inv = 1.0 / scale;
    // Integer zero point: zero maps to `zx` exactly, so it dequantizes to
    // exactly zero.
    let zx = -128 - (lo * inv).round() as i32;
    let q = x
        .iter()
        .map(|&v| ((v * inv).round() as i32 + zx) as i8)
        .collect();
    (q, scale, zx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_is_within_half_a_step() {
        let x: Vec<f32> = (0..64)
            .map(|i| ((i * 37 % 129) as f32 - 64.0) * 0.03)
            .collect();
        let (q, s, z) = quantize_activation(&x);
        for (&xi, &qi) in x.iter().zip(q.iter()) {
            let back = (i32::from(qi) - z) as f32 * s;
            assert!(
                (xi - back).abs() <= s * 0.5 + 1e-7,
                "element {xi} decoded to {back} with step {s}"
            );
        }
    }

    #[test]
    fn one_sided_activations_use_the_full_grid() {
        // GELU-like data: almost entirely positive. A symmetric grid would
        // waste half its levels; the asymmetric grid must cover the range
        // with a step close to range/254.
        let x: Vec<f32> = (0..64).map(|i| (i as f32) * 0.1 - 0.17).collect();
        let (q, s, z) = quantize_activation(&x);
        let (lo, hi) = (-0.17f32, 6.13f32);
        assert!(s <= (hi - lo) / 250.0, "step {s} too coarse for range");
        // Zero dequantizes to exactly zero.
        assert_eq!((z - z) as f32 * s, 0.0);
        // Extremes map near the ends of the grid.
        assert_eq!(*q.first().unwrap(), -128);
        assert!(*q.last().unwrap() >= 126);
    }

    #[test]
    fn zero_vector_quantizes_to_zero_scale() {
        let (q, s, z) = quantize_activation(&[0.0; 8]);
        assert_eq!(s, 0.0);
        assert_eq!(z, 0);
        assert!(q.iter().all(|&v| v == 0));
    }

    #[test]
    fn matvec_matches_i32_reference_exactly() {
        let (d_in, d_out) = (19usize, 11usize);
        let w: Vec<f32> = (0..d_in * d_out)
            .map(|i| ((i * 31 % 97) as f32 - 48.0) * 0.01)
            .collect();
        let x: Vec<f32> = (0..d_in)
            .map(|i| ((i * 13 % 29) as f32 - 14.0) * 0.1)
            .collect();
        let bias: Vec<f32> = (0..d_out).map(|i| i as f32 * 0.05).collect();
        let qm = QuantizedMatrix::from_weight(&w, d_in, d_out);
        let (qx, sx, zx) = quantize_activation(&x);
        let got = qm.matvec(&qx, sx, zx, &bias);
        for r in 0..d_out {
            let mut acc = 0i64;
            let mut wsum = 0i64;
            for (&w, &x) in qm.q[r * d_in..(r + 1) * d_in].iter().zip(qx.iter()) {
                acc += i64::from(w) * i64::from(x);
                wsum += i64::from(w);
            }
            let want = bias[r] + (acc - i64::from(zx) * wsum) as f32 * (qm.scale(r) * sx);
            assert_eq!(got[r], want, "row {r}");
        }
    }

    #[test]
    fn quantized_matvec_approximates_f32_matvec() {
        let (d_in, d_out) = (64usize, 48usize);
        let w: Vec<f32> = (0..d_in * d_out)
            .map(|i| (((i * 29 + 7) % 193) as f32 - 96.0) * 0.004)
            .collect();
        let x: Vec<f32> = (0..d_in)
            .map(|i| (((i * 17) % 41) as f32 - 20.0) * 0.05)
            .collect();
        let bias = vec![0.0f32; d_out];
        let mut want = bias.clone();
        for (i, &xi) in x.iter().enumerate() {
            for j in 0..d_out {
                want[j] += xi * w[i * d_out + j];
            }
        }
        let qm = QuantizedMatrix::from_weight(&w, d_in, d_out);
        let (qx, sx, zx) = quantize_activation(&x);
        let got = qm.matvec(&qx, sx, zx, &bias);
        let scale_y: f32 = want.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6);
        for (g, wv) in got.iter().zip(want.iter()) {
            assert!(
                (g - wv).abs() / scale_y < 0.05,
                "quantized {g} vs f32 {wv} (relative error too large)"
            );
        }
    }

    #[test]
    fn memory_is_about_a_quarter_of_f32() {
        let (d_in, d_out) = (128usize, 256usize);
        let w = vec![0.25f32; d_in * d_out];
        let qm = QuantizedMatrix::from_weight(&w, d_in, d_out);
        let f32_bytes = d_in * d_out * 4;
        assert_eq!(qm.memory_bytes(), d_in * d_out + d_out * 8);
        assert!(qm.memory_bytes() * 3 < f32_bytes);
    }
}
