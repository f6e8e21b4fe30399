//! Bit-accuracy suite for the register-blocked GEMM and conv kernels.
//!
//! Every optimised `_into`/`_ws` kernel in `usb_tensor` carries the same
//! contract: each output element is produced by the **same float
//! operations in the same (ascending-`k`) order** as a naive
//! triple-loop, so results are bit-identical — that is what keeps every
//! detection verdict stable across kernel rewrites. This suite pins the
//! contract with property tests over odd and degenerate shapes (sizes
//! straddling the `MR`×`NR` register tile, single rows/columns,
//! non-multiples), dirty workspace buffers, warm packed panels, and the
//! batched conv paths against their per-image equivalents.
//!
//! The single-kernel convolutions — the depthwise forward and input
//! adjoint, SSIM's valid blur and its adjoint — are pinned the same way
//! against the per-output loops their row forms replace, over an
//! exhaustive grid of small geometries and on inputs carrying `-0.0`,
//! `±inf`, NaN and zero gradients.

use proptest::prelude::*;
use usb_tensor::conv::{
    col2im_into, conv2d_forward_ws, conv2d_input_backward_ws, conv2d_valid_single,
    conv2d_valid_single_adjoint, depthwise_forward_ws, depthwise_input_backward_ws, im2col_into,
    ConvSpec,
};
use usb_tensor::quant::{f16_decode, Q8_BLOCK};
use usb_tensor::{ops, Dtype, QTensor, Tensor, Workspace};

// ---------------------------------------------------------------------------
// Naive references: the ascending-k accumulation the kernels must reproduce.
// ---------------------------------------------------------------------------

fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn naive_matmul_transa(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    // a is [k, m] column-major-for-the-product: out = aᵀ b.
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[kk * m + i] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn naive_matmul_transb(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    // b is [n, k]: out = a bᵀ.
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[j * k + kk];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn naive_im2col(
    img: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) -> Vec<f32> {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let cols = oh * ow;
    let mut out = vec![0.0f32; c * kh * kw * cols];
    for ch in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ch * kh + ky) * kw + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            out[row * cols + oy * ow + ox] =
                                img[ch * h * w + iy as usize * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Adjoint scatter in the exact (channel, ky, kx, oy, ox) order of
/// `col2im_strided_into` — overlapping contributions must sum in the same
/// order for bit equality.
fn naive_col2im(
    cols_mat: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) -> Vec<f32> {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let cols = oh * ow;
    let mut out = vec![0.0f32; c * h * w];
    for ch in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ch * kh + ky) * kw + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            out[ch * h * w + iy as usize * w + ix as usize] +=
                                cols_mat[row * cols + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
    out
}

/// From-scratch byte-level decode of a quantized payload, independent of
/// `QTensor::dequantize_into`: f16 words through the scalar decoder, Q8
/// blocks as `scale * i8` in block order.
fn naive_decode(q: &QTensor) -> Vec<f32> {
    let bytes = q.bytes();
    let len = q.len();
    match q.dtype() {
        Dtype::F32 => unreachable!("dense tensors never enter the quantized codec"),
        Dtype::F16 => bytes
            .chunks_exact(2)
            .take(len)
            .map(|c| f16_decode(u16::from_le_bytes([c[0], c[1]])))
            .collect(),
        Dtype::Q8 => {
            let mut out = Vec::with_capacity(len);
            for block in bytes.chunks_exact(4 + Q8_BLOCK) {
                let scale = f32::from_le_bytes(block[..4].try_into().expect("scale word"));
                for &b in &block[4..] {
                    if out.len() == len {
                        break;
                    }
                    out.push(scale * (b as i8) as f32);
                }
            }
            out
        }
    }
}

/// Per-output depthwise forward: each output pixel accumulates `bias`
/// then every in-bounds tap in ascending `(ky, kx)` order.
#[allow(clippy::too_many_arguments)]
fn naive_depthwise_forward(
    x: &[f32],
    ker: &[f32],
    bias: Option<&[f32]>,
    (n, c, h, w): (usize, usize, usize, usize),
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) -> Vec<f32> {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let mut out = Vec::with_capacity(n * c * oh * ow);
    for i in 0..n {
        for ch in 0..c {
            let img = &x[(i * c + ch) * h * w..(i * c + ch + 1) * h * w];
            let k = &ker[ch * kh * kw..(ch + 1) * kh * kw];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.map_or(0.0, |b| b[ch]);
                    for ky in 0..kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += img[iy as usize * w + ix as usize] * k[ky * kw + kx];
                        }
                    }
                    out.push(acc);
                }
            }
        }
    }
    out
}

/// Per-output depthwise input adjoint: outputs visited in ascending
/// `(oy, ox)` order, zero gradients skipped, `g · ker` scattered over the
/// in-bounds taps of a zeroed input gradient.
fn naive_depthwise_input_backward(
    ker: &[f32],
    go: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) -> Vec<f32> {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let mut gi = vec![0.0f32; n * c * h * w];
    for i in 0..n {
        for ch in 0..c {
            let k = &ker[ch * kh * kw..(ch + 1) * kh * kw];
            let g_plane = &go[(i * c + ch) * oh * ow..(i * c + ch + 1) * oh * ow];
            let plane = &mut gi[(i * c + ch) * h * w..(i * c + ch + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = g_plane[oy * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ky in 0..kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            plane[iy as usize * w + ix as usize] += g * k[ky * kw + kx];
                        }
                    }
                }
            }
        }
    }
    gi
}

/// The platform's default NaN (what `inf · 0` produces), made at run time
/// so constant folding cannot substitute another payload. Using it for
/// every NaN input keeps all NaNs in a computation bit-identical, so the
/// bitwise comparison does not hinge on which NaN operand an addition
/// propagates.
fn default_nan() -> f32 {
    std::hint::black_box(f32::INFINITY) * 0.0
}

/// `len` values from a fixed LCG: finite draws in `[-1.5, 1.5)`, with
/// exact `0.0`/`-0.0` mixed in, and — when `spikes` is set — every 11th
/// element (offset by `seed`) replaced in turn by `+inf`, NaN, `-inf`.
fn special_mix(len: usize, seed: u32, spikes: bool) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9) | 1;
    let specials = [f32::INFINITY, default_nan(), f32::NEG_INFINITY];
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let u = (state >> 8) as f32 / (1u32 << 24) as f32;
            if spikes && (i + seed as usize) % 11 == 5 {
                return specials[(i / 11) % specials.len()];
            }
            match state % 10 {
                0 => 0.0,
                5 => -0.0,
                _ => 3.0 * u - 1.5,
            }
        })
        .collect()
}

/// A workspace whose pool is pre-seeded with NaN-filled buffers, so any
/// kernel that forgets to overwrite (or pre-zero) its checkout fails loudly.
fn dirty_workspace() -> Workspace {
    let mut ws = Workspace::new();
    for _ in 0..4 {
        ws.put(vec![f32::NAN; 4096]);
    }
    ws
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: bit drift at flat index {i}: {g} vs {w}"
        );
    }
}

fn tensor_from(vals: &[f32], len: usize, lo: f32) -> Vec<f32> {
    (0..len)
        .map(|i| vals[i % vals.len()] + lo * (i as f32 % 3.0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The three GEMM orientations against their naive triple loops, over
    /// shapes straddling the MR×NR register tile (1×1 up past 17,
    /// non-multiples of 4 and 8 included), on dirty workspace buffers.
    #[test]
    fn gemm_kernels_match_naive_bitwise(
        m in 1usize..18,
        k in 1usize..20,
        n in 1usize..18,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let a = tensor_from(&vals, m * k, 0.01);
        let b = tensor_from(&vals, k * n, -0.02);
        let bt = tensor_from(&vals, n * k, 0.03);
        let at = tensor_from(&vals, k * m, -0.04);
        let mut ws = dirty_workspace();

        let mut out = ws.take_dirty(m * n);
        ops::matmul_into(&a, &b, m, k, n, &mut out);
        assert_bits_eq(&out, &naive_matmul(&a, &b, m, k, n), "matmul_into");

        ops::matmul_transa_into(&at, &b, m, k, n, &mut out);
        assert_bits_eq(&out, &naive_matmul_transa(&at, &b, m, k, n), "matmul_transa_into");

        ops::matmul_transb_into(&a, &bt, m, k, n, &mut out);
        assert_bits_eq(&out, &naive_matmul_transb(&a, &bt, m, k, n), "matmul_transb_into");
    }

    /// `x @ Wᵀ` through a packed k-major panel (the inference fast path)
    /// equals the direct transb kernel bitwise, including on cache hits.
    #[test]
    fn packed_panel_matches_transb_bitwise(
        m in 1usize..10,
        k in 1usize..17,
        n in 1usize..13,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let x = tensor_from(&vals, m * k, 0.01);
        let wt = Tensor::from_vec(tensor_from(&vals, n * k, -0.02), &[n, k]);
        let mut want = vec![0.0f32; m * n];
        ops::matmul_transb_into(&x, wt.data(), m, k, n, &mut want);
        let mut ws = dirty_workspace();
        for round in 0..2 {
            // Round 0 packs the panel, round 1 hits the content-id cache.
            let mut got = ws.take_dirty(m * n);
            let packed = ws.packed_transpose(&wt, n, k);
            ops::matmul_into(&x, packed, m, k, n, &mut got);
            assert_bits_eq(&got, &want, &format!("packed panel (round {round})"));
            ws.put(got);
        }
    }

    /// Unfold and fold against their naive scatter loops, including
    /// strides and padding that push kernel taps out of bounds.
    #[test]
    fn im2col_col2im_match_naive_bitwise(
        c in 1usize..4,
        kh in 1usize..4,
        kw in 1usize..4,
        extra_h in 0usize..6,
        extra_w in 0usize..6,
        stride in 1usize..3,
        pad in 0usize..3,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let (h, w) = (kh + extra_h, kw + extra_w);
        let spec = ConvSpec::new(stride, pad);
        let img = tensor_from(&vals, c * h * w, 0.05);
        let oh = spec.out_size(h, kh);
        let ow = spec.out_size(w, kw);
        let rows = c * kh * kw;
        let cols = oh * ow;

        let mut ws = dirty_workspace();
        let mut unfolded = ws.take_dirty(rows * cols);
        im2col_into(&img, c, h, w, kh, kw, spec, &mut unfolded);
        assert_bits_eq(
            &unfolded,
            &naive_im2col(&img, c, h, w, kh, kw, spec),
            "im2col_into",
        );

        let cols_mat = tensor_from(&vals, rows * cols, -0.03);
        let mut folded = ws.take_dirty(c * h * w);
        col2im_into(&cols_mat, c, h, w, kh, kw, spec, &mut folded);
        assert_bits_eq(
            &folded,
            &naive_col2im(&cols_mat, c, h, w, kh, kw, spec),
            "col2im_into",
        );
    }

    /// The batched wide-GEMM conv forward (all images unfolded side by
    /// side, one GEMM, packed weights) against a per-image naive
    /// im2col + matmul + bias composition.
    #[test]
    fn batched_conv_forward_matches_per_image_naive(
        n in 1usize..4,
        ic in 1usize..4,
        oc in 1usize..6,
        kh in 1usize..4,
        kw in 1usize..4,
        extra in 0usize..5,
        stride in 1usize..3,
        pad in 0usize..2,
        with_bias_bit in 0usize..2,
        vals in proptest::collection::vec(-1.5f32..1.5, 8..32),
    ) {
        let with_bias = with_bias_bit == 1;
        let (h, w) = (kh + extra, kw + extra);
        let spec = ConvSpec::new(stride, pad);
        let input = Tensor::from_vec(tensor_from(&vals, n * ic * h * w, 0.02), &[n, ic, h, w]);
        let weight = Tensor::from_vec(tensor_from(&vals, oc * ic * kh * kw, -0.01), &[oc, ic, kh, kw]);
        let bias = Tensor::from_vec(tensor_from(&vals, oc, 0.04), &[oc]);
        let oh = spec.out_size(h, kh);
        let ow = spec.out_size(w, kw);
        let rows = ic * kh * kw;
        let cols = oh * ow;

        // Per-image reference: unfold, W @ cols (ascending k), add bias.
        let mut want = Vec::with_capacity(n * oc * cols);
        for i in 0..n {
            let img = &input.data()[i * ic * h * w..(i + 1) * ic * h * w];
            let unfolded = naive_im2col(img, ic, h, w, kh, kw, spec);
            let prod = naive_matmul(weight.data(), &unfolded, oc, rows, cols);
            for ch in 0..oc {
                for col in 0..cols {
                    let b = if with_bias { bias.data()[ch] } else { 0.0 };
                    want.push(prod[ch * cols + col] + b);
                }
            }
        }

        let mut ws = dirty_workspace();
        for round in 0..2 {
            // Round 1 reruns on the warm pool and packed-panel cache.
            let got = conv2d_forward_ws(
                &input,
                &weight,
                with_bias.then_some(&bias),
                spec,
                &mut ws,
            );
            prop_assert_eq!(got.shape(), &[n, oc, oh, ow]);
            assert_bits_eq(got.data(), &want, &format!("conv forward (round {round})"));
            ws.recycle(got);
        }
    }

    /// The batched input backward (interleave, one wide transa GEMM,
    /// per-image col2im) against a per-image naive Wᵀ@g + fold.
    #[test]
    fn batched_conv_input_backward_matches_per_image_naive(
        n in 1usize..4,
        ic in 1usize..4,
        oc in 1usize..5,
        kh in 1usize..4,
        kw in 1usize..4,
        extra in 0usize..5,
        stride in 1usize..3,
        pad in 0usize..2,
        vals in proptest::collection::vec(-1.5f32..1.5, 8..32),
    ) {
        let (h, w) = (kh + extra, kw + extra);
        let spec = ConvSpec::new(stride, pad);
        let weight = Tensor::from_vec(tensor_from(&vals, oc * ic * kh * kw, 0.03), &[oc, ic, kh, kw]);
        let oh = spec.out_size(h, kh);
        let ow = spec.out_size(w, kw);
        let rows = ic * kh * kw;
        let cols = oh * ow;
        let grad_out = Tensor::from_vec(tensor_from(&vals, n * oc * cols, -0.02), &[n, oc, oh, ow]);

        let mut want = Vec::with_capacity(n * ic * h * w);
        for i in 0..n {
            let go = &grad_out.data()[i * oc * cols..(i + 1) * oc * cols];
            // Wᵀ @ g: weight is [oc, rows] row-major, so transa over oc.
            let gcols = naive_matmul_transa(weight.data(), go, rows, oc, cols);
            want.extend_from_slice(&naive_col2im(&gcols, ic, h, w, kh, kw, spec));
        }

        let mut ws = dirty_workspace();
        for round in 0..2 {
            let got = conv2d_input_backward_ws(&weight, &grad_out, h, w, spec, &mut ws);
            prop_assert_eq!(got.shape(), &[n, ic, h, w]);
            assert_bits_eq(got.data(), &want, &format!("conv input backward (round {round})"));
            ws.recycle(got);
        }
    }

    /// Dequantized panels against the from-scratch byte-level decode: the
    /// panel cache must serve exactly the codec's floats — natural order
    /// for `dequant_panel`, `[k, n]` transposed order for `packed_dequant`
    /// — on the cold pack and on warm cache hits alike, and the GEMM fed
    /// from the panel must match the GEMM fed the naive decode bitwise.
    #[test]
    fn dequant_panels_match_naive_decode_bitwise(
        n in 1usize..13,
        k in 1usize..40,
        m in 1usize..6,
        dtype_bit in 0usize..2,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let dtype = if dtype_bit == 0 { Dtype::F16 } else { Dtype::Q8 };
        let w = Tensor::from_vec(tensor_from(&vals, n * k, 0.015), &[n, k]);
        let q = QTensor::quantize(&w, dtype);
        let want = naive_decode(&q);
        let mut want_t = vec![0.0f32; n * k];
        ops::transpose_into(&want, n, k, &mut want_t);
        let x = tensor_from(&vals, m * k, 0.01);
        let mut want_y = vec![0.0f32; m * n];
        ops::matmul_into(&x, &want_t, m, k, n, &mut want_y);

        let mut ws = dirty_workspace();
        for round in 0..2 {
            // Round 0 dequantizes into the panel cache, round 1 hits it.
            let flat = ws.dequant_panel(&q).to_vec();
            assert_bits_eq(&flat, &want, &format!("dequant_panel {dtype} (round {round})"));
            let mut got_y = ws.take_dirty(m * n);
            let packed = ws.packed_dequant(&q, n, k);
            assert_bits_eq(packed, &want_t, &format!("packed_dequant {dtype} (round {round})"));
            ops::matmul_into(&x, packed, m, k, n, &mut got_y);
            assert_bits_eq(&got_y, &want_y, &format!("gemm via packed_dequant {dtype} (round {round})"));
            ws.put(got_y);
        }
    }

    /// `transpose_into` is an exact permutation (round-trips bitwise).
    #[test]
    fn transpose_into_round_trips(
        rows in 1usize..14,
        cols in 1usize..14,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let src = tensor_from(&vals, rows * cols, 0.01);
        let mut t = vec![0.0f32; rows * cols];
        let mut back = vec![0.0f32; rows * cols];
        ops::transpose_into(&src, rows, cols, &mut t);
        ops::transpose_into(&t, cols, rows, &mut back);
        assert_bits_eq(&back, &src, "transpose round trip");
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(t[c * rows + r].to_bits(), src[r * cols + c].to_bits());
            }
        }
    }
}

/// Depthwise forward and input adjoint against their per-output loops on
/// every small geometry: stride 1 and 2, pad 0–2, kernel sides 1/3/5 in
/// each direction, planes from 1×1 up, with and without bias, on finite
/// data and on data with `±inf`/NaN spikes, from a NaN-dirty workspace
/// and again from the warm pool.
#[test]
fn depthwise_row_form_matches_per_output_loops_bitwise() {
    let (n, c) = (2, 3);
    let mut cases = 0;
    for stride in 1..=2 {
        for pad in 0..=2 {
            let spec = ConvSpec::new(stride, pad);
            for kh in [1, 3, 5] {
                for kw in [1, 3, 5] {
                    for h in [1, 2, 3, 4, 7, 10] {
                        for w in [1, 2, 3, 5, 8, 13] {
                            if h + 2 * pad < kh || w + 2 * pad < kw {
                                continue;
                            }
                            for spikes in [false, true] {
                                let dims = (n, c, h, w);
                                let seed = (cases % 97) as u32;
                                check_depthwise_case(dims, kh, kw, spec, spikes, seed);
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(cases > 1000, "grid too small: {cases}");
}

fn check_depthwise_case(
    dims: (usize, usize, usize, usize),
    kh: usize,
    kw: usize,
    spec: ConvSpec,
    spikes: bool,
    seed: u32,
) {
    let (n, c, h, w) = dims;
    let (oh, ow) = (spec.out_size(h, kh), spec.out_size(w, kw));
    let what = format!("{dims:?} k {kh}x{kw} {spec:?} spikes {spikes}");
    let x = Tensor::from_vec(special_mix(n * c * h * w, seed, spikes), &[n, c, h, w]);
    // Spikes in the kernel too, so a zero gradient meets an infinite tap.
    let ker = Tensor::from_vec(
        special_mix(c * kh * kw, seed + 1, spikes && kh * kw > 1),
        &[c, 1, kh, kw],
    );
    let bias = Tensor::from_vec(special_mix(c, seed + 2, false), &[c]);
    let go = Tensor::from_vec(
        special_mix(n * c * oh * ow, seed + 3, spikes),
        &[n, c, oh, ow],
    );
    let want_gi = naive_depthwise_input_backward(ker.data(), go.data(), dims, kh, kw, spec);
    let mut ws = dirty_workspace();
    for round in 0..2 {
        for b in [None, Some(&bias)] {
            let want = naive_depthwise_forward(
                x.data(),
                ker.data(),
                b.map(Tensor::data),
                dims,
                kh,
                kw,
                spec,
            );
            let got = depthwise_forward_ws(&x, &ker, b, spec, &mut ws);
            assert_eq!(got.shape(), &[n, c, oh, ow]);
            let label = format!(
                "depthwise forward {what} bias {} (round {round})",
                b.is_some()
            );
            assert_bits_eq(got.data(), &want, &label);
            ws.recycle(got);
        }
        let gi = depthwise_input_backward_ws(&ker, &go, h, w, spec, &mut ws);
        assert_bits_eq(
            gi.data(),
            &want_gi,
            &format!("depthwise input backward {what} (round {round})"),
        );
        ws.recycle(gi);
    }
}

/// SSIM's valid blur and its adjoint against their per-output loops, on
/// windows up to SSIM's 11×11 and outputs on both sides of the narrow-row
/// cut-over (1 to 10 columns wide), with `±inf`/NaN spikes and zero
/// gradients.
#[test]
fn valid_blur_and_adjoint_match_per_output_loops_bitwise() {
    let mut cases = 0;
    for k in [1, 3, 5, 11] {
        for h in [k, k + 1, k + 3, k + 9] {
            for w in [k, k + 1, k + 2, k + 3, k + 4, k + 9] {
                for spikes in [false, true] {
                    let seed = (cases % 89) as u32;
                    let (oh, ow) = (h - k + 1, w - k + 1);
                    let what = format!("{h}x{w} k {k} spikes {spikes}");
                    let img = special_mix(h * w, seed, spikes);
                    // Kernel spikes let a zero gradient meet an infinite tap.
                    let ker = special_mix(k * k, seed + 1, spikes && k > 1);
                    let grad = special_mix(oh * ow, seed + 2, spikes);

                    let mut want = Vec::with_capacity(oh * ow);
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = 0.0f32;
                            for ky in 0..k {
                                for kx in 0..k {
                                    acc += img[(oy + ky) * w + ox + kx] * ker[ky * k + kx];
                                }
                            }
                            want.push(acc);
                        }
                    }
                    let mut want_adj = vec![0.0f32; h * w];
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let g = grad[oy * ow + ox];
                            if g == 0.0 {
                                continue;
                            }
                            for ky in 0..k {
                                for kx in 0..k {
                                    want_adj[(oy + ky) * w + ox + kx] += g * ker[ky * k + kx];
                                }
                            }
                        }
                    }

                    let img_t = Tensor::from_vec(img, &[h, w]);
                    let ker_t = Tensor::from_vec(ker, &[k, k]);
                    let grad_t = Tensor::from_vec(grad, &[oh, ow]);
                    let got = conv2d_valid_single(&img_t, &ker_t);
                    assert_bits_eq(got.data(), &want, &format!("valid blur {what}"));
                    let got_adj = conv2d_valid_single_adjoint(&grad_t, &ker_t, h, w);
                    assert_bits_eq(got_adj.data(), &want_adj, &format!("valid adjoint {what}"));
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > 150, "grid too small: {cases}");
}
