//! Per-call timings of the network and tensor layers, taken in the traced
//! run on the workload's own victim and on standalone layers built at the
//! victim's first-stage shapes.

use crate::stats::{median, per_call_us};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use usb_data::Dataset;
use usb_nn::compose::SqueezeExcite;
use usb_nn::layer::StateSlot;
use usb_nn::layers::{BatchNorm2d, Conv2d, DepthwiseConv2d, Linear, ReLU, SiLU};
use usb_nn::{Layer, Network};
use usb_tensor::ops::matmul_transb_into;
use usb_tensor::ssim::ssim_with_grad_ws;
use usb_tensor::{QTensor, Tape, Tensor, Workspace};

/// Seconds spent timing each measured call shape.
const BUDGET_S: f64 = 0.12;
/// Calls timed per shape even when the budget runs out first.
const MIN_CALLS: usize = 5;
/// Rows of the lowered-patch matrix in the GEMM timing: a refine batch
/// of 16 images at a 4×4 output.
const GEMM_ROWS: usize = 256;

/// Metric name and value pairs.
pub type Timings = Vec<(String, f64)>;

/// Median microseconds of `record` (an `infer_recording` after
/// `Tape::begin`) and of the `grad` that consumes it, timed separately in
/// the same loop.
fn record_and_grad(
    mut record: impl FnMut(&mut Tape, &mut Workspace) -> Tensor,
    mut grad: impl FnMut(&Tensor, &mut Tape, &mut Workspace) -> Tensor,
) -> (f64, f64) {
    let mut tape = Tape::new();
    let mut ws = Workspace::new();
    let mut rec = Vec::new();
    let mut grd = Vec::new();
    let start = Instant::now();
    while rec.len() < MIN_CALLS + 1 || start.elapsed().as_secs_f64() < 2.0 * BUDGET_S {
        let t0 = Instant::now();
        tape.begin();
        let y = record(&mut tape, &mut ws);
        let t1 = Instant::now();
        let dy = Tensor::from_fn(y.shape(), |i| ((i % 7) as f32 - 3.0) * 0.01);
        let t2 = Instant::now();
        let g = grad(&dy, &mut tape, &mut ws);
        let t3 = Instant::now();
        ws.recycle(y);
        ws.recycle(g);
        rec.push((t1 - t0).as_secs_f64() * 1e6);
        grd.push((t3 - t2).as_secs_f64() * 1e6);
    }
    // The first pass warms the workspace and tape pools.
    (median(&rec[1..]), median(&grd[1..]))
}

fn batch(data: &Dataset, n: usize) -> Tensor {
    data.clean_subset(n, &mut StdRng::seed_from_u64(0x1a7e)).0
}

/// `nn.infer_b{1,48}_us`, `nn.record_b{1,16}_us`, `nn.grad_b{1,16}_us` on
/// the victim: the batch shapes of Alg. 1 (DeepFool at 1, success rate at
/// 48) and Alg. 2 (16).
pub fn victim_passes(model: &Network, data: &Dataset) -> Timings {
    let mut out = Timings::new();
    let mut ws = Workspace::new();
    for n in [1, 48] {
        let x = batch(data, n);
        let us = per_call_us(BUDGET_S, MIN_CALLS, || {
            let y = model.infer(&x, &mut ws);
            ws.recycle(y);
        });
        out.push((format!("nn.infer_b{n}_us"), us));
    }
    for n in [1, 16] {
        let x = batch(data, n);
        let (rec, grad) = record_and_grad(
            |tape, ws| model.infer_recording(&x, tape, ws),
            |dy, tape, ws| model.grad(dy, tape, ws),
        );
        out.push((format!("nn.record_b{n}_us"), rec));
        out.push((format!("nn.grad_b{n}_us"), grad));
    }
    out
}

/// `nn.<kind>.{infer,record,grad}_us` for standalone layers at the
/// victim's first-stage shapes: `width` channels at the input resolution,
/// a refine batch of 16; the linear layer has the classifier's shape.
pub fn standalone_layers(model: &Network) -> Timings {
    let arch = model.arch();
    let (c, h, w) = (arch.width, arch.input.1, arch.input.2);
    let mut rng = StdRng::seed_from_u64(0x1a7e_5eed);
    let x4 = Tensor::from_fn(&[16, c, h, w], |i| ((i % 29) as f32 - 14.0) * 0.05);
    let head = 8 * arch.width;
    let x2 = Tensor::from_fn(&[16, head], |i| ((i % 13) as f32 - 6.0) * 0.05);
    let layers: Vec<(&str, Box<dyn Layer>, &Tensor)> = vec![
        (
            "conv2d",
            Box::new(Conv2d::new(c, c, 3, 1, 1, false, &mut rng)),
            &x4,
        ),
        (
            "depthwise",
            Box::new(DepthwiseConv2d::new(c, 3, 1, 1, false, &mut rng)),
            &x4,
        ),
        ("batchnorm", Box::new(BatchNorm2d::new(c)), &x4),
        ("silu", Box::new(SiLU::new()), &x4),
        ("relu", Box::new(ReLU::new()), &x4),
        (
            "linear",
            Box::new(Linear::new(head, arch.num_classes, &mut rng)),
            &x2,
        ),
        ("se", Box::new(SqueezeExcite::new(c, 4, &mut rng)), &x4),
    ];
    let mut out = Timings::new();
    for (kind, layer, x) in &layers {
        let mut ws = Workspace::new();
        let infer = per_call_us(BUDGET_S, MIN_CALLS, || {
            let y = layer.infer(x, &mut ws);
            ws.recycle(y);
        });
        let (rec, grad) = record_and_grad(
            |tape, ws| layer.infer_recording(x, tape, ws),
            |dy, tape, ws| layer.grad(dy, tape, ws),
        );
        out.push((format!("nn.{kind}.infer_us"), infer));
        out.push((format!("nn.{kind}.record_us"), rec));
        out.push((format!("nn.{kind}.grad_us"), grad));
    }
    out
}

/// `tensor.ssim_grad_us`: `ssim_with_grad_ws` on one refine batch (16
/// clean images against a blended copy).
pub fn ssim_grad(data: &Dataset) -> f64 {
    let x = batch(data, 16);
    let y = x.map(|v| 0.9 * v + 0.05);
    let mut ws = Workspace::new();
    per_call_us(BUDGET_S, MIN_CALLS, || {
        let (s, g) = ssim_with_grad_ws(&y, &x, &mut ws);
        std::hint::black_box(s);
        ws.recycle(g);
    })
}

/// Dense weights and quantized payloads of every GEMM operand.
fn weights(model: &mut Network) -> (Vec<Tensor>, Vec<QTensor>) {
    let mut dense = Vec::new();
    let mut quant = Vec::new();
    model.visit_state_q(&mut |_, slot| {
        if let StateSlot::Weight {
            dense: d, quant: q, ..
        } = slot
        {
            match q {
                Some(q) => quant.push(q.clone()),
                None => dense.push(d.clone()),
            }
        }
    });
    (dense, quant)
}

/// `tensor.gemm_xwt_us`: `matmul_transb_into` with the victim's widest
/// dense conv weight (`[out, in·k·k]`) against [`GEMM_ROWS`] lowered
/// patches.
pub fn gemm_xwt(model: &mut Network) -> f64 {
    let (dense, quant) = weights(model);
    let widest = dense
        .into_iter()
        .chain(quant.iter().map(QTensor::dequantize))
        .filter(|t| t.ndim() == 4)
        .max_by_key(Tensor::len)
        .expect("every victim has a dense convolution");
    let (n, k) = (widest.shape()[0], widest.len() / widest.shape()[0]);
    let a: Vec<f32> = (0..GEMM_ROWS * k)
        .map(|i| ((i % 11) as f32 - 5.0) * 0.1)
        .collect();
    let mut out = vec![0f32; GEMM_ROWS * n];
    per_call_us(BUDGET_S, MIN_CALLS, || {
        matmul_transb_into(&a, widest.data(), GEMM_ROWS, k, n, &mut out);
        std::hint::black_box(&out);
    })
}

/// `tensor.q8_dequant_us`: `QTensor::dequantize_into` over every
/// quantized weight of a Q8 victim.
pub fn q8_dequant(q8_model: &mut Network) -> f64 {
    let (_, quant) = weights(q8_model);
    assert!(!quant.is_empty(), "q8_dequant needs a quantized victim");
    let longest = quant.iter().map(QTensor::len).max().unwrap_or(0);
    let mut buf = vec![0f32; longest];
    per_call_us(BUDGET_S, MIN_CALLS, || {
        for q in &quant {
            q.dequantize_into(&mut buf[..q.len()]);
        }
        std::hint::black_box(&buf);
    })
}
