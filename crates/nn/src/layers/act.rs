//! Activation layers: ReLU, Sigmoid, SiLU (swish).

use crate::layer::{Layer, Mode, ParamSlot};
use usb_tensor::{Tape, Tensor, Workspace};

/// Elementwise map into a workspace buffer: the allocation-free counterpart
/// of [`Tensor::map`], applying the *same* scalar function so the results
/// are bit-identical to the forward path.
fn map_into(x: &Tensor, ws: &mut Workspace, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = ws.take_dirty(x.len());
    for (o, &v) in out.iter_mut().zip(x.data()) {
        *o = f(v);
    }
    Tensor::from_vec(out, x.shape())
}

/// Elementwise two-input map into a workspace buffer: the tape-route
/// counterpart of [`Tensor::zip_map`] over `(grad, recorded activation)`
/// pairs, applying the *same* scalar function as the layer's `backward`
/// so gradients are bit-identical.
fn zip_grad_into(
    grad_out: &Tensor,
    recorded: &[f32],
    ws: &mut Workspace,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    assert_eq!(
        grad_out.len(),
        recorded.len(),
        "activation grad: grad length does not match the recorded frame"
    );
    let mut out = ws.take_dirty(grad_out.len());
    for ((o, &g), &v) in out.iter_mut().zip(grad_out.data()).zip(recorded) {
        *o = f(g, v);
    }
    Tensor::from_vec(out, grad_out.shape())
}

/// Rectified linear unit `max(0, x)`.
#[derive(Debug, Default)]
pub struct ReLU {
    cached_input: Option<Tensor>,
}

impl Clone for ReLU {
    /// Stateless apart from the transient forward cache, which a clone
    /// starts without (see [`Layer::clone_box`]).
    fn clone(&self) -> Self {
        ReLU::default()
    }
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReLU::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.cached_input = Some(x.clone());
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("ReLU::backward before forward");
        grad_out.zip_map(x, |g, xv| if xv > 0.0 { g } else { 0.0 })
    }

    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        map_into(x, ws, |v| v.max(0.0))
    }

    fn infer_recording(&self, x: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        tape.push().vals.extend_from_slice(x.data());
        map_into(x, ws, |v| v.max(0.0))
    }

    fn grad(&self, grad_out: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        let frame = tape.pop();
        // Same scalar gate as `backward`'s zip_map, over the recorded input.
        let gi = zip_grad_into(
            grad_out,
            &frame.vals,
            ws,
            |g, xv| {
                if xv > 0.0 {
                    g
                } else {
                    0.0
                }
            },
        );
        tape.recycle(frame);
        gi
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamSlot<'_>)) {}

    fn param_count(&self) -> usize {
        0 // no parameters
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Logistic sigmoid `1/(1+e^{-x})`.
#[derive(Debug, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Clone for Sigmoid {
    /// Stateless apart from the transient forward cache, which a clone
    /// starts without (see [`Layer::clone_box`]).
    fn clone(&self) -> Self {
        Sigmoid::default()
    }
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid::default()
    }
}

/// Scalar logistic sigmoid used by the sigmoid and SiLU layers.
///
/// The numerically stable two-branch form — `1/(1+e^{-x})` for `x >= 0`,
/// `e^x/(1+e^x)` otherwise — without the branch, which a sign-mixed
/// activation map mispredicts half the time. Both sides take `exp` of
/// `-|x|`, formed by setting the sign bit (a NaN keeps its own bits, as
/// the `x < 0` side passed it), and differ only in the numerator, `1` or
/// `e`, selected on bits. Each side performs the same operations on the
/// same operands as its branch did, so results are bit-identical to the
/// two-branch form (pinned by
/// `branch_free_sigmoid_matches_two_branch_form`).
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    let sign = u32::from(!x.is_nan()) << 31;
    let e = f32::from_bits(x.to_bits() | sign).exp();
    let nonneg = u32::from(x >= 0.0).wrapping_neg();
    let num = f32::from_bits((nonneg & 1.0f32.to_bits()) | (!nonneg & e.to_bits()));
    num / (1.0 + e)
}

impl Layer for Sigmoid {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let y = x.map(sigmoid_scalar);
        self.cached_output = Some(y.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .as_ref()
            .expect("Sigmoid::backward before forward");
        grad_out.zip_map(y, |g, s| g * s * (1.0 - s))
    }

    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        map_into(x, ws, sigmoid_scalar)
    }

    fn infer_recording(&self, x: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        // Like `forward`, the *output* is what the gradient needs.
        let y = map_into(x, ws, sigmoid_scalar);
        tape.push().vals.extend_from_slice(y.data());
        y
    }

    fn grad(&self, grad_out: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        let frame = tape.pop();
        let gi = zip_grad_into(grad_out, &frame.vals, ws, |g, s| g * s * (1.0 - s));
        tape.recycle(frame);
        gi
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamSlot<'_>)) {}

    fn param_count(&self) -> usize {
        0 // no parameters
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// SiLU / swish activation `x · sigmoid(x)`, the nonlinearity used by
/// EfficientNet.
///
/// The tape route records the local derivative `σ + x·σ·(1 − σ)` rather
/// than the input, so `grad` is one multiply per element with no `exp`;
/// the product `g · d` is the very expression `backward` evaluates, so the
/// two routes agree bit for bit.
#[derive(Debug, Default)]
pub struct SiLU {
    cached_input: Option<Tensor>,
}

impl Clone for SiLU {
    /// Stateless apart from the transient forward cache, which a clone
    /// starts without (see [`Layer::clone_box`]).
    fn clone(&self) -> Self {
        SiLU::default()
    }
}

impl SiLU {
    /// Creates a SiLU layer.
    pub fn new() -> Self {
        SiLU::default()
    }
}

impl Layer for SiLU {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.cached_input = Some(x.clone());
        x.map(|v| v * sigmoid_scalar(v))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("SiLU::backward before forward");
        grad_out.zip_map(x, |g, v| {
            let s = sigmoid_scalar(v);
            g * (s + v * s * (1.0 - s))
        })
    }

    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        map_into(x, ws, |v| v * sigmoid_scalar(v))
    }

    fn infer_recording(&self, x: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        // One sigmoid per element feeds both the output and the recorded
        // derivative (the factor `backward` applies); the frame stays the
        // size of the input.
        let mut out = ws.take_dirty(x.len());
        tape.push()
            .vals
            .extend(out.iter_mut().zip(x.data()).map(|(o, &v)| {
                let s = sigmoid_scalar(v);
                *o = v * s;
                s + v * s * (1.0 - s)
            }));
        Tensor::from_vec(out, x.shape())
    }

    fn grad(&self, grad_out: &Tensor, tape: &mut Tape, ws: &mut Workspace) -> Tensor {
        let frame = tape.pop();
        let gi = zip_grad_into(grad_out, &frame.vals, ws, |g, d| g * d);
        tape.recycle(frame);
        gi
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamSlot<'_>)) {}

    fn param_count(&self) -> usize {
        0 // no parameters
    }

    fn name(&self) -> &'static str {
        "silu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(layer: &mut dyn Layer, x: &Tensor) {
        let y = layer.forward(x, Mode::Train);
        let gi = layer.backward(&Tensor::ones(y.shape()));
        let eps = 1e-3;
        for flat in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let num = (layer.forward(&xp, Mode::Train).sum()
                - layer.forward(&xm, Mode::Train).sum())
                / (2.0 * eps);
            assert!(
                (num - gi.data()[flat]).abs() < 1e-2,
                "{}: grad mismatch at {flat}: {num} vs {}",
                layer.name(),
                gi.data()[flat]
            );
        }
    }

    #[test]
    fn relu_values_and_grad() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0, -0.1], &[4]);
        let y = r.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[0.0, 0.5, 2.0, 0.0]);
        let g = r.backward(&Tensor::ones(&[4]));
        assert_eq!(g.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_range_and_grad() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![-4.0, 0.0, 4.0, 100.0, -100.0], &[5]);
        let y = s.forward(&x, Mode::Eval);
        assert!(y.all_finite());
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        finite_diff(&mut s, &Tensor::from_vec(vec![-0.8, 0.2, 1.3], &[3]));
    }

    /// The numerically stable two-branch sigmoid: the reference
    /// `sigmoid_scalar` must match bit for bit.
    fn sigmoid_two_branch(x: f32) -> f32 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    /// Signed zeros, infinities, quiet and signalling NaNs of both signs,
    /// subnormals, the edges where `exp` overflows (`ln f32::MAX`) and
    /// underflows to subnormal and to zero, where `1 + e^{-x}` rounds to 1
    /// (`ln 2^24`), and tiny `|x|`, each with its neighbours; then a
    /// strided sweep of every 4099th bit pattern — about a million inputs
    /// spread over all 2^32.
    fn edge_and_sweep_inputs() -> Vec<f32> {
        let mut xs: Vec<f32> = [
            0x0000_0000u32,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0000,
            0xffc0_0000,
            0x7f80_0001,
            0xff80_0001,
            0x7fc1_2345,
            0xffc1_2345,
            0x0000_0001,
            0x8000_0001,
            0x007f_ffff,
            0x807f_ffff,
            0x0080_0000,
            0x8080_0000,
            0x7f7f_ffff,
            0xff7f_ffff,
        ]
        .iter()
        .map(|&b| f32::from_bits(b))
        .collect();
        for edge in [88.722_83f32, 87.336_55, 103.278_93, 104.0, 16.635_532, 1e-8] {
            for v in [edge, edge.next_up(), edge.next_down()] {
                xs.extend([v, -v]);
            }
        }
        xs.extend((0..=u32::MAX).step_by(4099).map(f32::from_bits));
        xs
    }

    #[test]
    fn branch_free_sigmoid_matches_two_branch_form() {
        for x in edge_and_sweep_inputs() {
            assert_eq!(
                sigmoid_scalar(x).to_bits(),
                sigmoid_two_branch(x).to_bits(),
                "sigmoid({x:e}) [bits {:#010x}]",
                x.to_bits()
            );
        }
    }

    #[test]
    fn silu_tape_route_matches_legacy_route_bitwise() {
        let xs = edge_and_sweep_inputs();
        let gs = [
            1.0f32,
            -0.5,
            0.0,
            -0.0,
            3.25,
            f32::INFINITY,
            f32::NAN,
            1e-40,
        ];
        let n = xs.len();
        let x = Tensor::from_vec(xs, &[n]);
        let go = Tensor::from_fn(&[n], |i| gs[i % gs.len()]);
        let mut legacy = SiLU::new();
        let y_legacy = legacy.forward(&x, Mode::Eval);
        let g_legacy = legacy.backward(&go);
        let (mut tape, mut ws) = (Tape::new(), Workspace::new());
        let silu = SiLU::new();
        let y_tape = silu.infer_recording(&x, &mut tape, &mut ws);
        let g_tape = silu.grad(&go, &mut tape, &mut ws);
        // Where a NaN input meets a NaN gradient in one multiply, which
        // payload survives depends on the operand order the compiler picks
        // (Rust leaves the payload of a NaN result unspecified), so NaN
        // results need only agree on being NaN; every other result must
        // match bit for bit.
        for (what, a, b) in [("output", &y_tape, &y_legacy), ("grad", &g_tape, &g_legacy)] {
            for (i, (p, q)) in a.data().iter().zip(b.data()).enumerate() {
                assert!(
                    p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()),
                    "silu {what} at x = {:e}, g = {:e}: {p:e} vs {q:e}",
                    x.data()[i],
                    go.data()[i]
                );
            }
        }
    }

    #[test]
    fn silu_matches_definition_and_grad() {
        let mut s = SiLU::new();
        let x = Tensor::from_vec(vec![1.0], &[1]);
        let y = s.forward(&x, Mode::Eval);
        assert!((y.data()[0] - 1.0 / (1.0 + (-1.0f32).exp())).abs() < 1e-6);
        finite_diff(
            &mut s,
            &Tensor::from_vec(vec![-1.5, -0.2, 0.0, 0.7, 2.0], &[5]),
        );
    }
}
