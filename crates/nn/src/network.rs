//! Sequential network container with convolution taps.

use crate::{Conv2d, Layer, LayerKind, NnError};
use drq_tensor::Tensor;

/// Sums a residual block's two paths, surfacing shape mismatches as the
/// typed error the `try_*` forward variants propagate.
fn merge_residual(main: &Tensor<f32>, short: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
    main.zip_map(short, |a, b| a + b)
        .map_err(|e| NnError::ShapeMismatch {
            context: "residual shape mismatch",
            detail: format!("{e:?}"),
        })
}

/// Callback executing one convolution: `(conv_index, layer, input) -> output`.
pub type ConvExecutor<'a> = dyn FnMut(usize, &Conv2d, &Tensor<f32>) -> Tensor<f32> + 'a;

/// A sequential network of [`Layer`]s (residual blocks nest inside).
///
/// Besides plain forward/backward, the network supports *convolution taps*:
/// [`Network::forward_tapped`] invokes a callback with every convolution
/// layer's input feature map, exactly the observation point the DRQ
/// sensitivity predictor sits at (the input feature map of the next
/// convolution layer, Section III-B of the paper).
///
/// # Examples
///
/// ```
/// use drq_nn::{Conv2d, Layer, Network, ReLU};
/// use drq_tensor::Tensor;
///
/// let mut net = Network::new(vec![
///     Layer::from(Conv2d::new(1, 2, 3, 1, 1, 1)),
///     Layer::from(ReLU::new()),
/// ]);
/// let mut taps = 0;
/// let _ = net.forward_tapped(&Tensor::zeros(&[1, 1, 4, 4]), &mut |_tap| taps += 1);
/// assert_eq!(taps, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Network {
    layers: Vec<Layer>,
}

/// Information handed to a convolution tap: which conv (in network order,
/// counting convs inside residual blocks) and its input feature map.
#[derive(Debug)]
pub struct ConvTap<'a> {
    /// Zero-based index among all convolution layers in execution order.
    pub conv_index: usize,
    /// The input feature map about to enter this convolution.
    pub input: &'a Tensor<f32>,
    /// The convolution layer itself.
    pub conv: &'a crate::Conv2d,
}

impl Network {
    /// Creates a network from layers executed in order.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers }
    }

    /// The network's layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Number of convolution layers, including those inside residual blocks.
    pub fn conv_count(&self) -> usize {
        fn count(layers: &[Layer]) -> usize {
            layers
                .iter()
                .map(|l| match l {
                    Layer::Conv2d(_) => 1,
                    Layer::Residual(r) => count(r.main()) + count(r.shortcut()),
                    _ => 0,
                })
                .sum()
        }
        count(&self.layers)
    }

    /// Total trainable parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }

    /// Forward pass through all layers.
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let mut y = x.clone();
        for l in &mut self.layers {
            y = l.forward(&y, train);
        }
        y
    }

    /// Forward pass invoking `tap` with every convolution's input.
    ///
    /// Residual blocks are traversed (main path first, then shortcut), so
    /// `conv_index` enumerates every convolution in the network.
    ///
    /// # Panics
    ///
    /// Panics on a residual shape mismatch (delegates to
    /// [`Network::try_forward_tapped`], preserving the message text).
    pub fn forward_tapped(
        &mut self,
        x: &Tensor<f32>,
        tap: &mut dyn FnMut(ConvTap<'_>),
    ) -> Tensor<f32> {
        self.try_forward_tapped(x, tap)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Network::forward_tapped`] returning a typed
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if a residual block's main and
    /// shortcut paths produce different shapes.
    pub fn try_forward_tapped(
        &mut self,
        x: &Tensor<f32>,
        tap: &mut dyn FnMut(ConvTap<'_>),
    ) -> Result<Tensor<f32>, NnError> {
        let mut idx = 0usize;
        fn run(
            layers: &mut [Layer],
            x: &Tensor<f32>,
            idx: &mut usize,
            tap: &mut dyn FnMut(ConvTap<'_>),
        ) -> Result<Tensor<f32>, NnError> {
            let mut y = x.clone();
            for l in layers.iter_mut() {
                match l {
                    Layer::Conv2d(c) => {
                        tap(ConvTap { conv_index: *idx, input: &y, conv: c });
                        *idx += 1;
                        y = c.forward(&y, false);
                    }
                    Layer::Residual(r) => {
                        let main = run(r.main_mut(), &y, idx, tap)?;
                        let short = run(r.shortcut_mut(), &y, idx, tap)?;
                        y = merge_residual(&main, &short)?;
                    }
                    other => {
                        y = other.forward(&y, false);
                    }
                }
            }
            Ok(y)
        }
        run(&mut self.layers, x, &mut idx, tap)
    }

    /// Forward pass in which every convolution is *executed by* `exec`
    /// instead of the layer itself. `exec` receives the running convolution
    /// index, the layer, and its input feature map, and must return the
    /// layer's output.
    ///
    /// This is the substitution point for quantized and mixed-precision
    /// execution: the surrounding layers (BN, ReLU, pooling, residual sums)
    /// run normally while convolutions go through the caller's datapath.
    ///
    /// # Panics
    ///
    /// Panics on a residual shape mismatch (delegates to
    /// [`Network::try_forward_conv_override`], preserving the message text).
    pub fn forward_conv_override(
        &mut self,
        x: &Tensor<f32>,
        exec: &mut ConvExecutor<'_>,
    ) -> Tensor<f32> {
        self.try_forward_conv_override(x, exec)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Network::forward_conv_override`] returning a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if a residual block's main and
    /// shortcut paths produce different shapes.
    pub fn try_forward_conv_override(
        &mut self,
        x: &Tensor<f32>,
        exec: &mut ConvExecutor<'_>,
    ) -> Result<Tensor<f32>, NnError> {
        let mut idx = 0usize;
        fn run(
            layers: &mut [Layer],
            x: &Tensor<f32>,
            idx: &mut usize,
            exec: &mut ConvExecutor<'_>,
        ) -> Result<Tensor<f32>, NnError> {
            let mut y = x.clone();
            for l in layers.iter_mut() {
                match l {
                    Layer::Conv2d(c) => {
                        y = exec(*idx, c, &y);
                        *idx += 1;
                    }
                    Layer::Residual(r) => {
                        let main = run(r.main_mut(), &y, idx, exec)?;
                        let short = run(r.shortcut_mut(), &y, idx, exec)?;
                        y = merge_residual(&main, &short)?;
                    }
                    other => {
                        y = other.forward(&y, false);
                    }
                }
            }
            Ok(y)
        }
        run(&mut self.layers, x, &mut idx, exec)
    }

    /// Backward pass; returns the gradient w.r.t. the network input.
    pub fn backward(&mut self, grad_out: &Tensor<f32>) -> Tensor<f32> {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Visits every `(param, grad)` pair in stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor<f32>, &mut Tensor<f32>)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    /// Visits every non-trainable state tensor (BatchNorm running
    /// statistics) in stable order.
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Tensor<f32>)) {
        for l in &mut self.layers {
            l.visit_buffers(f);
        }
    }

    /// Layer kinds in order (for reports and debugging).
    pub fn layer_kinds(&self) -> Vec<LayerKind> {
        self.layers.iter().map(Layer::kind).collect()
    }
}

impl FromIterator<Layer> for Network {
    fn from_iter<I: IntoIterator<Item = Layer>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl Extend<Layer> for Network {
    fn extend<I: IntoIterator<Item = Layer>>(&mut self, iter: I) {
        self.layers.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Conv2d, CrossEntropyLoss, Flatten, Linear, Pool2d, PoolKind, ReLU, ResidualBlock, Sgd};
    use drq_tensor::XorShiftRng;

    fn tiny_cnn(seed: u64) -> Network {
        Network::new(vec![
            Layer::from(Conv2d::new(1, 4, 3, 1, 1, seed)),
            Layer::from(BatchNorm2d::new(4)),
            Layer::from(ReLU::new()),
            Layer::from(Pool2d::new(PoolKind::Max, 2, 2)),
            Layer::from(Flatten::new()),
            Layer::from(Linear::new(4 * 4 * 4, 3, seed + 1)),
        ])
    }

    #[test]
    fn forward_shape_end_to_end() {
        let mut net = tiny_cnn(1);
        let y = net.forward(&Tensor::zeros(&[2, 1, 8, 8]), false);
        assert_eq!(y.shape(), &[2, 3]);
    }

    #[test]
    fn conv_count_traverses_residuals() {
        let mut layers = vec![Layer::from(Conv2d::new(1, 2, 3, 1, 1, 1))];
        layers.push(Layer::from(ResidualBlock::new(
            vec![Layer::from(Conv2d::new(2, 2, 3, 1, 1, 2))],
            vec![Layer::from(Conv2d::new(2, 2, 1, 1, 0, 3))],
        )));
        let net = Network::new(layers);
        assert_eq!(net.conv_count(), 3);
    }

    #[test]
    fn tapped_forward_sees_every_conv_input() {
        let mut net = Network::new(vec![
            Layer::from(Conv2d::new(1, 2, 3, 1, 1, 1)),
            Layer::from(ReLU::new()),
            Layer::from(ResidualBlock::new(
                vec![Layer::from(Conv2d::new(2, 2, 3, 1, 1, 2))],
                vec![],
            )),
        ]);
        let mut seen = Vec::new();
        let _ = net.forward_tapped(&Tensor::zeros(&[1, 1, 6, 6]), &mut |tap| {
            seen.push((tap.conv_index, tap.input.shape().to_vec()));
        });
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (0, vec![1, 1, 6, 6]));
        assert_eq!(seen[1], (1, vec![1, 2, 6, 6]));
    }

    #[test]
    fn tapped_forward_matches_plain_forward() {
        let mut net = tiny_cnn(5);
        let mut rng = XorShiftRng::new(6);
        let x = Tensor::from_fn(&[1, 1, 8, 8], |_| rng.next_f32());
        let y1 = net.forward(&x, false);
        let y2 = net.forward_tapped(&x, &mut |_| {});
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn training_reduces_loss_on_tiny_task() {
        // 3-class toy images: class = quadrant of the bright blob.
        let mut net = tiny_cnn(11);
        let mut opt = Sgd::new(0.05).momentum(0.9);
        let mut rng = XorShiftRng::new(12);
        let make_batch = |rng: &mut XorShiftRng| {
            let n = 12;
            let mut x = Tensor::<f32>::zeros(&[n, 1, 8, 8]);
            let mut t = Vec::with_capacity(n);
            for i in 0..n {
                let class = i % 3;
                let (cy, cx) = match class {
                    0 => (2, 2),
                    1 => (2, 5),
                    _ => (5, 2),
                };
                for dy in 0..2 {
                    for dx in 0..2 {
                        x[[i, 0, cy + dy, cx + dx]] = 1.0 + 0.1 * rng.next_normal();
                    }
                }
                t.push(class);
            }
            (x, t)
        };
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let (x, t) = make_batch(&mut rng);
            let logits = net.forward(&x, true);
            let (loss, grad) = CrossEntropyLoss::evaluate(&logits, &t);
            net.backward(&grad);
            opt.step(&mut net);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.5, "training failed: {last} vs {first:?}");
    }

    #[test]
    fn conv_override_substitutes_execution() {
        let mut net = tiny_cnn(7);
        let mut rng = XorShiftRng::new(8);
        let x = Tensor::from_fn(&[1, 1, 8, 8], |_| rng.next_f32());
        // Identity override: behaves like plain forward.
        let y_plain = net.forward(&x, false);
        let y_over = net.forward_conv_override(&x, &mut |_, conv, input| {
            conv.forward_with_weights(input, conv.weight())
        });
        for (a, b) in y_plain.as_slice().iter().zip(y_over.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
        // Zeroing override changes the result.
        let y_zero = net.forward_conv_override(&x, &mut |_, conv, input| {
            let w = Tensor::zeros(conv.weight().shape());
            conv.forward_with_weights(input, &w)
        });
        assert!(y_zero
            .as_slice()
            .iter()
            .zip(y_plain.as_slice())
            .any(|(a, b)| (a - b).abs() > 1e-6));
    }

    #[test]
    fn param_count_is_positive_and_stable() {
        let mut net = tiny_cnn(2);
        let a = net.param_count();
        let b = net.param_count();
        assert_eq!(a, b);
        assert!(a > 0);
    }
}
