//! Trainable stand-in networks and the training loop.
//!
//! The paper trains ResNet-32/-18/-50, VGG16, AlexNet, Inception-v3 and
//! MobileNet-v2 in TensorFlow; training those at full scale is outside this
//! repository's substrate. The accuracy experiments instead train these
//! scaled-down stand-ins to convergence on the synthetic datasets — each
//! keeps the architectural feature that matters for DRQ (convolutions with
//! BN+ReLU; residual blocks for the ResNet family).

use crate::{Dataset, DatasetKind};
use drq_nn::{
    accuracy, BatchNorm2d, Conv2d, CrossEntropyLoss, Flatten, Layer, Linear, Network, Pool2d,
    PoolKind, ReLU, ResidualBlock, Sgd,
};
use drq_telemetry::{counter_add, observe, Json, Report};
use std::time::Instant;

/// LeNet-5 sized for the 16×16 `digits` dataset.
pub fn lenet5(seed: u64) -> Network {
    Network::new(vec![
        Layer::from(Conv2d::new(1, 6, 5, 1, 2, seed)),
        Layer::from(ReLU::new()),
        Layer::from(Pool2d::new(PoolKind::Avg, 2, 2)), // 8x8
        Layer::from(Conv2d::new(6, 16, 5, 1, 2, seed + 1)),
        Layer::from(ReLU::new()),
        Layer::from(Pool2d::new(PoolKind::Avg, 2, 2)), // 4x4
        Layer::from(Flatten::new()),
        Layer::from(Linear::new(16 * 4 * 4, 84, seed + 2)),
        Layer::from(ReLU::new()),
        Layer::from(Linear::new(84, 10, seed + 3)),
    ])
}

/// A small VGG/AlexNet-style ConvNet for 3×32×32 inputs.
pub fn tiny_convnet(classes: usize, seed: u64) -> Network {
    Network::new(vec![
        Layer::from(Conv2d::new(3, 16, 3, 1, 1, seed)),
        Layer::from(BatchNorm2d::new(16)),
        Layer::from(ReLU::new()),
        Layer::from(Pool2d::new(PoolKind::Max, 2, 2)), // 16x16
        Layer::from(Conv2d::new(16, 32, 3, 1, 1, seed + 1)),
        Layer::from(BatchNorm2d::new(32)),
        Layer::from(ReLU::new()),
        Layer::from(Pool2d::new(PoolKind::Max, 2, 2)), // 8x8
        Layer::from(Conv2d::new(32, 32, 3, 1, 1, seed + 2)),
        Layer::from(ReLU::new()),
        Layer::from(Pool2d::new(PoolKind::Avg, 2, 2)), // 4x4
        Layer::from(Flatten::new()),
        Layer::from(Linear::new(32 * 4 * 4, classes, seed + 3)),
    ])
}

/// A ResNet-8: stem conv + three residual basic blocks (widths 16/32/64,
/// the latter two strided with projection shortcuts) + linear head. The
/// structural stand-in for the paper's ResNet family on 3×32×32 inputs.
pub fn resnet8(classes: usize, seed: u64) -> Network {
    fn basic(in_c: usize, out_c: usize, stride: usize, seed: u64) -> ResidualBlock {
        let main = vec![
            Layer::from(Conv2d::new(in_c, out_c, 3, stride, 1, seed)),
            Layer::from(BatchNorm2d::new(out_c)),
            Layer::from(ReLU::new()),
            Layer::from(Conv2d::new(out_c, out_c, 3, 1, 1, seed + 1)),
            Layer::from(BatchNorm2d::new(out_c)),
        ];
        let shortcut = if stride != 1 || in_c != out_c {
            vec![
                Layer::from(Conv2d::new(in_c, out_c, 1, stride, 0, seed + 2)),
                Layer::from(BatchNorm2d::new(out_c)),
            ]
        } else {
            vec![]
        };
        ResidualBlock::new(main, shortcut)
    }
    Network::new(vec![
        Layer::from(Conv2d::new(3, 16, 3, 1, 1, seed)),
        Layer::from(BatchNorm2d::new(16)),
        Layer::from(ReLU::new()),
        Layer::from(basic(16, 16, 1, seed + 10)),
        Layer::from(ReLU::new()),
        Layer::from(basic(16, 32, 2, seed + 20)), // 16x16
        Layer::from(ReLU::new()),
        Layer::from(basic(32, 64, 2, seed + 30)), // 8x8
        Layer::from(ReLU::new()),
        Layer::from(Pool2d::global_avg()),
        Layer::from(Flatten::new()),
        Layer::from(Linear::new(64, classes, seed + 40)),
    ])
}

/// Builds the default stand-in network for a dataset kind.
pub fn default_standin(kind: DatasetKind, seed: u64) -> Network {
    match kind {
        DatasetKind::Digits => lenet5(seed),
        DatasetKind::Shapes => resnet8(10, seed),
        DatasetKind::Textures => resnet8(20, seed),
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate (decayed ×0.5 at 60 % and 85 % of training).
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 6, batch_size: 16, lr: 0.05, momentum: 0.9, weight_decay: 1e-4 }
    }
}

/// Summary of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Global gradient L2 norm measured on the last batch of each epoch
    /// (after backward, before the optimizer step).
    pub epoch_grad_norms: Vec<f64>,
    /// Wall-clock milliseconds per epoch. Timing is measurement-only: it
    /// never feeds back into training and is excluded from golden files.
    pub epoch_ms: Vec<f64>,
    /// Final accuracy on the held-out evaluation set.
    pub eval_accuracy: f64,
}

impl TrainReport {
    /// Serializes the run into the unified metrics schema (kind `"train"`).
    pub fn to_report(&self) -> Report {
        let mut r = Report::new("train");
        r.push("epochs", self.epoch_losses.len())
            .push("eval_accuracy", self.eval_accuracy)
            .push(
                "final_loss",
                self.epoch_losses.last().copied().map(f64::from).unwrap_or(f64::NAN),
            )
            .push(
                "epoch_losses",
                Json::Array(self.epoch_losses.iter().map(|&l| Json::from(l)).collect()),
            )
            .push(
                "epoch_grad_norms",
                Json::Array(self.epoch_grad_norms.iter().map(|&g| Json::from(g)).collect()),
            )
            .push(
                "epoch_ms",
                Json::Array(self.epoch_ms.iter().map(|&m| Json::from(m)).collect()),
            );
        r
    }
}

/// Global L2 norm over every parameter gradient currently held by `net`.
fn grad_norm(net: &mut Network) -> f64 {
    let mut sq = 0.0f64;
    net.visit_params(&mut |_, grad| {
        for &g in grad.as_slice() {
            sq += f64::from(g) * f64::from(g);
        }
    });
    sq.sqrt()
}

/// Trains `net` on `train` and evaluates on `eval`, in place.
///
/// # Examples
///
/// ```no_run
/// use drq_models::{lenet5, train, Dataset, DatasetKind, TrainConfig};
///
/// let train_set = Dataset::generate(DatasetKind::Digits, 200, 1);
/// let eval_set = Dataset::generate(DatasetKind::Digits, 50, 2);
/// let mut net = lenet5(3);
/// let report = train(&mut net, &train_set, &eval_set, &TrainConfig::default());
/// assert!(report.eval_accuracy > 0.8);
/// ```
pub fn train(
    net: &mut Network,
    train: &Dataset,
    eval: &Dataset,
    config: &TrainConfig,
) -> TrainReport {
    let mut opt = Sgd::new(config.lr)
        .momentum(config.momentum)
        .weight_decay(config.weight_decay);
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    let mut epoch_grad_norms = Vec::with_capacity(config.epochs);
    let mut epoch_ms = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        // Step decay schedule.
        let progress = epoch as f32 / config.epochs.max(1) as f32;
        let lr = config.lr * if progress >= 0.85 { 0.25 } else if progress >= 0.6 { 0.5 } else { 1.0 };
        opt.set_lr(lr);
        let started = Instant::now();
        let mut loss_sum = 0.0;
        let mut last_grad_norm = 0.0f64;
        let batches = train.batch_count(config.batch_size);
        for b in 0..batches {
            let (x, y) = train.batch(b, config.batch_size);
            let logits = net.forward(&x, true);
            let (loss, grad) = CrossEntropyLoss::evaluate(&logits, &y);
            net.backward(&grad);
            // Gradients only exist between backward and the optimizer step
            // (Sgd::step zeroes them); sample the norm on the last batch.
            if b + 1 == batches {
                last_grad_norm = grad_norm(net);
            }
            opt.step(net);
            loss_sum += loss;
        }
        let mean_loss = loss_sum / batches as f32;
        epoch_losses.push(mean_loss);
        epoch_grad_norms.push(last_grad_norm);
        epoch_ms.push(started.elapsed().as_secs_f64() * 1e3);
        counter_add!("train/epochs", 1);
        counter_add!("train/batches", batches as u64);
        observe!("train/epoch_loss", f64::from(mean_loss));
        observe!("train/grad_norm", last_grad_norm);
    }
    let eval_accuracy = evaluate(net, eval, config.batch_size);
    observe!("train/eval_accuracy", eval_accuracy);
    TrainReport { epoch_losses, epoch_grad_norms, epoch_ms, eval_accuracy }
}

/// Top-1 accuracy of `net` over a dataset (eval mode).
pub fn evaluate(net: &mut Network, data: &Dataset, batch_size: usize) -> f64 {
    let mut correct_weighted = 0.0;
    let mut total = 0usize;
    for b in 0..data.batch_count(batch_size) {
        let (x, y) = data.batch(b, batch_size);
        let logits = net.forward(&x, false);
        correct_weighted += accuracy(&logits, &y) * y.len() as f64;
        total += y.len();
    }
    if total == 0 {
        0.0
    } else {
        correct_weighted / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet_trains_on_digits() {
        let train_set = Dataset::generate(DatasetKind::Digits, 240, 1);
        let eval_set = Dataset::generate(DatasetKind::Digits, 60, 2);
        let mut net = lenet5(3);
        let cfg = TrainConfig { epochs: 4, ..TrainConfig::default() };
        let report = train(&mut net, &train_set, &eval_set, &cfg);
        assert!(
            report.eval_accuracy > 0.85,
            "LeNet accuracy {} too low (losses {:?})",
            report.eval_accuracy,
            report.epoch_losses
        );
        // Loss must trend downward.
        assert!(report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap());
    }

    #[test]
    fn resnet8_trains_on_shapes() {
        let train_set = Dataset::generate(DatasetKind::Shapes, 300, 11);
        let eval_set = Dataset::generate(DatasetKind::Shapes, 60, 12);
        let mut net = resnet8(10, 5);
        let cfg = TrainConfig { epochs: 5, ..TrainConfig::default() };
        let report = train(&mut net, &train_set, &eval_set, &cfg);
        assert!(
            report.eval_accuracy > 0.7,
            "ResNet-8 accuracy {} too low (losses {:?})",
            report.eval_accuracy,
            report.epoch_losses
        );
    }

    #[test]
    fn saved_weights_restore_batchnorm_running_statistics() {
        // ResNet-8 carries BatchNorm on its stem, main paths and shortcuts.
        let train_set = Dataset::generate(DatasetKind::Shapes, 64, 71);
        let eval_set = Dataset::generate(DatasetKind::Shapes, 16, 72);
        let mut net = resnet8(10, 7);
        let cfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
        train(&mut net, &train_set, &eval_set, &cfg);
        let mut bytes = Vec::new();
        drq_nn::save_weights(&mut net, &mut bytes).unwrap();
        let mut fresh = resnet8(10, 8);
        drq_nn::load_weights(&mut fresh, bytes.as_slice()).unwrap();
        let (x, _) = eval_set.batch(0, 16);
        assert_eq!(net.forward(&x, false).as_slice(), fresh.forward(&x, false).as_slice());
    }

    #[test]
    fn tiny_convnet_shapes_are_consistent() {
        let mut net = tiny_convnet(10, 1);
        let x = drq_tensor::Tensor::zeros(&[2, 3, 32, 32]);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn default_standins_match_dataset_shapes() {
        for kind in [DatasetKind::Digits, DatasetKind::Shapes, DatasetKind::Textures] {
            let ds = Dataset::generate(kind, 4, 1);
            let mut net = default_standin(kind, 9);
            let (x, _) = ds.batch(0, 4);
            let y = net.forward(&x, false);
            assert_eq!(y.shape()[1], kind.classes(), "{kind:?}");
        }
    }

    #[test]
    fn train_report_carries_grad_norms_timing_and_schema() {
        let train_set = Dataset::generate(DatasetKind::Digits, 60, 41);
        let eval_set = Dataset::generate(DatasetKind::Digits, 20, 42);
        let mut net = lenet5(13);
        let cfg = TrainConfig { epochs: 2, ..TrainConfig::default() };
        let report = train(&mut net, &train_set, &eval_set, &cfg);
        assert_eq!(report.epoch_grad_norms.len(), 2);
        assert_eq!(report.epoch_ms.len(), 2);
        assert!(report.epoch_grad_norms.iter().all(|&g| g.is_finite() && g > 0.0));
        assert!(report.epoch_ms.iter().all(|&m| m >= 0.0));

        let json = report.to_report().to_json_string();
        assert!(json.starts_with(r#"{"schema":"drq-metrics","schema_version":1,"kind":"train""#));
        assert!(json.contains(r#""epoch_grad_norms":["#));
        let parsedless_epochs = report.to_report();
        assert_eq!(parsedless_epochs.get("epochs").and_then(|j| j.as_u64()), Some(2));
    }

    #[test]
    fn evaluate_on_untrained_net_is_near_chance() {
        let ds = Dataset::generate(DatasetKind::Digits, 100, 21);
        let mut net = lenet5(77);
        let acc = evaluate(&mut net, &ds, 20);
        assert!(acc < 0.5, "untrained accuracy suspiciously high: {acc}");
    }
}
