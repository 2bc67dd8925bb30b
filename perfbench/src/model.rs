//! The trained ResNet-8 stand-in shared by `infer-resnet8` and
//! `tune-resnet8`, and the traced replays of `DrqNetwork::forward` and
//! `finetune_step` built from their public parts.
//!
//! The stand-in is trained in process during set-up: weights saved with
//! `save_weights` lose the BatchNorm running statistics, so a reloaded
//! network is not the trained one (see the README's defects section).

use crate::trace::{SpanId, Tracer};
use crate::{fnv1a, Outcome};
use drq::core::{
    DrqConfig, DrqLayerStats, DrqRunStats, MixedPrecisionConv, RegionSize, SensitivityPredictor,
};
use drq::models::{default_standin, train, Dataset, DatasetKind, TrainConfig};
use drq::nn::{CrossEntropyLoss, Network, Sgd};
use drq::tensor::Tensor;
use std::time::Instant;

/// The benchmark's own DRQ operating point: region 4×4 at threshold 2,
/// the stand-ins' accuracy knee. Pinned here so a change of CLI or
/// library defaults does not silently change what is measured.
pub fn drq_config() -> DrqConfig {
    DrqConfig::new(RegionSize::new(4, 4), 2.0)
}

/// Training set size and epochs of the set-up. The model itself is part
/// of the system under test, not of the seeded inputs: it is trained from
/// fixed seeds so its outputs can be pinned by goldens.
pub const TRAIN_SAMPLES: usize = 120;
pub const TRAIN_EPOCHS: usize = 3;
const TRAIN_DATA_SEED: u64 = 1;
const MODEL_SEED: u64 = 3;

/// Set-up repetitions: `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

pub struct Trained {
    pub net: Network,
    pub fp32_train_accuracy: f64,
}

/// Generates the training data and trains the stand-in once.
fn setup_once(tracer: &Tracer) -> Trained {
    let root = tracer.begin("bench.setup", SpanId::NONE, 0);
    let data = tracer.span("models.dataset.generate", root, 0, |_| {
        Dataset::generate(DatasetKind::Shapes, TRAIN_SAMPLES, TRAIN_DATA_SEED)
    });
    let mut net = default_standin(DatasetKind::Shapes, MODEL_SEED);
    let cfg = TrainConfig {
        epochs: TRAIN_EPOCHS,
        ..TrainConfig::default()
    };
    let report = tracer.span("models.train", root, 0, |_| {
        train(&mut net, &data, &data, &cfg)
    });
    tracer.end(root);
    Trained {
        net,
        fp32_train_accuracy: report.eval_accuracy,
    }
}

/// Runs the set-up [`SETUP_REPEATS`] times, checks every repetition
/// trains the bit-identical network, and reports the median as `setup_s`.
pub fn setup(ctx_tracer: &Tracer, out: &mut Outcome) -> Trained {
    let mut times = Vec::new();
    let mut first: Option<Trained> = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let trained = setup_once(ctx_tracer);
        times.push(t0.elapsed().as_secs_f64());
        match &first {
            None => first = Some(trained),
            Some(f) => {
                out.attempted += 1;
                out.check(f.net == trained.net, || {
                    "set-up trained a different network".into()
                });
            }
        }
    }
    let setup_s = crate::stats::median(&times);
    out.e2e.insert("setup_s", setup_s);
    out.named("setup_s", setup_s, "s");
    if ctx_tracer.enabled() {
        let spans = ctx_tracer.spans();
        let busy = |name: &str| -> f64 {
            let v: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e6)
                .collect();
            crate::stats::median(&v)
        };
        out.layer("models.train.busy_ms", busy("models.train"));
        out.layer(
            "models.dataset.generate_ms",
            busy("models.dataset.generate"),
        );
    }
    first.expect("at least one set-up repetition")
}

/// Digest of a tensor's exact bits.
pub fn tensor_digest(t: &Tensor<f32>) -> u64 {
    fnv1a(t.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Digest of every parameter bit of a network.
pub fn weights_digest(net: &mut Network) -> u64 {
    let mut bytes = Vec::new();
    net.visit_params(&mut |p, _| {
        for v in p.as_slice() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    });
    fnv1a(bytes)
}

/// `DrqNetwork::forward` replayed through `Network::forward_conv_override`
/// with the same predictor and mixed-precision conv closure, with spans
/// around the predictor and each convolution. Returns what the library
/// call returns; callers assert the two are bitwise equal.
pub fn replay_forward(
    net: &mut Network,
    config: DrqConfig,
    x: &Tensor<f32>,
    tracer: &Tracer,
    parent: SpanId,
    request: u64,
) -> (Tensor<f32>, DrqRunStats) {
    let total_convs = net.conv_count().max(1);
    let mut stats = DrqRunStats::default();
    let fwd = tracer.begin("nn.forward", parent, request);
    let out = net.forward_conv_override(x, &mut |idx, conv, input| {
        let s = input.shape4().expect("conv input rank");
        let depth = idx as f64 / total_convs as f64;
        let layer_cfg = config.for_layer(s.h, s.w, depth);
        let (masks, sensitive_fraction, mask_storage_bits) =
            tracer.span("core.predictor", fwd, request, |_| {
                let predictor = SensitivityPredictor::new(layer_cfg.region, layer_cfg.threshold);
                let masks: Vec<_> = (0..s.n)
                    .map(|n| predictor.predict_image(input, n))
                    .collect();
                let mut acc = 0.0;
                let mut cnt = 0usize;
                for per_image in &masks {
                    for m in per_image {
                        acc += m.sensitive_fraction();
                        cnt += 1;
                    }
                }
                let frac = if cnt == 0 { 0.0 } else { acc / cnt as f64 };
                let bits = masks
                    .first()
                    .map(|ms| ms.iter().map(|m| m.storage_bits()).sum())
                    .unwrap_or(0);
                (masks, frac, bits)
            });
        let name = format!("core.mixed_conv.conv{idx}");
        let (y, counts) = tracer.span(&name, fwd, request, |_| {
            MixedPrecisionConv::forward(conv, input, &masks)
        });
        stats.layers.push(DrqLayerStats {
            conv_index: idx,
            input_shape: input.shape().to_vec(),
            counts,
            sensitive_fraction,
            threshold: layer_cfg.threshold,
            region: (layer_cfg.region.x, layer_cfg.region.y),
            mask_storage_bits,
        });
        y
    });
    tracer.end(fwd);
    (out, stats)
}

/// Whether two tensors are equal bit for bit.
pub fn bitwise_eq(a: &Tensor<f32>, b: &Tensor<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `finetune_step` replayed from its public parts — clone, DRQ forward,
/// loss, FP32 training forward, backward, SGD step — with a span per phase.
#[allow(clippy::too_many_arguments)]
pub fn replay_finetune_step(
    net: &mut Network,
    config: DrqConfig,
    x: &Tensor<f32>,
    targets: &[usize],
    opt: &mut Sgd,
    tracer: &Tracer,
    parent: SpanId,
    request: u64,
) -> (f32, DrqRunStats) {
    let mut clone = tracer.span("core.finetune.net_clone", parent, request, |_| net.clone());
    let (q_logits, stats) = tracer.span("core.finetune.drq_forward", parent, request, |id| {
        replay_forward(&mut clone, config, x, tracer, id, request)
    });
    let (loss, grad) = tracer.span("core.finetune.loss", parent, request, |_| {
        CrossEntropyLoss::evaluate(&q_logits, targets)
    });
    tracer.span("nn.train_forward", parent, request, |_| {
        let _ = net.forward(x, true);
    });
    tracer.span("nn.backward", parent, request, |_| {
        let _ = net.backward(&grad);
    });
    tracer.span("nn.sgd_step", parent, request, |_| opt.step(net));
    (loss, stats)
}

/// Per-layer busy times and counts from forward-replay spans and their
/// statistics, per op: `ops` is how many ops (batches, steps) they cover.
pub fn conv_layer_metrics(tracer: &Tracer, stats: &[DrqRunStats], ops: usize, out: &mut Outcome) {
    let ops = ops.max(1) as f64;
    let totals = crate::trace::layer_totals(&tracer.spans());
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    out.layer(
        "core.predictor.busy_ms",
        get("core.predictor").busy_ms / ops,
    );
    out.layer(
        "core.predictor.calls",
        get("core.predictor").calls as f64 / ops,
    );
    let mut conv_ms = 0.0;
    for i in 0..crate::RESNET8_CONVS {
        let t = get(&format!("core.mixed_conv.conv{i}"));
        out.layer(format!("core.mixed_conv.conv{i}.busy_ms"), t.busy_ms / ops);
        conv_ms += t.busy_ms;
    }
    out.layer("core.mixed_conv.busy_ms", conv_ms / ops);
    out.layer("nn.non_conv.busy_ms", get("nn.forward").self_ms / ops);
    let (mut int4, mut int8, mut sens, mut layers) = (0u64, 0u64, 0.0, 0usize);
    for s in stats {
        let t = s.totals();
        int4 += t.int4_macs;
        int8 += t.int8_macs;
        for l in &s.layers {
            sens += l.sensitive_fraction;
            layers += 1;
        }
    }
    out.layer("core.mixed_conv.macs_int4", int4 as f64 / ops);
    out.layer("core.mixed_conv.macs_int8", int8 as f64 / ops);
    out.layer(
        "core.predictor.sensitive_share",
        if layers == 0 {
            0.0
        } else {
            sens / layers as f64
        },
    );
}
