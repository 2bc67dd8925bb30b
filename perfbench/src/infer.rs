//! `infer-resnet8`: offline DRQ inference.
//!
//! Set-up trains the ResNet-8 stand-in in process; the timed phase runs
//! `DrqNetwork::evaluate` over a seeded held-out set in fixed-size
//! batches, cycling over the set for a fixed number of batches. Nearly all the
//! work is in `core.predictor`, `core.mixed_conv` and `nn`; none is in
//! serve, sim, dse or store.

use crate::model::{self, drq_config, tensor_digest};
use crate::stats::{windowed_rate, Timing, RATE_WINDOWS};
use crate::trace::{unattributed_pct, SpanId};
use crate::{golden, Ctx, Outcome};
use drq::core::{DrqNetwork, DrqRunStats};
use drq::models::{Dataset, DatasetKind};
use drq::telemetry::Json;
use std::time::Instant;

/// Held-out images per run and the fixed batch size.
pub const HOLDOUT: usize = 48;
pub const BATCH: usize = 2;
/// Batches per second of `--seconds` (the speed of a 2-CPU host when the
/// benchmark was built). The count is fixed, not the time, so the tail
/// is always read at the same percentile (p75 at 10 s).
const NOMINAL_BATCHES_PER_S: f64 = 9.0;
/// Seed-independent canary batch pinned by the golden.
const CANARY_SEED: u64 = 0xC0FFEE;
const CANARY_IMAGES: usize = 4;
/// Accuracy below this on a seeded held-out set means the model or the
/// DRQ path is broken (chance is 10 %).
const ACCURACY_FLOOR_PCT: f64 = 40.0;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let tracer = &ctx.tracer;
    let mut trained = model::setup(tracer, &mut out);
    let holdout = Dataset::generate(DatasetKind::Shapes, HOLDOUT, ctx.seed_for("holdout", 0));
    let batches: Vec<_> = (0..holdout.batch_count(BATCH))
        .map(|b| holdout.batch(b, BATCH))
        .collect();
    let mut drq = DrqNetwork::new(trained.net.clone(), drq_config());

    // Warm-up outside the timed phase; it also fixes the per-image MAC
    // count every later batch must reproduce exactly.
    let (_, warm) = drq.evaluate(&batches[0].0, &batches[0].1);
    let macs_per_image = warm.totals().total() / BATCH as u64;

    let mut first_pass: Vec<Option<(f64, DrqRunStats)>> = vec![None; batches.len()];
    let mut batch_ms = Vec::new();
    let (mut library_ms, mut replay_ms, mut fp32_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_stats = Vec::new();
    let mut images = 0usize;
    let total =
        ((ctx.budget.as_secs_f64() * NOMINAL_BATCHES_PER_S).round() as usize).max(batches.len());
    let start = Instant::now();
    for i in 0..total {
        let (x, y) = &batches[i % batches.len()];
        out.attempted += 1;
        let (acc, stats) = if tracer.enabled() {
            let root = tracer.begin("bench.unit", SpanId::NONE, i as u64);
            // The library call is timed untraced; its replay is traced.
            let (library, lib_ms) = tracer.span("bench.reference", root, i as u64, |_| {
                let t0 = Instant::now();
                let lib = drq.forward(x);
                (lib, t0.elapsed().as_secs_f64() * 1e3)
            });
            let t1 = Instant::now();
            let replayed =
                model::replay_forward(drq.network_mut(), drq_config(), x, tracer, root, i as u64);
            replay_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            library_ms.push(lib_ms);
            out.attempted += 1;
            out.check(
                model::bitwise_eq(&library.0, &replayed.0) && library.1 == replayed.1,
                || format!("traced replay of DrqNetwork::forward differs on batch {i}"),
            );
            tracer.end(root);
            // The FP32 floor is a reference, not part of the op.
            let t2 = Instant::now();
            tracer.span("nn.fp32_forward", SpanId::NONE, i as u64, |_| {
                let _ = drq.network_mut().forward(x, false);
            });
            fp32_ms.push(t2.elapsed().as_secs_f64() * 1e3);
            traced_stats.push(library.1.clone());
            (drq::nn::accuracy(&library.0, y), library.1)
        } else {
            let t0 = Instant::now();
            let r = drq.evaluate(x, y);
            batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            r
        };
        images += y.len();
        let n = y.len() as u64;
        out.check(stats.totals().total() == macs_per_image * n, || {
            format!(
                "batch {i}: {} MACs, expected {}",
                stats.totals().total(),
                macs_per_image * n
            )
        });
        match &first_pass[i % batches.len()] {
            None => first_pass[i % batches.len()] = Some((acc, stats)),
            Some(first) => out.check(first.0 == acc && first.1 == stats, || {
                format!(
                    "batch {} changed between passes over the held-out set",
                    i % batches.len()
                )
            }),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Accuracy and INT4 share over one pass of the held-out set.
    let mut correct = 0.0;
    let mut merged = DrqRunStats::default();
    for ((_, y), first) in batches.iter().zip(&first_pass) {
        let (acc, stats) = first.as_ref().expect("one full pass ran");
        correct += acc * y.len() as f64;
        merged.merge(stats);
    }
    let accuracy_pct = 100.0 * correct / HOLDOUT as f64;
    let int4_pct = 100.0 * merged.int4_fraction();
    out.attempted += 1;
    out.check(accuracy_pct >= ACCURACY_FLOOR_PCT, || {
        format!("DRQ accuracy {accuracy_pct:.1}% is below the {ACCURACY_FLOOR_PCT}% floor")
    });

    // Canary: seed-independent logits pinned by the golden.
    let canary = Dataset::generate(DatasetKind::Shapes, CANARY_IMAGES, CANARY_SEED);
    let (logits, cstats) = drq.forward(canary.images());
    out.attempted += 1;
    let actual = Json::obj([
        (
            "weights_fnv",
            Json::str(format!("{:016x}", model::weights_digest(&mut trained.net))),
        ),
        (
            "canary_logits_fnv",
            Json::str(format!("{:016x}", tensor_digest(&logits))),
        ),
        ("canary_int4_macs", Json::U64(cstats.totals().int4_macs)),
        ("canary_int8_macs", Json::U64(cstats.totals().int8_macs)),
    ]);
    if let Err(e) = golden::check("infer-resnet8", actual) {
        out.failures.push(e);
    }

    out.named("images_per_s", images as f64 / wall_s, "1/s");
    out.named("accuracy_pct", accuracy_pct, "%");
    out.named("int4_share_pct", int4_pct, "%");
    out.named(
        "fp32_train_accuracy_pct",
        100.0 * trained.fp32_train_accuracy,
        "%",
    );
    if tracer.enabled() {
        let lib = crate::stats::median(&library_ms);
        let rep = crate::stats::median(&replay_ms);
        out.layer("trace_overhead_pct", 100.0 * (rep / lib - 1.0));
        out.layer("nn.fp32_forward_ms", crate::stats::median(&fp32_ms));
        model::conv_layer_metrics(tracer, &traced_stats, traced_stats.len(), &mut out);
        out.layer("trace.unattributed_pct", unattributed_pct(&tracer.spans()));
    } else {
        let t = Timing::of(&batch_ms);
        let units = vec![BATCH as f64; batch_ms.len()];
        let secs: Vec<f64> = batch_ms.iter().map(|ms| ms / 1e3).collect();
        out.e2e
            .insert("work_per_s", windowed_rate(&units, &secs, RATE_WINDOWS));
        out.e2e.insert("op_ms_p50", t.p50);
        out.e2e.insert("op_ms_tail", t.tail);
        out.named("batch_ms_p50", t.p50, "ms");
        out.named("batch_ms_tail", t.tail, "ms");
        out.named("batch_ms_tail_percentile", t.tail_pct, "pct");
        out.named("batches", t.n as f64, "count");
    }
    out
}
