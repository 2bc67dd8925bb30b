//! `tune-resnet8`: calibration and DRQ fine-tuning.
//!
//! A fixed number of timed episodes (sized from `--seconds`). Each starts from the trained stand-in, runs
//! `calibrate_thresholds` on a seeded calibration batch, a fixed number
//! of `finetune_step` calls on seeded batches, then DRQ evaluation on a
//! seeded set. It uses the conv path differently from inference: threshold
//! sweeps, and forward passes that feed backward and `Sgd`.

use crate::model::{self, drq_config};
use crate::stats::{median, windowed_rate, Timing};
use crate::trace::{layer_totals, unattributed_pct, SpanId, Tracer};
use crate::{golden, Ctx, Outcome};
use drq::core::{calibrate_thresholds, finetune_step, DrqNetwork, DrqRunStats, RegionSize};
use drq::models::{Dataset, DatasetKind};
use drq::nn::{Network, Sgd};
use drq::telemetry::Json;
use std::time::Instant;

const CALIB_IMAGES: usize = 8;
/// Sensitive-region fraction calibration aims for (the CLI's default).
const CALIB_TARGET: f64 = 0.1;
/// Steps per episode. Many short episodes rather than a few long ones: a
/// step's cost depends on the episode's data, and more episodes average it.
pub const STEPS: usize = 4;
const STEP_BATCH: usize = 2;
const EVAL_IMAGES: usize = 8;
/// Fine-tuning optimizer, pinned by the benchmark.
const LR: f32 = 0.01;
const MOMENTUM: f32 = 0.9;
/// Seconds per episode on a 2-CPU host when the benchmark was built: the
/// episode count is `--seconds` over this, fixed so the step count (and
/// the tail percentile) does not depend on the host's speed that day.
const NOMINAL_EPISODE_S: f64 = 1.0;
/// Seed-independent canary episode pinned by the golden.
const CANARY_SEED: u64 = 0xC0FFEE;

struct Episode {
    wall_s: f64,
    thresholds: Vec<f32>,
    losses: Vec<f32>,
    accuracy: f64,
    stats: DrqRunStats,
    calibrate_ms: f64,
    step_ms: Vec<f64>,
    /// Untraced library-step times and the replayed steps' statistics,
    /// traced runs only.
    library_step_ms: Vec<f64>,
    step_stats: Vec<DrqRunStats>,
}

/// Inputs of one episode, all drawn from `seed`.
struct EpisodeData {
    calib: Dataset,
    train: Dataset,
    eval: Dataset,
}

impl EpisodeData {
    fn generate(seed: u64) -> Self {
        let kind = DatasetKind::Shapes;
        Self {
            calib: Dataset::generate(kind, CALIB_IMAGES, seed ^ 1),
            train: Dataset::generate(kind, STEPS * STEP_BATCH, seed ^ 2),
            eval: Dataset::generate(kind, EVAL_IMAGES, seed ^ 3),
        }
    }
}

fn episode(
    base: &Network,
    data: &EpisodeData,
    tracer: &Tracer,
    request: u64,
    out: &mut Outcome,
) -> Episode {
    let started = Instant::now();
    let root = tracer.begin("bench.unit", SpanId::NONE, request);
    let mut net = base.clone();
    let config = drq_config();

    let t0 = Instant::now();
    let schedule = tracer.span("core.calibration", root, request, |_| {
        calibrate_thresholds(
            &mut net,
            data.calib.images(),
            RegionSize::new(4, 4),
            CALIB_TARGET,
        )
    });
    let calibrate_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut opt = Sgd::new(LR).momentum(MOMENTUM);
    let (mut losses, mut step_ms, mut library_step_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut step_stats = Vec::new();
    for b in 0..STEPS {
        let (x, y) = data.train.batch(b, STEP_BATCH);
        out.attempted += 1;
        if tracer.enabled() {
            // The library step runs untraced on copies; the replay, traced,
            // must land on the bit-identical network, optimizer and loss.
            let (mut lib_net, mut lib_opt) = (net.clone(), opt.clone());
            let (lib_loss, lib_stats, lib_ms) =
                tracer.span("bench.reference", root, request, |_| {
                    let t = Instant::now();
                    let (l, s) = finetune_step(&mut lib_net, &config, &x, &y, &mut lib_opt);
                    (l, s, t.elapsed().as_secs_f64() * 1e3)
                });
            library_step_ms.push(lib_ms);
            let t = Instant::now();
            let (loss, stats) = model::replay_finetune_step(
                &mut net, config, &x, &y, &mut opt, tracer, root, request,
            );
            step_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            out.check(
                loss.to_bits() == lib_loss.to_bits()
                    && stats == lib_stats
                    && net == lib_net
                    && opt == lib_opt,
                || format!("traced replay of finetune_step differs (episode {request}, step {b})"),
            );
            losses.push(loss);
            step_stats.push(stats);
        } else {
            let t = Instant::now();
            let (loss, _) = finetune_step(&mut net, &config, &x, &y, &mut opt);
            step_ms.push(t.elapsed().as_secs_f64() * 1e3);
            losses.push(loss);
        }
        out.check(losses.last().is_some_and(|l| l.is_finite()), || {
            format!("non-finite fine-tuning loss (episode {request}, step {b})")
        });
    }

    let (logits, stats) = tracer.span("bench.eval", root, request, |_| {
        DrqNetwork::new(net.clone(), config).forward(data.eval.images())
    });
    let accuracy = drq::nn::accuracy(&logits, data.eval.labels());
    tracer.end(root);
    Episode {
        wall_s: started.elapsed().as_secs_f64(),
        thresholds: schedule.thresholds().to_vec(),
        losses,
        accuracy,
        stats,
        calibrate_ms,
        step_ms,
        library_step_ms,
        step_stats,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let tracer = &ctx.tracer;
    let trained = model::setup(tracer, &mut out);

    let count = (ctx.budget.as_secs_f64() / NOMINAL_EPISODE_S)
        .round()
        .max(1.0) as u64;
    let start = Instant::now();
    let episodes: Vec<Episode> = (0..count)
        .map(|k| {
            let data = EpisodeData::generate(ctx.seed_for("episode", k));
            episode(&trained.net, &data, tracer, k, &mut out)
        })
        .collect();
    let wall_s = start.elapsed().as_secs_f64();

    // Canary episode: seed-independent losses, thresholds and accuracy
    // pinned by the golden (outside the timed phase, never traced).
    let quiet = Tracer::new(false);
    let canary = episode(
        &trained.net,
        &EpisodeData::generate(CANARY_SEED),
        &quiet,
        0,
        &mut out,
    );
    out.attempted += 1;
    let actual = Json::obj([
        (
            "thresholds",
            Json::arr(canary.thresholds.iter().map(|&t| Json::F64(f64::from(t)))),
        ),
        (
            "loss_bits",
            Json::arr(
                canary
                    .losses
                    .iter()
                    .map(|l| Json::str(format!("{:08x}", l.to_bits()))),
            ),
        ),
        ("accuracy", Json::F64(canary.accuracy)),
    ]);
    if let Err(e) = golden::check("tune-resnet8", actual) {
        out.failures.push(e);
    }

    let steps = (episodes.len() * STEPS) as f64;
    let step_ms: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.step_ms.iter().copied())
        .collect();
    let calibrate_ms: Vec<f64> = episodes.iter().map(|e| e.calibrate_ms).collect();
    let accuracy_pct =
        100.0 * episodes.iter().map(|e| e.accuracy).sum::<f64>() / episodes.len() as f64;
    let mut merged = DrqRunStats::default();
    for e in &episodes {
        merged.merge(&e.stats);
    }
    out.named("steps_per_s", steps / wall_s, "1/s");
    out.named("calibrate_s", median(&calibrate_ms) / 1e3, "s");
    out.named("accuracy_pct", accuracy_pct, "%");
    out.named("int4_share_pct", 100.0 * merged.int4_fraction(), "%");
    out.named("episodes", episodes.len() as f64, "count");
    if tracer.enabled() {
        let lib: Vec<f64> = episodes
            .iter()
            .flat_map(|e| e.library_step_ms.iter().copied())
            .collect();
        out.layer(
            "trace_overhead_pct",
            100.0 * (median(&step_ms) / median(&lib) - 1.0),
        );
        layer_metrics(tracer, &episodes, &mut out);
    } else {
        let t = Timing::of(&step_ms);
        // Each episode is one window: steps over its whole wall time, so
        // calibration and evaluation count against the rate too.
        let units = vec![STEPS as f64; episodes.len()];
        let secs: Vec<f64> = episodes.iter().map(|e| e.wall_s).collect();
        out.e2e
            .insert("work_per_s", windowed_rate(&units, &secs, units.len()));
        out.e2e.insert("op_ms_p50", t.p50);
        out.e2e.insert("op_ms_tail", t.tail);
        out.named("step_ms_p50", t.p50, "ms");
        out.named("step_ms_tail", t.tail, "ms");
        out.named("step_ms_tail_percentile", t.tail_pct, "pct");
        out.named("steps", t.n as f64, "count");
    }
    out
}

/// Per-step phase times (and per-episode calibration time) from the spans.
fn layer_metrics(tracer: &Tracer, episodes: &[Episode], out: &mut Outcome) {
    // Forward-replay spans and statistics come from the fine-tuning steps
    // only (evaluation runs the library call): report them per step.
    let stats: Vec<DrqRunStats> = episodes
        .iter()
        .flat_map(|e| e.step_stats.iter().cloned())
        .collect();
    model::conv_layer_metrics(tracer, &stats, stats.len(), out);
    let steps = (episodes.len() * STEPS).max(1) as f64;
    let totals = layer_totals(&tracer.spans());
    let per_step = |name: &str| totals.get(name).map_or(0.0, |t| t.busy_ms / steps);
    out.layer(
        "core.finetune.net_clone_ms",
        per_step("core.finetune.net_clone"),
    );
    out.layer(
        "core.finetune.drq_forward_ms",
        per_step("core.finetune.drq_forward"),
    );
    out.layer("core.finetune.loss_ms", per_step("core.finetune.loss"));
    out.layer("nn.train_forward_ms", per_step("nn.train_forward"));
    out.layer("nn.backward_ms", per_step("nn.backward"));
    out.layer("nn.sgd_step_ms", per_step("nn.sgd_step"));
    let episodes_n = episodes.len().max(1) as f64;
    out.layer(
        "core.calibration.busy_ms",
        totals
            .get("core.calibration")
            .map_or(0.0, |t| t.busy_ms / episodes_n),
    );
    out.layer("trace.unattributed_pct", unattributed_pct(&tracer.spans()));
}
