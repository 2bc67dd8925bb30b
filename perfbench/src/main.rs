//! Fixed-seed benchmark of the DRQ reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload infer-resnet8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run measures one workload for `--seconds` seconds on inputs drawn
//! from `--seed`, checks every output, prints a human-readable report and
//! ends with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A failed check exits non-zero.
//! See `perfbench/README.md` for the workloads and metrics.

mod dse;
mod golden;
mod host;
mod infer;
mod loadgen;
mod model;
mod serve;
mod stats;
mod trace;
mod tune;

use drq::telemetry::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// End-to-end metrics: reported by every workload with `--trace 0`.
/// `work_per_s` and `op_ms_*` are the workload's own unit of work; see
/// the README's table for what each is on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_pct", "%"),
    ("work_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
];

/// Number of convolutions in the ResNet-8 stand-in (one per-conv metric each).
pub const RESNET8_CONVS: usize = 9;

/// Per-layer metrics: reported by every workload with `--trace 1`; a layer
/// a workload does not reach from the outside reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("core.predictor.busy_ms", "ms"),
        ("core.predictor.calls", "count"),
        ("core.predictor.sensitive_share", "share"),
        ("core.mixed_conv.busy_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for i in 0..RESNET8_CONVS {
        v.push((format!("core.mixed_conv.conv{i}.busy_ms"), "ms"));
    }
    v.extend(
        [
            ("core.mixed_conv.macs_int4", "count"),
            ("core.mixed_conv.macs_int8", "count"),
            ("nn.non_conv.busy_ms", "ms"),
            ("nn.fp32_forward_ms", "ms"),
            ("models.train.busy_ms", "ms"),
            ("models.dataset.generate_ms", "ms"),
            ("core.calibration.busy_ms", "ms"),
            ("core.finetune.net_clone_ms", "ms"),
            ("core.finetune.drq_forward_ms", "ms"),
            ("core.finetune.loss_ms", "ms"),
            ("nn.train_forward_ms", "ms"),
            ("nn.backward_ms", "ms"),
            ("nn.sgd_step_ms", "ms"),
            ("serve.service_ms_p50", "ms"),
            ("serve.service_ms_tail", "ms"),
            ("serve.queue_wait_ms_p50", "ms"),
            ("serve.queue.depth_max", "count"),
            ("serve.batcher.groups", "count"),
            ("serve.batcher.mean_group_images", "count"),
            ("serve.batcher.coalesced_share", "share"),
            ("serve.plan_cache.mask_hit_rate", "share"),
            ("serve.plan_cache.model_hit_rate", "share"),
            ("serve.shed.degraded_share", "share"),
            ("serve.engine.rejected", "count"),
            ("serve.engine.deadline_miss", "count"),
            ("serve.client.lateness_ms_max", "ms"),
            ("serve.protocol.parse_us", "us"),
            ("serve.protocol.encode_us", "us"),
            ("sim.evaluate_ms_p50", "ms"),
            ("sim.evaluate_ms_tail", "ms"),
            ("sim.evaluate_calls", "count"),
            ("dse.search.self_ms", "ms"),
            ("dse.search.pruned_share", "share"),
            ("dse.parallel.busy_share", "share"),
            ("store.commit_ms_p50", "ms"),
            ("store.commit_ms_tail", "ms"),
            ("store.commits", "count"),
            ("store.bytes_committed", "bytes"),
            ("store.load_ms", "ms"),
            ("store.salvaged", "count"),
            ("process.cpu_s", "s"),
            ("process.threads_max", "count"),
            ("trace_overhead_pct", "%"),
            ("trace.unattributed_pct", "%"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: &[&str] = &["infer-resnet8", "serve-mix", "dse-resnet18", "tune-resnet8"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Shared run context.
pub struct Ctx {
    pub seed: u64,
    pub budget: Duration,
    pub tracer: Tracer,
}

impl Ctx {
    /// A sub-seed for one named use of the run seed, so every input
    /// stream is a pure function of `--seed` and independent of the others.
    pub fn seed_for(&self, what: &str, index: u64) -> u64 {
        let mut h = self.seed;
        for b in what.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        splitmix64(h ^ index)
    }
}

pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes, for output digests.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Descriptions of failed, refused, lost or wrong outputs.
    pub failures: Vec<String>,
    /// End-to-end metrics (`--trace 0`), by [`END_TO_END`] name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// The workload's metrics under their own names, for the report.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (`--trace 1`), by [`per_layer`] name.
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::F64(value)), ("unit", Json::str(unit))])
}

fn run(args: &Args) -> Outcome {
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        tracer: Tracer::new(args.trace),
    };
    let mut out = match args.workload.as_str() {
        "infer-resnet8" => infer::run(&ctx),
        "serve-mix" => serve::run(&ctx),
        "dse-resnet18" => dse::run(&ctx),
        "tune-resnet8" => tune::run(&ctx),
        other => unreachable!("workload {other} passed validation"),
    };
    out.e2e.insert("peak_rss_mb", host::peak_rss_mb());
    let failed = out.failures.len() as u64;
    let ok_share = 1.0 - failed.min(out.attempted) as f64 / out.attempted.max(1) as f64;
    out.e2e.insert("ok_pct", 100.0 * ok_share);
    out.layer("process.cpu_s", host::cpu_s());
    out.layers
        .entry("process.threads_max".into())
        .and_modify(|t| *t = t.max(host::threads_now() as f64))
        .or_insert(host::threads_now() as f64);
    if ctx.tracer.enabled() {
        let dir = std::path::Path::new(".bench_work");
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, ctx.tracer.to_jsonl()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!(
                "trace: {} spans written to {}",
                ctx.tracer.spans().len(),
                path.display()
            );
        }
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: drq-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    let failed = out.failures.len() as u64;
    let correct = failed == 0;

    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("host {}", host::provenance());
    for (name, value, unit) in &out.named {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    for f in &out.failures {
        println!("  CHECK FAILED: {f}");
        eprintln!("check failed: {f}");
    }
    let metrics: Vec<(String, Json)> = if args.trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = out.layers.get(&name).copied().unwrap_or(0.0);
                (name, metric(v, unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = out.e2e.get(name).copied().unwrap_or(f64::NAN);
                (name.to_string(), metric(v, unit))
            })
            .collect()
    };
    // The full record, provenance included, precedes the summary line so
    // results from different hosts are never compared silently.
    let record = Json::obj([
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::U64(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("host", host::provenance()),
        (
            "named",
            Json::Object(
                out.named
                    .iter()
                    .map(|&(n, v, u)| (n.to_string(), metric(v, u)))
                    .collect(),
            ),
        ),
    ]);
    println!("record {record}");
    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(out.attempted.max(1))),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Object(metrics)),
    ]);
    println!("{summary}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "dse-resnet18",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "dse-resnet18");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "serve-mix", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "serve-mix",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn sub_seeds_are_stable_and_distinct() {
        let ctx = Ctx {
            seed: 5,
            budget: Duration::from_secs(1),
            tracer: Tracer::new(false),
        };
        assert_eq!(ctx.seed_for("holdout", 0), ctx.seed_for("holdout", 0));
        assert_ne!(ctx.seed_for("holdout", 0), ctx.seed_for("holdout", 1));
        assert_ne!(ctx.seed_for("holdout", 0), ctx.seed_for("calib", 0));
    }
}
