//! `dse-resnet18`: Pareto search over `CandidateSpace::paper_grid()` with
//! `SimSpaceEval` on resnet18/cifar, checkpointed through `ArtifactStore`.
//!
//! Each timed search commits a checkpoint every [`CHECKPOINT_EVERY`]
//! evaluations and ends with `resume_from` of the final checkpoint. All
//! the work is in sim, dse and store, with durable writes next to the
//! reads; none is in the conv path.

use crate::stats::{median, windowed_rate, Timing, RATE_WINDOWS};
use crate::trace::{layer_totals, unattributed_pct, SpanId, Tracer};
use crate::{fnv1a, golden, Ctx, Outcome};
use drq::dse::{
    Candidate, CandidateBox, CandidateEval, CandidateSpace, Objectives, ParetoSearch, SearchStatus,
    SimSpaceEval,
};
use drq::models::zoo::{self, InputRes};
use drq::models::NetworkTopology;
use drq::sim::Partitions;
use drq::store::ArtifactStore;
use drq::telemetry::Json;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Candidates per parallel leaf.
const LEAF_BATCH: usize = 4;
/// Evaluations between durable checkpoints. An interval's cost depends on
/// which candidates it holds; eight per interval rather than four average
/// that, and the interval tail steadies.
const CHECKPOINT_EVERY: u64 = 8;
/// Simulator seed: part of the evaluator, not of the seeded inputs (the
/// run seed drives the search's traversal order).
const SIM_SEED: u64 = 42;
const SETUP_REPEATS: usize = 11;
/// Seconds per search on a 2-CPU host when the benchmark was built: the
/// search count is `--seconds` over this, so the checkpoint-interval count
/// (and its tail percentile) does not depend on the host's speed that day.
const NOMINAL_SEARCH_S: f64 = 5.0;

/// Most threads seen inside a traced leaf evaluation.
static THREADS_MAX: AtomicU64 = AtomicU64::new(0);

/// `SimSpaceEval` with a span around every evaluation.
/// It also samples the thread count, as the parallel leaf workers exist
/// only inside a leaf evaluation.
struct TracedEval<'a, 'n> {
    inner: &'a SimSpaceEval<'n>,
    tracer: &'a Tracer,
    parent: SpanId,
    threads_max: &'a AtomicU64,
}

impl CandidateEval for TracedEval<'_, '_> {
    fn evaluate(&self, c: &Candidate) -> Result<Objectives, String> {
        self.threads_max
            .fetch_max(crate::host::threads_now(), Ordering::Relaxed);
        self.tracer
            .span("sim.evaluate", self.parent, c.index as u64, |_| {
                self.inner.evaluate(c)
            })
    }

    fn optimistic_bound(&self, space: &CandidateSpace, bx: &CandidateBox) -> Option<Objectives> {
        self.inner.optimistic_bound(space, bx)
    }
}

struct Search {
    wall_s: f64,
    evaluated: u64,
    region_pruned: u64,
    interval_ms: Vec<f64>,
    /// Candidates evaluated in each checkpoint interval.
    interval_evals: Vec<f64>,
    commit_ms: Vec<f64>,
    bytes: u64,
    load_ms: f64,
}

/// The `front` member of a checkpoint payload: the part of the artifact
/// the search seed cannot change.
fn front_json(payload: &str) -> Result<Json, String> {
    let json = Json::parse(payload.trim_end()).map_err(|e| format!("payload is not JSON: {e}"))?;
    json.get("front")
        .cloned()
        .ok_or_else(|| "payload has no front".to_string())
}

#[allow(clippy::too_many_arguments)]
fn search_once(
    net: &NetworkTopology,
    eval: &SimSpaceEval<'_>,
    store: &ArtifactStore,
    path: &str,
    seed: u64,
    tracer: &Tracer,
    request: u64,
    out: &mut Outcome,
) -> Search {
    let meta = Json::obj([
        ("network", Json::str(net.name.as_str())),
        ("res", Json::str("cifar")),
    ]);
    let mut search = ParetoSearch::new(CandidateSpace::paper_grid(), seed, LEAF_BATCH).meta(meta);
    let root = tracer.begin("bench.unit", SpanId::NONE, request);
    let (mut interval_ms, mut interval_evals) = (Vec::new(), Vec::new());
    let (mut commit_ms, mut bytes) = (Vec::new(), 0u64);
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let evaluated_before = search.evaluated();
        let run = tracer.begin("dse.run", root, request);
        let traced = TracedEval {
            inner: eval,
            tracer,
            parent: run,
            threads_max: &THREADS_MAX,
        };
        let status = if tracer.enabled() {
            search.run(&traced, Some(CHECKPOINT_EVERY))
        } else {
            search.run(eval, Some(CHECKPOINT_EVERY))
        };
        tracer.end(run);
        let t1 = Instant::now();
        let committed = tracer.span("store.commit", root, request, |_| {
            search.checkpoint_to(store, path)
        });
        commit_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        interval_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        interval_evals.push((search.evaluated() - evaluated_before) as f64);
        if tracer.enabled() {
            bytes += search.to_report().to_json_string().len() as u64 + 1;
        }
        out.attempted += 1;
        let status = match (status, committed) {
            (Ok(s), Ok(_)) => s,
            (Err(e), _) => {
                out.failures.push(format!("search {request}: {e}"));
                break;
            }
            (_, Err(e)) => {
                out.failures
                    .push(format!("search {request}: checkpoint failed: {e}"));
                break;
            }
        };
        if status == SearchStatus::Complete {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Read the durable artifact back twice: the raw payload (what
    // `drq store --cat` prints) and a resumed search. Both must equal the
    // live search's state, and the front must equal the golden.
    let t = Instant::now();
    let resumed = tracer.span("store.load", root, request, |_| {
        ParetoSearch::resume_from(store, path)
    });
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.end(root);
    let live = format!("{}\n", search.to_report().to_json_string());
    out.attempted += 1;
    match (resumed, store.load(path)) {
        (Ok(r), Ok(loaded)) => {
            out.check(r.salvaged.is_none(), || {
                format!("search {request}: checkpoint was salvaged")
            });
            if r.salvaged.is_some() {
                out.layers
                    .entry("store.salvaged".into())
                    .and_modify(|v| *v += 1.0)
                    .or_insert(1.0);
            }
            let resumed_payload = format!("{}\n", r.search.to_report().to_json_string());
            out.check(loaded.payload == live.as_bytes(), || {
                format!("search {request}: stored payload differs from the live search")
            });
            out.check(resumed_payload == live, || {
                format!("search {request}: resume_from re-serializes differently")
            });
            out.check(search.is_complete(), || {
                format!("search {request} did not converge")
            });
            match front_json(&live) {
                Ok(front) => {
                    let actual = Json::obj([
                        ("front_size", Json::U64(search.front().len() as u64)),
                        (
                            "front_fnv",
                            Json::str(format!("{:016x}", fnv1a(front.to_string().into_bytes()))),
                        ),
                        ("space_fingerprint", Json::U64(search.space().fingerprint())),
                    ]);
                    if let Err(e) = golden::check("dse-resnet18", actual) {
                        out.failures.push(format!("search {request}: {e}"));
                    }
                }
                Err(e) => out.failures.push(format!("search {request}: {e}")),
            }
        }
        (Err(e), _) => out
            .failures
            .push(format!("search {request}: resume_from failed: {e}")),
        (_, Err(e)) => out
            .failures
            .push(format!("search {request}: load failed: {e}")),
    }
    Search {
        wall_s,
        evaluated: search.evaluated(),
        region_pruned: search.region_pruned(),
        interval_ms,
        interval_evals,
        commit_ms,
        bytes,
        load_ms,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let tracer = &ctx.tracer;
    let dir = PathBuf::from(".bench_work").join(format!("dse-{}", std::process::id()));
    let path = dir.join("pareto.json").to_string_lossy().into_owned();

    // Set-up: the topology, the shared simulator session warmed by one
    // evaluation, and a clean store directory. Repeated; `setup_s` is the
    // median.
    let mut times = Vec::new();
    let mut net = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            out.failures
                .push(format!("creating {}: {e}", dir.display()));
        }
        let topology = zoo::resnet18(InputRes::Cifar);
        // One evaluation warms the shared session, as serve's set-up warms
        // its plan cache; its result is checked like any other.
        let warm = SimSpaceEval::new(&topology, Partitions::default(), SIM_SEED)
            .evaluate(&CandidateSpace::paper_grid().candidate(0));
        out.check(warm.is_ok(), || "set-up evaluation failed".into());
        times.push(t0.elapsed().as_secs_f64());
        net = Some(topology);
    }
    let net = net.expect("at least one set-up repetition");
    let eval = SimSpaceEval::new(&net, Partitions::default(), SIM_SEED);
    let store = ArtifactStore::fs();
    let setup_s = median(&times);
    out.e2e.insert("setup_s", setup_s);
    out.named("setup_s", setup_s, "s");

    let mut searches = Vec::new();
    let (mut traced_rate, mut untraced_rate) = (Vec::new(), Vec::new());
    let count = (ctx.budget.as_secs_f64() / NOMINAL_SEARCH_S)
        .round()
        .max(1.0) as u64;
    for k in 0..count {
        // In the traced run every other search is untraced, for the overhead.
        let traced = tracer.enabled() && k % 2 == 1;
        let quiet = Tracer::new(false);
        let t = if traced || !tracer.enabled() {
            tracer
        } else {
            &quiet
        };
        let s = search_once(
            &net,
            &eval,
            &store,
            &path,
            ctx.seed_for("search", k),
            t,
            k,
            &mut out,
        );
        let rate = s.evaluated as f64 / s.wall_s;
        if traced {
            traced_rate.push(rate)
        } else {
            untraced_rate.push(rate)
        }
        searches.push(s);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let evaluated: u64 = searches.iter().map(|s| s.evaluated).sum();
    let wall: f64 = searches.iter().map(|s| s.wall_s).sum();
    let intervals: Vec<f64> = searches
        .iter()
        .flat_map(|s| s.interval_ms.iter().copied())
        .collect();
    out.named("candidates_per_s", evaluated as f64 / wall, "1/s");
    out.named("searches", searches.len() as f64, "count");
    if tracer.enabled() {
        // Per-layer values from the traced searches only.
        let traced: Vec<&Search> = searches.iter().skip(1).step_by(2).collect();
        if !untraced_rate.is_empty() && !traced_rate.is_empty() {
            out.layer(
                "trace_overhead_pct",
                100.0 * (median(&untraced_rate) / median(&traced_rate) - 1.0),
            );
        }
        layer_metrics(tracer, &traced, &mut out);
    } else {
        let t = Timing::of(&intervals);
        // Rate windows of consecutive checkpoint intervals, so one stall of
        // the host does not swing the rate.
        let units: Vec<f64> = searches
            .iter()
            .flat_map(|s| s.interval_evals.iter().copied())
            .collect();
        let secs: Vec<f64> = intervals.iter().map(|ms| ms / 1e3).collect();
        out.e2e
            .insert("work_per_s", windowed_rate(&units, &secs, RATE_WINDOWS));
        out.e2e.insert("op_ms_p50", t.p50);
        out.e2e.insert("op_ms_tail", t.tail);
        out.named("checkpoint_interval_ms_p50", t.p50, "ms");
        out.named("checkpoint_interval_ms_tail", t.tail, "ms");
        out.named("checkpoint_interval_tail_percentile", t.tail_pct, "pct");
        out.named("checkpoint_intervals", t.n as f64, "count");
    }
    out
}

fn layer_metrics(tracer: &Tracer, traced: &[&Search], out: &mut Outcome) {
    let spans = tracer.spans();
    let totals = layer_totals(&spans);
    let n = traced.len().max(1) as f64;
    let evals: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "sim.evaluate")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let t = Timing::of(&evals);
    out.layer("sim.evaluate_ms_p50", t.p50);
    out.layer("sim.evaluate_ms_tail", t.tail);
    out.layer("sim.evaluate_calls", evals.len() as f64 / n);
    let run = totals.get("dse.run").copied().unwrap_or_default();
    out.layer("dse.search.self_ms", run.self_ms / n);
    let space = CandidateSpace::paper_grid().len() as f64;
    let pruned: f64 = traced.iter().map(|s| s.region_pruned as f64).sum::<f64>() / n;
    out.layer("dse.search.pruned_share", pruned / space);
    let threads = drq::tensor::parallel::max_threads() as f64;
    let eval_busy = totals.get("sim.evaluate").map_or(0.0, |t| t.busy_ms);
    out.layer(
        "dse.parallel.busy_share",
        eval_busy / (run.busy_ms * threads).max(f64::MIN_POSITIVE),
    );
    let commits: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.commit_ms.iter().copied())
        .collect();
    let c = Timing::of(&commits);
    out.layer("store.commit_ms_p50", c.p50);
    out.layer("store.commit_ms_tail", c.tail);
    out.layer("store.commits", commits.len() as f64 / n);
    out.layer(
        "store.bytes_committed",
        traced.iter().map(|s| s.bytes as f64).sum::<f64>() / n,
    );
    let loads: Vec<f64> = traced.iter().map(|s| s.load_ms).collect();
    out.layer("store.load_ms", median(&loads));
    out.layers.entry("store.salvaged".into()).or_insert(0.0);
    out.layer(
        "process.threads_max",
        THREADS_MAX.load(Ordering::Relaxed) as f64,
    );
    out.layer("trace.unattributed_pct", unattributed_pct(&spans));
}
