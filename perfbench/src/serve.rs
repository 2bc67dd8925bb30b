//! `serve-mix`: open-loop serving over loopback TCP.
//!
//! An in-process `TcpServer` sits in front of a default `ShardRouter`
//! (library `ServeConfig` defaults, except the benchmark's pinned DRQ
//! operating point). The load generator sends seeded Poisson arrivals at
//! a fixed reference rate, then climbs a ladder of fixed rates and stops
//! at the first rate that misses the latency limit. The mix is 3/4 digits
//! and 1/4 shapes requests of batch 1–4; half the sample seeds come from a
//! hot set of 16 and half are never repeated, so the layer-0 mask cache
//! (128 entries, FIFO) sees both reuse and eviction. The traced run takes
//! service time, one request at a time, in process through the same
//! router, so it is the server's work and not the loopback's delayed-ACK
//! stall. Every `ok` reply is byte-checked against the same request's
//! reply from an unloaded reference engine afterwards.

use crate::loadgen::{self, account, climb, drive, poisson_offsets, Arrival, PhaseResult};
use crate::model::drq_config;
use crate::stats::{median, windowed_rate, Timing};
use crate::trace::{SpanId, Tracer};
use crate::{host, Ctx, Outcome};
use drq::models::DatasetKind;
use drq::serve::server::TcpServer;
use drq::serve::{
    parse_request, DrainReport, ExecMode, InferReply, InferRequest, InferenceBackend,
    Outcome as Reply, RequestBody, Response, RouterStats, ServeConfig, ServeEngine, ShardRouter,
    ShedState,
};
use drq::tensor::XorShiftRng;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Offered load of the reference phase, requests per second: about half
/// the saturation throughput measured on a 2-CPU host when the benchmark
/// was built (30–35/s).
pub const REFERENCE_RATE: f64 = 15.0;
/// Phase sizes in mix blocks at `--seconds 15` (scaled with it). Counts
/// are fixed rather than durations, so a phase's tail is always read at
/// the same percentile.
const REFERENCE_BLOCKS: f64 = 6.0;
const SATURATION_BLOCKS: f64 = 16.0;
/// The one-at-a-time phase is not scaled: its tail must be read at p95
/// (224 requests), among the batch-4 shapes requests. At p75 it would sit
/// on the boundary between digits and shapes, as shapes are a quarter of
/// the mix.
const UNLOADED_REQUESTS: usize = 14 * BLOCK;
/// Ladder rates, ascending, and the arrivals per rung (not scaled: at
/// least 20 for the tail rule to read a percentile with 10 beyond it).
pub const LADDER: &[f64] = &[16.0, 24.0, 32.0];
const RUNG_REQUESTS: usize = 2 * BLOCK;
/// Requests the saturation phase keeps in flight: four per worker of the
/// default configuration, far below the depth at which it degrades.
const SATURATION_OUTSTANDING: usize = 8;
const HOT_SEEDS: usize = 16;
const SETUP_REPEATS: usize = 3;
/// How long after a phase's last send its replies may still arrive.
const DRAIN: Duration = Duration::from_secs(5);

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Key {
    digits: bool,
    sample_seed: u64,
    batch: u64,
}

impl Key {
    fn dataset(&self) -> DatasetKind {
        if self.digits {
            DatasetKind::Digits
        } else {
            DatasetKind::Shapes
        }
    }
}

/// Requests per mix block. Every block holds exactly 4 shapes and 12
/// digits requests, each dataset's batches a permutation of 1–4, and 8
/// hot and 8 never-repeated sample seeds, in seeded order. A shapes
/// request costs ~50× a digits one; stratifying keeps a phase's offered
/// work from swinging with how many shapes requests one seed happened to
/// draw.
const BLOCK: usize = 16;

/// Seeded request mix: 3/4 digits and 1/4 shapes, batch 1–4, half the
/// sample seeds from a hot set of 16 and half never repeated.
struct Mix {
    rng: XorShiftRng,
    hot: Vec<u64>,
    unique: u64,
    seed: u64,
    block: Vec<(bool, u64, bool)>,
    keys: HashMap<String, Key>,
}

impl Mix {
    fn new(ctx: &Ctx) -> Self {
        Self {
            rng: XorShiftRng::new(ctx.seed_for("mix", 0)),
            hot: (0..HOT_SEEDS as u64)
                .map(|i| ctx.seed_for("hot", i) >> 16)
                .collect(),
            unique: 0,
            seed: ctx.seed_for("unique", 0),
            block: Vec::new(),
            keys: HashMap::new(),
        }
    }

    fn shuffle<T>(rng: &mut XorShiftRng, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.next_below(i + 1));
        }
    }

    /// Refills the block: (digits, batch, hot) for 16 requests.
    fn refill(&mut self) {
        let mut block: Vec<(bool, u64)> = Vec::with_capacity(BLOCK);
        for digits in [false, true, true, true] {
            let mut batches = [1, 2, 3, 4];
            Self::shuffle(&mut self.rng, &mut batches);
            block.extend(batches.iter().map(|&b| (digits, b)));
        }
        Self::shuffle(&mut self.rng, &mut block);
        let mut hot: Vec<bool> = (0..BLOCK).map(|i| i % 2 == 0).collect();
        Self::shuffle(&mut self.rng, &mut hot);
        self.block = block
            .into_iter()
            .zip(hot)
            .map(|((d, b), h)| (d, b, h))
            .collect();
    }

    fn next(&mut self, id: String, due: Duration) -> Arrival {
        if self.block.is_empty() {
            self.refill();
        }
        let (digits, batch, hot) = self.block.pop().expect("refilled");
        let sample_seed = if hot {
            self.hot[self.rng.next_below(HOT_SEEDS)]
        } else {
            self.unique += 1;
            // Never repeated: a distinct counter mixed into the run seed.
            crate::splitmix64(self.seed ^ self.unique) >> 16
        };
        let key = Key {
            digits,
            sample_seed,
            batch,
        };
        let line = format!(
            "{{\"id\":\"{id}\",\"dataset\":\"{}\",\"sample_seed\":{sample_seed},\"batch\":{batch}}}",
            if digits { "digits" } else { "shapes" }
        );
        self.keys.insert(id.clone(), key);
        Arrival { id, due, line }
    }

    fn open_loop(&mut self, phase: &str, rate: f64, count: usize) -> Vec<Arrival> {
        let offsets = poisson_offsets(&mut self.rng, rate, count);
        offsets
            .into_iter()
            .enumerate()
            .map(|(i, due)| self.next(format!("{phase}-{i}"), due))
            .collect()
    }
}

/// A reply as read off the wire.
#[derive(Debug, Clone)]
struct Received {
    at: Instant,
    line: String,
    copies: usize,
}

/// One client connection: this thread writes, a reader thread reads.
struct Lane {
    stream: TcpStream,
    reader: JoinHandle<()>,
}

/// Replies by request id, and a signal for each new one.
type ReplyTable = Arc<(Mutex<HashMap<String, Received>>, Condvar)>;

/// The load generator: `lanes` connections sharing one reply table.
struct Client {
    lanes: Vec<Lane>,
    replies: ReplyTable,
    next_lane: usize,
}

impl Client {
    /// Threads and connections stay within `nproc`: each lane is a
    /// connection plus its reader thread, and the calling thread sends.
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let lanes_n = (host::nproc() / 2).max(1);
        let replies: ReplyTable = Arc::default();
        let mut lanes = Vec::new();
        for _ in 0..lanes_n {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let read = stream.try_clone()?;
            let table = Arc::clone(&replies);
            let reader = thread::Builder::new()
                .name("bench-reader".into())
                .spawn(move || {
                    let mut r = BufReader::new(read);
                    let mut line = String::new();
                    while matches!(r.read_line(&mut line), Ok(n) if n > 0) {
                        let at = Instant::now();
                        let text = line.trim_end().to_string();
                        line.clear();
                        let Ok(parsed) = Response::parse(&text) else {
                            continue;
                        };
                        let Some(id) = parsed.id else { continue };
                        let (lock, signal) = &*table;
                        lock.lock()
                            .expect("reply table poisoned")
                            .entry(id)
                            .and_modify(|e| e.copies += 1)
                            .or_insert(Received {
                                at,
                                line: text,
                                copies: 1,
                            });
                        signal.notify_all();
                    }
                })?;
            lanes.push(Lane { stream, reader });
        }
        Ok(Self {
            lanes,
            replies,
            next_lane: 0,
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let n = self.lanes.len();
        let lane = &mut self.lanes[self.next_lane % n];
        self.next_lane += 1;
        lane.stream.write_all(format!("{line}\n").as_bytes())
    }

    /// Closed loop: keeps `outstanding` requests in flight until all of
    /// `schedule` is answered. Returns replies per second and each
    /// request's latency from its send.
    fn saturate(
        &mut self,
        schedule: &[Arrival],
        outstanding: usize,
    ) -> io::Result<(f64, Vec<f64>)> {
        let ids: Vec<&str> = schedule.iter().map(|a| a.id.as_str()).collect();
        let start = Instant::now();
        let mut sent = Vec::with_capacity(schedule.len());
        for (i, a) in schedule.iter().enumerate() {
            self.wait_until(DRAIN, |t| {
                i - ids[..i].iter().filter(|id| t.contains_key(**id)).count() < outstanding
            });
            self.send(&a.line)?;
            sent.push(Instant::now());
        }
        self.wait_for(&ids, DRAIN);
        let replies = self.reply_times(schedule);
        let latency_ms = schedule
            .iter()
            .zip(&sent)
            .filter_map(|(a, s)| {
                replies
                    .get(&a.id)
                    .map(|r| r.saturating_duration_since(*s).as_secs_f64() * 1e3)
            })
            .collect();
        // Over the whole phase of whole mix blocks: a window of it would
        // hold a varying share of the costly shapes requests.
        let last = replies
            .values()
            .map(|t| t.saturating_duration_since(start).as_secs_f64())
            .fold(0.0, f64::max);
        Ok((replies.len() as f64 / last, latency_ms))
    }

    /// Blocks until `done` holds for the reply table, or `timeout` passes.
    fn wait_until(&self, timeout: Duration, done: impl Fn(&HashMap<String, Received>) -> bool) {
        let (lock, signal) = &*self.replies;
        let t = lock.lock().expect("reply table poisoned");
        let _ = signal
            .wait_timeout_while(t, timeout, |t| !done(t))
            .expect("reply table poisoned");
    }

    fn wait_for(&self, ids: &[&str], timeout: Duration) {
        self.wait_until(timeout, |t| ids.iter().all(|id| t.contains_key(*id)));
    }

    fn reply_times(&self, schedule: &[Arrival]) -> HashMap<String, Instant> {
        let t = self.replies.0.lock().expect("reply table poisoned");
        schedule
            .iter()
            .filter_map(|a| t.get(&a.id).map(|r| (a.id.clone(), r.at)))
            .collect()
    }

    /// Runs one open-loop phase: sends on schedule, waits for the replies.
    /// Returns the result and the phase's start (due times are offsets from it).
    fn phase(&mut self, schedule: &[Arrival], mut on_send: impl FnMut()) -> (PhaseResult, Instant) {
        let start = Instant::now() + Duration::from_millis(5);
        let sent = drive(schedule, start, |a| {
            on_send();
            self.send(&a.line)
        });
        let ids: Vec<&str> = schedule.iter().map(|a| a.id.as_str()).collect();
        let result = match sent {
            Ok(sent) => {
                self.wait_for(&ids, DRAIN);
                account(schedule, start, &sent, &self.reply_times(schedule))
            }
            Err(_) => PhaseResult {
                lost: schedule.len(),
                ..Default::default()
            },
        };
        (result, start)
    }

    /// Closes the connections and joins the readers. The server closes its
    /// side once every reply has been written. A request it never answers
    /// would keep its side open and the reader blocked, so after `grace`
    /// the connections are cut: the missing reply then counts as lost.
    fn close(self, grace: Duration) -> HashMap<String, Received> {
        for lane in &self.lanes {
            let _ = lane.stream.shutdown(Shutdown::Write);
        }
        let deadline = Instant::now() + grace;
        while self.lanes.iter().any(|l| !l.reader.is_finished()) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        for lane in &self.lanes {
            let _ = lane.stream.shutdown(Shutdown::Both);
        }
        for lane in self.lanes {
            let _ = lane.reader.join();
        }
        self.replies.0.lock().expect("reply table poisoned").clone()
    }
}

/// The system under test: a router behind a TCP front end.
struct Server {
    router: Arc<ShardRouter>,
    addr: SocketAddr,
    accept: JoinHandle<DrainReport>,
}

fn config() -> ServeConfig {
    ServeConfig {
        drq: drq_config(),
        ..ServeConfig::default()
    }
}

impl Server {
    fn start() -> io::Result<Self> {
        let router = ShardRouter::start(config());
        let server = TcpServer::bind(
            Arc::clone(&router) as Arc<dyn InferenceBackend>,
            "127.0.0.1:0",
        )?;
        let addr = server.local_addr()?;
        let accept = thread::Builder::new()
            .name("bench-accept".into())
            .spawn(move || server.run())?;
        Ok(Self {
            router,
            addr,
            accept,
        })
    }

    /// Fills the plan cache for both models, as the first real requests would.
    fn warm_up(&self) -> io::Result<()> {
        let mut s = TcpStream::connect(self.addr)?;
        let mut r = BufReader::new(s.try_clone()?);
        for ds in ["digits", "shapes"] {
            writeln!(
                s,
                "{{\"id\":\"warm-{ds}\",\"dataset\":\"{ds}\",\"sample_seed\":1,\"batch\":1}}"
            )?;
            let mut line = String::new();
            r.read_line(&mut line)?;
        }
        Ok(())
    }

    fn stop(self) -> io::Result<DrainReport> {
        let mut s = TcpStream::connect(self.addr)?;
        writeln!(s, "{{\"kind\":\"shutdown\",\"drain_ms\":10000}}")?;
        let mut ack = String::new();
        BufReader::new(s.try_clone()?).read_line(&mut ack)?;
        self.accept
            .join()
            .map_err(|_| io::Error::other("accept thread panicked"))
    }
}

/// Service time: sends `schedule` one request at a time, in process, to
/// the router behind the TCP server, and times each from submit to reply.
/// Each request is a `bench.unit` span in the traced run. Returns the
/// times and the replies, serialized as the server would send them.
fn one_at_a_time(
    router: &ShardRouter,
    schedule: &[Arrival],
    tracer: &Tracer,
) -> (Vec<f64>, HashMap<String, Received>) {
    let mut service_ms = Vec::with_capacity(schedule.len());
    let mut replies = HashMap::new();
    let mut channels = Vec::with_capacity(schedule.len());
    for (i, a) in schedule.iter().enumerate() {
        let Ok(RequestBody::Infer(request)) = parse_request(&a.line) else {
            continue;
        };
        let (tx, rx) = mpsc::channel();
        let unit = tracer.begin("bench.unit", SpanId::NONE, i as u64);
        let t0 = Instant::now();
        router.submit(
            request,
            Box::new(move |resp: Response| {
                let _ = tx.send(resp);
            }),
        );
        let reply = rx.recv_timeout(DRAIN);
        let at = Instant::now();
        tracer.end(unit);
        if let Ok(resp) = reply {
            service_ms.push(at.duration_since(t0).as_secs_f64() * 1e3);
            let line = resp.to_json_line();
            replies.insert(a.id.clone(), Received { at, line, copies: 1 });
        }
        channels.push((a.id.clone(), rx));
    }
    // A responder that fires twice shows up as a second copy.
    for (id, rx) in channels {
        if let Some(r) = replies.get_mut(&id) {
            r.copies += rx.try_iter().count();
        }
    }
    (service_ms, replies)
}

/// Starts and warms the server [`SETUP_REPEATS`] times; `setup_s` is the
/// median. The last one is kept for the measurement.
fn setup(out: &mut Outcome) -> io::Result<Server> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let server = Server::start()?;
        server.warm_up()?;
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            server.stop()?;
        } else {
            kept = Some(server);
        }
    }
    let setup_s = median(&times);
    out.e2e.insert("setup_s", setup_s);
    out.named("setup_s", setup_s, "s");
    Ok(kept.expect("at least one set-up repetition"))
}

fn shed_state(name: &str) -> Option<ShedState> {
    match name {
        "healthy" => Some(ShedState::Healthy),
        "degraded" => Some(ShedState::Degraded),
        "shedding" => Some(ShedState::Shedding),
        _ => None,
    }
}

/// Replies of an unloaded reference engine, one per distinct request key,
/// with a few requests in flight so it never degrades or rejects.
fn reference_replies(keys: &[Key]) -> HashMap<Key, Response> {
    const IN_FLIGHT: usize = 8;
    let engine = ServeEngine::start(config());
    let (tx, rx) = mpsc::channel();
    let submit = |i: usize| {
        let tx = tx.clone();
        let k = keys[i];
        engine.submit(
            InferRequest {
                id: format!("ref-{i}"),
                dataset: k.dataset(),
                sample_seed: k.sample_seed,
                batch: k.batch as usize,
                deadline_cycles: None,
                poison: false,
            },
            Box::new(move |resp| {
                let _ = tx.send((i, resp));
            }),
        );
    };
    let mut next = IN_FLIGHT.min(keys.len());
    (0..next).for_each(&submit);
    let mut out = HashMap::new();
    while out.len() < keys.len() {
        let Ok((i, resp)) = rx.recv() else { break };
        out.insert(keys[i], resp);
        if next < keys.len() {
            submit(next);
            next += 1;
        }
    }
    engine.shutdown(10_000);
    out
}

/// Tallies of checked replies.
#[derive(Debug, Default)]
struct Checked {
    ok: usize,
    degraded: usize,
    refused: usize,
    wrong: usize,
    images: u64,
    int4_sum: f64,
    mixed: usize,
}

/// Byte-checks every `ok mixed` reply of `schedule` against its reference
/// (the reply's own `state` field substituted: it reports the server's
/// health at reply time, which load legitimately changes). Degraded
/// replies run the uniform-INT8 fallback and are counted separately.
fn check_replies(
    schedule: &[Arrival],
    keys: &HashMap<String, Key>,
    replies: &HashMap<String, Received>,
    reference: &HashMap<Key, Response>,
) -> Checked {
    let mut c = Checked::default();
    for a in schedule {
        let Some(r) = replies.get(&a.id) else {
            continue;
        };
        let key = keys[&a.id];
        let Ok(parsed) = Response::parse(&r.line) else {
            c.wrong += 1;
            continue;
        };
        if parsed.status != "ok" {
            c.refused += 1;
            continue;
        }
        c.ok += 1;
        c.images += key.batch;
        if parsed.degraded {
            c.degraded += 1;
            continue;
        }
        let state = drq::telemetry::Json::parse(&r.line)
            .ok()
            .and_then(|j| j.get("state").and_then(|s| s.as_str()).and_then(shed_state));
        let expected = match (reference.get(&key), state) {
            (
                Some(Response {
                    outcome: Reply::Ok(reply),
                    ..
                }),
                Some(state),
            ) => {
                c.mixed += 1;
                c.int4_sum += reply.int4_fraction;
                Response {
                    id: Some(a.id.clone()),
                    outcome: Reply::Ok(InferReply {
                        state,
                        ..reply.clone()
                    }),
                }
                .to_json_line()
            }
            _ => String::new(),
        };
        if expected != r.line || parsed.mode.as_deref() != Some(ExecMode::Mixed.as_str()) {
            c.wrong += 1;
        }
    }
    c
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(ctx, &mut out) {
        Ok(()) => {}
        Err(e) => out.failures.push(format!("serve-mix: {e}")),
    }
    out
}

fn run_inner(ctx: &Ctx, out: &mut Outcome) -> io::Result<()> {
    let server = setup(out)?;
    let mut mix = Mix::new(ctx);
    let mut client = Client::connect(server.addr)?;
    let secs = ctx.budget.as_secs_f64();
    let arrivals = |blocks: f64| (blocks * secs / 15.0).round().max(1.0) as usize * BLOCK;
    let reference_arrivals = arrivals(REFERENCE_BLOCKS);
    let before = server.router.stats();
    let plan_before = server.router.plan_stats();

    // Every phase, in order: (name, schedule, result).
    let mut phases: Vec<(String, Vec<Arrival>, PhaseResult)> = Vec::new();
    let mut threads_max = host::threads_now();
    let mut depth_max = 0usize;
    let (mut service_ms, mut quiet_ms) = (Vec::new(), Vec::new());
    // Replies to the requests sent in process, not over TCP.
    let mut in_process = HashMap::new();
    if !ctx.tracer.enabled() {
        let sched = mix.open_loop("ref", REFERENCE_RATE, reference_arrivals);
        let (r, _) = client.phase(&sched, || {});
        phases.push(("ref".into(), sched, r));
        // One client, one request at a time over TCP: its latency is the
        // end-to-end `op_ms_*`, delayed-ACK stall included, and its rate
        // is `work_per_s`: the median over windows of two whole mix blocks,
        // so every window holds the same share of shapes requests.
        // Capacity under load moved too much from run to run on a 2-CPU
        // host to be bounded (see the README).
        let sched: Vec<Arrival> = (0..UNLOADED_REQUESTS)
            .map(|i| mix.next(format!("one-{i}"), Duration::ZERO))
            .collect();
        let (_, unloaded) = client.saturate(&sched, 1)?;
        phases.push(("one".into(), sched, PhaseResult::default()));
        let secs: Vec<f64> = unloaded.iter().map(|ms| ms / 1e3).collect();
        let one_client_rps = windowed_rate(
            &vec![1.0; secs.len()],
            &secs,
            UNLOADED_REQUESTS / (2 * BLOCK),
        );
        out.e2e.insert("work_per_s", one_client_rps);
        out.named("one_client_rps", one_client_rps, "1/s");
        let t1 = Timing::of(&unloaded);
        out.e2e.insert("op_ms_p50", t1.p50);
        out.e2e.insert("op_ms_tail", t1.tail);
        out.named("unloaded_latency_ms_p50", t1.p50, "ms");
        out.named("unloaded_latency_ms_tail", t1.tail, "ms");
        out.named("unloaded_latency_tail_percentile", t1.tail_pct, "pct");
        // Capacity: a closed loop keeping many requests in flight.
        let sched: Vec<Arrival> = (0..arrivals(SATURATION_BLOCKS))
            .map(|i| mix.next(format!("sat-{i}"), Duration::ZERO))
            .collect();
        let (rps, _) = client.saturate(&sched, SATURATION_OUTSTANDING)?;
        phases.push(("sat".into(), sched, PhaseResult::default()));
        out.named("saturation_rps", rps, "1/s");
        let mut rung = 0;
        let (goodput, rungs) = climb(LADDER, |rate| {
            rung += 1;
            let sched = mix.open_loop(&format!("rung{rung}"), rate, RUNG_REQUESTS);
            let (r, _) = client.phase(&sched, || {});
            let refused = {
                let t = client.replies.0.lock().expect("reply table poisoned");
                sched
                    .iter()
                    .filter(|a| {
                        t.get(&a.id)
                            .is_some_and(|x| !x.line.contains("\"status\":\"ok\""))
                    })
                    .count()
            };
            let pass = loadgen::rung_passes(&r, refused);
            phases.push((format!("rung{rung}"), sched, r));
            pass
        });
        out.named("goodput_rps", goodput, "1/s");
        out.named("ladder_rungs_run", rungs as f64, "count");
    } else {
        // Traced run: the reference phase, sampling queue depth and threads
        // at each send, then one request at a time in process, untraced and
        // traced (the overhead). The traced pass gives the service time.
        let sched = mix.open_loop("ref", REFERENCE_RATE, reference_arrivals);
        let router = Arc::clone(&server.router);
        let (r, start) = client.phase(&sched, || {
            depth_max = depth_max.max(router.engines().iter().map(|e| e.queue_depth()).sum());
            threads_max = threads_max.max(host::threads_now());
        });
        let replied = client.reply_times(&sched);
        for (i, a) in sched.iter().enumerate() {
            if let Some(&at) = replied.get(&a.id) {
                ctx.tracer
                    .record("serve.request", SpanId::NONE, i as u64, start + a.due, at);
            }
        }
        phases.push(("ref".into(), sched, r));
        let sched: Vec<Arrival> = (0..UNLOADED_REQUESTS)
            .map(|i| mix.next(format!("quiet-{i}"), Duration::ZERO))
            .collect();
        let (ms, replied) = one_at_a_time(&server.router, &sched, &Tracer::new(false));
        quiet_ms = ms;
        in_process.extend(replied);
        phases.push(("quiet".into(), sched, PhaseResult::default()));
        let sched: Vec<Arrival> = (0..UNLOADED_REQUESTS)
            .map(|i| mix.next(format!("one-{i}"), Duration::ZERO))
            .collect();
        let (ms, replied) = one_at_a_time(&server.router, &sched, &ctx.tracer);
        service_ms = ms;
        in_process.extend(replied);
        phases.push(("one".into(), sched, PhaseResult::default()));
    }

    // Every request must be answered exactly once before the connections
    // close; then the server drains and stops.
    let all_ids: Vec<String> = phases
        .iter()
        .flat_map(|(_, s, _)| s.iter().map(|a| a.id.clone()))
        .collect();
    let tcp_ids: Vec<&str> = all_ids
        .iter()
        .map(String::as_str)
        .filter(|id| !in_process.contains_key(*id))
        .collect();
    client.wait_for(&tcp_ids, Duration::from_secs(20));
    let after = server.router.stats();
    let plan_after = server.router.plan_stats();
    let mut replies = client.close(DRAIN);
    replies.extend(in_process);
    let drain = server.stop()?;
    out.check(drain.cancelled == 0, || {
        format!("{} requests cancelled at shutdown", drain.cancelled)
    });

    // Reference replies for every distinct request that came back ok.
    let mut keys: Vec<Key> = all_ids
        .iter()
        .filter(|id| {
            replies
                .get(*id)
                .is_some_and(|r| r.line.contains("\"status\":\"ok\""))
        })
        .map(|id| mix.keys[id])
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let reference = reference_replies(&keys);

    let mut total = Checked::default();
    for (name, sched, _) in &phases {
        let c = check_replies(sched, &mix.keys, &replies, &reference);
        out.attempted += sched.len() as u64;
        out.failures.extend(reply_failures(sched, &replies));
        if c.wrong > 0 {
            out.failures.push(format!(
                "phase {name}: {} replies differ from the reference",
                c.wrong
            ));
        }
        // Refusals are failures everywhere except in the ladder, whose
        // failing rung is expected to refuse: that is how it fails.
        if c.refused > 0 && !name.starts_with("rung") {
            out.failures
                .push(format!("phase {name}: {} requests refused", c.refused));
        }
        total.ok += c.ok;
        total.degraded += c.degraded;
        total.images += c.images;
        total.int4_sum += c.int4_sum;
        total.mixed += c.mixed;
    }

    let reference_phase = &phases[0].2;
    let t = reference_phase.timing();
    out.named("latency_ms_p50", t.p50, "ms");
    out.named("latency_ms_tail", t.tail, "ms");
    out.named("latency_tail_percentile", t.tail_pct, "pct");
    out.named("latency_samples", t.n as f64, "count");
    out.named("reference_rate", REFERENCE_RATE, "1/s");
    out.named(
        "int4_share_pct",
        100.0 * total.int4_sum / total.mixed.max(1) as f64,
        "%",
    );
    out.named("degraded_replies", total.degraded as f64, "count");
    if ctx.tracer.enabled() {
        let service = Timing::of(&service_ms);
        out.layer("serve.service_ms_p50", service.p50);
        out.layer("serve.service_ms_tail", service.tail);
        out.layer("serve.queue_wait_ms_p50", (t.p50 - service.p50).max(0.0));
        out.layer(
            "trace_overhead_pct",
            100.0 * (service.p50 / median(&quiet_ms) - 1.0),
        );
        out.layer("serve.queue.depth_max", depth_max as f64);
        out.layer(
            "serve.client.lateness_ms_max",
            reference_phase.lateness_ms_max,
        );
        out.layer("process.threads_max", threads_max as f64);
        engine_metrics(&before, &after, total.images, out);
        let hit = |h: u64, m: u64| {
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        };
        out.layer(
            "serve.plan_cache.mask_hit_rate",
            hit(
                plan_after.mask_hits - plan_before.mask_hits,
                plan_after.mask_misses - plan_before.mask_misses,
            ),
        );
        out.layer(
            "serve.plan_cache.model_hit_rate",
            hit(
                plan_after.model_hits - plan_before.model_hits,
                plan_after.model_misses - plan_before.model_misses,
            ),
        );
        out.layer(
            "serve.shed.degraded_share",
            total.degraded as f64 / total.ok.max(1) as f64,
        );
        protocol_metrics(&phases, &reference, &mix.keys, out);
        out.layer(
            "trace.unattributed_pct",
            crate::trace::unattributed_pct(&ctx.tracer.spans()),
        );
    }
    Ok(())
}

/// A failure for each request of `schedule` with no reply or more than one.
fn reply_failures(schedule: &[Arrival], replies: &HashMap<String, Received>) -> Vec<String> {
    schedule
        .iter()
        .filter_map(|a| match replies.get(&a.id) {
            None => Some(format!("{}: no reply", a.id)),
            Some(r) if r.copies > 1 => Some(format!("{}: {} replies", a.id, r.copies)),
            Some(_) => None,
        })
        .collect()
}

fn engine_metrics(before: &RouterStats, after: &RouterStats, images: u64, out: &mut Outcome) {
    let (b, a) = (before.serve, after.serve);
    let groups = a.batch_groups - b.batch_groups;
    let completed = a.completed - b.completed;
    out.layer("serve.batcher.groups", groups as f64);
    out.layer(
        "serve.batcher.mean_group_images",
        images as f64 / groups.max(1) as f64,
    );
    out.layer(
        "serve.batcher.coalesced_share",
        (a.batch_coalesced - b.batch_coalesced) as f64 / completed.max(1) as f64,
    );
    let rejected =
        |s: &drq::serve::ServeStats| s.rejected_full + s.rejected_shed + s.rejected_oversized;
    out.layer(
        "serve.engine.rejected",
        (rejected(&a) - rejected(&b)) as f64,
    );
    out.layer(
        "serve.engine.deadline_miss",
        (a.deadline_miss - b.deadline_miss) as f64,
    );
}

/// Mean cost of the wire protocol's request parse and reply encode, timed
/// over the run's own request lines and reference replies.
fn protocol_metrics(
    phases: &[(String, Vec<Arrival>, PhaseResult)],
    reference: &HashMap<Key, Response>,
    keys: &HashMap<String, Key>,
    out: &mut Outcome,
) {
    const REPEAT: usize = 20;
    let lines: Vec<&Arrival> = phases.iter().flat_map(|(_, s, _)| s.iter()).collect();
    let t0 = Instant::now();
    let mut parsed = 0usize;
    for _ in 0..REPEAT {
        for a in &lines {
            if matches!(
                parse_request(std::hint::black_box(&a.line)),
                Ok(RequestBody::Infer(_))
            ) {
                parsed += 1;
            }
        }
    }
    let parse_us = t0.elapsed().as_secs_f64() * 1e6 / (REPEAT * lines.len()).max(1) as f64;
    let responses: BTreeMap<&str, &Response> = lines
        .iter()
        .filter_map(|a| reference.get(&keys[&a.id]).map(|r| (a.id.as_str(), r)))
        .collect();
    let t1 = Instant::now();
    let mut bytes = 0usize;
    for _ in 0..REPEAT {
        for r in responses.values() {
            bytes += std::hint::black_box(r.to_json_line()).len();
        }
    }
    let encode_us = t1.elapsed().as_secs_f64() * 1e6 / (REPEAT * responses.len()).max(1) as f64;
    out.check(parsed == REPEAT * lines.len() && bytes > 0, || {
        "protocol round trip failed".into()
    });
    out.layer("serve.protocol.parse_us", parse_us);
    out.layer("serve.protocol.encode_us", encode_us);
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq::serve::{Responder, ServeError};

    /// Answers `ok-*` requests at once and holds every other responder
    /// forever, as an engine that loses a request would.
    #[derive(Default)]
    struct Losing {
        held: Mutex<Vec<Responder>>,
    }

    impl InferenceBackend for Losing {
        fn submit(&self, request: InferRequest, respond: Responder) {
            if request.id.starts_with("ok-") {
                respond(Response {
                    id: Some(request.id),
                    outcome: Reply::Error {
                        error: ServeError::BadRequest {
                            detail: "stub".into(),
                        },
                    },
                });
            } else {
                self.held.lock().unwrap().push(respond);
            }
        }

        fn shutdown(&self, _drain_ms: u64) -> DrainReport {
            DrainReport {
                served: 0,
                cancelled: 0,
                worker_restarts: 0,
            }
        }
    }

    fn arrival(id: &str) -> Arrival {
        Arrival {
            id: id.into(),
            due: Duration::ZERO,
            line: format!("{{\"id\":\"{id}\",\"dataset\":\"digits\",\"sample_seed\":1,\"batch\":1}}"),
        }
    }

    #[test]
    fn a_lost_request_fails_the_check_instead_of_hanging() {
        let backend = Arc::new(Losing::default());
        let server = TcpServer::bind(backend.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let accept = thread::spawn(move || server.run());
        let sched = [arrival("ok-1"), arrival("lost-1"), arrival("ok-2")];
        let mut client = Client::connect(addr).unwrap();
        for a in &sched {
            client.send(&a.line).unwrap();
        }
        client.wait_for(&["ok-1", "lost-1", "ok-2"], Duration::from_millis(300));
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || tx.send(client.close(Duration::from_millis(200))));
        let replies = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("close hung on the unanswered request");
        assert_eq!(
            reply_failures(&sched, &replies),
            vec!["lost-1: no reply".to_string()]
        );
        assert_eq!(backend.held.lock().unwrap().len(), 1);
        let mut s = TcpStream::connect(addr).unwrap();
        writeln!(s, "{{\"kind\":\"shutdown\",\"drain_ms\":10}}").unwrap();
        accept.join().unwrap();
    }

    #[test]
    fn duplicate_replies_are_failures() {
        let sched = [arrival("a")];
        let mut replies = HashMap::new();
        replies.insert(
            "a".to_string(),
            Received {
                at: Instant::now(),
                line: String::new(),
                copies: 2,
            },
        );
        assert_eq!(reply_failures(&sched, &replies), vec!["a: 2 replies".to_string()]);
    }
}
