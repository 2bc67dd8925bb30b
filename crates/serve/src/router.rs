//! Horizontal scale-out: a shard router over N worker engines.
//!
//! Each *worker* is a whole [`ServeEngine`] (its own queue, clock, shed
//! machine, and worker thread) — the crash-able unit. The router:
//!
//! * **Routes** each request to a worker by rendezvous (highest-random-
//!   weight) hashing of the request id against the worker *slot* index.
//!   Routing is consistent: the same id lands on the same slot at any
//!   point in time, and because the hash is salted by slot index — not by
//!   engine identity — a restarted worker reclaims exactly the keys its
//!   predecessor owned. No key ever moves because an unrelated worker
//!   died.
//! * **Rebalances on death.** [`ShardRouter::kill_worker`] crashes a
//!   worker as a process death would: admissions stop, in-flight groups
//!   abort at their next layer boundary, and every admitted-but-unanswered
//!   request is salvaged and resubmitted to a live worker. Salvaged
//!   requests have never been responded to, so the exactly-one-response
//!   invariant holds across the death; and because response payloads are
//!   deterministic (predictions, int4 fraction, and per-request cost are
//!   pure functions of the request), a rerouted request's response is
//!   byte-identical to the one the dead worker would have sent.
//! * **Shares one [`PlanCache`]** across all workers, so a model prepared
//!   anywhere is a hit everywhere — including on workers restarted after
//!   a kill (the cache is not worker state and cannot be poisoned by one).
//!
//! All submissions and kills serialize on the slot table, which closes the
//! route-to-dead-worker race: a kill cannot begin while a submission holds
//! the table, and by the time the kill releases it the slot already holds
//! the restarted engine.

use crate::engine::{DrainReport, ServeConfig, ServeEngine, ServeStats};
use crate::plan_cache::{PlanCache, PlanCacheStats};
use drq_tensor::fnv1a;
use crate::protocol::InferRequest;
use crate::queue::Responder;
use crate::ShedState;
use drq_telemetry::{counter_add, Report};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// One worker slot: the live engine and how many engines have occupied
/// the slot (generation 0 is the original, each kill+restart bumps it).
struct Slot {
    engine: Arc<ServeEngine>,
    generation: u64,
}

/// Counters of retired (killed) engines, folded into aggregate stats so
/// a kill never makes completed work disappear from reports.
#[derive(Default)]
struct Retired {
    stats: ServeStats,
}

/// Aggregate statistics for a router and its workers (live + retired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterStats {
    /// Worker slot count.
    pub workers: usize,
    /// Requests routed to a worker (first submission only).
    pub routed: u64,
    /// Salvaged requests resubmitted after a worker kill.
    pub rerouted: u64,
    /// Worker kills injected.
    pub kills: u64,
    /// Workers restarted into a killed slot.
    pub restarts: u64,
    /// Engine counters summed over live and retired workers.
    pub serve: ServeStats,
}

/// A shard router spreading requests over `workers` single-threaded
/// [`ServeEngine`]s that share one [`PlanCache`].
pub struct ShardRouter {
    config: ServeConfig,
    plans: Arc<PlanCache>,
    slots: Mutex<Vec<Slot>>,
    retired: Mutex<Retired>,
    routed: AtomicU64,
    rerouted: AtomicU64,
    kills: AtomicU64,
    restarts: AtomicU64,
}

/// Rendezvous pick: the slot whose salted hash of `key` is highest. The
/// key hash is finalized per slot with a full-avalanche mixer — a plain
/// seeded FNV keeps slot scores nearly ordered by slot index, starving
/// the high slots.
fn pick_slot(slots: usize, key: &str) -> usize {
    let key_hash = fnv1a(key.bytes(), 0);
    (0..slots)
        .max_by_key(|&i| {
            let mut z = key_hash ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31), i)
        })
        .unwrap_or(0)
}

/// Sums engine counters (used to fold retired workers into aggregates).
fn accumulate(into: &mut ServeStats, s: ServeStats) {
    into.admitted += s.admitted;
    into.completed += s.completed;
    into.cancelled += s.cancelled;
    into.rejected_full += s.rejected_full;
    into.rejected_shed += s.rejected_shed;
    into.rejected_oversized += s.rejected_oversized;
    into.deadline_miss += s.deadline_miss;
    into.worker_restarts += s.worker_restarts;
    into.degraded_responses += s.degraded_responses;
    into.batch_groups += s.batch_groups;
    into.batch_coalesced += s.batch_coalesced;
}

impl ShardRouter {
    /// Starts `config.workers` worker engines (each running one worker
    /// thread, with `config.capacity` queue slots of its own) behind a
    /// router, all sharing one plan cache.
    pub fn start(config: ServeConfig) -> Arc<Self> {
        let plans = Arc::new(PlanCache::new());
        let workers = config.workers.max(1);
        let shard = ServeConfig { workers: 1, ..config.clone() };
        let slots = (0..workers)
            .map(|_| Slot {
                engine: ServeEngine::start_with_cache(shard.clone(), Arc::clone(&plans)),
                generation: 0,
            })
            .collect();
        counter_add!("serve/router/routed", 0);
        counter_add!("serve/router/rerouted", 0);
        counter_add!("serve/router/kills", 0);
        counter_add!("serve/router/restarts", 0);
        Arc::new(Self {
            config,
            plans,
            slots: Mutex::new(slots),
            retired: Mutex::new(Retired::default()),
            routed: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            kills: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        })
    }

    /// Worker slot count.
    pub fn worker_count(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// The plan cache shared by every worker (live and future).
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        Arc::clone(&self.plans)
    }

    /// Handles to the currently-live worker engines, slot order.
    pub fn engines(&self) -> Vec<Arc<ServeEngine>> {
        self.slots
            .lock()
            .unwrap()
            .iter()
            .map(|s| Arc::clone(&s.engine))
            .collect()
    }

    /// The generation of each slot (how many times it was restarted).
    pub fn generations(&self) -> Vec<u64> {
        self.slots.lock().unwrap().iter().map(|s| s.generation).collect()
    }

    /// Routes one request to its rendezvous worker. The responder fires
    /// exactly once, even if the chosen worker is later killed (the
    /// request is then salvaged and rerouted, never double-answered).
    pub fn submit(&self, request: InferRequest, respond: Responder) {
        let slots = self.slots.lock().unwrap();
        let target = pick_slot(slots.len(), &request.id);
        self.routed.fetch_add(1, Ordering::SeqCst);
        counter_add!("serve/router/routed", 1);
        slots[target].engine.submit(request, respond);
    }

    /// Kills the worker in `slot` (mod the slot count) as a process death
    /// would, restarts a fresh engine into the slot, and resubmits every
    /// salvaged request to the current slot table. Returns the number of
    /// requests that were salvaged and rerouted.
    pub fn kill_worker(&self, slot: usize) -> usize {
        let mut slots = self.slots.lock().unwrap();
        let index = slot % slots.len();
        let dead = Arc::clone(&slots[index].engine);
        self.kills.fetch_add(1, Ordering::SeqCst);
        counter_add!("serve/router/kills", 1);
        let salvaged = dead.crash();
        self.retired.lock().unwrap().stats_add(dead.stats());
        // Restart in place before rerouting: the slot count never changes,
        // so every key keeps its rendezvous owner and the restarted worker
        // reclaims the dead one's share immediately.
        let shard = ServeConfig { workers: 1, ..self.config.clone() };
        slots[index].engine = ServeEngine::start_with_cache(shard, Arc::clone(&self.plans));
        slots[index].generation += 1;
        self.restarts.fetch_add(1, Ordering::SeqCst);
        counter_add!("serve/router/restarts", 1);
        let rerouted = salvaged.len();
        for (request, respond) in salvaged {
            self.rerouted.fetch_add(1, Ordering::SeqCst);
            counter_add!("serve/router/rerouted", 1);
            let target = pick_slot(slots.len(), &request.id);
            slots[target].engine.submit(request, respond);
        }
        rerouted
    }

    /// Aggregate stats over live workers plus everything retired by kills.
    pub fn stats(&self) -> RouterStats {
        let mut serve = self.retired.lock().unwrap().stats;
        let engines = self.engines();
        for engine in &engines {
            accumulate(&mut serve, engine.stats());
        }
        RouterStats {
            workers: engines.len(),
            routed: self.routed.load(Ordering::SeqCst),
            rerouted: self.rerouted.load(Ordering::SeqCst),
            kills: self.kills.load(Ordering::SeqCst),
            restarts: self.restarts.load(Ordering::SeqCst),
            serve,
        }
    }

    /// Worst shed state across live workers (shedding > degraded >
    /// healthy) — the fleet is only as healthy as its hottest shard.
    pub fn state(&self) -> ShedState {
        self.engines()
            .iter()
            .map(|e| e.state())
            .max_by_key(|s| match s {
                ShedState::Healthy => 0,
                ShedState::Degraded => 1,
                ShedState::Shedding => 2,
            })
            .unwrap_or(ShedState::Healthy)
    }

    /// Concatenated per-request trace lines from every live worker.
    pub fn trace_jsonl(&self) -> String {
        self.engines().iter().map(|e| e.trace_jsonl()).collect()
    }

    /// Structured report (`kind: "serve"`) aggregating workers, router
    /// counters, and plan-cache effectiveness.
    pub fn report(&self) -> Report {
        let s = self.stats();
        let p = self.plans.stats();
        let mut r = Report::new("serve");
        r.push("workers", s.workers);
        r.push("capacity", self.config.capacity);
        r.push("max_batch", self.config.max_batch);
        r.push("coalesce", self.config.coalesce.max(1));
        r.push("admitted", s.serve.admitted);
        r.push("completed", s.serve.completed);
        r.push("cancelled", s.serve.cancelled);
        r.push("rejected_full", s.serve.rejected_full);
        r.push("rejected_shed", s.serve.rejected_shed);
        r.push("rejected_oversized", s.serve.rejected_oversized);
        r.push("deadline_miss", s.serve.deadline_miss);
        r.push("worker_restarts", s.serve.worker_restarts);
        r.push("degraded_responses", s.serve.degraded_responses);
        r.push("batch_groups", s.serve.batch_groups);
        r.push("batch_coalesced", s.serve.batch_coalesced);
        r.push("router_routed", s.routed);
        r.push("router_rerouted", s.rerouted);
        r.push("router_kills", s.kills);
        r.push("router_restarts", s.restarts);
        r.push("plan_model_hits", p.model_hits);
        r.push("plan_model_misses", p.model_misses);
        r.push("plan_mask_hits", p.mask_hits);
        r.push("plan_mask_misses", p.mask_misses);
        r.push("plan_hit_rate", p.hit_rate());
        r.push("final_state", self.state().as_str());
        r.push("final_cycle", self.engines().iter().map(|e| e.clock().now()).sum::<u64>());
        r
    }

    /// Plan-cache effectiveness snapshot.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Gracefully shuts down every worker in parallel (each drains with
    /// the same wall budget) and returns the aggregate report, including
    /// work completed by workers retired before the shutdown.
    pub fn shutdown(&self, drain_ms: u64) -> DrainReport {
        let engines = self.engines();
        let handles: Vec<_> = engines
            .into_iter()
            .map(|engine| {
                thread::Builder::new()
                    .name("drq-router-drain".to_string())
                    .spawn(move || engine.shutdown(drain_ms))
                    .expect("spawn drain thread")
            })
            .collect();
        let mut served = 0u64;
        let mut cancelled = 0u64;
        let mut worker_restarts = 0u64;
        for h in handles {
            if let Ok(report) = h.join() {
                served += report.served;
                cancelled += report.cancelled;
                worker_restarts += report.worker_restarts;
            }
        }
        let retired = self.retired.lock().unwrap().stats;
        DrainReport {
            served: served + retired.completed,
            cancelled: cancelled + retired.cancelled,
            worker_restarts: worker_restarts + retired.worker_restarts,
        }
    }
}

impl Retired {
    fn stats_add(&mut self, s: ServeStats) {
        accumulate(&mut self.stats, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Outcome, Response};
    use drq_models::DatasetKind;
    use std::sync::mpsc;

    fn request(id: &str, seed: u64) -> InferRequest {
        InferRequest {
            id: id.to_string(),
            dataset: DatasetKind::Digits,
            sample_seed: seed,
            batch: 1,
            deadline_cycles: None,
            poison: false,
        }
    }

    fn config(workers: usize) -> ServeConfig {
        ServeConfig { workers, capacity: 32, max_batch: 4, ..ServeConfig::default() }
    }

    #[test]
    fn routing_is_consistent_and_survives_restart() {
        // Pure function of (slot count, key): same answer before and
        // after any slot's engine is replaced.
        let a = pick_slot(4, "req-17");
        let b = pick_slot(4, "req-17");
        assert_eq!(a, b);
        assert!(a < 4);
        // Different keys spread: over many keys every slot gets some.
        let mut hit = [false; 4];
        for i in 0..64 {
            hit[pick_slot(4, &format!("key-{i}"))] = true;
        }
        assert!(hit.iter().all(|&h| h), "rendezvous must use all slots: {hit:?}");
    }

    #[test]
    fn kill_reroutes_salvaged_requests_exactly_once() {
        let router = ShardRouter::start(config(2));
        // Hold every worker so submissions stay queued, then kill one.
        for engine in router.engines() {
            engine.pause_workers();
        }
        let (tx, rx) = mpsc::channel::<Response>();
        let total = 8;
        for i in 0..total {
            let tx = tx.clone();
            router.submit(
                request(&format!("r{i}"), i as u64),
                Box::new(move |resp| {
                    let _ = tx.send(resp);
                }),
            );
        }
        let rerouted = router.kill_worker(0);
        assert!(rerouted > 0, "paused worker 0 must have had queued work");
        assert_eq!(router.generations()[0], 1);
        for engine in router.engines() {
            engine.resume_workers();
        }
        let mut seen = std::collections::HashMap::<String, usize>::new();
        for _ in 0..total {
            let resp = rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
            assert!(matches!(resp.outcome, Outcome::Ok(_)), "got {resp:?}");
            *seen.entry(resp.id.unwrap()).or_default() += 1;
        }
        assert!(seen.values().all(|&c| c == 1), "duplicate responses: {seen:?}");
        assert_eq!(seen.len(), total);
        let stats = router.stats();
        assert_eq!(stats.kills, 1);
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.rerouted, rerouted as u64);
        router.shutdown(1_000);
    }

    #[test]
    fn workers_share_one_plan_cache() {
        let router = ShardRouter::start(config(3));
        let (tx, rx) = mpsc::channel::<Response>();
        for i in 0..6 {
            let tx = tx.clone();
            router.submit(
                request(&format!("r{i}"), 7),
                Box::new(move |resp| {
                    let _ = tx.send(resp);
                }),
            );
        }
        for _ in 0..6 {
            rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        }
        let p = router.plan_stats();
        // One dataset → exactly one model build no matter which workers
        // served the traffic; everything else hit the shared cache.
        assert_eq!(p.model_misses, 1, "stats: {p:?}");
        assert_eq!(p.models, 1);
        router.shutdown(1_000);
    }
}
