//! Open-loop load generation and its accounting.
//!
//! Arrivals follow a seeded Poisson schedule and are sent when due,
//! whatever the server is doing; when the generator itself falls behind
//! it sends late and records how late. Latency is timed from each
//! request's *due* time, so a stall also charges the wait it imposed on
//! every request queued behind it (no coordinated omission).

use crate::stats::Timing;
use drq::tensor::XorShiftRng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub id: String,
    /// Due time, as an offset from the phase start.
    pub due: Duration,
    pub line: String,
}

/// The first `count` Poisson arrival offsets at `rate` per second. A
/// phase has a fixed count rather than a fixed length, so its tail is
/// always read at the same percentile.
pub fn poisson_offsets(rng: &mut XorShiftRng, rate: f64, count: usize) -> Vec<Duration> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Sends every arrival at its due time through `send`, in order. Returns
/// the instant each request actually went out.
pub fn drive<E>(
    schedule: &[Arrival],
    start: Instant,
    mut send: impl FnMut(&Arrival) -> Result<(), E>,
) -> Result<Vec<Instant>, E> {
    let mut sent = Vec::with_capacity(schedule.len());
    for a in schedule {
        let due = start + a.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        send(a)?;
        sent.push(Instant::now());
    }
    Ok(sent)
}

/// What one open-loop phase observed.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Latency of each answered request, from its due time.
    pub latency_ms: Vec<f64>,
    /// Generator lateness: how long after its due time a request was sent.
    pub lateness_ms_max: f64,
    /// Requests that got no reply at all.
    pub lost: usize,
}

impl PhaseResult {
    pub fn timing(&self) -> Timing {
        Timing::of(&self.latency_ms)
    }
}

/// Due-time accounting of one phase: `sent[i]` is when `schedule[i]` went
/// out and `replies` maps request ids to when their reply arrived.
pub fn account(
    schedule: &[Arrival],
    start: Instant,
    sent: &[Instant],
    replies: &HashMap<String, Instant>,
) -> PhaseResult {
    let mut r = PhaseResult::default();
    for (a, &s) in schedule.iter().zip(sent) {
        let due = start + a.due;
        let late = s.saturating_duration_since(due).as_secs_f64() * 1e3;
        r.lateness_ms_max = r.lateness_ms_max.max(late);
        match replies.get(&a.id) {
            Some(&at) => r
                .latency_ms
                .push(at.saturating_duration_since(due).as_secs_f64() * 1e3),
            None => r.lost += 1,
        }
    }
    r
}

/// The latency limit a ladder rung must meet at its tail percentile.
pub const LATENCY_LIMIT_MS: f64 = 500.0;

/// A rung passes when nothing failed or went unanswered, its tail latency
/// is within the limit, and the backlog is not growing: the median latency
/// of its last third of requests (in schedule order) is within the limit
/// too. A queue that grows through the rung pushes that median up first.
pub fn rung_passes(r: &PhaseResult, failed: usize) -> bool {
    let last_third = &r.latency_ms[r.latency_ms.len() - r.latency_ms.len() / 3..];
    failed == 0
        && r.lost == 0
        && !r.latency_ms.is_empty()
        && r.timing().tail <= LATENCY_LIMIT_MS
        && (last_third.is_empty() || crate::stats::median(last_third) <= LATENCY_LIMIT_MS)
}

/// Climbs `rates` (ascending) with `run_rung`, stopping at the first rung
/// that fails. Returns the goodput — the highest rate passed before the
/// first failure, 0 if the first rung fails — and how many rungs ran.
pub fn climb(rates: &[f64], mut run_rung: impl FnMut(f64) -> bool) -> (f64, usize) {
    let mut goodput = 0.0;
    for (i, &rate) in rates.iter().enumerate() {
        if !run_rung(rate) {
            return (goodput, i + 1);
        }
        goodput = rate;
    }
    (goodput, rates.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(n: usize, spacing_ms: u64) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                id: format!("r{i}"),
                due: Duration::from_millis(spacing_ms * i as u64),
                line: String::new(),
            })
            .collect()
    }

    #[test]
    fn poisson_schedule_is_seeded_and_near_its_rate() {
        let a = poisson_offsets(&mut XorShiftRng::new(9), 50.0, 1000);
        let b = poisson_offsets(&mut XorShiftRng::new(9), 50.0, 1000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        let span = a.last().unwrap().as_secs_f64();
        assert!(
            (18.0..22.0).contains(&span),
            "1000 arrivals at 50/s took {span} s"
        );
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(a, poisson_offsets(&mut XorShiftRng::new(10), 50.0, 1000));
    }

    /// A stub backend that answers the moment a request is handed over,
    /// but stalls the hand-over of request 10 for 200 ms (a full socket
    /// buffer, a paused server). Requests due during the stall go out late,
    /// and their latency must include that wait.
    #[test]
    fn latency_counts_from_due_time_across_a_stall() {
        let sched = schedule(30, 10);
        let start = Instant::now();
        let mut replies = HashMap::new();
        let sent = drive(&sched, start, |a| {
            if a.id == "r10" {
                std::thread::sleep(Duration::from_millis(200));
            }
            replies.insert(a.id.clone(), Instant::now());
            Ok::<(), ()>(())
        })
        .unwrap();
        let r = account(&sched, start, &sent, &replies);
        assert_eq!(r.lost, 0);
        assert_eq!(r.latency_ms.len(), 30);
        // r10 itself waited 200 ms in the stub; r11 (due 10 ms later) was
        // sent only after the stall: ~190 ms late and ~190 ms latency, even
        // though the stub answered it instantly once it was sent.
        assert!(
            r.latency_ms[10] >= 195.0,
            "r10 latency {}",
            r.latency_ms[10]
        );
        assert!(
            r.latency_ms[11] >= 180.0,
            "r11 latency {}",
            r.latency_ms[11]
        );
        assert!(
            r.latency_ms[12] >= 170.0,
            "r12 latency {}",
            r.latency_ms[12]
        );
        // Requests due after the stall has passed are on time again.
        assert!(r.latency_ms[29] < 60.0, "r29 latency {}", r.latency_ms[29]);
        assert!(r.latency_ms[5] < 60.0, "r5 latency {}", r.latency_ms[5]);
        assert!(r.lateness_ms_max >= 180.0, "lateness {}", r.lateness_ms_max);
        assert!(r.lateness_ms_max < 400.0, "lateness {}", r.lateness_ms_max);
    }

    #[test]
    fn unanswered_requests_are_lost() {
        let sched = schedule(4, 0);
        let start = Instant::now();
        let sent = vec![start; 4];
        let mut replies = HashMap::new();
        replies.insert("r0".to_string(), start);
        replies.insert("r1".to_string(), start + Duration::from_millis(5));
        let r = account(&sched, start, &sent, &replies);
        assert_eq!(r.lost, 2);
        assert_eq!(r.latency_ms, vec![0.0, 5.0]);
    }

    fn phase(latencies: &[f64], lost: usize) -> PhaseResult {
        PhaseResult {
            latency_ms: latencies.to_vec(),
            lateness_ms_max: 0.0,
            lost,
        }
    }

    #[test]
    fn rung_rule_checks_failures_tail_and_backlog_growth() {
        let fast = vec![20.0; 48];
        assert!(rung_passes(&phase(&fast, 0), 0));
        assert!(
            !rung_passes(&phase(&fast, 0), 1),
            "a failure fails the rung"
        );
        assert!(
            !rung_passes(&phase(&fast, 1), 0),
            "a lost request fails the rung"
        );
        assert!(!rung_passes(&phase(&[], 0), 0), "no samples, no pass");
        // 48 samples: the tail is p75, with 12 beyond it.
        let mut tail_ok = vec![20.0; 36];
        tail_ok.extend([900.0; 12]);
        tail_ok.rotate_left(20); // slow ones spread, not all at the end
        assert!(rung_passes(&phase(&tail_ok, 0), 0));
        let mut tail_bad = vec![20.0; 35];
        tail_bad.extend([900.0; 13]);
        tail_bad.rotate_left(20);
        assert!(!rung_passes(&phase(&tail_bad, 0), 0));
        // A growing queue: latency climbs through the rung. The p75 of the
        // whole rung is still within the limit; its last third is not.
        let growing: Vec<f64> = (0..48)
            .map(|i| {
                if i < 38 {
                    50.0
                } else {
                    600.0 + 10.0 * i as f64
                }
            })
            .collect();
        assert!(
            growing.len() / 4 > 9 && crate::stats::percentile(&growing, 75.0) <= LATENCY_LIMIT_MS
        );
        assert!(!rung_passes(&phase(&growing, 0), 0));
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        let rates = [10.0, 20.0, 30.0, 40.0];
        let mut ran = Vec::new();
        let (goodput, rungs) = climb(&rates, |r| {
            ran.push(r);
            r != 30.0
        });
        assert_eq!(goodput, 20.0);
        assert_eq!(rungs, 3);
        assert_eq!(
            ran,
            vec![10.0, 20.0, 30.0],
            "40 must not run after 30 failed"
        );
        assert_eq!(climb(&rates, |_| true), (40.0, 4));
        assert_eq!(climb(&rates, |_| false), (0.0, 1));
        // A later rung passing again does not raise the goodput.
        assert_eq!(climb(&rates, |r| r != 20.0), (10.0, 2));
    }
}
