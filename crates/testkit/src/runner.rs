//! The deterministic property runner: seeded cases, panic capture, greedy
//! shrinking, and replayable failure reports.

use std::cell::Cell;
use std::fmt::Debug;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, Once};

use drq_tensor::{fnv1a, splitmix64, XorShiftRng};

/// Env var controlling how many cases each property runs (default
/// [`DEFAULT_CASES`]; CI raises it).
pub const CASES_ENV: &str = "DRQ_TESTKIT_CASES";

/// Env var pinning the case seed for replay. When set, case 0 of every
/// property uses exactly this seed (case `i` uses `seed + i`), so
/// `DRQ_TESTKIT_SEED=<seed> DRQ_TESTKIT_CASES=1` re-runs one failing case.
pub const SEED_ENV: &str = "DRQ_TESTKIT_SEED";

/// Cases per property when [`CASES_ENV`] is unset.
pub const DEFAULT_CASES: usize = 64;

/// Hard cap on committed shrink steps (each step strictly simplifies the
/// case, so this is a backstop against ill-behaved shrinkers, not a limit
/// reached in practice).
const MAX_SHRINK_STEPS: usize = 500;

thread_local! {
    /// True while a property probe runs under `catch_unwind`: the panic
    /// hook suppresses the default "thread panicked" noise for probes
    /// (shrinking re-runs failing properties dozens of times) but keeps it
    /// for genuine harness failures.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that forwards to the previous
/// hook except while a probe is being captured on this thread. Hooks are
/// process-global, so this must compose with whatever the test harness
/// already installed.
fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !CAPTURING.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

static THREAD_LOCK: Mutex<()> = Mutex::new(());

/// Serializes properties that mutate the process-global worker-pool width
/// (`drq_tensor::parallel::set_max_threads`). Rust runs tests of one binary
/// concurrently; two properties twiddling the thread count would race and
/// invalidate each other's "N threads" claim. Hold this guard for the whole
/// property body. Lock poisoning is ignored deliberately: a previous
/// property panicking (normal under this runner) must not wedge the rest of
/// the suite.
pub fn thread_count_lock() -> MutexGuard<'static, ()> {
    THREAD_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A minimized failing case, as reported by [`TestKit::try_check`].
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// Name of the failing property.
    pub property: String,
    /// Index of the originally failing case.
    pub case_index: usize,
    /// Seed that regenerates the originally failing case.
    pub seed: u64,
    /// Number of committed shrink steps.
    pub shrink_steps: usize,
    /// `Debug` rendering of the minimized case.
    pub case_debug: String,
    /// Failure message (property `Err` or captured panic) of the minimized
    /// case.
    pub message: String,
}

impl CounterExample {
    /// One-line environment prefix that replays the original failing case.
    pub fn replay_command(&self) -> String {
        format!("{SEED_ENV}={} {CASES_ENV}=1", self.seed)
    }

    /// The full report [`TestKit::check`] panics with.
    pub fn report(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "property '{}' failed at case {}", self.property, self.case_index);
        let _ = writeln!(
            s,
            "  counterexample (after {} shrink steps): {}",
            self.shrink_steps, self.case_debug
        );
        let _ = writeln!(s, "  failure: {}", self.message);
        let _ = write!(
            s,
            "  replay: {} cargo test --offline -- {}",
            self.replay_command(),
            self.property
        );
        s
    }
}

/// The property runner. One `TestKit` per integration-test binary (or per
/// suite) is the intended granularity; every property gets an independent,
/// name-derived seed stream so adding a property never perturbs another's
/// cases.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct TestKit {
    suite: String,
    cases: usize,
    base_seed: u64,
    pinned: bool,
}

impl TestKit {
    /// Builds a runner from the environment: [`CASES_ENV`] cases (default
    /// [`DEFAULT_CASES`]) and, when [`SEED_ENV`] is set, pinned replay
    /// seeding.
    pub fn from_env(suite: &str) -> Self {
        let cases = std::env::var(CASES_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_CASES);
        let pinned_seed = std::env::var(SEED_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok());
        match pinned_seed {
            Some(seed) => Self {
                suite: suite.to_string(),
                cases,
                base_seed: seed,
                pinned: true,
            },
            None => Self::with_config(suite, cases, 0xD1FF_EE00_C0FF_EE00),
        }
    }

    /// Builds a runner with an explicit case count and base seed, ignoring
    /// the environment (used by the harness's own meta-tests).
    pub fn with_config(suite: &str, cases: usize, base_seed: u64) -> Self {
        assert!(cases > 0, "need at least one case");
        Self {
            suite: suite.to_string(),
            cases,
            base_seed: splitmix64(base_seed ^ fnv1a(suite.bytes(), 0)),
            pinned: false,
        }
    }

    /// Number of cases each property runs.
    pub fn cases(&self) -> usize {
        self.cases
    }

    /// The suite name this runner was built for.
    pub fn suite(&self) -> &str {
        &self.suite
    }

    /// The seed that generates case `index` of property `name`.
    ///
    /// Pinned runners (built from a set [`SEED_ENV`]) use the env seed
    /// verbatim for case 0 so a reported seed replays exactly; unpinned
    /// runners mix the property name in so each property owns an
    /// independent stream.
    pub fn case_seed(&self, name: &str, index: usize) -> u64 {
        if self.pinned {
            self.base_seed.wrapping_add(index as u64)
        } else {
            splitmix64(self.base_seed ^ fnv1a(name.bytes(), 0)).wrapping_add(index as u64)
        }
    }

    /// Runs `property` over generated cases; on failure, greedily shrinks
    /// the case and panics with a seed-replayable report.
    ///
    /// * `generate` draws a case from a seeded RNG;
    /// * `shrink` proposes strictly-simpler candidate cases (may be empty);
    /// * `property` returns `Err(why)` — or panics, which the runner
    ///   captures — when the case exposes a bug.
    ///
    /// # Panics
    ///
    /// Panics with the [`CounterExample::report`] when any case fails.
    pub fn check<T, G, S, P>(&self, name: &str, generate: G, shrink: S, property: P)
    where
        T: Debug,
        G: Fn(&mut XorShiftRng) -> T,
        S: Fn(&T) -> Vec<T>,
        P: Fn(&T) -> Result<(), String>,
    {
        if let Err(ce) = self.try_check(name, generate, shrink, property) {
            panic!("{}", ce.report());
        }
    }

    /// [`TestKit::check`] without the final panic: returns the minimized
    /// counterexample instead. This is the hook the harness's mutation
    /// smoke tests use to assert that a deliberately broken kernel *is*
    /// caught, shrunk and replayable.
    ///
    /// # Errors
    ///
    /// Returns the shrunk [`CounterExample`] of the first failing case.
    pub fn try_check<T, G, S, P>(
        &self,
        name: &str,
        generate: G,
        shrink: S,
        property: P,
    ) -> Result<(), CounterExample>
    where
        T: Debug,
        G: Fn(&mut XorShiftRng) -> T,
        S: Fn(&T) -> Vec<T>,
        P: Fn(&T) -> Result<(), String>,
    {
        install_quiet_panic_hook();
        for index in 0..self.cases {
            let seed = self.case_seed(name, index);
            let mut rng = XorShiftRng::new(seed);
            let case = generate(&mut rng);
            if let Err(first_failure) = eval(&property, &case) {
                let (min_case, message, shrink_steps) =
                    shrink_to_minimal(case, first_failure, &shrink, &property);
                return Err(CounterExample {
                    property: name.to_string(),
                    case_index: index,
                    seed,
                    shrink_steps,
                    case_debug: format!("{min_case:?}"),
                    message,
                });
            }
        }
        Ok(())
    }
}

/// Runs the property on one case with panic capture.
fn eval<T, P>(property: &P, case: &T) -> Result<(), String>
where
    P: Fn(&T) -> Result<(), String>,
{
    CAPTURING.with(|c| c.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| property(case)));
    CAPTURING.with(|c| c.set(false));
    match outcome {
        Ok(Ok(())) => Ok(()),
        Ok(Err(message)) => Err(message),
        Err(payload) => Err(format!("panic: {}", panic_message(payload.as_ref()))),
    }
}

/// Greedy shrink: repeatedly commit to the first candidate that still
/// fails, until a full candidate sweep passes (local minimum) or the step
/// cap trips.
fn shrink_to_minimal<T, S, P>(
    mut case: T,
    mut failure: String,
    shrink: &S,
    property: &P,
) -> (T, String, usize)
where
    T: Debug,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> Result<(), String>,
{
    let mut steps = 0;
    'outer: while steps < MAX_SHRINK_STEPS {
        for candidate in shrink(&case) {
            if let Err(message) = eval(property, &candidate) {
                case = candidate;
                failure = message;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (case, failure, steps)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kit(cases: usize) -> TestKit {
        TestKit::with_config("runner-tests", cases, 42)
    }

    #[test]
    fn passing_property_runs_every_case() {
        let count = std::cell::Cell::new(0usize);
        kit(17).check(
            "counts cases",
            |rng| rng.next_u64(),
            |_| Vec::new(),
            |_| {
                count.set(count.get() + 1);
                Ok(())
            },
        );
        assert_eq!(count.get(), 17);
    }

    #[test]
    fn case_seeds_are_per_property_and_replayable() {
        let k = kit(4);
        assert_ne!(k.case_seed("a", 0), k.case_seed("b", 0), "streams collide");
        assert_eq!(k.case_seed("a", 0), k.case_seed("a", 0), "not deterministic");
        assert_eq!(k.case_seed("a", 3), k.case_seed("a", 0) + 3);
    }

    #[test]
    fn failing_property_is_shrunk_to_minimum() {
        // Property: n < 10. Generated n is large; greedy shrink with a
        // floor of 0 must land exactly on the boundary value 10.
        let ce = kit(8)
            .try_check(
                "n below ten",
                |rng| 100 + rng.next_below(1000),
                |&n| crate::shrink::shrink_usize(n, 0),
                |&n| {
                    if n < 10 {
                        Ok(())
                    } else {
                        Err(format!("{n} >= 10"))
                    }
                },
            )
            .expect_err("property must fail");
        assert_eq!(ce.case_debug, "10");
        assert!(ce.shrink_steps > 0);
        assert!(ce.message.contains(">= 10"));
    }

    #[test]
    fn panics_inside_properties_are_captured_and_shrunk() {
        let ce = kit(4)
            .try_check(
                "no panics",
                |rng| 50 + rng.next_below(50),
                |&n| crate::shrink::shrink_usize(n, 0),
                |&n| {
                    assert!(n < 7, "boom at {n}");
                    Ok(())
                },
            )
            .expect_err("property must fail");
        assert_eq!(ce.case_debug, "7");
        assert!(ce.message.contains("boom at 7"), "{}", ce.message);
    }

    #[test]
    fn replay_seed_regenerates_the_failing_case() {
        // The seed in the counterexample must regenerate the original
        // (pre-shrink) case through the same generator.
        let generate = |rng: &mut XorShiftRng| rng.next_u64() % 1000;
        let ce = kit(16)
            .try_check(
                "replayable",
                generate,
                |_| Vec::new(),
                |&n| if n % 7 == 0 { Err("divisible".into()) } else { Ok(()) },
            )
            .expect_err("property must fail");
        let replayed = generate(&mut XorShiftRng::new(ce.seed));
        assert_eq!(replayed % 7, 0, "seed does not replay the failure");
        assert!(ce.replay_command().contains(&format!("{SEED_ENV}={}", ce.seed)));
    }

    #[test]
    fn report_contains_name_case_and_replay_line() {
        let ce = CounterExample {
            property: "demo".into(),
            case_index: 3,
            seed: 99,
            shrink_steps: 2,
            case_debug: "Case { n: 1 }".into(),
            message: "broken".into(),
        };
        let report = ce.report();
        for needle in ["demo", "case 3", "2 shrink steps", "Case { n: 1 }", "broken", "DRQ_TESTKIT_SEED=99", "DRQ_TESTKIT_CASES=1"] {
            assert!(report.contains(needle), "missing {needle:?} in {report}");
        }
    }

    #[test]
    fn ill_behaved_shrinker_terminates_via_step_cap() {
        // A shrinker that proposes the same failing case forever must not
        // hang the runner.
        let ce = kit(1)
            .try_check(
                "step cap",
                |_| 5usize,
                |&n| vec![n],
                |_| Err("always".into()),
            )
            .expect_err("property must fail");
        assert_eq!(ce.shrink_steps, MAX_SHRINK_STEPS);
    }

    #[test]
    fn thread_lock_survives_poisoning() {
        let _ = std::panic::catch_unwind(|| {
            let _guard = thread_count_lock();
            panic!("poison the lock");
        });
        // Must not deadlock or panic.
        let _guard = thread_count_lock();
    }
}
