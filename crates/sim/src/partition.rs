//! Static partitioning of the layer simulation graph into parallel shards.
//!
//! The network-level simulator is an embarrassingly sequential loop in its
//! original form: one RNG stream threaded layer to layer, one cumulative
//! cycle cursor. This module restructures that loop the way an emulation
//! compiler would: the layer graph is **statically partitioned** into
//! contiguous, cost-balanced shards; each shard simulates its layers
//! against a **per-shard virtual clock** starting at zero; and the shard
//! event streams are **merged deterministically** by offsetting every
//! shard-local cycle stamp with the prefix sum of the preceding shards'
//! total cycles.
//!
//! Three properties make the merged result bit-identical to the
//! single-shard run at *any* shard count:
//!
//! 1. **Stream-aligned draws** — every layer draws from its own RNG
//!    substream, derived from the session seed and the layer index by
//!    [`stream_seed`] (the same discipline [`crate::faults`] uses for its
//!    fault stream: draws depend only on seeds and deterministic indices,
//!    never on scheduling). A layer synthesizes the same feature map no
//!    matter which shard — or thread — runs it.
//! 2. **Contiguous shards** — a shard owns a contiguous layer range, so
//!    concatenating shard outputs in shard order *is* execution order; no
//!    sorting, no tie-breaking.
//! 3. **Additive virtual clocks** — a layer's retire stamp is the sum of
//!    all preceding layers' total cycles plus its own. Both terms are
//!    shard-invariant, so the merge rule `global = shard_offset + local`
//!    reproduces the sequential cursor exactly.

use drq_tensor::{parallel, splitmix64};

/// How many shards a [`crate::SimSession`] splits the layer graph into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partitions {
    /// One shard: the reference sequential execution.
    Single,
    /// Exactly this many shards (clamped to the layer count).
    Fixed(usize),
    /// One shard per available worker thread (clamped to the layer count).
    /// This is the default: partitioning is bit-invariant, so there is no
    /// correctness reason to ever simulate on one core.
    #[default]
    Auto,
}

impl Partitions {
    /// Resolves the policy to a concrete shard count for `n_layers` layers.
    /// Always at least 1, never more than `n_layers` (empty networks
    /// resolve to 1 so downstream code can assume a shard exists).
    pub fn resolve(self, n_layers: usize) -> usize {
        let want = match self {
            Partitions::Single => 1,
            Partitions::Fixed(n) => n.max(1),
            Partitions::Auto => parallel::max_threads(),
        };
        want.clamp(1, n_layers.max(1))
    }

    /// Parses a CLI-style spec: `"auto"`, `"single"`, or a shard count
    /// (`"1"` means [`Partitions::Single`]).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "auto" => Ok(Partitions::Auto),
            "single" | "1" => Ok(Partitions::Single),
            n => n
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .map(Partitions::Fixed)
                .ok_or_else(|| {
                    format!("invalid partition spec {s:?} (want 'auto', 'single', or a positive integer)")
                }),
        }
    }
}

impl From<usize> for Partitions {
    /// `0` maps to [`Partitions::Auto`], `1` to [`Partitions::Single`],
    /// anything else to [`Partitions::Fixed`].
    fn from(n: usize) -> Self {
        match n {
            0 => Partitions::Auto,
            1 => Partitions::Single,
            n => Partitions::Fixed(n),
        }
    }
}

impl std::fmt::Display for Partitions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Partitions::Single => write!(f, "single"),
            Partitions::Fixed(n) => write!(f, "{n}"),
            Partitions::Auto => write!(f, "auto"),
        }
    }
}

/// A static, cost-balanced partition of `0..n_layers` into contiguous
/// shard ranges.
///
/// # Examples
///
/// ```
/// use drq_sim::PartitionPlan;
///
/// let plan = PartitionPlan::balance(&[10, 10, 10, 10], 2);
/// assert_eq!(plan.ranges(), &[0..2, 2..4]);
/// // Heavily skewed costs still yield contiguous, exhaustive coverage.
/// let plan = PartitionPlan::balance(&[100, 1, 1, 1], 2);
/// assert_eq!(plan.ranges(), &[0..1, 1..4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    ranges: Vec<std::ops::Range<usize>>,
}

impl PartitionPlan {
    /// Splits `costs.len()` items into at most `shards` contiguous ranges,
    /// greedily closing a shard once it reaches the ideal per-shard share
    /// of the remaining cost. Zero-cost items are allowed; every item lands
    /// in exactly one range. Deterministic: depends only on `costs` and
    /// `shards`, never on thread scheduling.
    pub fn balance(costs: &[u64], shards: usize) -> Self {
        let n = costs.len();
        let shards = shards.clamp(1, n.max(1));
        if n == 0 {
            return Self { ranges: vec![0..0] };
        }
        let mut ranges = Vec::with_capacity(shards);
        let mut remaining: u128 = costs.iter().map(|&c| c as u128).sum();
        let mut start = 0usize;
        for s in 0..shards {
            let shards_left = shards - s;
            // Each remaining shard must take at least one item; beyond
            // that, close this shard once it holds its fair share of the
            // remaining cost — or just before an item that would overshoot
            // the share by more than stopping short undershoots it (so a
            // dominant layer lands in its own shard instead of dragging
            // its neighbours into a straggler).
            let max_end = n - (shards_left - 1);
            let target = remaining.div_ceil(shards_left as u128);
            let mut end = start;
            let mut acc: u128 = 0;
            if shards_left == 1 {
                while end < n {
                    acc += costs[end] as u128;
                    end += 1;
                }
            } else {
                while end < max_end {
                    let c = costs[end] as u128;
                    if end > start && acc + c > target && acc + c - target > target - acc {
                        break;
                    }
                    acc += c;
                    end += 1;
                    if acc >= target {
                        break;
                    }
                }
            }
            remaining -= acc;
            ranges.push(start..end);
            start = end;
            if start == n {
                break;
            }
        }
        debug_assert_eq!(ranges.last().map(|r| r.end), Some(n));
        Self { ranges }
    }

    /// The shard ranges, in execution order. Contiguous and exhaustive:
    /// `ranges[i].end == ranges[i + 1].start`.
    pub fn ranges(&self) -> &[std::ops::Range<usize>] {
        &self.ranges
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }
}

/// Derives the seed of an independent RNG substream from a root seed and a
/// stream index (splitmix64 finalization over the mixed pair).
///
/// This is the workhorse of the partitioned simulator's determinism story:
/// layer `i` always draws from `stream_seed(session_seed, i)` regardless of
/// which shard simulates it, and the fault stream draws from its own
/// reserved index — one session seed, many aligned streams.
///
/// # Examples
///
/// ```
/// use drq_sim::partition::stream_seed;
///
/// assert_eq!(stream_seed(42, 0), stream_seed(42, 0));
/// assert_ne!(stream_seed(42, 0), stream_seed(42, 1));
/// assert_ne!(stream_seed(42, 0), stream_seed(43, 0));
/// ```
pub fn stream_seed(root: u64, stream: u64) -> u64 {
    // splitmix64 over the golden-ratio-spread combination of root and
    // stream index; statistically independent outputs for adjacent inputs.
    splitmix64(root.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// The reserved stream index for the fault-injection RNG (kept far above
/// any realistic layer count so layer streams can never collide with it).
pub(crate) const FAULT_STREAM: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_covers_everything_contiguously() {
        for n in [1usize, 2, 3, 7, 20, 53] {
            for shards in [1usize, 2, 3, 8, 64] {
                let costs: Vec<u64> = (0..n).map(|i| (i as u64 * 37) % 101 + 1).collect();
                let plan = PartitionPlan::balance(&costs, shards);
                assert!(plan.shard_count() <= shards.max(1));
                assert!(plan.shard_count() <= n);
                let mut cursor = 0;
                for r in plan.ranges() {
                    assert_eq!(r.start, cursor, "n={n} shards={shards}");
                    assert!(r.end > r.start, "empty shard at n={n} shards={shards}");
                    cursor = r.end;
                }
                assert_eq!(cursor, n);
            }
        }
    }

    #[test]
    fn balance_is_roughly_even_on_uniform_costs() {
        let costs = vec![5u64; 40];
        let plan = PartitionPlan::balance(&costs, 4);
        assert_eq!(plan.shard_count(), 4);
        for r in plan.ranges() {
            assert_eq!(r.len(), 10);
        }
    }

    #[test]
    fn balance_isolates_a_dominant_layer() {
        // One layer carrying ~all the cost gets its own shard instead of
        // dragging neighbours into a straggler shard.
        let costs = [1u64, 1, 1000, 1, 1, 1];
        let plan = PartitionPlan::balance(&costs, 3);
        assert!(
            plan.ranges().iter().any(|r| r.clone().eq(2..3)),
            "dominant layer not isolated: {:?}",
            plan.ranges()
        );
    }

    #[test]
    fn balance_handles_empty_and_zero_costs() {
        assert_eq!(PartitionPlan::balance(&[], 4).ranges(), &[0..0]);
        let plan = PartitionPlan::balance(&[0, 0, 0], 2);
        let total: usize = plan.ranges().iter().map(|r| r.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn resolve_clamps_to_layers_and_floor_of_one() {
        assert_eq!(Partitions::Single.resolve(10), 1);
        assert_eq!(Partitions::Fixed(4).resolve(10), 4);
        assert_eq!(Partitions::Fixed(100).resolve(10), 10);
        assert_eq!(Partitions::Fixed(0).resolve(10), 1);
        assert_eq!(Partitions::Fixed(4).resolve(0), 1);
        let auto = Partitions::Auto.resolve(1000);
        assert!(auto >= 1 && auto <= 1000);
    }

    #[test]
    fn parse_round_trips_cli_specs() {
        assert_eq!(Partitions::parse("auto").unwrap(), Partitions::Auto);
        assert_eq!(Partitions::parse("single").unwrap(), Partitions::Single);
        assert_eq!(Partitions::parse("1").unwrap(), Partitions::Single);
        assert_eq!(Partitions::parse(" 7 ").unwrap(), Partitions::Fixed(7));
        assert!(Partitions::parse("0").is_err());
        assert!(Partitions::parse("-2").is_err());
        assert!(Partitions::parse("many").is_err());
        assert_eq!(Partitions::from(0usize), Partitions::Auto);
        assert_eq!(Partitions::from(1usize), Partitions::Single);
        assert_eq!(Partitions::from(3usize), Partitions::Fixed(3));
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for root in [0u64, 1, 42, u64::MAX] {
            for stream in [0u64, 1, 2, 53, FAULT_STREAM] {
                assert!(seen.insert(stream_seed(root, stream)), "collision at {root}/{stream}");
            }
        }
        // Never the xorshift fixed point.
        for i in 0..1000 {
            assert_ne!(stream_seed(42, i), 0, "zero seed at stream {i}");
        }
    }
}
