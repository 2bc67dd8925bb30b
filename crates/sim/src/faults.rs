//! Deterministic fault injection for the cycle-accurate simulator.
//!
//! The DRQ story is that trading precision for speed does not corrupt
//! results; a robustness study needs the converse experiment — what happens
//! when the *hardware model* misbehaves. This module provides a seeded,
//! replayable fault layer:
//!
//! * single-bit flips in PE accumulators and weight/activation registers
//!   ([`FaultSite::PeAccumulator`], [`FaultSite::PeWeightRegister`],
//!   [`FaultSite::PeActivationRegister`]),
//! * stuck-at-1 bits in packed line-buffer nibbles
//!   ([`FaultSite::LineBufferStuckAt`]),
//! * dropped / duplicated DRAM bursts ([`FaultSite::DramBurstDrop`],
//!   [`FaultSite::DramBurstDuplicate`]),
//! * spurious stall cycles ([`FaultSite::StallCycle`]).
//!
//! A [`FaultPlan`] (seed + site-targeted rate rules, JSON-serializable)
//! configures a run; a [`FaultInjector`] draws fault events from the plan's
//! own `XorShiftRng` stream — the same generator the testkit uses — so a
//! faulted run is a pure function of `(inputs, plan)` and replays exactly
//! on any thread or shard count. Plan, rule, counters and injector are the
//! shared engine in [`drq_telemetry::faults`], instantiated over this
//! module's [`FaultSite`]; a rule's target is a layer name (JSON key
//! `layer`), matched by equality. The exact array simulator passes no
//! layer, so layer-targeted rules never fire there.
//!
//! An **empty plan is zero-cost**: the un-faulted code paths never consult
//! the injector, and a [`crate::SimSession`] armed with one short-circuits
//! to the ordinary simulation, byte-identical output included.
//!
//! A plan whose `seed` is `0` does not pin its own stream: the session
//! derives a fault seed from the session seed via a reserved stream index
//! (see [`crate::partition::stream_seed`]), so one seed governs the whole
//! run. Any non-zero plan seed is left untouched, which keeps archived
//! plan files replaying bit-for-bit regardless of the session seed.

use crate::SimError;
use drq_telemetry::faults::{self, FaultPlanError};
/// `FaultSite::ALL`, `name` and `bit_width` come from this trait.
pub use drq_telemetry::faults::Site;

/// Where in the modeled hardware a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Bit flip in a column accumulator (one (column, step) partial sum).
    PeAccumulator,
    /// Bit flip in a PE's weight register for one MAC.
    PeWeightRegister,
    /// Bit flip in a PE's feature register for one MAC.
    PeActivationRegister,
    /// Stuck-at-1 bit in a packed line-buffer nibble.
    LineBufferStuckAt,
    /// A DRAM burst is dropped and must be refetched.
    DramBurstDrop,
    /// A DRAM burst is delivered twice.
    DramBurstDuplicate,
    /// A spurious one-cycle pipeline stall.
    StallCycle,
}

impl Site for FaultSite {
    type Error = SimError;
    const ALL: &'static [FaultSite] = &[
        FaultSite::PeAccumulator,
        FaultSite::PeWeightRegister,
        FaultSite::PeActivationRegister,
        FaultSite::LineBufferStuckAt,
        FaultSite::DramBurstDrop,
        FaultSite::DramBurstDuplicate,
        FaultSite::StallCycle,
    ];
    const TARGET_KEY: &'static str = "layer";

    fn name(self) -> &'static str {
        match self {
            FaultSite::PeAccumulator => "pe_accumulator",
            FaultSite::PeWeightRegister => "pe_weight_register",
            FaultSite::PeActivationRegister => "pe_activation_register",
            FaultSite::LineBufferStuckAt => "line_buffer_stuck_at",
            FaultSite::DramBurstDrop => "dram_burst_drop",
            FaultSite::DramBurstDuplicate => "dram_burst_duplicate",
            FaultSite::StallCycle => "stall_cycle",
        }
    }

    fn bit_width(self) -> u32 {
        match self {
            FaultSite::PeAccumulator => 64,
            FaultSite::PeWeightRegister | FaultSite::PeActivationRegister => 8,
            FaultSite::LineBufferStuckAt => 4,
            // Burst and stall faults are events, not bit corruptions.
            FaultSite::DramBurstDrop
            | FaultSite::DramBurstDuplicate
            | FaultSite::StallCycle => 1,
        }
    }

    fn target_matches(want: &str, have: &str) -> bool {
        want == have
    }
}

impl From<FaultPlanError> for SimError {
    fn from(e: FaultPlanError) -> Self {
        SimError::FaultPlan { detail: e.detail }
    }
}

/// One rule of a fault plan: a site, a per-opportunity rate (one MAC, one
/// nibble, one burst, one cycle), and optional fixed bit, layer filter and
/// event cap.
pub type FaultRule = faults::Rule<FaultSite>;

/// A complete fault-injection configuration: an RNG seed (independent of
/// the simulation's feature-map seed) plus rules.
///
/// Serialized as `{"seed": <u64>, "rules": [<rule>, ...]}` where each rule
/// is `{"site": <name>, "rate": <0..1>, "bit"?: <u32>, "layer"?: <string>,
/// "max_events"?: <u64>}`.
///
/// # Examples
///
/// ```
/// use drq_sim::{FaultPlan, FaultRule, FaultSite};
///
/// let plan = FaultPlan::parse(
///     r#"{"seed": 7, "rules": [{"site": "pe_accumulator", "rate": 1.0,
///         "bit": 3, "max_events": 1}]}"#,
/// )
/// .unwrap();
/// assert_eq!(plan.seed, 7);
/// assert_eq!(plan.rules[0].site, FaultSite::PeAccumulator);
/// assert!(FaultPlan::empty().is_empty());
/// # let _ = FaultRule::new(FaultSite::StallCycle, 0.5);
/// ```
pub type FaultPlan = faults::Plan<FaultSite>;

/// Per-site event counts accumulated by a [`FaultInjector`].
pub type FaultCounters = faults::Counters<FaultSite>;

/// Draws fault events from a [`FaultPlan`]'s seeded RNG stream and counts
/// what fired. Event draws depend only on the plan and the (deterministic,
/// sequential) order of injection opportunities, never on wall-clock time
/// or thread count.
pub type FaultInjector = faults::Injector<FaultSite>;

/// A small fixed plan for smoke testing (used by `drq faults` and CI):
/// sparse stall noise plus exactly one accumulator bit flip. Rates are
/// chosen so each rule fires a handful of times even on a network as small
/// as LeNet-5 — a smoke run that injects nothing proves nothing.
pub fn smoke_fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xFA17,
        rules: vec![
            FaultRule::new(FaultSite::StallCycle, 5e-3),
            FaultRule::new(FaultSite::PeAccumulator, 1e-4).with_bit(17).with_max_events(1),
            FaultRule::new(FaultSite::DramBurstDrop, 5e-3),
        ],
    }
}

/// Flips `bit` (0..8) of an 8-bit signed value held in an `i32`, staying in
/// the signed 8-bit domain.
pub(crate) fn flip_bit8(v: i32, bit: u32) -> i32 {
    debug_assert!(bit < 8, "bit {bit} outside the 8-bit word");
    ((v as i8) ^ (1i8 << bit)) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_bit8_stays_in_domain() {
        for v in -128..=127 {
            for bit in 0..8 {
                let flipped = flip_bit8(v, bit);
                assert!((-128..=127).contains(&flipped), "v={v} bit={bit}");
                assert_eq!(flip_bit8(flipped, bit), v);
            }
        }
    }

    #[test]
    fn smoke_plan_is_valid_and_nonempty() {
        let plan = smoke_fault_plan();
        assert!(plan.validate().is_ok());
        assert!(!plan.is_empty());
    }

    #[test]
    fn plans_use_the_layer_key_and_reject_path_filters() {
        let text = r#"{"seed":99,"rules":[{"site":"pe_accumulator","rate":0.25,"bit":5,"layer":"conv1","max_events":3}]}"#;
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.rules[0].target.as_deref(), Some("conv1"));
        assert_eq!(plan.to_json().to_string(), text);
        for bad in [
            r#"{"rules": [{"site": "stall_cycle", "rate": 0.1, "path_substr": "x"}]}"#,
            r#"{"rules": [{"site": "pe_weight_register", "rate": 0.1, "bit": 8}]}"#,
            r#"{"rules": [{"site": "line_buffer_stuck_at", "rate": 0.1, "bit": 4}]}"#,
            r#"{"rules": [{"site": "torn_write", "rate": 0.1}]}"#,
            r#"not json"#,
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(matches!(err, SimError::FaultPlan { .. }), "{bad}");
        }
    }

    #[test]
    fn counters_serialize_every_site_in_schema_order() {
        let plan = FaultPlan { seed: 1, rules: vec![FaultRule::new(FaultSite::StallCycle, 1.0)] };
        let mut inj = FaultInjector::new(&plan).unwrap();
        assert_eq!(inj.draw_count(FaultSite::StallCycle, None, 4), 4);
        assert_eq!(
            inj.counters().to_json().to_string(),
            r#"{"pe_accumulator":0,"pe_weight_register":0,"pe_activation_register":0,"line_buffer_stuck_at":0,"dram_burst_drop":0,"dram_burst_duplicate":0,"stall_cycle":4,"total":4}"#
        );
    }
}
