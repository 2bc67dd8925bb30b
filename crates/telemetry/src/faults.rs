//! One seeded fault-schedule engine, generic over a site type.
//!
//! The simulator's hardware faults (`drq_sim::FaultSite`) and the artifact
//! store's I/O faults (`drq_store::IoFaultSite`) share everything but their
//! sites: a [`Plan`] is `(seed, rules)`, each [`Rule`] attacks one site at a
//! per-opportunity `rate` with an optional fixed `bit`, target filter and
//! event cap, and an [`Injector`] draws events from the plan's own
//! `XorShiftRng` stream and tallies them in [`Counters`]. A site family
//! implements [`Site`] to supply its names, word widths, the JSON key of
//! its target filter and how a target matches.
//!
//! # Draw discipline
//!
//! At each injection opportunity every matching, non-exhausted rule burns
//! exactly one `next_f64` draw, whether or not it (or an earlier rule)
//! fires; the first rule whose roll clears its rate fires, and the site's
//! counter rises by one. Draws that only a fired event needs (a random bit
//! index, a tear offset) happen after the hit. [`Injector::draw_count`]
//! makes one draw per matching rule. So every event is a pure function of
//! the plan and the sequential order of opportunities, and a schedule
//! replays bit-for-bit from its seed on any thread count.
//!
//! # JSON
//!
//! A plan serializes as `{"seed": <u64>, "rules": [<rule>, ...]}`, each rule
//! as `{"site": <name>, "rate": <0..1>, "bit"?: <u32>, "<target key>"?:
//! <string>, "max_events"?: <u64>}`. Parsing rejects unknown keys, and the
//! `bit` key is accepted only by site families with word widths.

use crate::Json;
use drq_tensor::XorShiftRng;
use std::fmt;
use std::marker::PhantomData;

/// A family of fault sites: what the engine needs to know about it.
pub trait Site: Copy + Eq + fmt::Debug + 'static {
    /// The family's error type; plan errors convert into it.
    type Error: From<FaultPlanError>;
    /// Every site, in schema order (counter JSON follows it).
    const ALL: &'static [Self];
    /// JSON key of a rule's target filter (`"layer"`, `"path_substr"`).
    const TARGET_KEY: &'static str;

    /// The snake-case schema name used in plan JSON and reports.
    fn name(self) -> &'static str;

    /// Width in bits of the word a fault at this site corrupts (a rule's
    /// `bit` must stay below it); `0` when the family's rules take no
    /// `bit` key.
    fn bit_width(self) -> u32;

    /// Whether a rule targeting `want` applies to an opportunity at `have`.
    fn target_matches(want: &str, have: &str) -> bool;
}

/// A fault plan failed to parse or validate. The engine hands it to the
/// site family, which converts it into its own typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// What exactly was wrong.
    pub detail: String,
}

fn bad(detail: impl Into<String>) -> FaultPlanError {
    FaultPlanError { detail: detail.into() }
}

/// Reads optional rule key `key` through `get`; absent and `null` are
/// `None`, anything `get` rejects is an error naming `what` it must be.
fn optional<T>(
    v: &Json,
    key: &str,
    what: &str,
    get: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, FaultPlanError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => get(x).map(Some).ok_or_else(|| bad(format!("'{key}' must be {what}"))),
    }
}

/// One rule of a plan: a site, a per-opportunity rate, and optional
/// targeting (fixed bit, target filter, event cap).
#[derive(Debug, Clone, PartialEq)]
pub struct Rule<S> {
    /// The site this rule attacks.
    pub site: S,
    /// Probability that one opportunity faults, in `[0, 1]`.
    pub rate: f64,
    /// Fixed bit index to corrupt; `None` draws one uniformly from the
    /// site's word width per event.
    pub bit: Option<u32>,
    /// Restricts the rule to opportunities whose target matches (see
    /// [`Site::target_matches`]); an opportunity without a target never
    /// matches a targeted rule.
    pub target: Option<String>,
    /// Stop firing after this many events (`None` = unbounded).
    pub max_events: Option<u64>,
}

impl<S: Site> Rule<S> {
    /// A rule attacking `site` at `rate` with no further targeting.
    pub fn new(site: S, rate: f64) -> Self {
        Self { site, rate, bit: None, target: None, max_events: None }
    }

    /// Pins the corrupted bit index.
    pub fn with_bit(mut self, bit: u32) -> Self {
        self.bit = Some(bit);
        self
    }

    /// Restricts the rule to matching targets.
    pub fn with_target(mut self, target: impl Into<String>) -> Self {
        self.target = Some(target.into());
        self
    }

    /// Caps the number of events the rule may fire.
    pub fn with_max_events(mut self, n: u64) -> Self {
        self.max_events = Some(n);
        self
    }

    fn to_json(&self) -> Json {
        let mut entries = vec![
            ("site".to_string(), Json::str(self.site.name())),
            ("rate".to_string(), Json::F64(self.rate)),
        ];
        if let Some(bit) = self.bit {
            entries.push(("bit".to_string(), Json::U64(bit as u64)));
        }
        if let Some(target) = &self.target {
            entries.push((S::TARGET_KEY.to_string(), Json::str(target)));
        }
        if let Some(n) = self.max_events {
            entries.push(("max_events".to_string(), Json::U64(n)));
        }
        Json::Object(entries)
    }

    fn from_json(v: &Json) -> Result<Self, FaultPlanError> {
        let Json::Object(entries) = v else {
            return Err(bad("each rule must be an object"));
        };
        let takes_bit = S::ALL.iter().any(|s| s.bit_width() > 0);
        for (key, _) in entries {
            let known = matches!(key.as_str(), "site" | "rate" | "max_events")
                || key == S::TARGET_KEY
                || (key == "bit" && takes_bit);
            if !known {
                return Err(bad(format!("unknown rule key '{key}'")));
            }
        }
        let site_name = v
            .get("site")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("rule is missing a 'site' string"))?;
        let site = (S::ALL.iter().copied())
            .find(|s| s.name() == site_name)
            .ok_or_else(|| bad(format!("unknown fault site '{site_name}'")))?;
        let rate = v
            .get("rate")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("rule is missing a numeric 'rate'"))?;
        Ok(Rule {
            site,
            rate,
            bit: optional(v, "bit", "a small non-negative integer", |b| {
                b.as_u64().and_then(|b| u32::try_from(b).ok())
            })?,
            target: optional(v, S::TARGET_KEY, "a string", |t| t.as_str().map(str::to_string))?,
            max_events: optional(v, "max_events", "a non-negative integer", Json::as_u64)?,
        })
    }
}

/// A complete fault configuration: the seed of the event stream plus the
/// rules, evaluated in order at each opportunity.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan<S> {
    /// Seed of the fault-event RNG stream.
    pub seed: u64,
    /// The rules.
    pub rules: Vec<Rule<S>>,
}

impl<S: Site> Plan<S> {
    /// The no-fault plan: runs armed with it inject nothing.
    pub fn empty() -> Self {
        Self { seed: 0, rules: Vec::new() }
    }

    /// Whether the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Checks every rule: rates must be finite and in `[0, 1]`, fixed bits
    /// must fit the site's word width.
    ///
    /// # Errors
    ///
    /// The family's plan error, naming the offending rule.
    pub fn validate(&self) -> Result<(), S::Error> {
        for (i, r) in self.rules.iter().enumerate() {
            let problem = match (r.bit, r.site.bit_width()) {
                _ if !r.rate.is_finite() || !(0.0..=1.0).contains(&r.rate) => {
                    format!("rate {} outside [0, 1]", r.rate)
                }
                (Some(_), 0) => "the site takes no bit".to_string(),
                (Some(bit), width) if bit >= width => {
                    format!("bit {bit} exceeds the site's {width}-bit word")
                }
                _ => continue,
            };
            return Err(bad(format!("rule {i} ({}): {problem}", r.site.name())).into());
        }
        Ok(())
    }

    /// Serializes the plan to its JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::U64(self.seed)),
            ("rules", Json::arr(self.rules.iter().map(Rule::to_json))),
        ])
    }

    /// Builds a validated plan from a parsed JSON value.
    ///
    /// # Errors
    ///
    /// The family's plan error on unknown keys, bad types, unknown sites,
    /// or rules that fail [`Self::validate`].
    pub fn from_json(v: &Json) -> Result<Self, S::Error> {
        let Json::Object(entries) = v else {
            return Err(bad("fault plan must be a JSON object").into());
        };
        if let Some((key, _)) = entries.iter().find(|(k, _)| !matches!(k.as_str(), "seed" | "rules")) {
            return Err(bad(format!("unknown fault-plan key '{key}'")).into());
        }
        let seed = match v.get("seed") {
            None => 0,
            Some(s) => s
                .as_u64()
                .ok_or_else(|| bad("'seed' must be a non-negative integer"))?,
        };
        let rules = match v.get("rules") {
            None => Vec::new(),
            Some(Json::Array(items)) => {
                items.iter().map(Rule::<S>::from_json).collect::<Result<Vec<_>, _>>()?
            }
            Some(_) => return Err(bad("'rules' must be an array").into()),
        };
        let plan = Plan { seed, rules };
        plan.validate()?;
        Ok(plan)
    }

    /// Parses and validates a plan from JSON text.
    ///
    /// # Errors
    ///
    /// As [`Self::from_json`], plus the family's plan error on JSON syntax
    /// errors.
    pub fn parse(text: &str) -> Result<Self, S::Error> {
        let v = Json::parse(text).map_err(|e| bad(e.to_string()))?;
        Self::from_json(&v)
    }
}

/// Per-site event counts accumulated by an [`Injector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters<S> {
    counts: Vec<u64>,
    sites: PhantomData<S>,
}

impl<S: Site> Default for Counters<S> {
    fn default() -> Self {
        Self { counts: vec![0; S::ALL.len()], sites: PhantomData }
    }
}

impl<S: Site> Counters<S> {
    fn index(site: S) -> usize {
        S::ALL.iter().position(|&s| s == site).expect("site listed in Site::ALL")
    }

    /// This site's event count.
    pub fn count(&self, site: S) -> u64 {
        self.counts[Self::index(site)]
    }

    /// Total events across all sites.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Serializes the counters as a schema object (site name → count, in
    /// schema order, then `total`).
    pub fn to_json(&self) -> Json {
        let mut entries: Vec<(String, Json)> = S::ALL
            .iter()
            .map(|&s| (s.name().to_string(), Json::U64(self.count(s))))
            .collect();
        entries.push(("total".to_string(), Json::U64(self.total())));
        Json::Object(entries)
    }
}

struct RuleState<S> {
    rule: Rule<S>,
    fired: u64,
}

impl<S: Site> RuleState<S> {
    fn remaining(&self) -> u64 {
        match self.rule.max_events {
            Some(cap) => cap.saturating_sub(self.fired),
            None => u64::MAX,
        }
    }

    fn matches(&self, site: S, target: Option<&str>) -> bool {
        self.rule.site == site
            && self.remaining() > 0
            && match (&self.rule.target, target) {
                (None, _) => true,
                (Some(want), Some(have)) => S::target_matches(want, have),
                (Some(_), None) => false,
            }
    }
}

/// Draws fault events from a [`Plan`]'s seeded RNG stream and counts what
/// fired. See the [module docs](self) for the draw discipline.
pub struct Injector<S> {
    rng: XorShiftRng,
    rules: Vec<RuleState<S>>,
    counters: Counters<S>,
}

impl<S: Site> Injector<S> {
    /// Creates an injector after validating the plan.
    ///
    /// # Errors
    ///
    /// The family's plan error when the plan fails validation.
    pub fn new(plan: &Plan<S>) -> Result<Self, S::Error> {
        plan.validate()?;
        Ok(Self {
            rng: XorShiftRng::new(plan.seed),
            rules: plan.rules.iter().map(|r| RuleState { rule: r.clone(), fired: 0 }).collect(),
            counters: Counters::default(),
        })
    }

    /// Whether any non-exhausted rule targets `site` (lets hot paths skip
    /// fault plumbing entirely when a site is unused).
    pub fn targets(&self, site: S) -> bool {
        self.rules.iter().any(|r| r.rule.site == site && r.remaining() > 0)
    }

    /// Event counts so far.
    pub fn counters(&self) -> Counters<S> {
        self.counters.clone()
    }

    /// One opportunity at `site` (optionally at `target`). Returns the
    /// firing rule's fixed bit (`Some(None)` for a rule without one).
    fn fire(&mut self, site: S, target: Option<&str>) -> Option<Option<u32>> {
        let mut hit = None;
        for rs in &mut self.rules {
            if !rs.matches(site, target) {
                continue;
            }
            // Always burn the draw: keeps the stream aligned whether or
            // not this opportunity fires.
            let roll = self.rng.next_f64();
            if roll < rs.rule.rate && hit.is_none() {
                rs.fired += 1;
                hit = Some(rs.rule.bit);
            }
        }
        if hit.is_some() {
            self.counters.counts[Counters::index(site)] += 1;
        }
        hit
    }

    /// One opportunity: whether a rule fires.
    pub fn fires(&mut self, site: S, target: Option<&str>) -> bool {
        self.fire(site, target).is_some()
    }

    /// One opportunity: the bit index to corrupt if a rule fires (the
    /// rule's fixed bit, else one drawn below the site's word width).
    pub fn draw_bit(&mut self, site: S, target: Option<&str>) -> Option<u32> {
        let bit = self.fire(site, target)?;
        Some(bit.unwrap_or_else(|| {
            self.rng.next_below(site.bit_width().max(1) as usize) as u32
        }))
    }

    /// Bulk sampling for `opportunities` independent chances at `site`
    /// (where per-opportunity draws would be absurd): each matching rule
    /// contributes its expected count plus one Bernoulli draw on the
    /// fractional part, capped by `max_events`. Returns the event count.
    pub fn draw_count(&mut self, site: S, target: Option<&str>, opportunities: u64) -> u64 {
        let mut events = 0u64;
        for rs in &mut self.rules {
            if opportunities == 0 || !rs.matches(site, target) {
                continue;
            }
            let expected = rs.rule.rate * opportunities as f64;
            let whole = expected.floor();
            let extra = u64::from(self.rng.next_f64() < expected - whole);
            let n = (whole as u64 + extra).min(opportunities).min(rs.remaining());
            rs.fired += n;
            events += n;
        }
        self.counters.counts[Counters::index(site)] += events;
        events
    }

    /// Extra randomness for a fired event: uniform in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn draw_below(&mut self, bound: usize) -> usize {
        self.rng.next_below(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two family shapes the workspace uses: word-width sites targeted
    /// by equality (`Hw`), and bit-less sites targeted by substring (`Io`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Hw {
        Reg,
        Nibble,
        Stall,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Io {
        Write,
        Read,
    }

    impl Site for Hw {
        type Error = FaultPlanError;
        const ALL: &'static [Hw] = &[Hw::Reg, Hw::Nibble, Hw::Stall];
        const TARGET_KEY: &'static str = "layer";
        fn name(self) -> &'static str {
            ["reg", "nibble", "stall"][self as usize]
        }
        fn bit_width(self) -> u32 {
            [8, 4, 1][self as usize]
        }
        fn target_matches(want: &str, have: &str) -> bool {
            want == have
        }
    }

    impl Site for Io {
        type Error = FaultPlanError;
        const ALL: &'static [Io] = &[Io::Write, Io::Read];
        const TARGET_KEY: &'static str = "path_substr";
        fn name(self) -> &'static str {
            ["write", "read"][self as usize]
        }
        fn bit_width(self) -> u32 {
            0
        }
        fn target_matches(want: &str, have: &str) -> bool {
            have.contains(want)
        }
    }

    fn injector<S: Site<Error = FaultPlanError>>(seed: u64, rules: Vec<Rule<S>>) -> Injector<S> {
        Injector::new(&Plan { seed, rules }).unwrap()
    }

    #[test]
    fn plan_json_round_trips_byte_for_byte() {
        for text in [
            r#"{"seed":99,"rules":[{"site":"reg","rate":0.25,"bit":5,"layer":"conv1","max_events":3},{"site":"stall","rate":0.001}]}"#,
            r#"{"seed":0,"rules":[]}"#,
        ] {
            assert_eq!(Plan::<Hw>::parse(text).unwrap().to_json().to_string(), text);
        }
        let text = r#"{"seed":7,"rules":[{"site":"write","rate":1,"path_substr":"front.json","max_events":1}]}"#;
        let io = Plan::<Io>::parse(text).unwrap();
        assert_eq!(io.rules[0].target.as_deref(), Some("front.json"));
        assert_eq!(io.to_json().to_string(), text);
        assert_eq!(Plan::<Io>::parse("{}").unwrap(), Plan::empty());
    }

    #[test]
    fn plan_validation_rejects_bad_input() {
        for bad in [
            r#"{"rules": [{"site": "stall", "rate": 1.5}]}"#,
            r#"{"rules": [{"site": "stall", "rate": -0.1}]}"#,
            r#"{"rules": [{"site": "reg", "rate": 0.1, "bit": 8}]}"#,
            r#"{"rules": [{"site": "nibble", "rate": 0.1, "bit": 4}]}"#,
            r#"{"rules": [{"site": "reg", "rate": 0.1, "bit": -1}]}"#,
            r#"{"rules": [{"site": "reg", "rate": 0.1, "layer": 3}]}"#,
            r#"{"rules": [{"site": "reg", "rate": 0.1, "path_substr": "x"}]}"#,
            r#"{"rules": [{"site": "reg", "rate": 0.1, "max_events": 0.5}]}"#,
            r#"{"rules": [{"site": "warp_core_breach", "rate": 0.1}]}"#,
            r#"{"rules": [{"site": "stall"}]}"#,
            r#"{"rules": [{"site": "stall", "rate": 0.1, "typo": 1}]}"#,
            r#"{"rules": [7]}"#,
            r#"{"rules": {}}"#,
            r#"{"seed": null}"#,
            r#"{"bogus_key": 1}"#,
            r#"[]"#,
            r#"not json"#,
        ] {
            assert!(Plan::<Hw>::parse(bad).is_err(), "{bad}");
        }
        for bad in [
            r#"{"rules": [{"site": "write", "rate": 0.1, "bit": 1}]}"#,
            r#"{"rules": [{"site": "write", "rate": 0.1, "layer": "conv1"}]}"#,
        ] {
            assert!(Plan::<Io>::parse(bad).is_err(), "{bad}");
        }
        // A bit set in code on a bit-less family fails validation too.
        let plan = Plan { seed: 1, rules: vec![Rule::new(Io::Read, 0.5).with_bit(0)] };
        assert!(Injector::new(&plan).is_err_and(|e| e.detail.contains("takes no bit")));
    }

    #[test]
    fn every_matching_rule_burns_one_draw_and_the_first_hit_fires() {
        let mut inj = injector(3, vec![Rule::new(Hw::Reg, 1.0).with_bit(1), Rule::new(Hw::Reg, 1.0)]);
        assert_eq!(inj.draw_bit(Hw::Reg, None), Some(1));
        assert_eq!(inj.counters().count(Hw::Reg), 1, "one event per opportunity");
        // Two rolls, then the random bit of the firing rule, then extras.
        let mut rng = XorShiftRng::new(3);
        let mut inj = injector(3, vec![Rule::new(Hw::Nibble, 1.0), Rule::new(Hw::Nibble, 0.0)]);
        let bit = inj.draw_bit(Hw::Nibble, None).unwrap();
        rng.next_f64();
        rng.next_f64();
        assert_eq!(bit, rng.next_below(4) as u32);
        assert_eq!(inj.draw_below(1000), rng.next_below(1000));
        // Replays: the same plan over the same opportunities.
        let run = || {
            let mut inj = injector(7, vec![Rule::new(Hw::Reg, 0.3), Rule::new(Hw::Reg, 0.2)]);
            (0..200).map(|_| inj.draw_bit(Hw::Reg, None)).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(Option::is_some) && a.iter().any(Option::is_none));
        assert!(a.iter().flatten().all(|&b| b < 8), "random bits fit the word");
    }

    #[test]
    fn max_events_caps_firing() {
        let mut inj = injector(1, vec![Rule::new(Hw::Reg, 1.0).with_max_events(2)]);
        assert_eq!((0..10).filter(|_| inj.draw_bit(Hw::Reg, None).is_some()).count(), 2);
        assert_eq!(inj.counters().count(Hw::Reg), 2);
        assert!(!inj.targets(Hw::Reg));
        let mut inj = injector(1, vec![Rule::new(Hw::Stall, 1.0).with_max_events(30)]);
        let counts: Vec<u64> = (0..3).map(|_| inj.draw_count(Hw::Stall, None, 20)).collect();
        assert_eq!(counts, [20, 10, 0]);
    }

    #[test]
    fn target_filters_apply() {
        let mut inj = injector(1, vec![Rule::new(Hw::Stall, 1.0).with_target("conv2")]);
        assert_eq!(inj.draw_count(Hw::Stall, Some("conv1"), 100), 0);
        assert_eq!(inj.draw_count(Hw::Stall, None, 100), 0, "no target, no match");
        assert_eq!(inj.draw_count(Hw::Stall, Some("conv22"), 100), 0, "equality");
        assert_eq!(inj.draw_count(Hw::Stall, Some("conv2"), 100), 100);
        let mut inj = injector(1, vec![Rule::new(Io::Write, 1.0).with_target("front.json")]);
        assert!(!inj.fires(Io::Write, Some("other.bin")));
        assert!(!inj.fires(Io::Read, Some("front.json")), "other site");
        assert!(inj.fires(Io::Write, Some("runs/front.json.tmp")), "substring");
    }

    #[test]
    fn bulk_count_tracks_expectation_and_counters_serialize_in_schema_order() {
        let mut inj = injector(3, vec![Rule::new(Hw::Stall, 0.01)]);
        let n = inj.draw_count(Hw::Stall, None, 1_000_000);
        assert!((9_000..=11_000).contains(&n), "{n}");
        assert_eq!((inj.counters().count(Hw::Stall), inj.counters().total()), (n, n));
        let mut inj = injector(1, vec![Rule::new(Io::Read, 1.0)]);
        (0..4).for_each(|_| assert!(inj.fires(Io::Read, Some("a"))));
        assert_eq!(inj.counters().to_json().to_string(), r#"{"write":0,"read":4,"total":4}"#);
    }
}
