//! The full DRQ accelerator: architecture configuration, per-layer
//! simulation, and network-level reports.

use crate::faults::{FaultCounters, FaultPlan};
use crate::partition::stream_seed;
use crate::{
    metrics, EnergyBreakdown, EnergyModel, LayerCycleModel, LayerCycles, SimError,
};
use drq_core::{DrqConfig, RegionSize};
use drq_models::{ConvLayerSpec, FeatureMapSynthesizer, NetworkTopology};
use drq_quant::Precision;
use drq_telemetry::{counter_add, observe, Json, Report};
use drq_tensor::XorShiftRng;
use std::collections::BTreeMap;

/// Architecture parameters of the DRQ accelerator (Table II row "DRQ").
///
/// # Examples
///
/// ```
/// use drq_sim::ArchConfig;
///
/// let cfg = ArchConfig::paper_default();
/// assert_eq!(cfg.total_pes(), 3168);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchConfig {
    /// Number of PE pages.
    pub pages: usize,
    /// PE rows per page.
    pub rows: usize,
    /// PE columns per page.
    pub cols: usize,
    /// Clock frequency in MHz (the paper evaluates at 500 MHz).
    pub frequency_mhz: f64,
    /// Global buffer capacity in bytes (5 MB for every accelerator in
    /// Table II).
    pub global_buffer_bytes: usize,
    /// The DRQ algorithm configuration (base region and threshold).
    pub drq: DrqConfig,
}

impl ArchConfig {
    /// The paper's configuration: 16 pages of 18×11 PEs (3168 INT4 MACs),
    /// 500 MHz, 5 MB global buffer, 4×16 regions with threshold 21
    /// (the ResNet-18 operating point of Table III).
    pub fn paper_default() -> Self {
        Self {
            pages: 16,
            rows: 18,
            cols: 11,
            frequency_mhz: 500.0,
            global_buffer_bytes: 5 * 1024 * 1024,
            drq: DrqConfig::new(RegionSize::new(4, 16), 21.0),
        }
    }

    /// Total PE count.
    pub fn total_pes(&self) -> usize {
        self.pages * self.rows * self.cols
    }

    /// Starts a builder at the paper's configuration. This is the one entry
    /// point for configuring both the architecture *and* the simulator
    /// models (energy, feature-map synthesis); `build()` returns the
    /// accelerator directly.
    ///
    /// # Examples
    ///
    /// ```
    /// use drq_sim::ArchConfig;
    /// use drq_core::{DrqConfig, RegionSize};
    ///
    /// let accel = ArchConfig::builder()
    ///     .drq(DrqConfig::new(RegionSize::new(4, 16), 30.0))
    ///     .geometry(8, 18, 22)
    ///     .build();
    /// assert_eq!(accel.config().total_pes(), 3168);
    /// ```
    pub fn builder() -> ArchBuilder {
        ArchBuilder::new()
    }
}

/// Builder over [`ArchConfig`] plus the simulator's pluggable models:
/// every knob is set in one place and [`ArchBuilder::build`] returns the
/// ready [`DrqAccelerator`]. Starts from
/// [`ArchConfig::paper_default`], [`EnergyModel::tsmc45`] and the default
/// [`FeatureMapSynthesizer`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArchBuilder {
    config: ArchConfig,
    energy: EnergyModel,
    synth: FeatureMapSynthesizer,
}

impl ArchBuilder {
    /// Starts at the paper defaults (prefer [`ArchConfig::builder`]).
    pub fn new() -> Self {
        Self {
            config: ArchConfig::paper_default(),
            energy: EnergyModel::tsmc45(),
            synth: FeatureMapSynthesizer::default(),
        }
    }

    /// Sets the DRQ algorithm configuration (region size and threshold).
    pub fn drq(mut self, drq: DrqConfig) -> Self {
        self.config.drq = drq;
        self
    }

    /// Sets the PE-array organization.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn geometry(self, pages: usize, rows: usize, cols: usize) -> Self {
        self.try_geometry(pages, rows, cols).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`ArchBuilder::geometry`].
    pub fn try_geometry(
        mut self,
        pages: usize,
        rows: usize,
        cols: usize,
    ) -> Result<Self, SimError> {
        if pages == 0 || rows == 0 || cols == 0 {
            return Err(SimError::InvalidGeometry {
                context: "arch builder",
                detail: format!(
                    "geometry must be positive (got {pages} pages of {rows}x{cols})"
                ),
            });
        }
        self.config.pages = pages;
        self.config.rows = rows;
        self.config.cols = cols;
        Ok(self)
    }

    /// Sets the clock frequency in MHz.
    pub fn frequency_mhz(mut self, mhz: f64) -> Self {
        self.config.frequency_mhz = mhz;
        self
    }

    /// Sets the global-buffer capacity in bytes.
    pub fn global_buffer_bytes(mut self, bytes: usize) -> Self {
        self.config.global_buffer_bytes = bytes;
        self
    }

    /// Overrides the energy model.
    pub fn energy_model(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Overrides the feature-map synthesizer.
    pub fn synthesizer(mut self, synth: FeatureMapSynthesizer) -> Self {
        self.synth = synth;
        self
    }

    /// The architecture configuration accumulated so far (for callers that
    /// only need the config, not a simulator).
    pub fn config(&self) -> ArchConfig {
        self.config
    }

    /// Finishes the builder, returning the configured accelerator.
    pub fn build(self) -> DrqAccelerator {
        DrqAccelerator { config: self.config, energy: self.energy, synth: self.synth }
    }

    /// Like [`ArchBuilder::build`], but re-validates the whole accumulated
    /// configuration (geometry, frequency, buffer capacity) and returns a
    /// typed error instead of deferring to downstream panics.
    pub fn try_build(self) -> Result<DrqAccelerator, SimError> {
        let c = &self.config;
        if c.pages == 0 || c.rows == 0 || c.cols == 0 {
            return Err(SimError::InvalidGeometry {
                context: "arch builder",
                detail: format!(
                    "geometry must be positive (got {} pages of {}x{})",
                    c.pages, c.rows, c.cols
                ),
            });
        }
        if !(c.frequency_mhz.is_finite() && c.frequency_mhz > 0.0) {
            return Err(SimError::InvalidParameter {
                context: "arch builder",
                detail: format!("frequency must be positive (got {} MHz)", c.frequency_mhz),
            });
        }
        if c.global_buffer_bytes == 0 {
            return Err(SimError::InvalidGeometry {
                context: "arch builder",
                detail: "global buffer must have capacity".into(),
            });
        }
        Ok(self.build())
    }
}

impl Default for ArchBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-layer simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name from the topology.
    pub name: String,
    /// Block label (C1/B1/... for ResNet-18).
    pub block: String,
    /// Cycle and MAC breakdown.
    pub cycles: LayerCycles,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Mean sensitive-region fraction of this layer's input.
    pub sensitive_fraction: f64,
}

impl LayerReport {
    /// Serializes the layer under the schema's per-layer object shape (the
    /// same objects that appear in `NetworkSimReport::to_report()`'s
    /// `layers` array).
    pub fn to_json(&self) -> Json {
        metrics::layer_json(self)
    }
}

/// Whole-network simulation result.
///
/// All accessors delegate to the shared aggregation in [`crate::metrics`] —
/// the same code path that serializes [`NetworkSimReport::to_report`] — so
/// the struct's numbers and the schema JSON cannot drift apart.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSimReport {
    /// The simulated network's name.
    pub network: String,
    /// The feature-map synthesis seed this run used.
    pub seed: u64,
    /// Per-layer reports in execution order.
    pub layers: Vec<LayerReport>,
    /// Clock frequency used for time conversion (MHz).
    pub frequency_mhz: f64,
}

impl NetworkSimReport {
    /// Total execution cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total_layer_cycles().total_cycles()
    }

    /// Total execution time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_cycles() as f64 / (self.frequency_mhz * 1e3)
    }

    /// Total energy breakdown.
    pub fn total_energy(&self) -> EnergyBreakdown {
        metrics::total_energy(&self.layers)
    }

    /// Aggregate cycle counters.
    pub fn total_layer_cycles(&self) -> LayerCycles {
        metrics::total_layer_cycles(&self.layers)
    }

    /// Network-wide 4-bit MAC percentage (Fig. 11's bit-mix metric).
    pub fn int4_fraction(&self) -> f64 {
        self.total_layer_cycles().int4_fraction()
    }

    /// Network-wide stall ratio (Fig. 14's metric).
    pub fn stall_ratio(&self) -> f64 {
        self.total_layer_cycles().stall_ratio()
    }

    /// Per-block cycle breakdown for the Fig. 16 utilization plot:
    /// `block → (int4 compute, int8 compute, weight load, fill/data)`.
    pub fn block_breakdown(&self) -> BTreeMap<String, [u64; 4]> {
        metrics::block_breakdown(&self.layers)
    }

    /// Serializes the run under the versioned `network_sim` schema. Byte
    /// stable for a fixed seed and configuration.
    pub fn to_report(&self) -> Report {
        metrics::network_report(self)
    }
}

/// Cross-image summary from [`crate::SimSession::run_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSimSummary {
    /// The simulated network's name.
    pub network: String,
    /// Number of images simulated.
    pub images: usize,
    /// Mean total cycles per image.
    pub mean_cycles: f64,
    /// Standard deviation of total cycles across images.
    pub stddev_cycles: f64,
    /// Fastest image.
    pub min_cycles: u64,
    /// Slowest image.
    pub max_cycles: u64,
    /// Mean 4-bit MAC fraction.
    pub mean_int4_fraction: f64,
}

impl BatchSimSummary {
    /// Coefficient of variation of the per-image cycle counts.
    pub fn cycle_cv(&self) -> f64 {
        if self.mean_cycles == 0.0 {
            0.0
        } else {
            self.stddev_cycles / self.mean_cycles
        }
    }

    /// Serializes the summary under the versioned `batch_sim` schema.
    pub fn to_report(&self) -> Report {
        metrics::batch_report(self)
    }
}

/// Result of a fault-injected network run (a [`crate::SimSession`] with an armed
/// [`FaultPlan`]).
///
/// Carries the ordinary [`NetworkSimReport`] (the baseline behaviour —
/// identical to the un-faulted session for the same seed) plus the
/// reliability view: what the plan injected, how many cycles the spurious
/// stalls added, and how much DRAM energy the dropped/duplicated bursts
/// cost in refetch traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityReport {
    /// The baseline simulation this reliability run perturbed.
    pub report: NetworkSimReport,
    /// The fault plan that drove the injection.
    pub plan: FaultPlan,
    /// Per-site injected-event counts.
    pub counters: FaultCounters,
    /// Total cycles of the fault-free run.
    pub baseline_cycles: u64,
    /// Total cycles including injected stalls.
    pub degraded_cycles: u64,
    /// Extra DRAM energy from burst refetches/duplicates, in pJ.
    pub extra_dram_pj: f64,
}

impl ReliabilityReport {
    /// Degraded-over-baseline cycle ratio (`1.0` = no slowdown).
    pub fn slowdown(&self) -> f64 {
        if self.baseline_cycles == 0 {
            1.0
        } else {
            self.degraded_cycles as f64 / self.baseline_cycles as f64
        }
    }

    /// Serializes the run under the versioned `reliability` schema.
    pub fn to_report(&self) -> Report {
        metrics::reliability_report(self)
    }
}

/// The DRQ accelerator simulator.
///
/// For each layer the simulator synthesizes a post-BN+ReLU input feature
/// map (Section II statistics), runs the sensitivity predictor at the
/// layer's effective region/threshold (deep-layer rules included), and
/// evaluates the variable-speed systolic cycle model plus the energy model.
///
/// # Examples
///
/// ```
/// use drq_sim::{ArchConfig, DrqAccelerator, SimSession};
/// use drq_models::zoo;
///
/// let accel = DrqAccelerator::new(ArchConfig::paper_default());
/// let net = zoo::lenet5();
/// let run = SimSession::new(&accel, &net).seed(1).run().unwrap();
/// assert_eq!(run.report().layers.len(), net.layers.len());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DrqAccelerator {
    config: ArchConfig,
    energy: EnergyModel,
    synth: FeatureMapSynthesizer,
}

/// Output of one partitioned-simulation shard: per-layer reports for its
/// contiguous layer range, the shard-local virtual-clock stamp at which
/// each layer retires, and the shard's total cycles (the amount by which
/// the merge advances the global clock).
pub(crate) struct ShardOutput {
    pub(crate) reports: Vec<LayerReport>,
    pub(crate) retire_cycles: Vec<u64>,
    pub(crate) total_cycles: u64,
}

/// Per-layer memory-traffic summary shared between energy accounting and
/// the `sim/bytes/*` telemetry counters.
struct LayerTraffic {
    dram_bytes: f64,
    buffer_bytes: f64,
    occupancy: f64,
}

impl DrqAccelerator {
    /// Creates a simulator with default energy model and feature synthesis.
    pub fn new(config: ArchConfig) -> Self {
        Self {
            config,
            energy: EnergyModel::tsmc45(),
            synth: FeatureMapSynthesizer::default(),
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> ArchConfig {
        self.config
    }

    /// The energy model in use (for the fault post-pass).
    pub(crate) fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Simulates one layer given externally produced masks.
    ///
    /// When global metrics collection is enabled, records `sim/*` counters
    /// (layers, cycle and MAC mixes, stalls) as a side channel — recording
    /// never influences the returned report.
    pub fn simulate_layer(
        &self,
        spec: &ConvLayerSpec,
        masks: &[drq_core::MaskMap],
        sensitive_fraction: f64,
    ) -> LayerReport {
        let report = self.simulate_layer_quiet(spec, masks, sensitive_fraction);
        self.record_layer_metrics(spec, &report);
        report
    }

    /// The pure layer simulation: no telemetry side channel. Shard workers
    /// call this so recording happens once, on the merging thread, in
    /// execution order ([`DrqAccelerator::record_layer_metrics`]).
    pub(crate) fn simulate_layer_quiet(
        &self,
        spec: &ConvLayerSpec,
        masks: &[drq_core::MaskMap],
        sensitive_fraction: f64,
    ) -> LayerReport {
        let model = LayerCycleModel::new(self.config.rows, self.config.cols, self.config.pages);
        let cycles = model.simulate_layer(spec, masks);
        let energy = self.layer_energy(spec, &cycles, sensitive_fraction);
        LayerReport {
            name: spec.name.clone(),
            block: spec.block.clone(),
            cycles,
            energy,
            sensitive_fraction,
        }
    }

    /// Records the `sim/*` telemetry side channel for one simulated layer.
    /// Pure observation: never influences any report.
    pub(crate) fn record_layer_metrics(&self, spec: &ConvLayerSpec, report: &LayerReport) {
        let cycles = &report.cycles;
        counter_add!("sim/layers", 1);
        counter_add!("sim/cycles/total", cycles.total_cycles());
        counter_add!("sim/cycles/compute", cycles.compute_cycles);
        counter_add!("sim/cycles/weight_load", cycles.weight_load_cycles);
        counter_add!("sim/cycles/fill", cycles.fill_cycles);
        counter_add!("sim/pe_cycles/stall", cycles.stall_pe_cycles);
        counter_add!("sim/macs/int4", cycles.int4_macs);
        counter_add!("sim/macs/int8", cycles.int8_macs);
        observe!("sim/layer/stall_ratio", cycles.stall_ratio());
        observe!("sim/layer/int4_fraction", cycles.int4_fraction());
        observe!("sim/layer/sensitive_fraction", report.sensitive_fraction);
        let traffic = self.layer_traffic(spec, report.sensitive_fraction);
        counter_add!("sim/bytes/dram", traffic.dram_bytes as u64);
        counter_add!("sim/bytes/buffer", traffic.buffer_bytes as u64);
        observe!("sim/buffer/occupancy", traffic.occupancy);
    }

    /// Simulates one contiguous layer range against a shard-local virtual
    /// clock starting at zero. Layer `i` draws from its own RNG substream
    /// (`stream_seed(seed, i)`), so the output depends only on
    /// `(config, net, seed, range)` — never on which shard or thread runs
    /// it. This is the worker body of a partitioned [`crate::SimSession`].
    pub(crate) fn simulate_shard(
        &self,
        net: &NetworkTopology,
        seed: u64,
        range: std::ops::Range<usize>,
    ) -> ShardOutput {
        let n_layers = net.layers.len().max(1);
        let mut reports = Vec::with_capacity(range.len());
        let mut retire_cycles = Vec::with_capacity(range.len());
        let mut clock: u64 = 0;
        for i in range {
            let spec = &net.layers[i];
            let depth = i as f64 / n_layers as f64;
            let synth = self.synth.for_depth(depth);
            let mut rng = XorShiftRng::new(stream_seed(seed, i as u64));
            let (masks, frac) = synth.masks_for_layer(spec, &self.config.drq, depth, &mut rng);
            let report = self.simulate_layer_quiet(spec, &masks, frac);
            clock += report.cycles.total_cycles();
            retire_cycles.push(clock);
            reports.push(report);
        }
        ShardOutput { reports, retire_cycles, total_cycles: clock }
    }

    /// Memory-traffic accounting for one layer (weight-stationary
    /// dataflow, Section VI-A). Pure: the single source of the byte counts
    /// feeding both the energy breakdown ([`Self::layer_energy`]) and the
    /// `sim/bytes/*` telemetry ([`Self::record_layer_metrics`]), so the two
    /// cannot drift apart.
    ///
    /// * DRAM: weights always INT8; activations at their packed mixed
    ///   width (4/8 bits by sensitivity) plus the region-mask bits; outputs
    ///   written back packed.
    /// * Global buffer: inputs re-streamed once per pass (row tile ×
    ///   column tile), weights read once per tile, 16-bit partial sums
    ///   spilled once per extra row tile.
    fn layer_traffic(&self, spec: &ConvLayerSpec, sensitive_fraction: f64) -> LayerTraffic {
        let f = sensitive_fraction.clamp(0.0, 1.0);
        let weight_bytes = spec.weight_count() as f64; // INT8 in DRAM
        let input_bytes = spec.input_count() as f64 * (0.5 + 0.5 * f);
        let mask_bytes = spec.input_count() as f64 / 8.0 / 64.0; // ~1 bit / 64 px region
        let output_bytes = spec.output_count() as f64 * (0.5 + 0.5 * f);
        // Weights always come from DRAM; activations only when a map spills
        // the 5 MB global buffer.
        let dram_bytes = weight_bytes
            + mask_bytes
            + crate::dram_activation_bytes(
                input_bytes,
                output_bytes,
                self.config.global_buffer_bytes as f64,
            );

        // Global-buffer traffic: each tap tile re-reads the input stream
        // (filter tiles within a tap tile replay from the cheap line
        // buffer), weights are read once, 16-bit partial sums spill per
        // extra tap tile.
        let taps = (spec.in_c / spec.groups) * spec.kh * spec.kw;
        let row_tiles = taps.div_ceil(self.config.rows) as f64;
        let buffer_bytes = input_bytes * row_tiles.min(4.0)
            + weight_bytes
            + spec.output_count() as f64 * 2.0 * row_tiles.min(4.0);

        let occupancy =
            ((input_bytes + output_bytes) / self.config.global_buffer_bytes as f64).min(1.0);
        LayerTraffic { dram_bytes, buffer_bytes, occupancy }
    }

    /// Energy accounting for one layer, built on [`Self::layer_traffic`]
    /// plus per-MAC core energies by precision. The systolic array shifts
    /// operands between neighbours, so no per-MAC register-file penalty
    /// applies (unlike the OLAccel baseline).
    fn layer_energy(
        &self,
        spec: &ConvLayerSpec,
        cycles: &LayerCycles,
        sensitive_fraction: f64,
    ) -> EnergyBreakdown {
        let traffic = self.layer_traffic(spec, sensitive_fraction);

        // Sensitivity-predictor overhead (Section IV-E claims it is
        // negligible; charging it keeps that claim checkable): with pooling
        // reuse, one accumulate per pooling window plus one compare per
        // region, per output channel, at register-file cost.
        let layer_cfg = self.config.drq.for_feature_map(spec.out_h().max(1), spec.out_w().max(1));
        let predictor_ops = crate::PredictorUnit::new(layer_cfg.region, 2)
            .extra_ops_per_channel(spec.out_h().max(1), spec.out_w().max(1))
            * spec.out_c as u64;
        let predictor_pj = predictor_ops as f64 * self.energy.rf_pj_per_access();

        EnergyBreakdown {
            dram_pj: traffic.dram_bytes * self.energy.dram_pj_per_byte(),
            buffer_pj: traffic.buffer_bytes * self.energy.buffer_pj_per_byte(),
            core_pj: self
                .energy
                .core_macs_pj(cycles.int4_macs, cycles.int8_macs, 0)
                + predictor_pj,
        }
    }

    /// The fraction of a layer's core energy spent in the sensitivity
    /// predictor — the quantitative form of Section IV-E's "negligible
    /// performance overhead" claim on the energy side.
    pub fn predictor_energy_fraction(&self, spec: &ConvLayerSpec) -> f64 {
        let layer_cfg = self.config.drq.for_feature_map(spec.out_h().max(1), spec.out_w().max(1));
        let predictor_ops = crate::PredictorUnit::new(layer_cfg.region, 2)
            .extra_ops_per_channel(spec.out_h().max(1), spec.out_w().max(1))
            * spec.out_c as u64;
        let predictor_pj = predictor_ops as f64 * self.energy.rf_pj_per_access();
        let mac_pj = self.energy.core_macs_pj(spec.macs(), 0, 0);
        predictor_pj / (predictor_pj + mac_pj).max(f64::MIN_POSITIVE)
    }

    /// Equivalent-INT8 peak throughput in MAC/cycle (for sanity checks):
    /// 3168 INT4 MACs equal 792 INT8 MACs per cycle.
    pub fn peak_macs_per_cycle(&self, precision: Precision) -> f64 {
        self.config.total_pes() as f64 / precision.int4_subops() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_models::zoo::{self, InputRes};

    fn sim(accel: &DrqAccelerator, net: &NetworkTopology, seed: u64) -> NetworkSimReport {
        accel.session(net).seed(seed).run().expect("clean simulation cannot fail").into_report()
    }

    fn sim_faulted(
        accel: &DrqAccelerator,
        net: &NetworkTopology,
        seed: u64,
        plan: &FaultPlan,
    ) -> Result<ReliabilityReport, SimError> {
        Ok(accel
            .session(net)
            .seed(seed)
            .faults(plan.clone())
            .run()?
            .into_reliability()
            .expect("armed plan yields a reliability view"))
    }

    #[test]
    fn paper_config_has_table2_pe_count() {
        let cfg = ArchConfig::paper_default();
        assert_eq!(cfg.total_pes(), 3168);
        assert_eq!(cfg.pages, 16);
        assert_eq!(cfg.rows, 18);
        assert_eq!(cfg.cols, 11);
    }

    #[test]
    fn lenet_simulation_is_mostly_int4() {
        let accel = DrqAccelerator::new(ArchConfig::paper_default());
        let report = sim(&accel, &zoo::lenet5(), 7);
        let frac = report.int4_fraction();
        assert!(frac > 0.6, "int4 fraction {frac}");
        assert!(report.total_cycles() > 0);
        assert!(report.total_energy().total_pj() > 0.0);
    }

    #[test]
    fn resnet18_cifar_simulates_quickly_and_sanely() {
        let accel = DrqAccelerator::new(ArchConfig::paper_default());
        let net = zoo::resnet18(InputRes::Cifar);
        let report = sim(&accel, &net, 3);
        assert_eq!(report.layers.len(), net.layers.len());
        // Compute must dominate overheads on conv-heavy networks.
        let t = report.total_layer_cycles();
        assert!(t.compute_cycles > t.weight_load_cycles);
        // Blocks of Fig. 16 all present.
        let blocks = report.block_breakdown();
        for b in ["C1", "B1", "B2", "B3", "B4"] {
            assert!(blocks.contains_key(b), "missing block {b}");
        }
    }

    #[test]
    fn lower_threshold_means_more_int8_and_more_cycles() {
        let net = zoo::resnet18(InputRes::Cifar);
        let run = |t: f32| {
            let accel = ArchConfig::builder()
                .drq(DrqConfig::new(RegionSize::new(4, 16), t))
                .build();
            sim(&accel, &net, 11)
        };
        let strict = run(2.0); // low threshold: many sensitive regions
        let loose = run(80.0); // high threshold: few sensitive regions
        assert!(strict.int4_fraction() < loose.int4_fraction());
        assert!(strict.total_cycles() > loose.total_cycles());
    }

    #[test]
    fn energy_has_all_components() {
        let accel = DrqAccelerator::new(ArchConfig::paper_default());
        let report = sim(&accel, &zoo::alexnet(InputRes::Cifar), 5);
        let e = report.total_energy();
        assert!(e.dram_pj > 0.0 && e.buffer_pj > 0.0 && e.core_pj > 0.0);
    }

    #[test]
    fn peak_throughput_scaling() {
        let accel = DrqAccelerator::new(ArchConfig::paper_default());
        assert_eq!(accel.peak_macs_per_cycle(Precision::Int4), 3168.0);
        assert_eq!(accel.peak_macs_per_cycle(Precision::Int8), 792.0);
    }

    #[test]
    fn geometry_override_reorganizes_the_array() {
        let builder = ArchConfig::builder().geometry(8, 18, 22);
        assert_eq!(builder.config().total_pes(), 3168);
        let net = zoo::resnet18(InputRes::Cifar);
        let a = sim(&DrqAccelerator::new(ArchConfig::paper_default()), &net, 3);
        let b = sim(&builder.build(), &net, 3);
        // Same PE count, different tiling: cycle counts differ but stay in
        // the same regime (within 2x).
        let (ca, cb) = (a.total_cycles() as f64, b.total_cycles() as f64);
        assert!(ca / cb < 2.0 && cb / ca < 2.0, "{ca} vs {cb}");
    }

    #[test]
    fn predictor_energy_is_negligible() {
        // Section IV-E: the added prediction step carries negligible
        // overhead. Quantified: < 2% of even the all-INT4 MAC energy for a
        // representative conv layer.
        let accel = DrqAccelerator::new(ArchConfig::paper_default());
        let spec = drq_models::ConvLayerSpec::conv("c", "B1", 64, 56, 56, 64, 3, 3, 1, 1);
        let frac = accel.predictor_energy_fraction(&spec);
        assert!(frac < 0.02, "predictor energy fraction {frac}");
        assert!(frac > 0.0);
    }

    #[test]
    fn batch_summary_reflects_input_variation() {
        let accel = DrqAccelerator::new(ArchConfig::paper_default());
        let net = zoo::lenet5();
        let batch = accel.session(&net).run_batch(&[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(batch.images, 5);
        assert!(batch.min_cycles <= batch.mean_cycles as u64 + 1);
        assert!(batch.max_cycles >= batch.mean_cycles as u64);
        // Dynamic quantization: different images, different cycle counts.
        assert!(batch.stddev_cycles > 0.0);
        assert!(batch.cycle_cv() < 0.5, "spread implausibly large");
        assert!((0.0..=1.0).contains(&batch.mean_int4_fraction));
    }

    #[test]
    fn reports_are_deterministic_per_seed() {
        let accel = DrqAccelerator::new(ArchConfig::paper_default());
        let net = zoo::lenet5();
        let a = sim(&accel, &net, 9);
        let b = sim(&accel, &net, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_matches_untraced_and_covers_all_layers() {
        let accel = ArchConfig::builder().build();
        let net = zoo::lenet5();
        let mut tracer = drq_telemetry::Tracer::new();
        let traced = accel
            .session(&net)
            .seed(4)
            .trace(&mut tracer)
            .run()
            .unwrap()
            .into_report();
        let plain = sim(&accel, &net, 4);
        assert_eq!(traced, plain);
        let events = tracer.events();
        let layer_events =
            events.iter().filter(|e| e.name.starts_with("layer/")).count();
        assert_eq!(layer_events, net.layers.len());
        assert_eq!(events.first().map(|e| e.kind.as_str()), Some("span_begin"));
        assert_eq!(events.last().map(|e| e.kind.as_str()), Some("span_end"));
        assert_eq!(events.last().unwrap().cycle, plain.total_cycles());
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_plain_run() {
        let accel = ArchConfig::builder().build();
        let net = zoo::lenet5();
        let plain = sim(&accel, &net, 42);
        let faulted =
            sim_faulted(&accel, &net, 42, &FaultPlan::empty()).expect("empty plan is valid");
        assert_eq!(faulted.report, plain);
        assert_eq!(
            faulted.report.to_report().to_json_string(),
            plain.to_report().to_json_string()
        );
        assert_eq!(faulted.counters.total(), 0);
        assert_eq!(faulted.baseline_cycles, faulted.degraded_cycles);
        assert_eq!(faulted.slowdown(), 1.0);
        assert_eq!(faulted.extra_dram_pj, 0.0);
    }

    #[test]
    fn faulted_network_runs_replay_and_degrade_monotonically() {
        use crate::faults::{FaultRule, FaultSite};
        let accel = ArchConfig::builder().build();
        let net = zoo::lenet5();
        let plan = FaultPlan {
            seed: 7,
            rules: vec![
                FaultRule::new(FaultSite::StallCycle, 1e-3),
                FaultRule::new(FaultSite::DramBurstDrop, 1e-2),
                FaultRule::new(FaultSite::PeAccumulator, 1e-6),
            ],
        };
        let a = sim_faulted(&accel, &net, 42, &plan).unwrap();
        let b = sim_faulted(&accel, &net, 42, &plan).unwrap();
        assert_eq!(a, b);
        // The baseline embedded report is untouched by injection.
        assert_eq!(a.report, sim(&accel, &net, 42));
        assert!(a.counters.count(FaultSite::StallCycle) > 0, "stall rate should fire on lenet5");
        assert_eq!(a.degraded_cycles, a.baseline_cycles + a.counters.count(FaultSite::StallCycle));
        assert!(a.slowdown() > 1.0);
        assert!(a.counters.count(FaultSite::DramBurstDrop) > 0);
        assert!(a.extra_dram_pj > 0.0);
    }

    #[test]
    fn reliability_report_schema_carries_fault_fields() {
        let accel = ArchConfig::builder().build();
        let net = zoo::lenet5();
        let r = sim_faulted(&accel, &net, 42, &crate::smoke_fault_plan()).unwrap();
        let rep = r.to_report();
        assert_eq!(rep.kind(), "reliability");
        assert_eq!(rep.get("baseline_cycles").and_then(Json::as_u64), Some(r.baseline_cycles));
        assert_eq!(rep.get("degraded_cycles").and_then(Json::as_u64), Some(r.degraded_cycles));
        assert_eq!(rep.get("slowdown").and_then(Json::as_f64), Some(r.slowdown()));
        assert_eq!(rep.get("fault_seed").and_then(Json::as_u64), Some(r.plan.seed));
        let faults = rep.get("faults").expect("faults object");
        assert_eq!(faults.get("total").and_then(Json::as_u64), Some(r.counters.total()));
        match rep.get("rules") {
            Some(Json::Array(rules)) => assert_eq!(rules.len(), r.plan.rules.len()),
            other => panic!("rules not an array: {other:?}"),
        }
    }

    #[test]
    fn layer_targeted_rules_only_fire_in_that_layer() {
        use crate::faults::{FaultRule, FaultSite};
        let accel = ArchConfig::builder().build();
        let net = zoo::lenet5();
        let first = net.layers[0].name.clone();
        let rule = || FaultRule::new(FaultSite::StallCycle, 0.05);
        let plan = |r: FaultRule| FaultPlan { seed: 3, rules: vec![r] };
        let all = sim_faulted(&accel, &net, 42, &plan(rule())).unwrap();
        let one = sim_faulted(&accel, &net, 42, &plan(rule().with_target(&first))).unwrap();
        let none =
            sim_faulted(&accel, &net, 42, &plan(rule().with_target("no_such_layer"))).unwrap();
        assert!(one.counters.count(FaultSite::StallCycle) > 0);
        assert!(one.counters.count(FaultSite::StallCycle) < all.counters.count(FaultSite::StallCycle));
        assert_eq!(none.counters.count(FaultSite::StallCycle), 0);
        assert_eq!(none.degraded_cycles, none.baseline_cycles);
    }

    #[test]
    fn enabling_metrics_does_not_change_results() {
        let accel = ArchConfig::builder().build();
        let net = zoo::lenet5();
        let baseline = sim(&accel, &net, 21);
        drq_telemetry::enable();
        let recorded = sim(&accel, &net, 21);
        let snap = drq_telemetry::snapshot();
        drq_telemetry::disable();
        drq_telemetry::reset();
        assert_eq!(baseline, recorded);
        // The side channel did observe the run.
        assert!(snap.counter("sim/cycles/total") >= baseline.total_cycles());
        assert!(snap.counter("sim/layers") >= net.layers.len() as u64);
    }
}
