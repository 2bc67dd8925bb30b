//! The exact variable-speed systolic array simulator (Fig. 7 of the paper).
//!
//! Weight-stationary array: weights are held in the PEs, feature values
//! stream in from the line buffer on the left, partial sums accumulate down
//! each column. All PEs default to INT4 mode (one new input per cycle).
//! When any PE of a column receives a sensitive (INT8) value, the whole
//! column switches to INT8 mode for that input step and spends four cycles
//! (the time-multiplexed 8-bit MAC); the INT4 PEs of that column stall for
//! three cycles, and the stall control shifts to the right-neighbouring
//! column with one cycle of lag — so the array remains systolic at variable
//! speed.

use crate::faults::{FaultInjector, FaultSite};
use crate::{MultiPrecisionPe, PackedStream, SimError};
use drq_quant::Precision;

/// One feature value entering a row of the array: an INT8 code plus its
/// sensitivity bit from the binary mask map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamElement {
    /// INT8 activation code.
    pub value: i32,
    /// `true` = sensitive (compute INT8), `false` = insensitive (INT4).
    pub sensitive: bool,
}

impl StreamElement {
    /// Creates an element.
    pub fn new(value: i32, sensitive: bool) -> Self {
        Self { value, sensitive }
    }
}

/// Result of simulating one tile of computation on the array.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTrace {
    /// Total cycles from first input to last drained output.
    pub cycles: u64,
    /// Steps executed in INT8 (4-cycle) mode.
    pub int8_steps: u64,
    /// Steps executed in INT4 (1-cycle) mode.
    pub int4_steps: u64,
    /// PE-cycles lost to stalls (INT4-receiving PEs waiting out an INT8
    /// column step), summed over all columns.
    pub stall_pe_cycles: u64,
    /// Per-column, per-step dot products in the INT8×INT8 product domain.
    pub outputs: Vec<Vec<i64>>,
}

impl SimTrace {
    /// Fraction of PE-cycles lost to stalls — the Fig. 14 "stall ratio".
    pub fn stall_ratio(&self, rows: usize, cols: usize) -> f64 {
        let total = self.cycles * (rows * cols) as u64;
        if total == 0 {
            0.0
        } else {
            self.stall_pe_cycles as f64 / total as f64
        }
    }
}

/// The exact simulator: `rows × cols` PEs with preloaded weights.
///
/// # Examples
///
/// ```
/// use drq_sim::{StreamElement, SystolicArray};
///
/// // 2x1 array computing a running dot product of two-element vectors.
/// let array = SystolicArray::new(vec![vec![2], vec![3]]);
/// let streams = vec![
///     vec![StreamElement::new(16, false)],
///     vec![StreamElement::new(32, false)],
/// ];
/// let trace = array.simulate(&streams);
/// // INT4 mode: products use high nibbles (1 and 2) rescaled by 256 —
/// // weights 2 and 3 clip to high nibbles 0, so the result is 0 here;
/// // sensitive (INT8) elements keep full precision instead.
/// assert_eq!(trace.int4_steps, 1);
/// # let _ = trace.outputs;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
    /// Weights `[row][col]`, INT8 codes.
    weights: Vec<Vec<i32>>,
}

impl SystolicArray {
    /// Creates an array from a `[row][col]` weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty or ragged, or any weight exceeds 8
    /// signed bits.
    pub fn new(weights: Vec<Vec<i32>>) -> Self {
        Self::try_new(weights).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`SystolicArray::new`].
    pub fn try_new(weights: Vec<Vec<i32>>) -> Result<Self, SimError> {
        if weights.is_empty() || weights[0].is_empty() {
            return Err(SimError::InvalidGeometry {
                context: "systolic array",
                detail: "empty weight matrix".into(),
            });
        }
        let cols = weights[0].len();
        for row in &weights {
            if row.len() != cols {
                return Err(SimError::InvalidGeometry {
                    context: "systolic array",
                    detail: "ragged weight matrix".into(),
                });
            }
            for &w in row {
                if !(-128..=127).contains(&w) {
                    return Err(SimError::OperandRange {
                        context: "systolic array",
                        detail: format!("weight {w} exceeds 8 bits"),
                    });
                }
            }
        }
        Ok(Self { rows: weights.len(), cols, weights })
    }

    /// Number of PE rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of PE columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Runs the array over per-row input streams (all the same length).
    ///
    /// Each step consumes one element per row; the per-column dot product of
    /// that input vector against the column's weights is emitted into
    /// [`SimTrace::outputs`]. Element sensitivity decides each PE's mode;
    /// any sensitive element in a step switches the entire column to the
    /// 4-cycle INT8 schedule for that step.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from `rows` or lengths are ragged.
    pub fn simulate(&self, streams: &[Vec<StreamElement>]) -> SimTrace {
        self.try_simulate(streams).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`SystolicArray::simulate`].
    pub fn try_simulate(&self, streams: &[Vec<StreamElement>]) -> Result<SimTrace, SimError> {
        self.simulate_impl(streams, None)
    }

    /// Runs the array with fault injection: the injector's plan decides
    /// which line-buffer nibbles stick, which PE registers and accumulators
    /// flip, and which steps absorb spurious stall cycles. With a plan that
    /// never fires, the trace is identical to [`SystolicArray::simulate`];
    /// the un-faulted entry points never consult an injector at all.
    pub fn simulate_faulted(
        &self,
        streams: &[Vec<StreamElement>],
        injector: &mut FaultInjector,
    ) -> Result<SimTrace, SimError> {
        self.simulate_impl(streams, Some(injector))
    }

    fn simulate_impl(
        &self,
        streams: &[Vec<StreamElement>],
        mut faults: Option<&mut FaultInjector>,
    ) -> Result<SimTrace, SimError> {
        if streams.len() != self.rows {
            return Err(SimError::InvalidGeometry {
                context: "systolic array",
                detail: format!(
                    "need one stream per row ({} rows, {} streams)",
                    self.rows,
                    streams.len()
                ),
            });
        }
        let steps = streams.first().map(Vec::len).unwrap_or(0);
        if streams.iter().any(|s| s.len() != steps) {
            return Err(SimError::InvalidGeometry {
                context: "systolic array",
                detail: "ragged input streams".into(),
            });
        }
        if steps == 0 {
            return Ok(SimTrace {
                cycles: 0,
                int8_steps: 0,
                int4_steps: 0,
                stall_pe_cycles: 0,
                outputs: vec![Vec::new(); self.cols],
            });
        }

        // Memory-path faults: when the plan targets the line buffer, each
        // row stream makes the real pack→unpack round trip with stuck-at-1
        // nibble corruption in between. The round trip itself is
        // numerically neutral (insensitive values only ever feed their
        // high nibble to the PEs), so plans without stuck-at events leave
        // outputs untouched.
        let corrupted: Option<Vec<Vec<StreamElement>>> = match faults.as_deref_mut() {
            Some(inj) if inj.targets(FaultSite::LineBufferStuckAt) => Some(
                streams
                    .iter()
                    .map(|row| {
                        let mut packed = PackedStream::pack(row);
                        for n in 0..packed.nibble_count() {
                            if let Some(bit) =
                                inj.draw_bit(FaultSite::LineBufferStuckAt, None)
                            {
                                packed.stuck_at(n, bit);
                            }
                        }
                        packed.unpack()
                    })
                    .collect(),
            ),
            _ => None,
        };
        let streams: &[Vec<StreamElement>] = corrupted.as_deref().unwrap_or(streams);

        // Per-step cost and sensitivity census (identical for every column —
        // the stall control replicates with one-cycle lag, Fig. 7(b) ③).
        let mut int8_steps = 0u64;
        let mut int4_steps = 0u64;
        let mut stall_per_col = 0u64;
        let mut step_cost: Vec<u64> = (0..steps)
            .map(|t| {
                let sensitive_rows =
                    streams.iter().filter(|s| s[t].sensitive).count() as u64;
                if sensitive_rows > 0 {
                    int8_steps += 1;
                    // INT4-receiving PEs in this column stall 3 cycles each.
                    stall_per_col += 3 * (self.rows as u64 - sensitive_rows);
                    4
                } else {
                    int4_steps += 1;
                    1
                }
            })
            .collect();

        // The precision of each step is fixed by the sensitivity census —
        // captured before stall faults stretch step costs, since a stalled
        // INT8 step is still an INT8 step.
        let int8_step: Vec<bool> = step_cost.iter().map(|&c| c == 4).collect();

        // Spurious stall faults lengthen individual steps. They only ever
        // add cycles, so the clean closed-form cycle count stays a lower
        // bound of a faulted run; the injector's counters account the
        // injected cycles (they are not precision stalls).
        if let Some(inj) = faults.as_deref_mut() {
            if inj.targets(FaultSite::StallCycle) {
                for cost in step_cost.iter_mut() {
                    if inj.draw_bit(FaultSite::StallCycle, None).is_some() {
                        *cost += 1;
                    }
                }
            }
        }

        // Cycle-accurate schedule: column j may begin step t only after it
        // finished step t-1 AND one cycle after column j-1 began step t
        // (the shifted data/stall signals).
        let mut start = vec![vec![0u64; steps]; self.cols];
        let mut finish = vec![vec![0u64; steps]; self.cols];
        for j in 0..self.cols {
            for t in 0..steps {
                let after_prev_step = if t > 0 { finish[j][t - 1] } else { 0 };
                let after_left_col = if j > 0 { start[j - 1][t] + 1 } else { 0 };
                start[j][t] = after_prev_step.max(after_left_col);
                finish[j][t] = start[j][t] + step_cost[t];
            }
        }

        // Numerical datapath: every MAC runs through the cycle-accurate
        // multi-precision PE, so the emitted products are bit-exact with the
        // hardware decomposition.
        let mut outputs = vec![Vec::with_capacity(steps); self.cols];
        let mut pe = MultiPrecisionPe::new();
        for (j, col_out) in outputs.iter_mut().enumerate() {
            for t in 0..steps {
                let col_mode = if int8_step[t] {
                    Precision::Int8
                } else {
                    Precision::Int4
                };
                let mut acc: i64 = 0;
                for (i, stream) in streams.iter().enumerate() {
                    let e = stream[t];
                    // In an INT8 column step, insensitive values still
                    // compute at INT4 (they merely wait); the mode per PE
                    // follows the element's own sensitivity.
                    let mode = if e.sensitive { col_mode } else { Precision::Int4 };
                    pe.load_weight(self.weights[i][j]);
                    pe.start_mac(e.value, mode);
                    if let Some(inj) = faults.as_deref_mut() {
                        // Register faults strike the latched operands of
                        // exactly this MAC (weight-stationary arrays reload
                        // per-MAC here because one PE plays every position).
                        if let Some(bit) = inj.draw_bit(FaultSite::PeWeightRegister, None)
                        {
                            pe.flip_weight_bit(bit);
                        }
                        if let Some(bit) =
                            inj.draw_bit(FaultSite::PeActivationRegister, None)
                        {
                            pe.flip_feature_bit(bit);
                        }
                    }
                    while !pe.is_done() {
                        pe.tick();
                    }
                    acc += pe.product() as i64;
                }
                if let Some(inj) = faults.as_deref_mut() {
                    if let Some(bit) = inj.draw_bit(FaultSite::PeAccumulator, None) {
                        acc ^= 1i64 << bit;
                    }
                }
                col_out.push(acc);
            }
        }

        // Drain: partial sums ripple down `rows` accumulator hops after the
        // last column finishes its last step.
        let compute_end = finish[self.cols - 1][steps - 1];
        Ok(SimTrace {
            cycles: compute_end + self.rows as u64,
            int8_steps,
            int4_steps,
            stall_pe_cycles: stall_per_col * self.cols as u64,
            outputs,
        })
    }

    /// The closed-form cycle count the fast layer model uses:
    /// `Σ step costs + (cols − 1) + rows`. The exact simulator reduces to
    /// this whenever step costs are ≥ 1, which tests assert.
    pub fn analytic_cycles(&self, step_costs: &[u64]) -> u64 {
        step_costs.iter().sum::<u64>() + (self.cols as u64 - 1) + self.rows as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_tensor::XorShiftRng;

    fn random_streams(
        rows: usize,
        steps: usize,
        sensitive_prob: f64,
        seed: u64,
    ) -> Vec<Vec<StreamElement>> {
        let mut rng = XorShiftRng::new(seed);
        (0..rows)
            .map(|_| {
                (0..steps)
                    .map(|_| {
                        StreamElement::new(
                            rng.next_below(255) as i32 - 127,
                            rng.next_f64() < sensitive_prob,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn random_weights(rows: usize, cols: usize, seed: u64) -> Vec<Vec<i32>> {
        let mut rng = XorShiftRng::new(seed);
        (0..rows)
            .map(|_| (0..cols).map(|_| rng.next_below(255) as i32 - 127).collect())
            .collect()
    }

    /// Reference dot product with the same mixed-precision semantics.
    fn reference_output(weights: &[Vec<i32>], streams: &[Vec<StreamElement>], j: usize, t: usize) -> i64 {
        streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let e = s[t];
                let w = weights[i][j];
                if e.sensitive {
                    (w * e.value) as i64
                } else {
                    (((w >> 4) * (e.value >> 4)) as i64) << 8
                }
            })
            .sum()
    }

    #[test]
    fn all_int4_runs_one_cycle_per_step() {
        let array = SystolicArray::new(random_weights(4, 3, 1));
        let streams = random_streams(4, 10, 0.0, 2);
        let trace = array.simulate(&streams);
        assert_eq!(trace.int4_steps, 10);
        assert_eq!(trace.int8_steps, 0);
        assert_eq!(trace.stall_pe_cycles, 0);
        // 10 steps + (cols-1) lag + rows drain.
        assert_eq!(trace.cycles, 10 + 2 + 4);
    }

    #[test]
    fn all_int8_runs_four_cycles_per_step() {
        let array = SystolicArray::new(random_weights(4, 3, 3));
        let streams = random_streams(4, 10, 1.0, 4);
        let trace = array.simulate(&streams);
        assert_eq!(trace.int8_steps, 10);
        assert_eq!(trace.cycles, 40 + 2 + 4);
        // No INT4 PEs to stall when every row is sensitive.
        assert_eq!(trace.stall_pe_cycles, 0);
    }

    #[test]
    fn exact_cycles_match_analytic_formula() {
        for seed in 0..5 {
            let rows = 3 + (seed as usize % 4);
            let cols = 2 + (seed as usize % 3);
            let array = SystolicArray::new(random_weights(rows, cols, seed));
            let streams = random_streams(rows, 25, 0.3, seed + 50);
            let trace = array.simulate(&streams);
            let costs: Vec<u64> = (0..25)
                .map(|t| {
                    if streams.iter().any(|s| s[t].sensitive) {
                        4
                    } else {
                        1
                    }
                })
                .collect();
            assert_eq!(trace.cycles, array.analytic_cycles(&costs), "seed {seed}");
        }
    }

    #[test]
    fn outputs_match_reference_dot_products() {
        let weights = random_weights(5, 4, 7);
        let array = SystolicArray::new(weights.clone());
        let streams = random_streams(5, 12, 0.4, 8);
        let trace = array.simulate(&streams);
        for j in 0..4 {
            for t in 0..12 {
                assert_eq!(
                    trace.outputs[j][t],
                    reference_output(&weights, &streams, j, t),
                    "col {j} step {t}"
                );
            }
        }
    }

    #[test]
    fn stall_accounting_counts_insensitive_rows() {
        // 4 rows; step with exactly one sensitive row stalls the 3 INT4 PEs
        // for 3 cycles each, per column.
        let array = SystolicArray::new(random_weights(4, 2, 9));
        let mut streams = random_streams(4, 1, 0.0, 10);
        streams[2][0].sensitive = true;
        let trace = array.simulate(&streams);
        assert_eq!(trace.stall_pe_cycles, 3 * 3 * 2);
    }

    #[test]
    fn stall_ratio_increases_with_sensitive_fraction() {
        let array = SystolicArray::new(random_weights(8, 4, 11));
        let ratio = |p: f64| {
            let streams = random_streams(8, 200, p, 12);
            let trace = array.simulate(&streams);
            trace.stall_ratio(8, 4)
        };
        let r0 = ratio(0.0);
        let r_low = ratio(0.02);
        assert_eq!(r0, 0.0);
        assert!(r_low > 0.0);
        // At 100% sensitivity the stall ratio drops back to 0 (everyone
        // computes INT8) — the non-monotonicity the paper's Fig. 14 shows
        // at the low-threshold end.
        let r_all = ratio(1.0);
        assert!(r_all < r_low);
    }

    #[test]
    fn empty_streams_are_trivial() {
        let array = SystolicArray::new(random_weights(2, 2, 13));
        let trace = array.simulate(&[Vec::new(), Vec::new()]);
        assert_eq!(trace.cycles, 0);
        assert!(trace.outputs.iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "one stream per row")]
    fn rejects_wrong_stream_count() {
        let array = SystolicArray::new(random_weights(3, 2, 14));
        let _ = array.simulate(&random_streams(2, 4, 0.0, 15));
    }

    #[test]
    fn try_new_returns_typed_errors() {
        use crate::SimError;
        assert!(matches!(
            SystolicArray::try_new(Vec::new()),
            Err(SimError::InvalidGeometry { .. })
        ));
        assert!(matches!(
            SystolicArray::try_new(vec![vec![1, 2], vec![3]]),
            Err(SimError::InvalidGeometry { .. })
        ));
        assert!(matches!(
            SystolicArray::try_new(vec![vec![500]]),
            Err(SimError::OperandRange { .. })
        ));
    }

    #[test]
    fn never_firing_plan_matches_clean_simulation() {
        use crate::faults::{FaultInjector, FaultPlan, FaultRule, FaultSite, Site};
        let array = SystolicArray::new(random_weights(4, 3, 21));
        let streams = random_streams(4, 16, 0.3, 22);
        let clean = array.simulate(&streams);
        // Rules on every site at rate 0 — the injector is consulted but
        // nothing ever fires.
        let plan = FaultPlan {
            seed: 9,
            rules: FaultSite::ALL.iter().map(|&s| FaultRule::new(s, 0.0)).collect(),
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        let faulted = array.simulate_faulted(&streams, &mut inj).unwrap();
        assert_eq!(clean, faulted);
        assert_eq!(inj.counters().total(), 0);
    }

    #[test]
    fn single_accumulator_flip_perturbs_exactly_one_output_cell() {
        use crate::faults::{FaultInjector, FaultPlan, FaultRule, FaultSite};
        let array = SystolicArray::new(random_weights(5, 4, 31));
        let streams = random_streams(5, 12, 0.4, 32);
        let clean = array.simulate(&streams);
        let plan = FaultPlan {
            seed: 1,
            rules: vec![
                FaultRule::new(FaultSite::PeAccumulator, 1.0).with_bit(9).with_max_events(1),
            ],
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        let faulted = array.simulate_faulted(&streams, &mut inj).unwrap();
        assert_eq!(inj.counters().count(FaultSite::PeAccumulator), 1);
        // Timing is untouched; exactly one (col, step) cell differs, by the
        // flipped bit.
        assert_eq!(clean.cycles, faulted.cycles);
        let diffs: Vec<_> = (0..4)
            .flat_map(|j| (0..12).map(move |t| (j, t)))
            .filter(|&(j, t)| clean.outputs[j][t] != faulted.outputs[j][t])
            .collect();
        assert_eq!(diffs.len(), 1);
        let (j, t) = diffs[0];
        assert_eq!(clean.outputs[j][t] ^ faulted.outputs[j][t], 1 << 9);
    }

    #[test]
    fn stall_faults_only_add_cycles() {
        use crate::faults::{FaultInjector, FaultPlan, FaultRule, FaultSite};
        let array = SystolicArray::new(random_weights(4, 3, 41));
        let streams = random_streams(4, 30, 0.2, 42);
        let clean = array.simulate(&streams);
        let plan = FaultPlan {
            seed: 4,
            rules: vec![FaultRule::new(FaultSite::StallCycle, 0.5)],
        };
        let mut inj = FaultInjector::new(&plan).unwrap();
        let faulted = array.simulate_faulted(&streams, &mut inj).unwrap();
        let injected = inj.counters().count(FaultSite::StallCycle);
        assert!(injected > 0);
        assert_eq!(faulted.cycles, clean.cycles + injected);
        // Numerics are untouched by timing faults.
        assert_eq!(faulted.outputs, clean.outputs);
    }

    #[test]
    fn faulted_runs_replay_across_invocations() {
        use crate::faults::{FaultInjector, FaultPlan, FaultRule, FaultSite};
        let array = SystolicArray::new(random_weights(6, 5, 51));
        let streams = random_streams(6, 20, 0.3, 52);
        let plan = FaultPlan {
            seed: 77,
            rules: vec![
                FaultRule::new(FaultSite::PeWeightRegister, 0.01),
                FaultRule::new(FaultSite::LineBufferStuckAt, 0.01),
                FaultRule::new(FaultSite::StallCycle, 0.05),
            ],
        };
        let run = || {
            let mut inj = FaultInjector::new(&plan).unwrap();
            let trace = array.simulate_faulted(&streams, &mut inj).unwrap();
            (trace, inj.counters())
        };
        assert_eq!(run(), run());
    }
}
