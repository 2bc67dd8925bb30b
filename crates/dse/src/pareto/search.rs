//! The resumable branch-and-bound Pareto search driver.
//!
//! The search state is a LIFO stack of index hypercubes
//! ([`CandidateBox`]es) over the [`CandidateSpace`]. Each step pops a box
//! and either
//!
//! 1. **cuts** it — the evaluator's optimistic bound for the box is
//!    strictly dominated by an existing front member, so no point inside
//!    can reach the front (all `box.len()` candidates skipped unevaluated);
//! 2. **evaluates** it — the box fits the batch size, so its candidates
//!    are scored concurrently on the `drq_tensor::parallel` pool (each
//!    under [`retry_with_backoff`] with a per-candidate jitter stream) and
//!    offered to the front in index order; or
//! 3. **splits** it along its widest axis, the seed deciding which half is
//!    explored first.
//!
//! Everything is deterministic in `(space, seed, batch)`: candidate
//! scoring happens on worker threads, but front insertion and stack
//! manipulation are sequential, so the artifact bytes are identical at
//! every thread count. [`ParetoSearch::to_report`] serializes the **whole**
//! state — front, pending stack, and counters — under `kind:"pareto"`,
//! and [`ParetoSearch::from_report`] restores it exactly, which is what
//! makes a killed search resume to byte-identical convergence. The
//! evaluation **budget is deliberately not part of the state**: it limits
//! how much work one `run` call does, not where the search converges.

use super::front::{FrontMember, Objectives, ParetoFront};
use super::space::{Candidate, CandidateSpace};
use drq_core::dse::{retry_with_backoff, RetryPolicy};
use drq_core::DrqError;
use drq_telemetry::{counter_add, Json, Report};
use drq_tensor::{parallel, splitmix64};

/// The artifact `kind` every checkpoint carries.
pub const PARETO_KIND: &str = "pareto";

/// A contiguous half-open index hypercube over the four space axes
/// (geometry, region, threshold, buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateBox {
    /// Inclusive lower corner, per axis.
    pub lo: [usize; 4],
    /// Exclusive upper corner, per axis.
    pub hi: [usize; 4],
}

impl CandidateBox {
    /// The full box covering `space`.
    pub fn full(space: &CandidateSpace) -> Self {
        Self { lo: [0; 4], hi: space.axis_lens() }
    }

    /// Number of candidates inside.
    pub fn len(&self) -> usize {
        (0..4).map(|a| self.hi[a] - self.lo[a]).product()
    }

    /// Whether the box is empty (never true for boxes the search creates).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The axis with the longest extent (lowest axis index on ties).
    pub fn widest_axis(&self) -> usize {
        (0..4).max_by_key(|&a| (self.hi[a] - self.lo[a], 3 - a)).expect("four axes")
    }

    /// Splits along the widest axis at its midpoint. Only valid when
    /// `len() > 1`.
    pub fn split(&self) -> (CandidateBox, CandidateBox) {
        let axis = self.widest_axis();
        debug_assert!(self.hi[axis] - self.lo[axis] > 1, "cannot split a unit box");
        let mid = self.lo[axis] + (self.hi[axis] - self.lo[axis]) / 2;
        let mut low = self.clone();
        let mut high = self.clone();
        low.hi[axis] = mid;
        high.lo[axis] = mid;
        (low, high)
    }

    /// The candidate indices inside, in ascending index order.
    pub fn candidate_indices(&self, space: &CandidateSpace) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len());
        for g in self.lo[0]..self.hi[0] {
            for r in self.lo[1]..self.hi[1] {
                for t in self.lo[2]..self.hi[2] {
                    for b in self.lo[3]..self.hi[3] {
                        out.push(space.encode(g, r, t, b));
                    }
                }
            }
        }
        out
    }

    /// A stable fingerprint of the box corners (seeds the split-order
    /// coin).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
        for v in self.lo.iter().chain(&self.hi) {
            h = splitmix64(h ^ (*v as u64));
        }
        h
    }

    fn to_json(&self) -> Json {
        let corner = |c: &[usize; 4]| Json::Array(c.iter().map(|&v| Json::U64(v as u64)).collect());
        Json::Array(vec![corner(&self.lo), corner(&self.hi)])
    }

    fn from_json(v: &Json, space: &CandidateSpace) -> Result<Self, DrqError> {
        let invalid = |detail: String| DrqError::InvalidConfig { context: "pareto checkpoint", detail };
        let corners = v.as_array().ok_or_else(|| invalid(format!("bad box {v}")))?;
        let corner = |i: usize| -> Result<[usize; 4], DrqError> {
            let arr = corners
                .get(i)
                .and_then(Json::as_array)
                .ok_or_else(|| invalid(format!("bad box corner in {v}")))?;
            if arr.len() != 4 {
                return Err(invalid(format!("box corner needs 4 axes: {v}")));
            }
            let mut out = [0usize; 4];
            for (o, j) in out.iter_mut().zip(arr) {
                *o = j.as_u64().ok_or_else(|| invalid(format!("bad box coordinate in {v}")))?
                    as usize;
            }
            Ok(out)
        };
        let bx = Self { lo: corner(0)?, hi: corner(1)? };
        let lens = space.axis_lens();
        for a in 0..4 {
            if bx.lo[a] >= bx.hi[a] || bx.hi[a] > lens[a] {
                return Err(invalid(format!("box {v} out of range for space axes {lens:?}")));
            }
        }
        Ok(bx)
    }
}

/// How a candidate is scored, plus (optionally) how tightly a whole box
/// can be bounded.
///
/// Implementations must be [`Sync`]: one evaluator instance is shared by
/// every pool worker of a leaf batch.
pub trait CandidateEval: Sync {
    /// Scores one candidate. Failures are retried under the search's
    /// [`RetryPolicy`] before aborting the run with
    /// [`DrqError::RetriesExhausted`].
    fn evaluate(&self, candidate: &Candidate) -> Result<Objectives, String>;

    /// An **optimistic** bound for `bx`: objectives at least as good, on
    /// every axis, as any candidate inside the box. Returning `None`
    /// (the default) disables region cutting, which is always sound.
    ///
    /// Soundness contract: if any candidate in the box could beat the
    /// bound on some axis, cutting may discard Pareto-optimal points and
    /// the oracle-equality property in `tests/pareto.rs` will fail.
    fn optimistic_bound(&self, space: &CandidateSpace, bx: &CandidateBox) -> Option<Objectives> {
        let _ = (space, bx);
        None
    }
}

/// What a bounded [`ParetoSearch::run`] call ended with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStatus {
    /// The stack is empty: the front is final.
    Complete,
    /// The evaluation budget ran out with boxes still pending; checkpoint
    /// with [`ParetoSearch::to_report`] and resume later.
    Paused,
}

/// The resumable search state. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoSearch {
    space: CandidateSpace,
    seed: u64,
    batch: usize,
    retry: RetryPolicy,
    meta: Json,
    front: ParetoFront,
    /// Pending boxes, bottom → top (top is explored next).
    stack: Vec<CandidateBox>,
    evaluated: u64,
    region_pruned: u64,
}

impl ParetoSearch {
    /// Starts a fresh search over `space`. `batch` is the largest box
    /// evaluated as one parallel leaf (clamped to ≥ 1); `seed` feeds the
    /// evaluator and the split-order coin.
    pub fn new(space: CandidateSpace, seed: u64, batch: usize) -> Self {
        let stack = vec![CandidateBox::full(&space)];
        Self {
            space,
            seed,
            batch: batch.max(1),
            retry: RetryPolicy::default_sweep(),
            meta: Json::Null,
            front: ParetoFront::new(),
            stack,
            evaluated: 0,
            region_pruned: 0,
        }
    }

    /// Sets the per-candidate retry policy (default:
    /// [`RetryPolicy::default_sweep`]). Not serialized — retries change
    /// wall-clock behaviour, never results.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches evaluator metadata (e.g. which network/partitioning the
    /// objectives were scored on). Stored verbatim under the artifact's
    /// `evaluator` key so a resuming process can rebuild the evaluator.
    pub fn meta(mut self, meta: Json) -> Self {
        self.meta = meta;
        self
    }

    /// The evaluator metadata attached via [`ParetoSearch::meta`]
    /// ([`Json::Null`] when absent).
    pub fn evaluator_meta(&self) -> &Json {
        &self.meta
    }

    /// The candidate space.
    pub fn space(&self) -> &CandidateSpace {
        &self.space
    }

    /// The search seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The leaf batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The current front.
    pub fn front(&self) -> &ParetoFront {
        &self.front
    }

    /// Candidates evaluated so far.
    pub fn evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Evaluated candidates currently kept off the front by dominance.
    pub fn dominated_pruned(&self) -> u64 {
        self.evaluated - self.front.len() as u64
    }

    /// Candidates skipped unevaluated by region cutting.
    pub fn region_pruned(&self) -> u64 {
        self.region_pruned
    }

    /// Whether the search has converged (no pending boxes).
    pub fn is_complete(&self) -> bool {
        self.stack.is_empty()
    }

    /// Drives the search until convergence or until `budget` candidate
    /// evaluations have happened **in this call** (the budget bounds one
    /// call's work; it is not checkpointed, so a budgeted-then-resumed
    /// search converges to the same bytes as an unbudgeted one). Each call
    /// makes progress: at least one leaf is evaluated before a budget
    /// pause.
    ///
    /// # Errors
    ///
    /// Propagates [`DrqError::RetriesExhausted`] once a candidate fails
    /// all retry attempts; the already-merged state stays checkpointable.
    pub fn run(
        &mut self,
        eval: &(impl CandidateEval + ?Sized),
        budget: Option<u64>,
    ) -> Result<SearchStatus, DrqError> {
        let mut spent: u64 = 0;
        loop {
            if self.stack.is_empty() {
                return Ok(SearchStatus::Complete);
            }
            if let Some(b) = budget {
                if spent >= b {
                    return Ok(SearchStatus::Paused);
                }
            }
            let bx = self.stack.pop().expect("checked non-empty");
            if let Some(bound) = eval.optimistic_bound(&self.space, &bx) {
                if self.front.strictly_dominates_bound(&bound) {
                    self.region_pruned += bx.len() as u64;
                    counter_add!("dse/pareto/region_pruned", bx.len() as u64);
                    continue;
                }
            }
            if bx.len() > self.batch {
                let (low, high) = bx.split();
                // The seed flips a deterministic coin per box: which half
                // is explored first changes the insertion order but (by
                // the order-invariance of the front) never the result.
                if splitmix64(self.seed ^ bx.fingerprint()) & 1 == 0 {
                    self.stack.push(high);
                    self.stack.push(low);
                } else {
                    self.stack.push(low);
                    self.stack.push(high);
                }
                continue;
            }
            spent += self.evaluate_leaf(eval, &bx)?;
        }
    }

    /// Evaluates every candidate of a leaf box concurrently and merges the
    /// scores into the front sequentially, in index order.
    fn evaluate_leaf(
        &mut self,
        eval: &(impl CandidateEval + ?Sized),
        bx: &CandidateBox,
    ) -> Result<u64, DrqError> {
        let indices = bx.candidate_indices(&self.space);
        let (space, retry, seed) = (&self.space, self.retry, self.seed);
        let scores: Vec<Result<Objectives, DrqError>> = parallel::par_map(indices.len(), |i| {
            let candidate = space.candidate(indices[i]);
            // Decorrelate retry schedules: each candidate retries on its
            // own jitter stream (the `sweep_thresholds_retrying` idiom),
            // so simultaneous failures do not re-fire in lockstep.
            let policy = match retry.jitter_seed {
                Some(js) => retry.with_jitter_seed(js ^ splitmix64(seed ^ indices[i] as u64)),
                None => retry,
            };
            retry_with_backoff(policy, "pareto candidate", |_| eval.evaluate(&candidate))
        });
        // Propagate the first failure (in index order) without merging any
        // of the leaf — the checkpoint then re-evaluates the whole box.
        let mut merged = Vec::with_capacity(indices.len());
        for score in scores {
            merged.push(score?);
        }
        for (&index, objectives) in indices.iter().zip(merged) {
            self.front.insert(FrontMember { candidate_index: index as u64, objectives });
            self.evaluated += 1;
        }
        counter_add!("dse/pareto/evaluated", indices.len() as u64);
        Ok(indices.len() as u64)
    }

    /// Serializes the full state under the schema-versioned `kind:"pareto"`
    /// artifact. Byte-stable: a pure function of the search state.
    pub fn to_report(&self) -> Report {
        let mut r = Report::new(PARETO_KIND);
        r.push("status", if self.is_complete() { "complete" } else { "paused" })
            .push("seed", self.seed)
            .push("batch", self.batch as u64)
            .push("space_fingerprint", self.space.fingerprint())
            .push("evaluated", self.evaluated)
            .push("front_size", self.front.len() as u64)
            .push("dominated_pruned", self.dominated_pruned())
            .push("region_pruned", self.region_pruned)
            .push("pruned", self.dominated_pruned() + self.region_pruned);
        if self.meta != Json::Null {
            r.push("evaluator", self.meta.clone());
        }
        r.push("space", self.space.to_json());
        let front = self
            .front
            .members()
            .iter()
            .map(|m| {
                let c = self.space.candidate(m.candidate_index as usize);
                let mut fields = vec![
                    ("index", Json::U64(m.candidate_index)),
                    ("geometry", Json::str(c.geometry.to_string())),
                    ("region", Json::str(c.region.to_string())),
                    ("threshold", Json::F64(f64::from(c.threshold))),
                    ("buffer_bytes", Json::U64(c.buffer_bytes as u64)),
                ];
                fields.extend(ParetoFront::objectives_json(&m.objectives));
                Json::obj(fields)
            })
            .collect();
        r.push("front", Json::Array(front));
        r.push("pending", Json::Array(self.stack.iter().map(CandidateBox::to_json).collect()));
        r
    }

    /// Restores a search from a checkpoint artifact (the exact inverse of
    /// [`ParetoSearch::to_report`] — resumed state re-serializes to the
    /// same bytes).
    ///
    /// # Errors
    ///
    /// [`DrqError::InvalidConfig`] if the artifact has the wrong kind, a
    /// space that fails validation or does not match its recorded
    /// fingerprint, an inconsistent front, or out-of-range pending boxes.
    pub fn from_report(report: &Report) -> Result<Self, DrqError> {
        let invalid = |detail: String| DrqError::InvalidConfig { context: "pareto checkpoint", detail };
        if report.kind() != PARETO_KIND {
            return Err(invalid(format!("expected kind {PARETO_KIND:?}, got {:?}", report.kind())));
        }
        let u64_key = |k: &str| {
            report
                .get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| invalid(format!("missing integer key {k:?}")))
        };
        let space = CandidateSpace::from_json(
            report.get("space").ok_or_else(|| invalid("missing space".into()))?,
        )?;
        if space.fingerprint() != u64_key("space_fingerprint")? {
            return Err(invalid("space fingerprint mismatch — artifact edited or stale".into()));
        }
        let members = report
            .get("front")
            .and_then(Json::as_array)
            .ok_or_else(|| invalid("missing front array".into()))?
            .iter()
            .map(|m| {
                let num = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_f64)
                        .filter(|v| v.is_finite())
                        .ok_or_else(|| invalid(format!("front member missing finite {k:?}: {m}")))
                };
                let index = m
                    .get("index")
                    .and_then(Json::as_u64)
                    .filter(|&i| (i as usize) < space.len())
                    .ok_or_else(|| invalid(format!("front member index out of range: {m}")))?;
                let latency = m
                    .get("latency_cycles")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| invalid(format!("front member missing latency_cycles: {m}")))?;
                Ok(FrontMember {
                    candidate_index: index,
                    objectives: Objectives {
                        accuracy: num("accuracy")?,
                        latency_cycles: latency,
                        energy_pj: num("energy_pj")?,
                    },
                })
            })
            .collect::<Result<Vec<_>, DrqError>>()?;
        let front_len = members.len() as u64;
        let front = ParetoFront::from_members(members)
            .ok_or_else(|| invalid("front members unsorted or mutually dominated".into()))?;
        let stack = report
            .get("pending")
            .and_then(Json::as_array)
            .ok_or_else(|| invalid("missing pending array".into()))?
            .iter()
            .map(|b| CandidateBox::from_json(b, &space))
            .collect::<Result<Vec<_>, DrqError>>()?;
        let evaluated = u64_key("evaluated")?;
        if evaluated < front_len {
            return Err(invalid(format!(
                "evaluated count {evaluated} below front size {front_len}"
            )));
        }
        Ok(Self {
            space,
            seed: u64_key("seed")?,
            batch: u64_key("batch")?.max(1) as usize,
            retry: RetryPolicy::default_sweep(),
            meta: report.get("evaluator").cloned().unwrap_or(Json::Null),
            front,
            stack,
            evaluated,
            region_pruned: u64_key("region_pruned")?,
        })
    }

    /// Commits the search state as the next generation of the framed
    /// checkpoint at `path`, rotating the last good generation to
    /// `<path>.prev` first. Returns the committed generation. The framed
    /// payload is exactly [`ParetoSearch::to_report`]'s JSON line, so the
    /// checkpoint stays grep-able and byte-comparable across runs.
    ///
    /// # Errors
    ///
    /// [`DrqError::InvalidConfig`] wrapping the store failure; on error the
    /// previous checkpoint is intact.
    pub fn checkpoint_to<S: drq_store::Storage>(
        &self,
        store: &drq_store::ArtifactStore<S>,
        path: &str,
    ) -> Result<u64, DrqError> {
        let mut text = self.to_report().to_json_string();
        text.push('\n');
        store.commit(path, text.as_bytes()).map_err(|e| DrqError::InvalidConfig {
            context: "pareto checkpoint",
            detail: e.to_string(),
        })
    }

    /// Restores a search from the durable checkpoint at `path`, falling
    /// back to the previous generation when the primary is corrupt or
    /// truncated, and accepting legacy unframed `kind:"pareto"` JSON files
    /// written before the store existed (reported as generation `0`).
    ///
    /// # Errors
    ///
    /// [`DrqError::InvalidConfig`] when no copy is loadable (the detail
    /// names both rejection reasons), when the recovered payload is not a
    /// valid report, or on any [`ParetoSearch::from_report`] failure.
    pub fn resume_from<S: drq_store::Storage>(
        store: &drq_store::ArtifactStore<S>,
        path: &str,
    ) -> Result<ResumedSearch, DrqError> {
        let invalid = |detail: String| DrqError::InvalidConfig { context: "pareto checkpoint", detail };
        let outcome = store.load_or_legacy(path).map_err(|e| invalid(e.to_string()))?;
        let text = String::from_utf8(outcome.payload)
            .map_err(|_| invalid("checkpoint payload is not UTF-8".into()))?;
        let report = Report::from_json_str(&text).map_err(|e| invalid(e.to_string()))?;
        let search = ParetoSearch::from_report(&report)?;
        Ok(ResumedSearch {
            search,
            generation: outcome.generation,
            salvaged: outcome.salvaged,
        })
    }
}

/// A search restored by [`ParetoSearch::resume_from`], with recovery
/// provenance: which generation the state came from and whether the
/// primary checkpoint had to be abandoned for the previous one.
#[derive(Debug)]
pub struct ResumedSearch {
    /// The restored search, ready to [`ParetoSearch::run`].
    pub search: ParetoSearch,
    /// Store generation the state came from (`0` for a legacy unframed
    /// checkpoint).
    pub generation: u64,
    /// `Some(why)` when the primary was rejected and the state was
    /// salvaged from `<path>.prev`.
    pub salvaged: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use drq_core::RegionSize;
    use crate::pareto::Geometry;

    /// A toy evaluator with genuine trade-offs: a higher threshold costs
    /// accuracy and energy but buys latency; a bigger array buys latency
    /// but costs energy. Exact per-box corner bounds (axes are sorted,
    /// every term is monotone).
    struct TableEval;

    impl TableEval {
        fn score(c: &Candidate) -> Objectives {
            Self::compose(
                f64::from(c.threshold),
                c.geometry.total_pes(),
                c.region.area(),
                c.buffer_bytes,
            )
        }

        fn compose(t: f64, pes: usize, area: usize, buffer: usize) -> Objectives {
            Objectives {
                accuracy: 1.0 / (1.0 + t),
                latency_cycles: ((1_000_000.0 * (128.0 - t)) / (128.0 * pes as f64)) as u64
                    + area as u64,
                energy_pj: pes as f64 * 0.01 + buffer as f64 + t,
            }
        }
    }

    impl CandidateEval for TableEval {
        fn evaluate(&self, c: &Candidate) -> Result<Objectives, String> {
            Ok(Self::score(c))
        }

        fn optimistic_bound(
            &self,
            space: &CandidateSpace,
            bx: &CandidateBox,
        ) -> Option<Objectives> {
            let t_min = f64::from(space.thresholds()[bx.lo[2]]);
            let t_max = f64::from(space.thresholds()[bx.hi[2] - 1]);
            let pes_min = space.geometries()[bx.lo[0]].total_pes();
            let pes_max = space.geometries()[bx.hi[0] - 1].total_pes();
            let area_min = space.regions()[bx.lo[1]].area();
            let buf_min = space.buffer_bytes()[bx.lo[3]];
            let best_acc = Self::compose(t_min, pes_max, area_min, buf_min).accuracy;
            let best_lat = Self::compose(t_max, pes_max, area_min, buf_min).latency_cycles;
            let best_energy = Self::compose(t_min, pes_min, area_min, buf_min).energy_pj;
            Some(Objectives {
                accuracy: best_acc,
                latency_cycles: best_lat,
                energy_pj: best_energy,
            })
        }
    }

    fn space() -> CandidateSpace {
        CandidateSpace::try_new(
            vec![Geometry::new(1, 4, 4), Geometry::new(2, 4, 4), Geometry::new(4, 4, 4)],
            vec![RegionSize::new(2, 2), RegionSize::new(4, 4)],
            vec![0.5, 2.0, 8.0, 32.0],
            vec![100, 200],
        )
        .unwrap()
    }

    #[test]
    fn box_split_covers_and_partitions() {
        let s = space();
        let full = CandidateBox::full(&s);
        assert_eq!(full.len(), s.len());
        let (a, b) = full.split();
        assert_eq!(a.len() + b.len(), full.len());
        let mut all: Vec<usize> = a
            .candidate_indices(&s)
            .into_iter()
            .chain(b.candidate_indices(&s))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..s.len()).collect::<Vec<_>>());
    }

    #[test]
    fn search_finds_the_exact_front_and_prunes() {
        let s = space();
        let mut search = ParetoSearch::new(s.clone(), 7, 4);
        assert_eq!(search.run(&TableEval, None).unwrap(), SearchStatus::Complete);
        assert!(search.front().len() > 1);
        assert!(search.dominated_pruned() > 0, "grid corners must be dominated");
        assert_eq!(search.evaluated() + search.region_pruned(), s.len() as u64);
        // Differential: brute force over the whole space.
        let mut brute = ParetoFront::new();
        for i in 0..s.len() {
            brute.insert(FrontMember {
                candidate_index: i as u64,
                objectives: TableEval::score(&s.candidate(i)),
            });
        }
        assert_eq!(search.front(), &brute);
    }

    #[test]
    fn budget_pauses_and_resume_converges_identically() {
        let s = space();
        let mut full = ParetoSearch::new(s.clone(), 7, 4);
        full.run(&TableEval, None).unwrap();
        let reference = full.to_report().to_json_string();

        let mut paused = ParetoSearch::new(s, 7, 4);
        let mut pauses = 0;
        loop {
            match paused.run(&TableEval, Some(5)).unwrap() {
                SearchStatus::Complete => break,
                SearchStatus::Paused => {
                    pauses += 1;
                    // Round-trip through the artifact at every pause.
                    let bytes = paused.to_report();
                    let restored = ParetoSearch::from_report(&bytes).unwrap();
                    assert_eq!(restored.to_report().to_json_string(), bytes.to_json_string());
                    paused = restored;
                }
            }
        }
        assert!(pauses > 0, "budget of 5 must pause a {}-candidate search", full.evaluated());
        assert_eq!(paused.to_report().to_json_string(), reference);
    }

    #[test]
    fn durable_checkpoints_rotate_and_salvage() {
        use drq_store::{ArtifactStore, MemStorage, Storage};
        let mem = MemStorage::new();
        let store = ArtifactStore::new(mem.clone());
        let s = space();
        let mut search = ParetoSearch::new(s.clone(), 7, 4);
        search.run(&TableEval, Some(5)).unwrap();
        assert_eq!(search.checkpoint_to(&store, "ck.json").unwrap(), 1);
        let gen1 = search.to_report().to_json_string();
        search.run(&TableEval, Some(5)).unwrap();
        assert_eq!(search.checkpoint_to(&store, "ck.json").unwrap(), 2);

        // Clean resume: generation 2, nothing salvaged.
        let resumed = ParetoSearch::resume_from(&store, "ck.json").unwrap();
        assert_eq!((resumed.generation, resumed.salvaged), (2, None));
        assert_eq!(
            resumed.search.to_report().to_json_string(),
            search.to_report().to_json_string()
        );

        // Torn primary: resume salvages generation 1 and says why.
        let full = mem.read("ck.json").unwrap();
        mem.put("ck.json", full[..full.len() / 2].to_vec());
        let resumed = ParetoSearch::resume_from(&store, "ck.json").unwrap();
        assert_eq!(resumed.generation, 1);
        assert!(resumed.salvaged.is_some());
        assert_eq!(resumed.search.to_report().to_json_string(), gen1);

        // Legacy unframed checkpoint (pre-store file) still resumes.
        mem.put("legacy.json", format!("{gen1}\n").into_bytes());
        let resumed = ParetoSearch::resume_from(&store, "legacy.json").unwrap();
        assert_eq!((resumed.generation, resumed.salvaged), (0, None));
        assert_eq!(resumed.search.to_report().to_json_string(), gen1);

        // Both generations bad: a typed error naming both reasons.
        mem.put("ck.json", b"torn".to_vec());
        mem.put("ck.json.prev", b"also torn".to_vec());
        let err = ParetoSearch::resume_from(&store, "ck.json").unwrap_err();
        assert!(err.to_string().contains("pareto checkpoint"), "{err}");
    }

    #[test]
    fn region_cutting_skips_strictly_dominated_boxes() {
        // One axis is purely bad: every extra threshold rung costs
        // accuracy, latency, and energy. Once the best-threshold leaf is
        // on the front, the remaining high-threshold boxes are strictly
        // dominated at their optimistic corner and must be cut unevaluated.
        struct Monotone;
        impl CandidateEval for Monotone {
            fn evaluate(&self, c: &Candidate) -> Result<Objectives, String> {
                let t = f64::from(c.threshold);
                Ok(Objectives {
                    accuracy: 200.0 - t,
                    latency_cycles: 1_000 + (t * 10.0) as u64,
                    energy_pj: t,
                })
            }
            fn optimistic_bound(
                &self,
                space: &CandidateSpace,
                bx: &CandidateBox,
            ) -> Option<Objectives> {
                let t_min = f64::from(space.thresholds()[bx.lo[2]]);
                Some(Objectives {
                    accuracy: 200.0 - t_min,
                    latency_cycles: 1_000 + (t_min * 10.0) as u64,
                    energy_pj: t_min,
                })
            }
        }
        let s = CandidateSpace::try_new(
            vec![Geometry::new(1, 1, 1)],
            vec![RegionSize::new(1, 1)],
            (1..=16).map(|t| t as f32).collect(),
            vec![64],
        )
        .unwrap();
        let mut search = ParetoSearch::new(s.clone(), 0, 2);
        search.run(&Monotone, None).unwrap();
        assert_eq!(search.front().len(), 1, "a single threshold wins every axis");
        assert!(search.region_pruned() > 0, "dominated boxes must be cut unevaluated");
        assert_eq!(search.evaluated() + search.region_pruned(), s.len() as u64);
        assert_eq!(search.front().members()[0].candidate_index, 0);
    }

    #[test]
    fn seeds_change_traversal_but_not_the_front() {
        let s = space();
        let mut a = ParetoSearch::new(s.clone(), 1, 2);
        let mut b = ParetoSearch::new(s, 0xDEAD_BEEF, 2);
        a.run(&TableEval, None).unwrap();
        b.run(&TableEval, None).unwrap();
        assert_eq!(a.front(), b.front());
    }

    #[test]
    fn from_report_rejects_foreign_and_corrupt_artifacts() {
        let other = Report::new("network_sim");
        assert!(ParetoSearch::from_report(&other).is_err());
        let mut search = ParetoSearch::new(space(), 7, 4);
        search.run(&TableEval, Some(4)).unwrap();
        let good = search.to_report();
        let text = good.to_json_string();
        let tampered = text.replace("\"seed\":7", "\"seed\":7,\"x\":1"); // still parses
        let report = Report::from_json_str(&tampered).unwrap();
        assert!(ParetoSearch::from_report(&report).is_ok(), "unknown keys are ignored");
        let wrong_space = text.replace("\"regions\":[\"2x2\",\"4x4\"]", "\"regions\":[\"2x2\"]");
        let report = Report::from_json_str(&wrong_space).unwrap();
        assert!(ParetoSearch::from_report(&report).is_err(), "fingerprint must catch edits");
    }

    #[test]
    fn failing_evaluator_propagates_typed_error() {
        struct Flaky;
        impl CandidateEval for Flaky {
            fn evaluate(&self, c: &Candidate) -> Result<Objectives, String> {
                Err(format!("candidate {} is cursed", c.index))
            }
        }
        let mut search = ParetoSearch::new(space(), 7, 4)
            .retry_policy(RetryPolicy::fast_test());
        let err = search.run(&Flaky, None).unwrap_err();
        assert!(matches!(err, DrqError::RetriesExhausted { attempts: 3, .. }), "{err}");
    }
}
