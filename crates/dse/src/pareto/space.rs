//! The typed candidate space: four sorted axes with a stable mixed-radix
//! index encoding.
//!
//! A [`CandidateSpace`] is the cross product of
//!
//! * **array geometry** — [`Geometry`] (pages × rows × cols), sorted by
//!   total PE count;
//! * **region shape** — [`RegionSize`], sorted by area (the precision-mix
//!   axis: region shape + threshold drive the INT4/INT8 split);
//! * **region threshold** — `f32`, sorted ascending;
//! * **global-buffer sizing** — bytes, sorted ascending.
//!
//! Axes are sorted and deduplicated at construction so that every
//! contiguous index hypercube ([`crate::pareto::CandidateBox`]) has its
//! extreme corners at the range endpoints — that is what makes the
//! per-box optimistic bounds in
//! [`crate::pareto::SimSpaceEval::optimistic_bound`] exact range bounds
//! rather than heuristics. A candidate's identity is its [`Candidate::index`]
//! (mixed-radix over the axes, buffer fastest), which is what checkpoints
//! persist: an artifact plus the space reconstructs every candidate.

use drq_core::{DrqError, RegionSize};
use drq_telemetry::Json;
use std::fmt;

/// A systolic-array organization: `pages × rows × cols` PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// PE pages (the outer tiling unit).
    pub pages: usize,
    /// Rows per page.
    pub rows: usize,
    /// Columns per page.
    pub cols: usize,
}

impl Geometry {
    /// Creates a geometry; all dimensions must be positive.
    pub fn new(pages: usize, rows: usize, cols: usize) -> Self {
        assert!(pages > 0 && rows > 0 && cols > 0, "geometry must be positive");
        Self { pages, rows, cols }
    }

    /// Total PE count.
    pub fn total_pes(&self) -> usize {
        self.pages * self.rows * self.cols
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("pages", Json::U64(self.pages as u64)),
            ("rows", Json::U64(self.rows as u64)),
            ("cols", Json::U64(self.cols as u64)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, DrqError> {
        let field = |k: &str| {
            v.get(k).and_then(Json::as_u64).ok_or_else(|| DrqError::InvalidConfig {
                context: "pareto space",
                detail: format!("geometry missing positive integer {k:?}: {v}"),
            })
        };
        let (pages, rows, cols) = (field("pages")?, field("rows")?, field("cols")?);
        if pages == 0 || rows == 0 || cols == 0 {
            return Err(DrqError::InvalidConfig {
                context: "pareto space",
                detail: format!("geometry dimensions must be positive: {v}"),
            });
        }
        Ok(Self::new(pages as usize, rows as usize, cols as usize))
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.pages, self.rows, self.cols)
    }
}

/// One fully-specified design point, decoded from its space index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The stable mixed-radix index within the owning space.
    pub index: usize,
    /// Array organization.
    pub geometry: Geometry,
    /// DRQ region shape.
    pub region: RegionSize,
    /// DRQ sensitivity threshold.
    pub threshold: f32,
    /// Global-buffer capacity in bytes.
    pub buffer_bytes: usize,
}

/// The sorted, deduplicated candidate grid. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSpace {
    geometries: Vec<Geometry>,
    regions: Vec<RegionSize>,
    thresholds: Vec<f32>,
    buffer_bytes: Vec<usize>,
}

impl CandidateSpace {
    /// Builds a space from raw axes, sorting and deduplicating each.
    ///
    /// # Errors
    ///
    /// [`DrqError::InvalidConfig`] if any axis is empty, a threshold is
    /// non-finite or negative, or a buffer size is zero.
    pub fn try_new(
        geometries: Vec<Geometry>,
        regions: Vec<RegionSize>,
        thresholds: Vec<f32>,
        buffer_bytes: Vec<usize>,
    ) -> Result<Self, DrqError> {
        let invalid = |detail: String| DrqError::InvalidConfig { context: "pareto space", detail };
        if geometries.is_empty() || regions.is_empty() || thresholds.is_empty() || buffer_bytes.is_empty()
        {
            return Err(invalid("every axis needs at least one value".into()));
        }
        if let Some(t) = thresholds.iter().find(|t| !t.is_finite() || **t < 0.0) {
            return Err(invalid(format!("threshold must be finite and non-negative, got {t}")));
        }
        if buffer_bytes.contains(&0) {
            return Err(invalid("buffer size must be positive".into()));
        }
        let mut geometries = geometries;
        geometries.sort_by_key(|g| (g.total_pes(), g.pages, g.rows, g.cols));
        geometries.dedup();
        let mut regions = regions;
        regions.sort_by_key(|r| (r.area(), r.x, r.y));
        regions.dedup();
        let mut thresholds = thresholds;
        thresholds.sort_by(f32::total_cmp);
        thresholds.dedup();
        let mut buffer_bytes = buffer_bytes;
        buffer_bytes.sort_unstable();
        buffer_bytes.dedup();
        Ok(Self { geometries, regions, thresholds, buffer_bytes })
    }

    /// The default exploration grid around the paper's operating point:
    /// half/paper/double page counts, three region shapes, the Fig. 14
    /// threshold ladder thinned to seven rungs, and half/paper/double
    /// global buffers — 189 candidates.
    pub fn paper_grid() -> Self {
        let mb = 1024 * 1024;
        Self::try_new(
            vec![Geometry::new(8, 18, 11), Geometry::new(16, 18, 11), Geometry::new(32, 18, 11)],
            vec![RegionSize::new(4, 4), RegionSize::new(4, 16), RegionSize::new(8, 16)],
            vec![0.5, 2.0, 10.0, 21.0, 40.0, 80.0, 127.0],
            vec![5 * mb / 2, 5 * mb, 10 * mb],
        )
        .expect("paper grid is valid")
    }

    /// A degenerate space for the legacy `drq sweep` grid: the paper
    /// geometry and buffer, one region shape, and the given threshold
    /// ladder.
    pub fn sweep_grid(region: RegionSize, thresholds: &[f32]) -> Result<Self, DrqError> {
        Self::try_new(
            vec![Geometry::new(16, 18, 11)],
            vec![region],
            thresholds.to_vec(),
            vec![5 * 1024 * 1024],
        )
    }

    /// Axis lengths in index order (geometry, region, threshold, buffer).
    pub fn axis_lens(&self) -> [usize; 4] {
        [self.geometries.len(), self.regions.len(), self.thresholds.len(), self.buffer_bytes.len()]
    }

    /// Total candidate count (the product of the axis lengths).
    pub fn len(&self) -> usize {
        self.axis_lens().iter().product()
    }

    /// Whether the space is empty (it never is — construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted geometry axis.
    pub fn geometries(&self) -> &[Geometry] {
        &self.geometries
    }

    /// The sorted (by area) region axis.
    pub fn regions(&self) -> &[RegionSize] {
        &self.regions
    }

    /// The sorted threshold axis.
    pub fn thresholds(&self) -> &[f32] {
        &self.thresholds
    }

    /// The sorted buffer axis.
    pub fn buffer_bytes(&self) -> &[usize] {
        &self.buffer_bytes
    }

    /// Encodes per-axis positions into the stable candidate index
    /// (buffer varies fastest).
    pub fn encode(&self, g: usize, r: usize, t: usize, b: usize) -> usize {
        let [_, nr, nt, nb] = self.axis_lens();
        ((g * nr + r) * nt + t) * nb + b
    }

    /// Decodes a candidate index. Panics if `index >= self.len()`.
    pub fn candidate(&self, index: usize) -> Candidate {
        assert!(index < self.len(), "candidate index {index} out of range {}", self.len());
        let [_, nr, nt, nb] = self.axis_lens();
        let b = index % nb;
        let t = (index / nb) % nt;
        let r = (index / (nb * nt)) % nr;
        let g = index / (nb * nt * nr);
        Candidate {
            index,
            geometry: self.geometries[g],
            region: self.regions[r],
            threshold: self.thresholds[t],
            buffer_bytes: self.buffer_bytes[b],
        }
    }

    /// A stable fingerprint of the canonical JSON encoding, stored in
    /// checkpoints so a resume against a different space is rejected
    /// instead of silently mixing index meanings.
    ///
    /// FNV-1a-shaped, but its multiplier is `0x1_0000_01b3`, not the FNV
    /// prime `0x100_0000_01b3` of [`drq_tensor::fnv1a`]; it stays because
    /// every committed checkpoint carries it.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.to_json().to_string().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1_0000_01b3);
        }
        hash
    }

    /// Canonical JSON encoding (axes in sorted order).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("geometries", Json::Array(self.geometries.iter().map(|g| g.to_json()).collect())),
            (
                "regions",
                Json::Array(self.regions.iter().map(|r| Json::str(r.to_string())).collect()),
            ),
            (
                "thresholds",
                Json::Array(self.thresholds.iter().map(|&t| Json::F64(f64::from(t))).collect()),
            ),
            (
                "buffer_bytes",
                Json::Array(self.buffer_bytes.iter().map(|&b| Json::U64(b as u64)).collect()),
            ),
        ])
    }

    /// Parses the canonical encoding back (see [`CandidateSpace::to_json`]).
    ///
    /// # Errors
    ///
    /// [`DrqError::InvalidConfig`] on missing keys, malformed axis values,
    /// or axes that fail [`CandidateSpace::try_new`] validation.
    pub fn from_json(v: &Json) -> Result<Self, DrqError> {
        let invalid = |detail: String| DrqError::InvalidConfig { context: "pareto space", detail };
        let axis = |k: &str| {
            v.get(k).and_then(Json::as_array).ok_or_else(|| invalid(format!("missing axis array {k:?}")))
        };
        let geometries =
            axis("geometries")?.iter().map(Geometry::from_json).collect::<Result<Vec<_>, _>>()?;
        let regions = axis("regions")?
            .iter()
            .map(|r| {
                r.as_str()
                    .and_then(parse_region)
                    .ok_or_else(|| invalid(format!("bad region {r} (want \"HxW\")")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let thresholds = axis("thresholds")?
            .iter()
            .map(|t| {
                t.as_f64()
                    .map(|t| t as f32)
                    .ok_or_else(|| invalid(format!("bad threshold {t}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let buffer_bytes = axis("buffer_bytes")?
            .iter()
            .map(|b| {
                b.as_u64()
                    .map(|b| b as usize)
                    .ok_or_else(|| invalid(format!("bad buffer size {b}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::try_new(geometries, regions, thresholds, buffer_bytes)
    }
}

/// Parses `"HxW"` into a region (both dimensions positive).
fn parse_region(s: &str) -> Option<RegionSize> {
    let (x, y) = s.split_once('x')?;
    let (x, y) = (x.parse::<usize>().ok()?, y.parse::<usize>().ok()?);
    if x == 0 || y == 0 {
        return None;
    }
    Some(RegionSize::new(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> CandidateSpace {
        CandidateSpace::try_new(
            vec![Geometry::new(16, 18, 11), Geometry::new(8, 18, 11)],
            vec![RegionSize::new(4, 16), RegionSize::new(4, 4)],
            vec![21.0, 0.5],
            vec![1024, 512],
        )
        .unwrap()
    }

    #[test]
    fn axes_are_sorted_and_deduped() {
        let s = space();
        assert_eq!(s.geometries()[0].pages, 8, "geometries sorted by PE count");
        assert_eq!(s.regions()[0].area(), 16, "regions sorted by area");
        assert_eq!(s.thresholds(), &[0.5, 21.0]);
        assert_eq!(s.buffer_bytes(), &[512, 1024]);
        let dup = CandidateSpace::try_new(
            vec![Geometry::new(1, 2, 3); 3],
            vec![RegionSize::new(4, 4)],
            vec![1.0, 1.0],
            vec![64, 64],
        )
        .unwrap();
        assert_eq!(dup.len(), 1);
    }

    #[test]
    fn index_encoding_round_trips() {
        let s = space();
        assert_eq!(s.len(), 16);
        for i in 0..s.len() {
            let c = s.candidate(i);
            assert_eq!(c.index, i);
            let g = s.geometries().iter().position(|g| *g == c.geometry).unwrap();
            let r = s.regions().iter().position(|r| *r == c.region).unwrap();
            let t = s.thresholds().iter().position(|t| *t == c.threshold).unwrap();
            let b = s.buffer_bytes().iter().position(|b| *b == c.buffer_bytes).unwrap();
            assert_eq!(s.encode(g, r, t, b), i);
        }
    }

    #[test]
    fn json_round_trip_preserves_fingerprint() {
        for s in [space(), CandidateSpace::paper_grid()] {
            let back = CandidateSpace::from_json(&s.to_json()).unwrap();
            assert_eq!(back, s);
            assert_eq!(back.fingerprint(), s.fingerprint());
            assert_eq!(back.to_json().to_string(), s.to_json().to_string());
        }
    }

    #[test]
    fn invalid_axes_are_rejected() {
        assert!(CandidateSpace::try_new(vec![], vec![RegionSize::new(1, 1)], vec![1.0], vec![1])
            .is_err());
        assert!(CandidateSpace::try_new(
            vec![Geometry::new(1, 1, 1)],
            vec![RegionSize::new(1, 1)],
            vec![f32::NAN],
            vec![1]
        )
        .is_err());
        assert!(CandidateSpace::try_new(
            vec![Geometry::new(1, 1, 1)],
            vec![RegionSize::new(1, 1)],
            vec![1.0],
            vec![0]
        )
        .is_err());
    }

    #[test]
    fn sweep_grid_is_degenerate() {
        let s = CandidateSpace::sweep_grid(RegionSize::new(4, 16), &[0.5, 21.0, 127.0]).unwrap();
        assert_eq!(s.axis_lens(), [1, 1, 3, 1]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.candidate(1).threshold, 21.0);
        assert_eq!(s.candidate(1).geometry.total_pes(), 3168);
    }
}
