//! The RecPart optimizer (Algorithm 1 of the paper).
//!
//! Starting from a single leaf covering the whole join-attribute space, RecPart
//! repeatedly picks the leaf whose best candidate split has the highest score (ratio of
//! load-variance reduction to input-duplication increase, see [`crate::SplitScore`]) and
//! applies that split:
//!
//! * a **regular** leaf is split by the best hyperplane found over all allowed
//!   dimensions (decision-tree style, Algorithm 2);
//! * a **small** leaf (extent below twice the band width in every dimension) instead
//!   increments the row or column count of its internal 1-Bucket grid.
//!
//! All estimates are derived from a fixed-size input sample and output sample, so the
//! optimization cost is `O(w log w + w·d)` for `w` workers and `d` dimensions.
//! The optimizer tracks the best partitioning seen so far and stops according to the
//! configured [`Termination`](crate::Termination) rule.
//!
//! Each decision is written once and known to one module (DESIGN.md §8):
//!
//! | module | owns | does not know |
//! |---|---|---|
//! | this one | the public API, the sample context (`OptimizerState`), the role formulation of a plane split (`Plane`) | how a split is found, costed or applied |
//! | `projections` | a leaf's cached sorted columns and how a split distributes them, by the children recorded for each point | scores, the ledger, `Plane` and the role rules |
//! | `search` | the best split of one leaf: the sweep's counting and the one scoring routine | the ledger, the growth loop |
//! | `ledger` | the per-leaf cost ledger and the LPT evaluation | how splits are found |
//! | `grow` | the repeat loop, winner and undo log, termination, the report | how a split is scored or costed |
//!
//! A release build has one split search and one evaluator. Their oracles — the
//! binary-search reference scorer and the ledger rebuilt before every evaluation —
//! are test code, switched on through `Oracles` (DESIGN.md §8).

mod grow;
mod ledger;
mod projections;
mod search;

use crate::band::BandCondition;
use crate::config::RecPartConfig;
use crate::error::RecPartError;
use crate::geometry::Rect;
use crate::metrics::{EvalCounters, SplitSearchCounters};
use crate::parallel::Parallelism;
use crate::partition::{AssignmentSink, PartitionId, Partitioner};
use crate::relation::Relation;
use crate::router::CompiledRouter;
use crate::sample::{InputSample, OutputSample};
use crate::small::BucketGrid;
use crate::split_tree::{NodeId, SplitKind, SplitTree};
use projections::LeafProjections;
use rand::Rng;
use search::{BestSplit, MIN_PLANE_SUPPORT};
use std::time::Instant;

/// Summary of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimizationReport {
    /// `"RecPart"` or `"RecPart-S"`.
    pub strategy: String,
    /// Number of repeat-loop iterations executed.
    pub iterations: usize,
    /// Iteration at which the returned (winning) partitioning was found.
    pub winning_iteration: usize,
    /// Number of leaves of the winning split tree.
    pub leaves: usize,
    /// Number of partitions (leaf 1-Bucket cells) of the winning tree.
    pub partitions: usize,
    /// Estimated total input (including duplicates) of the winning partitioning.
    pub estimated_total_input: f64,
    /// Estimated duplication overhead `(I − (|S|+|T|)) / (|S|+|T|)`.
    pub estimated_dup_overhead: f64,
    /// Estimated max-load overhead `(L_m − L₀) / L₀`.
    pub estimated_load_overhead: f64,
    /// Estimated output size `|S ⋈ T|` from the output sampler.
    pub estimated_output: f64,
    /// Predicted join time of the winning partitioning under the cost model.
    pub predicted_time: f64,
    /// Wall-clock optimization time in seconds (sampling + tree growth).
    pub optimization_seconds: f64,
    /// Wall-clock seconds spent scoring candidate splits (a subset of
    /// [`OptimizationReport::optimization_seconds`]).
    pub split_search_seconds: f64,
    /// Wall-clock seconds spent in post-split evaluation — ledger maintenance plus
    /// the LPT worker mapping (a subset of
    /// [`OptimizationReport::optimization_seconds`]).
    pub evaluation_seconds: f64,
    /// Split-search work counters. Deterministic functions of the samples and the
    /// configuration — identical across every `threads` setting.
    pub split_search: SplitSearchCounters,
    /// Evaluation work counters. Deterministic functions of the samples and the
    /// configuration — identical across every `threads` setting; `ledger_leaf_visits`
    /// shows the ledger's delta-sized work.
    pub evaluation: EvalCounters,
    /// Human-readable reason the loop stopped.
    pub termination_reason: String,
}

/// The partitioner produced by a RecPart optimization run.
///
/// Routes tuples through the split tree (Algorithm 3): S-tuples follow T-split nodes
/// deterministically and are duplicated at S-split nodes, T-tuples vice versa; small
/// leaves route into their internal 1-Bucket grid. The per-tuple
/// [`assign_s`](Partitioner::assign_s)/[`assign_t`](Partitioner::assign_t) walk the
/// tree directly (the reference path); the block methods descend the
/// [`CompiledRouter`] — the same assignment flattened into per-side SoA node tables —
/// which is what the executor's map phase drives.
#[derive(Debug, Clone)]
pub struct SplitTreePartitioner {
    tree: SplitTree,
    band: BandCondition,
    seed: u64,
    name: String,
    router: CompiledRouter,
}

impl SplitTreePartitioner {
    /// The underlying split tree.
    pub fn tree(&self) -> &SplitTree {
        &self.tree
    }

    /// The band condition the partitioner was built for.
    pub fn band(&self) -> &BandCondition {
        &self.band
    }

    /// The compiled block router (bit-identical to the tree walk).
    pub fn router(&self) -> &CompiledRouter {
        &self.router
    }

    /// A 64-bit digest of everything that determines this partitioner's
    /// assignment: the compiled router (which bakes the tree shape, the band
    /// shifts, and the leaf hash seeds), the routing seed, and the band the
    /// plan was built for (per-dimension ε by IEEE bit pattern). Two
    /// partitioners with equal signatures route every tuple identically, so a
    /// plan cache can key shuffled arenas on the signature.
    pub fn plan_signature(&self) -> u64 {
        let mut h = crate::router::fnv1a_word(crate::router::FNV_OFFSET, self.seed);
        h = crate::router::fnv1a_word(h, self.band.dims() as u64);
        for d in 0..self.band.dims() {
            h = crate::router::fnv1a_word(h, self.band.eps_low(d).to_bits());
            h = crate::router::fnv1a_word(h, self.band.eps_high(d).to_bits());
        }
        crate::router::fnv1a_word(h, self.router.signature())
    }

    /// Build a partitioner from a split tree: assign the partition ids and compile
    /// the block router. What `RecPart` does with its winning tree; public for tests
    /// and tools that build trees by hand.
    pub fn from_tree(
        mut tree: SplitTree,
        band: BandCondition,
        seed: u64,
        name: impl Into<String>,
    ) -> Self {
        tree.assign_partition_ids();
        let router = CompiledRouter::compile(&tree, &band, seed);
        SplitTreePartitioner {
            tree,
            band,
            seed,
            name: name.into(),
            router,
        }
    }
}

impl Partitioner for SplitTreePartitioner {
    fn num_partitions(&self) -> usize {
        self.tree.num_partitions()
    }

    fn assign_s(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
        self.tree.route_s(key, tuple_id, &self.band, self.seed, out);
    }

    fn assign_t(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
        self.tree.route_t(key, tuple_id, &self.band, self.seed, out);
    }

    fn assign_s_block(
        &self,
        rel: &Relation,
        rows: std::ops::Range<usize>,
        sink: &mut AssignmentSink,
    ) {
        self.router.route_s_block(rel, rows, sink);
    }

    fn assign_t_block(
        &self,
        rel: &Relation,
        rows: std::ops::Range<usize>,
        sink: &mut AssignmentSink,
    ) {
        self.router.route_t_block(rel, rows, sink);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Result of [`RecPart::optimize`]: the partitioner plus the optimization report.
#[derive(Debug, Clone)]
pub struct RecPartResult {
    /// The winning partitioner.
    pub partitioner: SplitTreePartitioner,
    /// Statistics about the optimization run.
    pub report: OptimizationReport,
}

/// The RecPart optimizer.
#[derive(Debug, Clone)]
pub struct RecPart {
    config: RecPartConfig,
    /// `config.threads`, resolved. Output-sample scan only: the split search and the
    /// evaluation are sequential by construction (DESIGN.md §6).
    par: Parallelism,
    #[cfg(test)]
    oracles: Oracles,
}

/// Which production paths a test run replaces by their oracles. Each oracle
/// computes bit-identical results the slow, independent way, so a test can hold the
/// production path to it end to end.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
struct Oracles {
    /// Score plane splits with the binary-search reference (`search_dim`) instead of
    /// the sweep.
    binary_search: bool,
    /// Rebuild the cost ledger from the tree before every evaluation instead of
    /// trusting its deltas.
    full_recompute: bool,
}

impl RecPart {
    /// Create an optimizer with the given configuration.
    pub fn new(config: RecPartConfig) -> Self {
        RecPart {
            par: Parallelism::new(config.threads),
            config,
            #[cfg(test)]
            oracles: Oracles::default(),
        }
    }

    /// The same optimizer with `oracles` in place of the production paths.
    #[cfg(test)]
    fn with_oracles(self, oracles: Oracles) -> Self {
        RecPart { oracles, ..self }
    }

    /// The configuration this optimizer runs with.
    pub fn config(&self) -> &RecPartConfig {
        &self.config
    }

    /// Validate inputs, draw samples, and run the optimization (panicking convenience
    /// wrapper around [`RecPart::try_optimize`]).
    pub fn optimize<R: Rng + ?Sized>(
        &self,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        rng: &mut R,
    ) -> RecPartResult {
        self.try_optimize(s, t, band, rng)
            .expect("RecPart optimization failed")
    }

    /// Validate inputs, draw samples, and run the optimization.
    pub fn try_optimize<R: Rng + ?Sized>(
        &self,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        rng: &mut R,
    ) -> Result<RecPartResult, RecPartError> {
        if s.is_empty() {
            return Err(RecPartError::EmptyRelation { side: "S" });
        }
        if t.is_empty() {
            return Err(RecPartError::EmptyRelation { side: "T" });
        }
        if s.dims() != t.dims() {
            return Err(RecPartError::DimensionMismatch {
                expected: s.dims(),
                found: t.dims(),
            });
        }
        band.check_dims(s.dims())?;

        let start = Instant::now();
        let total = self.config.sample.input_sample_size.max(2);
        let s_share = ((total as f64 * s.len() as f64 / (s.len() + t.len()) as f64).round()
            as usize)
            .clamp(1, total - 1);
        let s_sample = InputSample::draw(s, s_share, rng);
        let t_sample = InputSample::draw(t, total - s_share, rng);
        let o_sample = OutputSample::draw_with(s, t, band, &self.config.sample, rng, self.par);

        Ok(self.optimize_with_samples(
            s.len(),
            t.len(),
            band,
            &s_sample,
            &t_sample,
            &o_sample,
            start,
        ))
    }

    /// Run the optimization on pre-drawn samples. Exposed so that optimization-time
    /// benchmarks can exclude the sampling cost and so callers can reuse samples
    /// across repeated runs.
    #[allow(clippy::too_many_arguments)]
    pub fn optimize_with_samples(
        &self,
        s_len: usize,
        t_len: usize,
        band: &BandCondition,
        s_sample: &InputSample,
        t_sample: &InputSample,
        o_sample: &OutputSample,
        start: Instant,
    ) -> RecPartResult {
        let state = OptimizerState::new(
            &self.config,
            band,
            s_len,
            t_len,
            s_sample,
            t_sample,
            o_sample,
        );
        #[cfg(test)]
        let state = OptimizerState {
            oracles: self.oracles,
            ..state
        };
        state.finalize(state.grow(), start)
    }
}

/// The hyperplane `A_dim < value` of a candidate or applied split, with the **role**
/// its [`SplitKind`] gives each input (Algorithm 2): one side is *partitioned* at the
/// plane, the other is *duplicated* within band width of it, and output pairs follow
/// the partitioned side's key. A T-split partitions S and duplicates T; an S-split —
/// scored only under symmetric partitioning — partitions T and duplicates S.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Plane {
    dim: usize,
    value: f64,
    kind: SplitKind,
}

impl Plane {
    /// Children `(left, right)` of a point of the partitioned side — or an output
    /// pair — whose key reads `v` in the split dimension: exactly one.
    #[inline]
    fn one_child(&self, v: f64) -> (bool, bool) {
        let left = v < self.value;
        (left, !left)
    }

    /// Children of a point of the duplicated side whose band range in the split
    /// dimension is `(lo, hi)`: every child the range reaches.
    #[inline]
    fn reached_children(&self, (lo, hi): (f64, f64)) -> (bool, bool) {
        (lo < self.value, hi >= self.value)
    }
}

/// Per-leaf working state of the optimizer: the sample points that fall into the leaf
/// and the cached best split.
#[derive(Debug, Clone)]
struct LeafWork {
    node: NodeId,
    s_pts: Vec<u32>,
    t_pts: Vec<u32>,
    /// Indices of output-sample pairs routed to this leaf.
    o_pts: Vec<u32>,
    /// Cached sorted projections (`None` unless the leaf is a
    /// [`plane_candidate`](LeafWork::plane_candidate): no other leaf ever plane-splits).
    proj: Option<LeafProjections>,
    grid: BucketGrid,
    is_small: bool,
    best: BestSplit,
    version: u32,
}

impl LeafWork {
    /// A regular leaf with no sample points yet, an unsplit grid and no cached split.
    fn new(node: NodeId) -> Self {
        LeafWork {
            node,
            s_pts: Vec::new(),
            t_pts: Vec::new(),
            o_pts: Vec::new(),
            proj: None,
            grid: BucketGrid::default(),
            is_small: false,
            best: BestSplit::none(),
            version: 0,
        }
    }

    /// May the leaf be split by a hyperplane: regular (not small), and holding at
    /// least [`MIN_PLANE_SUPPORT`] input-sample tuples? A leaf's sample only shrinks
    /// as it splits, so a leaf that is no candidate never becomes one.
    fn plane_candidate(&self) -> bool {
        !self.is_small && self.s_pts.len() + self.t_pts.len() >= MIN_PLANE_SUPPORT
    }
}

/// The context every optimizer module reads: configuration, band, the three samples
/// and their scale-up weights.
struct OptimizerState<'a> {
    cfg: &'a RecPartConfig,
    band: &'a BandCondition,
    dims: usize,
    s_len: usize,
    t_len: usize,
    ws: f64,
    wt: f64,
    wo: f64,
    est_output: f64,
    s_sample: &'a InputSample,
    t_sample: &'a InputSample,
    o_sample: &'a OutputSample,
    /// Bounding box of both input samples: what "small" and "still splittable in
    /// dimension `d`" clip an unbounded leaf region against.
    domain: Rect,
    #[cfg(test)]
    oracles: Oracles,
}

impl<'a> OptimizerState<'a> {
    fn new(
        cfg: &'a RecPartConfig,
        band: &'a BandCondition,
        s_len: usize,
        t_len: usize,
        s_sample: &'a InputSample,
        t_sample: &'a InputSample,
        o_sample: &'a OutputSample,
    ) -> Self {
        let dims = band.dims();
        let s_box = Rect::bounding_box(dims, s_sample.iter());
        let t_box = Rect::bounding_box(dims, t_sample.iter());
        let domain = match (s_box, t_box) {
            (Some(a), Some(b)) => a.union(&b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => Rect::unbounded(dims),
        };
        OptimizerState {
            cfg,
            band,
            dims,
            s_len,
            t_len,
            ws: s_sample.weight(),
            wt: t_sample.weight(),
            wo: o_sample.weight(),
            est_output: o_sample.estimated_output(),
            s_sample,
            t_sample,
            o_sample,
            domain,
            #[cfg(test)]
            oracles: Oracles::default(),
        }
    }

    /// Estimated `(S input, T input, output)` of a leaf: its sample counts scaled up.
    fn leaf_estimates(&self, work: &LeafWork) -> (f64, f64, f64) {
        (
            self.ws * work.s_pts.len() as f64,
            self.wt * work.t_pts.len() as f64,
            self.wo * work.o_pts.len() as f64,
        )
    }

    /// Children `(left, right)` of `plane` that S-sample point `i` goes to.
    fn s_children(&self, plane: Plane, i: u32) -> (bool, bool) {
        let v = self.s_sample.key(i as usize)[plane.dim];
        match plane.kind {
            SplitKind::TSplit => plane.one_child(v),
            SplitKind::SSplit => plane.reached_children(self.band.range_around_s(plane.dim, v)),
        }
    }

    /// Children `(left, right)` of `plane` that T-sample point `i` goes to.
    fn t_children(&self, plane: Plane, i: u32) -> (bool, bool) {
        let v = self.t_sample.key(i as usize)[plane.dim];
        match plane.kind {
            SplitKind::TSplit => plane.reached_children(self.band.range_around_t(plane.dim, v)),
            SplitKind::SSplit => plane.one_child(v),
        }
    }

    /// The one child of `plane` that output-sample pair `i` goes to.
    fn o_children(&self, plane: Plane, i: u32) -> (bool, bool) {
        let key = match plane.kind {
            SplitKind::TSplit => self.o_sample.s_key(i as usize),
            SplitKind::SSplit => self.o_sample.t_key(i as usize),
        };
        plane.one_child(key[plane.dim])
    }
}

#[cfg(test)]
mod golden;
#[cfg(test)]
mod tests;
