//! The RecPart optimizer (Algorithm 1 of the paper).
//!
//! Starting from a single leaf covering the whole join-attribute space, RecPart
//! repeatedly picks the leaf whose best candidate split has the highest score (ratio of
//! load-variance reduction to input-duplication increase, see [`crate::scoring`]) and
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
//! configured [`Termination`] rule.

use crate::band::BandCondition;
use crate::config::{Evaluator, RecPartConfig, SplitScorer, Termination};
use crate::error::RecPartError;
use crate::geometry::Rect;
use crate::load::LptHeap;
use crate::metrics::{EvalCounters, SplitSearchCounters};
use crate::parallel::Parallelism;
use crate::partition::{AssignmentSink, PartitionId, Partitioner};
use crate::relation::Relation;
use crate::router::CompiledRouter;
use crate::sample::{InputSample, OutputSample};
use crate::scoring::{advance, merge_dedup, partition_load, variance_term, SplitScore};
use crate::small::BucketGrid;
use crate::split_tree::{LeafNode, NodeId, SplitKind, SplitTree};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The action chosen for a leaf by `best_split`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SplitAction {
    /// Split the leaf by the hyperplane `A_dim < value`.
    Plane {
        dim: usize,
        value: f64,
        kind: SplitKind,
    },
    /// Increment the leaf's internal 1-Bucket grid.
    Grid { add_row: bool },
    /// Nothing useful to do with this leaf.
    None,
}

/// Best split of a leaf together with its score and estimated duplication increase.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BestSplit {
    score: SplitScore,
    action: SplitAction,
    dup_increase: f64,
}

impl BestSplit {
    fn none() -> Self {
        BestSplit {
            score: SplitScore::NotSplittable,
            action: SplitAction::None,
            dup_increase: 0.0,
        }
    }
}

/// One sorted projection column: sample indices ordered ascending by the key value
/// in some dimension, **plus the projected values themselves** in the same order.
/// Caching the values next to the indices lets the sweep scorer read its per-visit
/// value arrays straight out of the leaf instead of re-gathering them from the
/// samples — a deliberate memory-for-time trade.
#[derive(Debug, Clone, Default)]
struct SortedProj {
    idx: Vec<u32>,
    vals: Vec<f64>,
}

impl SortedProj {
    fn with_capacity(n: usize) -> Self {
        SortedProj {
            idx: Vec::with_capacity(n),
            vals: Vec::with_capacity(n),
        }
    }

    /// Materialize the values of an argsorted index array.
    fn gather(idx: Vec<u32>, value_of: impl Fn(u32) -> f64) -> Self {
        SortedProj {
            vals: idx.iter().map(|&i| value_of(i)).collect(),
            idx,
        }
    }

    #[inline]
    fn push(&mut self, idx: u32, val: f64) {
        self.idx.push(idx);
        self.vals.push(val);
    }

    fn len(&self) -> usize {
        self.idx.len()
    }
}

/// A sorted projection of one *input* side, carrying the **band-shifted copies** of
/// its value array next to the values: `minus[k] = vals[k] − ε` and
/// `plus[k] = vals[k] + ε` (with each side's duplication shifts). Shifting by a
/// constant is monotone under IEEE rounding, so the shifted copies of a sorted array
/// are sorted and let the sweep answer the reference scorer's shifted
/// `partition_point` predicates (`v − ε < x` etc.) with plain `< x` pointer advances.
///
/// The shifted arrays are pure elementwise functions of `vals`, so they are computed
/// once — at the root — and thereafter **split to children in lockstep** with the
/// values on every plane split, exactly like the index/value columns themselves:
/// another memory-for-time trade that removes the per-leaf-visit materialization the
/// sweep used to pay. `minus`/`plus` stay empty when the configuration never reads
/// them (the S side under asymmetric partitioning, where only T-splits are scored).
#[derive(Debug, Clone, Default)]
struct BandProj {
    idx: Vec<u32>,
    vals: Vec<f64>,
    minus: Vec<f64>,
    plus: Vec<f64>,
}

impl BandProj {
    /// Materialize an argsorted index array's values plus, when `shifts` is
    /// `Some((sub, add))`, the band-shifted copies `vals − sub` / `vals + add`.
    fn gather(idx: Vec<u32>, value_of: impl Fn(u32) -> f64, shifts: Option<(f64, f64)>) -> Self {
        let vals: Vec<f64> = idx.iter().map(|&i| value_of(i)).collect();
        let (minus, plus) = match shifts {
            Some((sub, add)) => (
                vals.iter().map(|&v| v - sub).collect(),
                vals.iter().map(|&v| v + add).collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        BandProj {
            idx,
            vals,
            minus,
            plus,
        }
    }

    /// An empty projection shaped like `src` (shifted columns enabled iff `src`
    /// carries them), with capacity for `src`'s length.
    fn like(src: &BandProj) -> Self {
        let n = src.len();
        let shifted = |enabled: bool| {
            if enabled {
                Vec::with_capacity(n)
            } else {
                Vec::new()
            }
        };
        BandProj {
            idx: Vec::with_capacity(n),
            vals: Vec::with_capacity(n),
            minus: shifted(!src.minus.is_empty()),
            plus: shifted(!src.plus.is_empty()),
        }
    }

    /// Copy entry `k` of `src` (index, value, and any shifted columns) to the end.
    #[inline]
    fn push_from(&mut self, src: &BandProj, k: usize) {
        self.idx.push(src.idx[k]);
        self.vals.push(src.vals[k]);
        if !src.minus.is_empty() {
            self.minus.push(src.minus[k]);
        }
        if !src.plus.is_empty() {
            self.plus.push(src.plus[k]);
        }
    }

    fn len(&self) -> usize {
        self.idx.len()
    }
}

/// One dimension's cached sorted projections of a leaf's sample points.
///
/// Each column holds sample indices (and their projected values) ordered ascending by
/// the key value in that dimension (`f64::total_cmp` order): `s`/`t` index the input
/// samples (with their band-shifted copies, see [`BandProj`]), `o_s`/`o_t` index
/// output pairs by their S-side / T-side key (`o_t` stays empty unless symmetric
/// partitioning is enabled — only S-splits score against the T-side order).
///
/// `bounds` caches the candidate split boundaries — the distinct values of the
/// combined input sample ([`merge_dedup`] of `s.vals` and `t.vals`) — so a leaf visit
/// materializes nothing: the boundaries are derived once per leaf when its value
/// arrays are built (at the root, or from the freshly split child arrays).
#[derive(Debug, Clone, Default)]
struct DimProjection {
    s: BandProj,
    t: BandProj,
    o_s: SortedProj,
    o_t: SortedProj,
    bounds: Vec<f64>,
}

/// Cached per-dimension sorted projections of a leaf (sweep-line scorer only).
///
/// Built exactly once per leaf: at the root by argsorting the samples, at every plane
/// split by a stable linear partition of the parent's arrays — so no leaf visit ever
/// re-sorts, and the work per split is proportional to the leaf's sample size.
#[derive(Debug, Clone, Default)]
struct LeafProjections {
    dims: Vec<DimProjection>,
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
    /// Cached sorted projections (`None` for small leaves, which never plane-split,
    /// and under the reference [`SplitScorer::BinarySearch`], which re-sorts per visit).
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
}

/// Stable partition of a sorted projection into the two children of an exclusive
/// split: every entry goes to exactly one side, relative order is preserved, so both
/// outputs stay sorted by whatever key ordered the input.
fn partition_exclusive(
    src: &SortedProj,
    goes_left: impl Fn(u32) -> bool,
) -> (SortedProj, SortedProj) {
    let mut left = SortedProj::with_capacity(src.len());
    let mut right = SortedProj::with_capacity(src.len());
    for (&i, &v) in src.idx.iter().zip(&src.vals) {
        if goes_left(i) {
            left.push(i, v);
        } else {
            right.push(i, v);
        }
    }
    (left, right)
}

/// [`partition_exclusive`] for a banded projection: the band-shifted columns travel
/// with their entries (every output array is a subsequence of its input, so the
/// children's shifted copies are bit-identical to recomputing them from the
/// children's values).
fn partition_banded_exclusive(
    src: &BandProj,
    goes_left: impl Fn(u32) -> bool,
) -> (BandProj, BandProj) {
    let mut left = BandProj::like(src);
    let mut right = BandProj::like(src);
    for (k, &i) in src.idx.iter().enumerate() {
        if goes_left(i) {
            left.push_from(src, k);
        } else {
            right.push_from(src, k);
        }
    }
    (left, right)
}

/// Stable partition of a banded projection under a duplicating split: an entry may go
/// to the left child, the right child, or both (tuples within band width of the
/// boundary). Relative order is preserved on both sides, shifted columns in lockstep.
fn partition_banded_duplicating(
    src: &BandProj,
    membership: impl Fn(u32) -> (bool, bool),
) -> (BandProj, BandProj) {
    let mut left = BandProj::like(src);
    let mut right = BandProj::like(src);
    for (k, &i) in src.idx.iter().enumerate() {
        let (l, r) = membership(i);
        if l {
            left.push_from(src, k);
        }
        if r {
            right.push_from(src, k);
        }
    }
    (left, right)
}

/// Entry of the leaf priority queue, ordered by split score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueueEntry {
    score: SplitScore,
    leaf: NodeId,
    version: u32,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .cmp(&other.score)
            .then_with(|| other.leaf.cmp(&self.leaf))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One leaf's cells in the evaluation ledger: the estimated per-cell input/output,
/// the number of identical cells (the leaf's internal 1-Bucket grid size; 1 for a
/// regular leaf), and the precomputed per-cell load.
#[derive(Debug, Clone, Copy)]
struct LedgerEntry {
    node: NodeId,
    /// Estimated input of **one** cell of this leaf.
    input: f64,
    /// Estimated output of one cell.
    output: f64,
    /// Number of identical cells.
    count: u32,
    /// Per-cell load `β₂·input + β₃·output` under the configured model.
    load: f64,
}

/// Sentinel for "this node has no ledger entry" in [`EvalLedger::pos`].
const NO_ENTRY: u32 = u32::MAX;

/// LPT processing order of two ledger entries: descending per-cell load, ascending
/// node id among exact load ties. A **total** order, so the incrementally maintained
/// sequence and a from-scratch sort agree element for element — which is what makes
/// [`Evaluator::Incremental`] and [`Evaluator::FullRecompute`] bit-identical by
/// construction rather than by luck.
///
/// Relation to the pre-ledger `evaluate()`: that code unstable-sorted individual
/// cells by load alone, leaving the permutation *within* an exact-load tie class
/// unspecified. Permuting equal-load cells only changes the evaluation when tied
/// cells differ in their `(input, output)` mix — which requires an exact `f64`
/// equality between differently composed weighted sums, a measure-zero coincidence
/// for sample-estimated loads (and impossible within one leaf, whose cells are
/// identical). The pinned `tests/golden_stats.rs` workload guards the flagship
/// path against this residual tie risk.
#[inline]
fn lpt_order(a_load: f64, a_node: NodeId, b_load: f64, b_node: NodeId) -> Ordering {
    b_load.total_cmp(&a_load).then_with(|| a_node.cmp(&b_node))
}

/// The persistent per-leaf cost ledger behind `evaluate()`.
///
/// Instead of re-deriving every leaf's cell estimates, re-sorting all cells by load,
/// and re-walking the tree after **every** applied split, the optimizer keeps this
/// ledger alive across iterations:
///
/// * [`EvalLedger::entries`] holds one compact cost entry per leaf **in depth-first
///   leaf order**. A plane split's children replace their parent *in place* in that
///   order (exactly how [`SplitTree::for_each_leaf`] visits them), so the
///   total-input summation runs over the same cell sequence a fresh tree walk would
///   produce — bit-identically, without walking the tree.
/// * [`EvalLedger::order`] holds the leaf ids in LPT processing order (see
///   [`lpt_order`]). Applying a split performs two binary-searched run edits
///   (remove the parent, insert each child); nothing is ever re-sorted.
///
/// [`Evaluator::FullRecompute`] simply calls [`EvalLedger::rebuild`] before every
/// evaluation — the O(leaves) walk + O(n log n) sort the incremental path deletes —
/// and both evaluators share [`EvalLedger::evaluate`], so their results cannot
/// diverge.
#[derive(Debug, Default)]
struct EvalLedger {
    /// Per-leaf cost entries in depth-first leaf order.
    entries: Vec<LedgerEntry>,
    /// `pos[node] = index` of the node's entry in `entries` ([`NO_ENTRY`] if none).
    pos: Vec<u32>,
    /// Leaf ids in LPT processing order.
    order: Vec<NodeId>,
    /// Scratch: per-worker accumulated input/output, reused across evaluations.
    worker_in: Vec<f64>,
    worker_out: Vec<f64>,
    /// Scratch: the LPT worker min-heap, reused across evaluations.
    lpt: LptHeap,
}

impl EvalLedger {
    /// The entry of `pos[node]`, which must exist.
    #[inline]
    fn entry(&self, node: NodeId) -> &LedgerEntry {
        &self.entries[self.pos[node as usize] as usize]
    }

    /// Position of `node` in the LPT order (binary search on the total order).
    fn order_position(&self, load: f64, node: NodeId) -> Result<usize, usize> {
        self.order.binary_search_by(|&n| {
            let e = self.entry(n);
            lpt_order(e.load, n, load, node)
        })
    }

    fn remove_from_order(&mut self, node: NodeId) {
        let load = self.entry(node).load;
        let idx = self
            .order_position(load, node)
            .expect("split leaf must be present in the LPT order");
        self.order.remove(idx);
    }

    fn insert_into_order(&mut self, node: NodeId) {
        let load = self.entry(node).load;
        let idx = match self.order_position(load, node) {
            Ok(i) | Err(i) => i,
        };
        self.order.insert(idx, node);
    }

    /// Grow the node→entry map to cover `node`.
    fn reserve_node(&mut self, node: NodeId) {
        let need = node as usize + 1;
        if self.pos.len() < need {
            self.pos.resize(need, NO_ENTRY);
        }
    }

    /// Rebuild everything from the tree — one leaf visit per leaf plus a full sort
    /// of the LPT order. The initial state of the incremental evaluator, and the
    /// entire per-evaluation work of [`Evaluator::FullRecompute`].
    fn rebuild(
        &mut self,
        state: &OptimizerState<'_>,
        tree: &SplitTree,
        works: &[Option<LeafWork>],
        counters: &mut EvalCounters,
    ) {
        self.entries.clear();
        tree.for_each_leaf(|leaf_id, _| {
            let Some(Some(work)) = works.get(leaf_id as usize) else {
                return;
            };
            self.entries.push(state.ledger_entry(work));
        });
        counters.ledger_leaf_visits += self.entries.len() as u64;
        self.pos.clear();
        self.pos.resize(tree.num_nodes(), NO_ENTRY);
        for (i, e) in self.entries.iter().enumerate() {
            self.pos[e.node as usize] = i as u32;
        }
        self.order.clear();
        self.order.extend(self.entries.iter().map(|e| e.node));
        let entries = &self.entries;
        let pos = &self.pos;
        self.order.sort_unstable_by(|&a, &b| {
            let ea = &entries[pos[a as usize] as usize];
            let eb = &entries[pos[b as usize] as usize];
            lpt_order(ea.load, a, eb.load, b)
        });
    }

    /// Apply a plane split: drop the parent's entry, splice the two children into
    /// its depth-first position, and re-thread the LPT order with two binary-searched
    /// edits. O(leaves) only in the trivial memmove/position-shift sense — no tree
    /// walk, no estimate recomputation for unaffected leaves, no re-sort.
    fn apply_plane_split(
        &mut self,
        state: &OptimizerState<'_>,
        parent: NodeId,
        left: &LeafWork,
        right: &LeafWork,
        counters: &mut EvalCounters,
    ) {
        // Remove the parent from the order while its entry is still addressable.
        self.remove_from_order(parent);
        let i = self.pos[parent as usize] as usize;
        self.entries[i] = state.ledger_entry(left);
        self.entries.insert(i + 1, state.ledger_entry(right));
        self.pos[parent as usize] = NO_ENTRY;
        self.reserve_node(left.node.max(right.node));
        self.pos[left.node as usize] = i as u32;
        // Everything after the left child shifted one position right.
        for (j, e) in self.entries.iter().enumerate().skip(i + 1) {
            self.pos[e.node as usize] = j as u32;
        }
        self.insert_into_order(left.node);
        self.insert_into_order(right.node);
        counters.ledger_leaf_visits += 2;
    }

    /// Re-cost one leaf after its internal 1-Bucket grid changed.
    fn apply_grid_change(
        &mut self,
        state: &OptimizerState<'_>,
        work: &LeafWork,
        counters: &mut EvalCounters,
    ) {
        self.remove_from_order(work.node);
        let i = self.pos[work.node as usize] as usize;
        self.entries[i] = state.ledger_entry(work);
        self.insert_into_order(work.node);
        counters.ledger_leaf_visits += 1;
    }

    /// Compute the [`Evaluation`] of the current ledger state: total input in
    /// depth-first cell order, then the exact heap-LPT worker mapping over the
    /// maintained order. Shared verbatim by both evaluators.
    fn evaluate(&mut self, state: &OptimizerState<'_>, counters: &mut EvalCounters) -> Evaluation {
        let lm = &state.cfg.load_model;
        let w = state.cfg.workers;

        // Total input, summed cell by cell in depth-first leaf order — the same
        // left-to-right float fold a fresh walk over the tree's cells produces.
        let mut total_input = 0.0f64;
        for e in &self.entries {
            for _ in 0..e.count {
                total_input += e.input;
            }
        }

        // LPT mapping of cells onto workers via the shared (load, worker) min-heap:
        // lowest-loaded worker first, lowest index among equal loads — exactly the
        // worker a first-minimum scan selects — at O(log w) per cell.
        self.worker_in.clear();
        self.worker_in.resize(w, 0.0);
        self.worker_out.clear();
        self.worker_out.resize(w, 0.0);
        self.lpt.reset(w, lm.load(0.0, 0.0));
        let mut cells = 0u64;
        for &node in &self.order {
            let e = &self.entries[self.pos[node as usize] as usize];
            for _ in 0..e.count {
                let target = self.lpt.pop_least();
                self.worker_in[target] += e.input;
                self.worker_out[target] += e.output;
                self.lpt.push(
                    target,
                    lm.load(self.worker_in[target], self.worker_out[target]),
                );
            }
            cells += u64::from(e.count);
        }
        counters.lpt_cells += cells;

        let (max_idx, max_load) = (0..w)
            .map(|i| (i, lm.load(self.worker_in[i], self.worker_out[i])))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
            .expect("at least one worker");

        let input_lb = (state.s_len + state.t_len) as f64;
        let load_lb = lm.load(input_lb, state.est_output) / w as f64;
        let dup_overhead = (total_input - input_lb) / input_lb;
        let load_overhead = if load_lb > 0.0 {
            (max_load - load_lb) / load_lb
        } else {
            0.0
        };
        let predicted_time = state.cfg.predict_time(
            total_input,
            self.worker_in[max_idx],
            self.worker_out[max_idx],
        );

        Evaluation {
            total_input,
            dup_overhead,
            load_overhead,
            predicted_time,
        }
    }
}

/// Result of evaluating the current partitioning against the lower bounds.
#[derive(Debug, Clone, Copy)]
struct Evaluation {
    total_input: f64,
    dup_overhead: f64,
    load_overhead: f64,
    predicted_time: f64,
}

/// The best partitioning found so far — identified by iteration only. The growth
/// loop keeps an undo log of tree edits, so `finalize` rolls the grown tree back to
/// this iteration instead of the winner carrying a whole-tree clone (which the old
/// bookkeeping took on *every* improving iteration).
#[derive(Debug, Clone, Copy)]
struct Winner {
    iteration: usize,
    eval: Evaluation,
    criterion: f64,
}

/// One reversible tree mutation taken by the growth loop, tagged with the iteration
/// that applied it. Edits after the winning iteration are reverted in LIFO order at
/// finalize time; [`SplitTree::undo_split`]'s arena-tail assertion guarantees the
/// rollback really reconstructs the winning tree.
#[derive(Debug, Clone)]
enum TreeEdit {
    /// A plane split of `leaf`; `prior` is the leaf as it was just before.
    Plane { leaf: NodeId, prior: LeafNode },
    /// A grid increment on `leaf`; `prior` is the grid just before.
    Grid { leaf: NodeId, prior: BucketGrid },
}

/// Summary of an optimization run.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// configuration — identical across every `threads` setting and both
    /// [`crate::config::SplitScorer`] implementations.
    pub split_search: SplitSearchCounters,
    /// Evaluation work counters. Deterministic functions of the samples, the
    /// configuration, and the chosen [`crate::config::Evaluator`] — identical across
    /// every `threads` setting; `ledger_leaf_visits` is what separates the
    /// incremental evaluator (delta-sized) from the full-recompute baseline
    /// (leaves × evaluations).
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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

    fn scatter_policy(&self) -> crate::partition::ScatterPolicy {
        // Deep-tree descent is compute-heavy: re-routing every tuple in the scatter
        // pass costs ~2× what the 8-byte pair buffer saves (measured on the
        // pareto-1d smoke workload), so RecPart keeps the single-routing pair list.
        crate::partition::ScatterPolicy::PairList
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
    /// Thread pool for an explicit `threads > 1` bound, built once per optimizer so
    /// repeated `optimize` calls do not pay pool construction. `threads == 0` uses the
    /// ambient rayon context; `threads == 1` bypasses rayon entirely. Output-sample
    /// scan only: the split search and the evaluation are sequential by construction
    /// (DESIGN.md §6).
    pool: Option<std::sync::Arc<rayon::ThreadPool>>,
}

impl RecPart {
    /// Create an optimizer with the given configuration.
    pub fn new(config: RecPartConfig) -> Self {
        let pool = (config.threads > 1).then(|| {
            std::sync::Arc::new(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(config.threads)
                    .build()
                    .expect("building the output-sample scan thread pool"),
            )
        });
        RecPart { config, pool }
    }

    /// The configuration this optimizer runs with.
    pub fn config(&self) -> &RecPartConfig {
        &self.config
    }

    /// The parallelism context the output sampler's T scan runs under.
    fn parallelism(&self) -> Parallelism<'_> {
        match self.config.threads {
            1 => Parallelism::Sequential,
            0 => Parallelism::Ambient,
            _ => Parallelism::Pool(self.pool.as_ref().expect("pool exists when threads > 1")),
        }
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
        let o_sample =
            OutputSample::draw_with(s, t, band, &self.config.sample, rng, self.parallelism());

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
        OptimizerState::new(
            &self.config,
            band,
            s_len,
            t_len,
            s_sample,
            t_sample,
            o_sample,
        )
        .run(start)
    }

    /// Benchmark / CI-gate support, **not a public API**: grow the split tree to
    /// termination once, then hand back a harness that re-runs the post-split
    /// evaluation of the final optimizer state on demand — under
    /// [`Evaluator::Incremental`] each call replays only the ledger's LPT mapping
    /// and sums, under [`Evaluator::FullRecompute`] each call additionally rebuilds
    /// the whole ledger from the tree, which is exactly the per-split cost the
    /// incremental evaluator deletes.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn evaluation_bench<'a>(
        &'a self,
        s_len: usize,
        t_len: usize,
        band: &'a BandCondition,
        s_sample: &'a InputSample,
        t_sample: &'a InputSample,
        o_sample: &'a OutputSample,
    ) -> EvaluationBench<'a> {
        let state = OptimizerState::new(
            &self.config,
            band,
            s_len,
            t_len,
            s_sample,
            t_sample,
            o_sample,
        );
        let grown = state.grow();
        EvaluationBench { state, grown }
    }
}

/// Repeated-evaluation harness returned by [`RecPart::evaluation_bench`]
/// (benchmark / CI-gate support, not a public API).
#[doc(hidden)]
pub struct EvaluationBench<'a> {
    state: OptimizerState<'a>,
    grown: GrownState,
}

impl EvaluationBench<'_> {
    /// Number of leaves of the fully grown tree (benches gate on tree depth).
    pub fn leaves(&self) -> usize {
        self.grown.tree.num_leaves()
    }

    /// Run one evaluation of the final optimizer state under the configured
    /// [`Evaluator`], returning the predicted join time (so callers can black-box
    /// the result).
    pub fn evaluate_once(&mut self) -> f64 {
        let mut counters = EvalCounters::default();
        self.state
            .evaluate(
                &self.grown.tree,
                &self.grown.works,
                &mut self.grown.ledger,
                &mut counters,
            )
            .predicted_time
    }
}

/// Internal optimizer state shared by the helper methods.
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
}

/// Everything the tree-growth loop produces: handed to `finalize` by `run`, and kept
/// alive by [`EvaluationBench`] for repeated-evaluation measurements.
struct GrownState {
    tree: SplitTree,
    works: Vec<Option<LeafWork>>,
    ledger: EvalLedger,
    undo_log: Vec<(usize, TreeEdit)>,
    winner: Winner,
    iterations: usize,
    termination_reason: String,
    counters: SplitSearchCounters,
    eval_counters: EvalCounters,
    split_search_seconds: f64,
    evaluation_seconds: f64,
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
        }
    }

    fn run(&self, start: Instant) -> RecPartResult {
        let grown = self.grow();
        self.finalize(grown, start)
    }

    /// Evaluate the current tree under the configured [`Evaluator`]: the
    /// full-recompute baseline rebuilds the whole ledger first, the incremental
    /// evaluator trusts the deltas the growth loop applied.
    fn evaluate(
        &self,
        tree: &SplitTree,
        works: &[Option<LeafWork>],
        ledger: &mut EvalLedger,
        counters: &mut EvalCounters,
    ) -> Evaluation {
        if self.cfg.evaluator == Evaluator::FullRecompute {
            ledger.rebuild(self, tree, works, counters);
        }
        counters.evaluations += 1;
        ledger.evaluate(self, counters)
    }

    /// Grow the split tree to termination (the repeat loop of Algorithm 1).
    fn grow(&self) -> GrownState {
        let cfg = self.cfg;
        let mut tree = SplitTree::new(self.dims);

        // Leaf working state, indexed by node id.
        let mut works: Vec<Option<LeafWork>> = Vec::new();
        let mut counters = SplitSearchCounters::default();
        let mut split_search_seconds = 0.0f64;
        let mut ledger = EvalLedger::default();
        let mut eval_counters = EvalCounters::default();
        let mut evaluation_seconds = 0.0f64;
        Self::store_work(&mut works, self.root_work(&tree));
        let t0 = Instant::now();
        counters.merge(self.refresh_leaves(&mut works, &tree, &[tree.root()]));
        split_search_seconds += t0.elapsed().as_secs_f64();

        let mut heap: BinaryHeap<QueueEntry> = BinaryHeap::new();
        Self::push_entry(&mut heap, &works, tree.root());

        let mut winner: Option<Winner> = None;
        // Reversible record of every tree mutation, in application order; finalize
        // rolls back the edits past the winning iteration instead of the winner
        // cloning the tree.
        let mut undo_log: Vec<(usize, TreeEdit)> = Vec::new();
        let mut best_load_overhead = f64::INFINITY;
        // Predicted join times recorded after iterations that *paid* input duplication.
        // The applied termination rule (Section 4.2) watches a window of `w` such
        // iterations: duplication-free splits are always worth applying (they can only
        // improve load balance at zero cost), so they keep the loop alive and only the
        // paid iterations can convict the optimizer of wasting duplication.
        let mut paid_time_history: Vec<f64> = Vec::new();
        let mut iterations = 0usize;
        let mut termination_reason = String::from("no more useful splits");

        // Seed the incremental ledger with the initial (single-leaf) state; the
        // full-recompute evaluator rebuilds on every evaluation anyway.
        let e0 = Instant::now();
        if cfg.evaluator == Evaluator::Incremental {
            ledger.rebuild(self, &tree, &works, &mut eval_counters);
        }
        // Evaluate the initial (single-partition) state so the winner is always defined.
        let eval = self.evaluate(&tree, &works, &mut ledger, &mut eval_counters);
        evaluation_seconds += e0.elapsed().as_secs_f64();
        best_load_overhead = best_load_overhead.min(eval.load_overhead);
        paid_time_history.push(eval.predicted_time);
        Self::consider_winner(&mut winner, 0, eval, cfg, &mut eval_counters);

        while iterations < cfg.max_iterations {
            // Pop until a valid entry (leaf still exists, version matches, splittable).
            let entry = loop {
                match heap.pop() {
                    None => break None,
                    Some(e) => {
                        let valid = works
                            .get(e.leaf as usize)
                            .and_then(|w| w.as_ref())
                            .map(|w| w.version == e.version && w.best.score.is_splittable())
                            .unwrap_or(false);
                        if valid {
                            break Some(e);
                        }
                    }
                }
            };
            let Some(entry) = entry else {
                termination_reason = "no leaf with a useful split remains".into();
                break;
            };

            iterations += 1;
            let leaf_id = entry.leaf;
            let best = works[leaf_id as usize]
                .as_ref()
                .expect("validated above")
                .best;
            let paid_duplication = best.dup_increase > 0.0;

            match best.action {
                SplitAction::Plane { dim, value, kind } => {
                    undo_log.push((
                        iterations,
                        TreeEdit::Plane {
                            leaf: leaf_id,
                            prior: tree.leaf(leaf_id).clone(),
                        },
                    ));
                    let (l, r) =
                        self.apply_plane_split(&mut tree, &mut works, leaf_id, dim, value, kind);
                    if cfg.evaluator == Evaluator::Incremental {
                        let e0 = Instant::now();
                        ledger.apply_plane_split(
                            self,
                            leaf_id,
                            works[l as usize].as_ref().expect("left child work"),
                            works[r as usize].as_ref().expect("right child work"),
                            &mut eval_counters,
                        );
                        evaluation_seconds += e0.elapsed().as_secs_f64();
                    }
                    let t0 = Instant::now();
                    counters.merge(self.refresh_leaves(&mut works, &tree, &[l, r]));
                    split_search_seconds += t0.elapsed().as_secs_f64();
                    Self::push_entry(&mut heap, &works, l);
                    Self::push_entry(&mut heap, &works, r);
                }
                SplitAction::Grid { add_row } => {
                    undo_log.push((
                        iterations,
                        TreeEdit::Grid {
                            leaf: leaf_id,
                            prior: tree.leaf(leaf_id).grid,
                        },
                    ));
                    let work = works[leaf_id as usize].as_mut().expect("validated above");
                    if add_row {
                        work.grid.rows += 1;
                    } else {
                        work.grid.cols += 1;
                    }
                    work.version += 1;
                    tree.set_leaf_grid(leaf_id, work.grid);
                    if cfg.evaluator == Evaluator::Incremental {
                        let e0 = Instant::now();
                        ledger.apply_grid_change(
                            self,
                            works[leaf_id as usize].as_ref().expect("validated above"),
                            &mut eval_counters,
                        );
                        evaluation_seconds += e0.elapsed().as_secs_f64();
                    }
                    let t0 = Instant::now();
                    counters.merge(self.refresh_leaves(&mut works, &tree, &[leaf_id]));
                    split_search_seconds += t0.elapsed().as_secs_f64();
                    Self::push_entry(&mut heap, &works, leaf_id);
                }
                SplitAction::None => {
                    // Defensive: scores of `None` actions are NotSplittable and filtered.
                    continue;
                }
            }

            let e0 = Instant::now();
            let eval = self.evaluate(&tree, &works, &mut ledger, &mut eval_counters);
            evaluation_seconds += e0.elapsed().as_secs_f64();
            best_load_overhead = best_load_overhead.min(eval.load_overhead);
            if paid_duplication {
                paid_time_history.push(eval.predicted_time);
            }
            Self::consider_winner(&mut winner, iterations, eval, cfg, &mut eval_counters);

            match cfg.termination {
                Termination::Theoretical => {
                    // Duplication overhead is monotone; once it exceeds the best load
                    // overhead seen, the criterion max{dup, load} can no longer improve.
                    if eval.dup_overhead > best_load_overhead {
                        termination_reason =
                            "duplication overhead exceeded best load overhead (theoretical rule)"
                                .into();
                        break;
                    }
                }
                Termination::CostModel { min_improvement } => {
                    let w = cfg.workers;
                    if paid_time_history.len() > w {
                        let split = paid_time_history.len() - w;
                        let before = paid_time_history[..split]
                            .iter()
                            .cloned()
                            .fold(f64::INFINITY, f64::min);
                        let recent = paid_time_history[split..]
                            .iter()
                            .cloned()
                            .fold(f64::INFINITY, f64::min);
                        if recent > before * (1.0 - min_improvement) {
                            termination_reason = format!(
                                "predicted join time improved < {:.1}% over the last {} \
                                 duplication-incurring iterations",
                                min_improvement * 100.0,
                                w
                            );
                            break;
                        }
                    }
                }
            }
        }
        if iterations >= cfg.max_iterations {
            termination_reason = "reached the iteration cap".into();
        }

        GrownState {
            tree,
            works,
            ledger,
            undo_log,
            winner: winner.expect("at least the initial evaluation is recorded"),
            iterations,
            termination_reason,
            counters,
            eval_counters,
            split_search_seconds,
            evaluation_seconds,
        }
    }

    /// The root leaf's working state: every sample point and, for a regular root
    /// under the sweep-line scorer, the argsorted projections all later leaves
    /// inherit.
    fn root_work(&self, tree: &SplitTree) -> LeafWork {
        let mut root = LeafWork::new(tree.root());
        root.s_pts = (0..self.s_sample.len() as u32).collect();
        root.t_pts = (0..self.t_sample.len() as u32).collect();
        root.o_pts = (0..self.o_sample.len() as u32).collect();
        root.is_small = self.is_small(tree, tree.root());
        if self.cfg.scorer == SplitScorer::SweepLine && !root.is_small {
            root.proj = Some(self.build_root_projections());
        }
        root
    }

    fn store_work(works: &mut Vec<Option<LeafWork>>, work: LeafWork) {
        let idx = work.node as usize;
        if works.len() <= idx {
            works.resize_with(idx + 1, || None);
        }
        works[idx] = Some(work);
    }

    fn push_entry(heap: &mut BinaryHeap<QueueEntry>, works: &[Option<LeafWork>], leaf: NodeId) {
        if let Some(Some(w)) = works.get(leaf as usize) {
            if w.best.score.is_splittable() {
                heap.push(QueueEntry {
                    score: w.best.score,
                    leaf,
                    version: w.version,
                });
            }
        }
    }

    /// Is the leaf "small": extent below twice the band width in every dimension?
    fn is_small(&self, tree: &SplitTree, leaf: NodeId) -> bool {
        let region = &tree.leaf(leaf).region;
        (0..self.dims).all(|d| {
            let eps = self.band.eps(d);
            eps > 0.0 && region.clipped_extent(d, &self.domain) < 2.0 * eps
        })
    }

    /// May the leaf still be split recursively in dimension `d`?
    fn dim_allowed(&self, tree: &SplitTree, leaf: NodeId, d: usize) -> bool {
        let region = &tree.leaf(leaf).region;
        let eps = self.band.eps(d);
        eps == 0.0 || region.clipped_extent(d, &self.domain) >= 2.0 * eps
    }

    fn leaf_estimates(&self, work: &LeafWork) -> (f64, f64, f64) {
        (
            self.ws * work.s_pts.len() as f64,
            self.wt * work.t_pts.len() as f64,
            self.wo * work.o_pts.len() as f64,
        )
    }

    /// Old partition load variance of a leaf (the term a split would replace).
    fn leaf_variance(&self, work: &LeafWork) -> f64 {
        let lm = &self.cfg.load_model;
        let (s_in, t_in, out) = self.leaf_estimates(work);
        let old_load = partition_load(lm.beta_input, lm.beta_output, s_in + t_in, out);
        variance_term(self.cfg.workers, old_load)
    }

    /// Recompute and cache the best split of one leaf (Algorithm 2 `best_split`),
    /// returning the scoring-work counters.
    fn refresh_best(
        &self,
        works: &mut [Option<LeafWork>],
        tree: &SplitTree,
        leaf: NodeId,
    ) -> SplitSearchCounters {
        let work = works[leaf as usize].as_ref().expect("leaf work must exist");
        let (best, counters) = if work.is_small {
            (
                self.best_grid_increment(work),
                SplitSearchCounters {
                    leaves_scored: 1,
                    ..SplitSearchCounters::default()
                },
            )
        } else {
            match self.cfg.scorer {
                SplitScorer::SweepLine => self.best_plane_split_sweep(tree, work),
                SplitScorer::BinarySearch => self.best_plane_split_reference(tree, work),
            }
        };
        let work = works[leaf as usize].as_mut().expect("leaf work must exist");
        work.best = best;
        counters
    }

    /// Refresh the cached best splits of a batch of leaves — the optimizer's frontier
    /// update after one split.
    fn refresh_leaves(
        &self,
        works: &mut [Option<LeafWork>],
        tree: &SplitTree,
        leaves: &[NodeId],
    ) -> SplitSearchCounters {
        let mut counters = SplitSearchCounters::default();
        for &leaf in leaves {
            counters.merge(self.refresh_best(works, tree, leaf));
        }
        counters
    }

    /// Best 1-Bucket increment for a small leaf.
    fn best_grid_increment(&self, work: &LeafWork) -> BestSplit {
        let (s_in, t_in, out) = self.leaf_estimates(work);
        let lm = &self.cfg.load_model;
        let w = self.cfg.workers;
        let (row_score, row_dup) =
            work.grid
                .score_add_row(w, lm.beta_input, lm.beta_output, s_in, t_in, out);
        let (col_score, col_dup) =
            work.grid
                .score_add_col(w, lm.beta_input, lm.beta_output, s_in, t_in, out);
        if row_score >= col_score {
            BestSplit {
                score: row_score,
                action: SplitAction::Grid { add_row: true },
                dup_increase: row_dup,
            }
        } else {
            BestSplit {
                score: col_score,
                action: SplitAction::Grid { add_row: false },
                dup_increase: col_dup,
            }
        }
    }

    /// Build the root leaf's cached projections by argsorting the samples once per
    /// dimension (every later leaf inherits its arrays through stable partitions).
    /// The band-shifted copies and the candidate boundaries are computed here too —
    /// like the value arrays, they are built exactly once per leaf.
    fn build_root_projections(&self) -> LeafProjections {
        let build = |d: usize| {
            let eps_lo = self.band.eps_low(d);
            let eps_hi = self.band.eps_high(d);
            // T is duplicated by T-splits with tests `t − ε_lo < x` / `t + ε_hi ≥ x`;
            // S only needs its (role-swapped) shifts under symmetric partitioning.
            let s = BandProj::gather(
                self.s_sample.argsort_by_dim(d),
                |i| self.s_sample.key(i as usize)[d],
                self.cfg.symmetric.then_some((eps_hi, eps_lo)),
            );
            let t = BandProj::gather(
                self.t_sample.argsort_by_dim(d),
                |i| self.t_sample.key(i as usize)[d],
                Some((eps_lo, eps_hi)),
            );
            let bounds = merge_dedup(&s.vals, &t.vals);
            DimProjection {
                s,
                t,
                o_s: SortedProj::gather(self.o_sample.argsort_by_s_dim(d), |i| {
                    self.o_sample.s_key(i as usize)[d]
                }),
                o_t: if self.cfg.symmetric {
                    SortedProj::gather(self.o_sample.argsort_by_t_dim(d), |i| {
                        self.o_sample.t_key(i as usize)[d]
                    })
                } else {
                    SortedProj::default()
                },
                bounds,
            }
        };
        LeafProjections {
            dims: (0..self.dims).map(build).collect(),
        }
    }

    /// Distribute a leaf's cached projections to the two children of a plane split
    /// with stable linear partitions: every output array stays sorted by its
    /// dimension's key, and the work is proportional to the leaf's sample size. The
    /// band-shifted columns travel in lockstep with the values, and each child's
    /// candidate boundaries are re-derived from its freshly split value arrays —
    /// so no later leaf visit materializes anything.
    fn split_projections(
        &self,
        proj: &LeafProjections,
        dim: usize,
        value: f64,
        kind: SplitKind,
    ) -> (LeafProjections, LeafProjections) {
        let split_dim = |d: usize| -> (DimProjection, DimProjection) {
            let src = &proj.dims[d];
            let ((sl, sr), (tl, tr), (osl, osr), (otl, otr)) = match kind {
                SplitKind::TSplit => {
                    let s = partition_banded_exclusive(&src.s, |i| {
                        self.s_sample.key(i as usize)[dim] < value
                    });
                    let t = partition_banded_duplicating(&src.t, |i| {
                        let v = self.t_sample.key(i as usize)[dim];
                        let (lo, hi) = self.band.range_around_t(dim, v);
                        (lo < value, hi >= value)
                    });
                    let o_left = |i: u32| self.o_sample.s_key(i as usize)[dim] < value;
                    (
                        s,
                        t,
                        partition_exclusive(&src.o_s, o_left),
                        partition_exclusive(&src.o_t, o_left),
                    )
                }
                SplitKind::SSplit => {
                    let t = partition_banded_exclusive(&src.t, |i| {
                        self.t_sample.key(i as usize)[dim] < value
                    });
                    let s = partition_banded_duplicating(&src.s, |i| {
                        let v = self.s_sample.key(i as usize)[dim];
                        let (lo, hi) = self.band.range_around_s(dim, v);
                        (lo < value, hi >= value)
                    });
                    let o_left = |i: u32| self.o_sample.t_key(i as usize)[dim] < value;
                    (
                        s,
                        t,
                        partition_exclusive(&src.o_s, o_left),
                        partition_exclusive(&src.o_t, o_left),
                    )
                }
            };
            let bounds_l = merge_dedup(&sl.vals, &tl.vals);
            let bounds_r = merge_dedup(&sr.vals, &tr.vals);
            (
                DimProjection {
                    s: sl,
                    t: tl,
                    o_s: osl,
                    o_t: otl,
                    bounds: bounds_l,
                },
                DimProjection {
                    s: sr,
                    t: tr,
                    o_s: osr,
                    o_t: otr,
                    bounds: bounds_r,
                },
            )
        };
        let (left, right) = (0..self.dims).map(split_dim).unzip();
        (
            LeafProjections { dims: left },
            LeafProjections { dims: right },
        )
    }

    /// Score every candidate window of one dimension's cached projections (which
    /// must hold at least two boundaries) in a single sweep: every left/right count
    /// is maintained by a pointer that advances monotonically with the
    /// (non-decreasing) candidate values, so the whole dimension costs
    /// O(windows + points) with zero per-candidate binary searches. The counts, the
    /// arithmetic, and the strict-`>` comparison replicate the reference scorer
    /// exactly, so the returned best split is bit-identical to its choice.
    fn score_dim(&self, p: &DimProjection, dim: usize, region: &Rect, old_var: f64) -> BestSplit {
        let mut best = BestSplit::none();
        let lm = &self.cfg.load_model;
        let w = self.cfg.workers;
        let symmetric = self.cfg.symmetric;
        let ns = p.s.vals.len() as f64;
        let nt = p.t.vals.len() as f64;
        let no = p.o_s.vals.len() as f64;

        // Initialize every pointer at the first candidate value; from there each only
        // advances (candidate midpoints never decrease).
        let x0 = 0.5 * (p.bounds[0] + p.bounds[1]);
        let mut ps = p.s.vals.partition_point(|&v| v < x0);
        let mut ptm = p.t.minus.partition_point(|&v| v < x0);
        let mut ptp = p.t.plus.partition_point(|&v| v < x0);
        let mut pos = p.o_s.vals.partition_point(|&v| v < x0);
        let (mut pt, mut psm, mut psp, mut pot) = if symmetric {
            (
                p.t.vals.partition_point(|&v| v < x0),
                p.s.minus.partition_point(|&v| v < x0),
                p.s.plus.partition_point(|&v| v < x0),
                p.o_t.vals.partition_point(|&v| v < x0),
            )
        } else {
            (0, 0, 0, 0)
        };

        for k in 0..p.bounds.len() - 1 {
            let (b_lo, b_hi) = (p.bounds[k], p.bounds[k + 1]);
            let x = 0.5 * (b_lo + b_hi);
            if x <= region.lo(dim) || x >= region.hi(dim) || x <= b_lo || x >= b_hi {
                continue;
            }
            advance(&p.s.vals, &mut ps, x);
            advance(&p.t.minus, &mut ptm, x);
            advance(&p.t.plus, &mut ptp, x);
            advance(&p.o_s.vals, &mut pos, x);

            // --- T-split: S partitioned at x, T duplicated near x. ---
            {
                let nsl = ps as f64;
                let nsr = ns - nsl;
                // T goes left iff t − ε_lo < x, right iff t + ε_hi ≥ x.
                let ntl = ptm as f64;
                let ntr = nt - ptp as f64;
                let nol = pos as f64;
                let nor = no - nol;
                let dup = self.wt * (ntl + ntr - nt);
                let l1 = partition_load(
                    lm.beta_input,
                    lm.beta_output,
                    self.ws * nsl + self.wt * ntl,
                    self.wo * nol,
                );
                let l2 = partition_load(
                    lm.beta_input,
                    lm.beta_output,
                    self.ws * nsr + self.wt * ntr,
                    self.wo * nor,
                );
                let reduction = old_var - variance_term(w, l1) - variance_term(w, l2);
                let score = SplitScore::new(reduction, dup);
                if score > best.score {
                    best = BestSplit {
                        score,
                        action: SplitAction::Plane {
                            dim,
                            value: x,
                            kind: SplitKind::TSplit,
                        },
                        dup_increase: dup.max(0.0),
                    };
                }
            }

            // --- S-split: T partitioned at x, S duplicated near x. ---
            if symmetric {
                advance(&p.t.vals, &mut pt, x);
                advance(&p.s.minus, &mut psm, x);
                advance(&p.s.plus, &mut psp, x);
                advance(&p.o_t.vals, &mut pot, x);
                let ntl = pt as f64;
                let ntr = nt - ntl;
                // S goes left iff s − ε_hi < x, right iff s + ε_lo ≥ x.
                let nsl = psm as f64;
                let nsr = ns - psp as f64;
                let nol = pot as f64;
                let nor = no - nol;
                let dup = self.ws * (nsl + nsr - ns);
                let l1 = partition_load(
                    lm.beta_input,
                    lm.beta_output,
                    self.ws * nsl + self.wt * ntl,
                    self.wo * nol,
                );
                let l2 = partition_load(
                    lm.beta_input,
                    lm.beta_output,
                    self.ws * nsr + self.wt * ntr,
                    self.wo * nor,
                );
                let reduction = old_var - variance_term(w, l1) - variance_term(w, l2);
                let score = SplitScore::new(reduction, dup);
                if score > best.score {
                    best = BestSplit {
                        score,
                        action: SplitAction::Plane {
                            dim,
                            value: x,
                            kind: SplitKind::SSplit,
                        },
                        dup_increase: dup.max(0.0),
                    };
                }
            }
        }
        best
    }

    /// Best hyperplane split via the sweep-line scorer: one merged pass per allowed
    /// dimension over the leaf's cached projections.
    fn best_plane_split_sweep(
        &self,
        tree: &SplitTree,
        work: &LeafWork,
    ) -> (BestSplit, SplitSearchCounters) {
        let old_var = self.leaf_variance(work);
        let region = &tree.leaf(work.node).region;
        let proj = work
            .proj
            .as_ref()
            .expect("sweep scorer requires cached projections");
        let mut best = BestSplit::none();
        let mut counters = SplitSearchCounters {
            leaves_scored: 1,
            ..SplitSearchCounters::default()
        };
        for dim in 0..self.dims {
            if !self.dim_allowed(tree, work.node, dim) {
                continue;
            }
            let p = &proj.dims[dim];
            counters.dims_scanned += 1;
            // Candidate windows: consecutive distinct-value pairs.
            let windows = p.bounds.len().saturating_sub(1);
            counters.candidates_scored += windows as u64;
            if windows == 0 {
                continue;
            }
            let cand = self.score_dim(p, dim, region, old_var);
            if cand.score > best.score {
                best = cand;
            }
        }
        (best, counters)
    }

    /// Best hyperplane split via the original binary-search implementation: the
    /// measured baseline of `benches/optimize.rs` and the oracle of the sweep-line
    /// property tests. Re-collects and sorts the leaf's projections on every visit
    /// and answers each candidate boundary with `partition_point` searches.
    fn best_plane_split_reference(
        &self,
        tree: &SplitTree,
        work: &LeafWork,
    ) -> (BestSplit, SplitSearchCounters) {
        let lm = &self.cfg.load_model;
        let w = self.cfg.workers;
        let old_var = self.leaf_variance(work);

        let mut best = BestSplit::none();
        let mut counters = SplitSearchCounters {
            leaves_scored: 1,
            ..SplitSearchCounters::default()
        };
        let region = &tree.leaf(work.node).region;

        for dim in 0..self.dims {
            if !self.dim_allowed(tree, work.node, dim) {
                continue;
            }
            counters.dims_scanned += 1;
            // Sorted per-dimension value arrays for the leaf's sample points.
            let mut s_vals: Vec<f64> = work
                .s_pts
                .iter()
                .map(|&i| self.s_sample.key(i as usize)[dim])
                .collect();
            let mut t_vals: Vec<f64> = work
                .t_pts
                .iter()
                .map(|&i| self.t_sample.key(i as usize)[dim])
                .collect();
            let mut o_s_vals: Vec<f64> = work
                .o_pts
                .iter()
                .map(|&i| self.o_sample.s_key(i as usize)[dim])
                .collect();
            let mut o_t_vals: Vec<f64> = work
                .o_pts
                .iter()
                .map(|&i| self.o_sample.t_key(i as usize)[dim])
                .collect();
            s_vals.sort_unstable_by(f64::total_cmp);
            t_vals.sort_unstable_by(f64::total_cmp);
            o_s_vals.sort_unstable_by(f64::total_cmp);
            o_t_vals.sort_unstable_by(f64::total_cmp);

            // Candidate boundaries: midpoints between consecutive distinct values of the
            // combined input sample in this dimension.
            let mut combined: Vec<f64> = Vec::with_capacity(s_vals.len() + t_vals.len());
            combined.extend_from_slice(&s_vals);
            combined.extend_from_slice(&t_vals);
            combined.sort_unstable_by(f64::total_cmp);
            combined.dedup();
            counters.candidates_scored += combined.len().saturating_sub(1) as u64;
            if combined.len() < 2 {
                continue;
            }

            let ns = s_vals.len() as f64;
            let nt = t_vals.len() as f64;
            let no = o_s_vals.len() as f64;
            let eps_lo = self.band.eps_low(dim);
            let eps_hi = self.band.eps_high(dim);

            for pair in combined.windows(2) {
                let x = 0.5 * (pair[0] + pair[1]);
                if x <= region.lo(dim) || x >= region.hi(dim) || x <= pair[0] || x >= pair[1] {
                    continue;
                }

                // --- T-split: S partitioned at x, T duplicated near x. ---
                {
                    let nsl = s_vals.partition_point(|&v| v < x) as f64;
                    let nsr = ns - nsl;
                    // T goes left iff t − ε_lo < x, right iff t + ε_hi ≥ x.
                    let ntl = t_vals.partition_point(|&v| v - eps_lo < x) as f64;
                    let ntr = nt - t_vals.partition_point(|&v| v + eps_hi < x) as f64;
                    let nol = o_s_vals.partition_point(|&v| v < x) as f64;
                    let nor = no - nol;
                    let dup = self.wt * (ntl + ntr - nt);
                    let l1 = partition_load(
                        lm.beta_input,
                        lm.beta_output,
                        self.ws * nsl + self.wt * ntl,
                        self.wo * nol,
                    );
                    let l2 = partition_load(
                        lm.beta_input,
                        lm.beta_output,
                        self.ws * nsr + self.wt * ntr,
                        self.wo * nor,
                    );
                    let reduction = old_var - variance_term(w, l1) - variance_term(w, l2);
                    let score = SplitScore::new(reduction, dup);
                    if score > best.score {
                        best = BestSplit {
                            score,
                            action: SplitAction::Plane {
                                dim,
                                value: x,
                                kind: SplitKind::TSplit,
                            },
                            dup_increase: dup.max(0.0),
                        };
                    }
                }

                // --- S-split: T partitioned at x, S duplicated near x. ---
                if self.cfg.symmetric {
                    let ntl = t_vals.partition_point(|&v| v < x) as f64;
                    let ntr = nt - ntl;
                    // S goes left iff s − ε_hi < x, right iff s + ε_lo ≥ x.
                    let nsl = s_vals.partition_point(|&v| v - eps_hi < x) as f64;
                    let nsr = ns - s_vals.partition_point(|&v| v + eps_lo < x) as f64;
                    let nol = o_t_vals.partition_point(|&v| v < x) as f64;
                    let nor = no - nol;
                    let dup = self.ws * (nsl + nsr - ns);
                    let l1 = partition_load(
                        lm.beta_input,
                        lm.beta_output,
                        self.ws * nsl + self.wt * ntl,
                        self.wo * nol,
                    );
                    let l2 = partition_load(
                        lm.beta_input,
                        lm.beta_output,
                        self.ws * nsr + self.wt * ntr,
                        self.wo * nor,
                    );
                    let reduction = old_var - variance_term(w, l1) - variance_term(w, l2);
                    let score = SplitScore::new(reduction, dup);
                    if score > best.score {
                        best = BestSplit {
                            score,
                            action: SplitAction::Plane {
                                dim,
                                value: x,
                                kind: SplitKind::SSplit,
                            },
                            dup_increase: dup.max(0.0),
                        };
                    }
                }
            }
        }
        (best, counters)
    }

    /// Apply a hyperplane split: update the tree, distribute the parent's sample
    /// points over the two new leaves (plain lists and, under the sweep-line scorer,
    /// the cached sorted projections — both with stable linear partitions, so the
    /// work per split is proportional to the leaf's sample size). Returns the ids of
    /// the two new leaves; the caller refreshes their best splits.
    fn apply_plane_split(
        &self,
        tree: &mut SplitTree,
        works: &mut Vec<Option<LeafWork>>,
        leaf_id: NodeId,
        dim: usize,
        value: f64,
        kind: SplitKind,
    ) -> (NodeId, NodeId) {
        let parent = works[leaf_id as usize]
            .take()
            .expect("parent leaf work must exist");
        let (left_id, right_id) = tree.split_leaf(leaf_id, dim, value, kind);

        let mut left = LeafWork::new(left_id);
        let mut right = LeafWork::new(right_id);

        match kind {
            SplitKind::TSplit => {
                for &i in &parent.s_pts {
                    if self.s_sample.key(i as usize)[dim] < value {
                        left.s_pts.push(i);
                    } else {
                        right.s_pts.push(i);
                    }
                }
                for &i in &parent.t_pts {
                    let v = self.t_sample.key(i as usize)[dim];
                    let (lo, hi) = self.band.range_around_t(dim, v);
                    if lo < value {
                        left.t_pts.push(i);
                    }
                    if hi >= value {
                        right.t_pts.push(i);
                    }
                }
                for &i in &parent.o_pts {
                    if self.o_sample.s_key(i as usize)[dim] < value {
                        left.o_pts.push(i);
                    } else {
                        right.o_pts.push(i);
                    }
                }
            }
            SplitKind::SSplit => {
                for &i in &parent.t_pts {
                    if self.t_sample.key(i as usize)[dim] < value {
                        left.t_pts.push(i);
                    } else {
                        right.t_pts.push(i);
                    }
                }
                for &i in &parent.s_pts {
                    let v = self.s_sample.key(i as usize)[dim];
                    let (lo, hi) = self.band.range_around_s(dim, v);
                    if lo < value {
                        left.s_pts.push(i);
                    }
                    if hi >= value {
                        right.s_pts.push(i);
                    }
                }
                for &i in &parent.o_pts {
                    if self.o_sample.t_key(i as usize)[dim] < value {
                        left.o_pts.push(i);
                    } else {
                        right.o_pts.push(i);
                    }
                }
            }
        }

        left.is_small = self.is_small(tree, left_id);
        right.is_small = self.is_small(tree, right_id);

        // Distribute the cached projections to the non-small children (small leaves
        // never plane-split, so their arrays would be dead weight).
        if self.cfg.scorer == SplitScorer::SweepLine && !(left.is_small && right.is_small) {
            let proj = parent
                .proj
                .as_ref()
                .expect("regular leaf has cached projections");
            let (lp, rp) = self.split_projections(proj, dim, value, kind);
            left.proj = (!left.is_small).then_some(lp);
            right.proj = (!right.is_small).then_some(rp);
        }

        Self::store_work(works, left);
        Self::store_work(works, right);
        (left_id, right_id)
    }

    /// Build one leaf's cost-ledger entry from its working state: the estimated
    /// input/output of one cell (a small leaf's 1-Bucket cells are identical) and
    /// the per-cell load under the configured model.
    fn ledger_entry(&self, work: &LeafWork) -> LedgerEntry {
        let lm = &self.cfg.load_model;
        let (s_in, t_in, out) = self.leaf_estimates(work);
        let grid = work.grid;
        let (input, output, count) = if grid.cells() == 1 {
            (s_in + t_in, out, 1)
        } else {
            (
                s_in / grid.rows as f64 + t_in / grid.cols as f64,
                out / grid.cells() as f64,
                grid.cells(),
            )
        };
        LedgerEntry {
            node: work.node,
            input,
            output,
            count,
            load: lm.load(input, output),
        }
    }

    /// Record the current iteration as the best partitioning seen iff its criterion
    /// improves on the incumbent. No tree is touched: the winner is just an
    /// iteration marker (plus its evaluation), and `finalize` rolls the grown tree
    /// back to it through the undo log — `counters.winner_tree_clones` stays 0 by
    /// construction and tests assert it.
    fn consider_winner(
        winner: &mut Option<Winner>,
        iteration: usize,
        eval: Evaluation,
        cfg: &RecPartConfig,
        counters: &mut EvalCounters,
    ) {
        let criterion = match cfg.termination {
            Termination::Theoretical => eval.dup_overhead.max(eval.load_overhead),
            Termination::CostModel { .. } => eval.predicted_time,
        };
        let better = winner
            .as_ref()
            .map(|w| criterion < w.criterion)
            .unwrap_or(true);
        if better {
            counters.winner_updates += 1;
            *winner = Some(Winner {
                iteration,
                eval,
                criterion,
            });
        }
    }

    fn finalize(&self, grown: GrownState, start: Instant) -> RecPartResult {
        let GrownState {
            mut tree,
            undo_log,
            winner,
            iterations,
            termination_reason,
            counters: split_search,
            eval_counters,
            split_search_seconds,
            evaluation_seconds,
            ..
        } = grown;
        // Roll the fully grown tree back to the winning iteration: revert every edit
        // recorded after it, newest first. `undo_split`'s arena-tail assertion makes
        // an out-of-order revert a panic rather than a silently wrong tree.
        for (iteration, edit) in undo_log.into_iter().rev() {
            if iteration <= winner.iteration {
                break;
            }
            match edit {
                TreeEdit::Plane { leaf, prior } => tree.undo_split(leaf, prior),
                TreeEdit::Grid { leaf, prior } => tree.set_leaf_grid(leaf, prior),
            }
        }
        let partitioner = SplitTreePartitioner::from_tree(
            tree,
            self.band.clone(),
            self.cfg.seed,
            self.cfg.strategy_name(),
        );
        let report = OptimizationReport {
            strategy: self.cfg.strategy_name().to_string(),
            iterations,
            winning_iteration: winner.iteration,
            leaves: partitioner.tree.num_leaves(),
            partitions: partitioner.num_partitions(),
            estimated_total_input: winner.eval.total_input,
            estimated_dup_overhead: winner.eval.dup_overhead,
            estimated_load_overhead: winner.eval.load_overhead,
            estimated_output: self.est_output,
            predicted_time: winner.eval.predicted_time,
            optimization_seconds: start.elapsed().as_secs_f64(),
            split_search_seconds,
            evaluation_seconds,
            split_search,
            evaluation: eval_counters,
            termination_reason,
        };
        RecPartResult {
            partitioner,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadModel;
    use crate::sample::SampleConfig;
    use crate::split_tree::Node;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_relation(n: usize, dims: usize, lo: f64, hi: f64, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Relation::with_capacity(dims, n);
        let mut key = vec![0.0; dims];
        for _ in 0..n {
            for k in key.iter_mut() {
                *k = rng.gen_range(lo..hi);
            }
            r.push(&key);
        }
        r
    }

    fn pareto_relation(n: usize, dims: usize, z: f64, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Relation::with_capacity(dims, n);
        let mut key = vec![0.0; dims];
        for _ in 0..n {
            for k in key.iter_mut() {
                let u: f64 = rng.gen_range(0.0..1.0f64);
                *k = (1.0 - u).powf(-1.0 / z);
            }
            r.push(&key);
        }
        r
    }

    fn small_sample_config() -> SampleConfig {
        SampleConfig {
            input_sample_size: 1_000,
            output_sample_size: 500,
            output_probe_count: 400,
        }
    }

    fn exactly_once_check(
        partitioner: &SplitTreePartitioner,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
    ) {
        let mut s_parts = Vec::new();
        let mut t_parts = Vec::new();
        for (si, sk) in s.iter().enumerate() {
            s_parts.clear();
            partitioner.assign_s(&sk, si as u64, &mut s_parts);
            assert!(!s_parts.is_empty(), "every S-tuple must go somewhere");
            for (ti, tk) in t.iter().enumerate() {
                if !band.matches(&sk, &tk) {
                    continue;
                }
                t_parts.clear();
                partitioner.assign_t(&tk, ti as u64, &mut t_parts);
                let common = s_parts.iter().filter(|p| t_parts.contains(p)).count();
                assert_eq!(
                    common, 1,
                    "matching pair (S#{si}, T#{ti}) must meet in exactly one partition"
                );
            }
        }
    }

    #[test]
    fn optimize_uniform_1d_produces_enough_partitions() {
        let s = uniform_relation(4000, 1, 0.0, 100.0, 1);
        let t = uniform_relation(4000, 1, 0.0, 100.0, 2);
        let band = BandCondition::symmetric(&[0.2]);
        let cfg = RecPartConfig::new(8).with_sample(small_sample_config());
        let mut rng = StdRng::seed_from_u64(3);
        let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
        assert!(
            result.partitioner.num_partitions() >= 8,
            "expected at least w partitions, got {}",
            result.partitioner.num_partitions()
        );
        assert!(result.report.iterations > 0);
        assert!(result.report.estimated_dup_overhead >= 0.0);
        assert!(result.report.optimization_seconds >= 0.0);
    }

    #[test]
    fn winner_bookkeeping_never_clones_the_tree() {
        // Skewed data under the cost-model termination keeps optimizing past the
        // winning iteration, so finalize must roll the tree back through the undo
        // log — and the rolled-back tree must still be a correct partitioning.
        let s = pareto_relation(400, 1, 1.5, 70);
        let t = pareto_relation(400, 1, 1.5, 71);
        let band = BandCondition::symmetric(&[2.0]);
        let cfg = RecPartConfig::new(6).with_sample(small_sample_config());
        let mut rng = StdRng::seed_from_u64(72);
        let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
        let eval = &result.report.evaluation;
        assert_eq!(
            eval.winner_tree_clones, 0,
            "winner bookkeeping must never clone the split tree"
        );
        assert!(
            eval.winner_updates >= 1,
            "the initial evaluation always records a winner"
        );
        assert!(
            eval.winner_updates <= result.report.iterations as u64 + 1,
            "at most one winner update per evaluation"
        );
        assert!(result.report.winning_iteration <= result.report.iterations);
        exactly_once_check(&result.partitioner, &s, &t, &band);
    }

    #[test]
    fn exactly_once_on_uniform_2d() {
        let s = uniform_relation(400, 2, 0.0, 10.0, 4);
        let t = uniform_relation(400, 2, 0.0, 10.0, 5);
        let band = BandCondition::symmetric(&[0.3, 0.3]);
        let cfg = RecPartConfig::new(6)
            .with_sample(small_sample_config())
            .with_seed(11);
        let mut rng = StdRng::seed_from_u64(6);
        let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
        exactly_once_check(&result.partitioner, &s, &t, &band);
    }

    #[test]
    fn exactly_once_with_symmetric_splits_on_skewed_data() {
        // Reverse-skew data exercises the S-split path.
        let s = pareto_relation(400, 1, 1.5, 7);
        let mut t = Relation::new(1);
        for key in pareto_relation(400, 1, 1.5, 8).iter() {
            t.push(&[1000.0 - key[0]]);
        }
        let band = BandCondition::symmetric(&[5.0]);
        let cfg = RecPartConfig::new(4).with_sample(small_sample_config());
        let mut rng = StdRng::seed_from_u64(9);
        let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
        exactly_once_check(&result.partitioner, &s, &t, &band);
    }

    #[test]
    fn recpart_s_never_uses_s_splits() {
        let s = pareto_relation(2000, 2, 1.5, 10);
        let t = pareto_relation(2000, 2, 1.5, 11);
        let band = BandCondition::symmetric(&[0.5, 0.5]);
        let cfg = RecPartConfig::new(8)
            .without_symmetric()
            .with_sample(small_sample_config());
        let mut rng = StdRng::seed_from_u64(12);
        let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
        assert_eq!(result.report.strategy, "RecPart-S");
        // Inspect the tree: no SSplit nodes may exist.
        let tree = result.partitioner.tree();
        for id in 0..tree.num_nodes() {
            if let Node::Inner(inner) = tree.node(id as NodeId) {
                assert_eq!(inner.kind, SplitKind::TSplit);
            }
        }
    }

    #[test]
    fn theoretical_termination_produces_low_duplication() {
        let s = uniform_relation(3000, 1, 0.0, 1000.0, 13);
        let t = uniform_relation(3000, 1, 0.0, 1000.0, 14);
        let band = BandCondition::symmetric(&[0.5]);
        let cfg = RecPartConfig::new(10)
            .with_theoretical_termination()
            .with_sample(small_sample_config());
        let mut rng = StdRng::seed_from_u64(15);
        let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
        // On uniform data with a narrow band, near-zero duplication is achievable.
        assert!(
            result.report.estimated_dup_overhead < 0.15,
            "dup overhead too high: {}",
            result.report.estimated_dup_overhead
        );
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let empty = Relation::new(1);
        let t = uniform_relation(10, 1, 0.0, 1.0, 16);
        let band = BandCondition::symmetric(&[0.1]);
        let cfg = RecPartConfig::new(2);
        let mut rng = StdRng::seed_from_u64(17);
        let err = RecPart::new(cfg.clone())
            .try_optimize(&empty, &t, &band, &mut rng)
            .unwrap_err();
        assert_eq!(err, RecPartError::EmptyRelation { side: "S" });
        let err = RecPart::new(cfg)
            .try_optimize(&t, &empty, &band, &mut rng)
            .unwrap_err();
        assert_eq!(err, RecPartError::EmptyRelation { side: "T" });
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let s = uniform_relation(10, 1, 0.0, 1.0, 18);
        let t = uniform_relation(10, 2, 0.0, 1.0, 19);
        let band = BandCondition::symmetric(&[0.1]);
        let cfg = RecPartConfig::new(2);
        let mut rng = StdRng::seed_from_u64(20);
        assert!(matches!(
            RecPart::new(cfg).try_optimize(&s, &t, &band, &mut rng),
            Err(RecPartError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn band_dimension_mismatch_is_rejected() {
        let s = uniform_relation(10, 2, 0.0, 1.0, 21);
        let t = uniform_relation(10, 2, 0.0, 1.0, 22);
        let band = BandCondition::symmetric(&[0.1]);
        let cfg = RecPartConfig::new(2);
        let mut rng = StdRng::seed_from_u64(23);
        assert!(matches!(
            RecPart::new(cfg).try_optimize(&s, &t, &band, &mut rng),
            Err(RecPartError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn wide_band_triggers_small_partitions_and_grid_mode() {
        // Band width comparable to the whole domain: the root quickly becomes "small" and
        // 1-Bucket style sub-partitioning kicks in.
        let s = uniform_relation(2000, 1, 0.0, 10.0, 24);
        let t = uniform_relation(2000, 1, 0.0, 10.0, 25);
        let band = BandCondition::symmetric(&[8.0]);
        let cfg = RecPartConfig::new(6).with_sample(small_sample_config());
        let mut rng = StdRng::seed_from_u64(26);
        let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
        assert!(
            result.partitioner.num_partitions() > result.partitioner.tree().num_leaves(),
            "expected internal 1-Bucket cells (partitions {} vs leaves {})",
            result.partitioner.num_partitions(),
            result.partitioner.tree().num_leaves()
        );
        exactly_once_check(&result.partitioner, &s, &t, &band);
    }

    #[test]
    fn optimization_is_deterministic_given_seed() {
        let s = pareto_relation(2000, 2, 1.2, 30);
        let t = pareto_relation(2000, 2, 1.2, 31);
        let band = BandCondition::symmetric(&[0.2, 0.2]);
        let cfg = RecPartConfig::new(8).with_sample(small_sample_config());
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            RecPart::new(cfg.clone()).optimize(&s, &t, &band, &mut rng)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.report.iterations, b.report.iterations);
        assert_eq!(
            a.partitioner.num_partitions(),
            b.partitioner.num_partitions()
        );
        assert_eq!(a.partitioner.tree(), b.partitioner.tree());
    }

    #[test]
    fn equi_join_band_is_supported() {
        let s = uniform_relation(1000, 1, 0.0, 50.0, 32);
        let t = uniform_relation(1000, 1, 0.0, 50.0, 33);
        let band = BandCondition::equi(1);
        let cfg = RecPartConfig::new(4).with_sample(small_sample_config());
        let mut rng = StdRng::seed_from_u64(34);
        let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
        // With continuous uniform values exact matches are rare; duplication should be
        // essentially zero because band width is zero.
        assert!(result.report.estimated_dup_overhead < 0.01);
        exactly_once_check(&result.partitioner, &s, &t, &band);
    }

    #[test]
    fn custom_load_model_is_respected_in_report() {
        let s = uniform_relation(1000, 1, 0.0, 100.0, 35);
        let t = uniform_relation(1000, 1, 0.0, 100.0, 36);
        let band = BandCondition::symmetric(&[1.0]);
        let cfg = RecPartConfig::new(4)
            .with_load_model(LoadModel::new(1.0, 1.0))
            .with_sample(small_sample_config());
        let mut rng = StdRng::seed_from_u64(37);
        let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
        assert!(result.report.predicted_time > 0.0);
    }

    /// Everything of two optimization results that must be bit-identical across
    /// scorers and thread counts (wall-clock fields are excluded by construction).
    fn assert_results_bit_identical(a: &RecPartResult, b: &RecPartResult, label: &str) {
        assert_eq!(
            a.report.evaluation, b.report.evaluation,
            "{label}: evaluation counters"
        );
        assert_results_bit_identical_except_eval_counters(a, b, label);
    }

    /// [`assert_results_bit_identical`] minus the evaluation work counters — the
    /// comparison used across *evaluators*, whose `ledger_leaf_visits` differ by
    /// design while everything they compute must not.
    fn assert_results_bit_identical_except_eval_counters(
        a: &RecPartResult,
        b: &RecPartResult,
        label: &str,
    ) {
        assert_eq!(a.partitioner.tree(), b.partitioner.tree(), "{label}: tree");
        assert_eq!(
            a.partitioner.num_partitions(),
            b.partitioner.num_partitions(),
            "{label}: partitions"
        );
        assert_eq!(a.report.iterations, b.report.iterations, "{label}");
        assert_eq!(
            a.report.winning_iteration, b.report.winning_iteration,
            "{label}"
        );
        assert_eq!(a.report.leaves, b.report.leaves, "{label}");
        assert_eq!(a.report.split_search, b.report.split_search, "{label}");
        assert_eq!(
            a.report.estimated_total_input.to_bits(),
            b.report.estimated_total_input.to_bits(),
            "{label}: total input"
        );
        assert_eq!(
            a.report.predicted_time.to_bits(),
            b.report.predicted_time.to_bits(),
            "{label}: predicted time"
        );
        assert_eq!(
            a.report.termination_reason, b.report.termination_reason,
            "{label}"
        );
    }

    #[test]
    fn sweep_scorer_matches_binary_search_scorer_end_to_end() {
        let s = pareto_relation(3000, 2, 1.3, 40);
        let t = pareto_relation(3000, 2, 1.3, 41);
        let band = BandCondition::symmetric(&[0.3, 0.3]);
        for symmetric in [true, false] {
            let mut cfg = RecPartConfig::new(8)
                .with_sample(small_sample_config())
                .with_threads(1);
            cfg.symmetric = symmetric;
            let run = |scorer: SplitScorer| {
                let mut rng = StdRng::seed_from_u64(42);
                RecPart::new(cfg.clone().with_scorer(scorer)).optimize(&s, &t, &band, &mut rng)
            };
            let sweep = run(SplitScorer::SweepLine);
            let reference = run(SplitScorer::BinarySearch);
            assert_results_bit_identical(&sweep, &reference, "sweep vs binary-search");
            assert!(sweep.report.split_search.leaves_scored > 0);
            assert!(sweep.report.split_search.candidates_scored > 0);
        }
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let s = pareto_relation(4000, 1, 1.5, 50);
        let t = pareto_relation(4000, 1, 1.5, 51);
        let band = BandCondition::symmetric(&[0.05]);
        let cfg = RecPartConfig::new(16).with_sample(small_sample_config());
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(7);
            RecPart::new(cfg.clone().with_threads(threads)).optimize(&s, &t, &band, &mut rng)
        };
        let sequential = run(1);
        for threads in [0usize, 4] {
            let parallel = run(threads);
            assert_results_bit_identical(&sequential, &parallel, "threads");
        }
    }

    /// The incremental evaluator must change nothing the optimizer computes — only
    /// how much work evaluation does, which the `ledger_leaf_visits` counter proves:
    /// the full-recompute baseline revisits every leaf on every evaluation, the
    /// incremental ledger touches two leaves per plane split.
    #[test]
    fn incremental_evaluator_matches_full_recompute_end_to_end() {
        let s = pareto_relation(3000, 2, 1.3, 60);
        let t = pareto_relation(3000, 2, 1.3, 61);
        let band = BandCondition::symmetric(&[0.3, 0.3]);
        for symmetric in [true, false] {
            let mut cfg = RecPartConfig::new(8)
                .with_sample(small_sample_config())
                .with_threads(1);
            cfg.symmetric = symmetric;
            let run = |evaluator: Evaluator| {
                let mut rng = StdRng::seed_from_u64(62);
                RecPart::new(cfg.clone().with_evaluator(evaluator))
                    .optimize(&s, &t, &band, &mut rng)
            };
            let incremental = run(Evaluator::Incremental);
            let full = run(Evaluator::FullRecompute);
            assert_results_bit_identical_except_eval_counters(
                &incremental,
                &full,
                "incremental vs full recompute",
            );

            // Same evaluations, same LPT work — the mapping itself is exact.
            let (ie, fe) = (incremental.report.evaluation, full.report.evaluation);
            assert_eq!(ie.evaluations, fe.evaluations);
            assert_eq!(ie.lpt_cells, fe.lpt_cells);
            assert!(ie.evaluations > 1, "the run must have applied splits");
            // evaluate() no longer iterates all leaves per split: the incremental
            // ledger's visits are bounded by the deltas (≤ 2 per evaluation after
            // the initial build), while the full recompute pays leaves × evaluations.
            assert!(
                ie.ledger_leaf_visits <= 2 * ie.evaluations,
                "incremental ledger visits {} exceed the delta bound for {} evaluations",
                ie.ledger_leaf_visits,
                ie.evaluations
            );
            assert!(
                fe.ledger_leaf_visits > ie.ledger_leaf_visits,
                "full recompute must visit strictly more leaves ({} vs {})",
                fe.ledger_leaf_visits,
                ie.ledger_leaf_visits
            );
        }
    }

    mod eval_property {
        use super::*;
        use proptest::prelude::*;

        /// Drive a random sequence of best-splits through the optimizer state,
        /// maintaining one ledger incrementally, and after **every** applied split
        /// compare its `Evaluation` bit for bit against a ledger rebuilt from
        /// scratch (the [`Evaluator::FullRecompute`] oracle).
        fn compare_evaluations(
            s: &Relation,
            t: &Relation,
            band: &BandCondition,
            symmetric: bool,
            workers: usize,
            seed: u64,
        ) {
            let mut cfg = RecPartConfig::new(workers).with_sample(SampleConfig {
                input_sample_size: 400,
                output_sample_size: 200,
                output_probe_count: 200,
            });
            cfg.symmetric = symmetric;
            let mut rng = StdRng::seed_from_u64(seed);
            let s_sample = InputSample::draw(s, 200, &mut rng);
            let t_sample = InputSample::draw(t, 200, &mut rng);
            let o_sample = OutputSample::draw(s, t, band, &cfg.sample, &mut rng);
            let state = OptimizerState::new(
                &cfg,
                band,
                s.len(),
                t.len(),
                &s_sample,
                &t_sample,
                &o_sample,
            );

            let mut tree = SplitTree::new(band.dims());
            let root = tree.root();
            let mut works: Vec<Option<LeafWork>> = Vec::new();
            OptimizerState::store_work(&mut works, state.root_work(&tree));
            state.refresh_leaves(&mut works, &tree, &[root]);

            let mut ec = EvalCounters::default();
            let mut incremental = EvalLedger::default();
            incremental.rebuild(&state, &tree, &works, &mut ec);

            let compare = |incremental: &mut EvalLedger,
                           step: usize,
                           tree: &SplitTree,
                           works: &[Option<LeafWork>]| {
                let mut ec = EvalCounters::default();
                let a = incremental.evaluate(&state, &mut ec);
                let mut oracle = EvalLedger::default();
                oracle.rebuild(&state, tree, works, &mut ec);
                let b = oracle.evaluate(&state, &mut ec);
                for (x, y, what) in [
                    (a.total_input, b.total_input, "total_input"),
                    (a.dup_overhead, b.dup_overhead, "dup_overhead"),
                    (a.load_overhead, b.load_overhead, "load_overhead"),
                    (a.predicted_time, b.predicted_time, "predicted_time"),
                ] {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "step {}: {} diverged ({} vs {})",
                        step,
                        what,
                        x,
                        y
                    );
                }
            };
            compare(&mut incremental, 0, &tree, &works);

            let mut pick = StdRng::seed_from_u64(seed ^ 0xE7A1);
            for step in 1..=12 {
                // Current splittable leaves, in depth-first order.
                let splittable: Vec<NodeId> = tree
                    .leaf_ids()
                    .into_iter()
                    .filter(|&id| {
                        works[id as usize]
                            .as_ref()
                            .is_some_and(|w| w.best.score.is_splittable())
                    })
                    .collect();
                if splittable.is_empty() {
                    break;
                }
                let leaf_id = splittable[pick.gen_range(0..splittable.len())];
                let best = works[leaf_id as usize].as_ref().unwrap().best;
                match best.action {
                    SplitAction::Plane { dim, value, kind } => {
                        let (l, r) = state
                            .apply_plane_split(&mut tree, &mut works, leaf_id, dim, value, kind);
                        incremental.apply_plane_split(
                            &state,
                            leaf_id,
                            works[l as usize].as_ref().unwrap(),
                            works[r as usize].as_ref().unwrap(),
                            &mut ec,
                        );
                        state.refresh_leaves(&mut works, &tree, &[l, r]);
                    }
                    SplitAction::Grid { add_row } => {
                        let work = works[leaf_id as usize].as_mut().unwrap();
                        if add_row {
                            work.grid.rows += 1;
                        } else {
                            work.grid.cols += 1;
                        }
                        work.version += 1;
                        tree.set_leaf_grid(leaf_id, work.grid);
                        incremental.apply_grid_change(
                            &state,
                            works[leaf_id as usize].as_ref().unwrap(),
                            &mut ec,
                        );
                        state.refresh_leaves(&mut works, &tree, &[leaf_id]);
                    }
                    SplitAction::None => break,
                }
                compare(&mut incremental, step, &tree, &works);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Incremental `evaluate()` equals a full ledger recompute — bit for
            /// bit, after every split of a random split sequence — on skewed and
            /// uniform data, 1–3 dimensions, narrow and wide (grid-heavy) bands,
            /// both role configurations.
            #[test]
            fn incremental_evaluation_equals_full_recompute_on_random_split_sequences(
                seed in 0u64..5_000,
                dims in 1usize..4,
                eps in 0.05f64..30.0,
                skewed in 0u32..2,
                symmetric in 0u32..2,
                workers in 2usize..17,
            ) {
                let (s, t) = if skewed == 1 {
                    (
                        pareto_relation(600, dims, 1.4, seed),
                        pareto_relation(600, dims, 1.4, seed ^ 0xA5),
                    )
                } else {
                    (
                        uniform_relation(600, dims, 0.0, 60.0, seed),
                        uniform_relation(600, dims, 0.0, 60.0, seed ^ 0xA5),
                    )
                };
                let band = BandCondition::symmetric(&vec![eps; dims]);
                compare_evaluations(&s, &t, &band, symmetric == 1, workers, seed ^ 0x5EED);
            }
        }
    }

    mod sweep_property {
        use super::*;
        use proptest::prelude::*;

        /// Build an optimizer state over drawn samples and compare the sweep-line and
        /// binary-search scorers on the root leaf and (after applying the chosen
        /// split) on both children, exercising the incremental projection split.
        fn compare_scorers(
            s: &Relation,
            t: &Relation,
            band: &BandCondition,
            symmetric: bool,
            sample_seed: u64,
        ) {
            let mut cfg = RecPartConfig::new(6).with_sample(SampleConfig {
                input_sample_size: 400,
                output_sample_size: 200,
                output_probe_count: 200,
            });
            cfg.symmetric = symmetric;
            let mut rng = StdRng::seed_from_u64(sample_seed);
            let s_sample = InputSample::draw(s, 200, &mut rng);
            let t_sample = InputSample::draw(t, 200, &mut rng);
            let o_sample = OutputSample::draw(s, t, band, &cfg.sample, &mut rng);
            let state = OptimizerState::new(
                &cfg,
                band,
                s.len(),
                t.len(),
                &s_sample,
                &t_sample,
                &o_sample,
            );

            let mut tree = SplitTree::new(band.dims());
            let root = tree.root();
            let mut works: Vec<Option<LeafWork>> = Vec::new();
            OptimizerState::store_work(&mut works, state.root_work(&tree));
            let work = works[root as usize].as_ref().unwrap();
            if work.is_small {
                return;
            }

            let (sweep, sweep_counters) = state.best_plane_split_sweep(&tree, work);
            let (reference, reference_counters) = state.best_plane_split_reference(&tree, work);
            prop_assert_eq!(sweep, reference, "root best split differs");
            prop_assert_eq!(sweep_counters, reference_counters, "root counters differ");

            // Apply the chosen split and compare the children, whose projections were
            // distributed incrementally rather than argsorted from scratch.
            if let SplitAction::Plane { dim, value, kind } = sweep.action {
                let (l, r) = state.apply_plane_split(&mut tree, &mut works, root, dim, value, kind);
                for child in [l, r] {
                    let work = works[child as usize].as_ref().unwrap();
                    if work.is_small {
                        continue;
                    }
                    let (sweep, _) = state.best_plane_split_sweep(&tree, work);
                    let (reference, _) = state.best_plane_split_reference(&tree, work);
                    prop_assert_eq!(sweep, reference, "child best split differs");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The sweep-line scorer returns the exact `BestSplit` (same score bits,
            /// same action, same duplication estimate) as the binary-search scorer on
            /// random leaves — skewed and uniform data, 1–3 dimensions, symmetric and
            /// asymmetric-role configurations, varying band widths.
            #[test]
            fn sweep_equals_binary_search_on_random_leaves(
                seed in 0u64..5_000,
                dims in 1usize..4,
                eps in 0.02f64..6.0,
                skewed in 0u32..2,
                symmetric in 0u32..2,
            ) {
                let (s, t) = if skewed == 1 {
                    (
                        pareto_relation(800, dims, 1.4, seed),
                        pareto_relation(800, dims, 1.4, seed ^ 0xA5),
                    )
                } else {
                    (
                        uniform_relation(800, dims, 0.0, 60.0, seed),
                        uniform_relation(800, dims, 0.0, 60.0, seed ^ 0xA5),
                    )
                };
                let band = BandCondition::symmetric(&vec![eps; dims]);
                compare_scorers(&s, &t, &band, symmetric == 1, seed ^ 0x5EED);
            }
        }
    }
}
