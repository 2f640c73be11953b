//! The per-leaf cost ledger and the evaluation of a partitioning against the lower
//! bounds: the growth loop reports every split to the ledger, which applies the
//! delta, and asks it for an [`Evaluation`]. The test-only `full_recompute` oracle
//! instead has the loop [`EvalLedger::rebuild`] the ledger from the tree before every
//! evaluation.

use super::{LeafWork, OptimizerState};
use crate::load::LeastLoaded;
use crate::metrics::EvalCounters;
use crate::split_tree::{NodeId, SplitTree};
use std::cmp::Ordering;

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

impl LedgerEntry {
    /// One leaf's entry from its working state: the estimated input/output of one
    /// cell (a small leaf's 1-Bucket cells are identical) and the per-cell load
    /// under the configured model.
    fn of(state: &OptimizerState<'_>, work: &LeafWork) -> Self {
        let (s_in, t_in, out) = state.leaf_estimates(work);
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
            load: state.cfg.load_model.load(input, output),
        }
    }
}

/// Sentinel for "this node has no ledger entry" in [`EvalLedger::pos`].
const NO_ENTRY: u32 = u32::MAX;

/// LPT processing order of two ledger entries: descending per-cell load, ascending
/// node id among exact load ties. A **total** order, so the incrementally maintained
/// sequence and a from-scratch sort agree element for element — which is what makes
/// the delta-maintained ledger and a rebuilt one bit-identical by construction rather
/// than by luck.
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

/// Result of evaluating the current partitioning against the lower bounds.
#[derive(Debug, Clone, Copy)]
pub(super) struct Evaluation {
    pub(super) total_input: f64,
    pub(super) dup_overhead: f64,
    pub(super) load_overhead: f64,
    pub(super) predicted_time: f64,
}

/// The persistent per-leaf cost ledger behind the post-split evaluation.
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
/// * [`EvalLedger::order`] holds copies of the same entries in LPT processing order
///   (see [`lpt_order`]), so the LPT streams its cells instead of chasing each
///   leaf's entry. Applying a split performs binary-searched edits (remove the
///   parent, insert each child); nothing is ever re-sorted.
///
/// [`EvalLedger::rebuild`] — the O(leaves) walk + O(n log n) sort the deltas avoid —
/// builds the initial ledger; the test-only `full_recompute` oracle also runs it
/// before every evaluation. Both read the ledger through the one
/// [`EvalLedger::evaluate`], so their results cannot diverge.
#[derive(Debug, Default)]
pub(super) struct EvalLedger {
    /// Per-leaf cost entries in depth-first leaf order.
    entries: Vec<LedgerEntry>,
    /// `pos[node] = index` of the node's entry in `entries` ([`NO_ENTRY`] if none).
    pos: Vec<u32>,
    /// Copies of `entries` in LPT processing order.
    order: Vec<LedgerEntry>,
    /// Scratch: per-worker accumulated input/output, reused across evaluations.
    worker_in: Vec<f64>,
    worker_out: Vec<f64>,
    /// Scratch: the LPT worker tournament tree, reused across evaluations.
    lpt: LeastLoaded,
}

impl EvalLedger {
    /// The ledger of a tree no split has been reported for yet (the single-leaf
    /// start of the growth loop).
    pub(super) fn new(
        state: &OptimizerState<'_>,
        tree: &SplitTree,
        works: &[Option<LeafWork>],
        counters: &mut EvalCounters,
    ) -> Self {
        let mut ledger = EvalLedger::default();
        ledger.rebuild(state, tree, works, counters);
        ledger
    }

    /// The entry of `pos[node]`, which must exist.
    #[inline]
    fn entry(&self, node: NodeId) -> &LedgerEntry {
        &self.entries[self.pos[node as usize] as usize]
    }

    /// Position of `entry` in the LPT order (binary search on the total order).
    fn order_position(&self, entry: &LedgerEntry) -> Result<usize, usize> {
        self.order
            .binary_search_by(|e| lpt_order(e.load, e.node, entry.load, entry.node))
    }

    fn remove_from_order(&mut self, node: NodeId) {
        let idx = self
            .order_position(self.entry(node))
            .expect("split leaf must be present in the LPT order");
        self.order.remove(idx);
    }

    fn insert_into_order(&mut self, node: NodeId) {
        let entry = *self.entry(node);
        let idx = match self.order_position(&entry) {
            Ok(i) | Err(i) => i,
        };
        self.order.insert(idx, entry);
    }

    /// Grow the node→entry map to cover `node`.
    fn reserve_node(&mut self, node: NodeId) {
        let need = node as usize + 1;
        if self.pos.len() < need {
            self.pos.resize(need, NO_ENTRY);
        }
    }

    /// Rebuild everything from the tree — one leaf visit per leaf plus a full sort
    /// of the LPT order. The initial state of the ledger, and the extra
    /// per-evaluation work of the test-only `full_recompute` oracle.
    pub(super) fn rebuild(
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
            self.entries.push(LedgerEntry::of(state, work));
        });
        counters.ledger_leaf_visits += self.entries.len() as u64;
        self.pos.clear();
        self.pos.resize(tree.num_nodes(), NO_ENTRY);
        for (i, e) in self.entries.iter().enumerate() {
            self.pos[e.node as usize] = i as u32;
        }
        self.order.clone_from(&self.entries);
        self.order
            .sort_unstable_by(|a, b| lpt_order(a.load, a.node, b.load, b.node));
    }

    /// The growth loop split `parent` by a plane into `left` and `right`: drop the
    /// parent's entry, splice the two children into its depth-first position, and
    /// re-thread the LPT order with two binary-searched edits. O(leaves) only in the
    /// trivial memmove/position-shift sense — no tree walk, no estimate recomputation
    /// for unaffected leaves, no re-sort.
    pub(super) fn plane_split(
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
        self.entries[i] = LedgerEntry::of(state, left);
        self.entries.insert(i + 1, LedgerEntry::of(state, right));
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

    /// The growth loop changed the internal 1-Bucket grid of `work`'s leaf: re-cost
    /// that one leaf.
    pub(super) fn grid_change(
        &mut self,
        state: &OptimizerState<'_>,
        work: &LeafWork,
        counters: &mut EvalCounters,
    ) {
        self.remove_from_order(work.node);
        let i = self.pos[work.node as usize] as usize;
        self.entries[i] = LedgerEntry::of(state, work);
        self.insert_into_order(work.node);
        counters.ledger_leaf_visits += 1;
    }

    /// Compute the [`Evaluation`] of the current ledger state: total input in
    /// depth-first cell order, then the exact LPT worker mapping over the
    /// maintained order.
    pub(super) fn evaluate(
        &mut self,
        state: &OptimizerState<'_>,
        counters: &mut EvalCounters,
    ) -> Evaluation {
        counters.evaluations += 1;
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

        // LPT mapping of cells onto workers via the shared tournament tree:
        // lowest-loaded worker first, lowest index among equal loads — exactly the
        // worker a first-minimum scan selects — at ⌈log₂ w⌉ selects per cell.
        self.worker_in.clear();
        self.worker_in.resize(w, 0.0);
        self.worker_out.clear();
        self.worker_out.resize(w, 0.0);
        self.lpt.reset(w, lm.load(0.0, 0.0));
        let mut cells = 0u64;
        for e in &self.order {
            for _ in 0..e.count {
                let target = self.lpt.least();
                let input = self.worker_in[target] + e.input;
                let output = self.worker_out[target] + e.output;
                self.worker_in[target] = input;
                self.worker_out[target] = output;
                self.lpt.set(target, lm.load(input, output));
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

#[cfg(test)]
mod tests {
    use super::super::grow::GrownState;
    use super::super::search::SplitAction;
    use super::super::tests::{pareto_relation, uniform_relation};
    use super::*;
    use crate::band::BandCondition;
    use crate::config::RecPartConfig;
    use crate::relation::Relation;
    use crate::sample::{InputSample, OutputSample, SampleConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Drive a random sequence of best-splits through the growth state, whose
    /// ledger is maintained incrementally, and after **every** applied split
    /// compare its `Evaluation` bit for bit against a ledger rebuilt from
    /// scratch (the `full_recompute` oracle).
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

        let mut grown = GrownState::new(&state);

        let compare = |grown: &mut GrownState, step: usize| {
            let mut ec = EvalCounters::default();
            let a = grown.ledger.evaluate(&state, &mut ec);
            let mut oracle = EvalLedger::new(&state, &grown.tree, &grown.works, &mut ec);
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
        compare(&mut grown, 0);

        let mut pick = StdRng::seed_from_u64(seed ^ 0xE7A1);
        for step in 1..=12 {
            // Current splittable leaves, in depth-first order.
            let splittable: Vec<NodeId> = grown
                .tree
                .leaf_ids()
                .into_iter()
                .filter(|&id| {
                    grown.works[id as usize]
                        .as_ref()
                        .is_some_and(|w| w.best.score.is_splittable())
                })
                .collect();
            if splittable.is_empty() {
                break;
            }
            let leaf_id = splittable[pick.gen_range(0..splittable.len())];
            let best = grown.works[leaf_id as usize].as_ref().unwrap().best;
            match best.action {
                SplitAction::Plane(plane) => {
                    grown.split_plane(&state, leaf_id, plane);
                }
                SplitAction::Grid { add_row } => grown.grow_grid(&state, leaf_id, add_row),
                SplitAction::None => break,
            }
            compare(&mut grown, step);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Incremental `evaluate()` equals a full ledger recompute — bit for
        /// bit, after every split of a random split sequence — on skewed and
        /// uniform data, 1–3 dimensions, narrow and wide (grid-heavy) bands,
        /// both role configurations.
        #[test]
        fn incremental_evaluation_equals_full_recompute_on_random_splits(
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
