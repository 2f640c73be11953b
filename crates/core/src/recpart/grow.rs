//! The repeat loop of Algorithm 1: pop the leaf with the best split, apply it, tell the
//! ledger, re-score the affected leaves, evaluate, remember the best partitioning seen,
//! decide whether to stop — and, at the end, roll the tree back to the winner and
//! write the report.
//!
//! The loop asks `search` for best splits and `ledger` for evaluations; it does not
//! know how either is computed.

use super::ledger::{EvalLedger, Evaluation};
use super::projections::{child_projections, SplitRecord};
use super::search::SplitAction;
use super::{
    LeafWork, OptimizationReport, OptimizerState, Plane, RecPartResult, SplitTreePartitioner,
};
use crate::config::{Termination, MIN_IMPROVEMENT};
use crate::metrics::{EvalCounters, SplitSearchCounters};
use crate::partition::Partitioner;
use crate::scoring::SplitScore;
use crate::small::BucketGrid;
use crate::split_tree::{LeafNode, NodeId, SplitTree};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

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

/// Run `f`, adding its wall-clock time to `seconds`.
fn timed<R>(seconds: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *seconds += start.elapsed().as_secs_f64();
    out
}

/// Stable split of a leaf's sample-point list over the two children of a plane:
/// every point goes to each child `children` names for it — exactly one for the
/// partitioned side and the output pairs, one or both for the duplicated side. Each
/// point's decision is also written to `record[i]`, which the leaf's projections
/// then split by.
fn split_points(
    points: &[u32],
    record: &mut [(bool, bool)],
    children: impl Fn(u32) -> (bool, bool),
) -> (Vec<u32>, Vec<u32>) {
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for &i in points {
        let (l, r) = children(i);
        record[i as usize] = (l, r);
        if l {
            left.push(i);
        }
        if r {
            right.push(i);
        }
    }
    (left, right)
}

/// The working state of `works[leaf]`, which must exist.
fn work_of(works: &[Option<LeafWork>], leaf: NodeId) -> &LeafWork {
    works[leaf as usize].as_ref().expect("leaf work must exist")
}

fn store_work(works: &mut Vec<Option<LeafWork>>, work: LeafWork) {
    let idx = work.node as usize;
    if works.len() <= idx {
        works.resize_with(idx + 1, || None);
    }
    works[idx] = Some(work);
}

/// The state of the tree-growth loop, from its single-leaf start to termination:
/// handed to `finalize` by `optimize_with_samples`.
pub(super) struct GrownState {
    pub(super) tree: SplitTree,
    /// Leaf working state, indexed by node id.
    pub(super) works: Vec<Option<LeafWork>>,
    pub(super) ledger: EvalLedger,
    /// Leaves by the score of their best split; stale entries are skipped on pop.
    heap: BinaryHeap<QueueEntry>,
    /// Reversible record of every tree mutation, in application order; finalize
    /// rolls back the edits past the winning iteration instead of the winner
    /// cloning the tree.
    undo_log: Vec<(usize, TreeEdit)>,
    winner: Option<Winner>,
    best_load_overhead: f64,
    /// Predicted join times recorded after iterations that *paid* input duplication.
    /// The applied termination rule (Section 4.2) watches a window of `w` such
    /// iterations: duplication-free splits are always worth applying (they can only
    /// improve load balance at zero cost), so they keep the loop alive and only the
    /// paid iterations can convict the optimizer of wasting duplication.
    paid_time_history: Vec<f64>,
    iterations: usize,
    termination_reason: String,
    counters: SplitSearchCounters,
    eval_counters: EvalCounters,
    split_search_seconds: f64,
    evaluation_seconds: f64,
    /// Where the split being applied sends each sample point, reused by every split.
    record: SplitRecord,
}

impl GrownState {
    /// The single-leaf start: the root's working state with its best split scored
    /// and queued, the ledger seeded, and the initial (single-partition) state
    /// evaluated so the winner is always defined.
    pub(super) fn new(state: &OptimizerState<'_>) -> Self {
        let tree = SplitTree::new(state.dims);
        let root = tree.root();
        let mut root_work = LeafWork::new(root);
        root_work.s_pts = (0..state.s_sample.len() as u32).collect();
        root_work.t_pts = (0..state.t_sample.len() as u32).collect();
        root_work.o_pts = (0..state.o_sample.len() as u32).collect();
        root_work.is_small = state.is_small(&tree, root);
        root_work.proj = state.root_projections(root_work.plane_candidate());
        let mut works = Vec::new();
        store_work(&mut works, root_work);

        let mut eval_counters = EvalCounters::default();
        let mut evaluation_seconds = 0.0;
        let ledger = timed(&mut evaluation_seconds, || {
            EvalLedger::new(state, &tree, &works, &mut eval_counters)
        });
        let mut grown = GrownState {
            tree,
            works,
            ledger,
            heap: BinaryHeap::new(),
            undo_log: Vec::new(),
            winner: None,
            best_load_overhead: f64::INFINITY,
            paid_time_history: Vec::new(),
            iterations: 0,
            termination_reason: String::from("no more useful splits"),
            counters: SplitSearchCounters::default(),
            eval_counters,
            split_search_seconds: 0.0,
            evaluation_seconds,
            record: SplitRecord {
                s: vec![(false, false); state.s_sample.len()],
                t: vec![(false, false); state.t_sample.len()],
                o: vec![(false, false); state.o_sample.len()],
            },
        };
        grown.refresh(state, &[root]);
        grown.evaluate(state, true);
        grown
    }

    /// Re-score the best splits of `leaves` — the frontier update after one split —
    /// and queue those that have one.
    fn refresh(&mut self, state: &OptimizerState<'_>, leaves: &[NodeId]) {
        timed(&mut self.split_search_seconds, || {
            for &leaf in leaves {
                let work = self.works[leaf as usize]
                    .as_mut()
                    .expect("leaf work must exist");
                self.counters.merge(state.refresh_best(&self.tree, work));
            }
        });
        for &leaf in leaves {
            let work = work_of(&self.works, leaf);
            if work.best.score.is_splittable() {
                self.heap.push(QueueEntry {
                    score: work.best.score,
                    leaf,
                    version: work.version,
                });
            }
        }
    }

    /// Pop until a valid entry: the leaf still exists, its version matches, and it
    /// has a useful split.
    fn pop_splittable_leaf(&mut self) -> Option<NodeId> {
        while let Some(entry) = self.heap.pop() {
            let work = self.works.get(entry.leaf as usize);
            let valid = |w: &LeafWork| w.version == entry.version && w.best.score.is_splittable();
            if work.and_then(Option::as_ref).is_some_and(valid) {
                return Some(entry.leaf);
            }
        }
        None
    }

    /// Apply a hyperplane split of `leaf_id`: update the tree, decide once per parent
    /// sample point which children it goes to (by the role `plane` gives its side),
    /// distribute the plain lists and cached projections by those decisions — stable
    /// linear partitions, so the work per split is proportional to the leaf's sample
    /// size — tell the ledger and re-score the children. Returns the ids of the two new
    /// leaves.
    pub(super) fn split_plane(
        &mut self,
        state: &OptimizerState<'_>,
        leaf_id: NodeId,
        plane: Plane,
    ) -> (NodeId, NodeId) {
        let prior = self.tree.leaf(leaf_id).clone();
        self.undo_log.push((
            self.iterations,
            TreeEdit::Plane {
                leaf: leaf_id,
                prior,
            },
        ));
        let parent = self.works[leaf_id as usize]
            .take()
            .expect("parent leaf work must exist");
        let (left_id, right_id) = self
            .tree
            .split_leaf(leaf_id, plane.dim, plane.value, plane.kind);

        let mut left = LeafWork::new(left_id);
        let mut right = LeafWork::new(right_id);
        let record = &mut self.record;
        (left.s_pts, right.s_pts) =
            split_points(&parent.s_pts, &mut record.s, |i| state.s_children(plane, i));
        (left.t_pts, right.t_pts) =
            split_points(&parent.t_pts, &mut record.t, |i| state.t_children(plane, i));
        (left.o_pts, right.o_pts) =
            split_points(&parent.o_pts, &mut record.o, |i| state.o_children(plane, i));
        left.is_small = state.is_small(&self.tree, left_id);
        right.is_small = state.is_small(&self.tree, right_id);
        (left.proj, right.proj) = child_projections(
            parent.proj.as_ref(),
            record,
            (left.plane_candidate(), right.plane_candidate()),
        );
        store_work(&mut self.works, left);
        store_work(&mut self.works, right);

        timed(&mut self.evaluation_seconds, || {
            self.ledger.plane_split(
                state,
                leaf_id,
                work_of(&self.works, left_id),
                work_of(&self.works, right_id),
                &mut self.eval_counters,
            )
        });
        self.refresh(state, &[left_id, right_id]);
        (left_id, right_id)
    }

    /// Add a row or a column to the internal 1-Bucket grid of small leaf `leaf_id`,
    /// tell the ledger and re-score the leaf.
    pub(super) fn grow_grid(&mut self, state: &OptimizerState<'_>, leaf_id: NodeId, add_row: bool) {
        let prior = self.tree.leaf(leaf_id).grid;
        self.undo_log.push((
            self.iterations,
            TreeEdit::Grid {
                leaf: leaf_id,
                prior,
            },
        ));
        let work = self.works[leaf_id as usize]
            .as_mut()
            .expect("leaf work must exist");
        if add_row {
            work.grid.rows += 1;
        } else {
            work.grid.cols += 1;
        }
        work.version += 1;
        self.tree.set_leaf_grid(leaf_id, work.grid);
        timed(&mut self.evaluation_seconds, || {
            self.ledger.grid_change(
                state,
                work_of(&self.works, leaf_id),
                &mut self.eval_counters,
            )
        });
        self.refresh(state, &[leaf_id]);
    }

    /// Evaluate the current tree and record it: the best load overhead seen, the
    /// predicted time if this iteration `paid_duplication`, and — iff its criterion
    /// improves on the incumbent — the winner. No tree is touched: the winner is just
    /// an iteration marker (plus its evaluation), and `finalize` rolls the grown tree
    /// back to it through the undo log — `winner_tree_clones` stays 0 by construction
    /// and tests assert it.
    fn evaluate(&mut self, state: &OptimizerState<'_>, paid_duplication: bool) -> Evaluation {
        let eval = timed(&mut self.evaluation_seconds, || {
            #[cfg(test)]
            if state.oracles.full_recompute {
                // The oracle forgets every delta the ledger was handed.
                self.ledger
                    .rebuild(state, &self.tree, &self.works, &mut self.eval_counters);
            }
            self.ledger.evaluate(state, &mut self.eval_counters)
        });
        self.best_load_overhead = self.best_load_overhead.min(eval.load_overhead);
        if paid_duplication {
            self.paid_time_history.push(eval.predicted_time);
        }
        let criterion = match state.cfg.termination {
            Termination::Theoretical => eval.dup_overhead.max(eval.load_overhead),
            Termination::CostModel => eval.predicted_time,
        };
        if self.winner.is_none_or(|w| criterion < w.criterion) {
            self.eval_counters.winner_updates += 1;
            self.winner = Some(Winner {
                iteration: self.iterations,
                eval,
                criterion,
            });
        }
        eval
    }
}

impl OptimizerState<'_> {
    /// Is the leaf "small": extent below twice the band width in every dimension?
    fn is_small(&self, tree: &SplitTree, leaf: NodeId) -> bool {
        let region = &tree.leaf(leaf).region;
        (0..self.dims).all(|d| {
            let eps = self.band.eps(d);
            eps > 0.0 && region.clipped_extent(d, &self.domain) < 2.0 * eps
        })
    }

    /// Grow the split tree to termination (the repeat loop of Algorithm 1).
    pub(super) fn grow(&self) -> GrownState {
        let cfg = self.cfg;
        let mut g = GrownState::new(self);
        loop {
            // The frontier first: a run whose splits run out on the cap's own
            // iteration stopped because they ran out, not because of the cap.
            let Some(leaf_id) = g.pop_splittable_leaf() else {
                g.termination_reason = "no leaf with a useful split remains".into();
                break;
            };
            if g.iterations >= cfg.max_iterations {
                g.termination_reason = "reached the iteration cap".into();
                break;
            }
            g.iterations += 1;
            let best = work_of(&g.works, leaf_id).best;
            match best.action {
                SplitAction::Plane(plane) => {
                    g.split_plane(self, leaf_id, plane);
                }
                SplitAction::Grid { add_row } => g.grow_grid(self, leaf_id, add_row),
                // Defensive: scores of `None` actions are NotSplittable and filtered.
                SplitAction::None => continue,
            }
            let eval = g.evaluate(self, best.dup_increase > 0.0);

            match cfg.termination {
                Termination::Theoretical => {
                    // Duplication overhead is monotone; once it exceeds the best load
                    // overhead seen, the criterion max{dup, load} can no longer improve.
                    if eval.dup_overhead > g.best_load_overhead {
                        g.termination_reason =
                            "duplication overhead exceeded best load overhead (theoretical rule)"
                                .into();
                        break;
                    }
                }
                Termination::CostModel => {
                    let w = cfg.workers;
                    if g.paid_time_history.len() > w {
                        let split = g.paid_time_history.len() - w;
                        let best_of =
                            |times: &[f64]| times.iter().cloned().fold(f64::INFINITY, f64::min);
                        let before = best_of(&g.paid_time_history[..split]);
                        let recent = best_of(&g.paid_time_history[split..]);
                        if recent > before * (1.0 - MIN_IMPROVEMENT) {
                            g.termination_reason = format!(
                                "predicted join time improved < {:.1}% over the last {} \
                                 duplication-incurring iterations",
                                MIN_IMPROVEMENT * 100.0,
                                w
                            );
                            break;
                        }
                    }
                }
            }
        }
        g
    }

    /// Roll the grown tree back to the winning iteration, compile its partitioner and
    /// write the report.
    pub(super) fn finalize(&self, grown: GrownState, start: Instant) -> RecPartResult {
        let mut tree = grown.tree;
        let winner = grown
            .winner
            .expect("at least the initial evaluation is recorded");
        // Revert every edit recorded after the winner, newest first. `undo_split`'s
        // arena-tail assertion makes an out-of-order revert a panic rather than a
        // silently wrong tree.
        for (iteration, edit) in grown.undo_log.into_iter().rev() {
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
            iterations: grown.iterations,
            winning_iteration: winner.iteration,
            leaves: partitioner.tree().num_leaves(),
            partitions: partitioner.num_partitions(),
            estimated_total_input: winner.eval.total_input,
            estimated_dup_overhead: winner.eval.dup_overhead,
            estimated_load_overhead: winner.eval.load_overhead,
            estimated_output: self.est_output,
            predicted_time: winner.eval.predicted_time,
            optimization_seconds: start.elapsed().as_secs_f64(),
            split_search_seconds: grown.split_search_seconds,
            evaluation_seconds: grown.evaluation_seconds,
            split_search: grown.counters,
            evaluation: grown.eval_counters,
            termination_reason: grown.termination_reason,
        };
        RecPartResult {
            partitioner,
            report,
        }
    }
}
