//! The recursive split tree grown by RecPart.
//!
//! Each inner node splits the join-attribute space by a hyperplane `A_dim < value`.
//! A node is either a **T-split** (the default: S-tuples are routed to the single child
//! containing them, T-tuples are copied to every child whose region intersects their
//! ε-range) or an **S-split** (roles reversed — the "symmetric partitioning" extension of
//! Section 4.2). A path from the root to a leaf therefore defines a rectangular
//! partition of the space as the conjunction of the split predicates along the path
//! (Figure 3 / Figure 7 of the paper).
//!
//! Leaves that became *small* carry an internal 1-Bucket grid of `r × c` sub-partitions;
//! a regular leaf is simply a `1 × 1` grid.

use crate::band::BandCondition;
use crate::geometry::Rect;
use crate::partition::PartitionId;
use crate::small::{stable_hash, BucketGrid};

/// Index of a node in the split tree's arena.
pub type NodeId = u32;

/// Which input is partitioned (and which is duplicated) at an inner node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitKind {
    /// S is partitioned without duplication; T-tuples within band width of the split
    /// boundary are copied to both children. This is the default split type.
    TSplit,
    /// T is partitioned without duplication; S-tuples near the boundary are duplicated.
    SSplit,
}

/// An inner node of the split tree.
#[derive(Debug, Clone, PartialEq)]
pub struct InnerNode {
    /// The dimension the split predicate applies to.
    pub dim: usize,
    /// The split value: the left child covers `A_dim < value`, the right child
    /// `A_dim >= value`.
    pub value: f64,
    /// Which input is partitioned at this node.
    pub kind: SplitKind,
    /// Left child (satisfies the predicate `A_dim < value`).
    pub left: NodeId,
    /// Right child.
    pub right: NodeId,
}

/// A leaf of the split tree: one partition of the attribute space, possibly subdivided
/// into 1-Bucket cells.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafNode {
    /// The rectangular region of attribute space covered by this leaf.
    pub region: Rect,
    /// The internal 1-Bucket grid (1×1 for regular leaves).
    pub grid: BucketGrid,
    /// First partition id owned by this leaf; the leaf owns `grid.cells()` consecutive
    /// ids starting here. Assigned by [`SplitTree::assign_partition_ids`].
    pub partition_base: PartitionId,
}

/// A node of the split tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// An inner (split) node.
    Inner(InnerNode),
    /// A leaf (partition).
    Leaf(LeafNode),
}

/// The recursive partitioning of the join-attribute space.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitTree {
    nodes: Vec<Node>,
    root: NodeId,
    dims: usize,
    num_partitions: usize,
    /// Leaf count, maintained on every split so the optimizer's per-iteration
    /// bookkeeping never has to walk the tree to know it.
    num_leaves: usize,
}

impl SplitTree {
    /// A tree with a single leaf covering the whole `dims`-dimensional space.
    pub fn new(dims: usize) -> Self {
        SplitTree {
            nodes: vec![Node::Leaf(LeafNode {
                region: Rect::unbounded(dims),
                grid: BucketGrid::default(),
                partition_base: 0,
            })],
            root: 0,
            dims,
            num_partitions: 1,
            num_leaves: 1,
        }
    }

    /// Dimensionality of the attribute space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of nodes (inner + leaves).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Access a leaf; panics if `id` is not a leaf.
    pub fn leaf(&self, id: NodeId) -> &LeafNode {
        match &self.nodes[id as usize] {
            Node::Leaf(l) => l,
            Node::Inner(_) => panic!("node {id} is not a leaf"),
        }
    }

    fn leaf_mut(&mut self, id: NodeId) -> &mut LeafNode {
        match &mut self.nodes[id as usize] {
            Node::Leaf(l) => l,
            Node::Inner(_) => panic!("node {id} is not a leaf"),
        }
    }

    /// Visit every leaf in depth-first order without materializing an id list
    /// (the optimizer re-evaluates the frontier after every split, so this runs on
    /// the hot path).
    pub fn for_each_leaf(&self, mut f: impl FnMut(NodeId, &LeafNode)) {
        let mut stack: Vec<NodeId> = Vec::with_capacity(32);
        stack.push(self.root);
        while let Some(id) = stack.pop() {
            match &self.nodes[id as usize] {
                Node::Leaf(leaf) => f(id, leaf),
                Node::Inner(inner) => {
                    stack.push(inner.right);
                    stack.push(inner.left);
                }
            }
        }
    }

    /// Ids of all leaves, in depth-first order.
    pub fn leaf_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_leaf(|id, _| out.push(id));
        out
    }

    /// Number of leaves (`O(1)` — maintained by [`SplitTree::split_leaf`]).
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Maximum depth of the tree (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        fn rec(tree: &SplitTree, id: NodeId) -> usize {
            match tree.node(id) {
                Node::Leaf(_) => 1,
                Node::Inner(inner) => 1 + rec(tree, inner.left).max(rec(tree, inner.right)),
            }
        }
        rec(self, self.root)
    }

    /// Split the leaf `leaf_id` with predicate `A_dim < value` of the given kind.
    /// Returns the ids of the two new leaves `(left, right)`.
    ///
    /// # Panics
    /// Panics if `leaf_id` is not a leaf, if `dim` is out of range, or if `value` lies
    /// outside the leaf's region.
    pub fn split_leaf(
        &mut self,
        leaf_id: NodeId,
        dim: usize,
        value: f64,
        kind: SplitKind,
    ) -> (NodeId, NodeId) {
        assert!(dim < self.dims, "split dimension out of range");
        let leaf = self.leaf(leaf_id).clone();
        let (left_region, right_region) = leaf.region.split(dim, value);
        let left_id = self.nodes.len() as NodeId;
        self.nodes.push(Node::Leaf(LeafNode {
            region: left_region,
            grid: BucketGrid::default(),
            partition_base: 0,
        }));
        let right_id = self.nodes.len() as NodeId;
        self.nodes.push(Node::Leaf(LeafNode {
            region: right_region,
            grid: BucketGrid::default(),
            partition_base: 0,
        }));
        self.nodes[leaf_id as usize] = Node::Inner(InnerNode {
            dim,
            value,
            kind,
            left: left_id,
            right: right_id,
        });
        self.num_leaves += 1;
        (left_id, right_id)
    }

    /// Revert the **most recent** [`SplitTree::split_leaf`]: restore `leaf_id` to the
    /// leaf it was before the split (`prior`, as captured by the caller just before
    /// splitting) and drop its two children from the arena. The arena is append-only
    /// and `split_leaf` pushes the children at its end, so un-splitting in LIFO order
    /// is a truncation — this is what lets the optimizer keep an undo log instead of
    /// cloning the whole tree whenever it records a new best partitioning.
    ///
    /// # Panics
    /// Panics if `leaf_id` is not an inner node whose children are the two most
    /// recently appended nodes (i.e. if the undo is attempted out of LIFO order).
    pub fn undo_split(&mut self, leaf_id: NodeId, prior: LeafNode) {
        let n = self.nodes.len();
        match &self.nodes[leaf_id as usize] {
            Node::Inner(inner) => {
                assert!(
                    n >= 2 && inner.left as usize == n - 2 && inner.right as usize == n - 1,
                    "undo_split must revert the most recent split (LIFO order)"
                );
                assert!(
                    matches!(self.nodes[n - 2], Node::Leaf(_))
                        && matches!(self.nodes[n - 1], Node::Leaf(_)),
                    "children of the split being undone must still be leaves"
                );
            }
            Node::Leaf(_) => panic!("node {leaf_id} is not a split node"),
        }
        self.nodes.truncate(n - 2);
        self.nodes[leaf_id as usize] = Node::Leaf(prior);
        self.num_leaves -= 1;
    }

    /// Replace the internal 1-Bucket grid of a (small) leaf.
    pub fn set_leaf_grid(&mut self, leaf_id: NodeId, grid: BucketGrid) {
        assert!(
            grid.rows >= 1 && grid.cols >= 1,
            "grid must be at least 1×1"
        );
        self.leaf_mut(leaf_id).grid = grid;
    }

    /// Assign consecutive partition ids to all leaf cells. Must be called after the tree
    /// structure is final and before routing tuples. Returns the total number of
    /// partitions.
    pub fn assign_partition_ids(&mut self) -> usize {
        let leaves = self.leaf_ids();
        let mut next: PartitionId = 0;
        for id in leaves {
            let leaf = self.leaf_mut(id);
            leaf.partition_base = next;
            next += leaf.grid.cells();
        }
        self.num_partitions = next as usize;
        self.num_partitions
    }

    /// Total number of partitions (valid after [`SplitTree::assign_partition_ids`]).
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Route an S-tuple through the tree, appending every partition id that must receive
    /// it (Algorithm 3 of the paper, S-side version).
    pub fn route_s(
        &self,
        key: &[f64],
        tuple_id: u64,
        band: &BandCondition,
        seed: u64,
        out: &mut Vec<PartitionId>,
    ) {
        debug_assert_eq!(key.len(), self.dims);
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match &self.nodes[id as usize] {
                Node::Leaf(leaf) => {
                    let grid = &leaf.grid;
                    let row = grid.s_row(stable_hash(seed ^ ((id as u64) << 32), tuple_id));
                    let base = leaf.partition_base + row * grid.cols;
                    for j in 0..grid.cols {
                        out.push(base + j);
                    }
                }
                Node::Inner(inner) => match inner.kind {
                    SplitKind::TSplit => {
                        // S is partitioned: follow the single child containing the key.
                        if key[inner.dim] < inner.value {
                            stack.push(inner.left);
                        } else {
                            stack.push(inner.right);
                        }
                    }
                    SplitKind::SSplit => {
                        // S is duplicated: follow every child whose region intersects the
                        // ε-range around s (the T-values s can join with).
                        let (lo, hi) = band.range_around_s(inner.dim, key[inner.dim]);
                        if lo < inner.value {
                            stack.push(inner.left);
                        }
                        if hi >= inner.value {
                            stack.push(inner.right);
                        }
                    }
                },
            }
        }
    }

    /// Route a T-tuple through the tree (Algorithm 3 of the paper, T-side version).
    pub fn route_t(
        &self,
        key: &[f64],
        tuple_id: u64,
        band: &BandCondition,
        seed: u64,
        out: &mut Vec<PartitionId>,
    ) {
        debug_assert_eq!(key.len(), self.dims);
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match &self.nodes[id as usize] {
                Node::Leaf(leaf) => {
                    let grid = &leaf.grid;
                    let col = grid.t_col(stable_hash(
                        seed ^ ((id as u64) << 32) ^ T_SIDE_SALT,
                        tuple_id,
                    ));
                    for i in 0..grid.rows {
                        out.push(leaf.partition_base + i * grid.cols + col);
                    }
                }
                Node::Inner(inner) => match inner.kind {
                    SplitKind::TSplit => {
                        // T is duplicated: every child whose region intersects the ε-range
                        // around t (the S-values t can join with).
                        let (lo, hi) = band.range_around_t(inner.dim, key[inner.dim]);
                        if lo < inner.value {
                            stack.push(inner.left);
                        }
                        if hi >= inner.value {
                            stack.push(inner.right);
                        }
                    }
                    SplitKind::SSplit => {
                        // T is partitioned.
                        if key[inner.dim] < inner.value {
                            stack.push(inner.left);
                        } else {
                            stack.push(inner.right);
                        }
                    }
                },
            }
        }
    }
}

/// A salt mixed into the hash for T-side routing so that S-row and T-column choices are
/// independent even for equal tuple ids. Shared with [`crate::router`], which bakes the
/// salted per-leaf seeds into its flat node arrays at compile time.
pub(crate) const T_SIDE_SALT: u64 = 0x9E37_79B9_0000_0001;

#[cfg(test)]
mod tests {
    use super::*;

    fn band1(eps: f64) -> BandCondition {
        BandCondition::symmetric(&[eps])
    }

    #[test]
    fn new_tree_is_single_leaf() {
        let tree = SplitTree::new(2);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.dims(), 2);
    }

    #[test]
    fn split_creates_two_leaves_with_disjoint_regions() {
        let mut tree = SplitTree::new(1);
        let (l, r) = tree.split_leaf(tree.root(), 0, 5.0, SplitKind::TSplit);
        assert_eq!(tree.num_leaves(), 2);
        assert_eq!(tree.depth(), 2);
        assert!(tree.leaf(l).region.contains(&[4.9]));
        assert!(!tree.leaf(l).region.contains(&[5.0]));
        assert!(tree.leaf(r).region.contains(&[5.0]));
    }

    #[test]
    fn undo_split_restores_the_exact_prior_tree() {
        let mut tree = SplitTree::new(1);
        let (l, _r) = tree.split_leaf(tree.root(), 0, 5.0, SplitKind::TSplit);
        tree.set_leaf_grid(l, BucketGrid { rows: 2, cols: 2 });
        let snapshot = tree.clone();

        // Split, then undo in LIFO order: the tree must be bit-identical again.
        let prior = tree.leaf(l).clone();
        tree.split_leaf(l, 0, 2.0, SplitKind::SSplit);
        assert_eq!(tree.num_leaves(), 3);
        tree.undo_split(l, prior);
        assert_eq!(tree, snapshot);
        assert_eq!(tree.num_leaves(), 2);

        // Two stacked splits revert in reverse order.
        let prior_l = tree.leaf(l).clone();
        let (ll, _lr) = tree.split_leaf(l, 0, 1.0, SplitKind::TSplit);
        let prior_ll = tree.leaf(ll).clone();
        tree.split_leaf(ll, 0, 0.5, SplitKind::TSplit);
        tree.undo_split(ll, prior_ll);
        tree.undo_split(l, prior_l);
        assert_eq!(tree, snapshot);
    }

    #[test]
    #[should_panic(expected = "LIFO order")]
    fn undo_split_rejects_out_of_order_reverts() {
        let mut tree = SplitTree::new(1);
        let prior_root = tree.leaf(tree.root()).clone();
        let (l, _r) = tree.split_leaf(tree.root(), 0, 5.0, SplitKind::TSplit);
        let _ = tree.split_leaf(l, 0, 2.0, SplitKind::TSplit);
        // The root's children are no longer the arena tail.
        tree.undo_split(tree.root(), prior_root);
    }

    #[test]
    fn partition_id_assignment_counts_grid_cells() {
        let mut tree = SplitTree::new(1);
        let (l, r) = tree.split_leaf(tree.root(), 0, 0.0, SplitKind::TSplit);
        tree.set_leaf_grid(l, BucketGrid { rows: 2, cols: 3 });
        tree.set_leaf_grid(r, BucketGrid { rows: 1, cols: 1 });
        let total = tree.assign_partition_ids();
        assert_eq!(total, 7);
        assert_eq!(tree.num_partitions(), 7);
        // The two leaves own disjoint consecutive ranges: l spans 6 ids, r spans 1,
        // in either assignment order.
        let lb = tree.leaf(l).partition_base;
        let rb = tree.leaf(r).partition_base;
        assert!(
            (lb == 0 && rb == 6) || (lb == 1 && rb == 0),
            "unexpected bases lb={lb} rb={rb}"
        );
    }

    #[test]
    fn t_split_routes_s_uniquely_and_duplicates_t_near_boundary() {
        let mut tree = SplitTree::new(1);
        tree.split_leaf(tree.root(), 0, 5.0, SplitKind::TSplit);
        tree.assign_partition_ids();
        let band = band1(1.0);
        let mut out = Vec::new();

        // S goes to exactly one side.
        tree.route_s(&[4.9], 0, &band, 7, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        tree.route_s(&[5.0], 0, &band, 7, &mut out);
        assert_eq!(out.len(), 1);

        // T within band width of the boundary goes to both sides.
        out.clear();
        tree.route_t(&[5.5], 0, &band, 7, &mut out);
        assert_eq!(out.len(), 2, "T at 5.5 is within 1.0 of split 5.0");
        out.clear();
        tree.route_t(&[6.5], 0, &band, 7, &mut out);
        assert_eq!(out.len(), 1, "T at 6.5 is not within 1.0 of split 5.0");
        out.clear();
        tree.route_t(&[3.9], 0, &band, 7, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn s_split_reverses_roles() {
        let mut tree = SplitTree::new(1);
        tree.split_leaf(tree.root(), 0, 5.0, SplitKind::SSplit);
        tree.assign_partition_ids();
        let band = band1(1.0);
        let mut out = Vec::new();

        // T goes to exactly one side.
        tree.route_t(&[4.5], 0, &band, 7, &mut out);
        assert_eq!(out.len(), 1);
        // S near the boundary is duplicated.
        out.clear();
        tree.route_s(&[5.5], 0, &band, 7, &mut out);
        assert_eq!(out.len(), 2);
        out.clear();
        tree.route_s(&[7.0], 0, &band, 7, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn exactly_one_partition_receives_each_matching_pair() {
        // Mixed T-split and S-split tree in 1-D; verify the exactly-once property
        // exhaustively on a grid of values.
        let mut tree = SplitTree::new(1);
        let (left, right) = tree.split_leaf(tree.root(), 0, 5.0, SplitKind::TSplit);
        tree.split_leaf(left, 0, 2.0, SplitKind::SSplit);
        tree.split_leaf(right, 0, 8.0, SplitKind::TSplit);
        tree.assign_partition_ids();
        let band = band1(0.75);

        let values: Vec<f64> = (0..200).map(|i| i as f64 * 0.05).collect();
        let mut s_parts = Vec::new();
        let mut t_parts = Vec::new();
        for (si, &sv) in values.iter().enumerate() {
            tree.route_s(&[sv], si as u64, &band, 3, &mut s_parts);
            for (ti, &tv) in values.iter().enumerate() {
                if !band.matches(&[sv], &[tv]) {
                    continue;
                }
                t_parts.clear();
                tree.route_t(&[tv], ti as u64, &band, 3, &mut t_parts);
                let common = s_parts.iter().filter(|p| t_parts.contains(p)).count();
                assert_eq!(
                    common, 1,
                    "pair ({sv}, {tv}) must meet in exactly one partition, found {common}"
                );
            }
            s_parts.clear();
        }
    }

    #[test]
    fn small_leaf_grid_routing_meets_exactly_once() {
        let mut tree = SplitTree::new(1);
        tree.set_leaf_grid(tree.root(), BucketGrid { rows: 3, cols: 4 });
        tree.assign_partition_ids();
        assert_eq!(tree.num_partitions(), 12);
        let band = band1(10.0);
        let mut s_parts = Vec::new();
        let mut t_parts = Vec::new();
        for sid in 0..50u64 {
            s_parts.clear();
            tree.route_s(&[1.0], sid, &band, 11, &mut s_parts);
            assert_eq!(s_parts.len(), 4, "S copied to all cells of its row");
            for tid in 0..50u64 {
                t_parts.clear();
                tree.route_t(&[1.5], tid, &band, 11, &mut t_parts);
                assert_eq!(t_parts.len(), 3, "T copied to all cells of its column");
                let common = s_parts.iter().filter(|p| t_parts.contains(p)).count();
                assert_eq!(common, 1);
            }
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let mut tree = SplitTree::new(2);
        let (l, _) = tree.split_leaf(tree.root(), 0, 0.0, SplitKind::TSplit);
        tree.set_leaf_grid(l, BucketGrid { rows: 2, cols: 2 });
        tree.assign_partition_ids();
        let band = BandCondition::symmetric(&[0.5, 0.5]);
        let mut a = Vec::new();
        let mut b = Vec::new();
        tree.route_s(&[-1.0, 3.0], 42, &band, 5, &mut a);
        tree.route_s(&[-1.0, 3.0], 42, &band, 5, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn maintained_leaf_count_matches_the_walk() {
        let mut tree = SplitTree::new(2);
        let (l, r) = tree.split_leaf(tree.root(), 0, 5.0, SplitKind::TSplit);
        tree.split_leaf(l, 1, 2.0, SplitKind::SSplit);
        tree.split_leaf(r, 0, 8.0, SplitKind::TSplit);
        assert_eq!(tree.num_leaves(), 4);
        assert_eq!(tree.num_leaves(), tree.leaf_ids().len());
    }

    #[test]
    #[should_panic(expected = "not a leaf")]
    fn splitting_inner_node_panics() {
        let mut tree = SplitTree::new(1);
        tree.split_leaf(tree.root(), 0, 0.0, SplitKind::TSplit);
        tree.split_leaf(tree.root(), 0, 1.0, SplitKind::TSplit);
    }
}
