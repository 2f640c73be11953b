//! The compiled split-tree router: RecPart's assignment `h : S ∪ T → 2^{1..P}`
//! (Definition 1, Algorithm 3) flattened into structure-of-arrays form for the
//! block-oriented map phase.
//!
//! [`SplitTree::route_s`]/[`SplitTree::route_t`] walk an arena of `enum Node`s,
//! match on the node and split kind, and consult the [`BandCondition`] for the
//! duplication shifts on every visit. That is fine per tuple but is pure overhead
//! when the map phase streams millions of tuples through the same frozen tree.
//! [`CompiledRouter::compile`] specializes the tree **per routing side** once:
//!
//! * per-node `dim` / `boundary` / `left` / `right` arrays (SoA, no enum matching);
//! * the band shifts of each side baked into per-node `sub`/`add` constants, so a
//!   duplicating node needs no `BandCondition` lookup — only
//!   `key − sub < boundary` / `key + add ≥ boundary`, the *exact* comparisons the
//!   tree walk performs (the shifts are applied to the key at routing time, never
//!   folded into the boundary, which would change IEEE rounding);
//! * per-leaf 1-Bucket grid shape, partition base, and the side's salted hash seed.
//!
//! A block of tuples then descends segment by segment (one [`simd`] split per
//! node a segment reaches, whatever the kernel), writing straight into an
//! [`AssignmentSink`](crate::partition::AssignmentSink). Routing is **bit-identical**
//! to the tree walk, which stays the reference the tests hold it to: same
//! partition ids in the same order for every tuple.

use crate::band::BandCondition;
use crate::partition::{AssignmentSink, PartitionId};
use crate::relation::Relation;
use crate::simd::{self, RouteKernel};
use crate::small::stable_hash;
use crate::split_tree::{Node, SplitKind, SplitTree, T_SIDE_SALT};
use std::ops::Range;

/// Node flag: the node is a leaf (the `leaf_*` arrays are meaningful).
const FLAG_LEAF: u8 = 1;
/// Node flag: the side this table was compiled for is *duplicated* at this node
/// (descend into every child whose region intersects the tuple's band range).
const FLAG_DUP: u8 = 2;

/// One routing side's flattened node table (S and T descend the same tree shape but
/// with different duplication roles, shifts, and leaf hash seeds).
#[derive(Debug, Clone, PartialEq)]
struct SideTable {
    /// Per-node flags ([`FLAG_LEAF`], [`FLAG_DUP`]).
    flags: Vec<u8>,
    /// Split dimension of inner nodes (0 for leaves).
    dims: Vec<u32>,
    /// Split boundary of inner nodes (`A_dim < boundary` goes left; 0.0 for leaves).
    boundaries: Vec<f64>,
    /// Left child of inner nodes (0 for leaves).
    lefts: Vec<u32>,
    /// Right child of inner nodes (0 for leaves).
    rights: Vec<u32>,
    /// Band shift subtracted for the left test of duplicating nodes (0.0 otherwise).
    subs: Vec<f64>,
    /// Band shift added for the right test of duplicating nodes (0.0 otherwise).
    adds: Vec<f64>,
    /// First partition id of the leaf's 1-Bucket grid (0 for inner nodes).
    leaf_base: Vec<u32>,
    /// Number of grid cells this side's tuple is copied to at the leaf (`cols` for
    /// S-tuples, `rows` for T-tuples; 1 for regular leaves, 0 for inner nodes).
    leaf_copies: Vec<u32>,
    /// Stride between consecutive copies (`1` for S — a row is contiguous — and
    /// `cols` for T, which walks a column; 0 for inner nodes).
    leaf_stride: Vec<u32>,
    /// Number of grid choices the hash picks from (`rows` for S, `cols` for T).
    leaf_choices: Vec<u32>,
    /// Id multiplier of the hashed choice (`cols` for S — a row selects `row·cols` —
    /// and `1` for T).
    leaf_choice_stride: Vec<u32>,
    /// This side's salted per-leaf hash seed (`seed ^ (id << 32)` [`^ T_SIDE_SALT`]).
    leaf_seeds: Vec<u64>,
}

/// FNV-1a offset basis (64-bit).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold one 64-bit word into an FNV-1a digest, byte by byte (little-endian).
#[inline]
pub(crate) fn fnv1a_word(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    h
}

impl SideTable {
    /// Fold every array (length-prefixed, floats by IEEE bit pattern) into the
    /// digest, so two side tables collide only if they are structurally equal.
    fn fold_signature(&self, mut h: u64) -> u64 {
        h = fnv1a_word(h, self.flags.len() as u64);
        for &f in &self.flags {
            h = fnv1a_word(h, u64::from(f));
        }
        for arr in [&self.dims, &self.lefts, &self.rights] {
            for &v in arr.iter() {
                h = fnv1a_word(h, u64::from(v));
            }
        }
        for arr in [&self.boundaries, &self.subs, &self.adds] {
            for &v in arr.iter() {
                h = fnv1a_word(h, v.to_bits());
            }
        }
        for arr in [
            &self.leaf_base,
            &self.leaf_copies,
            &self.leaf_stride,
            &self.leaf_choices,
            &self.leaf_choice_stride,
        ] {
            for &v in arr.iter() {
                h = fnv1a_word(h, u64::from(v));
            }
        }
        for &v in &self.leaf_seeds {
            h = fnv1a_word(h, v);
        }
        h
    }

    fn with_capacity(n: usize) -> Self {
        SideTable {
            flags: vec![0; n],
            dims: vec![0; n],
            boundaries: vec![0.0; n],
            lefts: vec![0; n],
            rights: vec![0; n],
            subs: vec![0.0; n],
            adds: vec![0.0; n],
            leaf_base: vec![0; n],
            leaf_copies: vec![0; n],
            leaf_stride: vec![0; n],
            leaf_choices: vec![0; n],
            leaf_choice_stride: vec![0; n],
            leaf_seeds: vec![0; n],
        }
    }

    /// Batch descent: route a whole block of tuples through the table at once,
    /// leveling the tree one *segment* at a time instead of one tuple at a time,
    /// and append the `(partition, tuple)` pairs to `sink`.
    ///
    /// The tree walk ([`SplitTree::route_s`]) takes one tuple down the tree; this
    /// takes the tree down the tuples. A segment is the list of block positions
    /// that reached a node; an inner node splits it with one [`simd`] kernel
    /// call over the node's *column* (the columnar [`Relation`] makes that a
    /// contiguous gather), a leaf turns its segment into `(position, partition)`
    /// pairs. Segments keep their positions in block order (the kernels are
    /// stable partitions), and the pair stream is finally transposed back to
    /// per-tuple order with a stable counting sort, so the emitted stream is
    /// **bit-identical** to the tree walk run tuple by tuple:
    ///
    /// * tuples ascend in block order (the counting sort groups by position);
    /// * within one tuple, pairs appear in DFS order with the right subtree of
    ///   a duplicating node first — the segment stack pushes left before right,
    ///   so LIFO pops mirror the tree walk's stack exactly, and the counting
    ///   sort's stability preserves that order within each position.
    ///
    /// Node fields are read with plain (checked) indexing: the cost is per
    /// *segment*, not per tuple. Column reads inside the kernels are unchecked;
    /// soundness comes from the `rows` bound assert below plus segments only
    /// ever containing positions from `rows`. The working buffers are locals of
    /// the call: the shuffle routes 64k-tuple chunks, so their allocation is
    /// paid once per chunk, and nothing outlives the block.
    fn descend_block(
        &self,
        root: u32,
        rel: &Relation,
        rows: Range<usize>,
        kernel: RouteKernel,
        sink: &mut AssignmentSink,
    ) {
        assert!(rows.end <= rel.len(), "block rows out of range");
        if rows.is_empty() {
            return;
        }
        let base = rows.start as u32;
        let n_rows = rows.len();

        // Retired segment buffers, reused for the children of later nodes.
        let mut pool: Vec<Vec<u32>> = Vec::new();
        let mut stack: Vec<(u32, Vec<u32>)> = vec![(root, rows.map(|i| i as u32).collect())];
        let mut pairs: Vec<(u32, PartitionId)> = Vec::with_capacity(n_rows);

        while let Some((n, seg)) = stack.pop() {
            let n = n as usize;
            if self.flags[n] & FLAG_LEAF != 0 {
                let copies = self.leaf_copies[n];
                let choices = self.leaf_choices[n];
                let leaf_base = self.leaf_base[n];
                let stride = self.leaf_stride[n];
                if choices == 1 {
                    for &pos in &seg {
                        for c in 0..copies {
                            pairs.push((pos, leaf_base + c * stride));
                        }
                    }
                } else {
                    let seed = self.leaf_seeds[n];
                    let choice_stride = self.leaf_choice_stride[n];
                    for &pos in &seg {
                        let first = leaf_base
                            + (stable_hash(seed, pos as u64) % choices as u64) as u32
                                * choice_stride;
                        for c in 0..copies {
                            pairs.push((pos, first + c * stride));
                        }
                    }
                }
                pool.push(seg);
            } else {
                let col = rel.column(self.dims[n] as usize);
                let boundary = self.boundaries[n];
                let mut left = pool.pop().unwrap_or_default();
                let mut right = pool.pop().unwrap_or_default();
                if self.flags[n] & FLAG_DUP != 0 {
                    let split = simd::DupSplit {
                        boundary,
                        sub: self.subs[n],
                        add: self.adds[n],
                    };
                    simd::partition_dup(kernel, col, &seg, split, &mut left, &mut right);
                } else {
                    simd::partition_single(kernel, col, &seg, boundary, &mut left, &mut right);
                }
                pool.push(seg);
                // Left pushed before right: the LIFO pop visits the right
                // subtree first, matching the tree walk's emission order.
                for (child, child_seg) in [(self.lefts[n], left), (self.rights[n], right)] {
                    if child_seg.is_empty() {
                        pool.push(child_seg);
                    } else {
                        stack.push((child, child_seg));
                    }
                }
            }
        }

        // Stable counting-sort transpose: group the pair stream by position
        // (ascending), preserving emission order within each position.
        let mut counts = vec![0u32; n_rows];
        for &(pos, _) in &pairs {
            counts[(pos - base) as usize] += 1;
        }
        let mut offset = 0u32;
        for slot in counts.iter_mut() {
            let count = *slot;
            *slot = offset;
            offset += count;
        }
        let mut sorted = vec![(0u32, 0 as PartitionId); pairs.len()];
        for &(pos, part) in &pairs {
            let slot = &mut counts[(pos - base) as usize];
            sorted[*slot as usize] = (pos, part);
            *slot += 1;
        }
        for &(pos, part) in &sorted {
            sink.push(part, pos);
        }
    }
}

/// A [`SplitTree`] compiled into flat per-side routing tables (see the module docs).
///
/// Compile once after the tree is frozen ([`SplitTree::assign_partition_ids`] must
/// have run); route blocks forever. The router is immutable and `Send + Sync`, so
/// the executor's parallel map phase shares one instance across all threads.
/// Every router is validated when it is compiled, before it can route.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRouter {
    s_side: SideTable,
    t_side: SideTable,
    root: u32,
    /// Depth of the compiled tree. No descent reads it; it is folded into
    /// [`CompiledRouter::signature`], which plan caches key on.
    depth: u32,
    num_partitions: u32,
}

impl CompiledRouter {
    /// Compile `tree` for the given band condition and routing seed.
    ///
    /// # Panics
    /// Panics if the tree's partition ids were not assigned yet (a zero-partition
    /// tree cannot route anything).
    pub fn compile(tree: &SplitTree, band: &BandCondition, seed: u64) -> CompiledRouter {
        assert!(
            tree.num_partitions() > 0,
            "assign_partition_ids must run before compiling a router"
        );
        let n = tree.num_nodes();
        let mut s_side = SideTable::with_capacity(n);
        let mut t_side = SideTable::with_capacity(n);
        for id in 0..n {
            match tree.node(id as u32) {
                Node::Inner(inner) => {
                    for side in [&mut s_side, &mut t_side] {
                        side.dims[id] = inner.dim as u32;
                        side.boundaries[id] = inner.value;
                        side.lefts[id] = inner.left;
                        side.rights[id] = inner.right;
                    }
                    // Which side is duplicated, and with which band shifts, is
                    // fixed per node: bake it. `range_around_t` is
                    // `(t − ε_lo, t + ε_hi)`, `range_around_s` is
                    // `(s − ε_hi, s + ε_lo)`.
                    let (dup, sub, add) = match inner.kind {
                        SplitKind::TSplit => (
                            &mut t_side,
                            band.eps_low(inner.dim),
                            band.eps_high(inner.dim),
                        ),
                        SplitKind::SSplit => (
                            &mut s_side,
                            band.eps_high(inner.dim),
                            band.eps_low(inner.dim),
                        ),
                    };
                    dup.flags[id] = FLAG_DUP;
                    dup.subs[id] = sub;
                    dup.adds[id] = add;
                }
                Node::Leaf(leaf) => {
                    let grid = leaf.grid;
                    let leaf_seed = seed ^ ((id as u64) << 32);
                    // S picks a row (of `rows` choices, stride `cols` per row) and
                    // is copied to the row's `cols` contiguous cells.
                    s_side.flags[id] = FLAG_LEAF;
                    s_side.leaf_base[id] = leaf.partition_base;
                    s_side.leaf_copies[id] = grid.cols;
                    s_side.leaf_stride[id] = 1;
                    s_side.leaf_choices[id] = grid.rows;
                    s_side.leaf_choice_stride[id] = grid.cols;
                    s_side.leaf_seeds[id] = leaf_seed;
                    // T picks a column and is copied down it, one cell per row.
                    t_side.flags[id] = FLAG_LEAF;
                    t_side.leaf_base[id] = leaf.partition_base;
                    t_side.leaf_copies[id] = grid.rows;
                    t_side.leaf_stride[id] = grid.cols;
                    t_side.leaf_choices[id] = grid.cols;
                    t_side.leaf_choice_stride[id] = 1;
                    t_side.leaf_seeds[id] = leaf_seed ^ T_SIDE_SALT;
                }
            }
        }
        let router = CompiledRouter {
            s_side,
            t_side,
            root: tree.root(),
            depth: tree.depth() as u32,
            num_partitions: tree.num_partitions() as u32,
        };
        // A `SplitTree` is public and buildable by hand: a corrupt one must fail
        // here, not as a `% 0` or an out-of-range partition id mid-shuffle.
        router
            .validate()
            .expect("split tree carries out-of-range node references");
        router
    }

    /// Check the structural invariants the descent relies on: all per-node
    /// arrays of both sides share one length, the root and every inner node's
    /// child ids index into them, and every leaf's grid reaches only ids below
    /// the partition count. The descent reads with checked indexing, so a
    /// violation would still be caught — but mid-shuffle, as a panic, a `% 0`
    /// or a partition id past the arena; this turns it into a compile-time
    /// error. Runs once per compile — never on the routing path.
    fn validate(&self) -> Result<(), String> {
        for (label, side) in [("S", &self.s_side), ("T", &self.t_side)] {
            let n = side.flags.len();
            let lens = [
                side.dims.len(),
                side.boundaries.len(),
                side.lefts.len(),
                side.rights.len(),
                side.subs.len(),
                side.adds.len(),
                side.leaf_base.len(),
                side.leaf_copies.len(),
                side.leaf_stride.len(),
                side.leaf_choices.len(),
                side.leaf_choice_stride.len(),
                side.leaf_seeds.len(),
            ];
            if lens.iter().any(|&l| l != n) {
                return Err(format!(
                    "{label}-side node arrays have inconsistent lengths"
                ));
            }
            if self.root as usize >= n {
                return Err(format!(
                    "root node {} out of range for {n} nodes",
                    self.root
                ));
            }
            for i in 0..n {
                if side.flags[i] & FLAG_LEAF == 0 {
                    if side.lefts[i] as usize >= n || side.rights[i] as usize >= n {
                        return Err(format!("{label}-side node {i} has an out-of-range child"));
                    }
                } else {
                    // Leaf payloads feed the descent's arithmetic:
                    // `choices == 0` would divide by zero in the grid hash, and an
                    // oversized base/stride/copies would emit partition ids
                    // `>= num_partitions`, corrupting the CSR arena scatter
                    // downstream. Compute the maximum reachable id in u64 so the
                    // check itself cannot overflow.
                    let (copies, choices) = (side.leaf_copies[i], side.leaf_choices[i]);
                    if choices == 0 || copies == 0 {
                        return Err(format!(
                            "{label}-side leaf {i} has a zero grid extent \
                             (copies={copies}, choices={choices})"
                        ));
                    }
                    let max_id = side.leaf_base[i] as u64
                        + (choices as u64 - 1) * side.leaf_choice_stride[i] as u64
                        + (copies as u64 - 1) * side.leaf_stride[i] as u64;
                    if max_id >= self.num_partitions as u64 {
                        return Err(format!(
                            "{label}-side leaf {i} can reach partition {max_id}, but the \
                             router has only {} partitions",
                            self.num_partitions
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of partitions the compiled tree routes into.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions as usize
    }

    /// A 64-bit FNV-1a digest over everything that determines this router's
    /// assignment — both side tables (baked band shifts, leaf grids, salted
    /// hash seeds included), the root, the depth, and the partition count.
    /// Two routers with equal content produce equal signatures, so a plan
    /// cache can key on the signature instead of deep-comparing node tables.
    pub fn signature(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv1a_word(h, u64::from(self.root));
        h = fnv1a_word(h, u64::from(self.depth));
        h = fnv1a_word(h, u64::from(self.num_partitions));
        h = self.s_side.fold_signature(h);
        self.t_side.fold_signature(h)
    }

    /// Route the S-tuples `rows` of `rel` into `sink` (bit-identical ids and order
    /// to [`SplitTree::route_s`] per tuple, tuples in ascending index order),
    /// using the process-wide routing kernel ([`RouteKernel::active`]).
    pub(crate) fn route_s_block(
        &self,
        rel: &Relation,
        rows: Range<usize>,
        sink: &mut AssignmentSink,
    ) {
        self.route_s_block_with(RouteKernel::active(), rel, rows, sink);
    }

    /// Route the T-tuples `rows` of `rel` into `sink`.
    pub(crate) fn route_t_block(
        &self,
        rel: &Relation,
        rows: Range<usize>,
        sink: &mut AssignmentSink,
    ) {
        self.route_t_block_with(RouteKernel::active(), rel, rows, sink);
    }

    /// Route the S-tuples `rows` of `rel` into `sink` with an explicit kernel (the
    /// partitioner routes with [`RouteKernel::active`]). Every kernel runs the same segment descent and differs only in
    /// the primitive that splits a segment at a node, so every kernel emits the
    /// same stream (tests hold each to the [`SplitTree`] walk).
    pub fn route_s_block_with(
        &self,
        kernel: RouteKernel,
        rel: &Relation,
        rows: Range<usize>,
        sink: &mut AssignmentSink,
    ) {
        self.s_side
            .descend_block(self.root, rel, rows, kernel, sink);
    }

    /// Route the T-tuples `rows` of `rel` into `sink` with an explicit kernel.
    pub fn route_t_block_with(
        &self,
        kernel: RouteKernel,
        rel: &Relation,
        rows: Range<usize>,
        sink: &mut AssignmentSink,
    ) {
        self.t_side
            .descend_block(self.root, rel, rows, kernel, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::small::BucketGrid;

    /// A mixed tree: T-splits, an S-split, and a gridded small leaf.
    fn mixed_tree() -> (SplitTree, BandCondition) {
        let mut tree = SplitTree::new(1);
        let (left, right) = tree.split_leaf(tree.root(), 0, 5.0, SplitKind::TSplit);
        tree.split_leaf(left, 0, 2.0, SplitKind::SSplit);
        let (rl, _) = tree.split_leaf(right, 0, 8.0, SplitKind::TSplit);
        tree.set_leaf_grid(rl, BucketGrid { rows: 2, cols: 3 });
        tree.assign_partition_ids();
        (tree, BandCondition::symmetric(&[0.75]))
    }

    /// `keys` followed by [`mixed_tree`]'s tie grid: quarter steps over
    /// `[−1, 10.75]` land exactly on every boundary and every boundary ± ε,
    /// where a duplicating node's `<` and `>=` part ways.
    fn with_mixed_tree_ties(keys: impl Iterator<Item = f64>) -> Relation {
        let ties = (0..48).map(|i| i as f64 * 0.25 - 1.0);
        Relation::from_values_1d(&keys.chain(ties).collect::<Vec<_>>())
    }

    /// The tree walk's `(partition, tuple)` stream over every row of `rel`, row
    /// index as tuple id: the reference every kernel's block routing is held to.
    fn tree_pairs(
        tree: &SplitTree,
        band: &BandCondition,
        seed: u64,
        rel: &Relation,
        t_side: bool,
    ) -> Vec<(PartitionId, u32)> {
        let mut expected = Vec::new();
        let mut buf = Vec::new();
        for i in 0..rel.len() {
            buf.clear();
            if t_side {
                tree.route_t(&rel.key(i), i as u64, band, seed, &mut buf);
            } else {
                tree.route_s(&rel.key(i), i as u64, band, seed, &mut buf);
            }
            expected.extend(buf.iter().map(|&p| (p, i as u32)));
        }
        expected
    }

    /// The router's stream over `rel`, routed with `kernel` block by block.
    fn block_pairs(
        router: &CompiledRouter,
        kernel: RouteKernel,
        rel: &Relation,
        blocks: &[Range<usize>],
        t_side: bool,
    ) -> Vec<(PartitionId, u32)> {
        let mut sink = AssignmentSink::new(router.num_partitions());
        for rows in blocks {
            if t_side {
                router.route_t_block_with(kernel, rel, rows.clone(), &mut sink);
            } else {
                router.route_s_block_with(kernel, rel, rows.clone(), &mut sink);
            }
        }
        sink.pairs().to_vec()
    }

    /// One block per row: the tuple-at-a-time chunking.
    fn single_rows(n: usize) -> Vec<Range<usize>> {
        (0..n).map(|i| i..i + 1).collect()
    }

    /// Every kernel, on both sides, must emit the tree walk's stream for the
    /// rows of `rel`, whether they are routed as one block or as `blocks`.
    fn assert_kernels_match_tree(
        tree: &SplitTree,
        band: &BandCondition,
        seed: u64,
        rel: &Relation,
        blocks: &[Range<usize>],
    ) {
        let router = CompiledRouter::compile(tree, band, seed);
        assert_eq!(router.num_partitions(), tree.num_partitions());
        let whole = 0..rel.len();
        for t_side in [false, true] {
            let expected = tree_pairs(tree, band, seed, rel, t_side);
            for kernel in RouteKernel::all_supported() {
                for chunking in [std::slice::from_ref(&whole), blocks] {
                    assert_eq!(
                        block_pairs(&router, kernel, rel, chunking, t_side),
                        expected,
                        "kernel {} diverged from the tree walk \
                         (t_side={t_side}, {} blocks)",
                        kernel.name(),
                        chunking.len()
                    );
                }
            }
        }
    }

    #[test]
    fn router_is_bit_identical_to_tree_walk() {
        let (tree, band) = mixed_tree();
        let rel = with_mixed_tree_ties((0..400).map(|i| i as f64 * 0.03));
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            assert_kernels_match_tree(&tree, &band, seed, &rel, &single_rows(rel.len()));
        }
    }

    #[test]
    fn router_matches_on_asymmetric_bands() {
        let mut tree = SplitTree::new(2);
        let (l, _) = tree.split_leaf(tree.root(), 0, 1.0, SplitKind::TSplit);
        tree.split_leaf(l, 1, -0.5, SplitKind::SSplit);
        tree.assign_partition_ids();
        let band = BandCondition::try_asymmetric(&[0.2, 1.5], &[0.9, 0.1]).unwrap();
        let mut rel = Relation::new(2);
        for i in 0..300 {
            rel.push(&[(i as f64) * 0.017 - 2.0, (i as f64) * -0.013 + 1.0]);
        }
        assert_kernels_match_tree(&tree, &band, 11, &rel, &single_rows(300));
    }

    #[test]
    fn block_routing_matches_per_tuple_routing() {
        // A whole block and a split block must both reproduce the tree walk's
        // per-tuple stream, through the active kernel's public entry point too.
        let (tree, band) = mixed_tree();
        let rel = with_mixed_tree_ties((0..257).map(|i| i as f64 * 0.041));
        assert_kernels_match_tree(&tree, &band, 3, &rel, &[0..100, 100..rel.len()]);
        let router = CompiledRouter::compile(&tree, &band, 3);
        let expected = tree_pairs(&tree, &band, 3, &rel, false);
        let mut split = AssignmentSink::new(router.num_partitions());
        router.route_s_block(&rel, 0..100, &mut split);
        router.route_s_block(&rel, 100..rel.len(), &mut split);
        assert_eq!(split.pairs(), &expected[..]);
    }

    #[test]
    fn every_kernel_matches_the_tree_walk_on_gridded_trees() {
        // The mixed tree has duplicating splits on both sides and a 2×3 gridded
        // leaf, so this exercises the hashed-choice leaf emission and both
        // partition primitives of every supported kernel. Split at an odd
        // offset so segments hit both the vector body and the tail lanes.
        let (tree, band) = mixed_tree();
        let rel = with_mixed_tree_ties((0..533).map(|i| i as f64 * 0.023 - 1.0));
        assert_kernels_match_tree(&tree, &band, 21, &rel, &[0..311, 311..rel.len()]);
    }

    #[test]
    fn validate_rejects_out_of_range_references() {
        let (tree, band) = mixed_tree();
        let good = CompiledRouter::compile(&tree, &band, 1);
        assert!(good.validate().is_ok());

        // An inner node pointing past the arena must be rejected.
        let mut bad_child = good.clone();
        for (i, &f) in bad_child.s_side.flags.iter().enumerate() {
            if f & FLAG_LEAF == 0 {
                bad_child.s_side.lefts[i] = 10_000;
                break;
            }
        }
        assert!(bad_child.validate().is_err());

        // A root outside the arena must be rejected.
        let mut bad_root = good.clone();
        bad_root.root = 10_000;
        assert!(bad_root.validate().is_err());

        // Mismatched array lengths must be rejected.
        let mut bad_len = good;
        bad_len.t_side.boundaries.pop();
        assert!(bad_len.validate().is_err());
    }

    /// Regression test: leaf payloads feed the descent's arithmetic, so
    /// `validate` must reject them too — pre-fix it only checked child pointers,
    /// letting a corrupted router reach a `% 0` (choices) or emit partition ids
    /// `>= num_partitions` (oversized base/stride/copies) mid-shuffle.
    #[test]
    fn validate_rejects_corrupt_leaf_payloads() {
        let (tree, band) = mixed_tree();
        let good = CompiledRouter::compile(&tree, &band, 9);
        let leaf = (0..good.s_side.flags.len())
            .find(|&i| good.s_side.flags[i] & FLAG_LEAF != 0)
            .expect("tree has leaves");

        // `choices == 0` divides by zero in the grid hash.
        let mut zero_choices = good.clone();
        zero_choices.s_side.leaf_choices[leaf] = 0;
        assert!(zero_choices.validate().is_err());

        // `copies == 0` means a leaf that silently drops tuples.
        let mut zero_copies = good.clone();
        zero_copies.t_side.leaf_copies[leaf] = 0;
        assert!(zero_copies.validate().is_err());

        // An oversized base emits ids past the partition range.
        let mut big_base = good.clone();
        big_base.s_side.leaf_base[leaf] = good.num_partitions;
        assert!(big_base.validate().is_err());

        // An oversized stride also escapes the range — and `u32` arithmetic in the
        // check itself must not wrap around back into range. Use the gridded leaf
        // (T copies > 1), where the stride actually multiplies.
        let gridded = (0..good.t_side.flags.len())
            .find(|&i| good.t_side.flags[i] & FLAG_LEAF != 0 && good.t_side.leaf_copies[i] > 1)
            .expect("tree has a gridded leaf");
        let mut big_stride = good.clone();
        big_stride.t_side.leaf_stride[gridded] = u32::MAX;
        assert!(big_stride.validate().is_err());
    }

    #[test]
    fn deep_duplicating_comb_routes_to_every_leaf() {
        // A left-leaning comb of duplicating T-splits: every level pushes both
        // children, the deepest segment stack a 41-leaf tree can build.
        let mut tree = SplitTree::new(1);
        let mut leaf = tree.root();
        for depth in 0..40 {
            let (l, _) = tree.split_leaf(leaf, 0, -(depth as f64), SplitKind::TSplit);
            leaf = l;
        }
        tree.assign_partition_ids();
        let band = BandCondition::symmetric(&[1000.0]); // every split duplicates T
        let router = CompiledRouter::compile(&tree, &band, 5);
        let rel = Relation::from_values_1d(&[-20.0]);
        let expected = tree_pairs(&tree, &band, 5, &rel, true);
        assert_eq!(expected.len(), 41, "T duplicated to every leaf");
        for kernel in RouteKernel::all_supported() {
            assert_eq!(
                block_pairs(&router, kernel, &rel, &single_rows(1), true),
                expected
            );
        }
    }
}
