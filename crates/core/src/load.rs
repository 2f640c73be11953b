//! Worker-load model and lower bounds.
//!
//! Following Section 2 of the paper, the load of worker `w_i` is the weighted sum
//! `L_i = β₂·I_i + β₃·O_i` of the input `I_i` and output `O_i` assigned to it, and the
//! *max worker load* is `L_m = max_i L_i`. The paper's end-to-end running-time model is
//! the piecewise-linear `M(I, I_m, O_m) = β₀ + β₁·I + β₂·I_m + β₃·O_m` (the full model
//! lives in the `distsim` crate; this module only carries the load weights that the
//! optimizer needs).

/// Weights describing how input and output tuples contribute to a worker's load.
///
/// In the paper's Amazon EC2 profiling, `β₂/β₃ ≈ 4`, i.e. each input tuple costs about
/// four times as much as an output tuple; those are the defaults here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadModel {
    /// Weight of one input tuple on a worker (`β₂`).
    pub beta_input: f64,
    /// Weight of one output tuple on a worker (`β₃`).
    pub beta_output: f64,
}

impl Default for LoadModel {
    fn default() -> Self {
        LoadModel {
            beta_input: 4.0,
            beta_output: 1.0,
        }
    }
}

impl LoadModel {
    /// Create a load model from explicit weights.
    ///
    /// # Panics
    /// Panics if either weight is negative or not finite.
    pub fn new(beta_input: f64, beta_output: f64) -> Self {
        assert!(
            beta_input.is_finite() && beta_input >= 0.0,
            "beta_input must be finite and non-negative"
        );
        assert!(
            beta_output.is_finite() && beta_output >= 0.0,
            "beta_output must be finite and non-negative"
        );
        LoadModel {
            beta_input,
            beta_output,
        }
    }

    /// The load `β₂·input + β₃·output` of a worker (or partition).
    #[inline]
    pub fn load(&self, input: f64, output: f64) -> f64 {
        self.beta_input * input + self.beta_output * output
    }

    /// Lower bound `L₀ = (β₂(|S|+|T|) + β₃|S ⋈ T|) / w` on the max worker load
    /// (Lemma 1 of the paper).
    pub(crate) fn max_load_lower_bound(
        &self,
        s_len: usize,
        t_len: usize,
        output: usize,
        workers: usize,
    ) -> f64 {
        assert!(workers > 0, "need at least one worker");
        self.load((s_len + t_len) as f64, output as f64) / workers as f64
    }
}

/// Tournament tree over worker loads for longest-processing-time-first mappings:
/// [`LeastLoaded::least`] is the lowest-loaded worker, lowest index among equal
/// loads — exactly the worker a first-minimum linear scan (`Iterator::min_by` over
/// worker indices) selects — and [`LeastLoaded::set`] replays one worker's
/// `⌈log₂ w⌉` ancestors instead of a scan's `w` comparisons.
///
/// The tree has `next_power_of_two(w)` leaves, the padding ones at `+inf`, in heap
/// layout (root at node 1, leaf `i` at node `leaves + i`). Every node stores the
/// first-minimum worker of its subtree and that worker's load: the left
/// (lower-index) child wins ties, so by induction the root is the first minimum of
/// the whole array.
///
/// Loads are compared by their bit patterns, which order non-negative `f64`s
/// (`+inf` included) exactly as their values do, so each level is an integer
/// compare and two conditional moves.
///
/// Shared by the optimizer's post-split evaluation (estimated cell loads) and the
/// executor's partition→worker mapping (measured loads). Both callers accumulate
/// their own worker state and set the updated load, so the tree never decides
/// arithmetic — it only replicates the scan's selection bit for bit.
#[derive(Debug, Clone, Default)]
pub struct LeastLoaded {
    /// `nodes[n] = (load bits, worker)` of the first minimum under node `n`;
    /// `nodes[0]` is unused.
    nodes: Vec<(u64, u32)>,
}

impl LeastLoaded {
    /// A tree over `workers` workers, each starting at `initial_load`.
    pub fn new(workers: usize, initial_load: f64) -> Self {
        let mut tree = LeastLoaded::default();
        tree.reset(workers, initial_load);
        tree
    }

    /// Refill with `workers` workers at `initial_load`, reusing the allocation (the
    /// optimizer evaluates after every split).
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn reset(&mut self, workers: usize, initial_load: f64) {
        assert!(workers > 0, "need at least one worker");
        let leaves = workers.next_power_of_two();
        let (key, padding) = (load_key(initial_load), f64::INFINITY.to_bits());
        self.nodes.clear();
        self.nodes.resize(leaves, (0, 0));
        self.nodes.extend(
            (0..leaves).map(|leaf| (if leaf < workers { key } else { padding }, leaf as u32)),
        );
        for node in (1..leaves).rev() {
            let (left, right) = (self.nodes[2 * node], self.nodes[2 * node + 1]);
            self.nodes[node] = if right.0 < left.0 { right } else { left };
        }
    }

    /// The least-loaded worker (lowest index among equal loads).
    #[inline]
    pub fn least(&self) -> usize {
        self.nodes[1].1 as usize
    }

    /// Set `worker`'s load and replay its ancestors, each a branch-free select
    /// against the sibling's winner; the path's winner and its load stay in
    /// registers.
    #[inline]
    pub fn set(&mut self, worker: usize, load: f64) {
        let mut node = self.nodes.len() / 2 + worker;
        let mut best = (load_key(load), worker as u32);
        self.nodes[node] = best;
        while node > 1 {
            let other = self.nodes[node ^ 1];
            // The left child wins ties: at a right child (odd node) the left
            // sibling takes over on `other ≤ best`, i.e. `other < best + 1`.
            let take_other = other.0 < best.0 + (node & 1) as u64;
            best = std::hint::select_unpredictable(take_other, other, best);
            node >>= 1;
            self.nodes[node] = best;
        }
    }
}

/// The tree's comparison key of a load. Loads are finite and non-negative —
/// `LoadModel::new` rejects non-finite weights — and on those the bit patterns sort
/// like the values once `-0.0` is mapped to `+0.0`, which `abs` does.
#[inline]
fn load_key(load: f64) -> u64 {
    debug_assert!(load.is_finite() && load >= 0.0, "load {load}");
    load.abs().to_bits()
}

/// Lower bound on the total input `I` of any correct partitioning: every input tuple must
/// be examined by at least one worker, so `I ≥ |S| + |T|` (Lemma 1).
#[inline]
pub(crate) fn total_input_lower_bound(s_len: usize, t_len: usize) -> usize {
    s_len + t_len
}

/// Relative overhead of a measured value over its lower bound: `(value − bound) / bound`.
///
/// Returns 0 when both are 0, and `f64::INFINITY` when the bound is 0 but the value is
/// positive.
#[inline]
pub(crate) fn relative_overhead(value: f64, lower_bound: f64) -> f64 {
    if lower_bound == 0.0 {
        if value <= 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (value - lower_bound) / lower_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_ratio() {
        let m = LoadModel::default();
        assert_eq!(m.beta_input / m.beta_output, 4.0);
        assert_eq!(m.load(10.0, 8.0), 48.0);
    }

    #[test]
    fn lower_bounds() {
        let m = LoadModel::new(4.0, 1.0);
        // 30 workers, |S|+|T| = 400, output 1120 → L0 = (4·400 + 1120)/30
        let l0 = m.max_load_lower_bound(200, 200, 1120, 30);
        assert!((l0 - (4.0 * 400.0 + 1120.0) / 30.0).abs() < 1e-12);
        assert_eq!(total_input_lower_bound(200, 200), 400);
    }

    #[test]
    fn relative_overhead_basic() {
        assert!((relative_overhead(11.0, 10.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_overhead(0.0, 0.0), 0.0);
        assert_eq!(relative_overhead(5.0, 0.0), f64::INFINITY);
        assert!(relative_overhead(9.0, 10.0) < 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = LoadModel::new(-1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let m = LoadModel::default();
        let _ = m.max_load_lower_bound(1, 1, 0, 0);
    }

    /// The tree must replicate a first-minimum linear scan for any load sequence:
    /// run a greedy LPT over item loads with both and compare every selection, at
    /// power-of-two sizes and at the sizes where the `+inf` padding matters. The
    /// items repeat a few small integers and zeros, so exact ties are the rule.
    #[test]
    fn least_loaded_matches_first_minimum_scan() {
        for workers in [1usize, 2, 7, 30, 32, 33, 90] {
            for (shape, items) in [
                (0..600)
                    .map(|i| f64::from((i * 37 % 11) as u32))
                    .collect::<Vec<_>>(),
                (0..600).map(|i| f64::from((i % 3 == 0) as u32)).collect(),
                (0..600)
                    .map(|i| f64::from((i * 7919 % 5) as u32) * 0.25)
                    .collect(),
            ]
            .into_iter()
            .enumerate()
            {
                let mut tree = LeastLoaded::new(workers, 0.0);
                let mut tree_loads = vec![0.0f64; workers];
                let mut scan_loads = vec![0.0f64; workers];
                for (i, &load) in items.iter().enumerate() {
                    let by_tree = tree.least();
                    let by_scan = (0..workers)
                        .min_by(|&a, &b| scan_loads[a].partial_cmp(&scan_loads[b]).unwrap())
                        .unwrap();
                    assert_eq!(
                        by_tree, by_scan,
                        "w={workers} shape={shape} item={i}: tree diverged from the scan"
                    );
                    tree_loads[by_tree] += load;
                    scan_loads[by_scan] += load;
                    tree.set(by_tree, tree_loads[by_tree]);
                }
                assert_eq!(tree_loads, scan_loads);
            }
        }
    }

    #[test]
    fn least_loaded_ties_pick_the_lowest_worker() {
        let mut tree = LeastLoaded::new(4, 1.5);
        assert_eq!(tree.least(), 0);
        tree.set(0, 1.5);
        // Worker 0 set to the same load: still the first minimum.
        assert_eq!(tree.least(), 0);
        tree.set(0, 9.0);
        assert_eq!(tree.least(), 1);
        // Lowering a later worker to tie the minimum does not take the lead.
        tree.set(3, 1.5);
        assert_eq!(tree.least(), 1);
        tree.set(3, 0.0);
        assert_eq!(tree.least(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn least_loaded_needs_a_worker() {
        let _ = LeastLoaded::new(0, 0.0);
    }
}
