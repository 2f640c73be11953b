//! Property-based tests of the core invariants of the `recpart` crate: band-condition
//! symmetry, ε-range consistency, split-tree routing (Definition 1), and the behaviour
//! of the split score.

use proptest::prelude::*;
use recpart::{BandCondition, BucketGrid, Rect, Relation, SplitKind, SplitScore, SplitTree};

fn key(dims: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, dims)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A symmetric band condition is symmetric in its arguments.
    #[test]
    fn band_condition_is_symmetric(
        s in key(3),
        t in key(3),
        eps in prop::collection::vec(0.0f64..20.0, 3),
    ) {
        let band = BandCondition::symmetric(&eps);
        prop_assert_eq!(band.matches(&s, &t), band.matches(&t, &s));
    }

    /// `matches` is equivalent to membership of `s` in the ε-range around `t`
    /// in every dimension.
    #[test]
    fn matches_equals_epsilon_range_membership(
        s in key(2),
        t in key(2),
        eps_lo in prop::collection::vec(0.0f64..10.0, 2),
        eps_hi in prop::collection::vec(0.0f64..10.0, 2),
    ) {
        let band = BandCondition::try_asymmetric(&eps_lo, &eps_hi).unwrap();
        let in_ranges = (0..2).all(|d| {
            let (lo, hi) = band.range_around_t(d, t[d]);
            (lo..=hi).contains(&s[d])
        });
        prop_assert_eq!(band.matches(&s, &t), in_ranges);
    }

    /// Splitting a rectangle partitions it: every point of the parent belongs to exactly
    /// one child.
    #[test]
    fn rect_split_partitions_points(
        point in key(3),
        dim in 0usize..3,
        value in -100.0f64..100.0,
    ) {
        let rect = Rect::unbounded(3);
        let (left, right) = rect.split(dim, value);
        prop_assert!(rect.contains(&point));
        prop_assert_ne!(left.contains(&point), right.contains(&point));
    }

    /// If a pair matches the band condition and the S-point lies in a region, the
    /// region must intersect the ε-range around the T-point (this is what makes the
    /// split tree's duplication rule sufficient).
    #[test]
    fn matching_pair_implies_region_intersection(
        s in key(2),
        // Offsets within the band width construct a matching T-tuple directly.
        delta_frac in prop::collection::vec(-1.0f64..1.0, 2),
        eps in prop::collection::vec(0.001f64..15.0, 2),
        // The region is constructed to contain s.
        offset_frac in prop::collection::vec(0.0f64..0.999, 2),
        extent in prop::collection::vec(0.1f64..50.0, 2),
    ) {
        let band = BandCondition::symmetric(&eps);
        let t: Vec<f64> = s
            .iter()
            .zip(&delta_frac)
            .zip(&eps)
            .map(|((sv, f), e)| sv + f * e)
            .collect();
        prop_assert!(band.matches(&s, &t));
        let lo: Vec<f64> = s
            .iter()
            .zip(&offset_frac)
            .zip(&extent)
            .map(|((sv, f), e)| sv - f * e)
            .collect();
        let hi: Vec<f64> = lo.iter().zip(&extent).map(|(l, e)| l + e).collect();
        let region = Rect::new(lo, hi);
        prop_assert!(region.contains(&s));
        prop_assert!(region.intersects_t_range(&t, &band));
    }

    /// Routing through an arbitrary (randomly grown) split tree preserves the
    /// exactly-once property for matching pairs and assigns every tuple somewhere.
    #[test]
    fn random_split_tree_routes_exactly_once(
        splits in prop::collection::vec(
            (0usize..2, -50.0f64..50.0, any::<bool>(), any::<bool>()),
            0..12
        ),
        s_keys in prop::collection::vec(key(2), 1..60),
        t_keys in prop::collection::vec(key(2), 1..60),
        eps in prop::collection::vec(0.0f64..10.0, 2),
        grid_rows in 1u32..4,
        grid_cols in 1u32..4,
        seed in any::<u64>(),
    ) {
        let band = BandCondition::symmetric(&eps);
        let mut tree = SplitTree::new(2);
        // Grow the tree by repeatedly splitting the first leaf that can accommodate the
        // requested split value.
        for (dim, value, use_s_split, split_first) in splits {
            let leaves = tree.leaf_ids();
            let target = leaves
                .iter()
                .copied()
                .filter(|&l| {
                    let r = &tree.leaf(l).region;
                    value > r.lo(dim) && value < r.hi(dim)
                })
                .collect::<Vec<_>>();
            let Some(&leaf) = (if split_first { target.first() } else { target.last() })
            else {
                continue;
            };
            let kind = if use_s_split { SplitKind::SSplit } else { SplitKind::TSplit };
            tree.split_leaf(leaf, dim, value, kind);
        }
        // Give one leaf an internal 1-Bucket grid.
        let first_leaf = tree.leaf_ids()[0];
        tree.set_leaf_grid(first_leaf, BucketGrid { rows: grid_rows, cols: grid_cols });
        tree.assign_partition_ids();

        let mut s_parts = Vec::new();
        let mut t_parts = Vec::new();
        for (si, s) in s_keys.iter().enumerate() {
            s_parts.clear();
            tree.route_s(s, si as u64, &band, seed, &mut s_parts);
            prop_assert!(!s_parts.is_empty(), "S-tuple unassigned");
            for (ti, t) in t_keys.iter().enumerate() {
                t_parts.clear();
                tree.route_t(t, ti as u64, &band, seed, &mut t_parts);
                prop_assert!(!t_parts.is_empty(), "T-tuple unassigned");
                if band.matches(s, t) {
                    let common = s_parts.iter().filter(|p| t_parts.contains(p)).count();
                    prop_assert_eq!(common, 1, "pair met {} times", common);
                }
            }
        }
    }

    /// The split score is monotone: more variance reduction never lowers the score, and
    /// more duplication never raises it.
    #[test]
    fn split_score_is_monotone(
        var_a in 0.001f64..1e9,
        var_b in 0.001f64..1e9,
        dup_a in 0.0f64..1e6,
        dup_b in 0.0f64..1e6,
    ) {
        let (var_lo, var_hi) = if var_a <= var_b { (var_a, var_b) } else { (var_b, var_a) };
        let (dup_lo, dup_hi) = if dup_a <= dup_b { (dup_a, dup_b) } else { (dup_b, dup_a) };
        // Same duplication, more variance reduction → at least as good.
        prop_assert!(SplitScore::new(var_hi, dup_a) >= SplitScore::new(var_lo, dup_a));
        // Same variance reduction, more duplication → at most as good.
        prop_assert!(SplitScore::new(var_a, dup_hi) <= SplitScore::new(var_a, dup_lo));
    }

    /// 1-Bucket grid accounting: total input equals the sum of the per-cell expected
    /// inputs, and the duplication of a row/column increment equals the other side's
    /// input.
    #[test]
    fn bucket_grid_accounting(
        rows in 1u32..8,
        cols in 1u32..8,
        s_input in 0.0f64..1e5,
        t_input in 0.0f64..1e5,
    ) {
        let grid = BucketGrid { rows, cols };
        let total = grid.total_input(s_input, t_input);
        // Per-cell expected input × number of cells = total input.
        let per_cell = s_input / rows as f64 + t_input / cols as f64;
        prop_assert!((per_cell * grid.cells() as f64 - total).abs() < 1e-6 * total.max(1.0));
        let bigger_rows = BucketGrid { rows: rows + 1, cols };
        prop_assert!(
            (bigger_rows.total_input(s_input, t_input) - total - t_input).abs()
                < 1e-6 * total.max(1.0)
        );
    }

    /// A relation round-trips through its flat representation.
    #[test]
    fn relation_flat_round_trip(keys in prop::collection::vec(key(3), 0..50)) {
        let mut r = Relation::new(3);
        for k in &keys {
            r.push(k);
        }
        let again = Relation::from_flat(3, r.to_flat());
        prop_assert_eq!(r, again);
    }
}
