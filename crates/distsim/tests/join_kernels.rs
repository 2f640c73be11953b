//! Property-based bit-identity tests for the join kernels.
//!
//! The contract under test: for every [`LocalJoinAlgorithm`], every supported
//! [`JoinKernel`] produces **bit-identical** results to that algorithm's scalar
//! oracle — the same pairs, in the same order, with the same `output` and
//! `comparisons` — including on adversarial columns (NaN, ±inf, negative NaN
//! leading the dimension-0 sort, heavy ties) and for arbitrary probe chunkings.
//! On finite inputs, all algorithms additionally agree with the quadratic
//! `NestedLoop` oracle on the produced pair *set*.
//!
//! Non-finite keys cannot enter a [`Relation`] through `push` (debug builds assert
//! finiteness at the ingest boundary); the documented NaN ingress is
//! deserialization, so the adversarial relations here are built from serde blobs.

use distsim::{
    probe_sorted_with, JoinKernel, LocalJoinAlgorithm, LocalJoinResult, SortedProbeSide,
};
use proptest::prelude::*;
use recpart::{BandCondition, Relation};
use serde::{Deserialize, Value};

const ALGOS: [LocalJoinAlgorithm; 2] = [
    LocalJoinAlgorithm::IndexNestedLoop,
    LocalJoinAlgorithm::NestedLoop,
];

/// Build a relation from row-major values via the serde ingress, so non-finite
/// coordinates are allowed even in debug builds.
fn relation(rows: &[Vec<f64>], dims: usize) -> Relation {
    let mut data = Vec::with_capacity(rows.len() * dims);
    for row in rows {
        data.extend(row[..dims].iter().copied().map(Value::F64));
    }
    let blob = Value::Map(vec![
        ("dims".to_string(), Value::U64(dims as u64)),
        ("data".to_string(), Value::Seq(data)),
    ]);
    <Relation as Deserialize>::from_value(&blob).expect("valid relation blob")
}

/// Coordinates with a heavy dose of ties and non-finite specials: negative NaN
/// sorts *first* under `total_cmp` (breaking the partitioned-predicate assumption
/// of binary search), positive NaN last, and NaN differences *match* the band
/// condition — exactly the edges the blocked probe's fallback must reproduce.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => -25.0f64..25.0,
        3 => prop_oneof![Just(0.5f64), Just(-1.0f64), Just(4.0f64)],
        1 => prop_oneof![
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ],
    ]
}

fn rows(dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(coord(), dims), 0..60)
}

fn finite_rows(dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec(
            prop_oneof![4 => -25.0f64..25.0, 2 => Just(0.5f64), 1 => Just(-1.0f64)],
            dims,
        ),
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every supported kernel is bit-identical to the scalar oracle of the same
    /// algorithm — pairs, pair order, `output`, `comparisons` — on adversarial
    /// columns (NaN / ±inf / tied dimension-0 values).
    #[test]
    fn kernels_are_bit_identical_to_scalar_on_adversarial_columns(
        s_rows in rows(2),
        t_rows in rows(2),
        eps_lo in prop::collection::vec(0.0f64..8.0, 2),
        eps_hi in prop::collection::vec(0.0f64..8.0, 2),
    ) {
        let s = relation(&s_rows, 2);
        let t = relation(&t_rows, 2);
        let band = BandCondition::try_asymmetric(&eps_lo, &eps_hi).unwrap();
        for algo in ALGOS {
            let mut scalar_pairs = Vec::new();
            let scalar =
                algo.join_full_with(JoinKernel::Scalar, &s, &t, &band, Some(&mut scalar_pairs));
            for kernel in JoinKernel::all_supported() {
                let mut pairs = Vec::new();
                let res = algo.join_full_with(kernel, &s, &t, &band, Some(&mut pairs));
                prop_assert_eq!(res, scalar, "{} kernel {}", algo.name(), kernel.name());
                prop_assert_eq!(
                    &pairs, &scalar_pairs,
                    "{} kernel {}: pair order must match the scalar oracle",
                    algo.name(), kernel.name()
                );
                // The count-only path takes different kernel code; same counters.
                let counted = algo.join_full_with(kernel, &s, &t, &band, None);
                prop_assert_eq!(counted, scalar, "{} kernel {} count-only", algo.name(), kernel.name());
            }
        }
    }

    /// On finite inputs every algorithm × kernel produces exactly the nested-loop
    /// oracle's pair set (as a set — algorithms emit in different orders), and the
    /// index algorithms agree with each other bit for bit across kernels.
    #[test]
    fn all_algorithms_match_the_nested_loop_oracle_on_finite_inputs(
        s_rows in finite_rows(2),
        t_rows in finite_rows(2),
        eps_lo in prop::collection::vec(0.0f64..8.0, 2),
        eps_hi in prop::collection::vec(0.0f64..8.0, 2),
    ) {
        let s = relation(&s_rows, 2);
        let t = relation(&t_rows, 2);
        let band = BandCondition::try_asymmetric(&eps_lo, &eps_hi).unwrap();
        let mut oracle_pairs = Vec::new();
        let oracle = LocalJoinAlgorithm::NestedLoop.join_full(&s, &t, &band, Some(&mut oracle_pairs));
        let oracle_set: std::collections::HashSet<(u32, u32)> =
            oracle_pairs.iter().copied().collect();
        prop_assert_eq!(oracle_set.len() as u64, oracle.output, "oracle pairs are unique");
        for algo in ALGOS {
            for kernel in JoinKernel::all_supported() {
                let mut pairs = Vec::new();
                let res = algo.join_full_with(kernel, &s, &t, &band, Some(&mut pairs));
                prop_assert_eq!(res.output, oracle.output, "{} kernel {}", algo.name(), kernel.name());
                let set: std::collections::HashSet<(u32, u32)> = pairs.iter().copied().collect();
                prop_assert_eq!(set.len(), pairs.len(), "no duplicate pairs");
                prop_assert_eq!(&set, &oracle_set, "{} kernel {}", algo.name(), kernel.name());
            }
        }
    }

    /// Chunking the probe side arbitrarily (including empty and single-probe
    /// chunks) and concatenating the per-chunk outputs reproduces the unchunked
    /// result exactly, for every kernel — the property the parallel exact join
    /// relies on.
    #[test]
    fn arbitrary_probe_chunkings_concatenate_exactly(
        s_rows in rows(1),
        t_rows in rows(1),
        eps in 0.0f64..6.0,
        chunk in 1usize..17,
    ) {
        let s = relation(&s_rows, 1);
        let t = relation(&t_rows, 1);
        let band = BandCondition::symmetric(&[eps]);
        let side = SortedProbeSide::build_full(&t);
        for kernel in JoinKernel::all_supported() {
            let mut full_pairs = Vec::new();
            let full = probe_sorted_with(
                kernel, &s, &t, &side, &band, 0..s.len() as u32, Some(&mut full_pairs),
            );
            let mut acc = LocalJoinResult::default();
            let mut acc_pairs = Vec::new();
            let mut lo = 0u32;
            while (lo as usize) < s.len() {
                let hi = (lo as usize + chunk).min(s.len()) as u32;
                let r = probe_sorted_with(
                    kernel, &s, &t, &side, &band, lo..hi, Some(&mut acc_pairs),
                );
                acc.output += r.output;
                acc.comparisons += r.comparisons;
                lo = hi;
            }
            // An empty chunk contributes nothing.
            let empty = probe_sorted_with(kernel, &s, &t, &side, &band, 0..0, Some(&mut acc_pairs));
            prop_assert_eq!(empty, LocalJoinResult::default());
            prop_assert_eq!(acc, full, "kernel {}", kernel.name());
            prop_assert_eq!(&acc_pairs, &full_pairs, "kernel {}", kernel.name());
        }
    }
}

/// Empty sides and windows produce empty results for every algorithm × kernel.
#[test]
fn empty_sides_and_empty_windows() {
    let empty = relation(&[], 1);
    let one = relation(&[vec![1.0]], 1);
    // Far-apart values with a narrow band: windows exist but are empty.
    let far_s = relation(&[vec![0.0], vec![100.0]], 1);
    let far_t = relation(&[vec![50.0], vec![-50.0]], 1);
    let band = BandCondition::symmetric(&[0.5]);
    for algo in ALGOS {
        for kernel in JoinKernel::all_supported() {
            for (s, t) in [(&empty, &one), (&one, &empty), (&empty, &empty)] {
                let mut pairs = Vec::new();
                let res = algo.join_full_with(kernel, s, t, &band, Some(&mut pairs));
                assert_eq!(res, LocalJoinResult::default());
                assert!(pairs.is_empty());
            }
            let res = algo.join_full_with(kernel, &far_s, &far_t, &band, None);
            assert_eq!(res.output, 0, "{} kernel {}", algo.name(), kernel.name());
        }
    }
}
