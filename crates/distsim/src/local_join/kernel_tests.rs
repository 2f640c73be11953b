//! Property-based bit-identity tests for the join kernels.
//!
//! The contract under test: every supported [`JoinKernel`] probes **bit-identically**
//! to the scalar per-probe oracle (`probe_scalar`) — the same pairs, in the same
//! order, with the same `output` and `comparisons` — including on adversarial columns
//! (±inf, whose `∞ − ∞` differences are NaN, and heavy ties) and for arbitrary
//! probe chunkings. On finite inputs, every kernel and the scalar oracle
//! additionally agree with the quadratic oracle (`nested_loop`) on the produced pair
//! *set*. NaN keys cannot enter a [`Relation`], so no generator draws them.
//!
//! The deterministic cases at the end sit on the edge of the sweep's exact
//! dimension-0 trim (`local_join` module docs): window members the band test rejects,
//! tie runs on the window bounds, signed zeros, and infinities in either input.

use super::tests::{index_join, quadratic_join, scalar_join, JOINS};
use super::{probe_sorted_with, LocalJoinResult, SortedProbeSide, PROBE_BLOCK};
use crate::join_ready::JoinReadyInputs;
use crate::shuffle::shuffle;
use proptest::prelude::*;
use recpart::{BandCondition, JoinKernel, Parallelism, Relation, SinglePartition};

/// The first `dims` coordinates of every row.
fn relation(rows: &[Vec<f64>], dims: usize) -> Relation {
    Relation::from_flat(
        dims,
        rows.iter().flat_map(|row| &row[..dims]).copied().collect(),
    )
}

/// Coordinates with a heavy dose of ties and both infinities: `∞ − ∞` is a NaN
/// difference, which *matches* the band condition.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => -25.0f64..25.0,
        3 => prop_oneof![Just(0.5f64), Just(-1.0f64), Just(4.0f64)],
        1 => prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
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

/// The rows `comparison_counts_are_sane` draws: finite, one to 80 tuples.
fn keys(dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-25.0f64..25.0, dims), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every supported kernel is bit-identical to the scalar oracle — pairs, pair
    /// order, `output`, `comparisons` — on adversarial columns (±inf / tied
    /// dimension-0 values). Relations of 2 to 5 dimensions leave the kernels 1 to 4
    /// to test after the dimension-0 trim: every dimension-specialized arm.
    #[test]
    fn kernels_are_bit_identical_to_scalar_on_adversarial_columns(
        dims in 2usize..=5,
        s_rows in rows(5),
        t_rows in rows(5),
        eps_lo in prop::collection::vec(0.0f64..8.0, 5),
        eps_hi in prop::collection::vec(0.0f64..8.0, 5),
    ) {
        let s = relation(&s_rows, dims);
        let t = relation(&t_rows, dims);
        let band = BandCondition::try_asymmetric(&eps_lo[..dims], &eps_hi[..dims]).unwrap();
        let mut scalar_pairs = Vec::new();
        let scalar = scalar_join(&s, &t, &band, Some(&mut scalar_pairs));
        for kernel in JoinKernel::all_supported() {
            let mut pairs = Vec::new();
            let res = index_join(kernel, &s, &t, &band, Some(&mut pairs));
            prop_assert_eq!(res, scalar, "kernel {}", kernel.name());
            prop_assert_eq!(
                &pairs, &scalar_pairs,
                "kernel {}: pair order must match the scalar oracle",
                kernel.name()
            );
            // The count-only path takes different kernel code; same counters.
            let counted = index_join(kernel, &s, &t, &band, None);
            prop_assert_eq!(counted, scalar, "kernel {} count-only", kernel.name());
        }
    }

    /// On finite inputs the scalar oracle and every kernel produce exactly the
    /// nested-loop oracle's pair set (as a set — the nested loop emits in another
    /// order).
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
        let oracle = quadratic_join(&s, &t, &band, Some(&mut oracle_pairs));
        let oracle_set: std::collections::HashSet<(u32, u32)> =
            oracle_pairs.iter().copied().collect();
        prop_assert_eq!(oracle_set.len() as u64, oracle.output, "oracle pairs are unique");
        let kernels = JoinKernel::all_supported().into_iter().map(Some);
        for kernel in std::iter::once(None).chain(kernels) {
            let label = kernel.map_or("scalar probe", |k| k.name());
            let mut pairs = Vec::new();
            let res = match kernel {
                None => scalar_join(&s, &t, &band, Some(&mut pairs)),
                Some(kernel) => index_join(kernel, &s, &t, &band, Some(&mut pairs)),
            };
            prop_assert_eq!(res.output, oracle.output, "{}", label);
            let set: std::collections::HashSet<(u32, u32)> = pairs.iter().copied().collect();
            prop_assert_eq!(set.len(), pairs.len(), "no duplicate pairs");
            prop_assert_eq!(&set, &oracle_set, "{}", label);
        }
    }

    /// Comparisons never undercount the output (every emitted pair was compared), and
    /// the nested-loop reference performs exactly |S|·|T| comparisons.
    #[test]
    fn comparison_counts_are_sane(
        s_vals in keys(1),
        t_vals in keys(1),
        eps in 0.0f64..5.0,
    ) {
        let s = relation(&s_vals, 1);
        let t = relation(&t_vals, 1);
        let band = BandCondition::symmetric(&[eps]);
        for (name, join) in JOINS {
            let res = join(&s, &t, &band, None);
            prop_assert!(res.comparisons >= res.output, "{}", name);
        }
        let nl = quadratic_join(&s, &t, &band, None);
        prop_assert_eq!(nl.comparisons, (s.len() * t.len()) as u64);
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
                kernel, &s, &side, &band, 0..s.len() as u32, Some(&mut full_pairs),
            );
            let mut acc = LocalJoinResult::default();
            let mut acc_pairs = Vec::new();
            let mut lo = 0u32;
            while (lo as usize) < s.len() {
                let hi = (lo as usize + chunk).min(s.len()) as u32;
                let r = probe_sorted_with(
                    kernel, &s, &side, &band, lo..hi, Some(&mut acc_pairs),
                );
                acc.output += r.output;
                acc.comparisons += r.comparisons;
                lo = hi;
            }
            // An empty chunk contributes nothing.
            let empty = probe_sorted_with(kernel, &s, &side, &band, 0..0, Some(&mut acc_pairs));
            prop_assert_eq!(empty, LocalJoinResult::default());
            prop_assert_eq!(acc, full, "kernel {}", kernel.name());
            prop_assert_eq!(&acc_pairs, &full_pairs, "kernel {}", kernel.name());
        }
    }
}

/// Empty sides and windows produce empty results for both oracles and every kernel.
#[test]
fn empty_sides_and_empty_windows() {
    let empty = relation(&[], 1);
    let one = relation(&[vec![1.0]], 1);
    // Far-apart values with a narrow band: windows exist but are empty.
    let far_s = relation(&[vec![0.0], vec![100.0]], 1);
    let far_t = relation(&[vec![50.0], vec![-50.0]], 1);
    let band = BandCondition::symmetric(&[0.5]);
    let none = LocalJoinResult::default();
    for (s, t) in [(&empty, &one), (&one, &empty), (&empty, &empty)] {
        let mut pairs = Vec::new();
        assert_eq!(scalar_join(s, t, &band, Some(&mut pairs)), none);
        assert_eq!(quadratic_join(s, t, &band, Some(&mut pairs)), none);
        for kernel in JoinKernel::all_supported() {
            let res = index_join(kernel, s, t, &band, Some(&mut pairs));
            assert_eq!(res, none, "kernel {}", kernel.name());
        }
        assert!(pairs.is_empty());
    }
    assert_eq!(scalar_join(&far_s, &far_t, &band, None).output, 0);
    assert_eq!(quadratic_join(&far_s, &far_t, &band, None).output, 0);
    for kernel in JoinKernel::all_supported() {
        let res = index_join(kernel, &far_s, &far_t, &band, None);
        assert_eq!(res.output, 0, "kernel {}", kernel.name());
    }
}

/// A join with an explicit kernel over whole relations.
type KernelJoin = fn(
    JoinKernel,
    &Relation,
    &Relation,
    &BandCondition,
    Option<&mut Vec<(u32, u32)>>,
) -> LocalJoinResult;

/// Ties long enough to outlast a 1,024-probe block and any short inward step.
const TIE_RUN: usize = 1_100;

/// Relations whose dimension 0 is `s0` / `t0` and whose dimensions `1..dims` are a
/// fixed pattern that the band `(0.5, 1.0)` accepts for four T values in five — so
/// the kernels, handed dimensions `1..`, still have something to reject.
fn edge_inputs(s0: &[f64], t0: &[f64], dims: usize) -> (Relation, Relation) {
    let s_rows: Vec<Vec<f64>> = s0
        .iter()
        .map(|&v| std::iter::once(v).chain((1..dims).map(|_| 1.0)).collect())
        .collect();
    let t_rows: Vec<Vec<f64>> = t0
        .iter()
        .enumerate()
        .map(|(j, &v)| {
            std::iter::once(v)
                .chain((1..dims).map(|d| ((j * 7 + d * 3) % 5) as f64 * 0.5))
                .collect()
        })
        .collect();
    (relation(&s_rows, dims), relation(&t_rows, dims))
}

/// The reduce's join: both relations shuffled into one partition, prepared (sorted)
/// and joined as [`crate::join_ready::ReadyPartition::join`] joins it.
fn ready_join(
    kernel: JoinKernel,
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    pairs: Option<&mut Vec<(u32, u32)>>,
) -> LocalJoinResult {
    let par = Parallelism::new(1);
    let (ready, _) = JoinReadyInputs::prepare(shuffle(&SinglePartition, s, t, 1, par), s, t, par);
    ready.part(0).join(kernel, s, t, band, pairs)
}

/// Hold every kernel's index-nested-loop join, the probe path's and the
/// reduce's, materializing and count-only, to the scalar per-candidate probe bit for
/// bit and to the quadratic oracle's pair set. Returns the scalar result.
fn assert_edge_case(label: &str, s0: &[f64], t0: &[f64], eps0: (f64, f64)) -> LocalJoinResult {
    let mut one_d = LocalJoinResult::default();
    for dims in 1..=4usize {
        let (s, t) = edge_inputs(s0, t0, dims);
        let eps_lo: Vec<f64> = std::iter::once(eps0.0)
            .chain((1..dims).map(|_| 0.5))
            .collect();
        let eps_hi: Vec<f64> = std::iter::once(eps0.1)
            .chain((1..dims).map(|_| 1.0))
            .collect();
        let band = BandCondition::try_asymmetric(&eps_lo, &eps_hi).unwrap();
        let mut scalar_pairs = Vec::new();
        let scalar = scalar_join(&s, &t, &band, Some(&mut scalar_pairs));
        if dims == 1 {
            one_d = scalar;
        }
        let mut oracle_pairs = Vec::new();
        let oracle = quadratic_join(&s, &t, &band, Some(&mut oracle_pairs));
        assert_eq!(
            scalar.output, oracle.output,
            "{label} dims {dims}: nested loop"
        );
        let mut sorted = scalar_pairs.clone();
        sorted.sort_unstable();
        oracle_pairs.sort_unstable();
        assert_eq!(
            sorted, oracle_pairs,
            "{label} dims {dims}: nested-loop pair set"
        );
        let paths: [(&str, KernelJoin); 2] = [("probe", index_join), ("reduce", ready_join)];
        for kernel in JoinKernel::all_supported() {
            for (path, join) in paths {
                let label = format!("{label} dims {dims} kernel {} {path}", kernel.name());
                let mut pairs = Vec::new();
                let got = join(kernel, &s, &t, &band, Some(&mut pairs));
                assert_eq!(got, scalar, "{label}");
                assert!(pairs == scalar_pairs, "{label}: pairs and pair order");
                let counted = join(kernel, &s, &t, &band, None);
                assert_eq!(counted, scalar, "{label} count-only");
            }
        }
    }
    one_d
}

fn run(v: f64) -> impl Iterator<Item = f64> {
    std::iter::repeat_n(v, TIE_RUN)
}

/// The edge of the exact dimension-0 trim: the window is cut by `v ≥ s − ε_high` /
/// `v ≤ s + ε_low`, the band test by `s − v`, and the two round differently — here
/// once at a window's upper end and once at its lower end. Runs of ties sit on both
/// bounds, their neighbours one ulp either side, and every one of the tied probes
/// steps in over a whole run.
#[test]
fn window_members_the_band_test_rejects_are_trimmed_exactly() {
    for (s, eps, t) in [(0.3f64, 0.1f64, 0.4f64), (0.3, 0.9, -0.6000000000000001)] {
        let band = BandCondition::symmetric(&[eps]);
        let (lo, hi) = band.range_around_s(0, s);
        assert!(t == lo || t == hi, "{t} bounds the window of {s}");
        assert!(!band.matches(&[s], &[t]), "and the band test rejects it");
        let t0: Vec<f64> = [
            lo.next_down(),
            lo.next_up(),
            s,
            hi.next_down(),
            hi.next_up(),
        ]
        .into_iter()
        .chain(run(lo))
        .chain(run(hi))
        .collect();
        let s0: Vec<f64> = [s - 0.05, s + 0.05].into_iter().chain([s; 40]).collect();
        let label = format!("s {s} eps {eps}: window member {t} rejected");
        let got = assert_edge_case(&label, &s0, &t0, (eps, eps));
        let rejected = got.comparisons - got.output;
        assert!(rejected >= 40 * TIE_RUN as u64, "{label}: {rejected}");
    }
}

/// Tie runs exactly on both window bounds of asymmetric bands, where the bounds are
/// exact and the runs match: the trim must stop at once, at both ends.
///
/// (No T value sits one ulp *outside* a window here: `1.0 − (0.5 − 2⁻⁵⁴)` rounds to
/// `0.5` and passes the band test, yet `0.5 − 2⁻⁵⁴ < 1.0 − 0.5` keeps it out of the
/// window — of the scalar probe's too. That is the window's rounding, not the
/// trim's, and the quadratic oracle would count the pair.)
#[test]
fn tie_runs_on_the_window_bounds_of_asymmetric_bands() {
    for (s, eps_lo, eps_hi) in [
        (1.0f64, 0.25f64, 0.5f64),
        (-3.5, 0.0, 2.0),
        (7.25, 1.5, 0.0),
    ] {
        let band = BandCondition::try_asymmetric(&[eps_lo], &[eps_hi]).unwrap();
        let (lo, hi) = band.range_around_s(0, s);
        let t0: Vec<f64> = [lo.next_up(), hi.next_down(), s]
            .into_iter()
            .chain(run(lo))
            .chain(run(hi))
            .collect();
        let s0 = [s, s.next_down(), s.next_up(), lo, hi];
        let label = format!("ties at [{lo}, {hi}]");
        let got = assert_edge_case(&label, &s0, &t0, (eps_lo, eps_hi));
        assert!(
            got.output >= 2 * TIE_RUN as u64,
            "{label}: both runs match s"
        );
    }
}

/// Both zeros in both inputs under ε = 0.0 and ε = −0.0: `total_cmp` sorts −0.0
/// before 0.0, the band test calls them equal.
#[test]
fn signed_zeros_and_zero_width_bands() {
    let tiny = f64::from_bits(1);
    let t0: Vec<f64> = [-1.0, -tiny, tiny, 1.0]
        .into_iter()
        .chain(run(-0.0))
        .chain(run(0.0))
        .collect();
    let s0 = [0.0, -0.0, tiny, -tiny, 1.0, -1.0];
    for eps in [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, tiny)] {
        let got = assert_edge_case(&format!("zeros, eps {eps:?}"), &s0, &t0, eps);
        assert!(
            got.output >= 4 * TIE_RUN as u64,
            "either zero probes both runs"
        );
    }
}

/// ±inf in T: out of every finite probe's reach, except that a window bound can
/// overflow to ±inf and take the run in — which the band test then rejects whole.
#[test]
fn infinities_in_t() {
    let t0: Vec<f64> = [f64::MIN, -1.0, 0.0, 1.0, f64::MAX]
        .into_iter()
        .chain(run(f64::NEG_INFINITY))
        .chain(run(f64::INFINITY))
        .collect();
    let s0 = [f64::MAX, f64::MIN, 0.0, 1.5, -1.5];
    for eps in [(1.0, 1.0), (1e300, 1e300), (0.0, 1e300)] {
        let band = BandCondition::try_asymmetric(&[eps.0], &[eps.1]).unwrap();
        let got = assert_edge_case(&format!("inf in T, eps {eps:?}"), &s0, &t0, eps);
        assert!(got.output < 20, "no infinity joins a finite probe");
        if band.range_around_s(0, f64::MAX).1 == f64::INFINITY {
            assert!(
                got.comparisons >= TIE_RUN as u64,
                "the +inf run was in a window"
            );
        }
    }
}

/// Probes with an infinite dimension-0 key, which advance the one window like every
/// other probe, here on a column that holds both infinities — each infinity joins its
/// equals (`∞ − ∞` is NaN, which matches). Then more than two blocks of finite probes with infinite ones
/// strewn among them: the probe path and the reduce both sort the whole list, so
/// they sweep the infinite probes as blocks of their own before and after several
/// blocks of finite probes.
#[test]
fn non_finite_probes_take_the_fallback() {
    let probes = [0.3, f64::INFINITY, f64::NEG_INFINITY, 0.5, -0.5];
    let t0: Vec<f64> = [-2.0, -0.5, 0.0, 0.25, 0.5, 0.75, 3.0, f64::NEG_INFINITY]
        .into_iter()
        .chain(run(0.5))
        .chain(run(f64::INFINITY))
        .collect();
    let many: Vec<f64> = (0..2 * PROBE_BLOCK + 300)
        .map(|i| match i % 97 {
            0 => f64::INFINITY,
            50 => f64::NEG_INFINITY,
            _ => ((i * 37) % 1_000) as f64 / 50.0 - 10.0,
        })
        .collect();
    let inf_probes = many.iter().filter(|&&v| v == f64::INFINITY).count() as u64;
    // A short T, so the quadratic oracle stays cheap: both infinities, four +inf.
    let short_t0: Vec<f64> = (0..40)
        .map(|i| i as f64 / 2.0 - 10.0)
        .chain([f64::NEG_INFINITY, 0.25, 0.75])
        .chain([f64::INFINITY; 4])
        .collect();
    for eps in [(0.25, 0.5), (0.0, 0.0)] {
        let got = assert_edge_case(&format!("infinite probes, eps {eps:?}"), &probes, &t0, eps);
        assert!(
            got.output >= 2 * TIE_RUN as u64,
            "the +inf probe joins the +inf run and the finite probes still join"
        );
        let label = format!("{} probes across blocks, eps {eps:?}", many.len());
        let got = assert_edge_case(&label, &many, &short_t0, eps);
        assert!(
            got.output >= 4 * inf_probes,
            "{label}: every +inf probe joins every +inf in T"
        );
    }
}
