//! Exact reference joins and correctness verification.
//!
//! Definition 1 of the paper requires that every join result is produced by *exactly
//! one* local join. The helpers here compute the exact result on a single node so that
//! the executor (and the test suites of every partitioner) can check both directions:
//! no result is lost, and no result is produced twice. The executor compares the
//! pairs it produced against one exact pair set (`check_pairs_against`), so a full
//! verification runs one exact join, not one per check.
//!
//! The exact join is one local-join sweep run directly: S and T are each sorted and
//! gathered once, S's sorted order is cut into runs of the sweep's block size, and
//! the runs are dealt round-robin to pieces that gather and sweep them against the
//! whole of T, fanned out over threads. Counts and pair sets are identical for every piece count.
//! The public functions run on every available core: [`exact_join_count_on`] takes an
//! explicit piece count (`1` = strictly sequential), the plain functions use one
//! piece per core. The executor verifies at its own thread count through the crate's
//! `exact_join_count_with` / `exact_join_pairs_with`, which share one runner. Without
//! this, [`crate::VerificationLevel::Count`] is a hidden single-threaded exact join
//! dominating the executor's wall-clock.

use crate::local_join::{
    gather_columns, sort_ids_by_dim0, sweep_in_key_order, Emit, SortedProbeSide, PROBE_BLOCK,
};
use recpart::{BandCondition, JoinKernel, Parallelism, Relation};
use std::collections::HashSet;

/// Below this probe-side size the exact join runs sequentially even in parallel mode.
const MIN_PARALLEL_PROBE: usize = 2_048;

/// Exact number of band-join results `|S ⋈ T|`, computed with the index-nested-loop
/// algorithm on every available core (probe side chunked across threads).
pub fn exact_join_count(s: &Relation, t: &Relation, band: &BandCondition) -> u64 {
    let par = Parallelism::new(0);
    exact_join_count_with(s, t, band, par.threads(), par)
}

/// [`exact_join_count`] with an explicit probe-side chunk count; `pieces <= 1` runs
/// strictly sequentially. The count is identical for every `pieces`.
pub fn exact_join_count_on(s: &Relation, t: &Relation, band: &BandCondition, pieces: usize) -> u64 {
    exact_join_count_with(s, t, band, pieces, Parallelism::new(0))
}

/// [`exact_join_count_on`] with its pieces fanned out under `par`.
pub(crate) fn exact_join_count_with(
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    pieces: usize,
    par: Parallelism,
) -> u64 {
    let per_piece = exact_join(s, t, band, pieces, par, false);
    per_piece.iter().map(|&(output, _)| output).sum()
}

/// Exact set of matching `(s index, t index)` pairs, computed on every available
/// core. Only use for small inputs — the result is materialized in memory.
pub fn exact_join_pairs(s: &Relation, t: &Relation, band: &BandCondition) -> HashSet<(u32, u32)> {
    let par = Parallelism::new(0);
    exact_join_pairs_with(s, t, band, par.threads(), par)
}

/// [`exact_join_pairs`] with an explicit probe-side chunk count, fanned out under
/// `par`; `pieces <= 1` runs strictly sequentially. The resulting set is identical
/// for every `pieces`.
pub(crate) fn exact_join_pairs_with(
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    pieces: usize,
    par: Parallelism,
) -> HashSet<(u32, u32)> {
    let per_piece = exact_join(s, t, band, pieces, par, true);
    let total: usize = per_piece.iter().map(|(_, pairs)| pairs.len()).sum();
    let mut set = HashSet::with_capacity(total);
    for (_, pairs) in per_piece {
        set.extend(pairs);
    }
    set
}

/// The one exact join behind the count and the pair set, returning each piece's
/// output and — with `collect` — its pairs, in no particular order.
///
/// S and T are each sorted on `(dimension 0, id)` once. S's sorted order is cut into
/// runs of [`PROBE_BLOCK`] probes; the piece that owns a run gathers it (so S's gather
/// runs in parallel) and sweeps it against the whole of T directly, so its dimension-0
/// windows cover only the T values near that run (probing in arrival order instead
/// makes every block span — and scan — nearly all of T). Piece `j` takes runs
/// `j, j + pieces, …`: dense regions of a skewed S cost far more per probe than sparse
/// ones, and contiguous pieces of the *sorted* order would hand one piece all of them.
fn exact_join(
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
    pieces: usize,
    par: Parallelism,
    collect: bool,
) -> Vec<(u64, Vec<(u32, u32)>)> {
    if s.is_empty() || t.is_empty() {
        return Vec::new();
    }
    let kernel = JoinKernel::active();
    let t_side = SortedProbeSide::build_full(t);
    let mut s_sorted: Vec<u32> = (0..s.len() as u32).collect();
    sort_ids_by_dim0(s, &mut s_sorted);
    let pieces = if s.len() < MIN_PARALLEL_PROBE {
        1
    } else {
        pieces.max(1)
    };
    let run_piece = |j: usize| {
        let (mut output, mut pairs) = (0, Vec::new());
        for lo in (j * PROBE_BLOCK..s.len()).step_by(pieces * PROBE_BLOCK) {
            let s_ids = &s_sorted[lo..s.len().min(lo + PROBE_BLOCK)];
            let probes = gather_columns(s, s_ids);
            let emit = collect.then(|| Emit {
                pairs: &mut pairs,
                s_ids,
                t_ids: &t_side.sorted,
                order_by: s_ids,
            });
            output += sweep_in_key_order(kernel, &probes, &t_side.cols, band, emit).output;
        }
        (output, pairs)
    };
    par.map((0..pieces).collect(), run_piece)
}

/// Outcome of comparing a distributed execution's materialized pairs against the exact
/// result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairCheck {
    /// Pairs produced by the distributed execution but not part of the exact result
    /// (spurious results — should be impossible for a correct local join).
    pub spurious: usize,
    /// Exact-result pairs never produced by the distributed execution (lost results).
    pub missing: usize,
    /// Pairs produced more than once (violations of the exactly-once property).
    pub duplicated: usize,
}

impl PairCheck {
    /// `true` iff the distributed execution produced exactly the exact result, once each.
    pub(crate) fn is_correct(&self) -> bool {
        self.spurious == 0 && self.missing == 0 && self.duplicated == 0
    }
}

/// Compare produced pairs against an already-computed exact pair set. Lets callers
/// that also need the exact output count reuse one exact join for both.
pub(crate) fn check_pairs_against(
    exact: &HashSet<(u32, u32)>,
    produced: &[(u32, u32)],
) -> PairCheck {
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(produced.len());
    let mut check = PairCheck::default();
    for &pair in produced {
        if !exact.contains(&pair) {
            check.spurious += 1;
        }
        if !seen.insert(pair) {
            check.duplicated += 1;
        }
    }
    check.missing = exact.iter().filter(|p| !seen.contains(p)).count();
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_inputs() -> (Relation, Relation, BandCondition) {
        // Example 2 of the paper: S = {1,2,3,5,6,8,9,10}, T = {1,5,6,10}, ε = 1.
        let s = Relation::from_values_1d(&[1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 9.0, 10.0]);
        let t = Relation::from_values_1d(&[1.0, 5.0, 6.0, 10.0]);
        let band = BandCondition::symmetric(&[1.0]);
        (s, t, band)
    }

    fn random_relation(n: usize, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Relation::with_capacity(1, n);
        for _ in 0..n {
            r.push(&[rng.gen_range(0.0..100.0)]);
        }
        r
    }

    #[test]
    fn exact_count_matches_paper_example() {
        let (s, t, band) = tiny_inputs();
        // Matches: (1,1),(2,1),(5,5),(6,5),(5,6),(6,6),(9,10),(10,10) → 8 pairs.
        assert_eq!(exact_join_count(&s, &t, &band), 8);
        assert_eq!(exact_join_pairs(&s, &t, &band).len(), 8);
    }

    #[test]
    fn chunked_exact_join_matches_sequential() {
        let s = random_relation(5_000, 1);
        let t = random_relation(3_000, 2);
        let band = BandCondition::symmetric(&[0.6]);
        let seq_count = exact_join_count_on(&s, &t, &band, 1);
        let par = Parallelism::new(0);
        let seq_pairs = exact_join_pairs_with(&s, &t, &band, 1, par);
        assert!(seq_count > 0, "test needs non-empty output");
        for pieces in [2, 3, 8, 64] {
            assert_eq!(exact_join_count_on(&s, &t, &band, pieces), seq_count);
            assert_eq!(exact_join_pairs_with(&s, &t, &band, pieces, par), seq_pairs);
        }
    }

    #[test]
    fn check_pairs_accepts_exact_result() {
        let (s, t, band) = tiny_inputs();
        let exact: Vec<(u32, u32)> = exact_join_pairs(&s, &t, &band).into_iter().collect();
        let check = check_pairs_against(&exact_join_pairs(&s, &t, &band), &exact);
        assert!(check.is_correct(), "{check:?}");
    }

    #[test]
    fn check_pairs_detects_duplicates() {
        let (s, t, band) = tiny_inputs();
        let mut produced: Vec<(u32, u32)> = exact_join_pairs(&s, &t, &band).into_iter().collect();
        produced.push(produced[0]);
        let check = check_pairs_against(&exact_join_pairs(&s, &t, &band), &produced);
        assert_eq!(check.duplicated, 1);
        assert!(!check.is_correct());
    }

    #[test]
    fn check_pairs_detects_missing_and_spurious() {
        let (s, t, band) = tiny_inputs();
        let mut produced: Vec<(u32, u32)> = exact_join_pairs(&s, &t, &band).into_iter().collect();
        produced.pop();
        produced.push((0, 3)); // S=1.0 with T=10.0 does not match.
        let check = check_pairs_against(&exact_join_pairs(&s, &t, &band), &produced);
        assert_eq!(check.missing, 1);
        assert_eq!(check.spurious, 1);
        assert!(!check.is_correct());
    }

    #[test]
    fn check_pairs_against_reuses_exact_set() {
        let (s, t, band) = tiny_inputs();
        let exact = exact_join_pairs(&s, &t, &band);
        let produced: Vec<(u32, u32)> = exact.iter().copied().collect();
        assert!(check_pairs_against(&exact, &produced).is_correct());
        assert_eq!(check_pairs_against(&exact, &[]).missing, exact.len());
    }
}
