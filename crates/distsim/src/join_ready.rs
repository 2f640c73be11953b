//! Join-ready inputs: the shuffled CSR arenas, sorted once so the reduce never sorts.
//!
//! A partition's local join needs its T side in dimension-0 order (the probe column)
//! and — to advance one monotone window instead of binary-searching per probe — its S
//! side in dimension-0 order too. Both orders depend on the *plan*, never on the
//! query's ε, so they are established once, **in place**, right after the shuffle:
//! [`JoinReadyInputs`] is the same two arenas with every partition's slice permuted,
//! and not a byte more (DESIGN.md §4: why nothing else is cached, why cold paths fuse
//! the sort into the join pass).
//!
//! # The sorted-slice invariant, and who may establish it
//!
//! Every S slice and every T slice is in `(dimension 0 total_cmp, tuple id)` order —
//! one total order for both sides. [`sort_ids_by_dim0`] is stable, and the shuffle's
//! slices arrive **ascending**, so ties come out by id; it is also the sort
//! `SortedProbeSide::build` runs, so a T slice is exactly the order the probe side of
//! the same ascending slice has.
//!
//! "Sorted" is a type, not a flag: [`prepare_partition`] is the only function that
//! builds a [`ReadyPartition`] from loose slices (by sorting them), and
//! [`JoinReadyInputs::prepare_with`] the only constructor of the whole. Holders of a
//! `&JoinReadyInputs` — a warm plan-cache hit, a supervised shard attempt — can only
//! join.
//!
//! # The pair-order contract
//!
//! [`ReadyPartition::join`] emits materialized pairs in **ascending S id**, each
//! probe's matches in window order (T's `(dimension 0, id)` order). Shuffle arenas are ascending, so
//! that is the order probing the raw slice in arrival order produces — pair lists are
//! those of [`crate::probe_sorted`] on the unsorted arenas, element for element, at the
//! price of one integer sort of positions on the materializing path.

use crate::local_join::{gather_columns, sort_ids_by_dim0, sweep_in_key_order, LocalJoinResult};
use crate::parallel::{chunk_ranges, Parallelism};
use crate::shuffle::{PartitionedIndex, ShuffledInputs};
use rayon::prelude::*;
use recpart::{BandCondition, JoinKernel, Relation};
use std::time::Instant;

/// One partition's S and T tuple ids in join-ready order (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadyPartition<'a> {
    s_sorted: &'a [u32],
    t_sorted: &'a [u32],
}

/// Establish the sorted-slice invariant on one partition, in place. Both slices must
/// be strictly ascending, as the shuffle leaves them: the stable sort turns that into
/// the id tie order, and the pair-order contract emits in it.
fn prepare_partition<'a>(
    s: &Relation,
    t: &Relation,
    s_ids: &'a mut [u32],
    t_ids: &'a mut [u32],
) -> ReadyPartition<'a> {
    debug_assert!(
        s_ids.is_sorted_by(|a, b| a < b) && t_ids.is_sorted_by(|a, b| a < b),
        "a shuffle slice is not strictly ascending"
    );
    sort_ids_by_dim0(s, s_ids);
    sort_ids_by_dim0(t, t_ids);
    ReadyPartition {
        s_sorted: s_ids,
        t_sorted: t_ids,
    }
}

impl ReadyPartition<'_> {
    /// S-tuples in the partition (duplicates included).
    pub(crate) fn s_len(&self) -> usize {
        self.s_sorted.len()
    }

    /// T-tuples in the partition (duplicates included).
    pub(crate) fn t_len(&self) -> usize {
        self.t_sorted.len()
    }

    /// The partition's band-join: gather T's columns (no sort), sweep the sorted S
    /// slice once with a single monotone dimension-0 window, evaluate every window
    /// with `kernel`. `output`, `comparisons`, the pairs and their order equal
    /// [`crate::probe_sorted`] on the ascending slices, for every kernel.
    pub(crate) fn join(
        &self,
        kernel: JoinKernel,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        pairs: Option<&mut Vec<(u32, u32)>>,
    ) -> LocalJoinResult {
        let (s_sorted, t_sorted) = (self.s_sorted, self.t_sorted);
        if s_sorted.is_empty() || t_sorted.is_empty() {
            return LocalJoinResult::default();
        }
        let cols = gather_columns(t, t_sorted);
        let probes = s_sorted.iter().copied().enumerate();
        let Some(pairs) = pairs else {
            return sweep_in_key_order(kernel, s, &cols, band, probes, None);
        };
        let mut matched = Vec::new();
        let mut slots = vec![(0, 0); s_sorted.len()];
        let collect = Some((&mut matched, slots.as_mut_slice()));
        let result = sweep_in_key_order(kernel, s, &cols, band, probes, collect);
        // Back to ascending S id, the arrival order of the shuffle's arena.
        let mut emit: Vec<u32> = (0..s_sorted.len() as u32).collect();
        emit.sort_unstable_by_key(|&pos| s_sorted[pos as usize]);
        pairs.reserve(matched.len());
        for pos in emit {
            let (offset, count) = slots[pos as usize];
            let si = s_sorted[pos as usize];
            pairs.extend(
                matched[offset..offset + count]
                    .iter()
                    .map(|&m| (si, t_sorted[m as usize])),
            );
        }
        result
    }
}

/// One partition's S and T id slices, borrowed out of the arenas to be sorted.
type IdSlices<'a> = (&'a mut [u32], &'a mut [u32]);

/// Both shuffled arenas with every partition in join-ready order — what a cached plan
/// owns and what every reduce over shared (borrowed) arenas takes. Same ids, offsets
/// and [`arena_bytes`](JoinReadyInputs::arena_bytes) as the [`ShuffledInputs`] it was
/// made from.
#[derive(Debug)]
pub struct JoinReadyInputs {
    s_parts: PartitionedIndex,
    t_parts: PartitionedIndex,
}

impl JoinReadyInputs {
    /// The one constructor: sort every partition of `shuffled` in place and hand each
    /// partition, the moment it is ready, to `visit` — so a cold query prepares and
    /// joins a partition in one visit while its ids are in cache, in one parallel pass.
    ///
    /// `tasks` are contiguous partition ranges covering `0..num_partitions` in order.
    /// A task's partitions run sequentially on one thread; tasks run concurrently
    /// under `par`. `visit` receives the instant its partition's sort began. Returns,
    /// per task, its partitions' results in partition order and the task's wall
    /// seconds.
    ///
    /// # Panics
    /// Panics if the two arenas disagree on the partition count or `tasks` does not
    /// cover it: a partition zipped away or left unvisited would silently drop out
    /// of the join.
    pub(crate) fn prepare_with<R: Send>(
        shuffled: ShuffledInputs,
        s: &Relation,
        t: &Relation,
        par: &Parallelism<'_>,
        tasks: &[(usize, usize)],
        visit: impl Fn(Instant, ReadyPartition<'_>) -> R + Sync,
    ) -> (JoinReadyInputs, Vec<(Vec<R>, f64)>) {
        let ShuffledInputs {
            mut s_parts,
            mut t_parts,
            ..
        } = shuffled;
        assert_eq!(
            s_parts.num_partitions(),
            t_parts.num_partitions(),
            "the S and T arenas were shuffled for different partitionings"
        );
        assert_eq!(
            tasks.iter().map(|&(lo, hi)| hi - lo).sum::<usize>(),
            s_parts.num_partitions(),
            "tasks must cover every partition: an unvisited one would stay unsorted"
        );
        // One work item per task: its partitions' `(S ids, T ids)`, each slice
        // mutably and disjointly borrowed from the two arenas.
        let mut slices = s_parts.parts_mut().into_iter().zip(t_parts.parts_mut());
        let work: Vec<Vec<IdSlices<'_>>> = tasks
            .iter()
            .map(|&(lo, hi)| slices.by_ref().take(hi - lo).collect())
            .collect();
        let run_task = |parts: Vec<IdSlices<'_>>| {
            let task_start = Instant::now();
            let results = parts
                .into_iter()
                .map(|(s_ids, t_ids)| {
                    let started = Instant::now();
                    visit(started, prepare_partition(s, t, s_ids, t_ids))
                })
                .collect();
            (results, task_start.elapsed().as_secs_f64())
        };
        let results = if par.is_parallel() && work.len() > 1 {
            par.run(|| work.into_par_iter().map(run_task).collect())
        } else {
            work.into_iter().map(run_task).collect()
        };
        (JoinReadyInputs { s_parts, t_parts }, results)
    }

    /// [`JoinReadyInputs::prepare_with`] as a pass of its own, for reduces that must
    /// *share* the arenas: a supervised shard may be attempted twice at once
    /// (speculation) and again after a crash (retry), so no attempt may own them.
    /// Also returns the pass's wall seconds (they belong to the reduce phase).
    pub(crate) fn prepare(
        shuffled: ShuffledInputs,
        s: &Relation,
        t: &Relation,
        par: &Parallelism<'_>,
    ) -> (JoinReadyInputs, f64) {
        let start = Instant::now();
        let tasks = partition_tasks(shuffled.s_parts.num_partitions(), par);
        let (ready, _) = Self::prepare_with(shuffled, s, t, par, &tasks, |_, _| ());
        (ready, start.elapsed().as_secs_f64())
    }

    /// Partition `p`'s join-ready slices.
    pub(crate) fn part(&self, p: usize) -> ReadyPartition<'_> {
        ReadyPartition {
            s_sorted: self.s_parts.part(p),
            t_sorted: self.t_parts.part(p),
        }
    }

    /// The S arena; each partition in `(dimension 0, id)` order.
    pub fn s_parts(&self) -> &PartitionedIndex {
        &self.s_parts
    }

    /// The T arena; each partition in `(dimension 0, id)` order.
    pub fn t_parts(&self) -> &PartitionedIndex {
        &self.t_parts
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.s_parts.num_partitions()
    }

    /// Bytes held by both arenas — equal to [`ShuffledInputs::arena_bytes`] of the
    /// shuffle these inputs were prepared from.
    pub fn arena_bytes(&self) -> u64 {
        self.s_parts.arena_bytes() + self.t_parts.arena_bytes()
    }
}

/// Tasks per thread of a partition-parallel pass: a few, so the dynamic scheduler can
/// balance partitions of uneven cost.
const TASKS_PER_THREAD: usize = 8;

/// The tasks of a partition-parallel [`JoinReadyInputs::prepare_with`] pass:
/// [`TASKS_PER_THREAD`] near-equal contiguous ranges per thread.
pub(crate) fn partition_tasks(num_partitions: usize, par: &Parallelism<'_>) -> Vec<(usize, usize)> {
    chunk_ranges(num_partitions, par.threads() * TASKS_PER_THREAD)
}

#[cfg(test)]
mod tests {
    //! The differential harness of the reduce: prepare + sweep against the scalar
    //! index-nested-loop oracle on the shuffle's ascending slices.

    use super::*;
    use crate::local_join::{probe_scalar, SortedProbeSide};
    use crate::shuffle::shuffle;
    use proptest::prelude::*;
    use recpart::{PartitionId, Partitioner};

    /// The first `dims` coordinates of every row.
    fn relation(rows: &[Vec<f64>], dims: usize) -> Relation {
        Relation::from_flat(
            dims,
            rows.iter().flat_map(|row| &row[..dims]).copied().collect(),
        )
    }

    /// The coordinates ties are made of, and the band widths [`eps`] pools.
    fn pooled_coord() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.5f64),
            Just(-1.0f64),
            Just(0.0f64),
            Just(-0.0f64),
            Just(0.3f64)
        ]
    }

    fn pooled_eps() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.1f64), Just(0.9f64)]
    }

    /// Heavy ties, both zeros and both infinities (no NaN: `Relation` rejects it),
    /// where `∞ − ∞` is a NaN difference that matches the band condition. And `x ± ε`
    /// of a pooled coordinate and a pooled band width: the bounds of `x`'s window,
    /// where `v ≥ x − ε` and `x − v ≤ ε` can round apart (`0.3 − (0.3 + 0.1) < −0.1`).
    fn coord() -> impl Strategy<Value = f64> {
        prop_oneof![
            6 => -25.0f64..25.0,
            4 => pooled_coord(),
            3 => (pooled_coord(), pooled_eps(), any::<bool>())
                .prop_map(|(x, eps, up)| if up { x + eps } else { x - eps }),
            1 => prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
        ]
    }

    /// Mostly small sides (empty and single-tuple included), sometimes one past the
    /// 1,024- and 2,048-probe marks the blocked probe path restarts its window at.
    fn rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
        prop_oneof![
            8 => prop::collection::vec(prop::collection::vec(coord(), 8), 0..70),
            1 => prop::collection::vec(prop::collection::vec(coord(), 8), 1_030..1_100),
            1 => prop::collection::vec(prop::collection::vec(coord(), 8), 2_060..2_120),
        ]
    }

    fn eps() -> impl Strategy<Value = f64> {
        prop_oneof![2 => Just(0.0f64), 1 => Just(-0.0f64), 5 => 0.0f64..8.0, 2 => pooled_eps()]
    }

    /// Routes by tuple id alone: tuple `i` to partition `i % k`, every `copy_every`-th
    /// tuple to a second partition as well — ascending, duplicate-free lists.
    struct ByTupleId {
        k: usize,
        copy_every: u64,
    }

    impl Partitioner for ByTupleId {
        fn num_partitions(&self) -> usize {
            self.k
        }
        fn assign_s(&self, _key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            let k = self.k as u64;
            out.push((tuple_id % k) as PartitionId);
            if tuple_id.is_multiple_of(self.copy_every) && k > 1 {
                out.push(((tuple_id + 1) % k) as PartitionId);
            }
        }
        fn assign_t(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            self.assign_s(key, tuple_id.wrapping_mul(3), out);
        }
        fn name(&self) -> &str {
            "ByTupleId"
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn prepare_and_sweep_equal_the_scalar_oracle_on_the_ascending_slices(
            dims in 1usize..9,
            s_rows in rows(),
            t_rows in rows(),
            eps_lo in prop::collection::vec(eps(), 8),
            eps_hi in prop::collection::vec(eps(), 8),
            symmetric in any::<bool>(),
            k in 1usize..5,
            copy_every in 2u64..9,
        ) {
            let s = relation(&s_rows, dims);
            let t = relation(&t_rows, dims);
            let band = if symmetric {
                BandCondition::symmetric(&eps_lo[..dims])
            } else {
                BandCondition::try_asymmetric(&eps_lo[..dims], &eps_hi[..dims]).unwrap()
            };
            let partitioner = ByTupleId { k, copy_every };
            let pool2 = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
            let pool4 = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
            // The oracle: the scalar per-probe loop on the raw ascending slices.
            let raw = shuffle(&partitioner, &s, &t, k, &Parallelism::Sequential, 0);
            let oracle: Vec<(LocalJoinResult, Vec<(u32, u32)>)> = (0..k)
                .map(|p| {
                    let mut pairs = Vec::new();
                    let side = SortedProbeSide::build(&t, raw.t_parts.part(p));
                    let s_idx = raw.s_parts.part(p).iter().copied();
                    let result = probe_scalar(&s, &t, &side, &band, s_idx, Some(&mut pairs));
                    (result, pairs)
                })
                .collect();

            // Chunk by thread count, then streaming chunks of 97 and of 1.
            for (par, chunk_tuples) in [
                (Parallelism::Sequential, 0),
                (Parallelism::Pool(&pool2), 97),
                (Parallelism::Pool(&pool4), 1),
            ] {
                let shuffled = shuffle(&partitioner, &s, &t, k, &par, chunk_tuples);
                let (ready, _) = JoinReadyInputs::prepare(shuffled, &s, &t, &par);

                // Same bytes, same ids per partition: a permutation, nothing beside it.
                prop_assert_eq!(ready.arena_bytes(), raw.arena_bytes());
                for (got, want) in [(ready.s_parts(), &raw.s_parts), (ready.t_parts(), &raw.t_parts)] {
                    for p in 0..k {
                        let mut ids = got.part(p).to_vec();
                        ids.sort_unstable();
                        prop_assert_eq!(&ids[..], want.part(p));
                    }
                }
                // The sorted-slice invariant itself, on both sides.
                for (side, parts, rel) in [("S", ready.s_parts(), &s), ("T", ready.t_parts(), &t)] {
                    let key = rel.column(0);
                    for p in 0..k {
                        prop_assert!(
                            parts.part(p).is_sorted_by(|&a, &b| {
                                key[a as usize].total_cmp(&key[b as usize]).then(a.cmp(&b)).is_lt()
                            }),
                            "{} partition {}: not in (dim-0 total_cmp, id) order", side, p
                        );
                    }
                }

                for (p, (want, want_pairs)) in oracle.iter().enumerate() {
                    for kernel in JoinKernel::all_supported() {
                        let label = format!("partition {p} kernel {} threads {}", kernel.name(), par.threads());
                        let mut pairs = Vec::new();
                        let got = ready.part(p).join(kernel, &s, &t, &band, Some(&mut pairs));
                        prop_assert_eq!(got, *want, "{}", label);
                        prop_assert_eq!(&pairs, want_pairs, "{}: pairs and pair order", label);
                        // The count-only path takes different kernel code; same counters.
                        let counted = ready.part(p).join(kernel, &s, &t, &band, None);
                        prop_assert_eq!(counted, *want, "{} count-only", label);
                    }
                }
            }
        }
    }
}
