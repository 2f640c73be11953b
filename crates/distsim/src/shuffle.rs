//! The map/shuffle phase: route every input tuple through the partitioner and
//! materialize per-partition input index lists.
//!
//! The per-partition lists live in one flat arena per side ([`PartitionedIndex`]),
//! built with a **two-pass record/replay layout** over the partitioner's block API
//! (`Partitioner::assign_s_block`/`assign_t_block` into an
//! [`AssignmentSink`](recpart::AssignmentSink)):
//!
//! * each side is cut into contiguous chunks of at most `SHUFFLE_CHUNK_TUPLES`
//!   tuples, which fan out over the executor's threads whenever there is more than
//!   one;
//! * **pass 1 (route)** routes each chunk once into a pair-recording sink — its
//!   `(partition, tuple)` pairs in routing order plus per-partition counts;
//! * the counts of all chunks are prefix-summed into exact per-(chunk, partition)
//!   arena offsets;
//! * **pass 2 (replay)** writes each chunk's pairs through per-partition cursors
//!   that start at those offsets, so every tuple index lands **directly in its
//!   final arena slot**.
//!
//! No per-tuple `Vec<PartitionId>` buffer, no per-chunk per-partition buckets, and
//! no merge copy; the transient state is 8 bytes per assignment of the side being
//! routed. Chunks are contiguous ascending index ranges laid out in chunk order,
//! and the block API is required to emit assignments in per-tuple routing order,
//! so the arena contents are bit-identical to per-tuple sequential routing no
//! matter how many threads ran the fan-out or how large the chunks are.
//! Downstream local joins and verification therefore see exactly the same inputs
//! for every `threads` setting.
//!
//! The shuffle is a pure, infallible function of the partitioner and the inputs,
//! and it does no I/O: [`shuffle`] returns the arenas, not a `Result`. Injected
//! faults fire in [`crate::supervise`], before each retried attempt calls it.

use recpart::{AssignmentSink, Parallelism, Partitioner, Relation};
use std::time::Instant;

/// Tuples routed per shuffle chunk: enough to amortize a chunk's per-partition
/// count vector and cursor table, few enough that a side of a 1M-tuple input
/// yields ~16 chunks to balance over the threads and a chunk's pair list stays at
/// half a megabyte per unit of duplication (DESIGN.md §12).
const SHUFFLE_CHUNK_TUPLES: usize = 65_536;

/// Per-partition tuple-index lists stored as one flat arena plus partition offsets
/// (CSR layout): partition `p` owns `data[offsets[p]..offsets[p + 1]]`. As the shuffle
/// returns it, every partition is in routing (ascending tuple-index) order; once
/// the reduce has made the index join-ready, every partition is in dimension-0 order
/// instead (same ids, same offsets, same bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedIndex {
    data: Vec<u32>,
    offsets: Vec<usize>,
}

impl PartitionedIndex {
    /// An index with `num_partitions` empty partitions.
    pub fn empty(num_partitions: usize) -> Self {
        PartitionedIndex {
            data: Vec::new(),
            offsets: vec![0; num_partitions + 1],
        }
    }

    /// Build an index directly from per-partition index lists (the executor builds
    /// arenas through the shuffle instead).
    #[cfg(test)]
    pub(crate) fn from_parts(parts: &[Vec<u32>]) -> Self {
        let mut data = Vec::new();
        let mut offsets = Vec::with_capacity(parts.len() + 1);
        offsets.push(0);
        for part in parts {
            data.extend_from_slice(part);
            offsets.push(data.len());
        }
        PartitionedIndex { data, offsets }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The tuple indices routed to partition `p`: ascending in a shuffle's own output
    /// ([`ShuffledInputs`]), in dimension-0 order once the index is join-ready.
    pub fn part(&self, p: usize) -> &[u32] {
        &self.data[self.offsets[p]..self.offsets[p + 1]]
    }

    /// Every partition's slice at once, mutably and disjointly, in partition order —
    /// what lets the prepare step sort partitions in place on several threads.
    pub(crate) fn parts_mut(&mut self) -> Vec<&mut [u32]> {
        let mut rest = &mut self.data[..];
        self.offsets
            .windows(2)
            .map(|w| {
                let (part, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
                rest = tail;
                part
            })
            .collect()
    }

    /// Total number of assignments across all partitions.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no tuple was routed anywhere.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes held by the arena and the offset table — the number the scale-tier
    /// memory gates account against. Deterministic (derived from lengths, not
    /// allocator state).
    pub fn arena_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<u32>()
            + self.offsets.len() * std::mem::size_of::<usize>()) as u64
    }
}

/// The materialized result of the map/shuffle phase.
#[derive(Debug, Clone)]
pub struct ShuffledInputs {
    /// For each partition, the indices of the S-tuples routed to it (ascending).
    pub s_parts: PartitionedIndex,
    /// For each partition, the indices of the T-tuples routed to it (ascending).
    pub t_parts: PartitionedIndex,
    /// Measured wall-clock seconds of the whole phase (both sides).
    pub wall_seconds: f64,
}

impl ShuffledInputs {
    /// Total number of partition assignments, the paper's total input `I`.
    pub fn total_input(&self) -> u64 {
        (self.s_parts.len() + self.t_parts.len()) as u64
    }

    /// Bytes held by both sides' arenas (see [`PartitionedIndex::arena_bytes`]).
    pub fn arena_bytes(&self) -> u64 {
        self.s_parts.arena_bytes() + self.t_parts.arena_bytes()
    }
}

/// Which side of the join a routing pass handles.
#[derive(Debug, Clone, Copy)]
enum Side {
    S,
    T,
}

/// Route both sides of the join, fanned out under `par`.
pub(crate) fn shuffle<P: Partitioner + ?Sized>(
    partitioner: &P,
    s: &Relation,
    t: &Relation,
    num_partitions: usize,
    par: Parallelism,
) -> ShuffledInputs {
    let start = Instant::now();
    let chunk = SHUFFLE_CHUNK_TUPLES;
    let s_parts = route_side(partitioner, s, num_partitions, par, Side::S, chunk);
    let t_parts = route_side(partitioner, t, num_partitions, par, Side::T, chunk);
    ShuffledInputs {
        s_parts,
        t_parts,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

/// Raw arena pointer handed to the replay pass. Safety: the offset layout gives
/// every `(chunk, partition)` pair a disjoint slice of the arena, so concurrent
/// chunk writers never alias.
struct ArenaPtr(*mut u32);
unsafe impl Send for ArenaPtr {}
unsafe impl Sync for ArenaPtr {}

/// The exact arena layout derived from pass-1 counts: partition-major `offsets`
/// (CSR), per-(chunk, partition) write-cursor `chunk_bases` in chunk order, and the
/// arena length.
struct ArenaLayout {
    offsets: Vec<usize>,
    chunk_bases: Vec<Vec<usize>>,
    total: usize,
}

/// Prefix-sum the per-chunk, per-partition pass-1 counts into the arena layout.
///
/// All accumulation happens in `u64` with checked adds before a single checked
/// narrowing to `usize` per emitted offset: at ≥ 2^32 total assignments the old
/// `usize`-accumulating sum would wrap silently on 32-bit targets, and an
/// unchecked `as usize` would truncate rather than fail. Overflow
/// here means the requested arena cannot exist — panicking with a sized message
/// beats replaying through a wrapped cursor.
fn arena_layout(per_chunk_counts: &[&[u64]], num_partitions: usize) -> ArenaLayout {
    let widen = |v: u64| -> usize {
        usize::try_from(v)
            .expect("arena offset exceeds the addressable size (usize) of this target")
    };
    // Partition-major totals, accumulated in u64.
    let mut offsets64 = Vec::with_capacity(num_partitions + 1);
    offsets64.push(0u64);
    for p in 0..num_partitions {
        let mut end = offsets64[p];
        for counts in per_chunk_counts {
            end = end
                .checked_add(counts[p])
                .expect("total assignment count overflows u64");
        }
        offsets64.push(end);
    }
    // Per-(partition, chunk) write cursors in chunk order, so the arena reproduces
    // the sequential layout. Cursor sums are bounded by the offsets just checked,
    // so plain adds cannot overflow here.
    let mut chunk_bases = Vec::with_capacity(per_chunk_counts.len());
    let mut cursor: Vec<u64> = offsets64[..num_partitions].to_vec();
    for counts in per_chunk_counts {
        chunk_bases.push(cursor.iter().copied().map(widen).collect());
        for (slot, &c) in cursor.iter_mut().zip(*counts) {
            *slot += c;
        }
    }
    debug_assert_eq!(&cursor[..], &offsets64[1..]);
    let offsets: Vec<usize> = offsets64.into_iter().map(widen).collect();
    let total = offsets[num_partitions];
    ArenaLayout {
        offsets,
        chunk_bases,
        total,
    }
}

/// Contiguous ranges of at most `chunk_tuples` tuples each, in index order (none
/// for an empty input).
fn bounded_ranges(n: usize, chunk_tuples: usize) -> Vec<(usize, usize)> {
    let chunk_tuples = chunk_tuples.max(1);
    (0..n)
        .step_by(chunk_tuples)
        .map(|lo| (lo, (lo + chunk_tuples).min(n)))
        .collect()
}

/// Route one relation into a flat per-partition arena with the two-pass
/// record/replay layout described in the module docs, `chunk_tuples` tuples per
/// chunk. Pass 1 hands each contiguous chunk to the partitioner's block API —
/// there is no per-tuple routing buffer anywhere on this path.
fn route_side<P: Partitioner + ?Sized>(
    partitioner: &P,
    rel: &Relation,
    num_partitions: usize,
    par: Parallelism,
    side: Side,
    chunk_tuples: usize,
) -> PartitionedIndex {
    let n = rel.len();
    // Tuple indices travel as u32 through sinks and arenas; fail loudly at the
    // chokepoint instead of truncating on the way in.
    assert!(
        n <= u32::MAX as usize + 1,
        "relation has {n} tuples but tuple indices are u32"
    );
    let ranges = bounded_ranges(n, chunk_tuples);
    if ranges.is_empty() {
        return PartitionedIndex::empty(num_partitions);
    }

    // Pass 1 (route): record every chunk's `(partition, tuple)` pairs and counts.
    let route_one = |(lo, hi): (usize, usize)| -> AssignmentSink {
        let mut sink = AssignmentSink::new(num_partitions);
        sink.reserve(hi - lo);
        // Definition 1 requires h(x) ≠ ∅ for *every* tuple — check coverage per
        // tuple, not just in aggregate (a dropped tuple could otherwise hide
        // behind another tuple's duplicate).
        #[cfg(debug_assertions)]
        sink.track_coverage(lo..hi);
        match side {
            Side::S => partitioner.assign_s_block(rel, lo..hi, &mut sink),
            Side::T => partitioner.assign_t_block(rel, lo..hi, &mut sink),
        }
        #[cfg(debug_assertions)]
        debug_assert!(
            sink.covered_every_tuple(),
            "partitioner dropped a tuple (Definition 1 requires h(x) != empty)"
        );
        // A duplication just above 1 has doubled the buffer past its reservation;
        // the pairs are held until pass 2, so give the spare half back now.
        sink.shrink_to_fit();
        sink
    };
    let chunks: Vec<AssignmentSink> = par.map(ranges, route_one);

    // Exact arena offsets from the merged per-chunk counts (checked widening —
    // see [`arena_layout`]).
    let per_chunk_counts: Vec<&[u64]> = chunks.iter().map(|c| c.counts()).collect();
    let ArenaLayout {
        offsets,
        chunk_bases,
        total,
    } = arena_layout(&per_chunk_counts, num_partitions);
    drop(per_chunk_counts);

    // Pass 2 (replay): write each chunk's pairs, in routing order, through cursors
    // that start at the chunk's slice of every partition.
    let mut data = vec![0u32; total];
    let arena = ArenaPtr(data.as_mut_ptr());
    // Borrow the wrapper (not the raw pointer field) so the replay closure stays
    // `Sync` under edition-2021 disjoint capture.
    let arena = &arena;
    let replay = |c: usize| {
        let mut cursor = chunk_bases[c].clone();
        for &(p, i) in chunks[c].pairs() {
            // SAFETY: `cursor[p]` stays within this chunk's slice of partition
            // `p`: it starts at the chunk's base and advances once per recorded
            // pair, and a sink never records more pairs for `p` than `counts()[p]`,
            // which sized the slice. The slices are disjoint across chunks and
            // partitions, and `p` itself is bounds-checked by `cursor[p]`.
            unsafe {
                *arena.0.add(cursor[p as usize]) = i;
            }
            cursor[p as usize] += 1;
        }
    };
    par.map((0..chunks.len()).collect(), replay);

    PartitionedIndex { data, offsets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use recpart::SinglePartition;
    use recpart::{BandCondition, PartitionId, RecPart, RecPartConfig, SplitTreePartitioner};

    fn relation(n: usize) -> Relation {
        let mut r = Relation::with_capacity(1, n);
        for i in 0..n {
            r.push(&[i as f64]);
        }
        r
    }

    /// Routes tuple `i` to partition `i % m`, plus partition `0` for multiples of 7 —
    /// exercises multi-partition assignments.
    struct ModPartitioner(usize);
    impl Partitioner for ModPartitioner {
        fn num_partitions(&self) -> usize {
            self.0
        }
        fn assign_s(&self, _key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            out.push((tuple_id % self.0 as u64) as PartitionId);
            if tuple_id.is_multiple_of(7) && !tuple_id.is_multiple_of(self.0 as u64) {
                out.push(0);
            }
        }
        fn assign_t(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            self.assign_s(key, tuple_id, out);
        }
        fn name(&self) -> &str {
            "Mod"
        }
    }

    #[test]
    fn parallel_routing_is_bit_identical_to_sequential() {
        // Several chunks a side, the last one partial.
        let s = relation(2 * SHUFFLE_CHUNK_TUPLES + 10_000);
        let t = relation(SHUFFLE_CHUNK_TUPLES + 9_000);
        let p = ModPartitioner(13);
        let seq = shuffle(&p, &s, &t, 13, Parallelism::new(1));
        let par = shuffle(&p, &s, &t, 13, Parallelism::new(4));
        assert_eq!(seq.s_parts, par.s_parts);
        assert_eq!(seq.t_parts, par.t_parts);
    }

    #[test]
    fn index_lists_are_ascending() {
        let s = relation(2 * SHUFFLE_CHUNK_TUPLES + 8_192);
        let t = relation(2 * SHUFFLE_CHUNK_TUPLES + 8_192);
        let shuffled = shuffle(&ModPartitioner(5), &s, &t, 5, Parallelism::new(4));
        for parts in [&shuffled.s_parts, &shuffled.t_parts] {
            for list in (0..parts.num_partitions()).map(|p| parts.part(p)) {
                assert!(list.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn every_tuple_is_routed_at_least_once() {
        let s = relation(5_000);
        let t = relation(5_000);
        let shuffled = shuffle(&SinglePartition, &s, &t, 1, Parallelism::new(4));
        assert_eq!(shuffled.s_parts.part(0).len(), 5_000);
        assert_eq!(shuffled.t_parts.part(0).len(), 5_000);
        assert_eq!(shuffled.total_input(), 10_000);
        assert!(shuffled.wall_seconds >= 0.0);
        assert!(shuffled.arena_bytes() > 0);
    }

    #[test]
    fn single_chunk_inputs_match_sequential_routing() {
        let s = relation(10);
        let t = relation(10);
        let shuffled = shuffle(&ModPartitioner(3), &s, &t, 3, Parallelism::new(0));
        let seq = shuffle(&ModPartitioner(3), &s, &t, 3, Parallelism::new(1));
        assert_eq!(shuffled.s_parts, seq.s_parts);
        assert_eq!(shuffled.t_parts, seq.t_parts);
    }

    #[test]
    fn block_override_matches_per_tuple_fallback_arena() {
        // `PerTuple` forwards no block method: it routes through the trait's
        // per-tuple defaults.
        let s = relation(SHUFFLE_CHUNK_TUPLES + 9_000);
        let t = relation(5_000);
        for par in [Parallelism::new(1), Parallelism::new(4)] {
            let block = shuffle(&SinglePartition, &s, &t, 1, par);
            let per_tuple = shuffle(&PerTuple(&SinglePartition), &s, &t, 1, par);
            assert_eq!(block.s_parts, per_tuple.s_parts);
            assert_eq!(block.t_parts, per_tuple.t_parts);
        }
    }

    /// Adapter that hides a partitioner's block methods, so routing falls back to
    /// the trait's per-tuple defaults.
    struct PerTuple<'a, P: ?Sized>(&'a P);
    impl<P: Partitioner + ?Sized> Partitioner for PerTuple<'_, P> {
        fn num_partitions(&self) -> usize {
            self.0.num_partitions()
        }
        fn assign_s(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            self.0.assign_s(key, tuple_id, out)
        }
        fn assign_t(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            self.0.assign_t(key, tuple_id, out)
        }
        fn name(&self) -> &str {
            self.0.name()
        }
    }

    /// The arena sequential per-tuple routing builds, one `assign_*` call per tuple
    /// — the oracle of every chunked, parallel shuffle.
    fn per_tuple_arena(p: &dyn Partitioner, rel: &Relation, side: Side) -> PartitionedIndex {
        let mut parts = vec![Vec::new(); p.num_partitions()];
        let mut buf = Vec::new();
        for i in 0..rel.len() {
            buf.clear();
            match side {
                Side::S => p.assign_s(&rel.key(i), i as u64, &mut buf),
                Side::T => p.assign_t(&rel.key(i), i as u64, &mut buf),
            }
            for &part in &buf {
                parts[part as usize].push(i as u32);
            }
        }
        PartitionedIndex::from_parts(&parts)
    }

    /// A toy multi-assignment partitioner and a real RecPart plan over two skewed
    /// random sides, both partitioners duplicating tuples.
    struct OracleFixture {
        s: Relation,
        t: Relation,
        modp: ModPartitioner,
        recpart: SplitTreePartitioner,
    }

    fn oracle_fixture() -> OracleFixture {
        let mut rng = StdRng::seed_from_u64(0x5417);
        let mut random_relation = |n: usize| {
            let mut r = Relation::with_capacity(1, n);
            for _ in 0..n {
                r.push(&[rng.gen::<f64>().powi(3) * 100.0]);
            }
            r
        };
        let (s, t) = (random_relation(80_000), random_relation(50_000));
        let band = BandCondition::symmetric(&[0.05]);
        let recpart = RecPart::new(RecPartConfig::new(4).with_seed(3))
            .optimize(&s, &t, &band, &mut StdRng::seed_from_u64(3))
            .partitioner;
        OracleFixture {
            s,
            t,
            modp: ModPartitioner(11),
            recpart,
        }
    }

    impl OracleFixture {
        fn partitioners(&self) -> [&dyn Partitioner; 2] {
            [&self.modp, &self.recpart]
        }
    }

    /// The shuffle's scatter — replaying the `(partition, tuple)` pairs pass 1
    /// recorded — must write the arena that re-routing every tuple writes (the
    /// per-tuple oracle), on one thread and on four, for both partitioners.
    #[test]
    fn scatter_policies_produce_identical_arenas() {
        let fx = oracle_fixture();
        for p in fx.partitioners() {
            let k = p.num_partitions();
            let s_oracle = per_tuple_arena(p, &fx.s, Side::S);
            let t_oracle = per_tuple_arena(p, &fx.t, Side::T);
            assert!(
                s_oracle.len() > fx.s.len(),
                "{}: no tuple duplicated",
                p.name()
            );
            assert!(
                t_oracle.len() > fx.t.len(),
                "{}: no tuple duplicated",
                p.name()
            );
            for par in [Parallelism::new(1), Parallelism::new(4)] {
                let got = shuffle(p, &fx.s, &fx.t, k, par);
                assert!(
                    got.s_parts == s_oracle,
                    "{} side S threads={}",
                    p.name(),
                    par.threads()
                );
                assert!(
                    got.t_parts == t_oracle,
                    "{} side T threads={}",
                    p.name(),
                    par.threads()
                );
            }
        }
    }

    /// Every chunk size — one tuple, sizes that do not divide the input, one chunk
    /// larger than either side (a whole side routed as one block) — on one thread
    /// and on four must write the per-tuple oracle's arena bit for bit.
    #[test]
    fn streaming_arenas_are_bit_identical_to_legacy() {
        let fx = oracle_fixture();
        for p in fx.partitioners() {
            let k = p.num_partitions();
            for (rel, side) in [(&fx.s, Side::S), (&fx.t, Side::T)] {
                let oracle = per_tuple_arena(p, rel, side);
                for chunk_tuples in [1usize, 777, 4_096, 100_000] {
                    for par in [Parallelism::new(1), Parallelism::new(4)] {
                        let got = route_side(p, rel, k, par, side, chunk_tuples);
                        assert!(
                            got == oracle,
                            "{} side {side:?} chunk={chunk_tuples} threads={}",
                            p.name(),
                            par.threads()
                        );
                    }
                }
            }
        }
    }

    /// The checked layout helper must survive synthetic counts whose offsets exceed
    /// `u32` — the regime the overflow audit is about — and must agree with a plain
    /// prefix sum.
    #[test]
    fn arena_layout_handles_offsets_beyond_u32() {
        let c0 = [0x8000_0000u64, 3, 0];
        let c1 = [0x8000_0001u64, 5, 0x1_0000_0000];
        let layout = arena_layout(&[&c0, &c1], 3);
        assert_eq!(
            layout.offsets,
            vec![
                0,
                0x1_0000_0001, // > u32::MAX: would have truncated via `as u32`
                0x1_0000_0001 + 8,
                0x1_0000_0001 + 8 + 0x1_0000_0000,
            ]
        );
        assert_eq!(layout.total, *layout.offsets.last().unwrap());
        assert_eq!(layout.chunk_bases.len(), 2);
        assert_eq!(
            layout.chunk_bases[0],
            vec![0, 0x1_0000_0001, 0x1_0000_0001 + 8]
        );
        assert_eq!(
            layout.chunk_bases[1],
            vec![0x8000_0000, 0x1_0000_0001 + 3, 0x1_0000_0001 + 8]
        );
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn arena_layout_rejects_u64_overflow() {
        let c0 = [u64::MAX];
        let c1 = [1u64];
        let _ = arena_layout(&[&c0, &c1], 1);
    }

    #[test]
    fn arena_offsets_are_consistent() {
        let s = relation(6_000);
        let t = relation(100);
        let shuffled = shuffle(&ModPartitioner(7), &s, &t, 7, Parallelism::new(1));
        for parts in [&shuffled.s_parts, &shuffled.t_parts] {
            assert_eq!(parts.num_partitions(), 7);
            let total: usize = (0..parts.num_partitions())
                .map(|p| parts.part(p).len())
                .sum();
            assert_eq!(total, parts.len());
        }
        assert!(shuffled.s_parts.len() >= 6_000, "duplicates counted");
        assert!(!shuffled.s_parts.is_empty());
        let empty = PartitionedIndex::empty(3);
        assert_eq!(empty.num_partitions(), 3);
        assert!(empty.is_empty());
        assert_eq!(empty.part(2), &[] as &[u32]);
    }
}
