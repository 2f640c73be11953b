//! The [`Partitioner`] trait — the common interface of every distributed band-join
//! partitioning strategy (RecPart, 1-Bucket, Grid-ε, CSIO, …).
//!
//! A partitioner realizes Definition 1 of the paper: an assignment
//! `h : S ∪ T → 2^{1..P} \ ∅` of every input tuple to one or more *partitions* such that
//! every join result can be recovered by exactly one local join. Partitions are later
//! mapped onto the `w` workers (see `distsim::executor`); separating the two stages
//! mirrors how MapReduce/Spark map logical reduce partitions onto physical executors.

use crate::relation::Relation;
use std::ops::Range;

/// Identifier of a logical partition produced by a [`Partitioner`].
pub type PartitionId = u32;

/// Tuples per block when a block-oriented caller (e.g. Grid\*'s per-cell input
/// histogram) has no chunk layout of its own. Small enough
/// that the sink stays cache-resident, large enough to amortize the per-block setup.
pub const DEFAULT_BLOCK_TUPLES: usize = 4_096;

/// The mode-specific storage of an [`AssignmentSink`].
#[derive(Debug, PartialEq, Eq)]
enum SinkState {
    /// Materialize `(partition, tuple)` pairs in routing order plus per-partition
    /// counts — pass 1 of the two-pass shuffle, whose pass 2 replays the pairs.
    Pairs {
        pairs: Vec<(PartitionId, u32)>,
        counts: Vec<u64>,
    },
    /// Count assignments per partition, materializing nothing — for callers that
    /// need `I` or the partition sizes but no arena.
    Counting { counts: Vec<u64>, total: u64 },
}

/// Per-tuple coverage tracker, active in debug builds when a caller asks for it:
/// Definition 1 requires `h(x) ≠ ∅` for *every* tuple, and a dropped tuple could
/// otherwise hide behind another tuple's duplicate in the aggregate counts.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Coverage {
    lo: u32,
    seen: Vec<bool>,
}

/// Flat output of the block routing API: the assignments of one block of tuples in
/// routing order, recorded in one of two modes:
///
/// * **pairs** ([`AssignmentSink::new`]) — materialized `(partition, tuple index)`
///   pairs plus per-partition counts; pass 1 of the two-pass shuffle
///   (`distsim::shuffle`), whose pass 2 replays them into the arena.
/// * **counting** ([`AssignmentSink::counting`]) — per-partition counts only, for
///   callers that need `I` or the partition sizes but no arena (Grid\*'s per-cell
///   input histogram).
///
/// Block implementations ([`Partitioner::assign_s_block`] and friends) just call
/// [`AssignmentSink::push`] and never observe the mode. Assignments must be appended
/// grouped by tuple, tuples in ascending index order — the same order the per-tuple
/// [`Partitioner::assign_s`]/[`Partitioner::assign_t`] loop produces — so that
/// per-partition arena contents stay bit-identical to per-tuple routing.
#[derive(Debug, PartialEq, Eq)]
pub struct AssignmentSink {
    state: SinkState,
    #[cfg(debug_assertions)]
    coverage: Option<Coverage>,
}

impl Default for AssignmentSink {
    fn default() -> Self {
        AssignmentSink::new(0)
    }
}

impl AssignmentSink {
    /// An empty pair-recording sink for `num_partitions` partitions.
    pub fn new(num_partitions: usize) -> Self {
        AssignmentSink {
            state: SinkState::Pairs {
                pairs: Vec::new(),
                counts: vec![0; num_partitions],
            },
            #[cfg(debug_assertions)]
            coverage: None,
        }
    }

    /// An empty count-only sink for `num_partitions` partitions: records per-partition
    /// assignment counts and the total, materializing no pairs.
    pub fn counting(num_partitions: usize) -> Self {
        AssignmentSink {
            state: SinkState::Counting {
                counts: vec![0; num_partitions],
                total: 0,
            },
            #[cfg(debug_assertions)]
            coverage: None,
        }
    }

    /// Clear the sink and re-size it for `num_partitions` partitions, keeping the
    /// buffer allocations so one sink can be reused across blocks.
    pub fn reset(&mut self, num_partitions: usize) {
        match &mut self.state {
            SinkState::Pairs { pairs, counts } => {
                pairs.clear();
                counts.clear();
                counts.resize(num_partitions, 0);
            }
            SinkState::Counting { counts, total } => {
                counts.clear();
                counts.resize(num_partitions, 0);
                *total = 0;
            }
        }
        #[cfg(debug_assertions)]
        {
            self.coverage = None;
        }
    }

    /// Pre-allocate space for `additional` more assignments (pairs mode only; the
    /// counting mode allocates nothing per assignment).
    pub fn reserve(&mut self, additional: usize) {
        if let SinkState::Pairs { pairs, .. } = &mut self.state {
            pairs.reserve(additional);
        }
    }

    /// Release the pair buffer's spare capacity (pairs mode only). A buffer that
    /// outgrew its reservation by a few pairs has doubled; shrinking it keeps a
    /// held sink at 8 bytes per recorded assignment.
    pub fn shrink_to_fit(&mut self) {
        if let SinkState::Pairs { pairs, .. } = &mut self.state {
            pairs.shrink_to_fit();
        }
    }

    /// Record one assignment: tuple `tuple` goes to partition `partition`.
    #[inline]
    pub fn push(&mut self, partition: PartitionId, tuple: u32) {
        match &mut self.state {
            SinkState::Pairs { pairs, counts } => {
                // Count first: an out-of-range partition panics before a pair is
                // recorded, so even a caller that catches the panic never holds more
                // pairs for a partition than `counts` says — the bound the shuffle's
                // unchecked replay writes rely on.
                counts[partition as usize] += 1;
                pairs.push((partition, tuple));
            }
            SinkState::Counting { counts, total } => {
                counts[partition as usize] += 1;
                *total += 1;
            }
        }
        #[cfg(debug_assertions)]
        if let Some(cov) = &mut self.coverage {
            let i = tuple.wrapping_sub(cov.lo) as usize;
            assert!(
                i < cov.seen.len(),
                "partitioner emitted tuple {tuple} outside the tracked block \
                 {}..{}",
                cov.lo,
                cov.lo as usize + cov.seen.len()
            );
            cov.seen[i] = true;
        }
    }

    /// The recorded `(partition, tuple index)` assignments, in routing order.
    ///
    /// # Panics
    /// Panics unless the sink is in pairs mode — the counting mode exists
    /// precisely to *not* materialize this list.
    pub fn pairs(&self) -> &[(PartitionId, u32)] {
        match &self.state {
            SinkState::Pairs { pairs, .. } => pairs,
            _ => panic!("pairs() requires a pairs-mode sink"),
        }
    }

    /// Per-partition assignment counts (`counts()[p]` = number of assignments
    /// recorded for partition `p`). Counts are `u64` on every platform: the
    /// shuffle merges per-chunk counts across inputs larger than `u32::MAX`
    /// assignments, and a narrower accumulator would silently wrap.
    pub fn counts(&self) -> &[u64] {
        match &self.state {
            SinkState::Pairs { counts, .. } | SinkState::Counting { counts, .. } => counts,
        }
    }

    /// Number of partitions the sink was sized for.
    pub fn num_partitions(&self) -> usize {
        self.counts().len()
    }

    /// Total number of recorded assignments.
    pub fn len(&self) -> usize {
        match &self.state {
            SinkState::Pairs { pairs, .. } => pairs.len(),
            SinkState::Counting { total, .. } => *total as usize,
        }
    }

    /// Whether no assignment was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Debug builds only: track per-tuple coverage of `rows` so
    /// [`AssignmentSink::covered_every_tuple`] can verify that the partitioner
    /// assigned every tuple of the block at least once (Definition 1).
    #[cfg(debug_assertions)]
    pub fn track_coverage(&mut self, rows: Range<usize>) {
        self.coverage = Some(Coverage {
            lo: rows.start as u32,
            seen: vec![false; rows.end - rows.start],
        });
    }

    /// Debug builds only: did every tracked tuple receive at least one assignment?
    #[cfg(debug_assertions)]
    pub fn covered_every_tuple(&self) -> bool {
        self.coverage
            .as_ref()
            .is_none_or(|cov| cov.seen.iter().all(|&s| s))
    }
}

/// A distributed band-join partitioning strategy.
///
/// Implementations must guarantee the *exactly-once* property: for every pair `(s, t)`
/// satisfying the band condition, exactly one partition receives both `s` and `t`.
/// This is what allows each worker to run an unfiltered local band-join on the input it
/// receives without producing duplicate results or missing results.
///
/// The `Send + Sync` supertraits are load-bearing: the executor's parallel map/shuffle
/// phase calls [`assign_s`](Partitioner::assign_s) / [`assign_t`](Partitioner::assign_t)
/// concurrently from many threads on one shared `&self`. Assignments must therefore be
/// pure functions of `(key, tuple_id)` and the partitioner's immutable state — no
/// interior mutability in the assignment path — which also keeps routing deterministic
/// for every thread count.
pub trait Partitioner: Send + Sync {
    /// Total number of logical partitions created by this partitioner.
    fn num_partitions(&self) -> usize;

    /// Append to `out` the partitions that must receive the S-tuple with key `key` and
    /// tuple id `tuple_id`.
    ///
    /// `tuple_id` is used by randomized partitioners (e.g. 1-Bucket) to derive a stable
    /// pseudo-random assignment; deterministic partitioners may ignore it.
    /// Implementations must clear nothing: callers pass a cleared buffer and reuse it
    /// between calls to avoid per-tuple allocations.
    fn assign_s(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>);

    /// Append to `out` the partitions that must receive the T-tuple with key `key`.
    fn assign_t(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>);

    /// Route the S-tuples `rows` of `rel` into `sink` — the block-oriented
    /// counterpart of [`Partitioner::assign_s`].
    ///
    /// Must record, for every tuple index `i` in `rows` in ascending order, exactly
    /// the partitions (ids **and** order) that `assign_s(rel.key(i), i as u64, ..)`
    /// would append, so block routing stays bit-identical to per-tuple routing.
    /// The default implementation loops the per-tuple method with one reused buffer;
    /// strategies with batched arithmetic (closed-form cell math, a compiled split
    /// tree) override it to skip the per-tuple dynamic dispatch entirely.
    fn assign_s_block(&self, rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        let mut buf: Vec<PartitionId> = Vec::new();
        for i in rows {
            buf.clear();
            self.assign_s(&rel.key(i), i as u64, &mut buf);
            for &p in &buf {
                sink.push(p, i as u32);
            }
        }
    }

    /// Route the T-tuples `rows` of `rel` into `sink` — the block-oriented
    /// counterpart of [`Partitioner::assign_t`]. Same contract as
    /// [`Partitioner::assign_s_block`].
    fn assign_t_block(&self, rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        let mut buf: Vec<PartitionId> = Vec::new();
        for i in rows {
            buf.clear();
            self.assign_t(&rel.key(i), i as u64, &mut buf);
            for &p in &buf {
                sink.push(p, i as u32);
            }
        }
    }

    /// A short human-readable name of the strategy (e.g. `"RecPart"`, `"1-Bucket"`).
    fn name(&self) -> &str;
}

/// Blanket implementation so boxed partitioners can be used wherever a partitioner is
/// expected.
impl<P: Partitioner + ?Sized> Partitioner for Box<P> {
    fn num_partitions(&self) -> usize {
        (**self).num_partitions()
    }
    fn assign_s(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
        (**self).assign_s(key, tuple_id, out)
    }
    fn assign_t(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
        (**self).assign_t(key, tuple_id, out)
    }
    fn assign_s_block(&self, rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        (**self).assign_s_block(rel, rows, sink)
    }
    fn assign_t_block(&self, rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        (**self).assign_t_block(rel, rows, sink)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A trivial partitioner that sends every tuple to a single partition.
///
/// Useful as a correctness baseline (`w = 1` runs) and in tests.
#[derive(Debug, Clone, Default)]
pub struct SinglePartition;

impl Partitioner for SinglePartition {
    fn num_partitions(&self) -> usize {
        1
    }
    fn assign_s(&self, _key: &[f64], _tuple_id: u64, out: &mut Vec<PartitionId>) {
        out.push(0);
    }
    fn assign_t(&self, _key: &[f64], _tuple_id: u64, out: &mut Vec<PartitionId>) {
        out.push(0);
    }
    fn assign_s_block(&self, _rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        for i in rows {
            sink.push(0, i as u32);
        }
    }
    fn assign_t_block(&self, rel: &Relation, rows: Range<usize>, sink: &mut AssignmentSink) {
        self.assign_s_block(rel, rows, sink)
    }
    fn name(&self) -> &str {
        "SinglePartition"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_partition_assigns_everything_to_zero() {
        let p = SinglePartition;
        let mut out = Vec::new();
        p.assign_s(&[1.0, 2.0], 0, &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        p.assign_t(&[3.0], 17, &mut out);
        assert_eq!(out, vec![0]);
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.name(), "SinglePartition");
    }

    #[test]
    fn boxed_partitioner_delegates() {
        let p: Box<dyn Partitioner> = Box::new(SinglePartition);
        assert_eq!(p.num_partitions(), 1);
        assert_eq!(p.name(), "SinglePartition");
        let mut out = Vec::new();
        p.assign_s(&[0.0], 0, &mut out);
        assert_eq!(out, vec![0]);
        let mut r = Relation::new(1);
        r.push(&[3.0]);
        let mut sink = AssignmentSink::new(1);
        p.assign_s_block(&r, 0..1, &mut sink);
        assert_eq!(sink.pairs(), &[(0, 0)]);
    }

    /// Multi-assignment partitioner for exercising the default block loop.
    struct FanOut;
    impl Partitioner for FanOut {
        fn num_partitions(&self) -> usize {
            3
        }
        fn assign_s(&self, _key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            out.push((tuple_id % 3) as PartitionId);
            if tuple_id.is_multiple_of(2) {
                out.push(2);
            }
        }
        fn assign_t(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            self.assign_s(key, tuple_id, out);
        }
        fn name(&self) -> &str {
            "FanOut"
        }
    }

    #[test]
    fn default_block_impl_matches_per_tuple_ids_and_order() {
        let mut r = Relation::new(1);
        for i in 0..10 {
            r.push(&[i as f64]);
        }
        let p = FanOut;
        let mut sink = AssignmentSink::new(3);
        p.assign_s_block(&r, 0..r.len(), &mut sink);
        let mut expected = Vec::new();
        let mut buf = Vec::new();
        for i in 0..r.len() {
            buf.clear();
            p.assign_s(&r.key(i), i as u64, &mut buf);
            for &part in &buf {
                expected.push((part, i as u32));
            }
        }
        assert_eq!(sink.pairs(), &expected[..]);
        // Counts agree with the pair stream.
        for part in 0..3u32 {
            let n = expected.iter().filter(|&&(p0, _)| p0 == part).count();
            assert_eq!(sink.counts()[part as usize] as usize, n);
        }
        assert_eq!(sink.len(), expected.len());
        assert!(!sink.is_empty());
    }

    #[test]
    fn sink_reset_reuses_buffers() {
        let mut sink = AssignmentSink::new(2);
        sink.reserve(4);
        sink.push(1, 0);
        sink.push(0, 1);
        assert_eq!(sink.counts(), &[1, 1]);
        sink.reset(4);
        assert!(sink.is_empty());
        assert_eq!(sink.num_partitions(), 4);
        assert_eq!(sink.counts(), &[0, 0, 0, 0]);
    }

    #[test]
    fn counting_sink_tracks_counts_without_pairs() {
        let mut r = Relation::new(1);
        for i in 0..10 {
            r.push(&[i as f64]);
        }
        let p = FanOut;
        let mut pairs = AssignmentSink::new(3);
        let mut counting = AssignmentSink::counting(3);
        p.assign_s_block(&r, 0..r.len(), &mut pairs);
        p.assign_s_block(&r, 0..r.len(), &mut counting);
        assert_eq!(counting.counts(), pairs.counts());
        assert_eq!(counting.len(), pairs.len());
        assert_eq!(counting.num_partitions(), 3);
        counting.reset(2);
        assert!(counting.is_empty());
        assert_eq!(counting.counts(), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "pairs() requires a pairs-mode sink")]
    fn counting_sink_has_no_pairs() {
        let sink = AssignmentSink::counting(1);
        let _ = sink.pairs();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn coverage_tracker_flags_dropped_tuples() {
        /// Drops every odd tuple — a Definition 1 violation.
        struct Dropper;
        impl Partitioner for Dropper {
            fn num_partitions(&self) -> usize {
                1
            }
            fn assign_s(&self, _key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
                if tuple_id.is_multiple_of(2) {
                    out.push(0);
                }
            }
            fn assign_t(&self, key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
                self.assign_s(key, tuple_id, out);
            }
            fn name(&self) -> &str {
                "Dropper"
            }
        }
        let mut r = Relation::new(1);
        for i in 0..6 {
            r.push(&[i as f64]);
        }
        let mut ok = AssignmentSink::counting(1);
        ok.track_coverage(0..r.len());
        SinglePartition.assign_s_block(&r, 0..r.len(), &mut ok);
        assert!(ok.covered_every_tuple());
        let mut bad = AssignmentSink::counting(1);
        bad.track_coverage(0..r.len());
        Dropper.assign_s_block(&r, 0..r.len(), &mut bad);
        assert!(!bad.covered_every_tuple());
    }
}
