//! The plan cache behind [`crate::serve::BandJoinService`]: compiled
//! partitionings plus their shuffled CSR arenas, keyed by plan signature and
//! evicted least-recently-used under an arena-byte capacity.
//!
//! A cached plan is everything the pipeline's expensive front half produces —
//! the optimized [`SplitTreePartitioner`] (which owns the compiled router) and
//! the two arenas the counting shuffle materialized, already sorted into
//! join-ready order ([`JoinReadyInputs`] — same bytes as the raw arenas). A cache
//! hit therefore skips optimize/compile/shuffle *and* every per-partition sort,
//! and pays only the gather-and-sweep of the per-partition joins.
//!
//! Two lookup modes:
//!
//! * **Exact** — the query's [`PlanKey`] (dataset generations, per-dimension ε
//!   bit patterns, worker count) matches a cached plan's key bit for bit.
//! * **Band subsumption** — same generations and worker count, and the query's
//!   ε is ≤ the cached plan's ε in *every* dimension (both band edges). Every
//!   pair matching the narrower band also matched the wider one, so the wider
//!   plan's duplication still co-locates it exactly once, and the join kernels
//!   filter with the query band exactly — the narrower query is served from the
//!   wider plan's arenas with zero new shuffles.
//!
//! Recency is a **logical access counter**, not wall-clock time, so cache
//! behaviour (and every [`PlanCacheCounters`] value) is a deterministic
//! function of the query stream.

use crate::join_ready::JoinReadyInputs;
use recpart::{BandCondition, PlanCacheCounters, SplitTreePartitioner};

/// The exact-match identity of a cached plan: which data, which band, how many
/// workers. Any mutation of either relation bumps its generation
/// ([`recpart::Relation::generation`]), changing the key — a mutated dataset
/// can never match a plan built before the mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    /// [`recpart::Relation::generation`] of S when the plan was built.
    pub s_generation: u64,
    /// [`recpart::Relation::generation`] of T when the plan was built.
    pub t_generation: u64,
    /// Per-dimension `(ε_low, ε_high)` as IEEE 754 bit patterns (exact equality,
    /// no float comparison subtleties).
    pub band_bits: Vec<(u64, u64)>,
    /// Worker count `w` the plan was optimized for.
    pub workers: usize,
}

impl PlanKey {
    /// Build the key for a query over the given dataset generations.
    pub fn new(s_generation: u64, t_generation: u64, band: &BandCondition, workers: usize) -> Self {
        PlanKey {
            s_generation,
            t_generation,
            band_bits: (0..band.dims())
                .map(|d| (band.eps_low(d).to_bits(), band.eps_high(d).to_bits()))
                .collect(),
            workers,
        }
    }

    /// Whether a plan with this key can serve `query` through band subsumption:
    /// same generations and worker count, and the query's ε is ≤ this plan's ε
    /// in every dimension on both band edges (see the module docs for why that
    /// is sufficient for exactly-once co-location).
    pub fn subsumes(&self, query: &PlanKey) -> bool {
        self.s_generation == query.s_generation
            && self.t_generation == query.t_generation
            && self.workers == query.workers
            && self.band_bits.len() == query.band_bits.len()
            && self
                .band_bits
                .iter()
                .zip(&query.band_bits)
                .all(|(&(plo, phi), &(qlo, qhi))| {
                    f64::from_bits(qlo) <= f64::from_bits(plo)
                        && f64::from_bits(qhi) <= f64::from_bits(phi)
                })
    }
}

/// Everything the expensive front half of the pipeline produced, ready for
/// reuse: the compiled partitioning and both shuffled arenas in join-ready order.
#[derive(Debug)]
pub struct CachedPlan {
    /// The optimized split-tree partitioner (owns the compiled router).
    pub partitioner: SplitTreePartitioner,
    /// The plan's band (the ε the partitioner was built for — the widest band
    /// this plan serves).
    pub band: BandCondition,
    /// Both shuffled per-partition tuple-index arenas, every partition sorted
    /// once at build time so no query served from this plan sorts it again.
    pub inputs: JoinReadyInputs,
    /// [`SplitTreePartitioner::plan_signature`] of the partitioner.
    pub plan_signature: u64,
}

impl CachedPlan {
    /// Bytes held by both arenas — the cache's capacity accounting unit, and
    /// exactly [`crate::ShuffledInputs::arena_bytes`] of the shuffle that built
    /// the plan: join-ready order is a permutation, not an index.
    pub fn arena_bytes(&self) -> u64 {
        self.inputs.arena_bytes()
    }

    /// Total cached assignments (both sides, duplicates included): the warm
    /// join cost this plan implies, used to prefer the cheapest subsuming plan.
    fn assignments(&self) -> u64 {
        (self.inputs.s_parts().len() + self.inputs.t_parts().len()) as u64
    }
}

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Exact key match.
    Hit,
    /// Served by a wider cached plan through band subsumption.
    SubsumedHit,
}

struct CacheEntry {
    key: PlanKey,
    plan: CachedPlan,
    /// Logical last-access tick (not wall-clock — determinism).
    last_used: u64,
}

/// LRU plan cache with capacity accounting in arena bytes.
///
/// The capacity is a soft cap with one documented exception: the most recently
/// inserted plan is always retained, even when it alone exceeds the capacity —
/// a service must be able to answer the query it just built a plan for. The
/// eviction invariant is therefore `arena_bytes_cached ≤ capacity ∨ len == 1`.
pub struct PlanCache {
    capacity_bytes: u64,
    /// Insertion order (evictions splice out of the middle; relative order of
    /// survivors is preserved) — the deterministic tie-break for subsumption.
    entries: Vec<CacheEntry>,
    /// Logical clock, bumped on every touch.
    tick: u64,
    counters: PlanCacheCounters,
}

impl PlanCache {
    /// An empty cache that may hold up to `capacity_bytes` of arena data.
    pub fn new(capacity_bytes: u64) -> Self {
        PlanCache {
            capacity_bytes,
            entries: Vec::new(),
            tick: 0,
            counters: PlanCacheCounters::default(),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The hit/miss/eviction accounting so far.
    pub fn counters(&self) -> PlanCacheCounters {
        self.counters
    }

    /// Look up a plan for `key`: an exact match wins; otherwise the cheapest
    /// subsuming plan (fewest cached assignments, insertion order breaking
    /// ties) serves the query. Touches the returned entry's recency and counts
    /// the outcome; returns `None` (and counts a miss) when nothing fits — the
    /// caller is expected to build and [`PlanCache::insert`].
    pub fn lookup(&mut self, key: &PlanKey) -> Option<(&CachedPlan, CacheOutcome)> {
        let found = self
            .entries
            .iter()
            .position(|e| e.key == *key)
            .map(|i| (i, CacheOutcome::Hit))
            .or_else(|| {
                self.entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.key.subsumes(key))
                    .min_by_key(|(i, e)| (e.plan.assignments(), *i))
                    .map(|(i, _)| (i, CacheOutcome::SubsumedHit))
            });
        match found {
            Some((i, outcome)) => {
                self.tick += 1;
                self.entries[i].last_used = self.tick;
                match outcome {
                    CacheOutcome::Hit => self.counters.hits += 1,
                    CacheOutcome::SubsumedHit => self.counters.subsumed_hits += 1,
                }
                Some((&self.entries[i].plan, outcome))
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Re-borrow a cached plan by signature without touching recency or
    /// counters (test oracles and introspection).
    pub(crate) fn peek_by_signature(&self, plan_signature: u64) -> Option<&CachedPlan> {
        self.entries
            .iter()
            .find(|e| e.plan.plan_signature == plan_signature)
            .map(|e| &e.plan)
    }

    /// Insert a freshly built plan, then evict least-recently-used plans until
    /// the arena bytes fit the capacity — except the plan just inserted, which
    /// is always retained (see the type docs). A plan with the same key
    /// replaces the old entry instead of duplicating it.
    pub fn insert(&mut self, key: PlanKey, plan: CachedPlan) {
        if let Some(i) = self.entries.iter().position(|e| e.key == key) {
            let old = self.entries.remove(i);
            self.counters.arena_bytes_cached -= old.plan.arena_bytes();
        }
        self.tick += 1;
        self.counters.arena_bytes_cached += plan.arena_bytes();
        self.entries.push(CacheEntry {
            key,
            plan,
            last_used: self.tick,
        });
        while self.counters.arena_bytes_cached > self.capacity_bytes && self.entries.len() > 1 {
            // The newest entry holds the max tick, so the min-tick scan can
            // never pick it while another entry exists.
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("non-empty entries");
            let evicted = self.entries.remove(lru);
            self.counters.arena_bytes_cached -= evicted.plan.arena_bytes();
            self.counters.evictions += 1;
        }
    }

    /// Drop every plan built for generations other than the current ones.
    /// Such plans are unreachable anyway (the generations are part of every
    /// key), so this only frees their arena bytes early; each drop is counted
    /// as an eviction.
    pub(crate) fn purge_stale(&mut self, s_generation: u64, t_generation: u64) {
        let before = self.entries.len();
        let mut freed = 0u64;
        self.entries.retain(|e| {
            let live = e.key.s_generation == s_generation && e.key.t_generation == t_generation;
            if !live {
                freed += e.plan.arena_bytes();
            }
            live
        });
        self.counters.arena_bytes_cached -= freed;
        self.counters.evictions += (before - self.entries.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Parallelism;
    use crate::shuffle::{PartitionedIndex, ShuffledInputs};
    use recpart::Relation;
    use recpart::SplitTree;

    fn tiny_plan(seed: u64, tuples: u32) -> CachedPlan {
        let band = BandCondition::symmetric(&[0.5]);
        let tree = SplitTree::new(1);
        let partitioner = SplitTreePartitioner::from_tree(tree, band.clone(), seed, "test");
        let values: Vec<f64> = (0..tuples).map(f64::from).collect();
        let rel = Relation::from_values_1d(&values);
        let shuffled = ShuffledInputs {
            s_parts: PartitionedIndex::from_parts(&[(0..tuples).collect()]),
            t_parts: PartitionedIndex::from_parts(&[(0..tuples).collect()]),
            wall_seconds: 0.0,
        };
        let (inputs, _) = JoinReadyInputs::prepare(shuffled, &rel, &rel, &Parallelism::Sequential);
        let plan_signature = partitioner.plan_signature();
        CachedPlan {
            partitioner,
            band,
            inputs,
            plan_signature,
        }
    }

    fn key(s_gen: u64, eps: f64) -> PlanKey {
        PlanKey::new(s_gen, 7, &BandCondition::symmetric(&[eps]), 4)
    }

    #[test]
    fn exact_hit_beats_subsumption_and_misses_count() {
        let mut cache = PlanCache::new(u64::MAX);
        cache.insert(key(1, 1.0), tiny_plan(1, 10));
        cache.insert(key(1, 2.0), tiny_plan(2, 5));

        // Exact match on eps=1.0 even though eps=2.0 subsumes it (and is cheaper).
        let (_, outcome) = cache.lookup(&key(1, 1.0)).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        // eps=0.5 is narrower than both; the cheaper (5-assignment) plan wins.
        let (plan, outcome) = cache.lookup(&key(1, 0.5)).unwrap();
        assert_eq!(outcome, CacheOutcome::SubsumedHit);
        assert_eq!(plan.inputs.s_parts().len(), 5);
        // Wider than everything cached, and a different generation: misses.
        assert!(cache.lookup(&key(1, 9.0)).is_none());
        assert!(cache.lookup(&key(2, 0.5)).is_none());

        let c = cache.counters();
        assert_eq!((c.hits, c.subsumed_hits, c.misses), (1, 1, 2));
        assert_eq!(c.queries(), 4);
    }

    #[test]
    fn subsumption_requires_every_dimension() {
        let band2 = BandCondition::symmetric(&[1.0, 1.0]);
        let wide = PlanKey::new(1, 1, &band2, 4);
        assert!(wide.subsumes(&PlanKey::new(
            1,
            1,
            &BandCondition::symmetric(&[0.5, 1.0]),
            4
        )));
        assert!(!wide.subsumes(&PlanKey::new(
            1,
            1,
            &BandCondition::symmetric(&[0.5, 1.5]),
            4
        )));
        assert!(!wide.subsumes(&PlanKey::new(
            2,
            1,
            &BandCondition::symmetric(&[0.5, 0.5]),
            4
        )));
        assert!(!wide.subsumes(&PlanKey::new(
            1,
            1,
            &BandCondition::symmetric(&[0.5, 0.5]),
            8
        )));
        assert!(!wide.subsumes(&PlanKey::new(1, 1, &BandCondition::symmetric(&[0.5]), 4)));
        // Asymmetric: both edges must be within the plan's.
        let asym = BandCondition::try_asymmetric(&[0.2], &[2.0]).unwrap();
        let wide1 = PlanKey::new(1, 1, &BandCondition::symmetric(&[1.0]), 4);
        assert!(!wide1.subsumes(&PlanKey::new(1, 1, &asym, 4)));
    }

    #[test]
    fn lru_eviction_respects_byte_cap_but_keeps_newest() {
        // Each tiny plan holds 2 sides × (10 tuples × 4 bytes + 2 offsets × 8 bytes)
        // = 112 bytes.
        let mut cache = PlanCache::new(250);
        cache.insert(key(1, 1.0), tiny_plan(1, 10));
        cache.insert(key(1, 2.0), tiny_plan(2, 10));
        // Touch the older plan so eps=2.0 becomes the LRU victim.
        assert!(cache.lookup(&key(1, 1.0)).is_some());
        cache.insert(key(1, 3.0), tiny_plan(3, 10));
        assert_eq!(cache.len(), 2, "336 bytes > 250: one eviction");
        assert!(cache
            .peek_by_signature(tiny_plan(2, 10).plan_signature)
            .is_none());
        assert!(cache
            .peek_by_signature(tiny_plan(1, 10).plan_signature)
            .is_some());
        let c = cache.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.arena_bytes_cached, 224);

        // An oversized plan still inserts (sole resident over cap).
        let mut small = PlanCache::new(10);
        small.insert(key(1, 1.0), tiny_plan(1, 10));
        assert_eq!(small.len(), 1);
        assert!(small.counters().arena_bytes_cached > small.capacity_bytes);
        small.insert(key(1, 2.0), tiny_plan(2, 10));
        assert_eq!(small.len(), 1, "the newest plan evicts the oversized one");
        assert_eq!(small.counters().evictions, 1);
    }

    #[test]
    fn purge_stale_drops_old_generations_only() {
        let mut cache = PlanCache::new(u64::MAX);
        cache.insert(key(1, 1.0), tiny_plan(1, 10));
        cache.insert(key(2, 1.0), tiny_plan(2, 10));
        cache.purge_stale(2, 7);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key(2, 1.0)).is_some());
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.counters().arena_bytes_cached, 112);
    }

    #[test]
    fn reinsert_same_key_replaces() {
        let mut cache = PlanCache::new(u64::MAX);
        cache.insert(key(1, 1.0), tiny_plan(1, 10));
        cache.insert(key(1, 1.0), tiny_plan(9, 5));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.counters().arena_bytes_cached, 72);
        let (plan, _) = cache.lookup(&key(1, 1.0)).unwrap();
        assert_eq!(plan.inputs.s_parts().len(), 5);
    }
}
