//! Plan-cached query serving: load a dataset once, answer a **stream** of
//! band-join queries.
//!
//! The one-shot pipeline ([`Executor::execute`]) pays optimize → compile →
//! shuffle → join for every query. In a serving setting the dataset is
//! long-lived and queries arrive with recurring bands and worker counts, so the
//! expensive front half is highly redundant. [`BandJoinService`] keeps it in a
//! [`PlanCache`]:
//!
//! * a **cold miss** builds through the existing pipeline (RecPart optimize,
//!   router compile, counting shuffle), sorts every partition of both shuffled
//!   CSR arenas into join-ready order while it joins them, and caches the plan —
//!   partitioner plus the [`JoinReadyInputs`];
//! * a **warm hit** (exact [`PlanKey`] match) skips straight to the reduce
//!   phase over the cached arenas — a column gather and one window sweep per
//!   partition, no sort ([`ServiceHealth::partitions_prepared`] does not move);
//! * a **subsumed hit** serves a query whose band is per-dimension *narrower*
//!   than a cached plan's from that plan's arenas — zero new shuffles — because
//!   every pair matching the narrower band also matched the wider one, the
//!   wider plan's duplication co-locates it exactly once, and the join kernels
//!   filter exactly with the query band.
//!
//! Every served path runs the executor's one `join_partition` per partition and
//! the shared `assemble_report` downstream, so a response is **bit-identical by
//! construction** to a one-shot [`Executor::execute`] with the same partitioner
//! and query band — only wall-clock fields differ (a warm response reports
//! `map_shuffle_wall_seconds == 0.0`: no shuffle ran).
//!
//! With [`ServiceConfig::with_supervised`] both warm and cold paths run the
//! reduce under the supervision layer ([`crate::supervise`]): a crashed shard
//! worker degrades exactly one response (partial report, `degraded` flag) and
//! the service keeps serving; recovery accounting accumulates in
//! [`ServiceHealth`].
//!
//! Mutating the dataset ([`BandJoinService::append_s`]) bumps the relation's
//! generation; generations are part of every [`PlanKey`], so a mutated dataset
//! can never be served from a stale arena. Stale plans are purged eagerly
//! (counted as evictions).

use crate::executor::{
    Arenas, ExecutionReport, Executor, ExecutorConfig, JoinQuery, ReducePolicy, VerificationLevel,
};
use crate::faults::FaultPlan;
use crate::machine::MachineModel;
use crate::metrics::RecoveryCounters;
use crate::plan_cache::{CacheOutcome, CachedPlan, PlanCache, PlanKey};
use crate::supervise::{SuperviseError, SupervisorConfig};
use rand::{rngs::StdRng, SeedableRng};
use recpart::{
    BandCondition, LoadModel, RecPart, RecPartConfig, Relation, SampleConfig, SplitTreePartitioner,
};
use recpart::{PlanCacheCounters, RecPartError};

/// Everything the service fixes at load time; per-query knobs (band, workers,
/// materialization) live on [`BandJoinQuery`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Capacity of the plan cache in **arena bytes** (the shuffled CSR arenas
    /// are what dominates a cached plan's footprint). The most recently
    /// inserted plan is always retained even if it alone exceeds the cap.
    pub cache_capacity_bytes: u64,
    /// `Some(supervisor)` runs the reduce phase of every query (warm and cold)
    /// under the supervision layer — shard isolation over `supervisor.shards`
    /// shard workers, and its retry/backoff and graceful degradation; `None`
    /// runs it on the plain pool.
    pub supervised: Option<SupervisorConfig>,
    /// Verification level of every response's report. Defaults to
    /// [`VerificationLevel::None`]: `Count` and `FullPairs` run a full
    /// unpartitioned exact join per response — an audit mode, opted into with
    /// [`ServiceConfig::with_verification`], not something every query pays.
    pub verification: VerificationLevel,
    /// Thread knob shared by the optimizer, the shuffle, and the local joins
    /// (`0` = all cores, `1` = strictly sequential).
    pub threads: usize,
    /// Seed of the cold path's RecPart run (sampling, routing hashes).
    pub seed: u64,
    /// Sampling configuration of the cold path's RecPart run.
    pub sample: SampleConfig,
    /// Load weights shared by the optimizer and the executor.
    pub load_model: LoadModel,
    /// Timing model of the simulated cluster.
    pub machine: MachineModel,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity_bytes: 256 << 20,
            supervised: None,
            verification: VerificationLevel::None,
            threads: 0,
            seed: 0x5EED_0001,
            sample: SampleConfig::default(),
            load_model: LoadModel::default(),
            machine: MachineModel::default(),
        }
    }
}

impl ServiceConfig {
    /// The default configuration (256 MiB cache, unsupervised, full-core
    /// parallelism, no per-response verification).
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the plan-cache capacity in arena bytes.
    pub fn with_cache_capacity_bytes(mut self, bytes: u64) -> Self {
        self.cache_capacity_bytes = bytes;
        self
    }

    /// Run every reduce under supervision with `supervisor.shards` shard workers.
    pub fn with_supervised(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervised = Some(supervisor);
        self
    }

    /// Audit mode: verify every response against an exact single-node join
    /// (`Count`) or pair by pair (`FullPairs`).
    pub fn with_verification(mut self, level: VerificationLevel) -> Self {
        self.verification = level;
        self
    }

    /// Bound every phase to `threads` OS threads (0 = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Override the cold path's optimizer seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the cold path's sampling configuration.
    pub fn with_sample(mut self, sample: SampleConfig) -> Self {
        self.sample = sample;
        self
    }

    /// Override the load model.
    pub fn with_load_model(mut self, load_model: LoadModel) -> Self {
        self.load_model = load_model;
        self
    }

    /// The [`ExecutorConfig`] the service derives for a query's worker count —
    /// exposed so tests can build a bit-identical one-shot oracle.
    pub fn executor_config(&self, workers: usize) -> ExecutorConfig {
        ExecutorConfig::new(workers)
            .with_verification(self.verification)
            .with_load_model(self.load_model)
            .with_machine(self.machine)
            .with_threads(self.threads)
    }

    /// The [`RecPartConfig`] the cold path optimizes under for a query's worker
    /// count — exposed so tests can rebuild the identical partitioner.
    pub fn recpart_config(&self, workers: usize) -> RecPartConfig {
        RecPartConfig::new(workers)
            .with_seed(self.seed)
            .with_sample(self.sample)
            .with_load_model(self.load_model)
            .with_threads(self.threads)
    }
}

/// One query of the stream: which band, how many workers, and whether the
/// caller wants the joined pairs back.
#[derive(Debug, Clone, PartialEq)]
pub struct BandJoinQuery {
    /// The band condition (per-dimension, possibly asymmetric ε).
    pub band: BandCondition,
    /// Worker count `w` to plan (or reuse a plan) for.
    pub workers: usize,
    /// Materialize and return the joined `(s, t)` index pairs in
    /// [`QueryResponse::pairs`].
    pub materialize: bool,
}

impl BandJoinQuery {
    /// A non-materializing query.
    pub fn new(band: BandCondition, workers: usize) -> Self {
        BandJoinQuery {
            band,
            workers,
            materialize: false,
        }
    }

    /// Request the joined pairs in the response.
    pub fn with_materialize(mut self) -> Self {
        self.materialize = true;
        self
    }
}

/// How a response's plan was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Cache miss: optimize + compile + shuffle ran, plan inserted.
    ColdBuild,
    /// Exact plan-cache hit: only the reduce phase ran.
    WarmHit,
    /// Served from a wider cached plan through band subsumption: only the
    /// reduce phase ran, zero tuples shuffled.
    SubsumedHit,
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// How the plan was obtained.
    pub source: PlanSource,
    /// [`SplitTreePartitioner::plan_signature`] of the plan that served the
    /// query (look the partitioner up with
    /// [`BandJoinService::cached_partitioner`]).
    pub plan_signature: u64,
    /// The full execution report — bit-identical (wall-clock fields aside) to
    /// a one-shot [`Executor::execute`] with the serving partitioner and the
    /// query band.
    pub report: ExecutionReport,
    /// The joined `(s, t)` index pairs, present iff the query asked to
    /// materialize. On a degraded response these cover only the shards that
    /// survived.
    pub pairs: Option<Vec<(u32, u32)>>,
    /// Supervision accounting of **this** query (all zeros when unsupervised).
    pub recovery: RecoveryCounters,
}

/// Aggregated service introspection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceHealth {
    /// Plan-cache accounting: hits, subsumed hits, misses, evictions, arena
    /// bytes currently cached. `cache.queries()` equals `queries_served`.
    pub cache: PlanCacheCounters,
    /// Supervision accounting accumulated over every served query.
    pub recovery: RecoveryCounters,
    /// Tuple assignments routed by all cold-build shuffles (warm and subsumed
    /// hits shuffle nothing, by construction).
    pub tuples_shuffled: u64,
    /// Number of shuffles run (== cold builds that reached the shuffle).
    pub shuffles_run: u64,
    /// Partitions sorted into join-ready order: a cold build prepares each
    /// partition of its plan exactly once; warm and subsumed hits hold the
    /// prepared arenas immutably and prepare none.
    pub partitions_prepared: u64,
    /// Plans currently cached.
    pub cached_plans: usize,
    /// Queries answered (successfully) so far.
    pub queries_served: u64,
    /// Responses flagged degraded (a supervised shard exhausted its retries).
    pub degraded_responses: u64,
}

/// A long-running band-join server: owns the dataset and the plan cache,
/// answers queries from the cache when it can. See the module docs.
pub struct BandJoinService {
    config: ServiceConfig,
    s: Relation,
    t: Relation,
    cache: PlanCache,
    /// One executor per distinct worker count seen (the rayon pool behind the
    /// `threads` knob is built once per executor, not per query).
    executors: Vec<(usize, Executor)>,
    recovery: RecoveryCounters,
    tuples_shuffled: u64,
    shuffles_run: u64,
    partitions_prepared: u64,
    queries_served: u64,
    degraded_responses: u64,
}

/// Why a query was not answered.
#[derive(Debug)]
pub enum ServeError {
    /// The query cannot be run — a band of another dimensionality, zero workers, or
    /// a service supervised with zero shards or zero attempts. Rejected before
    /// anything ran or was counted.
    Query(RecPartError),
    /// Supervision is enabled and a whole phase exhausted its retry budget
    /// (shuffle, merge, or — under [`SupervisorConfig::fail_fast`] — any shard).
    Supervise(SuperviseError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Query(e) => write!(f, "invalid query: {e}"),
            ServeError::Supervise(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SuperviseError> for ServeError {
    fn from(e: SuperviseError) -> Self {
        match e {
            SuperviseError::InvalidConfig { message } => {
                ServeError::Query(RecPartError::InvalidConfig { message })
            }
            e => ServeError::Supervise(e),
        }
    }
}

impl BandJoinService {
    /// Load the dataset. The relations must be non-empty and of equal
    /// dimensionality (the cold path's optimizer requires both).
    pub fn new(s: Relation, t: Relation, config: ServiceConfig) -> Self {
        assert_eq!(s.dims(), t.dims(), "S and T must agree on dimensionality");
        assert!(
            !s.is_empty() && !t.is_empty(),
            "cannot serve band-joins over an empty relation"
        );
        let cache = PlanCache::new(config.cache_capacity_bytes);
        BandJoinService {
            config,
            s,
            t,
            cache,
            executors: Vec::new(),
            recovery: RecoveryCounters::default(),
            tuples_shuffled: 0,
            shuffles_run: 0,
            partitions_prepared: 0,
            queries_served: 0,
            degraded_responses: 0,
        }
    }

    /// The loaded S relation.
    pub fn s(&self) -> &Relation {
        &self.s
    }

    /// The loaded T relation.
    pub fn t(&self) -> &Relation {
        &self.t
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Append a tuple to S. Bumps S's generation, so every cached plan becomes
    /// unreachable and is purged (a mutated dataset is never served from a
    /// stale arena).
    pub fn append_s(&mut self, key: &[f64]) {
        self.s.push(key);
        self.cache
            .purge_stale(self.s.generation(), self.t.generation());
    }

    /// Aggregated introspection: cache and recovery counters, shuffle volume,
    /// response accounting.
    pub fn health(&self) -> ServiceHealth {
        ServiceHealth {
            cache: self.cache.counters(),
            recovery: self.recovery,
            tuples_shuffled: self.tuples_shuffled,
            shuffles_run: self.shuffles_run,
            partitions_prepared: self.partitions_prepared,
            cached_plans: self.cache.len(),
            queries_served: self.queries_served,
            degraded_responses: self.degraded_responses,
        }
    }

    /// The cached partitioner behind a response's
    /// [`QueryResponse::plan_signature`], without touching cache recency or
    /// counters — this is how a test rebuilds the one-shot oracle for a
    /// response. `None` if the plan has been evicted since.
    pub fn cached_partitioner(&self, plan_signature: u64) -> Option<&SplitTreePartitioner> {
        self.cache
            .peek_by_signature(plan_signature)
            .map(|plan| &plan.partitioner)
    }

    /// Answer one query (no fault injection).
    pub fn serve(&mut self, query: &BandJoinQuery) -> Result<QueryResponse, ServeError> {
        self.serve_with_faults(query, &FaultPlan::none())
    }

    /// Answer one query with deterministic fault injection (chaos tests). The
    /// plan's faults fire inside this query's shuffle/reduce; with
    /// supervision enabled a shard that exhausts its retries degrades only
    /// this response.
    ///
    /// A malformed query (band dimensionality, zero workers, zero supervised shards
    /// or attempts) is rejected before anything runs or is counted. [`ServeError::Supervise`]
    /// only surfaces when supervision is enabled and a whole phase exhausts its
    /// budget (shuffle, merge, or — under [`SupervisorConfig::fail_fast`] — any
    /// shard). Either way the service stays usable afterwards.
    pub fn serve_with_faults(
        &mut self,
        query: &BandJoinQuery,
        faults: &FaultPlan,
    ) -> Result<QueryResponse, ServeError> {
        query
            .band
            .check_dims(self.s.dims())
            .map_err(ServeError::Query)?;
        if query.workers == 0 {
            return Err(ServeError::Query(RecPartError::InvalidConfig {
                message: "a query needs at least one worker".into(),
            }));
        }
        let exec_idx = self.ensure_executor(query.workers);
        let exec = &self.executors[exec_idx].1;
        // The policy this service's configuration implies; an unusable supervisor
        // configuration is caught here, before the lookup counts anything.
        let mut policy = match &self.config.supervised {
            Some(supervisor) => ReducePolicy::supervised(supervisor, faults)?,
            None => ReducePolicy::Pool,
        };
        let key = PlanKey::new(
            self.s.generation(),
            self.t.generation(),
            &query.band,
            query.workers,
        );
        // Pairs are materialized for the caller, for `FullPairs` verification, or both.
        let join = JoinQuery {
            s: &self.s,
            t: &self.t,
            band: &query.band,
            materialize: query.materialize
                || self.config.verification == VerificationLevel::FullPairs,
        };

        let (source, plan_signature, done) = match self.cache.lookup(&key) {
            Some((plan, cache_outcome)) => {
                let source = match cache_outcome {
                    CacheOutcome::Hit => PlanSource::WarmHit,
                    CacheOutcome::SubsumedHit => PlanSource::SubsumedHit,
                };
                let shared = Some(Arenas::Shared(&plan.inputs));
                let done = exec.run(&plan.partitioner, &join, shared, &mut policy)?;
                (source, plan.plan_signature, done)
            }
            None => {
                // Cold build: the full existing pipeline, then cache the plan.
                // (The miss was counted by the lookup.)
                let mut rng = StdRng::seed_from_u64(self.config.seed);
                let result = RecPart::new(self.config.recpart_config(query.workers)).optimize(
                    &self.s,
                    &self.t,
                    &query.band,
                    &mut rng,
                );
                let partitioner = result.partitioner;
                let shuffled = exec.shuffle_stage(&partitioner, &self.s, &self.t, &mut policy)?;
                self.tuples_shuffled += shuffled.total_input();
                self.shuffles_run += 1;
                let owned = Some(Arenas::Owned(shuffled));
                let mut done = exec.run(&partitioner, &join, owned, &mut policy)?;
                let inputs = (done.ready.take()).expect("a reduce hands owned arenas back");
                self.partitions_prepared += inputs.num_partitions() as u64;
                let plan_signature = partitioner.plan_signature();
                // A degraded *response* does not poison the *plan*: the arenas
                // are complete (the shuffle succeeded); only this query's
                // reduce lost shards.
                self.cache.insert(
                    key,
                    CachedPlan {
                        band: partitioner.band().clone(),
                        partitioner,
                        inputs,
                        plan_signature,
                    },
                );
                (PlanSource::ColdBuild, plan_signature, done)
            }
        };

        let (report, recovery) = (done.report, policy.recovery());
        self.recovery += recovery;
        self.queries_served += 1;
        if report.degraded {
            self.degraded_responses += 1;
        }
        Ok(QueryResponse {
            source,
            plan_signature,
            report,
            pairs: done.pairs.filter(|_| query.materialize),
            recovery,
        })
    }

    /// The executor for `workers`, built (with its thread pool) at most once
    /// per distinct worker count.
    fn ensure_executor(&mut self, workers: usize) -> usize {
        if let Some(i) = self.executors.iter().position(|(w, _)| *w == workers) {
            return i;
        }
        let exec = Executor::new(self.config.executor_config(workers));
        self.executors.push((workers, exec));
        self.executors.len() - 1
    }
}
