//! The map–shuffle–reduce executor: runs a band-join under a given partitioning on a
//! simulated cluster and reports the paper's success measures.
//!
//! Pipeline (mirroring Figure 5 of the paper):
//!
//! 1. **Map / partition**: every input tuple is routed through the
//!    [`Partitioner`], which may copy it to several partitions (duplication). The
//!    routing is block-oriented: contiguous chunks go through the partitioner's
//!    `assign_s_block`/`assign_t_block` (RecPart's compiled split-tree router,
//!    closed-form cell arithmetic for the baselines) — never one dynamic-dispatch
//!    call per tuple.
//! 2. **Shuffle**: per-partition input lists are materialized; the total number of
//!    assignments is the paper's total input `I`.
//! 3. **Reduce / local joins**: each partition's slices are sorted in place into
//!    join-ready order ([`crate::join_ready`]) and its band-join is computed by the one
//!    per-partition sweep every reduce path shares; partitions are mapped onto the `w`
//!    workers with a longest-processing-time-first heuristic, modelling the dynamic
//!    load balancing a YARN/Spark scheduler performs at runtime (identically for every
//!    strategy, so comparisons remain fair).
//! 4. **Reporting**: per-worker input/output/comparison counts, the derived
//!    [`PartitioningStats`] (`I`, `I_m`, `O_m`, `L_m`, overheads vs. lower bounds), the
//!    simulated wall-clock join time from the `MachineModel`, and optional correctness
//!    verification against an exact single-node join.
//!
//! Every phase — map/shuffle (see [`crate::shuffle`]), the local joins, and the exact
//! verification join (see [`crate::verify`]) — honours [`ExecutorConfig::threads`] and
//! fans out over the same thread count, so end-to-end `execute` wall-clock scales with
//! cores while its results stay bit-identical to the sequential path. The measured
//! wall-clock of each phase is reported separately
//! ([`ExecutionReport::map_shuffle_wall_seconds`],
//! [`ExecutionReport::local_join_wall_seconds`],
//! [`ExecutionReport::verify_wall_seconds`]).
//!
//! The reduce fans out over those threads for [`Executor::execute`] and
//! [`Executor::execute_prepared`]; the one sharded path,
//! [`Executor::execute_supervised`] ([`crate::supervise`]), splits it into
//! shared-nothing [`ShardPlan`] ranges under supervision, bit-identical to the
//! fan-out whenever no shard is lost.

use crate::join_ready::{partition_tasks, JoinReadyInputs, ReadyPartition};
use crate::machine::{MachineModel, WorkerWork};
use crate::metrics::ShardStats;
use crate::shuffle::{shuffle, PartitionedIndex, ShuffledInputs};
use crate::supervise::{ShardError, SuperviseError, Supervision};
use crate::verify::{check_pairs_against, exact_join_count_with, exact_join_pairs_with, PairCheck};
use recpart::{
    chunk_ranges, BandCondition, JoinKernel, LeastLoaded, LoadModel, Parallelism, Partitioner,
    PartitioningStats, Relation, WorkerLoad,
};
#[cfg(test)]
use std::cmp::Ordering;
use std::time::Instant;

/// How thoroughly the executor validates the result of the distributed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerificationLevel {
    /// No verification (fastest; used by benchmarks).
    None,
    /// Compare the total distributed output count against an exact single-node join.
    /// Catches both lost and duplicated results as long as their counts differ.
    #[default]
    Count,
    /// Materialize every produced pair and compare the multiset against the exact
    /// result. Detects lost, spurious, and duplicated pairs individually. Only suitable
    /// for small inputs.
    FullPairs,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Number of simulated worker machines `w`.
    pub workers: usize,
    /// Load weights used for `L_m` and the partition→worker mapping.
    pub load_model: LoadModel,
    /// Verification level.
    pub verification: VerificationLevel,
    /// Parallelism of every measured phase (map/shuffle, local joins, verification):
    /// `0` uses one thread per available core, `1` runs strictly sequentially (no
    /// thread at all), `n > 1` uses `n` threads; [`Executor::new`] resolves it once.
    /// Results are bit-identical across all settings; only wall-clock timing changes.
    pub threads: usize,
}

impl ExecutorConfig {
    /// Configuration with defaults for `workers` simulated machines.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        ExecutorConfig {
            workers,
            load_model: LoadModel::default(),
            verification: VerificationLevel::Count,
            threads: 0,
        }
    }

    /// Override the verification level.
    pub fn with_verification(mut self, level: VerificationLevel) -> Self {
        self.verification = level;
        self
    }

    /// Override the load model.
    pub fn with_load_model(mut self, load_model: LoadModel) -> Self {
        self.load_model = load_model;
        self
    }

    /// Bound every parallel phase to `threads` OS threads (0 = all available cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Work and result sizes of one partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionLoad {
    /// S-tuples received (including duplicates).
    pub s_input: u64,
    /// T-tuples received (including duplicates).
    pub t_input: u64,
    /// Output pairs produced by this partition's local join.
    pub output: u64,
    /// Candidate comparisons performed.
    pub comparisons: u64,
}

impl PartitionLoad {
    /// Total input of the partition.
    pub fn input(&self) -> u64 {
        self.s_input + self.t_input
    }
}

/// Everything measured about one distributed execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Name of the partitioning strategy.
    pub strategy: String,
    /// The paper's success measures (`I`, `I_m`, `O_m`, `L_m`, overheads, per-worker loads).
    pub stats: PartitioningStats,
    /// Number of logical partitions the strategy created.
    pub partitions: usize,
    /// Per-partition measurements.
    pub per_partition: Vec<PartitionLoad>,
    /// Which worker each partition was executed on.
    pub partition_to_worker: Vec<u32>,
    /// Per-worker work (input, output, comparisons, tasks).
    pub per_worker_work: Vec<WorkerWork>,
    /// Total candidate comparisons across the cluster.
    pub total_comparisons: u64,
    /// Simulated end-to-end join time (seconds) under the simulated cluster's
    /// fixed timing model.
    pub simulated_join_seconds: f64,
    /// Measured wall-clock seconds each partition's local join took on this machine.
    pub per_partition_wall_seconds: Vec<f64>,
    /// Measured wall-clock busy seconds per simulated worker: the sum of the local-join
    /// times of the partitions mapped onto it. The spread across workers shows real
    /// (not just modelled) load imbalance.
    pub per_worker_wall_seconds: Vec<f64>,
    /// Measured wall-clock seconds of the whole local-join phase (all partitions,
    /// across however many threads the executor was configured with).
    pub local_join_wall_seconds: f64,
    /// Measured wall-clock seconds of the map/shuffle phase (routing every tuple
    /// through the partitioner and materializing per-partition index lists).
    pub map_shuffle_wall_seconds: f64,
    /// Measured wall-clock seconds spent verifying the result against an exact
    /// single-node join (0 when verification is disabled).
    pub verify_wall_seconds: f64,
    /// Number of OS threads the parallel phases ran on (1 = sequential path).
    pub threads_used: usize,
    /// Exact output size, when verification computed it.
    pub exact_output: Option<u64>,
    /// Whether the distributed output matched the exact result (per the verification
    /// level); `None` when verification was disabled.
    pub correct: Option<bool>,
    /// Detailed pair-level check, when [`VerificationLevel::FullPairs`] was used.
    pub pair_check: Option<PairCheck>,
    /// Whether this is a *partial* report: some shards exhausted their retry
    /// budget under supervised execution and their partitions carry default
    /// (zero) loads. Verification is skipped for degraded reports — the missing
    /// work would be flagged as incorrect, which it deliberately is not. Always
    /// `false` on the unsupervised paths.
    pub degraded: bool,
}

impl ExecutionReport {
    /// Duplication overhead (x-axis of Figure 4).
    pub fn duplication_overhead(&self) -> f64 {
        self.stats.duplication_overhead()
    }

    /// Max-load overhead (y-axis of Figure 4).
    pub fn load_overhead(&self) -> f64 {
        self.stats.load_overhead()
    }

    /// Measured wall-clock time of the slowest simulated worker (seconds): the
    /// real-hardware analogue of the paper's `L_m`.
    pub fn max_worker_wall_seconds(&self) -> f64 {
        self.per_worker_wall_seconds
            .iter()
            .fold(0.0f64, |acc, &s| acc.max(s))
    }

    /// Sum of the measured wall-clock seconds of all phases (map/shuffle + local
    /// joins + verification) — the part of `execute` that scales with `threads`.
    pub fn measured_phase_seconds(&self) -> f64 {
        self.map_shuffle_wall_seconds + self.local_join_wall_seconds + self.verify_wall_seconds
    }
}

/// What one partition's local join produces: measured load, materialized pairs (empty
/// unless pair verification is on), and wall-clock seconds.
pub(crate) type PartitionJoinOutcome = (PartitionLoad, Vec<(u32, u32)>, f64);

/// Everything produced by the local-join phase.
struct LocalJoinPhase {
    per_partition: Vec<PartitionLoad>,
    per_partition_wall_seconds: Vec<f64>,
    all_pairs: Option<Vec<(u32, u32)>>,
    wall_seconds: f64,
    threads_used: usize,
}

/// What no stage of a query changes: the inputs, the band, and whether the joins
/// materialize pairs (for the caller, for [`VerificationLevel::FullPairs`], or both).
pub(crate) struct JoinQuery<'a> {
    pub(crate) s: &'a Relation,
    pub(crate) t: &'a Relation,
    pub(crate) band: &'a BandCondition,
    pub(crate) materialize: bool,
}

/// The arenas a reduce runs over.
pub(crate) enum Arenas<'a> {
    /// Fresh from the shuffle and owned by this query (every cold path): sorted
    /// into join-ready order during the reduce and handed back prepared.
    Owned(ShuffledInputs),
    /// Already join-ready and only borrowed (a warm or subsumed plan-cache hit):
    /// one gather and one sweep per partition, nothing sorts.
    Shared(&'a JoinReadyInputs),
}

/// How a reduce schedules its partitions — the only thing that differs between
/// `execute`, `execute_supervised` and a served query.
pub(crate) enum ReducePolicy<'a> {
    /// Dynamically scheduled over the executor's threads.
    Pool,
    /// Shared-nothing shards ([`ShardPlan::contiguous`]), each joining its
    /// partitions sequentially, every attempt on an OS thread of its own under
    /// [`crate::supervise`]; the shuffle is retried too.
    Supervised(Supervision<'a>),
}

/// What the one reduce hands to [`Executor::assemble_report`].
struct Reduced {
    local: LocalJoinPhase,
    /// Per-shard accounting, in partition order (the pool is one shard).
    shard_stats: Vec<ShardStats>,
    /// Shards that exhausted their retry budget (supervised policy only); their
    /// partitions carry default loads in `local`.
    failed: Vec<ShardError>,
    /// The prepared arenas, when the reduce owned them.
    ready: Option<JoinReadyInputs>,
    /// Partitions the reduce sorted into join-ready order: all of owned arenas,
    /// none of shared ones.
    partitions_prepared: u64,
}

/// A finished query: the report, and what only some entry points pass on.
pub(crate) struct Executed {
    pub(crate) report: ExecutionReport,
    pub(crate) shard_stats: Vec<ShardStats>,
    pub(crate) failed: Vec<ShardError>,
    /// The joined pairs, when the query materialized them.
    pub(crate) pairs: Option<Vec<(u32, u32)>>,
    /// The prepared arenas, when the query owned them.
    pub(crate) ready: Option<JoinReadyInputs>,
    /// Partitions the query's reduce sorted into join-ready order.
    pub(crate) partitions_prepared: u64,
}

/// One partition's local join over its join-ready slices: the single per-partition
/// computation of **every** reduce, so all of them agree bit for bit by
/// construction. The sweep runs the process-wide active [`JoinKernel`]; results are
/// bit-identical — pairs, order, `comparisons` — for every kernel, so
/// [`MachineModel`]-derived times do not depend on the kernel either. `started` is
/// when work on this partition began (before its sort, when the reduce owned the
/// arenas), so the reported seconds cover both.
fn join_partition(
    query: &JoinQuery<'_>,
    part: ReadyPartition<'_>,
    started: Instant,
) -> PartitionJoinOutcome {
    let mut pairs = Vec::new();
    let result = part.join(
        JoinKernel::active(),
        query.s,
        query.t,
        query.band,
        query.materialize.then_some(&mut pairs),
    );
    let load = PartitionLoad {
        s_input: part.s_len() as u64,
        t_input: part.t_len() as u64,
        output: result.output,
        comparisons: result.comparisons,
    };
    (load, pairs, started.elapsed().as_secs_f64())
}

/// Join partitions `lo..hi` of shared arenas sequentially — one supervised shard
/// attempt — and time the range.
pub(crate) fn join_range(
    query: &JoinQuery<'_>,
    ready: &JoinReadyInputs,
    (lo, hi): (usize, usize),
) -> (Vec<PartitionJoinOutcome>, f64) {
    let start = Instant::now();
    let outcomes = (lo..hi)
        .map(|p| join_partition(query, ready.part(p), Instant::now()))
        .collect();
    (outcomes, start.elapsed().as_secs_f64())
}

/// One shard's contribution to the merge: its per-partition outcomes (`None`
/// when the shard exhausted its retry budget), the wall-clock of the kept
/// attempt, and the supervision accounting ([`ShardStats::attempts`],
/// [`ShardStats::recovery_wall_seconds`]).
pub(crate) struct ShardOutcome {
    pub(crate) outcomes: Option<Vec<PartitionJoinOutcome>>,
    pub(crate) wall_seconds: f64,
    pub(crate) attempts: u32,
    pub(crate) recovery_wall_seconds: f64,
}

/// A shared-nothing shard layout over the partition space: shard `i` exclusively
/// owns the contiguous partition range `ranges[i]` of the global CSR arena, so
/// shards never share mutable state — only read-only views of the inputs and the
/// shuffled index. Shards run as threads today, but the layout (a contiguous
/// partition range plus shared immutable inputs) is exactly what a per-process
/// deployment would hand each worker process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Split `num_partitions` partitions into `shards` contiguous, disjoint,
    /// covering ranges (sizes differ by at most one). Shards beyond the partition
    /// count are dropped rather than left empty.
    pub fn contiguous(num_partitions: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardPlan {
            ranges: chunk_ranges(num_partitions, shards.min(num_partitions.max(1))),
        }
    }

    /// Number of shards in the plan.
    pub fn num_shards(&self) -> usize {
        self.ranges.len()
    }

    /// The partition range `[lo, hi)` owned by shard `shard`.
    pub fn partition_range(&self, shard: usize) -> (usize, usize) {
        self.ranges[shard]
    }
}

/// The simulated-cluster executor.
#[derive(Debug, Clone)]
pub struct Executor {
    config: ExecutorConfig,
    /// `config.threads`, resolved.
    par: Parallelism,
}

impl Executor {
    /// Create an executor.
    pub fn new(config: ExecutorConfig) -> Self {
        Executor {
            config,
            par: Parallelism::new(config.threads),
        }
    }

    /// Convenience constructor with default configuration for `workers` machines.
    pub fn with_workers(workers: usize) -> Self {
        Executor::new(ExecutorConfig::new(workers))
    }

    /// The executor's configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Run the map/shuffle phase alone: route every tuple of `s` and `t` through the
    /// partitioner and materialize per-partition input index lists, under this
    /// executor's `threads` setting. The index lists are bit-identical for every
    /// thread count (parallel routing merges contiguous chunks in input order).
    pub fn map_shuffle<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        s: &Relation,
        t: &Relation,
    ) -> ShuffledInputs {
        let num_partitions = partitioner.num_partitions().max(1);
        shuffle(partitioner, s, t, num_partitions, self.par)
    }

    /// The query value of a one-shot execution: pairs are materialized only for
    /// [`VerificationLevel::FullPairs`].
    pub(crate) fn query<'a>(
        &self,
        s: &'a Relation,
        t: &'a Relation,
        band: &'a BandCondition,
    ) -> JoinQuery<'a> {
        JoinQuery {
            s,
            t,
            band,
            materialize: self.config.verification == VerificationLevel::FullPairs,
        }
    }

    /// The pipeline every entry point — `execute`, `execute_prepared`,
    /// `execute_supervised` and a served query — is a wrapper of: shuffle (unless
    /// the caller brings arenas) → [`reduce`](Self::reduce) under `policy` →
    /// report. Fails only under a supervised policy.
    pub(crate) fn run<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        query: &JoinQuery<'_>,
        arenas: Option<Arenas<'_>>,
        policy: &mut ReducePolicy<'_>,
    ) -> Result<Executed, SuperviseError> {
        let arenas = match arenas {
            Some(arenas) => arenas,
            None => {
                Arenas::Owned(policy.shuffle(|| self.map_shuffle(partitioner, query.s, query.t))?)
            }
        };
        // Seconds of the shuffle that produced the arenas: 0 when the caller shares
        // (or, like `execute_prepared`, copied) arenas shuffled for an earlier query.
        let shuffle_seconds = match &arenas {
            Arenas::Owned(shuffled) => shuffled.wall_seconds,
            Arenas::Shared(_) => 0.0,
        };
        let reduced = self.reduce(query, arenas, policy)?;
        Ok(self.assemble_report(partitioner, query, reduced, shuffle_seconds))
    }

    /// [`Executor::run`] for the two entry points without supervision.
    fn run_unsupervised<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        (s, t, band): (&Relation, &Relation, &BandCondition),
        arenas: Option<Arenas<'_>>,
        mut policy: ReducePolicy<'_>,
    ) -> Executed {
        self.run(partitioner, &self.query(s, t, band), arenas, &mut policy)
            .unwrap_or_else(|e| unreachable!("only a supervised policy can fail: {e}"))
    }

    /// Execute the band-join of `s` and `t` under `partitioner` and measure everything.
    pub fn execute<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
    ) -> ExecutionReport {
        self.run_unsupervised(partitioner, (s, t, band), None, ReducePolicy::Pool)
            .report
    }

    /// Execute only the reduce phase — per-partition local joins, worker mapping,
    /// stats, verification — against **pre-shuffled** arenas, as [`Executor::map_shuffle`]
    /// returns them: the back half of [`Executor::execute`] on its own. The arenas
    /// are only borrowed, so they are copied and the copy enters the pipeline where
    /// `execute`'s own shuffle output does; the
    /// plan-cached service ([`crate::BandJoinService`]) keeps its arenas join-ready instead and
    /// skips both the copy and the sorts. The result is bit-identical by
    /// construction to a fresh [`Executor::execute`] with the same partitioner
    /// (only the wall-clock measurements differ; `map_shuffle_wall_seconds` is
    /// reported as 0 because no shuffle ran).
    ///
    /// `band` may be *narrower* (per-dimension ε ≤) than the band the partitioner
    /// and arenas were built for: every pair matching the narrower band also
    /// matched the wider one, so the wider plan's duplication still co-locates it
    /// exactly once, and the join kernels filter with `band` exactly — this is
    /// what makes band-subsumption reuse sound.
    ///
    /// # Panics
    /// Panics if either arena's partition count does not match the partitioner's.
    pub fn execute_prepared<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        s_parts: &PartitionedIndex,
        t_parts: &PartitionedIndex,
    ) -> ExecutionReport {
        for parts in [s_parts, t_parts] {
            assert_eq!(
                parts.num_partitions(),
                partitioner.num_partitions().max(1),
                "pre-shuffled arenas were built for a different partitioning"
            );
        }
        let copy = Arenas::Owned(ShuffledInputs {
            s_parts: s_parts.clone(),
            t_parts: t_parts.clone(),
            wall_seconds: 0.0,
        });
        self.run_unsupervised(partitioner, (s, t, band), Some(copy), ReducePolicy::Pool)
            .report
    }

    /// **The** reduce: every partition's [`join_partition`] under `policy`'s
    /// schedule, merged in partition order by [`merge_shard_outcomes`] — so loads
    /// and pairs are identical across policies, arenas and thread counts, and only
    /// the wall-clock measurements differ.
    ///
    /// Over [`Arenas::Owned`] the pool sorts and joins each partition in the same
    /// visit, in **one** parallel pass (a separate prepare pass costs a second
    /// barrier and a second trip through the arenas). Under supervision attempts of
    /// one shard overlap (speculation) and repeat (retry) and so must share the
    /// arenas: there the prepare is a pass of its own. Fails only under a supervised
    /// policy (merge budget exhausted, or a shard lost with degradation disabled).
    fn reduce(
        &self,
        query: &JoinQuery<'_>,
        arenas: Arenas<'_>,
        policy: &mut ReducePolicy<'_>,
    ) -> Result<Reduced, SuperviseError> {
        let phase_start = Instant::now();
        let par = self.par;
        let (s, t) = (query.s, query.t);
        let mut prepared = None;
        let mut partitions_prepared = 0;
        let arenas = match arenas {
            Arenas::Owned(shuffled) if matches!(policy, ReducePolicy::Supervised(_)) => {
                let ready = prepared.insert(JoinReadyInputs::prepare(shuffled, s, t, par).0);
                partitions_prepared = ready.num_partitions() as u64;
                Arenas::Shared(ready)
            }
            arenas => arenas,
        };
        let n = match &arenas {
            Arenas::Owned(shuffled) => shuffled.s_parts.num_partitions(),
            Arenas::Shared(ready) => ready.num_partitions(),
        };
        // The pool merges as one shard spanning every partition: its tasks are
        // scheduling units, nothing reports them.
        let (plan, threads_used) = match policy {
            ReducePolicy::Pool => (
                ShardPlan::contiguous(n, 1),
                par.threads().clamp(1, n.max(1)),
            ),
            // Every supervised attempt has an OS thread of its own.
            ReducePolicy::Supervised(supervision) => {
                let plan = ShardPlan::contiguous(n, supervision.shards());
                let shards = plan.num_shards();
                (plan, shards)
            }
        };
        let whole = |outcomes| {
            vec![ShardOutcome {
                outcomes: Some(outcomes),
                wall_seconds: phase_start.elapsed().as_secs_f64(),
                attempts: 1,
                recovery_wall_seconds: 0.0,
            }]
        };
        let (ready, per_shard, failed) = match (arenas, &mut *policy) {
            // Only the pool gets here with owned arenas (supervision prepared them
            // above). Every visit also sorts, so it fuses a few partitions per task.
            (Arenas::Owned(shuffled), _) => {
                let tasks = partition_tasks(n, par);
                let (ready, per_task) =
                    JoinReadyInputs::prepare_with(shuffled, s, t, par, &tasks, |started, part| {
                        join_partition(query, part, started)
                    });
                partitions_prepared = ready.num_partitions() as u64;
                let outcomes = per_task.into_iter().flat_map(|task| task.0).collect();
                (&*prepared.insert(ready), whole(outcomes), Vec::new())
            }
            (Arenas::Shared(ready), ReducePolicy::Pool) => {
                let join_one = |p| join_partition(query, ready.part(p), Instant::now());
                let outcomes = par.map((0..n).collect(), join_one);
                (ready, whole(outcomes), Vec::new())
            }
            (Arenas::Shared(ready), ReducePolicy::Supervised(supervision)) => {
                let (per_shard, failed) = supervision.run_shards(query, ready, &plan)?;
                (ready, per_shard, failed)
            }
        };
        let wall_seconds = phase_start.elapsed().as_secs_f64();
        if let ReducePolicy::Supervised(supervision) = policy {
            supervision.merge_gate()?;
        }
        let (local, shard_stats) = merge_shard_outcomes(
            &plan,
            ready,
            per_shard,
            query.materialize,
            wall_seconds,
            threads_used,
        );
        Ok(Reduced {
            local,
            shard_stats,
            failed,
            ready: prepared,
            partitions_prepared,
        })
    }

    /// Everything downstream of the local joins — worker mapping, per-worker
    /// aggregation, stats, the simulated timing model, and verification — shared
    /// by every entry point so no two paths can drift apart.
    ///
    /// Lost shards make the report *degraded* (their partitions carry default
    /// loads): stats are computed over what survived, and verification is skipped —
    /// an exact-join comparison against missing work would flag the degradation as
    /// incorrectness.
    fn assemble_report<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        query: &JoinQuery<'_>,
        reduced: Reduced,
        map_shuffle_wall_seconds: f64,
    ) -> Executed {
        let (s, t, band) = (query.s, query.t, query.band);
        let Reduced {
            local,
            shard_stats,
            failed,
            ready,
            partitions_prepared,
        } = reduced;
        let per_partition = local.per_partition;
        let degraded = !failed.is_empty();

        // --- Partition → worker mapping (LPT on measured load). ---
        let partition_to_worker = self.map_partitions_to_workers(&per_partition);

        // --- Aggregate per worker. ---
        let workers = self.config.workers;
        let mut per_worker_work = vec![WorkerWork::default(); workers];
        let mut per_worker_wall_seconds = vec![0.0f64; workers];
        for (p, load) in per_partition.iter().enumerate() {
            let w = partition_to_worker[p] as usize;
            per_worker_work[w].input += load.input();
            per_worker_work[w].output += load.output;
            per_worker_work[w].comparisons += load.comparisons;
            per_worker_work[w].partitions += 1;
            per_worker_wall_seconds[w] += local.per_partition_wall_seconds[p];
        }

        let output_count: u64 = per_partition.iter().map(|p| p.output).sum();
        let total_comparisons: u64 = per_partition.iter().map(|p| p.comparisons).sum();
        let total_input: u64 = per_partition.iter().map(|p| p.input()).sum();

        let worker_loads: Vec<WorkerLoad> = per_worker_work
            .iter()
            .map(|w| WorkerLoad {
                input: w.input,
                output: w.output,
            })
            .collect();
        let stats = PartitioningStats::from_worker_loads(
            partitioner.name(),
            s.len() as u64,
            t.len() as u64,
            output_count,
            worker_loads,
            self.config.load_model,
        );
        debug_assert_eq!(stats.total_input, total_input);

        let simulated_join_seconds =
            MachineModel::default().join_seconds(total_input, &per_worker_work);

        // --- Verification (exact join chunked over the same threads). ---
        let par = self.par;
        // Over-decompose so the dynamic scheduler can balance probe chunks with
        // skewed per-tuple candidate counts (a dense head would otherwise gate the
        // whole phase as one static chunk per thread).
        let pieces = match par.threads() {
            1 => 1,
            threads => threads * 4,
        };
        let verify_start = Instant::now();
        let verification = if degraded {
            VerificationLevel::None
        } else {
            self.config.verification
        };
        let (exact_output, correct, pair_check) = match verification {
            VerificationLevel::None => (None, None, None),
            VerificationLevel::Count => {
                let exact = exact_join_count_with(s, t, band, pieces, par);
                (Some(exact), Some(exact == output_count), None)
            }
            VerificationLevel::FullPairs => {
                let pairs = local.all_pairs.as_ref().expect("pairs were materialized");
                // One exact join serves both the pair-level check and the exact
                // output count (the exact result never contains duplicates).
                let exact_pairs = exact_join_pairs_with(s, t, band, pieces, par);
                let check = check_pairs_against(&exact_pairs, pairs);
                let exact = exact_pairs.len() as u64;
                (Some(exact), Some(check.is_correct()), Some(check))
            }
        };
        let verify_wall_seconds = if verification == VerificationLevel::None {
            0.0
        } else {
            verify_start.elapsed().as_secs_f64()
        };

        let report = ExecutionReport {
            strategy: partitioner.name().to_string(),
            stats,
            partitions: per_partition.len(),
            per_partition,
            partition_to_worker,
            per_worker_work,
            total_comparisons,
            simulated_join_seconds,
            per_partition_wall_seconds: local.per_partition_wall_seconds,
            per_worker_wall_seconds,
            local_join_wall_seconds: local.wall_seconds,
            map_shuffle_wall_seconds,
            verify_wall_seconds,
            threads_used: local.threads_used,
            exact_output,
            correct,
            pair_check,
            degraded,
        };
        Executed {
            report,
            shard_stats,
            failed,
            pairs: local.all_pairs,
            ready,
            partitions_prepared,
        }
    }

    /// Map partitions onto workers: identity when there are at most `w` partitions,
    /// otherwise longest-processing-time-first on the measured per-partition load.
    ///
    /// The least-loaded worker is selected with the shared [`LeastLoaded`]
    /// tournament tree — lowest load, lowest index among equal loads, which is
    /// exactly the worker the `O(n·w)` first-minimum scan it replaces selects
    /// (`Iterator::min_by` returns the first minimum; measured integer-derived loads
    /// tie *often*, so the tie rule is load-bearing). The accumulation arithmetic
    /// is the scan's, so the mapping is bit-identical to it — verified against
    /// recorded scan mappings in the tests below — at `⌈log₂ w⌉` selects per
    /// partition.
    fn map_partitions_to_workers(&self, per_partition: &[PartitionLoad]) -> Vec<u32> {
        let workers = self.config.workers;
        let lm = &self.config.load_model;
        let n = per_partition.len();
        let mut assignment = vec![0u32; n];
        if n <= workers {
            for (p, slot) in assignment.iter_mut().enumerate() {
                *slot = p as u32;
            }
            return assignment;
        }
        let mut order: Vec<usize> = (0..n).collect();
        let load_of = |p: &PartitionLoad| lm.load(p.input() as f64, p.output as f64);
        // LPT needs a *total* order: `(load desc, partition index asc)` via
        // `total_cmp`, the same total order `EvalLedger` uses. The previous
        // `partial_cmp(..).unwrap_or(Equal)` left tied partitions in whatever
        // order the unstable sort produced, so a std sort-implementation change
        // would silently permute the worker mapping.
        order.sort_unstable_by(|&a, &b| {
            load_of(&per_partition[b])
                .total_cmp(&load_of(&per_partition[a]))
                .then_with(|| a.cmp(&b))
        });
        let mut worker_load = vec![0.0f64; workers];
        let mut least_loaded = LeastLoaded::new(workers, 0.0);
        for p in order {
            let target = least_loaded.least();
            assignment[p] = target as u32;
            worker_load[target] += load_of(&per_partition[p]);
            least_loaded.set(target, worker_load[target]);
        }
        assignment
    }

    /// The original `O(n·w)` first-minimum scan, kept verbatim as the reference the
    /// tree-based [`Executor::map_partitions_to_workers`] is verified against.
    #[cfg(test)]
    fn map_partitions_to_workers_scan(&self, per_partition: &[PartitionLoad]) -> Vec<u32> {
        let workers = self.config.workers;
        let lm = &self.config.load_model;
        let n = per_partition.len();
        let mut assignment = vec![0u32; n];
        if n <= workers {
            for (p, slot) in assignment.iter_mut().enumerate() {
                *slot = p as u32;
            }
            return assignment;
        }
        let mut order: Vec<usize> = (0..n).collect();
        let load_of = |p: &PartitionLoad| lm.load(p.input() as f64, p.output as f64);
        order.sort_unstable_by(|&a, &b| {
            load_of(&per_partition[b])
                .total_cmp(&load_of(&per_partition[a]))
                .then_with(|| a.cmp(&b))
        });
        let mut worker_load = vec![0.0f64; workers];
        for p in order {
            let target = (0..workers)
                .min_by(|&a, &b| {
                    worker_load[a]
                        .partial_cmp(&worker_load[b])
                        .unwrap_or(Ordering::Equal)
                })
                .expect("at least one worker");
            assignment[p] = target as u32;
            worker_load[target] += load_of(&per_partition[p]);
        }
        assignment
    }
}

/// The order-preserving merge of per-range join outcomes into one
/// [`LocalJoinPhase`] plus per-range accounting — the only place outcomes become a
/// phase, so no schedule (pool tasks, shards, recovered supervised shards) can
/// drift from another.
///
/// Range order equals partition order, so concatenating outcomes reproduces the
/// sequential visit exactly. A failed shard (`outcomes: None`) contributes
/// default (zero) loads for every partition in its range. Assignment counts are
/// read off the arenas (which exist whether or not the join ran), so assignment
/// conservation holds across *all* shards even in a degraded run; for successful
/// shards they equal the load-derived ones by construction
/// (`PartitionLoad::s_input` *is* the arena slice length).
fn merge_shard_outcomes(
    plan: &ShardPlan,
    ready: &JoinReadyInputs,
    shard_results: Vec<ShardOutcome>,
    materialize: bool,
    phase_wall_seconds: f64,
    threads_used: usize,
) -> (LocalJoinPhase, Vec<ShardStats>) {
    let (s_parts, t_parts) = (ready.s_parts(), ready.t_parts());
    let num_partitions = s_parts.num_partitions();
    let mut per_partition = Vec::with_capacity(num_partitions);
    let mut per_partition_wall_seconds = Vec::with_capacity(num_partitions);
    let mut all_pairs = materialize.then(Vec::new);
    let mut shard_stats = Vec::with_capacity(plan.num_shards());
    for (shard, result) in shard_results.into_iter().enumerate() {
        let (lo, hi) = plan.partition_range(shard);
        let assignments = |parts: &PartitionedIndex| -> u64 {
            (lo..hi).map(|p| parts.part(p).len() as u64).sum()
        };
        let (s_assignments, t_assignments) = (assignments(s_parts), assignments(t_parts));
        shard_stats.push(ShardStats {
            shard,
            partition_lo: lo,
            partition_hi: hi,
            s_assignments,
            t_assignments,
            arena_bytes: (s_assignments + t_assignments) * 4,
            wall_seconds: result.wall_seconds,
            attempts: result.attempts,
            recovery_wall_seconds: result.recovery_wall_seconds,
        });
        let lost = || (lo..hi).map(|_| (PartitionLoad::default(), Vec::new(), 0.0));
        let outcomes = result.outcomes.unwrap_or_else(|| lost().collect());
        debug_assert_eq!(outcomes.len(), hi - lo, "shard outcome range mismatch");
        for (load, pairs, seconds) in outcomes {
            per_partition.push(load);
            per_partition_wall_seconds.push(seconds);
            if let Some(all) = all_pairs.as_mut() {
                all.extend(pairs);
            }
        }
    }
    let local = LocalJoinPhase {
        per_partition,
        per_partition_wall_seconds,
        all_pairs,
        wall_seconds: phase_wall_seconds,
        threads_used,
    };
    (local, shard_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use recpart::PartitionId;
    use recpart::SinglePartition;

    fn random_relation(n: usize, dims: usize, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Relation::with_capacity(dims, n);
        let mut key = vec![0.0; dims];
        for _ in 0..n {
            for k in key.iter_mut() {
                *k = rng.gen_range(0.0..100.0);
            }
            r.push(&key);
        }
        r
    }

    /// A deliberately bad partitioner that hash-splits both inputs independently —
    /// it loses results, which the verification must detect.
    struct BrokenPartitioner;
    impl Partitioner for BrokenPartitioner {
        fn num_partitions(&self) -> usize {
            4
        }
        fn assign_s(&self, _key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            out.push((tuple_id % 4) as PartitionId);
        }
        fn assign_t(&self, _key: &[f64], tuple_id: u64, out: &mut Vec<PartitionId>) {
            out.push(((tuple_id / 3) % 4) as PartitionId);
        }
        fn name(&self) -> &str {
            "Broken"
        }
    }

    /// Every way into the one reduce — owned or shared arenas, under the pool or
    /// fault-free supervision with 1 / 3 / more-than-partitions shards — merges the
    /// same phase: loads, pairs, pair order.
    #[test]
    fn every_arena_and_policy_reduces_to_the_same_phase() {
        let s = random_relation(600, 1, 21);
        let t = random_relation(600, 1, 22);
        let band = BandCondition::symmetric(&[0.7]);
        let query = JoinQuery {
            s: &s,
            t: &t,
            band: &band,
            materialize: true,
        };
        let exec = Executor::new(ExecutorConfig::new(3).with_threads(2));
        let shuffle = || Arenas::Owned(exec.map_shuffle(&BrokenPartitioner, &s, &t));
        let want = exec
            .reduce(&query, shuffle(), &mut ReducePolicy::Pool)
            .unwrap();
        let ready = want
            .ready
            .as_ref()
            .expect("owned arenas come back prepared");
        assert_eq!(want.local.per_partition.len(), 4);
        assert!(!want.local.all_pairs.as_ref().unwrap().is_empty());

        let sups = [1, 3, 4 + 5].map(crate::SupervisorConfig::new);
        let supervised = |sup| ReducePolicy::supervised(sup, &crate::FaultPlan::none()).unwrap();
        let policies = [
            ReducePolicy::Pool,
            supervised(&sups[0]),
            supervised(&sups[1]),
            supervised(&sups[2]),
        ];
        for (i, mut policy) in policies.into_iter().enumerate() {
            for shared in [false, true] {
                let arenas = if shared {
                    Arenas::Shared(ready)
                } else {
                    shuffle()
                };
                let got = exec.reduce(&query, arenas, &mut policy).unwrap();
                let cell = format!("policy {i}, shared arenas: {shared}");
                assert_eq!(got.local.per_partition, want.local.per_partition, "{cell}");
                assert_eq!(got.local.all_pairs, want.local.all_pairs, "{cell}");
                assert_eq!(got.ready.is_some(), !shared, "{cell}");
                assert!(got.failed.is_empty(), "{cell}");
            }
        }
    }

    /// `execute_prepared` with a T arena of `t_partitions` partitions beside the S
    /// arena of the (4-partition) plan.
    fn execute_prepared_with_t_arena_of(t_partitions: usize) {
        let s = random_relation(40, 1, 15);
        let t = random_relation(40, 1, 16);
        let band = BandCondition::symmetric(&[1.0]);
        let exec = Executor::with_workers(2);
        let shuffled = exec.map_shuffle(&BrokenPartitioner, &s, &t);
        let t_parts = PartitionedIndex::empty(t_partitions);
        exec.execute_prepared(
            &BrokenPartitioner,
            &s,
            &t,
            &band,
            &shuffled.s_parts,
            &t_parts,
        );
    }

    #[test]
    #[should_panic(expected = "built for a different partitioning")]
    fn a_short_t_arena_is_rejected() {
        execute_prepared_with_t_arena_of(2);
    }

    #[test]
    #[should_panic(expected = "built for a different partitioning")]
    fn a_long_t_arena_is_rejected() {
        execute_prepared_with_t_arena_of(8);
    }

    #[test]
    fn single_partition_execution_is_exact() {
        let s = random_relation(300, 2, 1);
        let t = random_relation(300, 2, 2);
        let band = BandCondition::symmetric(&[2.0, 2.0]);
        let exec = Executor::new(ExecutorConfig::new(4));
        let report = exec.execute(&SinglePartition, &s, &t, &band);
        assert_eq!(report.correct, Some(true));
        assert_eq!(report.stats.total_input, 600);
        assert_eq!(report.partitions, 1);
        assert_eq!(report.stats.output_len, report.exact_output.unwrap());
        // Only one worker does all the work.
        assert_eq!(report.per_worker_work.len(), 4);
        let busy = report
            .per_worker_work
            .iter()
            .filter(|w| w.input > 0)
            .count();
        assert_eq!(busy, 1);
        assert!(report.simulated_join_seconds > 0.0);
    }

    #[test]
    fn broken_partitioner_is_detected() {
        let s = random_relation(200, 1, 3);
        let t = random_relation(200, 1, 4);
        let band = BandCondition::symmetric(&[1.0]);
        let exec = Executor::new(ExecutorConfig::new(4));
        let report = exec.execute(&BrokenPartitioner, &s, &t, &band);
        assert_eq!(
            report.correct,
            Some(false),
            "verification must catch lost results"
        );
    }

    #[test]
    fn full_pair_verification_on_single_partition() {
        let s = random_relation(80, 1, 5);
        let t = random_relation(80, 1, 6);
        let band = BandCondition::symmetric(&[0.8]);
        let exec =
            Executor::new(ExecutorConfig::new(2).with_verification(VerificationLevel::FullPairs));
        let report = exec.execute(&SinglePartition, &s, &t, &band);
        let check = report.pair_check.unwrap();
        assert!(check.is_correct(), "{check:?}");
    }

    #[test]
    fn verification_none_skips_exact_join() {
        let s = random_relation(50, 1, 7);
        let t = random_relation(50, 1, 8);
        let band = BandCondition::symmetric(&[0.5]);
        let exec = Executor::new(ExecutorConfig::new(2).with_verification(VerificationLevel::None));
        let report = exec.execute(&SinglePartition, &s, &t, &band);
        assert!(report.exact_output.is_none());
        assert!(report.correct.is_none());
    }

    #[test]
    fn stats_duplication_zero_for_single_partition() {
        let s = random_relation(100, 1, 9);
        let t = random_relation(100, 1, 10);
        let band = BandCondition::symmetric(&[0.5]);
        let exec = Executor::with_workers(3);
        let report = exec.execute(&SinglePartition, &s, &t, &band);
        assert_eq!(report.duplication_overhead(), 0.0);
        // All load on one of three workers → overhead ≈ 3× the lower bound − 1.
        assert!(report.load_overhead() > 1.5);
    }

    #[test]
    fn lpt_mapping_balances_many_partitions() {
        // Partition loads 8,7,6,5,4,3,2,1 onto 2 workers: LPT gives 18 vs 18.
        let per_partition: Vec<PartitionLoad> = (1..=8)
            .map(|i| PartitionLoad {
                s_input: i,
                t_input: 0,
                output: 0,
                comparisons: 0,
            })
            .collect();
        let exec = Executor::new(ExecutorConfig::new(2).with_load_model(LoadModel::new(1.0, 1.0)));
        let mapping = exec.map_partitions_to_workers(&per_partition);
        let mut per_worker = [0u64; 2];
        for (p, &w) in mapping.iter().enumerate() {
            per_worker[w as usize] += per_partition[p].s_input;
        }
        assert_eq!(per_worker[0] + per_worker[1], 36);
        assert_eq!(per_worker[0], 18);
    }

    /// Mappings recorded from the pre-heap first-minimum scan (the exact code now
    /// preserved as `map_partitions_to_workers_scan`): whatever replaces the scan
    /// must reproduce them bit for bit. Loads: `input = (p·2654435761) % 1000`,
    /// `output = (p·40503) % 400`, 40 partitions on 7 workers; plus 12 identical
    /// partitions on 3 workers (the all-ties case, where the tie rule alone decides).
    #[test]
    fn heap_lpt_reproduces_recorded_scan_mappings() {
        let per_partition: Vec<PartitionLoad> = (0u64..40)
            .map(|p| PartitionLoad {
                s_input: (p * 2654435761) % 1000,
                t_input: 0,
                output: (p * 40503) % 400,
                comparisons: 0,
            })
            .collect();
        let exec = Executor::with_workers(7);
        let recorded: Vec<u32> = vec![
            1, 3, 6, 0, 3, 5, 4, 1, 4, 6, 1, 4, 6, 4, 1, 5, 4, 2, 2, 6, 1, 0, 4, 5, 2, 6, 6, 2, 0,
            5, 5, 0, 2, 5, 3, 3, 3, 3, 1, 0,
        ];
        assert_eq!(exec.map_partitions_to_workers(&per_partition), recorded);

        let ties: Vec<PartitionLoad> = (0..12)
            .map(|_| PartitionLoad {
                s_input: 5,
                t_input: 5,
                output: 2,
                comparisons: 0,
            })
            .collect();
        let exec3 = Executor::with_workers(3);
        let recorded_ties: Vec<u32> = vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2];
        assert_eq!(exec3.map_partitions_to_workers(&ties), recorded_ties);
    }

    /// Regression test for the LPT ordering: tied loads must be assigned in
    /// ascending partition-index order. The pre-fix sort compared load alone with
    /// `partial_cmp(..).unwrap_or(Equal)`, so the unstable sort was free to permute
    /// tie classes (and did, for inputs large enough to leave insertion sort).
    /// Loads *ascend* in blocks of four tied partitions — an order the descending
    /// sort can neither keep nor simply reverse — and the expected mapping is the
    /// one produced by the total order `(load desc, partition index asc)`.
    #[test]
    fn lpt_assigns_tied_partitions_in_index_order() {
        let n = 240usize;
        let per_partition: Vec<PartitionLoad> = (0..n)
            .map(|p| PartitionLoad {
                s_input: (p / 4) as u64 + 1, // blocks of 4 exactly-tied loads, ascending
                t_input: 0,
                output: 0,
                comparisons: 0,
            })
            .collect();
        let exec = Executor::new(ExecutorConfig::new(5).with_load_model(LoadModel::new(1.0, 0.0)));
        let mapping = exec.map_partitions_to_workers(&per_partition);
        // Derive the expectation from the documented total order with a *stable*
        // sort: any deviation means the production sort is not the total order.
        let lm = LoadModel::new(1.0, 0.0);
        let load_of = |p: &PartitionLoad| lm.load(p.input() as f64, p.output as f64);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| load_of(&per_partition[b]).total_cmp(&load_of(&per_partition[a])));
        let mut expected = vec![0u32; n];
        let mut worker_load = [0.0f64; 5];
        for p in order {
            let target = (0..5)
                .min_by(|&a, &b| worker_load[a].total_cmp(&worker_load[b]))
                .unwrap();
            expected[p] = target as u32;
            worker_load[target] += load_of(&per_partition[p]);
        }
        assert_eq!(
            mapping, expected,
            "tied partitions must map in ascending index order"
        );
    }

    /// The tree mapping equals the preserved scan on a sweep of load shapes: unique
    /// loads, frequent exact ties (integer-derived), zeros, and a zero-output model
    /// — at one worker (the root is the leaf) and at non-power-of-two sizes, where
    /// the `+inf` padding matters.
    #[test]
    fn heap_lpt_matches_the_preserved_scan() {
        let mut rng = StdRng::seed_from_u64(0x10AD);
        for workers in [1usize, 2, 3, 5, 16, 30, 33] {
            for case in 0..20 {
                let n = workers + 1 + (case * 7) % 60;
                let per_partition: Vec<PartitionLoad> = (0..n)
                    .map(|_| PartitionLoad {
                        // Small ranges so exact load ties are common.
                        s_input: rng.gen_range(0..8u64),
                        t_input: rng.gen_range(0..8u64),
                        output: rng.gen_range(0..4u64),
                        comparisons: 0,
                    })
                    .collect();
                for load_model in [LoadModel::default(), LoadModel::new(1.0, 0.0)] {
                    let exec =
                        Executor::new(ExecutorConfig::new(workers).with_load_model(load_model));
                    assert_eq!(
                        exec.map_partitions_to_workers(&per_partition),
                        exec.map_partitions_to_workers_scan(&per_partition),
                        "workers={workers} case={case} model={load_model:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn identity_mapping_when_few_partitions() {
        let per_partition = vec![PartitionLoad::default(); 3];
        let exec = Executor::with_workers(8);
        let mapping = exec.map_partitions_to_workers(&per_partition);
        assert_eq!(mapping, vec![0, 1, 2]);
    }

    #[test]
    fn executor_is_deterministic() {
        let s = random_relation(150, 2, 11);
        let t = random_relation(150, 2, 12);
        let band = BandCondition::symmetric(&[1.0, 1.0]);
        let exec = Executor::with_workers(4);
        let a = exec.execute(&SinglePartition, &s, &t, &band);
        let b = exec.execute(&SinglePartition, &s, &t, &band);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.per_partition, b.per_partition);
        assert!((a.simulated_join_seconds - b.simulated_join_seconds).abs() < 1e-12);
    }

    #[test]
    fn report_includes_comparisons() {
        let s = random_relation(100, 1, 13);
        let t = random_relation(100, 1, 14);
        let band = BandCondition::symmetric(&[5.0]);
        let exec = Executor::with_workers(2);
        let report = exec.execute(&SinglePartition, &s, &t, &band);
        assert!(report.total_comparisons >= report.stats.output_len);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ExecutorConfig::new(0);
    }
}
