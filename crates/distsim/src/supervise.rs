//! Supervised sharded execution: `catch_unwind` worker isolation, capped
//! exponential backoff, straggler speculation, and graceful degradation.
//!
//! [`Executor::execute_supervised`] runs the reduce phase as shared-nothing
//! shards — [`SupervisorConfig::shards`] contiguous, disjoint partition ranges
//! ([`ShardPlan`]), each joined sequentially, merged back in partition order —
//! under a supervision layer modelled on a real cluster scheduler:
//!
//! * **Isolation** — every shard attempt runs on its own OS thread behind
//!   `catch_unwind`, so a panicking worker (injected or real) takes down its
//!   attempt, never the supervisor or its sibling shards. Shards are
//!   shared-nothing (disjoint partition ranges over immutable inputs), so a
//!   crashed attempt leaves nothing to clean up.
//! * **Retry with capped exponential backoff** — a failed attempt is relaunched
//!   up to [`SupervisorConfig::max_attempts`] times; attempt `k` sleeps
//!   `min(cap, base · 2^(k−2))` ms first (on the worker thread, never blocking
//!   the supervisor). The shuffle and merge phases get the same retry loop:
//!   both are pure functions of immutable inputs, so re-running them is safe.
//! * **Straggler speculation** — with a [`SupervisorConfig::shard_deadline_ms`],
//!   a shard still running past its deadline gets one speculative duplicate
//!   attempt; the first completed result is kept. Safe because shards are
//!   idempotent and deterministic: both attempts would produce bit-identical
//!   outcomes, so "first wins" cannot change the answer.
//! * **Graceful degradation** — a shard that exhausts its attempts yields a
//!   structured [`ShardError`] naming its partition range; the surviving shards
//!   still merge into a partial [`ExecutionReport`] flagged
//!   [`degraded`](ExecutionReport::degraded) (with
//!   [`SupervisorConfig::degrade`] off, the run fails with
//!   [`SuperviseError::ShardsFailed`] instead).
//!
//! The invariant throughout: **any run that ultimately succeeds is
//! bit-identical to the fault-free path.** This holds by construction, not by
//! checking — every attempt invokes the same `join_partition`, the merge is the
//! same `merge_shard_outcomes`, and the report assembly is the same
//! `assemble_report` the pool path uses. With [`FaultPlan::none`] a supervised run
//! is therefore bit-identical to the unsharded [`Executor::execute`]; the chaos
//! proptest in `tests/sharded_execution.rs` sweeps random [`FaultPlan`]s to
//! enforce the rest.
//!
//! Supervision is one of the two `ReducePolicy` cases of the executor's single
//! reduce, the other being the pool: [`Supervision`] holds the policy, the armed
//! injector and the recovery tally, and contributes the retried shuffle, the
//! shard schedule and the merge gate. Attempts of one shard may overlap
//! (speculation) and repeat (retry), so they **share** the arenas, prepared once
//! as a pass of its own, where the pool's cold path fuses the sort into the join
//! pass over arenas it owns.

use crate::executor::{
    join_range, ExecutionReport, Executor, JoinQuery, PartitionJoinOutcome, ReducePolicy,
    ShardOutcome, ShardPlan,
};
use crate::faults::{FaultContext, FaultInjector, FaultPlan, InjectedPanic, InjectionPoint};
use crate::join_ready::JoinReadyInputs;
use crate::metrics::{RecoveryCounters, ShardStats};
use crate::shuffle::{ShuffleError, ShuffledInputs};
use recpart::{BandCondition, Partitioner, Relation};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Shard count and the retry, backoff, deadline, and degradation policy of the
/// supervisor. Zero shards or zero attempts is a
/// [`SuperviseError::InvalidConfig`] of the run that uses the configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Shared-nothing shards the reduce is split into ([`ShardPlan::contiguous`]:
    /// shards beyond the partition count are dropped). At least 1.
    pub shards: usize,
    /// Maximum attempts per shard (and per shuffle / merge phase). At least 1.
    pub max_attempts: u32,
    /// Backoff before retry attempt `k ≥ 2`: `min(cap, base · 2^(k−2))` ms,
    /// slept on the relaunched worker's own thread.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff sleep, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Straggler deadline: a shard still running this many milliseconds after
    /// its first launch gets one speculative duplicate attempt (first completed
    /// result wins). `None` disables speculation — and lets the supervisor
    /// block on the result channel instead of polling it.
    pub shard_deadline_ms: Option<u64>,
    /// `true`: exhausted shards degrade into a partial report plus
    /// [`ShardError`]s. `false`: any exhausted shard fails the whole run.
    pub degrade: bool,
}

impl SupervisorConfig {
    /// `shards` shards under the default policy: 3 attempts, 2–20 ms backoff, no
    /// speculation, degradation on.
    pub fn new(shards: usize) -> Self {
        SupervisorConfig {
            shards,
            max_attempts: 3,
            backoff_base_ms: 2,
            backoff_cap_ms: 20,
            shard_deadline_ms: None,
            degrade: true,
        }
    }

    /// Override the per-shard / per-phase attempt budget (≥ 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// Override the backoff curve.
    pub fn with_backoff_ms(mut self, base: u64, cap: u64) -> Self {
        self.backoff_base_ms = base;
        self.backoff_cap_ms = cap;
        self
    }

    /// Enable straggler speculation past `deadline_ms`.
    pub fn with_shard_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.shard_deadline_ms = Some(deadline_ms);
        self
    }

    /// Fail the whole run on any exhausted shard instead of degrading.
    pub fn fail_fast(mut self) -> Self {
        self.degrade = false;
        self
    }

    /// The backoff sleep before attempt `attempt` (1-based; attempt 1 is free).
    fn backoff_ms(&self, attempt: u32) -> u64 {
        if attempt <= 1 {
            return 0;
        }
        let shift = (attempt - 2).min(16);
        self.backoff_cap_ms
            .min(self.backoff_base_ms.saturating_mul(1u64 << shift))
    }
}

/// Why a shard attempt (or the shard as a whole) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFailureKind {
    /// The worker panicked; the payload is described best-effort.
    Panic(String),
    /// The worker hit an I/O error.
    Io(String),
    /// The worker vanished without reporting a result (its channel
    /// disconnected) — defensive: shards are in-process threads today, but a
    /// multi-process supervisor meets this case for real.
    WorkerLost,
}

impl std::fmt::Display for ShardFailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFailureKind::Panic(msg) => write!(f, "panic: {msg}"),
            ShardFailureKind::Io(msg) => write!(f, "I/O error: {msg}"),
            ShardFailureKind::WorkerLost => f.write_str("worker lost"),
        }
    }
}

/// A shard that exhausted its retry budget: exactly which partitions are
/// missing from the degraded report, and why the last attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// The failed shard's index.
    pub shard: usize,
    /// First missing partition (inclusive).
    pub partition_lo: usize,
    /// Last missing partition (exclusive).
    pub partition_hi: usize,
    /// Attempts launched before giving up.
    pub attempts: u32,
    /// The last observed failure.
    pub kind: ShardFailureKind,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} (partitions [{}, {})) failed after {} attempts: {}",
            self.shard, self.partition_lo, self.partition_hi, self.attempts, self.kind
        )
    }
}

/// A supervised execution failed outright (no report could be produced).
#[derive(Debug)]
pub enum SuperviseError {
    /// The supervisor configuration is unusable (zero shards or zero attempts);
    /// nothing ran.
    InvalidConfig {
        /// Human-readable description of the problem.
        message: String,
    },
    /// The shuffle phase exhausted its attempts.
    Shuffle {
        /// Attempts made.
        attempts: u32,
        /// The last failure, described.
        last_error: String,
    },
    /// The merge phase exhausted its attempts.
    Merge {
        /// Attempts made.
        attempts: u32,
        /// The last failure, described.
        last_error: String,
    },
    /// Shards exhausted their attempts and degradation was disabled.
    ShardsFailed(Vec<ShardError>),
}

impl std::fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuperviseError::InvalidConfig { message } => {
                write!(f, "invalid supervision configuration: {message}")
            }
            SuperviseError::Shuffle {
                attempts,
                last_error,
            } => write!(f, "shuffle failed after {attempts} attempts: {last_error}"),
            SuperviseError::Merge {
                attempts,
                last_error,
            } => write!(f, "merge failed after {attempts} attempts: {last_error}"),
            SuperviseError::ShardsFailed(errors) => {
                write!(f, "{} shard(s) failed:", errors.len())?;
                for e in errors {
                    write!(f, " [{e}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SuperviseError {}

/// The result of a supervised sharded execution.
#[derive(Debug, Clone)]
pub struct SupervisedExecution {
    /// The merged report. With no failed shards it is bit-identical to
    /// [`Executor::execute`]; with failed shards it is partial and flagged
    /// [`degraded`](ExecutionReport::degraded).
    pub report: ExecutionReport,
    /// Per-shard ownership, measurements, and supervision accounting
    /// ([`ShardStats::attempts`], [`ShardStats::recovery_wall_seconds`]).
    pub shard_stats: Vec<ShardStats>,
    /// Simulated join time when each shard pays its own per-process job overhead
    /// (see `MachineModel::sharded_join_seconds`); the report's
    /// `simulated_join_seconds` keeps the single-job model for comparability.
    pub simulated_sharded_seconds: f64,
    /// The shards that exhausted their retry budget — empty for a fully
    /// successful run; their ranges exactly cover the partitions the degraded
    /// report is missing.
    pub failed: Vec<ShardError>,
    /// What the supervisor did to get here: faults fired, retries, backoff,
    /// speculation.
    pub recovery: RecoveryCounters,
}

/// Best-effort description of a caught panic payload.
fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        format!(
            "injected panic at {:?} unit {} attempt {}",
            p.point, p.unit, p.attempt
        )
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// What one completed shard attempt reports back to the supervisor.
struct AttemptDone {
    shard: usize,
    attempt: u32,
    /// Full wall of the attempt: backoff sleep + injected delays + join work.
    wall_seconds: f64,
    result: Result<(Vec<PartitionJoinOutcome>, f64), ShardFailureKind>,
}

/// Supervisor-side bookkeeping for one shard.
struct ShardSlot {
    attempts_launched: u32,
    in_flight: u32,
    first_launch: Instant,
    speculative_attempt: Option<u32>,
    /// The kept result: per-partition outcomes plus the join wall of the
    /// winning attempt.
    outcome: Option<(Vec<PartitionJoinOutcome>, f64)>,
    /// Full wall of the winning attempt (for recovery accounting).
    winning_attempt_wall: f64,
    /// Accumulated wall of every completed attempt.
    total_attempt_wall: f64,
    last_failure: Option<ShardFailureKind>,
}

impl Executor {
    /// Execute the band-join with `sup.shards` shared-nothing shard workers under
    /// supervision: fault injection per `faults` (pass [`FaultPlan::none`] for
    /// production), worker isolation, retry/backoff, straggler speculation, and
    /// graceful degradation per `sup` — see the module docs. Each shard joins its
    /// partition range sequentially on an OS thread of its own (the unit of
    /// isolation); the executor's `threads` knob still governs the shuffle,
    /// prepare and verification phases. Zero shards or zero attempts is a
    /// [`SuperviseError::InvalidConfig`], returned before anything runs.
    pub fn execute_supervised<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        s: &Relation,
        t: &Relation,
        band: &BandCondition,
        sup: &SupervisorConfig,
        faults: &FaultPlan,
    ) -> Result<SupervisedExecution, SuperviseError> {
        let mut policy = ReducePolicy::supervised(sup, faults)?;
        let query = self.query(s, t, band);
        let done = self.run(partitioner, &query, None, &mut policy)?;
        Ok(SupervisedExecution {
            simulated_sharded_seconds: self.config().machine.sharded_join_seconds(
                done.report.stats.total_input,
                &done.report.per_worker_work,
                done.shard_stats.len(),
            ),
            report: done.report,
            shard_stats: done.shard_stats,
            failed: done.failed,
            recovery: policy.recovery(),
        })
    }
}

/// The supervised [`ReducePolicy`]: the shard count and the retry / backoff /
/// deadline / degradation policy, the armed fault injector, and the tally of what
/// supervision had to do. One per query; the shuffle and the reduce of that query
/// both run under it.
pub(crate) struct Supervision<'a> {
    config: &'a SupervisorConfig,
    injector: FaultInjector,
    recovery: RecoveryCounters,
}

impl<'a> ReducePolicy<'a> {
    /// The supervised policy, its injector armed with `faults`. This is the one
    /// check of a [`SupervisorConfig`], made before anything runs or is counted:
    /// zero shards or zero attempts is an error.
    pub(crate) fn supervised(
        config: &'a SupervisorConfig,
        faults: &FaultPlan,
    ) -> Result<Self, SuperviseError> {
        let invalid = |message: &str| {
            Err(SuperviseError::InvalidConfig {
                message: message.into(),
            })
        };
        if config.shards == 0 {
            return invalid("a supervised reduce needs at least one shard");
        }
        if config.max_attempts == 0 {
            return invalid("a supervised phase needs at least one attempt");
        }
        Ok(ReducePolicy::Supervised(Supervision {
            config,
            injector: FaultInjector::new(faults.clone()),
            recovery: RecoveryCounters::default(),
        }))
    }

    /// What supervision did so far — the retry and speculation tally plus the
    /// faults that actually fired; all zeros under the pool.
    pub(crate) fn recovery(&self) -> RecoveryCounters {
        let ReducePolicy::Supervised(supervision) = self else {
            return RecoveryCounters::default();
        };
        let fired = supervision.injector.fired();
        RecoveryCounters {
            injected_panics: fired.panics,
            injected_io_errors: fired.io_errors,
            injected_delays: fired.delays,
            ..supervision.recovery
        }
    }
}

impl Supervision<'_> {
    /// Shard count of the supervised reduce (at least 1).
    pub(crate) fn shards(&self) -> usize {
        self.config.shards
    }

    /// One retried phase: run `attempt` (1-based attempt number) behind
    /// `catch_unwind` until it succeeds or the budget is gone, sleeping the
    /// backoff between tries. Returns the value and the retries it took.
    fn retried<T, E: std::fmt::Display>(
        &self,
        exhausted: fn(u32, String) -> SuperviseError,
        attempt: impl Fn(u32) -> Result<T, E>,
    ) -> Result<(T, u64), SuperviseError> {
        let mut n = 0u32;
        loop {
            n += 1;
            let failure = match catch_unwind(AssertUnwindSafe(|| attempt(n))) {
                Ok(Ok(value)) => return Ok((value, u64::from(n - 1))),
                Ok(Err(e)) => e.to_string(),
                Err(payload) => describe_panic(&*payload),
            };
            if n >= self.config.max_attempts {
                return Err(exhausted(n, failure));
            }
            std::thread::sleep(Duration::from_millis(self.config.backoff_ms(n + 1)));
        }
    }

    /// The supervised shuffle phase: the whole (pure, idempotent) shuffle is
    /// one retryable unit — a panic or injected I/O error on either side
    /// discards the partial arenas and re-runs from scratch after backoff.
    pub(crate) fn shuffle(
        &mut self,
        shuffle: impl Fn(&FaultContext<'_>) -> Result<ShuffledInputs, ShuffleError>,
    ) -> Result<ShuffledInputs, SuperviseError> {
        let injector = &self.injector;
        let exhausted = |attempts, last_error| SuperviseError::Shuffle {
            attempts,
            last_error,
        };
        let (shuffled, retries) = self.retried(exhausted, |attempt| {
            shuffle(&FaultContext { injector, attempt })
        })?;
        self.recovery.shuffle_retries += retries;
        Ok(shuffled)
    }

    /// The supervised schedule of the reduce over shared arenas: shard attempts
    /// behind `catch_unwind` (retry, backoff, deadline speculation).
    ///
    /// Returns every shard's outcome in shard order and the structured failures
    /// of exhausted shards (empty on full success; non-empty means the report
    /// will be degraded). Fails outright only when degradation is disabled.
    pub(crate) fn run_shards(
        &mut self,
        query: &JoinQuery<'_>,
        ready: &JoinReadyInputs,
        shard_plan: &ShardPlan,
    ) -> Result<(Vec<ShardOutcome>, Vec<ShardError>), SuperviseError> {
        let (sup, injector) = (self.config, &self.injector);
        let counters = &mut self.recovery;
        let slots = std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<AttemptDone>();
            // Launch one attempt of one shard on a fresh worker thread. The
            // backoff is slept by the worker, so the supervisor never blocks.
            let launch = |shard: usize, attempt: u32, backoff_ms: u64| {
                let tx = tx.clone();
                let range = shard_plan.partition_range(shard);
                scope.spawn(move || {
                    if backoff_ms > 0 {
                        std::thread::sleep(Duration::from_millis(backoff_ms));
                    }
                    let attempt_start = Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(
                        || -> Result<(Vec<PartitionJoinOutcome>, f64), ShardFailureKind> {
                            injector
                                .trip(InjectionPoint::ShardJoin, shard as u32, attempt)
                                .map_err(|e| ShardFailureKind::Io(e.to_string()))?;
                            Ok(join_range(query, ready, range))
                        },
                    ));
                    let result = match outcome {
                        Ok(r) => r,
                        Err(payload) => Err(ShardFailureKind::Panic(describe_panic(&*payload))),
                    };
                    // A send failure means the supervisor is gone (it never
                    // drops the receiver before draining every live attempt);
                    // there is nobody left to report to, so drop the result.
                    let _ = tx.send(AttemptDone {
                        shard,
                        attempt,
                        wall_seconds: attempt_start.elapsed().as_secs_f64(),
                        result,
                    });
                });
            };

            let mut slots: Vec<ShardSlot> = (0..shard_plan.num_shards())
                .map(|shard| {
                    let first_launch = Instant::now();
                    launch(shard, 1, 0);
                    ShardSlot {
                        attempts_launched: 1,
                        in_flight: 1,
                        first_launch,
                        speculative_attempt: None,
                        outcome: None,
                        winning_attempt_wall: 0.0,
                        total_attempt_wall: 0.0,
                        last_failure: None,
                    }
                })
                .collect();
            let mut live_attempts = slots.len() as u64;

            // Drain until every launched attempt has reported, resolving
            // shards (and launching retries / speculative duplicates) along
            // the way. Draining everything — not just until each shard is
            // resolved — keeps the recovery accounting exact and leaves no
            // worker running when the scope closes.
            let deadline = sup.shard_deadline_ms.map(Duration::from_millis);
            while live_attempts > 0 {
                let message = match deadline {
                    // recv: no deadline to poll for, so block (zero overhead
                    // on the fault-free fast path).
                    None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
                    Some(_) => rx.recv_timeout(Duration::from_millis(1)),
                };
                match message {
                    Ok(done) => {
                        live_attempts -= 1;
                        let slot = &mut slots[done.shard];
                        slot.in_flight -= 1;
                        slot.total_attempt_wall += done.wall_seconds;
                        match done.result {
                            Ok(outcome) => {
                                // First completed result wins; a later twin
                                // (speculation loser) only adds recovery wall.
                                if slot.outcome.is_none() {
                                    slot.outcome = Some(outcome);
                                    slot.winning_attempt_wall = done.wall_seconds;
                                    if slot.speculative_attempt == Some(done.attempt) {
                                        counters.speculative_wins += 1;
                                    }
                                }
                            }
                            Err(kind) => {
                                slot.last_failure = Some(kind);
                                if slot.outcome.is_none()
                                    && slot.attempts_launched < sup.max_attempts
                                {
                                    counters.shard_retries += 1;
                                    slot.attempts_launched += 1;
                                    slot.in_flight += 1;
                                    live_attempts += 1;
                                    launch(
                                        done.shard,
                                        slot.attempts_launched,
                                        sup.backoff_ms(slot.attempts_launched),
                                    );
                                }
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Deadline sweep: one speculative duplicate per
                        // straggling shard.
                        let deadline = deadline.expect("timeout implies a deadline");
                        for (shard, slot) in slots.iter_mut().enumerate() {
                            if slot.outcome.is_none()
                                && slot.in_flight > 0
                                && slot.speculative_attempt.is_none()
                                && slot.attempts_launched < sup.max_attempts
                                && slot.first_launch.elapsed() > deadline
                            {
                                counters.speculative_launches += 1;
                                slot.attempts_launched += 1;
                                slot.speculative_attempt = Some(slot.attempts_launched);
                                slot.in_flight += 1;
                                live_attempts += 1;
                                launch(shard, slot.attempts_launched, 0);
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        // Defensive: cannot happen while `tx` lives in this
                        // scope, but a lost channel must degrade into
                        // structured per-shard errors, never a hang or panic.
                        for slot in slots.iter_mut() {
                            if slot.outcome.is_none() && slot.last_failure.is_none() {
                                slot.last_failure = Some(ShardFailureKind::WorkerLost);
                            }
                            slot.in_flight = 0;
                        }
                        break;
                    }
                }
            }
            slots
        });

        // --- Resolve slots into shard outcomes and structured failures (a lost
        // shard has no winning attempt: all its attempt wall is recovery). ---
        let mut failed = Vec::new();
        let mut shard_outcomes = Vec::with_capacity(slots.len());
        for (shard, slot) in slots.into_iter().enumerate() {
            let (outcomes, wall_seconds) = match slot.outcome {
                Some((outcomes, join_wall)) => (Some(outcomes), join_wall),
                None => {
                    let (partition_lo, partition_hi) = shard_plan.partition_range(shard);
                    failed.push(ShardError {
                        shard,
                        partition_lo,
                        partition_hi,
                        attempts: slot.attempts_launched,
                        kind: slot.last_failure.unwrap_or(ShardFailureKind::WorkerLost),
                    });
                    (None, 0.0)
                }
            };
            shard_outcomes.push(ShardOutcome {
                outcomes,
                wall_seconds,
                attempts: slot.attempts_launched,
                recovery_wall_seconds: slot.total_attempt_wall - slot.winning_attempt_wall,
            });
        }
        if !failed.is_empty() && !sup.degrade {
            return Err(SuperviseError::ShardsFailed(failed));
        }
        Ok((shard_outcomes, failed))
    }

    /// The merge gate, retried. The merge itself is pure and infallible; its
    /// failure mode is the injected crash at [`InjectionPoint::Merge`], so retry
    /// the trip until it clears (or the budget is gone); the reduce then merges
    /// once.
    pub(crate) fn merge_gate(&mut self) -> Result<(), SuperviseError> {
        let injector = &self.injector;
        let exhausted = |attempts, last_error| SuperviseError::Merge {
            attempts,
            last_error,
        };
        let trip = |attempt| injector.trip(InjectionPoint::Merge, 0, attempt);
        let ((), retries) = self.retried(exhausted, trip)?;
        self.recovery.merge_retries += retries;
        Ok(())
    }
}
