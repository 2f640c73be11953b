//! Tests pinning the plan-cached query service to the one-shot executor.
//!
//! The service contract: every [`QueryResponse`] — cold build, warm hit, or
//! band-subsumed hit — is **bit-identical** (wall-clock fields aside) to a
//! fresh one-shot `Executor::execute` with the serving partitioner and the
//! query band, because every served path runs the same per-partition join and
//! report assembly. The serving partitioner is reachable through
//! [`BandJoinService::cached_partitioner`], which is how these tests rebuild
//! the oracle for each response.
//!
//! On top of bit-identity the suite pins:
//!
//! * **exact counter accounting** — `hits + subsumed_hits + misses` equals the
//!   number of queries, warm and subsumed hits shuffle zero tuples, and the
//!   cached arena bytes respect the capacity (or a single oversized plan
//!   remains);
//! * **a warm hit sorts nothing** — `ServiceHealth::partitions_prepared` rises by
//!   the plan's partition count on a cold build and by zero on warm and subsumed
//!   hits, and a cached plan holds exactly the bytes of the shuffle that built it;
//! * **generation staleness** — mutating the dataset purges every cached plan
//!   and the next identical query cold-builds against the new data;
//! * **bad queries are errors** — a band of the wrong dimensionality, zero
//!   workers, or zero supervised shards or attempts is an `Err`, and the service
//!   keeps serving;
//! * **supervised degradation** — a permanently crashing shard degrades
//!   exactly one response while the service keeps serving.

use band_join::distsim::{
    BandJoinQuery, BandJoinService, ExecutionReport, FaultKind, FaultPlan, FaultSpec,
    InjectionPoint, PlanSource, ServeError, ServiceConfig, SuperviseError, SupervisorConfig,
    VerificationLevel,
};
use band_join::prelude::*;
use band_join::recpart::{RecPartError, SampleConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small skewed-ish workload (mixture of a dense cluster and a uniform tail)
/// so RecPart has something to balance.
fn workload(seed: u64, n: usize, dims: usize) -> (Relation, Relation) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Relation::new(dims);
    let mut t = Relation::new(dims);
    let mut key = vec![0.0f64; dims];
    for _ in 0..n {
        for k in key.iter_mut() {
            *k = if rng.gen::<f64>() < 0.3 {
                rng.gen::<f64>() * 0.1
            } else {
                rng.gen::<f64>()
            };
        }
        s.push(&key);
        for k in key.iter_mut() {
            *k = rng.gen::<f64>();
        }
        t.push(&key);
    }
    (s, t)
}

fn small_sample() -> SampleConfig {
    SampleConfig {
        input_sample_size: 200,
        output_sample_size: 100,
        output_probe_count: 100,
    }
}

/// Field-by-field bit-identity of everything deterministic in a report (the
/// wall-clock fields are measurements and necessarily differ; a warm response
/// additionally reports `map_shuffle_wall_seconds == 0.0` by design).
fn assert_reports_identical(got: &ExecutionReport, want: &ExecutionReport, label: &str) {
    assert_eq!(got.strategy, want.strategy, "{label}: strategy");
    assert_eq!(got.stats, want.stats, "{label}: stats");
    assert_eq!(got.partitions, want.partitions, "{label}: partitions");
    assert_eq!(got.per_partition, want.per_partition, "{label}: loads");
    assert_eq!(
        got.partition_to_worker, want.partition_to_worker,
        "{label}: worker mapping"
    );
    assert_eq!(
        got.per_worker_work, want.per_worker_work,
        "{label}: per-worker work"
    );
    assert_eq!(
        got.total_comparisons, want.total_comparisons,
        "{label}: comparisons"
    );
    assert_eq!(got.exact_output, want.exact_output, "{label}: exact output");
    assert_eq!(got.correct, want.correct, "{label}: correctness");
    assert_eq!(got.pair_check, want.pair_check, "{label}: pair check");
    assert_eq!(got.degraded, want.degraded, "{label}: degraded flag");
}

/// The one-shot oracle for a response: a fresh `Executor::execute` with the
/// partitioner that served it and the query band.
fn oracle_for(
    service: &BandJoinService,
    response: &band_join::distsim::QueryResponse,
    band: &BandCondition,
    workers: usize,
) -> ExecutionReport {
    let partitioner = service
        .cached_partitioner(response.plan_signature)
        .expect("the serving plan is cached");
    Executor::new(service.config().executor_config(workers)).execute(
        partitioner,
        service.s(),
        service.t(),
        band,
    )
}

/// Health invariants that must hold after any query stream.
fn assert_health_invariants(service: &BandJoinService, queries: u64) {
    let h = service.health();
    assert_eq!(
        h.cache.hits + h.cache.subsumed_hits + h.cache.misses,
        queries,
        "every query is exactly one of hit/subsumed/miss"
    );
    assert_eq!(h.queries_served, queries);
    assert_eq!(
        h.shuffles_run, h.cache.misses,
        "only cold builds shuffle; warm and subsumed hits reuse arenas"
    );
    assert!(
        h.cache.arena_bytes_cached <= service.config().cache_capacity_bytes || h.cached_plans == 1,
        "cached bytes respect the capacity unless a single oversized plan remains"
    );
}

#[test]
fn warm_and_subsumed_hits_are_bit_identical_to_one_shot() {
    let (s, t) = workload(11, 600, 1);
    let config = ServiceConfig::new()
        .with_seed(41)
        .with_sample(small_sample())
        .with_threads(1)
        .with_verification(VerificationLevel::FullPairs);
    let mut service = BandJoinService::new(s, t, config);

    let wide = BandJoinQuery::new(BandCondition::symmetric(&[0.05]), 4);
    let narrow = BandJoinQuery::new(BandCondition::symmetric(&[0.02]), 4).with_materialize();

    // Query 1: cold build.
    let cold = service.serve(&wide).expect("cold query");
    assert_eq!(cold.source, PlanSource::ColdBuild);
    assert_eq!(cold.report.correct, Some(true));
    let shuffled_after_cold = service.health().tuples_shuffled;
    assert!(shuffled_after_cold > 0);
    let prepared_after_cold = service.health().partitions_prepared;
    assert_eq!(
        prepared_after_cold, cold.report.partitions as u64,
        "a cold build sorts each partition of its plan exactly once"
    );

    // Query 2: identical band — exact warm hit, zero new shuffles.
    let warm = service.serve(&wide).expect("warm query");
    assert_eq!(warm.source, PlanSource::WarmHit);
    assert_eq!(warm.plan_signature, cold.plan_signature);
    assert_eq!(warm.report.map_shuffle_wall_seconds, 0.0);
    assert_eq!(service.health().tuples_shuffled, shuffled_after_cold);
    assert_eq!(
        service.health().partitions_prepared,
        prepared_after_cold,
        "a warm hit sorts nothing"
    );

    // Query 3: narrower band — subsumed hit from the same plan, zero shuffles.
    let subsumed = service.serve(&narrow).expect("subsumed query");
    assert_eq!(subsumed.source, PlanSource::SubsumedHit);
    assert_eq!(subsumed.plan_signature, cold.plan_signature);
    assert_eq!(service.health().tuples_shuffled, shuffled_after_cold);
    assert_eq!(
        service.health().partitions_prepared,
        prepared_after_cold,
        "a subsumed hit re-sorts no partition, materialized pairs or not"
    );
    assert_eq!(
        subsumed.report.correct,
        Some(true),
        "exact under subsumption"
    );

    // Bit-identity of every response against its one-shot oracle.
    let oracle_wide = oracle_for(&service, &cold, &wide.band, 4);
    assert_reports_identical(&cold.report, &oracle_wide, "cold");
    assert_reports_identical(&warm.report, &oracle_wide, "warm");
    let oracle_narrow = oracle_for(&service, &subsumed, &narrow.band, 4);
    assert_reports_identical(&subsumed.report, &oracle_narrow, "subsumed");

    // Materialized pairs of the narrow query are exactly the exact join.
    let mut pairs = subsumed.pairs.expect("materialize was requested");
    let mut exact = exact_join_count_probe(&service, &narrow.band);
    pairs.sort_unstable();
    exact.sort_unstable();
    assert_eq!(pairs, exact, "subsumed pairs == exact join");
    assert!(warm.pairs.is_none(), "pairs only when requested");

    let h = service.health();
    assert_eq!(
        (h.cache.hits, h.cache.subsumed_hits, h.cache.misses),
        (1, 1, 1)
    );
    assert_eq!(h.cached_plans, 1);
    assert_eq!(h.degraded_responses, 0);
    assert_health_invariants(&service, 3);

    // The cached plan holds exactly the bytes of the shuffle that built it:
    // join-ready order is a permutation of the arenas, not an index beside them.
    let partitioner = service
        .cached_partitioner(cold.plan_signature)
        .expect("the plan is cached");
    let shuffled = Executor::new(service.config().executor_config(4)).map_shuffle(
        partitioner,
        service.s(),
        service.t(),
    );
    assert_eq!(h.cache.arena_bytes_cached, shuffled.arena_bytes());
}

fn exact_join_count_probe(service: &BandJoinService, band: &BandCondition) -> Vec<(u32, u32)> {
    band_join::distsim::exact_join_pairs(service.s(), service.t(), band)
        .into_iter()
        .collect()
}

#[test]
fn mutation_bumps_generation_and_never_serves_stale_arenas() {
    let (s, t) = workload(13, 400, 2);
    let config = ServiceConfig::new()
        .with_seed(43)
        .with_sample(small_sample())
        .with_threads(1)
        .with_verification(VerificationLevel::Count);
    let mut service = BandJoinService::new(s, t, config);
    let query = BandJoinQuery::new(BandCondition::symmetric(&[0.05, 0.05]), 4);

    let first = service.serve(&query).expect("cold query");
    assert_eq!(first.source, PlanSource::ColdBuild);
    assert_eq!(
        service.serve(&query).expect("warm query").source,
        PlanSource::WarmHit
    );
    let s_len_before = service.s().len();

    // Mutate S: the cached plan must be purged, not served.
    service.append_s(&[0.5, 0.5]);
    assert_eq!(service.s().len(), s_len_before + 1);
    assert_eq!(
        service.health().cached_plans,
        0,
        "stale plans are purged eagerly"
    );
    assert!(
        service.health().cache.evictions >= 1,
        "the purge is counted as an eviction"
    );

    let rebuilt = service.serve(&query).expect("rebuild after mutation");
    assert_eq!(
        rebuilt.source,
        PlanSource::ColdBuild,
        "a mutated dataset never gets a cached plan"
    );
    assert_eq!(
        rebuilt.report.stats.s_len,
        (s_len_before + 1) as u64,
        "the rebuilt plan sees the appended tuple"
    );
    assert_eq!(rebuilt.report.correct, Some(true));
    let oracle = oracle_for(&service, &rebuilt, &query.band, 4);
    assert_reports_identical(&rebuilt.report, &oracle, "rebuilt");
    assert_health_invariants(&service, 3);
}

#[test]
fn lru_eviction_respects_the_byte_capacity() {
    let (s, t) = workload(17, 500, 2);
    // Size the capacity so roughly one plan fits: the second distinct band
    // must evict the first.
    let probe_config = ServiceConfig::new()
        .with_seed(47)
        .with_sample(small_sample())
        .with_threads(1);
    let mut probe = BandJoinService::new(s.clone(), t.clone(), probe_config.clone());
    // Mirrored per-dimension ε: neither band subsumes the other, so both
    // queries cold-build their own plan and the re-query cannot be served by
    // the survivor.
    let q1 = BandJoinQuery::new(BandCondition::symmetric(&[0.08, 0.02]), 4);
    let q2 = BandJoinQuery::new(BandCondition::symmetric(&[0.02, 0.08]), 4);
    probe.serve(&q1).expect("probe");
    let one_plan_bytes = probe.health().cache.arena_bytes_cached;

    let config = probe_config.with_cache_capacity_bytes(one_plan_bytes + one_plan_bytes / 4);
    let mut service = BandJoinService::new(s, t, config);
    let first = service.serve(&q1).expect("cold 1");
    assert_eq!(
        first.report.correct, None,
        "serving verifies only when asked to (`with_verification`)"
    );
    assert_eq!(service.health().cache.evictions, 0);
    service.serve(&q2).expect("cold 2 evicts plan 1");
    let h = service.health();
    assert_eq!(h.cache.evictions, 1, "capacity forced exactly one eviction");
    assert_eq!(h.cached_plans, 1);

    // q1 was evicted: serving it again is a fresh cold build, not a hit — and
    // evicts plan 2 in turn.
    let again = service.serve(&q1).expect("cold 3");
    assert_eq!(again.source, PlanSource::ColdBuild);
    assert_health_invariants(&service, 3);
    let h = service.health();
    assert_eq!(
        (h.cache.misses, h.cache.evictions, h.cached_plans),
        (3, 2, 1)
    );
    assert_eq!(h.cache.arena_bytes_cached, one_plan_bytes);
}

/// A service over 2-d data that has answered nothing yet, and a query it can answer.
fn fresh_2d_service() -> (BandJoinService, BandJoinQuery) {
    let (s, t) = workload(23, 300, 2);
    let config = ServiceConfig::new()
        .with_seed(59)
        .with_sample(small_sample())
        .with_threads(1);
    let good = BandJoinQuery::new(BandCondition::symmetric(&[0.05, 0.05]), 4);
    (BandJoinService::new(s, t, config), good)
}

/// A rejected query is not counted, and the service answers the next one.
fn assert_still_serving(service: &mut BandJoinService, good: &BandJoinQuery) {
    assert_health_invariants(service, 0);
    let response = service.serve(good).expect("good query");
    assert_eq!(response.source, PlanSource::ColdBuild);
    assert_health_invariants(service, 1);
}

#[test]
fn a_band_of_the_wrong_dimensionality_is_an_error_not_a_panic() {
    let (mut service, good) = fresh_2d_service();
    let query = BandJoinQuery::new(BandCondition::symmetric(&[0.05]), 4);
    let err = service.serve(&query).expect_err("1-d band, 2-d data");
    let expected = RecPartError::DimensionMismatch {
        expected: 2,
        found: 1,
    };
    assert!(
        matches!(&err, ServeError::Query(e) if *e == expected),
        "{err}"
    );
    assert_still_serving(&mut service, &good);
}

#[test]
fn zero_workers_is_an_error_not_a_panic() {
    let (mut service, good) = fresh_2d_service();
    let query = BandJoinQuery::new(good.band.clone(), 0);
    let err = service.serve(&query).expect_err("zero workers");
    assert!(
        matches!(err, ServeError::Query(RecPartError::InvalidConfig { .. })),
        "{err}"
    );
    assert_still_serving(&mut service, &good);
}

/// The two unusable supervisor configurations: zero shards, and zero attempts.
fn unusable_supervisor_configs() -> [SupervisorConfig; 2] {
    [
        SupervisorConfig::new(0),
        SupervisorConfig::new(4).with_max_attempts(0),
    ]
}

#[test]
fn zero_supervised_shards_is_an_error_not_a_panic() {
    for supervisor in unusable_supervisor_configs() {
        let (s, t) = workload(23, 300, 2);
        let config = ServiceConfig::new()
            .with_sample(small_sample())
            .with_supervised(supervisor);
        let mut service = BandJoinService::new(s, t, config);
        let query = BandJoinQuery::new(BandCondition::symmetric(&[0.05, 0.05]), 4);
        // Every query of the misconfigured service is refused, none is counted, and
        // refusing one does not break the service for the next.
        for _ in 0..2 {
            let err = service.serve(&query).expect_err("unusable supervisor");
            assert!(
                matches!(err, ServeError::Query(RecPartError::InvalidConfig { .. })),
                "{supervisor:?}: {err}"
            );
            assert_health_invariants(&service, 0);
        }
    }
}

#[test]
fn zero_shards_to_execute_supervised_is_an_error_not_a_panic() {
    let (service, good) = fresh_2d_service();
    for supervisor in unusable_supervisor_configs() {
        let err = Executor::with_workers(good.workers)
            .execute_supervised(
                &recpart::SinglePartition,
                service.s(),
                service.t(),
                &good.band,
                &supervisor,
                &FaultPlan::none(),
            )
            .expect_err("unusable supervisor");
        assert!(
            matches!(err, SuperviseError::InvalidConfig { .. }),
            "{supervisor:?}: {err}"
        );
    }
}

#[test]
fn supervised_crash_degrades_one_response_and_service_keeps_serving() {
    let (s, t) = workload(19, 500, 1);
    let config = ServiceConfig::new()
        .with_seed(53)
        .with_sample(small_sample())
        .with_threads(1)
        .with_supervised(SupervisorConfig::new(4).with_max_attempts(2));
    let mut service = BandJoinService::new(s, t, config);
    let query = BandJoinQuery::new(BandCondition::symmetric(&[0.05]), 4);

    // Warm the cache fault-free.
    let cold = service.serve(&query).expect("cold query");
    assert_eq!(cold.source, PlanSource::ColdBuild);
    assert!(!cold.report.degraded);

    // Shard 1 panics on every attempt: this one response degrades.
    let crash = FaultPlan::new(vec![FaultSpec {
        point: InjectionPoint::ShardJoin,
        unit: 1,
        fire_attempts: u32::MAX,
        kind: FaultKind::Panic,
    }]);
    let degraded = service
        .serve_with_faults(&query, &crash)
        .expect("degraded but answered");
    assert_eq!(degraded.source, PlanSource::WarmHit);
    assert!(degraded.report.degraded, "response is flagged degraded");
    assert!(degraded.recovery.injected_panics >= 1);
    assert!(degraded.recovery.shard_retries >= 1);
    assert_eq!(service.health().degraded_responses, 1);

    // The next fault-free query is whole again and bit-identical to the oracle.
    let healthy = service.serve(&query).expect("healthy again");
    assert_eq!(healthy.source, PlanSource::WarmHit);
    assert!(!healthy.report.degraded);
    let oracle = oracle_for(&service, &healthy, &query.band, 4);
    assert_reports_identical(&healthy.report, &oracle, "post-degradation");
    assert!(
        service.health().recovery.injected_panics >= 1,
        "recovery accounting accumulates in health"
    );
    assert_health_invariants(&service, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random query streams: per-dimension ε below / equal to / above the
    /// cached plans, both materialize modes, every thread setting. Every response
    /// must be bit-identical to its one-shot oracle — and so must every other way
    /// of running the same plan (`execute_prepared` on a raw shuffle, fault-free
    /// `execute_supervised`) — the pair list of a (plan, band) must come out in the
    /// same order however it is served, and the counters must account for the
    /// stream exactly.
    #[test]
    fn random_query_streams_match_one_shot_oracles(
        seed in 0u64..500,
        threads_idx in 0usize..3,
        stream in proptest::collection::vec((0usize..3, any::<bool>()), 1..6),
    ) {
        let threads = [1usize, 0, 4][threads_idx];
        let dims = 1 + (seed % 2) as usize;
        let (s, t) = workload(seed, 350, dims);
        let config = ServiceConfig::new()
            .with_seed(seed ^ 0xBAD5EED)
            .with_sample(small_sample())
            .with_threads(threads)
            .with_verification(VerificationLevel::FullPairs);
        let mut service = BandJoinService::new(s, t, config);

        let eps_choices = [0.02, 0.04, 0.06];
        let workers = 4;
        let mut pair_lists = std::collections::HashMap::new();
        for (i, &(eps_idx, materialize)) in stream.iter().enumerate() {
            let eps = vec![eps_choices[eps_idx]; dims];
            let band = BandCondition::symmetric(&eps);
            let mut query = BandJoinQuery::new(band.clone(), workers);
            if materialize {
                query = query.with_materialize();
            }
            let prepared_before = service.health().partitions_prepared;
            let response = service.serve(&query).expect("query");
            let label = format!(
                "seed {seed} threads {threads} query {i} \
                 (eps {eps:?}, materialize {materialize}, source {:?})",
                response.source
            );

            // Bit-identity against the one-shot oracle with the serving plan.
            let oracle = oracle_for(&service, &response, &band, workers);
            assert_reports_identical(&response.report, &oracle, &label);
            prop_assert_eq!(response.report.correct, Some(true), "{}", label);

            // The other reduce paths over the same plan: the raw shuffle's arenas
            // borrowed (scratch copies), and shard workers owning their ranges.
            let partitioner = service.cached_partitioner(response.plan_signature).unwrap();
            let exec = Executor::new(service.config().executor_config(workers));
            let (s, t) = (service.s(), service.t());
            let raw = exec.map_shuffle(partitioner, s, t);
            let prepared =
                exec.execute_prepared(partitioner, s, t, &band, &raw.s_parts, &raw.t_parts);
            assert_reports_identical(&prepared, &oracle, &format!("{label}: execute_prepared"));
            let sharded = exec
                .execute_supervised(
                    partitioner,
                    s,
                    t,
                    &band,
                    &SupervisorConfig::new(3),
                    &FaultPlan::none(),
                )
                .unwrap();
            assert_reports_identical(&sharded.report, &oracle, &format!("{label}: sharded"));

            // A warm-served response reports no shuffle and sorted no partition;
            // a cold build sorted each partition once; pairs iff requested.
            let prepared_now = service.health().partitions_prepared - prepared_before;
            if response.source == PlanSource::ColdBuild {
                prop_assert_eq!(prepared_now, response.report.partitions as u64, "{}", label);
            } else {
                prop_assert_eq!(response.report.map_shuffle_wall_seconds, 0.0, "{}", label);
                prop_assert_eq!(prepared_now, 0, "{}", label);
            }
            prop_assert_eq!(response.pairs.is_some(), materialize, "{}", label);
            if let Some(mut pairs) = response.pairs {
                let first = pair_lists
                    .entry((response.plan_signature, eps_idx))
                    .or_insert_with(|| pairs.clone());
                prop_assert_eq!(&pairs, first, "{}: pair order", label);
                let mut exact: Vec<(u32, u32)> =
                    band_join::distsim::exact_join_pairs(service.s(), service.t(), &band)
                        .into_iter()
                        .collect();
                pairs.sort_unstable();
                exact.sort_unstable();
                prop_assert_eq!(pairs, exact, "{}", label);
            }
        }
        assert_health_invariants(&service, stream.len() as u64);
    }
}
