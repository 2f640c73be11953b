//! The two serving workloads: query scripts against a `BandJoinService`, closed loop,
//! one client (the service is `&mut self`).
//!
//! * `serve-hot` — the cache holds every plan. Base bands are pre-built in set-up;
//!   the stream draws a base band skewed 50/30/20 % from the seed's RNG and asks for
//!   0.8 × that band (a subsumed hit) 30 % of the time.
//! * `serve-churn` — eight worker counts (plans for different `w` never subsume each
//!   other) against a cache of about three plans, one append ending every generation
//!   of queries. The *access pattern* is part of the workload definition and fixed:
//!   with ~50 queries per run an independently drawn pattern moves the hit mix, and
//!   with it queries/s, by more than any regression bound. `--seed` drives the data
//!   and the appended tuples. A run measures whole cycles of two generations, so every
//!   run times the same mix whatever the machine's speed.

use crate::run::Opts;
use crate::stats::median_or_zero;
use crate::trace::Tracer;
use crate::workloads::{
    check_report, ensure, quality_ratios, service_config, Fingerprint, Kind, Tally, Workload,
    WORKERS,
};
use datagen::pareto::pareto_value;
use distsim::{exact_join_count_on, BandJoinQuery, BandJoinService, PlanSource, ServiceHealth};
use rand::{rngs::StdRng, Rng, SeedableRng};
use recpart::BandCondition;
use std::collections::BTreeMap;
use std::time::Instant;

/// Base bands of `serve-hot`, pre-built before the clock.
pub const HOT_BASE_EPS: [f64; 3] = [1e-5, 2e-5, 3e-5];
const HOT_BASE_CUMULATIVE: [f64; 3] = [0.5, 0.8, 1.0];
const HOT_SUBSUMED_SHARE: f64 = 0.3;
const HOT_SUBSUMED_FACTOR: f64 = 0.8;

/// Worker counts of `serve-churn`, most popular first (popularity ∝ 1/rank).
pub const CHURN_WORKERS: [usize; 8] = [WORKERS, 24, 36, 20, 45, 16, 12, 8];
const CHURN_PATTERN_SEED: u64 = 0x5EED_CAFE;
/// Generations per measured cycle; each ends with one append (a purge).
const CHURN_GENERATIONS_PER_CYCLE: usize = 2;

/// Cache capacity of `serve-churn`: arenas are 4-byte indices, so 3.5 × 4 bytes per
/// input tuple holds three plans and never four.
pub fn churn_cache_bytes(tuples: usize) -> u64 {
    14 * tuples as u64
}

enum Op {
    Query {
        eps: f64,
        workers: usize,
        /// The plan source the cache state guarantees, where the script knows it.
        expect: Option<PlanSource>,
    },
    /// Append one Pareto-distributed tuple to S.
    Append(f64),
}

/// The operations of one serving workload, in order.
pub struct Script {
    churn: bool,
    /// Seeded from `--seed`: the hot stream's draws, the churn stream's appended keys.
    rng: StdRng,
    /// Fixed: the churn stream's popularity ranks.
    pattern: StdRng,
    generation_queries: usize,
    issued: usize,
}

impl Script {
    pub fn new(workload: &Workload, seed: u64, generation_queries: usize) -> Self {
        Script {
            churn: workload.kind == Kind::ServeChurn,
            rng: StdRng::seed_from_u64(seed ^ 0x5712_EA11),
            pattern: StdRng::seed_from_u64(CHURN_PATTERN_SEED),
            generation_queries,
            issued: 0,
        }
    }

    /// Operations per measured cycle.
    fn cycle_len(&self) -> usize {
        if self.churn {
            CHURN_GENERATIONS_PER_CYCLE * (self.generation_queries + 1)
        } else {
            1
        }
    }

    fn next_op(&mut self) -> Op {
        self.issued += 1;
        if !self.churn {
            let draw: f64 = self.rng.gen();
            let base = HOT_BASE_EPS[HOT_BASE_CUMULATIVE.partition_point(|&c| c <= draw)];
            return if self.rng.gen::<f64>() < HOT_SUBSUMED_SHARE {
                Op::Query {
                    eps: base * HOT_SUBSUMED_FACTOR,
                    workers: WORKERS,
                    expect: Some(PlanSource::SubsumedHit),
                }
            } else {
                Op::Query {
                    eps: base,
                    workers: WORKERS,
                    expect: Some(PlanSource::WarmHit),
                }
            };
        }
        if self.issued.is_multiple_of(self.generation_queries + 1) {
            return Op::Append(pareto_value(1.5, &mut self.rng));
        }
        let total: f64 = (1..=CHURN_WORKERS.len()).map(|r| 1.0 / r as f64).sum();
        let mut draw = self.pattern.gen::<f64>() * total;
        let mut rank = 0;
        while rank + 1 < CHURN_WORKERS.len() && draw >= 1.0 / (rank + 1) as f64 {
            draw -= 1.0 / (rank + 1) as f64;
            rank += 1;
        }
        Op::Query {
            eps: 1e-5,
            workers: CHURN_WORKERS[rank],
            expect: None,
        }
    }
}

/// Serve `band` at the representative worker count on a cache that cannot hold a
/// plan for it yet; the answer must be a cold build. Returns its fingerprint.
pub fn cold_build(
    service: &mut BandJoinService,
    band: BandCondition,
    tally: &mut Tally,
) -> Option<Fingerprint> {
    let mut violations = Vec::new();
    let mut fingerprint = None;
    match service.serve(&BandJoinQuery::new(band, WORKERS)) {
        Ok(response) => {
            ensure(
                &mut violations,
                response.source == PlanSource::ColdBuild,
                || format!("answered from {:?}", response.source),
            );
            fingerprint = Some(Fingerprint::of(response.plan_signature, &response.report));
        }
        Err(error) => violations.push(format!("serve failed: {error}")),
    }
    tally.record("cold build", violations);
    fingerprint
}

/// Generate the data and load the service; `serve-hot` also builds its base plans.
/// Returns the fingerprint of the representative query's cold build when one ran.
pub fn setup_service(
    tr: &mut Tracer,
    workload: &Workload,
    opts: &Opts,
    tally: &mut Tally,
) -> (BandJoinService, Option<Fingerprint>) {
    let (s, t) = tr.span("datagen", |_| workload.generate(opts.seed, opts.quick));
    let churn = workload.kind == Kind::ServeChurn;
    let capacity = if churn {
        churn_cache_bytes(s.len() + t.len())
    } else {
        256 << 20
    };
    let mut service = BandJoinService::new(s, t, service_config(opts.threads, capacity));
    let mut representative = None;
    if !churn {
        for eps in HOT_BASE_EPS {
            let built = cold_build(&mut service, BandCondition::symmetric(&[eps]), tally);
            if eps == workload.eps {
                representative = built;
            }
        }
    }
    (service, representative)
}

/// How long a stream runs.
pub enum Until {
    /// Whole cycles until the operations' own wall time reaches this many seconds.
    OpSeconds(f64),
    /// Exactly this many cycles (the traced pass: counts must repeat exactly).
    Cycles(usize),
}

/// What one measured stream produced.
pub struct StreamRun {
    /// `serve` wall seconds by plan source: cold, warm, subsumed.
    pub cold: Vec<f64>,
    pub warm: Vec<f64>,
    pub subsumed: Vec<f64>,
    pub appends: Vec<f64>,
    /// Sum of every operation's wall (oracle computations excluded).
    pub op_seconds: f64,
    pub queries: u64,
    input_ratio_sum: f64,
    load_ratio_sum: f64,
    /// Most arena bytes the cache held after any query.
    peak_bytes_cached: u64,
    /// Service counters around the stream; the metrics are their differences.
    before: ServiceHealth,
    after: ServiceHealth,
}

impl StreamRun {
    pub fn queries_per_s(&self) -> f64 {
        self.queries as f64 / self.op_seconds
    }

    /// Mean `I / (|S|+|T|)` and `L_m / L_0` over the answered queries.
    pub fn quality_ratios(&self) -> (f64, f64) {
        let n = self.queries.max(1) as f64;
        (self.input_ratio_sum / n, self.load_ratio_sum / n)
    }

    /// The per-layer cache and serve metrics of this stream.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let (before, after) = (&self.before, &self.after);
        let hits = (after.cache.hits - before.cache.hits) as f64;
        let subsumed = (after.cache.subsumed_hits - before.cache.subsumed_hits) as f64;
        let misses = (after.cache.misses - before.cache.misses) as f64;
        vec![
            ("plan_cache.hits", hits),
            ("plan_cache.subsumed_hits", subsumed),
            ("plan_cache.misses", misses),
            (
                "plan_cache.evictions",
                (after.cache.evictions - before.cache.evictions) as f64,
            ),
            (
                "plan_cache.hit_frac",
                (hits + subsumed) / (hits + subsumed + misses).max(1.0),
            ),
            ("plan_cache.bytes_cached", self.peak_bytes_cached as f64),
            (
                "serve.shuffles_run",
                (after.shuffles_run - before.shuffles_run) as f64,
            ),
            (
                "serve.tuples_shuffled",
                (after.tuples_shuffled - before.tuples_shuffled) as f64,
            ),
            ("serve.cold_s", median_or_zero(&self.cold)),
            ("serve.warm_s", median_or_zero(&self.warm)),
            ("serve.subsumed_s", median_or_zero(&self.subsumed)),
            ("serve.append_s", median_or_zero(&self.appends)),
        ]
    }
}

/// Names of [`StreamRun::layer_metrics`], which one-shot workloads report as zero.
pub const STREAM_LAYER_METRICS: [&str; 12] = [
    "plan_cache.hits",
    "plan_cache.subsumed_hits",
    "plan_cache.misses",
    "plan_cache.evictions",
    "plan_cache.hit_frac",
    "plan_cache.bytes_cached",
    "serve.shuffles_run",
    "serve.tuples_shuffled",
    "serve.cold_s",
    "serve.warm_s",
    "serve.subsumed_s",
    "serve.append_s",
];

/// Drive `script` against `service`, checking every answer against an oracle computed
/// outside the operations' clock (once per band and dataset generation) and against
/// the first answer to the same query.
pub fn run_stream(
    tr: &mut Tracer,
    service: &mut BandJoinService,
    script: &mut Script,
    until: Until,
    threads: usize,
    tally: &mut Tally,
) -> StreamRun {
    let before = service.health();
    let mut run = StreamRun {
        cold: Vec::new(),
        warm: Vec::new(),
        subsumed: Vec::new(),
        appends: Vec::new(),
        op_seconds: 0.0,
        queries: 0,
        input_ratio_sum: 0.0,
        load_ratio_sum: 0.0,
        peak_bytes_cached: 0,
        before,
        after: before,
    };
    let mut oracles: BTreeMap<u64, u64> = BTreeMap::new();
    let mut first_answers: BTreeMap<(u64, usize), Fingerprint> = BTreeMap::new();
    let mut cycles = 0;
    loop {
        for _ in 0..script.cycle_len() {
            match script.next_op() {
                Op::Append(key) => {
                    let start = Instant::now();
                    tr.span("serve.append", |_| service.append_s(&[key]));
                    let wall = start.elapsed().as_secs_f64();
                    run.appends.push(wall);
                    run.op_seconds += wall;
                    oracles.clear();
                    first_answers.clear();
                    tally.record("append", Vec::new());
                }
                Op::Query {
                    eps,
                    workers,
                    expect,
                } => {
                    let band = BandCondition::symmetric(&[eps]);
                    let oracle = *oracles.entry(eps.to_bits()).or_insert_with(|| {
                        exact_join_count_on(service.s(), service.t(), &band, threads)
                    });
                    let query = BandJoinQuery::new(band, workers);
                    let shuffled_before = service.health().tuples_shuffled;
                    let start = Instant::now();
                    let response = tr.span("serve", |_| service.serve(&query));
                    let wall = start.elapsed().as_secs_f64();
                    run.op_seconds += wall;
                    run.queries += 1;
                    let health = service.health();
                    let shuffled = health.tuples_shuffled - shuffled_before;
                    run.peak_bytes_cached =
                        run.peak_bytes_cached.max(health.cache.arena_bytes_cached);

                    let mut violations = Vec::new();
                    match response {
                        Err(error) => violations.push(format!("serve failed: {error}")),
                        Ok(response) => {
                            let answer = Fingerprint::of(response.plan_signature, &response.report);
                            let first = *first_answers
                                .entry((eps.to_bits(), workers))
                                .or_insert(answer);
                            violations = check_report(
                                response.plan_signature,
                                &response.report,
                                &first,
                                oracle,
                            );
                            ensure(
                                &mut violations,
                                expect.is_none_or(|e| e == response.source),
                                || format!("expected {expect:?}, got {:?}", response.source),
                            );
                            let cold = response.source == PlanSource::ColdBuild;
                            ensure(
                                &mut violations,
                                if cold {
                                    shuffled == response.report.stats.total_input
                                } else {
                                    shuffled == 0 && response.report.map_shuffle_wall_seconds == 0.0
                                },
                                || format!("{:?} shuffled {shuffled} tuples", response.source),
                            );
                            match response.source {
                                PlanSource::ColdBuild => run.cold.push(wall),
                                PlanSource::WarmHit => run.warm.push(wall),
                                PlanSource::SubsumedHit => run.subsumed.push(wall),
                            }
                            let (input_ratio, load_ratio) = quality_ratios(&response.report);
                            run.input_ratio_sum += input_ratio;
                            run.load_ratio_sum += load_ratio;
                        }
                    }
                    tally.record("serve", violations);
                }
            }
        }
        cycles += 1;
        let done = match until {
            Until::OpSeconds(seconds) => run.op_seconds >= seconds,
            Until::Cycles(n) => cycles >= n,
        };
        if done {
            break;
        }
    }

    let after = service.health();
    let mut violations = Vec::new();
    ensure(
        &mut violations,
        after.cache.queries() - before.cache.queries() == run.queries,
        || "hits + subsumed hits + misses != queries".into(),
    );
    ensure(
        &mut violations,
        after.shuffles_run - before.shuffles_run == after.cache.misses - before.cache.misses,
        || "shuffles run != misses".into(),
    );
    ensure(
        &mut violations,
        after.degraded_responses == before.degraded_responses,
        || "degraded responses".into(),
    );
    tally.record("stream accounting", violations);
    run.after = after;
    run
}
