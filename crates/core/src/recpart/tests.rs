//! End-to-end tests of the optimizer's public entry points — the production paths
//! held to their `Oracles` included — plus the relation generators the unit tests of
//! the sibling modules share.

use super::*;
use crate::load::LoadModel;
use crate::sample::SampleConfig;
use crate::split_tree::Node;
use rand::rngs::StdRng;
use rand::SeedableRng;
use search::MIN_PLANE_SUPPORT;

pub(super) fn uniform_relation(n: usize, dims: usize, lo: f64, hi: f64, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = Relation::with_capacity(dims, n);
    let mut key = vec![0.0; dims];
    for _ in 0..n {
        for k in key.iter_mut() {
            *k = rng.gen_range(lo..hi);
        }
        r.push(&key);
    }
    r
}

pub(super) fn pareto_relation(n: usize, dims: usize, z: f64, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = Relation::with_capacity(dims, n);
    let mut key = vec![0.0; dims];
    for _ in 0..n {
        for k in key.iter_mut() {
            let u: f64 = rng.gen_range(0.0..1.0f64);
            *k = (1.0 - u).powf(-1.0 / z);
        }
        r.push(&key);
    }
    r
}

/// A multi-dimensional "catalog-like" workload: one skewed magnitude dimension plus
/// uniform spatial dimensions, mirroring the paper's real-data catalogs.
fn catalog_relation(n: usize, dims: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = Relation::with_capacity(dims, n);
    let mut key = vec![0.0; dims];
    for _ in 0..n {
        let u: f64 = rng.gen_range(0.0..1.0f64);
        key[0] = (1.0 - u).powf(-1.0 / 1.2);
        for k in key.iter_mut().skip(1) {
            *k = rng.gen_range(0.0..360.0);
        }
        r.push(&key);
    }
    r
}

fn small_sample_config() -> SampleConfig {
    SampleConfig {
        input_sample_size: 1_000,
        output_sample_size: 500,
        output_probe_count: 400,
    }
}

fn exactly_once_check(
    partitioner: &SplitTreePartitioner,
    s: &Relation,
    t: &Relation,
    band: &BandCondition,
) {
    let mut s_parts = Vec::new();
    let mut t_parts = Vec::new();
    for (si, sk) in s.iter().enumerate() {
        s_parts.clear();
        partitioner.assign_s(&sk, si as u64, &mut s_parts);
        assert!(!s_parts.is_empty(), "every S-tuple must go somewhere");
        for (ti, tk) in t.iter().enumerate() {
            if !band.matches(&sk, &tk) {
                continue;
            }
            t_parts.clear();
            partitioner.assign_t(&tk, ti as u64, &mut t_parts);
            let common = s_parts.iter().filter(|p| t_parts.contains(p)).count();
            assert_eq!(
                common, 1,
                "matching pair (S#{si}, T#{ti}) must meet in exactly one partition"
            );
        }
    }
}

#[test]
fn optimize_uniform_1d_produces_enough_partitions() {
    let s = uniform_relation(4000, 1, 0.0, 100.0, 1);
    let t = uniform_relation(4000, 1, 0.0, 100.0, 2);
    let band = BandCondition::symmetric(&[0.2]);
    let cfg = RecPartConfig::new(8).with_sample(small_sample_config());
    let mut rng = StdRng::seed_from_u64(3);
    let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
    assert!(
        result.partitioner.num_partitions() >= 8,
        "expected at least w partitions, got {}",
        result.partitioner.num_partitions()
    );
    assert!(result.report.iterations > 0);
    assert!(result.report.estimated_dup_overhead >= 0.0);
    assert!(result.report.optimization_seconds >= 0.0);
}

#[test]
fn winner_bookkeeping_never_clones_the_tree() {
    // Skewed data under the cost-model termination keeps optimizing past the
    // winning iteration, so finalize must roll the tree back through the undo
    // log — and the rolled-back tree must still be a correct partitioning.
    let s = pareto_relation(400, 1, 1.5, 70);
    let t = pareto_relation(400, 1, 1.5, 71);
    let band = BandCondition::symmetric(&[2.0]);
    let cfg = RecPartConfig::new(6).with_sample(small_sample_config());
    let mut rng = StdRng::seed_from_u64(72);
    let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
    let eval = &result.report.evaluation;
    assert_eq!(
        eval.winner_tree_clones, 0,
        "winner bookkeeping must never clone the split tree"
    );
    assert!(
        eval.winner_updates >= 1,
        "the initial evaluation always records a winner"
    );
    assert!(
        eval.winner_updates <= result.report.iterations as u64 + 1,
        "at most one winner update per evaluation"
    );
    assert!(result.report.winning_iteration <= result.report.iterations);
    exactly_once_check(&result.partitioner, &s, &t, &band);
}

#[test]
fn exactly_once_on_uniform_2d() {
    let s = uniform_relation(400, 2, 0.0, 10.0, 4);
    let t = uniform_relation(400, 2, 0.0, 10.0, 5);
    let band = BandCondition::symmetric(&[0.3, 0.3]);
    let cfg = RecPartConfig::new(6)
        .with_sample(small_sample_config())
        .with_seed(11);
    let mut rng = StdRng::seed_from_u64(6);
    let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
    exactly_once_check(&result.partitioner, &s, &t, &band);
}

#[test]
fn exactly_once_with_symmetric_splits_on_skewed_data() {
    // Reverse-skew data exercises the S-split path.
    let s = pareto_relation(400, 1, 1.5, 7);
    let mut t = Relation::new(1);
    for key in pareto_relation(400, 1, 1.5, 8).iter() {
        t.push(&[1000.0 - key[0]]);
    }
    let band = BandCondition::symmetric(&[5.0]);
    let cfg = RecPartConfig::new(4).with_sample(small_sample_config());
    let mut rng = StdRng::seed_from_u64(9);
    let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
    exactly_once_check(&result.partitioner, &s, &t, &band);
}

#[test]
fn recpart_s_never_uses_s_splits() {
    let s = pareto_relation(2000, 2, 1.5, 10);
    let t = pareto_relation(2000, 2, 1.5, 11);
    let band = BandCondition::symmetric(&[0.5, 0.5]);
    let cfg = RecPartConfig::new(8)
        .without_symmetric()
        .with_sample(small_sample_config());
    let mut rng = StdRng::seed_from_u64(12);
    let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
    assert_eq!(result.report.strategy, "RecPart-S");
    // Inspect the tree: no SSplit nodes may exist.
    let tree = result.partitioner.tree();
    for id in 0..tree.num_nodes() {
        if let Node::Inner(inner) = tree.node(id as NodeId) {
            assert_eq!(inner.kind, SplitKind::TSplit);
        }
    }
}

#[test]
fn theoretical_termination_produces_low_duplication() {
    let s = uniform_relation(3000, 1, 0.0, 1000.0, 13);
    let t = uniform_relation(3000, 1, 0.0, 1000.0, 14);
    let band = BandCondition::symmetric(&[0.5]);
    let cfg = RecPartConfig::new(10)
        .with_theoretical_termination()
        .with_sample(small_sample_config());
    let mut rng = StdRng::seed_from_u64(15);
    let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
    // On uniform data with a narrow band, near-zero duplication is achievable.
    assert!(
        result.report.estimated_dup_overhead < 0.15,
        "dup overhead too high: {}",
        result.report.estimated_dup_overhead
    );
}

/// Every exit that fires on the cap's own iteration keeps its name: run a workload to
/// its stop at iteration `N` under the default cap, then again with the cap at
/// exactly `N`. The two Section 4.2 rules stop a band of 2, where splits pay
/// duplication early; a band of 0.5 runs the frontier out first — every leaf falls
/// below the minimum plane support before the cost-model window fills.
#[test]
fn rule_firing_on_the_last_allowed_iteration_keeps_its_reason() {
    let s = uniform_relation(3000, 1, 0.0, 1000.0, 13);
    let t = uniform_relation(3000, 1, 0.0, 1000.0, 14);
    for (eps, cfg, reason) in [
        (
            2.0,
            RecPartConfig::new(10).with_theoretical_termination(),
            "duplication overhead exceeded best load overhead (theoretical rule)",
        ),
        (2.0, RecPartConfig::new(4), "predicted join time improved"),
        (
            0.5,
            RecPartConfig::new(4),
            "no leaf with a useful split remains",
        ),
    ] {
        let band = BandCondition::symmetric(&[eps]);
        let cfg = cfg.with_sample(small_sample_config());
        let run = |cfg: RecPartConfig| {
            let mut rng = StdRng::seed_from_u64(15);
            RecPart::new(cfg).optimize(&s, &t, &band, &mut rng).report
        };
        let free = run(cfg.clone());
        assert!(
            free.termination_reason.starts_with(reason) && free.iterations < cfg.max_iterations,
            "the workload must stop by `{reason}`: {}",
            free.termination_reason
        );
        let capped = run(cfg.with_max_iterations(free.iterations));
        assert_eq!(capped.iterations, free.iterations);
        assert_eq!(capped.termination_reason, free.termination_reason);
    }
}

/// The minimum plane support: a regular leaf holding one input-sample tuple fewer
/// than [`MIN_PLANE_SUPPORT`] scores `NotSplittable` (and carries no projections);
/// one holding exactly that many is scored and gets its plane.
#[test]
fn a_regular_leaf_needs_the_minimum_plane_support_to_be_scored() {
    let s = uniform_relation(200, 1, 0.0, 100.0, 40);
    let t = uniform_relation(200, 1, 0.0, 100.0, 41);
    let band = BandCondition::symmetric(&[0.1]);
    let cfg = RecPartConfig::new(6).with_sample(small_sample_config());
    for support in [MIN_PLANE_SUPPORT - 1, MIN_PLANE_SUPPORT] {
        let mut rng = StdRng::seed_from_u64(42);
        let s_sample = InputSample::draw(&s, support / 2, &mut rng);
        let t_sample = InputSample::draw(&t, support - support / 2, &mut rng);
        let o_sample = OutputSample::draw(&s, &t, &band, &cfg.sample, &mut rng);
        let state = OptimizerState::new(
            &cfg,
            &band,
            s.len(),
            t.len(),
            &s_sample,
            &t_sample,
            &o_sample,
        );
        let grown = grow::GrownState::new(&state);
        let root = grown.works[grown.tree.root() as usize].as_ref().unwrap();
        assert!(!root.is_small, "the root must be a regular leaf");
        assert_eq!(root.s_pts.len() + root.t_pts.len(), support);
        if support < MIN_PLANE_SUPPORT {
            assert_eq!(root.best, BestSplit::none());
            assert!(root.proj.is_none());
        } else {
            assert!(root.best.score.is_splittable());
            assert!(matches!(root.best.action, search::SplitAction::Plane(_)));
        }
    }
}

/// Narrow 1-d bands end by rule, not by the cap: almost no split there pays
/// duplication, so the cost-model window never fills, and growth stops where the
/// leaves run below the minimum plane support — at the default sample and `w = 30`,
/// the paper's cluster. (Without the support floor this run grows to the cap,
/// 1,920 iterations; with it, 854.)
#[test]
fn narrow_1d_band_stops_below_the_iteration_cap() {
    let s = pareto_relation(20_000, 1, 1.5, 50);
    let t = pareto_relation(20_000, 1, 1.5, 51);
    let band = BandCondition::symmetric(&[5e-5]);
    let cfg = RecPartConfig::new(30);
    let mut rng = StdRng::seed_from_u64(52);
    let report = RecPart::new(cfg.clone())
        .optimize(&s, &t, &band, &mut rng)
        .report;
    assert!(
        report.iterations < cfg.max_iterations,
        "{} iterations against a cap of {}",
        report.iterations,
        cfg.max_iterations
    );
    assert_eq!(
        report.termination_reason,
        "no leaf with a useful split remains"
    );
}

#[test]
fn empty_inputs_are_rejected() {
    let empty = Relation::new(1);
    let t = uniform_relation(10, 1, 0.0, 1.0, 16);
    let band = BandCondition::symmetric(&[0.1]);
    let cfg = RecPartConfig::new(2);
    let mut rng = StdRng::seed_from_u64(17);
    let err = RecPart::new(cfg.clone())
        .try_optimize(&empty, &t, &band, &mut rng)
        .unwrap_err();
    assert_eq!(err, RecPartError::EmptyRelation { side: "S" });
    let err = RecPart::new(cfg)
        .try_optimize(&t, &empty, &band, &mut rng)
        .unwrap_err();
    assert_eq!(err, RecPartError::EmptyRelation { side: "T" });
}

#[test]
fn dimension_mismatch_is_rejected() {
    let s = uniform_relation(10, 1, 0.0, 1.0, 18);
    let t = uniform_relation(10, 2, 0.0, 1.0, 19);
    let band = BandCondition::symmetric(&[0.1]);
    let cfg = RecPartConfig::new(2);
    let mut rng = StdRng::seed_from_u64(20);
    assert!(matches!(
        RecPart::new(cfg).try_optimize(&s, &t, &band, &mut rng),
        Err(RecPartError::DimensionMismatch { .. })
    ));
}

#[test]
fn band_dimension_mismatch_is_rejected() {
    let s = uniform_relation(10, 2, 0.0, 1.0, 21);
    let t = uniform_relation(10, 2, 0.0, 1.0, 22);
    let band = BandCondition::symmetric(&[0.1]);
    let cfg = RecPartConfig::new(2);
    let mut rng = StdRng::seed_from_u64(23);
    assert!(matches!(
        RecPart::new(cfg).try_optimize(&s, &t, &band, &mut rng),
        Err(RecPartError::DimensionMismatch { .. })
    ));
}

#[test]
fn wide_band_triggers_small_partitions_and_grid_mode() {
    // Band width comparable to the whole domain: the root quickly becomes "small" and
    // 1-Bucket style sub-partitioning kicks in.
    let s = uniform_relation(2000, 1, 0.0, 10.0, 24);
    let t = uniform_relation(2000, 1, 0.0, 10.0, 25);
    let band = BandCondition::symmetric(&[8.0]);
    let cfg = RecPartConfig::new(6).with_sample(small_sample_config());
    let mut rng = StdRng::seed_from_u64(26);
    let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
    assert!(
        result.partitioner.num_partitions() > result.partitioner.tree().num_leaves(),
        "expected internal 1-Bucket cells (partitions {} vs leaves {})",
        result.partitioner.num_partitions(),
        result.partitioner.tree().num_leaves()
    );
    exactly_once_check(&result.partitioner, &s, &t, &band);
}

#[test]
fn optimization_is_deterministic_given_seed() {
    let s = pareto_relation(2000, 2, 1.2, 30);
    let t = pareto_relation(2000, 2, 1.2, 31);
    let band = BandCondition::symmetric(&[0.2, 0.2]);
    let cfg = RecPartConfig::new(8).with_sample(small_sample_config());
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        RecPart::new(cfg.clone()).optimize(&s, &t, &band, &mut rng)
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a.report.iterations, b.report.iterations);
    assert_eq!(
        a.partitioner.num_partitions(),
        b.partitioner.num_partitions()
    );
    assert_eq!(a.partitioner.tree(), b.partitioner.tree());
}

#[test]
fn equi_join_band_is_supported() {
    let s = uniform_relation(1000, 1, 0.0, 50.0, 32);
    let t = uniform_relation(1000, 1, 0.0, 50.0, 33);
    let band = BandCondition::equi(1);
    let cfg = RecPartConfig::new(4).with_sample(small_sample_config());
    let mut rng = StdRng::seed_from_u64(34);
    let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
    // With continuous uniform values exact matches are rare; duplication should be
    // essentially zero because band width is zero.
    assert!(result.report.estimated_dup_overhead < 0.01);
    exactly_once_check(&result.partitioner, &s, &t, &band);
}

#[test]
fn custom_load_model_is_respected_in_report() {
    let s = uniform_relation(1000, 1, 0.0, 100.0, 35);
    let t = uniform_relation(1000, 1, 0.0, 100.0, 36);
    let band = BandCondition::symmetric(&[1.0]);
    let cfg = RecPartConfig::new(4)
        .with_load_model(LoadModel::new(1.0, 1.0))
        .with_sample(small_sample_config());
    let mut rng = StdRng::seed_from_u64(37);
    let result = RecPart::new(cfg).optimize(&s, &t, &band, &mut rng);
    assert!(result.report.predicted_time > 0.0);
}

/// Everything of two optimization results that must be bit-identical across
/// scorers and thread counts (wall-clock fields are excluded by construction).
fn assert_results_bit_identical(a: &RecPartResult, b: &RecPartResult, label: &str) {
    assert_eq!(
        a.report.evaluation, b.report.evaluation,
        "{label}: evaluation counters"
    );
    assert_results_bit_identical_except_eval_counters(a, b, label);
}

/// [`assert_results_bit_identical`] minus the evaluation work counters — the
/// comparison used across *evaluators*, whose `ledger_leaf_visits` differ by
/// design while everything they compute must not.
fn assert_results_bit_identical_except_eval_counters(
    a: &RecPartResult,
    b: &RecPartResult,
    label: &str,
) {
    assert_eq!(a.partitioner.tree(), b.partitioner.tree(), "{label}: tree");
    assert_eq!(
        a.partitioner.num_partitions(),
        b.partitioner.num_partitions(),
        "{label}: partitions"
    );
    let (ra, rb) = (&a.report, &b.report);
    assert_eq!(ra.strategy, rb.strategy, "{label}");
    assert_eq!(ra.iterations, rb.iterations, "{label}");
    assert_eq!(ra.winning_iteration, rb.winning_iteration, "{label}");
    assert_eq!(ra.leaves, rb.leaves, "{label}");
    assert_eq!(ra.partitions, rb.partitions, "{label}");
    assert_eq!(ra.split_search, rb.split_search, "{label}");
    let estimates = |r: &OptimizationReport| {
        [
            r.estimated_total_input,
            r.estimated_dup_overhead,
            r.estimated_load_overhead,
            r.estimated_output,
            r.predicted_time,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(estimates(ra), estimates(rb), "{label}: estimate bits");
    assert_eq!(ra.termination_reason, rb.termination_reason, "{label}");
}

/// One workload of the end-to-end oracle tests, optimized on one thread.
struct Workload {
    label: &'static str,
    s: Relation,
    t: Relation,
    band: BandCondition,
    cfg: RecPartConfig,
    rng_seed: u64,
}

impl Workload {
    fn run(&self, oracles: Oracles) -> RecPartResult {
        let mut rng = StdRng::seed_from_u64(self.rng_seed);
        RecPart::new(self.cfg.clone().with_threads(1))
            .with_oracles(oracles)
            .optimize(&self.s, &self.t, &self.band, &mut rng)
    }
}

/// The small 2-d Pareto shape, once per role configuration.
fn pareto_2d_workloads(seed: u64) -> Vec<Workload> {
    [("pareto-2d/recpart", true), ("pareto-2d/recpart-s", false)]
        .map(|(label, symmetric)| {
            let mut cfg = RecPartConfig::new(8).with_sample(small_sample_config());
            cfg.symmetric = symmetric;
            Workload {
                label,
                s: pareto_relation(3000, 2, 1.3, seed),
                t: pareto_relation(3000, 2, 1.3, seed + 1),
                band: BandCondition::symmetric(&[0.3, 0.3]),
                cfg,
                rng_seed: seed + 2,
            }
        })
        .into()
}

/// The input sample sizes of the larger oracle workloads.
fn large_sample_config() -> SampleConfig {
    SampleConfig {
        input_sample_size: 4_096,
        output_sample_size: 1_024,
        output_probe_count: 512,
    }
}

/// The larger shapes: hard 1-d skew with deep trees, a 3-d catalog with S-splits,
/// and a wide band whose leaves go small and interleave grid increments with plane
/// splits — `(tuples a side, S data seed)` each, T's data seed one higher.
fn large_workloads([pareto, catalog, grid]: [(usize, u64); 3]) -> Vec<Workload> {
    let workload = |label, (s, t), band, workers| Workload {
        label,
        s,
        t,
        band,
        cfg: RecPartConfig::new(workers).with_sample(large_sample_config()),
        rng_seed: 0x0D15_EA5E,
    };
    let pareto_1d = |(n, seed)| {
        (
            pareto_relation(n, 1, 1.5, seed),
            pareto_relation(n, 1, 1.5, seed + 1),
        )
    };
    vec![
        workload(
            "pareto-1d",
            pareto_1d(pareto),
            BandCondition::symmetric(&[0.01]),
            32,
        ),
        workload(
            "catalog-3d",
            (
                catalog_relation(catalog.0, 3, catalog.1),
                catalog_relation(catalog.0, 3, catalog.1 + 1),
            ),
            BandCondition::symmetric(&[0.5, 2.0, 2.0]),
            16,
        ),
        workload(
            "grid-heavy",
            pareto_1d(grid),
            BandCondition::symmetric(&[3.0]),
            12,
        ),
    ]
}

#[test]
fn sweep_scorer_matches_binary_search_scorer_end_to_end() {
    let mut workloads = pareto_2d_workloads(40);
    workloads.extend(large_workloads([(30_000, 11), (20_000, 21), (10_000, 41)]));
    workloads.push(Workload {
        label: "pareto-2d/recpart-s/theoretical",
        s: pareto_relation(15_000, 2, 1.3, 31),
        t: pareto_relation(15_000, 2, 1.3, 32),
        band: BandCondition::symmetric(&[0.2, 0.2]),
        cfg: RecPartConfig::new(8)
            .without_symmetric()
            .with_theoretical_termination()
            .with_sample(large_sample_config()),
        rng_seed: 0x0D15_EA5E,
    });
    for w in &workloads {
        let sweep = w.run(Oracles::default());
        let reference = w.run(Oracles {
            binary_search: true,
            ..Oracles::default()
        });
        assert_results_bit_identical(&sweep, &reference, w.label);
        assert!(sweep.report.split_search.leaves_scored > 0, "{}", w.label);
        assert!(
            sweep.report.split_search.candidates_scored > 0,
            "{}",
            w.label
        );
    }
}

#[test]
fn thread_count_does_not_change_the_result() {
    let s = pareto_relation(4000, 1, 1.5, 50);
    let t = pareto_relation(4000, 1, 1.5, 51);
    let band = BandCondition::symmetric(&[0.05]);
    let cfg = RecPartConfig::new(16).with_sample(small_sample_config());
    let run = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(7);
        RecPart::new(cfg.clone().with_threads(threads)).optimize(&s, &t, &band, &mut rng)
    };
    let sequential = run(1);
    for threads in [0usize, 4] {
        let parallel = run(threads);
        assert_results_bit_identical(&sequential, &parallel, "threads");
    }
}

/// The incremental evaluator must change nothing the optimizer computes — only
/// how much work evaluation does, which the `ledger_leaf_visits` counter proves:
/// the incremental ledger touches two leaves per plane split, the full-recompute
/// oracle revisits every leaf on every evaluation on top.
#[test]
fn incremental_evaluator_matches_full_recompute_end_to_end() {
    let mut workloads = pareto_2d_workloads(60);
    workloads.extend(large_workloads([(20_000, 71), (15_000, 73), (10_000, 75)]));
    for w in &workloads {
        let incremental = w.run(Oracles::default());
        let full = w.run(Oracles {
            full_recompute: true,
            ..Oracles::default()
        });
        let label = format!("{}: incremental vs full recompute", w.label);
        assert_results_bit_identical_except_eval_counters(&incremental, &full, &label);

        // Same evaluations, same LPT work — the mapping itself is exact.
        let (ie, fe) = (incremental.report.evaluation, full.report.evaluation);
        assert_eq!(ie.evaluations, fe.evaluations, "{label}");
        assert_eq!(ie.lpt_cells, fe.lpt_cells, "{label}");
        assert!(
            ie.evaluations > 1,
            "{label}: the run must have applied splits"
        );
        // evaluate() does not iterate all leaves per split: the incremental
        // ledger's visits are bounded by the deltas (≤ 2 per evaluation after
        // the initial build), while the oracle re-walks far more leaves.
        assert!(
            ie.ledger_leaf_visits <= 2 * ie.evaluations,
            "{label}: incremental ledger visits {} exceed the delta bound for {} evaluations",
            ie.ledger_leaf_visits,
            ie.evaluations
        );
        assert!(
            fe.ledger_leaf_visits > 2 * ie.ledger_leaf_visits,
            "{label}: the oracle must re-walk far more leaves ({} vs {})",
            fe.ledger_leaf_visits,
            ie.ledger_leaf_visits
        );
    }
}
