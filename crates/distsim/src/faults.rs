//! Deterministic, seeded fault injection for supervised sharded execution.
//!
//! A [`FaultPlan`] is a *pure schedule*: a set of [`FaultSpec`]s, each naming an
//! [`InjectionPoint`] in the execution pipeline, the unit (shard index or side)
//! it applies to, the [`FaultKind`] it fires, and for how many attempts it keeps
//! firing. The plan holds no mutable state — whether a fault fires is a pure
//! function `(point, unit, attempt)`, so a retried attempt naturally runs past a
//! fault whose `fire_attempts` it has exceeded, and a re-run of the same plan
//! reproduces the same failure schedule bit for bit. That determinism is what
//! makes the chaos tests gateable: a seed fully describes the failure scenario.
//!
//! The [`FaultInjector`] wraps a plan with fire counters and performs the actual
//! side effect at each [`FaultInjector::trip`] call:
//!
//! * [`FaultKind::Panic`] — `panic_any` with an [`InjectedPanic`] payload, so a
//!   supervising `catch_unwind` can tell injected crashes from real bugs;
//! * [`FaultKind::IoError`] — returns a synthetic `io::Error`, modelling a failed
//!   syscall (a lost worker connection);
//! * [`FaultKind::Delay`] — sleeps, modelling a straggler; the work still
//!   completes, only late.
//!
//! Injection points cover the supervised pipeline end to end: both shuffle
//! passes, the per-shard join, and the merge. The
//! supervisor in [`crate::supervise`] drives every point through retry, backoff,
//! speculation, and degradation; production runs pass [`FaultPlan::none`], which
//! makes every `trip` a no-op.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Where in the supervised pipeline a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionPoint {
    /// Before the route pass of the shuffle (unit = side: 0 for S, 1 for T).
    ShufflePass1,
    /// Before the replay pass of the shuffle (unit = side: 0 for S, 1 for T).
    ShufflePass2,
    /// At the start of one shard's reduce pass (unit = shard index).
    ShardJoin,
    /// Before the order-preserving merge of shard results (unit = 0).
    Merge,
}

/// What an injection point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Unwind with an `InjectedPanic` payload (a crashed worker).
    Panic,
    /// Return a synthetic `io::Error` (a failed syscall).
    IoError,
    /// Sleep this many milliseconds, then continue (a straggler).
    Delay(u64),
}

/// One scheduled fault: fires at `point` for `unit` while `attempt <= fire_attempts`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Where the fault fires.
    pub point: InjectionPoint,
    /// Which unit it applies to (shard index for [`InjectionPoint::ShardJoin`],
    /// side 0/1 for the shuffle points, 0 for the merge).
    pub unit: u32,
    /// The fault keeps firing on attempts `1..=fire_attempts`; attempt
    /// `fire_attempts + 1` runs clean. Set it at or above the supervisor's
    /// `max_attempts` to make the fault permanent (exhaustion / degradation).
    pub fire_attempts: u32,
    /// What firing does.
    pub kind: FaultKind,
}

/// A deterministic, seeded schedule of faults (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan: every trip is a no-op (the production configuration).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan firing exactly the given specs. When several specs match the same
    /// `(point, unit)`, the first listed wins.
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        FaultPlan { specs }
    }

    /// A random plan derived deterministically from `seed` — the chaos-test
    /// generator. Faults on the shuffle and merge points fire for at most 2
    /// attempts (recoverable under the default 3-attempt supervisor), while
    /// shard-join faults may fire up to `max_shard_fire` attempts, so exhaustion
    /// and graceful degradation are exercised too. Delays stay small (≤ 20 ms) to
    /// keep chaos sweeps fast.
    pub fn random(seed: u64, shards: usize, max_shard_fire: u32) -> Self {
        let mut rng = SplitMix64(seed);
        let num_faults = (rng.next() % 4) as usize; // 0..=3 faults
        let mut specs = Vec::with_capacity(num_faults);
        for _ in 0..num_faults {
            let point = match rng.next() % 4 {
                0 => InjectionPoint::ShufflePass1,
                1 => InjectionPoint::ShufflePass2,
                2 => InjectionPoint::ShardJoin,
                _ => InjectionPoint::Merge,
            };
            let unit = match point {
                InjectionPoint::ShardJoin => (rng.next() % shards.max(1) as u64) as u32,
                InjectionPoint::Merge => 0,
                _ => (rng.next() % 2) as u32,
            };
            let fire_attempts = match point {
                InjectionPoint::ShardJoin => 1 + (rng.next() % max_shard_fire.max(1) as u64) as u32,
                _ => 1 + (rng.next() % 2) as u32,
            };
            let kind = match rng.next() % 3 {
                0 => FaultKind::Panic,
                1 => FaultKind::IoError,
                _ => FaultKind::Delay(5 + rng.next() % 16),
            };
            specs.push(FaultSpec {
                point,
                unit,
                fire_attempts,
                kind,
            });
        }
        FaultPlan { specs }
    }

    /// The scheduled specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Whether the plan schedules at least one [`FaultKind::Panic`].
    pub(crate) fn has_panics(&self) -> bool {
        self.specs.iter().any(|s| s.kind == FaultKind::Panic)
    }

    /// The fault firing at `(point, unit)` on `attempt`, if any (pure lookup).
    pub fn action(&self, point: InjectionPoint, unit: u32, attempt: u32) -> Option<FaultKind> {
        self.specs
            .iter()
            .find(|s| s.point == point && s.unit == unit && attempt <= s.fire_attempts)
            .map(|s| s.kind)
    }
}

/// `splitmix64`: the tiny deterministic generator behind [`FaultPlan::random`]
/// (no dependency on the workspace `rand` shim, so plans are constructible from
/// a bare seed anywhere, bench binaries included).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Panic payload of [`FaultKind::Panic`]: carries where the injected crash
/// happened, and is the marker the quiet panic hook filters on.
#[derive(Debug, Clone, Copy)]
pub struct InjectedPanic {
    /// The injection point that fired.
    pub point: InjectionPoint,
    /// The unit (shard / side) the fault applied to.
    pub unit: u32,
    /// The attempt the fault fired on.
    pub attempt: u32,
}

/// Live fire counters of a [`FaultInjector`], one per [`FaultKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FiredCounts {
    /// Injected panics fired.
    pub panics: u64,
    /// Injected I/O errors fired.
    pub io_errors: u64,
    /// Injected delays fired.
    pub delays: u64,
}

/// A [`FaultPlan`] armed for execution: performs the scheduled side effects at
/// each [`trip`](FaultInjector::trip) and counts what actually fired.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    panics: AtomicU64,
    io_errors: AtomicU64,
    delays: AtomicU64,
}

impl FaultInjector {
    /// Arm `plan`. If the plan schedules panics, the quiet panic hook is
    /// installed so injected unwinds do not spam stderr.
    pub fn new(plan: FaultPlan) -> Self {
        if plan.has_panics() {
            install_quiet_panic_hook();
        }
        FaultInjector {
            plan,
            panics: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            delays: AtomicU64::new(0),
        }
    }

    /// Hit an injection point on behalf of `unit`'s `attempt`-th attempt.
    ///
    /// No-op unless the plan fires here: an injected delay sleeps and returns
    /// `Ok`, an injected I/O error returns `Err`, and an injected panic unwinds
    /// with an [`InjectedPanic`] payload.
    pub fn trip(&self, point: InjectionPoint, unit: u32, attempt: u32) -> io::Result<()> {
        match self.plan.action(point, unit, attempt) {
            None => Ok(()),
            Some(FaultKind::Delay(ms)) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            }
            Some(FaultKind::IoError) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other(format!(
                    "injected I/O error at {point:?} unit {unit} attempt {attempt}"
                )))
            }
            Some(FaultKind::Panic) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                std::panic::panic_any(InjectedPanic {
                    point,
                    unit,
                    attempt,
                });
            }
        }
    }

    /// Snapshot of what has fired so far.
    pub(crate) fn fired(&self) -> FiredCounts {
        FiredCounts {
            panics: self.panics.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
        }
    }
}

/// Fault context threaded through the shuffle: which injector to trip and which
/// attempt the enclosing supervised phase is on.
#[derive(Clone, Copy)]
pub struct FaultContext<'a> {
    /// The armed injector.
    pub injector: &'a FaultInjector,
    /// The supervised phase's attempt number (1-based).
    pub attempt: u32,
}

/// Install (once, process-wide) a panic hook that suppresses the default
/// backtrace spew for [`InjectedPanic`] payloads and delegates every other
/// panic to the previously installed hook. Chaos tests fire panics by design;
/// without this, every injected crash would print a spurious stack trace.
pub(crate) fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<InjectedPanic>() {
                return;
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::none());
        for point in [
            InjectionPoint::ShufflePass1,
            InjectionPoint::ShufflePass2,
            InjectionPoint::ShardJoin,
            InjectionPoint::Merge,
        ] {
            for unit in 0..4 {
                assert!(inj.trip(point, unit, 1).is_ok());
            }
        }
        assert_eq!(inj.fired(), FiredCounts::default());
    }

    #[test]
    fn faults_clear_after_fire_attempts() {
        let plan = FaultPlan::new(vec![FaultSpec {
            point: InjectionPoint::ShardJoin,
            unit: 2,
            fire_attempts: 2,
            kind: FaultKind::IoError,
        }]);
        let inj = FaultInjector::new(plan);
        assert!(inj.trip(InjectionPoint::ShardJoin, 2, 1).is_err());
        assert!(inj.trip(InjectionPoint::ShardJoin, 2, 2).is_err());
        assert!(inj.trip(InjectionPoint::ShardJoin, 2, 3).is_ok());
        // Other units and points are untouched.
        assert!(inj.trip(InjectionPoint::ShardJoin, 1, 1).is_ok());
        assert!(inj.trip(InjectionPoint::Merge, 2, 1).is_ok());
        assert_eq!(inj.fired().io_errors, 2);
    }

    #[test]
    fn injected_panic_carries_location() {
        install_quiet_panic_hook();
        let plan = FaultPlan::new(vec![FaultSpec {
            point: InjectionPoint::Merge,
            unit: 0,
            fire_attempts: 1,
            kind: FaultKind::Panic,
        }]);
        let inj = FaultInjector::new(plan);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = inj.trip(InjectionPoint::Merge, 0, 1);
        }))
        .expect_err("panic fires on attempt 1");
        let p = caught
            .downcast_ref::<InjectedPanic>()
            .expect("InjectedPanic payload");
        assert_eq!(p.point, InjectionPoint::Merge);
        assert_eq!(p.attempt, 1);
        assert_eq!(inj.fired().panics, 1);
        // Attempt 2 runs clean.
        assert!(inj.trip(InjectionPoint::Merge, 0, 2).is_ok());
    }

    #[test]
    fn random_plans_are_deterministic_and_bounded() {
        for seed in 0..200u64 {
            let a = FaultPlan::random(seed, 7, 4);
            let b = FaultPlan::random(seed, 7, 4);
            assert_eq!(a, b, "seed {seed} must reproduce the same plan");
            assert!(a.specs().len() <= 3);
            for spec in a.specs() {
                match spec.point {
                    InjectionPoint::ShardJoin => {
                        assert!(spec.unit < 7);
                        assert!((1..=4).contains(&spec.fire_attempts));
                    }
                    InjectionPoint::Merge => assert_eq!(spec.unit, 0),
                    _ => {
                        assert!(spec.unit < 2);
                        assert!((1..=2).contains(&spec.fire_attempts));
                    }
                }
                if let FaultKind::Delay(ms) = spec.kind {
                    assert!((5..=20).contains(&ms));
                }
            }
        }
        // The generator must actually produce non-empty plans somewhere, and
        // reach every injection point.
        assert!((0..200u64).any(|s| !FaultPlan::random(s, 7, 4).is_empty()));
        for point in [
            InjectionPoint::ShufflePass1,
            InjectionPoint::ShufflePass2,
            InjectionPoint::ShardJoin,
            InjectionPoint::Merge,
        ] {
            assert!(
                (0..200u64).any(|s| FaultPlan::random(s, 7, 4)
                    .specs()
                    .iter()
                    .any(|spec| spec.point == point)),
                "{point:?} is never generated"
            );
        }
    }

    #[test]
    fn first_matching_spec_wins() {
        let plan = FaultPlan::new(vec![
            FaultSpec {
                point: InjectionPoint::ShardJoin,
                unit: 0,
                fire_attempts: 1,
                kind: FaultKind::Delay(1),
            },
            FaultSpec {
                point: InjectionPoint::ShardJoin,
                unit: 0,
                fire_attempts: 3,
                kind: FaultKind::IoError,
            },
        ]);
        assert_eq!(
            plan.action(InjectionPoint::ShardJoin, 0, 1),
            Some(FaultKind::Delay(1))
        );
        // First spec expired: the second still matches.
        assert_eq!(
            plan.action(InjectionPoint::ShardJoin, 0, 2),
            Some(FaultKind::IoError)
        );
        assert_eq!(plan.action(InjectionPoint::ShardJoin, 0, 4), None);
    }
}
