//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest) crate.
//!
//! Implements the subset used by this workspace: the [`proptest!`] macro,
//! [`Strategy`] with range / `any::<T>()` / tuple / `prop::collection::vec`
//! strategies and `prop_map`, `ProptestConfig::with_cases`, and the `prop_assert*` macros.
//!
//! Differences from the real crate, by design:
//!
//! * **no shrinking** — a failing case panics with its case number and seed so it can
//!   be reproduced, but is not minimized;
//! * **deterministic seeding** — cases are derived from a fixed base seed mixed with
//!   the test function's name, so CI runs are reproducible; set
//!   `PROPTEST_BASE_SEED=<u64>` to explore a different stream.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::ops::Range;

/// How a value of type `Value` is generated from randomness.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// The strategy that draws from `self` and applies `f` (mirrors
    /// `Strategy::prop_map`).
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }
}

/// A strategy mapped through a function (built by [`Strategy::prop_map`]).
#[derive(Debug, Clone, Copy)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut StdRng) -> O {
        (self.f)(self.source.sample(rng))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut StdRng) -> Self::Value {
        (**self).sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy for "any value of `T`" (see [`any`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// Uniformly random values of the whole domain of `T`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut StdRng) -> bool {
        rng.gen()
    }
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Any<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        // Finite values spanning many magnitudes (the real `any::<f64>()` includes
        // NaN/∞ only under non-default flags).
        let exp = rng.gen_range(-300i32..300);
        let mantissa: f64 = rng.gen_range(-1.0..1.0);
        mantissa * 10f64.powi(exp)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Constant-value strategy (mirrors `Just`).
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

#[doc(hidden)]
pub use rand::rngs::StdRng as __StdRng;

/// Weighted union of same-valued strategies (built by [`prop_oneof!`]). The
/// heterogeneous strategy types are erased behind boxed sampling closures, which the
/// real crate's `TupleUnion` avoids — irrelevant for test-input generation.
pub struct OneOf<T> {
    choices: Vec<WeightedSampler<T>>,
    total: u32,
}

/// One `prop_oneof!` arm: its relative weight and the type-erased sampler.
pub type WeightedSampler<T> = (u32, Box<dyn Fn(&mut StdRng) -> T>);

impl<T> OneOf<T> {
    /// A union of `(weight, sampler)` choices; weights are relative frequencies.
    pub fn new(choices: Vec<WeightedSampler<T>>) -> Self {
        let total = choices.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! needs a positive total weight");
        OneOf { choices, total }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        let mut pick = rng.gen_range(0..self.total);
        for (weight, sampler) in &self.choices {
            if pick < *weight {
                return sampler(rng);
            }
            pick -= weight;
        }
        unreachable!("weights sum to total")
    }
}

/// Choose between strategies, optionally weighted (mirrors `proptest::prop_oneof!`):
/// `prop_oneof![a, b]` picks uniformly, `prop_oneof![3 => a, 1 => b]` picks `a`
/// three times as often.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $((
                $weight as u32,
                {
                    let __s = $strategy;
                    Box::new(move |rng: &mut $crate::__StdRng| $crate::Strategy::sample(&__s, rng))
                        as Box<dyn Fn(&mut $crate::__StdRng) -> _>
                },
            )),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Sizes accepted by [`vec`]: a fixed length or a half-open range of lengths.
    pub trait IntoSizeRange {
        /// Draw a concrete length.
        fn sample_len(&self, rng: &mut StdRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn sample_len(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// `Vec<S::Value>` with length drawn from `len`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Test-runner configuration and driver (mirrors `proptest::test_runner`).
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Number of random cases to run per property (mirrors `proptest`'s `Config`).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Cases per property.
        pub cases: u32,
    }

    impl Config {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Drives the random cases of one property test.
    #[derive(Debug)]
    pub struct TestRunner {
        config: Config,
        base_seed: u64,
    }

    impl TestRunner {
        /// Build a runner for the property named `test_name`.
        pub fn new(config: Config, test_name: &str) -> Self {
            let env_seed = std::env::var("PROPTEST_BASE_SEED")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0x5EED_CAFE_F00D_0001u64);
            // Mix the test name in so different properties see different streams.
            let mut h = env_seed;
            for b in test_name.bytes() {
                h = h.wrapping_mul(0x100000001B3).wrapping_add(b as u64) ^ (h >> 29);
            }
            TestRunner {
                config,
                base_seed: h,
            }
        }

        /// Number of cases to run.
        pub fn cases(&self) -> u32 {
            self.config.cases
        }

        /// The RNG for case number `case`.
        pub fn rng_for_case(&self, case: u32) -> StdRng {
            StdRng::seed_from_u64(self.base_seed.wrapping_add(case as u64))
        }

        /// The seed of case `case` (for failure messages).
        pub fn seed_for_case(&self, case: u32) -> u64 {
            self.base_seed.wrapping_add(case as u64)
        }
    }
}

/// One-stop imports (mirrors `proptest::prelude`).
pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, Just, OneOf, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced access used as `prop::collection::vec(..)`.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Assert inside a property (panics; no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define property tests: each `fn` runs its body for many random valuations of its
/// `name in strategy` parameters (mirrors `proptest::proptest!`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::test_runner::Config::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($p:pat in $s:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let runner = $crate::test_runner::TestRunner::new($cfg, stringify!($name));
                for __case in 0..runner.cases() {
                    let __seed = runner.seed_for_case(__case);
                    let mut __rng = runner.rng_for_case(__case);
                    let run_case = || {
                        $(let $p = $crate::Strategy::sample(&($s), &mut __rng);)+
                        $body
                    };
                    if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run_case)) {
                        eprintln!(
                            "proptest shim: property `{}` failed at case {}/{} (seed {:#x})",
                            stringify!($name), __case + 1, runner.cases(), __seed
                        );
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 0.0f64..10.0, n in 3usize..7) {
            prop_assert!((0.0..10.0).contains(&x));
            prop_assert!((3..7).contains(&n));
        }

        #[test]
        fn vec_strategy_lengths(v in prop::collection::vec(0u32..100, 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn fixed_len_vec(v in prop::collection::vec(-1.0f64..1.0, 3)) {
            prop_assert_eq!(v.len(), 3);
        }

        #[test]
        fn tuples_compose(t in (0usize..2, -50.0f64..50.0, any::<bool>(), any::<bool>())) {
            let (d, v, _a, _b) = t;
            prop_assert!(d < 2);
            prop_assert!((-50.0..50.0).contains(&v));
        }

        #[test]
        fn destructuring_pattern((a, b) in (0u32..4, 0u32..4)) {
            prop_assert!(a < 4 && b < 4);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::test_runner::{Config, TestRunner};
        use crate::Strategy;
        let r1 = TestRunner::new(Config::with_cases(4), "x");
        let r2 = TestRunner::new(Config::with_cases(4), "x");
        let s = 0.0f64..1.0;
        for case in 0..4 {
            let a = s.sample(&mut r1.rng_for_case(case));
            let b = s.sample(&mut r2.rng_for_case(case));
            assert_eq!(a, b);
        }
    }
}
