//! Offline stand-in for the `proptest` crate.
//!
//! The build environment for this workspace cannot reach crates.io, so
//! this crate vendors the subset of the `proptest` API the workspace's
//! property tests use: composable generation strategies (`prop_map`,
//! `prop_flat_map`, `prop_recursive`, `prop_oneof!`, tuples, ranges,
//! `collection::vec`, `any`, `Just`) and the `proptest!` test macro.
//!
//! Differences from crates.io `proptest`, by design:
//!
//! * **No shrinking.** A failing case panics with the deterministic case
//!   index; re-running reproduces it exactly (generation is seeded per
//!   case), it just is not minimized.
//! * `prop_assert!`/`prop_assert_eq!` panic instead of returning
//!   `TestCaseError`.
//! * The number of cases can be capped globally with the
//!   `PROPTEST_CASES` environment variable (useful for CI smoke runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

pub mod test_runner {
    //! The per-case deterministic RNG and run configuration.

    use super::*;

    /// The RNG handed to strategies; one fresh stream per test case.
    pub type TestRng = StdRng;

    /// Builds the deterministic RNG for case number `case` of a test.
    ///
    /// The stream mixes the test name so different tests in one
    /// `proptest!` block explore different inputs.
    pub fn rng_for_case(test_name: &str, case: u64) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Run configuration for a `proptest!` block.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }

        /// The case count after applying the `PROPTEST_CASES` env cap.
        pub fn effective_cases(&self) -> u32 {
            match std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
            {
                Some(cap) => self.cases.min(cap),
                None => self.cases,
            }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }
}

pub use test_runner::Config as ProptestConfig;
use test_runner::TestRng;

/// A generation strategy for values of type `Self::Value`.
///
/// Unlike crates.io proptest there is no value tree / shrinking: a
/// strategy is just a deterministic function of the per-case RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates an intermediate value, then a value from the strategy
    /// `f` builds from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Recursive strategies: `self` is the leaf case, `recurse` builds a
    /// composite level from the strategy for the level below. `depth`
    /// bounds the nesting; `_desired_size` and `_expected_branch_size`
    /// are accepted for API compatibility and ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> Recursive<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R + 'static,
    {
        Recursive {
            base: self.boxed(),
            depth,
            recurse: Rc::new(move |inner| recurse(inner).boxed()),
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> BoxedStrategy<T> {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_recursive`].
pub struct Recursive<T> {
    base: BoxedStrategy<T>,
    depth: u32,
    #[allow(clippy::type_complexity)]
    recurse: Rc<dyn Fn(BoxedStrategy<T>) -> BoxedStrategy<T>>,
}

impl<T: 'static> Strategy for Recursive<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let levels = rng.random_range(0..=self.depth);
        let mut strategy = self.base.clone();
        for _ in 0..levels {
            strategy = (self.recurse)(strategy);
        }
        strategy.generate(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// A uniform choice among type-erased alternatives ([`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// A union over the given (non-empty) alternatives.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.random_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

/// Types with a canonical strategy, for [`any`].
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The canonical strategy for `T` (see [`Arbitrary`]).
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`: `any::<bool>()`, `any::<u32>()`, …
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

pub mod collection {
    //! Strategies over collections.

    use super::*;

    /// A length constraint for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` of values from `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! The glob-importable API surface.

    pub use crate::collection;
    pub use crate::{any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// A uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Asserts a condition inside a `proptest!` body (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a `proptest!` body (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a `proptest!` body (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Declares property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a `#[test]` running `body` over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr);) => {};
    (
        ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            for case in 0..config.effective_cases() {
                let mut __proptest_rng =
                    $crate::test_runner::rng_for_case(stringify!($name), case as u64);
                $(let $arg = $crate::Strategy::generate(&$strategy, &mut __proptest_rng);)+
                let run = || $body;
                run();
            }
        }
        $crate::__proptest_impl! { ($config); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::test_runner::rng_for_case("unit", 0);
        let strategy = (1usize..5, 0u64..=3, -1.0f64..1.0);
        for _ in 0..200 {
            let (a, b, c) = strategy.generate(&mut rng);
            assert!((1..5).contains(&a));
            assert!(b <= 3);
            assert!((-1.0..1.0).contains(&c));
        }
    }

    #[test]
    fn oneof_covers_all_arms() {
        let mut rng = crate::test_runner::rng_for_case("unit", 1);
        let strategy = prop_oneof![Just(1u32), Just(2), Just(3)];
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[strategy.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn recursive_strategies_terminate_and_nest() {
        #[derive(Debug)]
        enum Tree {
            Leaf(#[allow(dead_code)] bool),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(children) => 1 + children.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strategy = any::<bool>()
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 8, 2, |inner| {
                collection::vec(inner, 1..3).prop_map(Tree::Node)
            });
        let mut rng = crate::test_runner::rng_for_case("unit", 2);
        let mut max_depth = 0;
        for _ in 0..100 {
            max_depth = max_depth.max(depth(&strategy.generate(&mut rng)));
        }
        assert!(max_depth >= 1, "recursion never taken");
        assert!(max_depth <= 3, "depth bound violated");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_runs(x in 0usize..10, flip in any::<bool>()) {
            prop_assert!(x < 10);
            prop_assert_eq!(flip as usize <= 1, true);
        }
    }
}
