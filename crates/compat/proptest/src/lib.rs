//! Offline, API-compatible subset of the `proptest` crate.
//!
//! The build environment has no access to a crate registry, so the
//! workspace vendors the interface its property tests rely on: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_flat_map` / `prop_recursive`, [`Just`](strategy::Just), tuple
//! and integer-range strategies, [`collection::vec`],
//! [`any`](arbitrary::any), and the `proptest!` / `prop_assert!` /
//! `prop_assert_eq!` / `prop_oneof!` macros. Failing inputs are reported
//! but **not shrunk** — a failure prints the case number and seeds are
//! deterministic per test name, so failures reproduce exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Test-execution plumbing: configuration, RNG and failure type.
pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};
    use std::fmt;

    /// Per-`proptest!` block configuration.
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// A test-case failure: the body returned `Err` or an assertion macro
    /// fired.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Fails the current case with a reason.
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError { message: reason.into() }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Deterministic RNG handed to strategies (one per test function,
    /// seeded from the test name, streaming across cases).
    pub struct TestRng {
        inner: SmallRng,
    }

    impl TestRng {
        /// A generator seeded deterministically from `name` (FNV-1a).
        pub fn deterministic(name: &str) -> TestRng {
            let mut hash: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x100000001b3);
            }
            TestRng { inner: SmallRng::seed_from_u64(hash) }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }
}

/// Strategies: deterministic value generators composable like proptest's.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;
    use std::rc::Rc;

    /// A generator of values of type [`Strategy::Value`]. Unlike the
    /// published crate there is no value tree and no shrinking: a strategy
    /// is a pure function of the RNG stream.
    pub trait Strategy: Clone {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O + Clone,
        {
            Map { inner: self, f }
        }

        /// Maps generated values to a new strategy and draws from it
        /// (dependent generation).
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2 + Clone,
        {
            FlatMap { inner: self, f }
        }

        /// Recursive strategy: up to `depth` levels where each level
        /// either stays a leaf (`self`) or applies `expand` to the
        /// strategy for the level below. `_desired_size` and
        /// `_expected_branch_size` are accepted for API compatibility;
        /// size is governed by the collection bounds inside `expand`.
        fn prop_recursive<F, S2>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            expand: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S2,
            S2: Strategy<Value = Self::Value> + 'static,
        {
            let mut current = self.clone().boxed();
            for _ in 0..depth {
                current = Union::new(vec![self.clone().boxed(), expand(current).boxed()]).boxed();
            }
            current
        }

        /// Type-erases the strategy (cheaply cloneable).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            let inner = self;
            BoxedStrategy { gen: Rc::new(move |rng| inner.gen_value(rng)) }
        }
    }

    /// A type-erased [`Strategy`].
    pub struct BoxedStrategy<T> {
        gen: Rc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy { gen: Rc::clone(&self.gen) }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            (self.gen)(rng)
        }
    }

    /// Strategy that always yields a clone of its value.
    #[derive(Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O + Clone,
    {
        type Value = O;
        fn gen_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.gen_value(rng))
        }
    }

    /// The result of [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2 + Clone,
    {
        type Value = S2::Value;
        fn gen_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.gen_value(rng)).gen_value(rng)
        }
    }

    /// Uniform choice between type-erased alternatives (what
    /// `prop_oneof!` builds). Weights are uniform in this subset.
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union { options: self.options.clone() }
        }
    }

    impl<T> Union<T> {
        /// A union over the given alternatives (must be non-empty).
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "Union of zero strategies");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.options.len() as u64) as usize;
            self.options[i].gen_value(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128);
                    let draw = (rng.next_u64() as u128) % span;
                    (self.start as u128).wrapping_add(draw) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as u128).wrapping_sub(start as u128) + 1;
                    let draw = (rng.next_u64() as u128) % span;
                    (start as u128).wrapping_add(draw) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.gen_value(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length interval for collection strategies, converted
    /// from the range types `vec` callers pass.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize, // inclusive
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty vec length range");
            SizeRange { min: *r.start(), max: *r.end() }
        }
    }

    /// Strategy for `Vec`s with a length drawn from `size` and elements
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// The result of [`vec()`](fn@vec).
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u64;
            let len = self.size.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

/// `any::<T>()` and the [`Arbitrary`](arbitrary::Arbitrary) trait.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Generates an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u32, u64);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The canonical strategy for `T` over its whole value range.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    /// The result of [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Defines property tests: after a `#![proptest_config(config)]` header,
/// each `fn name(pat in strategy, …) { body }` item expands to a
/// `#[test]`-attributed function running the body over `config.cases`
/// generated inputs. Failures panic with the case number; inputs are not
/// shrunk.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)]
     $($(#[$meta:meta])*
       fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut runner_rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $(let $pat =
                                $crate::strategy::Strategy::gen_value(&($strat), &mut runner_rng);)+
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = outcome {
                        ::std::panic!(
                            "proptest {}: case {}/{} failed: {}",
                            stringify!($name), case + 1, config.cases, e
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the current case (returns `Err(TestCaseError)`) unless `cond`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current case unless `left == right` (compared by reference).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: `{:?}` != `{:?}`", l, r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l == *r, $($fmt)*);
            }
        }
    };
}

/// Uniform choice between strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// The usual glob import: strategies, macros, config and failure types.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn rng() -> crate::test_runner::TestRng {
        crate::test_runner::TestRng::deterministic("proptest-self-test")
    }

    #[test]
    fn just_and_map() {
        let s = Just(3u32).prop_map(|n| n * 2);
        assert_eq!(s.gen_value(&mut rng()), 6);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = rng();
        let s = 5usize..10;
        for _ in 0..100 {
            assert!((5..10).contains(&s.gen_value(&mut r)));
        }
    }

    #[test]
    fn oneof_covers_all_branches() {
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut r = rng();
        let seen: std::collections::HashSet<u8> = (0..100).map(|_| s.gen_value(&mut r)).collect();
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn vec_lengths_respect_bounds() {
        let s = crate::collection::vec(Just(0u8), 2..5);
        let mut r = rng();
        for _ in 0..50 {
            let v = s.gen_value(&mut r);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Clone, Debug, PartialEq)]
        enum Tree {
            Leaf,
            Node(Vec<Tree>),
        }
        let s = Just(Tree::Leaf).prop_recursive(3, 8, 2, |inner| {
            crate::collection::vec(inner, 1..3).prop_map(Tree::Node)
        });
        let mut r = rng();
        let mut saw_node = false;
        for _ in 0..100 {
            if matches!(s.gen_value(&mut r), Tree::Node(_)) {
                saw_node = true;
            }
        }
        assert!(saw_node, "recursion must sometimes expand");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro machinery itself: patterns, multiple bindings, `?`.
        #[test]
        fn macro_binds_and_asserts((a, b) in (0u32..10, 0u32..10), c in any::<bool>()) {
            let sum = a + b;
            prop_assert!(sum < 20);
            prop_assert_eq!(sum, a + b, "sum {} for c={}", sum, c);
            let ok: Result<(), TestCaseError> = Ok(());
            ok?;
        }
    }
}
