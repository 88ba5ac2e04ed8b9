//! A small, dependency-free stand-in for the subset of `proptest` used by
//! the integration tests: the `proptest!` macro with `#![proptest_config]`,
//! `Strategy` + `prop_map`, integer-range strategies, `any::<bool>()`,
//! `prop::collection::vec`, and the `prop_assert*` / `prop_assume!`
//! macros. The build environment has no registry access, so the workspace
//! routes `proptest` to this shim via a path dependency.
//!
//! Differences from upstream, by design:
//!
//! * no shrinking — a failing case reports its case index and seed instead
//!   of a minimized input;
//! * value streams differ from upstream (cases are drawn from the shared
//!   [`rand`] shim), so properties must hold for *all* inputs, which the
//!   workspace's tests already do.

use rand::rngs::StdRng;
use rand::Rng as _;
use rand::{RngCore, SeedableRng};

pub mod prelude {
    //! `use proptest::prelude::*;` — everything the tests name.
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest,
        ProptestConfig, Strategy,
    };
}

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a single case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the message is reported via `panic!`.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
}

/// Result type each generated case body returns.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A generator of random values. The shim has no shrinking, so a strategy
/// is just a seeded sampler.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for ::std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for ::std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A strategy for "any value of `T`" (`any::<bool>()` and friends).
pub struct Any<T>(std::marker::PhantomData<T>);

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod prop {
    //! The `prop::` namespace (`prop::collection::vec(...)`).

    pub mod collection {
        //! Collection strategies.

        use super::super::{SizeRange, Strategy};
        use rand::rngs::StdRng;
        use rand::Rng as _;

        /// Strategy generating `Vec`s of `element` with a length drawn
        /// from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// Strategy returned by [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let n = if self.size.min == self.size.max {
                    self.size.min
                } else {
                    rng.gen_range(self.size.min..=self.size.max)
                };
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Length bounds for collection strategies; converts from `usize`,
/// `Range<usize>` and `RangeInclusive<usize>` like upstream.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Smallest admissible length.
    pub min: usize,
    /// Largest admissible length.
    pub max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Drives the cases of one property. Used by the `proptest!` expansion;
/// not part of the public API surface tests touch directly.
pub fn run_property<F>(name: &str, config: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut StdRng) -> TestCaseResult,
{
    // A fixed base seed keeps runs reproducible; the per-case seed folds
    // in the property name so distinct properties see distinct streams.
    let base = hyperbench_core::hash::store_fnv64(name.as_bytes());
    let mut rejected = 0u32;
    let mut ran = 0u32;
    let mut case_index = 0u64;
    while ran < config.cases {
        if rejected > 16 * config.cases {
            panic!(
                "property {name}: too many prop_assume! rejections \
                 ({rejected} rejects for {ran} accepted cases)"
            );
        }
        let mut rng = StdRng::seed_from_u64(base ^ case_index);
        case_index += 1;
        match case(&mut rng) {
            Ok(()) => ran += 1,
            Err(TestCaseError::Reject) => rejected += 1,
            Err(TestCaseError::Fail(msg)) => panic!(
                "property {name} failed at case {case} (seed {seed:#x}): {msg}",
                case = case_index - 1,
                seed = base ^ (case_index - 1),
            ),
        }
    }
}

/// The `proptest!` block macro: optional `#![proptest_config(...)]`
/// followed by `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr) $(
        #[test]
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_property(stringify!($name), &config, |rng| -> $crate::TestCaseResult {
                $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                $body
                ::std::result::Result::Ok(())
            });
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args...)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// `prop_assert_eq!(left, right)` with an optional message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{} (left: {:?}, right: {:?})",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

/// `prop_assert_ne!(left, right)` with an optional message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}` (both: {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{} (both: {:?})",
                format!($($fmt)+),
                l
            )));
        }
    }};
}

/// `prop_assume!(cond)` — skips the case when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3u8..9, y in 1usize..=4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn vec_sizes_respected(v in prop::collection::vec(any::<bool>(), 2..=5)) {
            prop_assert!(v.len() >= 2 && v.len() <= 5);
        }

        #[test]
        fn prop_map_applies(n in (0u8..4).prop_map(|v| v as usize * 10)) {
            prop_assert!(n % 10 == 0 && n < 40, "mapped value out of range: {}", n);
        }

        #[test]
        fn assume_skips(n in 0u8..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        super::run_property(
            "always_fails",
            &super::ProptestConfig::with_cases(4),
            |_rng| Err(super::TestCaseError::Fail("nope".into())),
        );
    }
}
