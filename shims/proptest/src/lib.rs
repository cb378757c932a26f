//! Offline stand-in for `proptest` (see `shims/README.md`).
//!
//! Implements the subset of the proptest API the workspace tests use: the
//! [`proptest!`] macro, [`strategy::Strategy`] with `prop_map` /
//! `prop_flat_map`, range and tuple strategies, [`strategy::Just`],
//! [`prop_oneof!`], `prop::collection::vec`, `prop_assert!` /
//! `prop_assert_eq!`, [`test_runner::TestCaseError`] and
//! [`test_runner::ProptestConfig`].
//!
//! Semantics: each test runs `cases` deterministic random cases; the RNG is
//! seeded from the test's module path and name plus the case index, so runs
//! are reproducible without a persisted regression file. Shrinking is not
//! implemented — a failure reports the case index, which regenerates the
//! exact inputs on re-run.

pub mod test_runner {
    /// Failure raised by `prop_assert!` family (or manually).
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// Assertion failure with its message.
        Fail(String),
        /// Input rejected (counts against no budget here; the case is skipped).
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }

    impl std::error::Error for TestCaseError {}

    /// Per-test configuration (only `cases` is honoured).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 32 }
        }
    }

    /// Deterministic per-case RNG (SplitMix64 over an FNV-1a seed).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn for_case(test_name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            h ^= case as u64;
            h = h.wrapping_mul(0x100000001b3);
            TestRng { state: h }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform index in `[0, n)`; `n` must be non-zero.
        pub fn index(&mut self, n: usize) -> usize {
            assert!(n > 0);
            ((self.next_u64() as u128 * n as u128) >> 64) as usize
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Always the same (cloned) value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice among boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.index(self.options.len());
            self.options[i].generate(rng)
        }
    }

    /// Box a strategy for [`Union`] (helper for the `prop_oneof!` macro, in
    /// place of a cast whose associated type could not be inferred).
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    self.start.wrapping_add(((rng.next_u64() as u128 * span) >> 64) as $t)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    lo.wrapping_add(((rng.next_u64() as u128 * span) >> 64) as $t)
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + (self.end - self.start) * rng.next_f64()
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            self.start + (self.end - self.start) * rng.next_f64() as f32
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specification of [`vec()`]: exact, `lo..hi` or `lo..=hi`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.size.lo == self.size.hi {
                self.size.lo
            } else {
                self.size.lo + rng.index(self.size.hi - self.size.lo + 1)
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The `prop::` namespace of the upstream prelude (`prop::collection::vec`).
pub mod prop {
    pub use crate::collection;
    pub use crate::strategy;
}

pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let a = $a;
        let b = $b;
        if !(a == b) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?}` != `{:?}`", a, b),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let a = $a;
        let b = $b;
        if !(a == b) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{} (`{:?}` != `{:?}`)", format!($($fmt)+), a, b),
            ));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let a = $a;
        let b = $b;
        if a == b {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                a, b
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($s)),+])
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @funcs ($cfg) $($rest)* }
    };
    (@funcs ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..cfg.cases {
                    let mut __proptest_rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    let ($($pat,)+) = ($(
                        $crate::strategy::Strategy::generate(&($strat), &mut __proptest_rng),
                    )+);
                    let result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            #[allow(unreachable_code)]
                            ::core::result::Result::Ok(())
                        })();
                    match result {
                        ::core::result::Result::Ok(()) => {}
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {}
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(msg),
                        ) => {
                            panic!(
                                "proptest case {}/{} of `{}` failed: {}\n(cases are \
                                 deterministic: re-running reproduces this input)",
                                case + 1,
                                cfg.cases,
                                stringify!($name),
                                msg
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @funcs ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, Vec<f64>)> {
        (2usize..6).prop_flat_map(|n| (Just(n), prop::collection::vec(-1.0f64..1.0, n)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_in_bounds(a in 3usize..10, b in -4i64..=4, x in 0.25f64..0.75) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((-4..=4).contains(&b));
            prop_assert!((0.25..0.75).contains(&x), "x = {}", x);
        }

        #[test]
        fn flat_map_links_sizes((n, v) in pair()) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn oneof_picks_members(x in prop_oneof![Just(1.0f64), Just(2.0), Just(4.0)]) {
            prop_assert!(x == 1.0 || x == 2.0 || x == 4.0);
        }
    }

    proptest! {
        #[test]
        fn default_config_works(x in 0u64..100) {
            prop_assert!(x < 100);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let s = (2usize..40, prop::collection::vec(-1.0f64..1.0, 1..8));
        let mut r1 = TestRng::for_case("a::b", 3);
        let mut r2 = TestRng::for_case("a::b", 3);
        let (a1, v1) = s.generate(&mut r1);
        let (a2, v2) = s.generate(&mut r2);
        assert_eq!(a1, a2);
        assert_eq!(v1, v2);
    }
}
