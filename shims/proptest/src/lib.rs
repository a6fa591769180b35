//! Offline stand-in for `proptest`, covering the subset this workspace uses:
//! the `proptest!` / `prop_oneof!` / `prop_assert!` / `prop_assert_eq!`
//! macros, range and regex-literal strategies, tuples, `Just`,
//! `any::<bool>()`, `prop::collection::vec`, `prop_map`, `prop_recursive`,
//! and `BoxedStrategy`. Sampling is deterministic (seeded per test name and
//! case index); failing cases report their inputs but are not shrunk.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// Run configuration: number of cases per property.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Cases to sample per property.
    pub cases: u32,
    /// Accepted for API compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64, max_shrink_iters: 0 }
    }
}

/// Failure raised by `prop_assert!` family macros.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Builds a failure with a message.
    pub fn new(msg: String) -> Self {
        TestCaseError(msg)
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A value generator. Unlike real proptest there is no shrinking, so a
/// strategy is just a cloneable sampling function.
pub trait Strategy: Clone + 'static {
    /// The generated type.
    type Value;

    /// Samples one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> MapStrategy<Self, F>
    where
        F: Fn(Self::Value) -> O + Clone + 'static,
        Self: Sized,
    {
        MapStrategy { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized,
        Self::Value: 'static,
    {
        let this = self;
        BoxedStrategy(Rc::new(move |rng| this.gen_value(rng)))
    }

    /// Recursive strategy: applies `recurse` up to `depth` times, choosing
    /// between the current level and one more level of nesting at each step.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value>,
        F: Fn(BoxedStrategy<Self::Value>) -> R + 'static,
    {
        let mut strat = self.boxed();
        for _ in 0..depth {
            let deeper = recurse(strat.clone()).boxed();
            strat = OneOf { arms: vec![strat, deeper] }.boxed();
        }
        strat
    }
}

/// Type-erased strategy.
pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> V>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V: 'static> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn gen_value(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

/// `prop_map` adapter.
#[derive(Clone)]
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for MapStrategy<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O + Clone + 'static,
    O: 'static,
{
    type Value = O;
    fn gen_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// Constant strategy.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone + 'static> Strategy for Just<T> {
    type Value = T;
    fn gen_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed arms (`prop_oneof!`).
pub struct OneOf<V> {
    /// The alternative strategies.
    pub arms: Vec<BoxedStrategy<V>>,
}

impl<V> Clone for OneOf<V> {
    fn clone(&self) -> Self {
        OneOf { arms: self.arms.clone() }
    }
}

impl<V> OneOf<V> {
    /// Builds from boxed arms.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }
}

impl<V: 'static> Strategy for OneOf<V> {
    type Value = V;
    fn gen_value(&self, rng: &mut TestRng) -> V {
        let pick = rng.gen_range(0..self.arms.len());
        self.arms[pick].gen_value(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

/// Regex-literal string strategy over the subset this workspace writes:
/// literal chars, `.`, character classes `[a-z0-9 ]` (ranges + singles), and
/// `{m,n}` repetition.
impl Strategy for &'static str {
    type Value = String;
    fn gen_value(&self, rng: &mut TestRng) -> String {
        generate_from_regex(self, rng)
    }
}

fn generate_from_regex(pattern: &str, rng: &mut TestRng) -> String {
    #[derive(Debug)]
    enum Atom {
        Lit(char),
        Any,
        Class(Vec<(char, char)>),
    }
    let chars: Vec<char> = pattern.chars().collect();
    let mut atoms: Vec<(Atom, usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let atom = match chars[i] {
            '.' => {
                i += 1;
                Atom::Any
            }
            '[' => {
                i += 1;
                let mut ranges = Vec::new();
                while i < chars.len() && chars[i] != ']' {
                    let lo = chars[i];
                    if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                        ranges.push((lo, chars[i + 2]));
                        i += 3;
                    } else {
                        ranges.push((lo, lo));
                        i += 1;
                    }
                }
                i += 1; // closing ]
                Atom::Class(ranges)
            }
            '\\' => {
                i += 1;
                let c = chars.get(i).copied().unwrap_or('\\');
                i += 1;
                Atom::Lit(c)
            }
            c => {
                i += 1;
                Atom::Lit(c)
            }
        };
        // Optional {m,n} / {n} repetition.
        let (min, max) = if chars.get(i) == Some(&'{') {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| i + p)
                .expect("unclosed {} in regex strategy");
            let spec: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match spec.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse::<usize>().expect("regex {m,n}"),
                    hi.trim().parse::<usize>().expect("regex {m,n}"),
                ),
                None => {
                    let n = spec.trim().parse::<usize>().expect("regex {n}");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        atoms.push((atom, min, max));
    }
    let mut out = String::new();
    for (atom, min, max) in atoms {
        let reps = if min == max { min } else { rng.gen_range(min..=max) };
        for _ in 0..reps {
            match &atom {
                Atom::Lit(c) => out.push(*c),
                Atom::Any => out.push(rng.gen_range(0x20u32..0x7f) as u8 as char),
                Atom::Class(ranges) => {
                    let total: u32 = ranges
                        .iter()
                        .map(|&(lo, hi)| hi as u32 - lo as u32 + 1)
                        .sum();
                    let mut pick = rng.gen_range(0..total);
                    for &(lo, hi) in ranges {
                        let span = hi as u32 - lo as u32 + 1;
                        if pick < span {
                            out.push(char::from_u32(lo as u32 + pick).unwrap_or(lo));
                            break;
                        }
                        pick -= span;
                    }
                }
            }
        }
    }
    out
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.gen_value(rng), self.1.gen_value(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.gen_value(rng),
            self.1.gen_value(rng),
            self.2.gen_value(rng),
        )
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.gen_value(rng),
            self.1.gen_value(rng),
            self.2.gen_value(rng),
            self.3.gen_value(rng),
        )
    }
}

/// `any::<T>()` support.
pub trait Arbitrary: Sized + 'static {
    /// Samples an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen_bool(0.5)
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rand::RngCore::next_u64(rng) as $t
            }
        }
    )*};
}

int_arbitrary!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// Strategy over all values of an [`Arbitrary`] type.
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T> Clone for AnyStrategy<T> {
    fn clone(&self) -> Self {
        AnyStrategy(std::marker::PhantomData)
    }
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — strategy over the whole type.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Collection strategies (`prop::collection::*`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification accepted by [`vec()`].
    #[derive(Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }
    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange { lo: r.start, hi: r.end.saturating_sub(1) }
        }
    }
    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Vec-of-elements strategy.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.lo >= self.size.hi {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..=self.size.hi)
            };
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Seeds the per-case RNG: deterministic in (test path, case index).
pub fn case_rng(test_name: &str, case: u32) -> TestRng {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64))
}

/// The prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Uniform choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![ $( $crate::Strategy::boxed($strat) ),+ ])
    };
}

/// Property assertion: fails the current case without panicking the harness
/// machinery (the case loop reports it as a test failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::new(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::new(format!($($fmt)+)));
        }
    };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return Err($crate::TestCaseError::new(format!(
                "assertion failed: `{:?}` != `{:?}`",
                lhs, rhs
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(lhs == rhs) {
            return Err($crate::TestCaseError::new(format!($($fmt)+)));
        }
    }};
}

/// The `proptest!` block: expands each property into a deterministic
/// multi-case `#[test]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr) $(#[$attr:meta])* fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block $($rest:tt)*) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::case_rng(concat!(module_path!(), "::", stringify!($name)), case);
                $(let $arg = $crate::Strategy::gen_value(&($strat), &mut rng);)*
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    Ok(())
                })();
                if let Err(e) = outcome {
                    panic!("proptest case {case} failed: {e}");
                }
            }
        }
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn regex_subset_generates_matching_shapes() {
        let mut rng = super::case_rng("regex", 0);
        for _ in 0..50 {
            let s = Strategy::gen_value(&"[a-z]_[a-z]{3,10}", &mut rng);
            assert!(s.len() >= 5 && s.len() <= 12, "{s:?}");
            assert_eq!(s.as_bytes()[1], b'_');
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        #[test]
        fn ranges_and_tuples(x in 0i64..10, (a, b) in (0u64..5, 0.0f64..1.0)) {
            prop_assert!((0..10).contains(&x));
            prop_assert!(a < 5);
            prop_assert!((0.0..1.0).contains(&b), "b = {}", b);
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(1i64), Just(2), (5i64..8).prop_map(|x| x)]) {
            prop_assert!(v == 1 || v == 2 || (5..8).contains(&v));
        }

        #[test]
        fn vec_sizes(vs in prop::collection::vec(0i64..3, 2..=4)) {
            prop_assert!(vs.len() >= 2 && vs.len() <= 4);
            prop_assert_eq!(vs.iter().filter(|&&x| x > 2).count(), 0);
        }
    }
}
