//! A tiny, dependency-free stand-in for the subset of the `rand` 0.8 API
//! used by this workspace (`StdRng::seed_from_u64`, `Rng::gen_range` over
//! integer ranges, `Rng::gen_bool`, `SliceRandom::shuffle`). The build
//! environment has no registry access, so the workspace routes `rand` to
//! this shim via a path dependency.
//!
//! The generator is xoshiro256** seeded through SplitMix64 — deterministic
//! across platforms and good enough for workload synthesis; it makes no
//! attempt to match upstream `rand`'s value streams.

#![forbid(unsafe_code)]

pub mod rngs;
pub mod seq;

/// Minimal core-RNG trait: everything derives from `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a `u64` seed (the only constructor the workspace uses).
pub trait SeedableRng: Sized {
    /// Builds an RNG whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Ranges that can be sampled uniformly. Implemented for `Range` and
/// `RangeInclusive` over the primitive integer types.
pub trait SampleRange<T> {
    /// Draws one uniform sample. Panics on an empty range, like upstream.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for ::std::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for ::std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing sampling trait, blanket-implemented for every core RNG.
pub trait Rng: RngCore {
    /// A uniform sample from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        // 53 random bits → uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<R: RngCore> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: usize = a.gen_range(3..=50);
            assert!((3..=50).contains(&x));
            assert_eq!(x, b.gen_range(3..=50));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(1);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn shuffle_permutes() {
        use crate::seq::SliceRandom;
        let mut v: Vec<u32> = (0..50).collect();
        let mut r = StdRng::seed_from_u64(9);
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }
}
