//! Lane types for the tape kernels: the scalar [`Complex`] (width 1) and
//! the lane-blocked split-plane [`LaneBlock`] (width `W`).
//!
//! Every tape kernel is written once over the [`Lane`] trait and walks
//! rows of `nb` lane values per slot; the scalar instance has `nb = 1`
//! and the batched one `nb = ⌈k/W⌉`. A [`LaneBlock`] holds `W` complex
//! lanes as two parallel `[f64; W]` planes (separate real and imaginary
//! arrays). Every per-lane operation is a fixed-trip loop over `W`, so
//! the compiler unrolls it completely and autovectorizes the body — no
//! gather/scatter, no interleaved real/imaginary shuffles, entirely in
//! safe Rust.
//!
//! # Bit-exactness contract
//!
//! Each lane of every operation performs *exactly* the scalar
//! [`Complex`] arithmetic sequence — the same multiply formula
//! (`re·re − im·im`, `re·im + im·re`), the same componentwise adds, and
//! the same zero tests (`re == 0.0 && im == 0.0`, matching `Complex`'s
//! derived `PartialEq` against [`C_ZERO`]) — so a kernel instantiated at
//! either lane type is bit-for-bit identical, lane by lane, to the scalar
//! reference. Nothing here is allowed to fuse a multiply-add: rustc never
//! contracts float expressions into FMA on its own, and keeping the two
//! roundings separate is what makes the SIMD path produce the scalar
//! bits.
//!
//! Short-circuits are per-lane *selects*: where the scalar reference
//! branches on a zero accumulator, the lane op keeps the old bits in
//! lanes that were zero. For [`Complex`] the select is that very branch;
//! for [`LaneBlock`] it computes the product unconditionally and
//! compiles to a blend.
//!
//! Ragged batches (`k` not a multiple of `W`) occupy `⌈k/W⌉` blocks;
//! the trailing block's dead lanes are zero-filled by the weight
//! containers and simply computed alongside live lanes (masked
//! remainder). Dead lanes are deterministic functions of those zeros,
//! which keeps whole-block bitwise comparisons (delta kernels) sound.

use qkc_math::{Complex, C_ONE, C_ZERO};

/// Native lane width of the blocked kernels: 8 × f64 per plane fills one
/// 512-bit vector register (or two 256-bit ones) per plane.
pub const LANE_WIDTH: usize = 8;

/// Number of [`LaneBlock`]s needed to hold `lanes` complex lanes.
#[inline]
pub fn blocks_for(lanes: usize) -> usize {
    lanes.div_ceil(LANE_WIDTH)
}

/// `WIDTH` complex lanes updated in lockstep: the value type the tape
/// kernels are generic over. Each op is the scalar [`Complex`] operation
/// applied lane by lane (see the module docs for the bit contract).
pub trait Lane: Copy + std::fmt::Debug {
    /// Complex lanes per value.
    const WIDTH: usize;
    /// All lanes `0 + 0i`.
    const ZERO: Self;
    /// All lanes `1 + 0i`.
    const ONE: Self;

    /// Values per slot row holding `lanes` complex lanes. A literal 1 at
    /// width 1, so the scalar kernel instance folds its row length.
    #[inline(always)]
    fn row_len(lanes: usize) -> usize {
        if Self::WIDTH == 1 {
            1
        } else {
            lanes.div_ceil(Self::WIDTH)
        }
    }

    /// All lanes set to `c`.
    fn splat(c: Complex) -> Self;

    /// Lane `w` as a [`Complex`].
    fn get(&self, w: usize) -> Complex;

    /// Sets lane `w`.
    fn set(&mut self, w: usize, c: Complex);

    /// `C_ONE * v` per lane — the full multiply by exact one, *not* a
    /// copy: `1·re − 0·im` can flip the sign of a zero, and the reference
    /// (`acc = C_ONE * v`) observes those bits.
    fn one_times(v: &Self) -> Self;

    /// `self * rhs` per lane.
    fn mul(&self, rhs: &Self) -> Self;

    /// `self *= rhs` per lane, unconditionally (full-product AND sweeps).
    fn mul_assign(&mut self, rhs: &Self);

    /// `self *= rhs` in lanes where `self` is nonzero; zero lanes keep
    /// their bits. This is the reference AND short-circuit
    /// (`if acc != C_ZERO { acc *= v }`).
    fn mul_assign_sc(&mut self, rhs: &Self);

    /// `self = a + b` per lane.
    fn add_of(&mut self, a: &Self, b: &Self);

    /// `self += rhs` per lane.
    fn add_assign(&mut self, rhs: &Self);

    /// `self += a * b` per lane, unconditionally. The product and the
    /// add round separately (two ops, never an FMA).
    fn add_mul(&mut self, a: &Self, b: &Self);

    /// Whether every lane is numerically zero (`== C_ZERO`; sign of zero
    /// is ignored, matching the scalar comparison).
    fn all_zero(&self) -> bool;

    /// Whether any lane differs from `other` *bitwise* (distinguishes
    /// `-0.0` from `0.0` and compares NaNs by payload) — the comparison
    /// the delta kernels use to detect a changed row.
    fn bits_ne(&self, other: &Self) -> bool;
}

impl Lane for Complex {
    const WIDTH: usize = 1;
    const ZERO: Self = C_ZERO;
    const ONE: Self = C_ONE;

    #[inline(always)]
    fn splat(c: Complex) -> Self {
        c
    }

    #[inline(always)]
    fn get(&self, _w: usize) -> Complex {
        *self
    }

    #[inline(always)]
    fn set(&mut self, _w: usize, c: Complex) {
        *self = c;
    }

    #[inline(always)]
    fn one_times(v: &Self) -> Self {
        C_ONE * *v
    }

    #[inline(always)]
    fn mul(&self, rhs: &Self) -> Self {
        *self * *rhs
    }

    #[inline(always)]
    fn mul_assign(&mut self, rhs: &Self) {
        *self *= *rhs;
    }

    #[inline(always)]
    fn mul_assign_sc(&mut self, rhs: &Self) {
        if !self.all_zero() {
            *self *= *rhs;
        }
    }

    #[inline(always)]
    fn add_of(&mut self, a: &Self, b: &Self) {
        *self = *a + *b;
    }

    #[inline(always)]
    fn add_assign(&mut self, rhs: &Self) {
        *self += *rhs;
    }

    #[inline(always)]
    fn add_mul(&mut self, a: &Self, b: &Self) {
        *self += *a * *b;
    }

    /// `== C_ZERO`, evaluated without a short-circuit so that repeated
    /// tests of one value (a kernel's break test and the select after it)
    /// compile to one comparison.
    #[inline(always)]
    fn all_zero(&self) -> bool {
        (self.re == 0.0) & (self.im == 0.0)
    }

    #[inline(always)]
    fn bits_ne(&self, other: &Self) -> bool {
        self.re.to_bits() != other.re.to_bits() || self.im.to_bits() != other.im.to_bits()
    }
}

/// `W` complex lanes in split-plane layout: `re[w] + i·im[w]` is lane `w`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct LaneBlock<const W: usize = LANE_WIDTH> {
    /// Real plane.
    pub re: [f64; W],
    /// Imaginary plane.
    pub im: [f64; W],
}

impl<const W: usize> Lane for LaneBlock<W> {
    const WIDTH: usize = W;
    const ZERO: Self = Self {
        re: [0.0; W],
        im: [0.0; W],
    };
    const ONE: Self = Self {
        re: [1.0; W],
        im: [0.0; W],
    };

    #[inline(always)]
    fn splat(c: Complex) -> Self {
        Self {
            re: [c.re; W],
            im: [c.im; W],
        }
    }

    #[inline(always)]
    fn get(&self, w: usize) -> Complex {
        Complex::new(self.re[w], self.im[w])
    }

    #[inline(always)]
    fn set(&mut self, w: usize, c: Complex) {
        self.re[w] = c.re;
        self.im[w] = c.im;
    }

    #[inline(always)]
    fn one_times(v: &Self) -> Self {
        let mut out = Self::ZERO;
        for w in 0..W {
            out.re[w] = C_ONE.re * v.re[w] - C_ONE.im * v.im[w];
            out.im[w] = C_ONE.re * v.im[w] + C_ONE.im * v.re[w];
        }
        out
    }

    #[inline(always)]
    fn mul(&self, rhs: &Self) -> Self {
        let mut out = Self::ZERO;
        for w in 0..W {
            out.re[w] = self.re[w] * rhs.re[w] - self.im[w] * rhs.im[w];
            out.im[w] = self.re[w] * rhs.im[w] + self.im[w] * rhs.re[w];
        }
        out
    }

    #[inline(always)]
    fn mul_assign(&mut self, rhs: &Self) {
        for w in 0..W {
            let re = self.re[w] * rhs.re[w] - self.im[w] * rhs.im[w];
            let im = self.re[w] * rhs.im[w] + self.im[w] * rhs.re[w];
            self.re[w] = re;
            self.im[w] = im;
        }
    }

    #[inline(always)]
    fn mul_assign_sc(&mut self, rhs: &Self) {
        for w in 0..W {
            let dead = self.re[w] == 0.0 && self.im[w] == 0.0;
            let re = self.re[w] * rhs.re[w] - self.im[w] * rhs.im[w];
            let im = self.re[w] * rhs.im[w] + self.im[w] * rhs.re[w];
            self.re[w] = if dead { self.re[w] } else { re };
            self.im[w] = if dead { self.im[w] } else { im };
        }
    }

    #[inline(always)]
    fn add_of(&mut self, a: &Self, b: &Self) {
        for w in 0..W {
            self.re[w] = a.re[w] + b.re[w];
            self.im[w] = a.im[w] + b.im[w];
        }
    }

    #[inline(always)]
    fn add_assign(&mut self, rhs: &Self) {
        for w in 0..W {
            self.re[w] += rhs.re[w];
            self.im[w] += rhs.im[w];
        }
    }

    #[inline(always)]
    fn add_mul(&mut self, a: &Self, b: &Self) {
        for w in 0..W {
            let re = a.re[w] * b.re[w] - a.im[w] * b.im[w];
            let im = a.re[w] * b.im[w] + a.im[w] * b.re[w];
            self.re[w] += re;
            self.im[w] += im;
        }
    }

    #[inline(always)]
    fn all_zero(&self) -> bool {
        let mut zero = true;
        for w in 0..W {
            zero &= self.re[w] == 0.0 && self.im[w] == 0.0;
        }
        zero
    }

    #[inline(always)]
    fn bits_ne(&self, other: &Self) -> bool {
        let mut ne = false;
        for w in 0..W {
            ne |= self.re[w].to_bits() != other.re[w].to_bits()
                || self.im[w].to_bits() != other.im[w].to_bits();
        }
        ne
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkc_math::{C_ONE, C_ZERO};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits_eq(a: Complex, b: Complex) -> bool {
        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
    }

    fn random_block(rng: &mut StdRng) -> LaneBlock {
        let mut b = LaneBlock::ZERO;
        for w in 0..LANE_WIDTH {
            // Mix in exact zeros of both signs so the zero-select paths
            // and sign-of-zero propagation are exercised.
            let c = match rng.gen_range(0..5) {
                0 => C_ZERO,
                1 => Complex::new(-0.0, 0.0),
                2 => Complex::new(0.0, -0.0),
                _ => Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5),
            };
            b.set(w, c);
        }
        b
    }

    #[test]
    fn ops_match_scalar_complex_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let a = random_block(&mut rng);
            let b = random_block(&mut rng);
            let acc0 = random_block(&mut rng);

            let m = a.mul(&b);
            let ot = LaneBlock::one_times(&a);
            let mut ma = a;
            ma.mul_assign(&b);
            let mut sc = a;
            sc.mul_assign_sc(&b);
            let mut sum = LaneBlock::ZERO;
            sum.add_of(&a, &b);
            let mut aa = acc0;
            aa.add_assign(&b);
            let mut am = acc0;
            am.add_mul(&a, &b);

            for w in 0..LANE_WIDTH {
                let (x, y, z) = (a.get(w), b.get(w), acc0.get(w));
                assert!(bits_eq(m.get(w), x * y));
                assert!(bits_eq(ot.get(w), C_ONE * x));
                assert!(bits_eq(ma.get(w), x * y));
                let want_sc = if x != C_ZERO { x * y } else { x };
                assert!(bits_eq(sc.get(w), want_sc));
                assert!(bits_eq(sum.get(w), x + y));
                assert!(bits_eq(aa.get(w), z + y));
                assert!(bits_eq(am.get(w), z + x * y));
                // The width-1 instance is the same op on one lane.
                let mut one = x;
                one.mul_assign_sc(&y);
                assert!(bits_eq(one, want_sc));
                assert!(bits_eq(Complex::one_times(&x), C_ONE * x));
                assert_eq!(x.all_zero(), x == C_ZERO);
            }
        }
    }

    #[test]
    fn zero_predicates() {
        assert!(LaneBlock::<8>::ZERO.all_zero());
        let mut b = LaneBlock::<8>::ZERO;
        b.set(3, Complex::new(-0.0, 0.0));
        // -0.0 == 0.0 numerically: still all-zero…
        assert!(b.all_zero());
        // …but bitwise different from the +0.0 block.
        assert!(b.bits_ne(&LaneBlock::ZERO));
        b.set(3, Complex::real(1.0));
        assert!(!b.all_zero());
        assert!(!LaneBlock::<8>::ONE.bits_ne(&LaneBlock::ONE));
    }

    #[test]
    fn blocks_for_rounds_up() {
        assert_eq!(blocks_for(0), 0);
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(LANE_WIDTH), 1);
        assert_eq!(blocks_for(LANE_WIDTH + 1), 2);
        assert_eq!(blocks_for(2 * LANE_WIDTH + 3), 3);
    }
}
