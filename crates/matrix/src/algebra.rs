//! Concrete semirings, rings and fields.
//!
//! The paper distinguishes two algebraic regimes (§1.1, Table 1):
//!
//! * **semirings** — only `+` and `·` are available, so only the `O(d^{4/3})`
//!   cube algorithm applies to dense subproblems; examples here are the
//!   Boolean semiring [`Bool`] (matrix product = reachability / triangle
//!   detection) and the tropical semiring [`MinPlus`] (product = min-plus
//!   distance product);
//! * **rings/fields** — subtraction enables Strassen-style
//!   fast dense multiplication; examples here are the Mersenne prime field
//!   [`Fp`] (`p = 2⁶¹ − 1`) and the wrapping ring [`Wrap64`].

use lowband_model::algebra::{PackedSemiring, Ring, Semiring};
use rand::Rng;

/// Sampling random elements, for seeded instance generation.
///
/// Every sampled value set runs on the slot-store executor, which carries
/// one value set as a one-lane plane, so a sampled type has one.
pub trait SampleElement: PackedSemiring<1> {
    /// Draw a *nonzero* element (nonzero so that supports stay exact).
    fn sample_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

// ---------------------------------------------------------------------------
// Boolean semiring
// ---------------------------------------------------------------------------

/// The Boolean semiring `({0,1}, ∨, ∧)`.
///
/// Matrix multiplication over [`Bool`] computes exactly the "is there a
/// `j` with `A_ij` and `B_jk`" predicate — the triangle-detection
/// application of §1.5.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Bool(pub bool);

impl Semiring for Bool {
    fn zero() -> Self {
        Bool(false)
    }
    fn one() -> Self {
        Bool(true)
    }
    fn add(&self, rhs: &Self) -> Self {
        Bool(self.0 | rhs.0)
    }
    fn mul(&self, rhs: &Self) -> Self {
        Bool(self.0 & rhs.0)
    }
    fn digest(&self) -> u64 {
        u64::from(self.0)
    }
}

impl SampleElement for Bool {
    fn sample_nonzero<R: Rng + ?Sized>(_rng: &mut R) -> Self {
        Bool(true)
    }
}

// ---------------------------------------------------------------------------
// Tropical (min, +) semiring
// ---------------------------------------------------------------------------

/// The tropical semiring `(ℕ ∪ {∞}, min, +)`.
///
/// The matrix "product" over [`MinPlus`] is the distance product; iterating
/// it yields all-pairs shortest paths, the classic application of
/// semiring matrix multiplication in the congested-clique literature.
///
/// `∞` (the additive identity) is represented by `u64::MAX`; tropical
/// multiplication saturates so that `∞ + w = ∞`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MinPlus(pub u64);

impl MinPlus {
    /// The additive identity `∞`.
    pub const INFINITY: MinPlus = MinPlus(u64::MAX);

    /// Finite weight constructor.
    pub fn weight(w: u64) -> MinPlus {
        assert!(w < u64::MAX, "weight must be finite");
        MinPlus(w)
    }

    /// Is this the tropical zero (`∞`)?
    pub fn is_infinite(self) -> bool {
        self.0 == u64::MAX
    }
}

impl Semiring for MinPlus {
    fn zero() -> Self {
        MinPlus::INFINITY
    }
    fn one() -> Self {
        MinPlus(0)
    }
    fn add(&self, rhs: &Self) -> Self {
        MinPlus(self.0.min(rhs.0))
    }
    fn mul(&self, rhs: &Self) -> Self {
        MinPlus(self.0.saturating_add(rhs.0))
    }
    fn digest(&self) -> u64 {
        self.0
    }
}

impl SampleElement for MinPlus {
    fn sample_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        MinPlus(rng.gen_range(0..1_000_000))
    }
}

// ---------------------------------------------------------------------------
// Mersenne prime field 𝔽_p, p = 2^61 − 1
// ---------------------------------------------------------------------------

/// The prime field `𝔽_p` with `p = 2⁶¹ − 1`.
///
/// Field elements fit in one `O(log n)`-bit message for every instance size
/// this simulator can represent, matching the paper's assumption that matrix
/// elements fit in single messages. Reduction uses the Mersenne structure
/// (`x mod 2⁶¹−1` via shift-and-add), so arithmetic is branch-light.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Fp(u64);

impl Fp {
    /// The modulus `p = 2⁶¹ − 1`.
    pub const P: u64 = (1u64 << 61) - 1;

    /// Construct from any integer (reduced mod `p`).
    pub fn new(x: u64) -> Fp {
        let mut v = (x >> 61) + (x & Fp::P);
        if v >= Fp::P {
            v -= Fp::P;
        }
        Fp(v)
    }

    /// Canonical representative in `0..p`.
    pub fn value(self) -> u64 {
        self.0
    }

    fn mul_raw(a: u64, b: u64) -> u64 {
        let wide = u128::from(a) * u128::from(b);
        let lo = (wide & u128::from(Fp::P)) as u64;
        let hi = (wide >> 61) as u64;
        let mut v = lo + hi;
        if v >= Fp::P {
            v -= Fp::P;
        }
        // hi can itself exceed p − lo slack only once more.
        if v >= Fp::P {
            v -= Fp::P;
        }
        v
    }

    /// Modular exponentiation.
    pub fn pow(self, mut e: u64) -> Fp {
        let mut base = self;
        let mut acc = Fp(1);
        while e > 0 {
            if e & 1 == 1 {
                acc = Fp(Fp::mul_raw(acc.0, base.0));
            }
            base = Fp(Fp::mul_raw(base.0, base.0));
            e >>= 1;
        }
        acc
    }
}

impl Semiring for Fp {
    fn zero() -> Self {
        Fp(0)
    }
    fn one() -> Self {
        Fp(1)
    }
    fn try_neg(&self) -> Option<Self> {
        Some(Ring::neg(self))
    }
    fn add(&self, rhs: &Self) -> Self {
        let mut v = self.0 + rhs.0;
        if v >= Fp::P {
            v -= Fp::P;
        }
        Fp(v)
    }
    fn mul(&self, rhs: &Self) -> Self {
        Fp(Fp::mul_raw(self.0, rhs.0))
    }
    fn digest(&self) -> u64 {
        self.0
    }
}

impl Ring for Fp {
    fn neg(&self) -> Self {
        if self.0 == 0 {
            Fp(0)
        } else {
            Fp(Fp::P - self.0)
        }
    }
}

impl SampleElement for Fp {
    fn sample_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Fp(rng.gen_range(1..Fp::P))
    }
}

// ---------------------------------------------------------------------------
// GF(2)
// ---------------------------------------------------------------------------

/// The two-element field `GF(2)` (xor / and).
///
/// The smallest field: addition is xor (so every element is its own
/// negative — subtraction *is* addition, and Strassen applies), and the
/// only nonzero element is its own inverse. Boolean matrix rank and
/// `𝔽₂` linear algebra live here; it also exercises the degenerate corner
/// of the [`Ring`] trait in tests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Gf2(pub bool);

impl Semiring for Gf2 {
    fn zero() -> Self {
        Gf2(false)
    }
    fn one() -> Self {
        Gf2(true)
    }
    fn try_neg(&self) -> Option<Self> {
        Some(Ring::neg(self))
    }
    fn add(&self, rhs: &Self) -> Self {
        Gf2(self.0 ^ rhs.0)
    }
    fn mul(&self, rhs: &Self) -> Self {
        Gf2(self.0 & rhs.0)
    }
    fn digest(&self) -> u64 {
        u64::from(self.0)
    }
}

impl Ring for Gf2 {
    fn neg(&self) -> Self {
        *self // characteristic 2: −x = x
    }
}

impl SampleElement for Gf2 {
    fn sample_nonzero<R: Rng + ?Sized>(_rng: &mut R) -> Self {
        Gf2(true)
    }
}

// ---------------------------------------------------------------------------
// Wrapping u64 ring
// ---------------------------------------------------------------------------

/// The ring `ℤ / 2⁶⁴ℤ` (wrapping `u64` arithmetic).
///
/// Cheap, exact, supports subtraction (so Strassen applies), and any nonzero
/// product structure survives with probability 1 − 2⁻⁶⁴-ish under random
/// values — convenient for large stress tests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Wrap64(pub u64);

impl Semiring for Wrap64 {
    fn zero() -> Self {
        Wrap64(0)
    }
    fn one() -> Self {
        Wrap64(1)
    }
    fn try_neg(&self) -> Option<Self> {
        Some(Ring::neg(self))
    }
    fn add(&self, rhs: &Self) -> Self {
        Wrap64(self.0.wrapping_add(rhs.0))
    }
    fn mul(&self, rhs: &Self) -> Self {
        Wrap64(self.0.wrapping_mul(rhs.0))
    }
    fn digest(&self) -> u64 {
        self.0
    }
}

impl Ring for Wrap64 {
    fn neg(&self) -> Self {
        Wrap64(self.0.wrapping_neg())
    }
}

impl SampleElement for Wrap64 {
    fn sample_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Wrap64(rng.gen_range(1..=u64::MAX))
    }
}

// ---------------------------------------------------------------------------
// Packed lane planes
// ---------------------------------------------------------------------------
//
// Array planes for the word-sized algebras: `[S; LANES]` with plain lane
// loops the compiler autovectorizes. Generic over the lane count, so the
// batch runner can pick any width `1..=64`.
lowband_model::impl_packed_semiring_array!(Fp);
lowband_model::impl_packed_semiring_array!(Wrap64);
lowband_model::impl_packed_semiring_array!(MinPlus);

// Bit-sliced planes for the two-element algebras: a plane is ONE `u64`
// whose bit `i` is lane `i`, so a packed add/mul is a single bitwise
// instruction advancing up to 64 batch members at once. They exist at
// every width: the one-lane plane carries a single value set, and the
// batch menu (`BatchElement::LANE_WIDTHS`) compiles only the full word.
// Bits `LANES..64` are don't-care — `zero_mask` callers mask them off —
// and the array macro is deliberately not applied to `Bool`/`Gf2`, so
// every width has the one bit-sliced representation.

impl<const LANES: usize> PackedSemiring<LANES> for Bool {
    type Plane = u64;

    #[inline]
    fn packed_zero() -> u64 {
        0
    }
    #[inline]
    fn splat(value: &Self) -> u64 {
        if value.0 {
            !0
        } else {
            0
        }
    }
    #[inline]
    fn packed_add(lhs: &u64, rhs: &u64) -> u64 {
        lhs | rhs // ∨ per lane
    }
    #[inline]
    fn packed_mul(lhs: &u64, rhs: &u64) -> u64 {
        lhs & rhs // ∧ per lane
    }
    #[inline]
    fn packed_mul_add(acc: &u64, lhs: &u64, rhs: &u64) -> u64 {
        acc | (lhs & rhs)
    }
    #[inline]
    fn extract(plane: &u64, lane: usize) -> Self {
        Bool(plane >> lane & 1 == 1)
    }
    #[inline]
    fn insert(plane: &mut u64, lane: usize, value: Self) {
        *plane = *plane & !(1 << lane) | u64::from(value.0) << lane;
    }
    #[inline]
    fn zero_mask(plane: &u64) -> u64 {
        !plane
    }
}

impl<const LANES: usize> PackedSemiring<LANES> for Gf2 {
    type Plane = u64;

    #[inline]
    fn packed_zero() -> u64 {
        0
    }
    #[inline]
    fn splat(value: &Self) -> u64 {
        if value.0 {
            !0
        } else {
            0
        }
    }
    #[inline]
    fn packed_add(lhs: &u64, rhs: &u64) -> u64 {
        lhs ^ rhs // ⊕ per lane
    }
    #[inline]
    fn packed_mul(lhs: &u64, rhs: &u64) -> u64 {
        lhs & rhs
    }
    #[inline]
    fn packed_mul_add(acc: &u64, lhs: &u64, rhs: &u64) -> u64 {
        acc ^ (lhs & rhs)
    }
    #[inline]
    fn extract(plane: &u64, lane: usize) -> Self {
        Gf2(plane >> lane & 1 == 1)
    }
    #[inline]
    fn insert(plane: &mut u64, lane: usize, value: Self) {
        *plane = *plane & !(1 << lane) | u64::from(value.0) << lane;
    }
    #[inline]
    fn zero_mask(plane: &u64) -> u64 {
        !plane
    }
    #[inline]
    fn packed_try_neg(plane: &u64) -> Option<u64> {
        Some(*plane) // characteristic 2: −x = x, lane-wise
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_is_triangle_logic() {
        assert_eq!(Bool(true).add(&Bool(false)), Bool(true));
        assert_eq!(Bool(true).mul(&Bool(false)), Bool(false));
        assert_eq!(Bool::zero(), Bool(false));
        assert_eq!(Bool::one(), Bool(true));
        assert!(Bool::zero().is_zero());
    }

    #[test]
    fn minplus_identities() {
        let w = MinPlus::weight(5);
        assert_eq!(w.add(&MinPlus::zero()), w, "min(5, ∞) = 5");
        assert_eq!(w.mul(&MinPlus::one()), w, "5 + 0 = 5");
        assert_eq!(w.mul(&MinPlus::zero()), MinPlus::zero(), "5 + ∞ = ∞");
        assert!(MinPlus::INFINITY.is_infinite());
        assert_eq!(MinPlus::weight(2).mul(&MinPlus::weight(3)), MinPlus(5));
        assert_eq!(MinPlus::weight(2).add(&MinPlus::weight(3)), MinPlus(2));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn minplus_rejects_infinite_weight() {
        let _ = MinPlus::weight(u64::MAX);
    }

    #[test]
    fn fp_reduction_and_arithmetic() {
        assert_eq!(Fp::new(Fp::P), Fp::zero());
        assert_eq!(Fp::new(Fp::P + 5), Fp::new(5));
        let a = Fp::new(123456789);
        let b = Fp::new(987654321);
        assert_eq!(a.add(&b), Fp::new(123456789 + 987654321));
        assert_eq!(
            a.mul(&b),
            Fp::new(123456789u64.wrapping_mul(987654321) % Fp::P)
        );
        // Near-modulus products exercise double reduction.
        let big = Fp::new(Fp::P - 1);
        assert_eq!(big.mul(&big), Fp::new(1), "(p−1)² ≡ 1 (mod p)");
    }

    #[test]
    fn fp_field_axioms() {
        let a = Fp::new(0xDEADBEEFCAFE);
        assert_eq!(a.add(&a.neg()), Fp::zero());
        // Fermat: a^(p−2) is the inverse of a nonzero a.
        assert_eq!(a.mul(&a.pow(Fp::P - 2)), Fp::one());
        assert_eq!(Fp::zero().neg(), Fp::zero());
    }

    #[test]
    fn fp_pow_matches_repeated_multiplication() {
        let a = Fp::new(3);
        let mut acc = Fp::one();
        for e in 0..20u64 {
            assert_eq!(a.pow(e), acc);
            acc = acc.mul(&a);
        }
    }

    #[test]
    fn gf2_field_axioms() {
        let (z, o) = (Gf2(false), Gf2(true));
        assert_eq!(o.add(&o), z, "1 + 1 = 0 in characteristic 2");
        assert_eq!(o.mul(&o), o);
        assert_eq!(o.neg(), o, "self-inverse addition");
        assert_eq!(o.add(&o.neg()), z);
        assert_eq!(z.neg(), z);
    }

    #[test]
    fn wrap64_ring_axioms() {
        let a = Wrap64(u64::MAX - 3);
        let b = Wrap64(17);
        assert_eq!(a.add(&b), Wrap64((u64::MAX - 3).wrapping_add(17)));
        assert_eq!(a.add(&a.neg()), Wrap64::zero());
        assert_eq!(a.add(&b.neg()).add(&b), a);
    }

    #[test]
    fn samples_are_nonzero() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert!(!Fp::sample_nonzero(&mut rng).is_zero());
            assert!(!Wrap64::sample_nonzero(&mut rng).is_zero());
            assert!(!Bool::sample_nonzero(&mut rng).is_zero());
            assert!(!MinPlus::sample_nonzero(&mut rng).is_zero());
        }
    }

    /// Every packed op over array planes must agree lane-by-lane with the
    /// scalar op — spot-checked here for the three word-sized algebras,
    /// with values that exercise wrap-around, the Mersenne modulus, and
    /// tropical saturation (`∞`).
    #[test]
    fn packed_array_planes_agree_with_scalar() {
        use rand::SeedableRng;
        const L: usize = 8;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);

        fn check<S: PackedSemiring<8, Plane = [S; 8]> + Copy>(a: [S; 8], b: [S; 8]) {
            let sum = S::packed_add(&a, &b);
            let prod = S::packed_mul(&a, &b);
            let fma = S::packed_mul_add(&sum, &a, &b);
            for lane in 0..8 {
                assert_eq!(sum[lane], a[lane].add(&b[lane]));
                assert_eq!(prod[lane], a[lane].mul(&b[lane]));
                assert_eq!(fma[lane], sum[lane].add(&prod[lane]));
                assert_eq!(S::extract(&a, lane), a[lane]);
            }
            assert_eq!(S::zero_mask(&S::packed_zero()) & 0xFF, 0xFF);
        }

        check::<Fp>(
            std::array::from_fn(|_| Fp::sample_nonzero(&mut rng)),
            std::array::from_fn(|_| Fp::sample_nonzero(&mut rng)),
        );
        check::<Wrap64>(
            std::array::from_fn(|i| Wrap64(u64::MAX - i as u64)),
            std::array::from_fn(|_| Wrap64::sample_nonzero(&mut rng)),
        );
        check::<MinPlus>(
            std::array::from_fn(|i| {
                if i % 3 == 0 {
                    MinPlus::zero()
                } else {
                    MinPlus::weight(i as u64)
                }
            }),
            std::array::from_fn(|i| MinPlus::weight(2 * i as u64)),
        );

        // try_neg: lane-wise negation for the ring, refusal for MinPlus.
        let w: [Wrap64; L] = std::array::from_fn(|i| Wrap64(i as u64 + 1));
        let neg = <Wrap64 as PackedSemiring<L>>::packed_try_neg(&w).unwrap();
        for lane in 0..L {
            assert_eq!(neg[lane], w[lane].neg());
        }
        let t: [MinPlus; L] = std::array::from_fn(|i| MinPlus::weight(i as u64));
        assert!(<MinPlus as PackedSemiring<L>>::packed_try_neg(&t).is_none());
    }

    /// The bit-sliced `u64` planes at widths 1, 8 and 64: bit `i` is lane
    /// `i`, add/mul are one bitwise op, and every lane agrees with the
    /// scalar algebra — including the characteristic-2 distinction (`Bool`
    /// or vs `Gf2` xor), `Gf2`'s self-inverse negation against `Bool`'s
    /// refusal, and the zero mask once bits `LANES..64` are masked off.
    #[test]
    fn packed_bit_sliced_planes_agree_with_scalar() {
        fn check<S: PackedSemiring<L, Plane = u64> + Copy, const L: usize>(lift: fn(bool) -> S) {
            let lanes_mask = if L == 64 { !0 } else { (1u64 << L) - 1 };
            let bit = |plane: u64, lane: usize| plane >> lane & 1 == 1;
            for (a, b, acc) in [
                (0b1100_1010_0101_0011, 0b1010_0110_0011_0101, 0b1111_0000),
                (!0, 0x0123_4567_89AB_CDEF, 0xF0F0_F0F0_0F0F_0F0F),
                (0, !0, 1),
                (1, 1, 0),
            ] {
                let sum = S::packed_add(&a, &b);
                let prod = S::packed_mul(&a, &b);
                let fma = S::packed_mul_add(&acc, &a, &b);
                let neg = S::packed_try_neg(&a);
                let mut zeros = 0u64;
                for lane in 0..L {
                    let (x, y, z) = (lift(bit(a, lane)), lift(bit(b, lane)), lift(bit(acc, lane)));
                    let at = format!("{L} lanes, lane {lane}");
                    assert_eq!(S::extract(&a, lane), x, "extract, {at}");
                    assert_eq!(S::extract(&sum, lane), x.add(&y), "add, {at}");
                    assert_eq!(S::extract(&prod, lane), x.mul(&y), "mul, {at}");
                    assert_eq!(S::extract(&fma, lane), z.add(&x.mul(&y)), "mul_add, {at}");
                    assert_eq!(neg.map(|p| S::extract(&p, lane)), x.try_neg(), "neg, {at}");
                    zeros |= u64::from(x.is_zero()) << lane;
                }
                assert_eq!(S::zero_mask(&a) & lanes_mask, zeros, "zero_mask, {L} lanes");
            }
            assert_eq!(S::zero_mask(&S::packed_zero()) & lanes_mask, lanes_mask);
            let ones = S::splat(&lift(true));
            assert!((0..L).all(|lane| S::extract(&ones, lane) == lift(true)));
            assert_eq!(S::zero_mask(&ones) & lanes_mask, 0);
            for lane in 0..L {
                let mut p = S::packed_zero();
                S::insert(&mut p, lane, lift(true));
                assert_eq!(S::zero_mask(&p) & lanes_mask, lanes_mask & !(1 << lane));
                S::insert(&mut p, lane, lift(false));
                assert_eq!(S::zero_mask(&p) & lanes_mask, lanes_mask);
            }
        }
        check::<Bool, 1>(Bool);
        check::<Bool, 8>(Bool);
        check::<Bool, 64>(Bool);
        check::<Gf2, 1>(Gf2);
        check::<Gf2, 8>(Gf2);
        check::<Gf2, 64>(Gf2);

        let a: u64 = 0b1100_1010_0101_0011;
        let b: u64 = 0b1010_0110_0011_0101;
        // Fused mul-add matches compose-of-parts.
        let acc: u64 = 0b1111_0000;
        assert_eq!(
            <Bool as PackedSemiring<64>>::packed_mul_add(&acc, &a, &b),
            acc | (a & b)
        );
        assert_eq!(
            <Gf2 as PackedSemiring<64>>::packed_mul_add(&acc, &a, &b),
            acc ^ (a & b)
        );

        // splat / insert / zero_mask round-trips.
        assert_eq!(<Bool as PackedSemiring<64>>::splat(&Bool(true)), !0);
        assert_eq!(<Gf2 as PackedSemiring<64>>::splat(&Gf2(false)), 0);
        let mut p = <Bool as PackedSemiring<64>>::packed_zero();
        <Bool as PackedSemiring<64>>::insert(&mut p, 63, Bool(true));
        <Bool as PackedSemiring<64>>::insert(&mut p, 5, Bool(true));
        <Bool as PackedSemiring<64>>::insert(&mut p, 63, Bool(false));
        assert_eq!(p, 1 << 5);
        assert_eq!(<Bool as PackedSemiring<64>>::zero_mask(&p), !(1 << 5));

        // Gf2 negation is the identity, lane-wise; Bool has none.
        assert_eq!(<Gf2 as PackedSemiring<64>>::packed_try_neg(&a), Some(a));
        assert!(<Bool as PackedSemiring<64>>::packed_try_neg(&a).is_none());
    }
}
