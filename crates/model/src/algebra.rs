//! Algebraic structures carried by messages.
//!
//! The paper states its results for matrix multiplication over *semirings*
//! (addition + multiplication, no subtraction) and over *fields* (where fast
//! dense multiplication à la Strassen applies). The message payloads of the
//! simulator are elements of a [`Semiring`]; the richer [`Ring`] and
//! [`Field`] traits are used by the dense kernels in `lowband-matrix`.
//!
//! One semiring, [`Nat`] (`u64` with saturating `+`/`×`), lives here so that
//! the model crate is self-contained and testable; the full set of algebra
//! implementations (Boolean, tropical, `𝔽_p`, …) lives in `lowband-matrix`.

/// A commutative semiring `(S, +, ·, 0, 1)`.
///
/// Requirements (checked by property tests in `lowband-matrix`):
/// `+` is associative and commutative with identity `zero`; `·` is
/// associative with identity `one`; `·` distributes over `+`;
/// `zero · x = zero`.
pub trait Semiring: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Semiring addition.
    fn add(&self, rhs: &Self) -> Self;
    /// Semiring multiplication.
    fn mul(&self, rhs: &Self) -> Self;

    /// `true` iff this element equals [`Semiring::zero`].
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// The additive inverse, when the structure has one.
    ///
    /// Semirings return `None` (the default); every [`Ring`] implementation
    /// overrides this to `Some(self.neg())`. The executor uses it for the
    /// subtraction op that Strassen-style field schedules need, failing
    /// loudly when such a schedule is run over a plain semiring.
    fn try_neg(&self) -> Option<Self> {
        None
    }

    /// A 64-bit digest of the element, folded into the executors' per-round
    /// rolling checksums for in-flight corruption detection.
    ///
    /// The default only distinguishes zero from nonzero — enough to catch
    /// message *drops* but coarse for corruption. Every concrete algebra in
    /// this workspace overrides it with its full representation; custom
    /// types should too, or in-flight corruption may go undetected.
    fn digest(&self) -> u64 {
        u64::from(!self.is_zero())
    }

    /// The perturbed value a fault-injected "corruption" delivers instead
    /// of `self`. The default adds one. For algebras where `x + 1 = x`
    /// (e.g. the Boolean semiring's `true`), injected corruption can be a
    /// no-op — which the checksum then rightly does not flag.
    fn corrupted(&self) -> Self {
        self.add(&Self::one())
    }
}

/// A commutative ring: a semiring with additive inverses.
///
/// Subtraction is what Strassen-style fast multiplication needs, so the
/// paper's "fields" results only require this much from the local kernels.
pub trait Ring: Semiring {
    /// Additive inverse.
    ///
    /// Implementations must also override [`Semiring::try_neg`] to
    /// `Some(self.neg())` so ring-only schedule ops work at run time.
    fn neg(&self) -> Self;

    /// `self - rhs`, default via [`Ring::neg`].
    fn sub(&self, rhs: &Self) -> Self {
        self.add(&rhs.neg())
    }
}

/// A field: a ring where every nonzero element has a multiplicative inverse.
pub trait Field: Ring {
    /// Multiplicative inverse; `None` for zero.
    fn inv(&self) -> Option<Self>;
}

/// A packed companion to [`Semiring`]: `LANES` independent elements of
/// `Self` carried in one *lane plane* and advanced together.
///
/// This is the value-side half of batched schedule execution (the
/// struct-of-arrays `PackedLinkedMachine` in
/// [`crate::link`](mod@crate::link)): one decode of a linked schedule
/// drives `LANES` batch members at once, and every semiring op becomes a
/// straight-line loop over a plane that the compiler can autovectorize.
/// Two plane shapes exist in this workspace:
///
/// * **array planes** `[S; LANES]` — one element per lane, generated by
///   [`impl_packed_semiring_array!`](crate::impl_packed_semiring_array)
///   for any `Copy` semiring ([`Nat`] here; `Fp`, `Wrap64`, `MinPlus` in
///   `lowband-matrix`);
/// * **bit-sliced planes** — for two-element algebras (`Bool`, `Gf2` in
///   `lowband-matrix`) a plane is a single `u64` whose bit `i` is lane
///   `i`, so `add`/`mul` are one `or|xor`/`and` instruction advancing
///   64 batch members per machine word.
///
/// Lane indices run `0..LANES` and `LANES` must be at most 64 so that a
/// [`PackedSemiring::zero_mask`] fits one `u64` (executors assert this at
/// construction). Laws: every lane of every packed op must agree exactly
/// (bit-identically) with the scalar op applied to the extracted lanes —
/// the packed ≡ sequential equivalence suite in `tests/batch.rs` checks
/// this end to end.
pub trait PackedSemiring<const LANES: usize>: Semiring {
    /// The lane plane: `LANES` elements of `Self` in packed form.
    type Plane: Clone + Send + Sync + std::fmt::Debug + 'static;

    /// A plane holding [`Semiring::zero`] in every lane.
    fn packed_zero() -> Self::Plane;

    /// Broadcast one element into every lane.
    fn splat(value: &Self) -> Self::Plane;

    /// Lane-wise [`Semiring::add`].
    fn packed_add(lhs: &Self::Plane, rhs: &Self::Plane) -> Self::Plane;

    /// Lane-wise [`Semiring::mul`].
    fn packed_mul(lhs: &Self::Plane, rhs: &Self::Plane) -> Self::Plane;

    /// Lane-wise `acc + lhs · rhs`, the inner op of `MulAdd` and block
    /// kernels. Default composes [`PackedSemiring::packed_mul`] and
    /// [`PackedSemiring::packed_add`]; bit-sliced impls fuse it.
    fn packed_mul_add(acc: &Self::Plane, lhs: &Self::Plane, rhs: &Self::Plane) -> Self::Plane {
        Self::packed_add(acc, &Self::packed_mul(lhs, rhs))
    }

    /// The element in lane `lane` (`lane < LANES`).
    fn extract(plane: &Self::Plane, lane: usize) -> Self;

    /// Replace the element in lane `lane` (`lane < LANES`).
    fn insert(plane: &mut Self::Plane, lane: usize, value: Self);

    /// Lane-wise [`Semiring::is_zero`] as a bit mask: bit `lane` is set
    /// iff that lane holds zero. Bits `LANES..64` are unspecified.
    fn zero_mask(plane: &Self::Plane) -> u64;

    /// Lane-wise [`Semiring::try_neg`]; `None` when the algebra has no
    /// additive inverses (any lane failing fails the plane — `try_neg` is
    /// all-or-nothing per type, never per value).
    fn packed_try_neg(plane: &Self::Plane) -> Option<Self::Plane> {
        let mut out = Self::packed_zero();
        for lane in 0..LANES {
            Self::insert(&mut out, lane, Self::extract(plane, lane).try_neg()?);
        }
        Some(out)
    }

    /// The [`Semiring::digest`] of one lane, for per-lane round checksums:
    /// packed executors keep `LANES` independent rolling checksums so
    /// in-flight corruption is localized to the batch member it hit.
    fn lane_digest(plane: &Self::Plane, lane: usize) -> u64 {
        Self::extract(plane, lane).digest()
    }

    /// Apply [`Semiring::corrupted`] to one lane in place (fault
    /// injection perturbs a single member's payload word).
    fn corrupt_lane(plane: &mut Self::Plane, lane: usize) {
        let v = Self::extract(plane, lane).corrupted();
        Self::insert(plane, lane, v);
    }
}

/// Implement [`PackedSemiring`] for a `Copy` semiring with array planes
/// `[S; LANES]`, generically over the lane count. The generated bodies
/// are plain fixed-length lane loops — the autovectorization-friendly
/// form — and inherit `add`/`mul`/`try_neg`/`digest`/`corrupted` from the
/// scalar [`Semiring`] impl, so the packed laws hold by construction.
#[macro_export]
macro_rules! impl_packed_semiring_array {
    ($t:ty) => {
        impl<const LANES: usize> $crate::algebra::PackedSemiring<LANES> for $t {
            type Plane = [$t; LANES];

            #[inline]
            fn packed_zero() -> Self::Plane {
                [<$t as $crate::algebra::Semiring>::zero(); LANES]
            }

            #[inline]
            fn splat(value: &Self) -> Self::Plane {
                [*value; LANES]
            }

            #[inline]
            fn packed_add(lhs: &Self::Plane, rhs: &Self::Plane) -> Self::Plane {
                ::std::array::from_fn(|i| $crate::algebra::Semiring::add(&lhs[i], &rhs[i]))
            }

            #[inline]
            fn packed_mul(lhs: &Self::Plane, rhs: &Self::Plane) -> Self::Plane {
                ::std::array::from_fn(|i| $crate::algebra::Semiring::mul(&lhs[i], &rhs[i]))
            }

            #[inline]
            fn extract(plane: &Self::Plane, lane: usize) -> Self {
                plane[lane]
            }

            #[inline]
            fn insert(plane: &mut Self::Plane, lane: usize, value: Self) {
                plane[lane] = value;
            }

            #[inline]
            fn zero_mask(plane: &Self::Plane) -> u64 {
                let mut mask = 0u64;
                for (i, v) in plane.iter().enumerate() {
                    mask |= u64::from($crate::algebra::Semiring::is_zero(v)) << i;
                }
                mask
            }
        }
    };
}

crate::impl_packed_semiring_array!(Nat);

/// The semiring of natural numbers under saturating `u64` arithmetic.
///
/// Saturation keeps the structure a genuine (commutative, zero-annihilating)
/// semiring on the representable range while avoiding overflow panics in
/// debug builds; tests use values small enough that saturation never fires.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct Nat(pub u64);

impl Semiring for Nat {
    fn zero() -> Self {
        Nat(0)
    }
    fn one() -> Self {
        Nat(1)
    }
    fn add(&self, rhs: &Self) -> Self {
        Nat(self.0.saturating_add(rhs.0))
    }
    fn mul(&self, rhs: &Self) -> Self {
        Nat(self.0.saturating_mul(rhs.0))
    }
    fn digest(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nat_semiring_laws_smoke() {
        let (a, b, c) = (Nat(3), Nat(5), Nat(7));
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        assert_eq!(a.add(&Nat::zero()), a);
        assert_eq!(a.mul(&Nat::one()), a);
        assert_eq!(a.mul(&Nat::zero()), Nat::zero());
        assert!(Nat::zero().is_zero());
        assert!(!Nat::one().is_zero());
    }

    #[test]
    fn nat_saturates_instead_of_wrapping() {
        let big = Nat(u64::MAX);
        assert_eq!(big.add(&Nat(1)), big);
        assert_eq!(big.mul(&Nat(2)), big);
    }

    #[test]
    fn packed_array_lanes_agree_with_scalar_ops() {
        const L: usize = 4;
        let a: [Nat; L] = [Nat(1), Nat(0), Nat(7), Nat(u64::MAX)];
        let b: [Nat; L] = [Nat(5), Nat(3), Nat(0), Nat(2)];
        let sum = <Nat as PackedSemiring<L>>::packed_add(&a, &b);
        let prod = <Nat as PackedSemiring<L>>::packed_mul(&a, &b);
        let fma = <Nat as PackedSemiring<L>>::packed_mul_add(&sum, &a, &b);
        for lane in 0..L {
            assert_eq!(
                <Nat as PackedSemiring<L>>::extract(&sum, lane),
                a[lane].add(&b[lane])
            );
            assert_eq!(
                <Nat as PackedSemiring<L>>::extract(&prod, lane),
                a[lane].mul(&b[lane])
            );
            assert_eq!(
                <Nat as PackedSemiring<L>>::extract(&fma, lane),
                sum[lane].add(&a[lane].mul(&b[lane]))
            );
        }
    }

    #[test]
    fn packed_array_splat_insert_extract_roundtrip() {
        const L: usize = 8;
        let mut plane = <Nat as PackedSemiring<L>>::splat(&Nat(9));
        assert_eq!(<Nat as PackedSemiring<L>>::zero_mask(&plane), 0);
        <Nat as PackedSemiring<L>>::insert(&mut plane, 3, Nat(0));
        <Nat as PackedSemiring<L>>::insert(&mut plane, 5, Nat(42));
        assert_eq!(<Nat as PackedSemiring<L>>::extract(&plane, 3), Nat(0));
        assert_eq!(<Nat as PackedSemiring<L>>::extract(&plane, 5), Nat(42));
        assert_eq!(<Nat as PackedSemiring<L>>::extract(&plane, 0), Nat(9));
        assert_eq!(<Nat as PackedSemiring<L>>::zero_mask(&plane), 1 << 3);
        let zeros = <Nat as PackedSemiring<L>>::packed_zero();
        assert_eq!(<Nat as PackedSemiring<L>>::zero_mask(&zeros), 0xFF);
        // Nat has no additive inverses: the packed negation fails whole.
        assert_eq!(<Nat as PackedSemiring<L>>::packed_try_neg(&plane), None);
    }

    #[test]
    fn packed_lane_digest_and_corruption_localize() {
        const L: usize = 4;
        let mut plane = <Nat as PackedSemiring<L>>::splat(&Nat(6));
        let before: Vec<u64> = (0..L)
            .map(|l| <Nat as PackedSemiring<L>>::lane_digest(&plane, l))
            .collect();
        <Nat as PackedSemiring<L>>::corrupt_lane(&mut plane, 2);
        for (lane, &was) in before.iter().enumerate() {
            let after = <Nat as PackedSemiring<L>>::lane_digest(&plane, lane);
            if lane == 2 {
                assert_ne!(after, was, "corrupted lane must change digest");
            } else {
                assert_eq!(after, was, "other lanes untouched");
            }
        }
    }
}
