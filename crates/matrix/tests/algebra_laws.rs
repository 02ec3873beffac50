//! Randomized verification of the algebraic laws every implementation
//! promises (see the `Semiring` trait docs): associativity and
//! commutativity of `+`, associativity of `·`, identities, distributivity,
//! and zero-annihilation — for Boolean, tropical, `𝔽_p`, `GF(2)` and the
//! wrapping ring; additionally the ring laws where applicable.
//!
//! Uses seeded loops over the vendored `rand` instead of proptest; the
//! `proptest-tests` feature raises the iteration counts.

use lowband_matrix::{Bool, Fp, Gf2, MinPlus, Wrap64};
use lowband_model::algebra::{Ring, Semiring};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[cfg(feature = "proptest-tests")]
const CASES: u64 = 256;
#[cfg(not(feature = "proptest-tests"))]
const CASES: u64 = 64;

fn check_semiring_laws<S: Semiring>(a: S, b: S, c: S) {
    // Additive commutative monoid.
    assert_eq!(a.add(&b), b.add(&a));
    assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    assert_eq!(a.add(&S::zero()), a.clone());
    // Multiplicative monoid.
    assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    assert_eq!(a.mul(&S::one()), a.clone());
    assert_eq!(S::one().mul(&a), a.clone());
    // Distributivity (both sides — multiplication may not commute in
    // general semirings, though all of ours do).
    assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    assert_eq!(b.add(&c).mul(&a), b.mul(&a).add(&c.mul(&a)));
    // Annihilation.
    assert_eq!(a.mul(&S::zero()), S::zero());
    assert_eq!(S::zero().mul(&a), S::zero());
}

fn check_ring_laws<S: Ring>(a: S, b: S) {
    assert_eq!(a.add(&a.neg()), S::zero());
    assert_eq!(a.add(&b.neg()).add(&b), a.clone());
    assert_eq!(a.neg().neg(), a);
}

#[test]
fn bool_semiring_laws() {
    let mut rng = StdRng::seed_from_u64(0xB001);
    for _ in 0..CASES {
        let (a, b, c) = (rng.gen_bool(0.5), rng.gen_bool(0.5), rng.gen_bool(0.5));
        check_semiring_laws(Bool(a), Bool(b), Bool(c));
    }
}

#[test]
fn minplus_semiring_laws() {
    let mut rng = StdRng::seed_from_u64(0x314A);
    for _ in 0..CASES {
        let (a, b, c) = (
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(0u64..1_000_000),
        );
        let infs: u64 = rng.gen_range(0..8);
        // Mix in infinities: bit i of `infs` replaces operand i with ∞.
        let pick = |bit: u64, w: u64| {
            if infs & (1 << bit) != 0 {
                MinPlus::INFINITY
            } else {
                MinPlus::weight(w)
            }
        };
        check_semiring_laws(pick(0, a), pick(1, b), pick(2, c));
    }
}

#[test]
fn fp_semiring_ring_field_laws() {
    let mut rng = StdRng::seed_from_u64(0xF0F0);
    for _ in 0..CASES {
        let (a, b, c) = (
            Fp::new(rng.gen::<u64>()),
            Fp::new(rng.gen::<u64>()),
            Fp::new(rng.gen::<u64>()),
        );
        check_semiring_laws(a, b, c);
        check_ring_laws(a, b);
        // Fermat: a^(p−2) is the inverse of every nonzero a.
        if !a.is_zero() {
            assert_eq!(a.mul(&a.pow(Fp::P - 2)), Fp::one());
        }
        // Multiplication commutes in 𝔽_p.
        assert_eq!(a.mul(&b), b.mul(&a));
    }
}

#[test]
fn gf2_laws() {
    // Only 8 triples exist; enumerate them all.
    for bits in 0u8..8 {
        let (a, b, c) = (Gf2(bits & 1 != 0), Gf2(bits & 2 != 0), Gf2(bits & 4 != 0));
        check_semiring_laws(a, b, c);
        check_ring_laws(a, b);
    }
}

#[test]
fn wrap64_semiring_ring_laws() {
    let mut rng = StdRng::seed_from_u64(0x6464);
    for _ in 0..CASES {
        let (a, b, c) = (
            Wrap64(rng.gen::<u64>()),
            Wrap64(rng.gen::<u64>()),
            Wrap64(rng.gen::<u64>()),
        );
        check_semiring_laws(a, b, c);
        check_ring_laws(a, b);
    }
}

#[test]
fn nat_semiring_laws_small() {
    use lowband_model::algebra::Nat;
    let mut rng = StdRng::seed_from_u64(0x2A7A);
    for _ in 0..CASES {
        let (a, b, c) = (
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(0u64..1_000_000),
        );
        check_semiring_laws(Nat(a), Nat(b), Nat(c));
    }
}
