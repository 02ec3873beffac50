//! Multilinear degree of Boolean functions (§6.1.1).
//!
//! Every `f : {0,1}ⁿ → {0,1}` has a unique representation as a multilinear
//! polynomial `Σ_S α_S(f) · Π_{i∈S} x_i` over the reals. Lemma 6.5 shows
//! that computing `f` in the (abstract) supported low-bandwidth model takes
//! `Ω(log deg f)` rounds, because the partition classes `𝒢(t)` reachable
//! after `t` rounds have characteristic functions of degree at most `2^t`
//! (communication doubles degree; *silence* also communicates, but only
//! along disjoint classes, which by Lemma 6.4(d) does not increase degree).
//!
//! With `deg(OR_n) = n` this yields the `Ω(log n)` bounds of
//! Corollaries 6.8 and 6.10.

/// A Boolean function given by its truth table (`2ⁿ` entries).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BooleanFunction {
    n: usize,
    /// `table[x]` = `f(x)` where bit `i` of `x` is input `x_i`.
    table: Vec<bool>,
}

impl BooleanFunction {
    /// Build from a truth table of length `2ⁿ`.
    pub fn from_table(n: usize, table: Vec<bool>) -> BooleanFunction {
        assert_eq!(table.len(), 1usize << n, "truth table must have 2^n rows");
        BooleanFunction { n, table }
    }

    /// Build by evaluating a predicate on every input.
    pub fn from_fn(n: usize, f: impl FnMut(u32) -> bool) -> BooleanFunction {
        BooleanFunction {
            n,
            table: (0..1u32 << n).map(f).collect(),
        }
    }

    /// The `n`-ary OR.
    pub fn or(n: usize) -> BooleanFunction {
        BooleanFunction::from_fn(n, |x| x != 0)
    }

    /// The `n`-ary AND.
    pub fn and(n: usize) -> BooleanFunction {
        let full = (1u32 << n) - 1;
        BooleanFunction::from_fn(n, |x| x == full)
    }

    /// The `n`-ary XOR (parity).
    pub fn xor(n: usize) -> BooleanFunction {
        BooleanFunction::from_fn(n, |x| x.count_ones() % 2 == 1)
    }

    /// The dictator function `x ↦ x_i`.
    pub fn dictator(n: usize, i: usize) -> BooleanFunction {
        BooleanFunction::from_fn(n, move |x| (x >> i) & 1 == 1)
    }

    /// Evaluate.
    pub fn eval(&self, x: u32) -> bool {
        self.table[x as usize]
    }

    /// The multilinear coefficients `α_S(f)` over ℤ (indexed by subset
    /// bitmask), via the Möbius transform
    /// `α_S = Σ_{T ⊆ S} (−1)^{|S∖T|} f(T)`.
    pub fn multilinear_coefficients(&self) -> Vec<i64> {
        let mut a: Vec<i64> = self.table.iter().map(|&b| i64::from(b)).collect();
        for bit in 0..self.n {
            let step = 1usize << bit;
            for mask in 0..a.len() {
                if mask & step != 0 {
                    a[mask] -= a[mask ^ step];
                }
            }
        }
        a
    }

    /// The degree of `f`: the largest `|S|` with `α_S(f) ≠ 0` (0 for
    /// constant functions).
    pub fn degree(&self) -> usize {
        self.multilinear_coefficients()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(mask, _)| mask.count_ones() as usize)
            .max()
            .unwrap_or(0)
    }

    /// Lemma 6.5's round lower bound: `⌈log₂ deg(f)⌉`.
    pub fn round_lower_bound(&self) -> usize {
        let d = self.degree();
        if d <= 1 {
            0
        } else {
            (usize::BITS - (d - 1).leading_zeros()) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_has_full_degree() {
        // Corollary 6.8's backbone: deg(OR_n) = n.
        for n in 1..=12 {
            assert_eq!(BooleanFunction::or(n).degree(), n, "n = {n}");
        }
    }

    #[test]
    fn and_and_xor_have_full_degree() {
        for n in 1..=10 {
            assert_eq!(BooleanFunction::and(n).degree(), n);
            assert_eq!(BooleanFunction::xor(n).degree(), n);
        }
    }

    #[test]
    fn dictator_has_degree_one() {
        for i in 0..4 {
            assert_eq!(BooleanFunction::dictator(4, i).degree(), 1);
        }
    }

    #[test]
    fn constants_have_degree_zero() {
        assert_eq!(BooleanFunction::from_fn(3, |_| false).degree(), 0);
        assert_eq!(BooleanFunction::from_fn(3, |_| true).degree(), 0);
    }

    #[test]
    fn coefficients_reconstruct_the_function() {
        // Multilinear representation is exact: evaluate the polynomial on
        // every 0/1 point and compare.
        let f = BooleanFunction::from_fn(4, |x| {
            x.wrapping_mul(2654435761).wrapping_add(x.rotate_left(3)) & 8 != 0
        });
        let coeffs = f.multilinear_coefficients();
        for x in 0..16u32 {
            let mut value = 0i64;
            for (mask, &c) in coeffs.iter().enumerate() {
                if c != 0 && (mask as u32) & x == mask as u32 {
                    value += c;
                }
            }
            assert_eq!(value, i64::from(f.eval(x)), "x = {x:04b}");
        }
    }

    #[test]
    fn or_polynomial_matches_closed_form() {
        // OR_n = 1 − Π(1 − x_i): coefficient of S ≠ ∅ is (−1)^{|S|+1}.
        let f = BooleanFunction::or(5);
        let coeffs = f.multilinear_coefficients();
        assert_eq!(coeffs.len(), 32);
        assert_eq!(coeffs[0], 0);
        for (mask, &coeff) in coeffs.iter().enumerate().skip(1) {
            let expect = if mask.count_ones() % 2 == 1 { 1 } else { -1 };
            assert_eq!(coeff, expect, "S = {mask:05b}");
        }
    }

    #[test]
    fn lemma_6_5_round_bound() {
        // Computing OR of n bits needs ≥ log₂ n rounds.
        assert_eq!(BooleanFunction::or(8).round_lower_bound(), 3);
        assert_eq!(BooleanFunction::or(9).round_lower_bound(), 4);
        assert_eq!(BooleanFunction::dictator(8, 0).round_lower_bound(), 0);
    }

    #[test]
    #[should_panic(expected = "2^n")]
    fn wrong_table_size_rejected() {
        let _ = BooleanFunction::from_table(3, vec![true; 7]);
    }
}
